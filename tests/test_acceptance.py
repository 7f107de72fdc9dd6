"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np

from orderfp import corpus
from orderfp.asymcenter import center_feasible, problem_from_orbit, solve_asym_center
from orderfp.cli import main
from orderfp.harness import (
    FamilyConfig,
    default_scenarios,
    resolve_x0,
    verify_zero_orbit_equivalence,
)
from orderfp.iterate import CONVERGED, IterationConfig, picard_orbit
from orderfp.mapping import (
    AffineMap,
    Domain,
    MappingSpec,
    SamplerConfig,
    as_affine,
    check_displacement_bound,
    fixed_point_oracle,
    is_alpha_nonexpansive,
    is_monotone_nonexpansive,
    mapping_to_dict,
    sample_comparable_pairs,
)
from orderfp.order import ConeSpec
from orderfp.space import SpaceSpec, check_convexity_inequality, convexity_profile, modulus_of_convexity, norm

FAST = IterationConfig(max_iter=100_000, residual_tol=1e-10, bound_threshold=1e4, window=50)


def announce(number: int, ok: bool, message: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, f"criterion {number}: {message}"


def test_criterion_1_modulus_matches_closed_form():
    space = SpaceSpec(dim=2, p=2.0)
    start = time.perf_counter()
    worst = 0.0
    for eps in (0.5, 1.0, 1.5, 2.0):
        closed = 1.0 - math.sqrt(max(1.0 - eps * eps / 4.0, 0.0))
        worst = max(worst, abs(modulus_of_convexity(space, eps) - closed))
    elapsed = time.perf_counter() - start
    announce(1, worst <= 1e-5 and elapsed < 10.0,
             f"max |minimized - closed form| = {worst:.2e} in {elapsed:.2f} s")


def test_criterion_2_convexity_inequality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    checked = 0
    for p in (1.5, 2.0, 3.0):
        profile = convexity_profile(SpaceSpec(dim=2, p=p), n_grid=101)
        for dim in (2, 5):
            space = SpaceSpec(dim=dim, p=p)
            for k in range(10_000):
                r = rng.uniform(0.5, 4.0)
                u = rng.normal(size=dim)
                v = rng.normal(size=dim)
                x = u / norm(space, u) * (r * rng.uniform())
                y = v / norm(space, v) * (r * rng.uniform())
                lam = 0.5 if k % 10 == 0 else rng.uniform()  # midpoint instances included
                ok = check_convexity_inequality(space, x, y, lam, r, delta_fn=profile.delta_at)
                checked += 1
                violations += 0 if ok else 1
    elapsed = time.perf_counter() - start
    announce(2, violations == 0 and elapsed < 30.0,
             f"{checked} admissible tuples, {violations} violations, {elapsed:.1f} s")


def test_criterion_3_alpha_zero_reduction_agreement():
    disagreements = []
    for entry in corpus.alpha_corpus():
        cfg = SamplerConfig(n_samples=1000, seed=31)
        a0 = is_alpha_nonexpansive(entry.spec, entry.space, 0.0, cfg)
        ne = is_monotone_nonexpansive(entry.spec, entry.space, cfg)
        if a0.passed != ne.passed:
            disagreements.append(entry.name)
    announce(3, not disagreements,
             f"verdicts agree on {len(corpus.alpha_corpus())} corpus maps "
             f"(1000 pairs each); disagreements: {disagreements}")


def test_criterion_4_displacement_bound_suite():
    bad = []
    for entry in corpus.alpha_corpus():
        xs, ys = sample_comparable_pairs(entry.spec, np.random.default_rng(41), 1000)
        for x, y in zip(xs, ys):
            if not check_displacement_bound(entry.spec, entry.space, entry.alpha, x, y):
                bad.append((entry.name, x, y))
    announce(4, not bad, f"0 violations over 1000 sampled comparable pairs per corpus map"
             if not bad else f"violations: {bad[:3]}")


def test_criterion_5_zero_orbit_biconditional():
    start = time.perf_counter()
    cfg = FamilyConfig(dims=(2, 5, 20), rhos=(0.5, 0.8, 0.95), n_per_cell=11,
                       translations_per_dim=2, include_identity_edge=True)
    report, rows = verify_zero_orbit_equivalence(cfg, seed=5, iter_cfg=FAST)
    elapsed = time.perf_counter() - start
    mismatches = [r.trial for r in rows if not r.agree]
    announce(5, len(rows) >= 100 and not mismatches and report.passed and elapsed < 60.0,
             f"{len(rows)} generated maps, {len(mismatches)} verdict/oracle mismatches, "
             f"{elapsed:.1f} s")


def _bounded_increasing_scenarios():
    return [s for s in default_scenarios(seed=0)["t32"] if s.expected == "fixed_point_exists"]


def test_criterion_6_center_pipeline():
    failures = []
    for scn in _bounded_increasing_scenarios():
        x0 = resolve_x0(scn)
        record = picard_orbit(scn.map, x0, scn.space, FAST)
        if record.verdict != CONVERGED:
            failures.append((scn.sid, "orbit did not converge"))
            continue
        problem = problem_from_orbit(record.points, scn.cone, scn.space)
        result = solve_asym_center(problem)
        residual = norm(scn.space, scn.map.op.evaluate(result.z) - result.z)
        if residual > 1e-6:
            failures.append((scn.sid, f"residual {residual:.2e}"))
        if not center_feasible(problem, result.z, tol=1e-9):
            failures.append((scn.sid, "infeasible center"))
        view = as_affine(scn.map.op)
        if view is not None:
            exact = fixed_point_oracle(scn.map, scn.space)
            if exact:
                gap = min(float(np.linalg.norm(result.z - z)) for z in exact)
                if gap > 1e-5:
                    failures.append((scn.sid, f"distance to exact solve {gap:.2e}"))
    announce(6, not failures,
             f"{len(_bounded_increasing_scenarios())} bounded ascending scenarios; "
             f"failures: {failures}")


def test_criterion_7_strong_convergence_surrogate():
    failures = []
    scenarios = _bounded_increasing_scenarios()
    for scn in scenarios:
        x0 = resolve_x0(scn)
        record = picard_orbit(scn.map, x0, scn.space, FAST)
        if record.verdict != CONVERGED:
            failures.append((scn.sid, "no convergence"))
            continue
        drops = np.diff(record.norms)
        if drops.size and float(drops.min()) < -1e-12:
            failures.append((scn.sid, f"norm sequence dropped by {float(drops.min()):.2e}"))
        view = as_affine(scn.map.op)
        fps = fixed_point_oracle(scn.map, scn.space) if view is not None else fixed_point_oracle(
            scn.map, scn.space, scn.grid_cfg) if scn.grid_cfg is not None else []
        if fps:
            z = min(fps, key=lambda q: float(np.linalg.norm(q - record.points[-1])))
            if float(np.linalg.norm(record.points[-1] - z)) > 1e-8:
                failures.append((scn.sid, "terminal point far from fixed point"))
        elif record.residuals[-1] > 1e-8:
            failures.append((scn.sid, "terminal residual too large"))
    announce(7, not failures, f"{len(scenarios)} ascending scenarios from 0; failures: {failures}")


def test_criterion_8_self_falsification(tmp_path):
    bad_op = AffineMap(matrix=np.array([[0.5, 0.0], [-0.5, 0.5]]), offset=np.array([0.5, 1.0]))
    bad = MappingSpec(bad_op, Domain(kind="box", cone=ConeSpec(kind="orthant", dim=2),
                                      lo=np.zeros(2), hi=np.full(2, 2.0)))
    config = {
        "replace_scenarios": True,
        "scenarios": {"t32": [{"id": "injected_non_monotone", "map": mapping_to_dict(bad),
                               "alpha": 0.0, "x0_policy": "below"}]},
    }
    cfg_path = tmp_path / "corrupted.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["verify", "--suite", "t32", "--config", str(cfg_path), "--seed", "0",
                 "--out", str(tmp_path / "out")])
    summary = (tmp_path / "out" / "summary.txt").read_text()
    announce(8, code != 0 and "FAIL" in summary,
             f"injected non-monotone map: exit code {code}, failing summary written")


def test_criterion_9_deterministic_summaries(tmp_path):
    for name in ("run_a", "run_b"):
        code = main(["verify", "--suite", "all", "--seed", "123",
                     "--out", str(tmp_path / name)])
        assert code == 0
    a = (tmp_path / "run_a" / "summary.txt").read_bytes()
    b = (tmp_path / "run_b" / "summary.txt").read_bytes()
    announce(9, a == b, f"two seeded runs of `verify --suite all`: summaries identical "
             f"({len(a)} bytes)")
