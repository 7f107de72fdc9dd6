"""Campaign-style verification suites: generate scenarios, run orbits, solve
centers, and assert the existence/convergence claims; emit CSV and text
reports.

Verdict aggregation is conjunctive: a campaign passes only if every one of
its sub-checks passes. All randomness flows from per-trial seeds derived from
the root seed, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from orderfp import corpus
from orderfp.asymcenter import (
    asymptotic_radius,
    center_feasible,
    problem_from_orbit,
    solve_asym_center,
)
from orderfp.iterate import (
    CONVERGED,
    IterationConfig,
    MAX_ITER_REACHED,
    OrbitRecord,
    UNBOUNDED_SUSPECTED,
    check_orbit_monotone,
    picard_orbit,
)
from orderfp.mapping import (
    Domain,
    as_affine,
    GridMap,
    GridSearchConfig,
    MappingSpec,
    SamplerConfig,
    TranslationMap,
    apply_map,
    domain_contains,
    fixed_point_oracle,
    is_alpha_nonexpansive,
    is_monotone_nonexpansive,
    make_mapping,
    mapping_from_dict,
    sample_domain_point,
)
from orderfp.order import NORM_MONOTONE_TOL, ConeSpec, leq, is_norm_monotonic, _member_raw
from orderfp.space import SpaceSpec, as_vector, norm, _row_norms

SUITES = ("t32", "t33", "t34", "t41-44", "c45-46")

CENTER_RESIDUAL_TOL = 1e-6
CENTER_FEAS_TOL = 1e-9
LIMIT_RESIDUAL_TOL = 1e-8
DESCENT_TOL = 1e-9

FINITE_DIM_CAVEAT = (
    "finite-dimensional run: weak and norm convergence coincide, so weak-limit "
    "claims are checked as norm limits"
)

# campaign default: desk-scale corpus maps blow up by about one unit per step,
# so a small norm ceiling keeps the growth detector fast
CAMPAIGN_ITERATION = IterationConfig(max_iter=200_000, bound_threshold=1e4)

# starts sampled by the below/above x0 policies; the scale doubles every 100
X0_TRIES = 400


def _verbose() -> bool:
    return os.environ.get("ORDERFP_VERBOSE", "") not in ("", "0")


class HypothesisError(RuntimeError):
    """A scenario violates the hypotheses of the claim under test."""


@dataclass
class Scenario:
    sid: str
    space: SpaceSpec
    cone: ConeSpec
    map: MappingSpec
    alpha: float = 0.0
    x0_policy: str = "zero"  # zero | below | above | explicit
    x0: np.ndarray | None = None
    expected: str = "unknown"  # fixed_point_exists | no_fixed_point | unknown
    seed: int = 0
    grid_cfg: GridSearchConfig | None = None


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class CampaignReport:
    campaign: str
    scenario_id: str
    checks: list[CheckResult] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))
        if _verbose():
            print(f"    [{'ok' if passed else 'FAIL'}] {self.campaign}/{self.scenario_id}/{name} {detail}")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks) - good


def resolve_x0(scn: Scenario) -> np.ndarray:
    """Produce the starting point demanded by the scenario policy; sampled
    policies verify the order relation against T x0 before the run."""
    spec = scn.map
    if scn.x0_policy == "explicit":
        if scn.x0 is None:
            raise HypothesisError(f"{scn.sid}: explicit policy without an x0")
        x0 = as_vector(scn.x0, dim=spec.dim)
        if not domain_contains(spec.domain, x0):
            raise HypothesisError(f"{scn.sid}: explicit x0 outside the domain")
        return x0
    if scn.x0_policy == "zero":
        x0 = np.zeros(spec.dim)
        if not domain_contains(spec.domain, x0):
            raise HypothesisError(f"{scn.sid}: zero start outside the domain")
        return x0
    if scn.x0_policy not in ("below", "above"):
        raise HypothesisError(f"{scn.sid}: unknown x0 policy {scn.x0_policy!r}")
    rng = np.random.default_rng(scn.seed)
    for attempt in range(X0_TRIES):
        scale = float(2 ** (attempt // 100))
        x = sample_domain_point(spec, rng, scale=scale)
        tx = apply_map(spec, x)
        if scn.x0_policy == "below" and leq(scn.cone, x, tx):
            return x
        if scn.x0_policy == "above" and leq(scn.cone, tx, x):
            return x
    raise HypothesisError(f"{scn.sid}: could not sample an x0 with the requested order")


def _settled_orbit(
    scn: Scenario, x0: np.ndarray, cfg: IterationConfig
) -> OrbitRecord:
    """Run the orbit; an inconclusive budget exhaustion is retried once with a
    ten-fold budget before being reported as such. A ``nonfinite`` orbit is
    not retried: a bigger budget cannot undo an overflow."""
    record = picard_orbit(scn.map, x0, scn.cone, scn.space, cfg)
    if record.verdict == MAX_ITER_REACHED:
        bigger = dataclasses.replace(
            cfg, max_iter=cfg.max_iter * 10, bound_threshold=cfg.bound_threshold * 10
        )
        record = picard_orbit(scn.map, x0, scn.cone, scn.space, bigger)
    return record


def _class_hypothesis(rep: CampaignReport, scn: Scenario, samples: int) -> bool:
    cfg = SamplerConfig(n_samples=samples, seed=scn.seed)
    class_rep = is_alpha_nonexpansive(
        scn.map, scn.cone, scn.space, scn.alpha, cfg, exhaustive=isinstance(scn.map.op, GridMap)
    )
    rep.add("hypothesis_alpha_class", class_rep.passed, class_rep.summary())
    return class_rep.passed


def _oracle_points(scn: Scenario) -> list[np.ndarray] | None:
    """Fixed points from the independent search, or None when no bounded
    search region is available for a non-affine map."""
    op = scn.map.op
    if scn.grid_cfg is None and as_affine(op) is None and not isinstance(op, GridMap):
        return None
    return fixed_point_oracle(scn.map, scn.grid_cfg)


def _center_checks(
    rep: CampaignReport,
    scn: Scenario,
    record: OrbitRecord,
    direction: str,
) -> np.ndarray:
    """Solve the asymptotic-center problem for a bounded monotone orbit and run
    the fixed-point, feasibility, and radius checks. Descending orbits are
    handled by reflecting through the origin (the orthant is symmetric)."""
    sign = 1.0 if direction == "up" else -1.0
    problem = problem_from_orbit(sign * record.points, scn.cone, scn.space)
    result = solve_asym_center(problem)
    z = sign * result.z
    tz = apply_map(scn.map, z)
    residual = norm(scn.space, tz - z)
    rep.add(
        "center_is_fixed",
        residual <= CENTER_RESIDUAL_TOL,
        f"residual={residual!r}",
    )
    rep.add(
        "center_feasible",
        center_feasible(problem, result.z, tol=CENTER_FEAS_TOL),
        f"tail of {problem.tail.shape[0]} points vs center",
    )
    rep.add("solver_gap", result.gap <= 1e-6, f"gap={result.gap!r}")
    f_z = asymptotic_radius(problem, result.z)
    f_tz = asymptotic_radius(problem, sign * tz)
    rep.add(
        "radius_not_increased_by_map",
        f_tz <= f_z + 1e-9,
        f"f(Tz)={f_tz!r} f(z)={f_z!r}",
    )
    mid = 0.5 * (result.z + sign * tz)
    if center_feasible(problem, mid, tol=1e-9):
        f_mid = asymptotic_radius(problem, mid)
        rep.add("midpoint_radius_optimal", f_mid >= f_z - 1e-9, f"f(mid)={f_mid!r}")
    return z


def _descent_check(
    rep: CampaignReport, scn: Scenario, record: OrbitRecord, x0: np.ndarray, direction: str
) -> None:
    """If the independent search finds a fixed point on the far side of x0,
    the distance sequence to it must be non-increasing from ||x0 - z||."""
    fps = _oracle_points(scn)
    if fps is None:
        rep.caveats.append("no bounded search region: converse descent check skipped")
        return
    if direction == "up":
        candidates = [z for z in fps if leq(scn.cone, x0, z, tol=1e-9)]
        tag = "dominating"
    else:
        candidates = [z for z in fps if leq(scn.cone, z, x0, tol=1e-9)]
        tag = "dominated"
    if not candidates:
        rep.add(f"descent_vacuous_no_{tag}_fixed_point", True, f"{len(fps)} fixed points found")
        return
    z = candidates[0]
    bound = norm(scn.space, x0 - z) + DESCENT_TOL
    worst = float(_row_norms(scn.space, (record.points - z)[None]).max())
    rep.add(
        f"descent_from_{tag}_fixed_point",
        worst <= bound,
        f"max distance {worst!r} vs start {bound!r}",
    )


def _existence_campaign(
    scn: Scenario, direction: str, iter_cfg: IterationConfig, samples: int
) -> CampaignReport:
    suite = "t32" if direction == "up" else "t33"
    rep = CampaignReport(suite, scn.sid)
    x0 = resolve_x0(scn)
    tx0 = apply_map(scn.map, x0)
    ordered = leq(scn.cone, x0, tx0) if direction == "up" else leq(scn.cone, tx0, x0)
    rep.add(
        "hypothesis_start_ordered",
        ordered,
        f"x0 and Tx0 ordered {'upward' if direction == 'up' else 'downward'}",
    )
    if not ordered:
        return rep
    if not _class_hypothesis(rep, scn, samples):
        return rep

    record = _settled_orbit(scn, x0, iter_cfg)
    chain = check_orbit_monotone(record, scn.cone)
    if direction == "up":
        rep.add("orbit_chain_ascending", chain.increasing, f"first violation: {chain.first_up_violation}")
    else:
        rep.add("orbit_chain_descending", chain.decreasing, f"first violation: {chain.first_down_violation}")

    if record.verdict == CONVERGED:
        if scn.expected == "no_fixed_point":
            rep.add("expected_unbounded", False, "orbit converged but no fixed point was expected")
        z = _center_checks(rep, scn, record, direction)
        if direction == "up":
            rep.add("x0_dominated_by_center", leq(scn.cone, x0, z, tol=1e-9))
        else:
            rep.add("x0_dominates_center", leq(scn.cone, z, x0, tol=1e-9))
    elif record.verdict == UNBOUNDED_SUSPECTED:
        rep.add(
            "existence_branch_vacuous",
            scn.expected != "fixed_point_exists",
            f"orbit flagged unbounded after {len(record)} points",
        )
    else:
        rep.add("orbit_conclusive", False, f"verdict={record.verdict}: neither converged nor unbounded")
        return rep

    _descent_check(rep, scn, record, x0, direction)
    return rep


def verify_ascending_existence(
    scn: Scenario, iter_cfg: IterationConfig | None = None, samples: int = 300
) -> CampaignReport:
    """Ascending-start scenario: a bounded ascending orbit must yield a fixed
    center dominating the start; a dominating fixed point forces descent."""
    return _existence_campaign(scn, "up", iter_cfg or CAMPAIGN_ITERATION, samples)


def verify_descending_existence(
    scn: Scenario, iter_cfg: IterationConfig | None = None, samples: int = 300
) -> CampaignReport:
    """Dual campaign for descending starts and dominated fixed points."""
    return _existence_campaign(scn, "down", iter_cfg or CAMPAIGN_ITERATION, samples)


# ---------------------------------------------------------------------------
# zero-orbit equivalence family


@dataclass(frozen=True)
class FamilyConfig:
    dims: tuple[int, ...] = (2, 5, 20)
    rhos: tuple[float, ...] = (0.5, 0.8, 0.95, 1.0)
    n_per_cell: int = 3
    translations_per_dim: int = 2
    include_identity_edge: bool = True


@dataclass
class TrialRow:
    trial: str
    family: str
    dim: int
    rho: float
    verdict: str
    bounded: bool
    oracle_nonempty: bool
    agree: bool


def verify_zero_orbit_equivalence(
    family_cfg: FamilyConfig | None = None,
    seed: int = 0,
    iter_cfg: IterationConfig | None = None,
) -> tuple[CampaignReport, list[TrialRow]]:
    """Generated cone self-maps: the bounded-orbit verdict from 0 must match
    nonemptiness of the independently computed fixed-point set, trial by
    trial. Budget exhaustion is escalated once and otherwise fails the trial.
    """
    family_cfg = family_cfg or FamilyConfig()
    iter_cfg = iter_cfg or CAMPAIGN_ITERATION
    rows: list[TrialRow] = []
    rep = CampaignReport("t34", "zero_orbit_family")

    plan: list[tuple[str, int, float]] = []  # (family, dim, rho) of each trial
    for dim in family_cfg.dims:
        plan += [("contractive", dim, rho) for rho in family_cfg.rhos for _ in range(family_cfg.n_per_cell)]
        plan += [("translation", dim, 1.0)] * family_cfg.translations_per_dim
    if family_cfg.include_identity_edge:
        plan.append(("identity_edge", 2, 1.0))

    for counter, (family, dim, rho) in enumerate(plan):
        trial_id = f"trial_{counter:03d}"
        rng = np.random.default_rng(seed * 1_000_003 + counter)
        if family == "contractive":
            spec = corpus.random_nonneg_affine(dim, rho, rng)
        elif family == "translation":
            shift = rng.uniform(0.5, 1.5, size=dim)
            domain = Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=dim))
            spec = make_mapping(TranslationMap(shift), domain)
        else:
            spec = corpus.identity_map(dim)
        scn = Scenario(sid=trial_id, space=SpaceSpec(dim=dim, p=2.0), cone=spec.domain.cone, map=spec)
        record = _settled_orbit(scn, np.zeros(dim), iter_cfg)
        oracle = fixed_point_oracle(spec)
        nonempty = len(oracle) > 0
        bounded = record.verdict == CONVERGED
        # an inconclusive or nonfinite orbit is a failed trial
        agree = record.verdict in (CONVERGED, UNBOUNDED_SUSPECTED) and bounded == nonempty
        rows.append(TrialRow(trial_id, family, dim, rho, record.verdict, bounded, nonempty, agree))

    contractive, translation, edge = (
        [r.agree for r in rows if r.family == fam] for fam in ("contractive", "translation", "identity_edge")
    )
    rep.add("bounded_regime_agreement", all(contractive), f"{len(contractive)} contractive trials")
    rep.add("unbounded_regime_agreement", all(translation), f"{len(translation)} translation trials")
    if family_cfg.include_identity_edge:
        rep.add("identity_edge_agreement", all(edge), "identity map from 0")
    rep.add("total_trials_counted", len(rows) == len(plan), f"{len(rows)} trials")
    return rep, rows


# ---------------------------------------------------------------------------
# norm-convergence campaigns


def verify_norm_convergence(
    scn: Scenario, iter_cfg: IterationConfig | None = None, samples: int = 300
) -> CampaignReport:
    """Convergence of monotone bounded orbits under a monotonic norm.

    Checks: the orbit converges in norm to a fixed z; for starts ordered
    against 0 the norm sequence is monotone and converges to the norm of the
    limit; the limit sits on the expected order side of the orbit.
    """
    iter_cfg = iter_cfg or CAMPAIGN_ITERATION
    rep = CampaignReport("t41-44", scn.sid)
    rep.caveats.append(FINITE_DIM_CAVEAT)
    x0 = resolve_x0(scn)
    tx0 = apply_map(scn.map, x0)
    if leq(scn.cone, x0, tx0):
        direction = "up"
    elif leq(scn.cone, tx0, x0):
        direction = "down"
    else:
        rep.add("hypothesis_start_ordered", False, "x0 and Tx0 are incomparable")
        return rep
    rep.add("hypothesis_start_ordered", True, f"direction={direction}")
    if not _class_hypothesis(rep, scn, samples):
        return rep
    mono = is_norm_monotonic(scn.cone, scn.space, n_samples=samples, seed=scn.seed)
    rep.add("hypothesis_norm_monotonic", mono.passed, mono.summary())
    if not mono.passed:
        return rep

    record = _settled_orbit(scn, x0, iter_cfg)
    if record.verdict != CONVERGED:
        rep.add("hypothesis_bounded_orbit", False, f"verdict={record.verdict}")
        return rep
    rep.add("hypothesis_bounded_orbit", True, f"{len(record)} points")

    fps = _oracle_points(scn)
    last = record.points[-1]
    if fps:
        z = min(fps, key=lambda q: norm(scn.space, q - last))
    else:
        sign = 1.0 if direction == "up" else -1.0
        problem = problem_from_orbit(sign * record.points, scn.cone, scn.space)
        z = sign * solve_asym_center(problem).z
    residual = norm(scn.space, apply_map(scn.map, z) - z)
    rep.add("limit_is_fixed", residual <= LIMIT_RESIDUAL_TOL, f"residual={residual!r}")
    gap = norm(scn.space, last - z)
    rep.add("orbit_reaches_limit", gap <= LIMIT_RESIDUAL_TOL, f"terminal distance={gap!r}")

    # every orbit point against z at once: pt <= z iff z - pt is in the cone
    dominating = bool(_member_raw(scn.cone, z - record.points, 1e-9).all())
    if direction == "up":
        rep.add("limit_dominates_orbit", dominating)
    else:
        dominated = bool(_member_raw(scn.cone, record.points - z, 1e-9).all())
        rep.add(
            "limit_on_an_order_side",
            dominated or dominating,
            f"dominated={dominated} dominating={dominating}",
        )
        rep.caveats.append(
            "descending runs: the dominated side is the informative one; both sides are recorded"
        )

    zero = np.zeros(scn.map.dim)
    strong_up = direction == "up" and leq(scn.cone, zero, x0)
    strong_down = direction == "down" and leq(scn.cone, x0, zero)
    if strong_up or strong_down:
        drops = np.diff(record.norms)
        rep.add(
            "norm_sequence_monotone",
            bool(np.all(drops >= -NORM_MONOTONE_TOL)),
            f"worst step={float(drops.min()) if drops.size else 0.0!r}",
        )
        nz = norm(scn.space, z)
        rep.add(
            "norm_sequence_limit",
            abs(record.norms[-1] - nz) <= 1e-8 and record.norms[-1] <= nz + 1e-8,
            f"terminal norm={float(record.norms[-1])!r} vs limit norm={nz!r}",
        )
    return rep


def verify_cone_convergence(
    scn: Scenario,
    iter_cfg: IterationConfig | None = None,
    samples: int = 300,
) -> CampaignReport:
    """Cone-domain maps with a nonempty fixed-point set: the orbit from 0
    converges to a fixed point; for nonexpansive maps the orbits from up to 4
    sampled x with x <= Tx (in 400 draws) converge too and stay dominated by
    ||x|| in distance from the zero orbit."""
    iter_cfg = iter_cfg or CAMPAIGN_ITERATION
    rep = CampaignReport("c45-46", scn.sid)
    if scn.map.domain.kind != "cone":
        raise HypothesisError(f"{scn.sid}: cone-domain campaign on a {scn.map.domain.kind} domain")
    if not _class_hypothesis(rep, scn, samples):
        return rep
    mono = is_norm_monotonic(scn.cone, scn.space, n_samples=samples, seed=scn.seed)
    rep.add("hypothesis_norm_monotonic", mono.passed, mono.summary())
    fps = _oracle_points(scn)
    if fps is None or not fps:
        raise HypothesisError(f"{scn.sid}: empty or unavailable fixed-point set")
    rep.add("hypothesis_fixed_points_exist", True, f"{len(fps)} found")

    zero = np.zeros(scn.map.dim)
    rec0 = _settled_orbit(scn, zero, iter_cfg)
    rep.add("zero_orbit_converges", rec0.verdict == CONVERGED, f"verdict={rec0.verdict}")
    if rec0.verdict != CONVERGED:
        return rep
    z0 = rec0.points[-1]
    res0 = norm(scn.space, apply_map(scn.map, z0) - z0)
    rep.add("zero_orbit_limit_fixed", res0 <= LIMIT_RESIDUAL_TOL, f"residual={res0!r}")
    nearest = float(_row_norms(scn.space, (z0 - np.asarray(fps))[None]).min())
    rep.add("zero_limit_near_oracle", nearest <= 1e-5, f"distance={nearest!r}")

    if scn.alpha == 0.0:
        mne = is_monotone_nonexpansive(scn.map, scn.cone, scn.space, SamplerConfig(samples, scn.seed))
        rep.add("hypothesis_nonexpansive", mne.passed, mne.summary())
        if not mne.passed:
            return rep
        rng = np.random.default_rng(scn.seed + 101)
        found = 0
        tries = 0
        while found < 4 and tries < 400:
            tries += 1
            x = sample_domain_point(scn.map, rng, scale=1.5)
            if not leq(scn.cone, x, apply_map(scn.map, x)):
                continue
            found += 1
            recx = _settled_orbit(scn, x, iter_cfg)
            ok_conv = recx.verdict == CONVERGED
            zx = recx.points[-1]
            resx = norm(scn.space, apply_map(scn.map, zx) - zx) if ok_conv else float("inf")
            steps = np.arange(max(len(rec0), len(recx)))
            norm_x = norm(scn.space, x)
            # converged tails are stationary to residual tolerance, so the
            # shorter record is extended by its last point
            gaps = (
                rec0.points[np.minimum(steps, len(rec0) - 1)]
                - recx.points[np.minimum(steps, len(recx) - 1)]
            )
            dominated = bool((_row_norms(scn.space, gaps[None]) <= norm_x + 1e-9).all())
            rep.add(
                f"ascending_start_{found}_converges",
                ok_conv and resx <= LIMIT_RESIDUAL_TOL,
                f"residual={resx!r}",
            )
            rep.add(
                f"ascending_start_{found}_dominated",
                dominated,
                f"||x||={norm_x!r} over {len(steps)} steps",
            )
        rep.add("sampled_ascending_starts", found > 0, f"{found} starts in {tries} tries")
    return rep


# ---------------------------------------------------------------------------
# suite runner: scenario registry, config, report files


def _scn(sid, spec, seed, x0=None, grid=None, expected="fixed_point_exists", **kw) -> Scenario:
    # a registry scenario in l2 over the map's dimension, ordered by its
    # domain cone; an x0 makes the start explicit, and grid = (lo, hi) bounds
    # a 7-point-per-axis oracle grid
    if x0 is not None:
        kw.update(x0_policy="explicit", x0=np.asarray(x0, dtype=float))
    if grid is not None:
        lo, hi = (np.full(spec.dim, bound) for bound in grid)
        kw["grid_cfg"] = GridSearchConfig(lo=lo, hi=hi, points_per_axis=7)
    space = SpaceSpec(dim=spec.dim, p=2.0)
    return Scenario(sid, space, spec.domain.cone, spec, expected=expected, seed=seed, **kw)


def default_scenarios(seed: int) -> dict[str, list[Scenario]]:
    """The shipped scenario corpus, seed-parameterized."""
    contraction, constant = corpus.affine_contraction(2), corpus.constant_map([1.0, 1.0])
    truncation, drift, steep = corpus.truncation_cap(2), corpus.box_drift_down(2), corpus.steep_step_map()
    random5 = corpus.random_nonneg_affine(5, 0.8, np.random.default_rng(seed + 7))
    return {
        "t32": [
            _scn("affine_contraction", contraction, seed),
            _scn("constant", constant, seed + 1),
            _scn("truncation", truncation, seed + 2, grid=(0.0, 3.0)),
            _scn("steep_step", steep, seed + 3, x0=[0.0], alpha=corpus.STEEP_STEP_ALPHA),
            _scn("random_contraction_d5", random5, seed + 4),
            _scn("translation", corpus.unit_translation(2), seed + 5, expected="no_fixed_point"),
        ],
        "t33": [
            _scn("affine_from_above", contraction, seed + 10, x0=[5.0, 5.0]),
            _scn("constant_from_above", constant, seed + 11, x0=[3.0, 3.0]),
            _scn("truncation_from_above", truncation, seed + 12, x0=[3.0, 3.0], grid=(0.0, 3.0)),
            _scn("box_drift_down", drift, seed + 13, x0=[-1.0, -1.0], grid=(-3.0, 0.0)),
        ],
        "t41-44": [
            _scn("affine_up_from_zero", contraction, seed + 20),
            _scn("affine_down", contraction, seed + 21, x0=[5.0, 5.0]),
            _scn("box_drift_down", drift, seed + 22, x0=[-1.0, -1.0], grid=(-3.0, 0.0)),
            _scn("truncation_fixed_start", truncation, seed + 23, grid=(0.0, 3.0)),
            _scn("constant_from_zero", constant, seed + 24),
            _scn("steep_step", steep, seed + 25, x0=[0.0], alpha=corpus.STEEP_STEP_ALPHA),
        ],
        "c45-46": [
            _scn("affine_contraction", contraction, seed + 30),
            _scn("truncation", truncation, seed + 31, grid=(0.0, 3.0)),
            _scn("box_clamp", corpus.box_clamp(2), seed + 32, grid=(0.0, 2.0)),
        ],
    }


def scenario_from_dict(d: dict, seed: int) -> Scenario:
    """Scenario from a config entry; the cone comes from the map's domain."""
    spec = mapping_from_dict(d["map"])
    sp = d.get("space", {})
    space = SpaceSpec(dim=int(sp.get("dim", spec.dim)), p=float(sp.get("p", 2.0)))
    grid_cfg = None
    if "grid" in d:
        g = d["grid"]
        points = int(g.get("points_per_axis", GridSearchConfig.points_per_axis))
        grid_cfg = GridSearchConfig(lo=g["lo"], hi=g["hi"], points_per_axis=points)
    x0 = d.get("x0")
    return Scenario(
        sid=str(d.get("id", "config_scenario")),
        space=space,
        cone=spec.domain.cone,
        map=spec,
        alpha=float(d.get("alpha", 0.0)),
        x0_policy=str(d.get("x0_policy", "zero")),
        x0=None if x0 is None else np.asarray(x0, dtype=float),
        expected=str(d.get("expected", "unknown")),
        seed=int(d.get("seed", seed)),
        grid_cfg=grid_cfg,
    )


def load_config(path) -> dict:
    if path is None:
        return {}
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _section(config: dict, key: str, default):
    """``default`` with the fields that ``config[key]`` gives, each converted
    to the type of its default value; other keys are ignored. A bool field
    rejects a string, a number field a boolean, an int field a fraction and
    a tuple field anything but a list, since the conversion would misread
    them."""
    given = config.get(key, {})
    fields = {f.name: type(getattr(default, f.name)) for f in dataclasses.fields(default) if f.name in given}
    for name, kind in fields.items():
        value = given[name]
        if (
            kind is bool and isinstance(value, str)
            or kind in (int, float) and isinstance(value, bool)
            or kind is int and isinstance(value, float) and not value.is_integer()
            or kind is tuple and not isinstance(value, (list, tuple))
        ):
            wanted = {bool: "boolean", int: "integer", float: "number", tuple: "list"}[kind]
            raise ValueError(f"config field {key}.{name} needs a JSON {wanted}, got {value!r}")
    return dataclasses.replace(default, **{name: kind(given[name]) for name, kind in fields.items()})


_CAMPAIGNS = {
    "t32": verify_ascending_existence,
    "t33": verify_descending_existence,
    "t41-44": verify_norm_convergence,
    "c45-46": verify_cone_convergence,
}


def run_suites(
    suites, config: dict, seed: int, out_dir
) -> tuple[list[CampaignReport], list[TrialRow]]:
    """Run the requested suites and return all campaign reports plus the
    family trial rows. Hypothesis aborts become failed checks with the
    diagnosis recorded, so a corrupted scenario fails its report instead of
    crashing the run."""
    samples = int(config.get("samples", 300))
    iter_cfg = _section(config, "iteration", CAMPAIGN_ITERATION)
    replace = bool(config.get("replace_scenarios", False))
    extra = config.get("scenarios", {})
    # t34 builds its own family; the registry is only built when used
    registry = default_scenarios(seed) if set(suites) - {"t34"} else {}

    reports: list[CampaignReport] = []
    trial_rows: list[TrialRow] = []
    for suite in suites:
        if _verbose():
            print(f"suite {suite}:")
        if suite == "t34":
            rep, rows = verify_zero_orbit_equivalence(
                _section(config, "family", FamilyConfig()), seed=seed, iter_cfg=iter_cfg
            )
            reports.append(rep)
            trial_rows.extend(rows)
            continue
        scenarios = [] if replace else list(registry.get(suite, []))
        scenarios += [scenario_from_dict(d, seed) for d in extra.get(suite, [])]
        campaign = _CAMPAIGNS[suite]
        for scn in scenarios:
            try:
                reports.append(campaign(scn, iter_cfg, samples))
            except HypothesisError as exc:
                rep = CampaignReport(suite, scn.sid)
                rep.add("hypothesis", False, f"aborted: {exc}")
                reports.append(rep)
    _write_reports(out_dir, suites, reports, trial_rows)
    return reports, trial_rows


def _write_reports(out_dir, suites, reports: list[CampaignReport], trial_rows: list[TrialRow]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for suite in suites:
        rows = [r for r in reports if r.campaign == suite]
        with (out / f"{suite}_checks.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["suite", "scenario", "check", "passed", "detail"])
            for rep in rows:
                for c in rep.checks:
                    writer.writerow([suite, rep.scenario_id, c.name, int(c.passed), c.detail])
    if trial_rows:
        with (out / "t34_trials.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            names = [f.name for f in dataclasses.fields(TrialRow)]
            writer.writerow(names)
            for t in trial_rows:
                values = [getattr(t, name) for name in names]
                writer.writerow([int(v) if isinstance(v, bool) else v for v in values])
    (out / "summary.txt").write_text(summary_table(reports), encoding="utf-8")


def summary_table(reports: list[CampaignReport]) -> str:
    """Deterministic text table: one line per scenario plus caveats and totals."""
    lines = [f"{'suite':<10} {'scenario':<28} {'checks':>6} {'failed':>6}  verdict"]
    total = failed = 0
    for rep in reports:
        good, bad = rep.counts
        total += good + bad
        failed += bad
        verdict = "PASS" if rep.passed else "FAIL"
        lines.append(f"{rep.campaign:<10} {rep.scenario_id:<28} {good + bad:>6} {bad:>6}  {verdict}")
        for cv in rep.caveats:
            lines.append(f"           note: {cv}")
        for c in rep.checks:
            if not c.passed:
                lines.append(f"           failed: {c.name}  {c.detail}")
    lines.append("")
    verdict = "ALL PASS" if failed == 0 else f"{failed} FAILED"
    lines.append(f"TOTAL: {total} checks, {failed} failed -> {verdict}")
    lines.append("")
    return "\n".join(lines)
