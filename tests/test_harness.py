"""Campaign behavior: hypotheses, verdict aggregation, and reproducibility."""

import csv
import dataclasses
import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderfp import corpus, harness, iterate, mapping
from orderfp.harness import (
    CAMPAIGN_ITERATION,
    FamilyConfig,
    HypothesisError,
    Scenario,
    TrialRow,
    default_scenarios,
    resolve_x0,
    run_suites,
    scenario_from_dict,
    summary_table,
    verify_ascending_existence,
    verify_cone_convergence,
    verify_descending_existence,
    verify_norm_convergence,
    verify_zero_orbit_equivalence,
)
from orderfp.iterate import (
    CONVERGED,
    MAX_ITER_REACHED,
    NONFINITE,
    UNBOUNDED_SUSPECTED,
    IterationConfig,
    picard_orbit,
)
from orderfp.mapping import (
    AffineMap,
    Domain,
    GridSearchConfig,
    MappingSpec,
    TranslationMap,
    apply_map,
    as_affine,
    fixed_point_oracle,
    mapping_to_dict,
    validate_self_map,
    _radius_bounds,
)
from orderfp.order import ConeSpec, leq
from orderfp.space import SpaceSpec

ORTH2 = ConeSpec(kind="orthant", dim=2)
P2 = SpaceSpec(dim=2, p=2.0)
FAST = IterationConfig(max_iter=50_000, residual_tol=1e-10, bound_threshold=1e4, window=50)


def scenario(spec, sid="s", **kw):
    return Scenario(sid=sid, space=P2, map=spec, **kw)


@dataclasses.dataclass
class RaisesOn:
    """``op``, but a call on a point whose bytes are in ``bad`` raises, for one point or rows."""

    op: object
    bad: set

    @property
    def dim(self) -> int:
        return self.op.dim

    def evaluate(self, x):
        for row in np.atleast_2d(x):
            if row.tobytes() in self.bad:
                raise RuntimeError(f"stepped onto {row}")
        return self.op.evaluate(x)


def corrupted_mapping():
    """Self-map of [0, 2]^2 with a negative matrix entry: not monotone."""
    op = AffineMap(matrix=np.array([[0.5, 0.0], [-0.5, 0.5]]), offset=np.array([0.5, 1.0]))
    domain = Domain(kind="box", cone=ORTH2, lo=np.zeros(2), hi=np.full(2, 2.0))
    return MappingSpec(op, domain)


class TestStartResolution:
    def test_zero_policy(self):
        x0 = resolve_x0(scenario(corpus.affine_contraction(2)))
        assert np.array_equal(x0, np.zeros(2))

    def test_explicit_policy_validates_domain(self):
        scn = scenario(corpus.affine_contraction(2), x0_policy="explicit",
                       x0=np.array([-1.0, 0.0]))
        with pytest.raises(HypothesisError):
            resolve_x0(scn)

    def test_below_policy_verifies_order(self):
        scn = scenario(corpus.affine_contraction(2), x0_policy="below", seed=1)
        x0 = resolve_x0(scn)
        assert leq(ORTH2, x0, apply_map(scn.map, x0))

    def test_above_policy_scale_escalation(self):
        scn = scenario(corpus.affine_contraction(2), x0_policy="above", seed=2)
        x0 = resolve_x0(scn)
        assert leq(ORTH2, apply_map(scn.map, x0), x0)
        assert np.all(x0 >= 2.0 - 1e-9)  # only points above the fixed point qualify

    def test_unknown_policy(self):
        # refused when the scenario is built, before any campaign runs
        with pytest.raises(ValueError, match="^config field x0_policy needs one of zero, below, above, explicit, "):
            scenario(corpus.affine_contraction(2), x0_policy="sideways")


class TestExistenceCampaigns:
    def test_affine_ascending_passes(self):
        rep = verify_ascending_existence(
            scenario(corpus.affine_contraction(2), expected="fixed_point_exists"), FAST)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "center_is_fixed" in names and "x0_dominated_by_center" in names

    def test_translation_unbounded_branch_vacuous(self):
        rep = verify_ascending_existence(
            scenario(corpus.unit_translation(2), expected="no_fixed_point"), FAST)
        assert rep.passed
        assert any(c.name == "existence_branch_vacuous" for c in rep.checks)

    def test_corrupted_scenario_fails_not_crashes(self):
        rep = verify_ascending_existence(scenario(corrupted_mapping(), x0_policy="below"), FAST)
        assert not rep.passed
        failed = [c for c in rep.checks if not c.passed]
        assert failed and failed[0].name == "hypothesis_alpha_class"

    def test_descending_box_drift(self):
        scn = scenario(corpus.box_drift_down(2), x0_policy="explicit",
                       x0=np.array([-1.0, -1.0]), expected="fixed_point_exists")
        rep = verify_descending_existence(scn, FAST)
        assert rep.passed
        assert any(c.name == "x0_dominates_center" for c in rep.checks)

    def test_wrong_direction_aborts_with_failed_check(self):
        scn = scenario(corpus.unit_translation(2))  # x0=0 gives x0 <= Tx0, not >=
        rep = verify_descending_existence(scn, FAST)
        assert not rep.passed
        assert rep.checks[0].name == "hypothesis_start_ordered"


class TestCorpusSelfMaps:
    """The corpus builds its maps as self-maps by construction, so no run samples
    them; the sampled check runs here, at the arguments the registry and t34 use."""

    @pytest.mark.parametrize("seed", range(12))
    def test_registry_maps(self, seed):
        for scenarios in default_scenarios(seed).values():
            for scn in scenarios:
                validate_self_map(scn.map)

    def test_family_draws_and_shipped_maps(self):
        rhos = [rho for rho in FamilyConfig.rhos for _ in range(3)]
        for dim in FamilyConfig.dims:
            for spec in corpus.random_nonneg_affine(dim, rhos, [np.random.default_rng(k) for k in range(len(rhos))]):
                validate_self_map(spec)
        for spec in [corpus.identity_map(2)] + [e.spec for e in corpus.alpha_corpus()]:
            validate_self_map(spec)

    def test_a_parameter_that_would_break_the_certificate_is_refused(self):
        with pytest.raises(ValueError, match=r"^value must be >= 0, got \[1.0, -0.5\]$"):
            corpus.constant_map([1.0, -0.5])
        with pytest.raises(ValueError, match=r"^cap must be >= 0, got -0.5$"):
            corpus.truncation_cap(2, cap=-0.5)
        for spec in (corpus.constant_map([0.0, 2.0]), corpus.truncation_cap(2, cap=0.0)):
            validate_self_map(spec)  # the edge of the certificate is kept


class TestZeroOrbitFamily:
    def test_small_family_agrees(self):
        cfg = FamilyConfig(dims=(2, 3), rhos=(0.5, 0.95), n_per_cell=2,
                           translations_per_dim=1, include_identity_edge=True)
        rep, rows = verify_zero_orbit_equivalence(cfg, seed=0, iter_cfg=FAST)
        assert rep.passed
        assert len(rows) == 2 * 2 * 2 + 2 * 1 + 1
        assert all(r.agree for r in rows)
        translations = [r for r in rows if r.family == "translation"]
        assert translations and all(not r.bounded and not r.oracle_nonempty for r in translations)
        edge = [r for r in rows if r.family == "identity_edge"]
        assert edge and edge[0].bounded and edge[0].oracle_nonempty

    def test_rows_reproducible(self):
        cfg = FamilyConfig(dims=(2,), rhos=(0.8,), n_per_cell=2, translations_per_dim=1,
                           include_identity_edge=False)
        _, rows_a = verify_zero_orbit_equivalence(cfg, seed=5, iter_cfg=FAST)
        _, rows_b = verify_zero_orbit_equivalence(cfg, seed=5, iter_cfg=FAST)
        assert [(r.trial, r.verdict, r.agree) for r in rows_a] == [
            (r.trial, r.verdict, r.agree) for r in rows_b
        ]


def reference_zero_orbit_rows(family_cfg, seed, iter_cfg):
    """The trial loop of verify_zero_orbit_equivalence before its cells ran
    as batches, kept verbatim but for the report: one orbit per trial, each
    retried once with a ten-fold budget when it runs out."""
    plan = []
    for dim in family_cfg.dims:
        plan += [("contractive", dim, rho) for rho in family_cfg.rhos for _ in range(family_cfg.n_per_cell)]
        plan += [("translation", dim, 1.0)] * family_cfg.translations_per_dim
    if family_cfg.include_identity_edge:
        plan.append(("identity_edge", 2, 1.0))
    rows = []
    for counter, (family, dim, rho) in enumerate(plan):
        trial_id = f"trial_{counter:03d}"
        rng = np.random.default_rng(seed * 1_000_003 + counter)
        if family == "contractive":
            spec = corpus.random_nonneg_affine(dim, rho, rng)
        elif family == "translation":
            shift = rng.uniform(0.5, 1.5, size=dim)
            domain = Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=dim))
            spec = MappingSpec(TranslationMap(shift), domain)
        else:
            spec = corpus.identity_map(dim)
        space = SpaceSpec(dim=dim, p=2.0)
        record = picard_orbit(spec, np.zeros(dim), space, iter_cfg)
        if record.verdict == MAX_ITER_REACHED:
            bigger = dataclasses.replace(
                iter_cfg, max_iter=iter_cfg.max_iter * 10, bound_threshold=iter_cfg.bound_threshold * 10
            )
            record = picard_orbit(spec, np.zeros(dim), space, bigger)
        nonempty = len(fixed_point_oracle(spec, space)) > 0
        bounded = record.verdict == CONVERGED
        agree = record.verdict in (CONVERGED, UNBOUNDED_SUSPECTED) and bounded == nonempty
        rows.append(TrialRow(trial_id, family, dim, rho, record.verdict, bounded, nonempty, agree))
    return rows


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestZeroOrbitCells:
    """t34 runs the orbits of each (family, dim) cell as one batch; its rows
    and its errors are those of the trial-by-trial loop."""

    SMALL_BUDGET = IterationConfig(max_iter=40, residual_tol=1e-10, bound_threshold=30.0, window=5)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("iter_cfg", [FAST, SMALL_BUDGET], ids=["fast", "escalating"])
    def test_rows_as_trial_by_trial(self, seed, iter_cfg):
        cfg = FamilyConfig(dims=(2, 5, 20), rhos=(0.5, 0.8, 0.95, 1.0), n_per_cell=3)
        _, rows = verify_zero_orbit_equivalence(cfg, seed=seed, iter_cfg=iter_cfg)
        assert rows == reference_zero_orbit_rows(cfg, seed, iter_cfg)
        if iter_cfg is self.SMALL_BUDGET:  # some orbits ran out of even the ten-fold budget
            assert {r.verdict for r in rows} >= {MAX_ITER_REACHED, CONVERGED}

    def test_a_map_that_cannot_be_drawn_raises_at_its_trial(self):
        cfg = FamilyConfig(dims=(5,), rhos=(0.5, 2.0), n_per_cell=2)
        want = outcome_of(reference_zero_orbit_rows, cfg, 0, FAST)
        assert want == (RuntimeError, "could not draw a spectral-radius-capped map at rho=2.0")
        assert outcome_of(verify_zero_orbit_equivalence, cfg, 0, FAST) == want

    # a negative rho would draw a map out of the cone, and numpy cannot
    # draw with the others: the config refuses each before any
    # trial runs, so no trial's error is pre-empted by it
    @pytest.mark.parametrize("rhos", [(0.5, -0.5, 0.8), (2.0, -0.5), (-0.5, 2.0)])
    def test_a_map_that_escapes_its_check_raises_at_its_trial(self, rhos):
        with pytest.raises(ValueError) as got:
            FamilyConfig(dims=(2,), rhos=rhos, n_per_cell=2)
        assert str(got.value) == "config field family.rhos needs finite numbers >= 0, got -0.5"

    @pytest.mark.parametrize("rhos", [(float("nan"),), (0.5, float("inf")), ("0.5",), (0.5, None)])
    def test_a_rho_numpy_cannot_draw_with_raises_its_error(self, rhos):
        with pytest.raises(ValueError) as got:
            FamilyConfig(dims=(3,), rhos=rhos, n_per_cell=2)
        assert str(got.value) == f"config field family.rhos needs finite numbers >= 0, got {rhos[-1]!r}"


class TestFamilyConfigDoor:
    """A t34 config value that no trial could use is refused when the config
    is read, with a message that names its field and the value."""

    @pytest.mark.parametrize(
        "field, text, shown",
        [("rhos", '"0.5"', "'0.5'"), ("rhos", "null", "None"), ("rhos", "NaN", "nan"),
         ("rhos", "Infinity", "inf"), ("rhos", "-0.5", "-0.5"), ("rhos", "true", "True"),
         ("rhos", "1" + "0" * 400, str(10**400)), ("dims", "0", "0"), ("dims", '"2"', "'2'"),
         ("dims", "2.5", "2.5")],
        ids=["rho-text", "rho-null", "rho-nan", "rho-infinity", "rho-negative", "rho-bool",
             "rho-past-the-doubles", "dim-zero", "dim-text", "dim-fraction"],
    )
    def test_a_bad_value_names_its_field(self, field, text, shown, tmp_path):
        config = json.loads(f'{{"family": {{"{field}": [{text}]}}}}')
        with pytest.raises(ValueError) as got:
            run_suites(["t34"], config, 0, tmp_path)
        wanted = "positive integers" if field == "dims" else "finite numbers >= 0"
        assert str(got.value) == f"config field family.{field} needs {wanted}, got {shown}"
        assert not list(tmp_path.iterdir())

    def test_a_rho_no_draw_reaches_fails_at_its_trial(self, tmp_path):
        config = {"family": {"dims": [3], "rhos": [0.5, 2.0], "n_per_cell": 1}}
        want = outcome_of(reference_zero_orbit_rows, harness._section(config, "family", FamilyConfig()), 0, FAST)
        assert want == (RuntimeError, "could not draw a spectral-radius-capped map at rho=2.0")
        with pytest.raises(RuntimeError) as got:
            run_suites(["t34"], config, 0, tmp_path)
        assert (type(got.value), str(got.value)) == want

    NO_TRIAL = "config section family plans no trial"

    @pytest.mark.parametrize(
        "section, message",
        [('{"n_per_cell": -2, "translations_per_dim": -1, "include_identity_edge": false}',
          "config field family.n_per_cell needs an integer >= 0, got -2"),
         ('{"translations_per_dim": -1}', "config field family.translations_per_dim needs an integer >= 0, got -1"),
         ('{"dims": [], "include_identity_edge": false}', NO_TRIAL),
         ('{"rhos": [], "translations_per_dim": 0, "include_identity_edge": false}', NO_TRIAL)],
        ids=["negative-counts", "negative-translations", "no-dims", "no-rhos-no-translations"],
    )
    def test_a_plan_that_tests_nothing_is_refused(self, section, message, tmp_path):
        # each of these planned no trial (or a negative number of them), and
        # t34 reported PASS on 0 trials
        with pytest.raises(ValueError) as got:
            run_suites(["t34"], json.loads(f'{{"family": {section}}}'), 0, tmp_path)
        assert str(got.value) == message
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "section, families",
        [({"rhos": [], "translations_per_dim": 1, "include_identity_edge": False}, ["translation"] * 3),
         ({"dims": []}, ["identity_edge"]), ({"n_per_cell": 0, "translations_per_dim": 0}, ["identity_edge"])],
        ids=["translations-only", "edge-only", "no-counts-edge-only"],
    )
    def test_a_plan_of_translations_or_the_edge_alone_runs(self, section, families, tmp_path):
        reports, rows = run_suites(["t34"], {"family": section}, 0, tmp_path)
        assert reports[0].passed and [r.family for r in rows] == families

    def test_rho_zero_is_valid(self, tmp_path):
        # the zero matrix: x -> b, a constant map whose fixed point is b
        config = {"family": {"dims": [1, 3], "rhos": [0, 0.0], "n_per_cell": 1}}
        reports, rows = run_suites(["t34"], config, 0, tmp_path)
        assert reports[0].passed and len(rows) == 2 * 2 + 2 * 2 + 1
        assert all(r.verdict == CONVERGED for r in rows if r.family == "contractive")


@st.composite
def small_families(draw):
    """A small t34 config on a short budget: rhos from 0 to past every draw's reach."""
    cfg = FamilyConfig(
        dims=tuple(draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=2))),
        rhos=tuple(draw(st.lists(st.sampled_from([0.0, 0.5, 0.995, 1.0, 1.2, 2.0]), min_size=1, max_size=3))),
        n_per_cell=draw(st.integers(1, 2)),
        translations_per_dim=draw(st.integers(0, 1)),
        include_identity_edge=draw(st.booleans()),
    )
    iter_cfg = IterationConfig(
        max_iter=draw(st.sampled_from([20, 300, 2000])),
        bound_threshold=draw(st.sampled_from([30.0, 1e3])),
        window=draw(st.sampled_from([5, 50])),
    )
    return cfg, draw(st.integers(0, 50)), iter_cfg


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(small_families())
def test_valid_families_give_the_trial_by_trial_rows_or_error(case):
    # the config check is all t34 needs: past it, a stacked cell gives the
    # rows of the trial-by-trial loop, or the draw error of its first trial
    cfg, seed, iter_cfg = case
    want = outcome_of(reference_zero_orbit_rows, cfg, seed, iter_cfg)
    assert outcome_of(lambda *a: verify_zero_orbit_equivalence(*a)[1], cfg, seed, iter_cfg) == want


def test_family_cells_take_one_engine_call_each(monkeypatch, tmp_path):
    # the benchmark's `family` workload: 33 contractive trials per dim run as
    # one batch, so a refactor back to one orbit per trial fails here
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # workloads imports its neighbour `reference`
    spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    calls = []
    engine = iterate._orbit

    def counted(specs, x0s, space, cfg, verdicts=False):
        calls.append((type(specs[0].op).__name__, len(specs), cfg.max_iter))
        return engine(specs, x0s, space, cfg, verdicts=verdicts)

    monkeypatch.setattr(iterate, "_orbit", counted)
    config = workloads.Family.config
    reports, rows = run_suites(["t34"], config, 0, tmp_path)
    assert reports[0].passed and len(rows) == 106
    budget = config["iteration"]["max_iter"]
    first = [(kind, n) for kind, n, max_iter in calls if max_iter == budget]
    assert first == [("AffineMap", 33), ("TranslationMap", 2)] * 3 + [("AffineMap", 1)]
    # any other call retries the orbits of one cell that ran out of budget
    retries = [max_iter for _, _, max_iter in calls if max_iter != budget]
    assert set(retries) <= {10 * budget} and len(retries) <= len(first)


class TestSpectralCertificate:
    """The affine oracle certifies a spectral radius below 1 - 1e-9 by a
    Collatz-Wielandt bound and takes eigvals only for the matrices it leaves
    open; its decision is the one eigvals alone makes."""

    CUT = 1.0 - 1e-9

    @staticmethod
    def oracle_stacks(monkeypatch, seeds):
        """The stacks t34's default cells hand the affine oracle at ``seeds``."""
        stacks, plain = [], harness._affine_fixed_points
        monkeypatch.setattr(harness, "_affine_fixed_points", lambda specs: stacks.append(specs) or plain(specs))
        for seed in seeds:
            verify_zero_orbit_equivalence(seed=seed)
        monkeypatch.undo()
        return stacks

    def test_the_bound_decides_as_eigvals_on_every_t34_draw_and_shipped_map(self, monkeypatch):
        t34 = self.oracle_stacks(monkeypatch, range(6))
        shipped = [scn.map for seed in range(12) for scns in default_scenarios(seed).values() for scn in scns]
        shipped += [entry.spec for entry in corpus.alpha_corpus()]
        stacks = [(specs, True) for specs in t34]
        stacks += [([spec], False) for spec in shipped if as_affine(spec.op) is not None]
        drawn = 0
        for specs, drawn_by_t34 in stacks:
            matrix = np.array([as_affine(spec.op)[0] for spec in specs])
            by_bound = _radius_bounds(matrix, self.CUT) < self.CUT
            # a certified radius is one eigvals puts below the cut
            assert (np.abs(np.linalg.eigvals(matrix[by_bound])).max(axis=-1, initial=0.0) < self.CUT).all()
            if drawn_by_t34:  # every contractive draw is certified; translations and the identity are not
                assert by_bound.tolist() == [not np.array_equal(m, np.eye(len(m))) for m in matrix]
                drawn += int(by_bound.sum())
        assert drawn == 6 * 36

    def test_eigvals_sees_only_the_cells_the_bound_leaves_open(self, monkeypatch):
        calls, inside, eigvals = [], [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append((bool(inside), a)) or eigvals(a))
        plain = harness._affine_fixed_points

        def oracle(specs):
            inside.append(True)
            try:
                return plain(specs)
            finally:
                inside.pop()

        monkeypatch.setattr(harness, "_affine_fixed_points", oracle)
        bounded, bound = [], mapping._radius_bounds
        monkeypatch.setattr(mapping, "_radius_bounds", lambda matrix, cut: bounded.append(matrix) or bound(matrix, cut))
        rep, rows = verify_zero_orbit_equivalence(seed=0)
        assert rep.passed
        # the bound certifies every contractive draw, and the identity
        # matrices (each translation cell's and the identity edge) go straight
        # to least squares: eigvals never runs in the oracle, and the bound
        # sees each contractive draw and no identity
        cfg = FamilyConfig()
        assert [a for oracle_call, a in calls if oracle_call] == []
        assert sum(len(a) for a in bounded) == len(cfg.dims) * len(cfg.rhos) * cfg.n_per_cell
        assert not any(np.array_equal(m, np.eye(len(m))) for a in bounded for m in a)


class TestConvergenceCampaigns:
    def test_ascending_from_zero_strong_branch(self):
        rep = verify_norm_convergence(
            scenario(corpus.affine_contraction(2), expected="fixed_point_exists"), FAST)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "norm_sequence_monotone" in names and "limit_dominates_orbit" in names
        assert any("weak and norm convergence coincide" in cv for cv in rep.caveats)

    def test_descending_branch_records_order_side(self):
        scn = scenario(corpus.affine_contraction(2), x0_policy="explicit",
                       x0=np.array([5.0, 5.0]), expected="fixed_point_exists")
        rep = verify_norm_convergence(scn, FAST)
        assert rep.passed
        side = [c for c in rep.checks if c.name == "limit_on_an_order_side"]
        assert side and "dominated=True" in side[0].detail

    def test_negative_box_strong_branch(self):
        scn = scenario(corpus.box_drift_down(2), x0_policy="explicit",
                       x0=np.array([-1.0, -1.0]), expected="fixed_point_exists")
        rep = verify_norm_convergence(scn, FAST)
        assert rep.passed
        assert any(c.name == "norm_sequence_monotone" for c in rep.checks)

    def test_unbounded_orbit_fails_hypothesis(self):
        rep = verify_norm_convergence(scenario(corpus.unit_translation(2)), FAST)
        assert not rep.passed
        failed = [c for c in rep.checks if not c.passed]
        assert failed[0].name == "hypothesis_bounded_orbit"

    def test_overflowing_orbit_is_named_not_retried(self, monkeypatch):
        # x -> x + 1e307 passes the class hypothesis (an isometry) and its
        # orbit overflows after about 18 steps, long before the growth window
        spec = MappingSpec(TranslationMap(shift=np.full(2, 1e307)), Domain(kind="cone", cone=ORTH2))
        calls = TestSharedWork.counted(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            rec = harness._settled_orbit(scenario(spec), np.zeros(2), FAST)
            assert rec.verdict == NONFINITE and calls["orbits"] == 1 and np.isfinite(rec.points).all()
            rep = verify_ascending_existence(scenario(spec), FAST)
            conv = verify_norm_convergence(scenario(spec), FAST)
        failed = [(c.name, c.detail) for c in rep.checks if not c.passed]
        assert failed == [("orbit_conclusive", "verdict=nonfinite: neither converged nor unbounded")]
        failed = [(c.name, c.detail) for c in conv.checks if not c.passed]
        assert failed == [("hypothesis_bounded_orbit", "verdict=nonfinite")]

    def test_cone_campaign_with_fixed_points(self):
        rep = verify_cone_convergence(
            scenario(corpus.affine_contraction(2), expected="fixed_point_exists"), FAST)
        assert rep.passed
        assert any(c.name.startswith("ascending_start") for c in rep.checks)

    @staticmethod
    def batches(monkeypatch) -> list:
        """The starts of each call that reaches `iterate._orbit`."""
        batches, engine = [], iterate._orbit
        monkeypatch.setattr(iterate, "_orbit", lambda spec, x0, *a, **kw: batches.append(list(x0)) or engine(spec, x0, *a, **kw))
        return batches

    def test_cone_campaign_settles_its_starts_as_one_batch(self, monkeypatch):
        batches = self.batches(monkeypatch)
        scn = scenario(corpus.affine_contraction(2), expected="fixed_point_exists")
        rep = verify_cone_convergence(scn, FAST)
        assert [len(b) for b in batches] == [1, 4] and rep.passed  # the zero orbit, then the drawn starts
        names = [c.name for c in rep.checks if c.name.startswith("ascending_start")]
        assert names == [f"ascending_start_{i}_{what}" for i in range(1, 5) for what in ("converges", "dominated")]
        # each start gets the record its orbit has alone
        for x, rec in zip(batches[1], harness._settled_orbits(scn, batches[1], FAST)):
            alone = picard_orbit(scn.map, x, scn.space, FAST)
            assert all(getattr(rec, f).tobytes() == getattr(alone, f).tobytes() for f in ("points", "residuals", "norms"))
            assert rec.verdict == alone.verdict == CONVERGED

    def test_a_raising_map_names_the_first_error_met_in_lockstep(self, monkeypatch):
        # x -> x/2 + 1/2 made to raise on point 3 of the first start's orbit and on
        # point 2 of the third's: in lockstep the third's step comes first, so the
        # campaign raises its error, where orbits run one after another raised the first's
        op = RaisesOn(AffineMap(0.5 * np.eye(2), np.full(2, 0.5)), set())
        scn = scenario(MappingSpec(op, Domain(kind="cone", cone=ORTH2)),
                       grid_cfg=GridSearchConfig(lo=np.zeros(2), hi=np.full(2, 2.0), points_per_axis=3))
        batches = self.batches(monkeypatch)
        assert verify_cone_convergence(scn, FAST).passed
        starts = batches[-1]
        first, third = (picard_orbit(scn.map, starts[i], scn.space, FAST).points[n] for i, n in ((0, 3), (2, 2)))
        op.bad.update({first.tobytes(), third.tobytes()})
        for i, point in ((0, first), (2, third)):
            with pytest.raises(RuntimeError, match=f"^stepped onto {re.escape(str(point))}$"):
                picard_orbit(scn.map, starts[i], scn.space, FAST)
        with pytest.raises(RuntimeError) as raised:
            verify_cone_convergence(scn, FAST)
        assert str(raised.value) == f"stepped onto {third}"

    def test_cone_campaign_requires_fixed_points(self):
        with pytest.raises(HypothesisError):
            verify_cone_convergence(scenario(corpus.unit_translation(2)), FAST)

    def test_cone_campaign_rejects_box_domain(self):
        with pytest.raises(HypothesisError):
            verify_cone_convergence(
                scenario(corpus.box_drift_down(2), x0_policy="explicit",
                         x0=np.array([-1.0, -1.0])), FAST)


class TestRunner:
    def test_default_registry_covers_all_campaign_suites(self):
        registry = default_scenarios(seed=0)
        assert set(registry) == {"t32", "t33", "t41-44", "c45-46"}
        assert all(registry.values())

    def test_run_suites_writes_reports(self, tmp_path):
        reports, rows = run_suites(["t33"], {}, seed=0, out_dir=tmp_path)
        assert all(r.passed for r in reports)
        assert (tmp_path / "t33_checks.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        text = (tmp_path / "summary.txt").read_text()
        assert "ALL PASS" in text

    def test_injected_scenario_from_config_fails_run(self, tmp_path):
        config = {
            "replace_scenarios": True,
            "scenarios": {
                "t32": [
                    {
                        "id": "injected_non_monotone",
                        "map": mapping_to_dict(corrupted_mapping()),
                        "alpha": 0.0,
                        "x0_policy": "below",
                    }
                ]
            },
        }
        reports, _ = run_suites(["t32"], config, seed=0, out_dir=tmp_path)
        assert len(reports) == 1
        assert not reports[0].passed
        assert "FAIL" in (tmp_path / "summary.txt").read_text()

    def test_scenario_from_dict_round_trip(self):
        d = {
            "id": "cfg",
            "map": mapping_to_dict(corpus.affine_contraction(2)),
            "alpha": 0.0,
            "x0_policy": "explicit",
            "x0": [0.0, 0.0],
            "expected": "fixed_point_exists",
            "grid": {"lo": [0.0, 0.0], "hi": [3.0, 3.0], "points_per_axis": 5},
        }
        scn = scenario_from_dict(d, seed=3)
        assert scn.sid == "cfg" and scn.grid_cfg is not None
        rep = verify_ascending_existence(scn, FAST)
        assert rep.passed

    @staticmethod
    def config_scenario(**entry):
        return {"replace_scenarios": True, "scenarios": {"t32": [
            {"id": "cfg", "map": mapping_to_dict(corpus.truncation_cap(2)), **entry}]}}

    def test_a_negative_grid_size_is_refused(self, tmp_path):
        # it failed mid-campaign with numpy's "Number of samples, -1, must be
        # non-negative"; 0 scanned no node, so t32 passed its descent check as
        # vacuous on a map whose every point below the cap is fixed
        for n in (-1, 0):
            config = self.config_scenario(grid={"lo": [0, 0], "hi": [3, 3], "points_per_axis": n})
            with pytest.raises(ValueError, match=rf"^points_per_axis must be >= 1, got {n}$"):
                run_suites(["t32"], config, 0, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_the_space_takes_the_maps_dimension(self, tmp_path):
        # it ended in "dimension mismatch: expected 3, got 2" inside the alpha verifier
        with pytest.raises(ValueError, match=r"^config field space.dim is 3, but the map is 2-D$"):
            run_suites(["t32"], self.config_scenario(space={"dim": 3}), 0, tmp_path)
        scn = scenario_from_dict(self.config_scenario(space={"dim": 2, "p": 3.0})["scenarios"]["t32"][0], 0)
        assert (scn.space.dim, scn.space.p, scn.cone) == (2, 3.0, scn.map.domain.cone)

    def test_summary_deterministic_across_runs(self, tmp_path):
        r1, _ = run_suites(["t32", "t34"], {"family": {"dims": [2], "rhos": [0.5],
                           "n_per_cell": 2, "translations_per_dim": 1}}, seed=4,
                           out_dir=tmp_path / "a")
        r2, _ = run_suites(["t32", "t34"], {"family": {"dims": [2], "rhos": [0.5],
                           "n_per_cell": 2, "translations_per_dim": 1}}, seed=4,
                           out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "summary.txt").read_bytes() == (
            tmp_path / "b" / "summary.txt").read_bytes()
        assert summary_table(r1) == summary_table(r2)

    def test_conjunctive_aggregation(self):
        rep = verify_ascending_existence(scenario(corrupted_mapping(), x0_policy="below"), FAST)
        assert not rep.passed
        good, bad = rep.counts
        assert bad >= 1


# SHA-256 of every output file of run_suites(GOLDEN_SUITES, GOLDEN_CONFIG,
# seed), recorded before the pair verifiers, the orbit loop and the sampling
# were batched; a change that moves a byte of a report fails here. The hashes
# were taken with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on x86-64 (one
# BLAS thread or two give the same bytes): a platform whose BLAS or libm
# rounds differently may need them re-recorded from a known-good commit.
GOLDEN_SUITES = ["t32", "t33", "t41-44", "c45-46", "t34"]
GOLDEN_CONFIG = {
    "family": {"dims": [2, 5], "rhos": [0.5, 0.95, 1.0], "n_per_cell": 1, "translations_per_dim": 1}
}
GOLDEN_SHA256 = {
    0: {
        "c45-46_checks.csv": "ccc59c9cd3f3fe0300ead56318ebc886ffa7361bb42cadedfbace9c4cb0af9a7",
        "summary.txt": "b1ec71d518761155f55ba027609e5defad098206d0d037d29b700e50fe0c4832",
        "t32_checks.csv": "04fd2a10816268a351ec696700d1fc23cf6f11f8a8651c8dfb28951e3c6cda31",
        "t33_checks.csv": "3431ae4a938c5ceb42afe3818eb7e93fbdb68e5e3506b88c17deeb83b1835410",
        "t34_checks.csv": "a7f297656961bcff0a19c1a4ce2de49f0680744d12d249fbce428dd089d1bb01",
        "t34_trials.csv": "b13d4a86617aac97c3da731a00becdc2c604deef6728b43228ea0c92979d8696",
        "t41-44_checks.csv": "c38a85eeb650e708cda5eb76c096c176dadc54b47d41d66cc92deebffa35db36",
    },
    1: {
        "c45-46_checks.csv": "5d75bd01b98faeab1d02ccdaf9acf68cd574b4f829f37b3256abbbedfea0ca28",
        "summary.txt": "b1ec71d518761155f55ba027609e5defad098206d0d037d29b700e50fe0c4832",
        "t32_checks.csv": "d640ca67cba5632c78f74aea9e5301909bf69fbb3c9c83fa1e3916e0d25cb1d0",
        "t33_checks.csv": "3431ae4a938c5ceb42afe3818eb7e93fbdb68e5e3506b88c17deeb83b1835410",
        "t34_checks.csv": "a7f297656961bcff0a19c1a4ce2de49f0680744d12d249fbce428dd089d1bb01",
        "t34_trials.csv": "b13d4a86617aac97c3da731a00becdc2c604deef6728b43228ea0c92979d8696",
        "t41-44_checks.csv": "c38a85eeb650e708cda5eb76c096c176dadc54b47d41d66cc92deebffa35db36",
    },
    2: {
        "c45-46_checks.csv": "00ff4530cd1c42a827f690da5dbb5d20761bf8bae801cc2ee3a932e45efa93c1",
        "summary.txt": "b1ec71d518761155f55ba027609e5defad098206d0d037d29b700e50fe0c4832",
        "t32_checks.csv": "99481db4e0d445cc24e6f501cfcbe0dda3e9b843acea56af96aad6d9cff0ebbf",
        "t33_checks.csv": "3431ae4a938c5ceb42afe3818eb7e93fbdb68e5e3506b88c17deeb83b1835410",
        "t34_checks.csv": "a7f297656961bcff0a19c1a4ce2de49f0680744d12d249fbce428dd089d1bb01",
        "t34_trials.csv": "b13d4a86617aac97c3da731a00becdc2c604deef6728b43228ea0c92979d8696",
        "t41-44_checks.csv": "c38a85eeb650e708cda5eb76c096c176dadc54b47d41d66cc92deebffa35db36",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SHA256))
def test_outputs_match_recorded_hashes(seed, tmp_path):
    run_suites(GOLDEN_SUITES, GOLDEN_CONFIG, seed, tmp_path)
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert got == GOLDEN_SHA256[seed]


# SHA-256 of every output file of `orderfp verify --suite all` with the default
# config, that is run_suites(SUITES, {}, seed), at seeds 0-5; recorded under the
# same numpy and BLAS as GOLDEN_SHA256. Five files do not depend on the seed.
DEFAULT_SHA256_SHARED = {
    "summary.txt": "16b377924264fabcdc737420da08ca9533ef886e67d3b7dac33c48624a8c659c",
    "t33_checks.csv": "3431ae4a938c5ceb42afe3818eb7e93fbdb68e5e3506b88c17deeb83b1835410",
    "t34_checks.csv": "362e165b52dd02bc8b4378519787c1423400631a29becac18a97cf3d2875b8ed",
    "t34_trials.csv": "85760702378e9264e8d51cb726bd4edeed431d72b9668645b39d969ddad67d63",
    "t41-44_checks.csv": "c38a85eeb650e708cda5eb76c096c176dadc54b47d41d66cc92deebffa35db36",
}
DEFAULT_SHA256 = {
    0: {
        "c45-46_checks.csv": "ccc59c9cd3f3fe0300ead56318ebc886ffa7361bb42cadedfbace9c4cb0af9a7",
        "t32_checks.csv": "04fd2a10816268a351ec696700d1fc23cf6f11f8a8651c8dfb28951e3c6cda31",
    },
    1: {
        "c45-46_checks.csv": "5d75bd01b98faeab1d02ccdaf9acf68cd574b4f829f37b3256abbbedfea0ca28",
        "t32_checks.csv": "d640ca67cba5632c78f74aea9e5301909bf69fbb3c9c83fa1e3916e0d25cb1d0",
    },
    2: {
        "c45-46_checks.csv": "00ff4530cd1c42a827f690da5dbb5d20761bf8bae801cc2ee3a932e45efa93c1",
        "t32_checks.csv": "99481db4e0d445cc24e6f501cfcbe0dda3e9b843acea56af96aad6d9cff0ebbf",
    },
    3: {
        "c45-46_checks.csv": "eb81d330bab98e405b53c347b5c255682be18d1e5fd9b2f33ead664bd8c05b3d",
        "t32_checks.csv": "314d02a900711c642bf5377fd6e5078a2388ea430dd65be51892476c2812e89d",
    },
    4: {
        "c45-46_checks.csv": "c9de0cf54c71b64244bdc4868bb6832a4b5842545f4ada041eedcf05fdf14862",
        "t32_checks.csv": "1cd7df22752d61fd6bb774a5353cf833607061b0eb2780104ece130b18dc54b3",
    },
    5: {
        "c45-46_checks.csv": "5bb24d38690647de4271f286cf3238f89d65bdf341460be69c1c39f176338b8f",
        "t32_checks.csv": "07db66777d258e6b16ce77ee25564c862d15a27cdc156f9bccaf8876d30fa68a",
    },
}


@pytest.mark.parametrize("seed", sorted(DEFAULT_SHA256))
def test_default_outputs_match_recorded_hashes(seed, tmp_path):
    run_suites(list(harness.SUITES), {}, seed, tmp_path)
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert got == {**DEFAULT_SHA256_SHARED, **DEFAULT_SHA256[seed]}


def test_verbose_verify_prints_each_check_of_its_output_files(monkeypatch, tmp_path, capsys):
    # one [ok] line a row of each *_checks.csv, in their order, after its
    # suite's header; the output files keep their bytes
    from orderfp.cli import main

    monkeypatch.setenv("ORDERFP_VERBOSE", "1")
    assert main(["verify", "--suite", "all", "--seed", "0", "--out", str(tmp_path)]) == 0
    want = []
    for suite in harness.SUITES:
        want.append(f"suite {suite}:")
        with (tmp_path / f"{suite}_checks.csv").open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                assert row["passed"] == "1"
                want.append(f"    [ok] {row['suite']}/{row['scenario']}/{row['check']} {row['detail']}")
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8")
    assert f"TOTAL: {len(want) - len(harness.SUITES)} checks, 0 failed" in summary
    assert capsys.readouterr().out == "\n".join(want) + "\n" + summary
    assert hashlib.sha256(summary.encode()).hexdigest() == DEFAULT_SHA256_SHARED["summary.txt"]


def load_tracing(monkeypatch):
    """``perfbench/tracing.py`` as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_are_harness_attributes(monkeypatch):
    # the traced benchmark wraps these names in orderfp.harness; a refactor
    # that drops one would make `perfbench/run.py --trace 1` fail or go blind
    tracing = load_tracing(monkeypatch)
    missing = [name for name in tracing.HARNESS_CALLS if not callable(getattr(harness, name, None))]
    assert tracing.HARNESS_CALLS and missing == []


def test_the_registry_runs_under_the_tracer(monkeypatch, tmp_path):
    # the tracer counts the points of every oracle answer, so an answer of None
    # (no route decides) would end a traced `scenarios` pass; no registry map gets one
    tracer = load_tracing(monkeypatch).Tracer()
    tracer.install("scenarios")
    try:
        reports, _ = run_suites(["t32", "t33", "t41-44", "c45-46"], {}, 0, tmp_path)
    finally:
        tracer.restore()
    assert harness.fixed_point_oracle is fixed_point_oracle
    spans = [s for s in tracer.spans if s.name == "mapping.fixed_point_oracle"]
    assert len(reports) == 19 and spans and all("points" in s.counts for s in spans)


class TestSharedWork:
    """One `run_suites` call computes each distinct settled orbit (map, start,
    space, budget) and fixed-point set (map, space, grid) once; nothing of it
    outlives the call."""

    SCENARIO_SUITES = ["t32", "t33", "t41-44", "c45-46"]

    @staticmethod
    def counted(monkeypatch):
        """Counts of the orbits that reach `iterate._orbit`, of its calls (`engine`), and of
        the calls that reach `harness.fixed_point_oracle`."""
        calls = {"orbits": 0, "engine": 0, "fixed_point_oracle": 0}
        engine, oracle = iterate._orbit, harness.fixed_point_oracle

        def orbit(spec, *a, **kw):
            calls.update(orbits=calls["orbits"] + len(spec), engine=calls["engine"] + 1)
            return engine(spec, *a, **kw)

        monkeypatch.setattr(iterate, "_orbit", orbit)
        monkeypatch.setattr(harness, "fixed_point_oracle",
                            lambda *a, **kw: calls.update(fixed_point_oracle=calls["fixed_point_oracle"] + 1) or oracle(*a, **kw))
        return calls

    def test_a_run_computes_each_distinct_orbit_and_fixed_point_set_once(self, monkeypatch, tmp_path):
        calls = self.counted(monkeypatch)
        first, _ = run_suites(self.SCENARIO_SUITES, {}, 0, tmp_path / "a")
        # 31 orbits and 19 oracle calls without sharing; c45-46 settles each scenario's 4 starts as one batch
        assert calls == {"orbits": 23, "engine": 14, "fixed_point_oracle": 8}
        assert harness._shared is None
        # a second run in the same process recomputes everything, and writes the same bytes
        second, _ = run_suites(self.SCENARIO_SUITES, {}, 0, tmp_path / "b")
        assert calls == {"orbits": 46, "engine": 28, "fixed_point_oracle": 16}
        assert [(tmp_path / d / "summary.txt").read_bytes() for d in "ab"] == [summary_table(first).encode()] * 2

    def test_a_run_that_raises_leaves_nothing_behind(self, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            assert harness._shared  # the orbits of the run so far are kept
            raise RuntimeError("oracle failed")

        monkeypatch.setattr(harness, "fixed_point_oracle", broken)
        with pytest.raises(RuntimeError, match="oracle failed"):
            run_suites(["t32"], {}, 0, tmp_path)
        assert harness._shared is None
        # a campaign outside a run computes its own orbit, as before
        calls = self.counted(monkeypatch)
        harness._settled_orbit(scenario(corpus.affine_contraction(2)), np.zeros(2), FAST)
        harness._settled_orbit(scenario(corpus.affine_contraction(2)), np.zeros(2), FAST)
        assert calls["orbits"] == calls["engine"] == 2

    def test_shared_records_are_read_only_and_each_caller_gets_its_own_list(self, monkeypatch):
        calls = self.counted(monkeypatch)
        monkeypatch.setattr(harness, "_shared", {})
        truncation = corpus.truncation_cap(2)
        grid = GridSearchConfig(lo=np.zeros(2), hi=np.full(2, 3.0), points_per_axis=7)
        scns = [scenario(truncation, grid_cfg=GridSearchConfig(grid.lo, grid.hi, 7)) for _ in range(2)]
        records = [harness._settled_orbit(scn, np.zeros(2), FAST) for scn in scns]
        found = [harness._fixed_points(scn) for scn in scns]
        assert calls == {"orbits": 1, "engine": 1, "fixed_point_oracle": 1}  # equal grids, one key
        assert records[0] is records[1] and found[0] is not found[1] and list(map(id, found[0])) == list(map(id, found[1]))
        for a in (records[0].points, records[0].residuals, records[0].norms, records[0].leq_up, found[0][0]):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        found[0].clear()  # a caller's own list
        assert len(harness._fixed_points(scns[1])) == len(found[1]) > 0
        # another start, budget, space or grid is another key
        harness._settled_orbit(scns[0], np.ones(2), FAST)
        harness._settled_orbit(scns[0], np.zeros(2), dataclasses.replace(FAST, window=5))
        harness._settled_orbit(Scenario("s", SpaceSpec(dim=2, p=1.5), truncation), np.zeros(2), FAST)
        harness._fixed_points(scenario(truncation, grid_cfg=GridSearchConfig(grid.lo, grid.hi, 5)))
        assert calls == {"orbits": 4, "engine": 4, "fixed_point_oracle": 2}

    def test_starts_not_yet_computed_step_as_one_batch(self, monkeypatch):
        calls = self.counted(monkeypatch)
        monkeypatch.setattr(harness, "_shared", {})
        scn = scenario(corpus.truncation_cap(2))
        zero = harness._settled_orbit(scn, np.zeros(2), FAST)
        starts = [np.ones(2), np.zeros(2), np.array([9.0, 1.0]), np.ones(2), np.array([2.0, 7.0])]
        records = harness._settled_orbits(scn, starts, FAST)
        # the zero orbit is shared, and the three distinct new starts are one batch
        assert calls == {"orbits": 4, "engine": 2, "fixed_point_oracle": 0}
        assert records[1] is zero and records[0] is records[3]
        again = harness._settled_orbits(scn, starts[::-1], FAST) + harness._settled_orbits(scn, [], FAST)
        assert all(a is b for a, b in zip(again, records[::-1])) and len(again) == 5 and calls["engine"] == 2
        for x, rec in zip(starts, records):
            alone = picard_orbit(scn.map, x, scn.space, FAST)
            assert all(getattr(rec, f).tobytes() == getattr(alone, f).tobytes() for f in ("points", "residuals", "norms"))
            with pytest.raises(ValueError, match="read-only"):
                rec.points[...] = 0

    def test_each_orbit_of_a_batch_that_runs_out_of_budget_is_retried(self, monkeypatch):
        # min(x + 1, 40) from 0 takes 40 steps, from 35 five: with a budget of 10 only the
        # first is retried, alone, with a ten-fold budget
        calls = self.counted(monkeypatch)
        spec = MappingSpec(mapping.CompositionMap([TranslationMap(np.ones(2)), mapping.TruncationMap(np.full(2, 40.0))]),
                           Domain(kind="cone", cone=ORTH2))
        cfg = dataclasses.replace(FAST, max_iter=10)
        got = harness._settled_orbits(scenario(spec), [np.zeros(2), np.full(2, 35.0)], cfg)
        assert [(rec.verdict, len(rec)) for rec in got] == [(CONVERGED, 41), (CONVERGED, 6)]
        assert calls == {"orbits": 3, "engine": 2, "fixed_point_oracle": 0}

    def test_a_map_built_during_a_run_never_takes_another_maps_answer(self, monkeypatch):
        # maps made and dropped one after another would reuse ids; each entry
        # keeps its map alive, so every one gets its own orbit and fixed point
        monkeypatch.setattr(harness, "_shared", {})
        for c in np.linspace(0.1, 2.0, 40):
            spec = MappingSpec(AffineMap(0.5 * np.eye(2), np.full(2, c)), Domain(kind="cone", cone=ORTH2))
            record = harness._settled_orbit(scenario(spec), np.zeros(2), FAST)
            fixed = harness._fixed_points(scenario(spec))
            assert np.allclose(record.points[-1], 2 * c) and np.allclose(fixed, [[2 * c, 2 * c]])


def registry_entry(scn: Scenario) -> dict:
    """The config entry of a registry scenario."""
    entry = {"id": scn.sid, "map": mapping_to_dict(scn.map), "alpha": scn.alpha, "x0_policy": scn.x0_policy,
             "expected": scn.expected, "seed": scn.seed}
    if scn.x0 is not None:
        entry["x0"] = scn.x0.tolist()
    if scn.grid_cfg is not None:
        g = scn.grid_cfg
        entry["grid"] = {"lo": g.lo.tolist(), "hi": g.hi.tolist(), "points_per_axis": g.points_per_axis}
    return entry


@st.composite
def small_run_configs(draw):
    """A small verify config: a family, iteration values and up to two registry scenarios a suite."""
    registry = default_scenarios(draw(st.integers(0, 11)))
    scenarios = {suite: [registry_entry(scn) for scn in draw(st.lists(st.sampled_from(scns), max_size=2))]
                 for suite, scns in registry.items()}
    family = {"dims": draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)),
              "rhos": draw(st.lists(st.sampled_from([0.5, 0.9, 1.0]), min_size=1, max_size=2)),
              "n_per_cell": draw(st.integers(0, 2)), "translations_per_dim": draw(st.integers(0, 1))}
    iteration = {"max_iter": draw(st.integers(20, 2000)), "bound_threshold": draw(st.sampled_from([1e2, 1e4]))}
    return {"samples": draw(st.sampled_from([20, 60])), "replace_scenarios": True, "scenarios": scenarios,
            "family": family, "iteration": iteration}


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(small_run_configs(), st.integers(0, 100))
def test_the_same_seed_writes_the_same_bytes(tmp_path_factory, config, seed):
    runs = [tmp_path_factory.mktemp("run") for _ in range(2)]
    for out in runs:
        run_suites(list(harness.SUITES), json.loads(json.dumps(config)), seed, out)
    a, b = ({f.name: f.read_bytes() for f in out.iterdir()} for out in runs)
    assert a == b and "summary.txt" in a


# reference oracles: the former per-section config readers, which restated
# every default, kept verbatim so the one reader can be held to the same
# configs and the same errors


def reference_iteration_from_config(config):
    it = config.get("iteration", {})
    return IterationConfig(
        max_iter=int(it.get("max_iter", CAMPAIGN_ITERATION.max_iter)),
        residual_tol=float(it.get("residual_tol", CAMPAIGN_ITERATION.residual_tol)),
        bound_threshold=float(it.get("bound_threshold", CAMPAIGN_ITERATION.bound_threshold)),
        window=int(it.get("window", CAMPAIGN_ITERATION.window)),
    )


def reference_family_from_config(config):
    fam = config.get("family", {})
    return FamilyConfig(
        dims=tuple(fam.get("dims", (2, 5, 20))),
        rhos=tuple(fam.get("rhos", (0.5, 0.8, 0.95, 1.0))),
        n_per_cell=int(fam.get("n_per_cell", 3)),
        translations_per_dim=int(fam.get("translations_per_dim", 2)),
        include_identity_edge=bool(fam.get("include_identity_edge", True)),
    )


CONFIG_CASES = {
    "missing": {},
    "empty": {"iteration": {}, "family": {}},
    "partial": {"iteration": {"max_iter": 500}, "family": {"dims": [3], "include_identity_edge": False}},
    "full": {
        "iteration": {"max_iter": 100_000, "residual_tol": 1e-10, "bound_threshold": 1e4, "window": 50},
        "family": {"dims": [2, 5, 20], "rhos": [0.5, 0.8, 0.95], "n_per_cell": 11,
                   "translations_per_dim": 2, "include_identity_edge": True},
    },
    "strings": {
        "iteration": {"max_iter": "500", "residual_tol": "1e-9", "bound_threshold": "1e5", "window": 7.0},
        "family": {"dims": [2], "rhos": [1], "n_per_cell": "2", "translations_per_dim": 1.0,
                   "include_identity_edge": 0},
    },
    "unknown_keys": {"iteration": {"scheme": "mann"}, "family": {"p": 3.0}},
}


def typed(cfg):
    """Field values with their types, so that 500 and 500.0 differ."""
    return [(type(v), v) for v in dataclasses.astuple(cfg)]


class TestConfigSections:
    @pytest.mark.parametrize("name", sorted(CONFIG_CASES))
    def test_same_configs_as_the_per_section_readers(self, name):
        config = CONFIG_CASES[name]
        got = harness._section(config, "iteration", CAMPAIGN_ITERATION)
        assert typed(got) == typed(reference_iteration_from_config(config))
        got = harness._section(config, "family", FamilyConfig())
        assert typed(got) == typed(reference_family_from_config(config))

    # a text that converts and then fails the field's own check, as with the
    # readers; a nan tolerance ran every orbit to max_iter, an infinite one
    # stopped each at its first point
    @pytest.mark.parametrize("section", [{"residual_tol": "0"}, {"max_iter": 0}, {"window": "-1"},
                                         {"residual_tol": float("nan")}, {"residual_tol": "inf"},
                                         {"bound_threshold": float("inf")}, {"bound_threshold": "nan"}])
    def test_same_error_type(self, section):
        config = {"iteration": section}
        with pytest.raises(ValueError) as ref:
            reference_iteration_from_config(config)
        with pytest.raises(ValueError) as got:
            harness._section(config, "iteration", CAMPAIGN_ITERATION)
        assert (type(got.value), str(got.value)) == (type(ref.value), str(ref.value))

    @pytest.mark.parametrize(
        "section, wanted",
        [({"max_iter": True}, "integer"), ({"window": 7.9}, "integer"), ({"residual_tol": False}, "number"),
         ({"max_iter": "lots"}, "integer"), ({"window": float("inf")}, "integer"),
         ({"bound_threshold": None}, "number")],
        ids=["int-bool", "int-fraction", "float-bool", "int-text", "int-infinity", "float-null"],
    )
    def test_numbers_int_or_float_would_misread_rejected(self, section, wanted):
        # int(True) is 1 and int(7.9) is 7, which ran silently; int("lots")
        # and float(None) failed with a message that named no field
        (name, value), = section.items()
        msg = f"config field iteration.{name} needs a JSON {wanted}, got {value!r}"
        with pytest.raises(ValueError) as got:
            harness._section({"iteration": section}, "iteration", CAMPAIGN_ITERATION)
        assert str(got.value) == msg

    @pytest.mark.parametrize(
        "section, field",
        [({"include_identity_edge": "false"}, "include_identity_edge"), ({"dims": "20"}, "dims"),
         ({"dims": 20}, "dims")],
        ids=["bool-string", "tuple-string", "tuple-number"],
    )
    def test_values_bool_or_tuple_would_misread_rejected(self, section, field, tmp_path):
        # bool("false") is True, so the identity trial ran; tuple("20") is
        # ("2", "0"), which failed deep in numpy with a TypeError
        with pytest.raises(ValueError, match=f"config field family.{field} needs a JSON"):
            harness._section({"family": section}, "family", FamilyConfig())
        with pytest.raises(ValueError, match=f"config field family.{field} "):
            run_suites(["t34"], {"family": section}, 0, tmp_path)
        assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# the config door: every value is read before any suite runs


def door_scenario(suite="t32", **entry):
    return {"replace_scenarios": True, "scenarios": {suite: [
        {"id": "cfg", "map": mapping_to_dict(corpus.truncation_cap(2)), **entry}]}}


# (config, the message of its ValueError); each one ran, misread or crashed
# mid-run before the config was read at the door
DOOR_CASES = {
    # "false" read as True, so the shipped scenarios ran too
    "replace_scenarios-string": ({"replace_scenarios": "false"},
                                 "config field replace_scenarios needs a JSON boolean, got 'false'"),
    # 0 samples passed every class hypothesis
    "samples-zero": ({"samples": 0}, "config field samples needs an integer >= 1, got 0"),
    "samples-negative": ({"samples": -1}, "config field samples needs an integer >= 1, got -1"),
    "samples-bool": ({"samples": True}, "config field samples needs a JSON integer, got True"),
    "samples-text": ({"samples": "lots"}, "config field samples needs a JSON integer, got 'lots'"),
    # a failed hypothesis check in the report, not an input error
    "x0_policy-unknown": (door_scenario(x0_policy="sideways"),
                          "config field x0_policy needs one of zero, below, above, explicit, got 'sideways'"),
    # silently ignored
    "scenarios-t99": ({"scenarios": {"t99": []}},
                      "config field scenarios.t99 needs a suite of t32, t33, t41-44, c45-46 and a JSON list"),
    "scenarios-t34": ({"scenarios": {"t34": []}},
                      "config field scenarios.t34 needs a suite of t32, t33, t41-44, c45-46 and a JSON list"),
    # a traceback
    "max_iter-text": ({"iteration": {"max_iter": "lots"}},
                      "config field iteration.max_iter needs a JSON integer, got 'lots'"),
    # read as 1.0, 2, 7 and a float() error naming no field
    "alpha-bool": (door_scenario(alpha=True), "config field alpha needs a JSON number, got True"),
    "seed-fraction": (door_scenario(seed=2.5), "config field seed needs a JSON integer, got 2.5"),
    "points_per_axis-fraction": (door_scenario(grid={"lo": [0, 0], "hi": [3, 3], "points_per_axis": 7.9}),
                                 "config field grid.points_per_axis needs a JSON integer, got 7.9"),
    "space-p-text": (door_scenario(space={"p": "two"}), "config field space.p needs a JSON number, got 'two'"),
    # t34 failed as "unbounded_regime_agreement  6 translation trials"
    "residual_tol-infinity": ({"iteration": {"residual_tol": float("inf")}},
                              "residual_tol must be a finite number > 0, got inf"),
    # a KeyError, and an x0 that the zero policy ignored
    "map-missing": ({"scenarios": {"t32": [{"id": "cfg"}]}}, "map needs a JSON object, got None"),
    "x0-without-explicit": (door_scenario(x0=[1, 1]),
                            "config field x0 is needed exactly when x0_policy is 'explicit', got x0 [1, 1]"),
    # an entry of a suite that is not run is read too
    "unrun-suite-entry": (door_scenario("t33", alpha=True), "config field alpha needs a JSON number, got True"),
}


class TestConfigDoor:
    @pytest.mark.parametrize("name", sorted(DOOR_CASES))
    def test_refused_by_run_suites_before_any_suite(self, name, tmp_path, monkeypatch):
        config, message = DOOR_CASES[name]

        def ran(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(harness, "verify_zero_orbit_equivalence", ran)
        monkeypatch.setattr(harness, "_CAMPAIGNS", dict.fromkeys(harness._CAMPAIGNS, ran))
        with pytest.raises(ValueError) as got:
            run_suites(["t32", "t34"], config, 0, tmp_path / "out")
        assert str(got.value) == message
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", sorted(DOOR_CASES))
    def test_refused_by_verify_in_one_line(self, name, tmp_path, capsys):
        from orderfp.cli import main

        config, message = DOOR_CASES[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["verify", "--suite", "all", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", message + "\n")
        assert not (tmp_path / "out").exists()


# (entry of a t33 config scenario, the message of its ValueError); each
# passed the door and failed only when t33 ran, after all of t32
RANGE_CASES = {
    "alpha-one-and-a-half": ({"alpha": 1.5}, "config field alpha needs a finite number < 1, got 1.5"),
    "alpha-nan": ({"alpha": float("nan")}, "config field alpha needs a finite number < 1, got nan"),
    "alpha-minus-inf": ({"alpha": float("-inf")}, "config field alpha needs a finite number < 1, got -inf"),
    "seed-negative": ({"seed": -1}, "config field seed needs an integer >= 0, got -1"),
    "grid-3-D": ({"grid": {"lo": [0, 0, 0], "hi": [3, 3, 3]}}, "config field grid is 3-D, but the map is 2-D"),
    # the oracle scanned no node and reported no fixed point
    "grid-no-points": ({"grid": {"lo": [0, 0], "hi": [3, 3], "points_per_axis": 0}},
                       "points_per_axis must be >= 1, got 0"),
    # refused, but naming no field
    "x0-length": ({"x0_policy": "explicit", "x0": [1, 1, 1]},
                  "config field x0: dimension mismatch: expected 2, got 3"),
}


class TestConfigRanges:
    @pytest.mark.parametrize("name", sorted(RANGE_CASES))
    def test_refused_by_run_suites_before_any_suite(self, name, tmp_path, monkeypatch):
        entry, message = RANGE_CASES[name]

        def ran(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(harness, "_CAMPAIGNS", dict.fromkeys(harness._CAMPAIGNS, ran))
        with pytest.raises(ValueError) as got:
            run_suites(["t32", "t33"], door_scenario("t33", **entry), 0, tmp_path / "out")
        assert str(got.value) == message
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", sorted(RANGE_CASES))
    def test_refused_by_verify_in_one_line(self, name, tmp_path, capsys):
        from orderfp.cli import main

        entry, message = RANGE_CASES[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(door_scenario("t33", **entry)), encoding="utf-8")  # nan as NaN
        assert main(["verify", "--suite", "all", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", message + "\n")
        assert not (tmp_path / "out").exists()

    def test_a_negative_run_seed_is_refused_as_such(self, tmp_path, capsys):
        # it ended the run at its first draw, in numpy's "expected non-negative integer"
        from orderfp.cli import main

        assert main(["verify", "--suite", "all", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", "seed must be >= 0, got -1\n")
        assert not (tmp_path / "out").exists()


def test_a_trial_that_no_route_decides_is_a_failed_row_with_a_caveat(monkeypatch):
    # the probe map x -> M x + (1e-8, 0), M = [[1/2, 1/2], [1/2, 1/2]], has no
    # fixed point; its system is degenerate and its minimum-norm solution lies
    # off the orthant, so no route decides without a grid. The oracle's error
    # once ended the whole run.
    probe = MappingSpec(AffineMap(np.full((2, 2), 0.5), np.array([1e-8, 0.0])), Domain(kind="cone", cone=ORTH2))
    draw = corpus.random_nonneg_affine
    monkeypatch.setattr(corpus, "random_nonneg_affine", lambda dim, rhos, rngs: [probe] + draw(dim, rhos, rngs)[1:])
    family = FamilyConfig(dims=(2,), rhos=(0.5,), n_per_cell=2, translations_per_dim=1)
    rep, rows = verify_zero_orbit_equivalence(family, 0, IterationConfig(max_iter=1000, bound_threshold=100.0))
    assert [(r.trial, r.verdict, r.oracle_nonempty, r.agree) for r in rows] == [
        ("trial_000", MAX_ITER_REACHED, False, False), ("trial_001", CONVERGED, True, True),
        ("trial_002", UNBOUNDED_SUSPECTED, False, True), ("trial_003", CONVERGED, True, True)]
    assert rep.caveats == ["trial_000: no route decides its fixed-point set without a search grid"]
    assert [c.name for c in rep.checks if not c.passed] == ["bounded_regime_agreement"]
    assert "note: trial_000: no route decides" in summary_table([rep])


def test_a_degenerate_affine_map_without_a_grid_is_a_caveat(tmp_path):
    # x -> (x1, x2/2 + 1) on [1, 2] x [1, 3] is monotone and nonexpansive, and
    # its fixed points are the line x2 = 2; the minimum-norm one, (0, 2), lies
    # off the box, so no route decides without a grid. The run once ended in
    # the oracle's "non-affine" error and wrote no file.
    op = AffineMap(np.diag([1.0, 0.5]), np.array([0.0, 1.0]))
    spec = MappingSpec(op, Domain(kind="box", cone=ORTH2, lo=np.ones(2), hi=np.array([2.0, 3.0])))
    assert fixed_point_oracle(spec, P2) is None
    entry = {"id": "degenerate", "map": mapping_to_dict(spec), "x0_policy": "explicit", "x0": [1, 1]}
    reports, _ = run_suites(["t32"], {"replace_scenarios": True, "scenarios": {"t32": [entry]}}, 0, tmp_path)
    assert [r.passed for r in reports] == [True]
    assert reports[0].caveats == ["no bounded search region: converse descent check skipped"]
    assert "ALL PASS" in (tmp_path / "summary.txt").read_text()
    # with a grid the oracle scans it and finds the fixed nodes on x2 = 2
    grid = GridSearchConfig(np.ones(2), np.array([2.0, 3.0]), points_per_axis=5)
    assert [z.tolist() for z in fixed_point_oracle(spec, P2, grid)] == [[x, 2.0] for x in (1.0, 1.25, 1.5, 1.75, 2.0)]


@st.composite
def config_entries(draw):
    """A config scenario over a 2-D map, each optional key drawn or left out."""
    entry = {"map": mapping_to_dict(corpus.truncation_cap(2))}
    optional = {
        "id": st.text(max_size=12),
        "alpha": st.one_of(st.floats(-1.0, 0.9), st.integers(-1, 0)),
        "expected": st.sampled_from(["fixed_point_exists", "no_fixed_point", "unknown"]),
        "seed": st.integers(0, 2**32),
        "space": st.fixed_dictionaries({}, optional={"dim": st.just(2), "p": st.floats(1.1, 8.0)}),
        "grid": st.fixed_dictionaries({"lo": st.lists(st.floats(-3.0, 0.0), min_size=2, max_size=2),
                                       "hi": st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2)},
                                      optional={"points_per_axis": st.integers(1, 9)}),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            entry[key] = draw(values)
    policy = draw(st.sampled_from([None, "zero", "below", "above", "explicit"]))
    if policy is not None:
        entry["x0_policy"] = policy
    if policy == "explicit":
        entry["x0"] = draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2))
    return entry


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config_entries(), st.integers(0, 100))
def test_config_scenario_json_round_trip(entry, seed):
    # through JSON text, every given value reaches the scenario as given, and
    # every value left out takes its default
    scn = scenario_from_dict(json.loads(json.dumps(entry)), seed)
    grid = entry.get("grid", {})
    assert (scn.sid, scn.alpha, scn.x0_policy, scn.expected, scn.seed) == (
        entry.get("id", "config_scenario"), entry.get("alpha", 0.0), entry.get("x0_policy", "zero"),
        entry.get("expected", "unknown"), entry.get("seed", seed))
    assert type(scn.alpha) is float and type(scn.seed) is int
    assert (scn.space, scn.map.domain.cone) == (SpaceSpec(2, entry.get("space", {}).get("p", 2.0)), ORTH2)
    assert scn.x0 is None if "x0" not in entry else scn.x0.tolist() == entry["x0"]
    if scn.grid_cfg is None:
        assert "grid" not in entry
    else:
        got = (scn.grid_cfg.lo.tolist(), scn.grid_cfg.hi.tolist(), scn.grid_cfg.points_per_axis)
        assert got == (grid["lo"], grid["hi"], grid.get("points_per_axis", 11))
