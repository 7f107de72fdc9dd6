"""Mapping variants, property verifiers, and the fixed-point search."""

import itertools
import json
from dataclasses import dataclass

import numpy as np
import pytest

from orderfp import corpus
from orderfp.mapping import (
    FIXED_POINT_TOL,
    INEQ_ATOL,
    INEQ_RTOL,
    AffineMap,
    BoxProjectionMap,
    CompositionMap,
    Domain,
    DomainError,
    GridMap,
    GridSearchConfig,
    IncomparableError,
    MappingSpec,
    NotFixedPointError,
    SamplerConfig,
    TranslationMap,
    TruncationMap,
    apply_map,
    as_affine,
    check_displacement_bound,
    classify_hilbert_classes,
    domain_contains,
    fixed_point_oracle,
    is_alpha_nonexpansive,
    is_monotone,
    is_monotone_nonexpansive,
    is_quasi_nonexpansive,
    load_mapping,
    make_mapping,
    mapping_from_dict,
    mapping_to_dict,
    sample_comparable_pair,
    sample_comparable_pairs,
    sample_domain_point,
    save_mapping,
    validate_self_map,
    _affine_fixed_points,
    _domain_rows,
    _op_from_dict,
)
from orderfp.order import MEMBERSHIP_TOL, ConeSpec, comparable, leq, sample_cone_point, _cone_rows
from orderfp.report import PropertyReport, Violation
from orderfp.space import SpaceSpec, as_vector, norm

ORTH1 = ConeSpec(kind="orthant", dim=1)
ORTH2 = ConeSpec(kind="orthant", dim=2)
P2 = SpaceSpec(dim=2, p=2.0)
P1 = SpaceSpec(dim=1, p=2.0)


def box2(lo, hi):
    return Domain(kind="box", cone=ORTH2, lo=np.full(2, float(lo)), hi=np.full(2, float(hi)))


def shear_map():
    """Self-map of [0, 2]^2 that is not monotone (negative matrix entry)."""
    op = AffineMap(matrix=np.array([[0.5, 0.0], [-0.5, 0.5]]), offset=np.array([0.5, 1.0]))
    return make_mapping(op, box2(0.0, 2.0))


class TestApply:
    def test_truncation_fixed_below_cap(self):
        spec = corpus.truncation_cap(2, cap=1.5)
        x = np.array([0.2, 1.0])
        assert np.array_equal(apply_map(spec, x), x)

    def test_constant_map(self):
        spec = corpus.constant_map([1.0, 2.0])
        for x in ([0.0, 0.0], [5.0, 7.0]):
            assert np.array_equal(apply_map(spec, x), [1.0, 2.0])

    def test_affine_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.0, 0.4, size=(3, 3))
        b = rng.uniform(0.0, 1.0, size=3)
        spec = make_mapping(AffineMap(a, b), Domain(kind="cone", cone=ConeSpec("orthant", 3)))
        x = rng.uniform(0.0, 1.0, size=3)
        expected = np.array([sum(a[i, j] * x[j] for j in range(3)) + b[i] for i in range(3)])
        assert np.allclose(apply_map(spec, x), expected, atol=1e-15)

    def test_outside_domain_rejected(self):
        spec = corpus.affine_contraction(2)
        with pytest.raises(DomainError):
            apply_map(spec, [-1.0, 0.0])

    def test_self_map_enforced_at_construction(self):
        bad = AffineMap(matrix=np.array([[1.0, 0.0], [-2.0, 1.0]]), offset=np.zeros(2))
        with pytest.raises(DomainError):
            make_mapping(bad, Domain(kind="cone", cone=ORTH2))

    def test_grid_map_off_lattice_rejected(self):
        spec = corpus.steep_step_map()
        with pytest.raises(DomainError):
            apply_map(spec, [0.3])
        with pytest.raises(DomainError):
            apply_map(spec, [3.5])


def reference_validate_self_map(spec, n_samples=64, seed=0):
    """The sample-by-sample self-map check, kept as the reference."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        x = sample_domain_point(spec, rng)
        y = spec.op.evaluate(x)
        if not domain_contains(spec.domain, y, tol=1e-9):
            raise DomainError(f"not a self-map: image {y} of sample {x} escapes the domain")


@dataclass
class BlowUpMap:
    """Shift the first coordinate by ``shift``; it overflows above ``cut``."""

    cut: float
    shift: float = 0.0
    dim: int = 2

    def evaluate(self, x):
        # one point or (n, 2) rows, as every operation's evaluate takes
        head = np.where(x[..., 0] > self.cut, np.inf, x[..., 0] + self.shift)
        return np.stack([head, x[..., 1]], axis=-1)


LOR2 = ConeSpec(kind="lorentz", dim=2)


class TestValidateSelfMap:
    # with seed 3 the first failing sample is number 10, 7, 3, 12, 32, 32 and
    # 7; the two BlowUpMaps on the box also fail later samples the other way
    @pytest.mark.parametrize(
        "spec, raises",
        [
            (MappingSpec(AffineMap(np.eye(2), np.array([-0.05, 0.0])), Domain(kind="cone", cone=ORTH2)),
             DomainError),
            (MappingSpec(AffineMap(np.eye(2), np.array([0.0, 0.4])), box2(0.0, 2.0)), DomainError),
            (MappingSpec(
                AffineMap(np.eye(2), np.array([0.05, 0.0])),
                Domain(kind="interval", cone=LOR2, lo=np.zeros(2), hi=np.array([0.0, 2.0])),
            ), DomainError),
            (MappingSpec(BlowUpMap(cut=0.89, shift=0.13), box2(0.0, 1.0)), ValueError),
            (MappingSpec(BlowUpMap(cut=0.95, shift=0.1), box2(0.0, 1.0)), DomainError),
            (MappingSpec(BlowUpMap(cut=0.9), Domain(kind="cone", cone=ORTH2)), ValueError),
            (MappingSpec(
                AffineMap(np.eye(2), np.array([0.0, 0.1])),
                Domain(kind="interval", cone=ORTH2, lo=np.zeros(2), hi=np.ones(2)),
            ), DomainError),
            (corpus.box_drift_down(2), None),
            (corpus.steep_step_map(), None),
        ],
        ids=["cone-escape", "box-escape", "lorentz-interval-escape", "nonfinite-before-escape",
             "escape-before-nonfinite", "cone-nonfinite",
             "interval-escape-above", "self-map", "grid-self-map"],
    )
    def test_first_failing_sample_matches_reference(self, spec, raises):
        def outcome(fn):
            try:
                fn(spec, n_samples=64, seed=3)
            except ValueError as exc:
                return type(exc), str(exc)
            return None

        got = outcome(validate_self_map)
        assert got == outcome(reference_validate_self_map)
        assert (got and got[0]) is raises

    def test_no_samples_accepts(self):
        spec = MappingSpec(AffineMap(np.eye(2), np.array([-1.0, 0.0])), Domain(kind="cone", cone=ORTH2))
        validate_self_map(spec, n_samples=0)


class TestSamplers:
    @pytest.mark.parametrize("entry", corpus.alpha_corpus(), ids=lambda e: e.name)
    def test_comparable_pairs_live_in_domain(self, entry):
        rng = np.random.default_rng(1)
        cone = entry.spec.domain.cone
        for _ in range(100):
            x, y = sample_comparable_pair(entry.spec, rng)
            assert domain_contains(entry.spec.domain, x, tol=1e-9)
            assert domain_contains(entry.spec.domain, y, tol=1e-9)
            assert leq(cone, x, y, tol=1e-9)

    def test_domain_points_respect_lattice(self):
        spec = corpus.steep_step_map()
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = sample_domain_point(spec, rng)
            assert float(x[0]) in {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0}

    def test_lorentz_interval_pairs(self):
        cone = ConeSpec(kind="lorentz", dim=3)
        lo = np.array([0.0, 0.0, 0.0])
        hi = np.array([0.0, 0.0, 4.0])
        domain = Domain(kind="interval", cone=cone, lo=lo, hi=hi)
        spec = MappingSpec(op=AffineMap(np.eye(3) * 0.5, np.zeros(3)), domain=domain)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = sample_comparable_pair(spec, rng)
            assert domain_contains(domain, x) and domain_contains(domain, y)
            assert leq(cone, x, y)


class TestMonotoneVerifiers:
    def test_nonnegative_affine_passes(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.0, 0.5, size=(2, 2))
        spec = make_mapping(AffineMap(a, np.ones(2)), Domain(kind="cone", cone=ORTH2))
        assert is_monotone(spec, ORTH2, SamplerConfig(200, seed=1)).passed

    def test_identity_passes(self):
        assert is_monotone(corpus.identity_map(2), ORTH2).passed

    def test_negative_entry_fails_with_witness(self):
        report = is_monotone(shear_map(), ORTH2, SamplerConfig(300, seed=2))
        assert not report.passed
        w = report.violations[0]
        tx, ty = shear_map().op.evaluate(w.x), shear_map().op.evaluate(w.y)
        assert not leq(ORTH2, tx, ty)  # witness recomputes

    def test_truncation_nonexpansive(self):
        report = is_monotone_nonexpansive(corpus.truncation_cap(2), ORTH2, P2, SamplerConfig(300, seed=3))
        assert report.passed

    def test_translation_isometry(self):
        report = is_monotone_nonexpansive(corpus.unit_translation(2), ORTH2, P2, SamplerConfig(300, seed=4))
        assert report.passed

    def test_expansion_detected_along_top_singular_direction(self):
        op = AffineMap(matrix=1.5 * np.eye(2), offset=np.zeros(2))
        spec = make_mapping(op, Domain(kind="cone", cone=ORTH2))
        report = is_monotone_nonexpansive(spec, ORTH2, P2, SamplerConfig(200, seed=5))
        assert not report.passed
        w = report.violations[0]
        assert w.lhs > w.rhs


class TestAlphaVerifier:
    def test_alpha_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            is_alpha_nonexpansive(corpus.identity_map(2), ORTH2, P2, alpha=1.0)

    def test_identity_equality_any_alpha(self):
        for alpha in (-0.5, 0.0, 0.9):
            rep = is_alpha_nonexpansive(corpus.identity_map(2), ORTH2, P2, alpha,
                                        SamplerConfig(200, seed=6))
            assert rep.passed

    def test_alpha_zero_agrees_with_nonexpansive_verifier(self):
        for entry in corpus.alpha_corpus():
            cone = entry.spec.domain.cone
            cfg = SamplerConfig(n_samples=300, seed=7)
            a0 = is_alpha_nonexpansive(entry.spec, cone, entry.space, 0.0, cfg)
            ne = is_monotone_nonexpansive(entry.spec, cone, entry.space, cfg)
            assert a0.passed == ne.passed, entry.name

    def test_steep_step_brute_force(self):
        spec = corpus.steep_step_map()
        rep = is_alpha_nonexpansive(spec, ORTH1, P1, corpus.STEEP_STEP_ALPHA, exhaustive=True)
        assert rep.passed
        assert rep.samples == 28  # all comparable lattice pairs incl. diagonal
        # not plain nonexpansive: alpha = 0 fails on the jump pair
        rep0 = is_alpha_nonexpansive(spec, ORTH1, P1, 0.0, exhaustive=True)
        assert not rep0.passed
        jumps = {(float(v.x[0]), float(v.y[0])) for v in rep0.violations}
        assert (2.0, 3.0) in jumps and (2.5, 3.0) in jumps

    def test_steep_step_alpha_threshold(self):
        # brute force over the lattice pins the least feasible alpha at 4/19
        spec = corpus.steep_step_map()
        threshold = 4.0 / 19.0
        assert is_alpha_nonexpansive(spec, ORTH1, P1, threshold + 1e-6, exhaustive=True).passed
        assert not is_alpha_nonexpansive(spec, ORTH1, P1, threshold - 1e-3, exhaustive=True).passed

    def test_exhaustive_needs_lattice(self):
        with pytest.raises(ValueError):
            is_alpha_nonexpansive(corpus.identity_map(2), ORTH2, P2, 0.0, exhaustive=True)

    def test_reports_reproducible(self):
        cfg = SamplerConfig(n_samples=100, seed=8)
        a = is_alpha_nonexpansive(corpus.affine_contraction(2), ORTH2, P2, 0.0, cfg)
        b = is_alpha_nonexpansive(corpus.affine_contraction(2), ORTH2, P2, 0.0, cfg)
        assert a.passed == b.passed and a.samples == b.samples


class TestQuasiNonexpansive:
    def test_fixed_point_distance_zero_case(self):
        spec = corpus.affine_contraction(2)
        rep = is_quasi_nonexpansive(spec, ORTH2, P2, [np.array([2.0, 2.0])],
                                    SamplerConfig(200, seed=9))
        assert rep.passed

    def test_alpha_map_with_fixed_point_is_quasi(self):
        spec = corpus.steep_step_map()
        rep = is_quasi_nonexpansive(spec, ORTH1, P1, [np.zeros(1)], SamplerConfig(200, seed=10))
        assert rep.passed

    def test_unfixed_point_rejected(self):
        spec = corpus.affine_contraction(2)
        with pytest.raises(NotFixedPointError):
            is_quasi_nonexpansive(spec, ORTH2, P2, [np.array([1.0, 1.0])])

    def test_empty_fixed_points_rejected(self):
        with pytest.raises(NotFixedPointError):
            is_quasi_nonexpansive(corpus.affine_contraction(2), ORTH2, P2, [])


class TestDisplacementBound:
    def test_fixed_argument_reduces_to_nonexpansive_bound(self):
        spec = corpus.affine_contraction(2)
        z = np.array([2.0, 2.0])  # fixed, so the correction terms vanish
        assert check_displacement_bound(spec, ORTH2, P2, 0.5, z, np.array([3.0, 3.0]))

    def test_alpha_zero_nonexpansive_map(self):
        spec = corpus.truncation_cap(2)
        assert check_displacement_bound(spec, ORTH2, P2, 0.0, np.zeros(2), np.ones(2))

    def test_steep_step_randomized_pairs(self):
        spec = corpus.steep_step_map()
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, y = sample_comparable_pair(spec, rng)
            assert check_displacement_bound(spec, ORTH1, P1, corpus.STEEP_STEP_ALPHA, x, y)
            assert check_displacement_bound(spec, ORTH1, P1, corpus.STEEP_STEP_ALPHA, y, x)

    def test_incomparable_rejected(self):
        spec = corpus.identity_map(2)
        with pytest.raises(IncomparableError):
            check_displacement_bound(spec, ORTH2, P2, 0.0, [0.0, 1.0], [1.0, 0.0])

    def test_far_pair_gives_a_verdict(self):
        # a distance of about 1.6e160 squares past the float range
        p15 = SpaceSpec(dim=2, p=1.5)
        far = np.array([1e160, 1e160])
        assert check_displacement_bound(corpus.identity_map(2), ORTH2, p15, 0.0, np.zeros(2), far)
        assert check_displacement_bound(corpus.identity_map(2), ORTH2, p15, -0.5, far, 3.0 * far)
        doubling = MappingSpec(AffineMap(2.0 * np.eye(2), np.zeros(2)), Domain(kind="cone", cone=ORTH2))
        assert not check_displacement_bound(doubling, ORTH2, p15, 0.0, np.zeros(2), far)

    def test_verdict_of_a_linear_map_does_not_depend_on_scale(self):
        # the bound is homogeneous of degree 2, so scaling a pair keeps it
        rng = np.random.default_rng(17)
        p15 = SpaceSpec(dim=2, p=1.5)
        verdicts = []
        for _ in range(200):
            spec = MappingSpec(
                AffineMap(rng.uniform(0.0, 0.8, (2, 2)), np.zeros(2)), Domain(kind="cone", cone=ORTH2)
            )
            x = rng.uniform(0.0, 3.0, 2)
            y = x + rng.uniform(0.0, 3.0, 2)
            alpha = float(rng.choice([-0.5, 0.0, 1.0 / 3.0, 0.9]))
            near = check_displacement_bound(spec, ORTH2, p15, alpha, x, y)
            assert check_displacement_bound(spec, ORTH2, p15, alpha, 1e160 * x, 1e160 * y) == near
            verdicts.append(near)
        assert 0 < sum(verdicts) < len(verdicts)


class TestHilbertClasses:
    def test_identity_passes_all(self):
        reports = classify_hilbert_classes(corpus.identity_map(2), P2,
                                           SamplerConfig(200, seed=12), ab=(1.0, 0.5))
        assert all(r.passed for r in reports.values())
        assert set(reports) == {"nonspreading", "hybrid", "tj", "ab_monotone"}

    def test_constant_map_nonspreading(self):
        reports = classify_hilbert_classes(corpus.constant_map([1.0, 1.0]), P2,
                                           SamplerConfig(200, seed=13))
        assert reports["nonspreading"].passed

    def test_box_projection_nonspreading(self):
        reports = classify_hilbert_classes(corpus.box_clamp(2), P2, SamplerConfig(300, seed=14))
        assert reports["nonspreading"].passed

    def test_non_hilbert_exponent_rejected(self):
        with pytest.raises(ValueError):
            classify_hilbert_classes(corpus.identity_map(2), SpaceSpec(dim=2, p=3.0))

    def test_bad_ab_rejected(self):
        with pytest.raises(ValueError):
            classify_hilbert_classes(corpus.identity_map(2), P2, ab=(0.4, 0.1))


class TestFixedPointOracle:
    def test_translation_has_none(self):
        assert fixed_point_oracle(corpus.unit_translation(2)) == []

    def test_affine_contraction_solved_exactly(self):
        pts = fixed_point_oracle(corpus.affine_contraction(2))
        assert len(pts) == 1
        assert np.allclose(pts[0], [2.0, 2.0], atol=1e-12)

    def test_identity_zero_shift(self):
        spec = corpus.identity_map(2)
        pts = fixed_point_oracle(spec)
        assert len(pts) == 1 and np.allclose(pts[0], 0.0)

    def test_truncation_grid_points_below_cap(self):
        spec = corpus.truncation_cap(2, cap=1.5)
        cfg = GridSearchConfig(lo=np.zeros(2), hi=np.full(2, 3.0), points_per_axis=7)
        pts = fixed_point_oracle(spec, cfg)
        lattice = np.linspace(0.0, 3.0, 7)
        expected = sum(1 for a, b in itertools.product(lattice, lattice) if a <= 1.5 and b <= 1.5)
        assert len(pts) == expected
        assert all(np.all(z <= 1.5 + 1e-12) for z in pts)

    def test_grid_map_fixed_points(self):
        # every node maps to 0 or to 1.5, so 0 is the only fixed lattice point
        pts = fixed_point_oracle(corpus.steep_step_map())
        assert [float(z[0]) for z in pts] == [0.0]

    def test_unbounded_region_rejected(self):
        with pytest.raises(ValueError):
            GridSearchConfig(lo=np.zeros(2), hi=np.array([np.inf, 1.0]))
        with pytest.raises(ValueError):
            fixed_point_oracle(corpus.box_clamp(2), None)

    def test_composition_of_translations_folds_to_affine(self):
        op = CompositionMap(stages=[TranslationMap(np.ones(2)), TranslationMap(-np.ones(2))])
        matrix, offset = as_affine(op)
        assert np.allclose(matrix, np.eye(2)) and np.allclose(offset, 0.0)
        assert as_affine(corpus.box_drift_down(2).op) is None


class TestJsonRoundTrip:
    @pytest.mark.parametrize("entry", corpus.alpha_corpus(), ids=lambda e: e.name)
    def test_dict_round_trip_preserves_behavior(self, entry):
        clone = mapping_from_dict(mapping_to_dict(entry.spec))
        rng = np.random.default_rng(15)
        for _ in range(25):
            x = sample_domain_point(entry.spec, rng)
            assert np.array_equal(apply_map(entry.spec, x), apply_map(clone, x))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "map.json"
        save_mapping(corpus.affine_contraction(2), path)
        clone = load_mapping(path)
        assert np.array_equal(apply_map(clone, [0.0, 0.0]), [1.0, 1.0])
        payload = json.loads(path.read_text())
        assert payload["variant"] == "affine"
        assert payload["domain"]["cone"]["kind"] == "orthant"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            mapping_from_dict({"variant": "spiral", "domain": {
                "kind": "cone", "cone": {"kind": "orthant", "dim": 2}}})


# ---------------------------------------------------------------------------
# reference oracles: the pair-by-pair draws and verifiers, kept verbatim so
# the row-wise core can be held to the same draws, verdicts and witnesses


def reference_sample_comparable_pair(spec, rng, scale=1.0, max_tries=10_000):
    domain = spec.domain
    cone = domain.cone
    if isinstance(spec.op, GridMap) and cone.kind == "orthant":
        shape = spec.op.lattice_shape
        a = np.asarray([rng.integers(0, n) for n in shape])
        b = np.asarray([rng.integers(0, n) for n in shape])
        lo_idx, hi_idx = np.minimum(a, b), np.maximum(a, b)
        return (
            spec.op.origin + spec.op.step * lo_idx.astype(float),
            spec.op.origin + spec.op.step * hi_idx.astype(float),
        )
    if domain.kind in ("interval", "box") and cone.kind == "orthant":
        u = rng.uniform(0.0, 1.0, size=domain.dim)
        x = domain.lo + u * (domain.hi - domain.lo)
        v = rng.uniform(0.0, 1.0, size=domain.dim)
        return x, x + v * (domain.hi - x)
    for attempt in range(max_tries):
        x = sample_domain_point(spec, rng, scale)
        d = sample_cone_point(cone, rng, scale * 0.5 ** (attempt % 8))
        y = x + d
        if domain_contains(domain, y):
            return x, y
    raise RuntimeError("could not sample a comparable pair inside the domain")


def _ref_slack(rhs):
    return INEQ_ATOL + INEQ_RTOL * abs(rhs)


def _ref_cone_margin(cone, v):
    if cone.kind == "orthant":
        return float(np.min(v))
    return float(v[-1] - np.linalg.norm(v[:-1]))


def reference_is_monotone(spec, cone, cfg=None):
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    report = PropertyReport(name="monotone", samples=cfg.n_samples)
    for _ in range(cfg.n_samples):
        x, y = reference_sample_comparable_pair(spec, rng, cfg.scale)
        margin = _ref_cone_margin(cone, spec.op.evaluate(y) - spec.op.evaluate(x))
        if margin < -MEMBERSHIP_TOL:
            report.violations.append(Violation(x=x, y=y, lhs=-margin, rhs=MEMBERSHIP_TOL))
    return report


def reference_is_monotone_nonexpansive(spec, cone, space, cfg=None):
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    report = PropertyReport(name="monotone_nonexpansive", samples=cfg.n_samples)
    for _ in range(cfg.n_samples):
        x, y = reference_sample_comparable_pair(spec, rng, cfg.scale)
        tx, ty = spec.op.evaluate(x), spec.op.evaluate(y)
        margin = _ref_cone_margin(cone, ty - tx)
        if margin < -MEMBERSHIP_TOL:
            report.violations.append(Violation(x=x, y=y, lhs=-margin, rhs=MEMBERSHIP_TOL))
            continue
        lhs, rhs = norm(space, tx - ty), norm(space, x - y)
        if lhs > rhs + _ref_slack(rhs):
            report.violations.append(Violation(x=x, y=y, lhs=lhs, rhs=rhs))
    return report


def _ref_sq_norm(space, v):
    """||v||^2 as the batched verifiers square their norms: a square past the
    largest double is inf, not Python's OverflowError."""
    n = norm(space, v)
    return n * n


def _ref_alpha_rhs(space, alpha, x, y, tx, ty):
    return (
        alpha * _ref_sq_norm(space, tx - y)
        + alpha * _ref_sq_norm(space, ty - x)
        + (1.0 - 2.0 * alpha) * _ref_sq_norm(space, x - y)
    )


def reference_is_alpha_nonexpansive(spec, cone, space, alpha, cfg=None, exhaustive=False):
    if alpha >= 1.0:
        raise ValueError(f"alpha must be < 1, got {alpha}")
    cfg = cfg or SamplerConfig()
    report = PropertyReport(name="alpha_nonexpansive", samples=0, alpha=alpha)
    if exhaustive:
        if not isinstance(spec.op, GridMap):
            raise ValueError("exhaustive checking is only available for lattice maps")
        pairs = [
            (a, b)
            for a, b in itertools.combinations_with_replacement(list(spec.op.lattice_points()), 2)
            if comparable(cone, a, b)
        ]
        pairs = [(a, b) if leq(cone, a, b) else (b, a) for a, b in pairs]
    else:
        rng = np.random.default_rng(cfg.seed)
        pairs = [
            reference_sample_comparable_pair(spec, rng, cfg.scale)
            for _ in range(cfg.n_samples)
        ]
    report.samples = len(pairs)
    for x, y in pairs:
        tx, ty = spec.op.evaluate(x), spec.op.evaluate(y)
        margin = _ref_cone_margin(cone, ty - tx)
        if margin < -MEMBERSHIP_TOL:
            report.violations.append(Violation(x=x, y=y, lhs=-margin, rhs=MEMBERSHIP_TOL))
            continue
        lhs = _ref_sq_norm(space, tx - ty)
        rhs = _ref_alpha_rhs(space, alpha, x, y, tx, ty)
        if lhs > rhs + _ref_slack(rhs):
            report.violations.append(Violation(x=x, y=y, lhs=lhs, rhs=rhs))
    return report


def _ref_polar_inner(space, u, v):
    return 0.25 * (_ref_sq_norm(space, u + v) - _ref_sq_norm(space, u - v))


def reference_classify_hilbert_classes(spec, space, cfg=None, ab=None):
    if space.p != 2.0:
        raise ValueError(f"hilbert-class checks need p=2, got p={space.p}")
    if ab is not None:
        a, b = ab
        if not (a > 0.5 and b < a):
            raise ValueError(f"(a, b) must satisfy a > 1/2 and b < a, got {ab}")
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    names = ["nonspreading", "hybrid", "tj"] + (["ab_monotone"] if ab is not None else [])
    reports = {n: PropertyReport(name=n, samples=cfg.n_samples) for n in names}
    for _ in range(cfg.n_samples):
        x = sample_domain_point(spec, rng, cfg.scale)
        y = sample_domain_point(spec, rng, cfg.scale)
        tx, ty = spec.op.evaluate(x), spec.op.evaluate(y)
        d_im2 = _ref_sq_norm(space, tx - ty)
        d2 = _ref_sq_norm(space, x - y)
        cross_xy = _ref_sq_norm(space, tx - y)
        cross_yx = _ref_sq_norm(space, ty - x)

        rhs = cross_xy + cross_yx
        if 2.0 * d_im2 > rhs + _ref_slack(rhs):
            reports["nonspreading"].violations.append(Violation(x, y, 2.0 * d_im2, rhs))
        rhs = d2 + _ref_polar_inner(space, x - tx, y - ty)
        if d_im2 > rhs + _ref_slack(rhs):
            reports["hybrid"].violations.append(Violation(x, y, d_im2, rhs))
        rhs = d2 + cross_xy
        if 2.0 * d_im2 > rhs + _ref_slack(rhs):
            reports["tj"].violations.append(Violation(x, y, 2.0 * d_im2, rhs))
        if ab is not None:
            a, b = ab
            lhs = _ref_polar_inner(space, x - y, tx - ty)
            bound = (
                a * d_im2
                + (1.0 - a) * d2
                - b * _ref_sq_norm(space, x - tx)
                - b * _ref_sq_norm(space, y - ty)
            )
            if lhs < bound - _ref_slack(bound):
                reports["ab_monotone"].violations.append(Violation(x, y, lhs, bound))
    return reports


def reference_index_of(op, x):
    idx = np.rint((x - op.origin) / op.step).astype(int)
    snapped = op.origin + idx * op.step
    if np.max(np.abs(x - snapped)) > op.snap_tol:
        raise DomainError(f"point {x} is not on the lattice (step {op.step})")
    if np.any(idx < 0) or np.any(idx >= np.array(op.lattice_shape)):
        raise DomainError(f"point {x} lies outside the lattice box")
    return tuple(idx)


def assert_same_report(rep, ref, rtol=1e-11):
    """Same name, samples and witnesses bit for bit; sides within ``rtol``."""
    assert (rep.name, rep.samples, rep.alpha) == (ref.name, ref.samples, ref.alpha)
    assert len(rep.violations) == len(ref.violations)
    for got, want in zip(rep.violations, ref.violations):
        for name in ("x", "y"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
        for a, b in ((got.lhs, want.lhs), (got.rhs, want.rhs)):
            assert isinstance(a, float)
            assert a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def outcome(fn, *args, **kwargs):
    """What a call returns or raises, in a form two versions can be compared by."""
    try:
        return ("returned", fn(*args, **kwargs))
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


def same_outcome(got, want):
    if got[0] == "raised" or want[0] == "raised":
        return got == want
    if isinstance(want[1], dict):
        assert list(got[1]) == list(want[1])
        for name in want[1]:
            assert_same_report(got[1][name], want[1][name])
    else:
        assert_same_report(got[1], want[1])
    return True


def check_pair_verifiers(spec, cone, space, alpha, cfg, exhaustive=False):
    """All three comparable-pair verifiers agree with their references;
    returns whether the alpha check passed."""
    for fn, ref, args in (
        (is_monotone, reference_is_monotone, (spec, cone, cfg)),
        (is_monotone_nonexpansive, reference_is_monotone_nonexpansive, (spec, cone, space, cfg)),
        (is_alpha_nonexpansive, reference_is_alpha_nonexpansive, (spec, cone, space, alpha, cfg)),
    ):
        assert same_outcome(outcome(fn, *args), outcome(ref, *args))
    rep = is_alpha_nonexpansive(spec, cone, space, alpha, cfg, exhaustive=exhaustive)
    assert_same_report(rep, reference_is_alpha_nonexpansive(spec, cone, space, alpha, cfg, exhaustive))
    return rep.passed


LOR3 = ConeSpec(kind="lorentz", dim=3)


def lorentz_rotation_map():
    """Self-map of the Lorentz cone in R^3: rotate the head, shrink it faster
    than the axis."""
    c, s = np.cos(0.7), np.sin(0.7)
    matrix = np.array([[0.5 * c, -0.5 * s, 0.0], [0.5 * s, 0.5 * c, 0.0], [0.0, 0.0, 0.9]])
    return make_mapping(AffineMap(matrix, np.array([0.0, 0.0, 1.0])), Domain(kind="cone", cone=LOR3))


def lorentz_interval_map():
    """x -> x/2 + hi/4 on the Lorentz order interval [0, hi]."""
    hi = np.array([0.0, 0.0, 8.0])
    domain = Domain(kind="interval", cone=LOR3, lo=np.zeros(3), hi=hi)
    return make_mapping(AffineMap(0.5 * np.eye(3), hi / 4.0), domain)


def grid2(cone_kind="orthant"):
    """Unchecked lattice map on a 4 x 4 grid with a random (non-monotone) table."""
    values = np.random.default_rng(21).uniform(0.0, 1.5, size=(4, 4, 2))
    cone = ConeSpec(kind=cone_kind, dim=2)
    return MappingSpec(GridMap(origin=np.zeros(2), step=0.5, values=values), Domain(kind="cone", cone=cone))


class TestRowEvaluation:
    @pytest.mark.parametrize(
        "op",
        [
            AffineMap(np.array([[1.5]]), np.array([0.25])),
            AffineMap(np.random.default_rng(1).normal(size=(2, 2)), np.ones(2)),
            AffineMap(np.random.default_rng(2).normal(size=(5, 5)), np.ones(5)),
            AffineMap(np.random.default_rng(3).normal(size=(20, 20)), np.ones(20)),
            TruncationMap(cap=np.array([0.5, 0.25, 2.0])),
            TranslationMap(shift=np.array([0.5, -0.25, 2.0])),
            BoxProjectionMap(lo=np.array([0.2, 0.0, 0.5]), hi=np.array([0.7, 0.1, 0.9])),
            CompositionMap(stages=[
                AffineMap(np.random.default_rng(4).normal(size=(3, 3)), np.zeros(3)),
                TruncationMap(cap=np.full(3, 0.5)),
                TranslationMap(shift=np.ones(3)),
                BoxProjectionMap(lo=np.zeros(3), hi=np.full(3, 1.75)),
            ]),
            grid2().op,
            corpus.steep_step_map().op,
        ],
        ids=["affine1", "affine2", "affine5", "affine20", "truncation", "translation",
             "box_projection", "composition", "grid2", "grid1"],
    )
    def test_rows_match_one_point_at_a_time(self, op):
        rng = np.random.default_rng(9)
        if isinstance(op, GridMap):
            shape = np.array(op.lattice_shape)
            x = op.origin + op.step * rng.integers(0, shape, size=(64, op.dim))
        else:
            x = rng.normal(size=(64, op.dim))
        got = op.evaluate(x)
        want = np.array([op.evaluate(row) for row in x])
        assert got.dtype == want.dtype and got.shape == want.shape == (64, op.dim)
        assert np.array_equal(got, want)
        if isinstance(op, AffineMap):
            assert np.array_equal(got, np.array([op.matrix @ row + op.offset for row in x]))
        if isinstance(op, GridMap):
            assert np.array_equal(want, np.array([op.values[reference_index_of(op, row)] for row in x]))

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.5, 1.0], [0.3, 1.0], [2.5, 0.0]],     # off the lattice first
            [[0.5, 1.0], [2.0, 0.0], [0.3, 1.0]],     # outside the box first
            [[0.0, 0.0], [-0.7, 0.2], [0.5, 5.0]],    # off the lattice and outside
            [[1.5, 1.5], [np.nan, 0.0]],               # a NaN row
            [[1.5, 1.5], [0.0, 0.5]],                  # all good
        ],
        ids=["off-lattice", "outside", "both", "nan", "good"],
    )
    def test_index_of_rows_raise_for_the_first_bad_row(self, rows):
        op = grid2().op
        x = np.array(rows)

        def first_row_outcome():
            out = [outcome(reference_index_of, op, row) for row in x]
            raised = [o for o in out if o[0] == "raised"]
            return raised[0] if raised else ("returned", tuple(np.array([o[1] for o in out]).T))

        with np.errstate(invalid="ignore"):
            want = first_row_outcome()
            got = outcome(op.index_of, x)
            assert outcome(op.evaluate, x)[0] == want[0]
            for row in x:  # one point at a time: the same result as before
                single = outcome(op.index_of, row)
                assert single[0] == outcome(reference_index_of, op, row)[0]
                if single[0] == "raised":
                    assert single == outcome(reference_index_of, op, row)
                else:
                    assert single[1] == reference_index_of(op, row)
        if want[0] == "raised":
            assert got == want and got[1] is DomainError
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))


class TestReferenceVerifiers:
    @pytest.mark.parametrize("entry", corpus.alpha_corpus(), ids=lambda e: e.name)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_alpha_corpus(self, entry, seed):
        spec, cone = entry.spec, entry.spec.domain.cone
        cfg = SamplerConfig(n_samples=300, seed=seed)
        exhaustive = isinstance(spec.op, GridMap)
        check_pair_verifiers(spec, cone, entry.space, entry.alpha, cfg, exhaustive)

    def test_steep_step_lattice_fails_below_threshold(self):
        spec, space = corpus.steep_step_map(), SpaceSpec(dim=1, p=2.0)
        for alpha in (0.0, 0.2):
            for exhaustive in (False, True):
                cfg = SamplerConfig(n_samples=300, seed=1)
                passed = check_pair_verifiers(spec, ORTH1, space, alpha, cfg, exhaustive)
                assert not passed

    @pytest.mark.parametrize("dim", [2, 5, 20])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_random_nonneg_affine(self, dim, p):
        spec = corpus.random_nonneg_affine(dim, 0.95, np.random.default_rng(dim))
        cone, space = spec.domain.cone, SpaceSpec(dim=dim, p=p)
        cfg = SamplerConfig(n_samples=200, seed=dim)
        passed = {
            alpha: check_pair_verifiers(spec, cone, space, alpha, cfg)
            for alpha in (-0.5, 0.0, 1.0 / 3.0, 0.9)
        }
        assert passed[0.0] and passed[1.0 / 3.0] and not passed[-0.5]
        # an expansive copy of the map fails nonexpansiveness too
        expansive = MappingSpec(AffineMap(1.5 * spec.op.matrix, spec.op.offset), spec.domain)
        assert not check_pair_verifiers(expansive, cone, space, 0.0, cfg)

    def test_non_monotone_box_map(self):
        # order violations are recorded first and skip the norm test
        cfg = SamplerConfig(n_samples=300, seed=2)
        for p in (1.5, 2.0, 3.0):
            assert not check_pair_verifiers(shear_map(), ORTH2, SpaceSpec(dim=2, p=p), 0.0, cfg)

    @pytest.mark.parametrize("spec_fn", [lorentz_rotation_map, lorentz_interval_map])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_lorentz_maps(self, spec_fn, p):
        space = SpaceSpec(dim=3, p=p)
        for alpha in (0.0, 0.5):
            check_pair_verifiers(spec_fn(), LOR3, space, alpha, SamplerConfig(n_samples=200, seed=3))
        # the orthant order on a Lorentz-domain map: mixed order violations
        check_pair_verifiers(spec_fn(), ConeSpec("orthant", 3), space, 0.0, SamplerConfig(200, seed=4))

    @pytest.mark.parametrize("cone", [ORTH2, LOR2], ids=["orthant", "lorentz"])
    def test_lattice_pairs(self, cone):
        # under the Lorentz cone some lattice pairs come in (upper, lower)
        # order and are flipped, others are incomparable and dropped
        spec = grid2()
        for alpha in (0.0, 0.5):
            check_pair_verifiers(spec, cone, P2, alpha, SamplerConfig(200, seed=6), exhaustive=True)
        # 100 of the 136 lattice pairs are comparable under the orthant, 90
        # under the Lorentz cone, 25 of which are flipped
        rep = is_alpha_nonexpansive(spec, cone, P2, 0.0, exhaustive=True)
        assert rep.samples == (90 if cone is LOR2 else 100)

    def test_lattice_map_off_lattice_pairs_same_error(self):
        # a lattice map on a Lorentz cone domain samples off-lattice pairs
        spec = grid2("lorentz")
        cfg = SamplerConfig(n_samples=50, seed=2)
        got = outcome(is_alpha_nonexpansive, spec, LOR2, P2, 0.0, cfg)
        assert got[0] == "raised" and got[1] is DomainError
        assert got == outcome(reference_is_alpha_nonexpansive, spec, LOR2, P2, 0.0, cfg)

    @pytest.mark.parametrize(
        "spec",
        [
            corpus.identity_map(2),
            corpus.constant_map([1.0, 1.0]),
            corpus.box_clamp(2),
            corpus.affine_contraction(2),
            corpus.box_drift_down(2),
            corpus.steep_step_map(),
            shear_map(),
            grid2(),
            corpus.random_nonneg_affine(5, 0.95, np.random.default_rng(5)),
            lorentz_rotation_map(),
            lorentz_interval_map(),
        ],
        ids=["identity", "constant", "box_clamp", "contraction", "drift_down", "steep_step",
             "shear", "grid2", "affine5", "lorentz", "lorentz_interval"],
    )
    @pytest.mark.parametrize("ab", [None, (0.75, 0.25), (1.0, 0.5)])
    def test_hilbert_classes(self, spec, ab):
        space = SpaceSpec(dim=spec.dim, p=2.0)
        cfg = SamplerConfig(n_samples=200, seed=8)
        got = outcome(classify_hilbert_classes, spec, space, cfg, ab)
        assert got[0] == "returned"
        assert same_outcome(got, outcome(reference_classify_hilbert_classes, spec, space, cfg, ab))

    @pytest.mark.parametrize(
        "op",
        [
            AffineMap(np.array([[1e308]]), np.array([1e308])),     # overflows to +inf for x > 0.8
            AffineMap(np.array([[-1e308]]), np.array([-1e308])),   # to -inf: order violations
        ],
        ids=["plus-inf", "minus-inf"],
    )
    @pytest.mark.parametrize("n_samples", [1, 3, 300])
    def test_non_finite_image(self, op, n_samples):
        spec = MappingSpec(op, Domain(kind="cone", cone=ORTH1))
        outcomes = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for seed in range(8):
                cfg = SamplerConfig(n_samples=n_samples, seed=seed)
                check = (
                    (is_monotone, reference_is_monotone, (spec, ORTH1, cfg)),
                    (is_monotone_nonexpansive, reference_is_monotone_nonexpansive, (spec, ORTH1, P1, cfg)),
                    (is_alpha_nonexpansive, reference_is_alpha_nonexpansive, (spec, ORTH1, P1, 0.0, cfg)),
                    (classify_hilbert_classes, reference_classify_hilbert_classes, (spec, P1, cfg)),
                )
                for fn, ref, args in check:
                    got = outcome(fn, *args)
                    assert same_outcome(got, outcome(ref, *args))
                    outcomes.add(got[:2] if got[0] == "raised" else (got[0], fn.__name__))
        assert ("raised", ValueError) in outcomes
        if n_samples == 300:
            assert outcomes == {("raised", ValueError), ("returned", "is_monotone")}

    def test_space_of_other_dimension_same_error(self):
        cfg = SamplerConfig(n_samples=20, seed=0)
        space = SpaceSpec(dim=3, p=2.0)
        spec = corpus.affine_contraction(2)
        for fn, ref, args in (
            (is_monotone_nonexpansive, reference_is_monotone_nonexpansive, (spec, ORTH2, space, cfg)),
            (is_alpha_nonexpansive, reference_is_alpha_nonexpansive, (spec, ORTH2, space, 0.0, cfg)),
        ):
            got = outcome(fn, *args)
            assert got[0] == "raised" and got == outcome(ref, *args)


class TestBatchedSampling:
    @pytest.mark.parametrize(
        "spec",
        [e.spec for e in corpus.alpha_corpus()]
        + [shear_map(), grid2(), grid2("lorentz"), lorentz_rotation_map(), lorentz_interval_map(),
           MappingSpec(AffineMap(0.5 * np.eye(2), np.zeros(2)),
                       Domain(kind="box", cone=LOR2, lo=np.zeros(2), hi=np.ones(2)))],
        ids=[e.name for e in corpus.alpha_corpus()]
        + ["shear", "grid2", "grid2-lorentz", "lorentz", "lorentz_interval", "lorentz_box"],
    )
    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_rows_are_the_pairwise_draws(self, spec, scale):
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        x, y = sample_comparable_pairs(spec, rng, 40, scale)
        assert x.shape == y.shape == (40, spec.dim)
        for k in range(40):
            rx, ry = reference_sample_comparable_pair(spec, ref_rng, scale)
            assert np.array_equal(x[k], rx) and np.array_equal(y[k], ry)
        assert rng.uniform() == ref_rng.uniform()
        # the one-pair form draws the same pair as the reference
        one = sample_comparable_pair(spec, np.random.default_rng(12), scale)
        ref = reference_sample_comparable_pair(spec, np.random.default_rng(12), scale)
        assert all(np.array_equal(a, b) and a.shape == (spec.dim,) for a, b in zip(one, ref))

    def test_no_pairs(self):
        for spec in (corpus.affine_contraction(2), corpus.steep_step_map(), lorentz_rotation_map()):
            x, y = sample_comparable_pairs(spec, np.random.default_rng(0), 0)
            assert x.shape == y.shape == (0, spec.dim)
            rep = is_alpha_nonexpansive(spec, spec.domain.cone, SpaceSpec(spec.dim, 2.0), 0.0,
                                        SamplerConfig(n_samples=0))
            assert rep.passed and rep.samples == 0


def reference_is_quasi_nonexpansive(spec, cone, space, fixed_points, cfg=None):
    fixed_points = [as_vector(p, dim=spec.dim) for p in fixed_points]
    if not fixed_points:
        raise NotFixedPointError("no fixed points supplied")
    for p in fixed_points:
        res = norm(space, spec.op.evaluate(p) - p)
        if res > FIXED_POINT_TOL:
            raise NotFixedPointError(f"supplied point {p} has residual {res:.3e}")
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    report = PropertyReport(name="quasi_nonexpansive", samples=0)
    checked = 0
    for k in range(cfg.n_samples):
        p = fixed_points[k % len(fixed_points)]
        if isinstance(spec.op, GridMap):
            idx_p = np.asarray(spec.op.index_of(p))
            idx = np.asarray([rng.integers(0, n) for n in spec.op.lattice_shape])
            idx = np.maximum(idx, idx_p) if k % 2 == 0 else np.minimum(idx, idx_p)
            x = spec.op.origin + spec.op.step * idx.astype(float)
        else:
            d = sample_cone_point(spec.domain.cone, rng, cfg.scale)
            x = p + d if k % 2 == 0 else p - d
        if not domain_contains(spec.domain, x):
            continue
        checked += 1
        lhs = norm(space, spec.op.evaluate(x) - p)
        rhs = norm(space, x - p)
        if lhs > rhs + _ref_slack(rhs):
            report.violations.append(Violation(x=x, y=p, lhs=lhs, rhs=rhs))
    report.samples = checked
    return report


def reference_fixed_point_oracle(spec, grid_cfg=None, residual_tol=FIXED_POINT_TOL):
    """The candidate-by-candidate search, with its refinement loop."""
    found = []
    affine_view = as_affine(spec.op)
    if affine_view is not None:
        direct = _affine_fixed_points(spec, *affine_view, residual_tol)
        if direct is not None:
            return direct
    if isinstance(spec.op, GridMap):
        candidates = [x for x in spec.op.lattice_points() if domain_contains(spec.domain, x)]
    else:
        if grid_cfg is None:
            raise ValueError("non-affine fixed-point search needs a bounded GridSearchConfig")
        axes = [np.linspace(grid_cfg.lo[i], grid_cfg.hi[i], grid_cfg.points_per_axis)
                for i in range(spec.dim)]
        candidates = [
            np.asarray(pt, dtype=float)
            for pt in itertools.product(*axes)
            if domain_contains(spec.domain, np.asarray(pt, dtype=float))
        ]
    accept, refine_iters = 1e-8, 200  # the defaults of the removed knobs
    for x in candidates:
        res = float(np.linalg.norm(spec.op.evaluate(x) - x))
        if res > accept:
            continue
        z, z_res = x, res
        for _ in range(refine_iters):
            if z_res <= residual_tol:
                break
            nxt = spec.op.evaluate(z)
            if not domain_contains(spec.domain, nxt, tol=1e-9):
                break
            nxt_res = float(np.linalg.norm(spec.op.evaluate(nxt) - nxt))
            if nxt_res >= z_res:
                break
            z, z_res = nxt, nxt_res
        if z_res <= residual_tol:
            if not any(np.max(np.abs(z - w)) <= 1e-8 for w in found):
                found.append(z)
    return found


def doubling_map(cone):
    """x -> 2x on the cone: 0 is its only fixed point, and it expands."""
    return make_mapping(AffineMap(2.0 * np.eye(cone.dim), np.zeros(cone.dim)), Domain(kind="cone", cone=cone))


def lattice_doubling_map():
    """Lattice map on {0, ..., 4}: k -> min(2k, 4); fixed at 0 and 4, expanding near 0."""
    values = np.minimum(2.0 * np.arange(5.0), 4.0)[:, None]
    op = GridMap(origin=np.zeros(1), step=1.0, values=values)
    return make_mapping(op, Domain(kind="box", cone=ORTH1, lo=np.zeros(1), hi=np.full(1, 4.0)))


def lattice_identity_map():
    """Identity table on a 4 x 5 lattice: every node is fixed."""
    nodes = np.stack(np.meshgrid(np.arange(4.0), np.arange(5.0), indexing="ij"), axis=-1) * 0.5
    return make_mapping(GridMap(origin=np.zeros(2), step=0.5, values=nodes), Domain(kind="cone", cone=ORTH2))


# (name, spec factory, fixed points, has violations): corpus maps, lattice
# maps, a Lorentz-cone map, and expanding maps whose reports have violations
QUASI_CASES = [
    ("affine_contraction", lambda: corpus.affine_contraction(2), [[2.0, 2.0]], False),
    ("constant", lambda: corpus.constant_map([1.0, 1.0]), [[1.0, 1.0]], False),
    ("truncation", lambda: corpus.truncation_cap(2), [[0.5, 1.0], [1.5, 1.5], [0.0, 0.25]], False),
    ("box_clamp", lambda: corpus.box_clamp(2), [[0.5, 0.5], [1.0, 0.0]], False),
    ("box_drift_down", lambda: corpus.box_drift_down(2), [[-3.0, -3.0]], False),
    ("identity", lambda: corpus.identity_map(2), [[0.5, 2.0], [0.0, 0.0]], False),
    ("steep_step", corpus.steep_step_map, [[0.0]], False),
    ("lattice_doubling", lattice_doubling_map, [[0.0], [4.0]], True),
    ("lattice_identity", lattice_identity_map, [[0.5, 1.0], [1.5, 0.0]], False),
    ("lorentz_rotation", lorentz_rotation_map, [[0.0, 0.0, 10.0]], False),
    ("doubling", lambda: doubling_map(ORTH2), [[0.0, 0.0]], True),
    ("doubling_lorentz", lambda: doubling_map(LOR3), [[0.0, 0.0, 0.0]], True),
]


class TestRowQuasiVerifier:
    @pytest.mark.parametrize("make, fixed, expanding", [c[1:] for c in QUASI_CASES],
                             ids=[c[0] for c in QUASI_CASES])
    def test_matches_pair_by_pair_reference(self, make, fixed, expanding):
        # seeds 0-29, n in {0, 1, 7, 200}, p in {1.5, 2}: same samples,
        # witnesses and lhs/rhs bits
        spec = make()
        cone = spec.domain.cone
        violations = 0
        for p in (1.5, 2.0):
            space = SpaceSpec(spec.dim, p)
            for seed in range(30):
                for n in (0, 1, 7, 200):
                    cfg = SamplerConfig(n_samples=n, seed=seed, scale=1.0 + seed % 3)
                    rep = is_quasi_nonexpansive(spec, cone, space, fixed, cfg)
                    ref = reference_is_quasi_nonexpansive(spec, cone, space, fixed, cfg)
                    assert_same_report(rep, ref, rtol=0.0)
                    violations += len(rep.violations)
        assert (violations > 0) == expanding

    def test_bad_fixed_points_same_error(self):
        for spec, fixed in ((corpus.affine_contraction(2), [[2.0, 2.0], [1.0, 1.0]]),
                            (corpus.steep_step_map(), [[0.0], [0.3]]),
                            (corpus.steep_step_map(), [[0.0], [3.0]])):
            args = (spec, spec.domain.cone, SpaceSpec(spec.dim, 2.0), fixed, SamplerConfig(10, seed=0))
            got = outcome(is_quasi_nonexpansive, *args)
            assert got[0] == "raised" and got == outcome(reference_is_quasi_nonexpansive, *args)


def search_grid(lo, hi, points_per_axis, dim=2):
    return GridSearchConfig(lo=np.full(dim, lo), hi=np.full(dim, hi), points_per_axis=points_per_axis)


class TestRowOracleFilter:
    @pytest.mark.parametrize(
        "spec, grid_cfg",
        [
            (corpus.truncation_cap(2), search_grid(0.0, 3.0, 7)),
            (corpus.box_clamp(2), search_grid(0.0, 2.0, 7)),
            (corpus.box_drift_down(2), search_grid(-3.0, 0.0, 7)),
            (corpus.box_drift_down(3), search_grid(-4.0, 1.0, 6, dim=3)),
            (corpus.truncation_cap(2), search_grid(-1.0, 2.0, 0)),
            (corpus.identity_map(2), search_grid(0.0, 1.0, 3)),
            # affine, but the minimum-norm solution lies off the box: the grid decides
            (MappingSpec(AffineMap(np.eye(2), np.zeros(2)), box2(1.0, 2.0)), search_grid(0.0, 2.0, 5)),
            (MappingSpec(AffineMap(np.diag([1.0, 0.5]), np.array([0.0, 0.5])),
                         Domain(kind="box", cone=ORTH2, lo=np.array([1.0, 0.0]), hi=np.full(2, 2.0))),
             search_grid(0.0, 2.0, 5)),
            (corpus.steep_step_map(), None),
            (lattice_doubling_map(), None),
            (lattice_identity_map(), None),
            (grid2(), None),
            (MappingSpec(GridMap(origin=np.zeros(2), step=0.5, values=np.zeros((4, 4, 2))),
                         Domain(kind="box", cone=ORTH2, lo=np.zeros(2), hi=np.ones(2))), None),
        ],
        ids=["truncation", "box_clamp", "box_drift_down", "box_drift_down_d3", "empty_grid",
             "identity", "affine_identity_off_origin", "affine_fixed_line", "steep_step",
             "lattice_doubling", "lattice_identity", "grid2", "grid_in_box"],
    )
    def test_matches_candidate_by_candidate_reference(self, spec, grid_cfg):
        got, want = fixed_point_oracle(spec, grid_cfg), reference_fixed_point_oracle(spec, grid_cfg)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) and a.shape == b.shape for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# reference oracles: the former domain sampler, whose lattice and
# Lorentz-interval draws went point by point through a pair of mutually
# recursive functions, and the former branch-per-variant JSON codec, kept
# verbatim so the one sampler and the field-driven codec can be held to the
# same draws and the same bytes


def reference_sample_domain_point(spec, rng, scale=1.0):
    domain = spec.domain
    if isinstance(spec.op, GridMap):
        idx = tuple(rng.integers(0, n) for n in spec.op.lattice_shape)
        return spec.op.origin + spec.op.step * np.asarray(idx, dtype=float)
    if domain.kind != "interval" or domain.cone.kind == "orthant":
        return reference_domain_rows(spec, rng, 1, scale)[0]
    t = rng.uniform(0.0, 1.0)
    base = domain.lo + t * (domain.hi - domain.lo)
    for shrink in range(8):
        pert = rng.normal(0.0, scale * 0.5 ** shrink, size=domain.dim)
        cand = base + pert
        if domain_contains(domain, cand):
            return cand
    return base


def reference_domain_rows(spec, rng, n, scale):
    domain = spec.domain
    if isinstance(spec.op, GridMap) or (domain.kind == "interval" and domain.cone.kind != "orthant"):
        return np.array([reference_sample_domain_point(spec, rng, scale) for _ in range(n)]).reshape(n, spec.dim)
    if domain.kind == "cone":
        return _cone_rows(domain.cone, rng, n, scale)
    return domain.lo + rng.uniform(0.0, 1.0, size=(n, spec.dim)) * (domain.hi - domain.lo)


def reference_draw_comparable_pair(spec, rng, scale, max_tries=10_000):
    domain = spec.domain
    cone = domain.cone
    if isinstance(spec.op, GridMap) and cone.kind == "orthant":
        shape = spec.op.lattice_shape
        a = np.asarray([rng.integers(0, n) for n in shape])
        b = np.asarray([rng.integers(0, n) for n in shape])
        lo_idx, hi_idx = np.minimum(a, b), np.maximum(a, b)
        return (
            spec.op.origin + spec.op.step * lo_idx.astype(float),
            spec.op.origin + spec.op.step * hi_idx.astype(float),
        )
    for attempt in range(max_tries):
        x = reference_sample_domain_point(spec, rng, scale)
        d = sample_cone_point(cone, rng, scale * 0.5 ** (attempt % 8))
        y = x + d
        if domain_contains(domain, y):
            return x, y
    raise RuntimeError("could not sample a comparable pair inside the domain")


def reference_sample_comparable_pairs(spec, rng, n, scale=1.0):
    domain = spec.domain
    if isinstance(spec.op, GridMap) or domain.cone.kind != "orthant":
        pairs = [reference_draw_comparable_pair(spec, rng, scale) for _ in range(n)]
        return tuple(np.array([pair[i] for pair in pairs]).reshape(n, spec.dim) for i in (0, 1))
    u = rng.uniform(0.0, scale if domain.kind == "cone" else 1.0, size=(n, 2, spec.dim))
    if domain.kind == "cone":
        return u[:, 0], u[:, 0] + u[:, 1]
    x = domain.lo + u[:, 0] * (domain.hi - domain.lo)
    return x, x + u[:, 1] * (domain.hi - x)


class TestOneDomainSampler:
    @pytest.mark.parametrize(
        "make",
        [grid2, corpus.steep_step_map, lorentz_interval_map, lorentz_rotation_map],
        ids=["lattice", "lattice_box", "lorentz_interval", "lorentz_cone"],
    )
    @pytest.mark.parametrize("n", [0, 1, 7, 200])
    def test_rows_match_the_point_by_point_reference(self, make, n):
        spec = make()
        for seed in range(30):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            rows, want = _domain_rows(spec, rng, n, 1.0), reference_domain_rows(spec, ref, n, 1.0)
            assert rows.shape == want.shape == (n, spec.dim) and np.array_equal(rows, want)
            one, ref_one = sample_domain_point(spec, rng, 2.0), reference_sample_domain_point(spec, ref, 2.0)
            assert one.shape == (spec.dim,) and np.array_equal(one, ref_one)
            x, y = sample_comparable_pairs(spec, rng, n, 0.5)
            rx, ry = reference_sample_comparable_pairs(spec, ref, n, 0.5)
            assert x.shape == y.shape == rx.shape == (n, spec.dim)
            assert np.array_equal(x, rx) and np.array_equal(y, ry)
            assert rng.uniform() == ref.uniform()

    def test_lorentz_interval_falls_back_to_the_segment(self):
        # at scale 20 most perturbations are rejected, and some points stay
        # on the segment [lo, hi], which is the axis here
        spec = lorentz_interval_map()
        rows = _domain_rows(spec, np.random.default_rng(3), 500, 20.0)
        assert np.array_equal(rows, reference_domain_rows(spec, np.random.default_rng(3), 500, 20.0))
        on_axis = (rows[:, :2] == 0.0).all(axis=1)
        assert on_axis.any() and not on_axis.all()
        assert all(domain_contains(spec.domain, row) for row in rows)


_REFERENCE_TAGS = {
    AffineMap: "affine",
    TruncationMap: "truncation",
    TranslationMap: "translation",
    BoxProjectionMap: "box_projection",
    CompositionMap: "composition",
    GridMap: "grid",
}


def reference_op_to_dict(op):
    tag = _REFERENCE_TAGS[type(op)]
    if isinstance(op, AffineMap):
        body = {"matrix": op.matrix.tolist(), "offset": op.offset.tolist()}
    elif isinstance(op, TruncationMap):
        body = {"cap": op.cap.tolist()}
    elif isinstance(op, TranslationMap):
        body = {"shift": op.shift.tolist()}
    elif isinstance(op, BoxProjectionMap):
        body = {"lo": op.lo.tolist(), "hi": op.hi.tolist()}
    elif isinstance(op, CompositionMap):
        body = {"stages": [reference_op_to_dict(s) for s in op.stages]}
    else:
        body = {
            "origin": op.origin.tolist(),
            "step": op.step,
            "values": op.values.tolist(),
        }
    return {"variant": tag, **body}


def reference_op_from_dict(d):
    tag = d["variant"]
    if tag == "affine":
        return AffineMap(matrix=d["matrix"], offset=d["offset"])
    if tag == "truncation":
        return TruncationMap(cap=d["cap"])
    if tag == "translation":
        return TranslationMap(shift=d["shift"])
    if tag == "box_projection":
        return BoxProjectionMap(lo=d["lo"], hi=d["hi"])
    if tag == "composition":
        return CompositionMap(stages=[reference_op_from_dict(s) for s in d["stages"]])
    if tag == "grid":
        return GridMap(origin=d["origin"], step=d["step"], values=d["values"])
    raise ValueError(f"unknown mapping variant {tag!r}")


def reference_mapping_to_dict(spec):
    domain = {"kind": spec.domain.kind, "cone": {"kind": spec.domain.cone.kind, "dim": spec.domain.cone.dim}}
    if spec.domain.lo is not None:
        domain["lo"] = spec.domain.lo.tolist()
        domain["hi"] = spec.domain.hi.tolist()
    return {**reference_op_to_dict(spec.op), "domain": domain}


def codec_specs():
    """Every operation variant, a nested composition, an integer lattice step
    and a Lorentz interval."""
    orth2 = Domain(kind="cone", cone=ORTH2)
    nested = CompositionMap([
        TranslationMap([1.0, 1.0]),
        CompositionMap([TruncationMap([2.0, 2.0]), AffineMap(0.5 * np.eye(2), [0.0, 0.25])]),
        BoxProjectionMap([0.0, 0.0], [3.0, 3.0]),
    ])
    int_step = GridMap(origin=[0.0, 1.0], step=1, values=np.zeros((2, 3, 2)) + [0.0, 1.0])
    return {
        **{e.name: e.spec for e in corpus.alpha_corpus()},
        "nested": MappingSpec(nested, orth2),
        "int_step": MappingSpec(int_step, Domain(kind="box", cone=ORTH2, lo=[0.0, 1.0], hi=[1.0, 3.0])),
        "lorentz_interval": lorentz_interval_map(),
    }


class TestFieldDrivenCodec:
    @pytest.mark.parametrize("name", sorted(codec_specs()))
    def test_same_bytes_and_ops_as_the_reference(self, name, tmp_path):
        spec = codec_specs()[name]
        path = tmp_path / "map.json"
        save_mapping(spec, path)
        want = json.dumps(reference_mapping_to_dict(spec), indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == want
        d = json.loads(want)
        got, ref = _op_from_dict(d), reference_op_from_dict(d)
        assert type(got) is type(ref)
        assert reference_op_to_dict(got) == reference_op_to_dict(ref) == reference_op_to_dict(spec.op)
        assert json.dumps(mapping_to_dict(load_mapping(path)), indent=2) + "\n" == want

    @pytest.mark.parametrize(
        "d",
        [
            {},
            {"variant": "spiral"},
            {"variant": ["affine"]},
            {"variant": None},
            {"variant": "affine", "matrix": [[1.0]]},
            {"variant": "grid", "origin": [0.0], "values": [[0.0]]},
            {"variant": "composition", "stages": [{"variant": "translation"}]},
            {"variant": "composition", "stages": []},
            {"variant": "box_projection", "lo": [1.0], "hi": [0.0]},
        ],
    )
    def test_bad_dicts_same_error(self, d):
        def raised(fn):
            try:
                fn(d)
            except Exception as exc:  # the type and text are compared
                return type(exc), str(exc)
            return None

        got = raised(_op_from_dict)
        assert got is not None and got == raised(reference_op_from_dict)

    def test_snap_tol_is_a_constant_not_a_field(self):
        op = corpus.steep_step_map().op
        assert op.snap_tol == GridMap.snap_tol == 1e-9
        assert "snap_tol" not in mapping_to_dict(corpus.steep_step_map())
        with pytest.raises(TypeError):
            GridMap(origin=np.zeros(1), step=0.5, values=np.zeros((2, 1)), snap_tol=1e-6)
