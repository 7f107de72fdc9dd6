"""Mapping variants, property verifiers, and the fixed-point search."""

import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderfp import corpus, mapping, order
from orderfp import space as lp
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
    load_mapping,
    mapping_from_dict,
    mapping_to_dict,
    sample_comparable_pairs,
    sample_domain_point,
    save_mapping,
    validate_self_map,
    _affine_fixed_points,
    _domain_rows,
    _radius_bounds,
    _op_from_dict,
    _square_scale,
)
from orderfp.order import MEMBERSHIP_TOL, ConeSpec, comparable, leq, _cone_rows
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
    return MappingSpec(op, box2(0.0, 2.0))


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
        spec = MappingSpec(AffineMap(a, b), Domain(kind="cone", cone=ConeSpec("orthant", 3)))
        x = rng.uniform(0.0, 1.0, size=3)
        expected = np.array([sum(a[i, j] * x[j] for j in range(3)) + b[i] for i in range(3)])
        assert np.allclose(apply_map(spec, x), expected, atol=1e-15)

    def test_outside_domain_rejected(self):
        spec = corpus.affine_contraction(2)
        with pytest.raises(DomainError):
            apply_map(spec, [-1.0, 0.0])

    def test_self_map_enforced_when_read(self):
        # a map built in code is a self-map by construction; one read from outside is checked
        bad = MappingSpec(AffineMap(np.array([[1.0, 0.0], [-2.0, 1.0]]), np.zeros(2)), Domain(kind="cone", cone=ORTH2))
        with pytest.raises(DomainError, match="^not a self-map: image "):
            mapping_from_dict(mapping_to_dict(bad))

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
    # on its 64 samples from seed 0 the first failing sample is number 1, 2,
    # 22, 13, 6, 13 and 2; the two BlowUpMaps on the box also fail later
    # samples the other way
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
            (MappingSpec(BlowUpMap(cut=0.95, shift=0.15), box2(0.0, 1.0)), DomainError),
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
                fn(spec)
            except ValueError as exc:
                return type(exc), str(exc)
            return None

        got = outcome(validate_self_map)
        assert got == outcome(lambda spec: reference_validate_self_map(spec, n_samples=64, seed=0))
        assert (got and got[0]) is raises


class TestSamplers:
    @pytest.mark.parametrize("entry", corpus.alpha_corpus(), ids=lambda e: e.name)
    def test_comparable_pairs_live_in_domain(self, entry):
        cone = entry.spec.domain.cone
        for x, y in zip(*sample_comparable_pairs(entry.spec, np.random.default_rng(1), 100)):
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
        for x, y in zip(*sample_comparable_pairs(spec, np.random.default_rng(3), 50)):
            assert domain_contains(domain, x) and domain_contains(domain, y)
            assert leq(cone, x, y)


class TestMonotoneVerifiers:
    def test_nonnegative_affine_passes(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.0, 0.5, size=(2, 2))
        spec = MappingSpec(AffineMap(a, np.ones(2)), Domain(kind="cone", cone=ORTH2))
        assert is_monotone(spec, SamplerConfig(200, seed=1)).passed

    def test_identity_passes(self):
        assert is_monotone(corpus.identity_map(2)).passed

    def test_negative_entry_fails_with_witness(self):
        report = is_monotone(shear_map(), SamplerConfig(300, seed=2))
        assert not report.passed
        w = report.violations[0]
        tx, ty = shear_map().op.evaluate(w.x), shear_map().op.evaluate(w.y)
        assert not leq(ORTH2, tx, ty)  # witness recomputes

    def test_truncation_nonexpansive(self):
        report = is_monotone_nonexpansive(corpus.truncation_cap(2), P2, SamplerConfig(300, seed=3))
        assert report.passed

    def test_translation_isometry(self):
        report = is_monotone_nonexpansive(corpus.unit_translation(2), P2, SamplerConfig(300, seed=4))
        assert report.passed

    def test_expansion_detected_along_top_singular_direction(self):
        op = AffineMap(matrix=1.5 * np.eye(2), offset=np.zeros(2))
        spec = MappingSpec(op, Domain(kind="cone", cone=ORTH2))
        report = is_monotone_nonexpansive(spec, P2, SamplerConfig(200, seed=5))
        assert not report.passed
        w = report.violations[0]
        assert w.lhs > w.rhs


class TestDomainConeOrder:
    """Every verifier orders pairs by the map's domain cone, the order the
    pairs are drawn under, so the identity passes under every order."""

    @staticmethod
    def identity_on(kind, cone):
        d = cone.dim
        lo, hi = np.zeros(d), np.ones(d)
        if kind == "interval" and cone.kind == "lorentz":
            hi = np.eye(d)[-1] * 2.0  # 0 <= hi in the Lorentz order
        bounds = {} if kind == "cone" else {"lo": lo, "hi": hi}
        return MappingSpec(AffineMap(np.eye(d), np.zeros(d)), Domain(kind=kind, cone=cone, **bounds))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cone_kind", ["orthant", "lorentz"])
    @pytest.mark.parametrize("kind", ["cone", "interval", "box"])
    def test_identity_passes_under_its_domain_cone(self, kind, cone_kind, dim, p):
        spec = self.identity_on(kind, ConeSpec(kind=cone_kind, dim=dim))
        space, cfg = SpaceSpec(dim=dim, p=p), SamplerConfig(100, seed=dim)
        for rep in (is_monotone(spec, cfg), is_monotone_nonexpansive(spec, space, cfg),
                    is_alpha_nonexpansive(spec, space, 0.5, cfg)):
            assert rep.passed and rep.samples == 100, rep.summary()


class TestAlphaVerifier:
    def test_alpha_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            is_alpha_nonexpansive(corpus.identity_map(2), P2, alpha=1.0)

    @pytest.mark.parametrize("alpha", [math.nan, -math.inf])
    def test_a_non_finite_alpha_is_refused(self, alpha):
        # x -> 3x on [0, 10]: at alpha = 0.5 50 samples show violations, while
        # a nan or -inf alpha made every pair pass
        spec = MappingSpec(AffineMap(np.array([[3.0]]), np.zeros(1)),
                           Domain(kind="box", cone=ORTH1, lo=np.zeros(1), hi=np.full(1, 10.0)))
        cfg = SamplerConfig(n_samples=50, seed=0)
        assert not is_alpha_nonexpansive(spec, P1, 0.5, cfg).passed
        message = f"^alpha must be a finite number < 1, got {alpha}$"
        with pytest.raises(ValueError, match=message):
            is_alpha_nonexpansive(spec, P1, alpha, cfg)
        with pytest.raises(ValueError, match=message):
            check_displacement_bound(spec, P1, alpha, [1.0], [2.0])

    def test_identity_equality_any_alpha(self):
        for alpha in (-0.5, 0.0, 0.9):
            rep = is_alpha_nonexpansive(corpus.identity_map(2), P2, alpha,
                                        SamplerConfig(200, seed=6))
            assert rep.passed

    def test_alpha_zero_agrees_with_nonexpansive_verifier(self):
        for entry in corpus.alpha_corpus():
            cfg = SamplerConfig(n_samples=300, seed=7)
            a0 = is_alpha_nonexpansive(entry.spec, entry.space, 0.0, cfg)
            ne = is_monotone_nonexpansive(entry.spec, entry.space, cfg)
            assert a0.passed == ne.passed, entry.name

    def test_steep_step_brute_force(self):
        spec = corpus.steep_step_map()
        rep = is_alpha_nonexpansive(spec, P1, corpus.STEEP_STEP_ALPHA, exhaustive=True)
        assert rep.passed
        assert rep.samples == 28  # all comparable lattice pairs incl. diagonal
        # not plain nonexpansive: alpha = 0 fails on the jump pair
        rep0 = is_alpha_nonexpansive(spec, P1, 0.0, exhaustive=True)
        assert not rep0.passed
        jumps = {(float(v.x[0]), float(v.y[0])) for v in rep0.violations}
        assert (2.0, 3.0) in jumps and (2.5, 3.0) in jumps

    def test_steep_step_alpha_threshold(self):
        # brute force over the lattice pins the least feasible alpha at 4/19
        spec = corpus.steep_step_map()
        threshold = 4.0 / 19.0
        assert is_alpha_nonexpansive(spec, P1, threshold + 1e-6, exhaustive=True).passed
        assert not is_alpha_nonexpansive(spec, P1, threshold - 1e-3, exhaustive=True).passed

    def test_exhaustive_needs_lattice(self):
        with pytest.raises(ValueError):
            is_alpha_nonexpansive(corpus.identity_map(2), P2, 0.0, exhaustive=True)

    def test_reports_reproducible(self):
        cfg = SamplerConfig(n_samples=100, seed=8)
        a = is_alpha_nonexpansive(corpus.affine_contraction(2), P2, 0.0, cfg)
        b = is_alpha_nonexpansive(corpus.affine_contraction(2), P2, 0.0, cfg)
        assert a.passed == b.passed and a.samples == b.samples


class TestDisplacementBound:
    def test_fixed_argument_reduces_to_nonexpansive_bound(self):
        spec = corpus.affine_contraction(2)
        z = np.array([2.0, 2.0])  # fixed, so the correction terms vanish
        assert check_displacement_bound(spec, P2, 0.5, z, np.array([3.0, 3.0]))

    def test_alpha_zero_nonexpansive_map(self):
        spec = corpus.truncation_cap(2)
        assert check_displacement_bound(spec, P2, 0.0, np.zeros(2), np.ones(2))

    def test_steep_step_randomized_pairs(self):
        spec = corpus.steep_step_map()
        for x, y in zip(*sample_comparable_pairs(spec, np.random.default_rng(11), 200)):
            assert check_displacement_bound(spec, P1, corpus.STEEP_STEP_ALPHA, x, y)
            assert check_displacement_bound(spec, P1, corpus.STEEP_STEP_ALPHA, y, x)

    def test_incomparable_rejected(self):
        spec = corpus.identity_map(2)
        with pytest.raises(IncomparableError):
            check_displacement_bound(spec, P2, 0.0, [0.0, 1.0], [1.0, 0.0])

    def test_far_pair_gives_a_verdict(self):
        # a distance of about 1.6e160 squares past the float range
        p15 = SpaceSpec(dim=2, p=1.5)
        far = np.array([1e160, 1e160])
        assert check_displacement_bound(corpus.identity_map(2), p15, 0.0, np.zeros(2), far)
        assert check_displacement_bound(corpus.identity_map(2), p15, -0.5, far, 3.0 * far)
        doubling = MappingSpec(AffineMap(2.0 * np.eye(2), np.zeros(2)), Domain(kind="cone", cone=ORTH2))
        assert not check_displacement_bound(doubling, p15, 0.0, np.zeros(2), far)

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
            near = check_displacement_bound(spec, p15, alpha, x, y)
            assert check_displacement_bound(spec, p15, alpha, 1e160 * x, 1e160 * y) == near
            verdicts.append(near)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0 / 3.0, 0.5, 0.9])
    def test_verdicts_of_the_former_scaling(self, alpha):
        # s = max(1, norms) scaled every pair with a norm above 1; the power
        # of two that replaced it scales only norms from 2^500 on
        def former(spec, space, x, y):
            tx, ty = spec.op.evaluate(x), spec.op.evaluate(y)
            d_im, d_arg, disp = norm(space, tx - ty), norm(space, x - y), norm(space, tx - x)
            s = max(1.0, d_im, d_arg, disp)
            d_im, d_arg, disp = d_im / s, d_arg / s, disp / s
            rhs = d_arg ** 2 + (2.0 * alpha / (1.0 - alpha)) * disp ** 2 + (
                2.0 * abs(alpha) / (1.0 - alpha)) * disp * (d_arg + d_im)
            return d_im ** 2 <= rhs + INEQ_ATOL / s / s + INEQ_RTOL * abs(rhs)

        rng = np.random.default_rng(23)
        entries = [(e.spec, e.space) for e in corpus.alpha_corpus()]
        entries += [(corpus.random_nonneg_affine(d, rho, rng), SpaceSpec(d, p))
                    for d, rho, p in [(2, 0.9, 2.0), (3, 1.0, 1.5), (5, 0.7, 3.0)]]
        verdicts = []
        for spec, space in entries:
            for scale in (1.0, 30.0):
                x, y = sample_comparable_pairs(spec, rng, 100)
                if spec.domain.kind == "cone":  # the pairs scaled up stay comparable in the cone
                    x, y = scale * x, scale * y
                for x, y in zip(x, y):
                    got = check_displacement_bound(spec, space, alpha, x, y)
                    assert got is former(spec, space, x, y)
                    verdicts.append(got)
        assert any(verdicts)


class TestSquaresPastTheFloatRange:
    # a distance of about 1e160 squares past the largest double; the verifiers
    # square norms in units of a power of two instead
    @staticmethod
    def tripling(dim, top):
        # x -> 3x on the cone, or on the orthant interval [0, top], which it
        # does not map into itself, so the spec is built without the check
        cone = ConeSpec(kind="orthant", dim=dim)
        if top is None:
            return MappingSpec(AffineMap(3.0 * np.eye(dim), np.zeros(dim)), Domain(kind="cone", cone=cone))
        domain = Domain(kind="interval", cone=cone, lo=np.zeros(dim), hi=np.full(dim, top))
        return MappingSpec(AffineMap(3.0 * np.eye(dim), np.zeros(dim)), domain)

    def test_alpha_violations_reported(self):
        for top in (None, 1e160):
            spec = self.tripling(1, top)
            rep = is_alpha_nonexpansive(spec, P1, 0.0, SamplerConfig(20, seed=0))
            assert rep.samples == 20 and len(rep.violations) == 20
        # past the float range the sides are reported finite, in units of scale**2
        v = rep.violations[0]
        assert math.isfinite(v.lhs) and math.isfinite(v.rhs) and v.lhs / v.rhs == pytest.approx(9.0)
        assert v.scale > 2.0**500 and v.describe().endswith(f" scale={v.scale!r}")

    def test_hilbert_counts_do_not_depend_on_scale(self):
        counts = [
            {name: len(r.violations) for name, r in
             classify_hilbert_classes(self.tripling(2, top), P2, SamplerConfig(200, seed=3)).items()}
            for top in (None, 1e160)
        ]
        assert counts[0] == counts[1]
        assert 0 < sum(counts[0].values())

    def test_scale_is_a_power_of_two_from_2_to_the_500(self):
        norms = np.array([[1.0, 2.0**499, 2.0**500, 3e300, 1.7e308, np.inf], [0.5, 1.0, 1.0, 1.0, 1.0, 2.0]])
        assert _square_scale(norms).tolist() == [1.0, 1.0, 2.0**500, 2.0**998, 2.0**1023, 1.0]


class TestHilbertClasses:
    def test_identity_passes_all(self):
        reports = classify_hilbert_classes(corpus.identity_map(2), P2, SamplerConfig(200, seed=12))
        assert all(r.passed for r in reports.values())
        assert set(reports) == {"nonspreading", "hybrid", "tj"}

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


class TestFixedPointOracle:
    def test_residual_in_the_norm_of_the_space(self):
        # a node below the corner 1 moves by 6.5e-9 per coordinate: residual
        # 9.2e-9 in l2, but 1.03e-8 > FIXED_POINT_TOL in l1.5
        op = CompositionMap([TranslationMap(np.full(2, 6.5e-9)), BoxProjectionMap(np.zeros(2), np.ones(2))])
        spec = MappingSpec(op, box2(0.0, 1.0))
        grid = GridSearchConfig(lo=np.zeros(2), hi=np.ones(2), points_per_axis=5)
        assert len(fixed_point_oracle(spec, P2, grid)) == 25
        kept = fixed_point_oracle(spec, SpaceSpec(dim=2, p=1.5), grid)
        assert len(kept) == 9 and all(z.max() == 1.0 for z in kept)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fixed_point_oracle(spec, SpaceSpec(dim=3, p=2.0), grid)

    def test_translation_has_none(self):
        assert fixed_point_oracle(corpus.unit_translation(2), P2) == []

    def test_affine_contraction_solved_exactly(self):
        pts = fixed_point_oracle(corpus.affine_contraction(2), P2)
        assert len(pts) == 1
        assert np.allclose(pts[0], [2.0, 2.0], atol=1e-12)

    def test_identity_zero_shift(self):
        spec = corpus.identity_map(2)
        pts = fixed_point_oracle(spec, P2)
        assert len(pts) == 1 and np.allclose(pts[0], 0.0)

    def test_truncation_grid_points_below_cap(self):
        spec = corpus.truncation_cap(2, cap=1.5)
        cfg = GridSearchConfig(lo=np.zeros(2), hi=np.full(2, 3.0), points_per_axis=7)
        pts = fixed_point_oracle(spec, P2, cfg)
        lattice = np.linspace(0.0, 3.0, 7)
        expected = sum(1 for a, b in itertools.product(lattice, lattice) if a <= 1.5 and b <= 1.5)
        assert len(pts) == expected
        assert all(np.all(z <= 1.5 + 1e-12) for z in pts)

    def test_grid_map_fixed_points(self):
        # every node maps to 0 or to 1.5, so 0 is the only fixed lattice point
        pts = fixed_point_oracle(corpus.steep_step_map(), P1)
        assert [float(z[0]) for z in pts] == [0.0]

    def test_unbounded_region_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            GridSearchConfig(lo=np.zeros(2), hi=np.array([np.inf, 1.0]))
        # with no region to scan, no route decides a map that is not affine
        assert fixed_point_oracle(corpus.box_clamp(2), P2, None) is None

    def test_composition_of_translations_folds_to_affine(self):
        op = CompositionMap(stages=[TranslationMap(np.ones(2)), TranslationMap(-np.ones(2))])
        matrix, offset = as_affine(op)
        assert np.allclose(matrix, np.eye(2)) and np.allclose(offset, 0.0)
        assert as_affine(corpus.box_drift_down(2).op) is None

    @pytest.mark.parametrize("grid_dim", [1, 3])
    def test_grid_of_another_dimension_rejected(self, grid_dim):
        # a 3-D grid would be cut to the map's two axes, and a 1-D one has too few
        grid = GridSearchConfig(lo=np.zeros(grid_dim), hi=np.ones(grid_dim), points_per_axis=3)
        with pytest.raises(ValueError, match=f"a {grid_dim}-D fixed-point search grid cannot scan a 2-D map"):
            fixed_point_oracle(corpus.box_clamp(2), P2, grid)

    def test_grid_of_the_map_dimension_scans_every_node(self):
        grid = GridSearchConfig(lo=np.zeros(2), hi=np.full(2, 2.0), points_per_axis=3)
        # the box [0, 1]^2 holds the nodes 0 and 1 of each axis
        assert len(fixed_point_oracle(corpus.box_clamp(2), P2, grid)) == 4


def reference_random_nonneg_affine(dim, rho, rng):
    """corpus.random_nonneg_affine before it skipped the eigenvalue test
    below the cap, kept verbatim: every draw is tested."""
    for _ in range(corpus.MATRIX_DRAWS):
        m = rng.uniform(0.0, 1.0, size=(dim, dim))
        sigma = float(np.linalg.norm(m, 2))
        if sigma <= 0.0:
            continue
        a = rho * m / sigma
        if float(np.max(np.abs(np.linalg.eigvals(a)))) <= corpus.SPECTRAL_CAP:
            b = rng.uniform(0.0, 1.0, size=dim)
            return MappingSpec(AffineMap(matrix=a, offset=b), Domain(kind="cone", cone=ConeSpec("orthant", dim)))
    raise RuntimeError(f"could not draw a spectral-radius-capped map at rho={rho}")


class TestRandomNonnegAffine:
    @pytest.mark.parametrize("rho", [0.5, 0.8, 0.95, 0.995, 1.0])
    def test_same_draws_as_testing_every_eigenvalue(self, rho):
        for seed in range(50):
            dim = 2 + seed % 19
            got, want = (draw(dim, rho, np.random.default_rng(seed))
                         for draw in (corpus.random_nonneg_affine, reference_random_nonneg_affine))
            assert got.op.matrix.tobytes() == want.op.matrix.tobytes()
            assert got.op.offset.tobytes() == want.op.offset.tobytes()

    def test_eigenvalues_are_skipped_only_below_the_cap(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        corpus.random_nonneg_affine(5, corpus.SPECTRAL_CAP - 2e-9, np.random.default_rng(0))
        assert calls == []
        corpus.random_nonneg_affine(5, corpus.SPECTRAL_CAP, np.random.default_rng(0))
        assert len(calls) >= 1


def frozen_random_nonneg_affine(dim, rho, rng):
    """corpus.random_nonneg_affine as it drew one map at a time, kept verbatim."""
    for _ in range(corpus.MATRIX_DRAWS):
        m = rng.uniform(0.0, 1.0, size=(dim, dim))
        sigma = float(np.linalg.norm(m, 2))
        if sigma <= 0.0:
            continue
        a = rho * m / sigma
        if rho <= corpus.SPECTRAL_CAP - 1e-9 or float(np.max(np.abs(np.linalg.eigvals(a)))) <= corpus.SPECTRAL_CAP:
            b = rng.uniform(0.0, 1.0, size=dim)
            return MappingSpec(AffineMap(matrix=a, offset=b), Domain(kind="cone", cone=ConeSpec("orthant", dim)))
    raise RuntimeError(f"could not draw a spectral-radius-capped map at rho={rho}")


def draw_outcome(spec_or_error):
    if isinstance(spec_or_error, Exception):
        return type(spec_or_error), str(spec_or_error)
    return spec_or_error.op.matrix.tobytes(), spec_or_error.op.offset.tobytes()


class TestStackedDraws:
    """A cell's maps drawn as one stack are the maps each trial draws alone."""

    RHOS = [0.5, 0.8, 0.95, 0.995, 1.0]

    @staticmethod
    def stacked(dim, rhos, seeds):
        """The maps of one stacked draw, or the type and text of its error."""
        try:
            return [draw_outcome(out) for out in
                    corpus.random_nonneg_affine(dim, rhos, [np.random.default_rng(k) for k in seeds])]
        except Exception as exc:
            return draw_outcome(exc)

    @staticmethod
    def alone(dim, rho, seed):
        try:
            return draw_outcome(frozen_random_nonneg_affine(dim, rho, np.random.default_rng(seed)))
        except Exception as exc:
            return draw_outcome(exc)

    @pytest.mark.parametrize("dim", [1, 2, 5, 20])
    @pytest.mark.parametrize("n", [1, 3, 33])
    def test_stacked_draws_are_the_draws_one_by_one(self, dim, n):
        # a stack with a trial that draws no map raises that trial's error,
        # and the stack of the other trials draws their maps
        for seed in range(50):
            rhos = [self.RHOS[(seed + k) % 5] for k in range(n)]
            seeds = [100 * seed + k for k in range(n)]
            want = [self.alone(dim, rho, k) for rho, k in zip(rhos, seeds)]
            drawn = [k for k, out in enumerate(want) if out[0] is not RuntimeError]
            if drawn:
                assert self.stacked(dim, [rhos[k] for k in drawn], [seeds[k] for k in drawn]) == [want[k] for k in drawn]
            if len(drawn) < n:
                assert self.stacked(dim, rhos, seeds) == next(out for out in want if out[0] is RuntimeError)
            else:
                assert self.stacked(dim, rhos, seeds) == want

    def test_generators_are_left_as_one_by_one(self):
        rhos = self.RHOS * 3
        rngs = [np.random.default_rng(k) for k in range(len(rhos))]
        corpus.random_nonneg_affine(5, rhos, rngs)
        for k, (rho, rng) in enumerate(zip(rhos, rngs)):
            alone = np.random.default_rng(k)
            frozen_random_nonneg_affine(5, rho, alone)
            assert rng.random() == alone.random()

    def test_a_map_that_cannot_be_drawn_is_the_error_of_its_trial(self):
        rhos = [0.5, 2.0, 0.8, 3.0]
        assert self.stacked(4, rhos, range(4)) == (RuntimeError, "could not draw a spectral-radius-capped map at rho=2.0")
        assert self.stacked(4, rhos[::2], [0, 2]) == [self.alone(4, rhos[k], k) for k in (0, 2)]
        with pytest.raises(RuntimeError, match="rho=2.0"):
            corpus.random_nonneg_affine(4, 2.0, np.random.default_rng(1))

    def test_an_escaping_draw_is_the_error_of_its_trial(self):
        # a negative rho is the one rho that would draw a map out of the cone:
        # alone or anywhere in a list, it is named before any generator is used
        for rhos in ([-0.5], [-0.5, 0.5, 0.8], [0.5, -0.5, 0.8], [0.5, 0.8, -0.5], [0.5, -0.5, 2.0, -1.0]):
            rngs = [np.random.default_rng(k) for k in range(len(rhos))]
            with pytest.raises(ValueError, match=r"^rho must be >= 0, got -0\.5$"):
                corpus.random_nonneg_affine(2, rhos, rngs)
            assert [rng.random() for rng in rngs] == [np.random.default_rng(k).random() for k in range(len(rhos))]
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match=r"^rho must be >= 0, got -0\.5$"):
            corpus.random_nonneg_affine(2, -0.5, rng)
        assert rng.random() == np.random.default_rng(1).random()

    def test_an_empty_stack_draws_no_map(self):
        assert corpus.random_nonneg_affine(3, [], []) == []


class TestStackedAffineOracle:
    """The affine route of a stack of maps gives each map the fixed points,
    None or error that fixed_point_oracle gives it alone, with no grid."""

    def specs(self):
        cone = Domain(kind="cone", cone=ConeSpec("orthant", 3))
        rngs = [np.random.default_rng(k) for k in range(4)]
        drawn = corpus.random_nonneg_affine(3, [0.5, 0.8, 0.95, 0.995], rngs)
        ops = [
            AffineMap(np.eye(3), np.zeros(3)),  # identity: the minimum-norm solution 0
            TranslationMap(np.array([0.5, 1.0, 1.5])),  # inconsistent: no fixed point
            AffineMap(np.diag([1.0, 0.5, 0.0]), np.array([0.0, 1.0, 1.0])),  # singular, consistent
            AffineMap(np.diag([1.0, 0.5, 0.0]), np.array([1.0, 1.0, 1.0])),  # singular, inconsistent
            AffineMap(np.diag([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])),  # solutions off the min-norm one
            AffineMap(0.5 * np.eye(3), np.array([-1.0, 1.0, 1.0])),  # contraction, fixed point off the cone
            CompositionMap([TranslationMap(np.ones(3)), AffineMap(0.25 * np.eye(3), np.zeros(3))]),
        ]
        return drawn + [MappingSpec(op, cone) for op in ops]

    def test_each_map_as_alone(self):
        specs = self.specs()
        got = _affine_fixed_points(specs)
        for spec, out in zip(specs, got):
            want = _affine_fixed_points([spec])[0]
            if want is None:
                assert out is None and fixed_point_oracle(spec, SpaceSpec(3, 2.0)) is None
                continue
            assert [z.tobytes() for z in out] == [z.tobytes() for z in want]
            alone = fixed_point_oracle(spec, SpaceSpec(3, 2.0))
            assert [z.tobytes() for z in out] == [z.tobytes() for z in alone]
        nonempty = [None if out is None else len(out) > 0 for out in got]
        assert nonempty == [True] * 4 + [True, False, True, False, None, False, True]

    def test_a_non_finite_solution_is_the_error_of_its_map(self):
        cone = Domain(kind="cone", cone=ConeSpec("orthant", 2))
        specs = [MappingSpec(AffineMap(0.5 * np.eye(2), np.ones(2)), cone),
                 MappingSpec(AffineMap(0.5 * np.eye(2), np.array([1e308, 1e308])), cone)]
        assert _affine_fixed_points(specs[:1])[0][0].tolist() == [2.0, 2.0]
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as alone:
                fixed_point_oracle(specs[1], P2)
            with pytest.raises(ValueError) as batch:
                _affine_fixed_points(specs)
        assert (type(batch.value), str(batch.value)) == (type(alone.value), str(alone.value))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_matrix_raises_the_eigvals_error(self, bad):
        # the bound leaves a matrix with an inf or nan open, and eigvals refuses
        # it, alone or anywhere in a stack, as when it saw every matrix
        cone = Domain(kind="cone", cone=ConeSpec("orthant", 2))
        contraction = MappingSpec(AffineMap(0.5 * np.eye(2), np.ones(2)), cone)
        broken = MappingSpec(AffineMap(np.array([[0.5, bad], [0.0, 0.5]]), np.ones(2)), cone)
        for specs in ([broken], [contraction, broken], [broken, contraction]):
            for route in (reference_affine_fixed_points, _affine_fixed_points):
                with pytest.raises(np.linalg.LinAlgError, match=r"^Array must not contain infs or NaNs$"):
                    route(specs)


def reference_affine_fixed_points(specs):
    """The affine route with one stacked eigvals over every matrix, as it
    was before the spectral certificate."""
    matrix, offset = (np.array(v) for v in zip(*(as_affine(s.op) for s in specs)))
    system = np.eye(offset.shape[-1]) - matrix
    below = np.abs(np.linalg.eigvals(matrix)).max(axis=-1) < 1.0 - 1e-9
    z = np.full(offset.shape, np.nan)
    z[below] = np.linalg.solve(system[below], offset[below, :, None])[..., 0]
    out = []
    for s, solved, m, b, zi in zip(specs, below, system, offset, z):
        if not solved:
            zi, *_ = np.linalg.lstsq(m, b, rcond=None)
            if float(np.linalg.norm(m @ zi - b)) > FIXED_POINT_TOL * (1.0 + float(np.linalg.norm(b))):
                out.append([])
                continue
        out.append([zi] if domain_contains(s.domain, zi, tol=1e-9) else [] if solved else None)
    return out


CUT = 1.0 - 1e-9  # the spectral radius below which the affine route solves
MATRIX_KINDS = ["signed", "nonneg", "zero", "zero_rows", "nilpotent", "permutation", "identity"]


@st.composite
def radius_stacks(draw):
    """A stack of 1-4 square matrices of one size d in 1-20, each of a kind
    the certificate meets, scaled toward a spectral radius around the cut."""
    d = draw(st.integers(1, 20))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(MATRIX_KINDS))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        target = draw(st.sampled_from([0.0, 0.5, 0.9, 0.995, CUT - 1e-12, CUT + 1e-12, 1.0, 2.0, 1e300]))
        if kind in ("signed", "nonneg", "zero_rows"):
            m = rng.normal(size=(d, d)) if kind == "signed" else rng.uniform(0.0, 1.0, size=(d, d))
            m[rng.random(d) < (0.5 if kind == "zero_rows" else 0.0)] = 0.0
            rho = np.abs(np.linalg.eigvals(m)).max()
            m = m * (target / rho) if rho > 0.0 else m
        elif kind == "nilpotent":  # strictly upper triangular: radius 0, and |M| is nilpotent too
            m = np.triu(rng.normal(size=(d, d)), 1) * max(target, 1.0)
        elif kind == "permutation":
            m = target * np.eye(d)[rng.permutation(d)]
        else:
            m = np.eye(d) * (1.0 if kind == "identity" else 0.0)
        stack.append(m)
    return np.array(stack)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(radius_stacks(), st.integers(0, 2**32 - 1))
def test_a_certified_radius_is_below_the_cut_by_eigvals(matrix, seed):
    bound = _radius_bounds(matrix, CUT)
    radius = np.abs(np.linalg.eigvals(matrix)).max(axis=-1)
    assert (bound >= radius).all()
    assert (radius[bound < CUT] < CUT).all()
    # alone or in a stack, a matrix gets the same bound
    assert [_radius_bounds(m[None], CUT)[0] for m in matrix] == bound.tolist()
    # and the affine route decides, solves and tests as with eigvals alone
    d = matrix.shape[-1]
    offset = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(len(matrix), d))
    cone = Domain(kind="cone", cone=ConeSpec("orthant", d))
    specs = [MappingSpec(AffineMap(m, b), cone) for m, b in zip(matrix, offset)]

    def points(result):  # each spec's points as bytes, or the error raised
        if result[0] == "raised":
            return result
        return [None if out is None else [z.tobytes() for z in out] for out in result[1]]

    assert points(outcome(_affine_fixed_points, specs)) == points(outcome(reference_affine_fixed_points, specs))


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

    @pytest.mark.parametrize("key", ["offset", "variant", "domain", "kind", "dim"])
    def test_missing_key_named(self, key):
        # a bare KeyError named no file field; the key may sit at any depth
        d = mapping_to_dict(corpus.affine_contraction(2))
        holder = {"kind": d["domain"], "dim": d["domain"]["cone"]}.get(key, d)
        del holder[key]
        with pytest.raises(ValueError) as got:
            mapping_from_dict(d)
        assert str(got.value) == f"mapping needs the key {key!r}"


# ---------------------------------------------------------------------------
# reference oracles: the pair-by-pair draws and verifiers, kept verbatim so
# the row-wise core can be held to the same draws, verdicts and witnesses


def reference_lattice_points(op):
    for idx in itertools.product(*(range(n) for n in op.lattice_shape)):
        yield op.origin + op.step * np.asarray(idx, dtype=float)


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
        d = _cone_rows(cone, rng, 1, scale * 0.5 ** (attempt % 8))[0]
        y = x + d
        if domain_contains(domain, y):
            return x, y
    raise RuntimeError("could not sample a comparable pair inside the domain")


def _ref_slack(rhs, s=1.0):
    return INEQ_ATOL / s / s + INEQ_RTOL * abs(rhs)


def _ref_cone_margin(cone, v):
    if cone.kind == "orthant":
        return float(np.min(v))
    return float(v[-1] - np.linalg.norm(v[:-1]))


def reference_is_monotone(spec, cone, cfg=None):
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    report = PropertyReport(name="monotone", samples=cfg.n_samples)
    for _ in range(cfg.n_samples):
        x, y = reference_sample_comparable_pair(spec, rng)
        margin = _ref_cone_margin(cone, spec.op.evaluate(y) - spec.op.evaluate(x))
        if margin < -MEMBERSHIP_TOL:
            report.violations.append(Violation(x=x, y=y, lhs=-margin, rhs=MEMBERSHIP_TOL))
    return report


def reference_is_monotone_nonexpansive(spec, cone, space, cfg=None):
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    report = PropertyReport(name="monotone_nonexpansive", samples=cfg.n_samples)
    for _ in range(cfg.n_samples):
        x, y = reference_sample_comparable_pair(spec, rng)
        tx, ty = spec.op.evaluate(x), spec.op.evaluate(y)
        margin = _ref_cone_margin(cone, ty - tx)
        if margin < -MEMBERSHIP_TOL:
            report.violations.append(Violation(x=x, y=y, lhs=-margin, rhs=MEMBERSHIP_TOL))
            continue
        lhs, rhs = norm(space, tx - ty), norm(space, x - y)
        if lhs > rhs + _ref_slack(rhs):
            report.violations.append(Violation(x=x, y=y, lhs=lhs, rhs=rhs))
    return report


def _ref_squares(space, *vectors):
    """The squared norms of one pair's vectors in units of s^2, and s: a
    power of two, 2^e for the binary exponent e of the largest finite norm,
    or 1 while that norm is below 2^500. A norm is squared as n * n, as the
    batched verifiers do (inf past the largest double, not Python's
    OverflowError)."""
    norms = [norm(space, v) for v in vectors]
    big = max((n for n in norms if n < math.inf), default=0.0)
    s = 1.0 if big < 2.0**500 else 2.0 ** (math.frexp(big)[1] - 1)
    return [(n / s) * (n / s) for n in norms], s


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
            for a, b in itertools.combinations_with_replacement(list(reference_lattice_points(spec.op)), 2)
            if comparable(cone, a, b)
        ]
        pairs = [(a, b) if leq(cone, a, b) else (b, a) for a, b in pairs]
    else:
        rng = np.random.default_rng(cfg.seed)
        pairs = [
            reference_sample_comparable_pair(spec, rng)
            for _ in range(cfg.n_samples)
        ]
    report.samples = len(pairs)
    for x, y in pairs:
        tx, ty = spec.op.evaluate(x), spec.op.evaluate(y)
        margin = _ref_cone_margin(cone, ty - tx)
        if margin < -MEMBERSHIP_TOL:
            report.violations.append(Violation(x=x, y=y, lhs=-margin, rhs=MEMBERSHIP_TOL))
            continue
        (lhs, cross_xy, cross_yx, arg), s = _ref_squares(space, tx - ty, tx - y, ty - x, x - y)
        rhs = alpha * cross_xy + alpha * cross_yx + (1.0 - 2.0 * alpha) * arg
        if lhs > rhs + _ref_slack(rhs, s):
            report.violations.append(Violation(x=x, y=y, lhs=lhs, rhs=rhs, scale=s))
    return report


def reference_classify_hilbert_classes(spec, space, cfg=None):
    if space.p != 2.0:
        raise ValueError(f"hilbert-class checks need p=2, got p={space.p}")
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    names = ["nonspreading", "hybrid", "tj"]
    reports = {n: PropertyReport(name=n, samples=cfg.n_samples) for n in names}
    for _ in range(cfg.n_samples):
        x = sample_domain_point(spec, rng)
        y = sample_domain_point(spec, rng)
        tx, ty = as_vector(spec.op.evaluate(x)), as_vector(spec.op.evaluate(y))
        # polarization: <u, v> = (||u + v||^2 - ||u - v||^2) / 4
        u, v = x - tx, y - ty
        vectors = [tx - ty, x - y, tx - y, ty - x, u + v, u - v]
        if not all(np.isfinite(w).all() for w in vectors):
            raise ValueError(f"a row formed from x={x}, y={y} and their finite images {tx}, {ty} overflows")
        sq, s = _ref_squares(space, *vectors)
        d_im2, d2, cross_xy, cross_yx = sq[:4]

        rhs = cross_xy + cross_yx
        if 2.0 * d_im2 > rhs + _ref_slack(rhs, s):
            reports["nonspreading"].violations.append(Violation(x, y, 2.0 * d_im2, rhs, s))
        rhs = d2 + 0.25 * (sq[4] - sq[5])
        if d_im2 > rhs + _ref_slack(rhs, s):
            reports["hybrid"].violations.append(Violation(x, y, d_im2, rhs, s))
        rhs = d2 + cross_xy
        if 2.0 * d_im2 > rhs + _ref_slack(rhs, s):
            reports["tj"].violations.append(Violation(x, y, 2.0 * d_im2, rhs, s))
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
        assert got.scale == want.scale
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


def check_pair_verifiers(spec, space, alpha, cfg, exhaustive=False):
    """All three comparable-pair verifiers agree with their references under
    the map's domain cone; returns whether the alpha check passed."""
    cone = spec.domain.cone
    for fn, ref, args in (
        (is_monotone, reference_is_monotone, (cfg,)),
        (is_monotone_nonexpansive, reference_is_monotone_nonexpansive, (space, cfg)),
        (is_alpha_nonexpansive, reference_is_alpha_nonexpansive, (space, alpha, cfg)),
    ):
        assert same_outcome(outcome(fn, spec, *args), outcome(ref, spec, cone, *args))
    rep = is_alpha_nonexpansive(spec, space, alpha, cfg, exhaustive=exhaustive)
    assert_same_report(rep, reference_is_alpha_nonexpansive(spec, cone, space, alpha, cfg, exhaustive))
    return rep.passed


LOR3 = ConeSpec(kind="lorentz", dim=3)


def lorentz_rotation_map():
    """Self-map of the Lorentz cone in R^3: rotate the head, shrink it faster
    than the axis."""
    c, s = np.cos(0.7), np.sin(0.7)
    matrix = np.array([[0.5 * c, -0.5 * s, 0.0], [0.5 * s, 0.5 * c, 0.0], [0.0, 0.0, 0.9]])
    return MappingSpec(AffineMap(matrix, np.array([0.0, 0.0, 1.0])), Domain(kind="cone", cone=LOR3))


def lorentz_interval_map():
    """x -> x/2 + hi/4 on the Lorentz order interval [0, hi]."""
    hi = np.array([0.0, 0.0, 8.0])
    domain = Domain(kind="interval", cone=LOR3, lo=np.zeros(3), hi=hi)
    return MappingSpec(AffineMap(0.5 * np.eye(3), hi / 4.0), domain)


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
        spec = entry.spec
        cfg = SamplerConfig(n_samples=300, seed=seed)
        exhaustive = isinstance(spec.op, GridMap)
        check_pair_verifiers(spec, entry.space, entry.alpha, cfg, exhaustive)

    def test_steep_step_lattice_fails_below_threshold(self):
        spec, space = corpus.steep_step_map(), SpaceSpec(dim=1, p=2.0)
        for alpha in (0.0, 0.2):
            for exhaustive in (False, True):
                cfg = SamplerConfig(n_samples=300, seed=1)
                passed = check_pair_verifiers(spec, space, alpha, cfg, exhaustive)
                assert not passed

    @pytest.mark.parametrize("dim", [2, 5, 20])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_random_nonneg_affine(self, dim, p):
        spec = corpus.random_nonneg_affine(dim, 0.95, np.random.default_rng(dim))
        space = SpaceSpec(dim=dim, p=p)
        cfg = SamplerConfig(n_samples=200, seed=dim)
        passed = {
            alpha: check_pair_verifiers(spec, space, alpha, cfg)
            for alpha in (-0.5, 0.0, 1.0 / 3.0, 0.9)
        }
        assert passed[0.0] and passed[1.0 / 3.0] and not passed[-0.5]
        # an expansive copy of the map fails nonexpansiveness too
        expansive = MappingSpec(AffineMap(1.5 * spec.op.matrix, spec.op.offset), spec.domain)
        assert not check_pair_verifiers(expansive, space, 0.0, cfg)

    def test_non_monotone_box_map(self):
        # order violations are recorded first and skip the norm test
        cfg = SamplerConfig(n_samples=300, seed=2)
        for p in (1.5, 2.0, 3.0):
            assert not check_pair_verifiers(shear_map(), SpaceSpec(dim=2, p=p), 0.0, cfg)

    @pytest.mark.parametrize("spec_fn", [lorentz_rotation_map, lorentz_interval_map])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_lorentz_maps(self, spec_fn, p):
        space = SpaceSpec(dim=3, p=p)
        for alpha in (0.0, 0.5):
            check_pair_verifiers(spec_fn(), space, alpha, SamplerConfig(n_samples=200, seed=3))

    @pytest.mark.parametrize("cone", [ORTH2, LOR2], ids=["orthant", "lorentz"])
    def test_lattice_pairs(self, cone):
        # under the Lorentz cone some lattice pairs come in (upper, lower)
        # order and are flipped, others are incomparable and dropped
        spec = grid2(cone.kind)
        for alpha in (0.0, 0.5):
            check_pair_verifiers(spec, P2, alpha, SamplerConfig(200, seed=6), exhaustive=True)
        # 100 of the 136 lattice pairs are comparable under the orthant, 90
        # under the Lorentz cone, 25 of which are flipped
        rep = is_alpha_nonexpansive(spec, P2, 0.0, exhaustive=True)
        assert rep.samples == (90 if cone is LOR2 else 100)

    def test_lattice_map_off_lattice_pairs_same_error(self):
        # a lattice map on a Lorentz cone domain samples off-lattice pairs
        spec = grid2("lorentz")
        cfg = SamplerConfig(n_samples=50, seed=2)
        got = outcome(is_alpha_nonexpansive, spec, P2, 0.0, cfg)
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
    def test_hilbert_classes(self, spec):
        space = SpaceSpec(dim=spec.dim, p=2.0)
        cfg = SamplerConfig(n_samples=200, seed=8)
        got = outcome(classify_hilbert_classes, spec, space, cfg)
        assert got[0] == "returned"
        assert same_outcome(got, outcome(reference_classify_hilbert_classes, spec, space, cfg))

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
                    (is_monotone, reference_is_monotone, (cfg,), (ORTH1, cfg)),
                    (is_monotone_nonexpansive, reference_is_monotone_nonexpansive, (P1, cfg), (ORTH1, P1, cfg)),
                    (is_alpha_nonexpansive, reference_is_alpha_nonexpansive, (P1, 0.0, cfg), (ORTH1, P1, 0.0, cfg)),
                    (classify_hilbert_classes, reference_classify_hilbert_classes, (P1, cfg), (P1, cfg)),
                )
                for fn, ref, args, ref_args in check:
                    got = outcome(fn, spec, *args)
                    assert same_outcome(got, outcome(ref, spec, *ref_args))
                    outcomes.add(got[:2] if got[0] == "raised" else (got[0], fn.__name__))
        assert ("raised", ValueError) in outcomes
        if n_samples == 300:
            assert outcomes == {("raised", ValueError), ("returned", "is_monotone")}

    def test_space_of_other_dimension_same_error(self):
        cfg = SamplerConfig(n_samples=20, seed=0)
        space = SpaceSpec(dim=3, p=2.0)
        spec = corpus.affine_contraction(2)
        for fn, ref, args in (
            (is_monotone_nonexpansive, reference_is_monotone_nonexpansive, (space, cfg)),
            (is_alpha_nonexpansive, reference_is_alpha_nonexpansive, (space, 0.0, cfg)),
        ):
            got = outcome(fn, spec, *args)
            assert got[0] == "raised" and got == outcome(ref, spec, ORTH2, *args)


@dataclass
class KinkMap:
    """x -> x / 2, plus ``jump`` in every coordinate at the one point with all
    coordinates ``at``: pairs of other points contract, one with it may not."""

    at: float
    jump: float
    dim: int = 2

    def evaluate(self, x):
        return x / 2.0 + self.jump * (x == self.at).all(axis=-1, keepdims=True)


@dataclass
class PoleMap:
    """x -> x / 2, but ``value`` in every coordinate where x[0] > ``cut``."""

    cut: float
    value: float
    dim: int = 2

    def evaluate(self, x):
        return np.where(x[..., :1] > self.cut, self.value, x / 2.0)


def plant_pairs(monkeypatch, x, y, drawn=True):
    """Have the sampled verifiers check the pairs (x[k], y[k]), after their
    own draws when ``drawn``."""
    draw = mapping.sample_comparable_pairs

    def pairs(spec, rng, n):
        px, py = np.array(x, dtype=float), np.array(y, dtype=float)
        if drawn:
            dx, dy = draw(spec, rng, n)
            px, py = np.vstack([dx, px]), np.vstack([dy, py])
        return px, py

    monkeypatch.setattr(mapping, "sample_comparable_pairs", pairs)


def report_bits(rep):
    return (rep.name, rep.samples, rep.alpha, rep.summary(), [
        (v.x.tobytes(), v.y.tobytes(), float.hex(v.lhs), float.hex(v.rhs), float.hex(v.scale))
        for v in rep.violations])


def settled(monkeypatch, fn, *args, **kwargs):
    """fn's report and the shapes of the power sums it roots; the report must
    be, bit for bit, the one that roots every pair (no pair passes from its
    power sums)."""
    shapes, roots = [], lp._roots
    with monkeypatch.context() as m:
        m.setattr(lp, "_roots", lambda space, sums, rows: shapes.append(sums.shape) or roots(space, sums, rows))
        got, rooted = fn(*args, **kwargs), list(shapes)
        m.setattr(lp, "_PASS_MARGIN", math.inf)
        assert report_bits(got) == report_bits(fn(*args, **kwargs))
    return got, rooted


class TestPairsFromPowerSums:
    """At p = 2 a pair passes from its power sums, and only the pairs they
    leave open are rooted; each report is the one of rooting all pairs."""

    CFG = SamplerConfig(n_samples=300, seed=6)

    @staticmethod
    def verifiers(space, alphas=(0.0, 1.0 / 3.0), cfg=CFG):
        yield is_monotone_nonexpansive, (space, cfg)
        for alpha in alphas:
            yield is_alpha_nonexpansive, (space, alpha, cfg)

    def test_a_contraction_roots_nothing(self, monkeypatch):
        for fn, args in self.verifiers(P2):
            rep, shapes = settled(monkeypatch, fn, corpus.affine_contraction(2), *args)
            assert rep.passed and shapes == []
        rep, shapes = settled(monkeypatch, order.is_norm_monotonic, ORTH2, P2, 300, 6)
        assert rep.passed and shapes == []

    def test_one_planted_violation_roots_its_pair_alone(self, monkeypatch):
        # the pair (0, (3, 3)) maps to (0, (11.5, 11.5)): lhs = ||(11.5, 11.5)||,
        # rhs = ||(3, 3)||, both squared at alpha = 0
        spec = MappingSpec(KinkMap(at=3.0, jump=10.0), Domain(kind="cone", cone=ORTH2))
        plant_pairs(monkeypatch, [[0.0, 0.0]], [[3.0, 3.0]])
        for fn, args, power, rows in ((is_monotone_nonexpansive, (P2, self.CFG), 1, 2),
                                      (is_alpha_nonexpansive, (P2, 0.0, self.CFG), 2, 4)):
            rep, shapes = settled(monkeypatch, fn, spec, *args)
            assert rep.samples == 301 and shapes == [(rows, 1)]
            (v,) = rep.violations
            assert np.array_equal(v.x, [0.0, 0.0]) and np.array_equal(v.y, [3.0, 3.0])
            assert (v.lhs, v.rhs, v.scale) == (norm(P2, [-11.5, -11.5]) ** power, norm(P2, [-3.0, -3.0]) ** power, 1.0)

    @pytest.mark.parametrize("spec", [corpus.identity_map(2), corpus.unit_translation(2)],
                             ids=["identity", "translation"])
    def test_an_isometry_passes_on_the_slack(self, spec, monkeypatch):
        # lhs equals rhs before the slack (for the identity to the bit, at any alpha)
        alphas = (-0.5, 0.0, 1.0 / 3.0) if isinstance(spec.op, AffineMap) else (0.0, 1.0 / 3.0)
        for fn, args in self.verifiers(P2, alphas):
            rep, shapes = settled(monkeypatch, fn, spec, *args)
            assert rep.passed and shapes == []

    def test_equal_points(self, monkeypatch):
        # x = y: the rows x - y and T x - T y are 0, and so are their power sums;
        # below alpha = 0 a pair fails unless x is fixed
        x = np.random.default_rng(2).uniform(0.0, 3.0, size=(20, 2))
        plant_pairs(monkeypatch, x, x.copy(), drawn=False)
        for spec, moved in ((corpus.affine_contraction(2), 20), (corpus.identity_map(2), 0),
                            (corpus.unit_translation(2), 20)):
            for fn, args in self.verifiers(P2, (-0.5, 0.0, 1.0 / 3.0), SamplerConfig(20)):
                rep, shapes = settled(monkeypatch, fn, spec, *args)
                assert rep.samples == 20
                if fn is is_monotone_nonexpansive or args[1] >= 0.0:
                    assert rep.passed and shapes == []
                else:
                    assert len(rep.violations) == moved

    @pytest.mark.parametrize("gain", [0.5, 3.0])
    def test_subnormal_differences(self, gain, monkeypatch):
        # coordinates of 1e-150 to 1e-165 square near or below _SUM_MIN, the smallest to 0
        rng = np.random.default_rng(3)
        size = 10.0 ** rng.uniform(-165.0, -150.0, size=(60, 1))
        x = size * rng.uniform(size=(60, 2))
        y = x + size * rng.uniform(size=(60, 2))
        sums = ((y - x) ** 2).sum(axis=1)
        assert (sums == 0.0).any() and ((0.0 < sums) & (sums < lp._SUM_MIN)).any() and (sums >= lp._SUM_MIN).any()
        plant_pairs(monkeypatch, x, y)
        spec = MappingSpec(AffineMap(gain * np.eye(2), np.zeros(2)), Domain(kind="cone", cone=ORTH2))
        for fn, args in self.verifiers(P2):
            rep, _ = settled(monkeypatch, fn, spec, *args)
            assert rep.passed == (gain < 1.0)  # the slack's 1e-9 passes every tiny pair

    @pytest.mark.parametrize("gain", [0.5, 3.0])
    def test_norms_past_2_to_the_500(self, gain, monkeypatch):
        rng = np.random.default_rng(4)
        x = 1e160 * rng.uniform(size=(40, 2))
        y = x + 1e160 * rng.uniform(size=(40, 2))
        plant_pairs(monkeypatch, x, y)
        spec = MappingSpec(AffineMap(gain * np.eye(2), np.zeros(2)), Domain(kind="cone", cone=ORTH2))
        for fn, args in self.verifiers(P2):
            rep, shapes = settled(monkeypatch, fn, spec, *args)
            assert rep.passed == (gain < 1.0) and shapes  # the planted pairs' sums are inf
            scales = [v.scale for v in rep.violations if v.y.max() > 1e150]
            assert bool(scales) == (gain > 1.0)  # at alpha = 1/3 not every tripled pair fails
            assert all((s >= 2.0**500) == (fn is is_alpha_nonexpansive) for s in scales)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 4.0 / 19.0, 1.0 / 3.0])
    def test_steep_step_pairs(self, alpha, monkeypatch):
        # 4/19 is the least alpha that fits: its pair meets the bound to rounding
        rep, _ = settled(monkeypatch, is_alpha_nonexpansive, corpus.steep_step_map(), P1, alpha, exhaustive=True)
        assert rep.samples == 28
        if alpha != 4.0 / 19.0:
            assert rep.passed == (alpha > 0.2)

    def test_a_huge_alpha_on_subnormal_sums(self, monkeypatch):
        # T = 0 on pairs whose squared norms are near 1e-316: their power sums
        # are subnormal, each a unit of 2^-1074 or so off the squared norm.
        # Near alpha = -1e306, where rhs = ||x - y||^2 + alpha (||x||^2 +
        # ||y||^2 - 2 ||x - y||^2) meets -slack, alpha makes that unit about
        # 5e-18, far past 1e-12 (mag + slack) were mag's floor of 2^-1000 a
        # term left out. Each pair is checked at alphas about the flip of its
        # rooted verdict, found by bisection.
        spec = MappingSpec(AffineMap(np.zeros((2, 2)), np.zeros(2)), Domain(kind="cone", cone=ORTH2))
        rng = np.random.default_rng(5)
        for _ in range(20):  # about half of them meet the cut where the two paths differ
            x = 2e-158 * rng.uniform(0.5, 1.0, size=(1, 2))
            plant_pairs(monkeypatch, x, x + 2e-158 * rng.uniform(0.0, 0.3, size=(1, 2)), drawn=False)
            lo, hi = -1.7e308, 0.0  # the pair fails at lo and passes at hi
            with monkeypatch.context() as m:
                m.setattr(lp, "_PASS_MARGIN", math.inf)
                while lo / 2.0 + hi / 2.0 not in (lo, hi):
                    mid = lo / 2.0 + hi / 2.0
                    lo, hi = (lo, mid) if is_alpha_nonexpansive(spec, P2, mid, SamplerConfig(1)).passed else (mid, hi)
            assert -1e307 < hi < -1e305
            for j in range(-8, 9):
                settled(monkeypatch, is_alpha_nonexpansive, spec, P2, hi * (1.0 + j * 1e-14), SamplerConfig(1))

    def test_a_pair_a_few_ulp_from_the_cut(self, monkeypatch):
        # x -> c x on the half-line. The planted pair (0, 1) has rhs 1 and
        # slack 2e-9, so its lhs, c (or the square of c), lies a few ulp from
        # t = 1 + 2e-9, the rounded rhs + slack; the drawn pairs, |x - y| < 1,
        # pass by about 1e-9 (1 - |x - y|)
        plant_pairs(monkeypatch, [[0.0]], [[1.0]])
        t = 1.0 + (INEQ_ATOL + INEQ_RTOL)
        cone = Domain(kind="cone", cone=ORTH1)
        for fn, args, root in ((is_monotone_nonexpansive, (P1, self.CFG), t),
                               (is_alpha_nonexpansive, (P1, 0.0, self.CFG), math.sqrt(t))):
            passed = []
            for k in range(-3, 4):
                c = root + k * math.ulp(root)
                rep, shapes = settled(monkeypatch, fn, MappingSpec(AffineMap(np.array([[c]]), np.zeros(1)), cone), *args)
                assert shapes and rep.samples == 301
                assert all(v.y[0] == 1.0 for v in rep.violations)  # only the planted pair may fail
                passed.append(rep.passed)
            assert passed == sorted(passed, reverse=True) and set(passed) == {True, False}
            if fn is is_monotone_nonexpansive:
                assert passed == [k <= 0 for k in range(-3, 4)]

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_non_finite_image_still_raises(self, value, monkeypatch):
        spec = MappingSpec(PoleMap(cut=0.9, value=value), Domain(kind="cone", cone=ORTH2))
        for fn, args in self.verifiers(P2, alphas=(0.0,)):
            for margin in (lp._PASS_MARGIN, math.inf):
                monkeypatch.setattr(lp, "_PASS_MARGIN", margin)
                with pytest.raises(ValueError, match=r"^vector has non-finite coordinates$"):
                    with np.errstate(invalid="ignore"):  # a pair of two poles subtracts inf from inf
                        fn(spec, *args)


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
        # pairs are drawn at scale 1; a domain point drawn at ``scale`` first
        # leaves both streams in step
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        assert np.array_equal(sample_domain_point(spec, rng, scale), reference_sample_domain_point(spec, ref_rng, scale))
        x, y = sample_comparable_pairs(spec, rng, 40)
        assert x.shape == y.shape == (40, spec.dim)
        for k in range(40):
            rx, ry = reference_sample_comparable_pair(spec, ref_rng)
            assert np.array_equal(x[k], rx) and np.array_equal(y[k], ry)
        assert rng.uniform() == ref_rng.uniform()
        # one pair alone is the reference's first pair
        one = [rows[0] for rows in sample_comparable_pairs(spec, np.random.default_rng(12), 1)]
        ref = reference_sample_comparable_pair(spec, np.random.default_rng(12))
        assert all(np.array_equal(a, b) and a.shape == (spec.dim,) for a, b in zip(one, ref))

    def test_no_pairs(self):
        for spec in (corpus.affine_contraction(2), corpus.steep_step_map(), lorentz_rotation_map()):
            x, y = sample_comparable_pairs(spec, np.random.default_rng(0), 0)
            assert x.shape == y.shape == (0, spec.dim)
        # a verifier over no pairs passed every class, so its config refuses them
        with pytest.raises(ValueError, match=r"^n_samples must be >= 1, got 0$"):
            SamplerConfig(n_samples=0)


def reference_fixed_point_oracle(spec, grid_cfg=None, residual_tol=FIXED_POINT_TOL):
    """The candidate-by-candidate search, with its refinement loop."""
    found = []
    affine_view = as_affine(spec.op)
    if affine_view is not None:
        direct = _affine_fixed_points([spec])[0]
        if direct is not None:
            return direct
    if isinstance(spec.op, GridMap):
        candidates = [x for x in reference_lattice_points(spec.op) if domain_contains(spec.domain, x)]
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


def lattice_doubling_map():
    """Lattice map on {0, ..., 4}: k -> min(2k, 4); fixed at 0 and 4, expanding near 0."""
    values = np.minimum(2.0 * np.arange(5.0), 4.0)[:, None]
    op = GridMap(origin=np.zeros(1), step=1.0, values=values)
    return MappingSpec(op, Domain(kind="box", cone=ORTH1, lo=np.zeros(1), hi=np.full(1, 4.0)))


def lattice_identity_map():
    """Identity table on a 4 x 5 lattice: every node is fixed."""
    nodes = np.stack(np.meshgrid(np.arange(4.0), np.arange(5.0), indexing="ij"), axis=-1) * 0.5
    return MappingSpec(GridMap(origin=np.zeros(2), step=0.5, values=nodes), Domain(kind="cone", cone=ORTH2))


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
            # no node of the grid lies in the domain
            (corpus.truncation_cap(2), search_grid(-2.0, -1.0, 3)),
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
        got = fixed_point_oracle(spec, SpaceSpec(spec.dim, 2.0), grid_cfg)
        want = reference_fixed_point_oracle(spec, grid_cfg)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) and a.shape == b.shape for a, b in zip(got, want))

    def test_an_axis_with_lo_equal_to_hi_reports_each_fixed_node_once(self):
        # the repeated axis value is one node, as the former pairwise merge made it
        grid = GridSearchConfig(lo=np.array([0.0, 0.5]), hi=np.array([1.0, 0.5]), points_per_axis=3)
        found = fixed_point_oracle(corpus.box_clamp(2), P2, grid)
        assert [z.tolist() for z in found] == [[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]]


# every drawn axis spacing is 0 or at least 1/8, far above the 1e-8 below which
# the oracle reports near-coincident fixed nodes that the reference merges
COARSE = [-0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0]


@st.composite
def search_grids(draw, dim):
    lo = np.array(draw(st.lists(st.sampled_from(COARSE), min_size=dim, max_size=dim)))
    hi = np.array([v if draw(st.booleans()) else draw(st.sampled_from(COARSE)) for v in lo])  # lo == hi often
    return GridSearchConfig(lo=lo, hi=hi, points_per_axis=draw(st.integers(1, 5)))


@st.composite
def oracle_cases(draw):
    """(spec, grid, space): a lattice table whose values lie on its own
    lattice, a truncation or box map with a search grid, or an affine map
    (with a grid for the degenerate systems the linear route leaves)."""
    dim, kind = draw(st.integers(1, 2)), draw(st.sampled_from(["grid", "truncation", "box", "affine"]))
    space = SpaceSpec(dim, draw(st.sampled_from([1.5, 2.0, 3.0])))
    if kind == "grid":
        shape = tuple(draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)))
        origin, step = np.full(dim, draw(st.sampled_from([0.0, 0.5]))), draw(st.sampled_from([0.25, 0.5, 1.0]))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        nodes = origin + step * np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"), axis=-1)
        moved = origin + step * np.stack([rng.integers(0, n, size=shape) for n in shape], axis=-1)
        values = np.where(rng.random(shape + (1,)) < draw(st.sampled_from([0.0, 0.5, 1.0])), nodes, moved)
        domain = Domain(kind="box", cone=ConeSpec("orthant", dim), lo=origin, hi=origin + step * (np.array(shape) - 1))
        return MappingSpec(GridMap(origin=origin, step=step, values=values), domain), None, space
    level = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    if kind == "truncation":
        spec = corpus.truncation_cap(dim, level)
    elif kind == "box":
        spec = corpus.box_clamp(dim, level)
    else:
        entries = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=dim * dim, max_size=dim * dim)
        offset = np.array(draw(st.lists(st.sampled_from([-0.5, 0.0, 0.5, 1.0]), min_size=dim, max_size=dim)))
        spec = MappingSpec(AffineMap(np.array(draw(entries)).reshape(dim, dim), offset),
                           Domain(kind="cone", cone=ConeSpec("orthant", dim)))
    return spec, draw(search_grids(dim)), space


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
def test_oracle_points_are_distinct_fixed_points_of_the_domain(case):
    spec, grid_cfg, space = case
    found = fixed_point_oracle(spec, space, grid_cfg)
    for z in found:
        assert domain_contains(spec.domain, z, tol=1e-9)  # the linear route's acceptance
        assert norm(space, spec.op.evaluate(z) - z) <= FIXED_POINT_TOL
    assert len({tuple(z.tolist()) for z in found}) == len(found)
    if space.p == 2.0:  # the reference's residual is the l2 norm
        want = reference_fixed_point_oracle(spec, grid_cfg)
        assert [(z.shape, z.tobytes()) for z in found] == [(z.shape, z.tobytes()) for z in want]


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
        d = _cone_rows(cone, rng, 1, scale * 0.5 ** (attempt % 8))[0]
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
            x, y = sample_comparable_pairs(spec, rng, n)
            rx, ry = reference_sample_comparable_pairs(spec, ref, n)
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


class TestCodecMisreads:
    # each value was misread or ended in a TypeError that named no field

    @pytest.mark.parametrize("dim", [2.5, "two", True, None], ids=["fraction", "text", "bool", "null"])
    def test_cone_dim_read_by_the_config_reader(self, dim):
        # 2.5 read as 2, and int("two") named no field
        d = mapping_to_dict(corpus.affine_contraction(2))
        d["domain"]["cone"]["dim"] = dim
        with pytest.raises(ValueError) as got:
            mapping_from_dict(d)
        assert str(got.value) == f"config field domain.cone.dim needs a JSON integer, got {dim!r}"
        d["domain"]["cone"]["dim"] = 2.0  # a whole number still reads as an integer
        assert mapping_from_dict(d).domain.cone == ConeSpec("orthant", 2)

    def test_cone_kind_needs_a_string(self):
        d = mapping_to_dict(corpus.affine_contraction(2))
        d["domain"]["cone"]["kind"] = ["orthant"]
        with pytest.raises(ValueError, match=r"^config field domain.cone.kind needs a JSON string, got \['orthant'\]$"):
            mapping_from_dict(d)

    @pytest.mark.parametrize("domain", [5, [], "cone"])
    def test_domain_needs_an_object(self, domain):
        d = {**mapping_to_dict(corpus.affine_contraction(2)), "domain": domain}
        with pytest.raises(ValueError, match=f"^config field domain needs a JSON object, got {re.escape(repr(domain))}$"):
            mapping_from_dict(d)

    @pytest.mark.parametrize("step", [True, "abc", None, 0, -0.5, math.nan, math.inf])
    def test_grid_step_needs_a_positive_number(self, step):
        # True read as 1; "abc" and null ended in TypeError: '<=' not supported
        d = {**mapping_to_dict(corpus.steep_step_map()), "step": step}
        with pytest.raises(ValueError) as got:
            mapping_from_dict(d)
        assert str(got.value) == f"grid map field step needs a positive number, got {step!r}"

    @pytest.mark.parametrize("root", [[1], 5, "map", None])
    def test_root_and_stages_need_an_object(self, root):
        with pytest.raises(ValueError, match=f"^map needs a JSON object, got {re.escape(repr(root))}$"):
            mapping_from_dict(root)
        d = {**mapping_to_dict(corpus.affine_contraction(2)), "variant": "composition", "stages": [root]}
        with pytest.raises(ValueError, match="^map needs a JSON object"):
            mapping_from_dict(d)


class TestLatticeCap:
    def test_a_lattice_above_the_cap_is_refused(self):
        # a 100 x 100 lattice would need on the order of 10 GB of pairs
        n = math.isqrt(mapping.LATTICE_NODE_CAP) + 1
        nodes = np.stack(np.meshgrid(np.arange(n) * 0.5, np.arange(n) * 0.5, indexing="ij"), axis=-1)
        spec = MappingSpec(GridMap(np.zeros(2), 0.5, nodes), Domain(kind="cone", cone=ORTH2))
        want = f"an exhaustive check of {n * n} lattice nodes is above the cap of {mapping.LATTICE_NODE_CAP}"
        with pytest.raises(ValueError, match=f"^{want}$"):
            is_alpha_nonexpansive(spec, P2, 0.0, exhaustive=True)

    def test_the_cap_is_inclusive(self, monkeypatch):
        spec = corpus.steep_step_map()  # the shipped lattice: 7 nodes
        monkeypatch.setattr(mapping, "LATTICE_NODE_CAP", 7)
        assert is_alpha_nonexpansive(spec, P1, corpus.STEEP_STEP_ALPHA, exhaustive=True).passed
        monkeypatch.setattr(mapping, "LATTICE_NODE_CAP", 6)
        with pytest.raises(ValueError, match="^an exhaustive check of 7 lattice nodes is above the cap of 6$"):
            is_alpha_nonexpansive(spec, P1, corpus.STEEP_STEP_ALPHA, exhaustive=True)


@st.composite
def map_dicts(draw):
    """The JSON object of a self-map of each variant, with numbers drawn."""
    dim = draw(st.integers(1, 3))
    vec = st.lists(st.floats(0.0, 2.0), min_size=dim, max_size=dim)
    variant = draw(st.sampled_from(["affine", "truncation", "translation", "box_projection", "composition", "grid"]))
    domain = {"kind": "cone", "cone": {"kind": "orthant", "dim": dim}}
    affine = {"variant": "affine", "matrix": [draw(vec) for _ in range(dim)], "offset": draw(vec)}
    if variant == "affine":
        op = affine
    elif variant in ("truncation", "translation"):
        op = {"variant": variant, {"truncation": "cap", "translation": "shift"}[variant]: draw(vec)}
    elif variant == "box_projection":
        lo = draw(vec)
        op = {"variant": variant, "lo": lo, "hi": [a + b for a, b in zip(lo, draw(vec))]}
        domain.update(kind="box", lo=[0.0] * dim, hi=[4.0] * dim)
    elif variant == "composition":
        op = {"variant": variant, "stages": [affine, {"variant": "translation", "shift": draw(vec)}]}
    else:
        shape = [draw(st.integers(1, 3)) for _ in range(dim)]
        step = draw(st.sampled_from([0.25, 0.5, 1.0]))
        idx = np.random.default_rng(draw(st.integers(0, 2**16))).integers(0, shape, size=shape + [dim])
        op = {"variant": variant, "origin": [0.0] * dim, "step": step, "values": (step * idx).tolist()}
    return {**op, "domain": domain}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(map_dicts())
def test_map_file_json_round_trip(d):
    # a map read from its JSON text writes the same object back, and maps
    # its domain points as the map written from that object does
    spec = mapping_from_dict(json.loads(json.dumps(d)))
    assert mapping_to_dict(spec) == d
    clone = mapping_from_dict(json.loads(json.dumps(mapping_to_dict(spec))))
    xs = _domain_rows(spec, np.random.default_rng(0), 16, 1.0)
    assert np.array_equal(spec.op.evaluate(xs), clone.op.evaluate(xs))
