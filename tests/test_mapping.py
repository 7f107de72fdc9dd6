"""Mapping variants, property verifiers, and the fixed-point search."""

import itertools
import json
from dataclasses import dataclass

import numpy as np
import pytest

from orderfp import corpus
from orderfp.mapping import (
    AffineMap,
    CompositionMap,
    Domain,
    DomainError,
    GridSearchConfig,
    IncomparableError,
    MappingSpec,
    NotFixedPointError,
    SamplerConfig,
    TranslationMap,
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
    sample_domain_point,
    save_mapping,
    validate_self_map,
)
from orderfp.order import ConeSpec, leq
from orderfp.space import SpaceSpec

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
        return np.array([np.inf if x[0] > self.cut else x[0] + self.shift, x[1]])


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
