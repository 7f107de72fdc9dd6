"""Orbit generation, order tracking, and limits."""

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orderfp import corpus
from orderfp.iterate import (
    BLOCK_CAP,
    BLOCK_COORDS,
    BLOCK_FIRST,
    BLOCK_SLACK,
    CONVERGED,
    DECREASING,
    INCREASING,
    IterationConfig,
    MAX_ITER_REACHED,
    NEITHER,
    NONFINITE,
    OrbitRecord,
    UNBOUNDED_SUSPECTED,
    ChainVerdict,
    check_orbit_monotone,
    picard_orbit,
    read_orbit_points,
    write_orbit_csv,
    _next_block,
    _orbit,
    _verdict_cuts,
    _step_flags,
)
from orderfp.mapping import (
    AffineMap,
    BoxProjectionMap,
    CompositionMap,
    Domain,
    DomainError,
    GridMap,
    MappingSpec,
    TranslationMap,
    TruncationMap,
    _domain_contains_raw,
    sample_domain_point,
)
from orderfp.order import MEMBERSHIP_TOL, ConeSpec, _member_raw, leq
from orderfp.space import SpaceSpec, as_vector, norm, _row_norms

ORTH2 = ConeSpec(kind="orthant", dim=2)
P2 = SpaceSpec(dim=2, p=2.0)
SMALL = IterationConfig(max_iter=50_000, residual_tol=1e-10, bound_threshold=1e4, window=50)


def swap_shift_map():
    """Monotone (nonnegative matrix) map whose first step can be incomparable."""
    op = AffineMap(matrix=np.array([[0.0, 1.0], [1.0, 0.0]]), offset=np.array([1.0, 0.0]))
    return MappingSpec(op, Domain(kind="cone", cone=ORTH2))


class TestPicard:
    def test_fixed_start_converges_immediately(self):
        rec = picard_orbit(corpus.affine_contraction(2), [2.0, 2.0], P2)
        assert rec.verdict == CONVERGED
        assert len(rec) == 1
        assert rec.residuals[0] == 0.0

    def test_translation_orbit_is_exactly_linear(self):
        rec = picard_orbit(corpus.unit_translation(2), [0.0, 0.0], P2, SMALL)
        assert rec.verdict == UNBOUNDED_SUSPECTED
        assert rec.order_monotone == INCREASING
        for n in range(min(len(rec), 200)):
            assert np.array_equal(rec.points[n], np.full(2, float(n)))

    def test_geometric_orbit_matches_closed_form(self):
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], P2)
        assert rec.verdict == CONVERGED
        assert rec.order_monotone == INCREASING
        # x_n = 2 - 2^{1-n} componentwise, exact in binary floating point
        for n in range(len(rec)):
            expected = 2.0 - 2.0 ** (1 - n)
            assert np.array_equal(rec.points[n], np.full(2, expected))
        assert norm(P2, rec.points[-1] - np.array([2.0, 2.0])) < 1e-9

    def test_start_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            picard_orbit(corpus.affine_contraction(2), [-1.0, 0.0], P2)

    def test_runtime_domain_escape_detected(self):
        # constructed unchecked: drifts below the orthant after two steps
        esc = MappingSpec(
            op=TranslationMap(shift=np.array([-1.0, -1.0])),
            domain=Domain(kind="cone", cone=ORTH2),
        )
        with pytest.raises(DomainError, match="escaped"):
            picard_orbit(esc, [1.5, 1.5], P2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IterationConfig(max_iter=0)
        with pytest.raises(ValueError):
            IterationConfig(residual_tol=0.0)


class TestOrderTracking:
    def test_constant_orbit_is_both_directions(self):
        # an equality chain of 11 points: a Picard orbit stops at its first repeat
        rec = _hand_record(np.ones((11, 2)))
        chain = check_orbit_monotone(rec, ORTH2)
        assert chain.increasing and chain.decreasing
        assert chain == ChainVerdict(True, True, None, None) == reference_chain(rec, ORTH2)

    def test_translation_is_increasing_only(self):
        rec = picard_orbit(corpus.unit_translation(2), [0.0, 0.0], P2, SMALL)
        chain = check_orbit_monotone(rec, ORTH2)
        assert chain.increasing and not chain.decreasing
        assert chain.first_down_violation == 0

    def test_incomparable_first_step_flags_neither(self):
        cfg = IterationConfig(max_iter=40)
        rec = picard_orbit(swap_shift_map(), [2.0, 0.0], P2, cfg)
        assert rec.order_monotone == NEITHER
        chain = check_orbit_monotone(rec, ORTH2)
        assert not chain.increasing and not chain.decreasing
        assert chain.first_up_violation == 0
        assert chain.first_down_violation == 0

    def test_descending_orbit(self):
        rec = picard_orbit(corpus.affine_contraction(2), [5.0, 5.0], P2)
        assert rec.order_monotone == DECREASING
        assert rec.verdict == CONVERGED

    def test_empty_record_rejected(self):
        rec = picard_orbit(corpus.affine_contraction(2), [2.0, 2.0], P2)
        rec.points = rec.points[:0]
        with pytest.raises(ValueError):
            check_orbit_monotone(rec, ORTH2)


class TestMonotoneLimit:
    # the limit of a monotone bounded orbit is its last recorded point
    def test_constant_orbit_limit(self):
        rec = picard_orbit(corpus.constant_map([1.0, 1.0]), [1.0, 1.0], P2)
        assert np.array_equal(rec.points[-1], [1.0, 1.0])

    def test_geometric_limit_with_order_bound(self):
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], P2)
        limit = rec.points[-1]
        assert norm(P2, limit - np.array([2.0, 2.0])) < 1e-9
        # an increasing orbit stays below its limit
        assert all(leq(ORTH2, pt, limit, tol=1e-9) for pt in rec.points)

    def test_unbounded_rejected(self):
        rec = picard_orbit(corpus.unit_translation(2), [0.0, 0.0], P2, SMALL)
        assert rec.verdict == UNBOUNDED_SUSPECTED  # no limit to report

    def test_non_monotone_rejected(self):
        cfg = IterationConfig(max_iter=40)
        rec = picard_orbit(swap_shift_map(), [2.0, 0.0], P2, cfg)
        assert rec.order_monotone == NEITHER  # no monotone limit


class TestDistanceAndNormSequences:
    def test_quasi_descent_toward_fixed_point(self):
        z = np.array([2.0, 2.0])
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], P2)
        dists = [norm(P2, pt - z) for pt in rec.points]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert all(d <= dists[0] + 1e-12 for d in dists)

    def test_norm_growth_under_monotonic_norm(self):
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], P2)
        diffs = np.diff(rec.norms)
        assert np.all(diffs >= -1e-12)
        limit_norm = norm(P2, rec.points[-1])
        assert np.all(rec.norms <= limit_norm + 1e-9)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], P2)
        path = tmp_path / "orbit.csv"
        write_orbit_csv(rec, path)
        pts = read_orbit_points(path)
        assert np.array_equal(pts, rec.points)
        header = path.read_text().splitlines()[0]
        assert header == "n,x0,x1,residual,norm,leq_up,leq_down"

    def test_missing_data_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("n,x0,x1,residual,norm,leq_up,leq_down\n")
        with pytest.raises(ValueError):
            read_orbit_points(path)


# ---------------------------------------------------------------------------
# reference oracles: the scalar per-step engine and the pair-by-pair chain
# checks, kept verbatim so the row-wise engine can be held to the same bits


def _ref_member(cone, v, tol):
    if cone.kind == "orthant":
        return bool(np.all(v >= -tol))
    return float(v[-1]) >= float(np.linalg.norm(v[:-1])) - tol


def _ref_domain_contains(domain, v, tol):
    if domain.kind == "cone":
        return _ref_member(domain.cone, v, tol)
    if domain.kind == "interval":
        return _ref_member(domain.cone, v - domain.lo, tol) and _ref_member(
            domain.cone, domain.hi - v, tol
        )
    return bool(np.all(v >= domain.lo - tol) and np.all(v <= domain.hi + tol))


def _ref_norm(p, v):
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def reference_orbit(spec, x0, cone, space, cfg):
    """The scalar engine: order flags computed inside the loop, step by step."""
    x = np.asarray(x0, dtype=float)
    if not _ref_domain_contains(spec.domain, x, MEMBERSHIP_TOL):
        raise DomainError(f"starting point {x} lies outside the mapping domain")
    p = space.p
    points, residuals, norms, up, down = [x], [], [_ref_norm(p, x)], [], []
    verdict = MAX_ITER_REACHED
    for n in range(cfg.max_iter):
        x = points[-1]
        tx = spec.op.evaluate(x)
        if not _ref_domain_contains(spec.domain, tx, 1e-9):
            raise DomainError(f"map escaped its domain at step {n}: image {tx}")
        res = _ref_norm(p, tx - x)
        residuals.append(res)
        if res <= cfg.residual_tol:
            verdict = CONVERGED
            break
        step = tx - x
        up.append(_ref_member(cone, step, MEMBERSHIP_TOL))
        down.append(_ref_member(cone, -step, MEMBERSHIP_TOL))
        points.append(tx)
        norms.append(_ref_norm(p, tx))
        if norms[-1] > cfg.bound_threshold and len(norms) > cfg.window:
            if norms[-1] > norms[-1 - cfg.window]:
                verdict = UNBOUNDED_SUSPECTED
                break
    if len(residuals) < len(points):
        tail = points[-1]
        residuals.append(_ref_norm(p, spec.op.evaluate(tail) - tail))
    up_arr = np.asarray(up, dtype=bool)
    down_arr = np.asarray(down, dtype=bool)
    if up_arr.size == 0 or bool(np.all(up_arr)):
        order = INCREASING
    elif bool(np.all(down_arr)):
        order = DECREASING
    else:
        order = NEITHER
    return OrbitRecord(
        points=np.asarray(points),
        residuals=np.asarray(residuals),
        norms=np.asarray(norms),
        leq_up=up_arr,
        leq_down=down_arr,
        order_monotone=order,
        verdict=verdict,
    )


def reference_chain(record, cone):
    first_up = first_down = None
    for n in range(len(record) - 1):
        if first_up is None and not leq(cone, record.points[n], record.points[n + 1]):
            first_up = n
        if first_down is None and not leq(cone, record.points[n + 1], record.points[n]):
            first_down = n
        if first_up is not None and first_down is not None:
            break
    return ChainVerdict(first_up is None, first_down is None, first_up, first_down)


def outcome(fn, *args):
    """What a call returns or raises, in a form two engines can be compared by."""
    try:
        return ("returned", fn(*args))
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


def assert_same_record(rec, ref):
    for name in ("points", "residuals", "norms", "leq_up", "leq_down"):
        got, want = getattr(rec, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert (rec.order_monotone, rec.verdict) == (ref.order_monotone, ref.verdict)


LOR3 = ConeSpec(kind="lorentz", dim=3)


def lorentz_rotation_map():
    """Self-map of the Lorentz cone in R^3: rotate the head and shrink it faster
    than the axis, so the order flags of one orbit can switch."""
    c, s = np.cos(0.7), np.sin(0.7)
    matrix = np.array([[0.5 * c, -0.5 * s, 0.0], [0.5 * s, 0.5 * c, 0.0], [0.0, 0.0, 0.9]])
    return MappingSpec(AffineMap(matrix, np.array([0.0, 0.0, 1.0])), Domain(kind="cone", cone=LOR3))


def interval_map(cone):
    """x -> x/2 + hi/4, a self-map of the order interval [0, hi] under ``cone``."""
    hi = np.zeros(cone.dim)
    hi[-1] = 8.0
    domain = Domain(kind="interval", cone=cone, lo=np.zeros(cone.dim), hi=hi)
    return MappingSpec(AffineMap(0.5 * np.eye(cone.dim), hi / 4.0), domain)


def _random_map(dim, rho):
    return corpus.random_nonneg_affine(dim, rho, np.random.default_rng(1000 * dim + int(100 * rho)))


class TestReferenceEngine:
    @pytest.mark.parametrize("name", [e.name for e in corpus.alpha_corpus()])
    @pytest.mark.parametrize("start", ["zero", "sampled"])
    def test_alpha_corpus(self, name, start):
        entry = next(e for e in corpus.alpha_corpus() if e.name == name)
        spec = entry.spec
        x0 = np.zeros(spec.dim)
        if start == "sampled":
            x0 = sample_domain_point(spec, np.random.default_rng(7))
        assert_same_record(
            picard_orbit(spec, x0, entry.space, SMALL),
            reference_orbit(spec, x0, spec.domain.cone, entry.space, SMALL),
        )

    @pytest.mark.parametrize("dim", [2, 5, 20])
    @pytest.mark.parametrize("rho", [0.5, 0.95])
    def test_random_nonneg_affine(self, dim, rho):
        spec = _random_map(dim, rho)
        space = SpaceSpec(dim=dim, p=3.0)
        # from zero the orbit rises; from a random start the flags are mixed
        for x0 in (np.zeros(dim), np.random.default_rng(dim).uniform(0.0, 5.0, size=dim)):
            assert_same_record(
                picard_orbit(spec, x0, space, SMALL),
                reference_orbit(spec, x0, spec.domain.cone, space, SMALL),
            )

    @pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [3.0, 0.0, 3.5], [1.0, 0.0, 20.0]])
    def test_lorentz_cone_map(self, x0):
        spec = lorentz_rotation_map()
        space = SpaceSpec(dim=3, p=1.5)
        rec = picard_orbit(spec, x0, space, SMALL)
        assert_same_record(rec, reference_orbit(spec, x0, spec.domain.cone, space, SMALL))

    @pytest.mark.parametrize("cone", [ConeSpec(kind="orthant", dim=2), LOR3])
    def test_interval_domain(self, cone):
        spec = interval_map(cone)
        space = SpaceSpec(dim=cone.dim, p=2.0)
        x0 = np.zeros(cone.dim)
        assert_same_record(
            picard_orbit(spec, x0, space, SMALL),
            reference_orbit(spec, x0, cone, space, SMALL),
        )

    def test_max_iter_reached(self):
        cfg = IterationConfig(max_iter=25)
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], P2, cfg)
        assert rec.verdict == MAX_ITER_REACHED and len(rec) == 26
        assert_same_record(rec, reference_orbit(corpus.affine_contraction(2), [0.0, 0.0], ORTH2, P2, cfg))

    def test_runtime_escape_same_error(self):
        esc = MappingSpec(
            op=TranslationMap(shift=np.array([-1.0, -1.0])),
            domain=Domain(kind="cone", cone=ORTH2),
        )
        got = outcome(picard_orbit, esc, [1.5, 1.5], P2)
        want = outcome(reference_orbit, esc, [1.5, 1.5], ORTH2, P2, IterationConfig())
        assert got[0] == "raised" and got[1] is DomainError
        assert got == want


class TestRowWiseMembership:
    DOMAINS = [
        Domain(kind="cone", cone=ORTH2),
        Domain(kind="cone", cone=LOR3),
        Domain(kind="interval", cone=ORTH2, lo=np.zeros(2), hi=np.array([1.0, 0.5])),
        Domain(kind="interval", cone=LOR3, lo=np.zeros(3), hi=np.array([0.0, 0.0, 2.0])),
        Domain(kind="box", cone=ORTH2, lo=np.full(2, -1.0), hi=np.zeros(2)),
    ]

    @pytest.mark.parametrize("domain", DOMAINS, ids=["orthant", "lorentz", "orthant-interval",
                                                     "lorentz-interval", "box"])
    def test_rows_match_scalar_rule(self, domain):
        rng = np.random.default_rng(11)
        rows = rng.uniform(-1.5, 2.5, size=(400, domain.dim))
        rows[:3] = [domain.lo if domain.lo is not None else np.zeros(domain.dim)] * 3
        rows[1, -1] -= 1e-12  # just inside the tolerance
        rows[2, -1] -= 1e-6   # just outside
        got = _domain_contains_raw(domain, rows, 1e-9)
        want = [_ref_domain_contains(domain, v, 1e-9) for v in rows]
        assert got.dtype == bool and got.shape == (400,)
        assert got.tolist() == want
        assert 0 < sum(want) < 400
        if domain.kind == "cone":
            assert _member_raw(domain.cone, rows, 1e-9).tolist() == want


def _hand_record(points, order=INCREASING, cone=ORTH2):
    pts = np.asarray(points, dtype=float)
    return OrbitRecord(
        points=pts,
        residuals=np.zeros(len(pts)),
        norms=np.zeros(len(pts)),
        leq_up=np.zeros(len(pts) - 1, dtype=bool),
        leq_down=np.zeros(len(pts) - 1, dtype=bool),
        order_monotone=order,
        verdict=CONVERGED,
    )


class TestRowWiseChainChecks:
    # up fails first at step 2 (x2 -> x3 drops a coordinate); down fails at step 0
    MIXED = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.5, 3.0], [3.0, 3.0]]

    def test_known_first_violations(self):
        rec = _hand_record(self.MIXED)
        chain = check_orbit_monotone(rec, ORTH2)
        assert (chain.first_up_violation, chain.first_down_violation) == (2, 0)
        assert chain == reference_chain(rec, ORTH2)

    def test_first_down_violation_after_first_up(self):
        rec = _hand_record([[3.0, 3.0], [2.0, 2.0], [2.5, 1.0], [1.0, 1.0]])
        chain = check_orbit_monotone(rec, ORTH2)
        assert (chain.first_up_violation, chain.first_down_violation) == (0, 1)
        assert chain == reference_chain(rec, ORTH2)

    def test_one_point_record(self):
        rec = _hand_record([[1.0, 2.0]])
        assert check_orbit_monotone(rec, ORTH2) == ChainVerdict(True, True, None, None)
        assert check_orbit_monotone(rec, ORTH2) == reference_chain(rec, ORTH2)

    @pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [3.0, 0.0, 3.5], [1.0, 0.0, 20.0]])
    def test_lorentz_orbit_records(self, x0):
        rec = picard_orbit(lorentz_rotation_map(), x0, SpaceSpec(dim=3, p=2.0), SMALL)
        assert check_orbit_monotone(rec, LOR3) == reference_chain(rec, LOR3)

    def test_lorentz_hand_record(self):
        # (0,0,1) -> (0.5,0,2): head 0.5 <= 1, up; (0.5,0,2) -> (2,0,2.5): head 1.5 > 0.5
        pts = [[0.0, 0.0, 1.0], [0.5, 0.0, 2.0], [2.0, 0.0, 2.5], [2.0, 0.0, 4.0]]
        rec = _hand_record(pts, cone=LOR3)
        assert check_orbit_monotone(rec, LOR3) == reference_chain(rec, LOR3)

    def test_invalid_points_rejected_like_leq(self):
        rec = _hand_record([[0.0, 0.0], [1.0, np.inf]])
        assert outcome(check_orbit_monotone, rec, ORTH2) == outcome(reference_chain, rec, ORTH2)
        wrong_dim = ConeSpec(kind="orthant", dim=3)
        rec = _hand_record([[0.0, 0.0], [1.0, 1.0]])
        got = outcome(check_orbit_monotone, rec, wrong_dim)
        assert got[0] == "raised" and got == outcome(reference_chain, rec, wrong_dim)


ORTH1 = ConeSpec(kind="orthant", dim=1)


@dataclass
class NanAbove:
    """x -> 2x + 1, with a NaN first coordinate once x_0 passes ``cut``."""

    cut: float
    dim: int = 2

    def evaluate(self, x):
        y = 2.0 * x + 1.0
        if x[0] > self.cut:
            y[0] = np.nan
        return y


class TestNonfiniteOrbits:
    def test_overflow_to_inf_stops_at_last_finite_point(self):
        # x -> 1e200 x + 1 from 0: 0, 1, 1e200, then the image is +inf
        spec = MappingSpec(AffineMap(np.array([[1e200]]), np.ones(1)), Domain(kind="cone", cone=ORTH1))
        rec = picard_orbit(spec, [0.0], SpaceSpec(dim=1, p=2.0))
        assert rec.verdict == NONFINITE
        assert rec.points.ravel().tolist() == [0.0, 1.0, 1e200]
        # |1e200|^2 overflows, but a finite point has a finite norm; only the
        # residual at the inf image stays inf
        assert rec.residuals.tolist() == [1.0, 1e200, np.inf]
        assert rec.norms.tolist() == [0.0, 1.0, 1e200]
        assert rec.order_monotone == INCREASING and rec.leq_up.all()
        chain = check_orbit_monotone(rec, ORTH1)
        assert chain.increasing and chain.first_up_violation is None

    def test_nan_image_is_nonfinite_not_a_domain_escape(self):
        spec = MappingSpec(op=NanAbove(cut=10.0), domain=Domain(kind="cone", cone=ORTH2))
        rec = picard_orbit(spec, [0.0, 0.0], P2)
        ref = outcome(reference_orbit, spec, [0.0, 0.0], ORTH2, P2, IterationConfig())
        assert ref == ("raised", DomainError, "map escaped its domain at step 4: image [nan 31.]")
        assert rec.verdict == NONFINITE
        assert rec.points[:, 1].tolist() == [0.0, 1.0, 3.0, 7.0, 15.0]
        assert np.isnan(rec.residuals[-1]) and np.isfinite(rec.residuals[:-1]).all()
        assert len(rec.residuals) == len(rec.norms) == len(rec) and rec.order_monotone == INCREASING

    def test_minus_inf_image_is_nonfinite(self):
        esc = MappingSpec(
            op=AffineMap(np.array([[1.0, -1e308], [0.0, 1.0]]), np.zeros(2)),
            domain=Domain(kind="cone", cone=ORTH2),
        )
        with np.errstate(over="ignore"):
            rec = picard_orbit(esc, [0.0, 3.0], P2)
        assert rec.verdict == NONFINITE and np.isfinite(rec.points).all()
        assert rec.residuals[-1] == np.inf and len(rec.residuals) == len(rec)

    def test_finite_orbits_unchanged(self):
        # the overflow test only reads the image when the residual is not finite
        spec = corpus.affine_contraction(2)
        assert_same_record(
            picard_orbit(spec, [0.0, 0.0], P2, SMALL),
            reference_orbit(spec, [0.0, 0.0], ORTH2, P2, SMALL),
        )


# ---------------------------------------------------------------------------
# the block engine against the stepwise engine it replaced


def _kernel_norm(space, v):
    return float(_row_norms(space, v[None, None])[0, 0])


def stepwise_orbit(
    spec: MappingSpec,
    x0,
    space: SpaceSpec,
    cfg: IterationConfig,
) -> OrbitRecord:
    """The stepwise engine the block engine replaced, verbatim but for the
    norm helper, which is now the package's lp kernel on one unvalidated row
    (as the block engine's): every rule runs inside each step."""
    x = as_vector(x0, dim=spec.dim)
    domain, evaluate = spec.domain, spec.op.evaluate
    if not _domain_contains_raw(domain, x, MEMBERSHIP_TOL):
        raise DomainError(f"starting point {x} lies outside the mapping domain")
    points = [x]
    residuals: list[float] = []
    norms = [_kernel_norm(space, x)]
    verdict = MAX_ITER_REACHED

    # only what a stopping rule reads is computed per step; the order flags
    # are derived once from the recorded points after the loop
    for n in range(cfg.max_iter):
        tx = evaluate(x)
        res = _kernel_norm(space, tx - x)
        # a non-finite image makes the residual non-finite, but so can a
        # finite image whose norm overflows, so only then is the image read
        if not res < math.inf and not np.isfinite(tx).all():
            residuals.append(res)
            verdict = NONFINITE
            break
        if not _domain_contains_raw(domain, tx, 1e-9):
            raise DomainError(f"map escaped its domain at step {n}: image {tx}")
        residuals.append(res)
        if res <= cfg.residual_tol:
            verdict = CONVERGED
            break
        x = tx
        points.append(x)
        norms.append(_kernel_norm(space, x))
        if norms[-1] > cfg.bound_threshold and len(norms) > cfg.window:
            if norms[-1] > norms[-1 - cfg.window]:
                verdict = UNBOUNDED_SUSPECTED
                break

    if len(residuals) < len(points):
        residuals.append(_kernel_norm(space, evaluate(x) - x))

    pts = np.asarray(points)
    up_arr, down_arr = _step_flags(pts, domain.cone)
    if up_arr.all():
        order = INCREASING
    elif down_arr.all():
        order = DECREASING
    else:
        order = NEITHER
    return OrbitRecord(
        points=pts,
        residuals=np.asarray(residuals),
        norms=np.asarray(norms),
        leq_up=up_arr,
        leq_down=down_arr,
        order_monotone=order,
        verdict=verdict,
    )


def one_orbit(spec, x0, space, cfg):
    """The block engine on a batch of one orbit."""
    return _orbit([spec], [x0], space, cfg)[0]


def one_verdict(spec, x0, space, cfg):
    """The block engine's verdict for one orbit."""
    return _orbit([spec], [x0], space, cfg, verdicts=True)[0]


def engine_outcome(engine, spec, x0, space, cfg):
    """What one engine returns or raises; the stepwise engine's overflow
    warnings are silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return ("returned", engine(spec, x0, space, cfg))
        except Exception as exc:
            return ("raised", type(exc), str(exc))


def assert_same_outcome(spec, x0, space, cfg):
    """Both engines give bit-identical records, or the same error type and text."""
    got = engine_outcome(one_orbit, spec, x0, space, cfg)
    want = engine_outcome(stepwise_orbit, spec, x0, space, cfg)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got == want
        return got
    rec, ref = got[1], want[1]
    for name in ("points", "residuals", "norms", "leq_up", "leq_down"):
        a, b = getattr(rec, name), getattr(ref, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name  # NaN-safe: the bits themselves
    assert (rec.order_monotone, rec.verdict) == (ref.order_monotone, ref.verdict)
    return got


def block_rows(dim):
    """The most rows a block of orbits in R^dim holds."""
    return max(BLOCK_CAP, BLOCK_COORDS // dim)


# steps where the blocks of a 1-D orbit that doubles end: 8, 24, 56, ...,
# 1016, 2040; a stop is tried on both sides of the first two and the last two
BLOCK_ENDS = list(itertools.accumulate(min(BLOCK_FIRST << i, BLOCK_CAP) for i in range(8)))
STOP_STEPS = sorted(
    {0, 1, 7, 8, 9, 23, 24, 25, 1023, 1024, 1025, 2047}
    | {end + d for end in BLOCK_ENDS[:2] + BLOCK_ENDS[-2:] for d in (-1, 0, 1)}
)
CONE1 = Domain(kind="cone", cone=ORTH1)
LINE2 = SpaceSpec(dim=1, p=2.0)
LONG = IterationConfig(max_iter=5000, residual_tol=1e-10, bound_threshold=1e12, window=50)


@dataclass
class StepUp:
    """x -> x + 1; from x_0 = at on (x reaches ``at`` at step ``at``) the
    image's first coordinate is ``value``, or the call raises ``raises``."""

    at: float
    value: float = 0.0
    raises: type | None = None
    dim: int = 1

    def evaluate(self, x):
        y = x + 1.0
        if x[0] >= self.at:
            if self.raises is not None:
                raise self.raises(f"cannot step from {x}")
            y[0] = self.value
        return y


def converges_at(step):
    """min(x + 1, step) from 0: the residual first vanishes at ``step``."""
    op = CompositionMap([TranslationMap(np.ones(1)), TruncationMap(np.full(1, float(step)))])
    return MappingSpec(op=op, domain=CONE1)


def stop_case(kind, step):
    """(spec, x0, cfg) of a 1-D orbit whose first stop is ``kind`` at ``step``."""
    zero = [0.0]
    if kind == CONVERGED:
        return converges_at(step), zero, LONG
    if kind == "converged_over_growth":  # on the same row, the growth test would fire
        cfg = IterationConfig(max_iter=5000, bound_threshold=0.5, window=step + 1)
        return converges_at(step), zero, cfg
    if kind == UNBOUNDED_SUSPECTED:  # the norm of x_{n+1} = n + 1 first clears the ceiling
        cfg = IterationConfig(max_iter=5000, bound_threshold=step + 0.5, window=1)
        return MappingSpec(op=TranslationMap(np.ones(1)), domain=CONE1), zero, cfg
    if kind == "unbounded_by_window":  # ceiling cleared early; the window gates it
        cfg = IterationConfig(max_iter=5000, bound_threshold=0.5, window=step + 1)
        return MappingSpec(op=TranslationMap(np.ones(1)), domain=CONE1), zero, cfg
    if kind == "unbounded_then_raise":  # the last point's residual cannot be taken
        cfg = IterationConfig(max_iter=5000, bound_threshold=step + 0.5, window=1)
        return MappingSpec(op=StepUp(at=step + 1, raises=RuntimeError), domain=CONE1), zero, cfg
    if kind in (NONFINITE, "nan", "-inf"):
        value = {NONFINITE: np.inf, "nan": np.nan, "-inf": -np.inf}[kind]
        return MappingSpec(op=StepUp(at=step, value=value), domain=CONE1), zero, LONG
    if kind == "escape_over_convergence":  # the image of x_step = step is step + 1e-8
        cfg = IterationConfig(max_iter=5000, residual_tol=1e-6)
        domain = Domain(kind="interval", cone=ORTH1, lo=np.zeros(1), hi=np.full(1, float(step)))
        return MappingSpec(op=StepUp(at=step, value=step + 1e-8), domain=domain), zero, cfg
    if kind == "escape":  # x_n = step + 0.5 - n; the image of step `step` is -0.5
        return MappingSpec(op=TranslationMap(-np.ones(1)), domain=CONE1), [step + 0.5], LONG
    assert kind == "raise"
    return MappingSpec(op=StepUp(at=step, raises=RuntimeError), domain=CONE1), zero, LONG


class TestBlockEngine:
    @pytest.mark.parametrize("step", STOP_STEPS)
    @pytest.mark.parametrize(
        "kind",
        [CONVERGED, "converged_over_growth", UNBOUNDED_SUSPECTED, "unbounded_by_window",
         "unbounded_then_raise",
         NONFINITE, "nan", "-inf", "escape", "escape_over_convergence", "raise"],
    )
    def test_first_stop_at_block_edges(self, kind, step):
        spec, x0, cfg = stop_case(kind, step)
        got = assert_same_outcome(spec, x0, LINE2, cfg)
        # a verdict run stops at the same step or raises the same error, but
        # takes no residual of the last point
        verdict = engine_outcome(one_verdict, spec, x0, LINE2, cfg)
        if kind == "unbounded_then_raise":
            assert verdict == ("returned", UNBOUNDED_SUSPECTED)
        else:
            assert verdict == (got if got[0] == "raised" else ("returned", got[1].verdict))
        if kind.startswith("escape"):
            assert got[1] is DomainError and f"escaped its domain at step {step}:" in got[2]
        elif kind in ("raise", "unbounded_then_raise"):
            assert got[1] is RuntimeError
        else:
            rec = got[1]
            want = {"nan": NONFINITE, "-inf": NONFINITE, "converged_over_growth": CONVERGED,
                    "unbounded_by_window": UNBOUNDED_SUSPECTED}
            assert rec.verdict == want.get(kind, kind)
            assert len(rec.residuals) == len(rec.norms) == len(rec)
            assert len(rec) == step + (2 if rec.verdict == UNBOUNDED_SUSPECTED else 1)

    @pytest.mark.parametrize("step", [BLOCK_FIRST + block_rows(1) + d for d in (-1, 0)])
    def test_a_stacked_growth_stop_on_the_edges_of_a_capped_block(self, monkeypatch, step):
        # x -> x + 1, a running sum, with its ceiling more than block_rows(1)
        # steps on: after the first 8 steps the trend sizes the next block
        # straight past the row cap, so the stop is on that block's last row
        # (step 20,487) or on the next block's first (step 20,488)
        import orderfp.iterate as iterate

        plain, sizes = iterate._next_block, []
        monkeypatch.setattr(iterate, "_next_block", lambda *args: sizes.append(plain(*args)) or sizes[-1])
        spec, x0, cfg = stop_case(UNBOUNDED_SUSPECTED, step)
        cfg = dataclasses.replace(cfg, max_iter=2 * step)
        rec = assert_same_outcome(spec, x0, LINE2, cfg)[1]
        assert rec.verdict == UNBOUNDED_SUSPECTED and len(rec) == step + 2
        assert sizes[0] >= block_rows(1) and len(sizes) == (step >= BLOCK_FIRST + block_rows(1)) + 1
        assert one_verdict(spec, x0, LINE2, cfg) == UNBOUNDED_SUSPECTED

    @pytest.mark.parametrize("max_iter", [1, 7, 8, 9, 100] + BLOCK_ENDS[-2:])
    def test_budget_ends_inside_and_on_block_edges(self, max_iter):
        cfg = IterationConfig(max_iter=max_iter, bound_threshold=1e12)
        for spec in (MappingSpec(op=TranslationMap(np.ones(1)), domain=CONE1), converges_at(50)):
            got = assert_same_outcome(spec, [0.0], LINE2, cfg)
            rec = got[1]
            if rec.verdict == MAX_ITER_REACHED:
                assert len(rec) == len(rec.residuals) == max_iter + 1

    @pytest.mark.parametrize("step", [0, 5, 7, 8, 23])
    def test_grid_escape_wins_over_the_off_lattice_step_after_it(self, step):
        # x_n = step - n on the lattice 0, 1, ..., 40; 0 maps to -0.5, which
        # leaves the orthant and is off the lattice, so the next step raises
        values = np.arange(-1.0, 40.0).reshape(41, 1)
        values[0] = -0.5
        spec = MappingSpec(op=GridMap(np.zeros(1), 1.0, values), domain=CONE1)
        got = assert_same_outcome(spec, [float(step)], LINE2, LONG)
        assert got[1] is DomainError
        assert got[2] == f"map escaped its domain at step {step}: image [-0.5]"
        with pytest.raises(DomainError, match="not on the lattice"):
            spec.op.evaluate(np.array([-0.5]))

    def test_grid_leaving_its_lattice_raises_the_lattice_error(self):
        # 0 -> 1 -> ... -> 9 -> 10: the orthant holds 10, the 10-point lattice does not
        spec = MappingSpec(op=GridMap(np.zeros(1), 1.0, np.arange(1.0, 11.0).reshape(10, 1)), domain=CONE1)
        got = assert_same_outcome(spec, [0.0], LINE2, LONG)
        assert got[1:] == (DomainError, "point [10.] lies outside the lattice box")

    @pytest.mark.parametrize("step", [0, 3, 7, 8, 9])
    def test_lattice_error_past_the_stop_never_surfaces(self, step):
        # 0 -> 1 -> ... -> step -> step + 1e-7, which is off the lattice: the
        # next step raises, after a stop at a residual_tol of 1e-6
        values = np.arange(1.0, step + 2.0).reshape(step + 1, 1)
        values[step] = step + 1e-7
        spec = MappingSpec(op=GridMap(np.zeros(1), 1.0, values), domain=CONE1)
        got = assert_same_outcome(spec, [0.0], LINE2, IterationConfig(max_iter=5000, residual_tol=1e-6))
        assert got[1].verdict == CONVERGED and len(got[1]) == step + 1
        # at a residual_tol of 1e-10 no step stops the orbit first, and the same error is raised
        got = assert_same_outcome(spec, [0.0], LINE2, LONG)
        assert got[1] is DomainError and "is not on the lattice (step 1.0)" in got[2]

    def test_no_warnings_from_steps_past_an_overflow(self):
        # x -> 1e200 x + 1 overflows at step 2 of the first block; the steps
        # after it run on inf and NaN
        spec = MappingSpec(op=AffineMap(np.array([[1e200]]), np.ones(1)), domain=CONE1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = picard_orbit(spec, [0.0], LINE2)
        assert rec.verdict == NONFINITE
        with pytest.warns(RuntimeWarning):
            stepwise_orbit(spec, [0.0], LINE2, IterationConfig())
        assert_same_outcome(spec, [0.0], LINE2, IterationConfig())

    def test_corpus_and_campaign_shaped_orbits(self):
        for entry in corpus.alpha_corpus():
            spec = entry.spec
            for x0 in (np.zeros(spec.dim), sample_domain_point(spec, np.random.default_rng(3))):
                assert_same_outcome(spec, x0, entry.space, SMALL)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            IterationConfig(window=-1)


@dataclass
class Counted:
    """``op`` with a count of its evaluate calls."""

    op: object
    calls: int = 0

    @property
    def dim(self) -> int:
        return self.op.dim

    def evaluate(self, x):
        self.calls += 1
        return self.op.evaluate(x)


def translation(shift, x0=None):
    """(spec, x0) of x -> x + shift on the orthant, from 0 unless given."""
    op = TranslationMap(shift)
    cone = ConeSpec(kind="orthant", dim=op.dim)
    return MappingSpec(op=op, domain=Domain(kind="cone", cone=cone)), np.zeros(op.dim) if x0 is None else x0


class TestTranslationAndTrendBlocks:
    """Picard orbits of a TranslationMap fill each block by one running sum;
    every orbit sizes its blocks from the trend of the block before."""

    SHIFT3 = [0.7, 1.3, 0.9]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_growth_stop(self, p):
        # in R^20 a block holds at most 1,024 rows, and this orbit runs
        # through more than one of them
        spec, x0 = translation(np.linspace(0.5, 1.5, 20))
        cfg = IterationConfig(max_iter=100_000, bound_threshold=1e4, window=50)
        got = assert_same_outcome(spec, x0, SpaceSpec(dim=20, p=p), cfg)
        assert got[1].verdict == UNBOUNDED_SUSPECTED and len(got[1]) > block_rows(20) == BLOCK_CAP

    @pytest.mark.parametrize("start", [0.5, 7.5, 8.5, 600.25])
    def test_domain_escape(self, start):
        # the last coordinate falls by 1 a step and leaves the orthant
        spec, x0 = translation([0.5, -1.0], x0=np.array([0.0, start]))
        got = assert_same_outcome(spec, x0, P2, LONG)
        assert got[1] is DomainError and f"at step {math.floor(start)}:" in got[2]

    def test_overflow_to_nonfinite(self):
        # x_n = n * 1e307 overflows to inf at n = 18; every power sum
        # overflows, but the norms of the finite points are finite
        spec, x0 = translation([1e307, 1.0])
        got = assert_same_outcome(spec, x0, P2, LONG)
        rec = got[1]
        assert rec.verdict == NONFINITE and len(rec) == 18 and np.isfinite(rec.points).all()
        assert rec.norms.tolist() == rec.points[:, 0].tolist()

    @pytest.mark.parametrize("max_iter", [1, 2, 7, 8, 9, 23, 24, 25, 100, 1000, 1016, 1017, 2040, 2041])
    def test_budgets_inside_and_on_block_edges(self, max_iter):
        spec, x0 = translation(self.SHIFT3)
        cfg = IterationConfig(max_iter=max_iter, bound_threshold=1e12)
        rec = assert_same_outcome(spec, x0, SpaceSpec(dim=3, p=2.0), cfg)[1]
        assert rec.verdict == MAX_ITER_REACHED and len(rec) == max_iter + 1

    @pytest.mark.parametrize("window, max_iter", [(0, 3000), (5000, 3000), (5000, 200)])
    def test_window_zero_and_longer_than_the_budget(self, window, max_iter):
        # the norm passes the ceiling at step 58, but a window of 0 compares
        # a norm with itself and a long one looks back before x_0
        spec, x0 = translation(self.SHIFT3)
        cfg = IterationConfig(max_iter=max_iter, bound_threshold=100.0, window=window)
        rec = assert_same_outcome(spec, x0, SpaceSpec(dim=3, p=2.0), cfg)[1]
        assert rec.verdict == MAX_ITER_REACHED and rec.norms.max() > 100.0

    def test_only_picard_orbits_fill_blocks_by_a_running_sum(self, monkeypatch):
        spec, x0 = translation(self.SHIFT3)
        cfg = IterationConfig(max_iter=3000, bound_threshold=1e3, window=50)
        space = SpaceSpec(dim=3, p=2.0)
        calls = []
        plain = TranslationMap.evaluate
        monkeypatch.setattr(TranslationMap, "evaluate", lambda op, x: calls.append(x) or plain(op, x))
        rec = one_orbit(spec, x0, space, cfg)
        # the running sum calls the map only for the last point's residual
        assert rec.verdict == UNBOUNDED_SUSPECTED and len(calls) == 1
        assert_same_outcome(spec, x0, space, cfg)

    def test_every_convergence_step_up_to_1100(self):
        # the norm trend crosses 1200 near step 1200, so the last blocks end
        # there instead of at the doubling edges
        cfg = IterationConfig(max_iter=5000, bound_threshold=1200.0, window=50)
        for step in range(1101):
            rec = assert_same_outcome(converges_at(step), [0.0], LINE2, cfg)[1]
            assert rec.verdict == CONVERGED and len(rec) == step + 1

    def test_power_sums_overflow_while_points_stay_finite(self):
        # x -> 10 x + 1: from step 155 |x_n|^2 overflows at p = 2, yet each
        # norm is |x_n|; the window keeps the growth rule quiet until the
        # image is inf
        spec = MappingSpec(op=AffineMap(np.array([[10.0]]), np.ones(1)), domain=CONE1)
        cfg = IterationConfig(max_iter=5000, bound_threshold=1e12, window=1000)
        rec = assert_same_outcome(spec, [0.0], LINE2, cfg)[1]
        assert rec.verdict == NONFINITE and np.isfinite(rec.points).all()
        assert rec.points.max() > 1e155 and rec.norms.tolist() == rec.points.ravel().tolist()

    @pytest.mark.parametrize(
        "res, norms",
        [([1.0, np.inf], [1e300, np.inf]), ([1.0, 0.0], [2.0, 1.0]), ([np.nan, 0.5], [np.nan, 1.0]),
         ([1.0, 1.0], [np.inf, np.inf]), ([1.0, 1.0], [2.0, 2.0]), ([1.0, 2.0], [3.0, 1.0]),
         ([1e-300, 1e-301], [1.0, 1e13]), ([1e300, 1e-30], [1.0, 1.0]), ([np.inf, 1e-3], [1.0, 1.0])],
        ids=["inf", "zero-residual", "nan", "inf-norms", "flat", "wrong-way", "past-both", "ratio-underflow",
             "from-inf"],  # from-inf: 1e-3 / inf is a ratio of 0
    )
    def test_a_trend_that_does_not_move_toward_a_stop_predicts_nothing(self, res, norms):
        # the block doubles, in a stacked batch too; `_orbit` caps its rows
        cfg = IterationConfig(residual_tol=1e-300, bound_threshold=1e12)
        for k, stacked in itertools.product((8, 512, BLOCK_CAP, 4 * BLOCK_CAP), (False, True)):
            assert _next_block(k, np.array(res), np.array(norms), cfg, stacked) == 2 * k

    def test_blocks_end_near_the_predicted_stop(self):
        cfg = IterationConfig(residual_tol=1e-10, bound_threshold=100.0)
        # residuals halve from 1e-2: 1e-10 is 26.6 steps on; norms rise by 1 to 100
        for stacked in (False, True):
            assert _next_block(512, np.array([2e-2, 1e-2]), np.array([1.0, 2.0]), cfg, stacked) == 26 + BLOCK_SLACK
            assert _next_block(512, np.array([2e-2, 1e-2]), np.array([80.0, 95.0]), cfg, stacked) == BLOCK_FIRST
            assert _next_block(512, np.array([1.0, 1.0]), np.array([1.0, 2.0]), cfg, stacked) == 98 + BLOCK_SLACK
            assert _next_block(1, np.array([1.0]), np.array([1.0]), cfg, stacked) == BLOCK_FIRST
        # past twice k only in a stacked batch, and only when every orbit predicts a stop
        res, norms = np.array([[2e-2, 1e-2], [2e-2, 1e-2]]), np.array([[1.0, 2.0], [1.0, 1.0]])
        assert _next_block(8, res, norms, cfg, False) == 16
        assert _next_block(8, res, norms, cfg, True) == 26 + BLOCK_SLACK
        assert _next_block(8, np.array([[2e-2, 1e-2], [1.0, 1.0]]), norms, cfg, True) == 16

    def test_a_generic_orbit_doubles_past_a_far_predicted_stop(self):
        # min(x + 1, stop) from 0: the norm trend predicts a stop near 1e12,
        # but a generic map's step is a Python call, so its blocks double
        # (8, 16, ..., 512 end at step 1016) up to BLOCK_CAP rows (2040,
        # 3064), where a stacked batch's would take block_rows(1) = 20,480
        # steps after the first
        for stop, calls in ((1000, 1016), (3000, 3064)):
            counted = Counted(converges_at(stop).op)
            spec = MappingSpec(op=counted, domain=CONE1)
            rec = picard_orbit(spec, [0.0], LINE2, IterationConfig(max_iter=100_000, bound_threshold=1e12))
            assert rec.verdict == CONVERGED and len(rec) == stop + 1
            assert counted.calls == calls <= min(2 * len(rec) + BLOCK_FIRST, len(rec) + BLOCK_CAP)

    @pytest.mark.parametrize("dim", [1, 5, 20])
    def test_contraction_evaluates_near_its_stop(self, dim):
        # from 0 the residual of a rho = 0.95 contraction falls geometrically
        if dim == 1:
            op = AffineMap(np.array([[0.95]]), np.ones(1))
        else:
            op = corpus.random_nonneg_affine(dim, 0.95, np.random.default_rng(dim)).op
        counted = Counted(op)
        cone = ConeSpec(kind="orthant", dim=dim)
        spec = MappingSpec(op=counted, domain=Domain(kind="cone", cone=cone))
        rec = picard_orbit(spec, np.zeros(dim), SpaceSpec(dim=dim, p=2.0), LONG)
        assert rec.verdict == CONVERGED and len(rec) > 50
        assert counted.calls <= len(rec) + BLOCK_FIRST + BLOCK_SLACK


@st.composite
def affine_orbits(draw):
    d = draw(st.integers(1, 6))
    rho = draw(st.floats(0.05, 2.0))
    seed = draw(st.integers(0, 2**32 - 1))
    x0 = draw(st.lists(st.floats(0.0, 1e3), min_size=d, max_size=d))
    octave = draw(st.sampled_from(range(12)))  # budgets spread over the block sizes
    cfg = IterationConfig(
        max_iter=draw(st.integers(1 << octave, min(2 << octave, 2100))),
        bound_threshold=10.0 ** draw(st.integers(0, 300)),
        window=draw(st.integers(0, 120)),
    )
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.0, 1.0, size=(d, d))
    matrix *= rho / max(float(np.linalg.norm(matrix, 2)), 1e-300)
    spec = MappingSpec(
        op=AffineMap(matrix, rng.uniform(0.0, 1.0, size=d)),
        domain=Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=d)),
    )
    space = SpaceSpec(dim=d, p=draw(st.sampled_from([1.5, 2.0, 3.0])))
    return spec, x0, space, cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(affine_orbits())
def test_block_engine_matches_stepwise_on_random_affine_maps(case):
    assert_same_outcome(*case)


# ---------------------------------------------------------------------------
# batches: orbits stepped in lockstep, each held to the orbit run alone


def alone(spec, x0, space, cfg):
    return picard_orbit(spec, x0, space, cfg)


def assert_same_bits(rec, ref):
    for name in ("points", "residuals", "norms", "leq_up", "leq_down"):
        a, b = getattr(rec, name), getattr(ref, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert (rec.order_monotone, rec.verdict) == (ref.order_monotone, ref.verdict)


def assert_batch_matches_alone(specs, x0s, space, cfg):
    """Each orbit that runs alone without error has, in one batched call of
    those orbits, the record it has alone and under the stepwise engine, bit
    for bit; with the orbits that raise alone in it, the batch raises the
    error of one of them. Returns each orbit's record, or the type and text
    of the error it raises alone."""
    outcomes = []
    for spec, x0 in zip(specs, x0s):
        want = engine_outcome(alone, spec, x0, space, cfg)
        ref = engine_outcome(stepwise_orbit, spec, x0, space, cfg)
        if want[0] == "raised":
            assert want == ref
            outcomes.append(want[1:])
            continue
        assert ref[0] == "returned"
        assert_same_bits(want[1], ref[1])
        outcomes.append(want[1])
    ran = [i for i, out in enumerate(outcomes) if isinstance(out, OrbitRecord)]
    if ran:
        got = _orbit([specs[i] for i in ran], [x0s[i] for i in ran], space, cfg)
        assert len(got) == len(ran)
        for i, out in zip(ran, got):
            assert_same_bits(out, outcomes[i])
    if len(ran) < len(specs):
        with pytest.raises(Exception) as raised:
            _orbit(specs, x0s, space, cfg)
        assert (type(raised.value), str(raised.value)) in [out for out in outcomes if isinstance(out, tuple)]
    return outcomes


# residual_tol is first reached at these steps by the geometric orbits
# below, on both sides of the edges of lockstep blocks (8, 24, 49, 55, ...)
GEOMETRIC_STOPS = [1, 6, 7, 8, 9, 10, 22, 23, 24, 25, 26, 48, 49, 50, 54, 55, 56, 57]


def mixed_affine_batch(n, d, seed):
    """(specs, starts) of n orbits of affine maps on the orthant of R^d,
    whose first stops mix every kind: a geometric orbit converging at a
    chosen step, a random contraction, a growing map (norm 1 < rho < 1.5), a map
    whose entries near 1e300 overflow, an escape at a chosen step, and a
    start outside the domain."""
    rng = np.random.default_rng(seed)
    domain = Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=d))
    specs, starts = [], []
    for i in range(n):
        m = rng.uniform(0.0, 1.0, size=(d, d))
        m /= np.linalg.norm(m, 2)
        b = rng.uniform(0.1, 1.0, size=d)
        x0 = np.zeros(d)
        kind = i % 6
        if kind == 0:  # in l2, residual (7/6) tol at n = s - 1 and (7/8) tol at n = s
            s = GEOMETRIC_STOPS[(i // 6) % len(GEOMETRIC_STOPS)]
            op = AffineMap(0.75 * np.eye(d), b * (7 / 6 * 1e-10 / 0.75 ** (s - 1) / np.linalg.norm(b)))
        elif kind == 1:
            op = AffineMap(rng.uniform(0.2, 0.95) * m, b)
        elif kind == 2:
            op = AffineMap(rng.uniform(1.01, 1.5) * np.eye(d) + 0.1 * m, b)
        elif kind == 3:
            op = AffineMap(1e300 * m, b)
        elif kind == 4:  # the last coordinate falls by 1 a step from s + 0.5
            shift = np.full(d, 0.25)
            shift[-1] = -1.0
            op = AffineMap(np.eye(d), shift)
            x0[-1] = GEOMETRIC_STOPS[(i // 6) % len(GEOMETRIC_STOPS)] + 0.5
        else:
            op = AffineMap(0.5 * m, b)
            x0[0] = -1.0 if i % 12 == 5 else 0.0
        specs.append(MappingSpec(op=op, domain=domain))
        starts.append(x0)
    return specs, starts


class TestLockstepBatches:
    CFG = IterationConfig(max_iter=3000, residual_tol=1e-10, bound_threshold=1e3, window=50)

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 40])
    @pytest.mark.parametrize("max_iter", [1, 7, 8, 9, 3000])
    def test_every_orbit_as_run_alone(self, n, max_iter):
        d = [1, 2, 3, 5, 20][[1, 2, 7, 33, 40].index(n)]
        specs, starts = mixed_affine_batch(n, d, seed=n)
        cfg = dataclasses.replace(self.CFG, max_iter=max_iter)
        space = SpaceSpec(dim=d, p=[1.5, 2.0, 3.0][n % 3])
        got = assert_batch_matches_alone(specs, starts, space, cfg)
        if max_iter == 3000 and n >= 7:
            verdicts = {out.verdict if isinstance(out, OrbitRecord) else out[0] for out in got}
            assert {CONVERGED, UNBOUNDED_SUSPECTED, NONFINITE, DomainError} <= verdicts

    def test_stops_on_both_sides_of_the_block_edges(self):
        specs, starts = mixed_affine_batch(6 * len(GEOMETRIC_STOPS), 3, seed=1)
        got = assert_batch_matches_alone(specs, starts, SpaceSpec(dim=3, p=2.0), self.CFG)
        assert [len(out) - 1 for out in got[::6]] == GEOMETRIC_STOPS
        assert all(out.verdict == CONVERGED for out in got[::6])
        escapes = [out[1] for out in got[4::6]]
        assert all(f"escaped its domain at step {s}:" in e for s, e in zip(GEOMETRIC_STOPS, escapes))

    def test_mixed_maps_run_in_batches_of_their_kind(self):
        # translations step by a running sum, the affine maps by stacked
        # products, the rest alone; a list that mixes them is refused
        rng = np.random.default_rng(4)
        d = 3
        domain = Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=d))
        ops = []
        for i in range(24):
            if i % 3 == 0:
                ops.append(TranslationMap(rng.uniform(0.5, 1.5, size=d)))
            elif i % 3 == 1:
                ops.append(corpus.random_nonneg_affine(d, [0.5, 0.95][i % 2], rng).op)
            else:
                ops.append(CompositionMap([TranslationMap(np.ones(d)), TruncationMap(np.full(d, 5.0 + i))]))
        specs = [MappingSpec(op=op, domain=domain) for op in ops]
        space = SpaceSpec(dim=d, p=2.0)
        with pytest.raises(ValueError, match="one affine or translation kind on one cone"):
            _orbit(specs, [np.zeros(d)] * len(specs), space, self.CFG)
        translations = assert_batch_matches_alone(specs[::3], [np.zeros(d)] * 8, space, self.CFG)
        affine = assert_batch_matches_alone(specs[1::3], [np.zeros(d)] * 8, space, self.CFG)
        others = [assert_batch_matches_alone([s], [np.zeros(d)], space, self.CFG)[0] for s in specs[2::3]]
        assert [out.verdict for out in translations] == [UNBOUNDED_SUSPECTED] * 8
        assert all(out.verdict == CONVERGED for out in affine + others)

    def test_translation_batches_fill_blocks_by_running_sums(self, monkeypatch):
        calls = []
        plain = TranslationMap.evaluate
        monkeypatch.setattr(TranslationMap, "evaluate", lambda op, x: calls.append(x) or plain(op, x))
        specs, starts = zip(*(translation(np.full(2, 0.5 + i / 10)) for i in range(10)))
        got = _orbit(list(specs), list(starts), P2, self.CFG)
        # one evaluation an orbit, for its last point's residual
        assert [out.verdict for out in got] == [UNBOUNDED_SUSPECTED] * 10 and len(calls) == 10
        monkeypatch.undo()
        assert_batch_matches_alone(list(specs), list(starts), P2, self.CFG)

    def test_a_stacked_translation_batch_reaches_its_stop_in_few_blocks(self, monkeypatch):
        # the norms rise linearly to the ceiling of 1e4 (steps 6,773 and
        # 8,945): after the first 8 steps the trend sizes each block
        # straight to the last stop, at most 10,240 // 2 steps in R^2
        import orderfp.iterate as iterate

        blocks, plain = [], iterate._verdict_rules
        monkeypatch.setattr(iterate, "_verdict_rules", lambda *args: blocks.append(args[1].shape) or plain(*args))
        specs, starts = zip(*(translation(np.array(shift)) for shift in ([0.5, 1.0], [0.7, 1.3])))
        cfg = IterationConfig(max_iter=100_000, bound_threshold=1e4, window=50)
        got = _orbit(list(specs), list(starts), P2, cfg, verdicts=True)
        assert got == [UNBOUNDED_SUSPECTED] * 2 and len(blocks) <= 4
        monkeypatch.undo()
        assert_batch_matches_alone(list(specs), list(starts), P2, cfg)

    def test_blocks_hold_at_most_block_cap_rows(self, monkeypatch):
        import orderfp.iterate as iterate

        shapes = []
        plain = iterate._row_norms
        monkeypatch.setattr(iterate, "_row_norms", lambda space, v, *a: shapes.append(v.shape) or plain(space, v, *a))
        specs = [_random_map(5, 0.95 + i / 1000) for i in range(40)]
        got = _orbit(specs, [np.zeros(5)] * 40, SpaceSpec(dim=5, p=2.0), SMALL)
        assert all(out.verdict == CONVERGED for out in got)
        # a block takes its k residuals in one call and its start and k points in the next; the
        # orbits that go on then take their last two residuals and points, 4 rows each
        blocks, rows = [(a, b) for a, b in zip(shapes, shapes[1:]) if b == (a[0], a[1] + 1, 5)], block_rows(5)
        assert [s for s in shapes if s not in sum(blocks, ())] == [(a[0], 4, 5) for a, _ in blocks[1:]]
        assert max(a[0] * a[1] for a, _ in blocks) <= rows
        # the batch starts with 40 orbits, whose blocks are capped at 4096 // 40 steps
        assert blocks[0][0] == (40, BLOCK_FIRST, 5) and (40, rows // 40, 5) in [a for a, _ in blocks]

    @staticmethod
    def verdicts_of(specs, starts, space, cfg, verdicts=False):
        """The verdicts of one batched call, or the type and text of its error."""
        try:
            got = _orbit(specs, starts, space, cfg, verdicts=verdicts)
        except Exception as exc:
            return type(exc), str(exc)
        assert all(isinstance(out, str if verdicts else OrbitRecord) for out in got)
        return [out if verdicts else out.verdict for out in got]

    @pytest.mark.parametrize("n, max_iter", [(1, 7), (2, 3000), (7, 9), (33, 3000), (40, 8)])
    def test_verdicts_are_the_records_verdicts(self, n, max_iter):
        d = [1, 2, 3, 5, 20][[1, 2, 7, 33, 40].index(n)]
        specs, starts = mixed_affine_batch(n, d, seed=n)
        cfg, space = dataclasses.replace(self.CFG, max_iter=max_iter), SpaceSpec(dim=d, p=2.0)
        # the whole batch, which raises from n = 7 on, and the orbits that run alone without error
        ran = [i for i in range(n) if engine_outcome(alone, specs[i], starts[i], space, cfg)[0] == "returned"]
        for batch in (list(range(n)), ran):
            args = [specs[i] for i in batch], [starts[i] for i in batch], space, cfg
            assert self.verdicts_of(*args, verdicts=True) == self.verdicts_of(*args)
        assert len(ran) == n if n < 7 else len(ran) < n

    def test_a_verdict_takes_no_residual_of_the_last_point(self, monkeypatch):
        # a lattice orbit that runs out of budget on 3.25, off its lattice:
        # the residual of its last point raises for its record, and a verdict
        # does not take it
        values = np.append(0.5 * np.arange(1, 7), 3.25)[:, None]
        spec = MappingSpec(GridMap(origin=np.zeros(1), step=0.5, values=values),
                           Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=1)))
        space, cfg = SpaceSpec(dim=1, p=2.0), dataclasses.replace(self.CFG, max_iter=7)
        want = (DomainError, "point [3.25] is not on the lattice (step 0.5)")
        args = [spec], [np.zeros(1)], space, cfg
        assert self.verdicts_of(*args) == want
        assert self.verdicts_of(*args, verdicts=True) == [MAX_ITER_REACHED]
        for other in (corpus.affine_contraction(1), corpus.unit_translation(1)):
            args = [other], [np.zeros(1)], space, cfg
            assert self.verdicts_of(*args) == self.verdicts_of(*args, verdicts=True)
        # a stacked batch evaluates no map at all for its verdicts
        calls = []
        plain = TranslationMap.evaluate
        monkeypatch.setattr(TranslationMap, "evaluate", lambda op, x: calls.append(x) or plain(op, x))
        specs, starts = zip(*(translation(np.full(2, 0.5 + i / 10)) for i in range(10)))
        got = _orbit(list(specs), list(starts), P2, self.CFG, verdicts=True)
        assert got == [UNBOUNDED_SUSPECTED] * 10 and calls == []

    def test_mixed_and_other_maps_run_alone(self):
        # maps of mixed kinds, and two truncations that are not one map, are
        # refused; starts of one truncation batch, and each map runs alone
        specs = [corpus.affine_contraction(2), corpus.truncation_cap(2), corpus.unit_translation(2)]
        x0 = np.array([3.0, 0.5])
        for batch in (specs, [specs[1], corpus.truncation_cap(2)]):
            with pytest.raises(ValueError, match="starts of one map, or of one affine or translation kind on one cone"):
                _orbit(batch, [x0] * len(batch), P2, SMALL)
        got = assert_batch_matches_alone(specs[1:2] * 2, [x0, np.array([0.5, 7.0])], P2, SMALL)
        assert [out.verdict for out in got] == [CONVERGED] * 2
        for spec in specs:
            assert_same_outcome(spec, x0, P2, SMALL)

    def test_an_empty_batch(self):
        with pytest.raises(ValueError, match="starts of one map, or of one affine or translation kind on one cone"):
            _orbit([], [], P2, SMALL)

    @pytest.mark.parametrize("starts, want", [
        ([[1.0, 1.0], [-1.0, 0.0], [1.0, 2.0]], (DomainError, "starting point [-1.  0.] lies outside the mapping domain")),
        ([[1.0, 1.0], [math.nan, 0.0], [1.0, 2.0]], (ValueError, "vector has non-finite coordinates")),
        ([[1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 2.0]], (ValueError, "dimension mismatch: expected 2, got 3")),
        ([[1.0, 1.0], [[1.0, 2.0]], [1.0, 2.0]], (ValueError, "expected a 1-D coordinate array, got shape (1, 2)")),
        # the first bad start names the error, whichever kind comes after it
        ([[1.0, 1.0], [-1.0, 0.0], [1.0, 2.0, 3.0]], (DomainError, "starting point [-1.  0.] lies outside the mapping domain")),
        ([[1.0, 1.0], [1.0, math.inf], [-1.0, 0.0]], (ValueError, "vector has non-finite coordinates")),
    ])
    def test_a_bad_start_raises_its_own_error(self, starts, want):
        # a batch checks its starts in one call, and one by one only when
        # that check fails, so that the first bad start raises its error
        specs = [_random_map(2, rho) for rho in (0.5, 0.8, 0.95)]
        for verdicts in (False, True):
            assert TestLockstepBatches.verdicts_of(specs, starts, P2, SMALL, verdicts) == want
            assert TestLockstepBatches.verdicts_of(specs[1:2], starts[1:2], P2, SMALL, verdicts) == want


# ---------------------------------------------------------------------------
# one-map batches: starts of any one map stepped in lockstep


def lattice_map():
    """x -> values[x] on the lattice 0, 1, ..., 19 of the 1-D orthant: 0 climbs
    1, 2, 3 to 3.5, off the lattice; 9 descends to the fixed node 5; 10 and 11
    swap; 19 descends 15, 14, 13, 12, then climbs 16, 17 to the fixed node 18."""
    values = np.array([1, 2, 3, 3.5, 4, 5, 5, 6, 7, 8, 11, 10, 16, 12, 13, 14, 17, 18, 18, 15], dtype=float)
    return MappingSpec(GridMap(origin=np.zeros(1), step=1.0, values=values[:, None]), CONE1)


ORTH2_CONE = Domain(kind="cone", cone=ORTH2)
BOX2 = Domain(kind="box", cone=ORTH2, lo=np.zeros(2), hi=np.full(2, 10.0))
# (spec, starts, cfg) of one map each; the starts converge, escape, overflow or raise
ONE_MAP_CASES = {
    "truncation": (MappingSpec(TruncationMap(np.full(2, 2.0)), Domain(kind="interval", cone=ORTH2, lo=np.ones(2),
                                                                     hi=np.full(2, 3.0))),
                   [[1.5, 1.5], [2.5, 1.0], [3.0, 3.0], [0.5, 2.0], [math.nan, 2.0], [2.9, 2.1]], SMALL),
    "box_projection": (MappingSpec(BoxProjectionMap(np.ones(2), np.full(2, 2.0)), BOX2),
                       [[0.0, 0.0], [1.5, 9.0], [-1.0, 1.0], [10.0, 10.0], [1.0, 2.0]], SMALL),
    # min(2x - 1, 9): 1 is fixed, above it an orbit climbs to 9, below it falls out of the orthant
    "composition_escape": (MappingSpec(CompositionMap([AffineMap(2.0 * np.eye(2), -np.ones(2)), TruncationMap(
        np.full(2, 9.0))]), ORTH2_CONE), [[1.0, 1.0], [1.5, 1.0], [0.5, 1.0], [0.75, 1.0], [0.875, 1.0]], SMALL),
    "composition_climb": (MappingSpec(CompositionMap([TranslationMap(np.ones(2)), TruncationMap(np.full(2, 40.0))]),
                                      ORTH2_CONE), [[0.0, 0.0], [39.5, 12.0], [-1.0, 0.0], [40.0, 40.0], [5.0, 33.0]],
                          SMALL),
    "composition_overflow": (MappingSpec(CompositionMap([AffineMap(1e200 * np.eye(2), np.ones(2)),
                                                         TranslationMap(np.zeros(2))]), ORTH2_CONE),
                             [[0.0, 0.0], [1e-250, 0.0], [-1.0, 0.0], [3.0, 1.0], [0.0, 1e-300]], SMALL),
    "grid": (lattice_map(), [[0.0], [9.0], [4.0], [3.0], [0.5], [25.0], [6.0], [10.0], [19.0]],
             IterationConfig(max_iter=20, bound_threshold=2.5, window=2)),
    "affine_on_a_box": (MappingSpec(AffineMap(np.array([[0.5, 0.25], [0.0, 2.0]]), np.array([1.0, 0.0])), BOX2),
                        [[0.0, 0.0], [1.0, 1.0], [4.0, 0.0], [11.0, 0.0], [0.0, 9.0]], SMALL),
}


class TestOneMapBatches:
    """Starts of one map of any kind step as one batch: a stacked map by its
    stacked step, any other by one evaluate call of the live rows a step (the
    1-D call once one orbit is left); each orbit gets the record, verdict or
    error it gets alone."""

    @pytest.mark.parametrize("case", list(ONE_MAP_CASES))
    def test_every_start_as_run_alone(self, case):
        spec, starts, cfg = ONE_MAP_CASES[case]
        space = SpaceSpec(dim=spec.dim, p=2.0)
        x0s = [np.array(x) for x in starts]
        got = assert_batch_matches_alone([spec] * len(x0s), x0s, space, cfg)
        ran = [i for i, out in enumerate(got) if isinstance(out, OrbitRecord)]
        assert 0 < len(ran) < len(x0s)
        verdicts = _orbit([spec] * len(ran), [x0s[i] for i in ran], space, cfg, verdicts=True)
        assert verdicts == [one_verdict(spec, x0s[i], space, cfg) for i in ran]

    def test_the_cases_stop_every_way(self):
        kinds = set()
        for spec, starts, cfg in ONE_MAP_CASES.values():
            space = SpaceSpec(dim=spec.dim, p=2.0)
            for x0 in starts:
                out = engine_outcome(one_orbit, spec, np.array(x0), space, cfg)
                kinds.add(out[1].verdict if out[0] == "returned" else "escape" if "escaped" in out[2] else out[1])
        assert {CONVERGED, UNBOUNDED_SUSPECTED, NONFINITE, "escape", DomainError, ValueError} <= kinds

    def test_an_image_that_raises_after_an_orbit_stops_fails_no_orbit(self):
        # from 0 the orbit stops at 3 (growth past 2.5), but its block steps on to
        # 3.5 and then raises at step 4, which ends the block there; the others
        # run on from step 4 with the growth window of steps 2 and 3
        spec, _, cfg = ONE_MAP_CASES["grid"]
        space = SpaceSpec(dim=1, p=2.0)
        with pytest.raises(DomainError, match=r"point \[3.5\] is not on the lattice"):
            spec.op.evaluate(np.array([3.5]))
        starts = [np.full(1, x) for x in (0.0, 9.0, 10.0, 19.0)]
        got = assert_batch_matches_alone([spec] * 4, starts, space, cfg)
        assert [(out.verdict, out.points.ravel().tolist()) for out in got] == [
            (UNBOUNDED_SUSPECTED, [0.0, 1.0, 2.0, 3.0]), (CONVERGED, [9.0, 8.0, 7.0, 6.0, 5.0]),
            (MAX_ITER_REACHED, [10.0, 11.0] * 10 + [10.0]), (UNBOUNDED_SUSPECTED, [19.0, 15.0, 14.0, 13.0, 12.0, 16.0])]
        assert _orbit([spec] * 4, starts, space, cfg, verdicts=True) == [
            UNBOUNDED_SUSPECTED, CONVERGED, MAX_ITER_REACHED, UNBOUNDED_SUSPECTED]

    def test_the_batch_raises_the_error_of_an_orbit_whose_own_point_raises(self):
        spec, _, cfg = ONE_MAP_CASES["grid"]
        space = SpaceSpec(dim=1, p=2.0)
        # from 2 the orbit reaches 3.5 at step 2 while the others run on: its own error
        starts = [np.full(1, 9.0), np.zeros(1), np.full(1, 2.0)]
        for verdicts in (False, True):
            with pytest.raises(DomainError, match=r"^point \[3.5\] is not on the lattice \(step 1.0\)$"):
                _orbit([spec] * 3, starts, space, dataclasses.replace(cfg, bound_threshold=50.0), verdicts=verdicts)

    def test_a_row_call_that_raises_takes_each_rows_own_image(self):
        # NanAbove tests its first coordinate as one point's: a row call raises,
        # and every row's own call gives its image
        spec = MappingSpec(op=NanAbove(cut=10.0), domain=ORTH2_CONE)
        with pytest.raises(ValueError, match="ambiguous"):
            spec.op.evaluate(np.zeros((2, 2)))
        got = assert_batch_matches_alone([spec] * 3, [np.zeros(2), np.ones(2), np.full(2, 20.0)], P2, SMALL)
        assert [out.verdict for out in got] == [NONFINITE] * 3

    def test_a_step_is_one_call_of_the_live_rows(self, monkeypatch):
        shapes = []
        plain = TruncationMap.evaluate
        monkeypatch.setattr(TruncationMap, "evaluate", lambda op, x: shapes.append(x.shape) or plain(op, x))
        spec = MappingSpec(CompositionMap([TranslationMap(np.ones(1)), TruncationMap(np.full(1, 50.0))]), CONE1)
        got = _orbit([spec] * 4, [np.full(1, float(x)) for x in (0, 10, 20, 30)], LINE2, LONG)
        assert [len(out) - 1 for out in got] == [50, 40, 30, 20]
        # blocks of 8, 16 and 32 steps: the orbit from 30 converges in the second, the others in the third
        assert shapes == [(4, 1)] * 24 + [(3, 1)] * 32
        shapes.clear()
        one_orbit(spec, np.zeros(1), LINE2, LONG)  # a lone orbit takes the 1-D call
        assert shapes == [(1,)] * 56


# ---------------------------------------------------------------------------
# verdict runs: stopping rules decided from power sums and block bounds


def verdict_batch(kind, d, flavours, rng):
    """(specs, starts) of one batch of affine or translation maps on the
    orthant of R^d, one orbit per flavour: "converge", "grow", "nonfinite"
    (an image past the float range), "escape" (the orbit leaves the orthant)
    or "tiny" (steps near the underflow range); or one of the EDGES of the
    escape test: "below_zero" (a start of 0 but for one coordinate of
    -1e-12, inside the membership tolerance, and a matrix of scale 1e6 with
    no offset), "signed_zero" (a start coordinate of -0.0), "inf_entry" and
    "nan_entry" (a matrix entry; a translation, which holds no such entry,
    shifts by up to 1.7e308 or 1e-12) or "neg_entry" (one negative entry)."""
    domain = Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=d))
    specs, starts = [], []
    for flavour in flavours:
        base = rng.uniform(0.5, 1.5, size=d)
        if kind == "translation":
            scale = {"converge": 1e-12, "grow": 1.0, "nonfinite": 1e307, "escape": 1.0, "tiny": 1e-305,
                     "below_zero": 1.0, "signed_zero": 1e-12, "inf_entry": 1.7e308 / 1.5, "nan_entry": 1e-12,
                     "neg_entry": 1.0}[flavour]
            shift = scale * base
            if flavour == "escape":
                shift[-1] = -rng.uniform(0.01, 1.0)
            if flavour == "neg_entry":  # too small a drift to leave the orthant within the budget
                shift[0] = -1e-300
            op = TranslationMap(shift)
        else:
            m = rng.uniform(0.0, 1.0, size=(d, d))
            m /= np.linalg.norm(m, 2)
            rho = {"converge": rng.uniform(0.1, 0.95), "grow": rng.uniform(1.05, 2.0), "nonfinite": 1e300,
                   "escape": 0.5, "tiny": 0.5, "below_zero": 1e6}.get(flavour, 0.5)
            offset = base * {"tiny": 1e-300, "below_zero": 0.0}.get(flavour, 1.0)
            if flavour == "escape":
                offset[-1] = -rng.uniform(0.01, 1.0)
            m[0, -1] = {"inf_entry": math.inf, "nan_entry": math.nan, "neg_entry": -1.0}.get(flavour, m[0, -1])
            op = AffineMap(rho * m, offset)
        specs.append(MappingSpec(op=op, domain=domain))
        starts.append(np.zeros(d) if flavour in ("escape", "below_zero")
                      else rng.uniform(0.0, 2.0, size=d) * (flavour != "tiny"))
        if flavour in ("below_zero", "signed_zero"):
            starts[-1][0] = -1e-12 if flavour == "below_zero" else -0.0
    return specs, starts


def record_and_verdicts(specs, starts, space, cfg):
    """The verdicts of a record run and of a verdict run of one batch, each
    as a list of verdicts or the type and text of the error it raised."""
    return [TestLockstepBatches.verdicts_of(specs, starts, space, cfg, verdicts=v) for v in (False, True)]


FLAVOURS = ["converge", "grow", "nonfinite", "escape", "tiny"]
EDGES = ["below_zero", "signed_zero", "inf_entry", "nan_entry", "neg_entry"]


@st.composite
def verdict_cases(draw):
    kind = draw(st.sampled_from(["affine", "translation"]))
    d = draw(st.integers(1, 4))
    space = SpaceSpec(dim=d, p=draw(st.sampled_from([1.5, 2.0, 3.0])))
    flavours = draw(st.lists(st.sampled_from(FLAVOURS + EDGES), min_size=1, max_size=6))
    specs, starts = verdict_batch(kind, d, flavours, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    tol = draw(st.sampled_from([1e-300, 1e-10, 1e200, "at", "ulp"]))
    if tol in ("at", "ulp"):  # the first orbit's first residual is tol, or one ulp above it
        with np.errstate(all="ignore"):
            step = specs[0].op.evaluate(starts[0]) - starts[0]
        assume(np.isfinite(step).all())
        first = norm(space, step)
        tol = first if tol == "at" else math.nextafter(first, 0.0)
        assume(0.0 < tol < math.inf)
    cfg = IterationConfig(
        max_iter=draw(st.integers(1, 600)),
        residual_tol=tol,
        bound_threshold=draw(st.sampled_from([1e-3, 10.0, 1e4, 1e200])),
        window=draw(st.sampled_from([0, 1, 7, 50])),
    )
    return specs, starts, space, cfg


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(verdict_cases())
def test_verdict_runs_give_the_record_runs_verdicts(case):
    specs, starts, space, cfg = case
    record, verdicts = record_and_verdicts(specs, starts, space, cfg)
    assert verdicts == record
    if isinstance(record, tuple):
        return
    # budgets that end at or just before an orbit's stop, where a stop
    # found a step late or early changes the verdict
    budgets = set()
    for rec in _orbit(specs, starts, space, cfg):
        if rec.verdict != MAX_ITER_REACHED:
            budgets |= {len(rec) - 2, len(rec) - 1, len(rec)} - {0, -1}
    for n in sorted(budgets):
        record, verdicts = record_and_verdicts(specs, starts, space, dataclasses.replace(cfg, max_iter=n))
        assert verdicts == record


class TestVerdictRuns:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("tol, top", [(1e-300, 1e-3), (1e-300, 1e200), (1e200, 1e-3), (1e200, 1e200),
                                          (1e-10, 1e4)])
    @pytest.mark.parametrize("kind", ["affine", "translation"])
    def test_every_flavour_at_the_extremes(self, kind, p, tol, top):
        d = 3
        space = SpaceSpec(dim=d, p=p)
        specs, starts = verdict_batch(kind, d, FLAVOURS * 2, np.random.default_rng(7))
        cfg = IterationConfig(max_iter=3000, residual_tol=tol, bound_threshold=top, window=50)
        # the whole batch raises the escape; without the escapes each orbit gets its verdict
        outcomes = []
        for keep in (range(len(specs)), [i for i, f in enumerate(FLAVOURS * 2) if f != "escape"]):
            record, verdicts = record_and_verdicts([specs[i] for i in keep], [starts[i] for i in keep], space, cfg)
            assert verdicts == record
            outcomes.append(record)
        assert outcomes[0][0] is DomainError and NONFINITE in outcomes[1]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("ulps", [0, 1])
    def test_a_shift_whose_norm_is_the_tolerance(self, p, ulps):
        # the first residual of x -> x + shift from 0 is the norm of the
        # shift: at the tolerance the orbit converges at once, one ulp above
        # it runs on
        space = SpaceSpec(dim=2, p=p)
        specs, starts = zip(*(translation(np.array([0.3 + i / 7, 0.9])) for i in range(3)))
        tol = norm(space, specs[1].op.shift)
        for _ in range(ulps):
            tol = math.nextafter(tol, 0.0)
        cfg = IterationConfig(max_iter=300, residual_tol=tol, bound_threshold=10.0, window=5)
        record, verdicts = record_and_verdicts(list(specs), list(starts), space, cfg)
        assert verdicts == record
        rec = picard_orbit(specs[1], starts[1], space, cfg)
        assert rec.residuals[0] == (math.nextafter(tol, math.inf) if ulps else tol)
        assert (len(rec) == 1) == (ulps == 0)

    def test_cuts_that_are_not_normal_floats_decide_nothing(self):
        space = SpaceSpec(dim=2, p=2.0)
        cuts = lambda tol, top: _verdict_cuts(space, IterationConfig(residual_tol=tol, bound_threshold=top))
        lo, hi, cut, top = cuts(1e-10, 1e4)
        assert lo < 1e-20 < hi < math.inf and 0.0 < cut < 1e8 and 0.0 < top * math.sqrt(2.0) < 1e4
        # 1e200 ** 2.0 raises OverflowError, and (1e-300)^2 underflows to 0
        assert cuts(1e200, 1e4)[:2] == cuts(1e-300, 1e4)[:2] == (0.0, math.inf)
        assert cuts(1e200, 1e4)[2:] == cuts(1e-300, 1e4)[2:] == (cut, top)
        assert cuts(1e-10, 1e-320)[2:] == (0.0, 0.0)  # 1e-320 is subnormal

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_a_norm_above_the_threshold_only_inside_a_block(self, p):
        # x -> M x with M^2 = 0.8 I: the norm rises above 3 at steps 1 and 3
        # only, far from the end of the first block; growth fires at the
        # first, and a verdict run that let either pass would miss it
        space = SpaceSpec(dim=2, p=p)
        domain = Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=2))
        spec = MappingSpec(AffineMap(np.array([[0.0, 4.0], [0.2, 0.0]]), np.zeros(2)), domain)
        other = MappingSpec(AffineMap(0.5 * np.eye(2), np.full(2, 0.5)), domain)  # fixed at (1, 1)
        cfg = IterationConfig(max_iter=40, residual_tol=1e-10, bound_threshold=3.0, window=1)
        norms = picard_orbit(spec, np.ones(2), space, dataclasses.replace(cfg, bound_threshold=1e4)).norms
        assert norms[1] > 3.0 and norms[3] > 3.0 and (np.delete(norms, [1, 3]) < 3.0).all()
        record, verdicts = record_and_verdicts([spec, other], [np.ones(2)] * 2, space, cfg)
        assert verdicts == record == [UNBOUNDED_SUSPECTED, CONVERGED]

    def test_an_image_at_minus_inf_is_nonfinite_not_an_escape(self):
        # the image of 1 under x -> -1e308 x - 1e308 is -inf: below the cone,
        # but an orbit that overflows stops as nonfinite
        domain = Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=1))
        specs = [MappingSpec(AffineMap(np.array([[a]]), np.array([a])), domain) for a in (-1e308, 0.5)]
        record, verdicts = record_and_verdicts(specs, [np.ones(1)] * 2, LINE2, SMALL)
        assert verdicts == record == [NONFINITE, CONVERGED]

    @pytest.mark.parametrize("matrix, start, want, closed", [
        # within MEMBERSHIP_TOL of the orthant, times 1e6: the image is -1e-6, an escape
        ([[1e6, 0.0], [0.0, 0.5]], [-1e-12, 1.0], DomainError, False),
        # -0.0 >= 0, and its images are signed zeros: as from +0.0
        ([[0.5, 0.0], [0.0, 0.5]], [-0.0, 1.0], CONVERGED, True),
        ([[math.inf, 0.0], [0.0, 0.5]], [1.0, 1.0], NONFINITE, True),
        ([[math.inf, 0.0], [0.0, 0.5]], [0.0, 1.0], NONFINITE, True),  # inf * 0 is nan
        ([[math.nan, 0.0], [0.0, 0.5]], [1.0, 1.0], NONFINITE, False),  # nan >= 0 fails
        ([[0.5, -1.0], [0.0, 0.5]], [1.0, 1.0], DomainError, False),
    ])
    def test_only_a_batch_that_can_leave_the_orthant_takes_the_escape_test(self, monkeypatch, matrix, start,
                                                                              want, closed):
        # sums and products of entries >= 0 stay >= 0 or are nan, and a nan
        # image is nonfinite before it is an escape: such a batch tests only
        # its starts for membership, and every other batch tests each image
        import orderfp.iterate as iterate

        domain = Domain(kind="cone", cone=ORTH2)
        spec = MappingSpec(AffineMap(np.array(matrix), np.array([0.0, 0.5])), domain)
        other = MappingSpec(AffineMap(0.5 * np.eye(2), np.full(2, 0.5)), domain)  # fixed at (1, 1)
        shapes, plain = [], iterate._domain_contains_raw
        monkeypatch.setattr(iterate, "_domain_contains_raw", lambda dom, v, tol: shapes.append(v.shape) or
                            plain(dom, v, tol))
        for specs in ([spec], [spec, other]):
            record, verdicts = record_and_verdicts(specs, [np.array(start), np.ones(2)][: len(specs)], P2, SMALL)
            assert verdicts == record
            if want is DomainError:
                assert record[0] is DomainError and "escaped its domain at step 0" in record[1]
            else:
                assert record == [want, CONVERGED][: len(specs)]
        # each run tests its start, or a batch's starts in one call, and the images only where the
        # batch is not closed
        assert [shape for shape in shapes if len(shape) < 3] == [(2,)] * 2 + [(2, 2)] * 2
        assert all(len(shape) < 3 for shape in shapes) == closed
        if start[0] == 0.0:  # a start coordinate of -0.0 gives the verdicts of +0.0
            assert record_and_verdicts([spec], [np.array([0.0, 1.0])], P2, SMALL) == [[want]] * 2

    @pytest.mark.parametrize("rhos, zero_blocks", [((0.95, 0.99), 0), ((0.5, 0.8, 0.95, 0.99), 2)])
    def test_only_a_block_with_an_open_row_takes_row_norms(self, monkeypatch, rhos, zero_blocks):
        # these orbits' residuals are far from the tolerance and their points
        # below the block bound, so a block's rules root no row, and the only
        # norms taken are one `_row_norms` call a block for the last two
        # residuals and points of the orbits that go on, which size the next
        # block; a residual of exactly 0 (an orbit that reached its fixed
        # point, while the others run on in lockstep) is decided too: its sum
        # is below a normal cut. In R^20 a block holds at most 1,024 rows, so
        # each batch takes at least three blocks, one of them full
        import orderfp.iterate as iterate

        calls, zeros, sizes, lasts, rooted, plain_rows, plain_roots, plain_block = (
            [], [], [], [], [], iterate._row_norms, iterate._roots, iterate._verdict_rules)
        monkeypatch.setattr(iterate, "_row_norms", lambda *args: calls.append(args) or plain_rows(*args))
        monkeypatch.setattr(iterate, "_roots", lambda space, sums, rows: rooted.append(rows) or
                            plain_roots(space, sums, rows))

        def block(space, diff, pts, *args):
            zeros.append(bool((diff == 0.0).all(axis=-1).any()))
            sizes.append(diff.shape[:2])
            lasts.append(np.concatenate((diff[:, -2:], pts[:, -2:]), axis=1).tolist())
            return plain_block(space, diff, pts, *args)

        monkeypatch.setattr(iterate, "_verdict_rules", block)
        specs = [_random_map(20, rho) for rho in rhos]
        got = _orbit(specs, [np.zeros(20)] * len(specs), SpaceSpec(dim=20, p=2.0), LONG, verdicts=True)
        assert got == [CONVERGED] * len(specs) and len(zeros) >= 3 and block_rows(20) in [n * k for n, k in sizes]
        # none at all: the starting norms are a block's rows
        assert sum(zeros) == zero_blocks and rooted == []
        # a call between two blocks takes 4 rows for each orbit of the second, each orbit's last
        # two residuals and points in the first
        assert len(calls) == len(sizes) - 1
        for (_, rows), last, (n, _) in zip(calls, lasts, sizes[1:]):
            assert len(rows) == n and all(orbit in last for orbit in rows.tolist())

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_a_residual_sum_of_zero_is_decided_and_a_sizing_row_stays_exact(self, monkeypatch, p):
        # residual rows whose powers underflow to a sum of 0, (1e-300, 0) or
        # (0, 0), are decided as converged with no root, and (1e-3, 0) as
        # not: `_roots` gets no row. An orbit that goes on is sized from the
        # exact norms of its last rows, also when their sums are 0: x -> x +
        # (1e-300, 0) under a subnormal tolerance, which decides nothing, runs
        # out of budget, and each block after the first is sized from the
        # exact norms of residuals near 1e-300
        import orderfp.iterate as iterate

        calls, plain = [], iterate._roots
        monkeypatch.setattr(iterate, "_roots", lambda space, s, v: calls.append(v.copy()) or plain(space, s, v))
        space = SpaceSpec(dim=2, p=p)
        cuts = _verdict_cuts(space, IterationConfig())
        tiny, zero = [1e-300, 0.0], [0.0, 0.0]
        diff = np.array([[tiny, [1e-3, 0.0], tiny, zero], [zero, tiny, zero, tiny]])
        halt = np.zeros(diff.shape[:2], bool)
        norms, bad = iterate._verdict_rules(space, diff, np.ones((2, 5, 2)), cuts, 1e-10, halt)
        assert halt.tolist() == [[True, False, True, True], [True] * 4] and not bad.any() and norms is None
        assert calls == []
        monkeypatch.undo()
        sizing, plain_next = [], iterate._next_block
        monkeypatch.setattr(iterate, "_next_block", lambda *args: sizing.append(args[:3]) or plain_next(*args))
        spec, x0 = translation(np.array(tiny))
        cfg = IterationConfig(max_iter=3000, residual_tol=1e-310, bound_threshold=1e4, window=5)
        assert _orbit([spec], [x0], space, cfg, verdicts=True) == [MAX_ITER_REACHED] and sizing
        monkeypatch.undo()
        record, n = picard_orbit(spec, x0, space, cfg), 0
        assert record.verdict == MAX_ITER_REACHED and (record.residuals > 1e-301).all()
        for k, res, norms in sizing:  # the record's norms of the last two residuals and points
            n += k
            assert res.tolist() == [record.residuals[n - 2 : n].tolist()] and norms.tolist() == [
                record.norms[n - 1 : n + 1].tolist()]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_an_open_middle_row_alone_takes_a_masked_root(self, monkeypatch, p):
        # a residual at the tolerance and a point at the threshold are in the
        # band around their cuts: `_roots` gets those rows alone, the
        # residual's root decides its rule, and the point's norm is exact;
        # every other point stands in as -inf
        import orderfp.iterate as iterate

        calls, plain = [], iterate._roots
        monkeypatch.setattr(iterate, "_roots", lambda space, s, v: calls.append((v.copy(), plain(space, s, v)))
                            or calls[-1][1])
        space, cfg = SpaceSpec(dim=2, p=p), IterationConfig()
        diff, pts = np.full((2, 4, 2), 0.5), np.ones((2, 5, 2))
        diff[1, 1], pts[0, 2] = [cfg.residual_tol, 0.0], [cfg.bound_threshold, 0.0]
        halt = np.zeros(diff.shape[:2], bool)
        norms, bad = iterate._verdict_rules(space, diff, pts, _verdict_cuts(space, cfg), cfg.residual_tol, halt)
        assert [rows.tolist() for rows, _ in calls] == [[[cfg.residual_tol, 0.0]], [[cfg.bound_threshold, 0.0]]]
        assert calls[0][1].tolist() == [norm(space, diff[1, 1])] and norms[0, 2] == norm(space, pts[0, 2])
        assert halt.tolist() == [[False] * 4, [False, norm(space, diff[1, 1]) <= cfg.residual_tol, False, False]]
        assert not bad.any() and np.delete(norms.ravel(), 2).tolist() == [-math.inf] * 9

    @pytest.mark.parametrize("threshold, window, want", [
        # the contraction converges at step 33 and the translation passes the threshold at step 36
        (50.0, 5, [(CONVERGED, 33), (UNBOUNDED_SUSPECTED, 36)]),
        # the first block lies below top, and its points stand in as -inf in
        # the window of the next, whose first point passes the threshold
        (12.0, 5, [(CONVERGED, 33), (UNBOUNDED_SUSPECTED, 9)]),
        (30.0, 0, [(CONVERGED, 33), (MAX_ITER_REACHED, 200)]),  # no window, no growth
        (30.0, 60, [(CONVERGED, 33), (UNBOUNDED_SUSPECTED, 60)]),  # a window longer than the blocks
    ])
    def test_one_orbit_converges_while_another_passes_top(self, monkeypatch, threshold, window, want):
        # x -> x / 2 + 1/2 and x -> x + 1 from 0 in one batch: a block in
        # which the second orbit's points pass top takes the growth rule, the
        # first block does not, and both runs stop where the records do
        import orderfp.iterate as iterate

        domain = Domain(kind="cone", cone=ORTH2)
        specs = [MappingSpec(AffineMap(a * np.eye(2), np.full(2, b)), domain) for a, b in ((0.5, 0.5), (1.0, 1.0))]
        cfg = IterationConfig(max_iter=200, residual_tol=1e-10, bound_threshold=threshold, window=window)
        blocks, plain = [], iterate._verdict_rules

        def block(space, diff, *args):  # each block's steps, and whether it took the growth rule
            norms, bad = plain(space, diff, *args)
            blocks.extend([diff.shape[1], norms is not None])
            return norms, bad

        monkeypatch.setattr(iterate, "_verdict_rules", block)
        record, verdicts = record_and_verdicts(specs, [np.zeros(2)] * 2, P2, cfg)
        assert verdicts == record == [v for v, _ in want] and blocks[:2] == [BLOCK_FIRST, False]
        assert [len(rec) - 1 for rec in _orbit(specs, [np.zeros(2)] * 2, P2, cfg)] == [n for _, n in want]
        if threshold == 50.0:  # one block holds both stops, and takes the growth rule
            assert blocks[2:] == [35, True] and BLOCK_FIRST < 33 < 36 <= BLOCK_FIRST + 35
        # budgets that end at or just before a stop, where a stop found a step late changes the verdict
        for n in sorted({n + i for _, n in want for i in (-1, 0, 1)} - {0}):
            record, verdicts = record_and_verdicts(specs, [np.zeros(2)] * 2, P2, dataclasses.replace(cfg, max_iter=n))
            assert verdicts == record

    @pytest.mark.parametrize("max_iter", [7, 8, 9, 100])
    def test_points_below_zero_pass_top_by_their_magnitude(self, max_iter):
        # x -> x - (1, 1) on the box [-1e6, 0]^2 from 0: every coordinate is
        # at most 0 and its norm passes 10 at step 8; a block takes the growth
        # rule by the largest |coordinate|, not the largest coordinate
        domain = Domain(kind="box", cone=ORTH2, lo=np.full(2, -1e6), hi=np.zeros(2))
        spec = MappingSpec(TranslationMap(np.full(2, -1.0)), domain)
        cfg = IterationConfig(max_iter=max_iter, residual_tol=1e-10, bound_threshold=10.0, window=5)
        record, verdicts = record_and_verdicts([spec], [np.zeros(2)], P2, cfg)
        assert verdicts == record == [UNBOUNDED_SUSPECTED if max_iter >= 8 else MAX_ITER_REACHED]

    @pytest.mark.parametrize("window, want", [(2, CONVERGED), (1, UNBOUNDED_SUSPECTED)])
    def test_convergence_ranks_before_growth_on_one_row(self, window, want):
        # x -> (2e4, 0) jumps past the threshold at step 1 and stays there:
        # with a window of 2, growth fires on row 1, whose residual is 0, and
        # the orbit converges; with a window of 1 it fires on row 0
        domain = Domain(kind="cone", cone=ORTH2)
        jump = MappingSpec(AffineMap(np.zeros((2, 2)), np.array([2e4, 0.0])), domain)
        other = MappingSpec(AffineMap(0.5 * np.eye(2), np.full(2, 0.5)), domain)
        cfg = IterationConfig(max_iter=100, residual_tol=1e-10, bound_threshold=1e4, window=window)
        record, verdicts = record_and_verdicts([jump, other], [np.zeros(2)] * 2, P2, cfg)
        assert verdicts == record == [want, CONVERGED]
        assert len(picard_orbit(jump, np.zeros(2), P2, cfg)) == 2

    def test_a_verdict_block_holds_no_array_of_the_block_before(self, monkeypatch):
        # by the time a block takes its norms, the block before's slabs, its
        # rule flags and its norm and sizing arrays are gone: the next block
        # gets copies of the last points and growth windows, not views into
        # that block
        import weakref

        import orderfp.iterate as iterate

        refs, plain, plain_next = [], iterate._verdict_rules, iterate._next_block

        def block(space, diff, pts, cuts, tol, halt):
            assert all(ref() is None for ref in refs)
            norms, bad = plain(space, diff, pts, cuts, tol, halt)
            refs[:] = [weakref.ref(pts.base), weakref.ref(halt.base)] + ([weakref.ref(norms)] if norms is not None
                                                                          else [])
            return norms, bad

        def sized(k, res, norms, *args):
            refs.append(weakref.ref(res.base))
            return plain_next(k, res, norms, *args)

        monkeypatch.setattr(iterate, "_verdict_rules", block)
        monkeypatch.setattr(iterate, "_next_block", sized)
        for specs in ([_random_map(2, rho) for rho in (0.9, 0.99)],
                      [translation(np.array(shift))[0] for shift in ([0.5, 1.0], [0.7, 1.3])]):
            refs.clear()
            cfg = IterationConfig(max_iter=100_000, bound_threshold=1e4, window=50)
            got = _orbit(specs, [np.zeros(2)] * 2, P2, cfg, verdicts=True)
            assert got[0] == got[1] != MAX_ITER_REACHED and refs

    def test_blocks_are_sized_as_in_a_record_run(self, monkeypatch):
        # the last two residuals and points of each orbit take exact norms,
        # so a verdict run sizes its blocks from the record run's trends: the
        # contractions' one prediction, the tails' three, and the
        # translations' capped blocks
        import orderfp.iterate as iterate

        plain, sizes = iterate._next_block, []
        monkeypatch.setattr(iterate, "_next_block", lambda *args: sizes.append(plain(*args)) or sizes[-1])
        contractions = [_random_map(3, rho) for rho in (0.5, 0.8, 0.95, 0.99)]
        # residuals whose rate passes from 0.4 to 0.98: each residual ratio
        # predicts a stop too early, and the next block goes past twice the last
        domain = Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=5))
        tails = [MappingSpec(AffineMap(np.diag([0.1, 0.4, 0.7, 0.9, 0.98]), 1e-2 ** np.arange(5.0) * (1 + i / 10)),
                             domain) for i in range(4)]
        translations = [translation(np.array([0.5, 1.0, 1.5]) * (1 + i / 10))[0] for i in range(4)]
        cfg = dataclasses.replace(LONG, max_iter=20_000)
        # the translations: 8 steps, then blocks of 6,826 // 4 rows up to the budget
        for specs, blocks in ((contractions, 1), (tails, 3),
                              (translations, 1 + math.ceil((20_000 - 8) / (block_rows(3) // 4)))):
            runs, dim = [], specs[0].dim
            for verdicts in (False, True):
                sizes.clear()
                _orbit(specs, [np.zeros(dim)] * 4, SpaceSpec(dim=dim, p=2.0), cfg, verdicts=verdicts)
                runs.append(list(sizes))
            assert runs[0] == runs[1] and len(runs[0]) == blocks
            if specs is tails:
                assert all(n > 2 * k for k, n in zip([BLOCK_FIRST] + runs[0], runs[0]))
