"""Orbit generation, order tracking, and limits."""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderfp import corpus
from orderfp.iterate import (
    BLOCK_CAP,
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
    mann_orbit,
    monotone_limit,
    picard_orbit,
    read_orbit_points,
    write_orbit_csv,
    _next_block,
    _orbit,
    _step_flags,
)
from orderfp.mapping import (
    AffineMap,
    CompositionMap,
    Domain,
    DomainError,
    GridMap,
    MappingSpec,
    TranslationMap,
    TruncationMap,
    _domain_contains_raw,
    make_mapping,
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
    return make_mapping(op, Domain(kind="cone", cone=ORTH2))


class TestPicard:
    def test_fixed_start_converges_immediately(self):
        rec = picard_orbit(corpus.affine_contraction(2), [2.0, 2.0], ORTH2, P2)
        assert rec.verdict == CONVERGED
        assert len(rec) == 1
        assert rec.residuals[0] == 0.0

    def test_translation_orbit_is_exactly_linear(self):
        rec = picard_orbit(corpus.unit_translation(2), [0.0, 0.0], ORTH2, P2, SMALL)
        assert rec.verdict == UNBOUNDED_SUSPECTED
        assert rec.order_monotone == INCREASING
        for n in range(min(len(rec), 200)):
            assert np.array_equal(rec.points[n], np.full(2, float(n)))

    def test_geometric_orbit_matches_closed_form(self):
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], ORTH2, P2)
        assert rec.verdict == CONVERGED
        assert rec.order_monotone == INCREASING
        # x_n = 2 - 2^{1-n} componentwise, exact in binary floating point
        for n in range(len(rec)):
            expected = 2.0 - 2.0 ** (1 - n)
            assert np.array_equal(rec.points[n], np.full(2, expected))
        assert norm(P2, rec.points[-1] - np.array([2.0, 2.0])) < 1e-9

    def test_start_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            picard_orbit(corpus.affine_contraction(2), [-1.0, 0.0], ORTH2, P2)

    def test_runtime_domain_escape_detected(self):
        # constructed unchecked: drifts below the orthant after two steps
        esc = MappingSpec(
            op=TranslationMap(shift=np.array([-1.0, -1.0])),
            domain=Domain(kind="cone", cone=ORTH2),
        )
        with pytest.raises(DomainError, match="escaped"):
            picard_orbit(esc, [1.5, 1.5], ORTH2, P2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IterationConfig(max_iter=0)
        with pytest.raises(ValueError):
            IterationConfig(residual_tol=0.0)


class TestMann:
    def test_zero_schedule_reproduces_picard_bitwise(self):
        pic = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], ORTH2, P2)
        man = mann_orbit(corpus.affine_contraction(2), [0.0, 0.0], 0.0, ORTH2, P2)
        assert man.scheme == "mann"
        assert np.array_equal(pic.points, man.points)
        assert np.array_equal(pic.residuals, man.residuals)
        assert pic.verdict == man.verdict

    def test_all_one_schedule_freezes_the_orbit(self):
        cfg = IterationConfig(max_iter=25)
        rec = mann_orbit(corpus.affine_contraction(2), [0.0, 0.0], 1.0, ORTH2, P2, cfg)
        assert rec.verdict == MAX_ITER_REACHED
        assert np.max(np.abs(rec.points)) == 0.0

    def test_half_schedule_converges_to_same_fixed_point(self):
        rec = mann_orbit(corpus.affine_contraction(2), [0.0, 0.0], 0.5, ORTH2, P2)
        assert rec.verdict == CONVERGED
        assert norm(P2, rec.points[-1] - np.array([2.0, 2.0])) < 1e-9

    def test_schedule_as_sequence_and_callable(self):
        seq = mann_orbit(corpus.affine_contraction(2), [0.0, 0.0], [0.5, 0.25], ORTH2, P2)
        fn = mann_orbit(corpus.affine_contraction(2), [0.0, 0.0],
                        lambda n: 0.5 if n == 0 else 0.25, ORTH2, P2)
        assert np.array_equal(seq.points, fn.points)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            mann_orbit(corpus.affine_contraction(2), [0.0, 0.0], 1.5, ORTH2, P2)
        with pytest.raises(ValueError):
            mann_orbit(corpus.affine_contraction(2), [0.0, 0.0], -0.1, ORTH2, P2)
        with pytest.raises(ValueError):
            mann_orbit(corpus.affine_contraction(2), [0.0, 0.0], [], ORTH2, P2)


class TestOrderTracking:
    def test_constant_orbit_is_both_directions(self):
        cfg = IterationConfig(max_iter=10)
        rec = mann_orbit(corpus.affine_contraction(2), [0.0, 0.0], 1.0, ORTH2, P2, cfg)
        chain = check_orbit_monotone(rec, ORTH2)
        assert chain.increasing and chain.decreasing

    def test_translation_is_increasing_only(self):
        rec = picard_orbit(corpus.unit_translation(2), [0.0, 0.0], ORTH2, P2, SMALL)
        chain = check_orbit_monotone(rec, ORTH2)
        assert chain.increasing and not chain.decreasing
        assert chain.first_down_violation == 0

    def test_incomparable_first_step_flags_neither(self):
        cfg = IterationConfig(max_iter=40)
        rec = picard_orbit(swap_shift_map(), [2.0, 0.0], ORTH2, P2, cfg)
        assert rec.order_monotone == NEITHER
        chain = check_orbit_monotone(rec, ORTH2)
        assert not chain.increasing and not chain.decreasing
        assert chain.first_up_violation == 0
        assert chain.first_down_violation == 0

    def test_descending_orbit(self):
        rec = picard_orbit(corpus.affine_contraction(2), [5.0, 5.0], ORTH2, P2)
        assert rec.order_monotone == DECREASING
        assert rec.verdict == CONVERGED

    def test_empty_record_rejected(self):
        rec = picard_orbit(corpus.affine_contraction(2), [2.0, 2.0], ORTH2, P2)
        rec.points = rec.points[:0]
        with pytest.raises(ValueError):
            check_orbit_monotone(rec, ORTH2)


class TestMonotoneLimit:
    def test_constant_orbit_limit(self):
        rec = picard_orbit(corpus.constant_map([1.0, 1.0]), [1.0, 1.0], ORTH2, P2)
        assert np.array_equal(monotone_limit(rec, ORTH2), [1.0, 1.0])

    def test_geometric_limit_with_order_bound(self):
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], ORTH2, P2)
        limit = monotone_limit(rec, ORTH2)
        assert norm(P2, limit - np.array([2.0, 2.0])) < 1e-9

    def test_unbounded_rejected(self):
        rec = picard_orbit(corpus.unit_translation(2), [0.0, 0.0], ORTH2, P2, SMALL)
        with pytest.raises(ValueError, match="unbounded"):
            monotone_limit(rec, ORTH2)

    def test_non_monotone_rejected(self):
        cfg = IterationConfig(max_iter=40)
        rec = picard_orbit(swap_shift_map(), [2.0, 0.0], ORTH2, P2, cfg)
        with pytest.raises(ValueError, match="not order-monotone"):
            monotone_limit(rec, ORTH2)


class TestDistanceAndNormSequences:
    def test_quasi_descent_toward_fixed_point(self):
        z = np.array([2.0, 2.0])
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], ORTH2, P2)
        dists = [norm(P2, pt - z) for pt in rec.points]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert all(d <= dists[0] + 1e-12 for d in dists)

    def test_norm_growth_under_monotonic_norm(self):
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], ORTH2, P2)
        diffs = np.diff(rec.norms)
        assert np.all(diffs >= -1e-12)
        limit_norm = norm(P2, monotone_limit(rec, ORTH2))
        assert np.all(rec.norms <= limit_norm + 1e-9)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], ORTH2, P2)
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


def reference_orbit(spec, x0, cone, space, cfg, beta_fn=None):
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
        if beta_fn is None:
            x_next = tx
        else:
            beta = float(beta_fn(n))
            if not (0.0 <= beta <= 1.0):
                raise ValueError(f"invalid Mann schedule: beta_{n}={beta} outside [0, 1]")
            x_next = beta * x + (1.0 - beta) * tx
        step = x_next - x
        up.append(_ref_member(cone, step, MEMBERSHIP_TOL))
        down.append(_ref_member(cone, -step, MEMBERSHIP_TOL))
        points.append(x_next)
        norms.append(_ref_norm(p, x_next))
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
        scheme="picard" if beta_fn is None else "mann",
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


def reference_limit(record, cone, order_tol=1e-9):
    limit = record.points[-1]
    for n in range(len(record)):
        ok = (
            leq(cone, record.points[n], limit, tol=order_tol)
            if record.order_monotone == INCREASING
            else leq(cone, limit, record.points[n], tol=order_tol)
        )
        if not ok:
            raise ValueError(f"order bound violated at index {n}: orbit point vs limit")
    return limit.copy()


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
    assert (rec.order_monotone, rec.verdict, rec.scheme) == (
        ref.order_monotone, ref.verdict, ref.scheme
    )


LOR3 = ConeSpec(kind="lorentz", dim=3)


def lorentz_rotation_map():
    """Self-map of the Lorentz cone in R^3: rotate the head and shrink it faster
    than the axis, so the order flags of one orbit can switch."""
    c, s = np.cos(0.7), np.sin(0.7)
    matrix = np.array([[0.5 * c, -0.5 * s, 0.0], [0.5 * s, 0.5 * c, 0.0], [0.0, 0.0, 0.9]])
    return make_mapping(AffineMap(matrix, np.array([0.0, 0.0, 1.0])), Domain(kind="cone", cone=LOR3))


def interval_map(cone):
    """x -> x/2 + hi/4, a self-map of the order interval [0, hi] under ``cone``."""
    hi = np.zeros(cone.dim)
    hi[-1] = 8.0
    domain = Domain(kind="interval", cone=cone, lo=np.zeros(cone.dim), hi=hi)
    return make_mapping(AffineMap(0.5 * np.eye(cone.dim), hi / 4.0), domain)


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
        cone = spec.domain.cone
        assert_same_record(
            picard_orbit(spec, x0, cone, entry.space, SMALL),
            reference_orbit(spec, x0, cone, entry.space, SMALL),
        )

    @pytest.mark.parametrize("dim", [2, 5, 20])
    @pytest.mark.parametrize("rho", [0.5, 0.95])
    def test_random_nonneg_affine(self, dim, rho):
        spec = _random_map(dim, rho)
        cone = ConeSpec(kind="orthant", dim=dim)
        space = SpaceSpec(dim=dim, p=3.0)
        # from zero the orbit rises; from a random start the flags are mixed
        for x0 in (np.zeros(dim), np.random.default_rng(dim).uniform(0.0, 5.0, size=dim)):
            assert_same_record(
                picard_orbit(spec, x0, cone, space, SMALL),
                reference_orbit(spec, x0, cone, space, SMALL),
            )

    @pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [3.0, 0.0, 3.5], [1.0, 0.0, 20.0]])
    def test_lorentz_cone_map(self, x0):
        spec = lorentz_rotation_map()
        space = SpaceSpec(dim=3, p=1.5)
        rec = picard_orbit(spec, x0, LOR3, space, SMALL)
        assert_same_record(rec, reference_orbit(spec, x0, LOR3, space, SMALL))

    @pytest.mark.parametrize("cone", [ConeSpec(kind="orthant", dim=2), LOR3])
    def test_interval_domain(self, cone):
        spec = interval_map(cone)
        space = SpaceSpec(dim=cone.dim, p=2.0)
        x0 = np.zeros(cone.dim)
        assert_same_record(
            picard_orbit(spec, x0, cone, space, SMALL),
            reference_orbit(spec, x0, cone, space, SMALL),
        )

    @pytest.mark.parametrize(
        "schedule, beta_fn",
        [
            (0.5, lambda n: 0.5),
            ([0.5, 0.25, 0.75], lambda n: [0.5, 0.25, 0.75][min(n, 2)]),
            (lambda n: 1.0 / (n + 2), lambda n: 1.0 / (n + 2)),
        ],
        ids=["constant", "sequence", "callable"],
    )
    @pytest.mark.parametrize("spec_fn", [lambda: corpus.affine_contraction(2), lambda: _random_map(2, 0.95)])
    def test_mann_schedules(self, schedule, beta_fn, spec_fn):
        spec = spec_fn()
        x0 = [3.0, 0.5]
        assert_same_record(
            mann_orbit(spec, x0, schedule, ORTH2, P2, SMALL),
            reference_orbit(spec, x0, ORTH2, P2, SMALL, beta_fn),
        )

    def test_max_iter_reached(self):
        cfg = IterationConfig(max_iter=25)
        rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], ORTH2, P2, cfg)
        assert rec.verdict == MAX_ITER_REACHED and len(rec) == 26
        assert_same_record(rec, reference_orbit(corpus.affine_contraction(2), [0.0, 0.0], ORTH2, P2, cfg))

    def test_runtime_escape_same_error(self):
        esc = MappingSpec(
            op=TranslationMap(shift=np.array([-1.0, -1.0])),
            domain=Domain(kind="cone", cone=ORTH2),
        )
        got = outcome(picard_orbit, esc, [1.5, 1.5], ORTH2, P2)
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
        scheme="picard",
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

    @pytest.mark.parametrize(
        "points, order",
        [
            (MIXED, INCREASING),  # x3 = (1.5, 3) exceeds nothing: bound holds
            ([[0.0, 0.0], [1.0, 4.0], [2.0, 2.0], [3.0, 3.0]], INCREASING),  # fails at 1
            ([[5.0, 5.0], [4.0, 4.0], [2.0, 4.5], [3.0, 3.0]], DECREASING),  # fails at 2
            ([[5.0, 5.0], [3.0, 3.0 - 5e-10], [3.0, 3.0]], DECREASING),  # inside order_tol
        ],
    )
    def test_monotone_limit_matches_pairwise(self, points, order):
        rec = _hand_record(points, order)
        got, want = outcome(monotone_limit, rec, ORTH2), outcome(reference_limit, rec, ORTH2)
        assert got[0] == want[0]
        if got[0] == "returned":
            assert np.array_equal(got[1], want[1])
        else:
            assert got[1:] == want[1:]

    def test_one_point_record(self):
        rec = _hand_record([[1.0, 2.0]])
        assert check_orbit_monotone(rec, ORTH2) == ChainVerdict(True, True, None, None)
        assert check_orbit_monotone(rec, ORTH2) == reference_chain(rec, ORTH2)
        assert np.array_equal(monotone_limit(rec, ORTH2), reference_limit(rec, ORTH2))

    @pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [3.0, 0.0, 3.5], [1.0, 0.0, 20.0]])
    def test_lorentz_orbit_records(self, x0):
        rec = picard_orbit(lorentz_rotation_map(), x0, LOR3, SpaceSpec(dim=3, p=2.0), SMALL)
        assert check_orbit_monotone(rec, LOR3) == reference_chain(rec, LOR3)
        if rec.order_monotone != NEITHER:
            assert np.array_equal(monotone_limit(rec, LOR3), reference_limit(rec, LOR3))

    def test_lorentz_hand_record(self):
        # (0,0,1) -> (0.5,0,2): head 0.5 <= 1, up; (0.5,0,2) -> (2,0,2.5): head 1.5 > 0.5
        pts = [[0.0, 0.0, 1.0], [0.5, 0.0, 2.0], [2.0, 0.0, 2.5], [2.0, 0.0, 4.0]]
        for order in (INCREASING, DECREASING):
            rec = _hand_record(pts, order, LOR3)
            assert check_orbit_monotone(rec, LOR3) == reference_chain(rec, LOR3)
            got, want = outcome(monotone_limit, rec, LOR3), outcome(reference_limit, rec, LOR3)
            assert got[0] == want[0] and (got[0] == "returned" or got[1:] == want[1:])

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
        spec = make_mapping(AffineMap(np.array([[1e200]]), np.ones(1)), Domain(kind="cone", cone=ORTH1))
        rec = picard_orbit(spec, [0.0], ORTH1, SpaceSpec(dim=1, p=2.0))
        assert rec.verdict == NONFINITE
        assert rec.points.ravel().tolist() == [0.0, 1.0, 1e200]
        # |1e200|^2 overflows, but a finite point has a finite norm; only the
        # residual at the inf image stays inf
        assert rec.residuals.tolist() == [1.0, 1e200, np.inf]
        assert rec.norms.tolist() == [0.0, 1.0, 1e200]
        assert rec.order_monotone == INCREASING and rec.leq_up.all()
        chain = check_orbit_monotone(rec, ORTH1)
        assert chain.increasing and chain.first_up_violation is None
        with pytest.raises(ValueError, match="overflowed"):
            monotone_limit(rec, ORTH1)

    def test_nan_image_is_nonfinite_not_a_domain_escape(self):
        spec = MappingSpec(op=NanAbove(cut=10.0), domain=Domain(kind="cone", cone=ORTH2))
        rec = picard_orbit(spec, [0.0, 0.0], ORTH2, P2)
        ref = outcome(reference_orbit, spec, [0.0, 0.0], ORTH2, P2, IterationConfig())
        assert ref == ("raised", DomainError, "map escaped its domain at step 4: image [nan 31.]")
        assert rec.verdict == NONFINITE
        assert rec.points[:, 1].tolist() == [0.0, 1.0, 3.0, 7.0, 15.0]
        assert np.isnan(rec.residuals[-1]) and np.isfinite(rec.residuals[:-1]).all()
        assert len(rec.residuals) == len(rec.norms) == len(rec) and rec.order_monotone == INCREASING
        mann = mann_orbit(spec, [0.0, 0.0], 0.5, ORTH2, P2)
        assert mann.verdict == NONFINITE and np.isfinite(mann.points).all()

    def test_minus_inf_image_is_nonfinite(self):
        esc = MappingSpec(
            op=AffineMap(np.array([[1.0, -1e308], [0.0, 1.0]]), np.zeros(2)),
            domain=Domain(kind="cone", cone=ORTH2),
        )
        with np.errstate(over="ignore"):
            rec = picard_orbit(esc, [0.0, 3.0], ORTH2, P2)
        assert rec.verdict == NONFINITE and np.isfinite(rec.points).all()
        assert rec.residuals[-1] == np.inf and len(rec.residuals) == len(rec)

    def test_finite_orbits_unchanged(self):
        # the overflow test only reads the image when the residual is not finite
        spec = corpus.affine_contraction(2)
        assert_same_record(
            picard_orbit(spec, [0.0, 0.0], ORTH2, P2, SMALL),
            reference_orbit(spec, [0.0, 0.0], ORTH2, P2, SMALL),
        )


# ---------------------------------------------------------------------------
# the block engine against the stepwise engine it replaced


def _kernel_norm(space, v):
    return float(_row_norms(space, v[None, None], slice(0))[0, 0])


def stepwise_orbit(
    spec: MappingSpec,
    x0,
    cone: ConeSpec,
    space: SpaceSpec,
    cfg: IterationConfig,
    beta_fn,
    scheme: str,
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
        if beta_fn is None:
            x = tx
        else:
            beta = float(beta_fn(n))
            if not (0.0 <= beta <= 1.0):
                raise ValueError(f"invalid Mann schedule: beta_{n}={beta} outside [0, 1]")
            x = beta * x + (1.0 - beta) * tx
        points.append(x)
        norms.append(_kernel_norm(space, x))
        if norms[-1] > cfg.bound_threshold and len(norms) > cfg.window:
            if norms[-1] > norms[-1 - cfg.window]:
                verdict = UNBOUNDED_SUSPECTED
                break

    if len(residuals) < len(points):
        residuals.append(_kernel_norm(space, evaluate(x) - x))

    pts = np.asarray(points)
    up_arr, down_arr = _step_flags(pts, cone)
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
        scheme=scheme,
    )


def engine_outcome(engine, spec, x0, space, cfg, beta_fn=None):
    """What one engine returns or raises; the stepwise engine's overflow
    warnings are silenced."""
    scheme = "picard" if beta_fn is None else "mann"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return ("returned", engine(spec, x0, spec.domain.cone, space, cfg, beta_fn, scheme))
        except Exception as exc:
            return ("raised", type(exc), str(exc))


def assert_same_outcome(spec, x0, space, cfg, beta_fn=None):
    """Both engines give bit-identical records, or the same error type and text."""
    got = engine_outcome(_orbit, spec, x0, space, cfg, beta_fn)
    want = engine_outcome(stepwise_orbit, spec, x0, space, cfg, beta_fn)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got == want
        return got
    rec, ref = got[1], want[1]
    for name in ("points", "residuals", "norms", "leq_up", "leq_down"):
        a, b = getattr(rec, name), getattr(ref, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name  # NaN-safe: the bits themselves
    assert (rec.order_monotone, rec.verdict, rec.scheme) == (ref.order_monotone, ref.verdict, ref.scheme)
    return got


# steps where the blocks of one orbit end: 8, 24, 56, ..., 1016, 2040; a stop
# is tried on both sides of the first two and the last two
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

    @pytest.mark.parametrize("max_iter", [1, 7, 8, 9, 100] + BLOCK_ENDS[-2:])
    @pytest.mark.parametrize("beta", [None, 0.5])
    def test_budget_ends_inside_and_on_block_edges(self, max_iter, beta):
        cfg = IterationConfig(max_iter=max_iter, bound_threshold=1e12)
        beta_fn = None if beta is None else (lambda n: beta)
        for spec in (MappingSpec(op=TranslationMap(np.ones(1)), domain=CONE1), converges_at(50)):
            got = assert_same_outcome(spec, [0.0], LINE2, cfg, beta_fn)
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
    def test_invalid_beta_on_a_converging_step_is_never_read(self, step):
        beta_fn = lambda n: 0.0 if n < step else 2.0
        got = assert_same_outcome(converges_at(step), [0.0], LINE2, LONG, beta_fn)
        assert got[1].verdict == CONVERGED

    @pytest.mark.parametrize("step", [0, 3, 7, 8, 9])
    @pytest.mark.parametrize("bad", [2.0, -0.25, math.nan])
    def test_invalid_beta_on_a_live_step_raises(self, step, bad):
        beta_fn = lambda n: 0.5 if n < step else bad
        got = assert_same_outcome(converges_at(step + 5), [0.0], LINE2, LONG, beta_fn)
        assert got[1:] == (ValueError, f"invalid Mann schedule: beta_{step}={bad} outside [0, 1]")

    @pytest.mark.parametrize("step", [0, 3, 7, 8, 9])
    def test_schedule_raising_past_the_stop_never_surfaces(self, step):
        def beta_fn(n):
            if n >= step:
                raise RuntimeError(f"schedule has no beta_{n}")
            return 0.0

        got = assert_same_outcome(converges_at(step), [0.0], LINE2, LONG, beta_fn)
        assert got[1].verdict == CONVERGED
        # before the stop, the same error is raised
        got = assert_same_outcome(converges_at(step + 5), [0.0], LINE2, LONG, beta_fn)
        assert got[1:] == (RuntimeError, f"schedule has no beta_{step}")

    def test_no_warnings_from_steps_past_an_overflow(self):
        # x -> 1e200 x + 1 overflows at step 2 of the first block; the steps
        # after it run on inf and NaN
        spec = MappingSpec(op=AffineMap(np.array([[1e200]]), np.ones(1)), domain=CONE1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = picard_orbit(spec, [0.0], ORTH1, LINE2)
            mann = mann_orbit(spec, [0.0], 0.25, ORTH1, LINE2)
        assert rec.verdict == mann.verdict == NONFINITE
        with pytest.warns(RuntimeWarning):
            stepwise_orbit(spec, [0.0], ORTH1, LINE2, IterationConfig(), None, "picard")
        assert_same_outcome(spec, [0.0], LINE2, IterationConfig())
        assert_same_outcome(spec, [0.0], LINE2, IterationConfig(), lambda n: 0.25)

    def test_corpus_and_campaign_shaped_orbits(self):
        for entry in corpus.alpha_corpus():
            spec = entry.spec
            for x0 in (np.zeros(spec.dim), sample_domain_point(spec, np.random.default_rng(3))):
                for beta_fn in (None, lambda n: 1.0 / (n + 2)):
                    assert_same_outcome(spec, x0, entry.space, SMALL, beta_fn)

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
        spec, x0 = translation(self.SHIFT3)
        cfg = IterationConfig(max_iter=100_000, bound_threshold=1e4, window=50)
        got = assert_same_outcome(spec, x0, SpaceSpec(dim=3, p=p), cfg)
        assert got[1].verdict == UNBOUNDED_SUSPECTED and len(got[1]) > BLOCK_CAP

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
        rec = _orbit(spec, x0, spec.domain.cone, space, cfg, None, "picard")
        picard = len(calls)
        mann = _orbit(spec, x0, spec.domain.cone, space, cfg, lambda n: 0.5, "mann")
        # the running sum calls the map only for the last point's residual;
        # the Mann orbit calls it once a step, and past the stop in its block
        assert rec.verdict == mann.verdict == UNBOUNDED_SUSPECTED and picard == 1
        assert len(calls) - picard >= len(mann)
        assert_same_outcome(spec, x0, space, cfg)
        assert_same_outcome(spec, x0, space, cfg, lambda n: 0.5)

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
         ([1e-300, 1e-301], [1.0, 1e13]), ([1e300, 1e-30], [1.0, 1.0])],
        ids=["inf", "zero-residual", "nan", "inf-norms", "flat", "wrong-way", "past-both", "ratio-underflow"],
    )
    def test_a_trend_that_does_not_move_toward_a_stop_predicts_nothing(self, res, norms):
        cfg = IterationConfig(residual_tol=1e-300, bound_threshold=1e12)
        for k in (8, 512, BLOCK_CAP):
            assert _next_block(k, np.array(res), np.array(norms), cfg) == min(2 * k, BLOCK_CAP)

    def test_blocks_end_near_the_predicted_stop(self):
        cfg = IterationConfig(residual_tol=1e-10, bound_threshold=100.0)
        # residuals halve from 1e-2: 1e-10 is 26.6 steps on; norms rise by 1 to 100
        assert _next_block(512, np.array([2e-2, 1e-2]), np.array([1.0, 2.0]), cfg) == 26 + BLOCK_SLACK
        assert _next_block(512, np.array([2e-2, 1e-2]), np.array([80.0, 95.0]), cfg) == BLOCK_FIRST
        assert _next_block(512, np.array([1.0, 1.0]), np.array([1.0, 2.0]), cfg) == 98 + BLOCK_SLACK
        assert _next_block(1, np.array([1.0]), np.array([1.0]), cfg) == BLOCK_FIRST

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
        rec = picard_orbit(spec, np.zeros(dim), cone, SpaceSpec(dim=dim, p=2.0), LONG)
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
    beta = draw(st.none() | st.floats(0.0, 1.0))
    return spec, x0, space, cfg, None if beta is None else (lambda n: beta)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(affine_orbits())
def test_block_engine_matches_stepwise_on_random_affine_maps(case):
    assert_same_outcome(*case)
