"""Cone orders, order intervals, and cone diagnostics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderfp.mapping import AffineMap, Domain, MappingSpec, domain_contains, mapping_from_dict
from orderfp.order import (
    MEMBERSHIP_TOL,
    ConeSpec,
    UnsupportedConeOperation,
    comparable,
    contains,
    is_norm_monotonic,
    leq,
    project_to_cone,
    sample_dominated_pairs,
    sup_finite,
    _cone_margins,
    _cone_rows,
    _dominated_pair_checks,
    _member_raw,
)
from orderfp import order
from orderfp import space as lp
from orderfp.report import PropertyReport, Violation
from orderfp.space import SpaceSpec, as_vector, norm

ORTH2 = ConeSpec(kind="orthant", dim=2)
ORTH3 = ConeSpec(kind="orthant", dim=3)
LOR3 = ConeSpec(kind="lorentz", dim=3)
P2 = SpaceSpec(dim=2, p=2.0)


def interior(cone, v):
    # the interior as the one margin rule gives it: the margin exceeds the tolerance
    return bool(_cone_margins(cone, as_vector(v, dim=cone.dim)) > MEMBERSHIP_TOL)


class TestMembership:
    def test_orthant(self):
        assert contains(ORTH3, [1.0, 2.0, 0.0])
        assert not contains(ORTH2, [1.0, -1e-3])

    def test_lorentz_boundary(self):
        assert contains(LOR3, [3.0, 4.0, 5.0])  # 5 = ||(3,4)||
        assert not contains(LOR3, [3.0, 4.0, 4.999])
        assert not interior(LOR3, [3.0, 4.0, 5.0])
        assert interior(LOR3, [0.0, 0.0, 1.0])

    def test_pointedness_sampled(self):
        rng = np.random.default_rng(1)
        for cone in (ORTH3, LOR3):
            for _ in range(200):
                v = rng.normal(size=3)
                if contains(cone, v) and contains(cone, -v):
                    assert float(np.max(np.abs(v))) <= 1e-12

    def test_nonneg_combinations_sampled(self):
        rng = np.random.default_rng(2)
        for cone in (ORTH3, LOR3):
            for _ in range(200):
                x, y = _cone_rows(cone, rng, 2, 1.0)
                a, b = rng.uniform(0.0, 3.0, size=2)
                assert contains(cone, a * x + b * y, tol=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 20])
    @pytest.mark.parametrize("rows", [1, 5, 31, 32, 33, 640, 20_000])
    def test_orthant_margins_by_column_have_the_row_min_bits(self, d, rows):
        # many rows take np.minimum over the columns, few the row min; both
        # keep the bits of v.min(axis=-1), signed zeros and nans included
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -2.0]
        v = np.random.default_rng(rows * d).choice(values, size=(rows, d))
        cone = ConeSpec(kind="orthant", dim=d)
        for block in (v, v.reshape(rows, 1, d), v[None]):
            with np.errstate(invalid="ignore"):
                got, want = _cone_margins(cone, block), block.min(axis=-1)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            ConeSpec(kind="simplex", dim=2)
        with pytest.raises(ValueError):
            ConeSpec(kind="lorentz", dim=1)


class TestOrderRelations:
    def test_reflexive_not_strict(self):
        x = np.array([1.0, 1.0])
        assert leq(ORTH2, x, x)
        assert not interior(ORTH2, x - x)

    def test_basic_relations(self):
        assert leq(ORTH2, [0.0, 0.0], [1.0, 2.0])
        assert interior(ORTH2, [1.0, 2.0])
        assert not interior(ORTH2, [0.0, 2.0])

    def test_incomparable_pair(self):
        x, y = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        assert not leq(ORTH2, x, y) and not leq(ORTH2, y, x)
        assert not comparable(ORTH2, x, y)

    def test_antisymmetry_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            both = leq(ORTH2, x, y) and leq(ORTH2, y, x)
            assert both == bool(np.max(np.abs(x - y)) <= 1e-12)

    def test_order_closed_under_norm_limits(self):
        # x_n <= y_n for every n and both sequences converge: limits stay ordered
        x_lim, y_lim = np.array([1.0, 1.0]), np.array([2.0, 1.5])
        for n in range(1, 40):
            xn = x_lim + np.array([1.0, 0.5]) / n
            yn = y_lim + np.array([2.0, 1.0]) / n
            assert leq(ORTH2, xn, yn)
        assert leq(ORTH2, x_lim, y_lim)

    def test_orthant_order_where_the_difference_overflows(self):
        # y - x overflows, but each overflowed coordinate has the sign of the
        # exact difference, which decides; no warning (an error under pytest)
        orth1 = ConeSpec(kind="orthant", dim=1)
        assert leq(orth1, [-1e308], [1e308]) and not leq(orth1, [1e308], [-1e308])
        assert comparable(orth1, [1e308], [-1e308]) and comparable(orth1, [-1e308], [1e308])
        assert leq(ORTH2, [-1e308, 0.0], [1e308, 0.0]) and not leq(ORTH2, [-1e308, 1.0], [1e308, 0.0])
        assert not leq(ORTH2, [1e308, 0.0], [-1e308, 1.0]) and not comparable(ORTH2, [-1e308, 1.0], [1e308, 0.0])
        assert not leq(ORTH2, [-1e308, 1e308], [1e308, -1e308])
        assert leq(ORTH2, [-1.7e308, -1e-300], [1.7e308, 0.0])

    def test_lorentz_order_where_the_difference_overflows_raises(self):
        x, y = [0.0, 0.0, -1e308], [0.0, 0.0, 1e308]
        for call in (lambda: leq(LOR3, x, y), lambda: leq(LOR3, y, x), lambda: comparable(LOR3, x, y)):
            with pytest.raises(ValueError, match="y - x overflows the float range .* the lorentz order is undecided"):
                call()
        assert leq(LOR3, [0.0, 0.0, -1e307], [0.0, 0.0, 1e307]) and comparable(LOR3, [0.0, 0.0, 1e307], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("d", range(1, 9))
    def test_orthant_order_is_the_member_rule_of_the_difference(self, d):
        # `leq` decides an orthant order in Python floats; at every d it must
        # give the bool of the cone's membership rule on y - x, an overflow
        # to +-inf included, at each tolerance
        cone = ConeSpec(kind="orthant", dim=d)
        coords = st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1e-12, -1e-12, 1e-9, -1e-9,
                                  2e-9, 1e308, -1e308, 1.7e308, -1.7e308, 5e-324]) | st.floats(-1e3, 1e3)
        vec = st.lists(coords, min_size=d, max_size=d)

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(vec, vec, st.sampled_from([0.0, 1e-12, 1e-9]))
        def check(x, y, tol):
            with np.errstate(over="ignore"):
                up = bool(_member_raw(cone, np.array(y) - np.array(x), tol))
                down = bool(_member_raw(cone, np.array(x) - np.array(y), tol))
            got = leq(cone, x, y, tol=tol), comparable(cone, x, y, tol=tol)
            assert got == (up, up or down) and all(type(b) is bool for b in got)

        check()

    def test_each_argument_is_validated_once(self, monkeypatch):
        seen = []
        plain = order.as_vector
        monkeypatch.setattr(order, "as_vector", lambda v, **kw: seen.append(v) or plain(v, **kw))
        assert leq(ORTH2, [0.0, 0.0], [1.0, 2.0]) and comparable(ORTH2, [1.0, 2.0], [0.0, 0.0])
        assert seen == [[0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="non-finite"):
            leq(ORTH2, [0.0, np.inf], [1.0, 2.0])



def interval(lo, hi, cone=ORTH2):
    return Domain(kind="interval", cone=cone, lo=lo, hi=hi)


class TestIntervals:
    # order intervals [lo, hi] are Domain(kind="interval")
    def test_endpoints_inside(self):
        iv = interval(np.zeros(2), np.ones(2))
        assert domain_contains(iv, iv.lo)
        assert domain_contains(iv, iv.hi)

    def test_segment_inside(self):
        iv = interval(np.zeros(2), np.array([1.0, 2.0]))
        for t in np.linspace(0.0, 1.0, 11):
            z = t * iv.lo + (1.0 - t) * iv.hi
            assert domain_contains(iv, z)
            assert leq(ORTH2, iv.lo, z) and leq(ORTH2, z, iv.hi)

    def test_outside_point(self):
        iv = interval(np.zeros(2), np.ones(2))
        assert not domain_contains(iv, np.array([2.0, 0.5]))

    def test_convexity_of_membership_sampled(self):
        rng = np.random.default_rng(4)
        iv = interval(np.zeros(2), np.array([2.0, 1.0]))
        for _ in range(200):
            a = rng.uniform(0.0, 1.0, 2) * iv.hi
            b = rng.uniform(0.0, 1.0, 2) * iv.hi
            t = rng.uniform()
            assert domain_contains(iv, t * a + (1.0 - t) * b)

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(ValueError, match="not ordered"):
            interval(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "kind, cone, lo, hi, cause",
        [
            ("interval", ORTH2, [1.0, 1.0], [0.0, 0.0], "under the orthant cone"),
            ("interval", ORTH2, [0.0, 0.0], [-2e-12, 1.0], "under the orthant cone"),
            # above lo in every coordinate, but hi - lo is outside the cone
            ("interval", LOR3, [0.0, 0.0, 0.0], [1.0, 0.0, 0.5], "under the lorentz cone"),
            ("box", ORTH2, [0.0, 1.0], [1.0, 0.0], "coordinatewise"),
            # ordered under the Lorentz cone, but not coordinatewise
            ("box", LOR3, [0.0, 0.0, 0.0], [-0.5, 0.0, 1.0], "coordinatewise"),
        ],
        ids=["orthant-interval", "orthant-interval-past-tol", "lorentz-interval", "box", "lorentz-box"],
    )
    def test_unordered_endpoints_name_the_cause(self, kind, cone, lo, hi, cause):
        message = f"{kind} domain endpoints are not ordered {cause}"
        with pytest.raises(ValueError, match=message):
            Domain(kind=kind, cone=cone, lo=lo, hi=hi)
        payload = {"variant": "translation", "shift": [0.0] * cone.dim, "domain": {
            "kind": kind, "cone": {"kind": cone.kind, "dim": cone.dim}, "lo": lo, "hi": hi}}
        with pytest.raises(ValueError, match=message):
            mapping_from_dict(payload)

    @pytest.mark.parametrize(
        "kind, cone, lo, hi",
        [
            ("interval", ORTH2, [0.0, 0.0], [-5e-13, 1.0]),  # within MEMBERSHIP_TOL
            ("interval", LOR3, [0.0, 0.0, 0.0], [-0.5, 0.0, 1.0]),
            ("box", LOR3, [0.0, 0.0, 0.0], [1.0, 0.0, 0.5]),
            ("box", ORTH2, [1.0, 1.0], [1.0, 1.0]),
        ],
    )
    def test_ordered_endpoints_accepted(self, kind, cone, lo, hi):
        domain = Domain(kind=kind, cone=cone, lo=lo, hi=hi)
        assert domain_contains(domain, domain.lo) and domain_contains(domain, domain.hi)

    def test_identity_on_unordered_interval_names_the_cause(self):
        # this once reported "not a self-map: image ... escapes the domain"
        with pytest.raises(ValueError, match="interval domain endpoints are not ordered under the orthant cone"):
            MappingSpec(AffineMap(np.eye(2), np.zeros(2)), interval([1.0, 1.0], [0.0, 0.0]))


class TestLattice:
    def test_componentwise_extrema(self):
        assert np.array_equal(sup_finite(ORTH2, [[1.0, 0.0], [0.0, 1.0]]), [1.0, 1.0])

    def test_comparable_pair_sup_is_upper(self):
        x, y = np.array([0.5, 0.5]), np.array([1.0, 2.0])
        assert np.array_equal(sup_finite(ORTH2, [x, y]), y)

    def test_axioms_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x, y = (rng.uniform(-1, 1, 2) for _ in range(2))
            assert np.array_equal(sup_finite(ORTH2, [x, x]), x)
            assert np.array_equal(sup_finite(ORTH2, [x, y]), sup_finite(ORTH2, [y, x]))
            up = sup_finite(ORTH2, [x, y])
            assert leq(ORTH2, x, up) and leq(ORTH2, y, up)

    def test_lorentz_rejected(self):
        with pytest.raises(UnsupportedConeOperation):
            sup_finite(LOR3, [np.zeros(3)])

    def test_lorentz_has_incomparable_minimal_upper_bounds(self):
        # two upper bounds of {x, y} with no common upper bound of {x, y}
        # below both, exhibited on a lattice: pairwise suprema cannot exist
        x = np.array([1.0, 0.0, 1.0])
        y = np.array([-1.0, 0.0, 1.0])
        u1 = np.array([0.0, 0.0, 2.0])
        u2 = np.array([0.0, 1.0, 1.0 + np.sqrt(2.0)])
        for u in (u1, u2):
            assert leq(LOR3, x, u, tol=1e-9) and leq(LOR3, y, u, tol=1e-9)
        assert not comparable(LOR3, u1, u2)
        grid = np.linspace(-1.5, 1.5, 13)
        heights = np.linspace(0.0, 3.0, 25)
        for a, b, h in itertools.product(grid, grid, heights):
            w = np.array([a, b, h])
            if leq(LOR3, x, w) and leq(LOR3, y, w):
                assert not (leq(LOR3, w, u1) and leq(LOR3, w, u2) and
                            float(np.max(np.abs(w - u1))) > MEMBERSHIP_TOL)


class TestProjectionAndSampling:
    def test_orthant_projection_is_clip(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(project_to_cone(ORTH3, v), [1.0, 0.0, 0.5])

    def test_lorentz_projection_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            v = rng.normal(scale=2.0, size=3)
            w = project_to_cone(LOR3, v)
            assert contains(LOR3, w, tol=1e-9)
            assert np.allclose(project_to_cone(LOR3, w), w, atol=1e-9)
        inside = np.array([0.1, 0.1, 5.0])
        assert np.array_equal(project_to_cone(LOR3, inside), inside)
        polar = np.array([0.1, 0.0, -5.0])
        assert np.array_equal(project_to_cone(LOR3, polar), np.zeros(3))

    def test_sampled_points_in_cone(self):
        rng = np.random.default_rng(7)
        for cone in (ORTH3, LOR3):
            for _ in range(300):
                assert contains(cone, _cone_rows(cone, rng, 1, 1.0)[0], tol=1e-9)

    def test_dominated_pairs_are_ordered(self):
        rng = np.random.default_rng(8)
        for cone in (ORTH2, LOR3):
            for _ in range(200):
                x, y = (rows[0] for rows in sample_dominated_pairs(cone, rng, 1))
                assert contains(cone, x, tol=1e-9)
                assert leq(cone, x, y, tol=1e-9)


def inject_pairs(monkeypatch, extra):
    """Append the pairs (x, y) of ``extra`` to every draw of dominated pairs,
    so that a verifier meets a known pair, a violation say, after its samples."""
    draw = order.sample_dominated_pairs

    def drawn_then_extra(cone, rng, n, scale=1.0):
        x, y = draw(cone, rng, n, scale)
        for a, b in extra:
            x, y = np.vstack([x, a]), np.vstack([y, b])
        return x, y

    monkeypatch.setattr(order, "sample_dominated_pairs", drawn_then_extra)


class TestConeDiagnostics:
    def test_orthant_normality_at_most_one(self):
        space = SpaceSpec(dim=3, p=1.5)
        est = _dominated_pair_checks(ORTH3, space, 500, 0)[0]
        assert 0.0 < est <= 1.0 + 1e-12

    def test_estimate_deterministic(self):
        a = _dominated_pair_checks(ORTH2, P2, 200, 9)[0]
        b = _dominated_pair_checks(ORTH2, P2, 200, 9)[0]
        assert a == b

    def test_equal_pair_ratio_is_one(self, monkeypatch):
        x = np.array([1.0, 2.0])
        assert norm(P2, x) / norm(P2, x) == 1.0
        inject_pairs(monkeypatch, [(x, x)])
        report = is_norm_monotonic(ORTH2, P2, 1, seed=0)
        assert report.passed

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            _dominated_pair_checks(ORTH2, P2, 0, 0)

    @pytest.mark.parametrize("estimate", [_dominated_pair_checks, is_norm_monotonic])
    def test_a_negative_seed_is_refused_by_name(self, estimate):
        # numpy's own refusal, "expected non-negative integer", names no seed
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            estimate(ORTH2, P2, 10, seed=-1)

    def test_norm_monotonic_orthant(self):
        report = is_norm_monotonic(ORTH2, P2, 500, seed=10)
        assert report.passed
        # componentwise domination oracle: recheck every sampled shape by hand
        rng = np.random.default_rng(10)
        for _ in range(500):
            x, y = (rows[0] for rows in sample_dominated_pairs(ORTH2, rng, 1))
            assert np.all(x <= y + 1e-12)
            assert norm(P2, x) <= norm(P2, y) + 1e-12

    def test_zero_below_anything(self, monkeypatch):
        inject_pairs(monkeypatch, [(np.zeros(2), np.array([3.0, 4.0]))])
        report = is_norm_monotonic(ORTH2, P2, 1, seed=0)
        assert report.passed

    def test_injected_violation_reported_with_witness(self, monkeypatch):
        bad = (np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        inject_pairs(monkeypatch, [bad])
        report = is_norm_monotonic(ORTH2, P2, 50, seed=0)
        assert not report.passed
        witness = report.violations[0]
        assert np.array_equal(witness.x, bad[0]) and np.array_equal(witness.y, bad[1])
        assert witness.lhs > witness.rhs


# ---------------------------------------------------------------------------
# reference oracles: the pair-by-pair draw and checks, kept verbatim so the
# row-wise versions can be held to the same draws, witnesses and values


def reference_sample_cone_point(cone, rng, scale=1.0):
    if cone.kind == "orthant":
        return rng.uniform(0.0, scale, size=cone.dim)
    base = np.zeros(cone.dim)
    base[-1] = rng.uniform(0.0, scale)
    pert = rng.normal(0.0, scale / 3.0, size=cone.dim)
    return project_to_cone(cone, base + pert)


def reference_member(cone, v, tol):
    if cone.kind == "orthant":
        return bool(v.min() >= -tol)
    return float(v[-1]) >= float(np.linalg.norm(v[:-1])) - tol


def reference_interior_contains(cone, x, tol=MEMBERSHIP_TOL):
    # the former interior rule, with its own orthant and Lorentz branches
    v = as_vector(x, dim=cone.dim)
    if cone.kind == "orthant":
        return bool(np.all(v > tol))
    head = float(np.linalg.norm(v[:-1]))
    return v[-1] > head + tol


def reference_sample_dominated_pair(cone, rng, scale=1.0):
    x = reference_sample_cone_point(cone, rng, scale)
    d = reference_sample_cone_point(cone, rng, scale)
    return x, x + d


def reference_normality_constant_estimate(cone, space, n_samples, seed=0):
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x, y = reference_sample_dominated_pair(cone, rng)
        ny = norm(space, y)
        if ny == 0.0:
            continue
        worst = max(worst, norm(space, x) / ny)
    return worst


def reference_is_norm_monotonic(cone, space, n_samples, seed=0, extra_pairs=None, tol=1e-12):
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    rng = np.random.default_rng(seed)
    pairs = [reference_sample_dominated_pair(cone, rng) for _ in range(n_samples)]
    if extra_pairs is not None:
        pairs.extend((as_vector(a, cone.dim), as_vector(b, cone.dim)) for a, b in extra_pairs)
    report = PropertyReport(name="norm_monotonic", samples=len(pairs))
    for x, y in pairs:
        nx, ny = norm(space, x), norm(space, y)
        if nx > ny + tol:
            report.violations.append(Violation(x=x, y=y, lhs=nx, rhs=ny))
    return report


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
    try:
        return ("returned", fn(*args, **kwargs))
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


LOR2 = ConeSpec(kind="lorentz", dim=2)


class TestReferenceConeRows:
    @pytest.mark.parametrize("cone", [ORTH2, ORTH3, LOR2, LOR3, ConeSpec("lorentz", 6)],
                             ids=lambda c: f"{c.kind}{c.dim}")
    def test_rows_are_the_pointwise_draws(self, cone):
        for seed in range(30):
            for n in (0, 1, 7, 200):
                scale = 1.0 + seed % 3
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                rows = _cone_rows(cone, rng, n, scale)
                assert rows.shape == (n, cone.dim)
                for row in rows:
                    assert np.array_equal(row, reference_sample_cone_point(cone, ref_rng, scale))
                assert rng.uniform() == ref_rng.uniform()
            one = _cone_rows(cone, np.random.default_rng(seed), 1, 2.0)[0]
            assert one.shape == (cone.dim,)
            assert np.array_equal(one, reference_sample_cone_point(cone, np.random.default_rng(seed), 2.0))

    @pytest.mark.parametrize("cone", [ORTH3, LOR2, LOR3], ids=lambda c: f"{c.kind}{c.dim}")
    def test_one_membership_rule(self, cone):
        # the margin rule agrees with the one-vector rule on and near the boundary
        rng = np.random.default_rng(7)
        rows = rng.uniform(-2.0, 2.0, size=(2000, cone.dim))
        boundary = np.array([reference_sample_cone_point(cone, rng) for _ in range(200)])
        if cone.kind == "lorentz":
            boundary[:, -1] = [np.linalg.norm(b[:-1]) for b in boundary]
        else:
            boundary[:, 0] = 0.0
        rows = np.concatenate([rows, boundary, boundary - 1e-12, boundary + 1e-12, boundary - 1e-6])
        for tol in (0.0, MEMBERSHIP_TOL, 1e-9):
            want = [reference_member(cone, v, tol) for v in rows]
            assert _member_raw(cone, rows, tol).tolist() == want
            assert [contains(cone, v, tol) for v in rows] == want
            assert [bool(_member_raw(cone, v, tol)) for v in rows] == want
            assert 0 < sum(want) < len(rows)


def interior_rows(cone, rng, scales, offsets):
    # rows of both signs, their projections onto the cone (boundary rows with
    # margin 0), cone draws, and rows at cone margin k * MEMBERSHIP_TOL for k
    # in ``offsets``
    rows = []
    for scale in scales:
        v = rng.normal(size=(300, cone.dim)) * scale
        rows += [v, [project_to_cone(cone, r) for r in v], _cone_rows(cone, rng, 300, scale)]
        for k in offsets:
            w = v.copy()
            if cone.kind == "lorentz":
                w[:, -1] = [np.linalg.norm(r[:-1]) + k * MEMBERSHIP_TOL for r in v]
            else:
                w = np.where(rng.uniform(size=w.shape) < 0.5, k * MEMBERSHIP_TOL, np.abs(w))
            rows.append(w)
    return np.concatenate(rows)


class TestInteriorRule:
    @pytest.mark.parametrize("cone", [ORTH2, ORTH3, LOR2, LOR3], ids=lambda c: f"{c.kind}{c.dim}")
    def test_matches_former_rule(self, cone):
        rows = interior_rows(cone, np.random.default_rng(11), (1e-12, 1e-9, 1e-3, 1.0, 1e3), (0, 0.5, 2, 4, -1))
        want = [reference_interior_contains(cone, v) for v in rows]
        assert [interior(cone, v) for v in rows] == want
        assert 0 < sum(want) < len(rows)

    @pytest.mark.parametrize("cone", [ORTH3, LOR2, LOR3], ids=lambda c: f"{c.kind}{c.dim}")
    def test_differs_only_within_one_rounding_of_the_margin(self, cone):
        # t - head > tol and t > head + tol round differently only when t is
        # within one ulp of head + tol; the orthant rules never differ
        rows = interior_rows(cone, np.random.default_rng(12), (1e-6, 1.0, 1e3, 1e6), (1, 2, 4))
        differ = [v for v in rows if interior(cone, v) != reference_interior_contains(cone, v)]
        for v in differ:
            assert abs(v[-1] - np.linalg.norm(v[:-1]) - MEMBERSHIP_TOL) <= np.spacing(v[-1])
        assert bool(differ) == (cone.kind == "lorentz")


def ordered_intervals(cone):
    # (lo, hi, z): hi = lo + a cone direction; z anywhere, or on the segment
    # [lo, hi], or an endpoint
    coords = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from([0.0, 1.0, -1.0, 1e-12])
    vec = st.lists(coords, min_size=cone.dim, max_size=cone.dim).map(np.array)

    @st.composite
    def build(draw):
        lo, d = draw(vec), project_to_cone(cone, draw(vec))
        hi = lo + d
        t = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(-0.5, 1.5))
        z = draw(st.sampled_from([lo, hi, lo + t * d]) | vec)
        return lo, hi, z

    return build()


class TestOrderAxioms:
    @pytest.mark.parametrize("cone", [ORTH3, LOR3], ids=["orthant", "lorentz"])
    def test_order_vocabulary(self, cone):
        coords = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from([0.0, 1.0, 1e-12, 5e-13])
        vec = st.lists(coords, min_size=cone.dim, max_size=cone.dim).map(np.array)

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(vec, vec)
        def check(x, y):
            if interior(cone, y - x):
                assert contains(cone, y - x) and leq(cone, x, y)
                assert float(np.max(np.abs(x - y))) > MEMBERSHIP_TOL

        check()

    @pytest.mark.parametrize("cone", [ORTH3, LOR3], ids=["orthant", "lorentz"])
    def test_interval_membership_is_two_order_tests(self, cone):
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(ordered_intervals(cone))
        def check(case):
            lo, hi, z = case
            domain = Domain(kind="interval", cone=cone, lo=lo, hi=hi)
            assert domain_contains(domain, z) == (leq(cone, lo, z) and leq(cone, z, hi))

        check()


class TestReferenceDominatedPairs:
    @pytest.mark.parametrize("cone", [ORTH2, ORTH3, LOR2, LOR3], ids=lambda c: f"{c.kind}{c.dim}")
    def test_rows_are_the_pairwise_draws(self, cone):
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        x, y = sample_dominated_pairs(cone, rng, 40, scale=2.0)
        assert x.shape == y.shape == (40, cone.dim)
        for k in range(40):
            rx, ry = reference_sample_dominated_pair(cone, ref_rng, scale=2.0)
            assert np.array_equal(x[k], rx) and np.array_equal(y[k], ry)
        # both generators are left in the same state
        assert rng.uniform() == ref_rng.uniform()

    def test_single_pair_wrapper(self):
        got = (rows[0] for rows in sample_dominated_pairs(LOR3, np.random.default_rng(5), 1))
        want = reference_sample_dominated_pair(LOR3, np.random.default_rng(5))
        assert all(np.array_equal(a, b) and a.shape == (3,) for a, b in zip(got, want))

    # the cones and seeds of TestConeDiagnostics, plus the Lorentz cone
    @pytest.mark.parametrize(
        "cone, p, n, seed",
        [(ORTH3, 1.5, 500, 0), (ORTH2, 2.0, 200, 9), (ORTH2, 2.0, 500, 10), (LOR3, 1.5, 500, 0),
         (LOR3, 3.0, 200, 9), (LOR2, 2.0, 300, 10)],
    )
    def test_normality_constant_matches_reference(self, cone, p, n, seed):
        space = SpaceSpec(dim=cone.dim, p=p)
        got = _dominated_pair_checks(cone, space, n, seed)[0]
        want = reference_normality_constant_estimate(cone, space, n, seed=seed)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-12 * want
        assert got > 0.0

    @pytest.mark.parametrize("cone", [ORTH2, LOR2], ids=["orthant", "lorentz"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize(
        "extra",
        [None, [], [(np.array([2.0, 2.0]), np.array([1.0, 1.0])), ([0.0, 0.0], [3.0, 4.0])]],
        ids=["none", "empty", "injected"],
    )
    def test_norm_monotonic_matches_reference(self, cone, p, extra, monkeypatch):
        space = SpaceSpec(dim=2, p=p)
        inject_pairs(monkeypatch, extra or [])
        got = is_norm_monotonic(cone, space, 300, seed=4)
        want = reference_is_norm_monotonic(cone, space, 300, seed=4, extra_pairs=extra)
        assert_same_report(got, want)
        assert_same_report(_dominated_pair_checks(cone, space, 300, 4)[1], want)  # the report `order check` prints
        assert got.passed == (not extra)

    @pytest.mark.parametrize("cone", [ORTH2, LOR2], ids=["orthant", "lorentz"])
    def test_norm_monotonic_from_power_sums(self, cone, monkeypatch):
        # at p = 2 a pair passes from its power sums; the report is, bit for
        # bit, the one that roots every pair, for pairs that are equal, that
        # square below _SUM_MIN or past the float range, that fail, or that
        # fail by a few ulp or pass by less
        x = np.array([2.0, 2.0])
        extra = [(x, x), (1e-160 * x, 1.5e-160 * x), (1e-163 * x, 2e-163 * x), (1e160 * x, 2e160 * x),
                 (x, [1.0, 1.0]), (x, np.nextafter(x, 0.0)), ([1.0, 0.0], [1.0 + 1e-12, 0.0]),
                 ([1.0, 0.0], [1.0 - 2e-12, 0.0])]
        inject_pairs(monkeypatch, extra)
        reports, rooted = [], []
        roots = lp._roots
        monkeypatch.setattr(lp, "_roots", lambda space, sums, rows: rooted.append(sums.shape) or roots(space, sums, rows))
        for margin in (lp._PASS_MARGIN, np.inf):
            monkeypatch.setattr(lp, "_PASS_MARGIN", margin)
            rep = is_norm_monotonic(cone, P2, 300, seed=4)
            reports.append((rep.samples, rep.summary(), [
                (v.x.tobytes(), v.y.tobytes(), v.lhs.hex(), v.rhs.hex(), v.scale) for v in rep.violations]))
        assert reports[0] == reports[1]
        assert len(rooted) == 2 and rooted[0][1] < 300 < rooted[1][1]  # some pairs rooted, then all
        assert [(v.x.tolist(), v.y.tolist()) for v in is_norm_monotonic(cone, P2, 300, seed=4).violations[-2:]] == [
            ([2.0, 2.0], [1.0, 1.0]), ([1.0, 0.0], [1.0 - 2e-12, 0.0])]

    def test_space_of_other_dimension_same_error(self):
        space = SpaceSpec(dim=3, p=2.0)
        for fn, ref in ((is_norm_monotonic, reference_is_norm_monotonic),
                        (lambda *a, **k: _dominated_pair_checks(*a, **k)[0], reference_normality_constant_estimate)):
            got, want = outcome(fn, ORTH2, space, 10, seed=0), outcome(ref, ORTH2, space, 10, seed=0)
            assert got[0] == "raised" and got == want
