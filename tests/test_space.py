"""lp norms and convexity geometry."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

import orderfp
from orderfp.space import (
    ConvexityProfile,
    SpaceSpec,
    as_vector,
    check_convexity_inequality,
    convexity_profile,
    modulus_of_convexity,
    norm,
    _lp_norm_floats,
    _row_norms,
)

P2 = SpaceSpec(dim=2, p=2.0)


def closed_form_delta2(eps: float) -> float:
    """Euclidean modulus: 1 - sqrt(1 - eps^2/4)."""
    return 1.0 - math.sqrt(max(1.0 - eps * eps / 4.0, 0.0))


def grid_search_delta(p: float, eps, n: int = 3000):
    """Brute-force oracle: minimize 1 - ||x+y||/2 over pairs on the lp unit
    circle at lp distance >= eps (upper bound of the true infimum).

    ``eps`` may be a scalar or an array; the result has the same shape."""
    eps = np.asarray(eps, dtype=float)
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    scale = np.sum(np.abs(dirs) ** p, axis=1) ** (1.0 / p)
    pts = dirs / scale[:, None]
    best = np.ones(eps.shape)
    for i in range(n):
        diff = np.sum(np.abs(pts - pts[i]) ** p, axis=1) ** (1.0 / p)
        gap = 1.0 - 0.5 * np.sum(np.abs(pts + pts[i]) ** p, axis=1) ** (1.0 / p)
        order = np.argsort(diff)
        # tail_min[k]: smallest gap among partners at the k-th smallest distance or more
        tail_min = np.minimum.accumulate(gap[order][::-1])[::-1]
        k = np.searchsorted(diff[order], eps, side="left")
        best = np.where(k < n, np.minimum(best, tail_min[np.minimum(k, n - 1)]), best)
    return float(best) if best.ndim == 0 else best


def slsqp_delta(p: float, eps: float, dim: int) -> float:
    """Independent oracle for p <= 3: minimize 1 - ||x+y||/2 over pairs in the
    unit ball of R^dim with ||x-y|| >= eps by multi-start SLSQP on the smooth
    p-th-power forms. Starts: the axis-aligned pair (optimal for p >= 2), the
    diagonal pair where the p < 2 ball is flattest, and random jitter."""

    def ppow(u):
        return float(np.sum(np.abs(u) ** p))

    def grad(u):
        return p * np.sign(u) * np.abs(u) ** (p - 1.0)

    def unit(v):
        return v / ppow(v) ** (1.0 / p)

    half = eps / 2.0
    x0, y0 = np.zeros(dim), np.zeros(dim)
    x0[:2] = (max(1.0 - half**p, 0.0) ** (1.0 / p), half)
    y0[:2] = (x0[0], -half)
    starts = [np.concatenate([x0, y0])]
    c = unit(np.ones(dim))
    d = np.zeros(dim)
    d[:2] = (1.0, -1.0)
    lo, hi = 0.0, 2.0  # bisect the offset t so that the diagonal pair sits at distance eps
    for _ in range(40):
        t = 0.5 * (lo + hi)
        if ppow(unit(c + t * d) - unit(c - t * d)) ** (1.0 / p) < eps:
            lo = t
        else:
            hi = t
    starts.append(np.concatenate([unit(c + hi * d), unit(c - hi * d)]))
    rng = np.random.default_rng(0)
    starts += [starts[0] + rng.normal(scale=0.05, size=2 * dim) for _ in range(2)]

    zero = np.zeros(dim)
    constraints = [
        {"type": "ineq", "fun": lambda z: 1.0 - ppow(z[:dim]),
         "jac": lambda z: np.concatenate([-grad(z[:dim]), zero])},
        {"type": "ineq", "fun": lambda z: 1.0 - ppow(z[dim:]),
         "jac": lambda z: np.concatenate([zero, -grad(z[dim:])])},
        {"type": "ineq", "fun": lambda z: ppow(z[:dim] - z[dim:]) - eps**p,
         "jac": lambda z: np.concatenate([grad(z[:dim] - z[dim:]), -grad(z[:dim] - z[dim:])])},
    ]
    best = None
    for start in starts:
        res = minimize(lambda z: -ppow(z[:dim] + z[dim:]), start,
                       jac=lambda z: -np.tile(grad(z[:dim] + z[dim:]), 2),
                       method="SLSQP", constraints=constraints,
                       options={"maxiter": 300, "ftol": 1e-14})
        if res.success and (best is None or -res.fun > best):
            best = -res.fun
    assert best is not None, f"SLSQP failed from every start at p={p}, eps={eps}"
    return 1.0 - 0.5 * max(best, 0.0) ** (1.0 / p)


def hanner_delta(p: float, eps: float) -> float:
    """1 < p < 2: the root of (1-d+e/2)^p + |1-d-e/2|^p = 2 by brentq."""
    if eps == 2.0:
        return 1.0  # double root, where brentq needs a sign change
    return brentq(lambda d: (1 - d + eps / 2) ** p + abs(1 - d - eps / 2) ** p - 2.0,
                  0.0, 1.0, xtol=1e-15)


def clarkson_delta(p: float, eps: float) -> float:
    """p >= 2: 1 - (1 - (eps/2)^p)^(1/p)."""
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


class TestVectorsAndNorm:
    def test_pythagorean(self):
        assert norm(P2, [3.0, 4.0]) == 5.0

    def test_zero_vector(self):
        for p in (1.5, 2.0, 3.0):
            assert norm(SpaceSpec(dim=3, p=p), np.zeros(3)) == 0.0

    @pytest.mark.parametrize(
        "p, x",
        [(3.0, [1.0, 1.0, 1.0]), (2.0, [1e160, 1.0]), (200.0, [40.0, 1.0]), (1100.0, [0.5, 0.5])],
        ids=["p3-ones", "p2-overflow", "p200-overflow", "p1100-underflow"],
    )
    def test_against_high_precision_summation(self, p, x):
        # the last three power sums overflow or underflow a double; every
        # carrier rescales them to within 4 ulp of the 60-digit value
        import mpmath as mp

        with mp.workdps(60):
            oracle = float(mp.fsum(mp.mpf(a) ** p for a in x) ** (1 / mp.mpf(p)))
        if p == 3.0:
            assert oracle == 1.4422495703074083  # frozen from the mpmath oracle
        space = SpaceSpec(dim=len(x), p=p)
        row = np.linspace(0.5, 1.0, len(x))
        rows = _row_norms(space, np.array([[x, row, np.zeros(len(x))]]))
        ordinary = float(np.sum(row**p)) ** (1.0 / p)
        assert rows[0, 1:].tolist() == [ordinary, 0.0]
        for got in (norm(space, x), rows[0, 0], _lp_norm_floats(x, p)):
            assert math.isfinite(got) and abs(got - oracle) <= 4 * math.ulp(oracle)

    def test_norm_positive_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=4)
            assert norm(SpaceSpec(dim=4, p=2.5), x) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            norm(P2, [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            norm(P2, [1.0, float("nan")])
        with pytest.raises(ValueError):
            as_vector([np.inf, 0.0])

    def test_space_spec_validation(self):
        with pytest.raises(ValueError):
            SpaceSpec(dim=0, p=2.0)
        with pytest.raises(ValueError):
            SpaceSpec(dim=2, p=1.0)
        with pytest.raises(ValueError):
            SpaceSpec(dim=2, p=float("inf"))


class TestModulus:
    def test_zero_eps(self):
        for p in (1.5, 2.0, 3.0):
            assert modulus_of_convexity(SpaceSpec(dim=2, p=p), 0.0) == 0.0

    def test_euclidean_closed_form_at_one(self):
        # closed form at eps=1 is 1 - sqrt(3)/2; the grid oracle vouches for it
        closed = closed_form_delta2(1.0)
        assert closed == 0.1339745962155614
        assert abs(grid_search_delta(2.0, 1.0) - closed) < 1e-3
        assert abs(modulus_of_convexity(P2, 1.0) - closed) < 1e-9

    def test_euclidean_extreme_eps(self):
        assert abs(modulus_of_convexity(P2, 2.0) - 1.0) < 1e-5
        assert abs(grid_search_delta(2.0, 2.0, n=800) - 1.0) < 1e-6

    def test_grid_oracle_upper_bounds_minimizer(self):
        for p in (1.5, 3.0):
            space = SpaceSpec(dim=2, p=p)
            for eps in (0.5, 1.0, 1.5):
                solver = modulus_of_convexity(space, eps)
                oracle = grid_search_delta(p, eps, n=1500)
                assert solver <= oracle + 1e-9
                assert oracle - solver < 2e-3

    def test_p_ge_2_explicit_formula(self):
        # for p >= 2 the two-point section gives 1 - (1 - (eps/2)^p)^(1/p)
        for eps in (0.5, 1.0, 1.9):
            expected = 1.0 - (1.0 - (eps / 2.0) ** 3) ** (1.0 / 3.0)
            assert abs(modulus_of_convexity(SpaceSpec(dim=2, p=3.0), eps) - expected) < 1e-9

    def test_p_below_2_two_point_equation(self):
        # independent oracle: delta solves (1-d+e/2)^p + |1-d-e/2|^p = 2
        for p in (1.5, 1.8):
            for eps in (0.5, 1.0, 1.5):
                got = modulus_of_convexity(SpaceSpec(dim=2, p=p), eps)
                assert abs(got - hanner_delta(p, eps)) < 1e-9

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            modulus_of_convexity(P2, -0.1)
        with pytest.raises(ValueError):
            modulus_of_convexity(P2, 2.1)

    def test_dim3_section_agrees(self):
        # the SLSQP oracle in 2- and 3-dimensional sections finds the closed form
        for p in (1.5, 2.0, 3.0):
            space = SpaceSpec(dim=3, p=p)
            for eps in (0.5, 1.5):
                closed = modulus_of_convexity(space, eps)
                for section in (2, 3):
                    assert abs(slsqp_delta(p, eps, section) - closed) < 1e-8

    @pytest.mark.parametrize("p", [1.1, 1.3, 1.5, 1.9, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0])
    def test_closed_form_sweep(self, p):
        grid = np.linspace(0.0, 2.0, 101)
        space = SpaceSpec(dim=2, p=p)
        got = np.array([modulus_of_convexity(space, float(e)) for e in grid])
        oracle = hanner_delta if p < 2.0 else clarkson_delta
        expected = np.array([oracle(p, float(e)) for e in grid])
        assert np.max(np.abs(got - expected)) < 1e-12
        # at eps = 2 only antipodal pairs are feasible, so delta = 1; the grid
        # oracle cannot vouch for it, as at p = 10 a pair 1e-15 short of
        # distance 2 rounds to 2 and has a gap of only 0.97
        assert got[-1] == 1.0
        assert np.all(got[:-1] <= grid_search_delta(p, grid[:-1], n=600) + 1e-12)
        assert np.all(np.diff(got) >= 0.0)

    def test_deterministic(self):
        a = modulus_of_convexity(SpaceSpec(dim=2, p=1.7), 0.9)
        b = modulus_of_convexity(SpaceSpec(dim=2, p=1.7), 0.9)
        assert a == b


class TestProfileAndCharacteristic:
    def test_characteristic_vanishes(self):
        for p in (1.5, 2.0):
            eps0 = convexity_profile(SpaceSpec(dim=2, p=p), n_grid=21).eps0
            assert eps0 <= 2.0 / 20.0 + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            convexity_profile(P2, n_grid=1)
        with pytest.raises(ValueError):
            convexity_profile(P2, n_grid=0)

    def test_profile_monotone_and_bounded(self):
        profile = convexity_profile(SpaceSpec(dim=2, p=1.5), n_grid=41)
        assert np.all(profile.deltas >= 0.0) and np.all(profile.deltas <= 1.0)
        assert np.all(np.diff(profile.deltas) >= -1e-9)

    def test_profile_strictly_increasing_beyond_characteristic(self):
        profile = convexity_profile(SpaceSpec(dim=2, p=3.0), n_grid=41)
        beyond = profile.epsilons > profile.eps0
        diffs = np.diff(profile.deltas[beyond])
        assert np.all(diffs > 1e-8)

    def test_profile_continuity_scale(self):
        # continuity holds on [0, 2); steps near the right endpoint scale like
        # sqrt(grid step) because the p=2 modulus has a square-root cusp at 2
        profile = convexity_profile(P2, n_grid=41)
        step = profile.epsilons[1] - profile.epsilons[0]
        diffs = np.diff(profile.deltas)
        inner = profile.epsilons[1:] <= 1.5
        assert np.max(diffs[inner]) < 3.0 * step
        assert np.max(diffs) < 2.5 * math.sqrt(step)

    def test_profile_floor_lookup(self):
        profile = convexity_profile(P2, n_grid=21)
        assert profile.delta_at(-1.0) == profile.deltas[0]
        assert profile.delta_at(2.5) == profile.deltas[-1]
        mid = 0.5 * (profile.epsilons[7] + profile.epsilons[8])
        assert profile.delta_at(mid) == profile.deltas[7]

    def test_bad_profile_rejected(self):
        eps = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            ConvexityProfile(p=2.0, epsilons=eps, deltas=np.array([0.0, 0.5, 0.1]),
                             eps0=0.0, zero_tol=1e-8)
        with pytest.raises(ValueError, match=r"escaped \[0, 1\]"):
            ConvexityProfile(p=2.0, epsilons=eps, deltas=np.array([0.0, 0.5, 1.5]),
                             eps0=0.0, zero_tol=1e-8)
        with pytest.raises(ValueError):
            ConvexityProfile(p=2.0, epsilons=np.array([]), deltas=np.array([]),
                             eps0=0.0, zero_tol=1e-8)


class TestConvexCombinationBound:
    def test_identity_pair(self):
        x = np.array([0.7, -0.2])
        for lam in (0.0, 0.3, 0.5, 1.0):
            assert check_convexity_inequality(P2, x, x, lam, norm(P2, x))

    def test_orthogonal_midpoint_attains_bound(self):
        # lhs = sqrt(2)/2 and rhs = 1 - delta2(sqrt 2) coincide: this pair is
        # extremal for its separation
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert check_convexity_inequality(P2, x, y, 0.5, 1.0)
        delta = 1.0 - math.sqrt(0.5)
        assert delta == 0.2928932188134524
        lhs = norm(P2, 0.5 * x + 0.5 * y)
        assert abs(lhs - (1.0 - delta)) < 1e-12

    def test_randomized_suite_small(self):
        rng = np.random.default_rng(11)
        for p in (1.5, 2.0, 3.0):
            space = SpaceSpec(dim=2, p=p)
            profile = convexity_profile(space, n_grid=41)
            for _ in range(300):
                r = rng.uniform(0.5, 4.0)
                u = rng.normal(size=2)
                v = rng.normal(size=2)
                x = u / norm(space, u) * r * rng.uniform(0.0, 1.0)
                y = v / norm(space, v) * r * rng.uniform(0.0, 1.0)
                lam = rng.uniform(0.0, 1.0)
                assert check_convexity_inequality(space, x, y, lam, r, delta_fn=profile.delta_at)

    def test_precondition_failures_name_the_bound(self):
        with pytest.raises(ValueError, match="ball precondition"):
            check_convexity_inequality(P2, [2.0, 0.0], [0.0, 0.0], 0.5, 1.0)
        with pytest.raises(ValueError, match=r"ball precondition failed: \|\|x\|\|=3e\+200 exceeds"):
            check_convexity_inequality(P2, [3e200, 0.0], [0.0, 1e200], 0.5, 2e200)
        with pytest.raises(ValueError, match="lambda precondition"):
            check_convexity_inequality(P2, [0.5, 0.0], [0.0, 0.5], 1.5, 1.0)
        with pytest.raises(ValueError, match="radius precondition"):
            check_convexity_inequality(P2, [0.0, 0.0], [0.0, 0.0], 0.5, 0.0)
        with pytest.raises(ValueError, match="radius precondition failed: r=inf is not positive finite"):
            check_convexity_inequality(P2, [1.7e308, 0.0], [-1.7e308, 0.0], 0.5, math.inf)

    def test_extreme_scale_tuples_keep_their_verdict(self):
        # each |a|^2 overflows (or underflows) a float; the check rescales
        # instead of reporting ||x|| = inf against r
        assert check_convexity_inequality(P2, [1e200, 0.0], [0.0, 1e200], 0.5, 2e200)
        assert check_convexity_inequality(P2, [1e-200, 0.0], [0.0, 1e-200], 0.5, 2e-200)
        # x - y overflows to inf: eps is capped at 2, and the midpoint is 0
        assert check_convexity_inequality(P2, [1.5e308, 0.0], [-1.5e308, 0.0], 0.5, 1.6e308)


def stacked_norms(space, x, y, lam):
    """The check's former numpy formula for its four norms, one stacked power."""
    p = space.p
    stacked = np.stack([x, y, x - y, lam * x + (1.0 - lam) * y])
    return (np.sum(np.abs(stacked) ** p, axis=1) ** (1.0 / p)).tolist()


def scalar_root_norms(space, rows):
    """``_row_norms``' formula before it rescaled: one power sum per row, its
    root taken as a Python scalar."""
    sums = (np.abs(rows) ** space.p).sum(axis=-1)
    return [s ** (1.0 / space.p) for s in sums.tolist()]


def stacked_verdict(space, x, y, lam, r, delta_fn):
    nx, ny, nd, lhs = stacked_norms(space, x, y, lam)
    assert nx <= r * (1.0 + 1e-12) + 1e-12 and ny <= r * (1.0 + 1e-12) + 1e-12
    rhs = r * (1.0 - 2.0 * min(lam, 1.0 - lam) * delta_fn(min(nd / r, 2.0)))
    return lhs <= rhs + 1e-9 + 1e-9 * abs(rhs)


def reference_delta_at(profile, eps):
    """The searchsorted floor lookup ``delta_at`` used before ``bisect``."""
    eps = min(max(eps, 0.0), 2.0)
    idx = int(np.searchsorted(profile.epsilons, eps, side="right")) - 1
    return float(profile.deltas[max(idx, 0)])


class TestFloatNormParity:
    """The Python-float norms of the convexity check against its numpy formula."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("dim", [2, 5, 20])
    def test_norms_and_verdicts_match_stacked_formula(self, p, dim):
        rng = np.random.default_rng(int(10 * p) + dim)
        space = SpaceSpec(dim=dim, p=p)
        profile = convexity_profile(SpaceSpec(dim=2, p=p), n_grid=101)
        worst = 0.0
        for k in range(2000):
            r = rng.uniform(0.5, 4.0)
            u = rng.normal(size=dim)
            v = rng.normal(size=dim)
            x = u / norm(space, u) * (r * rng.uniform())
            y = v / norm(space, v) * (r * rng.uniform())
            lam = 0.5 if k % 10 == 0 else rng.uniform()
            xs, ys = x.tolist(), y.tolist()
            ours = [
                _lp_norm_floats(xs, p),
                _lp_norm_floats(ys, p),
                _lp_norm_floats([a - b for a, b in zip(xs, ys)], p),
                _lp_norm_floats([lam * a + (1.0 - lam) * b for a, b in zip(xs, ys)], p),
            ]
            for new, old in zip(ours, stacked_norms(space, x, y, lam)):
                worst = max(worst, abs(new - old) / old)
            rows = np.stack([x, y, x - y, lam * x + (1.0 - lam) * y])
            assert _row_norms(space, rows[None])[0].tolist() == scalar_root_norms(space, rows)
            assert norm(space, x) == scalar_root_norms(space, x[None])[0]
            assert check_convexity_inequality(space, x, y, lam, r, delta_fn=profile.delta_at) == \
                stacked_verdict(space, x, y, lam, r, profile.delta_at)
        assert worst <= 1e-15

    def test_scaled_norms(self):
        assert _lp_norm_floats([0.0, -0.0], 2.0) == 0.0
        assert _lp_norm_floats([3e200, -4e200], 2.0) == pytest.approx(5e200, rel=1e-15)
        assert _lp_norm_floats([3e-200, 4e-200], 2.0) == pytest.approx(5e-200, rel=1e-15)
        assert _lp_norm_floats([1e300, 1e300], 3.0) == pytest.approx(2 ** (1 / 3) * 1e300, rel=1e-15)
        assert _lp_norm_floats([1.5e308, -1.5e308], 2.0) == math.inf
        # in a block, rows whose power sum lies just inside [float_info.min,
        # inf) keep the plain formula's bits, the rows just outside are
        # rescaled, and the non-finite rows keep inf and nan
        safe = [[1e154, 0.0], [1.5e-154, 0.0], [1.3e154, 1.0], [3.0, -4.0], [0.0, -0.0]]
        unsafe = [[1.4e154, 1.0], [1.4e-154, 0.0], [1e-300, -1e-300]]
        got = _row_norms(P2, np.array([safe + unsafe + [[math.inf, 1.0], [math.nan, 1.0]]]), slice(0))
        got = got[0].tolist()
        assert got[:5] == scalar_root_norms(P2, np.array(safe))
        assert got[5:8] == [_lp_norm_floats(row, 2.0) for row in unsafe]
        assert all(0.0 < v < math.inf for v in got[5:8])
        assert got[8] == math.inf and math.isnan(got[9])

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_delta_at_matches_searchsorted(self, p):
        profile = convexity_profile(SpaceSpec(dim=2, p=p), n_grid=101)
        nodes = profile.epsilons.tolist()
        mids = [0.5 * (a + b) for a, b in zip(nodes, nodes[1:])]
        for eps in nodes + mids + [-1.0, 2.5, math.nan]:
            assert profile.delta_at(eps) == reference_delta_at(profile, eps)


class TestKadecKleeDeskScale:
    def test_coordinate_and_norm_convergence_forces_distance(self):
        # finite-dimensional surrogate: coordinatewise convergence plus norm
        # convergence leaves no room for escaping mass
        rng = np.random.default_rng(3)
        space = SpaceSpec(dim=4, p=2.5)
        x = rng.normal(size=4)
        seq = [x + (0.5 ** n) * rng.normal(size=4) for n in range(1, 30)]
        coord_gap = [float(np.max(np.abs(s - x))) for s in seq]
        norm_gap = [abs(norm(space, s) - norm(space, x)) for s in seq]
        dist = [norm(space, s - x) for s in seq]
        assert coord_gap[-1] < 1e-7 and norm_gap[-1] < 1e-7
        assert dist[-1] < 1e-6
        assert dist[-1] <= dist[0]


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing the package must not pull it in
    code = "import sys, orderfp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env_path = str(Path(orderfp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=env_path),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
