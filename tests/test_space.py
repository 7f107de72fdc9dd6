"""lp norms and convexity geometry."""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq, minimize

import orderfp
from orderfp import corpus
from orderfp import space as lp
from orderfp.asymcenter import asymptotic_radius, make_problem
from orderfp.iterate import IterationConfig, _orbit, picard_orbit
from orderfp.mapping import (
    SamplerConfig,
    classify_hilbert_classes,
    is_alpha_nonexpansive,
    is_monotone_nonexpansive,
)
from orderfp.order import ConeSpec, is_norm_monotonic
from orderfp.space import (
    ConvexityProfile,
    SpaceSpec,
    as_vector,
    check_convexity_inequality,
    convexity_profile,
    modulus_of_convexity,
    norm,
    _SQRT_ROWS,
    _lp_norm_floats,
    _power_sums,
    _roots,
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
        # the lookup reads lists kept at construction; the arrays stay writable
        profile.deltas[:] = 0.0
        assert profile.delta_at(mid) > 0.0

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
        # a grid `delta_at` cannot bisect: a delta short, a non-finite node, an unsorted grid
        deltas = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="^profile has 2 epsilons but 3 deltas$"):
            ConvexityProfile(p=2.0, epsilons=eps[:2], deltas=deltas, eps0=0.0, zero_tol=1e-8)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^profile epsilons are not all finite$"):
                ConvexityProfile(p=2.0, epsilons=np.array([0.0, 1.0, bad]), deltas=deltas,
                                 eps0=0.0, zero_tol=1e-8)
        with pytest.raises(ValueError, match="^profile epsilons are not sorted$"):
            ConvexityProfile(p=2.0, epsilons=np.array([0.0, 2.0, 1.0]), deltas=deltas,
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
        with pytest.raises(ValueError, match="^vector has non-finite coordinates$"):
            check_convexity_inequality(P2, [math.nan, 0.0], [0.0, 0.0], 0.5, 1.0)
        with pytest.raises(ValueError, match="^vector has non-finite coordinates$"):
            check_convexity_inequality(P2, [0.0, 0.0], [0.0, -math.inf], 0.5, 1.0)
        with pytest.raises(ValueError, match="^dimension mismatch: expected 2, got 3$"):
            check_convexity_inequality(P2, [0.0, 0.0], [0.0, 0.0, 0.0], 0.5, 1.0)

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


def reference_convexity_check(space, x, y, lam, r, delta_fn=None):
    """``check_convexity_inequality`` with its four norms from four separate
    ``_lp_norm_floats`` calls, the form before the fused power-sum loop."""
    xv = as_vector(x, dim=space.dim)
    yv = as_vector(y, dim=space.dim)
    if not (0.0 < r < math.inf):
        raise ValueError(f"radius precondition failed: r={r} is not positive finite")
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda precondition failed: lam={lam} outside [0, 1]")
    p = space.p
    xs, ys = xv.tolist(), yv.tolist()
    nx = _lp_norm_floats(xs, p)
    ny = _lp_norm_floats(ys, p)
    nd = _lp_norm_floats([a - b for a, b in zip(xs, ys)], p)
    mu = 1.0 - lam
    lhs = _lp_norm_floats([lam * a + mu * b for a, b in zip(xs, ys)], p)
    guard = 1e-12
    if nx > r * (1.0 + guard) + guard:
        raise ValueError(f"ball precondition failed: ||x||={nx} exceeds r={r}")
    if ny > r * (1.0 + guard) + guard:
        raise ValueError(f"ball precondition failed: ||y||={ny} exceeds r={r}")
    eps_arg = min(nd / r, 2.0)
    delta = modulus_of_convexity(space, eps_arg) if delta_fn is None else delta_fn(eps_arg)
    rhs = r * (1.0 - 2.0 * min(lam, mu) * delta)
    return lhs <= rhs + lp.INEQ_ATOL + lp.INEQ_RTOL * abs(rhs)


@st.composite
def convexity_tuples(draw):
    # d = 1-20, p in [1.1, 7.5], coordinates of one scale from 1e-200 to
    # 1e200, one in five +-0.0 (at 1e+-200 the power sums overflow or
    # underflow for p > 1.54), y == x one time in five, r near the larger
    # norm so that the ball precondition holds or fails, lam and r now and
    # then out of range, and deltas from a profile, the closed form or a
    # constant 1 (too large: the bound then fails)
    d = draw(st.integers(1, 20))
    p = draw(st.floats(1.1, 7.5))
    scale = 10.0 ** draw(st.sampled_from([-200, -160, -100, -20, 0, 20, 100, 154, 200]))

    def coords():
        kinds = draw(st.lists(st.integers(0, 9), min_size=d, max_size=d))
        return [(0.0, -0.0)[k - 8] if k > 7 else (-1.0) ** k * scale * draw(st.floats(0.1, 10.0)) for k in kinds]

    x = coords()
    y = list(x) if draw(st.integers(0, 4)) == 4 else coords()
    lam = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 1.0))
    top = max(_lp_norm_floats(x, p), _lp_norm_floats(y, p)) or scale
    k = draw(st.integers(0, 9))
    r = (top, 0.0, math.inf)[k - 7] if k > 6 else top * draw(st.floats(0.5, 2.0))
    return SpaceSpec(dim=d, p=p), x, y, lam, r, draw(st.sampled_from(["profile", "closed", "one"]))


def convexity_outcome(check, space, x, y, lam, r, deltas):
    delta_fn = {
        "profile": convexity_profile(SpaceSpec(dim=2, p=space.p), n_grid=21).delta_at,
        "closed": None,
        "one": lambda eps: 1.0,
    }[deltas]
    try:
        return check(space, x, y, lam, r, delta_fn=delta_fn)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(convexity_tuples())
@example((P2, [1e200, 0.0], [0.0, 1e200], 0.5, 2e200, "closed"))  # OverflowError in x's sum
@example((P2, [1e-200, 0.0], [0.0, 1e-200], 0.5, 2e-200, "profile"))  # every sum underflows
@example((P2, [1.5e308, 0.0], [-1.5e308, 0.0], 0.5, 1.6e308, "closed"))  # x - y is inf
@example((SpaceSpec(dim=3, p=3.0), [0.5, -0.0, 0.25], [0.5, -0.0, 0.25], 0.3, 1.0, "profile"))  # x == y
@example((P2, [1e-160, 0.0], [0.0, 1.0], 0.5, 1.0, "one"))  # x's sum is subnormal
def test_fused_power_sums_keep_the_reference_verdict(case):
    # the fused loop, and its fall back to `_lp_norm_floats` out of range,
    # give the verdict, or the error type and text, of four separate calls
    assert convexity_outcome(check_convexity_inequality, *case) == \
        convexity_outcome(reference_convexity_check, *case)


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
        got = _row_norms(P2, np.array([safe + unsafe + [[math.inf, 1.0], [math.nan, 1.0]]]))
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
        below = np.nextafter(profile.epsilons, -math.inf).tolist()
        above = np.nextafter(profile.epsilons, math.inf).tolist()
        for eps in nodes + mids + below + above + [-0.0, -1.0, 2.5, 3.0, math.nan, math.inf, -math.inf]:
            got = profile.delta_at(eps)
            assert type(got) is float and got == reference_delta_at(profile, eps)


def rescaled_root_norms(rows):
    """The p = 2 kernel rule with every root a Python scalar ``s ** 0.5``:
    ``scalar_root_norms``, with a nonzero row whose power sum is out of range
    redone by ``_lp_norm_floats``."""
    with np.errstate(over="ignore"):
        out = scalar_root_norms(P2, rows)
        sums = (np.abs(rows) ** 2.0).sum(axis=-1)
    for k in np.flatnonzero(((sums < sys.float_info.min) | (sums == math.inf)) & rows.any(axis=-1)):
        out[k] = _lp_norm_floats(rows[k].tolist(), 2.0)
    return np.array(out)


def near_midpoint_rows(qs):
    """Rows [q, b] whose power sum is fl(m^2), m = q + spacing(q)/2 the
    midpoint above q, so the exact root of the sum lies within about a
    quarter ulp of a rounding midpoint; b^2 adds the few ulp from fl(q^2)."""
    rows, targets = [], []
    for q in qs.tolist():
        mant, e = math.frexp(q)
        m2 = math.ldexp(float((2 * int(mant * 2.0**53) + 1) ** 2), 2 * e - 108)
        rows.append([q, math.sqrt(m2 - q * q)])
        targets.append(m2)
    return np.array(rows), np.array(targets)


class TestSqrtRoots:
    """At p = 2 a call of ``_SQRT_ROWS`` rows or more takes its roots with
    np.sqrt and certifies each one against the scalar ``s ** 0.5``."""

    def test_roots_match_the_scalar_root_bit_for_bit(self):
        rng = np.random.default_rng(2020)
        n = 1_000_000
        big = 10.0 ** rng.uniform(-152.0, 154.1, n)  # sums up to past overflow
        wide = np.stack([big, big * rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 0.0, n)], axis=1)
        tiny = 10.0 ** rng.uniform(-163.0, -143.0, (40_000, 2))  # sums around 2**-960, subnormal ones too
        ints = rng.integers(0, 2**26, 20_000).astype(float)
        squares = np.stack([ints * 2.0 ** rng.integers(-400, 400, ints.size), np.zeros(ints.size)], axis=1)
        special = np.array([
            [0.0, 0.0], [-0.0, 0.0], [3.0, 4.0], [5e-324, 0.0], [1e-160, 1e-160], [1e-200, 0.0],
            [1.3e154, 1.0], [1.4e154, 0.0], [math.inf, 1.0], [math.nan, 1.0], [math.inf, math.nan],
        ])
        # 2**-511 to 2**-480: sums from the smallest normal up to past 2**-960
        midpoints, targets = near_midpoint_rows(np.concatenate([
            10.0 ** rng.uniform(-140.0, 150.0, 20_000), 2.0 ** rng.uniform(-511.0, -480.0, 20_000)
        ]))
        assert (midpoints**2).sum(axis=-1).tolist() == targets.tolist()
        rows = np.concatenate([wide, tiny, squares, special, midpoints])
        rows = rows[rng.permutation(len(rows))]
        for chunk in np.array_split(rows, 16):
            got = _row_norms(P2, chunk[None])[0]
            assert got.view(np.int64).tolist() == rescaled_root_norms(chunk).view(np.int64).tolist()
        # the fallback fires: np.sqrt alone would give other bits on some midpoints
        got = _row_norms(P2, midpoints[None])[0]
        differ = np.sqrt(targets) != got
        assert differ.sum() >= 20 and got.tolist() == [s**0.5 for s in targets.tolist()]

    def test_the_row_count_switch_keeps_the_bits(self):
        midpoints, targets = near_midpoint_rows(10.0 ** np.random.default_rng(7).uniform(-140.0, 150.0, 2000))
        first = np.flatnonzero(np.sqrt(targets) != [s**0.5 for s in targets.tolist()])[0]
        n = _SQRT_ROWS
        block = np.concatenate([midpoints[first:], midpoints[:first]])[:n]
        short = _row_norms(P2, block[None, : n - 1])[0]
        full = _row_norms(P2, block[None])[0]
        assert full[: n - 1].view(np.int64).tolist() == short.view(np.int64).tolist()
        assert full.tolist() == scalar_root_norms(P2, block)

    @pytest.mark.parametrize("row", [
        [3.0, 4.0], [0.0, -0.0], [1e-200, 0.0], [1e-160, 1e-160], [1e200, 1.0], [math.inf, 1.0], [math.nan, 1.0],
    ])
    def test_one_row_takes_the_rule_of_a_block(self, row):
        one = _row_norms(P2, np.array([[row]]))[0, 0]
        block = _row_norms(P2, np.array([[row, [1.0, 1.0]]]))[0, 0]
        assert np.array([one]).view(np.int64) == np.array([block]).view(np.int64)


def test_p2_power_sums_are_correctly_rounded_squares():
    # x = k 2^-52 in [1, sqrt 2) has the exact square k^2 2^-104, within a
    # thousandth of an ulp of the midpoint between two doubles: glibc's pow
    # misrounded 215 of these 843 on x86-64 (numpy 2.4), and `_power_sums`
    # at p = 2 must give the correctly rounded square, as np.abs(v) ** 2.0
    # and v * v do, for either sign and across the exponent range
    from fractions import Fraction

    rng = np.random.default_rng(57)
    ks = [k for k in rng.integers(2**52, int(2**52 * math.sqrt(2.0)), 400_000).tolist()
          if abs(k * k % 2**52 - 2**51) < 2**52 * 1e-3]
    exact = np.array([float(Fraction(k * k, 2**104)) for k in ks])
    x = np.array(ks, dtype=float) * 2.0**-52
    assert len(ks) > 500
    sign = rng.choice([-1.0, 1.0], x.size)
    for e in (-500, 0, 500):
        v = sign * x * 2.0**e
        got = _power_sums(SpaceSpec(dim=1, p=2.0), v[:, None])
        want = exact * 2.0 ** (2 * e)
        for other in (want, np.abs(v) ** 2.0, v * v):
            assert got.view(np.int64).tolist() == other.view(np.int64).tolist()
    # rows of several terms sum the same squares in the same order
    rows = (sign * x)[: x.size // 4 * 4].reshape(-1, 4)
    got = _power_sums(SpaceSpec(dim=4, p=2.0), rows)
    assert got.view(np.int64).tolist() == (np.abs(rows) ** 2.0).sum(axis=-1).view(np.int64).tolist()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", range(1, 10))
def test_power_sums_have_the_bits_of_numpys_sum(d, p):
    # below 8 terms at p = 2 `_power_sums` adds the columns' squares one by
    # one; every p must give the bits of .sum(axis=-1) over the terms, on a
    # contiguous block and on the layouts `_orbit` passes: the rows of k + 1
    # slabs (orbits, d, 1) seen orbit-major, and their last two steps. Half
    # the orbits mix scales from 1e-300 to 1e300, and half have terms of one
    # scale a row, whose sum depends on the order of the adds
    rng = np.random.default_rng(100 * d + int(10 * p))
    orbits, steps = 8, 300
    scale = rng.uniform(-300.0, 300.0, (orbits, steps, d))
    scale[::2] = scale[::2, :, :1] / p + rng.uniform(0.0, 0.3, (orbits // 2, steps, d))
    v = rng.choice([-1.0, 1.0], (orbits, steps, d)) * 10.0**scale
    special = rng.random(v.shape)
    v[special < 0.2] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], int((special < 0.2).sum()))
    slabs = np.empty((steps, orbits, d, 1))
    xs = slabs[..., 0].swapaxes(0, 1)
    xs[...] = v
    space = SpaceSpec(dim=d, p=p)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in (v, xs, xs[:, -2:], v[0]):
            want = (np.square(rows) if p == 2.0 else np.abs(rows) ** p).sum(axis=-1)
            got = _power_sums(space, rows)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


SMALL_BLOCK_ENTRIES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300, -1e-300, 1e300, -1e300,
    math.inf, -math.inf, math.nan, 1e-160, 1.4e154,
]) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def small_blocks(draw):
    # a p = 2 space of d = 1-8 and a float64 block of 0, 1, 127 or 128 rows,
    # as (rows, d) or (k, m, d), filled from a drawn pool of entries
    d = draw(st.integers(1, 8))
    rows = draw(st.sampled_from([0, 1, 127, 128]))
    shape = draw(st.sampled_from([(rows, d), (1, rows, d), (1, 1, d), (2, 3, d), (3, 0, d), (d,)]))
    pool = draw(st.lists(SMALL_BLOCK_ENTRIES, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SpaceSpec(dim=d, p=2.0), np.array(pool)[rng.integers(0, len(pool), shape)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_blocks())
def test_small_p2_blocks_have_the_bits_of_the_numpy_path(case):
    # below 8 columns and _SQRT_ROWS rows `_row_norms` norms a p = 2 block in
    # Python floats; every block must keep the bits, shape and dtype of the
    # power sums rooted by `_roots`, and `norm` those of a one-row block. A
    # nan norm need only be nan: which term's payload an add keeps depends on
    # the operand order numpy's loop is compiled with, and no output reads it
    space, v = case
    got = _row_norms(space, v)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _roots(space, _power_sums(space, v), v)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.where(np.isnan(got), np.nan, got).tobytes() == np.where(np.isnan(want), np.nan, want).tobytes()
    for x in v.reshape(-1, space.dim)[:3]:
        if np.isfinite(x).all():
            one = float(_row_norms(space, x[None, None])[0, 0])
            assert np.array([norm(space, x)]).tobytes() == np.array([one]).tobytes()


def test_an_int_block_takes_the_numpy_path(monkeypatch):
    def refuse(row):
        raise AssertionError("an int block took the float path")

    monkeypatch.setattr(lp, "_small_norm", refuse)
    v = np.array([[[3, 4], [0, 0], [-5, 12]]])
    assert _row_norms(P2, v).tolist() == [[5.0, 0.0, 13.0]]
    with pytest.raises(AssertionError, match="float path"):
        _row_norms(P2, v.astype(float))


VECTOR_ENTRIES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -2.5, 1.7e308, -1.7e308,
]) | st.floats(allow_nan=True, allow_infinity=True)


def reference_as_vector(coords, dim=None):
    """`as_vector`'s numpy rule: the same checks in order, finiteness by np.isfinite."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D coordinate array, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("vector must have at least one coordinate")
    if not np.isfinite(x).all():
        raise ValueError("vector has non-finite coordinates")
    if dim is not None and x.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {x.size}")
    return x


@st.composite
def vector_inputs(draw):
    # 0 to _ISFINITE_SIZE + 1 coordinates as a list, a tuple, a list of ints
    # or a float32 array, with at most one inf or nan planted at any position,
    # sometimes as one 2-D row, with dim None, the size or one off it
    n = draw(st.integers(0, lp._ISFINITE_SIZE + 1))
    kind = draw(st.sampled_from(["list", "tuple", "int", "float32"]))
    if kind == "int":
        entries = draw(st.lists(st.integers(-(2**63), 2**63), min_size=n, max_size=n))
    else:
        entries = draw(st.lists(VECTOR_ENTRIES, min_size=n, max_size=n))
        bad = draw(st.none() | st.sampled_from([math.inf, -math.inf, math.nan]))
        if n and bad is not None:
            entries[draw(st.integers(0, n - 1))] = bad
    if draw(st.integers(0, 9)) == 0:
        entries = [entries]
    if kind == "float32":
        with np.errstate(over="ignore"):  # past float32's range is inf
            coords = np.array(entries, dtype=np.float32)
    else:
        coords = tuple(entries) if kind == "tuple" else entries
    return coords, draw(st.sampled_from([None, n, n + 1, max(n - 1, 1)]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(vector_inputs())
def test_as_vector_paths_follow_the_numpy_rule(case):
    # below _ISFINITE_SIZE coordinates `as_vector` tests finiteness in Python
    # floats. At the module's cut, with the cut at 0 (every vector by numpy)
    # and at inf (every vector in Python floats), each input gets the numpy
    # rule's float64 array, signed zeros included, or its ValueError text
    coords, dim = case
    try:
        want = reference_as_vector(coords, dim)
    except ValueError as exc:
        want = str(exc)
    for cut in (lp._ISFINITE_SIZE, 0, math.inf):
        with mock.patch.object(lp, "_ISFINITE_SIZE", cut):
            try:
                got = as_vector(coords, dim)
            except ValueError as exc:
                assert str(exc) == want
            else:
                assert isinstance(want, np.ndarray)
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


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


# every path that takes a norm, called on the 2-D map x -> x/2 + 1 (fixed
# point (2, 2)) or on 2-D points, in a 3-D space
P3 = SpaceSpec(dim=3, p=2.0)
OTHER_DIMENSION_CALLS = {
    "picard_orbit": lambda spec, cfg: picard_orbit(spec, [0.0, 0.0], P3),
    "orbit_verdict_batch": lambda spec, cfg: _orbit(
        [spec, spec], [np.zeros(2)] * 2, P3, IterationConfig(), verdicts=True),
    "monotone_nonexpansive": lambda spec, cfg: is_monotone_nonexpansive(spec, P3, cfg),
    "alpha_nonexpansive": lambda spec, cfg: is_alpha_nonexpansive(spec, P3, 0.0, cfg),
    "hilbert_classes": lambda spec, cfg: classify_hilbert_classes(spec, P3, cfg),
    "norm_monotonic": lambda spec, cfg: is_norm_monotonic(ConeSpec("orthant", 2), P3, 20),
    "asymptotic_radius": lambda spec, cfg: asymptotic_radius(
        make_problem([[1.0, 1.0], [2.0, 2.0]], ConeSpec("orthant", 2), P3), [2.0, 2.0]),
}


@pytest.mark.parametrize("name", sorted(OTHER_DIMENSION_CALLS))
def test_a_space_of_another_dimension_is_refused(name):
    # the kernel checks the width of every row it is given; the orbits took
    # no such check and ran to `converged` on 2-D norms
    call = OTHER_DIMENSION_CALLS[name]
    with pytest.raises(ValueError, match=r"^dimension mismatch: expected 3, got 2$"):
        call(corpus.affine_contraction(2), SamplerConfig(n_samples=20, seed=0))


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing the package, or the command
    # line with the campaigns that `orderfp verify` runs, must not pull it in
    code = "import sys, orderfp, orderfp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env_path = str(Path(orderfp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=env_path),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
