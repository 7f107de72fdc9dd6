"""Finite-dimensional lp spaces: norm evaluation and convexity geometry.

The modulus of convexity comes from its closed form (Clarkson for p >= 2,
Hanner's equation for 1 < p < 2); the characteristic of convexity is
estimated on an epsilon grid, a desk-scale surrogate for a supremum over
the whole interval.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

# Inequality checks allow this much slack (absolute plus relative on the
# right-hand side); a grid delta at most CHARACTERISTIC_ZERO_TOL counts as 0.
INEQ_ATOL = 1e-9
INEQ_RTOL = 1e-9
CHARACTERISTIC_ZERO_TOL = 1e-8
_SUM_MIN = sys.float_info.min  # an lp power sum below it, or inf, is rescaled
_SQRT_ROWS = 128  # fewest rows for which `_roots` takes p = 2 roots with np.sqrt
_PASS_MARGIN = 1e-12  # relative margin by which `_settle` passes a pair from its power sums


def as_vector(coords, dim: int | None = None) -> np.ndarray:
    """Validate and return ``coords`` as a finite 1-D float array."""
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


def as_rows(points, dim: int) -> np.ndarray:
    """Return ``points`` as an (m, dim) float array of finite rows, checked
    in two calls; bad input raises the ValueError ``as_vector`` would raise
    for its first bad row."""
    try:
        arr = np.asarray(points, dtype=float)
    except ValueError:  # ragged rows: name the first one as_vector rejects
        for row in points:
            as_vector(row, dim=dim)
        raise
    if len(arr):
        as_vector(arr[0], dim=dim)
        as_vector(arr.ravel())
    return arr


@dataclass(frozen=True)
class SpaceSpec:
    """Ambient space R^dim with the lp norm, 1 < p < inf (uniformly convex)."""

    dim: int
    p: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")


def norm(space: SpaceSpec, x) -> float:
    """lp norm (sum |x_i|^p)^(1/p); zero exactly for the zero vector."""
    v = as_vector(x, dim=space.dim)
    if _small_p2(space):
        return _small_norm(v.tolist())
    return float(_row_norms(space, v[None, None])[0, 0])


def _small_p2(space: SpaceSpec) -> bool:
    # p = 2 below 8 coordinates: numpy's sum adds the terms left to right, so
    # `_power_sums` adds the columns' squares in order and `_small_norm` adds
    # a * a in Python floats with the same bits; every cut on a small p = 2
    # block tests this one predicate
    return space.p == 2.0 and space.dim < 8


def _power_sums(space: SpaceSpec, v: np.ndarray) -> np.ndarray:
    # the power sums sum |v_i|^p of the rows of v, the bits `_roots` roots;
    # rows of a width other than the space's are refused. Call it under
    # np.errstate(over="ignore", invalid="ignore"): a sum past the float
    # range is inf, and one with a nan is nan. At p = 2 each term is one
    # IEEE product, correctly rounded, and a sign changes no bit of it.
    # Below 8 terms numpy's sum adds 0 and the terms left to right (pairwise
    # from 8 on): at p = 2 the squares of the columns, added in place, have
    # its bits at a tenth of its cost, with no array of all the terms.
    if v.shape[-1] != space.dim:
        raise ValueError(f"dimension mismatch: expected {space.dim}, got {v.shape[-1]}")
    if not _small_p2(space):
        return (np.square(v) if space.p == 2.0 else np.abs(v) ** space.p).sum(axis=-1)
    s = np.square(v[..., 0])  # 0 + a square is the square
    for i in range(1, space.dim):
        s += np.square(v[..., i])
    return s


def _row_norms(space: SpaceSpec, v: np.ndarray) -> np.ndarray:
    # lp norms of the rows of the blocks v[0], v[1], ...; rows of a width other
    # than the space's are refused, and nothing else is checked: a non-finite
    # row gets an inf or nan norm. At p = 2, below 8 columns and _SQRT_ROWS
    # rows, a float64 block is normed row by row in Python floats
    # (`_small_norm`), with the same bits (a nan's payload aside) at a
    # fraction of the cost of the ufunc calls.
    d = space.dim
    if _small_p2(space) and v.dtype == np.float64 and v.shape[-1] == d and v.size < _SQRT_ROWS * d:
        return np.array([_small_norm(row) for row in v.reshape(-1, d).tolist()]).reshape(v.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return _roots(space, _power_sums(space, v), v)


def _small_norm(row: list[float]) -> float:
    # the p = 2 norm of a row of fewer than 8 Python floats, with the bits of
    # `_power_sums` and `_roots` below _SQRT_ROWS rows: the sum adds the
    # products a * a left to right from 0 (numpy's order below 8 terms, and
    # the bits of np.square; abs(a) ** 2.0 differs on some vectors), the root
    # is the scalar s ** 0.5, and a row whose sum is out of range, not nan,
    # is redone by `_lp_norm_floats` (which gives a zero row 0)
    s = 0.0
    for a in row:
        s += a * a
    if s < _SUM_MIN or s == math.inf:
        return _lp_norm_floats(row, 2.0)
    return s**0.5


def _roots(space: SpaceSpec, sums: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # the lp norms of ``rows`` from their power sums ``sums`` (`_power_sums`,
    # one per row), under the caller's np.errstate(over="ignore",
    # invalid="ignore"). A nonzero row whose power sum is out of range is
    # redone by `_lp_norm_floats` (rescaled, or inf with an inf). Every root
    # keeps the bits of the scalar `s ** (1/p)`, libm's pow. At p = 2, in a
    # call of at least _SQRT_ROWS rows, q = np.sqrt(s) is correctly rounded,
    # and glibc's pow errs by at most 0.54 ulp (the bound in its source, for
    # any exponent), so the two agree wherever the exact root lies more than
    # 0.54 ulp from every double but q. Dekker's residual r = s - q*q over a
    # Veltkamp split of q has two roundings, far below that margin, and
    # delta = r / 2q is the root's offset from q: q + k*delta == q puts the
    # root within 0.5/k ulp of q, so, with k = 1.1, more than 0.545 ulp from
    # the other doubles (k = 1.25 would send 20% of rows, not 9%, to the
    # scalar root). The flagged rows take the scalar root, among them every
    # sum of 0, inf or nan (its delta is nan) and every sum below 2**-960,
    # where the split's products underflow. Below _SQRT_ROWS rows the dozen
    # ufunc calls cost more than one Python root a row (timeit). At p = 2 and
    # below 8 columns `_row_norms` does not call here for such a float64
    # block: `_small_norm` takes the sums and these roots in Python floats.
    inv = 1.0 / space.p
    # one row whose sum is in range, or a zero row: its root, with no refine test
    if sums.size == 1 and (_SUM_MIN <= sums.item() < math.inf or not rows.any()):
        return np.full(sums.shape, sums.item() ** inv)
    flat = sums.ravel()
    if space.p == 2.0 and flat.size >= _SQRT_ROWS:
        out = np.sqrt(flat)
        hi = 134217729.0 * out  # 2**27 + 1; the split c - (c - out), and r, reuse buffers
        hi -= hi - out
        lo = out - hi
        r = (flat - hi * hi) - 2.0 * hi * lo
        r -= np.square(lo, out=lo)
        near = ((out + r * (1.1 / 2.0) / out != out) | (flat < 2.0**-960)).nonzero()[0]
        out[near] = [s**0.5 for s in flat[near].tolist()]
    else:
        out = np.array([s**inv for s in flat.tolist()])
    redo = ((flat < _SUM_MIN) | (flat == math.inf)).nonzero()[0].tolist()
    for k, row in zip(redo, rows.reshape(-1, rows.shape[-1])[redo].tolist() if redo else ()):
        if any(row):  # a zero row keeps its norm 0
            out[k] = _lp_norm_floats(row, space.p)
    return out.reshape(sums.shape)


def _settle(space: SpaceSpec, v: np.ndarray, sides, slack, failed, lhs, rhs, scale) -> None:
    """Decide lhs <= rhs + slack(rhs, s) for the pairs not yet ``failed`` (pair k's rows are v[:, k]),
    writing each one it roots into failed, lhs, rhs and scale; ``sides(norms)`` gives lhs, rhs, s and
    mag, the size of its terms (default: ||row 0|| <= ||row 1||). At p = 2 only the pairs their
    power sums leave open are rooted (`mapping._pair_report`)."""
    sides = sides or (lambda n: (n[0], n[1], 1.0, n[0] + n[1]))
    opn = ~failed
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _power_sums(space, v)
        if space.p == 2.0:
            lq, rq, s, mag = sides(np.sqrt(sums))
            room = slack(rq, s)
            opn &= ~((lq + _PASS_MARGIN * (mag + room) <= rq + room) & (sums.max(axis=0) < 2.0**999))
        if not opn.any():
            return
        norms = _roots(space, sums[:, opn], v[:, opn])  # row by row: a pair's bits among all rows
    lo, ro, s, _ = sides(norms)
    failed[opn] = lo > ro + slack(ro, s)
    lhs[opn], rhs[opn], scale[opn] = lo, ro, s


def _lp_norm_floats(vals: list[float], p: float) -> float:
    # (sum |a|^p)^(1/p) over Python floats. A plain loop adds left to right
    # on every Python version (sum() compensates from 3.12 on) and is faster
    # than sum() at these sizes. A power sum that overflows, or underflows to
    # 0 or a subnormal while some coordinate is nonzero, is redone on
    # vals / max|a| (safe scaling, Blue 1978, ACM TOMS 4(1)); every other sum
    # keeps the bits of the plain formula.
    s = 0.0
    try:
        for a in vals:
            s += abs(a) ** p
    except OverflowError:  # float ** raises here instead of returning inf
        s = math.inf
    if _SUM_MIN <= s < math.inf:
        return s ** (1.0 / p)
    m = max(map(abs, vals))
    if m == 0.0 or m == math.inf:
        return m
    s = 0.0
    for a in vals:
        s += (abs(a) / m) ** p
    return m * s ** (1.0 / p)


def modulus_of_convexity(space: SpaceSpec, eps: float) -> float:
    """Modulus of convexity of the space at ``eps``, in closed form.

    delta(eps) = inf { 1 - ||x+y||/2 : ||x|| <= 1, ||y|| <= 1, ||x-y|| >= eps }.

    - dim = 1: delta = eps/2.
    - dim >= 2, p >= 2 (Clarkson 1936): delta = 1 - (1 - (eps/2)^p)^(1/p).
    - dim >= 2, 1 < p < 2 (Hanner 1956): delta solves
      (1 - delta + eps/2)^p + |1 - delta - eps/2|^p = 2. The left side falls
      as delta rises, so the root in [0, 1] is unique and bisection finds it
      to full precision. At eps = 2 it is a double root, delta = 1, which
      bisection would only find to about 1e-8, so it is returned directly.

    For dim >= 2 the infimum is attained in a 2-dimensional section, so the
    value does not depend on dim.

    Raises
    ------
    ValueError
        If ``eps`` lies outside [0, 2].
    """
    if not (0.0 <= eps <= 2.0):
        raise ValueError(f"eps must lie in [0, 2], got {eps}")
    half = eps / 2.0
    if space.dim == 1:
        return half
    p = space.p
    if p >= 2.0:
        return 1.0 - (1.0 - half**p) ** (1.0 / p)
    if eps == 2.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(64):  # 2^-64 is below the spacing of doubles near 1
        mid = 0.5 * (lo + hi)
        if (1.0 - mid + half) ** p + abs(1.0 - mid - half) ** p > 2.0:
            lo = mid
        else:
            hi = mid
    return lo  # never above the root, so convexity bounds built on it stay sound


@dataclass
class ConvexityProfile:
    """Modulus values on an epsilon grid plus the estimated characteristic.

    ``eps0`` is the largest grid epsilon whose delta sits below ``zero_tol``.
    The characteristic of lp is 0, but for p >= 2 delta grows like
    (eps/2)^p / p near 0, so with CHARACTERISTIC_ZERO_TOL and the 101-point
    grid the estimate is at most one grid step only up to about p = 4.
    """

    p: float
    epsilons: np.ndarray
    deltas: np.ndarray
    eps0: float
    zero_tol: float

    MONOTONE_DIP_TOL = 1e-7  # permitted jitter in deltas computed elsewhere

    def __post_init__(self):
        if self.epsilons.size == 0:
            raise ValueError("empty epsilon grid")
        if np.any(self.deltas < -self.MONOTONE_DIP_TOL) or np.any(
            self.deltas > 1.0 + self.MONOTONE_DIP_TOL
        ):
            raise ValueError("profile deltas escaped [0, 1]")
        dips = np.diff(self.deltas)
        if np.any(dips < -self.MONOTONE_DIP_TOL):
            raise ValueError("profile deltas are not non-decreasing along the grid")

    def delta_at(self, eps: float) -> float:
        """Delta at the largest grid node <= eps (a conservative lower value,
        since the profile is non-decreasing)."""
        eps = min(max(eps, 0.0), 2.0)
        idx = bisect.bisect_right(self.epsilons, eps) - 1
        return float(self.deltas[max(idx, 0)])


def convexity_profile(
    space: SpaceSpec,
    n_grid: int = 101,
) -> ConvexityProfile:
    """Evaluate the modulus on a uniform grid over [0, 2].

    ``n_grid`` must be at least 2 (the grid needs both endpoints).
    """
    if n_grid < 2:
        raise ValueError(f"epsilon grid needs at least 2 points, got {n_grid}")
    epsilons = np.linspace(0.0, 2.0, n_grid)
    deltas = np.array([modulus_of_convexity(space, float(e)) for e in epsilons])
    below = np.nonzero(deltas <= CHARACTERISTIC_ZERO_TOL)[0]
    eps0 = float(epsilons[below[-1]]) if below.size else 0.0
    return ConvexityProfile(
        p=space.p, epsilons=epsilons, deltas=deltas, eps0=eps0, zero_tol=CHARACTERISTIC_ZERO_TOL
    )


def check_convexity_inequality(
    space: SpaceSpec,
    x,
    y,
    lam: float,
    r: float,
    delta_fn=None,
) -> bool:
    """Check the uniform-convexity bound on a convex combination.

    Verifies ||lam*x + (1-lam)*y|| <= r * (1 - 2*min(lam, 1-lam) * delta(||x-y||/r))
    within ``INEQ_ATOL`` plus ``INEQ_RTOL`` relative slack on the right-hand
    side. The midpoint bound is the lam = 1/2 instance.

    ``delta_fn`` maps epsilon to a modulus value; by default deltas come from
    the closed form. Precondition violations raise ``ValueError`` naming the
    failing bound.

    After validating ``x`` and ``y``, the four lp norms (of x, y, x - y and
    the combination) are formed in Python floats with overflow-safe scaling:
    the cost is O(dim) in Python, with no numpy arithmetic per tuple.
    """
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
    if delta_fn is None:
        delta = modulus_of_convexity(space, eps_arg)
    else:
        delta = delta_fn(eps_arg)
    rhs = r * (1.0 - 2.0 * min(lam, mu) * delta)
    return lhs <= rhs + INEQ_ATOL + INEQ_RTOL * abs(rhs)
