"""Declarative self-maps on cone/interval/box domains with sampled verifiers.

A mapping is an operation (affine, truncation, translation, box projection,
composition, or a table over a lattice) plus the domain it maps into itself.
Every mapping-class predicate here is a sampled verifier that returns a
``PropertyReport`` with recomputable witnesses; exhaustive checking is only
done for lattice maps, where the pair set is finite. Every operation's
``evaluate`` takes one point or an (n, d) array of rows, and the verifiers
draw, evaluate and test all their pairs as rows at once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from orderfp.order import (
    ConeSpec,
    comparable,
    leq,
    MEMBERSHIP_TOL,
    _cone_margins,
    _cone_rows,
    _member_raw,
)
from orderfp.report import PropertyReport
from orderfp.space import INEQ_ATOL, INEQ_RTOL, SpaceSpec, as_rows, as_vector, norm, _row_norms, _settle


class DomainError(ValueError):
    """Point lies outside a mapping's declared domain, or the map escapes it."""


class IncomparableError(ValueError):
    """Arguments are not comparable under the cone order."""


# fixed-point residuals are accepted up to FIXED_POINT_TOL
FIXED_POINT_TOL = 1e-8
LATTICE_NODE_CAP = 1024  # lattice nodes an exhaustive check takes: it holds all N(N+1)/2 node pairs


def _slack(rhs, s=1.0):
    # slack of lhs <= rhs when both sides are in units of s^2
    return INEQ_ATOL / s / s + INEQ_RTOL * abs(rhs)


def _square_scale(norms: np.ndarray):
    # per pair (axis 0 holds its norms), 1 below 2^500, else 2^e for the binary exponent
    # e of its largest finite norm: norms / s square without overflow and keep their bits
    big = np.where(norms < math.inf, norms, 0.0).max(axis=0)
    return np.where(big < 2.0**500, 1.0, np.ldexp(1.0, np.frexp(big)[1] - 1))


# ---------------------------------------------------------------------------
# map operations


@dataclass
class AffineMap:
    """x -> matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.offset = as_vector(self.offset)
        if self.matrix.shape != (self.offset.size, self.offset.size):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match offset dim {self.offset.size}"
            )

    @property
    def dim(self) -> int:
        return self.offset.size

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return self.matrix @ x + self.offset
        # one matrix-vector product per row: the bits of the 1-D form, which
        # x @ matrix.T does not keep
        return (self.matrix @ x[..., None])[..., 0] + self.offset


@dataclass
class TruncationMap:
    """x -> componentwise min(x, cap)."""

    cap: np.ndarray

    def __post_init__(self):
        self.cap = as_vector(self.cap)

    @property
    def dim(self) -> int:
        return self.cap.size

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(x, self.cap)


@dataclass
class TranslationMap:
    """x -> x + shift."""

    shift: np.ndarray

    def __post_init__(self):
        self.shift = as_vector(self.shift)

    @property
    def dim(self) -> int:
        return self.shift.size

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x + self.shift


@dataclass
class BoxProjectionMap:
    """x -> componentwise clip of x into [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = as_vector(self.lo)
        self.hi = as_vector(self.hi, dim=self.lo.size)
        if np.any(self.hi < self.lo):
            raise ValueError("box projection bounds are not ordered")

    @property
    def dim(self) -> int:
        return self.lo.size

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lo, self.hi)


@dataclass
class CompositionMap:
    """Stages applied in order: stages[0] first."""

    stages: list

    def __post_init__(self):
        if not self.stages:
            raise ValueError("composition needs at least one stage")
        dims = {s.dim for s in self.stages}
        if len(dims) != 1:
            raise ValueError(f"composition stages disagree on dimension: {dims}")

    @property
    def dim(self) -> int:
        return self.stages[0].dim

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        for stage in self.stages:
            x = stage.evaluate(x)
        return x


@dataclass
class GridMap:
    """Map defined by a value table over the lattice origin + step * index.

    ``values`` has shape lattice_shape + (dim,). Arguments must sit on the
    lattice (within ``snap_tol``); images must be lattice points too, so the
    map is exhaustively checkable.
    """

    origin: np.ndarray
    step: float
    values: np.ndarray
    snap_tol: ClassVar[float] = 1e-9

    def __post_init__(self):
        self.origin = as_vector(self.origin)
        self.values = np.asarray(self.values, dtype=float)
        if isinstance(self.step, bool) or not isinstance(self.step, numbers.Real) or not 0 < self.step < math.inf:
            raise ValueError(f"grid map field step needs a positive number, got {self.step!r}")
        if self.values.ndim != self.origin.size + 1 or self.values.shape[-1] != self.origin.size:
            raise ValueError(
                f"values shape {self.values.shape} does not match a lattice over dim {self.origin.size}"
            )

    @property
    def dim(self) -> int:
        return self.origin.size

    @property
    def lattice_shape(self) -> tuple[int, ...]:
        return self.values.shape[:-1]

    def index_of(self, x: np.ndarray) -> tuple:
        """Lattice index of a point, or one index array per axis for rows of
        points; the first bad row raises."""
        idx = np.rint((x - self.origin) / self.step).astype(int)
        off = np.atleast_1d(np.abs(x - (self.origin + idx * self.step)).max(axis=-1) > self.snap_tol)
        out = np.atleast_1d(((idx < 0) | (idx >= np.array(self.lattice_shape))).any(axis=-1))
        for k in np.flatnonzero(off | out)[:1]:
            why = f"is not on the lattice (step {self.step})" if off[k] else "lies outside the lattice box"
            raise DomainError(f"point {np.atleast_2d(x)[k]} {why}")
        return tuple(idx.T)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.values[self.index_of(x)].copy()


def _lattice_rows(axes) -> np.ndarray:
    # the nodes of the lattice with these per-axis coordinates, as C-order rows
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _grid_nodes(op: GridMap) -> np.ndarray:
    return _lattice_rows([o + np.arange(n) * op.step for o, n in zip(op.origin, op.lattice_shape)])


# ---------------------------------------------------------------------------
# domains and mapping specs

DOMAIN_CONE = "cone"
DOMAIN_INTERVAL = "interval"
DOMAIN_BOX = "box"


@dataclass(frozen=True)
class Domain:
    """Closed convex domain K: the whole cone, an order interval [lo, hi]
    under the cone, or a coordinate box; lo <= hi must hold in that order."""

    kind: str
    cone: ConeSpec
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (DOMAIN_CONE, DOMAIN_INTERVAL, DOMAIN_BOX):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind != DOMAIN_CONE:
            if self.lo is None or self.hi is None:
                raise ValueError(f"{self.kind} domain needs lo and hi bounds")
            object.__setattr__(self, "lo", as_vector(self.lo, dim=self.cone.dim))
            object.__setattr__(self, "hi", as_vector(self.hi, dim=self.cone.dim))
            if self.kind == DOMAIN_INTERVAL and not leq(self.cone, self.lo, self.hi):
                raise ValueError(f"interval domain endpoints are not ordered under the {self.cone.kind} cone")
            if self.kind == DOMAIN_BOX and not np.all(self.lo <= self.hi):
                raise ValueError("box domain endpoints are not ordered coordinatewise")

    @property
    def dim(self) -> int:
        return self.cone.dim


def domain_contains(domain: Domain, x, tol: float = MEMBERSHIP_TOL) -> bool:
    return bool(_domain_contains_raw(domain, as_vector(x, dim=domain.dim), tol))


def _domain_contains_raw(domain: Domain, v: np.ndarray, tol: float):
    # hot-loop path: assumes validated float rows, coordinates on the last
    # axis; one flag per row
    if domain.kind == DOMAIN_CONE:
        return _member_raw(domain.cone, v, tol)
    if domain.kind == DOMAIN_INTERVAL:
        return _member_raw(domain.cone, v - domain.lo, tol) & _member_raw(
            domain.cone, domain.hi - v, tol
        )
    return ((v >= domain.lo - tol) & (v <= domain.hi + tol)).all(axis=-1)


@dataclass
class MappingSpec:
    """An operation together with the domain it is declared to map into itself."""

    op: object
    domain: Domain

    def __post_init__(self):
        if self.op.dim != self.domain.dim:
            raise ValueError(
                f"operation dim {self.op.dim} does not match domain dim {self.domain.dim}"
            )

    @property
    def dim(self) -> int:
        return self.domain.dim


def apply_map(spec: MappingSpec, x) -> np.ndarray:
    """Evaluate the map at ``x``; raises ``DomainError`` off the domain."""
    v = as_vector(x, dim=spec.dim)
    if not _domain_contains_raw(spec.domain, v, MEMBERSHIP_TOL):
        raise DomainError(f"argument {v} lies outside the declared domain")
    return spec.op.evaluate(v)


def validate_self_map(spec: MappingSpec) -> None:
    """Reject a spec whose operation escapes the declared domain on 64 domain
    samples from seed 0, evaluated as rows: raise at the first sample whose
    image is non-finite or off the domain."""
    xs = _domain_rows(spec, np.random.default_rng(0), 64, 1.0)
    ys = spec.op.evaluate(xs)
    ok = np.isfinite(ys).all(axis=-1)
    with np.errstate(invalid="ignore"):  # a non-finite image has failed already
        ok &= _domain_contains_raw(spec.domain, ys, 1e-9)
    if not ok.all():
        k = int(np.argmin(ok))
        as_vector(ys[k])  # a non-finite image raises ValueError here
        raise DomainError(f"not a self-map: image {ys[k]} of sample {xs[k]} escapes the domain")


# ---------------------------------------------------------------------------
# domain samplers


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling policy for the verifiers; identical seeds reproduce reports."""

    n_samples: int = 200
    seed: int = 0

    def __post_init__(self):
        # no samples would pass every check, and numpy refuses a negative seed without naming it
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# attempts at a comparable pair by rejection (Lorentz-cone orders) before giving up
PAIR_TRIES = 10_000


def _lattice_indices(op: GridMap, rng: np.random.Generator, n: int) -> np.ndarray:
    # n lattice indices as (n, dim) integer rows: one draw per axis, row by row
    idx = [[rng.integers(0, k) for k in op.lattice_shape] for _ in range(n)]
    return np.array(idx, dtype=int).reshape(n, op.dim)


def _domain_rows(spec: MappingSpec, rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    # n domain points as rows: lattice points for a grid map, cone draws, one
    # box draw for a box or orthant interval, and on a Lorentz order interval
    # a point of the segment [lo, hi] perturbed by rejection, row by row
    domain = spec.domain
    if isinstance(spec.op, GridMap):
        return spec.op.origin + spec.op.step * _lattice_indices(spec.op, rng, n).astype(float)
    if domain.kind == DOMAIN_CONE:
        return _cone_rows(domain.cone, rng, n, scale)
    if domain.kind == DOMAIN_BOX or domain.cone.kind == "orthant":
        return domain.lo + rng.uniform(0.0, 1.0, size=(n, spec.dim)) * (domain.hi - domain.lo)
    rows = np.empty((n, spec.dim))
    for k in range(n):
        rows[k] = domain.lo + rng.uniform(0.0, 1.0) * (domain.hi - domain.lo)
        for shrink in range(8):
            cand = rows[k] + rng.normal(0.0, scale * 0.5 ** shrink, size=spec.dim)
            if domain_contains(domain, cand):
                rows[k] = cand
                break
    return rows


def sample_domain_point(spec: MappingSpec, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Draw a point of the declared domain (a lattice point for grid maps)."""
    return _domain_rows(spec, rng, 1, scale)[0]


def sample_comparable_pairs(spec: MappingSpec, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` pairs (x, y) in the domain with x <= y under the domain cone, as
    rows: meet and join of two lattice indices for a lattice map under the
    orthant, x plus a cone direction in one draw for other orthant domains,
    pair by pair with rejection under the Lorentz cone. The draws are one
    stream taken pair by pair, so the first pairs do not depend on ``n``."""
    domain = spec.domain
    if isinstance(spec.op, GridMap) and domain.cone.kind == "orthant":
        idx = _lattice_indices(spec.op, rng, 2 * n).reshape(n, 2, spec.dim)
        pts = spec.op.origin + spec.op.step * np.stack([idx.min(axis=1), idx.max(axis=1)]).astype(float)
        return pts[0], pts[1]
    if domain.cone.kind != "orthant":
        pairs = [_draw_comparable_pair(spec, rng) for _ in range(n)]
        return tuple(np.array([pair[i] for pair in pairs]).reshape(n, spec.dim) for i in (0, 1))
    u = rng.uniform(0.0, 1.0, size=(n, 2, spec.dim))
    if domain.kind == DOMAIN_CONE:
        return u[:, 0], u[:, 0] + u[:, 1]
    x = domain.lo + u[:, 0] * (domain.hi - domain.lo)
    return x, x + u[:, 1] * (domain.hi - x)


def _draw_comparable_pair(spec, rng):
    # shrink the cone direction until the pair stays in the domain
    for attempt in range(PAIR_TRIES):
        x = sample_domain_point(spec, rng)
        y = x + _cone_rows(spec.domain.cone, rng, 1, 0.5 ** (attempt % 8))[0]
        if domain_contains(spec.domain, y):
            return x, y
    raise RuntimeError("could not sample a comparable pair inside the domain")


def _lattice_pairs(spec: MappingSpec) -> tuple[np.ndarray, np.ndarray]:
    # every comparable pair of lattice points as rows (lower, upper), in
    # combinations_with_replacement order, from one row-wise domain-cone test
    cone, pts = spec.domain.cone, _grid_nodes(spec.op)
    if len(pts) > LATTICE_NODE_CAP:
        raise ValueError(f"an exhaustive check of {len(pts)} lattice nodes is above the cap of {LATTICE_NODE_CAP}")
    i, j = np.triu_indices(len(pts))
    diff = pts[j] - pts[i]
    up = _member_raw(cone, diff, MEMBERSHIP_TOL)
    keep = up | _member_raw(cone, -diff, MEMBERSHIP_TOL)
    return pts[np.where(up, i, j)[keep]], pts[np.where(up, j, i)[keep]]


# ---------------------------------------------------------------------------
# property verifiers


def _pair_report(name, spec, x, y, space=None, rows=None, sides=None, alpha=None) -> PropertyReport:
    """Row-wise core of the comparable-pair verifiers (pair k is x[k] <= y[k]).

    A pair with T y - T x outside the domain cone is an order violation (lhs the
    negated cone margin, rhs MEMBERSHIP_TOL) and skips the inequality; for the rest,
    whose images must be finite, the norms in ``space`` of the row blocks ``rows(tx,
    ty)`` give the ``sides`` of lhs <= rhs + slack in units of s^2 (`space._settle`).
    At p = 2 a pair passes unrooted if its sides from np.sqrt of its power sums clear
    the slack by 1e-12 (mag + slack), mag the size of its terms. A root moves a norm
    by at most 1.04 ulp (np.sqrt correctly rounded, pow within 0.54 ulp): the sides by
    under 32 u (mag + slack), u = 2^-53. A sum below 2^-1022 (d squares, each off by
    <= 2^-1075, added exactly) moves a norm by under 2^-536 sqrt(d), inside the slack,
    and a square by under (d + 2) 2^-1075, inside mag's floor of 2^-1000 a term (d < 2^34,
    any alpha). Every other pair is rooted: near the cut, failing, or a sum >= 2^999."""
    tx, ty = spec.op.evaluate(x), spec.op.evaluate(y)
    margin = _cone_margins(spec.domain.cone, ty - tx)
    failed = margin < -MEMBERSHIP_TOL
    lhs, rhs, scale = -margin, np.full(len(x), MEMBERSHIP_TOL), np.ones(len(x))
    if rows is not None:
        if not (np.isfinite(tx).all() and np.isfinite(ty).all()):  # an ordered pair's non-finite image raises
            as_rows(np.concatenate((tx[~failed], ty[~failed])), spec.dim)
        _settle(space, np.array(rows(tx, ty)), sides, _slack, failed, lhs, rhs, scale)
    return PropertyReport.from_rows(name, x, y, lhs, rhs, failed, alpha, scale)


def _sampled_pairs(spec: MappingSpec, cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    return sample_comparable_pairs(spec, np.random.default_rng(cfg.seed), cfg.n_samples)


def is_monotone(spec: MappingSpec, cfg: SamplerConfig | None = None) -> PropertyReport:
    """Sampled check that x <= y implies T x <= T y."""
    return _pair_report("monotone", spec, *_sampled_pairs(spec, cfg or SamplerConfig()))


def is_monotone_nonexpansive(
    spec: MappingSpec, space: SpaceSpec, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Sampled check of monotonicity plus ||Tx - Ty|| <= ||x - y|| on
    comparable pairs."""
    x, y = _sampled_pairs(spec, cfg or SamplerConfig())
    return _pair_report("monotone_nonexpansive", spec, x, y, space, lambda tx, ty: [tx - ty, x - y])


def is_alpha_nonexpansive(
    spec: MappingSpec,
    space: SpaceSpec,
    alpha: float,
    cfg: SamplerConfig | None = None,
    exhaustive: bool = False,
) -> PropertyReport:
    """Sampled check of the alpha-weighted squared-distance inequality
    (monotonicity included) on comparable pairs; any alpha < 1 is accepted.

    With ``exhaustive=True`` and a lattice map, every comparable lattice pair
    is checked instead of sampling.
    """
    if not -math.inf < alpha < 1.0:  # a nan or -inf alpha would pass every pair
        raise ValueError(f"alpha must be a finite number < 1, got {alpha}")
    if exhaustive:
        if not isinstance(spec.op, GridMap):
            raise ValueError("exhaustive checking is only available for lattice maps")
        x, y = _lattice_pairs(spec)
    else:
        x, y = _sampled_pairs(spec, cfg or SamplerConfig())

    def sides(norms):
        s = _square_scale(norms)
        im, cross_xy, cross_yx, arg = (norms / s) ** 2
        rhs = alpha * cross_xy + alpha * cross_yx + (1.0 - 2.0 * alpha) * arg
        a, b = abs(alpha), abs(1.0 - 2.0 * alpha)  # mag: each term's size, with a floor of 2^-1000
        return im, rhs, s, im + a * (cross_xy + cross_yx) + b * arg + (1.0 + a + a + b) * 2.0**-1000

    return _pair_report("alpha_nonexpansive", spec, x, y, space,
                        lambda tx, ty: [tx - ty, tx - y, ty - x, x - y], sides, alpha)


def check_displacement_bound(spec: MappingSpec, space: SpaceSpec, alpha: float, x, y) -> bool:
    """Check the displacement-corrected expansion bound on a comparable pair:

        ||Tx-Ty||^2 <= ||x-y||^2 + 2a/(1-a) ||Tx-x||^2
                       + 2|a|/(1-a) ||Tx-x|| (||x-y|| + ||Tx-Ty||)

    Incomparable arguments raise ``IncomparableError``.
    """
    if not -math.inf < alpha < 1.0:  # a nan or -inf alpha would pass every pair
        raise ValueError(f"alpha must be a finite number < 1, got {alpha}")
    xv = as_vector(x, dim=spec.dim)
    yv = as_vector(y, dim=spec.dim)
    if not comparable(spec.domain.cone, xv, yv):
        raise IncomparableError(f"pair is incomparable under the {spec.domain.cone.kind} cone")
    tx, ty = spec.op.evaluate(xv), spec.op.evaluate(yv)
    norms = [norm(space, tx - ty), norm(space, xv - yv), norm(space, tx - xv)]
    s = float(_square_scale(np.array(norms)))  # a norm that overflowed stays inf
    d_im, d_arg, disp = (v / s for v in norms)
    rhs = (
        d_arg ** 2
        + (2.0 * alpha / (1.0 - alpha)) * disp ** 2
        + (2.0 * abs(alpha) / (1.0 - alpha)) * disp * (d_arg + d_im)
    )
    return d_im ** 2 <= rhs + _slack(rhs, s)


def classify_hilbert_classes(
    spec: MappingSpec,
    space: SpaceSpec,
    cfg: SamplerConfig | None = None,
) -> dict[str, PropertyReport]:
    """Check the inner-product mapping classes on sampled (unordered) pairs.

    Covers the nonspreading, hybrid, and TJ inequalities, each failed by a
    pair with lhs > rhs + slack. Requires p = 2, where polarization recovers
    the inner product <u, v> = (||u + v||^2 - ||u - v||^2) / 4.
    """
    if space.p != 2.0:
        raise ValueError(f"hilbert-class checks need p=2, got p={space.p}")
    cfg = cfg or SamplerConfig()
    n = cfg.n_samples
    rng = np.random.default_rng(cfg.seed)
    pts = _domain_rows(spec, rng, 2 * n, 1.0).reshape(n, 2, spec.dim)
    x, y = pts[:, 0], pts[:, 1]
    tx, ty = spec.op.evaluate(x), spec.op.evaluate(y)
    u, v = x - tx, y - ty
    rows = np.stack([tx - ty, x - y, tx - y, ty - x, u + v, u - v])
    ok = np.isfinite(rows).all(axis=(0, 2))
    if not ok.all():  # the first pair with a non-finite image, or with a row of finite images that overflows
        k = int(np.argmin(ok))
        as_rows([tx[k], ty[k]], spec.dim)
        raise ValueError(f"a row formed from x={x[k]}, y={y[k]} and their finite images {tx[k]}, {ty[k]} overflows")
    norms = _row_norms(space, rows)
    s = _square_scale(norms)  # squares and sides in units of s^2
    sq = (norms / s) ** 2
    d_im2, d2, cross_xy, cross_yx = sq[:4]
    sides = {
        "nonspreading": (2.0 * d_im2, cross_xy + cross_yx),
        "hybrid": (d_im2, d2 + 0.25 * (sq[4] - sq[5])),
        "tj": (2.0 * d_im2, d2 + cross_xy),
    }
    return {name: PropertyReport.from_rows(name, x, y, lhs, rhs, lhs > rhs + _slack(rhs, s), scale=s)
            for name, (lhs, rhs) in sides.items()}


# ---------------------------------------------------------------------------
# independent fixed-point search


@dataclass(frozen=True)
class GridSearchConfig:
    """Bounded lattice scan for fixed points; both bounds must be finite."""

    lo: np.ndarray
    hi: np.ndarray
    points_per_axis: int = 11

    def __post_init__(self):
        object.__setattr__(self, "lo", as_vector(self.lo))
        object.__setattr__(self, "hi", as_vector(self.hi, dim=np.asarray(self.lo).size))
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("fixed-point search region must be bounded")
        if self.points_per_axis < 1:  # an empty scan would read as "no fixed point"
            raise ValueError(f"points_per_axis must be >= 1, got {self.points_per_axis}")


def as_affine(op) -> tuple[np.ndarray, np.ndarray] | None:
    """(matrix, offset) view of operations that are affine, else None."""
    if isinstance(op, AffineMap):
        return op.matrix, op.offset
    if isinstance(op, TranslationMap):
        return np.eye(op.dim), op.shift
    if isinstance(op, CompositionMap):
        views = [as_affine(stage) for stage in op.stages]
        if any(view is None for view in views):
            return None
        matrix, offset = views[0]
        for m2, b2 in views[1:]:
            matrix, offset = m2 @ matrix, m2 @ offset + b2
        return matrix, offset
    return None


def _radius_bounds(matrix: np.ndarray, cut: float) -> np.ndarray:
    # Collatz-Wielandt (Wielandt 1950): rho(M) <= rho(|M|) <= max_i (|M| x)_i / x_i, x > 0.
    # x = 1 first (the largest absolute row sum), then up to four steps x <- |M| x (top 1,
    # floor 2**-30 through zero rows) while a bound is >= cut and each |m_ii| < cut, as
    # rho(|M|) >= max |m_ii|. A ratio rounds within (d + 1) / 2 ulp, so a bound carries d + 2
    # ulp; an inf, or a step that overflows, leaves it inf, and a nan nan.
    a, slack = np.abs(matrix), 1.0 + (matrix.shape[-1] + 2) * 2.0**-52
    with np.errstate(all="ignore"):
        y = a.sum(axis=-1)
        bound = y.max(axis=-1) * slack
        todo, steps = np.flatnonzero(~(bound < cut) & (a.diagonal(axis1=-2, axis2=-1).max(axis=-1) < cut)), 4
        while todo.size and steps:
            x = y[todo] / y[todo].max(axis=-1, keepdims=True) + 2.0**-30
            y[todo] = (a[todo] @ x[..., None])[..., 0]
            bound[todo] = np.fmin(bound[todo], (y[todo] / x).max(axis=-1) * slack)
            todo, steps = todo[~(bound[todo] < cut)], steps - 1
    return bound


def _affine_fixed_points(specs: list) -> list:
    """Exact linear-algebra route for specs of one dimension with finite affine
    views (``as_affine``), stacked: one solve, and one eigvals where ``_radius_bounds``
    leaves a spectral radius below 1 - 1e-9 open, neither for an identity; the first error met is raised.

    Each spec's result is a list (possibly empty, meaning certifiably no
    fixed point anywhere) or None when the linear system is degenerate with
    solutions off the minimum-norm one, in which case the caller falls back
    to the grid.
    """
    matrix, offset = (np.array(v) for v in zip(*(as_affine(s.op) for s in specs)))
    system, cut = np.eye(offset.shape[-1]) - matrix, 1.0 - 1e-9
    below, todo = np.zeros(len(specs), bool), system.any(axis=(1, 2))  # an identity (rho = 1) takes least squares
    for radius in (lambda m: _radius_bounds(m, cut), lambda m: np.abs(np.linalg.eigvals(m)).max(axis=-1)):
        if np.count_nonzero(todo):  # eigvals raises for a matrix with an inf or nan, whose bound is inf or nan
            rows = slice(None) if np.count_nonzero(todo) == len(specs) else todo  # no gather while all are open
            below[rows] = radius(matrix[rows]) < cut
            todo &= ~below
    z, maybe = np.zeros(offset.shape), np.zeros(len(specs), bool)  # maybe: a least-squares point
    if np.count_nonzero(below) == len(specs):  # one solve, with no gather and no least squares
        z = np.linalg.solve(system, offset[..., None])[..., 0]
    else:
        for i, m, b in zip(np.flatnonzero(~below).tolist(), system[~below], offset[~below]):
            zi, *_ = np.linalg.lstsq(m, b, rcond=None)  # a finite system: no error
            if not float(np.linalg.norm(m @ zi - b)) > FIXED_POINT_TOL * (1.0 + float(np.linalg.norm(b))):
                z[i], maybe[i] = zi, True  # else an inconsistent system: no fixed point exists at all
        if np.count_nonzero(below):
            z[below] = np.linalg.solve(system[below], offset[below, :, None])[..., 0]
    as_vector(z.ravel())  # a non-finite point raises as domain_contains would
    inside, domains = below | maybe, {id(s.domain): s.domain for s in specs}
    for domain in domains.values():  # one membership call per distinct domain
        rows = slice(None) if len(domains) == 1 else [s.domain is domain for s in specs]
        inside[rows] &= _domain_contains_raw(domain, z[rows], 1e-9)
    return [[zi] if ok else None if m else [] for zi, ok, m in zip(z, inside, maybe)]


def fixed_point_oracle(
    spec: MappingSpec, space: SpaceSpec, grid_cfg: GridSearchConfig | None = None
) -> list[np.ndarray] | None:
    """Independent search for fixed points inside the domain.

    Affine operations are resolved by linear algebra (an exact solve when the spectral
    radius, bounded by Collatz-Wielandt or else by eigvals, is below one). Everything
    else tests the nodes of a bounded lattice that lie in the domain: a lattice map's own
    lattice, or the grid of ``grid_cfg``, where an axis with lo == hi has one node. The
    nodes whose residual ||T x - x|| in the norm of ``space`` is at most
    ``FIXED_POINT_TOL`` are returned in lattice order, each once, as distinct nodes differ
    by an axis spacing (one of at most 1e-8 reports all of its near-coincident fixed
    nodes). None when no route decides: no lattice and no grid, for a map that is not
    affine or whose affine system is degenerate with its minimum-norm solution off the
    domain. A grid of another dimension raises.
    """
    if as_affine(spec.op) is not None:
        direct = _affine_fixed_points([spec])[0]
        if direct is not None:
            return direct
    if isinstance(spec.op, GridMap):
        nodes = _grid_nodes(spec.op)
    elif grid_cfg is None:
        return None
    elif grid_cfg.lo.size != spec.dim:
        raise ValueError(f"a {grid_cfg.lo.size}-D fixed-point search grid cannot scan a {spec.dim}-D map")
    else:
        n = grid_cfg.points_per_axis
        axes = [np.linspace(lo, hi, n)[: 1 if lo == hi else n] for lo, hi in zip(grid_cfg.lo, grid_cfg.hi)]
        nodes = _lattice_rows(axes)
    nodes = nodes[_domain_contains_raw(spec.domain, nodes, MEMBERSHIP_TOL)]
    res = _row_norms(space, (spec.op.evaluate(nodes) - nodes)[None])[0]  # nan or inf at a non-finite image
    return list(nodes[res <= FIXED_POINT_TOL])


# ---------------------------------------------------------------------------
# JSON round trip

# the file tag of each operation; its dataclass fields are the file keys
_VARIANTS = {
    "affine": AffineMap,
    "truncation": TruncationMap,
    "translation": TranslationMap,
    "box_projection": BoxProjectionMap,
    "composition": CompositionMap,
    "grid": GridMap,
}
_TAGS = {cls: tag for tag, cls in _VARIANTS.items()}


def _op_to_dict(op) -> dict:
    d = {"variant": _TAGS[type(op)]}
    for f in dataclasses.fields(op):
        value = getattr(op, f.name)
        if isinstance(op, CompositionMap):
            value = [_op_to_dict(s) for s in value]
        d[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return d


def _op_from_dict(d: dict):
    if not isinstance(d, dict):  # the file's root, a config scenario's map or a composition stage
        raise ValueError(f"map needs a JSON object, got {d!r}")
    tag = d["variant"]
    if not isinstance(tag, str) or tag not in _VARIANTS:
        raise ValueError(f"unknown mapping variant {tag!r}")
    cls = _VARIANTS[tag]
    body = {f.name: d[f.name] for f in dataclasses.fields(cls)}
    if cls is CompositionMap:
        body["stages"] = [_op_from_dict(s) for s in body["stages"]]
    return cls(**body)


def mapping_to_dict(spec: MappingSpec) -> dict:
    domain = {"kind": spec.domain.kind, "cone": {"kind": spec.domain.cone.kind, "dim": spec.domain.cone.dim}}
    if spec.domain.lo is not None:
        domain["lo"] = spec.domain.lo.tolist()
        domain["hi"] = spec.domain.hi.tolist()
    return {**_op_to_dict(spec.op), "domain": domain}


def mapping_from_dict(d: dict) -> MappingSpec:
    try:
        op = _op_from_dict(d)
        cone = _section(d, "domain.cone", ConeSpec("orthant", 1))
        dd = d["domain"]
        dd["cone"]["kind"], dd["cone"]["dim"]  # both required, unlike the fields of a config section
        spec = MappingSpec(op, Domain(kind=dd["kind"], cone=cone, lo=dd.get("lo"), hi=dd.get("hi")))
    except KeyError as exc:  # a missing key, at any depth
        raise ValueError(f"mapping needs the key {exc.args[0]!r}") from None
    validate_self_map(spec)  # a map read from outside is a self-map only by its author's word
    return spec


def _section(config: dict, key: str | None, default):
    """``default`` with the fields that the JSON object at the dotted path ``key``
    of ``config`` (``config`` itself for None) gives, each converted to its
    default's type; other keys are ignored. A str field takes only a string; a
    bool field rejects a string, a number field a boolean, an int field a
    fraction, a tuple field a non-list and an array field anything but a list
    of finite numbers, as the conversion would misread them or fail."""
    given, path = config, []
    for part in key.split(".") if key else ():
        if isinstance(given, dict):
            given, path = given.get(part, {}), path + [part]
    if not isinstance(given, dict):
        where = "field " + ".".join(path) if path else "section"
        raise ValueError(f"config {where} needs a JSON object, got {given!r}")
    values = {}
    for name in (f.name for f in dataclasses.fields(default) if f.name in given):
        kind, value = type(getattr(default, name)), given[name]
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            values[name] = (as_vector if kind is np.ndarray else kind)(value)
        if (
            name not in values
            or kind is str and not isinstance(value, str)
            or kind is bool and isinstance(value, str)
            or kind in (int, float) and isinstance(value, bool)
            or kind is int and isinstance(value, float) and not value.is_integer()
            or kind is tuple and not isinstance(value, (list, tuple))
        ):
            wanted = {str: "string", bool: "boolean", int: "integer", float: "number", tuple: "list",
                      np.ndarray: "list of finite numbers"}[kind]
            raise ValueError(f"config field {'.'.join(path + [name])} needs a JSON {wanted}, got {value!r}")
    return dataclasses.replace(default, **values)


def load_mapping(path) -> MappingSpec:
    with Path(path).open("r", encoding="utf-8") as fh:
        return mapping_from_dict(json.load(fh))


def save_mapping(spec: MappingSpec, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(mapping_to_dict(spec), fh, indent=2)
        fh.write("\n")
