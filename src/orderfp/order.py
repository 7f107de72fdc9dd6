"""Cone-induced partial orders, finite suprema, and cone diagnostics; every
cone test reads one margin per point (``_cone_margins``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from orderfp.report import PropertyReport
from orderfp.space import SpaceSpec, as_rows, as_vector, _row_norms, _settle

# Absolute tolerance on cone boundary tests; boundary points arise from arithmetic.
MEMBERSHIP_TOL = 1e-12
# slack of the norm-monotonicity tests ||x|| <= ||y|| + NORM_MONOTONE_TOL
NORM_MONOTONE_TOL = 1e-12

ORTHANT = "orthant"
LORENTZ = "lorentz"


class UnsupportedConeOperation(ValueError):
    """Operation requires lattice structure the cone does not have."""


@dataclass(frozen=True)
class ConeSpec:
    """Closed convex pointed cone: the non-negative orthant or the Lorentz cone
    { (u, t) : t >= ||u||_2 }."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (ORTHANT, LORENTZ):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if self.kind == LORENTZ and self.dim < 2:
            raise ValueError("lorentz cone needs dim >= 2")


def contains(cone: ConeSpec, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """Cone membership, tolerance-aware on the boundary."""
    return bool(_member_raw(cone, as_vector(x, dim=cone.dim), tol))


def _cone_margins(cone: ConeSpec, v: np.ndarray):
    # one value per row (coordinates on the last axis): nonnegative iff the
    # row is in the cone. A Lorentz head norm is taken row by row, so it has
    # the bits of the norm of a single vector. An orthant margin is a row's
    # min: v.min(axis=-1) reduces row by row, about 0.08 us a row, and
    # np.minimum over the d columns takes about 1.5 us a column (timeit,
    # numpy 2.4 on a 2-core x86-64 VM). The column form takes the same pairs
    # in the same order, so it has the same bits, signed zeros and nans
    # included.
    if cone.kind == ORTHANT:
        if v.size < 16 * v.shape[-1] ** 2:  # fewer than 16 d rows
            return v.min(axis=-1)
        out = v[..., 0].copy()
        for j in range(1, v.shape[-1]):
            np.minimum(out, v[..., j], out=out)
        return out
    heads = [np.linalg.norm(row[:-1]) for row in v.reshape(-1, v.shape[-1])]
    return v[..., -1] - np.reshape(heads, v.shape[:-1])


def _member_raw(cone: ConeSpec, v: np.ndarray, tol: float):
    # hot-loop path: assumes validated float rows; one flag per row
    return _cone_margins(cone, v) >= -tol


def leq(cone: ConeSpec, x, y, tol: float = MEMBERSHIP_TOL) -> bool:
    """x <= y iff y - x lies in the cone; under the Lorentz cone a y - x that overflows raises a ValueError."""
    return _leq_raw(cone, as_vector(x, dim=cone.dim), as_vector(y, dim=cone.dim), tol)


def _leq_raw(cone: ConeSpec, x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    # the orthant: each coordinate's b - a >= -tol in Python floats, the bits
    # of (y - x).min() >= -tol at any d (an overflow to +-inf included)
    if cone.kind == ORTHANT:
        return all(b - a >= -tol for a, b in zip(x.tolist(), y.tolist()))
    with np.errstate(over="ignore"):  # an overflowed coordinate is refused below, with no RuntimeWarning
        v = y - x
    if not np.isfinite(v).all():
        raise ValueError(f"y - x overflows the float range for x = {x}, y = {y}: the {cone.kind} order is undecided")
    return bool(_member_raw(cone, v, tol))


def comparable(cone: ConeSpec, x, y, tol: float = MEMBERSHIP_TOL) -> bool:
    xv, yv = as_vector(x, dim=cone.dim), as_vector(y, dim=cone.dim)
    return _leq_raw(cone, xv, yv, tol) or _leq_raw(cone, yv, xv, tol)


def sup_finite(cone: ConeSpec, points) -> np.ndarray:
    """Supremum of a finite set of points (orthant only: componentwise max)."""
    if cone.kind != ORTHANT:
        raise UnsupportedConeOperation(f"sup_finite needs a strongly minihedral cone, not {cone.kind}")
    if len(points) == 0:
        raise ValueError("supremum of an empty set")
    return as_rows(points, cone.dim).max(axis=0)


def project_to_cone(cone: ConeSpec, x) -> np.ndarray:
    """Euclidean projection onto the cone."""
    v = as_vector(x, dim=cone.dim)
    if cone.kind == ORTHANT:
        return np.maximum(v, 0.0)
    u, t = v[:-1], float(v[-1])
    nu = float(np.linalg.norm(u))
    if nu <= t:
        return v.copy()
    if nu <= -t:
        return np.zeros_like(v)
    scale = (nu + t) / 2.0
    out = np.concatenate([u * (scale / nu), [scale]])
    return out


def _cone_rows(cone: ConeSpec, rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    # n cone points as rows: a non-negative box draw for the orthant, a
    # scaled-axis point with projected perturbation for the Lorentz cone,
    # whose draws interleave, so its rows are drawn one at a time
    if cone.kind == ORTHANT:
        return rng.uniform(0.0, scale, size=(n, cone.dim))
    rows = np.zeros((n, cone.dim))
    for row in rows:
        row[-1] = rng.uniform(0.0, scale)
        row[:] = project_to_cone(cone, row + rng.normal(0.0, scale / 3.0, size=cone.dim))
    return rows


def sample_dominated_pairs(
    cone: ConeSpec, rng: np.random.Generator, n: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` pairs 0 <= x <= y as rows (x, y): x from the cone, y = x + a cone direction,
    pair k from cone draws 2k and 2k + 1 of one stream (the first pairs do not depend on n)."""
    u = _cone_rows(cone, rng, 2 * n, scale).reshape(n, 2, cone.dim)
    return u[:, 0], u[:, 0] + u[:, 1]


def _dominated_pairs(cone: ConeSpec, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if seed < 0:  # numpy refuses it naming no option
        raise ValueError(f"seed must be >= 0, got {seed}")
    return sample_dominated_pairs(cone, np.random.default_rng(seed), n_samples)


def _norm_monotone(space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> PropertyReport:
    failed, lhs, rhs = np.zeros(len(x), bool), np.zeros(len(x)), np.zeros(len(x))
    _settle(space, np.stack([x, y]), None, lambda rhs, s: NORM_MONOTONE_TOL, failed, lhs, rhs, np.ones(len(x)))
    return PropertyReport.from_rows("norm_monotonic", x, y, lhs, rhs, failed)


def _dominated_pair_checks(cone: ConeSpec, space: SpaceSpec, n_samples: int, seed: int) -> tuple[float, PropertyReport]:
    """(normality estimate: sampled max of ||x||/||y|| by exact roots; norm-monotonicity report) of one draw."""
    x, y = _dominated_pairs(cone, n_samples, seed)
    nx, ny = _row_norms(space, np.stack([x, y]))
    nonzero = ny != 0.0
    return float((nx[nonzero] / ny[nonzero]).max(initial=0.0)), _norm_monotone(space, x, y)


def is_norm_monotonic(cone: ConeSpec, space: SpaceSpec, n_samples: int, seed: int = 0) -> PropertyReport:
    """Sampled check that 0 <= x <= y implies ||x|| <= ||y||; each violation
    is recorded with the witness pair."""
    return _norm_monotone(space, *_dominated_pairs(cone, n_samples, seed))
