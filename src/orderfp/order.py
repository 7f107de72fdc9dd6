"""Cone-induced partial orders, lattice suprema, and cone diagnostics; every
cone test reads one margin per point (``_cone_margins``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from orderfp.report import PropertyReport
from orderfp.space import SpaceSpec, as_rows, as_vector, _row_norms

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
    # the bits of the norm of a single vector.
    if cone.kind == ORTHANT:
        return v.min(axis=-1)
    heads = [np.linalg.norm(row[:-1]) for row in v.reshape(-1, v.shape[-1])]
    return v[..., -1] - np.reshape(heads, v.shape[:-1])


def _member_raw(cone: ConeSpec, v: np.ndarray, tol: float):
    # hot-loop path: assumes validated float rows; one flag per row
    return _cone_margins(cone, v) >= -tol


def interior_contains(cone: ConeSpec, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership in the cone interior: the cone margin exceeds tol."""
    return bool(_cone_margins(cone, as_vector(x, dim=cone.dim)) > tol)


def leq(cone: ConeSpec, x, y, tol: float = MEMBERSHIP_TOL) -> bool:
    """x <= y iff y - x lies in the cone."""
    xv = as_vector(x, dim=cone.dim)
    yv = as_vector(y, dim=cone.dim)
    return contains(cone, yv - xv, tol=tol)


def comparable(cone: ConeSpec, x, y, tol: float = MEMBERSHIP_TOL) -> bool:
    return leq(cone, x, y, tol=tol) or leq(cone, y, x, tol=tol)


def sup_pair(cone: ConeSpec, x, y) -> np.ndarray:
    """Least upper bound of {x, y}: ``sup_finite`` of the pair.

    The Lorentz cone is not minihedral (pairs can have several incomparable
    minimal upper bounds), so it is rejected.
    """
    xv = as_vector(x, dim=cone.dim)
    yv = as_vector(y, dim=cone.dim)
    return sup_finite(cone, [xv, yv])


def inf_pair(cone: ConeSpec, x, y) -> np.ndarray:
    """Greatest lower bound of {x, y}; componentwise min for the orthant."""
    if cone.kind != ORTHANT:
        raise UnsupportedConeOperation(f"inf_pair needs a minihedral cone, not {cone.kind}")
    xv = as_vector(x, dim=cone.dim)
    yv = as_vector(y, dim=cone.dim)
    return np.minimum(xv, yv)


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


def sample_cone_point(cone: ConeSpec, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Draw a point of the cone: a non-negative box draw for the orthant, a
    scaled-axis point with projected perturbation for the Lorentz cone."""
    return _cone_rows(cone, rng, 1, scale)[0]


def sample_dominated_pairs(
    cone: ConeSpec, rng: np.random.Generator, n: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` pairs 0 <= x <= y as rows (x, y): x from the cone, y = x + a cone
    direction, drawn exactly as ``n`` calls of ``sample_dominated_pair``."""
    u = _cone_rows(cone, rng, 2 * n, scale).reshape(n, 2, cone.dim)
    return u[:, 0], u[:, 0] + u[:, 1]


def sample_dominated_pair(
    cone: ConeSpec, rng: np.random.Generator, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, y) with 0 <= x <= y: x from the cone, y = x + cone direction."""
    x, y = sample_dominated_pairs(cone, rng, 1, scale)
    return x[0], y[0]


def normality_constant_estimate(
    cone: ConeSpec, space: SpaceSpec, n_samples: int, seed: int = 0
) -> float:
    """Sampled max of ||x||/||y|| over pairs 0 <= x <= y; a lower bound on the
    normality constant of the cone."""
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    x, y = sample_dominated_pairs(cone, np.random.default_rng(seed), n_samples)
    nx, ny = _row_norms(space, np.stack([x, y]))
    nonzero = ny != 0.0
    return float((nx[nonzero] / ny[nonzero]).max(initial=0.0))


def is_norm_monotonic(
    cone: ConeSpec,
    space: SpaceSpec,
    n_samples: int,
    seed: int = 0,
    extra_pairs=None,
) -> PropertyReport:
    """Sampled check that 0 <= x <= y implies ||x|| <= ||y||.

    ``extra_pairs`` appends given (x, y) pairs to the sampled ones, for
    instance a known violation. Each violation is recorded with the witness
    pair.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    x, y = sample_dominated_pairs(cone, np.random.default_rng(seed), n_samples)
    if extra_pairs is not None:
        extra = [(as_vector(a, cone.dim), as_vector(b, cone.dim)) for a, b in extra_pairs]
        x = np.vstack([x] + [a for a, _ in extra])
        y = np.vstack([y] + [b for _, b in extra])
    nx, ny = _row_norms(space, np.stack([x, y]))
    return PropertyReport.from_rows("norm_monotonic", x, y, nx, ny, nx > ny + NORM_MONOTONE_TOL)
