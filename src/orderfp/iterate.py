"""Picard and Mann orbit generation with order-monotonicity tracking.

Boundedness of an orbit is undecidable from finitely many iterates; the
``unbounded_suspected`` verdict requires both a norm above the configured
ceiling and positive mean growth over a trailing window, so slowly converging
orbits are not misclassified. An orbit whose image overflows (an inf or NaN
coordinate) stops with the ``nonfinite`` verdict at its last finite point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orderfp.mapping import DomainError, MappingSpec, _domain_contains_raw
from orderfp.order import MEMBERSHIP_TOL, ConeSpec, _member_raw
from orderfp.space import SpaceSpec, as_vector, _norm_raw

CONVERGED = "converged"
UNBOUNDED_SUSPECTED = "unbounded_suspected"
MAX_ITER_REACHED = "max_iter_reached"
NONFINITE = "nonfinite"

INCREASING = "increasing"
DECREASING = "decreasing"
NEITHER = "neither"


@dataclass(frozen=True)
class IterationConfig:
    max_iter: int = 100_000
    residual_tol: float = 1e-10
    bound_threshold: float = 1e8
    window: int = 50  # growth-detection window

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.residual_tol <= 0 or self.bound_threshold <= 0:
            raise ValueError("residual_tol and bound_threshold must be positive")


@dataclass
class OrbitRecord:
    """Recorded trajectory: points, residuals ||T x_n - x_n||, norms, and the
    per-step order flags x_n <= x_{n+1} (up) and x_{n+1} <= x_n (down)."""

    points: np.ndarray     # (n+1, dim)
    residuals: np.ndarray  # (n+1,)
    norms: np.ndarray      # (n+1,)
    leq_up: np.ndarray     # (n,) bool
    leq_down: np.ndarray   # (n,) bool
    order_monotone: str
    verdict: str
    scheme: str

    def __len__(self) -> int:
        return self.points.shape[0]


def _step_flags(points: np.ndarray, cone: ConeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-step order flags x_n <= x_{n+1} (up) and x_{n+1} <= x_n (down)."""
    steps = points[1:] - points[:-1]
    return _member_raw(cone, steps, MEMBERSHIP_TOL), _member_raw(cone, -steps, MEMBERSHIP_TOL)


def _orbit(
    spec: MappingSpec,
    x0,
    cone: ConeSpec,
    space: SpaceSpec,
    cfg: IterationConfig,
    beta_fn,
    scheme: str,
) -> OrbitRecord:
    x = as_vector(x0, dim=spec.dim)
    domain, evaluate = spec.domain, spec.op.evaluate
    if not _domain_contains_raw(domain, x, MEMBERSHIP_TOL):
        raise DomainError(f"starting point {x} lies outside the mapping domain")
    p = space.p
    points = [x]
    residuals: list[float] = []
    norms = [_norm_raw(p, x)]
    verdict = MAX_ITER_REACHED

    # only what a stopping rule reads is computed per step; the order flags
    # are derived once from the recorded points after the loop
    for n in range(cfg.max_iter):
        tx = evaluate(x)
        res = _norm_raw(p, tx - x)
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
        norms.append(_norm_raw(p, x))
        if norms[-1] > cfg.bound_threshold and len(norms) > cfg.window:
            if norms[-1] > norms[-1 - cfg.window]:
                verdict = UNBOUNDED_SUSPECTED
                break

    if len(residuals) < len(points):
        residuals.append(_norm_raw(p, evaluate(x) - x))

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


def picard_orbit(
    spec: MappingSpec, x0, cone: ConeSpec, space: SpaceSpec, cfg: IterationConfig | None = None
) -> OrbitRecord:
    """Iterate x_{n+1} = T x_n until the residual drops below tolerance, the
    growth detector fires, or the iteration budget runs out."""
    return _orbit(spec, x0, cone, space, cfg or IterationConfig(), None, "picard")


def mann_orbit(
    spec: MappingSpec,
    x0,
    beta_schedule,
    cone: ConeSpec,
    space: SpaceSpec,
    cfg: IterationConfig | None = None,
) -> OrbitRecord:
    """Averaged iteration x_{n+1} = beta_n x_n + (1 - beta_n) T x_n.

    ``beta_schedule`` is a constant, a sequence, or a callable n -> beta_n with
    values in [0, 1]. The all-zero schedule reproduces the Picard orbit
    bit for bit.
    """
    if callable(beta_schedule):
        beta_fn = beta_schedule
    elif np.isscalar(beta_schedule):
        beta_const = float(beta_schedule)
        beta_fn = lambda n: beta_const
    else:
        seq = [float(b) for b in beta_schedule]
        if not seq:
            raise ValueError("empty Mann schedule")
        beta_fn = lambda n: seq[n] if n < len(seq) else seq[-1]
    return _orbit(spec, x0, cone, space, cfg or IterationConfig(), beta_fn, "mann")


def _checked_points(record: OrbitRecord, cone: ConeSpec) -> np.ndarray:
    # validated once for the whole record, with the errors leq gives a bad point
    as_vector(record.points[0], dim=cone.dim)
    as_vector(record.points.ravel())
    return record.points


@dataclass
class ChainVerdict:
    increasing: bool
    decreasing: bool
    first_up_violation: int | None
    first_down_violation: int | None


def check_orbit_monotone(record: OrbitRecord, cone: ConeSpec) -> ChainVerdict:
    """Recheck the order chain directly from the recorded points.

    A constant orbit is both increasing and decreasing (an equality chain).
    The first violating index in each direction is reported, if any.
    """
    if len(record) == 0:
        raise ValueError("empty orbit record")
    up, down = _step_flags(_checked_points(record, cone), cone)
    first_up = int(np.argmin(up)) if not up.all() else None
    first_down = int(np.argmin(down)) if not down.all() else None
    return ChainVerdict(
        increasing=first_up is None,
        decreasing=first_down is None,
        first_up_violation=first_up,
        first_down_violation=first_down,
    )


def monotone_limit(record: OrbitRecord, cone: ConeSpec, order_tol: float = 1e-9) -> np.ndarray:
    """Norm limit of a monotone bounded orbit (the last recorded point).

    Requires a monotone record that was not flagged unbounded, and asserts the
    order bound: every orbit point is dominated by (increasing case) or
    dominates (decreasing case) the limit, within ``order_tol`` to absorb
    accumulated rounding.
    """
    if record.order_monotone == NEITHER:
        raise ValueError("orbit is not order-monotone; no monotone limit")
    if record.verdict == UNBOUNDED_SUSPECTED:
        raise ValueError("orbit flagged unbounded; no limit to report")
    if record.verdict == NONFINITE:
        raise ValueError("orbit overflowed; no limit to report")
    points = _checked_points(record, cone)
    limit = points[-1]
    gaps = limit - points if record.order_monotone == INCREASING else points - limit
    ok = _member_raw(cone, gaps, order_tol)
    if not ok.all():
        raise ValueError(f"order bound violated at index {int(np.argmin(ok))}: orbit point vs limit")
    return limit.copy()


def write_orbit_csv(record: OrbitRecord, path) -> None:
    """Write the orbit as CSV: n, coordinates, residual, norm, leq_up, leq_down.

    The order flags describe the step n -> n+1 and are blank on the last row.
    """
    dim = record.points.shape[1]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n"] + [f"x{i}" for i in range(dim)] + ["residual", "norm", "leq_up", "leq_down"]
        )
        for n in range(len(record)):
            up = down = ""
            if n < record.leq_up.size:
                up, down = int(record.leq_up[n]), int(record.leq_down[n])
            writer.writerow(
                [n]
                + [repr(float(c)) for c in record.points[n]]
                + [repr(float(record.residuals[n])), repr(float(record.norms[n])), up, down]
            )


def read_orbit_points(path) -> np.ndarray:
    """Read back the coordinate block of an orbit CSV."""
    with Path(path).open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        coord_cols = [i for i, name in enumerate(header) if name.startswith("x")]
        if not coord_cols:
            raise ValueError(f"no coordinate columns in {path}")
        rows = [[float(row[i]) for i in coord_cols] for row in reader]
    if not rows:
        raise ValueError(f"orbit file {path} has no data rows")
    return np.asarray(rows)
