"""Picard and Mann orbit generation with order-monotonicity tracking.

Boundedness of an orbit is undecidable from finitely many iterates; the
``unbounded_suspected`` verdict requires both a norm above the configured
ceiling and positive mean growth over a trailing window, so slowly converging
orbits are not misclassified. An orbit whose image overflows (an inf or NaN
coordinate) stops with the ``nonfinite`` verdict at its last finite point.
Orbits are stepped in blocks: the stopping rules run once per block, row-wise,
and the first row where one fires ends the orbit, as if checked step by step.
Each block is sized from the residual and norm trends of the one before, so
that the last block ends near the stop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orderfp.mapping import DomainError, MappingSpec, TranslationMap, _domain_contains_raw
from orderfp.order import MEMBERSHIP_TOL, ConeSpec, _member_raw
from orderfp.space import SpaceSpec, as_rows, as_vector, _row_norms

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
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")


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


BLOCK_FIRST, BLOCK_CAP = 8, 1024  # steps per block: at most doubles from the first to the cap
BLOCK_SLACK = 8  # steps a block runs past the stop its predecessor's trend predicts


def _next_block(k: int, res: np.ndarray, norms: np.ndarray, cfg: IterationConfig) -> int:
    """Steps in the block after a block of k steps with residuals ``res`` and
    point norms ``norms``: twice k up to BLOCK_CAP, but at most BLOCK_SLACK
    past the nearer predicted stop, and never fewer than BLOCK_FIRST. The
    predictions extend the last two rows: a geometric residual ratio
    reaching residual_tol, or a linear norm increment crossing
    bound_threshold. A trend that is not finite and strictly moving toward
    its stop (an overflowed norm, a residual of 0 or inf) predicts nothing,
    and neither does a block of one step."""
    steps = math.inf
    if k > 1:
        res0, res1 = float(res[-2]), float(res[-1])
        if cfg.residual_tol < res1 < res0 < math.inf and res1 / res0 > 0.0:  # the ratio can underflow
            steps = (math.log(cfg.residual_tol) - math.log(res1)) / math.log(res1 / res0)
        norm0, norm1 = float(norms[-2]), float(norms[-1])
        if norm0 < norm1 < cfg.bound_threshold:
            steps = min(steps, (cfg.bound_threshold - norm1) / (norm1 - norm0))
    return max(BLOCK_FIRST, int(min(2 * k, BLOCK_CAP, steps + BLOCK_SLACK)))


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
    # a Picard orbit of x -> x + shift is a running sum, filled in one call
    shift = spec.op.shift if beta_fn is None and type(spec.op) is TranslationMap else None

    def row_norms(rows):  # rows past an overflow are not validated
        return _row_norms(space, rows[None], slice(0))[0]

    points, residuals, norms = [x[None]], [], [row_norms(x[None])]
    # norms of the `window` points before the block, +inf before x_0; a
    # window longer than the budget could never look back far enough
    window = min(cfg.window, cfg.max_iter + 1)
    recent = np.concatenate((np.full(window, np.inf), norms[0]))[1:]
    verdict, n0, k = MAX_ITER_REACHED, 0, BLOCK_FIRST
    with np.errstate(all="ignore"):
        while verdict == MAX_ITER_REACHED and n0 < cfg.max_iter:
            # the recurrence alone, k steps at a time; an error is held until
            # the rules below show that no earlier step ends the orbit
            k = min(k, cfg.max_iter - n0)
            xs = np.empty((k + 1, x.size))
            xs[0] = x
            txs = xs[1:] if beta_fn is None else np.empty((k, x.size))
            held, m, imgs = None, k, k  # steps with a next point, with an image
            if shift is not None:  # adds in order: the bits of x + shift, step by step
                xs[1:] = shift
                np.add.accumulate(xs, axis=0, out=xs)
            else:
                for j in range(k):
                    try:
                        txs[j] = tx = evaluate(xs[j])
                    except Exception as exc:
                        held, m, imgs = exc, j, j
                        break
                    if beta_fn is not None:
                        try:
                            beta = float(beta_fn(n0 + j))
                            if not (0.0 <= beta <= 1.0):
                                raise ValueError(
                                    f"invalid Mann schedule: beta_{n0 + j}={beta} outside [0, 1]"
                                )
                        except Exception as exc:
                            held, m, imgs = exc, j, j + 1
                            break
                        xs[j + 1] = beta * xs[j] + (1.0 - beta) * tx

            # the stopping rules, row-wise; the first row where one fires ends
            # the orbit, and within a row they rank nonfinite, escape,
            # converged, the Mann schedule, growth
            img = txs[:imgs]
            both = row_norms(np.concatenate((img - xs[:imgs], xs[1 : m + 1])))
            res, new_norms = both[:imgs], both[imgs:]
            bad = ~(res < np.inf) & ~np.isfinite(img).all(axis=1)
            esc = ~_domain_contains_raw(domain, img, 1e-9)
            halt = np.flatnonzero(bad | esc | (res <= cfg.residual_tol))
            recent = np.concatenate((recent, new_norms))
            grow = np.flatnonzero((new_norms > cfg.bound_threshold) & (new_norms > recent[:m]))
            j = halt[0] if halt.size else imgs
            g = grow[0] if grow.size else m
            keep, nres = m, m  # new points and residuals that stay in the record
            if j < imgs and j <= g:
                keep, nres = j, j + 1
                if esc[j] and not bad[j]:
                    raise DomainError(f"map escaped its domain at step {n0 + j}: image {img[j]}")
                verdict = NONFINITE if bad[j] else CONVERGED
            elif g < m:  # the last point's residual is taken below
                keep = nres = g + 1
                verdict = UNBOUNDED_SUSPECTED
            elif held is not None:
                raise held
            points.append(xs[1 : keep + 1])
            norms.append(new_norms[:keep])
            residuals.append(res[:nres])
            x, n0 = xs[keep], n0 + k
            if verdict == MAX_ITER_REACHED:  # the block ran whole: its trend sizes the next
                k = _next_block(k, res, new_norms, cfg)
            recent = recent[len(recent) - window :]

        if verdict in (MAX_ITER_REACHED, UNBOUNDED_SUSPECTED):
            residuals.append(row_norms((evaluate(x) - x)[None]))
        pts = np.concatenate(points)
        up_arr, down_arr = _step_flags(pts, cone)
    if up_arr.all():
        order = INCREASING
    elif down_arr.all():
        order = DECREASING
    else:
        order = NEITHER
    return OrbitRecord(
        points=pts,
        residuals=np.concatenate(residuals),
        norms=np.concatenate(norms),
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
    up, down = _step_flags(as_rows(record.points, cone.dim), cone)
    first_up = int(np.argmin(up)) if not up.all() else None
    first_down = int(np.argmin(down)) if not down.all() else None
    return ChainVerdict(
        increasing=first_up is None,
        decreasing=first_down is None,
        first_up_violation=first_up,
        first_down_violation=first_down,
    )


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
