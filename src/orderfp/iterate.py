"""Picard orbit generation with order-monotonicity tracking.

Boundedness of an orbit is undecidable from finitely many iterates; the
``unbounded_suspected`` verdict requires both a norm above the configured
ceiling and positive mean growth over a trailing window, so slowly converging
orbits are not misclassified. An orbit whose image overflows (an inf or NaN
coordinate) stops with the ``nonfinite`` verdict at its last finite point.
Orbits are stepped in blocks, a batch of orbits in lockstep: the stopping rules
run once per block, row-wise, and an orbit's first row where one fires ends
it, as if checked step by step. Each block is sized from the residual and norm
trends of the one before, so that the last block ends near the stop: a stacked
batch goes there at once, in blocks of max(BLOCK_CAP, BLOCK_COORDS // dim)
rows at most, and any other orbit, a Python call a step, doubles toward it in
blocks of BLOCK_CAP rows at most. A verdict run stops an orbit at its first
candidate row that fires, a residual whose power sum is not certainly above
residual_tol, rooted only if a cut leaves it open; only a block in which a
point can pass bound_threshold takes point norms. Each orbit that goes on
roots its last two residuals and points, which size the next block.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orderfp.mapping import AffineMap, DomainError, MappingSpec, TranslationMap, _domain_contains_raw
from orderfp.order import MEMBERSHIP_TOL, ORTHANT, ConeSpec, _member_raw
from orderfp.space import _SUM_MIN, SpaceSpec, as_rows, as_vector, _power_sums, _roots, _row_norms

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
        for name in ("residual_tol", "bound_threshold"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {getattr(self, name)}")
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

    def __len__(self) -> int:
        return self.points.shape[0]


def _step_flags(points: np.ndarray, cone: ConeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-step order flags x_n <= x_{n+1} (up) and x_{n+1} <= x_n (down)."""
    steps = points[1:] - points[:-1]
    return _member_raw(cone, steps, MEMBERSHIP_TOL), _member_raw(cone, -steps, MEMBERSHIP_TOL)


BLOCK_FIRST = 8  # steps in the first block of a batch
BLOCK_CAP, BLOCK_COORDS = 1024, 20 * 1024  # rows in all of a block: BLOCK_CAP, or max(BLOCK_CAP, BLOCK_COORDS // dim) stacked
BLOCK_SLACK = 8  # steps a block runs past the stop its predecessor's trend predicts


def _next_block(k: int, res: np.ndarray, norms: np.ndarray, cfg: IterationConfig, stacked: bool) -> int:
    """Steps in the block after a block of k steps with residuals ``res`` and
    point norms ``norms``, one row per orbit (1-D for one orbit): BLOCK_SLACK
    past the last predicted stop, at most twice k unless the batch is
    ``stacked`` (no Python call a step) and every orbit predicts a stop, at
    least BLOCK_FIRST; `_orbit` caps the rows. An orbit predicts the nearer of
    two stops from its last two rows: a geometric residual ratio reaching
    residual_tol, or a linear norm increment crossing bound_threshold. A trend
    that is not finite and strictly moving toward its stop (an overflowed norm,
    a residual of 0 or inf) predicts nothing, nor does a block of one step."""
    steps = math.inf
    if k > 1:
        tol, top = cfg.residual_tol, cfg.bound_threshold
        (res0, res1), (norm0, norm1) = (a.reshape(-1, a.shape[-1])[:, -2:].T for a in (res, norms))
        with np.errstate(all="ignore"):  # the ratio can underflow; rows not taken may be 0, inf or nan
            ratio = res1 / res0
            stop = np.where((tol < res1) & (res1 < res0) & (ratio > 0.0),  # res1 / inf is 0: res0 < inf
                            (math.log(tol) - np.log(res1)) / np.log(ratio), math.inf)
            np.minimum(stop, (top - norm1) / (norm1 - norm0), out=stop, where=(norm0 < norm1) & (norm1 < top))
        steps = float(stop.max())
    return max(BLOCK_FIRST, int(min(steps + BLOCK_SLACK, math.inf if stacked and steps < math.inf else 2 * k)))


# the fields a Picard batch stacks, each (dim, 1) or (dim, dim): a block of x -> x + shift
# is one running sum, and one of x -> matrix @ x + offset one stacked product a step
_STACKED = {TranslationMap: ("shift",), AffineMap: ("matrix", "offset")}


# A verdict run decides a stopping rule without a root where its side is
# certain by KAPPA, a relative margin. A row with power sum s (`_power_sums`:
# the very bits `_roots` roots) has its norm s ** (1/p) at most t if
# _SUM_MIN <= s < (t (1 - KAPPA))^p, and above t, and finite, if
# (t (1 + KAPPA))^p < s < inf. In the root's terms only two things round:
# the root (libm's pow, at most 0.54 ulp; p = 2's certified np.sqrt has its
# bits) and the cut (t (1 -+ KAPPA), then its power, about 1.1 ulp once
# rooted), some 2e-16 against KAPPA = 1e-9. A block whose points all have
# max |x_i| < bound_threshold (1 - KAPPA) / d^(1/p) takes no point sum:
# ||x||_p <= d^(1/p) max |x_i|, and the norm `_roots` takes
# is within (d + 8) ulp of ||x||_p (the sum's d - 1 roundings, each term's:
# half an ulp for a square at p = 2, a few ulp for numpy's array power at
# other p, the root, the bound), under 3e-10 for d < 2^20. Every other row
# takes its root: the band around a cut, and a sum that is subnormal, inf or
# nan, or a point's sum of 0 (a residual's is below a normal cut).
KAPPA = 1e-9


def _verdict_cuts(space: SpaceSpec, cfg: IterationConfig) -> tuple[float, float, float, float]:
    """(lo, hi, cut, top): a residual row whose power sum s has _SUM_MIN <=
    s < lo is at most residual_tol, one with hi < s < inf above it; a point
    row with _SUM_MIN <= s < cut is at most bound_threshold, and so is every
    point of a block whose largest |coordinate| is below top. A cut that is
    not a normal float decides nothing: lo and cut are then 0, hi inf, and
    top 0."""
    p, d = space.p, space.dim

    def power(t):  # a float ** that overflows raises, where numpy's is inf
        try:
            v = t**p
        except OverflowError:
            return 0.0
        return v if _SUM_MIN <= v < math.inf else 0.0

    tol, thr = cfg.residual_tol, cfg.bound_threshold
    lo, hi, cut = power(tol * (1.0 - KAPPA)), power(tol * (1.0 + KAPPA)), power(thr * (1.0 - KAPPA))
    if not (lo and hi):
        lo, hi = 0.0, math.inf
    top = thr * (1.0 - KAPPA) / d ** (1.0 / p)
    return lo, hi, cut, (top if _SUM_MIN <= top and d < 2**20 else 0.0)


def _verdict_rules(space: SpaceSpec, diff: np.ndarray, pts: np.ndarray, cuts, tol: float, halt):
    """Mark in ``halt`` the residual rows ``diff`` (a row of rows per orbit)
    where the nonfinite or converged rule fires, and return (norms, bad):
    ``bad`` where the first fires, and the norms of the points ``pts`` (starts,
    then images) that growth needs, a point at most bound_threshold as -inf, or
    None if all lie below top. Only a
    candidate, a sum not certainly above the cut and finite, can fire: one
    below the cut does; any other is rooted, and tested finite if its root is
    not."""
    lo, hi, cut, top = cuts
    s = _power_sums(space, diff)
    np.logical_not((hi < s) & (s < math.inf), out=halt)
    bad = np.zeros(s.shape, bool)
    if np.count_nonzero(halt):
        opn = halt ^ (((_SUM_MIN <= s) | (s == 0.0)) & (s < lo))  # a sum of 0 has its root below a normal lo's
        if np.count_nonzero(opn):
            v = _roots(space, s[opn], diff[opn])
            bad[opn] = ~(v < math.inf) & ~np.isfinite(pts[:, 1:][opn]).all(axis=-1)
            halt[opn] = (v <= tol) | bad[opn]
    if max(pts.max(initial=0.0), -pts.min(initial=0.0)) < top:  # a nan anywhere leaves the block to its sums
        return None, bad
    t = _power_sums(space, pts)
    norms, opn = np.full(t.shape, -math.inf), ~((_SUM_MIN <= t) & (t < cut))
    if np.count_nonzero(opn):
        norms[opn] = _roots(space, t[opn], pts[opn])
    return norms, bad


def _orbit(spec, x0, space: SpaceSpec, cfg: IterationConfig, verdicts=False):
    """The records of the orbits of the list ``spec`` from the list ``x0``:
    starts of one map, or a stack of Picard orbits of AffineMaps, or of
    TranslationMaps, on one cone, which step in lockstep as one batch and
    each leave it at its first stop; any other list is a ValueError. Each
    orbit gets the record or error it has alone, and the first error met is
    raised: a generic map's row call that raises ends the block there if an
    orbit's own 1-D call raises. With ``verdicts``, each orbit's verdict stands
    in for its record: no trajectory or last residual is kept, and a block
    roots only the candidate rows a cut leaves open and takes point norms only
    where a point can pass bound_threshold (`_verdict_rules`). The order flags
    of a record are taken under its map's domain cone."""
    if len({(id(s.op), id(s.domain)) for s in spec}) != 1 and not (
            len({(type(s.op), s.domain.kind, s.domain.cone) for s in spec}) == 1
            and spec[0].domain.kind == "cone" and type(spec[0].op) in _STACKED):
        raise ValueError("orbits batch only as starts of one map, or of one affine or translation kind on one cone")
    domain, op, live = spec[0].domain, spec[0].op, list(range(len(spec)))
    try:  # a batch's starts in one check, else one by one, so that the first bad one raises its error
        x = np.array(x0, dtype=float) if len(spec) > 1 else None
        one_by_one = x is None or not (x.shape == (len(spec), op.dim) and np.isfinite(x).all()
                                       and _domain_contains_raw(domain, x, MEMBERSHIP_TOL).all())
    except (TypeError, ValueError):  # ragged, or not numbers
        one_by_one = True
    if one_by_one:
        starts = []
        for s, start in zip(spec, x0):
            starts.append(as_vector(start, dim=s.dim))
            if not _domain_contains_raw(domain, starts[-1], MEMBERSHIP_TOL):
                raise DomainError(f"starting point {starts[-1]} lies outside the mapping domain")
        x = np.array(starts)
    stack = [np.array([getattr(s.op, f) for s in spec]).reshape(*x.shape, -1) for f in _STACKED.get(type(op), ())]
    # sums and products of entries >= 0 are >= 0 or nan, and a nan image is `bad`, which ranks
    # first: a stacked batch on the orthant whose fields and starts are >= 0 cannot escape it
    closed = (bool(stack) and domain.kind == "cone" and domain.cone.kind == ORTHANT
              and (x >= 0.0).all() and all((a >= 0.0).all() for a in stack))
    # each orbit's (points, norms, residuals) chunks, and its verdict
    chunks, verdict = [[] for _ in spec], [MAX_ITER_REACHED] * len(spec)
    # norms of the `window` points before the block's start, +inf before x_0;
    # a window longer than the budget could never look back far enough
    window = min(cfg.window, cfg.max_iter + 1)
    recent = np.full((len(spec), window), np.inf)
    n0, k, cuts = 0, BLOCK_FIRST, _verdict_cuts(space, cfg) if verdicts else None
    rows = max(BLOCK_CAP, BLOCK_COORDS // op.dim) if stack else BLOCK_CAP
    with np.errstate(all="ignore"):
        while n0 < cfg.max_iter:
            # the recurrence alone, k steps at a time and at most `rows` rows in all, as k + 1
            # slabs (orbits, dim, 1); an error is held until the rules below
            # show that no earlier step ends the orbit
            k = max(1, min(k, cfg.max_iter - n0, rows // len(live)))
            slabs = np.empty((k + 1, len(live), op.dim, 1))
            xs = slabs[..., 0].swapaxes(0, 1)  # one row of k + 1 points per orbit
            xs[:, 0] = x
            held, m = None, k  # steps with a next point
            if len(stack) == 1:  # adds in order: the bits of x + shift, step by step
                slabs[1:] = stack[0]
                np.add.accumulate(slabs, out=slabs)
            elif stack:  # one product per orbit: the bits of matrix @ x + offset
                (a, b), add, matmul = stack, np.add, np.matmul
                for y, y1 in zip(slabs, slabs[1:]):
                    add(matmul(a, y, y1), b, y1)
            else:
                for j in range(k):
                    try:  # the live rows in one call; a lone orbit's point by the 1-D call, which costs less
                        xs[:, j + 1] = op.evaluate(xs[:, j] if len(live) > 1 else xs[0, j])
                    except Exception as exc:  # each orbit's own 1-D call names its error, or gives its image
                        held = [exc] if len(live) == 1 else [None] * len(live)
                        for r in range(len(live)) if len(live) > 1 else ():
                            try:
                                xs[r, j + 1] = op.evaluate(xs[r, j])
                            except Exception as own:
                                held[r] = own
                        held, m = (held, j) if any(held) else (None, k)
                        if held:
                            break

            # the stopping rules, one row per orbit; an orbit's first step where one fires ends it, and
            # within a step they rank nonfinite, escape, converged, growth; each point is the image of the
            # one before. `norms` holds the start's and the points'; a record keeps the start's at n0 = 0
            pts = xs[:, 1 : m + 1]
            diff = pts - xs[:, :m]
            fires = np.empty((len(live), m + 1), bool)  # per orbit, the first step where a rule fires, or m
            fires[:, m] = True
            if verdicts:  # from power sums; the point norms only if a point can pass the threshold
                norms, bad = _verdict_rules(space, diff, xs[:, : m + 1], cuts, cfg.residual_tol, fires[:, :m])
            else:
                res, norms = _row_norms(space, diff), _row_norms(space, xs[:, : m + 1])
                bad = ~(res < np.inf)  # only a residual that is not < inf can come from a non-finite image
                if np.count_nonzero(bad):
                    bad[bad] = ~np.isfinite(pts[bad]).all(axis=-1)
                np.logical_or(bad, res <= cfg.residual_tol, out=fires[:, :m])
            esc = bad if closed else ~_domain_contains_raw(domain, pts, 1e-9)
            if not closed:
                fires[:, :m] |= esc
            halt, grow = fires.argmax(axis=1).tolist(), [m] * len(live)
            if norms is None:  # no growth; the next window, in place: the tail of this one, then -inf a point
                recent[:, : max(window - m, 0)] = recent[:, m:]
                recent[:, max(window - m, 0) :] = -np.inf
            else:
                recent = np.concatenate((recent, norms), axis=1)
                np.logical_and(norms[:, 1:] > cfg.bound_threshold, norms[:, 1:] > recent[:, 1 : m + 1], out=fires[:, :m])
                grow, recent = fires.argmax(axis=1).tolist(), recent[:, m : m + window]
            on = [r for r, (j, g) in enumerate(zip(halt, grow)) if j == g == m and not (held and held[r])]
            # a verdict needs only the orbits that stop; a record takes every orbit's chunk
            for r in range(len(live)) if not verdicts else sorted(set(range(len(live))) - set(on)):
                i, j, g = live[r], halt[r], grow[r]
                keep = nres = m  # new points and residuals that stay in the record
                if j < m and j <= g:
                    keep, nres = j, j + 1
                    if esc[r, j] and not bad[r, j]:
                        raise DomainError(f"map escaped its domain at step {n0 + j}: image {pts[r, j]}")
                    verdict[i] = NONFINITE if bad[r, j] else CONVERGED
                elif g < m:  # the last point's residual is taken below
                    keep = nres = g + 1
                    verdict[i] = UNBOUNDED_SUSPECTED
                elif held and held[r]:
                    raise held[r]
                if not verdicts:
                    chunks[i].append((xs[r, min(n0, 1) : keep + 1], norms[r, min(n0, 1) : keep + 1], res[r, :nres]))
            if not on:
                break
            if len(on) < len(live):  # the orbits that ran through go on
                live, stack = [live[r] for r in on], [a[on] for a in stack]
            # exact norms of their last two residuals and points, from a copy of their last three
            # points, size the next block, which keeps no array of this one alive
            last = xs[on, max(m - 2, 0) : m + 1]
            both = _row_norms(space, np.concatenate((last[:, 1:] - last[:, :-1], last[:, -2:]), axis=1))
            n0, x, recent = n0 + m, last[:, -1], recent[on]
            k = _next_block(m, both[:, :-2], both[:, -2:], cfg, bool(stack))
            res = norms = both = None

        if verdicts:
            return verdict
        out = []
        for s, parts, v in zip(spec, chunks, verdict):
            pts, norms, residuals = map(np.concatenate, zip(*parts))
            if v in (MAX_ITER_REACHED, UNBOUNDED_SUSPECTED):
                tx = s.op.evaluate(pts[-1])
                residuals = np.append(residuals, _row_norms(space, (tx - pts[-1])[None, None]))
            up, down = _step_flags(pts, s.domain.cone)
            order = INCREASING if up.all() else DECREASING if down.all() else NEITHER
            out.append(OrbitRecord(pts, residuals, norms, up, down, order, v))
    return out


def picard_orbit(spec: MappingSpec, x0, space: SpaceSpec, cfg: IterationConfig | None = None) -> OrbitRecord:
    """Iterate x_{n+1} = T x_n until the residual drops below tolerance, the
    growth detector fires, or the iteration budget runs out."""
    return _orbit([spec], [x0], space, cfg or IterationConfig())[0]


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
