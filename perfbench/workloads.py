"""The three workloads of the benchmark and the checks on their outputs.

A workload turns the benchmark seed into a short cycle of pass inputs. One
pass is one call of ``run`` (the timed part); ``check`` then judges its
output (untimed) and returns an ``Outcome``. A pass input recurs each time
the cycle comes round, so every run also checks that the same input gives
the same output. The timed passes of a run come in whole rounds of
``passes_per_round``, so that the share of failed units does not depend on
how many passes fit in the time.

- family: the t34 zero-orbit family at the size of acceptance criterion 5,
  one campaign seed per pass. Almost all of its time is Picard stepping.
- scenarios: the scenario campaigns (t32, t33, t41-44, c45-46), one
  campaign seed per pass from a cycle of twelve consecutive seeds: many short
  orbits in d <= 2, sampled verifiers, order checks, oracles and centre
  solves.
- geometry: the modulus of convexity on the 101-point epsilon grid at
  p = 1.5, 2, 3, 4 and criterion-2-style convexity tuples at p = 1.5, 2, 3,
  in dims 2 and 5, one p per pass. The only workload that exercises
  ``space``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from orderfp import harness, space
from reference import modulus_reference

HERE = Path(__file__).resolve().parent
EXPECTED_SUMMARIES = json.loads((HERE / "expected_summaries.json").read_text(encoding="utf-8"))
# the summaries recorded in expected_summaries.json belong to this benchmark seed
DEFAULT_SEED = 0


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)  # anything that makes the run incorrect
    fingerprint: object = None  # equal inputs must give equal fingerprints
    modulus_failed: dict[float, int] = field(default_factory=dict)
    group: object = None  # passes of one group do the same work


class _Campaign:
    """Workloads that run ``harness.run_suites`` for one campaign seed a pass
    and judge its reports."""

    name = ""
    suites: list[str] = []
    config: dict = {}
    passes_per_cycle = 1
    passes_per_round = 1

    def inputs(self, seed: int) -> list[int]:
        """Campaign seeds of the cycle; disjoint between benchmark seeds."""
        return [seed * self.passes_per_cycle + k for k in range(self.passes_per_cycle)]

    def run(self, campaign_seed: int, out_dir: Path):
        # the attribute lookup at call time lets the tracer wrap run_suites
        return harness.run_suites(self.suites, self.config, campaign_seed, out_dir)

    def check(self, campaign_seed: int, result, out_dir: Path, seed: int) -> Outcome:
        reports, rows = result
        attempted, failed = self.count(reports, rows)
        problems = [
            f"seed {campaign_seed}: {rep.campaign}/{rep.scenario_id}/{c.name} failed"
            for rep in reports for c in rep.checks if not c.passed
        ]
        digest = hashlib.sha256((out_dir / "summary.txt").read_bytes()).hexdigest()
        expected = EXPECTED_SUMMARIES[self.name].get(str(campaign_seed)) if seed == DEFAULT_SEED else None
        if expected is not None and expected != digest:
            problems.append(f"seed {campaign_seed}: summary.txt sha256 {digest} != recorded {expected}")
        return Outcome(attempted, failed, problems, fingerprint=digest)

    def count(self, reports, rows) -> tuple[int, int]:
        raise NotImplementedError


class Family(_Campaign):
    """Unit: one family trial; it fails when its verdict disagrees with the oracle."""

    name = "family"
    suites = ["t34"]
    config = {
        "family": {
            "dims": [2, 5, 20],
            "rhos": [0.5, 0.8, 0.95],
            "n_per_cell": 11,
            "translations_per_dim": 2,
            "include_identity_edge": True,
        },
        "iteration": {"max_iter": 100_000, "residual_tol": 1e-10, "bound_threshold": 1e4, "window": 50},
    }
    passes_per_cycle = 8

    def count(self, reports, rows):
        return len(rows), sum(1 for r in rows if not r.agree)


class Scenarios(_Campaign):
    """Unit: one campaign check."""

    name = "scenarios"
    suites = ["t32", "t33", "t41-44", "c45-46"]
    passes_per_cycle = 12

    def count(self, reports, rows):
        checks = [c for rep in reports for c in rep.checks]
        return len(checks), sum(1 for c in checks if not c.passed)


MODULUS_PS = (1.5, 2.0, 3.0, 4.0)
INEQUALITY_PS = (1.5, 2.0, 3.0)
INEQUALITY_DIMS = (2, 5)
TUPLES_PER_CELL = 5000  # 30,000 tuples a cycle of p, half of criterion 2
EPS_GRID = np.linspace(0.0, 2.0, 101)
MODULUS_TOL = 1e-6
# Modulus values that raise or miss the reference by more than MODULUS_TOL at
# the commit that defined this benchmark, with OpenBLAS on one thread. p = 4
# is the multi-start SLSQP defect (17 raise, 9 miss); at p = 3 the value at
# eps = 2 is 1 - 1.19e-6 (1 - 5.7e-7 with OpenBLAS threads).
# More failures than these make the run incorrect; fewer are fine.
KNOWN_MODULUS_FAILURES = {1.5: 0, 2.0: 0, 3.0: 1, 4.0: 26}


@dataclass
class GeometryInput:
    order: list[tuple[float, float]]  # (p, eps) in evaluation order
    tuples: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def _lp_norms(v: np.ndarray, p: float) -> np.ndarray:
    return np.sum(np.abs(v) ** p, axis=1) ** (1.0 / p)


class Geometry:
    name = "geometry"
    passes_per_cycle = 8  # each p twice
    # a round covers every p once: the p = 3 and p = 4 failures then make
    # the same share of every run's units
    passes_per_round = len(MODULUS_PS)

    def inputs(self, seed: int) -> list[GeometryInput]:
        """Per pass, one p: its modulus grid in shuffled order and, for p in
        INEQUALITY_PS, tuples (x, y, lam, r) per dim drawn as in acceptance
        criterion 2, with x, y in the ball of radius r and every tenth
        lam = 1/2. Four passes cover the whole grid."""
        out = []
        for k in range(self.passes_per_cycle):
            p = MODULUS_PS[k % len(MODULUS_PS)]
            rng = np.random.default_rng([seed, k])
            order = [(p, float(e)) for e in rng.permutation(EPS_GRID)]
            tuples = []
            for dim in INEQUALITY_DIMS if p in INEQUALITY_PS else ():
                n = TUPLES_PER_CELL
                r = rng.uniform(0.5, 4.0, size=n)
                u = rng.normal(size=(n, dim))
                v = rng.normal(size=(n, dim))
                x = u / _lp_norms(u, p)[:, None] * (r * rng.uniform(size=n))[:, None]
                y = v / _lp_norms(v, p)[:, None] * (r * rng.uniform(size=n))[:, None]
                lam = rng.uniform(size=n)
                lam[::10] = 0.5
                tuples.append((p, dim, x, y, lam, r))
            out.append(GeometryInput(order, tuples))
        return out

    def run(self, inp: GeometryInput, out_dir: Path):
        spaces = {p: space.SpaceSpec(dim=2, p=p) for p in MODULUS_PS}
        values: dict[tuple[float, float], object] = {}
        for p, eps in inp.order:
            try:
                values[(p, eps)] = space.modulus_of_convexity(spaces[p], eps)
            except Exception as exc:  # a raising value is a failed unit, not a crash
                values[(p, eps)] = type(exc).__name__
        profiles = {}
        for p in INEQUALITY_PS:
            deltas = [values.get((p, float(e))) for e in EPS_GRID]
            if all(isinstance(d, float) for d in deltas):  # else p's tuples cannot run
                below = np.nonzero(np.asarray(deltas) <= 1e-8)[0]
                profiles[p] = space.ConvexityProfile(
                    p=p, epsilons=EPS_GRID, deltas=np.asarray(deltas),
                    eps0=float(EPS_GRID[below[-1]]) if below.size else 0.0, zero_tol=1e-8,
                )
        holds = []
        for p, dim, x, y, lam, r in inp.tuples:
            if p not in profiles:
                holds.append(None)
                continue
            sp = space.SpaceSpec(dim=dim, p=p)
            holds.append([
                space.check_convexity_inequality(sp, x[i], y[i], float(lam[i]), float(r[i]),
                                                 delta_fn=profiles[p].delta_at)
                for i in range(len(r))
            ])
        return values, holds

    def check(self, inp: GeometryInput, result, out_dir: Path, seed: int) -> Outcome:
        values, holds = result
        outcome = Outcome(attempted=0, failed=0, fingerprint=(sorted(values.items()), holds))
        failed_by_p = dict.fromkeys({p for p, _ in values}, 0)
        for (p, eps), value in values.items():
            if not isinstance(value, float) or abs(value - modulus_reference(p, eps)) > MODULUS_TOL:
                failed_by_p[p] += 1
        outcome.modulus_failed = failed_by_p
        outcome.group = inp.order[0][0]
        outcome.attempted += len(values)
        outcome.failed += sum(failed_by_p.values())
        for p, count in failed_by_p.items():
            if count > KNOWN_MODULUS_FAILURES[p]:
                outcome.problems.append(
                    f"p={p}: {count} modulus values fail, {KNOWN_MODULUS_FAILURES[p]} known"
                )
        for (p, dim, *_, r), cell in zip(inp.tuples, holds):
            outcome.attempted += len(r)
            bad = len(r) if cell is None else sum(1 for ok in cell if not ok)
            outcome.failed += bad
            if bad:
                outcome.problems.append(f"p={p} dim={dim}: {bad} convexity tuples violated")
        return outcome


WORKLOADS = {w.name: w for w in (Family(), Scenarios(), Geometry())}
