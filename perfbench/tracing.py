"""Spans and counters for the traced run, recorded from outside the package.

The tracer replaces a function attribute of a module with a wrapper that
records a span (name, start, end, parent, run id) and the counts it reads
from the returned object, then puts every original back in ``restore``. The
campaign workloads wrap the names that ``orderfp.harness`` imported by name,
so only the calls harness makes are seen; calls inside the other layers go to
their own module globals and are not wrapped. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from orderfp import harness, space
from orderfp.iterate import MAX_ITER_REACHED

LAYERS = ("iterate", "mapping", "order", "asymcenter", "space")  # harness is the caller


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, 0.0, 0.0, parent, self.run_id)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Route ``owner.attr`` through a span; ``count(result, args, kwargs)``
        returns the counts kept with the span."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    record.counts["error"] = type(exc).__name__
                    raise
            if count is not None:
                record.counts.update(count(result, args, kwargs))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, workload_name: str) -> None:
        """Wrap the calls the workload makes into the layers."""
        owner, calls = (space, SPACE_CALLS) if workload_name == "geometry" else (harness, HARNESS_CALLS)
        for attr, (name, count) in calls.items():
            self.wrap(owner, attr, name, count)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(asdict(record)) + "\n")


def _orbit_counts(record, args, kwargs):
    cfg = args[4] if len(args) > 4 else kwargs.get("cfg")
    return {
        "steps": len(record.residuals),  # one map evaluation per residual
        "verdict": record.verdict,
        "max_iter": cfg.max_iter if cfg is not None else None,
    }


def _report_counts(report, args, kwargs):
    return {"pairs": report.samples, "violations": len(report.violations)}


def _iterations(result, args, kwargs):
    return {"iterations": result.iterations}


def _points(found, args, kwargs):
    return {"points": len(found)}


# harness name -> (span name, counts read from the returned object)
HARNESS_CALLS = {
    "run_suites": ("harness.run_suites", None),
    "picard_orbit": ("iterate.picard_orbit", _orbit_counts),
    "check_orbit_monotone": ("iterate.check_orbit_monotone", None),
    "is_alpha_nonexpansive": ("mapping.verifier", _report_counts),
    "is_monotone_nonexpansive": ("mapping.verifier", _report_counts),
    "fixed_point_oracle": ("mapping.fixed_point_oracle", _points),
    "apply_map": ("mapping.apply_map", None),
    "sample_domain_point": ("mapping.sample_domain_point", None),
    "leq": ("order.leq", None),
    "is_norm_monotonic": ("order.is_norm_monotonic", _report_counts),
    "solve_asym_center": ("asymcenter.solve_asym_center", _iterations),
    "problem_from_orbit": ("asymcenter.problem_from_orbit", None),
    "asymptotic_radius": ("asymcenter.radius", None),
    "center_feasible": ("asymcenter.radius", None),
    "norm": ("space.norm", None),
}

# the space calls the geometry workload makes
SPACE_CALLS = {
    "modulus_of_convexity": ("space.modulus_of_convexity", None),
    "check_convexity_inequality": ("space.check_convexity_inequality", None),
}


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span], run_id: int, wall: float) -> dict[str, float]:
    """Per-layer numbers of one pass, from its spans and its traced wall time."""
    mine = [(i, s) for i, s in enumerate(spans) if s.run_id == run_id]
    by_name: dict[str, list[Span]] = {}
    for _, s in mine:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, []))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, []))

    m: dict[str, float] = {}
    orbits = by_name.get("iterate.picard_orbit", [])
    steps = total("iterate.picard_orbit", "steps")
    wasted = escalations = 0
    for cur, nxt in zip(orbits, orbits[1:]):
        # harness retries an inconclusive orbit once with a ten-fold budget
        budget = cur.counts.get("max_iter")
        if cur.counts.get("verdict") == MAX_ITER_REACHED and budget and (
            nxt.counts.get("max_iter") == 10 * budget
        ):
            escalations += 1
            wasted += cur.counts["steps"]
    orbit_ms = [1e3 * s.duration for s in orbits]
    m["iterate.orbit_calls"] = len(orbits)
    m["iterate.orbit_steps"] = steps
    m["iterate.orbit_s"] = busy("iterate.picard_orbit")
    m["iterate.step_us"] = 1e6 * _ratio(m["iterate.orbit_s"], steps)
    m["iterate.orbit_ms_p50"] = _quantile(orbit_ms, 0.5)
    m["iterate.orbit_ms_p90"] = _quantile(orbit_ms, 0.9)
    m["iterate.escalations"] = escalations
    m["iterate.useful_step_frac"] = _ratio(steps - wasted, steps)
    m["iterate.chain_calls"] = calls("iterate.check_orbit_monotone")
    m["iterate.chain_s"] = busy("iterate.check_orbit_monotone")

    m["mapping.verifier_calls"] = calls("mapping.verifier")
    m["mapping.verifier_pairs"] = total("mapping.verifier", "pairs")
    m["mapping.verifier_s"] = busy("mapping.verifier")
    m["mapping.pair_us"] = 1e6 * _ratio(m["mapping.verifier_s"], m["mapping.verifier_pairs"])
    m["mapping.verifier_violations"] = total("mapping.verifier", "violations")
    m["mapping.oracle_calls"] = calls("mapping.fixed_point_oracle")
    m["mapping.oracle_s"] = busy("mapping.fixed_point_oracle")
    m["mapping.oracle_points"] = total("mapping.fixed_point_oracle", "points")
    m["mapping.oracle_empty"] = sum(
        1 for s in by_name.get("mapping.fixed_point_oracle", []) if s.counts.get("points") == 0
    )
    m["mapping.apply_calls"] = calls("mapping.apply_map")
    m["mapping.apply_s"] = busy("mapping.apply_map")
    m["mapping.sample_s"] = busy("mapping.sample_domain_point")

    m["order.norm_monotonic_calls"] = calls("order.is_norm_monotonic")
    m["order.norm_monotonic_s"] = busy("order.is_norm_monotonic")
    m["order.leq_calls"] = calls("order.leq")
    m["order.leq_s"] = busy("order.leq")

    m["asymcenter.solve_calls"] = calls("asymcenter.solve_asym_center")
    m["asymcenter.solve_s"] = busy("asymcenter.solve_asym_center")
    m["asymcenter.radius_s"] = busy("asymcenter.radius")
    m["asymcenter.iterations"] = total("asymcenter.solve_asym_center", "iterations")

    modulus_ms = [1e3 * s.duration for s in by_name.get("space.modulus_of_convexity", [])]
    ineq_us = [1e6 * s.duration for s in by_name.get("space.check_convexity_inequality", [])]
    m["space.modulus_calls"] = len(modulus_ms)
    m["space.modulus_s"] = busy("space.modulus_of_convexity")
    m["space.modulus_ms_p50"] = _quantile(modulus_ms, 0.5)
    m["space.modulus_ms_p90"] = _quantile(modulus_ms, 0.9)
    m["space.ineq_calls"] = len(ineq_us)
    m["space.ineq_s"] = busy("space.check_convexity_inequality")
    m["space.ineq_us_p50"] = _quantile(ineq_us, 0.5)
    m["space.ineq_us_p90"] = _quantile(ineq_us, 0.9)
    m["space.norm_calls"] = calls("space.norm")
    m["space.norm_s"] = busy("space.norm")

    # self time of each harness.run_suites span: its duration minus its children
    roots = {i for i, s in mine if s.name == "harness.run_suites"}
    child_time = sum(s.duration for _, s in mine if s.parent in roots)
    m["harness.self_s"] = busy("harness.run_suites") - child_time

    # share of the pass spent in each layer; wrapped calls never nest, so
    # their spans do not overlap
    for layer in LAYERS:
        layer_time = sum(s.duration for _, s in mine if s.name.startswith(layer + "."))
        m[f"{layer}.wall_frac"] = _ratio(layer_time, wall)
    m["harness.wall_frac"] = _ratio(m["harness.self_s"], wall)
    return m
