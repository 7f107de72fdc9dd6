"""orderfp benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload family --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory. The run measures set-up (fresh interpreters
that only import orderfp), makes one untimed warm-up pass, then repeats
passes of the workload until ``--seconds`` are used, checking every output.
``attempted`` and ``failed`` count the units of the timed passes; the
warm-up pass is checked but not counted.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics: every other pass is traced, and the spans are written
to ``.perfbench_out/``.

End-to-end metrics: ``setup_s`` is the median wall time of a fresh
interpreter that only imports orderfp. ``wall_ref`` is the median pass time
divided by the time of ``reference_kernel`` run next to the pass (for
geometry, summed over the four p), and ``units_per_ref`` the units of such a
pass per kernel time; the raw ``wall_s`` and ``units_per_s`` are printed
beside them. ``pass_frac`` is the
share of units that did not fail (failed_frac = 1 - pass_frac) and
``peak_rss_mb`` the peak resident memory of the run process.
Human-readable lines come first; the last line of standard output is the
JSON result. The exit code is 1 when an output is wrong, 2 when the checkout
has no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# single-threaded BLAS, set before numpy loads: the OpenBLAS build would
# otherwise start a thread per core
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MIN_PASSES = 8  # two rounds of geometry


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _import_once(extra: list[str]) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", "import orderfp"],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return time.perf_counter() - start, proc.stderr


def _cumulative_us(importtime: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in importtime.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) == module:
            return float(m.group(1))
    return 0.0


def measure_setup(trace: bool) -> dict[str, float]:
    """Median over fresh interpreters; the first, untimed one compiles bytecode."""
    _import_once([])
    if not trace:
        return {"setup_s": statistics.median(_import_once([])[0] for _ in range(SETUP_REPEATS))}
    runs = [_import_once(["-X", "importtime"])[1] for _ in range(SETUP_REPEATS)]
    return {
        "setup.import_s": statistics.median(_cumulative_us(r, "orderfp") for r in runs) / 1e6,
        "setup.scipy_import_s": statistics.median(_cumulative_us(r, "scipy.optimize") for r in runs) / 1e6,
    }


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    # a checkout without git history is still identified by its sources
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_ENV,
    }


class Runner:
    """Runs passes of one workload and keeps what the checks found."""

    def __init__(self, workload, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.inputs = workload.inputs(seed)
        self.seen: dict[int, object] = {}  # input index -> fingerprint
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, k: int, i: int, tracer=None, counted: bool = True) -> tuple[float, object]:
        """Pass number ``k`` on input number ``i`` of the cycle; ``counted``
        adds its units to ``attempted`` and ``failed``."""
        i %= len(self.inputs)
        inp = self.inputs[i]
        start = time.perf_counter()
        if tracer is None:
            result = self.workload.run(inp, self.out_dir)
        else:
            tracer.run_id = k
            tracer.install(self.workload.name)
            try:
                with tracer.span(f"{self.workload.name}.pass"):
                    result = self.workload.run(inp, self.out_dir)
            finally:
                tracer.restore()
        wall = time.perf_counter() - start
        outcome = self.workload.check(inp, result, self.out_dir, self.seed)
        if i in self.seen and self.seen[i] != outcome.fingerprint:
            outcome.problems.append(f"pass input {i}: output differs from its earlier pass")
        self.seen.setdefault(i, outcome.fingerprint)
        self.problems += outcome.problems
        if counted:
            self.attempted += outcome.attempted
            self.failed += outcome.failed
        return wall, outcome

    def timed(self, seconds: float, tracer=None):
        """Passes after the warm-up until ``seconds`` are used, at least
        MIN_PASSES of each kind, in whole rounds of the workload's
        ``passes_per_round``. Untimed reference-kernel runs sit between the
        passes; each untraced pass keeps the mean of its two neighbours. With a
        tracer each input is run untraced and then traced, so that both kinds
        meet the same inputs and machine load. Returns the untraced passes as
        (number, wall, reference, outcome) and the traced ones as (number,
        wall, outcome)."""
        plain, traced = [], []
        start = time.perf_counter()
        before = reference_kernel()
        for j in itertools.count(1):
            k = j if tracer is None else 2 * j - 1
            wall, outcome = self.one_pass(k, j)
            after = reference_kernel()
            plain.append((k, wall, (before + after) / 2, outcome))
            before = after
            if tracer is not None:
                traced.append((k + 1, *self.one_pass(k + 1, j, tracer)))
            if len(plain) < MIN_PASSES or len(plain) % self.workload.passes_per_round:
                continue
            next_round = self.workload.passes_per_round * statistics.median(wall for _, wall, _, _ in plain)
            if time.perf_counter() - start + next_round > seconds:
                return plain, traced


def reference_kernel() -> float:
    """Seconds for a fixed loop of small numpy operations, the instruction mix
    of orbit stepping and sampled checks, about 20 ms on an idle core.

    On a machine whose cores are shared with other tenants, speed drifts
    within minutes (by up to a factor of two on a 2-vCPU VM). Pass times
    divided by this kernel's time, measured next to each pass, drift far
    less, so the bounded metrics are kept in these units."""
    import numpy as np

    a = np.full((3, 3), 0.3)
    b = np.ones(3)
    x = np.ones(3)
    start = time.perf_counter()
    for _ in range(3000):
        x = 0.5 * (a @ x) + b
        float(np.sum(np.abs(x) ** 2.0) ** 0.5)
    return time.perf_counter() - start


def end_to_end(passes) -> tuple[dict, list[str]]:
    walls = [wall for _, wall, _, _ in passes]
    attempted = sum(o.attempted for *_, o in passes)
    failed = sum(o.failed for *_, o in passes)
    q1, med, q3 = statistics.quantiles(walls, n=4)
    # a pass of geometry covers one p; summing the medians of the groups
    # gives the whole epsilon grid plus all tuples, whatever the mix of passes
    groups: dict[object, list[tuple[float, int, int]]] = {}
    for _, wall, ref, o in passes:
        groups.setdefault(o.group, []).append((wall / ref, o.attempted, o.failed))

    def summed(column: int) -> float:
        return sum(statistics.median(row[column] for row in g) for g in groups.values())

    metrics = {
        "wall_ref": summed(0),
        "units_per_ref": summed(1) / summed(0),
        "pass_frac": 1.0 - summed(2) / summed(1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ref_ms = 1e3 * statistics.median(ref for _, _, ref, _ in passes)
    notes = [
        f"wall_s {med:.4f} s (quartiles {q1:.4f} {q3:.4f}, n={len(walls)} passes)",
        f"units_per_s {statistics.median(o.attempted / wall for _, wall, _, o in passes):.6g} 1/s",
        f"reference kernel {ref_ms:.2f} ms (median)",
        f"failed_frac {1.0 - metrics['pass_frac']:.6g} ({failed} of {attempted} units failed in the run)",
    ]
    return metrics, notes


def per_layer(tracer, plain, traced) -> dict:
    from tracing import pass_metrics
    from workloads import MODULUS_PS

    per_pass = [pass_metrics(tracer.spans, k, wall) for k, wall, _ in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    # a geometry pass covers one p, so failures are counted per p, then summed
    failed = [o.modulus_failed for _, _, o in traced]
    for p in MODULUS_PS:
        runs = [f[p] for f in failed if p in f]
        metrics[f"space.modulus_failed.p{p:g}"] = statistics.median(runs) if runs else 0
    metrics["space.modulus_failed"] = sum(metrics[f"space.modulus_failed.p{p:g}"] for p in MODULUS_PS)
    metrics["trace.overhead_frac"] = (
        statistics.median(wall for _, wall, _ in traced)
        / statistics.median(wall for _, wall, _, _ in plain) - 1.0
    )
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "orderfp" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no orderfp package under {SRC} or no {spec_path.name}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    metrics = measure_setup(bool(args.trace))
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment()))

    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"{workload.name}-{os.getpid()}"
    runner = Runner(workload, args.seed, out_dir)
    try:
        runner.one_pass(0, 0, counted=False)  # warm-up, untimed; its output is still checked
        if not args.trace:
            plain, _ = runner.timed(args.seconds)
            found, notes = end_to_end(plain)
            metrics.update(found)
        else:
            from tracing import Tracer

            tracer = Tracer()
            plain, traced = runner.timed(args.seconds, tracer)
            metrics.update(per_layer(tracer, plain, traced))
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            notes = [f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark computed no value for {missing}", file=sys.stderr)
        return 2
    for m in wanted:
        print(f"{m['name']:<32} {metrics[m['name']]:>14.6g} {m['unit']}")
    for line in notes + [f"problem: {p}" for p in runner.problems[:20]]:
        print(line)
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
