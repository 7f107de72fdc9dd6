"""Tests of the benchmark itself: tracing changes no output, every wrapped
name is put back, the closed-form reference is right, and a checkout without
the package is refused.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from orderfp import harness, space  # noqa: E402
from reference import modulus_reference  # noqa: E402
from tracing import HARNESS_CALLS, SPACE_CALLS, Tracer  # noqa: E402
from run import MIN_PASSES, Runner  # noqa: E402
from workloads import WORKLOADS, GeometryInput, Outcome  # noqa: E402


def _run_twice(workload, inp, tmp_path):
    """Untraced, then traced, on the same input; returns both outcomes."""
    plain = workload.run(inp, tmp_path / "plain")
    tracer = Tracer()
    tracer.install(workload.name)
    try:
        traced = workload.run(inp, tmp_path / "traced")
    finally:
        tracer.restore()
    assert tracer.spans, "the traced run recorded no span"
    return plain, traced


@pytest.mark.parametrize("name", ["family", "scenarios"])
def test_tracing_keeps_summary_bytes(name, tmp_path):
    workload = WORKLOADS[name]
    _run_twice(workload, workload.inputs(0)[0], tmp_path)
    plain = (tmp_path / "plain" / "summary.txt").read_bytes()
    traced = (tmp_path / "traced" / "summary.txt").read_bytes()
    assert plain == traced


def test_tracing_keeps_modulus_values(tmp_path):
    inputs = WORKLOADS["geometry"].inputs(0)
    p3 = next(i for i in inputs if i.order[0][0] == 3.0)
    p4 = next(i for i in inputs if i.order[0][0] == 4.0)
    few = GeometryInput(p3.order, [(p, d, x[:50], y[:50], lam[:50], r[:50]) for p, d, x, y, lam, r in p3.tuples])
    for inp in (few, p4):
        plain, traced = _run_twice(WORKLOADS["geometry"], inp, tmp_path)
        assert plain == traced
    assert any(isinstance(v, str) for v in plain[0].values()), "p = 4 raised nowhere"


@pytest.mark.parametrize("owner,calls,workload", [
    (harness, HARNESS_CALLS, "scenarios"),
    (space, SPACE_CALLS, "geometry"),
])
def test_wrapped_names_are_restored(owner, calls, workload):
    originals = {attr: getattr(owner, attr) for attr in calls}
    tracer = Tracer()
    tracer.install(workload)
    try:
        assert all(getattr(owner, attr) is not originals[attr] for attr in calls)
        with pytest.raises(TypeError):
            getattr(owner, next(iter(calls)))()  # a traced call that raises
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is originals[attr] for attr in calls)
    assert tracer.spans[0].counts["error"] == "TypeError"


class _ThreeKinds:
    """Passes of three kinds, of which only the third has failed units."""

    name = "stub"
    passes_per_round = 3

    def inputs(self, seed):
        return [0, 1, 2]

    def run(self, inp, out_dir):
        return inp

    def check(self, inp, result, out_dir, seed):
        return Outcome(attempted=10, failed=3 if inp == 2 else 0, fingerprint=result)


def test_timed_passes_end_on_whole_rounds(tmp_path):
    runner = Runner(_ThreeKinds(), 0, tmp_path)
    runner.one_pass(0, 0, counted=False)
    plain, _ = runner.timed(0.0)
    assert len(plain) >= MIN_PASSES and len(plain) % 3 == 0
    # so the failed share is that of one round, however many rounds ran
    assert runner.attempted == 10 * len(plain)
    assert runner.failed * 30 == 3 * runner.attempted


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0, 1.7, 2.0])
def test_reference_modulus(eps):
    assert modulus_reference(2.0, eps) == pytest.approx(1.0 - (1.0 - eps * eps / 4.0) ** 0.5, abs=1e-15)
    p = 1.5
    delta = modulus_reference(p, eps)
    assert (1 - delta + eps / 2) ** p + abs(1 - delta - eps / 2) ** p == pytest.approx(2.0, abs=1e-12)
    # Hanner's equation at p just below 2 meets Clarkson's formula at p = 2
    assert modulus_reference(2.0 - 1e-9, eps) == pytest.approx(modulus_reference(2.0, eps), abs=1e-8)


def test_refuses_checkout_without_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "family", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
