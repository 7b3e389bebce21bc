"""Self-tests of the benchmark.  Run from the repository root with::

    python3 -m pytest perfbench -q

They drive the real command in fresh processes (about two minutes in
all), plus one in-process round to show the output check can fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from hostspeed import REF_SLICE_S, HostProbe  # noqa: E402
from tracing import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
_cache = {}


def bench(workload: str, trace: int, fresh: bool = False) -> dict:
    """The result object of one one-second run (cached unless ``fresh``)."""
    key = (workload, trace)
    if fresh or key not in _cache:
        proc = subprocess.run(
            [
                sys.executable, "perfbench/run.py",
                "--workload", workload,
                "--seed", str(SEED),
                "--seconds", "1",
                "--trace", str(trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if fresh:
            return result
        _cache[key] = result
    return _cache[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_emits_every_named_metric_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared_metrics("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def _counts(metrics: dict) -> dict:
    """The per-layer metrics that are functions of the inputs alone."""
    return {
        name: m["value"]
        for name, m in metrics.items()
        if m["unit"] not in ("s", "ms") and name != "bench.trace_overhead_frac"
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly_across_runs(workload):
    first = _counts(bench(workload, 1)["metrics"])
    second = _counts(bench(workload, 1, fresh=True)["metrics"])
    assert first == second
    for name in run.EXACT:
        assert name in first


def test_check_rejects_one_corrupted_expected_get():
    workload = WORKLOADS["svc-mixed-uniform"]
    state = workload.setup(SEED)
    drive = workload.drive(state, None)
    reads = workload.read_back(state)
    assert workload.check(state, drive, reads) == []
    expected = state["expected"]
    i = len(expected) // 2
    expected[i] = b"corrupted" if expected[i] is None else expected[i][::-1] + b"!"
    problems = workload.check(state, drive, reads)
    assert len(problems) == 1 and ("timed get #%d " % i) in problems[0]


def test_self_time_subtracts_direct_children():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()
            return 5

        def inner(self):
            return None

    layer = Layer()
    rec = SpanRecorder()
    rec.wrap(layer, "inner", "t.inner")
    rec.wrap(layer, "outer", "t.outer", keep=int)
    assert layer.outer() == 5
    rec.unwrap_all()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)
    cols = rec.arrays()
    assert cols["parent"].tolist() == [-1, 0, 0]
    duration = cols["end"] - cols["start"]
    assert cols["self_s"][0] == pytest.approx(duration[0] - duration[1] - duration[2])
    summary = rec.summary()
    assert summary["t.inner"]["calls"] == 2
    assert summary["t.outer"]["value"] == 5.0


@pytest.mark.parametrize("kind", ["python", "numpy"])
def test_host_factors_scale_blocks_and_items(kind):
    probe = HostProbe(kind)
    for _ in range(3):
        probe.lap()
    probe.finish()
    # Replace the measured slices and blocks with known ones.
    probe.slices = [REF_SLICE_S, 2 * REF_SLICE_S, 2 * REF_SLICE_S]
    probe.blocks = [1.0, 2.0, 4.0]
    # Medians of the edge-padded windows [1,1,1,2,2], [1,1,2,2,2], [1,2,2,2,2].
    assert probe.factors().tolist() == pytest.approx([1.0, 2.0, 2.0])
    assert probe.scaled_total() == pytest.approx(1.0 + 1.0 + 2.0)
    items = probe.scale_items([1.0, 1.0, 4.0, 4.0, 6.0], every=2)
    assert items.tolist() == pytest.approx([1.0, 1.0, 2.0, 2.0, 3.0])
