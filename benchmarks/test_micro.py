"""Micro-benchmarks: throughput of the library's hot primitives.

These time the per-branch cost of each predictor and of the aliasing
instruments — useful when deciding how large a trace a study can afford,
and as a regression guard on the fused fast paths.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import BENCH_SCALE

from repro.aliasing.distance import LastUseDistanceTracker
from repro.core.skew import skew_f0, skew_f1, skew_f2
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import native_available, simulate_native
from repro.sim.vectorized import simulate_vectorized
from repro.traces.synthetic.workloads import ibs_trace

REPO_ROOT = Path(__file__).resolve().parent.parent

SPECS = [
    "bimodal:4k",
    "gshare:4k:h8",
    "gselect:4k:h8",
    "gskew:3x1k:h8:partial",
    "gskew:3x1k:h8:total",
    "egskew:3x1k:h8:partial",
    "hybrid:1k:h8",
    "fa:1k:h8",
    "unaliased:h8",
    "pas:1k/h6:4k",
]


@pytest.fixture(scope="module")
def trace():
    return ibs_trace("verilog", scale=BENCH_SCALE)


@pytest.mark.parametrize("spec", SPECS)
def test_predictor_throughput(benchmark, trace, spec):
    """Branches/second for each scheme (see ops in the benchmark table;
    one 'op' is a full trace pass)."""

    def run():
        predictor = make_predictor(spec)
        return simulate(predictor, trace)

    result = benchmark(run)
    assert result.conditional_branches == trace.conditional_count


VECTORIZED_SPECS = [
    "gshare:4k:h8",
    "gskew:3x1k:h8:partial",
    "egskew:3x1k:h8:partial",
]


@pytest.mark.parametrize("spec", VECTORIZED_SPECS)
def test_vectorized_engine_throughput(benchmark, trace, spec):
    """Branches/second on the index-precompute engine (compare against
    the same specs under ``test_predictor_throughput``)."""

    def run():
        return simulate_vectorized(make_predictor(spec), trace, label=spec)

    result = benchmark(run)
    assert result.conditional_branches == trace.conditional_count


NATIVE_SPECS = [
    "gshare:4k:h8",
    "gskew:3x1k:h8:total",
    "agree:4k:h8",
]


@pytest.mark.skipif(
    not native_available(), reason="native backend unavailable"
)
@pytest.mark.parametrize("spec", NATIVE_SPECS)
def test_native_engine_throughput(benchmark, trace, spec):
    """Branches/second on the native C walk (compare against the same
    specs under the generic and vectorized benchmarks above)."""

    def run():
        return simulate_native(make_predictor(spec), trace, label=spec)

    result = benchmark(run)
    assert result.conditional_branches == trace.conditional_count


def test_bench_engine_tool_smoke():
    """``tools/bench_engine.py`` runs end-to-end and the engines agree
    (exit status 1 flags a generic/vectorized mismatch)."""
    import json
    import os
    import tempfile

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "BENCH_engine.json"
        subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "bench_engine.py"),
                "--scale", "0.05",
                "--repeat", "1",
                "--jobs", "1", "2",
                "--out", str(out),
            ],
            env=env,
            check=True,
            capture_output=True,
            timeout=600,
        )
        report = json.loads(out.read_text(encoding="utf-8"))
    assert report["sweep"]["identical"]
    assert all(row["identical"] for row in report["engine"]["rows"])
    native_rows = report["native"]["rows"]
    assert all(row.get("identical", True) for row in native_rows)
    for row in native_rows:
        if not row.get("skipped"):
            assert {"precompute", "walk", "reduce"} <= set(row["stages_s"])


def test_skew_function_cost(benchmark):
    """Cost of evaluating the full f0/f1/f2 family per vector."""
    vectors = list(range(0, 1 << 16, 7))

    def run():
        total = 0
        for v in vectors:
            total += skew_f0(v, 10) ^ skew_f1(v, 10) ^ skew_f2(v, 10)
        return total

    benchmark(run)


def test_distance_tracker_throughput(benchmark, trace):
    """Fenwick-tree last-use-distance computation over a trace."""
    from repro.aliasing.three_cs import pair_stream

    pairs = list(pair_stream(trace, 8))

    def run():
        tracker = LastUseDistanceTracker(capacity=len(pairs))
        for pair in pairs:
            tracker.reference(pair)
        return tracker.distinct_keys

    benchmark(run)


def test_trace_generation_throughput(benchmark):
    """Cost of synthesising a fresh workload trace."""
    from repro.traces.synthetic.generator import WorkloadConfig, generate_trace

    def run():
        return generate_trace(
            WorkloadConfig(name="bench", seed=99, length=20_000)
        )

    result = benchmark(run)
    assert len(result) == 20_000
