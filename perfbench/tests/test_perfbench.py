"""Tests of the benchmark itself: contract, recorder, seeding and the
correctness gate.

Run:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run, tracer, workloads
from perfbench.common import ROOT, benchmark_spec, child_env, load_pins, quartiles

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_follows_its_contract():
    spec = benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOAD_CLASSES)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    seen = set(names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["name"] not in seen
        seen.add(metric["name"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_offered_rate_is_recorded_in_benchmark_json():
    serve = next(w for w in benchmark_spec()["workloads"] if w["name"] == "serve")
    assert f"{workloads.OFFERED_RPS} requests/s" in serve["why"]


def test_end_to_end_metrics_are_the_ones_benchmark_json_names():
    fake = {"samples": {"pass_s": [1.0, 2.0, 1.5]}, "peak_rss_mb": 100.0}
    computed = run.end_to_end([0.5, 0.6, 0.7], fake)
    assert set(computed) == {m["name"] for m in benchmark_spec()["end_to_end"]}
    for metric in benchmark_spec()["end_to_end"]:
        assert computed[metric["name"]]["unit"] == metric["unit"]
    assert computed["setup_s"]["value"] == 0.6
    assert computed["pass_s"]["value"] == 1.25


def test_every_per_layer_metric_is_produced():
    recorder = tracer.Recorder()
    produced = set(tracer.layer_metrics(recorder))
    produced |= set(tracer.counter_metrics(
        {"traces.cache_hits": 0, "parallel.retries": 0, "parallel.serial_cells": 0,
         "fused_cells": 0, "fallback_cells": 0},
        {"traces.cache_hits": 1, "parallel.retries": 0, "parallel.serial_cells": 0,
         "fused_cells": 3, "fallback_cells": 1},
    ))
    from repro.experiments.runner import EXPERIMENTS

    produced |= {f"experiments.{name}_s" for name in EXPERIMENTS}
    produced |= {"paper.generic_share", "native.available", "tracing.overhead_share",
                 "serving.wait_p50_ms", "serving.wait_p99_ms", "serve.requests",
                 "serve.failed", "serve.gen_late_p99_ms"}
    assert {m["name"] for m in benchmark_spec()["per_layer"]} == produced


def test_result_line_reports_failures():
    spec = benchmark_spec()
    record = {"trace": False, "correct": False, "attempted": 10, "failed": 1,
              "end_to_end": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}}
    line = run.result_line(record, spec)
    assert line["correct"] is False and line["failed"] == 1
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}


# -- statistics ------------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    stats = quartiles([4.0, 1.0, 3.0, 2.0])
    assert (stats["q1"], stats["median"], stats["q3"]) == (1.75, 2.5, 3.25)
    assert stats["n"] == 4
    assert quartiles([2.0, 1.0])["q1"] == 1.25
    assert quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


# -- span recorder ---------------------------------------------------------------


def test_self_time_excludes_children_and_totals_skip_nesting():
    recorder = tracer.Recorder()

    def leaf():
        sum(range(20000))

    inner = recorder.wrap("inner", leaf)

    def outer_body(depth):
        inner()
        if depth:
            outer(depth - 1)

    outer = recorder.wrap("outer", outer_body)
    outer(1)
    outer_stats = recorder.layers["outer"]
    inner_stats = recorder.layers["inner"]
    assert outer_stats.calls == 2 and outer_stats.outer_calls == 1
    assert inner_stats.calls == 2
    outermost = max(span[3] - span[2] for span in recorder.spans if span[1] == "outer")
    assert outer_stats.total_s == pytest.approx(outermost)
    assert outer_stats.self_s == pytest.approx(
        outer_stats.total_s - inner_stats.total_s, abs=1e-6)
    by_id = {span[0]: span for span in recorder.spans}
    assert all(by_id[s[4]][1] == "outer" for s in recorder.spans if s[1] == "inner")


def test_disabled_recorder_records_nothing():
    recorder = tracer.Recorder()
    recorder.enabled = False
    assert recorder.wrap("x", lambda: 3)() == 3
    assert not recorder.spans and not recorder.layers


def test_install_rebinds_aliases_imported_by_name():
    # In a subprocess: install mutates the loaded repro modules.
    code = (
        "from perfbench import tracer\n"
        "import repro.experiments.runner\n"
        "import repro.experiments.table2 as t2, repro.sim.engine as e\n"
        "import repro.serving.server as srv, repro.serving.protocol as p\n"
        "r = tracer.Recorder(); tracer.install(r)\n"
        "assert t2.simulate is e.simulate and hasattr(e.simulate, '__perfbench_original__')\n"
        "assert srv.decode_request is p.decode_request\n"
        "from repro.sim.config import make_predictor\n"
        "from repro.traces.synthetic.workloads import ibs_trace\n"
        "t2.simulate(make_predictor('bimodal:64'), ibs_trace('groff', 0.005))\n"
        "assert r.layers['sim.engine'].calls == 1 and r.counts['sim.engine.branches'] > 0\n"
    )
    env = child_env(REPRO_TRACE_CACHE="off")
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120)


# -- seeds -----------------------------------------------------------------------


def test_default_seed_keeps_the_paper_configs_and_others_reseed():
    from repro.traces.synthetic.workloads import ibs_workload

    config = ibs_workload("groff")
    assert workloads.reseed(config, workloads.DEFAULT_SEED) is config
    assert workloads.reseed(config, 3).seed != config.seed
    assert workloads.reseed(config, 3) == workloads.reseed(config, 3)
    assert workloads.reseed(config, 3).seed != workloads.reseed(config, 4).seed


def test_session_plan_is_set_by_the_seed():
    default = workloads.session_plan(48, workloads.DEFAULT_SEED)
    assert [index for index, _, _ in default] == list(range(48))
    assert workloads.session_plan(48, 5) == workloads.session_plan(48, 5)
    assert workloads.session_plan(48, 5) != workloads.session_plan(48, 6)
    for plan in (default, workloads.session_plan(48, 5)):
        specs = [spec for _, spec, _ in plan]
        assert all(specs.count(spec) == 16 for spec in workloads.SERVE_SPECS)
        assert {connection for _, _, connection in plan} == {0, 1}


# -- correctness gate ---------------------------------------------------------------


def test_sweep_pins_cover_the_grid():
    pins = load_pins()["sweep"]["cells"]
    assert len(pins) == 6 * sum(
        len(workloads.SWEEP_SCHEMES) * len(sizes) for _, sizes, _ in workloads.SWEEP_GROUPS)
    for name, spec in workloads.SWEEP_REFERENCE_SAMPLE:
        assert f"{name}|{spec}" in pins


def test_sweep_check_fails_on_a_corrupted_pin():
    pins = load_pins()
    cells = {key: tuple(value) for key, value in pins["sweep"]["cells"].items()}
    workload = workloads.SweepWorkload(workloads.DEFAULT_SEED, pins)
    assert workload._check(dict(cells)) == 0
    key = sorted(cells)[0]
    pins["sweep"]["cells"][key] = [cells[key][0], cells[key][1] + 1]
    corrupted = workloads.SweepWorkload(workloads.DEFAULT_SEED, pins)
    assert corrupted._check(dict(cells)) == 1


def _corrupt(tmp_path, section, key, field):
    pins = load_pins()
    entry = pins[section][field][key]
    if isinstance(entry, str):
        pins[section][field][key] = entry[::-1]
    else:
        pins[section][field][key] = [entry[0] + 1] + entry[1:]
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    return path


@pytest.mark.parametrize("workload,key,field", [
    ("paper", "table2", "reports"),
    ("serve", "groff/0", "tenants"),
])
def test_worker_fails_a_corrupted_pin(tmp_path, workload, key, field):
    pins = _corrupt(tmp_path, workload, key, field)
    out = tmp_path / "out.json"
    env = child_env(REPRO_TRACE_CACHE=str(tmp_path / "traces"))
    args = ["--workload", workload, "--seconds", "0", "--out", str(out)]
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from perfbench import common, worker\n"
        f"common.PINS_PATH = Path({str(pins)!r})\n"
        f"sys.exit(worker.main({args!r}))\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=ROOT, check=True, timeout=170, stdout=subprocess.DEVNULL,
    )
    result = json.loads(out.read_text())
    failed = result["samples"]["failed"] + result["reference"]["failed"]
    assert failed >= 1
    assert any(key in error for error in result["errors"])


def test_a_lost_serve_connection_counts_its_requests_as_failed():
    workload = workloads.ServeWorkload(workloads.DEFAULT_SEED, None)
    workload.schedule = [0] * 10

    def phase_a(samples):
        samples.attempted += 3
        raise ConnectionError("server closed the connection")

    samples = workloads.Samples()
    assert workload._replay(phase_a, samples) is False
    assert (samples.attempted, samples.failed) == (10, 7)
    assert workload.errors
    workload.loop.close()


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
