"""Run one benchmark workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper|sweep|serve|all
        [--seed N] [--seconds S] [--trace 0|1] [--record-pins]

Builds the native backend into ``.perfbench/`` if it is not built yet,
times the workload's set-up several times (each a fresh process with an
empty trace cache), runs the workload's passes in such processes (``serve``
replays for ``--seconds``), checks its outputs, writes a run record under
``.perfbench/records/`` and prints every metric by name and unit.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.

Exits 0 when every output was correct, 1 when a check failed and 2 when
the checkout lacks the program (``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench.common import (  # noqa: E402
    ROOT,
    WORK,
    WORKLOADS,
    benchmark_spec,
    checkout_ok,
    child_env,
    python_cmd,
    quartiles,
)
from perfbench.workloads import WORKLOAD_CLASSES  # noqa: E402

#: Set-ups timed per untraced run (``setup_s`` is their median).  A
#: workload with fewer workers makes up the rest with set-up-only runs.
SETUP_SAMPLES = 3

#: Seconds all of one workload's workers may take together, counted from
#: the first one's launch; a worker still running then is killed, so a run
#: ends within 180 s once the native backend is built.
WORKLOAD_LIMIT_S = 160.0


def build_native() -> Dict[str, object]:
    """Build (or find) the native backend in the benchmark's cache."""
    started = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.sim.native import native_available; "
         "sys.exit(0 if native_available() else 3)"],
        env=child_env(),
        cwd=ROOT,
        timeout=600,
        check=False,
    )
    return {"native_available": probe.returncode == 0,
            "build_s": time.perf_counter() - started}


def run_worker(workload: str, args, out: Optional[Path], deadline: float):
    """Run one worker with a fresh, empty trace cache.

    Returns ``(set-up seconds or None, exit code)``.  Set-up is timed from
    launch to the worker's ``READY`` line; a worker still running at
    ``deadline`` (a ``time.perf_counter()`` reading) is killed.  Without
    ``out`` the worker stops after set-up.
    """
    cache = WORK / "traces" / uuid.uuid4().hex
    command = ["--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    command += ["--out", str(out)] if out is not None else ["--setup-only"]
    if args.trace:
        command.append("--trace")
    if args.record_pins:
        command.append("--record-pins")
    started = time.perf_counter()
    process = subprocess.Popen(
        python_cmd("perfbench.worker", *command),
        stdout=subprocess.PIPE,
        env=child_env(REPRO_TRACE_CACHE=str(cache)),
        cwd=ROOT,
        text=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - started), process.kill)
    watchdog.start()
    setup_s = None
    try:
        for line in process.stdout:
            if line.strip() == "READY":
                setup_s = time.perf_counter() - started
                break
        process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
        shutil.rmtree(cache, ignore_errors=True)
    return setup_s, code


def fingerprint() -> Dict[str, object]:
    """The machine and toolchain a run measured."""
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for module in ("numpy", "cffi"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    try:
        gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True,
                             timeout=10, check=False).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        gcc = None
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, check=False)
        commit = probe.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "gcc": gcc,
            "git_commit": commit, **versions}


def end_to_end(setups: List[float], result: dict) -> Dict[str, dict]:
    """The BENCHMARK.json end-to-end metrics: each ``value`` with its spread."""
    setup = quartiles(setups)
    passes = quartiles(result["samples"]["pass_s"])
    return {
        "setup_s": {"unit": "s", "value": setup["median"], **setup},
        # Other tenants of a shared host only ever slow a pass down, and a
        # run's passes fall into a fast and a slow state; the lower quartile
        # follows the fast one, where the median flips between the two.
        "pass_s": {"unit": "s", "value": passes["q1"], **passes},
        "peak_rss_mb": {"unit": "MB", "value": result["peak_rss_mb"],
                        "median": result["peak_rss_mb"], "n": 1},
    }


def named_metrics(workload: str, setups: List[float], result: dict) -> Dict[str, dict]:
    """The workload's own metrics, by the names README.md defines."""
    samples = result["samples"]
    attempted = samples["attempted"] + result["reference"]["attempted"]
    failed = samples["failed"] + result["reference"]["failed"]
    named = {
        "setup_s": {"unit": "s", **quartiles(setups)},
        "failed_share": {"unit": "ratio", "median": failed / max(1, attempted),
                         "n": attempted},
        "peak_rss_mb": {"unit": "MB", "median": result["peak_rss_mb"], "n": 1},
    }
    from repro.serving.loadgen import percentile

    if workload == "paper":
        named["paper_s"] = {"unit": "s", **quartiles(samples["pass_s"])}
    elif workload == "sweep":
        for group in ("small", "large"):
            named[f"sweep_{group}_br_per_s"] = {
                "unit": "1/s", **quartiles(samples["series"][f"{group}_br_per_s"])}
    else:
        ops = samples["latency_s"]
        named["serve_br_per_s"] = {"unit": "1/s",
                                   **quartiles(samples["series"]["serve_br_per_s"])}
        if ops:
            named["serve_p50_ms"] = {"unit": "ms", "median": percentile(ops, 0.5) * 1e3,
                                     "n": len(ops)}
            named["serve_p99_ms"] = {"unit": "ms", "median": percentile(ops, 0.99) * 1e3,
                                     "n": len(ops)}
    return named


def pool(results: List[dict]) -> dict:
    """One result from several workers' (their samples side by side)."""
    merged = dict(results[-1])
    samples = {key: [] for key in ("pass_s", "latency_s", "late_s")}
    samples.update(attempted=0, failed=0, invalid_passes=0, series={})
    reference = {"attempted": 0, "failed": 0}
    errors: List[str] = []
    for result in results:
        for key, value in result["samples"].items():
            if key == "series":
                for name, values in value.items():
                    samples["series"].setdefault(name, []).extend(values)
            else:
                samples[key] += value
        for key in reference:
            reference[key] += result["reference"][key]
        errors += result["errors"]
    merged.update(samples=samples, reference=reference, errors=errors,
                  peak_rss_mb=max(result["peak_rss_mb"] for result in results))
    return merged


def run_workload(workload: str, args) -> dict:
    """Set up, run and check one workload; returns its run record.

    Untraced, the workload runs in its ``workers`` fresh processes, one
    after another; each times its own set-up, then makes one pass
    (``serve``: replays for ``--seconds``).
    """
    workers = 1 if args.trace or args.record_pins else WORKLOAD_CLASSES[workload].workers
    deadline = time.perf_counter() + WORKLOAD_LIMIT_S
    setups: List[float] = []
    results: List[dict] = []
    if not (args.trace or args.record_pins):
        for _ in range(SETUP_SAMPLES - workers):
            seconds, code = run_worker(workload, args, None, deadline)
            if seconds is None or code != 0:
                raise RuntimeError(f"{workload} set-up failed (exit {code})")
            setups.append(seconds)
    for _ in range(workers):
        out = WORK / f"result-{workload}-{uuid.uuid4().hex}.json"
        seconds, code = run_worker(workload, args, out, deadline)
        if seconds is None or code != 0 or not out.exists():
            raise RuntimeError(f"{workload} worker failed (exit {code})")
        setups.append(seconds)
        results.append(json.loads(out.read_text(encoding="utf-8")))
        out.unlink()
    if args.record_pins:
        return {"workload": workload, "record_pins": results[0].get("record_pins")}
    result = pool(results)

    samples = result["samples"]
    errors = list(result["errors"])
    attempted = samples["attempted"] + result["reference"]["attempted"]
    failed = samples["failed"] + result["reference"]["failed"]
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "fingerprint": fingerprint(),
        "compiler_info": result.get("compiler_info"),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "character": result.get("character", {}),
        "setup_samples_s": setups,
        "samples": samples,
        "named_metrics": named_metrics(workload, setups, result),
        "end_to_end": end_to_end(setups, result),
    }
    if args.trace:
        layers = result["layers"]
        # The traced pass runs warm: compare it with the warm untraced ones.
        untraced = quartiles(samples["pass_s"][1:] or samples["pass_s"])["median"]
        layers["tracing.overhead_share"] = result["trace_pass_s"] / untraced - 1.0
        layers["native.available"] = float(result["native_available"])
        if workload != "paper" and layers.get("sim.engine.calls", 0):
            errors.append(f"{workload} ran the generic interpreter "
                          f"{layers['sim.engine.calls']:.0f} times")
        record["per_layer"] = layers
    record["correct"] = failed == 0 and not errors
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / f"{stamp}-{workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    record["path"] = str(path.relative_to(ROOT))
    return record


def print_record(record: dict) -> None:
    """Human-readable lines: every metric by name and unit."""
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name, metric in record["named_metrics"].items():
        spread = ""
        if "q1" in metric:
            spread = f" (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g})"
        print(f"  {name:<24} {metric['median']:>14.6g} {metric['unit']:<6}"
              f" n={metric['n']}{spread}")
    for name, value in sorted(record.get("per_layer", {}).items()):
        print(f"  {name:<40} {value:>14.6g}")
    if record["workload"] == "serve":
        samples = record["samples"]
        print(f"  phase B passes dropped as invalid (generator late): "
              f"{samples['invalid_passes']}"
              + ("; no latency reported" if not samples["latency_s"] else ""))
    for key, value in record.get("character", {}).items():
        print(f"  {key}: {value}")
    for error in record["errors"][:10]:
        print(f"  ERROR {error.splitlines()[0]}")
    print(f"  record: {record['path']}")


def result_line(record: dict, spec: dict) -> dict:
    """The final JSON object for one workload."""
    metrics = {}
    if record["trace"]:
        for metric in spec["per_layer"]:
            value = record["per_layer"].get(metric["name"], 0.0)
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    else:
        for metric in spec["end_to_end"]:
            value = record["end_to_end"][metric["name"]]["value"]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repro benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true",
                        help="write this commit's outputs (seed 0) as the pins")
    args = parser.parse_args(argv)
    if not checkout_ok():
        print("perfbench: no src/repro here; run from the root of a repro checkout",
              file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.record_pins and (args.seed != 0 or args.trace):
        parser.error("--record-pins needs --seed 0 --trace 0")
    WORK.mkdir(parents=True, exist_ok=True)
    build = build_native()
    print(f"perfbench: native backend available={build['native_available']} "
          f"({build['build_s']:.2f}s to build or load)")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for workload in workloads:
        try:
            record = run_workload(workload, args)
        except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if args.record_pins:
            if record["record_pins"] != 0:
                return 1
            continue
        print_record(record)
        lines.append(result_line(record, spec))
    if args.record_pins:
        return 0
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{w}.{name}": metric for w, line in zip(workloads, lines)
                        for name, metric in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
