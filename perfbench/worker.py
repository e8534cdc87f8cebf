"""The process that does one workload's work; started by ``run.py``.

It sets up, prints ``READY`` on standard output (``run.py`` times set-up
from launch to that line), runs the timed passes, makes the reference
checks and writes what it measured as JSON to ``--out``.  With
``--setup-only`` it stops after ``READY``; with ``--trace`` it makes two
untraced passes (``serve``: replays for half the budget, at least two),
then one pass with the span recorder on, and writes the spans to
``.perfbench/spans-<workload>.jsonl``.
With ``--record-pins`` it runs one pass and writes that pass's outputs,
once the reference checks pass, as the workload's pins (``pins.json``).

Run:  python -m perfbench.worker --workload sweep --seed 0 --seconds 10 --out r.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback

from perfbench import common
from perfbench.workloads import WORKLOAD_CLASSES, Samples


def _versions() -> dict:
    from repro.sim.native import compiler_info, native_available

    return {"compiler_info": compiler_info(), "native_available": native_available()}


def _record_pins(workload) -> int:
    samples = Samples()
    if workload.name == "serve":
        workload.phase_a(samples)
    else:
        workload.run_pass(samples)
    _, failed = workload.finish()
    if failed:
        print("reference checks failed; pins not written", file=sys.stderr)
        return 1
    path = common.PINS_PATH
    pins = common.load_pins() if path.exists() else {}
    pins[workload.name] = workload.pins_record()
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {workload.name} outputs in {path}", file=sys.stderr)
    return 0


def run(args) -> dict:
    pins = None if args.record_pins else common.load_pins()
    workload = WORKLOAD_CLASSES[args.workload](args.seed, pins)
    recorder = None
    if args.trace:
        from perfbench import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
        counters = tracer.program_counters()
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return {}
    if args.record_pins:
        try:
            code = _record_pins(workload)
        finally:
            workload.close()
        return {"record_pins": code}

    out: dict = {"errors": workload.errors}
    try:
        if recorder is not None:
            recorder.enabled = False
            layers = tracer.counter_metrics(counters, tracer.program_counters())
            # The first pass in a process runs cold; the overhead compares
            # the traced pass with the warm untraced ones.
            samples = workload.measure(args.seconds / 2, passes=2)
            counters = tracer.program_counters()
            extra = workload.traced_pass(recorder, samples)
            tracer.merge(layers, tracer.counter_metrics(counters, tracer.program_counters()))
            tracer.merge(layers, tracer.layer_metrics(recorder))
            tracer.merge(layers, extra)
            out["layers"] = layers
            out["trace_pass_s"] = recorder.counts["trace.pass_s"]
            recorder.dump(common.WORK / f"spans-{args.workload}.jsonl")
        else:
            samples = workload.measure(args.seconds)
        out["samples"] = dataclasses.asdict(samples)
        out["reference"] = dict(zip(("attempted", "failed"), workload.finish()))
        out["character"] = workload.character()
        out.update(_versions())
    finally:
        workload.close()
    out["peak_rss_mb"] = workload.peak_rss_mb()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-pins", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        out = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle)
    return out.get("record_pins", 0)


if __name__ == "__main__":
    sys.exit(main())
