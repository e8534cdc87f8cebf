"""Launcher of the ``serve`` workload's server process.

Starts a ``PredictionServer`` on 127.0.0.1 with default shard, batch and
linger settings, prints ``PORT <n>`` once it listens, and serves until
its standard input closes.  It then stops the server and writes a JSON
report to ``--out``: peak RSS and, with ``--trace``, the per-layer
metrics and per-request handle times recorded by the span recorder,
which it installs before the first request.  The spans go to
``.perfbench/spans-serve-server.jsonl``.

Run:  python -m perfbench.serve_host --out report.json [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from perfbench.common import WORK, peak_rss_mb


async def serve(args, recorder) -> dict:
    from repro.serving.server import PredictionServer
    from repro.sim.native import native_available

    native_available()
    before = None
    if recorder is not None:
        from perfbench import tracer

        before = tracer.program_counters()
    server = PredictionServer()
    await server.start()
    print(f"PORT {server.address[1]}", flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    await server.stop()
    report = {"peak_rss_mb": peak_rss_mb(), "traced": recorder is not None}
    if recorder is not None:
        recorder.enabled = False
        layers = tracer.layer_metrics(recorder)
        layers.update(tracer.counter_metrics(before, tracer.program_counters()))
        report["layers"] = layers
        report["handle_by_rid"] = recorder.handle_by_rid
        recorder.dump(WORK / "spans-serve-server.jsonl")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    recorder = None
    if args.trace:
        import repro.serving.server  # noqa: F401  (aliases must exist first)
        from perfbench import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    report = asyncio.run(serve(args, recorder))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
