"""Load generator: the six IBS workloads as interleaved client sessions.

Each IBS-clone trace is dealt round-robin into ``sessions_per_workload``
interleaved sub-streams (:meth:`repro.traces.trace.Trace.stride_split`),
every sub-stream becomes one tenant, and the generator then interleaves
*across* all tenants in fixed-size chunks — the serving layer's worst
case: many concurrent clients, none of them ever long enough on the wire
to fill a batch alone.

Reported the way iobs reports per-job latency/IOPS tables:

- **p50/p99 batch latency** — wall-clock of each ``events`` request
  (buffer + possible flush through the fast engines), measured with
  ``perf_counter`` around the dispatcher;
- **sustained branches/s** — total events over total replay wall-clock,
  including every flush and the final close barriers;
- **per-tenant parity** — after the replay, every tenant's cumulative
  (conditional_branches, mispredictions) and final state digest are
  checked against a serial :func:`simulate_fast` run over that tenant's
  own sub-trace.  A gap means the serving layer broke bit-identity and
  fails the benchmark (``bench_engine.py --quick`` gates CI on it).
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.serving.server import PredictionService
from repro.sim.config import make_predictor
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast
from repro.traces.synthetic.workloads import IBS_BENCHMARKS, ibs_trace
from repro.traces.trace import Trace

__all__ = ["run_loadgen", "percentile", "main"]


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def _split_sessions(
    scale: float, sessions_per_workload: int
) -> List[Tuple[str, Trace]]:
    """(session-id, sub-trace) pairs across all six IBS workloads."""
    sessions: List[Tuple[str, Trace]] = []
    for benchmark in IBS_BENCHMARKS:
        trace = ibs_trace(benchmark, scale=scale)
        for i, part in enumerate(trace.stride_split(sessions_per_workload)):
            sessions.append((f"{benchmark}/{i}", part))
    return sessions


def run_loadgen(
    spec: str = "gshare:4K:h12",
    scale: float = 0.05,
    sessions_per_workload: int = 8,
    chunk: int = 64,
    batch_size: Optional[int] = None,
    verify: bool = True,
) -> Dict[str, object]:
    """Replay the interleaved IBS sessions; return the report dict.

    ``chunk`` is how many events one client ships per turn of the
    round-robin — smaller chunks mean more interleaving pressure (every
    tenant's batch fills slowly, across many turns).
    """
    sessions = _split_sessions(scale, sessions_per_workload)
    service = PredictionService(batch_size=batch_size)
    for session, _ in sessions:
        response = service.handle(
            {"op": "open", "session": session, "spec": spec}
        )
        assert response["ok"], response

    cursors = [0] * len(sessions)
    events_total = 0
    latencies: List[float] = []
    started = time.perf_counter()
    live = True
    while live:
        live = False
        for index, (session, trace) in enumerate(sessions):
            lo = cursors[index]
            if lo >= len(trace):
                continue
            live = True
            hi = min(lo + chunk, len(trace))
            payload = [
                [int(trace.pcs[j]), int(trace.takens[j]), int(trace.conditionals[j])]
                for j in range(lo, hi)
            ]
            cursors[index] = hi
            events_total += len(payload)
            t0 = time.perf_counter()
            response = service.handle(
                {"op": "events", "session": session, "events": payload}
            )
            latencies.append(time.perf_counter() - t0)
            assert response["ok"], response
    finals: Dict[str, Dict[str, object]] = {}
    for session, _ in sessions:
        t0 = time.perf_counter()
        stats = service.handle({"op": "sync", "session": session})
        latencies.append(time.perf_counter() - t0)
        digest = PredictorState.capture(
            service.shard.tenant(session).predictor
        ).digest()
        finals[session] = {
            "conditional_branches": stats["conditional_branches"],
            "mispredictions": stats["mispredictions"],
            "digest": digest,
        }
    elapsed = time.perf_counter() - started

    parity_gaps: List[str] = []
    if verify:
        for session, trace in sessions:
            predictor = make_predictor(spec)
            result = simulate_fast(predictor, trace, label=spec)
            expected = {
                "conditional_branches": result.conditional_branches,
                "mispredictions": result.mispredictions,
                "digest": PredictorState.capture(predictor).digest(),
            }
            if finals[session] != expected:
                parity_gaps.append(session)

    return {
        "spec": spec,
        "scale": scale,
        "sessions": len(sessions),
        "sessions_per_workload": sessions_per_workload,
        "chunk": chunk,
        "batch_size": service.shard.batch_size,
        "events": events_total,
        "flushes": service.shard.flushes,
        "elapsed_s": elapsed,
        "branches_per_s": events_total / elapsed if elapsed > 0 else 0.0,
        "p50_batch_latency_s": percentile(latencies, 0.50),
        "p99_batch_latency_s": percentile(latencies, 0.99),
        "parity_gaps": parity_gaps,
        "per_tenant": finals,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; exits non-zero on any tenant parity gap."""
    parser = argparse.ArgumentParser(
        description="Replay the IBS workloads as interleaved serving sessions"
    )
    parser.add_argument("--spec", default="gshare:4K:h12")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--sessions", type=int, default=8,
                        help="sessions per workload (6 workloads)")
    parser.add_argument("--chunk", type=int, default=64)
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument("--no-verify", action="store_true")
    args = parser.parse_args(argv)
    report = run_loadgen(
        spec=args.spec,
        scale=args.scale,
        sessions_per_workload=args.sessions,
        chunk=args.chunk,
        batch_size=args.batch,
        verify=not args.no_verify,
    )
    report.pop("per_tenant")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 1 if report["parity_gaps"] else 0


if __name__ == "__main__":  # pragma: no cover — CLI entry
    raise SystemExit(main())
