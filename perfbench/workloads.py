"""The three benchmark workloads: ``paper``, ``sweep`` and ``serve``.

Each workload class sets up its inputs from the seed, runs passes over
them for a time budget, and checks every output it produced.  Why each
workload exists, and which layer each metric should move, is in
``perfbench/README.md``.

``pins`` is the parsed ``pins.json``, or None while recording pins (no
pin is compared then).  Interface shared by the three classes:

- ``setup()``: everything before the first timed operation;
- ``measure(seconds, passes=1)``: timed passes, returning a
  :class:`Samples`.  ``paper`` and ``sweep`` make exactly ``passes`` and
  ignore the budget, so what a pass means does not depend on how fast the
  program is; ``serve`` replays until the budget is spent (at least
  ``passes`` times);
- ``traced_pass(recorder, samples)``: one pass with the span recorder on;
  returns the per-layer metrics the worker's own recorder cannot see (the
  server's, for ``serve``) and counts its operations into ``samples``;
- ``finish()``: the reference checks made outside the timed phase, as
  ``(attempted, failed)``;
- ``character()``: facts recorded to show the workload kept its character;
- ``pins_record()``: the pinned outputs of the last pass;
- ``peak_rss_mb()``: peak RSS of the process doing the work;
- ``close()``: stop every process and connection the workload started.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.common import WORK, child_env, peak_rss_mb, python_cmd

#: Seed that runs the paper's own IBS-clone configurations; outputs for
#: it are pinned in ``pins.json``.  Any other seed re-seeds the traces and
#: checks outputs against the reference engines instead.
DEFAULT_SEED = 0


@dataclasses.dataclass
class Samples:
    """What a workload measured over its timed passes."""

    pass_s: List[float] = dataclasses.field(default_factory=list)
    #: phase B request latencies from their due times (``serve`` only)
    latency_s: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: workload-specific per-pass series (e.g. small-table branches/s)
    series: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    #: phase B passes dropped because the generator ran late
    invalid_passes: int = 0
    late_s: List[float] = dataclasses.field(default_factory=list)

    def add(self, key: str, value: float) -> None:
        self.series.setdefault(key, []).append(value)


def time_left(
    started: float, seconds: float, passes: Sequence[float], min_passes: int = 1
) -> bool:
    """Whether one more pass fits the budget (always true below ``min_passes``)."""
    if len(passes) < min_passes:
        return True
    elapsed = time.perf_counter() - started
    typical = sorted(passes)[len(passes) // 2]
    return elapsed + typical <= seconds


def reseed(config, seed: int):
    """``config`` with its generator seed moved by the benchmark seed."""
    if seed == DEFAULT_SEED:
        return config
    return dataclasses.replace(config, seed=config.seed + 1_000_000 * seed)


def _report(log: List[str], message: str) -> None:
    log.append(message)
    print(message, file=sys.stderr)


def _recorded_pass(workload, recorder, samples: Samples) -> float:
    """One ``run_pass`` with ``recorder`` on; returns the pass seconds.

    Its operations count into ``samples``; its timings do not.
    """
    traced = Samples()
    recorder.enabled = True
    try:
        workload.run_pass(traced)
    finally:
        recorder.enabled = False
    samples.attempted += traced.attempted
    samples.failed += traced.failed
    recorder.counts["trace.pass_s"] = traced.pass_s[0]
    return traced.pass_s[0]


class _PassWorkload:
    """What ``paper`` and ``sweep`` share: passes in the worker process."""

    def measure(self, seconds: float, passes: int = 1) -> Samples:
        samples = Samples()
        for _ in range(passes):
            self.run_pass(samples)
        return samples

    def traced_pass(self, recorder, samples: Samples) -> Dict[str, float]:
        _recorded_pass(self, recorder, samples)
        return {}

    def finish(self) -> Tuple[int, int]:
        return 0, 0

    def character(self) -> Dict[str, object]:
        return {}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass


# -- paper -------------------------------------------------------------------

#: Trace-length multiplier for the paper regeneration.  At this scale one
#: regeneration takes about 5 s on a 2-vCPU box, and the generic
#: interpreter still takes most of it, as it does at full scale.
PAPER_SCALE = 0.01


class PaperWorkload(_PassWorkload):
    """Regenerate every report of ``repro.experiments.runner.EXPERIMENTS``.

    The seed is ignored: every experiment fixes its own traces.
    """

    name = "paper"
    #: Worker processes per run.  Each makes one pass, as a user's run
    #: does: in a process that has just set up.  Five, because on a shared
    #: host a pass runs in a fast or a slow state, and ``pass_s`` needs
    #: enough of them to find the fast one.
    workers = 5

    def __init__(self, seed: int, pins: Optional[dict]):
        self.pins = pins["paper"] if pins is not None else None
        self.digests: Dict[str, str] = {}
        self.errors: List[str] = []

    def setup(self) -> None:
        from repro.experiments.runner import EXPERIMENTS  # noqa: F401
        from repro.sim.native import native_available
        from repro.traces.synthetic.workloads import (
            IBS_BENCHMARKS,
            SPEC_BENCHMARKS,
            ibs_trace,
        )

        native_available()
        for name in IBS_BENCHMARKS + SPEC_BENCHMARKS:
            ibs_trace(name, PAPER_SCALE)

    def run_pass(self, samples: Samples) -> None:
        from repro.experiments.runner import EXPERIMENTS, run_experiment

        started = time.perf_counter()
        for name in EXPERIMENTS:
            samples.attempted += 1
            try:
                report = run_experiment(name, scale=PAPER_SCALE, jobs=1)
            except Exception:
                samples.failed += 1
                _report(self.errors, f"paper: {name} raised\n{traceback.format_exc()}")
                continue
            digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
            self.digests[name] = digest
            if self.pins is not None and self.pins["reports"].get(name) != digest:
                samples.failed += 1
                _report(self.errors, f"paper: {name} report sha256 {digest} != pin")
        samples.pass_s.append(time.perf_counter() - started)

    def traced_pass(self, recorder, samples: Samples) -> Dict[str, float]:
        pass_s = _recorded_pass(self, recorder, samples)
        engine = recorder.layers.get("sim.engine")
        generic = engine.total_s if engine is not None else 0.0
        return {"paper.generic_share": generic / pass_s}

    def pins_record(self) -> dict:
        return {"scale": PAPER_SCALE, "reports": self.digests}


# -- sweep -------------------------------------------------------------------

#: Scheme templates (``{n}`` entries per bank, ``{h}`` history bits).
SWEEP_SCHEMES = (
    "gshare:{n}:h{h}",
    "bimodal:{n}",
    "gskew:3x{n}:h{h}:total",
    "gskew:3x{n}:h{h}:partial",
    "gskew:3x{n}:h{h}:lazy",
    "egskew:3x{n}:h{h}:partial",
)

#: (group, entries per bank, history bits).  Small tables fit L1 and pair
#: with a short history; the large one outgrows L2 (3 x 256K counters)
#: and pairs with a long history, as the paper's best history length
#: grows with table size.
SWEEP_GROUPS = (
    ("small", (64, 1024, 4096), 4),
    ("large", (262144,), 12),
)

#: Cells re-run on the generic reference engine after the timed phase,
#: as (trace, spec): every update policy and both groups, on the two
#: shortest traces so the check stays cheap.
SWEEP_REFERENCE_SAMPLE = (
    ("verilog", "gskew:3x256k:h12:partial"),
    ("mpeg_play", "egskew:3x64:h4:partial"),
    ("verilog", "gskew:3x4k:h4:lazy"),
    ("mpeg_play", "gskew:3x1k:h4:total"),
    ("verilog", "gshare:256k:h12"),
)


def sweep_group_specs(sizes: Sequence[int], history: int) -> Dict[str, List[str]]:
    """The ``sweep_specs`` series of one group: scheme -> spec per size."""
    from repro.sim.config import format_entries

    return {
        scheme: [scheme.format(n=format_entries(size), h=history) for size in sizes]
        for scheme in SWEEP_SCHEMES
    }


class SweepWorkload(_PassWorkload):
    """A Figure 5/6/7-shaped grid through ``sweep_specs(..., jobs=1)``."""

    name = "sweep"
    #: As for ``paper``, one cold pass per worker.  Fewer than ``paper``:
    #: a sweep pass varies less from host load, and costs more set-up.
    workers = 3

    def __init__(self, seed: int, pins: Optional[dict]):
        self.seed = seed
        self.pins = pins["sweep"] if pins is not None else None
        self.traces: list = []
        self.first: Optional[Dict[str, Tuple[int, int]]] = None
        self.tiers: Dict[str, int] = {}
        self.errors: List[str] = []

    def setup(self) -> None:
        from repro.sim.native import native_available
        from repro.sim.sweep import sweep_specs  # noqa: F401
        from repro.traces.cache import generate_trace_cached
        from repro.traces.synthetic.workloads import IBS_BENCHMARKS, ibs_workload

        native_available()
        self.traces = [
            generate_trace_cached(reseed(ibs_workload(name), self.seed))
            for name in IBS_BENCHMARKS
        ]
        for trace in self.traces:
            trace.sim_columns()

    def run_pass(self, samples: Samples) -> None:
        from repro.sim.sweep import sweep_specs

        cells: Dict[str, Tuple[int, int]] = {}
        tiers: Dict[str, int] = {}
        pass_s = 0.0
        for group, sizes, history in SWEEP_GROUPS:
            series = sweep_group_specs(sizes, history)
            count = len(series) * len(sizes)
            branches = 0
            group_s = 0.0
            for trace in self.traces:
                samples.attempted += count
                started = time.perf_counter()
                try:
                    grid = sweep_specs([trace], series, list(sizes), jobs=1)
                except Exception:
                    samples.failed += count
                    _report(self.errors, f"sweep: {trace.name} {group} raised\n"
                            f"{traceback.format_exc()}")
                    continue
                group_s += time.perf_counter() - started
                for per_trace in grid.series.values():
                    for result in per_trace[trace.name]:
                        key = f"{trace.name}|{result.predictor}"
                        cells[key] = (result.conditional_branches, result.mispredictions)
                        branches += result.conditional_branches
                        tiers[result.engine] = tiers.get(result.engine, 0) + 1
            samples.add(f"{group}_br_per_s", branches / group_s if group_s else 0.0)
            pass_s += group_s
        samples.pass_s.append(pass_s)
        samples.failed += self._check(cells)
        self.tiers = tiers

    def _check(self, cells: Dict[str, Tuple[int, int]]) -> int:
        """Mismatching cells against the pins (default seed) or pass 1."""
        if self.first is None:
            self.first = cells
            if self.seed != DEFAULT_SEED or self.pins is None:
                return 0
            expected = {key: tuple(value) for key, value in self.pins["cells"].items()}
        else:
            expected = self.first
        bad = [key for key in set(expected) | set(cells) if expected.get(key) != cells.get(key)]
        for key in sorted(bad)[:5]:
            _report(self.errors, f"sweep: cell {key} gave {cells.get(key)}, expected {expected.get(key)}")
        return len(bad)

    def finish(self) -> Tuple[int, int]:
        """Re-run a fixed sample of cells on the generic reference engine."""
        from repro.sim.config import make_predictor
        from repro.sim.engine import simulate

        traces = {trace.name: trace for trace in self.traces}
        failed = 0
        for name, spec in SWEEP_REFERENCE_SAMPLE:
            result = simulate(make_predictor(spec), traces[name], label=spec)
            want = (result.conditional_branches, result.mispredictions)
            got = (self.first or {}).get(f"{name}|{spec}")
            if got != want:
                failed += 1
                _report(self.errors, f"sweep: {name}|{spec} fast {got} != generic {want}")
        return len(SWEEP_REFERENCE_SAMPLE), failed

    def character(self) -> Dict[str, object]:
        from repro.sim.native import native_available

        return {"native_available": native_available(), "tiers": self.tiers}

    def pins_record(self) -> dict:
        cells = {key: list(value) for key, value in sorted((self.first or {}).items())}
        return {"seed": DEFAULT_SEED, "cells": cells}


# -- serve -------------------------------------------------------------------

SERVE_SCALE = 0.1
SESSIONS_PER_WORKLOAD = 8
CHUNK = 64
SERVE_SPECS = ("gshare:4K:h12", "gskew:3x1K:h8:partial", "bimodal:4K")
CONNECTIONS = 2
#: Phase B offered load, ``events`` requests per second over both
#: connections (about half the closed-loop rate measured at the commit
#: that defined the benchmark; BENCHMARK.json states it too).
OFFERED_RPS = 400
#: A phase B pass whose generator sends its p99 request later than this
#: after its due time is invalid: its latencies are dropped.  An idle
#: asyncio sleep loop on a 2-vCPU VM already runs about 3 ms late at p99
#: (millisecond epoll timeouts plus vCPU preemption), so the bound sits
#: above that; latencies are timed from the due time either way.
LATE_BOUND_MS = 10.0
#: Share of a worker's budget spent on phase A passes.
PHASE_A_SHARE = 0.75
#: Seconds any single serve step (a round, a barrier) may take.
STEP_TIMEOUT_S = 60.0


def session_plan(count: int, seed: int) -> List[Tuple[int, str, int]]:
    """``(session index, spec, connection)`` in replay order.

    The default seed keeps the sessions in workload order; any other
    seed shuffles them.  Specs and connections then cycle along that
    order, so the seed sets both the order and the spec of each session.
    """
    order = list(range(count))
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(order)
    return [
        (index, SERVE_SPECS[position % len(SERVE_SPECS)], position % CONNECTIONS)
        for position, index in enumerate(order)
    ]


def _line(message: dict) -> bytes:
    """One request line.  The generator encodes its own requests, so the
    server's ``encode_message`` spans count server-side work only."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


@dataclasses.dataclass
class Session:
    base: str
    spec: str
    connection: int
    trace: object
    chunks: List[list]


class ServeWorkload:
    """A ``PredictionServer`` in its own process, driven over 2 sockets."""

    name = "serve"
    #: One worker: its phase A replays are short, so one process makes
    #: many of them, and a second process would only add set-up time.
    workers = 1

    def __init__(self, seed: int, pins: Optional[dict]):
        self.seed = seed
        self.pins = pins["serve"] if pins is not None else None
        self.sessions: List[Session] = []
        self.schedule: List[int] = []  # global request order: session index
        self.chunk_of: List[int] = []
        self.loop = asyncio.new_event_loop()
        self.host: Optional[subprocess.Popen] = None
        self.host_out: Optional[Path] = None
        self.streams: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.round = 0
        #: phase A round whose sessions set-up already opened
        self.opened_round: Optional[str] = None
        self.finals: List[Dict[str, Tuple[int, int, str]]] = []
        self.host_results: List[dict] = []
        self.client_lat: Dict[str, float] = {}
        self.traced = False
        self.errors: List[str] = []
        self.failed = 0

    # set-up ---------------------------------------------------------------

    def setup(self) -> None:
        from repro.sim.native import native_available
        from repro.traces.cache import generate_trace_cached
        from repro.traces.synthetic.workloads import IBS_BENCHMARKS, ibs_workload

        native_available()
        bases = []
        for name in IBS_BENCHMARKS:
            config = reseed(ibs_workload(name), self.seed).scaled(SERVE_SCALE)
            trace = generate_trace_cached(config)
            for index, part in enumerate(trace.stride_split(SESSIONS_PER_WORKLOAD)):
                bases.append((f"{name}/{index}", part))
        for index, spec, connection in session_plan(len(bases), self.seed):
            base, part = bases[index]
            events = [
                list(event)
                for event in zip(
                    part.pcs.tolist(), part.takens.tolist(), part.conditionals.tolist()
                )
            ]
            chunks = [events[lo:lo + CHUNK] for lo in range(0, len(events), CHUNK)]
            self.sessions.append(Session(base, spec, connection, part, chunks))
        # Round-robin across sessions, one chunk per turn (the loadgen's
        # interleaving): every tenant's batch fills slowly.
        depth = max(len(session.chunks) for session in self.sessions)
        for turn in range(depth):
            for index, session in enumerate(self.sessions):
                if turn < len(session.chunks):
                    self.schedule.append(index)
                    self.chunk_of.append(turn)
        # The generator's own objects are set-up data: keep the cyclic
        # collector from pausing the open loop to scan them.
        gc.collect()
        gc.freeze()
        self.start_host(traced=False)
        self.opened_round = self._next_round("a")
        self._open(self.opened_round)

    def start_host(self, traced: bool) -> None:
        """Launch the server process and connect the generator to it."""
        WORK.mkdir(parents=True, exist_ok=True)
        self.host_out = WORK / f"serve-host-{time.time_ns()}.json"
        args = ["--out", str(self.host_out)]
        if traced:
            args.append("--trace")
        self.host = subprocess.Popen(
            python_cmd("perfbench.serve_host", *args),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        line = self.host.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"server host did not start: {line!r}")
        port = int(line.split()[1])
        self.traced = traced

        async def connect():
            return [
                await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
                for _ in range(CONNECTIONS)
            ]

        self.streams = self.loop.run_until_complete(connect())

    def stop_host(self) -> dict:
        """Close the connections, stop the server, return its report."""
        async def close_all():
            for _reader, writer in self.streams:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        if self.streams:
            self.loop.run_until_complete(close_all())
            self.streams = []
        report: dict = {}
        if self.host is not None:
            self.host.stdin.close()
            try:
                self.host.wait(timeout=STEP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.host.kill()
                self.host.wait()
            self.host.stdout.close()
            self.host = None
            if self.host_out is not None and self.host_out.exists():
                report = json.loads(self.host_out.read_text(encoding="utf-8"))
                self.host_out.unlink()
                self.host_results.append(report)
        return report

    # protocol helpers -----------------------------------------------------

    def _next_round(self, phase: str) -> str:
        self.round += 1
        return f"{phase}{self.round}"

    def _name(self, tag: str, session: Session) -> str:
        return f"{tag}:{session.base}"

    def _run(self, coro):
        return self.loop.run_until_complete(asyncio.wait_for(coro, STEP_TIMEOUT_S))

    async def _call(self, connection: int, message: dict) -> dict:
        reader, writer = self.streams[connection]
        writer.write(_line(message))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def _barrier(self, tag: str, op: str) -> Dict[str, dict]:
        """``op`` on every session of round ``tag``; responses by base."""
        async def per_connection(connection: int):
            out = {}
            for session in self.sessions:
                if session.connection == connection:
                    message = {"op": op, "session": self._name(tag, session)}
                    if op == "open":
                        message["spec"] = session.spec
                    out[session.base] = await self._call(connection, message)
            return out

        async def all_connections():
            parts = await asyncio.gather(*(per_connection(c) for c in range(CONNECTIONS)))
            merged = {}
            for part in parts:
                merged.update(part)
            return merged

        responses = self._run(all_connections())
        for base, response in responses.items():
            if not response.get("ok"):
                self.failed += 1
                _report(self.errors, f"serve: {op} {tag}:{base} refused: {response}")
        return responses

    def _open(self, tag: str) -> None:
        self._barrier(tag, "open")

    def _collect(self, tag: str, syncs: Dict[str, dict]) -> None:
        """Snapshot and close round ``tag``'s tenants; keep their finals."""
        snapshots = self._barrier(tag, "snapshot")
        self._barrier(tag, "close")
        finals = {}
        for session in self.sessions:
            sync = syncs.get(session.base, {})
            finals[session.base] = (
                sync.get("conditional_branches"),
                sync.get("mispredictions"),
                snapshots.get(session.base, {}).get("digest"),
            )
        self.finals.append(finals)

    def _events(self, tag: str, k: int) -> dict:
        session = self.sessions[self.schedule[k]]
        message = {
            "op": "events",
            "session": self._name(tag, session),
            "events": session.chunks[self.chunk_of[k]],
        }
        if self.traced:
            message["rid"] = f"{tag}.{k}"
        return message

    # phases -----------------------------------------------------------------

    def phase_a(self, samples: Samples) -> None:
        """One closed-loop replay: each connection waits for each reply."""
        tag = self.opened_round or self._next_round("a")
        if self.opened_round is None:
            self._open(tag)
        self.opened_round = None
        events = sum(len(session.trace) for session in self.sessions)

        async def closed_loop(connection: int) -> None:
            for k in range(len(self.schedule)):
                if self.sessions[self.schedule[k]].connection != connection:
                    continue
                message = self._events(tag, k)
                sent = time.perf_counter()
                response = await self._call(connection, message)
                if self.traced:
                    self.client_lat[message["rid"]] = time.perf_counter() - sent
                samples.attempted += 1
                if not response.get("ok"):
                    samples.failed += 1

        async def both():
            await asyncio.gather(*(closed_loop(c) for c in range(CONNECTIONS)))

        cpu_started = self._server_cpu_s()
        started = time.perf_counter()
        self._run(both())
        syncs = self._barrier(tag, "sync")
        elapsed = time.perf_counter() - started
        samples.pass_s.append(self._server_cpu_s() - cpu_started)
        samples.add("phase_a_wall_s", elapsed)
        samples.add("serve_br_per_s", events / elapsed)
        self._collect(tag, syncs)

    def _server_cpu_s(self) -> float:
        """CPU seconds (user + system, every thread) the server has used."""
        with open(f"/proc/{self.host.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def phase_b(self, samples: Samples) -> None:
        """One open-loop replay at :data:`OFFERED_RPS`, timed from due times."""
        tag = self._next_round("b")
        self._open(tag)
        latencies: List[float] = []
        lateness: List[float] = []
        interval = 1.0 / OFFERED_RPS
        start = time.perf_counter() + 0.01
        failed = 0

        async def sender(connection: int, pending: deque, done: asyncio.Event) -> None:
            writer = self.streams[connection][1]
            for k in range(len(self.schedule)):
                if self.sessions[self.schedule[k]].connection != connection:
                    continue
                due = start + k * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                message = self._events(tag, k)
                sent = time.perf_counter()
                writer.write(_line(message))
                pending.append((due, sent, message.get("rid")))
                lateness.append(sent - due)
                await writer.drain()
            done.set()

        async def receiver(connection: int, pending: deque, done: asyncio.Event) -> None:
            nonlocal failed
            reader = self.streams[connection][0]
            while not (done.is_set() and not pending):
                line = await reader.readline()
                received = time.perf_counter()
                if not line:
                    raise ConnectionError("server closed the connection")
                due, sent, rid = pending.popleft()
                latencies.append(received - due)
                if rid is not None:
                    self.client_lat[rid] = received - sent
                if not json.loads(line).get("ok"):
                    failed += 1

        async def both():
            tasks = []
            for connection in range(CONNECTIONS):
                pending: deque = deque()
                done = asyncio.Event()
                tasks.append(sender(connection, pending, done))
                tasks.append(receiver(connection, pending, done))
            await asyncio.gather(*tasks)

        self._run(both())
        samples.attempted += len(latencies)
        samples.failed += failed
        syncs = self._barrier(tag, "sync")
        self._collect(tag, syncs)
        late_p99 = sorted(lateness)[min(len(lateness) - 1, int(0.99 * len(lateness)))]
        samples.late_s.append(late_p99)
        if late_p99 * 1e3 > LATE_BOUND_MS:
            samples.invalid_passes += 1
            print(f"serve: phase B pass {tag} invalid, generator p99 lateness "
                  f"{late_p99 * 1e3:.2f} ms > {LATE_BOUND_MS} ms", file=sys.stderr)
            return
        samples.latency_s.extend(latencies)

    def _replay(self, phase, samples: Samples) -> bool:
        """Run one phase pass; False when the server dropped or stalled.

        A dropped connection or a step timeout ends the pass: its requests
        that got no reply (at least the one that failed) count as attempted
        and failed.
        """
        before = samples.attempted
        try:
            phase(samples)
            return True
        except (ConnectionError, TimeoutError) as exc:
            lost = max(1, len(self.schedule) - (samples.attempted - before))
            samples.attempted += lost
            samples.failed += lost
            _report(self.errors, f"serve: {phase.__name__} pass lost {lost} requests: "
                    f"{type(exc).__name__} {exc}")
            return False

    def measure(self, seconds: float, passes: int = 1) -> Samples:
        """Phase A for :data:`PHASE_A_SHARE` of the budget, phase B after.

        Phase A gets the larger share because its passes give the gated
        ``pass_s``; it makes at least ``passes`` replays and phase B at
        least one.  A lost connection ends the measurement.
        """
        samples = Samples()
        started = time.perf_counter()
        while time_left(started, seconds * PHASE_A_SHARE,
                        samples.series.get("phase_a_wall_s", []), passes):
            if not self._replay(self.phase_a, samples):
                return samples
        b_started = time.perf_counter()
        b_passes: List[float] = []
        while time_left(b_started, seconds - (b_started - started), b_passes):
            t0 = time.perf_counter()
            if not self._replay(self.phase_b, samples):
                return samples
            b_passes.append(time.perf_counter() - t0)
        return samples

    def traced_pass(self, recorder, samples: Samples) -> Dict[str, float]:
        """One phase A and one phase B pass against a traced server."""
        from repro.serving.loadgen import percentile

        self.stop_host()
        self.start_host(traced=True)
        traced = Samples()
        if self._replay(self.phase_a, traced):
            self._replay(self.phase_b, traced)
        report = self.stop_host()
        samples.attempted += traced.attempted
        samples.failed += traced.failed
        recorder.counts["trace.pass_s"] = traced.pass_s[0] if traced.pass_s else 0.0
        metrics = dict(report.get("layers", {}))
        handle = report.get("handle_by_rid", {})
        waits = [
            (latency - handle[rid]) * 1e3
            for rid, latency in self.client_lat.items()
            if rid in handle
        ]
        metrics["serving.wait_p50_ms"] = percentile(waits, 0.50)
        metrics["serving.wait_p99_ms"] = percentile(waits, 0.99)
        metrics["serve.requests"] = traced.attempted
        metrics["serve.failed"] = traced.failed + traced.invalid_passes
        metrics["serve.gen_late_p99_ms"] = max(traced.late_s, default=0.0) * 1e3
        return metrics

    def finish(self) -> Tuple[int, int]:
        """Every round's tenants against a serial run (and the pins)."""
        from repro.sim.config import make_predictor
        from repro.sim.state import PredictorState
        from repro.sim.vectorized import simulate_fast

        expected = {}
        for session in self.sessions:
            predictor = make_predictor(session.spec)
            result = simulate_fast(predictor, session.trace, label=session.spec)
            expected[session.base] = (
                result.conditional_branches,
                result.mispredictions,
                PredictorState.capture(predictor).digest(),
            )
        failed = self.failed
        if self.seed == DEFAULT_SEED and self.pins is not None:
            for base, want in expected.items():
                pin = self.pins["tenants"].get(base)
                if pin is None or tuple(pin) != want:
                    failed += 1
                    _report(self.errors, f"serve: serial {base} {want} != pin {pin}")
        for finals in self.finals:
            for base, want in expected.items():
                if finals.get(base) != want:
                    failed += 1
                    _report(self.errors, f"serve: tenant {base} served {finals.get(base)} "
                            f"!= serial {want}")
        return len(self.finals) * len(self.sessions), failed

    def character(self) -> Dict[str, object]:
        return {}

    def pins_record(self) -> dict:
        tenants = {base: list(final) for base, final in sorted(self.finals[0].items())}
        return {"seed": DEFAULT_SEED, "scale": SERVE_SCALE, "tenants": tenants}

    def peak_rss_mb(self) -> float:
        """Peak RSS of the untraced server processes."""
        return max(
            (r["peak_rss_mb"] for r in self.host_results if not r.get("traced")),
            default=0.0,
        )

    def close(self) -> None:
        self.stop_host()
        self.loop.close()


WORKLOAD_CLASSES = {
    "paper": PaperWorkload,
    "sweep": SweepWorkload,
    "serve": ServeWorkload,
}
