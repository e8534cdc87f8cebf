"""Differential serving tests: interleaved multi-tenant == serial.

The acceptance criterion of the serving layer, verbatim: N interleaved
sessions through the server produce per-tenant results and final
``PredictorState`` byte-identical to N serial ``simulate_fast`` runs —
across predictor families, engine tiers (each forced by rebinding the
shard's ``simulate_fast``), mid-stream snapshot/restore, and arbitrary
flush boundaries.  The request path also survives hostile input: a
malformed event gets an error response, never a wedged tenant.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.serving.shard as shard_module
from repro.serving.client import PredictionClient, ServingError
from repro.serving.shard import MAX_TABLE_ENTRIES
from repro.serving.server import (
    LINE_LIMIT,
    PredictionServer,
    PredictionService,
)
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import native_available, simulate_native
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast, simulate_vectorized
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

#: Families for the tier-forced matrix: each runs on every forced tier
#: (generic, vectorized, native).
TIER_SPECS = [
    "bimodal:128",
    "gshare:128:h6",
    "gskew:3x128:h5:total",
    "gskew:1x128:h5:lazy",
    "agree:128:h6",
]

#: Families served only through the un-forced ladder, which must still
#: serve them bit-identically (falling back internally as needed).
LADDER_ONLY_SPECS = [
    "gskew:3x128:h5:partial",
    "hybrid:128:h6",
    "fa:32:h4",
    "unaliased:h4",
]

#: Each tier by name, as the forced matrix binds it in place of the
#: shard's ``simulate_fast``.
ENGINES = {
    "generic": simulate,
    "vectorized": simulate_vectorized,
    "native": simulate_native,
}

TIER_CASES = [
    pytest.param(spec, engine, id=f"{spec}-{engine}")
    for spec in TIER_SPECS
    for engine in ENGINES
]


def _interleave_round_robin(service, sessions, chunk):
    """Feed each session's trace through the service, ``chunk`` events
    per turn of a round-robin over all sessions."""
    cursors = {name: 0 for name in sessions}
    live = True
    while live:
        live = False
        for name, trace in sessions.items():
            lo = cursors[name]
            if lo >= len(trace):
                continue
            live = True
            hi = min(lo + chunk, len(trace))
            events = [
                [int(trace.pcs[i]), int(trace.takens[i]),
                 int(trace.conditionals[i])]
                for i in range(lo, hi)
            ]
            cursors[name] = hi
            response = service.handle(
                {"op": "events", "session": name, "events": events}
            )
            assert response["ok"], response


def _served_finals(service, sessions):
    finals = {}
    for name in sessions:
        stats = service.handle({"op": "sync", "session": name})
        assert stats["ok"], stats
        predictor = service.shard.tenant(name).predictor
        finals[name] = (
            stats["conditional_branches"],
            stats["mispredictions"],
            PredictorState.capture(predictor).digest(),
        )
    return finals


def _serial_finals(sessions, specs):
    finals = {}
    for name, trace in sessions.items():
        predictor = make_predictor(specs[name])
        result = simulate_fast(predictor, trace, label=specs[name])
        finals[name] = (
            result.conditional_branches,
            result.mispredictions,
            PredictorState.capture(predictor).digest(),
        )
    return finals


def _ibs_like(seed: int, length: int) -> Trace:
    """A small deterministic trace with realistic PC reuse."""
    pcs, takens, conditionals = [], [], []
    value = seed * 2654435761 % 2**32
    for i in range(length):
        value = (value * 1103515245 + 12345) % 2**31
        pcs.append(4 * (value % 61))
        takens.append((value >> 7) & 1)
        conditionals.append(0 if value % 13 == 0 else 1)
    return Trace.from_columns(pcs, takens, conditionals, name=f"sess{seed}")


class TestInterleavedVsSerial:
    @pytest.mark.parametrize("spec,engine", TIER_CASES)
    def test_forced_tier_parity(self, engine, spec, monkeypatch):
        """Interleaved == serial on every forced engine tier."""
        if engine == "native" and not native_available():
            pytest.skip("native backend unavailable")
        ran = []

        def forced(*args, **kwargs):
            result = ENGINES[engine](*args, **kwargs)
            ran.append(result.engine)
            return result

        monkeypatch.setattr(shard_module, "simulate_fast", forced)
        sessions = {f"t{i}": _ibs_like(i + 1, 400 + 30 * i) for i in range(4)}
        specs = {name: spec for name in sessions}
        service = PredictionService(batch_size=64)
        for name in sessions:
            service.handle({"op": "open", "session": name, "spec": spec})
        _interleave_round_robin(service, sessions, chunk=37)
        assert _served_finals(service, sessions) == _serial_finals(
            sessions, specs
        )
        assert ran and set(ran) == {engine}

    @pytest.mark.parametrize("spec", LADDER_ONLY_SPECS)
    def test_ladder_parity_for_fallback_families(self, spec):
        """Families without full tier coverage still serve identically."""
        sessions = {f"t{i}": _ibs_like(10 + i, 350) for i in range(3)}
        specs = {name: spec for name in sessions}
        service = PredictionService(batch_size=48)
        for name in sessions:
            service.handle({"op": "open", "session": name, "spec": spec})
        _interleave_round_robin(service, sessions, chunk=23)
        assert _served_finals(service, sessions) == _serial_finals(
            sessions, specs
        )

    def test_mixed_specs_one_server(self):
        """Tenants with different predictor families don't cross-talk."""
        all_specs = TIER_SPECS + LADDER_ONLY_SPECS
        sessions, specs = {}, {}
        for i, spec in enumerate(all_specs):
            name = f"mix{i}"
            sessions[name] = _ibs_like(100 + i, 300)
            specs[name] = spec
        service = PredictionService(batch_size=32)
        for name in sessions:
            service.handle(
                {"op": "open", "session": name, "spec": specs[name]}
            )
        _interleave_round_robin(service, sessions, chunk=19)
        assert _served_finals(service, sessions) == _serial_finals(
            sessions, specs
        )

    @settings(max_examples=25, deadline=None)
    @given(
        traces=st.lists(
            trace_strategy(max_length=120), min_size=1, max_size=4
        ),
        chunk=st.integers(1, 50),
        batch_size=st.integers(1, 40),
        spec=st.sampled_from(TIER_SPECS + ["agree:64:h5"]),
    )
    def test_fuzzed_interleavings_and_flush_boundaries(
        self, traces, chunk, batch_size, spec
    ):
        """Arbitrary session count x chunking x batch size: still exact."""
        sessions = {f"f{i}": trace for i, trace in enumerate(traces)}
        specs = {name: spec for name in sessions}
        service = PredictionService(batch_size=batch_size)
        for name in sessions:
            service.handle({"op": "open", "session": name, "spec": spec})
        _interleave_round_robin(service, sessions, chunk=chunk)
        assert _served_finals(service, sessions) == _serial_finals(
            sessions, specs
        )

    @settings(max_examples=15, deadline=None)
    @given(
        trace=trace_strategy(max_length=150),
        sync_points=st.lists(st.integers(0, 150), max_size=5),
        spec=st.sampled_from(["gshare:64:h5", "gskew:3x64:h4:partial"]),
    )
    def test_out_of_order_sync_barriers(self, trace, sync_points, spec):
        """Forced flushes at arbitrary points don't perturb results."""
        service = PredictionService(batch_size=32)
        service.handle({"op": "open", "session": "s", "spec": spec})
        marks = set(sync_points)
        for i in range(len(trace)):
            service.handle(
                {
                    "op": "events",
                    "session": "s",
                    "events": [
                        [int(trace.pcs[i]), int(trace.takens[i]),
                         int(trace.conditionals[i])]
                    ],
                }
            )
            if i in marks:
                service.handle({"op": "sync", "session": "s"})
        finals = _served_finals(service, {"s": trace})
        assert finals == _serial_finals({"s": trace}, {"s": spec})


class TestSnapshotRestore:
    def test_mid_stream_snapshot_then_restore_rewinds_exactly(self):
        spec = "gshare:128:h7"
        trace = _ibs_like(5, 600)
        half = len(trace) // 2

        service = PredictionService(batch_size=50)
        service.handle({"op": "open", "session": "s", "spec": spec})
        first = [
            [int(trace.pcs[i]), int(trace.takens[i]),
             int(trace.conditionals[i])]
            for i in range(half)
        ]
        rest = [
            [int(trace.pcs[i]), int(trace.takens[i]),
             int(trace.conditionals[i])]
            for i in range(half, len(trace))
        ]
        service.handle({"op": "events", "session": "s", "events": first})
        snap = service.handle({"op": "snapshot", "session": "s"})
        assert snap["ok"]

        # Replay the second half twice with a restore in between: the
        # rewind must reproduce the identical final digest both times.
        digests = []
        for _ in range(2):
            service.handle({"op": "events", "session": "s", "events": rest})
            service.handle({"op": "sync", "session": "s"})
            predictor = service.shard.tenant("s").predictor
            digests.append(PredictorState.capture(predictor).digest())
            restored = service.handle(
                {"op": "restore", "session": "s", "state": snap["state"]}
            )
            assert restored["ok"], restored
        assert digests[0] == digests[1]

        # And the snapshot itself matches a serial run over the first half.
        reference = make_predictor(spec)
        simulate_fast(reference, trace.slice(0, half), label=spec)
        assert (
            PredictorState.from_bytes(bytes.fromhex(snap["state"])).digest()
            == PredictorState.capture(reference).digest()
        )

    def test_corrupt_restore_payload_is_refused(self):
        service = PredictionService(batch_size=50)
        service.handle({"op": "open", "session": "s", "spec": "bimodal:64"})
        snap = service.handle({"op": "snapshot", "session": "s"})
        corrupted = snap["state"][:-8] + "deadbeef"
        response = service.handle(
            {"op": "restore", "session": "s", "state": corrupted}
        )
        assert response["ok"] is False
        assert "restore rejected" in response["error"]


class TestAsyncServer:
    """The TCP front end: concurrent clients, real sockets, same parity."""

    def test_concurrent_clients_are_bit_identical_to_serial(self):
        async def scenario():
            sessions = {
                f"net{i}": _ibs_like(50 + i, 350) for i in range(3)
            }
            spec = "gshare:128:h6"
            async with PredictionServer(
                batch_size=40, linger_s=0.002
            ) as server:
                host, port = server.address

                async def drive(name, trace):
                    async with PredictionClient(host, port) as client:
                        await client.open(name, spec)
                        for lo in range(0, len(trace), 29):
                            hi = min(lo + 29, len(trace))
                            await client.events(
                                name,
                                [
                                    (int(trace.pcs[i]), int(trace.takens[i]),
                                     int(trace.conditionals[i]))
                                    for i in range(lo, hi)
                                ],
                            )
                            await asyncio.sleep(0)  # force interleaving
                        stats = await client.sync(name)
                        state = await client.snapshot(name)
                        return (
                            stats["conditional_branches"],
                            stats["mispredictions"],
                            state.digest(),
                        )

                served = await asyncio.gather(
                    *(drive(name, trace) for name, trace in sessions.items())
                )
                assert server.service.shard.stats()["sessions"] == 3
                return dict(zip(sessions, served)), sessions, spec

        served, sessions, spec = asyncio.run(scenario())
        specs = {name: spec for name in sessions}
        assert served == _serial_finals(sessions, specs)

    def test_protocol_errors_are_answered_not_fatal(self):
        async def scenario():
            async with PredictionServer(batch_size=8) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                line = await reader.readline()
                # The connection survives a garbage line...
                writer.write(
                    b'{"op": "open", "session": "s", "spec": "bimodal:64"}\n'
                )
                await writer.drain()
                second = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return line, second

        import json

        first, second = asyncio.run(scenario())
        assert json.loads(first)["ok"] is False
        assert json.loads(second)["ok"] is True

    def test_oversized_line_is_answered_then_closed(self):
        """A request line over the stream limit gets an explicit error
        response before EOF, and a tenant on another connection is
        untouched."""
        import json

        spec = "gshare:128:h6"
        calm = _ibs_like(77, 600)
        events = [
            (int(calm.pcs[i]), int(calm.takens[i]), int(calm.conditionals[i]))
            for i in range(len(calm))
        ]

        async def scenario():
            async with PredictionServer(batch_size=32) as server:
                host, port = server.address
                async with PredictionClient(host, port) as client:
                    await client.open("calm", spec)
                    await client.events("calm", events[:300])

                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(
                        b'{"op": "open", "session": "big", '
                        b'"spec": "bimodal:64"}\n'
                    )
                    opened = json.loads(await reader.readline())
                    huge = [[0x400 + 4 * i, i & 1, 1] for i in range(5000)]
                    line = json.dumps(
                        {"op": "events", "session": "big", "events": huge}
                    ).encode() + b"\n"
                    assert len(line) > LINE_LIMIT
                    writer.write(line)
                    answer = await reader.readline()
                    after = await reader.read()  # EOF: the server hung up
                    writer.close()

                    await client.events("calm", events[300:])
                    stats = await client.sync("calm")
                    state = await client.snapshot("calm")
                return opened, answer, after, (
                    stats["conditional_branches"],
                    stats["mispredictions"],
                    state.digest(),
                )

        opened, answer, after, calm_finals = asyncio.run(scenario())
        assert opened["ok"] is True
        response = json.loads(answer)
        assert response["ok"] is False
        assert str(LINE_LIMIT) in response["error"]
        assert after == b""
        assert calm_finals == _serial_finals({"calm": calm}, {"calm": spec})[
            "calm"
        ]

    def test_unknown_session_error_surfaces_in_client(self):
        async def scenario():
            async with PredictionServer(batch_size=8) as server:
                host, port = server.address
                async with PredictionClient(host, port) as client:
                    with pytest.raises(ServingError, match="ghost"):
                        await client.sync("ghost")

        asyncio.run(scenario())


#: Any JSON value, nested a little: what a hostile client can put in an
#: event field.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2 ** 70), 2 ** 70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)

#: Branch addresses from negative, through bools, to above 2**64, with
#: the edges of the valid range drawn often.
HOSTILE_PCS = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([-1, 0, 4, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 65]),
    st.booleans(),
    JSON_VALUES,
)

#: ``taken``/``conditional`` flags: the valid four, or anything else.
HOSTILE_FLAGS = st.one_of(st.sampled_from([0, 1, True, False]), JSON_VALUES)

#: One event of 0 to 4 fields.
HOSTILE_EVENTS = st.builds(
    lambda pc, flags, fields: ([pc] + flags)[:fields],
    HOSTILE_PCS,
    st.lists(HOSTILE_FLAGS, min_size=3, max_size=3),
    st.integers(0, 4),
)

#: A well-formed event, pcs up to the edge of the valid range.
VALID_EVENTS = st.builds(
    lambda pc, flags: [pc] + flags,
    st.one_of(
        st.integers(0, 2 ** 10),
        st.sampled_from([2 ** 63, 2 ** 64 - 4, 2 ** 64 - 1]),
    ),
    st.lists(st.sampled_from([0, 1, True, False]), min_size=1, max_size=2),
)

#: An ``events`` payload: all well-formed (so the engines see extreme
#: pcs), or a mix in which hostile events appear.
EVENT_PAYLOADS = st.one_of(
    st.lists(VALID_EVENTS, max_size=4),
    st.lists(st.one_of(VALID_EVENTS, HOSTILE_EVENTS), max_size=4),
)


class TestHostileInput:
    """Malformed events are refused per request; nothing wedges."""

    def test_out_of_range_pc_is_refused_and_other_tenants_keep_flushing(
        self,
    ):
        """A pc of 2**64 (or a bool, or a non-0/1 flag) gets an error
        response on a connection that stays open; a second tenant on
        another connection is still linger-flushed, bit-identically."""
        import json

        spec = "gshare:128:h6"
        calm = _ibs_like(31, 90)
        hostile_lines = [
            [[2 ** 64, 1]],
            [[True, 1]],
            [[4, "no"]],
            [[4, 1, 2]],
        ]

        async def scenario():
            async with PredictionServer(
                batch_size=256, linger_s=0.002
            ) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)

                async def ask(request):
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                opened = await ask(
                    {"op": "open", "session": "wedge", "spec": "bimodal:64"}
                )
                refusals = [
                    await ask(
                        {"op": "events", "session": "wedge", "events": line}
                    )
                    for line in hostile_lines
                ]
                await asyncio.sleep(0.02)  # linger passes over "wedge"
                synced = await ask({"op": "sync", "session": "wedge"})

                async with PredictionClient(host, port) as client:
                    await client.open("calm", spec)
                    await client.events(
                        "calm",
                        [
                            (int(calm.pcs[i]), int(calm.takens[i]),
                             int(calm.conditionals[i]))
                            for i in range(len(calm))
                        ],
                    )
                    for _ in range(400):  # the linger timer, not a sync
                        if (await client.stats())["flushes"] >= 1:
                            break
                        await asyncio.sleep(0.005)
                    stats = await client.sync("calm")
                    state = await client.snapshot("calm")
                writer.close()
                return opened, refusals, synced, stats, state.digest()

        opened, refusals, synced, stats, digest = asyncio.run(scenario())
        assert opened["ok"] is True
        for refusal in refusals:
            assert refusal["ok"] is False
            assert "0 <= pc < 2**64" in refusal["error"]
        assert synced["ok"] is True and synced["events"] == 0
        assert stats["batches"] == 1  # flushed by the linger timer
        assert (
            stats["conditional_branches"],
            stats["mispredictions"],
            digest,
        ) == _serial_finals({"calm": calm}, {"calm": spec})["calm"]

    def test_oversized_open_is_refused_and_the_connection_stays(self):
        """An ``open`` whose spec sizes more than the table cap gets an
        error naming the limit; the same connection then opens a normal
        tenant, and a tenant on another connection is untouched."""
        import json

        spec = "gshare:128:h6"
        calm = _ibs_like(53, 400)
        events = [
            (int(calm.pcs[i]), int(calm.takens[i]), int(calm.conditionals[i]))
            for i in range(len(calm))
        ]

        async def scenario():
            async with PredictionServer(batch_size=32) as server:
                host, port = server.address
                async with PredictionClient(host, port) as client:
                    await client.open("calm", spec)
                    await client.events("calm", events[:200])

                    reader, writer = await asyncio.open_connection(host, port)

                    async def ask(request):
                        writer.write(json.dumps(request).encode() + b"\n")
                        await writer.drain()
                        return json.loads(await reader.readline())

                    refused = await ask(
                        {"op": "open", "session": "big", "spec": "bimodal:1024m"}
                    )
                    reopened = await ask(
                        {"op": "open", "session": "big", "spec": "bimodal:64"}
                    )
                    writer.close()

                    await client.events("calm", events[200:])
                    stats = await client.sync("calm")
                    state = await client.snapshot("calm")
                return refused, reopened, (
                    stats["conditional_branches"],
                    stats["mispredictions"],
                    state.digest(),
                )

        refused, reopened, calm_finals = asyncio.run(scenario())
        assert refused["ok"] is False
        assert str(MAX_TABLE_ENTRIES) in refused["error"]
        assert reopened["ok"] is True
        assert calm_finals == _serial_finals({"calm": calm}, {"calm": spec})[
            "calm"
        ]

    @settings(max_examples=60, deadline=None)
    @example(payloads=[[[2 ** 64, 1]], [[True, 1]], [[4, "no"]]], batch_size=1)
    @given(
        payloads=st.lists(EVENT_PAYLOADS, min_size=1, max_size=8),
        batch_size=st.integers(1, 4),
    )
    def test_fuzzed_events_never_raise_or_disturb_a_neighbour(
        self, payloads, batch_size
    ):
        """Every hostile ``events`` line is a ProtocolError or a response;
        the hostile tenant and a calm neighbour both end exactly where
        serial runs over the events each accepted end."""
        import json

        from repro.serving.protocol import ProtocolError, decode_request

        spec = "gskew:3x64:h4:partial"
        calm = _ibs_like(3, 12 * len(payloads))
        service = PredictionService(batch_size=batch_size)
        for name in ("hostile", "calm"):
            service.handle({"op": "open", "session": name, "spec": spec})
        accepted = []
        for turn, payload in enumerate(payloads):
            line = json.dumps(
                {"op": "events", "session": "hostile", "events": payload}
            ).encode()
            try:
                request = decode_request(line)
            except ProtocolError:
                pass
            else:
                response = service.handle(request)
                assert response["ok"], response
                accepted.extend(payload)
            lo = 12 * turn
            response = service.handle(
                {
                    "op": "events",
                    "session": "calm",
                    "events": [
                        [int(calm.pcs[i]), int(calm.takens[i]),
                         int(calm.conditionals[i])]
                        for i in range(lo, lo + 12)
                    ],
                }
            )
            assert response["ok"], response
        hostile = Trace.from_columns(
            [event[0] for event in accepted],
            [bool(event[1]) for event in accepted],
            [bool(event[2]) if len(event) > 2 else True for event in accepted],
            name="accepted",
        )
        served = _served_finals(service, {"hostile": hostile, "calm": calm})
        assert served == _serial_finals(
            {"hostile": hostile, "calm": calm},
            {"hostile": spec, "calm": spec},
        )
