"""The prediction server: an asyncio front end over the shard ring.

Two layers, separable on purpose:

- :class:`PredictionService` is the synchronous request dispatcher —
  shard ring, tenant lifecycle, micro-batch flushes.  It is directly
  usable in-process (the differential tests drive it without sockets,
  so engine parity failures surface as clean assertions, not connection
  resets).
- :class:`PredictionServer` wraps the service in an asyncio TCP server
  speaking the newline-JSON protocol (:mod:`repro.serving.protocol`),
  with per-shard locks so concurrent clients interleave safely and a
  linger timer so partial batches don't wait forever.

Concurrency model: requests for one session are ordered by their
connection (the protocol is request/response per line), and every shard
mutation happens under that shard's :class:`asyncio.Lock`.  Flush
boundaries never change results — the engines are warm-state exact — so
the linger timer can fire whenever it likes; it trades tail latency
against batch efficiency, nothing else.  That invariance is exactly what
``tests/serving/`` proves differentially.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.serving.protocol import (
    ProtocolError,
    decode_request,
    encode_message,
    error_response,
    ok_response,
)
from repro.serving.shard import Shard, ShardRing
from repro.sim.state import PredictorState, StateError
from repro.util import envvars

__all__ = [
    "LINE_LIMIT",
    "PredictionService",
    "PredictionServer",
    "default_linger_s",
]

#: Longest request line the server reads, in bytes (asyncio's default
#: stream limit, passed explicitly so the error message can name it).
LINE_LIMIT = 2 ** 16


def default_linger_s() -> Optional[float]:
    """Linger-flush period in seconds, or None when disabled.

    ``REPRO_SERVING_LINGER_MS`` (default 5 ms); the documented
    ``0/off/none/disabled`` values turn the timer off entirely — batches
    then flush only when full or on explicit ``sync``/``snapshot``/
    ``close`` barriers.
    """
    if envvars.SERVING_LINGER_MS.disabled():
        return None
    value = envvars.SERVING_LINGER_MS.float_value(5.0)
    if value is None or value <= 0:
        return None
    return value / 1000.0


class PredictionService:
    """Synchronous dispatcher: one request dict in, one response out."""

    def __init__(
        self,
        shards: Optional[int] = None,
        batch_size: Optional[int] = None,
    ):
        self.ring = ShardRing(shards=shards, batch_size=batch_size)

    # -- request handling --------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one validated request (see protocol module for ops).

        Client errors (unknown sessions, spec conflicts, corrupt state
        payloads) come back as error responses; anything else is a
        server bug and propagates.
        """
        op = request["op"]
        if op == "stats":
            return ok_response(**self.ring.stats())
        if op == "open":
            session, spec = request["session"], request["spec"]
            shard = self.ring.shard_for(session)
            try:
                shard.open(session, spec)
            except ValueError as exc:
                return error_response(str(exc))
            return ok_response(session=session, shard=shard.index)
        session = request["session"]
        shard = self.ring.shard_for(session)
        try:
            if op == "events":
                return self._handle_events(shard, session, request["events"])
            if op == "sync":
                shard.flush(session)
                return ok_response(**shard.tenant(session).stats())
            if op == "snapshot":
                shard.flush(session)
                state = shard.tenant(session).snapshot()
                return ok_response(
                    session=session,
                    state=state.to_bytes().hex(),
                    digest=state.digest(),
                )
            if op == "restore":
                shard.flush(session)
                try:
                    state = PredictorState.from_bytes(
                        bytes.fromhex(request["state"])
                    )
                    shard.tenant(session).restore(state)
                except (ValueError, StateError) as exc:
                    return error_response(f"restore rejected: {exc}")
                return ok_response(session=session, digest=state.digest())
            if op == "close":
                return ok_response(**shard.close(session))
        except KeyError as exc:
            return error_response(str(exc.args[0]) if exc.args else str(exc))
        raise AssertionError(f"unroutable op {op!r}")  # pragma: no cover

    def _handle_events(
        self, shard: Shard, session: str, events: List[list]
    ) -> Dict[str, Any]:
        full = False
        for event in events:
            pc, taken = event[0], bool(event[1])
            conditional = bool(event[2]) if len(event) > 2 else True
            full = shard.push(session, pc, taken, conditional) or full
        flushed = shard.flush(session) if full else 0
        return ok_response(
            session=session,
            buffered=len(events),
            flushed=flushed,
            pending=shard.tenant(session).pending,
        )

    # -- barriers the async layer shares ----------------------------------

    def flush_all(self) -> int:
        """Flush every tenant on every shard (the linger-timer body)."""
        return sum(shard.flush() for shard in self.ring.shards)


class PredictionServer:
    """Asyncio TCP front end: newline-JSON requests over the service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: Optional[int] = None,
        batch_size: Optional[int] = None,
        linger_s: Optional[float] = None,
    ):
        self.service = PredictionService(shards=shards, batch_size=batch_size)
        self.host = host
        self.port = port
        self.linger_s = default_linger_s() if linger_s is None else (
            linger_s if linger_s > 0 else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._linger_task: Optional[asyncio.Task] = None
        self._locks: Tuple[asyncio.Lock, ...] = ()
        self._connections: set = set()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not running")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "PredictionServer":
        """Bind the listening socket and start the linger flusher."""
        self._locks = tuple(
            asyncio.Lock() for _ in self.service.ring.shards
        )
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=LINE_LIMIT
        )
        if self.linger_s is not None:
            self._linger_task = asyncio.create_task(self._linger_loop())
        return self

    async def stop(self) -> None:
        """Stop the linger flusher, flush every shard, close the socket."""
        if self._linger_task is not None:
            self._linger_task.cancel()
            try:
                await self._linger_task
            except asyncio.CancelledError:
                pass
            self._linger_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Reap in-flight connection handlers now, not at loop teardown —
        # an orphaned handler cancelled mid-close logs a spurious
        # CancelledError traceback from the streams machinery.
        if self._connections:
            for task in self._connections:
                task.cancel()
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()

    async def __aenter__(self) -> "PredictionServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- internals ---------------------------------------------------------

    def _lock_for(self, request: Dict[str, Any]) -> Optional[asyncio.Lock]:
        session = request.get("session")
        if not isinstance(session, str):
            return None
        shard = self.service.ring.shard_for(session)
        return self._locks[shard.index]

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            return error_response(str(exc))
        lock = self._lock_for(request)
        if lock is None:
            return self.service.handle(request)
        async with lock:
            return self.service.handle(request)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the limit, readline has discarded part of the
                    # stream, so what follows is no request boundary:
                    # answer once, then drop this connection only.
                    writer.write(encode_message(error_response(
                        f"request line exceeds the {LINE_LIMIT}-byte "
                        "limit; closing the connection"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._handle_line(line)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished; its tenants stay until closed
        except asyncio.CancelledError:
            # stop() reaps in-flight handlers; ending normally (not
            # cancelled) keeps the streams done-callback from logging a
            # spurious traceback on 3.11.
            pass
        finally:
            writer.close()

    async def _linger_loop(self) -> None:
        """Background flush of lingering partial batches.

        Safe at any cadence: flush boundaries are invisible to results,
        so this only bounds how long a slow tenant's tail events sit
        unbatched (the latency side of the batching trade-off).
        """
        assert self.linger_s is not None
        while True:
            await asyncio.sleep(self.linger_s)
            for shard, lock in zip(self.service.ring.shards, self._locks):
                async with lock:
                    shard.flush()
