"""Per-tenant predictor state, sharded and micro-batched.

The serving data model: a **tenant** (client session) owns one live
predictor; a **shard** owns an ordered set of tenants plus their pending
event buffers.  Events arrive one at a time over the wire but are *not*
fed through per-event Python calls — each tenant's pending buffer is
flushed as a micro-batch :class:`~repro.traces.trace.Trace` through
:func:`repro.sim.vectorized.simulate_fast`, which dispatches the
native/vectorized tiers.  Because every fast tier honors warm predictor state
(counters, bias latches, and — as of this layer — the history-register
seed), the flush boundaries are invisible: any batching whatsoever
produces predictions and final state byte-identical to one serial run.

Crash safety: each flush snapshots the tenant's
:class:`~repro.sim.state.PredictorState` first, runs the engine, then
passes the ``serving-shard`` fault site *before committing*.  An
injected (or real) mid-batch crash rolls the predictor back to the
snapshot and replays the same batch — deterministic, and proven
byte-identical to the fault-free run by the resilience suite.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.resilience.faults import InjectedFault, maybe_fail
from repro.sim.config import make_predictor
from repro.sim.parallel import RETRY_LIMIT
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = [
    "Tenant",
    "Shard",
    "ShardRing",
    "default_batch_size",
    "default_shard_count",
    "shard_of",
]

#: Documented default micro-batch size (see ``REPRO_SERVING_BATCH``).
DEFAULT_BATCH = 256


def default_batch_size() -> int:
    """The flush threshold, from ``REPRO_SERVING_BATCH`` (min 1)."""
    value = envvars.SERVING_BATCH.int_value(DEFAULT_BATCH) or DEFAULT_BATCH
    return max(1, value)


def default_shard_count(cpus: Optional[int] = None) -> int:
    """Ring size from ``REPRO_SERVING_SHARDS`` (unset: CPUs, min 4)."""
    value = envvars.SERVING_SHARDS.int_value()
    if value is not None and value >= 1:
        return value
    import os

    detected = cpus if cpus is not None else (os.cpu_count() or 1)
    return max(4, detected)


def shard_of(session: str, shards: int) -> int:
    """Stable session→shard assignment.

    sha256 rather than ``hash()``: the builtin is salted per process, and
    shard assignment must be reproducible across runs and machines (the
    golden serving tier pins per-tenant numbers).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(session.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class Tenant:
    """One client session: a live predictor plus its pending events."""

    __slots__ = (
        "session",
        "spec",
        "predictor",
        "pending_pcs",
        "pending_takens",
        "pending_conditionals",
        "conditional_branches",
        "mispredictions",
        "batches",
        "events",
    )

    def __init__(self, session: str, spec: str):
        self.session = session
        self.spec = spec
        self.predictor: BranchPredictor = make_predictor(spec)
        self.pending_pcs: List[int] = []
        self.pending_takens: List[int] = []
        self.pending_conditionals: List[int] = []
        self.conditional_branches = 0
        self.mispredictions = 0
        self.batches = 0
        self.events = 0

    @property
    def pending(self) -> int:
        return len(self.pending_pcs)

    def push(self, pc: int, taken: bool, conditional: bool = True) -> None:
        """Buffer one branch event."""
        self.pending_pcs.append(pc)
        self.pending_takens.append(1 if taken else 0)
        self.pending_conditionals.append(1 if conditional else 0)
        self.events += 1

    def drain(self) -> Optional[Trace]:
        """Pending events as a batch trace; None when empty."""
        if not self.pending_pcs:
            return None
        batch = Trace(
            np.asarray(self.pending_pcs, dtype=np.uint64),
            np.asarray(self.pending_takens, dtype=np.uint8),
            np.asarray(self.pending_conditionals, dtype=np.uint8),
            name=f"{self.session}#{self.batches}",
        )
        self.pending_pcs = []
        self.pending_takens = []
        self.pending_conditionals = []
        return batch

    def requeue(self, batch: Trace) -> None:
        """Put a drained batch back in front of the pending buffer."""
        self.pending_pcs[:0] = batch.pcs.tolist()
        self.pending_takens[:0] = batch.takens.tolist()
        self.pending_conditionals[:0] = batch.conditionals.tolist()

    def snapshot(self) -> PredictorState:
        """Capture the live predictor as a serializable state."""
        return PredictorState.capture(self.predictor)

    def restore(self, state: PredictorState) -> None:
        """Rewind the live predictor to a captured state."""
        state.restore(self.predictor)

    def stats(self) -> Dict[str, object]:
        """The tenant's cumulative counters."""
        return {
            "session": self.session,
            "spec": self.spec,
            "events": self.events,
            "pending": self.pending,
            "batches": self.batches,
            "conditional_branches": self.conditional_branches,
            "mispredictions": self.mispredictions,
        }


class Shard:
    """An ordered set of tenants flushed through the fast engines."""

    def __init__(self, index: int, batch_size: Optional[int] = None):
        self.index = index
        self.batch_size = (
            default_batch_size() if batch_size is None else max(1, batch_size)
        )
        self.tenants: Dict[str, Tenant] = {}
        self.flushes = 0
        self.replays = 0

    def open(self, session: str, spec: str) -> Tenant:
        """Create (or return) the tenant for ``session``.

        Reconnecting with a different spec is a client bug and fails
        loudly rather than silently resetting predictor state.
        """
        tenant = self.tenants.get(session)
        if tenant is not None:
            if tenant.spec != spec:
                raise ValueError(
                    f"session {session!r} is open with spec "
                    f"{tenant.spec!r}, not {spec!r}"
                )
            return tenant
        tenant = Tenant(session, spec)
        self.tenants[session] = tenant
        return tenant

    def tenant(self, session: str) -> Tenant:
        """The open tenant for ``session``; KeyError when unknown."""
        try:
            return self.tenants[session]
        except KeyError:
            raise KeyError(f"no open session {session!r}") from None

    def push(self, session: str, pc: int, taken: bool, conditional: bool = True) -> bool:
        """Buffer one event; True when the tenant crossed the batch size."""
        tenant = self.tenant(session)
        tenant.push(pc, taken, conditional)
        return tenant.pending >= self.batch_size

    def flush_tenant(self, tenant: Tenant) -> int:
        """Evaluate one tenant's pending batch; returns events flushed.

        The crash-consistency core: snapshot → engine → fault gate →
        commit.  An :class:`InjectedFault` between the engine run and the
        commit models a shard dying with results computed but not yet
        applied; recovery restores the pre-batch snapshot and replays the
        identical batch.  After :data:`repro.sim.parallel.RETRY_LIMIT`
        replays the batch is requeued (pending events are never lost) and
        the fault propagates to the caller.
        """
        batch = tenant.drain()
        if batch is None:
            return 0
        for attempt in range(RETRY_LIMIT + 1):
            snapshot = tenant.snapshot()
            try:
                result = simulate_fast(
                    tenant.predictor, batch, label=tenant.spec
                )
                maybe_fail("serving-shard")
            except InjectedFault:
                tenant.restore(snapshot)
                if attempt == RETRY_LIMIT:
                    tenant.requeue(batch)
                    raise
                self.replays += 1
                continue
            tenant.conditional_branches += result.conditional_branches
            tenant.mispredictions += result.mispredictions
            tenant.batches += 1
            self.flushes += 1
            return len(batch)
        raise AssertionError("unreachable")  # pragma: no cover

    def flush(self, session: Optional[str] = None) -> int:
        """Flush one tenant (or, with ``session=None``, every tenant)."""
        if session is not None:
            return self.flush_tenant(self.tenant(session))
        flushed = 0
        for tenant in self.tenants.values():
            flushed += self.flush_tenant(tenant)
        return flushed

    def close(self, session: str) -> Dict[str, object]:
        """Flush and remove a tenant; returns its final stats."""
        tenant = self.tenant(session)
        self.flush_tenant(tenant)
        stats = tenant.stats()
        del self.tenants[session]
        return stats


class ShardRing:
    """The session-hashed collection of shards one server owns."""

    def __init__(
        self,
        shards: Optional[int] = None,
        batch_size: Optional[int] = None,
    ):
        count = default_shard_count() if shards is None else max(1, shards)
        self.shards: Tuple[Shard, ...] = tuple(
            Shard(index, batch_size) for index in range(count)
        )

    def __len__(self) -> int:
        return len(self.shards)

    def shard_for(self, session: str) -> Shard:
        """The shard that owns ``session``."""
        return self.shards[shard_of(session, len(self.shards))]

    def sessions(self) -> List[str]:
        """Every open session across the ring."""
        return [
            session for shard in self.shards for session in shard.tenants
        ]

    def stats(self) -> Dict[str, object]:
        """Ring-wide counters: shards, sessions, flushes, replays."""
        return {
            "shards": len(self.shards),
            "sessions": sum(len(shard.tenants) for shard in self.shards),
            "flushes": sum(shard.flushes for shard in self.shards),
            "replays": sum(shard.replays for shard in self.shards),
        }
