"""End-to-end recovery: every fault class heals with identical results.

The acceptance bar for the resilience layer is *byte-identity*: a run
that hit injected worker crashes, hangs or kernel failures must produce
exactly the results of a fault-free run, with the recovery visible only
in warnings and counters.  These tests inject each fault class through
``REPRO_FAULTS`` and compare against clean baselines.
"""

from __future__ import annotations

import warnings

import pytest

from repro.resilience.faults import InjectedFault, reset_faults
from repro.serving.shard import Shard
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import native_available
from repro.sim.parallel import run_cells, recovery_stats
from repro.sim.state import PredictorState
from repro.sim.vectorized import _snapshot_state, simulate_fast

#: Specs for the dispatch ladder: two the native walk and the
#: vectorized loop both express (an always-update table and multi-bank
#: LAZY), and one generic-only (per-address history).
FAST_SPEC = "gshare:512:h8"
VECTOR_SPEC = "gskew:3x64:h4:lazy"
GENERIC_SPEC = "fa:16:h3"

SWEEP_SPECS = [FAST_SPEC, VECTOR_SPEC, GENERIC_SPEC, "bimodal:256"]


def _clean_fast(spec, trace):
    """A fault-free ``simulate_fast`` baseline (result, final state)."""
    predictor = make_predictor(spec)
    result = simulate_fast(predictor, trace, label=spec)
    return result, _snapshot_state(predictor)


class TestKernelDegradation:
    def test_native_failure_degrades_bit_identically(
        self, fault_env, tiny_trace
    ):
        if not native_available():
            pytest.skip("native backend unavailable; tier not in the ladder")
        expected, expected_state = _clean_fast(FAST_SPEC, tiny_trace)
        fault_env("kernel-native@1")
        predictor = make_predictor(FAST_SPEC)
        with pytest.warns(RuntimeWarning, match="native engine failed"):
            degraded = simulate_fast(predictor, tiny_trace, label=FAST_SPEC)
        assert degraded == expected
        assert degraded.engine == "vectorized"  # one-level degradation
        # The failed tier's partial work was rolled back: the surviving
        # tier left the same final counters and history as a clean run.
        assert _snapshot_state(predictor) == expected_state

    def test_vectorized_failure_degrades_bit_identically(
        self, fault_env, tiny_trace, monkeypatch
    ):
        # Pin the vectorized loop to the front of the ladder (the native
        # walk would otherwise take this spec first).
        monkeypatch.setenv("REPRO_NATIVE", "0")
        expected, expected_state = _clean_fast(VECTOR_SPEC, tiny_trace)
        fault_env("kernel-vectorized@1")
        predictor = make_predictor(VECTOR_SPEC)
        with pytest.warns(RuntimeWarning, match="vectorized engine failed"):
            degraded = simulate_fast(predictor, tiny_trace, label=VECTOR_SPEC)
        assert degraded == expected
        assert _snapshot_state(predictor) == expected_state

    def test_all_fast_tiers_failing_reaches_the_generic_engine(
        self, fault_env, tiny_trace
    ):
        reference = simulate(
            make_predictor(FAST_SPEC), tiny_trace, label=FAST_SPEC
        )
        fault_env("kernel-native@1,kernel-vectorized@1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = simulate_fast(
                make_predictor(FAST_SPEC), tiny_trace, label=FAST_SPEC
            )
        assert degraded == reference
        assert degraded.engine == "generic"
        messages = [str(w.message) for w in caught]
        assert any("vectorized engine failed" in m for m in messages)
        if native_available():
            assert any("native engine failed" in m for m in messages)

    def test_fault_consumed_then_clean(
        self, fault_env, tiny_trace, monkeypatch
    ):
        """A one-arrival window fires once; the next call is fault-free."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        expected, _ = _clean_fast(FAST_SPEC, tiny_trace)
        fault_env("kernel-vectorized@1")
        with pytest.warns(RuntimeWarning):
            simulate_fast(
                make_predictor(FAST_SPEC), tiny_trace, label=FAST_SPEC
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = simulate_fast(
                make_predictor(FAST_SPEC), tiny_trace, label=FAST_SPEC
            )
        assert clean == expected


class TestServingShardRecovery:
    """The ``serving-shard`` site: crash-mid-batch, rollback, replay."""

    SPEC = "gshare:128:h6"

    def _feed(self, shard, session, trace):
        for i in range(len(trace)):
            if shard.push(
                session,
                int(trace.pcs[i]),
                bool(trace.takens[i]),
                bool(trace.conditionals[i]),
            ):
                shard.flush(session)
        shard.flush(session)

    def _clean_serial(self, trace):
        predictor = make_predictor(self.SPEC)
        result = simulate_fast(predictor, trace, label=self.SPEC)
        return result, PredictorState.capture(predictor).digest()

    def test_crash_mid_batch_replays_byte_identically(
        self, fault_env, tiny_trace
    ):
        """One crash after the engine ran but before commit: the batch is
        rolled back to its pre-batch snapshot and replayed, and the whole
        stream still matches a fault-free serial run exactly."""
        expected, expected_digest = self._clean_serial(tiny_trace)
        fault_env("serving-shard@2")  # second flush dies mid-batch
        shard = Shard(0, batch_size=37)
        tenant = shard.open("s", self.SPEC)
        self._feed(shard, "s", tiny_trace)
        assert shard.replays == 1
        assert tenant.conditional_branches == expected.conditional_branches
        assert tenant.mispredictions == expected.mispredictions
        assert tenant.pending == 0
        assert (
            PredictorState.capture(tenant.predictor).digest()
            == expected_digest
        )

    def test_exhausted_retries_requeue_and_raise(self, fault_env, tiny_trace):
        """A persistently-dying shard surfaces the fault — with the batch
        back in the pending buffer and the predictor rolled back, so no
        event is lost and no partial batch is committed."""
        expected, expected_digest = self._clean_serial(tiny_trace)
        fault_env("serving-shard@1-")  # every flush arrival fails
        shard = Shard(0, batch_size=16)
        tenant = shard.open("s", self.SPEC)
        pre_digest = PredictorState.capture(tenant.predictor).digest()
        with pytest.raises(InjectedFault):
            self._feed(shard, "s", tiny_trace)
        assert tenant.pending == 16  # the whole batch, requeued in order
        assert tenant.conditional_branches == 0
        assert (
            PredictorState.capture(tenant.predictor).digest() == pre_digest
        )

        # Once the fault clears, the requeued stream drains to the exact
        # fault-free totals: crash recovery changed nothing observable.
        fault_env("")
        reset_faults()
        offset = tenant.events
        for i in range(offset, len(tiny_trace)):
            if shard.push(
                "s",
                int(tiny_trace.pcs[i]),
                bool(tiny_trace.takens[i]),
                bool(tiny_trace.conditionals[i]),
            ):
                shard.flush("s")
        shard.flush("s")
        assert tenant.conditional_branches == expected.conditional_branches
        assert tenant.mispredictions == expected.mispredictions
        assert (
            PredictorState.capture(tenant.predictor).digest()
            == expected_digest
        )

    def test_replay_counter_visible_in_ring_stats(self, fault_env):
        from repro.serving.server import PredictionService

        fault_env("serving-shard@1")
        service = PredictionService(shards=1, batch_size=4)
        service.handle({"op": "open", "session": "s", "spec": "bimodal:64"})
        service.handle(
            {
                "op": "events",
                "session": "s",
                "events": [[4 * i, i % 2] for i in range(4)],
            }
        )
        stats = service.handle({"op": "stats"})
        assert stats["ok"]
        assert stats["replays"] == 1
        assert stats["flushes"] == 1


@pytest.mark.slow
class TestWorkerRecovery:
    """Pool-level faults; each grid must match the serial baseline."""

    def _cells(self):
        return [(0, spec) for spec in SWEEP_SPECS]

    def _serial(self, trace):
        return run_cells([trace], self._cells(), 1)

    def test_crashed_chunk_is_retried(self, fault_env, tiny_trace):
        expected = self._serial(tiny_trace)
        fault_env("worker-crash@1")
        results = run_cells([tiny_trace], self._cells(), 2)
        assert results == expected
        stats = recovery_stats()
        assert stats["retries"] >= 1
        assert stats["timeouts"] == 0
        assert stats["serial_cells"] == 0

    def test_persistent_crashes_fall_back_to_serial(
        self, fault_env, tiny_trace
    ):
        expected = self._serial(tiny_trace)
        fault_env("worker-crash@1-")
        with pytest.warns(RuntimeWarning, match="computing .* serially"):
            results = run_cells([tiny_trace], self._cells(), 2)
        assert results == expected
        stats = recovery_stats()
        # Every chunk exhausted its retries, then ran in the parent.
        assert stats["serial_cells"] == len(self._cells())
        assert stats["retries"] > 0

    def test_hung_worker_times_out_and_finishes_serially(
        self, fault_env, monkeypatch, tiny_trace
    ):
        expected = self._serial(tiny_trace)
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1")
        fault_env("worker-hang@1")
        with pytest.warns(RuntimeWarning, match="timeout"):
            results = run_cells([tiny_trace], self._cells(), 2)
        assert results == expected
        stats = recovery_stats()
        assert stats["timeouts"] == 1
        assert stats["serial_cells"] == len(self._cells())
