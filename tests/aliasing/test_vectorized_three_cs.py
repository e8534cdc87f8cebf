"""Equivalence tests for the one-pass vectorized 3Cs engine.

The contract under test is *bit identity*: for every workload, scheme,
table size and history length the vectorized engine must reproduce the
streaming reference's integer counts exactly — same dataclass, ``==``
equal — including the degenerate corners (one-entry tables, no history,
empty traces).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.aliasing.distance import LastUseDistanceTracker
from repro.aliasing.three_cs import (
    measure_aliasing,
    measure_aliasing_reference,
    pair_index_fn,
    pair_stream,
)
from repro.aliasing.vectorized import (
    last_use_distances,
    measure_aliasing_sweep,
    measure_aliasing_vectorized,
    pair_columns,
    pair_keys,
    pair_last_use_distances,
    scheme_indices,
    supports,
)
from repro.traces.synthetic.workloads import IBS_BENCHMARKS, ibs_trace
from repro.traces.trace import BranchRecord, Trace

#: Scale keeping the 6-benchmark equivalence sweep affordable in CI.
EQUIV_SCALE = 0.04

SCHEMES = ("gshare", "gselect")


def _empty_trace() -> Trace:
    return Trace.from_records([], name="empty")


class TestPairStreamEquivalence:
    @pytest.mark.parametrize("history_bits", [0, 1, 6, 20])
    def test_pair_columns_matches_pair_stream(
        self, small_trace, history_bits
    ):
        words, histories = pair_columns(small_trace, history_bits)
        expected = list(pair_stream(small_trace, history_bits))
        assert len(words) == len(histories) == len(expected)
        actual = list(zip((int(w) for w in words), (int(h) for h in histories)))
        assert actual == expected

    def test_pair_columns_rejects_unsupported_history(self, tiny_trace):
        with pytest.raises(ValueError):
            pair_columns(tiny_trace, 64)

    def test_pair_columns_empty_trace(self):
        words, histories = pair_columns(_empty_trace(), 4)
        assert len(words) == 0 and len(histories) == 0

    @pytest.mark.parametrize("history_bits", [0, 6])
    def test_pair_keys_factorisation(self, small_trace, history_bits):
        # Contract: equal keys exactly where the (word, history) pairs
        # are equal — the only property the distance/tag instruments use.
        words, histories = pair_columns(small_trace, history_bits)
        keys = pair_keys(words, histories, history_bits)
        pairs = list(zip(words.tolist(), histories.tolist()))
        by_pair = {}
        for pair, key in zip(pairs, keys.tolist()):
            by_pair.setdefault(pair, set()).add(key)
        assert all(len(ks) == 1 for ks in by_pair.values())
        assert len({ks.pop() for ks in by_pair.values()}) == len(by_pair)

    def test_pair_keys_packing_fast_path(self):
        words = np.array([3, 3, 7], dtype=np.uint64)
        histories = np.array([1, 2, 1], dtype=np.uint64)
        keys = pair_keys(words, histories, history_bits=4)
        assert keys.tolist() == [(3 << 4) | 1, (3 << 4) | 2, (7 << 4) | 1]

    def test_pair_keys_rank_compression_fallback(self):
        # A word address too large for the shift packing forces the
        # rank-compression path; factorisation must still be exact.
        words = np.array(
            [1 << 62, 5, 1 << 62, 5, 9], dtype=np.uint64
        )
        histories = np.array([1, 2, 1, 3, 2], dtype=np.uint64)
        keys = pair_keys(words, histories, history_bits=4)
        assert keys[0] == keys[2]
        distinct = {(int(w), int(h)) for w, h in zip(words, histories)}
        assert len(set(keys.tolist())) == len(distinct)


class TestSchemeIndexEquivalence:
    @pytest.mark.parametrize("scheme", ("gshare", "gselect", "bimodal"))
    @pytest.mark.parametrize("index_bits", [0, 3, 7])
    @pytest.mark.parametrize("history_bits", [0, 4, 10])
    def test_matches_scalar_index_fn(
        self, small_trace, scheme, index_bits, history_bits
    ):
        # Covers both gshare folding regimes (history_bits <=/> index
        # bits), both gselect regimes, and the index_bits = 0 corner that
        # once hung the scalar engine.
        words, histories = pair_columns(small_trace, history_bits)
        vectorized = scheme_indices(
            scheme, words, histories, index_bits, history_bits
        )
        reference = pair_index_fn(scheme, index_bits, history_bits)
        expected = [
            reference((int(w), int(h))) for w, h in zip(words, histories)
        ]
        assert vectorized.tolist() == expected

    def test_unknown_scheme_rejected(self, tiny_trace):
        words, histories = pair_columns(tiny_trace, 4)
        with pytest.raises(ValueError):
            scheme_indices("perceptron", words, histories, 5, 4)
        with pytest.raises(ValueError):
            scheme_indices("perceptron", words, histories, 5, 0)


class TestDistanceEquivalence:
    def test_matches_streaming_tracker_random_streams(self):
        rng = random.Random(2024)
        for trial in range(8):
            n = rng.randint(1, 400)
            keys = np.array(
                [rng.randrange(1, 40) for _ in range(n)], dtype=np.uint64
            )
            tracker = LastUseDistanceTracker(capacity=n)
            expected = [tracker.reference(int(k)) for k in keys]
            actual = last_use_distances(keys)
            assert [None if d < 0 else int(d) for d in actual] == expected

    def test_matches_streaming_tracker_on_trace(self, small_trace):
        distances = pair_last_use_distances(small_trace, history_bits=6)
        tracker = LastUseDistanceTracker(capacity=len(small_trace))
        expected = [
            tracker.reference(pair)
            for pair in pair_stream(small_trace, history_bits=6)
        ]
        assert [None if d < 0 else int(d) for d in distances] == expected

    def test_empty_stream(self):
        assert len(last_use_distances(np.empty(0, dtype=np.uint64))) == 0


class TestBitIdentity:
    @pytest.mark.parametrize("workload", IBS_BENCHMARKS)
    def test_all_ibs_workloads(self, workload):
        trace = ibs_trace(workload, scale=EQUIV_SCALE)
        sizes = [32, 256, 2048]
        sweep = measure_aliasing_sweep(trace, sizes, 4, schemes=SCHEMES)
        for entries in sizes:
            reference = measure_aliasing_reference(
                trace, entries, 4, schemes=SCHEMES
            )
            assert sweep[entries] == reference

    @pytest.mark.parametrize("history_bits", [0, 1, 4, 12])
    def test_history_lengths(self, small_trace, history_bits):
        vectorized = measure_aliasing_vectorized(
            small_trace, 128, history_bits, schemes=SCHEMES
        )
        reference = measure_aliasing_reference(
            small_trace, 128, history_bits, schemes=SCHEMES
        )
        assert vectorized == reference

    def test_single_entry_table(self, tiny_trace):
        assert measure_aliasing_vectorized(
            tiny_trace, 1, 4, schemes=SCHEMES
        ) == measure_aliasing_reference(tiny_trace, 1, 4, schemes=SCHEMES)

    def test_empty_trace(self):
        trace = _empty_trace()
        assert measure_aliasing_vectorized(
            trace, 64, 4, schemes=SCHEMES
        ) == measure_aliasing_reference(trace, 64, 4, schemes=SCHEMES)

    def test_unconditional_only_trace(self):
        trace = Trace.from_records(
            [BranchRecord(pc=0x100, taken=True, conditional=False)] * 6,
            name="jumps",
        )
        assert measure_aliasing_vectorized(
            trace, 64, 4, schemes=SCHEMES
        ) == measure_aliasing_reference(trace, 64, 4, schemes=SCHEMES)

    def test_bimodal_scheme(self, tiny_trace):
        assert measure_aliasing_vectorized(
            tiny_trace, 64, 4, schemes=("bimodal",)
        ) == measure_aliasing_reference(
            tiny_trace, 64, 4, schemes=("bimodal",)
        )


class TestSweepConsistency:
    def test_sweep_equals_single_size_calls(self, tiny_trace):
        sizes = [1, 64, 512]
        sweep = measure_aliasing_sweep(tiny_trace, sizes, 4, schemes=SCHEMES)
        assert sorted(sweep) == sorted(sizes)
        for entries in sizes:
            assert sweep[entries] == measure_aliasing_vectorized(
                tiny_trace, entries, 4, schemes=SCHEMES
            )

    def test_rejects_bad_sizes_before_working(self, tiny_trace):
        with pytest.raises(ValueError):
            measure_aliasing_sweep(tiny_trace, [64, 100], 4)
        with pytest.raises(ValueError):
            measure_aliasing_sweep(tiny_trace, [0], 4)


class TestDispatch:
    def test_auto_uses_vectorized_when_supported(self, tiny_trace):
        assert supports(4)
        assert measure_aliasing(
            tiny_trace, 64, 4
        ) == measure_aliasing_reference(tiny_trace, 64, 4)

    def test_auto_falls_back_on_long_history(self, tiny_trace):
        assert not supports(64)
        auto = measure_aliasing(tiny_trace, 64, 64, schemes=("gselect",))
        reference = measure_aliasing_reference(
            tiny_trace, 64, 64, schemes=("gselect",)
        )
        assert auto == reference

    def test_explicit_vectorized_rejects_long_history(self, tiny_trace):
        with pytest.raises(ValueError, match="history bits"):
            measure_aliasing_vectorized(tiny_trace, 64, 64)
