"""Equivalence tests: the scan engine vs the generic engine.

The scan engine replaces the per-branch counter loop with run-length
grouping and clamped-add map composition; its correctness argument is
bit-identity with ``repro.sim.engine.simulate`` — same SimulationResult,
same final counter values, same agree-bias bits, same final history
register — across every always-update spec family it claims, plus a
hypothesis property pinning the standalone ``counter_scan`` kernel to a
scalar saturating-counter oracle (including the wide-counter re-clamped
Hillis–Steele branch) and one over randomly generated traces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.scan import counter_scan, scan_supports, simulate_scan
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

#: Every spec family the scan engine claims, including degenerate
#: geometries (one-entry tables, h=0 (PC-indexed), history folding
#: (h > index bits), 1-bit counters).
SCAN_SPECS = [
    "bimodal:256",
    "bimodal:256:c1",
    "gshare:256:h4",
    "gshare:256:h8",  # history == index bits (pure XOR)
    "gshare:64:h10",  # history > index bits (XOR folding)
    "gshare:256:h0",  # degenerate: PC-indexed
    "gshare:1:h4",  # degenerate: one entry (index bits = 0)
    "gshare:256:h4:c1",
    "gselect:256:h4",
    "gselect:1:h4",  # degenerate: one entry
    "gselect:256:h6:c1",
    "gskew:1x256:h6:partial",  # single bank: PARTIAL == always-update
    "gskew:1x256:h6:total",
    "gskew:3x256:h6:total",
    "gskew:3x256:h6:total:c1",
    "gskew:5x128:h6:total",
    "egskew:3x256:h6:total",
    "agree:256:h5",
    "agree:256:h0",
]

#: Specs with no scan path: LAZY and multi-bank PARTIAL read the
#: prediction before training, so their transitions are not clamped-add
#: maps (they run on the native walk or the vectorized loop), and
#: fa/unaliased have no closed-form index streams at all.
NO_SCAN_SPECS = [
    "gskew:3x256:h6:lazy",
    "egskew:3x256:h6:lazy",
    "gskew:3x16:h4:partial",
    "gskew:1x256:h6:lazy",
    "gskew:3x1k:h6:partial",
    "egskew:3x1k:h6:partial",
    "fa:64:h4",
    "unaliased:h6",
]


def _full_state(predictor):
    """Snapshot all mutable predictor state (counters, bias, history)."""
    if hasattr(predictor, "banks"):
        counters = [list(bank.counters.values) for bank in predictor.banks]
    elif hasattr(predictor, "bank"):
        counters = [list(predictor.bank.counters.values)]
    else:  # agree: PHT + bias latches
        counters = [list(predictor.pht.counters.values), list(predictor._bias)]
    history = getattr(predictor, "history", None)
    return counters, None if history is None else history.value


class TestEquivalence:
    @pytest.mark.parametrize("spec", SCAN_SPECS)
    def test_identical_to_generic_engine(self, spec, small_trace):
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        assert scan_supports(candidate, small_trace), spec

        expected = simulate(reference, small_trace, label=spec)
        actual = simulate_scan(candidate, small_trace, label=spec)

        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)

    @pytest.mark.parametrize(
        "spec", ["gshare:128:h6", "gskew:3x128:h5:total", "agree:128:h5"]
    )
    @pytest.mark.parametrize("warmup", [1, 137, 10**9])
    def test_warmup_equivalence(self, spec, warmup, tiny_trace):
        expected = simulate(make_predictor(spec), tiny_trace, warmup=warmup)
        actual = simulate_scan(make_predictor(spec), tiny_trace, warmup=warmup)
        assert actual == expected

    @pytest.mark.parametrize("warmup", [0, 137])
    def test_wide_geometry_fallback(self, warmup, tiny_trace):
        # A 1M-entry gshare needs 20 key bits; with the trace's ~4k
        # events the packed-word layout would need 33 bits, so this
        # exercises the permutation-grouping fallback path.
        spec = "gshare:1M:h8"
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        expected = simulate(reference, tiny_trace, warmup=warmup)
        actual = simulate_scan(candidate, tiny_trace, warmup=warmup)
        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)


#: Hand-built corner traces: empty, single event, a run of two, pure
#: bias, strict alternation, and an unconditional-only stream.
DEGENERATE_TRACES = {
    "empty": ([], []),
    "one-taken": ([0x40], [1]),
    "one-not-taken": ([0x40], [0]),
    "two-same-slot": ([0x40, 0x40], [1, 0]),
    "all-taken": ([0x40, 0x44, 0x40, 0x44, 0x40], [1, 1, 1, 1, 1]),
    "alternating": ([0x40] * 8, [1, 0, 1, 0, 1, 0, 1, 0]),
}


class TestDegenerateTraces:
    @pytest.mark.parametrize("name", sorted(DEGENERATE_TRACES))
    @pytest.mark.parametrize(
        "spec", ["bimodal:4", "gshare:8:h3", "gskew:3x8:h3:total", "agree:8:h3"]
    )
    def test_matches_generic_engine(self, name, spec):
        pcs, takens = DEGENERATE_TRACES[name]
        trace = Trace.from_columns(
            pcs, takens, [1] * len(pcs), name=f"degenerate-{name}"
        )
        expected = simulate(make_predictor(spec), trace)
        actual = simulate_scan(make_predictor(spec), trace)
        assert actual == expected

    def test_unconditionals_only(self):
        trace = Trace.from_columns([0x40, 0x44], [1, 1], [0, 0])
        spec = "gshare:8:h3"
        expected = simulate(make_predictor(spec), trace)
        actual = simulate_scan(make_predictor(spec), trace)
        assert actual == expected
        assert actual.conditional_branches == 0


class TestDispatch:
    @pytest.mark.parametrize("spec", NO_SCAN_SPECS)
    def test_unscannable_predictors_are_rejected(self, spec, tiny_trace):
        predictor = make_predictor(spec)
        assert not scan_supports(predictor, tiny_trace)
        with pytest.raises(ValueError, match="no scan path"):
            simulate_scan(predictor, tiny_trace)

    def test_negative_warmup_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="warmup"):
            simulate_scan(make_predictor("bimodal:64"), tiny_trace, warmup=-1)

    def test_simulate_fast_routes_always_update_to_scan(
        self, tiny_trace, monkeypatch
    ):
        import repro.sim.scan as scan_module

        # The native C tier would take this spec first; disable it so
        # the test pins the scan tier's position in the ladder.
        monkeypatch.setenv("REPRO_NATIVE", "0")
        calls = []
        inner = scan_module.simulate_scan

        def spy(predictor, trace, **kwargs):
            calls.append(type(predictor).__name__)
            return inner(predictor, trace, **kwargs)

        monkeypatch.setattr(scan_module, "simulate_scan", spy)
        expected = simulate(make_predictor("gskew:3x128:h5:total"), tiny_trace)
        actual = simulate_fast(make_predictor("gskew:3x128:h5:total"), tiny_trace)
        assert actual == expected
        assert calls == ["SkewedPredictor"]

    def test_simulate_fast_keeps_partial_multibank_off_the_scan(
        self, tiny_trace, monkeypatch
    ):
        import repro.sim.scan as scan_module

        # Without the native walk, multi-bank PARTIAL skips the scan
        # and lands on the vectorized loop.
        monkeypatch.setenv("REPRO_NATIVE", "0")

        def forbidden(*args, **kwargs):  # pragma: no cover — would fail
            raise AssertionError("coupled spec dispatched to the scan engine")

        monkeypatch.setattr(scan_module, "simulate_scan", forbidden)
        spec = "gskew:3x128:h5:partial"
        expected = simulate(make_predictor(spec), tiny_trace)
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        assert actual == expected
        assert actual.engine == "vectorized"

    def test_simulate_fast_keeps_lazy_multibank_off_the_scan(
        self, tiny_trace, monkeypatch
    ):
        import repro.sim.scan as scan_module

        def forbidden(*args, **kwargs):  # pragma: no cover — would fail
            raise AssertionError("coupled spec dispatched to the scan engine")

        monkeypatch.setattr(scan_module, "simulate_scan", forbidden)
        spec = "gskew:3x128:h5:lazy"
        expected = simulate(make_predictor(spec), tiny_trace)
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        assert actual == expected


def _reference_counter_loop(keys, outcomes, init_values, threshold, vmax):
    """Scalar oracle: the per-event loop ``counter_scan`` replaces."""
    values = list(init_values)
    predictions = np.empty(len(keys), dtype=bool)
    for event, (key, taken) in enumerate(zip(keys, outcomes)):
        value = values[key]
        predictions[event] = value >= threshold
        if taken:
            if value < vmax:
                values[key] = value + 1
        elif value > 0:
            values[key] = value - 1
    return predictions, np.array(values, dtype=np.int64)


class TestCounterScanKernel:
    def test_empty_input(self):
        predictions, finals = counter_scan([], [], [0, 3], threshold=2, max_value=3)
        assert predictions.tolist() == []
        assert finals.tolist() == [0, 3]

    def test_saturation_both_ends(self):
        keys = [0] * 6 + [1] * 6
        outcomes = [True] * 6 + [False] * 6
        predictions, finals = counter_scan(
            keys, outcomes, [0, 3], threshold=2, max_value=3
        )
        expected, expected_finals = _reference_counter_loop(
            keys, outcomes, [0, 3], 2, 3
        )
        assert predictions.tolist() == expected.tolist()
        assert finals.tolist() == expected_finals.tolist() == [3, 0]

    # The composite strategy draws few distinct keys so runs get long
    # (exercising absorbing runs and multi-level composition) and
    # includes 13-bit counters, where the Hillis–Steele sweep must take
    # the re-clamped fallback once the doubling depth could overflow
    # the unclamped int16 displacement bound.
    @given(
        data=st.data(),
        table_size=st.integers(1, 6),
        max_value=st.sampled_from([1, 3, 7, (1 << 13) - 1]),
        length=st.integers(0, 160),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_oracle(self, data, table_size, max_value, length):
        threshold = data.draw(st.integers(1, max_value), label="threshold")
        keys = data.draw(
            st.lists(
                st.integers(0, table_size - 1),
                min_size=length,
                max_size=length,
            ),
            label="keys",
        )
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="outcomes",
        )
        init = data.draw(
            st.lists(
                st.integers(0, max_value),
                min_size=table_size,
                max_size=table_size,
            ),
            label="init",
        )
        predictions, finals = counter_scan(
            keys, outcomes, init, threshold, max_value
        )
        expected, expected_finals = _reference_counter_loop(
            keys, outcomes, init, threshold, max_value
        )
        assert predictions.tolist() == expected.tolist()
        assert finals.tolist() == expected_finals.tolist()

    @given(
        spec=st.sampled_from(
            [
                "bimodal:8",
                "gshare:16:h4",
                "gselect:16:h3",
                "gskew:3x16:h3:total",
                "agree:16:h3",
            ]
        ),
        trace=trace_strategy(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_traces_match_generic_engine(self, spec, trace):
        expected = simulate(make_predictor(spec), trace)
        actual = simulate_scan(make_predictor(spec), trace)
        assert actual == expected
