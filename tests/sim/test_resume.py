"""Warm-history resume equivalence: split runs == one run, per tier.

The serving layer feeds each tenant's stream to the engines as a
sequence of micro-batches, so every fast tier must now handle a
predictor whose global history register is *non-zero* at trace start —
the seed-threading added alongside serving.  These tests pin that
contract at the engine level, independent of any serving machinery:
running a trace in two (or many) pieces on one warm predictor is
bit-identical to running it whole, for every tier that expresses the
family.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import make_predictor
from repro.sim.engine import simulate, simulate_stream
from repro.sim.native import native_available, native_supports, simulate_native
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast, simulate_vectorized, supports
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

SPLIT_SPECS = [
    "bimodal:128",
    "gshare:128:h6",
    "gshare:32:h9",  # folding: history wider than index
    "gselect:128:h4",
    "gskew:3x128:h5:total",
    "gskew:3x128:h5:partial",
    "gskew:1x128:h5:lazy",
    "gskew:3x128:h5:lazy",  # multi-bank LAZY: native walk or the loop
    "gskew:3x16:h4:partial",  # dense PARTIAL: native walk or the loop
    "egskew:3x128:h6:partial",
    "agree:128:h6",  # bias latches carry across pieces
]


def _digest(predictor) -> str:
    return PredictorState.capture(predictor).digest()


def _run_split(engine, gate, spec, trace, cuts):
    """Run ``trace`` through ``engine`` in pieces at ``cuts``; the warm
    predictor carries across pieces.  Returns (misses, digest)."""
    predictor = make_predictor(spec)
    bounds = [0, *sorted(cuts), len(trace)]
    misses = 0
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        part = trace.slice(lo, hi)
        if gate is not None and not gate(predictor, part):
            pytest.skip(f"{spec}: tier does not express this family")
        misses += engine(predictor, part, label=spec).mispredictions
    return misses, _digest(predictor)


TIERS = [
    ("generic", simulate, None),
    ("vectorized", simulate_vectorized, lambda p, t: supports(p, t)),
    (
        "native",
        simulate_native,
        lambda p, t: native_available() and native_supports(p, t),
    ),
    ("fast", simulate_fast, None),
]

#: Whether the vectorized tier expresses a family does not depend on
#: the trace, so its column lists only the specs it takes; the native
#: column skips at run time when the backend cannot build.
_PROBE = Trace.from_columns([0x40], [1], [1], name="probe")
SPLIT_CASES = [
    pytest.param(tier, engine, gate, spec, id=f"{spec}-{tier}")
    for spec in SPLIT_SPECS
    for tier, engine, gate in TIERS
    if tier != "vectorized" or gate(make_predictor(spec), _PROBE)
]


class TestWarmResume:
    @pytest.mark.parametrize("tier,engine,gate,spec", SPLIT_CASES)
    def test_split_run_equals_whole_run(self, tier, engine, gate, spec,
                                        small_trace):
        whole = simulate(make_predictor(spec), small_trace, label=spec)
        reference = make_predictor(spec)
        simulate(reference, small_trace, label=spec)

        # Cuts chosen to land mid-history-window: the second piece starts
        # with a partially-filled register that the tier must seed from.
        misses, digest = _run_split(
            engine, gate, spec, small_trace,
            cuts=[3, len(small_trace) // 3, len(small_trace) - 5],
        )
        assert misses == whole.mispredictions
        assert digest == _digest(reference)

    @settings(max_examples=30, deadline=None)
    @given(
        trace=trace_strategy(max_length=200),
        cuts=st.lists(st.integers(0, 200), max_size=6),
        spec=st.sampled_from(
            [
                "gshare:64:h6",
                "gskew:3x64:h4:partial",
                "gskew:3x64:h4:lazy",
                "gskew:1x64:h4:lazy",
                "agree:64:h5",
            ]
        ),
    )
    def test_fast_ladder_any_cut_points(self, trace, cuts, spec):
        whole = simulate(make_predictor(spec), trace, label=spec)
        reference = make_predictor(spec)
        simulate(reference, trace, label=spec)
        cuts = [min(c, len(trace)) for c in cuts]
        misses, digest = _run_split(simulate_fast, None, spec, trace, cuts)
        assert misses == whole.mispredictions
        assert digest == _digest(reference)

    @pytest.mark.parametrize("spec", ["gshare:128:h7", "gskew:3x128:h5:total"])
    def test_single_event_batches(self, spec, tiny_trace):
        """The pathological case: every batch is one event long."""
        whole = simulate(make_predictor(spec), tiny_trace, label=spec)
        reference = make_predictor(spec)
        simulate(reference, tiny_trace, label=spec)
        misses, digest = _run_split(
            simulate_fast, None, spec, tiny_trace,
            cuts=list(range(1, len(tiny_trace))),
        )
        assert misses == whole.mispredictions
        assert digest == _digest(reference)


class TestSimulateStream:
    """The reference batched-continuation entry point in the engine."""

    def test_stream_equals_whole(self, small_trace):
        spec = "gshare:128:h6"
        whole = simulate(make_predictor(spec), small_trace, label=spec)
        predictor = make_predictor(spec)
        batches = [
            small_trace.slice(lo, min(lo + 33, len(small_trace)))
            for lo in range(0, len(small_trace), 33)
        ]
        streamed = simulate_stream(predictor, batches, label=spec)
        assert streamed.mispredictions == whole.mispredictions
        assert streamed.conditional_branches == whole.conditional_branches

    def test_empty_stream(self):
        predictor = make_predictor("bimodal:64")
        result = simulate_stream(predictor, [])
        assert result.conditional_branches == 0
        assert result.mispredictions == 0

    def test_stride_split_round_trips_events(self, small_trace):
        parts = small_trace.stride_split(3)
        assert sum(len(p) for p in parts) == len(small_trace)
        assert [int(p.pcs[0]) for p in parts] == [
            int(small_trace.pcs[i]) for i in range(3)
        ]
