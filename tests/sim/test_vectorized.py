"""Equivalence tests: the vectorized engine vs the generic engine.

The vectorized engine precomputes per-bank index streams with numpy and
must be *bit-identical* to ``repro.sim.engine.simulate`` — same
SimulationResult, same final counter values, agree-bias bits and
history register — for every supported predictor family, across all
three gskew update policies.  Unsupported predictors must fall back
cleanly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.egskew import EnhancedSkewedPredictor
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.vectorized import (
    history_stream,
    simulate_fast,
    simulate_vectorized,
    supports,
)

from tests.strategies import traces as trace_strategy

#: Every spec family the vectorized engine claims to support, including
#: all three skewed-update policies, 1/3/5-bank gskew, gshare history
#: folding (h > index bits), agree's bias latch and 1-bit counters.
SUPPORTED_SPECS = [
    "bimodal:256",
    "bimodal:256:c1",
    "gshare:256:h4",
    "gshare:256:h8",  # history == index bits (pure XOR)
    "gshare:64:h10",  # history > index bits (XOR folding)
    "gshare:256:h0",  # degenerate: PC-indexed
    "gshare:1:h4",  # degenerate: one entry (index bits = 0, hung once)
    "gshare:256:h4:c1",
    "gselect:256:h4",
    "gselect:1:h4",  # degenerate: one entry
    "gselect:256:h6:c1",
    "gskew:1x256:h6:partial",
    "gskew:1x256:h6:lazy",
    "gskew:3x256:h6:partial",
    "gskew:3x256:h6:total",
    "gskew:3x256:h6:lazy",
    "gskew:3x256:h6:partial:c1",
    "gskew:5x128:h6:partial",
    "gskew:5x128:h6:total",
    "egskew:3x256:h6:partial",
    "egskew:3x256:h6:total",
    "egskew:3x256:h6:lazy",
    "agree:256:h5",
    "agree:256:h0",  # degenerate: PC-indexed PHT
    "agree:64:h10",  # history > index bits (XOR folding)
]

UNSUPPORTED_SPECS = [
    "fa:64:h4",
    "unaliased:h6",
]


def _counter_state(predictor):
    """Snapshot every saturating counter (and agree-bias bit)."""
    if hasattr(predictor, "pht"):
        return [list(predictor.pht.counters.values), list(predictor._bias)]
    if hasattr(predictor, "banks"):
        return [list(bank.counters.values) for bank in predictor.banks]
    if hasattr(predictor, "bank"):
        return [list(predictor.bank.counters.values)]
    return None


def _history_state(predictor):
    history = getattr(predictor, "history", None)
    return None if history is None else history.value


class TestEquivalence:
    @pytest.mark.parametrize("spec", SUPPORTED_SPECS)
    def test_identical_to_generic_engine(self, spec, small_trace):
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        assert supports(candidate, small_trace), spec

        expected = simulate(reference, small_trace, label=spec)
        actual = simulate_vectorized(candidate, small_trace, label=spec)

        assert actual == expected
        assert _counter_state(candidate) == _counter_state(reference)
        assert _history_state(candidate) == _history_state(reference)

    @pytest.mark.parametrize("warmup", [1, 137, 10**9])
    def test_warmup_equivalence(self, warmup, tiny_trace):
        spec = "gskew:3x128:h5:partial"
        expected = simulate(make_predictor(spec), tiny_trace, warmup=warmup)
        actual = simulate_vectorized(
            make_predictor(spec), tiny_trace, warmup=warmup
        )
        assert actual == expected

    @pytest.mark.parametrize("warmup", [0, 137])
    def test_agree_aliased_bias_slots(self, warmup, small_trace):
        # A bias table smaller than the PHT: branches share biasing
        # bits, so a slot's latch comes from whichever branch runs first.
        from repro.predictors.agree import AgreePredictor

        reference = AgreePredictor(8, 5, bias_table_bits=3)
        candidate = AgreePredictor(8, 5, bias_table_bits=3)
        expected = simulate(reference, small_trace, warmup=warmup)
        actual = simulate_vectorized(candidate, small_trace, warmup=warmup)
        assert actual == expected
        assert _counter_state(candidate) == _counter_state(reference)

    def test_egskew_bank0_history_ablation(self, tiny_trace):
        reference = EnhancedSkewedPredictor(
            bank_index_bits=7, history_bits=5, bank0_history_bits=3
        )
        candidate = EnhancedSkewedPredictor(
            bank_index_bits=7, history_bits=5, bank0_history_bits=3
        )
        assert supports(candidate, tiny_trace)
        expected = simulate(reference, tiny_trace)
        actual = simulate_vectorized(candidate, tiny_trace)
        assert actual == expected
        assert _counter_state(candidate) == _counter_state(reference)


class TestFuzzEquivalence:
    # The no-compiler tier: every family the native walk takes, agree's
    # bias latch included, with tiny tables so aliasing is heavy.
    @given(
        spec=st.sampled_from(
            [
                "bimodal:8",
                "gshare:16:h4",
                "gselect:16:h3",
                "gskew:1x16:h3:partial",
                "gskew:3x16:h3:total",
                "gskew:3x16:h3:partial",
                "gskew:3x16:h3:lazy",
                "egskew:3x16:h3:partial",
                "agree:8:h3",
                "agree:16:h4",
            ]
        ),
        trace=trace_strategy(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_traces_match_generic_engine(self, spec, trace):
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        expected = simulate(reference, trace)
        actual = simulate_vectorized(candidate, trace)
        assert actual == expected
        assert _counter_state(candidate) == _counter_state(reference)
        assert _history_state(candidate) == _history_state(reference)


class TestDispatch:
    @pytest.mark.parametrize("spec", UNSUPPORTED_SPECS)
    def test_unsupported_predictors_are_rejected(self, spec, tiny_trace):
        predictor = make_predictor(spec)
        assert not supports(predictor, tiny_trace)
        with pytest.raises(ValueError, match="no vectorized path"):
            simulate_vectorized(predictor, tiny_trace)

    @pytest.mark.parametrize("spec", UNSUPPORTED_SPECS)
    def test_simulate_fast_falls_back(self, spec, tiny_trace):
        expected = simulate(make_predictor(spec), tiny_trace, label=spec)
        actual = simulate_fast(make_predictor(spec), tiny_trace, label=spec)
        assert actual == expected

    def test_custom_skew_family_falls_back(self, tiny_trace):
        from repro.core.gskew import SkewedPredictor
        from repro.core.skew import skew_function_family

        functions = skew_function_family(7, banks=3)
        predictor = SkewedPredictor(
            bank_index_bits=7, history_bits=5, functions=functions
        )
        # Explicit functions may be anything; the closed-form index
        # streams only cover the default family.
        assert not supports(predictor, tiny_trace)

    def test_negative_warmup_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="warmup"):
            simulate_vectorized(
                make_predictor("bimodal:64"), tiny_trace, warmup=-1
            )

    def test_retired_scan_entry_point_raises(self, tiny_trace):
        # The benchmark's span recorder still wraps this name by module
        # lookup; it must stay a distinct function (the recorder rebinds
        # aliases by identity) that refuses to run anything.
        from repro.sim.engine import simulate as generic
        from repro.sim.native import simulate_native
        from repro.sim.scan import simulate_scan

        live = (generic, simulate_fast, simulate_vectorized, simulate_native)
        assert all(simulate_scan is not engine for engine in live)
        with pytest.raises(ValueError, match="simulate_fast"):
            simulate_scan(make_predictor("gshare:64:h4"), tiny_trace)


class TestHistoryStream:
    def test_matches_scalar_shift_register(self):
        rng = np.random.default_rng(3)
        takens = rng.integers(0, 2, size=200, dtype=np.uint8)
        bits = 6
        stream = history_stream(takens, bits)

        value = 0
        mask = (1 << bits) - 1
        for i, taken in enumerate(takens):
            assert stream[i] == value
            value = ((value << 1) | int(taken)) & mask
        assert len(stream) == len(takens)

    def test_zero_bits(self):
        takens = np.array([1, 0, 1], dtype=np.uint8)
        assert history_stream(takens, 0).tolist() == [0, 0, 0]
