"""Equivalence tests: the native C walk vs the generic engine.

The native engine runs the whole predictor — per branch, read one
counter per bank, vote, train under TOTAL, PARTIAL or LAZY — as one
sequential C loop over precomputed index streams (agree as one table
scored against the bias its prediction read).  Its correctness argument
is bit-identity with ``repro.sim.engine.simulate`` — same
SimulationResult, same final counter values, agree-bias bits and
history register — across every spec family it claims, plus a
differential fuzz pinning the single cffi entry point ``repro_walk`` to
a scalar oracle (the R006 lint rule requires every kernel entry point
to be referenced here by name).

The whole module degrades cleanly when the backend cannot build: every
test that needs the compiled kernel skips with an explicit reason, and
the dispatch tests that *disable* it (``REPRO_NATIVE=0``) keep running,
so the suite is green both with and without a C compiler.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.update import UpdatePolicy
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import (
    _backend,
    compiler_info,
    native_available,
    native_supports,
    run_lazy1_kernel,
    run_partial_kernel,
    run_table_kernel,
    simulate_native,
)
from repro.sim.profile import StageTimer
from repro.sim.vectorized import forced_engine, simulate_fast
from repro.traces.synthetic.workloads import ibs_trace
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="native backend unavailable (no C compiler, no cffi, or "
    "REPRO_NATIVE=0); the vectorized tier covers these specs",
)

#: Every spec family the native engine claims, including degenerate
#: geometries (one-entry tables, h=0, history folding, 1-bit counters)
#: and every update policy on 1, 3 and 5 banks.
NATIVE_SPECS = [
    "bimodal:256",
    "bimodal:256:c1",
    "bimodal:1",  # degenerate: one entry
    "gshare:256:h4",
    "gshare:256:h8",  # history == index bits (pure XOR)
    "gshare:64:h10",  # history > index bits (XOR folding)
    "gshare:256:h0",  # degenerate: PC-indexed
    "gshare:1:h4",  # degenerate: one entry
    "gshare:256:h4:c1",
    "gselect:256:h4",
    "gselect:1:h4",
    "gskew:1x256:h6:partial",  # single bank: PARTIAL == always-update
    "gskew:1x256:h6:total",
    "gskew:1x256:h6:lazy",  # single-bank LAZY: train-on-miss
    "gskew:3x256:h6:total",
    "gskew:3x256:h6:total:c1",
    "gskew:5x128:h6:total",
    "egskew:3x256:h6:total",
    "gskew:3x256:h6:partial",  # the paper's flagship policy
    "gskew:5x128:h5:partial",  # 5-bank majority
    "egskew:3x256:h6:partial",
    "gskew:3x256:h6:lazy",  # multi-bank LAZY: counters freeze on hits
    "gskew:5x128:h5:lazy",
    "egskew:3x256:h6:lazy",
    "agree:256:h5",  # one table scored against the pre-latch bias
    "agree:256:h0",  # degenerate: PC-indexed PHT
    "agree:64:h10",  # history > index bits (XOR folding)
]

#: Specs with no native path: schemes with no closed-form index streams.
NO_NATIVE_SPECS = [
    "fa:64:h4",
    "unaliased:h6",
]

#: The walk matrix: every table family x every update policy on 1, 3
#: and 5 banks, checked from a cold start and with a mid-trace warmup.
WALK_MATRIX = [
    "bimodal:512",
    "gshare:512:h8",
    "gselect:512:h5",
    *(
        f"gskew:{banks}x128:h6:{policy}"
        for banks in (1, 3, 5)
        for policy in ("total", "partial", "lazy")
    ),
    "egskew:3x128:h6:total",
    "egskew:3x128:h6:partial",
    "egskew:3x128:h6:lazy",
    "agree:512:h8",
    "agree:64:h10",
]


def _full_state(predictor):
    """Snapshot all mutable predictor state (counters, bias, history)."""
    if hasattr(predictor, "pht"):
        counters = [list(predictor.pht.counters.values), list(predictor._bias)]
    elif hasattr(predictor, "banks"):
        counters = [list(bank.counters.values) for bank in predictor.banks]
    else:
        counters = [list(predictor.bank.counters.values)]
    history = getattr(predictor, "history", None)
    return counters, None if history is None else history.value


def _assert_walk_matches_generic(spec, trace, warmup=0):
    reference = make_predictor(spec)
    candidate = make_predictor(spec)
    assert native_supports(candidate, trace), spec
    expected = simulate(reference, trace, warmup=warmup, label=spec)
    actual = simulate_native(candidate, trace, warmup=warmup, label=spec)
    assert actual == expected
    assert actual.engine == "native"
    assert _full_state(candidate) == _full_state(reference)


@requires_native
class TestEquivalence:
    @pytest.mark.parametrize("spec", NATIVE_SPECS)
    def test_identical_to_generic_engine(self, spec, small_trace):
        _assert_walk_matches_generic(spec, small_trace)

    @pytest.mark.parametrize(
        "spec",
        [
            "gshare:128:h6",
            "gskew:3x128:h5:total",
            "bimodal:128",
            "agree:128:h5",
        ],
    )
    @pytest.mark.parametrize("warmup", [1, 137, 10**9])
    def test_warmup_equivalence(self, spec, warmup, tiny_trace):
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        expected = simulate(reference, tiny_trace, warmup=warmup)
        actual = simulate_native(candidate, tiny_trace, warmup=warmup)
        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)

    def test_warm_tables_are_honored(self, tiny_trace):
        # Counter state is read from the live predictor, so a second
        # run continues exactly where the generic engine would.  Like
        # every index-stream engine, history is assumed fresh, so the
        # history-free bimodal is the family member that can go twice.
        reference = make_predictor("bimodal:128")
        candidate = make_predictor("bimodal:128")
        simulate(reference, tiny_trace)
        simulate_native(candidate, tiny_trace)
        expected = simulate(reference, tiny_trace)
        actual = simulate_native(candidate, tiny_trace)
        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)


@requires_native
class TestWalkMatrix:
    @pytest.mark.parametrize("warmup", ["cold", "mid-trace"])
    @pytest.mark.parametrize("spec", WALK_MATRIX)
    def test_matches_generic_engine(self, spec, warmup, small_trace):
        cut = 0 if warmup == "cold" else len(small_trace) // 3
        _assert_walk_matches_generic(spec, small_trace, warmup=cut)

    @pytest.mark.parametrize(
        "spec", ["gskew:3x64:h4:partial", "gskew:3x1k:h4:lazy"]
    )
    def test_coupled_policies_on_a_full_ibs_trace(self, spec):
        # Dense PARTIAL (~1.5k events per entry) and multi-bank LAZY,
        # the policies no other compiled path expresses, over a whole
        # full-scale workload.
        _assert_walk_matches_generic(spec, ibs_trace("groff", 1.0))


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


@requires_native
class TestDegenerateTraces:
    @pytest.mark.parametrize("name", sorted(DEGENERATE_TRACES))
    @pytest.mark.parametrize(
        "spec",
        [
            "bimodal:4",
            "gshare:8:h3",
            "gskew:3x8:h3:total",
            "gskew:1x8:h3:lazy",
            "gskew:3x8:h3:partial",
            "gskew:3x8:h3:lazy",
            "agree:8:h3",
        ],
    )
    def test_matches_generic_engine(self, name, spec):
        pcs, takens = DEGENERATE_TRACES[name]
        trace = Trace.from_columns(
            pcs, takens, [1] * len(pcs), name=f"degenerate-{name}"
        )
        expected = simulate(make_predictor(spec), trace)
        actual = simulate_native(make_predictor(spec), trace)
        assert actual == expected

    def test_unconditionals_only(self):
        trace = Trace.from_columns([0x40, 0x44], [1, 1], [0, 0])
        spec = "gshare:8:h3"
        expected = simulate(make_predictor(spec), trace)
        actual = simulate_native(make_predictor(spec), trace)
        assert actual == expected
        assert actual.conditional_branches == 0


class TestDispatch:
    @pytest.mark.parametrize("spec", NO_NATIVE_SPECS)
    def test_coupled_predictors_are_rejected(self, spec, tiny_trace):
        predictor = make_predictor(spec)
        assert not native_supports(predictor, tiny_trace)
        if native_available():
            with pytest.raises(ValueError, match="no native path"):
                simulate_native(predictor, tiny_trace)

    @requires_native
    def test_negative_warmup_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="warmup"):
            simulate_native(
                make_predictor("bimodal:64"), tiny_trace, warmup=-1
            )

    @staticmethod
    def _spy_on_native(monkeypatch):
        import repro.sim.native as native_module

        calls = []
        inner = native_module.simulate_native

        def spy(predictor, trace, **kwargs):
            calls.append(type(predictor).__name__)
            return inner(predictor, trace, **kwargs)

        monkeypatch.setattr(native_module, "simulate_native", spy)
        return calls

    @requires_native
    def test_simulate_fast_routes_always_update_to_native(
        self, tiny_trace, monkeypatch
    ):
        calls = self._spy_on_native(monkeypatch)
        spec = "gskew:3x128:h5:total"
        expected = simulate(make_predictor(spec), tiny_trace)
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        assert actual == expected
        assert actual.engine == "native"
        assert calls == ["SkewedPredictor"]

    @requires_native
    @pytest.mark.parametrize(
        "spec", ["gskew:3x16:h4:partial", "gskew:3x128:h5:lazy"]
    )
    def test_simulate_fast_routes_coupled_policies_to_native(
        self, spec, tiny_trace, monkeypatch
    ):
        # Dense PARTIAL and multi-bank LAZY take the walk like any
        # other cell: it has no density or policy gate.
        calls = self._spy_on_native(monkeypatch)
        expected = simulate(make_predictor(spec), tiny_trace)
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        assert actual == expected
        assert actual.engine == "native"
        assert calls == ["SkewedPredictor"]

    @requires_native
    def test_stage_timer_splits_the_pass(self, tiny_trace):
        timer = StageTimer()
        simulate_native(
            make_predictor("gskew:3x128:h5:partial"),
            tiny_trace,
            stage_timer=timer,
        )
        assert {"precompute", "walk", "reduce"} == set(timer.totals)

    def test_compiler_info_shape(self, monkeypatch):
        # With a working toolchain: a dict with the compiler version
        # line and whether the backend is built.  With the compiler
        # masked (the no-compiler CI lane): None, never an exception —
        # the bench header must stay writable either way.
        info = compiler_info()
        if info is not None:
            assert isinstance(info, dict)
            assert isinstance(info["compiler"], str) and info["compiler"]
            assert info["native"] == native_available()
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        masked = compiler_info()
        if native_available():  # cached build: backend facts remain
            assert masked == {"compiler": None, "native": True}
        else:  # nothing to report at all
            assert masked is None

    def test_kernel_wrappers_fail_cleanly_without_backend(self, monkeypatch):
        # With the backend disabled, the walk wrapper — under every
        # name the benchmark tracer wraps — must raise the explicit
        # RuntimeError rather than crash or silently compute; the
        # no-compiler CI lane runs this with the toolchain genuinely
        # absent.
        monkeypatch.setenv("REPRO_NATIVE", "0")
        streams = [np.zeros(4, dtype=np.uint64)] * 3
        outcomes = np.ones(4, dtype=bool)
        values = np.zeros(6, dtype=np.int64)
        for kernel in (run_table_kernel, run_lazy1_kernel, run_partial_kernel):
            with pytest.raises(RuntimeError, match="native backend"):
                kernel(
                    streams, outcomes, values, UpdatePolicy.PARTIAL, 1, 3, 0
                )

    def test_repro_native_0_disables_the_tier(self, tiny_trace, monkeypatch):
        import repro.sim.native as native_module

        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not native_available()

        def forbidden(*args, **kwargs):  # pragma: no cover — would fail
            raise AssertionError("native engine dispatched while disabled")

        monkeypatch.setattr(native_module, "simulate_native", forbidden)
        spec = "gshare:128:h6"
        expected = simulate(make_predictor(spec), tiny_trace)
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        assert actual == expected
        assert actual.engine == "vectorized"  # fell through to the next tier

    @pytest.mark.parametrize(
        "spec", ["gshare:256:h4:c64", "gskew:3x64:h4:c64:partial"]
    )
    def test_wide_counters_skip_the_walk_quietly(self, spec, tiny_trace):
        # A 64-bit counter's max_value does not fit the walk's int64, so
        # native_supports must refuse it up front: no failed native
        # attempt, no rollback warning, straight to the vectorized loop.
        native_available()  # the one-time no-backend warning, if any
        expected = simulate(make_predictor(spec), tiny_trace)
        predictor = make_predictor(spec)
        assert not native_supports(predictor, tiny_trace)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            actual = simulate_fast(predictor, tiny_trace)
        assert actual == expected
        assert actual.engine == "vectorized"


class TestForcedEngine:
    def test_unset_means_no_force(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert forced_engine() is None

    def test_unknown_value_fails_loudly(self, monkeypatch, tiny_trace):
        # "grid" and "scan" named the fused sweep-grid engine and the
        # numpy scan tier, which are gone.
        for value in ("frobnicate", "grid", "scan"):
            monkeypatch.setenv("REPRO_ENGINE", value)
            with pytest.raises(ValueError, match="not a known engine"):
                forced_engine()
            with pytest.raises(ValueError, match="not a known engine"):
                simulate_fast(make_predictor("bimodal:64"), tiny_trace)

    @pytest.mark.parametrize("engine", ["generic", "vectorized", "native"])
    def test_forced_tier_is_recorded(self, engine, tiny_trace, monkeypatch):
        if engine == "native" and not native_available():
            pytest.skip("native backend unavailable; cannot force it")
        monkeypatch.setenv("REPRO_ENGINE", engine)
        spec = "gshare:128:h6"
        actual = simulate_fast(make_predictor(spec), tiny_trace)
        monkeypatch.delenv("REPRO_ENGINE")
        expected = simulate(make_predictor(spec), tiny_trace)
        assert actual == expected
        assert actual.engine == engine

    def test_forced_engine_failure_is_loud(self, tiny_trace, monkeypatch):
        # fa has no native path; a forced native run must raise, not
        # silently measure another tier.
        monkeypatch.setenv("REPRO_ENGINE", "native")
        with pytest.raises(ValueError, match="no native path"):
            simulate_fast(make_predictor("fa:64:h4"), tiny_trace)

    def test_engine_name_is_provenance_not_content(self, tiny_trace):
        # compare=False: results from different tiers stay equal.
        a = simulate(make_predictor("bimodal:64"), tiny_trace)
        b = simulate_fast(make_predictor("bimodal:64"), tiny_trace)
        assert a == b
        assert a.engine == "generic"
        assert b.engine in ("native", "vectorized")


def _reference_walk(
    bank_keys, outcomes, truth, bank_values, policy, threshold, vmax, warmup
):
    """Scalar oracle for ``repro_walk``: per-event majority vote over
    per-bank saturating counters, training toward ``outcomes`` under
    ``policy``, misses scored against ``truth`` and gated on
    ``warmup``."""
    banks = len(bank_keys)
    need = banks // 2 + 1
    misses = 0
    for event, taken in enumerate(outcomes):
        preds = [
            bank_values[b][bank_keys[b][event]] >= threshold
            for b in range(banks)
        ]
        vote = sum(preds) >= need
        wrong = vote != taken
        if vote != truth[event] and event >= warmup:
            misses += 1
        for b in range(banks):
            if policy is UpdatePolicy.LAZY and not wrong:
                continue
            if policy is UpdatePolicy.PARTIAL and not wrong:
                if preds[b] != taken:
                    continue
            key = bank_keys[b][event]
            v = bank_values[b][key]
            if taken:
                if v < vmax:
                    bank_values[b][key] = v + 1
            elif v > 0:
                bank_values[b][key] = v - 1
    return misses


@requires_native
class TestKernelEntryPoints:
    def test_repro_walk_empty_input(self):
        ffi, lib = _backend()
        values = np.array([0, 3], dtype=np.int64)
        empty = np.empty(0, dtype=np.uint8)
        misses = lib.repro_walk(
            ffi.from_buffer("uint64_t[]", np.empty(0, dtype=np.uint64)),
            ffi.from_buffer("uint8_t[]", empty),
            ffi.from_buffer("uint8_t[]", empty),
            0, 1, 0, 2, 3,
            ffi.from_buffer("int64_t[]", values),
            2, 0,
        )
        assert misses == 0
        assert values.tolist() == [0, 3]

    @pytest.mark.parametrize("banks", [0, 6])
    def test_repro_walk_rejects_unsupported_bank_counts(self, banks):
        # The kernel's per-event scratch holds at most five banks; it
        # must refuse (not overrun) anything else, and the wrapper turns
        # the refusal into a ValueError.
        ffi, lib = _backend()
        values = np.zeros(max(banks, 1) * 2, dtype=np.int64)
        index = np.zeros(max(banks, 1) * 4, dtype=np.uint64)
        ones = np.ones(4, dtype=np.uint8)
        misses = lib.repro_walk(
            ffi.from_buffer("uint64_t[]", index),
            ffi.from_buffer("uint8_t[]", ones),
            ffi.from_buffer("uint8_t[]", ones),
            4, banks, 0, 2, 3,
            ffi.from_buffer("int64_t[]", values),
            2, 0,
        )
        assert misses == -1
        assert not values.any()
        if banks:
            with pytest.raises(ValueError, match="1 to 5 banks"):
                run_table_kernel(
                    [np.zeros(4, dtype=np.uint64)] * banks,
                    np.ones(4, dtype=bool),
                    values,
                    UpdatePolicy.TOTAL,
                    2,
                    3,
                    0,
                )

    # Differential fuzz of repro_walk (via run_table_kernel's
    # marshalling) against the scalar oracle: small tables force heavy
    # aliasing, odd bank counts exercise the wrong-majority vote, every
    # policy draws, warmup straddles the trace, 1-bit counters hit both
    # saturation rails, and the truth stream is drawn independently of
    # the training outcomes.
    @given(
        data=st.data(),
        banks=st.sampled_from([1, 3, 5]),
        policy=st.sampled_from(list(UpdatePolicy)),
        entry_bits=st.integers(0, 3),
        max_value=st.sampled_from([1, 3, 7]),
        length=st.integers(0, 120),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_scalar_oracle(
        self, data, banks, policy, entry_bits, max_value, length
    ):
        table = 1 << entry_bits
        threshold = data.draw(st.integers(1, max_value), label="threshold")
        warmup = data.draw(st.integers(0, length + 1), label="warmup")
        bank_keys = [
            data.draw(
                st.lists(
                    st.integers(0, table - 1),
                    min_size=length,
                    max_size=length,
                ),
                label=f"keys{b}",
            )
            for b in range(banks)
        ]
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="outcomes",
        )
        truth = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="truth",
        )
        init = [
            data.draw(
                st.lists(
                    st.integers(0, max_value),
                    min_size=table,
                    max_size=table,
                ),
                label=f"init{b}",
            )
            for b in range(banks)
        ]

        values = np.concatenate(
            [np.asarray(bank, dtype=np.int64) for bank in init]
        )
        misses = run_table_kernel(
            [np.asarray(keys, dtype=np.uint64) for keys in bank_keys],
            np.asarray(outcomes, dtype=bool),
            values,
            policy,
            threshold,
            max_value,
            warmup,
            np.asarray(truth, dtype=bool),
        )

        oracle_values = [list(bank) for bank in init]
        expected = _reference_walk(
            bank_keys, outcomes, truth, oracle_values, policy, threshold,
            max_value, warmup,
        )
        assert misses == expected
        assert values.tolist() == [v for bank in oracle_values for v in bank]

    @given(
        spec=st.sampled_from(
            [
                "bimodal:8",
                "gshare:16:h4",
                "gselect:16:h3",
                "gskew:3x16:h3:total",
                "egskew:3x16:h3:total",
                "gskew:1x16:h3:lazy",
                "gskew:3x16:h3:partial",
                "gskew:5x8:h3:partial",
                "gskew:3x16:h3:lazy",
                "egskew:3x16:h3:lazy",
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
        actual = simulate_native(candidate, trace)
        assert actual == expected
        assert _full_state(candidate) == _full_state(reference)


def _reference_lazy1_loop(keys, outcomes, values, threshold, vmax, warmup):
    """Single-bank LAZY oracle, written independently of
    ``_reference_walk``: train only when the bank's own prediction is
    wrong."""
    misses = 0
    for event, taken in enumerate(outcomes):
        key = keys[event]
        wrong = (values[key] >= threshold) != taken
        if wrong and event >= warmup:
            misses += 1
        if wrong:
            v = values[key]
            if taken:
                if v < vmax:
                    values[key] = v + 1
            elif v > 0:
                values[key] = v - 1
    return misses


def _reference_partial_loop(
    bank_keys, outcomes, bank_values, threshold, vmax, warmup
):
    """PARTIAL oracle, written independently of ``_reference_walk``:
    majority vote; on a wrong vote every bank trains, on a correct vote
    only the banks whose own prediction matched the outcome."""
    banks = len(bank_keys)
    need = banks // 2 + 1
    misses = 0
    for event, taken in enumerate(outcomes):
        preds = [
            bank_values[b][bank_keys[b][event]] >= threshold
            for b in range(banks)
        ]
        vote_wrong = (sum(preds) >= need) != taken
        if vote_wrong and event >= warmup:
            misses += 1
        for b in range(banks):
            if vote_wrong or preds[b] == taken:
                key = bank_keys[b][event]
                v = bank_values[b][key]
                if taken:
                    if v < vmax:
                        bank_values[b][key] = v + 1
                elif v > 0:
                    bank_values[b][key] = v - 1
    return misses


@requires_native
class TestMapCodeKernels:
    """Fuzz ``repro_walk`` with the policy pinned to single-bank LAZY
    and to multi-bank PARTIAL, each against its own scalar oracle."""

    @given(
        data=st.data(),
        entry_bits=st.integers(0, 3),
        max_value=st.sampled_from([1, 3, 7]),
        length=st.integers(1, 120),
    )
    @settings(max_examples=120, deadline=None)
    def test_lazy1_matches_scalar_oracle(
        self, data, entry_bits, max_value, length
    ):
        table = 1 << entry_bits
        threshold = data.draw(st.integers(1, max_value), label="threshold")
        warmup = data.draw(st.integers(0, length + 1), label="warmup")
        keys = data.draw(
            st.lists(
                st.integers(0, table - 1), min_size=length, max_size=length
            ),
            label="keys",
        )
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="outcomes",
        )
        init = data.draw(
            st.lists(
                st.integers(0, max_value), min_size=table, max_size=table
            ),
            label="init",
        )

        values = np.asarray(init, dtype=np.int64)
        misses = run_table_kernel(
            [np.asarray(keys, dtype=np.uint64)],
            np.asarray(outcomes, dtype=bool),
            values,
            UpdatePolicy.LAZY,
            threshold,
            max_value,
            warmup,
        )

        oracle_values = list(init)
        expected = _reference_lazy1_loop(
            keys, outcomes, oracle_values, threshold, max_value, warmup
        )
        assert misses == expected
        assert values.tolist() == oracle_values

    @given(
        data=st.data(),
        banks=st.sampled_from([3, 5]),
        entry_bits=st.integers(0, 3),
        max_value=st.sampled_from([1, 3]),
        length=st.integers(1, 120),
    )
    @settings(max_examples=120, deadline=None)
    def test_partial_matches_scalar_oracle(
        self, data, banks, entry_bits, max_value, length
    ):
        table = 1 << entry_bits
        threshold = data.draw(st.integers(1, max_value), label="threshold")
        warmup = data.draw(st.integers(0, length + 1), label="warmup")
        bank_keys = [
            data.draw(
                st.lists(
                    st.integers(0, table - 1),
                    min_size=length,
                    max_size=length,
                ),
                label=f"keys{b}",
            )
            for b in range(banks)
        ]
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=length, max_size=length),
            label="outcomes",
        )
        init = [
            data.draw(
                st.lists(
                    st.integers(0, max_value),
                    min_size=table,
                    max_size=table,
                ),
                label=f"init{b}",
            )
            for b in range(banks)
        ]

        values = np.concatenate(
            [np.asarray(bank, dtype=np.int64) for bank in init]
        )
        misses = run_table_kernel(
            [np.asarray(keys, dtype=np.uint64) for keys in bank_keys],
            np.asarray(outcomes, dtype=bool),
            values,
            UpdatePolicy.PARTIAL,
            threshold,
            max_value,
            warmup,
        )

        oracle_values = [list(bank) for bank in init]
        expected = _reference_partial_loop(
            bank_keys, outcomes, oracle_values, threshold, max_value, warmup
        )
        assert misses == expected
        assert values.tolist() == [v for bank in oracle_values for v in bank]
