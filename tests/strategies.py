"""Shared hypothesis strategies for differential engine fuzzing.

Every differential suite (native vs generic, vectorized vs generic,
windowed vs generic, parallel vs serial) wants the same inputs: short
random traces with word-aligned PCs, arbitrary outcomes and a mix of
conditional/unconditional events, plus a spec drawn from the family
under test.  Drawing them from one place keeps the trace shape — the
part that decides what the fuzz can reach (aliasing, history folding,
unconditional shifts) — identical across suites.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.state import PredictorState
from repro.traces.trace import Trace

__all__ = ["trace_columns", "traces", "predictor_states", "STATE_SPECS"]


@st.composite
def trace_columns(draw, max_length: int = 120):
    """Draw aligned ``(pcs, takens, conditionals)`` column lists.

    PCs are word-aligned and span 8 bits of word address, so short
    traces still alias in small tables; outcomes and conditional flags
    are unconstrained (unconditional events exercise the history-shift
    path every engine must agree on).
    """
    length = draw(st.integers(0, max_length), label="length")
    pcs = draw(
        st.lists(
            st.integers(0, 0xFF).map(lambda word: word << 2),
            min_size=length,
            max_size=length,
        ),
        label="pcs",
    )
    takens = draw(
        st.lists(st.integers(0, 1), min_size=length, max_size=length),
        label="takens",
    )
    conditionals = draw(
        st.lists(st.integers(0, 1), min_size=length, max_size=length),
        label="conditionals",
    )
    return pcs, takens, conditionals


@st.composite
def traces(draw, max_length: int = 120, name: str = "hypothesis"):
    """Draw a :class:`~repro.traces.trace.Trace` (see :func:`trace_columns`)."""
    pcs, takens, conditionals = draw(trace_columns(max_length=max_length))
    return Trace.from_columns(pcs, takens, conditionals, name=name)


#: One spec per predictor family with serializable state — every counter
#: layout (bank/banks/pht), both history kinds, bias latches, tagged and
#: LRU tables, and the trivial static predictors.
STATE_SPECS = (
    "bimodal:64",
    "gshare:64:h5",
    "gselect:64:h4",
    "gskew:3x64:h4:total",
    "gskew:3x64:h4:partial",
    "gskew:1x64:h4:lazy",
    "egskew:3x64:h6",
    "agree:64:h5",
    "bimode:64:h5",
    "2bcgskew:64:h5",
    "hybrid:64:h5",
    "pas:16/h3:64",
    "fa:16:h3",
    "unaliased:h3",
    "taken",
    "nottaken",
)


@st.composite
def predictor_states(draw, specs=STATE_SPECS, max_length: int = 80):
    """Draw ``(spec, predictor, state)`` with organically dirtied state.

    The predictor is trained on a drawn trace first, so the captured
    :class:`~repro.sim.state.PredictorState` holds reachable (not
    uniformly random) counter/history/bias/table contents — the states
    the serving layer actually snapshots.
    """
    spec = draw(st.sampled_from(specs), label="spec")
    trace = draw(traces(max_length=max_length))
    predictor = make_predictor(spec)
    simulate(predictor, trace)
    return spec, predictor, PredictorState.capture(predictor)
