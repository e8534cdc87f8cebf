"""Sweep-grid convenience: many predictor specs over one trace.

Kept only because the benchmark's span recorder (``perfbench/tracer.py``)
wraps :func:`simulate_spec_grid`; it is per-cell ``simulate_fast``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.config import make_predictor
from repro.sim.metrics import SimulationResult
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace

__all__ = ["simulate_spec_grid"]


def simulate_spec_grid(
    trace: Trace, specs: Sequence[str], warmup: int = 0
) -> List[SimulationResult]:
    """``simulate_fast(make_predictor(s), trace, label=s)`` per spec."""
    return [
        simulate_fast(make_predictor(spec), trace, warmup=warmup, label=spec)
        for spec in specs
    ]
