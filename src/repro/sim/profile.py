"""Per-branch misprediction profiling and engine stage timing.

Aggregate ratios say *how much* a predictor mispredicts; a study usually
also needs to know *where*.  :func:`profile_mispredictions` runs a
predictor over a trace and attributes every misprediction to its static
branch, returning the offenders ranked by miss count with their
execution counts, per-branch miss rates, and taken bias — the view that
distinguishes "a few hard branches" from "diffuse aliasing".

The same "where, not just how much" question applies to the fast
engines' wall-clock: :class:`StageTimer` accumulates per-stage seconds
(``precompute`` for the history and index streams, then
``counter_loop`` for the vectorized Python loop, or ``walk`` for the
native C walk and ``reduce`` for its state writeback) when passed to
``simulate_vectorized`` / ``simulate_native`` via their ``stage_timer``
argument, so a future perf regression in ``BENCH_engine.json`` is
attributable to a pipeline stage rather than an opaque total.

Exposed on the command line as ``repro-trace profile``; stage timings
surface in ``tools/bench_engine.py``'s JSON report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, List

from repro.predictors.base import BranchPredictor
from repro.traces.trace import Trace

__all__ = [
    "BranchProfile",
    "ProfileResult",
    "profile_mispredictions",
    "StageTimer",
    "NULL_STAGE_TIMER",
]


class StageTimer:
    """Wall-clock accumulator for named engine pipeline stages.

    >>> timer = StageTimer()
    >>> with timer.stage("walk"):
    ...     pass
    >>> sorted(timer.totals) == ["walk"]
    True

    Repeated entries into the same stage accumulate, so one timer can be
    reused across best-of-N benchmark repetitions (divide by N) or across
    every cell of a sweep (totals per stage over the whole sweep).
    """

    __slots__ = ("totals",)

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        """Context manager timing one stage; seconds add to ``totals``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.totals[name] = self.totals.get(name, 0.0) + elapsed

    def reset(self) -> None:
        """Drop all accumulated stage totals (reuse across trials)."""
        self.totals.clear()

    def as_dict(self, digits: int = 6) -> Dict[str, float]:
        """Rounded copy, stable for JSON reports."""
        return {name: round(s, digits) for name, s in self.totals.items()}


class _NullStageTimer(StageTimer):
    """No-op timer: the default when callers don't ask for stage timings."""

    def stage(self, name: str):
        return nullcontext()


#: shared do-nothing timer; engines use it when ``stage_timer`` is None.
NULL_STAGE_TIMER = _NullStageTimer()


@dataclass(frozen=True)
class BranchProfile:
    """Misprediction statistics of one static branch."""

    pc: int
    executions: int
    mispredictions: int
    taken: int

    @property
    def miss_rate(self) -> float:
        return self.mispredictions / self.executions if self.executions else 0.0

    @property
    def taken_ratio(self) -> float:
        return self.taken / self.executions if self.executions else 0.0


@dataclass(frozen=True)
class ProfileResult:
    """Ranked per-branch attribution of one run's mispredictions."""

    predictor: str
    trace: str
    total_branches: int
    total_mispredictions: int
    profiles: List[BranchProfile]  # sorted by mispredictions, descending

    @property
    def misprediction_ratio(self) -> float:
        if self.total_branches == 0:
            return 0.0
        return self.total_mispredictions / self.total_branches

    def top(self, count: int = 10) -> List[BranchProfile]:
        """The ``count`` worst-mispredicting branches."""
        return self.profiles[:count]

    def concentration(self, count: int = 10) -> float:
        """Fraction of all mispredictions owned by the top ``count``
        branches — near 1.0 means a few hard branches, near 0 means
        diffuse (aliasing-like) losses."""
        if self.total_mispredictions == 0:
            return 0.0
        owned = sum(p.mispredictions for p in self.profiles[:count])
        return owned / self.total_mispredictions


def profile_mispredictions(
    predictor: BranchPredictor, trace: Trace
) -> ProfileResult:
    """Run ``predictor`` over ``trace`` attributing misses per branch."""
    pcs, takens, conditionals, _ = trace.columns()
    step = predictor.predict_and_update
    shift = predictor.notify_unconditional

    executions: Dict[int, int] = {}
    misses: Dict[int, int] = {}
    taken_counts: Dict[int, int] = {}
    total = 0
    total_misses = 0
    for pc, taken_int, conditional in zip(pcs, takens, conditionals):
        taken = taken_int == 1
        if conditional:
            total += 1
            executions[pc] = executions.get(pc, 0) + 1
            if taken:
                taken_counts[pc] = taken_counts.get(pc, 0) + 1
            if step(pc, taken) != taken:
                total_misses += 1
                misses[pc] = misses.get(pc, 0) + 1
        else:
            shift(pc, taken)

    profiles = sorted(
        (
            BranchProfile(
                pc=pc,
                executions=count,
                mispredictions=misses.get(pc, 0),
                taken=taken_counts.get(pc, 0),
            )
            for pc, count in executions.items()
        ),
        key=lambda profile: profile.mispredictions,
        reverse=True,
    )
    return ProfileResult(
        predictor=predictor.name,
        trace=trace.name,
        total_branches=total,
        total_mispredictions=total_misses,
        profiles=profiles,
    )
