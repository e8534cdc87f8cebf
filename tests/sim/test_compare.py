"""Tests for the paired statistical comparison utilities."""

import sys
from fractions import Fraction

import pytest

from repro.predictors.gshare import GsharePredictor
from repro.predictors.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)
from repro.sim.compare import (
    PairedOutcomes,
    bootstrap_difference,
    mcnemar,
    paired_outcomes,
)
from repro.traces.trace import BranchRecord, Trace


def exact_binomial_p(k: int, n: int) -> Fraction:
    """Two-sided exact binomial p-value of ``k`` of ``n`` at p = 1/2.

    Built independently of :func:`mcnemar`: the Pascal-triangle row as
    exact fractions, summed over every outcome no more likely than ``k``
    (the two-sided definition, with no symmetry shortcut).
    """
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    pmf = [Fraction(count, 2**n) for count in row]
    return min(Fraction(1), sum(p for p in pmf if p <= pmf[k]))


def _biased_trace(count=200, taken_ratio=0.8):
    records = [
        BranchRecord(pc=0x100 + 4 * (i % 16), taken=(i % 10) < taken_ratio * 10)
        for i in range(count)
    ]
    return Trace.from_records(records, name="biased")


class TestPairedOutcomes:
    def test_agreement_table_partitions(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(4, 2), tiny_trace
        )
        assert paired.branches == tiny_trace.conditional_count
        assert len(paired.outcomes) == paired.branches

    def test_identical_predictors_fully_concordant(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(6, 4), tiny_trace
        )
        assert paired.only_a_correct == 0
        assert paired.only_b_correct == 0

    def test_ratios_match_direct_counts(self):
        trace = _biased_trace()
        paired = paired_outcomes(
            AlwaysTakenPredictor(), AlwaysNotTakenPredictor(), trace
        )
        assert paired.a_misprediction_ratio == pytest.approx(
            1 - trace.taken_ratio
        )
        assert paired.b_misprediction_ratio == pytest.approx(
            trace.taken_ratio
        )

    def test_opposite_predictors_fully_discordant(self):
        trace = _biased_trace()
        paired = paired_outcomes(
            AlwaysTakenPredictor(), AlwaysNotTakenPredictor(), trace
        )
        assert paired.both_correct == 0
        assert paired.both_wrong == 0


class TestMcnemar:
    def test_no_discordance_gives_p_one(self):
        paired = PairedOutcomes(50, 0, 0, 10, outcomes=())
        assert mcnemar(paired) == 1.0

    def test_balanced_discordance_not_significant(self):
        paired = PairedOutcomes(50, 20, 20, 10, outcomes=())
        assert mcnemar(paired) > 0.5

    def test_lopsided_discordance_significant(self):
        paired = PairedOutcomes(50, 80, 5, 10, outcomes=())
        assert mcnemar(paired) < 0.001

    def test_small_counts_use_exact_test(self):
        paired = PairedOutcomes(50, 9, 1, 10, outcomes=())
        p = mcnemar(paired)
        # Exact binomial for 1-of-10 at 0.5: ~0.021.
        assert 0.01 < p < 0.05

    def test_exact_tail_without_scipy(self, monkeypatch):
        """Up to 100 discordant pairs the p-value is the exact binomial
        tail, correctly rounded, and scipy is never imported."""
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        for n in range(1, 101):
            for only_a in range(n + 1):
                paired = PairedOutcomes(7, only_a, n - only_a, 3, outcomes=())
                expected = exact_binomial_p(min(only_a, n - only_a), n)
                assert mcnemar(paired) == float(expected), (only_a, n)

    def test_clearly_different_predictors_flagged(self):
        trace = _biased_trace(count=500, taken_ratio=0.9)
        paired = paired_outcomes(
            AlwaysTakenPredictor(), AlwaysNotTakenPredictor(), trace
        )
        assert mcnemar(paired) < 1e-10


class TestBootstrap:
    def test_interval_contains_true_difference(self):
        trace = _biased_trace(count=2000, taken_ratio=0.8)
        paired = paired_outcomes(
            AlwaysTakenPredictor(), AlwaysNotTakenPredictor(), trace
        )
        true_difference = (
            paired.a_misprediction_ratio - paired.b_misprediction_ratio
        )
        low, high = bootstrap_difference(paired, resamples=300, block=64)
        assert low <= true_difference <= high

    def test_identical_predictors_interval_straddles_zero(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(6, 4), tiny_trace
        )
        low, high = bootstrap_difference(paired, resamples=200)
        assert low <= 0.0 <= high

    def test_deterministic_given_seed(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(4, 2), tiny_trace
        )
        assert bootstrap_difference(paired, seed=7) == bootstrap_difference(
            paired, seed=7
        )

    def test_empty_outcomes(self):
        paired = PairedOutcomes(0, 0, 0, 0, outcomes=())
        assert bootstrap_difference(paired) == (0.0, 0.0)

    def test_validation(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(4, 2), tiny_trace
        )
        with pytest.raises(ValueError):
            bootstrap_difference(paired, confidence=1.5)
