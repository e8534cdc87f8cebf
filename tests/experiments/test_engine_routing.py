"""Experiments on ``simulate_fast`` report what the generic engine does.

Each experiment below runs its cells through
``repro.sim.vectorized.simulate_fast``, which picks the native walk or
the vectorized loop where a family allows and the generic interpreter
otherwise.  Its report must equal the one produced with the module's
``simulate_fast`` rebound to the generic ``repro.sim.engine.simulate``.
``robustness`` makes no engine call of its own; its report must equal
one whose McNemar p-values come from an exact fraction reference.
scipy is unimportable throughout, so none of them needs it.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.sim import compare
from repro.sim.engine import simulate

from tests.sim.test_compare import exact_binomial_p

SCALE = 0.01

#: Experiment names whose modules route through ``simulate_fast``.
ROUTED = [
    "shootout",
    "banks",
    "best-history",
    "claims",
    "context-switch",
    "egskew-bank0",
    "encoding",
    "figure11",
    "os-pressure",
    "pas",
    "skew-functions",
    "table2",
    "update",
    "workload-class",
]


def _reference_mcnemar(paired):
    discordant = paired.only_a_correct + paired.only_b_correct
    if 0 < discordant <= 100:
        low = min(paired.only_a_correct, paired.only_b_correct)
        return float(exact_binomial_p(low, discordant))
    return compare.mcnemar(paired)


@pytest.fixture(autouse=True)
def _no_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)


@pytest.mark.parametrize("name", ROUTED)
def test_fast_routing_matches_generic_engine(name, monkeypatch):
    module = EXPERIMENTS[name][0]
    fast = run_experiment(name, scale=SCALE, jobs=1)
    monkeypatch.setattr(module, "simulate_fast", simulate)
    assert run_experiment(name, scale=SCALE, jobs=1) == fast


def test_robustness_matches_exact_p_values(monkeypatch):
    module = EXPERIMENTS["robustness"][0]
    report = run_experiment("robustness", scale=SCALE, jobs=1)
    monkeypatch.setattr(module, "mcnemar", _reference_mcnemar)
    assert run_experiment("robustness", scale=SCALE, jobs=1) == report
