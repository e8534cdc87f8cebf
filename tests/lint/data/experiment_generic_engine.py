"""R003 fixture: an experiment that reaches the generic engine directly.

Three spellings, each flagged once: the by-name import (the bare call
after it is covered by the import), a module-alias call and a fully
dotted call.
"""

import repro.sim.engine
from repro.sim import engine
from repro.sim.engine import simulate


def run(predictor, trace, jobs=None):
    first = simulate(predictor, trace)
    second = engine.simulate(predictor, trace)
    third = repro.sim.engine.simulate(predictor, trace)
    return first, second, third
