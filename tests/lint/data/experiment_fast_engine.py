"""R003 fixture: experiment code the generic-engine clause accepts.

``simulate_fast``, another name from the engine module and a local
function that happens to be called ``simulate`` are all fine.
"""

from repro.sim.engine import simulate_stream
from repro.sim.vectorized import simulate_fast


def simulate(predictor, trace):
    return simulate_fast(predictor, trace)


def run(predictor, trace, jobs=None):
    return simulate(predictor, trace), list(simulate_stream(predictor, trace))
