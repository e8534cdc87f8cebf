"""Retired numpy scan tier; the name stays for the benchmark's span recorder.

Every family the scan expressed runs on the native walk or the
vectorized loop (:func:`repro.sim.vectorized.simulate_fast`).
"""

__all__ = ["simulate_scan"]


def simulate_scan(*args, **kwargs):
    """Always raises ``ValueError``: the scan tier is gone."""
    raise ValueError(
        "the scan engine was retired; use repro.sim.vectorized.simulate_fast()"
    )
