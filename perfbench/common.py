"""Paths, child-process environment and statistics shared by the bench.

Everything the benchmark writes lives under ``.perfbench/`` at the root
of the checkout: the native build cache, one fresh trace-cache
directory per set-up, span files and run records.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: The workloads, in the order ``run.py --workload all`` runs them.
WORKLOADS = ("paper", "sweep", "serve")


def checkout_ok() -> bool:
    """Whether the program the benchmark measures is present."""
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    Inherited ``REPRO_*`` knobs are dropped so a run measures the
    defaults users get; caches and temporary files go under ``WORK`` so
    nothing is read or written outside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    pythonpath = [str(ROOT / "src"), str(ROOT)]
    env["PYTHONPATH"] = os.pathsep.join(pythonpath)
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    env["TMPDIR"] = str(WORK / "tmp")
    env["XDG_CACHE_HOME"] = str(WORK / "xdg")
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def python_cmd(module: str, *args: str) -> List[str]:
    """Command line running ``module`` under this interpreter."""
    return [sys.executable, "-m", module, *args]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of one run's samples.

    As ``statistics.quantiles(n=4, method="inclusive")`` gives them: unlike
    the default method, it never reads outside the samples' range.
    """
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pins() -> dict:
    """The pinned outputs (``pins.json``)."""
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def benchmark_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)
