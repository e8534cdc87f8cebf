"""Native simulation engine: the counter walk as one compiled C loop.

The index functions of every table predictor the fast tiers cover are
pure functions of the trace, so :func:`repro.sim.vectorized._walk_inputs`
computes them up front with numpy.  What is left is the paper's machine
itself: per branch, read one counter per bank, vote, and train the
banks under TOTAL, PARTIAL or LAZY update.  That walk is sequential by
nature (later predictions read earlier updates), so this module runs it
as one plain C loop (``repro_walk`` in ``_native_kernel.c``) over the
bank-major index streams, updating the counters in place.

It covers everything :func:`repro.sim.vectorized.supports` accepts:
bimodal, gshare, gselect, agree, and gskew / e-gskew with 1, 3 or 5
banks under every update policy, with counters of at most 63 bits (the
walk's ``int64`` counters hold ``max_value``).  Agree is one table whose
counters train on "agreed with the latched bias" while misses are scored
against the bias the prediction read; ``repro_walk`` takes that second
byte stream as ``truth``.

The backend is optional.  cffi + a C compiler are probed lazily on
first use; the shared object is cached under a version-fingerprinted
directory (source + cdef + cffi/Python versions + platform) so rebuilds
happen only when any of those change, and later processes just dlopen
the cached module.  When the build fails — no compiler or no cffi —
:func:`native_available` reports False (with a one-time
``RuntimeWarning``) and ``simulate_fast`` falls back to the vectorized
loop; nothing else in the library requires the backend.

Results are bit-identical to :func:`repro.sim.engine.simulate`
including final counter, agree-bias and history state (asserted by
``tests/sim/test_native.py``, which also pins ``repro_walk`` to a
scalar oracle by name — the R006 lint rule keeps that true).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.update import UpdatePolicy
from repro.predictors.base import BranchPredictor
from repro.sim.metrics import SimulationResult
from repro.sim.profile import NULL_STAGE_TIMER, StageTimer
from repro.sim.vectorized import (
    _cond_takens,
    _final_history,
    _single_table,
    _walk_inputs,
)
from repro.sim.vectorized import supports as _vector_supports
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = [
    "compiler_info",
    "native_available",
    "native_supports",
    "run_table_kernel",
    "simulate_native",
]

#: Overrides the build-cache directory (defaults to
#: ``~/.cache/repro-native``, falling back to the system temp dir).
CACHE_ENV_VAR = envvars.NATIVE_CACHE.name

_KERNEL_PATH = Path(__file__).with_name("_native_kernel.c")

#: The backend ABI, verbatim for cffi.  The R006 lint rule requires the
#: entry point to be pinned by a test referencing it by name.
_CDEF = """
int64_t repro_walk(const uint64_t *index, const uint8_t *outcomes,
                   const uint8_t *truth, int64_t n, int32_t banks,
                   int32_t policy, int64_t threshold, int64_t max_value,
                   int64_t *values, int64_t entries, int64_t warmup);
"""

#: widest counter whose ``max_value`` fits the walk's ``int64``
_MAX_COUNTER_BITS = 63

#: ``policy`` argument of ``repro_walk`` (the kernel's enum).
_POLICY_CODES = {
    UpdatePolicy.TOTAL: 0,
    UpdatePolicy.PARTIAL: 1,
    UpdatePolicy.LAZY: 2,
}

#: (ffi, lib) once built, or an error string once the build failed;
#: None until the first probe.  Guarded by ``_BUILD_LOCK``.
_BACKEND: "Optional[object]" = None
_BUILD_LOCK = threading.Lock()
_WARNED = False


def _fingerprint(source: str) -> str:
    """Version fingerprint of everything the shared object depends on."""
    import cffi

    payload = "\x00".join(
        [
            source,
            _CDEF,
            cffi.__version__,
            sys.version.split()[0],
            sysconfig.get_platform(),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _cache_dir() -> Path:
    override = envvars.NATIVE_CACHE.text()
    if override:
        return Path(override)
    try:
        base = Path.home() / ".cache"
    except (RuntimeError, OSError):  # pragma: no cover — no home dir
        base = Path(tempfile.gettempdir())
    return base / "repro-native"


def _find_cached(build_dir: Path, module_name: str) -> Optional[Path]:
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        candidate = build_dir / (module_name + suffix)
        if candidate.exists():
            return candidate
    return None


def _load(so_path: Path, module_name: str):
    spec = importlib.util.spec_from_file_location(module_name, so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _build_backend():
    """Compile (or dlopen the cached) kernel; returns ``(ffi, lib)``.

    Raises on any failure — missing cffi, missing compiler, bad cache
    directory — and the caller converts that into the unavailable
    state.  The fingerprinted module name makes the cache self-keying:
    a stale shared object simply never matches the current name.
    """
    source = _KERNEL_PATH.read_text(encoding="utf-8")
    module_name = f"_repro_native_{_fingerprint(source)}"
    build_dir = _cache_dir()
    cached = _find_cached(build_dir, module_name)
    if cached is not None:
        return _load(cached, module_name)

    import cffi

    builder = cffi.FFI()
    builder.cdef(_CDEF)
    builder.set_source(module_name, source, extra_compile_args=["-O3"])
    build_dir.mkdir(parents=True, exist_ok=True)
    so_path = builder.compile(tmpdir=str(build_dir))
    return _load(Path(so_path), module_name)


def _backend():
    """The built backend, or an error string; builds at most once."""
    global _BACKEND, _WARNED
    if _BACKEND is None:
        with _BUILD_LOCK:
            if _BACKEND is None:
                try:
                    _BACKEND = _build_backend()
                except Exception as exc:  # noqa: BLE001 — any build error
                    _BACKEND = f"{type(exc).__name__}: {exc}"
    if isinstance(_BACKEND, str) and not _WARNED:
        _WARNED = True
        warnings.warn(
            "native backend unavailable, falling back to the "
            f"vectorized loop ({_BACKEND})",
            RuntimeWarning,
            stacklevel=3,
        )
    return _BACKEND


def native_available() -> bool:
    """True when the compiled backend can be (or was) built and loaded.

    The first call triggers the lazy build; a failure warns once
    (``RuntimeWarning``) and sticks for the process.
    """
    return not isinstance(_backend(), str)


def compiler_info() -> Optional[Dict[str, object]]:
    """Toolchain facts behind the compiled backend.

    A dict with ``compiler`` (first line of the C compiler's
    ``--version``, or None when no compiler answers) and ``native``
    (whether the backend is built).  Recorded in bench
    headers so throughput numbers carry the toolchain that produced
    them.  None — never an exception — when there is nothing to report
    at all (no compiler answers *and* no built backend), so the
    no-compiler bench header stays writable.
    """
    compiler: Optional[str] = None
    cc = os.environ.get("CC") or "cc"
    try:
        probe = subprocess.run(
            [cc, "--version"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        probe = None
    if probe is not None and probe.returncode == 0 and probe.stdout:
        compiler = probe.stdout.splitlines()[0].strip()

    available = native_available()
    if compiler is None and not available:
        return None
    return {"compiler": compiler, "native": available}


def native_supports(predictor: BranchPredictor, trace: Trace) -> bool:
    """True if ``predictor`` has a native fast path over ``trace``: every
    family the vectorized tier expresses, with counters narrow enough
    for ``int64``, once the backend is built."""
    return (
        _vector_supports(predictor, trace)
        and _tables(predictor)[0][0].bits <= _MAX_COUNTER_BITS
        and native_available()
    )


def _checked_backend():
    backend = _backend()
    if isinstance(backend, str):
        raise RuntimeError(f"native backend unavailable ({backend})")
    return backend


def run_table_kernel(
    streams: Sequence[np.ndarray],
    outcomes: np.ndarray,
    values: np.ndarray,
    policy: UpdatePolicy,
    threshold: int,
    max_value: int,
    warmup: int,
    truth: Optional[np.ndarray] = None,
) -> int:
    """One ``repro_walk`` over a predictor's banks; returns the misses.

    ``streams`` holds one index stream per bank (1, 3 or 5), and
    ``outcomes`` the bool stream the counters train toward.  ``truth``
    is the bool stream a miss is scored against; it defaults to
    ``outcomes`` and differs only for agree.  ``values`` is the
    bank-concatenated contiguous int64 counter array, updated in place
    to the final state.
    """
    ffi, lib = _checked_backend()
    if truth is None:
        truth = outcomes
    n = len(outcomes)
    banks = len(streams)
    index = np.empty(banks * n, dtype=np.uint64)
    for b, stream in enumerate(streams):
        index[b * n : (b + 1) * n] = stream
    misses = lib.repro_walk(
        ffi.from_buffer("uint64_t[]", index),
        ffi.from_buffer("uint8_t[]", outcomes.view(np.uint8)),
        ffi.from_buffer("uint8_t[]", truth.view(np.uint8)),
        n,
        banks,
        _POLICY_CODES[policy],
        threshold,
        max_value,
        ffi.from_buffer("int64_t[]", values),
        len(values) // banks,
        warmup,
    )
    if misses < 0:
        raise ValueError(f"repro_walk takes 1 to 5 banks, got {banks}")
    return int(misses)


# The benchmark's span recorder (perfbench/tracer.py) still wraps these
# two names; both are the one walk.
run_lazy1_kernel = run_table_kernel
run_partial_kernel = run_table_kernel


def _tables(predictor: BranchPredictor):
    """``(per-bank counter tables, update policy)`` of a table predictor."""
    if hasattr(predictor, "banks"):
        tables = [bank.counters for bank in predictor.banks]
        return tables, predictor.update_policy
    return [_single_table(predictor)], UpdatePolicy.TOTAL


def simulate_native(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
    stage_timer: Optional[StageTimer] = None,
) -> SimulationResult:
    """Native-kernel counterpart of :func:`repro.sim.engine.simulate`.

    Identical arguments and result; also leaves the predictor's
    counters, agree-bias bits and history register in the same final
    state the generic engine would.  ``stage_timer`` (optional)
    accumulates per-stage wall-clock under ``"precompute"`` (index
    streams + counter marshalling), ``"walk"`` (the C loop) and
    ``"reduce"`` (state writeback).

    Raises:
        ValueError: if the predictor has no native path or the backend
            did not build (callers wanting automatic fallback use
            :func:`repro.sim.vectorized.simulate_fast`).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if not native_supports(predictor, trace):
        raise ValueError(
            f"no native path for {type(predictor).__name__}; "
            "use simulate_fast() or the generic engine"
        )
    timer = NULL_STAGE_TIMER if stage_timer is None else stage_timer
    history = getattr(predictor, "history", None)
    seed = history.value if history is not None else 0

    with timer.stage("precompute"):
        outcomes = _cond_takens(trace)
    n = len(outcomes)
    mispredictions = 0
    if n:
        tables, policy = _tables(predictor)
        with timer.stage("precompute"):
            streams, train, truth = _walk_inputs(predictor, trace)
            values = np.concatenate(
                [np.asarray(table.values, dtype=np.int64) for table in tables]
            )
        with timer.stage("walk"):
            mispredictions = run_table_kernel(
                streams, train, values, policy, tables[0].threshold,
                tables[0].max_value, warmup, truth,
            )
        with timer.stage("reduce"):
            entries = len(values) // len(tables)
            for b, table in enumerate(tables):
                table.values[:] = values[b * entries : (b + 1) * entries].tolist()

    if history is not None and history.bits:
        with timer.stage("reduce"):
            history.value = _final_history(trace.takens, history.bits, seed)

    return SimulationResult(
        predictor=label or predictor.name,
        trace=trace.name,
        conditional_branches=max(0, n - warmup),
        mispredictions=mispredictions,
        storage_bits=predictor.storage_bits,
        history_bits=getattr(predictor, "history_bits", None),
        engine="native",
    )
