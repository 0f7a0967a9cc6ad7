"""Runs one workload and assembles its result and its fuller record."""
from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from perfbench import workloads
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.spans import Tracer

clock = time.perf_counter


def _round(wl, led: workloads.Ledger, index: int) -> float:
    t = clock()
    try:
        wl.round(led)
    except Exception as exc:  # a failed round is counted; the run goes on
        led.fail(f"round {index}", repr(exc))
        traceback.print_exc(file=sys.stderr)
    return clock() - t


def _median_or_fail(led: workloads.Ledger, key: str) -> float:
    values = led.samples.get(key)
    if not values:
        led.fail(key, "no samples")
        return 0.0
    return statistics.median(values)


def measure(wl, led: workloads.Ledger, seconds: float) -> tuple[dict, dict]:
    setup_times = []
    for _ in range(wl.setup_repeats):
        t = clock()
        wl.setup()
        setup_times.append(clock() - t)
        gc.collect()
    wl.prepare(led)
    if wl.warm_up:  # first-touch allocations and lazy set-up, not measured
        kept = {key: list(values) for key, values in led.samples.items()}
        _round(wl, led, -1)
        led.samples = kept
    deadline = clock() + seconds
    rounds = 0
    while rounds == 0 or clock() < deadline:
        _round(wl, led, rounds)
        rounds += 1
    values = {"setup_s": statistics.median(setup_times)}
    for key in END_TO_END:
        if key not in ("setup_s", "peak_rss_mb"):
            values[key] = _median_or_fail(led, key)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = {"rounds": rounds, "setup_s_samples": setup_times, "samples": led.samples}
    return values, extra


def measure_traced(wl, led: workloads.Ledger, spans_path: Path) -> tuple[dict, dict]:
    """A warm-up round and an untraced round, then the output checks and one
    round traced; the overhead compares the last two rounds."""
    wl.setup()
    _round(wl, led, 0)
    plain = _round(wl, led, 1)
    tracer = Tracer()
    with tracer:
        wl.prepare(led)
        tracer.round = 2
        traced = _round(wl, led, 2)
    layer = tracer.layer_metrics()
    layer["trace.overhead_ratio"] = traced / plain
    layer["persist.mixed_reload_max_abs_logit_delta"] = led.notes.get(
        "mixed_reload_max_abs_logit_delta", 0.0)
    tracer.write_spans(spans_path)
    values = {name: layer.get(name, 0.0) for name in PER_LAYER}
    extra = {"untraced_round_s": plain, "traced_round_s": traced, "spans": len(tracer.spans),
             "spans_file": spans_path.name, "all_layer_metrics": layer}
    return values, extra


# ---------------------------------------------------------------------------
# provenance

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info: dict = {"threads_requested": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, nproc: int, root: Path) -> dict:
    return {
        "workload": workload, "seed": seed,
        "cpu_model": _cpu_model(), "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root), "source_sha256": _source_digest(root),
    }


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        nproc: int, root: Path) -> tuple[dict, dict]:
    """Returns (result, record): the result is the driver's last line, the
    record adds provenance, notes, failures and sample counts."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    led = workloads.Ledger()
    wl = workloads.WORKLOADS[workload](seed, work)
    try:
        if trace:
            values, extra = measure_traced(wl, led, out_dir / f"spans-{tag}.jsonl")
        else:
            values, extra = measure(wl, led, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": led.failed == 0,
        "attempted": max(1, led.attempted),
        "failed": min(led.failed, max(1, led.attempted)),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = dict(result, provenance=provenance(workload, seed, nproc, root), seconds=seconds,
                  trace=trace, notes=led.notes, failures=led.failures, **extra)
    (out_dir / f"result-{tag}.json").write_text(dumps(record, indent=2) + "\n", encoding="utf-8")
    return result, record


def dumps(obj, indent=None) -> str:
    return json.dumps(obj, indent=indent, default=float)  # numpy scalars
