"""Span tracer for the traced benchmark run.

`Tracer` wraps every public function of the sdcw modules named in MODULES
and records one span (name, start, end, parent) per call, in memory. It also
re-binds the copies that `from .x import y` left in other sdcw modules (for
example `cli.finetune` or `evaluation.make_batches`), so calls made through
those names are traced too, and it restores every name it replaced on exit:
untraced runs measure unwrapped code.

Self time is a span's duration minus the time its direct child spans cover;
busy time sums the spans of a function that are not nested in a span of the
same function. A few functions also feed work counters computed from their
arguments and results (FLOPs from shapes, outlier vectors, bytes written).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "data", "tensor", "model", "prune", "distill", "quant", "persist", "evaluation")


def _traceable(name: str, obj, module) -> bool:
    # context managers (no_grad, output_lock) carry __wrapped__ and are left alone
    return (inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_") and not hasattr(obj, "__wrapped__"))


# ---------------------------------------------------------------------------
# work counters: (counters, positional args, result) -> None

def _matmul_work(c, args, result) -> None:
    a, b = args[0], args[1]
    batch = int(np.prod(a.shape[:-2])) if a.ndim == 3 else 1
    c["tensor.matmul.flop"] += 2.0 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _adam_work(c, args, result) -> None:
    c["tensor.adam_step.scalars"] += sum(p.size for p in args[0].values())


def _int8_matmul_work(c, args, result) -> None:
    aq, bq = args[0], args[1]
    m, k = aq.q.shape
    c["quant.int8_matmul.op"] += 2.0 * m * k * bq.q.shape[1]
    c["quant.int8_matmul.k"] += k
    c["quant.int8_matmul.fp32_k"] += np.union1d(aq.outlier_cols, bq.outlier_cols).size


def _outlier_work(c, args, result) -> None:
    c["quant.quantize_with_outliers.outlier_vectors"] += result.outlier_cols.size


def _save_work(c, args, result) -> None:
    c["persist.save_model.bytes"] += result


COUNTERS = {
    "tensor.matmul": _matmul_work,
    "tensor.adam_step": _adam_work,
    "quant.int8_matmul": _int8_matmul_work,
    "quant.quantize_with_outliers": _outlier_work,
    "persist.save_model": _save_work,
}


class Tracer:
    """Context manager: wraps the sdcw public functions while active."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent id, name, start, end, self seconds, outer, round)
        self.counters: dict[str, float] = defaultdict(float)
        self.round = 0
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._bindings: list[tuple] = []
        self._next_id = 0

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        originals: dict[int, tuple[str, object]] = {}
        for short in MODULES:
            module = importlib.import_module(f"sdcw.{short}")
            for name, obj in vars(module).items():
                if _traceable(name, obj, module):
                    originals[id(obj)] = (f"{short}.{name}", obj)
        wrappers = {key: self._wrap(label, fn) for key, (label, fn) in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sdcw" and not mod_name.startswith("sdcw."):
                continue
            for name, obj in list(vars(module).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[1] is obj:
                    self._bindings.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        while self._bindings:
            module, name, obj = self._bindings.pop()
            setattr(module, name, obj)

    def _wrap(self, label: str, fn):
        stack, depth, spans, counters = self._stack, self._depth, self.spans, self.counters
        count = COUNTERS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]  # span id, seconds covered by child spans
            outer = depth[label] == 0
            depth[label] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[label] -= 1
                if parent is not None:
                    parent[1] += end - start
                spans.append((frame[0], parent[0] if parent else 0, label, start, end,
                              end - start - frame[1], outer, self.round))
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """`<module>.<function>.{calls,busy_s,self_s}` for every traced
        function, plus the derived work counters."""
        out: dict[str, float] = defaultdict(float)
        for _, _, label, start, end, self_s, outer, _ in self.spans:
            out[f"{label}.calls"] += 1
            out[f"{label}.self_s"] += self_s
            if outer:
                out[f"{label}.busy_s"] += end - start
        c = self.counters
        out["tensor.matmul.gflop"] = c["tensor.matmul.flop"] / 1e9
        adam_calls = out.get("tensor.adam_step.calls", 0)
        out["tensor.adam_step.params"] = c["tensor.adam_step.scalars"] / adam_calls if adam_calls else 0.0
        out["quant.int8_matmul.gop"] = c["quant.int8_matmul.op"] / 1e9
        k = c["quant.int8_matmul.k"]
        out["quant.int8_matmul.fp32_share"] = c["quant.int8_matmul.fp32_k"] / k if k else 0.0
        out["quant.quantize_with_outliers.outlier_vectors"] = c["quant.quantize_with_outliers.outlier_vectors"]
        out["persist.save_model.bytes"] = c["persist.save_model.bytes"]
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, label, start, end, _, _, rnd in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": label,
                                     "start": start, "end": end, "round": rnd}) + "\n")
