"""Post-training int8 quantization.

Two modes:

* dynamic: linear-layer weights are absmax-quantized per output unit ahead
  of time; activations are absmax-quantized per token row at inference;
  embeddings, norms, softmax, and the attention score/content matmuls stay
  fp32.
* int8 mixed: every matmul operand is vector-wise quantized (including the
  attention score and probability-times-value products), and activation
  columns whose max magnitude reaches the outlier threshold are routed
  through an exact fp32 path and recombined.

Quantization uses symmetric round-half-away-from-zero into [-127, 127] with
scale s = 127 / max|x| per vector (s = 1 for an all-zero vector), so the
per-element round-trip error is bounded by max|x| / 254. The int8 kernel
accumulates exactly: products are < 2^14 and the contraction length is
capped at 2^24, so sums stay below 2^38 and are exact in 53-bit float64
accumulation.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .model import ATTN_MASK_BIAS, LN_EPS, EncoderConfig, EncoderModel
from .tensor import Tensor, _gelu_np, _layer_norm_np, _softmax_np

MAX_CONTRACTION = 1 << 24
DEFAULT_OUTLIER_THRESHOLD = 6.0

_LINEAR_WEIGHTS = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2", "head.weight")


@dataclass
class QuantizedTensor:
    """Symmetric int8 payload with per-vector scales.

    `axis` is the axis reduced when computing each scale: axis=1 gives one
    scale per row (activations), axis=0 one scale per column (weights stored
    input x output). `outlier_cols` indexes the contraction dimension
    (columns of a per-row operand, rows of a per-column operand); those
    vectors are zeroed in `q` and kept exactly in fp32 `outlier_values`.
    """

    q: np.ndarray                 # int8 [m, k]
    scales: np.ndarray            # fp32, one per quantization vector
    axis: int
    outlier_cols: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    outlier_values: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=np.float32))
    fp_ref: np.ndarray | None = None  # exact source values (in-memory handles only)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.q.shape)

    def dequant(self) -> np.ndarray:
        if self.axis == 1:
            x = self.q.astype(np.float32) / self.scales[:, None]
            if self.outlier_cols.size:
                x[:, self.outlier_cols] = self.outlier_values
        else:
            x = self.q.astype(np.float32) / self.scales[None, :]
            if self.outlier_cols.size:
                x[self.outlier_cols, :] = self.outlier_values
        return x

    def contraction_fp(self, idx: np.ndarray) -> np.ndarray:
        """fp32 content of the given contraction-dim vectors; exact when a
        fp_ref is attached or the vectors were stored as outliers."""
        if self.fp_ref is not None:
            return self.fp_ref[:, idx] if self.axis == 1 else self.fp_ref[idx, :]
        deq = self.dequant()
        return deq[:, idx] if self.axis == 1 else deq[idx, :]


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def absmax_quantize(x, axis: int = 1) -> QuantizedTensor:
    """Per-vector symmetric int8 quantization without outlier extraction.

    1D inputs are treated as a single row vector.
    """
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise DataError("absmax_quantize received non-finite input")
    if arr.ndim == 1:
        arr = arr[None, :]
        axis = 1
    if arr.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"absmax_quantize expects a 2D array and axis 0/1, got {arr.shape}, axis {axis}")
    maxabs = np.max(np.abs(arr), axis=axis)
    scales = np.where(maxabs > 0, 127.0 / np.maximum(maxabs, 1e-30), 1.0).astype(np.float32)
    scaled = arr * (scales[:, None] if axis == 1 else scales[None, :])
    q = np.clip(_round_half_away(scaled), -127, 127).astype(np.int8)
    return QuantizedTensor(q, scales, axis)


def quantize_with_outliers(x, threshold: float, axis: int = 1) -> QuantizedTensor:
    """Per-vector quantization holding out contraction-dim vectors whose max
    magnitude reaches `threshold`; scales are computed over the remainder."""
    if threshold <= 0:
        raise ParameterError(f"outlier threshold must be > 0, got {threshold}")
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise DataError("quantize_with_outliers received non-finite input")
    if arr.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"expected a 2D array and axis 0/1, got {arr.shape}, axis {axis}")
    if axis == 1:
        outliers = np.nonzero(np.max(np.abs(arr), axis=0) >= threshold)[0]
    else:
        outliers = np.nonzero(np.max(np.abs(arr), axis=1) >= threshold)[0]
    if outliers.size == 0:
        return absmax_quantize(arr, axis=axis)
    kept = arr.copy()
    if axis == 1:
        kept[:, outliers] = 0.0
        values = arr[:, outliers]
    else:
        kept[outliers, :] = 0.0
        values = arr[outliers, :]
    qt = absmax_quantize(kept, axis=axis)
    qt.outlier_cols = outliers.astype(np.int64)
    qt.outlier_values = values.astype(np.float32)
    return qt


def int8_matmul(aq: QuantizedTensor, bq: QuantizedTensor) -> np.ndarray:
    """[m,k] x [k,n] with exact integer accumulation, rescaled by the outer
    product of row/column scales; outlier vectors recombined in fp32."""
    if aq.axis != 1 or bq.axis != 0:
        raise ShapeError("int8_matmul expects a per-row A (axis=1) and per-column B (axis=0)")
    m, k = aq.q.shape
    k2, n = bq.q.shape
    if k != k2:
        raise ShapeError(f"int8_matmul dimension mismatch: {aq.q.shape} x {bq.q.shape}")
    if k > MAX_CONTRACTION:
        raise ShapeError(f"contraction length {k} exceeds the exactness bound 2^24")
    union = np.union1d(aq.outlier_cols, bq.outlier_cols).astype(np.int64)
    qa, qb = aq.q, bq.q
    if union.size:
        # both int paths must skip every outlier k-index to avoid double counting
        extra_a = np.setdiff1d(union, aq.outlier_cols)
        extra_b = np.setdiff1d(union, bq.outlier_cols)
        if extra_a.size:
            qa = qa.copy()
            qa[:, extra_a] = 0
        if extra_b.size:
            qb = qb.copy()
            qb[extra_b, :] = 0
    acc = qa.astype(np.float64) @ qb.astype(np.float64)
    scale_outer = aq.scales.astype(np.float64)[:, None] * bq.scales.astype(np.float64)[None, :]
    out = (acc / scale_outer).astype(np.float32)
    if union.size:
        out += aq.contraction_fp(union) @ bq.contraction_fp(union)
    return out


# ---------------------------------------------------------------------------
# quantized models

@dataclass
class QuantizedLinear:
    weight: QuantizedTensor  # (in, out), axis=0 so one scale per output unit
    bias: np.ndarray         # fp32


@dataclass
class QuantizedModel:
    """Inference handle: int8 linear weights plus full-precision leftovers.

    In mixed mode the original fp32 weights ride along as fp_ref so the
    outlier path is exact; fp_ref is never serialized.
    """

    config: EncoderConfig
    mode: str  # "dynamic_int8" | "int8_mixed"
    outlier_threshold: float
    linears: dict[str, QuantizedLinear]
    extras: dict[str, np.ndarray]

    def quantized_names(self) -> list[str]:
        return list(self.linears)


def _bias_name(weight_name: str) -> str:
    if weight_name == "head.weight":
        return "head.bias"
    if ".attn.w" in weight_name:
        return weight_name.replace(".attn.w", ".attn.b")
    return weight_name.replace(".ffn.w", ".ffn.b")


def quantize_model(model: EncoderModel, mode: str,
                   threshold: float = DEFAULT_OUTLIER_THRESHOLD) -> QuantizedModel:
    if mode not in ("dynamic_int8", "int8_mixed"):
        raise ParameterError(f"unknown quantization mode '{mode}'")
    linears: dict[str, QuantizedLinear] = {}
    extras: dict[str, np.ndarray] = {}
    bias_names = {_bias_name(n) for n in model.params if n.endswith(_LINEAR_WEIGHTS)}
    for name, p in model.params.items():
        if not np.all(np.isfinite(p.data)):
            raise DataError(f"non-finite weights in '{name}'")
        if name.endswith(_LINEAR_WEIGHTS):
            if mode == "int8_mixed":
                wq = quantize_with_outliers(p.data, threshold, axis=0)
                wq.fp_ref = p.data
            else:
                wq = absmax_quantize(p.data, axis=0)
            linears[name] = QuantizedLinear(wq, model.param(_bias_name(name)).data)
        elif name not in bias_names:
            extras[name] = p.data
    return QuantizedModel(model.config, mode, threshold, linears, extras)


def quantize_model_dynamic(model: EncoderModel) -> QuantizedModel:
    """Linear weights to int8 ahead of time; activations quantized on the fly."""
    return quantize_model(model, "dynamic_int8")


def quantize_model_int8_mixed(model: EncoderModel,
                              threshold: float = DEFAULT_OUTLIER_THRESHOLD) -> QuantizedModel:
    """Vector-wise int8 on all matmul operands with fp32 outlier decomposition."""
    if threshold <= 0:
        raise ParameterError(f"outlier threshold must be > 0, got {threshold}")
    return quantize_model(model, "int8_mixed", threshold=threshold)


# ---------------------------------------------------------------------------
# quantized forward pass (pure numpy; fp32 helpers shared with the tape ops)

def _act_quant(qm: QuantizedModel, x: np.ndarray) -> QuantizedTensor:
    if qm.mode == "int8_mixed":
        return quantize_with_outliers(x, qm.outlier_threshold, axis=1)
    return absmax_quantize(x, axis=1)


def _q_linear(qm: QuantizedModel, name: str, x: np.ndarray) -> np.ndarray:
    lin = qm.linears[name]
    return int8_matmul(_act_quant(qm, x), lin.weight) + lin.bias


def _q_attention_matmul(qm: QuantizedModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched [B,m,k] x [B,k,n]; int8 in mixed mode, fp32 in dynamic mode."""
    if qm.mode != "int8_mixed":
        return a @ b
    out = np.empty((a.shape[0], a.shape[1], b.shape[2]), dtype=np.float32)
    thr = qm.outlier_threshold
    for i in range(a.shape[0]):
        out[i] = int8_matmul(quantize_with_outliers(a[i], thr, axis=1),
                             quantize_with_outliers(b[i], thr, axis=0))
    return out


def quantized_forward(qm: QuantizedModel, token_ids, attention_mask) -> np.ndarray:
    """Per-token class logits [b, s, num_classes] from the quantized handle."""
    from .model import _validate_inputs

    c = qm.config
    ids, mask = _validate_inputs(c, token_ids, attention_mask)
    b, s = ids.shape
    h, d, heads = c.hidden_size, c.head_dim, c.num_heads
    x = qm.extras["embeddings.token"][ids] + qm.extras["embeddings.position"][:s]
    x = _layer_norm_np(x, qm.extras["embeddings.norm.gain"], qm.extras["embeddings.norm.bias"], LN_EPS)
    x = x.reshape(b * s, h).astype(np.float32)
    bias = np.where(mask, 0.0, ATTN_MASK_BIAS).astype(np.float32).reshape(b, 1, s)
    bias = np.repeat(bias, heads, axis=0)

    def split_heads(y: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(y.reshape(b, s, heads, d).transpose(0, 2, 1, 3)).reshape(b * heads, s, d)

    for i in range(c.num_layers):
        p = f"layers.{i}"
        q = split_heads(_q_linear(qm, f"{p}.attn.wq", x))
        k = split_heads(_q_linear(qm, f"{p}.attn.wk", x))
        v = split_heads(_q_linear(qm, f"{p}.attn.wv", x))
        scores = _q_attention_matmul(qm, q, np.ascontiguousarray(k.transpose(0, 2, 1)))
        scores = scores * np.float32(1.0 / np.sqrt(d)) + bias
        probs = _softmax_np(scores, -1)
        ctx = _q_attention_matmul(qm, probs, v)
        ctx = np.ascontiguousarray(ctx.reshape(b, heads, s, d).transpose(0, 2, 1, 3)).reshape(b * s, h)
        attn_out = _q_linear(qm, f"{p}.attn.wo", ctx)
        x = _layer_norm_np(x + attn_out, qm.extras[f"{p}.attn_norm.gain"],
                           qm.extras[f"{p}.attn_norm.bias"], LN_EPS)
        ff = _gelu_np(_q_linear(qm, f"{p}.ffn.w1", x))
        ff = _q_linear(qm, f"{p}.ffn.w2", ff)
        x = _layer_norm_np(x + ff, qm.extras[f"{p}.ffn_norm.gain"],
                           qm.extras[f"{p}.ffn_norm.bias"], LN_EPS)
    logits = _q_linear(qm, "head.weight", x)
    return logits.reshape(b, s, c.num_classes)


# ---------------------------------------------------------------------------
# latency harness

def bench_quantized(model: EncoderModel, sentences, vocab, reps: int = 7,
                    batch_size: int = 16, max_seq_len: int = 32,
                    threshold: float = DEFAULT_OUTLIER_THRESHOLD,
                    entity_types=None) -> dict:
    """Median/IQR wall-clock per batch for fp32, dynamic, and mixed modes.

    Reported, not acceptance-gated: absolute numbers are hardware- and
    BLAS-dependent, and the int8 kernel here is a reference implementation.
    """
    from .data import DEFAULT_ENTITY_TYPES, batch as make_batches
    from .model import forward
    from .tensor import no_grad

    if reps < 3:
        raise ParameterError(f"reps must be >= 3, got {reps}")
    batches = make_batches(sentences, vocab, max_seq_len, batch_size,
                           entity_types=entity_types or DEFAULT_ENTITY_TYPES)
    handles = {
        "fp32": model,
        "dynamic_int8": quantize_model_dynamic(model),
        "int8_mixed": quantize_model_int8_mixed(model, threshold),
    }
    shapes = [tuple(tb.token_ids.shape) for tb in batches]
    result: dict = {"batch_shapes": shapes, "reps": reps, "modes": {}}
    for tag, handle in handles.items():
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for tb in batches:
                if isinstance(handle, EncoderModel):
                    with no_grad():
                        forward(handle, tb.token_ids, tb.attention_mask)
                else:
                    quantized_forward(handle, tb.token_ids, tb.attention_mask)
            times.append((time.perf_counter() - t0) * 1000.0 / max(1, len(batches)))
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        result["modes"][tag] = {
            "median_ms_per_batch": float(med),
            "iqr_ms": float(q3 - q1),
            "mean_ms_per_batch": float(np.mean(times)),
        }
    return result
