"""Post-training int8 quantization.

Two modes:

* dynamic: linear-layer weights are absmax-quantized per output unit ahead
  of time; activations are absmax-quantized per token row at inference;
  embeddings, norms, softmax, and the attention score/content matmuls stay
  fp32.
* int8 mixed: every matmul operand is vector-wise quantized (including the
  attention score and probability-times-value products), and contraction
  vectors (activation columns, weight rows) whose max magnitude reaches the
  outlier threshold are held out of the int8 product and recombined in fp32.

Every int8 product follows one outlier rule: on the union of both operands'
outlier vectors the product runs in fp32, where each operand is exact on its
own outlier vectors and dequantized on the rest. A weight holds its own
outlier rows and nothing else of its fp32 source, so a handle fresh from
`quantize_model` and its reloaded file compute the same product.

A quantized handle runs the encoder block sequence of `model.forward`, the
same as an fp32 model, over `Int8Kernel`: int8 linears, the attention
products of its mode, and the fp32 kernels of the tape ops for the rest.

Quantization uses symmetric round-half-away-from-zero into [-127, 127] with
scale s = 127 / max|x| per vector (s = 1 for an all-zero vector), so the
per-element round-trip error is bounded by max|x| / 254.

The int8 kernels accumulate exactly on float32 GEMMs. A product of two int8
values has magnitude at most 127^2 = 16,129, so every partial sum of at
most EXACT_BLOCK = floor(2^24 / 16,129) = 1,040 products is an integer
below 2^24 in magnitude, which float32 holds exactly whatever order the GEMM
sums in. Longer contractions are split into blocks of at most EXACT_BLOCK
and the exact block results are added in float64; the contraction length is
capped at 2^24, so those sums stay below 2^38 and are exact in 53 bits. The
accumulator thus holds the same integers as an int64 GEMM; it is divided by
the outer product of the scales in float64 and rounded once to float32.

A payload `q` holds its int8 values as float32 integers, the operand the
GEMMs read, so each weight is held once; int8 is the file's dtype alone.
The product runs on the payloads as they are, without zeroing the union of
both operands' outlier vectors: each operand's own outlier vectors are zero
in its payload (the quantizers make them so and `persist.load_model`
rejects a file where they are not), so every k-index in the union
contributes 0 to the exact integer sum either way. The rescale runs in row
blocks through one reused float64 buffer and writes into the GEMM's own
float32 output. Two float32 scales multiply exactly in float64 (48
significant bits), so the per-block outer product equals the whole one; the
float64 quotient is the same, and storing it into float32 rounds as
`astype` does. So the output is the same bit for bit as zeroing the union
and rescaling through one full-size float64 array.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .model import LN_EPS, EncoderConfig, EncoderModel, _bias_name, forward
from .prune import PruneMask
from .tensor import Tensor, _all_finite, _gelu_np, _layer_norm_np, _softmax_np

MAX_CONTRACTION = 1 << 24
# longest float32 sum of int8 x int8 products that stays exact:
# 1,040 * 127^2 = 16,774,160 < 2^24
EXACT_BLOCK = (1 << 24) // (127 * 127)
# float64 elements per rescale block: 256 KiB, so the buffer stays in L2
RESCALE_BLOCK = 1 << 15
DEFAULT_OUTLIER_THRESHOLD = 6.0
_SIGN_BIT = np.uint32(1 << 31)  # of a float32

_LINEAR_WEIGHTS = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2", "head.weight")


@dataclass
class QuantizedTensor:
    """Symmetric int8 payload with per-vector scales.

    `axis` is the axis reduced when computing each scale: axis=1 gives one
    scale per row (activations), axis=0 one scale per column (weights stored
    input x output). `outlier_cols` indexes the contraction dimension
    (columns of a per-row operand, rows of a per-column operand); those
    vectors are zeroed in `q` and kept exactly in fp32 `outlier_values`.
    `q` holds the int8 values as float32 integers, the operand of the GEMMs.
    """

    q: np.ndarray                 # float32 integers in [-127, 127], [m, k]
    scales: np.ndarray            # fp32, one per quantization vector
    axis: int
    outlier_cols: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    outlier_values: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=np.float32))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.q.shape)

    def dequant(self) -> np.ndarray:
        return self.contraction_fp(np.arange(self.q.shape[self.axis]))

    def contraction_fp(self, idx: np.ndarray) -> np.ndarray:
        """fp32 content of the given contraction-dim vectors: exact where they
        were stored as outliers, else dequantized. Only the requested vectors
        are dequantized."""
        _, at, src = np.intersect1d(idx, self.outlier_cols, return_indices=True)
        if self.axis == 1:
            x = self.q[:, idx] / self.scales[:, None]
            if at.size:
                x[:, at] = self.outlier_values[:, src]
        else:
            x = self.q[idx, :] / self.scales[None, :]
            if at.size:
                x[at, :] = self.outlier_values[src, :]
        return x


def _as_float32(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError(f"{what} received non-finite input")


def _quantize_vectors(arr: np.ndarray, axis: int, threshold: float | None, what: str):
    """Vector-wise quantization of the matrices in the last two dims of `arr`.

    axis=1 gives one scale per row and treats columns as the contraction
    vectors, axis=0 one scale per column with rows as contraction vectors.
    With a threshold, contraction vectors whose max magnitude reaches it are
    zeroed before the scales are taken. Returns the rounded values as float32
    integers in [-127, 127], the scales and the outlier mask (None without a
    threshold), both with the reduced dim kept so they broadcast against
    `arr`. max propagates NaN and inf, so the finiteness check runs on the
    first reduction instead of on `arr`.

    No clip to [-127, 127] is needed. With m the max magnitude of a vector
    and s = fl32(127 / m), every |x| <= m gives |x| * s <= 127 * (1 + 2^-24)
    before rounding, so fl32(|x| * s) <= 127 + 2^-17 (the float32 spacing at
    127); adding 0.5 and flooring then gives at most 127. For m < 1e-30 the
    scale is 127 / 1e-30 and |x| * s < 127. Outlier vectors are zeroed. The
    sign goes back on as x's sign bit ORed into the non-negative magnitude:
    copysign for finite x, so a zeroed or rounded-to-0 value is +-0 as x is.
    """
    scale_dim, vector_dim = (-1, -2) if axis == 1 else (-2, -1)
    mag = np.abs(arr)
    outliers = None
    if threshold is not None:
        vector_max = mag.max(axis=vector_dim, keepdims=True)
        _check_finite(vector_max, what)
        outliers = vector_max >= threshold
        if outliers.any():
            np.copyto(mag, 0.0, where=outliers)
    maxabs = mag.max(axis=scale_dim, keepdims=True)
    if threshold is None:
        _check_finite(maxabs, what)
    scales = np.where(maxabs > 0, 127.0 / np.maximum(maxabs, 1e-30), 1.0).astype(np.float32)
    # round half away from zero in place: sign(x) * floor(|x * s| + 0.5),
    # where |x| * s == |x * s| because s > 0
    np.multiply(mag, scales, out=mag)
    mag += 0.5
    np.floor(mag, out=mag)
    bits = mag.view(np.uint32)
    bits |= arr.view(np.uint32) & _SIGN_BIT
    return mag, scales, outliers


def _matrix(x, axis: int, what: str) -> np.ndarray:
    arr = _as_float32(x)
    if arr.ndim != 2 or axis not in (0, 1):
        _check_finite(arr, what)  # non-finite input is reported ahead of its shape
        raise ShapeError(f"{what} expects a 2D array and axis 0/1, got {arr.shape}, axis {axis}")
    return arr


def absmax_quantize(x, axis: int = 1) -> QuantizedTensor:
    """Per-vector symmetric int8 quantization without outlier extraction.

    1D inputs are treated as a single row vector.
    """
    arr = _as_float32(x)
    if arr.ndim == 1:
        arr, axis = arr[None, :], 1
    arr = _matrix(arr, axis, "absmax_quantize")
    q, scales, _ = _quantize_vectors(arr, axis, None, "absmax_quantize")
    return QuantizedTensor(q, scales.reshape(-1), axis)


def quantize_with_outliers(x, threshold: float, axis: int = 1) -> QuantizedTensor:
    """Per-vector quantization holding out contraction-dim vectors whose max
    magnitude reaches `threshold`; scales are computed over the remainder."""
    if threshold <= 0:
        raise ParameterError(f"outlier threshold must be > 0, got {threshold}")
    arr = _matrix(x, axis, "quantize_with_outliers")
    q, scales, outliers = _quantize_vectors(arr, axis, threshold, "quantize_with_outliers")
    qt = QuantizedTensor(q, scales.reshape(-1), axis)
    cols = np.nonzero(outliers.reshape(-1))[0]
    if cols.size:
        qt.outlier_cols = cols
        qt.outlier_values = arr[:, cols] if axis == 1 else arr[cols, :]
    return qt


def _int_matmul(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Exact (..., m, k) @ (..., k, n) of float32 arrays holding int8 values:
    one float32 GEMM per block of at most EXACT_BLOCK contraction indices,
    blocks added in float64."""
    k = qa.shape[-1]
    if k <= EXACT_BLOCK:
        return qa @ qb
    acc = (qa[..., :EXACT_BLOCK] @ qb[..., :EXACT_BLOCK, :]).astype(np.float64)
    for start in range(EXACT_BLOCK, k, EXACT_BLOCK):
        acc += qa[..., start:start + EXACT_BLOCK] @ qb[..., start:start + EXACT_BLOCK, :]
    return acc


def _rescale(acc: np.ndarray, scales_a: np.ndarray, scales_b: np.ndarray) -> np.ndarray:
    """acc / (scales_a * scales_b) in float64, rounded once to float32: in
    place when acc is float32 (a GEMM's own output), else into a new array.

    acc is [m, n] or [N, m, n]; the float32 scales broadcast to it as
    [..., m, 1] and [..., 1, n]. The work runs over blocks of whole slices,
    or of rows of one slice, of at most RESCALE_BLOCK elements through one
    float64 buffer."""
    out = acc if acc.dtype == np.float32 else np.empty(acc.shape, dtype=np.float32)
    if not acc.size:
        return out
    sa, sb = scales_a.astype(np.float64), scales_b.astype(np.float64)
    if acc.ndim == 2:
        acc, out3, sa, sb = acc[None], out[None], sa[None], sb[None]
    else:
        out3 = out
    n_slices, m, n = acc.shape
    rows = max(1, RESCALE_BLOCK // n)
    if m <= rows:
        step = rows // m
        blocks = [(slice(i, i + step), slice(None)) for i in range(0, n_slices, step)]
    else:
        blocks = [(i, slice(r, r + rows)) for i in range(n_slices) for r in range(0, m, rows)]
    buf = np.empty(min(acc.size, rows * n), dtype=np.float64)
    for s, r in blocks:
        block = acc[s, r]
        outer = buf[:block.size].reshape(block.shape)
        np.multiply(sa[s, r], sb[s], out=outer)
        np.divide(block, outer, out=outer)
        out3[s, r] = outer
    return out


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
    out = _rescale(_int_matmul(aq.q, bq.q), aq.scales[:, None], bq.scales[None, :])
    union = np.union1d(aq.outlier_cols, bq.outlier_cols).astype(np.int64)
    if union.size:
        out += aq.contraction_fp(union) @ bq.contraction_fp(union)
    return out


def int8_bmm(a, b, threshold: float) -> np.ndarray:
    """Mixed-mode [N,m,k] x [N,k,n]: slice i equals
    int8_matmul(quantize_with_outliers(a[i], threshold, axis=1),
    quantize_with_outliers(b[i], threshold, axis=0)) bit for bit.

    Each operand stack is quantized in one pass and the integer products run
    as one batched GEMM on the stacks as quantized (each operand's own
    outlier vectors are zero in them); the fp32 outlier term is computed
    only for the slices that have outlier vectors in either operand.
    """
    if threshold <= 0:
        raise ParameterError(f"outlier threshold must be > 0, got {threshold}")
    a, b = _as_float32(a), _as_float32(b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"int8_bmm expects [N,m,k] x [N,k,n], got {a.shape} x {b.shape}")
    if a.shape[2] > MAX_CONTRACTION:
        raise ShapeError(f"contraction length {a.shape[2]} exceeds the exactness bound 2^24")
    qa, scales_a, out_a = _quantize_vectors(a, 1, threshold, "int8_bmm")
    qb, scales_b, out_b = _quantize_vectors(b, 0, threshold, "int8_bmm")
    out_a, out_b = out_a[:, 0, :], out_b[:, :, 0]
    union = out_a | out_b
    terms = []
    for i in np.nonzero(union.any(axis=1))[0]:
        u = np.nonzero(union[i])[0]
        # as QuantizedTensor.contraction_fp: dequantized vectors, exact where
        # the operand held them out
        fa = qa[i][:, u] / scales_a[i]
        fb = qb[i][u, :] / scales_b[i]
        own_a, own_b = out_a[i, u], out_b[i, u]
        fa[:, own_a] = a[i][:, u[own_a]]
        fb[own_b, :] = b[i][u[own_b], :]
        terms.append((i, fa @ fb))
    out = _rescale(_int_matmul(qa, qb), scales_a, scales_b)
    for i, term in terms:
        out[i] += term
    return out


# ---------------------------------------------------------------------------
# quantized models

@dataclass
class QuantizedModel:
    """Inference handle keyed like `EncoderModel.params`: the linear weights
    are QuantizedTensors (input x output, axis=0 so one scale per
    output unit), every other tensor a full-precision array. Each bias comes
    right after its weight, the order the handle's file keeps. A handle
    quantized from a pruned model carries its prune mask, which its file
    keeps.
    """

    config: EncoderConfig
    mode: str  # "dynamic_int8" | "int8_mixed"
    outlier_threshold: float
    params: dict[str, QuantizedTensor | np.ndarray]
    mask: PruneMask | None = None

    def kernel(self, dropout_rng: np.random.Generator | None = None) -> "Int8Kernel":
        return Int8Kernel(self)  # inference only: no dropout


def quantize_model(model: EncoderModel, mode: str, threshold: float = DEFAULT_OUTLIER_THRESHOLD,
                   mask: PruneMask | None = None) -> QuantizedModel:
    if mode not in ("dynamic_int8", "int8_mixed"):
        raise ParameterError(f"unknown quantization mode '{mode}'")
    if not threshold > 0:  # NaN too: `persist.load_model` rejects a file holding it
        raise ParameterError(f"outlier threshold must be > 0, got {threshold}")
    if mask is not None:
        mask.check_fits({name: p.shape for name, p in model.params.items()}, ShapeError)
    params: dict[str, QuantizedTensor | np.ndarray] = {}
    for name, p in model.params.items():
        if not _all_finite(p.data):
            raise DataError(f"non-finite weights in '{name}'")
        if name.endswith(_LINEAR_WEIGHTS):
            wq = (quantize_with_outliers(p.data, threshold, axis=0) if mode == "int8_mixed"
                  else absmax_quantize(p.data, axis=0))
            bias = _bias_name(name)
            params[name], params[bias] = wq, model.param(bias).data
        elif name not in params:  # a bias is placed with its weight
            params[name] = p.data
    return QuantizedModel(model.config, mode, threshold, params, mask)


def quantize_model_dynamic(model: EncoderModel, mask: PruneMask | None = None) -> QuantizedModel:
    """Linear weights to int8 ahead of time; activations quantized on the fly."""
    return quantize_model(model, "dynamic_int8", mask=mask)


def quantize_model_int8_mixed(model: EncoderModel, threshold: float = DEFAULT_OUTLIER_THRESHOLD,
                              mask: PruneMask | None = None) -> QuantizedModel:
    """Vector-wise int8 on all matmul operands with fp32 outlier decomposition."""
    return quantize_model(model, "int8_mixed", threshold=threshold, mask=mask)


# ---------------------------------------------------------------------------
# quantized forward pass: model.forward over the int8 kernel

class Int8Kernel:
    """The encoder's ops in numpy over a QuantizedModel. Linears quantize
    their input per token row and run `int8_matmul`; the attention products
    run in fp32 (dynamic) or as `int8_bmm` (mixed); every other step uses the
    fp32 kernels of the tape ops, so it is bit-identical to them."""

    def __init__(self, qm: QuantizedModel):
        self.qm = qm
        self.params = qm.params
        self.mixed = qm.mode == "int8_mixed"
        self._x = self._xq = None  # the last linear input and its quantization

    def rows(self, name: str, ids: np.ndarray) -> np.ndarray:
        return self.params[name][ids]

    def constant(self, values: np.ndarray) -> np.ndarray:
        return values

    def linear(self, x: np.ndarray, weight: str) -> np.ndarray:
        if x is not self._x:  # q, k and v share their input: quantize it once
            self._x = x
            self._xq = (quantize_with_outliers(x, self.qm.outlier_threshold, axis=1)
                        if self.mixed else absmax_quantize(x, axis=1))
        out = int8_matmul(self._xq, self.params[weight])
        out += self.params[_bias_name(weight)]
        return out

    def attn_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return int8_bmm(a, b, self.qm.outlier_threshold) if self.mixed else a @ b

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def scale(self, a: np.ndarray, c: float) -> np.ndarray:
        return a * np.float32(c)

    def reshape(self, a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        return a.reshape(shape)

    def rearrange(self, a: np.ndarray, split: tuple[int, ...], axes: tuple[int, ...],
                  shape: tuple[int, ...]) -> np.ndarray:
        return np.ascontiguousarray(a.reshape(split).transpose(axes)).reshape(shape)

    def softmax(self, a: np.ndarray) -> np.ndarray:
        return _softmax_np(a, -1)

    def gelu(self, a: np.ndarray) -> np.ndarray:
        return _gelu_np(a)

    def layer_norm(self, x: np.ndarray, norm: str) -> np.ndarray:
        return _layer_norm_np(x, self.params[f"{norm}.gain"], self.params[f"{norm}.bias"], LN_EPS)

    def dropout(self, x: np.ndarray) -> np.ndarray:
        return x


def quantized_forward(qm: QuantizedModel, token_ids, attention_mask) -> np.ndarray:
    """Per-token class logits [b, s, num_classes] from the quantized handle."""
    return forward(qm, token_ids, attention_mask)
