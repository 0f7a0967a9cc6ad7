"""Dense fp32 tensor core: reverse-mode autodiff and the Adam optimizer.

Define-by-run: each op returns a new Tensor holding a backward closure, and
`backward()` replays the closures in reverse topological order. Everything is
float32 numpy on the CPU. Any op that produces NaN/Inf raises NumericsError
instead of propagating it.

What the tape keeps. A tracked op's output gets a graph node that holds no
array: it carries the gradient, its row support, the parent nodes and the
backward closure. Graph edges point at nodes, and a leaf (a parameter, a
constant, an untracked result) is its own node. The caller's Tensor holds
`.data`, so an interior array is freed as soon as the caller drops it,
unless a backward captured it. Each backward captures what it reads when
the op runs, and accumulates into its parents' nodes: the operands of
`matmul` and `mul`, the normalized input, inverse deviation and gain of
`layer_norm`, the output of `softmax`, GELU's derivative (computed in the
forward with the steps the backward once used, only when recorded),
dropout's draw as a bool mask (the float32 factor is rebuilt in backward),
and only shapes for `add`, `reshape`, `rearrange` and `take_rows`. So the
q/k/v projections before the head split, the scores before softmax, the
residual sums and FFN1's output live only as long as the forward needs them.

`adam_step` updates parameters and moments in place, walking each tensor in
cache-sized chunks through two scratch buffers; it applies the same float32
operations in the same order as the dense update, so its results are
byte-identical to it.

GELU's erf (`_erf_inplace`) is the float32 minimax rational x * P(x^2) /
Q(x^2) on x clamped to [-4, 4] that Eigen and XLA use, walked in the same
chunks: its max |error| against float64 erf is under 4e-7, GELU's under
1.5e-6, and its cost does not depend on the scale of the input.

Row-sparse embedding updates. The backward of a row gather (`take_rows`)
records in `grad_rows` the sorted rows outside which its gradient is exactly
zero, and `AdamState.rows` keeps, per parameter, the rows whose moments may
be non-zero. A row whose gradient is 0 and whose m and v are
still 0, as `init_adam` left them, is mapped to itself bit for bit by the
dense update: m' = b1*0 + (1-b1)*0 = +0, v' = +0, and p - lr*0/(sqrt(0) + eps)
= p, also for p = -0.0. So `adam_step` only runs the arithmetic on the rows
that hold a gradient now or held one at any earlier step of the state (rows
that fall silent keep decaying because they stay in the set), and its results
are byte-identical to the dense update. A dense contribution to the gradient
(the tied MLM head) clears `grad_rows`, and the parameter then takes the
dense path for good.

Gradient ownership. Every gradient array has one owner. An op's backward
hands `_accum` either an array it built for that call or a view of the
upstream gradient it received (`add`, `reshape`, `transpose`, `rearrange`),
and both count as `fresh`: `backward` releases each interior node's gradient
(`grad = None`) as soon as that node's backward has run, so nothing else
holds the upstream array. The first gradient of a node adopts a fresh array
without a copy; later ones are added into it. Only a second claim on one
array is copied: the second operand of `add` when both operands take the
upstream gradient unreduced, and `tsum`'s read-only `broadcast_to` view. A
backward never writes into what it captured. So no gradient shares memory
with another gradient, with any `.data` or with any captured array, only
leaves keep a gradient after `backward`, and a second `backward` over the
same graph adds the same amounts into the leaves again.

The raw `_*_np` kernels are shared with the quantized inference path so that
the full-precision branch of a quantized forward is bit-identical to the
autodiff forward.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericsError, ParameterError, ShapeError

Array = np.ndarray

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))

CHUNK = 1 << 16  # floats per chunk of the chunked kernels: their chunks and scratch buffers fit in L2

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction (teacher forwards, evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(data: Array, op: str) -> None:
    if not _all_finite(data):
        raise NumericsError(f"non-finite values produced by {op}")


class Tensor:
    """Dense fp32 n-d array, optionally tracked on the autodiff tape."""

    __slots__ = ("data", "requires_grad", "grad", "grad_rows", "name", "_parents", "_backward", "_node")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        data = np.asarray(values, dtype=np.float32)
        _check_finite(data, "tensor init")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.grad_rows: Array | None = None  # sorted axis-0 support of grad; None: dense
        self.name = name
        self._parents: tuple = ()
        self._backward = None
        self._node: Tensor | None = None  # None: the tensor is its own graph node

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None
        self.grad_rows = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        what = "graph node" if self.data is None else f"shape={self.shape}"
        return f"Tensor({what}, requires_grad={self.requires_grad}{tag})"


def _node(t: Tensor) -> Tensor:
    """The graph node that t's consumers point at and accumulate into."""
    return t if t._node is None else t._node


def _from_op(data: Array, parents: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
    """The output Tensor of an op over the graph nodes `parents`. When it is
    tracked, it holds the parents and backward itself, so `backward` can
    start from it, and its consumers get a node without data that shares
    them, so the graph does not keep `data` alive."""
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data.astype(np.float32, copy=False)
    out.grad = out.grad_rows = out.name = out._node = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        node = Tensor.__new__(Tensor)
        node.data = node.grad = node.grad_rows = node.name = node._node = None
        node.requires_grad = True
        node._parents = out._parents = parents
        node._backward = out._backward = backward_fn
        out._node = node
    else:
        out._parents, out._backward = (), None
    return out


def _accum(t: Tensor, g: Array, fresh: bool = False, rows: Array | None = None) -> None:
    """Add `g` into t.grad. A `fresh` g has no other owner (see the module
    docstring), so a first gradient adopts it instead of copying; `rows` is
    the sorted axis-0 support of g (None: dense)."""
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=np.float32)
    if t.grad is None:
        t.grad = g if fresh else g.copy()
        t.grad_rows = rows
    else:
        t.grad += g
        t.grad_rows = None if rows is None or t.grad_rows is None else np.union1d(t.grad_rows, rows)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce gradient `g` back to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(out: Tensor) -> None:
    """Reverse-mode accumulation from a scalar output into leaf .grad buffers."""
    if out.size != 1:
        raise ShapeError(f"backward expects a scalar output, got shape {out.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    out.grad = np.ones_like(out.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = node.grad_rows = None  # interior: handed on to its parents


def zero_grads(params) -> None:
    for p in (params.values() if isinstance(params, dict) else params):
        p.zero_grad()


# ---------------------------------------------------------------------------
# raw kernels (shared with the quantized inference path)

def _softmax_np(x: Array, axis: int) -> Array:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _log_softmax_np(x: Array, axis: int = -1) -> Array:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def _layer_norm_parts(x: Array, gain: Array, bias: Array, eps: float) -> tuple[Array, Array, Array]:
    """Layer norm over the last axis, and the normalized input and inverse
    standard deviation, which the tape op keeps for its backward."""
    mean = x.mean(axis=-1, keepdims=True)
    xc = x - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_np(x: Array, gain: Array, bias: Array, eps: float) -> Array:
    return _layer_norm_parts(x, gain, bias, eps)[0]


# erf(x) ~ x * P(x^2) / Q(x^2) with x clamped to [-4, 4]: the float32 minimax
# rational that Eigen and XLA use; coefficients highest power first.
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02))
_ERF_CLAMP = np.float32(4.0)


def _horner(s: Array, coefs: tuple, acc: Array) -> None:
    """acc = the polynomial `coefs` (highest power first) at s, in float32."""
    np.multiply(s, coefs[0], out=acc)
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= s
        acc += c


def _erf_inplace(z: Array) -> None:
    """erf of a C-contiguous float32 array, in place, by the rational above:
    max |error| under 4e-7 against float64 erf. Chunk by chunk through three
    reused buffers; every step is elementwise, so the bits do not depend on
    where the chunks fall. erf(+-4) and erf(+-inf) are +-1, erf(-0) is -0,
    and NaN stays NaN."""
    flat = z.reshape(-1)
    n = min(flat.size, CHUNK)
    s, p, q = (np.empty(n, dtype=np.float32) for _ in range(3))
    for lo in range(0, flat.size, CHUNK):
        c = flat[lo:lo + CHUNK]
        sk, pk, qk = s[:c.size], p[:c.size], q[:c.size]
        np.clip(c, -_ERF_CLAMP, _ERF_CLAMP, out=c)
        np.multiply(c, c, out=sk)
        _horner(sk, _ERF_P, pk)
        _horner(sk, _ERF_Q, qk)
        c *= pk
        c /= qk


def _gelu_parts(x: Array) -> tuple[Array, Array]:
    """GELU(x) = 0.5 * x * (1 + erf(x / sqrt 2)), and the 1 + erf(...) factor,
    which the tape op keeps for its backward. erf is `_erf_inplace`'s
    rational, so GELU is within 1.5e-6 of the exact function."""
    cdf2 = np.multiply(x, _INV_SQRT2, order="C")
    _erf_inplace(cdf2)
    cdf2 += 1.0
    out = 0.5 * x
    out *= cdf2
    return out.astype(np.float32, copy=False), cdf2


def _gelu_np(x: Array) -> Array:
    return _gelu_parts(x)[0]


# ---------------------------------------------------------------------------
# ops

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    an, bn, sa, sb = _node(a), _node(b), a.shape, b.shape

    def bwd(g: Array) -> None:
        ga, gb = _unbroadcast(g, sa), _unbroadcast(g, sb)
        _accum(an, ga, fresh=True)
        _accum(bn, gb, fresh=gb is not ga)  # both unreduced: one array, two claims

    return _from_op(data, (an, bn), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    data = x * y
    an, bn = _node(a), _node(b)

    def bwd(g: Array) -> None:
        _accum(an, _unbroadcast(g * y, x.shape), fresh=True)
        _accum(bn, _unbroadcast(g * x, y.shape), fresh=True)

    return _from_op(data, (an, bn), bwd, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * np.float32(c)
    an = _node(a)

    def bwd(g: Array) -> None:
        _accum(an, g * np.float32(c), fresh=True)

    return _from_op(data, (an,), bwd, "scale")


def tsum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=np.float32)
    an, shape = _node(a), a.shape

    def bwd(g: Array) -> None:
        _accum(an, np.broadcast_to(g, shape))

    return _from_op(data, (an,), bwd, "sum")


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """2D x 2D or batched 3D x 3D matrix product (equal batch dims). A `bias`
    of shape (n,) is added in place into the [..., n] product: the same
    float32 sums as `add(matmul(a, b), bias)`, in one node."""
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul supports 2D or 3D pairs, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2] or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    if bias is not None and bias.shape != (b.shape[-1],):
        raise ShapeError(f"matmul bias must have shape ({b.shape[-1]},), got {bias.shape}")
    x, w = a.data, b.data
    data = x @ w
    if bias is not None:
        data += bias.data
    an, bn = _node(a), _node(b)
    cn = None if bias is None else _node(bias)

    def bwd(g: Array) -> None:
        _accum(an, g @ w.swapaxes(-1, -2), fresh=True)
        _accum(bn, x.swapaxes(-1, -2) @ g, fresh=True)
        if cn is not None:
            _accum(cn, _unbroadcast(g, w.shape[-1:]), fresh=True)

    return _from_op(data, (an, bn) if cn is None else (an, bn, cn), bwd, "matmul")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    data = np.ascontiguousarray(a.data.transpose(axes))
    an = _node(a)

    def bwd(g: Array) -> None:
        _accum(an, g.transpose(inverse), fresh=True)

    return _from_op(data, (an,), bwd, "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    an, before = _node(a), a.shape

    def bwd(g: Array) -> None:
        _accum(an, g.reshape(before), fresh=True)

    return _from_op(data, (an,), bwd, "reshape")


def rearrange(a: Tensor, split: tuple[int, ...], axes: tuple[int, ...],
              shape: tuple[int, ...]) -> Tensor:
    """reshape(transpose(reshape(a, split), axes), shape) as one node: one
    copy forward, one backward (splitting and merging attention heads)."""
    permuted = tuple(split[i] for i in axes)
    inverse = tuple(np.argsort(axes))
    data = np.ascontiguousarray(a.data.reshape(split).transpose(axes)).reshape(shape)
    an, before = _node(a), a.shape

    def bwd(g: Array) -> None:
        _accum(an, g.reshape(permuted).transpose(inverse).reshape(before), fresh=True)

    return _from_op(data, (an,), bwd, "rearrange")


def take_rows(a: Tensor, idx: Array) -> Tensor:
    """Gather rows along axis 0."""
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]
    an, shape = _node(a), a.shape
    return _from_op(data, (an,), lambda g: _scatter_rows(an, shape, idx, g), "take_rows")


def _scatter_rows(t: Tensor, shape: tuple[int, ...], ids: Array, g: Array) -> None:
    """Backward of a row gather from a `shape` table: add the rows of g into
    t.grad at `ids` and record the rows touched. The zeros of the full table
    stay untouched (lazily mapped) pages outside those rows."""
    gt = np.zeros(shape, dtype=np.float32)
    np.add.at(gt, ids.reshape(-1), g.reshape((-1,) + shape[1:]))
    _accum(t, gt, fresh=True, rows=np.unique(ids))


def gelu(a: Tensor) -> Tensor:
    x = a.data
    data, cdf2 = _gelu_parts(x)
    if _grad_enabled and a.requires_grad:
        # the derivative, kept instead of x and cdf2:
        # 0.5 * cdf2 + x * exp(-0.5 * x * x) * _INV_SQRT2PI, rounded step by step as written
        d = -0.5 * x
        d *= x
        np.exp(d, out=d)
        d *= x
        d *= _INV_SQRT2PI
        cdf2 *= 0.5
        d += cdf2
    an = _node(a)

    def bwd(g: Array) -> None:
        _accum(an, d * g, fresh=True)

    return _from_op(data, (an,), bwd, "gelu")


def softmax(a: Tensor) -> Tensor:
    """Max-subtracted softmax along the last axis; rows sum to 1 within 1e-6."""
    y = _softmax_np(a.data, -1)
    an = _node(a)

    def bwd(g: Array) -> None:
        dot = np.sum(g * y, axis=-1, keepdims=True)
        _accum(an, y * (g - dot), fresh=True)

    return _from_op(y, (an,), bwd, "softmax")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then scale and shift."""
    n = a.shape[-1] if a.ndim else 0
    if n == 0:
        raise ShapeError("layer_norm over a zero-length axis")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}"
        )
    gamma = gain.data
    data, xhat, inv = _layer_norm_parts(a.data, gamma, bias.data, eps)
    an, gn, bn = _node(a), _node(gain), _node(bias)

    def bwd(g: Array) -> None:
        lead = tuple(range(g.ndim - 1))
        _accum(gn, np.sum(g * xhat, axis=lead), fresh=True)
        _accum(bn, np.sum(g, axis=lead), fresh=True)
        gx = g * gamma
        dm = gx.mean(axis=-1, keepdims=True)
        dv = (gx * xhat).mean(axis=-1, keepdims=True)
        _accum(an, inv * (gx - dm - xhat * dv), fresh=True)

    return _from_op(data, (an, gn, bn), bwd, "layer_norm")


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; rate 0 is the identity (and keeps the graph intact).
    The tape keeps the draw as a bool mask and rebuilds the float32 factor
    (0 or 1 / (1 - rate)) in backward."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    if rng is None:
        raise ParameterError("dropout with rate > 0 requires an rng")
    kept = rng.random(a.data.shape) >= rate
    factor = np.float32(1.0) / np.float32(1.0 - rate)

    def keep() -> Array:
        k = kept.astype(np.float32)
        k *= factor
        return k

    data = keep()
    data *= a.data
    an = _node(a)

    def bwd(g: Array) -> None:
        k = keep()
        k *= g
        _accum(an, k, fresh=True)

    return _from_op(data, (an,), bwd, "dropout")


IGNORE_INDEX = -100


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability over non-ignored rows of [n, c] logits.

    Every position with label == IGNORE_INDEX is excluded; if all positions
    are ignored the loss is exactly 0 with zero gradient.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [n, c] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} logit rows")
    live = labels != IGNORE_INDEX
    bad = live & ((labels < 0) | (labels >= c))
    if np.any(bad):
        pos = int(np.argwhere(bad)[0][0])
        raise DataError(f"label {labels[pos]} at position {pos} outside [0, {c})")
    keep = np.nonzero(live)[0]
    if keep.size == 0:
        return Tensor(0.0)
    rows = logits.data[keep]
    logp = _log_softmax_np(rows, axis=-1)
    picked = logp[np.arange(keep.size), labels[keep]]
    data = np.asarray(-picked.mean(), dtype=np.float32)
    ln = _node(logits)

    def bwd(g: Array) -> None:
        soft = np.exp(logp)
        soft[np.arange(keep.size), labels[keep]] -= 1.0
        gl = np.zeros((n, c), dtype=np.float32)
        gl[keep] = soft * (float(g) / keep.size)
        _accum(ln, gl, fresh=True)

    return _from_op(data, (ln,), bwd, "cross_entropy")


def kl_soft_targets(student_logits: Tensor, teacher_logits: Tensor, temperature: float) -> Tensor:
    """T^2-scaled mean KL(softmax(teacher/T) || softmax(student/T)) over rows.

    The teacher is treated as a constant: gradient flows to the student only.
    The T^2 factor keeps gradient magnitudes roughly independent of T.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    if student_logits.shape != teacher_logits.shape:
        raise ShapeError(
            f"student/teacher logit shapes differ: {student_logits.shape} vs {teacher_logits.shape}"
        )
    if student_logits.ndim != 2:
        raise ShapeError(f"kl_soft_targets expects [n, c] logits, got {student_logits.shape}")
    t = np.float32(temperature)
    n = student_logits.shape[0]
    logp = _log_softmax_np(teacher_logits.data / t, axis=-1)
    p = np.exp(logp)
    logq = _log_softmax_np(student_logits.data / t, axis=-1)
    data = np.asarray((temperature * temperature) * np.sum(p * (logp - logq)) / n, dtype=np.float32)
    sn = _node(student_logits)

    def bwd(g: Array) -> None:
        q = np.exp(logq)
        _accum(sn, (float(g) * float(t) / n) * (q - p), fresh=True)

    return _from_op(data, (sn,), bwd, "kl_soft_targets")


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments, the learning rate and the step
    count; the betas and eps are ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

    `rows[name]` holds the sorted rows of a parameter whose moments may be
    non-zero while it is updated row-sparsely; a dense update drops the entry.
    """

    learning_rate: float
    step: int = field(default=0, init=False)
    m: dict[str, Array] = field(default_factory=dict, init=False)
    v: dict[str, Array] = field(default_factory=dict, init=False)
    rows: dict[str, Array] = field(default_factory=dict, init=False)


def init_adam(params: dict[str, Tensor], learning_rate: float) -> AdamState:
    state = AdamState(learning_rate)
    for name, p in params.items():
        state.m[name] = np.zeros(p.data.shape, dtype=np.float32)
        state.v[name] = np.zeros(p.data.shape, dtype=np.float32)
        state.rows[name] = np.empty(0, dtype=np.int64)
    return state


def _all_finite(x: Array, ok: Array | None = None) -> bool:
    """np.all(np.isfinite(x)) without a full-size temporary: chunk by chunk
    through `ok` (a buffer of up to CHUNK bools when not given). x is
    walked in memory order, a view for any contiguous or permuted array."""
    flat = x.ravel(order="K")
    if ok is None:
        ok = np.empty(min(flat.size, CHUNK) or 1, dtype=bool)
    for lo in range(0, flat.size, ok.size):
        chunk = flat[lo:lo + ok.size]
        if not np.isfinite(chunk, out=ok[:chunk.size]).all():
            return False
    return True


def adam_step(params: dict[str, Tensor], grads: dict[str, Array | None], state: AdamState) -> None:
    """One bias-corrected Adam update, in place. Missing grads count as zero;
    grads are used as float32.

    A gradient is checked for finiteness as a whole before the first chunk of
    its parameter is written, so a NumericsError leaves that parameter and its
    moments untouched.

    When the gradient handed in is `p.grad` itself with a row support
    (`grad_rows`, or None for no gradient) and the parameter has only been
    updated row-sparsely so far, only the live rows, those in the support now
    or at an earlier step, are gathered, updated and scattered back; see the
    module docstring for why this is exact.
    """
    state.step += 1
    t = state.step
    b1, b2 = np.float32(ADAM_BETA1), np.float32(ADAM_BETA2)
    a1, a2 = 1.0 - b1, 1.0 - b2
    c1 = np.float32(1.0 - ADAM_BETA1**t)
    c2 = np.float32(1.0 - ADAM_BETA2**t)
    lr = np.float32(state.learning_rate)
    eps = np.float32(ADAM_EPS)
    num, den = np.empty(CHUNK, dtype=np.float32), np.empty(CHUNK, dtype=np.float32)
    ok = np.empty(CHUNK, dtype=bool)
    zeros = None
    for name, p in params.items():
        g = grads.get(name)
        if g is not None and g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for '{name}'")
        rows = state.rows.get(name)
        live = None
        if rows is not None and g is p.grad and (g is None or p.grad_rows is not None):
            live = rows if g is None else np.union1d(rows, p.grad_rows)
            g = None if g is None else g[live]
        gf = None if g is None else np.ravel(np.asarray(g, dtype=np.float32))
        if gf is None:
            if zeros is None:
                zeros = np.zeros(CHUNK, dtype=np.float32)
        elif not _all_finite(gf, ok):
            raise NumericsError(f"non-finite gradient for tensor '{name}'")
        if live is None:
            state.rows.pop(name, None)
            if not p.data.flags.c_contiguous:  # reshape would copy, and the update would be lost
                p.data = np.ascontiguousarray(p.data)
            pt, mt, vt = p.data, state.m[name], state.v[name]
        else:
            pt, mt, vt = p.data[live], state.m[name][live], state.v[name][live]
        pf, mf, vf = pt.reshape(-1), mt.reshape(-1), vt.reshape(-1)
        for lo in range(0, pf.size, CHUNK):
            hi = min(lo + CHUNK, pf.size)
            n = hi - lo
            pc, mc, vc, x, y = pf[lo:hi], mf[lo:hi], vf[lo:hi], num[:n], den[:n]
            gc = zeros[:n] if gf is None else gf[lo:hi]
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g)
            mc *= b1
            np.multiply(gc, a1, out=x)
            mc += x
            vc *= b2
            np.multiply(gc, gc, out=x)
            x *= a2
            vc += x
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(mc, c1, out=x)
            x *= lr
            np.divide(vc, c2, out=y)
            np.sqrt(y, out=y)
            y += eps
            x /= y
            pc -= x
        if live is not None:
            p.data[live], state.m[name][live], state.v[name][live] = pt, mt, vt
            state.rows[name] = live
