"""Dense fp32 tensor core: reverse-mode autodiff and the Adam optimizer.

Define-by-run: each op returns a new Tensor holding a backward closure, and
`backward()` replays the closures in reverse topological order. Everything is
float32 numpy on the CPU. Any op that produces NaN/Inf raises NumericsError
instead of propagating it.

`adam_step` updates parameters and moments in place, walking each tensor in
cache-sized chunks through two scratch buffers; it applies the same float32
operations in the same order as the dense update, so its results are
byte-identical to it.

The raw `_*_np` kernels are shared with the quantized inference path so that
the full-precision branch of a quantized forward is bit-identical to the
autodiff forward.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import DataError, NumericsError, ParameterError, ShapeError

Array = np.ndarray

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))

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
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by {op}")


class Tensor:
    """Dense fp32 n-d array, optionally tracked on the autodiff tape."""

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        data = np.asarray(values, dtype=np.float32)
        _check_finite(data, "tensor init")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.name = name
        self._parents: tuple = ()
        self._backward = None

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

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def _from_op(data: Array, parents: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data.astype(np.float32, copy=False)
    out.grad = None
    out.name = None
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out._parents = parents if track else ()
    out._backward = backward_fn if track else None
    return out


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=np.float32)
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


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


def _layer_norm_np(x: Array, gain: Array, bias: Array, eps: float) -> Array:
    # arithmetic kept literally identical to the layer_norm tape op
    mean = x.mean(axis=-1, keepdims=True)
    xc = x - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    return (xc * inv) * gain + bias


def _gelu_parts(x: Array) -> tuple[Array, Array]:
    """GELU(x) = 0.5 * x * (1 + erf(x / sqrt 2)), and the 1 + erf(...) factor,
    which the tape op keeps for its backward."""
    cdf2 = x * _INV_SQRT2
    erf(cdf2, out=cdf2)
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

    def bwd(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _from_op(data, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g: Array) -> None:
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _from_op(data, (a, b), bwd, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * np.float32(c)

    def bwd(g: Array) -> None:
        _accum(a, g * np.float32(c))

    return _from_op(data, (a,), bwd, "scale")


def tsum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=np.float32)

    def bwd(g: Array) -> None:
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _from_op(data, (a,), bwd, "sum")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2D x 2D or batched 3D x 3D matrix product (equal batch dims)."""
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul supports 2D or 3D pairs, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2] or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def bwd(g: Array) -> None:
        _accum(a, g @ b.data.swapaxes(-1, -2))
        _accum(b, a.data.swapaxes(-1, -2) @ g)

    return _from_op(data, (a, b), bwd, "matmul")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    data = np.ascontiguousarray(a.data.transpose(axes))

    def bwd(g: Array) -> None:
        _accum(a, g.transpose(inverse))

    return _from_op(data, (a,), bwd, "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)

    def bwd(g: Array) -> None:
        _accum(a, g.reshape(a.data.shape))

    return _from_op(data, (a,), bwd, "reshape")


def embedding(table: Tensor, ids: Array) -> Tensor:
    """Row gather: table[V, H] indexed by an integer array of any shape."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        pos = tuple(int(v) for v in np.argwhere((ids < 0) | (ids >= table.shape[0]))[0])
        raise DataError(
            f"embedding id out of range at position {pos}: "
            f"{int(ids[pos])} not in [0, {table.shape[0]})"
        )
    data = table.data[ids]

    def bwd(g: Array) -> None:
        gt = np.zeros(table.shape, dtype=np.float32)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        if table.grad is None:
            table.grad = gt  # freshly built here, so adopted without a copy
        else:
            _accum(table, gt)

    return _from_op(data, (table,), bwd, "embedding")


def take_rows(a: Tensor, idx: Array) -> Tensor:
    """Gather rows along axis 0."""
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]

    def bwd(g: Array) -> None:
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accum(a, ga)

    return _from_op(data, (a,), bwd, "take_rows")


def gelu(a: Tensor) -> Tensor:
    data, cdf2 = _gelu_parts(a.data)

    def bwd(g: Array) -> None:
        # d = 0.5 * cdf2 + x * exp(-0.5 * x * x) * _INV_SQRT2PI, rounded step by step as written
        x = a.data
        d = -0.5 * x
        d *= x
        np.exp(d, out=d)
        d *= x
        d *= _INV_SQRT2PI
        d += 0.5 * cdf2
        d *= g
        _accum(a, d)

    return _from_op(data, (a,), bwd, "gelu")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; slices sum to 1 within 1e-6."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    y = _softmax_np(a.data, axis)

    def bwd(g: Array) -> None:
        dot = np.sum(g * y, axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return _from_op(y, (a,), bwd, "softmax")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then scale and shift."""
    n = a.shape[-1] if a.ndim else 0
    if n == 0:
        raise ShapeError("layer_norm over a zero-length axis")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}"
        )
    x = a.data
    mean = x.mean(axis=-1, keepdims=True)
    xc = x - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def bwd(g: Array) -> None:
        lead = tuple(range(g.ndim - 1))
        _accum(gain, np.sum(g * xhat, axis=lead))
        _accum(bias, np.sum(g, axis=lead))
        gx = g * gain.data
        dm = gx.mean(axis=-1, keepdims=True)
        dv = (gx * xhat).mean(axis=-1, keepdims=True)
        _accum(a, inv * (gx - dm - xhat * dv))

    return _from_op(data, (a, gain, bias), bwd, "layer_norm")


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; rate 0 is the identity (and keeps the graph intact)."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    if rng is None:
        raise ParameterError("dropout with rate > 0 requires an rng")
    keep = (rng.random(a.data.shape) >= rate).astype(np.float32) / np.float32(1.0 - rate)
    data = a.data * keep

    def bwd(g: Array) -> None:
        _accum(a, g * keep)

    return _from_op(data, (a,), bwd, "dropout")


IGNORE_INDEX = -100


def cross_entropy(logits: Tensor, labels, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean negative log-probability over non-ignored rows of [n, c] logits.

    Every position with label == ignore_index is excluded; if all positions
    are ignored the loss is exactly 0 with zero gradient.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [n, c] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} logit rows")
    live = labels != ignore_index
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

    def bwd(g: Array) -> None:
        soft = np.exp(logp)
        soft[np.arange(keep.size), labels[keep]] -= 1.0
        gl = np.zeros_like(logits.data)
        gl[keep] = soft * (float(g) / keep.size)
        _accum(logits, gl)

    return _from_op(data, (logits,), bwd, "cross_entropy")


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

    def bwd(g: Array) -> None:
        q = np.exp(logq)
        _accum(student_logits, (float(g) * float(t) / n) * (q - p))

    return _from_op(data, (student_logits,), bwd, "kl_soft_targets")


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    """Per-parameter first/second moments plus shared hyperparameters."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)


def init_adam(params: dict[str, Tensor], learning_rate: float, **kwargs) -> AdamState:
    state = AdamState(learning_rate=learning_rate, **kwargs)
    for name, p in params.items():
        state.m[name] = np.zeros(p.data.shape, dtype=np.float32)
        state.v[name] = np.zeros(p.data.shape, dtype=np.float32)
    return state


ADAM_CHUNK = 1 << 16  # floats per chunk: chunks of p, g, m, v and two scratch buffers fit in L2


def _all_finite(flat: Array, ok: Array) -> bool:
    """np.all(np.isfinite(flat)) without a full-size temporary: chunk by chunk through `ok`."""
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
    """
    state.step += 1
    t = state.step
    b1, b2 = np.float32(state.beta1), np.float32(state.beta2)
    a1, a2 = 1.0 - b1, 1.0 - b2
    c1 = np.float32(1.0 - state.beta1**t)
    c2 = np.float32(1.0 - state.beta2**t)
    lr = np.float32(state.learning_rate)
    eps = np.float32(state.eps)
    num, den = np.empty(ADAM_CHUNK, dtype=np.float32), np.empty(ADAM_CHUNK, dtype=np.float32)
    ok = np.empty(ADAM_CHUNK, dtype=bool)
    zeros = None
    for name, p in params.items():
        g = grads.get(name)
        gf = None if g is None else np.ravel(np.asarray(g, dtype=np.float32))
        if gf is None:
            if zeros is None:
                zeros = np.zeros(ADAM_CHUNK, dtype=np.float32)
        elif not _all_finite(gf, ok):
            raise NumericsError(f"non-finite gradient for tensor '{name}'")
        elif g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for '{name}'")
        if not p.data.flags.c_contiguous:  # reshape would copy, and the update would be lost
            p.data = np.ascontiguousarray(p.data)
        pf, mf, vf = p.data.reshape(-1), state.m[name].reshape(-1), state.v[name].reshape(-1)
        for lo in range(0, pf.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, pf.size)
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
