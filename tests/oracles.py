"""Independent reference implementations used as test oracles.

Everything here is float64 numpy with no autodiff involvement, so
finite-difference gradients are limited by truncation error only. The
float32 references at the end are the whole-array expressions that the
optimized tape kernels must reproduce byte for byte.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def softmax64(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax64(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def layer_norm64(x, gain, bias, eps) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * np.asarray(gain, dtype=np.float64) + bias


def gelu64(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def cross_entropy64(logits, labels, ignore_index=-100) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    keep = labels != ignore_index
    if not keep.any():
        return 0.0
    lp = log_softmax64(logits[keep])
    return float(-lp[np.arange(keep.sum()), labels[keep]].mean())


def kl_soft64(student, teacher, temperature) -> float:
    s = np.asarray(student, dtype=np.float64) / temperature
    t = np.asarray(teacher, dtype=np.float64) / temperature
    p = softmax64(t)
    val = (p * (log_softmax64(t) - log_softmax64(s))).sum(axis=-1).mean()
    return float(temperature * temperature * val)


def fd_grad(loss64, x: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of a float64 scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1).copy()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss64(flat.reshape(x.shape))
        flat[i] = orig - h
        dn = loss64(flat.reshape(x.shape))
        flat[i] = orig
        out[i] = (up - dn) / (2.0 * h)
    return out.reshape(x.shape)


def grad_rel_err(analytic: np.ndarray, loss64, x: np.ndarray,
                 hs=(1e-2, 1e-3)) -> float:
    """Best relative error over the allowed step sizes."""
    best = np.inf
    for h in hs:
        fd = fd_grad(loss64, x, h)
        denom = max(np.max(np.abs(fd)), np.max(np.abs(analytic)), 1e-2)
        best = min(best, float(np.max(np.abs(fd - analytic)) / denom))
    return best


def brute_force_spans(tags: list[str]) -> set[tuple[str, int, int]]:
    """Span oracle by a different decomposition than the streaming scorer:
    group consecutive same-type entity tokens, then split groups before
    every B tag."""
    typed = [None if t == "O" else (t[0], t[2:]) for t in tags]
    spans: set[tuple[str, int, int]] = set()
    i = 0
    while i < len(typed):
        if typed[i] is None:
            i += 1
            continue
        etype = typed[i][1]
        j = i
        while j + 1 < len(typed) and typed[j + 1] is not None and typed[j + 1][1] == etype:
            j += 1
        # the run [i, j] is one type; B tags start new spans inside it
        start = i
        for k in range(i + 1, j + 1):
            if typed[k][0] == "B":
                spans.add((etype, start, k - 1))
                start = k
        spans.add((etype, start, j))
        i = j + 1
    return spans


def prf_oracle(gold: list[list[str]], pred: list[list[str]]) -> tuple[float, float, float]:
    tp = n_gold = n_pred = 0
    for g, p in zip(gold, pred):
        gs, ps = brute_force_spans(g), brute_force_spans(p)
        tp += len(gs & ps)
        n_gold += len(gs)
        n_pred += len(ps)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------------------
# float32 whole-array references

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def gelu_f32(x: np.ndarray) -> np.ndarray:
    return (0.5 * x * (1.0 + erf(x * _INV_SQRT2))).astype(np.float32)


def gelu_grad_f32(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    d = 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return g * d.astype(np.float32)


def adam_dense(p: np.ndarray, g: np.ndarray | None, m: np.ndarray, v: np.ndarray, step: int,
               learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
               eps: float = 1e-8) -> None:
    """One bias-corrected Adam update of float32 arrays in place, one
    whole-array expression per line; a missing gradient counts as zero."""
    if g is None:
        g = np.zeros_like(p)
    b1, b2 = np.float32(beta1), np.float32(beta2)
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    mhat = m / np.float32(c1)
    vhat = v / np.float32(c2)
    p -= np.float32(learning_rate) * mhat / (np.sqrt(vhat) + np.float32(eps))
