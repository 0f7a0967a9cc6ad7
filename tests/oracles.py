"""Independent reference implementations used as test oracles.

Everything here is float64 numpy with no autodiff involvement, so
finite-difference gradients are limited by truncation error only. The
float32 references after them are the whole-array expressions that the
optimized tape kernels must reproduce byte for byte; GELU's among them
evaluates the same float32 rational for erf as the chunked kernel, and only
`gelu64` uses the exact float64 erf. The int8 section keeps
the int8 product that zeroes the outlier union in converted copies of both
operands, rescales through one full-size float64 array and adds the outlier
union from its own dequantization, and the next one
the hand-written quantized forward over that product; `quant.int8_matmul`
and the shared encoder topology must reproduce them byte for byte. The
set-up references after them are the sort-based magnitude mask and the full
re-scan truncated normal that the linear-time versions must reproduce bit
for bit, then the `Generator.choice` corpus draws that the synthetic corpora
must equal, and last the hand-written training loops and CLI student grid
that the shared training loop and `distill.distill_grid` must reproduce.
The section after them is the tape as it was before gradients were handed
over, each bias joined its GEMM and the heads were split in one op; the
leaner tape must reproduce its trained tensors, traces and logits byte for
byte. Then comes the version-1 writer of pruned files (each tensor dense or
sparse, its mask a record of its own), which the masked records of version 2
must load equal to. The last is the desk study as it ran while every model
kept its whole token table, which the table cut to the vocabulary must
reproduce logit for logit.
"""
from __future__ import annotations

import contextlib
import struct
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from scipy.special import erf

from sdcw import data, rng
from sdcw import tensor as T
from sdcw.data import batch as make_batches
from sdcw.distill import (DistillSpec, StudentSpec, _lines_to_sentences, artifact_name,
                          init_student, mlm_corrupt)
from sdcw.errors import DataError, ParameterError, ShapeError
from sdcw.model import (ATTN_MASK_BIAS, LN_EPS, EncoderModel, TapeKernel, TrainSpec, _bias_name,
                        _validate_inputs, clone_model, finetune, forward, forward_hidden,
                        mlm_logits)
from sdcw.prune import PruneMask, apply_mask, compute_mask, prunable_names, pruned_count
from sdcw.quant import (EXACT_BLOCK, MAX_CONTRACTION, QuantizedModel, QuantizedTensor,
                        absmax_quantize, quantize_model_dynamic, quantize_model_int8_mixed,
                        quantize_with_outliers)
from sdcw.tensor import IGNORE_INDEX, _gelu_np, _layer_norm_np, _softmax_np


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


# erf(x) ~ x * P(x^2) / Q(x^2) on x clamped to [-4, 4], the float32 minimax
# rational of Eigen and XLA (coefficients highest power first)
_ERF_P = [np.float32(c) for c in (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                                  -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                                  -1.60960333262415e-02)]
_ERF_Q = [np.float32(c) for c in (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                                  -7.37332916720468e-03, -1.42647390514189e-02)]


def erf_f32(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, np.float32(-4.0), np.float32(4.0))
    s = x * x
    p = s * _ERF_P[0] + _ERF_P[1]
    for c in _ERF_P[2:]:
        p = p * s + c
    q = s * _ERF_Q[0] + _ERF_Q[1]
    for c in _ERF_Q[2:]:
        q = q * s + c
    return x * p / q


def gelu_f32(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf_f32(x * _INV_SQRT2))


def gelu_grad_f32(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    d = 0.5 * (1.0 + erf_f32(x * _INV_SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return g * d


def layer_norm_f32(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    xc = x - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    return (xc * inv) * gain + bias


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


# ---------------------------------------------------------------------------
# int8 quantization references

def absmax_quantize_ref(x, axis: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(q, scales) of per-vector absmax quantization as whole-array
    expressions: s = 127 / max|x| (1 for a zero vector) and
    clip(sign(x * s) * floor(|x * s| + 0.5), -127, 127)."""
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim == 1:
        arr, axis = arr[None, :], 1
    maxabs = np.max(np.abs(arr), axis=axis)
    scales = np.where(maxabs > 0, 127.0 / np.maximum(maxabs, 1e-30), 1.0).astype(np.float32)
    scaled = arr * (scales[:, None] if axis == 1 else scales[None, :])
    q = np.clip(np.sign(scaled) * np.floor(np.abs(scaled) + 0.5), -127, 127).astype(np.int8)
    return q, scales


def quantize_with_outliers_ref(x, threshold: float, axis: int = 1):
    """(q, scales, outlier indices): contraction vectors whose max magnitude
    reaches the threshold are zeroed in a copy, which is then quantized."""
    arr = np.asarray(x, dtype=np.float32)
    cols = np.nonzero(np.max(np.abs(arr), axis=1 - axis) >= threshold)[0]
    kept = arr.copy()
    if axis == 1:
        kept[:, cols] = 0.0
    else:
        kept[cols, :] = 0.0
    q, scales = absmax_quantize_ref(kept, axis)
    return q, scales, cols


def _int_matmul_ref(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Exact (..., m, k) @ (..., k, n) of float32 arrays holding int8 values:
    one float32 GEMM per block of at most EXACT_BLOCK contraction indices,
    blocks added in float64."""
    k = qa.shape[-1]
    if k <= EXACT_BLOCK:
        return qa @ qb
    acc = np.zeros(qa.shape[:-1] + qb.shape[-1:], dtype=np.float64)
    for start in range(0, k, EXACT_BLOCK):
        acc += qa[..., start:start + EXACT_BLOCK] @ qb[..., start:start + EXACT_BLOCK, :]
    return acc


def _rescale_ref(acc: np.ndarray, scales_a: np.ndarray, scales_b: np.ndarray) -> np.ndarray:
    """acc / (scales_a * scales_b) in float64, rounded once to float32; the
    scales broadcast to acc's shape."""
    outer = scales_a.astype(np.float64) * scales_b.astype(np.float64)
    np.divide(acc, outer, out=outer)
    return outer.astype(np.float32)


def dequant_ref(qt: QuantizedTensor) -> np.ndarray:
    """The fp32 content of a QuantizedTensor: its payload over its scales,
    with its own outlier vectors put back exactly."""
    scales = qt.scales[:, None] if qt.axis == 1 else qt.scales[None, :]
    x = qt.q.astype(np.float32) / scales
    if qt.outlier_cols.size and qt.axis == 1:
        x[:, qt.outlier_cols] = qt.outlier_values
    elif qt.outlier_cols.size:
        x[qt.outlier_cols, :] = qt.outlier_values
    return x


def int8_matmul_ref(aq: QuantizedTensor, bq: QuantizedTensor) -> np.ndarray:
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
    qa, qb = aq.q.astype(np.float32), bq.q.astype(np.float32)
    if union.size:
        # both integer operands skip every outlier k-index to avoid double counting
        qa[:, union] = 0
        qb[union, :] = 0
    out = _rescale_ref(_int_matmul_ref(qa, qb), aq.scales[:, None], bq.scales[None, :])
    if union.size:
        out += dequant_ref(aq)[:, union] @ dequant_ref(bq)[union, :]
    return out


def attention_matmul_loop(a: np.ndarray, b: np.ndarray, threshold: float) -> np.ndarray:
    """Mixed-mode [N,m,k] x [N,k,n], one 2D quantize-and-multiply per slice."""
    out = np.empty((a.shape[0], a.shape[1], b.shape[2]), dtype=np.float32)
    for i in range(a.shape[0]):
        out[i] = int8_matmul_ref(quantize_with_outliers(a[i], threshold, axis=1),
                                 quantize_with_outliers(b[i], threshold, axis=0))
    return out


# ---------------------------------------------------------------------------
# the hand-written quantized forward that model.forward over quant.Int8Kernel
# replaced; the two must give the same logits byte for byte

def _act_quant(qm: QuantizedModel, x: np.ndarray) -> QuantizedTensor:
    if qm.mode == "int8_mixed":
        return quantize_with_outliers(x, qm.outlier_threshold, axis=1)
    return absmax_quantize(x, axis=1)


def _q_linear(qm: QuantizedModel, name: str, x: np.ndarray) -> np.ndarray:
    return int8_matmul_ref(_act_quant(qm, x), qm.params[name]) + qm.params[_bias_name(name)]


def _q_attention_matmul(qm: QuantizedModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched [B,m,k] x [B,k,n]; int8 in mixed mode, fp32 in dynamic mode."""
    if qm.mode != "int8_mixed":
        return a @ b
    return attention_matmul_loop(a, b, qm.outlier_threshold)


def quantized_forward_ref(qm: QuantizedModel, token_ids, attention_mask) -> np.ndarray:
    """Per-token class logits [b, s, num_classes] from the quantized handle."""
    c = qm.config
    ids, mask = _validate_inputs(c, token_ids, attention_mask)
    b, s = ids.shape
    h, d, heads = c.hidden_size, c.head_dim, c.num_heads
    x = qm.params["embeddings.token"][ids] + qm.params["embeddings.position"][:s]
    x = _layer_norm_np(x, qm.params["embeddings.norm.gain"], qm.params["embeddings.norm.bias"], LN_EPS)
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
        x = _layer_norm_np(x + attn_out, qm.params[f"{p}.attn_norm.gain"],
                           qm.params[f"{p}.attn_norm.bias"], LN_EPS)
        ff = _gelu_np(_q_linear(qm, f"{p}.ffn.w1", x))
        ff = _q_linear(qm, f"{p}.ffn.w2", ff)
        x = _layer_norm_np(x + ff, qm.params[f"{p}.ffn_norm.gain"],
                           qm.params[f"{p}.ffn_norm.bias"], LN_EPS)
    logits = _q_linear(qm, "head.weight", x)
    return logits.reshape(b, s, c.num_classes)


# ---------------------------------------------------------------------------
# set-up references: a stable argsort for the magnitude mask, and a
# rejection loop that re-scans the whole array after every round

def compute_mask_sorted(model: EncoderModel, p: float, scope: list[str] | None = None) -> PruneMask:
    """Global-threshold mask zeroing exactly round(p * N) in-scope weights."""
    if not 0.0 <= p <= 0.99:
        raise ParameterError(f"sparsity must be in [0, 0.99], got {p}")
    names = scope if scope is not None else prunable_names(model)
    if not names:
        raise ParameterError("prunable scope is empty")
    mags = np.concatenate([np.abs(model.param(n).data.reshape(-1)) for n in names])
    k = pruned_count(p, mags.size)
    keep_flat = np.ones(mags.size, dtype=np.uint8)
    if k > 0:
        order = np.argsort(mags, kind="stable")
        keep_flat[order[:k]] = 0
    masks: dict[str, np.ndarray] = {}
    offset = 0
    for n in names:
        size = model.param(n).size
        masks[n] = keep_flat[offset : offset + size].reshape(model.param(n).shape)
        offset += size
    return PruneMask(masks)


def truncated_normal_rescan(
    rng: np.random.Generator, shape, std: float = 0.02, clip_sigmas: float = 2.0
) -> np.ndarray:
    """Normal(0, std) samples, resampled until all lie within clip_sigmas*std."""
    out = rng.normal(0.0, std, size=shape)
    bound = clip_sigmas * std
    bad = np.abs(out) > bound
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# synthetic corpora drawn with Generator.choice, one call per token; the
# draws without it must give the same corpora

def _synth_sentence_choice(gen: np.random.Generator, entity_types, mix) -> data.Sentence:
    n_entities = int(gen.choice([1, 2, 3], p=[0.40, 0.45, 0.15]))
    tokens: list[str] = []
    tags: list[str] = []
    for _ in range(n_entities):
        for _ in range(int(gen.integers(1, 4))):
            tokens.append(str(gen.choice(data._FILLERS)))
            tags.append("O")
        etype = str(gen.choice(entity_types, p=mix))
        pool = data._POOLS[etype]
        span_len = int(gen.choice([1, 2, 3], p=[0.25, 0.40, 0.35]))
        for j in range(span_len):
            tokens.append(str(gen.choice(pool)))
            tags.append(("B-" if j == 0 else "I-") + etype)
    for _ in range(int(gen.integers(1, 3))):
        tokens.append(str(gen.choice(data._FILLERS)))
        tags.append("O")
    return data.Sentence(tokens, tags)


def synth_ner_corpus_choice(
    seed: int,
    n_sentences: int,
    entity_types: Sequence[str] = data.DEFAULT_ENTITY_TYPES,
) -> tuple[list[data.Sentence], list[data.Sentence], list[data.Sentence]]:
    """Template-generated NER corpus with disjoint surface vocabulary per
    entity type, split 70/10/20 into train/dev/test. Deterministic per seed."""
    if n_sentences < 10:
        raise ParameterError(f"n_sentences must be >= 10, got {n_sentences}")
    unknown = [t for t in entity_types if t not in data._POOLS]
    if unknown:
        raise ParameterError(f"no surface pool for entity types {unknown}")
    mix = np.full(len(entity_types), 1.0 / len(entity_types))
    gen = rng.stream(seed, "synth-ner")
    sentences = [_synth_sentence_choice(gen, list(entity_types), mix) for _ in range(n_sentences)]
    n_train = round(0.7 * n_sentences)
    n_dev = round(0.1 * n_sentences)
    return (
        sentences[:n_train],
        sentences[n_train : n_train + n_dev],
        sentences[n_train + n_dev :],
    )


def synth_pretrain_corpus_choice(seed: int, n_lines: int) -> list[str]:
    """Unlabeled synthetic text (entity surface forms mixed into filler text),
    12 to 18 tokens a line, long enough to survive the >11-token corpus filter."""
    gen = rng.stream(seed, "synth-pretrain")
    all_entities = [tok for pool in data._POOLS.values() for tok in pool]
    lines = []
    for _ in range(n_lines):
        n = int(gen.integers(12, 18 + 1))
        toks = []
        for _ in range(n):
            if gen.random() < 0.25:
                toks.append(str(gen.choice(all_entities)))
            else:
                toks.append(str(gen.choice(data._FILLERS)))
        lines.append(" ".join(toks))
    return lines


# ---------------------------------------------------------------------------
# the hand-written training loops: fine-tuning, masked-LM training and
# task-specific distillation each ran their own Adam loop, and the CLI ran
# its own student grid. `model.train_loop` and `distill.distill_grid` must
# reproduce every loss trace and trained tensor of these byte for byte.

def finetune_ref(
    model: EncoderModel,
    sentences: list[data.Sentence],
    vocab: data.Vocabulary,
    spec: TrainSpec,
    seed: int,
    entity_types=None,
    pre_step=None,
    post_step=None,
) -> list[float]:
    """Cross-entropy fine-tuning on non-padding tokens; returns per-epoch mean loss."""
    from sdcw.data import DEFAULT_ENTITY_TYPES, bio_labels

    spec.validate()
    if not sentences:
        raise DataError("finetune requires a non-empty dataset")
    entity_types = entity_types or DEFAULT_ENTITY_TYPES
    n_labels = len(bio_labels(entity_types))
    if n_labels > model.config.num_classes:
        raise DataError(
            f"{n_labels} labels but the model has {model.config.num_classes} classes"
        )
    state = T.init_adam(model.params, spec.learning_rate)
    drop_rng = rng.stream(seed, "dropout")
    trace: list[float] = []
    step = 0
    for epoch in range(spec.epochs):
        batches = make_batches(
            sentences, vocab, spec.max_seq_len, spec.batch_size,
            shuffle_seed=rng.derive(seed, f"shuffle-epoch{epoch}"),
            entity_types=entity_types,
        )
        losses = []
        for tb in batches:
            if pre_step is not None:
                pre_step(step)
            logits = forward(model, tb.token_ids, tb.attention_mask, dropout_rng=drop_rng)
            flat = T.reshape(logits, (-1, model.config.num_classes))
            loss = T.cross_entropy(flat, tb.label_ids.reshape(-1))
            T.backward(loss)
            T.adam_step(model.params, {n: p.grad for n, p in model.params.items()}, state)
            T.zero_grads(model.params)
            if post_step is not None:
                post_step(step)
            step += 1
            losses.append(loss.item())
        trace.append(float(np.mean(losses)))
    return trace


def _mlm_epoch_ref(student, teacher, batches, vocab_size, dspec, corrupt_gen, adam_state):
    losses = []
    for tb in batches:
        ids, labels = mlm_corrupt(tb, vocab_size, corrupt_gen, dspec.mlm_mask_rate)
        sel = np.nonzero(labels.reshape(-1) != IGNORE_INDEX)[0]
        if sel.size == 0:
            continue
        hidden = forward_hidden(student, ids, tb.attention_mask)
        logits = T.take_rows(mlm_logits(student, hidden), sel)
        hard = T.cross_entropy(logits, labels.reshape(-1)[sel])
        if teacher is not None and dspec.alpha_soft > 0:
            with T.no_grad():
                t_hidden = forward_hidden(teacher, ids, tb.attention_mask)
                t_logits = T.take_rows(mlm_logits(teacher, t_hidden), sel)
            soft = T.kl_soft_targets(logits, t_logits, dspec.temperature)
            loss = T.add(T.scale(soft, dspec.alpha_soft), T.scale(hard, dspec.alpha_hard))
        else:
            loss = T.scale(hard, dspec.alpha_hard) if teacher is not None else hard
        T.backward(loss)
        T.adam_step(student.params, {n: p.grad for n, p in student.params.items()}, adam_state)
        T.zero_grads(student.params)
        losses.append(loss.item())
    return losses


def run_mlm_ref(teacher, student, lines, vocab, dspec, tspec, seed) -> list[float]:
    """Masked-LM training of `student`; with a teacher, its distillation.
    `pretrain_mlm` is this with no teacher, alpha_soft 0 and alpha_hard 1."""
    tspec.validate()
    sentences = _lines_to_sentences(lines)
    adam_state = T.init_adam(student.params, tspec.learning_rate)
    corrupt_gen = rng.stream(seed, "mlm-corrupt")
    trace = []
    for epoch in range(tspec.epochs):
        batches = make_batches(sentences, vocab, tspec.max_seq_len, tspec.batch_size,
                               shuffle_seed=rng.derive(seed, f"mlm-shuffle{epoch}"))
        # random-token corruption draws from the real vocabulary, which may be
        # smaller than the embedding-table capacity
        losses = _mlm_epoch_ref(student, teacher, batches, vocab.size,
                                dspec, corrupt_gen, adam_state)
        trace.append(float(np.mean(losses)) if losses else 0.0)
    return trace


def distill_task_specific_ref(teacher: EncoderModel, student: EncoderModel,
                              sentences: list[data.Sentence], vocab: data.Vocabulary,
                              dspec: DistillSpec, tspec: TrainSpec, seed: int,
                              entity_types=None) -> list[float]:
    """Distill a fine-tuned NER teacher into the student on labeled data."""
    from sdcw.data import DEFAULT_ENTITY_TYPES

    if dspec.mode != "task_specific":
        raise ParameterError(f"expected task_specific spec, got '{dspec.mode}'")
    if teacher.config.num_classes != student.config.num_classes:
        raise DataError(
            f"tag-set mismatch: teacher has {teacher.config.num_classes} classes, "
            f"student {student.config.num_classes}"
        )
    tspec.validate()
    if not sentences:
        raise DataError("distillation dataset is empty")
    entity_types = entity_types or DEFAULT_ENTITY_TYPES
    n_classes = student.config.num_classes
    adam_state = T.init_adam(student.params, tspec.learning_rate)
    trace = []
    for epoch in range(tspec.epochs):
        batches = make_batches(sentences, vocab, tspec.max_seq_len, tspec.batch_size,
                               shuffle_seed=rng.derive(seed, f"kd-shuffle{epoch}"),
                               entity_types=entity_types)
        losses = []
        for tb in batches:
            labels = tb.label_ids.reshape(-1)
            sel = np.nonzero(labels != IGNORE_INDEX)[0]
            if sel.size == 0:
                continue
            logits = forward(student, tb.token_ids, tb.attention_mask)
            s_rows = T.take_rows(T.reshape(logits, (-1, n_classes)), sel)
            with T.no_grad():
                t_logits = forward(teacher, tb.token_ids, tb.attention_mask)
                t_rows = T.take_rows(T.reshape(t_logits, (-1, n_classes)), sel)
            soft = T.kl_soft_targets(s_rows, t_rows, dspec.temperature)
            hard = T.cross_entropy(s_rows, labels[sel])
            loss = T.add(T.scale(soft, dspec.alpha_soft), T.scale(hard, dspec.alpha_hard))
            T.backward(loss)
            T.adam_step(student.params, {n: p.grad for n, p in student.params.items()}, adam_state)
            T.zero_grads(student.params)
            losses.append(loss.item())
        trace.append(float(np.mean(losses)) if losses else 0.0)
    return trace


def cli_distill_cells_ref(teacher_path: str, teacher: EncoderModel, cells: list[StudentSpec],
                          mode: str, dspec: DistillSpec, corpus_lines: list[str],
                          train: list[data.Sentence], vocab: data.Vocabulary, tspec: TrainSpec,
                          seed: int, entity_types, student_in: EncoderModel | None = None) -> dict:
    """The grid loop `sdcw distill` ran for one seed, with the reference
    loops: {artifact name: (student, kd trace, fine-tune trace)}, the
    students before they are saved. `student_in` stands for the `model_in`
    student, which the CLI loaded afresh for every cell."""
    def name_of(spec: StudentSpec) -> str:
        return artifact_name(Path(teacher_path).stem, spec, dspec.temperature, mode)

    out = {}
    for cell in cells:
        if student_in is not None:
            student = clone_model(student_in)
        else:
            student = init_student(teacher, cell, rng.derive(seed, name_of(cell)))
        # the file's name and the report describe the student as it is
        spec = StudentSpec(student.config.num_layers, student.config.num_heads)
        name = name_of(spec)
        if mode == "task_agnostic":
            kd_trace = run_mlm_ref(teacher, student, corpus_lines, vocab, dspec, tspec, seed)
            ft_trace = finetune_ref(student, train, vocab, tspec, seed,
                                    entity_types=entity_types)
        else:
            kd_trace = distill_task_specific_ref(teacher, student, train, vocab, dspec,
                                                 tspec, seed, entity_types)
            ft_trace = []
        out[name] = (student, kd_trace, ft_trace)
    return out


# ---------------------------------------------------------------------------
# the copying tape: every gradient handed to `_accum` copied, interior
# gradients kept after `backward`, each linear an `add` node over its
# `matmul`, and the attention heads split and merged by reshape, transpose
# and reshape nodes (k split like q, then transposed by its own node)

_ACCUM = T._accum


def accum_copying_ref(t, g, fresh=False, rows=None) -> None:
    _ACCUM(t, g, False, rows)


def backward_keeping_ref(out: T.Tensor) -> None:
    """`tensor.backward` without releasing interior gradients."""
    if out.size != 1:
        raise ShapeError(f"backward expects a scalar output, got shape {out.shape}")
    topo: list[T.Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[T.Tensor, bool]] = [(out, False)]
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


class TapeKernelRef(TapeKernel):
    def linear(self, x: T.Tensor, weight: str) -> T.Tensor:
        return T.add(T.matmul(x, self.params[weight]), self.params[_bias_name(weight)])

    def rearrange(self, a: T.Tensor, split, axes, shape) -> T.Tensor:
        if axes == (0, 2, 3, 1):  # k: split into [b*a, s, d] heads, then transposed
            heads = self.rearrange(a, split, (0, 2, 1, 3), (shape[0], shape[2], shape[1]))
            return T.transpose(heads, (0, 2, 1))
        return T.reshape(T.transpose(T.reshape(a, split), axes), shape)


@contextlib.contextmanager
def copying_tape():
    """Within the block, every EncoderModel runs on the copying tape."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_accum", accum_copying_ref)
        mp.setattr(T, "backward", backward_keeping_ref)
        mp.setattr(EncoderModel, "kernel",
                   lambda self, dropout_rng=None: TapeKernelRef(self, dropout_rng))
        yield


# ---------------------------------------------------------------------------
# the version-1 writer of an fp32 model: every tensor dense, or sparse at
# >= 50 % zeros, and the mask as separate "mask:" bitmap records

V1_HEADER = struct.Struct("<4sH7IfBfI")


def records_v1(model: EncoderModel, mask: PruneMask | None) -> list[tuple[str, int, tuple, bytes]]:
    """(name, dtype tag, shape, payload bytes) of each record, in file order."""
    out = []
    for name, p in model.params.items():
        flat = p.data.astype("<f4").reshape(-1)
        nz = np.flatnonzero(flat)
        if flat.size and (flat.size - nz.size) / flat.size >= 0.5:
            pairs = np.empty(nz.size, dtype=[("i", "<u4"), ("v", "<f4")])
            pairs["i"], pairs["v"] = nz, flat[nz]
            out.append((name, 1, p.shape, struct.pack("<Q", nz.size) + pairs.tobytes()))
        else:
            out.append((name, 0, p.shape, flat.tobytes()))
    for name, m in (mask.masks.items() if mask is not None else ()):
        out.append(("mask:" + name, 4, m.shape,
                     np.packbits(m.astype(np.uint8).reshape(-1)).tobytes()))
    return out


def save_v1(model: EncoderModel, path, mask: PruneMask | None = None) -> int:
    c = model.config
    records = records_v1(model, mask)
    blob = [V1_HEADER.pack(b"SDCW", 1, c.num_layers, c.num_heads, c.hidden_size, c.ffn_size,
                           c.vocab_size, c.max_positions, c.num_classes, c.dropout, 0, 0.0,
                           len(records))]
    for name, tag, shape, payload in records:
        encoded = name.encode("utf-8")
        blob.append(struct.pack(f"<H{len(encoded)}sBB{len(shape)}I", len(encoded), encoded,
                                tag, len(shape), *shape) + payload)
    data = b"".join(blob)
    Path(path).write_bytes(data)
    return len(data)


# ---------------------------------------------------------------------------
# the desk study with the whole token table: every model keeps the rows it
# was made with, `vocab_size` of them, though no token id reaches past the
# vocabulary

def untrimmed_desk_path(start: EncoderModel, train: list[data.Sentence], vocab: data.Vocabulary,
                        spec: TrainSpec, seed: int, entity_types, sparsity: float,
                        threshold: float) -> dict[str, tuple]:
    """{mode: (handle, mask)} of the study's four models from `start`: the
    fine-tuned model ("fp32"), the model pruned after fine-tuning at
    `sparsity` ("pruned"), and the fine-tuned model's dynamic and mixed
    quantizations. Pruning after fine-tuning starts from the weights the
    same seed's fine-tune gives, so it reuses them."""
    fp32 = clone_model(start)
    finetune(fp32, train, vocab, spec, seed, entity_types=entity_types)
    pruned = clone_model(fp32)
    mask = compute_mask(pruned, sparsity)
    apply_mask(pruned, mask)
    return {"fp32": (fp32, None), "pruned": (pruned, mask),
            "dynamic": (quantize_model_dynamic(fp32), None),
            "mixed": (quantize_model_int8_mixed(fp32, threshold), None)}
