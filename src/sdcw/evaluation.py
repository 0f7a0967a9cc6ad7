"""Entity-level precision/recall/F1, inference timing, and comparison reports.

Span scoring follows the conlleval convention: spans match when type and
both boundaries agree exactly, micro-averaged over the corpus, and an I-X
tag without a preceding B-X/I-X opens a new span (repair rather than reject).
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import DEFAULT_ENTITY_TYPES, Sentence, Vocabulary, batch as make_batches, bio_labels
from .errors import DataError, ParameterError
from .model import EncoderModel, count_params, forward
from .prune import measure_sparsity, prunable_names
from .quant import QuantizedModel, QuantizedTensor, quantized_forward
from .tensor import IGNORE_INDEX, _log_softmax_np, no_grad


@dataclass(frozen=True)
class EntitySpan:
    entity_type: str
    start: int  # token index, inclusive
    end: int    # token index, inclusive


@dataclass
class EvalReport:
    dataset_id: str
    mode: str
    loss: float
    precision: float
    recall: float
    f1: float
    nonzero_params: int
    total_params: int
    sparsity: float
    truncated_tokens: int  # tokens past max_seq_len, scored as predicted O
    model_bytes: int | None = None  # size of the file measured, set by its holder

    def to_dict(self) -> dict:
        return asdict(self)


# wall-clock fields: the keys `measure_inference_time` gives
TIMING_FIELDS = ("median_ms", "mean_ms", "iqr_ms")


def extract_spans(tags) -> list[EntitySpan]:
    """Maximal BIO spans; an I-X with no live same-type span starts one."""
    spans: list[EntitySpan] = []
    current: tuple[str, int] | None = None  # (type, start)

    def close(end: int) -> None:
        nonlocal current
        if current is not None:
            spans.append(EntitySpan(current[0], current[1], end))
            current = None

    for i, tag in enumerate(tags):
        if tag == "O":
            close(i - 1)
            continue
        if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI":
            raise DataError(f"unknown tag '{tag}' at position {i}")
        prefix, etype = tag[0], tag[2:]
        if prefix == "B" or current is None or current[0] != etype:
            close(i - 1)
            current = (etype, i)
    close(len(tags) - 1)
    return spans


def span_prf(gold: list[list[str]], pred: list[list[str]]) -> tuple[float, float, float]:
    """Micro-averaged exact-match span precision/recall/F1 over the corpus."""
    if len(gold) != len(pred):
        raise DataError(f"{len(gold)} gold sentences vs {len(pred)} predictions")
    tp = n_gold = n_pred = 0
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise DataError(f"sentence {i}: {len(g)} gold tags vs {len(p)} predicted")
        gs = set(extract_spans(g))
        ps = set(extract_spans(p))
        tp += len(gs & ps)
        n_gold += len(gs)
        n_pred += len(ps)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------------------
# model evaluation

def forward_logits(handle, token_ids, attention_mask) -> np.ndarray:
    """Uniform inference dispatch for fp32 models and quantized handles."""
    if isinstance(handle, EncoderModel):
        with no_grad():
            return forward(handle, token_ids, attention_mask).data
    if isinstance(handle, QuantizedModel):
        return quantized_forward(handle, token_ids, attention_mask)
    raise ParameterError(f"cannot run inference on {type(handle).__name__}")


def handle_mode(handle) -> str:
    return "fp32" if isinstance(handle, EncoderModel) else handle.mode


def _accounting(handle) -> tuple[int, int, float]:
    if isinstance(handle, EncoderModel):
        total = count_params(handle)
        nonzero = sum(int(np.count_nonzero(p.data)) for p in handle.params.values())
        sparsity = measure_sparsity(handle) if prunable_names(handle) else 0.0
    else:
        payloads = [p.q if isinstance(p, QuantizedTensor) else p for p in handle.params.values()]
        total = sum(int(p.size) for p in payloads)
        nonzero = sum(int(np.count_nonzero(p)) for p in payloads)
        sparsity = handle.mask.zeros() / handle.mask.total() if handle.mask else 0.0
    return nonzero, total, sparsity


def evaluate(handle, sentences: list[Sentence], vocab: Vocabulary,
             entity_types=DEFAULT_ENTITY_TYPES, batch_size: int = 16,
             max_seq_len: int = 32, dataset_id: str = "") -> EvalReport:
    """Argmax decoding per token (padding ignored) plus parameter/sparsity
    accounting. The report has no `model_bytes`: only a caller that holds the
    model's file knows its size.

    Spans are scored against each sentence's full tag sequence: the tokens
    that truncation to `max_seq_len` drops count as predicted O, so a gold
    entity past the cut is a miss. The loss covers the scored-in tokens."""
    if not sentences:
        raise DataError("evaluate requires a non-empty dataset")
    labels = bio_labels(entity_types)
    batches = make_batches(sentences, vocab, max_seq_len, batch_size,
                           entity_types=entity_types)
    gold = [s.tags for s in sentences]
    pred: list[list[str]] = []
    losses: list[tuple[float, int]] = []
    for tb in batches:
        logits = forward_logits(handle, tb.token_ids, tb.attention_mask)
        choice = logits.argmax(axis=-1)
        logp = _log_softmax_np(logits, axis=-1)
        for r in range(tb.token_ids.shape[0]):
            live = tb.label_ids[r] != IGNORE_INDEX
            pred.append([labels[t] for t in choice[r][live]])
            n_live = int(live.sum())
            if n_live:
                nll = -logp[r][live, tb.label_ids[r][live]].sum()
                losses.append((float(nll), n_live))
    truncated = 0
    for tags, p in zip(gold, pred):
        cut = tags[len(p):]
        if cut:
            unknown = set(cut).difference(labels)
            if unknown:
                raise DataError(f"tag(s) {sorted(unknown)} not in the label set {sorted(labels)}")
            truncated += len(cut)
            p.extend(["O"] * len(cut))
    precision, recall, f1 = span_prf(gold, pred)
    total_tokens = sum(n for _, n in losses)
    loss = sum(v for v, _ in losses) / total_tokens if total_tokens else 0.0
    nonzero, total, sparsity = _accounting(handle)
    return EvalReport(
        dataset_id=dataset_id, mode=handle_mode(handle), loss=float(loss),
        precision=precision, recall=recall, f1=f1, nonzero_params=nonzero, total_params=total,
        sparsity=sparsity, truncated_tokens=truncated,
    )


def measure_inference_time(handle, sentences, vocab, reps: int = 5, warmup: int = 1,
                           batch_size: int = 16, max_seq_len: int = 32,
                           entity_types=DEFAULT_ENTITY_TYPES) -> dict:
    """Wall-clock stats over full passes of the dataset; warmup excluded."""
    if reps < 3:
        raise ParameterError(f"reps must be >= 3, got {reps}")
    if warmup < 1:
        raise ParameterError(f"warmup must be >= 1, got {warmup}")
    batches = make_batches(sentences, vocab, max_seq_len, batch_size,
                           entity_types=entity_types)
    times: list[float] = []
    for i in range(warmup + reps):
        t0 = time.perf_counter()
        for tb in batches:
            forward_logits(handle, tb.token_ids, tb.attention_mask)
        if i >= warmup:
            times.append((time.perf_counter() - t0) * 1000.0)
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {
        "mode": handle_mode(handle),
        "median_ms": float(med),
        "mean_ms": float(np.mean(times)),
        "iqr_ms": float(q3 - q1),
        "reps": reps,
        "warmup": warmup,
        "n_batches": len(batches),
    }


def compare(baseline: EvalReport, compressed: EvalReport) -> dict:
    """Delta report shaped for a baseline-vs-compressed table row. The size
    reduction is None unless both reports carry a file size."""
    if baseline.dataset_id != compressed.dataset_id:
        raise DataError(
            f"dataset mismatch: '{baseline.dataset_id}' vs '{compressed.dataset_id}'"
        )
    def pct_drop(before, after) -> float | None:
        if before is None or after is None:
            return None
        return 100.0 * (1.0 - after / before) if before else 0.0

    return {
        "dataset_id": baseline.dataset_id,
        "baseline_mode": baseline.mode,
        "compressed_mode": compressed.mode,
        "baseline_f1": baseline.f1,
        "compressed_f1": compressed.f1,
        "f1_delta_points": 100.0 * (compressed.f1 - baseline.f1),
        "size_reduction_pct": pct_drop(baseline.model_bytes, compressed.model_bytes),
        "baseline_bytes": baseline.model_bytes,
        "compressed_bytes": compressed.model_bytes,
        "sparsity": compressed.sparsity,
    }
