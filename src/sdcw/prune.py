"""Unstructured magnitude pruning with a single global threshold.

A binary mask keeps weight (i, j) iff |W_ij| >= t. Exactly k = round(p * N)
weights are zeroed for target sparsity p, with ties at the threshold broken
by (tensor name, flat index) order. The prunable scope is every attention
and feed-forward weight matrix; embeddings, biases, layer norms, and the
classifier head are kept dense.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .model import EncoderModel, TrainSpec, finetune

# Prunable-parameter total behind the published sparsity sweep bookkeeping
# (~70.8M of the ~126M-parameter large model). Not derivable from any
# (hidden, ffn) pair under the scope above, so it is kept as a constant for
# the arithmetic checks.
REFERENCE_PRUNABLE_TOTAL = 70_785_790

SPARSITY_SWEEP = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95)

_PRUNABLE_SUFFIXES = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2")


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def pruned_count(p: float, total: int) -> int:
    """Exact-count semantics: number of weights zeroed at sparsity p."""
    return round_half_up(p * total)


def sparsity_sweep_counts(total: int = REFERENCE_PRUNABLE_TOTAL,
                          sparsities=SPARSITY_SWEEP) -> dict[float, int]:
    return {p: pruned_count(p, total) for p in sparsities}


@dataclass
class PruneMask:
    """Per-tensor {0,1} masks, 0 where a weight is pruned."""

    masks: dict[str, np.ndarray]

    def zeros(self) -> int:
        return int(sum(int(m.size - m.sum()) for m in self.masks.values()))

    def total(self) -> int:
        return int(sum(m.size for m in self.masks.values()))

    def check_fits(self, shapes: dict[str, tuple[int, ...]], error: type[Exception]) -> None:
        """Raise `error` unless every mask names a tensor of `shapes` (name ->
        shape, the model's) and has that tensor's shape."""
        for name, m in self.masks.items():
            if name not in shapes:
                raise error(f"the mask names '{name}', a tensor the model does not have")
            if m.shape != shapes[name]:
                raise error(f"the mask for '{name}' has shape {m.shape}, the tensor {shapes[name]}")


@dataclass
class PruneSchedule:
    """One of the three pruning arms: before, after, or during fine-tuning."""

    kind: str  # "before" | "after" | "during"
    start_epoch: int = 0
    end_epoch: int = 0
    steps: int = 1

    def validate(self) -> None:
        if self.kind not in ("before", "after", "during"):
            raise ParameterError(f"unknown schedule kind '{self.kind}'")
        if self.kind == "during":
            if self.start_epoch >= self.end_epoch:
                raise ParameterError(
                    f"during-schedule needs start < end, got {self.start_epoch} >= {self.end_epoch}"
                )
            if self.steps < 1:
                raise ParameterError(f"during-schedule needs steps >= 1, got {self.steps}")


def prunable_names(model: EncoderModel) -> list[str]:
    return [n for n in model.params if n.endswith(_PRUNABLE_SUFFIXES)]


def compute_mask(model: EncoderModel, p: float) -> PruneMask:
    """Global-threshold mask zeroing exactly k = round(p * N) in-scope weights.

    The pruned weights are the first k in (magnitude, flat index) order over
    the concatenated scope, as a stable sort would give, selected without a
    sort: with v the k-th smallest magnitude, every magnitude below v is
    pruned, then the ties at v in ascending index until k are pruned.
    """
    if not 0.0 <= p <= 0.99:
        raise ParameterError(f"sparsity must be in [0, 0.99], got {p}")
    names = prunable_names(model)
    if not names:
        raise ParameterError("prunable scope is empty")
    mags = np.concatenate([np.abs(model.param(n).data.reshape(-1)) for n in names])
    # max propagates NaN, and inf is the max, so one reduction finds both
    if mags.size and not np.isfinite(mags.max()):
        bad = next(n for n in names if not np.all(np.isfinite(model.param(n).data)))
        raise DataError(f"non-finite weights in '{bad}'")
    k = pruned_count(p, mags.size)
    if k > 0:
        v = np.partition(mags, k - 1)[k - 1]
        keep = mags > v
        ties = np.flatnonzero(mags == v)
        # at least one tie is pruned, since fewer than k magnitudes are below v
        n_pruned_ties = k - (mags.size - np.count_nonzero(keep) - ties.size)
        keep[ties[n_pruned_ties:]] = True
        keep_flat = keep.view(np.uint8)
    else:
        keep_flat = np.ones(mags.size, dtype=np.uint8)
    masks: dict[str, np.ndarray] = {}
    offset = 0
    for n in names:
        size = model.param(n).size
        masks[n] = keep_flat[offset : offset + size].reshape(model.param(n).shape)
        offset += size
    return PruneMask(masks)


def apply_mask(model: EncoderModel, mask: PruneMask) -> EncoderModel:
    """W <- W * M, in place, leaving +0.0 at pruned entries. Idempotent."""
    for name, m in mask.masks.items():
        w = model.param(name)
        if m.shape != w.data.shape:
            raise ShapeError(f"mask shape {m.shape} != weight shape {w.data.shape} for '{name}'")
        np.copyto(w.data, 0.0, where=m == 0)
    return model


def measure_sparsity(model: EncoderModel) -> float:
    names = prunable_names(model)
    if not names:
        raise ParameterError("prunable scope is empty")
    total = sum(model.param(n).size for n in names)
    zeros = sum(int(np.count_nonzero(model.param(n).data == 0.0)) for n in names)
    return zeros / total


def masked_finetune(model, mask: PruneMask, sentences, vocab, spec: TrainSpec, seed: int,
                    entity_types=None) -> list[float]:
    """Fine-tune with the mask re-applied after every optimizer step."""
    apply_mask(model, mask)
    return finetune(
        model, sentences, vocab, spec, seed, entity_types=entity_types,
        post_step=lambda step: apply_mask(model, mask),
    )


def cubic_ramp(p_final: float, tau: float) -> float:
    """Gradual-magnitude sparsity schedule p(tau) = p_final * (1 - (1 - tau)^3)."""
    tau = min(max(tau, 0.0), 1.0)
    return p_final * (1.0 - (1.0 - tau) ** 3)


def gradual_prune_finetune(model, p_final: float, schedule: PruneSchedule, sentences, vocab,
                           spec: TrainSpec, seed: int,
                           entity_types=None) -> tuple[PruneMask, list[float], list[float]]:
    """The "during" arm: cubic sparsity ramp with the mask recomputed at each
    ramp step and enforced thereafter. Returns the final mask, the loss
    trace, and the ramp: the sparsity measured after each ramp step."""
    schedule.validate()
    if schedule.kind != "during":
        raise ParameterError(f"gradual_prune_finetune needs a during-schedule, got '{schedule.kind}'")
    if not 0.0 <= p_final <= 0.99:
        raise ParameterError(f"sparsity must be in [0, 0.99], got {p_final}")
    steps_per_epoch = max(1, int(np.ceil(len(sentences) / spec.batch_size)))
    window_start = schedule.start_epoch * steps_per_epoch
    window_len = (schedule.end_epoch - schedule.start_epoch) * steps_per_epoch
    ramp_at = {
        window_start + int(np.floor(j * window_len / schedule.steps)): (j + 1) / schedule.steps
        for j in range(schedule.steps)
    }
    current = {"mask": None, "tau": 0.0}  # the last ramp step's mask and tau
    ramp: list[float] = []

    def pre_step(step: int) -> None:
        tau = ramp_at.get(step)
        if tau is not None:
            current.update(mask=compute_mask(model, cubic_ramp(p_final, tau)), tau=tau)
            apply_mask(model, current["mask"])
            ramp.append(measure_sparsity(model))

    def post_step(step: int) -> None:
        if current["mask"] is not None:
            apply_mask(model, current["mask"])

    trace = finetune(model, sentences, vocab, spec, seed, entity_types=entity_types,
                     pre_step=pre_step, post_step=post_step)
    if current["tau"] != 1.0:
        # training window shorter than the schedule: finish the ramp
        current["mask"] = compute_mask(model, p_final)
        apply_mask(model, current["mask"])
    return current["mask"], trace, ramp


def run_schedule(model, p: float, schedule: PruneSchedule, sentences, vocab, spec: TrainSpec,
                 seed: int, entity_types=None,
                 ) -> tuple[EncoderModel, PruneMask, list[float], list[float]]:
    """Compose the three arms:

    before: compute mask on the incoming model -> masked fine-tune.
    after:  fine-tune dense -> compute mask -> apply (no retraining).
    during: gradual ramp while fine-tuning.

    Returns the model, its mask, the loss trace and the sparsity ramp
    (empty for before and after)."""
    schedule.validate()
    if schedule.kind == "during":
        return model, *gradual_prune_finetune(model, p, schedule, sentences, vocab, spec, seed,
                                              entity_types)
    if schedule.kind == "before":
        mask = compute_mask(model, p)
        trace = masked_finetune(model, mask, sentences, vocab, spec, seed, entity_types)
    else:
        trace = finetune(model, sentences, vocab, spec, seed, entity_types=entity_types)
        mask = compute_mask(model, p)
        apply_mask(model, mask)
    return model, mask, trace, []
