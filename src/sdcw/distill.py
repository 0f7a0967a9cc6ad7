"""Knowledge distillation: task-agnostic (masked-LM) and task-specific (NER).

Loss in both modes is alpha_soft * T^2-scaled KL against the teacher's
softened distribution plus alpha_hard * cross-entropy against the hard
target (true token / gold tag), computed on masked positions (agnostic) or
non-padding tokens (specific). The published temperature settings are a
{2, 3, 6} grid for the agnostic mode and 8 for the specific mode.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from . import tensor as T
from .data import (
    BOS, MASK, SPECIAL_TOKENS, Sentence, TokenizedBatch, Vocabulary,
    batch as make_batches,
)
from .errors import DataError, ParameterError
from .model import (
    EncoderModel, TrainSpec, count_params, count_params_config,
    forward, forward_hidden, init_model, mlm_logits,
)
from .tensor import IGNORE_INDEX

AGNOSTIC_TEMPERATURES = (2.0, 3.0, 6.0)
TASK_SPECIFIC_TEMPERATURE = 8.0
MLM_MASK_RATE = 0.15


@dataclass(frozen=True)
class StudentSpec:
    num_layers: int
    num_heads: int


@dataclass
class DistillSpec:
    mode: str  # "task_agnostic" | "task_specific"
    temperature: float | None = None
    alpha_soft: float = 0.5
    alpha_hard: float = 0.5
    mlm_mask_rate: float = MLM_MASK_RATE

    def __post_init__(self) -> None:
        if self.mode not in ("task_agnostic", "task_specific"):
            raise ParameterError(f"unknown distillation mode '{self.mode}'")
        if self.temperature is None:
            self.temperature = (
                TASK_SPECIFIC_TEMPERATURE if self.mode == "task_specific"
                else AGNOSTIC_TEMPERATURES[0]
            )
        if self.temperature <= 0:
            raise ParameterError(f"temperature must be > 0, got {self.temperature}")
        if self.alpha_soft < 0 or self.alpha_hard < 0:
            raise ParameterError("loss weights must be non-negative")


def init_student(teacher: EncoderModel, spec: StudentSpec, seed: int) -> EncoderModel:
    """Student sharing the teacher's dims except layer/head counts.

    Embeddings are copied from the teacher. Student layer i copies teacher
    layer floor(i * T/S) when the teacher head count divides evenly by the
    student's; otherwise layers are freshly initialized. The classifier head
    is always freshly initialized.
    """
    tc = teacher.config
    if spec.num_layers > tc.num_layers:
        raise ParameterError(
            f"student has {spec.num_layers} layers but the teacher only {tc.num_layers}"
        )
    config = replace(tc, num_layers=spec.num_layers, num_heads=spec.num_heads)
    config.validate()
    student = init_model(config, seed)
    for name in ("embeddings.token", "embeddings.position",
                 "embeddings.norm.gain", "embeddings.norm.bias"):
        student.param(name).data[...] = teacher.param(name).data
    if spec.num_layers > 0 and tc.num_heads % spec.num_heads == 0:
        for i in range(spec.num_layers):
            src = (i * tc.num_layers) // spec.num_layers
            for name, p in student.params.items():
                if name.startswith(f"layers.{i}."):
                    suffix = name.split(".", 2)[2]
                    p.data[...] = teacher.param(f"layers.{src}.{suffix}").data
    return student


def student_layer_map(teacher_layers: int, student_layers: int) -> list[int]:
    return [(i * teacher_layers) // student_layers for i in range(student_layers)]


def compression_ratio(teacher, student) -> float:
    """1 - params(student) / params(teacher); accepts models or configs."""
    def n(x) -> int:
        return count_params(x) if isinstance(x, EncoderModel) else count_params_config(x)

    return 1.0 - n(student) / n(teacher)


# ---------------------------------------------------------------------------
# masked-LM machinery

def mlm_corrupt(tb: TokenizedBatch, vocab_size: int, gen: np.random.Generator,
                mask_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """BERT-style corruption: select `mask_rate` of real non-BOS tokens;
    80% -> <mask>, 10% -> random token, 10% -> unchanged. Returns the
    corrupted ids and MLM labels (IGNORE_INDEX off the selected positions)."""
    ids = tb.token_ids.copy()
    maskable = tb.attention_mask & (tb.token_ids != BOS)
    selected = maskable & (gen.random(ids.shape) < mask_rate)
    labels = np.where(selected, tb.token_ids, IGNORE_INDEX)
    roll = gen.random(ids.shape)
    n_special = len(SPECIAL_TOKENS)
    random_ids = gen.integers(n_special, vocab_size, size=ids.shape)
    ids[selected & (roll < 0.8)] = MASK
    swap = selected & (roll >= 0.8) & (roll < 0.9)
    ids[swap] = random_ids[swap]
    return ids, labels


def _lines_to_sentences(lines) -> list[Sentence]:
    out = []
    for line in lines:
        toks = line.split() if isinstance(line, str) else list(line)
        if toks:
            out.append(Sentence(toks, ["O"] * len(toks)))
    if not out:
        raise DataError("distillation corpus is empty")
    return out


def _mlm_epoch(student, teacher, batches, vocab_size, dspec, corrupt_gen, adam_state):
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


def pretrain_mlm(model: EncoderModel, lines, vocab: Vocabulary, tspec: TrainSpec,
                 seed: int, mask_rate: float = MLM_MASK_RATE) -> list[float]:
    """Plain masked-LM training (builds desk-scale teachers)."""
    dspec = DistillSpec(mode="task_agnostic", alpha_soft=0.0, alpha_hard=1.0,
                        mlm_mask_rate=mask_rate)
    return _run_mlm(None, model, lines, vocab, dspec, tspec, seed)


def distill_task_agnostic(teacher: EncoderModel, student: EncoderModel, lines,
                          vocab: Vocabulary, dspec: DistillSpec, tspec: TrainSpec,
                          seed: int) -> list[float]:
    """Masked-LM distillation of a pretrained teacher into the student.

    The returned student is a pretrained-style model: callers fine-tune it on
    the downstream task afterwards.
    """
    if dspec.mode != "task_agnostic":
        raise ParameterError(f"expected task_agnostic spec, got '{dspec.mode}'")
    if teacher.config.vocab_size != student.config.vocab_size:
        raise DataError("teacher and student vocabularies differ")
    return _run_mlm(teacher, student, lines, vocab, dspec, tspec, seed)


def _run_mlm(teacher, student, lines, vocab, dspec, tspec, seed) -> list[float]:
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
        losses = _mlm_epoch(student, teacher, batches, vocab.size,
                            dspec, corrupt_gen, adam_state)
        trace.append(float(np.mean(losses)) if losses else 0.0)
    return trace


# ---------------------------------------------------------------------------
# task-specific distillation

def distill_task_specific(teacher: EncoderModel, student: EncoderModel,
                          sentences: list[Sentence], vocab: Vocabulary,
                          dspec: DistillSpec, tspec: TrainSpec, seed: int,
                          entity_types=None) -> list[float]:
    """Distill a fine-tuned NER teacher into the student on labeled data."""
    from .data import DEFAULT_ENTITY_TYPES

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


# ---------------------------------------------------------------------------
# the student grid

def grid_specs(student_layers=(4, 6), student_heads=(4, 6)) -> list[StudentSpec]:
    """The published 2x2 grid: every (layers, heads) combination."""
    return [StudentSpec(l, a) for l in student_layers for a in student_heads]


def artifact_name(teacher_tag: str, spec: StudentSpec, temperature: float, mode: str) -> str:
    return f"student_{mode}_{teacher_tag}_L{spec.num_layers}_A{spec.num_heads}_T{temperature:g}"


def distill_grid(teachers: dict[str, EncoderModel], mode: str, task_data, vocab: Vocabulary,
                 specs: list[StudentSpec], temperatures, tspec: TrainSpec, seed: int,
                 entity_types=None) -> dict[str, EncoderModel]:
    """Train one student per (teacher, spec, temperature) cell.

    `task_data` is corpus lines for the agnostic mode and tagged sentences
    for the specific mode. Returns {artifact name: student}; names are unique
    by construction so each cell lands in its own file downstream.
    """
    out: dict[str, EncoderModel] = {}
    for tag, teacher in teachers.items():
        for spec in specs:
            for temperature in temperatures:
                name = artifact_name(tag, spec, temperature, mode)
                if name in out:
                    raise ParameterError(f"duplicate grid cell '{name}'")
                student = init_student(teacher, spec, rng.derive(seed, name))
                dspec = DistillSpec(mode=mode, temperature=temperature)
                if mode == "task_agnostic":
                    distill_task_agnostic(teacher, student, task_data, vocab, dspec, tspec, seed)
                else:
                    distill_task_specific(teacher, student, task_data, vocab, dspec, tspec,
                                          seed, entity_types=entity_types)
                out[name] = student
    return out
