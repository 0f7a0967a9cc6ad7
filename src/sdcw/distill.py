"""Knowledge distillation: task-agnostic (masked-LM) and task-specific (NER).

Loss in both modes is alpha_soft * T^2-scaled KL against the teacher's
softened distribution plus alpha_hard = 1 - alpha_soft times cross-entropy
against the hard target (true token / gold tag), computed on masked
positions (agnostic) or non-padding tokens (specific). The published temperature settings are a
{2, 3, 6} grid for the agnostic mode and 8 for the specific mode.

Both modes, and `pretrain_mlm`, train through `model.train_loop` like
fine-tuning does, but run the student's forward pass without dropout, while
`model.finetune` runs it with dropout on. The desk preset has dropout 0.0, so
only the reference presets (0.1) see the difference.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from . import tensor as T
from .data import BOS, MASK, SPECIAL_TOKENS, Sentence, TokenizedBatch, Vocabulary
from .errors import DataError, ParameterError
from .model import (
    EncoderModel, TrainSpec, forward, forward_hidden, init_model, mlm_logits, train_loop,
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
    mlm_mask_rate: float = MLM_MASK_RATE

    def __post_init__(self) -> None:
        if self.mode not in ("task_agnostic", "task_specific"):
            raise ParameterError(f"unknown distillation mode '{self.mode}'")
        if self.temperature is None:
            self.temperature = default_temperature(self.mode)
        if self.temperature <= 0:
            raise ParameterError(f"temperature must be > 0, got {self.temperature}")
        if not 0.0 <= self.alpha_soft <= 1.0:
            raise ParameterError(f"alpha_soft must be in [0, 1], got {self.alpha_soft}")

    @property
    def alpha_hard(self) -> float:
        return 1.0 - self.alpha_soft


def default_temperature(mode: str) -> float:
    """The published temperature: 8 task-specific, the grid's first task-agnostic."""
    return TASK_SPECIFIC_TEMPERATURE if mode == "task_specific" else AGNOSTIC_TEMPERATURES[0]


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
    if tc.num_heads % spec.num_heads == 0:
        for i, src in enumerate(student_layer_map(tc.num_layers, spec.num_layers)):
            for name, p in student.params.items():
                if name.startswith(f"layers.{i}."):
                    suffix = name.split(".", 2)[2]
                    p.data[...] = teacher.param(f"layers.{src}.{suffix}").data
    return student


def student_layer_map(teacher_layers: int, student_layers: int) -> list[int]:
    return [(i * teacher_layers) // student_layers for i in range(student_layers)]


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


def pretrain_mlm(model: EncoderModel, lines, vocab: Vocabulary, tspec: TrainSpec,
                 seed: int, mask_rate: float = MLM_MASK_RATE) -> list[float]:
    """Plain masked-LM training (builds desk-scale teachers)."""
    dspec = DistillSpec(mode="task_agnostic", alpha_soft=0.0, mlm_mask_rate=mask_rate)
    return distill_task_agnostic(None, model, lines, vocab, dspec, tspec, seed)


def distill_task_agnostic(teacher: EncoderModel | None, student: EncoderModel, lines,
                          vocab: Vocabulary, dspec: DistillSpec, tspec: TrainSpec,
                          seed: int) -> list[float]:
    """Masked-LM distillation of a pretrained teacher into the student; with
    no teacher, plain masked-LM training.

    The returned student is a pretrained-style model: callers fine-tune it on
    the downstream task afterwards.
    """
    if dspec.mode != "task_agnostic":
        raise ParameterError(f"expected task_agnostic spec, got '{dspec.mode}'")
    if teacher is not None and teacher.config.vocab_size != student.config.vocab_size:
        raise DataError("teacher and student vocabularies differ")
    tspec.validate()
    sentences = _lines_to_sentences(lines)
    corrupt_gen = rng.stream(seed, "mlm-corrupt")

    def batch_loss(tb: TokenizedBatch):
        # random-token corruption draws from the real vocabulary, which may be
        # smaller than the embedding-table capacity
        ids, labels = mlm_corrupt(tb, vocab.size, corrupt_gen, dspec.mlm_mask_rate)
        sel = np.nonzero(labels.reshape(-1) != IGNORE_INDEX)[0]
        if sel.size == 0:
            return None
        hidden = forward_hidden(student, ids, tb.attention_mask)
        logits = T.take_rows(mlm_logits(student, hidden), sel)
        hard = T.cross_entropy(logits, labels.reshape(-1)[sel])
        if teacher is None:
            return hard
        if dspec.alpha_soft > 0:
            with T.no_grad():
                t_hidden = forward_hidden(teacher, ids, tb.attention_mask)
                t_logits = T.take_rows(mlm_logits(teacher, t_hidden), sel)
            soft = T.kl_soft_targets(logits, t_logits, dspec.temperature)
            return T.add(T.scale(soft, dspec.alpha_soft), T.scale(hard, dspec.alpha_hard))
        return T.scale(hard, dspec.alpha_hard)

    return train_loop(student, tspec, sentences, vocab, seed, "mlm-shuffle", batch_loss)


# ---------------------------------------------------------------------------
# task-specific distillation

def distill_task_specific(teacher: EncoderModel, student: EncoderModel,
                          sentences: list[Sentence], vocab: Vocabulary,
                          dspec: DistillSpec, tspec: TrainSpec, seed: int,
                          entity_types=None) -> list[float]:
    """Distill a fine-tuned NER teacher into the student on labeled data."""
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
    n_classes = student.config.num_classes

    def batch_loss(tb: TokenizedBatch):
        labels = tb.label_ids.reshape(-1)
        sel = np.nonzero(labels != IGNORE_INDEX)[0]
        if sel.size == 0:
            return None
        logits = forward(student, tb.token_ids, tb.attention_mask)
        s_rows = T.take_rows(T.reshape(logits, (-1, n_classes)), sel)
        with T.no_grad():
            t_logits = forward(teacher, tb.token_ids, tb.attention_mask)
            t_rows = T.take_rows(T.reshape(t_logits, (-1, n_classes)), sel)
        soft = T.kl_soft_targets(s_rows, t_rows, dspec.temperature)
        hard = T.cross_entropy(s_rows, labels[sel])
        return T.add(T.scale(soft, dspec.alpha_soft), T.scale(hard, dspec.alpha_hard))

    return train_loop(student, tspec, sentences, vocab, seed, "kd-shuffle", batch_loss,
                      entity_types)


# ---------------------------------------------------------------------------
# the student grid

def grid_specs(student_layers=(4, 6), student_heads=(4, 6)) -> list[StudentSpec]:
    """The published 2x2 grid: every (layers, heads) combination."""
    return [StudentSpec(l, a) for l in student_layers for a in student_heads]


def artifact_name(teacher_tag: str, spec: StudentSpec, temperature: float, mode: str) -> str:
    return f"student_{mode}_{teacher_tag}_L{spec.num_layers}_A{spec.num_heads}_T{temperature:g}"


def distill_grid(teachers: dict[str, EncoderModel], mode: str, task_data, vocab: Vocabulary,
                 specs: list[StudentSpec], temperatures, tspec: TrainSpec, seed: int,
                 entity_types=None, alpha_soft: float = 0.5,
                 mlm_mask_rate: float = MLM_MASK_RATE,
                 student: EncoderModel | None = None,
                 ) -> dict[str, tuple[EncoderModel, list[float]]]:
    """Train one student per (teacher, spec, temperature) cell; returns
    {artifact name: (student, distillation loss trace)}. `task_data` is corpus
    lines (agnostic mode) or tagged sentences (specific mode). A student
    starts from `init_student` seeded by its cell's name, or is `student`,
    which fills a one-cell grid. A repeated cell fails before any training."""
    cells: dict[str, tuple[EncoderModel, StudentSpec, float]] = {}
    for tag, teacher in teachers.items():
        for spec in specs:
            for temperature in temperatures:
                name = artifact_name(tag, spec, temperature, mode)
                if name in cells:
                    raise ParameterError(f"duplicate grid cell '{name}'")
                cells[name] = (teacher, spec, temperature)
    if student is not None and len(cells) != 1:
        raise ParameterError(f"a given student fills one grid cell, not {len(cells)}")
    out = {}
    for name, (teacher, spec, temperature) in cells.items():
        trainee = student or init_student(teacher, spec, rng.derive(seed, name))
        dspec = DistillSpec(mode=mode, temperature=temperature, alpha_soft=alpha_soft,
                            mlm_mask_rate=mlm_mask_rate)
        if mode == "task_agnostic":
            trace = distill_task_agnostic(teacher, trainee, task_data, vocab, dspec, tspec, seed)
        else:
            trace = distill_task_specific(teacher, trainee, task_data, vocab, dspec, tspec,
                                          seed, entity_types=entity_types)
        out[name] = (trainee, trace)
    return out
