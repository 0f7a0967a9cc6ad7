"""Experiment configuration: UTF-8 key=value files.

Defaults mirror the published fine-tuning recipe (lr 5e-5, batch 16, max
sequence length 164, 50 epochs, seeds 1/3/5). `preset=desk` switches to the
CI-scale model and schedule; presets apply before any other key in the file,
so explicit keys always win. Unknown keys are rejected.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .model import EncoderConfig, TrainSpec, desk_config, desk_train_spec, reference_config
from .prune import PruneSchedule


@dataclass
class ExperimentConfig:
    # training (defaults = published recipe)
    learning_rate: float = 5e-5
    batch_size: int = 16
    max_seq_len: int = 164
    epochs: int = 50
    seeds: tuple[int, ...] = (1, 3, 5)
    # model dimensions
    num_layers: int = 8
    num_heads: int = 6
    hidden_size: int = 768
    ffn_size: int = 3072
    vocab_size: int = 70_000  # the vocabulary's cap: an NER model keeps one token row per entry
    max_positions: int = 512
    dropout: float = 0.1
    # pruning
    sparsity: float = 0.5
    schedule: str = "before"
    # distillation
    mode: str = "task_agnostic"
    temperature: float = 0.0  # 0 -> mode default (2 agnostic, 8 specific)
    alpha_soft: float = 0.5
    mlm_mask_rate: float = 0.15
    # the student grid: every (layers, heads) pair of the two lists
    student_layers: tuple[int, ...] = (4,)
    student_heads: tuple[int, ...] = (4,)
    # quantization
    quant_mode: str = "both"
    outlier_threshold: float = 6.0
    # data / io
    dataset: str = ""
    corpus: str = ""
    model_in: str = ""
    teacher: str = ""
    out_dir: str = "runs"
    dataset_id: str = ""
    entity_types: tuple[str, ...] = ("PER", "ORG", "LOC", "DATE")
    n_sentences: int = 600
    # timing
    reps: int = 5
    warmup: int = 1
    preset: str = ""

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            num_layers=self.num_layers, num_heads=self.num_heads,
            hidden_size=self.hidden_size, ffn_size=self.ffn_size,
            vocab_size=self.vocab_size, max_positions=self.max_positions,
            num_classes=1 + 2 * len(self.entity_types), dropout=self.dropout,
        )

    def train_spec(self) -> TrainSpec:
        return TrainSpec(learning_rate=self.learning_rate, batch_size=self.batch_size,
                         max_seq_len=self.max_seq_len, epochs=self.epochs, seeds=self.seeds)

    def prune_schedule(self) -> PruneSchedule:
        return parse_schedule(self.schedule)


def _preset(encoder: EncoderConfig, spec: TrainSpec, **keys) -> dict:
    """Config keys that reproduce `encoder` and `spec`; the class count
    follows from `entity_types`."""
    dims = {k: v for k, v in asdict(encoder).items() if k != "num_classes"}
    return {**dims, **asdict(spec), **keys}


PRESETS: dict[str, dict] = {
    # CI-scale model and schedule (2 layers, 2 heads, hidden 64, 2k vocab)
    "desk": _preset(desk_config(), desk_train_spec(), n_sentences=800),
    # published-dimension accounting presets (hidden/ffn/vocab are assumptions)
    "reference-base": _preset(reference_config("base"), TrainSpec()),
    "reference-large": _preset(reference_config("large"), TrainSpec()),
}

_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    f = _FIELDS[key]
    raw = raw.strip()
    try:
        if f.type in ("int",):
            return int(raw)
        if f.type in ("float",):
            return float(raw)
        if f.type == "tuple[int, ...]":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if f.type == "tuple[str, ...]":
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(f"invalid value for '{key}': {raw!r}") from exc


def parse_schedule(text: str) -> PruneSchedule:
    parts = text.strip().split(":")
    if parts[0] in ("before", "after") and len(parts) == 1:
        return PruneSchedule(parts[0])
    if parts[0] == "during" and len(parts) == 4:
        try:
            sched = PruneSchedule("during", int(parts[1]), int(parts[2]), int(parts[3]))
        except ValueError:
            raise ConfigError(f"invalid value for 'schedule': {text!r}") from None
        return sched
    raise ConfigError(
        f"invalid value for 'schedule': {text!r} "
        "(expected before | after | during:START:END:STEPS)"
    )


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    checks = [
        (0.0 <= cfg.sparsity <= 0.99, "sparsity", "must be in [0, 0.99]"),
        (cfg.epochs >= 1, "epochs", "must be >= 1"),
        (cfg.batch_size >= 1, "batch_size", "must be >= 1"),
        (cfg.max_seq_len >= 2, "max_seq_len", "must be >= 2"),
        (len(cfg.seeds) >= 1, "seeds", "must be non-empty"),
        (cfg.temperature >= 0, "temperature", "must be >= 0"),
        (0.0 <= cfg.alpha_soft <= 1.0, "alpha_soft", "must be in [0, 1]"),
        (0.0 < cfg.mlm_mask_rate <= 1.0, "mlm_mask_rate", "must be in (0, 1]"),
        (cfg.outlier_threshold > 0, "outlier_threshold", "must be > 0"),
        (cfg.mode in ("task_agnostic", "task_specific"), "mode",
         "must be task_agnostic or task_specific"),
        (cfg.quant_mode in ("dynamic", "mixed", "both"), "quant_mode",
         "must be dynamic, mixed, or both"),
        (cfg.reps >= 3, "reps", "must be >= 3"),
        (cfg.warmup >= 1, "warmup", "must be >= 1"),
        (cfg.learning_rate >= 0, "learning_rate", "must be >= 0"),
    ]
    for ok, key, msg in checks:
        if not ok:
            raise ConfigError(f"'{key}' {msg} (got {getattr(cfg, key)!r})")
    parse_schedule(cfg.schedule)
    return cfg


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    pairs: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        pairs.append((key, value, lineno))

    cfg = ExperimentConfig()
    preset = next((v.strip() for k, v, _ in pairs if k == "preset"), "")
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"{source}: unknown preset '{preset}' "
                              f"(choose from {sorted(PRESETS)})")
        cfg = replace(cfg, preset=preset, **PRESETS[preset])
    for key, value, lineno in pairs:
        if key == "preset":
            continue
        try:
            cfg = replace(cfg, **{key: _parse_value(key, value)})
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
    return validate_config(cfg)


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    if overrides:
        text += "\n" + "\n".join(overrides)
    return parse_config(text, source=str(path))
