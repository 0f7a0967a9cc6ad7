"""Command-line surface composing the compression workflows.

Every training subcommand runs once per seed in the config's seed list,
writes one JSON report per seed plus a mean/std aggregate, and is replayable:
identical config and seeds reproduce byte-identical reports up to timing
fields. Report filenames encode (subcommand, preset, run tag, seed).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .config import ExperimentConfig, load_config
from .data import (
    Sentence, Vocabulary, build_vocab, corpus_token_lists, load_conll,
    preprocess_corpus, synth_ner_corpus, synth_pretrain_corpus, write_conll,
)
from .distill import default_temperature, distill_grid, grid_specs, pretrain_mlm
from .errors import ConfigError, DataError, WorkbenchError
from .evaluation import (
    TIMING_FIELDS, EvalReport, compare, evaluate, measure_inference_time,
)
from .model import EncoderModel, count_params, finetune, init_model
from .persist import load_model, save_model
from .prune import run_schedule
from .quant import quantize_model_dynamic, quantize_model_int8_mixed
from .tensor import Tensor

SUBCOMMANDS = ("synth-data", "pretrain", "finetune", "prune", "distill",
               "quantize", "eval", "bench", "report")


# ---------------------------------------------------------------------------
# report plumbing

def strip_timing(obj):
    """Drop wall-clock fields recursively (used by the determinism check)."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_FIELDS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _file_reports(payload: dict) -> dict[str, dict]:
    """The reports of the model files a run JSON describes one by one: each
    quantized mode's ("modes.<mode>") and each distilled student's
    ("cells.<artifact>", its `mode` the distillation mode)."""
    if payload.get("subcommand") == "quantize":
        return {f"modes.{mode}": {**entry["report"], "model_path": entry["model_path"]}
                for mode, entry in payload["modes"].items()}
    if payload.get("subcommand") == "distill":
        return {f"cells.{cell['artifact']}": {**cell, "mode": payload["mode"]}
                for cell in payload["cells"]}
    return {}


def aggregate_runs(reports: list[dict], seeds) -> dict:
    """Per-metric mean and population std across seeds: of every top-level
    number, and of the f1 and model_bytes of every file report (as
    "modes.<mode>.f1", "cells.<artifact>.model_bytes").

    Flags f1 std above 2 points as unstable; a single seed is flagged too.
    """
    seeds = list(seeds)
    by_seed = {r.get("seed") for r in reports}
    missing = [s for s in seeds if s not in by_seed]
    if missing:
        raise DataError(f"missing report for seed(s) {missing}")
    numeric: dict[str, list[float]] = {}
    for r in reports:
        files = {f"{name}.{key}": rep[key]
                 for name, rep in _file_reports(r).items() for key in ("f1", "model_bytes")}
        for k, v in {**r, **files}.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool) and k != "seed":
                numeric.setdefault(k, []).append(float(v))
    full = {k: v for k, v in numeric.items() if len(v) == len(reports)}
    mean = {k: float(np.mean(v)) for k, v in full.items()}
    std = {k: 0.0 if len(set(v)) == 1 else float(np.std(v)) for k, v in full.items()}
    flags = []
    if len(reports) == 1:
        flags.append("single_seed")
    if std.get("f1", 0.0) > 0.02:
        flags.append("unstable_f1")
    return {"seeds": seeds, "n_runs": len(reports), "mean": mean, "std": std, "flags": flags}


def _lock_holder_is_dead(lock: Path) -> bool:
    """True when the PID recorded in `lock` names no running process."""
    try:
        pid = int(lock.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False  # gone, or its owner has not written the PID yet
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, owned by another user
        pass
    return False


@contextmanager
def output_lock(out_dir: Path):
    """One experiment process per output directory. A lock whose recorded PID
    is dead (its run crashed) is taken over; two runs that find the same
    stale lock at the same instant are not told apart."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    for attempt in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt or not _lock_holder_is_dead(lock):
                raise WorkbenchError(f"output directory is locked by another run: {lock}") from None
            lock.unlink(missing_ok=True)
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# shared loading

def _dataset_id(cfg: ExperimentConfig) -> str:
    return cfg.dataset_id or (Path(cfg.dataset).stem if cfg.dataset else "dataset")


def _load_splits(cfg: ExperimentConfig) -> tuple[list[Sentence], list[Sentence], list[Sentence]]:
    root = Path(cfg.dataset)
    if not cfg.dataset:
        raise ConfigError("'dataset' is required for this subcommand")
    if root.is_dir():
        splits = []
        for name in ("train", "dev", "test"):
            p = root / f"{name}.conll"
            splits.append(load_conll(p, cfg.entity_types) if p.exists() else [])
        if not any(splits):
            raise DataError(f"no train/dev/test .conll files under {root}")
        return tuple(splits)
    sents = load_conll(root, cfg.entity_types)
    return [], [], sents


def _training_splits(cfg: ExperimentConfig, sub: str) -> tuple[list[Sentence], list[Sentence]]:
    """The train split, and the split a training subcommand reports on."""
    train, dev, test = _load_splits(cfg)
    if not train:
        raise DataError(f"'{sub}' needs a train split")
    return train, test or dev or train


def _load_input(cfg: ExperimentConfig, template: str, seed: int, train: list[Sentence],
                fp32: bool = True) -> tuple:
    """The seed's file of `template` ("{seed}" replaced): its (handle, mask),
    its vocabulary (the `.vocab` sidecar, else built from `train`) and its
    path. Fails, before anything trains or is written, when `fp32` and the
    file holds a quantized model, or when the vocabulary has a token past
    the file's token table."""
    path = Path(template.replace("{seed}", str(seed)))
    sidecar = Path(f"{path}.vocab")
    if sidecar.exists():
        vocab = Vocabulary.load(sidecar)
    elif train:
        vocab = build_vocab(corpus_token_lists(train), cfg.vocab_size)
    else:
        raise DataError("cannot build a vocabulary without a train split or vocab sidecar")
    handle, mask = load_model(path)
    if fp32 and not isinstance(handle, EncoderModel):
        raise DataError(f"'{path}' holds a quantized model; an fp32 model is required")
    if vocab.size > handle.config.vocab_size:
        raise DataError(f"the vocabulary has {vocab.size} tokens, but '{path}' "
                        f"has a token table of {handle.config.vocab_size} rows")
    return handle, mask, vocab, path


def _fit_table(model: EncoderModel, rows: int) -> EncoderModel:
    """`model` with its first `rows` token rows: those past the vocabulary,
    which no token id reaches, are dropped."""
    if model.config.vocab_size == rows:
        return model
    table = model.params["embeddings.token"]
    # a copy, not a view, so that the dropped rows' memory is freed
    params = {**model.params, "embeddings.token": Tensor(
        table.data[:rows].copy(), requires_grad=True, name=table.name)}
    return EncoderModel(replace(model.config, vocab_size=rows), params)


def _start_model(cfg: ExperimentConfig, seed: int,
                 train: list[Sentence]) -> tuple[EncoderModel, Vocabulary]:
    """The model a training subcommand starts from (the seed's `model_in`
    file, or a fresh init at the `vocab_size` cap) and its vocabulary, the
    model's token table cut to the vocabulary."""
    if cfg.model_in:
        model, _, vocab, _ = _load_input(cfg, cfg.model_in, seed, train)
    else:
        vocab = build_vocab(corpus_token_lists(train), cfg.vocab_size)
        model = init_model(cfg.encoder_config(), seed)
    return _fit_table(model, vocab.size), vocab


def _eval_kwargs(cfg: ExperimentConfig) -> dict:
    return dict(entity_types=cfg.entity_types, batch_size=cfg.batch_size,
                max_seq_len=cfg.max_seq_len)


# Every number a report gives comes from a file: the handler saves what it
# made, loads it back, and measures the loaded handle. `measure(handle,
# n_bytes)` gets the file's size, mask bitmaps included.

def _as_dict(report) -> dict:
    return report.to_dict() if isinstance(report, EvalReport) else report


def _save_and_report(obj, path: Path, vocab: Vocabulary, measure, mask=None) -> dict:
    """Save `obj` and its vocabulary, then report on the file, naming it."""
    save_model(obj, path, mask=mask)
    vocab.save(str(path) + ".vocab")
    return {**_as_dict(measure(load_model(path)[0], path.stat().st_size)), "model_path": path.name}


def _evaluator(cfg: ExperimentConfig, split: list[Sentence], vocab: Vocabulary):
    """A measure: the EvalReport on `split`, with the file's bytes."""
    def measure(handle, n_bytes: int) -> EvalReport:
        report = evaluate(handle, split, vocab, dataset_id=_dataset_id(cfg), **_eval_kwargs(cfg))
        report.model_bytes = n_bytes
        return report
    return measure


def _timer(cfg: ExperimentConfig, split: list[Sentence], vocab: Vocabulary):
    """A measure: `measure_inference_time` on `split`, with the file's bytes."""
    def measure(handle, n_bytes: int) -> dict:
        return {**measure_inference_time(handle, split, vocab, reps=cfg.reps, warmup=cfg.warmup,
                                         **_eval_kwargs(cfg)),
                "model_bytes": n_bytes, "dataset_id": _dataset_id(cfg)}
    return measure


def _run_tag(cfg: ExperimentConfig, sub: str) -> str:
    parts = [sub, cfg.preset or "custom"]
    if sub == "prune":
        parts.append(f"p{cfg.sparsity:.2f}-{cfg.schedule.split(':')[0]}")
    elif sub == "distill":
        parts.append(f"{cfg.mode}-T{cfg.temperature or default_temperature(cfg.mode):g}")
    elif sub == "quantize":
        parts.append(cfg.quant_mode)
    return "_".join(parts)


def _per_seed(cfg: ExperimentConfig, sub: str, run_one) -> list[dict]:
    """Run and report every seed, holding the output directory's lock."""
    out, tag = Path(cfg.out_dir), _run_tag(cfg, sub)
    reports = []
    with output_lock(out):
        for seed in cfg.seeds:
            report = run_one(seed)
            report["seed"] = seed
            write_json(out / f"{tag}_seed{seed}.json", report)
            reports.append(report)
        write_json(out / f"{tag}_agg.json", aggregate_runs(reports, cfg.seeds))
    return reports


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_synth_data(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seeds[0]
    train, dev, test = synth_ner_corpus(seed, cfg.n_sentences, cfg.entity_types)
    write_conll(train, out / "train.conll")
    write_conll(dev, out / "dev.conll")
    write_conll(test, out / "test.conll")
    lines = synth_pretrain_corpus(seed, max(cfg.n_sentences, 200))
    with atomic_write(out / "corpus.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    write_json(out / "meta.json", {
        "seed": seed, "n_sentences": cfg.n_sentences,
        "entity_types": list(cfg.entity_types),
        "splits": {"train": len(train), "dev": len(dev), "test": len(test)},
        "corpus_lines": len(lines),
    })
    print(f"synth-data: wrote {len(train)}/{len(dev)}/{len(test)} sentences to {out}")
    return 0


def cmd_pretrain(cfg: ExperimentConfig) -> int:
    if not cfg.corpus:
        raise ConfigError("'corpus' is required for pretrain")
    raw = Path(cfg.corpus).read_text(encoding="utf-8").splitlines()
    lines = preprocess_corpus(raw)
    if not lines:
        raise DataError(f"corpus {cfg.corpus} is empty after preprocessing")
    vocab = build_vocab(corpus_token_lists(lines), cfg.vocab_size)
    out = Path(cfg.out_dir)

    def run_one(seed: int) -> dict:
        model = init_model(cfg.encoder_config(), seed)
        trace = pretrain_mlm(model, lines, vocab, cfg.train_spec(), seed,
                             mask_rate=cfg.mlm_mask_rate)
        report = _save_and_report(
            model, out / f"pretrained_seed{seed}.sdcw", vocab,
            lambda handle, n_bytes: {"model_bytes": n_bytes, "total_params": count_params(handle)})
        report.update({"subcommand": "pretrain", "loss_trace": trace, "final_loss": trace[-1],
                       "vocab_size": vocab.size})
        return report

    _per_seed(cfg, "pretrain", run_one)
    print(f"pretrain: {len(cfg.seeds)} run(s) -> {out}")
    return 0


def cmd_finetune(cfg: ExperimentConfig) -> int:
    train, eval_split = _training_splits(cfg, "finetune")
    out = Path(cfg.out_dir)

    def run_one(seed: int) -> dict:
        model, vocab = _start_model(cfg, seed, train)
        trace = finetune(model, train, vocab, cfg.train_spec(), seed,
                         entity_types=cfg.entity_types)
        report = _save_and_report(model, out / f"finetune_seed{seed}.sdcw", vocab,
                                  _evaluator(cfg, eval_split, vocab))
        report.update({"subcommand": "finetune", "loss_trace": trace})
        return report

    _per_seed(cfg, "finetune", run_one)
    print(f"finetune: {len(cfg.seeds)} run(s) -> {out}")
    return 0


def cmd_prune(cfg: ExperimentConfig) -> int:
    train, eval_split = _training_splits(cfg, "prune")
    out = Path(cfg.out_dir)
    schedule = cfg.prune_schedule()

    def run_one(seed: int) -> dict:
        model, vocab = _start_model(cfg, seed, train)
        model, mask, trace, ramp = run_schedule(model, cfg.sparsity, schedule, train, vocab,
                                                cfg.train_spec(), seed, cfg.entity_types)
        path = out / f"pruned_p{cfg.sparsity:.2f}_{schedule.kind}_seed{seed}.sdcw"
        report = _save_and_report(model, path, vocab, _evaluator(cfg, eval_split, vocab),
                                  mask=mask)
        report.update({
            "subcommand": "prune", "prune_rate": cfg.sparsity,
            "schedule": schedule.kind, "pruned_params": mask.zeros(), "loss_trace": trace,
            "sparsity_ramp": ramp,
        })
        return report

    _per_seed(cfg, "prune", run_one)
    print(f"prune: {len(cfg.seeds)} run(s) at p={cfg.sparsity} ({schedule.kind}) -> {out}")
    return 0


def cmd_distill(cfg: ExperimentConfig) -> int:
    if not cfg.teacher:
        raise ConfigError("'teacher' is required for distill")
    train, eval_split = _training_splits(cfg, "distill")
    out = Path(cfg.out_dir)
    cells = grid_specs(cfg.student_layers, cfg.student_heads)
    temperature = cfg.temperature or default_temperature(cfg.mode)
    task_data = train
    if cfg.mode == "task_agnostic":
        if not cfg.corpus:
            raise ConfigError("'corpus' is required for task-agnostic distillation")
        task_data = preprocess_corpus(Path(cfg.corpus).read_text(encoding="utf-8").splitlines())

    def run_one(seed: int) -> dict:
        teacher, _, vocab, teacher_path = _load_input(cfg, cfg.teacher, seed, train)
        given = None
        # a task-specific run from `model_in` trains on the student that file holds
        if cfg.mode == "task_specific" and cfg.model_in:
            given, _, student_vocab, student_path = _load_input(cfg, cfg.model_in, seed, train)
            if student_vocab.id_to_token != vocab.id_to_token:
                raise DataError(f"'{student_path}' has a vocabulary other than the teacher's")
            held = (given.config.num_layers, given.config.num_heads)
            for cell in cells:
                if held != (cell.num_layers, cell.num_heads):
                    raise ConfigError(
                        f"'{student_path}' holds a student with {held[0]} layer(s) and "
                        f"{held[1]} head(s), but the grid cell asks for "
                        f"{cell.num_layers} layer(s) and {cell.num_heads} head(s)")
        grid = distill_grid({teacher_path.stem: teacher}, cfg.mode, task_data, vocab,
                            cells, [temperature], cfg.train_spec(), seed,
                            entity_types=cfg.entity_types, alpha_soft=cfg.alpha_soft,
                            mlm_mask_rate=cfg.mlm_mask_rate, student=given)
        cell_reports = []
        for name, (student, kd_trace) in grid.items():
            ft_trace = []
            if cfg.mode == "task_agnostic":
                ft_trace = finetune(student, train, vocab, cfg.train_spec(), seed,
                                    entity_types=cfg.entity_types)
            rep = _save_and_report(student, out / f"{name}_seed{seed}.sdcw", vocab,
                                   _evaluator(cfg, eval_split, vocab))
            rep.update({
                "artifact": name, "layers": student.config.num_layers,
                "heads": student.config.num_heads, "params": count_params(student),
                "teacher_params": count_params(teacher), "temperature": temperature,
                "kd_loss_trace": kd_trace, "finetune_loss_trace": ft_trace,
            })
            cell_reports.append(rep)
        best = max(cell_reports, key=lambda r: r["f1"])
        return {"subcommand": "distill", "mode": cfg.mode, "cells": cell_reports,
                "f1": best["f1"], "best_artifact": best["artifact"]}

    _per_seed(cfg, "distill", run_one)
    print(f"distill ({cfg.mode}): {len(cells)} cell(s) x {len(cfg.seeds)} seed(s) -> {out}")
    return 0


def cmd_quantize(cfg: ExperimentConfig) -> int:
    if not cfg.model_in:
        raise ConfigError("'model_in' is required for quantize")
    train, dev, test = _load_splits(cfg)
    eval_split = test or dev
    if not eval_split:
        raise DataError("'quantize' needs a dev or test split to evaluate on")
    out = Path(cfg.out_dir)
    modes = ("dynamic", "mixed") if cfg.quant_mode == "both" else (cfg.quant_mode,)

    def run_one(seed: int) -> dict:
        model, mask, vocab, model_path = _load_input(cfg, cfg.model_in, seed, train)
        evaluated = _evaluator(cfg, eval_split, vocab)
        baseline = evaluated(model, model_path.stat().st_size)

        # a reloaded mixed handle's fp tensors went through fp16, so its logits
        # differ from those of the handle quantization returns
        def against_baseline(handle, n_bytes: int) -> dict:
            qrep = evaluated(handle, n_bytes)
            return {"report": qrep.to_dict(), "delta": compare(baseline, qrep),
                    "model_bytes": n_bytes}

        report = {"subcommand": "quantize", "baseline": baseline.to_dict(),
                  "f1": baseline.f1, "modes": {}}
        for mode in modes:
            if mode == "dynamic":
                qm = quantize_model_dynamic(model, mask)
            else:
                qm = quantize_model_int8_mixed(model, cfg.outlier_threshold, mask)
            report["modes"][mode] = _save_and_report(
                qm, out / f"quantized_{mode}_seed{seed}.sdcw", vocab, against_baseline)
        return report

    _per_seed(cfg, "quantize", run_one)
    print(f"quantize: modes {modes} x {len(cfg.seeds)} seed(s) -> {out}")
    return 0


def _measure_model_in(cfg: ExperimentConfig, sub: str, measure_for) -> int:
    """Report, per seed, the measure `measure_for(cfg, split, vocab)` gives
    of the `model_in` file as loaded, on the test (else dev, else train) split."""
    if not cfg.model_in:
        raise ConfigError(f"'model_in' is required for {sub}")
    train, dev, test = _load_splits(cfg)
    eval_split = test or dev or train

    def run_one(seed: int) -> dict:
        handle, _, vocab, model_path = _load_input(cfg, cfg.model_in, seed, train, fp32=False)
        report = measure_for(cfg, eval_split, vocab)(handle, model_path.stat().st_size)
        return {**_as_dict(report), "subcommand": sub, "model_path": model_path.name}

    _per_seed(cfg, sub, run_one)
    print(f"{sub}: {len(cfg.seeds)} run(s) -> {cfg.out_dir}")
    return 0


def cmd_eval(cfg: ExperimentConfig) -> int:
    return _measure_model_in(cfg, "eval", _evaluator)


def cmd_bench(cfg: ExperimentConfig) -> int:
    return _measure_model_in(cfg, "bench", _timer)


# report.csv column -> run JSON key
REPORT_COLUMNS = {
    "prune_rate": "prune_rate", "dataset": "dataset_id", "loss": "loss",
    "precision": "precision", "recall": "recall", "f1": "f1",
    "pruned_params": "pruned_params",
    "mode": "mode", "sparsity": "sparsity", "seed": "seed", "subcommand": "subcommand",
    "model_path": "model_path", "model_bytes": "model_bytes",
    "truncated_tokens": "truncated_tokens",
}


def _report_rows(payload: dict) -> list[dict]:
    """The rows a run JSON gives: one per file report (quantized modes,
    distilled students), else one for the run."""
    files = _file_reports(payload).values()
    return [{**row, "seed": payload["seed"], "subcommand": payload["subcommand"]}
            for row in files] or [payload]


def cmd_report(cfg: ExperimentConfig) -> int:
    """Regenerate a sweep-shaped CSV (rows: prune_rate x dataset) from run JSONs."""
    src = Path(cfg.dataset or cfg.out_dir)
    if not src.is_dir():
        raise ConfigError(f"'report' needs a directory of run JSONs, got {src}")
    rows = []
    for path in sorted(src.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or "f1" not in payload or "seed" not in payload:
            continue
        rows += [{col: row.get(key, "") for col, key in REPORT_COLUMNS.items()}
                 for row in _report_rows(payload)]
    rows.sort(key=lambda r: (str(r["prune_rate"]), str(r["dataset"]), str(r["seed"])))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = out / "report.csv"
    with atomic_write(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows([r[c] for c in REPORT_COLUMNS] for r in rows)
    print(f"report: {len(rows)} row(s) -> {table}")
    return 0


HANDLERS = {
    "synth-data": cmd_synth_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "prune": cmd_prune,
    "distill": cmd_distill,
    "quantize": cmd_quantize,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdcw",
        description="Compression workbench: prune, distill, and quantize small encoders.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} workflow")
        p.add_argument("config", help="path to a key=value experiment config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    return parser


def run_cli(argv: list[str]) -> int:
    """Exit codes: 0 success, 2 config error, 1 runtime failure."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, overrides=args.set)
        return HANDLERS[args.subcommand](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
