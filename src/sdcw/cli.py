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
from pathlib import Path

import numpy as np

from . import rng
from .atomic import atomic_write
from .config import ExperimentConfig, load_config
from .data import (
    Sentence, Vocabulary, build_vocab, corpus_token_lists, load_conll,
    preprocess_corpus, synth_ner_corpus, synth_pretrain_corpus, write_conll,
)
from .distill import (
    AGNOSTIC_TEMPERATURES, TASK_SPECIFIC_TEMPERATURE, DistillSpec, StudentSpec,
    artifact_name, distill_task_agnostic, distill_task_specific, grid_specs,
    init_student, pretrain_mlm,
)
from .errors import ConfigError, DataError, WorkbenchError
from .evaluation import TIMING_FIELDS, compare, evaluate, measure_inference_time
from .model import EncoderModel, count_params, finetune, init_model
from .persist import load_model, save_model
from .prune import run_schedule
from .quant import quantize_model_dynamic, quantize_model_int8_mixed

SUBCOMMANDS = ("synth-data", "pretrain", "finetune", "prune", "distill",
               "quantize", "eval", "bench", "transfer", "report")


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


def write_csv(path: Path, header, rows) -> None:
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def aggregate_runs(reports: list[dict], seeds) -> dict:
    """Per-metric mean and population std across seeds.

    Flags f1 std above 2 points as unstable; a single seed is flagged too.
    """
    seeds = list(seeds)
    by_seed = {r.get("seed") for r in reports}
    missing = [s for s in seeds if s not in by_seed]
    if missing:
        raise DataError(f"missing report for seed(s) {missing}")
    numeric: dict[str, list[float]] = {}
    for r in reports:
        for k, v in r.items():
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


def _resolve_model_path(template: str, seed: int) -> str:
    return template.replace("{seed}", str(seed))


def _load_fp32_model(path: str):
    handle, mask = load_model(path)
    if not isinstance(handle, EncoderModel):
        raise DataError(f"'{path}' holds a quantized model; an fp32 model is required")
    return handle, mask


def _vocab_for(cfg: ExperimentConfig, model_path: str, train: list[Sentence]) -> Vocabulary:
    if model_path:
        sidecar = Path(model_path + ".vocab")
        if sidecar.exists():
            return Vocabulary.load(sidecar)
    if not train:
        raise DataError("cannot build a vocabulary without a train split or vocab sidecar")
    return build_vocab(corpus_token_lists(train), cfg.vocab_size)


def _save_with_vocab(obj, path: Path, vocab: Vocabulary, mask=None) -> int:
    n = save_model(obj, path, mask=mask)
    vocab.save(str(path) + ".vocab")
    return n


def _eval_kwargs(cfg: ExperimentConfig) -> dict:
    return dict(entity_types=cfg.entity_types, batch_size=cfg.batch_size,
                max_seq_len=cfg.max_seq_len)


def _run_tag(cfg: ExperimentConfig, sub: str) -> str:
    parts = [sub, cfg.preset or "custom"]
    if sub == "prune":
        parts.append(f"p{cfg.sparsity:.2f}-{cfg.schedule.split(':')[0]}")
    elif sub == "distill":
        t = cfg.temperature or (TASK_SPECIFIC_TEMPERATURE if cfg.mode == "task_specific"
                                else AGNOSTIC_TEMPERATURES[0])
        parts.append(f"{cfg.mode}-T{t:g}")
    elif sub == "quantize":
        parts.append(cfg.quant_mode)
    return "_".join(parts)


def _per_seed(cfg: ExperimentConfig, out: Path, tag: str, run_one) -> list[dict]:
    reports = []
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
    tag = _run_tag(cfg, "pretrain")

    def run_one(seed: int) -> dict:
        model = init_model(cfg.encoder_config(), seed)
        trace = pretrain_mlm(model, lines, vocab, cfg.train_spec(), seed,
                             mask_rate=cfg.mlm_mask_rate)
        path = out / f"pretrained_seed{seed}.sdcw"
        n_bytes = _save_with_vocab(model, path, vocab)
        return {"subcommand": "pretrain", "loss_trace": trace, "final_loss": trace[-1],
                "model_path": path.name, "model_bytes": n_bytes,
                "total_params": count_params(model), "vocab_size": vocab.size}

    with output_lock(out):
        _per_seed(cfg, out, tag, run_one)
    print(f"pretrain: {len(cfg.seeds)} run(s) -> {out}")
    return 0


def _finetune_like(cfg: ExperimentConfig, sub: str) -> int:
    train, dev, test = _load_splits(cfg)
    if not train:
        raise DataError(f"'{sub}' needs a train split")
    eval_split = test or dev or train
    out = Path(cfg.out_dir)
    tag = _run_tag(cfg, sub)

    def run_one(seed: int) -> dict:
        model_path = _resolve_model_path(cfg.model_in, seed) if cfg.model_in else ""
        vocab = _vocab_for(cfg, model_path, train)
        if model_path:
            model, _ = _load_fp32_model(model_path)
        else:
            model = init_model(cfg.encoder_config(), seed)
        trace = finetune(model, train, vocab, cfg.train_spec(), seed,
                         entity_types=cfg.entity_types)
        path = out / f"{sub}_seed{seed}.sdcw"
        _save_with_vocab(model, path, vocab)
        report = evaluate(model, eval_split, vocab, dataset_id=_dataset_id(cfg),
                          **_eval_kwargs(cfg)).to_dict()
        report.update({"subcommand": sub, "loss_trace": trace, "model_path": path.name})
        return report

    with output_lock(out):
        _per_seed(cfg, out, tag, run_one)
    print(f"{sub}: {len(cfg.seeds)} run(s) -> {out}")
    return 0


def cmd_finetune(cfg: ExperimentConfig) -> int:
    return _finetune_like(cfg, "finetune")


def cmd_transfer(cfg: ExperimentConfig) -> int:
    if not cfg.model_in:
        raise ConfigError("'model_in' is required for transfer")
    return _finetune_like(cfg, "transfer")


def cmd_prune(cfg: ExperimentConfig) -> int:
    train, dev, test = _load_splits(cfg)
    if not train:
        raise DataError("'prune' needs a train split")
    eval_split = test or dev or train
    out = Path(cfg.out_dir)
    tag = _run_tag(cfg, "prune")
    schedule = cfg.prune_schedule()

    def run_one(seed: int) -> dict:
        model_path = _resolve_model_path(cfg.model_in, seed) if cfg.model_in else ""
        vocab = _vocab_for(cfg, model_path, train)
        if model_path:
            model, _ = _load_fp32_model(model_path)
        else:
            model = init_model(cfg.encoder_config(), seed)
        model, mask, trace = run_schedule(model, cfg.sparsity, schedule, train, vocab,
                                          cfg.train_spec(), seed, cfg.entity_types)
        path = out / f"pruned_p{cfg.sparsity:.2f}_{schedule.kind}_seed{seed}.sdcw"
        _save_with_vocab(model, path, vocab, mask=mask)
        report = evaluate(model, eval_split, vocab, dataset_id=_dataset_id(cfg),
                          **_eval_kwargs(cfg)).to_dict()
        report.update({
            "subcommand": "prune", "prune_rate": cfg.sparsity,
            "schedule": schedule.kind, "pruned_params": mask.zeros(),
            "loss_trace": trace, "model_path": path.name,
        })
        return report

    with output_lock(out):
        _per_seed(cfg, out, tag, run_one)
    print(f"prune: {len(cfg.seeds)} run(s) at p={cfg.sparsity} ({schedule.kind}) -> {out}")
    return 0


def cmd_distill(cfg: ExperimentConfig) -> int:
    if not cfg.teacher:
        raise ConfigError("'teacher' is required for distill")
    train, dev, test = _load_splits(cfg)
    if not train:
        raise DataError("'distill' needs a train split")
    eval_split = test or dev or train
    out = Path(cfg.out_dir)
    tag = _run_tag(cfg, "distill")
    temperature = cfg.temperature or None
    cells = (grid_specs(cfg.student_layers, cfg.student_heads) if cfg.grid
             else [StudentSpec(cfg.student_layers[0], cfg.student_heads[0])])

    corpus_lines: list[str] = []
    if cfg.mode == "task_agnostic":
        if not cfg.corpus:
            raise ConfigError("'corpus' is required for task-agnostic distillation")
        corpus_lines = preprocess_corpus(
            Path(cfg.corpus).read_text(encoding="utf-8").splitlines()
        )

    def run_one(seed: int) -> dict:
        teacher_path = _resolve_model_path(cfg.teacher, seed)
        teacher, _ = _load_fp32_model(teacher_path)
        vocab = _vocab_for(cfg, teacher_path, train)
        dspec = DistillSpec(mode=cfg.mode, temperature=temperature,
                            alpha_soft=cfg.alpha_soft, alpha_hard=1.0 - cfg.alpha_soft,
                            mlm_mask_rate=cfg.mlm_mask_rate)
        cell_reports = []
        for spec in cells:
            name = artifact_name(Path(teacher_path).stem, spec, dspec.temperature, cfg.mode)
            if cfg.mode == "task_specific" and cfg.from_distilled and cfg.model_in:
                student, _ = _load_fp32_model(_resolve_model_path(cfg.model_in, seed))
            else:
                student = init_student(teacher, spec, rng.derive(seed, name))
            if cfg.mode == "task_agnostic":
                kd_trace = distill_task_agnostic(teacher, student, corpus_lines, vocab,
                                                 dspec, cfg.train_spec(), seed)
                ft_trace = finetune(student, train, vocab, cfg.train_spec(), seed,
                                    entity_types=cfg.entity_types)
            else:
                kd_trace = distill_task_specific(teacher, student, train, vocab, dspec,
                                                 cfg.train_spec(), seed, cfg.entity_types,
                                                 cache_teacher=cfg.cache_teacher)
                ft_trace = []
            path = out / f"{name}_seed{seed}.sdcw"
            _save_with_vocab(student, path, vocab)
            rep = evaluate(student, eval_split, vocab, dataset_id=_dataset_id(cfg),
                           **_eval_kwargs(cfg)).to_dict()
            rep.update({
                "artifact": name, "layers": spec.num_layers, "heads": spec.num_heads,
                "params": count_params(student), "teacher_params": count_params(teacher),
                "temperature": dspec.temperature, "kd_loss_trace": kd_trace,
                "finetune_loss_trace": ft_trace, "model_path": path.name,
            })
            cell_reports.append(rep)
        best = max(cell_reports, key=lambda r: r["f1"])
        return {"subcommand": "distill", "mode": cfg.mode, "cells": cell_reports,
                "f1": best["f1"], "best_artifact": best["artifact"]}

    with output_lock(out):
        _per_seed(cfg, out, tag, run_one)
    print(f"distill ({cfg.mode}): {len(cells)} cell(s) x {len(cfg.seeds)} seed(s) -> {out}")
    return 0


def cmd_quantize(cfg: ExperimentConfig) -> int:
    if not cfg.model_in:
        raise ConfigError("'model_in' is required for quantize")
    _, dev, test = _load_splits(cfg)
    eval_split = test or dev
    if not eval_split:
        raise DataError("'quantize' needs a dev or test split to evaluate on")
    out = Path(cfg.out_dir)
    tag = _run_tag(cfg, "quantize")
    modes = ("dynamic", "mixed") if cfg.quant_mode == "both" else (cfg.quant_mode,)

    def run_one(seed: int) -> dict:
        model_path = _resolve_model_path(cfg.model_in, seed)
        model, _ = _load_fp32_model(model_path)
        vocab = _vocab_for(cfg, model_path, [])
        baseline = evaluate(model, eval_split, vocab, dataset_id=_dataset_id(cfg),
                            **_eval_kwargs(cfg))
        report = {"subcommand": "quantize", "baseline": baseline.to_dict(),
                  "f1": baseline.f1, "modes": {}}
        for mode in modes:
            if mode == "dynamic":
                qm = quantize_model_dynamic(model)
            else:
                qm = quantize_model_int8_mixed(model, cfg.outlier_threshold)
            qpath = out / f"quantized_{mode}_seed{seed}.sdcw"
            n_bytes = _save_with_vocab(qm, qpath, vocab)
            # report the saved artifact: a reloaded mixed handle has no fp_ref
            # and fp16 extras, so its logits differ from the in-memory one
            qrep = evaluate(load_model(qpath)[0], eval_split, vocab,
                            dataset_id=_dataset_id(cfg), **_eval_kwargs(cfg))
            report["modes"][mode] = {
                "report": qrep.to_dict(),
                "delta": compare(baseline, qrep),
                "model_path": qpath.name,
                "model_bytes": n_bytes,
            }
        return report

    with output_lock(out):
        _per_seed(cfg, out, tag, run_one)
    print(f"quantize: modes {modes} x {len(cfg.seeds)} seed(s) -> {out}")
    return 0


def cmd_eval(cfg: ExperimentConfig) -> int:
    if not cfg.model_in:
        raise ConfigError("'model_in' is required for eval")
    train, dev, test = _load_splits(cfg)
    eval_split = test or dev or train
    out = Path(cfg.out_dir)
    tag = _run_tag(cfg, "eval")

    def run_one(seed: int) -> dict:
        model_path = _resolve_model_path(cfg.model_in, seed)
        handle, _ = load_model(model_path)
        vocab = _vocab_for(cfg, model_path, train)
        report = evaluate(handle, eval_split, vocab, dataset_id=_dataset_id(cfg),
                          **_eval_kwargs(cfg)).to_dict()
        report.update({"subcommand": "eval", "model_path": Path(model_path).name})
        return report

    with output_lock(out):
        _per_seed(cfg, out, tag, run_one)
    print(f"eval: {len(cfg.seeds)} run(s) -> {out}")
    return 0


def cmd_bench(cfg: ExperimentConfig) -> int:
    if not cfg.model_in:
        raise ConfigError("'model_in' is required for bench")
    train, dev, test = _load_splits(cfg)
    eval_split = test or dev or train
    out = Path(cfg.out_dir)
    tag = _run_tag(cfg, "bench")

    def run_one(seed: int) -> dict:
        model_path = _resolve_model_path(cfg.model_in, seed)
        model, _ = _load_fp32_model(model_path)
        vocab = _vocab_for(cfg, model_path, train)

        def timed(handle) -> dict:
            return measure_inference_time(handle, eval_split, vocab, reps=cfg.reps,
                                          warmup=cfg.warmup, **_eval_kwargs(cfg))

        modes = {"fp32": timed(model)}
        # time what a saved file gives: a reloaded mixed handle has fp16
        # extras and no fp_ref, unlike the one quantization returns
        for qm in (quantize_model_dynamic(model),
                   quantize_model_int8_mixed(model, cfg.outlier_threshold)):
            qpath = out / f"bench_{qm.mode}_seed{seed}.sdcw"
            save_model(qm, qpath)
            modes[qm.mode] = {**timed(load_model(qpath)[0]), "model_path": qpath.name}
        return {"subcommand": "bench", "dataset": _dataset_id(cfg), "modes": modes}

    with output_lock(out):
        reports = _per_seed(cfg, out, tag, run_one)
        rows = [[rep["dataset"], rep["seed"]]
                + [f"{rep['modes'][m]['median_ms'] / max(1, rep['modes'][m]['n_batches']):.3f}"
                   for m in ("fp32", "dynamic_int8", "int8_mixed")]
                for rep in reports]
        write_csv(out / f"{tag}_latency.csv",
                  ["dataset", "seed", "baseline_ms", "dynamic_ms", "int8_mixed_ms"], rows)
    print(f"bench: latency table -> {out}")
    return 0


REPORT_COLUMNS = ("prune_rate", "dataset", "loss", "precision", "recall", "f1",
                  "inference_time", "pruned_params", "mode", "sparsity", "seed",
                  "subcommand")


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
        rows.append({
            "prune_rate": payload.get("prune_rate", ""),
            "dataset": payload.get("dataset_id", ""),
            "loss": payload.get("loss", ""),
            "precision": payload.get("precision", ""),
            "recall": payload.get("recall", ""),
            "f1": payload.get("f1", ""),
            "inference_time": payload.get("inference_time_ms", ""),
            "pruned_params": payload.get("pruned_params", ""),
            "mode": payload.get("mode", ""),
            "sparsity": payload.get("sparsity", ""),
            "seed": payload.get("seed", ""),
            "subcommand": payload.get("subcommand", ""),
        })
    rows.sort(key=lambda r: (str(r["prune_rate"]), str(r["dataset"]), str(r["seed"])))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = out / "report.csv"
    write_csv(table, REPORT_COLUMNS, [[r[c] for c in REPORT_COLUMNS] for r in rows])
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
    "transfer": cmd_transfer,
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
