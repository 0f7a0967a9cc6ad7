"""The benchmark workloads: seeded inputs, set-up, timed rounds, output checks.

Every workload is driven by one caller in one process (a closed loop: the
next operation starts when the previous one returns) and calls sdcw only
through module attributes (`evaluation.evaluate`, not a re-bound copy), so
the tracer sees every call.

* desk-pipeline: the paper's study for one seed at desk scale, driven
  through `cli.run_cli`: synth-data, finetune, prune (after, 50 %),
  quantize (both modes), eval of each saved artifact, and task-specific
  distillation (T=8) into a 1-layer student. Each saved artifact is then
  reloaded and evaluated again by the benchmark, on the whole corpus.
* ref768: the published widths (hidden 768, FFN 3072, 6 heads, 70k
  vocabulary) with 2 layers, on batches of 16 sentences of 63 tokens made by
  concatenating synthetic ones: forwards in the four inference modes and
  `model.finetune` steps. Large layer-norm gains planted on a few hidden
  dimensions send a measured few percent of the int8 contraction through
  the fp32 outlier path.

Both workloads exercise training and all four inference modes, so every
end-to-end metric exists on both.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from sdcw import cli, config, data, evaluation, model, persist, prune, quant
from sdcw.tensor import IGNORE_INDEX

MODES = ("fp32", "pruned", "dynamic", "mixed")
clock = time.perf_counter


class Ledger:
    """Operations attempted and failed, timing samples, and values that must
    read the same in every round of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.fixed: dict[str, object] = {}
        self.notes: dict[str, object] = {}

    def op(self) -> None:
        self.attempted += 1

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {detail}")

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, detail or "check failed")

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(float(value))

    def repeat(self, key: str, value) -> None:
        """Record a value that must be identical in every round."""
        if key in self.fixed:
            self.check(f"{key} repeats", self.fixed[key] == value, f"{self.fixed[key]!r} != {value!r}")
        else:
            self.fixed[key] = value


def mode_order(round_index: int) -> tuple[str, ...]:
    """MODES rotated by one per round: the mode measured first after the
    round's other work pays for the memory that work released, so no mode
    should always be first."""
    k = round_index % len(MODES)
    return MODES[k:] + MODES[:k]


def labelled_tokens(batches) -> list[int]:
    return [int((tb.label_ids != IGNORE_INDEX).sum()) for tb in batches]


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def max_abs_delta(a_logits, b_logits) -> float:
    return max(float(np.max(np.abs(a - b))) for a, b in zip(a_logits, b_logits))


def check_pruned(led: Ledger, handle, mask, sparsity: float) -> None:
    """Exactly round(p * N) zeros in the prunable scope, mask included."""
    names = prune.prunable_names(handle)
    total = sum(handle.param(n).size for n in names)
    zeros = sum(int(np.count_nonzero(handle.param(n).data == 0.0)) for n in names)
    want = prune.pruned_count(sparsity, total)
    led.check("pruned zero count", zeros == want, f"{zeros} zeros, want {want} of {total}")
    led.check("pruned mask zero count", mask is not None and mask.zeros() == want,
              f"mask has {mask.zeros() if mask else None} zeros, want {want}")


# ---------------------------------------------------------------------------
# desk-pipeline

DESK_CONFIG = """preset=desk
seeds={seed}
n_sentences=400
epochs=5
dataset={root}/data
out_dir={root}/runs
"""
DESK_SPARSITY = 0.5
SPLITS = ("train", "dev", "test")


def desk_inputs(seed: int):
    """The synthetic splits `sdcw synth-data` writes for this seed and config."""
    cfg = config.parse_config(DESK_CONFIG.format(seed=seed, root="."))
    return cfg, data.synth_ner_corpus(cfg.seeds[0], cfg.n_sentences, cfg.entity_types)


class DeskPipeline:
    name = "desk-pipeline"
    setup_repeats = 5
    warm_up = False  # measured: its first round is no slower than the others

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.root = work
        self.cfg_path = work / "desk.cfg"
        self.rounds = 0

    def setup(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.cfg_path.write_text(DESK_CONFIG.format(seed=self.seed, root=self.root), encoding="utf-8")
        self.cfg, self.splits = desk_inputs(self.seed)
        train = self.splits[0]
        vocab = data.build_vocab(data.corpus_token_lists(train), self.cfg.vocab_size)
        bs, msl = self.cfg.batch_size, self.cfg.max_seq_len
        self.train_tokens = self.cfg.epochs * sum(labelled_tokens(data.batch(train, vocab, msl, bs)))
        self.corpus_tokens = sum(labelled_tokens(data.batch(sum(self.splits, []), vocab, msl, bs)))

    def prepare(self, led: Ledger) -> None:
        """Desk checks run on every round's artifacts instead."""

    def _cli(self, led: Ledger, sub: str, *overrides: str) -> None:
        led.op()
        out, err = io.StringIO(), io.StringIO()
        args = [sub, str(self.cfg_path)]
        for kv in overrides:
            args += ["--set", kv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run_cli(args)
        if rc != 0:
            raise RuntimeError(f"sdcw {sub} exited {rc}: {err.getvalue().strip()[-400:]}")

    def round(self, led: Ledger) -> None:
        runs, seed = self.root / "runs", self.seed
        for sub in ("data", "runs"):
            shutil.rmtree(self.root / sub, ignore_errors=True)
        teacher = runs / f"finetune_seed{seed}.sdcw"
        t0 = clock()
        self._cli(led, "synth-data", f"out_dir={self.root / 'data'}")
        # finetune and prune(after) train the same model from the same seed
        t1 = clock()
        self._cli(led, "finetune")
        self._cli(led, "prune", f"sparsity={DESK_SPARSITY}", "schedule=after")
        training_s = clock() - t1
        self._cli(led, "quantize", f"model_in={teacher}")
        reports = {
            "fp32": json.loads((runs / f"finetune_desk_seed{seed}.json").read_text()),
            "pruned": json.loads((runs / f"prune_desk_p{DESK_SPARSITY:.2f}-after_seed{seed}.json").read_text()),
        }
        quantized = json.loads((runs / f"quantize_desk_both_seed{seed}.json").read_text())["modes"]
        for mode in ("dynamic", "mixed"):
            reports[mode] = dict(quantized[mode]["report"], model_path=quantized[mode]["model_path"],
                                 model_bytes=quantized[mode]["model_bytes"])
        for mode in MODES:
            self._cli(led, "eval", f"model_in={runs / reports[mode]['model_path']}",
                      f"out_dir={runs / ('eval_' + mode)}")
        self._cli(led, "distill", "mode=task_specific", "student_layers=1", "student_heads=2",
                  f"teacher={teacher}")
        pipeline_s = clock() - t0
        led.sample("pipeline_s", pipeline_s)
        led.sample("train_tokens_per_s", 2 * self.train_tokens / training_s)
        student = json.loads((runs / f"distill_desk_task_specific-T8_seed{seed}.json").read_text())
        self._check_artifacts(led, runs, reports, student)

    def _check_artifacts(self, led: Ledger, runs: Path, reports: dict, student: dict) -> None:
        seed = self.seed
        splits = [data.load_conll(self.root / "data" / f"{name}.conll", self.cfg.entity_types)
                  for name in SPLITS]
        led.check("synth-data writes the seeded splits",
                  [[(s.tokens, s.tags) for s in split] for split in splits]
                  == [[(s.tokens, s.tags) for s in split] for split in self.splits])
        corpus, test = sum(splits, []), splits[2]
        f1 = {"student": student["f1"]}
        handles, sizes = {}, {}
        for mode in MODES:
            path = runs / reports[mode]["model_path"]
            evaluated = json.loads((runs / f"eval_{mode}" / f"eval_desk_seed{seed}.json").read_text())
            f1[mode] = evaluated["f1"]
            same = (evaluated["f1"], evaluated["loss"]) == (reports[mode]["f1"], reports[mode]["loss"])
            if mode == "mixed":
                # the known save/load drift: recorded, not failed
                led.notes["mixed_reload_loss_delta"] = abs(evaluated["loss"] - reports[mode]["loss"])
            else:
                led.check(f"{mode}: eval of the saved artifact matches the in-memory report", same,
                          f"eval {evaluated['f1']}/{evaluated['loss']} vs "
                          f"report {reports[mode]['f1']}/{reports[mode]['loss']}")
            led.op()
            handles[mode] = persist.load_model(path)
            sizes[mode] = path.stat().st_size
        vocab = data.Vocabulary.load(str(runs / reports["fp32"]["model_path"]) + ".vocab")
        for mode in ("dynamic", "mixed"):
            led.check(f"{mode}: reported bytes equal the file size",
                      reports[mode]["model_bytes"] == sizes[mode])
        check_pruned(led, *handles["pruned"], DESK_SPARSITY)

        kwargs = dict(entity_types=self.cfg.entity_types, batch_size=self.cfg.batch_size,
                      max_seq_len=self.cfg.max_seq_len)
        # one evaluation per mode and round: the machine's speed drifts over
        # seconds, so samples spread over the run are more independent
        for mode in mode_order(self.rounds):
            led.op()
            t = clock()
            rep = evaluation.evaluate(handles[mode][0], corpus, vocab, **kwargs)
            led.sample(f"{mode}_tokens_per_s", self.corpus_tokens / (clock() - t))
            led.repeat(f"corpus f1_{mode}", rep.f1)

        # reloaded quantized artifacts against in-memory quantization of the reloaded teacher
        fp32 = handles["fp32"][0]
        batches = data.batch(test, vocab, self.cfg.max_seq_len, self.cfg.batch_size,
                             entity_types=self.cfg.entity_types)
        in_memory = {"dynamic": quant.quantize_model_dynamic(fp32),
                     "mixed": quant.quantize_model_int8_mixed(fp32, handles["mixed"][0].outlier_threshold)}
        logits = {}
        for mode in ("dynamic", "mixed"):
            for tag, handle in (("memory", in_memory[mode]), ("reloaded", handles[mode][0])):
                led.op()
                logits[mode, tag] = [evaluation.forward_logits(handle, tb.token_ids, tb.attention_mask)
                                     for tb in batches]
        led.check("dynamic: reloaded logits bit-identical to the in-memory handle",
                  all(np.array_equal(a, b) for a, b in zip(logits["dynamic", "memory"],
                                                             logits["dynamic", "reloaded"])))
        led.notes["mixed_reload_max_abs_logit_delta"] = max_abs_delta(
            logits["mixed", "memory"], logits["mixed", "reloaded"])

        for mode, value in f1.items():
            led.repeat(f"f1_{mode}", value)
            led.notes[f"f1_{mode}"] = value
        for mode in ("pruned", "dynamic", "mixed"):
            led.repeat(f"bytes_{mode}", sizes[mode])
            led.sample(f"bytes_{mode}", sizes[mode])
        self.rounds += 1


# ---------------------------------------------------------------------------
# ref768

REF_SEQ_TOKENS = 63          # + BOS = 64 positions per row
REF_BATCH = 16
REF_SPARSITY = 0.9
PLANTED_GAIN = 5.0


def ref768_sentences(seed: int, n: int) -> list[data.Sentence]:
    """n tagged sentences of exactly REF_SEQ_TOKENS tokens, each made by
    concatenating consecutive synthetic desk sentences."""
    train, dev, test = data.synth_ner_corpus(seed, 10 * n + 10)
    source = iter(train + dev + test)
    out = []
    for _ in range(n):
        tokens, tags = [], []
        while len(tokens) < REF_SEQ_TOKENS:
            s = next(source)
            tokens += s.tokens
            tags += s.tags
        out.append(data.Sentence(tokens[:REF_SEQ_TOKENS], tags[:REF_SEQ_TOKENS]))
    return out


def planted_dims(seed: int, hidden: int, n: int) -> np.ndarray:
    return np.sort(np.random.default_rng([seed & 0xFFFFFFFF, 768]).choice(hidden, n, replace=False))


class Ref768:
    """Published widths: per round, `infer_batches` forwards in each mode and
    one `finetune` call of `train_steps` steps."""

    name = "ref768"
    vocab_size = 70_000
    infer_batches = 2
    train_steps = 2
    outlier_dims = 4
    setup_repeats = 2  # one set-up of the 70k-vocabulary model takes ~9 s
    warm_up = True  # the first forwards and finetune call pay first-touch costs

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.rounds = 0

    def setup(self) -> None:
        self.handles = self.trainee = None  # release the previous set-up first
        sents = ref768_sentences(self.seed, REF_BATCH * max(self.infer_batches, self.train_steps))
        self.vocab = data.build_vocab(data.corpus_token_lists(sents), self.vocab_size)
        cfg = model.reference_config(num_layers=2, vocab_size=self.vocab_size)
        fp32 = model.init_model(cfg, self.seed)
        dims = planted_dims(self.seed, cfg.hidden_size, self.outlier_dims)
        for name, p in fp32.params.items():
            if name.endswith("norm.gain"):
                p.data[dims] = PLANTED_GAIN
        pruned = model.clone_model(fp32)
        self.mask = prune.compute_mask(pruned, REF_SPARSITY)
        prune.apply_mask(pruned, self.mask)
        self.handles = {"fp32": fp32, "pruned": pruned,
                        "dynamic": quant.quantize_model_dynamic(fp32),
                        "mixed": quant.quantize_model_int8_mixed(fp32)}
        self.trainee = model.clone_model(fp32)  # trained apart, so the handles stay fixed
        self.batches = data.batch(sents[:REF_BATCH * self.infer_batches], self.vocab,
                                  REF_SEQ_TOKENS + 1, REF_BATCH)
        self.tokens = labelled_tokens(self.batches)
        self.train_sents = sents[:REF_BATCH * self.train_steps]
        self.train_tokens = sum(labelled_tokens(
            data.batch(self.train_sents, self.vocab, REF_SEQ_TOKENS + 1, REF_BATCH)))
        self.spec = model.TrainSpec(learning_rate=5e-5, batch_size=REF_BATCH,
                                    max_seq_len=REF_SEQ_TOKENS + 1, epochs=1, seeds=(self.seed,))

    def prepare(self, led: Ledger) -> None:
        """Save and reload every handle: sizes, bit-identical logits, exact sparsity."""
        self.work.mkdir(parents=True, exist_ok=True)
        # two rows are enough to compare a handle with its reloaded file
        ids, attention = self.batches[0].token_ids[:2], self.batches[0].attention_mask[:2]
        for mode in MODES:
            handle = self.handles[mode]
            mask = self.mask if mode == "pruned" else None
            path = self.work / f"{mode}.sdcw"
            led.op()
            n_bytes = persist.save_model(handle, path, mask=mask)
            led.check(f"{mode}: save_model bytes equal serialized_bytes and the file size",
                      n_bytes == persist.serialized_bytes(handle, mask) == path.stat().st_size)
            led.op()
            loaded, loaded_mask = persist.load_model(path)
            path.unlink()
            before = evaluation.forward_logits(handle, ids, attention)
            after = evaluation.forward_logits(loaded, ids, attention)
            if mode == "mixed":
                led.notes["mixed_reload_max_abs_logit_delta"] = max_abs_delta([before], [after])
            else:
                led.check(f"{mode}: reloaded logits bit-identical to the in-memory handle",
                          np.array_equal(before, after))
            if mode == "pruned":
                check_pruned(led, loaded, loaded_mask, REF_SPARSITY)
            if mode != "fp32":
                led.sample(f"bytes_{mode}", n_bytes)
            del loaded, loaded_mask

    def round(self, led: Ledger) -> None:
        t0 = clock()
        for mode in mode_order(self.rounds):
            handle = self.handles[mode]
            for i, tb in enumerate(self.batches):
                led.op()
                t = clock()
                logits = evaluation.forward_logits(handle, tb.token_ids, tb.attention_mask)
                led.sample(f"{mode}_tokens_per_s", self.tokens[i] / (clock() - t))
                led.repeat(f"{mode} logits of batch {i}", digest(logits))
        led.op()
        t = clock()
        trace = model.finetune(self.trainee, self.train_sents, self.vocab, self.spec, self.seed)
        led.sample("train_tokens_per_s", self.train_tokens / (clock() - t))
        led.check("finetune loss is finite", bool(np.all(np.isfinite(trace))))
        led.sample("pipeline_s", clock() - t0)
        self.rounds += 1


WORKLOADS = {"desk-pipeline": DeskPipeline, "ref768": Ref768}
