"""Tests of the benchmark itself: tracer installation and restoration, metric
names and units, the result schema, per-seed inputs, and failure without a
source tree.

    python -m pytest perfbench/tests
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdcw import cli, data, evaluation, model, persist, quant
from sdcw import tensor as T
from sdcw.data import batch as original_batch
from sdcw.model import finetune as original_finetune, forward as original_forward
from sdcw.tensor import matmul as original_matmul, no_grad as original_no_grad

from perfbench import workloads
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COPY_IGNORE = shutil.ignore_patterns("__pycache__", "out", "*.egg-info")


def sdcw_bindings() -> dict:
    return {(mod_name, attr): id(obj)
            for mod_name, module in list(sys.modules.items())
            if mod_name == "sdcw" or mod_name.startswith("sdcw.")
            for attr, obj in vars(module).items()}


def test_tracer_wraps_reexported_names_and_restores_every_binding():
    before = sdcw_bindings()
    with Tracer():
        assert model.finetune is not original_finetune
        assert model.finetune.__wrapped__ is original_finetune
        # names copied by `from .x import y` point at the same wrapper
        assert cli.finetune is model.finetune
        assert evaluation.forward is model.forward
        assert evaluation.make_batches is data.batch
        assert model.make_batches is data.batch
        assert cli.evaluate is evaluation.evaluate
        assert cli.save_model is persist.save_model
        assert T.matmul is not original_matmul
        assert T.no_grad is original_no_grad  # context managers stay unwrapped
    assert sdcw_bindings() == before
    assert cli.finetune is original_finetune
    assert evaluation.forward is original_forward
    assert evaluation.make_batches is original_batch


def test_tracer_restores_bindings_when_the_traced_code_raises():
    before = sdcw_bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert sdcw_bindings() == before


def test_traced_layer_metrics_are_consistent():
    cfg = model.EncoderConfig(num_layers=1, num_heads=2, hidden_size=16, ffn_size=32,
                              vocab_size=60, max_positions=16, num_classes=9)
    m = model.init_model(cfg, 0)
    train, _, _ = data.synth_ner_corpus(0, 20)
    vocab = data.build_vocab(data.corpus_token_lists(train), cfg.vocab_size)
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=12, epochs=1)
    tracer = Tracer()
    with tracer:
        model.finetune(m, train, vocab, spec, seed=0)
        qm = quant.quantize_model_int8_mixed(m, threshold=0.5)
        evaluation.evaluate(qm, train, vocab, max_seq_len=12)
    metrics = tracer.layer_metrics()
    assert all(NAME.match(name) for name in metrics)
    labels = {name.rsplit(".", 1)[0] for name in metrics if name.endswith(".calls")}
    for label in labels:
        assert 0.0 <= metrics[f"{label}.self_s"] <= metrics[f"{label}.busy_s"] + 1e-9, label
    assert metrics["model.finetune.calls"] == 1
    assert metrics["tensor.adam_step.calls"] == 2  # 14 sentences in batches of 8
    assert metrics["tensor.adam_step.params"] == model.count_params(m)
    assert metrics["tensor.matmul.gflop"] > 0
    assert 0.0 < metrics["quant.int8_matmul.fp32_share"] <= 1.0
    assert metrics["quant.quantize_with_outliers.outlier_vectors"] > 0

    ends = {sid: (start, end) for sid, _, _, start, end, *_ in tracer.spans}
    for sid, parent, _, start, end, self_s, _, _ in tracer.spans:
        assert 0.0 <= self_s <= end - start
        if parent:
            p_start, p_end = ends[parent]
            assert p_start <= start <= end <= p_end


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(unit) for unit in list(END_TO_END.values()) + list(PER_LAYER.values()))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m["better"] in ("lower", "higher") for key in ("end_to_end", "per_layer")
               for m in spec[key])


def _splits_key(splits):
    return [[(s.tokens, s.tags) for s in split] for split in splits]


def test_inputs_depend_only_on_the_seed():
    first, again, other = (workloads.desk_inputs(seed)[1] for seed in (3, 3, 4))
    assert _splits_key(first) == _splits_key(again) != _splits_key(other)
    first, again, other = (workloads.ref768_sentences(seed, 32) for seed in (3, 3, 4))
    assert _splits_key([first]) == _splits_key([again]) != _splits_key([other])
    assert {len(s.tokens) for s in first} == {workloads.REF_SEQ_TOKENS}
    assert np.array_equal(workloads.planted_dims(3, 768, 4), workloads.planted_dims(3, 768, 4))
    assert len(set(workloads.planted_dims(3, 768, 4))) == 4


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """The files a benchmark checkout holds: sources, benchmark, BENCHMARK.json."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=COPY_IGNORE)
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=COPY_IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-pipeline", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, units", [(0, END_TO_END), (1, PER_LAYER)])
def test_result_schema(checkout, trace, units):
    done = run_bench(checkout, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric == {"value": metric["value"], "unit": units[name]}
        assert isinstance(metric["value"], (int, float)) and np.isfinite(metric["value"])
    if trace:
        assert result["metrics"]["quant.int8_matmul.fp32_share"]["value"] == 0.0
        assert result["metrics"]["cli.run_cli.self_s"]["value"] > 0.0
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    record = json.loads((checkout / "perfbench" / "out" /
                         f"result-desk-pipeline-seed2-trace{trace}.json").read_text())
    assert {"workload", "seed", "cpu_model", "nproc", "python", "numpy", "blas",
            "git_commit", "source_sha256"} <= set(record["provenance"])
    assert not list((checkout / "perfbench" / "out").glob("work-*"))


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=COPY_IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
