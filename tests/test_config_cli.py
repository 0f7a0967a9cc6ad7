import ast
import csv
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sdcw import cli, config, data, distill, evaluation, model, persist, quant
from sdcw.errors import ConfigError, DataError, ParameterError, WorkbenchError

from oracles import untrimmed_desk_path


# ---------------------------------------------------------------------------
# config parsing

def test_defaults_mirror_published_recipe():
    cfg = config.parse_config("")
    assert cfg.learning_rate == 5e-5
    assert cfg.batch_size == 16
    assert cfg.max_seq_len == 164
    assert cfg.epochs == 50
    assert cfg.seeds == (1, 3, 5)


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as exc:
        config.parse_config("epochs=3\nwarp_speed=9\n", source="exp.cfg")
    assert "warp_speed" in str(exc.value) and "exp.cfg:2" in str(exc.value)


def test_key_value_syntax_error_reports_line():
    with pytest.raises(ConfigError) as exc:
        config.parse_config("epochs 3\n")
    assert ":1" in str(exc.value)


def test_comments_and_blanks_ignored():
    cfg = config.parse_config("# a comment\n\nepochs=4  # trailing\n")
    assert cfg.epochs == 4


def test_preset_applies_before_explicit_keys():
    cfg = config.parse_config("epochs=3\npreset=desk\n")
    assert cfg.hidden_size == 64 and cfg.num_layers == 2
    assert cfg.epochs == 3  # explicit key wins regardless of line order


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("preset=galactic\n")


def test_reference_presets_set_accounting_dims():
    base = config.parse_config("preset=reference-base\n")
    large = config.parse_config("preset=reference-large\n")
    assert (base.num_layers, base.num_heads, base.hidden_size) == (8, 6, 768)
    assert large.num_layers == 10
    assert base.encoder_config().vocab_size == 70_000


@pytest.mark.parametrize("name, encoder, spec", [
    ("desk", model.desk_config(), model.desk_train_spec()),
    ("reference-base", model.reference_config("base"), model.TrainSpec()),
    ("reference-large", model.reference_config("large"), model.TrainSpec()),
])
def test_presets_equal_the_model_side_configs(name, encoder, spec):
    cfg = config.parse_config(f"preset={name}\n")
    assert cfg.encoder_config() == encoder
    assert cfg.train_spec() == spec


def test_student_grid_defaults_to_one_l4_a4_cell():
    cfg = config.parse_config("")
    assert (cfg.student_layers, cfg.student_heads) == ((4,), (4,))


def _attributes_read(tree: ast.AST, owner: str) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == owner}


def test_every_config_key_is_read_by_the_cli_or_the_config():
    """A key that nothing reads selects nothing: static guard against dead keys."""
    def parsed(module) -> ast.Module:
        return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))

    experiment = next(node for node in parsed(config).body
                      if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    read = _attributes_read(parsed(cli), "cfg") | _attributes_read(experiment, "self")
    keys = {f.name for f in dataclasses.fields(config.ExperimentConfig)}
    assert keys - read == set()


# public functions kept although neither the program nor the benchmark calls them
CALLED_ONLY_BY_TESTS = {
    "sparsity_sweep_counts": "acceptance criterion 1 checks the published sparsity sweep with it",
    "strip_timing": "acceptance criterion 9 compares replayed reports through it",
    "count_params_config": "the published-size and compression-band tests count from configs",
    "mul": "acceptance criterion 6 builds its weighted losses from it",
    "tsum": "acceptance criterion 6 builds its weighted losses from it",
    "QuantizedTensor.dequant": "acceptance criterion 3 bounds the int8 round-trip error with it",
}


def _program_files() -> list[Path]:
    """sdcw's modules, then the benchmark's (`perfbench/*.py`, its tests aside)."""
    src = Path(cli.__file__).parent
    return sorted(src.glob("*.py")) + sorted((src.parents[1] / "perfbench").glob("*.py"))


def _is_sdcw(path: Path) -> bool:
    return path.parent == Path(cli.__file__).parent


def _public_callables(tree: ast.Module):
    """(name, qualified name, def) of every public module-level function and
    public method of a public class; a class's `__init__` is named by the
    class, and a dataclass without one gets its class node as the def."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods = [fn for fn in node.body if isinstance(fn, ast.FunctionDef)]
            if not any(fn.name == "__init__" for fn in methods) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                yield node.name, node.name, node
            for fn in methods:
                if fn.name == "__init__":
                    yield node.name, node.name, fn
                elif not fn.name.startswith("_"):
                    yield fn.name, f"{node.name}.{fn.name}", fn


def test_every_public_function_is_used_by_the_program_or_the_benchmark():
    """A public module-level function of sdcw, or a public method of an sdcw
    class, whose name appears nowhere in `src/` or in the benchmark's modules
    other than in its own definition is library code only tests call:
    static guard against dead code."""
    public, used = {}, set()
    for path in _program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node id -> the public callable it lies in
        for name, qualified, fn in _public_callables(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name != "__init__":
                if _is_sdcw(path):
                    public[qualified] = path.name
                owner.update((id(node), name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None and owner.get(id(node)) != name:
                used.add(name)
    assert set(CALLED_ONLY_BY_TESTS) <= set(public)
    dead = {name: module for name, module in public.items()
            if name.rsplit(".", 1)[-1] not in used and name not in CALLED_ONLY_BY_TESTS}
    assert dead == {}


# defaulted parameters kept although no call of the program or the benchmark sets them
SET_ONLY_BY_TESTS = {
    "truncated_normal(clip_sigmas=)":
        "the redraw test narrows the bound to force many redraw rounds",
}


def _signature(fn: ast.FunctionDef | ast.ClassDef):
    """(positional parameters, defaulted parameters, names taken by keyword)
    of a callable as its callers see it: a method without its `self`, a
    dataclass as its `__init__` (the annotated fields `__init__` takes, in
    order). `*args` and `**kwargs` count as defaulted, named with their stars."""
    if isinstance(fn, ast.ClassDef):
        fields = [(node.target.id, node.value is not None) for node in fn.body
                  if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                  and "init=False" not in ast.unparse(node)]
        names = [name for name, _ in fields]
        return names, {name for name, has_default in fields if has_default}, set(names)
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults):])
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    if args.vararg:
        defaulted.add("*" + args.vararg.arg)
    if args.kwarg:
        defaulted.add("**" + args.kwarg.arg)
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    return positional, defaulted, set(positional) | {a.arg for a in args.kwonlyargs}


def _parameters_set(call: ast.Call, positional: list[str], defaulted: set[str],
                    keywords: set[str]) -> set[str]:
    """The defaulted parameters a call passes, by position, by keyword, or
    through a `*` or `**` argument (which may fill any of them)."""
    varargs = {p for p in defaulted if p.startswith("*") and not p.startswith("**")}
    varkw = {p for p in defaulted if p.startswith("**")}
    out = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return set(defaulted)
        out |= {positional[i]} if i < len(positional) else varargs
    for kw in call.keywords:
        if kw.arg is None:
            return set(defaulted)
        out |= {kw.arg} if kw.arg in keywords else varkw
    return out & defaulted


def _knob(qualified: str, param: str) -> str:
    return f"{qualified}({param})" if param.startswith("*") else f"{qualified}({param}=)"


def test_every_defaulted_parameter_is_set_by_the_program_or_the_benchmark():
    """A defaulted parameter of a public sdcw function or method (a
    dataclass field included) that no call in `src/` or `perfbench/*.py`
    passes is a knob only tests turn: static guard against dead options.
    Calls are matched by the called name, through `from .x import y as z`
    aliases; calling a class calls its `__init__`. A dataclass field is also
    set by an assignment to an attribute of its name, other than `self.<name>`."""
    trees = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in _program_files()]
    signatures: dict[str, list] = {}  # called name -> [(qualified name, signature)]
    fields: dict[str, set[str]] = {}  # field name -> the dataclasses that have it
    for path, tree in trees:
        for name, qualified, fn in _public_callables(tree) if _is_sdcw(path) else ():
            if qualified not in CALLED_ONLY_BY_TESTS:
                signatures.setdefault(name, []).append((qualified, _signature(fn)))
            if isinstance(fn, ast.ClassDef):
                for field in _signature(fn)[0]:
                    fields.setdefault(field, set()).add(qualified)
    # its fields are the config keys: `parse_config` sets them through
    # `dataclasses.replace`, and the config-key guard above checks each is read
    del signatures["ExperimentConfig"]
    defaulted = {_knob(q, p) for named in signatures.values() for q, (_, params, _) in named
                 for p in params}
    passed = set()
    for _, tree in trees:
        aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for a in node.names if a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (aliases.get(func.id, func.id) if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                passed |= {_knob(q, p) for q, signature in signatures.get(name, ())
                           for p in _parameters_set(node, *signature)}
            elif isinstance(node, ast.Assign):
                passed |= {_knob(q, target.attr) for target in node.targets
                           if isinstance(target, ast.Attribute)
                           and not (isinstance(target.value, ast.Name) and target.value.id == "self")
                           for q in fields.get(target.attr, ())}
    assert set(SET_ONLY_BY_TESTS) <= defaulted
    assert sorted(defaulted - passed - set(SET_ONLY_BY_TESTS)) == []


def test_both_kernels_define_exactly_the_ops_the_encoder_calls():
    """`model.TapeKernel` and `quant.Int8Kernel` expose one set of public op
    names, and it is the set of `ops.<name>` that `model.embed`,
    `apply_layer` and `forward` call: static guard against an op one kernel
    lacks, and against an op nothing calls."""
    def ops_of(cls) -> set[str]:
        return {name for name in vars(cls) if not name.startswith("_")}

    tree = ast.parse(Path(model.__file__).read_text(encoding="utf-8"))
    called = {node.attr for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name in ("embed", "apply_layer", "forward")
              for node in ast.walk(fn)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "ops"}
    assert ops_of(model.TapeKernel) == ops_of(quant.Int8Kernel) == called


def test_both_handles_have_one_shape():
    """`model.EncoderModel` and `quant.QuantizedModel` both hold `config` and
    `params` and give their ops through a `kernel(dropout_rng)` of one
    signature: the shape `model.forward`, `persist` and `evaluation` read."""
    kernels = []
    for cls in (model.EncoderModel, quant.QuantizedModel):
        assert {"config", "params"} <= {f.name for f in dataclasses.fields(cls)}, cls
        kernels.append(list(inspect.signature(cls.kernel).parameters.values()))
    assert [p.name for p in kernels[0]] == ["self", "dropout_rng"]
    assert kernels[0] == kernels[1]


def test_one_function_of_the_program_reads_the_clock():
    """`evaluation.measure_inference_time` is the only function in sdcw that
    reads `time`: static guard against a second timer."""
    readers = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "time"], path.name
        clocks = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.Import) for alias in node.names if alias.name == "time"}
        readers |= {f"{path.stem}.{getattr(top, 'name', '<module>')}" for top in tree.body
                    for node in ast.walk(top) if isinstance(node, ast.Name) and node.id in clocks}
    assert readers == {"evaluation.measure_inference_time"}


def test_no_module_of_the_program_imports_scipy():
    """sdcw runs on numpy alone (scipy is a test dependency): importing
    scipy.special would add ~20 MB to every sdcw process."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [m for m in modules if m.split(".")[0] == "scipy"], path.name


def test_only_the_file_format_names_int8():
    """An int8 weight is held once, as the float32 integers the GEMMs read;
    int8 is the dtype of the file alone, so only `persist` names it."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "int8"]
        assert path.name == "persist.py" or not named, (path.name, named)


def test_seed_and_type_lists_parse():
    cfg = config.parse_config("seeds=7,8\nentity_types=PER,LOC\nstudent_layers=1,2\n")
    assert cfg.seeds == (7, 8)
    assert cfg.entity_types == ("PER", "LOC")
    assert cfg.encoder_config().num_classes == 5


def test_sparsity_range_validated_by_name():
    with pytest.raises(ConfigError) as exc:
        config.parse_config("sparsity=1.5\n")
    assert "sparsity" in str(exc.value)


def test_schedule_strings():
    assert config.parse_schedule("before").kind == "before"
    assert config.parse_schedule("after").kind == "after"
    during = config.parse_schedule("during:1:4:6")
    assert (during.start_epoch, during.end_epoch, during.steps) == (1, 4, 6)
    with pytest.raises(ConfigError):
        config.parse_schedule("during:4")
    with pytest.raises(ConfigError):
        config.parse_schedule("never")


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("epochs=three\n")
    with pytest.raises(ConfigError):
        config.parse_config("student_layers=four\n")


# ---------------------------------------------------------------------------
# aggregation

def test_aggregate_identical_reports_zero_std():
    reports = [{"seed": s, "f1": 0.8, "loss": 0.1} for s in (1, 3, 5)]
    agg = cli.aggregate_runs(reports, (1, 3, 5))
    assert agg["mean"]["f1"] == pytest.approx(0.8)
    assert agg["std"]["f1"] == 0.0
    assert agg["flags"] == []


def test_aggregate_hand_computed_population_std():
    reports = [{"seed": s, "f1": f} for s, f in zip((1, 3, 5), (0.70, 0.72, 0.74))]
    agg = cli.aggregate_runs(reports, (1, 3, 5))
    assert agg["mean"]["f1"] == pytest.approx(0.72)
    assert agg["std"]["f1"] == pytest.approx(0.016329, abs=1e-5)
    assert agg["flags"] == []


def test_aggregate_flags_unstable_f1():
    reports = [{"seed": s, "f1": f} for s, f in zip((1, 3), (0.60, 0.90))]
    agg = cli.aggregate_runs(reports, (1, 3))
    assert "unstable_f1" in agg["flags"]


def test_aggregate_single_seed_warns():
    agg = cli.aggregate_runs([{"seed": 1, "f1": 0.9}], (1,))
    assert agg["std"]["f1"] == 0.0
    assert "single_seed" in agg["flags"]


def test_aggregate_gives_each_quantized_mode_and_student_cell_a_mean_and_std():
    def quantize(seed, f1, sizes):
        return {"seed": seed, "subcommand": "quantize", "f1": 0.9, "modes": {
            mode: {"report": {"f1": f, "model_bytes": n}, "model_bytes": n,
                   "model_path": f"quantized_{mode}_seed{seed}.sdcw"}
            for mode, f, n in zip(("dynamic", "mixed"), f1, sizes)}}

    agg = cli.aggregate_runs([quantize(1, (0.8, 0.6), (100, 50)),
                              quantize(3, (0.9, 0.6), (100, 70))], (1, 3))
    assert agg["mean"]["f1"] == 0.9  # the baseline's
    assert agg["mean"]["modes.dynamic.f1"] == pytest.approx(0.85)
    assert agg["std"]["modes.dynamic.f1"] == pytest.approx(0.05)
    assert (agg["mean"]["modes.mixed.f1"], agg["std"]["modes.mixed.f1"]) == (0.6, 0.0)
    assert (agg["mean"]["modes.mixed.model_bytes"], agg["std"]["modes.mixed.model_bytes"]) \
        == (60.0, 10.0)

    def distill(seed, f1):
        return {"seed": seed, "subcommand": "distill", "mode": "task_specific", "f1": max(f1),
                "cells": [
            {"artifact": name, "f1": f, "model_bytes": 1000 + i}
            for i, (name, f) in enumerate(zip(("L1_A1", "L1_A2"), f1))]}

    agg = cli.aggregate_runs([distill(1, (0.5, 0.7)), distill(3, (0.7, 0.7))], (1, 3))
    assert agg["mean"]["cells.L1_A1.f1"] == pytest.approx(0.6)
    assert agg["std"]["cells.L1_A1.f1"] == pytest.approx(0.1)
    assert agg["mean"]["cells.L1_A2.model_bytes"] == 1001.0
    assert agg["std"]["cells.L1_A2.f1"] == 0.0


def test_aggregate_missing_seed_errors():
    with pytest.raises(DataError) as exc:
        cli.aggregate_runs([{"seed": 1, "f1": 0.9}], (1, 3))
    assert "3" in str(exc.value)


def test_strip_timing_removes_wall_clock_fields():
    payload = {"f1": 0.9, "median_ms": 12.0,
               "nested": [{"iqr_ms": 3.0, "loss": 0.1}]}
    stripped = cli.strip_timing(payload)
    assert stripped == {"f1": 0.9, "nested": [{"loss": 0.1}]}


# ---------------------------------------------------------------------------
# CLI workflows (desk scale, shortened schedules)

def _write_cfg(path: Path, body: str) -> str:
    path.write_text(body, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth-data -> finetune once; later commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    base = f"preset=desk\nseeds=1\ndataset={data_dir}\nn_sentences=240\n"
    cfg = _write_cfg(root / "synth.cfg", base + f"out_dir={data_dir}\n")
    assert cli.run_cli(["synth-data", cfg]) == 0
    ft_dir = root / "ft"
    cfg = _write_cfg(root / "ft.cfg", base + f"out_dir={ft_dir}\nepochs=6\n")
    assert cli.run_cli(["finetune", cfg]) == 0
    return root, data_dir, ft_dir, base


def test_synth_data_writes_splits(workspace):
    root, data_dir, _, _ = workspace
    train = data.load_conll(data_dir / "train.conll")
    dev = data.load_conll(data_dir / "dev.conll")
    test = data.load_conll(data_dir / "test.conll")
    assert len(train) == 168 and len(dev) == 24 and len(test) == 48
    assert (data_dir / "corpus.txt").exists()


def test_finetune_reports_and_model(workspace):
    root, _, ft_dir, _ = workspace
    per_seed = json.loads((ft_dir / "finetune_desk_seed1.json").read_text())
    assert per_seed["seed"] == 1 and 0 <= per_seed["f1"] <= 1
    assert len(per_seed["loss_trace"]) == 6
    agg = json.loads((ft_dir / "finetune_desk_agg.json").read_text())
    assert "single_seed" in agg["flags"]
    model_path = ft_dir / "finetune_seed1.sdcw"
    assert model_path.exists() and Path(str(model_path) + ".vocab").exists()


def test_cli_exit_2_on_bad_sparsity(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    cfg = _write_cfg(tmp_path / "bad.cfg", base + f"out_dir={tmp_path}\nsparsity=1.5\n")
    assert cli.run_cli(["prune", cfg]) == 2


def test_cli_exit_2_on_unknown_key(tmp_path):
    cfg = _write_cfg(tmp_path / "bad.cfg", "nonsense_key=1\n")
    assert cli.run_cli(["eval", cfg]) == 2


def test_cli_exit_1_on_missing_model(tmp_path):
    cfg = _write_cfg(tmp_path / "m.cfg",
                     f"preset=desk\nseeds=1\ndataset={tmp_path}\nout_dir={tmp_path}\n"
                     f"model_in={tmp_path}/ghost.sdcw\n")
    (tmp_path / "test.conll").write_text("Kwame B-PER\n\n", encoding="utf-8")
    assert cli.run_cli(["eval", str(cfg)]) == 1


def test_prune_cli_before_schedule(workspace, tmp_path):
    root, data_dir, _, base = workspace
    out = tmp_path / "prune"
    cfg = _write_cfg(tmp_path / "p.cfg",
                     base + f"out_dir={out}\nepochs=4\nsparsity=0.5\nschedule=before\n")
    assert cli.run_cli(["prune", cfg]) == 0
    rep = json.loads((out / "prune_desk_p0.50-before_seed1.json").read_text())
    assert rep["prune_rate"] == 0.5
    assert rep["pruned_params"] > 0
    assert rep["sparsity_ramp"] == []
    model_path = out / "pruned_p0.50_before_seed1.sdcw"
    handle, mask = persist.load_model(model_path)
    assert mask is not None and mask.zeros() == rep["pruned_params"]


def test_quantize_cli_both_modes(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    out = tmp_path / "quant"
    cfg = _write_cfg(tmp_path / "q.cfg",
                     base + f"out_dir={out}\nmodel_in={ft_dir}/finetune_seed{{seed}}.sdcw\n")
    assert cli.run_cli(["quantize", cfg]) == 0
    rep = json.loads((out / "quantize_desk_both_seed1.json").read_text())
    assert set(rep["modes"]) == {"dynamic", "mixed"}
    for mode in ("dynamic", "mixed"):
        delta = rep["modes"][mode]["delta"]
        assert delta["size_reduction_pct"] > 0
        assert (out / f"quantized_{mode}_seed1.sdcw").exists()
    handle, _ = persist.load_model(out / "quantized_mixed_seed1.sdcw")
    assert handle.mode == "int8_mixed"
    agg = json.loads((out / "quantize_desk_both_agg.json").read_text())
    for mode in ("dynamic", "mixed"):
        for key in ("f1", "model_bytes"):
            assert agg["mean"][f"modes.{mode}.{key}"] == rep["modes"][mode]["report"][key]
            assert agg["std"][f"modes.{mode}.{key}"] == 0.0


@pytest.mark.parametrize("sub, key, value", [("pretrain", "mlm_mask_rate", "0"),
                                             ("pretrain", "mlm_mask_rate", "1.5"),
                                             ("distill", "alpha_soft", "1.5"),
                                             ("distill", "alpha_soft", "-0.1")])
def test_loss_weight_and_mask_rate_out_of_range_fail_before_any_work(workspace, tmp_path,
                                                                     monkeypatch, capsys,
                                                                     sub, key, value):
    root, data_dir, ft_dir, base = workspace
    loaded = []
    monkeypatch.setattr(cli, "load_model", lambda path: loaded.append(path))
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "c.cfg",
                     base + f"out_dir={out}\nepochs=1\ncorpus={data_dir}/corpus.txt\n"
                     f"mode=task_specific\nteacher={ft_dir}/finetune_seed{{seed}}.sdcw\n")
    assert cli.run_cli([sub, cfg, "--set", f"{key}={value}"]) == 2
    assert f"'{key}' must be in" in capsys.readouterr().err
    assert loaded == [] and not out.exists()


def test_eval_cli_on_quantized_file(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    qout = tmp_path / "q2"
    cfg = _write_cfg(tmp_path / "q2.cfg",
                     base + f"out_dir={qout}\nquant_mode=dynamic\n"
                     f"model_in={ft_dir}/finetune_seed{{seed}}.sdcw\n")
    assert cli.run_cli(["quantize", cfg]) == 0
    eout = tmp_path / "eval"
    cfg = _write_cfg(tmp_path / "e.cfg",
                     base + f"out_dir={eout}\nmodel_in={qout}/quantized_dynamic_seed{{seed}}.sdcw\n")
    assert cli.run_cli(["eval", cfg]) == 0
    rep = json.loads((eout / "eval_desk_seed1.json").read_text())
    assert rep["mode"] == "dynamic_int8"


def test_quantize_report_matches_eval_of_saved_file(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    qout = tmp_path / "q3"
    cfg = _write_cfg(tmp_path / "q3.cfg",
                     base + f"out_dir={qout}\nmodel_in={ft_dir}/finetune_seed{{seed}}.sdcw\n")
    assert cli.run_cli(["quantize", cfg]) == 0
    modes = json.loads((qout / "quantize_desk_both_seed1.json").read_text())["modes"]
    for mode in ("dynamic", "mixed"):
        eout = tmp_path / f"eval_{mode}"
        cfg = _write_cfg(tmp_path / f"e_{mode}.cfg",
                         base + f"out_dir={eout}\nmodel_in={qout}/{modes[mode]['model_path']}\n")
        assert cli.run_cli(["eval", cfg]) == 0
        evaluated = json.loads((eout / "eval_desk_seed1.json").read_text())
        reported = modes[mode]["report"]
        assert (reported["f1"], reported["loss"]) == (evaluated["f1"], evaluated["loss"]), mode


def test_distill_cli_task_specific(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    out = tmp_path / "kd"
    cfg = _write_cfg(tmp_path / "kd.cfg",
                     base + f"out_dir={out}\nepochs=3\nmode=task_specific\n"
                     f"teacher={ft_dir}/finetune_seed{{seed}}.sdcw\n"
                     f"student_layers=1\nstudent_heads=2\n")
    assert cli.run_cli(["distill", cfg]) == 0
    rep = json.loads((out / "distill_desk_task_specific-T8_seed1.json").read_text())
    cell = rep["cells"][0]
    assert cell["temperature"] == 8.0
    assert cell["params"] < cell["teacher_params"]
    assert (out / cell["model_path"]).exists()


def test_distill_report_gives_a_row_per_student_file(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    out = tmp_path / "kd"
    cfg = _write_cfg(tmp_path / "kd.cfg",
                     base + f"out_dir={out}\nepochs=1\nmode=task_specific\n"
                     f"teacher={ft_dir}/finetune_seed{{seed}}.sdcw\n"
                     f"student_layers=1\nstudent_heads=1,2\n")
    assert cli.run_cli(["distill", cfg]) == 0
    cells = json.loads((out / "distill_desk_task_specific-T8_seed1.json").read_text())["cells"]
    assert len(cells) == 2
    agg = json.loads((out / "distill_desk_task_specific-T8_agg.json").read_text())
    rep = tmp_path / "rep"
    cfg = _write_cfg(tmp_path / "rep.cfg", f"dataset={out}\nout_dir={rep}\n")
    assert cli.run_cli(["report", cfg]) == 0
    with open(rep / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cells)
    for row, cell in zip(rows, cells):
        assert (row["subcommand"], row["mode"], row["seed"]) == ("distill", "task_specific", "1")
        assert (row["f1"], row["model_path"]) == (str(cell["f1"]), cell["model_path"])
        assert row["dataset"] == cell["dataset_id"] != ""
        assert int(row["model_bytes"]) == (out / row["model_path"]).stat().st_size
        for key in ("f1", "model_bytes"):
            assert agg["mean"][f"cells.{cell['artifact']}.{key}"] == cell[key]


def test_transfer_cli_finetunes_loaded_model(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    new_data = tmp_path / "newdata"
    cfg = _write_cfg(tmp_path / "nd.cfg",
                     f"preset=desk\nseeds=9\nn_sentences=60\nout_dir={new_data}\ndataset={new_data}\n")
    assert cli.run_cli(["synth-data", cfg]) == 0
    out = tmp_path / "transfer"
    cfg = _write_cfg(tmp_path / "t.cfg",
                     f"preset=desk\nseeds=1\ndataset={new_data}\nout_dir={out}\nepochs=2\n"
                     f"model_in={ft_dir}/finetune_seed{{seed}}.sdcw\n")
    assert cli.run_cli(["transfer", cfg]) == 0
    rep = json.loads((out / "transfer_desk_seed1.json").read_text())
    assert rep["subcommand"] == "transfer"
    assert len(rep["loss_trace"]) == 2


def test_bench_cli_writes_a_report_per_seed_and_no_model_file(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    out = tmp_path / "bench"
    cfg = _write_cfg(tmp_path / "b.cfg",
                     base + f"out_dir={out}\nreps=3\n"
                     f"model_in={ft_dir}/finetune_seed{{seed}}.sdcw\n")
    assert cli.run_cli(["bench", cfg]) == 0
    assert sorted(f.name for f in out.iterdir()) == ["bench_desk_agg.json", "bench_desk_seed1.json"]
    rep = json.loads((out / "bench_desk_seed1.json").read_text())
    assert set(evaluation.TIMING_FIELDS) <= set(rep)  # no stale wall-clock field
    assert (rep["subcommand"], rep["seed"], rep["dataset_id"]) == ("bench", 1, "data")


@pytest.fixture(scope="module")
def desk_files(workspace, tmp_path_factory):
    """The four kinds of model file at seed 1, each with its vocabulary: the
    workspace model (fp32), a model pruned after training at p 0.5, and the
    dynamic and mixed quantizations of the workspace model."""
    root, data_dir, ft_dir, base = workspace
    out = tmp_path_factory.mktemp("desk-files")
    for sub, keys in (("prune", "epochs=1\nsparsity=0.5\nschedule=after\n"),
                      ("quantize", f"model_in={ft_dir}/finetune_seed{{seed}}.sdcw\n")):
        cfg = _write_cfg(out / f"{sub}.cfg", base + f"out_dir={out}\n" + keys)
        assert cli.run_cli([sub, cfg]) == 0, sub
    return {"fp32": ft_dir / "finetune_seed1.sdcw", "pruned": out / "pruned_p0.50_after_seed1.sdcw",
            "dynamic": out / "quantized_dynamic_seed1.sdcw",
            "mixed": out / "quantized_mixed_seed1.sdcw"}


# the mode a bench report gives for each kind of file
BENCH_MODES = {"fp32": "fp32", "pruned": "fp32", "dynamic": "dynamic_int8", "mixed": "int8_mixed"}


def _bench(workspace, tmp_path, keys: str, model_in: Path) -> tuple[int, Path]:
    """`sdcw bench` of the file `model_in` over 32 test sentences (two
    batches at the desk batch size of 16), into an `out_dir` of its own."""
    root, data_dir, _, _ = workspace
    bench_data = tmp_path / "bench_data"
    if not bench_data.exists():
        bench_data.mkdir()
        data.write_conll(data.load_conll(data_dir / "test.conll")[:32], bench_data / "test.conll")
    out = tmp_path / f"bench_{model_in.stem}"
    cfg = _write_cfg(tmp_path / "b.cfg",
                     f"preset=desk\nseeds=1\ndataset={bench_data}\nout_dir={out}\n"
                     f"model_in={model_in}\n" + keys)
    return cli.run_cli(["bench", cfg]), out


def test_bench_reports_all_three_modes(workspace, desk_files, tmp_path):
    modes = set()
    for kind, path in desk_files.items():
        rc, out = _bench(workspace, tmp_path, "reps=3\n", path)
        assert rc == 0, kind
        stats = json.loads((out / "bench_desk_seed1.json").read_text())
        assert stats["mode"] == BENCH_MODES[kind]
        assert stats["reps"] == 3
        assert stats["n_batches"] == 2
        assert stats["median_ms"] > 0
        assert stats["iqr_ms"] > 0  # repeated wall-clock reps never tie exactly
        modes.add(stats["mode"])
    assert modes == {"fp32", "dynamic_int8", "int8_mixed"}


def test_bench_rejects_too_few_reps(workspace, tmp_path):
    root, data_dir, ft_dir, _ = workspace
    rc, out = _bench(workspace, tmp_path, "reps=2\n", ft_dir / "finetune_seed1.sdcw")
    assert rc == 2
    assert not out.exists()
    fp32, _ = persist.load_model(ft_dir / "finetune_seed1.sdcw")
    vocab = data.Vocabulary.load(ft_dir / "finetune_seed1.sdcw.vocab")
    test = data.load_conll(data_dir / "test.conll")[:8]
    for handle in (fp32, quant.quantize_model_dynamic(fp32), quant.quantize_model_int8_mixed(fp32)):
        with pytest.raises(ParameterError):
            evaluation.measure_inference_time(handle, test, vocab, reps=2)


def test_bench_runs_warmup_passes_before_the_timed_reps(workspace, desk_files, tmp_path,
                                                        monkeypatch):
    calls = Counter()
    original = evaluation.forward_logits

    def counted(handle, token_ids, attention_mask):
        calls[evaluation.handle_mode(handle)] += 1
        return original(handle, token_ids, attention_mask)

    monkeypatch.setattr(evaluation, "forward_logits", counted)
    for kind, path in desk_files.items():
        calls.clear()
        rc, out = _bench(workspace, tmp_path, "reps=3\nwarmup=2\n", path)
        assert rc == 0, kind
        # (2 warmup + 3 timed passes) x 2 batches, all of the file's handle
        assert calls == {BENCH_MODES[kind]: 10}, kind
        stats = json.loads((out / "bench_desk_seed1.json").read_text())
        assert (stats["warmup"], stats["reps"]) == (2, 3)


def test_bench_times_the_handles_its_saved_files_give(workspace, desk_files, tmp_path,
                                                      monkeypatch):
    """bench quantizes nothing: it times the handle `load_model` gives for
    its `model_in`, in any of the four kinds, and reports that file."""
    loaded, timed = [], []
    original = evaluation.forward_logits

    def load(path):
        handle, mask = persist.load_model(path)
        loaded.append(handle)
        return handle, mask

    def recorded(handle, token_ids, attention_mask):
        timed.append(handle)
        return original(handle, token_ids, attention_mask)

    monkeypatch.setattr(cli, "load_model", load)
    monkeypatch.setattr(evaluation, "forward_logits", recorded)
    for kind, path in desk_files.items():
        loaded.clear()
        timed.clear()
        rc, out = _bench(workspace, tmp_path, "reps=3\n", path)
        assert rc == 0, kind
        assert len(loaded) == 1 and timed and all(handle is loaded[0] for handle in timed), kind
        stats = json.loads((out / "bench_desk_seed1.json").read_text())
        assert (stats["mode"], stats["model_path"], stats["model_bytes"]) \
            == (BENCH_MODES[kind], path.name, path.stat().st_size), kind
        assert not list(out.glob("*.sdcw")) and not list(out.glob("*.csv")), kind


def _grown_dataset(data_dir: Path, tmp_path: Path) -> tuple[Path, int]:
    """A copy of the desk train and test splits whose train split has three
    more words, and the size of the vocabulary built from that train split."""
    grown = tmp_path / "grown"
    grown.mkdir()
    train = data.load_conll(data_dir / "train.conll")
    train.append(data.Sentence(["00a", "00b", "00c"], ["O", "O", "O"]))
    data.write_conll(train, grown / "train.conll")
    data.write_conll(data.load_conll(data_dir / "test.conll"), grown / "test.conll")
    return grown, data.build_vocab(data.corpus_token_lists(train), 2000).size


@pytest.mark.parametrize("sub", ["eval", "bench"])
def test_a_vocabulary_past_the_token_table_fails_before_measuring(workspace, tmp_path,
                                                                  monkeypatch, capsys, sub):
    """A `model_in` without its vocabulary sidecar, whose token table is
    shorter than the vocabulary rebuilt from the train split, fails naming
    both sizes before a forward pass is run or a report written."""
    root, data_dir, ft_dir, base = workspace
    model_in = tmp_path / "bare_seed1.sdcw"
    model_in.write_bytes((ft_dir / "finetune_seed1.sdcw").read_bytes())
    rows = persist.load_model(model_in)[0].config.vocab_size
    grown, size = _grown_dataset(data_dir, tmp_path)
    assert size > rows
    passes = []
    monkeypatch.setattr(evaluation, "forward_logits", lambda *args: passes.append(args))
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "v.cfg", base + f"dataset={grown}\nout_dir={out}\nreps=3\n"
                     f"model_in={tmp_path}/bare_seed{{seed}}.sdcw\n")
    assert cli.run_cli([sub, cfg]) == 1
    err = capsys.readouterr().err
    assert f"{size} tokens" in err and f"{rows} rows" in err
    assert passes == []
    assert not list(out.glob("*.json"))


def test_report_cli_regenerates_sweep_csv(workspace, tmp_path):
    root, data_dir, _, base = workspace
    out = tmp_path / "runs"
    for p in (0.1, 0.5):
        cfg = _write_cfg(tmp_path / f"p{p}.cfg",
                         base + f"out_dir={out}\nepochs=2\nsparsity={p}\nschedule=after\n")
        assert cli.run_cli(["prune", cfg]) == 0
    cfg = _write_cfg(tmp_path / "rep.cfg", f"dataset={out}\nout_dir={out}\n")
    assert cli.run_cli(["report", cfg]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].split(",")[:6] == ["prune_rate", "dataset", "loss",
                                       "precision", "recall", "f1"]
    rates = [l.split(",")[0] for l in lines[1:] if l.split(",")[0]]
    assert rates == sorted(rates)
    assert {"0.1", "0.5"} <= set(rates)


def test_prune_then_quantize_keeps_the_mask_and_report_gives_a_row_per_file(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    out = tmp_path / "prune"
    cfg = _write_cfg(tmp_path / "p.cfg",
                     base + f"out_dir={out}\nepochs=2\nsparsity=0.9\nschedule=after\n")
    assert cli.run_cli(["prune", cfg]) == 0
    pruned = json.loads((out / "prune_desk_p0.90-after_seed1.json").read_text())
    quantized = {}
    for tag, model_in in (("dense", ft_dir / "finetune_seed1.sdcw"),
                          ("pruned", out / pruned["model_path"])):
        qout = tmp_path / f"q_{tag}"
        cfg = _write_cfg(tmp_path / f"q_{tag}.cfg", base + f"out_dir={qout}\nmodel_in={model_in}\n")
        assert cli.run_cli(["quantize", cfg]) == 0
        quantized[tag] = json.loads((qout / "quantize_desk_both_seed1.json").read_text())["modes"]
    for mode in ("dynamic", "mixed"):
        dense, kept = quantized["dense"][mode], quantized["pruned"][mode]
        assert kept["model_bytes"] < dense["model_bytes"], mode
        assert kept["report"]["sparsity"] == pruned["sparsity"] == pytest.approx(0.9, abs=1e-5)
        assert dense["report"]["sparsity"] == 0.0
        _, mask = persist.load_model(tmp_path / "q_pruned" / kept["model_path"])
        assert mask.zeros() == pruned["pruned_params"]

    rep = tmp_path / "rep"
    cfg = _write_cfg(tmp_path / "rep.cfg", f"dataset={tmp_path / 'q_pruned'}\nout_dir={rep}\n")
    assert cli.run_cli(["report", cfg]) == 0
    with open(rep / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["subcommand"] for r in rows] == ["quantize", "quantize"]
    for row, entry in zip(rows, quantized["pruned"].values()):
        assert (row["f1"], row["mode"]) == (str(entry["report"]["f1"]), entry["report"]["mode"])
        assert row["model_path"] == entry["model_path"]
        path = tmp_path / "q_pruned" / row["model_path"]
        assert int(row["model_bytes"]) == path.stat().st_size
        assert int(row["truncated_tokens"]) == entry["report"]["truncated_tokens"]


def test_pretrain_then_agnostic_distill_pipeline(workspace, tmp_path):
    root, data_dir, _, base = workspace
    pt_out = tmp_path / "pt"
    cfg = _write_cfg(tmp_path / "pt.cfg",
                     base + f"out_dir={pt_out}\nepochs=2\ncorpus={data_dir}/corpus.txt\n")
    assert cli.run_cli(["pretrain", cfg]) == 0
    pt_rep = json.loads((pt_out / "pretrain_desk_seed1.json").read_text())
    assert len(pt_rep["loss_trace"]) == 2
    teacher_path = pt_out / "pretrained_seed1.sdcw"
    assert teacher_path.exists() and Path(str(teacher_path) + ".vocab").exists()
    # the masked-LM softmax runs over every row: pretrain keeps the whole table
    rows = persist.load_model(teacher_path)[0].param("embeddings.token").shape[0]
    assert rows == 2000 > data.Vocabulary.load(str(teacher_path) + ".vocab").size

    kd_out = tmp_path / "kd-agn"
    cfg = _write_cfg(tmp_path / "kd2.cfg",
                     base + f"out_dir={kd_out}\nepochs=2\nmode=task_agnostic\n"
                     f"temperature=3\ncorpus={data_dir}/corpus.txt\n"
                     f"teacher={pt_out}/pretrained_seed{{seed}}.sdcw\n"
                     f"student_layers=1\nstudent_heads=2\n")
    assert cli.run_cli(["distill", cfg]) == 0
    rep = json.loads((kd_out / "distill_desk_task_agnostic-T3_seed1.json").read_text())
    cell = rep["cells"][0]
    assert cell["temperature"] == 3.0
    assert len(cell["kd_loss_trace"]) == 2 and len(cell["finetune_loss_trace"]) == 2


def test_prune_cli_during_schedule(workspace, tmp_path):
    root, data_dir, _, base = workspace
    out = tmp_path / "during"
    cfg = _write_cfg(tmp_path / "d.cfg",
                     base + f"out_dir={out}\nepochs=4\nsparsity=0.6\nschedule=during:0:4:4\n")
    assert cli.run_cli(["prune", cfg]) == 0
    rep = json.loads((out / "prune_desk_p0.60-during_seed1.json").read_text())
    assert rep["schedule"] == "during"
    handle, mask = persist.load_model(out / "pruned_p0.60_during_seed1.sdcw")
    from sdcw import prune as prune_mod
    total = sum(handle.param(n).size for n in prune_mod.prunable_names(handle))
    assert mask.zeros() == prune_mod.pruned_count(0.6, total)
    # one measured sparsity per ramp step, the last at the target
    ramp = rep["sparsity_ramp"]
    assert len(ramp) == 4 and ramp == sorted(ramp) and ramp[0] > 0
    assert ramp[-1] == mask.zeros() / total


def test_output_lock_blocks_concurrent_runs(tmp_path):
    with cli.output_lock(tmp_path):
        with pytest.raises(Exception) as exc:
            with cli.output_lock(tmp_path):
                pass
        assert "locked" in str(exc.value)
    with cli.output_lock(tmp_path):
        pass  # released after exit


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped, so its PID names no process
    return child.pid


def test_output_lock_takes_over_a_stale_lock(tmp_path):
    lock = tmp_path / ".lock"
    lock.write_text(str(_dead_pid()))
    with cli.output_lock(tmp_path):
        assert lock.read_text() == str(os.getpid())
    assert not lock.exists()


def test_output_lock_of_a_live_pid_still_blocks(tmp_path):
    lock = tmp_path / ".lock"
    lock.write_text(str(os.getpid()))
    with pytest.raises(WorkbenchError, match="locked"):
        with cli.output_lock(tmp_path):
            pass
    assert lock.read_text() == str(os.getpid())


def test_json_write_failing_mid_write_keeps_the_previous_file(tmp_path, fail_mid_write):
    report = tmp_path / "r.json"
    cli.write_json(report, {"f1": 0.5, "seed": 1})
    before = report.read_bytes()
    fail_mid_write(0)
    with pytest.raises(OSError):
        cli.write_json(report, {"f1": 0.9, "seed": 1})
    assert report.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["r.json"]


def test_synth_data_failing_mid_write_keeps_the_previous_corpus(tmp_path, fail_mid_write, monkeypatch):
    out = tmp_path / "data"
    cfg = _write_cfg(tmp_path / "s1.cfg", f"preset=desk\nseeds=1\nn_sentences=40\nout_dir={out}\n")
    assert cli.run_cli(["synth-data", cfg]) == 0
    before = (out / "corpus.txt").read_bytes()
    original = cli.synth_pretrain_corpus

    def arm_then_generate(*args):  # the CoNLL splits are written by now
        fail_mid_write(0)
        return original(*args)

    monkeypatch.setattr(cli, "synth_pretrain_corpus", arm_then_generate)
    cfg = _write_cfg(tmp_path / "s2.cfg", f"preset=desk\nseeds=2\nn_sentences=40\nout_dir={out}\n")
    assert cli.run_cli(["synth-data", cfg]) == 1
    assert (out / "corpus.txt").read_bytes() == before
    assert not [f for f in out.iterdir() if f.name.endswith(".tmp")]


def test_report_cli_failing_mid_write_keeps_the_previous_table(tmp_path, fail_mid_write):
    cli.write_json(tmp_path / "run_seed1.json", {"f1": 0.5, "seed": 1, "prune_rate": 0.1})
    cfg = _write_cfg(tmp_path / "rep.cfg", f"dataset={tmp_path}\nout_dir={tmp_path}\n")
    assert cli.run_cli(["report", cfg]) == 0
    before = (tmp_path / "report.csv").read_bytes()
    cli.write_json(tmp_path / "run_seed2.json", {"f1": 0.7, "seed": 2, "prune_rate": 0.5})
    fail_mid_write(1)  # the header row goes through, the first data row fails
    assert cli.run_cli(["report", cfg]) == 1
    assert (tmp_path / "report.csv").read_bytes() == before
    assert not [f for f in tmp_path.iterdir() if f.name.endswith(".tmp")]


REPLAYED = {  # subcommand -> (config keys, the report it writes for seed 1)
    "finetune": ("epochs=2\n", "finetune_desk_seed1.json"),
    "prune": ("epochs=3\nsparsity=0.3\nschedule=before\n", "prune_desk_p0.30-before_seed1.json"),
    "distill": ("epochs=1\nmode=task_specific\nteacher={ft}\nstudent_layers=1\nstudent_heads=2\n",
                "distill_desk_task_specific-T8_seed1.json"),
    "quantize": ("model_in={ft}\n", "quantize_desk_both_seed1.json"),
    "eval": ("model_in={ft}\n", "eval_desk_seed1.json"),
    "bench": ("model_in={ft}\nreps=3\n", "bench_desk_seed1.json"),
    # over the finetune, prune, distill and quantize runs above, made in its directory
    "report": ("dataset={out}\n", "report.csv"),
}


@pytest.mark.parametrize("sub", list(REPLAYED))
def test_replay_produces_byte_identical_reports(workspace, tmp_path, sub):
    root, data_dir, ft_dir, base = workspace

    def run(sub, out):
        keys, report = REPLAYED[sub]
        keys = keys.format(ft=ft_dir / "finetune_seed{seed}.sdcw", out=out)
        cfg = _write_cfg(tmp_path / "det.cfg", base + f"out_dir={out}\n" + keys)
        assert cli.run_cli([sub, cfg]) == 0, sub
        if report.endswith(".csv"):  # report.csv has no wall-clock column
            return (out / report).read_bytes()
        payload = json.loads((out / report).read_text())
        return json.dumps(cli.strip_timing(payload), sort_keys=True)

    def replay(out):
        if sub == "report":
            for made in ("finetune", "prune", "distill", "quantize"):
                run(made, out)
        return run(sub, out)

    assert replay(tmp_path / "r1") == replay(tmp_path / "r2")


@pytest.fixture(scope="module")
def kd_student(workspace, tmp_path_factory):
    """A task-specific 1-layer, 2-head student of the workspace model."""
    root, data_dir, ft_dir, base = workspace
    out = tmp_path_factory.mktemp("kd-student")
    cfg = _write_cfg(out / "kd.cfg",
                     base + f"out_dir={out}\nepochs=1\nmode=task_specific\n"
                     f"teacher={ft_dir}/finetune_seed{{seed}}.sdcw\n"
                     f"student_layers=1\nstudent_heads=2\n")
    assert cli.run_cli(["distill", cfg]) == 0
    report = json.loads((out / "distill_desk_task_specific-T8_seed1.json").read_text())
    return out, report


def _named_files(report, where: Path):
    """(file, model_bytes) of every dict in `report` that names a file in `where`."""
    if isinstance(report, dict):
        if "model_path" in report:
            yield where / report["model_path"], report["model_bytes"]
        report = list(report.values())
    if isinstance(report, list):
        for value in report:
            yield from _named_files(value, where)


def test_every_report_gives_the_size_of_the_file_it_names(workspace, kd_student, tmp_path):
    root, data_dir, ft_dir, base = workspace
    model_in = f"model_in={ft_dir}/finetune_seed{{seed}}.sdcw\n"
    reports = [(ft_dir, json.loads((ft_dir / "finetune_desk_seed1.json").read_text())),
               (kd_student[0], kd_student[1])]
    for sub, keys, name in (
            ("prune", "epochs=2\nsparsity=0.5\nschedule=after\n", "prune_desk_p0.50-after_seed1.json"),
            ("quantize", model_in, "quantize_desk_both_seed1.json")):
        out = tmp_path / sub
        assert cli.run_cli([sub, _write_cfg(tmp_path / f"{sub}.cfg",
                                            base + f"out_dir={out}\n" + keys)]) == 0
        reports.append((out, json.loads((out / name).read_text())))
    pruned = reports[2][0] / reports[2][1]["model_path"]
    out = tmp_path / "eval"
    cfg = _write_cfg(tmp_path / "eval.cfg", base + f"out_dir={out}\nmodel_in={pruned}\n")
    assert cli.run_cli(["eval", cfg]) == 0
    reports.append((pruned.parent, json.loads((out / "eval_desk_seed1.json").read_text())))

    named = [pair for where, rep in reports for pair in _named_files(rep, where)]
    assert len(named) == 6  # finetune, distill, prune, two quantize modes, eval
    for path, n_bytes in named:
        assert n_bytes == path.stat().st_size, path.name
    for mode in reports[3][1]["modes"].values():
        assert mode["report"]["model_bytes"] == mode["delta"]["compressed_bytes"] == mode["model_bytes"]


def test_every_measured_handle_is_one_a_file_gave(workspace, tmp_path, monkeypatch):
    root, data_dir, ft_dir, base = workspace
    loaded, measured = [], []

    def load(path):
        handle, mask = persist.load_model(path)
        loaded.append(handle)
        return handle, mask

    def recorded(measure):
        def run(handle, *args, **kwargs):
            measured.append(handle)
            return measure(handle, *args, **kwargs)
        return run

    monkeypatch.setattr(cli, "load_model", load)
    monkeypatch.setattr(cli, "evaluate", recorded(evaluation.evaluate))
    monkeypatch.setattr(cli, "measure_inference_time", recorded(evaluation.measure_inference_time))
    model_in = f"model_in={ft_dir}/finetune_seed{{seed}}.sdcw\n"
    for sub, keys in (("finetune", "epochs=1\n"),
                      ("prune", "epochs=1\nsparsity=0.5\nschedule=after\n"),
                      ("distill", f"epochs=1\nmode=task_specific\nteacher={ft_dir}/finetune_seed{{seed}}.sdcw\n"
                                  "student_layers=1\nstudent_heads=2\n"),
                      ("quantize", model_in), ("eval", model_in), ("bench", model_in + "reps=3\n")):
        cfg = _write_cfg(tmp_path / f"{sub}.cfg", base + f"out_dir={tmp_path / sub}\n" + keys)
        assert cli.run_cli([sub, cfg]) == 0, sub
    # finetune, prune, distill, eval, bench: 1 each; quantize: baseline + 2 modes
    assert len(measured) == 8
    assert all(any(handle is file_handle for file_handle in loaded) for handle in measured)


@pytest.mark.parametrize("sub", ["quantize", "bench"])
def test_quantized_model_in_rejected_before_it_is_measured(workspace, tmp_path, monkeypatch,
                                                          capsys, sub):
    """quantize refuses any quantized `model_in`. bench times one (see
    `test_bench_times_the_handles_its_saved_files_give`), but refuses it,
    as any `model_in`, when it has no vocabulary sidecar and the vocabulary
    rebuilt from the train split outgrows its token table."""
    root, data_dir, ft_dir, base = workspace
    fp32, _ = persist.load_model(ft_dir / "finetune_seed1.sdcw")
    persist.save_model(quant.quantize_model_dynamic(fp32), tmp_path / "q_seed1.sdcw")
    if sub == "quantize":
        data.Vocabulary.load(ft_dir / "finetune_seed1.sdcw.vocab").save(
            tmp_path / "q_seed1.sdcw.vocab")
        dataset, reasons = data_dir, ["an fp32 model is required"]
    else:
        dataset, size = _grown_dataset(data_dir, tmp_path)
        reasons = [f"{size} tokens", f"{fp32.config.vocab_size} rows"]
    passes = []
    monkeypatch.setattr(evaluation, "forward_logits", lambda *args: passes.append(args))
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "q.cfg", base + f"dataset={dataset}\nout_dir={out}\nreps=3\n"
                     f"model_in={tmp_path}/q_seed{{seed}}.sdcw\n")
    assert cli.run_cli([sub, cfg]) == 1
    err = capsys.readouterr().err
    assert all(reason in err for reason in reasons), err
    assert passes == []
    assert not list(out.glob("*.json")) and not list(out.glob("*.sdcw"))


def test_distill_from_model_in_reports_the_student_it_loads(workspace, kd_student, tmp_path):
    root, data_dir, ft_dir, base = workspace
    student = kd_student[0] / kd_student[1]["cells"][0]["model_path"]
    out = tmp_path / "kd-again"
    cfg = _write_cfg(tmp_path / "kd.cfg",
                     base + f"out_dir={out}\nepochs=1\nmode=task_specific\n"
                     f"teacher={ft_dir}/finetune_seed{{seed}}.sdcw\nmodel_in={student}\n"
                     f"student_layers=1\nstudent_heads=2\n")
    assert cli.run_cli(["distill", cfg]) == 0
    cell = json.loads((out / "distill_desk_task_specific-T8_seed1.json").read_text())["cells"][0]
    assert (cell["layers"], cell["heads"]) == (1, 2)
    assert "_L1_A2_" in cell["artifact"] and cell["model_path"] == cell["artifact"] + "_seed1.sdcw"
    saved, _ = persist.load_model(out / cell["model_path"])
    assert (saved.config.num_layers, saved.config.num_heads) == (1, 2)


def test_distill_from_model_in_rejects_a_cell_its_student_does_not_match(
        workspace, kd_student, tmp_path, capsys):
    root, data_dir, ft_dir, base = workspace
    student = kd_student[0] / kd_student[1]["cells"][0]["model_path"]
    out = tmp_path / "kd-mismatch"
    cfg = _write_cfg(tmp_path / "kd.cfg",  # the grid keeps its 4-layer, 4-head default
                     base + f"out_dir={out}\nepochs=1\nmode=task_specific\n"
                     f"teacher={ft_dir}/finetune_seed{{seed}}.sdcw\nmodel_in={student}\n")
    assert cli.run_cli(["distill", cfg]) == 2
    err = capsys.readouterr().err
    assert "1 layer(s) and 2 head(s)" in err and "4 layer(s) and 4 head(s)" in err
    assert not list(out.glob("*.json")) and not list(out.glob("*.sdcw"))


def test_distill_cli_writes_the_students_distill_grid_trains(workspace, tmp_path):
    root, data_dir, ft_dir, base = workspace
    out = tmp_path / "kd-grid"
    cfg = _write_cfg(tmp_path / "kd.cfg",
                     base + f"out_dir={out}\nepochs=2\nmode=task_specific\nalpha_soft=0.3\n"
                     f"teacher={ft_dir}/finetune_seed{{seed}}.sdcw\n"
                     f"student_layers=1,2\nstudent_heads=1,2\n")
    assert cli.run_cli(["distill", cfg]) == 0
    cells = json.loads((out / "distill_desk_task_specific-T8_seed1.json").read_text())["cells"]

    parsed = config.load_config(cfg)
    teacher_path = ft_dir / "finetune_seed1.sdcw"
    teacher, _ = persist.load_model(teacher_path)
    vocab = data.Vocabulary.load(str(teacher_path) + ".vocab")
    train = data.load_conll(data_dir / "train.conll", parsed.entity_types)
    grid = distill.distill_grid({"finetune_seed1": teacher}, "task_specific", train, vocab,
                                distill.grid_specs((1, 2), (1, 2)), [8.0], parsed.train_spec(),
                                1, entity_types=parsed.entity_types, alpha_soft=0.3)
    assert [c["artifact"] for c in cells] == list(grid)
    for cell in cells:
        student, kd_trace = grid[cell["artifact"]]
        assert cell["kd_loss_trace"] == kd_trace
        persist.save_model(student, tmp_path / "grid.sdcw")
        assert (tmp_path / "grid.sdcw").read_bytes() == (out / cell["model_path"]).read_bytes()


def test_distill_cli_rejects_a_repeated_grid_cell(workspace, tmp_path, capsys):
    root, data_dir, ft_dir, base = workspace
    out = tmp_path / "kd-twice"
    cfg = _write_cfg(tmp_path / "kd.cfg",
                     base + f"out_dir={out}\nepochs=1\nmode=task_specific\n"
                     f"teacher={ft_dir}/finetune_seed{{seed}}.sdcw\n"
                     f"student_layers=1,1\nstudent_heads=2\n")
    assert cli.run_cli(["distill", cfg]) == 1
    assert "duplicate grid cell" in capsys.readouterr().err
    assert not list(out.glob("*.json")) and not list(out.glob("*.sdcw"))


# ---------------------------------------------------------------------------
# the token table: one row per vocabulary entry

def _reloaded(handle, mask, path: Path):
    persist.save_model(handle, path, mask=mask)
    return persist.load_model(path)[0]


def _logits(handle, batches) -> list[bytes]:
    return [evaluation.forward_logits(handle, tb.token_ids, tb.attention_mask).tobytes()
            for tb in batches]


@pytest.fixture(scope="module")
def untrimmed(workspace, tmp_path_factory):
    """The workspace study at seed 1 with the whole token table (the oracle):
    its config, vocabulary, test batches, and its four models each saved and
    loaded back, as the CLI measures the files it writes. The fine-tuned
    file has its vocabulary sidecar."""
    root, data_dir, _, base = workspace
    out = tmp_path_factory.mktemp("untrimmed")
    cfg = config.load_config(_write_cfg(out / "u.cfg", base + "epochs=2\nsparsity=0.5\n"))
    train = data.load_conll(data_dir / "train.conll", cfg.entity_types)
    test = data.load_conll(data_dir / "test.conll", cfg.entity_types)
    vocab = data.build_vocab(data.corpus_token_lists(train), cfg.vocab_size)
    study = untrimmed_desk_path(model.init_model(cfg.encoder_config(), 1), train, vocab,
                                cfg.train_spec(), 1, cfg.entity_types, cfg.sparsity,
                                cfg.outlier_threshold)
    handles = {mode: _reloaded(handle, mask, out / f"{mode}_seed1.sdcw")
               for mode, (handle, mask) in study.items()}
    vocab.save(out / "fp32_seed1.sdcw.vocab")
    batches = data.batch(test, vocab, cfg.max_seq_len, cfg.batch_size,
                         entity_types=cfg.entity_types)
    return cfg, vocab, batches, handles, out / "fp32_seed1.sdcw"


def _assert_cut_and_equal(path: Path, whole, cfg, vocab, batches) -> None:
    """The file at `path` holds one token row per entry of `vocab`, where
    `whole` keeps `vocab_size` rows, and gives `whole`'s test logits."""
    cut = persist.load_model(path)[0]
    assert data.Vocabulary.load(str(path) + ".vocab").id_to_token == vocab.id_to_token
    assert cut.config == dataclasses.replace(whole.config, vocab_size=vocab.size)
    assert whole.config.vocab_size == cfg.vocab_size > vocab.size
    assert _logits(cut, batches) == _logits(whole, batches), path.name


def test_cli_study_gives_the_logits_of_the_whole_token_table(workspace, untrimmed, tmp_path):
    """finetune, prune after at p 0.5, and both quantizations of the
    fine-tuned file, through the CLI: each file's test logits equal, bit for
    bit, those of the same steps on models that keep every token row."""
    root, data_dir, _, base = workspace
    cfg, vocab, batches, whole, _ = untrimmed
    keys = base + f"out_dir={tmp_path}\nepochs=2\n"
    for sub, more in (("finetune", ""), ("prune", "sparsity=0.5\nschedule=after\n"),
                      ("quantize", f"model_in={tmp_path}/finetune_seed{{seed}}.sdcw\n")):
        assert cli.run_cli([sub, _write_cfg(tmp_path / f"{sub}.cfg", keys + more)]) == 0, sub
    files = {"fp32": "finetune_seed1.sdcw", "pruned": "pruned_p0.50_after_seed1.sdcw",
             "dynamic": "quantized_dynamic_seed1.sdcw", "mixed": "quantized_mixed_seed1.sdcw"}
    for mode, name in files.items():
        _assert_cut_and_equal(tmp_path / name, whole[mode], cfg, vocab, batches)


def test_prune_and_transfer_cut_a_whole_table_model_in(workspace, untrimmed, tmp_path):
    """A fine-tuned file that keeps every token row, given as `model_in` to
    prune and to transfer: their files give the logits of the same steps on
    the whole table."""
    root, data_dir, _, base = workspace
    cfg, vocab, batches, _, model_in = untrimmed
    whole = untrimmed_desk_path(persist.load_model(model_in)[0],
                                data.load_conll(data_dir / "train.conll", cfg.entity_types),
                                vocab, cfg.train_spec(), 1, cfg.entity_types, cfg.sparsity,
                                cfg.outlier_threshold)
    keys = base + f"out_dir={tmp_path}\nepochs=2\nmodel_in={model_in}\n"
    for sub, more, mode, name in (
            ("transfer", "", "fp32", "transfer_seed1.sdcw"),
            ("prune", "sparsity=0.5\nschedule=after\n", "pruned", "pruned_p0.50_after_seed1.sdcw")):
        assert cli.run_cli([sub, _write_cfg(tmp_path / f"{sub}.cfg", keys + more)]) == 0, sub
        _assert_cut_and_equal(tmp_path / name, whole[mode][0], cfg, vocab, batches)


@pytest.mark.parametrize("sub", ["finetune", "transfer", "prune"])
def test_a_vocabulary_past_the_token_table_fails_before_training(workspace, tmp_path, monkeypatch,
                                                                 capsys, sub):
    """A `model_in` without its vocabulary sidecar, whose token table is
    shorter than the train split's vocabulary, fails naming both sizes
    before a step is taken or a file written."""
    root, data_dir, _, base = workspace
    short = model.init_model(dataclasses.replace(model.desk_config(), vocab_size=20), 1)
    persist.save_model(short, tmp_path / "short_seed1.sdcw")
    steps = []
    monkeypatch.setattr(model.T, "adam_step", lambda *args: steps.append(args))
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "s.cfg", base + f"out_dir={out}\nepochs=1\n"
                     f"model_in={tmp_path}/short_seed{{seed}}.sdcw\n")
    assert cli.run_cli([sub, cfg]) == 1
    train = data.load_conll(data_dir / "train.conll")
    size = data.build_vocab(data.corpus_token_lists(train), 2000).size
    err = capsys.readouterr().err
    assert f"{size} tokens" in err and "20 rows" in err
    assert steps == []
    assert not list(out.glob("*.sdcw")) and not list(out.glob("*.json"))


def test_every_ner_model_file_holds_one_token_row_per_vocabulary_entry(workspace, kd_student,
                                                                       tmp_path):
    root, data_dir, ft_dir, base = workspace
    files = [ft_dir / "finetune_seed1.sdcw", kd_student[0] / kd_student[1]["cells"][0]["model_path"]]
    for sub, keys, name in (
            ("prune", "sparsity=0.5\nschedule=after\n", "pruned_p0.50_after_seed1.sdcw"),
            ("transfer", f"model_in={ft_dir}/finetune_seed{{seed}}.sdcw\n", "transfer_seed1.sdcw")):
        out = tmp_path / sub
        cfg = _write_cfg(tmp_path / f"{sub}.cfg", base + f"out_dir={out}\nepochs=1\n" + keys)
        assert cli.run_cli([sub, cfg]) == 0, sub
        files.append(out / name)
    for path in files:
        handle = persist.load_model(path)[0]
        rows = data.Vocabulary.load(str(path) + ".vocab").size
        assert handle.config.vocab_size == rows == handle.param("embeddings.token").shape[0]
        assert rows < 2000, path.name


def test_desk_finetune_file_is_at_most_460_kb(tmp_path):
    """Seed 1, 800 sentences: the token table holds the train split's
    vocabulary, not the 2,000-row cap (the file's size does not depend on
    how long it trains)."""
    cfg = _write_cfg(tmp_path / "d.cfg", f"preset=desk\nseeds=1\ndataset={tmp_path}\n"
                     f"out_dir={tmp_path}\nepochs=1\n")
    assert cli.run_cli(["synth-data", cfg]) == 0
    assert cli.run_cli(["finetune", cfg]) == 0
    assert (tmp_path / "finetune_seed1.sdcw").stat().st_size <= 460_000
