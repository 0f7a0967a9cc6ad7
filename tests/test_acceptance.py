"""Acceptance gate: every criterion at its stated tolerance and budget.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""
import json
import time

import numpy as np

from sdcw import cli, data, distill, model, persist, prune, quant
from sdcw import tensor as T
from sdcw.evaluation import evaluate, extract_spans, span_prf
from sdcw.rng import stream

from oracles import brute_force_spans, prf_oracle
from test_tensor import gradcheck_all_ops

TOY = model.EncoderConfig(num_layers=2, num_heads=2, hidden_size=16, ffn_size=32,
                          vocab_size=120, max_positions=32, num_classes=9)


def _criterion(n: int, description: str, ok: bool, detail: str, elapsed: float,
               budget_s: float) -> None:
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[criterion {n}] {status}: {description} ({detail}; {elapsed:.1f}s of {budget_s:.0f}s budget)")
    assert ok, f"criterion {n}: {description} ({detail})"
    assert elapsed < budget_s, f"criterion {n} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def test_criterion_1_pruning_bookkeeping():
    t0 = time.time()
    published = {
        0.10: 7_078_579, 0.20: 14_157_158, 0.30: 21_235_738, 0.40: 28_314_317,
        0.50: 35_392_896, 0.60: 42_471_475, 0.70: 49_550_054, 0.80: 56_628_634,
        0.90: 63_707_213, 0.95: 67_246_502,
    }
    counts = prune.sparsity_sweep_counts(prune.REFERENCE_PRUNABLE_TOTAL)
    diffs = {p: counts[p] - published[p] for p in published}
    ok = all(abs(d) <= 2 for d in diffs.values())
    _criterion(1, "sparsity sweep reproduces the published pruned-parameter column within +-2",
               ok, f"max |diff| = {max(abs(d) for d in diffs.values())}", time.time() - t0, 1.0)


def test_criterion_2_exact_sparsity_and_mask_enforcement():
    t0 = time.time()
    levels = prune.SPARSITY_SWEEP
    exact = True
    for seed in (1, 2, 3):
        m = model.init_model(TOY, seed=seed)
        total = sum(m.param(n).size for n in prune.prunable_names(m))
        for p in levels:
            mask = prune.compute_mask(m, p)
            trial = model.clone_model(m)
            prune.apply_mask(trial, mask)
            zeros = sum(int((trial.param(n).data == 0).sum()) for n in mask.masks)
            exact &= zeros == prune.pruned_count(p, total)
    train, _, _ = data.synth_ner_corpus(2, 60)
    vocab = data.build_vocab(data.corpus_token_lists(train), TOY.vocab_size)
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=16, max_seq_len=16, epochs=3)
    enforced = True
    for seed in (1, 2, 3):
        m = model.init_model(TOY, seed=seed)
        mask = prune.compute_mask(m, 0.5)
        prune.masked_finetune(m, mask, train, vocab, spec, seed=seed)
        for n, bits in mask.masks.items():
            enforced &= bool(np.all(m.param(n).data[bits == 0] == 0.0))
    _criterion(2, "zero count == round(p*N) at all ten levels and masks survive 3 epochs",
               exact and enforced, f"exact={exact}, enforced={enforced}",
               time.time() - t0, 120.0)


def test_criterion_3_quantization_round_trip_and_exactness():
    t0 = time.time()
    gen = stream(0, "acc-roundtrip")
    bound_ok = True
    for _ in range(1000):
        n = int(gen.integers(2, 40))
        x = (gen.normal(0, 1, n) * gen.uniform(0.01, 30)).astype(np.float32)
        qt = quant.absmax_quantize(x)
        err = float(np.abs(qt.dequant()[0] - x).max())
        bound_ok &= err <= np.abs(x).max() / 254 + 1e-7
    m = model.init_model(TOY, seed=4)
    gen2 = stream(1, "acc-exact")
    ids = gen2.integers(0, TOY.vocab_size, size=(3, 10))
    attn = np.ones((3, 10), dtype=bool)
    attn[-1, -3:] = False
    with T.no_grad():
        ref = model.forward(m, ids, attn).data
    got = quant.quantized_forward(quant.quantize_model_int8_mixed(m, threshold=1e-30), ids, attn)
    max_diff = float(np.abs(got - ref).max())
    _criterion(3, "dequantization error <= maxabs/254 + 1e-7 and threshold->0+ forward within 1e-6",
               bound_ok and max_diff <= 1e-6,
               f"round-trip ok={bound_ok}, threshold->0+ max diff={max_diff:.2e}",
               time.time() - t0, 30.0)


def test_criterion_4_size_reduction_on_reference_dims(tmp_path):
    t0 = time.time()
    m = model.init_model(model.reference_config("large"), seed=1)
    fp_bytes = persist.save_model(m, tmp_path / "fp32.sdcw")
    dyn_bytes = persist.save_model(quant.quantize_model_dynamic(m), tmp_path / "dyn.sdcw")
    mix_bytes = persist.save_model(quant.quantize_model_int8_mixed(m), tmp_path / "mix.sdcw")
    dyn_red = 100.0 * (1.0 - dyn_bytes / fp_bytes)
    mix_red = 100.0 * (1.0 - mix_bytes / fp_bytes)
    ok = mix_red > 55.0 and dyn_red > 30.0
    _criterion(4, "file-size reduction > 55% (int8 mixed) and > 30% (dynamic) at published dims",
               ok, f"dynamic {dyn_red:.2f}% (published 42.44%), mixed {mix_red:.2f}% (published 64.08%)",
               time.time() - t0, 60.0)


def test_criterion_5_span_f1_oracle_equivalence():
    t0 = time.time()
    gold = [["B-PER", "I-PER", "O", "B-LOC", "O"]]
    pred = [["B-PER", "I-PER", "O", "O", "B-LOC"]]
    hand_ok = span_prf(gold, pred) == (0.5, 0.5, 0.5)
    gen = stream(2, "acc-span")
    types = data.DEFAULT_ENTITY_TYPES
    agree = True
    for _ in range(100):
        corpus_gold, corpus_pred = [], []
        for _ in range(int(gen.integers(1, 8))):
            length = int(gen.integers(1, 14))
            def tags():
                out = []
                for _ in range(length):
                    r = gen.random()
                    if r < 0.4:
                        out.append("O")
                    elif r < 0.7:
                        out.append(f"B-{gen.choice(types)}")
                    else:
                        out.append(f"I-{gen.choice(types)}")
                return out
            corpus_gold.append(tags())
            corpus_pred.append(tags())
        agree &= span_prf(corpus_gold, corpus_pred) == prf_oracle(corpus_gold, corpus_pred)
        for tags_seq in corpus_gold:
            got = {(s.entity_type, s.start, s.end) for s in extract_spans(tags_seq)}
            agree &= got == brute_force_spans(tags_seq)
    _criterion(5, "span P/R/F1 matches the brute-force oracle on 100 random corpora",
               hand_ok and agree, f"hand example ok={hand_ok}, corpora agree={agree}",
               time.time() - t0, 10.0)


def test_criterion_6_gradient_suite():
    t0 = time.time()
    worst = gradcheck_all_ops(seeds=range(5), tol=1e-3)
    _criterion(6, "all differentiable ops pass finite-difference checks at rel err < 1e-3, 5 seeds",
               max(worst.values()) < 1e-3,
               "worst: " + ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items())),
               time.time() - t0, 60.0)


def test_criterion_7_distillation_properties():
    t0 = time.time()
    gen = stream(3, "acc-distill")
    logits = gen.normal(0, 1, (8, 9)).astype(np.float32)
    soft_zero = abs(T.kl_soft_targets(T.Tensor(logits, requires_grad=True),
                                      T.Tensor(logits), 4.0).item()) < 1e-6
    t_data = gen.normal(0, 1, (16, 9)).astype(np.float32)
    s_data = gen.normal(0, 1, (16, 9)).astype(np.float32)
    norms = {}
    for temp in (2.0, 8.0):
        s = T.Tensor(s_data, requires_grad=True)
        T.backward(T.kl_soft_targets(s, T.Tensor(t_data), temp))
        norms[temp] = float(np.linalg.norm(s.grad))
    ratio_ok = 0.9 < norms[2.0] / norms[8.0] < 1.1

    train, _, _ = data.synth_ner_corpus(3, 60)
    vocab = data.build_vocab(data.corpus_token_lists(train), TOY.vocab_size)
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=16, max_seq_len=16, epochs=1)
    teachers = {
        "base": model.init_model(model.EncoderConfig(3, 2, 16, 32, 120, 32, 9), seed=5),
        "large": model.init_model(model.EncoderConfig(4, 2, 16, 32, 120, 32, 9), seed=6),
    }
    specs = distill.grid_specs(student_layers=(1, 2), student_heads=(2, 4))
    grid_ok = True
    counts = {}
    for mode, task_data in (("task_specific", train),
                            ("task_agnostic", [" ".join(s.tokens) for s in train])):
        temp = (distill.TASK_SPECIFIC_TEMPERATURE if mode == "task_specific"
                else distill.AGNOSTIC_TEMPERATURES[0])
        students = distill.distill_grid(teachers, mode, task_data, vocab, specs,
                                        [temp], spec, seed=7)
        counts[mode] = len(students)
        grid_ok &= len(students) == 8
        for tag, teacher in teachers.items():
            teacher_layer_params = sum(p.size for n, p in teacher.params.items()
                                       if n.startswith("layers."))
            for name, (student, _) in students.items():
                if f"_{tag}_" in name:
                    student_layer_params = sum(p.size for n, p in student.params.items()
                                               if n.startswith("layers."))
                    grid_ok &= student_layer_params < teacher_layer_params
    _criterion(7, "soft loss zero at matched logits, T^2 gradient scaling within 10%, "
                  "and the student grid emits 8 smaller students per mode",
               soft_zero and ratio_ok and grid_ok,
               f"grad ratio={norms[2.0] / norms[8.0]:.3f}, grid counts={counts}",
               time.time() - t0, 300.0)


def test_criterion_8_end_to_end_trend():
    t0 = time.time()
    spec = model.desk_train_spec()
    results = []
    for seed in (1, 3, 5):
        train, _, test = data.synth_ner_corpus(seed, 800)
        vocab = data.build_vocab(data.corpus_token_lists(train), 2000)
        dense = model.init_model(model.desk_config(), seed=seed)
        model.finetune(dense, train, vocab, spec, seed=seed)
        dense_f1 = evaluate(dense, test, vocab).f1

        pruned_after = model.clone_model(dense)
        prune.apply_mask(pruned_after, prune.compute_mask(pruned_after, 0.9))
        after90_f1 = evaluate(pruned_after, test, vocab).f1

        before = model.init_model(model.desk_config(), seed=seed)
        mask = prune.compute_mask(before, 0.5)
        prune.masked_finetune(before, mask, train, vocab, spec, seed=seed)
        before50_f1 = evaluate(before, test, vocab).f1

        mixed_f1 = evaluate(quant.quantize_model_int8_mixed(dense), test, vocab).f1

        checks = {
            "dense>=0.90": dense_f1 >= 0.90,
            "before50 within 5": abs(dense_f1 - before50_f1) <= 0.05,
            "after90 drops >=20": dense_f1 - after90_f1 >= 0.20,
            "mixed within 2": abs(dense_f1 - mixed_f1) <= 0.02,
        }
        results.append((seed, dense_f1, before50_f1, after90_f1, mixed_f1, all(checks.values()), checks))
    passed = sum(1 for r in results if r[5])
    detail = "; ".join(
        f"seed {s}: dense={d:.3f} before50={b:.3f} after90={a:.3f} mixed={m:.3f} "
        + ("ok" if ok else "failed " + ",".join(k for k, v in checks.items() if not v))
        for s, d, b, a, m, ok, checks in results
    )
    _criterion(8, "end-to-end trend checks pass on a majority of 3 seeds",
               passed >= 2, f"{passed}/3 seeds passed; {detail}", time.time() - t0, 900.0)


def test_criterion_9_replay_determinism(tmp_path):
    t0 = time.time()
    data_dir = tmp_path / "data"
    out = tmp_path / "runs"
    base = (f"preset=desk\nseeds=1,3\nn_sentences=120\nepochs=3\n"
            f"dataset={data_dir}\nout_dir={out}\nsparsity=0.4\nschedule=before\n")
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(base.replace(f"out_dir={out}", f"out_dir={data_dir}"),
                         encoding="utf-8")
    assert cli.run_cli(["synth-data", str(synth_cfg)]) == 0
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(base, encoding="utf-8")

    def run_once() -> dict[str, str]:
        assert cli.run_cli(["prune", str(run_cfg)]) == 0
        payloads = {}
        for p in sorted(out.glob("*.json")):
            payload = cli.strip_timing(json.loads(p.read_text(encoding="utf-8")))
            payloads[p.name] = json.dumps(payload, sort_keys=True)
            p.unlink()
        for leftover in out.glob("*"):
            leftover.unlink()
        return payloads

    first, second = run_once(), run_once()
    ok = first == second and len(first) == 3  # two per-seed reports + aggregate
    _criterion(9, "identical config and seeds reproduce byte-identical reports (timing excluded)",
               ok, f"{len(first)} report files compared", time.time() - t0, 600.0)
