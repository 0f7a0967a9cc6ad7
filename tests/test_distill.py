import numpy as np
import pytest

from sdcw import data, distill, model
from sdcw import tensor as T
from sdcw.errors import DataError, ParameterError
from sdcw.rng import stream

TEACHER_CFG = model.EncoderConfig(num_layers=4, num_heads=2, hidden_size=16, ffn_size=32,
                                  vocab_size=150, max_positions=32, num_classes=9)


def _toy(seed=0, n=60):
    train, _, test = data.synth_ner_corpus(seed, n)
    vocab = data.build_vocab(data.corpus_token_lists(train), TEACHER_CFG.vocab_size)
    return train, test, vocab


# ---------------------------------------------------------------------------
# student construction

def test_student_same_shape_copies_everything_but_head():
    teacher = model.init_model(TEACHER_CFG, seed=1)
    student = distill.init_student(teacher, distill.StudentSpec(4, 2), seed=2)
    for name, p in student.params.items():
        if name.startswith("head."):
            continue
        np.testing.assert_array_equal(p.data, teacher.param(name).data, err_msg=name)
    assert not np.array_equal(student.param("head.weight").data,
                              teacher.param("head.weight").data)


def test_student_layer_mapping_every_other():
    assert distill.student_layer_map(12, 6) == [0, 2, 4, 6, 8, 10]
    assert distill.student_layer_map(4, 2) == [0, 2]
    assert distill.student_layer_map(10, 4) == [0, 2, 5, 7]


def test_student_copies_mapped_layers_when_heads_divide():
    teacher = model.init_model(TEACHER_CFG, seed=3)
    student = distill.init_student(teacher, distill.StudentSpec(2, 2), seed=4)
    for i, src in enumerate(distill.student_layer_map(4, 2)):
        np.testing.assert_array_equal(student.param(f"layers.{i}.attn.wq").data,
                                      teacher.param(f"layers.{src}.attn.wq").data)


def test_student_random_layers_when_heads_do_not_divide():
    cfg = model.EncoderConfig(4, 6, 12, 24, 150, 32, 9)
    teacher = model.init_model(cfg, seed=5)
    student = distill.init_student(teacher, distill.StudentSpec(2, 4), seed=6)
    assert not np.array_equal(student.param("layers.0.attn.wq").data,
                              teacher.param("layers.0.attn.wq").data)
    np.testing.assert_array_equal(student.param("embeddings.token").data,
                                  teacher.param("embeddings.token").data)


def test_student_larger_than_teacher_rejected():
    teacher = model.init_model(TEACHER_CFG, seed=1)
    with pytest.raises(ParameterError):
        distill.init_student(teacher, distill.StudentSpec(5, 2), seed=0)


def test_student_param_count_strictly_smaller_per_grid_cell():
    teacher = model.init_model(TEACHER_CFG, seed=1)
    for spec in distill.grid_specs(student_layers=(2, 3), student_heads=(2, 4)):
        student = distill.init_student(teacher, spec, seed=0)
        assert model.count_params(student) < model.count_params(teacher)


def test_param_count_monotone_in_layers_constant_in_heads():
    base = model.count_params_config(model.EncoderConfig(2, 2, 16, 32, 150, 32, 9))
    more_layers = model.count_params_config(model.EncoderConfig(3, 2, 16, 32, 150, 32, 9))
    more_heads = model.count_params_config(model.EncoderConfig(2, 4, 16, 32, 150, 32, 9))
    assert more_layers > base
    assert more_heads == base  # heads only reshape attention at fixed width


# ---------------------------------------------------------------------------
# compression ratio: 1 - params(student) / params(teacher)

def test_compression_ratio_published_bands():
    large = model.count_params_config(model.reference_config("large"))
    six = model.EncoderConfig(6, 6, 768, 3072, 70_000, 512, 9)
    four = model.EncoderConfig(4, 4, 768, 3072, 70_000, 512, 9)
    assert 1 - model.count_params_config(six) / large == pytest.approx(0.23, abs=0.01)
    assert 1 - model.count_params_config(four) / large == pytest.approx(0.34, abs=0.01)


# ---------------------------------------------------------------------------
# distillation spec

def test_task_specific_default_temperature_is_eight():
    assert distill.DistillSpec(mode="task_specific").temperature == 8.0


def test_task_agnostic_default_temperature_from_published_grid():
    assert distill.DistillSpec(mode="task_agnostic").temperature in distill.AGNOSTIC_TEMPERATURES


def test_distill_spec_validation():
    with pytest.raises(ParameterError):
        distill.DistillSpec(mode="freestyle")
    with pytest.raises(ParameterError):
        distill.DistillSpec(mode="task_specific", temperature=-1.0)
    with pytest.raises(ParameterError):
        distill.DistillSpec(mode="task_specific", alpha_soft=-0.5)


# ---------------------------------------------------------------------------
# task-agnostic (masked-LM) path

def test_mlm_corrupt_marks_only_selected_positions():
    train, _, vocab = _toy()
    (tb,) = data.batch(train[:8], vocab, 32, 8)
    gen = stream(0, "mlm-test")
    ids, labels = distill.mlm_corrupt(tb, vocab.size, gen, mask_rate=0.3)
    changed = ids != tb.token_ids
    selected = labels != T.IGNORE_INDEX
    assert changed.sum() > 0
    assert np.all(~changed | selected)  # only selected positions may change
    assert np.all(labels[selected] == tb.token_ids[selected])
    assert not np.any(selected & (tb.token_ids == data.BOS))
    assert not np.any(selected & ~tb.attention_mask)


def test_soft_loss_zero_iff_softened_distributions_match():
    gen = stream(30, "kd-iff")
    t = gen.normal(0, 1, (5, 6)).astype(np.float32)
    # per-row logit shifts leave the softened distribution unchanged
    shifted = t + gen.normal(0, 2, (5, 1)).astype(np.float32)
    assert abs(T.kl_soft_targets(T.Tensor(shifted, requires_grad=True),
                                 T.Tensor(t), 3.0).item()) < 1e-5
    # any non-shift perturbation changes it and the loss is positive
    perturbed = t.copy()
    perturbed[0, 0] += 1.0
    assert T.kl_soft_targets(T.Tensor(perturbed, requires_grad=True),
                             T.Tensor(t), 3.0).item() > 1e-4


def test_soft_loss_starts_at_zero_when_student_equals_teacher():
    train, _, vocab = _toy()
    teacher = model.init_model(TEACHER_CFG, seed=7)
    student = distill.init_student(teacher, distill.StudentSpec(4, 2), seed=8)
    (tb,) = data.batch(train[:4], vocab, 32, 4)
    with T.no_grad():
        h_t = model.forward_hidden(teacher, tb.token_ids, tb.attention_mask)
        h_s = model.forward_hidden(student, tb.token_ids, tb.attention_mask)
        soft = T.kl_soft_targets(model.mlm_logits(student, h_s),
                                 model.mlm_logits(teacher, h_t), 2.0)
    assert abs(soft.item()) < 1e-6


def test_alpha_soft_zero_reduces_to_plain_mlm():
    train, _, vocab = _toy()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)
    teacher = model.init_model(TEACHER_CFG, seed=9)
    lines = [" ".join(s.tokens) for s in train[:24]]

    def run(with_teacher: bool):
        student = model.init_model(TEACHER_CFG, seed=10)
        if with_teacher:
            dspec = distill.DistillSpec(mode="task_agnostic", alpha_soft=0.0)
            distill.distill_task_agnostic(teacher, student, lines, vocab, dspec, spec, seed=10)
        else:
            distill.pretrain_mlm(student, lines, vocab, spec, seed=10)
        return {n: p.data.copy() for n, p in student.params.items()}

    a, b = run(True), run(False)
    for n in a:
        np.testing.assert_allclose(a[n], b[n], atol=1e-7, err_msg=n)


def test_task_agnostic_training_reduces_mlm_loss():
    train, _, vocab = _toy(n=80)
    lines = [" ".join(s.tokens) for s in train]
    spec = model.TrainSpec(learning_rate=2e-3, batch_size=16, max_seq_len=16, epochs=4)
    teacher = model.init_model(TEACHER_CFG, seed=11)
    distill.pretrain_mlm(teacher, lines, vocab, spec, seed=11)
    student = distill.init_student(teacher, distill.StudentSpec(2, 2), seed=12)
    dspec = distill.DistillSpec(mode="task_agnostic", temperature=2.0)
    trace = distill.distill_task_agnostic(teacher, student, lines, vocab, dspec, spec, seed=12)
    assert trace[-1] < trace[0]


def test_task_agnostic_tied_head_takes_the_dense_update(adam_feed):
    train, _, vocab = _toy()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)
    teacher = model.init_model(TEACHER_CFG, seed=9)
    lines = [" ".join(s.tokens) for s in train[:24]]

    def run(dense: bool):
        states = adam_feed(dense)
        student = distill.init_student(teacher, distill.StudentSpec(2, 2), seed=10)
        dspec = distill.DistillSpec(mode="task_agnostic", temperature=2.0)
        trace = distill.distill_task_agnostic(teacher, student, lines, vocab, dspec, spec, seed=10)
        return student, trace, states[-1]

    sparse, sparse_trace, state = run(dense=False)
    dense, dense_trace, _ = run(dense=True)
    assert sparse_trace == dense_trace
    for name, p in sparse.params.items():
        assert p.data.tobytes() == dense.param(name).data.tobytes(), name
    # the MLM head is tied to the token table, so its gradient is dense
    assert "embeddings.token" not in state.rows
    assert state.rows["embeddings.position"].size > 0


def test_task_agnostic_empty_corpus_errors():
    _, _, vocab = _toy()
    teacher = model.init_model(TEACHER_CFG, seed=1)
    student = distill.init_student(teacher, distill.StudentSpec(2, 2), seed=2)
    dspec = distill.DistillSpec(mode="task_agnostic")
    with pytest.raises(DataError):
        distill.distill_task_agnostic(teacher, student, [], vocab, dspec,
                                      model.TrainSpec(epochs=1), seed=0)


# ---------------------------------------------------------------------------
# task-specific path

def test_task_specific_tag_set_mismatch_errors():
    train, _, vocab = _toy()
    teacher = model.init_model(TEACHER_CFG, seed=1)
    other = model.init_model(model.EncoderConfig(2, 2, 16, 32, 150, 32, 5), seed=2)
    dspec = distill.DistillSpec(mode="task_specific")
    with pytest.raises(DataError):
        distill.distill_task_specific(teacher, other, train, vocab, dspec,
                                      model.TrainSpec(epochs=1), seed=0)


def test_matched_logits_leave_only_hard_gradient():
    gen = stream(13, "kd-hard-only")
    logits = gen.normal(0, 1, (6, 5)).astype(np.float32)
    labels = np.array([0, 1, 2, 3, 4, 0])
    s = T.Tensor(logits, requires_grad=True)
    soft = T.kl_soft_targets(s, T.Tensor(logits), 8.0)
    hard = T.cross_entropy(s, labels)
    loss = T.add(T.scale(soft, 0.5), T.scale(hard, 0.5))
    T.backward(loss)
    combined = s.grad.copy()
    s2 = T.Tensor(logits, requires_grad=True)
    T.backward(T.scale(T.cross_entropy(s2, labels), 0.5))
    np.testing.assert_allclose(combined, s2.grad, atol=1e-7)


def test_task_specific_student_closes_on_teacher(desk_corpus, trained_model):
    train, _, test, vocab = desk_corpus
    from sdcw.evaluation import evaluate
    teacher_f1 = evaluate(trained_model, test, vocab).f1
    student = distill.init_student(trained_model, distill.StudentSpec(1, 2), seed=21)
    dspec = distill.DistillSpec(mode="task_specific")
    spec = model.desk_train_spec()
    distill.distill_task_specific(trained_model, student, train, vocab, dspec, spec, seed=21)
    student_f1 = evaluate(student, test, vocab).f1
    assert teacher_f1 - student_f1 <= 0.05


def test_task_specific_distillation_replays_bit_identically():
    train, _, vocab = _toy(n=40)
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)
    teacher = model.init_model(TEACHER_CFG, seed=14)

    def run():
        student = distill.init_student(teacher, distill.StudentSpec(2, 2), seed=15)
        dspec = distill.DistillSpec(mode="task_specific")
        trace = distill.distill_task_specific(teacher, student, train, vocab, dspec, spec,
                                              seed=15)
        return trace, {n: p.data.copy() for n, p in student.params.items()}

    (trace_a, a), (trace_b, b) = run(), run()
    assert trace_a == trace_b
    for n in a:
        np.testing.assert_array_equal(a[n], b[n])


# ---------------------------------------------------------------------------
# grid

def test_grid_emits_eight_uniquely_named_students_per_mode():
    train, _, vocab = _toy(n=40)
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=16, max_seq_len=16, epochs=1)
    teachers = {
        "base": model.init_model(model.EncoderConfig(3, 2, 16, 32, 150, 32, 9), seed=16),
        "large": model.init_model(TEACHER_CFG, seed=17),
    }
    specs = distill.grid_specs(student_layers=(1, 2), student_heads=(2, 4))
    out = distill.distill_grid(teachers, "task_specific", train, vocab, specs,
                               [distill.TASK_SPECIFIC_TEMPERATURE], spec, seed=18)
    assert len(out) == 8
    for tag, teacher in teachers.items():
        for name, (student, trace) in out.items():
            assert len(trace) == spec.epochs
            if f"_{tag}_" in name:
                assert model.count_params(student) < model.count_params(teacher)


def test_agnostic_temperature_sweep_gives_distinct_names():
    specs = distill.grid_specs(student_layers=(1, 2), student_heads=(2,))
    names = {distill.artifact_name("base", s, t, "task_agnostic")
             for s in specs for t in distill.AGNOSTIC_TEMPERATURES}
    assert len(names) == len(specs) * len(distill.AGNOSTIC_TEMPERATURES)
