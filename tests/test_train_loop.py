"""The shared training loop and student grid against the hand-written loops
they replaced (`tests/oracles.py`): equal loss traces and byte-equal
trained parameters. The single-run references train on the copying tape
(`oracles.copying_tape`), so these also check the lean tape against it."""
import hashlib
import weakref
from dataclasses import replace

import pytest

from sdcw import config, data, distill, model, prune
from sdcw import tensor as T
from sdcw.distill import DistillSpec, StudentSpec
from sdcw.errors import ParameterError

import oracles

CFG = model.EncoderConfig(num_layers=2, num_heads=2, hidden_size=16, ffn_size=32,
                          vocab_size=150, max_positions=32, num_classes=9)
SPEC = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=3)
TYPES = data.DEFAULT_ENTITY_TYPES


def digest(m: model.EncoderModel) -> str:
    h = hashlib.sha256()
    for name, p in m.params.items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpus():
    train, _, _ = data.synth_ner_corpus(4, 60)
    vocab = data.build_vocab(data.corpus_token_lists(train), CFG.vocab_size)
    return train, vocab, [" ".join(s.tokens) for s in train]


def test_finetune_with_dropout_equals_the_reference(corpus):
    train, vocab, _ = corpus
    cfg = replace(CFG, dropout=0.1)
    got, want = model.init_model(cfg, 1), model.init_model(cfg, 1)
    trace = model.finetune(got, train, vocab, SPEC, seed=2)
    with oracles.copying_tape():
        assert trace == oracles.finetune_ref(want, train, vocab, SPEC, seed=2)
    assert digest(got) == digest(want) != digest(model.init_model(cfg, 1))


@pytest.mark.parametrize("schedule", ["before", "after", "during:0:2:3"])
def test_prune_schedules_equal_the_reference(corpus, monkeypatch, schedule):
    train, vocab, _ = corpus
    sched = config.parse_schedule(schedule)

    def run():
        m = model.init_model(CFG, 5)
        _, mask, trace, ramp = prune.run_schedule(m, 0.6, sched, train, vocab, SPEC, 6)
        return digest(m), trace, ramp, {n: v.tobytes() for n, v in mask.masks.items()}

    got = run()
    monkeypatch.setattr(prune, "finetune", oracles.finetune_ref)
    with oracles.copying_tape():
        assert run() == got
    assert bool(got[2]) == (sched.kind == "during")


def test_pretrain_mlm_equals_the_reference(corpus):
    _, vocab, lines = corpus
    got, want = model.init_model(CFG, 7), model.init_model(CFG, 7)
    trace = distill.pretrain_mlm(got, lines, vocab, SPEC, seed=8, mask_rate=0.2)
    dspec = DistillSpec(mode="task_agnostic", alpha_soft=0.0, mlm_mask_rate=0.2)
    with oracles.copying_tape():  # the tied head's transposed table gradient is handed over
        assert trace == oracles.run_mlm_ref(None, want, lines, vocab, dspec, SPEC, 8)
    assert digest(got) == digest(want)


@pytest.mark.parametrize("alpha_soft", [0.0, 0.5])
def test_agnostic_distillation_equals_the_reference(corpus, alpha_soft):
    _, vocab, lines = corpus
    teacher = model.init_model(CFG, 9)
    dspec = DistillSpec(mode="task_agnostic", temperature=3.0, alpha_soft=alpha_soft)
    got = distill.init_student(teacher, StudentSpec(1, 2), 10)
    want = model.clone_model(got)
    trace = distill.distill_task_agnostic(teacher, got, lines, vocab, dspec, SPEC, 11)
    with oracles.copying_tape():
        assert trace == oracles.run_mlm_ref(teacher, want, lines, vocab, dspec, SPEC, 11)
    assert digest(got) == digest(want)


def test_task_specific_distillation_equals_the_reference(corpus):
    train, vocab, _ = corpus
    teacher = model.init_model(CFG, 12)
    dspec = DistillSpec(mode="task_specific", alpha_soft=0.7)
    got = distill.init_student(teacher, StudentSpec(1, 1), 13)
    want = model.clone_model(got)
    trace = distill.distill_task_specific(teacher, got, train, vocab, dspec, SPEC, 14)
    with oracles.copying_tape():
        assert trace == oracles.distill_task_specific_ref(teacher, want, train, vocab, dspec,
                                                          SPEC, 14)
    assert digest(got) == digest(want)


def test_an_epoch_whose_batches_all_skip_reads_zero(corpus):
    _, vocab, lines = corpus
    got, want = model.init_model(CFG, 15), model.init_model(CFG, 15)
    # at mask rate 0 no position is selected, so every batch is skipped
    trace = distill.pretrain_mlm(got, lines, vocab, SPEC, seed=16, mask_rate=0.0)
    dspec = DistillSpec(mode="task_agnostic", alpha_soft=0.0, mlm_mask_rate=0.0)
    assert trace == [0.0] * SPEC.epochs
    assert trace == oracles.run_mlm_ref(None, want, lines, vocab, dspec, SPEC, 16)
    assert digest(got) == digest(want) == digest(model.init_model(CFG, 15))


def test_skipped_and_taken_batches_mix_as_in_the_reference(corpus, adam_feed):
    _, vocab, lines = corpus
    # one-token lines in pairs: a batch is skipped when neither token is selected
    short = [line.split()[0] for line in lines]
    spec = replace(SPEC, batch_size=2)
    dspec = DistillSpec(mode="task_agnostic", alpha_soft=0.0, mlm_mask_rate=0.3)
    got, want = model.init_model(CFG, 17), model.init_model(CFG, 17)
    steps = adam_feed(dense=False)
    trace = distill.pretrain_mlm(got, short, vocab, spec, seed=18, mask_rate=0.3)
    n_steps = len(steps)
    batches = spec.epochs * -(-len(short) // spec.batch_size)
    assert 0 < n_steps < batches
    assert trace == oracles.run_mlm_ref(None, want, short, vocab, dspec, spec, 18)
    assert len(steps) == 2 * n_steps
    assert digest(got) == digest(want)


def test_train_loop_hooks_see_only_the_steps_taken(corpus):
    train, vocab, _ = corpus
    m = model.init_model(CFG, 19)
    pre, post, seen = [], [], []

    def batch_loss(tb):
        seen.append(tb)
        if len(seen) % 3 == 2:  # the second batch of every three is skipped
            return None
        return T.scale(T.tsum(m.param("head.bias")), 1.0)

    spec = replace(SPEC, batch_size=len(train) // 3 + 1, epochs=2)  # three batches an epoch
    trace = model.train_loop(m, spec, train, vocab, 0, "hooks", batch_loss,
                             pre_step=pre.append, post_step=post.append)
    assert len(seen) == 6
    assert pre == [0, 1, 1, 2, 3, 3]
    assert post == [0, 1, 2, 3]
    assert len(trace) == 2


def test_train_loop_frees_a_step_graph_before_the_next_step(corpus):
    train, vocab, _ = corpus
    m = model.init_model(CFG, 24)
    losses, alive = [], []

    def batch_loss(tb):
        logits = model.forward(m, tb.token_ids, tb.attention_mask)
        loss = T.cross_entropy(T.reshape(logits, (-1, CFG.num_classes)), tb.label_ids.reshape(-1))
        losses.append(weakref.ref(loss.data))
        return loss

    def pre_step(step):
        if losses:  # the previous step's loss, and with it its graph
            alive.append(losses[-1]() is not None)

    model.train_loop(m, replace(SPEC, epochs=1), train, vocab, 0, "graph", batch_loss,
                     pre_step=pre_step)
    assert len(alive) >= 2 and not any(alive)


@pytest.mark.parametrize("mode", ["task_specific", "task_agnostic"])
def test_distill_grid_equals_the_cli_cell_loop(corpus, mode):
    train, vocab, lines = corpus
    teacher = model.init_model(CFG, 20)
    cells = distill.grid_specs((1, 2), (1, 2))
    dspec = DistillSpec(mode=mode, temperature=4.0, alpha_soft=0.3,
                        mlm_mask_rate=0.2)
    want = oracles.cli_distill_cells_ref("runs/teacher_seed3.sdcw", teacher, cells, mode, dspec,
                                         lines, train, vocab, SPEC, 3, TYPES)
    got = distill.distill_grid({"teacher_seed3": teacher}, mode,
                               lines if mode == "task_agnostic" else train, vocab, cells, [4.0],
                               SPEC, 3, entity_types=TYPES, alpha_soft=0.3, mlm_mask_rate=0.2)
    assert list(got) == list(want)
    for name, (student, kd_trace) in got.items():
        ref_student, ref_kd_trace, ref_ft_trace = want[name]
        ft_trace = []
        if mode == "task_agnostic":  # the CLI fine-tunes what agnostic distillation gives
            ft_trace = model.finetune(student, train, vocab, SPEC, 3, entity_types=TYPES)
        assert (kd_trace, ft_trace) == (ref_kd_trace, ref_ft_trace)
        assert digest(student) == digest(ref_student)


def test_distill_grid_trains_a_given_student_as_the_cli_did(corpus):
    train, vocab, lines = corpus
    teacher = model.init_model(CFG, 21)
    held = distill.init_student(teacher, StudentSpec(1, 2), 22)
    dspec = DistillSpec(mode="task_specific")
    want = oracles.cli_distill_cells_ref("teacher.sdcw", teacher, [StudentSpec(1, 2)],
                                         "task_specific", dspec, lines, train, vocab, SPEC, 4,
                                         TYPES, student_in=held)
    given = model.clone_model(held)
    got = distill.distill_grid({"teacher": teacher}, "task_specific", train, vocab,
                               [StudentSpec(1, 2)], [dspec.temperature], SPEC, 4,
                               entity_types=TYPES, student=given)
    ((name, (student, kd_trace)),) = got.items()
    assert student is given
    assert name in want and kd_trace == want[name][1]
    assert digest(student) == digest(want[name][0])


def test_distill_grid_rejects_repeated_cells_before_training(corpus, adam_feed):
    train, vocab, _ = corpus
    teacher = model.init_model(CFG, 23)
    steps = adam_feed(dense=False)
    with pytest.raises(ParameterError, match="duplicate grid cell"):
        distill.distill_grid({"t": teacher}, "task_specific", train, vocab,
                             distill.grid_specs((1, 2, 1), (2,)), [8.0], SPEC, 5)
    with pytest.raises(ParameterError, match="one grid cell"):
        distill.distill_grid({"t": teacher}, "task_specific", train, vocab,
                             distill.grid_specs((1, 2), (2,)), [8.0], SPEC, 5,
                             student=distill.init_student(teacher, StudentSpec(1, 2), 0))
    assert steps == []
