import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcw import data, model, prune, rng
from sdcw import tensor as T
from sdcw.errors import DataError, ParameterError, ShapeError
from sdcw.rng import stream

from oracles import copying_tape, grad_rel_err, truncated_normal_rescan

TINY = model.EncoderConfig(num_layers=2, num_heads=2, hidden_size=16, ffn_size=32,
                           vocab_size=100, max_positions=32, num_classes=9)


def rand_inputs(gen, cfg, b=3, s=8, pad_tail=0):
    ids = gen.integers(0, cfg.vocab_size, size=(b, s))
    mask = np.ones((b, s), dtype=bool)
    if pad_tail:
        ids[:, -pad_tail:] = data.PAD
        mask[:, -pad_tail:] = False
    return ids, mask


# ---------------------------------------------------------------------------
# init

def test_init_deterministic_per_seed():
    m1 = model.init_model(TINY, seed=4)
    m2 = model.init_model(TINY, seed=4)
    for name in m1.params:
        np.testing.assert_array_equal(m1.param(name).data, m2.param(name).data)
    m3 = model.init_model(TINY, seed=5)
    assert any(not np.array_equal(m1.param(n).data, m3.param(n).data) for n in m1.params)


def test_init_rejects_indivisible_heads():
    with pytest.raises(ParameterError):
        model.init_model(model.EncoderConfig(1, 2, 9, 16, 50, 16, 5), seed=0)


def test_init_weight_statistics():
    cfg = model.EncoderConfig(1, 2, 64, 256, 400, 64, 9)
    m = model.init_model(cfg, seed=7)
    w = m.param("embeddings.token").data.reshape(-1)
    assert w.size >= 1e4
    # sample mean within 3 sigma of 0 (std 0.02 truncated at 2 sigma)
    assert abs(w.mean()) < 3 * 0.02 / np.sqrt(w.size)
    assert np.all(np.abs(w) <= 0.04 + 1e-7)
    assert np.all(m.param("layers.0.attn_norm.gain").data == 1.0)
    assert np.all(m.param("layers.0.attn.bq").data == 0.0)


@settings(max_examples=150, deadline=None)
@example(seed=3, shape=(4, 0, 2), std=0.02, clip_sigmas=0.25)
@example(seed=4, shape=(300, 200), std=0.02, clip_sigmas=0.25)
@given(seed=st.integers(0, 2**63 - 1),
       shape=st.one_of(st.integers(0, 400),
                       st.lists(st.integers(0, 24), min_size=1, max_size=3).map(tuple)),
       std=st.sampled_from([0.02, 1.0, 3.5]),
       clip_sigmas=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]))
def test_truncated_normal_equals_the_full_rescan(seed, shape, std, clip_sigmas):
    # clip_sigmas 0.25 keeps ~20 % of each round, so most draws take many rounds
    got_gen, want_gen = stream(seed, "tn"), stream(seed, "tn")
    got = rng.truncated_normal(got_gen, shape, std=std, clip_sigmas=clip_sigmas)
    want = truncated_normal_rescan(want_gen, shape, std=std, clip_sigmas=clip_sigmas)
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert _same_state(got_gen.bit_generator.state, want_gen.bit_generator.state)


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _param_digest(m: model.EncoderModel) -> str:
    h = hashlib.sha256()
    for name, p in m.params.items():
        h.update(name.encode())
        h.update(str(p.data.dtype).encode() + str(p.data.shape).encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("cfg", [model.desk_config(),
                                 model.reference_config(num_layers=2, vocab_size=4000)],
                         ids=["desk", "reference-2-layer"])
def test_init_model_digest_equals_the_one_drawn_with_the_full_rescan(cfg, monkeypatch):
    digest = _param_digest(model.init_model(cfg, seed=11))
    monkeypatch.setattr(rng, "truncated_normal", truncated_normal_rescan)
    assert digest == _param_digest(model.init_model(cfg, seed=11))


def test_param_names_unique_and_stable():
    names = model.param_names(TINY)
    assert len(names) == len(set(names))
    assert names == model.param_names(TINY)
    assert list(model.init_model(TINY, 0).params) == names


# ---------------------------------------------------------------------------
# forward

def test_forward_output_shape():
    gen = stream(0, "fwd-shape")
    m = model.init_model(TINY, seed=1)
    ids, mask = rand_inputs(gen, TINY, b=4, s=10)
    out = model.forward(m, ids, mask)
    assert out.shape == (4, 10, TINY.num_classes)


def test_forward_rejects_out_of_range_ids():
    m = model.init_model(TINY, seed=1)
    ids = np.zeros((1, 4), dtype=np.int64)
    ids[0, 2] = TINY.vocab_size
    with pytest.raises(DataError) as exc:
        model.forward(m, ids, np.ones((1, 4), dtype=bool))
    assert "(0, 2)" in str(exc.value)


def test_forward_rejects_long_sequences():
    m = model.init_model(TINY, seed=1)
    s = TINY.max_positions + 1
    with pytest.raises(ShapeError):
        model.forward(m, np.zeros((1, s), dtype=np.int64), np.ones((1, s), dtype=bool))


def test_masked_tail_does_not_affect_real_tokens():
    cfg = model.EncoderConfig(1, 2, 16, 32, 100, 32, 9)
    m = model.init_model(cfg, seed=3)
    gen = stream(1, "fwd-mask")
    ids, mask = rand_inputs(gen, cfg, b=2, s=10, pad_tail=4)
    base = model.forward(m, ids, mask).data
    shuffled = ids.copy()
    shuffled[:, -4:] = gen.integers(0, cfg.vocab_size, size=(2, 4))
    perturbed = model.forward(m, shuffled, mask).data
    np.testing.assert_allclose(base[:, :6], perturbed[:, :6], atol=1e-6)


def test_identical_rows_in_batch_get_identical_logits():
    m = model.init_model(TINY, seed=2)
    gen = stream(2, "fwd-rows")
    row = gen.integers(0, TINY.vocab_size, size=(1, 7))
    ids = np.vstack([row, row])
    mask = np.ones((2, 7), dtype=bool)
    out = model.forward(m, ids, mask).data
    np.testing.assert_array_equal(out[0], out[1])


def test_forward_equals_composed_layers():
    m = model.init_model(TINY, seed=6)
    gen = stream(3, "fwd-compose")
    ids, mask = rand_inputs(gen, TINY, b=2, s=6)
    full = model.forward_hidden(m, ids, mask).data
    x = model.embed(m, ids, mask)
    for i in range(TINY.num_layers):
        x = model.apply_layer(m, i, x, mask)
    np.testing.assert_array_equal(full, x.data)


def test_fp32_and_pruned_logits_equal_the_copying_tape(trained_model, desk_corpus):
    """The int8 modes are checked against the hand-written quantized forward
    in `test_quant.py`."""
    pruned = model.clone_model(trained_model)
    prune.apply_mask(pruned, prune.compute_mask(pruned, 0.5))
    tb = data.batch(desk_corpus[2], desk_corpus[3], 32, 16)[0]

    def logits():
        return [model.forward(m, tb.token_ids, tb.attention_mask).data.tobytes()
                for m in (trained_model, pruned)]

    got = logits()
    with copying_tape():
        assert logits() == got
    assert got[0] != got[1]


def test_attention_rows_sum_to_one(monkeypatch):
    m = model.init_model(TINY, seed=8)
    gen = stream(4, "fwd-attnsum")
    ids, mask = rand_inputs(gen, TINY, b=2, s=9, pad_tail=3)
    collected: list = []
    softmax = T.softmax

    def collecting(a):
        collected.append(softmax(a))
        return collected[-1]

    # TapeKernel looks its tape ops up on every use, so it calls the patched one
    monkeypatch.setattr(T, "softmax", collecting)
    model.forward(m, ids, mask)
    assert len(collected) == TINY.num_layers
    for probs in collected:
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-5)
        # no probability mass on masked keys
        assert np.all(probs.data[..., -3:] < 1e-6)


def test_forward_deterministic_without_dropout():
    m = model.init_model(TINY, seed=9)
    gen = stream(5, "fwd-det")
    ids, mask = rand_inputs(gen, TINY)
    a = model.forward(m, ids, mask).data
    b = model.forward(m, ids, mask).data
    np.testing.assert_array_equal(a, b)


def test_two_layer_model_loss_gradcheck():
    cfg = model.EncoderConfig(2, 2, 8, 16, 30, 16, 5)
    m = model.init_model(cfg, seed=10)
    gen = stream(6, "fwd-gradcheck")
    # std-0.02 init leaves interior gradients below fp32 forward noise, so
    # the finite-difference oracle needs training-scale weights to see them
    for name, p in m.params.items():
        if name.endswith("gain"):
            p.data = (1.0 + 0.2 * gen.normal(0, 1, p.shape)).astype(np.float32)
        else:
            p.data = gen.normal(0, 0.4, p.shape).astype(np.float32)
    ids = gen.integers(0, cfg.vocab_size, size=(2, 5))
    mask = np.ones((2, 5), dtype=bool)
    labels = gen.integers(0, cfg.num_classes, size=10)

    def loss_tensor():
        logits = model.forward(m, ids, mask)
        return T.cross_entropy(T.reshape(logits, (-1, cfg.num_classes)), labels)

    for name in ("layers.0.attn.wq", "layers.1.ffn.w2", "head.weight", "embeddings.norm.gain"):
        p = m.param(name)
        T.backward(loss_tensor())
        analytic = p.grad.copy()
        T.zero_grads(m.params)

        def loss_at(x, p=p):
            saved = p.data.copy()
            p.data = x.astype(np.float32)
            try:
                with T.no_grad():
                    return float(loss_tensor().item())
            finally:
                p.data = saved

        assert grad_rel_err(analytic, loss_at, p.data) < 1e-3, name


# ---------------------------------------------------------------------------
# parameter accounting

def test_count_params_matches_independent_closed_form():
    cfg = model.EncoderConfig(num_layers=2, num_heads=2, hidden_size=16, ffn_size=32,
                              vocab_size=100, max_positions=32, num_classes=9)
    m = model.init_model(cfg, seed=0)
    V, H, P, L, F, C = 100, 16, 32, 2, 32, 9
    expected = V * H + P * H + 2 * H + L * (4 * H * H + 4 * H + 2 * H * F + H + F + 4 * H) + H * C + C
    assert model.count_params(m) == expected
    assert model.count_params_config(cfg) == expected


def test_count_params_zero_layers_is_embeddings_plus_head():
    cfg = model.EncoderConfig(0, 2, 16, 32, 100, 32, 9)
    m = model.init_model(cfg, seed=0)
    assert model.count_params(m) == 100 * 16 + 32 * 16 + 2 * 16 + 16 * 9 + 9


def test_count_params_layer_doubling_adds_exact_blocks():
    small = model.count_params_config(model.EncoderConfig(2, 2, 16, 32, 100, 32, 9))
    large = model.count_params_config(model.EncoderConfig(4, 2, 16, 32, 100, 32, 9))
    H, F = 16, 32
    block = 4 * H * H + 4 * H + 2 * H * F + H + F + 4 * H
    assert large - small == 2 * block


def test_reference_dims_presets_approximate_published_sizes():
    base = model.count_params_config(model.reference_config("base"))
    large = model.count_params_config(model.reference_config("large"))
    assert abs(base - 111e6) / 111e6 < 0.01
    assert abs(large - 126e6) / 126e6 < 0.01


# ---------------------------------------------------------------------------
# fine-tuning

def _toy_data(n=40, seed=0, vocab_cap=TINY.vocab_size):
    train, _, _ = data.synth_ner_corpus(seed, max(n, 10))
    vocab = data.build_vocab(data.corpus_token_lists(train), vocab_cap)
    return train, vocab


def _eval_loss(m, tb) -> float:
    """Evaluation-mode cross-entropy of one batch."""
    with T.no_grad():
        logits = model.forward(m, tb.token_ids, tb.attention_mask)
        flat = T.reshape(logits, (-1, m.config.num_classes))
        return T.cross_entropy(flat, tb.label_ids.reshape(-1)).item()


def test_single_epoch_reduces_batch_loss():
    train, vocab = _toy_data(40)
    cfg = replace(model.desk_config(), hidden_size=32, ffn_size=64)
    m = model.init_model(cfg, seed=1)
    (tb,) = data.batch(train[:8], vocab, 32, 8)
    before = _eval_loss(m, tb)
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=32, epochs=1)
    model.finetune(m, train[:8], vocab, spec, seed=1)
    assert _eval_loss(m, tb) < before


def test_zero_learning_rate_keeps_parameters():
    train, vocab = _toy_data(20)
    m = model.init_model(TINY, seed=2)
    snapshot = {n: p.data.copy() for n, p in m.params.items()}
    spec = model.TrainSpec(learning_rate=0.0, batch_size=8, max_seq_len=16, epochs=1)
    model.finetune(m, train[:10], vocab, spec, seed=2)
    for n, before in snapshot.items():
        np.testing.assert_array_equal(m.param(n).data, before)


def test_empty_dataset_errors():
    _, vocab = _toy_data(20)
    m = model.init_model(TINY, seed=2)
    with pytest.raises(DataError):
        model.finetune(m, [], vocab, model.TrainSpec(epochs=1), seed=0)


def test_seeds_give_distinct_reproducible_traces():
    train, vocab = _toy_data(40)
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)

    def run(seed):
        m = model.init_model(TINY, seed=seed)
        return model.finetune(m, train[:24], vocab, spec, seed=seed)

    traces = {seed: run(seed) for seed in (1, 3, 5)}
    assert run(3) == traces[3]
    assert len({tuple(t) for t in traces.values()}) == 3
    agg = np.mean([t[-1] for t in traces.values()]), np.std([t[-1] for t in traces.values()])
    assert np.isfinite(agg).all()


def test_training_bit_identical_across_runs():
    train, vocab = _toy_data(30)
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)

    def run():
        m = model.init_model(TINY, seed=11)
        model.finetune(m, train[:16], vocab, spec, seed=11)
        return {n: p.data.copy() for n, p in m.params.items()}

    a, b = run(), run()
    for n in a:
        np.testing.assert_array_equal(a[n], b[n])


def test_finetune_row_sparse_adam_equals_the_dense_update(desk_corpus, adam_feed):
    train, _, _, vocab = desk_corpus
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=16, max_seq_len=32, epochs=2)

    def run(dense: bool):
        states = adam_feed(dense)
        m = model.init_model(model.desk_config(), seed=4)
        trace = model.finetune(m, train[:96], vocab, spec, seed=4)
        return m, trace, states[-1]

    sparse, sparse_trace, state = run(dense=False)
    dense, dense_trace, dense_state = run(dense=True)
    assert sparse_trace == dense_trace
    for name, p in sparse.params.items():
        assert p.data.tobytes() == dense.param(name).data.tobytes(), name
    assert dense_state.rows == {}
    assert {n for n, r in state.rows.items() if r.size} == {"embeddings.token", "embeddings.position"}
    assert 0 < state.rows["embeddings.token"].size < sparse.config.vocab_size
