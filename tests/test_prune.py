import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcw import data, model, prune
from sdcw.errors import DataError, ParameterError, ShapeError
from sdcw.rng import stream

from oracles import compute_mask_sorted

TINY = model.EncoderConfig(num_layers=2, num_heads=2, hidden_size=16, ffn_size=32,
                           vocab_size=120, max_positions=32, num_classes=9)

PUBLISHED_SWEEP = {
    0.10: 7_078_579, 0.20: 14_157_158, 0.30: 21_235_738, 0.40: 28_314_317,
    0.50: 35_392_896, 0.60: 42_471_475, 0.70: 49_550_054, 0.80: 56_628_634,
    0.90: 63_707_213, 0.95: 67_246_502,
}


def _toy_data(seed=0):
    train, _, _ = data.synth_ner_corpus(seed, 40)
    vocab = data.build_vocab(data.corpus_token_lists(train), TINY.vocab_size)
    return train, vocab


# ---------------------------------------------------------------------------
# bookkeeping

def test_sparsity_sweep_matches_published_counts_within_two():
    counts = prune.sparsity_sweep_counts()
    for p, published in PUBLISHED_SWEEP.items():
        assert abs(counts[p] - published) <= 2, (p, counts[p], published)


def test_pruned_count_examples():
    assert prune.pruned_count(0.10, prune.REFERENCE_PRUNABLE_TOTAL) == 7_078_579
    assert prune.pruned_count(0.0, 100) == 0
    assert prune.pruned_count(0.5, 3) == 2  # round half up


# ---------------------------------------------------------------------------
# mask computation

def test_zero_sparsity_gives_all_ones_and_zero_threshold():
    # threshold 0: every weight has |w| >= 0, so every weight is kept
    m = model.init_model(TINY, seed=1)
    mask = prune.compute_mask(m, 0.0)
    assert mask.zeros() == 0
    assert all(np.all(v == 1) for v in mask.masks.values())


# one layer of width 1 and FFN width 3: its whole prunable scope is 10 weights
NARROW = model.EncoderConfig(num_layers=1, num_heads=1, hidden_size=1, ffn_size=3,
                             vocab_size=8, max_positions=4, num_classes=3)


def test_hand_example_prunes_smallest_magnitudes():
    m = model.init_model(NARROW, seed=1)
    planted = [-3.0, 1.0, -0.5, 2.0, 5.0, -4.0, 0.25, 6.0, -7.0, 1.5]
    values = iter(planted)
    for n in prune.prunable_names(m):
        w = m.param(n).data.reshape(-1)
        w[:] = [next(values) for _ in range(w.size)]
    mask = prune.compute_mask(m, 0.5)  # the 5 smallest magnitudes: 0.25, 0.5, 1, 1.5, 2
    kept = np.concatenate([mask.masks[n].reshape(-1) for n in prune.prunable_names(m)])
    np.testing.assert_array_equal(kept, [1, 0, 0, 0, 1, 1, 0, 1, 1, 0])


def test_mask_invalid_sparsity():
    m = model.init_model(TINY, seed=1)
    for bad in (-0.1, 0.991, 1.5):
        with pytest.raises(ParameterError):
            prune.compute_mask(m, bad)


def test_exact_count_property_across_seeds_and_levels():
    for seed in (1, 2, 3):
        m = model.init_model(TINY, seed=seed)
        names = prune.prunable_names(m)
        total = sum(m.param(n).size for n in names)
        for p in PUBLISHED_SWEEP:
            mask = prune.compute_mask(m, p)
            assert mask.zeros() == prune.pruned_count(p, total), (seed, p)


def _assert_same_mask(got: prune.PruneMask, want: prune.PruneMask) -> None:
    assert list(got.masks) == list(want.masks)
    for n, w in want.masks.items():
        assert got.masks[n].dtype == w.dtype and got.masks[n].shape == w.shape, n
        np.testing.assert_array_equal(got.masks[n], w, err_msg=n)


# a few magnitudes with random signs (0 gives both zeros), so that ties at the
# k-th magnitude are the rule and must be cut by index, not by signed value
_TIED_MAGNITUDES = (0.0, 0.25, 0.5, 1.0, 3.0)
_LEVELS = (0.0, 0.99, *PUBLISHED_SWEEP)


def _fill(m: model.EncoderModel, seed: int, palette) -> None:
    gen = np.random.default_rng(seed)
    for prm in m.params.values():
        if palette is None:
            prm.data = gen.normal(0, 1, prm.shape).astype(np.float32)
        else:
            mags = gen.choice(np.array(palette, dtype=np.float32), size=prm.shape)
            prm.data = np.where(gen.random(prm.shape) < 0.5, -mags, mags)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       palette=st.one_of(st.none(), st.lists(st.sampled_from(_TIED_MAGNITUDES), min_size=1,
                                             max_size=3)),
       p=st.one_of(st.sampled_from(_LEVELS), st.floats(0.0, 0.99)))
def test_mask_and_threshold_equal_the_stable_sort(seed, palette, p):
    m = model.init_model(TINY, seed=1)
    _fill(m, seed, palette)
    mask = prune.compute_mask(m, p)
    _assert_same_mask(mask, compute_mask_sorted(m, p))
    # a global threshold separates the kept magnitudes from the pruned ones
    mags = {n: np.abs(m.param(n).data) for n in mask.masks}
    kept = [mags[n][bits == 1] for n, bits in mask.masks.items()]
    pruned = [mags[n][bits == 0] for n, bits in mask.masks.items()]
    if any(a.size for a in kept) and any(a.size for a in pruned):
        assert max(a.max(initial=0.0) for a in pruned) <= min(a.min(initial=np.inf) for a in kept)


@pytest.mark.parametrize("palette", [None, (0.5,), (0.0, 1.0)])
@pytest.mark.parametrize("p", [0.95, 0.99])
def test_mask_of_a_tiny_scope_pruned_whole_equals_the_stable_sort(palette, p):
    # 10 weights in scope: round(0.95 * 10) = round(0.99 * 10) = 10, so k = N
    m = model.init_model(NARROW, seed=1)
    _fill(m, 5, palette)
    mask = prune.compute_mask(m, p)
    assert mask.zeros() == mask.total() == 10
    _assert_same_mask(mask, compute_mask_sorted(m, p))


def test_non_finite_weights_in_scope_raise_naming_the_tensor():
    m = model.init_model(TINY, seed=1)
    names = prune.prunable_names(m)
    m.param(names[2]).data[1, 3] = np.nan
    m.param(names[5]).data[0, 0] = np.inf
    for p in (0.0, 0.5):
        with pytest.raises(DataError, match=re.escape(f"non-finite weights in '{names[2]}'")):
            prune.compute_mask(m, p)
    m.param(names[2]).data[1, 3] = 0.5
    with pytest.raises(DataError, match=re.escape(f"non-finite weights in '{names[5]}'")):
        prune.compute_mask(m, 0.5)
    m.param(names[5]).data[0, 0] = -0.5
    _assert_same_mask(prune.compute_mask(m, 0.5), compute_mask_sorted(m, 0.5))


def test_threshold_consistency_kept_vs_pruned():
    gen = stream(3, "prune-threshold")
    m = model.init_model(TINY, seed=4)
    for n in prune.prunable_names(m):
        m.param(n).data = gen.normal(0, 1, m.param(n).shape).astype(np.float32)
    mask = prune.compute_mask(m, 0.6)
    kept_min = min(np.abs(m.param(n).data[mask.masks[n] == 1]).min()
                   for n in mask.masks)
    pruned_max = max(np.abs(m.param(n).data[mask.masks[n] == 0]).max()
                     for n in mask.masks)
    assert kept_min >= pruned_max


def test_prunable_scope_excludes_embeddings_biases_norms_head():
    m = model.init_model(TINY, seed=1)
    names = prune.prunable_names(m)
    assert all((".attn.w" in n) or (".ffn.w" in n) for n in names)
    assert len(names) == TINY.num_layers * 6
    per_layer = 4 * 16 * 16 + 2 * 16 * 32
    assert sum(m.param(n).size for n in names) == TINY.num_layers * per_layer


# ---------------------------------------------------------------------------
# mask application

def test_apply_all_ones_mask_is_identity():
    m = model.init_model(TINY, seed=5)
    snapshot = {n: p.data.copy() for n, p in m.params.items()}
    prune.apply_mask(m, prune.compute_mask(m, 0.0))
    for n in snapshot:
        np.testing.assert_array_equal(m.param(n).data, snapshot[n])


def test_apply_mask_idempotent():
    m = model.init_model(TINY, seed=6)
    mask = prune.compute_mask(m, 0.4)
    prune.apply_mask(m, mask)
    once = {n: m.param(n).data.copy() for n in mask.masks}
    prune.apply_mask(m, mask)
    for n in once:
        np.testing.assert_array_equal(m.param(n).data, once[n])


def test_apply_mask_leaves_positive_zeros_and_keeps_the_rest():
    m = model.init_model(TINY, seed=6)
    before = {n: p.data.copy() for n, p in m.params.items()}
    mask = prune.compute_mask(m, 0.6)
    prune.apply_mask(m, mask)
    for n, bits in mask.masks.items():
        w = m.param(n).data
        assert np.signbit(before[n][bits == 0]).any()  # -w * 0 would give -0.0 here
        assert not w[bits == 0].view(np.uint32).any()
        assert w[bits == 1].tobytes() == before[n][bits == 1].tobytes()


def test_apply_mask_shape_mismatch_names_tensor():
    m = model.init_model(TINY, seed=6)
    mask = prune.compute_mask(m, 0.4)
    name = next(iter(mask.masks))
    mask.masks[name] = np.ones((2, 2), dtype=np.uint8)
    with pytest.raises(ShapeError) as exc:
        prune.apply_mask(m, mask)
    assert name in str(exc.value)


def test_masked_forward_equals_manually_zeroed_model():
    gen = stream(7, "prune-equiv")
    m = model.init_model(TINY, seed=7)
    mask = prune.compute_mask(m, 0.5)
    manual = model.clone_model(m)
    for n, bits in mask.masks.items():
        manual.param(n).data[bits == 0] = 0.0
    prune.apply_mask(m, mask)
    ids = gen.integers(0, TINY.vocab_size, size=(2, 6))
    attn = np.ones((2, 6), dtype=bool)
    np.testing.assert_array_equal(model.forward(m, ids, attn).data,
                                  model.forward(manual, ids, attn).data)


def test_measure_sparsity_fresh_model_near_zero():
    m = model.init_model(TINY, seed=8)
    assert prune.measure_sparsity(m) < 1e-4


def test_measure_sparsity_after_aggressive_prune():
    m = model.init_model(TINY, seed=8)
    prune.apply_mask(m, prune.compute_mask(m, 0.95))
    total = sum(m.param(n).size for n in prune.prunable_names(m))
    assert abs(prune.measure_sparsity(m) - 0.95) <= 1.0 / total


# ---------------------------------------------------------------------------
# training integration

def test_masked_weights_stay_zero_through_training():
    train, vocab = _toy_data()
    m = model.init_model(TINY, seed=9)
    mask = prune.compute_mask(m, 0.5)
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=3)
    prune.masked_finetune(m, mask, train, vocab, spec, seed=9)
    for n, bits in mask.masks.items():
        np.testing.assert_array_equal(m.param(n).data[bits == 0], 0.0)
    total = sum(m.param(n).size for n in prune.prunable_names(m))
    assert abs(prune.measure_sparsity(m) - 0.5) <= 1.0 / total


def test_zero_sparsity_masked_finetune_matches_plain_finetune():
    train, vocab = _toy_data()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)
    a = model.init_model(TINY, seed=10)
    prune.masked_finetune(a, prune.compute_mask(a, 0.0), train, vocab, spec, seed=10)
    b = model.init_model(TINY, seed=10)
    model.finetune(b, train, vocab, spec, seed=10)
    for n in a.params:
        np.testing.assert_array_equal(a.param(n).data, b.param(n).data)


def test_schedule_validation():
    with pytest.raises(ParameterError):
        prune.PruneSchedule("sometimes").validate()
    with pytest.raises(ParameterError):
        prune.PruneSchedule("during", 3, 3, 1).validate()
    with pytest.raises(ParameterError):
        prune.PruneSchedule("during", 0, 2, 0).validate()
    prune.PruneSchedule("during", 0, 2, 4).validate()


def test_before_schedule_equals_compute_then_masked_finetune():
    train, vocab = _toy_data()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)
    a = model.init_model(TINY, seed=11)
    prune.run_schedule(a, 0.4, prune.PruneSchedule("before"), train, vocab, spec, seed=11)
    b = model.init_model(TINY, seed=11)
    prune.masked_finetune(b, prune.compute_mask(b, 0.4), train, vocab, spec, seed=11)
    for n in a.params:
        np.testing.assert_array_equal(a.param(n).data, b.param(n).data)


def test_after_schedule_equals_finetune_then_prune():
    train, vocab = _toy_data()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)
    a = model.init_model(TINY, seed=12)
    prune.run_schedule(a, 0.6, prune.PruneSchedule("after"), train, vocab, spec, seed=12)
    b = model.init_model(TINY, seed=12)
    model.finetune(b, train, vocab, spec, seed=12)
    prune.apply_mask(b, prune.compute_mask(b, 0.6))
    for n in a.params:
        np.testing.assert_array_equal(a.param(n).data, b.param(n).data)


def test_gradual_single_step_equals_prune_then_train():
    train, vocab = _toy_data()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)
    a = model.init_model(TINY, seed=13)
    sched = prune.PruneSchedule("during", start_epoch=0, end_epoch=2, steps=1)
    prune.gradual_prune_finetune(a, 0.5, sched, train, vocab, spec, seed=13)
    b = model.init_model(TINY, seed=13)
    prune.masked_finetune(b, prune.compute_mask(b, 0.5), train, vocab, spec, seed=13)
    for n in a.params:
        np.testing.assert_array_equal(a.param(n).data, b.param(n).data)


def test_gradual_ramp_is_monotone_and_exact_at_the_end():
    train, vocab = _toy_data()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=4)
    m = model.init_model(TINY, seed=14)
    sched = prune.PruneSchedule("during", start_epoch=0, end_epoch=4, steps=5)
    mask, _, ramp = prune.gradual_prune_finetune(m, 0.8, sched, train, vocab, spec, seed=14)
    assert len(ramp) == 5
    assert all(b >= a - 1e-9 for a, b in zip(ramp, ramp[1:]))
    total = sum(m.param(n).size for n in prune.prunable_names(m))
    assert ramp[-1] == mask.zeros() / total
    assert mask.zeros() == prune.pruned_count(0.8, total)
    assert abs(prune.measure_sparsity(m) - 0.8) <= 1.0 / total


def test_gradual_ramp_equals_the_one_with_the_sorted_mask(monkeypatch):
    train, vocab = _toy_data()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=3)
    sched = prune.PruneSchedule("during", start_epoch=0, end_epoch=3, steps=4)
    runs = []
    for compute in (prune.compute_mask, compute_mask_sorted):
        monkeypatch.setattr(prune, "compute_mask", compute)
        m = model.init_model(TINY, seed=17)
        runs.append((m, *prune.gradual_prune_finetune(m, 0.9, sched, train, vocab, spec,
                                                      seed=17)))
    (a, mask_a, trace_a, ramp_a), (b, mask_b, trace_b, ramp_b) = runs
    _assert_same_mask(mask_a, mask_b)
    assert trace_a == trace_b and ramp_a == ramp_b and len(ramp_a) == 4
    for n in a.params:
        assert a.param(n).data.tobytes() == b.param(n).data.tobytes(), n


def test_gradual_schedule_window_past_training_still_lands_on_target():
    train, vocab = _toy_data()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=1)
    m = model.init_model(TINY, seed=16)
    sched = prune.PruneSchedule("during", start_epoch=2, end_epoch=6, steps=3)
    mask, _, ramp = prune.gradual_prune_finetune(m, 0.7, sched, train, vocab, spec, seed=16)
    assert ramp == []
    total = sum(m.param(n).size for n in prune.prunable_names(m))
    assert mask.zeros() == prune.pruned_count(0.7, total)
    assert abs(prune.measure_sparsity(m) - 0.7) <= 1.0 / total


def test_gradual_ramp_cut_short_ends_below_the_target_and_the_mask_lands_on_it():
    train, vocab = _toy_data()
    spec = model.TrainSpec(learning_rate=1e-3, batch_size=8, max_seq_len=16, epochs=2)
    m = model.init_model(TINY, seed=16)
    sched = prune.PruneSchedule("during", start_epoch=0, end_epoch=4, steps=4)
    mask, _, ramp = prune.gradual_prune_finetune(m, 0.7, sched, train, vocab, spec, seed=16)
    total = sum(m.param(n).size for n in prune.prunable_names(m))
    # ramp steps at tau 1/4 and 2/4 fall in the two epochs trained
    assert ramp == [prune.pruned_count(prune.cubic_ramp(0.7, tau), total) / total
                    for tau in (0.25, 0.5)]
    assert mask.zeros() == prune.pruned_count(0.7, total)
    assert prune.measure_sparsity(m) == mask.zeros() / total


def test_cubic_ramp_shape():
    assert prune.cubic_ramp(0.8, 0.0) == 0.0
    assert prune.cubic_ramp(0.8, 1.0) == pytest.approx(0.8)
    assert prune.cubic_ramp(0.8, 0.5) == pytest.approx(0.8 * 0.875)
    ts = np.linspace(0, 1, 20)
    vals = [prune.cubic_ramp(0.6, t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))

