import numpy as np
import pytest

from sdcw import data, evaluation, model, prune
from sdcw.errors import DataError, ParameterError
from sdcw.evaluation import EntitySpan, compare, evaluate, extract_spans, span_prf
from sdcw.quant import quantize_model_dynamic
from sdcw.rng import stream

from oracles import brute_force_spans, prf_oracle

TYPES = data.DEFAULT_ENTITY_TYPES


# ---------------------------------------------------------------------------
# span extraction

def test_extract_spans_hand_example():
    spans = extract_spans(["B-PER", "I-PER", "O", "B-LOC"])
    assert spans == [EntitySpan("PER", 0, 1), EntitySpan("LOC", 3, 3)]


def test_extract_spans_all_outside():
    assert extract_spans(["O", "O", "O"]) == []


def test_extract_spans_repairs_leading_inside_tag():
    assert extract_spans(["I-PER"]) == [EntitySpan("PER", 0, 0)]
    assert extract_spans(["O", "I-LOC", "I-LOC"]) == [EntitySpan("LOC", 1, 2)]


def test_extract_spans_b_starts_new_span():
    spans = extract_spans(["B-PER", "B-PER", "I-PER"])
    assert spans == [EntitySpan("PER", 0, 0), EntitySpan("PER", 1, 2)]


def test_extract_spans_type_change_splits():
    spans = extract_spans(["B-PER", "I-LOC"])
    assert spans == [EntitySpan("PER", 0, 0), EntitySpan("LOC", 1, 1)]


def test_extract_spans_unknown_tag():
    with pytest.raises(DataError):
        extract_spans(["B-PER", "X-THING"])


def _random_tags(gen, length):
    tags = []
    for _ in range(length):
        roll = gen.random()
        if roll < 0.4:
            tags.append("O")
        elif roll < 0.7:
            tags.append(f"B-{gen.choice(TYPES)}")
        else:
            tags.append(f"I-{gen.choice(TYPES)}")
    return tags


def test_extract_spans_matches_brute_force_on_random_sequences():
    gen = stream(0, "span-oracle")
    for _ in range(300):
        tags = _random_tags(gen, int(gen.integers(1, 15)))
        got = {(s.entity_type, s.start, s.end) for s in extract_spans(tags)}
        assert got == brute_force_spans(tags), tags


# ---------------------------------------------------------------------------
# micro-averaged scoring

def test_prf_perfect_prediction():
    tags = [["B-PER", "I-PER", "O"], ["B-DATE"]]
    assert span_prf(tags, tags) == (1.0, 1.0, 1.0)


def test_prf_hand_example_half():
    gold = [["B-PER", "I-PER", "O", "B-LOC", "O"]]
    pred = [["B-PER", "I-PER", "O", "O", "B-LOC"]]
    assert span_prf(gold, pred) == (0.5, 0.5, 0.5)


def test_prf_empty_prediction_zero_by_convention():
    gold = [["B-PER", "O"]]
    pred = [["O", "O"]]
    assert span_prf(gold, pred) == (0.0, 0.0, 0.0)


def test_prf_length_mismatch_names_sentence():
    with pytest.raises(DataError) as exc:
        span_prf([["O", "O"]], [["O"]])
    assert "sentence 0" in str(exc.value)


def test_prf_matches_brute_force_oracle_on_100_corpora():
    gen = stream(1, "prf-oracle")
    for _ in range(100):
        n = int(gen.integers(1, 8))
        gold, pred = [], []
        for _ in range(n):
            length = int(gen.integers(1, 12))
            gold.append(_random_tags(gen, length))
            pred.append(_random_tags(gen, length))
        assert span_prf(gold, pred) == pytest.approx(prf_oracle(gold, pred))


def test_prf_invariant_under_corpus_duplication():
    gen = stream(2, "prf-dup")
    gold = [_random_tags(gen, 10) for _ in range(5)]
    pred = [_random_tags(gen, 10) for _ in range(5)]
    base = span_prf(gold, pred)
    assert span_prf(gold * 3, pred * 3) == pytest.approx(base)


def test_prf_invariant_under_sentence_permutation():
    gen = stream(3, "prf-perm")
    gold = [_random_tags(gen, 9) for _ in range(6)]
    pred = [_random_tags(gen, 9) for _ in range(6)]
    base = span_prf(gold, pred)
    order = gen.permutation(6)
    assert span_prf([gold[i] for i in order], [pred[i] for i in order]) == pytest.approx(base)


# ---------------------------------------------------------------------------
# model evaluation

def test_evaluate_deterministic_metrics(desk_corpus, trained_model):
    _, _, test, vocab = desk_corpus
    a = evaluate(trained_model, test, vocab, dataset_id="synth")
    b = evaluate(trained_model, test, vocab, dataset_id="synth")
    for field in ("loss", "precision", "recall", "f1", "model_bytes",
                  "nonzero_params", "total_params", "sparsity"):
        assert getattr(a, field) == getattr(b, field), field


def test_evaluate_accounting_identity(desk_corpus, trained_clone):
    _, _, test, vocab = desk_corpus
    m = trained_clone
    prune.apply_mask(m, prune.compute_mask(m, 0.5))
    rep = evaluate(m, test, vocab, dataset_id="synth")
    zeros = sum(int((p.data == 0).sum()) for p in m.params.values())
    assert rep.nonzero_params + zeros == rep.total_params == model.count_params(m)
    total_prunable = sum(m.param(n).size for n in prune.prunable_names(m))
    assert abs(rep.sparsity - 0.5) <= 1.0 / total_prunable


def test_evaluate_fills_size_fields(desk_corpus, trained_model):
    _, _, test, vocab = desk_corpus
    rep = evaluate(trained_model, test, vocab, dataset_id="synth")
    # a handle has no file, so the report gives no byte count rather than one
    # that may differ from a file's (a pruned file holds its mask records too)
    assert rep.model_bytes is None
    assert rep.total_params == model.count_params(trained_model)
    assert rep.mode == "fp32"
    # evaluate reads no clock: `measure_inference_time` is the one timer
    assert not set(rep.to_dict()) & set(evaluation.TIMING_FIELDS)


def test_evaluate_quantized_handle(desk_corpus, trained_model):
    _, _, test, vocab = desk_corpus
    qm = quantize_model_dynamic(trained_model)
    rep = evaluate(qm, test, vocab, dataset_id="synth")
    assert rep.mode == "dynamic_int8"
    assert rep.model_bytes is None
    assert 0.0 <= rep.f1 <= 1.0


def test_evaluate_empty_dataset_errors(desk_corpus, trained_model):
    _, _, _, vocab = desk_corpus
    with pytest.raises(DataError):
        evaluate(trained_model, [], vocab)


def test_evaluate_identical_after_save_load_round_trip(desk_corpus, trained_model, tmp_path):
    from sdcw.persist import load_model, save_model as save
    _, _, test, vocab = desk_corpus
    save(trained_model, tmp_path / "rt.sdcw")
    again, _ = load_model(tmp_path / "rt.sdcw")
    assert model.count_params(again) == model.count_params(trained_model)
    a = evaluate(trained_model, test, vocab, dataset_id="synth")
    b = evaluate(again, test, vocab, dataset_id="synth")
    for field in ("loss", "precision", "recall", "f1", "model_bytes",
                  "nonzero_params", "total_params", "sparsity"):
        assert getattr(a, field) == getattr(b, field), field


def _tagging_oracle(monkeypatch, vocab: data.Vocabulary, tag_of: dict[str, str]):
    """Make every handle predict tag_of[token] for each token it sees."""
    labels = data.bio_labels(TYPES)
    label_of_id = np.zeros(vocab.size, dtype=np.int64)
    for tok, tag in tag_of.items():
        label_of_id[vocab.encode(tok)] = labels.index(tag)

    def logits(handle, token_ids, attention_mask):
        out = np.zeros(token_ids.shape + (len(labels),), dtype=np.float32)
        np.put_along_axis(out, label_of_id[token_ids][..., None], 1.0, axis=-1)
        return out

    monkeypatch.setattr(evaluation, "forward_logits", logits)


def test_evaluate_counts_a_gold_entity_past_the_cut_as_a_miss(monkeypatch):
    # 40 tokens, the only entity at tokens 36-37: max_seq_len 32 keeps 31
    long = data.Sentence(["w"] * 36 + ["Kwame", "Mensah", "w", "w"],
                         ["O"] * 36 + ["B-PER", "I-PER", "O", "O"])
    short = data.Sentence(["w", "Mopti"], ["O", "B-LOC"])
    vocab = data.build_vocab(data.corpus_token_lists([long, short]), 20)
    _tagging_oracle(monkeypatch, vocab, {"w": "O", "Kwame": "B-PER", "Mensah": "I-PER",
                                         "Mopti": "B-LOC"})
    handle = model.init_model(model.EncoderConfig(num_layers=0, num_heads=1, hidden_size=4,
                                                  ffn_size=4, vocab_size=vocab.size,
                                                  max_positions=64, num_classes=9), seed=1)
    rep = evaluate(handle, [long, short], vocab, max_seq_len=32)
    # every token the model sees is tagged right; the cut entity is missed
    assert (rep.precision, rep.recall, rep.f1) == (1.0, 0.5, pytest.approx(2 / 3))
    assert rep.truncated_tokens == 9
    full = evaluate(handle, [long, short], vocab, max_seq_len=41)
    assert (full.precision, full.recall, full.truncated_tokens) == (1.0, 1.0, 0)
    cut_type = data.Sentence(long.tokens, long.tags[:36] + ["B-XYZ", "O", "O", "O"])
    with pytest.raises(DataError):
        evaluate(handle, [cut_type], vocab, max_seq_len=32)


def test_evaluate_truncates_nothing_at_desk_size(desk_corpus, trained_model):
    _, _, test, vocab = desk_corpus
    assert max(len(s.tokens) for s in test) < 31
    assert evaluate(trained_model, test, vocab).truncated_tokens == 0


# ---------------------------------------------------------------------------
# timing

def test_measure_inference_time_protocol(desk_corpus, trained_model):
    _, _, test, vocab = desk_corpus
    stats = evaluation.measure_inference_time(trained_model, test[:48], vocab,
                                              reps=3, warmup=1)
    assert stats["reps"] == 3 and stats["warmup"] == 1
    assert stats["median_ms"] > 0 and stats["mean_ms"] > 0
    assert stats["iqr_ms"] >= 0


def test_measure_inference_time_validation(desk_corpus, trained_model):
    _, _, test, vocab = desk_corpus
    with pytest.raises(ParameterError):
        evaluation.measure_inference_time(trained_model, test[:8], vocab, reps=2)
    with pytest.raises(ParameterError):
        evaluation.measure_inference_time(trained_model, test[:8], vocab, reps=3, warmup=0)


def test_more_batches_take_longer(desk_corpus, trained_model):
    _, _, test, vocab = desk_corpus
    small = evaluation.measure_inference_time(trained_model, test[:16], vocab,
                                              reps=3, warmup=1)
    large = evaluation.measure_inference_time(trained_model, test[:16] * 8, vocab,
                                              reps=3, warmup=1)
    assert large["median_ms"] > small["median_ms"]


# ---------------------------------------------------------------------------
# comparison reports

def _report(**kw):
    base = dict(dataset_id="d", mode="fp32", loss=0.2, precision=0.9, recall=0.9,
                f1=0.9, model_bytes=100, nonzero_params=90,
                total_params=100, sparsity=0.0, truncated_tokens=0)
    base.update(kw)
    return evaluation.EvalReport(**base)


def test_compare_identity_is_all_zero_deltas():
    delta = compare(_report(), _report())
    assert delta["f1_delta_points"] == 0.0
    assert delta["size_reduction_pct"] == 0.0


def test_compare_size_reduction_arithmetic():
    delta = compare(_report(model_bytes=100), _report(model_bytes=36, mode="int8_mixed"))
    assert delta["size_reduction_pct"] == pytest.approx(64.0)


def test_compare_gives_no_size_reduction_without_both_sizes():
    for baseline, compressed in ((None, 36), (100, None), (None, None)):
        delta = compare(_report(model_bytes=baseline), _report(model_bytes=compressed))
        assert delta["size_reduction_pct"] is None
        assert (delta["baseline_bytes"], delta["compressed_bytes"]) == (baseline, compressed)
    assert compare(_report(), _report())["f1_delta_points"] == 0.0


def test_compare_requires_same_dataset():
    with pytest.raises(DataError):
        compare(_report(dataset_id="a"), _report(dataset_id="b"))


def test_compare_schema_covers_table_columns():
    delta = compare(_report(), _report(mode="dynamic_int8", f1=0.88, model_bytes=60,
                                       sparsity=0.5))
    for key in ("dataset_id", "baseline_f1", "compressed_f1", "f1_delta_points",
                "size_reduction_pct", "sparsity", "baseline_mode", "compressed_mode"):
        assert key in delta
    assert delta["f1_delta_points"] == pytest.approx(-2.0)
    assert not set(delta) & set(evaluation.TIMING_FIELDS)  # a delta of files, not of clocks
