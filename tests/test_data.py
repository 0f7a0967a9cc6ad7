import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcw import data
from sdcw.errors import DataError, ParameterError
from sdcw.evaluation import EntitySpan, extract_spans
from sdcw.tensor import IGNORE_INDEX

from oracles import synth_ner_corpus_choice, synth_pretrain_corpus_choice

TYPES = data.DEFAULT_ENTITY_TYPES


# ---------------------------------------------------------------------------
# CoNLL io

def test_conll_round_trip_bytes(tmp_path):
    sents = [
        data.Sentence(["Kwame", "visited", "Mopti"], ["B-PER", "O", "B-LOC"]),
        data.Sentence(["Monday"], ["B-DATE"]),
    ]
    p1, p2 = tmp_path / "a.conll", tmp_path / "b.conll"
    data.write_conll(sents, p1)
    reparsed = data.load_conll(p1)
    data.write_conll(reparsed, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert reparsed[0].tokens == sents[0].tokens and reparsed[1].tags == sents[1].tags


def test_conll_write_failing_mid_write_keeps_the_previous_file(tmp_path, fail_mid_write):
    path = tmp_path / "a.conll"
    data.write_conll([data.Sentence(["Kwame"], ["B-PER"])], path)
    before = path.read_bytes()
    fail_mid_write(1)  # the first token line goes through, the second fails
    with pytest.raises(OSError):
        data.write_conll([data.Sentence(["Mopti", "Monday"], ["B-LOC", "B-DATE"])], path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["a.conll"]


def test_conll_three_fields_errors_with_line(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("Kwame B-PER\nvisited O extra\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        data.load_conll(p)
    assert ":2" in str(exc.value)


def test_conll_unknown_tag_errors_with_tag_and_line(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("Kwame B-PER\nMopti B-CITY\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        data.load_conll(p)
    assert "B-CITY" in str(exc.value) and ":2" in str(exc.value)


def test_i_without_b_parses_and_opens_a_span(tmp_path):
    p = tmp_path / "odd.conll"
    p.write_text("Keita I-PER\nvisited O\n", encoding="utf-8")
    sents = data.load_conll(p)
    assert sents[0].tags == ["I-PER", "O"]
    assert extract_spans(sents[0].tags) == [EntitySpan("PER", 0, 0)]


# ---------------------------------------------------------------------------
# corpus preprocessing

def test_preprocess_token_count_boundary():
    eleven = " ".join(["tok"] * 11)
    twelve = " ".join(["tok"] * 12)
    assert data.preprocess_corpus([eleven]) == []
    assert data.preprocess_corpus([twelve]) == [twelve]


def test_preprocess_drops_punctuation_only_lines():
    assert data.preprocess_corpus(["!!! ... ??? -- ()[] {} ;; :: ,, .. !! ??"]) == []


def test_preprocess_keeps_mixed_punctuation_and_words():
    line = "word " * 12 + "!!!"
    assert data.preprocess_corpus([line]) == [line]


def test_preprocess_empty_and_whitespace():
    assert data.preprocess_corpus([]) == []
    assert data.preprocess_corpus(["", "   ", "\t"]) == []


def test_preprocess_idempotent():
    lines = ["", "short line", " ".join(["w"] * 15), "!?!?", " ".join(["x"] * 30)]
    once = data.preprocess_corpus(lines)
    assert data.preprocess_corpus(once) == once


# ---------------------------------------------------------------------------
# vocabulary

def test_vocab_keeps_most_frequent_with_lexicographic_ties():
    vocab = data.build_vocab([["b", "a", "a", "c", "b"]], max_size=len(data.SPECIAL_TOKENS) + 2)
    kept = vocab.id_to_token[len(data.SPECIAL_TOKENS):]
    assert kept == ["a", "b"]  # a and b tie at 2 > c; then frequency order


def test_vocab_single_slot_keeps_top_token():
    vocab = data.build_vocab([["a", "a", "b"]], max_size=len(data.SPECIAL_TOKENS) + 1)
    assert vocab.encode("a") != data.UNK
    assert vocab.encode("b") == data.UNK


def test_vocab_unseen_token_is_unk():
    vocab = data.build_vocab([["hello"]], max_size=10)
    assert vocab.encode("goodbye") == data.UNK


def test_vocab_deterministic():
    corpus = [["z", "y", "x"], ["y", "z"], ["z"]]
    v1 = data.build_vocab(corpus, 8)
    v2 = data.build_vocab(corpus, 8)
    assert v1.id_to_token == v2.id_to_token


def test_vocab_max_size_below_specials_errors():
    with pytest.raises(ParameterError):
        data.build_vocab([["a"]], max_size=len(data.SPECIAL_TOKENS) - 1)


def test_vocab_save_load_round_trip(tmp_path):
    vocab = data.build_vocab([["alpha", "beta"]], 10)
    vocab.save(tmp_path / "v.txt")
    again = data.Vocabulary.load(tmp_path / "v.txt")
    assert again.id_to_token == vocab.id_to_token


def test_vocab_save_failing_mid_write_keeps_the_previous_file(tmp_path, fail_mid_write):
    path = tmp_path / "v.txt"
    data.build_vocab([["alpha", "beta"]], 10).save(path)
    before = path.read_bytes()
    fail_mid_write(0)
    with pytest.raises(OSError):
        data.build_vocab([["gamma", "delta", "eps"]], 10).save(path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["v.txt"]


# ---------------------------------------------------------------------------
# synthetic corpus

def test_synth_tags_are_valid_bio():
    train, dev, test = data.synth_ner_corpus(5, 200)
    for sent in train + dev + test:
        assert len(sent.tokens) == len(sent.tags)
        for prev, tag in zip(["O"] + sent.tags, sent.tags):
            data.validate_tag(tag, TYPES)
            assert not tag.startswith("I-") or prev[2:] == tag[2:], (prev, tag)


def test_synth_split_ratios():
    train, dev, test = data.synth_ner_corpus(5, 1000)
    assert len(train) == 700 and len(dev) == 100 and len(test) == 200


def test_synth_deterministic_per_seed():
    a = data.synth_ner_corpus(9, 50)
    b = data.synth_ner_corpus(9, 50)
    assert all(x.tokens == y.tokens and x.tags == y.tags
               for xs, ys in zip(a, b) for x, y in zip(xs, ys))
    c = data.synth_ner_corpus(10, 50)
    assert any(x.tokens != y.tokens for x, y in zip(a[0], c[0]))


def test_synth_entity_base_rates_match_mixture():
    # the entity types are equally likely
    train, dev, test = data.synth_ner_corpus(3, 1500, TYPES)
    counts = dict.fromkeys(TYPES, 0)
    for sent in train + dev + test:
        for tag in sent.tags:
            if tag.startswith("B-"):
                counts[tag[2:]] += 1
    total = sum(counts.values())
    for etype in TYPES:
        assert abs(counts[etype] / total - 0.25) < 0.1 * 0.25 + 0.02


def test_synth_rejects_tiny_corpus():
    with pytest.raises(ParameterError):
        data.synth_ner_corpus(1, 9)


def test_synth_pools_are_disjoint_across_types():
    seen = {}
    for etype, pool in data._POOLS.items():
        for tok in pool:
            assert tok not in seen, f"{tok} in both {etype} and {seen.get(tok)}"
            seen[tok] = etype
        assert not set(pool) & set(data._FILLERS)


def test_synth_pretrain_corpus_survives_preprocessing():
    lines = data.synth_pretrain_corpus(2, 100)
    assert data.preprocess_corpus(lines) == lines


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 120),
       types=st.lists(st.sampled_from(TYPES), min_size=1, max_size=4, unique=True))
def test_synth_corpus_equals_the_choice_draws(seed, n, types):
    got = data.synth_ner_corpus(seed, n, tuple(types))
    want = synth_ner_corpus_choice(seed, n, tuple(types))
    assert [[(s.tokens, s.tags) for s in split] for split in got] \
        == [[(s.tokens, s.tags) for s in split] for split in want]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40))
def test_synth_pretrain_corpus_equals_the_choice_draws(seed, n):
    assert data.synth_pretrain_corpus(seed, n) == synth_pretrain_corpus_choice(seed, n)


def test_synth_rejects_no_entity_types():
    with pytest.raises(ParameterError):
        data.synth_ner_corpus(1, 20, ())


# ---------------------------------------------------------------------------
# batching

def _tiny_vocab(sents):
    return data.build_vocab(data.corpus_token_lists(sents), 500)


def test_batch_mask_counts_match_token_counts():
    sents = [data.Sentence(["a", "b"], ["O", "O"]),
             data.Sentence(["c"], ["O"]),
             data.Sentence(["d", "e", "f"], ["O", "O", "O"])]
    batches = data.batch(sents, _tiny_vocab(sents), max_seq_len=16, batch_size=2)
    total_mask = sum(int(tb.attention_mask.sum()) for tb in batches)
    assert total_mask == sum(len(s.tokens) for s in sents) + len(sents)  # +BOS each


def test_batch_truncates_tokens_and_tags_in_lockstep():
    sent = data.Sentence(["t" + str(i) for i in range(10)],
                         ["B-PER"] + ["I-PER"] * 9)
    vocab = _tiny_vocab([sent])
    (tb,) = data.batch([sent], vocab, max_seq_len=5, batch_size=1)
    assert tb.token_ids.shape == (1, 5)
    assert tb.token_ids[0, 0] == data.BOS
    live = tb.label_ids[0] != IGNORE_INDEX
    assert live.tolist() == [False, True, True, True, True]
    labels = data.bio_labels(TYPES)
    assert [labels[t] for t in tb.label_ids[0][live]] == ["B-PER", "I-PER", "I-PER", "I-PER"]


def test_batch_sizes_with_ragged_tail():
    sents = [data.Sentence(["w"], ["O"]) for _ in range(35)]
    batches = data.batch(sents, _tiny_vocab(sents), max_seq_len=8, batch_size=16)
    assert [tb.token_ids.shape[0] for tb in batches] == [16, 16, 3]


def test_batch_rejects_tiny_max_seq_len():
    with pytest.raises(ParameterError):
        data.batch([data.Sentence(["a"], ["O"])], _tiny_vocab([]), max_seq_len=1, batch_size=4)


def test_batch_preserves_token_tag_multiset():
    train, _, _ = data.synth_ner_corpus(4, 60)
    vocab = data.build_vocab(data.corpus_token_lists(train), 2000)
    labels = data.bio_labels(TYPES)
    batches = data.batch(train, vocab, max_seq_len=64, batch_size=7, shuffle_seed=123)
    from collections import Counter
    original = Counter((tok, tag) for s in train for tok, tag in zip(s.tokens, s.tags))
    rebuilt = Counter()
    for tb in batches:
        for r in range(tb.token_ids.shape[0]):
            live = tb.label_ids[r] != IGNORE_INDEX
            for tid, lid in zip(tb.token_ids[r][live], tb.label_ids[r][live]):
                rebuilt[(vocab.decode(int(tid)), labels[int(lid)])] += 1
    assert rebuilt == original


def test_batch_shuffle_deterministic():
    sents = [data.Sentence([f"t{i}"], ["O"]) for i in range(40)]
    vocab = _tiny_vocab(sents)
    b1 = data.batch(sents, vocab, 8, 8, shuffle_seed=7)
    b2 = data.batch(sents, vocab, 8, 8, shuffle_seed=7)
    b3 = data.batch(sents, vocab, 8, 8, shuffle_seed=8)
    assert all(np.array_equal(x.token_ids, y.token_ids) for x, y in zip(b1, b2))
    assert any(not np.array_equal(x.token_ids, y.token_ids) for x, y in zip(b1, b3))


def test_batch_unknown_tag_errors():
    sent = data.Sentence(["a"], ["B-PER"])
    vocab = _tiny_vocab([sent])
    with pytest.raises(DataError):
        data.batch([sent], vocab, 8, 1, entity_types=("ORG",))


# ---------------------------------------------------------------------------
# randomized round-trip property

@st.composite
def sentences_strategy(draw):
    n = draw(st.integers(1, 6))
    out = []
    token_st = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
    for _ in range(n):
        length = draw(st.integers(1, 8))
        tokens = [draw(token_st) for _ in range(length)]
        tags = []
        prev = "O"
        for _ in range(length):
            choices = ["O"] + [f"B-{t}" for t in TYPES]
            if prev != "O":
                choices.append("I-" + prev[2:])
            tag = draw(st.sampled_from(choices))
            tags.append(tag)
            prev = tag
        out.append(data.Sentence(tokens, tags))
    return out


@settings(max_examples=40, deadline=None)
@given(sentences_strategy())
def test_conll_round_trip_property(tmp_path_factory, sents):
    path = tmp_path_factory.mktemp("rt") / "c.conll"
    data.write_conll(sents, path)
    again = data.load_conll(path)
    assert [(s.tokens, s.tags) for s in again] == [(s.tokens, s.tags) for s in sents]
