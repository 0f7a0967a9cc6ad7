"""NER datasets: CoNLL-style files, corpus filters, vocabulary, batching,
and a synthetic tagged corpus for desk-scale experiments."""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import rng
from .atomic import atomic_write
from .errors import DataError, ParameterError
from .tensor import IGNORE_INDEX

DEFAULT_ENTITY_TYPES = ("PER", "ORG", "LOC", "DATE")

PAD, UNK, MASK, BOS = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<mask>", "<s>")

CORPUS_MIN_TOKENS = 11  # `preprocess_corpus` keeps lines of more tokens
PRETRAIN_LINE_TOKENS = (12, 18)  # fewest and most tokens of a `synth_pretrain_corpus` line


@dataclass
class Sentence:
    tokens: list[str]
    tags: list[str]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.tags):
            raise DataError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags in sentence"
            )


def bio_labels(entity_types: Sequence[str]) -> list[str]:
    """Label inventory: O first, then B-X/I-X per type in the given order."""
    out = ["O"]
    for t in entity_types:
        out.append(f"B-{t}")
        out.append(f"I-{t}")
    return out


def validate_tag(tag: str, entity_types: Sequence[str]) -> None:
    if tag == "O":
        return
    if len(tag) > 2 and tag[1] == "-" and tag[0] in "BI" and tag[2:] in entity_types:
        return
    raise DataError(f"tag '{tag}' outside the BIO scheme for types {tuple(entity_types)}")


def load_conll(path, entity_types: Sequence[str] = DEFAULT_ENTITY_TYPES) -> list[Sentence]:
    """Parse a UTF-8 file of "token<space>tag" lines, blank line between sentences."""
    sentences: list[Sentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                if tokens:
                    sentences.append(Sentence(tokens, tags))
                    tokens, tags = [], []
                continue
            fields = line.split()
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: expected 'token tag', got {len(fields)} fields")
            token, tag = fields
            try:
                validate_tag(tag, entity_types)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            tokens.append(token)
            tags.append(tag)
    if tokens:
        sentences.append(Sentence(tokens, tags))
    return sentences


def write_conll(sentences: Iterable[Sentence], path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            for token, tag in zip(sent.tokens, sent.tags):
                fh.write(f"{token} {tag}\n")
            fh.write("\n")


# ---------------------------------------------------------------------------
# corpus preprocessing

def _punct_only(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not any(ch.isalnum() for ch in stripped)


def preprocess_corpus(lines: Iterable[str]) -> list[str]:
    """Drop empty lines, punctuation-only lines, and lines of at most
    CORPUS_MIN_TOKENS whitespace tokens (a line must have *more* to survive)."""
    out = []
    for line in lines:
        line = line.rstrip("\n")
        if not line.strip() or _punct_only(line):
            continue
        if len(line.split()) <= CORPUS_MIN_TOKENS:
            continue
        out.append(line)
    return out


# ---------------------------------------------------------------------------
# vocabulary

@dataclass
class Vocabulary:
    id_to_token: list[str]

    def __post_init__(self) -> None:
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def encode_tokens(self, tokens: Sequence[str]) -> list[int]:
        return [self.encode(t) for t in tokens]

    def decode(self, idx: int) -> str:
        return self.id_to_token[idx]

    def save(self, path) -> None:
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.id_to_token) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        if tokens[: len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
            raise DataError(f"vocabulary file {path} is missing the special tokens")
        return cls(tokens)


def build_vocab(token_lists: Iterable[Sequence[str]], max_size: int) -> Vocabulary:
    """Frequency vocabulary over whitespace tokens, ties broken lexicographically."""
    if max_size < len(SPECIAL_TOKENS):
        raise ParameterError(
            f"max_size {max_size} smaller than the {len(SPECIAL_TOKENS)} special tokens"
        )
    counts: dict[str, int] = {}
    for tokens in token_lists:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(SPECIAL_TOKENS)]]
    return Vocabulary(list(SPECIAL_TOKENS) + keep)


# ---------------------------------------------------------------------------
# synthetic corpus

_FILLERS = (
    "the a of in on at to from with and or for near under over after before "
    "while said met visited opened closed announced reported traveled returned "
    "spoke gathered during between among around through beyond across again "
    "quietly early late twice soon"
).split()

# One surface pool per entity type, disjoint across types (the type of a
# token is a lexical cue). B and I positions draw from the same pool, so
# span boundaries are decidable only from context, not from the token alone.
_POOLS: dict[str, list[str]] = {
    "PER": (
        "Abena Adama Amara Ayo Chidi Efua Femi Imani Jabari Kesi Kwame Lulu "
        "Nia Obi Sefu Tano Zalika Zuri Binta Pili "
        "Abubakar Diallo Keita Mensah Ndiaye Okafor Otieno Sowande Traore Wanjiku"
    ).split(),
    "ORG": (
        "Transcorp Agribank Medialink Solarworks Havencourt Primexa Quorumtel "
        "Vantagecorp Zenbank Craterlabs "
        "Holdings Limited Group Trust Agency Network Labs Partners Collective Services"
    ).split(),
    "LOC": (
        "Lakeshore Kandara Mopti Bandira Sokoto Tarime Wenchi Zomba Karonga Lusitu "
        "District Valley Province Harbor Heights Junction Plains Ridge Falls Crossing"
    ).split(),
    "DATE": (
        "January February March April May June July August September October "
        "November December Monday Tuesday Wednesday Thursday Friday Saturday Sunday "
        "2 5 9 12 14 17 21 23 26 28"
    ).split(),
}


# Every draw below takes from `gen` exactly what `Generator.choice` would:
# choice(seq) draws integers(0, len(seq)), and choice(seq, p=p) draws one
# random() and looks it up in the CDF p.cumsum() / p.cumsum()[-1]. So the
# corpora equal those of choice-based code, without converting a list or
# checking p on every draw.

def _cdf(p: np.ndarray) -> list[float]:
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


_N_ENTITIES_CDF = _cdf(np.array([0.40, 0.45, 0.15]))  # 1, 2 or 3 entities
_SPAN_LEN_CDF = _cdf(np.array([0.25, 0.40, 0.35]))    # 1, 2 or 3 tokens


def _pick(gen: np.random.Generator, seq: Sequence[str]) -> str:
    return seq[int(gen.integers(0, len(seq)))]


def _pick_index(gen: np.random.Generator, cdf: list[float]) -> int:
    return bisect_right(cdf, gen.random())


def _synth_sentence(gen: np.random.Generator, entity_types: Sequence[str],
                    mix_cdf: list[float]) -> Sentence:
    n_entities = 1 + _pick_index(gen, _N_ENTITIES_CDF)
    tokens: list[str] = []
    tags: list[str] = []
    for _ in range(n_entities):
        for _ in range(int(gen.integers(1, 4))):
            tokens.append(_pick(gen, _FILLERS))
            tags.append("O")
        etype = entity_types[_pick_index(gen, mix_cdf)]
        pool = _POOLS[etype]
        span_len = 1 + _pick_index(gen, _SPAN_LEN_CDF)
        for j in range(span_len):
            tokens.append(_pick(gen, pool))
            tags.append(("B-" if j == 0 else "I-") + etype)
    for _ in range(int(gen.integers(1, 3))):
        tokens.append(_pick(gen, _FILLERS))
        tags.append("O")
    return Sentence(tokens, tags)


def synth_ner_corpus(
    seed: int,
    n_sentences: int,
    entity_types: Sequence[str] = DEFAULT_ENTITY_TYPES,
) -> tuple[list[Sentence], list[Sentence], list[Sentence]]:
    """Template-generated NER corpus with disjoint surface vocabulary per
    entity type, the types equally likely, split 70/10/20 into
    train/dev/test. Deterministic per seed."""
    if n_sentences < 10:
        raise ParameterError(f"n_sentences must be >= 10, got {n_sentences}")
    if not entity_types:
        raise ParameterError("entity_types is empty")
    unknown = [t for t in entity_types if t not in _POOLS]
    if unknown:
        raise ParameterError(f"no surface pool for entity types {unknown}")
    gen = rng.stream(seed, "synth-ner")
    types, mix_cdf = list(entity_types), _cdf(np.full(len(entity_types), 1.0 / len(entity_types)))
    sentences = [_synth_sentence(gen, types, mix_cdf) for _ in range(n_sentences)]
    n_train = round(0.7 * n_sentences)
    n_dev = round(0.1 * n_sentences)
    return (
        sentences[:n_train],
        sentences[n_train : n_train + n_dev],
        sentences[n_train + n_dev :],
    )


def synth_pretrain_corpus(seed: int, n_lines: int) -> list[str]:
    """Unlabeled synthetic text (entity surface forms mixed into filler text),
    each line long enough to survive `preprocess_corpus`."""
    gen = rng.stream(seed, "synth-pretrain")
    all_entities = [tok for pool in _POOLS.values() for tok in pool]
    lo, hi = PRETRAIN_LINE_TOKENS
    lines = []
    for _ in range(n_lines):
        n = int(gen.integers(lo, hi + 1))
        toks = []
        for _ in range(n):
            if gen.random() < 0.25:
                toks.append(_pick(gen, all_entities))
            else:
                toks.append(_pick(gen, _FILLERS))
        lines.append(" ".join(toks))
    return lines


def corpus_token_lists(sentences_or_lines) -> list[list[str]]:
    """Uniform view of tokens for vocabulary building."""
    out = []
    for item in sentences_or_lines:
        if isinstance(item, Sentence):
            out.append(item.tokens)
        else:
            out.append(str(item).split())
    return out


# ---------------------------------------------------------------------------
# batching

@dataclass
class TokenizedBatch:
    token_ids: np.ndarray      # int64 [b, s], BOS-prefixed, PAD-padded
    attention_mask: np.ndarray  # bool  [b, s], True exactly on real tokens (incl. BOS)
    label_ids: np.ndarray       # int64 [b, s], IGNORE_INDEX on BOS and padding


def batch(
    sentences: Sequence[Sentence],
    vocab: Vocabulary,
    max_seq_len: int,
    batch_size: int,
    shuffle_seed: int | None = None,
    entity_types: Sequence[str] = DEFAULT_ENTITY_TYPES,
) -> list[TokenizedBatch]:
    """Tokenize, truncate to max_seq_len (tags in lockstep), pad per batch.

    A BOS token is prepended to every sequence and labeled IGNORE_INDEX, so
    max_seq_len - 1 content tokens survive truncation.
    """
    if max_seq_len < 2:
        raise ParameterError(f"max_seq_len must be >= 2, got {max_seq_len}")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    label_map = {tag: i for i, tag in enumerate(bio_labels(entity_types))}
    order = np.arange(len(sentences))
    if shuffle_seed is not None:
        order = rng.stream(shuffle_seed, "batch-shuffle").permutation(order)
    batches: list[TokenizedBatch] = []
    for start in range(0, len(sentences), batch_size):
        chunk = [sentences[i] for i in order[start : start + batch_size]]
        lens = [min(len(s.tokens), max_seq_len - 1) for s in chunk]
        width = max(lens) + 1
        b = len(chunk)
        ids = np.full((b, width), PAD, dtype=np.int64)
        mask = np.zeros((b, width), dtype=bool)
        labels = np.full((b, width), IGNORE_INDEX, dtype=np.int64)
        for r, (sent, n) in enumerate(zip(chunk, lens)):
            ids[r, 0] = BOS
            ids[r, 1 : n + 1] = vocab.encode_tokens(sent.tokens[:n])
            mask[r, : n + 1] = True
            for c, tag in enumerate(sent.tags[:n]):
                if tag not in label_map:
                    raise DataError(f"tag '{tag}' not in the label set {sorted(label_map)}")
                labels[r, c + 1] = label_map[tag]
        batches.append(TokenizedBatch(ids, mask, labels))
    return batches
