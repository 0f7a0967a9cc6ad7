import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sdcw import atomic, data, model
from sdcw import tensor as T


@pytest.fixture(scope="session")
def desk_corpus():
    train, dev, test = data.synth_ner_corpus(1, 800)
    vocab = data.build_vocab(data.corpus_token_lists(train), 2000)
    return train, dev, test, vocab


@pytest.fixture(scope="session")
def trained_model(desk_corpus):
    """One fine-tuned desk model shared (read-only) across the suite."""
    train, _, _, vocab = desk_corpus
    m = model.init_model(model.desk_config(), seed=1)
    model.finetune(m, train, vocab, model.desk_train_spec(), seed=1)
    return m


@pytest.fixture()
def trained_clone(trained_model):
    return model.clone_model(trained_model)


@pytest.fixture()
def adam_feed(monkeypatch):
    """feed(dense) re-binds tensor.adam_step so that each call gets the grads
    it was handed (dense=False) or copies of them (dense=True: a copy is not
    p.grad, so every parameter takes the dense update). feed returns the list
    of AdamStates the calls receive."""
    original = T.adam_step

    def feed(dense: bool) -> list:
        states = []

        def step(params, grads, state):
            states.append(state)
            if dense:
                grads = {n: None if g is None else g.copy() for n, g in grads.items()}
            original(params, grads, state)

        monkeypatch.setattr(T, "adam_step", step)
        return states

    return feed


@pytest.fixture()
def traced_peak():
    """traced_peak(fn, *args) -> (fn's result, the peak bytes allocated while
    it ran, as tracemalloc counts them; numpy's buffers are counted)."""
    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run


class _FailingFile:
    """A file whose `writes`-th write (counting from 0) stores half its data
    and then fails as a full disk would."""

    def __init__(self, fh, writes: int):
        self._fh, self._left = fh, writes

    def write(self, data):
        if self._left == 0:
            self._fh.write(data[: len(data) // 2])
            self._fh.flush()
            raise OSError(28, "No space left on device")
        self._left -= 1
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.fixture()
def fail_mid_write(monkeypatch):
    """fail_mid_write(writes) makes the next crash-safe write fail part-way
    through its `writes`-th write call."""
    def arm(writes: int = 0) -> None:
        monkeypatch.setattr(atomic, "open", lambda *a, **kw: _FailingFile(open(*a, **kw), writes),
                            raising=False)
    return arm
