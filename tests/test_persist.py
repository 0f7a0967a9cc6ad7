import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcw import evaluation, model, persist, prune, quant
from sdcw.errors import PersistError
from sdcw.rng import stream

from oracles import compute_mask_sorted, records_v1, save_v1

TINY = model.EncoderConfig(num_layers=2, num_heads=2, hidden_size=16, ffn_size=32,
                           vocab_size=120, max_positions=32, num_classes=9)


def _random_model(seed=1):
    m = model.init_model(TINY, seed=seed)
    gen = stream(seed, "persist-fill")
    for p in m.params.values():  # non-zero biases so nothing goes sparse
        p.data = gen.normal(0, 0.5, p.shape).astype(np.float32)
    return m


# ---------------------------------------------------------------------------
# fp32 round trips

def test_dense_round_trip_bit_for_bit(tmp_path):
    m = _random_model()
    path = tmp_path / "m.sdcw"
    n = persist.save_model(m, path)
    assert n == path.stat().st_size
    again, mask = persist.load_model(path)
    assert mask is None
    assert again.config == m.config
    for name in m.params:
        np.testing.assert_array_equal(again.param(name).data, m.param(name).data)


def test_save_failing_mid_write_keeps_the_previous_file(tmp_path, fail_mid_write):
    path = tmp_path / "m.sdcw"
    n = persist.save_model(_random_model(seed=1), path)
    before = path.read_bytes()
    assert n == len(before) == persist.serialized_bytes(_random_model(seed=1))
    fail_mid_write(12)
    with pytest.raises(PersistError, match="No space left"):
        persist.save_model(_random_model(seed=2), path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["m.sdcw"]


def test_serialized_bytes_matches_file_exactly(tmp_path):
    m = _random_model()
    assert persist.save_model(m, tmp_path / "a.sdcw") == persist.serialized_bytes(m)
    prune.apply_mask(m, prune.compute_mask(m, 0.7))
    assert persist.save_model(m, tmp_path / "b.sdcw") == persist.serialized_bytes(m)


def test_sparse_records_kick_in_at_half_zeros(tmp_path):
    m = _random_model()
    dense_bytes = persist.save_model(m, tmp_path / "dense.sdcw")
    prune.apply_mask(m, prune.compute_mask(m, 0.9))
    sparse_bytes = persist.save_model(m, tmp_path / "sparse.sdcw")
    assert sparse_bytes < dense_bytes
    again, _ = persist.load_model(tmp_path / "sparse.sdcw")
    for name in m.params:
        np.testing.assert_array_equal(again.param(name).data, m.param(name).data)


def test_sparse_break_even_arithmetic():
    # 8 bytes/nonzero vs 4 bytes/element: sparse wins exactly above 50% zeros
    w = np.zeros(100, dtype=np.float32)
    w[:49] = 1.0  # 51% zeros -> sparse
    tag = persist._f32_tag(w)
    assert tag == persist.DT_F32_SPARSE
    assert persist._payload_bytes(tag, w.shape, w) == 8 + 8 * 49
    w[:50] = 1.0  # exactly 50% zeros -> sparse (tie)
    assert persist._f32_tag(w) == persist.DT_F32_SPARSE
    w[:51] = 1.0  # 49% zeros -> dense
    assert persist._f32_tag(w) == persist.DT_F32
    assert persist._payload_bytes(persist.DT_F32, (100,), w) == 400


def test_mask_round_trip_as_bitmaps(tmp_path):
    m = _random_model(3)
    mask = prune.compute_mask(m, 0.6)
    prune.apply_mask(m, mask)
    persist.save_model(m, tmp_path / "masked.sdcw", mask=mask)
    again, loaded_mask = persist.load_model(tmp_path / "masked.sdcw")
    assert loaded_mask is not None
    assert set(loaded_mask.masks) == set(mask.masks)
    for name in mask.masks:
        np.testing.assert_array_equal(loaded_mask.masks[name], mask.masks[name])


def _version(path) -> int:
    return struct.unpack_from("<H", path.read_bytes(), 4)[0]


def _tags(obj, mask=None) -> list[int]:
    return [r[1] for r in persist._records_for(obj, mask)[2]]


def _assert_same_model(a, b) -> None:
    assert list(a.params) == list(b.params)
    for name, p in a.params.items():
        assert p.data.tobytes() == b.param(name).data.tobytes(), name


def _assert_same_mask(a, b) -> None:
    assert sorted(a.masks) == sorted(b.masks)
    for name, m in a.masks.items():
        np.testing.assert_array_equal(b.masks[name], m)


def test_pruned_model_reloads_byte_for_byte_as_one_masked_record_per_tensor(tmp_path):
    m = _random_model(3)
    mask = prune.compute_mask(m, 0.6)
    prune.apply_mask(m, mask)
    path = tmp_path / "pruned.sdcw"
    n = persist.save_model(m, path, mask=mask)
    assert n == persist.serialized_bytes(m, mask) == path.stat().st_size
    assert _version(path) == persist.MASKED_VERSION
    assert _tags(m, mask).count(persist.DT_F32_MASKED) == len(mask.masks)
    assert persist.DT_MASK not in _tags(m, mask)
    again, loaded = persist.load_model(path)
    _assert_same_model(m, again)  # pruned entries are +0.0 on both sides
    _assert_same_mask(mask, loaded)
    kept = sum(int(b.sum()) for b in mask.masks.values())
    dense = sum(4 * b.size for b in mask.masks.values())
    masked = sum(persist._payload_bytes(tag, shape, payload)
                 for _, tag, shape, payload in persist._records_for(m, mask)[2]
                 if tag == persist.DT_F32_MASKED)
    assert masked == 4 * kept + sum((b.size + 7) // 8 + 8 for b in mask.masks.values()) < dense


def test_files_without_masked_records_stay_version_1(tmp_path):
    m = _random_model(3)
    mask = prune.compute_mask(m, 0.6)
    multiplied = model.clone_model(m)  # -0.0 at pruned negative weights
    for name, bits in mask.masks.items():
        multiplied.param(name).data *= bits
    cases = {"dense": (m, None), "mask not applied": (m, mask),
             "-0.0 where pruned": (multiplied, mask),
             "dynamic": (quant.quantize_model_dynamic(m), None),
             "mixed": (quant.quantize_model_int8_mixed(m), None)}
    for what, (obj, obj_mask) in cases.items():
        path = tmp_path / "v1.sdcw"
        persist.save_model(obj, path, mask=obj_mask)
        assert _version(path) == persist.VERSION, what
        again, loaded = persist.load_model(path)
        if obj_mask is not None:
            assert _tags(obj, obj_mask).count(persist.DT_MASK) == len(mask.masks)
            _assert_same_mask(obj_mask, loaded)
            for name, p in obj.params.items():
                np.testing.assert_array_equal(again.param(name).data, p.data)


def test_a_tensor_not_zero_where_pruned_keeps_its_own_records(tmp_path):
    m = _random_model(3)
    mask = prune.compute_mask(m, 0.6)
    prune.apply_mask(m, mask)
    m.param("layers.1.attn.wv").data[mask.masks["layers.1.attn.wv"] == 0] = -0.0
    records = {r[0]: r[1] for r in persist._records_for(m, mask)[2]}
    assert records["layers.1.attn.wv"] in (persist.DT_F32, persist.DT_F32_SPARSE)
    assert records["mask:layers.1.attn.wv"] == persist.DT_MASK
    assert [n for n, tag in records.items() if tag == persist.DT_MASK] == ["mask:layers.1.attn.wv"]
    path = tmp_path / "m.sdcw"
    persist.save_model(m, path, mask=mask)
    assert _version(path) == persist.MASKED_VERSION
    again, loaded = persist.load_model(path)
    _assert_same_mask(mask, loaded)
    for name, p in m.params.items():
        np.testing.assert_array_equal(again.param(name).data, p.data)


def test_version_1_pruned_file_and_its_version_2_resave_load_equal(tmp_path):
    m = _random_model(4)
    mask = prune.compute_mask(m, 0.6)
    prune.apply_mask(m, mask)
    v1, v2 = tmp_path / "v1.sdcw", tmp_path / "v2.sdcw"
    save_v1(m, v1, mask)
    assert _version(v1) == persist.VERSION
    old, old_mask = persist.load_model(v1)
    persist.save_model(old, v2, mask=old_mask)
    assert _version(v2) == persist.MASKED_VERSION
    assert v2.stat().st_size < v1.stat().st_size
    new, new_mask = persist.load_model(v2)
    _assert_same_model(old, new)
    _assert_same_model(m, new)
    _assert_same_mask(old_mask, new_mask)
    _assert_same_mask(mask, new_mask)


def test_version_1_writer_reproduces_the_files_pruning_by_multiplication_made(tmp_path):
    # `apply_mask` once multiplied by the mask, leaving -0.0 at pruned negative
    # weights; the dense records of such a file keep them, the sparse ones do not
    pruned, mask = _four_handles()["pruned"]
    for name, p in pruned.params.items():
        p.data = _four_handles()["fp32"][0].param(name).data * mask.masks.get(name, 1)
    path = tmp_path / "v1.sdcw"
    save_v1(pruned, path, mask)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "32aa29936b69428acef63dbc48c7879e9dc602961916555795c55d156fc5065c"
    again, loaded = persist.load_model(path)
    _assert_same_mask(mask, loaded)
    for name, p in pruned.params.items():
        np.testing.assert_array_equal(again.param(name).data, p.data)


def test_pruning_commutes_with_save_load(tmp_path):
    m = _random_model(4)
    mask = prune.compute_mask(m, 0.5)
    # prune then save
    a = model.clone_model(m)
    prune.apply_mask(a, mask)
    persist.save_model(a, tmp_path / "a.sdcw")
    loaded_a, _ = persist.load_model(tmp_path / "a.sdcw")
    # save then prune
    persist.save_model(m, tmp_path / "b.sdcw")
    loaded_b, _ = persist.load_model(tmp_path / "b.sdcw")
    prune.apply_mask(loaded_b, mask)
    for name in m.params:
        np.testing.assert_array_equal(loaded_a.param(name).data, loaded_b.param(name).data)


# ---------------------------------------------------------------------------
# quantized handles

def test_quantized_dynamic_round_trip_preserves_int_path(tmp_path):
    m = _random_model(5)
    qm = quant.quantize_model_dynamic(m)
    n = persist.save_model(qm, tmp_path / "q.sdcw")
    assert n == persist.serialized_bytes(qm)
    again, _ = persist.load_model(tmp_path / "q.sdcw")
    assert again.mode == "dynamic_int8"
    assert list(again.params) == list(qm.params)
    for name, arr in qm.params.items():
        if isinstance(arr, quant.QuantizedTensor):
            np.testing.assert_array_equal(again.params[name].q, arr.q)
            np.testing.assert_array_equal(again.params[name].scales, arr.scales)
        else:
            np.testing.assert_array_equal(again.params[name], arr)
    gen = stream(6, "persist-qfwd")
    ids = gen.integers(0, TINY.vocab_size, size=(2, 8))
    mask = np.ones((2, 8), dtype=bool)
    np.testing.assert_array_equal(quant.quantized_forward(qm, ids, mask),
                                  quant.quantized_forward(again, ids, mask))


def test_quantized_mixed_stores_fp16_extras(tmp_path):
    m = _random_model(7)
    qm = quant.quantize_model_int8_mixed(m, threshold=6.0)
    persist.save_model(qm, tmp_path / "mix.sdcw")
    again, _ = persist.load_model(tmp_path / "mix.sdcw")
    assert again.mode == "int8_mixed"
    assert again.outlier_threshold == 6.0
    for name, arr in qm.params.items():
        if not isinstance(arr, quant.QuantizedTensor):
            np.testing.assert_array_equal(again.params[name],
                                          arr.astype(np.float16).astype(np.float32))


def test_quantized_weight_outlier_rows_survive_round_trip(tmp_path):
    m = _random_model(8)
    w = m.param("layers.0.attn.wq")
    w.data[3, :] *= 60.0  # force a weight-row outlier
    qm = quant.quantize_model_int8_mixed(m, threshold=6.0)
    qt = qm.params["layers.0.attn.wq"]
    assert 3 in qt.outlier_cols.tolist()
    persist.save_model(qm, tmp_path / "out.sdcw")
    again, _ = persist.load_model(tmp_path / "out.sdcw")
    qt2 = again.params["layers.0.attn.wq"]
    np.testing.assert_array_equal(qt2.outlier_cols, qt.outlier_cols)
    np.testing.assert_array_equal(qt2.outlier_values, qt.outlier_values)
    np.testing.assert_array_equal(qt2.dequant()[3, :], w.data[3, :])


def test_int8_record_roughly_quarter_of_fp32(tmp_path):
    cfg = model.desk_config()
    m = model.init_model(cfg, seed=9)
    gen = stream(9, "persist-quarter")
    for p in m.params.values():
        p.data = gen.normal(0, 0.5, p.shape).astype(np.float32)
    fp_bytes = persist.save_model(m, tmp_path / "fp.sdcw")
    q_bytes = persist.save_model(quant.quantize_model_dynamic(m), tmp_path / "q.sdcw")
    linear_fp = 4 * sum(p.size for n, p in m.params.items()
                        if n.endswith(quant._LINEAR_WEIGHTS))
    # quantized linears shrink ~4x (int8 + per-output scales); the rest stays fp32
    assert fp_bytes - linear_fp * 0.76 < q_bytes < fp_bytes - linear_fp * 0.70


def test_desk_pruned_file_is_smaller_than_the_dense_one_at_every_sweep_level(trained_clone):
    dense = persist.serialized_bytes(trained_clone)
    for p in prune.SPARSITY_SWEEP:
        m = model.clone_model(trained_clone)
        mask = prune.compute_mask(m, p)
        prune.apply_mask(m, mask)
        assert persist.serialized_bytes(m, mask) < dense, p


@pytest.mark.parametrize("mode", ["dynamic_int8", "int8_mixed"])
def test_pruned_then_quantized_file_keeps_the_mask_and_is_smaller(tmp_path, trained_clone, mode):
    dense_q = quant.quantize_model(trained_clone, mode)
    mask = prune.compute_mask(trained_clone, 0.9)
    prune.apply_mask(trained_clone, mask)
    qm = quant.quantize_model(trained_clone, mode, mask=mask)
    assert qm.mask is mask
    path = tmp_path / "pq.sdcw"
    n = persist.save_model(qm, path)
    assert n == persist.serialized_bytes(qm) < persist.serialized_bytes(dense_q)
    assert _version(path) == persist.MASKED_VERSION
    assert persist.DT_INT8_MASKED in _tags(qm) and persist.DT_MASK not in _tags(qm)
    again, loaded = persist.load_model(path)
    assert again.mask is loaded
    _assert_same_mask(mask, loaded)
    for name, qt in qm.params.items():
        if name.endswith(quant._LINEAR_WEIGHTS):
            assert (again.params[name].q.astype(np.int8).tobytes()
                    == qt.q.astype(np.int8).tobytes()), name
    ids = stream(13, "persist-pq").integers(0, trained_clone.config.vocab_size, size=(2, 8))
    attention = np.ones((2, 8), dtype=bool)
    before = evaluation.forward_logits(qm, ids, attention)
    after = evaluation.forward_logits(again, ids, attention)
    if mode == "dynamic_int8":
        assert before.tobytes() == after.tobytes()
    share = mask.zeros() / mask.total()
    assert evaluation._accounting(again)[2] == share == pytest.approx(0.9, abs=1e-5)
    assert evaluation._accounting(dense_q)[2] == 0.0


def _quantized_handles(tmp_path):
    """(what, handle) for fresh and loaded handles, both modes, dense and
    pruned."""
    dense = _random_model(9)
    dense.param("layers.0.ffn.w2").data[[1, 4], :] *= 60.0  # outlier rows
    pruned = model.clone_model(dense)
    mask = prune.compute_mask(pruned, 0.6)
    prune.apply_mask(pruned, mask)
    for mode in ("dynamic_int8", "int8_mixed"):
        for kind, m, m_mask in (("dense", dense, None), ("pruned", pruned, mask)):
            qm = quant.quantize_model(m, mode, threshold=6.0, mask=m_mask)
            path = tmp_path / f"{mode}-{kind}.sdcw"
            persist.save_model(qm, path)
            yield f"fresh {mode} {kind}", qm
            yield f"loaded {mode} {kind}", persist.load_model(path)[0]


def test_int8_payloads_are_the_float32_arrays_the_gemms_read(tmp_path):
    ids = stream(9, "persist-payload").integers(0, TINY.vocab_size, size=(2, 8))
    attention = np.ones(ids.shape, dtype=bool)
    for what, qm in _quantized_handles(tmp_path):
        payloads = [p.q for p in qm.params.values() if isinstance(p, quant.QuantizedTensor)]
        assert len(payloads) == TINY.num_layers * 6 + 1, what
        assert all(q.dtype == np.float32 for q in payloads), what
        before = _array_bytes(qm, qm.mask)
        quant.quantized_forward(qm, ids, attention)
        assert _array_bytes(qm, qm.mask) == before, what  # no copy built on first use


def test_accounting_of_a_handle_equals_its_reloaded_files(tmp_path):
    handles = dict(_quantized_handles(tmp_path))
    for what, qm in handles.items():
        if what.startswith("fresh"):
            again = handles[what.replace("fresh", "loaded")]
            assert evaluation._accounting(qm) == evaluation._accounting(again), what


@pytest.mark.parametrize("mode", ["dynamic_int8", "int8_mixed"])
def test_masked_int8_record_is_chosen_by_value_not_bits(tmp_path, mode):
    """Pruned weights of -1e-9 quantize to -0.0 in the float32 payload (the
    quantizers keep the input's sign bit); the file holds int8 0 there, so
    the record is still one masked record."""
    m = _random_model(10)
    mask = prune.compute_mask(m, 0.6)
    prune.apply_mask(m, mask)
    tiny = model.clone_model(m)
    for name, keep in mask.masks.items():
        tiny.param(name).data[keep == 0] = -1e-9
    files = []
    for obj in (m, tiny):
        qm = quant.quantize_model(obj, mode, mask=mask)
        assert persist.DT_INT8_MASKED in _tags(qm) and persist.DT_MASK not in _tags(qm)
        files.append(tmp_path / f"{len(files)}.sdcw")
        persist.save_model(qm, files[-1])
    assert files[0].read_bytes() == files[1].read_bytes()


# ---------------------------------------------------------------------------
# byte-identical files, written and read without copies of the model

def _four_handles() -> dict:
    """{kind: (handle, mask)}: dense fp32, pruned with its mask (masked
    records), dynamic, and mixed with two outlier rows."""
    m = _random_model(6)
    m.param("layers.1.ffn.w1").data[[2, 5], :] *= 60.0
    pruned = model.clone_model(m)
    mask = prune.compute_mask(pruned, 0.6)
    prune.apply_mask(pruned, mask)
    return {"fp32": (m, None), "pruned": (pruned, mask),
            "dynamic": (quant.quantize_model_dynamic(m), None),
            "mixed": (quant.quantize_model_int8_mixed(m, threshold=6.0), None)}


def test_files_keep_their_bytes(tmp_path):
    # SHA-256 of the files the whole-payload `tobytes()` writer made; the
    # pruned file's since masked records replaced its sparse and mask records
    want = {
        "fp32": "3886e947031066bd056272581795a987c204a29ad5fc0c532701b82ad759ac08",
        "pruned": "f0e350f2eb94fbf7737ceb79fa0061e0d915d00495908b38e1f2c5e646b6c140",
        "dynamic": "3ee714dcef6170ce6037dd52a15401d643327aeeb1d67d84673219b99587abbd",
        "mixed": "1777a8386069977dbced024495e5da1623e42aedabfb5964f4dc551fb364844e",
    }
    for kind, (obj, mask) in _four_handles().items():
        path = tmp_path / f"{kind}.sdcw"
        persist.save_model(obj, path, mask=mask)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want[kind], kind


def _array_bytes(handle, mask) -> int:
    """Bytes of the arrays a handle (and its mask) keeps: every array field
    of a QuantizedTensor counts."""
    if isinstance(handle, model.EncoderModel):
        n = sum(p.data.nbytes for p in handle.params.values())
    else:
        n = sum(sum(a.nbytes for a in vars(p).values() if isinstance(a, np.ndarray))
                if isinstance(p, quant.QuantizedTensor) else p.nbytes
                for p in handle.params.values())
    return n + (sum(m.nbytes for m in mask.masks.values()) if mask else 0)


@pytest.mark.parametrize("kind", ["fp32", "pruned", "dynamic", "mixed", "pruned_dynamic"])
def test_load_needs_about_one_model_of_memory(tmp_path, traced_peak, kind):
    big = replace(model.desk_config(), vocab_size=16_000)  # a 4 MB token table
    obj, mask = model.init_model(big, seed=3), None
    if kind.startswith("pruned"):  # the token table too: 1.2 MB of kept values
        mask = compute_mask_sorted(obj, 0.7, scope=prune.prunable_names(obj) + ["embeddings.token"])
        prune.apply_mask(obj, mask)
    if kind != "fp32" and kind != "pruned":
        mode = {"dynamic": "dynamic_int8", "mixed": "int8_mixed"}[kind.removeprefix("pruned_")]
        obj, mask = quant.quantize_model(obj, mode, mask=mask), None
    path = tmp_path / "m.sdcw"
    persist.save_model(obj, path, mask=mask)
    (handle, loaded_mask), peak = traced_peak(persist.load_model, path)
    assert peak <= _array_bytes(handle, loaded_mask) + 2**20


def test_masked_record_is_read_in_pieces_into_its_places(tmp_path, traced_peak):
    gen = stream(12, "persist-masked-read")
    w = gen.normal(0, 1, (1024, 1024)).astype(np.float32)  # 2 MB of kept values
    keep = gen.random(w.shape) < 0.5
    w[~keep] = 0.0
    path = tmp_path / "record.bin"
    with open(path, "wb") as fh:
        persist._write_payload(fh, persist.DT_F32_MASKED, w.shape, (w, keep.reshape(-1)))

    def read():
        with open(path, "rb") as fh:
            return persist._read_payload(persist._Reader(fh, path), "w",
                                         persist.DT_F32_MASKED, w.shape)

    (again, mask), peak = traced_peak(read)
    assert again.tobytes() == w.tobytes() and np.array_equal(mask, keep)
    assert peak <= again.nbytes + mask.nbytes + 2**20


def test_save_writes_a_dense_model_without_copying_its_records(tmp_path, traced_peak):
    m = model.init_model(replace(model.desk_config(), vocab_size=16_000), seed=3)
    largest = max(p.data.nbytes for p in m.params.values())
    _, peak = traced_peak(persist.save_model, m, tmp_path / "m.sdcw")
    assert peak < largest


# ---------------------------------------------------------------------------
# rejection paths

def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "x.sdcw"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(PersistError) as exc:
        persist.load_model(p)
    assert "magic" in str(exc.value)


def test_unknown_version_rejected(tmp_path):
    m = _random_model()
    p = tmp_path / "v.sdcw"
    persist.save_model(m, p)
    blob = bytearray(p.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    p.write_bytes(bytes(blob))
    with pytest.raises(PersistError) as exc:
        persist.load_model(p)
    assert "version 99" in str(exc.value)


def test_truncated_file_rejected(tmp_path):
    m = _random_model()
    p = tmp_path / "t.sdcw"
    persist.save_model(m, p)
    p.write_bytes(p.read_bytes()[:-100])
    with pytest.raises(PersistError):
        persist.load_model(p)


@pytest.mark.parametrize("dropped", ["layers.0.attn.bq", "head.bias", "embeddings.norm.gain"])
def test_quantized_file_missing_a_record_rejected(tmp_path, monkeypatch, dropped):
    qm = quant.quantize_model_dynamic(_random_model(8))
    records_for = persist._records_for

    def without_record(obj, mask):
        mode, threshold, records = records_for(obj, mask)
        return mode, threshold, [r for r in records if r[0] != dropped]

    monkeypatch.setattr(persist, "_records_for", without_record)
    p = tmp_path / "q.sdcw"
    persist.save_model(qm, p)
    monkeypatch.undo()
    with pytest.raises(PersistError) as exc:
        persist.load_model(p)
    assert "do not match its config" in str(exc.value)


def _damage(qt: quant.QuantizedTensor, how: str) -> None:
    """Damage a weight whose rows 2 and 5 are outliers, as a bad file would."""
    if how == "index_past_contraction":
        qt.outlier_cols[-1] = qt.q.shape[0]
    elif how == "duplicate_index":
        qt.outlier_cols[0] = qt.outlier_cols[1]
    elif how == "decreasing_indices":
        qt.outlier_cols[:] = qt.outlier_cols[::-1].copy()
    elif how.startswith("scale_"):
        qt.scales[1] = {"scale_zero": 0.0, "scale_negative": -1.0,
                        "scale_nan": np.nan, "scale_inf": np.inf}[how]
    elif how == "too_few_scales":
        qt.scales = qt.scales[:-1]
    elif how == "bad_axis":
        qt.axis = 2
    elif how == "q_on_outlier_vector":
        qt.q[qt.outlier_cols[0], 3] = 7
    else:
        raise AssertionError(how)


@pytest.mark.parametrize("how", ["index_past_contraction", "duplicate_index",
                                 "decreasing_indices", "scale_zero", "scale_negative",
                                 "scale_nan", "scale_inf", "too_few_scales", "bad_axis",
                                 "q_on_outlier_vector"])
def test_damaged_int8_record_rejected_at_load(tmp_path, how):
    m = _random_model(8)
    m.param("layers.1.ffn.w1").data[[2, 5], :] *= 60.0
    qm = quant.quantize_model_int8_mixed(m, threshold=6.0)
    qt = qm.params["layers.1.ffn.w1"]
    assert qt.outlier_cols.tolist() == [2, 5]
    path = tmp_path / "good.sdcw"
    persist.save_model(qm, path)
    persist.load_model(path)  # the undamaged file loads
    _damage(qt, how)
    path = tmp_path / "bad.sdcw"
    persist.save_model(qm, path)
    with pytest.raises(PersistError) as exc:
        persist.load_model(path)
    assert "'layers.1.ffn.w1'" in str(exc.value)


def _record_offsets(obj, mask=None) -> dict[str, tuple[int, int]]:
    """{record name: (offset of its shape dims, offset of its payload)}."""
    _, _, records = persist._records_for(obj, mask)
    out, pos = {}, HEADER_BYTES
    for name, tag, shape, payload in records:
        dims = pos + 2 + len(name.encode("utf-8")) + 2
        out[name] = (dims, dims + 4 * len(shape))
        pos = dims + 4 * len(shape) + persist._payload_bytes(tag, shape, payload)
    return out


def _load_error(path):
    try:
        persist.load_model(path)
    except PersistError as exc:
        return exc
    raise AssertionError(f"'{path}' loaded")


def test_sparse_count_past_the_file_rejected_before_allocating(tmp_path, traced_peak):
    m = _random_model(2)
    prune.apply_mask(m, prune.compute_mask(m, 0.9))
    assert persist._f32_tag(m.param("layers.0.ffn.w1").data) == persist.DT_F32_SPARSE
    _, at = _record_offsets(m)["layers.0.ffn.w1"]
    path = tmp_path / "m.sdcw"
    persist.save_model(m, path)
    blob = bytearray(path.read_bytes())
    blob[at:at + 8] = struct.pack("<Q", 2**40)  # 8 TB of (index, value) pairs
    path.write_bytes(bytes(blob))
    exc, peak = traced_peak(_load_error, path)
    assert "truncated" in str(exc) and peak < 2**20


def test_shape_past_the_file_rejected_before_allocating(tmp_path, traced_peak):
    m = _random_model(2)
    dims, _ = _record_offsets(m)["embeddings.token"]
    path = tmp_path / "m.sdcw"
    persist.save_model(m, path)
    blob = bytearray(path.read_bytes())
    vocab = 2**26  # a 4 GB fp32 token table, in the header and the record alike
    blob[22:26] = blob[dims:dims + 4] = struct.pack("<I", vocab)
    path.write_bytes(bytes(blob))
    exc, peak = traced_peak(_load_error, path)
    assert "truncated" in str(exc) and peak < 2**20


class _FailingReads:
    """A file whose `reads`-th read (counting from 0) fails as a bad disk would."""

    def __init__(self, fh, reads: int):
        self._fh, self._left = fh, reads

    def _tick(self) -> None:
        if self._left == 0:
            raise OSError(5, "Input/output error")
        self._left -= 1

    def read(self, n):
        self._tick()
        return self._fh.read(n)

    def readinto(self, buf):
        self._tick()
        return self._fh.readinto(buf)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.mark.parametrize("reads", [0, 3, 40, 200])
def test_read_failing_mid_file_errors_with_path(tmp_path, monkeypatch, reads):
    m = _random_model()
    prune.apply_mask(m, prune.compute_mask(m, 0.6))
    path = tmp_path / "m.sdcw"
    persist.save_model(m, path)
    monkeypatch.setattr(persist, "open", lambda *a, **kw: _FailingReads(open(*a, **kw), reads),
                        raising=False)
    with pytest.raises(PersistError, match="Input/output error") as exc:
        persist.load_model(path)
    assert "m.sdcw" in str(exc.value)


def test_missing_file_errors_with_path(tmp_path):
    with pytest.raises(PersistError) as exc:
        persist.load_model(tmp_path / "absent.sdcw")
    assert "absent.sdcw" in str(exc.value)


def test_unwritable_path_errors(tmp_path):
    m = _random_model()
    with pytest.raises(PersistError) as exc:
        persist.save_model(m, tmp_path / "no" / "such" / "dir" / "m.sdcw")
    assert "m.sdcw" in str(exc.value)


@pytest.mark.parametrize("bad", ["shape", "name"])
def test_a_mask_the_model_cannot_hold_fails_before_anything_is_written(tmp_path, bad):
    """A mask of another shape than its tensor, or over a tensor the model
    lacks, would make a file that `load_model` rejects: save, size and a
    quantized handle's own mask (one set on the handle: `quantize_model`
    itself rejects such a mask) fail with the tensor's name instead, and no
    file is left behind."""
    m = _random_model(4)
    name, shape = {"shape": ("layers.0.ffn.w1", (3, 3)),
                   "name": ("layers.7.ffn.w1", (TINY.hidden_size, TINY.ffn_size))}[bad]
    mask = prune.PruneMask({name: np.ones(shape, dtype=np.uint8)})
    calls = {"fp32": lambda: persist.save_model(m, tmp_path / "m.sdcw", mask=mask),
             "fp32_size": lambda: persist.serialized_bytes(m, mask)}
    for mode in ("dynamic_int8", "int8_mixed"):
        qm = replace(quant.quantize_model(m, mode), mask=mask)
        calls[mode] = lambda qm=qm: persist.save_model(qm, tmp_path / "q.sdcw")
        calls[f"{mode}_size"] = lambda qm=qm: persist.serialized_bytes(qm)
    for what, call in calls.items():
        with pytest.raises(PersistError) as exc:
            call()
        assert f"'{name}'" in str(exc.value), what
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# damaged files fail at load with PersistError, or give a model that runs

def test_wrong_shaped_record_rejected_at_load(tmp_path):
    m = model.init_model(replace(TINY, num_layers=1), seed=2)
    m.params["layers.0.ffn.b1"].data = m.param("layers.0.ffn.b1").data[:-1]  # 31 of 32
    path = tmp_path / "short.sdcw"
    persist.save_model(m, path)
    with pytest.raises(PersistError) as exc:
        persist.load_model(path)
    assert "'layers.0.ffn.b1'" in str(exc.value) and "(31,)" in str(exc.value)


@pytest.mark.parametrize("at, value", [
    (10, struct.pack("<I", 0)),       # no heads
    (34, struct.pack("<f", 1.5)),     # dropout out of [0, 1)
    (39, struct.pack("<f", 0.0)),     # a quantized file's outlier threshold
    (39, struct.pack("<f", np.nan)),
    (43, struct.pack("<I", 1)),       # fewer records than layers
], ids=["no-heads", "dropout", "zero-threshold", "nan-threshold", "few-records"])
def test_invalid_header_rejected_at_load(tmp_path, at, value):
    path = tmp_path / "q.sdcw"
    persist.save_model(quant.quantize_model_int8_mixed(_random_model(3), threshold=6.0), path)
    blob = bytearray(path.read_bytes())
    blob[at:at + len(value)] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(PersistError):
        persist.load_model(path)


HEADER_BYTES = 4 + 2 + 7 * 4 + 4 + 1 + 4 + 4


def _layout(records) -> tuple[list[int], list[list[int]]]:
    """Record boundaries of a file of `records`, and the offsets of its
    structural bytes, the header's first and then each record's: its name
    length, name, tag, rank and shape, the counts in its payload (sparse
    nonzeros; int8 axis, scale count and outlier count; kept count) and its
    bitmap. A record's payload is persist's, or its bytes."""
    bounds, groups, pos = [HEADER_BYTES], [list(range(HEADER_BYTES))], HEADER_BYTES
    for name, tag, shape, payload in records:
        body = pos + 2 + len(name.encode("utf-8")) + 2 + 4 * len(shape)
        fields = list(range(pos, body))
        end = body + (len(payload) if isinstance(payload, bytes)
                      else persist._payload_bytes(tag, shape, payload))
        if tag == persist.DT_F32_SPARSE:
            fields += range(body, body + 8)
        elif tag in (persist.DT_INT8, persist.DT_INT8_MASKED):
            qt = payload[0] if tag == persist.DT_INT8_MASKED else payload
            n_out_at = body + 5 + 4 * qt.scales.size
            fields += [*range(body, body + 5), *range(n_out_at, n_out_at + 4)]
        if tag == persist.DT_MASK:
            fields += range(body, end)
        elif tag in (persist.DT_F32_MASKED, persist.DT_INT8_MASKED):
            keep = payload[1]
            count_at = end - (4 if tag == persist.DT_F32_MASKED else 1) * keep.sum() - 8
            fields += range(count_at - (keep.size + 7) // 8, count_at + 8)
        groups.append(fields)
        bounds.append(end)
        pos = end
    return bounds, groups


def _desk_pruned():
    """A desk model with two large ffn.w1 entries, pruned at 0.5 over its
    prunable scope and head.bias (9 entries: its bitmap has pad bits), and
    its mask."""
    m = model.init_model(model.desk_config(), seed=4)
    m.param("layers.0.ffn.w1").data[[3, 9], 0] = 7.0
    dense = model.clone_model(m)
    mask = compute_mask_sorted(m, 0.5, scope=prune.prunable_names(m) + ["head.bias"])
    prune.apply_mask(m, mask)
    return dense, m, mask


@pytest.fixture(scope="module")
def desk_files(tmp_path_factory):
    """Desk files of every record kind, {kind: (blob, layout, tags)}: a
    pruned model as the version-1 writer made it (dense, sparse and mask
    records) and as it is saved now (masked records), the int8 mixed
    quantization of the unpruned model (with outlier rows), and of the
    pruned one, which keeps its mask (int8 masked records; head.bias is
    fp16, so its mask is a record of its own)."""
    dense, m, mask = _desk_pruned()
    qm = quant.quantize_model_int8_mixed(dense, threshold=6.0)
    pruned_qm = quant.quantize_model_int8_mixed(m, threshold=6.0, mask=mask)
    out, root = {}, tmp_path_factory.mktemp("fuzz")
    path = root / "pruned_v1.sdcw"
    save_v1(m, path, mask)
    records = {"pruned_v1": records_v1(m, mask)}
    for kind, obj, obj_mask in (("pruned", m, mask), ("mixed", qm, None),
                                ("pruned_mixed", pruned_qm, None)):
        path = root / f"{kind}.sdcw"
        persist.save_model(obj, path, mask=obj_mask)
        records[kind] = persist._records_for(obj, obj_mask)[2]
    for kind, recs in records.items():
        out[kind] = ((root / f"{kind}.sdcw").read_bytes(), _layout(recs), {r[1] for r in recs})
    for handle in (qm, pruned_qm):
        assert handle.params["layers.0.ffn.w1"].outlier_cols.size == 2
    return out, root


def _load_and_run(path) -> None:
    """Load `path`; a model it gives must run a forward pass."""
    try:
        handle, _ = persist.load_model(path)
    except PersistError:
        return
    s = min(5, handle.config.max_positions)
    evaluation.forward_logits(handle, np.zeros((2, s), dtype=np.int64), np.ones((2, s), dtype=bool))


def test_desk_file_truncated_at_every_record_boundary_rejected(desk_files):
    files, root = desk_files
    for kind, (blob, (bounds, _), _) in files.items():
        assert bounds[-1] == len(blob)
        for cut in [0, *bounds[:-1], len(blob) - 1]:
            path = root / f"cut-{kind}.sdcw"
            path.write_bytes(blob[:cut])
            with pytest.raises(PersistError):
                persist.load_model(path)


def _damaged_masked_record(path, how: str) -> None:
    """Damage the masked record of the pruned desk file's head.bias, which
    keeps 0 of its 9 entries, or cut the file inside layers.0.ffn.w1's kept
    values."""
    _, m, mask = _desk_pruned()
    records = persist._records_for(m, mask)[2]
    bounds, _ = _layout(records)
    ends = {r[0]: (end, r) for r, end in zip(records, bounds[1:])}
    blob = bytearray(path.read_bytes())
    end, (_, tag, _, (_, keep)) = ends["head.bias"]
    assert tag == persist.DT_F32_MASKED and not keep.any() and keep.size == 9
    if how == "kept count is not the popcount":
        blob[end - 8:end] = struct.pack("<Q", 1)
    elif how == "set pad bits":
        blob[end - 9] |= 0x01
    elif how == "count past the end of the file":
        end, (_, _, _, (_, keep)) = ends["layers.0.ffn.w1"]
        blob = blob[:end - 4 * int(keep.sum()) // 2]
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("how", ["kept count is not the popcount", "set pad bits",
                                 "count past the end of the file"])
def test_damaged_masked_record_rejected(desk_files, how):
    files, root = desk_files
    path = root / "masked.sdcw"
    path.write_bytes(files["pruned"][0])
    persist.load_model(path)  # the undamaged file loads
    _damaged_masked_record(path, how)
    exc = _load_error(path)
    assert {"kept count is not the popcount": "keeps 1 values, its bitmap 0",
            "set pad bits": "'head.bias' has a bitmap with set pad bits",
            "count past the end of the file": "truncated"}[how] in str(exc)


DT_NAMES = sorted(n for n in vars(persist) if n.startswith("DT_"))


def _record_of_each_kind() -> dict[int, tuple[tuple, bool]]:
    """{dtype tag: (a record of that kind, whether its handle is quantized)}
    over a pruned TINY model with and without its mask, and its two
    quantizations, which keep the mask (head.bias is in scope)."""
    m = _random_model(11)
    mask = compute_mask_sorted(m, 0.6, scope=prune.prunable_names(m) + ["head.bias"])
    prune.apply_mask(m, mask)
    out = {}
    for obj, obj_mask in ((m, None), (m, mask), (quant.quantize_model_dynamic(m), None),
                          (quant.quantize_model_int8_mixed(m, mask=mask), None)):
        for record in persist._records_for(obj, obj_mask)[2]:
            out.setdefault(record[1], (record, not isinstance(obj, model.EncoderModel)))
    return out


def _same_payload(a, b) -> bool:
    if isinstance(a, tuple):
        return _same_payload(a[0], b[0]) and np.array_equal(a[1].reshape(-1), b[1].reshape(-1))
    if isinstance(a, quant.QuantizedTensor):
        return all(np.array_equal(getattr(a, f).ravel(), getattr(b, f).ravel())
                   for f in ("q", "scales", "outlier_cols", "outlier_values")) and a.axis == b.axis
    return np.asarray(a, dtype=b.dtype).tobytes() == b.tobytes()


@pytest.mark.parametrize("dt_name", DT_NAMES)
def test_every_record_kind_is_sized_written_read_checked_and_fuzzed(tmp_path, desk_files, dt_name):
    tag = getattr(persist, dt_name)
    (name, _, shape, payload), quantized = _record_of_each_kind()[tag]  # a handle writes it
    path = tmp_path / "record.bin"
    with open(path, "wb") as fh:
        persist._write_payload(fh, tag, shape, payload)
    assert path.stat().st_size == persist._payload_bytes(tag, shape, payload)
    with open(path, "rb") as fh:
        reader = persist._Reader(fh, path)
        again = persist._read_payload(reader, name, tag, shape)
        assert reader.left == 0
    want = payload.astype(np.float16) if tag == persist.DT_F16 else payload
    assert _same_payload(want, again)
    persist._check_record(path, name, tag, shape, TINY, quantized, persist.MASKED_VERSION)
    files, _ = desk_files
    assert any(tag in tags for _, _, tags in files.values())


_PICK = st.integers(0, 2**16 - 1)  # an index into a list, taken modulo its length


# Each flip picks a record (the header counts as one), then a structural byte
# in it, then the bits to flip, so the few bytes of a small record, such as a
# bitmap's pad bits, are hit about as often as those of a large one. The
# examples flip a pad bit of head.bias's 9-entry bitmap, the last structural
# byte of each file's last record.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["mixed", "pruned", "pruned_mixed", "pruned_v1"]),
       cut=st.none() | _PICK,
       flips=st.lists(st.tuples(_PICK, _PICK, st.integers(1, 255)), min_size=1, max_size=3))
@example(kind="pruned_mixed", cut=None, flips=[(-1, -1, 0x01)])
@example(kind="pruned_v1", cut=None, flips=[(-1, -1, 0x40)])
def test_damaged_desk_file_fails_only_with_persist_error(desk_files, kind, cut, flips):
    files, root = desk_files
    blob, (_, groups), _ = files[kind]
    damaged = bytearray(blob)
    if cut is not None:
        damaged = damaged[:cut % len(blob)]
    else:
        for record, at, bits in flips:
            group = groups[record % len(groups)]
            damaged[group[at % len(group)]] ^= bits
    path = root / f"damaged-{kind}.sdcw"
    path.write_bytes(bytes(damaged))
    _load_and_run(path)


@pytest.mark.parametrize("kind", ["pruned_mixed", "pruned_v1"])
def test_the_fuzz_examples_flip_a_bitmap_pad_bit(desk_files, kind):
    files, root = desk_files
    blob, (_, groups), _ = files[kind]
    at = groups[-1][-1]
    assert blob[at - 1:at + 1] == np.packbits(np.zeros(9, dtype=np.uint8)).tobytes()
    for bits in (0x01, 0x40):  # within the pad bits 0x7F
        path = root / f"pad-{kind}.sdcw"
        path.write_bytes(blob[:at] + bytes([blob[at] ^ bits]) + blob[at + 1:])
        with pytest.raises(PersistError, match="'mask:head.bias' has a bitmap with set pad bits"):
            persist.load_model(path)
