import numpy as np
import pytest

from sdcw import model, persist, prune, quant
from sdcw.errors import PersistError
from sdcw.rng import stream

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
    name, tag, shape, payload = persist._f32_record("t", w)
    assert tag == persist.DT_F32_SPARSE
    assert persist._payload_bytes(tag, shape, payload) == 8 + 8 * 49
    w[:50] = 1.0  # exactly 50% zeros -> sparse (tie)
    assert persist._f32_record("t", w)[1] == persist.DT_F32_SPARSE
    w[:51] = 1.0  # 49% zeros -> dense
    assert persist._f32_record("t", w)[1] == persist.DT_F32
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
    for name, lin in qm.linears.items():
        np.testing.assert_array_equal(again.linears[name].weight.q, lin.weight.q)
        np.testing.assert_array_equal(again.linears[name].weight.scales, lin.weight.scales)
        np.testing.assert_array_equal(again.linears[name].bias, lin.bias)
    for name, arr in qm.extras.items():
        np.testing.assert_array_equal(again.extras[name], arr)
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
    for name, arr in qm.extras.items():
        np.testing.assert_array_equal(again.extras[name],
                                      arr.astype(np.float16).astype(np.float32))


def test_quantized_weight_outlier_rows_survive_round_trip(tmp_path):
    m = _random_model(8)
    w = m.param("layers.0.attn.wq")
    w.data[3, :] *= 60.0  # force a weight-row outlier
    qm = quant.quantize_model_int8_mixed(m, threshold=6.0)
    qt = qm.linears["layers.0.attn.wq"].weight
    assert 3 in qt.outlier_cols.tolist()
    persist.save_model(qm, tmp_path / "out.sdcw")
    again, _ = persist.load_model(tmp_path / "out.sdcw")
    qt2 = again.linears["layers.0.attn.wq"].weight
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


def test_missing_file_errors_with_path(tmp_path):
    with pytest.raises(PersistError) as exc:
        persist.load_model(tmp_path / "absent.sdcw")
    assert "absent.sdcw" in str(exc.value)


def test_unwritable_path_errors(tmp_path):
    m = _random_model()
    with pytest.raises(PersistError) as exc:
        persist.save_model(m, tmp_path / "no" / "such" / "dir" / "m.sdcw")
    assert "m.sdcw" in str(exc.value)
