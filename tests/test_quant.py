import numpy as np
import pytest

from sdcw import data, model, quant
from sdcw.errors import DataError, ParameterError, ShapeError
from sdcw.model import forward
from sdcw.rng import stream
from sdcw.tensor import no_grad

TINY = model.EncoderConfig(num_layers=2, num_heads=2, hidden_size=16, ffn_size=32,
                           vocab_size=120, max_positions=32, num_classes=9)


# ---------------------------------------------------------------------------
# absmax quantization

def test_absmax_hand_example():
    qt = quant.absmax_quantize(np.array([1.0, -2.0, 0.5], dtype=np.float32))
    np.testing.assert_allclose(qt.scales, [63.5])
    np.testing.assert_array_equal(qt.q, [[64, -127, 32]])


def test_absmax_all_zero_vector():
    qt = quant.absmax_quantize(np.zeros(5, dtype=np.float32))
    assert np.all(qt.q == 0)
    np.testing.assert_array_equal(qt.scales, [1.0])
    np.testing.assert_array_equal(qt.dequant(), np.zeros((1, 5)))


def test_absmax_rejects_non_finite():
    with pytest.raises(DataError):
        quant.absmax_quantize(np.array([1.0, np.nan], dtype=np.float64))


def test_absmax_per_row_and_per_column_scales():
    x = np.array([[1.0, -4.0], [8.0, 2.0]], dtype=np.float32)
    per_row = quant.absmax_quantize(x, axis=1)
    np.testing.assert_allclose(per_row.scales, [127 / 4, 127 / 8])
    per_col = quant.absmax_quantize(x, axis=0)
    np.testing.assert_allclose(per_col.scales, [127 / 8, 127 / 4])


def test_round_trip_error_bound_1000_vectors():
    gen = stream(0, "quant-roundtrip")
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(2, 33))
        x = (gen.normal(0, 1, n) * gen.uniform(0.01, 10)).astype(np.float32)
        qt = quant.absmax_quantize(x)
        err = np.abs(qt.dequant()[0] - x).max()
        bound = np.abs(x).max() / 254 + 1e-7
        worst = max(worst, err / bound)
        assert err <= bound
    assert worst <= 1.0


def test_quantize_with_outliers_exact_on_held_out_columns():
    gen = stream(1, "quant-outlier")
    x = gen.normal(0, 1, (6, 8)).astype(np.float32)
    x[:, 3] *= 40.0  # an outlier column
    qt = quant.quantize_with_outliers(x, threshold=6.0, axis=1)
    np.testing.assert_array_equal(qt.outlier_cols, [3])
    np.testing.assert_array_equal(qt.dequant()[:, 3], x[:, 3])
    assert np.all(qt.q[:, 3] == 0)
    # scales computed over the remainder, unaffected by the outlier column
    rest = np.delete(x, 3, axis=1)
    np.testing.assert_allclose(qt.scales, 127.0 / np.abs(rest).max(axis=1), rtol=1e-6)


def test_quantize_with_outliers_threshold_validation():
    with pytest.raises(ParameterError):
        quant.quantize_with_outliers(np.ones((2, 2), dtype=np.float32), 0.0)


# ---------------------------------------------------------------------------
# int8 matmul kernel

def test_int8_matmul_identity_within_round_trip_bound():
    gen = stream(2, "quant-identity")
    b = gen.normal(0, 1, (8, 5)).astype(np.float32)
    aq = quant.absmax_quantize(np.eye(8, dtype=np.float32), axis=1)
    bq = quant.absmax_quantize(b, axis=0)
    out = quant.int8_matmul(aq, bq)
    np.testing.assert_allclose(out, bq.dequant(), atol=np.abs(b).max() / 254 + 1e-6)


def test_int8_matmul_exact_for_quantized_operands():
    gen = stream(3, "quant-exact")
    a = gen.normal(0, 1, (32, 32)).astype(np.float32)
    b = gen.normal(0, 1, (32, 32)).astype(np.float32)
    aq = quant.absmax_quantize(a, axis=1)
    bq = quant.absmax_quantize(b, axis=0)
    got = quant.int8_matmul(aq, bq)
    ref = aq.dequant().astype(np.float64) @ bq.dequant().astype(np.float64)
    np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)


def test_int8_matmul_relative_error_versus_fp32():
    gen = stream(4, "quant-relerr")
    errs = []
    for _ in range(10):
        a = gen.normal(0, 1, (32, 32)).astype(np.float32)
        b = gen.normal(0, 1, (32, 32)).astype(np.float32)
        got = quant.int8_matmul(quant.absmax_quantize(a, axis=1),
                                quant.absmax_quantize(b, axis=0))
        ref = a @ b
        errs.append(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    assert max(errs) < 0.02


def test_int8_matmul_shape_and_axis_validation():
    a = quant.absmax_quantize(np.ones((2, 3), dtype=np.float32), axis=1)
    b = quant.absmax_quantize(np.ones((4, 2), dtype=np.float32), axis=0)
    with pytest.raises(ShapeError):
        quant.int8_matmul(a, b)
    with pytest.raises(ShapeError):
        quant.int8_matmul(a, a)


def test_int8_matmul_outlier_union_no_double_count():
    gen = stream(5, "quant-union")
    a = gen.normal(0, 1, (4, 6)).astype(np.float32)
    w = gen.normal(0, 1, (6, 3)).astype(np.float32)
    a[:, 2] *= 50.0
    w[4, :] *= 50.0
    aq = quant.quantize_with_outliers(a, threshold=6.0, axis=1)
    wq = quant.quantize_with_outliers(w, threshold=6.0, axis=0)
    wq.fp_ref = w
    got = quant.int8_matmul(aq, wq)
    np.testing.assert_allclose(got, a @ w, rtol=0.05, atol=0.05)


# ---------------------------------------------------------------------------
# model quantization

def _inputs(gen, b=3, s=10):
    ids = gen.integers(0, TINY.vocab_size, size=(b, s))
    mask = np.ones((b, s), dtype=bool)
    mask[-1, -3:] = False
    ids[-1, -3:] = data.PAD
    return ids, mask


def test_dynamic_weight_payload_shrinks_4x():
    m = model.init_model(model.desk_config(), seed=1)
    qm = quant.quantize_model_dynamic(m)
    for name, lin in qm.linears.items():
        n = m.param(name).size
        q_bytes = lin.weight.q.size + lin.weight.scales.size * 4
        # int8 payload plus one fp32 scale per output unit, nothing else
        assert q_bytes == n + 4 * m.param(name).shape[1]
        assert 3.7 < 4 * n / q_bytes <= 4.0, name


def test_quantized_modes_keep_topology_and_extras():
    m = model.init_model(TINY, seed=1)
    for qm in (quant.quantize_model_dynamic(m), quant.quantize_model_int8_mixed(m)):
        assert set(qm.linears) == {n for n in m.params
                                   if n.endswith(quant._LINEAR_WEIGHTS)}
        for name, lin in qm.linears.items():
            assert lin.weight.shape == m.param(name).shape
        assert "embeddings.token" in qm.extras


def test_dynamic_logits_close_to_fp32():
    gen = stream(6, "quant-dyn")
    m = model.init_model(TINY, seed=2)
    ids, mask = _inputs(gen)
    with no_grad():
        ref = forward(m, ids, mask).data
    got = quant.quantized_forward(quant.quantize_model_dynamic(m), ids, mask)
    assert np.abs(got - ref).max() < 0.1


def test_mixed_logits_close_to_fp32():
    gen = stream(7, "quant-mix")
    m = model.init_model(TINY, seed=3)
    ids, mask = _inputs(gen)
    with no_grad():
        ref = forward(m, ids, mask).data
    got = quant.quantized_forward(quant.quantize_model_int8_mixed(m), ids, mask)
    assert np.abs(got - ref).max() < 0.1


def test_mixed_huge_threshold_is_pure_int8():
    gen = stream(8, "quant-pure")
    m = model.init_model(TINY, seed=4)
    ids, mask = _inputs(gen)
    qm = quant.quantize_model_int8_mixed(m, threshold=1e30)
    for lin in qm.linears.values():
        assert lin.weight.outlier_cols.size == 0
    got = quant.quantized_forward(qm, ids, mask)
    assert np.all(np.isfinite(got))


def test_mixed_threshold_to_zero_equals_fp32_forward():
    gen = stream(9, "quant-zero-thresh")
    m = model.init_model(TINY, seed=5)
    ids, mask = _inputs(gen)
    with no_grad():
        ref = forward(m, ids, mask).data
    got = quant.quantized_forward(quant.quantize_model_int8_mixed(m, threshold=1e-30),
                                  ids, mask)
    np.testing.assert_allclose(got, ref, atol=1e-6)


def test_mixed_fidelity_monotone_in_threshold():
    gen = stream(10, "quant-monotone")
    m = model.init_model(TINY, seed=6)
    ids, mask = _inputs(gen)
    with no_grad():
        ref = forward(m, ids, mask).data
    errs = []
    for thr in (1e30, 6.0, 1.0, 0.25, 0.05, 1e-30):
        got = quant.quantized_forward(quant.quantize_model_int8_mixed(m, thr), ids, mask)
        errs.append(float(np.abs(got - ref).max()))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-7, errs


def test_quantized_forward_deterministic():
    gen = stream(11, "quant-det")
    m = model.init_model(TINY, seed=7)
    ids, mask = _inputs(gen)
    qm = quant.quantize_model_dynamic(m)
    a = quant.quantized_forward(qm, ids, mask)
    b = quant.quantized_forward(qm, ids, mask)
    np.testing.assert_array_equal(a, b)


def test_quantize_rejects_unknown_mode_and_bad_threshold():
    m = model.init_model(TINY, seed=9)
    with pytest.raises(ParameterError):
        quant.quantize_model(m, "int4")
    with pytest.raises(ParameterError):
        quant.quantize_model_int8_mixed(m, threshold=0.0)


def test_serialized_reduction_bands_on_weight_dominated_model(tmp_path):
    from sdcw.persist import save_model
    # the desk model's linears are ~42% of its bytes: dynamic mode must save
    # more than 30%, the fp16-backed mixed mode more than 55%
    m = model.init_model(model.desk_config(), seed=10)
    gen = stream(13, "quant-sizes")
    for p in m.params.values():
        p.data = gen.normal(0, 0.5, p.shape).astype(np.float32)
    fp_bytes = save_model(m, tmp_path / "fp.sdcw")
    dyn_bytes = save_model(quant.quantize_model_dynamic(m), tmp_path / "d.sdcw")
    mix_bytes = save_model(quant.quantize_model_int8_mixed(m), tmp_path / "x.sdcw")
    assert 1 - dyn_bytes / fp_bytes > 0.30
    assert 1 - mix_bytes / fp_bytes > 0.55


# ---------------------------------------------------------------------------
# latency harness

def test_bench_reports_all_three_modes(desk_corpus):
    train, _, test, vocab = desk_corpus
    m = model.init_model(model.desk_config(), seed=1)
    out = quant.bench_quantized(m, test[:32], vocab, reps=3, batch_size=16, max_seq_len=32)
    assert set(out["modes"]) == {"fp32", "dynamic_int8", "int8_mixed"}
    assert out["reps"] == 3
    assert len(out["batch_shapes"]) == 2
    for stats in out["modes"].values():
        assert stats["median_ms_per_batch"] > 0
        assert stats["iqr_ms"] > 0  # repeated wall-clock reps never tie exactly


def test_bench_rejects_too_few_reps(desk_corpus):
    train, _, test, vocab = desk_corpus
    m = model.init_model(model.desk_config(), seed=1)
    with pytest.raises(ParameterError):
        quant.bench_quantized(m, test[:8], vocab, reps=2)
