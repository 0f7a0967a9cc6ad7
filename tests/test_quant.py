import hashlib
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcw import data, model, persist, prune, quant
from sdcw.errors import DataError, ParameterError, ShapeError
from sdcw.model import forward
from sdcw.persist import load_model, save_model, serialized_bytes
from sdcw.rng import stream
from sdcw.tensor import no_grad

from oracles import (absmax_quantize_ref, attention_matmul_loop, dequant_ref, int8_matmul_ref,
                     quantize_with_outliers_ref, quantized_forward_ref)

TINY = model.EncoderConfig(num_layers=2, num_heads=2, hidden_size=16, ffn_size=32,
                           vocab_size=120, max_positions=32, num_classes=9)
# FFN2 contracts over 1,100 > EXACT_BLOCK indices, as it does at the published width
WIDE = replace(TINY, num_layers=1, ffn_size=1100)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape,where", [((7,), 0), ((7,), 6), ((4, 6), 0), ((4, 6), 13), ((4, 6), 23)])
def test_quantizers_reject_non_finite_anywhere(bad, shape, where):
    x = np.ones(shape, dtype=np.float32)
    x.reshape(-1)[where] = bad
    with pytest.raises(DataError):
        quant.absmax_quantize(x)
    with pytest.raises(DataError):
        quant.quantize_with_outliers(x, threshold=6.0)
    if x.ndim == 2:
        with pytest.raises(DataError):
            quant.absmax_quantize(x, axis=0)
        with pytest.raises(DataError):
            quant.quantize_with_outliers(x, threshold=6.0, axis=0)


def _rounding_cases() -> np.ndarray:
    """Rows whose scale is exactly 1 or 1/2, so ties (+-k.5), +-0 and +-127
    land on the rounding boundary, plus random rows and an all-zero row."""
    ties = np.array([127, -127, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5,
                     0.0, -0.0, 0.49999997, -0.49999997, 63.5, -63.5], dtype=np.float32)
    gen = stream(14, "quant-rounding")
    return np.stack([ties, -ties, 2 * ties, np.zeros_like(ties),
                     gen.normal(0, 3, ties.size).astype(np.float32)])


def _edge_cases() -> np.ndarray:
    """Rows whose max magnitude m is drawn from 1e-40 (subnormal) to 1e38,
    each holding +-m, most twice (ties at the max, where |x| * 127 / m may
    round above 127), next to rows of subnormals, rows around 1e-30 (the
    scale's floor) and rows of values at the outlier thresholds 6 and 0.5."""
    gen = stream(15, "quant-edges")
    width = 24
    m = (10.0 ** gen.uniform(-40, 38, 300)).astype(np.float32)
    rows = gen.uniform(-1, 1, (m.size, width)).astype(np.float32) * m[:, None]
    rows[:, 0], rows[:, 1] = m, np.where(gen.random(m.size) < 0.7, -m, m / 3)
    tiny = np.float32(1e-30)
    special = [
        gen.uniform(-1, 1, width) * np.float32(1e-39),
        np.full(width, np.float32(1.4e-45)) * gen.choice([-1, 1], width),
        [tiny, -tiny, np.nextafter(tiny, np.float32(0)), np.nextafter(tiny, np.float32(1))]
        + [0.0] * (width - 4),
        np.nextafter(tiny, np.float32(0)) * gen.uniform(-1, 1, width),
        [6.0, -6.0, np.nextafter(np.float32(6), np.float32(0)), 0.5, -0.5,
         np.nextafter(np.float32(0.5), np.float32(1))] + [-0.0] * (width - 6),
    ]
    return np.vstack([rows, np.array(special, dtype=np.float32)])


def _signed_zero_cases() -> np.ndarray:
    """-0.0 in vectors held out at threshold 6 and in kept ones, along
    either axis: column 0 and row 1 reach 8, column 1 and row 0 do not."""
    return np.array([[-0.0, -0.0, 1.0, -0.0],
                     [8.0, -0.0, -2.0, 0.0],
                     [-0.0, 0.5, -0.0, -3.0]], dtype=np.float32)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("axis", [0, 1])
def test_quantizers_bitwise_equal_to_reference_expression(axis):
    x, edges = _rounding_cases(), _edge_cases()
    for cases in (x, edges, np.ascontiguousarray(edges.T), _signed_zero_cases()):
        qt = quant.absmax_quantize(cases, axis=axis)
        q, scales = absmax_quantize_ref(cases, axis)
        assert _same_bits(qt.q.astype(np.int8), q) and _same_bits(qt.scales, scales)
        # the unclipped float32 payload is within [-127, 127] and carries
        # the input's sign bit, signed zeros included
        assert _same_bits(qt.q, np.clip(qt.q, -127, 127))
        assert np.array_equal(np.signbit(qt.q), np.signbit(cases))
        for thr in (100.0, 6.0, 0.5, 1e-30, 1e30):
            qt = quant.quantize_with_outliers(cases, thr, axis=axis)
            q, scales, cols = quantize_with_outliers_ref(cases, thr, axis)
            assert _same_bits(qt.q.astype(np.int8), q) and _same_bits(qt.scales, scales)
            assert _same_bits(qt.q, np.clip(qt.q, -127, 127))
            assert np.array_equal(np.signbit(qt.q), np.signbit(cases))
            np.testing.assert_array_equal(qt.outlier_cols, cols)
    row = x[0]
    qt = quant.absmax_quantize(row)
    q, scales = absmax_quantize_ref(row)
    assert _same_bits(qt.q.astype(np.int8), q) and _same_bits(qt.scales, scales)


def test_quantize_with_outliers_threshold_validation():
    for threshold in (0.0, float("nan")):
        with pytest.raises(ParameterError, match="outlier threshold"):
            quant.quantize_with_outliers(np.ones((2, 2), dtype=np.float32), threshold)


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


def test_exact_block_bound():
    assert quant.EXACT_BLOCK * 127**2 < 2**24


@pytest.mark.parametrize("k", [1040, 1041, 3072])
def test_int8_matmul_long_contractions_exact(k):
    # all operands at +-127, the worst case for the float32 partial sums:
    # row 0 and column 0 are all +127, so their dot product is k * 127^2
    gen = stream(15, "quant-long")
    a = np.where(gen.random((3, k)) < 0.5, -127.0, 127.0).astype(np.float32)
    b = np.where(gen.random((k, 4)) < 0.5, -127.0, 127.0).astype(np.float32)
    a[0], b[:, 0] = 127.0, 127.0
    aq, bq = quant.absmax_quantize(a, axis=1), quant.absmax_quantize(b, axis=0)
    ref = aq.q.astype(np.int64) @ bq.q.astype(np.int64)
    assert ref[0, 0] == k * 127**2
    acc = quant._int_matmul(aq.q.astype(np.float32), bq.q.astype(np.float32))
    np.testing.assert_array_equal(acc, ref)
    # scales are exactly 1, so the output is the float32 rounding of the integers
    assert _same_bits(quant.int8_matmul(aq, bq), ref.astype(np.float64).astype(np.float32))


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


@st.composite
def _int8_operands(draw):
    """A per-row A and a per-column B as the kernels see them: absmax
    (threshold None) or outlier-split at the threshold, with outlier vectors
    in A, in B, in both or at the same index, all-zero rows and columns,
    values that round to zero from below, and either operand as a file loads
    it (its payload's -0.0 read back as +0.0)."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.sampled_from([1, 2, 9, quant.EXACT_BLOCK, quant.EXACT_BLOCK + 1,
                              2 * quant.EXACT_BLOCK + 3]))
    a = gen.normal(0, 1, (m, k)).astype(np.float32)
    b = gen.normal(0, 1, (k, n)).astype(np.float32)
    a[:, : min(k, 2)] = -1e-4
    if draw(st.booleans()):
        a[gen.integers(m)] = 0.0
        b[:, gen.integers(n)] = 0.0
    i, j = gen.integers(k), gen.integers(k)
    where = draw(st.sampled_from(["neither", "a", "b", "both", "same"]))
    if where in ("a", "both", "same"):
        a[:, i] *= 40.0
    if where in ("b", "both"):
        b[j, :] *= 40.0
    if where == "same":
        b[i, :] *= 40.0
    threshold = draw(st.sampled_from([None, 6.0, 0.5, 1e-30]))
    if threshold is None:
        aq, bq = quant.absmax_quantize(a, axis=1), quant.absmax_quantize(b, axis=0)
    else:
        aq = quant.quantize_with_outliers(a, threshold, axis=1)
        bq = quant.quantize_with_outliers(b, threshold, axis=0)
    loaded = draw(st.sampled_from(["neither", "a", "b"]))
    if loaded != "neither":
        qt = aq if loaded == "a" else bq
        qt = quant.QuantizedTensor(qt.q.astype(np.int8).astype(np.float32), qt.scales.copy(),
                                   qt.axis, qt.outlier_cols.copy(), qt.outlier_values.copy())
        aq, bq = (qt, bq) if loaded == "a" else (aq, qt)
    return aq, bq, draw(st.sampled_from([1, 7, quant.RESCALE_BLOCK]))


@settings(max_examples=200, deadline=None)
@given(_int8_operands())
def test_int8_matmul_equals_the_reference_product_byte_for_byte(operands):
    aq, bq, block = operands
    want = int8_matmul_ref(aq, bq)
    with mock.patch.object(quant, "RESCALE_BLOCK", block):
        got = quant.int8_matmul(aq, bq)
        assert _same_bits(got, want)
        assert _same_bits(quant.int8_matmul(aq, bq), want)  # a second call keeps no state


def test_int8_matmul_outlier_union_no_double_count():
    gen = stream(5, "quant-union")
    a = gen.normal(0, 1, (4, 6)).astype(np.float32)
    w = gen.normal(0, 1, (6, 3)).astype(np.float32)
    a[:, 2] *= 50.0
    w[4, :] *= 50.0
    aq = quant.quantize_with_outliers(a, threshold=6.0, axis=1)
    wq = quant.quantize_with_outliers(w, threshold=6.0, axis=0)
    got = quant.int8_matmul(aq, wq)
    # counting the union twice would be off by ~100
    np.testing.assert_allclose(got, aq.dequant() @ wq.dequant(), rtol=0, atol=1e-5)


def _attention_stacks(case: str):
    gen = stream(16, "quant-bmm")
    a = gen.normal(0, 1, (6, 5, 8)).astype(np.float32)
    b = gen.normal(0, 1, (6, 8, 7)).astype(np.float32)
    a[:, 0, :2] = -1e-4  # values that round to zero from below
    if case in ("a", "both"):
        a[1, :, 3] *= 40.0
        a[4, :, 0] *= 40.0
        a[2, :, 6] *= 40.0
    if case in ("b", "both"):
        b[2, 5, :] *= 40.0
        b[2, 6, :] *= 40.0  # same index as an outlier column of a[2]
        b[5, 1, :] *= 40.0
    return a, b


@pytest.mark.parametrize("case,threshold", [("neither", 6.0), ("a", 6.0), ("b", 6.0),
                                            ("both", 6.0), ("neither", 0.5), ("neither", 1e-30)])
def test_int8_bmm_bitwise_equal_to_per_slice_loop(case, threshold):
    a, b = _attention_stacks(case)
    got = quant.int8_bmm(a, b, threshold)
    assert _same_bits(got, attention_matmul_loop(a, b, threshold))


@pytest.mark.parametrize("block", [1, 100])  # row blocks of one slice; two whole slices
@pytest.mark.parametrize("case", ["neither", "both"])
def test_int8_bmm_rescale_blocks_keep_the_bits(case, block, monkeypatch):
    a, b = _attention_stacks(case)
    monkeypatch.setattr(quant, "RESCALE_BLOCK", block)
    assert _same_bits(quant.int8_bmm(a, b, 6.0), attention_matmul_loop(a, b, 6.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("operand", ["a", "b"])
def test_int8_bmm_rejects_non_finite(bad, operand):
    a, b = _attention_stacks("both")
    (a if operand == "a" else b)[3, 2, 1] = bad
    with pytest.raises(DataError):
        quant.int8_bmm(a, b, 6.0)


def test_int8_bmm_validation():
    a, b = _attention_stacks("neither")
    with pytest.raises(ShapeError):
        quant.int8_bmm(a, b[:, :7], 6.0)
    with pytest.raises(ShapeError):
        quant.int8_bmm(a[0], b[0], 6.0)
    for threshold in (0.0, float("nan")):
        with pytest.raises(ParameterError, match="outlier threshold"):
            quant.int8_bmm(a, b, threshold)


def test_contraction_fp_of_a_reloaded_handle_matches_dequant():
    gen = stream(17, "quant-contraction")
    w = gen.normal(0, 1, (9, 5)).astype(np.float32)
    w[[2, 7], :] *= 40.0
    for axis, x in ((0, w), (1, np.ascontiguousarray(w.T))):
        qt = quant.quantize_with_outliers(x, threshold=6.0, axis=axis)
        idx = np.array([0, 2, 4, 7])
        full = dequant_ref(qt)
        want = full[idx, :] if axis == 0 else full[:, idx]
        assert _same_bits(qt.contraction_fp(idx), want)


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
    fp32 = {name: persist._payload_bytes(tag, shape, payload)
            for name, tag, shape, payload in persist._records_for(m, None)[2]}
    int8 = {name: persist._payload_bytes(tag, shape, payload)
            for name, tag, shape, payload in persist._records_for(qm, None)[2]
            if tag == persist.DT_INT8}
    assert sorted(int8) == sorted(n for n in m.params if n.endswith(quant._LINEAR_WEIGHTS))
    for name, q_bytes in int8.items():
        n, n_out = m.param(name).size, m.param(name).shape[1]
        # int8 values plus one fp32 scale per output unit, the axis byte and
        # the scale and outlier counts, nothing else
        assert q_bytes == n + 4 * n_out + 9 and fp32[name] == 4 * n
        assert 3.7 < fp32[name] / q_bytes <= 4.0, name


def test_quantized_modes_keep_topology_and_extras(tmp_path):
    """Quantized and loaded handles, both modes, with and without a mask:
    `params` names the fp32 model's tensors, with their shapes, int8 exactly
    on the linear weights and each bias right after its weight."""
    dense = model.init_model(TINY, seed=1)
    pruned = model.clone_model(dense)
    mask = prune.compute_mask(pruned, 0.5)
    prune.apply_mask(pruned, mask)
    for mode in ("dynamic_int8", "int8_mixed"):
        for m, m_mask in ((dense, None), (pruned, mask)):
            qm = quant.quantize_model(m, mode, mask=m_mask)
            path = tmp_path / f"{mode}.sdcw"
            save_model(qm, path)
            loaded, loaded_mask = load_model(path)
            assert (loaded_mask is None) == (m_mask is None) and loaded.mask is loaded_mask
            for handle in (qm, loaded):
                assert handle.mode == mode
                assert set(handle.params) == set(model.param_names(TINY))
                names = list(handle.params)
                for name, p in handle.params.items():
                    is_weight = name.endswith(quant._LINEAR_WEIGHTS)
                    assert isinstance(p, quant.QuantizedTensor) == is_weight, name
                    assert p.shape == m.param(name).shape, name
                    if is_weight:
                        assert names[names.index(name) + 1] == model._bias_name(name), name


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
    for name in m.params:
        if name.endswith(quant._LINEAR_WEIGHTS):
            assert qm.params[name].outlier_cols.size == 0
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


def test_mixed_fidelity_no_threshold_worse_than_pure_int8(tmp_path):
    """Over thresholds 1e30 (pure int8) to 1e-30 (all fp32), on the handle
    and on its reloaded file: no threshold is worse than pure int8, a
    threshold above every vector gives the pure int8 logits, and the handle
    at 1e-30 is the fp32 forward. The error need not fall monotonically: a
    weight vector inside the outlier union is dequantized unless the weight
    holds it out, and the reloaded file's fp16 tensors add their rounding."""
    gen = stream(10, "quant-monotone")
    m = model.init_model(TINY, seed=6)
    ids, mask = _inputs(gen)
    with no_grad():
        ref = forward(m, ids, mask).data
    logits = {}
    for thr in (1e30, 6.0, 1.0, 0.25, 0.05, 1e-30):
        qm = quant.quantize_model_int8_mixed(m, thr)
        save_model(qm, tmp_path / "q.sdcw")
        logits["memory", thr] = quant.quantized_forward(qm, ids, mask)
        logits["file", thr] = quant.quantized_forward(load_model(tmp_path / "q.sdcw")[0], ids, mask)
    errs = {key: float(np.abs(got - ref).max()) for key, got in logits.items()}
    for handle in ("memory", "file"):
        assert logits[handle, 6.0].tobytes() == logits[handle, 1e30].tobytes(), handle
        for thr in (6.0, 1.0, 0.25, 0.05, 1e-30):
            assert errs[handle, thr] <= errs[handle, 1e30], errs
    assert errs["memory", 1e-30] <= 1e-6, errs


def test_quantized_forward_deterministic():
    gen = stream(11, "quant-det")
    m = model.init_model(TINY, seed=7)
    ids, mask = _inputs(gen)
    qm = quant.quantize_model_dynamic(m)
    a = quant.quantized_forward(qm, ids, mask)
    b = quant.quantized_forward(qm, ids, mask)
    np.testing.assert_array_equal(a, b)


def test_quantize_rejects_unknown_mode_and_bad_threshold():
    """A threshold that is not > 0, which `load_model` rejects in a quantized
    file, fails in either mode before any weight is read."""
    m = model.init_model(TINY, seed=9)
    with pytest.raises(ParameterError):
        quant.quantize_model(m, "int4")
    with mock.patch.object(quant, "_all_finite") as finite:
        for mode in ("dynamic_int8", "int8_mixed"):
            for threshold in (0.0, -1.0, float("nan")):
                with pytest.raises(ParameterError, match="outlier threshold"):
                    quant.quantize_model(m, mode, threshold=threshold)
        with pytest.raises(ParameterError):
            quant.quantize_model_int8_mixed(m, threshold=0.0)
    assert finite.call_count == 0


@pytest.mark.parametrize("mode", ["dynamic_int8", "int8_mixed"])
@pytest.mark.parametrize("bad", ["shape", "name"])
def test_quantize_rejects_a_mask_that_does_not_fit_the_model(mode, bad):
    """A mask over a tensor the model lacks, or of another shape than its
    tensor, fails before anything is quantized, naming the tensor: the
    handle would report the mask's sparsity as its own."""
    m = model.init_model(replace(TINY, num_layers=1), seed=9)
    name, shape = {"shape": ("layers.0.ffn.w1", (3, 3)),
                   "name": ("layers.7.ffn.w1", (TINY.hidden_size, TINY.ffn_size))}[bad]
    mask = prune.PruneMask({name: np.zeros(shape, dtype=np.uint8)})
    with mock.patch.object(quant, "absmax_quantize") as absmax, \
            mock.patch.object(quant, "quantize_with_outliers") as outliers:
        with pytest.raises(ShapeError, match=f"'{name}'"):
            quant.quantize_model(m, mode, mask=mask)
    assert absmax.call_count == outliers.call_count == 0


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
# the shared topology against the hand-written quantized forward

def _planted_model(cfg: model.EncoderConfig):
    """A model whose large LN gains give outlier columns at threshold 6, and
    the generator that drew them."""
    m = model.init_model(cfg, seed=12)
    gen = stream(12, "quant-ref")
    for name, p in m.params.items():
        if name.endswith("norm.gain"):
            p.data[gen.choice(cfg.hidden_size, 2, replace=False)] = 20.0
    return m, gen


@pytest.mark.parametrize("num_layers", [0, 1, 2])
def test_quantized_forward_equals_the_hand_written_reference(num_layers, tmp_path, monkeypatch):
    cfg = replace(TINY, num_layers=num_layers)
    m, gen = _planted_model(cfg)
    ids, mask = _inputs(gen, b=4, s=10)
    mask[1, 1:] = False  # a row with one live token
    ids[1, 1:] = data.PAD
    handles = {"dynamic": quant.quantize_model_dynamic(m)}
    for thr in (6.0, 0.5, 1e-30):
        qm = quant.quantize_model_int8_mixed(m, thr)
        save_model(qm, tmp_path / f"mixed{thr}.sdcw")
        handles[f"mixed{thr}"] = qm
        handles[f"mixed{thr} reloaded"] = load_model(tmp_path / f"mixed{thr}.sdcw")[0]
    outliers = []
    original = quant.quantize_with_outliers

    def counted(x, threshold, axis=1):
        qt = original(x, threshold, axis)
        outliers.append(qt.outlier_cols.size)
        return qt

    monkeypatch.setattr(quant, "quantize_with_outliers", counted)
    for tag, qm in handles.items():
        outliers.clear()
        got = quant.quantized_forward(qm, ids, mask)
        assert got.dtype == np.float32 and got.shape == (4, 10, cfg.num_classes)
        assert got.tobytes() == quantized_forward_ref(qm, ids, mask).tobytes(), tag
        if tag.startswith("mixed6.0"):
            assert sum(outliers) > 0, "the fp32 outlier path is not exercised"


@pytest.mark.parametrize("mode", ["dynamic_int8", "int8_mixed"])
def test_quantized_forward_over_the_float64_accumulator_equals_the_reference(mode, tmp_path,
                                                                              monkeypatch):
    m, gen = _planted_model(WIDE)
    ids, mask = _inputs(gen, b=4, s=10)
    qm = quant.quantize_model(m, mode, threshold=6.0)
    save_model(qm, tmp_path / "q.sdcw")
    contractions = []
    original = quant._int_matmul

    def recorded(qa, qb):
        contractions.append(qa.shape[-1])
        return original(qa, qb)

    for tag, handle in (("in memory", qm), ("reloaded", load_model(tmp_path / "q.sdcw")[0])):
        with monkeypatch.context() as patch:
            patch.setattr(quant, "_int_matmul", recorded)
            got = quant.quantized_forward(handle, ids, mask)
        assert got.tobytes() == quantized_forward_ref(handle, ids, mask).tobytes(), tag
    assert max(contractions) == 1100 > quant.EXACT_BLOCK


@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("mode,threshold", [("dynamic_int8", 6.0), ("int8_mixed", 6.0),
                                            ("int8_mixed", 0.5)])
def test_a_handle_computes_what_its_file_computes(mode, threshold, pruned, tmp_path):
    """A handle fresh from `quantize_model` holds nothing its file does not:
    every QuantizedTensor field equals its reloaded twin by value, and once
    a mixed handle's fp tensors are rounded through fp16, as its file stores
    them, its logits equal the reloaded file's bit for bit."""
    m, gen = _planted_model(TINY)
    mask = None
    if pruned:
        mask = prune.compute_mask(m, 0.5)
        prune.apply_mask(m, mask)
    ids, attention = _inputs(gen, b=4, s=10)
    qm = quant.quantize_model(m, mode, threshold=threshold, mask=mask)
    save_model(qm, tmp_path / "q.sdcw")
    loaded = load_model(tmp_path / "q.sdcw")[0]
    if mode == "int8_mixed":
        qm = replace(qm, params={name: p.astype(np.float16).astype(np.float32)
                                 if isinstance(p, np.ndarray) else p
                                 for name, p in qm.params.items()})
    got = quant.quantized_forward(qm, ids, attention)
    assert got.tobytes() == quant.quantized_forward(loaded, ids, attention).tobytes()
    for name, qt in qm.params.items():
        if not isinstance(qt, quant.QuantizedTensor):
            continue
        for f in fields(quant.QuantizedTensor):
            mine, twin = getattr(qt, f.name), getattr(loaded.params[name], f.name)
            if not (isinstance(mine, np.ndarray) or isinstance(twin, np.ndarray)):
                assert mine == twin, (name, f.name)
                continue
            assert isinstance(mine, np.ndarray) and isinstance(twin, np.ndarray), (name, f.name)
            # -0.0 is written as 0; an empty outlier set has no rows, whatever its width
            assert mine.size == twin.size == 0 or (
                mine.shape == twin.shape and np.array_equal(mine, twin)), (name, f.name)


# SHA-256 and size of the files that the code before the float32 images
# wrote for these handles
SAVED_FILES = {
    ("desk", "dynamic_int8"):
        ("342755d273572ab1dd4b8c41b93744b510ec83b2b13faa86e706c318477f5fa1", 640_291),
    ("desk", "int8_mixed"):
        ("67757ac101b2f6b61a7aa7a03c8fdc00f370daade200ddae61b589b7ac3be4b5", 372_497),
    ("wide", "dynamic_int8"):
        ("63c7fb73bc3a4a35783ffc77e579876b9572632f7a59b1c97d7933e7bb673a3f", 56_687),
    ("wide", "int8_mixed"):
        ("a9b422800534dd72db2b304215912f50dfca7a1a41cfce72faf579b75878ab38", 49_253),
}


@pytest.mark.parametrize("which,mode", sorted(SAVED_FILES))
def test_saved_files_hold_no_float32_image(which, mode, tmp_path):
    if which == "wide":
        m, gen = _planted_model(WIDE)
    else:
        m, gen = model.init_model(model.desk_config(), seed=12), stream(12, "quant-files")
    ids = gen.integers(4, m.config.vocab_size, size=(3, 12))
    mask = np.ones(ids.shape, dtype=bool)
    qm = quant.quantize_model(m, mode, threshold=6.0)
    want_sha, want_bytes = SAVED_FILES[which, mode]
    path = tmp_path / "q.sdcw"
    assert save_model(qm, path) == serialized_bytes(qm) == want_bytes == path.stat().st_size
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want_sha
    loaded = load_model(path)[0]
    logits = quant.quantized_forward(loaded, ids, mask)
    if mode == "dynamic_int8":
        assert logits.tobytes() == quant.quantized_forward(qm, ids, mask).tobytes()
    save_model(loaded, tmp_path / "again.sdcw")
    assert (tmp_path / "again.sdcw").read_bytes() == path.read_bytes()
