import ast
import inspect
import weakref

import numpy as np
import pytest

from sdcw import tensor as T
from sdcw.errors import DataError, NumericsError, ParameterError, ShapeError
from sdcw.rng import stream

from oracles import (
    adam_dense, cross_entropy64, erf_f32, gelu_f32, gelu_grad_f32, grad_rel_err, kl_soft64,
    layer_norm64, layer_norm_f32, naive_matmul, softmax64,
)


def tensor(values, grad=False):
    return T.Tensor(values, requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    b = tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(tensor(np.eye(2)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_hand_example():
    out = T.matmul(tensor([[1.0, 2.0], [3.0, 4.0]]), tensor([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_matmul_against_naive_triple_loop():
    gen = stream(0, "matmul-oracle")
    for _ in range(3):
        a = gen.normal(0, 1, (16, 16)).astype(np.float32)
        b = gen.normal(0, 1, (16, 16)).astype(np.float32)
        got = T.matmul(tensor(a), tensor(b)).data
        ref = naive_matmul(a, b)
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)


def test_matmul_grad_of_sum_is_ones_times_bt():
    gen = stream(1, "matmul-grad")
    a = tensor(gen.normal(0, 1, (3, 4)), grad=True)
    b = tensor(gen.normal(0, 1, (4, 5)))
    T.backward(T.tsum(T.matmul(a, b)))
    expected = np.ones((3, 5), dtype=np.float32) @ b.data.T
    np.testing.assert_allclose(a.grad, expected, rtol=1e-6)

    err = grad_rel_err(a.grad, lambda x: float((x @ b.data.astype(np.float64)).sum()), a.data)
    assert err < 1e-3


def test_matmul_batched_matches_per_slice():
    gen = stream(2, "matmul-batch")
    a = gen.normal(0, 1, (3, 4, 5)).astype(np.float32)
    b = gen.normal(0, 1, (3, 5, 2)).astype(np.float32)
    got = T.matmul(tensor(a), tensor(b)).data
    for i in range(3):
        np.testing.assert_allclose(got[i], a[i] @ b[i], rtol=1e-6)


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform_inputs():
    out = T.softmax(tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_softmax_closed_form_logs():
    x = np.log(np.array([1.0, 2.0, 3.0], dtype=np.float32))
    out = T.softmax(tensor(x))
    np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-6)


def test_softmax_large_inputs_no_overflow():
    out = T.softmax(tensor([1000.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-7)


def test_softmax_rows_sum_to_one_up_to_1e4():
    gen = stream(3, "softmax-rows")
    for scale in (1.0, 100.0, 1e4):
        x = gen.normal(0, scale, (20, 9)).astype(np.float32)
        rows = T.softmax(tensor(x)).data.sum(axis=-1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# layer norm

def test_layer_norm_constant_row_is_zero():
    x = tensor(np.full((2, 8), 3.5))
    out = T.layer_norm(x, tensor(np.ones(8)), tensor(np.zeros(8)), eps=1e-5)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-5)


def test_layer_norm_closed_form_two_points():
    out = T.layer_norm(tensor([[1.0, 3.0]]), tensor(np.ones(2)), tensor(np.zeros(2)), eps=0.0)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_standardizes_before_affine():
    gen = stream(4, "ln-std")
    x = gen.normal(2.0, 3.0, (10, 32)).astype(np.float32)
    out = T.layer_norm(tensor(x), tensor(np.ones(32)), tensor(np.zeros(32)), eps=1e-5).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)


def test_layer_norm_zero_length_axis_error():
    with pytest.raises(ShapeError):
        T.layer_norm(tensor(np.zeros((2, 0))), tensor(np.zeros(0)), tensor(np.zeros(0)))


def test_layer_norm_gain_shape_error():
    with pytest.raises(ShapeError):
        T.layer_norm(tensor(np.zeros((2, 4))), tensor(np.ones(3)), tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# cross entropy

def test_cross_entropy_peaked_logits_near_zero():
    logits = np.full((3, 4), -20.0, dtype=np.float32)
    labels = [1, 2, 0]
    for i, l in enumerate(labels):
        logits[i, l] = 20.0
    assert T.cross_entropy(tensor(logits, grad=True), labels).item() < 1e-6


def test_cross_entropy_uniform_is_ln_c():
    loss = T.cross_entropy(tensor(np.zeros((4, 5)), grad=True), [0, 1, 2, 3])
    np.testing.assert_allclose(loss.item(), np.log(5.0), rtol=1e-6)


def test_cross_entropy_all_ignored():
    logits = tensor(np.random.default_rng(0).normal(0, 1, (3, 4)), grad=True)
    loss = T.cross_entropy(logits, [-100, -100, -100])
    assert loss.item() == 0.0
    T.backward(loss)
    assert logits.grad is None


def test_cross_entropy_bad_label():
    with pytest.raises(DataError) as exc:
        T.cross_entropy(tensor(np.zeros((2, 3))), [0, 7])
    assert "7" in str(exc.value) and "position 1" in str(exc.value)


def test_cross_entropy_ignores_marked_rows():
    gen = stream(5, "ce-ignore")
    logits = gen.normal(0, 1, (6, 5)).astype(np.float32)
    labels = np.array([0, 1, -100, 3, -100, 2])
    got = T.cross_entropy(tensor(logits), labels).item()
    np.testing.assert_allclose(got, cross_entropy64(logits, labels), rtol=1e-5)


# ---------------------------------------------------------------------------
# distillation loss

def test_kl_matched_logits_is_zero():
    gen = stream(6, "kl-zero")
    x = gen.normal(0, 1, (4, 7)).astype(np.float32)
    loss = T.kl_soft_targets(tensor(x, grad=True), tensor(x), 4.0)
    assert abs(loss.item()) < 1e-6


def test_kl_hand_value():
    # teacher softmax [0.75, 0.25], student [0.5, 0.5], T=1
    loss = T.kl_soft_targets(tensor([[0.0, 0.0]], grad=True),
                             tensor([[np.log(3.0), 0.0]]), 1.0)
    expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    np.testing.assert_allclose(loss.item(), expected, rtol=1e-5)
    np.testing.assert_allclose(expected, 0.13081, atol=5e-6)


def test_kl_temperature_must_be_positive():
    with pytest.raises(ParameterError):
        T.kl_soft_targets(tensor([[0.0]]), tensor([[0.0]]), 0.0)
    with pytest.raises(ParameterError):
        T.kl_soft_targets(tensor([[0.0]]), tensor([[0.0]]), -2.0)


def test_kl_gradient_flows_to_student_only():
    gen = stream(7, "kl-flow")
    s = tensor(gen.normal(0, 1, (3, 5)), grad=True)
    t = tensor(gen.normal(0, 1, (3, 5)), grad=True)
    T.backward(T.kl_soft_targets(s, t, 2.0))
    assert s.grad is not None and np.any(s.grad != 0)
    assert t.grad is None


def test_kl_grad_scale_roughly_constant_in_temperature():
    gen = stream(8, "kl-t2")
    s_data = gen.normal(0, 1, (16, 9)).astype(np.float32)
    t_data = gen.normal(0, 1, (16, 9)).astype(np.float32)
    norms = {}
    for temp in (2.0, 8.0):
        s = tensor(s_data, grad=True)
        T.backward(T.kl_soft_targets(s, tensor(t_data), temp))
        norms[temp] = float(np.linalg.norm(s.grad))
    ratio = norms[2.0] / norms[8.0]
    assert 0.9 < ratio < 1.1


def test_kl_t2_scaling_of_value():
    gen = stream(9, "kl-val")
    s = gen.normal(0, 1, (5, 6)).astype(np.float32)
    t = gen.normal(0, 1, (5, 6)).astype(np.float32)
    for temp in (2.0, 3.0, 8.0):
        got = T.kl_soft_targets(tensor(s), tensor(t), temp).item()
        np.testing.assert_allclose(got, kl_soft64(s, t, temp), rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# GELU and row-gather backward

def test_gelu_bitwise_equal_to_shared_kernel_and_reference():
    """Tape op == shared kernel == whole-array oracle, forward and backward,
    on sizes around the chunk edge and at the published FFN width; the erf
    kernel run in place equals the oracle's erf, and GELU leaves x alone."""
    gen = stream(15, "gelu-bits")
    edges = [0.0, -0.0, 1e-45, -1e-45, 9.0, -9.0, 40.0, -40.0, 5.656854, -5.656854]
    for shape in [(0,), (1,), (T.CHUNK - 1,), (T.CHUNK + 1,), (1008, 3072)]:
        n = int(np.prod(shape))
        tail = np.concatenate([gen.normal(0, 1e-20, min(n, 64)), edges])
        x = np.concatenate([gen.normal(0, 3, max(n - tail.size, 0)), tail])[:n]
        x = x.astype(np.float32).reshape(shape)
        x_bytes = x.tobytes()
        g = gen.normal(0, 1, shape).astype(np.float32)
        a = tensor(x, grad=True)
        out = T.gelu(a)
        assert out.data.tobytes() == T._gelu_np(x).tobytes() == gelu_f32(x).tobytes(), shape
        T.backward(T.tsum(T.mul(out, tensor(g))))
        assert a.grad.tobytes() == gelu_grad_f32(x, g).tobytes(), shape
        assert x.tobytes() == x_bytes, shape
        z = x.copy()
        T._erf_inplace(z)
        assert z.tobytes() == erf_f32(x).tobytes(), shape


def test_erf_kernel_is_within_its_bound_of_float64_erf():
    from scipy.special import erf
    from oracles import gelu64
    # every 97th float32 bit pattern in [0, 4.5], and their negatives
    pos = np.arange(0, np.float32(4.5).view(np.uint32), 97, dtype=np.uint32).view(np.float32)
    for x in (pos, -pos):
        z = x.copy()
        T._erf_inplace(z)
        assert np.abs(z - erf(x.astype(np.float64))).max() <= 5e-7
    x = np.linspace(-12, 12, 480_001, dtype=np.float32)
    assert np.abs(T._gelu_np(x) - gelu64(x)).max() <= 1.5e-6


def test_erf_kernel_special_values():
    x = np.array([4.0, -4.0, np.inf, -np.inf, 0.0, -0.0, np.nan], dtype=np.float32)
    z = x.copy()
    T._erf_inplace(z)
    assert z[:4].tolist() == [1.0, -1.0, 1.0, -1.0]
    assert z[4:6].tolist() == [0.0, 0.0] and np.signbit(z[4:6]).tolist() == [False, True]
    assert np.isnan(z[6])
    with pytest.raises(NumericsError):
        T.gelu(tensor([0.5, np.nan]))


def test_layer_norm_bitwise_equal_to_shared_kernel_and_reference():
    gen = stream(17, "layer-norm-bits")
    x = gen.normal(0, 3, (64, 24)).astype(np.float32)
    x[1] = 7.0  # constant row: zero variance
    x[2] = gen.normal(1e4, 1e-3, 24)  # large offset, tiny spread
    x[3] = gen.normal(0, 1e-20, 24)
    x = x.reshape(4, 16, 24)
    gain = gen.normal(1, 0.5, 24).astype(np.float32)
    bias = gen.normal(0, 0.5, 24).astype(np.float32)
    out = T.layer_norm(tensor(x, grad=True), tensor(gain, grad=True), tensor(bias, grad=True), 1e-5)
    assert out.data.tobytes() == T._layer_norm_np(x, gain, bias, 1e-5).tobytes()
    assert out.data.tobytes() == layer_norm_f32(x, gain, bias, 1e-5).tobytes()


def test_embedding_grad_adds_to_an_existing_grad():
    # a second backward pass without zero_grad accumulates into the table's grad
    gen = stream(16, "embedding-accum")
    table_data = gen.normal(0, 1, (12, 4)).astype(np.float32)
    ids = [np.array([[3, 5, 3], [0, 11, 5]]), np.array([[5, 7, 7]])]
    w = [gen.normal(0, 1, i.shape + (4,)).astype(np.float32) for i in ids]

    def backward_through(table, k):
        T.backward(T.tsum(T.mul(T.take_rows(table, ids[k]), tensor(w[k]))))

    both, first, second = (tensor(table_data, grad=True) for _ in range(3))
    backward_through(both, 0)
    backward_through(both, 1)
    backward_through(first, 0)
    backward_through(second, 1)
    np.testing.assert_array_equal(both.grad, first.grad + second.grad)


# ---------------------------------------------------------------------------
# finite-difference gradient suite

def _gradcheck_cases(gen):
    """(name, build) pairs; build returns (loss_tensor, leaf, float64 loss fn)."""
    w_small = gen.normal(0, 1, (4, 6)).astype(np.float32)

    def matmul_case():
        a = tensor(gen.normal(0, 1, (4, 3)), grad=True)
        b = gen.normal(0, 1, (3, 6)).astype(np.float32)
        loss = T.tsum(T.mul(T.matmul(a, tensor(b)), tensor(w_small)))
        return loss, a, lambda x: float(((x @ b.astype(np.float64)) * w_small).sum())

    def softmax_case():
        a = tensor(gen.normal(0, 2, (4, 6)), grad=True)
        loss = T.tsum(T.mul(T.softmax(a), tensor(w_small)))
        return loss, a, lambda x: float((softmax64(x) * w_small).sum())

    def layer_norm_case():
        a = tensor(gen.normal(0, 1, (4, 6)), grad=True)
        gain = gen.normal(1, 0.3, 6).astype(np.float32)
        bias = gen.normal(0, 0.3, 6).astype(np.float32)
        loss = T.tsum(T.mul(T.layer_norm(a, tensor(gain), tensor(bias), 1e-5), tensor(w_small)))
        return loss, a, lambda x: float((layer_norm64(x, gain, bias, 1e-5) * w_small).sum())

    def gelu_case():
        from oracles import gelu64
        a = tensor(gen.normal(0, 1, (4, 6)), grad=True)
        loss = T.tsum(T.mul(T.gelu(a), tensor(w_small)))
        return loss, a, lambda x: float((gelu64(x) * w_small).sum())

    def ce_case():
        a = tensor(gen.normal(0, 1, (6, 5)), grad=True)
        labels = np.array([0, 1, -100, 3, 4, 2])
        loss = T.cross_entropy(a, labels)
        return loss, a, lambda x: cross_entropy64(x, labels)

    def kl_case():
        a = tensor(gen.normal(0, 1, (5, 6)), grad=True)
        t = gen.normal(0, 1, (5, 6)).astype(np.float32)
        loss = T.kl_soft_targets(a, tensor(t), 3.0)
        return loss, a, lambda x: kl_soft64(x, t, 3.0)

    def take_rows_case():
        table = tensor(gen.normal(0, 1, (7, 4)), grad=True)
        ids = np.array([[0, 3, 6, 3]])
        w = gen.normal(0, 1, (1, 4, 4)).astype(np.float32)
        loss = T.tsum(T.mul(T.take_rows(table, ids), tensor(w)))
        return loss, table, lambda x: float((x[ids] * w).sum())

    def rearrange_case():
        a = tensor(gen.normal(0, 1, (6, 4)), grad=True)
        split, axes, shape = (2, 3, 2, 2), (0, 2, 3, 1), (4, 2, 3)
        w = gen.normal(0, 1, shape).astype(np.float32)
        loss = T.tsum(T.mul(T.rearrange(a, split, axes, shape), tensor(w)))
        return loss, a, lambda x: float((x.reshape(split).transpose(axes).reshape(shape) * w).sum())

    return {
        "matmul": matmul_case, "softmax": softmax_case, "layer_norm": layer_norm_case,
        "gelu": gelu_case, "cross_entropy": ce_case, "kl_soft_targets": kl_case,
        "take_rows": take_rows_case, "rearrange": rearrange_case,
    }


def gradcheck_all_ops(seeds=range(5), tol=1e-3) -> dict:
    """Every differentiable op vs a float64 finite-difference oracle."""
    worst: dict[str, float] = {}
    for seed in seeds:
        gen = stream(seed, "grad-suite")
        for name, build in _gradcheck_cases(gen).items():
            loss, leaf, loss64 = build()
            T.backward(loss)
            err = grad_rel_err(leaf.grad, loss64, leaf.data)
            worst[name] = max(worst.get(name, 0.0), err)
    assert all(v < tol for v in worst.values()), worst
    return worst


def test_gradcheck_suite_five_seeds():
    worst = gradcheck_all_ops()
    assert set(worst) == {"matmul", "softmax", "layer_norm", "gelu",
                          "cross_entropy", "kl_soft_targets", "take_rows", "rearrange"}


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_keeps_fresh_params():
    p = tensor([1.0, -2.0, 3.0], grad=True)
    params = {"w": p}
    state = T.init_adam(params, learning_rate=0.1)
    T.adam_step(params, {"w": np.zeros(3, dtype=np.float32)}, state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])
    assert state.step == 1


def test_adam_moments_decay_without_gradient():
    p = tensor([1.0], grad=True)
    params = {"w": p}
    state = T.init_adam(params, learning_rate=0.01)
    T.adam_step(params, {"w": np.ones(1, dtype=np.float32)}, state)
    m1 = state.m["w"].copy()
    T.adam_step(params, {"w": np.zeros(1, dtype=np.float32)}, state)
    assert abs(state.m["w"][0]) < abs(m1[0])


def test_adam_first_step_magnitude_is_learning_rate():
    p = tensor([0.0], grad=True)
    params = {"w": p}
    state = T.init_adam(params, learning_rate=0.05)
    T.adam_step(params, {"w": np.ones(1, dtype=np.float32)}, state)
    np.testing.assert_allclose(abs(p.data[0]), 0.05, rtol=1e-4)


def test_adam_repeated_unit_gradient_steps_track_lr():
    p = tensor([0.0], grad=True)
    params = {"w": p}
    state = T.init_adam(params, learning_rate=0.05)
    for _ in range(10):
        before = p.data.copy()
        T.adam_step(params, {"w": np.ones(1, dtype=np.float32)}, state)
        np.testing.assert_allclose(abs(p.data - before), 0.05, rtol=1e-3)


def test_adam_nan_gradient_names_tensor():
    p = tensor([1.0], grad=True)
    params = {"bad.weight": p}
    state = T.init_adam(params, learning_rate=0.1)
    with pytest.raises(NumericsError) as exc:
        T.adam_step(params, {"bad.weight": np.array([np.nan], dtype=np.float32)}, state)
    assert "bad.weight" in str(exc.value)


def test_adam_deterministic_given_same_inputs():
    def run():
        gen = stream(11, "adam-det")
        p = tensor(gen.normal(0, 1, (4, 4)), grad=True)
        params = {"w": p}
        state = T.init_adam(params, learning_rate=1e-3)
        for _ in range(5):
            g = gen.normal(0, 1, (4, 4)).astype(np.float32)
            T.adam_step(params, {"w": g}, state)
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def _adam_grads(gen, shapes, step):
    """Gradients with exact zeros, negative zeros and a wide magnitude range;
    'frozen' never has one and 'small' skips every other step."""
    grads = {}
    for name, shape in shapes.items():
        if name == "frozen" or (name == "small" and step % 2):
            grads[name] = None
            continue
        g = (gen.normal(0, 1, shape) * 10.0 ** gen.integers(-30, 5, shape)).astype(np.float32)
        g.reshape(-1)[::97] = 0.0
        g.reshape(-1)[1::89] = -0.0
        grads[name] = g
    return grads


def test_adam_chunked_matches_dense_reference_bytewise():
    gen = stream(13, "adam-chunks")
    shapes = {"big": (3, T.CHUNK // 2 + 5), "small": (7,), "frozen": (4, 3)}
    params = {n: tensor(gen.normal(0, 1, s), grad=True) for n, s in shapes.items()}
    assert params["big"].size > T.CHUNK
    ref = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
           for n, p in params.items()}
    state = T.init_adam(params, learning_rate=1e-3)
    for step in range(1, 5):
        grads = _adam_grads(gen, shapes, step)
        T.adam_step(params, grads, state)
        for name, (p, m, v) in ref.items():
            adam_dense(p, grads[name], m, v, step, 1e-3)
            assert params[name].data.tobytes() == p.tobytes(), (name, step)
            assert state.m[name].tobytes() == m.tobytes(), (name, step)
            assert state.v[name].tobytes() == v.tobytes(), (name, step)


def test_adam_nan_in_last_chunk_leaves_parameter_untouched():
    gen = stream(14, "adam-nan-chunk")
    p = tensor(gen.normal(0, 1, (2 * T.CHUNK + 3,)), grad=True)
    params = {"w": p}
    state = T.init_adam(params, learning_rate=1e-2)
    T.adam_step(params, {"w": gen.normal(0, 1, p.shape).astype(np.float32)}, state)
    before = [p.data.copy(), state.m["w"].copy(), state.v["w"].copy()]
    g = gen.normal(0, 1, p.shape).astype(np.float32)
    g[-1] = np.nan
    with pytest.raises(NumericsError) as exc:
        T.adam_step(params, {"w": g}, state)
    assert "'w'" in str(exc.value)
    for got, want in zip([p.data, state.m["w"], state.v["w"]], before):
        assert got.tobytes() == want.tobytes()


def test_adam_row_sparse_matches_dense_reference_bytewise():
    gen = stream(17, "adam-rows")
    vocab, width = 40, T.CHUNK // 32  # the table holds more than one chunk
    data = gen.normal(0, 1, (vocab, width)).astype(np.float32)
    data[[2, 9]] = 0.0
    data[[3, 11]] = -0.0
    data[5, ::3] = -0.0
    table, dense = tensor(data, grad=True), tensor(gen.normal(0, 1, (3, 4)), grad=True)
    params = {"table": table, "dense": dense}
    assert table.size > T.CHUNK
    # rows 3 and 9 fall silent after step 1, come back at step 4; step 3 has no lookup at all
    supports = [[3, 5, 9, 9, 11], [5, 30, 2], None, [9, 3, 39, 0], [5, 5, 5], [17]]
    w = gen.normal(0, 1, (8, width)).astype(np.float32)
    w[3] = -w[2]  # row 9 appears twice at step 1: an exact zero gradient inside the support
    ref = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
           for n, p in params.items()}
    state = T.init_adam(params, learning_rate=1e-2)
    seen = set()
    for step, support in enumerate(supports, start=1):
        ids = None if support is None else np.array(support)
        grads = dict.fromkeys(params)
        if ids is not None:
            T.backward(T.add(T.tsum(T.mul(T.take_rows(table, ids), tensor(w[: ids.size]))),
                             T.tsum(T.mul(dense, dense))))
            assert table.grad_rows.tolist() == sorted(set(support))
            grads = {n: p.grad.copy() for n, p in params.items()}
            seen |= set(support)
        T.adam_step(params, {n: p.grad for n, p in params.items()}, state)
        T.zero_grads(params)
        for name, (p, m, v) in ref.items():
            adam_dense(p, grads[name], m, v, step, 1e-2)
            assert params[name].data.tobytes() == p.tobytes(), (name, step)
            assert state.m[name].tobytes() == m.tobytes(), (name, step)
            assert state.v[name].tobytes() == v.tobytes(), (name, step)
        assert state.rows["table"].tolist() == sorted(seen)
        assert "dense" not in state.rows


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_row_sparse_non_finite_leaves_state_untouched(bad):
    gen = stream(18, "adam-rows-nan")
    table = tensor(gen.normal(0, 1, (30, 8)), grad=True)
    params = {"table": table}
    state = T.init_adam(params, learning_rate=1e-2)
    w = gen.normal(0, 1, (3, 8)).astype(np.float32)
    T.backward(T.tsum(T.mul(T.take_rows(table, np.array([4, 7, 20])), tensor(w))))
    T.adam_step(params, {"table": table.grad}, state)
    T.zero_grads(params)
    before = [table.data.copy(), state.m["table"].copy(), state.v["table"].copy(),
              state.rows["table"].copy()]
    T.backward(T.tsum(T.mul(T.take_rows(table, np.array([7, 25, 1])), tensor(w))))
    table.grad[25, 3] = bad
    with pytest.raises(NumericsError) as exc:
        T.adam_step(params, {"table": table.grad}, state)
    assert "'table'" in str(exc.value)
    after = [table.data, state.m["table"], state.v["table"], state.rows["table"]]
    for got, want in zip(after, before):
        assert got.tobytes() == want.tobytes()


def test_adam_dense_contribution_falls_back_for_good():
    gen = stream(19, "adam-rows-dense")
    table = tensor(gen.normal(0, 1, (30, 8)), grad=True)
    params = {"table": table}
    p_ref, m_ref, v_ref = table.data.copy(), np.zeros_like(table.data), np.zeros_like(table.data)
    state = T.init_adam(params, learning_rate=1e-2)
    w = gen.normal(0, 1, (3, 8)).astype(np.float32)
    extra = gen.normal(0, 1, (30, 8)).astype(np.float32)
    for step, ids in enumerate([[4, 7, 20], [7, 25, 1], [2, 2, 9], [20, 4, 1]], start=1):
        T.backward(T.tsum(T.mul(T.take_rows(table, np.array(ids)), tensor(w))))
        if step == 2:
            T._accum(table, extra)  # a second, dense contribution
            assert table.grad_rows is None
        g = table.grad.copy()
        T.adam_step(params, {"table": table.grad}, state)
        T.zero_grads(params)
        adam_dense(p_ref, g, m_ref, v_ref, step, 1e-2)
        assert table.data.tobytes() == p_ref.tobytes(), step
        assert state.m["table"].tobytes() == m_ref.tobytes(), step
        assert state.v["table"].tobytes() == v_ref.tobytes(), step
        assert ("table" in state.rows) == (step == 1)


def test_gradient_of_a_tied_table_is_dense():
    gen = stream(20, "tied-table")
    table = tensor(gen.normal(0, 1, (12, 4)), grad=True)
    tok = T.take_rows(table, np.array([[3, 5], [5, 0]]))
    logits = T.matmul(T.reshape(tok, (4, 4)), T.transpose(table, (1, 0)))
    T.backward(T.cross_entropy(logits, np.array([1, 2, 3, 4])))
    assert table.grad_rows is None
    table.zero_grad()
    T.backward(T.tsum(T.take_rows(table, np.array([[3, 5], [5, 0]]))))
    assert table.grad_rows.tolist() == [0, 3, 5]
    table.zero_grad()
    assert table.grad is None and table.grad_rows is None


EVERY_OP_SHAPES = [(9, 6), (5, 6), (6,), (6,), (6, 8), (8,), (4, 8)]


def _every_op_loss(leaves):
    """Backward through a loss that uses every tape op."""
    table, pos, gain, bias, w1, colscale, w2 = leaves
    x = T.add(T.take_rows(table, np.array([[1, 4, 4], [7, 1, 0]])), T.take_rows(pos, np.arange(3)))
    x = T.dropout(T.layer_norm(x, gain, bias), 0.25, stream(21, "every-op-dropout"))
    z = T.mul(T.gelu(T.matmul(T.reshape(x, (6, 6)), w1)), colscale)
    z3 = T.reshape(z, (2, 3, 8))
    att = T.softmax(T.scale(T.matmul(z3, T.transpose(z3, (0, 2, 1))), 0.5))
    logits = T.matmul(T.reshape(T.matmul(att, z3), (6, 8)), T.transpose(w2, (1, 0)))
    teacher = tensor(stream(22, "every-op-teacher").normal(0, 1, (6, 4)))
    loss = T.add(T.cross_entropy(logits, np.array([0, 3, -100, 1, 2, 2])),
                 T.kl_soft_targets(logits, teacher, 2.0))
    loss = T.add(loss, T.scale(T.tsum(T.take_rows(logits, np.array([5, 0, 5]))), 0.01))
    T.backward(loss)
    return loss


def _tape_tensors(root):
    out, stack, seen = [], [root], set()
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            out.append(t)
            stack.extend(t._parents)
    return out


def _captured_arrays(nodes):
    """Every array that the backward closures of `nodes` captured."""
    return [cell.cell_contents for t in nodes if t._backward is not None
            for cell in t._backward.__closure__ or () if isinstance(cell.cell_contents, np.ndarray)]


def test_fresh_gradients_handed_over_share_no_memory(monkeypatch):
    """Handing gradients over instead of copying them changes no bit: the
    leaf gradients equal those of a tape that copies every gradient it
    accumulates. After `backward` only the leaves keep a gradient, and none
    shares memory with another gradient, with any `.data` on the graph or
    with any array a backward closure captured. Interior nodes hold no
    data."""
    gen = stream(23, "every-op")
    values = [gen.normal(0, 1, s).astype(np.float32) for s in EVERY_OP_SHAPES]
    original = T._accum
    runs = []
    for copy_all in (False, True):
        leaves = [tensor(v, grad=True) for v in values]
        with monkeypatch.context() as mp:
            if copy_all:  # every gradient copied, as before fresh ones were handed over
                mp.setattr(T, "_accum", lambda t, g, fresh=False, rows=None: original(t, g, False, rows))
            runs.append((leaves, _every_op_loss(leaves)))
    (leaves, loss), (copied, _) = runs
    for got, want in zip(leaves, copied):
        assert got.grad.tobytes() == want.grad.tobytes()
    nodes = _tape_tensors(loss)
    assert len(nodes) > 30
    assert all(t.data is None for t in nodes if t._parents and t is not loss)
    grads = [t.grad for t in nodes if t.grad is not None]
    arrays = [t.data for t in nodes if t.data is not None] + _captured_arrays(nodes)
    assert len(grads) == len(leaves) and len(arrays) > 30
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, other) for other in grads[i + 1:] + arrays)


def test_the_tape_frees_what_no_backward_reads():
    """A linear output read only by `reshape` and `scale`, and GELU's input,
    are freed as soon as the caller drops them while their graph is alive;
    `backward` then gives the chain rule's float32 gradients bit for bit."""
    gen = stream(27, "tape-frees")
    x, w1, b1, w2 = (tensor(gen.normal(0, 1, s), grad=True) for s in ((6, 4), (4, 8), (8,), (8, 3)))
    g = gen.normal(0, 1, (3, 6)).astype(np.float32)
    h = T.matmul(x, w1, bias=b1)
    h_values, dropped = h.data.copy(), [weakref.ref(h.data)]
    z = T.gelu(h)
    y = T.matmul(z, w2)
    r = T.reshape(y, (3, 6))
    dropped.append(weakref.ref(y.data))
    out = T.scale(r, 0.5)
    del h, y, r
    assert [ref() is None for ref in dropped] == [True, True]
    T.backward(T.tsum(T.mul(out, tensor(g))))
    gy = (g * np.float32(0.5)).reshape(6, 3)
    gh = gelu_grad_f32(h_values, gy @ w2.data.T)
    for leaf, want in ((w2, z.data.T @ gy), (w1, x.data.T @ gh), (b1, gh.sum(axis=0)),
                       (x, gh @ w1.data.T)):
        assert leaf.grad.tobytes() == want.tobytes()


def test_no_backward_closure_reads_a_tensors_data():
    """A backward closure (a nested def or lambda) in the tensor module reads
    the arrays its op captured, never an attribute named `data`: reading a
    Tensor's `.data` in backward would keep that array alive on the tape."""
    tree = ast.parse(inspect.getsource(T))
    closures = {inner for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.Lambda))
                for inner in ast.walk(fn)
                if inner is not fn and isinstance(inner, (ast.FunctionDef, ast.Lambda))}
    assert len(closures) > 10
    reads = sorted(node.lineno for fn in closures for node in ast.walk(fn)
                   if isinstance(node, ast.Attribute) and node.attr == "data")
    assert reads == [], f"tensor.py lines {reads} read .data inside a closure"


def test_backward_releases_every_interior_gradient():
    gen = stream(24, "every-op")
    leaves = [tensor(gen.normal(0, 1, s), grad=True) for s in EVERY_OP_SHAPES]
    loss = _every_op_loss(leaves)
    interior = [t for t in _tape_tensors(loss) if t._parents]
    assert len(interior) > 20
    assert all(t.grad is None and t.grad_rows is None for t in interior)
    assert all(leaf.grad is not None for leaf in leaves)


def test_a_second_backward_adds_the_same_gradient_again():
    x = tensor(np.ones(3), grad=True)
    loss = T.tsum(T.scale(T.scale(x, 2.0), 3.0))
    T.backward(loss)
    assert x.grad.tolist() == [6.0, 6.0, 6.0]
    T.backward(loss)
    assert x.grad.tolist() == [12.0, 12.0, 12.0]


def test_add_hands_its_gradient_to_one_operand_and_a_copy_to_the_other():
    gen = stream(25, "add-self")
    x, y = (tensor(gen.normal(0, 1, (3, 4)), grad=True) for _ in range(2))
    w = gen.normal(0, 1, (3, 4)).astype(np.float32)
    T.backward(T.tsum(T.mul(T.add(x, y), tensor(w))))
    assert x.grad.tobytes() == y.grad.tobytes() == w.tobytes()
    assert not np.shares_memory(x.grad, y.grad)
    x.zero_grad()
    T.backward(T.tsum(T.mul(T.add(x, x), tensor(w))))
    assert x.grad.tobytes() == (w + w).tobytes()


def test_matmul_bias_equals_add_of_matmul_bytewise():
    gen = stream(26, "matmul-bias")
    values = [gen.normal(0, 1, s).astype(np.float32) for s in ((5, 4), (4, 3), (3,), (5, 3))]
    runs = []
    for fused in (True, False):
        a, b, bias = (tensor(v, grad=True) for v in values[:3])
        out = T.matmul(a, b, bias=bias) if fused else T.add(T.matmul(a, b), bias)
        T.backward(T.tsum(T.mul(out, tensor(values[3]))))
        runs.append([t.tobytes() for t in (out.data, a.grad, b.grad, bias.grad)])
    assert runs[0] == runs[1]


def test_matmul_bias_must_match_the_output_columns():
    a, b = tensor(np.ones((4, 3))), tensor(np.ones((3, 5)))
    for shape in ((4,), (1, 5), (5, 1)):
        with pytest.raises(ShapeError, match="bias"):
            T.matmul(a, b, bias=tensor(np.zeros(shape)))


# ---------------------------------------------------------------------------
# numeric hygiene

def test_non_finite_result_raises():
    with pytest.raises(NumericsError):
        T.Tensor([np.inf, 1.0])
    big = tensor(np.full((2, 2), 3e38))
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        T.add(big, big)


@pytest.mark.parametrize("layout", ["contiguous", "permuted", "strided"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finiteness_is_checked_in_every_chunk(layout, bad):
    base = np.ones((3, T.CHUNK // 2 + 5), dtype=np.float32)  # more than one chunk
    view = {"contiguous": base, "permuted": base.T, "strided": base[:, ::2]}[layout]
    assert T._all_finite(view) and T._all_finite(view[:0])
    for at in ((0, 0), (2, -1), (1, view.shape[1] // 2)):
        view[at] = bad
        with pytest.raises(NumericsError, match="tensor init"):
            T.Tensor(view)
        view[at] = 1.0


def test_dropout_rate_zero_is_identity():
    x = tensor([[1.0, 2.0]], grad=True)
    assert T.dropout(x, 0.0, None) is x


def test_dropout_scales_kept_values():
    gen = stream(12, "dropout")
    x = tensor(np.ones((100, 100)), grad=True)
    out = T.dropout(x, 0.5, gen)
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 2.0)
    assert 0.4 < (out.data != 0).mean() < 0.6
