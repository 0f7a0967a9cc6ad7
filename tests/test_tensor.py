import numpy as np
import pytest

from sdcw import tensor as T
from sdcw.errors import DataError, NumericsError, ParameterError, ShapeError
from sdcw.rng import stream

from oracles import (
    adam_dense, cross_entropy64, gelu_f32, gelu_grad_f32, grad_rel_err, kl_soft64, layer_norm64,
    naive_matmul, softmax64,
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
    out = T.softmax(tensor([0.0, 0.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_softmax_closed_form_logs():
    x = np.log(np.array([1.0, 2.0, 3.0], dtype=np.float32))
    out = T.softmax(tensor(x), axis=-1)
    np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-6)


def test_softmax_large_inputs_no_overflow():
    out = T.softmax(tensor([1000.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-7)


def test_softmax_rows_sum_to_one_up_to_1e4():
    gen = stream(3, "softmax-rows")
    for scale in (1.0, 100.0, 1e4):
        x = gen.normal(0, scale, (20, 9)).astype(np.float32)
        rows = T.softmax(tensor(x), axis=-1).data.sum(axis=-1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-6)


def test_softmax_invalid_axis():
    with pytest.raises(ShapeError):
        T.softmax(tensor([[1.0, 2.0]]), axis=5)


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
# GELU and embedding backward

def test_gelu_bitwise_equal_to_shared_kernel_and_reference():
    gen = stream(15, "gelu-bits")
    edges = [0.0, -0.0, 1e-45, -1e-45, 9.0, -9.0, 40.0, -40.0]
    x = np.concatenate([gen.normal(0, 3, 4096), gen.normal(0, 1e-20, 64), edges])
    x = x.astype(np.float32).reshape(-1, 8)
    g = gen.normal(0, 1, x.shape).astype(np.float32)
    a = tensor(x, grad=True)
    out = T.gelu(a)
    assert out.data.tobytes() == T._gelu_np(x).tobytes() == gelu_f32(x).tobytes()
    T.backward(T.tsum(T.mul(out, tensor(g))))
    assert a.grad.tobytes() == gelu_grad_f32(x, g).tobytes()


def test_embedding_grad_adds_to_an_existing_grad():
    # a second backward pass without zero_grad accumulates into the table's grad
    gen = stream(16, "embedding-accum")
    table_data = gen.normal(0, 1, (12, 4)).astype(np.float32)
    ids = [np.array([[3, 5, 3], [0, 11, 5]]), np.array([[5, 7, 7]])]
    w = [gen.normal(0, 1, i.shape + (4,)).astype(np.float32) for i in ids]

    def backward_through(table, k):
        T.backward(T.tsum(T.mul(T.embedding(table, ids[k]), tensor(w[k]))))

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
        loss = T.tsum(T.mul(T.softmax(a, -1), tensor(w_small)))
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

    def embedding_case():
        table = tensor(gen.normal(0, 1, (7, 4)), grad=True)
        ids = np.array([[0, 3, 6, 3]])
        w = gen.normal(0, 1, (1, 4, 4)).astype(np.float32)
        loss = T.tsum(T.mul(T.embedding(table, ids), tensor(w)))
        return loss, table, lambda x: float((x[ids] * w).sum())

    return {
        "matmul": matmul_case, "softmax": softmax_case, "layer_norm": layer_norm_case,
        "gelu": gelu_case, "cross_entropy": ce_case, "kl_soft_targets": kl_case,
        "embedding": embedding_case,
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
                          "cross_entropy", "kl_soft_targets", "embedding"}


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
    shapes = {"big": (3, T.ADAM_CHUNK // 2 + 5), "small": (7,), "frozen": (4, 3)}
    params = {n: tensor(gen.normal(0, 1, s), grad=True) for n, s in shapes.items()}
    assert params["big"].size > T.ADAM_CHUNK
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
    p = tensor(gen.normal(0, 1, (2 * T.ADAM_CHUNK + 3,)), grad=True)
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


# ---------------------------------------------------------------------------
# numeric hygiene

def test_non_finite_result_raises():
    with pytest.raises(NumericsError):
        T.Tensor([np.inf, 1.0])
    big = tensor(np.full((2, 2), 3e38))
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        T.add(big, big)


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
