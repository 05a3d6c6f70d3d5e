import numpy as np
import pytest

from planlm import autodiff as ad
from planlm import nn
from planlm.autodiff import Adam, Tensor

from gradcheck import max_relative_error

TOL = 1e-3


def rng():
    return np.random.default_rng(0)


# -- hand-checked forward values ----------------------------------------------


def test_softmax_of_zeros_is_uniform():
    out = Tensor(np.zeros((1, 4))).softmax()
    np.testing.assert_allclose(out.values, 0.25)


def test_cross_entropy_of_one_hot_correct_is_zero():
    logits = Tensor(np.array([[40.0, 0.0, 0.0]], dtype=np.float32))
    loss = ad.cross_entropy(logits, np.array([0]))
    assert loss.item() == 0.0


def test_matmul_matches_hand_computation():
    a = Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    b = Tensor(np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]]))
    np.testing.assert_array_equal((a @ b).values,
                                  [[58.0, 64.0], [139.0, 154.0]])


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ad.ShapeError, match=r"2, 3"):
        _ = Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_gelu_float32_matches_the_float64_closed_form():
    x = np.concatenate([np.linspace(-10.0, 10.0, 2001), np.zeros(3),
                        [-1e4, -1e3, -50.0, 50.0, 1e3, 1e4],
                        rng().normal(0.0, 3.0, 1000)]).astype(np.float32)
    out = ad.gelu(Tensor(x)).values
    x64 = x.astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    want = 0.5 * x64 * (1.0 + np.tanh(c * (x64 + 0.044715 * x64**3)))
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, want, rtol=1e-5, atol=2e-6)
    assert (out[2001:2004] == 0.0).all()


def test_layer_norm_param_shape_mismatch_raises():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(ad.ShapeError):
        ad.layer_norm(x, nn.ones_param((3,)), nn.zeros_param((3,)))


# -- simple backward identities ------------------------------------------------


def test_grad_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_grad_of_sum_of_squares_is_2x():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, 2.0 * x.values)


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.backward(x * x)


# -- finite-difference agreement, op by op -------------------------------------


def _check(loss_fn, shapes, seed=0):
    r = np.random.default_rng(seed)
    params = [r.normal(0, 1, s).astype(np.float32) for s in shapes]
    err = max_relative_error(loss_fn, params)
    assert err <= TOL, f"gradient mismatch: {err:.2e}"


def test_grad_add_broadcast():
    _check(lambda p: (p[0] + p[1]).sum(), [(3, 4), (4,)])


def test_grad_mul_broadcast():
    _check(lambda p: (p[0] * p[1]).sum(), [(2, 3, 4), (3, 4)])


def test_grad_scale_and_sub():
    _check(lambda p: (3.0 * p[0] - p[1]).sum(), [(5,), (5,)])


def test_grad_matmul_batched():
    _check(lambda p: ((p[0] @ p[1]) * p[2]).sum(), [(2, 3, 4), (4, 5), (2, 3, 5)])


def test_grad_reshape_swapaxes():
    _check(lambda p: (p[0].reshape(2, 3, 2, 4).swapaxes(1, 2) * p[1]).sum(),
           [(2, 6, 4), (2, 2, 3, 4)])


def test_grad_reduce_mean_axis():
    _check(lambda p: (p[0].mean(axis=1) * p[1]).sum(), [(3, 5), (3,)])


def test_grad_softmax():
    _check(lambda p: (p[0].softmax() * p[1]).sum(), [(4, 6), (4, 6)])


def test_grad_gelu():
    _check(lambda p: ad.gelu(p[0]).sum(), [(3, 7)])


def test_grad_layer_norm():
    _check(lambda p: (ad.layer_norm(p[0], p[1], p[2]) * p[3]).sum(),
           [(4, 8), (8,), (8,), (4, 8)])


def test_grad_embedding():
    ids = np.array([[0, 2], [1, 2]])
    _check(lambda p: (ad.embedding(p[0], ids) * p[1]).sum(), [(3, 4), (2, 2, 4)])


def test_grad_cross_entropy_masked():
    targets = np.array([[1, 0], [2, 2]])
    mask = np.array([[1.0, 0.0], [1.0, 1.0]])
    _check(lambda p: ad.cross_entropy(p[0], targets, mask), [(2, 2, 3)])


def test_grad_causal_attention_composition():
    t, d, h = 4, 6, 2

    def loss(p):
        rng_ = np.random.default_rng(3)
        attn = nn.SelfAttention.__new__(nn.SelfAttention)
        attn.d, attn.n_heads, attn.d_head, attn.causal = d, h, d // h, True
        attn.wq = nn.Linear(rng_, d, d)
        attn.wk = nn.Linear(rng_, d, d)
        attn.wv = nn.Linear(rng_, d, d)
        attn.wo = nn.Linear(rng_, d, d)
        attn.wq.w, attn.wk.w, attn.wv.w, attn.wo.w = p[1], p[2], p[3], p[4]
        return (attn(p[0]) * 1.0).sum()

    _check(loss, [(1, t, d)] + [(d, d)] * 4)


def test_causal_attention_ignores_future():
    r = rng()
    attn = nn.SelfAttention(r, 8, 2, causal=True)
    x = r.normal(0, 1, (1, 5, 8)).astype(np.float32)
    y1 = attn(Tensor(x)).values
    x2 = x.copy()
    x2[0, 4, :] += 10.0
    y2 = attn(Tensor(x2)).values
    np.testing.assert_allclose(y1[0, :4], y2[0, :4], atol=1e-6)
    assert np.abs(y1[0, 4] - y2[0, 4]).max() > 1e-3


# -- optimizer ------------------------------------------------------------------


def test_adam_zero_gradients_leave_parameters_unchanged():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    before = p.values.copy()
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros_like(p.values)
    opt.step()
    np.testing.assert_array_equal(p.values, before)


def test_adam_descends_on_quadratic():
    w = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    opt = Adam([w], lr=0.1)
    ad.backward((w * w).sum())
    opt.step()
    assert w.values[0] < 1.0
    assert w.grad is None  # cleared after the step


def test_adam_runs_are_bit_identical():
    def run():
        r = np.random.default_rng(7)
        w = Tensor(r.normal(0, 1, (4, 4)).astype(np.float32), requires_grad=True)
        opt = Adam([w], lr=1e-2)
        for _ in range(5):
            x = Tensor(r.normal(0, 1, (2, 4)).astype(np.float32))
            loss = ad.cross_entropy(x @ w, np.array([0, 1]))
            ad.backward(loss)
            opt.step()
        return w.values.tobytes()

    assert run() == run()


# -- debug guards ----------------------------------------------------------------


def test_debug_checks_catch_non_finite():
    with pytest.raises(FloatingPointError):
        ad.gelu(Tensor(np.array([np.inf], dtype=np.float32)))
