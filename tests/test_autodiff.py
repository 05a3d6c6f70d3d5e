import platform
import resource
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from planlm import autodiff as ad
from planlm import evaluation, nn
from planlm.autodiff import Adam, Tensor
from planlm.lm import BaseLM, LmConfig, train_lm

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


def _stacked_matmul(a, b, g):
    """The batched `np.matmul` forward and gradients that the one-GEMM
    `(..., k) @ (k, n)` path replaced."""
    ga = np.matmul(g, np.swapaxes(b, -1, -2))
    gb = np.matmul(np.swapaxes(a, -1, -2), g).sum(axis=tuple(range(a.ndim - 2)))
    return np.matmul(a, b), ga, gb


@pytest.mark.parametrize("a_shape, b_shape, dtype, swapped", [
    ((4, 16, 32), (32, 24), np.float32, False),
    ((3, 2, 7, 8), (8, 5), np.float32, False),
    ((0, 3, 4), (4, 5), np.float32, False),
    ((2, 3, 0), (0, 5), np.float32, False),
    ((6, 5, 8), (8, 6), np.float32, True),
    ((2, 3, 4, 8), (8, 6), np.float64, False),
    ((5, 8), (8, 3), np.float32, False),
])
def test_matmul_rows_match_the_stacked_matmul(a_shape, b_shape, dtype, swapped):
    r = rng()
    a_np = r.normal(0, 1, a_shape).astype(dtype)
    if swapped:
        a_np = a_np.swapaxes(0, 1)
        assert not a_np.flags.c_contiguous
    b_np = r.normal(0, 1, b_shape).astype(dtype)
    a = Tensor(a_np, requires_grad=True)
    b = Tensor(b_np, requires_grad=True)
    out = a @ b
    g = r.normal(0, 1, out.shape).astype(dtype)
    out._backward(g)
    want, ga, gb = _stacked_matmul(a_np, b_np, g)
    for got, ref in ((out.values, want), (a.grad, ga)):
        assert got.dtype == dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    # the one GEMM sums every row at once, so only rounding may differ
    assert b.grad.dtype == dtype and b.grad.shape == b_shape
    np.testing.assert_allclose(b.grad, gb, rtol=1e-5, atol=1e-5)


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


# -- in-place kernels against the plain formulas they replaced ------------------

_REF_GELU_C = float(np.sqrt(2.0 / np.pi))
_REF_GELU_A = 0.044715


def _softmax_ref(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    inner = (g * out).sum(axis=-1, keepdims=True)
    return out, [out * (g - inner)]


def _gelu_ref(x, g):
    u = _REF_GELU_C * (x + _REF_GELU_A * (x * x * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)
    du = _REF_GELU_C * (1.0 + 3.0 * _REF_GELU_A * x**2)
    grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du
    return out, [g * grad]


def _layer_norm_ref(x, gain, bias, g, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain + bias
    lead = tuple(range(g.ndim - 1))
    gx = g * gain
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return out, [inv * (gx - m1 - xhat * m2), (g * xhat).sum(axis=lead),
                 g.sum(axis=lead)]


def _cross_entropy_ref(logits, targets, mask, g):
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    weights = mask.astype(flat_logits.dtype).reshape(-1)
    total = weights.sum()
    m = flat_logits.max(axis=-1, keepdims=True)
    e = np.exp(flat_logits - m)
    z = e.sum(axis=-1, keepdims=True)
    logz = np.log(z) + m
    rows = np.arange(flat_targets.shape[0])
    nll = logz[:, 0] - flat_logits[rows, flat_targets]
    out = np.asarray((nll * weights).sum() / total, dtype=flat_logits.dtype)
    probs = e / z
    probs[rows, flat_targets] -= 1.0
    probs *= (weights / total)[:, None] * g
    return out, [probs.reshape(logits.shape)]


def _float32s(data, shape, dtype=np.float32):
    """Generic float values, float32 unless `dtype` says otherwise
    (hypothesis would mostly pick exact ones such as 0.0 and 1.0, whose
    products round the same in any order)."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0]))
    return np.random.default_rng(seed).normal(0.0, scale, shape).astype(dtype)


def _masked_softmax_ref(x, scale, bias, g):
    out, [grad] = _softmax_ref(x * scale + bias, g)
    return out, [grad * scale]


def _matmul_bias_ref(x, w, b, g):
    """The unfused Linear: the one-GEMM product, then a broadcast add."""
    k, n = w.shape
    x2, g2 = x.reshape(-1, k), g.reshape(-1, n)
    return ((x2 @ w).reshape(g.shape) + b,
            [(g2 @ w.T).reshape(x.shape), x2.T @ g2,
             g.sum(axis=tuple(range(g.ndim - 1)))])


def _embedding_ref(table, ids, g):
    grad = np.zeros_like(table)
    np.add.at(grad, ids, g)
    return table[ids], [grad]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# op -> (forward on the input tensors, reference(*inputs, g)); the
# gradients that merely pass `g` on must still be copies of it
STRUCTURAL = {
    "add": (lambda t: t[0] + t[1], lambda a, b, g: (a + b, [g, g])),
    "add_broadcast": (lambda t: t[0] + t[1], lambda a, b, g: (
        a + b, [g, g.sum(axis=tuple(range(g.ndim - 1)))])),
    "mul": (lambda t: t[0] * t[1], lambda a, b, g: (a * b, [g * b, g * a])),
    "scale": (lambda t: t[0] * 0.5, lambda a, g: (a * 0.5, [g * 0.5])),
    "reshape": (lambda t: t[0].reshape(-1),
                lambda a, g: (a.reshape(-1), [g.reshape(a.shape)])),
    "swapaxes": (lambda t: t[0].swapaxes(0, -1), lambda a, g: (
        np.swapaxes(a, 0, -1), [np.swapaxes(g, 0, -1)])),
    "sum": (lambda t: t[0].sum(axis=-1), lambda a, g: (
        a.sum(axis=-1), [np.broadcast_to(g[..., None], a.shape)])),
}


def _kernel_case(op, data):
    """One drawn example of `op`: its float inputs, the op applied to their
    tensors, and the plain formulas' (output, input gradients) given `g`."""
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    if op == "matmul_bias":
        shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=3,
                                           max_side=6))
        n = data.draw(st.integers(1, 6))
        inputs = [_float32s(data, shape), _float32s(data, (shape[-1], n)),
                  _float32s(data, (n,))]
        return inputs, lambda t: ad.matmul(*t), \
            lambda g: _matmul_bias_ref(*inputs, g)
    if op == "softmax_masked":
        scale = data.draw(st.sampled_from([0.125, 0.5, float(1 / np.sqrt(3))]))
        mask_shape = tuple(data.draw(st.sampled_from([1, n])) for n in shape)
        bias = np.where(data.draw(hnp.arrays(bool, mask_shape)),
                        nn.MASK_BIAS, 0.0).astype(np.float32)
        inputs = [_float32s(data, shape)]
        return inputs, lambda t: ad.softmax(t[0], scale=scale, bias=bias), \
            lambda g: _masked_softmax_ref(inputs[0], scale, bias, g)
    if op.startswith("embedding"):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        rows, width = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 64))
        n = data.draw(st.integers(0, 400))
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ids = r.integers(0, rows, n)
        if data.draw(st.booleans()):
            ids[:] = r.integers(0, rows)
        # past `_FEW_IDS` ids: at least as many distinct rows as ranks (one
        # add per rank), fewer (one reduce per row), or fewer at width 1
        # (which adds per rank)
        if op == "embedding_per_rank":
            rows, n = data.draw(st.integers(20, 40)), data.draw(st.integers(65, 400))
            ids = r.permutation(np.arange(n) % rows)
        elif op != "embedding":
            rows, n = data.draw(st.integers(1, 8)), data.draw(st.integers(65, 400))
            ids = r.integers(0, rows, n)
            width = 1 if op == "embedding_width_1" else data.draw(st.integers(2, 64))
        if n % 2 == 0 and data.draw(st.booleans()):
            ids = ids.reshape(2, n // 2)
        inputs = [_float32s(data, (rows, width), dtype)]
        return inputs, lambda t: ad.embedding(t[0], ids), \
            lambda g: _embedding_ref(inputs[0], ids, g)
    if op == "cross_entropy":
        targets = data.draw(hnp.arrays(np.int64, shape[:-1],
                                       elements=st.integers(0, shape[-1] - 1)))
        mask = data.draw(hnp.arrays(np.float32, shape[:-1],
                                    elements=st.sampled_from([0.0, 1.0])))
        mask.reshape(-1)[0] = 1.0
        inputs = [_float32s(data, shape)]
        return inputs, lambda t: ad.cross_entropy(t[0], targets, mask), \
            lambda g: _cross_entropy_ref(inputs[0], targets, mask, g)
    if op in STRUCTURAL:
        n_in = 2 if op in ("add", "add_broadcast", "mul") else 1
        inputs = [_float32s(data, shape) for _ in range(n_in)]
        if op == "add_broadcast":
            inputs = [inputs[0], _float32s(data, shape[-1:])]
        forward, ref = STRUCTURAL[op]
        return inputs, forward, lambda g: ref(*inputs, g)
    inputs = [_float32s(data, shape)]
    if op == "layer_norm":
        inputs += [_float32s(data, shape[-1:]) for _ in range(2)]
    ref = {"softmax": _softmax_ref, "gelu": _gelu_ref,
           "layer_norm": _layer_norm_ref}[op]
    return inputs, lambda t: getattr(ad, op)(*t), lambda g: ref(*inputs, g)


@pytest.mark.parametrize("op", ["softmax", "softmax_masked", "gelu",
                                "layer_norm", "cross_entropy", "matmul_bias",
                                "embedding", "embedding_per_row",
                                "embedding_per_rank", "embedding_width_1",
                                *STRUCTURAL])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_in_place_kernels_match_the_plain_formulas(op, data):
    inputs, forward, ref = _kernel_case(op, data)
    before = [x.copy() for x in inputs]
    tensors = [Tensor(x, requires_grad=True) for x in inputs]
    out = forward(tensors)
    g = _float32s(data, out.shape, out.dtype)
    want, grads = ref(g)
    _same_bits(out.values, want)

    before.append(g.copy())
    out._backward(g)
    for t, grad in zip(tensors, grads):
        _same_bits(t.grad, grad)
    # an op writes into neither its inputs nor the upstream gradient, and
    # keeps its saved buffers, so a second backward adds the same gradients
    # (this also checks that a gradient a tensor owns is no other's buffer)
    out._backward(g)
    for t, grad in zip(tensors, grads):
        _same_bits(t.grad, grad + grad)
    for x, snapshot in zip(inputs + [g], before):
        _same_bits(x, snapshot)
    _same_bits(out.values, want)


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


def test_grad_softmax_scaled_and_masked():
    mask = nn.causal_bias(4).values
    _check(lambda p: (ad.softmax(p[0], scale=0.5, bias=mask) * p[1]).sum(),
           [(1, 2, 4, 4), (1, 2, 4, 4)])


def test_grad_matmul_with_bias():
    _check(lambda p: (ad.matmul(p[0], p[1], p[2]) * p[3]).sum(),
           [(2, 3, 4), (4, 5), (5,), (2, 3, 5)])
    _check(lambda p: (ad.matmul(p[0], p[1], p[2]) * p[3]).sum(),
           [(3, 4), (4, 2), (2,), (3, 2)])


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
        attn.d, attn.n_heads, attn.d_head = d, h, d // h
        attn.wq = nn.Linear(rng_, d, d)
        attn.wk = nn.Linear(rng_, d, d)
        attn.wv = nn.Linear(rng_, d, d)
        attn.wo = nn.Linear(rng_, d, d)
        attn.wq.w, attn.wk.w, attn.wv.w, attn.wo.w = p[1], p[2], p[3], p[4]
        bias = nn.causal_bias(t, dtype=p[0].values.dtype)
        return (attn(p[0], bias=bias) * 1.0).sum()

    _check(loss, [(1, t, d)] + [(d, d)] * 4)


def test_causal_attention_ignores_future():
    r = rng()
    attn = nn.SelfAttention(r, 8, 2)
    x = r.normal(0, 1, (1, 5, 8)).astype(np.float32)
    bias = nn.causal_bias(5)
    y1 = attn(Tensor(x), bias=bias).values
    x2 = x.copy()
    x2[0, 4, :] += 10.0
    y2 = attn(Tensor(x2), bias=bias).values
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


def _adam_reference_step(values, grads, m, v, t, lr, b1=0.9, b2=0.999,
                         eps=1e-8):
    """The allocating `Adam.step` that the in-place one replaced."""
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, g, m_, v_ in zip(values, grads, m, v):
        if g is None:
            g = np.zeros_like(p)
        m_ *= b1
        m_ += (1.0 - b1) * g
        v_ *= b2
        v_ += (1.0 - b2) * g * g
        mhat = m_ / bc1
        vhat = v_ / bc2
        p -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.dtype)


def test_adam_step_matches_the_allocating_reference():
    """Also with parameters of two dtypes, which `Adam` keeps in separate
    flat buffers."""
    r = rng()
    shapes = [(4, 5), (5,), (3, 2, 2), (1,), (2, 3)]
    dtypes = [np.float32, np.float32, np.float64, np.float32, np.float64]
    start = [r.normal(0, 1, s).astype(d) for s, d in zip(shapes, dtypes)]
    params = [Tensor(x.copy(), requires_grad=True) for x in start]
    opt = Adam(params, lr=3e-2)
    ref = [x.copy() for x in start]
    m = [np.zeros_like(x) for x in start]
    v = [np.zeros_like(x) for x in start]
    for t in range(1, 7):
        grads = [r.normal(0, 1, s).astype(d) for s, d in zip(shapes, dtypes)]
        grads[1] = None if t % 3 == 0 else grads[1]
        grads[4] = None if t % 2 == 0 else grads[4]
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy()
        opt.step()
        _adam_reference_step(ref, grads, m, v, t, lr=3e-2)
        for p, want in zip(params, ref):
            assert p.values.tobytes() == want.tobytes()


# -- memory ---------------------------------------------------------------------


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_training_steps_reuse_freed_heap_memory():
    """Freed step temporaries stay mapped, so steady-state training does not
    page-fault them in again (with glibc's default thresholds, or with the
    previous step's graph alive, the two epochs take 12k-40k minor faults)."""
    cfg = LmConfig(vocab_size=512, d_model=64, n_layers=2, n_heads=2,
                   context_window=64)
    base = BaseLM(cfg, np.random.default_rng(0))
    r = rng()
    items = [evaluation.ScoringItem(ids=r.integers(0, 512, 129))
             for _ in range(16)]
    train_lm(base, items, batch_size=32, max_epochs=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_lm(base, items, batch_size=32, max_epochs=2)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 2000


# -- debug guards ----------------------------------------------------------------


def test_debug_checks_catch_non_finite():
    with pytest.raises(FloatingPointError):
        ad.gelu(Tensor(np.array([np.inf], dtype=np.float32)))
