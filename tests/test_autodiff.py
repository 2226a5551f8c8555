"""Tape autodiff: every op against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeslim.archspec import LayerKind, LayerSpec
from edgeslim.engine import autodiff as ad
from edgeslim.engine.layers import layer_forward, param_layout


def numeric_grad(fn, x, h=1e-6):
    """Central differences of a scalar-valued fn at x, in float64."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn(x)
        flat[i] = keep - h
        down = fn(x)
        flat[i] = keep
        out[i] = (up - down) / (2 * h)
    return grad


def check_op(build, *shapes, seed=0, tol=1e-7, positive=False):
    """Gradcheck `build(tensors...) -> scalar Tensor` w.r.t. every input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s).astype(np.float64) for s in shapes]
    if positive:
        arrays = [np.abs(a) + 0.5 for a in arrays]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for idx, (arr, tensor) in enumerate(zip(arrays, tensors)):
        def partial(x, idx=idx):
            probe = [ad.Tensor(a) for a in arrays]
            probe[idx] = ad.Tensor(x)
            return float(build(*probe).data)

        num = numeric_grad(partial, arr.copy())
        denom = np.maximum(np.abs(num) + np.abs(tensor.grad), 1e-8)
        rel = np.abs(tensor.grad - num) / denom
        assert rel.max() < tol, f"input {idx}: rel err {rel.max():.2e}"


def test_add_mul_broadcast():
    check_op(lambda a, b: (a * b + b).sum(), (3, 4), (4,))
    check_op(lambda a, b: (a - b).mean(), (2, 5), (2, 5))
    check_op(lambda a: (-a).sum(), (3,))


def test_div():
    check_op(lambda a, b: (a / b).sum(), (3, 3), (3, 3), positive=True)


def test_matmul():
    check_op(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))


def test_reductions_and_reshape():
    check_op(lambda a: a.sum(axis=1).mean(), (3, 5))
    check_op(lambda a: a.sum(axis=1, keepdims=True).sum(), (3, 5))
    check_op(lambda a: a.reshape(6).sum(), (2, 3))
    check_op(lambda a: a.mean(), (2, 3))


def test_elementwise_math():
    check_op(lambda a: ad.sqrt(a).sum(), (3, 3), positive=True)
    check_op(lambda a: ad.relu(a + 0.1).sum(), (3, 3))


def test_clip_min_gradient_masks_floor():
    x = ad.Tensor(np.array([0.5, 2.0, -1.0]), requires_grad=True)
    y = ad.clip_min(x, 1.0).sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_conv2d():
    def build(x, w):
        return ad.conv2d(x, w, 3, 3).sum()

    check_op(build, (2, 2, 5, 5), (3, 2, 3, 3))


def test_softmax_cross_entropy_matches_manual():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 3))
    labels0 = np.array([0, 2, 1, 0])
    node = ad.softmax_cross_entropy(ad.Tensor(logits), labels0)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(4), labels0].mean()
    assert float(node.data) == pytest.approx(expected, abs=1e-12)


def test_softmax_cross_entropy_gradient():
    labels0 = np.array([0, 2, 1])
    check_op(lambda a: ad.softmax_cross_entropy(a, labels0), (3, 4))


def test_softmax_rows_normalise():
    rng = np.random.default_rng(2)
    probs = ad.softmax(rng.normal(size=(5, 4)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert (probs > 0).all()


def test_requires_grad_pruning():
    a = ad.Tensor(np.ones(3), requires_grad=True)
    b = ad.Tensor(np.ones(3))  # constant branch
    loss = (a * b).sum()
    assert loss.requires_grad
    loss.backward()
    assert b.grad is None  # no gradient work spent on constants
    const = (b * b).sum()
    assert not const.requires_grad


def test_backward_accumulates_across_reuse():
    a = ad.Tensor(np.array([2.0]), requires_grad=True)
    loss = (a * a + a).sum()  # d/da = 2a + 1 = 5
    loss.backward()
    np.testing.assert_allclose(a.grad, [5.0])


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-500.0, max_value=500.0),
    st.sampled_from([LayerKind.LSTM, LayerKind.COUPLED_LSTM, LayerKind.GRU, LayerKind.MGU]),
)
def test_sigmoid_stays_finite(x, kind):
    # every gate bias at x puts each pre-activation of the fused cell near x
    layer = LayerSpec(kind, I=2, O=3, s=3)
    rng = np.random.default_rng(0)
    params = {
        p.name: ad.Tensor(
            rng.normal(scale=0.1, size=p.shape) if p.masked else np.full(p.shape, x),
            requires_grad=True,
        )
        for p in param_layout(layer)
    }
    inputs = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    out = layer_forward(layer, params, inputs)
    assert np.isfinite(out.data).all() and (np.abs(out.data) <= 1.0).all()
    out.sum().backward()
    assert np.isfinite(inputs.grad).all()
    for tensor in params.values():
        assert np.isfinite(tensor.grad).all()


def test_relu_zero_point_subgradient():
    t = ad.Tensor(np.array([0.0, -1.0, 1.0]), requires_grad=True)
    ad.relu(t).sum().backward()
    np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0])
