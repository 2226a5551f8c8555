"""Tape autodiff: the generic reference ops and the fused nodes against
central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generic_ops as ops
from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec
from edgeslim.engine import autodiff as ad
from edgeslim.engine import layers
from edgeslim.engine.layers import param_layout


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


def check_op(build, *shapes, seed=0, tol=1e-7):
    """Gradcheck `build(tensors...) -> scalar Tensor` w.r.t. every input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s).astype(np.float64) for s in shapes]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for idx, (arr, tensor) in enumerate(zip(arrays, tensors)):
        def partial(x, idx=idx):
            probe = [ad.Tensor(a) for a in arrays]
            probe[idx] = ad.Tensor(x)
            return float(build(*probe).data)

        assert_rel_close(tensor.grad, numeric_grad(partial, arr.copy()), tol, f"input {idx}")


def assert_rel_close(analytic, num, tol, what):
    rel = np.abs(analytic - num) / np.maximum(np.abs(num) + np.abs(analytic), 1e-8)
    assert rel.max() < tol, f"{what}: rel err {rel.max():.2e}"


def test_add_mul_broadcast():
    check_op(lambda a, b: ops.total(ops.add(ops.mul(a, b), b)), (3, 4), (4,))
    check_op(lambda a, b: ops.mean(ops.sub(a, b)), (2, 5), (2, 5))
    check_op(lambda a: ops.total(ops.neg(a)), (3,))


def test_matmul():
    check_op(lambda a, b: ops.total(ops.matmul(a, b)), (3, 4), (4, 2))


def test_reductions_and_reshape():
    check_op(lambda a: ops.mean(ops.total(a, axis=1)), (3, 5))
    check_op(lambda a: ops.total(ops.total(a, axis=1, keepdims=True)), (3, 5))
    check_op(lambda a: ops.total(ops.reshape(a, (6,))), (2, 3))
    check_op(lambda a: ops.mean(a), (2, 3))


def test_conv2d():
    # the conv layer node's im2col convolution, without mask or ReLU: the
    # input's gradient on the tape, the parameters' in the ``grads`` arrays
    layer = LayerSpec(LayerKind.CONV, I=2, O=3, f=3, g=3, h=3, w=3)
    rng = np.random.default_rng(0)
    arrays = {name: rng.normal(size=s) for name, s in
              (("x", (2, 2, 5, 5)), ("W", (3, 2, 3, 3)), ("b", (3,)))}
    params = {"W": arrays["W"], "b": arrays["b"]}
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    x = ad.Tensor(arrays["x"], requires_grad=True)
    ops.total(ops.apply_layer(layer, params, grads, x)).backward()

    def value(_):  # reads ``arrays``, which numeric_grad moves in place
        return float(ops.apply_layer(layer, params, None, ad.Tensor(arrays["x"])).data.sum())

    for name, analytic in {"x": x.grad, **grads}.items():
        assert_rel_close(analytic, numeric_grad(value, arrays[name]), 1e-7, name)


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


def one_hot_cross_entropy(z, labels0, upstream):
    """The node's value and logits gradient by the one-hot formula, op by op:
    shift by the row max, exp, row sums, the label's log-probability, the
    negated mean; backward ``upstream * (softmax - onehot) / n``."""
    n = len(z)
    shifted = z - z.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    sums = ex.sum(axis=1, keepdims=True)
    logp = shifted[np.arange(n), labels0] - np.log(sums[:, 0])
    value = -(np.add.reduce(logp) / n)
    onehot = labels0[:, None] == np.arange(z.shape[1])
    return value, upstream * (ex / sums - onehot) / n


def cross_entropy_under(upstream, logits, labels0):
    """Backpropagate ``upstream`` into a cross-entropy node; its value and
    the logits' gradient."""
    z = ad.Tensor(logits, requires_grad=True)
    node = ad.softmax_cross_entropy(z, labels0)
    cell = node.cell
    ad._node(node.data * upstream, (node,), lambda g: ad._accum(cell, g * upstream)).backward()
    return node.data, z.grad


@pytest.mark.parametrize("upstream_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_cross_entropy_is_bit_identical_to_the_one_hot_formula(dtype, upstream_dtype):
    k = 5
    rng = np.random.default_rng([k, np.dtype(dtype).itemsize])
    upstream = np.asarray(0.37, dtype=upstream_dtype)
    batches = [np.array([label]) for label in range(k)]  # batch 1, each class
    batches.append(rng.permutation(np.arange(32) % k))  # batch 32, every class
    for labels0 in batches:
        logits = rng.normal(scale=4.0, size=(len(labels0), k)).astype(dtype)
        logits[0, labels0[0]] += 60.0  # one confident row
        value, grad = cross_entropy_under(upstream, logits, labels0)
        want_value, want_grad = one_hot_cross_entropy(logits, labels0, upstream)
        assert value.dtype == np.asarray(want_value).dtype
        assert value.tobytes() == np.asarray(want_value).tobytes()
        assert grad.dtype == want_grad.dtype and grad.tobytes() == want_grad.tobytes()


def test_cross_entropy_node_on_1_based_labels_is_softmax_cross_entropy_on_0_based():
    from edgeslim.engine.model import ForwardTrace, cross_entropy_node

    rng = np.random.default_rng(3)
    logits = rng.normal(size=(32, 4)).astype(np.float32)
    labels = rng.permutation(np.arange(32) % 4) + 1
    trace = ForwardTrace(ad.Tensor(logits, requires_grad=True), [], 32)
    value, grad = cross_entropy_under(np.float32(1.0), logits, labels - 1)
    node = cross_entropy_node(trace, labels)
    node.backward()
    assert node.data.tobytes() == value.tobytes()
    assert trace.logits.grad.tobytes() == grad.tobytes()


def test_requires_grad_pruning():
    a = ad.Tensor(np.ones(3), requires_grad=True)
    b = ad.Tensor(np.ones(3))  # constant branch
    loss = ops.total(ops.mul(a, b))
    assert loss.cell is not None
    loss.backward()
    assert b.grad is None  # no gradient work spent on constants
    const = ops.total(ops.mul(b, b))
    assert const.cell is None


def test_backward_accumulates_across_reuse():
    a = ad.Tensor(np.array([2.0]), requires_grad=True)
    loss = ops.total(ops.add(ops.mul(a, a), a))  # d/da = 2a + 1 = 5
    loss.backward()
    np.testing.assert_allclose(a.grad, [5.0])


RECURRENT = [LayerKind.LSTM, LayerKind.COUPLED_LSTM, LayerKind.GRU, LayerKind.MGU]


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-500.0, max_value=500.0), st.sampled_from(RECURRENT))
def test_sigmoid_stays_finite(x, kind):
    # every gate bias at x puts each pre-activation of the fused cell near x
    layer = LayerSpec(kind, I=2, O=3, s=3)
    rng = np.random.default_rng(0)
    params = {
        p.name: rng.normal(scale=0.1, size=p.shape) if p.masked else np.full(p.shape, x)
        for p in param_layout(layer)
    }
    grads = {name: np.full_like(arr, np.nan) for name, arr in params.items()}
    inputs = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    out = ops.apply_layer(layer, params, grads, inputs)
    assert np.isfinite(out.data).all() and (np.abs(out.data) <= 1.0).all()
    ops.total(out).backward()
    assert np.isfinite(inputs.grad).all()
    for grad in grads.values():
        assert np.isfinite(grad).all()


def two_branch_sigmoid(x, out=None):
    """The reference form of the gate kernel: its numerator picked by
    ``np.where``, the quotient copied into ``out`` when one is given."""
    e = np.exp(-np.abs(x))
    value = np.where(x >= 0, 1.0, e) / (1.0 + e)
    if out is None:
        return value
    out[...] = value
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stable_sigmoid_matches_the_two_branch_form_bit_for_bit(dtype):
    tiny = np.finfo(dtype).tiny
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 88.7, -88.7, 104.0, -104.0,
             tiny, -tiny, tiny / 8, -tiny / 8, 1e-30, -1e-30, 1.0, -1.0]
    rng = np.random.default_rng(7)
    values = np.concatenate([np.array(edges, dtype=dtype),
                             rng.normal(scale=20.0, size=382).astype(dtype)])
    # the cell passes column slices of its gate buffer, a[:, :S]
    block = np.stack([values[:200], values[200:]], axis=1).repeat(3, axis=1)
    for x in (values, block, block[:, :4], block[:, 1::2]):
        expect = two_branch_sigmoid(x)
        assert same_bits(ad._stable_sigmoid(x), expect)
        # into a buffer, and over its own input as the LSTM cells call it
        out = np.full_like(x, np.nan)
        assert ad._stable_sigmoid(x, out=out) is out and same_bits(out, expect)
        inplace = x.copy()
        assert ad._stable_sigmoid(inplace, out=inplace) is inplace and same_bits(inplace, expect)


@pytest.mark.parametrize("upstream_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 32, 256])
@pytest.mark.parametrize("kind", RECURRENT)
def test_recurrent_node_is_bit_identical_under_the_two_branch_sigmoid(
    monkeypatch, kind, batch, upstream_dtype
):
    layer = LayerSpec(kind, I=5, O=6, s=4)
    rng = np.random.default_rng(batch)
    # wide pre-activations, so gates saturate on both sides
    arrays = {"x": rng.normal(scale=3.0, size=(batch, layer.input_width)).astype(np.float32)}
    for pdef in param_layout(layer):
        arrays[pdef.name] = rng.normal(scale=2.0, size=pdef.shape).astype(np.float32)
        if pdef.masked:  # pruned: weights zeroed under a drawn mask
            arrays[pdef.name][rng.random(pdef.shape) <= 0.3] = 0.0
    upstream = rng.normal(size=(batch, layer.O)).astype(upstream_dtype)

    def run():
        x = ad.Tensor(arrays["x"], requires_grad=True)
        params = {k: v for k, v in arrays.items() if k != "x"}
        grads = {
            k: np.full(v.shape, np.nan, np.result_type(v, upstream)) for k, v in params.items()
        }
        out = ops.apply_layer(layer, params, grads, x)
        ops.total(ops.mul(out, upstream)).backward()
        return out.data, {"x": x.grad, **grads}

    shipped_out, shipped = run()
    calls = []
    monkeypatch.setattr(
        layers, "_stable_sigmoid",
        lambda x, out=None: calls.append(1) or two_branch_sigmoid(x, out),
    )
    reference_out, reference = run()
    assert len(calls) == layer.s  # every step's gates went through the reference
    assert same_bits(shipped_out, reference_out)
    assert shipped.keys() == reference.keys()
    for name, grad in shipped.items():
        assert same_bits(grad, reference[name]), name


def test_relu_zero_point_subgradient():
    # identity weights and zero bias: the fused fc node's pre-activation is x
    layer = LayerSpec(LayerKind.FC, I=3, O=3)
    t = ad.Tensor(np.array([[0.0, -1.0, 1.0]]), requires_grad=True)
    params = {"W": np.eye(3), "b": np.zeros(3)}
    ops.total(ops.apply_layer(layer, params, None, t, relu=True)).backward()
    np.testing.assert_array_equal(t.grad, [[0.0, 0.0, 1.0]])


def counted(tape, calls, name):
    """Wrap every backward on ``tape`` to log ``name`` into ``calls``."""
    def wrap(bwd):
        return lambda g: calls.append(name) or bwd(g)

    tape.entries[:] = [(wrap(bwd), cell) for bwd, cell in tape.entries]


@pytest.mark.parametrize("first", [0, 1])
def test_interleaved_graphs_keep_their_own_tapes(first):
    """Two graphs built one after the other, both before either backward:
    each backward gives the gradients its graph gives alone and walks only
    its own tape, whichever runs first."""
    from edgeslim.engine.model import backward, cross_entropy_node, forward, init_model

    spec = NetworkSpec("t", [LayerSpec(LayerKind.FC, I=5, O=6),
                             LayerSpec(LayerKind.FC, I=6, O=3)], class_count=3)
    rng = np.random.default_rng(4)
    batches = [(rng.normal(size=(8, 5)), rng.integers(1, 4, size=8)) for _ in range(2)]
    model = init_model(spec, seed=5)

    def graph(x, y):
        trace = forward(model, x)
        return trace, cross_entropy_node(trace, y)

    alone = []
    for x, y in batches:
        trace, loss = graph(x, y)
        alone.append(np.copy(backward(model, trace, loss)[0]["W"]))
    graphs = [graph(x, y) for x, y in batches]
    assert graphs[0][1].tape is not graphs[1][1].tape
    with pytest.raises(ValueError, match="not built from this trace"):
        backward(model, graphs[1 - first][0], graphs[first][1])
    calls = []
    for k, (_, loss) in enumerate(graphs):
        counted(loss.tape, calls, k)
    sizes = [len(loss.tape.entries) for _, loss in graphs]
    for k in (first, 1 - first):
        calls.clear()
        trace, loss = graphs[k]
        other = graphs[1 - k][1]
        grads = backward(model, trace, loss)
        assert calls == [k] * sizes[k]  # every node of its own tape, none of the other's
        assert grads[0]["W"].tobytes() == alone[k].tobytes()
        if other.tape.entries is not None:  # the other graph, not yet walked, is untouched
            assert len(other.tape.entries) == sizes[1 - k] and other.grad is None


def test_a_node_sums_its_pieces_in_reverse_creation_order():
    """A value read by three nodes, made s, t, a, gets (a + t) + s: the
    shared prefix's ``(attention + trainee) + student``.  The pieces are
    float32 values whose sum depends on the association."""
    s, t, a = (np.float32(v) for v in (2.0**-24, 2.0**-24, 1.0))
    assert (a + t) + s != a + (t + s)
    h = ad.Tensor(np.float32(0.0), requires_grad=True)
    cell = h.cell
    consumers = [ad._node(h.data, (h,), lambda g, p=p: ad._accum(cell, p)) for p in (s, t, a)]
    ops.add(ops.add(consumers[0], consumers[1]), consumers[2]).backward()
    assert h.grad.tobytes() == ((a + t) + s).tobytes()


def test_a_walked_graph_takes_no_second_backward():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    loss = ops.total(ops.mul(x, x))
    loss.backward()
    with pytest.raises(ValueError, match="already ran"):
        loss.backward()
