"""Fused tape nodes: one per non-recurrent layer, and distillation's three
loss nodes (attention over the layer outputs, DL, the lambda-weighted sum).

Each node's float32 output and gradients are checked bit for bit against the
same computation written op by op in plain numpy, and the tape sizes are
counted: per layer of an fc stack, and per loss term of a pre-halt batch.
The layer and attention nodes' gradients are also checked against central
differences in float64, and, within a rounding bound, the conv kinds against
a per-tap convolution loop and the attention node against the generic
``Tensor`` chain of ``generic_ops``: conv mean, projection and unit rows.
"""

import numpy as np
import pytest

import generic_ops as ops
from edgeslim import distill
from edgeslim.archspec import (
    CONV_KINDS, LayerKind, LayerSpec, NetworkSpec, check_valid,
)
from edgeslim.datasets import make_synthetic
from edgeslim.distill import NORM_FLOOR, distillation_loss_node
from edgeslim.engine import autodiff as ad
from edgeslim.engine.layers import param_layout
from edgeslim.engine.model import ForwardTrace, cross_entropy_node, forward, init_model

FUSED = {
    "fc": LayerSpec(LayerKind.FC, I=4, O=3),
    "factorized_fc": LayerSpec(LayerKind.FACTORIZED_FC, I=4, O=3, R=2),
    "conv": LayerSpec(LayerKind.CONV, I=2, O=3, f=2, g=2, h=3, w=3),
    "factorized_conv": LayerSpec(LayerKind.FACTORIZED_CONV, I=2, O=3, f=2, g=2, h=3, w=3, R=2),
    # f != g and h != w: a swapped tap or spatial axis shows only here
    "conv_rect": LayerSpec(LayerKind.CONV, I=2, O=3, f=2, g=3, h=3, w=4),
    "factorized_conv_rect": LayerSpec(
        LayerKind.FACTORIZED_CONV, I=2, O=3, f=2, g=3, h=3, w=4, R=2
    ),
}
BATCH = 3


def layer_fixture(kind, dtype, seed=0, batch=BATCH):
    """Input and parameters for one layer, pruned as a model prunes: every
    weight has entries zeroed under a drawn mask."""
    layer = FUSED[kind]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, layer.input_width)).astype(dtype)
    params = {}
    for pdef in param_layout(layer):
        params[pdef.name] = rng.normal(size=pdef.shape).astype(dtype)
        if pdef.masked:
            mask = rng.random(pdef.shape) > 0.3
            mask.flat[0] = False
            params[pdef.name][~mask] = 0.0
    # centre each output channel on zero, so a ReLU cuts some entries
    pre = ops.apply_layer(layer, params, None, ad.Tensor(x)).data.reshape(batch, layer.O, -1)
    params["b" if "b" in params else "b2"] -= pre.mean(axis=(0, 2)).astype(dtype)
    return layer, x, params


def run_node(layer, arrays, relu, upstream):
    """Forward one layer node and backpropagate ``upstream`` into it.  The
    parameter gradients land in NaN-filled arrays of the upstream's result
    dtype, so none is cast and an entry the node never writes shows."""
    x = ad.Tensor(arrays["x"], requires_grad=True)
    params = {k: v for k, v in arrays.items() if k != "x"}
    grads = {k: np.full(v.shape, np.nan, np.result_type(v, upstream)) for k, v in params.items()}
    out = ops.apply_layer(layer, params, grads, x, relu)
    ops.total(ops.mul(out, upstream)).backward()
    return out.data, {"x": x.grad, **grads}


def central_differences(loss, arr, h=1e-6):
    grad = np.zeros_like(arr)
    flat, out = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss()
        flat[i] = keep - h
        down = loss()
        flat[i] = keep
        out[i] = (up - down) / (2 * h)
    return grad


def assert_close(analytic, numeric, name):
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
    assert rel.max() < 1e-6, f"{name}: rel err {rel.max():.2e}"


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("kind", sorted(FUSED))
def test_fused_layer_gradients_match_finite_differences(kind, relu):
    layer, x, params = layer_fixture(kind, np.float64)
    arrays = {"x": x, **params}
    out, _ = run_node(layer, arrays, relu, np.zeros(1))
    weights = np.random.default_rng(1).normal(size=out.shape)

    def loss():  # reads ``arrays``, which the probes move in place
        out_now = ops.apply_layer(layer, params, None, ad.Tensor(x), relu)
        return float((out_now.data * weights).sum())

    _, grads = run_node(layer, arrays, relu, weights)
    if relu:
        assert (out == 0).any() and (out > 0).any()
    # the node's gradient is the true derivative at every entry, zeroed
    # (pruned) weights included; the model drops masked entries in its SGD step
    for name, arr in arrays.items():
        assert_close(grads[name], central_differences(loss, arr), name)


def test_attention_pair_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    # equal widths with a dead row; teacher wider (projected down); student
    # wider (projected down, with a dead row that stays dead)
    teachers = [rng.normal(size=(4, 3)), rng.normal(size=(4, 5)), rng.normal(size=(4, 2))]
    students = [rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 4))]
    dead = {0: 1, 2: 2}
    for idx, row in dead.items():
        students[idx][row] = 1e-8  # row norm below NORM_FLOOR
    assert np.linalg.norm(students[0][1]) < NORM_FLOOR

    def node(student_tensors):
        return ops.fc_attention(teachers, student_tensors)

    tensors = [ad.Tensor(s, requires_grad=True) for s in students]
    node(tensors).backward()
    probe = [ad.Tensor(s) for s in students]
    for idx, (arr, tensor) in enumerate(zip(students, tensors)):
        live = np.ones(arr.shape[0], dtype=bool)
        if idx in dead:
            # a probe step lifts the dead row over the floor, where the loss
            # jumps: the row is detached by design, so it gets no gradient
            live[dead[idx]] = False
            np.testing.assert_array_equal(tensor.grad[dead[idx]], 0.0)
        numeric = central_differences(lambda: float(node(probe).data), arr)
        assert_close(tensor.grad[live], numeric[live], f"student map {idx}")


def im2col(x4, f, g):
    """Patch rows read window by window: row (n, i, j), columns (channel, tap)."""
    n, _, H, W = x4.shape
    windows = [
        x4[:, :, i : i + f, j : j + g].reshape(n, -1)
        for i in range(H - f + 1)
        for j in range(W - g + 1)
    ]
    return np.stack(windows, axis=1).reshape(-1, windows[0].shape[1])


def col2im(rows, x_shape, f, g):
    """Add each patch row's gradient back onto its input pixels, tap by tap."""
    n, c, H, W = x_shape
    h, w = H - f + 1, W - g + 1
    taps = rows.reshape(n, h, w, c, f, g)
    gx = np.zeros(x_shape, dtype=rows.dtype)
    for u in range(f):
        for v in range(g):
            gx[:, :, u : u + h, v : v + w] += taps[..., u, v].transpose(0, 3, 1, 2)
    return gx


def as_matrix(weight):
    """A conv weight (O, I, f, g) as its (I*f*g, O) matrix, rows in (channel, tap) order."""
    return weight.reshape(len(weight), -1).T


def reference(layer, x, p, relu, g):
    """One step per numpy op: each factor's GEMM, bias add,
    ReLU, and each op's backward in reverse order.  A conv kind is its dense
    kind over im2col patch rows, its weight read as the (I*f*g, O) matrix,
    and its output and upstream gradient are (n, O*h*w) rows, channel-major."""
    if layer.kind in CONV_KINDS:
        n = len(x)
        x4 = x.reshape(n, layer.I, *layer.input_spatial)
        first = "W" if layer.kind == LayerKind.CONV else "W1"
        dense = LayerKind.FC if layer.kind == LayerKind.CONV else LayerKind.FACTORIZED_FC
        out, grads = reference(
            LayerSpec(dense, I=layer.I * layer.f * layer.g, O=layer.O, R=layer.R),
            im2col(x4, layer.f, layer.g),
            {**p, first: as_matrix(p[first])},
            relu,
            g.reshape(n, layer.O, layer.h, layer.w).transpose(0, 2, 3, 1).reshape(-1, layer.O),
        )
        out = out.reshape(n, layer.h, layer.w, layer.O).transpose(0, 3, 1, 2).reshape(n, -1)
        grads[first] = grads[first].T.reshape(p[first].shape)
        grads["x"] = col2im(grads["x"], x4.shape, layer.f, layer.g).reshape(x.shape)
        return out, grads
    grads = {}
    if layer.kind == LayerKind.FC:
        W = p["W"]
        pre = x @ W + p["b"]
    else:
        W1, W2 = p["W1"], p["W2"]
        mid = x @ W1 + p["b1"]
        pre = mid @ W2 + p["b2"]
    out = np.maximum(pre, 0) if relu else pre
    if relu:
        g = g * (pre > 0)
    if layer.kind == LayerKind.FC:
        grads["b"] = g.sum(axis=0)
        grads["x"] = g @ W.T
        grads["W"] = x.T @ g
    else:
        grads["b2"] = g.sum(axis=0)
        grads["W2"] = mid.T @ g
        gmid = g @ W2.T
        grads["b1"] = gmid.sum(axis=0)
        grads["x"] = gmid @ W1.T
        grads["W1"] = x.T @ gmid
    return out, grads


CONV_CASES = sorted(k for k in FUSED if FUSED[k].kind in CONV_KINDS)


# The dense node's products: batch rows, and conv patch rows (36 per image
# of the bench's 6x6 maps), by the bench's layer widths and ranks.
DOT_ROWS = (1, 31, 32, 36, 256, 1152)
DOT_WIDTHS = (1, 3, 4, 5, 6, 8, 9, 16, 32, 48, 64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", DOT_ROWS)
def test_np_dot_is_bit_identical_to_matmul_at_the_dense_node_shapes(rows, dtype):
    """The dense node runs ``np.dot`` where the op chain runs ``@``, on
    operands of one dtype: forward ``a @ w`` (w C-ordered, or a
    :func:`conv_matrix` view, the transpose of a C-ordered array), and
    backward ``a.T @ g`` (written into a gradient view) and ``g @ w.T``."""
    rng = np.random.default_rng([rows, np.dtype(dtype).itemsize])
    for I in DOT_WIDTHS:
        a = rng.normal(size=(rows, I)).astype(dtype)
        for O in DOT_WIDTHS:
            w = rng.normal(size=(I, O)).astype(dtype)
            g = rng.normal(size=(rows, O)).astype(dtype)
            dw = np.empty_like(w)
            pairs = [(np.dot(a, w), a @ w), (np.dot(g, w.T), g @ w.T),
                     (np.dot(a.T, g, out=dw), a.T @ g)]
            wf = np.ascontiguousarray(w.T).T
            pairs += [(np.dot(a, wf), a @ wf), (np.dot(g, wf.T), g @ wf.T)]
            for got, want in pairs:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (I, O)


def check_op_chain(kind, relu, upstream_dtype, batch):
    # float32 data; a float32 model's training sends a float32 upstream
    # gradient, and the float64 case covers a float64 loss above the node
    layer, x, params = layer_fixture(kind, np.float32, seed=4, batch=batch)
    out, grads = run_node(layer, {"x": x, **params}, relu, np.zeros(1))
    g = np.random.default_rng(5).normal(size=out.shape).astype(upstream_dtype)
    out, grads = run_node(layer, {"x": x, **params}, relu, g)
    expect_out, expect = reference(layer, x, params, relu, g)
    assert out.dtype == expect_out.dtype and np.array_equal(out, expect_out)
    assert grads.keys() == expect.keys()
    for name, grad in grads.items():
        assert grad.dtype == expect[name].dtype, name
        assert np.array_equal(grad, expect[name]), name


@pytest.mark.parametrize("upstream_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("kind", sorted(FUSED))
def test_fused_layer_is_bit_identical_to_op_chain(kind, relu, upstream_dtype):
    check_op_chain(kind, relu, upstream_dtype, BATCH)


@pytest.mark.parametrize("upstream_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("kind", CONV_CASES)
def test_conv_kinds_are_bit_identical_to_op_chain_at_batch_1(kind, relu, upstream_dtype):
    # one image: the im2col gather reads only that image's patch rows
    check_op_chain(kind, relu, upstream_dtype, 1)


def tap_conv(x4, w, out_h, out_w):
    out = np.zeros((x4.shape[0], w.shape[0], out_h, out_w), dtype=x4.dtype)
    for u in range(w.shape[2]):
        for v in range(w.shape[3]):
            out += np.einsum("ncij,oc->noij", x4[:, :, u : u + out_h, v : v + out_w], w[:, :, u, v])
    return out


def tap_conv_backward(grad, x4, w):
    out_h, out_w = grad.shape[2:]
    gw, gx = np.zeros_like(w), np.zeros_like(x4)
    for u in range(w.shape[2]):
        for v in range(w.shape[3]):
            window = x4[:, :, u : u + out_h, v : v + out_w]
            gw[:, :, u, v] = np.einsum("noij,ncij->oc", grad, window)
            tap = np.einsum("noij,oc->ncij", grad, w[:, :, u, v])
            gx[:, :, u : u + out_h, v : v + out_w] += tap
    return gw, gx


def tap_reference(layer, x, p, relu, g):
    """A conv kind as a per-tap loop of channel contractions, with the 1x1
    channel mix of the factorized kind as one contraction over (n, h, w);
    output and upstream gradient as (n, O*h*w) rows."""
    x4 = x.reshape(len(x), layer.I, *layer.input_spatial)
    g = g.reshape(len(x), layer.O, layer.h, layer.w)
    grads = {}
    if layer.kind == LayerKind.CONV:
        W = p["W"]
        pre = tap_conv(x4, W, layer.h, layer.w) + p["b"].reshape(1, layer.O, 1, 1)
    else:
        W1, W2 = p["W1"], p["W2"]
        mid = tap_conv(x4, W1, layer.h, layer.w) + p["b1"].reshape(1, layer.R, 1, 1)
        pre = np.einsum("nrij,ro->noij", mid, W2) + p["b2"].reshape(1, layer.O, 1, 1)
    out = np.maximum(pre, 0) if relu else pre
    if relu:
        g = g * (pre > 0)
    if layer.kind == LayerKind.CONV:
        grads["b"] = g.sum(axis=(0, 2, 3))
        gw, gx = tap_conv_backward(g, x4, W)
        grads["W"], grads["x"] = gw, gx.reshape(x.shape)
    else:
        grads["b2"] = g.sum(axis=(0, 2, 3))
        grads["W2"] = np.einsum("noij,nrij->ro", g, mid)
        gmid = np.einsum("noij,ro->nrij", g, W2)
        grads["b1"] = gmid.sum(axis=(0, 2, 3))
        gw, gx = tap_conv_backward(gmid, x4, W1)
        grads["W1"], grads["x"] = gw, gx.reshape(x.shape)
    return out.reshape(len(x), -1), grads


# Largest difference from the tap loop, relative to the largest magnitude of
# the array: the two sum the same products in a different order.  16 float32
# epsilons is about 4x the largest difference seen at these sizes.
TAP_BOUND = {np.float32: 16 * np.finfo(np.float32).eps, np.float64: 1e-12}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("kind", CONV_CASES)
def test_conv_kinds_match_tap_loop(kind, relu, dtype):
    layer, x, params = layer_fixture(kind, dtype, seed=7)
    out, _ = run_node(layer, {"x": x, **params}, relu, np.zeros(1))
    g = np.random.default_rng(8).normal(size=out.shape).astype(dtype)
    out, grads = run_node(layer, {"x": x, **params}, relu, g)
    expect_out, expect = tap_reference(layer, x, params, relu, g)
    assert grads.keys() == expect.keys()
    for name, got, want in [("out", out, expect_out), *((k, grads[k], expect[k]) for k in grads)]:
        assert got.dtype == want.dtype and got.shape == want.shape, name
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= TAP_BOUND[dtype], f"{name}: relative difference {err:.2e}"


def test_attention_pair_is_bit_identical_to_op_chain():
    rng = np.random.default_rng(6)
    teacher = rng.normal(size=(5, 4)).astype(np.float32)
    student = rng.normal(size=(5, 4)).astype(np.float32)
    student[3] = 0.0
    # backward from the 0.3 weight, lifted in the loss's dtype, float32 here
    expect_loss, (expect_grad,) = attention_chain([teacher], [student], np.float32(0.3))

    s = ad.Tensor(student, requires_grad=True)
    loss = ops.fc_attention([teacher], [s])
    ops.mul(loss, 0.3).backward()
    assert loss.data.dtype == expect_loss.dtype and loss.data.tobytes() == expect_loss.tobytes()
    assert s.grad.dtype == expect_grad.dtype and s.grad.tobytes() == expect_grad.tobytes()
    np.testing.assert_array_equal(s.grad[3], 0.0)


def test_recurrent_layer_rejects_relu():
    layer = LayerSpec(LayerKind.GRU, I=2, O=3, s=2)
    params = {p.name: np.zeros(p.shape) for p in param_layout(layer)}
    with pytest.raises(ValueError, match="ReLU"):
        ops.apply_layer(layer, params, None, ad.Tensor(np.zeros((1, 4))), relu=True)


def test_fc_stack_records_one_node_per_layer():
    sizes = {}
    for depth in (2, 4):
        hidden = [LayerSpec(LayerKind.FC, I=5, O=5) for _ in range(depth - 1)]
        spec = check_valid(
            NetworkSpec("t", [*hidden, LayerSpec(LayerKind.FC, I=5, O=2)], class_count=2)
        )
        x = np.ones((3, 5), dtype=np.float32)
        loss = cross_entropy_node(forward(init_model(spec, seed=0), x), np.array([1, 2, 1]))
        sizes[depth] = len(loss.tape.entries)
    # the backward walk visits the loss and one node per layer
    assert sizes == {2: 1 + 2, 4: 1 + 4}


def unit_rows_chain(m):
    """``_unit_rows`` of one map, op by op: each row's sum of squares, its
    inverse norm (0 on a dead row), the unit rows."""
    sumsq = np.add.reduceat(m * m, [0], axis=1)
    inv = (sumsq >= NORM_FLOOR**2) / np.sqrt(np.maximum(sumsq, NORM_FLOOR**2))
    return m * inv, inv


def attention_chain(teachers, students, g):
    """The attention term over all maps and each student map's gradient from
    upstream ``g``, in plain numpy, one map at a time: the value reduces the
    squared differences of all maps laid side by side, and with p = 2 g/n diff
    each gradient is (u (u . p) - p) / |s| per row."""
    units = [unit_rows_chain(s) for s in students]
    diffs = [unit_rows_chain(t)[0] - u for t, (u, _) in zip(teachers, units)]
    everything = np.concatenate(diffs, axis=1)
    scale = np.asarray(1.0 / len(everything), dtype=everything.dtype)  # 1/n in the maps' dtype
    value = np.add.reduce(everything * everything, axis=None) * scale
    grads = []
    for (u, inv), diff in zip(units, diffs):
        p = (g * scale + g * scale) * diff
        grads.append((u * np.add.reduceat(u * p, [0], axis=1) - p) * inv)
    return value, grads


def test_attention_over_all_maps_is_one_node_bit_identical_to_op_chain():
    rng = np.random.default_rng(9)
    widths = (4, 6, 3)
    teachers = [rng.normal(size=(5, w)).astype(np.float32) for w in widths]
    students = [rng.normal(size=(5, w)).astype(np.float32) for w in widths]
    students[1][2] = 0.0  # a dead row
    g = np.asarray(0.3, dtype=np.float32)  # the weight, lifted as the loss's dtype
    expect_loss, expect_grads = attention_chain(teachers, students, g)

    tensors = [ad.Tensor(s, requires_grad=True) for s in students]
    loss = ops.fc_attention(teachers, tensors)
    assert len(loss.tape.entries) == 1  # one node over every map
    ops.mul(loss, 0.3).backward()
    assert loss.data.dtype == expect_loss.dtype and loss.data.tobytes() == expect_loss.tobytes()
    for tensor, grad in zip(tensors, expect_grads):
        assert tensor.grad.dtype == grad.dtype and tensor.grad.tobytes() == grad.tobytes()
    np.testing.assert_array_equal(tensors[1].grad[2], 0.0)


def floored_inverse_norm(sumsq):
    """1 / sqrt(max(sumsq, NORM_FLOOR**2)) as a tape node: the one op of the
    generic attention chain that ``Tensor`` lacks."""
    root, cell = np.sqrt(np.maximum(sumsq.data, NORM_FLOOR**2)), sumsq.cell

    def bwd(g):
        ad._accum(cell, g * (-0.5 / (root * root * root)) * (sumsq.data > NORM_FLOOR**2))

    return ad._node(1.0 / root, (sumsq,), bwd)


def generic_unit_rows(m):
    """A map's rows divided by their floored norm, as generic ``Tensor`` ops;
    a row whose float64 sum of squares is below the squared floor is masked
    out as a constant."""
    alive = (np.add.reduce(m.data.astype(np.float64) ** 2, axis=1, keepdims=True) >= NORM_FLOOR**2)
    live = ops.mul(m, alive.astype(m.data.dtype))
    return ops.mul(live, floored_inverse_norm(ops.total(ops.mul(live, live), axis=1, keepdims=True)))


def generic_map(act, layer, width, idx):
    """A layer output's attention map as generic ``Tensor`` ops: a conv
    kind's mean over positions, then the projection to ``width`` where wider."""
    m = act
    if layer.kind in CONV_KINDS:
        m = ops.mean(ops.reshape(act, (len(act.data), layer.O, layer.h, layer.w)), axis=(2, 3))
    if m.data.shape[1] > width:
        m = ops.matmul(m, distill._projection(idx, m.data.shape[1], width).astype(m.data.dtype))
    return m


def generic_attention(t_acts, s_acts, t_layers, s_layers):
    """The attention term as a chain of generic ``Tensor`` ops over the
    guide's and the student's layer outputs: each pair of maps, the wider
    projected to the narrower's width, gives the mean over rows of the
    squared distance of its unit rows; the terms are summed over the maps."""
    total = None
    for i, (t, s, t_layer, s_layer) in enumerate(zip(t_acts, s_acts, t_layers, s_layers)):
        t_map, s_map = generic_map(t, t_layer, s_layer.O, i), generic_map(s, s_layer, t_layer.O, i)
        diff = ops.sub(generic_unit_rows(t_map), generic_unit_rows(s_map))
        term = ops.mean(ops.total(ops.mul(diff, diff), axis=1))
        total = term if total is None else ops.add(total, term)
    return total


# Largest difference from the generic chain, relative to the largest
# magnitude of the array: the node divides by the norm through its
# reciprocal and sums in its own order.
CHAIN_BOUND = {np.float32: 256 * np.finfo(np.float32).eps, np.float64: 256 * np.finfo(np.float64).eps}


def fc(width):
    return LayerSpec(LayerKind.FC, I=1, O=width)


def conv(channels):
    return LayerSpec(LayerKind.CONV, I=1, O=channels, f=1, g=1, h=2, w=3)


def backward_from(loss, *models):
    """Backpropagate 0.3 * ``loss`` into zeroed gradient buffers of ``models``."""
    for model in models:
        model.grad[...] = 0.0
    with np.errstate(over="ignore"):
        ops.mul(loss, 0.3).backward()
    return [model.grad.copy() for model in models]


def maps_case(dtype):
    """Random layer outputs: mixed widths; a dead row and a row whose sum of
    squares overflows the dtype (finite value, zero gradient); a guide map
    wider than the student's (projected in the targets); a student map wider
    than its target (projected in the node); a conv map of equal channels,
    and one of more channels than its target (mean, then projection)."""
    t_layers = [fc(5), fc(3), fc(4), conv(4), conv(2), fc(1)]
    s_layers = [fc(3), fc(3), fc(7), conv(4), conv(5), fc(1)]
    rng = np.random.default_rng(12)
    teachers = [rng.normal(size=(6, layer.output_width)).astype(dtype) for layer in t_layers[:-1]]
    students = [rng.normal(size=(6, layer.output_width)).astype(dtype) for layer in s_layers[:-1]]
    students[1][4] = 0.0  # dead
    students[1][1] = 2 * np.sqrt(np.finfo(dtype).max)  # its squares overflow
    got_acts, want_acts = ([ad.Tensor(s.copy(), requires_grad=True) for s in students] for _ in range(2))
    guide = ForwardTrace(None, [*map(ad.Tensor, teachers), None], 6)
    with np.errstate(over="ignore"):
        t_unit, segments = ops.guide_targets(guide, t_layers, s_layers)
        got = ops.attention(t_unit, got_acts, s_layers, segments)
        want = generic_attention([ad.Tensor(t) for t in teachers], want_acts, t_layers, s_layers)
        ops.mul(got, 0.3).backward()
        ops.mul(want, 0.3).backward()
    np.testing.assert_array_equal(got_acts[1].grad[[1, 4]], 0.0)
    return got, want, [a.grad for a in got_acts], [a.grad for a in want_acts]


def s3_case(dtype):
    """One S3 batch, the live trainee's outputs as the targets.  The trainee
    continues the student's pass after a shared conv layer, as ``train``
    runs it, so that layer's maps are equal on both sides; then
    a conv map wider on the student's side (projected in the node) and an
    fc map wider on the trainee's (projected in the targets).  The
    gradients are the model buffers; the trainee's own layers get none."""
    head = LayerSpec(LayerKind.CONV, I=2, O=3, f=2, g=2, h=3, w=4)
    student, trainee = (
        init_model(check_valid(NetworkSpec(name, [
            head,
            LayerSpec(LayerKind.CONV, I=3, O=channels, f=2, g=2, h=2, w=3),
            LayerSpec(LayerKind.FC, I=6 * channels, O=width),
            LayerSpec(LayerKind.FC, I=width, O=3),
        ], class_count=3, shared_prefix=1)), seed=seed, dtype=dtype)
        for name, channels, width, seed in (("student", 4, 5, 1), ("trainee", 2, 7, 2))
    )
    distill.share_prefix_layers(student, trainee, 1)
    x = np.random.default_rng(13).normal(size=(6, head.input_width))
    traces = []
    for _ in range(2):  # one batch each for the node and the chain
        s_trace = forward(student, x)
        tail = forward(trainee, s_trace.activations[0], start=1)
        te_trace = ForwardTrace(tail.logits, s_trace.activations[:1] + tail.activations, 6)
        traces.append([s_trace, te_trace])
    (s_trace, te_trace), (s_chain, te_chain) = traces
    layers, t_layers = student.spec.layers, trainee.spec.layers
    t_unit, segments = ops.guide_targets(te_trace, t_layers, layers)
    got = ops.attention(t_unit, s_trace.activations[:-1], layers, segments)
    got_grads = backward_from(got, student, trainee)
    t_acts = [ad.Tensor(a.data) for a in te_chain.activations[:-1]]
    want = generic_attention(t_acts, s_chain.activations[:-1], t_layers, layers)
    want_grads = backward_from(want, student, trainee)
    for layer in trainee.grad_views[1:]:
        for grad in layer.values():
            np.testing.assert_array_equal(grad, 0.0)
    return got, want, got_grads, want_grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", [maps_case, s3_case], ids=["maps", "s3"])
def test_attention_node_matches_the_generic_chain(case, dtype):
    got, want, got_grads, want_grads = case(dtype)
    assert got.data.dtype == want.data.dtype == dtype and np.isfinite(got.data)
    assert abs(got.data - want.data) <= CHAIN_BOUND[dtype] * abs(want.data)
    for idx, (a, b) in enumerate(zip(got_grads, want_grads)):
        assert a.dtype == b.dtype == dtype
        err = np.abs(a - b).max() / np.abs(b).max()
        assert err <= CHAIN_BOUND[dtype], f"gradient {idx}: relative difference {err:.2e}"


def test_distillation_node_is_bit_identical_to_op_chain():
    rng = np.random.default_rng(10)
    teacher = rng.normal(size=(6, 4)).astype(np.float32)
    student = rng.normal(size=(6, 4)).astype(np.float32)
    # forward: t + (-s), square, row sum, sum, times 1/n, each Python scalar
    # lifted in its partner's dtype, float32 here
    diff = teacher + (-student)
    inv_n = np.asarray(1.0 / 6, dtype=np.float32)
    expect_loss = np.asarray((diff * diff).sum(axis=1).sum()) * inv_n
    # backward from the 0.3 weight, each op in reverse
    g_rows = np.broadcast_to(np.asarray(0.3, dtype=np.float32) * inv_n, (6,)).copy()
    g_sq = np.broadcast_to(np.expand_dims(g_rows, 1), diff.shape).copy()
    expect_grad = -(g_sq * diff + g_sq * diff)

    s = ad.Tensor(student, requires_grad=True)
    loss = distillation_loss_node(teacher, s)
    assert len(loss.tape.entries) == 1  # one node over the logits
    ops.mul(loss, 0.3).backward()
    assert loss.data.dtype == expect_loss.dtype and loss.data.tobytes() == expect_loss.tobytes()
    assert s.grad.dtype == expect_grad.dtype and s.grad.tobytes() == expect_grad.tobytes()
    with pytest.raises(ValueError, match="logit shapes differ"):
        distillation_loss_node(teacher[:, :3], s)


def test_weighted_sum_is_one_node_bit_identical_to_op_chain():
    rng = np.random.default_rng(11)
    lams = (0.2, 1.0, 0.35, 0.45)  # l1, l4, l2, l3 as train() orders them
    values = [np.asarray(v, dtype=np.float32) for v in rng.normal(size=4)]
    # lam * term, each lam lifted to a 0-d array in the term's dtype, then
    # added left to right
    weights = [np.asarray(lam, dtype=np.float32) for lam in lams]
    expect_loss = values[0] * weights[0]
    for value, w in zip(values[1:], weights[1:]):
        expect_loss = expect_loss + value * w
    upstream = np.ones_like(expect_loss)

    terms = [ad.Tensor(v, requires_grad=True) for v in values]
    loss = distill._weighted_sum(list(zip(lams, terms)))
    assert len(loss.tape.entries) == 1  # one node over every term
    loss.backward()
    assert loss.data.dtype == expect_loss.dtype and loss.data.tobytes() == expect_loss.tobytes()
    for term, w in zip(terms, weights):
        grad = upstream * w
        assert term.grad.dtype == grad.dtype and term.grad.tobytes() == grad.tobytes()


class _Taped(Exception):
    pass


def test_pre_halt_batch_records_five_loss_nodes(monkeypatch):
    """One S6 pre-halt batch: one node per layer of the student and of the
    trainee's tail, then two CE nodes, the attention node, the DL node and
    the weighted sum."""
    spec = check_valid(NetworkSpec("t", [
        LayerSpec(LayerKind.FC, I=6, O=5), LayerSpec(LayerKind.FC, I=5, O=4),
        LayerSpec(LayerKind.FC, I=4, O=4), LayerSpec(LayerKind.FC, I=4, O=3),
    ], class_count=3, shared_prefix=2))
    student, trainee, pretrained = (init_model(spec, seed=s) for s in (1, 2, 3))
    distill.share_prefix_layers(student, trainee, 2)
    roots = []

    def capture(root):
        roots.append(root)
        raise _Taped

    monkeypatch.setattr(ad.Tensor, "backward", capture)
    data = make_synthetic(k=3, p=6, n=60, seed=4)
    with pytest.raises(_Taped):
        distill.train(student, trainee, pretrained, data,
                      distill.DistillPlan(0.5, 0.3, 0.2, total_epochs=2, batch_size=16))
    nodes = roots[0].tape.entries
    layer_nodes = 4 + (4 - 2)
    assert len(nodes) == layer_nodes + 5
