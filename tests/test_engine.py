"""Model engine: cell semantics, masks, checkpoints, training loop."""

import json

import numpy as np
import pytest

import generic_ops as ops
from edgeslim import compressor
from edgeslim.archspec import GATE_NAMES, LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.compressor import minimum_flops
from edgeslim.datasets import make_synthetic
from edgeslim.engine import autodiff as ad
from edgeslim.engine.layers import param_layout
from edgeslim.engine.model import (
    TrainingDiverged,
    backward,
    check_labels,
    connection_count,
    copy_model,
    cross_entropy_node,
    forward,
    init_model,
    load_checkpoint,
    model_bytes,
    save_checkpoint,
    sgd_step,
)
from edgeslim.engine.training import (
    epoch_seed,
    evaluate_accuracy,
    evaluate_loss,
    iterate_minibatches,
    run_epoch,
    train_classifier,
)
from edgeslim.pruning import apply_dropout
from edgeslim.resources import DeviceProfile


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_fc_forward_matches_manual(rng):
    layer = LayerSpec(LayerKind.FC, I=5, O=3)
    spec = NetworkSpec("t", [layer], class_count=3)
    model = init_model(spec, seed=1, dtype=np.float64)
    x = rng.normal(size=(4, 5))
    out = ops.apply_layer(layer, model.layers[0].params, None, ad.Tensor(x)).data
    p = model.layers[0].params
    np.testing.assert_allclose(out, x @ p["W"] + p["b"], rtol=1e-12)


def test_conv_forward_matches_loop(rng):
    layer = LayerSpec(LayerKind.CONV, I=2, O=3, f=3, g=3, h=4, w=4)
    spec = NetworkSpec("t", [layer, LayerSpec(LayerKind.FC, I=48, O=2)], class_count=2)
    model = init_model(spec, seed=2, dtype=np.float64)
    x = rng.normal(size=(2, 2, 6, 6))  # padded input plane
    out = ops.apply_layer(layer, model.layers[0].params, None, ad.Tensor(x)).data
    W, b = model.layers[0].params["W"], model.layers[0].params["b"]
    expect = np.zeros((2, 3, 4, 4))
    for n in range(2):
        for o in range(3):
            for i in range(4):
                for j in range(4):
                    patch = x[n, :, i : i + 3, j : j + 3]
                    expect[n, o, i, j] = (patch * W[o]).sum() + b[o]
    # every layer emits flat rows; a conv row holds its maps channel-major
    np.testing.assert_allclose(out, expect.reshape(2, -1), rtol=1e-10, atol=1e-12)


def recurrent_reference(kind, params, x):
    """Hand-rolled recurrences in float64; x is (n, s, I)."""
    n, s, _ = x.shape
    first_bias = next(k for k in params if k.startswith("b"))
    O = params[first_bias].shape[0]
    h = np.zeros((n, O))
    c = np.zeros((n, O))
    for t in range(s):
        xt = x[:, t, :]
        joint = np.concatenate([xt, h], axis=1)

        def gate(name, fn=sigmoid):
            return fn(joint @ params["W" + name] + params["b" + name])

        if kind is LayerKind.LSTM:
            i, f, o = gate("i"), gate("f"), gate("o")
            g = gate("g", np.tanh)
            c = f * c + i * g
            h = o * np.tanh(c)
        elif kind is LayerKind.COUPLED_LSTM:
            f, o = gate("f"), gate("o")
            g = gate("g", np.tanh)
            c = f * c + (1.0 - f) * g
            h = o * np.tanh(c)
        elif kind is LayerKind.GRU:
            z, r = gate("z"), gate("r")
            joint_h = np.concatenate([xt, r * h], axis=1)
            cand = np.tanh(joint_h @ params["Wh"] + params["bh"])
            h = (1.0 - z) * h + z * cand
        elif kind is LayerKind.MGU:
            f = gate("f")
            joint_h = np.concatenate([xt, f * h], axis=1)
            cand = np.tanh(joint_h @ params["Wh"] + params["bh"])
            h = (1.0 - f) * h + f * cand
    return h


RECURRENT = [LayerKind.LSTM, LayerKind.COUPLED_LSTM, LayerKind.GRU, LayerKind.MGU]


def gate_sigmoid(x):
    """The gates' logistic function, one op per line: both branches from
    e = exp(-|x|), the numerator picked by ``np.where``."""
    e = np.abs(x)
    e = -e
    e = np.exp(e)
    numerator = np.where(x >= 0, 1.0, e)
    denominator = 1.0 + e
    return numerator / denominator


def recurrent_op_chain(kind, params, x, upstream):
    """The fused recurrent node written out step by step, one numpy op per
    line, with no buffer reused or written in place: the same GEMMs (the
    input projection of all steps as one, the per-gate blocks side by side)
    and the same elementwise ops in the same order, so the node must match
    it bit for bit.  Returns the output and the gradients of ``x`` and of
    every parameter for the upstream gradient ``upstream``."""
    gates = GATE_NAMES[kind]
    n = len(x)
    O = params["b" + gates[0]].shape[0]
    I = params["W" + gates[0]].shape[0] - O
    s = x.shape[1] // I
    S = (len(gates) - 1) * O
    gated = kind in (LayerKind.GRU, LayerKind.MGU)
    reset = slice(O, 2 * O) if kind == LayerKind.GRU else slice(0, O)
    Wx = np.concatenate([params["W" + gate][:I] for gate in gates], axis=1)
    Wh = np.concatenate([params["W" + gate][I:] for gate in gates], axis=1)
    b = np.concatenate([params["b" + gate] for gate in gates])
    Wh_sig = np.ascontiguousarray(Wh[:, :S])  # the gated kinds' state GEMMs
    Wh_cand = np.ascontiguousarray(Wh[:, S:])
    xs = x.reshape(n, s, I)
    xs = xs.transpose(1, 0, 2)
    xs = xs.reshape(s * n, I)
    proj = xs @ Wx
    proj = proj.reshape(s, n, -1)

    h = np.zeros((n, O), dtype=proj.dtype)
    c = np.zeros((n, O), dtype=proj.dtype)
    hs, cs, acts, tcs, hins = [], [], [], [], []
    for t in range(s):
        hs.append(h)
        cs.append(c)
        if gated:
            pre = proj[t][:, :S]
            if t:
                pre = pre + h @ Wh_sig
            pre = pre + b[:S]
            sig = gate_sigmoid(pre)
            hin = sig[:, reset] * h
            pre = proj[t][:, S:]
            if t:
                pre = pre + hin @ Wh_cand
            pre = pre + b[S:]
            cand = np.tanh(pre)
            z = sig[:, :O]
            keep = 1.0 - z
            kept = keep * h
            blended = z * cand
            h = kept + blended
            hins.append(hin)
            acts.append(np.concatenate([sig, cand], axis=1))
        else:
            pre = proj[t]
            if t:
                pre = pre + h @ Wh
            pre = pre + b
            sig = gate_sigmoid(pre[:, :S])
            g = np.tanh(pre[:, S:])
            o = sig[:, S - O : S]
            if kind == LayerKind.LSTM:
                i = sig[:, :O]
                f = sig[:, O : 2 * O]
            else:
                f = sig[:, :O]
                i = 1.0 - f
            kept = f * c
            written = i * g
            c = kept + written
            tc = np.tanh(c)
            h = o * tc
            tcs.append(tc)
            acts.append(np.concatenate([sig, g], axis=1))
    out = h

    gh = upstream
    dc = np.zeros_like(gh)
    dpre = [None] * s
    for t in reversed(range(s)):
        h, a = hs[t], acts[t]
        sig = a[:, :S]
        slope = 1.0 - sig
        slope = sig * slope
        if gated:
            z, cand = a[:, :O], a[:, S:]
            dcand = gh * z
            square = cand * cand
            square = 1.0 - square
            dcand = dcand * square
            dsig = np.zeros((n, S), dtype=dcand.dtype)
            diff = cand - h
            dsig[:, :O] = gh * diff
            if t:
                dhin = dcand @ Wh_cand.T
                dsig[:, reset] = dsig[:, reset] + dhin * h
            dsig = dsig * slope
            if t:
                keep = 1.0 - z
                gh_keep = gh * keep
                gh_reset = dhin * a[:, reset]
                gh = gh_keep + gh_reset
                gh = gh + dsig @ Wh_sig.T
            dpre[t] = np.concatenate([dsig, dcand], axis=1)
        else:
            tc, g = tcs[t], a[:, S:]
            o = a[:, S - O : S]
            dtc = gh * o
            square = tc * tc
            square = 1.0 - square
            dtc = dtc * square
            dc = dc + dtc
            do = gh * tc
            if kind == LayerKind.LSTM:
                f = a[:, O : 2 * O]
                di = dc * g
                df = dc * cs[t]
                dg = dc * a[:, :O]
                dsig = np.concatenate([di, df, do], axis=1)
            else:
                f = a[:, :O]
                diff = cs[t] - g
                df = dc * diff
                keep = 1.0 - f
                dg = dc * keep
                dsig = np.concatenate([df, do], axis=1)
            dsig = dsig * slope
            square = g * g
            square = 1.0 - square
            dg = dg * square
            dpre[t] = np.concatenate([dsig, dg], axis=1)
            if t:
                dc = dc * f
                gh = dpre[t] @ Wh.T
    flat = np.stack(dpre)
    flat = flat.reshape(s * n, -1)
    dx = flat @ Wx.T
    dx = dx.reshape(s, n, I)
    dx = dx.transpose(1, 0, 2)
    dx = dx.reshape(n, s * I)
    dWx = xs.T @ flat
    states = np.stack(hs)
    states = states.reshape(s * n, O)
    states = states.T
    if gated:
        gated_states = np.stack(hins)
        gated_states = gated_states.reshape(s * n, O)
        gated_states = gated_states.T
        dWh_sig = states @ flat[:, :S]
        dWh_cand = gated_states @ flat[:, S:]
        dWh = np.concatenate([dWh_sig, dWh_cand], axis=1)
    else:
        dWh = states @ flat
    db = flat.sum(axis=0)
    grads = {"x": dx}
    for k, gate in enumerate(gates):
        cols = slice(k * O, (k + 1) * O)
        grads["W" + gate] = np.concatenate([dWx[:, cols], dWh[:, cols]])
        grads["b" + gate] = db[cols]
    return out, grads


def check_node_against_op_chain(layer, batch, upstream_dtype):
    """Output, dx and every gate's dW and db of ``layer`` as a float32 cell,
    pruned and with gates saturating on both sides, against
    :func:`recurrent_op_chain`, bit for bit."""
    rng = np.random.default_rng([batch, 3])
    x = rng.normal(scale=3.0, size=(batch, layer.input_width)).astype(np.float32)
    params = {}
    for pdef in param_layout(layer):
        params[pdef.name] = rng.normal(scale=2.0, size=pdef.shape).astype(np.float32)
        if pdef.masked:
            params[pdef.name][rng.random(pdef.shape) <= 0.3] = 0.0
    upstream = rng.normal(size=(batch, layer.O)).astype(upstream_dtype)

    inputs = ad.Tensor(x, requires_grad=True)
    grads = {k: np.full(v.shape, np.nan, np.result_type(v, upstream)) for k, v in params.items()}
    out = ops.apply_layer(layer, params, grads, inputs)
    ops.total(ops.mul(out, upstream)).backward()
    got = {"x": inputs.grad, **grads}

    expect_out, expect = recurrent_op_chain(layer.kind, params, x, upstream)
    assert out.data.dtype == expect_out.dtype and out.data.tobytes() == expect_out.tobytes()
    assert got.keys() == expect.keys()
    for name, grad in got.items():
        want = expect[name]
        assert grad.dtype == want.dtype and grad.shape == want.shape, name
        assert grad.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("upstream_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 32, 256])
@pytest.mark.parametrize("kind", RECURRENT)
def test_recurrent_node_is_bit_identical_to_op_chain(kind, batch, upstream_dtype):
    """Output, dx and every gate's dW and db of a float32 cell, pruned and
    with gates saturating on both sides, against :func:`recurrent_op_chain`."""
    check_node_against_op_chain(LayerSpec(kind, I=5, O=6, s=4), batch, upstream_dtype)


# (I, O, s) of the recurrent layer of the bench's ``mixed`` and ``layers`` workloads
BENCH_CELLS = {"mixed": (36, 16, 4), "layers": (16, 32, 8)}


@pytest.mark.parametrize("upstream_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 32, 256])
@pytest.mark.parametrize("workload", BENCH_CELLS)
@pytest.mark.parametrize("kind", RECURRENT)
def test_recurrent_node_at_the_bench_shapes_is_bit_identical_to_op_chain(
    kind, workload, batch, upstream_dtype
):
    """The check above at the cell shapes the bench times, whose (n, O)
    gate blocks span several SIMD registers where O=6 spans one."""
    I, O, s = BENCH_CELLS[workload]
    check_node_against_op_chain(LayerSpec(kind, I=I, O=O, s=s), batch, upstream_dtype)


@pytest.mark.parametrize("shape", [(5, 6, 4), *BENCH_CELLS.values()])
@pytest.mark.parametrize("kind", RECURRENT)
def test_a_frozen_recurrent_node_needs_no_gradient_and_keeps_the_bits(kind, shape):
    """A frozen cell (no ``grads``) on an input that needs no gradient
    builds a node off the tape, with the output bits of the trainable run."""
    I, O, s = shape
    layer = LayerSpec(kind, I=I, O=O, s=s)
    rng = np.random.default_rng([I, O, s])
    x = rng.normal(scale=3.0, size=(32, layer.input_width)).astype(np.float32)
    params = {p.name: rng.normal(scale=2.0, size=p.shape).astype(np.float32)
              for p in param_layout(layer)}
    grads = {k: np.empty_like(v) for k, v in params.items()}
    trained = ops.apply_layer(layer, params, grads, ad.Tensor(x, requires_grad=True))
    frozen = ops.apply_layer(layer, params, None, ad.Tensor(x))
    assert trained.cell is not None and frozen.cell is None
    assert frozen.tape is None  # off the tape: no backward recorded
    assert frozen.data.dtype == trained.data.dtype == np.float32
    assert frozen.data.tobytes() == trained.data.tobytes()


def mask_some(model, layer_idx, rng, fraction=0.3):
    """Prune a random fraction, and at least the first entry, of every
    weight of one layer: mask 0 and the weight under it zeroed."""
    lp = model.layers[layer_idx]
    for name, mask in lp.masks.items():
        mask[rng.random(mask.shape) < fraction] = 0.0
        mask.flat[0] = 0.0
        lp.params[name][mask == 0] = 0.0


@pytest.mark.parametrize("kind", RECURRENT)
def test_recurrent_cells_match_reference(kind, rng):
    layer = LayerSpec(kind, I=4, O=6, s=3)
    spec = NetworkSpec("t", [layer, LayerSpec(LayerKind.FC, I=6, O=2)], class_count=2)
    model = init_model(spec, seed=3, dtype=np.float64)
    x = rng.normal(size=(5, 3, 4))
    out = ops.apply_layer(layer, model.layers[0].params, None, ad.Tensor(x)).data
    expect = recurrent_reference(kind, model.layers[0].params, x)
    np.testing.assert_allclose(out, expect, rtol=1e-10, atol=1e-12)

    # pruned weights: the masked entries are zero, as in every model
    mask_some(model, 0, rng)
    lp = model.layers[0]
    effective = {k: v * lp.masks[k] if k in lp.masks else v for k, v in lp.params.items()}
    out = forward(model, x.reshape(5, 12), trainable=False).activations[0].data
    expect = recurrent_reference(kind, effective, x)
    np.testing.assert_allclose(out, expect, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", RECURRENT)
@pytest.mark.parametrize("steps,batch", [(3, 1), (3, 5), (5, 1), (5, 5)])
def test_fused_cell_gradients_match_finite_differences(kind, steps, batch):
    """fc -> cell -> fc in float64: every parameter, the upstream fc included."""
    rng = np.random.default_rng([steps, batch])
    I, O = 2, 3
    spec = check_valid(NetworkSpec("t", [
        LayerSpec(LayerKind.FC, I=4, O=steps * I),
        LayerSpec(kind, I=I, O=O, s=steps),
        LayerSpec(LayerKind.FC, I=O, O=2),
    ], class_count=2))
    model = init_model(spec, seed=7, dtype=np.float64)
    for lp in model.layers:
        for arr in lp.params.values():
            arr += rng.normal(scale=0.3, size=arr.shape)  # off the ReLU kink
    mask_some(model, 0, rng)
    mask_some(model, 1, rng)
    x = rng.normal(size=(batch, 4))
    y = rng.integers(1, 3, size=batch)

    def loss_value():
        return float(cross_entropy_node(forward(model, x), y).data)

    trace = forward(model, x)
    views = backward(model, trace, cross_entropy_node(trace, y))
    analytics = [{name: grad.copy() for name, grad in layer.items()} for layer in views]
    h = 1e-6
    for lp, layer_analytics in zip(model.layers, analytics):
        for name, arr in lp.params.items():
            analytic = layer_analytics[name]
            numeric = np.zeros_like(arr)
            flat, out = arr.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss_value()
                flat[i] = keep - h
                down = loss_value()
                flat[i] = keep
                out[i] = (up - down) / (2 * h)
            # backward leaves the true derivative everywhere, masked entries
            # included; the step drops exactly the masked ones
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
            assert rel.max() < 1e-6, f"{name}: rel err {rel.max():.2e}"
            if name in lp.masks and (lp.masks[name] == 0).any():  # the pruned layers 0 and 1
                assert analytic[lp.masks[name] == 0].any()
    sgd_step(model, views, 1e-3)
    for lp, layer_analytics, layer_views in zip(model.layers, analytics, views):
        for name, analytic in layer_analytics.items():
            mask = lp.masks.get(name, np.ones_like(analytic))
            np.testing.assert_array_equal(layer_views[name], analytic * mask)


@pytest.mark.parametrize("kind", RECURRENT)
def test_fused_cell_tape_does_not_grow_with_steps(kind):
    sizes = []
    for steps in (2, 6):
        layer = LayerSpec(kind, I=3, O=4, s=steps)
        spec = NetworkSpec("t", [layer, LayerSpec(LayerKind.FC, I=4, O=2)], class_count=2)
        model = init_model(spec, seed=0)
        x = np.ones((2, 3 * steps), dtype=np.float32)
        loss = cross_entropy_node(forward(model, x), np.array([1, 2]))
        sizes.append(len(loss.tape.entries))
    assert sizes[0] == sizes[1]


def test_mgu_zero_weights_keeps_state_at_zero():
    layer = LayerSpec(LayerKind.MGU, I=3, O=4, s=6)
    spec = NetworkSpec("t", [layer, LayerSpec(LayerKind.FC, I=4, O=2)], class_count=2)
    model = init_model(spec, seed=0, dtype=np.float64)
    for name in model.layers[0].params:
        model.layers[0].params[name][...] = 0.0
    x = np.random.default_rng(1).normal(size=(2, 6, 3))
    out = ops.apply_layer(layer, model.layers[0].params, None, ad.Tensor(x)).data
    np.testing.assert_array_equal(out, np.zeros((2, 4)))


def assert_pruned(model, grads=None):
    """Every masked weight is zero, and so is its stepped gradient."""
    for idx, lp in enumerate(model.layers):
        for name, mask in lp.masks.items():
            assert not lp.params[name][mask == 0].any(), (idx, name)
            if grads is not None:
                assert not grads[idx][name][mask == 0].any(), (idx, name)


def test_every_way_a_mask_is_set_keeps_its_weight_zero_through_sgd(small_dataset):
    spec = check_valid(NetworkSpec("t", [
        LayerSpec(LayerKind.FC, I=8, O=12),
        LayerSpec(LayerKind.GRU, I=4, O=6, s=3),
        LayerSpec(LayerKind.FC, I=6, O=3),
    ], class_count=3))
    pruned = apply_dropout(init_model(spec, seed=4), 0.5, [0, 1, 2])
    loaded, _ = load_checkpoint(save_checkpoint(pruned))
    floor = minimum_flops(spec)
    device = DeviceProfile("tight", 4.0, 1e-9, 1e9, beta=floor * 1e-9, alpha=floor * 4.0)
    outcome = compressor.run(copy_model(pruned), device, omega=0.5)
    # the gate reduction carries the GRU's masks; the factors' fresh masks
    # are then pruned in turn
    assert outcome.model.spec.layers[1].kind == LayerKind.MGU
    assert outcome.model.spec.layers[2].kind == LayerKind.FACTORIZED_FC
    rewritten = apply_dropout(outcome.model, 0.5, [2])
    x, y = small_dataset.features[:32], small_dataset.labels[:32]
    for model in (pruned, loaded, rewritten):
        assert_pruned(model)
        before = model_bytes(model)
        for _ in range(5):
            trace = forward(model, x)
            grads = backward(model, trace, cross_entropy_node(trace, y))
            # backward leaves the true derivative, non-zero at masked entries
            assert any(
                layer_grads[name][mask == 0].any()
                for lp, layer_grads in zip(model.layers, grads)
                for name, mask in lp.masks.items()
            )
            sgd_step(model, grads, 0.5)
            assert_pruned(model, grads)
        assert_pruned(model)
        assert model_bytes(model) != before  # the steps moved the live weights


def test_masked_weight_receives_no_update(fc_spec, small_dataset):
    model = init_model(fc_spec, seed=4)
    model.layers[1].masks["W"][2, 3] = 0.0
    model.layers[1].params["W"][2, 3] = 0.0
    train_classifier(model, small_dataset, epochs=1, eta=0.1, seed=0)
    assert model.layers[1].params["W"][2, 3] == 0.0


def test_relu_on_hidden_dense_layers_only(fc_spec, rng):
    model = init_model(fc_spec, seed=5)
    trace = forward(model, rng.normal(size=(10, 8)).astype(np.float32), trainable=False)
    assert (trace.activations[0].data >= 0).all()
    assert (trace.activations[1].data >= 0).all()
    assert (trace.logits.data < 0).any()  # logits stay linear


def test_forward_width_check(fc_spec):
    model = init_model(fc_spec, seed=0)
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 7), dtype=np.float32))


def test_predictions_are_one_based(fc_spec, rng):
    model = init_model(fc_spec, seed=0)
    trace = forward(model, rng.normal(size=(20, 8)).astype(np.float32), trainable=False)
    assert trace.predictions.min() >= 1 and trace.predictions.max() <= 3


def test_cross_entropy_rejects_bad_labels(fc_spec):
    model = init_model(fc_spec, seed=0)
    for labels in ([0, 1], [1, 4]):
        with pytest.raises(ValueError, match=r"labels must lie in 1\.\.3"):
            check_labels(np.array(labels), model)
    # the loops check the whole fold once, before the first batch
    four_classes = make_synthetic(k=4, p=8, n=40, seed=0)
    before = model_bytes(model)
    with pytest.raises(ValueError, match=r"labels must lie in 1\.\.3"):
        run_epoch(model, four_classes, eta=0.1, batch_size=8, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"labels must lie in 1\.\.3"):
        evaluate_loss(model, four_classes)
    assert model_bytes(model) == before


def test_init_is_deterministic(fc_spec):
    assert model_bytes(init_model(fc_spec, seed=7)) == model_bytes(init_model(fc_spec, seed=7))
    assert model_bytes(init_model(fc_spec, seed=7)) != model_bytes(init_model(fc_spec, seed=8))


def test_checkpoint_round_trip_bit_exact(fc_spec):
    model = init_model(fc_spec, seed=9)
    model.layers[0].masks["W"][1, 2] = 0.0
    model.layers[0].params["W"][1, 2] = 0.0  # masked weights are zero
    payload = save_checkpoint(model, extras={"note": 1})
    text = json.dumps(payload)  # survives a real serialisation pass
    restored, extras = load_checkpoint(json.loads(text))
    assert extras == {"note": 1}
    assert model_bytes(restored) == model_bytes(model)
    assert restored.dtype == model.dtype
    np.testing.assert_array_equal(restored.layers[0].masks["W"], model.layers[0].masks["W"])


def test_checkpoint_rejects_corruption(fc_spec):
    payload = save_checkpoint(init_model(fc_spec, seed=0))
    with pytest.raises(ValueError):
        load_checkpoint({**payload, "format": "other"})
    with pytest.raises(ValueError):
        load_checkpoint({**payload, "version": 99})
    broken = json.loads(json.dumps(payload))
    first = broken["layers"][0]["params"]
    name = next(iter(first))
    first[name]["data"] = "!!!not-base64!!!"
    with pytest.raises(ValueError):
        load_checkpoint(broken)


def test_checkpoint_rejects_extra_layer_entry(fc_spec):
    payload = save_checkpoint(init_model(fc_spec, seed=0))
    payload["layers"].append(payload["layers"][-1])
    with pytest.raises(ValueError, match="layer count"):
        load_checkpoint(payload)


def test_checkpoint_rejects_malformed_entries(fc_spec):
    good = save_checkpoint(init_model(fc_spec, seed=0))

    def broken(edit):
        payload = json.loads(json.dumps(good))
        edit(payload)
        return payload

    def mask_of(value):
        model = init_model(fc_spec, seed=0)
        model.layers[1].masks["W"][0, 0] = value
        return save_checkpoint(model)

    def param_of(value):
        model = init_model(fc_spec, seed=0)
        model.layers[1].params["b"][2] = value
        return save_checkpoint(model)

    float64_mask = save_checkpoint(init_model(fc_spec, seed=0, dtype=np.float64))
    cases = [
        ([good], "not a model checkpoint"),
        (broken(lambda p: p.pop("network")), "missing 'network'"),
        (broken(lambda p: p.update(network=[])), "network is not a JSON object"),
        (broken(lambda p: p.pop("dtype")), "missing 'dtype'"),
        (broken(lambda p: p.update(dtype="float-ish")), "not a numpy dtype"),
        (broken(lambda p: p.update(layers={})), "layer count"),
        (broken(lambda p: p["layers"][0].pop("masks")), "missing 'masks'"),
        (broken(lambda p: p["layers"][2]["masks"].pop("W")), "missing 'W'"),
        (broken(lambda p: p["layers"][0]["masks"]["W"].update(
            float64_mask["layers"][0]["masks"]["W"])), "dtype float64"),
        (mask_of(0.5), "other than 0 and 1"),
        (mask_of(np.nan), "other than 0 and 1"),
        (param_of(np.nan), "layer 1 param 'b' holds NaN or infinity"),
        (param_of(np.inf), "layer 1 param 'b' holds NaN or infinity"),
        (param_of(-np.inf), "layer 1 param 'b' holds NaN or infinity"),
        (broken(lambda p: p.update(extras=5)), "extras is not a JSON object"),
        (broken(lambda p: p.update(extras=[])), "extras is not a JSON object"),
    ]
    for payload, message in cases:
        with pytest.raises(ValueError, match=message):
            load_checkpoint(payload)


def test_connection_count_honours_masks(fc_spec):
    model = init_model(fc_spec, seed=0)
    full = connection_count(model)
    assert full == 8 * 16 + 16 * 12 + 12 * 3
    model.layers[0].masks["W"][0, :4] = 0.0
    assert connection_count(model) == full - 4


def test_training_reduces_loss_and_is_deterministic(fc_spec, small_dataset):
    model = init_model(fc_spec, seed=11)
    before = evaluate_loss(model, small_dataset)
    history = train_classifier(model, small_dataset, epochs=5, eta=0.1, seed=3)
    assert history[-1] < history[0] < before + 1e-9
    assert evaluate_accuracy(model, small_dataset) > 0.8

    again = init_model(fc_spec, seed=11)
    train_classifier(again, small_dataset, epochs=5, eta=0.1, seed=3)
    assert model_bytes(again) == model_bytes(model)


def test_divergence_raises(fc_spec, small_dataset):
    model = init_model(fc_spec, seed=11)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        train_classifier(model, small_dataset, epochs=60, eta=1e4, seed=3)


def test_minibatches_cover_everything():
    rng = np.random.default_rng(0)
    batches = list(iterate_minibatches(17, 5, rng))
    assert sorted(np.concatenate(batches).tolist()) == list(range(17))
    assert [len(b) for b in batches] == [5, 5, 5, 2]


def test_epoch_seed_varies_by_epoch():
    assert epoch_seed(3, 1) != epoch_seed(3, 2)
    assert epoch_seed(3, 1) == epoch_seed(3, 1)


SPLIT_KINDS = {
    "fc": LayerSpec(LayerKind.FC, I=5, O=4),
    "factorized_fc": LayerSpec(LayerKind.FACTORIZED_FC, I=5, O=4, R=2),
    "conv": LayerSpec(LayerKind.CONV, I=2, O=3, f=2, g=2, h=3, w=3),
    "factorized_conv": LayerSpec(LayerKind.FACTORIZED_CONV, I=2, O=3, f=2, g=2, h=3, w=3, R=2),
    "lstm": LayerSpec(LayerKind.LSTM, I=3, O=4, s=2),
    "gru": LayerSpec(LayerKind.GRU, I=3, O=4, s=2),
    "coupled_lstm": LayerSpec(LayerKind.COUPLED_LSTM, I=3, O=4, s=2),
    "mgu": LayerSpec(LayerKind.MGU, I=3, O=4, s=2),
}


def split_nets():
    """fc -> kind -> fc for every kind, and conv -> conv -> fc, whose split
    at 1 crosses the flatten/unflatten boundary between two conv layers."""
    nets = {}
    for name, layer in SPLIT_KINDS.items():
        nets[name] = [
            LayerSpec(LayerKind.FC, I=6, O=layer.input_width),
            layer,
            LayerSpec(LayerKind.FC, I=layer.output_width, O=3),
        ]
    nets["conv-conv"] = [
        LayerSpec(LayerKind.CONV, I=1, O=2, f=2, g=2, h=4, w=4),
        LayerSpec(LayerKind.CONV, I=2, O=3, f=2, g=2, h=3, w=3),
        LayerSpec(LayerKind.FC, I=27, O=3),
    ]
    return nets


@pytest.mark.parametrize("name", sorted(split_nets()))
def test_head_then_tail_matches_full_forward(name, rng):
    spec = check_valid(NetworkSpec("t", split_nets()[name], class_count=3))
    model = init_model(spec, seed=4)
    x = rng.normal(size=(5, spec.layers[0].input_width)).astype(np.float32)
    full = forward(model, x)
    for split in range(1, spec.depth + 1):  # a pass continued from layer ``split - 1``'s output
        tail = forward(model, full.activations[split - 1], start=split)
        assert tail.logits.data.tobytes() == full.logits.data.tobytes(), f"split {split}"
        assert len(tail.activations) == spec.depth - split
        for part, whole in zip(tail.activations, full.activations[split:]):
            assert part.data.tobytes() == whole.data.tobytes()


def test_forward_range_checks(fc_spec, rng):
    model = init_model(fc_spec, seed=0)
    x = rng.normal(size=(2, 8)).astype(np.float32)
    with pytest.raises(ValueError, match="does not fit depth"):
        forward(model, x, start=4)
    with pytest.raises(ValueError, match="does not fit depth"):
        forward(model, x, start=-1)
    with pytest.raises(ValueError, match="does not match layer 1"):
        forward(model, x, start=1)
    # from the depth on no layer runs: the input is the logits
    logits = forward(model, x).logits
    assert forward(model, logits, start=3).logits is logits
    with pytest.raises(ValueError, match="class count"):
        forward(model, x, start=3)
