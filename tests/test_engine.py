"""Model engine: cell semantics, masks, checkpoints, training loop."""

import json

import numpy as np
import pytest

from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.datasets import make_synthetic
from edgeslim.engine import autodiff as ad
from edgeslim.engine.layers import layer_forward
from edgeslim.engine.model import (
    TrainingDiverged,
    connection_count,
    copy_model,
    cross_entropy_node,
    forward,
    init_model,
    load_checkpoint,
    model_bytes,
    save_checkpoint,
)
from edgeslim.engine.training import (
    epoch_seed,
    evaluate_accuracy,
    evaluate_loss,
    iterate_minibatches,
    train_classifier,
)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lift_params(layer_params):
    return {k: ad.Tensor(v) for k, v in layer_params.params.items()}


def test_fc_forward_matches_manual(rng):
    layer = LayerSpec(LayerKind.FC, I=5, O=3)
    spec = NetworkSpec("t", [layer], class_count=3)
    model = init_model(spec, seed=1, dtype=np.float64)
    x = rng.normal(size=(4, 5))
    out = layer_forward(layer, lift_params(model.layers[0]), ad.Tensor(x)).data
    p = model.layers[0].params
    np.testing.assert_allclose(out, x @ p["W"] + p["b"], rtol=1e-12)


def test_conv_forward_matches_loop(rng):
    layer = LayerSpec(LayerKind.CONV, I=2, O=3, f=3, g=3, h=4, w=4)
    spec = NetworkSpec("t", [layer, LayerSpec(LayerKind.FC, I=48, O=2)], class_count=2)
    model = init_model(spec, seed=2, dtype=np.float64)
    x = rng.normal(size=(2, 2, 6, 6))  # padded input plane
    out = layer_forward(layer, lift_params(model.layers[0]), ad.Tensor(x)).data
    W, b = model.layers[0].params["W"], model.layers[0].params["b"]
    expect = np.zeros((2, 3, 4, 4))
    for n in range(2):
        for o in range(3):
            for i in range(4):
                for j in range(4):
                    patch = x[n, :, i : i + 3, j : j + 3]
                    expect[n, o, i, j] = (patch * W[o]).sum() + b[o]
    np.testing.assert_allclose(out, expect, rtol=1e-10, atol=1e-12)


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


def mask_some(model, layer_idx, rng, fraction=0.3):
    """Zero a random fraction, and at least the first entry, of every
    weight mask of one layer."""
    for mask in model.layers[layer_idx].masks.values():
        mask[rng.random(mask.shape) < fraction] = 0.0
        mask.flat[0] = 0.0


@pytest.mark.parametrize("kind", RECURRENT)
def test_recurrent_cells_match_reference(kind, rng):
    layer = LayerSpec(kind, I=4, O=6, s=3)
    spec = NetworkSpec("t", [layer, LayerSpec(LayerKind.FC, I=6, O=2)], class_count=2)
    model = init_model(spec, seed=3, dtype=np.float64)
    x = rng.normal(size=(5, 3, 4))
    out = layer_forward(layer, lift_params(model.layers[0]), ad.Tensor(x)).data
    expect = recurrent_reference(kind, model.layers[0].params, x)
    np.testing.assert_allclose(out, expect, rtol=1e-10, atol=1e-12)

    # masked weights, through the model's own mask multiply
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
    cross_entropy_node(trace, y).backward()
    h = 1e-6
    for lp, leaves in zip(model.layers, trace.leaves):
        for name, arr in lp.params.items():
            analytic = leaves[name].grad
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
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
            assert rel.max() < 1e-6, f"{name}: rel err {rel.max():.2e}"
            if name in lp.masks:
                assert (analytic[lp.masks[name] == 0.0] == 0.0).all()


@pytest.mark.parametrize("kind", RECURRENT)
def test_fused_cell_tape_does_not_grow_with_steps(kind):
    sizes = []
    for steps in (2, 6):
        layer = LayerSpec(kind, I=3, O=4, s=steps)
        spec = NetworkSpec("t", [layer, LayerSpec(LayerKind.FC, I=4, O=2)], class_count=2)
        model = init_model(spec, seed=0)
        x = np.ones((2, 3 * steps), dtype=np.float32)
        loss = cross_entropy_node(forward(model, x), np.array([1, 2]))
        sizes.append(len(ad._topo_order(loss)))
    assert sizes[0] == sizes[1]


def test_mgu_zero_weights_keeps_state_at_zero():
    layer = LayerSpec(LayerKind.MGU, I=3, O=4, s=6)
    spec = NetworkSpec("t", [layer, LayerSpec(LayerKind.FC, I=4, O=2)], class_count=2)
    model = init_model(spec, seed=0, dtype=np.float64)
    for name in model.layers[0].params:
        model.layers[0].params[name][...] = 0.0
    x = np.random.default_rng(1).normal(size=(2, 6, 3))
    out = layer_forward(layer, lift_params(model.layers[0]), ad.Tensor(x)).data
    np.testing.assert_array_equal(out, np.zeros((2, 4)))


def test_mask_equals_zeroed_weight(rng, fc_spec):
    model = init_model(fc_spec, seed=4, dtype=np.float64)
    x = rng.normal(size=(6, 8))
    masked = copy_model(model)
    masked.layers[1].masks["W"][2, 3] = 0.0
    zeroed = copy_model(model)
    zeroed.layers[1].params["W"][2, 3] = 0.0
    np.testing.assert_allclose(
        forward(masked, x, trainable=False).logits.data,
        forward(zeroed, x, trainable=False).logits.data,
        rtol=1e-12,
    )


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
    trace = forward(model, np.zeros((2, 8), dtype=np.float32), trainable=False)
    for labels in ([0, 1], [1, 4]):
        with pytest.raises(ValueError):
            cross_entropy_node(trace, np.array(labels))


def test_init_is_deterministic(fc_spec):
    assert model_bytes(init_model(fc_spec, seed=7)) == model_bytes(init_model(fc_spec, seed=7))
    assert model_bytes(init_model(fc_spec, seed=7)) != model_bytes(init_model(fc_spec, seed=8))


def test_checkpoint_round_trip_bit_exact(fc_spec):
    model = init_model(fc_spec, seed=9)
    model.layers[0].masks["W"][1, 2] = 0.0
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


def test_leaf_cache_shares_tensors(fc_spec, rng):
    a = init_model(fc_spec, seed=1)
    b = init_model(fc_spec, seed=2)
    b.layers[0] = a.layers[0]  # aliased first layer
    cache = {}
    x = rng.normal(size=(4, 8)).astype(np.float32)
    ta = forward(a, x, trainable=True, leaf_cache=cache)
    tb = forward(b, x, trainable=True, leaf_cache=cache)
    assert ta.leaves[0]["W"] is tb.leaves[0]["W"]
    assert ta.leaves[1]["W"] is not tb.leaves[1]["W"]
    # one backward through both traces accumulates on the shared leaf
    loss = cross_entropy_node(ta, np.ones(4, dtype=np.int64)) + cross_entropy_node(
        tb, np.ones(4, dtype=np.int64)
    )
    loss.backward()
    assert ta.leaves[0]["W"].grad is not None
