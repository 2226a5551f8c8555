"""One parameter buffer and one gradient buffer per model, and the one step."""

import pickle

import numpy as np
import pytest

import generic_ops as ops
from edgeslim import compressor, distill
from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.compressor import minimum_flops
from edgeslim.datasets import make_synthetic
from edgeslim.distill import DistillPlan, share_prefix_layers, train
from edgeslim.engine import autodiff as ad
from edgeslim.engine.model import (
    TrainingDiverged,
    backward,
    copy_model,
    cross_entropy_node,
    descend,
    forward,
    init_model,
    load_checkpoint,
    model_bytes,
    save_checkpoint,
    sgd_step,
)
from edgeslim.engine.training import run_epoch
from edgeslim.pipeline import _with_prefix
from edgeslim.pruning import apply_dropout
from edgeslim.resources import DeviceProfile

TEACHER = check_valid(
    NetworkSpec(
        "teacher",
        [
            LayerSpec(LayerKind.FC, I=8, O=16),
            LayerSpec(LayerKind.GRU, I=8, O=12, s=2),
            LayerSpec(LayerKind.FC, I=12, O=3),
        ],
        class_count=3,
        shared_prefix=1,
    )
)
STUDENT = check_valid(
    NetworkSpec(
        "student",
        [
            LayerSpec(LayerKind.FC, I=8, O=16),
            LayerSpec(LayerKind.FC, I=16, O=6),
            LayerSpec(LayerKind.FC, I=6, O=3),
        ],
        class_count=3,
        shared_prefix=1,
    )
)


def assert_packed(model, borrowed=0):
    """Layers ``borrowed..`` view ``model.flat`` back to back, in layer and
    layout order, and their ``grads`` (listed in ``grad_views``) and masks
    view ``model.grad`` and ``model.mask`` the same way."""
    assert model.borrowed == borrowed
    assert model.flat.dtype == model.grad.dtype == model.mask.dtype == model.dtype
    assert model.flat.flags.owndata and model.grad.flags.owndata and model.mask.flags.owndata
    assert len(model.grad_views) == len(model.layers) - borrowed
    start = model.flat.ctypes.data
    offset = 0
    for lp, grads in zip(model.layers[borrowed:], model.grad_views):
        assert grads is lp.grads and grads.keys() == lp.params.keys()
        for name, arr in lp.params.items():
            assert arr.base is model.flat and grads[name].base is model.grad
            assert arr.ctypes.data == start + offset * model.flat.itemsize
            assert grads[name].shape == arr.shape and arr.flags.c_contiguous
            # the mask buffer runs parallel: a weight's mask views the same
            # span of ``model.mask``, a bias's span holds ones
            if name in lp.masks:
                mask = lp.masks[name]
                assert mask.base is model.mask and mask.shape == arr.shape
                assert mask.ctypes.data == model.mask.ctypes.data + offset * model.mask.itemsize
            else:
                assert (model.mask[offset : offset + arr.size] == 1).all()
            offset += arr.size
    assert offset == model.flat.size == model.grad.size == model.mask.size


def assert_private(model, other):
    """No parameter or mask of ``model`` shares memory with ``other``."""
    assert not np.shares_memory(model.flat, other.flat)
    for lp in model.layers:
        for arr in [*lp.params.values(), *lp.masks.values()]:
            assert not np.shares_memory(arr, other.flat)
            for olp in other.layers:
                assert all(not np.shares_memory(arr, m) for m in olp.masks.values())


def test_every_constructor_packs_one_buffer():
    model = init_model(TEACHER, seed=1)
    assert_packed(model)

    copied = copy_model(model)
    assert_packed(copied)
    assert_private(copied, model)
    assert model_bytes(copied) == model_bytes(model)

    loaded, _ = load_checkpoint(save_checkpoint(model))
    assert_packed(loaded)
    assert model_bytes(loaded) == model_bytes(model)

    pruned = apply_dropout(model, 0.4, [1, 2])
    assert_packed(pruned)
    assert_private(pruned, model)

    prefixed = _with_prefix(model, 2)
    assert_packed(prefixed)
    assert_private(prefixed, model)
    assert prefixed.spec.shared_prefix == 2

    pickled = pickle.loads(pickle.dumps(model))
    assert_packed(pickled)
    assert model_bytes(pickled) == model_bytes(model)

    float64 = init_model(TEACHER, seed=1, dtype=np.float64)
    assert_packed(float64)


def test_compressor_rewrites_land_in_a_fresh_buffer():
    model = apply_dropout(init_model(TEACHER, seed=2), 0.3, [1, 2])
    floor = minimum_flops(model.spec)
    device = DeviceProfile("tight", 4.0, 1e-9, 1e9, beta=floor * 1e-9, alpha=floor * 4.0)
    outcome = compressor.run(model, device, omega=0.5)
    assert outcome.feasible and outcome.records  # at least one rewrite ran
    assert outcome.model.spec.layers[1].kind == LayerKind.MGU
    assert_packed(outcome.model)
    assert_private(outcome.model, model)


def test_shared_prefix_views_the_trainee_buffer_and_moves_once():
    student, trainee = init_model(STUDENT, seed=3), init_model(TEACHER, seed=4)
    share_prefix_layers(student, trainee, 1)
    assert student.layers[0] is trainee.layers[0]
    assert_packed(student, borrowed=1)
    assert_packed(trainee)
    for arr in student.layers[0].params.values():
        assert arr.base is trainee.flat
    assert not np.shares_memory(student.flat, trainee.flat)

    data = make_synthetic(k=3, p=8, n=24, seed=5)
    s_trace = forward(student, data.features)
    te_trace = forward(trainee, s_trace.activations[0], start=1)  # continues the shared layer
    loss = ops.add(cross_entropy_node(s_trace, data.labels), cross_entropy_node(te_trace, data.labels))
    loss.backward()
    eta = 0.1
    # the prefix's gradient lands in the trainee's buffer, the rest in each model's own
    for arr in student.layers[0].grads.values():
        assert arr.base is trainee.grad
    pairs = [(lp.params[name], lp.grads[name]) for model in (student, trainee)
             for lp in model.layers[model.borrowed :] for name in lp.params]
    expected = [arr - eta * grad for arr, grad in pairs]  # every mask is all ones
    descend([student, trainee], eta)
    for (arr, _), want in zip(pairs, expected):
        np.testing.assert_array_equal(arr, want)  # each array moved once


def test_halt_gives_the_student_one_private_buffer():
    data = make_synthetic(k=3, p=8, n=120, seed=6)
    student, trainee = init_model(STUDENT, seed=7), init_model(TEACHER, seed=8)
    pretrained = init_model(TEACHER, seed=9)
    share_prefix_layers(student, trainee, 1)
    plan = DistillPlan(0.5, 0.3, 0.2, total_epochs=3, h_max=1, plateau_window=3, batch_size=16)
    result = train(student, trainee, pretrained, data, plan)
    assert result.halting_epoch == 1
    assert_packed(student)
    assert_private(student, trainee)
    assert student.layers[0] is not trainee.layers[0]
    # the student kept training after the halt; the trainee did not
    assert result.trainee_bytes_at_halt == model_bytes(trainee)
    assert not np.array_equal(student.layers[0].params["W"], trainee.layers[0].params["W"])


def test_non_finite_gradient_leaves_every_model_of_the_step_unchanged():
    data = make_synthetic(k=3, p=8, n=24, seed=10)
    student, trainee = init_model(STUDENT, seed=11), init_model(TEACHER, seed=12)
    share_prefix_layers(student, trainee, 1)
    before = model_bytes(student), model_bytes(trainee)
    s_trace = forward(student, data.features)
    traces = [s_trace, forward(trainee, s_trace.activations[0], start=1)]
    ops.add(*(cross_entropy_node(trace, data.labels) for trace in traces)).backward()
    trainee.grad_views[-1]["b"][-1] = np.nan  # the trainee's last view, checked after every other
    with pytest.raises(TrainingDiverged):
        descend([student, trainee], 0.1)
    assert (model_bytes(student), model_bytes(trainee)) == before

    # the same through backward and sgd_step, with the bad entry last
    model = init_model(TEACHER, seed=13)
    before = model_bytes(model)
    trace = forward(model, data.features)
    grads = backward(model, trace, cross_entropy_node(trace, data.labels))
    grads[-1]["b"][-1] = np.inf
    with pytest.raises(TrainingDiverged):
        sgd_step(model, grads, 0.1)
    assert model_bytes(model) == before


def test_sgd_step_takes_only_the_gradients_backward_gathered():
    data = make_synthetic(k=3, p=8, n=24, seed=14)
    model = init_model(TEACHER, seed=15)
    trace = forward(model, data.features)
    grads = backward(model, trace, cross_entropy_node(trace, data.labels))
    before = model_bytes(model)
    foreign = [{name: g.copy() for name, g in layer.items()} for layer in grads]
    with pytest.raises(ValueError, match="backward"):
        sgd_step(model, foreign, 0.1)
    assert model_bytes(model) == before
    sgd_step(model, grads, 0.1)
    assert model_bytes(model) != before


def test_gathered_gradient_is_cast_before_the_mask():
    """A float64 gradient past float32's range is non-finite once written to
    the float32 gradient view, even under a zero mask: the step diverges
    instead of dropping it."""
    data = make_synthetic(k=3, p=8, n=24, seed=16)
    model = apply_dropout(init_model(TEACHER, seed=17), 0.5, [0])
    trace = forward(model, data.features)
    grads = backward(model, trace, cross_entropy_node(trace, data.labels))
    with np.errstate(over="ignore"):
        grads[0]["W"][model.layers[0].masks["W"] == 0] = np.float64(1e300)
    assert np.isinf(grads[0]["W"]).any()
    before = model_bytes(model)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
        sgd_step(model, grads, 0.1)
    assert model_bytes(model) == before


def test_backward_assigns_each_gradient_instead_of_adding_it():
    """Two backward passes of one batch leave the gradient buffers as one
    pass does, byte for byte: each layer assigns its gradient, also where
    the trainee continues the student's pass after their shared layer and
    both paths sum into it."""
    data = make_synthetic(k=3, p=8, n=24, seed=18)
    student, trainee = init_model(STUDENT, seed=19), init_model(TEACHER, seed=20)
    share_prefix_layers(student, trainee, 1)

    def one_pass():
        s_trace = forward(student, data.features)
        traces = [s_trace, forward(trainee, s_trace.activations[0], start=1)]
        s_loss, te_loss = (cross_entropy_node(trace, data.labels) for trace in traces)
        ops.add(s_loss, te_loss).backward()
        return student.grad.tobytes(), trainee.grad.tobytes()

    once = one_pass()
    assert any(np.frombuffer(buf, student.dtype).any() for buf in once)
    assert one_pass() == once


def conv_first(name, width):
    """conv (16 inputs, 9 outputs), then fc 9-``width`` and fc ``width``-3."""
    return check_valid(NetworkSpec(name, [
        LayerSpec(LayerKind.CONV, I=2, O=3, f=2, g=2, h=1, w=3),
        LayerSpec(LayerKind.FC, I=9, O=width),
        LayerSpec(LayerKind.FC, I=width, O=3),
    ], class_count=3, shared_prefix=1))


class _Stepped(Exception):
    pass


@pytest.mark.parametrize("spec, step", [
    (STUDENT, "epoch"), (TEACHER, "epoch"), (conv_first("conv", 6), "epoch"),
    (conv_first("conv", 6), "distill"),
], ids=["fc", "fc-gru-fc", "conv-fc-fc", "conv-fc-fc-S6"])
def test_a_training_step_builds_no_tensor_per_parameter(spec, step, monkeypatch):
    """One ``run_epoch`` step of an L-layer model builds L + 2 ``Tensor``s:
    the input, one node per layer and the loss.  One pre-halt S6 batch of
    ``distill.train`` builds its layer nodes (the student's whole pass, the
    shared conv included, and the trainee's layers after it), the two CE,
    DL, attention and weighted-sum nodes, and the input.  The DL target and
    the 1/n and weight constants are plain arrays, and the conv maps' mean
    and the student's map projection (6 columns onto the guides' 4) happen
    inside the attention node."""
    built = []
    real_init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    data = make_synthetic(k=3, p=spec.layers[0].input_width, n=16, seed=21)
    model = init_model(spec, seed=22)
    if step == "epoch":
        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        run_epoch(model, data, eta=0.1, batch_size=data.n, rng=np.random.default_rng(0))
        assert len(built) == spec.depth + 2
        return
    trainee, pretrained = (init_model(conv_first("guide", 4), seed=s) for s in (23, 24))
    share_prefix_layers(model, trainee, 1)
    real_outputs = distill._frozen_outputs

    def from_the_first_batch(*args):
        out = real_outputs(*args)
        built.clear()
        return out

    def stop(root):
        raise _Stepped

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    monkeypatch.setattr(ad.Tensor, "backward", stop)
    monkeypatch.setattr(distill, "_frozen_outputs", from_the_first_batch)
    with pytest.raises(_Stepped):
        train(model, trainee, pretrained, data, DistillPlan(0.5, 0.3, 0.2, total_epochs=2))
    layer_nodes = spec.depth + (spec.depth - 1)
    assert len(built) == layer_nodes + 5 + 1
