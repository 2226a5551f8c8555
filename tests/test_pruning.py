"""Magnitude-dropout planner: rate updates, masking, and the retrain loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.datasets import make_synthetic
from edgeslim.engine.model import (
    MaskedModel,
    connection_count,
    copy_model,
    init_model,
    model_bytes,
)
from edgeslim.engine.training import evaluate_loss, train_classifier
from edgeslim import pruning
from edgeslim.pruning import DropoutState, apply_dropout, update_rate


def state(d=0.5, q_a=1000, q_b=1000, iteration=0, max_iteration=20, c=1.0):
    return DropoutState(d, q_a, q_b, iteration, max_iteration, c)


def test_update_rate_fixtures():
    # no survivors lost, first iteration: rate unchanged
    assert update_rate(state(0.5, 1000, 1000, 0)) == pytest.approx(0.5)
    # deep prune with exhausted iteration budget: sqrt factor wins
    assert update_rate(state(0.5, 1000, 250, iteration=20)) == pytest.approx(0.25)
    # decay floor dominates a mild survivor drop
    assert update_rate(state(0.8, 1000, 640, iteration=2, c=1.0)) == pytest.approx(
        0.8 * 0.9
    )


@settings(max_examples=200, deadline=None)
@given(
    d=st.floats(min_value=1e-6, max_value=1.0),
    q_a=st.integers(min_value=1, max_value=10_000),
    q_b=st.integers(min_value=0, max_value=10_000),
    iteration=st.integers(min_value=0, max_value=30),
)
def test_update_rate_closed_form(d, q_a, q_b, iteration):
    q_b = min(q_b, q_a)
    s = state(d, q_a, q_b, iteration, max_iteration=30, c=1.5)
    expected = d * max(np.sqrt(q_b / q_a), 1.0 - iteration / (1.5 * 30))
    expected = min(max(expected, pruning.MIN_RATE), 1.0)
    assert update_rate(s) == pytest.approx(expected, rel=1e-12)
    assert 0.0 < update_rate(s) <= 1.0


def test_state_validation():
    with pytest.raises(ValueError):
        state(d=0.0)
    with pytest.raises(ValueError):
        state(d=1.5)
    with pytest.raises(ValueError):
        state(c=0.0)
    with pytest.raises(ValueError):
        state(c=float("nan"))
    with pytest.raises(ValueError):
        update_rate(state(q_a=0, q_b=0))


def build_model():
    spec = check_valid(
        NetworkSpec(
            "p",
            [
                LayerSpec(LayerKind.FC, I=8, O=16),
                LayerSpec(LayerKind.FC, I=16, O=10),
                LayerSpec(LayerKind.FC, I=10, O=3),
            ],
            class_count=3,
            shared_prefix=1,
        )
    )
    return init_model(spec, seed=1)


def test_apply_dropout_counts_and_magnitudes():
    model = build_model()
    before = connection_count(model)
    pruned = apply_dropout(model, 0.25, target_layers=[1, 2])
    # untouched input model
    assert connection_count(model) == before
    assert model_bytes(model) != model_bytes(pruned)
    # per-layer floor(rate * alive) entries dropped
    alive1 = 16 * 10
    alive2 = 10 * 3
    expect_drop = int(0.25 * alive1) + int(0.25 * alive2)
    assert connection_count(pruned) == before - expect_drop
    # layer 0 untouched
    np.testing.assert_array_equal(pruned.layers[0].masks["W"], 1.0)
    # survivors dominate the dropped magnitudes within each layer
    for idx in (1, 2):
        w = np.abs(model.layers[idx].params["W"])
        mask = pruned.layers[idx].masks["W"]
        assert w[mask == 0].max() <= w[mask == 1].min() + 1e-12
        # no splicing: dropped weights are zeroed too
        assert (pruned.layers[idx].params["W"][mask == 0] == 0).all()


def assert_masked_weights_zero(model):
    for lp in model.layers:
        for name, mask in lp.masks.items():
            assert not lp.params[name][mask == 0].any(), name


@settings(max_examples=30, deadline=None)
@given(
    rates=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    layers=st.sets(st.integers(min_value=0, max_value=2), min_size=1),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_apply_dropout_keeps_masked_weights_zero(rates, layers, seed):
    model = init_model(build_model().spec, seed=seed)
    for rate in rates:  # each round prunes the previous round's output
        pruned = apply_dropout(model, rate, sorted(layers))
        assert_masked_weights_zero(pruned)
        for lp in pruned.layers:  # every parameter views the new model's buffer
            assert all(arr.base is pruned.flat for arr in lp.params.values())
        assert not np.shares_memory(pruned.flat, model.flat)
        model = pruned


def test_apply_dropout_masked_stay_masked():
    model = build_model()
    once = apply_dropout(model, 0.5, [1])
    twice = apply_dropout(once, 0.5, [1])
    m1 = once.layers[1].masks["W"]
    m2 = twice.layers[1].masks["W"]
    assert ((m1 == 0) <= (m2 == 0)).all()  # masked set only grows
    alive = int(m1.sum())
    assert int(m2.sum()) == alive - int(0.5 * alive)


def test_apply_dropout_tie_break_is_stable():
    model = build_model()
    model.layers[1].params["W"][...] = 1.0  # all magnitudes equal
    model.layers[1].params["b"][...] = 0.0
    pruned = apply_dropout(model, 0.5, [1])
    mask = pruned.layers[1].masks["W"]
    flat = mask.reshape(-1)
    dropped = int((flat == 0).sum())
    # ties resolve in flat order: the first `dropped` entries go
    np.testing.assert_array_equal(flat[:dropped], 0.0)
    np.testing.assert_array_equal(flat[dropped:], 1.0)


def tuple_rule_dropout(model, rate, target_layers):
    """The selection rule spelled out: one (|w|, parameter order, flat index)
    tuple per surviving weight of a layer, sorted, and the first
    floor(rate * alive) masked."""
    out = copy_model(model)
    for idx in target_layers:
        lp = out.layers[idx]
        entries = []
        for order, name in enumerate(sorted(lp.masks)):
            w = lp.params[name].ravel()
            for flat in np.flatnonzero(lp.masks[name].ravel() > 0):
                entries.append((abs(float(w[flat])), order, int(flat), name))
        entries.sort(key=lambda e: e[:3])
        for _, _, flat, name in entries[: int(np.floor(rate * len(entries)))]:
            lp.masks[name].ravel()[flat] = 0.0
            lp.params[name].ravel()[flat] = 0.0
    return out


TIE_SPECS = [
    NetworkSpec("lstm", [LayerSpec(LayerKind.LSTM, I=3, O=4, s=2),
                         LayerSpec(LayerKind.FC, I=4, O=3)], class_count=3),
    NetworkSpec("factorized", [LayerSpec(LayerKind.FC, I=6, O=8),
                               LayerSpec(LayerKind.FACTORIZED_FC, I=8, O=5, R=3),
                               LayerSpec(LayerKind.FC, I=5, O=3)], class_count=3),
]


@pytest.mark.parametrize("spec", TIE_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("seed", range(6))
def test_apply_dropout_masks_the_weights_the_tuple_rule_picks(spec, seed):
    """Bit for bit the masks and weights of sorting one tuple per weight,
    with ties across gates and factors (every magnitude one of three
    values, signs mixed) and with entries masked by an earlier round."""
    model = init_model(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for lp in model.layers:
        for name in lp.masks:
            w = lp.params[name]
            w[...] = rng.choice([-0.5, -0.25, 0.25, 0.5, 0.75], size=w.shape)
    layers = list(range(len(spec.layers)))
    model = apply_dropout(model, 0.3, layers)  # some entries already masked
    for rate in (0.0, 0.2, 0.5, 1.0):
        got, want = apply_dropout(model, rate, layers), tuple_rule_dropout(model, rate, layers)
        assert model_bytes(got) == model_bytes(want), rate


def make_trained(seed=3):
    model = build_model()
    data = make_synthetic(k=3, p=8, n=200, seed=seed, separation=3.0)
    train_classifier(model, data, epochs=10, eta=0.1, seed=seed)
    return model, data, evaluate_loss(model, data)


def test_run_prunes_and_respects_reference():
    model, data, reference = make_trained()
    result = pruning.run(
        model, data, eta=0.05, reference_loss=reference * 1.05, seed=0,
        max_iteration=6,
    )
    assert len(result.rounds) >= 1  # do-while executes at least once
    counts = [r.q_b for r in result.rounds]
    assert counts == sorted(counts, reverse=True)
    assert result.surviving == connection_count(result.model)
    assert result.surviving < connection_count(model)
    # every accepted round stayed within the reference loss
    for row in result.rounds:
        if row.accepted:
            assert row.loss <= reference * 1.05 + 1e-12
    # shared layer is never touched
    np.testing.assert_array_equal(result.model.layers[0].masks["W"], 1.0)


def test_run_first_round_kept_on_immediate_reject():
    model, data, reference = make_trained()
    # an impossible target: every round rejects, but round 1's model is kept
    result = pruning.run(
        model, data, eta=0.05, reference_loss=1e-9, seed=0, max_iteration=6
    )
    assert len(result.rounds) == 1
    assert not result.rounds[0].accepted
    assert result.surviving < connection_count(model)  # still pruned once


def test_run_input_rate_hits_first_target_harder():
    model, data, reference = make_trained()
    result = pruning.run(
        model, data, eta=0.05, reference_loss=reference * 10, seed=0,
        max_iteration=1, initial_rate=0.5, input_rate=0.8,
    )
    drop1 = 1.0 - result.model.layers[1].masks["W"].mean()
    drop2 = 1.0 - result.model.layers[2].masks["W"].mean()
    # first targeted layer prunes at 0.8 scale, later ones at 0.5
    assert drop1 > drop2
    assert drop1 == pytest.approx(0.8, abs=0.02)
    assert drop2 == pytest.approx(0.5, abs=0.02)


def test_run_is_deterministic():
    model, data, reference = make_trained()
    a = pruning.run(model, data, eta=0.05, reference_loss=reference * 1.1, seed=5, max_iteration=4)
    b = pruning.run(model, data, eta=0.05, reference_loss=reference * 1.1, seed=5, max_iteration=4)
    assert model_bytes(a.model) == model_bytes(b.model)
    assert [r.to_dict() for r in a.rounds] == [r.to_dict() for r in b.rounds]


def test_run_requires_targets():
    model, data, reference = make_trained()
    # every layer shared leaves nothing to prune
    shared = replace(model.spec, shared_prefix=model.spec.depth)
    model = MaskedModel(spec=shared, layers=model.layers, dtype=model.dtype)
    with pytest.raises(ValueError, match="no target layers"):
        pruning.run(model, data, eta=0.05, reference_loss=reference)
