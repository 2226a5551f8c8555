"""Weight factorization and gate reduction, oracled against direct SVD."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim import compressor
from edgeslim.compressor import (
    choose_rank,
    effective_bias,
    effective_matrix,
    factorization_threshold,
    factorize_layer_params,
    minimum_flops,
    reduce_gates,
    reduce_layer_params,
    truncation_errors,
)
from edgeslim.engine.layers import param_layout
from edgeslim.engine.model import (
    MaskedModel,
    connection_count,
    copy_model,
    forward,
    init_model,
    model_bytes,
)
from edgeslim.pruning import apply_dropout
from edgeslim.resources import DeviceProfile, estimate_layer, estimate_network


def test_threshold_fixtures():
    assert factorization_threshold(100, 100) == 49
    assert factorization_threshold(1, 1) == 0
    assert factorization_threshold(100, 50) == 33
    assert factorization_threshold(4, 4) == 1
    with pytest.raises(ValueError):
        factorization_threshold(0, 5)


def test_threshold_is_strict_param_break_even():
    # R at the threshold still wins; R+1 ties or loses on parameter count
    for I, O in [(100, 100), (100, 50), (4, 4), (7, 13), (3, 8)]:
        r = factorization_threshold(I, O)
        if r == 0:
            assert (I + O) * 1 >= I * O
            continue
        assert (I + O) * r < I * O
        assert (I + O) * (r + 1) >= I * O


def rank_k_matrix(rng, rows, cols, k):
    return (rng.normal(size=(rows, k)) @ rng.normal(size=(k, cols))).astype(np.float64)


def test_truncation_errors_against_direct_svd():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(12, 9))
    errors = truncation_errors(w)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    for r in range(1, len(s) + 1):
        approx = (u[:, :r] * s[:r]) @ vt[:r]
        direct = np.linalg.norm(w - approx)
        np.testing.assert_allclose(errors[r - 1], direct, rtol=1e-10, atol=1e-12)
    assert (np.diff(errors) <= 1e-12).all()  # non-increasing in R
    assert errors[-1] == pytest.approx(0.0, abs=1e-9)


def test_choose_rank_fixtures():
    rng = np.random.default_rng(3)
    zero = np.zeros((20, 20))
    assert choose_rank(zero, r_start=9).R == 1
    two = rank_k_matrix(rng, 30, 30, 2)
    assert choose_rank(two, r_start=10).R == 2
    # a size penalty trades error for rank
    full = rng.normal(size=(30, 30))
    free = choose_rank(full, r_start=10, size_penalty=0.0).R
    taxed = choose_rank(full, r_start=10, size_penalty=10.0).R
    assert taxed <= free
    assert free == 10  # unpenalised scan takes the largest allowed rank


def test_choose_rank_validation():
    w = np.zeros((4, 4))
    with pytest.raises(ValueError):
        choose_rank(w, r_start=0)
    with pytest.raises(ValueError):
        choose_rank(w, r_start=2)  # threshold for 4x4 is 1
    with pytest.raises(ValueError):
        choose_rank(np.zeros(4), r_start=1)


def test_factorize_fc_params():
    rng = np.random.default_rng(11)
    layer = LayerSpec(LayerKind.FC, I=15, O=10)
    model = init_model(
        check_valid(NetworkSpec("f", [layer], class_count=10, shared_prefix=0)),
        seed=2,
    )
    lp = model.layers[0]
    dropped = rng.random(lp.masks["W"].shape) < 0.3
    lp.masks["W"][dropped] = 0.0
    lp.params["W"][dropped] = 0.0  # masked weights are zero
    r = 4
    new_layer, new_lp = factorize_layer_params(
        layer, effective_matrix(layer, lp), lp.params["b"], r, dtype=np.float32
    )
    assert new_layer.kind == LayerKind.FACTORIZED_FC
    assert (new_layer.I, new_layer.O, new_layer.R) == (15, 10, 4)
    assert new_lp.params["W1"].shape == (15, 4)
    assert new_lp.params["W2"].shape == (4, 10)
    np.testing.assert_array_equal(new_lp.params["b1"], 0.0)
    np.testing.assert_allclose(new_lp.params["b2"], lp.params["b"], rtol=1e-7)
    np.testing.assert_array_equal(new_lp.masks["W1"], 1.0)
    np.testing.assert_array_equal(new_lp.masks["W2"], 1.0)
    # the product is the best rank-r approximation of the masked weight
    masked = (lp.params["W"] * lp.masks["W"]).astype(np.float64)
    u, s, vt = np.linalg.svd(masked, full_matrices=False)
    best = (u[:, :r] * s[:r]) @ vt[:r]
    product = new_lp.params["W1"].astype(np.float64) @ new_lp.params["W2"].astype(
        np.float64
    )
    np.testing.assert_allclose(product, best, atol=1e-5)


def test_factorize_conv_params_preserves_map():
    layer = LayerSpec(LayerKind.CONV, I=3, O=8, f=3, g=3, h=10, w=10)
    model = init_model(
        check_valid(
            NetworkSpec(
                "c",
                [layer, LayerSpec(LayerKind.FC, I=800, O=8)],
                class_count=8,
                shared_prefix=0,
            )
        ),
        seed=4,
    )
    lp = model.layers[0]
    r = 5
    new_layer, new_lp = factorize_layer_params(
        layer, effective_matrix(layer, lp), lp.params["b"], r, dtype=np.float32
    )
    assert new_layer.kind == LayerKind.FACTORIZED_CONV
    assert new_lp.params["W1"].shape == (5, 3, 3, 3)
    assert new_lp.params["W2"].shape == (5, 8)
    # flattening the two stages reproduces the rank-r kernel matrix
    flat = new_lp.params["W1"].reshape(5, -1).astype(np.float64)
    product = flat.T @ new_lp.params["W2"].astype(np.float64)  # (I*f*g, O)
    kernel = lp.params["W"].astype(np.float64).transpose(1, 2, 3, 0).reshape(-1, 8)
    u, s, vt = np.linalg.svd(kernel, full_matrices=False)
    best = (u[:, :r] * s[:r]) @ vt[:r]
    np.testing.assert_allclose(product, best, atol=1e-5)


def test_factorized_costs_strictly_below_original_at_legal_rank():
    layer = LayerSpec(LayerKind.FC, I=100, O=50)
    base = estimate_layer(layer)
    for r in (1, 20, 33):
        cand = LayerSpec(LayerKind.FACTORIZED_FC, I=100, O=50, R=r)
        cost = estimate_layer(cand)
        assert cost.params < base.params
        assert cost.flops < base.flops


def test_reduce_gates_mappings():
    lstm = LayerSpec(LayerKind.LSTM, I=10, O=20, s=5)
    coupled = reduce_gates(lstm)
    assert coupled.kind == LayerKind.COUPLED_LSTM
    assert (coupled.I, coupled.O, coupled.s) == (10, 20, 5)
    gru = LayerSpec(LayerKind.GRU, I=10, O=20, s=5)
    mgu = reduce_gates(gru)
    assert mgu.kind == LayerKind.MGU
    # cost ratios are exact gate-count ratios
    assert estimate_layer(coupled).params * 4 == estimate_layer(lstm).params * 3
    assert estimate_layer(mgu).params * 3 == estimate_layer(gru).params * 2
    with pytest.raises(ValueError):
        reduce_gates(LayerSpec(LayerKind.FC, I=4, O=4))


def test_reduce_layer_params_carries_weights_and_masks():
    rng = np.random.default_rng(9)
    gru = LayerSpec(LayerKind.GRU, I=6, O=7, s=4)
    model = init_model(
        check_valid(NetworkSpec("g", [gru], class_count=7, shared_prefix=0)), seed=8
    )
    lp = model.layers[0]
    for name in lp.masks:
        dropped = rng.random(lp.masks[name].shape) < 0.4
        lp.masks[name][dropped] = 0.0
        lp.params[name][dropped] = 0.0  # masked weights are zero
    new_layer, new_lp = reduce_layer_params(gru, lp, dtype=np.float32)
    assert new_layer.kind == LayerKind.MGU
    # forget gate inherits the update gate, candidate keeps its own weights
    np.testing.assert_array_equal(new_lp.params["Wf"], lp.params["Wz"])
    np.testing.assert_array_equal(new_lp.params["Wh"], lp.params["Wh"])
    np.testing.assert_array_equal(new_lp.masks["Wf"], lp.masks["Wz"])
    np.testing.assert_array_equal(new_lp.masks["Wh"], lp.masks["Wh"])
    np.testing.assert_array_equal(new_lp.params["bf"], lp.params["bz"])
    np.testing.assert_array_equal(new_lp.params["bh"], lp.params["bh"])
    # copies, not views
    new_lp.params["Wf"][...] = 0.0
    assert lp.params["Wz"].any()

    lstm = LayerSpec(LayerKind.LSTM, I=5, O=6, s=3)
    lmodel = init_model(
        check_valid(NetworkSpec("l", [lstm], class_count=6, shared_prefix=0)), seed=8
    )
    llp = lmodel.layers[0]
    cl_layer, cl_lp = reduce_layer_params(lstm, llp, dtype=np.float32)
    assert cl_layer.kind == LayerKind.COUPLED_LSTM
    for gate in ("f", "o", "g"):
        np.testing.assert_array_equal(cl_lp.params[f"W{gate}"], llp.params[f"W{gate}"])
    assert "Wi" not in cl_lp.params  # input gate is the one removed


def wide_model(shared_prefix=1):
    spec = check_valid(
        NetworkSpec(
            "w",
            [
                LayerSpec(LayerKind.FC, I=30, O=40),
                LayerSpec(LayerKind.FC, I=40, O=40),
                LayerSpec(LayerKind.GRU, I=40, O=20, s=1),
                LayerSpec(LayerKind.FC, I=20, O=4),
            ],
            class_count=4,
            shared_prefix=shared_prefix,
        )
    )
    return init_model(spec, seed=6)


def device_for(flops, ratio=1.0):
    # budgets sized as a fraction of the given FLOP totals; b_e=4, e_m=1e-9
    return DeviceProfile(
        name="bench",
        bytes_per_flop=4.0,
        seconds_per_flop=1e-9,
        flops_per_second=1e9,
        beta=flops * ratio * 1e-9,
        alpha=flops * ratio * 4.0,
    )


def test_run_already_feasible_is_untouched():
    model = wide_model()
    base = estimate_network(model.spec, device_for(10**9), omega=0.5)
    assert base.feasible
    outcome = compressor.run(model, device_for(10**9), omega=0.5)
    assert outcome.feasible
    assert outcome.model is model
    assert outcome.records == []
    assert model_bytes(outcome.model) == model_bytes(model)


def test_run_reaches_a_mid_budget():
    model = wide_model()
    full = estimate_network(model.spec, device_for(1), omega=0.5).total_flops
    floor = minimum_flops(model.spec)
    assert floor < full
    target = (floor + full) // 2
    outcome = compressor.run(model, device_for(target), omega=0.5)
    assert outcome.feasible
    assert outcome.report.t_mem <= device_for(target).alpha + 1e-9
    assert outcome.report.t_exec <= device_for(target).beta + 1e-12
    assert not outcome.before.feasible
    # every recorded rewrite strictly shrank both costs
    for rec in outcome.records:
        d = rec.to_dict()
        assert d["params_after"] < d["params_before"]
        assert d["flops_after"] < d["flops_before"]
    # the shared layer survives untouched
    assert outcome.model.spec.layers[0] == model.spec.layers[0]


def test_run_floor_budget_is_reachable():
    model = wide_model()
    floor = minimum_flops(model.spec)
    outcome = compressor.run(model, device_for(floor), omega=0.5)
    assert outcome.feasible
    assert outcome.report.total_flops <= floor


def test_run_below_floor_reports_infeasible_with_closest_model():
    model = wide_model()
    floor = minimum_flops(model.spec)
    outcome = compressor.run(model, device_for(floor - 1), omega=0.5)
    assert not outcome.feasible
    # the reported model is the floor configuration, not the original
    assert outcome.report.total_flops < outcome.before.total_flops
    assert outcome.report.total_flops <= floor
    assert connection_count(outcome.model) < connection_count(model)


def test_run_is_deterministic():
    model = wide_model()
    floor = minimum_flops(model.spec)
    target = floor + (estimate_network(model.spec, device_for(1), 0.5).total_flops - floor) // 3
    a = compressor.run(copy_model(model), device_for(target), omega=0.5)
    b = compressor.run(copy_model(model), device_for(target), omega=0.5)
    assert model_bytes(a.model) == model_bytes(b.model)
    assert a.log_dict() == b.log_dict()


def test_minimum_flops_floor_formula_small_case():
    spec = check_valid(
        NetworkSpec(
            "m",
            [LayerSpec(LayerKind.FC, I=100, O=50)],
            class_count=50,
            shared_prefix=0,
        )
    )
    # single fc at R=1: F = (2I-1+O)R + O reduces to the factorized fixture
    assert minimum_flops(spec) == estimate_layer(
        LayerSpec(LayerKind.FACTORIZED_FC, I=100, O=50, R=1)
    ).flops


@settings(max_examples=60, deadline=None)
@given(
    I=st.integers(min_value=3, max_value=60),
    O=st.integers(min_value=3, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_truncation_errors_monotone_property(I, O, seed):
    w = np.random.default_rng(seed).normal(size=(I, O))
    errors = truncation_errors(w)
    assert (np.diff(errors) <= 1e-9).all()
    assert errors.min() >= -1e-12


def test_tightened_ranks_are_direct_factorizations_of_the_original():
    model = wide_model()
    floor = minimum_flops(model.spec)
    outcome = compressor.run(copy_model(model), device_for(floor), omega=0.5)
    lowered = 0
    for idx, layer in enumerate(outcome.model.spec.layers):
        if layer.kind != LayerKind.FACTORIZED_FC:
            continue
        original, lp = model.spec.layers[idx], model.layers[idx]
        matrix = effective_matrix(original, lp)
        r_max = factorization_threshold(original.I, original.O)
        lowered += layer.R < choose_rank(matrix, r_max).R
        _, direct = factorize_layer_params(original, matrix, lp.params["b"], layer.R, model.dtype)
        for group in ("params", "masks"):
            got, want = getattr(outcome.model.layers[idx], group), getattr(direct, group)
            assert got.keys() == want.keys()
            for name in want:
                assert np.array_equal(got[name], want[name]), (idx, group, name)
    assert lowered >= 1  # the tightening pass did lower a rank


@pytest.mark.parametrize("layer", [
    LayerSpec(LayerKind.FACTORIZED_FC, I=7, O=5, R=3),
    LayerSpec(LayerKind.FACTORIZED_CONV, I=2, O=3, f=2, g=2, h=2, w=2, R=2),
], ids=["factorized_fc", "factorized_conv"])
def test_resplit_of_a_factorized_layer_keeps_its_map(layer):
    # x·W1·W2 + (b1·W2 + b2) is exact: no nonlinearity sits between factors
    spec = check_valid(NetworkSpec("f", [layer], class_count=layer.output_width, shared_prefix=0))
    model = init_model(spec, seed=5, dtype=np.float64)
    rng = np.random.default_rng(5)
    for name in ("b1", "b2"):
        model.layers[0].params[name][...] = rng.normal(size=model.layers[0].params[name].shape)
    lp = model.layers[0]
    new_layer, new_lp = factorize_layer_params(
        layer, effective_matrix(layer, lp), effective_bias(layer, lp), layer.R, np.float64
    )
    assert new_layer == layer
    x = rng.normal(size=(4, layer.input_width))
    resplit = MaskedModel(spec, [new_lp], np.float64)
    np.testing.assert_allclose(
        forward(resplit, x, trainable=False).logits.data,
        forward(model, x, trainable=False).logits.data,
        atol=1e-12,
    )


def prefactorized_spec(R):
    return check_valid(
        NetworkSpec(
            "p",
            [
                LayerSpec(LayerKind.FC, I=16, O=48),
                LayerSpec(LayerKind.FACTORIZED_FC, I=48, O=32, R=R),
                LayerSpec(LayerKind.FC, I=32, O=4),
            ],
            class_count=4,
            shared_prefix=1,
        )
    )


def test_run_reaches_the_floor_through_an_already_factorized_layer():
    spec = prefactorized_spec(R=12)
    floor = minimum_flops(spec)
    assert floor == 1682
    model = init_model(spec, seed=0)
    outcome = compressor.run(copy_model(model), device_for(floor), omega=0.5)
    assert outcome.feasible
    assert outcome.report.total_flops == floor
    assert [layer.R for layer in outcome.model.spec.layers[1:]] == [1, 1]
    # the factorized layer is re-split from its own product and recorded once
    first = outcome.records[0]
    assert (first.layer_index, first.R) == (1, 1)
    assert (first.params_before, first.flops_before) == tuple(estimate_layer(spec.layers[1]))
    matrix = effective_matrix(spec.layers[1], model.layers[1])
    assert first.reconstruction_error == float(truncation_errors(matrix)[0])


def test_run_lowers_a_declared_rank_past_min_i_o_to_a_splittable_one():
    # the (48, 32) product of R=40 factors has 32 directions to keep at most
    spec = prefactorized_spec(R=40)
    budget = sum(
        estimate_layer(layer).flops
        for layer in (
            spec.layers[0],
            replace(spec.layers[1], R=35),
            LayerSpec(LayerKind.FACTORIZED_FC, I=32, O=4, R=3),
        )
    )
    outcome = compressor.run(init_model(spec, seed=0), device_for(budget), omega=0.5)
    assert outcome.feasible
    layer, lp = outcome.model.spec.layers[1], outcome.model.layers[1]
    assert layer.R == 32
    assert lp.params["W1"].shape == (48, 32) and lp.params["W2"].shape == (32, 32)


def _chain(draw):
    """A small valid fc/conv/gru/factorized_fc stack and its shared prefix."""
    ints = lambda lo, hi: draw(st.integers(min_value=lo, max_value=hi))
    first = draw(st.sampled_from(["fc", "conv", "gru"]))
    if first == "conv":
        layer = LayerSpec(LayerKind.CONV, I=ints(1, 2), O=ints(1, 4), f=ints(1, 3),
                          g=ints(1, 3), h=ints(1, 3), w=ints(1, 3))
    elif first == "gru":
        layer = LayerSpec(LayerKind.GRU, I=ints(1, 6), O=ints(1, 12), s=ints(1, 3))
    else:
        layer = LayerSpec(LayerKind.FC, I=ints(1, 12), O=ints(1, 24))
    layers = [layer]
    for kind in draw(st.lists(st.sampled_from(["fc", "gru", "factorized_fc"]), max_size=3)):
        width = layers[-1].output_width
        if kind == "gru":
            s = draw(st.sampled_from([d for d in range(1, 4) if width % d == 0]))
            layers.append(LayerSpec(LayerKind.GRU, I=width // s, O=ints(1, 12), s=s))
        elif kind == "factorized_fc":  # R may pass min(I, O): a legal, wasteful declaration
            layers.append(LayerSpec(LayerKind.FACTORIZED_FC, I=width, O=ints(1, 24), R=ints(1, 12)))
        else:
            layers.append(LayerSpec(LayerKind.FC, I=width, O=ints(1, 24)))
    classes = ints(2, 5)
    layers.append(LayerSpec(LayerKind.FC, I=layers[-1].output_width, O=classes))
    prefix = ints(0, len(layers))
    return check_valid(NetworkSpec("h", layers, class_count=classes, shared_prefix=prefix))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), fraction=st.floats(min_value=0.0, max_value=1.0))
def test_run_keeps_shared_layers_and_interface_widths(data, fraction):
    spec = _chain(data.draw)
    model = init_model(spec, seed=data.draw(st.integers(0, 2**16)))
    # prune first, so the rewrites carry real masks
    rate = data.draw(st.floats(min_value=0.0, max_value=0.9))
    model = apply_dropout(model, rate, range(spec.depth))
    floor = minimum_flops(spec)
    full = estimate_network(spec, device_for(1), omega=0.5).total_flops
    outcome = compressor.run(
        copy_model(model), device_for(floor + fraction * (full - floor)), omega=0.5
    )
    assert outcome.feasible
    for rec in outcome.records:  # each rewrite strictly shrank both costs
        assert rec.params_after < rec.params_before and rec.flops_after < rec.flops_before
    out = outcome.model
    assert out.spec.depth == spec.depth
    for idx, (old, new) in enumerate(zip(spec.layers, out.spec.layers)):
        assert (new.input_width, new.output_width) == (old.input_width, old.output_width)
        if idx < spec.shared_prefix:
            assert new == old
            for name, arr in model.layers[idx].params.items():
                assert np.array_equal(out.layers[idx].params[name], arr)
            for name, arr in model.layers[idx].masks.items():
                assert np.array_equal(out.layers[idx].masks[name], arr)
    # every rewrite keeps masked weights at zero, and lands in one fresh buffer
    assert not np.shares_memory(out.flat, model.flat)
    for layer, lp in zip(out.spec.layers, out.layers):
        assert {d.name: d.shape for d in param_layout(layer)} == {
            name: arr.shape for name, arr in lp.params.items()
        }
        assert all(arr.base is out.flat for arr in lp.params.values())
        for name, mask in lp.masks.items():
            assert not lp.params[name][mask == 0].any(), name
