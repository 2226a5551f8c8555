"""Architecture declarations: dimensions, adjacency, and derivation."""

import dataclasses

import pytest

from edgeslim.archspec import (
    GATE_NAMES,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    check_valid,
    layer_from_dict,
    layer_to_dict,
    network_from_dict,
    network_to_dict,
    validate,
)


def fc(i, o):
    return LayerSpec(LayerKind.FC, I=i, O=o)


def test_gate_defaults_fill_in():
    lstm = LayerSpec(LayerKind.LSTM, I=4, O=6, s=3)
    assert lstm.gates == 4
    assert LayerSpec(LayerKind.GRU, I=4, O=6, s=3).gates == 3
    assert LayerSpec(LayerKind.COUPLED_LSTM, I=4, O=6, s=3).gates == 3
    assert LayerSpec(LayerKind.MGU, I=4, O=6, s=3).gates == 2
    assert GATE_NAMES[LayerKind.LSTM] == ("i", "f", "o", "g")
    assert fc(4, 2).gates is None


def test_widths():
    assert fc(8, 5).input_width == 8
    assert fc(8, 5).output_width == 5
    conv = LayerSpec(LayerKind.CONV, I=3, O=8, f=3, g=3, h=10, w=10)
    # valid input plane is (h+f-1, w+g-1) per channel
    assert conv.input_width == 3 * 12 * 12
    assert conv.output_width == 8 * 10 * 10
    rec = LayerSpec(LayerKind.LSTM, I=10, O=20, s=5)
    assert rec.input_width == 50
    assert rec.output_width == 20


def test_validate_accepts_mixed_stack():
    spec = NetworkSpec(
        "mixed",
        [
            LayerSpec(LayerKind.CONV, I=1, O=4, f=3, g=3, h=6, w=6),
            LayerSpec(LayerKind.GRU, I=48, O=16, s=3),
            fc(16, 4),
        ],
        class_count=4,
    )
    assert validate(spec) == []


def test_validate_flags_problems():
    # adjacency break
    bad = NetworkSpec("x", [fc(4, 5), fc(6, 2)], class_count=2)
    assert any("emits" in p for p in validate(bad))
    # final width must equal the class count
    bad = NetworkSpec("x", [fc(4, 5)], class_count=2)
    assert any("class" in p for p in validate(bad))
    # missing conv dims
    incomplete = NetworkSpec(
        "x", [LayerSpec(LayerKind.CONV, I=3, O=2)], class_count=2
    )
    assert any("f must be a positive integer" in p for p in validate(incomplete))
    # extraneous dims flagged
    assert any("does not apply" in p for p in validate(NetworkSpec("x", [LayerSpec(LayerKind.FC, I=4, O=2, f=3)], class_count=2)))


def test_check_valid_raises_with_all_problems():
    bad = NetworkSpec("x", [fc(4, 5), fc(6, 2)], class_count=3)
    with pytest.raises(ValueError) as err:
        check_valid(bad)
    assert "emits" in str(err.value) and "class" in str(err.value)


def test_shared_prefix_defaults_to_half():
    spec = NetworkSpec("x", [fc(4, 4)] * 4 + [fc(4, 2)], class_count=2)
    assert spec.shared_prefix == 2
    assert spec.depth == 5
    assert spec.non_shared_count == 3
    explicit = NetworkSpec("x", [fc(4, 2)], class_count=2, shared_prefix=0)
    assert explicit.shared_prefix == 0


def test_layer_dict_round_trip():
    layers = [
        fc(3, 4),
        LayerSpec(LayerKind.CONV, I=3, O=8, f=3, g=3, h=10, w=10),
        LayerSpec(LayerKind.FACTORIZED_CONV, I=3, O=8, f=3, g=3, h=10, w=10, R=2),
        LayerSpec(LayerKind.MGU, I=5, O=7, s=4),
        LayerSpec(LayerKind.FACTORIZED_FC, I=9, O=9, R=3),
    ]
    for layer in layers:
        assert layer_from_dict(layer_to_dict(layer)) == layer


def test_layer_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        layer_from_dict({"kind": "fc", "I": 3, "O": 4, "bogus": 1})
    with pytest.raises(ValueError):
        layer_from_dict({"kind": "fc", "I": 3.5, "O": 4})
    with pytest.raises(ValueError):
        layer_from_dict({"kind": "warp", "I": 3, "O": 4})


def test_network_dict_round_trip():
    spec = check_valid(
        NetworkSpec("rt", [fc(4, 6), fc(6, 2)], class_count=2, shared_prefix=1)
    )
    again = network_from_dict(network_to_dict(spec))
    assert again == spec
    with pytest.raises(ValueError):
        network_from_dict({**network_to_dict(spec), "extra": 1})


def test_layerspec_is_frozen():
    layer = fc(3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.I = 5
