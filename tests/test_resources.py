"""Cost table, device profiles, and budget verdicts."""

import pytest

from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.resources import (
    DeviceProfile,
    device_from_dict,
    device_to_dict,
    estimate_layer,
    estimate_network,
    resolve_alpha,
)


def test_cost_fixtures():
    # dense
    assert estimate_layer(LayerSpec(LayerKind.FC, I=100, O=50)) == (5050, 9950)
    assert estimate_layer(LayerSpec(LayerKind.FC, I=1, O=1)) == (2, 1)
    # conv
    conv = LayerSpec(LayerKind.CONV, I=3, O=8, f=3, g=3, h=10, w=10)
    assert estimate_layer(conv) == (224, 21600)
    # recurrent family
    lstm = LayerSpec(LayerKind.LSTM, I=10, O=20, s=5)
    assert estimate_layer(lstm) == (2480, 24400)
    clstm = LayerSpec(LayerKind.COUPLED_LSTM, I=10, O=20, s=5)
    assert estimate_layer(clstm).params == 1860
    gru = LayerSpec(LayerKind.GRU, I=10, O=20, s=5)
    assert estimate_layer(gru).params == 1860
    mgu = LayerSpec(LayerKind.MGU, I=10, O=20, s=5)
    assert estimate_layer(mgu).params == 1240
    # factorized
    ffc = LayerSpec(LayerKind.FACTORIZED_FC, I=100, O=50, R=20)
    assert estimate_layer(ffc) == (2020, 4980)
    fconv = LayerSpec(LayerKind.FACTORIZED_CONV, I=3, O=8, f=3, g=3, h=10, w=10, R=2)
    assert estimate_layer(fconv).params == 3 * 9 * 2 + 2
    assert estimate_layer(fconv).flops == (9 * 100 + 1 + 8) * 2


def test_gate_count_drives_recurrent_cost():
    lstm = estimate_layer(LayerSpec(LayerKind.LSTM, I=10, O=20, s=5))
    clstm = estimate_layer(LayerSpec(LayerKind.COUPLED_LSTM, I=10, O=20, s=5))
    mgu = estimate_layer(LayerSpec(LayerKind.MGU, I=10, O=20, s=5))
    gru = estimate_layer(LayerSpec(LayerKind.GRU, I=10, O=20, s=5))
    assert clstm.params * 4 == lstm.params * 3
    assert mgu.params * 3 == gru.params * 2


def make_device(**kw):
    base = dict(
        name="dev",
        bytes_per_flop=4.0,
        seconds_per_flop=2e-9,
        flops_per_second=1e9,
        beta=1.0,
        alpha=1e6,
    )
    base.update(kw)
    return DeviceProfile(**base)


def test_device_validation():
    with pytest.raises(ValueError):
        make_device(beta=-1.0)
    with pytest.raises(ValueError):
        make_device(alpha=None)  # neither budget form
    with pytest.raises(ValueError):
        make_device(alpha_ratio=0.5)  # both forms
    with pytest.raises(ValueError):
        make_device(bytes_per_flop=float("inf"))


def test_resolve_alpha_ratio_form():
    device = make_device(alpha=None, alpha_ratio=0.65)
    resolved = resolve_alpha(device, reference_flops=1000)
    assert resolved.alpha == pytest.approx(0.65 * 4.0 * 1000)
    assert resolved.alpha_ratio is None
    # absolute form passes through untouched
    assert resolve_alpha(make_device(), 1000) == make_device()


def test_estimate_network_report():
    spec = check_valid(
        NetworkSpec(
            "toy",
            [LayerSpec(LayerKind.FC, I=100, O=50), LayerSpec(LayerKind.FC, I=50, O=2)],
            class_count=2,
        )
    )
    flops = 9950 + 99 * 2
    device = make_device(alpha=4.0 * flops, beta=2e-9 * flops)
    report = estimate_network(spec, device, omega=0.25)
    assert report.total_params == 5050 + 102
    assert report.total_flops == flops
    assert report.t_mem == pytest.approx(4.0 * flops)
    assert report.t_exec == pytest.approx(2e-9 * flops)
    assert report.fits_alpha and report.fits_beta and report.feasible
    assert report.objective == pytest.approx(0.25 * report.t_mem + 0.75 * report.t_exec)

    # one FLOP over either budget flips the verdict
    tight = make_device(alpha=4.0 * (flops - 1), beta=2e-9 * flops)
    assert not estimate_network(spec, tight, 0.25).fits_alpha
    slow = make_device(alpha=4.0 * flops, beta=2e-9 * (flops - 1))
    assert not estimate_network(spec, slow, 0.25).feasible

    with pytest.raises(ValueError):
        estimate_network(spec, device, omega=1.5)
    with pytest.raises(ValueError):
        estimate_network(spec, make_device(alpha=None, alpha_ratio=0.5), 0.5)


def test_report_dict_is_json_ready():
    spec = check_valid(
        NetworkSpec("toy", [LayerSpec(LayerKind.FC, I=4, O=2)], class_count=2)
    )
    report = estimate_network(spec, make_device(), 0.5)
    data = report.to_dict()
    assert data["total_params"] == 10
    assert data["feasible"] is True
    assert len(data["per_layer"]) == 1


def test_device_json_round_trip():
    device = make_device()
    data = device_to_dict(device)
    # wire keys are pinned
    assert set(data) == {
        "name",
        "b_e_bytes_per_flop",
        "e_m_seconds_per_flop",
        "flops_per_second",
        "beta_seconds",
        "alpha_bytes",
    }
    assert device_from_dict(data) == device
    ratio = make_device(alpha=None, alpha_ratio=0.65)
    rdata = device_to_dict(ratio)
    assert rdata["alpha_ratio"] == 0.65 and "alpha_bytes" not in rdata
    assert device_from_dict(rdata) == ratio
    with pytest.raises(ValueError):
        device_from_dict({**data, "bogus": 1})
    with pytest.raises(ValueError):
        device_from_dict({k: v for k, v in data.items() if k != "beta_seconds"})
