"""End-to-end acceptance checks, one numbered test per claim.

Each test is self-contained: oracles are hand-coded here (not imported from
the package) so a bug in the library cannot hide behind itself.  Scenario
constants are frozen; every run replays the identical seeded computation.
"""

import json
import math
import time
from dataclasses import replace as dc_replace

import numpy as np
import pytest

import generic_ops as ops
from protocols import LemmaPoint, convexity_probe, leave_one_out, random_interior_points
from edgeslim import compressor, distill, pruning
from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.cli import main as cli_main
from edgeslim.datasets import Dataset, make_synthetic, train_test_split
from edgeslim.distill import (
    DEBudget,
    DistillPlan,
    optimize_lambdas,
    share_prefix_layers,
    train,
)
from edgeslim.engine.model import (
    copy_model,
    cross_entropy_node,
    forward,
    init_model,
    model_bytes,
)
from edgeslim.engine.training import (
    evaluate_loss,
    predict,
    train_classifier,
)
from edgeslim.metrics import confusion_counts, evaluate_predictions
from edgeslim.pipeline import PipelineSettings, prefix_sweep
from edgeslim.pipeline import run as pipeline_run
from edgeslim.resources import DeviceProfile, estimate_layer, estimate_network


# =========================================================================
# criterion 1: closed-form layer costs against an independent fixture table
# =========================================================================

# The oracle re-states every cost row from scratch in plain arithmetic.  Gate
# counts: LSTM 4, GRU 3, coupled LSTM 3, minimal gated cell 2.


def _cost_fc(I, O):
    return I * O + O, (2 * I - 1) * O


def _cost_conv(I, O, f, g, h, w):
    return I * (f * g) * O + O, (f * g) * (I * O) * (h * w)


def _cost_lstm(I, O, s, gates=4):
    return gates * O * (I + O + 1), (2 * gates * O * (I + O) + 4 * O) * s


def _cost_gru(I, O, s, gates=3):
    return gates * O * (I + O + 1), (2 * gates * O * (I + O) + 5 * O) * s


def _cost_ffc(I, O, R):
    return I * R + R, ((2 * I - 1) + O) * R


def _cost_fconv(I, O, f, g, h, w, R):
    return I * (f * g) * R + R, ((f * g) * (h * w) + 1 + O) * R


def test_criterion_1():
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    def dims():
        I, O = int(rng.integers(1, 65)), int(rng.integers(1, 65))
        f, g = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        h, w = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        s, R = int(rng.integers(1, 7)), int(rng.integers(1, 33))
        return I, O, f, g, h, w, s, R

    for _ in range(100):
        I, O, f, g, h, w, s, R = dims()
        cases = [
            (LayerSpec(LayerKind.FC, I=I, O=O), _cost_fc(I, O)),
            (LayerSpec(LayerKind.CONV, I=I, O=O, f=f, g=g, h=h, w=w),
             _cost_conv(I, O, f, g, h, w)),
            (LayerSpec(LayerKind.LSTM, I=I, O=O, s=s), _cost_lstm(I, O, s)),
            (LayerSpec(LayerKind.GRU, I=I, O=O, s=s), _cost_gru(I, O, s)),
            (LayerSpec(LayerKind.FACTORIZED_FC, I=I, O=O, R=R), _cost_ffc(I, O, R)),
            (LayerSpec(LayerKind.FACTORIZED_CONV, I=I, O=O, f=f, g=g, h=h, w=w, R=R),
             _cost_fconv(I, O, f, g, h, w, R)),
            (LayerSpec(LayerKind.COUPLED_LSTM, I=I, O=O, s=s),
             _cost_lstm(I, O, s, gates=3)),
            (LayerSpec(LayerKind.MGU, I=I, O=O, s=s), _cost_gru(I, O, s, gates=2)),
        ]
        for spec, (params, flops) in cases:
            cost = estimate_layer(spec)
            assert (cost.params, cost.flops) == (params, flops), spec
            assert isinstance(cost.params, int) and isinstance(cost.flops, int)
    assert time.perf_counter() - start < 1.0


# =========================================================================
# criterion 2: analytic gradients vs central finite differences, every loss
# =========================================================================

_FD_STEP = 1e-6
_FD_TOL = 1e-4
_GRAD_LAMBDAS = (0.5, 0.2, 0.3, 1.0)


def _grad_spec(rng):
    """A random tiny network: mostly dense, some conv or recurrent heads."""
    roll = rng.random()
    k = int(rng.integers(2, 4))
    if roll < 0.70:
        widths = [int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 3)))]
        p = int(rng.integers(3, 7))
        layers, last = [], p
        for w in widths:
            layers.append(LayerSpec(LayerKind.FC, I=last, O=w))
            last = w
        layers.append(LayerSpec(LayerKind.FC, I=last, O=k))
    elif roll < 0.85:
        conv = LayerSpec(LayerKind.CONV, I=int(rng.integers(1, 3)),
                         O=int(rng.integers(2, 4)), f=2, g=2, h=3, w=3)
        layers = [conv, LayerSpec(LayerKind.FC, I=conv.output_width, O=k)]
    else:
        kind = [LayerKind.LSTM, LayerKind.GRU, LayerKind.COUPLED_LSTM, LayerKind.MGU][
            int(rng.integers(0, 4))
        ]
        cell = LayerSpec(kind, I=int(rng.integers(2, 4)), O=int(rng.integers(2, 4)), s=2)
        layers = [cell, LayerSpec(LayerKind.FC, I=cell.O, O=k)]
    return check_valid(NetworkSpec("probe", layers, class_count=k, shared_prefix=0))


def _combined_value(student, trainee, teacher, x, y, dl_target):
    """Scalar loss exactly as one co-training step prices it.

    The distillation target is the trainee's detached logits.  The caller
    captures them once at the evaluation point so finite differences probe
    the same stop-gradient function the analytic pass differentiates.
    """
    l1, l2, l3, l4 = _GRAD_LAMBDAS
    s_trace = forward(student, x, trainable=True)
    te_trace = forward(trainee, x, trainable=True)
    g_trace = forward(teacher, x, trainable=False)
    ce_s, ce_te = cross_entropy_node(s_trace, y), cross_entropy_node(te_trace, y)
    loss = ops.add(ops.mul(ce_s, l1), ops.mul(ce_te, l4))
    loss = ops.add(loss, ops.mul(_attention(teacher, student, g_trace, s_trace), l2))
    dl = distill.distillation_loss_node(dl_target, s_trace.logits)
    return ops.add(loss, ops.mul(dl, l3))


def _attention(teacher, student, g_trace, s_trace):
    """The attention term of ``student``'s trace against ``teacher``'s maps."""
    layers = student.spec.layers
    t_unit, segments = ops.guide_targets(g_trace, teacher.spec.layers, layers)
    return ops.attention(t_unit, s_trace.activations[:-1], layers, segments)


def _single_value(kind, student, teacher, x, y):
    s_trace = forward(student, x, trainable=True)
    if kind == "ce":
        return cross_entropy_node(s_trace, y)
    if kind == "dl":
        g_trace = forward(teacher, x, trainable=False)
        return distill.distillation_loss_node(g_trace.logits.data, s_trace.logits)
    return _attention(teacher, student, forward(teacher, x, trainable=False), s_trace)


def _check_grads(models, loss_fn):
    """Backprop grads on every parameter vs central differences in place.

    The gradient buffers are zeroed first: a layer the loss never reaches
    (the logits layer under the attention term alone) writes nothing."""
    node = loss_fn()
    for model in models:
        model.grad[...] = 0.0
    node.backward()
    grads = [[{name: g.copy() for name, g in lp.grads.items()} for lp in m.layers] for m in models]
    worst = 0.0
    for model, model_grads in zip(models, grads):
        for lp, layer_grads in zip(model.layers, model_grads):
            for name, arr in lp.params.items():
                analytic = layer_grads[name]
                flat = arr.reshape(-1)
                aflat = analytic.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + _FD_STEP
                    up = float(loss_fn().data)
                    flat[i] = keep - _FD_STEP
                    down = float(loss_fn().data)
                    flat[i] = keep
                    numeric = (up - down) / (2 * _FD_STEP)
                    rel = abs(aflat[i] - numeric) / max(abs(aflat[i]) + abs(numeric), 1e-3)
                    worst = max(worst, rel)
    return worst


def _jitter(model, rng):
    """Move every parameter off its init point.

    Fresh biases are exactly zero, which parks dead rows precisely on the
    ReLU kink where central differences and the (correct) one-sided analytic
    gradient legitimately disagree.  A generic point avoids the kink.
    """
    for lp in model.layers:
        for arr in lp.params.values():
            arr += rng.normal(scale=0.1, size=arr.shape)


def test_criterion_2():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(100):
        spec = _grad_spec(rng)
        student = init_model(spec, seed=int(rng.integers(1 << 30)), dtype=np.float64)
        trainee = init_model(spec, seed=int(rng.integers(1 << 30)), dtype=np.float64)
        teacher = init_model(spec, seed=int(rng.integers(1 << 30)), dtype=np.float64)
        for model in (student, trainee, teacher):
            _jitter(model, rng)
        n = 4
        x = rng.normal(size=(n, spec.layers[0].input_width))
        y = rng.integers(1, spec.class_count + 1, size=n)

        for kind in ("ce", "al", "dl"):
            worst = max(
                worst,
                _check_grads([student], lambda k=kind: _single_value(k, student, teacher, x, y)),
            )
        dl_target = forward(trainee, x, trainable=False).logits.data.copy()
        worst = max(
            worst,
            _check_grads(
                [student, trainee],
                lambda: _combined_value(student, trainee, teacher, x, y, dl_target),
            ),
        )
    assert worst <= _FD_TOL, f"worst relative gradient error {worst:.3e}"
    assert time.perf_counter() - start < 120.0


# =========================================================================
# criterion 3: per-coordinate curvature of the probe losses
# =========================================================================

# The probe's CE and DL are the live loss nodes.  AL keeps the lemma's
# frozen normaliser C: the live attention node divides each row by its own
# norm, and that is not a quadratic in any one coordinate.


def _random_lemma_point(rng):
    n = int(rng.integers(1, 4))
    k = 3
    raw_maps = rng.normal(size=(n, k))
    raw_maps /= np.linalg.norm(raw_maps, axis=1, keepdims=True)
    lams = rng.dirichlet(np.ones(3)) * 0.98 + 0.02 / 3  # keep strictly interior
    return LemmaPoint(
        w=rng.normal(size=k) * 2.0,
        b=rng.normal(size=k),
        x=rng.normal(size=(n, k)),
        labels=rng.integers(1, k + 1, size=n),
        teacher_logits=rng.normal(size=(n, k)) * 2.0,
        teacher_maps=raw_maps,
        student_map_norm=float(np.abs(rng.normal()) + 0.5),
        lambdas=(float(lams[0]), float(lams[1]), float(lams[2]), 1.0),
        ce_trainee=float(np.abs(rng.normal())),
    )


def test_criterion_3():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_min = np.inf
    for _ in range(1000):
        point = _random_lemma_point(rng)
        combined = convexity_probe(point, "combined").min()
        worst_min = min(worst_min, combined)
        assert combined >= -1e-9

        dl = convexity_probe(point, "distillation")
        n = point.x.shape[0]
        expected = np.broadcast_to(2.0 * point.w**2 / n, dl.shape)
        np.testing.assert_allclose(dl, expected, atol=1e-8)
    assert worst_min >= -1e-9
    assert time.perf_counter() - start < 60.0


# =========================================================================
# criterion 4: dropout planner properties
# =========================================================================


def test_criterion_4():
    rng = np.random.default_rng(404)

    # Closed form for the re-tuned rate, restated independently.
    for _ in range(1000):
        state = pruning.DropoutState(
            d=float(rng.uniform(1e-6, 1.0)),
            q_a=int(rng.integers(1, 10**6)),
            q_b=int(rng.integers(0, 10**6)),
            iteration=int(rng.integers(0, 200)),
            max_iteration=int(rng.integers(1, 200)),
            c=float(rng.uniform(0.1, 5.0)),
        )
        state.q_b = min(state.q_b, state.q_a)
        expected = state.d * max(
            math.sqrt(state.q_b / state.q_a),
            1.0 - state.iteration / (state.c * state.max_iteration),
        )
        expected = min(max(expected, pruning.MIN_RATE), 1.0)
        assert abs(pruning.update_rate(state) - expected) <= 1e-12

    # Planner runs: counts never grow, and the loop body always runs once.
    spec = check_valid(
        NetworkSpec(
            "drop-probe",
            [
                LayerSpec(LayerKind.FC, I=6, O=14),
                LayerSpec(LayerKind.FC, I=14, O=10),
                LayerSpec(LayerKind.FC, I=10, O=3),
            ],
            class_count=3,
            shared_prefix=1,
        )
    )
    data = make_synthetic(k=3, p=6, n=150, seed=11, separation=2.5)
    for seed, scale in ((0, 4.0), (1, 2.0), (2, 1.1)):
        model = init_model(spec, seed=seed)
        train_classifier(model, data, epochs=2, eta=0.1, seed=seed)
        reference = evaluate_loss(model, data) * scale
        result = pruning.run(
            model, data, eta=0.05, reference_loss=reference, max_iteration=4, seed=seed
        )
        assert len(result.rounds) >= 1
        for rnd in result.rounds:
            assert rnd.q_b <= rnd.q_a
        for prev, cur in zip(result.rounds, result.rounds[1:]):
            assert cur.q_a == prev.q_b

    # An immediately-rejected round still counts as one executed round.
    model = init_model(spec, seed=3)
    rejected = pruning.run(
        model, data, eta=0.05, reference_loss=1e-6, max_iteration=4, seed=3
    )
    assert len(rejected.rounds) == 1
    assert not rejected.rounds[0].accepted


# =========================================================================
# criterion 5: factorization and gate-reduction arithmetic
# =========================================================================


def test_criterion_5():
    rng = np.random.default_rng(505)

    # Legal ranks strictly shrink both costs, for dense and conv layers.
    checked = 0
    while checked < 100:
        I, O = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        limit = compressor.factorization_threshold(I, O)
        if limit < 1:
            continue
        checked += 1
        f, g = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        dense = estimate_layer(LayerSpec(LayerKind.FC, I=I, O=O))
        conv = estimate_layer(LayerSpec(LayerKind.CONV, I=I, O=O, f=f, g=g, h=h, w=w))
        for R in {1, limit, int(rng.integers(1, limit + 1))}:
            fdense = estimate_layer(LayerSpec(LayerKind.FACTORIZED_FC, I=I, O=O, R=R))
            assert fdense.params < dense.params and fdense.flops < dense.flops
            fconv = estimate_layer(
                LayerSpec(LayerKind.FACTORIZED_CONV, I=I, O=O, f=f, g=g, h=h, w=w, R=R)
            )
            assert fconv.params < conv.params and fconv.flops < conv.flops

    # Truncated-SVD reconstruction error never grows with the rank.
    for _ in range(100):
        shape = (int(rng.integers(2, 20)), int(rng.integers(2, 20)))
        errors = compressor.truncation_errors(rng.normal(size=shape))
        assert errors.shape == (min(shape),)
        assert np.all(np.diff(errors) <= 1e-9)
        assert abs(errors[-1]) <= 1e-9

    # Gate reduction scales parameter counts by exact gate-count ratios.
    for _ in range(100):
        I, O, s = int(rng.integers(1, 40)), int(rng.integers(1, 40)), int(rng.integers(1, 6))
        lstm = LayerSpec(LayerKind.LSTM, I=I, O=O, s=s)
        gru = LayerSpec(LayerKind.GRU, I=I, O=O, s=s)
        clstm = compressor.reduce_gates(lstm)
        mgu = compressor.reduce_gates(gru)
        assert clstm.kind == LayerKind.COUPLED_LSTM
        assert mgu.kind == LayerKind.MGU
        # LSTM keeps 3 of 4 gate blocks, GRU keeps 2 of 3.
        assert estimate_layer(clstm).params * 4 == estimate_layer(lstm).params * 3
        assert estimate_layer(mgu).params * 3 == estimate_layer(gru).params * 2


# =========================================================================
# criterion 6: budget feasibility on constructed scenarios
# =========================================================================


def _random_teacher(rng, k=3):
    p = int(rng.integers(5, 9))
    widths = [int(rng.integers(10, 25)) for _ in range(int(rng.integers(2, 4)))]
    layers, last = [], p
    for wdt in widths:
        layers.append(LayerSpec(LayerKind.FC, I=last, O=wdt))
        last = wdt
    layers.append(LayerSpec(LayerKind.FC, I=last, O=k))
    return check_valid(NetworkSpec("rand-teacher", layers, class_count=k)), p


def test_criterion_6():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    settings = PipelineSettings(
        lambdas=(0.5, 0.3, 0.2),
        total_epochs=3,
        h_max=1,
        dropout_max_iteration=2,
        seed=0,
    )
    feasible_seen = infeasible_seen = 0
    for scenario in range(20):
        spec, p = _random_teacher(rng)
        data = make_synthetic(k=3, p=p, n=200, seed=scenario, separation=2.5)
        teacher = init_model(spec, seed=scenario)
        train_classifier(teacher, data, epochs=3, eta=0.1, seed=scenario)
        reference = evaluate_loss(teacher, data)

        floors = [
            compressor.minimum_flops(dc_replace(spec, shared_prefix=l))
            for l in prefix_sweep(spec.depth)
        ]
        reachable = min(floors)
        assert reachable > 0
        want_feasible = scenario % 2 == 0
        # Feasible runs get exactly the fully-reduced footprint; infeasible
        # runs get a budget below a single operation, which nothing meets.
        budget = float(reachable) if want_feasible else 0.5
        device = DeviceProfile(
            name=f"dev-{scenario}",
            bytes_per_flop=4.0,
            seconds_per_flop=1e-9,
            flops_per_second=1e9,
            beta=budget * 1e-9,
            alpha=budget * 4.0,
        )
        result = pipeline_run(teacher, reference, data, device, settings)
        if want_feasible:
            feasible_seen += 1
            assert result.best is not None, f"scenario {scenario} found no candidate"
            report = estimate_network(result.best.spec, device, settings.omega)
            assert report.t_mem <= device.alpha
            assert report.t_exec <= device.beta
        else:
            infeasible_seen += 1
            assert result.all_infeasible
            assert result.best is None
            assert all(not r.feasible for r in result.records)
    assert feasible_seen == 10 and infeasible_seen == 10
    assert time.perf_counter() - start < 300.0


# =========================================================================
# criteria 7 and 8: early halting saves work at matched accuracy
# =========================================================================

# The task is four spiral arms in the plane, lifted linearly into 16
# dimensions: hard enough from a cold start that inherited weights and
# teacher guidance matter, easy enough that guided runs converge.


def _spiral_dataset(n=2000, p=16, k=4, seed=29, turns=1.5, noise2=0.04, noise_hi=0.05):
    rng = np.random.default_rng(seed)
    per = n // k
    planar, labels = [], []
    for cls in range(k):
        t = rng.uniform(0.0, 1.0, per)
        angle = 2.0 * np.pi * turns * t + cls * (2.0 * np.pi / k)
        radius = 0.3 + 2.2 * t
        x = radius * np.cos(angle) + noise2 * rng.normal(size=per)
        y = radius * np.sin(angle) + noise2 * rng.normal(size=per)
        planar.append(np.column_stack([x, y]))
        labels.append(np.full(per, cls + 1, dtype=np.int64))
    base = np.concatenate(planar)
    labels = np.concatenate(labels)
    lift = rng.normal(size=(2, p)) / np.sqrt(2.0)
    feats = base @ lift + noise_hi * rng.normal(size=(base.shape[0], p))
    feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
    order = rng.permutation(base.shape[0])
    return Dataset(feats[order], labels[order], k)


_HALT_SPEC = check_valid(
    NetworkSpec(
        "halt-teacher",
        [
            LayerSpec(LayerKind.FC, I=16, O=48),
            LayerSpec(LayerKind.FC, I=48, O=32),
            LayerSpec(LayerKind.FC, I=32, O=16),
            LayerSpec(LayerKind.FC, I=16, O=4),
        ],
        class_count=4,
        shared_prefix=2,
    )
)
_HALT_EPOCHS = 30
_HALT_AT = 20


def _halting_plan(scheme, h_max=None):
    """The plateau window spans the run, so an S6 run halts at ``h_max``."""
    return DistillPlan(
        lambda1=0.5117, lambda2=0.3972, lambda3=0.0911,
        total_epochs=_HALT_EPOCHS, scheme=scheme,
        eta=0.03, batch_size=32, seed=3,
        h_max=h_max, plateau_window=_HALT_EPOCHS,
    )


@pytest.fixture(scope="module")
def halting_runs():
    """Teacher, its derived slim student, and the three training runs."""
    start = time.perf_counter()
    data = _spiral_dataset()
    teacher = init_model(_HALT_SPEC, seed=7)
    train_classifier(teacher, data, epochs=30, eta=0.1, seed=7)

    reference = evaluate_loss(teacher, data)
    dropped = pruning.run(
        copy_model(teacher), data, eta=0.05,
        reference_loss=reference * 1.02, max_iteration=5, seed=5,
    )
    floor = compressor.minimum_flops(dropped.model.spec)
    full = sum(estimate_layer(l).flops for l in dropped.model.spec.layers)
    budget = floor + int(0.2 * (full - floor))
    device = DeviceProfile(
        name="halt-dev", bytes_per_flop=4.0, seconds_per_flop=1e-9,
        flops_per_second=1e9, beta=budget * 1e-9, alpha=budget * 4.0,
    )
    slim = compressor.run(dropped.model, device, omega=0.5).model

    s6_student, s6_trainee = copy_model(slim), init_model(_HALT_SPEC, seed=12)
    share_prefix_layers(s6_student, s6_trainee, 2)
    r6 = train(s6_student, s6_trainee, teacher, data, _halting_plan("S6", h_max=_HALT_AT))

    s5_student, s5_trainee = copy_model(slim), init_model(_HALT_SPEC, seed=12)
    share_prefix_layers(s5_student, s5_trainee, 2)
    r5 = train(s5_student, s5_trainee, teacher, data, _halting_plan("S5"))

    r1 = train(init_model(slim.spec, seed=11), None, teacher, data, _halting_plan("S1"))
    return {"r6": r6, "r5": r5, "r1": r1, "elapsed": time.perf_counter() - start}


def test_criterion_7(halting_runs):
    r6, r5, r1 = halting_runs["r6"], halting_runs["r5"], halting_runs["r1"]
    a6 = 100.0 * r6.final_accuracy
    a5 = 100.0 * r5.final_accuracy
    a1 = 100.0 * r1.final_accuracy

    assert r6.halting_epoch == _HALT_AT
    assert r5.halting_epoch is None
    saved = 1.0 - r6.total_flops / r5.total_flops
    assert saved >= 0.10, f"halting saved only {100 * saved:.1f}% of training FLOPs"
    assert abs(a6 - a5) <= 1.5, f"S6 {a6:.2f} vs S5 {a5:.2f}"
    assert a6 - a1 >= 2.0, f"S6 {a6:.2f} vs S1 {a1:.2f}"
    assert halting_runs["elapsed"] < 600.0


def test_criterion_8(halting_runs):
    r6 = halting_runs["r6"]
    assert r6.trainee_bytes_at_halt is not None
    assert model_bytes(r6.trainee) == r6.trainee_bytes_at_halt
    # The non-halting sibling keeps training and records no checkpoint.
    assert halting_runs["r5"].trainee_bytes_at_halt is None


# =========================================================================
# criterion 9: loss-weight search against random sampling
# =========================================================================


def test_criterion_9():
    spec = check_valid(
        NetworkSpec(
            "lam-teacher",
            [
                LayerSpec(LayerKind.FC, I=6, O=12),
                LayerSpec(LayerKind.FC, I=12, O=8),
                LayerSpec(LayerKind.FC, I=8, O=3),
            ],
            class_count=3,
            shared_prefix=1,
        )
    )
    data = make_synthetic(k=3, p=6, n=240, seed=17, separation=1.8)
    teacher = init_model(spec, seed=1)
    train_classifier(teacher, data, epochs=6, eta=0.1, seed=1)
    base_student = init_model(spec, seed=2)
    base_trainee = init_model(spec, seed=3)

    def score(lams):
        student, trainee = copy_model(base_student), copy_model(base_trainee)
        share_prefix_layers(student, trainee, 1)
        plan = DistillPlan(
            *lams, total_epochs=2, scheme="S6",
            eta=0.05, batch_size=32, seed=5, h_max=1,
        )
        return train(student, trainee, teacher, data, plan).final_accuracy

    budget = DEBudget(population=50, generations=2, seed=23)
    solution = optimize_lambdas(score, budget)

    l1, l2, l3 = solution.lambdas
    assert abs(l1 + l2 + l3 - 1.0) <= 1e-9
    assert 0.0 < l1 < 1.0 and 0.0 < l2 < 1.0 and 0.0 < l3 < 1.0
    assert solution.evaluations == 50 * (2 + 1)

    baseline = max(score(p) for p in random_interior_points(23, 50))
    assert solution.fitness >= baseline


# =========================================================================
# criterion 10: metrics against brute-force recounts; unseen-class cost
# =========================================================================


def _brute_metrics(labels, predictions, k):
    """Per-class one-vs-rest tallies in plain Python, then the three means."""
    accs, f1s, precs = [], [], []
    for cls in range(1, k + 1):
        tp = tn = fp = fn = 0
        for lab, pred in zip(labels.tolist(), predictions.tolist()):
            hit, called = lab == cls, pred == cls
            if hit and called:
                tp += 1
            elif hit:
                fn += 1
            elif called:
                fp += 1
            else:
                tn += 1
        accs.append((tp + tn) / (tp + tn + fp + fn))
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
        precs.append(tp / (tp + fp) if (tp + fp) else 0.0)
    dims = float(k)
    return sum(accs) / dims, sum(f1s) / dims, sum(precs) / dims


def test_criterion_10():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 51))
        labels = rng.integers(1, k + 1, size=n)
        predictions = rng.integers(1, k + 1, size=n)
        report = evaluate_predictions(labels, predictions, k)
        acc, f1_score, prec = _brute_metrics(labels, predictions, k)
        assert report.accuracy == acc
        assert report.f1 == f1_score
        assert report.precision == prec
        counts = confusion_counts(labels, predictions, k)
        assert int(counts.tp.sum()) == int(np.sum(labels == predictions))
        assert np.all(counts.tp + counts.tn + counts.fp + counts.fn == n)

    # Withholding a class from training strictly costs class-mean accuracy.
    spec = check_valid(
        NetworkSpec(
            "loo-model",
            [
                LayerSpec(LayerKind.FC, I=6, O=16),
                LayerSpec(LayerKind.FC, I=16, O=4),
            ],
            class_count=4,
        )
    )
    data = make_synthetic(k=4, p=6, n=400, seed=8, separation=3.0)

    def harness(train_ds):
        model = init_model(spec, seed=2)
        train_classifier(model, train_ds, epochs=6, eta=0.1, seed=2)
        return lambda feats: predict(model, feats)

    train_split, test_split = train_test_split(data, test_fraction=0.3, seed=0)
    full_predict = harness(train_split)
    full = evaluate_predictions(test_split.labels, full_predict(test_split.features), data.k)
    withheld = leave_one_out(harness, data, label=1, test_fraction=0.3, seed=0)
    assert withheld.accuracy < full.accuracy


# =========================================================================
# criterion 11: byte-identical manifests across reruns
# =========================================================================


def test_criterion_11(tmp_path):
    arch = {
        "name": "repro",
        "class_count": 3,
        "shared_prefix": 1,
        "layers": [
            {"kind": "fc", "I": 6, "O": 12},
            {"kind": "fc", "I": 12, "O": 8},
            {"kind": "fc", "I": 8, "O": 3},
        ],
    }
    (tmp_path / "arch.json").write_text(json.dumps(arch))
    device = {
        "name": "dev",
        "b_e_bytes_per_flop": 4.0,
        "e_m_seconds_per_flop": 1e-9,
        "flops_per_second": 1e9,
        "beta_seconds": 1.0,
        "alpha_bytes": 1e9,
    }
    (tmp_path / "device.json").write_text(json.dumps(device))
    rc = cli_main(
        ["gendata", "--out", str(tmp_path / "data.csv"),
         "--n", "120", "--p", "6", "--k", "3", "--seed", "4"]
    )
    assert rc == 0
    config = {
        "architecture": str(tmp_path / "arch.json"),
        "device": str(tmp_path / "device.json"),
        "dataset": str(tmp_path / "data.csv"),
        "output_dir": str(tmp_path / "run"),
        "pretrain_epochs": 4,
        "lambdas": [0.5, 0.3, 0.2],
        "total_epochs": 3,
        "h_max": 1,
        "dropout_max_iteration": 2,
        "seed": 0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    assert cli_main(["pipeline", "--config", str(config_path)]) == 0
    manifest = (tmp_path / "run" / "manifest.json").read_bytes()
    student = (tmp_path / "run" / "best_student.json").read_bytes()

    assert cli_main(["pipeline", "--config", str(config_path)]) == 0
    assert (tmp_path / "run" / "manifest.json").read_bytes() == manifest
    assert (tmp_path / "run" / "best_student.json").read_bytes() == student
    assert json.loads(manifest)["result"]["best_l"] is not None
