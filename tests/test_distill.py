"""Two-teacher training: losses, halting, sharing, and the weight search."""

import numpy as np
import pytest

import generic_ops as ops
from protocols import LemmaPoint, analytic_curvature, convexity_probe, random_interior_points
from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.datasets import make_synthetic, train_test_split
from edgeslim.engine import autodiff as ad
from edgeslim.engine import model as engine_model
from edgeslim.engine.model import cross_entropy_node, forward, init_model, model_bytes
from edgeslim.engine import training
from edgeslim.engine.training import epoch_seed, iterate_minibatches, train_classifier
from edgeslim import distill
from edgeslim.distill import (
    DEBudget,
    DistillPlan,
    SCHEMES,
    combined_loss,
    distillation_loss_node,
    network_flops,
    optimize_lambdas,
    plateau_reached,
    share_prefix_layers,
    softmax_simplex,
    train,
)

TEACHER_SPEC = check_valid(
    NetworkSpec(
        "teacher",
        [
            LayerSpec(LayerKind.FC, I=8, O=16),
            LayerSpec(LayerKind.FC, I=16, O=12),
            LayerSpec(LayerKind.FC, I=12, O=3),
        ],
        class_count=3,
        shared_prefix=1,
    )
)

STUDENT_SPEC = check_valid(
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

ONE_LAYER_SPEC = check_valid(
    NetworkSpec("one", [LayerSpec(LayerKind.FC, I=8, O=3)], class_count=3)
)


def plan_for(scheme="S6", **kw):
    kw.setdefault("total_epochs", 3)
    kw.setdefault("batch_size", 32)
    kw.setdefault("eta", 0.05)
    kw.setdefault("seed", 0)
    return DistillPlan(0.5, 0.3, 0.2, scheme=scheme, **kw)


def fresh_models(seed=0, share=True):
    student = init_model(STUDENT_SPEC, seed=seed)
    trainee = init_model(TEACHER_SPEC, seed=seed + 1)
    pretrained = init_model(TEACHER_SPEC, seed=seed + 2)
    if share:
        share_prefix_layers(student, trainee, 1)
    return student, trainee, pretrained


@pytest.fixture(scope="module")
def data():
    return make_synthetic(k=3, p=8, n=120, seed=17, separation=2.5)


# -- loss components --------------------------------------------------------


def test_distillation_loss_fixtures():
    logits = np.array([[0.3, -1.2, 4.0]])
    assert float(distillation_loss_node(logits, ad.Tensor(logits)).data) == 0.0
    one = distillation_loss_node(np.array([[1.0, 2.0]]), ad.Tensor(np.zeros((1, 2))))
    assert float(one.data) == pytest.approx(5.0)
    # mean over the batch
    t = np.array([[1.0, 0.0], [0.0, 0.0]])
    s = ad.Tensor(np.zeros((2, 2)))
    assert float(distillation_loss_node(t, s).data) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        distillation_loss_node(np.zeros((1, 2)), ad.Tensor(np.zeros((1, 3))))


def test_attention_loss_fixtures():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])

    def loss(t, s):
        return float(ops.fc_attention([t], [ad.Tensor(s)]).data)

    assert loss(a, b) == pytest.approx(2.0)
    assert loss(a, a) == 0.0
    # scale invariance through row normalization
    assert loss(3.0 * a, b) == pytest.approx(loss(a, b))
    assert loss(a, 0.25 * b) == pytest.approx(2.0)
    # all-zero map hits the norm floor instead of dividing by zero
    assert np.isfinite(loss(np.zeros((1, 2)), b))


def test_attention_loss_detaches_dead_rows():
    student = ad.Tensor(np.array([[0.0, 0.0], [0.3, 0.4]]), requires_grad=True)
    teacher = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = ops.fc_attention([teacher], [student])
    loss.backward()
    assert np.isfinite(student.grad).all()
    # the dead row carries no gradient; the live one does
    np.testing.assert_array_equal(student.grad[0], 0.0)
    assert np.abs(student.grad[1]).max() > 0
    assert np.abs(student.grad).max() < 1e3


def test_attention_loss_layer_handling():
    a = np.array([[1.0, 0.0]])
    b = ad.Tensor(np.array([[0.0, 1.0]]))
    two = float(ops.fc_attention([a, a], [b, b]).data)
    assert two == pytest.approx(4.0)  # sums over layers
    # a one-layer guide or student has no maps, and so no plan
    for guide, student in ((ONE_LAYER_SPEC, STUDENT_SPEC), (STUDENT_SPEC, ONE_LAYER_SPEC)):
        assert distill.map_plan(guide.layers, student.layers, np.float32) is None
    # the student's maps must match the targets' layout, in count and in width
    fc = [LayerSpec(LayerKind.FC, I=1, O=2), LayerSpec(LayerKind.FC, I=2, O=2)]
    maps = distill.map_plan(fc, fc, a.dtype)
    t_unit = distill._unit_rows(a, maps)[0]
    for acts in ([], [b, b], [ad.Tensor(np.zeros((1, 1)))]):
        with pytest.raises(ValueError, match="do not match"):
            ops.attention(t_unit, acts, fc, maps)


def counting(monkeypatch, name: str) -> list:
    """Patch ``distill.<name>`` to record each call's arguments; return the record."""
    calls, real = [], getattr(distill, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distill, name, wrapper)
    return calls


def test_a_one_layer_trainee_gives_a_zero_attention_term(data, monkeypatch):
    student = init_model(STUDENT_SPEC, seed=0)
    trainee = init_model(ONE_LAYER_SPEC, seed=1)
    targets = counting(monkeypatch, "attention_targets")
    result = train(student, trainee, None, data, plan_for("S2", total_epochs=2))
    assert targets == []  # no map, so no plan and no targets
    assert [r.breakdown.attention for r in result.history] == [0.0, 0.0]
    assert result.history[-1].breakdown.ce_student < result.history[0].breakdown.ce_student


@pytest.mark.parametrize("scheme, student_spec", [
    ("S1", STUDENT_SPEC),  # l2 = 0 without a trainee
    ("S4", ONE_LAYER_SPEC),
], ids=["S1", "one-layer-student"])
def test_a_call_without_maps_forms_no_attention_targets(data, monkeypatch, scheme, student_spec):
    traits = SCHEMES[scheme]
    trainee = init_model(TEACHER_SPEC, seed=1) if traits.trainee else None
    pretrained = init_model(TEACHER_SPEC, seed=2)
    targets = counting(monkeypatch, "attention_targets")
    result = train(init_model(student_spec, seed=0), trainee, pretrained, data,
                   plan_for(scheme, total_epochs=1))
    assert targets == [] and result.history[0].breakdown.attention == 0.0


def test_one_train_call_draws_each_projection_once(data, monkeypatch):
    """A student narrower than its teacher at the second layer: that map's
    guide side is projected down, and the call draws its projection once."""
    projections = counting(monkeypatch, "_projection")
    train(*fresh_models(), data, plan_for("S6", total_epochs=1))
    assert projections == [(1, 12, 6)]


def test_the_result_carries_the_fold_its_epochs_score(data, monkeypatch):
    scored = counting(monkeypatch, "predict")
    result = train(*fresh_models(), data, plan_for("S6", total_epochs=2))
    assert len(scored) == 2 and all(x is result.val_set.features for _, x in scored)


WIDER_STUDENT_SPEC = check_valid(
    NetworkSpec(
        "wide-student",
        [
            LayerSpec(LayerKind.FC, I=8, O=16),
            LayerSpec(LayerKind.FC, I=16, O=20),
            LayerSpec(LayerKind.FC, I=20, O=3),
        ],
        class_count=3,
        shared_prefix=1,
    )
)


@pytest.mark.parametrize("student_spec", [TEACHER_SPEC, STUDENT_SPEC, WIDER_STUDENT_SPEC],
                         ids=["equal-widths", "teacher-wider", "student-wider"])
def test_cached_teacher_attention_matches_per_batch_bit_for_bit(student_spec):
    """The targets ``train`` computes once per call, in ``_frozen_outputs``'
    chunks, are bit for bit the targets that the batch's own teacher forward
    gives, for every batch of two rows or more; so are the attention term and
    its gradients, which read nothing else of the teacher."""
    features = make_synthetic(k=3, p=8, n=300, seed=21).features
    pretrained = init_model(TEACHER_SPEC, seed=22)
    student = init_model(student_spec, seed=23)
    maps = distill.map_plan(TEACHER_SPEC.layers, student_spec.layers, pretrained.dtype)
    logits, targets = distill._frozen_outputs(pretrained, features, maps)
    pairs = zip(TEACHER_SPEC.layers[:-1], student_spec.layers[:-1])
    widths = [min(t.O, s.O) for t, s in pairs]
    assert maps.widths == widths and targets.shape == (300, sum(widths))
    rng = np.random.default_rng(0)
    for size in [*range(2, 41), 64, 256, 300]:
        idx = rng.permutation(300)[:size]
        guide = forward(pretrained, features[idx], trainable=False)
        per_batch, batch_maps = ops.guide_targets(guide, TEACHER_SPEC.layers, student_spec.layers)
        assert batch_maps.widths == widths
        assert targets[idx].tobytes() == per_batch.tobytes(), size


def test_one_row_batches_read_the_cached_targets(data, monkeypatch):
    """A batch of one row indexes the targets ``_frozen_outputs`` cached for
    the fold, as every other batch does, and its attention term stays finite."""
    cached, rows = [], []
    real_outputs, real_attention = distill._frozen_outputs, distill.attention_loss_node

    def caching(*args):
        out = real_outputs(*args)
        cached.append(out[1])
        return out

    def recording(t_unit, *args):
        rows.append(t_unit)
        return real_attention(t_unit, *args)

    monkeypatch.setattr(distill, "_frozen_outputs", caching)
    monkeypatch.setattr(distill, "attention_loss_node", recording)
    n_train = train_test_split(data, 0.3, 0)[0].n
    for batch_size, singles in ((n_train - 1, 1), (1, n_train)):  # one-row batches per epoch
        cached.clear()
        rows.clear()
        student, trainee, pretrained = fresh_models()
        plan = plan_for("S6", batch_size=batch_size)
        result = train(student, trainee, pretrained, data, plan)
        assert np.isfinite([r.breakdown.attention for r in result.history]).all()
        (targets,) = cached
        ones = [t_unit for t_unit in rows if len(t_unit) == 1]
        assert len(ones) == singles * plan.total_epochs
        for t_unit in ones:
            assert (targets == t_unit).all(axis=1).any()


def test_plan_validation():
    good = DistillPlan(0.5117, 0.3972, 0.0911)
    assert sum(good.effective_lambdas()[:3]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DistillPlan(0.5, 0.3, 0.3)
    with pytest.raises(ValueError):
        DistillPlan(1.0, -0.2, 0.2)
    with pytest.raises(ValueError):
        DistillPlan(0.5, 0.3, 0.2, scheme="S9")
    with pytest.raises(ValueError):
        DistillPlan(0.5, 0.3, 0.2, total_epochs=5, h_max=5)
    with pytest.raises(ValueError, match="h_max"):
        DistillPlan(0.5, 0.3, 0.2, h_max=-1)
    with pytest.raises(ValueError, match="batch_size"):
        DistillPlan(0.5, 0.3, 0.2, batch_size=0)
    with pytest.raises(ValueError, match="plateau window"):
        DistillPlan(0.5, 0.3, 0.2, plateau_window=0)
    with pytest.raises(ValueError, match="plateau epsilon"):
        DistillPlan(0.5, 0.3, 0.2, plateau_epsilon=-0.1)
    with pytest.raises(ValueError, match="plateau epsilon"):
        DistillPlan(0.5, 0.3, 0.2, plateau_epsilon=float("nan"))


def test_effective_lambdas_renormalize_without_trainee():
    plan = DistillPlan(0.5, 0.3, 0.2, scheme="S1")
    l1, l2, l3, l4 = plan.effective_lambdas()
    assert l2 == 0.0 and l4 == 0.0
    assert l1 == pytest.approx(0.5 / 0.7)
    assert l3 == pytest.approx(0.2 / 0.7)
    assert l1 + l3 == pytest.approx(1.0)


def test_combined_loss_branches():
    plan = DistillPlan(0.5, 0.3, 0.2, scheme="S6", total_epochs=10, h_max=5, plateau_window=10)
    pre = combined_loss(1.0, 2.0, 3.0, 4.0, plan, epoch=5, halted=False)
    post = combined_loss(1.0, 2.0, 3.0, 4.0, plan, epoch=6, halted=True)
    assert pre.branch == "pre_halt" and post.branch == "post_halt"
    assert (pre.epoch, post.epoch) == (5, 6)
    assert pre.combined - post.combined == pytest.approx(1.0 * 2.0)  # lambda4 * CE_te
    assert post.combined == pytest.approx(0.5 * 1.0 + 0.3 * 3.0 + 0.2 * 4.0)
    # the live flag decides, whatever the epoch
    forced = combined_loss(1.0, 2.0, 3.0, 4.0, plan, epoch=1, halted=True)
    assert forced.branch == "post_halt"
    # trainee-less schemes always sit on the guided branch, even unhalted
    s1 = DistillPlan(0.5, 0.3, 0.2, scheme="S1")
    row = combined_loss(1.0, 9.9, 3.0, 4.0, s1, epoch=1, halted=False)
    assert row.branch == "post_halt"
    assert row.combined == pytest.approx((0.5 / 0.7) * 1.0 + (0.2 / 0.7) * 4.0)


# -- scheme wiring ----------------------------------------------------------


def test_scheme_table_traits():
    assert set(SCHEMES) == {"S1", "S2", "S3", "S4", "S5", "S6"}
    assert SCHEMES["S1"] == (False, True, False, False)
    assert SCHEMES["S6"] == (True, True, True, True)
    assert [s for s, t in SCHEMES.items() if t.halts] == ["S6"]


def test_train_rejects_wrong_model_combinations(data):
    student, trainee, pretrained = fresh_models()
    with pytest.raises(ValueError, match="does not take a trainee"):
        train(student, trainee, pretrained, data, plan_for("S1"))
    with pytest.raises(ValueError, match="does not take a pretrained"):
        train(student, trainee, pretrained, data, plan_for("S2"))
    with pytest.raises(ValueError, match="needs a trainee"):
        train(student, None, pretrained, data, plan_for("S6"))
    with pytest.raises(ValueError, match="needs a pretrained"):
        train(student, trainee, None, data, plan_for("S6"))
    # trainee and pretrained teacher must agree structurally
    other = init_model(STUDENT_SPEC, seed=9)
    with pytest.raises(ValueError, match="share one architecture"):
        train(student, trainee, other, data, plan_for("S6"))


def test_shared_scheme_requires_actual_sharing(data):
    student, trainee, pretrained = fresh_models(share=False)
    with pytest.raises(ValueError, match="share_prefix_layers"):
        train(student, trainee, pretrained, data, plan_for("S5"))


def test_share_prefix_layers_aliases_and_validates():
    student, trainee, _ = fresh_models(share=False)
    share_prefix_layers(student, trainee, 1)
    assert student.layers[0] is trainee.layers[0]
    assert student.layers[1] is not trainee.layers[1]
    mismatched = init_model(TEACHER_SPEC, seed=3)
    with pytest.raises(ValueError):
        share_prefix_layers(mismatched, init_model(STUDENT_SPEC, seed=3), 2)


# -- halting ----------------------------------------------------------------


def test_fixed_halt_flips_branch_and_freezes_trainee(data):
    student, trainee, pretrained = fresh_models()
    plan = plan_for("S6", total_epochs=4, h_max=2, plateau_window=4)
    result = train(student, trainee, pretrained, data, plan)
    assert result.halting_epoch == 2
    branches = [r.breakdown.branch for r in result.history]
    assert branches == ["pre_halt", "pre_halt", "post_halt", "post_halt"]
    # the trainee stops moving at the halt
    assert model_bytes(result.trainee) == result.trainee_bytes_at_halt
    # sharing is severed so the student keeps training without back-writing
    assert student.layers[0] is not trainee.layers[0]


def test_halt_at_zero_means_never_train_the_trainee(data):
    student, trainee, pretrained = fresh_models()
    before = model_bytes(trainee)
    plan = plan_for("S6", total_epochs=3, h_max=0, plateau_window=3)
    result = train(student, trainee, pretrained, data, plan)
    assert result.halting_epoch == 0
    assert model_bytes(trainee) == before
    assert all(r.breakdown.branch == "post_halt" for r in result.history)


def test_plateau_reached_fixtures():
    # fires once the last epoch gained less than epsilon over the window
    flat = [50.0] * 10
    assert plateau_reached(flat, 0.5, 10)
    assert not plateau_reached(flat[:9], 0.5, 10)  # shorter than the window
    assert not plateau_reached([0.0] * 9 + [0.5], 0.5, 10)  # the bound is strict
    # accuracy climbs a point per epoch through 60, then holds
    curve = [float(min(e, 60)) for e in range(1, 101)]
    assert [e for e in range(1, 101) if plateau_reached(curve[:e], 0.5, 10)][0] == 69
    rising = [float(e) for e in range(1, 101)]
    assert not any(plateau_reached(rising[:e], 0.5, 10) for e in range(1, 101))


def test_plateau_halt_online(data):
    student, trainee, pretrained = fresh_models()
    # epsilon so large every window triggers: halt at the window edge
    plan = plan_for(
        "S6", total_epochs=5, plateau_window=2, plateau_epsilon=1e9, h_max=4
    )
    result = train(student, trainee, pretrained, data, plan)
    assert result.halting_epoch == 2


def test_h_max_caps_online_halting(data):
    student, trainee, pretrained = fresh_models()
    # epsilon zero: a plateau never triggers, the cap fires instead
    plan = plan_for("S6", total_epochs=4, plateau_epsilon=0.0, h_max=2)
    result = train(student, trainee, pretrained, data, plan)
    assert result.halting_epoch == 2


def test_s6_history_matches_s5_before_the_halt(data):
    s5 = train(*fresh_models(), data, plan_for("S5", total_epochs=3))
    s6 = train(
        *fresh_models(), data, plan_for("S6", total_epochs=3, h_max=2, plateau_window=3)
    )
    for a, b in zip(s5.history[:2], s6.history[:2]):
        assert a == b  # bit-identical epochs before the halt
    assert s5.history[2] != s6.history[2]


def test_history_recompute_invariant(data):
    plan = plan_for("S6", total_epochs=4, h_max=1, plateau_window=4)
    result = train(*fresh_models(), data, plan)
    l1, l2, l3, l4 = plan.effective_lambdas()
    for row in result.history:
        b = row.breakdown
        expect = l1 * b.ce_student + l2 * b.attention + l3 * b.distillation
        if b.branch == "pre_halt":
            expect += l4 * b.ce_trainee
        assert b.combined == pytest.approx(expect, abs=1e-12)


def test_flop_accounting_per_epoch(data):
    plan = plan_for("S6", total_epochs=4, h_max=2, plateau_window=4)
    result = train(*fresh_models(), data, plan)
    train_set, _ = train_test_split(data, plan.val_fraction, plan.seed)
    f_s = network_flops(STUDENT_SPEC)
    f_t = network_flops(TEACHER_SPEC)
    pre = (3 * f_s + 3 * f_t + f_t) * train_set.n
    post = (3 * f_s + f_t) * train_set.n
    deltas = np.diff([0] + [r.cumulative_flops for r in result.history]).tolist()
    assert deltas == [pre, pre, post, post]
    assert result.total_flops == 2 * pre + 2 * post
    assert result.total_flops == result.history[-1].cumulative_flops


def test_training_moves_the_loss(data):
    result = train(*fresh_models(), data, plan_for("S6", total_epochs=6, h_max=3))
    first, last = result.history[0], result.history[-1]
    assert last.breakdown.ce_student < first.breakdown.ce_student
    assert 0.0 <= result.final_accuracy <= 1.0


def test_train_is_deterministic(data):
    plan = plan_for("S6", total_epochs=3, h_max=1, plateau_window=3)
    a = train(*fresh_models(), data, plan)
    b = train(*fresh_models(), data, plan)
    assert model_bytes(a.student) == model_bytes(b.student)
    assert a.history == b.history


def test_s1_trains_a_fresh_student_against_the_teacher_only(data):
    student = init_model(STUDENT_SPEC, seed=0)
    pretrained = init_model(TEACHER_SPEC, seed=2)
    train_classifier(pretrained, data, epochs=5, eta=0.1, seed=2)
    result = train(student, None, pretrained, data, plan_for("S1", total_epochs=3))
    assert result.trainee is None
    assert result.trainee_bytes_at_halt is None
    assert result.halting_epoch is None
    assert all(r.breakdown.branch == "post_halt" for r in result.history)
    assert all(r.breakdown.ce_trainee == 0.0 for r in result.history)


# -- loss-weight search -----------------------------------------------------


def test_softmax_simplex_properties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        point = softmax_simplex(rng.normal(scale=5.0, size=3))
        assert sum(point) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 < v < 1.0 for v in point)


def test_random_interior_points_matches_de_init_stream():
    seen = []

    def spy(lams):
        seen.append(lams)
        return 0.0

    optimize_lambdas(spy, DEBudget(population=6, generations=0, seed=11))
    assert seen == random_interior_points(11, 6)


def test_optimize_lambdas_beats_the_random_baseline():
    target = np.array([0.6, 0.3, 0.1])

    def score(lams):
        return -float(((np.array(lams) - target) ** 2).sum())

    budget = DEBudget(population=12, generations=10, seed=3)
    solution = optimize_lambdas(score, budget)
    assert sum(solution.lambdas) == pytest.approx(1.0, abs=1e-9)
    assert all(0.0 < v < 1.0 for v in solution.lambdas)
    baseline = max(score(p) for p in random_interior_points(3, 12))
    assert solution.fitness >= baseline
    assert solution.fitness > -1e-3  # actually close to the target
    assert solution.evaluations == 12 * (10 + 1)
    again = optimize_lambdas(score, budget)
    assert again.lambdas == solution.lambdas


def test_optimize_lambdas_constant_score_returns_uniform():
    solution = optimize_lambdas(lambda lams: 7.0, DEBudget(population=5, generations=2, seed=0))
    assert solution.lambdas == (pytest.approx(1 / 3), pytest.approx(1 / 3), pytest.approx(1 / 3))
    assert solution.fitness == 7.0


def test_de_budget_validation():
    with pytest.raises(ValueError):
        DEBudget(population=3, generations=15, seed=0)
    with pytest.raises(ValueError):
        DEBudget(population=20, generations=-1, seed=0)


# -- curvature probe --------------------------------------------------------


def probe_point(w, n=1, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return LemmaPoint(
        w=np.full(k, w),
        b=np.zeros(k),
        x=rng.normal(size=(n, k)),
        labels=rng.integers(1, k + 1, size=n),
        teacher_logits=rng.normal(size=(n, k)),
        teacher_maps=np.ones((n, k)) / np.sqrt(k),
        student_map_norm=1.0,
    )


def test_probe_zero_weight_is_flat():
    point = probe_point(w=0.0, n=3, k=4)
    np.testing.assert_array_equal(analytic_curvature(point, "combined"), 0.0)
    np.testing.assert_allclose(convexity_probe(point, "combined"), 0.0, atol=1e-9)


def test_probe_distillation_fixture_is_exact():
    point = probe_point(w=3.0, n=1, k=2)
    np.testing.assert_allclose(analytic_curvature(point, "distillation"), 18.0)
    # a quadratic has no truncation error in a central second difference
    np.testing.assert_allclose(convexity_probe(point, "distillation"), 18.0, atol=1e-8)


def test_probe_terms_match_analytic():
    point = probe_point(w=1.3, n=4, k=3, seed=5)
    for term, tol in [
        ("ce_student", 1e-4),
        ("attention", 1e-8),
        ("distillation", 1e-8),
        ("combined", 1e-4),
    ]:
        estimates = convexity_probe(point, term)
        np.testing.assert_allclose(estimates, analytic_curvature(point, term), atol=tol)
        assert estimates.min() >= -1e-9


def test_probe_combined_mixes_terms_by_lambda():
    point = probe_point(w=0.8, n=2, k=3, seed=9)
    parts = {
        term: analytic_curvature(point, term)
        for term in ("ce_student", "attention", "distillation")
    }
    combined = analytic_curvature(point, "combined")
    l1, l2, l3, _ = point.lambdas
    np.testing.assert_allclose(
        combined,
        l1 * parts["ce_student"] + l2 * parts["attention"] + l3 * parts["distillation"],
        rtol=1e-12,
    )


# -- the shared head and the frozen-teacher pass ----------------------------

HEAD_TEACHER = check_valid(
    NetworkSpec(
        "teacher",
        [
            LayerSpec(LayerKind.CONV, I=1, O=2, f=2, g=2, h=3, w=3),
            LayerSpec(LayerKind.LSTM, I=6, O=5, s=3),
            LayerSpec(LayerKind.FC, I=5, O=6),
            LayerSpec(LayerKind.FC, I=6, O=3),
        ],
        class_count=3,
        shared_prefix=2,
    )
)
HEAD_STUDENT = check_valid(
    NetworkSpec(
        "student",
        [
            *HEAD_TEACHER.layers[:2],
            LayerSpec(LayerKind.FC, I=5, O=4),
            LayerSpec(LayerKind.FC, I=4, O=3),
        ],
        class_count=3,
        shared_prefix=2,
    )
)


class _FirstBatchDone(Exception):
    pass


def test_shared_prefix_gradient_sums_attention_trainee_then_student(monkeypatch, data):
    """In an S6 pre-halt batch the shared prefix's output gets three
    gradient pieces, summed in reverse creation order:
    ``(attention + trainee) + student``, bit for bit."""
    from edgeslim.engine import layers

    student, trainee, pretrained = fresh_models(seed=6)
    prefix_cells, pieces = [], []
    real_forward = distill.forward

    def forward_capturing(model, x, **kw):
        trace = real_forward(model, x, **kw)
        if model is student and kw.get("trainable"):
            prefix_cells.append(trace.activations[0].cell)
        return trace

    def recording(module, real):
        def accum(cell, piece):
            if prefix_cells and cell is prefix_cells[0]:
                pieces.append((module, piece))
            real(cell, piece)

        return accum

    def stop(models, eta):
        raise _FirstBatchDone

    monkeypatch.setattr(distill, "forward", forward_capturing)
    monkeypatch.setattr(distill, "_accum", recording("attention", distill._accum))
    monkeypatch.setattr(layers, "_accum", recording("layer", layers._accum))
    monkeypatch.setattr(distill, "descend", stop)
    with pytest.raises(_FirstBatchDone):
        train(student, trainee, pretrained, data, plan_for("S6"))
    assert [module for module, _ in pieces] == ["attention", "layer", "layer"]
    (_, attention), (_, from_trainee), (_, from_student) = pieces
    assert prefix_cells[0][0].tobytes() == ((attention + from_trainee) + from_student).tobytes()


def test_shared_head_gradients_match_two_full_forwards(monkeypatch):
    """One S6 pre-halt batch in float64: the shared head's gradients equal
    those of separate student and trainee forwards and backward passes,
    summed per array."""
    data = make_synthetic(k=3, p=16, n=60, seed=5)
    student = init_model(HEAD_STUDENT, seed=1, dtype=np.float64)
    trainee = init_model(HEAD_TEACHER, seed=2, dtype=np.float64)
    pretrained = init_model(HEAD_TEACHER, seed=3, dtype=np.float64)
    share_prefix_layers(student, trainee, 2)
    plan = plan_for("S6", batch_size=16)

    # reference: the batch train() draws first, two independent forwards
    train_set, _ = train_test_split(data, plan.val_fraction, plan.seed)
    rng = np.random.default_rng(epoch_seed(plan.seed, 1))
    idx = next(iterate_minibatches(train_set.n, plan.batch_size, rng))
    x, y = train_set.features[idx], train_set.labels[idx]
    s_trace, te_trace = forward(student, x), forward(trainee, x)
    l1, l2, l3, l4 = plan.effective_lambdas()
    g_trace = forward(pretrained, x, trainable=False)
    layers = student.spec.layers
    t_unit, maps = ops.guide_targets(g_trace, pretrained.spec.layers, layers)
    al = ops.attention(t_unit, s_trace.activations[:-1], layers, maps)
    dl = distill.distillation_loss_node(te_trace.logits.data, s_trace.logits)
    student_loss = ops.add(
        ops.add(ops.mul(cross_entropy_node(s_trace, y), l1), ops.mul(al, l2)), ops.mul(dl, l3)
    )
    # each pass writes the gradient views of the layers it ran, the shared
    # head's included, so each is read before the next pass overwrites it
    expected: dict[int, np.ndarray] = {}
    shared_parts = []
    trainee_loss = ops.mul(cross_entropy_node(te_trace, y), l4)
    for model, loss in ((student, student_loss), (trainee, trainee_loss)):
        loss.backward()
        for lp in model.layers:
            for name, arr in lp.params.items():
                expected[id(arr)] = expected.get(id(arr), 0.0) + lp.grads[name]
        shared_parts.append(trainee.layers[1].grads["Wf"].copy())
    assert min(np.abs(part).max() for part in shared_parts) > 1e-6  # both paths count

    got: dict[int, np.ndarray] = {}

    def capture(models, eta):
        for model in models:
            for lp in model.layers[model.borrowed :]:
                for name, arr in lp.params.items():
                    got[id(arr)] = lp.grads[name].copy()
        raise _FirstBatchDone

    monkeypatch.setattr(distill, "descend", capture)
    with pytest.raises(_FirstBatchDone):
        train(student, trainee, pretrained, data, plan)
    assert got.keys() == expected.keys()
    for key, grad in expected.items():
        assert np.abs(got[key] - grad).max() <= 1e-12


ONE_LAYER = check_valid(NetworkSpec("one", [LayerSpec(LayerKind.FC, I=6, O=3)], class_count=3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scheme", ["S6", "S4", "S1"])
@pytest.mark.parametrize(
    "teacher_spec, student_spec",
    [(TEACHER_SPEC, STUDENT_SPEC), (HEAD_TEACHER, HEAD_STUDENT), (ONE_LAYER, ONE_LAYER)],
    ids=["fc", "conv-lstm", "fc-one-layer"],
)
def test_distillation_batch_stays_in_the_model_dtype(
    teacher_spec, student_spec, scheme, dtype, monkeypatch
):
    """One batch of train's loss: its value, every tape node's gradient and
    every gradient view of the step's models are in the model's dtype.  The
    conv net's maps go through ``Tensor.mean``; S1 reads the pretrained
    teacher's logits; a one-layer network has no attention maps, under a
    trainee scheme too."""
    data = make_synthetic(k=3, p=teacher_spec.layers[0].input_width, n=60, seed=5)
    student = init_model(student_spec, seed=1, dtype=dtype)
    pretrained = init_model(teacher_spec, seed=3, dtype=dtype)
    trainee = None
    if SCHEMES[scheme].trainee:
        trainee = init_model(teacher_spec, seed=2, dtype=dtype)
    if SCHEMES[scheme].shared:
        share_prefix_layers(student, trainee, student_spec.shared_prefix)
    roots, models = [], []
    tape_backward = ad.Tensor.backward

    def record(root):
        roots.append((root, list(root.tape.entries)))
        tape_backward(root)

    def capture(step_models, eta):
        models.extend(step_models)
        raise _FirstBatchDone

    monkeypatch.setattr(ad.Tensor, "backward", record)
    monkeypatch.setattr(distill, "descend", capture)
    with pytest.raises(_FirstBatchDone):
        train(student, trainee, pretrained, data, plan_for(scheme, batch_size=16))
    ((loss, entries),) = roots
    assert loss.data.dtype == dtype
    assert {cell[0].dtype for _, cell in entries} == {np.dtype(dtype)}
    assert models == [m for m in (student, trainee) if m is not None]
    views = [g for model in models for layer in model.grad_views for g in layer.values()]
    assert {g.dtype for g in views} == {np.dtype(dtype)}


def test_frozen_teacher_never_runs_a_one_row_chunk():
    """A 257-row fold leaves one row past the first chunk.  numpy multiplies
    a lone row by gemv, which rounds unlike GEMM, so that row joins the chunk
    before: its cached logits and attention target equal a two-row forward's
    bit for bit."""
    wide = check_valid(NetworkSpec("wide", [
        LayerSpec(LayerKind.FC, I=8, O=64), LayerSpec(LayerKind.FC, I=64, O=3),
    ], class_count=3))
    teacher = init_model(wide, seed=30)
    features = make_synthetic(k=3, p=8, n=257, seed=31).features
    maps = distill.map_plan(wide.layers, wide.layers, teacher.dtype)
    logits, targets = distill._frozen_outputs(teacher, features, maps)
    pair = forward(teacher, features[-2:], trainable=False)
    assert logits[-1].tobytes() == pair.logits.data[-1].tobytes()
    unit = distill._unit_rows(pair.activations[0].data, maps)[0]
    assert targets[-1].tobytes() == unit[-1].tobytes()


@pytest.mark.parametrize("n", [257, 513])
def test_every_tape_free_pass_walks_the_same_chunks(monkeypatch, n):
    """``predict``, ``evaluate_loss`` and the frozen teacher run the rows in
    chunks of ``EVAL_BATCH``, and none runs a one-row chunk: the row left
    past the last full chunk joins it."""
    teacher = init_model(TEACHER_SPEC, seed=30)
    dataset = make_synthetic(k=3, p=8, n=n, seed=31)
    maps = distill.map_plan(TEACHER_SPEC.layers, STUDENT_SPEC.layers, teacher.dtype)
    sizes = []

    def recording_forward(model, x, trainable=True, **kw):
        sizes.append(len(x))
        return forward(model, x, trainable=trainable, **kw)

    monkeypatch.setattr(training, "forward", recording_forward)
    monkeypatch.setattr(distill, "forward", recording_forward)
    want = [training.EVAL_BATCH] * (n // training.EVAL_BATCH - 1) + [training.EVAL_BATCH + 1]
    for run in (
        lambda: training.predict(teacher, dataset.features),
        lambda: training.evaluate_loss(teacher, dataset),
        lambda: distill._frozen_outputs(teacher, dataset.features, maps),
    ):
        sizes.clear()
        run()
        assert sizes == want


@pytest.mark.parametrize("scheme, odd", [
    ("S4", "trainee"), ("S6", "trainee"), ("S1", "pretrained"), ("S6", "pretrained"),
])
def test_train_refuses_models_of_two_dtypes_before_any_step(monkeypatch, data, scheme, odd):
    """A run has one dtype: a trainee or pretrained teacher whose dtype is
    not the student's is refused before any forward pass or update."""
    traits = SCHEMES[scheme]
    dtypes = {"trainee": np.float32, "pretrained": np.float32, odd: np.float64}
    student = init_model(STUDENT_SPEC, seed=0)
    trainee = init_model(TEACHER_SPEC, seed=1, dtype=dtypes["trainee"]) if traits.trainee else None
    pretrained = init_model(TEACHER_SPEC, seed=2, dtype=dtypes["pretrained"])
    if traits.shared:
        share_prefix_layers(student, trainee, 1)
    before = [model_bytes(m) for m in filter(None, (student, trainee, pretrained))]

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(distill, "forward", no_step)
    monkeypatch.setattr(distill, "descend", no_step)
    with pytest.raises(ValueError, match="share one dtype, got \\['float32', 'float64'\\]"):
        train(student, trainee, pretrained, data, plan_for(scheme))
    assert [model_bytes(m) for m in filter(None, (student, trainee, pretrained))] == before


def test_prefix_runs_once_per_batch_and_teacher_once_per_call(monkeypatch):
    data = make_synthetic(k=3, p=8, n=400, seed=3)
    student, trainee, pretrained = fresh_models(seed=4)
    plan = plan_for("S6", total_epochs=3, h_max=2, plateau_window=3, batch_size=64)
    n_train = train_test_split(data, plan.val_fraction, plan.seed)[0].n
    shared_w = trainee.layers[0].params["W"]
    frozen_calls, prefix_calls = [], []

    real_forward = distill.forward

    def counting_forward(model, x, trainable=True, **kw):
        if not trainable:
            frozen_calls.append(model)
        return real_forward(model, x, trainable=trainable, **kw)

    real_layer_forward = engine_model.layer_forward

    def counting_layer_forward(layer, params, grads, x, relu=False):
        if grads is not None and params[0] is shared_w:
            prefix_calls.append(x.data.shape[0])
        return real_layer_forward(layer, params, grads, x, relu)

    monkeypatch.setattr(distill, "forward", counting_forward)
    monkeypatch.setattr(engine_model, "layer_forward", counting_layer_forward)
    result = train(student, trainee, pretrained, data, plan)

    assert result.halting_epoch == 2
    assert n_train > 256
    assert len(frozen_calls) == -(-n_train // 256)
    assert all(model is pretrained for model in frozen_calls)
    batches = -(-n_train // plan.batch_size)
    assert len(prefix_calls) == 2 * batches  # epochs 1 and 2 are pre-halt
    assert sum(prefix_calls) == 2 * n_train
