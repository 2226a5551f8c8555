"""Depth sweep orchestration: seeding, ranking, and end-to-end determinism."""

import numpy as np
import pytest

from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.compressor import minimum_flops
from edgeslim.datasets import make_synthetic
from edgeslim.engine.model import init_model, model_bytes
from edgeslim.engine.training import evaluate_loss, train_classifier
from edgeslim import compressor, pipeline
from edgeslim.pipeline import (
    CandidateRecord,
    PipelineSettings,
    ReferenceMismatch,
    derive_seed,
    prefix_sweep,
    select,
)
from edgeslim.resources import DeviceProfile, LayerCost, ResourceReport, estimate_network


def test_prefix_sweep_fixtures():
    assert prefix_sweep(10) == [5, 6, 7, 8, 9, 10]
    assert prefix_sweep(1) == [1]
    assert prefix_sweep(3) == [1, 2, 3]
    assert prefix_sweep(20) == [10, 12, 14, 16, 18, 20]
    with pytest.raises(ValueError):
        prefix_sweep(0)


def test_prefix_sweep_candidate_count_invariant():
    import math

    for depth in range(2, 31):
        sweep = prefix_sweep(depth)
        start = max(1, depth // 2)
        step = max(1, math.ceil(depth / 10))
        assert len(sweep) == (depth - start) // step + 1
        assert sweep[0] == start
        assert all(b - a == step for a, b in zip(sweep, sweep[1:]))
        assert sweep[-1] <= depth


def test_derive_seed_is_stable_and_labelled():
    assert derive_seed(0, "dropout", 1) == derive_seed(0, "dropout", 1)
    assert derive_seed(0, "dropout", 1) != derive_seed(0, "dropout", 2)
    assert derive_seed(0, "dropout", 1) != derive_seed(0, "compress", 1)
    assert derive_seed(1, "dropout", 1) != derive_seed(0, "dropout", 1)
    s = derive_seed(3, "train", 5)
    assert 0 <= s < 2**63


def fake_record(l, loss, flops, feasible=True):
    report = ResourceReport(
        network="n",
        device="d",
        omega=0.5,
        per_layer=(LayerCost(params=flops, flops=flops),),
        total_params=flops,
        total_flops=flops,
        t_mem=1.0,
        t_exec=1.0,
        objective=1.0,
        fits_alpha=feasible,
        fits_beta=feasible,
    )
    return CandidateRecord(
        l=l,
        spec=check_valid(
            NetworkSpec("n", [LayerSpec(LayerKind.FC, I=2, O=2)], class_count=2, shared_prefix=0)
        ),
        feasible=feasible,
        report=report,
        lambdas=None,
        final_combined_loss=loss if feasible else None,
        halting_epoch=None,
        val_accuracy=None,
        metrics=None,
        training_flops=None,
        dropout_rounds=0,
        compression_steps=0,
    )


def test_select_lowest_loss_wins():
    records = [fake_record(1, 0.9, 100), fake_record(2, 0.4, 100), fake_record(3, 0.7, 100)]
    assert select(records).l == 2


def test_select_tie_breaks_on_flops_then_depth():
    records = [fake_record(1, 0.5, 200), fake_record(2, 0.5, 100)]
    assert select(records).l == 2
    records = [fake_record(3, 0.5, 100), fake_record(1, 0.5, 100)]
    assert select(records).l == 1


def test_select_skips_infeasible_rows():
    records = [fake_record(1, 0.1, 10, feasible=False), fake_record(2, 0.9, 900)]
    assert select(records).l == 2
    assert select([fake_record(1, None, 10, feasible=False)]) is None
    assert select([]) is None


# -- end-to-end sweeps ------------------------------------------------------

TEACHER_SPEC = check_valid(
    NetworkSpec(
        "bench-teacher",
        [
            LayerSpec(LayerKind.FC, I=8, O=16),
            LayerSpec(LayerKind.FC, I=16, O=12),
            LayerSpec(LayerKind.FC, I=12, O=3),
        ],
        class_count=3,
        shared_prefix=1,
    )
)

SETTINGS = PipelineSettings(
    lambdas=(0.5, 0.3, 0.2),
    total_epochs=4,
    h_max=2,
    dropout_max_iteration=3,
    seed=0,
)


@pytest.fixture(scope="module")
def bench():
    data = make_synthetic(k=3, p=8, n=150, seed=21, separation=2.5)
    teacher = init_model(TEACHER_SPEC, seed=1)
    train_classifier(teacher, data, epochs=8, eta=0.1, seed=1)
    return teacher, data, evaluate_loss(teacher, data)


def device_with(alpha=None, beta=None, alpha_ratio=None):
    return DeviceProfile(
        name="bench",
        bytes_per_flop=4.0,
        seconds_per_flop=1e-9,
        flops_per_second=1e9,
        beta=beta if beta is not None else 1.0,
        alpha=alpha,
        alpha_ratio=alpha_ratio if alpha is None and alpha_ratio is not None else None,
    )


def mid_budget_device(teacher):
    full = estimate_network(teacher.spec, device_with(alpha=1.0), 0.5).total_flops
    floor = minimum_flops(teacher.spec)
    target = (floor + full) // 2
    return device_with(alpha=target * 4.0, beta=target * 1e-9), full, floor


def test_run_rejects_a_bad_reference_loss(bench):
    teacher, data, reference = bench
    device, _, _ = mid_budget_device(teacher)
    with pytest.raises(ReferenceMismatch):
        pipeline.run(teacher, reference * 3.0 + 1.0, data, device, SETTINGS)


def test_run_mixed_feasibility_and_ranking(bench):
    teacher, data, reference = bench
    device, full, _ = mid_budget_device(teacher)
    result = pipeline.run(teacher, reference, data, device, SETTINGS)
    assert [r.l for r in result.records] == prefix_sweep(3)
    by_l = {r.l: r for r in result.records}
    # full sharing leaves the teacher untouched, which busts the mid budget
    assert not by_l[3].feasible
    assert by_l[3].final_combined_loss is None
    feasible = [r for r in result.records if r.feasible]
    assert feasible, "mid budget should admit at least one slimmed candidate"
    for r in feasible:
        assert r.report.t_mem <= device.alpha + 1e-9
        assert r.report.t_exec <= device.beta + 1e-12
        assert r.report.total_flops < full
        assert r.lambdas == SETTINGS.lambdas
        assert r.model is not None
        assert r.metrics is not None
        assert r.halting_epoch is not None  # S6 with h_max always halts
    assert result.best is select(result.records)
    assert result.best.final_combined_loss == min(
        r.final_combined_loss for r in feasible
    )


def test_run_all_infeasible(bench):
    teacher, data, reference = bench
    tiny = device_with(alpha=4.0, beta=1e-9)  # one flop's worth of budget
    result = pipeline.run(teacher, reference, data, tiny, SETTINGS)
    assert result.all_infeasible
    assert result.best is None
    assert all(not r.feasible for r in result.records)
    # closest models still come back with their reports
    assert all(r.report.total_flops > 0 for r in result.records)


def test_run_is_deterministic(bench):
    teacher, data, reference = bench
    device, _, _ = mid_budget_device(teacher)
    a = pipeline.run(teacher, reference, data, device, SETTINGS)
    b = pipeline.run(teacher, reference, data, device, SETTINGS)
    assert a.to_dict() == b.to_dict()
    assert model_bytes(a.best.model) == model_bytes(b.best.model)


def test_a_float64_teacher_gives_a_float64_run(monkeypatch):
    """A run has the pretrained teacher's dtype: every trainee is built in
    it, so the layers the student borrows are float64 arrays too, and the
    best student comes back float64."""
    data = make_synthetic(k=3, p=8, n=150, seed=21, separation=2.5)
    teacher = init_model(TEACHER_SPEC, seed=1, dtype=np.float64)
    train_classifier(teacher, data, epochs=8, eta=0.1, seed=1)
    device, _, _ = mid_budget_device(teacher)
    seen = []
    real_train = pipeline.train

    def recording_train(student, trainee, pretrained, dataset, plan):
        arrays = [a for lp in student.layers + trainee.layers for a in lp.params.values()]
        seen.append({m.dtype for m in (student, trainee, pretrained)} | {a.dtype for a in arrays})
        return real_train(student, trainee, pretrained, dataset, plan)

    monkeypatch.setattr(pipeline, "train", recording_train)
    result = pipeline.run(teacher, evaluate_loss(teacher, data), data, device, SETTINGS)
    assert seen and all(dtypes == {np.dtype(np.float64)} for dtypes in seen)
    assert result.best is not None and result.best.model.dtype == np.float64
    assert all(a.dtype == np.float64 for lp in result.best.model.layers for a in lp.params.values())


def test_run_leaves_the_teacher_untouched(bench):
    teacher, data, reference = bench
    device, _, _ = mid_budget_device(teacher)
    before = model_bytes(teacher)
    pipeline.run(teacher, reference, data, device, SETTINGS)
    assert model_bytes(teacher) == before


def test_run_resolves_ratio_alpha_against_the_teacher(bench):
    teacher, data, reference = bench
    full = estimate_network(teacher.spec, device_with(alpha=1.0), 0.5).total_flops
    floor = minimum_flops(teacher.spec)
    ratio = ((floor + full) / 2) / full
    device = device_with(alpha_ratio=ratio, beta=full * 1e-9)
    result = pipeline.run(teacher, reference, data, device, SETTINGS)
    resolved_alpha = ratio * 4.0 * full
    for r in result.records:
        if r.feasible:
            assert r.report.t_mem <= resolved_alpha + 1e-9
    # same verdicts as spelling the byte budget out directly
    explicit = device_with(alpha=resolved_alpha, beta=full * 1e-9)
    again = pipeline.run(teacher, reference, data, explicit, SETTINGS)
    assert [r.feasible for r in result.records] == [r.feasible for r in again.records]


def test_settings_validation():
    with pytest.raises(ValueError):
        PipelineSettings(omega=1.5)
    with pytest.raises(ValueError):
        PipelineSettings(total_epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        PipelineSettings(batch_size=0)
    with pytest.raises(ValueError, match="h_max"):
        PipelineSettings(h_max=-1)


def between_the_floors_of_depths_1_and_2(teacher):
    """A device whose budget depth 1's floor meets and depth 2's misses."""
    floors = {l: minimum_flops(pipeline._with_prefix(teacher, l).spec) for l in (1, 2)}
    assert floors[1] < floors[2]
    target = (floors[1] + floors[2]) // 2
    return device_with(alpha=target * 4.0, beta=target * 1e-9)


def test_a_depth_whose_floor_misses_the_budget_skips_dropout(bench, monkeypatch):
    """With a budget between the floors of depths 1 and 2, depth 2 cannot
    fit whatever dropout prunes: it runs no dropout, yet its record is the
    one that dropout followed by compression gives.  Depth 1 still prunes."""
    teacher, data, reference = bench
    device = between_the_floors_of_depths_1_and_2(teacher)

    pruned = []
    real_run = pipeline.pruning.run
    monkeypatch.setattr(
        pipeline.pruning, "run",
        lambda model, *args, **kwargs: pruned.append(model.spec.shared_prefix)
        or real_run(model, *args, **kwargs),
    )
    by_l = {r.l: r for r in pipeline.run(teacher, reference, data, device, SETTINGS).records}
    assert pruned == [1]
    assert by_l[1].feasible and by_l[1].dropout_rounds > 0
    for l in (2, 3):
        assert not by_l[l].feasible
        assert by_l[l].dropout_rounds == 0

    # depth 2 along the path that prunes first: same spec, report and steps
    dropped = real_run(
        pipeline._with_prefix(teacher, 2),
        data,
        eta=SETTINGS.dropout_eta,
        reference_loss=reference,
        c=SETTINGS.dropout_c,
        max_iteration=SETTINGS.dropout_max_iteration,
        initial_rate=SETTINGS.dropout_initial_rate,
        input_rate=SETTINGS.dropout_input_rate,
        batch_size=SETTINGS.batch_size,
        seed=derive_seed(SETTINGS.seed, "dropout", 2),
    )
    assert dropped.rounds  # that path does prune this depth
    outcome = compressor.run(dropped.model, device, SETTINGS.omega)
    assert by_l[2].spec == outcome.model.spec
    assert by_l[2].report == outcome.report
    assert by_l[2].compression_steps == len(outcome.records) > 0


def test_a_depth_whose_floor_misses_the_budget_runs_no_compressor(bench, monkeypatch):
    """Depths 2 and 3 cannot fit the budget between the floors of depths 1
    and 2: their records come from the floor without ``compressor.run``,
    and equal what ``compressor.run`` returns for them."""
    teacher, data, reference = bench
    device = between_the_floors_of_depths_1_and_2(teacher)

    compressed = []
    real_run = pipeline.compressor.run
    monkeypatch.setattr(
        pipeline.compressor, "run",
        lambda model, *args, **kwargs: compressed.append(model.spec.shared_prefix)
        or real_run(model, *args, **kwargs),
    )
    by_l = {r.l: r for r in pipeline.run(teacher, reference, data, device, SETTINGS).records}
    assert compressed == [1]
    assert by_l[2].compression_steps > 0  # the floor rewrites depth 2's tail
    for l in (2, 3):
        outcome = real_run(pipeline._with_prefix(teacher, l), device, SETTINGS.omega)
        assert not outcome.feasible
        want = pipeline.CandidateRecord(
            l=l, spec=outcome.model.spec, feasible=False, report=outcome.report,
            dropout_rounds=0, compression_steps=len(outcome.records),
        )
        assert by_l[l] == want
        assert by_l[l].to_dict() == want.to_dict()
