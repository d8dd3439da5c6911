"""Tests for the swarm + quasi-Newton search machinery."""

import numpy as np
import pytest

from fockpulse import (
    OffsetEnsemble,
    OptimizationResult,
    PsoConfig,
    RefineConfig,
    SweepSpec,
    SystemConfig,
    composite_unitary,
    design_pulse,
    modulus_loss,
    perturb,
    pso_search,
    refine,
    robust_loss,
    swap_target,
    uniform_pulse_train,
    weak_drive_layout,
)
from fockpulse import optimizer
from fockpulse.optimizer import (
    _pso_minimize,
    _pulse_objective,
    _TrackedObjective,
    finite_difference_gradient,
)
from fockpulse.robustness import _SHARPNESS

CFG = SystemConfig(cutoff=3)
TARGET = swap_target(3, 0)
LAYOUT = weak_drive_layout(3, eta=CFG.eta, omega=0.1)
TEMPLATE = uniform_pulse_train(3, delta=1.0, omega=0.1)


def test_pso_config_rejects_bad_values():
    with pytest.raises(ValueError, match="particles"):
        PsoConfig(particles=4)
    with pytest.raises(ValueError, match="iterations"):
        PsoConfig(iterations=0)
    with pytest.raises(ValueError, match="inertia"):
        PsoConfig(inertia=0.0)


def test_refine_config_rejects_bad_values():
    with pytest.raises(ValueError, match="max_iters"):
        RefineConfig(max_iters=0)
    with pytest.raises(ValueError, match="gradient_step"):
        RefineConfig(gradient_step=1e-2)
    with pytest.raises(ValueError, match="tolerance"):
        RefineConfig(tolerance=0.0)


def test_pso_engine_solves_shifted_quadratic():
    center = np.array([0.7, -1.3])
    lower = np.array([-3.0, -3.0])
    upper = np.array([3.0, 3.0])

    def func(x):
        return float(np.sum((x - center) ** 2))

    pcfg = PsoConfig(particles=32, iterations=200, seed=7)
    tracked = _TrackedObjective(func, lower, upper)
    x, loss = _pso_minimize(tracked, lower, upper, pcfg)
    assert np.allclose(x, center, atol=1e-3)
    assert loss < 1e-5
    assert tracked.evaluations == 32 * (200 + 1)
    traced = [value for _, value in tracked.history]
    assert traced == sorted(traced, reverse=True)


def test_pso_engine_respects_box():
    lower = np.array([1.0])
    upper = np.array([2.0])

    def func(x):
        assert lower[0] <= x[0] <= upper[0]
        return float((x[0] + 5.0) ** 2)  # minimum far outside the box

    _, loss = _pso_minimize(func, lower, upper, PsoConfig(particles=8, iterations=50, seed=0))
    # best feasible point is the lower edge
    assert loss == pytest.approx(36.0, abs=1e-6)


def test_pso_engine_never_keeps_a_nonfinite_incumbent():
    center = np.array([0.7, -1.3])
    lower = np.array([-3.0, -3.0])
    upper = np.array([3.0, 3.0])

    def func(x):
        # undefined on the left half of the box, as an overflowing loss would be
        return float("nan") if x[0] < 0 else float(np.sum((x - center) ** 2))

    pcfg = PsoConfig(particles=32, iterations=200, seed=7)
    tracked = _TrackedObjective(func, lower, upper)
    x, loss = _pso_minimize(tracked, lower, upper, pcfg)
    assert np.isfinite(loss)
    assert np.allclose(x, center, atol=1e-3)
    assert all(np.isfinite(value) for _, value in tracked.history)

    _, loss = _pso_minimize(
        lambda x: float("nan"), lower, upper, PsoConfig(particles=8, iterations=3)
    )
    assert loss == np.inf


def test_pso_search_is_seed_deterministic():
    pcfg = PsoConfig(particles=16, iterations=30, seed=11)
    a = pso_search(CFG, TEMPLATE, LAYOUT, TARGET, pcfg)
    b = pso_search(CFG, TEMPLATE, LAYOUT, TARGET, pcfg)
    assert a.loss == b.loss
    for pa, pb in zip(a.pulse, b.pulse):
        assert (pa.delta, pa.omega, pa.phi, pa.t) == (pb.delta, pb.omega, pb.phi, pb.t)

    other = pso_search(CFG, TEMPLATE, LAYOUT, TARGET, PsoConfig(particles=16, iterations=30, seed=12))
    assert other.loss != a.loss


def test_robust_objective_pins_the_ensemble_aggregate():
    x = np.array([264.46, 528.91, 264.46, 0.95, 0.0])
    nominal = _pulse_objective(CFG, TEMPLATE, LAYOUT, TARGET)
    alone = _pulse_objective(CFG, TEMPLATE, LAYOUT, TARGET, OffsetEnsemble(()))
    assert alone(x) == nominal(x)

    # the -300 offset drives every duration below zero, so it is clamped
    specs = (
        SweepSpec(axis="phase", lower=-0.5, upper=0.5, points=3),
        SweepSpec(axis="duration", lower=-300.0, upper=40.0, points=4),
    )
    weights = (3.0, 1.0)
    robust = _pulse_objective(
        CFG, TEMPLATE, LAYOUT, TARGET, OffsetEnsemble(specs, weights=weights)
    )
    cp = LAYOUT.unpack(x, TEMPLATE)
    members = [(1.0, cp)] + [
        (weight, perturb(cp, spec.axis, float(offset), spec.which)[0])
        for spec, weight in zip(specs, weights)
        for offset in spec.offsets()
    ]
    assert len(members) == 1 + 3 + 4
    losses = np.array(
        [
            weight * modulus_loss(composite_unitary(CFG, member), TARGET)
            for weight, member in members
        ]
    )
    m, s = losses.max(), _SHARPNESS
    by_hand = m + np.log(np.mean(np.exp(s * (losses - m)))) / s
    assert robust(x) == pytest.approx(by_hand, rel=1e-13)
    assert m - np.log(losses.size) / s <= robust(x) <= m


def test_robust_search_reports_the_ensemble_loss():
    ensemble = OffsetEnsemble(
        (SweepSpec(axis="duration", lower=-20.0, upper=20.0, points=3),)
    )
    pcfg = PsoConfig(particles=8, iterations=5, seed=3)
    plain = pso_search(CFG, TEMPLATE, LAYOUT, TARGET, pcfg)
    robust = pso_search(CFG, TEMPLATE, LAYOUT, TARGET, pcfg, ensemble=ensemble)
    assert robust.loss == robust_loss(CFG, robust.pulse, TARGET, ensemble)
    assert robust.loss != plain.loss
    polished = refine(
        CFG, robust.pulse, LAYOUT, TARGET, RefineConfig(max_iters=5), ensemble=ensemble
    )
    assert polished.loss <= robust.loss
    assert polished.loss == pytest.approx(
        robust_loss(CFG, polished.pulse, TARGET, ensemble), abs=1e-12
    )


def test_gradient_matches_analytic_on_smooth_function():
    def func(x):
        return float(np.sin(x[0]) + x[1] ** 2 * np.cos(x[0]))

    x = np.array([0.4, 1.2])
    expected = np.array(
        [np.cos(x[0]) - x[1] ** 2 * np.sin(x[0]), 2 * x[1] * np.cos(x[0])]
    )
    grad = finite_difference_gradient(func, x, 1e-6)
    assert np.allclose(grad, expected, rtol=1e-4)


def test_gradient_near_bound_stays_feasible_and_accurate():
    lower = np.array([0.0, 0.0])
    upper = np.array([1.0, 1.0])
    probes = []

    def func(x):
        probes.append(x.copy())
        return float(np.exp(x[0]) + 3.0 * x[1])

    x = np.array([0.0, 1.0])  # both coordinates pinned to a bound
    grad = finite_difference_gradient(func, x, 1e-6, lower, upper)
    for probe in probes:
        assert np.all(probe >= lower) and np.all(probe <= upper)
    assert grad[0] == pytest.approx(1.0, rel=1e-4)
    assert grad[1] == pytest.approx(3.0, rel=1e-4)


def test_gradient_raises_on_nonfinite_difference():
    def func(x):
        return float("nan") if x[1] != 0.25 else 1.0

    with pytest.raises(FloatingPointError, match="coordinate 1"):
        finite_difference_gradient(func, np.array([0.5, 0.25]), 1e-6)


def test_tracked_objective_enforces_bounds_and_tracks_incumbent():
    tracked = _TrackedObjective(
        lambda x: float(x[0] ** 2), np.array([-1.0]), np.array([1.0])
    )
    assert tracked(np.array([0.5])) == 0.25
    assert tracked(np.array([-0.25])) == 0.0625
    assert tracked(np.array([0.9])) == pytest.approx(0.81)
    assert tracked.best_f == 0.0625
    assert tracked.best_x[0] == -0.25
    assert tracked.evaluations == 3
    assert [loss for _, loss in tracked.history] == [0.25, 0.0625]
    with pytest.raises(ValueError, match="bounds"):
        tracked(np.array([1.5]))


def test_refine_never_worse_than_start():
    coarse = pso_search(
        CFG, TEMPLATE, LAYOUT, TARGET, PsoConfig(particles=16, iterations=40, seed=3)
    )
    polished = refine(CFG, coarse.pulse, LAYOUT, TARGET, RefineConfig(max_iters=100))
    assert polished.loss <= coarse.loss
    # the reported pulse really achieves the reported loss
    recomputed = modulus_loss(composite_unitary(CFG, polished.pulse), TARGET)
    assert recomputed == pytest.approx(polished.loss, abs=1e-12)


def test_refine_rejects_start_outside_bounds():
    bad = uniform_pulse_train(3, delta=1.0, omega=0.1, t=1e6)
    with pytest.raises(ValueError, match="outside"):
        refine(CFG, bad, LAYOUT, TARGET, RefineConfig())


def test_design_pulse_validates_stage_counts():
    pcfg = PsoConfig(particles=8, iterations=1)
    with pytest.raises(ValueError, match="starts"):
        design_pulse(CFG, TEMPLATE, LAYOUT, TARGET, pcfg, RefineConfig(), starts=0)
    with pytest.raises(ValueError, match="refine_top"):
        design_pulse(
            CFG, TEMPLATE, LAYOUT, TARGET, pcfg, RefineConfig(), starts=2, refine_top=3
        )


@pytest.mark.parametrize("gap, shorter_wins", [(1e-13, True), (1e-9, False)])
def test_design_pulse_breaks_loss_ties_by_duration(monkeypatch, gap, shorter_wins):
    def result(t: float, loss: float) -> OptimizationResult:
        pulse = uniform_pulse_train(3, delta=1.0, omega=0.1, t=t)
        return OptimizationResult(
            pulse=pulse, loss=loss, evaluations=10, history=[(1, loss)]
        )

    # The swarm's start is shorter; refinement lowers the loss by ``gap`` but
    # lengthens the pulse.
    short = result(60.0, 0.25 + gap)
    long = result(100.0, 0.25)
    monkeypatch.setattr(optimizer, "pso_search", lambda *args, **kwargs: short)
    monkeypatch.setattr(optimizer, "refine", lambda *args, **kwargs: long)
    pcfg = PsoConfig(particles=8, iterations=1)
    out = design_pulse(
        CFG, TEMPLATE, LAYOUT, TARGET, pcfg, RefineConfig(), starts=1, refine_top=1
    )
    winner = short if shorter_wins else long
    assert out.pulse is winner.pulse
    assert out.loss == winner.loss
    assert out.evaluations == 20


def test_design_pulse_beats_single_stage_and_reports_history():
    pcfg = PsoConfig(particles=16, iterations=40, seed=5)
    rcfg = RefineConfig(max_iters=100)
    single = pso_search(CFG, TEMPLATE, LAYOUT, TARGET, pcfg)
    full = design_pulse(
        CFG, TEMPLATE, LAYOUT, TARGET, pcfg, rcfg, starts=2, refine_top=2
    )
    assert full.loss <= single.loss
    assert full.evaluations > single.evaluations
    traced = [loss for _, loss in full.history]
    assert traced == sorted(traced, reverse=True)
    assert traced[-1] == pytest.approx(full.loss, abs=1e-12)
    packed = LAYOUT.pack(full.pulse)
    assert LAYOUT.contains(packed)


def test_design_history_is_indexed_by_objective_evaluations():
    pcfg = PsoConfig(particles=16, iterations=40, seed=11)
    rcfg = RefineConfig(max_iters=60)
    full = design_pulse(
        CFG, TEMPLATE, LAYOUT, TARGET, pcfg, rcfg, starts=2, refine_top=2
    )
    xs = [x for x, _ in full.history]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert 1 <= xs[0] and xs[-1] <= full.evaluations
    assert full.history[-1][1] == full.loss
    # the refined candidate wins, so the trace ends past both swarm starts
    assert xs[-1] > 2 * pcfg.particles * (pcfg.iterations + 1)
