"""Tests for the swarm + quasi-Newton search machinery."""

from dataclasses import replace

import numpy as np
import pytest

from fockpulse import (
    CompositePulse,
    OffsetEnsemble,
    OptimizationResult,
    PsoConfig,
    RefineConfig,
    SweepSpec,
    SystemConfig,
    TargetSpec,
    composite_unitary,
    design_pulse,
    drive_eigenpairs,
    ensemble_gradients,
    ensemble_losses,
    modulus_loss,
    perturb,
    pso_search,
    refine,
    shelving_target,
    strong_drive_layout,
    swap_target,
    train_product,
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
from fockpulse.pulses import _real_drive_eigenpairs, _train_pass
from fockpulse.robustness import _SHARPNESS
from test_pulses import kernel_bar

CFG = SystemConfig(cutoff=3)
TARGET = swap_target(3, 0)
LAYOUT = weak_drive_layout(3, eta=CFG.eta, omega=0.1)
TEMPLATE = uniform_pulse_train(3, delta=1.0, omega=0.1)


def _rows(func):
    """Block objective evaluating a scalar function on every row."""
    return lambda block: np.array([func(x) for x in block])


def test_pso_config_rejects_bad_values():
    with pytest.raises(ValueError, match="particles"):
        PsoConfig(particles=4)
    with pytest.raises(ValueError, match="iterations"):
        PsoConfig(iterations=0)


@pytest.mark.parametrize(
    "make, bad",
    [
        (PsoConfig, {"particles": 8.5}),
        (PsoConfig, {"iterations": "30"}),
        (PsoConfig, {"seed": "1"}),
        (PsoConfig, {"seed": False}),
        (RefineConfig, {"max_iters": 10.0}),
    ],
)
def test_configs_reject_non_integer_counts_and_seeds(make, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        make(**bad)
    assert PsoConfig(particles=np.int64(8), seed=np.int64(3)).seed == 3


def test_pso_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        PsoConfig(seed=-1)


def test_refine_config_rejects_bad_values():
    with pytest.raises(ValueError, match="max_iters"):
        RefineConfig(max_iters=0)
    with pytest.raises(ValueError, match="tolerance"):
        RefineConfig(tolerance=0.0)
    for tolerance in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            RefineConfig(tolerance=tolerance)


def test_pso_engine_solves_shifted_quadratic():
    center = np.array([0.7, -1.3])
    lower = np.array([-3.0, -3.0])
    upper = np.array([3.0, 3.0])

    def func(x):
        return float(np.sum((x - center) ** 2))

    pcfg = PsoConfig(particles=32, iterations=200, seed=7)
    tracked = _TrackedObjective(_rows(func), lower, upper)
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

    _, loss = _pso_minimize(
        _rows(func), lower, upper, PsoConfig(particles=8, iterations=50, seed=0)
    )
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
    tracked = _TrackedObjective(_rows(func), lower, upper)
    x, loss = _pso_minimize(tracked, lower, upper, pcfg)
    assert np.isfinite(loss)
    assert np.allclose(x, center, atol=1e-3)
    assert all(np.isfinite(value) for _, value in tracked.history)

    _, loss = _pso_minimize(
        _rows(lambda x: float("nan")), lower, upper, PsoConfig(particles=8, iterations=3)
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
    # the nominal loss is ensemble_losses on the real frame's eigenpairs, bit for bit
    real = _real_drive_eigenpairs(CFG, 1.0, 0.1)
    durations, phases = [x[:3]], [[0.0, *x[3:]]]
    pinned = ensemble_losses(*real, durations, phases, TARGET, OffsetEnsemble(()))
    assert nominal(x[None]).tolist() == alone(x[None]).tolist() == pinned.tolist()
    # the lab frame and the reference agree with it within the kernel's bar
    cp = LAYOUT.unpack(x, TEMPLATE)
    lab = modulus_loss(
        train_product(*drive_eigenpairs(CFG, 1.0, 0.1), durations, phases), TARGET
    )
    reference = modulus_loss(composite_unitary(CFG, cp), TARGET)
    bar = kernel_bar(CFG, cp)
    assert abs(lab[0] - pinned[0]) <= bar and abs(reference - pinned[0]) <= bar

    # the -300 offset drives every duration below zero, so it is clamped
    specs = (
        SweepSpec(axis="phase", lower=-0.5, upper=0.5, points=3),
        SweepSpec(axis="duration", lower=-300.0, upper=40.0, points=4),
    )
    weights = (3.0, 1.0)
    robust = _pulse_objective(
        CFG, TEMPLATE, LAYOUT, TARGET, OffsetEnsemble(specs, weights=weights)
    )
    members = [(1.0, cp)] + [
        (weight, perturb(cp, spec.axis, float(offset), spec.which)[0])
        for spec, weight in zip(specs, weights)
        for offset in spec.offsets()
    ]
    assert len(members) == 1 + 3 + 4
    # the member losses the objective aggregates: the kernel's, in the real frame
    framed = _train_pass(
        *real,
        np.array([[p.t for p in member] for _, member in members]),
        np.array([[p.phi for p in member] for _, member in members]),
    )[0]
    losses = np.array([weight for weight, _ in members]) * modulus_loss(framed, TARGET)
    m, s = losses.max(), _SHARPNESS
    by_hand = m + np.log(np.mean(np.exp(s * (losses - m)))) / s
    [value] = robust(x[None])
    assert value == pytest.approx(by_hand, rel=1e-13)
    assert m - np.log(losses.size) / s <= value <= m
    # each of them agrees with the reference's within the kernel's bar
    for (weight, member), loss in zip(members, losses):
        reference = weight * modulus_loss(composite_unitary(CFG, member), TARGET)
        assert abs(reference - loss) <= weight * kernel_bar(CFG, member)


@pytest.mark.parametrize("strong", [False, True])
def test_block_rows_do_not_depend_on_their_block(strong):
    cfg = SystemConfig(cutoff=3)
    omega = 1.0 if strong else 0.1
    layout = (strong_drive_layout if strong else weak_drive_layout)(
        3, eta=cfg.eta, omega=omega
    )
    template = uniform_pulse_train(3, delta=1.0, omega=omega)
    target = shelving_target(3, 0) if strong else TARGET
    ensemble = OffsetEnsemble(
        (
            SweepSpec(axis="phase", lower=-0.5, upper=0.5, points=3),
            SweepSpec(axis="duration", lower=-300.0, upper=40.0, points=4),
            SweepSpec(axis="duration", lower=-5.0, upper=5.0, points=3, which=1),
        ),
        weights=(2.0, 1.0, 0.5),
    )
    lower, upper = layout.slot_bounds()
    block = lower + (upper - lower) * np.random.default_rng(9).random((64, layout.dim))
    nominal = _pulse_objective(cfg, template, layout, target)
    robust = _pulse_objective(cfg, template, layout, target, ensemble)
    exact = _pulse_objective(cfg, template, layout, target, ensemble, gradient=True)
    losses, robust_losses = nominal(block), robust(block)
    _, grads = exact(block)
    for i in (0, 31, 63):
        row = block[i : i + 1]
        assert nominal(row)[0] == losses[i]
        assert robust(row)[0] == robust_losses[i]
        assert np.array_equal(exact(row)[1][0], grads[i])
        cp = layout.unpack(block[i], template)
        assert robust(layout.pack(cp)[None])[0] == robust_losses[i]
        assert modulus_loss(composite_unitary(cfg, cp), target) == pytest.approx(
            losses[i], abs=1e-12
        )


def test_pulse_objective_needs_one_drive_across_the_template():
    mixed = CompositePulse(TEMPLATE.pulses[:2] + (replace(TEMPLATE[2], delta=1.1),))
    with pytest.raises(ValueError, match="one drive"):
        _pulse_objective(CFG, mixed, LAYOUT, TARGET)
    # a freed detuning overrides the template's, so only the Rabi rate must agree
    strong = strong_drive_layout(3, eta=CFG.eta, omega=0.1)
    lower, upper = strong.slot_bounds()
    assert _pulse_objective(CFG, mixed, strong, TARGET)(lower[None]).shape == (1,)


@pytest.mark.parametrize("strong", [False, True])
def test_seeded_design_repeats_bit_for_bit(strong):
    pcfg = PsoConfig(particles=16, iterations=20, seed=4)
    rcfg = RefineConfig(max_iters=20)
    omega = 1.0 if strong else 0.1
    layout = (strong_drive_layout if strong else weak_drive_layout)(
        3, eta=CFG.eta, omega=omega
    )
    template = uniform_pulse_train(3, delta=1.0, omega=omega)
    target = shelving_target(3, 0) if strong else TARGET
    runs = [
        design_pulse(CFG, template, layout, target, pcfg, rcfg, starts=2, refine_top=1)
        for _ in range(2)
    ]
    a, b = runs
    assert a.pulse == b.pulse
    assert (a.loss, a.evaluations, a.history) == (b.loss, b.evaluations, b.history)


def test_robust_search_reports_the_ensemble_loss():
    ensemble = OffsetEnsemble(
        (SweepSpec(axis="duration", lower=-20.0, upper=20.0, points=3),)
    )
    pcfg = PsoConfig(particles=8, iterations=5, seed=3)
    plain = pso_search(CFG, TEMPLATE, LAYOUT, TARGET, pcfg)
    robust = pso_search(CFG, TEMPLATE, LAYOUT, TARGET, pcfg, ensemble=ensemble)
    objective = _pulse_objective(CFG, TEMPLATE, LAYOUT, TARGET, ensemble)
    assert robust.loss == objective(LAYOUT.pack(robust.pulse)[None])[0]
    assert robust.loss != plain.loss
    polished = refine(
        CFG, robust.pulse, LAYOUT, TARGET, RefineConfig(max_iters=5), ensemble=ensemble
    )
    assert polished.loss <= robust.loss
    assert polished.loss == pytest.approx(
        objective(LAYOUT.pack(polished.pulse)[None])[0], abs=1e-12
    )


def test_gradient_matches_analytic_on_smooth_function():
    def func(x):
        return float(np.sin(x[0]) + x[1] ** 2 * np.cos(x[0]))

    x = np.array([0.4, 1.2])
    expected = np.array(
        [np.cos(x[0]) - x[1] ** 2 * np.sin(x[0]), 2 * x[1] * np.cos(x[0])]
    )
    grad = finite_difference_gradient(_rows(func), x, 1e-6)
    assert np.allclose(grad, expected, rtol=1e-4)


def test_gradient_raises_on_nonfinite_difference():
    def func(x):
        return float("nan") if x[1] != 0.25 else 1.0

    with pytest.raises(FloatingPointError, match="coordinate 1"):
        finite_difference_gradient(_rows(func), np.array([0.5, 0.25]), 1e-6)


# Objectives for the exact gradient: (cfg, layout, template, target,
# ensemble).  They score on the real frame's eigenpairs, one drive shared by
# every row (weak) or one per row (strong).  The robust ones' -300 duration
# offset clamps members to zero.
CLAMPING = OffsetEnsemble(
    (
        SweepSpec(axis="phase", lower=-0.5, upper=0.5, points=3),
        SweepSpec(axis="duration", lower=-300.0, upper=40.0, points=4),
        SweepSpec(axis="duration", lower=-5.0, upper=5.0, points=3, which=1),
    ),
    weights=(2.0, 1.0, 0.5),
)
GRADIENT_CASES = {
    "weak-swap-c3": (CFG, LAYOUT, TEMPLATE, TARGET, None),
    "strong-shelve-c6": (
        SystemConfig(cutoff=6),
        strong_drive_layout(4, eta=CFG.eta, omega=1.0),
        uniform_pulse_train(4, delta=1.0, omega=1.0),
        shelving_target(6, 0),
        None,
    ),
    "strong-shelve-c6-offset7": (
        SystemConfig(cutoff=6, fock_offset=7),
        strong_drive_layout(4, eta=CFG.eta, omega=1.0),
        uniform_pulse_train(4, delta=1.0, omega=1.0),
        shelving_target(6, 0),
        None,
    ),
    "robust-clamped-c3": (CFG, LAYOUT, TEMPLATE, TARGET, CLAMPING),
    # one drive per row, repeated over every member of the ensemble
    "robust-strong-c6": (
        SystemConfig(cutoff=6),
        strong_drive_layout(4, eta=CFG.eta, omega=1.0),
        uniform_pulse_train(4, delta=1.0, omega=1.0),
        shelving_target(6, 0),
        CLAMPING,
    ),
}


def _interior_points(layout, count, seed):
    lower, upper = layout.slot_bounds()
    rng = np.random.default_rng(seed)
    return lower + (upper - lower) * (0.05 + 0.9 * rng.random((count, layout.dim)))


@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_exact_gradient_matches_central_differences(case):
    cfg, layout, template, target, ensemble = GRADIENT_CASES[case]
    value = _pulse_objective(cfg, template, layout, target, ensemble)
    exact = _pulse_objective(cfg, template, layout, target, ensemble, gradient=True)
    points = _interior_points(layout, 4, seed=len(case))
    if ensemble is not None:
        # a first pulse shorter than 300 is clamped at zero in some members
        points[:, 0] *= 0.2
        assert np.all(points[:, 0] < 300.0)
    # The oracle is the Richardson extrapolation (4 g(h/2) - g(h)) / 3 of two
    # central differences g at h = 4e-6, which cancels their h^2 truncation
    # error.  Over 80 random points of each objective (seeds 0-19) it errs by
    # at most 4.1e-7 of the gradient's scale, and the bar, 2e-6 of that scale,
    # holds at all 400.  A plain central difference at step 1e-6 misses it at
    # 6 (worst 2.5e-5, in the robust cases); the extrapolation at h = 1e-6
    # (rounding) or 1e-5 (truncation) misses it once.
    h = 4e-6
    for x in points:
        _, (grad,) = exact(x[None])
        oracle = (
            4 * finite_difference_gradient(value, x, h / 2)
            - finite_difference_gradient(value, x, h)
        ) / 3
        assert np.max(np.abs(grad - oracle)) <= 2e-6 * np.max(np.abs(oracle))


@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_exact_gradient_returns_the_ensemble_loss(case):
    cfg, layout, template, target, ensemble = GRADIENT_CASES[case]
    block = _interior_points(layout, 5, seed=2)
    losses, grads = _pulse_objective(
        cfg, template, layout, target, ensemble, gradient=True
    )(block)
    assert grads.shape == block.shape
    assert losses.tolist() == _pulse_objective(
        cfg, template, layout, target, ensemble
    )(block).tolist()
    # and the pass equals ``ensemble_losses`` on its own arguments, row by row
    durations, phases, shared = layout.decode(block, template)
    for i in range(len(block)):
        delta = template[0].delta if shared is None else shared[i]
        energies, vectors = drive_eigenpairs(cfg, delta, template[0].omega)
        args = (
            energies,
            vectors,
            durations[i : i + 1],
            phases[i : i + 1],
            target,
            OffsetEnsemble(()) if ensemble is None else ensemble,
        )
        assert ensemble_gradients(*args)[0].tolist() == ensemble_losses(*args).tolist()


def _diagonal_drive(energies):
    """Eigenpairs of a diagonal drive: every train's propagator is exactly
    diagonal, so its off-diagonal entries are exactly 0."""
    return np.asarray(energies, dtype=float), np.eye(len(energies))


def test_exact_gradient_at_the_kinks():
    durations, phases = np.array([[3.0, 1.5, 2.0]]), np.array([[0.0, 0.4, 1.1]])
    nominal = OffsetEnsemble(())
    # swap(0) asks for |u| = 1 at two entries where u is exactly 0: a
    # subgradient, finite, stands in for the undefined derivative there
    energies, vectors = _diagonal_drive(np.arange(6) * 0.7)
    args = (energies, vectors, durations, phases, TARGET, nominal)
    losses, d_t, d_phi, d_delta = ensemble_gradients(*args)
    assert losses.tolist() == ensemble_losses(*args).tolist()
    assert losses[0] > 0
    assert all(np.all(np.isfinite(part)) for part in (d_t, d_phi, d_delta))
    # a zero-loss point: the identity propagator against the identity target
    energies, vectors = _diagonal_drive(np.zeros(6))
    identity = TargetSpec(modulus=np.eye(6), mask=np.ones((6, 6), dtype=bool))
    losses, *grads = ensemble_gradients(
        energies, vectors, durations, np.zeros_like(phases), identity, nominal
    )
    assert losses.tolist() == [0.0]
    assert all(np.all(part == 0.0) for part in grads)


@pytest.mark.parametrize("score", [ensemble_losses, ensemble_gradients])
def test_ensemble_scorers_check_their_trains(score):
    energies, vectors = drive_eigenpairs(CFG, 1.0, 0.1)
    ensemble = OffsetEnsemble((SweepSpec("duration", -20, 20, 3),))

    def run(durations, phases):
        out = score(energies, vectors, durations, phases, TARGET, ensemble)
        return [part.tolist() for part in (out if isinstance(out, tuple) else (out,))]

    durations = [[30.0, 60.0, 30.0], [5.0, 40.0, 10.0]]
    phases = [[0.0, 0.9, 0.0], [0.0, 0.3, 1.2]]
    assert run(durations, phases) == run(np.array(durations), np.array(phases))
    # the kernel's one rule: an input duration is finite and >= 0; members
    # whose offsets drive a duration below 0 clamp at 0 (the -20 above)
    with pytest.raises(ValueError, match="durations must be finite and >= 0"):
        run([[30.0, -5.0, 30.0]], [[0.0, 0.9, 0.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="durations must be finite and >= 0"):
            run([[30.0, bad, 30.0]], [[0.0, 0.9, 0.0]])
        with pytest.raises(ValueError, match="phases must be finite"):
            run([[30.0, 60.0, 30.0]], [[0.0, bad, 0.0]])
    with pytest.raises(ValueError, match=r"must both be \(B, n\)"):
        run([30.0, 60.0, 30.0], [0.0, 0.9, 0.0])


def test_refine_raises_on_a_nonfinite_loss_or_gradient(monkeypatch):
    start = LAYOUT.unpack(_interior_points(LAYOUT, 1, seed=0)[0], TEMPLATE)
    nan_drive = (np.full(6, np.nan), np.eye(6))
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_real_drive_eigenpairs", lambda *args: nan_drive)
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            refine(CFG, start, LAYOUT, TARGET, RefineConfig(max_iters=5))

    def nan_slot(*args):
        losses, d_t, d_phi, d_delta = ensemble_gradients(*args)
        d_phi[:, 2] = np.nan  # the phase of pulse 2, slot 4 of the layout
        return losses, d_t, d_phi, d_delta

    monkeypatch.setattr(optimizer, "ensemble_gradients", nan_slot)
    with pytest.raises(FloatingPointError, match="coordinate 4"):
        refine(CFG, start, LAYOUT, TARGET, RefineConfig(max_iters=5))


@pytest.mark.parametrize("strong", [False, True])
def test_refine_stays_in_the_box_and_counts_one_evaluation_per_call(
    monkeypatch, strong
):
    omega = 1.0 if strong else 0.1
    layout = (strong_drive_layout if strong else weak_drive_layout)(
        3, eta=CFG.eta, omega=omega
    )
    template = uniform_pulse_train(3, delta=1.0, omega=omega)
    target = shelving_target(3, 0) if strong else TARGET
    lower, upper = layout.slot_bounds()
    # start with a slot on each kind of edge: the longest first pulse, a
    # phase at 0 and one at 2 pi, and the lowest detuning
    x0 = _interior_points(layout, 1, seed=5)[0]
    x0[0] = upper[0]
    x0[layout.count : layout.count + 2] = (0.0, upper[layout.count + 1])
    if strong:
        x0[-1] = lower[-1]
    start = layout.unpack(x0, template)
    calls = []
    build = optimizer._pulse_objective

    def spy(*args, **kwargs):
        objective = build(*args, **kwargs)

        def counted(block):
            calls.append(np.array(block))
            return objective(block)

        return counted

    monkeypatch.setattr(optimizer, "_pulse_objective", spy)
    result = refine(CFG, start, layout, target, RefineConfig(max_iters=30))
    assert result.evaluations == len(calls) > 1
    for block in calls:
        assert block.shape == (1, layout.dim)
        assert np.all(block >= lower) and np.all(block <= upper)
    assert layout.contains(layout.pack(result.pulse))


def test_tracked_objective_enforces_bounds_and_tracks_incumbent():
    tracked = _TrackedObjective(
        _rows(lambda x: float(x[0] ** 2)), np.array([-1.0]), np.array([1.0])
    )
    assert tracked(np.array([[0.5]]))[0] == 0.25
    assert tracked(np.array([[-0.25]]))[0] == 0.0625
    assert tracked(np.array([[0.9]]))[0] == pytest.approx(0.81)
    assert tracked.best_f == 0.0625
    assert tracked.best_x[0] == -0.25
    assert tracked.evaluations == 3
    assert [loss for _, loss in tracked.history] == [0.25, 0.0625]
    with pytest.raises(ValueError, match="bounds"):
        tracked(np.array([[1.5]]))


def test_tracked_objective_records_what_a_row_by_row_loop_records():
    def row_by_row(blocks):
        """The incumbent tracking of one row at a time, for reference."""
        evaluations, best_f, best_x, history = 0, np.inf, None, []
        for block in blocks:
            for x, value in zip(block, block[:, 0].tolist()):
                evaluations += 1
                if value < best_f:
                    best_f, best_x = value, x.copy()
                    history.append((evaluations, value))
        return evaluations, best_f, best_x, history

    nan, inf = np.nan, np.inf
    # ties, NaN and +-inf in one block, and across blocks
    blocks = [
        [nan, inf, 3.0, 3.0, nan, 2.0, inf, 2.0],
        [2.0, nan, 1.5, -inf, 1.0, -inf],
        [nan, nan],
        [-inf, 0.0],
    ]
    blocks = [np.column_stack([b, np.arange(len(b))]) for b in blocks]
    tracked = _TrackedObjective(
        lambda block: block[:, 0], np.full(2, -inf), np.full(2, inf)
    )
    for block in blocks:
        tracked(block)
    evaluations, best_f, best_x, history = row_by_row(blocks)
    assert (tracked.evaluations, tracked.best_f, tracked.history) == (
        evaluations,
        best_f,
        history,
    )
    assert np.array_equal(tracked.best_x, best_x)
    # +inf never improves on the start, and a tie never improves on its twin
    assert history == [(3, 3.0), (6, 2.0), (11, 1.5), (12, -inf)]
    # a block of NaN alone leaves no incumbent
    empty = _TrackedObjective(
        lambda block: block[:, 0], np.full(1, -inf), np.full(1, inf)
    )
    empty(np.full((3, 1), nan))
    assert (empty.evaluations, empty.best_f, empty.best_x, empty.history) == (
        3,
        inf,
        None,
        [],
    )


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


@pytest.mark.parametrize(
    "counts, name",
    [
        ({"starts": 2.5}, "starts"),
        ({"starts": True}, "starts"),
        ({"starts": 2, "refine_top": 1.5}, "refine_top"),
        ({"starts": 2, "refine_top": True}, "refine_top"),
    ],
)
def test_design_pulse_rejects_non_integer_stage_counts(counts, name):
    pcfg = PsoConfig(particles=8, iterations=1)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        design_pulse(CFG, TEMPLATE, LAYOUT, TARGET, pcfg, RefineConfig(), **counts)


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
