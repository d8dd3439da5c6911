"""Tests for population readout, the coefficient matrix, and the correction solve."""

import numpy as np
import pytest

from fockpulse import (
    CompositePulse,
    IllConditionedError,
    PhononDistribution,
    PsoConfig,
    PulseParams,
    RefineConfig,
    SystemConfig,
    build_hamiltonian,
    coefficient_matrix,
    composite_unitary,
    correct_populations,
    excitation_profile,
    run_thermometry,
    simulate_measurements,
    thermal_distribution,
    thermometry,
    uniform_pulse_train,
    weak_drive_layout,
)


def test_distribution_validates_and_renormalizes():
    dist = PhononDistribution(populations=np.array([0.5, 0.25, 0.25]))
    assert dist.populations.sum() == pytest.approx(1.0, abs=1e-15)
    assert len(dist) == 3
    assert dist.mean == pytest.approx(0.75)
    assert not dist.populations.flags.writeable

    with pytest.raises(ValueError, match="nonnegative"):
        PhononDistribution(populations=np.array([1.2, -0.2]))
    with pytest.raises(ValueError, match="sum to 1"):
        PhononDistribution(populations=np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="nonempty"):
        PhononDistribution(populations=np.array([]))
    # NaN passes both the sign and the sum check unless rejected first.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PhononDistribution(populations=np.array([bad, 1.0]))


@pytest.mark.parametrize("populations", [[True, False], ["0.5", "0.5"]])
def test_distribution_rejects_booleans_and_strings(populations):
    with pytest.raises(ValueError, match="populations must be a number"):
        PhononDistribution(populations=populations)


def test_thermal_distribution_matches_geometric_form():
    dist = thermal_distribution(1.0, 60)
    # nbar = 1 gives P_n = 2^-(n+1)
    assert dist.populations[0] == pytest.approx(0.5, abs=1e-12)
    assert dist.populations[1] == pytest.approx(0.25, abs=1e-12)
    ratios = dist.populations[1:] / dist.populations[:-1]
    assert np.allclose(ratios, 0.5, atol=1e-12)
    assert dist.mean == pytest.approx(1.0, abs=1e-9)


def test_thermal_distribution_edge_cases():
    cold = thermal_distribution(0.0, 5)
    assert cold.populations[0] == 1.0
    assert np.all(cold.populations[1:] == 0.0)

    hot = thermal_distribution(50.0, 200)
    assert hot.populations.sum() == pytest.approx(1.0, abs=1e-12)
    assert hot.mean < 50.0  # truncation can only lower the mean

    with pytest.raises(ValueError, match="nbar"):
        thermal_distribution(-0.1, 10)
    with pytest.raises(ValueError, match="cutoff"):
        thermal_distribution(1.0, 0)
    for cutoff in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            thermal_distribution(1.0, cutoff)
    for nbar in (np.nan, np.inf):
        with pytest.raises(ValueError, match="nbar must be finite"):
            thermal_distribution(nbar, 10)
    for nbar in ("1", None, True):
        with pytest.raises(ValueError, match="nbar must be a number"):
            thermal_distribution(nbar, 5)


def test_coefficient_matrix_selects_window_columns_above_the_offset():
    cfg = SystemConfig(cutoff=4, fock_offset=24)
    pulses = _probe_pulses(2)
    coeff = coefficient_matrix(cfg, pulses, [24, 26])
    assert coeff.shape == (2, 2)
    for m, cp in enumerate(pulses):
        profile = excitation_profile(composite_unitary(cfg, cp))
        assert coeff[m].tolist() == [profile[0], profile[2]]


def test_coefficient_matrix_rejects_bad_windows():
    cfg = SystemConfig(cutoff=3)
    with pytest.raises(ValueError, match="3 pulses"):
        coefficient_matrix(cfg, _probe_pulses(3), [0, 1])
    with pytest.raises(ValueError, match=r"\[5\] lie outside the design space"):
        coefficient_matrix(cfg, _probe_pulses(3), [0, 1, 5])


@pytest.mark.parametrize(
    "window, message",
    [
        ([0, 1.5], "window state must be an integer"),
        ([True, 1], "window state must be an integer"),
        ([1, 1], "distinct"),
        ([], "at least one state"),
        (5, "window must be a list of states, got 5"),
    ],
)
def test_coefficient_matrix_checks_window_states(window, message):
    with pytest.raises(ValueError, match=message):
        coefficient_matrix(SystemConfig(cutoff=4), _probe_pulses(2), window)


def test_simulate_measurements_requires_matching_truth_size():
    cfg = SystemConfig(cutoff=6)
    pulses = [uniform_pulse_train(2, delta=1.0, omega=0.1)]
    with pytest.raises(ValueError, match="truth space"):
        simulate_measurements(cfg, pulses, thermal_distribution(1.0, 5))


def test_simulate_measurements_zero_drive_measures_nothing():
    cfg = SystemConfig(cutoff=6)
    quiet = uniform_pulse_train(2, delta=1.0, omega=0.0)
    measured = simulate_measurements(cfg, [quiet], thermal_distribution(1.0, 6))
    assert measured.shape == (1,)
    assert measured[0] == pytest.approx(0.0, abs=1e-15)


def _train(*pulses: tuple[float, float, float, float]) -> CompositePulse:
    return CompositePulse(tuple(PulseParams(*p) for p in pulses))


# (delta, omega, phi, t) per pulse: two detunings inside one train, two Rabi
# rates across trains, and a zero-length pulse.
MIXED_TRAINS = [
    _train((1.0, 0.1, 0.0, 180.0), (0.8, 0.1, 1.3, 95.0), (1.0, 0.1, 2.9, 140.0)),
    _train((1.0, 0.1, 0.0, 60.0), (1.0, 0.1, 0.4, 0.0), (1.0, 0.1, 4.1, 210.0)),
    _train((1.4, 1.0, 0.0, 7.5), (1.4, 1.0, 5.2, 12.0)),
]


@pytest.mark.parametrize("fock_offset", [0, 7])
def test_simulate_measurements_matches_reference_profiles(fock_offset):
    cfg = SystemConfig(cutoff=12, fock_offset=fock_offset)
    dist = thermal_distribution(2.0, cfg.cutoff)
    measured = simulate_measurements(cfg, MIXED_TRAINS, dist)
    assert measured.shape == (len(MIXED_TRAINS),)
    for m, cp in zip(measured, MIXED_TRAINS):
        # 1e-12 per unit of duration x spectral radius, per matrix dimension
        horizon = sum(
            p.t
            * np.abs(build_hamiltonian(cfg, delta=p.delta, omega=p.omega, phi=p.phi))
            .sum(axis=1)
            .max()
            for p in cp
        )
        expected = excitation_profile(composite_unitary(cfg, cp)) @ dist.populations
        assert abs(m - expected) <= 1e-12 * max(1.0, horizon) * cfg.dim


def _count_eigh(monkeypatch) -> list[int]:
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_simulate_measurements_takes_one_eigh_per_drive(monkeypatch):
    cfg = SystemConfig(cutoff=8)
    dist = thermal_distribution(1.0, 8)
    shared = _probe_pulses(4)  # every pulse at delta 1, omega 0.1
    simulate_measurements(cfg, shared, dist)  # fills the cached displacement
    calls = _count_eigh(monkeypatch)
    simulate_measurements(cfg, shared, dist)
    assert calls == [cfg.dim]

    own = [
        _train((delta, 1.0, 0.0, 9.0), (delta, 1.0, 0.8, 5.0))
        for delta in (0.5, 1.0, 1.5, 2.0)
    ]
    calls.clear()
    simulate_measurements(cfg, own, dist)
    assert calls == [cfg.dim] * len(own)


def test_correct_populations_identity_returns_measured():
    measured = np.array([0.4, 0.3, 0.2, 0.1])
    corrected, condition = correct_populations(np.eye(4), measured)
    assert np.allclose(corrected, measured, atol=1e-15)
    assert condition == pytest.approx(1.0)


def test_correct_populations_inverts_known_mixing():
    rng = np.random.default_rng(42)
    truth = rng.random(5)
    coeff = np.eye(5) + 0.05 * rng.random((5, 5))
    measured = coeff @ truth
    corrected, condition = correct_populations(coeff, measured)
    assert np.allclose(corrected, truth, atol=1e-10)
    assert condition < 10


def test_correct_populations_rejects_singular_and_near_singular():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(IllConditionedError):
        correct_populations(singular, np.array([0.5, 0.5]))

    nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
    with pytest.raises(IllConditionedError) as info:
        correct_populations(nearly, np.array([0.5, 0.5]))
    assert info.value.condition_number > 1e8


def test_correct_populations_shape_errors():
    with pytest.raises(ValueError, match="square"):
        correct_populations(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="does not match"):
        correct_populations(np.eye(3), np.ones(2))


@pytest.mark.parametrize(
    "coeff, measured, message",
    [
        (np.eye(2), [np.nan, 0.5], "measured vector must be finite"),
        (np.eye(2), [0.5, np.inf], "measured vector must be finite"),
        ([[1.0, np.nan], [0.0, 1.0]], [0.5, 0.5], "coefficient matrix must be finite"),
        ([[1.0, 0.0], [0.0, np.inf]], [0.5, 0.5], "coefficient matrix must be finite"),
        # values that are not real numbers are not read as their real part or 0/1
        (np.eye(2) * (1 + 1j), [0.5, 0.5], "coefficient matrix must hold real"),
        (np.eye(2), [True, False], "measured vector must hold real"),
        (np.eye(2), ["0.5", "0.5"], "measured vector must hold real"),
    ],
)
def test_correct_populations_rejects_non_finite_input(coeff, measured, message):
    with pytest.raises(ValueError, match=message) as info:
        correct_populations(coeff, measured)
    assert not isinstance(info.value, IllConditionedError)


def _probe_pulses(count: int) -> list[CompositePulse]:
    """Distinct but otherwise arbitrary short composites for plumbing tests."""
    pulses = []
    for k in range(count):
        pulses.append(
            CompositePulse(
                pulses=(
                    PulseParams(delta=1.0, omega=0.1, phi=0.0, t=40.0 + 17.0 * k),
                    PulseParams(delta=1.0, omega=0.1, phi=0.7 * k, t=60.0 + 5.0 * k),
                )
            )
        )
    return pulses


def test_run_thermometry_with_supplied_pulses():
    cfg_design = SystemConfig(cutoff=4)
    cfg_truth = SystemConfig(cutoff=30)
    window = [0, 1, 2, 3]
    dist = thermal_distribution(1.0, 30)
    pulses = _probe_pulses(4)
    layout = weak_drive_layout(2, eta=cfg_design.eta, omega=0.1)
    template = uniform_pulse_train(2, delta=1.0, omega=0.1)

    result = run_thermometry(
        cfg_design,
        cfg_truth,
        window,
        dist,
        template,
        layout,
        PsoConfig(particles=8, iterations=1),
        RefineConfig(max_iters=1),
        pulses=pulses,
    )
    assert result.window == window
    assert result.coeff.shape == (4, 4)
    assert np.all(result.coeff >= 0) and np.all(result.coeff <= 1)
    assert np.all(np.isnan(result.design_losses))
    # the solve really satisfies a . R = M
    assert np.allclose(result.coeff @ result.corrected, result.measured, atol=1e-12)
    assert np.allclose(result.truth, dist.populations[:4])
    rows = result.rows()
    assert [r[0] for r in rows] == window
    assert rows[1][1] == pytest.approx(dist.populations[1])


def test_run_thermometry_validates_inputs():
    cfg_design = SystemConfig(cutoff=4)
    cfg_truth = SystemConfig(cutoff=20)
    dist = thermal_distribution(0.5, 20)
    layout = weak_drive_layout(2, eta=cfg_design.eta, omega=0.1)
    template = uniform_pulse_train(2, delta=1.0, omega=0.1)
    pcfg = PsoConfig(particles=8, iterations=1)
    rcfg = RefineConfig(max_iters=1)

    with pytest.raises(ValueError, match="distinct"):
        run_thermometry(
            cfg_design, cfg_truth, [0, 0], dist, template, layout, pcfg, rcfg
        )
    shifted = SystemConfig(cutoff=20, fock_offset=1)
    with pytest.raises(ValueError, match="Fock index 0"):
        run_thermometry(
            cfg_design, shifted, [0, 1], dist, template, layout, pcfg, rcfg
        )
    with pytest.raises(ValueError, match="2 pulses"):
        run_thermometry(
            cfg_design,
            cfg_truth,
            [0, 1, 2],
            dist,
            template,
            layout,
            pcfg,
            rcfg,
            pulses=_probe_pulses(2),
        )


def test_run_thermometry_rejects_a_non_integer_window_state():
    cfg_design, cfg_truth = SystemConfig(cutoff=4), SystemConfig(cutoff=20)
    with pytest.raises(ValueError, match="window state must be an integer"):
        run_thermometry(
            cfg_design,
            cfg_truth,
            [0, 1.5],
            thermal_distribution(0.5, 20),
            uniform_pulse_train(2, delta=1.0, omega=0.1),
            weak_drive_layout(2, eta=cfg_design.eta, omega=0.1),
            PsoConfig(particles=8, iterations=1),
            RefineConfig(max_iters=1),
            pulses=_probe_pulses(2),
        )


def test_run_thermometry_rejects_an_empty_window_before_designing(monkeypatch):
    def no_design(*args, **kwargs):
        raise AssertionError("the design stage ran")

    monkeypatch.setattr(thermometry, "design_pulse", no_design)
    cfg_design = SystemConfig(cutoff=4)
    with pytest.raises(ValueError, match="at least one state"):
        run_thermometry(
            cfg_design,
            SystemConfig(cutoff=20),
            [],
            thermal_distribution(0.5, 20),
            uniform_pulse_train(2, delta=1.0, omega=0.1),
            weak_drive_layout(2, eta=cfg_design.eta, omega=0.1),
            PsoConfig(particles=8, iterations=1),
            RefineConfig(max_iters=1),
        )


def test_run_thermometry_checks_the_truth_space_before_designing(monkeypatch):
    cfg_design = SystemConfig(cutoff=4, fock_offset=5)
    cfg_truth = SystemConfig(cutoff=5)
    layout = weak_drive_layout(2, eta=cfg_design.eta, omega=0.1)
    template = uniform_pulse_train(2, delta=1.0, omega=0.1)
    pcfg = PsoConfig(particles=8, iterations=1)
    rcfg = RefineConfig(max_iters=1)

    def no_design(*args, **kwargs):
        raise AssertionError("the design stage ran")

    monkeypatch.setattr(thermometry, "design_pulse", no_design)
    with pytest.raises(ValueError, match="outside the truth space"):
        run_thermometry(
            cfg_design,
            cfg_truth,
            [7],
            thermal_distribution(1.0, 5),
            template,
            layout,
            pcfg,
            rcfg,
        )
    with pytest.raises(ValueError, match="truth space retains 5 levels"):
        run_thermometry(
            cfg_design,
            cfg_truth,
            [0],
            thermal_distribution(1.0, 6),
            template,
            layout,
            pcfg,
            rcfg,
        )


def test_run_thermometry_duplicate_pulses_hit_condition_guard():
    cfg_design = SystemConfig(cutoff=4)
    cfg_truth = SystemConfig(cutoff=20)
    dist = thermal_distribution(1.0, 20)
    layout = weak_drive_layout(2, eta=cfg_design.eta, omega=0.1)
    template = uniform_pulse_train(2, delta=1.0, omega=0.1)
    same = _probe_pulses(1) * 2  # identical rows make the matrix singular

    with pytest.raises(IllConditionedError):
        run_thermometry(
            cfg_design,
            cfg_truth,
            [0, 1],
            dist,
            template,
            layout,
            PsoConfig(particles=8, iterations=1),
            RefineConfig(max_iters=1),
            pulses=same,
        )


def test_run_thermometry_checks_the_design_space_before_designing(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the design stage ran")

    monkeypatch.setattr(thermometry, "design_pulse", counted)
    cfg_design = SystemConfig(cutoff=4)
    with pytest.raises(ValueError, match=r"\[7\] lie outside the design space"):
        run_thermometry(
            cfg_design,
            SystemConfig(cutoff=20),
            [0, 1, 7],
            thermal_distribution(1.0, 20),
            uniform_pulse_train(2, delta=1.0, omega=0.1),
            weak_drive_layout(2, eta=cfg_design.eta, omega=0.1),
            PsoConfig(particles=8, iterations=1),
            RefineConfig(max_iters=1),
        )
    assert calls == []


def test_coefficient_matrix_columns_are_profile_entries():
    cfg = SystemConfig(cutoff=4)
    pulses = _probe_pulses(2)
    coeff = coefficient_matrix(cfg, pulses, [1, 3])
    profile0 = excitation_profile(composite_unitary(cfg, pulses[0]))
    assert coeff[0, 0] == pytest.approx(profile0[1], abs=1e-15)
    assert coeff[0, 1] == pytest.approx(profile0[3], abs=1e-15)
