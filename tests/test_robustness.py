"""Tests for offset sweeps and pulse perturbation."""

import numpy as np
import pytest

from fockpulse import (
    CompositePulse,
    OffsetEnsemble,
    PulseParams,
    SweepSpec,
    SystemConfig,
    TransitionProbe,
    composite_unitary,
    excitation_profile,
    perturb,
    sweep,
    uniform_pulse_train,
)
from fockpulse.robustness import SweepResult, _offset_table

CFG = SystemConfig(cutoff=4)
TRAIN = CompositePulse(
    pulses=(
        PulseParams(delta=1.0, omega=0.1, phi=0.0, t=80.0),
        PulseParams(delta=1.0, omega=0.1, phi=1.1, t=120.0),
        PulseParams(delta=1.0, omega=0.1, phi=2.3, t=50.0),
    )
)


def test_spec_validation():
    with pytest.raises(ValueError, match="axis"):
        SweepSpec(axis="detuning", lower=-1, upper=1, points=5)
    with pytest.raises(ValueError, match="contain 0"):
        SweepSpec(axis="phase", lower=0.5, upper=1.0, points=5)
    with pytest.raises(ValueError, match="points"):
        SweepSpec(axis="phase", lower=-1, upper=1, points=2)
    with pytest.raises(ValueError, match="lower must be finite"):
        SweepSpec(axis="duration", lower=-np.inf, upper=1, points=5)
    with pytest.raises(ValueError, match="which must be an integer"):
        SweepSpec(axis="duration", lower=-1, upper=1, points=5, which=True)
    spec = SweepSpec(axis="duration", lower=-10, upper=10, points=5)
    assert np.allclose(spec.offsets(), [-10, -5, 0, 5, 10])


def test_offset_ensemble_validation_and_members():
    with pytest.raises(ValueError, match="SweepSpec"):
        OffsetEnsemble(("duration",))
    spec = SweepSpec(axis="duration", lower=-100, upper=100, points=3)
    with pytest.raises(ValueError, match="1 specs"):
        OffsetEnsemble([spec], weights=(1.0, 2.0))
    with pytest.raises(ValueError, match="positive"):
        OffsetEnsemble([spec], weights=(0.0,))
    with pytest.raises(ValueError, match="weight must be a number"):
        OffsetEnsemble([spec], weights=("1",))
    assert OffsetEnsemble([spec]).weights == (1.0,)
    weights, dt, _ = OffsetEnsemble([spec], weights=(3.0,)).offsets(len(TRAIN))
    assert weights.tolist() == [1.0, 3.0, 3.0, 3.0]
    members = [TRAIN] + [
        perturb(TRAIN, "duration", float(offset))[0] for offset in spec.offsets()
    ]
    # -100 clamps the first and last pulse at zero
    totals = np.maximum([p.t for p in TRAIN] + dt, 0.0).sum(axis=1).tolist()
    assert totals == [m.total_duration for m in members] == [250.0, 20.0, 250.0, 550.0]


def test_offset_arrays_build_the_members():
    ensemble = OffsetEnsemble(
        (
            SweepSpec(axis="duration", lower=-100, upper=100, points=3),
            SweepSpec(axis="phase", lower=-0.5, upper=0.5, points=3, which=2),
            SweepSpec(axis="duration", lower=-60, upper=10, points=4, which=1),
            SweepSpec(axis="phase", lower=-0.2, upper=0.2, points=3),
        ),
        weights=(3.0, 2.0, 1.0, 0.5),
    )
    weights, dt, dphi = ensemble.offsets(len(TRAIN))
    assert dt.shape == dphi.shape == (1 + 3 + 3 + 4 + 3, len(TRAIN))
    t = np.array([p.t for p in TRAIN])
    phi = np.array([p.phi for p in TRAIN])
    # the object rule: ``perturb`` once per member, the nominal pulse first
    members = [(1.0, TRAIN)] + [
        (weight, perturb(TRAIN, spec.axis, float(offset), spec.which)[0])
        for spec, weight in zip(ensemble.specs, ensemble.weights)
        for offset in spec.offsets()
    ]
    assert len(members) == len(weights)
    for w, row_t, row_phi, (weight, member) in zip(
        weights, np.maximum(t + dt, 0.0), phi + dphi, members
    ):
        assert w == weight
        assert row_t.tolist() == [p.t for p in member]
        assert row_phi.tolist() == [p.phi for p in member]
    with pytest.raises(ValueError, match="reference phase"):
        OffsetEnsemble((SweepSpec("phase", -1, 1, 3, which=0),)).offsets(3)
    with pytest.raises(ValueError, match="outside the train"):
        OffsetEnsemble((SweepSpec("duration", -1, 1, 3, which=3),)).offsets(3)


def test_member_table_is_built_once_per_ensemble_and_length():
    spec = SweepSpec(axis="phase", lower=-0.5, upper=0.5, points=3)
    table = _offset_table(OffsetEnsemble((spec,)), 3)
    # an equal ensemble shares the table; another train length has its own
    assert _offset_table(OffsetEnsemble((spec,), weights=(1.0,)), 3) is table
    assert _offset_table(OffsetEnsemble((spec,)), 4)[1].shape == (4, 4)
    for built, expected in zip(table, OffsetEnsemble((spec,)).offsets(3)):
        assert np.array_equal(built, expected)
        assert not built.flags.writeable


def test_perturb_duration_shifts_every_pulse():
    shifted, clamped = perturb(TRAIN, "duration", 7.5)
    assert not clamped
    assert [p.t for p in shifted] == [87.5, 127.5, 57.5]
    assert [p.phi for p in shifted] == [p.phi for p in TRAIN]


def test_perturb_duration_clamps_at_zero():
    shifted, clamped = perturb(TRAIN, "duration", -60.0)
    assert clamped
    assert [p.t for p in shifted] == [20.0, 60.0, 0.0]


def test_perturb_single_pulse_duration():
    shifted, clamped = perturb(TRAIN, "duration", -60.0, which=1)
    assert not clamped
    assert [p.t for p in shifted] == [80.0, 60.0, 50.0]
    with pytest.raises(ValueError, match="outside the train"):
        perturb(TRAIN, "duration", 1.0, which=3)


def test_perturb_phase_skips_reference_pulse():
    shifted, clamped = perturb(TRAIN, "phase", 0.4)
    assert not clamped
    assert shifted[0].phi == 0.0
    assert shifted[1].phi == pytest.approx(1.5)
    assert shifted[2].phi == pytest.approx(2.7)
    with pytest.raises(ValueError, match="reference phase"):
        perturb(TRAIN, "phase", 0.4, which=0)


def test_perturb_rejects_an_unknown_axis():
    with pytest.raises(ValueError, match="axis must be 'duration' or 'phase'"):
        perturb(TRAIN, "rabi", 0.1)


def test_probe_validation_and_indexing():
    with pytest.raises(ValueError, match="fock"):
        TransitionProbe(fock=-1)
    for fock in (True, 1.5):
        with pytest.raises(ValueError, match="fock must be an integer"):
            TransitionProbe(fock=fock)
    with pytest.raises(ValueError, match="mode"):
        TransitionProbe(mode="population")

    u = composite_unitary(CFG, TRAIN)
    transfer = TransitionProbe(fock=1, mode="transfer").evaluate(CFG, u)
    assert transfer == pytest.approx(float(np.abs(u[CFG.cutoff + 2, 1]) ** 2))
    excite = TransitionProbe(fock=1, mode="excitation").evaluate(CFG, u)
    assert excite == pytest.approx(float(excitation_profile(u)[1]))

    with pytest.raises(ValueError, match="below the cutoff"):
        TransitionProbe(fock=3, mode="transfer").evaluate(CFG, u)
    with pytest.raises(ValueError, match="retained levels"):
        TransitionProbe(fock=9, mode="excitation").evaluate(CFG, u)


def test_probe_respects_fock_offset():
    shifted_cfg = SystemConfig(cutoff=4, fock_offset=24)
    u = composite_unitary(shifted_cfg, TRAIN)
    probe = TransitionProbe(fock=25, mode="transfer")
    assert probe.evaluate(shifted_cfg, u) == pytest.approx(
        float(np.abs(u[shifted_cfg.cutoff + 2, 1]) ** 2)
    )
    with pytest.raises(ValueError, match="retained levels"):
        probe.evaluate(CFG, u)


def test_sweep_center_point_matches_unperturbed():
    spec = SweepSpec(axis="phase", lower=-0.5, upper=0.5, points=5)
    probe = TransitionProbe(fock=0, mode="transfer")
    result = sweep(CFG, TRAIN, spec, probe)
    assert result.offsets[2] == 0.0
    unperturbed = probe.evaluate(CFG, composite_unitary(CFG, TRAIN))
    # offset zero must reproduce the unperturbed pulse bit for bit
    assert result.probabilities[2] == unperturbed
    assert result.clamped_offsets == []


def test_sweep_records_clamped_offsets():
    spec = SweepSpec(axis="duration", lower=-70.0, upper=70.0, points=15)
    probe = TransitionProbe(fock=0, mode="excitation")
    result = sweep(CFG, TRAIN, spec, probe)
    # offsets at or below -50 push the last pulse negative
    expected = [float(o) for o in result.offsets if o < -50.0]
    assert result.clamped_offsets == expected
    assert len(result.clamped_offsets) >= 1
    assert np.all(result.probabilities >= 0) and np.all(result.probabilities <= 1)


def test_sweep_probabilities_vary_smoothly():
    spec = SweepSpec(axis="duration", lower=-5.0, upper=5.0, points=11)
    probe = TransitionProbe(fock=0, mode="transfer")
    result = sweep(CFG, TRAIN, spec, probe)
    steps = np.abs(np.diff(result.probabilities))
    assert np.all(steps < 0.05)


def test_phase_sweep_ignores_global_phase_train():
    # a single-pulse train has no adjustable relative phase, so the sweep is flat
    single = uniform_pulse_train(1, delta=1.0, omega=0.1, t=90.0)
    spec = SweepSpec(axis="phase", lower=-1.0, upper=1.0, points=7)
    probe = TransitionProbe(fock=0, mode="transfer")
    result = sweep(CFG, single, spec, probe)
    assert np.allclose(result.probabilities, result.probabilities[0], atol=1e-14)


def test_widest_window_helper():
    offsets = np.linspace(-2, 2, 9)
    probabilities = np.array([0.5, 0.995, 0.5, 0.992, 0.999, 0.991, 0.5, 0.995, 0.995])
    window = SweepResult(offsets, probabilities, []).widest_window(0.99)
    assert window == (-0.5, 0.5)
    assert SweepResult(offsets, np.zeros(9), []).widest_window(0.99) is None
    # a run reaching the final sample is still counted
    tail = np.array([0.0] * 7 + [1.0, 1.0])
    assert SweepResult(offsets, tail, []).widest_window(0.99) == (1.5, 2.0)
