"""Target construction and the modulus loss."""

import numpy as np
import pytest

from fockpulse.fockspace import SystemConfig
from fockpulse.objective import (
    TargetSpec,
    excitation_profile,
    modulus_loss,
    shelving_target,
    swap_target,
)
from fockpulse.pulses import analytic_swap_parameters, composite_unitary

# Published baseline modulus matrix for the three-pulse closed-form sequence,
# three retained Fock levels, rows/columns ordered g0 g1 g2 e0 e1 e2.
BASELINE_MODULUS = np.array(
    [
        [0.587, 0.060, 0.005, 0.074, 0.803, 0.037],
        [0.027, 0.906, 0.022, 0.003, 0.074, 0.416],
        [0.002, 0.045, 0.997, 0.000, 0.002, 0.059],
        [0.080, 0.005, 0.000, 0.996, 0.050, 0.003],
        [0.805, 0.052, 0.003, 0.058, 0.588, 0.021],
        [0.021, 0.415, 0.071, 0.000, 0.037, 0.906],
    ]
)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSwapTarget:
    def test_is_permutation_pattern(self):
        spec = swap_target(3, 0)
        expected = np.eye(6)
        expected[0, 0] = expected[4, 4] = 0.0
        expected[0, 4] = expected[4, 0] = 1.0
        assert np.array_equal(spec.modulus, expected)
        assert spec.mask.all()

    def test_higher_rung(self):
        spec = swap_target(4, 2)
        assert spec.modulus[2, 7] == 1.0 and spec.modulus[7, 2] == 1.0
        assert spec.modulus[2, 2] == 0.0 and spec.modulus[7, 7] == 0.0

    def test_doubly_stochastic(self):
        spec = swap_target(5, 1)
        assert np.allclose(spec.modulus.sum(axis=0), 1.0)
        assert np.allclose(spec.modulus.sum(axis=1), 1.0)

    def test_needs_room_for_the_upper_state(self):
        with pytest.raises(ValueError, match="fock"):
            swap_target(3, 2)


class TestShelvingTarget:
    def test_mask_covers_ground_quadrant_only(self):
        spec = shelving_target(4, 1)
        assert spec.mask.sum() == 16
        assert spec.mask[:4, :4].all()
        assert not spec.mask[4:, :].any() and not spec.mask[:, 4:].any()

    def test_target_diagonal(self):
        spec = shelving_target(4, 1)
        assert np.array_equal(
            np.diag(spec.modulus[:4, :4]), [1.0, 0.0, 1.0, 1.0]
        )

    def test_fock_in_range(self):
        with pytest.raises(ValueError, match="fock"):
            shelving_target(4, 4)


@pytest.mark.parametrize(
    "make, args, name",
    [
        (shelving_target, (4, True), "fock"),  # once emptied the whole diagonal
        (shelving_target, (4, 1.5), "fock"),
        (swap_target, (3.5, 0), "cutoff"),
    ],
)
def test_targets_reject_non_integer_arguments(make, args, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        make(*args)


@pytest.mark.parametrize(
    "modulus, mask, message",
    [
        (np.ones((2, 3)), np.ones((2, 3)), "must be square"),
        (np.eye(2), np.ones((3, 3)), "does not match"),
        (np.full((2, 2), 1.5), np.ones((2, 2)), r"lie in \[0, 1\]"),
        # NaN passes both range comparisons; it once scored every train inf
        (np.diag([1.0, np.nan]), np.ones((2, 2)), r"lie in \[0, 1\]"),
    ],
    ids=["not-square", "mask-shape", "above-one", "nan"],
)
def test_target_spec_rejects_bad_moduli(modulus, mask, message):
    with pytest.raises(ValueError, match=message):
        TargetSpec(modulus=modulus, mask=mask)


class TestModulusLoss:
    def test_zero_for_phase_dressed_target(self):
        spec = swap_target(3, 0)
        rng = np.random.default_rng(3)
        u = spec.modulus * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(6, 6)))
        assert modulus_loss(u, spec) == pytest.approx(0.0, abs=1e-15)

    def test_identity_against_swap_is_two(self):
        # four unit-size mismatches -> Frobenius norm 2
        assert modulus_loss(np.eye(6, dtype=complex), swap_target(3, 0)) == pytest.approx(2.0)

    def test_global_phase_invariance(self):
        spec = swap_target(3, 0)
        u = random_unitary(6, seed=5)
        assert modulus_loss(u, spec) == pytest.approx(
            modulus_loss(np.exp(1j * 1.234) * u, spec), abs=1e-14
        )

    def test_masked_entries_ignored(self):
        spec = shelving_target(3, 0)
        u = random_unitary(6, seed=8)
        altered = u.copy()
        altered[:, 3:] *= np.exp(0.3)  # only masked-out columns touched
        assert modulus_loss(altered, spec) == pytest.approx(modulus_loss(u, spec))

    def test_baseline_loss_matches_published_matrix(self):
        # the baseline's loss, recomputed from the published rounded entries,
        # must agree with our exact evaluation to printing precision
        spec = swap_target(3, 0)
        oracle = float(np.linalg.norm(BASELINE_MODULUS - spec.modulus))
        cfg = SystemConfig(cutoff=3)
        u = composite_unitary(cfg, analytic_swap_parameters(0.084, 0.1))
        loss = modulus_loss(u, spec)
        assert loss > 0.4
        assert loss == pytest.approx(oracle, abs=0.02)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            modulus_loss(np.eye(4, dtype=complex), swap_target(3, 0))
        with pytest.raises(ValueError, match="3 compared columns"):
            modulus_loss(np.eye(6, dtype=complex)[:, :2], shelving_target(3, 0))

    @pytest.mark.parametrize(
        "spec", [shelving_target(3, 1), swap_target(3, 0)], ids=["shelve", "swap"]
    )
    def test_reads_the_compared_columns_alone(self, spec):
        # a block of the compared columns scores as the whole propagator does
        u = np.stack([random_unitary(6, seed) for seed in (1, 2, 3)])
        block = u[..., spec.columns]
        assert block.shape[-1] == spec.mask.any(axis=0).sum()
        assert modulus_loss(block[0], spec) == pytest.approx(
            modulus_loss(u[0], spec), abs=1e-15
        )
        assert np.allclose(modulus_loss(block, spec), modulus_loss(u, spec), atol=1e-15)


def test_compared_columns_are_derived_once_and_read_only():
    assert shelving_target(3, 1).columns.tolist() == [True] * 3 + [False] * 3
    assert swap_target(3, 0).columns.all()
    spec = shelving_target(3, 1)
    with pytest.raises(ValueError, match="read-only"):
        spec.columns[4] = True
    assert spec._on_columns is spec._on_columns
    inputs, modulus, mask = spec._on_columns
    assert np.array_equal(inputs, np.eye(6)[:, :3])
    assert np.array_equal(modulus, spec.modulus[:, :3])
    assert np.array_equal(mask, spec.mask[:, :3])
    assert not any(a.flags.writeable for a in spec._on_columns)
    # a target that compares every column carries the whole propagator
    assert swap_target(3, 0)._on_columns[0] is None


class TestExcitationProfile:
    def test_identity_never_excites(self):
        assert np.array_equal(excitation_profile(np.eye(8, dtype=complex)), np.zeros(4))

    def test_swap_pattern_excites_one_state(self):
        spec = swap_target(4, 1)
        profile = excitation_profile(spec.modulus.astype(complex))
        assert np.array_equal(profile, [0.0, 1.0, 0.0, 0.0])

    def test_complement_of_ground_column_mass(self):
        u = random_unitary(10, seed=12)
        profile = excitation_profile(u)
        ground_mass = np.sum(np.abs(u[:5, :5]) ** 2, axis=0)
        assert np.allclose(profile, 1.0 - ground_mass, atol=1e-12)
        assert np.all(profile >= 0.0) and np.all(profile <= 1.0)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            excitation_profile(np.eye(5, dtype=complex))
