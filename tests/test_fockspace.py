"""Operator construction against independent closed-form oracles."""

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from fockpulse.fockspace import (
    SystemConfig,
    build_hamiltonian,
    displacement_exponential,
    ideal_sideband_propagator,
    ladder_operators,
    number_operator,
    propagate,
)


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Independent matrix exponential: scaling and squaring + Taylor series."""
    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    a = m / (2.0**squarings)
    total = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        total = total + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def displacement_oracle(eta: float, m: int, n: int) -> complex:
    """<m| exp(-i eta (a_dag + a)) |n> via the associated Laguerre closed form."""
    alpha = -1j * eta
    if m < n:
        m, n = n, m
    x = eta * eta
    ratio = np.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
    return ratio * alpha ** (m - n) * np.exp(-x / 2.0) * eval_genlaguerre(n, m - n, x)


class TestSystemConfig:
    def test_defaults(self):
        cfg = SystemConfig()
        assert cfg.eta == 0.084
        assert cfg.nu == 1.0
        assert cfg.dim == 2 * cfg.cutoff

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError, match="cutoff"):
            SystemConfig(cutoff=1)

    def test_negative_offset(self):
        with pytest.raises(ValueError, match="fock_offset"):
            SystemConfig(fock_offset=-1)

    @pytest.mark.parametrize(
        "field, value", [("cutoff", 3.5), ("fock_offset", 1.5), ("fock_offset", True)]
    )
    def test_non_integer_size_or_offset(self, field, value):
        # A fractional offset would put the ladder at sqrt(1.5 + j).
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SystemConfig(**{field: value})

    def test_fock_indices_with_offset(self):
        cfg = SystemConfig(cutoff=12, fock_offset=24)
        assert cfg.fock_indices().tolist() == list(range(24, 36))


class TestLadderOperators:
    def test_cutoff_two(self):
        cfg = SystemConfig(cutoff=2)
        raising, lowering = ladder_operators(cfg)
        assert np.array_equal(lowering, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(raising, lowering.T)

    def test_matrix_elements(self):
        cfg = SystemConfig(cutoff=6)
        _, lowering = ladder_operators(cfg)
        for n in range(1, 6):
            assert lowering[n - 1, n] == pytest.approx(np.sqrt(n))

    def test_commutator_corner(self):
        # [a, a_dag] = 1 except the truncation corner, which collects -(top n).
        cfg = SystemConfig(cutoff=4)
        raising, lowering = ladder_operators(cfg)
        comm = lowering @ raising - raising @ lowering
        expected = np.eye(4)
        expected[3, 3] = -(4 - 1)
        assert np.allclose(comm, expected, atol=1e-12)

    def test_offset_uses_absolute_index(self):
        cfg = SystemConfig(cutoff=12, fock_offset=24)
        _, lowering = ladder_operators(cfg)
        # <29| a |30>: relative positions 5 and 6
        assert lowering[5, 6] == pytest.approx(np.sqrt(30.0))

    def test_number_operator_offset(self):
        cfg = SystemConfig(cutoff=12, fock_offset=24)
        assert np.array_equal(
            np.diag(number_operator(cfg)), np.arange(24.0, 36.0)
        )


class TestDisplacementExponential:
    def test_zero_eta_is_identity(self):
        cfg = SystemConfig(eta=0.0, cutoff=5)
        assert np.allclose(displacement_exponential(cfg), np.eye(5), atol=1e-14)

    def test_vacuum_element(self):
        cfg = SystemConfig(cutoff=12)
        d = displacement_exponential(cfg)
        assert abs(d[0, 0] - np.exp(-0.084**2 / 2.0)) < 1e-6

    def test_signs_are_adjoint(self):
        cfg = SystemConfig(cutoff=8)
        forward = displacement_exponential(cfg, 1)
        backward = displacement_exponential(cfg, -1)
        assert np.allclose(backward, forward.conj().T, atol=1e-13)

    def test_unitary(self):
        cfg = SystemConfig(cutoff=10)
        d = displacement_exponential(cfg)
        assert np.abs(d @ d.conj().T - np.eye(10)).max() < 1e-12

    def test_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            displacement_exponential(SystemConfig(), 2)

    def test_laguerre_oracle(self):
        # Stay >= 10 levels below the edge so truncation cannot bite.
        cfg = SystemConfig(cutoff=30)
        d = displacement_exponential(cfg)
        for m in range(20):
            for n in range(20):
                assert d[m, n] == pytest.approx(
                    displacement_oracle(cfg.eta, m, n), abs=1e-8
                )

    def test_laguerre_oracle_large_eta(self):
        cfg = SystemConfig(eta=0.46, cutoff=40)
        d = displacement_exponential(cfg)
        for m in range(0, 25, 3):
            for n in range(0, 25, 4):
                assert d[m, n] == pytest.approx(
                    displacement_oracle(cfg.eta, m, n), abs=1e-8
                )


class TestBuildHamiltonian:
    def test_diagonal_no_drive(self):
        cfg = SystemConfig(cutoff=2)
        h = build_hamiltonian(cfg, delta=1.0, omega=0.0, phi=0.0)
        assert np.allclose(np.diag(h), [0.0, 1.0, -1.0, 0.0], atol=1e-15)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_coupling_block(self):
        cfg = SystemConfig(cutoff=3)
        omega, phi = 0.7, 1.3
        h = build_hamiltonian(cfg, delta=0.5, omega=omega, phi=phi)
        expected = 0.5 * omega * np.exp(1j * phi) * displacement_exponential(cfg)
        assert np.allclose(h[3:, :3], expected, atol=1e-14)
        assert np.allclose(h[:3, 3:], expected.conj().T, atol=1e-14)

    def test_hermitian(self):
        rng = np.random.default_rng(7)
        cfg = SystemConfig(cutoff=6)
        for _ in range(25):
            delta, omega, phi = rng.uniform(-2, 2), rng.uniform(0, 2), rng.uniform(0, 7)
            h = build_hamiltonian(cfg, delta=delta, omega=omega, phi=phi)
            assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_offset_diagonal(self):
        cfg = SystemConfig(cutoff=3, fock_offset=24)
        h = build_hamiltonian(cfg, delta=1.0, omega=0.0, phi=0.0)
        assert np.allclose(np.diag(h)[:3], [24.0, 25.0, 26.0])
        assert np.allclose(np.diag(h)[3:], [23.0, 24.0, 25.0])


class TestPropagate:
    def test_zero_time_is_identity(self):
        cfg = SystemConfig(cutoff=4)
        h = build_hamiltonian(cfg, delta=1.0, omega=0.3, phi=0.2)
        assert np.allclose(propagate(h, 0.0), np.eye(8), atol=1e-13)

    def test_unitarity(self):
        cfg = SystemConfig(cutoff=8)
        h = build_hamiltonian(cfg, delta=1.0, omega=0.1, phi=0.9)
        u = propagate(h, 528.9)
        assert np.abs(u @ u.conj().T - np.eye(16)).max() <= 1e-10

    def test_against_taylor_oracle(self):
        cfg = SystemConfig(cutoff=4)
        h = build_hamiltonian(cfg, delta=1.0, omega=0.1, phi=0.95)
        for t in (0.5, 37.0, 264.46):
            expected = expm_taylor(-1j * h * t)
            assert np.abs(propagate(h, t) - expected).max() <= 1e-9

    def test_random_hermitian_against_oracle(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (raw + raw.conj().T) / 2.0
        assert np.abs(propagate(h, 2.7) - expm_taylor(-2.7j * h)).max() <= 1e-9

    def test_no_drive_phases(self):
        cfg = SystemConfig(cutoff=3)
        h = build_hamiltonian(cfg, delta=0.8, omega=0.0, phi=0.0)
        u = propagate(h, 5.0)
        expected = np.exp(-1j * np.diag(h) * 5.0)
        assert np.allclose(np.diag(u), expected, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            propagate(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            propagate(np.eye(2, dtype=complex), -1.0)


class TestIdealSidebandPropagator:
    def test_zero_angle(self):
        cfg = SystemConfig(cutoff=4)
        assert np.allclose(ideal_sideband_propagator(cfg, 0.0), np.eye(8), atol=1e-14)

    def test_pi_pulse_on_lowest_rung(self):
        cfg = SystemConfig(cutoff=4)
        u = ideal_sideband_propagator(cfg, np.pi, 0.3)
        assert abs(abs(u[4 + 1, 0]) - 1.0) < 1e-12

    def test_two_level_rung_oracle(self):
        # each |g,n>,|e,n+1> pair rotates by theta*sqrt(n+1)
        cfg = SystemConfig(cutoff=5)
        theta, phi = 0.77, 0.4
        u = ideal_sideband_propagator(cfg, theta, phi)
        for n in range(4):
            half = theta * np.sqrt(n + 1.0) / 2.0
            assert u[n, n] == pytest.approx(np.cos(half), abs=1e-12)
            assert u[5 + n + 1, n] == pytest.approx(
                1j * np.sin(half) * np.exp(1j * phi), abs=1e-12
            )

    def test_unitary(self):
        cfg = SystemConfig(cutoff=6)
        u = ideal_sideband_propagator(cfg, 1.9, 2.2)
        assert np.abs(u @ u.conj().T - np.eye(12)).max() < 1e-12
