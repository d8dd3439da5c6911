"""Truncated Hilbert space for a driven two-level system coupled to a harmonic mode.

Basis convention used everywhere in this package: the ground-state block comes
first.  With ``cutoff`` retained Fock levels starting at ``fock_offset``, the
flat index of |g, n> is ``n - fock_offset`` and the flat index of |e, n> is
``cutoff + n - fock_offset``.  All operators are dense complex matrices of
shape (2 * cutoff, 2 * cutoff); mode-only operators are (cutoff, cutoff).

Units: hbar = 1 and time is measured in units of the inverse mode frequency,
so ``nu`` defaults to 1 and detunings/Rabi rates are in units of ``nu``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "check_integer",
    "SystemConfig",
    "ladder_operators",
    "number_operator",
    "displacement_exponential",
    "build_hamiltonian",
    "propagate",
    "ideal_sideband_propagator",
]

# Hermiticity tolerance for propagate(), relative to the largest entry.
_HERMITICITY_RTOL = 1e-9


def check_integer(name: str, value: object) -> None:
    """Raise ValueError unless ``value`` is an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    Attributes
    ----------
    eta:
        Lamb-Dicke parameter coupling the internal transition to the mode.
    nu:
        Mode frequency (sets the unit system; keep at 1.0 unless rescaling).
    cutoff:
        Number of retained Fock levels (>= 2).
    fock_offset:
        First retained Fock index.  0 for the usual ground-anchored space; a
        positive value models a window deep in the Fock ladder.
    """

    eta: float = 0.084
    nu: float = 1.0
    cutoff: int = 4
    fock_offset: int = 0

    def __post_init__(self) -> None:
        check_integer("cutoff", self.cutoff)
        check_integer("fock_offset", self.fock_offset)
        if not self.cutoff >= 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")
        if self.fock_offset < 0:
            raise ValueError(f"fock_offset must be >= 0, got {self.fock_offset}")
        if not np.isfinite(self.eta) or self.eta < 0:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not np.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu}")

    @property
    def dim(self) -> int:
        """Dimension of the joint (two-level x mode) space."""
        return 2 * self.cutoff

    def fock_indices(self) -> np.ndarray:
        """Absolute Fock indices of the retained levels."""
        return np.arange(self.fock_offset, self.fock_offset + self.cutoff)


@lru_cache(maxsize=None)
def _ladder(cutoff: int, fock_offset: int) -> tuple[np.ndarray, np.ndarray]:
    lowering = np.zeros((cutoff, cutoff))
    for j in range(1, cutoff):
        # <n-1| a |n> = sqrt(n) with n the absolute Fock index.
        lowering[j - 1, j] = np.sqrt(fock_offset + j)
    raising = lowering.T.copy()
    lowering.flags.writeable = False
    raising.flags.writeable = False
    return raising, lowering


def ladder_operators(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Return (creation, annihilation) on the retained mode levels.

    The matrices are real, act on the mode factor only, and are truncated:
    the top level is annihilated by the creation operator, so the canonical
    commutator holds everywhere except the final diagonal entry.
    """
    return _ladder(cfg.cutoff, cfg.fock_offset)


def number_operator(cfg: SystemConfig) -> np.ndarray:
    """Diagonal occupation-number operator with absolute Fock indices."""
    return np.diag(cfg.fock_indices().astype(float))


def _expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i * h * t) of a Hermitian h through its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


@lru_cache(maxsize=None)
def _displacement(eta: float, cutoff: int, fock_offset: int, sign: int) -> np.ndarray:
    raising, lowering = _ladder(cutoff, fock_offset)
    out = _expm_hermitian(eta * (raising + lowering), float(sign))
    out.flags.writeable = False
    return out


def displacement_exponential(cfg: SystemConfig, sign: int = 1) -> np.ndarray:
    """Unitary exp(sign * (-i) * eta * (a_dag + a)) on the mode levels.

    ``sign=+1`` gives the factor that dresses the |e><g| drive term;
    ``sign=-1`` gives its conjugate.  Results are cached per configuration, so
    the returned array is read-only.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _displacement(cfg.eta, cfg.cutoff, cfg.fock_offset, sign)


def build_hamiltonian(
    cfg: SystemConfig, *, delta: float, omega: float, phi: float
) -> np.ndarray:
    """Dense Hamiltonian for one laser pulse, in the rotating frame.

    Parameters
    ----------
    delta:
        Laser detuning.  delta = nu makes the first blue sideband resonant.
    omega:
        Rabi rate of the drive.
    phi:
        Laser phase.

    Returns
    -------
    Hermitian array of shape (2 * cutoff, 2 * cutoff): mode energy on both
    internal levels, -delta on the excited block, and the phase-dressed
    displacement coupling on the off-diagonal blocks.
    """
    c = cfg.cutoff
    h = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    mode_energy = cfg.nu * cfg.fock_indices().astype(float)
    h[np.arange(c), np.arange(c)] = mode_energy
    h[np.arange(c, 2 * c), np.arange(c, 2 * c)] = mode_energy - delta
    coupling = 0.5 * omega * np.exp(1j * phi) * displacement_exponential(cfg, 1)
    h[c:, :c] = coupling
    h[:c, c:] = coupling.conj().T
    return h


def propagate(hamiltonian: np.ndarray, duration: float) -> np.ndarray:
    """Unitary exp(-i * H * t) of a Hermitian, time-independent H.

    Uses the eigendecomposition of H, which stays accurate for the long
    durations composite pulses need.  Raises if H is not Hermitian within a
    tolerance scaled to its largest entry, or if t is negative.
    """
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    scale = max(1.0, float(np.abs(hamiltonian).max()))
    herm_err = float(np.abs(hamiltonian - hamiltonian.conj().T).max())
    if herm_err > _HERMITICITY_RTOL * scale:
        raise ValueError(
            f"hamiltonian is not Hermitian: max asymmetry {herm_err:.3e}"
        )
    return _expm_hermitian(hamiltonian, duration)


def ideal_sideband_propagator(
    cfg: SystemConfig, theta: float, phi: float = 0.0
) -> np.ndarray:
    """Reference blue-sideband rotation without off-resonant terms.

    Returns exp(i * (theta/2) * (e^{i phi} sigma+ a_dag + e^{-i phi} sigma- a)),
    the textbook sideband unitary a composite pulse tries to emulate.  On the
    |g, n> <-> |e, n+1> pair this is a rotation by theta * sqrt(n + 1).
    """
    c = cfg.cutoff
    raising, _ = ladder_operators(cfg)
    gen = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    gen[c:, :c] = 0.5 * theta * np.exp(1j * phi) * raising
    gen[:c, c:] = gen[c:, :c].conj().T
    return _expm_hermitian(gen, -1.0)
