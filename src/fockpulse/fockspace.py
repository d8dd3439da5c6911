"""Truncated Hilbert space for a driven two-level system coupled to a harmonic mode.

Basis convention used everywhere in this package: the ground-state block comes
first.  With ``cutoff`` retained Fock levels starting at ``fock_offset``, the
flat index of |g, n> is ``n - fock_offset`` and the flat index of |e, n> is
``cutoff + n - fock_offset``.  All operators are dense complex matrices of
shape (2 * cutoff, 2 * cutoff); mode-only operators are (cutoff, cutoff).

Units: hbar = 1 and the mode frequency nu is the unit, as in Leibfried et
al., Rev. Mod. Phys. 75, 281 (2003): eta is a pure number, the detuning
delta and the Rabi rate omega are in units of nu, and durations in units of
1/nu.  So |n> has mode energy n, and delta = 1 makes the first blue sideband
resonant.  A mode at another frequency nu' is the same problem with
delta/nu', omega/nu' and nu' * t, so no result depends on a choice of nu.

The drive couples the internal levels through the full displacement
exp(-i * eta * (a_dag + a)), not its first-order Lamb-Dicke expansion.
``displacement_exponential`` is the one builder of that operator: one cached,
read-only array per ``SystemConfig``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

__all__ = [
    "check_integer",
    "check_real",
    "check_object",
    "read_record",
    "SystemConfig",
    "displacement_exponential",
    "build_hamiltonian",
    "propagate",
]

# Hermiticity tolerance for propagate(), relative to the largest entry.
_HERMITICITY_RTOL = 1e-9


def check_integer(name: str, value: object, minimum: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an integer (a bool is not one)
    no smaller than ``minimum``, when that is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_real(
    name: str, value: object, minimum: float | None = None, *, positive: bool = False
) -> None:
    """Raise ValueError unless ``value`` is a finite real number (a bool or a
    string is not one) no smaller than ``minimum``, when that is given, and
    above 0 when ``positive`` is set."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_object(
    name: str, value: object, keys: Sequence[str], required: Sequence[str] = ()
) -> dict[str, Any]:
    """``value``, which must be a JSON object holding no key outside ``keys``
    and every key in ``required``; otherwise ValueError naming ``name``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ValueError(f"unknown keys in {name}: {', '.join(map(repr, unknown))}")
    for key in required:
        if key not in value:
            raise ValueError(f"{name} has no {key!r} field")
    return value


def read_record(cls: type, name: str, value: object) -> Any:
    """The dataclass ``cls`` built from the outside JSON object ``value``,
    whose keys are its fields; a field without a default is required, and a
    field declared with ``init=False`` is no key."""
    fields = [f for f in dataclasses.fields(cls) if f.init]
    unset = dataclasses.MISSING
    required = [f.name for f in fields if f.default is f.default_factory is unset]
    return cls(**check_object(name, value, [f.name for f in fields], required))


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    Attributes
    ----------
    eta:
        Lamb-Dicke parameter coupling the internal transition to the mode.
    cutoff:
        Number of retained Fock levels (>= 2).
    fock_offset:
        First retained Fock index.  0 for the usual ground-anchored space; a
        positive value models a window deep in the Fock ladder.
    """

    eta: float = 0.084
    cutoff: int = 4
    fock_offset: int = 0

    def __post_init__(self) -> None:
        check_integer("cutoff", self.cutoff, 2)
        check_integer("fock_offset", self.fock_offset, 0)
        check_real("eta", self.eta, 0)

    @property
    def dim(self) -> int:
        """Dimension of the joint (two-level x mode) space."""
        return 2 * self.cutoff

    def fock_indices(self) -> np.ndarray:
        """Absolute Fock indices of the retained levels."""
        return np.arange(self.fock_offset, self.fock_offset + self.cutoff)


@lru_cache(maxsize=None)
def displacement_exponential(cfg: SystemConfig) -> np.ndarray:
    """Unitary exp(-i * eta * (a_dag + a)) on the mode levels: the factor that
    dresses the |e><g| drive term.

    a + a_dag is truncated to the retained levels, with <n-1| a |n> = sqrt(n)
    for the absolute Fock index n.  The result is cached per configuration,
    so the returned array is read-only.
    """
    root_n = np.sqrt(cfg.fock_indices()[1:])
    out = propagate(cfg.eta * (np.diag(root_n, 1) + np.diag(root_n, -1)), 1.0)
    out.flags.writeable = False
    return out


def build_hamiltonian(
    cfg: SystemConfig, *, delta: float | np.ndarray, omega: float, phi: float
) -> np.ndarray:
    """Dense Hamiltonian for one laser pulse, in the rotating frame.

    Parameters
    ----------
    delta:
        Laser detuning.  delta = 1 makes the first blue sideband resonant.
        One detuning, or a (B,) array of them for a stack of B Hamiltonians.
    omega:
        Rabi rate of the drive.
    phi:
        Laser phase.

    Returns
    -------
    Hermitian array of shape (2 * cutoff, 2 * cutoff), or (B, 2 * cutoff,
    2 * cutoff) for B detunings: mode energy n of |n> on both internal
    levels, -delta on the excited block, and the phase-dressed displacement
    coupling on the off-diagonal blocks.
    """
    delta = np.asarray(delta, dtype=float)
    c = cfg.cutoff
    h = np.zeros(delta.shape + (cfg.dim, cfg.dim), dtype=complex)
    mode_energy = cfg.fock_indices().astype(float)
    h[..., np.arange(c), np.arange(c)] = mode_energy
    h[..., np.arange(c, 2 * c), np.arange(c, 2 * c)] = mode_energy - delta[..., None]
    coupling = 0.5 * omega * np.exp(1j * phi) * displacement_exponential(cfg)
    h[..., c:, :c] = coupling
    h[..., :c, c:] = coupling.conj().T
    return h


def propagate(hamiltonian: np.ndarray, duration: float) -> np.ndarray:
    """Unitary exp(-i * H * t) of a Hermitian, time-independent H.

    Uses the eigendecomposition of H, which stays accurate for the long
    durations composite pulses need.  Raises if H is not Hermitian within a
    tolerance scaled to its largest entry, or if t is not a finite number
    >= 0.
    """
    check_real("duration", duration, 0)
    scale = max(1.0, float(np.abs(hamiltonian).max()))
    herm_err = float(np.abs(hamiltonian - hamiltonian.conj().T).max())
    if herm_err > _HERMITICITY_RTOL * scale:
        raise ValueError(
            f"hamiltonian is not Hermitian: max asymmetry {herm_err:.3e}"
        )
    vals, vecs = np.linalg.eigh(hamiltonian)
    return (vecs * np.exp(-1j * vals * duration)) @ vecs.conj().T
