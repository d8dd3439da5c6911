"""Optimization targets and the modulus-matrix loss.

Targets fix only the magnitudes of propagator entries, never their phases, so
the loss is invariant under any global phase and under per-entry phase
freedom.  A boolean mask selects which entries the loss compares; masked-out
entries are free for the optimizer to use as it pleases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fockspace import check_integer

__all__ = [
    "TargetSpec",
    "swap_target",
    "shelving_target",
    "modulus_loss",
    "excitation_profile",
]


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Desired entry magnitudes plus the mask of compared entries."""

    modulus: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        modulus = np.asarray(self.modulus, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if modulus.ndim != 2 or modulus.shape[0] != modulus.shape[1]:
            raise ValueError(f"modulus must be square, got shape {modulus.shape}")
        if mask.shape != modulus.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match modulus {modulus.shape}"
            )
        if not np.all((modulus >= 0) & (modulus <= 1)):  # NaN fails both
            raise ValueError("target moduli must lie in [0, 1]")
        modulus.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "mask", mask)


def swap_target(cutoff: int, fock: int = 0) -> TargetSpec:
    """Full-matrix target exchanging |g, n> and |e, n+1>, identity elsewhere.

    Every entry is compared, so solutions must also keep all spectator states
    in place (up to phases).
    """
    check_integer("cutoff", cutoff, 2)
    check_integer("fock", fock)
    if not 0 <= fock < cutoff - 1:
        raise ValueError(
            f"swap needs fock and fock+1 below the cutoff, got fock={fock} "
            f"with cutoff={cutoff}"
        )
    dim = 2 * cutoff
    modulus = np.eye(dim)
    g = fock
    e = cutoff + fock + 1
    modulus[g, g] = modulus[e, e] = 0.0
    modulus[g, e] = modulus[e, g] = 1.0
    return TargetSpec(modulus=modulus, mask=np.ones((dim, dim), dtype=bool))


def shelving_target(cutoff: int, fock: int) -> TargetSpec:
    """Masked target that empties one ground Fock state into the excited
    manifold while detuning-and-phase freedom elsewhere is left unconstrained.

    Only the ground-to-ground quadrant is compared: its diagonal must stay at
    unit magnitude except the shelved state's entry, which must vanish.  Where
    the shelved population goes inside the excited manifold is not pinned.
    """
    check_integer("cutoff", cutoff, 2)
    check_integer("fock", fock)
    if not 0 <= fock < cutoff:
        raise ValueError(f"fock must be inside [0, {cutoff}), got {fock}")
    dim = 2 * cutoff
    modulus = np.zeros((dim, dim))
    modulus[:cutoff, :cutoff] = np.eye(cutoff)
    modulus[fock, fock] = 0.0
    mask = np.zeros((dim, dim), dtype=bool)
    mask[:cutoff, :cutoff] = True
    return TargetSpec(modulus=modulus, mask=mask)


def modulus_loss(u: np.ndarray, target: TargetSpec) -> float | np.ndarray:
    """Frobenius distance between |u| and the target over masked entries.

    Zero exactly when every compared magnitude matches; insensitive to all
    phases by construction.  ``u`` is one (dim, dim) propagator, giving a
    float, or a (B, dim, dim) stack, giving B losses; both shapes share one
    reduction, so a stacked row's loss equals its loss alone bit for bit.
    """
    if u.shape[-2:] != target.modulus.shape or u.ndim not in (2, 3):
        raise ValueError(
            f"propagator shape {u.shape} does not match target {target.modulus.shape}"
        )
    diff = (np.abs(u) - target.modulus) * target.mask
    flat = diff.reshape(diff.shape[:-2] + (-1,))
    loss = np.sqrt(np.add.reduce(flat * flat, axis=-1))
    return float(loss) if u.ndim == 2 else loss


def excitation_profile(u: np.ndarray) -> np.ndarray:
    """Probability of ending excited for each ground Fock input.

    Entry n is the total population of the excited manifold after applying
    ``u`` to |g, n>.  For unitary input each entry lies in [0, 1].
    """
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % 2:
        raise ValueError(f"expected a square even-dimension matrix, got {u.shape}")
    c = u.shape[0] // 2
    return np.sum(np.abs(u[c:, :c]) ** 2, axis=0)
