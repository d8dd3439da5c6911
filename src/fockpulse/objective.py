"""Optimization targets and the modulus-matrix loss.

Targets fix only the magnitudes of propagator entries, never their phases, so
the loss is invariant under any global phase and under per-entry phase
freedom.  A boolean mask selects which entries the loss compares; masked-out
entries are free for the optimizer to use as it pleases.  A column without a
compared entry is free as a whole, so the loss can also read a block of the
compared columns alone: the images of the only inputs the target pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """Desired entry magnitudes plus the mask of compared entries.

    ``columns`` marks the columns that hold a compared entry; it is derived
    from the mask and read-only, like the mask and the moduli.
    """

    modulus: np.ndarray
    mask: np.ndarray
    columns: np.ndarray = field(init=False, repr=False)

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
        columns = mask.any(axis=0)
        for array in (modulus, mask, columns):
            array.flags.writeable = False
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "columns", columns)

    @cached_property
    def _on_columns(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """(inputs, modulus, mask) on the compared columns alone, read-only:
        the unit input states whose images the target compares, None when it
        compares every column (its block is then the whole propagator), and
        the moduli and the mask of those images."""
        inputs = np.eye(len(self.columns))[:, self.columns]
        modulus, mask = self.modulus[:, self.columns], self.mask[:, self.columns]
        for array in (inputs, modulus, mask):
            array.flags.writeable = False
        return None if self.columns.all() else inputs, modulus, mask


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
    ``u`` may also hold only the target's compared columns, (dim, k) or
    (B, dim, k) with k = ``target.columns.sum()``, which are compared with
    ``target.modulus[:, target.columns]``; that loss agrees with the whole
    propagator's to rounding.  A target that compares every column reads
    the whole propagator either way.
    """
    modulus, mask = target.modulus, target.mask
    if u.shape[-1:] != modulus.shape[1:]:
        _, modulus, mask = target._on_columns
    if u.ndim not in (2, 3) or u.shape[-2:] != modulus.shape:
        raise ValueError(
            f"propagator shape {u.shape} does not match target {target.modulus.shape}"
            f" or its {modulus.shape[1]} compared columns"
        )
    diff = (np.abs(u) - modulus) * mask
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
