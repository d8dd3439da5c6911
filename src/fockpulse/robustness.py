"""Sensitivity sweeps: how a composite pulse degrades under systematic errors.

Two error channels matter in practice: every pulse lasting slightly too long
or too short (common timing offset), and the relative laser phases being off.
The first pulse's phase is the global reference, so phase offsets only ever
touch later pulses.

The same offset grids can also be designed against: ``robust_loss`` scores a
pulse by a soft worst case of the modulus loss over every pulse that the
grids of an ``OffsetEnsemble`` perturb it into.  A duration offset only
changes the times and a phase offset only the phases of a train, so every
member shares the drive of its pulse, and ``ensemble_losses`` scores a whole
block of trains with all their members in one ``train_product`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .fockspace import SystemConfig, check_integer, check_real
from .objective import TargetSpec, excitation_profile, modulus_loss
from .pulses import (
    CompositePulse,
    composite_unitary,
    drive_eigenpairs,
    shared_drive,
    train_product,
)

__all__ = [
    "SweepSpec",
    "TransitionProbe",
    "SweepResult",
    "OffsetEnsemble",
    "perturb",
    "sweep",
    "robust_loss",
    "ensemble_losses",
]


# Inverse temperature of the log-sum-exp in ``robust_loss``: members whose
# loss lies a few 1e-3 below the worst barely count.
_SHARPNESS = 1000.0


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: which knob, which pulses, and the offset grid."""

    axis: Literal["duration", "phase"]
    lower: float
    upper: float
    points: int
    which: int | Literal["all"] = "all"

    def __post_init__(self) -> None:
        if self.axis not in ("duration", "phase"):
            raise ValueError(f"axis must be 'duration' or 'phase', got {self.axis!r}")
        check_real("lower", self.lower)
        check_real("upper", self.upper)
        check_integer("points", self.points)
        if self.which != "all":
            check_integer("which", self.which)
        if not self.lower <= 0.0 <= self.upper:
            raise ValueError(
                f"offset range must contain 0, got [{self.lower}, {self.upper}]"
            )
        if self.points < 3:
            raise ValueError(f"points must be >= 3, got {self.points}")

    def offsets(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.points)


@dataclass(frozen=True)
class TransitionProbe:
    """What to read off the perturbed propagator.

    ``transfer`` records |<e, fock+1| U |g, fock>|^2, the sideband transition
    probability; ``excitation`` records the total excited population out of
    |g, fock>, which is the right metric for masked (shelving) targets.
    """

    fock: int = 0
    mode: Literal["transfer", "excitation"] = "transfer"

    def __post_init__(self) -> None:
        check_integer("fock", self.fock)
        if self.fock < 0:
            raise ValueError(f"fock must be >= 0, got {self.fock}")
        if self.mode not in ("transfer", "excitation"):
            raise ValueError(f"unknown probe mode {self.mode!r}")

    def evaluate(self, cfg: SystemConfig, u: np.ndarray) -> float:
        col = self.fock - cfg.fock_offset
        if not 0 <= col < cfg.cutoff:
            raise ValueError(
                f"probe state {self.fock} lies outside the retained levels"
            )
        if self.mode == "transfer":
            row = col + 1
            if row >= cfg.cutoff:
                raise ValueError(
                    f"transfer probe needs state {self.fock + 1} below the cutoff"
                )
            return float(np.abs(u[cfg.cutoff + row, col]) ** 2)
        return float(excitation_profile(u)[col])


@dataclass(frozen=True)
class OffsetEnsemble:
    """Offset grids that a robust design must hold up over.

    The ensemble of a pulse is the pulse itself followed by every pulse that
    ``perturb`` builds from each spec's grid, in grid order, clamped exactly
    as ``sweep`` clamps.  ``weights`` scales the losses of each spec's
    members (all 1 when omitted; the nominal pulse always counts 1), so a
    window with a tighter bar can count for more.
    """

    specs: tuple[SweepSpec, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        for spec in specs:
            if not isinstance(spec, SweepSpec):
                raise ValueError(f"ensemble specs must be SweepSpec, got {spec!r}")
        weights = (1.0,) * len(specs) if self.weights is None else tuple(self.weights)
        if len(weights) != len(specs):
            raise ValueError(f"got {len(weights)} weights for {len(specs)} specs")
        for weight in weights:
            check_real("weight", weight)
        if not all(w > 0 for w in weights):
            raise ValueError(f"weights must be positive, got {weights}")
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "weights", weights)

    def offsets(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(weights, duration offsets, phase offsets) of the members of a train.

        For a train of ``count`` pulses the arrays are (M,), (M, count) and
        (M, count); row 0 is the nominal pulse (weight 1, no offsets), then
        each spec's grid in order.  A member's durations are
        ``max(t + dt, 0)``, clamped exactly as ``perturb`` clamps them.
        """
        weights, dt, dphi = [1.0], [np.zeros((1, count))], [np.zeros((1, count))]
        for spec, weight in zip(self.specs, self.weights):
            selected = np.zeros(count, dtype=bool)
            selected[_selected_pulses(count, spec.axis, spec.which)] = True
            grid = np.where(selected, spec.offsets()[:, None], 0.0)
            idle = np.zeros_like(grid)
            weights += [weight] * spec.points
            dt.append(grid if spec.axis == "duration" else idle)
            dphi.append(grid if spec.axis == "phase" else idle)
        return np.array(weights), np.concatenate(dt), np.concatenate(dphi)


@dataclass
class SweepResult:
    """Offset grid, probe values, and any clamping that occurred."""

    offsets: np.ndarray
    probabilities: np.ndarray
    clamped_offsets: list[float]

    def points(self) -> list[tuple[float, float]]:
        return [(float(o), float(p)) for o, p in zip(self.offsets, self.probabilities)]

    def widest_window(self, floor: float) -> tuple[float, float] | None:
        """Longest contiguous run of sampled offsets with probability >= floor."""
        best: tuple[float, float] | None = None
        run_start: int | None = None
        # the sentinel flushes a run that reaches the last sample
        for i, p in enumerate(list(self.probabilities) + [-1.0]):
            if p >= floor and run_start is None:
                run_start = i
            elif p < floor and run_start is not None:
                lo, hi = float(self.offsets[run_start]), float(self.offsets[i - 1])
                if best is None or hi - lo > best[1] - best[0]:
                    best = (lo, hi)
                run_start = None
        return best


def _selected_pulses(
    n: int, axis: Literal["duration", "phase"], which: int | Literal["all"]
) -> list[int]:
    """Indices of the pulses an offset on ``axis`` applies to; validates them."""
    if axis == "duration":
        selected = list(range(n)) if which == "all" else [which]
    elif axis == "phase":
        selected = list(range(1, n)) if which == "all" else [which]
        if which != "all" and which == 0:
            raise ValueError("pulse 0 carries the reference phase; cannot offset it")
    else:
        raise ValueError(f"axis must be 'duration' or 'phase', got {axis!r}")
    for k in selected:
        if not 0 <= k < n:
            raise ValueError(f"pulse index {k} outside the train of {n}")
    return selected


def perturb(
    cp: CompositePulse,
    axis: Literal["duration", "phase"],
    offset: float,
    which: int | Literal["all"] = "all",
) -> tuple[CompositePulse, bool]:
    """Apply one offset to the selected pulses; returns (pulse, clamped?).

    Durations are clamped at zero (a laser cannot run for negative time), and
    the flag reports whether clamping happened.  Phase offsets never apply to
    the first pulse: its phase defines the frame.
    """
    selected = _selected_pulses(len(cp), axis, which)
    clamped = False
    out = list(cp.pulses)
    for k in selected:
        p = out[k]
        if axis == "duration":
            t = p.t + offset
            if t < 0:
                t = 0.0
                clamped = True
            out[k] = replace(p, t=t)
        else:
            out[k] = replace(p, phi=p.phi + offset)
    return CompositePulse(tuple(out)), clamped


def sweep(
    cfg: SystemConfig,
    cp: CompositePulse,
    spec: SweepSpec,
    probe: TransitionProbe,
) -> SweepResult:
    """Evaluate the probe across the offset grid.

    The grid always contains offset 0 when the range is symmetric; at offsets
    that would drive a duration negative the duration is clamped to zero and
    the offset is recorded in ``clamped_offsets``.
    """
    offsets = spec.offsets()
    probabilities = np.empty_like(offsets)
    clamped_offsets: list[float] = []
    for i, offset in enumerate(offsets):
        perturbed, clamped = perturb(cp, spec.axis, float(offset), spec.which)
        if clamped:
            clamped_offsets.append(float(offset))
        probabilities[i] = probe.evaluate(cfg, composite_unitary(cfg, perturbed))
    return SweepResult(
        offsets=offsets,
        probabilities=probabilities,
        clamped_offsets=clamped_offsets,
    )


def ensemble_losses(
    cutoff: int,
    energies: np.ndarray,
    vectors: np.ndarray,
    durations: np.ndarray,
    phases: np.ndarray,
    target: TargetSpec,
    ensemble: OffsetEnsemble,
) -> np.ndarray:
    """``robust_loss`` of each of B trains, all members in one kernel call.

    ``durations`` and ``phases`` are (B, n); ``energies`` and ``vectors`` are
    the eigenpairs of the trains' drive, shared or one per row, as
    ``train_product`` takes them.
    """
    rows, count = durations.shape
    weights, dt, dphi = ensemble.offsets(count)
    size = weights.size
    t = np.maximum(durations[:, None, :] + dt, 0.0).reshape(rows * size, count)
    phi = (phases[:, None, :] + dphi).reshape(rows * size, count)
    if energies.ndim == 2:  # one drive per train: every member shares it
        energies = np.repeat(energies, size, axis=0)
        vectors = np.repeat(vectors, size, axis=0)
    u = train_product(cutoff, energies, vectors, t, phi)
    losses = weights * modulus_loss(u, target).reshape(rows, size)
    m = losses.max(axis=1)
    s = _SHARPNESS
    return m + np.log(np.mean(np.exp(s * (losses - m[:, None])), axis=1)) / s


def robust_loss(
    cfg: SystemConfig,
    cp: CompositePulse,
    target: TargetSpec,
    ensemble: OffsetEnsemble,
) -> float:
    """Soft worst case of the weighted modulus loss over the ensemble of ``cp``.

    With weighted losses l_i, the largest m and s = ``_SHARPNESS`` this is
    m + log(mean(exp(s * (l_i - m)))) / s: no term can overflow, the value
    lies within log(N) / s below m and never above it, and an ensemble of
    the nominal pulse alone gives its modulus loss unchanged.  The pulses of
    ``cp`` must share one drive (delta, omega).
    """
    delta, omega = shared_drive(cp)
    energies, vectors = drive_eigenpairs(cfg, delta, omega)
    durations = np.array([[p.t for p in cp]])
    phases = np.array([[p.phi for p in cp]])
    return float(
        ensemble_losses(
            cfg.cutoff, energies, vectors, durations, phases, target, ensemble
        )[0]
    )
