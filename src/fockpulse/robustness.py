"""Sensitivity sweeps: how a composite pulse degrades under systematic errors.

Two error channels matter in practice: every pulse lasting slightly too long
or too short (common timing offset), and the relative laser phases being off.
The first pulse's phase is the global reference, so phase offsets only ever
touch later pulses.

The same offset grids can also be designed against: ``ensemble_losses``
scores each of a block of trains by a soft worst case of the modulus loss
over every pulse that the grids of an ``OffsetEnsemble`` perturb it into, and
``ensemble_gradients`` adds its exact gradient.  A duration offset only
changes the times and a phase offset only the phases of a train, so every
member shares the drive of its pulse, and all members of the block run in one
pass of the kernel of ``pulses``: forward, and back for the gradient.  The
pass carries only the columns the target compares (``TargetSpec.columns``),
the images of the unit inputs it pins: the ground block of a shelving target,
one column of a probed entry, the whole propagator only for a swap.  What a
call does not change is built once: each target's unit inputs and sliced
moduli, and each ensemble's table of member offsets per train length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Literal

import numpy as np

from .fockspace import SystemConfig, check_integer, check_real
from .objective import TargetSpec, excitation_profile, modulus_loss
from .pulses import (
    CompositePulse,
    _checked_trains,
    _train_pass,
    _train_vjp,
    composite_unitary,
)

__all__ = [
    "SweepSpec",
    "TransitionProbe",
    "SweepResult",
    "OffsetEnsemble",
    "perturb",
    "sweep",
    "ensemble_losses",
    "ensemble_gradients",
]


# Inverse temperature of the log-sum-exp in ``_soft_worst``: members whose
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
        check_integer("points", self.points, 3)
        if self.which != "all":
            check_integer("which", self.which)
        if not self.lower <= 0.0 <= self.upper:
            raise ValueError(
                f"offset range must contain 0, got [{self.lower}, {self.upper}]"
            )

    def offsets(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.points)


@dataclass(frozen=True)
class TransitionProbe:
    """What to read off the perturbed propagator.

    ``transfer`` records |<e, fock+1| U |g, fock>|^2, the sideband transition
    probability; ``excitation`` records the total population in |e> out of
    |g, fock>, which is the right metric for masked (shelving) targets.
    """

    fock: int = 0
    mode: Literal["transfer", "excitation"] = "transfer"

    def __post_init__(self) -> None:
        check_integer("fock", self.fock, 0)
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
            check_real("weight", weight, positive=True)
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

    A symmetric range puts offset 0 on the grid only for an odd number of
    points; at offsets that would drive a duration negative the duration is
    clamped to zero and the offset is recorded in ``clamped_offsets``.
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


@lru_cache(maxsize=64)
def _offset_table(
    ensemble: OffsetEnsemble, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ensemble.offsets(count)``, built once per ensemble and train length;
    the arrays are read-only."""
    table = ensemble.offsets(count)
    for array in table:
        array.flags.writeable = False
    return table


def _member_trains(
    energies: np.ndarray,
    vectors: np.ndarray,
    durations: np.ndarray,
    phases: np.ndarray,
    ensemble: OffsetEnsemble,
) -> tuple[np.ndarray, ...]:
    """The M members of each of B trains, train by train, as the kernel runs
    them: the (M,) weights, the eigenpairs each member runs on (repeated over
    the members when each row has its own drive), the (B * M, n) durations
    clamped at 0, the (B * M, n) phases, and the mask of the durations that
    were not clamped."""
    durations, phases = _checked_trains(durations, phases)
    weights, dt, dphi = _offset_table(ensemble, durations.shape[1])
    size = weights.size
    t = (durations[:, None, :] + dt).reshape(-1, dt.shape[1])
    phi = (phases[:, None, :] + dphi).reshape(-1, dt.shape[1])
    if energies.ndim == 2 and size > 1:  # every member shares its drive
        energies = np.repeat(energies, size, axis=0)
        vectors = np.repeat(vectors, size, axis=0)
    return weights, energies, vectors, np.maximum(t, 0.0), phi, t > 0.0


def _soft_worst(losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Soft worst case of each row of weighted member losses, and its
    derivative by each of them: the row's softmax.

    With a row's losses l_i, its largest m and s = ``_SHARPNESS`` this is the
    log-sum-exp m + log(mean(exp(s * (l_i - m)))) / s: no term can overflow,
    the value lies within log(N) / s below m and never above it, and a row of
    one loss gives that loss unchanged.
    """
    m = losses.max(axis=1)
    s = _SHARPNESS
    terms = np.exp(s * (losses - m[:, None]))
    shares = terms / terms.sum(axis=1, keepdims=True)
    return m + np.log(np.mean(terms, axis=1)) / s, shares


def ensemble_losses(
    energies: np.ndarray,
    vectors: np.ndarray,
    durations: np.ndarray,
    phases: np.ndarray,
    target: TargetSpec,
    ensemble: OffsetEnsemble,
) -> np.ndarray:
    """Soft worst case of the weighted modulus loss over the ensemble of each
    of B trains, all members in one kernel call.

    ``durations`` and ``phases`` are (B, n); ``energies`` and ``vectors`` are
    the eigenpairs of the trains' drive, shared or one per row, as
    ``train_product`` takes them.  Each member's modulus loss is taken over
    the target's compared columns alone, which agrees with the loss of the
    member's whole propagator to rounding, and is that loss when the target
    compares every column.  So the ensemble ``OffsetEnsemble(())`` of the
    nominal pulse alone gives each train's modulus loss.
    """
    weights, energies, vectors, t, phi, _ = _member_trains(
        energies, vectors, durations, phases, ensemble
    )
    u = _train_pass(energies, vectors, t, phi, target._on_columns[0])[0]
    losses = weights * modulus_loss(u, target).reshape(-1, weights.size)
    return _soft_worst(losses)[0]


def ensemble_gradients(
    energies: np.ndarray,
    vectors: np.ndarray,
    durations: np.ndarray,
    phases: np.ndarray,
    target: TargetSpec,
    ensemble: OffsetEnsemble,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``ensemble_losses`` of B trains and its exact gradient, in one pass.

    Takes the arguments of ``ensemble_losses`` and returns (losses,
    d_durations, d_phases, d_delta): the (B,) losses, equal to those of
    ``ensemble_losses`` bit for bit, and their derivatives by the (B, n)
    durations, the (B, n) phases and the (B,) detunings of the trains' drives.

    The members run forward through ``_train_pass`` and back through
    ``_train_vjp`` from the loss's derivative by each member's propagator,
    G = mask (|U| - T) U / (|U| L), which is set to 0 where |U| = 0 (a kink of
    the loss) or L = 0.  Both carry the target's compared columns alone, as
    ``ensemble_losses`` does: G vanishes on every other column.  Members
    chain through their softmax share of the log-sum-exp times their spec's
    weight, and a member whose duration is clamped at 0 adds nothing to that
    pulse's d/dt.
    """
    weights, energies, vectors, t, phi, live = _member_trains(
        energies, vectors, durations, phases, ensemble
    )
    inputs, modulus, mask = target._on_columns
    entering: list[np.ndarray] = []
    u, decay, hinge = _train_pass(energies, vectors, t, phi, inputs, entering)
    member = modulus_loss(u, target)
    losses, shares = _soft_worst(weights * member.reshape(-1, weights.size))

    magnitude = np.abs(u)
    scale = magnitude * member[:, None, None]
    diff = (magnitude - modulus) * mask * u
    grad = np.divide(diff, scale, out=np.zeros_like(u), where=scale > 0)
    grad *= (shares * weights).reshape(-1, 1, 1)
    d_t, d_phi, d_delta = _train_vjp(energies, vectors, t, grad, decay, hinge, entering)
    parts = (d_t * live, d_phi, d_delta)
    sums = (d.reshape((-1, weights.size) + d.shape[1:]).sum(axis=1) for d in parts)
    return losses, *sums
