"""Sensitivity sweeps: how a composite pulse degrades under systematic errors.

Two error channels matter in practice: every pulse lasting slightly too long
or too short (common timing offset), and the relative laser phases being off.
The first pulse's phase is the global reference, so phase offsets only ever
touch later pulses.

The same offset grids can also be designed against: ``ensemble_losses``
scores each of a block of trains by a soft worst case of the modulus loss
over every pulse that the grids of an ``OffsetEnsemble`` perturb it into.  A
duration offset only changes the times and a phase offset only the phases of
a train, so every member shares the drive of its pulse, and all members of
the block run in one pass of ``train_product``'s kernel.
``ensemble_gradients`` returns the same losses with their exact gradient,
from one backward pass over the same eigenpairs.  The design objective of
``optimizer`` scores through these two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .fockspace import SystemConfig, check_integer, check_real
from .objective import TargetSpec, excitation_profile, modulus_loss
from .pulses import CompositePulse, _checked_trains, _train_pass, composite_unitary

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
    probability; ``excitation`` records the total excited population out of
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
    were not clamped.  ``durations`` and ``phases`` must be finite (B, n)
    arrays; a negative duration clamps at 0, as a member's does."""
    durations, phases = _checked_trains(durations, phases, nonnegative=False)
    rows, count = durations.shape
    weights, dt, dphi = ensemble.offsets(count)
    size = weights.size
    t = (durations[:, None, :] + dt).reshape(rows * size, count)
    phi = (phases[:, None, :] + dphi).reshape(rows * size, count)
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
    ``train_product`` takes them.  The ensemble ``OffsetEnsemble(())`` of the
    nominal pulse alone gives each train's modulus loss bit for bit.
    """
    weights, energies, vectors, t, phi, _ = _member_trains(
        energies, vectors, durations, phases, ensemble
    )
    u = _train_pass(energies, vectors, t, phi)[0]
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

    The pass runs each member's train forward, keeping the block entering
    every pulse k, and then back from the loss's derivative by the
    propagator, G = mask (|U| - T) U / (|U| L), which is set to 0 where
    |U| = 0 (a kink of the loss) or L = 0.  Its cotangent in pulse k's frame,
    M~_k = V^dagger Z_k^dagger (U_after^dagger G U_before^dagger) Z_k V, gives
    every slot of that pulse, with P_e the projector onto the excited block,
    E = V^dagger P_e V and e_a = e^{-i w_a t_k}:
    d/dt_k = Re sum_a conj(M~_aa) (-i w_a) e_a; d/dphi_k =
    Re sum_ab conj(M~_ab) i E_ab (e_b - e_a), from dP/dphi = i [P_e, P]; and
    d/ddelta, from dH/ddelta = -P_e, sums -Re conj(M~_ab) Gamma_ab E_ab over
    the pulses, where Gamma_ab = (e_a - e_b) / (w_a - w_b) is the
    Daleckii-Krein divided difference, evaluated as
    -i t e^{-i (w_a + w_b) t / 2} sinc((w_a - w_b) t / 2) so that it tends
    to -i t e_a as w_b tends to w_a.  Members chain through their softmax
    share of the log-sum-exp times their spec's weight, and a member whose
    duration is clamped at 0 adds nothing to that pulse's d/dt.
    """
    weights, energies, vectors, t, phi, live = _member_trains(
        energies, vectors, durations, phases, ensemble
    )
    size = weights.size
    rows, count = t.shape[0] // size, t.shape[1]
    adjoint = np.conj(np.swapaxes(vectors, -1, -2))
    c = vectors.shape[-1] // 2
    excited = adjoint[..., c:] @ vectors[..., c:, :]  # E = V^dagger P_e V
    entering: list[np.ndarray] = []
    u, decay, hinge = _train_pass(energies, vectors, t, phi, entering=entering)
    member = modulus_loss(u, target)
    losses, shares = _soft_worst(weights * member.reshape(rows, size))

    magnitude = np.abs(u)
    scale = magnitude * member[:, None, None]
    grad = np.divide(
        (magnitude - target.modulus) * target.mask * u,
        scale,
        out=np.zeros_like(u),
        where=scale > 0,
    )
    grad *= (shares * weights).reshape(-1, 1, 1)
    # back through the train: y_k = V^dagger Z_k^dagger U_after^dagger G, and
    # M~_k = y_k (V^dagger Z_k^dagger U_before)^dagger, (B * M, n, dim, dim)
    tilde = np.empty(decay.shape + decay.shape[-1:], dtype=complex)
    undecay, unhinge = decay[..., None].conj(), hinge[..., None].conj()
    y = adjoint @ (unhinge[:, count - 1] * grad)
    for k in range(count - 1, -1, -1):
        if k < count - 1:
            y = adjoint @ (unhinge[:, k] * (vectors @ (undecay[:, k + 1] * y)))
        np.matmul(y, np.swapaxes(entering[k], -1, -2).conj(), out=tilde[:, k])

    w = energies[..., None, :]
    diagonal = np.diagonal(tilde, axis1=-2, axis2=-1)
    d_t = np.real(np.sum(diagonal.conj() * (-1j * w * decay), axis=-1)) * live
    gap = (energies[..., :, None] - energies[..., None, :])[..., None, :, :]
    half = np.exp(-0.5j * w * t[..., None])
    x = gap * (0.5 * t[..., None, None])
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    gamma = half[..., :, None] * half[..., None, :] * (-1j * t[..., None, None] * sinc)
    # i (e_b - e_a) = -i (w_a - w_b) Gamma_ab, so one product serves phi and delta
    terms = tilde.conj() * excited[..., None, :, :] * gamma
    d_phi = np.sum(gap * terms, axis=(-2, -1)).imag
    d_delta = -np.sum(terms.real, axis=(-3, -2, -1))
    return (
        losses,
        d_t.reshape(rows, size, count).sum(axis=1),
        d_phi.reshape(rows, size, count).sum(axis=1),
        d_delta.reshape(rows, size).sum(axis=1),
    )
