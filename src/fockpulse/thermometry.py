"""Phonon-population readout with linear correction for imperfect pulses.

One composite pulse per probed Fock state converts "how much population sat
in |g, n>" into "probability of finding the ion excited".  Real pulses also
excite neighbouring states, so the raw excitation probabilities M mix the
populations P through a coefficient matrix a built from the pulses' excitation
profiles: a . P = M.  Solving a . R = M for R undoes that mixing.  The matrix
is computed on the small design space while M comes from a much larger truth
space.  On the window the two spaces give nearly the same profiles, so the
solve undoes the mixing among the window states and nothing more: population
outside the window still excites the pulses and adds to M, which the square
system cannot see, and it remains as the error of the corrected populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fockspace import SystemConfig
from .objective import excitation_profile, shelving_target
from .optimizer import OptimizationResult, PsoConfig, RefineConfig, design_pulse
from .pulses import CompositePulse, ParamLayout, composite_unitary

__all__ = [
    "PhononDistribution",
    "thermal_distribution",
    "IllConditionedError",
    "ThermometryError",
    "ThermometryResult",
    "coefficient_matrix",
    "profiles_to_coefficients",
    "simulate_measurements",
    "correct_populations",
    "run_thermometry",
]

# Condition numbers above this make the corrected populations meaningless.
CONDITION_LIMIT = 1e8


class IllConditionedError(ValueError):
    """Raised when the coefficient matrix cannot be inverted reliably."""

    def __init__(self, condition_number: float):
        self.condition_number = condition_number
        super().__init__(
            f"coefficient matrix is ill-conditioned "
            f"(condition number {condition_number:.3e} > {CONDITION_LIMIT:.0e})"
        )


class ThermometryError(RuntimeError):
    """Wraps a failure inside one stage of the readout workflow."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"thermometry stage {stage!r} failed: {cause}")


@dataclass(frozen=True)
class PhononDistribution:
    """Population per Fock index, starting at index 0, normalized to 1."""

    populations: np.ndarray

    def __post_init__(self) -> None:
        populations = np.asarray(self.populations, dtype=float)
        if populations.ndim != 1 or populations.size == 0:
            raise ValueError("populations must be a nonempty vector")
        if not np.all(np.isfinite(populations)):
            raise ValueError("populations must be finite")
        if np.any(populations < 0):
            raise ValueError("populations must be nonnegative")
        total = populations.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"populations must sum to 1, got {total!r}")
        populations = populations / total
        populations.flags.writeable = False
        object.__setattr__(self, "populations", populations)

    def __len__(self) -> int:
        return self.populations.size

    @property
    def mean(self) -> float:
        """Mean phonon number of the stored (truncated) distribution."""
        return float(np.arange(len(self)) @ self.populations)


def thermal_distribution(nbar: float, cutoff: int) -> PhononDistribution:
    """Truncated thermal (geometric) distribution with mean ``nbar``.

    P_n proportional to nbar^n / (1 + nbar)^(n+1); renormalized over the
    retained levels so tiny truncation tails do not break the sum rule.
    """
    if not np.isfinite(nbar) or nbar < 0:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if nbar == 0:
        populations = np.zeros(cutoff)
        populations[0] = 1.0
    else:
        n = np.arange(cutoff)
        log_p = n * np.log(nbar) - (n + 1) * np.log1p(nbar)
        populations = np.exp(log_p)
        populations /= populations.sum()
    return PhononDistribution(populations=populations)


def profiles_to_coefficients(
    profiles: np.ndarray, window: Sequence[int], fock_offset: int = 0
) -> np.ndarray:
    """Coefficient matrix from per-pulse excitation profiles.

    Row m, column n holds the probability that pulse m excites the window's
    n-th Fock state.  ``window`` uses absolute Fock indices; ``fock_offset``
    translates them into profile positions.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    window = list(window)
    if profiles.shape[0] != len(window):
        raise ValueError(
            f"got {profiles.shape[0]} profiles for a window of {len(window)} states"
        )
    cols = []
    for n in window:
        rel = n - fock_offset
        if not 0 <= rel < profiles.shape[1]:
            raise ValueError(
                f"window state {n} lies outside the design space "
                f"[{fock_offset}, {fock_offset + profiles.shape[1]})"
            )
        cols.append(rel)
    return profiles[:, cols].copy()


def coefficient_matrix(
    cfg: SystemConfig, pulses: Sequence[CompositePulse], window: Sequence[int]
) -> np.ndarray:
    """Excitation coefficients of ``pulses`` over ``window`` at design cutoff."""
    profiles = np.array(
        [excitation_profile(composite_unitary(cfg, cp)) for cp in pulses]
    )
    return profiles_to_coefficients(profiles, window, cfg.fock_offset)


def simulate_measurements(
    cfg_big: SystemConfig,
    pulses: Sequence[CompositePulse],
    dist: PhononDistribution,
) -> np.ndarray:
    """Excited-state probabilities each pulse would measure on ``dist``.

    Evaluated on the large truth space: M_m is the full excitation profile of
    pulse m contracted with the population vector, so it includes excitation
    routes absent from the small design space.
    """
    if len(dist) != cfg_big.cutoff:
        raise ValueError(
            f"distribution has {len(dist)} entries but the truth space "
            f"retains {cfg_big.cutoff} levels"
        )
    rows = []
    for cp in pulses:
        profile = excitation_profile(composite_unitary(cfg_big, cp))
        rows.append(float(profile @ dist.populations))
    return np.array(rows)


def correct_populations(
    coeff: np.ndarray, measured: np.ndarray
) -> tuple[np.ndarray, float]:
    """Solve a . R = M with a dense solve (never an inverse).

    Returns (corrected, condition number of a).  Raises IllConditionedError
    when the coefficient matrix is singular or its condition number exceeds
    CONDITION_LIMIT, since the solution would amplify measurement error
    beyond use.
    """
    coeff = np.asarray(coeff, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if coeff.ndim != 2 or coeff.shape[0] != coeff.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {coeff.shape}")
    if measured.shape != (coeff.shape[0],):
        raise ValueError(
            f"measured vector shape {measured.shape} does not match "
            f"matrix {coeff.shape}"
        )
    condition = float(np.linalg.cond(coeff))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise IllConditionedError(condition)
    return np.linalg.solve(coeff, measured), condition


@dataclass
class ThermometryResult:
    """Everything the readout produced, window-aligned.

    ``truth`` is the exact population at each window state, ``measured`` the
    raw per-pulse excitation probabilities, ``corrected`` the solve output.
    """

    window: list[int]
    truth: np.ndarray
    measured: np.ndarray
    corrected: np.ndarray
    condition_number: float
    coeff: np.ndarray
    pulses: list[CompositePulse]
    design_losses: list[float]

    def rows(self) -> list[tuple[int, float, float, float]]:
        """(fock index, true, measured, corrected) per window state."""
        return [
            (n, float(p), float(m), float(r))
            for n, p, m, r in zip(
                self.window, self.truth, self.measured, self.corrected
            )
        ]


def run_thermometry(
    cfg_design: SystemConfig,
    cfg_truth: SystemConfig,
    window: Sequence[int],
    dist: PhononDistribution,
    template: CompositePulse,
    layout: ParamLayout,
    pcfg: PsoConfig,
    rcfg: RefineConfig,
    *,
    pulses: Sequence[CompositePulse] | None = None,
    starts: int = 4,
    refine_top: int = 2,
) -> ThermometryResult:
    """Design (or reuse) one shelving pulse per window state, measure, correct.

    ``cfg_truth`` must anchor at Fock 0 and cover the design window; it plays
    the role of reality, so the distribution lives on it.  Passing ``pulses``
    skips the design stage, which is how library or published pulses enter.
    Any failure is re-raised as ThermometryError naming the stage.
    """
    window = [int(n) for n in window]
    if len(window) != len(set(window)):
        raise ValueError(f"window states must be distinct, got {window}")
    if cfg_truth.fock_offset != 0:
        raise ValueError("truth space must start at Fock index 0")

    design_losses: list[float] = []
    if pulses is None:
        designed: list[CompositePulse] = []
        for n in window:
            try:
                target = shelving_target(cfg_design.cutoff, n - cfg_design.fock_offset)
                result: OptimizationResult = design_pulse(
                    cfg_design,
                    template,
                    layout,
                    target,
                    pcfg,
                    rcfg,
                    starts=starts,
                    refine_top=refine_top,
                )
            except Exception as exc:
                raise ThermometryError(f"design[{n}]", exc) from exc
            designed.append(result.pulse)
            design_losses.append(result.loss)
        pulses = designed
    else:
        pulses = list(pulses)
        if len(pulses) != len(window):
            raise ValueError(
                f"got {len(pulses)} pulses for a window of {len(window)} states"
            )
        design_losses = [float("nan")] * len(window)

    try:
        coeff = coefficient_matrix(cfg_design, pulses, window)
    except Exception as exc:
        raise ThermometryError("coefficients", exc) from exc
    try:
        measured = simulate_measurements(cfg_truth, pulses, dist)
    except Exception as exc:
        raise ThermometryError("measurement", exc) from exc
    try:
        corrected, condition = correct_populations(coeff, measured)
    except IllConditionedError:
        raise
    except Exception as exc:
        raise ThermometryError("correction", exc) from exc

    truth = np.array([dist.populations[n] for n in window])
    return ThermometryResult(
        window=window,
        truth=truth,
        measured=measured,
        corrected=corrected,
        condition_number=condition,
        coeff=coeff,
        pulses=list(pulses),
        design_losses=design_losses,
    )
