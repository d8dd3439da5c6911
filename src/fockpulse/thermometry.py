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

``run_thermometry`` is one straight path: it checks the window against the
truth space and the design space, then designs (unless pulses are supplied),
builds the coefficients, measures and solves.  An error of any stage reaches
the caller as it was raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .fockspace import SystemConfig, check_integer, check_real
from .objective import excitation_profile, shelving_target
from .optimizer import PsoConfig, RefineConfig, design_pulse
from .pulses import (
    CompositePulse,
    ParamLayout,
    composite_unitary,
    drive_eigenpairs,
    train_product,
)

__all__ = [
    "PhononDistribution",
    "thermal_distribution",
    "IllConditionedError",
    "ThermometryResult",
    "coefficient_matrix",
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


@dataclass(frozen=True)
class PhononDistribution:
    """Population per Fock index, starting at index 0, normalized to 1."""

    populations: np.ndarray

    def __post_init__(self) -> None:
        for value in np.ravel(np.asarray(self.populations, dtype=object)):
            check_real("populations", value)
        populations = np.asarray(self.populations, dtype=float)
        if populations.ndim != 1 or populations.size == 0:
            raise ValueError("populations must be a nonempty vector")
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
    check_real("nbar", nbar, 0)
    check_integer("cutoff", cutoff, 1)
    if nbar == 0:
        populations = np.zeros(cutoff)
        populations[0] = 1.0
    else:
        n = np.arange(cutoff)
        log_p = n * np.log(nbar) - (n + 1) * np.log1p(nbar)
        populations = np.exp(log_p)
        populations /= populations.sum()
    return PhononDistribution(populations=populations)


def _window_columns(cfg: SystemConfig, window: Sequence[int], space: str) -> list[int]:
    """Profile column of each window state in the space ``cfg`` retains.

    The window must be a list of distinct integers, at least one, each
    inside [fock_offset, fock_offset + cutoff); the error names ``space``.
    """
    try:
        window = list(window)
    except TypeError:
        raise ValueError(f"window must be a list of states, got {window!r}") from None
    if not window:
        raise ValueError("window must hold at least one state")
    for n in window:
        check_integer("window state", n)
    if len(window) != len(set(window)):
        raise ValueError(f"window states must be distinct, got {window}")
    lo, hi = cfg.fock_offset, cfg.fock_offset + cfg.cutoff
    outside = [int(n) for n in window if not lo <= n < hi]
    if outside:
        raise ValueError(
            f"window states {outside} lie outside the {space} space [{lo}, {hi})"
        )
    return [int(n) - lo for n in window]


def coefficient_matrix(
    cfg: SystemConfig, pulses: Sequence[CompositePulse], window: Sequence[int]
) -> np.ndarray:
    """Excitation coefficients of ``pulses`` over ``window`` at design cutoff.

    Row m, column n holds the probability that pulse m excites the window's
    n-th Fock state; ``window`` uses absolute Fock indices.
    """
    profiles = np.array(
        [excitation_profile(composite_unitary(cfg, cp)) for cp in pulses]
    )
    columns = _window_columns(cfg, window, "design")
    if len(pulses) != len(columns):
        raise ValueError(
            f"got {len(pulses)} pulses for a window of {len(columns)} states"
        )
    return profiles[:, columns]


def _check_truth(cfg_truth: SystemConfig, dist: PhononDistribution) -> None:
    """Raise ValueError unless ``dist`` has one entry per truth-space level."""
    if len(dist) != cfg_truth.cutoff:
        raise ValueError(
            f"distribution has {len(dist)} entries but the truth space "
            f"retains {cfg_truth.cutoff} levels"
        )


def simulate_measurements(
    cfg_big: SystemConfig,
    pulses: Sequence[CompositePulse],
    dist: PhononDistribution,
) -> np.ndarray:
    """Excited-state probabilities each pulse would measure on ``dist``.

    Evaluated on the large truth space: M_m is the full excitation profile of
    pulse m contracted with the population vector, so it includes excitation
    routes absent from the small design space.  The readout only sees the
    columns U|g, n>, so each train carries the ``cutoff`` ground-input
    columns through ``train_product`` instead of building its propagator,
    one call per run of consecutive pulses that share a drive
    (delta, omega).  A drive's eigenpairs are kept while the next run, in
    the same train or the next one, shares it, and freed before the next
    eigendecomposition.
    """
    _check_truth(cfg_big, dist)
    c = cfg_big.cutoff
    profiles = np.empty((len(pulses), c))
    drive = None
    for m, cp in enumerate(pulses):
        block = np.eye(cfg_big.dim, c)
        for run_drive, run in groupby(cp, key=lambda p: (p.delta, p.omega)):
            if run_drive != drive:
                drive = run_drive
                energies = vectors = None  # free the last drive's pair first
                energies, vectors = drive_eigenpairs(cfg_big, *drive)
            run = list(run)
            durations, phases = [[p.t for p in run]], [[p.phi for p in run]]
            block = train_product(energies, vectors, durations, phases, block)[0]
        profiles[m] = np.sum(np.abs(block[c:]) ** 2, axis=0)
    return profiles @ dist.populations


def correct_populations(
    coeff: np.ndarray, measured: np.ndarray
) -> tuple[np.ndarray, float]:
    """Solve a . R = M with a dense solve (never an inverse).

    Returns (corrected, condition number of a).  Raises ValueError when
    either input holds values that are not integer or real (complex, boolean,
    text) or not finite, and IllConditionedError when the coefficient matrix
    is singular or its condition number exceeds CONDITION_LIMIT, since the
    solution would amplify measurement error beyond use.
    """
    coeff, measured = np.asarray(coeff), np.asarray(measured)
    for name, values in (("coefficient matrix", coeff), ("measured vector", measured)):
        if values.dtype.kind not in "iuf":
            raise ValueError(f"{name} must hold real numbers, got {values.dtype}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite, got {values.tolist()}")
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

    ``cfg_truth`` must anchor at Fock 0 and cover the window; it plays the
    role of reality, so the distribution lives on it, one entry per truth
    level.  Those conditions, and a window state outside the truth or the
    design space, raise ValueError before the design stage.  Passing
    ``pulses`` skips the design stage, which is how library or published
    pulses enter.
    """
    if cfg_truth.fock_offset != 0:
        raise ValueError("truth space must start at Fock index 0")
    _check_truth(cfg_truth, dist)
    # The truth space starts at Fock 0, so its columns are the window states.
    window = _window_columns(cfg_truth, window, "truth")
    design_columns = _window_columns(cfg_design, window, "design")

    if pulses is None:
        results = [
            design_pulse(
                cfg_design,
                template,
                layout,
                shelving_target(cfg_design.cutoff, column),
                pcfg,
                rcfg,
                starts=starts,
                refine_top=refine_top,
            )
            for column in design_columns
        ]
        pulses = [r.pulse for r in results]
        design_losses = [r.loss for r in results]
    else:
        pulses = list(pulses)
        design_losses = [float("nan")] * len(window)

    coeff = coefficient_matrix(cfg_design, pulses, window)
    measured = simulate_measurements(cfg_truth, pulses, dist)
    corrected, condition = correct_populations(coeff, measured)
    return ThermometryResult(
        window=window,
        truth=dist.populations[window],
        measured=measured,
        corrected=corrected,
        condition_number=condition,
        coeff=coeff,
        pulses=pulses,
        design_losses=design_losses,
    )
