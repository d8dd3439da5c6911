"""Two-stage pulse search: global swarm exploration, then local refinement.

The landscape of the modulus loss is multimodal in the pulse durations and
phases, so a particle swarm scans the box first and a bounded quasi-Newton
descent polishes the best candidates.  All randomness flows from one integer
seed, so a given (seed, system, target) triple reproduces identical results
on the same platform and library versions.  Elsewhere results agree only up
to rounding, and rounding differences can settle a design in another local
optimum.

Every evaluation goes through the same pure objective, and it runs in
blocks: it maps a (P, k) block of layout vectors to P losses through
``ensemble_losses``, one pass of the batched kernel over every train of the
block, so the swarm evaluates its whole population per iteration.  The
refinement asks the same objective for a loss and its exact gradient at
once, from ``ensemble_gradients``: the kernel runs forward over the
eigenpairs, and back from the loss's derivative by each propagator
(``pulses._train_vjp``), as in GRAPE (Khaneja et al., J. Magn. Reson. 172,
296 (2005); de Fouquieres et al., J. Magn. Reson. 212, 412 (2011)).  The
eigenpairs are those of the real frame of the drive,
``_real_drive_eigenpairs``: the loss reads only moduli, which that frame
keeps, and its real ``eigh`` and real products are the cheaper ones.  A call
pays only for what changes per call: the drive's Hamiltonian is cached per
Rabi rate, with the detuning written in, and the kernel carries only the
columns the target compares (the ground block of a shelving target), whose
loss agrees with the whole propagator's to rounding.  One row is one
evaluation, and a row's loss does not depend on the block it is evaluated
in.  The kernel's propagators agree with the reference ``composite_unitary``
only up to rounding.

The objective is the soft worst case of the modulus loss over the pulses the
offset grids of an ``OffsetEnsemble`` perturb the candidate into, as
``ensemble_losses`` scores it.  Without an ensemble it is that of
``OffsetEnsemble(())``, the nominal pulse alone, which is its modulus loss.
The swarm treats a non-finite loss as +inf, so such a candidate never
becomes its incumbent.

The refinement is scipy's L-BFGS-B, and ``refine`` imports
``scipy.optimize`` on its first call, so that importing the package loads
numpy and the standard library alone: readout, sweeps and ``evaluate`` never
load scipy.

Progress goes to the ``fockpulse.optimizer`` logger at INFO level: the swarm's
best loss every ``_LOG_EVERY`` iterations, and each refinement's result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .fockspace import SystemConfig, check_integer, check_real
from .objective import TargetSpec
from .objective import modulus_loss  # noqa: F401  unused, rebound by bench/tracer.py
from .pulses import (
    CompositePulse,
    ParamLayout,
    _real_drive_eigenpairs,
    composite_unitary,  # noqa: F401  the reference path, rebound by bench/tracer.py
)
from .robustness import OffsetEnsemble, ensemble_gradients, ensemble_losses

__all__ = [
    "PsoConfig",
    "RefineConfig",
    "OptimizationResult",
    "finite_difference_gradient",
    "pso_search",
    "refine",
    "design_pulse",
]

log = logging.getLogger(__name__)

# The swarm logs its best loss once per this many iterations.
_LOG_EVERY = 100

# Losses closer than this are treated as ties and broken by total duration.
_TIE_TOL = 1e-12

# Constriction coefficients of the swarm (Eberhart & Shi, CEC 2000).
_INERTIA, _COGNITIVE, _SOCIAL = 0.729, 1.49445, 1.49445


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings: population, iteration count and seed."""

    particles: int = 64
    iterations: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("particles", self.particles, 8)
        check_integer("iterations", self.iterations, 1)
        check_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class RefineConfig:
    """Local-descent settings for the bounded quasi-Newton stage."""

    max_iters: int = 500
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        check_integer("max_iters", self.max_iters, 1)
        check_real("tolerance", self.tolerance, positive=True)


@dataclass
class OptimizationResult:
    """Best pulse found, its loss, and the best-so-far trace.

    ``history`` holds (objective evaluations so far, best loss) pairs, one
    whenever the incumbent strictly improved, so the evaluation column
    increases and the loss column decreases.  ``evaluations`` counts
    objective evaluations; in the refinement one evaluation yields a loss and
    its gradient.
    """

    pulse: CompositePulse
    loss: float
    evaluations: int
    history: list[tuple[int, float]] = field(default_factory=list)


class _TrackedObjective:
    """Wraps a block objective with bounds enforcement and incumbent tracking.

    The objective maps a (P, k) block of vectors to P losses, or to a pair
    of the P losses and their (P, k) gradients, which is returned as it is.
    Every row counts as one evaluation, and the history is appended in row
    order.
    """

    def __init__(
        self,
        func: Callable[[np.ndarray], Any],
        lower: np.ndarray,
        upper: np.ndarray,
    ):
        self.func = func
        self.lower = lower
        self.upper = upper
        self.evaluations = 0
        self.best_x: np.ndarray | None = None
        self.best_f = np.inf
        self.history: list[tuple[int, float]] = []

    def __call__(self, block: np.ndarray) -> Any:
        block = np.asarray(block, dtype=float)
        if np.any(block < self.lower) or np.any(block > self.upper):
            raise ValueError("objective evaluated outside its box bounds")
        result = self.func(block)
        values = result[0] if isinstance(result, tuple) else result
        values = np.asarray(values, dtype=float)
        # the incumbent each row meets; fmin skips NaN, which never leads
        met = np.fmin.accumulate(np.concatenate(([self.best_f], values)))[:-1]
        rows = np.flatnonzero(values < met)
        self.history.extend(
            zip((self.evaluations + 1 + rows).tolist(), values[rows].tolist())
        )
        if rows.size:
            self.best_f = self.history[-1][1]
            self.best_x = block[rows[-1]].copy()
        self.evaluations += len(values)
        return result


def finite_difference_gradient(
    func: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float
) -> np.ndarray:
    """Central-difference gradient (f(x + step e_j) - f(x - step e_j)) / (2 step).

    ``func`` maps a (P, n) block of points to P values, and all 2n probes are
    evaluated in one block.  Raises on non-finite differences, naming the
    offending coordinate.  The refinement uses the exact gradient; this is
    the reference the tests check it against.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    # rows 2j and 2j + 1 probe coordinate j
    probes = np.repeat(x[None, :], 2 * n, axis=0)
    probes[0::2][np.arange(n), np.arange(n)] += step
    probes[1::2][np.arange(n), np.arange(n)] -= step
    f1, f2 = np.asarray(func(probes), dtype=float).reshape(n, 2).T
    grad = (f1 - f2) / (2.0 * step)
    _check_finite_gradient(grad, x)
    return grad


def _check_finite_gradient(grad: np.ndarray, x: np.ndarray) -> None:
    """Raise FloatingPointError naming the first non-finite coordinate of ``grad``."""
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        j = int(bad[0])
        raise FloatingPointError(
            f"non-finite gradient in coordinate {j} at x[{j}]={x[j]!r}"
        )


def _finite_or_inf(values: np.ndarray) -> np.ndarray:
    losses = np.array(values, dtype=float)
    losses[~np.isfinite(losses)] = np.inf
    return losses


def _pso_minimize(
    func: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    pcfg: PsoConfig,
) -> tuple[np.ndarray, float]:
    """Global-best particle swarm over a box.  Returns (x, f).

    ``func`` maps the (particles, k) population to its losses, one block per
    iteration.  Non-finite losses count as +inf, so they never lead the swarm.
    """
    rng = np.random.default_rng(pcfg.seed)
    n_dim = lower.size
    span = upper - lower
    pos = lower + span * rng.random((pcfg.particles, n_dim))
    vel = np.zeros((pcfg.particles, n_dim))

    losses = _finite_or_inf(func(pos))
    best_pos = pos.copy()
    best_losses = losses.copy()
    g = int(np.argmin(best_losses))
    g_pos = best_pos[g].copy()
    g_loss = float(best_losses[g])

    for it in range(1, pcfg.iterations + 1):
        r_cog = rng.random((pcfg.particles, n_dim))
        r_soc = rng.random((pcfg.particles, n_dim))
        vel = (
            _INERTIA * vel
            + _COGNITIVE * r_cog * (best_pos - pos)
            + _SOCIAL * r_soc * (g_pos - pos)
        )
        pos = np.clip(pos + vel, lower, upper)
        losses = _finite_or_inf(func(pos))
        improved = losses < best_losses
        best_pos[improved] = pos[improved]
        best_losses[improved] = losses[improved]
        g = int(np.argmin(best_losses))
        if best_losses[g] < g_loss:
            g_loss = float(best_losses[g])
            g_pos = best_pos[g].copy()
        if it % _LOG_EVERY == 0:
            log.info("pso iteration %d: best loss %.6f", it, g_loss)
    return g_pos, g_loss


def _pulse_objective(
    cfg: SystemConfig,
    template: CompositePulse,
    layout: ParamLayout,
    target: TargetSpec,
    ensemble: OffsetEnsemble | None = None,
    *,
    gradient: bool = False,
) -> Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """Map a (P, k) block of layout vectors to the P losses of their trains.

    ``layout.decode`` splits the block and ``ensemble_losses`` scores each row
    over ``ensemble``, the nominal pulse alone when none is given.  With
    ``gradient`` set, ``ensemble_gradients`` scores it and the objective
    returns the losses with their (P, k) gradients in the layout's slots.  The
    template's pulses must share one Rabi rate, and one detuning unless the
    layout frees it.  The drive is decomposed in its real frame, by
    ``_real_drive_eigenpairs``: a fixed detuning once, here; a free one once
    per row, all rows of a block in one batched ``eigh``.
    """
    ensemble = OffsetEnsemble(()) if ensemble is None else ensemble
    omega = template[0].omega
    delta = None if layout.shared_delta else template[0].delta
    if any(
        p.omega != omega or (delta is not None and p.delta != delta) for p in template
    ):
        raise ValueError("the template's pulses do not share one drive")
    fixed = None if delta is None else _real_drive_eigenpairs(cfg, delta, omega)

    def objective(block: np.ndarray) -> np.ndarray:
        durations, phases, shared = layout.decode(block, template)
        energies, vectors = (
            fixed if shared is None else _real_drive_eigenpairs(cfg, shared, omega)
        )
        args = (energies, vectors, durations, phases, target, ensemble)
        if not gradient:
            return ensemble_losses(*args)
        losses, d_t, d_phi, d_delta = ensemble_gradients(*args)
        # the first phase is the template's, not a slot
        slots = [d_t, d_phi[:, 1:]] + ([] if shared is None else [d_delta[:, None]])
        return losses, np.hstack(slots)

    return objective


def pso_search(
    cfg: SystemConfig,
    template: CompositePulse,
    layout: ParamLayout,
    target: TargetSpec,
    pcfg: PsoConfig,
    *,
    ensemble: OffsetEnsemble | None = None,
) -> OptimizationResult:
    """Swarm search over the layout's box.  Deterministic for a given seed."""
    lower, upper = layout.slot_bounds()
    tracked = _TrackedObjective(
        _pulse_objective(cfg, template, layout, target, ensemble), lower, upper
    )
    x, loss = _pso_minimize(tracked, lower, upper, pcfg)
    return OptimizationResult(
        pulse=layout.unpack(x, template),
        loss=loss,
        evaluations=tracked.evaluations,
        history=tracked.history,
    )


def refine(
    cfg: SystemConfig,
    start: CompositePulse,
    layout: ParamLayout,
    target: TargetSpec,
    rcfg: RefineConfig,
    *,
    ensemble: OffsetEnsemble | None = None,
) -> OptimizationResult:
    """Bounded quasi-Newton descent from ``start``.

    L-BFGS-B takes the loss and its exact gradient from one call of the
    objective, which counts as one evaluation.  A non-finite loss or gradient
    raises ``FloatingPointError``.  The incumbent is tracked across every
    evaluation, so the result is never worse than the starting point.
    """
    # Imported here, not at the top: scipy.optimize (scipy.linalg with it) is
    # about four fifths of ``import fockpulse`` without this (0.41-0.51 s of
    # 0.50-0.63 s by python -X importtime on a 2-vCPU VM), and readout,
    # sweeps and evaluate never refine.
    from scipy.optimize import minimize

    x0 = layout.pack(start)
    lower, upper = layout.slot_bounds()
    if not layout.contains(x0):
        raise ValueError("refinement start lies outside the layout bounds")
    tracked = _TrackedObjective(
        _pulse_objective(cfg, start, layout, target, ensemble, gradient=True),
        lower,
        upper,
    )

    def value_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        (value,), (grad,) = tracked(x[None, :])
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite loss {value!r} at x={x.tolist()}")
        _check_finite_gradient(grad, x)
        return value, grad

    minimize(
        value_and_gradient,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lower, upper)),
        options={
            "maxiter": rcfg.max_iters,
            "ftol": rcfg.tolerance,
            "gtol": 1e-12,
        },
    )
    assert tracked.best_x is not None
    log.info(
        "refine done after %d evaluations: loss %.6f",
        tracked.evaluations,
        tracked.best_f,
    )
    return OptimizationResult(
        pulse=layout.unpack(tracked.best_x, start),
        loss=tracked.best_f,
        evaluations=tracked.evaluations,
        history=tracked.history,
    )


def design_pulse(
    cfg: SystemConfig,
    template: CompositePulse,
    layout: ParamLayout,
    target: TargetSpec,
    pcfg: PsoConfig,
    rcfg: RefineConfig,
    *,
    starts: int = 4,
    refine_top: int = 2,
    ensemble: OffsetEnsemble | None = None,
) -> OptimizationResult:
    """Full pipeline: several independent swarm starts, refine the best few.

    Swarm start k runs with seed ``pcfg.seed + k``.  Every swarm and refined
    result is a candidate; those within 1e-12 of the lowest loss tie, and the
    tie goes to the shortest total duration.  The returned history is the
    global best-so-far trace across all stages, its x-axis the evaluations
    spent so far: each stage's trace is shifted by the evaluations of the
    stages before it.
    Every stage minimizes the same objective: the soft worst case of the
    loss over ``ensemble`` (``ensemble_losses``), which defaults to the
    nominal pulse alone.
    """
    check_integer("starts", starts, 1)
    check_integer("refine_top", refine_top)
    if not 1 <= refine_top <= starts:
        raise ValueError(
            f"refine_top must lie in [1, starts={starts}], got {refine_top}"
        )

    stage_results: list[OptimizationResult] = []
    history: list[tuple[int, float]] = []
    evaluations = 0

    def absorb(result: OptimizationResult) -> None:
        nonlocal evaluations
        for n, loss in result.history:
            if not history or loss < history[-1][1]:
                history.append((evaluations + n, loss))
        evaluations += result.evaluations

    for k in range(starts):
        run = pso_search(
            cfg,
            template,
            layout,
            target,
            replace(pcfg, seed=pcfg.seed + k),
            ensemble=ensemble,
        )
        absorb(run)
        stage_results.append(run)

    stage_results.sort(key=lambda r: r.loss)
    candidates = list(stage_results)
    for run in stage_results[:refine_top]:
        polished = refine(cfg, run.pulse, layout, target, rcfg, ensemble=ensemble)
        absorb(polished)
        candidates.append(polished)

    best_loss = min(r.loss for r in candidates)
    winner = min(
        (r for r in candidates if r.loss <= best_loss + _TIE_TOL),
        key=lambda r: (r.pulse.total_duration, r.loss),
    )
    return OptimizationResult(
        pulse=winner.pulse,
        loss=winner.loss,
        evaluations=evaluations,
        history=history,
    )
