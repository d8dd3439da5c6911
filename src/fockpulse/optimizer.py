"""Two-stage pulse search: global swarm exploration, then local refinement.

The landscape of the modulus loss is multimodal in the pulse durations and
phases, so a particle swarm scans the box first and a bounded quasi-Newton
descent polishes the best candidates.  Every evaluation goes through the same
pure objective, and all randomness flows from one integer seed, so a given
(seed, system, target) triple reproduces identical results on the same
platform and library versions.  Elsewhere results agree only up to rounding,
and rounding differences can settle a design in another local optimum.

The objective is the modulus loss of the nominal pulse, or, when an
``OffsetEnsemble`` is passed, the ``robust_loss`` over the pulses its offset
grids perturb the candidate into.  The swarm treats a non-finite loss as
+inf, so such a candidate never becomes its incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .fockspace import SystemConfig
from .objective import TargetSpec, modulus_loss
from .pulses import CompositePulse, ParamLayout, composite_unitary
from .robustness import OffsetEnsemble, robust_loss

__all__ = [
    "PsoConfig",
    "RefineConfig",
    "OptimizationResult",
    "ProgressCallback",
    "finite_difference_gradient",
    "pso_search",
    "refine",
    "design_pulse",
]

# callback(stage, iteration, best_loss)
ProgressCallback = Callable[[str, int, float], None]

# Losses closer than this are treated as ties and broken by total duration.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings.  Defaults follow the constriction-factor convention."""

    particles: int = 64
    iterations: int = 300
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    seed: int = 0

    def __post_init__(self) -> None:
        if self.particles < 8:
            raise ValueError(f"particles must be >= 8, got {self.particles}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        for name in ("inertia", "cognitive", "social"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class RefineConfig:
    """Local-descent settings for the bounded quasi-Newton stage."""

    max_iters: int = 500
    gradient_step: float = 1e-6
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.gradient_step <= 1e-3:
            raise ValueError(
                f"gradient_step must lie in (0, 1e-3], got {self.gradient_step}"
            )
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass
class OptimizationResult:
    """Best pulse found, its loss, and the best-so-far trace.

    ``history`` holds (iteration, loss) pairs recorded whenever the incumbent
    improved, so the loss column is nonincreasing.  ``evaluations`` counts
    objective calls, including those spent on finite-difference gradients.
    """

    pulse: CompositePulse
    loss: float
    evaluations: int
    history: list[tuple[int, float]] = field(default_factory=list)


class _TrackedObjective:
    """Wraps a vector objective with bounds enforcement and incumbent tracking."""

    def __init__(
        self,
        func: Callable[[np.ndarray], float],
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

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lower) or np.any(x > self.upper):
            raise ValueError("objective evaluated outside its box bounds")
        value = float(self.func(x))
        self.evaluations += 1
        if value < self.best_f:
            self.best_f = value
            self.best_x = x.copy()
            self.history.append((self.evaluations, value))
        return value


def finite_difference_gradient(
    func: Callable[[np.ndarray], float],
    x: np.ndarray,
    step: float,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> np.ndarray:
    """Central-difference gradient that never probes outside box bounds.

    Coordinates closer than one step to a bound fall back to the one-sided
    three-point stencil of the same order, so bounded objectives may assume
    every probe is feasible.  Raises on non-finite differences, naming the
    offending coordinate.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    grad = np.empty(n)
    f0: float | None = None
    for j in range(n):
        up_ok = x[j] + step <= upper[j]
        down_ok = x[j] - step >= lower[j]
        probe = x.copy()
        if up_ok and down_ok:
            probe[j] = x[j] + step
            f_plus = func(probe)
            probe[j] = x[j] - step
            f_minus = func(probe)
            grad[j] = (f_plus - f_minus) / (2.0 * step)
        else:
            if f0 is None:
                f0 = func(x)
            sign = 1.0 if up_ok else -1.0
            probe[j] = x[j] + sign * step
            f1 = func(probe)
            probe[j] = x[j] + sign * 2.0 * step
            f2 = func(probe)
            grad[j] = sign * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * step)
        if not np.isfinite(grad[j]):
            raise FloatingPointError(
                f"non-finite gradient in coordinate {j} at x[{j}]={x[j]!r}"
            )
    return grad


def _finite_or_inf(values: list[float]) -> np.ndarray:
    losses = np.array(values, dtype=float)
    losses[~np.isfinite(losses)] = np.inf
    return losses


def _pso_minimize(
    func: Callable[[np.ndarray], float],
    lower: np.ndarray,
    upper: np.ndarray,
    pcfg: PsoConfig,
    *,
    callback: ProgressCallback | None = None,
) -> tuple[np.ndarray, float, list[tuple[int, float]], int]:
    """Global-best particle swarm over a box.  Returns (x, f, history, evals).

    Non-finite losses count as +inf, so they never lead the swarm.
    """
    rng = np.random.default_rng(pcfg.seed)
    n_dim = lower.size
    span = upper - lower
    pos = lower + span * rng.random((pcfg.particles, n_dim))
    vel = np.zeros((pcfg.particles, n_dim))

    losses = _finite_or_inf([func(p) for p in pos])
    best_pos = pos.copy()
    best_losses = losses.copy()
    g = int(np.argmin(best_losses))
    g_pos = best_pos[g].copy()
    g_loss = float(best_losses[g])
    history = [(0, g_loss)]
    evaluations = pcfg.particles

    for it in range(1, pcfg.iterations + 1):
        r_cog = rng.random((pcfg.particles, n_dim))
        r_soc = rng.random((pcfg.particles, n_dim))
        vel = (
            pcfg.inertia * vel
            + pcfg.cognitive * r_cog * (best_pos - pos)
            + pcfg.social * r_soc * (g_pos - pos)
        )
        pos = np.clip(pos + vel, lower, upper)
        losses = _finite_or_inf([func(p) for p in pos])
        evaluations += pcfg.particles
        improved = losses < best_losses
        best_pos[improved] = pos[improved]
        best_losses[improved] = losses[improved]
        g = int(np.argmin(best_losses))
        if best_losses[g] < g_loss:
            g_loss = float(best_losses[g])
            g_pos = best_pos[g].copy()
            history.append((it, g_loss))
        if callback is not None:
            callback("pso", it, g_loss)
    return g_pos, g_loss, history, evaluations


def _pulse_objective(
    cfg: SystemConfig,
    template: CompositePulse,
    layout: ParamLayout,
    target: TargetSpec,
    ensemble: OffsetEnsemble | None = None,
) -> Callable[[np.ndarray], float]:
    def objective(x: np.ndarray) -> float:
        cp = layout.unpack(x, template)
        if ensemble is not None:
            return robust_loss(cfg, cp, target, ensemble)
        return modulus_loss(composite_unitary(cfg, cp), target)

    return objective


def pso_search(
    cfg: SystemConfig,
    template: CompositePulse,
    layout: ParamLayout,
    target: TargetSpec,
    pcfg: PsoConfig,
    *,
    ensemble: OffsetEnsemble | None = None,
    callback: ProgressCallback | None = None,
) -> OptimizationResult:
    """Swarm search over the layout's box.  Deterministic for a given seed."""
    lower, upper = layout.slot_bounds()
    tracked = _TrackedObjective(
        _pulse_objective(cfg, template, layout, target, ensemble), lower, upper
    )
    x, loss, history, _ = _pso_minimize(
        tracked, lower, upper, pcfg, callback=callback
    )
    return OptimizationResult(
        pulse=layout.unpack(x, template),
        loss=loss,
        evaluations=tracked.evaluations,
        history=history,
    )


def refine(
    cfg: SystemConfig,
    start: CompositePulse,
    layout: ParamLayout,
    target: TargetSpec,
    rcfg: RefineConfig,
    *,
    ensemble: OffsetEnsemble | None = None,
    callback: ProgressCallback | None = None,
) -> OptimizationResult:
    """Bounded quasi-Newton descent from ``start``.

    Gradients are finite differences of the exact objective.  The incumbent is
    tracked across every evaluation, so the result is never worse than the
    starting point.
    """
    x0 = layout.pack(start)
    lower, upper = layout.slot_bounds()
    if not layout.contains(x0):
        raise ValueError("refinement start lies outside the layout bounds")
    tracked = _TrackedObjective(
        _pulse_objective(cfg, start, layout, target, ensemble), lower, upper
    )

    def jac(x: np.ndarray) -> np.ndarray:
        return finite_difference_gradient(
            tracked, x, rcfg.gradient_step, lower, upper
        )

    minimize(
        tracked,
        x0,
        jac=jac,
        method="L-BFGS-B",
        bounds=list(zip(lower, upper)),
        options={
            "maxiter": rcfg.max_iters,
            "ftol": rcfg.tolerance,
            "gtol": 1e-12,
        },
    )
    assert tracked.best_x is not None
    if callback is not None:
        callback("refine", tracked.evaluations, tracked.best_f)
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
    callback: ProgressCallback | None = None,
) -> OptimizationResult:
    """Full pipeline: several independent swarm starts, refine the best few.

    Swarm start k runs with seed ``pcfg.seed + k``.  Every swarm and refined
    result is a candidate; those within 1e-12 of the lowest loss tie, and the
    tie goes to the shortest total duration.  The returned history is the
    global best-so-far trace across all stages.
    Every stage minimizes the same objective: ``robust_loss`` over
    ``ensemble`` when one is given, the nominal modulus loss otherwise.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if not 1 <= refine_top <= starts:
        raise ValueError(
            f"refine_top must lie in [1, starts={starts}], got {refine_top}"
        )

    stage_results: list[OptimizationResult] = []
    history: list[tuple[int, float]] = []
    offset = 0
    best_so_far = np.inf
    evaluations = 0

    def absorb(result: OptimizationResult) -> None:
        nonlocal offset, best_so_far, evaluations
        for it, loss in result.history:
            if loss < best_so_far:
                best_so_far = loss
                history.append((offset + it, loss))
        offset += result.history[-1][0] if result.history else 0
        evaluations += result.evaluations

    for k in range(starts):
        run = pso_search(
            cfg,
            template,
            layout,
            target,
            replace(pcfg, seed=pcfg.seed + k),
            ensemble=ensemble,
            callback=callback,
        )
        absorb(run)
        stage_results.append(run)

    stage_results.sort(key=lambda r: r.loss)
    candidates = list(stage_results)
    for run in stage_results[:refine_top]:
        polished = refine(
            cfg, run.pulse, layout, target, rcfg, ensemble=ensemble, callback=callback
        )
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
