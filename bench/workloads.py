"""The four benchmark workloads: inputs per op, the public call, and its checks.

Each workload builds its fixed inputs once, then describes op ``i`` of a run
with seed ``seed`` as an :class:`Op`.  Only the design workloads read the
seed, and only for the swarm seed: op ``i`` runs swarm seed ``seed + i``.
The readout and sweep ops cycle through the fixture pulses whatever the seed.

Every public call goes through the attribute of its module (for example
``optimizer.design_pulse``), so the tracer's rebinding reaches it.  Checks
recompute what they compare against through :func:`reference_unitary`, the
plain ``build_hamiltonian`` + ``propagate`` product, never through the code
under test.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fockpulse import fockspace, optimizer, robustness, thermometry
from fockpulse.objective import TargetSpec, modulus_loss, shelving_target, swap_target
from fockpulse.pulses import (
    CompositePulse,
    ParamLayout,
    strong_drive_layout,
    uniform_pulse_train,
    weak_drive_layout,
)

FIXTURES = Path(__file__).with_name("fixture_pulses.json")

# Agreement bar for checks against the reference product, per unit of
# duration x spectral radius and per matrix dimension.
REFERENCE_RTOL = 1e-12

# Acceptance bars of the thermometry scenario: max |R - P| per pulse set.
READOUT_BARS = {"weak": 0.02, "strong": 0.03}

# A sweep is compared with the reference at every SWEEP_CHECK_STRIDE-th offset.
SWEEP_CHECK_STRIDE = 8


@dataclass(frozen=True)
class Op:
    """One operation: a label for logs and the keyword arguments of the call."""

    label: str
    kwargs: dict[str, Any]


def reference_unitary(
    cfg: fockspace.SystemConfig, cp: CompositePulse
) -> tuple[np.ndarray, float]:
    """Train propagator through the reference path, and its agreement bar.

    The bar is REFERENCE_RTOL x max(1, sum of t x spectral radius) x dim; the
    spectral radius is bounded by the largest absolute row sum of H.
    """
    u = np.eye(cfg.dim, dtype=complex)
    horizon = 0.0
    for p in cp:
        h = fockspace.build_hamiltonian(cfg, delta=p.delta, omega=p.omega, phi=p.phi)
        u = fockspace.propagate(h, p.t) @ u
        horizon += p.t * float(np.abs(h).sum(axis=1).max())
    return u, REFERENCE_RTOL * max(1.0, horizon) * cfg.dim


def excited_population(u: np.ndarray) -> np.ndarray:
    """Excited-manifold population after ``u`` acts on each |g, n>."""
    c = u.shape[0] // 2
    return np.sum(np.abs(u[c:, :c]) ** 2, axis=0)


def load_fixtures() -> dict[str, Any]:
    """Window states and the weak and strong shelving pulse sets."""
    doc = json.loads(FIXTURES.read_text())
    return {
        "window": [int(n) for n in doc["window"]],
        "cutoff": int(doc["design_cutoff"]),
        "weak": [CompositePulse.from_dicts(r) for r in doc["weak"]],
        "strong": [CompositePulse.from_dicts(r) for r in doc["strong"]],
    }


class DesignWorkload:
    """One op is ``design_pulse`` with one swarm start and one refinement."""

    def __init__(
        self,
        name: str,
        *,
        cutoff: int,
        count: int,
        omega: float,
        layout_fn: Callable[..., ParamLayout],
        target: TargetSpec,
        pso: optimizer.PsoConfig,
        rcfg: optimizer.RefineConfig,
        loss_bar: float,
        default_seed: int,
    ):
        self.name = name
        self.default_seed = default_seed
        self.cfg = fockspace.SystemConfig(cutoff=cutoff)
        self.template = uniform_pulse_train(count, delta=1.0, omega=omega)
        self.layout = layout_fn(count, eta=self.cfg.eta, omega=omega)
        self.target = target
        self.pso = pso
        self.rcfg = rcfg
        self.loss_bar = loss_bar

    def op(self, seed: int, i: int) -> Op:
        pcfg = replace(self.pso, seed=seed + i)
        return Op(
            label=f"seed={pcfg.seed}",
            kwargs=dict(
                cfg=self.cfg,
                template=self.template,
                layout=self.layout,
                target=self.target,
                pcfg=pcfg,
                rcfg=self.rcfg,
                starts=1,
                refine_top=1,
            ),
        )

    def run(self, op: Op) -> optimizer.OptimizationResult:
        return optimizer.design_pulse(**op.kwargs)

    def warm_up(self) -> None:
        u, _ = reference_unitary(self.cfg, self.template)
        modulus_loss(u, self.target)

    def check(self, op: Op, result: optimizer.OptimizationResult) -> str | None:
        if not self.layout.contains(self.layout.pack(result.pulse)):
            return "designed pulse lies outside the layout bounds"
        u, tol = reference_unitary(self.cfg, result.pulse)
        loss = modulus_loss(u, self.target)
        if not abs(loss - result.loss) <= tol:
            return f"loss {result.loss!r} != reference {loss!r} (tol {tol:.1e})"
        if not loss < self.loss_bar:
            return f"loss {loss:.4f} not under the bar {self.loss_bar}"
        return None

    def facts(self, result: optimizer.OptimizationResult) -> dict[str, float]:
        return {"loss": float(result.loss), "evaluations": result.evaluations}

    def summarize(self, facts: list[dict[str, float]]) -> dict[str, float]:
        return {
            "loss_p50": statistics.median(f["loss"] for f in facts),
            "evaluations_p50": statistics.median(f["evaluations"] for f in facts),
        }


class ReadoutWorkload:
    """One op is ``run_thermometry`` with supplied pulses, weak and strong in turn."""

    name = "readout-c100"
    default_seed = 0

    def __init__(self, fixtures: dict[str, Any]):
        self.window = fixtures["window"]
        self.cfg_design = fockspace.SystemConfig(cutoff=fixtures["cutoff"])
        self.cfg_truth = fockspace.SystemConfig(cutoff=100)
        self.dist = thermometry.thermal_distribution(1.0, self.cfg_truth.cutoff)
        self.pulses = {kind: fixtures[kind] for kind in READOUT_BARS}
        self.expected: dict[str, tuple[np.ndarray, np.ndarray, float]] = {}
        self.calls = {}
        layouts = {"weak": weak_drive_layout, "strong": strong_drive_layout}
        for kind, layout_fn in layouts.items():
            count, omega = len(self.pulses[kind][0]), self.pulses[kind][0][0].omega
            # The design inputs are required but unused: the pulses are supplied.
            self.calls[kind] = dict(
                cfg_design=self.cfg_design,
                cfg_truth=self.cfg_truth,
                window=self.window,
                dist=self.dist,
                template=uniform_pulse_train(count, delta=1.0, omega=omega),
                layout=layout_fn(count, eta=self.cfg_design.eta, omega=omega),
                pcfg=optimizer.PsoConfig(),
                rcfg=optimizer.RefineConfig(),
                pulses=self.pulses[kind],
            )

    def op(self, seed: int, i: int) -> Op:
        kind = ("weak", "strong")[i % 2]
        return Op(label=kind, kwargs=self.calls[kind])

    def run(self, op: Op) -> thermometry.ThermometryResult:
        return thermometry.run_thermometry(**op.kwargs)

    def warm_up(self) -> None:
        for cfg in (self.cfg_design, self.cfg_truth):
            reference_unitary(cfg, self.pulses["weak"][0])

    def reference(self, kind: str) -> tuple[np.ndarray, np.ndarray, float]:
        """(measured, coefficients, tolerance) through the reference product.

        Ops of one kind share their inputs, so each kind is computed once.
        """
        if kind not in self.expected:
            measured, coeff, tol = [], [], 0.0
            for cp in self.pulses[kind]:
                u, tol_truth = reference_unitary(self.cfg_truth, cp)
                measured.append(excited_population(u) @ self.dist.populations)
                u, tol_design = reference_unitary(self.cfg_design, cp)
                coeff.append(excited_population(u)[self.window])
                tol = max(tol, tol_truth, tol_design)
            self.expected[kind] = (np.array(measured), np.array(coeff), tol)
        return self.expected[kind]

    def check(self, op: Op, result: thermometry.ThermometryResult) -> str | None:
        truth = self.dist.populations[self.window]
        if not np.array_equal(result.truth, truth):
            return "truth populations do not match the distribution"
        measured, coeff, tol = self.reference(op.label)
        if not np.allclose(result.measured, measured, rtol=0.0, atol=tol):
            return "measured probabilities differ from the reference"
        if not np.allclose(result.coeff, coeff, rtol=0.0, atol=tol):
            return "coefficient matrix differs from the reference"
        err_r = np.abs(result.corrected - truth)
        err_m = np.abs(result.measured - truth)
        bar = READOUT_BARS[op.label]
        if not err_r.max() <= bar:
            return f"max |R - P| = {err_r.max():.4f} above the bar {bar}"
        if not np.all(err_r <= err_m):
            return "correction made some window state worse than the raw measurement"
        return None

    def facts(self, result: thermometry.ThermometryResult) -> dict[str, float]:
        return {"readout_err": float(np.abs(result.corrected - result.truth).max())}

    def summarize(self, facts: list[dict[str, float]]) -> dict[str, float]:
        return {"readout_err_max": max(f["readout_err"] for f in facts)}


class SweepWorkload:
    """One op is ``robustness.sweep`` of one fixture pulse along one axis."""

    name = "sweep-c10"
    default_seed = 0
    points = 257
    ranges = {"duration": 62.8, "phase": math.pi / 4}

    def __init__(self, fixtures: dict[str, Any]):
        self.cfg = fockspace.SystemConfig(cutoff=fixtures["cutoff"])
        # (pulse set, window state, pulse); ops cycle through pulses x axes.
        self.cases = [
            (kind, n, cp)
            for kind in ("weak", "strong")
            for n, cp in zip(fixtures["window"], fixtures[kind])
        ]

    def op(self, seed: int, i: int) -> Op:
        kind, n, cp = self.cases[(i // 2) % len(self.cases)]
        axis = ("duration", "phase")[i % 2]
        width = self.ranges[axis]
        return Op(
            label=f"{kind}[{n}]/{axis}",
            kwargs=dict(
                cfg=self.cfg,
                cp=cp,
                spec=robustness.SweepSpec(axis, -width, width, self.points),
                probe=robustness.TransitionProbe(fock=n, mode="excitation"),
            ),
        )

    def run(self, op: Op) -> robustness.SweepResult:
        return robustness.sweep(**op.kwargs)

    def warm_up(self) -> None:
        reference_unitary(self.cfg, self.cases[0][2])

    def check(self, op: Op, result: robustness.SweepResult) -> str | None:
        spec, cp, n = op.kwargs["spec"], op.kwargs["cp"], op.kwargs["probe"].fock
        if not np.array_equal(result.offsets, spec.offsets()):
            return "sweep offsets differ from the requested grid"
        for k in range(0, spec.points, SWEEP_CHECK_STRIDE):
            offset = float(spec.offsets()[k])
            u, tol = reference_unitary(self.cfg, _offset_pulse(cp, spec.axis, offset))
            expected = excited_population(u)[n]
            if not abs(result.probabilities[k] - expected) <= tol:
                return (
                    f"probability {result.probabilities[k]!r} at offset {offset} "
                    f"!= reference {expected!r} (tol {tol:.1e})"
                )
        return None

    def facts(self, result: robustness.SweepResult) -> dict[str, float]:
        return {}

    def summarize(self, facts: list[dict[str, float]]) -> dict[str, float]:
        return {}


def _offset_pulse(cp: CompositePulse, axis: str, offset: float) -> CompositePulse:
    """Reference perturbation: every duration (clamped at 0), or every phase
    after the first, shifted by ``offset``."""
    if axis == "duration":
        out = [replace(p, t=max(p.t + offset, 0.0)) for p in cp]
    else:
        out = [cp[0]] + [replace(p, phi=p.phi + offset) for p in cp.pulses[1:]]
    return CompositePulse(tuple(out))


def build(name: str) -> DesignWorkload | ReadoutWorkload | SweepWorkload:
    """Construct a workload by name; see ``bench/README.md`` for why each exists."""
    if name == "design-weak-c3":
        return DesignWorkload(
            name,
            cutoff=3,
            count=3,
            omega=0.1,
            layout_fn=weak_drive_layout,
            target=swap_target(3, 0),
            pso=optimizer.PsoConfig(particles=64, iterations=100),
            rcfg=optimizer.RefineConfig(max_iters=3000, tolerance=1e-15),
            loss_bar=0.5,
            default_seed=450,
        )
    if name == "design-strong-c6":
        return DesignWorkload(
            name,
            cutoff=6,
            count=4,
            omega=1.0,
            layout_fn=strong_drive_layout,
            target=shelving_target(6, 0),
            pso=optimizer.PsoConfig(particles=64, iterations=30),
            rcfg=optimizer.RefineConfig(max_iters=100, tolerance=1e-14),
            loss_bar=0.8,
            default_seed=0,
        )
    if name == "readout-c100":
        return ReadoutWorkload(load_fixtures())
    if name == "sweep-c10":
        return SweepWorkload(load_fixtures())
    raise ValueError(f"unknown workload {name!r}")

