"""Span tracer that wraps fockpulse's public functions from outside the package.

Each wrapped function gets a span per call: name, start, end and the span that
was open when it was called (its parent).  Spans live in flat in-memory arrays
and are written out once, when the run ends.  Wrapping works by rebinding the
name that the *calling* module looks up (for example
``fockpulse.pulses.propagate``), so the package itself is never edited, and
:meth:`Tracer.installed` restores every rebound attribute on exit.  Only the
traced run installs the tracer; untimed checks and the untraced run execute
the unpatched package.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from fockpulse import optimizer, pulses, robustness, thermometry

# Evaluation stages of the optimizer: an objective evaluation is attributed to
# the nearest enclosing span with one of these names.
STAGES = (
    "optimizer.pso_search",
    "optimizer.refine",
    "optimizer.finite_difference_gradient",
)

# Fock-space dimensions of the four workloads (cutoffs 3, 6, 10 and 100).
PROPAGATE_DIMS = (6, 12, 20, 200)


def call_sites() -> dict[str, list[tuple[object, str]]]:
    """Span name -> the (module or class, attribute) pairs callers look it up by.

    ``fockspace`` and ``objective`` functions appear only through their
    callers, because a caller holds its own reference to each function it
    imported.
    """
    return {
        "fockspace.build_hamiltonian": [(pulses, "build_hamiltonian")],
        "fockspace.propagate": [(pulses, "propagate")],
        "pulses.composite_unitary": [
            (optimizer, "composite_unitary"),
            (thermometry, "composite_unitary"),
            (robustness, "composite_unitary"),
        ],
        "pulses.pack": [(pulses.ParamLayout, "pack")],
        "pulses.unpack": [(pulses.ParamLayout, "unpack")],
        "objective.modulus_loss": [(optimizer, "modulus_loss")],
        "objective.excitation_profile": [
            (thermometry, "excitation_profile"),
            (robustness, "excitation_profile"),
        ],
        "optimizer.design_pulse": [(optimizer, "design_pulse")],
        "optimizer.pso_search": [(optimizer, "pso_search")],
        "optimizer.refine": [(optimizer, "refine")],
        "optimizer.finite_difference_gradient": [
            (optimizer, "finite_difference_gradient")
        ],
        "thermometry.run_thermometry": [(thermometry, "run_thermometry")],
        "thermometry.coefficient_matrix": [(thermometry, "coefficient_matrix")],
        "thermometry.simulate_measurements": [
            (thermometry, "simulate_measurements")
        ],
        "thermometry.correct_populations": [(thermometry, "correct_populations")],
        "robustness.sweep": [(robustness, "sweep")],
        "robustness.perturb": [(robustness, "perturb")],
        "robustness.probe_evaluate": [(robustness.TransitionProbe, "evaluate")],
    }


def _observe_propagate(counters: dict[str, float], args: tuple, result: object) -> None:
    dim = int(np.shape(args[0])[0])
    key = f"fockspace.propagate.calls.d{dim}"
    counters[key] = counters.get(key, 0) + 1
    counters["fockspace.propagate.work_dim3"] = (
        counters.get("fockspace.propagate.work_dim3", 0) + dim**3
    )


def _observe_loss(counters: dict[str, float], args: tuple, result: object) -> None:
    if not np.isfinite(result):
        counters["optimizer.nonfinite_losses"] = (
            counters.get("optimizer.nonfinite_losses", 0) + 1
        )


_OBSERVERS: dict[str, Callable[[dict[str, float], tuple, object], None]] = {
    "fockspace.propagate": _observe_propagate,
    "objective.modulus_loss": _observe_loss,
}


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Calls are synchronous on one thread, so a child lies inside its parent's
    interval and siblings never overlap; the children's summed durations are
    then exactly the part of the parent's interval they cover.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=duration.size
    )
    return duration - covered


class Tracer:
    """Collects spans for the calls made while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.sites = call_sites()
        self.names = list(self.sites)
        self.name_ids = {name: k for k, name in enumerate(self.names)}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = [0] * len(self.names)
        self.counters: dict[str, float] = {}
        self.op_first = array("i")  # index of each op's first span
        self.missing: list[str] = []  # call sites absent from this package version
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self.op_first.append(len(self.start))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_ids[name]
        observe = _OBSERVERS.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, errors, counters = self._stack, self.errors, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counters, args, result)
                return result
            except BaseException:
                errors[name_id] += 1
                raise
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every call site to a traced wrapper; restore all on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for name, sites in self.sites.items():
                for owner, attr in sites:
                    original = vars(owner).get(attr)
                    if original is None:
                        label = f"{getattr(owner, '__name__', owner)}.{attr}"
                        if label not in self.missing:
                            self.missing.append(label)
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "op_first": np.array(self.op_first, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def op_self_sums(self) -> np.ndarray:
        """Sum of span self times within each op, in op order."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        bounds = np.append(a["op_first"], own.size)
        return np.array([own[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])])

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op calls, self seconds and errors per span name, plus counters.

        Evaluation counts attribute every ``objective.modulus_loss`` span to
        its nearest enclosing optimizer stage.
        """
        a = self.arrays()
        names, parent = a["name"], a["parent"]
        own = self_times(a["start"], a["end"], a["parent"])
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k] / ops
            out[f"{name}.self_s"] = self_s[k] / ops
            out[f"{name}.errors"] = float(self.errors[k])

        stage_ids = {self.name_ids[s] for s in STAGES}
        stage = np.full(names.size, -1, dtype=np.int64)
        for i, (nid, par) in enumerate(zip(names.tolist(), parent.tolist())):
            if nid in stage_ids:
                stage[i] = nid
            elif par >= 0:
                stage[i] = stage[par]
        evals = names == self.name_ids["objective.modulus_loss"]
        pso, refine, gradient = (
            int(np.count_nonzero(evals & (stage == self.name_ids[s]))) for s in STAGES
        )
        out["optimizer.pso_search.evals"] = pso / ops
        out["optimizer.refine.evals"] = (refine + gradient) / ops
        out["optimizer.refine.gradient_eval_share"] = (
            gradient / (refine + gradient) if refine + gradient else 0.0
        )
        out["optimizer.nonfinite_losses"] = self.counters.get(
            "optimizer.nonfinite_losses", 0
        )
        for dim in PROPAGATE_DIMS:
            key = f"fockspace.propagate.calls.d{dim}"
            out[key] = self.counters.get(key, 0) / ops
        out["fockspace.propagate.work_dim3"] = (
            self.counters.get("fockspace.propagate.work_dim3", 0) / ops
        )
        return out
