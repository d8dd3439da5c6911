"""Machine-speed calibration kernel, timed around every op.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU VM,
the raw wall time of identical ops moved by 20-40% between runs a few
minutes apart, and by up to 1.8x between consecutive ops.  Dividing an op's
wall time by the time of this kernel, measured right before and right after
it, cancels most of that drift: over 100 s of sweep ops the per-op spread
(interquartile range over median) fell from 0.27 to 0.10.

The kernel imitates one objective evaluation at cutoff 10 (six 20x20
Hamiltonians built, diagonalised and multiplied, plus a frozen-dataclass
copy per pulse) without importing fockpulse, so no change to the package
can change it.  Never edit it: every recorded cost is in its units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

CUTOFF = 10
PULSES = 6
REPS = 40  # about 25 ms on a 2-vCPU Xeon VM

_LEVELS = np.arange(CUTOFF, dtype=float)
_COUPLING = np.add.outer(_LEVELS, _LEVELS) / (2.0 * CUTOFF)


@dataclass(frozen=True)
class _Pulse:
    delta: float
    omega: float
    phi: float
    t: float


def kernel_seconds() -> float:
    """Wall seconds of one kernel run (the mean over REPS runs)."""
    c = CUTOFF
    diag = np.arange(2 * c)
    start = time.perf_counter()
    trace = 0.0
    for _ in range(REPS):
        p = _Pulse(delta=1.0, omega=0.1, phi=0.0, t=100.0)
        u = np.eye(2 * c, dtype=complex)
        for k in range(PULSES):
            p = replace(p, phi=p.phi + 0.1 * k)
            h = np.zeros((2 * c, 2 * c), dtype=complex)
            h[diag[:c], diag[:c]] = _LEVELS
            h[diag[c:], diag[c:]] = _LEVELS - p.delta
            h[c:, :c] = 0.5 * p.omega * np.exp(1j * p.phi) * _COUPLING
            h[:c, c:] = h[c:, :c].conj().T
            vals, vecs = np.linalg.eigh(h)
            u = ((vecs * np.exp(-1j * vals * p.t)) @ vecs.conj().T) @ u
        trace += abs(np.trace(u))
    elapsed = time.perf_counter() - start
    if not np.isfinite(trace):
        raise FloatingPointError("calibration kernel produced a non-finite result")
    return elapsed / REPS
