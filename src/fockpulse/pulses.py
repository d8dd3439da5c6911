"""Composite pulse sequences and their optimizable-parameter layouts.

A composite pulse is an ordered train of square pulses.  The train's unitary
is the right-to-left product of the per-pulse propagators: the first pulse in
the sequence acts first.  Only parameter *layouts* know which fields an
optimizer may touch; the pulse objects themselves are plain immutable records.

``composite_unitary`` builds a train pulse by pulse and is the reference.
The batched kernel behind pulse design rests on the laser phase being a
diagonal similarity, H(delta, omega, phi) = Z H(delta, omega, 0) Z^dagger
with Z = diag(1_g, e^{i phi} 1_e): ``drive_eigenpairs`` decomposes
H(delta, omega, 0) once per drive (delta, omega), and ``train_product``
applies the propagator of every pulse at any phase and duration,
exp(-i H t) = Z V e^{-i w t} V^dagger Z^dagger, factor by factor to B trains
at once.  It is the one propagation kernel: given a block of states it
returns what each train makes of them, which is all the readout and the
robustness grids need, and otherwise the whole propagators.  Pulse design
passes the unit inputs of the columns its target compares, or none when it
compares them all.  ``_train_vjp`` runs the kernel back, from the derivative
of a loss by each train's block to those by every duration, phase and
detuning.  Each row of a batch is computed independently of the others, so a
row's result does not depend on the batch it sits in.

A second diagonal similarity makes the drive real: with F = diag(i^k, i^k)
over the mode levels k of both blocks, F^dagger H(delta, omega, 0) F is real
symmetric.  ``_real_drive_eigenpairs`` decomposes it with a real ``eigh``, and
the kernel run on its real eigenvectors multiplies by them as real GEMMs and
returns F^dagger U F, which has the moduli of U.  Pulse design scores moduli
alone, so it runs in this frame; the readout and ``drive_eigenpairs`` keep the
lab frame (``_real_drive_eigenpairs`` says why).  Only the excited diagonal
of F^dagger H F depends on delta, so the rest is built once per (system, Rabi
rate) and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Iterator, Sequence

import numpy as np

from .fockspace import (
    SystemConfig,
    build_hamiltonian,
    check_integer,
    check_real,
    propagate,
    read_record,
)

__all__ = [
    "PulseParams",
    "CompositePulse",
    "ParamLayout",
    "composite_unitary",
    "drive_eigenpairs",
    "train_product",
    "analytic_swap_parameters",
    "uniform_pulse_train",
    "weak_drive_layout",
    "strong_drive_layout",
    "WEAK_DRIVE_OMEGA",
    "STRONG_DRIVE_OMEGA",
]

TWO_PI = 2.0 * math.pi

# Rabi rates (in units of the mode frequency) for the two driving regimes.
WEAK_DRIVE_OMEGA = 0.1
STRONG_DRIVE_OMEGA = 1.0

# Detuning box (units of the mode frequency) of the strong-drive layout.
_DELTA_BOUNDS = (0.25, 2.5)


@dataclass(frozen=True)
class PulseParams:
    """One square pulse: detuning, Rabi rate, phase, duration."""

    delta: float
    omega: float
    phi: float
    t: float

    def __post_init__(self) -> None:
        for name in ("delta", "omega", "phi"):
            check_real(name, getattr(self, name))
        check_real("t", self.t, 0)

    def canonical(self) -> "PulseParams":
        """Copy with the phase wrapped to [0, 2*pi).

        Wrapping changes the float representation, so it is applied only when
        a pulse crosses an I/O boundary, never inside an optimizer loop.
        """
        return replace(self, phi=self.phi % TWO_PI)


@dataclass(frozen=True)
class CompositePulse:
    """Ordered train of pulses, applied first-to-last."""

    pulses: tuple[PulseParams, ...]

    def __post_init__(self) -> None:
        if len(self.pulses) == 0:
            raise ValueError("a composite pulse needs at least one pulse")
        object.__setattr__(self, "pulses", tuple(self.pulses))

    def __len__(self) -> int:
        return len(self.pulses)

    def __iter__(self) -> Iterator[PulseParams]:
        return iter(self.pulses)

    def __getitem__(self, k: int) -> PulseParams:
        return self.pulses[k]

    @property
    def total_duration(self) -> float:
        return float(sum(p.t for p in self.pulses))

    def canonical(self) -> "CompositePulse":
        return CompositePulse(tuple(p.canonical() for p in self.pulses))

    def to_dicts(self) -> list[dict[str, float]]:
        """Serializable per-pulse records, phases canonicalized."""
        return [
            {"delta": p.delta, "omega": p.omega, "phi": p.phi, "t": p.t}
            for p in self.canonical()
        ]

    @classmethod
    def from_dicts(cls, records: Sequence[Any]) -> "CompositePulse":
        """Train from records as ``to_dicts`` writes them, read as outside input."""
        if not isinstance(records, (list, tuple)):
            raise ValueError(f"pulse records must be a list, got {records!r}")
        return cls(
            tuple(
                read_record(PulseParams, f"pulse record {k}", r)
                for k, r in enumerate(records)
            )
        )


def composite_unitary(cfg: SystemConfig, cp: CompositePulse) -> np.ndarray:
    """Total propagator of the train: product of per-pulse unitaries.

    The first pulse multiplies from the right, so the returned matrix sends an
    input column vector through the train in sequence order.
    """
    u = np.eye(cfg.dim, dtype=complex)
    for p in cp:
        h = build_hamiltonian(cfg, delta=p.delta, omega=p.omega, phi=p.phi)
        u = propagate(h, p.t) @ u
    return u


def drive_eigenpairs(
    cfg: SystemConfig, delta: float | np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, V) of ``build_hamiltonian``'s H(delta, omega, 0).

    ``delta`` is one detuning, giving shapes (dim,) and (dim, dim), or a (B,)
    array of them, giving (B, dim) and (B, dim, dim) from one batched ``eigh``.
    """
    return np.linalg.eigh(build_hamiltonian(cfg, delta=delta, omega=omega, phi=0.0))


def _real_drive_eigenpairs(
    cfg: SystemConfig, delta: float | np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, R) of H(delta, omega, 0) in the real frame of the drive.

    <m| e^{-i eta (a + a^dagger)} |n> is i^(n - m) times a real number
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), and so is every entry of
    its truncation at any ``fock_offset``.  With F = diag(i^k, i^k), k the
    retained mode level counted from 0 on both blocks, F^dagger H F is real
    symmetric; its imaginary part is rounding, and it is dropped.  So w are
    the energies of ``drive_eigenpairs`` up to rounding, R is real and V = F R.
    F is diagonal, so it commutes with Z and P_e, and the kernel run on
    (w, R) gives F^dagger U F, whose entries have the moduli of U's: the
    design objective scores it unchanged, with real ``eigh`` and real GEMMs.

    The readout keeps the lab frame: on this one a weak-set ``readout-c100``
    op falls from about 40 to 25 ms (2-vCPU x86-64 VM), and the tracer's own
    180 us then fills the 1% of a traced benchmark op that may go unattributed
    to any span, so its traced runs fail now and then (ROADMAP, Open item 1).

    Only the excited diagonal, n - delta, depends on delta, so the matrix is
    the cached ``_real_drive(cfg, omega)`` with that diagonal written in: the
    same floats as the frame of ``build_hamiltonian``'s H(delta, omega, 0).
    """
    delta = np.asarray(delta, dtype=float)
    h = np.tile(_real_drive(cfg, omega), delta.shape + (1, 1))
    excited = np.arange(cfg.cutoff, cfg.dim)
    h[..., excited, excited] = cfg.fock_indices() - delta[..., None]
    return np.linalg.eigh(h)


@lru_cache(maxsize=64)
def _real_drive(cfg: SystemConfig, omega: float) -> np.ndarray:
    """F^dagger H(0, omega, 0) F of ``_real_drive_eigenpairs``, dropping its
    imaginary part; cached per (configuration, Rabi rate), so read-only.  The
    cache is bounded: a scan over Rabi rates would otherwise keep them all."""
    frame = np.tile(np.array([1, 1j, -1, -1j])[np.arange(cfg.cutoff) % 4], 2)
    h = build_hamiltonian(cfg, delta=0.0, omega=omega, phi=0.0)
    out = (frame.conj()[:, None] * h * frame).real
    out.flags.writeable = False
    return out


def train_product(
    energies: np.ndarray,
    vectors: np.ndarray,
    durations: np.ndarray,
    phases: np.ndarray,
    states: np.ndarray | None = None,
) -> np.ndarray:
    """(B, dim, k) block that each of B trains makes of the (dim, k) block
    ``states``, or the (B, dim, dim) train propagators when it is omitted.

    ``durations`` and ``phases`` are (B, n), one train per row, first pulse
    in column 0.  ``energies`` and ``vectors`` are the eigenpairs of
    H(delta, omega, 0) shared by all n pulses of a row: shapes (dim,) and
    (dim, dim) for one drive shared by every row, or (B, dim) and
    (B, dim, dim) for one drive per row.  The excited block is the second
    half of the dim = 2 * cutoff basis.  Pulse k acts on the running block
    as Z V e^{-i w t_k} V^dagger Z^dagger, where Z = diag(1_g, e^{i phi_k} 1_e)
    only scales the excited rows; the first pulse acts first, as in
    ``composite_unitary``.  Without ``states`` the first pulse's right factor
    is (Z V)^dagger itself.  A negative or non-finite duration, or a
    non-finite phase, raises ValueError.
    """
    durations, phases = _checked_trains(durations, phases)
    if states is not None:
        states = np.asarray(states, dtype=complex)
        dim = vectors.shape[-1]
        if states.ndim != 2 or states.shape[0] != dim:
            raise ValueError(
                f"states must be a ({dim}, k) block, got shape {states.shape}"
            )
    return _train_pass(energies, vectors, durations, phases, states)[0]


def _checked_trains(
    durations: np.ndarray, phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``durations`` and ``phases`` as (B, n) float arrays with n >= 1, all
    finite and every duration >= 0; otherwise ValueError."""
    durations = np.asarray(durations, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if durations.ndim != 2 or durations.shape != phases.shape or not durations.shape[1]:
        raise ValueError(
            f"durations {durations.shape} and phases {phases.shape} must both be "
            "(B, n) with n >= 1"
        )
    bad = durations[~(np.isfinite(durations) & (durations >= 0))]
    if bad.size:
        raise ValueError(f"durations must be finite and >= 0, got {bad[0]}")
    bad = phases[~np.isfinite(phases)]
    if bad.size:
        raise ValueError(f"phases must be finite, got {bad[0]}")
    return durations, phases


def _left(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v @ x for a complex block x; for a real v, one real GEMM on the
    interleaved real and imaginary parts of x."""
    if v.dtype.kind == "f":
        x = np.ascontiguousarray(x, dtype=complex)
        return (v @ x.view(float)).view(complex)
    return v @ x


def _train_pass(
    energies: np.ndarray,
    vectors: np.ndarray,
    durations: np.ndarray,
    phases: np.ndarray,
    states: np.ndarray | None = None,
    entering: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``train_product`` on checked arrays, with its working.

    Returns (block, decay, hinge): the result, the (B, n, dim) eigenphase
    factors e^{-i w t_k} of every pulse, and the (B, n, dim) diagonals that
    scale the rows between pulse k and pulse k + 1, Z_k Z_{k+1}^dagger, or
    Z_k alone after the last pulse.  When ``entering`` is a list, the block
    entering each pulse k is appended to it in that pulse's frame,
    V^dagger Z_k^dagger times what pulses 0..k-1 made; ``_train_vjp`` runs
    back over them.
    """
    dim = vectors.shape[-1]
    adjoint = np.conj(np.swapaxes(vectors, -1, -2))
    # (B, n, dim) eigenphase factors and diagonals of Z of every pulse
    decay = np.exp(-1j * energies[..., None, :] * durations[:, :, None])
    z = np.ones(durations.shape + (dim,), dtype=complex)
    z[..., dim // 2 :] = np.exp(1j * phases)[..., None]
    if states is None:
        block = adjoint * z[:, 0, None, :].conj()
    else:
        block = _left(adjoint, z[:, 0, :, None].conj() * states)
    # Z_k of one pulse and Z_{k+1}^dagger of the next scale the rows together
    hinge = z.copy()
    hinge[:, :-1] *= z[:, 1:].conj()
    last = durations.shape[1] - 1
    for k in range(last + 1):
        if entering is not None:
            entering.append(block)
        block = _left(vectors, decay[:, k, :, None] * block)
        block *= hinge[:, k, :, None]
        if k < last:
            block = _left(adjoint, block)
    return block, decay, hinge


def _train_vjp(
    energies: np.ndarray,
    vectors: np.ndarray,
    durations: np.ndarray,
    cotangent: np.ndarray,
    decay: np.ndarray,
    hinge: np.ndarray,
    entering: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's backward pass: derivatives of a real loss L by the (B, n)
    durations, the (B, n) phases and the (B,) detunings of B trains' drives,
    from ``cotangent``, the (B, dim, k) derivative G of L by each train's
    block U (dL = Re sum conj(G) dU), and what ``_train_pass`` took and
    returned on the same trains, ``entering`` as it filled it.  U is the
    whole propagator (k = dim) or what it makes of a (dim, k) block of
    ``states``; either way M~_k below is (dim, dim).

    The cotangent of G in pulse k's frame,
    M~_k = V^dagger Z_k^dagger (U_after^dagger G U_before^dagger) Z_k V, gives
    every slot of that pulse, with P_e the projector onto the excited block,
    E = V^dagger P_e V and e_a = e^{-i w_a t_k}:
    d/dt_k = Re sum_a conj(M~_aa) (-i w_a) e_a; d/dphi_k =
    Re sum_ab conj(M~_ab) i E_ab (e_b - e_a), from dP/dphi = i [P_e, P]; and
    d/ddelta, from dH/ddelta = -P_e, sums -Re conj(M~_ab) Gamma_ab E_ab over
    the pulses, where Gamma_ab = (e_a - e_b) / (w_a - w_b) is the
    Daleckii-Krein divided difference, evaluated as
    -i t e^{-i (w_a + w_b) t / 2} sinc((w_a - w_b) t / 2) so that it tends
    to -i t e_a as w_b tends to w_a.
    """
    adjoint = np.conj(np.swapaxes(vectors, -1, -2))
    c = vectors.shape[-1] // 2
    excited = adjoint[..., c:] @ vectors[..., c:, :]  # E = V^dagger P_e V
    # back through the train: y_k = V^dagger Z_k^dagger U_after^dagger G, and
    # M~_k = y_k (V^dagger Z_k^dagger U_before)^dagger, (B, n, dim, dim)
    tilde = np.empty(decay.shape + decay.shape[-1:], dtype=complex)
    undecay, unhinge = decay[..., None].conj(), hinge[..., None].conj()
    y = _left(adjoint, unhinge[:, -1] * cotangent)
    for k in reversed(range(len(entering))):
        np.matmul(y, np.swapaxes(entering[k], -1, -2).conj(), out=tilde[:, k])
        if k:
            y = _left(adjoint, unhinge[:, k - 1] * _left(vectors, undecay[:, k] * y))

    w = energies[..., None, :]
    diagonal = np.diagonal(tilde, axis1=-2, axis2=-1)
    d_t = np.real(np.sum(diagonal.conj() * (-1j * w * decay), axis=-1))
    gap = (energies[..., :, None] - energies[..., None, :])[..., None, :, :]
    t = durations[..., None]
    half = np.exp(-0.5j * w * t)
    x = gap * (0.5 * t[..., None])
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    gamma = half[..., :, None] * half[..., None, :] * (-1j * t[..., None] * sinc)
    # i (e_b - e_a) = -i (w_a - w_b) Gamma_ab, so one product serves phi and delta
    terms = tilde.conj() * excited[..., None, :, :] * gamma
    d_phi = np.sum(gap * terms, axis=(-2, -1)).imag
    d_delta = -np.sum(terms.real, axis=(-3, -2, -1))
    return d_t, d_phi, d_delta


def analytic_swap_parameters(eta: float, omega: float) -> CompositePulse:
    """Closed-form three-pulse sequence swapping |g,0> and |e,1>.

    Derived for an ideal first sideband: durations pi/(sqrt(2)*eta*omega),
    sqrt(2)*pi/(eta*omega), pi/(sqrt(2)*eta*omega) and phases
    (0, arccos(cot^2(pi/sqrt(2))), 0) at detuning 1.  Off-resonant couplings
    of the real drive degrade it, which is what numerical refinement fixes.
    """
    check_real("eta", eta, positive=True)
    check_real("omega", omega, positive=True)
    t_outer = math.pi / (math.sqrt(2.0) * eta * omega)
    t_inner = math.sqrt(2.0) * math.pi / (eta * omega)
    phi_inner = math.acos(1.0 / math.tan(math.pi / math.sqrt(2.0)) ** 2)
    return CompositePulse(
        (
            PulseParams(delta=1.0, omega=omega, phi=0.0, t=t_outer),
            PulseParams(delta=1.0, omega=omega, phi=phi_inner, t=t_inner),
            PulseParams(delta=1.0, omega=omega, phi=0.0, t=t_outer),
        )
    )


def uniform_pulse_train(
    count: int, *, delta: float, omega: float, t: float = 1.0
) -> CompositePulse:
    """Template train with identical pulses and zero phases.

    Serves as the fixed-field carrier that a ParamLayout writes optimized
    values into; the initial durations and phases are placeholders.
    """
    check_integer("count", count, 1)
    return CompositePulse(
        tuple(PulseParams(delta=delta, omega=omega, phi=0.0, t=t) for _ in range(count))
    )


@dataclass(frozen=True)
class ParamLayout:
    """Mapping between optimizer vectors and a train of ``count`` pulses.

    The vector holds the durations t_0..t_{n-1}, each in [0, ``duration_bound``],
    then the phases phi_1..phi_{n-1} in [0, 2*pi] (the first pulse's phase is
    the global reference), then, when ``shared_delta`` is set, one detuning in
    ``_DELTA_BOUNDS`` written into every pulse.  Every other field comes from
    the template train.
    """

    count: int
    duration_bound: float
    shared_delta: bool = False

    def __post_init__(self) -> None:
        check_integer("count", self.count, 1)
        check_real("duration_bound", self.duration_bound, positive=True)

    @property
    def dim(self) -> int:
        """Length of the packed parameter vector."""
        return 2 * self.count - 1 + int(self.shared_delta)

    def slot_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) bound arrays aligned with the packed vector."""
        lower = [0.0] * (2 * self.count - 1)
        upper = [self.duration_bound] * self.count + [TWO_PI] * (self.count - 1)
        if self.shared_delta:
            lower.append(_DELTA_BOUNDS[0])
            upper.append(_DELTA_BOUNDS[1])
        return np.array(lower), np.array(upper)

    def _check_train(self, cp: CompositePulse) -> None:
        if len(cp) != self.count:
            raise ValueError(
                f"layout has {self.count} pulses but the train has {len(cp)}"
            )

    def pack(self, cp: CompositePulse) -> np.ndarray:
        """Extract the free values of ``cp`` into a parameter vector."""
        self._check_train(cp)
        values = [p.t for p in cp] + [p.phi for p in cp.pulses[1:]]
        if self.shared_delta:
            values.append(cp[0].delta)
        return np.array(values)

    def decode(
        self, block: np.ndarray, template: CompositePulse
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Split a (P, dim) block of vectors into the fields of P trains: (P, n)
        durations, (P, n) phases with the template's first phase in column 0,
        and (P,) shared detunings, or None when the template's detunings stay.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != self.dim:
            raise ValueError(
                f"expected vectors of length {self.dim}, got shape {block.shape}"
            )
        self._check_train(template)
        n = self.count
        first = np.full((len(block), 1), template[0].phi)
        phases = np.hstack([first, block[:, n : 2 * n - 1]])
        return block[:, :n], phases, block[:, -1] if self.shared_delta else None

    def unpack(self, vector: np.ndarray, template: CompositePulse) -> CompositePulse:
        """Write a parameter vector into a copy of ``template``."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.dim,):
            raise ValueError(
                f"expected vector of length {self.dim}, got shape {vector.shape}"
            )
        (ts,), (phis,), shared = self.decode(vector[None, :], template)
        deltas = [p.delta if shared is None else shared.item() for p in template]
        return CompositePulse(
            tuple(
                PulseParams(delta=d, omega=p.omega, phi=phi, t=t)
                for p, d, phi, t in zip(template, deltas, phis.tolist(), ts.tolist())
            )
        )

    def contains(self, vector: np.ndarray) -> bool:
        """True when every slot lies inside its box bounds."""
        lower, upper = self.slot_bounds()
        vector = np.asarray(vector, dtype=float)
        return bool(np.all(vector >= lower) and np.all(vector <= upper))


def weak_drive_layout(count: int, *, eta: float, omega: float) -> ParamLayout:
    """Layout for the weak-drive regime: free durations, free phases after
    the first pulse (the first phase is the global reference), detuning fixed.
    Durations are bounded by four ideal-sideband half-periods, generous for
    every pulse seen here.
    """
    check_real("eta", eta, positive=True)
    check_real("omega", omega, positive=True)
    return ParamLayout(count, 4.0 * math.pi / (eta * omega))


def strong_drive_layout(count: int, *, eta: float, omega: float) -> ParamLayout:
    """Weak-drive layout plus one detuning slot shared by all pulses."""
    return replace(weak_drive_layout(count, eta=eta, omega=omega), shared_delta=True)
