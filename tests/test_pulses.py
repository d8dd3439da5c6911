"""Pulse trains, their propagators, and optimizer parameter layouts."""

import numpy as np
import pytest

from fockpulse.fockspace import SystemConfig, build_hamiltonian, propagate
from fockpulse.pulses import (
    CompositePulse,
    ParamLayout,
    PulseParams,
    _real_drive,
    _real_drive_eigenpairs,
    _train_pass,
    analytic_swap_parameters,
    composite_unitary,
    drive_eigenpairs,
    strong_drive_layout,
    train_product,
    uniform_pulse_train,
    weak_drive_layout,
)

ETA, OMEGA = 0.084, 0.1


def kernel_bar(cfg, cp):
    """The kernel's agreement bar with ``composite_unitary``: 1e-12 per unit
    of duration x spectral radius (largest absolute row sum of H), per
    matrix dimension."""
    horizon = sum(
        p.t
        * np.abs(build_hamiltonian(cfg, delta=p.delta, omega=p.omega, phi=p.phi))
        .sum(axis=1)
        .max()
        for p in cp
    )
    return 1e-12 * max(1.0, horizon) * cfg.dim


class TestPulseParams:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="t must be >= 0, got -1.0"):
            PulseParams(delta=1.0, omega=0.1, phi=0.0, t=-1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PulseParams(delta=np.nan, omega=0.1, phi=0.0, t=1.0)

    @pytest.mark.parametrize("field", ["delta", "omega", "phi", "t"])
    def test_rejects_non_numeric(self, field):
        fields = dict(delta=1.0, omega=0.1, phi=0.0, t=1.0)
        fields[field] = "1"
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            PulseParams(**fields)

    def test_canonical_wraps_phase(self):
        p = PulseParams(delta=1.0, omega=0.1, phi=-0.5, t=1.0).canonical()
        assert 0.0 <= p.phi < 2.0 * np.pi
        assert p.phi == pytest.approx(2.0 * np.pi - 0.5)

    def test_canonical_keeps_in_range_phase_bitwise(self):
        p = PulseParams(delta=1.0, omega=0.1, phi=1.234, t=1.0)
        assert p.canonical().phi == 1.234


class TestCompositePulse:
    def test_needs_a_pulse(self):
        with pytest.raises(ValueError):
            CompositePulse(())

    def test_total_duration(self):
        cp = analytic_swap_parameters(ETA, OMEGA)
        assert cp.total_duration == pytest.approx(sum(p.t for p in cp))

    def test_dict_round_trip_bitwise(self):
        cp = analytic_swap_parameters(ETA, OMEGA)
        back = CompositePulse.from_dicts(cp.to_dicts())
        for a, b in zip(cp.canonical(), back):
            assert (a.delta, a.omega, a.phi, a.t) == (b.delta, b.omega, b.phi, b.t)

    @pytest.mark.parametrize(
        "records, message",
        [
            ({"t": 1.0}, "pulse records must be a list"),
            ([[1.0, 0.1, 0.0, 5.0]], "pulse record 0 must be an object"),
            ([{"delta": 1.0, "omega": 0.1, "phi": 0.0}], "pulse record 0 has no 't'"),
            (
                [{"delta": 1.0, "omega": 0.1, "phi": 0.0, "t": 5.0, "tt": 1.0}],
                "unknown keys in pulse record 0: 'tt'",
            ),
            ([{"delta": 1.0, "omega": 0.1, "phi": None, "t": 5.0}], "phi must be a number"),
        ],
    )
    def test_from_dicts_rejects_malformed_records(self, records, message):
        with pytest.raises(ValueError, match=message):
            CompositePulse.from_dicts(records)


class TestUniformPulseTrain:
    @pytest.mark.parametrize("count", [2.5, True])
    def test_rejects_a_non_integer_count(self, count):
        with pytest.raises(ValueError, match="count must be an integer"):
            uniform_pulse_train(count, delta=1.0, omega=OMEGA)


class TestAnalyticSwapParameters:
    def test_published_values(self):
        cp = analytic_swap_parameters(ETA, OMEGA)
        assert cp[0].t == pytest.approx(264.46, abs=0.01)
        assert cp[1].t == pytest.approx(528.91, abs=0.01)
        assert cp[2].t == pytest.approx(264.46, abs=0.01)
        assert cp[1].phi == pytest.approx(0.95, abs=0.01)
        assert cp[0].phi == 0.0 and cp[2].phi == 0.0
        assert all(p.delta == 1.0 and p.omega == OMEGA for p in cp)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            analytic_swap_parameters(0.0, OMEGA)

    @pytest.mark.parametrize(
        "eta, omega, message",
        [("a", OMEGA, "eta must be a number"), (0.1, -OMEGA, "omega must be positive")],
    )
    def test_rejects_inputs_by_name(self, eta, omega, message):
        with pytest.raises(ValueError, match=message):
            analytic_swap_parameters(eta, omega)


class TestCompositeUnitary:
    def test_single_pulse_matches_propagate(self):
        cfg = SystemConfig(cutoff=4)
        p = PulseParams(delta=1.0, omega=0.3, phi=0.7, t=12.5)
        u = composite_unitary(cfg, CompositePulse((p,)))
        h = build_hamiltonian(cfg, delta=p.delta, omega=p.omega, phi=p.phi)
        assert np.allclose(u, propagate(h, p.t), atol=1e-13)

    def test_first_pulse_acts_first(self):
        cfg = SystemConfig(cutoff=3)
        a = PulseParams(delta=1.0, omega=0.4, phi=0.0, t=3.0)
        b = PulseParams(delta=0.5, omega=0.2, phi=1.0, t=7.0)
        u_ab = composite_unitary(cfg, CompositePulse((a, b)))
        ua = composite_unitary(cfg, CompositePulse((a,)))
        ub = composite_unitary(cfg, CompositePulse((b,)))
        assert np.allclose(u_ab, ub @ ua, atol=1e-12)

    def test_no_drive_leaves_populations(self):
        cfg = SystemConfig(cutoff=4)
        cp = CompositePulse(
            tuple(PulseParams(delta=1.0, omega=0.0, phi=0.0, t=t) for t in (5.0, 9.0))
        )
        assert np.allclose(np.abs(composite_unitary(cfg, cp)), np.eye(8), atol=1e-12)

    def test_unitarity(self):
        cfg = SystemConfig(cutoff=6)
        u = composite_unitary(cfg, analytic_swap_parameters(ETA, OMEGA))
        assert np.abs(u @ u.conj().T - np.eye(12)).max() <= 1e-10

    def test_baseline_reproduces_published_elements(self):
        # three-level truncation is where the published baseline table lives
        cfg = SystemConfig(cutoff=3)
        mod = np.abs(composite_unitary(cfg, analytic_swap_parameters(ETA, OMEGA)))
        assert mod[0, 4] == pytest.approx(0.803, abs=0.01)
        assert mod[4, 0] == pytest.approx(0.805, abs=0.01)
        assert mod[0, 0] == pytest.approx(0.587, abs=0.01)
        assert mod[1, 1] == pytest.approx(0.906, abs=0.01)
        assert mod[2, 2] == pytest.approx(0.997, abs=0.01)
        assert mod[3, 3] == pytest.approx(0.996, abs=0.01)

    def test_baseline_transfer_stable_at_larger_cutoffs(self):
        cp = analytic_swap_parameters(ETA, OMEGA)
        for cutoff in (6, 8):
            mod = np.abs(composite_unitary(SystemConfig(cutoff=cutoff), cp))
            assert 0.79 <= mod[cutoff + 1, 0] <= 0.82


class TestParamLayout:
    def layout(self) -> ParamLayout:
        return weak_drive_layout(3, eta=ETA, omega=OMEGA)

    def test_weak_dim(self):
        assert self.layout().dim == 5  # three durations, two relative phases

    def test_strong_dim_and_sharing(self):
        layout = strong_drive_layout(3, eta=ETA, omega=OMEGA)
        assert layout.dim == 6
        lower, upper = layout.slot_bounds()
        assert lower[-1] == 0.25 and upper[-1] == 2.5

    def test_duration_bound_value(self):
        lower, upper = self.layout().slot_bounds()
        assert upper[0] == pytest.approx(4.0 * np.pi / (ETA * OMEGA))
        assert lower[0] == 0.0

    def test_pack_unpack_round_trip(self):
        layout = self.layout()
        cp = analytic_swap_parameters(ETA, OMEGA)
        vec = layout.pack(cp)
        assert vec.shape == (5,)
        rebuilt = layout.unpack(vec, cp)
        for a, b in zip(cp, rebuilt):
            assert a == b

    def test_unpack_shared_broadcasts(self):
        layout = strong_drive_layout(2, eta=ETA, omega=1.0)
        template = uniform_pulse_train(2, delta=1.0, omega=1.0)
        vec = layout.pack(template)
        vec[-1] = 1.75
        cp = layout.unpack(vec, template)
        assert cp[0].delta == 1.75 and cp[1].delta == 1.75

    def test_unpack_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            self.layout().unpack(np.zeros(4), uniform_pulse_train(3, delta=1, omega=OMEGA))

    def test_pack_wrong_train(self):
        with pytest.raises(ValueError, match="pulse"):
            self.layout().pack(uniform_pulse_train(2, delta=1.0, omega=OMEGA))

    def test_unpack_rejects_train_of_other_count(self):
        layout = self.layout()
        vec = layout.pack(analytic_swap_parameters(ETA, OMEGA))
        with pytest.raises(ValueError, match="pulses"):
            layout.unpack(vec, uniform_pulse_train(4, delta=1.0, omega=OMEGA))

    def test_rejects_bad_count_and_duration_bound(self):
        with pytest.raises(ValueError, match="count"):
            ParamLayout(0, 10.0)
        for count in (2.5, True):
            with pytest.raises(ValueError, match="count must be an integer"):
                ParamLayout(count, 10.0)
        for bound in (0.0, -1.0, np.inf, np.nan, "10"):
            with pytest.raises(ValueError, match="duration_bound"):
                ParamLayout(3, bound)

    @pytest.mark.parametrize("build", [weak_drive_layout, strong_drive_layout])
    @pytest.mark.parametrize(
        "eta, omega, message",
        [(0.0, OMEGA, "eta must be positive"), (ETA, 0.0, "omega must be positive")],
    )
    def test_drive_layouts_reject_a_zero_coupling(self, build, eta, omega, message):
        with pytest.raises(ValueError, match=message):
            build(3, eta=eta, omega=omega)

    def test_slot_order(self):
        layout = strong_drive_layout(3, eta=ETA, omega=1.0)
        cp = CompositePulse(
            tuple(
                PulseParams(delta=1.5, omega=1.0, phi=0.5 * k, t=10.0 + k)
                for k in range(3)
            )
        )
        assert layout.pack(cp).tolist() == [10.0, 11.0, 12.0, 0.5, 1.0, 1.5]

    def test_contains(self):
        layout = self.layout()
        lower, upper = layout.slot_bounds()
        assert layout.contains((lower + upper) / 2.0)
        outside = upper.copy()
        outside[0] += 1.0
        assert not layout.contains(outside)

    def test_round_trip_any_vector(self):
        layout = strong_drive_layout(3, eta=ETA, omega=1.0)
        template = uniform_pulse_train(3, delta=1.0, omega=1.0)
        lower, upper = layout.slot_bounds()
        rng = np.random.default_rng(2024)
        for vec in lower + (upper - lower) * rng.random((25, layout.dim)):
            assert np.array_equal(layout.pack(layout.unpack(vec, template)), vec)

    def test_decode_rejects_a_block_of_the_wrong_width(self):
        layout = strong_drive_layout(3, eta=ETA, omega=1.0)
        template = uniform_pulse_train(3, delta=1.0, omega=1.0)
        for block in (np.zeros((2, layout.dim + 1)), np.zeros(layout.dim)):
            with pytest.raises(ValueError, match="expected vectors of length 6"):
                layout.decode(block, template)


class TestTrainUnitaries:
    """The batched kernel, ``drive_eigenpairs`` then ``train_product``,
    against the pulse-by-pulse reference."""

    @staticmethod
    def trains(cfg, strong):
        """12 random trains of 4 pulses in the weak layout's box, one drive
        shared by every row, or in the strong one's, one detuning per row:
        (durations, phases, delta, omega)."""
        omega = 1.0 if strong else OMEGA
        layout = (strong_drive_layout if strong else weak_drive_layout)(
            4, eta=cfg.eta, omega=omega
        )
        lower, upper = layout.slot_bounds()
        rng = np.random.default_rng(100 * cfg.cutoff + cfg.fock_offset + strong)
        rows = lower + (upper - lower) * rng.random((12, layout.dim))
        durations = rows[:, :4]
        durations[:3, 1] = 0.0  # zero-length pulses
        # clamped ensemble members: a common offset driving some pulses below 0
        durations[3:6] = np.maximum(durations[3:6] - 0.5 * upper[0], 0.0)
        phases = np.hstack([np.zeros((12, 1)), rows[:, 4:7]])
        return durations, phases, rows[:, -1] if strong else 1.0, omega

    @staticmethod
    def check(cfg, u, trains):
        """Each of the (12, dim, dim) propagators ``u`` against the reference
        of its train."""
        durations, phases, delta, omega = trains
        assert u.shape == (12, cfg.dim, cfg.dim)
        for b, d in enumerate(np.broadcast_to(delta, 12).tolist()):
            cp = CompositePulse(
                tuple(
                    PulseParams(delta=d, omega=omega, phi=f, t=t)
                    for t, f in zip(durations[b], phases[b])
                )
            )
            error = np.abs(u[b] - composite_unitary(cfg, cp)).max()
            assert error <= kernel_bar(cfg, cp)

    @pytest.mark.parametrize("cutoff", [3, 6, 10])
    @pytest.mark.parametrize("fock_offset", [0, 7])
    @pytest.mark.parametrize("strong", [False, True])
    def test_matches_composite_unitary(self, cutoff, fock_offset, strong):
        cfg = SystemConfig(cutoff=cutoff, fock_offset=fock_offset)
        durations, phases, delta, omega = trains = self.trains(cfg, strong)
        drive = drive_eigenpairs(cfg, delta, omega)
        self.check(cfg, train_product(*drive, durations, phases), trains)

    def test_rows_do_not_depend_on_their_batch(self):
        cfg = SystemConfig(cutoff=3)
        rng = np.random.default_rng(5)
        durations = rng.uniform(0.0, 1500.0, (64, 3))
        phases = rng.uniform(0.0, 2 * np.pi, (64, 3))
        deltas = rng.uniform(0.25, 2.5, 64)
        weak = drive_eigenpairs(cfg, 1.0, OMEGA)
        shared = train_product(*weak, durations, phases)
        per_row = train_product(*drive_eigenpairs(cfg, deltas, 1.0), durations, phases)
        column = np.eye(cfg.dim, 1)
        shared_column = train_product(*weak, durations, phases, column)
        for b in (0, 17, 63):
            one = durations[b : b + 1], phases[b : b + 1]
            alone = train_product(*weak, *one)
            assert np.array_equal(alone[0], shared[b])
            alone = train_product(*weak, *one, column)
            assert np.array_equal(alone[0], shared_column[b])
            strong = drive_eigenpairs(cfg, deltas[b], 1.0)
            alone = train_product(*strong, *one)
            assert np.array_equal(alone[0], per_row[b])

    def test_eigenpairs_of_a_detuning_batch(self):
        cfg = SystemConfig(cutoff=3)
        deltas = np.array([0.5, 1.5, 0.5])
        energies, vectors = drive_eigenpairs(cfg, deltas, 1.0)
        assert energies.shape == (3, cfg.dim) and vectors.shape == (3, 6, 6)
        for d, w, v in zip(deltas, energies, vectors):
            one_w, one_v = drive_eigenpairs(cfg, d, 1.0)
            assert np.array_equal(w, one_w) and np.array_equal(v, one_v)
            h = build_hamiltonian(cfg, delta=d, omega=1.0, phi=0.0)
            assert np.allclose(h @ v, v * w, atol=1e-13)

    def test_rejects_mismatched_shapes(self):
        cfg = SystemConfig(cutoff=3)
        w, v = drive_eigenpairs(cfg, 1.0, OMEGA)
        with pytest.raises(ValueError, match="durations"):
            train_product(w, v, np.ones((2, 3)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="n >= 1"):
            train_product(w, v, np.ones((2, 0)), np.ones((2, 0)))
        for t in (-5.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="durations must be finite and >= 0"):
                train_product(w, v, [[t, 1.0]], [[0.0, 0.0]])
        for phi in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="phases must be finite"):
                train_product(w, v, [[5.0, 1.0]], [[0.0, phi]])


def _frame(cutoff):
    """Diagonal of the real frame's F: i^k on mode level k of both blocks."""
    return np.tile(np.array([1, 1j, -1, -1j])[np.arange(cutoff) % 4], 2)


class TestRealFrame:
    """``_real_drive_eigenpairs`` decomposes F^dagger H F, which is real, and
    the kernel run on its eigenpairs gives F^dagger U F."""

    @pytest.mark.parametrize("cutoff", [3, 6, 10])
    @pytest.mark.parametrize("fock_offset", [0, 7])
    @pytest.mark.parametrize("strong", [False, True])
    def test_hamiltonian_is_real_in_the_frame(self, cutoff, fock_offset, strong):
        cfg = SystemConfig(cutoff=cutoff, fock_offset=fock_offset)
        delta, omega = (np.array([0.25, 1.0, 2.5]), 1.0) if strong else (1.0, OMEGA)
        h = build_hamiltonian(cfg, delta=delta, omega=omega, phi=0.0)
        f = _frame(cutoff)
        assert np.abs((f.conj()[:, None] * h * f).imag).max() <= 1e-15 * np.abs(h).max()
        energies, vectors = _real_drive_eigenpairs(cfg, delta, omega)
        assert energies.shape == h.shape[:-1] and vectors.shape == h.shape
        assert np.isrealobj(vectors)

    @pytest.mark.parametrize("fock_offset", [0, 7])
    @pytest.mark.parametrize(
        "delta, omega",
        [(1.0, OMEGA), (0.25, 1.0), (np.array([0.25, 1.0, 1.7, 2.5]), 1.0)],
    )
    def test_cached_drive_is_the_frame_of_build_hamiltonian(
        self, fock_offset, delta, omega
    ):
        # the eigenpairs rest on a cached H(0) with n - delta written on the
        # excited diagonal; they equal, bit for bit, those of the frame of
        # the Hamiltonian that build_hamiltonian builds at that delta
        cfg = SystemConfig(cutoff=6, fock_offset=fock_offset)
        f = _frame(cfg.cutoff)
        h = build_hamiltonian(cfg, delta=delta, omega=omega, phi=0.0)
        expected = np.linalg.eigh((f.conj()[:, None] * h * f).real)
        energies, vectors = _real_drive_eigenpairs(cfg, delta, omega)
        assert np.array_equal(energies, expected[0])
        assert np.array_equal(vectors, expected[1])
        cached = _real_drive(cfg, omega)
        assert cached is _real_drive(cfg, omega)
        assert not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0

    @pytest.mark.parametrize("cutoff", [3, 6, 10])
    @pytest.mark.parametrize("fock_offset", [0, 7])
    @pytest.mark.parametrize("strong", [False, True])
    def test_product_matches_composite_unitary(self, cutoff, fock_offset, strong):
        cfg = SystemConfig(cutoff=cutoff, fock_offset=fock_offset)
        durations, phases, delta, omega = trains = TestTrainUnitaries.trains(
            cfg, strong
        )
        drive = _real_drive_eigenpairs(cfg, delta, omega)
        framed = _train_pass(*drive, durations, phases)[0]
        f = _frame(cutoff)
        TestTrainUnitaries.check(cfg, f[:, None] * framed * f.conj(), trains)

    @pytest.mark.parametrize("cutoff, fock_offset", [(3, 0), (10, 7)])
    def test_rows_do_not_depend_on_their_batch(self, cutoff, fock_offset):
        cfg = SystemConfig(cutoff=cutoff, fock_offset=fock_offset)
        rng = np.random.default_rng(5)
        durations = rng.uniform(0.0, 1500.0, (64, 3))
        phases = rng.uniform(0.0, 2 * np.pi, (64, 3))
        deltas = rng.uniform(0.25, 2.5, 64)
        weak = _real_drive_eigenpairs(cfg, 1.0, OMEGA)
        per_row = _real_drive_eigenpairs(cfg, deltas, 1.0)
        shared_u = _train_pass(*weak, durations, phases)[0]
        per_row_u = _train_pass(*per_row, durations, phases)[0]
        for b in (0, 17, 63):
            one = durations[b : b + 1], phases[b : b + 1]
            assert np.array_equal(_train_pass(*weak, *one)[0][0], shared_u[b])
            strong = _real_drive_eigenpairs(cfg, deltas[b], 1.0)
            assert all(map(np.array_equal, strong, (p[b] for p in per_row)))
            assert np.array_equal(_train_pass(*strong, *one)[0][0], per_row_u[b])


class TestStateBlocks:
    """``train_product`` on a (dim, k) block of states against the
    pulse-by-pulse reference applied to the block."""

    @pytest.mark.parametrize("fock_offset", [0, 7])
    def test_matches_composite_unitary_on_a_block(self, fock_offset):
        cfg = SystemConfig(cutoff=6, fock_offset=fock_offset)
        rng = np.random.default_rng(fock_offset)
        durations = rng.uniform(0.0, 300.0, (4, 3))
        durations[0, 1] = 0.0  # a zero-length pulse
        phases = np.hstack([np.zeros((4, 1)), rng.uniform(0.0, 2 * np.pi, (4, 2))])
        states = rng.normal(size=(cfg.dim, 3)) + 1j * rng.normal(size=(cfg.dim, 3))
        # one drive shared by every row, then one drive per row
        for delta, omega in ((1.0, OMEGA), (rng.uniform(0.25, 2.5, 4), 1.0)):
            drive = drive_eigenpairs(cfg, delta, omega)
            out = train_product(*drive, durations, phases, states)
            assert out.shape == (4, cfg.dim, 3)
            for b, d in enumerate(np.broadcast_to(delta, 4).tolist()):
                cp = CompositePulse(
                    tuple(
                        PulseParams(delta=d, omega=omega, phi=f, t=t)
                        for t, f in zip(durations[b], phases[b])
                    )
                )
                ref, bar = composite_unitary(cfg, cp), kernel_bar(cfg, cp)
                assert np.abs(out[b] - ref @ states).max() <= bar * np.abs(states).max()

    def test_rejects_a_block_of_the_wrong_size(self):
        cfg = SystemConfig(cutoff=3)
        w, v = drive_eigenpairs(cfg, 1.0, OMEGA)
        with pytest.raises(ValueError, match="states"):
            train_product(w, v, np.ones((1, 2)), np.zeros((1, 2)), np.eye(5))
