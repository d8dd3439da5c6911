"""Composite-pulse design and phonon-population readout for trapped ions.

The package models a laser-driven two-level ion coupled to one motional mode
on a truncated Fock space, optimizes trains of square pulses against
modulus-matrix targets, and corrects population measurements taken with the
resulting imperfect pulses through a linear inversion.
"""

from .fockspace import (
    SystemConfig,
    build_hamiltonian,
    displacement_exponential,
    ideal_sideband_propagator,
    ladder_operators,
    number_operator,
    propagate,
)
from .library import (
    PulseLibraryEntry,
    entry_id,
    find_entry,
    list_entries,
    load_entry,
    save_entry,
)
from .objective import (
    TargetSpec,
    excitation_profile,
    modulus_loss,
    shelving_target,
    swap_target,
)
from .optimizer import (
    OptimizationResult,
    PsoConfig,
    RefineConfig,
    design_pulse,
    finite_difference_gradient,
    pso_search,
    refine,
)
from .pulses import (
    STRONG_DRIVE_OMEGA,
    WEAK_DRIVE_OMEGA,
    CompositePulse,
    ParamLayout,
    PulseParams,
    analytic_swap_parameters,
    composite_unitary,
    strong_drive_layout,
    train_states,
    train_unitaries,
    uniform_pulse_train,
    weak_drive_layout,
)
from .robustness import (
    OffsetEnsemble,
    SweepSpec,
    TransitionProbe,
    perturb,
    robust_loss,
    sweep,
)
from .thermometry import (
    IllConditionedError,
    PhononDistribution,
    ThermometryError,
    ThermometryResult,
    coefficient_matrix,
    correct_populations,
    profiles_to_coefficients,
    run_thermometry,
    simulate_measurements,
    thermal_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "SystemConfig",
    "build_hamiltonian",
    "displacement_exponential",
    "ideal_sideband_propagator",
    "ladder_operators",
    "number_operator",
    "propagate",
    "PulseParams",
    "CompositePulse",
    "ParamLayout",
    "composite_unitary",
    "train_states",
    "train_unitaries",
    "analytic_swap_parameters",
    "uniform_pulse_train",
    "weak_drive_layout",
    "strong_drive_layout",
    "WEAK_DRIVE_OMEGA",
    "STRONG_DRIVE_OMEGA",
    "TargetSpec",
    "swap_target",
    "shelving_target",
    "modulus_loss",
    "excitation_profile",
    "PsoConfig",
    "RefineConfig",
    "OptimizationResult",
    "pso_search",
    "refine",
    "design_pulse",
    "finite_difference_gradient",
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
    "SweepSpec",
    "TransitionProbe",
    "perturb",
    "sweep",
    "OffsetEnsemble",
    "robust_loss",
    "PulseLibraryEntry",
    "entry_id",
    "find_entry",
    "list_entries",
    "save_entry",
    "load_entry",
]
