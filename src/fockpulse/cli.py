"""Command-line front end: design, evaluate, thermometry, robustness.

A run is described by a small JSON config (see README for the schema).  Each
command prints a three-decimal report and writes one JSON document with full
float precision under the output directory: ``design-<id>.json`` (pulse
records, loss, propagator modulus, excitation profile),
``evaluate-<id>-c<cutoff>.json`` (modulus and profile at that cutoff),
``thermometry.json`` (true, measured and corrected window populations,
coefficient matrix, condition number) or ``robustness-<id>-<axis>.json``
(offsets, probabilities, clamped offsets).  Designed pulses also go into a
content-addressed library there, so later commands can reuse them by id.

Exit codes: 0 success, 2 bad input, 3 design did not reach the loss
threshold, 4 correction system too ill-conditioned to solve.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import re
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .fockspace import (
    SystemConfig,
    check_integer,
    check_object,
    check_real,
    read_record,
)
from .library import PulseLibraryEntry, _check_key, find_entry, load_entry, save_entry
from .objective import TargetSpec, excitation_profile, shelving_target, swap_target
from .optimizer import (
    OptimizationResult,
    PsoConfig,
    RefineConfig,
    design_pulse,
)
from .pulses import (
    STRONG_DRIVE_OMEGA,
    WEAK_DRIVE_OMEGA,
    CompositePulse,
    ParamLayout,
    composite_unitary,
    strong_drive_layout,
    uniform_pulse_train,
    weak_drive_layout,
)
from .robustness import SweepSpec, TransitionProbe, sweep
from .thermometry import (
    IllConditionedError,
    PhononDistribution,
    run_thermometry,
    thermal_distribution,
)

__all__ = ["main", "RunConfig"]

log = logging.getLogger("fockpulse")

_CONFIG_VERSION = 1
_TARGET_RE = re.compile(r"^(swap|shelve)\((\d+)\)$")
_DISTRIBUTION_KEYS = ("thermal_nbar", "populations", "first_fock")

# One dimensionless duration unit is 1/(2*pi) microseconds for a 1 MHz mode.
MICROSECONDS_PER_UNIT = 1.0 / (2.0 * math.pi)


def parse_target(preset: str, cutoff: int) -> TargetSpec:
    """Build a TargetSpec from a preset string like 'swap(0)' or 'shelve(2)'.

    The integer is the Fock state relative to the retained window; anything
    but such a string is an unknown preset.
    """
    m = isinstance(preset, str) and _TARGET_RE.match(preset.strip())
    if not m:
        raise ValueError(
            f"unknown target preset {preset!r}; expected 'swap(n)' or 'shelve(n)'"
        )
    kind, fock = m.group(1), int(m.group(2))
    if kind == "swap":
        return swap_target(cutoff, fock)
    return shelving_target(cutoff, fock)


@dataclass(frozen=True)
class RunConfig:
    """A run config, checked whole: its fields are the document's keys, each
    with its default, so ``read_record(RunConfig, "config", doc)`` reads one.

    The ``system``, ``pso``, ``refine`` and ``thermometry`` blocks are given
    as JSON objects and hold their records once built.  ``target`` is the
    preset label, as written in the config and stored in the library entry;
    ``target_spec`` is the TargetSpec it names, and ``template`` and
    ``layout`` are the regime's uniform pulse train and parameter layout.
    """

    version: int
    regime: str = "weak"
    system: SystemConfig = field(default_factory=dict)
    pulse_count: int = 3
    target: str = "swap(0)"
    pso: PsoConfig = field(default_factory=dict)
    refine: RefineConfig = field(default_factory=dict)
    starts: int = 4
    refine_top: int = 2
    loss_threshold: float = 0.5
    thermometry: ThermometryBlock | None = None
    target_spec: TargetSpec = field(init=False)
    template: CompositePulse = field(init=False)
    layout: ParamLayout = field(init=False)

    def __post_init__(self) -> None:
        put = partial(object.__setattr__, self)  # the record is frozen
        if self.version != _CONFIG_VERSION:
            raise ValueError(
                f"unsupported config version {self.version!r}; "
                f"expected {_CONFIG_VERSION}"
            )
        if self.regime not in ("weak", "strong"):
            raise ValueError(f"regime must be 'weak' or 'strong', got {self.regime!r}")
        for name, record in (
            ("system", SystemConfig), ("pso", PsoConfig), ("refine", RefineConfig)
        ):
            put(name, read_record(record, f"'{name}' block", getattr(self, name)))
        for name in ("pulse_count", "starts", "refine_top"):
            check_integer(name, getattr(self, name))
        check_real("loss_threshold", self.loss_threshold)
        put("loss_threshold", float(self.loss_threshold))
        if self.thermometry is not None:
            block = read_record(ThermometryBlock, "'thermometry'", self.thermometry)
            put("thermometry", block)
        weak = self.regime == "weak"
        omega = WEAK_DRIVE_OMEGA if weak else STRONG_DRIVE_OMEGA
        build_layout = weak_drive_layout if weak else strong_drive_layout
        put("target_spec", parse_target(self.target, self.system.cutoff))
        put("template", uniform_pulse_train(self.pulse_count, delta=1.0, omega=omega))
        put("layout", build_layout(self.pulse_count, eta=self.system.eta, omega=omega))

    @classmethod
    def load(
        cls, path: Path, cutoff: int | None = None, seed: int | None = None
    ) -> "RunConfig":
        """Read the config at ``path``; ``cutoff`` and ``seed`` replace the
        document's ``system.cutoff`` and ``pso.seed`` before it is read, so
        they meet the same checks as the values they replace."""
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        for name, key, value in (("system", "cutoff", cutoff), ("pso", "seed", seed)):
            if value is not None and isinstance(doc.setdefault(name, {}), dict):
                doc[name][key] = value
        return read_record(cls, "config", doc)


@dataclass(frozen=True)
class ThermometryBlock:
    """The config's ``thermometry`` block.  ``distribution`` is given as a
    JSON object and holds its PhononDistribution once built; ``pulse_ids``
    name stored pulses to read out with instead of designing new ones.  The
    window is checked by ``run_thermometry``, against both spaces.
    """

    window: list[int] = field(default_factory=list)
    truth_cutoff: int = 100
    distribution: PhononDistribution = field(default_factory=dict)
    pulse_ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_integer("truth_cutoff", self.truth_cutoff, 2)
        distribution = parse_distribution(self.distribution, self.truth_cutoff)
        object.__setattr__(self, "distribution", distribution)
        if not isinstance(self.pulse_ids, list) or not all(
            isinstance(key, str) for key in self.pulse_ids
        ):
            raise ValueError(
                f"'pulse_ids' must be a list of strings, got {self.pulse_ids!r}"
            )
        for key in self.pulse_ids:
            _check_key(key)


def parse_distribution(spec: dict[str, Any], cutoff: int) -> PhononDistribution:
    """Distribution from a config block: thermal or explicit populations."""
    check_object("'distribution'", spec, _DISTRIBUTION_KEYS)
    if "thermal_nbar" in spec:
        extra = [key for key in ("populations", "first_fock") if key in spec]
        if extra:
            raise ValueError(f"'thermal_nbar' excludes {', '.join(map(repr, extra))}")
        return thermal_distribution(spec["thermal_nbar"], cutoff)
    if "populations" in spec:
        first = spec.get("first_fock", 0)
        check_integer("first_fock", first)
        values = spec["populations"]
        if not isinstance(values, list):
            raise ValueError(f"'populations' must be a list, got {values!r}")
        if first < 0 or first + len(values) > cutoff:
            raise ValueError(
                f"populations spanning [{first}, {first + len(values)}) do not "
                f"fit in {cutoff} truth levels"
            )
        # the raw values, so PhononDistribution sees a string or bool as given
        padding = [0] * (cutoff - first - len(values))
        return PhononDistribution(populations=[0] * first + values + padding)
    raise ValueError(
        "distribution needs either 'thermal_nbar' or 'populations' (+ 'first_fock')"
    )


def _emit(args: argparse.Namespace, stem: str, document: dict[str, Any]) -> None:
    """Write ``document``, stamped with the config version, to ``<stem>.json``."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.json"
    document = {"version": _CONFIG_VERSION, **document}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    log.info("wrote %s", path)


def format_matrix(matrix: np.ndarray) -> str:
    return "\n".join(
        " ".join(f"{v:6.3f}" for v in row) for row in np.asarray(matrix, dtype=float)
    )


def format_pulse_table(cp: CompositePulse) -> str:
    lines = ["pulse  delta   omega     phi          t"]
    for k, p in enumerate(cp):
        lines.append(
            f"{k:5d}  {p.delta:6.3f}  {p.omega:6.3f}  {p.phi:6.3f}  {p.t:9.3f}"
        )
    return "\n".join(lines)


def _propagator_report(system: SystemConfig, pulse: CompositePulse) -> dict[str, Any]:
    """Print the train's propagator modulus and excitation profile, and return
    them as document fields."""
    unitary = composite_unitary(system, pulse)
    modulus = np.abs(unitary)
    profile = excitation_profile(unitary)
    print("propagator modulus:")
    print(format_matrix(modulus))
    print("excitation profile:", " ".join(f"{v:.3f}" for v in profile))
    return {"modulus": modulus.tolist(), "excitation_profile": profile.tolist()}


def _stored_entry(args: argparse.Namespace, key: str) -> PulseLibraryEntry:
    """The entry under ``key`` in the output directory's library."""
    return load_entry(find_entry(Path(args.out) / "library", key))


def _load_pulse_arg(
    args: argparse.Namespace,
) -> tuple[PulseLibraryEntry, SystemConfig]:
    """The entry named by --pulse-file or --pulse-id, and its system at --cutoff."""
    if args.pulse_file:
        entry = load_entry(Path(args.pulse_file))
    else:
        entry = _stored_entry(args, args.pulse_id)
    system = entry.system
    if args.cutoff is not None:
        system = dataclasses.replace(system, cutoff=args.cutoff)
    return entry, system


def cmd_design(args: argparse.Namespace) -> int:
    rc = RunConfig.load(Path(args.config), cutoff=args.cutoff, seed=args.seed)
    log.info(
        "designing %s at cutoff %d (%s drive, %d pulses, %d starts)",
        rc.target,
        rc.system.cutoff,
        rc.regime,
        len(rc.template),
        rc.starts,
    )
    result: OptimizationResult = design_pulse(
        rc.system,
        rc.template,
        rc.layout,
        rc.target_spec,
        rc.pso,
        rc.refine,
        starts=rc.starts,
        refine_top=rc.refine_top,
    )
    if result.loss > rc.loss_threshold:
        log.error(
            "designed pulse has loss %.6f, above the threshold %s",
            result.loss,
            rc.loss_threshold,
        )
        return 3

    entry = PulseLibraryEntry(
        system=rc.system,
        target=rc.target,
        pulse=result.pulse.canonical(),
        loss=result.loss,
        meta={
            "regime": rc.regime,
            "evaluations": result.evaluations,
            "pso": dataclasses.asdict(rc.pso),
            "refine": dataclasses.asdict(rc.refine),
            "starts": rc.starts,
            "refine_top": rc.refine_top,
        },
    )
    save_entry(entry, Path(args.out) / "library")

    print(f"pulse id: {entry.id}")
    print(f"loss: {result.loss:.6f}")
    print(format_pulse_table(entry.pulse))
    _emit(
        args,
        f"design-{entry.id}",
        {
            "id": entry.id,
            "system": dataclasses.asdict(rc.system),
            "target": rc.target,
            "loss": result.loss,
            "evaluations": result.evaluations,
            "pulses": entry.pulse.to_dicts(),
            **_propagator_report(rc.system, entry.pulse),
        },
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    entry, system = _load_pulse_arg(args)
    print(f"pulse id: {entry.id} (target {entry.target}, cutoff {system.cutoff})")
    _emit(
        args,
        f"evaluate-{entry.id}-c{system.cutoff}",
        {
            "id": entry.id,
            "system": dataclasses.asdict(system),
            "target": entry.target,
            "design_loss": entry.loss,
            **_propagator_report(system, entry.pulse),
        },
    )
    return 0


def cmd_thermometry(args: argparse.Namespace) -> int:
    rc = RunConfig.load(Path(args.config), seed=args.seed)
    block = rc.thermometry
    if block is None:
        raise ValueError("config has no 'thermometry' section")
    pulses = None
    if block.pulse_ids:
        pulses = [_stored_entry(args, key).pulse for key in block.pulse_ids]
        log.info("loaded %d pulses from the library", len(pulses))

    result = run_thermometry(
        rc.system,
        dataclasses.replace(rc.system, cutoff=block.truth_cutoff, fock_offset=0),
        block.window,
        block.distribution,
        rc.template,
        rc.layout,
        rc.pso,
        rc.refine,
        pulses=pulses,
        starts=rc.starts,
        refine_top=rc.refine_top,
    )

    _emit(
        args,
        "thermometry",
        {
            "system": dataclasses.asdict(rc.system),
            "truth_cutoff": block.truth_cutoff,
            "window": result.window,
            "true": result.truth.tolist(),
            "measured": result.measured.tolist(),
            "corrected": result.corrected.tolist(),
            "coefficients": result.coeff.tolist(),
            "condition_number": result.condition_number,
            "design_losses": result.design_losses,
            "pulses": [cp.to_dicts() for cp in result.pulses],
        },
    )
    print("fock      true  measured corrected")
    for n, p, m, r in result.rows():
        print(f"{n:4d}  {p:8.3f}  {m:8.3f}  {r:8.3f}")
    print(f"condition number: {result.condition_number:.3f}")
    worst = float(np.max(np.abs(result.corrected - result.truth)))
    print(f"max |corrected - true|: {worst:.4f}")
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    entry, system = _load_pulse_arg(args)
    if args.range is not None:
        lower, upper = args.range
    else:
        lower, upper = (
            (-125.66, 125.66) if args.axis == "duration" else (-math.pi / 2, math.pi / 2)
        )
    if args.which != "all" and not args.which.isdecimal():
        raise ValueError(f"--which must be 'all' or a pulse index, got {args.which!r}")
    spec = SweepSpec(
        axis=args.axis,
        lower=lower,
        upper=upper,
        points=args.points,
        which="all" if args.which == "all" else int(args.which),
    )
    probe = TransitionProbe(fock=args.fock, mode=args.probe)
    result = sweep(system, entry.pulse, spec, probe)

    _emit(
        args,
        f"robustness-{entry.id}-{args.axis}",
        {
            "id": entry.id,
            "axis": args.axis,
            "which": spec.which,
            "probe": {"fock": probe.fock, "mode": probe.mode},
            "offsets": result.offsets.tolist(),
            "probabilities": result.probabilities.tolist(),
            "clamped_offsets": result.clamped_offsets,
            "microseconds_per_unit": MICROSECONDS_PER_UNIT,
        },
    )
    print(f"pulse id: {entry.id}  axis: {args.axis}  probe: {probe.mode}({probe.fock})")
    print(f"offsets [{lower:.4g}, {upper:.4g}] in {args.points} points")
    if args.axis == "duration":
        print(
            f"(duration offsets in 1/nu units; multiply by {MICROSECONDS_PER_UNIT:.6f}"
            " for microseconds at a 1 MHz mode)"
        )
    # an even number of points puts no grid point at 0
    nearest = int(np.argmin(np.abs(result.offsets)))
    print(
        f"probability at the offset nearest 0 ({result.offsets[nearest]:.4g}): "
        f"{result.probabilities[nearest]:.4f}"
    )
    print(f"minimum over the sweep: {result.probabilities.min():.4f}")
    window = result.widest_window(0.99)
    if window is None:
        print("no sampled offset keeps the probability >= 0.99")
    else:
        print(f"widest window with probability >= 0.99: [{window[0]:.4g}, {window[1]:.4g}]")
    if result.clamped_offsets:
        print(
            f"warning: {len(result.clamped_offsets)} offsets clamped a duration at 0"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockpulse",
        description="Design and evaluate composite pulses for phonon readout.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress logs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="optimize a pulse from a config file")
    p_design.add_argument("--config", required=True)
    p_design.add_argument("--seed", type=int, help="override the swarm seed")
    p_design.add_argument("--cutoff", type=int, help="override the design cutoff")
    p_design.set_defaults(func=cmd_design)

    p_eval = sub.add_parser("evaluate", help="print a stored pulse's propagator")
    p_eval.add_argument("--cutoff", type=int, help="evaluate at a different cutoff")
    p_eval.set_defaults(func=cmd_evaluate)

    p_thermo = sub.add_parser("thermometry", help="full readout-and-correct run")
    p_thermo.add_argument("--config", required=True)
    p_thermo.add_argument("--seed", type=int, help="override the swarm seed")
    p_thermo.set_defaults(func=cmd_thermometry)

    p_rob = sub.add_parser("robustness", help="sweep timing or phase offsets")
    p_rob.add_argument("--axis", choices=("duration", "phase"), required=True)
    p_rob.add_argument(
        "--range", nargs=2, type=float, metavar=("LO", "HI"), default=None
    )
    p_rob.add_argument("--points", type=int, default=201)
    p_rob.add_argument("--which", default="all", help="'all' or a pulse index")
    p_rob.add_argument("--fock", type=int, default=0, help="probe input Fock state")
    p_rob.add_argument(
        "--probe", choices=("transfer", "excitation"), default="transfer"
    )
    p_rob.add_argument("--cutoff", type=int, help="evaluate at a different cutoff")
    p_rob.set_defaults(func=cmd_robustness)
    for p in (p_eval, p_rob):
        pulse = p.add_mutually_exclusive_group(required=True)
        pulse.add_argument("--pulse-id", help="library id (may be abbreviated)")
        pulse.add_argument("--pulse-file", help="path to a pulse entry JSON")
    for p in (p_design, p_eval, p_thermo, p_rob):
        p.add_argument("--out", default="runs", help="output directory (default: runs)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except IllConditionedError as exc:
        log.error("%s", exc)
        return 4
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
