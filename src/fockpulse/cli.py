"""Command-line front end: design, evaluate, thermometry, robustness.

A run is described by a small JSON config (see README for the schema).  All
numeric outputs land twice: a machine CSV with full float precision, and a
three-decimal table on stdout.  Designed pulses go into a content-addressed
library under the output directory so later commands can reuse them by id.

Exit codes: 0 success, 2 bad input, 3 design did not reach the loss
threshold, 4 correction system too ill-conditioned to solve.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .fockspace import SystemConfig, check_integer
from .library import PulseLibraryEntry, find_entry, load_entry, save_entry
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
    ThermometryError,
    run_thermometry,
    thermal_distribution,
)

__all__ = ["main", "RunConfig", "DesignFailure"]

log = logging.getLogger("fockpulse")

_CONFIG_VERSION = 1
_TARGET_RE = re.compile(r"^(swap|shelve)\((\d+)\)$")

# One dimensionless duration unit is 1/(2*pi) microseconds for a 1 MHz mode.
MICROSECONDS_PER_UNIT = 1.0 / (2.0 * math.pi)


class DesignFailure(RuntimeError):
    """Design finished but the loss stayed above the configured threshold."""

    def __init__(self, loss: float, threshold: float):
        self.loss = loss
        self.threshold = threshold
        super().__init__(
            f"designed pulse has loss {loss:.6f}, above the threshold {threshold}"
        )


def parse_target(preset: str, cutoff: int) -> TargetSpec:
    """Build a TargetSpec from a preset string like 'swap(0)' or 'shelve(2)'.

    The integer is the Fock state relative to the retained window.
    """
    m = _TARGET_RE.match(preset.strip())
    if not m:
        raise ValueError(
            f"unknown target preset {preset!r}; expected 'swap(n)' or 'shelve(n)'"
        )
    kind, fock = m.group(1), int(m.group(2))
    if kind == "swap":
        return swap_target(cutoff, fock)
    return shelving_target(cutoff, fock)


@dataclass
class RunConfig:
    """Validated run description parsed from the JSON config file."""

    system: SystemConfig
    regime: str
    pulse_count: int
    target: str
    pso: PsoConfig
    refine: RefineConfig
    starts: int
    refine_top: int
    loss_threshold: float
    thermometry: dict[str, Any] | None

    @property
    def omega(self) -> float:
        return WEAK_DRIVE_OMEGA if self.regime == "weak" else STRONG_DRIVE_OMEGA

    def layout(self) -> ParamLayout:
        if self.regime == "weak":
            return weak_drive_layout(
                self.pulse_count, eta=self.system.eta, omega=self.omega
            )
        return strong_drive_layout(
            self.pulse_count, eta=self.system.eta, omega=self.omega
        )

    def template(self) -> CompositePulse:
        return uniform_pulse_train(self.pulse_count, delta=1.0, omega=self.omega)

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "RunConfig":
        version = doc.get("version")
        if version != _CONFIG_VERSION:
            raise ValueError(
                f"unsupported config version {version!r}; expected {_CONFIG_VERSION}"
            )
        regime = doc.get("regime", "weak")
        if regime not in ("weak", "strong"):
            raise ValueError(f"regime must be 'weak' or 'strong', got {regime!r}")
        system = _config_block(SystemConfig, doc, "system")
        pulse_count = _integer_key(doc, "pulse_count", 3)
        target = str(doc.get("target", "swap(0)"))
        parse_target(target, system.cutoff)  # fail fast on bad presets
        pso = _config_block(PsoConfig, doc, "pso")
        refine = _config_block(RefineConfig, doc, "refine")
        starts = _integer_key(doc, "starts", 4)
        refine_top = _integer_key(doc, "refine_top", 2)
        loss_threshold = _real("loss_threshold", doc.get("loss_threshold", 0.5))
        if not math.isfinite(loss_threshold):
            raise ValueError(f"loss_threshold must be finite, got {loss_threshold}")
        thermometry = doc.get("thermometry")
        if thermometry is not None and not isinstance(thermometry, dict):
            raise ValueError("'thermometry' must be an object")
        return cls(
            system=system,
            regime=regime,
            pulse_count=pulse_count,
            target=target,
            pso=pso,
            refine=refine,
            starts=starts,
            refine_top=refine_top,
            loss_threshold=loss_threshold,
            thermometry=thermometry,
        )

    @classmethod
    def load(cls, path: Path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        return cls.from_document(doc)


def _integer_key(doc: dict[str, Any], name: str, default: int) -> int:
    """The integer under ``name``; a float, bool or string is bad input."""
    value = doc.get(name, default)
    check_integer(name, value)
    return int(value)


def _real(name: str, value: Any) -> float:
    """``value`` as a float; a value ``float()`` cannot take is bad input."""
    try:
        return float(value)
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _config_block(cls: type, doc: dict[str, Any], name: str) -> Any:
    """Build ``cls`` from the config's ``name`` block; a bad key is bad input."""
    try:
        return cls(**doc.get(name, {}))
    except TypeError as exc:
        raise ValueError(f"bad {name!r} block in config: {exc}") from exc


def parse_distribution(spec: dict[str, Any], cutoff: int) -> PhononDistribution:
    """Distribution from a config block: thermal or explicit populations."""
    if not isinstance(spec, dict):
        raise ValueError(f"'distribution' must be an object, got {spec!r}")
    if "thermal_nbar" in spec:
        nbar = _real("thermal_nbar", spec["thermal_nbar"])
        return thermal_distribution(nbar, cutoff)
    if "populations" in spec:
        first = spec.get("first_fock", 0)
        check_integer("first_fock", first)
        values = spec["populations"]
        if not isinstance(values, list):
            raise ValueError(f"'populations' must be a list, got {values!r}")
        values = [_real("population", v) for v in values]
        if first < 0 or first + len(values) > cutoff:
            raise ValueError(
                f"populations spanning [{first}, {first + len(values)}) do not "
                f"fit in {cutoff} truth levels"
            )
        populations = np.zeros(cutoff)
        populations[first : first + len(values)] = values
        return PhononDistribution(populations=populations)
    raise ValueError(
        "distribution needs either 'thermal_nbar' or 'populations' (+ 'first_fock')"
    )


def _emit(
    args: argparse.Namespace,
    stem: str,
    document: dict[str, Any],
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> None:
    """Write ``<stem>.csv`` (unless ``--format json``) and ``<stem>.json``.

    CSV floats keep full precision; the JSON document is stamped with the
    config version.
    """
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        path = out_dir / f"{stem}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(
                [format(float(v), ".17g") if isinstance(v, float) else v for v in row]
                for row in rows
            )
        log.info("wrote %s", path)
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


def _load_pulse_arg(
    args: argparse.Namespace,
) -> tuple[PulseLibraryEntry, SystemConfig]:
    """The entry named by --pulse-file or --pulse-id, and its system at --cutoff."""
    if args.pulse_file:
        entry = load_entry(Path(args.pulse_file))
    elif args.pulse_id:
        entry = load_entry(find_entry(Path(args.out) / "library", args.pulse_id))
    else:
        raise ValueError("provide --pulse-id or --pulse-file")
    system = entry.system
    if args.cutoff is not None:
        system = dataclasses.replace(system, cutoff=args.cutoff)
    return entry, system


def cmd_design(args: argparse.Namespace) -> int:
    rc = RunConfig.load(Path(args.config))
    if args.cutoff is not None:
        rc.system = dataclasses.replace(rc.system, cutoff=args.cutoff)
    if args.seed is not None:
        rc.pso = dataclasses.replace(rc.pso, seed=args.seed)
    target = parse_target(rc.target, rc.system.cutoff)
    log.info(
        "designing %s at cutoff %d (%s drive, %d pulses, %d starts)",
        rc.target,
        rc.system.cutoff,
        rc.regime,
        rc.pulse_count,
        rc.starts,
    )
    result: OptimizationResult = design_pulse(
        rc.system,
        rc.template(),
        rc.layout(),
        target,
        rc.pso,
        rc.refine,
        starts=rc.starts,
        refine_top=rc.refine_top,
    )
    if result.loss > rc.loss_threshold:
        raise DesignFailure(result.loss, rc.loss_threshold)

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

    unitary = composite_unitary(rc.system, entry.pulse)
    modulus = np.abs(unitary)
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
            "modulus": modulus.tolist(),
            "excitation_profile": excitation_profile(unitary).tolist(),
        },
        ["pulse", "delta", "omega", "phi", "t"],
        [[k, p.delta, p.omega, p.phi, p.t] for k, p in enumerate(entry.pulse)],
    )
    print(f"pulse id: {entry.id}")
    print(f"loss: {result.loss:.6f}")
    print(format_pulse_table(entry.pulse))
    print("propagator modulus:")
    print(format_matrix(modulus))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    entry, system = _load_pulse_arg(args)
    unitary = composite_unitary(system, entry.pulse)
    modulus = np.abs(unitary)
    profile = excitation_profile(unitary)

    labels = [f"g{n}" for n in system.fock_indices()] + [
        f"e{n}" for n in system.fock_indices()
    ]
    _emit(
        args,
        f"evaluate-{entry.id}-c{system.cutoff}",
        {
            "id": entry.id,
            "system": dataclasses.asdict(system),
            "target": entry.target,
            "design_loss": entry.loss,
            "modulus": modulus.tolist(),
            "excitation_profile": profile.tolist(),
        },
        ["row"] + labels,
        [[labels[i]] + [float(v) for v in modulus[i]] for i in range(len(labels))],
    )
    print(f"pulse id: {entry.id} (target {entry.target}, cutoff {system.cutoff})")
    print("propagator modulus:")
    print(format_matrix(modulus))
    print("excitation profile:", " ".join(f"{v:.3f}" for v in profile))
    return 0


def cmd_thermometry(args: argparse.Namespace) -> int:
    rc = RunConfig.load(Path(args.config))
    if args.seed is not None:
        rc.pso = dataclasses.replace(rc.pso, seed=args.seed)
    block = rc.thermometry
    if block is None:
        raise ValueError("config has no 'thermometry' section")
    window = block.get("window", [])
    if not isinstance(window, list) or not window:
        raise ValueError("thermometry config needs a nonempty 'window' list")
    for n in window:
        check_integer("window entry", n)
    truth_cutoff = _integer_key(block, "truth_cutoff", 100)
    cfg_truth = dataclasses.replace(
        rc.system, cutoff=truth_cutoff, fock_offset=0
    )
    dist = parse_distribution(block.get("distribution", {}), truth_cutoff)

    pulses = None
    if block.get("pulse_ids"):
        entries = [
            load_entry(find_entry(Path(args.out) / "library", key))
            for key in block["pulse_ids"]
        ]
        pulses = [e.pulse for e in entries]
        log.info("loaded %d pulses from the library", len(pulses))

    result = run_thermometry(
        rc.system,
        cfg_truth,
        window,
        dist,
        rc.template(),
        rc.layout(),
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
            "truth_cutoff": truth_cutoff,
            "window": result.window,
            "true": result.truth.tolist(),
            "measured": result.measured.tolist(),
            "corrected": result.corrected.tolist(),
            "coefficients": result.coeff.tolist(),
            "condition_number": result.condition_number,
            "design_losses": result.design_losses,
            "pulses": [cp.to_dicts() for cp in result.pulses],
        },
        ["fock", "true", "measured", "corrected"],
        result.rows(),
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
        ["offset", "probability"],
        result.points(),
    )
    print(f"pulse id: {entry.id}  axis: {args.axis}  probe: {probe.mode}({probe.fock})")
    print(f"offsets [{lower:.4g}, {upper:.4g}] in {args.points} points")
    if args.axis == "duration":
        print(
            f"(duration offsets in 1/nu units; multiply by {MICROSECONDS_PER_UNIT:.6f}"
            " for microseconds at a 1 MHz mode)"
        )
    nearest_zero = int(np.argmin(np.abs(result.offsets)))
    print(f"probability at zero offset: {result.probabilities[nearest_zero]:.4f}")
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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default="runs", help="output directory (default: runs)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="csv writes machine CSV plus the JSON document; json skips the CSV",
        )

    p_design = sub.add_parser("design", help="optimize a pulse from a config file")
    p_design.add_argument("--config", required=True)
    p_design.add_argument("--seed", type=int, help="override the swarm seed")
    p_design.add_argument("--cutoff", type=int, help="override the design cutoff")
    add_common(p_design)
    p_design.set_defaults(func=cmd_design)

    p_eval = sub.add_parser("evaluate", help="print a stored pulse's propagator")
    p_eval.add_argument("--pulse-id", help="library id (may be abbreviated)")
    p_eval.add_argument("--pulse-file", help="path to a pulse entry JSON")
    p_eval.add_argument("--cutoff", type=int, help="evaluate at a different cutoff")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_thermo = sub.add_parser("thermometry", help="full readout-and-correct run")
    p_thermo.add_argument("--config", required=True)
    p_thermo.add_argument("--seed", type=int, help="override the swarm seed")
    add_common(p_thermo)
    p_thermo.set_defaults(func=cmd_thermometry)

    p_rob = sub.add_parser("robustness", help="sweep timing or phase offsets")
    p_rob.add_argument("--pulse-id")
    p_rob.add_argument("--pulse-file")
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
    add_common(p_rob)
    p_rob.set_defaults(func=cmd_robustness)
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
    except DesignFailure as exc:
        log.error("%s", exc)
        return 3
    except KeyError as exc:
        log.error("missing config key: %s", exc)
        return 2
    except (
        ValueError,
        FileNotFoundError,
        NotADirectoryError,
        OSError,
        ThermometryError,
    ) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
