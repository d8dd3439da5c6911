"""End-to-end tests for the command-line interface."""

import argparse
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockpulse import (
    CompositePulse,
    PulseParams,
    SweepSpec,
    SystemConfig,
    TransitionProbe,
    read_record,
    save_entry,
    shelving_target,
    sweep,
)
from fockpulse import cli, thermometry
from fockpulse.cli import RunConfig, main, parse_distribution, parse_target
from fockpulse.library import PulseLibraryEntry


def _write_config(path, **overrides):
    doc = {
        "version": 1,
        "regime": "weak",
        "system": {"cutoff": 3},
        "pulse_count": 3,
        "target": "swap(0)",
        "pso": {"particles": 8, "iterations": 5, "seed": 1},
        "refine": {"max_iters": 10},
        "starts": 1,
        "refine_top": 1,
        "loss_threshold": 2.0,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def _store_pulse(
    out_dir, k: float, target="shelve(0)", system=SystemConfig(cutoff=3)
) -> PulseLibraryEntry:
    entry = PulseLibraryEntry(
        system=system,
        target=target,
        pulse=CompositePulse(
            pulses=(
                PulseParams(delta=1.0, omega=0.1, phi=0.0, t=50.0 + 20.0 * k),
                PulseParams(delta=1.0, omega=0.1, phi=0.3 * (k + 1), t=90.0),
            )
        ),
        loss=0.4,
        meta={},
    )
    save_entry(entry, out_dir / "library")
    return entry


def test_parse_target_presets():
    spec = parse_target("swap(1)", 4)
    assert spec.mask.all()
    shelf = parse_target(" shelve(2) ", 4)
    assert np.array_equal(shelf.mask, shelving_target(4, 2).mask)
    with pytest.raises(ValueError, match="unknown target"):
        parse_target("flip(1)", 4)
    with pytest.raises(ValueError, match="cutoff"):
        parse_target("swap(3)", 4)  # needs state 4 above the cutoff


def test_run_config_validation(tmp_path):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)
    rc = RunConfig.load(cfg_path)
    assert rc.system.cutoff == 3
    assert rc.template[0].omega == 0.1
    assert rc.layout.dim == 5  # three durations plus two relative phases

    _write_config(cfg_path, version=2)
    with pytest.raises(ValueError, match="config version"):
        RunConfig.load(cfg_path)

    _write_config(cfg_path, regime="medium")
    with pytest.raises(ValueError, match="regime"):
        RunConfig.load(cfg_path)

    cfg_path.write_text("not json {")
    with pytest.raises(ValueError, match="not valid JSON"):
        RunConfig.load(cfg_path)


def test_parse_distribution_variants():
    thermal = parse_distribution({"thermal_nbar": 1.0}, 30)
    assert len(thermal) == 30

    explicit = parse_distribution(
        {"populations": [0.3, 0.4, 0.3], "first_fock": 5}, 20
    )
    assert explicit.populations[5] == pytest.approx(0.3)
    assert explicit.populations[6] == pytest.approx(0.4)
    assert explicit.populations[0] == 0.0

    with pytest.raises(ValueError, match="do not fit"):
        parse_distribution({"populations": [0.5, 0.5], "first_fock": 19}, 20)
    with pytest.raises(ValueError, match="thermal_nbar"):
        parse_distribution({}, 20)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"populations": [0.5, 0.5], "first_fock": 1.7}, "first_fock must be"),
        ({"populations": [0.5, 0.5], "first_fock": "1"}, "first_fock must be"),
        ({"thermal_nbar": "nan"}, "nbar must be a number"),
        ({"thermal_nbar": float("inf")}, "nbar must be finite"),
        ({"thermal_nbar": None}, "nbar must be a number"),
        ({"populations": [float("nan"), 1.0]}, "populations must be finite"),
        ({"populations": [0.5, None]}, "populations must be a number"),
        ({"populations": 0.5}, "'populations' must be a list"),
        (5, "'distribution' must be an object"),
        ({"thermal_nbar": True}, "nbar must be a number"),
        ({"populations": [True, False]}, "populations must be a number"),
        ({"thermal_nbar": 1.0, "populations": [0.5, 0.5]}, "'populations'"),
        ({"thermal_nbar": 1.0, "first_fock": 3}, "'first_fock'"),
    ],
)
def test_parse_distribution_rejects_bad_values(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_distribution(spec, 20)


def test_design_command_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)
    out = tmp_path / "runs"

    code = main(["--quiet", "design", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "pulse id:" in printed

    pulse_id = printed.split("pulse id:")[1].split()[0]
    library = sorted((out / "library").glob("*.json"))
    assert len(library) == 1
    assert library[0].stem == pulse_id
    # one document per command: nothing besides it and the library entry
    assert sorted(p.name for p in out.iterdir()) == [f"design-{pulse_id}.json", "library"]
    document = json.loads((out / f"design-{pulse_id}.json").read_text())
    assert len(document["modulus"]) == 6
    assert len(document["pulses"]) == 3
    assert document["pulses"] == json.loads(library[0].read_text())["pulses"]
    assert document["loss"] < 2.0


def test_design_failure_exit_code(tmp_path):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, loss_threshold=1e-6)
    code = main(["--quiet", "design", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
    assert code == 3


def test_design_missing_config_reports_path(tmp_path, caplog):
    missing = tmp_path / "nope.json"
    code = main(["--quiet", "design", "--config", str(missing)])
    assert code == 2
    assert str(missing) in caplog.text


def test_evaluate_idempotent_and_cutoff_override(tmp_path, capsys):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)

    code = main(["--quiet", "evaluate", "--pulse-id", entry.id[:8], "--out", str(out)])
    assert code == 0
    first = (out / f"evaluate-{entry.id}-c3.json").read_bytes()

    code = main(["--quiet", "evaluate", "--pulse-id", entry.id[:8], "--out", str(out)])
    assert code == 0
    assert (out / f"evaluate-{entry.id}-c3.json").read_bytes() == first

    code = main(
        ["--quiet", "evaluate", "--pulse-id", entry.id, "--cutoff", "5", "--out", str(out)]
    )
    assert code == 0
    document = json.loads((out / f"evaluate-{entry.id}-c5.json").read_text())
    assert document["system"]["cutoff"] == 5
    assert len(document["modulus"]) == 10
    capsys.readouterr()


def test_evaluate_entry_without_a_field_exits_two_naming_the_file(tmp_path, caplog):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    path = out / "library" / f"{entry.id}.json"
    document = json.loads(path.read_text())
    del document["loss"]
    path.write_text(json.dumps(document))
    code = main(["--quiet", "evaluate", "--pulse-file", str(path), "--out", str(out)])
    assert code == 2
    assert str(path) in caplog.text
    assert "'loss'" in caplog.text


def test_evaluate_requires_a_pulse_reference(tmp_path, capsys):
    # argparse requires one of the two options, for robustness as for evaluate
    for argv in (["evaluate"], ["robustness", "--axis", "phase"]):
        with pytest.raises(SystemExit) as exc:
            main(["--quiet", *argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "one of the arguments --pulse-id --pulse-file is required" in err


def test_design_with_zero_eta_exits_two_naming_eta(tmp_path, caplog):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, system={"cutoff": 3, "eta": 0})
    argv = ["--quiet", "design", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "eta must be positive" in caplog.text


def test_format_option_is_gone(tmp_path, capsys):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--pulse-id", entry.id, "--out", str(out), "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not list(out.glob("evaluate-*"))


@pytest.mark.parametrize("command", ["evaluate", "robustness"])
def test_pulse_id_and_pulse_file_exclude_each_other(tmp_path, capsys, command):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    path = out / "library" / f"{entry.id}.json"
    argv = [command, "--pulse-id", entry.id, "--pulse-file", str(path)]
    argv += ["--axis", "phase"] if command == "robustness" else []
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not list(out.glob(f"{command}-*"))


# Malformed library entries: the change to a stored entry, and the field the
# error must name.
PULSE = {"delta": 1.0, "omega": 0.1, "phi": 0.0, "t": 50.0}
MALFORMED_ENTRIES = {
    "system-unknown-key": ({"system": {"cutof": 3}}, "'cutof'"),
    "system-not-object": ({"system": [1]}, "'system'"),
    "system-with-nu": ({"system": {"cutoff": 3, "nu": 1.0}}, "'nu'"),
    "pulse-unknown-key": ({"pulses": [{**PULSE, "delt": 1.0}]}, "'delt'"),
    "pulse-missing-t": ({"pulses": [{k: v for k, v in PULSE.items() if k != "t"}]}, "'t'"),
    "pulses-not-list": ({"pulses": PULSE}, "pulse records"),
    "loss-null": ({"loss": None}, "loss"),
    "loss-bool": ({"loss": True}, "loss"),
    "meta-not-object": ({"meta": 5}, "'meta'"),
}


@pytest.mark.parametrize(
    "change, field", MALFORMED_ENTRIES.values(), ids=list(MALFORMED_ENTRIES)
)
def test_evaluate_malformed_entry_exits_two_naming_file_and_field(
    tmp_path, caplog, capsys, change, field
):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    path = out / "library" / f"{entry.id}.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    code = main(["--quiet", "evaluate", "--pulse-file", str(path), "--out", str(out)])
    assert code == 2
    assert str(path) in caplog.text
    assert field in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_thermometry_command_with_stored_pulses(tmp_path, capsys):
    out = tmp_path / "runs"
    first = _store_pulse(out, 0, target="shelve(0)")
    second = _store_pulse(out, 1, target="shelve(1)")

    cfg_path = tmp_path / "run.json"
    _write_config(
        cfg_path,
        thermometry={
            "window": [0, 1],
            "truth_cutoff": 15,
            "distribution": {"thermal_nbar": 0.5},
            "pulse_ids": [first.id, second.id],
        },
    )
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    document = json.loads((out / "thermometry.json").read_text())
    assert document["window"] == [0, 1]
    assert len(document["corrected"]) == 2
    coeff = np.array(document["coefficients"])
    corrected = np.array(document["corrected"])
    measured = np.array(document["measured"])
    assert np.allclose(coeff @ corrected, measured, atol=1e-12)
    assert len(document["true"]) == len(document["measured"]) == 2
    assert not list(out.glob("*.csv"))
    capsys.readouterr()


def test_thermometry_identical_pulses_exit_ill_conditioned(tmp_path):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    cfg_path = tmp_path / "run.json"
    _write_config(
        cfg_path,
        thermometry={
            "window": [0, 1],
            "truth_cutoff": 15,
            "distribution": {"thermal_nbar": 0.5},
            "pulse_ids": [entry.id, entry.id],
        },
    )
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(out)])
    assert code == 4


@pytest.mark.parametrize(
    "stored, field",
    [
        (SystemConfig(eta=0.3, cutoff=3), "eta=0.3"),
        (SystemConfig(cutoff=3, fock_offset=1), "fock_offset=1"),
    ],
)
def test_thermometry_refuses_pulses_stored_for_another_system(
    tmp_path, caplog, stored, field
):
    # A pulse is read out in the config's system, so one designed for another
    # eta or Fock window would be scored for a system it was not made for;
    # the run must stop before it reads anything out.
    out = tmp_path / "runs"
    first = _store_pulse(out, 0, target="shelve(0)", system=stored)
    second = _store_pulse(out, 1, target="shelve(1)", system=stored)
    cfg_path = tmp_path / "run.json"
    _write_config(
        cfg_path,
        thermometry={
            "window": [0, 1],
            "truth_cutoff": 15,
            "distribution": {"thermal_nbar": 0.5},
            "pulse_ids": [first.id, second.id],
        },
    )
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert first.id in caplog.text and field in caplog.text
    assert not (out / "thermometry.json").exists()


@pytest.mark.parametrize("pulse_ids", ["4b", 4, [1, 2], {"a": "b"}])
def test_thermometry_pulse_ids_must_be_a_list_of_strings(tmp_path, caplog, pulse_ids):
    out = tmp_path / "runs"
    cfg_path = tmp_path / "run.json"
    _write_config(
        cfg_path,
        thermometry={
            "window": [0, 1],
            "truth_cutoff": 15,
            "distribution": {"thermal_nbar": 0.5},
            "pulse_ids": pulse_ids,
        },
    )
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert "'pulse_ids' must be a list of strings" in caplog.text


def test_thermometry_pulse_id_that_is_not_hex_exits_two(tmp_path, caplog):
    out = tmp_path / "runs"
    _store_pulse(out, 0)  # an empty id must not resolve to the sole entry
    cfg_path = tmp_path / "run.json"
    _write_config(
        cfg_path,
        thermometry={
            "window": [0],
            "truth_cutoff": 15,
            "distribution": {"thermal_nbar": 0.5},
            "pulse_ids": [""],
        },
    )
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert "1 to 16 lowercase hex digits" in caplog.text


def test_thermometry_bad_distribution_exits_two(tmp_path):
    out = tmp_path / "runs"
    cfg_path = tmp_path / "run.json"
    _write_config(
        cfg_path,
        thermometry={
            "window": [0, 1],
            "truth_cutoff": 15,
            "distribution": {"populations": [0.5, 0.2]},
        },
    )
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2


def test_thermometry_command_designs_without_pulse_ids(tmp_path, capsys):
    # a tiny budget: the point is the design stage's path, not its quality
    out = tmp_path / "runs"
    cfg_path = tmp_path / "run.json"
    _write_config(
        cfg_path,
        pso={"particles": 8, "iterations": 2, "seed": 1},
        refine={"max_iters": 2},
        thermometry=THERMOMETRY,
    )
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    document = json.loads((out / "thermometry.json").read_text())
    assert len(document["design_losses"]) == len(document["pulses"]) == 2
    assert np.all(np.isfinite(document["design_losses"]))
    capsys.readouterr()


def test_thermometry_requires_section(tmp_path):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)  # no thermometry block
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2


def test_robustness_command_writes_sweep(tmp_path, capsys):
    out = tmp_path / "runs"
    # a carrier pi pulse on |g,0>, whose Rabi rate is omega * exp(-eta^2 / 2)
    carrier_pi = np.pi / (0.1 * np.exp(-0.084**2 / 2))
    entry = PulseLibraryEntry(
        system=SystemConfig(cutoff=3),
        target="shelve(0)",
        pulse=CompositePulse(
            pulses=(PulseParams(delta=0.0, omega=0.1, phi=0.0, t=carrier_pi),)
        ),
        loss=0.0,
        meta={},
    )
    save_entry(entry, out / "library")
    code = main(
        [
            "--quiet",
            "robustness",
            "--pulse-id",
            entry.id,
            "--axis",
            "duration",
            "--range",
            "-5",
            "5",
            "--points",
            "11",
            "--probe",
            "excitation",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert not list(out.glob("*.csv"))
    document = json.loads((out / f"robustness-{entry.id}-duration.json").read_text())
    assert document["offsets"] == np.linspace(-5, 5, 11).tolist()
    assert len(document["probabilities"]) == 11
    assert document["microseconds_per_unit"] == pytest.approx(1.0 / (2 * np.pi))
    probabilities = np.array(document["probabilities"])
    assert np.all(probabilities >= 0) and np.all(probabilities <= 1)
    out_text = capsys.readouterr().out
    assert "probability at the offset nearest 0 (0): " in out_text
    # the excitation falls below 0.99 between offsets 2 and 3, on both sides
    assert "widest window with probability >= 0.99: [-2, 2]" in out_text


def _robustness(out, entry, *extra) -> int:
    return main(
        ["--quiet", "robustness", "--pulse-id", entry.id, "--range", "-5", "5"]
        + ["--points", "11", "--out", str(out), *extra]
    )


def test_robustness_names_the_offset_nearest_zero(tmp_path, capsys):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    # four points on [-1, 1] are -1, -1/3, 1/3 and 1: none of them is 0
    extra = ("--axis", "phase", "--range", "-1", "1", "--points", "4")
    assert _robustness(out, entry, *extra) == 0
    document = json.loads((out / f"robustness-{entry.id}-phase.json").read_text())
    # rounding puts the grid's 1/3 a hair nearer 0 than its -1/3
    assert abs(document["offsets"][2]) < abs(document["offsets"][1])
    value = document["probabilities"][2]
    assert f"probability at the offset nearest 0 (0.3333): {value:.4f}" in (
        capsys.readouterr().out
    )


def test_robustness_which_sweeps_one_pulse(tmp_path):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    assert _robustness(out, entry, "--axis", "duration", "--which", "1") == 0
    document = json.loads((out / f"robustness-{entry.id}-duration.json").read_text())
    assert document["which"] == 1
    spec = SweepSpec(axis="duration", lower=-5.0, upper=5.0, points=11, which=1)
    expected = sweep(entry.system, entry.pulse, spec, TransitionProbe(fock=0))
    assert document["probabilities"] == expected.probabilities.tolist()


@pytest.mark.parametrize(
    "which, axis", [("0", "phase"), ("9", "duration"), ("x", "duration")]
)
def test_robustness_bad_which_exits_two(tmp_path, which, axis):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    assert _robustness(out, entry, "--axis", axis, "--which", which) == 2


@pytest.mark.parametrize("which", ["x", "1.0"])
def test_robustness_which_not_an_index_names_the_option(tmp_path, caplog, which):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    assert _robustness(out, entry, "--axis", "duration", "--which", which) == 2
    assert "--which must be 'all' or a pulse index" in caplog.text


@pytest.mark.parametrize(
    "axis, edge", [("duration", 125.66), ("phase", np.pi / 2)]
)
def test_robustness_default_range(tmp_path, axis, edge):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    argv = ["--quiet", "robustness", "--pulse-id", entry.id, "--axis", axis]
    assert main(argv + ["--points", "5", "--out", str(out)]) == 0
    document = json.loads((out / f"robustness-{entry.id}-{axis}.json").read_text())
    assert document["offsets"][0] == -edge and document["offsets"][-1] == edge


@pytest.mark.parametrize(
    "block, misspelled",
    [
        ("system", {"cutof": 3}),
        ("pso", {"particle": 8}),
        # retired knobs: the swarm coefficients and the gradient step are constants
        ("pso", {"inertia": 0.7}),
        ("refine", {"gradient_step": 1e-6}),
    ],
)
def test_misspelled_config_key_exits_two(tmp_path, caplog, block, misspelled):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, **{block: misspelled})
    with pytest.raises(ValueError, match=f"'{block}' block"):
        RunConfig.load(cfg_path)
    code = main(["--quiet", "design", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert f"'{block}' block" in caplog.text


@pytest.mark.parametrize(
    "block, bad",
    [
        ("pso", {"seed": "1"}),
        ("pso", {"particles": 8.5}),
        ("pso", {"iterations": True}),
        ("refine", {"max_iters": 10.0}),
    ],
)
def test_non_integer_count_or_seed_exits_two(tmp_path, caplog, block, bad):
    cfg_path = tmp_path / "run.json"
    doc = _write_config(cfg_path)
    _write_config(cfg_path, **{block: {**doc[block], **bad}})
    code = main(["--quiet", "design", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert "must be an integer" in caplog.text


THERMOMETRY = {
    "window": [0, 1],
    "truth_cutoff": 15,
    "distribution": {"thermal_nbar": 0.5},
}

# Bad values in the thermometry block: every command that reads the config
# rejects them, before any design.  The test below runs each one under
# design; the first four run under thermometry among its first cases, the
# rest at its end.
BAD_THERMOMETRY_BLOCKS = [
    ({"truth_cutoff": 15.5}, "truth_cutoff must be an integer"),
    ({"distribution": 5}, "'distribution' must be an object"),
    ({"distribution": {"populations": 0.5}}, "'populations' must be a list"),
    ({"distribution": {"thermal_nbar": "nan"}}, "nbar must be a number"),
    ({"truth_cutoff": "abc"}, "truth_cutoff must be an integer"),
    ({"truth_cutoff": 1}, "truth_cutoff must be >= 2"),
    ({"pulse_ids": 4}, "'pulse_ids' must be a list of strings"),
    ({"pulse_ids": ["3F"]}, "1 to 16 lowercase hex digits"),
]


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("design", {"pulse_count": 3.9}, "pulse_count must be an integer"),
        ("design", {"starts": 2.7}, "starts must be an integer"),
        ("design", {"refine_top": True}, "refine_top must be an integer"),
        ("design", {"loss_threshold": "nan"}, "loss_threshold must be a number"),
        ("design", {"loss_threshold": float("inf")}, "loss_threshold must be finite"),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "truth_cutoff": 15.5}},
            "truth_cutoff must be an integer",
        ),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "window": [0, 1.5]}},
            "window state must be an integer",
        ),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "window": [0, True]}},
            "window state must be an integer",
        ),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "window": 5}},
            "window must be a list of states",
        ),
        ("design", {"system": {"cutoff": 3.5}}, "cutoff must be an integer"),
        (
            "design",
            {"system": {"cutoff": 3, "fock_offset": 1.5}},
            "fock_offset must be an integer",
        ),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "distribution": 5}},
            "'distribution' must be an object",
        ),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "distribution": {"populations": 0.5}}},
            "'populations' must be a list",
        ),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "distribution": {"thermal_nbar": "nan"}}},
            "nbar must be a number",
        ),
        ("design", {"loss_threshold": "0.5"}, "loss_threshold must be a number"),
        ("design", {"loss_threshold": True}, "loss_threshold must be a number"),
        ("design", {"target": 5}, "unknown target preset 5"),
        *[
            ("design", {"thermometry": {**THERMOMETRY, **change}}, message)
            for change, message in BAD_THERMOMETRY_BLOCKS
        ],
        *[
            ("thermometry", {"thermometry": {**THERMOMETRY, **change}}, message)
            for change, message in BAD_THERMOMETRY_BLOCKS[4:]
        ],
    ],
)
def test_non_integer_count_or_non_finite_threshold_exits_two(
    tmp_path, caplog, command, overrides, message
):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, **overrides)
    out = tmp_path / "runs"
    code = main(["--quiet", command, "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert message in caplog.text


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("design", {"pulse_cont": 6}, "pulse_cont"),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "truth_cutof": 20}},
            "truth_cutof",
        ),
        (
            "thermometry",
            {
                "thermometry": {
                    **THERMOMETRY,
                    "distribution": {"populations": [0.3, 0.4, 0.3], "first_fok": 5},
                }
            },
            "first_fok",
        ),
    ],
)
def test_unknown_key_at_any_level_exits_two(tmp_path, caplog, command, overrides, key):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, **overrides)
    out = tmp_path / "runs"
    code = main(["--quiet", command, "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert "unknown keys in" in caplog.text and repr(key) in caplog.text


def test_config_must_hold_an_object(tmp_path, caplog):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps([_write_config(cfg_path)]))
    with pytest.raises(ValueError, match="must hold a JSON object"):
        RunConfig.load(cfg_path)
    argv = ["--quiet", "design", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "must hold a JSON object" in caplog.text


def test_config_rejects_a_mode_frequency(tmp_path, caplog):
    # nu is the unit of every rate and time, so a config cannot set it
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, system={"cutoff": 3, "nu": 1.0})
    argv = ["--quiet", "design", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "unknown keys in 'system' block: 'nu'" in caplog.text


def test_overrides_meet_the_config_checks(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)
    rc = RunConfig.load(cfg_path, cutoff=4, seed=7)
    assert rc.system.cutoff == 4 and rc.pso.seed == 7
    assert rc.target_spec.modulus.shape == (8, 8)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RunConfig.load(cfg_path, seed=-1)
    with pytest.raises(ValueError, match="cutoff must be >= 2"):
        RunConfig.load(cfg_path, cutoff=1)
    _write_config(cfg_path, target="swap(2)")  # needs cutoff 4
    with pytest.raises(ValueError, match="swap needs fock"):
        RunConfig.load(cfg_path)
    assert RunConfig.load(cfg_path, cutoff=4).target == "swap(2)"
    out = tmp_path / "runs"
    argv = ["--quiet", "design", "--config", str(cfg_path), "--out", str(out)]
    overrides = ["--cutoff", "4", "--seed", "7"]
    for block in ("system", "pso"):
        _write_config(cfg_path, **{block: 5})
        with pytest.raises(ValueError, match=f"'{block}' block must be an object"):
            RunConfig.load(cfg_path, cutoff=4, seed=7)
        assert main(argv) == main(argv + overrides) == 2

    _write_config(cfg_path)
    assert main(argv + overrides) == 0
    (entry,) = (out / "library").glob("*.json")
    stored = json.loads(entry.read_text())
    assert stored["system"]["cutoff"] == 4
    assert stored["meta"]["pso"]["seed"] == 7
    capsys.readouterr()


def test_design_logs_progress_through_logging(tmp_path, caplog, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)
    with caplog.at_level(logging.INFO, logger="fockpulse"):
        code = main(["design", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
    assert code == 0
    refined = [r for r in caplog.records if "refine done after" in r.getMessage()]
    assert [r.name for r in refined] == ["fockpulse.optimizer"]
    assert "refine done after" not in capsys.readouterr().out


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_line_names_exactly_the_parser_flags():
    section = README.read_text().split("## Command line\n")[1].split("\n## ")[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = cli.build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    actions = parser._actions + [
        a for p in commands.choices.values() for a in p._actions
    ]
    flags = {o for a in actions for o in a.option_strings if o.startswith("--")}
    assert documented == flags - {"--help"}


def _readme_config() -> dict:
    """The one JSON config example in README.md."""
    (example,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return json.loads(example)


def _misspellings(doc: dict):
    """(key path, copy of ``doc`` with that key's last letter dropped), for
    every key at every level."""
    for key, value in doc.items():
        yield key, {**{k: v for k, v in doc.items() if k != key}, key[:-1]: value}
        if isinstance(value, dict):
            for path, inner in _misspellings(value):
                yield f"{key}.{path}", {**doc, key: inner}


def test_readme_config_example_is_valid():
    doc = _readme_config()
    rc = read_record(RunConfig, "config", doc)
    assert len(rc.template) == doc["pulse_count"]
    assert len(rc.thermometry.distribution) == doc["thermometry"]["truth_cutoff"]


@pytest.mark.parametrize(
    "doc", [pytest.param(doc, id=path) for path, doc in _misspellings(_readme_config())]
)
def test_readme_config_with_a_misspelled_key_exits_two(tmp_path, monkeypatch, doc):
    designed = []

    def record(*args, **kwargs):
        designed.append(args)
        raise AssertionError("a pulse was designed")

    monkeypatch.setattr(cli, "design_pulse", record)
    monkeypatch.setattr(thermometry, "design_pulse", record)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "runs"
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert designed == []


# Run in a fresh interpreter: prints the scipy modules loaded after each stage.
_SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import fockpulse, fockpulse.cli
seen = {"import": scipy_modules()}
out, pulse_id, config = sys.argv[1:]
for argv in (
    ["evaluate", "--pulse-id", pulse_id, "--out", out],
    ["robustness", "--pulse-id", pulse_id, "--axis", "phase", "--points", "5",
     "--out", out],
    ["thermometry", "--config", config, "--out", out],
):
    assert fockpulse.cli.main(["--quiet", *argv]) == 0, argv
    seen[argv[0]] = scipy_modules()
cfg = fockpulse.SystemConfig(cutoff=3)
fockpulse.refine(
    cfg,
    fockpulse.uniform_pulse_train(3, delta=1.0, omega=0.1),
    fockpulse.weak_drive_layout(3, eta=cfg.eta, omega=0.1),
    fockpulse.swap_target(3, 0),
    fockpulse.RefineConfig(max_iters=2),
)
seen["refine"] = scipy_modules()
print(json.dumps(seen))
"""


def test_only_refine_loads_scipy(tmp_path):
    # Importing the package, evaluating, sweeping and reading out with stored
    # pulses never optimize, so none of them may pay for importing scipy.
    out = tmp_path / "runs"
    first = _store_pulse(out, 0, target="shelve(0)")
    second = _store_pulse(out, 1, target="shelve(1)")
    cfg_path = tmp_path / "run.json"
    _write_config(
        cfg_path,
        thermometry={
            "window": [0, 1],
            "truth_cutoff": 15,
            "distribution": {"thermal_nbar": 0.5},
            "pulse_ids": [first.id, second.id],
        },
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(out), first.id, str(cfg_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    for stage in ("import", "evaluate", "robustness", "thermometry"):
        assert seen[stage] == [], stage
    assert "scipy.optimize" in seen["refine"]
