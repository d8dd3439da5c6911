"""End-to-end tests for the command-line interface."""

import json
import logging

import numpy as np
import pytest

from fockpulse import (
    CompositePulse,
    PulseParams,
    SystemConfig,
    save_entry,
    shelving_target,
)
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


def _store_pulse(out_dir, k: float, target="shelve(0)") -> PulseLibraryEntry:
    entry = PulseLibraryEntry(
        system=SystemConfig(cutoff=3),
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
    assert rc.omega == 0.1
    assert rc.layout().dim == 5  # three durations plus two relative phases

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
        ({"thermal_nbar": "nan"}, "nbar must be finite"),
        ({"thermal_nbar": float("inf")}, "nbar must be finite"),
        ({"thermal_nbar": None}, "thermal_nbar must be a number"),
        ({"populations": [float("nan"), 1.0]}, "populations must be finite"),
        ({"populations": [0.5, None]}, "population must be a number"),
        ({"populations": 0.5}, "'populations' must be a list"),
        (5, "'distribution' must be an object"),
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
    assert (out / f"design-{pulse_id}.csv").exists()
    document = json.loads((out / f"design-{pulse_id}.json").read_text())
    assert len(document["modulus"]) == 6
    assert len(document["pulses"]) == 3
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
    first = (out / f"evaluate-{entry.id}-c3.csv").read_bytes()

    code = main(["--quiet", "evaluate", "--pulse-id", entry.id[:8], "--out", str(out)])
    assert code == 0
    assert (out / f"evaluate-{entry.id}-c3.csv").read_bytes() == first

    code = main(
        ["--quiet", "evaluate", "--pulse-id", entry.id, "--cutoff", "5", "--out", str(out)]
    )
    assert code == 0
    document = json.loads((out / f"evaluate-{entry.id}-c5.json").read_text())
    assert document["system"]["cutoff"] == 5
    assert len(document["modulus"]) == 10
    capsys.readouterr()


def test_evaluate_requires_a_pulse_reference(tmp_path):
    code = main(["--quiet", "evaluate", "--out", str(tmp_path)])
    assert code == 2


def test_format_json_skips_csv(tmp_path, capsys):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
    code = main(
        [
            "--quiet",
            "evaluate",
            "--pulse-id",
            entry.id,
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    assert not (out / f"evaluate-{entry.id}-c3.csv").exists()
    assert (out / f"evaluate-{entry.id}-c3.json").exists()
    capsys.readouterr()


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
    lines = (out / "thermometry.csv").read_text().splitlines()
    assert lines[0] == "fock,true,measured,corrected"
    assert len(lines) == 3
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


def test_thermometry_requires_section(tmp_path):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)  # no thermometry block
    code = main(["--quiet", "thermometry", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2


def test_robustness_command_writes_sweep(tmp_path, capsys):
    out = tmp_path / "runs"
    entry = _store_pulse(out, 0)
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
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / f"robustness-{entry.id}-duration.csv").read_text().splitlines()
    assert lines[0] == "offset,probability"
    assert len(lines) == 12
    document = json.loads((out / f"robustness-{entry.id}-duration.json").read_text())
    assert document["microseconds_per_unit"] == pytest.approx(1.0 / (2 * np.pi))
    probabilities = np.array(document["probabilities"])
    assert np.all(probabilities >= 0) and np.all(probabilities <= 1)
    out_text = capsys.readouterr().out
    assert "probability at zero offset" in out_text
    assert "0.99" in out_text  # the >= 0.99 window (or its absence) is reported


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


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("design", {"pulse_count": 3.9}, "pulse_count must be an integer"),
        ("design", {"starts": 2.7}, "starts must be an integer"),
        ("design", {"refine_top": True}, "refine_top must be an integer"),
        ("design", {"loss_threshold": "nan"}, "loss_threshold must be finite"),
        ("design", {"loss_threshold": float("inf")}, "loss_threshold must be finite"),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "truth_cutoff": 15.5}},
            "truth_cutoff must be an integer",
        ),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "window": [0, 1.5]}},
            "window entry must be an integer",
        ),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "window": [0, True]}},
            "window entry must be an integer",
        ),
        (
            "thermometry",
            {"thermometry": {**THERMOMETRY, "window": 5}},
            "nonempty 'window' list",
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
            "nbar must be finite",
        ),
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


def test_design_logs_progress_through_logging(tmp_path, caplog, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path)
    with caplog.at_level(logging.INFO, logger="fockpulse"):
        code = main(["design", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
    assert code == 0
    refined = [r for r in caplog.records if "refine done after" in r.getMessage()]
    assert [r.name for r in refined] == ["fockpulse.optimizer"]
    assert "refine done after" not in capsys.readouterr().out
