"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fockpulse  # noqa: E402
from fockpulse import optimizer, thermometry  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds aa [2, 3]) and b [5, 6].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    own = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0])
    assert own.sum() == pytest.approx(10.0)


def _stub_design(pulse: fockpulse.CompositePulse, loss: float):
    def design_pulse(**kwargs):
        return optimizer.OptimizationResult(pulse=pulse, loss=loss, evaluations=1)

    return design_pulse


def test_wrong_pulse_counts_as_failed_op(monkeypatch):
    workload = workloads.build("design-weak-c3")
    workload.loss_bar = 2.0  # the analytic pulse is far from the optimum
    good = fockpulse.analytic_swap_parameters(workload.cfg.eta, 0.1)
    true_loss = fockpulse.modulus_loss(
        fockpulse.composite_unitary(workload.cfg, good), workload.target
    )
    wrong = fockpulse.CompositePulse(
        (good[0], replace(good[1], phi=good[1].phi + 0.5), good[2])
    )

    monkeypatch.setattr(optimizer, "design_pulse", _stub_design(good, true_loss))
    [ok] = run.run_loop(workload, seed=0, seconds=0.0)
    assert ok["failure"] is None and ok["facts"]["loss"] == true_loss

    monkeypatch.setattr(optimizer, "design_pulse", _stub_design(wrong, true_loss))
    [bad] = run.run_loop(workload, seed=0, seconds=0.0)
    assert "reference" in bad["failure"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_changes_design_seeds_and_nothing_else(name):
    workload = workloads.build(name)
    for i in range(4):
        a, b = workload.op(7, i), workload.op(1000, i)
        if isinstance(workload, workloads.DesignWorkload):
            assert (a.kwargs["pcfg"].seed, b.kwargs["pcfg"].seed) == (7 + i, 1000 + i)
            b.kwargs["pcfg"] = replace(b.kwargs["pcfg"], seed=7 + i)
        assert a.kwargs == b.kwargs


def _bound_objects() -> dict[tuple[int, str], object]:
    return {
        (id(owner), attr): vars(owner)[attr]
        for sites in tracing.call_sites().values()
        for owner, attr in sites
    }


def test_patching_is_undone_after_traced_calls():
    before = _bound_objects()
    tr = tracing.Tracer()
    cfg = fockpulse.SystemConfig(cutoff=3)
    cp = fockpulse.uniform_pulse_train(2, delta=1.0, omega=0.1)
    tr.begin_op()
    with tr.installed():
        assert _bound_objects() != before
        thermometry.composite_unitary(cfg, cp)
    with pytest.raises(ValueError), tr.installed():
        thermometry.coefficient_matrix(cfg, [cp], [5])  # state 5 is above the cutoff
    assert _bound_objects() == before
    metrics = tr.layer_metrics(ops=1)
    assert metrics["fockspace.propagate.calls"] == 4
    assert metrics["fockspace.propagate.calls.d6"] == 4
    assert metrics["thermometry.coefficient_matrix.errors"] == 1
    assert tr.missing == []


def _run_main(argv: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    declared = {
        m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[section]
    }
    result = _run_main(
        ["--workload", "sweep-c10", "--seconds", "0", "--trace", str(trace)]
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == declared
