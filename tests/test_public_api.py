"""The package exports exactly the names its modules declare public, and the
README's Python example runs as written."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import numpy as np
import pytest

import fockpulse
from fockpulse import (
    cli,
    fockspace,
    library,
    objective,
    optimizer,
    pulses,
    robustness,
    thermometry,
)

MODULES = (fockspace, library, objective, optimizer, pulses, robustness, thermometry)

RETIRED = (
    "train_unitaries",
    "ideal_sideband_propagator",
    "number_operator",
    "list_entries",
    "ladder_operators",
    "train_states",
    "ThermometryError",
    "profiles_to_coefficients",
    "robust_loss",
    "shared_drive",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_declared_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_no_name_is_declared_twice():
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}


def test_package_exports_the_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert sorted(fockpulse.__all__) == sorted(union)
    assert all(hasattr(fockpulse, name) for name in fockpulse.__all__)


def test_retired_names_are_gone():
    for name in RETIRED:
        assert not hasattr(fockpulse, name)
        assert all(not hasattr(module, name) for module in MODULES)
    assert not hasattr(pulses.ParamLayout, "slot_names")
    assert not hasattr(robustness.OffsetEnsemble, "members")
    assert not hasattr(objective.TargetSpec, "dim")
    assert not hasattr(cli, "DesignFailure")
    assert not hasattr(robustness.SweepResult, "points")
    # outside JSON becomes a record in one place, fockspace.read_record
    assert not hasattr(cli, "_object") and not hasattr(cli, "_config_block")
    # the conjugate displacement (the old ``sign=-1``) is no longer offered
    assert list(inspect.signature(fockspace.displacement_exponential).parameters) == [
        "cfg"
    ]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    section = README.read_text().split("## Python API\n")[1].split("\n## ")[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(example, namespace)
    loss, *rows = out.getvalue().splitlines()
    assert float(loss) == namespace["result"].loss < 0.5
    # it prints the modulus of a swap of |g,0> and |e,1>
    modulus = np.array([float(v) for v in re.findall(r"[\d.]+", " ".join(rows))])
    modulus = modulus.reshape(6, 6)
    assert min(modulus[0, 4], modulus[4, 0]) >= 0.99
