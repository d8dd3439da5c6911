"""Shared fixtures: the acceptance report and a disk cache for designed pulses.

Pulse design is deterministic but slow (up to about a minute per multi-start
search), so acceptance tests cache designed pulses under ``tests/_cache``
keyed by a hash of every input that influences the search.  The entries are
committed fixtures; deleting one forces its re-design, and they are plain JSON
and safe to inspect.
"""

from __future__ import annotations

import os

# One BLAS thread: the kernels work on small matrices, where thread start-up
# costs more than it saves.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from fockpulse import (  # noqa: E402
    CompositePulse,
    OffsetEnsemble,
    PsoConfig,
    RefineConfig,
    SystemConfig,
    composite_unitary,
    design_pulse,
    modulus_loss,
    robust_loss,
)
from fockpulse import optimizer  # noqa: E402

CACHE_DIR = Path(__file__).parent / "_cache"

# criterion number -> (status, detail); populated by tests/test_acceptance.py
_ACCEPTANCE: dict[int, tuple[str, str]] = {}


def record_acceptance(criterion: int, passed: bool, detail: str) -> None:
    _ACCEPTANCE[criterion] = ("PASS" if passed else "FAIL", detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_ACCEPTANCE):
        status, detail = _ACCEPTANCE[criterion]
        terminalreporter.write_line(f"criterion {criterion}: {status} ({detail})")


def _design_key(
    cfg: SystemConfig,
    target_label: str,
    pulse_count: int,
    omega: float,
    layout_kind: str,
    pcfg: PsoConfig,
    rcfg: RefineConfig,
    starts: int,
    refine_top: int,
    ensemble: OffsetEnsemble | None,
) -> str:
    fields = {
        "system": dataclasses.asdict(cfg),
        "target": target_label,
        "pulse_count": pulse_count,
        "omega": omega,
        "layout": layout_kind,
        # The swarm coefficients and the gradient step are constants of the
        # optimizer; hashing them keeps the keys of the designs made when they
        # were config fields, and retires those designs if a constant changes.
        "pso": {
            **dataclasses.asdict(pcfg),
            "inertia": optimizer._INERTIA,
            "cognitive": optimizer._COGNITIVE,
            "social": optimizer._SOCIAL,
        },
        "refine": {
            **dataclasses.asdict(rcfg),
            "gradient_step": optimizer._GRADIENT_STEP,
        },
        "starts": starts,
        "refine_top": refine_top,
    }
    # Hashed only when given, so the keys of nominal designs do not depend on it.
    if ensemble is not None:
        fields["ensemble"] = dataclasses.asdict(ensemble)
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cached_design(
    cfg: SystemConfig,
    template: CompositePulse,
    layout,
    target,
    target_label: str,
    pcfg: PsoConfig,
    rcfg: RefineConfig,
    *,
    starts: int,
    refine_top: int,
    layout_kind: str,
    ensemble: OffsetEnsemble | None = None,
) -> tuple[CompositePulse, float]:
    """Run (or reload) a deterministic design; returns (pulse, loss).

    The pulse is always the one stored on disk, and its loss is recomputed
    from it with the current code (``robust_loss`` when an ensemble is given),
    so a stored number is never trusted.  ``target_label`` must name the
    target uniquely: the key hashes the label, not the target's arrays.
    """
    omega = template[0].omega
    key = _design_key(
        cfg,
        target_label,
        len(template),
        omega,
        layout_kind,
        pcfg,
        rcfg,
        starts,
        refine_top,
        ensemble,
    )
    path = CACHE_DIR / f"{key}.json"
    if not path.exists():
        result = design_pulse(
            cfg,
            template,
            layout,
            target,
            pcfg,
            rcfg,
            starts=starts,
            refine_top=refine_top,
            ensemble=ensemble,
        )
        CACHE_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(
                {"pulses": result.pulse.to_dicts(), "loss": result.loss},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    pulse = CompositePulse.from_dicts(json.loads(path.read_text())["pulses"])
    if ensemble is not None:
        return pulse, robust_loss(cfg, pulse, target, ensemble)
    return pulse, modulus_loss(composite_unitary(cfg, pulse), target)


@pytest.fixture(scope="session")
def design_cache():
    return cached_design


@pytest.fixture(scope="session")
def acceptance():
    return record_acceptance
