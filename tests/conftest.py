"""Shared test setup: one BLAS thread and the acceptance report.

The acceptance tests design every pulse they check with the current code on
each run; no designed pulse is stored between runs.
"""

from __future__ import annotations

import os

# One BLAS thread: the kernels work on small matrices, where thread start-up
# costs more than it saves.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

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


@pytest.fixture(scope="session")
def acceptance():
    return record_acceptance
