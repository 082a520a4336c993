"""Every named fault of ``faults.FAULTS`` makes reduced-budget ``verify-all``
fail with exactly its pinned failures, in-process and through the command
line under ``python -O``, and leaves nothing behind in the module caches."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ellhall.cli import RunConfig, emit_report, make_report
from faults import FAULTS, verify_all

TESTS = Path(__file__).resolve().parent
BUDGETS = sorted({fault.budget for fault in FAULTS.values()})


@pytest.fixture(scope="module", autouse=True)
def optimized():
    """``python -O tests/faults.py``, started first so that it runs beside
    the in-process pass."""
    proc = subprocess.Popen(
        [sys.executable, "-O", str(TESTS / "faults.py")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={"PYTHONPATH": str(TESTS.parent / "src"), "PATH": "/usr/bin:/bin"})
    yield proc
    proc.kill()
    proc.communicate()


@pytest.fixture(scope="module")
def runs():
    """The results of every fault in one process, then of the unfaulted
    run at each budget of the table."""
    faulty = {name: verify_all(name, fault.budget) for name, fault in FAULTS.items()}
    clean = {budget: verify_all(None, budget) for budget in BUDGETS}
    return faulty, clean


@pytest.mark.parametrize("name", FAULTS)
def test_fault_fails_its_checks(runs, name):
    faulty, clean = runs
    fault = FAULTS[name]
    before = {r.name: r.detail for r in clean[fault.budget]}
    got = {r.name: {k: v for k, v in r.detail.items() if before[r.name].get(k) != v}
           for r in faulty[name] if r.status == "fail"}
    # a None pin matches whatever value the check reports
    want = {check: {k: got.get(check, {}).get(k) if v is None else v
                    for k, v in pins.items()}
            for check, pins in fault.fails.items()}
    assert got == want


def test_no_value_outlives_its_fault(runs):
    # the unfaulted runs come after the whole table: none fails, and
    # budget 2 renders to the byte as the committed report
    _, clean = runs
    assert {r.status for results in clean.values() for r in results} <= {"pass", "skip"}
    config = RunConfig(budget_degree=2, out_format="json")
    out = io.StringIO()
    emit_report(make_report("verify-all", config, clean[2]), config.out_format, out)
    assert out.getvalue() == (TESTS / "data" / "verify_all_budget2.json").read_text()


def test_catch_matrix_under_optimize(optimized):
    out, err = optimized.communicate(timeout=600)
    assert optimized.returncode == 0, err
    want = {name: {"fails": sorted(fault.fails), "exit_code": 1}
            for name, fault in FAULTS.items()}
    want["none"] = {"fails": [], "exit_code": 0}
    assert json.loads(out) == want
