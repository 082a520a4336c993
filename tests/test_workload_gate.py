"""Exactness gate of the benchmark workloads: one in-process pass each of
``assoc-triples`` and ``relation-sweep`` (the straightening engine over
Q[s^+-1, sb^+-1]) and of ``curve-side`` (point counts, Hall numbers,
Hecke, L-functions, Green pairs and the rank certificate over
Q(zeta_M)[u]) fails no op and hashes to its digest in
``perfbench/reference.json``.

``perfbench/`` is only read: its workload module is loaded from its path,
with no bytecode written next to it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name", ["assoc-triples", "relation-sweep", "curve-side"])
def test_pass_matches_reference(workloads, name):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    results, failed = [], []
    for label, fn in workloads.permute(workloads.build(name), name, 1234, 0):
        ok, payload = fn()
        if not ok:
            failed.append(label)
        results.append((label, payload))
    assert failed == []
    assert workloads.digest(results) == reference[name]
