"""The benchmark's output checks agree with the program.

``perfbench/workloads.py`` pins what each benchmark op must produce: the
classify report's digest and verdicts, the names of the verify-all checks
and the standard correction labels.  The benchmark counts an op whose output
differs as failed, so a change that moves one of these facts passes every
other Tier-1 test and is then refused by the benchmark.  These tests fail
first.  The file is read, never imported, so no bytecode is written beside
it.
"""

import types
from pathlib import Path

import pytest

from repcheck.classify import full_report
from repcheck.quantum import standard_corrections
from repcheck.verify import ALL_CHECKS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads() -> types.ModuleType:
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("benchmark_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_the_classify_digest_is_the_pinned_one(workloads):
    lines = (ROOT / "tests" / "pinned_outputs.sha256").read_text(encoding="utf-8").splitlines()
    pinned = {name: digest for digest, name in (line.split() for line in lines)}
    assert workloads.CLASSIFY_SHA256 == pinned["classify.json"]


def test_the_verify_check_names_are_the_battery_in_order(workloads):
    assert workloads.VERIFY_CHECK_NAMES == tuple(name for name, _ in ALL_CHECKS)


def test_the_swap_corrections_are_the_standard_labels(workloads):
    assert workloads.SWAP_CORRECTIONS == {lbl: cl for lbl, (cl, _) in standard_corrections().items()}


def test_the_realizable_families_are_the_report_s(workloads):
    assert workloads.REALIZABLE == full_report()["realizable"]
