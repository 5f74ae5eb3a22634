"""Tests of the benchmark itself: its output checks, its negative controls
and the traced run's counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _cli_output(tmp_path: Path, *argv: str) -> bytes:
    from repcheck import cli

    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


# ----------------------------------------------------------------------
# output checks, on real outputs and on corrupted ones


def test_classify_check_accepts_seed_output_and_rejects_flipped_verdict(tmp_path):
    data = _cli_output(tmp_path, "classify", "--json")
    assert workloads.check_classify_bytes(data)
    doc = json.loads(data)
    doc["families"][1]["realizable"] = True
    flipped = json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"
    assert not workloads.check_classify_bytes(flipped)


def test_swap_chain_check_rejects_wrong_probability_and_chsh(tmp_path):
    data = _cli_output(tmp_path, "simulate-swap", "--rounds", "1000", "--seed", "5", "--json")
    assert workloads.check_swap_chain_bytes(data, 5)
    assert not workloads.check_swap_chain_bytes(data, 6)
    for field, bad in (("probability", {"num": "1", "den": "4"}),
                       ("chsh", {"coeffs": [{"num": "0", "den": "1"}] * 4}),
                       ("correction_label", "Q")):
        doc = json.loads(data)
        doc["rounds"][500][field] = bad
        assert not workloads.check_swap_chain_bytes(json.dumps(doc).encode(), 5), field


def test_verify_all_check_rejects_a_failed_or_missing_check():
    n = len(workloads.VERIFY_CHECK_NAMES)
    lines = [f"ok   {name}: detail" for name in workloads.VERIFY_CHECK_NAMES]
    good = "\n".join(lines + [f"{n}/{n} checks passed"]) + "\n"
    assert workloads.check_verify_all_text(good)
    failed = good.replace("ok   cocycle:", "FAIL cocycle:")
    assert not workloads.check_verify_all_text(failed)
    assert not workloads.check_verify_all_text("\n".join(lines[1:] + [f"{n}/{n} checks passed"]))


def test_fresh_states_check_rejects_wrong_probability():
    import random
    from dataclasses import replace

    op = workloads.FreshStatesOp(".")
    inp = op.make_input(random.Random(3))
    tele, swap = op.run(inp)
    assert op.check(inp, (tele, swap))
    bad_rec = replace(swap.outcomes[2], probability=Fraction(1, 4))
    bad_swap = replace(swap, outcomes=swap.outcomes[:2] + (bad_rec,) + swap.outcomes[3:])
    assert not op.check(inp, (tele, bad_swap))
    bad_rec = replace(tele.outcomes[0], probability=Fraction(1, 3))
    bad_tele = replace(tele, outcomes=(bad_rec,) + tele.outcomes[1:])
    assert not op.check(inp, (bad_tele, swap))


# ----------------------------------------------------------------------
# end to end: a broken program must show as failed ops


def _bench_copy(tmp_path: Path, with_src: bool = True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _corrupt(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


def _run(root: Path, workload: str, seconds: str, trace: str = "0"):
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", trace],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("workload, module, old, new", [
    ("fresh-states", "quantum.py",
     "        prob = vec_norm_sq(v) / total\n",
     "        prob = vec_norm_sq(v) / (2 * total)\n"),
    ("classify", "classify.py",
     '"realizable": v.realizable,', '"realizable": not v.realizable,'),
])
def test_negative_control_counts_failed_ops(tmp_path, workload, module, old, new):
    root = _bench_copy(tmp_path)
    _corrupt(root / "src" / "repcheck" / module, old, new)
    info, result = _result(_run(root, workload, "1"))
    assert result["correct"] is False
    assert result["failed"] > 0 and info["error_rate"] > 0
    assert result["failed"] == result["attempted"]


def test_run_fails_without_the_program(tmp_path):
    root = _bench_copy(tmp_path, with_src=False)
    proc = _run(root, "fresh-states", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# the traced run


def _traced_child(tmp_path: Path, workload: str, name: str) -> dict:
    result = tmp_path / f"{name}.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ROOT), workload, "1", "0", "0", "1",
         str(result)],
        check=True, timeout=170, env={"PYTHONHASHSEED": "1"},
    )
    return json.loads(result.read_text())


def test_traced_counts_repeat_exactly_and_match_the_seed_figures(tmp_path):
    first = _traced_child(tmp_path, "classify", "a")
    second = _traced_child(tmp_path, "classify", "b")
    assert first["op_calls"] == second["op_calls"]
    assert not first["failures"]
    per_op = [c["characters.char_table_calls"] for c in first["op_calls"]]
    assert per_op == [39] + [33] * workloads.TRACE_PAIRS["classify"]
    assert first["layers"]["characters.char_table_calls"] == 33
    assert first["layers"]["quantum.swap_hit_ratio"] == 0.0

    verify = _traced_child(tmp_path, "verify-all", "v")
    assert not verify["failures"]
    assert verify["op_calls"][1]["characters.char_table_calls"] == 111
    # swap-chain is not gated: verify-all's iterate-swap check carries the cache-hit path
    assert verify["layers"]["quantum.swap_hit_ratio"] > 0


def test_uninstall_restores_the_program():
    import importlib

    from tracer import Tracer

    cli = importlib.import_module("repcheck.cli")
    cyclo = importlib.import_module("repcheck.cyclo")
    verify = importlib.import_module("repcheck.verify")
    before = (cli.main, cyclo.CycloNum.__mul__, verify.ALL_CHECKS)
    tracer = Tracer()
    for _ in range(2):
        tracer.install()
        assert cyclo.CycloNum.__mul__ is not before[1]
        tracer.uninstall()
        assert (cli.main, cyclo.CycloNum.__mul__, verify.ALL_CHECKS) == before


def test_traced_fresh_states_misses_every_swap(tmp_path):
    first = _traced_child(tmp_path, "fresh-states", "a")
    second = _traced_child(tmp_path, "fresh-states", "b")
    assert first["op_calls"] == second["op_calls"]
    layers = first["layers"]
    assert layers["quantum.swap_hit_ratio"] == 0.0
    assert layers["quantum.swap_miss_ms"] > 0
    assert layers["characters.char_table_calls"] == 0


def test_traced_run_reports_the_metrics_benchmark_json_lists(tmp_path):
    root = _bench_copy(tmp_path)
    info, result = _result(_run(root, "fresh-states", "1", trace="1"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert info["trace_pairs"] == workloads.TRACE_PAIRS["fresh-states"]
    assert result["attempted"] == 1 + 2 * info["trace_pairs"]
