"""CLI behaviour: formats, determinism, exit codes, fault detection."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repcheck import characters, classify, cli, groups, quantum, verify
from repcheck.characters import _RAW_TABLES
from repcheck.classify import classify_all

SRC = str(Path(cli.__file__).resolve().parents[1])


def run_python(*argv, timeout=60):
    """Run a fresh interpreter that imports repcheck from this source tree."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=timeout,
    )


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_text_ends_with_realizable_line(capsys):
    code, out = run_cli(capsys, "classify")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "realizable: K4_1234, D4_125"


def test_classify_json_schema(capsys):
    code, out = run_cli(capsys, "classify", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["realizable"] == ["K4_1234", "D4_125"]
    entry = doc["families"][0]
    assert set(entry) == {
        "family", "dimension", "realizable", "witness", "obstructions",
        "chi_conj_decomposition",
    }


def test_classify_json_is_byte_identical_across_runs(capsys):
    _, first = run_cli(capsys, "classify", "--json")
    _, second = run_cli(capsys, "classify", "--json")
    assert first == second


def test_env_var_switches_default_format(capsys, monkeypatch):
    monkeypatch.setenv("REPCHECK_OUTPUT", "json")
    code, out = run_cli(capsys, "classify")
    assert code == 0
    assert json.loads(out)["realizable"] == ["K4_1234", "D4_125"]


def test_show_group_header_and_rows(capsys):
    code, out = run_cli(capsys, "show-group", "D4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group D4 order 8"
    assert len(lines) == 9


def test_show_group_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["show-group", "Q8"])
    assert exc.value.code == 2


def test_show_table_text(capsys):
    code, out = run_cli(capsys, "show-table", "D4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "character table D4"
    assert lines[1].split() == ["e", "r", "r2", "s", "rs"]
    assert lines[6].split() == ["chi5", "2", "0", "-2", "0", "0"]


def test_show_table_json_coefficient_tuples(capsys):
    code, out = run_cli(capsys, "show-table", "D8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "D8"
    assert doc["labels"][4] == "chiE1"
    # chiE1 at the class of z is sqrt2 = zeta - zeta^3
    value = doc["values"][4][1]
    assert value == [
        {"num": "0", "den": "1"},
        {"num": "1", "den": "1"},
        {"num": "0", "den": "1"},
        {"num": "-1", "den": "1"},
    ]


def test_simulate_teleport_default_state(capsys):
    code, out = run_cli(capsys, "simulate-teleport")
    assert code == 0
    assert out.count("probability 1/4") == 4


def test_simulate_teleport_custom_state_json(capsys):
    code, out = run_cli(capsys, "simulate-teleport", "--state", "1/2,0,1/3,-1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["outcomes"]) == 4
    for rec in doc["outcomes"]:
        assert rec["probability"] == {"num": "1", "den": "4"}
        assert rec["chsh"] is None


def test_simulate_teleport_rejects_bad_state(capsys):
    code, _ = run_cli(capsys, "simulate-teleport", "--state", "1,2,3")
    assert code == 2
    code, _ = run_cli(capsys, "simulate-teleport", "--state", "0,0,0,0")
    assert code == 2


def test_a_zero_denominator_in_the_state_is_named(capsys):
    code = cli.main(["simulate-teleport", "--state", "1/0,0,0,0"])
    assert code == 2
    assert capsys.readouterr().err == "error: bad --state: zero denominator in '1/0'\n"


def test_simulate_swap_json(capsys):
    code, out = run_cli(capsys, "simulate-swap", "--rounds", "2", "--seed", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rounds"]) == 2
    for entry in doc["rounds"]:
        assert entry["probability"] == {"num": "1", "den": "8"}
        coeffs = entry["chsh"]["coeffs"]
        assert coeffs == [
            {"num": "0", "den": "1"},
            {"num": "2", "den": "1"},
            {"num": "0", "den": "1"},
            {"num": "-2", "den": "1"},
        ]


def test_simulate_swap_deterministic_for_fixed_flags(capsys):
    _, first = run_cli(capsys, "simulate-swap", "--rounds", "4", "--seed", "9", "--json")
    _, second = run_cli(capsys, "simulate-swap", "--rounds", "4", "--seed", "9", "--json")
    assert first == second


def test_simulate_swap_rejects_bad_rounds(capsys):
    code, _ = run_cli(capsys, "simulate-swap", "--rounds", "0")
    assert code == 2


def test_rounds_above_the_cap_are_refused_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("simulate-swap started work on a refused --rounds")

    monkeypatch.setattr(quantum, "povm_construction", no_work)
    monkeypatch.setattr(quantum, "iterate_swap_detailed", no_work)
    code = cli.main(["simulate-swap", "--rounds", str(cli.MAX_ROUNDS + 1)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --rounds must be <= {cli.MAX_ROUNDS}\n"


def test_rounds_at_the_cap_reach_the_simulator(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(quantum, "iterate_swap_detailed",
                        lambda rounds, seed, inst: seen.append(rounds) or [])
    assert cli.main(["simulate-swap", "--rounds", str(cli.MAX_ROUNDS)]) == 0
    assert seen == [cli.MAX_ROUNDS]


def test_swap_help_states_the_rounds_cap(capsys):
    with pytest.raises(SystemExit):
        cli.main(["simulate-swap", "--help"])
    assert f"1 to {cli.MAX_ROUNDS}" in " ".join(capsys.readouterr().out.split())


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run_cli(capsys, "classify", "--json", "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["realizable"] == ["K4_1234", "D4_125"]


# sha256 of each pinned output, in `sha256sum` format: one list for these
# tests and for CI's `sha256sum -c` in each interpreter mode. A refactor of
# the classifier or the battery must leave every one of them unchanged.
_PINNED_LINES = (Path(__file__).parent / "pinned_outputs.sha256").read_text().splitlines()
PINNED = {name: digest for digest, name in (line.split("  ") for line in _PINNED_LINES)}
CLASSIFY_JSON_SHA256 = PINNED["classify.json"]
CLASSIFY_TEXT_SHA256 = PINNED["classify.txt"]
VERIFY_ALL_SHA256 = PINNED["verify-all.txt"]
# simulate-swap --rounds 1000 --seed 7 --json
SIMULATE_SWAP_JSON_SHA256 = PINNED["swap.json"]
# simulate-teleport --state 1,2,-3,1/2 --json
SIMULATE_TELEPORT_JSON_SHA256 = PINNED["teleport.json"]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_output_bytes_are_pinned(capsys, tmp_path):
    path = tmp_path / "report.json"
    assert run_cli(capsys, "classify", "--json", "--out", str(path)) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CLASSIFY_JSON_SHA256
    code, out = run_cli(capsys, "classify")
    assert code == 0 and _sha256(out) == CLASSIFY_TEXT_SHA256
    code, out = run_cli(capsys, "verify-all")
    assert code == 0 and _sha256(out) == VERIFY_ALL_SHA256, out
    code, out = run_cli(capsys, "simulate-swap", "--rounds", "1000", "--seed", "7", "--json")
    assert code == 0 and _sha256(out) == SIMULATE_SWAP_JSON_SHA256
    code, out = run_cli(capsys, "simulate-teleport", "--state", "1,2,-3,1/2", "--json")
    assert code == 0 and _sha256(out) == SIMULATE_TELEPORT_JSON_SHA256


# show-table (text and --json) and show-group for every group, the same
# under PYTHONHASHSEED 0 and 1
SHOW_SHA256 = {
    argv: PINNED[f"{argv[0]}-{argv[1]}.{'json' if '--json' in argv else 'txt'}"]
    for g in ("K4", "Z4", "D4", "D8", "Pauli1")
    for argv in (("show-table", g), ("show-table", g, "--json"), ("show-group", g))
}


def test_the_pinned_list_names_each_of_the_20_outputs_once():
    assert len(_PINNED_LINES) == len(PINNED) == 20
    assert all(len(digest) == 64 for digest in PINNED.values())


@pytest.mark.parametrize("argv", list(SHOW_SHA256), ids=" ".join)
def test_show_bytes_are_pinned(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0 and _sha256(out) == SHOW_SHA256[argv]


def test_one_parser_serves_every_call_like_a_fresh_one(capsys):
    """main() reuses one parser; no flag or exit code may carry over."""
    def call(argv, fresh=False):
        if fresh:
            cli._parser.cache_clear()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    calls = [("classify", "--json"), ("classify",), ("simulate-swap", "--rounds", "0"),
             ("verify-all",), ("classify", "--bogus")]
    expected = {argv: call(argv, fresh=True) for argv in calls}
    assert expected[("classify",)][1] != expected[("classify", "--json")][1]
    assert expected[("simulate-swap", "--rounds", "0")] == (
        2, "", "error: --rounds must be >= 1\n")
    assert expected[("classify", "--bogus")][0] == 2
    assert cli.build_parser() is not cli.build_parser()
    for argv in calls + calls[::-1]:
        assert call(argv) == expected[argv], argv


def test_verify_all_passes_on_correct_build(capsys):
    code, out = run_cli(capsys, "verify-all")
    assert code == 0
    assert "FAIL" not in out
    assert out.rstrip().splitlines()[-1].endswith("checks passed")


def test_verify_all_catches_injected_table_fault(capsys, monkeypatch):
    labels, rows = _RAW_TABLES["D4"]
    bad_rows = tuple(row if i != 4 else (2, 0, -2, 0, 1) for i, row in enumerate(rows))
    monkeypatch.setitem(_RAW_TABLES, "D4", (labels, bad_rows))
    code, out = run_cli(capsys, "verify-all")
    assert code == 1
    assert "FAIL character-tables" in out


def test_verify_all_catches_table_fault_after_warm_caches(capsys, monkeypatch):
    run_cli(capsys, "verify-all")
    classify_all()
    labels, rows = _RAW_TABLES["D4"]
    bad_rows = tuple(row if i != 4 else (2, 0, -2, 0, 1) for i, row in enumerate(rows))
    monkeypatch.setitem(_RAW_TABLES, "D4", (labels, bad_rows))
    code, out = run_cli(capsys, "verify-all")
    assert code == 1
    assert "FAIL character-tables" in out
    # the memos are keyed on table content, so checks that read D4's table
    # load it again, and its verification refuses it there too
    assert "FAIL multiplicity-sweep" in out
    assert "FAIL brute-force-oracle" in out


def test_the_multiplicity_check_runs_each_polarization_vector(monkeypatch):
    """The detail counts the vectors the check ran; a combination that adds
    each character once fails at 2 e_1, where m1 = 1, not 4."""
    assert verify._check_multiplicity_sweep() == (
        "m1 = sum n_i^2 on the 20 characters sum n_i chi_i with n = e_i, e_i + e_j or 2 e_i; "
        "the first 15 fix the quadratic form m1(n), so it holds at every degree (m1 hits 1, 2, 4)")

    def once_each(chars, ns):
        return characters.combination(chars, [min(n, 1) for n in ns])

    monkeypatch.setattr(verify, "combination", once_each)
    with pytest.raises(verify.CheckFailed) as info:
        verify._check_multiplicity_sweep()
    assert str(info.value) == "m1 at n = (2, 0, 0, 0, 0) is 1, expected sum n_i^2 = 4"


def test_the_oracle_proves_the_non_trivial_class_on_the_sum(capsys, monkeypatch):
    """A combination that drops the second character of a sum fails
    brute-force-oracle at n = (1, 1): chiE1 + chiE3 has m1 = 2, chiE1 has 1."""
    def drop_second(chars, ns):
        first = next(i for i, n in enumerate(ns) if n)
        return characters.combination(chars, [n if i == first else 0 for i, n in enumerate(ns)])

    monkeypatch.setattr(verify, "combination", drop_second)
    code, out = run_cli(capsys, "verify-all")
    assert code == 1
    assert "FAIL brute-force-oracle: CheckFailed: m1 at n = (1, 1) is 1, expected sum n_i^2 = 2\n" in out


def test_swapped_d4_rows_fail_the_oracle_by_the_family_they_hit(capsys, monkeypatch):
    """D4's chi2 and chi3 rows swapped still form a verified table, but the
    family named D4_135 then has the target that chiE1 and chiE3 hit."""
    labels, rows = _RAW_TABLES["D4"]
    monkeypatch.setitem(_RAW_TABLES, "D4", (labels, (rows[0], rows[2], rows[1]) + rows[3:]))
    code, out = run_cli(capsys, "verify-all")
    assert code == 1
    assert ("FAIL brute-force-oracle: CheckFailed: matched families ['D4_135', 'K4_1234'], "
            "expected ['D4_125', 'K4_1234']\n") in out


def test_verify_all_runs_under_optimize_flag():
    proc = run_python("-O", "-m", "repcheck.cli", "verify-all")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1] == "18/18 checks passed"


def test_a_broken_pinned_fact_fails_its_check_under_optimize_flag():
    proc = run_python(
        "-O", "-c",
        "from repcheck import cyclo, verify; verify.TSIRELSON = cyclo.ONE; "
        "verify._check_tsirelson()",
    )
    assert proc.returncode == 1
    assert "repcheck.verify.CheckFailed" in proc.stderr


def _assert_refused(capsys, code):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["classify"], ["show-group", "K4"], ["show-table", "D4"], ["simulate-teleport"],
    ["simulate-swap"], ["verify-all"],
])
def test_out_to_missing_directory_is_refused(capsys, tmp_path, command):
    code = cli.main([*command, "--out", str(tmp_path / "missing" / "x")])
    _assert_refused(capsys, code)


def test_an_empty_out_path_is_refused_not_read_as_stdout(capsys):
    code = cli.main(["classify", "--out", ""])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out : ")


def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # 3000 rounds print about 250 kB, far beyond a 64 KiB pipe buffer, so
    # a write meets the closed read end
    with open(tmp_path / "err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repcheck.cli", "simulate-swap", "--rounds", "3000"],
            stdout=subprocess.PIPE, stderr=err, env=dict(os.environ, PYTHONPATH=SRC),
        )
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in (tmp_path / "err").read_text()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [
    ["classify"], ["verify-all"], ["show-table", "D4"], ["simulate-swap"], ["simulate-teleport"],
], ids=" ".join)
def test_a_full_stdout_exits_1_with_an_error_line(command):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "repcheck.cli", *command], stdout=full,
            stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_huge_state_exponent_is_refused_without_hanging():
    proc = run_python(
        "-m", "repcheck.cli", "simulate-teleport", "--state", "1e999999999,0,0,0", timeout=30
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: bad --state: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_a_state_too_long_to_print_is_refused(capsys, fmt):
    # within the exponent bound, but 5000 digits: str() of the value would raise
    code = cli.main(["simulate-teleport", "--state", "9" * 4000 + "e1000,0,0,0", *fmt])
    _assert_refused(capsys, code)


def test_state_accepts_fractions_decimals_and_small_exponents(capsys):
    code, out = run_cli(capsys, "simulate-teleport", "--state", "1/2,0.5,-3,1e3")
    assert code == 0
    assert out.splitlines()[0] == "teleporting (1/2 + (1/2)i, -3 + 1000i)"


@pytest.mark.parametrize("value", ["", "text", "TEXT"])
def test_text_output_formats_are_accepted(capsys, monkeypatch, value):
    monkeypatch.setenv("REPCHECK_OUTPUT", value)
    code, out = run_cli(capsys, "classify")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "realizable: K4_1234, D4_125"


@pytest.mark.parametrize("command", [
    ["classify"], ["show-group", "K4"], ["show-table", "D4"], ["simulate-teleport"],
    ["simulate-swap"], ["verify-all"],
], ids=lambda command: command[0])
def test_unknown_output_format_is_refused(capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command[0]} started work under a refused REPCHECK_OUTPUT")

    # every subcommand refuses before it builds a report, a table or a
    # protocol; verify-all before it runs any check
    for module, name in ((classify, "full_report"), (classify, "report_text"),
                         (groups, "builtin_group"), (characters, "char_table"),
                         (quantum, "teleport"), (quantum, "povm_construction"),
                         (quantum, "iterate_swap_detailed"), (verify, "run_all")):
        monkeypatch.setattr(module, name, no_work)
    monkeypatch.setenv("REPCHECK_OUTPUT", "xml")
    _assert_refused(capsys, cli.main(command))
