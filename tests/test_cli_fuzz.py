"""Fuzzing of the CLI's outside input through cli.main.

Every input must end in exit 0, or in exit 2 with an `error:` line on
stderr; nothing but SystemExit (argparse refusing a flag) may escape.  The
examples are derandomized, so the suite runs the same inputs every time.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings, strategies as st

from repcheck import cli

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# short runs, and runs near and beyond the 4300 digits str() prints by default
_SHORT = st.text("0123456789", min_size=1, max_size=8)
_DIGITS = st.one_of(_SHORT, st.integers(3200, 4400).map(lambda n: "9" * n))
_SIGN = st.sampled_from(["", "-", "+", " "])
_NUMBER = st.one_of(
    st.builds(
        lambda sign, mantissa, fraction, exponent: sign + mantissa + fraction + exponent,
        _SIGN,
        _DIGITS,
        st.one_of(st.just(""), _DIGITS.map(".".__add__)),
        st.one_of(st.just(""), st.integers(-1000, 1000).map("e{}".format)),
    ),
    st.builds(lambda sign, num, den: f"{sign}{num}/{den}", _SIGN, _DIGITS, _SHORT),
)
_PIECE = st.one_of(_NUMBER, st.text("0123456789+-/.e ", max_size=12))
# mostly four numbers, so that the value reaches the protocol and the printer
_STATE = st.one_of(
    st.tuples(_NUMBER, _NUMBER, _NUMBER, _NUMBER), st.tuples(_PIECE, _PIECE, _PIECE, _PIECE)
).map(",".join)

# small accepted values or refused ones; a large accepted value would run
_ROUNDS = st.one_of(
    st.integers(-3, 30).map(str),
    st.integers(min_value=cli.MAX_ROUNDS + 1).map(str),
    st.sampled_from(["", "x", "1.5", "0x10", " 3", "+2"]),
)

_OUTPUT = st.one_of(
    st.sampled_from(["", "json", "JSON", "text", "Text"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8),
)


def _run(argv, output=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"REPCHECK_OUTPUT": output}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, output, code, err.getvalue())
    if code == 2:
        assert "error:" in err.getvalue(), (argv, output)
        assert "Traceback" not in err.getvalue()
    return code


@FUZZ
@given(state=_STATE, json=st.booleans())
def test_fuzzed_state_exits_0_or_2(state, json):
    _run(["simulate-teleport", f"--state={state}"] + ["--json"] * json)


@FUZZ
@given(rounds=_ROUNDS, seed=st.integers(), json=st.booleans())
def test_fuzzed_rounds_and_seed_exit_0_or_2(rounds, seed, json):
    _run(["simulate-swap", f"--rounds={rounds}", f"--seed={seed}"] + ["--json"] * json)


@FUZZ
@given(output=_OUTPUT, command=st.sampled_from(
    [["show-group", "K4"], ["show-table", "Z4"], ["simulate-teleport"]]))
def test_fuzzed_output_variable_exits_0_or_2(output, command):
    code = _run(command, output)
    assert (code == 0) == (output.lower() in ("", "text", "json"))
