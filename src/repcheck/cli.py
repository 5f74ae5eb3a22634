"""Command-line interface.

Subcommands: classify, show-group, show-table, simulate-teleport,
simulate-swap, verify-all.  JSON is the stable machine format (selected via
--json or REPCHECK_OUTPUT=json); text output is human-oriented.  All output
is deterministic for fixed flags.  Bad outside input (a flag value, the
REPCHECK_OUTPUT variable, an unwritable --out path) exits 2 with an
`error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

# the simulate-* and verify-all handlers import quantum and verify themselves,
# so classify, show-group and show-table load only these
from . import characters, classify, cyclo, groups

if TYPE_CHECKING:
    from .quantum import PureState


# decimal exponents beyond this are refused: Fraction("1e999999999") would
# build a billion-digit power of ten
_MAX_EXPONENT = 1000

# simulate-swap keeps every round and the whole payload in memory
MAX_ROUNDS = 100_000

_OUTPUT_FORMATS = ("", "text", "json")


class BadInput(Exception):
    """Outside input the CLI refuses; main() turns it into exit 2."""


def _frac_json(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _cyclo_json(x: cyclo.CycloNum) -> dict:
    return {"coeffs": [_frac_json(c) for c in x.coeffs]}


def _dump(payload: str, out_path: Optional[str]) -> None:
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise BadInput(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
    else:
        print(payload, flush=True)  # a closed stdout shows here, not at exit


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.json:
        payload = json.dumps(classify.full_report(), indent=2, sort_keys=True)
    else:
        payload = classify.report_text()
    _dump(payload, args.out)
    return 0


def _cmd_show_group(args: argparse.Namespace) -> int:
    _dump(groups.builtin_group(args.name).dump(), args.out)
    return 0


def _cmd_show_table(args: argparse.Namespace) -> int:
    g = groups.builtin_group(args.name)
    t = characters.char_table(g)
    cc = groups.conjugacy_classes(g)
    if args.json:
        doc = {
            "group": g.name,
            "labels": list(t.labels),
            "values": [
                [[_frac_json(c) for c in v.coeffs] for v in chi.values]
                for chi in t.irreducibles
            ],
        }
        payload = json.dumps(doc, indent=2, sort_keys=True)
    else:
        heads = [g.word(r) for r in cc.representatives]
        cells = [[str(v) for v in chi.values] for chi in t.irreducibles]
        width = max(
            [len(h) for h in heads]
            + [len(c) for row in cells for c in row]
            + [len(lbl) for lbl in t.labels]
        )
        lines = [f"character table {g.name}"]
        lines.append(" ".join([" " * width] + [h.rjust(width) for h in heads]))
        for lbl, row in zip(t.labels, cells):
            lines.append(" ".join([lbl.rjust(width)] + [c.rjust(width) for c in row]))
        payload = "\n".join(lines)
    _dump(payload, args.out)
    return 0


def _parse_rational(text: str) -> Fraction:
    _, e, exp = text.lower().partition("e")
    try:
        too_big = bool(e) and abs(int(exp)) > _MAX_EXPONENT
    except ValueError:
        too_big = False  # not a decimal exponent; Fraction rejects it below
    if too_big:
        raise ValueError(f"exponent of {text!r} is beyond +-{_MAX_EXPONENT}")
    q = Fraction(text)
    # a longer integer cannot be printed: str() refuses it (0 means no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(abs(q.numerator), q.denominator) >= 10 ** limit:
        raise ValueError(f"a numerator or denominator has more than {limit} digits")
    return q


def _parse_state(text: str) -> PureState:
    from . import quantum

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("expected 4 comma-separated rationals: re0,im0,re1,im1")
    re0, im0, re1, im1 = (_parse_rational(p) for p in parts)
    return quantum.PureState((cyclo.CycloNum(re0, 0, im0, 0), cyclo.CycloNum(re1, 0, im1, 0)))


def _cmd_simulate_teleport(args: argparse.Namespace) -> int:
    from . import quantum

    try:
        state = _parse_state(args.state)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInput(f"bad --state: {exc}") from exc
    if state.is_zero():
        raise BadInput("--state must be non-zero")
    trace = quantum.teleport(state)
    if args.json:
        doc = {
            "input": [_cyclo_json(a) for a in state.vector],
            "outcomes": [
                {
                    "outcome": rec.label,
                    "probability": _frac_json(rec.probability),
                    "correction_label": rec.correction_label,
                    "chsh": None,
                    "restored_scalar": _cyclo_json(rec.post.proportional_to(state)),
                }
                for rec in trace.outcomes
            ],
        }
        payload = json.dumps(doc, indent=2, sort_keys=True)
    else:
        lines = [f"teleporting ({state.vector[0]}, {state.vector[1]})"]
        for rec in trace.outcomes:
            scalar = rec.post.proportional_to(state)
            lines.append(
                f"outcome {rec.label}  probability {rec.probability}  "
                f"correction {rec.correction_label}  output = ({scalar}) * input"
            )
        payload = "\n".join(lines)
    _dump(payload, args.out)
    return 0


def _cmd_simulate_swap(args: argparse.Namespace) -> int:
    from . import quantum

    if args.rounds < 1:
        raise BadInput("--rounds must be >= 1")
    if args.rounds > MAX_ROUNDS:
        raise BadInput(f"--rounds must be <= {MAX_ROUNDS}")
    _, inst = quantum.povm_construction()
    detailed = quantum.iterate_swap_detailed(args.rounds, seed=args.seed, inst=inst)
    if args.json:
        doc = {
            "rounds": [
                {
                    "round": i + 1,
                    "outcome": rec.label,
                    "probability": _frac_json(rec.probability),
                    "correction_label": rec.correction_label,
                    "chsh": _cyclo_json(rec.chsh),
                }
                for i, rec in enumerate(detailed)
            ],
            "seed": args.seed,
        }
        payload = json.dumps(doc, indent=2, sort_keys=True)
    else:
        lines = []
        for i, rec in enumerate(detailed):
            lines.append(
                f"round {i + 1}  outcome {rec.label}  probability {rec.probability}  "
                f"correction {rec.correction_label}  chsh {rec.chsh} "
                f"({rec.chsh.to_complex().real:.12f})"
            )
        payload = "\n".join(lines)
    _dump(payload, args.out)
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    from . import verify

    results = verify.run_all()
    lines = []
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        lines.append(f"{mark} {r.name}: {r.detail}")
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    _dump("\n".join(lines), args.out)
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repcheck",
        description=(
            "Exact check of which teleportation-stable families are quantum-"
            "realizable, with exact simulators for the two positive protocols."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify all seven families")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--out", metavar="PATH", default=None, help="write output to a file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("show-group", help="dump a built-in group's multiplication table")
    p.add_argument("name", choices=groups.BUILTIN_NAMES)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(fn=_cmd_show_group)

    p = sub.add_parser("show-table", help="print a built-in character table")
    p.add_argument("name", choices=groups.BUILTIN_NAMES)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(fn=_cmd_show_table)

    p = sub.add_parser("simulate-teleport", help="teleport a single-qubit state exactly")
    p.add_argument(
        "--state",
        default="1,0,0,0",
        metavar="re0,im0,re1,im1",
        help="amplitudes as 4 rationals (default |0>)",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(fn=_cmd_simulate_teleport)

    p = sub.add_parser("simulate-swap", help="run chained entanglement swaps exactly")
    p.add_argument("--rounds", type=int, default=1,
                   help=f"number of chained swaps, 1 to {MAX_ROUNDS} (default 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for outcome selection (default: round-robin)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(fn=_cmd_simulate_swap)

    p = sub.add_parser("verify-all", help="run the whole verification battery")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(fn=_cmd_verify_all)

    return parser


# warm-only: a process reads it once; repeated in-process main() calls read it again
@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on its first call.  parse_args keeps no
    state between calls, so in-process callers pay its construction once."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # checked for every subcommand, before any work
        env = os.environ.get("REPCHECK_OUTPUT", "").lower()
        if env not in _OUTPUT_FORMATS:
            raise BadInput(
                f"REPCHECK_OUTPUT must be unset, empty, 'text' or 'json', not {env!r}"
            )
        args.json = getattr(args, "json", False) or env == "json"
        return args.fn(args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # stdout failed (_dump raises BadInput for --out): a closed reader is
        # silent; then point stdout at devnull so the flush at exit cannot
        # fail again ("Note on SIGPIPE" in Python's signal docs)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
