"""The benchmark workloads: their inputs, one op each, and the check applied
to every op's output. BENCHMARK.json names the ones the benchmark gates on;
swap-chain is defined here too and runs the same way (see README.md).

An op is one call into repcheck's public API. A check that fails, or an op
that raises, counts as a failed op. Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
from fractions import Fraction

# sha256 of the bytes `repcheck classify --json --out PATH` writes.
CLASSIFY_SHA256 = "cc1976bfa2019cdd270592b131f54349fa6fe2f1cf7ad62f974c5e777ee8362f"
REALIZABLE = ["K4_1234", "D4_125"]

# verify.ALL_CHECKS, in order.
VERIFY_CHECK_NAMES = (
    "group-tables",
    "character-tables",
    "multiplicity-sweep",
    "conjugation-steps",
    "classification",
    "brute-force-oracle",
    "tsirelson",
    "teleport",
    "povm",
    "entanglement-swap",
    "iterate-swap",
    "cocycle",
    "correction-group",
    "matrix-vs-table-conjugation",
    "hs-unitarity",
    "partial-trace-identity",
    "pvm-counting",
    "negative-control",
)

SWAP_ROUNDS = 1000
# outcome label -> correction label, as quantum.standard_corrections pins them
SWAP_CORRECTIONS = {
    "b0": "I", "b1": "X", "b2": "Y", "b3": "Z",
    "a0": "S", "a1": "SX", "a2": "SY", "a3": "SZ",
}
_EIGHTH = {"num": "1", "den": "8"}
_TSIRELSON_JSON = {"coeffs": [{"num": n, "den": "1"} for n in ("0", "2", "0", "-2")]}

# fresh-states amplitudes are a + b*i with a, b = num/den, the domain of the
# CLI's --state flag and of verify's random states
AMP_NUM = 9
AMP_DEN = 9


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-AMP_NUM, AMP_NUM), rng.randint(1, AMP_DEN))


class _CliOp:
    """An op that runs `repcheck <argv> --out PATH` and checks the file."""

    def __init__(self, workdir: str):
        self.cli = importlib.import_module("repcheck.cli")
        self.out = os.path.join(workdir, f"out-{os.getpid()}")

    def make_input(self, rng: random.Random):
        return None

    def argv(self, inp) -> list[str]:
        raise NotImplementedError

    def run(self, inp):
        return self.cli.main(self.argv(inp) + ["--out", self.out])

    def clear(self) -> None:
        # a stale file from the previous op must never pass the next check
        if os.path.exists(self.out):
            os.remove(self.out)

    def read(self) -> bytes:
        with open(self.out, "rb") as fh:
            return fh.read()


class ClassifyOp(_CliOp):
    def argv(self, inp) -> list[str]:
        return ["classify", "--json"]

    def check(self, inp, rc) -> bool:
        return rc == 0 and check_classify_bytes(self.read())


def check_classify_bytes(data: bytes) -> bool:
    if hashlib.sha256(data).hexdigest() != CLASSIFY_SHA256:
        return False
    return json.loads(data)["realizable"] == REALIZABLE


class SwapChainOp(_CliOp):
    def make_input(self, rng: random.Random) -> int:
        return rng.randrange(2**31)

    def argv(self, seed: int) -> list[str]:
        return ["simulate-swap", "--rounds", str(SWAP_ROUNDS), "--seed", str(seed), "--json"]

    def check(self, seed: int, rc) -> bool:
        return rc == 0 and check_swap_chain_bytes(self.read(), seed)


def check_swap_chain_bytes(data: bytes, seed: int) -> bool:
    doc = json.loads(data)
    rounds = doc["rounds"]
    if doc["seed"] != seed or len(rounds) != SWAP_ROUNDS:
        return False
    for i, r in enumerate(rounds):
        if (
            r["round"] != i + 1
            or r["probability"] != _EIGHTH
            or r["chsh"] != _TSIRELSON_JSON
            or SWAP_CORRECTIONS.get(r["outcome"]) != r["correction_label"]
        ):
            return False
    return True


class VerifyAllOp(_CliOp):
    def argv(self, inp) -> list[str]:
        return ["verify-all"]

    def check(self, inp, rc) -> bool:
        return rc == 0 and check_verify_all_text(self.read().decode("utf-8"))


def check_verify_all_text(text: str) -> bool:
    lines = text.splitlines()
    n = len(VERIFY_CHECK_NAMES)
    if len(lines) != n + 1 or lines[-1] != f"{n}/{n} checks passed":
        return False
    return all(
        line.startswith(f"ok   {name}: ") for line, name in zip(lines, VERIFY_CHECK_NAMES)
    )


class FreshStatesOp:
    """teleport on a fresh qubit state, then entanglement_swap on a fresh
    two-qubit left state; both miss every cache the program keeps."""

    def __init__(self, workdir: str):
        # attributes are looked up on the modules at call time, so a traced
        # run sees the rebound functions
        self.cyclo = importlib.import_module("repcheck.cyclo")
        self.quantum = importlib.import_module("repcheck.quantum")
        self.inst = None

    def _state(self, rng: random.Random, dim: int):
        while True:
            amps = tuple(
                self.cyclo.CycloNum(rand_fraction(rng), 0, rand_fraction(rng), 0)
                for _ in range(dim)
            )
            if not all(a.is_zero() for a in amps):
                return self.quantum.PureState(amps)

    def make_input(self, rng: random.Random):
        return self._state(rng, 2), self._state(rng, 4)

    def run(self, inp):
        state, left = inp
        q = self.quantum
        if self.inst is None:
            self.inst = q.povm_construction()[1]
        return q.teleport(state), q.entanglement_swap(self.inst, left=left)

    def clear(self) -> None:
        pass

    def check(self, inp, out) -> bool:
        state, left = inp
        tele, swap = out
        return check_teleport(state, tele) and check_swap(self.quantum, left, swap)


def _nonzero_multiple(v, w) -> bool:
    """v = c*w for a non-zero c, by cross-multiplication (w is non-zero)."""
    if all(x.is_zero() for x in v):
        return False
    n = len(w)
    return len(v) == n and all(
        v[i] * w[j] == v[j] * w[i] for i in range(n) for j in range(i + 1, n)
    )


def check_teleport(state, trace) -> bool:
    quarter = Fraction(1, 4)
    return len(trace.outcomes) == 4 and all(
        rec.probability == quarter and _nonzero_multiple(rec.post.vector, state.vector)
        for rec in trace.outcomes
    )


def check_swap(quantum, left, trace) -> bool:
    eighth = Fraction(1, 8)
    chsh_left = quantum.chsh_value(left, quantum.tsirelson_settings())
    return len(trace.outcomes) == 8 and all(
        rec.probability == eighth
        and _nonzero_multiple(rec.post.vector, left.vector)
        and rec.chsh == chsh_left
        for rec in trace.outcomes
    )


OPS = {
    "classify": ClassifyOp,
    "swap-chain": SwapChainOp,
    "fresh-states": FreshStatesOp,
    "verify-all": VerifyAllOp,
}

# warm ops every timed child runs
MIN_WARM_OPS = {"classify": 4, "swap-chain": 2, "fresh-states": 50, "verify-all": 1}
# (untraced, traced) warm op pairs a traced child runs
TRACE_PAIRS = {"classify": 8, "swap-chain": 3, "fresh-states": 50, "verify-all": 3}
