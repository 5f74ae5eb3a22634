"""Exact simulation of the two positive protocols and their structure checks.

Covers the shared CHSH setup (Tsirelson value 2*sqrt2 as an equality test),
Bell-basis teleportation with Pauli corrections, the eight-outcome POVM
entanglement swap with its Lueders instrument and phase-gate corrections,
and the algebraic cross-checks: the cocycle defect of the S/X pair, the
correction group mod phases, and the conjugation character computed from
matrices instead of character tables.

States are vectors over Q(zeta_8); probabilities are exact rationals.
Qubit 0 is the leftmost tensor factor throughout.

Both protocols make one pair measurement: a bra <w| on the last qubit of
the input and the first qubit of Phi, which is one 2x2 operator B from the
input's last qubit to Phi's last (``_pair_operator``); the result is then
corrected.  Teleport applies B to the qubit, the swap to each half of the
left pair, and neither builds input x Phi.  So the swap takes rank-one
Kraus operators |u><w| only; any other rank raises IncompleteInstrument.
Its plan, built once per instrument and corrections, holds each outcome's
B, <u|u>, correction C and CHSH class: outcomes whose C B lie on one ray
have proportional post states for every left state, so CHSH is evaluated
once per class.  That is exact because CHSH is invariant under a non-zero
scalar c: |c|^2 cancels between <psi|B|psi> and <psi|psi>.  Each outcome's
C B is lambda * 1 (``teleport_scalars``, ``swap_scalars``), so its
probability is fixed and its output lies on the input's ray for every input.

The fixed operators (Paulis, phase gate, Bell basis and its pair
operators, corrections, CHSH settings) are built once at import, and so is
the swap caches' key for the standard corrections: a swap with
``corrections=None`` checks only that they cover the instrument's labels,
while a caller's own table is checked and keyed on every
``entanglement_swap`` call, and once per ``iterate_swap_detailed`` call,
whose rounds are then one swap-cache lookup each, keyed on the state.  The
POVM and its instrument are built and checked once per distinct Bell basis
and phase gate; each Kraus operator is sqrt2 times its effect.

Both matrix groups are tabulated by one builder: the corrections mod
phases, where ``matrices.ray_key`` identifies matrices that are equal up to
a scalar, and the 16 matrices i^k sigma_j, laid out at Pauli1's indices and
compared with its table (derived from sigma_a sigma_b = delta_ab 1 + i
eps_abc sigma_c) entry for entry; it multiplies matrices only for the
generators' columns.  The conjugation character of a matrix assignment is
tr(U x conj U) = |tr U|^2 per element.

Each table is memoized on its name, words, matrices and key, and each
conjugation character on its group and matrices; a changed matrix is new
content, and a refused derivation raises on every call.  The teleport and
swap scalars and the D8 lifts are derived on every call.  Each memo's site
names the command that reads it again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Mapping, Optional, Sequence

from ._record import Record
from .characters import ClassFunction
from .cyclo import (
    CycloNum, I, INV_SQRT2, ONE, SQRT2, ZERO, _require_vector, inner, sqrt_of_fraction,
)
from .groups import (
    GroupHom, GroupTable, _require, _walk, builtin_group, conjugacy_classes, find_isomorphism,
)
from .matrices import ExactMatrix, Vector, outer, proportionality, ray_key


class NotDichotomic(Exception):
    pass


class ZeroState(Exception):
    pass


class IncompleteInstrument(Exception):
    pass


class CocycleMismatch(Exception):
    pass


class NotProjectiveRep(Exception):
    pass


TSIRELSON = CycloNum(0, 2, 0, -2)  # 2*sqrt2 in the zeta basis

PAULI_LABELS = ("I", "X", "Y", "Z")


class PureState(Record):
    """A (possibly unnormalized) state vector over Q(zeta_8)."""

    vector: tuple[CycloNum, ...]

    def __init__(self, vector: Sequence[CycloNum]):
        # a tuple, so a list or generator is read once and the state hashes
        vector = tuple(vector)
        for a in vector:
            if type(a) is not CycloNum:
                raise TypeError(f"state amplitudes must be CycloNum, got {type(a).__name__}")
        self.__dict__["vector"] = vector

    @classmethod
    def _of(cls, vector: Vector) -> PureState:
        """A state from a tuple of CycloNum, unchecked: for vectors the
        package has just computed."""
        state = object.__new__(cls)
        state.__dict__["vector"] = vector
        return state

    @property
    def dim(self) -> int:
        return len(self.vector)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.vector)

    def proportional_to(self, other: PureState) -> "CycloNum | None":
        _require("PureState.proportional_to", other, PureState)
        return proportionality(self.vector, other.vector)


# The fixed operators of both protocols, built once; matrices and states are
# immutable, so every caller can share them.
_EYE2 = ExactMatrix.identity(2)
# keyed by index rather than held in a tuple, so pauli(-1) cannot wrap round
_PAULIS = {
    0: _EYE2,
    1: ExactMatrix([[0, 1], [1, 0]]),
    2: ExactMatrix([[ZERO, -I], [I, ZERO]]),
    3: ExactMatrix([[1, 0], [0, -1]]),
}
_S = ExactMatrix.diag([ONE, I])
_PHI = PureState((INV_SQRT2, ZERO, ZERO, INV_SQRT2))
_BELL_BASIS = tuple(
    PureState(_PAULIS[k].tensor(_EYE2).apply(_PHI.vector)) for k in range(4)
)
_STANDARD_CORRECTIONS = tuple(
    [(f"b{k}", (PAULI_LABELS[k], _PAULIS[k])) for k in range(4)]
    + [(f"a{k}", ("S" if k == 0 else f"S{PAULI_LABELS[k]}", _S @ _PAULIS[k]))
       for k in range(4)]
)


class _Key(tuple):
    """A tuple that keeps its hash: a swap round hashes its key on every
    cache lookup.  It equals, and hashes as, the plain tuple."""

    @cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


def _correction_key(corrections: Mapping[str, tuple[str, ExactMatrix]]) -> tuple:
    """(label, correction label, matrix) per outcome, sorted by label: the
    swap caches' key for a corrections table."""
    return _Key(sorted(((lbl, cl, m) for lbl, (cl, m) in corrections.items()),
                       key=lambda item: item[0]))


# built from 2x2 matrices above, so a swap with corrections=None checks only
# that the table covers the instrument's labels
_STANDARD_TABLE = dict(_STANDARD_CORRECTIONS)
_STANDARD_KEY = _correction_key(_STANDARD_TABLE)


def pauli(k: int) -> ExactMatrix:
    """The Pauli matrix sigma_k, k in 0..3, with i = zeta^2."""
    m = _PAULIS.get(k)
    if m is None:
        raise ValueError(f"pauli index {k} out of range")
    return m


def phase_gate() -> ExactMatrix:
    """S = diag(1, i); S^2 = sigma_z, S^4 = identity."""
    return _S


def bell_state() -> PureState:
    """(|00> + |11>)/sqrt2, exactly normalized (1/sqrt2 is in the field)."""
    return _PHI


_TSIRELSON_SETTINGS = (_PAULIS[3], _PAULIS[1], (_PAULIS[3] + _PAULIS[1]).scale(INV_SQRT2),
                       (_PAULIS[3] - _PAULIS[1]).scale(INV_SQRT2))


def tsirelson_settings() -> tuple[ExactMatrix, ExactMatrix, ExactMatrix, ExactMatrix]:
    """(A0, A1, C0, C1) = (sz, sx, (sz+sx)/sqrt2, (sz-sx)/sqrt2)."""
    return _TSIRELSON_SETTINGS


# read again 5 times in a verify-all process, once in simulate-swap
@lru_cache(maxsize=8)
def _bell_operator(settings: tuple[ExactMatrix, ...]) -> ExactMatrix:
    a0, a1, c0, c1 = settings
    for obs in settings:
        if not obs.is_hermitian() or not (obs @ obs).is_identity():
            raise NotDichotomic("settings must be Hermitian with O^2 = identity")
    return a0.tensor(c0 + c1) + a1.tensor(c0 - c1)


def chsh_value(state: PureState, settings: Sequence[ExactMatrix]) -> CycloNum:
    """<psi| A0 x (C0+C1) + A1 x (C0-C1) |psi> / <psi|psi>, exact."""
    if not isinstance(state, PureState):
        raise TypeError(f"chsh_value needs a PureState, got {type(state).__name__}")
    if state.dim != 4:
        raise ValueError("CHSH needs a two-qubit state")
    if state.is_zero():
        raise ZeroState("CHSH value of the zero vector")
    _require_vector("chsh_value", settings, ExactMatrix)
    if len(settings) != 4:
        raise ValueError(f"chsh_value needs 4 settings, got {len(settings)}")
    bell_op = _bell_operator(tuple(settings))
    num = inner(state.vector, bell_op.apply(state.vector))
    return num * inner(state.vector, state.vector).inverse()


# ----------------------------------------------------------------------
# protocol traces

@dataclass(frozen=True)
class OutcomeRecord:
    label: str
    probability: Fraction
    conditional: PureState
    correction_label: str
    post: PureState
    chsh: Optional[CycloNum]


@dataclass(frozen=True)
class ProtocolTrace:
    outcomes: tuple[OutcomeRecord, ...]

    def total_probability(self) -> Fraction:
        # one Fraction over the common denominator: a sum of Fractions
        # reduces by a gcd at every +
        probs = [o.probability for o in self.outcomes]
        den = lcm(*(p.denominator for p in probs))
        return Fraction(sum(p.numerator * (den // p.denominator) for p in probs), den)

    def by_label(self, label: str) -> OutcomeRecord:
        for o in self.outcomes:
            if o.label == label:
                return o
        raise KeyError(label)


def _pair_operator(w: Vector) -> ExactMatrix:
    """The 2x2 operator B with (<w| x 1)(q x Phi) = B q for a qubit q, <w|
    on (q, Phi's first qubit): B[t][b] = sum_j conj(w[2b + j]) Phi[2j + t]."""
    phi = _PHI.vector
    return ExactMatrix([[inner(w[2 * b:2 * b + 2], phi[t::2]) for b in range(2)]
                        for t in range(2)])


_BELL_PAIR_OPERATORS = tuple(_pair_operator(bk.vector) for bk in _BELL_BASIS)


def teleport(state: PureState) -> ProtocolTrace:
    """Bell-measure (input x Phi) on the first two qubits, then correct.

    teleport_scalars proves each outcome's probability 1/4 and output ray.
    """
    if not isinstance(state, PureState):
        raise TypeError(f"teleport needs a PureState, got {type(state).__name__}")
    if state.dim != 2:
        raise ValueError("teleportation input must be a single qubit")
    if state.is_zero():
        raise ZeroState("cannot teleport the zero vector")
    inv_total = inner(state.vector, state.vector).inverse()
    records = []
    for k, pair_op in enumerate(_BELL_PAIR_OPERATORS):
        cond = pair_op.apply(state.vector)
        prob = (inner(cond, cond) * inv_total).as_fraction()
        post = PureState._of(pauli(k).apply(cond))
        records.append(
            OutcomeRecord(
                label=str(k),
                probability=prob,
                conditional=PureState._of(cond),
                correction_label=PAULI_LABELS[k],
                post=post,
                chsh=None,
            )
        )
    return ProtocolTrace(tuple(records))


def _scalar(m: ExactMatrix, weight: CycloNum, bound: Fraction, what: str) -> CycloNum:
    """lambda with m = lambda * 1 and |lambda|^2 weight = bound, else ValueError."""
    lam = m[0, 0]
    if m != _EYE2.scale(lam) or lam.abs_sq() * weight != bound:
        raise ValueError(f"{what}: the corrected map is not lambda * 1 with |lambda|^2 * {weight} = {bound}")
    return lam


def teleport_scalars() -> dict[str, CycloNum]:
    """Outcome k -> lambda with sigma_k B_k = lambda * 1, |lambda|^2 = 1/4: as
    sigma_k is unitary, every input goes to each outcome with probability 1/4
    and its output is lambda times the input.  ValueError names a failing k."""
    return {str(k): _scalar(_PAULIS[k] @ b, ONE, Fraction(1, 4), f"teleport outcome {k}")
            for k, b in enumerate(_BELL_PAIR_OPERATORS)}


# ----------------------------------------------------------------------
# the eight-outcome POVM and its instrument

class Effect(Record):
    """A rank-one POVM effect scale * |v><v| with a positive rational scale;
    its matrix, not a field, is derived from the two."""

    label: str
    scale: Fraction
    vector: PureState

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("effect scale must be positive")
        object.__setattr__(self, "matrix", outer(self.vector.vector, self.vector.vector).scale(self.scale))


class Instrument(Record):
    """Outcome labels with one Kraus operator each; sum M^dag M = identity."""

    labels: tuple[str, ...]  # tuples, so the swap caches can key on the instrument
    kraus: tuple[ExactMatrix, ...]

    def __post_init__(self):
        if not len(self.labels) == len(self.kraus) > 0:
            raise ValueError(f"Instrument has {len(self.labels)} labels and {len(self.kraus)} Kraus operators")

    def is_complete(self) -> bool:
        return self._complete

    @cached_property
    def _complete(self) -> bool:
        # once per instrument: a record is frozen
        dim = self.kraus[0].rows
        total = ExactMatrix.zeros(dim, dim)
        for m in self.kraus:
            total = total + (m.dagger() @ m)
        return total.is_identity()


def povm_construction() -> tuple[list[Effect], Instrument]:
    """The eight effects (1/2)|b_k><b_k|, (1/2)|a_k><a_k| and their
    Lueders instrument with Kraus operators (1/sqrt2)|.><.|.

    Built and checked once per distinct Bell basis and phase gate; every
    call returns a new list over the shared, immutable effects, so editing
    it leaves the next call's list whole, and the same Instrument, so the
    swap caches compare it by identity.
    """
    effects, inst = _povm_built(_BELL_BASIS, _S)
    return list(effects), inst


# read again 4 times in a verify-all process
@lru_cache(maxsize=4)
def _povm_built(
    basis: tuple[PureState, ...], s: ExactMatrix
) -> tuple[tuple[Effect, ...], Instrument]:
    half = Fraction(1, 2)

    # b_k = (sigma_k x 1)|Phi>, a_k = (S sigma_k x 1)|Phi> = (S x 1)|b_k>
    s_lift = s.tensor(_EYE2)
    vectors = [(f"b{k}", bk) for k, bk in enumerate(basis)]
    vectors += [(f"a{k}", PureState(s_lift.apply(bk.vector))) for k, bk in enumerate(basis)]

    effects = tuple(Effect(label=lbl, scale=half, vector=v) for lbl, v in vectors)

    # each half sums to I/2, so its four vectors are an orthonormal basis;
    # then the Kraus operators, sqrt2 times the effects, sum M^dag M to I
    half_eye = ExactMatrix.identity(4).scale(half)
    for half_slice in (effects[:4], effects[4:]):
        total = ExactMatrix.zeros(4, 4)
        for e in half_slice:
            total = total + e.matrix
        if total != half_eye:
            raise IncompleteInstrument(f"{half_slice[0].label[0]}-family does not resolve the identity")

    inst = Instrument(labels=tuple(e.label for e in effects),
                      kraus=tuple(e.matrix.scale(SQRT2) for e in effects))
    return effects, inst


def standard_corrections() -> dict[str, tuple[str, ExactMatrix]]:
    """Outcome label -> (correction label, unitary): sigma_k for b_k,
    S sigma_k for a_k.  A new dict on every call, so editing it leaves the
    shared table alone."""
    return dict(_STANDARD_CORRECTIONS)


def entanglement_swap(
    inst: Instrument,
    corrections: Optional[Mapping[str, tuple[str, ExactMatrix]]] = None,
    left: Optional[PureState] = None,
) -> ProtocolTrace:
    """Measure the middle pair of left_(A,B1) x Phi_(B2,C) with inst, whose
    Kraus operators must be rank one: |u><w| applies <w| to (B1,B2).

    For each outcome: exact probability, conditional (A,C) state, the
    correction applied on C, and the post-correction CHSH value.
    """
    if not isinstance(inst, Instrument):
        raise TypeError(f"entanglement_swap needs an Instrument, got {type(inst).__name__}")
    if left is None:
        left = bell_state()
    if not isinstance(left, PureState):
        raise TypeError(f"entanglement_swap needs a PureState, got {type(left).__name__}")
    if left.dim != 4:
        raise ValueError("left leg must be a two-qubit state")
    return _swap_cached(inst, _checked_key(inst, corrections), left)


def _checked_key(inst: Instrument, corrections: Optional[Mapping[str, tuple[str, ExactMatrix]]]) -> tuple:
    """The swap caches' key for corrections (None: the standard table), once
    they cover inst's labels and each value, which the key reads, is a
    (str, ExactMatrix) pair, 2x2 for each of inst's labels."""
    table = _STANDARD_TABLE if corrections is None else corrections
    missing = [lbl for lbl in inst.labels if lbl not in table]
    if missing:
        raise ValueError(f"corrections lack outcome labels {missing}; "
                         f"the instrument's labels are {list(inst.labels)}")
    if corrections is None:
        return _STANDARD_KEY
    for lbl, pair in corrections.items():
        if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
                and isinstance(pair[1], ExactMatrix)):
            got = tuple(type(x).__name__ for x in pair) if isinstance(pair, tuple) else type(pair).__name__
            raise TypeError(f"the correction of outcome {lbl} must be a (str, ExactMatrix) pair, got {got}")
        if lbl in inst.labels and (pair[1].rows, pair[1].cols) != (2, 2):
            raise ValueError(f"the correction of outcome {lbl} is {pair[1].rows}x{pair[1].cols}, not 2x2")
    return _correction_key(corrections)


# read again twice in a verify-all process, once in simulate-swap
@lru_cache(maxsize=8)
def _swap_plan(inst: Instrument, corr_key: tuple) -> tuple[tuple, ...]:
    """(label, B, <u|u>, correction label, correction C, CHSH class) for
    each Kraus operator M = |u><w| of a complete inst, B the pair operator
    of w.  u is the column of M's first non-zero entry (row-major) divided
    by that entry, w the conjugate of its row; a zero M gives zero u and w.
    Outcomes share a class when their C B lie on one ray; every zero C B
    shares one class, whose post states chsh_value refuses."""
    if not inst.is_complete():
        raise IncompleteInstrument("sum of M^dag M is not the identity")
    corrections = {lbl: (cl, m) for lbl, cl, m in corr_key}
    classes: dict[Optional[ExactMatrix], int] = {}
    plan = []
    for label, m in zip(inst.labels, inst.kraus):
        if (m.rows, m.cols) != (4, 4):
            raise ValueError(f"Kraus operator {label} is {m.rows}x{m.cols}, not 4x4")
        cells = [(r, c) for r in range(4) for c in range(4) if not m[r, c].is_zero()]
        r, c = cells[0] if cells else (0, 0)
        inv = m[r, c].inverse() if cells else ZERO
        u = tuple(m[i, c] * inv for i in range(4))
        w = tuple(x.conjugate() for x in m.entries[r])
        if outer(u, w) != m:
            raise IncompleteInstrument(f"Kraus operator {label} is not rank one")
        pair_op = _pair_operator(w)
        corr_label, corr = corrections[label]
        try:
            ray = ray_key(corr @ pair_op)
        except ValueError:  # C B is zero
            ray = None
        cls = classes.setdefault(ray, len(classes))
        plan.append((label, pair_op, inner(u, u), corr_label, corr, cls))
    return tuple(plan)


def swap_scalars() -> dict[str, CycloNum]:
    """Outcome label -> lambda with C B = lambda * 1, |lambda|^2 <u|u> = 1/8, in
    the standard swap plan: as C is unitary, every left state goes to each outcome
    with probability 1/8 onto its own ray, so CHSH holds.  ValueError names a failing one."""
    _, inst = povm_construction()
    return {label: _scalar(corr @ pair_op, uu, Fraction(1, 8), f"swap outcome {label}")
            for label, pair_op, uu, _, corr, _ in _swap_plan(inst, _STANDARD_KEY)}


# Hits come from few keys (a seeded swap chain of any length misses twice,
# verify-all three times); fresh states never repeat.  An entry is ~17 KB.
# Keyed on the left state, whose hash its record keeps.  Read again 227
# times in a verify-all process, 998 in simulate-swap --rounds 1000.
@lru_cache(maxsize=16)
def _swap_cached(inst: Instrument, corr_key: tuple, left: PureState) -> ProtocolTrace:
    left_vector = left.vector
    low, high = left_vector[:2], left_vector[2:]
    inv_total = inner(left_vector, left_vector).inverse()  # <Phi|Phi> is 1
    settings = tsirelson_settings()
    chsh_of_class: dict[int, CycloNum] = {}

    records = []
    for label, pair_op, uu, corr_label, corr, cls in _swap_plan(inst, corr_key):
        pair = pair_op.apply(low) + pair_op.apply(high)
        pp = inner(pair, pair)
        # the branch is u x pair; <u|u> and <pair|pair> may lie in Q(sqrt2),
        # only the probability is rational
        prob = (pp * uu * inv_total).as_fraction()
        if prob == 0:
            zero = PureState._of((ZERO,) * 4)
            records.append(OutcomeRecord(label, prob, zero, corr_label, zero, None))
            continue
        # one scalar makes the first non-zero entry 1, so chained rounds reuse
        # a few cache keys, then the norm 1 where its root lies in Q(zeta_8)
        scale = next(a for a in pair if not a.is_zero()).inverse()
        root = sqrt_of_fraction(pp * scale.abs_sq())
        if root is not None:
            scale = scale * root.inverse()
        cond = tuple(scale * a for a in pair)
        post = PureState._of(corr.apply(cond[:2]) + corr.apply(cond[2:]))
        # a zero post reaches chsh_value, which refuses it
        chsh = chsh_of_class.get(cls)
        if chsh is None:
            chsh = chsh_of_class[cls] = chsh_value(post, settings)
        records.append(OutcomeRecord(label, prob, PureState._of(cond), corr_label, post, chsh))
    return ProtocolTrace(tuple(records))


def iterate_swap_detailed(
    rounds: int,
    outcome_path: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    inst: Optional[Instrument] = None,
    corrections: Optional[Mapping[str, tuple[str, ExactMatrix]]] = None,
) -> list[OutcomeRecord]:
    """Chain the swap: each round's corrected (A,C) pair feeds the next round.

    Outcomes follow outcome_path if given, else a seeded uniform choice,
    else a deterministic round-robin over the eight labels.  Returns the
    selected outcome record of each round; its chsh is the post-correction
    CHSH value.
    """
    if not isinstance(rounds, int):
        raise TypeError(f"iterate_swap_detailed needs an int rounds, got {type(rounds).__name__}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if outcome_path is not None and len(outcome_path) < rounds:
        raise ValueError(f"outcome_path supplies {len(outcome_path)} outcomes for {rounds} rounds")
    if inst is None:
        _, inst = povm_construction()
    elif not isinstance(inst, Instrument):
        raise TypeError(f"iterate_swap_detailed needs an Instrument, got {type(inst).__name__}")
    if outcome_path is not None:
        unknown = dict.fromkeys(lbl for lbl in outcome_path[:rounds] if lbl not in inst.labels)
        if unknown:
            raise ValueError(f"outcome_path has unknown labels {list(unknown)}; "
                             f"the instrument's labels are {list(inst.labels)}")
    # checked once: each round is then one swap-cache lookup
    corr_key = _checked_key(inst, corrections)
    rng = random.Random(seed) if seed is not None else None
    state = bell_state()
    out = []
    for i in range(rounds):
        trace = _swap_cached(inst, corr_key, state)
        if outcome_path is not None:
            label = outcome_path[i]
        elif rng is not None:
            label = rng.choice(inst.labels)
        else:
            label = inst.labels[i % len(inst.labels)]
        rec = trace.by_label(label)
        if rec.chsh is None:
            raise ZeroState(f"selected outcome {label} has zero probability")
        out.append(rec)
        state = rec.post
    return out


# ----------------------------------------------------------------------
# structural checks

def verify_cocycle() -> None:
    """sigma_x S sigma_x S = i*1 (and S^4 = 1, S^2 = sigma_z): the defect
    that puts the S/X pair in the non-trivial multiplier class.  Raises
    CocycleMismatch on the first law that fails."""
    s = phase_gate()
    sx = pauli(1)
    if (sx @ s @ sx @ s) != _EYE2.scale(I):
        raise CocycleMismatch("sigma_x S sigma_x S != i * identity")
    s3 = s @ s @ s
    # S^4 = 1 needs no check of its own: times S on the right this product
    # is i S^4, which the first check fixes as i*1
    if (sx @ s @ sx) != s3.scale(I):
        raise CocycleMismatch("sigma_x S sigma_x != i * S^3")
    if (s @ s) != pauli(3):
        raise CocycleMismatch("S^2 != sigma_z")


def _identity(m: ExactMatrix) -> ExactMatrix:
    """The key of exact comparison: one function, so a table memo hits."""
    return m


def _table(
    name: str,
    words: Sequence[str],
    mats: Sequence[ExactMatrix],
    key: Callable[[ExactMatrix], ExactMatrix],
) -> GroupTable:
    """The group of mats under @, labelled by words, with matrices identified
    when their keys are equal; memoized on the four, so changed matrices are
    new content and are tabulated again."""
    return _tabulated(name, tuple(words), tuple(mats), key)


# warm-only: no one-shot command reads it again; it saves a warm verify-all ~1.3 ms
@lru_cache(maxsize=8)
def _tabulated(
    name: str,
    words: tuple[str, ...],
    mats: tuple[ExactMatrix, ...],
    key: Callable[[ExactMatrix], ExactMatrix],
) -> GroupTable:
    """Refuses two elements with one key and a product whose key is not
    among them.  Only the columns of mats[0] and of the walk's generators
    are matrix products; mul[a][x s] = col_s[mul[a][x]] fills the rest, as @
    is associative and a product's key depends only on its factors' keys,
    so no product escapes if none in these columns does."""
    index: dict[ExactMatrix, int] = {}
    for i, m in enumerate(mats):
        j = index.setdefault(key(m), i)
        if j != i:
            raise ValueError(f"{name}: {words[j]} and {words[i]} are one element")

    def column(s: int) -> list[int]:
        try:
            return [index[key(m @ mats[s])] for m in mats]
        except KeyError:
            raise ValueError(f"{name}: a product escapes the set") from None

    mul = [[x] + [0] * (len(mats) - 1) for x in column(0)]
    gens, cols, steps = _walk(len(mats), column)
    for a, row in enumerate(mul):
        for s, col in zip(gens, cols):
            row[s] = col[a]
        for y, x, i in steps:
            row[y] = cols[i][row[x]]
    return GroupTable(name, mul, words)


def matrix_group_mod_phases(seeds: Sequence[tuple[str, ExactMatrix]], name: str) -> GroupTable:
    """The group the unitary seeds form modulo scalar matrices.

    The seeds must lie on distinct rays, and every product of two seeds on
    a seed's ray; then the seeds' rays are the whole closure mod phases.
    Their labels become the quotient's words.
    """
    if isinstance(seeds, (tuple, list)):
        bad = [seed for seed in seeds if not (
            isinstance(seed, tuple) and len(seed) == 2
            and isinstance(seed[0], str) and isinstance(seed[1], ExactMatrix))]
        got = f"a {type(seeds).__name__} holding {type(bad[0]).__name__}" if bad else None
    else:
        got = type(seeds).__name__
    if got is not None:
        raise TypeError("matrix_group_mod_phases needs a tuple or list of (str, ExactMatrix) "
                        f"pairs, got {got}")
    _require("matrix_group_mod_phases", name, str)
    for lbl, m in seeds:
        if not m.is_unitary():
            raise ValueError(f"seed {lbl} is not unitary")
    return _table(name, [lbl for lbl, _ in seeds], [m for _, m in seeds], ray_key)


def correction_group_check() -> GroupHom:
    """The eight corrections mod phases form D4 (explicit isomorphism), the
    16 matrices i^k sigma_j multiply by Pauli1's table, and the four Paulis
    mod phases form K4; returns the D4 isomorphism."""
    correction_seeds = [seed for _, seed in _STANDARD_CORRECTIONS]
    # no order check here: find_isomorphism onto D4 below refuses any other order
    ray_group = matrix_group_mod_phases(correction_seeds, "corrections/phases")

    idx_s = ray_group.element_words.index("S")
    idx_x = ray_group.element_words.index("X")
    if ray_group.element_order(idx_s) != 4 or ray_group.element_order(idx_x) != 2:
        raise ValueError("projective orders of [S], [X] are not (4, 2)")
    lhs = ray_group.mul(ray_group.mul(idx_x, idx_s), ray_group.inv(idx_x))
    if lhs != ray_group.inv(idx_s):
        raise ValueError("[X][S][X]^-1 != [S]^-1 in the correction quotient")

    iso = find_isomorphism(ray_group, builtin_group("D4"))

    # i^k sigma_j at Pauli1's index 4j + k: the matrices multiply by its
    # derived table itself, signs and phases included, and mod phases
    # they collapse to K4
    pauli_seeds = correction_seeds[:4]
    p1 = builtin_group("Pauli1")
    mats = [m.scale(phase) for _, m in pauli_seeds for phase in (ONE, I, -ONE, -I)]
    if _table("PauliMatrices", p1.element_words, mats, _identity) != p1:
        raise ValueError("the Pauli matrices do not multiply by Pauli1's table")

    # find_isomorphism onto K4 refuses a wrong order or an element of order 4
    pauli_quotient = matrix_group_mod_phases(pauli_seeds, "paulis/phases")
    find_isomorphism(pauli_quotient, builtin_group("K4"))
    return iso


def pvm_counting_check() -> str:
    """Arithmetic for why a rank-one PVM on C^2 x C^2 cannot drive the
    eight-element correction group."""
    # no check: the literal dim and the order of the built-in D4 are fixed,
    # and the text below is the whole claim
    dim = 4
    pvm_outcomes = dim  # rank-one projectors resolving the identity
    d4_order = builtin_group("D4").order
    return (
        f"rank-one PVM on a dim-{dim} space has exactly {pvm_outcomes} outcomes; "
        f"{pvm_outcomes} < {d4_order} = |D4|, so it cannot label a faithful correction set. "
        f"A POVM with >= {d4_order} outcomes is used instead; a Naimark dilation to a "
        "larger space with a rank-one PVM there is the known alternative (not implemented)."
    )


def conj_rep_character_from_matrices(
    group: GroupTable, mats: Sequence[ExactMatrix]
) -> ClassFunction:
    """Trace of X -> U X U^dag per group element: on row-major vec(X) the
    map is U x conj U, whose trace is tr U * conj(tr U) = |tr U|^2.

    Accepts projective assignments (group law up to a scalar), checked as
    U[s] U[h] on U[sh]'s ray for s = e and each generator: the s for which
    it holds for all h are closed under the product, with no U assumed
    invertible.  The result is checked to be constant on conjugacy classes
    before it is returned as a class function.
    """
    _require("conj_rep_character_from_matrices", group, GroupTable)
    _require_vector("conj_rep_character_from_matrices", mats, ExactMatrix)
    if len(mats) != group.order:
        raise ValueError("need one matrix per group element")
    return _conj_character_of(group, tuple(mats))


# warm-only: no one-shot command reads it again; it saves a warm verify-all ~0.8 ms
@lru_cache(maxsize=8)
def _conj_character_of(group: GroupTable, mats: tuple[ExactMatrix, ...]) -> ClassFunction:
    """conj_rep_character_from_matrices on checked arguments, memoized on
    the group and the matrices; a refused assignment raises on every call."""
    keys = []
    for g in group.elements():
        try:
            keys.append(ray_key(mats[g]))
        except ValueError:
            raise NotProjectiveRep(f"U[{group.word(g)}] is the zero matrix") from None
    for g in (0, *group._gens):
        for h in group.elements():
            product = mats[g] @ mats[h]
            try:
                same_ray = ray_key(product) == keys[group.mul(g, h)]
            except ValueError:  # a zero product lies on no ray
                same_ray = False
            if not same_ray:
                raise NotProjectiveRep(
                    f"U[{group.word(g)}] U[{group.word(h)}] is not proportional to "
                    f"U[{group.word(group.mul(g, h))}]"
                )

    per_element = [u.trace().abs_sq() for u in mats]

    cc = conjugacy_classes(group)
    for cl in cc.classes:
        if len({per_element[x] for x in cl}) != 1:
            raise NotProjectiveRep(
                f"conjugation character is not constant on the class of {group.word(cl[0])}"
            )
    return ClassFunction(group, tuple(per_element[r] for r in cc.representatives))


def pauli_rep_on_k4() -> tuple[ExactMatrix, ...]:
    """K4 elements (e, a, b, ab) realized projectively as (1, sx, sy, sz)."""
    return tuple(pauli(k) for k in range(4))


def lifted_correction_rep_on_d8() -> tuple[ExactMatrix, ...]:
    """D8 element z^i h^j (index i + 8j) realized as S^i sigma_x^j."""
    powers = [_EYE2]
    for _ in range(7):
        powers.append(powers[-1] @ _S)
    return tuple(powers) + tuple(m @ pauli(1) for m in powers)
