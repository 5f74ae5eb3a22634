"""Exact simulation of the two positive protocols and their structure checks.

Covers the shared CHSH setup (Tsirelson value 2*sqrt2 as an equality test),
Bell-basis teleportation with Pauli corrections, the eight-outcome POVM
entanglement swap with its Lueders instrument and phase-gate corrections,
and the algebraic cross-checks: the cocycle defect of the S/X pair, the
correction group mod phases, and the conjugation character computed from
matrices instead of character tables.

States are vectors over Q(zeta_8); probabilities are exact rationals.
Qubit 0 is the leftmost tensor factor throughout.

Both protocols make one pair measurement, ``_measure_pair``: a bra <w| on
the qubit pair just before the last qubit, which is then corrected.  So the
swap takes rank-one Kraus operators |u><w| only, factored once per
instrument; any other rank raises IncompleteInstrument.

The fixed operators (Paulis, phase gate, Bell basis, corrections) are built
once at import.  The POVM and its instrument are built and checked once per
distinct Bell basis and phase gate; ``povm_construction`` returns a new list
of the shared effects on every call, together with the one shared
Instrument.

Both matrix groups, the 16 Pauli matrices and the corrections mod phases,
are tabulated by one builder; ``matrices.ray_key`` identifies matrices that
are equal up to a scalar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence

from .characters import ClassFunction
from .cyclo import CycloNum, I, INV_SQRT2, ONE, ZERO, sqrt_of_fraction
from .groups import GroupHom, GroupTable, builtin_group, conjugacy_classes, find_isomorphism
from .matrices import (
    ExactMatrix,
    Vector,
    outer,
    proportionality,
    ray_key,
    vec_inner,
    vec_norm_sq,
    vec_tensor,
)


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


@dataclass(frozen=True)
class PureState:
    """A (possibly unnormalized) state vector over Q(zeta_8)."""

    vector: Vector

    def __post_init__(self):
        for a in self.vector:
            if type(a) is not CycloNum:
                raise TypeError(f"state amplitudes must be CycloNum, got {type(a).__name__}")

    @property
    def dim(self) -> int:
        return len(self.vector)

    def norm_sq(self) -> Fraction:
        """<psi|psi> as a Fraction; raises ValueError when it lies in Q(sqrt2)
        but not in Q (use vec_inner(v, v) for the field element)."""
        return vec_norm_sq(self.vector)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.vector)

    def inner(self, other: PureState) -> CycloNum:
        return vec_inner(self.vector, other.vector)

    def proportional_to(self, other: PureState) -> "CycloNum | None":
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


def bell_basis() -> tuple[PureState, ...]:
    """|Phi_k> = (sigma_k x 1)|Phi>, an orthonormal 2-qubit basis."""
    return _BELL_BASIS


@lru_cache(maxsize=1)
def tsirelson_settings() -> tuple[ExactMatrix, ExactMatrix, ExactMatrix, ExactMatrix]:
    """(A0, A1, C0, C1) = (sz, sx, (sz+sx)/sqrt2, (sz-sx)/sqrt2)."""
    sz, sx = pauli(3), pauli(1)
    return (sz, sx, (sz + sx).scale(INV_SQRT2), (sz - sx).scale(INV_SQRT2))


@lru_cache(maxsize=8)
def _bell_operator(settings: tuple[ExactMatrix, ...]) -> ExactMatrix:
    a0, a1, c0, c1 = settings
    for obs in settings:
        if not obs.is_hermitian() or not (obs @ obs).is_identity():
            raise NotDichotomic("settings must be Hermitian with O^2 = identity")
    return a0.tensor(c0 + c1) + a1.tensor(c0 - c1)


def chsh_value(state: PureState, settings: Sequence[ExactMatrix]) -> CycloNum:
    """<psi| A0 x (C0+C1) + A1 x (C0-C1) |psi> / <psi|psi>, exact."""
    if state.dim != 4:
        raise ValueError("CHSH needs a two-qubit state")
    if state.is_zero():
        raise ZeroState("CHSH value of the zero vector")
    bell_op = _bell_operator(tuple(settings))
    num = vec_inner(state.vector, bell_op.apply(state.vector))
    return num * vec_inner(state.vector, state.vector).inverse()


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
        return sum((o.probability for o in self.outcomes), Fraction(0))

    def by_label(self, label: str) -> OutcomeRecord:
        for o in self.outcomes:
            if o.label == label:
                return o
        raise KeyError(label)


def _probability(pair: Vector, scale: CycloNum) -> Fraction:
    """<pair|pair> * scale, where scale is 1/<full|full>, times <u|u> for a
    swap outcome |u><w| (its branch is u x pair).  The squared norms may lie
    in Q(sqrt2); only the probability is rational."""
    return (vec_inner(pair, pair) * scale).as_fraction()


def _normalized_if_possible(v: Vector) -> Vector:
    """v scaled to unit norm when its squared norm is a rational whose
    square root lies in Q(zeta_8); otherwise v unchanged."""
    ns = vec_inner(v, v)
    if ns.is_zero() or not ns.is_rational():
        return v
    root = sqrt_of_fraction(ns.as_fraction())
    if root is None:
        return v
    inv = root.inverse()
    return tuple(inv * a for a in v)


def _measure_pair(full: Vector, w: Vector) -> Vector:
    """<w| applied to the qubit pair just before the last qubit.

    full[8x + 2j + t] pairs with w[j]; the result is indexed 2x + t.  On
    three qubits that pair is qubits 0-1 (x is 0), on four it is qubits 1-2.
    """
    return tuple(
        vec_inner(w, full[8 * x + t:8 * x + 8:2])
        for x in range(len(full) // 8) for t in range(2)
    )


def teleport(state: PureState) -> ProtocolTrace:
    """Bell-measure (input x Phi) on the first two qubits, then correct.

    Each outcome has probability exactly 1/4 and the corrected output is
    proportional to the input with a scalar in Q(zeta_8).
    """
    if state.dim != 2:
        raise ValueError("teleportation input must be a single qubit")
    if state.is_zero():
        raise ZeroState("cannot teleport the zero vector")
    full = vec_tensor(state.vector, _PHI.vector)
    inv_total = vec_inner(state.vector, state.vector).inverse()
    records = []
    for k, bk in enumerate(bell_basis()):
        cond = _measure_pair(full, bk.vector)
        prob = _probability(cond, inv_total)
        post = PureState(pauli(k).apply(cond))
        records.append(
            OutcomeRecord(
                label=str(k),
                probability=prob,
                conditional=PureState(cond),
                correction_label=PAULI_LABELS[k],
                post=post,
                chsh=None,
            )
        )
    return ProtocolTrace(tuple(records))


# ----------------------------------------------------------------------
# the eight-outcome POVM and its instrument

@dataclass(frozen=True)
class Effect:
    """A rank-one POVM effect scale * |v><v| with a positive rational scale."""

    label: str
    scale: Fraction
    vector: PureState
    matrix: ExactMatrix

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("effect scale must be positive")
        if self.matrix != outer(self.vector.vector, self.vector.vector).scale(self.scale):
            raise ValueError("effect matrix does not match scale * |v><v|")


@dataclass(frozen=True)
class Instrument:
    """Outcome labels with one Kraus operator each; sum M^dag M = identity."""

    labels: tuple[str, ...]
    kraus: tuple[ExactMatrix, ...]

    def is_complete(self) -> bool:
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


@lru_cache(maxsize=4)
def _povm_built(
    basis: tuple[PureState, ...], s: ExactMatrix
) -> tuple[tuple[Effect, ...], Instrument]:
    half = Fraction(1, 2)

    # b_k = (sigma_k x 1)|Phi>, a_k = (S sigma_k x 1)|Phi> = (S x 1)|b_k>
    s_lift = s.tensor(_EYE2)
    vectors = [(f"b{k}", bk) for k, bk in enumerate(basis)]
    vectors += [(f"a{k}", PureState(s_lift.apply(bk.vector))) for k, bk in enumerate(basis)]

    effects = tuple(
        Effect(label=lbl, scale=half, vector=v,
               matrix=outer(v.vector, v.vector).scale(half))
        for lbl, v in vectors
    )

    # both halves resolve the identity on their own
    for half_slice in (effects[:4], effects[4:]):
        total = ExactMatrix.zeros(4, 4)
        for e in half_slice:
            total = total + outer(e.vector.vector, e.vector.vector)
        if not total.is_identity():
            raise IncompleteInstrument(f"{half_slice[0].label[0]}-family does not resolve the identity")

    kraus = tuple(
        outer(v.vector, v.vector).scale(INV_SQRT2) for _, v in vectors
    )
    inst = Instrument(labels=tuple(lbl for lbl, _ in vectors), kraus=kraus)
    if not inst.is_complete():
        raise IncompleteInstrument("Kraus completeness fails")
    return effects, inst


def standard_corrections() -> dict[str, tuple[str, ExactMatrix]]:
    """Outcome label -> (correction label, unitary): sigma_k for b_k,
    S sigma_k for a_k.  A new dict on every call, so editing it leaves the
    shared table alone."""
    return dict(_STANDARD_CORRECTIONS)


@lru_cache(maxsize=8)
def _rank_one_factors(inst: Instrument) -> tuple[tuple[Vector, Vector], ...]:
    """(u, w) with M = |u><w| for each Kraus operator M of a complete inst:
    u is the column of M's first non-zero entry (row-major) divided by that
    entry, w the conjugate of its row.  A zero M gives zero u and w."""
    if not inst.is_complete():
        raise IncompleteInstrument("sum of M^dag M is not the identity")
    factors = []
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
        factors.append((u, w))
    return tuple(factors)


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
    if corrections is None:
        corrections = standard_corrections()
    if left is None:
        left = bell_state()
    if left.dim != 4:
        raise ValueError("left leg must be a two-qubit state")
    missing = [lbl for lbl in inst.labels if lbl not in corrections]
    if missing:
        raise ValueError(f"corrections lack outcome labels {missing}; "
                         f"the instrument's labels are {list(inst.labels)}")
    corr_key = tuple(
        sorted(((lbl, cl, m) for lbl, (cl, m) in corrections.items()),
               key=lambda item: item[0])
    )
    return _swap_cached(inst, corr_key, left.vector)


@lru_cache(maxsize=4096)
def _swap_cached(inst: Instrument, corr_key: tuple, left_vector: Vector) -> ProtocolTrace:
    factors = _rank_one_factors(inst)
    corrections = {lbl: (cl, m) for lbl, cl, m in corr_key}
    full = vec_tensor(left_vector, _PHI.vector)
    inv_total = vec_inner(full, full).inverse()
    settings = tsirelson_settings()

    records = []
    for label, (u, w) in zip(inst.labels, factors):
        pair = _measure_pair(full, w)
        prob = _probability(pair, vec_inner(u, u) * inv_total)
        if prob == 0:
            records.append(OutcomeRecord(label, prob, PureState((ZERO,) * 4),
                                         corrections[label][0], PureState((ZERO,) * 4), None))
            continue
        # first non-zero entry 1, so chained rounds reuse a few cache keys
        inv_pivot = next(a for a in pair if not a.is_zero()).inverse()
        cond = _normalized_if_possible(tuple(a * inv_pivot for a in pair))
        corr_label, corr = corrections[label]
        post = PureState(corr.apply(cond[:2]) + corr.apply(cond[2:]))
        records.append(
            OutcomeRecord(
                label=label,
                probability=prob,
                conditional=PureState(cond),
                correction_label=corr_label,
                post=post,
                chsh=chsh_value(post, settings),
            )
        )
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
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if outcome_path is not None and len(outcome_path) < rounds:
        raise ValueError(f"outcome_path supplies {len(outcome_path)} outcomes for {rounds} rounds")
    if inst is None:
        _, inst = povm_construction()
    if outcome_path is not None:
        unknown = dict.fromkeys(lbl for lbl in outcome_path[:rounds] if lbl not in inst.labels)
        if unknown:
            raise ValueError(f"outcome_path has unknown labels {list(unknown)}; "
                             f"the instrument's labels are {list(inst.labels)}")
    rng = random.Random(seed) if seed is not None else None
    state = bell_state()
    out = []
    for i in range(rounds):
        trace = entanglement_swap(inst, corrections, left=state)
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

def verify_cocycle() -> CycloNum:
    """sigma_x S sigma_x S = i*1 (and S^4 = 1, S^2 = sigma_z): the defect
    that puts the S/X pair in the non-trivial multiplier class."""
    s = phase_gate()
    sx = pauli(1)
    if (sx @ s @ sx @ s) != _EYE2.scale(I):
        raise CocycleMismatch("sigma_x S sigma_x S != i * identity")
    s3 = s @ s @ s
    if (sx @ s @ sx) != s3.scale(I):
        raise CocycleMismatch("sigma_x S sigma_x != i * S^3")
    if not (s @ s @ s @ s).is_identity():
        raise CocycleMismatch("S^4 != identity")
    if (s @ s) != pauli(3):
        raise CocycleMismatch("S^2 != sigma_z")
    return I


def _matrix_closure(seeds: Sequence[ExactMatrix]) -> list[ExactMatrix]:
    seen: dict[ExactMatrix, int] = {}
    order: list[ExactMatrix] = []
    for m in seeds:
        if m not in seen:
            seen[m] = len(order)
            order.append(m)
    frontier = list(order)
    while frontier:
        x = frontier.pop(0)
        for s in seeds:
            y = x @ s
            if y not in seen:
                seen[y] = len(order)
                order.append(y)
                frontier.append(y)
    return order


def _table(
    name: str,
    words: Sequence[str],
    mats: Sequence[ExactMatrix],
    key: Callable[[ExactMatrix], ExactMatrix],
) -> GroupTable:
    """The group of mats under @, labelled by words, with matrices identified
    when their keys are equal.  Refuses two elements with one key and a
    product whose key is not among them; one dict probe per product."""
    index: dict[ExactMatrix, int] = {}
    for i, m in enumerate(mats):
        j = index.setdefault(key(m), i)
        if j != i:
            raise ValueError(f"{name}: {words[j]} and {words[i]} are one element")
    try:
        mul = [[index[key(a @ b)] for b in mats] for a in mats]
    except KeyError:
        raise ValueError(f"{name}: a product escapes the set") from None
    return GroupTable(name, mul, words)


def matrix_group_mod_phases(seeds: Sequence[tuple[str, ExactMatrix]], name: str) -> GroupTable:
    """The group the unitary seeds form modulo scalar matrices.

    The seeds must lie on distinct rays, and every product of two seeds on
    a seed's ray; then the seeds' rays are the whole closure mod phases.
    Their labels become the quotient's words.
    """
    for lbl, m in seeds:
        if not m.is_unitary():
            raise ValueError(f"seed {lbl} is not unitary")
    return _table(name, [lbl for lbl, _ in seeds], [m for _, m in seeds], ray_key)


def correction_group_check() -> GroupHom:
    """The eight corrections mod phases form D4 (explicit isomorphism),
    and the four Paulis mod phases form K4; returns the D4 isomorphism."""
    correction_seeds = [seed for _, seed in _STANDARD_CORRECTIONS]
    ray_group = matrix_group_mod_phases(correction_seeds, "corrections/phases")
    if ray_group.order != 8:
        raise ValueError(f"correction quotient has order {ray_group.order}, expected 8")

    idx_s = ray_group.element_words.index("S")
    idx_x = ray_group.element_words.index("X")
    if ray_group.element_order(idx_s) != 4 or ray_group.element_order(idx_x) != 2:
        raise ValueError("projective orders of [S], [X] are not (4, 2)")
    lhs = ray_group.mul(ray_group.mul(idx_x, idx_s), ray_group.inv(idx_x))
    if lhs != ray_group.inv(idx_s):
        raise ValueError("[X][S][X]^-1 != [S]^-1 in the correction quotient")

    iso = find_isomorphism(ray_group, builtin_group("D4"))

    # Pauli-only case: full matrix group is the built-in Pauli group,
    # and mod phases it collapses to K4
    pauli_seeds = correction_seeds[:4]
    pauli_closure = _matrix_closure([m for _, m in pauli_seeds])
    words = [f"m{i}" for i in range(len(pauli_closure))]
    pauli_matrix_group = _table("PauliMatrices", words, pauli_closure, key=lambda m: m)
    find_isomorphism(pauli_matrix_group, builtin_group("Pauli1"))

    pauli_quotient = matrix_group_mod_phases(pauli_seeds, "paulis/phases")
    if pauli_quotient.order != 4:
        raise ValueError("Pauli quotient does not have order 4")
    if any(pauli_quotient.element_order(x) != 2 for x in range(1, 4)):
        raise ValueError("Pauli quotient has an element of order != 2")
    find_isomorphism(pauli_quotient, builtin_group("K4"))
    return iso


def pvm_counting_check() -> str:
    """Arithmetic for why a rank-one PVM on C^2 x C^2 cannot drive the
    eight-element correction group."""
    dim = 4
    pvm_outcomes = dim  # rank-one projectors resolving the identity
    d4_order = builtin_group("D4").order
    if not (pvm_outcomes == 4 and d4_order == 8 and pvm_outcomes < d4_order):
        raise ArithmeticError("PVM outcome counting failed")
    return (
        f"rank-one PVM on a dim-{dim} space has exactly {pvm_outcomes} outcomes; "
        f"{pvm_outcomes} < {d4_order} = |D4|, so it cannot label a faithful correction set. "
        f"A POVM with >= {d4_order} outcomes is used instead; a Naimark dilation to a "
        "larger space with a rank-one PVM there is the known alternative (not implemented)."
    )


def conj_rep_character_from_matrices(
    group: GroupTable, mats: Sequence[ExactMatrix]
) -> ClassFunction:
    """Trace of X -> U X U^dag on the matrix-unit basis, per group element.

    Accepts projective assignments (group law up to a scalar).  The result
    is checked to be constant on conjugacy classes and to equal |tr U|^2
    entrywise before it is returned as a class function.
    """
    if len(mats) != group.order:
        raise ValueError("need one matrix per group element")
    keys = []
    for g in group.elements():
        try:
            keys.append(ray_key(mats[g]))
        except ValueError:
            raise NotProjectiveRep(f"U[{group.word(g)}] is the zero matrix") from None
    for g in group.elements():
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

    dim = mats[0].rows
    basis = []
    for i in range(dim):
        for j in range(dim):
            e_ij = ExactMatrix(
                [[ONE if (r, c) == (i, j) else ZERO for c in range(dim)] for r in range(dim)]
            )
            basis.append((i, j, e_ij))

    per_element = []
    for g in group.elements():
        u = mats[g]
        ud = u.dagger()
        total = ZERO
        for i, j, e_ij in basis:
            conjugated = u @ e_ij @ ud
            total = total + conjugated[i, j]
        if total != u.trace().abs_sq():
            raise ArithmeticError(
                f"conjugation trace at {group.word(g)} disagrees with |tr U|^2"
            )
        per_element.append(total)

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
    s = phase_gate()
    sx = pauli(1)
    mats = []
    for j in range(2):
        for i in range(8):
            m = _EYE2
            for _ in range(i):
                m = m @ s
            if j:
                m = m @ sx
            mats.append(m)
    return tuple(mats)
