"""Character tables, inner products, conjugation characters, pullbacks."""

import itertools
import re
from fractions import Fraction

import pytest

from repcheck import characters, verify
from repcheck.characters import (
    ClassFunction,
    GroupMismatch,
    NotACharacter,
    NotDescendable,
    ProjectiveClassTag,
    TableVerificationFailed,
    _RAW_TABLES,
    char_table,
    combination,
    conj_character,
    conj_sweep,
    decompose,
    inner_product,
    projective_irreps_d4,
    pullback,
    push_to_quotient,
    trivial_character,
)
from repcheck.classify import classify_all, enumerate_witnesses, family_by_name
from repcheck.cyclo import CycloNum, I, ONE, SQRT2, ZERO
from repcheck.groups import BUILTIN_NAMES, GroupTable, builtin_group, central_quotient

D4 = builtin_group("D4")
T4 = char_table(D4)
K4, Z4 = builtin_group("K4"), builtin_group("Z4")


def cf(group, *ints):
    return ClassFunction(group, tuple(CycloNum(v) for v in ints))


def regular(t):
    """The regular character of t's group as sum d_i chi_i over its table."""
    return combination(t.irreducibles, t.degrees())


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_tables_load_and_verify(name):
    g = builtin_group(name)
    t = char_table(g)
    assert len(t.irreducibles) == len(t.labels)
    assert sum(d * d for d in t.degrees()) == g.order


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_schur_row_orthonormality(name):
    t = char_table(builtin_group(name))
    for i, a in enumerate(t.irreducibles):
        for j, b in enumerate(t.irreducibles):
            assert inner_product(a, b) == (ONE if i == j else ZERO)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_schur_column_orthogonality(name):
    g = builtin_group(name)
    t = char_table(g)
    from repcheck.groups import conjugacy_classes

    sizes = conjugacy_classes(g).sizes
    k = len(sizes)
    for p in range(k):
        for q in range(k):
            total = ZERO
            for chi in t.irreducibles:
                total = total + chi.values[p].conjugate() * chi.values[q]
            expected = CycloNum(Fraction(g.order, sizes[p])) if p == q else ZERO
            assert total == expected


def test_d4_table_values():
    rows = [[v for v in chi.values] for chi in T4.irreducibles]
    assert rows[0] == [ONE] * 5
    assert rows[4] == [CycloNum(2), ZERO, CycloNum(-2), ZERO, ZERO]
    assert T4.labels == ("chi1", "chi2", "chi3", "chi4", "chi5")


def test_k4_table_is_plus_minus_one():
    for chi in char_table(builtin_group("K4")).irreducibles:
        assert all(v == ONE or v == CycloNum(-1) for v in chi.values)


def test_z4_table_is_powers_of_i():
    t = char_table(builtin_group("Z4"))
    for k, chi in enumerate(t.irreducibles):
        for j, v in enumerate(chi.values):
            assert v == (ONE, I, -ONE, -I)[k * j % 4]


def test_d8_two_dimensional_rows():
    t = char_table(builtin_group("D8"))
    e1 = t.by_label("chiE1")
    assert list(e1.values) == [CycloNum(2), SQRT2, ZERO, -SQRT2, CycloNum(-2), ZERO, ZERO]
    e2 = t.by_label("chiE2")
    assert e2.values[4] == CycloNum(2)  # factors through the center quotient
    assert sum(1 for d in t.degrees() if d == 2) == 3


def test_inner_products_known_values():
    chi5 = T4.by_label("chi5")
    assert inner_product(chi5, chi5) == ONE
    assert inner_product(T4.by_label("chi1"), regular(T4)) == ONE
    assert inner_product(conj_character(chi5), chi5) == ZERO


def test_inner_product_rejects_group_mismatch():
    with pytest.raises(GroupMismatch):
        inner_product(trivial_character(D4), trivial_character(builtin_group("K4")))


# K4 and Z4 both have four classes, so without their checks + and decompose
# would pair the values positionally, and pullback would read a Z4 function
# at K4 elements, each returning a wrong answer
@pytest.mark.parametrize("call,message", [
    (lambda: trivial_character(K4) + trivial_character(Z4), "K4 vs Z4"),
    (lambda: decompose(trivial_character(K4), char_table(Z4)), "K4 vs Z4"),
    (lambda: pullback(trivial_character(Z4), central_quotient(D4, K4)),
     "class function lives on Z4, hom targets K4"),
    (lambda: push_to_quotient(trivial_character(D4)), "expected a class function on D8, got D4"),
], ids=["add", "decompose", "pullback", "push_to_quotient"])
def test_a_class_function_on_the_wrong_group_is_refused(call, message):
    with pytest.raises(GroupMismatch, match=f"^{message}$"):
        call()


def test_decompose_known_values():
    chi5 = T4.by_label("chi5")
    assert decompose(conj_character(chi5), T4) == (1, 1, 1, 1, 0)
    assert decompose(regular(T4), T4) == (1, 1, 1, 1, 2)


def test_decompose_rejects_non_character():
    f = cf(D4, 1, 0, 0, 0, 0)  # <chi1, f> = 1/8
    with pytest.raises(NotACharacter):
        decompose(f, T4)


def test_conj_character_values_and_dimension_square():
    chi5 = T4.by_label("chi5")
    assert [v.as_int() for v in conj_character(chi5).values] == [4, 0, 4, 0, 0]
    for name in BUILTIN_NAMES:
        t = char_table(builtin_group(name))
        for chi in t.irreducibles:
            assert conj_character(chi).dimension() == chi.dimension() ** 2


def test_conj_character_of_trivial_is_trivial():
    triv = trivial_character(D4)
    assert conj_character(triv) == triv


def test_conj_character_norms_are_rational():
    # every |value|^2 over every built-in table lands in Q
    for name in BUILTIN_NAMES:
        for chi in char_table(builtin_group(name)).irreducibles:
            for v in chi.values:
                assert v.abs_sq().is_rational()


def test_conj_character_needs_positive_integer_dimension():
    with pytest.raises(NotACharacter):
        conj_character(cf(D4, 0, 1, 1, 1, 1))


def pointwise(a, b):
    """The character of the tensor product: a times b, class by class."""
    return ClassFunction(a.group, tuple(x * y for x, y in zip(a.values, b.values, strict=True)))


@pytest.mark.parametrize("other", [1, ONE, "chi"], ids=repr)
def test_a_class_function_plus_a_foreign_operand_is_python_s_type_error(other):
    with pytest.raises(TypeError, match="unsupported operand type"):
        T4.by_label("chi1") + other


def test_tensor_product_rules_of_d4():
    chi5 = T4.by_label("chi5")
    for i in range(4):
        assert pointwise(chi5, T4.irreducibles[i]) == chi5
    assert decompose(pointwise(chi5, chi5), T4) == (1, 1, 1, 1, 0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_products_of_irreducibles_decompose_integrally(name):
    t = char_table(builtin_group(name))
    for a, b in itertools.product(t.irreducibles, repeat=2):
        mults = decompose(pointwise(a, b), t)
        assert all(m >= 0 for m in mults)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_regular_character_decomposes_into_degrees(name):
    g = builtin_group(name)
    t = char_table(g)
    reg = regular(t)
    # |G| at the identity class and 0 elsewhere: column orthogonality
    assert reg == cf(g, g.order, *[0] * (len(t.irreducibles) - 1))
    assert decompose(reg, t) == t.degrees()


def test_pullback_of_k4_regular_lands_on_center_classes():
    # oracle: images of e and r2 are the K4 identity, every other class
    # maps to a non-identity element, so the pullback is (4,0,4,0,0)
    k4 = builtin_group("K4")
    pulled = pullback(regular(char_table(k4)), central_quotient(D4, k4))
    assert pulled == cf(D4, 4, 0, 4, 0, 0)


def test_pullback_of_trivial_is_trivial():
    k4 = builtin_group("K4")
    assert pullback(trivial_character(k4), central_quotient(D4, k4)) == trivial_character(D4)


def test_pullbacks_of_k4_irreducibles_are_the_linear_d4_characters():
    k4 = builtin_group("K4")
    proj = central_quotient(D4, k4)
    pulled = {pullback(chi, proj) for chi in char_table(k4).irreducibles}
    assert pulled == set(T4.irreducibles[:4])


def test_pullback_requires_surjective_hom():
    from repcheck.groups import GroupHom

    z4 = builtin_group("Z4")
    const = GroupHom(source=D4, target=z4, image=(0,) * 8)
    with pytest.raises(ValueError):
        pullback(trivial_character(z4), const)


def test_pullback_refuses_a_surjective_map_that_is_not_a_homomorphism():
    """K4 -> Z4 by index is onto, but a*a = e goes to e while t*t = t2."""
    from repcheck.groups import GroupHom

    onto = GroupHom(source=K4, target=Z4, image=(0, 1, 2, 3))
    assert onto.is_surjective()
    with pytest.raises(ValueError, match="^pullback requires a verified homomorphism$"):
        pullback(trivial_character(Z4), onto)


def test_a_class_function_needs_one_value_per_class():
    with pytest.raises(ValueError, match="^expected 5 class values, got 4$"):
        ClassFunction(D4, (ONE,) * 4)


def test_projective_irreps_trivial_class():
    got = projective_irreps_d4(ProjectiveClassTag.TRIVIAL)
    assert [lbl for lbl, _ in got] == ["chi1", "chi2", "chi3", "chi4", "chi5"]
    assert [chi.dimension() for _, chi in got] == [1, 1, 1, 1, 2]


def test_projective_irreps_nontrivial_class():
    got = projective_irreps_d4(ProjectiveClassTag.NONTRIVIAL)
    assert [lbl for lbl, _ in got] == ["chiE1", "chiE3"]
    assert all(chi.dimension() == 2 for _, chi in got)
    # chiE2 is excluded because the central element acts as +1 on it
    e2 = char_table(builtin_group("D8")).by_label("chiE2")
    assert e2.values[4] == e2.values[0]


@pytest.mark.parametrize("tag", ["trivial", "non-trivial", None, 0])
def test_projective_irreps_refuse_a_tag_that_is_not_a_projective_class_tag(tag):
    # "trivial" is classify.TRIVIAL, the value of ProjectiveClassTag.TRIVIAL, not the tag
    with pytest.raises(TypeError, match=f"got {type(tag).__name__}$"):
        projective_irreps_d4(tag)


def test_push_to_quotient_of_conjugation_characters():
    t8 = char_table(builtin_group("D8"))
    for label in ("chiE1", "chiE3"):
        pushed = push_to_quotient(conj_character(t8.by_label(label)))
        assert pushed == cf(D4, 4, 2, 0, 0, 0)


def test_push_to_quotient_rejects_odd_functions():
    e1 = char_table(builtin_group("D8")).by_label("chiE1")
    with pytest.raises(NotDescendable):
        push_to_quotient(e1)  # chiE1(z4) = -2 != chiE1(e) = 2


def test_trivial_multiplicity_one_for_every_irreducible():
    for name in BUILTIN_NAMES:
        g = builtin_group(name)
        triv = trivial_character(g)
        for chi in char_table(g).irreducibles:
            assert inner_product(triv, conj_character(chi)) == ONE


def test_m1_equals_sum_of_squared_multiplicities():
    triv = trivial_character(D4)
    for ns in itertools.product(range(4), repeat=5):
        if sum(ns) == 0 or sum(ns) > 3:
            continue
        chi_u = None
        for n, chi in zip(ns, T4.irreducibles):
            for _ in range(n):
                chi_u = chi if chi_u is None else chi_u + chi
        assert inner_product(triv, conj_character(chi_u)) == CycloNum(sum(n * n for n in ns))


def test_chi5_multiplicity_of_conjugation_characters_is_even():
    for ns in itertools.product(range(3), repeat=5):
        deg = ns[0] + ns[1] + ns[2] + ns[3] + 2 * ns[4]
        if deg == 0 or deg > 4:
            continue
        chi_u = None
        for n, chi in zip(ns, T4.irreducibles):
            for _ in range(n):
                chi_u = chi if chi_u is None else chi_u + chi
        m5 = decompose(conj_character(chi_u), T4)[4]
        assert m5 == 2 * ns[4] * (ns[0] + ns[1] + ns[2] + ns[3])
        assert m5 % 2 == 0


@pytest.mark.parametrize("degrees,bound,count", [
    ((1, 1, 1, 1), 4, 69),
    ((1, 1, 1, 1, 2), 4, 85),
    ((1, 1, 1, 1, 2), 6, 295),
    ((2, 2), 4, 5),
])
def test_multiplicity_vectors_match_the_filtered_product(degrees, bound, count):
    """conj_sweep walks the filtered product in its order, and each entry is
    the conjugation character of the combination its ns names."""
    chars = {
        (1, 1, 1, 1): char_table(builtin_group("Z4")).irreducibles,
        (1, 1, 1, 1, 2): T4.irreducibles,
        (2, 2): tuple(chi for _, chi in projective_irreps_d4(ProjectiveClassTag.NONTRIVIAL)),
    }[degrees]
    assert tuple(chi.dimension() for chi in chars) == degrees
    ranges = (range(bound // d + 1) for d in degrees)
    expected = [
        ns for ns in itertools.product(*ranges)
        if 0 < sum(n * d for n, d in zip(ns, degrees)) <= bound
    ]
    sweep = conj_sweep(chars, bound)
    assert [ns for ns, _ in sweep] == expected
    assert len(expected) == count
    for ns, cchi in sweep:
        assert cchi == conj_character(combination(chars, ns)), ns


def test_each_sweep_is_made_once_per_character_list_and_bound():
    classify_all()
    assert all(r.ok for r in verify.run_all())
    misses = conj_sweep.cache_info().misses
    classify_all()
    assert all(r.ok for r in verify.run_all())
    assert conj_sweep.cache_info().misses == misses


@pytest.mark.parametrize("ns", [(1, 0, 0, 0, 0), (0, 0, 0, 0, 2), (1, 1, 0, 0, 1), (3, 0, 2, 0, 1)])
def test_combination_is_repeated_addition(ns):
    by_hand = None
    for n, chi in zip(ns, T4.irreducibles):
        for _ in range(n):
            by_hand = chi if by_hand is None else by_hand + chi
    assert combination(T4.irreducibles, ns) == by_hand


def test_combination_refuses_an_all_zero_or_misaligned_vector():
    with pytest.raises(ValueError):
        combination(T4.irreducibles, (0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        combination(T4.irreducibles, (1, 1))


def test_combination_refuses_entries_that_are_not_class_functions():
    # bare ints would sum to 1*1 + 2*2 = 5, which is no class function
    with pytest.raises(TypeError, match="got int$"):
        combination((1, 2), (1, 2))


@pytest.mark.parametrize("chars,name", [
    ((1, 2), "int"),
    ((T4.irreducibles[0], "chi2"), "str"),
])
def test_conj_sweep_refuses_entries_that_are_not_class_functions(chars, name):
    with pytest.raises(TypeError, match=f"needs ClassFunction entries, got {name}$"):
        conj_sweep(chars, 4)


def test_combination_refuses_a_negative_multiplicity():
    # range(-1) is empty, so without the check this would equal chi1
    with pytest.raises(ValueError, match=r"ns\[1\] = -1 is negative"):
        combination(T4.irreducibles, (1, -1, 0, 0, 0))


def test_a_class_function_from_a_list_or_generator_is_its_tuple_twin():
    twin = T4.by_label("chi5")
    for values in (list(twin.values), (v for v in twin.values)):
        f = ClassFunction(D4, values)
        assert type(f.values) is tuple
        assert f == twin and hash(f) == hash(twin)


@pytest.mark.parametrize("bad", [1, True, Fraction(1, 2), 1.0, "1"],
                         ids=["int", "bool", "Fraction", "float", "str"])
def test_a_class_function_refuses_values_that_are_not_cyclonum(bad):
    with pytest.raises(TypeError, match=f"got {type(bad).__name__}$"):
        ClassFunction(D4, (ONE,) * 4 + (bad,))


@pytest.mark.parametrize("corrupt,message", [
    (lambda labels, rows: (labels[:4], rows[:4]), "D4: 4 irreducibles for 5 classes"),
    # -chi2 is as orthonormal to every row as chi2: only its degree is wrong
    (lambda labels, rows: (labels, rows[:1] + (tuple(-x for x in rows[1]),) + rows[2:]),
     "D4: degree of chi2 is -1"),
    (lambda labels, rows: (labels, rows[:4] + ((2, 0, -2, 0, 1),)), "D4: <chi1,chi5> != 0"),
], ids=["row-count", "degree", "orthonormality"])
def test_corrupted_table_entry_is_caught_at_load(monkeypatch, corrupt, message):
    monkeypatch.setitem(_RAW_TABLES, "D4", corrupt(*_RAW_TABLES["D4"]))
    with pytest.raises(TableVerificationFailed, match=f"^{re.escape(message)}$"):
        char_table(D4)


@pytest.mark.parametrize("call,arg,wanted", [
    (char_table, "D4", "GroupTable"),
    (push_to_quotient, "x", "ClassFunction"),
    (push_to_quotient, (ONE,) * 7, "ClassFunction"),
])
def test_a_wrong_type_argument_is_a_type_error(call, arg, wanted):
    with pytest.raises(TypeError, match=f"needs a {wanted}, got {type(arg).__name__}$"):
        call(arg)


def test_char_table_rejects_unknown_group():
    c2 = GroupTable("C2", [[0, 1], [1, 0]], ["e", "g"])
    with pytest.raises(ValueError):
        char_table(c2)


def _corrupt_chi5(monkeypatch):
    labels, rows = _RAW_TABLES["D4"]
    bad_rows = tuple(
        row if i != 4 else (2, 0, -2, 0, 1) for i, row in enumerate(rows)
    )
    monkeypatch.setitem(_RAW_TABLES, "D4", (labels, bad_rows))


def test_warm_caches_cannot_hide_a_corrupted_table(monkeypatch):
    char_table(D4)
    classify_all()
    _corrupt_chi5(monkeypatch)
    with pytest.raises(TableVerificationFailed):
        char_table(D4)
    with pytest.raises(TableVerificationFailed) as excinfo:
        classify_all()
    # the seven targets are cached on the verified tables, so the reload that
    # keys that cache is the first to meet the corrupted row
    assert any(entry.name == "seven_families" for entry in excinfo.traceback)


def test_warm_caches_cannot_hide_a_corrupted_k4_table(monkeypatch):
    # K4's table is read only while the seven target characters are built
    classify_all()
    labels, rows = _RAW_TABLES["K4"]
    bad_rows = rows[:3] + ((1, -1, -1, 5),)
    monkeypatch.setitem(_RAW_TABLES, "K4", (labels, bad_rows))
    with pytest.raises(TableVerificationFailed):
        char_table(builtin_group("K4"))
    with pytest.raises(TableVerificationFailed) as excinfo:
        classify_all()
    assert any(entry.name == "seven_families" for entry in excinfo.traceback)


def test_warm_caches_cannot_hide_a_corrupted_d8_table(monkeypatch):
    # D8's table is read by the cached witness candidates of the D4 families
    classify_all()
    labels, rows = _RAW_TABLES["D8"]
    bad_rows = tuple(
        row if label != "chiE1" else (2, 0, 0, 0, -2, 0, 0)
        for label, row in zip(labels, rows)
    )
    monkeypatch.setitem(_RAW_TABLES, "D8", (labels, bad_rows))
    with pytest.raises(TableVerificationFailed):
        char_table(builtin_group("D8"))
    with pytest.raises(TableVerificationFailed):
        enumerate_witnesses(family_by_name("D4_125"))


def test_table_is_verified_once_per_distinct_content(monkeypatch):
    verified = []
    real = characters._verify_table

    def counting(t):
        verified.append(t.group.name)
        return real(t)

    monkeypatch.setattr(characters, "_verify_table", counting)
    characters._verified_table.cache_clear()
    assert char_table(D4) is char_table(D4)
    assert verified == ["D4"]

    labels, rows = _RAW_TABLES["D4"]
    _corrupt_chi5(monkeypatch)
    for _ in range(2):  # a failed verification is not cached
        with pytest.raises(TableVerificationFailed):
            char_table(D4)
    assert verified == ["D4"] * 3

    monkeypatch.setitem(_RAW_TABLES, "D4", (labels, rows))
    assert char_table(D4) == T4
    assert verified == ["D4"] * 3


_CHI5 = T4.by_label("chi5")
_TO_K4 = central_quotient(D4, builtin_group("K4"))


@pytest.mark.parametrize("bad", ["chi5", (ONE,) * 5, None], ids=["str", "tuple", "None"])
@pytest.mark.parametrize("name,call,wanted", [
    ("trivial_character", trivial_character, "GroupTable"),
    ("inner_product", lambda x: inner_product(x, _CHI5), "ClassFunction"),
    ("inner_product", lambda x: inner_product(_CHI5, x), "ClassFunction"),
    ("decompose", lambda x: decompose(x, T4), "ClassFunction"),
    ("decompose", lambda x: decompose(_CHI5, x), "CharTable"),
    ("conj_character", conj_character, "ClassFunction"),
    ("pullback", lambda x: pullback(x, _TO_K4), "ClassFunction"),
    ("pullback", lambda x: pullback(trivial_character(builtin_group("K4")), x), "GroupHom"),
], ids=["trivial_character", "inner_product-a", "inner_product-b", "decompose-f",
        "decompose-t", "conj_character", "pullback-f", "pullback-proj"])
def test_a_wrong_type_argument_names_the_function(name, call, wanted, bad):
    with pytest.raises(TypeError, match=f"^{name} needs a {wanted}, got {type(bad).__name__}$"):
        call(bad)
