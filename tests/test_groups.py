"""Group tables, conjugacy structure, quotients and homomorphisms."""

import re
from itertools import product

import pytest

from repcheck import groups, quantum
from repcheck.groups import (
    BUILTIN_NAMES,
    GroupError,
    GroupHom,
    GroupTable,
    IsoNotFound,
    builtin_group,
    center,
    central_quotient,
    conjugacy_classes,
    find_isomorphism,
    verify_hom,
)

EXPECTED_ORDERS = {"K4": 4, "Z4": 4, "D4": 8, "D8": 16, "Pauli1": 16}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_is_a_verified_group(name):
    g = builtin_group(name)
    assert g.order == EXPECTED_ORDERS[name]
    # identity and inverses (construction already did associativity + Latin)
    for a in g.elements():
        assert g.mul(0, a) == a == g.mul(a, 0)
        assert g.mul(a, g.inv(a)) == 0 == g.mul(g.inv(a), a)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_conjugacy_partition_against_definition(name):
    """Oracle: re-derive the orbit partition directly from the definition."""
    g = builtin_group(name)
    cc = conjugacy_classes(g)
    oracle = {tuple(sorted({g.conj(h, a) for h in g.elements()})) for a in g.elements()}
    assert set(cc.classes) == oracle
    assert sum(cc.sizes) == g.order
    for size in cc.sizes:
        assert g.order % size == 0  # orbit-stabilizer
    for i, cl in enumerate(cc.classes):
        assert cc.representatives[i] == min(cl)
        for x in cl:
            assert cc.class_of[x] == i


def test_d4_class_representative_order():
    d4 = builtin_group("D4")
    cc = conjugacy_classes(d4)
    assert [d4.word(r) for r in cc.representatives] == ["e", "r", "r2", "s", "rs"]
    # Table order (e, r, r2, s, rs) carries sizes (1,2,1,2,2); the size
    # multiset is (1,1,2,2,2)
    assert cc.sizes == (1, 2, 1, 2, 2)
    assert sorted(cc.sizes) == [1, 1, 2, 2, 2]
    assert len(cc) == 5


def test_d8_class_sizes_at_representatives():
    d8 = builtin_group("D8")
    cc = conjugacy_classes(d8)
    assert [d8.word(r) for r in cc.representatives] == ["e", "z", "z2", "z3", "z4", "h", "zh"]
    assert cc.sizes == (1, 2, 2, 2, 1, 4, 4)


@pytest.mark.parametrize("name", ["K4", "Z4"])
def test_abelian_groups_have_singleton_classes(name):
    cc = conjugacy_classes(builtin_group(name))
    assert cc.sizes == (1, 1, 1, 1)


def test_centers():
    d4 = builtin_group("D4")
    assert [d4.word(x) for x in center(d4)] == ["e", "r2"]
    assert center(builtin_group("K4")) == (0, 1, 2, 3)
    p1 = builtin_group("Pauli1")
    assert [p1.word(x) for x in center(p1)] == ["I", "iI", "-I", "-iI"]


def test_d8_center_by_exhaustive_commutation():
    d8 = builtin_group("D8")
    oracle = tuple(
        a for a in d8.elements()
        if all(d8.mul(a, b) == d8.mul(b, a) for b in d8.elements())
    )
    assert center(d8) == oracle
    assert [d8.word(x) for x in oracle] == ["e", "z4"]


def test_quotient_d4_by_center_is_k4():
    d4, k4 = builtin_group("D4"), builtin_group("K4")
    proj = central_quotient(d4, k4)
    assert (proj.source, proj.target) == (d4, k4)
    assert verify_hom(proj)
    assert proj.is_surjective()
    assert tuple(a for a in d4.elements() if proj(a) == 0) == center(d4)


def test_quotient_d8_by_center_is_d4():
    d8, d4 = builtin_group("D8"), builtin_group("D4")
    proj = central_quotient(d8, d4)
    assert verify_hom(proj) and proj.is_surjective()
    assert tuple(a for a in d8.elements() if proj(a) == 0) == center(d8)
    # the search picks z -> r and h -> s, the lifts the D4 classes are read at
    w = d8.element_words
    assert [d4.word(proj(w.index(x))) for x in ("z", "h")] == ["r", "s"]


def test_quotient_pauli_by_center_is_k4():
    p1 = builtin_group("Pauli1")
    proj = central_quotient(p1, builtin_group("K4"))
    assert verify_hom(proj)
    # the fibres are the phase classes of I, X, Y, Z (element 4*j + k is i^k sigma_j)
    fibres = [{proj(4 * j + k) for k in range(4)} for j in range(4)]
    assert all(len(f) == 1 for f in fibres)
    assert set().union(*fibres) == {0, 1, 2, 3}


def test_central_quotient_refuses_the_wrong_target():
    with pytest.raises(IsoNotFound):
        central_quotient(builtin_group("D4"), builtin_group("Z4"))  # D4/Z is K4
    with pytest.raises(IsoNotFound):
        central_quotient(builtin_group("D8"), builtin_group("K4"))  # order mismatch


def test_verify_hom_on_relation_respecting_map():
    # r -> a, s -> a lands in K4 because a^2 = e kills all relations
    d4, k4 = builtin_group("D4"), builtin_group("K4")
    a = k4.element_words.index("a")
    image = []
    for i in range(2):  # reflections block j = 0, 1
        for k in range(4):
            power = (k + i) % 2
            image.append(0 if power == 0 else a)
    h = GroupHom(source=d4, target=k4, image=tuple(image))
    assert verify_hom(h)


def test_verify_hom_rejects_relation_breaking_map():
    # r -> t, s -> e breaks s r s^-1 = r^-1 in Z4
    d4, z4 = builtin_group("D4"), builtin_group("Z4")
    image = tuple([k % 4 for k in range(4)] + [k % 4 for k in range(4)])
    h = GroupHom(source=d4, target=z4, image=image)
    assert not verify_hom(h)


def test_hom_kernel_and_injectivity():
    d4 = builtin_group("D4")
    proj = central_quotient(d4, builtin_group("K4"))
    assert {a for a in d4.elements() if proj.image[a] == 0} == set(center(d4))
    assert len(set(proj.image)) < d4.order


def test_find_isomorphism_produces_verified_hom():
    # D4 with its non-identity elements relabelled in reverse: a distinct table
    d4 = builtin_group("D4")
    perm = [0] + list(range(d4.order - 1, 0, -1))
    mul = [[0] * d4.order for _ in d4.elements()]
    for a in d4.elements():
        for b in d4.elements():
            mul[perm[a]][perm[b]] = perm[d4.mul(a, b)]
    words = [d4.word(perm.index(x)) for x in d4.elements()]
    relabelled = GroupTable("D4relabelled", mul, words)
    assert relabelled != d4
    iso = find_isomorphism(d4, relabelled)
    assert verify_hom(iso)
    assert len(set(iso.image)) == iso.source.order and iso.is_surjective()


def test_no_isomorphism_between_distinct_groups():
    with pytest.raises(IsoNotFound):
        find_isomorphism(builtin_group("Z4"), builtin_group("K4"))
    with pytest.raises(IsoNotFound):
        find_isomorphism(builtin_group("D4"), builtin_group("K4"))  # order mismatch
    # without the order check K4 -> D4 would return the embedding (0, 2, 4, 6)
    with pytest.raises(IsoNotFound, match=r"^\|K4\| = 4 != 8 = \|D4\|$"):
        find_isomorphism(builtin_group("K4"), builtin_group("D4"))


def test_element_orders_in_pauli_group():
    p1 = builtin_group("Pauli1")
    w = p1.element_words
    assert p1.element_order(w.index("iI")) == 4
    assert p1.element_order(w.index("X")) == 2
    assert p1.element_order(w.index("iX")) == 4  # (iX)^2 = -I
    assert p1.element_order(w.index("-I")) == 2


def test_pauli_phase_bookkeeping():
    # sigma_x sigma_y = i sigma_z and cyclic variants
    p1 = builtin_group("Pauli1")
    w = p1.element_words
    assert p1.mul(w.index("X"), w.index("Y")) == w.index("iZ")
    assert p1.mul(w.index("Y"), w.index("X")) == w.index("-iZ")
    assert p1.mul(w.index("Y"), w.index("Z")) == w.index("iX")
    assert p1.mul(w.index("Z"), w.index("X")) == w.index("iY")


def test_group_table_rejects_corrupt_data():
    with pytest.raises(GroupError):
        GroupTable("bad", [[0, 1], [1, 1]], ["e", "g"])  # not a Latin square
    with pytest.raises(GroupError):
        # Latin square, rows/cols permute, but no two-sided identity at 0
        GroupTable("bad", [[1, 0], [0, 1]], ["e", "g"])
    with pytest.raises(GroupError, match="bad: 3 words for order 2$"):
        GroupTable("bad", [[0, 1], [1, 0]], ["e", "g", "h"])
    with pytest.raises(GroupError, match="bad: multiplication table is not a Latin square$"):
        GroupTable("bad", [[0, 1], [0, 1]], ["e", "g"])  # rows permute, column 0 does not
    # columns permute, rows do not; without the row check it fails later, at
    # the identity
    with pytest.raises(GroupError, match="bad: multiplication table is not a Latin square$"):
        GroupTable("bad", [[0, 0], [1, 1]], ["e", "g"])
    # a Latin square with identity 0 whose product is not associative
    loop = [[int(c) for c in row] for row in ("01234", "10342", "24013", "32401", "43120")]
    with pytest.raises(GroupError, match="bad: associativity fails at "):
        GroupTable("bad", loop, ["e", "a", "b", "c", "d"])


def test_an_empty_table_is_no_group():
    """Order 0 has no identity: refused before find_isomorphism or dump can
    meet it."""
    with pytest.raises(GroupError, match="^e: a group needs an identity; the table is empty$"):
        GroupTable("e", [], [])
    with pytest.raises(GroupError, match="^x: a group needs an identity; the table is empty$"):
        quantum.matrix_group_mod_phases([], "x")


def _reduced_latin_squares(n):
    """Every n x n Latin square on 0..n-1 whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in rows]
            return
        i, j = cells[k]
        for v in range(n):
            if v not in rows[i][:j] and all(rows[r][j] != v for r in range(i)):
                rows[i][j] = v
                yield from fill(k + 1)
        rows[i][j] = None

    return list(fill(0))


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 56)])
def test_lights_test_agrees_with_the_cubic_loop_on_every_reduced_latin_square(n, count):
    """Oracle: the n^3 associativity loop.  Light's test checks the middle
    factor on generators only; it must accept and refuse the same squares,
    and name a triple at which the loop fails too."""
    squares = _reduced_latin_squares(n)
    assert len(squares) == count
    words = [str(x) for x in range(n)]
    for mul in squares:
        failures = [(a, b, c) for a, b, c in product(range(n), repeat=3)
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]]
        if not failures:
            GroupTable("sq", mul, words)
            continue
        with pytest.raises(GroupError, match=r"^sq: associativity fails at \(\d+,\d+,\d+\)$") as info:
            GroupTable("sq", mul, words)
        named = tuple(int(x) for x in str(info.value).split("(")[1].rstrip(")").split(","))
        assert named in failures


def test_find_isomorphism_keeps_its_images_on_all_five_uses(monkeypatch):
    """The images the all-pairs search found before generators sufficed:
    checking phi(x s) = phi(x) phi(s) on generators s picks the same first
    bijection, and verify_hom, which checks all pairs, accepts each one."""
    found = []

    def recording(a, b):
        h = find_isomorphism(a, b)
        found.append((a.name, b.name, h.image))
        assert verify_hom(h)
        return h

    monkeypatch.setattr(groups, "find_isomorphism", recording)
    monkeypatch.setattr(quantum, "find_isomorphism", recording)
    for big, small in (("D4", "K4"), ("D8", "D4"), ("Pauli1", "K4")):
        central_quotient.__wrapped__(builtin_group(big), builtin_group(small))
    quantum.correction_group_check()
    assert found == [
        ("D4/Z", "K4", (0, 1, 2, 3)),
        ("D8/Z", "D4", (0, 1, 2, 3, 4, 5, 6, 7)),
        ("Pauli1/Z", "K4", (0, 1, 2, 3)),
        ("corrections/phases", "D4", (0, 4, 6, 2, 1, 5, 7, 3)),
        ("paulis/phases", "K4", (0, 1, 2, 3)),
    ]


def test_one_table_under_other_words_is_another_group():
    k4 = builtin_group("K4")
    assert GroupTable("K4", k4.mul_table, ["1", "x", "y", "xy"]) != k4


def test_builtin_group_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown group 'Q8'"):
        builtin_group("Q8")


def test_dump_format():
    text = builtin_group("K4").dump().splitlines()
    assert text[0] == "group K4 order 4"
    assert len(text) == 5
    assert text[1].split() == ["e", "a", "b", "ab"]


def test_equal_copy_under_another_name_has_an_equal_hash():
    k4 = builtin_group("K4")
    copy = GroupTable("K4copy", k4.mul_table, k4.element_words)
    assert copy == k4
    assert hash(copy) == hash(k4)


_D4 = builtin_group("D4")


@pytest.mark.parametrize("bad", ["D4", (0, 1), None], ids=["str", "tuple", "None"])
@pytest.mark.parametrize("name,call,wanted", [
    ("center", center, "GroupTable"),
    ("conjugacy_classes", conjugacy_classes, "GroupTable"),
    ("verify_hom", verify_hom, "GroupHom"),
    ("find_isomorphism", lambda x: find_isomorphism(x, _D4), "GroupTable"),
    ("find_isomorphism", lambda x: find_isomorphism(_D4, x), "GroupTable"),
], ids=["center", "conjugacy_classes", "verify_hom", "find_isomorphism-source",
        "find_isomorphism-target"])
def test_a_wrong_type_argument_is_a_type_error_naming_the_function(name, call, wanted, bad):
    with pytest.raises(TypeError, match=f"^{name} needs a {wanted}, got {type(bad).__name__}$"):
        call(bad)


_K4 = builtin_group("K4")


@pytest.mark.parametrize("fields,message", [
    (("x", "x", "x"), "whose source is a GroupTable, got str"),
    ((_K4, None, (0, 1, 2, 3)), "whose target is a GroupTable, got NoneType"),
    ((_K4, _K4, [0, 1, 2, 3]), "whose image is a tuple, got list"),
    ((_K4, _K4, (0, 1, 2, "3")), "whose image holds int, got str"),
    ((_K4, _K4, (0, 1, 2, None)), "whose image holds int, got NoneType"),
], ids=["source", "target", "image-list", "image-str", "image-None"])
@pytest.mark.parametrize("name,call", [
    ("verify_hom", verify_hom),
    ("GroupHom.is_surjective", GroupHom.is_surjective),
], ids=["verify_hom", "is_surjective"])
def test_a_hom_with_wrong_field_types_is_a_type_error_naming_the_function(name, call, fields, message):
    """GroupHom stores its fields unchecked; the functions that read them
    refuse a wrong one by name instead of ending in AttributeError."""
    with pytest.raises(TypeError, match=f"^{re.escape(f'{name} needs a GroupHom {message}')}$"):
        call(GroupHom(*fields))
