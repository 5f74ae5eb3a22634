"""The seven families, their obstructions, and the final verdicts."""

import hashlib
import itertools
import json
import re

import pytest

import repcheck.classify as classify_module
from repcheck import characters, cli
from repcheck.characters import (
    _RAW_TABLES,
    CharTable,
    ClassFunction,
    ProjectiveClassTag,
    TableVerificationFailed,
    char_table,
    conj_character,
    inner_product,
    projective_irreps_d4,
    push_to_quotient,
    trivial_character,
)
from repcheck.classify import (
    FAMILY_NAMES,
    ClassifierInconsistency,
    Family,
    ObstructionKind,
    ObstructionRecord,
    WrongGroup,
    check_dimension_bound,
    check_parity,
    check_reflection_vanishing,
    check_z4_abelian,
    classify,
    classify_all,
    enumerate_witnesses,
    family_by_name,
    full_report,
    k4_target_pulled_to_d4,
    report_text,
    seven_families,
)
from repcheck.cyclo import CycloNum, ONE
from repcheck.groups import GroupHom, builtin_group, center, central_quotient, verify_hom
from test_cli import CLASSIFY_JSON_SHA256

D4 = builtin_group("D4")
T4 = char_table(D4)


def test_family_names_and_dimensions():
    fams = seven_families()
    assert tuple(f.name for f in fams) == FAMILY_NAMES
    assert tuple(f.dimension for f in fams) == (4, 4, 4, 4, 4, 6, 8)


def test_every_family_has_trivial_multiplicity_one():
    for f in seven_families():
        assert inner_product(trivial_character(f.group), f.target) == ONE


def test_a_family_is_its_name_and_target():
    """Its group and dimension are read off the target, so they cannot
    disagree with it; a name that is not a str and a target that is not a
    ClassFunction are refused, and so is a target whose identity value is
    not a positive integer."""
    f = Family("x", family_by_name("D4_125").target)
    assert f.group == D4 and f.dimension == 4
    v = classify(f)
    assert v.realizable and v.witness.character_label == "chiE1"
    for bad in ((1, 1, 0, 0, 1), None, "D4_125"):
        with pytest.raises(TypeError, match=f"^Family target must be ClassFunction, got {type(bad).__name__}$"):
            Family("x", bad)
    with pytest.raises(TypeError, match="^Family name must be str, got int$"):
        Family(5, f.target)
    for at_identity in (CycloNum(0, 0, 1, 0), CycloNum(-4)):  # i and -4
        target = ClassFunction(D4, (at_identity,) + (CycloNum(0),) * 4)
        with pytest.raises(ValueError, match="^family x: target value .* at the identity is not a positive integer$"):
            Family("x", target)


def test_family_by_name_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="nope"):
        family_by_name("nope")


_WRONG_TYPE = {"str": "D4_125", "tuple": ("D4_125",), "None": None, "float": 4.0}
_BOUNDARY = [
    (function, "Family", kind)
    for function in (enumerate_witnesses, check_dimension_bound, check_parity,
                     check_reflection_vanishing, check_z4_abelian)
    for kind in _WRONG_TYPE
] + [(family_by_name, "str", kind) for kind in ("tuple", "None", "float")]


@pytest.mark.parametrize("function,wanted,kind", _BOUNDARY,
                         ids=[f"{function.__name__}-{kind}" for function, _, kind in _BOUNDARY])
def test_a_wrong_type_argument_is_a_type_error_naming_the_function(function, wanted, kind):
    bad = _WRONG_TYPE[kind]
    with pytest.raises(TypeError, match=f"^{function.__name__} needs a {wanted}, got {type(bad).__name__}$"):
        function(bad)


_HOUSEHOLDER_LINEAR = ((1, -1, 1, 1, 1), (1, -1, 1, -1, -1), (1, 1, 1, 1, -1), (1, 1, 1, -1, 1))


@pytest.mark.parametrize("corrupt,message", [
    (lambda rows: rows[:3] + (rows[4], rows[3]), "D4_125: dimension 3 != 4"),
    (lambda rows: _HOUSEHOLDER_LINEAR + rows[4:], "D4_125: trivial character multiplicity != 1"),
], ids=["swapped", "householder"])
def test_d4_tables_that_pass_the_table_check_fail_the_families(monkeypatch, corrupt, message):
    """Both are orthonormal with positive integer degrees, so char_table
    takes them.  chi4 and chi5 swapped breaks D4_125's dimension.  K4's
    linear rows times a rational Householder reflection that fixes the
    degree column, pulled back to D4, leave chi1 + chi2 + chi5 with no
    trivial constituent."""
    labels, rows = _RAW_TABLES["D4"]
    monkeypatch.setitem(_RAW_TABLES, "D4", (labels, corrupt(rows)))
    char_table(D4)
    with pytest.raises(ClassifierInconsistency, match=f"^{re.escape(message)}$"):
        seven_families()


def test_family_groups():
    groups = {f.name: f.group.name for f in seven_families()}
    assert groups["K4_1234"] == "K4"
    assert groups["Z4_1234"] == "Z4"
    assert all(groups[n] == "D4" for n in FAMILY_NAMES[2:])


# ----------------------------------------------------------------------
# individual obstruction checks

def test_dimension_bound_fires_only_above_four():
    assert check_dimension_bound(family_by_name("D4_125")) is None
    rec = check_dimension_bound(family_by_name("D4_12345"))
    assert rec is not None and rec.kind is ObstructionKind.DIMENSION_BOUND
    assert "6" in rec.detail and "4" in rec.detail
    rec = check_dimension_bound(family_by_name("D4_123452"))
    assert rec is not None and "8" in rec.detail
    assert set(rec.scope) == {"trivial", "non-trivial"}


def test_z4_abelian_check():
    rec = check_z4_abelian(family_by_name("Z4_1234"))
    assert rec is not None
    assert rec.kind is ObstructionKind.ABELIAN_FIXED_PROJECTORS
    with pytest.raises(WrongGroup):
        check_z4_abelian(family_by_name("D4_125"))


def test_a_z4_target_is_ruled_out_only_where_no_linear_character_reaches_it():
    """m1 = sum n_i^2, so a target with m1 = 1 is reached by a single linear
    character exactly when it has dimension 1: the trivial character is
    |chi|^2 of each of chi1-chi4, |chi1 + chi2|^2 has m1 = 2 and no check
    claims it, and Z4_1234 (m1 = 1, dimension 4) stays obstructed."""
    z4 = builtin_group("Z4")
    v = classify(Family("trivial", trivial_character(z4)))
    assert v.realizable and not v.obstructions
    assert [w.character_label for w in v.witnesses] == ["chi1", "chi2", "chi3", "chi4"]
    chis = char_table(z4).irreducibles
    with pytest.raises(ClassifierInconsistency, match="^m1_two: obstructions fail to cover all classes$"):
        classify(Family("m1_two", conj_character(chis[0] + chis[1])))
    v = classify(family_by_name("Z4_1234"))
    assert [rec.kind for rec in v.obstructions] == [ObstructionKind.ABELIAN_FIXED_PROJECTORS]


def test_the_chi5_formula_is_checked_on_the_fusion_coefficients():
    """A table whose slot 4 holds a linear character breaks m5 = 2e(a+b+c+d):
    chi2 conj(chi3) is that character, so its coefficient is 1, not 0."""
    rows = T4.irreducibles
    swapped = CharTable(group=D4, labels=T4.labels, irreducibles=rows[:3] + (rows[4], rows[3]))
    with pytest.raises(ClassifierInconsistency, match=r"^chi5 fusion coefficient of \(chi2, chi3\) is 1, not 0$"):
        classify_module._check_chi5_fusion(swapped)
    classify_module._check_chi5_fusion(T4)


def test_the_classifier_makes_no_sweep(monkeypatch):
    """Its multiplicity formulas are proved from fusion coefficients, so a
    cold classify_all() builds one combination per family and no more."""
    built = []

    def counting(chars, ns):
        built.append(ns)
        return characters.combination(chars, ns)

    monkeypatch.setattr(classify_module, "combination", counting)
    classify_module._facts_of.cache_clear()
    classify_module._verdict.cache_clear()
    classify_all()
    assert built == [ns for _, ns, _ in classify_module._FAMILIES]


def test_z4_single_linear_character_has_m1_one_but_wrong_dimension():
    z4 = builtin_group("Z4")
    t = char_table(z4)
    chi = t.irreducibles[1]
    cchi = conj_character(chi)
    assert inner_product(trivial_character(z4), cchi) == ONE
    assert cchi.dimension() == 1 != 4


def test_z4_two_distinct_linear_characters_give_m1_two():
    z4 = builtin_group("Z4")
    t = char_table(z4)
    chi_u = t.irreducibles[0] + t.irreducibles[1]
    assert inner_product(trivial_character(z4), conj_character(chi_u)) == CycloNum(2)


@pytest.mark.parametrize("name,fires", [
    ("D4_125", True),   # m5 = 1: the trivial class is closed off
    ("D4_135", True),
    ("D4_145", True),
    ("D4_12345", True),
    ("D4_123452", False),  # m5 = 2 is even
])
def test_parity_check(name, fires):
    rec = check_parity(family_by_name(name))
    assert (rec is not None) == fires
    if fires:
        assert rec.kind is ObstructionKind.PARITY_OF_CHI5
        assert rec.scope == ("trivial",)


def test_parity_check_is_silent_on_the_k4_pullback_target():
    pulled = k4_target_pulled_to_d4(family_by_name("K4_1234").target)
    synthetic = Family("K4_pullback", pulled)
    assert check_parity(synthetic) is None  # chi5 multiplicity 0 is even


def test_the_d4_to_k4_map_is_one_verified_surjective_hom():
    hom = central_quotient(D4, builtin_group("K4"))
    assert isinstance(hom, GroupHom)
    assert (hom.source, hom.target) == (D4, builtin_group("K4"))
    assert verify_hom(hom) and hom.is_surjective()
    assert tuple(a for a in D4.elements() if hom(a) == 0) == center(D4)


def test_k4_target_pulled_to_d4_makes_one_pullback(monkeypatch):
    real, calls = classify_module.pullback, []

    def counting(f, hom):
        calls.append(hom)
        return real(f, hom)

    monkeypatch.setattr(classify_module, "pullback", counting)
    pulled = k4_target_pulled_to_d4(family_by_name("K4_1234").target)
    assert calls == [central_quotient(D4, builtin_group("K4"))]
    assert pulled == conj_character(T4.by_label("chi5"))


def test_classify_accepts_a_target_built_from_a_list():
    target = family_by_name("D4_125").target
    family = Family("D4_125", ClassFunction(D4, list(target.values)))
    assert family == family_by_name("D4_125")
    assert classify(family) == classify(family_by_name("D4_125"))


def test_parity_check_wrong_group():
    with pytest.raises(WrongGroup):
        check_parity(family_by_name("Z4_1234"))


def test_reflection_vanishing_check_wrong_group():
    with pytest.raises(WrongGroup, match="^reflection vanishing check needs D4, got Z4$"):
        check_reflection_vanishing(family_by_name("Z4_1234"))


def test_witness_enumeration_wrong_group():
    d8 = Family("d8", trivial_character(builtin_group("D8")))
    with pytest.raises(WrongGroup, match="^no witness enumeration for group D8$"):
        enumerate_witnesses(d8)


def test_reflection_vanishing_check():
    rec = check_reflection_vanishing(family_by_name("D4_135"))
    assert rec is not None and rec.scope == ("non-trivial",)
    assert "s -> 2" in rec.detail
    rec = check_reflection_vanishing(family_by_name("D4_145"))
    assert rec is not None and "rs -> 2" in rec.detail
    assert check_reflection_vanishing(family_by_name("D4_125")) is None


def test_a_non_trivial_class_that_does_not_vanish_on_reflections_is_refused(monkeypatch):
    """D8's trivial chi1 in place of the non-trivial class: |chi1|^2 is 1 on
    every class, so _facts_of refuses it before any verdict reads it."""
    original = classify_module.projective_irreps_d4
    chi1 = char_table(builtin_group("D8")).by_label("chi1")

    def with_chi1(tag):
        return (("chi1", chi1),) if tag is ProjectiveClassTag.NONTRIVIAL else original(tag)

    monkeypatch.setattr(classify_module, "projective_irreps_d4", with_chi1)
    classify_module._facts_of.cache_clear()
    with pytest.raises(ClassifierInconsistency, match=r"^\|chi1\|\^2 fails to vanish on a reflection class$"):
        classify_module._facts()
    monkeypatch.undo()
    classify_module._facts_of.cache_clear()


def test_reflection_values_from_the_table():
    # chi1 + chi2 + chi5 at s: 1 + (-1) + 0 = 0 and at rs: 0
    target = family_by_name("D4_125").target
    assert target.values[3] == CycloNum(0)
    assert target.values[4] == CycloNum(0)
    t135 = family_by_name("D4_135").target
    assert t135.values[3] == CycloNum(2)


# ----------------------------------------------------------------------
# witnesses

def test_witnesses_for_k4_family():
    ws = enumerate_witnesses(family_by_name("K4_1234"))
    assert [w.character_label for w in ws] == ["chi5"]
    assert ws[0].projective_class == "trivial"
    assert ws[0].conj_decomposition == (1, 1, 1, 1, 0)
    assert any("Pauli" in label for label in ws[0].also)


def test_witnesses_for_d4_125():
    ws = enumerate_witnesses(family_by_name("D4_125"))
    assert {w.character_label for w in ws} == {"chiE1", "chiE3"}
    assert all(w.projective_class == "non-trivial" for w in ws)
    assert all(w.conj_decomposition == (1, 1, 0, 0, 1) for w in ws)


@pytest.mark.parametrize("name", ["Z4_1234", "D4_135", "D4_145", "D4_12345", "D4_123452"])
def test_no_witnesses_for_obstructed_families(name):
    assert enumerate_witnesses(family_by_name(name)) == []


# ----------------------------------------------------------------------
# the classification itself

def test_realizable_families_are_exactly_the_two():
    verdicts = classify_all()
    realizable = [v.family.name for v in verdicts if v.realizable]
    assert realizable == ["K4_1234", "D4_125"]


def test_verdict_invariant():
    for v in classify_all():
        assert v.realizable == (v.witness is not None)
        assert v.realizable == (len(v.obstructions) == 0)
        if v.realizable:
            assert v.witness == v.witnesses[0]


def test_obstruction_kinds_per_family():
    kinds = {
        v.family.name: {rec.kind.value for rec in v.obstructions} for v in classify_all()
    }
    assert kinds["K4_1234"] == set()
    assert kinds["D4_125"] == set()
    assert kinds["Z4_1234"] == {"AbelianFixedProjectors"}
    assert kinds["D4_135"] == {"ParityOfChi5", "ReflectionVanishing"}
    assert kinds["D4_145"] == {"ParityOfChi5", "ReflectionVanishing"}
    # the dimension bound settles D4_12345 on its own; the parity failure
    # is a second, independent trivial-class proof and is reported too
    assert kinds["D4_12345"] == {"DimensionBound", "ParityOfChi5"}
    assert kinds["D4_123452"] == {"DimensionBound"}


def test_obstruction_scopes_cover_all_candidate_classes():
    for v in classify_all():
        if v.realizable:
            continue
        covered = {tag for rec in v.obstructions for tag in rec.scope}
        assert covered == set(v.family.candidate_classes()), v.family.name


def test_verdicts_do_not_depend_on_check_order():
    """Each check is a standalone predicate; assembling them in any order
    yields the same fired set."""
    f = family_by_name("D4_135")
    first = check_parity(f), check_reflection_vanishing(f), check_dimension_bound(f)
    second = check_dimension_bound(f), check_reflection_vanishing(f), check_parity(f)
    assert {r.kind for r in first if r} == {r.kind for r in second if r}


def test_battery_agrees_with_witness_enumeration():
    """Cross-validation: a class is killed by a named check iff it lacks a
    witness."""
    for f in seven_families():
        v = classify(f)  # raises ClassifierInconsistency on disagreement
        witness_classes = {w.projective_class for w in v.witnesses}
        for rec in v.obstructions:
            assert not (set(rec.scope) & witness_classes)


def test_an_obstruction_on_a_class_with_a_witness_raises(monkeypatch):
    """The battery and the witness enumeration are cross-checked: a check
    that rules out the class of D4_125's witnesses is a bug, not a verdict."""
    def fires(f):
        return ObstructionRecord(kind=ObstructionKind.REFLECTION_VANISHING, detail="planted",
                                 scope=("non-trivial",))

    monkeypatch.setitem(classify_module._CHECKS, "D4", (fires,))
    classify_module._verdict.cache_clear()
    with pytest.raises(ClassifierInconsistency, match=(
            r"^D4_125: obstruction fired for class\(es\) \['non-trivial'\] that hold a witness$")):
        classify(family_by_name("D4_125"))


def test_uncovered_class_raises_instead_of_a_canned_record():
    """A witness-less target that no named check rules out is a coverage
    gap, not an obstruction."""
    toy = Family("toy", T4.irreducibles[0] + T4.irreducibles[1])
    assert enumerate_witnesses(toy) == []
    with pytest.raises(ClassifierInconsistency, match="fail to cover"):
        classify(toy)


def test_a_warm_classify_all_computes_no_conjugation_character(monkeypatch):
    """Conjugation characters are read off the tables once per table
    content, not once per call."""
    classify_all()
    calls = []
    for module in (classify_module, characters):
        for name in ("conj_character", "push_to_quotient"):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(module, name, counting)
    assert [v.realizable for v in classify_all()] == [True, False, True] + [False] * 4
    assert calls == []


@pytest.mark.parametrize("check", [
    enumerate_witnesses, check_dimension_bound, check_parity, check_reflection_vanishing,
    check_z4_abelian, classify,
])
def test_every_classifier_function_meets_a_corrupted_k4_table(monkeypatch, check):
    """Each one reads all four tables, so none answers from warm caches
    over a table it does not itself use."""
    f = family_by_name("Z4_1234" if check is check_z4_abelian else "D4_125")
    classify_all()
    labels, rows = _RAW_TABLES["K4"]
    monkeypatch.setitem(_RAW_TABLES, "K4", (labels, rows[:3] + ((1, -1, -1, 5),)))
    with pytest.raises(TableVerificationFailed):
        check(f)


def test_a_warm_classify_all_runs_no_check_and_no_enumeration(monkeypatch):
    """Each verdict is memoized per family and table content, so a warm
    classify_all() reruns neither the battery nor the witness search."""
    classify_all()
    calls = []
    wrapped = {}
    for name in ("enumerate_witnesses", "check_dimension_bound", "check_z4_abelian",
                 "check_parity", "check_reflection_vanishing"):
        def counting(*args, _real=getattr(classify_module, name), _name=name):
            calls.append(_name)
            return _real(*args)
        wrapped[name] = counting
        monkeypatch.setattr(classify_module, name, counting)
    # the battery holds the checks themselves, not their module names
    for group, checks in classify_module._CHECKS.items():
        monkeypatch.setitem(classify_module._CHECKS, group,
                            tuple(wrapped[check.__name__] for check in checks))
    assert [v.realizable for v in classify_all()] == [True, False, True] + [False] * 4
    assert calls == []


def _corrupt_d8_chie1(monkeypatch):
    labels, rows = _RAW_TABLES["D8"]
    bad = (2, 0, 0, 0, -2, 0, 0)
    monkeypatch.setitem(_RAW_TABLES, "D8", (
        labels, tuple(bad if lbl == "chiE1" else row for lbl, row in zip(labels, rows))))


def _corrupt_z4_chi4(monkeypatch):
    labels, rows = _RAW_TABLES["Z4"]
    monkeypatch.setitem(_RAW_TABLES, "Z4", (labels, rows[:3] + ((1, -1, -1, 5),)))


@pytest.mark.parametrize("corrupt", [_corrupt_d8_chie1, _corrupt_z4_chi4], ids=["D8", "Z4"])
def test_a_warm_verdict_meets_a_corrupted_table(monkeypatch, corrupt):
    """The verdict memo is keyed on the verified tables, so a table changed
    after warm-up is read and refused, not answered from the memo."""
    f = family_by_name("D4_125")
    assert classify(f).realizable
    corrupt(monkeypatch)
    with pytest.raises(TableVerificationFailed):
        classify(f)


def test_an_uncovered_class_raises_on_every_call():
    """A raise is not memoized: the coverage gap shows again."""
    toy = Family("toy", T4.irreducibles[0] + T4.irreducibles[1])
    for _ in range(2):
        with pytest.raises(ClassifierInconsistency, match="fail to cover"):
            classify(toy)


@pytest.mark.parametrize("bad", ["D4_125", None, ["D4_125"]], ids=["str", "None", "list"])
def test_classify_refuses_what_is_not_a_family(bad):
    with pytest.raises(TypeError, match=f"classify needs a Family, got {type(bad).__name__}$"):
        classify(bad)


def test_memoized_verdicts_render_the_pinned_bytes_every_time(tmp_path):
    """Rendering must not mutate a shared verdict: three in-process runs
    write the same pinned report."""
    path = tmp_path / "report.json"
    for _ in range(3):
        assert cli.main(["classify", "--json", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CLASSIFY_JSON_SHA256


def test_brute_force_sweep_no_reducible_character_matches():
    """Re-derive the irreducibility consequence by exhaustion: sweep ALL
    degree <= 4 characters of both projective classes, not just the
    irreducible ones."""
    targets = {}
    for f in seven_families():
        if f.group.name == "D4":
            targets[f.name] = f.target
        elif f.group.name == "K4":
            targets[f.name] = k4_target_pulled_to_d4(f.target)

    hits = []
    for ns in itertools.product(range(5), range(5), range(5), range(5), range(3)):
        deg = ns[0] + ns[1] + ns[2] + ns[3] + 2 * ns[4]
        if deg == 0 or deg > 4:
            continue
        chi_u = None
        for n, chi in zip(ns, T4.irreducibles):
            for _ in range(n):
                chi_u = chi if chi_u is None else chi_u + chi
        cchi = conj_character(chi_u)
        for fname, target in targets.items():
            if cchi == target:
                assert sum(n * n for n in ns) == 1
                hits.append(fname)

    nt = projective_irreps_d4(ProjectiveClassTag.NONTRIVIAL)
    for m, n in itertools.product(range(3), repeat=2):
        if m + n == 0 or 2 * (m + n) > 4:
            continue
        chi_u = None
        for cnt, (_, chi) in zip((m, n), nt):
            for _ in range(cnt):
                chi_u = chi if chi_u is None else chi_u + chi
        cchi = push_to_quotient(conj_character(chi_u))
        for fname, target in targets.items():
            if cchi == target:
                assert m * m + n * n == 1
                hits.append(fname)

    assert sorted(hits) == ["D4_125", "D4_125", "K4_1234"]


# ----------------------------------------------------------------------
# reporting

def test_full_report_shape():
    rep = full_report()
    assert rep["realizable"] == ["K4_1234", "D4_125"]
    assert len(rep["families"]) == 7
    by_name = {e["family"]: e for e in rep["families"]}
    assert by_name["D4_125"]["chi_conj_decomposition"] == [1, 1, 0, 0, 1]
    assert by_name["K4_1234"]["chi_conj_decomposition"] == [1, 1, 1, 1, 0]
    assert by_name["K4_1234"]["witness"]["character_label"] == "chi5"
    assert by_name["K4_1234"]["witness"]["also"]  # both labels are reported
    assert by_name["Z4_1234"]["witness"] is None
    entry = by_name["D4_135"]
    assert entry["realizable"] is False
    assert {o["kind"] for o in entry["obstructions"]} == {
        "ParityOfChi5", "ReflectionVanishing"
    }


def test_full_report_is_deterministic():
    a = json.dumps(full_report(), sort_keys=True)
    b = json.dumps(full_report(), sort_keys=True)
    assert a == b


def test_report_text_final_line():
    assert report_text().splitlines()[-1] == "realizable: K4_1234, D4_125"
