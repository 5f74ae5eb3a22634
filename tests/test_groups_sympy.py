"""The built-in groups against sympy's permutation groups, an oracle that
shares no code with repcheck.groups."""

import pytest

from repcheck.groups import BUILTIN_NAMES, builtin_group, center, conjugacy_classes

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402
from sympy.combinatorics.named_groups import (  # noqa: E402
    AbelianGroup,
    CyclicGroup,
    DihedralGroup,
)


def regular_permutation_group(g):
    """g acting on itself by left multiplication, read off mul_table only."""
    return PermutationGroup([Permutation(list(row)) for row in g.mul_table])


def pauli_matrix_group():
    """{i^k sigma_j}, built from sympy matrices, acting on itself."""
    seeds = [sympy.ImmutableMatrix(m) for m in (
        [[0, 1], [1, 0]], [[0, -sympy.I], [sympy.I, 0]], [[1, 0], [0, -1]])]
    elements = [sympy.ImmutableMatrix.eye(2)]
    for x in elements:
        for s in seeds:
            if x * s not in elements:
                elements.append(x * s)
    return PermutationGroup([
        Permutation([elements.index(s * x) for x in elements]) for s in seeds
    ])


REFERENCE = {
    "K4": lambda: AbelianGroup(2, 2),
    "Z4": lambda: CyclicGroup(4),
    "D4": lambda: DihedralGroup(4),
    "D8": lambda: DihedralGroup(8),
    "Pauli1": pauli_matrix_group,
}


def invariants(group):
    """Order, sorted class sizes, centre order, sorted element orders."""
    return (
        group.order(),
        sorted(len(cl) for cl in group.conjugacy_classes()),
        group.center().order(),
        sorted(p.order() for p in group.elements),
    )


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_conjugacy_classes_centre_and_orders_match_sympy(name):
    g = builtin_group(name)
    assert invariants(regular_permutation_group(g)) == (
        g.order,
        sorted(conjugacy_classes(g).sizes),
        len(center(g)),
        sorted(g.element_order(a) for a in g.elements()),
    )


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_each_table_has_the_invariants_of_the_group_it_names(name):
    """Sympy's own construction of the group is the reference, so a table
    that is a group, but the wrong one, fails here."""
    assert invariants(regular_permutation_group(builtin_group(name))) == invariants(
        REFERENCE[name]()
    )
