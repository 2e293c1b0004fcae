from collections import Counter

import pytest

from cendlab.groups import (
    GroupError,
    GSet,
    cosets,
    coset_gset,
    cyclic_group,
    dihedral_group,
    disjoint_union,
    is_subgroup,
    is_transitive,
    make_group,
    make_gset,
    orbits,
    product_group,
    regular_gset,
    subgroups,
    symmetric_group,
    trivial_gset,
)


def test_cyclic_two():
    g = cyclic_group(2)
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_symmetric_three():
    g = symmetric_group(3)
    assert g.order == 6
    assert not g.is_abelian()


def test_explicit_table_without_inverses_rejected():
    with pytest.raises(GroupError):
        make_group({"kind": "table", "table": [[0, 1], [1, 1]]})


def test_explicit_table_identity_rejected():
    with pytest.raises(GroupError):
        make_group({"kind": "table", "table": [[1, 0], [0, 1]]})


def test_associativity_validated_exhaustively(target_groups):
    # construction re-checks N^3 triples; reaching here means they passed
    for g in target_groups.values():
        t = g.table
        for a in g.elements():
            for b in g.elements():
                for c in g.elements():
                    assert t[t[a][b]][c] == t[a][t[b][c]]


def test_dihedral_and_product_orders():
    assert dihedral_group(4).order == 8
    assert product_group(cyclic_group(2), cyclic_group(2)).order == 4
    assert make_group(
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]}
    ).order == 6


def test_subgroup_counts():
    assert len(subgroups(cyclic_group(2))) == 2
    assert len(subgroups(cyclic_group(4))) == 3
    assert len(subgroups(symmetric_group(3))) == 6
    assert len(subgroups(dihedral_group(4))) == 10
    assert len(subgroups(product_group(cyclic_group(2), cyclic_group(2)))) == 5


def test_subgroups_of_rank_three_elementary_abelian():
    # the whole group needs three generators and must still be listed
    g = product_group(product_group(cyclic_group(2), cyclic_group(2)), cyclic_group(2))
    subs = subgroups(g)
    assert len(subs) == 16
    assert tuple(range(8)) in subs


def test_subgroups_of_rank_four_elementary_abelian():
    # by order, C2^4 has 1, 15, 35, 15 and 1 subgroups (Gaussian binomials);
    # the proper ones of order 8 need three generators
    c2 = cyclic_group(2)
    g = product_group(product_group(c2, c2), product_group(c2, c2))
    subs = subgroups(g)
    assert len(subs) == len(set(subs)) == 67
    assert all(is_subgroup(g, sub) for sub in subs)
    assert Counter(len(sub) for sub in subs) == {1: 1, 2: 15, 4: 35, 8: 15, 16: 1}


def test_subgroups_are_subgroups(target_groups):
    for g in target_groups.values():
        for sub in subgroups(g):
            assert is_subgroup(g, sub)


def test_cosets_trivial_subgroup():
    g = cyclic_group(2)
    assert cosets(g, (0,)) == [(0,), (1,)]


def test_cosets_c4():
    g = cyclic_group(4)
    assert cosets(g, (0, 2)) == [(0, 2), (1, 3)]


def test_cosets_whole_group():
    g = cyclic_group(4)
    assert cosets(g, tuple(range(4))) == [(0, 1, 2, 3)]


def test_cosets_partition_sizes(target_groups):
    for g in target_groups.values():
        for sub in subgroups(g):
            cs = cosets(g, sub)
            assert sum(len(c) for c in cs) == g.order
            assert all(len(c) == len(sub) for c in cs)
            assert cs[0] == tuple(sub)
            assert [min(c) for c in cs] == sorted(min(c) for c in cs)


def test_cosets_reject_non_subgroup():
    with pytest.raises(GroupError):
        cosets(cyclic_group(4), (0, 1, 2))


def test_coset_gset_transitive(target_groups):
    for g in target_groups.values():
        for sub in subgroups(g):
            assert is_transitive(coset_gset(g, sub))


def test_single_point_transitive():
    assert is_transitive(trivial_gset(cyclic_group(4), 1))


def test_two_fixed_points_not_transitive():
    assert not is_transitive(trivial_gset(cyclic_group(4), 2))


def test_regular_gset_is_left_multiplication():
    g = symmetric_group(3)
    v = regular_gset(g)
    for a in g.elements():
        for b in g.elements():
            assert v.act(a, b) == g.mul(a, b)
    assert is_transitive(v)


def test_disjoint_union_orbits():
    g = cyclic_group(2)
    v = disjoint_union(regular_gset(g), regular_gset(g))
    assert v.size == 4
    assert len(orbits(v)) == 2


def test_gset_validation():
    g = cyclic_group(2)
    with pytest.raises(GroupError):
        GSet(g, [[1, 0], [0, 1]])  # identity must fix points
    with pytest.raises(GroupError):
        GSet(g, [[0, 1]])  # one row per group element


def test_make_gset_specs():
    g = cyclic_group(4)
    assert make_gset(g, "regular").size == 4
    assert make_gset(g, {"kind": "cosets", "subgroup": [0, 2]}).size == 2
    assert make_gset(g, {"kind": "trivial", "size": 3}).size == 3
    union = make_gset(
        g, {"kind": "union", "parts": ["regular", {"kind": "trivial", "size": 1}]}
    )
    assert union.size == 5 and not is_transitive(union)
