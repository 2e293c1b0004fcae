"""Acceptance suite: one test per numbered criterion, exact arithmetic
throughout, one PASS/FAIL line printed per criterion (run with -s).

Target instances: C2, C3, C4, C2xC2, S3, D4 with n in {1, 2} over the
rationals; the scalar tables with values in the fourth roots of unity run
over the conductor-4 cyclotomic field.
"""

import functools
import itertools
import random

import pytest

from cendlab.fields import CyclotomicField, QQ
from cendlab.groups import (
    cosets,
    coset_gset,
    cyclic_group,
    disjoint_union,
    is_transitive,
    regular_gset,
    subgroups,
    trivial_gset,
)
from cendlab.hopf import basis_h, hopf_axiom_report, left_shift
from cendlab.conformal import (
    Ambient,
    DiffElem,
    SubSpan,
    cend,
    check_axioms,
    check_axioms_exhaustive_basis,
    cur,
    diff_product,
    subalgebra_closure_witness,
)
from cendlab.linalg import Mat, SubspaceBasis
from cendlab.classify import (
    ChiFunction,
    analyze_Se,
    apply_automorphism,
    build_C,
    build_sigma,
    canonicalize,
    extract_chi,
    sigma_condition_witness,
    sigma_preserves_products,
    theta_bridge,
    validate_chi,
)
from cendlab.workbench import (
    construct_shift_functions,
    enrich,
    evaluate,
    fourier_span,
    ideal_shape,
    IdealShapeError,
    invariant_submodule_search,
    is_essential,
    is_irreducible,
    is_mn_a_left_ideal,
    is_simple,
    left_ideal_closure,
    matrix_coeff_ambient_dim,
    mn_a_left_ideal_closure,
    module_closure,
    module_unit,
    op_product,
    phi,
    phi_inv,
    right_annihilator,
    right_ideal_closure,
    wn_span,
)
from cendlab.weyl import (
    PolyT,
    WeylElem,
    locality_bound,
    weyl_act,
    weyl_algebra_relation,
    weyl_nprod,
)
from cendlab.operad import (
    LEAF,
    Partition,
    compose_associativity_witness,
    compose_partitions,
    node,
    pair_index,
    pair_of_index,
    parse_tree,
    tree_compose,
)

from conftest import TARGET_GROUPS, operator_algebra, rand_invertible


SMALL_GROUPS = {k: TARGET_GROUPS[k] for k in ("C2", "C3", "C4", "C2xC2")}
LARGE_GROUPS = {k: TARGET_GROUPS[k] for k in ("S3", "D4")}


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")

        return wrapper

    return deco


def q(x):
    return QQ.scalar(x)


def witness_span(amb):
    """H (x) T_e (x) M_n, the standard reducible subalgebra."""
    elems = [
        amb.basis_elem(g, 0, i, j)
        for g in amb.group.elements()
        for i in range(amb.n)
        for j in range(amb.n)
    ]
    return SubSpan.from_elems(amb, elems)


def rand_elem(amb, rng, terms=3):
    out = DiffElem(amb, {})
    for _ in range(terms):
        out = out + amb.basis_elem(
            rng.randrange(amb.group.order),
            rng.randrange(amb.gset.size),
            rng.randrange(amb.n),
            rng.randrange(amb.n),
        ).scale(q(rng.randint(-3, 3)))
    return out


@criterion(1, "hopf axioms")
def test_criterion_01_hopf_suite():
    for name, group in TARGET_GROUPS.items():
        report = hopf_axiom_report(group, QQ)
        assert report["passed"], (name, report["failures"][:3])


@criterion(2, "conformal axioms")
def test_criterion_02_conformal_axioms():
    for group in SMALL_GROUPS.values():
        for n in (1, 2):
            report = check_axioms_exhaustive_basis(Ambient(group, n))
            assert report["passed"], report["counterexample"]
    rng = random.Random(2024)
    for group in LARGE_GROUPS.values():
        for n in (1, 2):
            amb = Ambient(group, n)
            sample = [rand_elem(amb, rng) for _ in range(10)]
            report = check_axioms(sample, trials=200, seed=11)
            assert report["passed"], report["counterexample"]


@criterion(3, "operator/tensor transport")
def test_criterion_03_phi_transport():
    for group in SMALL_GROUPS.values():
        for n in (1, 2):
            amb = Ambient(group, n)
            basis = [amb.basis_elem(*t) for t in amb.basis_indices()]
            families = [phi_inv(x) for x in basis]
            for x, fam in zip(basis, families):
                assert phi(fam) == x
            for a, fa in zip(basis, families):
                for b, fb in zip(basis, families):
                    for g in group.elements():
                        assert phi(op_product(fa, fb, g)) == diff_product(a, b, g)


@criterion(4, "evaluation product law")
def test_criterion_04_product_law():
    for group in SMALL_GROUPS.values():
        for n in (1, 2):
            amb = Ambient(group, n)
            basis = [amb.basis_elem(*t) for t in amb.basis_indices()]
            evals = {
                (i, z): evaluate(x, z)
                for i, x in enumerate(basis)
                for z in group.elements()
            }
            for i, a in enumerate(basis):
                for j, b in enumerate(basis):
                    for g in group.elements():
                        ab = diff_product(a, b, g)
                        for z in group.elements():
                            lhs = evals[(i, g)] * evals[(j, z)]
                            assert lhs == evaluate(ab, group.mul(z, g))


@criterion(5, "full evaluation span")
def test_criterion_05_wn_dimension_and_closures():
    for group in TARGET_GROUPS.values():
        for n in (1, 2):
            amb = Ambient(group, n)
            C = cend(amb)
            N = amb.module_dim
            basis = wn_span(C)
            assert basis.dim == N * N, (group.name, n, basis.dim)
            ops = [
                op
                for e in C.basis_elems()
                for z in group.elements()
                if not (op := evaluate(e, z)).is_zero()
            ]
            seeds = [module_unit(amb, w, i) for w in amb.gset.points() for i in range(n)]
            assert [c.dim for c in module_closure(ops, seeds, N)] == [N] * len(seeds)


@criterion(6, "one-sided ideal shapes")
def test_criterion_06_ideal_shapes():
    rng = random.Random(66)
    cases = [(g, 1) for g in TARGET_GROUPS.values()]
    cases += [(TARGET_GROUPS["C2"], 2), (TARGET_GROUPS["C4"], 2)]
    for group, n in cases:
        amb = Ambient(group, n)
        for _ in range(3):
            gens = [rand_elem(amb, rng, terms=2) for _ in range(2)]
            if not any(gens):
                continue
            right = right_ideal_closure(gens)
            b0r = ideal_shape(right, "right")
            assert b0r.dim * group.order == right.dim
            left = left_ideal_closure(gens)
            b0l = ideal_shape(left, "left")
            assert b0l.dim * group.order == left.dim
            # the twist straightens the left ideal: F(H x B0) = ideal
            straightened = fourier_span(left, inverse=True)
            assert ideal_shape(straightened, "right").dim == b0l.dim
        w = witness_span(amb)
        with pytest.raises(IdealShapeError):
            ideal_shape(w, "left")


@criterion(7, "essential ideals")
def test_criterion_07_essentiality():
    rng = random.Random(77)
    for group in TARGET_GROUPS.values():
        for n in (1, 2):
            amb = Ambient(group, n)
            D = matrix_coeff_ambient_dim(amb)
            agreements = 0
            while agreements < 50:
                seed_vecs = []
                for _ in range(rng.randint(1, 2)):
                    vec = [QQ.zero] * D
                    for _ in range(rng.randint(1, 3)):
                        vec[rng.randrange(D)] = q(rng.randint(-2, 2))
                    seed_vecs.append(vec)
                if not any(any(v) for v in seed_vecs):
                    continue
                b0 = mn_a_left_ideal_closure(amb, seed_vecs)
                if b0.dim == 0:
                    continue
                ann = right_annihilator(amb, b0)
                whole = b0.dim == D
                assert (ann.dim == 0) == whole
                assert is_essential(amb, b0) == (whole, whole)
                agreements += 1
    # the three hand-checked instances over the two-element group
    amb = Ambient(TARGET_GROUPS["C2"], 1)
    whole = SubspaceBasis.from_vectors(2, [[q(1), q(0)], [q(0), q(1)]])
    assert is_essential(amb, whole) == (True, True)
    kte = mn_a_left_ideal_closure(amb, [[q(1), q(0)]])
    assert right_annihilator(amb, kte).rows == ((q(0), q(1)),)
    assert is_essential(amb, kte) == (False, False)
    dense = mn_a_left_ideal_closure(amb, [[q(1), q(2)]])
    assert dense.dim == 2 and is_essential(amb, dense) == (True, True)


@criterion(8, "simplicity vs transitivity")
def test_criterion_08_simplicity():
    for group in TARGET_GROUPS.values():
        gsets = [regular_gset(group)]
        gsets += [coset_gset(group, sub) for sub in subgroups(group)]
        gsets.append(disjoint_union(regular_gset(group), trivial_gset(group, 1)))
        gsets.append(trivial_gset(group, 2))
        for gset in gsets:
            for n in (1, 2):
                verdict, witness = is_simple(Ambient(group, n, gset=gset))
                assert verdict == is_transitive(gset)
                if not verdict:
                    assert witness is not None and 0 < witness.dim < (
                        group.order * gset.size * n * n
                    )


@criterion(9, "irreducibility decisions")
def test_criterion_09_irreducibility():
    rng = random.Random(99)
    # every built span from the classification sweep is irreducible
    for group in TARGET_GROUPS.values():
        chi = ChiFunction.constant_one(group, QQ)
        for sub in subgroups(group):
            for n in (1, 2):
                C = build_C(group, sub, chi, n, QQ)
                res = is_irreducible(C)
                assert res.irreducible and res.enriched_dim == Ambient(group, n).dim
    # reducible witnesses: proper enrichment and a rational certificate
    for group in TARGET_GROUPS.values():
        for n in (1, 2):
            amb = Ambient(group, n)
            w = witness_span(amb)
            res = is_irreducible(w)
            assert not res.irreducible
            assert res.enriched_dim < amb.dim
            assert res.certificate is not None
            assert 0 < res.certificate.dim < amb.module_dim
    # agreement with the operator-side closure oracle when n|G| <= 8
    for group in TARGET_GROUPS.values():
        for n in (1, 2):
            if n * group.order > 8:
                continue
            amb = Ambient(group, n)
            N = amb.module_dim
            spans = [
                cend(amb),
                cur(group, n),
                witness_span(amb),
                build_C(
                    group,
                    subgroups(group)[rng.randrange(len(subgroups(group)))],
                    ChiFunction.constant_one(group, QQ),
                    n,
                    QQ,
                ),
            ]
            for span in spans:
                oracle = operator_algebra(span).dim == N * N
                assert is_irreducible(span).irreducible == oracle


def _zeta4_chi_search(group, sub, field, node_cap=300000):
    """Depth-first search over tables valued in the fourth roots of unity,
    normalized to 1 at the coset representatives, pruned by the coset-ratio
    constraints; returns the first nontrivial valid table or None."""
    cos = cosets(group, sub)
    reps = {min(c) for c in cos}
    rep_of = {}
    for c in cos:
        for gamma in c:
            rep_of[gamma] = min(c)
    free = [
        (g, gamma)
        for g in group.elements()
        for gamma in group.elements()
        if gamma not in reps
    ]
    if len(free) > 8:
        return None
    roots = [field.zeta(1), field.zeta(2), field.zeta(3), field.one]
    order = {pos: idx for idx, pos in enumerate(free)}

    def pos_index(g, gamma):
        return -1 if gamma in reps else order[(g, gamma)]

    constraints = []
    for g in group.elements():
        for h in group.elements():
            gh = group.mul(g, h)
            ginv = group.inv(g)
            for c in cos:
                triple = []
                last = -1
                for gamma in c:
                    spots = (
                        (g, gamma),
                        (h, group.mul(ginv, gamma)),
                        (gh, gamma),
                    )
                    triple.append(spots)
                    last = max(last, max(pos_index(*s) for s in spots))
                constraints.append((last, triple))
    by_depth = {}
    for last, triple in constraints:
        by_depth.setdefault(last, []).append(triple)

    one = field.one
    table = [[one] * group.order for _ in group.elements()]
    nodes = [0]

    def value(g, gamma):
        return table[g][gamma]

    def consistent(triples):
        for spots_list in triples:
            ref = None
            for s1, s2, s3 in spots_list:
                ratio = value(*s1) * value(*s2) / value(*s3)
                if ref is None:
                    ref = ratio
                elif ratio != ref:
                    return False
        return True

    # a constraint with all spots at representatives must hold already
    for triple in by_depth.get(-1, []):
        if not consistent([triple]):
            return None

    def dfs(depth):
        nodes[0] += 1
        if nodes[0] > node_cap:
            return None
        if depth == len(free):
            nontrivial = any(
                table[g][gamma] != one
                for g in group.elements()
                for gamma in group.elements()
            )
            return [row[:] for row in table] if nontrivial else None
        g, gamma = free[depth]
        for root in roots:
            table[g][gamma] = root
            if all(
                consistent([triple]) for triple in by_depth.get(depth, [])
            ):
                found = dfs(depth + 1)
                if found is not None:
                    return found
        table[g][gamma] = one
        return None

    found = dfs(0)
    return None if found is None else ChiFunction(group, found)


@criterion(10, "classification pipeline")
def test_criterion_10_classification():
    rng = random.Random(1010)
    zeta_field = CyclotomicField(4)
    for group in TARGET_GROUPS.values():
        for sub in subgroups(group):
            for n in (1, 2):
                cases = [(QQ, ChiFunction.constant_one(group, QQ))]
                if group.order == 2 and len(sub) == 2:
                    cases.append(
                        (QQ, ChiFunction(group, [[q(1), q(1)], [q(1), q(-1)]]))
                    )
                if n == 1:
                    found = _zeta4_chi_search(group, sub, zeta_field)
                    if found is not None:
                        cases.append((zeta_field, found))
                for field, chi in cases:
                    ok, _ = validate_chi(group, sub, chi)
                    assert ok
                    C = build_C(group, sub, chi, n, field)
                    assert C.dim == group.order * len(cosets(group, sub)) * n * n
                    assert subalgebra_closure_witness(C) is None
                    assert is_irreducible(C).irreducible
                    amb = Ambient(group, n, field=field)
                    if field is QQ:
                        us = [
                            rand_invertible(rng, n) for _ in group.elements()
                        ]
                    else:
                        us = [
                            Mat([[field.zeta(rng.randrange(4))]])
                            for _ in group.elements()
                        ]
                    sigma = build_sigma(us, amb)
                    image = apply_automorphism(sigma, C)
                    sub_out, chi_out, sigma_out = canonicalize(image)
                    assert sub_out == tuple(sub)
                    ok, _ = validate_chi(group, sub_out, chi_out)
                    assert ok
                    rebuilt = build_C(group, sub_out, chi_out, n, field)
                    assert apply_automorphism(sigma_out, image) == rebuilt
    # the documented invalid table is rejected with its witness
    g4 = TARGET_GROUPS["C4"]
    vals = [[q(1)] * 4 for _ in range(4)]
    vals[1][2] = q(-1)
    ok, witness = validate_chi(g4, (0, 2), ChiFunction(g4, vals))
    assert not ok
    assert witness["g"] == 1 and witness["h"] == 1
    assert {witness["gamma"], witness["gamma2"]} == {0, 2}
    assert {witness["ratio"], witness["ratio2"]} == {q(1), q(-1)}


@criterion(11, "automorphism machinery")
def test_criterion_11_automorphisms():
    rng = random.Random(1111)
    for group in SMALL_GROUPS.values():
        for n in (1, 2):
            amb = Ambient(group, n)
            sigma = build_sigma(
                [rand_invertible(rng, n) for _ in group.elements()], amb
            )
            assert sigma_condition_witness(sigma) is None
            assert sigma_preserves_products(sigma)
            theta, report = theta_bridge(amb, sigma.apply_elem)
            assert report["multiplicative"] and report["action_invariant"]


@criterion(12, "affine-line algebra")
def test_criterion_12_weyl():
    v = WeylElem.monomial(QQ, 0, 1)
    assert weyl_nprod(v, v, 0) == WeylElem.monomial(QQ, 0, 2)
    assert weyl_nprod(v, v, 1) == v
    for n in range(2, 6):
        assert not weyl_nprod(v, v, n)
    monos = [
        WeylElem.monomial(QQ, r, s) for r in range(4) for s in range(4)
    ]
    for a in monos:
        for b in monos:
            bound = locality_bound(a, b)
            for m in range(bound + 2):
                lhs = weyl_nprod(a.t_mult(), b, m)
                rhs = (
                    weyl_nprod(a, b, m - 1).scale(q(-m))
                    if m
                    else WeylElem.zero(QQ)
                )
                assert lhs == rhs
                assert weyl_nprod(a, b.t_mult(), m) == (
                    weyl_nprod(a, b, m).t_mult() - lhs
                )
            assert not weyl_nprod(a, b, bound)
    report = weyl_algebra_relation(10, QQ)
    assert report["passed"]
    assert [d["degree"] for d in report["degrees"]] == list(range(10))
    one = WeylElem.monomial(QQ, 0, 0)
    for s in range(9):
        p = PolyT.monomial(QQ, 10, s)
        lhs = weyl_act(one, weyl_act(v, p, 0), 1) - weyl_act(
            v, weyl_act(one, p, 1), 0
        )
        assert lhs == p


@criterion(13, "partition and tree calculus")
def test_criterion_13_operad():
    def partitions(m, k):
        if k == 1:
            yield (m,)
            return
        for first in range(1, m - k + 2):
            for rest in partitions(m - first, k - 1):
                yield (first,) + rest

    for m in range(1, 9):
        for k in range(1, m + 1):
            for parts in partitions(m, k):
                pi = Partition(parts)
                seen = []
                for i in range(1, k + 1):
                    for j in range(1, parts[i - 1] + 1):
                        flat = pair_index(pi, i, j)
                        assert pair_of_index(pi, flat) == (i, j)
                        seen.append(flat)
                assert seen == list(range(1, m + 1))
    tau = Partition((1, 2, 1))
    pi = Partition((2, 1))
    tp, subs = compose_partitions(tau, pi)
    assert tp == Partition((3, 1))
    assert [s.parts for s in subs] == [(1, 2), (1,)]
    rng = random.Random(13)

    def random_tree(leaves):
        if leaves == 1:
            return LEAF
        cut = rng.randint(1, leaves - 1)
        return node(random_tree(cut), random_tree(leaves - cut))

    for _ in range(60):
        n_mid = rng.randint(1, 3)
        pi = Partition([rng.randint(1, 2) for _ in range(n_mid)])
        tau = Partition([rng.randint(1, 2) for _ in range(pi.total)])
        if tau.total > 8:
            continue
        phi_t = random_tree(n_mid)
        chis = [random_tree(p) for p in pi.parts]
        psis = [random_tree(p) for p in tau.parts]
        assert (
            compose_associativity_witness(phi_t, chis, psis, tau, pi) is None
        )
    mul = parse_tree("x1x2")
    assert tree_compose(mul, [LEAF, mul], Partition((1, 2))).render() == "x1(x2x3)"
    assert tree_compose(mul, [mul, LEAF], Partition((2, 1))).render() == "(x1x2)x3"


@criterion(14, "shift-function determinants")
def test_criterion_14_shift_determinant():
    for group in TARGET_GROUPS.values():
        fs, z = construct_shift_functions(
            group, list(group.elements()), list(group.elements()), QQ
        )
        mat = Mat(
            [
                [left_shift(gi, f).coeffs[z] for f in fs]
                for gi in group.elements()
            ]
        )
        assert mat.det() == q(1)
