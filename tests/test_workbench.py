import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cendlab.fields import QQ, CyclotomicField
from cendlab.groups import cyclic_group, coset_gset, symmetric_group, subgroups, trivial_gset, disjoint_union, regular_gset
from cendlab.hopf import basis_h, one_h
from cendlab.classify import ChiFunction, apply_automorphism, build_sigma, chi_span, grading
from cendlab.conformal import Ambient, DiffElem, SubSpan, cend, cur, diff_product, subalgebra_closure_witness
from cendlab.linalg import BlockOp, EchelonBuilder, Mat, SubspaceBasis, dense, dense_blocks, span_closure
from cendlab.workbench import (
    ConfOperator,
    IdealShapeError,
    NotTInvariantError,
    WorkbenchError,
    check_Tinvariance,
    construct_shift_functions,
    enrich,
    evaluate,
    fourier,
    fourier_inv,
    fourier_span,
    gamma_op,
    ideal_shape,
    invariant_submodule_search,
    is_essential,
    is_irreducible,
    is_mn_a_left_ideal,
    is_simple,
    left_ideal_closure,
    left_shift_family,
    left_shift_op,
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

from conftest import (
    centralizer,
    first_slot_components,
    operator_algebra,
    pairwise_product_rule,
    rand_invertible,
)


def q(x):
    return QQ.scalar(x)


@pytest.fixture
def c2_amb():
    return Ambient(cyclic_group(2), 1)


def witness_span(amb):
    """H (x) T_e (x) M_n, the standard reducible subalgebra."""
    elems = [
        amb.basis_elem(g, 0, i, j)
        for g in amb.group.elements()
        for i in range(amb.n)
        for j in range(amb.n)
    ]
    return SubSpan.from_elems(amb, elems)


def test_evaluate_example(c2_amb):
    x = c2_amb.basis_elem(1, 0, 0, 0)
    m = evaluate(x, 1)
    assert m.to_mat().rows == ((q(0), q(1)), (q(0), q(0)))
    assert evaluate(x, 0).is_zero()


def test_evaluate_left_shift_element(c2_amb):
    one = DiffElem(
        c2_amb, {(g, w): Mat.identity(1, QQ) for g in range(2) for w in range(2)}
    )
    for z in range(2):
        assert evaluate(one, z) == left_shift_op(c2_amb, z)


def test_phi_of_left_shift_family(c2_amb):
    one = DiffElem(
        c2_amb, {(g, w): Mat.identity(1, QQ) for g in range(2) for w in range(2)}
    )
    assert phi(left_shift_family(c2_amb)) == one


def test_phi_roundtrip_on_basis(c2_amb):
    for t in c2_amb.basis_indices():
        x = c2_amb.basis_elem(*t)
        assert phi(phi_inv(x)) == x


def test_phi_support_example(c2_amb):
    family = ConfOperator(
        c2_amb,
        [gamma_op(basis_h(c2_amb.group, 0, QQ), c2_amb), Mat.zero(2, 2, QQ)],
    )
    assert phi(family) == c2_amb.basis_elem(0, 0, 0, 0)


def test_phi_rejects_non_invariant(c2_amb):
    const = ConfOperator(
        c2_amb, [gamma_op(basis_h(c2_amb.group, 0, QQ), c2_amb)] * 2
    )
    ok, witness = check_Tinvariance(const)
    assert not ok and witness["g"] == 1
    with pytest.raises(NotTInvariantError):
        phi(const)


def test_tinvariance_of_shift_and_zero(c2_amb):
    ok, _ = check_Tinvariance(left_shift_family(c2_amb))
    assert ok
    zero = ConfOperator(c2_amb, [Mat.zero(2, 2, QQ)] * 2)
    ok, _ = check_Tinvariance(zero)
    assert ok


def test_op_product_shift_family(c2_amb):
    L = left_shift_family(c2_amb)
    for g in range(2):
        prod = op_product(L, L, g)
        for z in range(2):
            assert prod.at(z) == left_shift_op(c2_amb, z)


def test_op_product_transports(c2_amb):
    group = c2_amb.group
    basis = [c2_amb.basis_elem(*t) for t in c2_amb.basis_indices()]
    for a in basis:
        for b in basis:
            for g in group.elements():
                lhs = phi(op_product(phi_inv(a), phi_inv(b), g))
                assert lhs == diff_product(a, b, g)


def test_product_law_matrices():
    for group, n in ((cyclic_group(4), 1), (cyclic_group(2), 2)):
        amb = Ambient(group, n)
        basis = [amb.basis_elem(*t) for t in amb.basis_indices()]
        for a in basis:
            for b in basis:
                for g in group.elements():
                    ab = diff_product(a, b, g)
                    for z in group.elements():
                        assert evaluate(a, g) * evaluate(b, z) == evaluate(
                            ab, group.mul(z, g)
                        )


def test_injectivity_of_evaluation(rng):
    # a nonzero element has a nonzero evaluation somewhere (normal form)
    amb = Ambient(symmetric_group(3), 2)
    for _ in range(25):
        x = DiffElem(amb, {})
        for _ in range(3):
            g = rng.randrange(6)
            w = rng.randrange(6)
            x = x + amb.basis_elem(g, w, rng.randrange(2), rng.randrange(2)).scale(
                q(rng.randint(-3, 3))
            )
        if x:
            assert any(
                not evaluate(x, z).is_zero() for z in amb.group.elements()
            )
        else:
            assert all(evaluate(x, z).is_zero() for z in amb.group.elements())


def test_fourier_examples(c2_amb):
    assert fourier(c2_amb.basis_elem(1, 0, 0, 0)) == c2_amb.basis_elem(1, 1, 0, 0)
    h_one = DiffElem(
        c2_amb, {(1, w): Mat.identity(1, QQ) for w in range(2)}
    )
    assert fourier(h_one) == h_one
    for t in c2_amb.basis_indices():
        x = c2_amb.basis_elem(*t)
        assert fourier_inv(fourier(x)) == x


def test_gamma_examples(c2_amb):
    assert gamma_op(one_h(c2_amb.group, QQ), c2_amb).to_mat() == Mat.identity(2, QQ)
    proj = gamma_op(basis_h(c2_amb.group, 0, QQ), c2_amb)
    assert proj.to_mat().rows == ((q(1), q(0)), (q(0), q(0)))
    h = basis_h(c2_amb.group, 0, QQ).scale(q(2)) + basis_h(c2_amb.group, 1, QQ).scale(q(-5))
    elem = DiffElem(c2_amb, {(g, 0): Mat.identity(1, QQ).scale(h.coeffs[0]) for g in range(2)})
    elem = elem + DiffElem(c2_amb, {(g, 1): Mat.identity(1, QQ).scale(h.coeffs[1]) for g in range(2)})
    assert gamma_op(h, c2_amb) == evaluate(elem, 0)


def test_wn_span_dimensions(c2_amb):
    assert wn_span(cend(c2_amb)).dim == 4
    assert wn_span(witness_span(c2_amb)).dim == 2
    # evaluations of the current subalgebra are the shifts, dim |G| n^2
    assert wn_span(cur(cyclic_group(2), 1)).dim == 2


def test_wn_refuses_non_closed_span(c2_amb):
    gens = SubSpan.from_elems(c2_amb, [c2_amb.basis_elem(0, 0, 0, 0) + c2_amb.basis_elem(1, 1, 0, 0)])
    with pytest.raises(WorkbenchError):
        wn_span(gens)


def test_wn_of_enriched_is_gamma_times_wn(c2_amb):
    C = cur(cyclic_group(2), 1)
    lhs = wn_span(enrich(C))
    gammas = [gamma_op(basis_h(c2_amb.group, u, QQ), c2_amb).to_mat() for u in range(2)]
    vecs = []
    for v in wn_span(C).rows:
        m = Mat.from_flat(list(v), 2, 2)
        for g in gammas:
            vecs.append((g * m).flatten())
    rhs = SubspaceBasis.from_vectors(4, vecs)
    assert lhs == rhs


def test_enrich_examples(c2_amb):
    assert enrich(cend(c2_amb)).is_full()
    assert enrich(cur(cyclic_group(2), 1)).is_full()
    w = witness_span(c2_amb)
    assert enrich(w) == w and w.dim == 2


def test_is_irreducible_cases(c2_amb):
    assert is_irreducible(cend(c2_amb)).irreducible
    assert is_irreducible(cur(cyclic_group(2), 1)).irreducible
    res = is_irreducible(witness_span(c2_amb))
    assert not res.irreducible
    assert res.certificate is not None
    # certificate is the submodule spanned by the identity-point coordinate
    assert res.certificate.rows == ((q(1), q(0)),)


def test_certificate_invariance(c2_amb):
    w = witness_span(c2_amb)
    cert = invariant_submodule_search(w)
    ops = [gamma_op(basis_h(c2_amb.group, u, QQ), c2_amb) for u in range(2)]
    ops += [evaluate(e, z) for e in w.basis_elems() for z in range(2)]
    for row in cert.rows:
        for op in ops:
            assert cert.contains(op.apply(list(row)))


def test_operator_algebra_oracle(c2_amb):
    assert operator_algebra(cend(c2_amb)).dim == 4
    assert operator_algebra(cur(cyclic_group(2), 1)).dim == 4
    assert operator_algebra(witness_span(c2_amb)).dim < 4


def test_module_closure_full_for_cend(c2_amb):
    C = cend(c2_amb)
    ops = [evaluate(e, z) for e in C.basis_elems() for z in range(2)]
    ops = [op for op in ops if not op.is_zero()]
    seeds = [module_unit(c2_amb, w, 0) for w in range(2)]
    assert [c.dim for c in module_closure(ops, seeds, 2)] == [2, 2]


def test_right_ideal_closure_example(c2_amb):
    gen = DiffElem(
        c2_amb, {(g, 0): Mat.identity(1, QQ) for g in range(2)}
    )  # 1 (x) T_e (x) 1
    closure = right_ideal_closure([gen])
    assert closure.dim == 2
    b0 = ideal_shape(closure, "right")
    assert b0.dim == 1
    assert b0.rows == ((q(1), q(0)),)


def test_left_ideal_closure_of_identity_is_everything(c2_amb):
    one = DiffElem(
        c2_amb, {(g, w): Mat.identity(1, QQ) for g in range(2) for w in range(2)}
    )
    closure = left_ideal_closure([one])
    assert closure.is_full()


def test_left_shape_failure_certifies_non_ideal(c2_amb):
    w = witness_span(c2_amb)
    with pytest.raises(IdealShapeError):
        ideal_shape(w, "left")


def test_right_shape_of_witness(c2_amb):
    w = witness_span(c2_amb)
    b0 = ideal_shape(w, "right")
    assert b0.dim == 1


def test_random_ideal_closures_factor(rng):
    for group, n in ((cyclic_group(4), 1), (symmetric_group(3), 1), (cyclic_group(2), 2)):
        amb = Ambient(group, n)
        for _ in range(5):
            gens = []
            for _ in range(2):
                x = DiffElem(amb, {})
                for _ in range(2):
                    x = x + amb.basis_elem(
                        rng.randrange(group.order),
                        rng.randrange(group.order),
                        rng.randrange(n),
                        rng.randrange(n),
                    ).scale(q(rng.randint(-2, 2)))
                gens.append(x)
            if all(not g for g in gens):
                continue
            right = right_ideal_closure(gens)
            assert ideal_shape(right, "right").dim * group.order == right.dim
            left = left_ideal_closure(gens)
            assert ideal_shape(left, "left").dim * group.order == left.dim


def test_annihilator_examples():
    amb = Ambient(cyclic_group(2), 1)
    D = matrix_coeff_ambient_dim(amb)
    whole = SubspaceBasis.from_vectors(
        D, [[q(1), q(0)], [q(0), q(1)]]
    )
    assert is_essential(amb, whole) == (True, True)
    kte = mn_a_left_ideal_closure(amb, [[q(1), q(0)]])
    assert kte.dim == 1
    ann = right_annihilator(amb, kte)
    assert ann.rows == ((q(0), q(1)),)
    assert is_essential(amb, kte) == (False, False)
    dense = mn_a_left_ideal_closure(amb, [[q(1), q(2)]])
    assert dense.dim == 2 and is_essential(amb, dense) == (True, True)


def test_is_essential_rejects_non_ideal():
    amb = Ambient(cyclic_group(2), 2)
    D = matrix_coeff_ambient_dim(amb)
    vec = [q(0)] * D
    vec[1] = q(1)  # a single matrix unit over one point is not a left ideal
    basis = SubspaceBasis.from_vectors(D, [vec])
    assert not is_mn_a_left_ideal(amb, basis)
    with pytest.raises(WorkbenchError):
        is_essential(amb, basis)


def test_is_simple_cases():
    g = cyclic_group(4)
    ok, witness = is_simple(Ambient(g, 1))
    assert ok and witness is None
    ok, witness = is_simple(Ambient(g, 1, gset=trivial_gset(g, 2)))
    assert not ok
    assert witness.dim == 4  # H (x) kT_v (x) M_1
    ok, _ = is_simple(Ambient(g, 2, gset=trivial_gset(g, 1)))
    assert ok


def test_is_simple_witness_is_ideal():
    g = cyclic_group(2)
    amb = Ambient(g, 1, gset=disjoint_union(regular_gset(g), regular_gset(g)))
    ok, witness = is_simple(amb)
    assert not ok
    basis = witness.basis_elems()
    for x in basis:
        for t in amb.basis_indices():
            y = amb.basis_elem(*t)
            for gamma in g.elements():
                assert witness.contains(diff_product(x, y, gamma))
                assert witness.contains(diff_product(y, x, gamma))


def test_construct_shift_functions():
    from cendlab.hopf import left_shift

    g = cyclic_group(2)
    fs, z = construct_shift_functions(g, [0, 1], range(2), QQ)
    assert z == 0
    mat = Mat([[left_shift(gi, f).coeffs[z] for f in fs] for gi in (0, 1)])
    assert mat == Mat.identity(2, QQ)
    with pytest.raises(WorkbenchError):
        construct_shift_functions(g, [0, 0], range(2), QQ)
    with pytest.raises(WorkbenchError):
        construct_shift_functions(g, [0], [], QQ)


def test_construct_shift_single_element():
    g = cyclic_group(4)
    fs, z = construct_shift_functions(g, [2], [1, 3], QQ)
    from cendlab.hopf import left_shift

    assert left_shift(2, fs[0]).coeffs[z] == q(1)


def test_centralizer_of_full_algebra_is_scalars(c2_amb):
    C = cend(c2_amb)
    ops = [Mat.from_flat(list(v), 2, 2) for v in wn_span(C).rows]
    cent = centralizer(ops, 2, QQ)
    assert cent.dim == 1
    assert Mat.from_flat(list(cent.rows[0]), 2, 2) == Mat.identity(2, QQ)


def test_centralizer_of_enriched_cur_is_scalars():
    for group, n in ((cyclic_group(2), 1), (cyclic_group(3), 1), (cyclic_group(2), 2)):
        amb = Ambient(group, n)
        S = wn_span(enrich(cur(group, n)))
        N = amb.module_dim
        ops = [Mat.from_flat(list(v), N, N) for v in S.rows]
        cent = centralizer(ops, N, QQ)
        assert cent.dim == 1


def test_coset_gset_wn(c2_amb):
    # evaluations still span a full matrix algebra over a coset space
    g = cyclic_group(4)
    amb = Ambient(g, 1, gset=coset_gset(g, (0, 2)))
    C = cend(amb)
    assert wn_span(C).dim == amb.module_dim ** 2


def test_intrinsic_action_matches_pointwise_scaling():
    # sum over uv = q of Gamma(T_u) a(g) Gamma(T_{v^-1}) equals the
    # pointwise rule T_q . a(g) = T_q(g^-1) a(g), for every basis element
    for group in (cyclic_group(4), symmetric_group(3)):
        amb = Ambient(group, 1)
        gammas = [gamma_op(basis_h(group, u, QQ), amb).to_mat() for u in group.elements()]
        for t in amb.basis_indices():
            x = amb.basis_elem(*t)
            for g in group.elements():
                op = evaluate(x, g).to_mat()
                ginv = group.inv(g)
                for qq in group.elements():
                    acted = Mat.zero(amb.module_dim, amb.module_dim, QQ)
                    for u in group.elements():
                        for v in group.elements():
                            if group.mul(u, v) == qq:
                                acted = acted + gammas[u] * op * gammas[group.inv(v)]
                    expect = op if qq == ginv else Mat.zero(
                        amb.module_dim, amb.module_dim, QQ
                    )
                    assert acted == expect


def test_phi_roundtrip_over_coset_gset():
    g = cyclic_group(4)
    amb = Ambient(g, 2, gset=coset_gset(g, (0, 2)))
    for t in amb.basis_indices():
        x = amb.basis_elem(*t)
        assert phi(phi_inv(x)) == x
    ok, _ = check_Tinvariance(left_shift_family(amb))
    assert ok
    for t1 in amb.basis_indices():
        a = amb.basis_elem(*t1)
        fa = phi_inv(a)
        for t2 in amb.basis_indices():
            b = amb.basis_elem(*t2)
            for gg in g.elements():
                assert phi(op_product(fa, phi_inv(b), gg)) == diff_product(a, b, gg)


ZETA4 = CyclotomicField(4)
C4, S3 = cyclic_group(4), symmetric_group(3)
# (group, G-set, n): regular, coset and union G-sets
TINV_CASES = [
    (C4, regular_gset(C4), 2),
    (S3, regular_gset(S3), 1),
    (C4, coset_gset(C4, (0, 2)), 2),
    (S3, coset_gset(S3, (0, 1)), 2),
    (C4, disjoint_union(coset_gset(C4, (0, 2)), trivial_gset(C4, 1)), 1),
    (S3, disjoint_union(coset_gset(S3, (0, 1)), regular_gset(S3)), 1),
]


def dense_tinvariance(a):
    """The law as stated, a(g) Gamma_w == Gamma_{g^-1.w} a(g), tested with
    dense products for each g and then each w in order."""
    amb = a.ambient
    field = amb.field

    def indicator(w):
        return [field.one if v == w else field.zero for v in amb.gset.points()]

    def dense_gamma(w):
        return gamma_op(indicator(w), amb).to_mat(field)

    for g in amb.group.elements():
        op = a.at(g).to_mat(field)
        for w in amb.gset.points():
            shifted = amb.gset.act(amb.group.inv(g), w)
            if op * dense_gamma(w) != dense_gamma(shifted) * op:
                return False, {"g": g, "w": w}
    return True, None


def scalars(field):
    if field is QQ:
        return st.integers(-3, 3).map(QQ.scalar)
    coeffs = st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree)
    return coeffs.map(field.scalar)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tinvariance_scan_matches_dense_definition(data):
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group, gset, n = data.draw(st.sampled_from(TINV_CASES))
    amb = Ambient(group, n, gset=gset, field=field)
    scalar = scalars(field)
    matrix = st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=n, max_size=n)
    keys = st.tuples(st.sampled_from(group.elements()), st.sampled_from(gset.points()))
    comps = data.draw(st.dictionaries(keys, matrix.map(Mat), max_size=4))
    ops = [[list(r) for r in op.to_mat(field).rows] for op in phi_inv(DiffElem(amb, comps)).ops]
    N = amb.module_dim
    entry = st.tuples(
        st.sampled_from(group.elements()), st.integers(0, N - 1), st.integers(0, N - 1)
    )
    for z, r, c in data.draw(st.lists(entry, max_size=3)):
        ops[z][r][c] = ops[z][r][c] + data.draw(scalar.filter(bool))
    family = ConfOperator(amb, [Mat(rows) for rows in ops])
    assert check_Tinvariance(family) == dense_tinvariance(family)


def _rand_scalar(rng, field):
    if field is QQ:
        return QQ.scalar(rng.randint(-2, 2))
    return field.scalar([rng.randint(-2, 2) for _ in range(field.degree)])


def _random_ops(rng, field, N):
    """A dense operator with the proper invariant subspace of the first N/2
    coordinates (block triangular, not monomial), a monomial operator and
    a zero operator."""
    k = N // 2
    dense = Mat([[_rand_scalar(rng, field) if r < k or c >= k else field.zero
                  for c in range(N)] for r in range(N)])
    perm = rng.sample(range(N), N)
    monomial = Mat([[_rand_scalar(rng, field) if c == perm[r] else field.zero
                     for c in range(N)] for r in range(N)])
    return [dense, monomial, Mat.zero(N, N, field)]


@pytest.mark.parametrize("field", [QQ, ZETA4], ids=["QQ", "Q(zeta_4)"])
def test_module_closure_matches_dense_apply(field):
    rng = random.Random(7)
    N = 6
    for _ in range(20):
        ops = rng.sample(_random_ops(rng, field, N), rng.randint(1, 3))
        seeds = [
            [_rand_scalar(rng, field) for _ in range(N)],
            [_rand_scalar(rng, field) if j < N // 2 else field.zero for j in range(N)],
            [field.zero] * N,
        ]
        # the dense Mat.apply oracle, on the canonical rows made dense
        def step(row):
            vec = dense(row, N, field.zero)
            return [op.apply(vec) for op in ops]

        expect = [span_closure(N, [seed], step) for seed in seeds]
        blocks = [BlockOp.from_mat(op, 2) for op in ops]
        assert list(module_closure(blocks, seeds, N)) == expect


# (group, n) of the spans drawn for the grading property, over V = G
GRADING_CASES = [(cyclic_group(2), 1), (cyclic_group(2), 2), (cyclic_group(3), 1), (C4, 1)]


def _generated_subalgebra(amb, elems):
    """The smallest H-submodule containing elems and closed under every
    product, by closing coefficient vectors: each row the span gains is
    projected onto every first slot and multiplied, on both sides, with
    every row gained so far.  The products stay pairwise on purpose, as the
    product rule's oracle."""
    group = amb.group
    block = amb.gset.size * amb.n * amb.n
    builder = EchelonBuilder(amb.dim)
    gained = []
    work = [e.sparse_vector() for e in elems]
    while work:
        new = [DiffElem.from_sparse(amb, row) for row in map(builder.add, work) if row is not None]
        gained += new
        work = []
        for x in new:
            vec = x.sparse_vector()
            for g in group.elements():
                work.append({k: a for k, a in vec.items() if k // block == g})
            for y in gained:
                for gamma in group.elements():
                    work.append(diff_product(x, y, gamma).sparse_vector())
                    work.append(diff_product(y, x, gamma).sparse_vector())
    return SubSpan(amb, builder.basis())


def draw_span(data, amb):
    """A span of one of six kinds: random elements (mostly neither
    homogeneous nor closed); random elements with one first slot each;
    C(G1, chi) for a chi that is constant, a coboundary (valid for every
    subgroup) or random (mostly invalid); its upper triangular part (closed
    and reducible at n = 2 when chi is valid); the subalgebra generated by
    random elements; or the whole algebra.  The two chi kinds are moved by
    a random slotwise automorphism half of the time."""
    field, group, n = amb.field, amb.group, amb.n
    scalar = scalars(field)
    nonzero = scalar.filter(bool)
    matrix = st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=n, max_size=n).map(Mat)
    points = st.sampled_from(list(amb.gset.points()))
    kind = data.draw(st.sampled_from(["random", "homogeneous", "chi", "upper", "generated", "full"]))
    if kind == "full":
        return cend(amb)
    if kind in ("random", "homogeneous", "generated"):
        elems = []
        for _ in range(data.draw(st.integers(1, 3))):
            slots = st.sampled_from(list(group.elements()))
            if kind == "homogeneous":
                keys = st.tuples(st.just(data.draw(slots)), points)
            else:
                keys = st.tuples(slots, points)
            terms = st.dictionaries(keys, matrix, min_size=1 if kind == "homogeneous" else 2, max_size=3)
            elems.append(DiffElem(amb, data.draw(terms)))
        if kind == "generated":
            return _generated_subalgebra(amb, elems)
        return SubSpan.from_elems(amb, elems)
    sub = data.draw(st.sampled_from(subgroups(group)))
    table = data.draw(st.sampled_from(["one", "coboundary", "random"]))
    order = group.order
    if table == "one":
        values = [[field.one] * order for _ in range(order)]
    elif table == "coboundary":
        psi = data.draw(st.lists(nonzero, min_size=order, max_size=order))
        mu = data.draw(st.lists(nonzero, min_size=order, max_size=order))
        values = [
            [psi[g] * mu[a] / mu[group.mul(group.inv(g), a)] for a in group.elements()]
            for g in group.elements()
        ]
    else:
        values = data.draw(
            st.lists(st.lists(nonzero, min_size=order, max_size=order), min_size=order, max_size=order)
        )
    chi = ChiFunction(group, values)
    span = chi_span(group, sub, chi, n, field)
    if kind == "upper":
        span = SubSpan.from_elems(
            amb,
            [
                DiffElem(amb, {key: m for key, m in e.comps.items() if all(
                    not m.rows[i][j] for i in range(n) for j in range(i))})
                for e in span.basis_elems()
            ],
        )
    if data.draw(st.booleans()):
        us = [data.draw(matrix.filter(lambda m: m.rank() == n)) for _ in group.elements()]
        span = apply_automorphism(build_sigma(us, amb), span)
    return span


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_grading_decides_like_the_oracles(data):
    # the one route of the decisions against the closure witness and the
    # explicit enrichment, kept as oracles
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group, n = data.draw(st.sampled_from(GRADING_CASES))
    amb = Ambient(group, n, field=field)
    C = draw_span(data, amb)
    closed = subalgebra_closure_witness(C) is None
    enriched = enrich(C)
    decomp = grading(C)
    assert (decomp.defect is None) == closed
    assert decomp.enriched_dim == enriched.dim
    if not closed:
        with pytest.raises(WorkbenchError, match="span is not a subalgebra"):
            is_irreducible(C)
        return
    res = is_irreducible(C)
    assert res.irreducible == enriched.is_full()
    assert res.enriched_dim == enriched.dim


def with_single_slot_extra(data, C):
    """C with one more element with a single first slot: a homogeneous span
    stays homogeneous and mostly stops being closed."""
    amb = C.ambient
    n = amb.n
    g = data.draw(st.sampled_from(list(amb.group.elements())))
    keys = st.tuples(st.just(g), st.sampled_from(list(amb.gset.points())))
    matrix = st.lists(scalars(amb.field), min_size=n * n, max_size=n * n).map(
        lambda entries: Mat.from_flat(entries, n, n)
    )
    extra = DiffElem(amb, data.draw(st.dictionaries(keys, matrix, min_size=1, max_size=2)))
    return SubSpan.from_elems(amb, list(C.basis_elems()) + [extra])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_grading_reads_the_components_like_the_projection_oracle(data):
    # components, pivots and block ranks read off the span's RREF rows
    # against the projections eliminated again, the route they replaced
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group, n = data.draw(st.sampled_from(GRADING_CASES))
    amb = Ambient(group, n, field=field)
    C = draw_span(data, amb)
    if data.draw(st.booleans()):
        C = with_single_slot_extra(data, C)
    decomp = grading(C)
    oracle = first_slot_components(C)
    n2 = n * n
    for g, comp in oracle.items():
        rows = [dense_blocks(row, n2, field.zero) for row in comp.srows]
        for w in amb.gset.points():
            assert decomp.ranks[(g, w)] == Mat([x[w] for x in rows if w in x]).rank()
    if sum(comp.dim for comp in oracle.values()) == C.dim:
        assert decomp.components == oracle
        assert all(decomp.components[g].pivots == comp.pivots for g, comp in oracle.items())
        return
    assert decomp.components is None
    named = re.fullmatch(
        r"not homogeneous in the first slot; RREF row (\d+) touches first slots (\d+) and (\d+)",
        decomp.defect,
    )
    i, g, h = map(int, named.groups())
    block = amb.gset.size * n2
    slots = [{k // block for k in row} for row in C.basis.srows]
    # the first row reaching into two first slots, and two of its slots
    assert g != h and {g, h} <= slots[i]
    assert all(len(touched) == 1 for touched in slots[:i])


def oracle_ideal_shape(B, side):
    """B0 by the projection route ``ideal_shape`` replaced: the first-slot
    projections of the (untwisted) span, eliminated again, must all be
    equal and add up to the span; None when they do not."""
    span = fourier_span(B, inverse=True) if side == "left" else B
    projections = list(first_slot_components(span).values())
    first = projections[0]
    if any(p != first for p in projections[1:]) or sum(p.dim for p in projections) != span.dim:
        return None
    return first


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ideal_shape_matches_the_projection_oracle(data):
    # left and right ideal closures, with and without one more element,
    # read on either side: the same B0, or a refusal exactly when the
    # oracle route refuses
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group, n = data.draw(st.sampled_from(GRADING_CASES))
    amb = Ambient(group, n, field=field)
    matrix = st.lists(scalars(field), min_size=n * n, max_size=n * n).map(
        lambda entries: Mat.from_flat(entries, n, n)
    )
    keys = st.tuples(
        st.sampled_from(list(group.elements())), st.sampled_from(list(amb.gset.points()))
    )
    elems = st.dictionaries(keys, matrix, min_size=1, max_size=3).map(
        lambda comps: DiffElem(amb, comps)
    )
    gens = data.draw(st.lists(elems, min_size=1, max_size=2))
    closed_on = data.draw(st.sampled_from(["left", "right"]))
    B = left_ideal_closure(gens) if closed_on == "left" else right_ideal_closure(gens)
    if data.draw(st.booleans()):
        B = SubSpan.from_elems(amb, list(B.basis_elems()) + [data.draw(elems)])
    side = data.draw(st.sampled_from(["left", "right"]))
    expect = oracle_ideal_shape(B, side)
    if expect is None:
        with pytest.raises(IdealShapeError):
            ideal_shape(B, side)
    else:
        assert ideal_shape(B, side) == expect


@pytest.mark.parametrize("side", ["left", "right"])
def test_grading_and_ideal_shape_eliminate_nothing_again(monkeypatch, side):
    # the components are the span's RREF rows grouped by first slot: grading
    # builds no basis by elimination, and ideal_shape only the twist of a
    # left ideal
    import cendlab.workbench

    calls = []
    twisting = []
    real_from_vectors = SubspaceBasis.from_vectors.__func__
    real_fourier_span = cendlab.workbench.fourier_span

    def from_vectors(cls, ambient, vectors):
        calls.append("twist" if twisting else "other")
        return real_from_vectors(cls, ambient, vectors)

    def fourier_span(span, inverse=False):
        twisting.append(True)
        try:
            return real_fourier_span(span, inverse)
        finally:
            twisting.pop()

    amb = Ambient(C4, 2)
    spans = [
        cend(amb),
        cur(C4, 2),
        chi_span(C4, (0, 2), ChiFunction.constant_one(C4, QQ), 2, QQ),
        SubSpan.from_elems(amb, [amb.basis_elem(0, 0, 0, 0) + amb.basis_elem(1, 0, 0, 0)]),
    ]
    gens = [amb.basis_elem(1, 2, 0, 1), amb.basis_elem(0, 3, 1, 1)]
    ideal = left_ideal_closure(gens) if side == "left" else right_ideal_closure(gens)
    monkeypatch.setattr(SubspaceBasis, "from_vectors", classmethod(from_vectors))
    monkeypatch.setattr(cendlab.workbench, "fourier_span", fourier_span)
    for span in spans:
        grading(span)
    assert calls == []
    b0 = ideal_shape(ideal, side)
    assert calls == (["twist"] if side == "left" else [])
    assert b0.dim * C4.order == ideal.dim


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_rule_closure_matches_pairwise_oracle(data):
    # the closure of a generating set in grading against the pairwise scan
    # it replaced: the same verdict, and the pair it names really fails
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group, n = data.draw(st.sampled_from(GRADING_CASES))
    amb = Ambient(group, n, field=field)
    C = draw_span(data, amb)
    if data.draw(st.booleans()):
        C = with_single_slot_extra(data, C)
    defect = grading(C).defect
    if sum(comp.dim for comp in first_slot_components(C).values()) != C.dim:
        assert defect.startswith("not homogeneous")
        return
    report = pairwise_product_rule(C)
    assert (defect is None) == ("fails" not in report.values())
    if defect is not None:
        named = re.fullmatch(r"grading product rule fails at \(g=(\d+), h=(\d+)\)", defect)
        assert report[tuple(map(int, named.groups()))] == "fails"


@pytest.mark.parametrize("second", ["E12+E22", "E21+E22"])
def test_product_rule_meets_every_generator_pair(second):
    # S = span(a, c) in the identity component, a = E11 and c at every
    # point; the walk takes a, then c.  a.a = a and c.c = c lie in S, and
    # exactly one of a.c (E12) and c.a (E21) does not: the closure has to
    # multiply an old generator by a new vector and a new generator by an
    # old vector to see each failure.
    amb = Ambient(cyclic_group(2), 2)
    E = {(i, j): amb.basis_elem(0, 0, i, j) + amb.basis_elem(0, 1, i, j) for i in range(2) for j in range(2)}
    a = E[(0, 0)]
    c = E[(0, 1)] + E[(1, 1)] if second == "E12+E22" else E[(1, 0)] + E[(1, 1)]
    C = SubSpan.from_elems(amb, [a, c])
    assert pairwise_product_rule(C)[(0, 0)] == "fails"
    assert grading(C).defect == "grading product rule fails at (g=0, h=0)"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_operators_match_dense_oracle(data):
    # product, equality, application and the zero test of block operators
    # against dense matrices, which only this test builds
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group, gset, n = data.draw(st.sampled_from(TINV_CASES))
    amb = Ambient(group, n, gset=gset, field=field)
    N = amb.module_dim
    scalar = scalars(field)
    matrix = st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=n, max_size=n)
    keys = st.tuples(st.sampled_from(group.elements()), st.sampled_from(gset.points()))
    entry = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1), scalar.filter(bool))

    def draw_dense():
        # an evaluation with non-monomial blocks, plus entries off its blocks
        comps = data.draw(st.dictionaries(keys, matrix.map(Mat), max_size=4))
        z = data.draw(st.sampled_from(group.elements()))
        rows = [list(r) for r in evaluate(DiffElem(amb, comps), z).to_mat(field).rows]
        for r, c, a in data.draw(st.lists(entry, max_size=3)):
            rows[r][c] = rows[r][c] + a
        return Mat(rows)

    da = draw_dense()
    db = da if data.draw(st.booleans()) else draw_dense()
    a, b = BlockOp.from_mat(da, n), BlockOp.from_mat(db, n)
    assert a.to_mat(field) == da and b.to_mat(field) == db
    assert (a * b).to_mat(field) == da * db
    assert (b * a).to_mat(field) == db * da
    assert (a == b) == (da == db)
    assert a.is_zero() == da.is_zero()
    assert (a * b).is_zero() == (da * db).is_zero()
    vec = data.draw(st.lists(scalar, min_size=N, max_size=N))
    expect = {i: x for i, x in enumerate(da.apply(vec)) if x}
    assert a.apply(vec) == expect
    assert a.apply({j: x for j, x in enumerate(vec) if x}) == expect
    assert a.entries() == {k: x for k, x in enumerate(da.flatten()) if x}


# The DiffElem-level ideal closure that ``_ideal_closure`` replaced, kept as
# its oracle: every product is built as an element with one block, and each
# new element is also split into its first-slot projections.


def _oracle_right_products(amb, elem):
    """All products elem o_gamma (basis element); m1 E_(i2, j2) has one
    nonzero column, j2, which is column i2 of m1."""
    group, n = amb.group, amb.n
    zero = amb.field.zero
    out = []
    for (g1, w1), m1 in elem.comps.items():
        prods = [
            [Mat([[c if j == j2 else zero for j in range(n)] for c in col]) for j2 in range(n)]
            for col in zip(*m1.rows)
            if any(col)
        ]
        for g2 in group.elements():
            first = group.mul(g1, g2)
            for mats in prods:
                for prod in mats:
                    out.append(DiffElem(amb, {(first, w1): prod}))
    return out


def _oracle_left_products(amb, elem):
    """All products (basis element) o_gamma elem; E_(i1, j1) m2 has one
    nonzero row, i1, which is row j1 of m2."""
    group, gset, n = amb.group, amb.gset, amb.n
    zero_row = (amb.field.zero,) * n
    out = []
    for (g2, w2), m2 in elem.comps.items():
        prods = [
            [Mat([row if i == i1 else zero_row for i in range(n)]) for row in m2.rows if any(row)]
            for i1 in range(n)
        ]
        for gamma in group.elements():
            ginv = group.inv(gamma)
            w1 = gset.act(ginv, w2)
            first = group.mul(ginv, g2)
            for mats in prods:
                for prod in mats:
                    out.append(DiffElem(amb, {(first, w1): prod}))
    return out


def _oracle_h_projections(amb, elem):
    by_g = {}
    for (g, w), mat in elem.comps.items():
        by_g.setdefault(g, {})[(g, w)] = mat
    return [DiffElem(amb, comps) for comps in by_g.values()]


def _oracle_ideal_closure(gens, side):
    amb = gens[0].ambient
    builder = EchelonBuilder(amb.dim)
    step = _oracle_right_products if side == "right" else _oracle_left_products
    work = list(gens)
    while work:
        added = [row for row in (builder.add(e.sparse_vector()) for e in work) if row is not None]
        work = []
        for row in added:
            e = DiffElem.from_sparse(amb, row)
            work += _oracle_h_projections(amb, e) + step(amb, e)
    return SubSpan(amb, builder.basis())



@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ideal_closures_match_the_element_oracle(data):
    # the sparse-row step of _ideal_closure, without a projection step,
    # against the element-level closure with one
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group = data.draw(st.sampled_from([cyclic_group(2), cyclic_group(3), C4, S3]))
    n = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        gset = regular_gset(group)
    else:
        gset = coset_gset(group, data.draw(st.sampled_from(subgroups(group))))
    amb = Ambient(group, n, gset=gset, field=field)
    matrix = st.lists(scalars(field), min_size=n * n, max_size=n * n).map(
        lambda entries: Mat.from_flat(entries, n, n)
    )
    keys = st.tuples(st.sampled_from(list(group.elements())), st.sampled_from(list(gset.points())))
    gens = [
        DiffElem(amb, data.draw(st.dictionaries(keys, matrix, min_size=1, max_size=3)))
        for _ in range(data.draw(st.integers(1, 2)))
    ]
    assert left_ideal_closure(gens) == _oracle_ideal_closure(gens, "left")
    assert right_ideal_closure(gens) == _oracle_ideal_closure(gens, "right")


def _pairwise_operator_algebra(C):
    """The algebra generated by the multiplication operators and the
    evaluations of C, by closing their span under composition: each
    operator the span gains is composed, on both sides, with every operator
    gained so far."""
    amb = C.ambient
    size, n = amb.gset.size, amb.n
    builder = EchelonBuilder(amb.module_dim ** 2)
    gained = []
    work = [gamma_op([amb.field.one if v == w else amb.field.zero for v in amb.gset.points()], amb)
            for w in amb.gset.points()]
    work += [evaluate(e, z) for e in C.basis_elems() for z in amb.group.elements()]
    while work:
        new = [BlockOp.from_entries(size, n, row)
               for row in (builder.add(op.entries()) for op in work) if row is not None]
        gained += new
        work = [p for a in new for b in gained for p in (a * b, b * a)]
    return builder.basis()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_operator_algebra_matches_pairwise_composition(data):
    # the closure under left multiplication by the generators against the
    # closure of the span under every pairwise composition
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group, n = data.draw(st.sampled_from(GRADING_CASES))
    C = draw_span(data, Ambient(group, n, field=field))
    assert operator_algebra(C) == _pairwise_operator_algebra(C)
