import pytest
from hypothesis import given, settings, strategies as st

from cendlab.fields import QQ, CyclotomicField
from cendlab.groups import cyclic_group, cosets, subgroups, symmetric_group, trivial_gset
from cendlab.conformal import Ambient, DiffElem, SubSpan, cend, cur, diff_product, subalgebra_closure_witness
from cendlab.linalg import Mat, SubspaceBasis, combination, kernel_partition, sparse_nullspace
from cendlab.classify import (
    ChiFunction,
    ClassifyError,
    ConfAutomorphism,
    InvalidChiError,
    NonScalarError,
    analyze_Se,
    apply_automorphism,
    build_C,
    build_sigma,
    canonicalize,
    chi_span,
    extract_chi,
    grading,
    sigma_condition_witness,
    sigma_preserves_products,
    theta_bridge,
    validate_chi,
)
from cendlab.workbench import WorkbenchError, evaluate, is_irreducible

from conftest import TARGET_GROUPS, first_slot_components, pairwise_product_rule, rand_invertible


def q(x):
    return QQ.scalar(x)


def sign_chi(group):
    """The two-element sign table: -1 at (s, s), 1 elsewhere."""
    vals = [[q(1)] * 2, [q(1), q(-1)]]
    return ChiFunction(group, vals)


def test_validate_constant_one(target_groups):
    for g in target_groups.values():
        chi = ChiFunction.constant_one(g, QQ)
        for sub in subgroups(g):
            ok, _ = validate_chi(g, sub, chi)
            assert ok


def test_validate_trivial_subgroup_vacuous(rng):
    g = cyclic_group(4)
    vals = [[q(rng.choice([1, 2, 3, -1]))for _ in range(4)] for _ in range(4)]
    ok, _ = validate_chi(g, (0,), ChiFunction(g, vals))
    assert ok


def test_validate_c4_documented_failure():
    g = cyclic_group(4)
    vals = [[q(1)] * 4 for _ in range(4)]
    vals[1][2] = q(-1)
    ok, witness = validate_chi(g, (0, 2), ChiFunction(g, vals))
    assert not ok
    assert witness["g"] == 1 and witness["h"] == 1 and witness["coset"] == 0
    assert {witness["gamma"], witness["gamma2"]} == {0, 2}
    assert {witness["ratio"], witness["ratio2"]} == {q(1), q(-1)}


def test_chi_rejects_zero_values():
    g = cyclic_group(2)
    with pytest.raises(ClassifyError):
        ChiFunction(g, [[q(1), q(0)], [q(1), q(1)]])


ZETA4 = CyclotomicField(4)


def nonzero_scalars(field):
    if field is QQ:
        return st.integers(-3, 3).filter(bool).map(QQ.scalar)
    coeffs = st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree)
    return coeffs.filter(any).map(field.scalar)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chi_span_matches_its_elements(data):
    # chi_span writes the canonical rows down directly; the oracle spans the
    # explicit elements sum_{a in K} chi(g, a) T_g (x) T_a (x) e_ij through
    # elimination.  The table need not be valid: chi_span does not check it.
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group = TARGET_GROUPS[data.draw(st.sampled_from(["C4", "C2xC2", "S3", "D4"]))]
    n = data.draw(st.integers(1, 2))
    sub = data.draw(st.sampled_from(subgroups(group)))
    order = group.order
    row = st.lists(nonzero_scalars(field), min_size=order, max_size=order)
    chi = ChiFunction(group, data.draw(st.lists(row, min_size=order, max_size=order)))
    amb = Ambient(group, n, field=field)
    elems = [
        DiffElem(
            amb,
            {(g, a): Mat.unit(n, n, i, j, field).scale(chi.value(g, a)) for a in coset},
        )
        for g in group.elements()
        for coset in cosets(group, sub)
        for i in range(n)
        for j in range(n)
    ]
    oracle = SubSpan.from_elems(amb, elems)
    span = chi_span(group, sub, chi, n, field)
    assert span == oracle
    assert span.basis.pivots == oracle.basis.pivots


def block_supported(amb, basis, cls):
    """Subspace of the span supported only on the given point blocks: the
    combinations of the rows that vanish at every coordinate outside them.
    Only coordinates some row touches impose a condition.  It is the class
    component E_K solved as a null space; ``analyze_Se`` reads it off the
    RREF rows of S_e instead."""
    n2 = amb.n * amb.n
    keep = set(cls)
    conditions = {}
    for i, row in enumerate(basis.srows):
        for c, a in row.items():
            if c // n2 not in keep:
                conditions.setdefault(c, {})[i] = a
    if not conditions:
        return basis
    ker = sparse_nullspace(basis.dim, conditions.values(), amb.field.one)
    return SubspaceBasis.from_vectors(
        basis.ambient, [combination(coeffs, basis.srows) for coeffs in ker.srows]
    )


def inverse_theta_images(amb, s_e, classes):
    """The maps theta_g solved through the inverse of each class
    component's projection at its representative min K: theta_g(e_pq) is
    the block at g of the element of the component equal to e_pq at min K.
    ``analyze_Se`` reads them off the RREF rows instead; this is its
    oracle."""
    field = amb.field
    n = amb.n
    n2 = n * n
    out = {}
    for cls in classes:
        rep = min(cls)
        ideal = block_supported(amb, s_e, cls)
        proj_rep = Mat(
            [[row.get(rep * n2 + t, field.zero) for t in range(n2)] for row in ideal.srows]
        )
        inv = proj_rep.transpose().inverse()
        for g in cls:
            images = []
            for u in range(n2):
                unit_vec = [field.zero] * n2
                unit_vec[u] = field.one
                img = [field.zero] * n2
                for c, row in zip(inv.apply(unit_vec), ideal.srows):
                    for t in range(n2):
                        img[t] = img[t] + c * row.get(g * n2 + t, field.zero)
                images.append(Mat.from_flat(img, n, n))
            out[g] = images
    return out


def scalars(field):
    if field is QQ:
        return st.integers(-2, 2).map(QQ.scalar)
    coeffs = st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree)
    return coeffs.map(field.scalar)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_theta_read_off_matches_the_inverse_oracle(data):
    # C(G1, chi) for a coboundary chi(g, a) = mu(a) / mu(g^-1 a), conjugated
    # by full random conjugators; a singular draw is shifted by the identity
    # until it is invertible
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    group = TARGET_GROUPS[data.draw(st.sampled_from(["C4", "C2xC2", "S3"]))]
    n = data.draw(st.integers(1, 3))
    sub = data.draw(st.sampled_from(subgroups(group)))
    order = group.order
    mu = data.draw(st.lists(nonzero_scalars(field), min_size=order, max_size=order))
    chi = ChiFunction(
        group,
        [[mu[a] / mu[group.mul(group.inv(x), a)] for a in group.elements()] for x in group.elements()],
    )
    amb = Ambient(group, n, field=field)
    entries = st.lists(scalars(field), min_size=n * n, max_size=n * n)
    us = []
    for _ in group.elements():
        u = Mat.from_flat(data.draw(entries), n, n)
        while u.rank() != n:
            u = u + Mat.identity(n, field)
        us.append(u)
    image = apply_automorphism(build_sigma(us, amb), build_C(group, sub, chi, n, field))
    decomp = analyze_Se(image)
    s_e = decomp.components[0]
    classes = cosets(group, sub)
    assert decomp.classes == [tuple(c) for c in classes]
    # the classes are the kernel classes, and the rows of S_e inside each
    # class are its component E_K solved as a null space
    n2 = n * n
    kernel_classes = sorted(kernel_partition(s_e, order, n2, field), key=min)
    assert decomp.classes == [tuple(c) for c in kernel_classes]
    for cls in decomp.classes:
        rows = [row for row in s_e.srows if {c // n2 for c in row} <= set(cls)]
        assert rows == list(block_supported(amb, s_e, cls).srows)
    assert decomp.theta_images == inverse_theta_images(amb, s_e, classes)
    sub_out, chi_out, sigma_out = canonicalize(image, decomp)
    assert sub_out == tuple(sub)
    assert apply_automorphism(sigma_out, image) == build_C(group, sub_out, chi_out, n, field)


def test_build_trivial_subgroup_gives_everything():
    g = cyclic_group(4)
    chi = ChiFunction.constant_one(g, QQ)
    assert build_C(g, (0,), chi, 1, QQ) == cend(Ambient(g, 1))


def test_build_whole_group_gives_current_algebra(target_groups):
    for g in target_groups.values():
        chi = ChiFunction.constant_one(g, QQ)
        assert build_C(g, tuple(g.elements()), chi, 1, QQ) == cur(g, 1)


def test_build_c4_middle_subgroup():
    g = cyclic_group(4)
    chi = ChiFunction.constant_one(g, QQ)
    C = build_C(g, (0, 2), chi, 1, QQ)
    assert C.dim == 8
    assert subalgebra_closure_witness(C) is None
    assert is_irreducible(C).irreducible


def test_build_rejects_invalid_chi():
    g = cyclic_group(4)
    vals = [[q(1)] * 4 for _ in range(4)]
    vals[1][2] = q(-1)
    with pytest.raises(InvalidChiError):
        build_C(g, (0, 2), ChiFunction(g, vals), 1, QQ)


def test_invalid_chi_span_is_not_closed():
    # mutating one value so validation fails also breaks closure
    g = cyclic_group(2)
    vals = [[q(1), q(2)], [q(1), q(1)]]
    chi = ChiFunction(g, vals)
    ok, _ = validate_chi(g, (0, 1), chi)
    assert not ok
    span = chi_span(g, (0, 1), chi, 1, QQ)
    assert subalgebra_closure_witness(span) is not None


def test_grading_of_cend_and_cur():
    g = cyclic_group(2)
    amb = Ambient(g, 1)
    d = grading(cend(amb))
    assert all(comp.dim == 2 for comp in d.components.values())
    assert d.defect is None
    current = cur(g, 1)
    d2 = grading(current)
    assert all(comp.dim == 1 for comp in d2.components.values())
    assert d2.defect is None
    # every pair (g, h) meets a nonzero product, and all of them lie in S_gh
    report = pairwise_product_rule(current)
    assert set(report) == {(a, b) for a in range(2) for b in range(2)}
    assert all(status == "verified" for status in report.values())


def test_grading_of_reducible_witness_vacuous_off_identity():
    g = cyclic_group(2)
    amb = Ambient(g, 1)
    w = SubSpan.from_elems(amb, [amb.basis_elem(x, 0, 0, 0) for x in range(2)])
    d = grading(w)
    assert all(comp.dim == 1 for comp in d.components.values())
    assert d.defect is None
    # products vanish identically unless the left grading index is e
    assert pairwise_product_rule(w) == {
        (gg, hh): "verified" if gg == 0 else "vacuous" for gg in range(2) for hh in range(2)
    }


def test_grading_rejects_inhomogeneous_span():
    g = cyclic_group(2)
    amb = Ambient(g, 1)
    mixed = SubSpan.from_elems(
        amb, [amb.basis_elem(0, 0, 0, 0) + amb.basis_elem(1, 1, 0, 0)]
    )
    # grading names the defect; each decision refuses with its own error
    assert grading(mixed).defect.startswith("not homogeneous in the first slot")
    with pytest.raises(ClassifyError, match="not homogeneous"):
        analyze_Se(mixed)
    with pytest.raises(WorkbenchError, match="span is not a subalgebra: not homogeneous"):
        is_irreducible(mixed)


def test_analyze_cend():
    g = cyclic_group(2)
    d = analyze_Se(cend(Ambient(g, 1)))
    assert d.subgroup == (0,)
    assert d.classes == [(0,), (1,)]
    assert all(
        img == [Mat.identity(1, QQ)] for img in d.theta_images.values()
    )


def test_analyze_cur(target_groups):
    for name in ("C2", "C4", "S3"):
        g = target_groups[name]
        d = analyze_Se(cur(g, 1))
        assert d.subgroup == tuple(g.elements())
        assert d.classes == [tuple(g.elements())]


def test_analyze_c4_middle():
    g = cyclic_group(4)
    chi = ChiFunction.constant_one(g, QQ)
    d = analyze_Se(build_C(g, (0, 2), chi, 2, QQ))
    assert d.subgroup == (0, 2)
    assert d.classes == [(0, 2), (1, 3)]
    assert d.reps == [0, 1]


def test_analyze_rejects_reducible():
    g = cyclic_group(2)
    amb = Ambient(g, 1)
    w = SubSpan.from_elems(amb, [amb.basis_elem(x, 0, 0, 0) for x in range(2)])
    with pytest.raises(ClassifyError):
        analyze_Se(w)


def test_non_closed_dense_span_is_refused():
    # chi fails representative independence, so the span is homogeneous
    # and every point block spans M_n, but it is not closed
    c2 = cyclic_group(2)
    c2_chi = ChiFunction(c2, [[q(1), q(-1)], [q(1), q(1)]])
    c4 = cyclic_group(4)
    vals = [[q(1)] * 4 for _ in range(4)]
    vals[1][2] = q(-1)
    for group, sub, chi, n in ((c2, (0, 1), c2_chi, 1), (c4, (0, 2), ChiFunction(c4, vals), 2)):
        assert not validate_chi(group, sub, chi)[0]
        span = chi_span(group, sub, chi, n, QQ)
        assert subalgebra_closure_witness(span) is not None
        for decide in (analyze_Se, canonicalize):
            with pytest.raises(ClassifyError, match="grading product rule fails"):
                decide(span)


def test_analyze_refuses_v_other_than_g():
    g = cyclic_group(2)
    C = cend(Ambient(g, 1, gset=trivial_gset(g, 1)))
    with pytest.raises(ClassifyError, match="V = G"):
        analyze_Se(C)


def test_build_sigma_identity():
    amb = Ambient(cyclic_group(2), 2)
    sigma = build_sigma([Mat.identity(2, QQ)] * 2, amb)
    x = amb.basis_elem(1, 0, 0, 1)
    assert sigma.apply_elem(x) == x


def test_build_sigma_scalar_family():
    amb = Ambient(cyclic_group(2), 1)
    us = [Mat([[q(1)]]), Mat([[q(2)]])]
    sigma = build_sigma(us, amb)
    assert sigma_condition_witness(sigma) is None
    # sigma_{g,a} multiplies by u_a^-1 u_{g^-1 a}
    assert sigma.apply_mat(1, 0, Mat([[q(1)]])) == Mat([[q(2)]])
    assert sigma.apply_mat(1, 1, Mat([[q(1)]])) == Mat([[QQ.scalar("1/2")]])


def test_build_sigma_rejects_singular():
    amb = Ambient(cyclic_group(2), 2)
    with pytest.raises(ClassifyError):
        build_sigma([Mat.identity(2, QQ), Mat.zero(2, 2, QQ)], amb)


def test_build_sigma_random_families_preserve_products(rng):
    for group, n in ((cyclic_group(2), 1), (cyclic_group(2), 2), (cyclic_group(4), 1)):
        amb = Ambient(group, n)
        sigma = build_sigma(
            [rand_invertible(rng, n) for _ in group.elements()], amb
        )
        assert sigma_condition_witness(sigma) is None
        assert sigma_preserves_products(sigma)


def test_apply_constant_conjugator_preserves_built_spans(rng):
    # a constant family conjugates the matrix slot pointwise and the image
    # is again a canonical span over the same subgroup
    g = cyclic_group(4)
    amb = Ambient(g, 2)
    chi = ChiFunction.constant_one(g, QQ)
    C = build_C(g, (0, 2), chi, 2, QQ)
    u = rand_invertible(rng, 2)
    sigma = build_sigma([u] * 4, amb)
    image = apply_automorphism(sigma, C)
    assert image == C  # conjugation permutes each full matrix block
    d = analyze_Se(image)
    assert d.subgroup == (0, 2)
    assert extract_chi(d) == chi


def test_apply_automorphism_identity_and_cend(rng):
    g = cyclic_group(2)
    amb = Ambient(g, 1)
    C = cend(amb)
    sigma = ConfAutomorphism.identity(amb)
    assert apply_automorphism(sigma, C) == C
    rand_sigma = build_sigma([rand_invertible(rng, 1) for _ in range(2)], amb)
    assert apply_automorphism(rand_sigma, C) == C


def test_extract_chi_cur_and_cend():
    g = cyclic_group(2)
    d = analyze_Se(cur(g, 1))
    chi = extract_chi(d)
    assert chi == ChiFunction.constant_one(g, QQ)
    C = cend(Ambient(g, 1))
    d2 = analyze_Se(C)
    assert extract_chi(d2) == ChiFunction.constant_one(g, QQ)


def test_extract_chi_sign_example():
    g = cyclic_group(2)
    C = build_C(g, (0, 1), sign_chi(g), 1, QQ)
    assert subalgebra_closure_witness(C) is None
    assert is_irreducible(C).irreducible
    d = analyze_Se(C)
    chi = extract_chi(d)
    assert chi.value(1, 0) == q(1)
    assert chi.value(1, 1) == q(-1)


def test_extract_chi_rejects_unnormalized():
    g = cyclic_group(2)
    amb = Ambient(g, 2)
    # conjugate the current algebra so the identity component is skewed
    u = Mat([[q(1), q(1)], [q(0), q(1)]])
    sigma = build_sigma([Mat.identity(2, QQ), u], amb)
    C = apply_automorphism(sigma, cur(g, 2))
    d = analyze_Se(C)
    with pytest.raises(NonScalarError):
        extract_chi(d)


def test_extract_chi_rejects_a_non_scalar_off_identity_component():
    # the identity component is straightened, but in the component at g = 1
    # one matrix position carries 2 instead of 1 at point 3 of the coset
    # {1, 3}: the values read at position 0 are all 1, the rows rebuilt from
    # them disagree with that component
    g = cyclic_group(4)
    amb = Ambient(g, 2)
    C = build_C(g, (0, 2), ChiFunction.constant_one(g, QQ), 2, QQ)
    d = analyze_Se(C)
    skewed = []
    for e in C.basis_elems():
        comps = dict(e.comps)
        if (1, 3) in comps and comps[(1, 3)] == Mat.unit(2, 2, 0, 1, QQ):
            comps[(1, 3)] = comps[(1, 3)].scale(q(2))
        skewed.append(DiffElem(amb, comps))
    component = first_slot_components(SubSpan.from_elems(amb, skewed))[1]
    assert component != d.components[1] and component.dim == d.components[1].dim
    assert extract_chi(d) == ChiFunction.constant_one(g, QQ)
    d.components[1] = component
    with pytest.raises(NonScalarError):
        extract_chi(d)


def test_canonicalize_basics(target_groups):
    g = target_groups["C2"]
    sub, chi, sigma = canonicalize(cur(g, 1))
    assert sub == (0, 1) and chi == ChiFunction.constant_one(g, QQ)
    sub, chi, sigma = canonicalize(cend(Ambient(g, 1)))
    assert sub == (0,) and chi == ChiFunction.constant_one(g, QQ)


def test_canonicalize_roundtrip_c4(rng):
    g = cyclic_group(4)
    chi0 = ChiFunction.constant_one(g, QQ)
    for n in (1, 2):
        amb = Ambient(g, n)
        C = build_C(g, (0, 2), chi0, n, QQ)
        sigma = build_sigma([rand_invertible(rng, n) for _ in range(4)], amb)
        image = apply_automorphism(sigma, C)
        sub, chi, sg = canonicalize(image)
        assert sub == (0, 2)
        assert apply_automorphism(sg, image) == build_C(g, sub, chi, n, QQ)


def test_canonicalize_cyclotomic_chi():
    g = cyclic_group(4)
    F = CyclotomicField(4)
    i = F.zeta()
    # chi(g, a) = mu(a) / mu(g^-1 a) for mu = (1, i, 1, 1), normalized below
    mu = [F.one, i, F.one, F.one]
    vals = [
        [mu[a] / mu[g.mul(g.inv(x), a)] for a in g.elements()]
        for x in g.elements()
    ]
    chi = ChiFunction(g, vals)
    ok, _ = validate_chi(g, (0, 2), chi)
    assert ok
    C = build_C(g, (0, 2), chi, 1, F)
    assert is_irreducible(C).irreducible
    sub, chi_out, sigma = canonicalize(C)
    assert sub == (0, 2)
    assert apply_automorphism(sigma, C) == build_C(g, sub, chi_out, 1, F)
    ok, _ = validate_chi(g, sub, chi_out)
    assert ok


def test_canonicalize_cyclotomic_n2(rng):
    # nontrivial conjugators over a cyclotomic field at matrix size 2
    F = CyclotomicField(4)
    i = F.zeta()
    g = cyclic_group(2)
    amb = Ambient(g, 2, field=F)
    chi = ChiFunction.constant_one(g, F)
    C = build_C(g, (0, 1), chi, 2, F)
    u = Mat([[F.one, i], [F.zero, F.one]])
    sigma = build_sigma([Mat.identity(2, F), u], amb)
    image = apply_automorphism(sigma, C)
    sub, chi_out, sg = canonicalize(image)
    assert sub == (0, 1)
    assert apply_automorphism(sg, image) == build_C(g, sub, chi_out, 2, F)


def test_theta_bridge_identity():
    amb = Ambient(cyclic_group(2), 1)
    theta, report = theta_bridge(amb, lambda x: x)
    assert theta == Mat.identity(4, QQ)
    assert report["multiplicative"] and report["action_invariant"]


def test_theta_bridge_from_sigma(rng):
    for group, n in ((cyclic_group(2), 1), (cyclic_group(2), 2), (cyclic_group(4), 1)):
        amb = Ambient(group, n)
        sigma = build_sigma([rand_invertible(rng, n) for _ in group.elements()], amb)
        theta, report = theta_bridge(amb, sigma.apply_elem)
        assert report["multiplicative"] and report["action_invariant"]
        # definitional consistency theta(x(g)) = image(x)(g)
        for t in amb.basis_indices():
            x = amb.basis_elem(*t)
            for z in group.elements():
                lhs = Mat.from_flat(
                    theta.apply(evaluate(x, z).to_mat().flatten()), amb.module_dim, amb.module_dim
                )
                assert lhs == evaluate(sigma.apply_elem(x), z).to_mat()


def test_theta_bridge_rejects_mutation():
    amb = Ambient(cyclic_group(2), 1)
    basis = [amb.basis_elem(*t) for t in amb.basis_indices()]
    target = basis[3]

    def mutated(x):
        extra = x.comps.get((1, 1))
        if extra is not None and extra.rows[0][0]:
            return x + target.scale(x.comps[(1, 1)].rows[0][0])
        return x

    with pytest.raises(ClassifyError):
        theta_bridge(amb, mutated)
