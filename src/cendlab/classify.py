"""Canonical irreducible subalgebras, their scalar tables, and the
automorphism machinery that recovers them.

A subgroup G1 of G together with a nowhere-zero table chi on G x G whose
coset ratios are representative-independent determines a canonical
irreducible subalgebra: the span of sum_{a in K} chi(g, a) T_g (x) T_a (x) m
over g, cosets K of G1, and matrices m.  ``canonicalize`` reverses the
construction: it reads off the subgroup from the row supports of the
identity-slot component, straightens the per-point matrix automorphisms by
conjugation, and returns the normalized table (value 1 at the stored coset
representatives, which are minimal element ids).
"""

from __future__ import annotations

from .conformal import Ambient, DiffElem, SubSpan, diff_product
from .groups import cosets, is_subgroup
from .linalg import (
    EchelonBuilder,
    Mat,
    SubspaceBasis,
    automorphism_defect,
    conjugator_pair,
    dense_blocks,
    matrix_units,
)
from .workbench import (
    GradedDecomposition,
    _point_fn,
    evaluate,
    gamma_op,
    grading,
)


class ClassifyError(ValueError):
    pass


class InvalidChiError(ClassifyError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"chi table fails representative independence: {witness}")


class NonScalarError(ClassifyError):
    pass


class NotSubalgebraError(ClassifyError):
    pass


class NotIrreducibleError(ClassifyError):
    def __init__(self, message, enriched_dim):
        self.enriched_dim = enriched_dim
        super().__init__(message)


class ChiFunction:
    """Nowhere-zero table (g, gamma) -> scalar, g-major."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        values = tuple(tuple(row) for row in values)
        if len(values) != group.order or any(len(r) != group.order for r in values):
            raise ClassifyError("chi table must be |G| x |G|")
        for g, row in enumerate(values):
            for gamma, v in enumerate(row):
                if not v:
                    raise ClassifyError(f"chi({g},{gamma}) is zero")
        self.group = group
        self.values = values

    @classmethod
    def constant_one(cls, group, field):
        one = field.one
        return cls(group, [[one] * group.order for _ in group.elements()])

    def value(self, g, gamma):
        return self.values[g][gamma]

    def __eq__(self, other):
        return (
            isinstance(other, ChiFunction)
            and self.group == other.group
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.group, self.values))

    def __repr__(self):
        return f"ChiFunction(on {self.group.name})"


def validate_chi(group, subgroup_ids, chi: ChiFunction):
    """(True, None) when for every g, h and every coset the ratio
    chi(g,y) chi(h,g^-1 y) / chi(gh, y) does not depend on the
    representative y of the coset; otherwise (False, witness).

    The ratios are compared crosswise, num(y) den(y_ref) = num(y_ref)
    den(y), since every value of chi is nonzero; they are divided out only
    for the witness."""
    if chi.group != group:
        raise ClassifyError("chi lives on a different group")
    cos = cosets(group, subgroup_ids)
    for g in group.elements():
        for h in group.elements():
            gh = group.mul(g, h)
            ginv = group.inv(g)
            for k, coset in enumerate(cos):
                ref_gamma = None
                for gamma in coset:
                    num = chi.value(g, gamma) * chi.value(h, group.mul(ginv, gamma))
                    den = chi.value(gh, gamma)
                    if ref_gamma is None:
                        ref_gamma, ref_num, ref_den = gamma, num, den
                    elif num * ref_den != ref_num * den:
                        return False, {
                            "g": g,
                            "h": h,
                            "coset": k,
                            "gamma": ref_gamma,
                            "gamma2": gamma,
                            "ratio": ref_num / ref_den,
                            "ratio2": num / den,
                        }
    return True, None


def chi_span(group, subgroup_ids, chi: ChiFunction, n, field) -> SubSpan:
    """The span determined by (G1, chi) without any validity check; the
    basis element for (g, coset K, i, j) is
    sum_{a in K} chi(g, a) T_g (x) T_a (x) e_ij.  The elements have disjoint
    supports, so scaled to 1 at their pivots they are the canonical rows."""
    amb = Ambient(group, n, field=field)
    cos = cosets(group, subgroup_ids)
    n2 = n * n
    block = amb.gset.size * n2
    rows = []
    for g in group.elements():
        rows.extend(_component_rows(chi.values[g], cos, n2, field.one, g * block))
    return SubSpan(amb, SubspaceBasis(amb.dim, rows, [min(row) for row in rows]))


def _component_rows(values, classes, n2, one, base=0):
    """Canonical rows of one first-slot component T_g of the span of (G1,
    chi), from the value chi(g, a) at every point a: for each class K, in
    the order of its least point, and each matrix position t, the row
    sum_{a in K} chi(g, a) e_(a, t) scaled to 1 at its pivot (min K, t).
    Coordinates are offset by ``base``."""
    rows = []
    for cls in classes:
        inv = one / values[cls[0]]
        scaled = [(a * n2, values[a] * inv) for a in cls]
        for t in range(n2):
            rows.append({base + at + t: v for at, v in scaled})
    return rows


def build_C(group, subgroup_ids, chi: ChiFunction, n, field) -> SubSpan:
    """Validated construction of the canonical irreducible subalgebra."""
    ok, witness = validate_chi(group, subgroup_ids, chi)
    if not ok:
        raise InvalidChiError(witness)
    return chi_span(group, subgroup_ids, chi, n, field)


def analyze_Se(C: SubSpan) -> GradedDecomposition:
    """Full classification data of an irreducible subalgebra over V = G,
    in one pass; any other span is refused with ClassifyError.

    ``workbench.grading`` decides closure and the enrichment, on the same
    route as ``is_irreducible``: a span with a grading defect is refused
    with NotSubalgebraError, and one whose enrichment is not full (some
    point block of some component S_g does not span M_n) with
    NotIrreducibleError, which carries the enriched dimension.  Then come
    the classes of the identity component S_e (which must be the cosets of
    a subgroup) and the per-point matrix automorphisms relating the blocks
    to the stored representatives; these steps succeed on every
    irreducible subalgebra, so their refusals name broken invariants.

    Both are read off the RREF rows of S_e, with no system solved.  The
    support of a row is the set of point blocks it touches.  The classes
    are the distinct supports, in the order of their least point;
    comparing them with the cosets of the first checks that they partition
    the points.  The class component E_K is the group of rows with support
    K.  Each of its rows touches rep = min K and no smaller block, so its
    pivot lies in rep's n^2 columns; n^2 rows with distinct pivots fill
    them, and the row with pivot (rep, pq) has block theta_g(e_pq) at g.

    Classes taken from the kernels of the block projections give the same
    verdicts and data.  Past the grading every point block of S_e has rank
    n^2.  If the kernel classes are cosets whose components (the parts of
    S_e on the blocks of a class) have dimension n^2, S_e embeds in its
    projections at the representatives, so the components fill S_e, which
    is their direct sum over disjoint columns.  The RREF of such a sum is
    the union of the parts' RREFs, and with invertible per-point maps each
    row of a part touches every block of its class, so the supports are
    the kernel classes.  Conversely, once the supports pass the checks
    below, S_e is that direct sum by construction, and the kernel at each
    point of K is the span of the other classes' rows."""
    amb = C.ambient
    group = amb.group
    n = amb.n
    n2 = n * n
    if amb.gset.size != group.order:
        raise ClassifyError("classification runs over V = G")
    decomp = grading(C)
    if decomp.defect is not None:
        raise NotSubalgebraError(f"span is not a subalgebra: {decomp.defect}")
    for (g, gamma), rank in decomp.ranks.items():
        if rank != n2:
            raise NotIrreducibleError(
                f"span is not irreducible: density fails at (g={g}, point={gamma})",
                decomp.enriched_dim,
            )
    class_rows = {}
    for row in decomp.components[0].srows:
        support = tuple(sorted({c // n2 for c in row}))
        class_rows.setdefault(support, []).append(row)
    classes = sorted(class_rows, key=min)
    if 0 not in classes[0]:
        raise ClassifyError("identity point landed outside the first class")
    subgroup = classes[0]
    if not is_subgroup(group, subgroup):
        raise ClassifyError(f"support of the identity class {subgroup} is not a subgroup")
    if classes != [tuple(c) for c in cosets(group, subgroup)]:
        raise ClassifyError("kernel classes are not the subgroup cosets")
    zero = amb.field.zero
    theta_images = {}
    for k, cls in enumerate(classes):
        rows = class_rows[cls]
        if len(rows) != n2:
            raise ClassifyError(
                f"block component over class {k} has dimension {len(rows)}, not n^2"
            )
        for g in cls:
            images = [
                Mat.from_flat([row.get(g * n2 + t, zero) for t in range(n2)], n, n)
                for row in rows
            ]
            defect = automorphism_defect(images, n, amb.field)
            if defect is not None:
                raise ClassifyError(f"per-point map at {g} {defect}")
            theta_images[g] = images
    decomp.classes = classes
    decomp.subgroup = subgroup
    decomp.reps = [cls[0] for cls in classes]
    decomp.theta_images = theta_images
    return decomp


class ConfAutomorphism:
    """Family of bijective linear maps sigma_{g,a} on M_n(k) acting slotwise
    on the algebra, held as its invertible conjugators U_a, one per point,
    and their inverses: sigma_{g,a}(m) = U_a^-1 m U_{g^-1 a}."""

    __slots__ = ("ambient", "us", "invs")

    def __init__(self, ambient: Ambient, us, invs):
        self.ambient = ambient
        self.us = us
        self.invs = invs

    @classmethod
    def identity(cls, ambient: Ambient) -> "ConfAutomorphism":
        us = [Mat.identity(ambient.n, ambient.field)] * ambient.gset.size
        return cls(ambient, us, us)

    def apply_mat(self, g, alpha, m: Mat) -> Mat:
        amb = self.ambient
        target = amb.gset.act(amb.group.inv(g), alpha)
        return self.invs[alpha] * m * self.us[target]

    def apply_elem(self, x: DiffElem) -> DiffElem:
        comps = {(g, w): self.apply_mat(g, w, m) for (g, w), m in x.comps.items()}
        return DiffElem(self.ambient, comps)


def build_sigma(u_family, amb: Ambient) -> ConfAutomorphism:
    """Automorphism from invertible conjugators, one per point of V = G.

    The family condition sigma_{gh,a}(m m') = sigma_{g,a}(m)
    sigma_{h,g^-1 a}(m') holds for every invertible family, because
    U_a^-1 m U_{g^-1 a} . U_{g^-1 a}^-1 m' U_{(gh)^-1 a} telescopes, so it
    is not re-checked here; ``sigma_condition_witness`` and
    ``sigma_preserves_products`` are the independent checks of it.
    """
    us = list(u_family)
    invs = []
    for alpha, u in enumerate(us):
        if u.nrows != amb.n or u.ncols != amb.n:
            raise ClassifyError(f"conjugator at {alpha} has the wrong size")
        try:
            invs.append(u.inverse())
        except Exception:
            raise ClassifyError(f"conjugator at {alpha} is singular") from None
    if len(us) != amb.gset.size:
        raise ClassifyError("need one conjugator per point")
    return ConfAutomorphism(amb, us, invs)


def sigma_condition_witness(sigma: ConfAutomorphism):
    """First matrix-unit pair violating
    sigma_{gh,a}(m m') = sigma_{g,a}(m) sigma_{h,g^-1 a}(m'), else None."""
    amb = sigma.ambient
    group = amb.group
    n = amb.n
    units = matrix_units(n, amb.field)
    for g in group.elements():
        ginv = group.inv(g)
        for h in group.elements():
            gh = group.mul(g, h)
            for alpha in amb.gset.points():
                shifted = amb.gset.act(ginv, alpha)
                for a in units:
                    for b in units:
                        lhs = sigma.apply_mat(gh, alpha, a * b)
                        rhs = sigma.apply_mat(g, alpha, a) * sigma.apply_mat(
                            h, shifted, b
                        )
                        if lhs != rhs:
                            return {"g": g, "h": h, "alpha": alpha}
    return None


def sigma_preserves_products(sigma: ConfAutomorphism) -> bool:
    """Exhaustive product-table preservation check on the algebra basis.

    Points where the left factor's support delta vanishes give zero on both
    sides (the slotwise map cannot move the support), so only the firing
    point of each left factor is compared.
    """
    amb = sigma.ambient
    for t1 in amb.basis_indices():
        a = amb.basis_elem(*t1)
        sa = sigma.apply_elem(a)
        gamma = amb.group.inv(t1[0])
        for t2 in amb.basis_indices():
            b = amb.basis_elem(*t2)
            sb = sigma.apply_elem(b)
            if sigma.apply_elem(diff_product(a, b, gamma)) != diff_product(
                sa, sb, gamma
            ):
                return False
    return True


def apply_automorphism(sigma: ConfAutomorphism, C: SubSpan) -> SubSpan:
    """The image of a span, eliminated in the whole algebra.  No decision
    calls it: it is the whole-span oracle the tests compare
    ``canonicalize`` with, and the way they conjugate their inputs."""
    if sigma.ambient != C.ambient:
        raise ClassifyError("ambient mismatch")
    return SubSpan.from_elems(C.ambient, [sigma.apply_elem(e) for e in C.basis_elems()])


def extract_chi(decomp: GradedDecomposition) -> ChiFunction:
    """Read the scalar table off the analysed decomposition of a normalized
    irreducible subalgebra.  Every first-slot component S_g must be in the
    canonical form of
    the span of (G1, chi), i.e. all per-point maps already straightened:
    chi(g, gamma) is the entry at (gamma, 0) of the row of S_g whose pivot
    is (rep, 0), so it is 1 at the representatives, and at g = e it must be
    1 everywhere.  Each S_g is then compared with the rows rebuilt from the
    values read; any other component raises NonScalarError.
    """
    amb = decomp.ambient
    group = amb.group
    n2 = amb.n * amb.n
    one = amb.field.one
    if decomp.classes is None:
        raise ClassifyError("need the analyzed decomposition, not just the grading")
    values = []
    for g in group.elements():
        comp = decomp.components[g]
        row_values = [None] * group.order
        for cls in decomp.classes:
            row = comp.index.get(cls[0] * n2, {})
            for gamma in cls:
                row_values[gamma] = row.get(gamma * n2)
        if None in row_values or (g == 0 and any(v != one for v in row_values)):
            raise NonScalarError(f"component at g={g} is not straightened")
        if list(comp.srows) != _component_rows(row_values, decomp.classes, n2, one):
            raise NonScalarError(f"component at g={g} is not scalar over the classes")
        values.append(row_values)
    chi = ChiFunction(group, values)
    ok, witness = validate_chi(group, decomp.subgroup, chi)
    if not ok:
        raise ClassifyError(f"extracted table fails validation: {witness}")
    return chi


def canonicalize(C: SubSpan, decomp: GradedDecomposition | None = None):
    """Normalize an irreducible subalgebra to its canonical representative.

    Returns (subgroup ids, chi, sigma) such that applying sigma to the
    input yields exactly the validated span built from (subgroup, chi);
    deterministic given the input (representatives are minimal ids and the
    conjugators at representatives are pinned to the identity).

    The input is analysed once, by ``analyze_Se`` (a caller that has run
    it passes its decomposition as ``decomp``).  ``grading`` has proved C
    the sum of its first-slot components S_g, and sigma acts slotwise, so
    sigma(C) is the sum of the sigma(S_g), which lie in disjoint column
    blocks and keep the classes, subgroup and representatives of C.  The
    RREF of such a sum is the concatenation of the blocks' RREFs, so each
    sigma(S_g) is eliminated on its own, in |G| n^2 columns, and
    ``extract_chi``'s comparison of each with the rows rebuilt from chi is
    the exact certificate of the output.
    """
    amb = C.ambient
    if decomp is None:
        decomp = analyze_Se(C)
    n = amb.n
    n2 = n * n
    ident = Mat.identity(n, amb.field)
    rep_set = set(decomp.reps)
    # each conjugator U_g comes with its inverse, the matrix it was built from
    pairs = [
        (ident, ident) if g in rep_set else conjugator_pair(decomp.theta_images[g], n, amb.field)
        for g in amb.group.elements()
    ]
    sigma = ConfAutomorphism(amb, [w for w, _ in pairs], [u for _, u in pairs])
    components = {}
    for g, comp in decomp.components.items():
        images = []
        for row in comp.srows:
            image = {}
            for gamma, flat in dense_blocks(row, n2, amb.field.zero).items():
                m = sigma.apply_mat(g, gamma, Mat.from_flat(flat, n, n))
                image.update((gamma * n2 + t, a) for t, a in enumerate(m.flatten()) if a)
            images.append(image)
        components[g] = SubspaceBasis.from_vectors(comp.ambient, images)
    straightened = GradedDecomposition(amb, components)
    straightened.classes = decomp.classes
    straightened.subgroup = decomp.subgroup
    straightened.reps = decomp.reps
    return decomp.subgroup, extract_chi(straightened), sigma


def theta_bridge(amb: Ambient, theta_fn):
    """Extend a product-preserving bijection of the algebra to the algebra
    of evaluation operators.

    ``theta_fn`` maps elements to elements; it is checked on the basis to
    be linear-bijective, compatible with the module action, and
    product-preserving, and the induced operator map theta(x(g)) =
    theta_fn(x)(g) is checked to be well defined (a vanishing evaluation
    must be sent to a vanishing evaluation).  Returns the operator-space
    matrix together with a report of the multiplicativity and
    action-compatibility checks.
    """
    group = amb.group
    basis = [amb.basis_elem(*t) for t in amb.basis_indices()]
    images = [theta_fn(b) for b in basis]
    mat_rows = [im.vector() for im in images]
    if Mat(mat_rows).rank() != amb.dim:
        raise ClassifyError("map on the algebra is not bijective")
    for b, im in zip(basis, images):
        # compatibility with the module action = first-slot homogeneity
        for (g, _w), _m in b.comps.items():
            for (g2, _w2), _m2 in im.comps.items():
                if g2 != g:
                    raise ClassifyError("map is not compatible with the module action")

    zero = amb.field.zero

    def theta_elem(x: DiffElem) -> DiffElem:
        # linear extension of the basis images
        out = [zero] * amb.dim
        for pos, c in enumerate(x.vector()):
            if c:
                row = mat_rows[pos]
                out = [o + c * r if r else o for o, r in zip(out, row)]
        return DiffElem.from_vector(amb, out)

    for i, a in enumerate(basis):
        gamma = group.inv(next(iter(a.comps))[0])
        for j, b in enumerate(basis):
            if theta_elem(diff_product(a, b, gamma)) != diff_product(
                images[i], images[j], gamma
            ):
                raise ClassifyError(
                    f"map does not preserve the products at ({i},{j},{gamma})"
                )
    N = amb.module_dim
    builder = EchelonBuilder(2 * N * N)
    for b, im in zip(basis, images):
        for g in group.elements():
            v = evaluate(b, g).entries()
            w = evaluate(im, g).entries()
            if not v:
                if w:
                    raise ClassifyError(
                        "operator map is ill defined: zero evaluation with "
                        "nonzero image"
                    )
                continue
            v.update((N * N + k, a) for k, a in w.items())
            added = builder.add(v)
            if added is not None and min(added) >= N * N:
                raise ClassifyError(
                    "operator map is ill defined: dependent evaluations with "
                    "independent images"
                )
    basis_rows = builder.basis()
    if basis_rows.dim != N * N:
        raise ClassifyError("evaluations do not span the operator space")
    # theta(x) = -(image part of the residual of [x | 0])
    cols = []
    for t in range(N * N):
        probe = [zero] * (2 * N * N)
        probe[t] = amb.field.one
        residual = basis_rows.reduce(probe)
        cols.append([-residual.get(N * N + s, zero) for s in range(N * N)])
    theta_mat = Mat(cols).transpose()
    report = _theta_checks(amb, theta_mat)
    if not report["multiplicative"] or not report["action_invariant"]:
        raise ClassifyError(f"operator map fails checks: {report}")
    return theta_mat, report


def _theta_checks(amb: Ambient, theta_mat: Mat) -> dict:
    """Multiplicativity on a full operator basis and compatibility with the
    intrinsic module action h . x = sum Gamma(h_(1)) x Gamma(antipode of
    h_(2)) on the operator algebra."""
    N = amb.module_dim
    field = amb.field
    units = [Mat.unit(N, N, i, j, field) for i in range(N) for j in range(N)]

    def theta(m: Mat) -> Mat:
        return Mat.from_flat(theta_mat.apply(m.flatten()), N, N)

    theta_units = [theta(u) for u in units]
    multiplicative = True
    for i, a in enumerate(units):
        pa, qa = divmod(i, N)
        for j, b in enumerate(units):
            pb, qb = divmod(j, N)
            prod = theta_units[pa * N + qb] if qa == pb else Mat.zero(N, N, field)
            if theta_units[i] * theta_units[j] != prod:
                multiplicative = False
                break
        if not multiplicative:
            break
    gammas = [gamma_op(_point_fn(amb, w), amb).to_mat(field) for w in amb.gset.points()]
    action_ok = True
    group = amb.group
    for q in group.elements():
        pairs = [
            (u, v)
            for u in group.elements()
            for v in group.elements()
            if group.mul(u, v) == q
        ]
        for idx, alpha in enumerate(units):
            acted = Mat.zero(N, N, field)
            for u, v in pairs:
                acted = acted + gammas[u] * alpha * gammas[group.inv(v)]
            lhs = theta(acted)
            rhs = Mat.zero(N, N, field)
            for u, v in pairs:
                rhs = rhs + gammas[u] * theta_units[idx] * gammas[group.inv(v)]
            if lhs != rhs:
                action_ok = False
                break
        if not action_ok:
            break
    return {"multiplicative": multiplicative, "action_invariant": action_ok}
