"""The function Hopf algebra of a finite group and coordinate algebras of
finite G-sets.

H = k[G] is spanned by the indicator functions T_g (T_g(x) = 1 iff x = g)
with pointwise product; the coproduct, counit and antipode are dual to the
group structure.  Elements are coefficient vectors in the T_g basis, so all
structure maps become finite sums.  Tensors in H (x) H and H (x) A are
returned as coefficient matrices (first tensor leg indexes the rows).
"""

from __future__ import annotations

from .fields import QQ
from .groups import FiniteGroup, GSet, regular_gset
from .linalg import Mat


class HopfError(ValueError):
    pass


class _FnElem:
    """Shared coefficient-vector behaviour for functions on a finite set."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        self._same(other)
        return type(self)(self.carrier(), [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._same(other)
        return type(self)(self.carrier(), [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return type(self)(self.carrier(), [-a for a in self.coeffs])

    def scale(self, c):
        return type(self)(self.carrier(), [c * a for a in self.coeffs])

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.carrier() == other.carrier()
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(type(self)), self.carrier(), self.coeffs))

    def value_at(self, x: int):
        return self.coeffs[x]


class HElem(_FnElem):
    """Element of H = k[G] in the basis {T_g}."""

    __slots__ = ("group",)

    def __init__(self, group: FiniteGroup, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != group.order:
            raise HopfError("coefficient count does not match the group order")
        self.group = group
        super().__init__(coeffs)

    def carrier(self):
        return self.group

    def _same(self, other):
        if not isinstance(other, HElem) or other.group != self.group:
            raise HopfError("group mismatch")

    def __repr__(self):
        terms = [f"{c}*T{g}" for g, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


class AElem(_FnElem):
    """Element of A = k[V] for a finite G-set V, in the basis {T_w}."""

    __slots__ = ("gset",)

    def __init__(self, gset: GSet, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != gset.size:
            raise HopfError("coefficient count does not match the G-set size")
        self.gset = gset
        super().__init__(coeffs)

    def carrier(self):
        return self.gset

    def _same(self, other):
        if not isinstance(other, AElem) or other.gset != self.gset:
            raise HopfError("G-set mismatch")

    def __repr__(self):
        terms = [f"{c}*T{w}" for w, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def basis_h(group: FiniteGroup, g: int, field=QQ) -> HElem:
    coeffs = [field.zero] * group.order
    coeffs[g] = field.one
    return HElem(group, coeffs)


def basis_a(gset: GSet, w: int, field=QQ) -> AElem:
    coeffs = [field.zero] * gset.size
    coeffs[w] = field.one
    return AElem(gset, coeffs)


def one_h(group: FiniteGroup, field=QQ) -> HElem:
    """The unit of H, which is the sum of all T_g."""
    return HElem(group, [field.one] * group.order)


def h_mult(f: HElem, h: HElem) -> HElem:
    """Pointwise product; on the basis T_g T_h = delta_{g,h} T_g."""
    f._same(h)
    return HElem(f.group, [a * b for a, b in zip(f.coeffs, h.coeffs)])


def a_mult(f: AElem, h: AElem) -> AElem:
    f._same(h)
    return AElem(f.gset, [a * b for a, b in zip(f.coeffs, h.coeffs)])


def coproduct(h: HElem) -> Mat:
    """Coefficient matrix of Delta(h) in H (x) H: entry (u, v) is h(u*v)."""
    group = h.group
    return Mat(
        [
            [h.coeffs[group.mul(u, v)] for v in group.elements()]
            for u in group.elements()
        ]
    )


def counit(h: HElem):
    """Evaluation at the identity."""
    return h.coeffs[0]


def antipode(h: HElem) -> HElem:
    """S(T_g) = T_{g^-1}; on coefficients S(h)(x) = h(x^-1)."""
    group = h.group
    return HElem(group, [h.coeffs[group.inv(x)] for x in group.elements()])


def left_shift(g: int, h: HElem) -> HElem:
    """(L_g h)(x) = h(g x); on basis elements L_g T_h = T_{g^-1 h}."""
    group = h.group
    return HElem(group, [h.coeffs[group.mul(g, x)] for x in group.elements()])


def coaction(a: AElem) -> Mat:
    """Coefficient matrix of Delta_A(a) in H (x) A: entry (g, v) is a(g v).

    This is the unique linear map dual to the action; on the basis it reads
    Delta_A(T_w) = sum_g T_g (x) T_{g^-1 w}.
    """
    gset = a.gset
    return Mat(
        [
            [a.coeffs[gset.act(g, v)] for v in gset.points()]
            for g in gset.group.elements()
        ]
    )


def hopf_axiom_report(group: FiniteGroup, field=QQ) -> dict:
    """Exhaustive check of the Hopf axioms on the T_g basis.

    Returns {"passed": bool, "failures": [...]}: coassociativity, both
    counit laws, both antipode convolution laws, multiplicativity of the
    coproduct, S(S(h)) = h, and anti-multiplicativity of the left shifts.
    """
    failures = []
    n = group.order
    basis = [basis_h(group, g, field) for g in group.elements()]

    for g in group.elements():
        cop = coproduct(basis[g])
        # (Delta (x) id)Delta vs (id (x) Delta)Delta, coefficient of T_u(x)T_v(x)T_w
        for u in group.elements():
            for v in group.elements():
                for w in group.elements():
                    left = cop.rows[group.mul(u, v)][w]
                    right = cop.rows[u][group.mul(v, w)]
                    lhs = basis[g].coeffs[group.mul(group.mul(u, v), w)]
                    if left != lhs or right != lhs:
                        failures.append(("coassociativity", g, u, v, w))
    for g in group.elements():
        h = basis[g]
        cop = coproduct(h)
        if tuple(cop.rows[0]) != h.coeffs:
            failures.append(("counit-left", g))
        if tuple(r[0] for r in cop.rows) != h.coeffs:
            failures.append(("counit-right", g))
        conv = [cop.rows[group.inv(x)][x] for x in group.elements()]
        target = counit(h)
        if any(c != target for c in conv):
            failures.append(("antipode-left", g))
        conv_r = [cop.rows[x][group.inv(x)] for x in group.elements()]
        if any(c != target for c in conv_r):
            failures.append(("antipode-right", g))
        if antipode(antipode(h)) != h:
            failures.append(("antipode-involutive", g))
    for g in group.elements():
        for h in group.elements():
            prod = h_mult(basis[g], basis[h])
            cop_prod = coproduct(prod)
            cg, ch = coproduct(basis[g]), coproduct(basis[h])
            entrywise = Mat(
                [[a * b for a, b in zip(ra, rb)] for ra, rb in zip(cg.rows, ch.rows)]
            )
            if cop_prod != entrywise:
                failures.append(("coproduct-multiplicative", g, h))
    for g1 in group.elements():
        for g2 in group.elements():
            for x in group.elements():
                lhs = left_shift(g1, left_shift(g2, basis[x]))
                rhs = left_shift(group.mul(g2, g1), basis[x])
                if lhs != rhs:
                    failures.append(("left-shift-antimultiplicative", g1, g2, x))
    for g in group.elements():
        for a in group.elements():
            for b in group.elements():
                lhs = left_shift(g, h_mult(basis[a], basis[b]))
                rhs = h_mult(left_shift(g, basis[a]), left_shift(g, basis[b]))
                if lhs != rhs:
                    failures.append(("left-shift-algebra-map", g, a, b))
    return {"passed": not failures, "failures": failures, "basis_size": n}


def coaction_report(gset: GSet, field=QQ) -> dict:
    """Exhaustive check that the coaction is a counital, coassociative
    algebra map on the T_w basis."""
    failures = []
    group = gset.group
    basis = [basis_a(gset, w, field) for w in gset.points()]
    for w in gset.points():
        ca = coaction(basis[w])
        # counit law: evaluating the H-leg at e recovers the element
        if tuple(ca.rows[0]) != basis[w].coeffs:
            failures.append(("coaction-counital", w))
        # coassociativity: coefficient of T_u (x) T_v (x) T_p
        for u in group.elements():
            for v in group.elements():
                for p in gset.points():
                    left = ca.rows[group.mul(u, v)][p]
                    right = ca.rows[u][gset.act(v, p)]
                    if left != right:
                        failures.append(("coaction-coassociative", w, u, v, p))
    for w1 in gset.points():
        for w2 in gset.points():
            prod = a_mult(basis[w1], basis[w2])
            lhs = coaction(prod)
            c1, c2 = coaction(basis[w1]), coaction(basis[w2])
            rhs = Mat(
                [[a * b for a, b in zip(ra, rb)] for ra, rb in zip(c1.rows, c2.rows)]
            )
            if lhs != rhs:
                failures.append(("coaction-algebra-map", w1, w2))
    return {"passed": not failures, "failures": failures}


def regular_coaction_matches_coproduct(group: FiniteGroup, field=QQ) -> bool:
    """For V = G with left multiplication the coaction equals the coproduct."""
    gset = regular_gset(group)
    for g in group.elements():
        if coaction(basis_a(gset, g, field)) != coproduct(basis_h(group, g, field)):
            return False
    return True
