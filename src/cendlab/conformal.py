"""The conformal algebra H (x) A (x) M_n(k) over a finite group.

Elements are sparse maps (g, w) -> n-by-n matrix.  The g-indexed family of
products has the basis closed form

    (T_g' (x) T_u (x) m) o_gamma (T_h (x) T_w (x) m')
        = [g' = gamma^-1][u = gamma^-1 . w] T_{gamma^-1 h} (x) T_u (x) m m'

which is verified in the test suite against the literal Sweedler-style
expansion through the coaction (``diff_product_sweedler``); both code
paths are kept on purpose since an index-convention slip here would poison
every later module.  The convention throughout the package: a basis
element with first slot T_g acts as an operator supported at z = g^-1.
"""

from __future__ import annotations

import random

from .fields import QQ
from .groups import FiniteGroup, GSet, regular_gset
from .hopf import AElem, HElem, basis_a, basis_h, coaction, left_shift
from .linalg import Mat, SubspaceBasis, dense, dense_blocks, sparse


class ConformalError(ValueError):
    pass


class Ambient:
    """The frame (field, G, V, n) every element and span lives in."""

    __slots__ = ("field", "group", "gset", "n")

    def __init__(self, group: FiniteGroup, n: int, gset: GSet | None = None, field=QQ):
        if n < 1:
            raise ConformalError("matrix size n must be >= 1")
        self.field = field
        self.group = group
        self.gset = gset if gset is not None else regular_gset(group)
        if self.gset.group != group:
            raise ConformalError("G-set does not belong to the group")
        self.n = n

    @property
    def dim(self) -> int:
        """Coefficient-space dimension |G| |V| n^2."""
        return self.group.order * self.gset.size * self.n * self.n

    @property
    def module_dim(self) -> int:
        """Dimension |V| n of the module the operators act on."""
        return self.gset.size * self.n

    def index(self, g: int, w: int, i: int, j: int) -> int:
        n = self.n
        return ((g * self.gset.size + w) * n + i) * n + j

    def module_index(self, w: int, i: int) -> int:
        return w * self.n + i

    def basis_indices(self):
        for g in self.group.elements():
            for w in self.gset.points():
                for i in range(self.n):
                    for j in range(self.n):
                        yield (g, w, i, j)

    def basis_elem(self, g: int, w: int, i: int, j: int) -> "DiffElem":
        return DiffElem(self, {(g, w): Mat.unit(self.n, self.n, i, j, self.field)})

    def __eq__(self, other):
        return (
            isinstance(other, Ambient)
            and self.field == other.field
            and self.group == other.group
            and self.gset == other.gset
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.field, self.group, self.gset, self.n))

    def __repr__(self):
        return f"Ambient({self.group.name}, V={self.gset.name}, n={self.n})"


class DiffElem:
    """Sparse element of H (x) A (x) M_n(k)."""

    __slots__ = ("ambient", "comps")

    def __init__(self, ambient: Ambient, comps=None):
        self.ambient = ambient
        clean = {}
        for key, mat in (comps or {}).items():
            if not mat.is_zero():
                clean[key] = mat
        self.comps = clean

    def component(self, g: int, w: int) -> Mat:
        mat = self.comps.get((g, w))
        if mat is None:
            return Mat.zero(self.ambient.n, self.ambient.n, self.ambient.field)
        return mat

    def _same(self, other):
        if not isinstance(other, DiffElem) or other.ambient != self.ambient:
            raise ConformalError("ambient mismatch")

    def __add__(self, other):
        self._same(other)
        out = dict(self.comps)
        for key, mat in other.comps.items():
            acc = out.get(key)
            out[key] = mat if acc is None else acc + mat
        return DiffElem(self.ambient, out)

    def __sub__(self, other):
        self._same(other)
        return self + (-other)

    def __neg__(self):
        return DiffElem(self.ambient, {k: -m for k, m in self.comps.items()})

    def scale(self, c):
        if not c:
            return DiffElem(self.ambient, {})
        return DiffElem(self.ambient, {k: m.scale(c) for k, m in self.comps.items()})

    def __bool__(self):
        return bool(self.comps)

    def __eq__(self, other):
        if not isinstance(other, DiffElem) or other.ambient != self.ambient:
            return NotImplemented
        return self.comps == other.comps

    def __hash__(self):
        return hash((self.ambient, tuple(sorted(self.comps.items(), key=lambda kv: kv[0]))))

    def vector(self):
        """Dense coefficient vector in the canonical (g, w, i, j) order."""
        amb = self.ambient
        return dense(self.sparse_vector(), amb.dim, amb.field.zero)

    def sparse_vector(self):
        """The nonzero coefficients as a map from canonical index to entry."""
        out = {}
        for (g, w), mat in self.comps.items():
            base = self.ambient.index(g, w, 0, 0)
            for t, a in enumerate(mat.flatten()):
                if a:
                    out[base + t] = a
        return out

    @classmethod
    def from_vector(cls, ambient: Ambient, vec) -> "DiffElem":
        return cls.from_sparse(ambient, sparse(vec))

    @classmethod
    def from_sparse(cls, ambient: Ambient, vec) -> "DiffElem":
        """The element with the coefficients of a sparse map index -> entry;
        its components come in (g, w) order."""
        n = ambient.n
        blocks = dense_blocks(vec, n * n, ambient.field.zero)
        size = ambient.gset.size
        return cls(
            ambient, {divmod(b, size): Mat.from_flat(blocks[b], n, n) for b in sorted(blocks)}
        )

    def __repr__(self):
        terms = []
        for (g, w) in sorted(self.comps):
            terms.append(f"T{g}(x)T{w}(x){self.comps[(g, w)]!r}")
        return " + ".join(terms) if terms else "0"


def diff_product(x: DiffElem, y: DiffElem, gamma: int) -> DiffElem:
    """The gamma-indexed product, by the basis closed form (bilinear)."""
    x._same(y)
    amb = x.ambient
    group, gset = amb.group, amb.gset
    ginv = group.inv(gamma)
    out = {}
    for (g1, w1), m1 in x.comps.items():
        if g1 != ginv:
            continue
        for (g2, w2), m2 in y.comps.items():
            if w1 != gset.act(ginv, w2):
                continue
            key = (group.mul(ginv, g2), w1)
            prod = m1 * m2
            acc = out.get(key)
            out[key] = prod if acc is None else acc + prod
    return DiffElem(amb, out)


def diff_product_sweedler(x: DiffElem, y: DiffElem, gamma: int) -> DiffElem:
    """Same product computed by literally expanding the coaction, the
    left shift and the H-evaluations; kept as an independent code path."""
    x._same(y)
    amb = x.ambient
    group, gset, field = amb.group, amb.gset, amb.field
    ginv = group.inv(gamma)
    out = {}
    for (g1, w1), m1 in x.comps.items():
        h_at = basis_h(group, g1, field).value_at(ginv)  # h(gamma^-1)
        if not h_at:
            continue
        for (g2, w2), m2 in y.comps.items():
            # coaction of the A-part of y, H-leg evaluated at gamma; of its
            # A-legs b_(2) = T_v, only v = w1 survives a = T_{w1} times T_v
            c = coaction(basis_a(gset, w2, field)).rows[gamma][w1]
            if not c:
                continue
            shifted = left_shift(gamma, basis_h(group, g2, field))
            m1m2 = m1 * m2
            for first, c_first in enumerate(shifted.coeffs):
                if c_first:
                    mat = m1m2.scale(h_at * c_first * c)
                    key = (first, w1)
                    acc = out.get(key)
                    out[key] = mat if acc is None else acc + mat
    return DiffElem(amb, out)


def h_action(f: HElem, x: DiffElem) -> DiffElem:
    """H-module action; on the basis it multiplies the first slot pointwise,
    f . (T_g (x) y) = f(g) (T_g (x) y), which is the unique action
    compatible with the product (axioms below check this against it)."""
    if f.group != x.ambient.group:
        raise ConformalError("group mismatch")
    out = {}
    for (g, w), mat in x.comps.items():
        c = f.coeffs[g]
        if c:
            out[(g, w)] = mat.scale(c)
    return DiffElem(x.ambient, out)


def middle_action(f: AElem, x: DiffElem) -> DiffElem:
    """Multiplication on the middle (A) slot, pointwise over V."""
    if f.gset != x.ambient.gset:
        raise ConformalError("G-set mismatch")
    out = {}
    for (g, w), mat in x.comps.items():
        c = f.coeffs[w]
        if c:
            out[(g, w)] = mat.scale(c)
    return DiffElem(x.ambient, out)


class SubSpan:
    """Canonically represented span of elements of the conformal algebra."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: Ambient, basis: SubspaceBasis):
        if basis.ambient != ambient.dim:
            raise ConformalError("basis lives in the wrong coefficient space")
        self.ambient = ambient
        self.basis = basis

    @classmethod
    def from_elems(cls, ambient: Ambient, elems) -> "SubSpan":
        return cls(
            ambient, SubspaceBasis.from_vectors(ambient.dim, [e.sparse_vector() for e in elems])
        )

    @classmethod
    def full(cls, ambient: Ambient) -> "SubSpan":
        one = ambient.field.one
        d = ambient.dim
        return cls(ambient, SubspaceBasis(d, [{k: one} for k in range(d)], range(d)))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def is_full(self) -> bool:
        return self.basis.dim == self.ambient.dim

    def contains(self, elem: DiffElem) -> bool:
        if self.is_full():
            return True
        return self.basis.contains(elem.sparse_vector())

    def basis_elems(self):
        return [DiffElem.from_sparse(self.ambient, row) for row in self.basis.srows]

    def __eq__(self, other):
        return (
            isinstance(other, SubSpan)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"SubSpan(dim {self.dim} of {self.ambient!r})"


def cend(ambient: Ambient) -> SubSpan:
    """The whole conformal algebra as a span."""
    return SubSpan.full(ambient)


def cur(group: FiniteGroup, n: int, field=QQ, gset: GSet | None = None) -> SubSpan:
    """The current subalgebra: span of T_g (x) 1 (x) m with 1 = sum_w T_w."""
    amb = Ambient(group, n, gset=gset, field=field)
    one_row = list(range(amb.gset.size))
    elems = []
    for g in group.elements():
        for i in range(n):
            for j in range(n):
                mat = Mat.unit(n, n, i, j, field)
                comps = {(g, w): mat for w in one_row}
                elems.append(DiffElem(amb, comps))
    return SubSpan.from_elems(amb, elems)


def subalgebra_closure_witness(span: SubSpan):
    """None if the span is an H-submodule closed under every product;
    otherwise a dict describing the first violation.  Products at points
    where the support delta of the left factor vanishes are identically
    zero and are skipped."""
    amb = span.ambient
    if span.is_full():
        return None
    elems = span.basis_elems()
    # H-submodule: first-slot projections stay inside
    for idx, e in enumerate(elems):
        slots = {g for (g, _w) in e.comps}
        if len(slots) == 1:
            continue
        for g in slots:
            proj = DiffElem(
                amb, {k: m for k, m in e.comps.items() if k[0] == g}
            )
            if proj and not span.contains(proj):
                return {"kind": "h_action", "basis_index": idx, "g": g}
    inv = amb.group.inv
    for ia, a in enumerate(elems):
        firing = {inv(g) for (g, _w) in a.comps}
        for ib, b in enumerate(elems):
            for gamma in firing:
                p = diff_product(a, b, gamma)
                if p and not span.contains(p):
                    return {"kind": "product", "left": ia, "right": ib, "gamma": gamma}
    return None


def _basis_product_index(amb: Ambient, gamma, g1, w1, i1, j1, g2, w2, i2, j2):
    """Index-level product of basis elements; None when it vanishes."""
    group, gset = amb.group, amb.gset
    ginv = group.inv(gamma)
    if g1 != ginv or w1 != gset.act(ginv, w2) or j1 != i2:
        return None
    return (group.mul(ginv, g2), w1, i1, j2)


def check_axioms(sample, trials=None, seed=0, product=diff_product):
    """Verify the H-action compatibilities and the composition law on a
    sample of elements.

    With ``trials=None`` the check is exhaustive over the sample, all basis
    functions h, and all group points; otherwise ``trials`` random tuples
    are drawn (seeded, reproducible).  The regularity axiom is vacuous for
    a finite group and is reported as automatically satisfied.  Returns a
    report dict with the first counterexample, if any.
    """
    sample = list(sample)
    report = {
        "passed": True,
        "counterexample": None,
        "checked": 0,
        "regularity": "automatic for finite groups",
    }
    if not sample:
        return report
    amb = sample[0].ambient
    group, field = amb.group, amb.field
    hs = [basis_h(group, u, field) for u in group.elements()]

    def fail(kind, **data):
        report["passed"] = False
        report["counterexample"] = {"kind": kind, **data}
        return report

    if trials is None:
        pair_iter = [
            (a, b, g)
            for a in sample
            for b in sample
            for g in group.elements()
        ]
        triple_iter = [
            (a, b, c, g, gm)
            for a in sample
            for b in sample
            for c in sample
            for g in group.elements()
            for gm in group.elements()
        ]
    else:
        rng = random.Random(seed)
        pair_iter = [
            (rng.choice(sample), rng.choice(sample), rng.randrange(group.order))
            for _ in range(trials)
        ]
        triple_iter = [
            (
                rng.choice(sample),
                rng.choice(sample),
                rng.choice(sample),
                rng.randrange(group.order),
                rng.randrange(group.order),
            )
            for _ in range(trials)
        ]

    for a, b, g in pair_iter:
        p = product(a, b, g)
        ginv = group.inv(g)
        for u, h in enumerate(hs):
            lhs = product(h_action(h, a), b, g)
            rhs = p.scale(h.coeffs[ginv])
            if lhs != rhs:
                return fail("h-action-left", h=u, g=g)
            lhs3 = product(a, h_action(h, b), g)
            rhs3 = h_action(left_shift(g, h), p)
            if lhs3 != rhs3:
                return fail("h-action-right", h=u, g=g)
            report["checked"] += 2
    for a, b, c, g, gm in triple_iter:
        lhs = product(a, product(b, c, gm), g)
        rhs = product(product(a, b, g), c, group.mul(gm, g))
        if lhs != rhs:
            return fail("composition", g=g, gamma=gm)
        report["checked"] += 1
    return report


def check_axioms_exhaustive_basis(amb: Ambient) -> dict:
    """Exhaustive axiom verification over the full basis of the algebra.

    Factored into (a) agreement of the general product with the index-level
    closed form on every basis pair and every point, and (b) the axiom
    identities for the closed form over every basis tuple; together with
    bilinearity this covers the whole algebra, at a cost that stays within
    the desk-scale budget.
    """
    group, gset, n = amb.group, amb.gset, amb.n
    report = {
        "passed": True,
        "counterexample": None,
        "checked": 0,
        "regularity": "automatic for finite groups",
    }

    def fail(kind, **data):
        report["passed"] = False
        report["counterexample"] = {"kind": kind, **data}
        return report

    idxs = list(amb.basis_indices())
    # (a) closed form == general bilinear product on all basis pairs
    for t1 in idxs:
        a = amb.basis_elem(*t1)
        for t2 in idxs:
            b = amb.basis_elem(*t2)
            for gamma in group.elements():
                got = diff_product(a, b, gamma)
                want = _basis_product_index(amb, gamma, *t1, *t2)
                if want is None:
                    if got:
                        return fail("closed-form", left=t1, right=t2, gamma=gamma)
                else:
                    expect = amb.basis_elem(*want)
                    if got != expect:
                        return fail("closed-form", left=t1, right=t2, gamma=gamma)
                report["checked"] += 1
    # (b) axioms at the index level
    for t1 in idxs:
        for t2 in idxs:
            for g in group.elements():
                p = _basis_product_index(amb, g, *t1, *t2)
                ginv = group.inv(g)
                for u in group.elements():
                    # left H-action: T_u . a scales a by [u = g1]
                    lhs = p if (u == t1[0] and p is not None) else None
                    rhs = p if (u == ginv and p is not None) else None
                    if lhs != rhs:
                        return fail("h-action-left", left=t1, right=t2, g=g, h=u)
                    # right H-action against the shifted function
                    lhs = p if (u == t2[0] and p is not None) else None
                    rhs = (
                        p
                        if (p is not None and group.mul(g, p[0]) == u)
                        else None
                    )
                    if lhs != rhs:
                        return fail("h-action-right", left=t1, right=t2, g=g, h=u)
                    report["checked"] += 2
    for t1 in idxs:
        for t2 in idxs:
            for t3 in idxs:
                for g in group.elements():
                    for gm in group.elements():
                        inner = _basis_product_index(amb, gm, *t2, *t3)
                        lhs = (
                            None
                            if inner is None
                            else _basis_product_index(amb, g, *t1, *inner)
                        )
                        left = _basis_product_index(amb, g, *t1, *t2)
                        rhs = (
                            None
                            if left is None
                            else _basis_product_index(
                                amb, group.mul(gm, g), *left, *t3
                            )
                        )
                        if lhs != rhs:
                            return fail(
                                "composition", a=t1, b=t2, c=t3, g=g, gamma=gm
                            )
                        report["checked"] += 1
    return report
