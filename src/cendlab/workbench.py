"""Operator realization of the conformal algebra and its decision tools.

The free module M = A (x) k^n is the space of k^n-valued functions on V;
module coordinates are (w, i) -> w*n + i.  An element with first slot T_g
evaluates to an operator supported at z = g^-1, namely the multiplication
operator by T_w composed with the shift by z, tensored with its matrix
part.  On top of evaluation this module builds the tensor-to-operator
isomorphism and its inverse, the twist that straightens left ideals,
one-sided ideal closures, essentiality of ideals, simplicity of the
algebra, and the irreducibility decision with certificates.

Operators on M are ``linalg.BlockOp``s: maps from (row block, column
block) to their nonzero n x n matrices, one block per point of V.  A
component T_g (x) T_w (x) m evaluates, at z = g^-1, to the single block m
at (w, z.w), so evaluations, shifts and multiplication operators hold at
most one block per row block.  ``op_product`` multiplies blocks,
``check_Tinvariance`` scans block keys, ``phi`` reads the blocks back, and
``module_closure`` and ``certificate_defect`` apply operators through a
column index built from the blocks.  Dense N x N matrices (N = |V| n) are
built only for the oracles of the tests.

Closure and the enrichment of a span are decided on one route, ``grading``:
first-slot components read off the span's RREF rows, the graded product
rule and per-block ranks.  The product rule closes a greedy generating set
of the span under left multiplication, so it multiplies about
(generators) x dim S pairs, not every pair of basis rows.  Both
``is_irreducible`` and ``classify.analyze_Se`` call ``grading``.  The
closure witness ``conformal.subalgebra_closure_witness`` and the explicit
enrichment ``enrich`` stay as independent oracles that the tests compare
the route with, beside the operator-side ``operator_algebra`` of the
tests; no decision calls them.
"""

from __future__ import annotations

from .conformal import Ambient, DiffElem, SubSpan, subalgebra_closure_witness
from .groups import orbits
from .hopf import AElem, HElem
from .linalg import (
    BlockOp,
    EchelonBuilder,
    Mat,
    SubspaceBasis,
    dense_blocks,
    span_closure,
    sparse_nullspace,
)


class WorkbenchError(ValueError):
    pass


class NotTInvariantError(WorkbenchError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"family is not translation invariant: {witness}")


class IdealShapeError(WorkbenchError):
    pass


def module_unit(amb: Ambient, w: int, i: int):
    vec = [amb.field.zero] * amb.module_dim
    vec[amb.module_index(w, i)] = amb.field.one
    return vec


def gamma_op(f, amb: Ambient) -> BlockOp:
    """Multiplication operator u -> f u on M; f is a function on V (or on G
    when V = G).  Its block at (w, w) is f(w) times the identity."""
    coeffs = f.coeffs if isinstance(f, (HElem, AElem)) else tuple(f)
    if len(coeffs) != amb.gset.size:
        raise WorkbenchError("function does not live on V")
    ident = Mat.identity(amb.n, amb.field)
    blocks = {w: {w: ident.scale(c)} for w, c in enumerate(coeffs) if c}
    return BlockOp(amb.gset.size, amb.n, blocks)


def left_shift_op(amb: Ambient, z: int) -> BlockOp:
    """The shift operator: T_v (x) e_j maps to T_{z^-1 . v} (x) e_j, i.e.
    the identity block at (w, z.w) for every w."""
    ident = Mat.identity(amb.n, amb.field)
    act = amb.gset.act
    blocks = {w: {act(z, w): ident} for w in amb.gset.points()}
    return BlockOp(amb.gset.size, amb.n, blocks)


def evaluate(x: DiffElem, z: int) -> BlockOp:
    """The operator x(z); linear in x.  A component (g, w) is supported at
    z = g^-1, where it puts its matrix at the block (w, z.w); no two
    components meet at one block.  This is the one evaluation routine:
    sparse evaluation vectors are its ``entries``."""
    amb = x.ambient
    zinv = amb.group.inv(z)
    act = amb.gset.act
    blocks = {w: {act(z, w): mat} for (g, w), mat in x.comps.items() if g == zinv}
    return BlockOp(amb.gset.size, amb.n, blocks)


def evaluation_points(x: DiffElem):
    """The z with x(z) nonzero, in group order: the inverses of the first
    slots of x's components.  Every other evaluation of x is zero."""
    inv = x.ambient.group.inv
    return sorted({inv(g) for g, _w in x.comps})


class ConfOperator:
    """A family z -> operator on M, one ``BlockOp`` per group element.

    Dense N x N ``Mat``s are accepted too and cut into blocks here, once;
    the blocks are the only storage."""

    __slots__ = ("ambient", "ops")

    def __init__(self, ambient: Ambient, ops):
        ops = tuple(ops)
        if len(ops) != ambient.group.order:
            raise WorkbenchError("need one operator per group element")
        N = ambient.module_dim
        if any(op.nrows != N or op.ncols != N for op in ops):
            raise WorkbenchError("operator has the wrong shape")
        self.ambient = ambient
        self.ops = tuple(
            BlockOp.from_mat(op, ambient.n) if isinstance(op, Mat) else op for op in ops
        )
        if any(op.n != ambient.n for op in self.ops):
            raise WorkbenchError("operator has the wrong block size")

    def at(self, z: int) -> BlockOp:
        return self.ops[z]

    def __eq__(self, other):
        return (
            isinstance(other, ConfOperator)
            and self.ambient == other.ambient
            and self.ops == other.ops
        )

    def __hash__(self):
        return hash((self.ambient, self.ops))

    def __repr__(self):
        nonzero = sum(1 for op in self.ops if not op.is_zero())
        return f"ConfOperator({nonzero} nonzero points)"


def left_shift_family(amb: Ambient) -> ConfOperator:
    return ConfOperator(amb, [left_shift_op(amb, z) for z in amb.group.elements()])


def check_Tinvariance(a: ConfOperator):
    """(True, None) when a(g)(fu) = (L_g f)(a(g)u) holds for every basis
    function and every g; otherwise (False, {"g": g, "w": w}) for the first
    g in group order and the least point w whose indicator breaks the law.

    Decided by a scan of the block keys.  On the indicator of w the law
    reads a(g) Gamma_w = Gamma_{g^-1.w} a(g), where Gamma_w keeps the
    coordinates at w.  A block of a(g) at (v, c) survives on the left iff
    c = w, and on the right iff v = g^-1.w, i.e. w = g.v.  So the law holds
    at every w iff each nonzero block of a(g) sits at c = g.v, and a
    nonzero block with c != g.v breaks it at exactly w = c and w = g.v.
    The least of min(c, g.v) over those blocks is thus the first failing w
    in point order, the witness a test of each w in turn would report.
    """
    amb = a.ambient
    size = amb.gset.size
    act = amb.gset.act
    for g in amb.group.elements():
        least = size
        for v, row in a.at(g).blocks.items():
            gv = act(g, v)
            for c in row:
                if c != gv:
                    least = min(least, c, gv)
        if least < size:
            return False, {"g": g, "w": least}
    return True, None


def _point_fn(amb: Ambient, w: int):
    coeffs = [amb.field.zero] * amb.gset.size
    coeffs[w] = amb.field.one
    return coeffs


def phi(a: ConfOperator) -> DiffElem:
    """Tensor form of a translation-invariant family; errors with a witness
    when the family is not translation invariant.  The component (z^-1, w)
    is the block (w, z.w) of a(z)."""
    ok, witness = check_Tinvariance(a)
    if not ok:
        raise NotTInvariantError(witness)
    amb = a.ambient
    act = amb.gset.act
    comps = {}
    for z in amb.group.elements():
        blocks = a.at(z).blocks
        first = amb.group.inv(z)
        for w in sorted(blocks):
            # the check left one block in each row block w, at (w, z.w)
            comps[(first, w)] = blocks[w][act(z, w)]
    return DiffElem(amb, comps)


def phi_inv(x: DiffElem) -> ConfOperator:
    amb = x.ambient
    return ConfOperator(amb, [evaluate(x, z) for z in amb.group.elements()])


def op_product(a: ConfOperator, b: ConfOperator, g: int) -> ConfOperator:
    """(a o_g b)(z) = a(g) b(z g^-1), as block products."""
    if a.ambient != b.ambient:
        raise WorkbenchError("ambient mismatch")
    amb = a.ambient
    group = amb.group
    ag = a.at(g)
    ginv = group.inv(g)
    return ConfOperator(amb, [ag * b.at(group.mul(z, ginv)) for z in group.elements()])


def fourier(x: DiffElem) -> DiffElem:
    """The twist on H (x) A (x) M_n: T_h (x) T_w (x) m -> T_h (x) T_{h.w} (x) m."""
    amb = x.ambient
    out = {}
    for (h, w), mat in x.comps.items():
        key = (h, amb.gset.act(h, w))
        acc = out.get(key)
        out[key] = mat if acc is None else acc + mat
    return DiffElem(amb, out)


def fourier_inv(x: DiffElem) -> DiffElem:
    amb = x.ambient
    out = {}
    for (h, w), mat in x.comps.items():
        key = (h, amb.gset.act(amb.group.inv(h), w))
        acc = out.get(key)
        out[key] = mat if acc is None else acc + mat
    return DiffElem(amb, out)


def fourier_span(span: SubSpan, inverse=False) -> SubSpan:
    fn = fourier_inv if inverse else fourier
    return SubSpan.from_elems(span.ambient, [fn(e) for e in span.basis_elems()])


# ---------------------------------------------------------------------------
# spans of evaluation operators


def wn_span(C: SubSpan) -> SubspaceBasis:
    """Span of all evaluation operators of elements of C, inside End M.

    For a genuine subalgebra the span is already closed under composition
    (the composition law moves a product of evaluations to an evaluation of
    a product), so the plain span is returned after the closure check; any
    other span is refused with WorkbenchError.
    """
    amb = C.ambient
    witness = subalgebra_closure_witness(C)
    if witness is not None:
        raise WorkbenchError(f"span is not closed under the products ({witness})")
    vectors = [evaluate(e, z).entries() for e in C.basis_elems() for z in evaluation_points(e)]
    return SubspaceBasis.from_vectors(amb.module_dim ** 2, vectors)


def module_closure(ops, seeds, N):
    """For each seed in turn, the smallest subspace of M containing it and
    invariant under the ``BlockOp``s ops, by ``span_closure``.  An index
    from each column to the operators with a nonzero entry there is built
    once for all seeds, so a row is applied only to the operators that can
    move it; an image that is zero is not inserted."""
    movers = {}
    for k, op in enumerate(ops):
        for j in op.columns():
            movers.setdefault(j, set()).add(k)

    def step(row):
        touched = set().union(*(movers.get(j, ()) for j in row))
        return [image for k in sorted(touched) if (image := ops[k].apply(row))]

    for seed in seeds:
        yield span_closure(N, [seed], step)


# ---------------------------------------------------------------------------
# enrichment and irreducibility


class GradedDecomposition:
    """First-slot grading of a span: its components, the closure defect
    and the per-block ranks, with the classification data filled in by
    ``classify.analyze_Se``."""

    __slots__ = (
        "ambient",
        "components",
        "defect",
        "ranks",
        "classes",
        "subgroup",
        "reps",
        "theta_images",
    )

    def __init__(self, ambient, components):
        self.ambient = ambient
        self.components = components  # g -> SubspaceBasis in A (x) M_n coords, or None
        self.defect = None
        self.ranks = None
        self.classes = None
        self.subgroup = None
        self.reps = None
        self.theta_images = None

    @property
    def enriched_dim(self) -> int:
        return sum(self.ranks.values())


def _first_slot_rows(C: SubSpan):
    """The span's RREF rows grouped by first slot, with no elimination:
    (components, None), components[g] holding the rows inside block g
    moved into A (x) M_n coordinates, when every row lies inside one block;
    otherwise (None, a phrase naming the first row that does not and two
    first slots it touches).  A row lies in the block of its pivot, its
    least column, iff its last column does."""
    amb = C.ambient
    block = amb.gset.size * amb.n * amb.n
    rows = {g: ([], []) for g in amb.group.elements()}
    for i, (row, piv) in enumerate(zip(C.basis.srows, C.basis.pivots)):
        g, last = piv // block, max(row) // block
        if last != g:
            return None, f"RREF row {i} touches first slots {g} and {last}"
        base = g * block
        srows, pivots = rows[g]
        srows.append({k - base: a for k, a in row.items()})
        pivots.append(piv - base)
    return {g: SubspaceBasis(block, *parts) for g, parts in rows.items()}, None


def _graded_product(amb: Ambient, x, y, shift):
    """Pointwise product of x with the shift of y inside A (x) M_n, on
    point-block maps: only the points where x and the shifted y are both
    nonzero are multiplied.  Returns the product as a sparse vector."""
    n = amb.n
    n2 = n * n
    act = amb.gset.act
    out = {}
    for gamma, xm in x.items():
        ym = y.get(act(shift, gamma))
        if ym is None:
            continue
        base = gamma * n2
        for i in range(n):
            for j in range(n):
                acc = None
                for k in range(n):
                    a = xm[i * n + k]
                    if a:
                        b = ym[k * n + j]
                        if b:
                            acc = a * b if acc is None else acc + a * b
                if acc:
                    out[base + i * n + j] = acc
    return out


def _product_rule(amb: Ambient, components, blocks):
    """Decide S_g . (shift of S_h) inside S_{gh} from a generating set.

    The component rows are walked in order.  A row outside W, the span
    reached so far, becomes a generator x and joins W; W is kept closed
    under left multiplication by the generators, with one echelon per
    component.  Each product x . w, for x in S_g and w in W_h, is reduced
    against W_{gh}, and only a new one is tested in S_{gh} and joins W.

    So W lies in S, and once every row of S is in W, W = S.  The graded
    product is associative (both bracketings of x . y . z read
    x(gamma) y(g^-1 gamma) z(h^-1 g^-1 gamma)), so a span that contains
    the generators and is closed under left multiplication by them is
    closed under all products.  A closed span costs (number of
    generators) x dim S products instead of (dim S)^2.  Returns None, or a
    phrase naming the pair (g, h) of the first product found outside
    S_{gh}; both of its factors lie in S."""
    group = amb.group
    n2 = amb.n * amb.n
    zero = amb.field.zero
    closure = {g: EchelonBuilder(comp.ambient) for g, comp in components.items()}
    gens = []  # (g, g^-1, x) for each generator x in S_g
    spanning = []  # (h, y): a basis of W, as point-block maps, y in W_h
    done = 0  # spanning[:done] has been multiplied by every generator

    def multiply(gen, h, y):
        g, ginv, x = gen
        prod = _graded_product(amb, x, y, ginv)
        gh = group.mul(g, h)
        if prod and closure[gh].add(prod) is not None:
            if not components[gh].contains(prod):
                return f"grading product rule fails at (g={g}, h={h})"
            spanning.append((gh, dense_blocks(prod, n2, zero)))
        return None

    for g, comp in components.items():
        ginv = group.inv(g)
        for row, x in zip(comp.srows, blocks[g]):
            if closure[g].add(row) is None:
                continue
            # all of W has met the earlier generators; the new one meets it
            # here, and what W gains from now on meets every generator
            gen = (g, ginv, x)
            gens.append(gen)
            for h, y in list(spanning):
                defect = multiply(gen, h, y)
                if defect:
                    return defect
            spanning.append((g, x))
            while done < len(spanning):
                h, y = spanning[done]
                done += 1
                for gen in gens:
                    defect = multiply(gen, h, y)
                    if defect:
                        return defect
    return None


def grading(C: SubSpan) -> GradedDecomposition:
    """Decide closure and the enrichment of a span in one pass.

    This is the route the decisions take: ``is_irreducible`` and
    ``classify.analyze_Se`` call it, and each raises its own error on a
    defect.  ``conformal.subalgebra_closure_witness`` and ``enrich`` are the
    independent oracles the tests compare it with.

    Closure: the span is an H-submodule iff it is homogeneous, the direct
    sum of its first-slot components S_g, which lie in disjoint column
    blocks.  The union of the parts' RREFs is an RREF of such a sum (its
    pivots are distinct and each row is zero at every other pivot), so by
    uniqueness it is the sum's RREF; conversely, rows that each lie in one
    block make the span the direct sum of their groups.  So S_g is the
    group of RREF rows inside block g, and a row reaching into two blocks
    is the witness that the span is inhomogeneous (``components`` is then
    None).  A homogeneous span is closed under the products iff S_g .
    (shift of S_h) lies in S_{gh} for all g, h, which ``_product_rule``
    decides from a generating set of S, not pair by pair of basis rows.
    ``defect`` is None when the span is closed, otherwise a phrase naming
    the witness row or a pair (g, h) with a product outside S_{gh}.

    Enrichment: ``ranks[(g, w)]`` is the rank of the span's projection onto
    the (g, w) block, spanned by the (g, w) blocks of the RREF rows.
    ``enrich`` spans exactly these block projections, so ``enriched_dim``,
    their sum, is the dimension of the enrichment for any span, and the
    enrichment is full iff every rank is n^2.

    Each RREF row is cut once into its nonzero (g, w) blocks, read by the
    products and the ranks; nothing is eliminated again.
    """
    amb = C.ambient
    size = amb.gset.size
    n2 = amb.n * amb.n
    components, witness = _first_slot_rows(C)
    decomp = GradedDecomposition(amb, components)
    cuts = [dense_blocks(row, n2, amb.field.zero) for row in C.basis.srows]
    slices = {}
    for cut in cuts:
        for b, flat in cut.items():
            slices.setdefault(b, []).append(flat)
    decomp.ranks = {
        (g, w): Mat(slices.get(g * size + w, [])).rank()
        for g in amb.group.elements()
        for w in amb.gset.points()
    }
    if components is None:
        decomp.defect = f"not homogeneous in the first slot; {witness}"
        return decomp
    # each component row as a map from its points to its n x n blocks
    blocks = {g: [] for g in components}
    for cut in cuts:
        g = min(cut) // size
        blocks[g].append({b - g * size: flat for b, flat in cut.items()})
    decomp.defect = _product_rule(amb, components, blocks)
    return decomp


def enrich(C: SubSpan) -> SubSpan:
    """Close the span under multiplication on the middle slot, i.e. the span
    of (1 (x) f (x) E) o_e c over functions f and c in C.  On coefficient
    vectors this is projection onto the individual middle-slot components,
    so it always contains C.

    The decisions read the dimension of the enrichment off ``grading``'s
    block ranks; this explicit construction is kept as the oracle the
    tests compare them with."""
    amb = C.ambient
    builder = EchelonBuilder(amb.dim)
    n2 = amb.n * amb.n
    for row in C.basis.srows:
        builder.add(row)
        blocks = {}
        for k, a in row.items():
            blocks.setdefault(k // n2, {})[k] = a
        for b in sorted(blocks):
            builder.add(blocks[b])
    return SubSpan(amb, builder.basis())


class IrreducibilityResult:
    __slots__ = ("irreducible", "enriched_dim", "certificate", "flag")

    def __init__(self, irreducible, enriched_dim, certificate=None, flag=None):
        self.irreducible = irreducible
        self.enriched_dim = enriched_dim
        self.certificate = certificate
        self.flag = flag

    def __repr__(self):
        verdict = "irreducible" if self.irreducible else "reducible"
        return f"IrreducibilityResult({verdict}, enriched dim {self.enriched_dim})"


def _module_operators(C: SubSpan):
    """The multiplication operators Gamma_w and the nonzero evaluations of
    the basis elements of C, each with its name."""
    amb = C.ambient
    named = [(f"Gamma_{w}", gamma_op(_point_fn(amb, w), amb)) for w in amb.gset.points()]
    for k, e in enumerate(C.basis_elems()):
        for z in evaluation_points(e):
            named.append((f"the evaluation of basis element {k} at {z}", evaluate(e, z)))
    return named


def invariant_submodule_search(C: SubSpan) -> SubspaceBasis | None:
    """Look for a proper nonzero submodule of M invariant under the
    multiplication operators and all evaluations of C, by closing
    coordinate vectors (certificates over a non-closed base field may not
    exist even when the enrichment is proper)."""
    amb = C.ambient
    N = amb.module_dim
    ops = [op for _name, op in _module_operators(C)]
    one = amb.field.one
    seeds = [module_unit(amb, w, i) for w in amb.gset.points() for i in range(amb.n)]
    # one deterministic dense probe in addition to the coordinate vectors
    seeds.append([one] * N)
    for closure in module_closure(ops, seeds, N):
        if 0 < closure.dim < N:
            return closure
    return None


def certificate_defect(C: SubSpan, certificate: SubspaceBasis):
    """None when ``certificate`` proves C reducible: a nonzero, proper
    subspace of M invariant under every multiplication operator and every
    nonzero evaluation of C.  Otherwise a phrase naming the first failure."""
    N = C.ambient.module_dim
    if certificate.ambient != N:
        return f"certificate lives in k^{certificate.ambient}, not in M = k^{N}"
    if certificate.dim == 0:
        return "certificate is the zero subspace"
    if certificate.dim == N:
        return "certificate is all of M"
    for name, op in _module_operators(C):
        for row in certificate.srows:
            if not certificate.contains(op.apply(row)):
                return f"certificate is not invariant under {name}"
    return None


def is_irreducible(C: SubSpan) -> IrreducibilityResult:
    """Decide whether the module carries no proper invariant submodule over
    the algebraic closure.

    Decision rule: the span is irreducible iff its middle-slot enrichment
    is the whole algebra.  Fullness forces every matrix unit into the
    operator span, which kills invariant submodules over any field; a
    proper enrichment forces reducibility after base change, and the search
    for a rational certificate may then fail, which is flagged.
    Requires V = G and a span closed under the products; a span that is
    not closed is refused with WorkbenchError.

    A full span is decided at once.  Any other span is decided by
    ``grading``, in one pass: its defect refuses the span, and its block
    ranks give the enriched dimension.  Neither the closure witness nor
    ``enrich`` runs here; they are the oracles of the tests.
    """
    amb = C.ambient
    if amb.gset.size != amb.group.order:
        raise WorkbenchError("irreducibility is decided over V = G")
    if C.is_full():
        return IrreducibilityResult(True, C.dim)
    decomp = grading(C)
    if decomp.defect is not None:
        raise WorkbenchError(f"span is not a subalgebra: {decomp.defect}")
    enriched_dim = decomp.enriched_dim
    if enriched_dim == amb.dim:
        return IrreducibilityResult(True, enriched_dim)
    certificate = invariant_submodule_search(C)
    flag = None if certificate is not None else "enrichment-proper, no rational certificate"
    return IrreducibilityResult(False, enriched_dim, certificate, flag)


# ---------------------------------------------------------------------------
# one-sided ideals


def _matrix_rows(vec, n):
    """The nonzero rows of the n x n blocks of a sparse vector: a map from
    block * n + row to the row as a sparse map column -> entry."""
    rows = {}
    for k, a in vec.items():
        r, c = divmod(k, n)
        rows.setdefault(r, {})[c] = a
    return rows


def _one_row_products(row, block, n):
    """The products e_ij m whose one nonzero row, i, is ``row``, the row j
    of m: the vectors with ``row`` as row i of the n x n block ``block``,
    for i = 0, ..., n-1."""
    return [{(block * n + i) * n + c: a for c, a in row.items()} for i in range(n)]


def _ideal_closure(gens, side: str) -> SubSpan:
    """The smallest H-submodule containing gens and closed under the
    products with the algebra on the given side, by ``span_closure`` on
    sparse rows.  The step multiplies each block (g, w) of a row on its own
    by the basis elements T_g' (x) T_u (x) E_ij with a nonzero product:

    - left, (basis) o_gamma x: the block (g2, w2) goes to
      (gamma^-1 g2, gamma^-1 . w2), and row i1 of E_(i1, j1) m2 is row j1
      of m2;
    - right, x o_gamma (basis): at gamma = g1^-1 the block (g1, w1) goes
      to (g1 g2, w1), and column j2 of m1 E_(i2, j2) is column i2 of m1.

    The closure needs no projection step to be an H-submodule.  At
    gamma = e on the left (g2 = e on the right) the products of a block
    with E_ii, summed over i, give back that block.  So the closure holds
    every block of each of its elements, and with them every first-slot
    projection, which is all the H-action asks for.

    Stepping blocks closes no further than the ideal either: every block of
    x lies in the H-submodule ideal x generates.  On the left, the sum over
    i of (T_e (x) T_u (x) E_ii) o_e x is the part of x at middle slot u,
    and the H-action keeps one first slot of it; on the right, the sum over
    i of x o_(g^-1) (T_e (x) T_(g^-1 . w) (x) E_ii) is the block (g, w).
    """
    gens = list(gens)
    if not gens:
        raise WorkbenchError("need at least one generator")
    amb = gens[0].ambient
    if any(e.ambient != amb for e in gens):
        raise WorkbenchError("mixed ambients in generators")
    group, act, size, n = amb.group, amb.gset.act, amb.gset.size, amb.n

    def left_step(vec):
        out = []
        for r, row in _matrix_rows(vec, n).items():
            g2, w2 = divmod(r // n, size)
            for gamma in group.elements():
                ginv = group.inv(gamma)
                out += _one_row_products(row, group.mul(ginv, g2) * size + act(ginv, w2), n)
        return out

    def right_step(vec):
        cols = {}
        for k, a in vec.items():
            r, j = divmod(k, n)
            cols.setdefault((r // n, j), {})[r % n] = a
        out = []
        for (b, _j), col in cols.items():
            g1, w1 = divmod(b, size)
            for g2 in group.elements():
                base = (group.mul(g1, g2) * size + w1) * n
                out += [{(base + i) * n + j2: a for i, a in col.items()} for j2 in range(n)]
        return out

    step = right_step if side == "right" else left_step
    return SubSpan(amb, span_closure(amb.dim, [e.sparse_vector() for e in gens], step))


def right_ideal_closure(gens) -> SubSpan:
    """Smallest H-submodule containing gens and closed under x o_g (algebra)."""
    return _ideal_closure(gens, "right")


def left_ideal_closure(gens) -> SubSpan:
    """Smallest H-submodule containing gens and closed under (algebra) o_g x."""
    return _ideal_closure(gens, "left")


def matrix_coeff_ambient_dim(amb: Ambient) -> int:
    """Dimension of M_n(A) = A (x) M_n(k) as a coefficient space."""
    return amb.gset.size * amb.n * amb.n


def _mn_a_index(amb: Ambient, w, i, j):
    n = amb.n
    return (w * n + i) * n + j


def ideal_shape(B: SubSpan, side: str) -> SubspaceBasis:
    """Recover B0 from a one-sided ideal.

    A right ideal factors directly as (all of H) (x) B0 with B0 a right
    ideal of M_n(A); a left ideal factors the same way after pulling back
    through the twist.  A failure to factor certifies the span was not an
    ideal of that side, reported as IdealShapeError.

    The span factors iff it is homogeneous with every first-slot component
    equal to B0.  As in ``grading``, the RREF of a direct sum over disjoint
    column blocks is the union of the parts' RREFs, so its RREF rows,
    grouped by first slot, decide that and give B0 with no elimination.
    """
    if side not in ("left", "right"):
        raise WorkbenchError(f"side must be 'left' or 'right', not {side!r}")
    span = fourier_span(B, inverse=True) if side == "left" else B
    components, _ = _first_slot_rows(span)
    first = None if components is None else components[0]
    if first is None or any(p != first for p in components.values()):
        raise IdealShapeError(
            f"span does not factor as H (x) B0 on the {side} side; "
            "the input was not an ideal of that side"
        )
    return first


def mn_a_left_ideal_closure(amb: Ambient, gens_vectors) -> SubspaceBasis:
    """Left-ideal closure inside M_n(A): close under left multiplication by
    the basis T_w (x) e_ij (pointwise in the A slot).  A product e_ij m has
    one nonzero row, i, which is row j of m; only the nonzero rows of m
    are stepped."""
    n = amb.n

    def step(vec):
        out = []
        for r, row in _matrix_rows(vec, n).items():
            out += _one_row_products(row, r // n, n)
        return out

    return span_closure(matrix_coeff_ambient_dim(amb), gens_vectors, step)


def is_mn_a_left_ideal(amb: Ambient, basis: SubspaceBasis) -> bool:
    return mn_a_left_ideal_closure(amb, basis.srows) == basis


def right_annihilator(amb: Ambient, B0: SubspaceBasis) -> SubspaceBasis:
    """{x in M_n(A) : B0 x = 0}; products are pointwise over V and matrix
    composition in the matrix slot.  Constraint rows are deduplicated
    through an incremental echelon before the solve."""
    n = amb.n
    D = matrix_coeff_ambient_dim(amb)
    dedupe = EchelonBuilder(D)
    zero = amb.field.zero
    for b in B0.srows:
        for w, piece in sorted(dense_blocks(b, n * n, zero).items()):
            for p in range(n):
                for q in range(n):
                    row = {}
                    for j in range(n):
                        c = piece[p * n + j]
                        if c:
                            row[_mn_a_index(amb, w, j, q)] = c
                    dedupe.add(row)
    return sparse_nullspace(D, dedupe.index.values(), amb.field.one)


def is_essential(amb: Ambient, B0: SubspaceBasis):
    """Essentiality of a left ideal of M_n(A) by two criteria: (zero right
    annihilator, B0 is the whole matrix ring).  In this finite semisimple
    setting the two agree; both are returned so that a caller can compare
    them (the CLI's ``ideal.essential`` check does), since a disagreement
    would mean a convention bug."""
    if not is_mn_a_left_ideal(amb, B0):
        raise WorkbenchError("B0 is not a left ideal of M_n(A)")
    ann = right_annihilator(amb, B0)
    return ann.dim == 0, B0.dim == matrix_coeff_ambient_dim(amb)


def is_simple(amb: Ambient):
    """(True, None) iff the algebra over (G, V, n) has no proper nonzero
    two-sided ideal, which happens exactly when the action on V is
    transitive; otherwise returns an ideal witness built from a proper
    orbit."""
    orbs = orbits(amb.gset)
    if len(orbs) == 1:
        return True, None
    proper = orbs[0]
    elems = []
    for g in amb.group.elements():
        for w in proper:
            for i in range(amb.n):
                for j in range(amb.n):
                    elems.append(amb.basis_elem(g, w, i, j))
    return False, SubSpan.from_elems(amb, elems)


def construct_shift_functions(group, g_list, U, field):
    """Functions f_1..f_m with (L_{g_i} f_j)(z) = delta_ij at a point z of U.

    Constructive recipe: pick z in U (the minimal id) and set f_j to the
    indicator of g_j z; the determinant of the shift matrix at z is then 1.
    """
    g_list = list(g_list)
    if len(set(g_list)) != len(g_list):
        raise WorkbenchError("shift construction needs pairwise distinct elements")
    U = sorted(set(U))
    if not U:
        raise WorkbenchError("the admissible set U must be nonempty")
    z = U[0]
    from .hopf import basis_h

    fs = [basis_h(group, group.mul(gj, z), field) for gj in g_list]
    return fs, z
