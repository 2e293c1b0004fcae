import random

import pytest

from cendlab.fields import QQ
from cendlab.groups import (
    cyclic_group,
    dihedral_group,
    product_group,
    symmetric_group,
)
from cendlab.linalg import BlockOp, Mat, SubspaceBasis, dense_blocks, nullspace, span_closure
from cendlab.workbench import _graded_product, _point_fn, evaluate, evaluation_points, gamma_op


TARGET_GROUPS = {
    "C2": cyclic_group(2),
    "C3": cyclic_group(3),
    "C4": cyclic_group(4),
    "C2xC2": product_group(cyclic_group(2), cyclic_group(2)),
    "S3": symmetric_group(3),
    "D4": dihedral_group(4),
}


@pytest.fixture(scope="session")
def target_groups():
    return TARGET_GROUPS


@pytest.fixture
def rng():
    return random.Random(12345)


def rand_scalar(rng, field=QQ, lo=-4, hi=4):
    return field.scalar(rng.randint(lo, hi))


def rand_invertible(rng, n, field=QQ, lo=-3, hi=3):
    while True:
        m = Mat([[field.scalar(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def first_slot_components(C):
    """The first-slot projections S_g of a span, g -> SubspaceBasis in
    A (x) M_n coordinates, each eliminated again from the pieces of the
    span's rows; they reassemble the span iff it is homogeneous.  This is
    the projection route that ``workbench.grading`` and ``ideal_shape``
    replaced by grouping the RREF rows; kept as their oracle."""
    amb = C.ambient
    block = amb.gset.size * amb.n * amb.n
    pieces = {g: [] for g in amb.group.elements()}
    for row in C.basis.srows:
        split = {}
        for k, a in row.items():
            g, c = divmod(k, block)
            split.setdefault(g, {})[c] = a
        for g, piece in split.items():
            pieces[g].append(piece)
    return {g: SubspaceBasis.from_vectors(block, vectors) for g, vectors in pieces.items()}


def operator_algebra(C):
    """Unital algebra generated by the evaluations of C and the
    multiplication operators, by closing the generators under left
    multiplication by them; the products are block products.  The closure
    is the span of every word in the generators, which is closed under
    composition, and it holds the identity, the sum of the Gamma_w.  This
    is the independent, operator-side oracle of the irreducibility
    decisions."""
    amb = C.ambient
    size, n = amb.gset.size, amb.n
    gens = [gamma_op(_point_fn(amb, w), amb) for w in amb.gset.points()]
    gens += [evaluate(e, z) for e in C.basis_elems() for z in evaluation_points(e)]

    def step(row):
        right = BlockOp.from_entries(size, n, row)
        return [(gen * right).entries() for gen in gens]

    return span_closure(amb.module_dim ** 2, [gen.entries() for gen in gens], step)


def centralizer(ops, N, field):
    """All N x N matrices commuting with every op (a dense ``Mat``), as
    flattened vectors: the null space of the commutator equations."""
    rows = []
    zero = field.zero
    for op in ops:
        for i in range(N):
            for j in range(N):
                row = [zero] * (N * N)
                for k in range(N):
                    c = op.rows[k][j]
                    if c:
                        row[i * N + k] = row[i * N + k] + c
                    c2 = op.rows[i][k]
                    if c2:
                        row[k * N + j] = row[k * N + j] - c2
                rows.append(row)
    return nullspace(Mat(rows), field)


def pairwise_product_rule(C):
    """The graded product rule S_g . (shift of S_h) inside S_{gh} checked
    for every pair of basis rows, the (dim S)^2 scan that
    ``workbench.grading`` replaced by the closure of a generating set; kept
    as its oracle.  Maps every (g, h) to "verified" when some product of a
    row of S_g with a row of S_h is nonzero and all lie in S_{gh},
    "vacuous" when all vanish, and "fails" when one lies outside S_{gh}."""
    amb = C.ambient
    group = amb.group
    n2 = amb.n * amb.n
    components = first_slot_components(C)
    blocks = {
        g: [dense_blocks(row, n2, amb.field.zero) for row in comp.srows]
        for g, comp in components.items()
    }
    report = {}
    for g in group.elements():
        ginv = group.inv(g)
        for h in group.elements():
            target = components[group.mul(g, h)]
            products = [_graded_product(amb, x, y, ginv) for x in blocks[g] for y in blocks[h]]
            products = [p for p in products if p]
            if not products:
                report[(g, h)] = "vacuous"
            elif all(target.contains(p) for p in products):
                report[(g, h)] = "verified"
            else:
                report[(g, h)] = "fails"
    return report
