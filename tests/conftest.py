import random

import pytest

from cendlab.fields import QQ
from cendlab.groups import (
    cyclic_group,
    dihedral_group,
    product_group,
    symmetric_group,
)
from cendlab.linalg import Mat, dense_blocks
from cendlab.workbench import _first_slot_components, _graded_product


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
    components = _first_slot_components(C)
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
