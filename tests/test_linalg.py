import pytest
from hypothesis import given, settings, strategies as st

from cendlab.fields import QQ, CyclotomicField
from cendlab.linalg import (
    EchelonBuilder,
    LinAlgError,
    Mat,
    NotAutomorphismError,
    SubspaceBasis,
    kernel_partition,
    matrix_units,
    nullspace,
    rref,
    skolem_noether,
    span_closure,
)

from conftest import rand_invertible


def q(x):
    return QQ.scalar(x)


def qmat(rows):
    return Mat([[q(x) for x in r] for r in rows])


def test_rref_diagonal():
    basis, rank = rref(qmat([[2, 0], [0, 3]]))
    assert rank == 2
    assert basis.rows == qmat([[1, 0], [0, 1]]).rows


def test_rref_dependent_rows():
    basis, rank = rref(qmat([[1, 1], [2, 2]]))
    assert rank == 1
    assert basis.rows == (tuple([q(1), q(1)]),)


def test_rref_zero_matrix():
    basis, rank = rref(qmat([[0, 0], [0, 0]]))
    assert rank == 0
    assert basis.rows == ()


def test_rref_idempotent_and_canonical(rng):
    for _ in range(25):
        rows = [[q(rng.randint(-4, 4)) for _ in range(5)] for _ in range(4)]
        basis, _ = rref(Mat(rows))
        again, _ = rref(Mat([list(r) for r in basis.rows]))
        assert again.rows == basis.rows
        # an invertible recombination of the rows spans the same space: a
        # random unit lower triangular matrix times the rows
        lower = Mat([
            [q(1) if i == j else q(rng.randint(-2, 2)) if j < i else q(0) for j in range(4)]
            for i in range(4)
        ])
        mixed, _ = rref(lower * Mat(rows))
        assert mixed.rows == basis.rows
        joint, _ = rref(Mat(rows + [list(r) for r in rows]))
        assert joint.rows == basis.rows


def test_span_closure_swap_reaches_plane():
    def swap(row):
        # the coordinate swap of a sparse row
        return [{1 - j: a for j, a in row.items()}]

    basis = span_closure(2, [[q(1), q(0)]], swap)
    assert basis.dim == 2


def test_span_closure_fixed_point():
    basis = span_closure(2, [[q(1), q(0)]], lambda row: [dict(row)])
    assert basis.dim == 1
    assert basis.rows == (tuple([q(1), q(0)]),)


def test_span_closure_left_shift_generates_group_algebra():
    # multiply by the shift permutation on functions over a 2-element group
    def shift(row):
        return [{(j + 1) % 2: a for j, a in row.items()}]

    basis = span_closure(2, [{0: q(1)}], shift)
    assert basis.dim == 2


def test_span_closure_output_closed(rng):
    zero = q(0)

    def apply(v):
        return [v[1] + v[2], v[0], v[0] - v[2]]

    def step(row):
        # the rows handed to the step are sparse canonical rows
        assert row and all(row.values()) and row[min(row)] == 1
        return [apply([row.get(j, zero) for j in range(3)])]

    seeds = [[q(rng.randint(-3, 3)) for _ in range(3)]]
    basis = span_closure(3, seeds, step)
    for row in basis.rows:
        assert basis.contains(apply(list(row)))


def test_kernel_partition_diagonal_blocks():
    # {(a, a)}: the two blocks vanish on the same combinations
    rows = [[q(1), q(0), q(1), q(0)], [q(0), q(1), q(0), q(1)]]
    basis = SubspaceBasis.from_vectors(4, rows)
    assert kernel_partition(basis, 2, 2) == [[0, 1]]


def test_kernel_partition_full_product():
    basis = SubspaceBasis.from_vectors(
        4,
        [
            [q(1), q(0), q(0), q(0)],
            [q(0), q(1), q(0), q(0)],
            [q(0), q(0), q(1), q(0)],
            [q(0), q(0), q(0), q(1)],
        ],
    )
    assert kernel_partition(basis, 2, 2) == [[0], [1]]


def test_kernel_partition_single_block():
    basis = SubspaceBasis.from_vectors(2, [[q(1), q(2)]])
    assert kernel_partition(basis, 1, 2) == [[0]]


def test_skolem_noether_identity():
    units = matrix_units(2, QQ)
    u = skolem_noether(units, 2, QQ)
    assert u.rows[0][1] == q(0) and u.rows[1][0] == q(0)
    assert u.rows[0][0] == u.rows[1][1] != q(0)


def test_skolem_noether_swap_conjugation():
    s = qmat([[0, 1], [1, 0]])
    sinv = s.inverse()
    images = [sinv * unit * s for unit in matrix_units(2, QQ)]
    u = skolem_noether(images, 2, QQ)
    uinv = u.inverse()
    for unit, img in zip(matrix_units(2, QQ), images):
        assert uinv * unit * u == img
    # the solution is proportional to the swap matrix
    assert u.rows[0][0] == q(0) and u.rows[1][1] == q(0)


def test_skolem_noether_transpose_rejected():
    transpose_images = [unit.transpose() for unit in matrix_units(2, QQ)]
    with pytest.raises(NotAutomorphismError):
        skolem_noether(transpose_images, 2, QQ)


def test_skolem_noether_random_conjugations(rng):
    for n in (2, 3):
        for _ in range(5):
            t = rand_invertible(rng, n)
            tinv = t.inverse()
            images = [tinv * unit * t for unit in matrix_units(n, QQ)]
            u = skolem_noether(images, n, QQ)
            uinv = u.inverse()
            assert all(
                uinv * unit * u == img
                for unit, img in zip(matrix_units(n, QQ), images)
            )


def test_skolem_noether_cyclotomic():
    F = CyclotomicField(4)
    i = F.zeta()
    t = Mat([[F.one, i], [F.zero, F.one]])
    tinv = t.inverse()
    images = [tinv * unit * t for unit in matrix_units(2, F)]
    u = skolem_noether(images, 2, F)
    assert u.inverse() * Mat.unit(2, 2, 0, 1, F) * u == images[1]


def test_nullspace():
    ker = nullspace(qmat([[1, 2, 3]]))
    assert ker.dim == 2
    m = qmat([[1, 2, 3]])
    for row in ker.rows:
        assert not any(m.apply(list(row)))


def test_mat_inverse_and_det():
    m = qmat([[2, 1], [1, 1]])
    assert m.det() == q(1)
    assert m * m.inverse() == Mat.identity(2, QQ)
    assert qmat([[1, 2], [2, 4]]).det() == q(0)
    with pytest.raises(LinAlgError):
        qmat([[1, 2], [2, 4]]).inverse()


def test_echelon_builder_tracks_membership():
    b = EchelonBuilder(3)
    assert b.add([q(1), q(2), q(0)]) is not None
    assert b.add([q(2), q(4), q(0)]) is None
    assert b.contains([q(-3), q(-6), q(0)])
    assert not b.contains([q(0), q(0), q(1)])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_rref_canonical_under_row_shuffles(rows):
    mat_rows = [[q(x) for x in r] for r in rows]
    b1, r1 = rref(Mat(mat_rows))
    b2, r2 = rref(Mat(list(reversed(mat_rows))))
    assert b1.rows == b2.rows and r1 == r2
