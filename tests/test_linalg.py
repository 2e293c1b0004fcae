import pytest
from hypothesis import event, given, settings, strategies as st

from cendlab.fields import QQ, CyclotomicField
from cendlab.linalg import (
    EchelonBuilder,
    LinAlgError,
    Mat,
    NotAutomorphismError,
    SubspaceBasis,
    _insert,
    automorphism_defect,
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


ZETA4 = CyclotomicField(4)


def exhaustive_span_closure(ambient, seeds, step):
    """The closure loop with no stop at k^N, kept as the oracle of
    ``span_closure``: every gained row is stepped, and every image is
    eliminated, also against a full echelon."""
    builder = EchelonBuilder(ambient)

    def add(vec):
        vec = builder.reduce(vec)
        return _insert(builder.index, vec) if vec else None

    work = list(seeds)
    while work:
        work = [image for row in map(add, work) if row is not None for image in step(row)]
    return builder.basis()


def scalars(field):
    if field is QQ:
        return st.integers(-3, 3).map(QQ.scalar)
    coeffs = st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree)
    return coeffs.map(field.scalar)


@st.composite
def closure_problems(draw):
    """(field, N, seeds, matrices, kind, cut): the step applies each
    matrix to a row.  A "full" problem holds the cyclic shift and seeds
    e_0, so its closure is k^N; a "proper" one has matrices that keep the
    first ``cut`` coordinates invariant and seeds inside them, so its
    closure lies in a proper subspace; a "random" one is unconstrained."""
    field = draw(st.sampled_from([QQ, ZETA4]))
    N = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["full", "proper", "random"]))
    cut = draw(st.integers(0, N - 1)) if kind == "proper" else N
    entry = st.one_of(st.just(field.zero), st.just(field.zero), scalars(field))

    def vector(width):
        head = draw(st.lists(entry, min_size=width, max_size=width))
        return head + [field.zero] * (N - width)

    def matrix():
        # (M v)_i for i >= cut is zero on every v supported below cut
        return [
            [field.zero if i >= cut > j else draw(entry) for j in range(N)]
            for i in range(N)
        ]

    matrices = [matrix() for _ in range(draw(st.integers(0, 3)))]
    seeds = [vector(cut) for _ in range(draw(st.integers(0, 3)))]
    if kind == "full":
        matrices.append([[field.one if j == (i - 1) % N else field.zero for j in range(N)]
                         for i in range(N)])
        seeds.append({0: field.one})
    # sparse seeds as well as dense ones
    seeds = [
        {j: a for j, a in enumerate(v) if a} if isinstance(v, list) and draw(st.booleans()) else v
        for v in seeds
    ]
    return field, N, seeds, matrices, kind, cut


def sparse_map_step(matrices, zero):
    def step(row):
        images = []
        for m in matrices:
            image = {}
            for i, mrow in enumerate(m):
                a = sum((mrow[j] * c for j, c in row.items()), zero)
                if a:
                    image[i] = a
            images.append(image)
        return images

    return step


@settings(max_examples=200, deadline=None)
@given(closure_problems())
def test_span_closure_matches_exhaustive_oracle(problem):
    field, N, seeds, matrices, kind, cut = problem
    step = sparse_map_step(matrices, field.zero)
    got = span_closure(N, seeds, step)
    expect = exhaustive_span_closure(N, seeds, step)
    assert got.srows == expect.srows
    assert got.pivots == expect.pivots
    event(f"{kind}: closure {'is' if got.dim == N else 'is not'} k^N")
    if kind == "full":
        assert got.dim == N
    elif kind == "proper":
        assert got.dim <= cut < N


def test_span_closure_steps_nothing_once_full():
    # the seeds span k^2 in the first round, so no row is stepped
    def step(row):
        raise AssertionError("a full closure stepped a row")

    basis = span_closure(2, [[q(1), q(1)], [q(0), q(2)]], step)
    assert basis.rows == ((q(1), q(0)), (q(0), q(1)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_echelon_add_on_full_builder(data):
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    N = data.draw(st.integers(1, 5))
    builder = EchelonBuilder(N)
    for j in reversed(range(N)):
        assert builder.add({j: data.draw(scalars(field).filter(bool))}) is not None
    rows = builder.basis().srows

    def reduce(vec):
        raise AssertionError("a full builder eliminated a vector")

    builder.reduce = reduce
    vec = data.draw(st.lists(scalars(field), min_size=N, max_size=N))
    assert builder.add(vec) is None
    assert builder.add({j: a for j, a in enumerate(vec) if a}) is None
    assert builder.basis().srows == rows
    with pytest.raises(LinAlgError):
        builder.add(vec + [field.zero])
    with pytest.raises(LinAlgError):
        builder.add(vec[1:])


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


def nullspace_skolem_noether(images, n, field=QQ):
    """Conjugator solved as the null space of the n^4 x n^2 intertwining
    system a U = U phi(a); any nonzero solution is invertible when phi is
    an automorphism.  ``skolem_noether`` builds it from n columns of the
    images instead; this is its oracle."""
    units = matrix_units(n, field)
    if len(images) != n * n:
        raise NotAutomorphismError("need one image per matrix unit")
    defect = automorphism_defect(images, n, field)
    if defect is not None:
        raise NotAutomorphismError(f"map {defect}")
    rows = []
    zero = field.zero
    for u_idx, unit in enumerate(units):
        phi_u = images[u_idx]
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                for k in range(n):
                    c = unit.rows[i][k]
                    if c:
                        row[k * n + j] = row[k * n + j] + c
                for k in range(n):
                    c = phi_u.rows[k][j]
                    if c:
                        row[i * n + k] = row[i * n + k] - c
                rows.append(row)
    ker = nullspace(Mat(rows), field)
    for cand in ker.rows:
        u = Mat.from_flat(list(cand), n, n)
        if u.rank() == n:
            uinv = u.inverse()
            for idx, unit in enumerate(units):
                if uinv * unit * u != images[idx]:
                    raise NotAutomorphismError("solution fails conjugation recheck")
            return u
    raise NotAutomorphismError("intertwining system has no invertible solution")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_skolem_noether_matches_the_nullspace_oracle(data):
    # conjugations by random invertible U, and the same images with one
    # entry of one image shifted; a singular draw is shifted by the identity
    # until it is invertible
    field = data.draw(st.sampled_from([QQ, ZETA4]))
    n = data.draw(st.integers(1, 3))
    u = Mat.from_flat(data.draw(st.lists(scalars(field), min_size=n * n, max_size=n * n)), n, n)
    while u.rank() != n:
        u = u + Mat.identity(n, field)
    uinv = u.inverse()
    images = [uinv * unit * u for unit in matrix_units(n, field)]
    if data.draw(st.booleans()):
        idx = data.draw(st.integers(0, n * n - 1))
        pos = data.draw(st.integers(0, n * n - 1))
        flat = images[idx].flatten()
        flat[pos] = flat[pos] + data.draw(scalars(field).filter(bool))
        images[idx] = Mat.from_flat(flat, n, n)
        with pytest.raises(NotAutomorphismError) as expect:
            nullspace_skolem_noether(images, n, field)
        with pytest.raises(NotAutomorphismError) as got:
            skolem_noether(images, n, field)
        assert str(got.value) == str(expect.value)
    else:
        assert skolem_noether(images, n, field) == nullspace_skolem_noether(images, n, field)


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


def test_echelon_add_rejects_columns_outside_the_ambient():
    builder = EchelonBuilder(2)
    for vec, col in (({5: q(1)}, 5), ({-1: q(1)}, -1), ({0: q(1), 5: q(1)}, 5)):
        with pytest.raises(LinAlgError, match=f"column {col} outside ambient 2"):
            builder.add(vec)
        assert builder.dim == 0


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
