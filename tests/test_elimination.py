"""The sparse elimination routine against the dense one it replaced.

The dense code below is the elimination ``cendlab.linalg`` ran before its
vectors became sparse maps: Gauss-Jordan on dense rows, an incremental
echelon builder on dense rows, and the null space, rank, inverse and
determinant built on them.  It is kept here as the oracle: on random
mostly-zero matrices over QQ and Q(zeta_4) the sparse routine must give
the same canonical rows and pivots, the same sequence of inserted rows and
rejections, and the same null space, rank, inverse and determinant.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cendlab.fields import QQ, CyclotomicField
from cendlab.linalg import (
    EchelonBuilder,
    LinAlgError,
    Mat,
    SubspaceBasis,
    _rref_rows,
    dense,
    nullspace,
    rref,
)

ZETA4 = CyclotomicField(4)


# ---------------------------------------------------------------------------
# the dense oracle


def dense_rref_rows(rows):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        if p != 1:
            rows[r] = [a / p for a in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            c = rows[i][col]
            if c:
                rows[i] = [a - c * b for a, b in zip(rows[i], prow)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


class DenseEchelon:
    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c:
                for j, b in enumerate(row):
                    if b:
                        vec[j] = vec[j] - c * b
        return vec

    def add(self, vec):
        vec = self.reduce(vec)
        piv = next((j for j, a in enumerate(vec) if a), None)
        if piv is None:
            return None
        p = vec[piv]
        if p != 1:
            vec = [a / p for a in vec]
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = [a - c * b for a, b in zip(row, vec)]
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < piv:
            idx += 1
        self.rows.insert(idx, vec)
        self.pivots.insert(idx, piv)
        return vec


def dense_nullspace(rows, ncols, field):
    rows, pivots = dense_rref_rows(rows)
    pivset = set(pivots)
    builder = DenseEchelon(ncols)
    for f in range(ncols):
        if f in pivset:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, piv in zip(rows, pivots):
            if row[f]:
                v[piv] = -row[f]
        builder.add(v)
    return builder.rows


def dense_det(rows):
    n = len(rows)
    rows = [list(r) for r in rows]
    sign_flip = False
    det = None
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return rows[0][0] - rows[0][0]
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign_flip = not sign_flip
        p = rows[col][col]
        det = p if det is None else det * p
        for r in range(col + 1, n):
            c = rows[r][col]
            if c:
                f = c / p
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return -det if sign_flip else det


def dense_inverse(rows, field):
    n = len(rows)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)] for i, r in enumerate(rows)]
    out, pivots = dense_rref_rows(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in out[:n]]


# ---------------------------------------------------------------------------
# strategies


def scalars(field):
    if field is QQ:
        return st.integers(-3, 3).map(QQ.scalar)
    coeffs = st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree)
    return coeffs.map(field.scalar)


@st.composite
def matrices(draw, field, square=False):
    """Mostly-zero rows, with some rows that are combinations of earlier
    ones so that dependent vectors occur."""
    ncols = draw(st.integers(1, 6))
    nrows = ncols if square else draw(st.integers(0, 7))
    entry = st.one_of(st.just(field.zero), st.just(field.zero), scalars(field))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 3)) == 0:
            a, b = draw(scalars(field)), draw(scalars(field))
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * x + b * y for x, y in zip(r1, r2)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return field, ncols, rows


FIELDS = st.sampled_from([QQ, ZETA4])


def dense_rows(srows, ncols, field):
    return [dense(r, ncols, field.zero) for r in srows]


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rref_matches_dense_oracle(data):
    field, ncols, rows = data.draw(FIELDS.flatmap(matrices))
    srows, pivots = _rref_rows(rows)
    expect_rows, expect_pivots = dense_rref_rows(rows)
    assert pivots == expect_pivots
    assert dense_rows(srows, ncols, field) == expect_rows
    basis, rank = rref(Mat(rows)) if rows else (None, 0)
    if rows:
        assert basis.rows == tuple(tuple(r) for r in expect_rows)
        assert basis.pivots == tuple(expect_pivots)
        assert rank == len(expect_pivots) == Mat(rows).rank()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_echelon_builder_matches_dense_oracle(data):
    field, ncols, rows = data.draw(FIELDS.flatmap(matrices))
    probe = data.draw(st.lists(scalars(field), min_size=ncols, max_size=ncols))
    builder, oracle = EchelonBuilder(ncols), DenseEchelon(ncols)
    for i, row in enumerate(rows):
        # dense and sparse inputs are the same vector to the builder
        vec = row if i % 2 else {j: a for j, a in enumerate(row) if a}
        added, expect = builder.add(vec), oracle.add(row)
        if expect is None:
            assert added is None
        else:
            assert dense(added, ncols, field.zero) == expect
        basis = builder.basis()
        assert basis.rows == tuple(tuple(r) for r in oracle.rows)
        assert basis.pivots == tuple(oracle.pivots)
    residual = builder.basis().reduce(probe)
    assert dense(residual, ncols, field.zero) == oracle.reduce(probe)
    assert builder.contains(probe) == (not any(oracle.reduce(probe)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nullspace_matches_dense_oracle(data):
    field, ncols, rows = data.draw(FIELDS.flatmap(matrices))
    if not rows:
        rows = [[field.zero] * ncols]
    ker = nullspace(Mat(rows), field)
    assert ker.rows == tuple(tuple(r) for r in dense_nullspace(rows, ncols, field))
    m = Mat(rows)
    for r in ker.rows:
        assert not any(m.apply(list(r)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_inverse_and_det_match_dense_oracle(data):
    field, n, rows = data.draw(FIELDS.flatmap(lambda f: matrices(f, square=True)))
    m = Mat(rows)
    assert m.det() == dense_det(rows)
    assert m.rank() == len(dense_rref_rows(rows)[1])
    expect = dense_inverse(rows, field)
    if expect is None:
        with pytest.raises(LinAlgError):
            m.inverse()
    else:
        assert m.inverse().rows == tuple(tuple(r) for r in expect)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rref_unchanged_by_row_permutation_and_scaling(data):
    field, ncols, rows = data.draw(FIELDS.flatmap(matrices))
    basis = SubspaceBasis.from_vectors(ncols, rows)
    order = data.draw(st.permutations(range(len(rows))))
    factors = data.draw(
        st.lists(scalars(field).filter(bool), min_size=len(rows), max_size=len(rows))
    )
    moved = [[c * a for a in rows[i]] for i, c in zip(order, factors)]
    other = SubspaceBasis.from_vectors(ncols, moved)
    assert other == basis and hash(other) == hash(basis)
    assert other.rows == basis.rows
    assert [list(r) for r in basis.rows] == dense_rref_rows(rows)[0]
