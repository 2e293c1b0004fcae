"""Exact sparse linear algebra over the active field.

Everything here is tolerance-free.  Vectors are sparse maps from column
to nonzero entry (dense sequences are accepted and converted), since the
spans of the package are almost all zeros.  Subspaces are kept in reduced
row-echelon form (pivots 1, pivot columns cleared, pivot columns strictly
increasing), so two equal subspaces have identical representations and
``==`` decides subspace equality.

One elimination routine, ``_eliminate`` with ``_insert``, serves
``EchelonBuilder``, ``SubspaceBasis``, ``rref``, ``nullspace`` and the
rank, inverse and determinant of ``Mat``, which stays a small dense matrix
for n-by-n blocks.  Operators on the module are ``BlockOp``s: maps from
(row block, column block) to their nonzero n-by-n ``Mat``.
"""

from __future__ import annotations

from .fields import QQ


class LinAlgError(ValueError):
    pass


class NotAutomorphismError(LinAlgError):
    """The map handed to the conjugator solver is not an algebra automorphism."""


class Mat:
    """Immutable dense matrix; entries live in one field."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise LinAlgError("ragged matrix rows")

    @classmethod
    def zero(cls, n, m, field=QQ):
        z = field.zero
        return cls([[z] * m for _ in range(n)])

    @classmethod
    def identity(cls, n, field=QQ):
        z, o = field.zero, field.one
        return cls([[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n, m, i, j, field=QQ):
        z = field.zero
        rows = [[z] * m for _ in range(n)]
        rows[i][j] = field.one
        return cls(rows)

    def _zero_entry(self):
        a = self.rows[0][0]
        return a - a

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        return Mat(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return Mat(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return Mat([[-a for a in r] for r in self.rows])

    def scale(self, c):
        return Mat([[c * a for a in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise LinAlgError("dimension mismatch in product")
        brows = other.rows
        zero = self._zero_entry() if self.nrows and self.ncols else None
        out = []
        for arow in self.rows:
            acc = None
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = brows[k]
                if acc is None:
                    acc = [a * b for b in brow]
                else:
                    acc = [s + a * b for s, b in zip(acc, brow)]
            if acc is None:
                acc = [zero] * other.ncols
            out.append(acc)
        return Mat(out)

    def apply(self, vec):
        """Matrix times column vector (vec given as a flat sequence)."""
        zero = self._zero_entry()
        out = []
        for arow in self.rows:
            acc = None
            for a, v in zip(arow, vec):
                if not a or not v:
                    continue
                term = a * v
                acc = term if acc is None else acc + term
            out.append(acc if acc is not None else zero)
        return out

    def transpose(self):
        return Mat(list(zip(*self.rows))) if self.nrows else Mat([])

    def flatten(self):
        return [a for r in self.rows for a in r]

    @classmethod
    def from_flat(cls, entries, n, m):
        entries = list(entries)
        if len(entries) != n * m:
            raise LinAlgError("entry count does not match shape")
        return cls([entries[i * m : (i + 1) * m] for i in range(n)])

    def is_zero(self):
        return not any(any(r) for r in self.rows)

    def det(self):
        """Exact determinant.  Each row is reduced against the echelon rows
        of the rows before it, which leaves the determinant alone; the
        residual rows, in the order of their pivot columns, form a triangular
        matrix, so the determinant is the product of their leading entries
        times the sign of that order."""
        if self.nrows != self.ncols:
            raise LinAlgError("determinant of a non-square matrix")
        index = {}
        order = []
        det = None
        for row in self.rows:
            vec = _eliminate(index, sparse(row))
            if not vec:
                return self._zero_entry()
            piv = min(vec)
            det = vec[piv] if det is None else det * vec[piv]
            order.append(piv)
            _insert(index, vec)
        inversions = sum(1 for i, p in enumerate(order) for q in order[i + 1 :] if p > q)
        return -det if inversions % 2 else det

    def inverse(self):
        if self.nrows != self.ncols:
            raise LinAlgError("inverse of a non-square matrix")
        n = self.nrows
        a = next((a for r in self.rows for a in r if a), None)
        if a is None:
            raise LinAlgError("matrix is singular")
        one = a / a
        aug = []
        for i, r in enumerate(self.rows):
            vec = sparse(r)
            vec[n + i] = one
            aug.append(vec)
        rows, pivots = _rref_rows(aug)
        if pivots != list(range(n)):
            raise LinAlgError("matrix is singular")
        zero = one - one
        return Mat([[row.get(n + j, zero) for j in range(n)] for row in rows])

    def rank(self):
        return len(_rref_rows(self.rows)[1])

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


def sparse(vec):
    """The nonzero entries of a vector as a new map column -> entry; the
    vector may be a dense sequence or such a map."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {j: a for j, a in items if a}


def dense(vec, length, zero):
    """The sparse vector ``vec`` as a dense list of the given length."""
    out = [zero] * length
    for j, a in vec.items():
        out[j] = a
    return out


def dense_blocks(vec, size, zero):
    """A sparse vector cut into blocks of ``size`` coordinates: a map from
    each block that holds a nonzero entry to that block as a dense list."""
    blocks = {}
    for k, a in vec.items():
        b, t = divmod(k, size)
        flat = blocks.get(b)
        if flat is None:
            flat = blocks[b] = [zero] * size
        flat[t] = a
    return blocks


class BlockOp:
    """Immutable square operator on k^(m n), stored block-sparse.

    The coordinates fall into m blocks of n; ``blocks`` maps a row block to
    a map from column block to the nonzero n x n ``Mat`` there.  Zero
    blocks and empty row blocks are never stored, so equal operators have
    equal maps.  Products, application and the zero test visit only the
    stored blocks; ``to_mat`` builds the dense form for test oracles.
    """

    __slots__ = ("nblocks", "n", "blocks", "_columns")

    def __init__(self, nblocks, n, blocks):
        self.nblocks = nblocks
        self.n = n
        self.blocks = {}
        for r, row in blocks.items():
            row = {c: m for c, m in row.items() if not m.is_zero()}
            if row:
                self.blocks[r] = row
        self._columns = None

    @classmethod
    def from_entries(cls, nblocks, n, entries):
        """The operator with the given entries, a sparse map from
        row * (m n) + column to entry."""
        N = nblocks * n
        flats = {}
        for k, a in entries.items():
            i, j = divmod(k, N)
            key = (i // n, j // n)
            flat = flats.get(key)
            if flat is None:
                flat = flats[key] = [a - a] * (n * n)
            flat[(i % n) * n + j % n] = a
        blocks = {}
        for (r, c), flat in flats.items():
            blocks.setdefault(r, {})[c] = Mat.from_flat(flat, n, n)
        return cls(nblocks, n, blocks)

    @classmethod
    def from_mat(cls, mat: Mat, n):
        """Cut a dense square matrix into n x n blocks."""
        if mat.nrows != mat.ncols or mat.nrows % n:
            raise LinAlgError(f"a {mat!r} does not cut into {n} x {n} blocks")
        N = mat.ncols
        entries = {i * N + j: a for i, row in enumerate(mat.rows) for j, a in enumerate(row) if a}
        return cls.from_entries(N // n, n, entries)

    @property
    def nrows(self):
        return self.nblocks * self.n

    ncols = nrows

    def __eq__(self, other):
        return (
            isinstance(other, BlockOp)
            and self.nblocks == other.nblocks
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash(frozenset((r, c, m) for r, row in self.blocks.items() for c, m in row.items()))

    def __mul__(self, other):
        if not isinstance(other, BlockOp):
            return NotImplemented
        if (self.nblocks, self.n) != (other.nblocks, other.n):
            raise LinAlgError("block shape mismatch in product")
        right = other.blocks
        out = {}
        for r, row in self.blocks.items():
            acc = {}
            for k, a in row.items():
                for c, b in right.get(k, {}).items():
                    s = acc.get(c)
                    acc[c] = a * b if s is None else s + a * b
            out[r] = acc
        return BlockOp(self.nblocks, self.n, out)

    def is_zero(self):
        return not self.blocks

    def entries(self):
        """The nonzero entries as a sparse map from row * (m n) + column."""
        n = self.n
        N = self.nrows
        out = {}
        for r, row in self.blocks.items():
            for c, m in row.items():
                for i, mrow in enumerate(m.rows):
                    base = (r * n + i) * N + c * n
                    for j, a in enumerate(mrow):
                        if a:
                            out[base + j] = a
        return out

    def columns(self):
        """The nonzero entries of each column, a map from column to a
        sparse map row -> entry; listed once per operator."""
        if self._columns is None:
            N = self.nrows
            cols = {}
            for k, a in self.entries().items():
                i, j = divmod(k, N)
                cols.setdefault(j, {})[i] = a
            self._columns = cols
        return self._columns

    def apply(self, vec):
        """The operator times a column vector (dense or sparse), as a sparse
        map; it costs the nonzero entries the vector meets."""
        cols = self.columns()
        return combination({j: c for j, c in sparse(vec).items() if j in cols}, cols)

    def to_mat(self, field=QQ) -> Mat:
        """The dense form, for test oracles."""
        N = self.nrows
        rows = [[field.zero] * N for _ in range(N)]
        for k, a in self.entries().items():
            rows[k // N][k % N] = a
        return Mat(rows)

    def __repr__(self):
        count = sum(len(row) for row in self.blocks.values())
        return f"BlockOp({count} of {self.nblocks}x{self.nblocks} blocks of size {self.n})"


def combination(coeffs, vectors):
    """The sum of c * vectors[i] over the entries i -> c of the sparse map
    ``coeffs``, as a sparse map; the vectors are sparse maps."""
    out = {}
    for i, c in coeffs.items():
        for j, a in vectors[i].items():
            acc = out.get(j)
            out[j] = a * c if acc is None else acc + a * c
    return {j: a for j, a in out.items() if a}


def _subtract(vec, c, row):
    """vec -= c * row, in place, on sparse maps; entries that cancel are
    dropped."""
    for j, b in row.items():
        a = vec.get(j)
        if a is None:
            vec[j] = -(c * b)
        else:
            a = a - c * b
            if a:
                vec[j] = a
            else:
                del vec[j]


# The one elimination routine.  ``index`` maps each pivot column to its
# row of a reduced row echelon form: a sparse map with entry 1 at the
# pivot and no entry at any other pivot.  ``_eliminate`` reduces a vector
# against it and ``_insert`` adds a reduced vector as a new row; every
# elimination of this module, incremental or not, is these two steps.


def _eliminate(index, vec):
    """Reduce the sparse vector ``vec`` in place against the rows of
    ``index`` and return it.  Only the entries of vec at pivots are
    visited: each row is zero at every other pivot, so subtracting it never
    changes vec there, and the coefficients can be read off at the start."""
    if len(index) < len(vec):
        hits = [(p, vec[p]) for p in index if p in vec]
    else:
        hits = [(j, c) for j, c in vec.items() if j in index]
    for piv, c in hits:
        _subtract(vec, c, index[piv])
    return vec


def _insert(index, vec):
    """Add the reduced nonzero sparse vector ``vec`` to ``index`` as the row
    of its leading column: scale it by the inverse of its leading entry,
    taken once, and clear that column from the other rows.  Rows are
    replaced, never changed in place, so a row handed out stays valid.
    Returns the new row."""
    piv = min(vec)
    p = vec[piv]
    if p != 1:
        inv = 1 / p
        vec = {j: a * inv for j, a in vec.items()}
    for other, row in index.items():
        c = row.get(piv)
        if c is not None:
            row = dict(row)
            _subtract(row, c, vec)
            index[other] = row
    index[piv] = vec
    return vec


def _rref_rows(vectors):
    """Reduced row echelon form of the span of the vectors (dense or
    sparse): (rows as sparse maps, pivot columns), in pivot order."""
    index = {}
    for vec in vectors:
        vec = _eliminate(index, sparse(vec))
        if vec:
            _insert(index, vec)
    pivots = sorted(index)
    return [index[p] for p in pivots], pivots


class SubspaceBasis:
    """Canonical subspace of k^N: nonzero RREF rows with increasing pivots.

    ``srows`` holds the rows as sparse maps column -> nonzero entry and
    ``index`` maps each pivot to its row; ``rows`` gives them as dense
    tuples, built on first use, for callers that print or slice them.
    Equality compares the canonical rows, so it decides subspace equality.
    """

    __slots__ = ("ambient", "srows", "pivots", "index", "_dense")

    def __init__(self, ambient, srows, pivots):
        self.ambient = ambient
        self.srows = tuple(srows)
        self.pivots = tuple(pivots)
        self.index = dict(zip(self.pivots, self.srows))
        self._dense = None

    @classmethod
    def from_vectors(cls, ambient, vectors):
        builder = EchelonBuilder(ambient)
        for v in vectors:
            builder.add(v)
        return builder.basis()

    @property
    def dim(self):
        return len(self.srows)

    @property
    def rows(self):
        if self._dense is None:
            self._dense = tuple(
                tuple(dense(row, self.ambient, row[p] - row[p]))
                for row, p in zip(self.srows, self.pivots)
            )
        return self._dense

    def reduce(self, vec):
        """Residual of vec (dense or sparse) after elimination against the
        basis rows, as a sparse map; shared with ``EchelonBuilder``, whose
        ``index`` has the same form."""
        return _eliminate(self.index, sparse(vec))

    def contains(self, vec):
        return not self.reduce(vec)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient == other.ambient
            and self.srows == other.srows
        )

    def __hash__(self):
        # equal subspaces have equal pivots; the rows decide the rest
        return hash((self.ambient, self.pivots))

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in k^{self.ambient})"


class EchelonBuilder:
    """Incrementally maintained RREF basis, kept as ``index``, a map from
    pivot to sparse row; the hot path of every closure."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.index = {}

    @property
    def dim(self):
        return len(self.index)

    reduce = SubspaceBasis.reduce
    contains = SubspaceBasis.contains

    def add(self, vec):
        """Insert vec, a dense sequence or a sparse map; returns the new
        canonical row as a sparse map, or None if vec is dependent.

        A builder with ``ambient`` pivots spans all of k^N, N = ambient,
        which holds every vector and is closed under every linear map.  It
        returns None without eliminating: the residual against its rows,
        the N unit rows, would be zero.

        A sparse entry outside columns 0..N-1 raises LinAlgError.  No row
        holds such a column, so it survives elimination, and only the
        residuals about to be inserted are checked."""
        if not isinstance(vec, dict) and len(vec) != self.ambient:
            raise LinAlgError(f"vector of length {len(vec)} in ambient {self.ambient}")
        if len(self.index) == self.ambient:
            return None
        vec = self.reduce(vec)
        if not vec:
            return None
        for col in (min(vec), max(vec)):
            if not 0 <= col < self.ambient:
                raise LinAlgError(f"column {col} outside ambient {self.ambient}")
        return _insert(self.index, vec)

    def basis(self) -> SubspaceBasis:
        pivots = sorted(self.index)
        return SubspaceBasis(self.ambient, [self.index[p] for p in pivots], pivots)


def rref(mat: Mat):
    """Canonical row-space basis of a matrix; returns (SubspaceBasis, rank)."""
    rows, pivots = _rref_rows(mat.rows)
    return SubspaceBasis(mat.ncols, rows, pivots), len(pivots)


def nullspace(mat: Mat, field=QQ) -> SubspaceBasis:
    """Canonical basis of {x : mat @ x = 0}."""
    return sparse_nullspace(mat.ncols, mat.rows, field.one)


def sparse_nullspace(ncols, vectors, one) -> SubspaceBasis:
    """Canonical basis of the x in k^ncols orthogonal to every given vector
    (dense or sparse): the null space of the matrix with those rows.  Each
    free column f gives the vector with 1 at f and -row[f] at each pivot."""
    rows, pivots = _rref_rows(vectors)
    pivset = set(pivots)
    free = {f: {f: one} for f in range(ncols) if f not in pivset}
    for row, piv in zip(rows, pivots):
        for f, c in row.items():
            if f != piv:
                free[f][piv] = -c
    return SubspaceBasis.from_vectors(ncols, free.values())


def span_closure(ambient, seeds, step) -> SubspaceBasis:
    """Smallest subspace containing the seeds and closed under the linear
    map ``step``, which takes a sparse canonical row to an iterable of
    vectors (dense or sparse); the closure holds every one of them.

    This is the one closure routine of the package.  Each row the echelon
    gains is stepped once, as ``EchelonBuilder.add`` returns it: the gained
    rows span the closure, so by linearity their images span its image.
    It terminates since each round either gains a row or ends, and the
    ambient space is finite-dimensional.

    A round that leaves the echelon spanning k^N ends the closure, and
    its gained rows are not stepped: k^N is closed under every linear map
    and holds every vector, so no image can add a row.  The RREF of k^N
    is the N unit rows whatever order they were gained in, so the
    returned basis is the one a full loop would return.
    """
    builder = EchelonBuilder(ambient)
    work = list(seeds)
    while work:
        gained = [row for row in map(builder.add, work) if row is not None]
        if builder.dim == ambient:
            break
        work = [image for row in gained for image in step(row)]
    return builder.basis()


def kernel_partition(basis: SubspaceBasis, block_count: int, block_size: int, field=QQ):
    """Group coordinate blocks by the kernel of their projection from the span.

    Blocks i and j land in one class iff exactly the same combinations of
    the basis rows vanish on block i and on block j; classes are returned
    in order of their smallest block index.  A block no row touches has
    the whole space as its kernel, and only such blocks do, so it is
    classed without an elimination.  ``classify.analyze_Se`` reads the
    classes of an identity component off its row supports; the tests
    compare them with these.
    """
    if basis.ambient != block_count * block_size:
        raise LinAlgError("ambient does not factor into the given blocks")
    if basis.dim == 0:
        return [list(range(block_count))] if block_count else []
    # the coordinate functionals of each block, as sparse maps over the rows
    functionals = {}
    for i, row in enumerate(basis.srows):
        for c, a in row.items():
            blk, t = divmod(c, block_size)
            functionals.setdefault(blk, {}).setdefault(t, {})[i] = a
    classes = {}
    for blk in range(block_count):
        funcs = functionals.get(blk)
        key = None if funcs is None else sparse_nullspace(basis.dim, funcs.values(), field.one)
        classes.setdefault(key, []).append(blk)
    return list(classes.values())


def matrix_units(n, field=QQ):
    return [Mat.unit(n, n, i, j, field) for i in range(n) for j in range(n)]


def automorphism_defect(images, n, field=QQ):
    """None when ``images[p*n+q]``, the images of the matrix units, define a
    unital multiplicative map of the n-by-n matrices; otherwise a phrase
    naming the first failure."""
    zero = Mat.zero(n, n, field)
    total = zero
    for p in range(n):
        total = total + images[p * n + p]
    if total != Mat.identity(n, field):
        return "does not preserve the identity"
    for a in range(n * n):
        pa, qa = divmod(a, n)
        for b in range(n * n):
            pb, qb = divmod(b, n)
            expect = images[pa * n + qb] if qa == pb else zero
            if images[a] * images[b] != expect:
                return f"is not multiplicative on units ({pa},{qa}),({pb},{qb})"
    return None


def conjugator_pair(images, n, field=QQ):
    """(U^-1, U) for an inner automorphism phi of the n-by-n matrices.

    ``images[p*n+q]`` must be the image of the (p,q) matrix unit.  U is
    the invertible matrix with U^-1 a U = phi(a) for all a whose first
    nonzero entry, in row-major order, is 1; U is unique up to a scalar.

    It is built from n columns.  With V = U^-1, phi(e_p0) = v_p r_0, where
    v_p is column p of V and r_0 is row 0 of V^-1 = U.  The first column c
    where phi(e_00) = v_0 r_0 is nonzero is that of the first nonzero
    entry r_0[c] of U, and the columns c of phi(e_00), ..., phi(e_(n-1)0)
    form r_0[c] V, whose inverse is U scaled to 1 at that entry.  V is
    returned with U, so a caller that needs both inverts nothing.
    """
    if len(images) != n * n:
        raise NotAutomorphismError("need one image per matrix unit")
    defect = automorphism_defect(images, n, field)
    if defect is not None:
        raise NotAutomorphismError(f"map {defect}")
    first = images[0].rows
    c = next((j for j in range(n) if any(row[j] for row in first)), 0)
    v = Mat([[images[p * n].rows[i][c] for p in range(n)] for i in range(n)])
    try:
        u = v.inverse()
    except LinAlgError:
        raise NotAutomorphismError("intertwining system has no invertible solution") from None
    for idx, unit in enumerate(matrix_units(n, field)):
        if v * unit * u != images[idx]:
            raise NotAutomorphismError("solution fails conjugation recheck")
    return v, u


def skolem_noether(images, n, field=QQ) -> Mat:
    """Conjugating matrix U of an inner automorphism of the n-by-n
    matrices, as ``conjugator_pair`` builds it."""
    return conjugator_pair(images, n, field)[1]
