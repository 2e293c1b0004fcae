"""Exact dense linear algebra over the active field.

Everything here is tolerance-free: subspaces are kept in reduced
row-echelon form (pivots 1, pivot columns cleared, pivot columns strictly
increasing), so two equal subspaces have identical representations and
``==`` decides subspace equality.  Inner loops skip exact zeros, which is
what makes the sparse span closures elsewhere in the package cheap.
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
        """Exact determinant by Gaussian elimination with row-swap sign."""
        if self.nrows != self.ncols:
            raise LinAlgError("determinant of a non-square matrix")
        n = self.nrows
        rows = [list(r) for r in self.rows]
        sign_flip = False
        det = None
        for col in range(n):
            piv = None
            for r in range(col, n):
                if rows[r][col]:
                    piv = r
                    break
            if piv is None:
                return self._zero_entry()
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                sign_flip = not sign_flip
            p = rows[col][col]
            det = p if det is None else det * p
            for r in range(col + 1, n):
                c = rows[r][col]
                if not c:
                    continue
                f = c / p
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        return -det if sign_flip else det

    def inverse(self):
        if self.nrows != self.ncols:
            raise LinAlgError("inverse of a non-square matrix")
        n = self.nrows
        one = None
        for r in self.rows:
            for a in r:
                if a:
                    one = a / a
                    break
            if one is not None:
                break
        if one is None:
            raise LinAlgError("matrix is singular")
        zero = one - one
        aug = [
            list(r) + [one if i == j else zero for j in range(n)]
            for i, r in enumerate(self.rows)
        ]
        rows, pivots = _rref_rows(aug)
        if len(pivots) < n or pivots[:n] != list(range(n)):
            raise LinAlgError("matrix is singular")
        return Mat([r[n:] for r in rows[:n]])

    def rank(self):
        _, pivots = _rref_rows([list(r) for r in self.rows])
        return len(pivots)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


def sparse_apply(mat: Mat):
    """``mat.apply`` as a function that visits only the nonzero entries of
    each row, which it lists once: the cheap form for many products with
    one sparse matrix.  It gives the values ``mat.apply`` gives."""
    zero = mat._zero_entry()
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in mat.rows]

    def apply(vec):
        out = []
        for row in rows:
            acc = None
            for j, a in row:
                v = vec[j]
                if v:
                    term = a * v
                    acc = term if acc is None else acc + term
            out.append(zero if acc is None else acc)
        return out

    return apply


def _rref_rows(rows):
    """In-place reduced row echelon form; returns (nonzero rows, pivot cols)."""
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


class SubspaceBasis:
    """Canonical subspace of k^N: nonzero RREF rows with increasing pivots."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient, rows, pivots):
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, ambient, vectors):
        builder = EchelonBuilder(ambient)
        for v in vectors:
            builder.add(v)
        return builder.basis()

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec after elimination against the basis rows; shared
        with ``EchelonBuilder``, whose rows and pivots have the same form."""
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c:
                for j, b in enumerate(row):
                    if b:
                        vec[j] = vec[j] - c * b
        return vec

    def contains(self, vec):
        return not any(self.reduce(vec))

    def contains_basis(self, other: "SubspaceBasis") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in k^{self.ambient})"


class EchelonBuilder:
    """Incrementally maintained RREF basis; the hot path of every closure."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    reduce = SubspaceBasis.reduce
    contains = SubspaceBasis.contains

    def add(self, vec):
        """Insert vec; returns the new canonical row, or None if dependent."""
        if len(vec) != self.ambient:
            raise LinAlgError(f"vector of length {len(vec)} in ambient {self.ambient}")
        vec = self.reduce(vec)
        piv = None
        for j, a in enumerate(vec):
            if a:
                piv = j
                break
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

    def basis(self) -> SubspaceBasis:
        return SubspaceBasis(self.ambient, self.rows, self.pivots)


def rref(mat: Mat):
    """Canonical row-space basis of a matrix; returns (SubspaceBasis, rank)."""
    rows, pivots = _rref_rows([list(r) for r in mat.rows])
    basis = SubspaceBasis(mat.ncols, rows, pivots)
    return basis, len(pivots)


def nullspace(mat: Mat, field=QQ) -> SubspaceBasis:
    """Canonical basis of {x : mat @ x = 0}."""
    rows, pivots = _rref_rows([list(r) for r in mat.rows])
    n = mat.ncols
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    vectors = []
    zero, one = field.zero, field.one
    for f in free:
        v = [zero] * n
        v[f] = one
        for row, piv in zip(rows, pivots):
            c = row[f]
            if c:
                v[piv] = -c
        vectors.append(v)
    return SubspaceBasis.from_vectors(n, vectors)


def span_closure(ambient, seeds, unary_steps=(), binary_steps=()) -> SubspaceBasis:
    """Smallest subspace containing the seeds, closed under the step maps.

    Steps must be linear in each vector argument, so closing over basis
    representatives suffices; terminates since the dimension strictly grows
    each round and the ambient space is finite-dimensional.
    """
    builder = EchelonBuilder(ambient)
    new_rows = []
    for v in seeds:
        added = builder.add(v)
        if added is not None:
            new_rows.append(added)
    while new_rows:
        produced = []
        for v in new_rows:
            for step in unary_steps:
                produced.append(step(v))
        if binary_steps:
            current = list(builder.rows)
            for step in binary_steps:
                for v in new_rows:
                    for w in current:
                        produced.append(step(v, w))
                        produced.append(step(w, v))
        new_rows = []
        for w in produced:
            added = builder.add(w)
            if added is not None:
                new_rows.append(added)
    return builder.basis()


def kernel_partition(basis: SubspaceBasis, block_count: int, block_size: int, field=QQ):
    """Group coordinate blocks by the kernel of their projection from the span.

    Blocks i and j land in one class iff exactly the same combinations of
    the basis rows vanish on block i and on block j; classes are returned
    in order of their smallest block index.
    """
    if basis.ambient != block_count * block_size:
        raise LinAlgError("ambient does not factor into the given blocks")
    if basis.dim == 0:
        return [list(range(block_count))] if block_count else []
    kernels = []
    for blk in range(block_count):
        lo = blk * block_size
        proj = Mat([row[lo : lo + block_size] for row in basis.rows])
        ker = nullspace(proj.transpose(), field)
        kernels.append(ker.rows)
    classes = {}
    order = []
    for blk, key in enumerate(kernels):
        if key not in classes:
            classes[key] = []
            order.append(key)
        classes[key].append(blk)
    return [classes[key] for key in order]


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


def skolem_noether(images, n, field=QQ) -> Mat:
    """Conjugating matrix for an inner automorphism of the n-by-n matrices.

    ``images[p*n+q]`` must be the image of the (p,q) matrix unit.  Returns an
    invertible U with U^-1 a U = phi(a) for all a; U is found as a nonzero
    solution of the intertwining system a U = U phi(a), and any nonzero
    solution is automatically invertible when phi really is an automorphism.
    """
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
