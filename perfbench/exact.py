"""The benchmark's own exact arithmetic, groups and definitions.

Nothing here imports cendlab: job inputs are built, and reports are
checked, with code written apart from the program.  Scalars are
``fractions.Fraction`` over QQ and ``QI`` (Gaussian rationals a + b i)
over Q(zeta_4), where zeta_4 = i because the fourth cyclotomic polynomial
is x^2 + 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


class QI:
    """Exact Gaussian rational re + im * i."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return QI(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QI(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __mul__(self, other):
        return QI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in QI")
        return QI(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        return isinstance(other, QI) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


def _frac_json(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _frac_parse(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"bad rational literal {text!r}")
    return Fraction(text)


class Rationals:
    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)
    job_spec = "rational"

    @staticmethod
    def to_json(x):
        return _frac_json(x)

    @staticmethod
    def from_json(obj):
        return _frac_parse(obj)

    @staticmethod
    def int(k):
        return Fraction(k)


class GaussianRationals:
    """Q(zeta_4) written in the program's JSON form {"m": 4, "coeffs": [a, b]}."""

    name = "QQ(zeta_4)"
    zero = QI(0)
    one = QI(1)
    job_spec = {"kind": "cyclotomic", "conductor": 4}

    @staticmethod
    def to_json(x):
        return {"m": 4, "coeffs": [_frac_json(x.re), _frac_json(x.im)]}

    @staticmethod
    def from_json(obj):
        if isinstance(obj, dict):
            if obj.get("m") != 4 or len(obj.get("coeffs", ())) != 2:
                raise ValueError(f"bad Q(zeta_4) value {obj!r}")
            return QI(_frac_parse(obj["coeffs"][0]), _frac_parse(obj["coeffs"][1]))
        return QI(_frac_parse(obj))

    @staticmethod
    def int(k):
        return QI(k)

    @staticmethod
    def root(k):
        """i**k."""
        return (QI(1), QI(0, 1), QI(-1), QI(0, -1))[k % 4]


FIELDS = {"QQ": Rationals, "QI": GaussianRationals}


# ---------------------------------------------------------------------------
# groups, numbered as the program documents them


class Group:
    """Finite group given by its multiplication table over ids 0..N-1."""

    def __init__(self, table, spec):
        self.table = table
        self.order = len(table)
        self.spec = spec
        self.inverse = [row.index(0) for row in table]

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]


def _perm_group(perms, spec):
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[k]] for k in range(len(p)))] for q in perms] for p in perms
    ]
    return Group(table, spec)


def cyclic(n):
    """C_n: id k is the k-th power of the generator."""
    return Group([[(a + b) % n for b in range(n)] for a in range(n)], {"kind": "cyclic", "n": n})


def dihedral(n):
    """D_n: id e*n + a is s^e r^a, realized on the vertices of the n-gon
    with r(v) = v + 1 and s(v) = -v, composing right to left."""
    def perm(e, a):
        return tuple(((-1) ** e * (v + a)) % n for v in range(n))

    perms = [perm(e, a) for e in (0, 1) for a in range(n)]
    return _perm_group(perms, {"kind": "dihedral", "n": n})


def symmetric(n):
    """S_n: lexicographic one-line permutations; p*q applies q first."""
    return _perm_group(list(permutations(range(n))), {"kind": "symmetric", "n": n})


def klein():
    """C2 x C2: the pair (a, b) gets id 2a + b."""
    table = [[a ^ b for b in range(4)] for a in range(4)]
    c2 = {"kind": "cyclic", "n": 2}
    return Group(table, {"kind": "product", "factors": [c2, c2]})


GROUPS = {"C4": lambda: cyclic(4), "S3": lambda: symmetric(3), "C2xC2": klein, "D4": lambda: dihedral(4)}


def subgroup_closure(group, gens):
    out = {0} | set(gens)
    while True:
        new = {group.mul(a, b) for a in out for b in out} - out
        if not new:
            return tuple(sorted(out))
        out |= new


def left_cosets(group, sub):
    """Left cosets gG1, each sorted, ordered by minimal element."""
    seen, out = set(), []
    for g in range(group.order):
        if g not in seen:
            coset = tuple(sorted(group.mul(g, h) for h in sub))
            seen.update(coset)
            out.append(coset)
    return out


# ---------------------------------------------------------------------------
# matrices and spans over a field F (lists of lists of scalars)


def mat_mul(a, b, F):
    m = len(b[0])
    out = []
    for row in a:
        acc = [F.zero] * m
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[k])]
        out.append(acc)
    return out


def mat_vec(a, v, F):
    out = []
    for row in a:
        acc = F.zero
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def mat_inv(a, F):
    n = len(a)
    aug = [list(r) + [F.one if i == j else F.zero for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            c = aug[r][col]
            if r != col and c:
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def echelon(rows, F):
    """Reduced row echelon form: (rows, pivot columns), zero rows dropped."""
    rows = [list(r) for r in rows]
    out, pivots = [], []
    for v in rows:
        v = reduce_vec(out, pivots, v)
        piv = next((k for k, x in enumerate(v) if x), None)
        if piv is None:
            continue
        p = v[piv]
        v = [x / p for x in v]
        for i, r in enumerate(out):
            c = r[piv]
            if c:
                out[i] = [x - c * y for x, y in zip(r, v)]
        out.append(v)
        pivots.append(piv)
    return out, pivots


def reduce_vec(rows, pivots, v):
    """Residual of v against echelon rows (zero iff v lies in their span)."""
    v = list(v)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return v


def same_span(a, b, F, block=1):
    """Whether the vector lists a and b span the same subspace.

    Coordinates are grouped into consecutive blocks of ``block``; blocks
    that some vector touches together are merged (union-find), and the
    ranks are compared per merged group, which is exact because the
    groups split the space into a direct sum that every vector respects.
    """
    vectors = [list(v) for v in a] + [list(v) for v in b]
    if not vectors:
        return True
    nblocks = len(vectors[0]) // block
    parent = list(range(nblocks))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    supports = []
    for v in vectors:
        touched = sorted({k // block for k, x in enumerate(v) if x})
        supports.append(touched)
        for t in touched[1:]:
            parent[find(t)] = find(touched[0])
    members_of, coords_of = {}, {}
    for idx, touched in enumerate(supports):
        if touched:
            members_of.setdefault(find(touched[0]), []).append(idx)
    for blk in range(nblocks):
        coords_of.setdefault(find(blk), []).extend(range(blk * block, (blk + 1) * block))
    na = len(a)
    for root, members in members_of.items():
        coords = coords_of[root]
        sa = [[vectors[i][k] for k in coords] for i in members if i < na]
        sb = [[vectors[i][k] for k in coords] for i in members if i >= na]
        ra, rb = len(echelon(sa, F)[0]), len(echelon(sb, F)[0])
        if ra != rb or len(echelon(sa + sb, F)[0]) != ra:
            return False
    return True


# ---------------------------------------------------------------------------
# the algebra H (x) A (x) M_n over V = G, from the README definitions.
# An element is a dict (g, w) -> n x n matrix.


def coord_vector(elem, order, n, F):
    """Coefficients in the (g, w, i, j) order, g and w ranging over G."""
    vec = [F.zero] * (order * order * n * n)
    for (g, w), m in elem.items():
        base = (g * order + w) * n * n
        for i in range(n):
            for j in range(n):
                vec[base + i * n + j] = m[i][j]
    return vec


def product(x, y, gamma, group, n, F):
    """(T_g' (x) T_u (x) m) o_gamma (T_h (x) T_w (x) m')
    = [g' = gamma^-1][u = gamma^-1 w] T_{gamma^-1 h} (x) T_u (x) m m'."""
    ginv = group.inv(gamma)
    out = {}
    for (g1, u), m in x.items():
        if g1 != ginv:
            continue
        for (h, w), m2 in y.items():
            if u != group.mul(ginv, w):
                continue
            key = (group.mul(ginv, h), u)
            prod = mat_mul(m, m2, F)
            acc = out.get(key)
            out[key] = prod if acc is None else [
                [p + q for p, q in zip(r1, r2)] for r1, r2 in zip(acc, prod)
            ]
    return out


def evaluation(x, z, group, n, F):
    """The operator x(z) on k^n-valued functions on V = G.

    A term T_g (x) T_w (x) m is supported at z = g^-1, where it is the
    multiplication by T_w after the shift by z, tensored with m:
    (x(z) u)(w) = m u(z w).  Module coordinate (w, i) is w*n + i.
    """
    N = group.order * n
    op = [[F.zero] * N for _ in range(N)]
    for (g, w), m in x.items():
        if group.inv(g) != z:
            continue
        src = group.mul(z, w)
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    op[w * n + i][src * n + j] = op[w * n + i][src * n + j] + m[i][j]
    return op


def multiplication_op(w, group, n, F):
    """Multiplication by the indicator T_w of the point w."""
    N = group.order * n
    op = [[F.zero] * N for _ in range(N)]
    for i in range(n):
        op[w * n + i][w * n + i] = F.one
    return op


def unit_matrix(n, i, j, F):
    m = [[F.zero] * n for _ in range(n)]
    m[i][j] = F.one
    return m


def canonical_basis(group, sub, chi, n, F, units=None):
    """Basis sum_{a in K} chi(g, a) T_g (x) T_a (x) e_ij of C(G1, chi), over
    g, left cosets K of G1 and the matrix units (i, j) in ``units``."""
    if units is None:
        units = [(i, j) for i in range(n) for j in range(n)]
    out = []
    for g in range(group.order):
        for coset in left_cosets(group, sub):
            for i, j in units:
                out.append(
                    {(g, a): [[chi[g][a] * x for x in row] for row in unit_matrix(n, i, j, F)]
                     for a in coset}
                )
    return out


def coset_ratio_witness(group, sub, chi):
    """None when chi(g, y) chi(h, g^-1 y) / chi(gh, y) is constant on every
    left coset of G1 for all g, h; otherwise the first (g, h, coset)."""
    for g in range(group.order):
        ginv = group.inv(g)
        for h in range(group.order):
            gh = group.mul(g, h)
            for coset in left_cosets(group, sub):
                ratios = {
                    chi[g][y] * chi[h][group.mul(ginv, y)] / chi[gh][y] for y in coset
                }
                if len(ratios) != 1:
                    return {"g": g, "h": h, "coset": coset}
    return None


def conjugate(elem, us, us_inv, group, F):
    """Slotwise automorphism m -> U_a^-1 m U_{g^-1 a} on the (g, a) term."""
    return {
        (g, a): mat_mul(mat_mul(us_inv[a], m, F), us[group.mul(group.inv(g), a)], F)
        for (g, a), m in elem.items()
    }
