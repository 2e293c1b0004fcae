"""Finite groups as validated multiplication tables, plus finite G-sets.

Element ids are 0..N-1 with id 0 always the identity; every constructor
documents its numbering so classification output is deterministic.
"""

from __future__ import annotations

from itertools import permutations


class GroupError(ValueError):
    pass


class FiniteGroup:
    """Multiplication-table group; fully validated at construction."""

    __slots__ = ("order", "table", "inverse", "name")

    def __init__(self, table, name="G"):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise GroupError("empty multiplication table")
        for row in table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupError("table is not a square over element ids")
        # id 0 must be a two-sided identity
        for a in range(n):
            if table[0][a] != a or table[a][0] != a:
                raise GroupError("element 0 is not a two-sided identity")
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0:
                    inverse[a] = b
            if inverse[a] is None or table[inverse[a]][a] != 0:
                raise GroupError(f"element {a} has no two-sided inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise GroupError(
                            f"associativity fails on ({a},{b},{c})"
                        )
        self.order = n
        self.table = table
        self.inverse = tuple(inverse)
        self.name = name

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order)
        )

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"{self.name}(order {self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    """C_n; element k is the k-th power of the generator."""
    if n < 1:
        raise GroupError("cyclic group needs n >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"C{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.

    Element e*n + a encodes s^e r^a (e in {0,1}, a mod n); id 0 is the
    identity rotation.
    """
    if n < 1:
        raise GroupError("dihedral group needs n >= 1")

    def mul(x, y):
        e1, a1 = divmod(x, n)
        e2, a2 = divmod(y, n)
        a = (a2 - a1) % n if e2 else (a1 + a2) % n
        return ((e1 + e2) % 2) * n + a

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return FiniteGroup(table, name=f"D{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n; elements are permutations of 0..n-1 in lexicographic order of
    one-line notation (so the identity gets id 0).  Product p*q acts as
    "apply q first, then p".
    """
    if n < 1:
        raise GroupError("symmetric group needs n >= 1")
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms
    ]
    return FiniteGroup(table, name=f"S{n}")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; pair (a, b) gets id a*|G2| + b."""
    n1, n2 = g1.order, g2.order

    def mul(x, y):
        a1, b1 = divmod(x, n2)
        a2, b2 = divmod(y, n2)
        return g1.mul(a1, a2) * n2 + g2.mul(b1, b2)

    table = [[mul(x, y) for y in range(n1 * n2)] for x in range(n1 * n2)]
    return FiniteGroup(table, name=f"{g1.name}x{g2.name}")


def make_group(spec) -> FiniteGroup:
    """Group from a JSON-style spec.

    Supported kinds: {"kind": "cyclic", "n": ...}, "dihedral", "symmetric",
    {"kind": "product", "factors": [spec, ...]}, and
    {"kind": "table", "table": [[...]]}.
    """
    if isinstance(spec, FiniteGroup):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GroupError(f"bad group spec {spec!r}")
    kind = spec["kind"]
    if kind == "cyclic":
        return cyclic_group(int(spec["n"]))
    if kind == "dihedral":
        return dihedral_group(int(spec["n"]))
    if kind == "symmetric":
        return symmetric_group(int(spec["n"]))
    if kind == "product":
        factors = [make_group(s) for s in spec["factors"]]
        if not factors:
            raise GroupError("product needs at least one factor")
        out = factors[0]
        for f in factors[1:]:
            out = product_group(out, f)
        return out
    if kind == "table":
        return FiniteGroup(spec["table"], name=spec.get("name", "G"))
    raise GroupError(f"unknown group kind {kind!r}")


def _closure(group: FiniteGroup, gens) -> frozenset:
    seen = {0}
    frontier = set(gens) | {0}
    seen |= frontier
    while frontier:
        new = set()
        for a in frontier:
            for b in list(seen):
                for c in (group.mul(a, b), group.mul(b, a)):
                    if c not in seen:
                        new.add(c)
        seen |= new
        frontier = new
    return frozenset(seen)


def subgroups(group: FiniteGroup):
    """All subgroups, as sorted id tuples.

    Cyclic extension (Neubueser): start from the cyclic subgroups, and join
    each newly found subgroup with each cyclic subgroup it does not contain,
    until no join is new.  Every subgroup is the join of the cyclic
    subgroups of its elements, so the fixpoint holds them all.
    """
    cyclic = {_closure(group, (a,)) for a in group.elements()}
    found = set(cyclic)
    frontier = set(cyclic)
    while frontier:
        joins = {
            _closure(group, sub | c) for sub in frontier for c in cyclic if not c <= sub
        }
        frontier = joins - found
        found |= frontier
    return sorted(tuple(sorted(s)) for s in found)


def is_subgroup(group: FiniteGroup, subset) -> bool:
    """Whether the ids form a subgroup; ids outside 0..|G|-1 do not."""
    ids = set(subset)
    if 0 not in ids or not all(a in group.elements() for a in ids):
        return False
    return all(
        group.mul(a, b) in ids and group.inv(a) in ids for a in ids for b in ids
    )


def cosets(group: FiniteGroup, subgroup_ids):
    """Ordered left cosets g*G1: the first coset is G1 itself, each coset is
    sorted, and cosets are ordered by their minimal element (the stored
    representative)."""
    if not is_subgroup(group, subgroup_ids):
        raise GroupError(f"{tuple(subgroup_ids)} is not a subgroup")
    ids = sorted(set(subgroup_ids))
    seen = set()
    out = []
    for g in group.elements():
        if g in seen:
            continue
        coset = tuple(sorted(group.mul(g, h) for h in ids))
        seen.update(coset)
        out.append(coset)
    return out


class GSet:
    """Finite set with a validated left G-action."""

    __slots__ = ("group", "size", "action", "name")

    def __init__(self, group: FiniteGroup, action, name="V"):
        action = tuple(tuple(row) for row in action)
        if len(action) != group.order:
            raise GroupError("action table needs one row per group element")
        size = len(action[0]) if action else 0
        for row in action:
            if len(row) != size or any(not (0 <= v < size) for v in row):
                raise GroupError("action table is not over point ids")
        for v in range(size):
            if action[0][v] != v:
                raise GroupError("identity does not act trivially")
        for g in group.elements():
            for h in group.elements():
                gh = group.mul(g, h)
                for v in range(size):
                    if action[gh][v] != action[g][action[h][v]]:
                        raise GroupError(
                            f"action not compatible on (g={g},h={h},v={v})"
                        )
        self.group = group
        self.size = size
        self.action = action
        self.name = name

    def act(self, g: int, v: int) -> int:
        return self.action[g][v]

    def points(self) -> range:
        return range(self.size)

    def __eq__(self, other):
        return (
            isinstance(other, GSet)
            and self.group == other.group
            and self.action == other.action
        )

    def __hash__(self):
        return hash((self.group, self.action))

    def __repr__(self):
        return f"GSet({self.name}, {self.size} points over {self.group.name})"


def regular_gset(group: FiniteGroup) -> GSet:
    """V = G acting on itself by left multiplication."""
    action = [[group.mul(g, v) for v in group.elements()] for g in group.elements()]
    return GSet(group, action, name="G")


def coset_gset(group: FiniteGroup, subgroup_ids) -> GSet:
    """V = G/G1 with the left-multiplication action; point k is the k-th
    coset in the canonical coset order."""
    cos = cosets(group, subgroup_ids)
    where = {}
    for k, coset in enumerate(cos):
        for x in coset:
            where[x] = k
    action = [
        [where[group.mul(g, coset[0])] for coset in cos] for g in group.elements()
    ]
    return GSet(group, action, name=f"G/{tuple(sorted(set(subgroup_ids)))}")


def trivial_gset(group: FiniteGroup, size: int = 1) -> GSet:
    action = [list(range(size)) for _ in group.elements()]
    return GSet(group, action, name=f"{size}pt")


def disjoint_union(x: GSet, y: GSet) -> GSet:
    if x.group != y.group:
        raise GroupError("disjoint union needs a common group")
    action = [
        list(x.action[g]) + [x.size + v for v in y.action[g]]
        for g in x.group.elements()
    ]
    return GSet(x.group, action, name=f"{x.name}+{y.name}")


def orbits(gset: GSet):
    seen = set()
    out = []
    for v in gset.points():
        if v in seen:
            continue
        orbit = sorted({gset.act(g, v) for g in gset.group.elements()})
        seen.update(orbit)
        out.append(tuple(orbit))
    return out


def is_transitive(gset: GSet) -> bool:
    return len(orbits(gset)) == 1


def make_gset(group: FiniteGroup, spec) -> GSet:
    """G-set from a JSON-style spec: "regular", {"kind": "cosets",
    "subgroup": [...]}, {"kind": "trivial", "size": k}, {"kind": "union",
    "parts": [spec, ...]}, or {"kind": "table", "action": [[...]]}."""
    if isinstance(spec, GSet):
        return spec
    if spec is None or spec == "regular":
        return regular_gset(group)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "regular":
            return regular_gset(group)
        if kind == "cosets":
            return coset_gset(group, spec["subgroup"])
        if kind == "trivial":
            return trivial_gset(group, int(spec.get("size", 1)))
        if kind == "union":
            parts = [make_gset(group, s) for s in spec["parts"]]
            if not parts:
                raise GroupError("a union G-set needs at least one part")
            out = parts[0]
            for p in parts[1:]:
                out = disjoint_union(out, p)
            return out
        if kind == "table":
            return GSet(group, spec["action"], name=spec.get("name", "V"))
    raise GroupError(f"bad G-set spec {spec!r}")
