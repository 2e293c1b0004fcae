"""JSON forms of every externally visible value.

Scalars: rationals as "p/q" (or "p"); cyclotomics as
{"m": conductor, "coeffs": ["p/q", ...]}.  All emitters produce plain
dict/list/str structures with deterministic content so reports can be
compared byte for byte after ``json.dumps(..., sort_keys=True)``.
"""

from __future__ import annotations

from .classify import ChiFunction, ConfAutomorphism
from .conformal import Ambient, DiffElem, SubSpan
from .fields import CyclotomicField, field_from_spec
from .groups import FiniteGroup, GSet, make_group, make_gset
from .hopf import HElem
from .linalg import Mat


class JsonError(ValueError):
    pass


def field_to_json(field):
    if isinstance(field, CyclotomicField):
        return {"kind": "cyclotomic", "conductor": field.conductor}
    return {"kind": "rational"}


def group_to_json(group: FiniteGroup):
    return {"kind": "table", "table": [list(r) for r in group.table], "name": group.name}


def gset_to_json(gset: GSet):
    return {"kind": "table", "action": [list(r) for r in gset.action], "name": gset.name}


def mat_to_json(m: Mat, field):
    return [[field.to_json(x) for x in row] for row in m.rows]


def mat_from_json(obj, field) -> Mat:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise JsonError("matrix must be a list of rows")
    return Mat([[field.from_json(x) for x in row] for row in obj])


def helem_to_json(h: HElem, field):
    return {
        "coeffs": {
            str(g): field.to_json(c) for g, c in enumerate(h.coeffs) if c
        }
    }


def helem_from_json(group: FiniteGroup, obj, field) -> HElem:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise JsonError("function element needs a 'coeffs' object")
    coeffs = [field.zero] * group.order
    for key, val in obj["coeffs"].items():
        g = int(key)
        if not (0 <= g < group.order):
            raise JsonError(f"element id {g} out of range")
        coeffs[g] = field.from_json(val)
    return HElem(group, coeffs)


def diffelem_to_json(x: DiffElem):
    field = x.ambient.field
    out = []
    for (g, w) in sorted(x.comps):
        out.append(
            {"g": g, "w": w, "matrix": mat_to_json(x.comps[(g, w)], field)}
        )
    return out


def diffelem_from_json(amb: Ambient, obj) -> DiffElem:
    """The sum of the terms, built as one element: terms at one (g, w) add
    up, and the components keep the order of each (g, w)'s first term."""
    if not isinstance(obj, list):
        raise JsonError("element must be a list of (g, w, matrix) terms")
    comps = {}
    for term in obj:
        g, w = int(term["g"]), int(term["w"])
        if not (0 <= g < amb.group.order) or not (0 <= w < amb.gset.size):
            raise JsonError(f"indices ({g},{w}) out of range")
        mat = mat_from_json(term["matrix"], amb.field)
        if mat.nrows != amb.n or mat.ncols != amb.n:
            raise JsonError("matrix part has the wrong size")
        acc = comps.get((g, w))
        comps[(g, w)] = mat if acc is None else acc + mat
    return DiffElem(amb, comps)


def ambient_to_json(amb: Ambient):
    return {
        "group": group_to_json(amb.group),
        "gset": gset_to_json(amb.gset),
        "n": amb.n,
        "field": field_to_json(amb.field),
    }


def ambient_from_json(obj) -> Ambient:
    field = field_from_spec(obj.get("field"))
    group = make_group(obj["group"])
    gset = make_gset(group, obj.get("gset"))
    return Ambient(group, int(obj.get("n", 1)), gset=gset, field=field)


def subspan_to_json(span: SubSpan, closed: bool | None = None):
    from .conformal import subalgebra_closure_witness

    if closed is None:
        closed = subalgebra_closure_witness(span) is None
    return {
        "ambient": ambient_to_json(span.ambient),
        "generators": [diffelem_to_json(e) for e in span.basis_elems()],
        "closed": bool(closed),
    }


def subspan_from_json(obj, amb: Ambient | None = None) -> SubSpan:
    if amb is None:
        amb = ambient_from_json(obj["ambient"])
    elems = [diffelem_from_json(amb, e) for e in obj.get("generators", [])]
    return SubSpan.from_elems(amb, elems)


def chi_to_json(chi: ChiFunction, field):
    return {"values": [[field.to_json(v) for v in row] for row in chi.values]}


def chi_from_json(group: FiniteGroup, obj, field) -> ChiFunction:
    if not isinstance(obj, dict) or "values" not in obj:
        raise JsonError("chi needs a 'values' table")
    values = [[field.from_json(v) for v in row] for row in obj["values"]]
    return ChiFunction(group, values)


def sigma_to_json(sigma: ConfAutomorphism, field):
    return {"conjugators": [mat_to_json(u, field) for u in sigma.us]}


def weylelem_to_json(x, field):
    return [
        {"r": r, "s": s, "coeff": field.to_json(c)}
        for (r, s), c in sorted(x.coeffs.items())
    ]


def weylelem_from_json(obj, field):
    from .weyl import WeylElem

    if not isinstance(obj, list):
        raise JsonError("element must be a list of monomial terms")
    coeffs = {}
    for term in obj:
        key = (int(term["r"]), int(term["s"]))
        coeffs[key] = coeffs.get(key, field.zero) + field.from_json(term["coeff"])
    return WeylElem(field, coeffs)
