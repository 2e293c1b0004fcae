"""Independent checks of the reports the program prints.

``check(entry, report)`` returns the list of problems found in one job's
report (an empty list means the report is right).  The report is the
parsed JSON text that ``cendlab.cli.main`` would print.  Every expected
value is recomputed here from how the job was built, with the arithmetic
and definitions of ``exact.py``; only the phi spot check also uses sympy.
"""

from __future__ import annotations

import random

from exact import (
    FIELDS,
    GROUPS,
    canonical_basis,
    conjugate,
    coord_vector,
    coset_ratio_witness,
    echelon,
    evaluation,
    left_cosets,
    mat_inv,
    mat_vec,
    multiplication_op,
    product,
    reduce_vec,
    same_span,
)


def _elem(obj, F):
    """A job or report element [{g, w, matrix}] as a dict (g, w) -> matrix."""
    out = {}
    for term in obj:
        m = [[F.from_json(x) for x in row] for row in term["matrix"]]
        key = (term["g"], term["w"])
        if key in out:
            m = [[p + q for p, q in zip(r1, r2)] for r1, r2 in zip(out[key], m)]
        out[key] = m
    return out


def _checks_passed(report):
    problems = []
    if report.get("passed") is not True:
        problems.append("report says passed = false")
    for entry in report.get("checks", []):
        if entry.get("passed") is not True:
            problems.append(f"check {entry.get('id')} failed")
    return problems


def check_phi(entry, result, group, n, F):
    problems = []
    if result.get("basis_size") != entry["expect"]["basis_size"]:
        problems.append(
            f"basis_size {result.get('basis_size')} != {entry['expect']['basis_size']}"
        )
    if result.get("mode") != "random":
        problems.append(f"mode {result.get('mode')!r}, sampled mode was asked for")
    problems += product_law_spot_check(group, n, entry["job"]["seed"])
    return problems


def product_law_spot_check(group, n, seed, spots=3):
    """a(g) b(z) = (a o_g b)(z g) with sympy matrices built from the
    definition, on seeded elements that make the left side nonzero."""
    import sympy

    F = FIELDS["QQ"]
    rng = random.Random(seed)

    def smat(op):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in op])

    def dense():
        return [[F.int(rng.choice((-2, -1, 1, 2, 3))) for _ in range(n)] for _ in range(n)]

    problems = []
    for _ in range(spots):
        g, z = rng.randrange(group.order), rng.randrange(group.order)
        us = [rng.randrange(group.order) for _ in range(3)]
        a = {(group.inv(g), u): dense() for u in us}
        b = {(group.inv(z), group.mul(g, u)): dense() for u in us}
        lhs = smat(evaluation(a, g, group, n, F)) * smat(evaluation(b, z, group, n, F))
        rhs = smat(evaluation(product(a, b, g, group, n, F), group.mul(z, g), group, n, F))
        if lhs.is_zero_matrix or lhs != rhs:
            problems.append(f"product law fails at g={g}, z={z}")
    return problems


def check_wn(entry, result, group, n, F):
    want = entry["expect"]["wn_dim"]
    return [] if result.get("wn_dim") == want else [f"wn_dim {result.get('wn_dim')} != {want}"]


def check_ideal(entry, result, group, n, F):
    return [
        f"{key} {result.get(key)} != {entry['expect'][key]}"
        for key in ("essential", "b0_dim", "ideal_dim")
        if result.get(key) != entry["expect"][key]
    ]


def check_irreducible(entry, result, group, n, F):
    want = entry["expect"]["verdict"]
    if result.get("verdict") != want:
        return [f"verdict {result.get('verdict')!r}, the construction is {want}"]
    if want == "irreducible":
        return [] if result.get("certificate") is None else ["certificate on an irreducible span"]
    cert = result.get("certificate")
    if not cert:
        return [f"reducible without a certificate (flag {result.get('flag')!r})"]
    return certificate_problems(
        [[F.from_json(x) for x in row] for row in cert],
        [_elem(e, F) for e in entry["job"]["generators"]],
        group, n, F,
    )


def certificate_problems(rows, generators, group, n, F):
    """A certificate must span 0 < dim < |V| n and be invariant under the
    multiplication operators and every evaluation of the generators."""
    N = group.order * n
    if any(len(r) != N for r in rows):
        return [f"certificate rows are not of length {N}"]
    basis, pivots = echelon(rows, F)
    if not 0 < len(basis) < N:
        return [f"certificate dimension {len(basis)} is not in (0, {N})"]
    ops = [multiplication_op(w, group, n, F) for w in range(group.order)]
    ops += [evaluation(x, z, group, n, F) for x in generators for z in range(group.order)]
    for k, op in enumerate(ops):
        for v in basis:
            if any(reduce_vec(basis, pivots, mat_vec(op, v, F))):
                return [f"certificate is not invariant under operator {k}"]
    return []


def check_classify(entry, result, group, n, F):
    sub = entry["expect"]["subgroup"]
    if result.get("subgroup") != sub:
        return [f"subgroup {result.get('subgroup')} != {sub}"]
    cosets = left_cosets(group, sub)
    if result.get("cosets") != [list(c) for c in cosets]:
        return ["cosets differ from the left cosets of the subgroup"]
    chi = [[F.from_json(x) for x in row] for row in result["chi"]["values"]]
    if len(chi) != group.order or any(len(row) != group.order for row in chi):
        return ["chi table is not |G| x |G|"]
    problems = []
    witness = coset_ratio_witness(group, sub, chi)
    if witness is not None:
        problems.append(f"chi fails the coset-ratio check at {witness}")
    for g in range(group.order):
        for coset in cosets:
            if chi[g][coset[0]] != F.one:
                problems.append(f"chi({g}, {coset[0]}) is not 1 at a coset representative")
    us = [[[F.from_json(x) for x in row] for row in u] for u in result["sigma_conjugators"]]
    if len(us) != group.order:
        return problems + ["need one conjugator per point"]
    try:
        us_inv = [mat_inv(u, F) for u in us]
    except ZeroDivisionError:
        return problems + ["a conjugator is singular"]
    moved = [
        coord_vector(conjugate(_elem(e, F), us, us_inv, group, F), group.order, n, F)
        for e in entry["job"]["generators"]
    ]
    built = [coord_vector(e, group.order, n, F) for e in canonical_basis(group, sub, chi, n, F)]
    if not same_span(moved, built, F, block=n * n):
        problems.append("conjugated input does not span C(G1, chi)")
    return problems


CHECKERS = {
    "phi": check_phi,
    "wn": check_wn,
    "ideal": check_ideal,
    "irreducible": check_irreducible,
    "classify": check_classify,
}


def check(entry, report) -> list:
    """Problems in the report of one job; [] when it is right."""
    expect = entry["expect"]
    if report.get("command") != entry["job"]["command"]:
        return [f"report is for {report.get('command')!r}"]
    group = GROUPS[expect["group"]]()
    F = FIELDS[expect["field"]]
    problems = _checks_passed(report)
    try:
        problems += CHECKERS[expect["kind"]](entry, report.get("result", {}), group, expect["n"], F)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
