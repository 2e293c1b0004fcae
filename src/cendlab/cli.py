"""Command-line entry point: reproducible verification and classification
runs driven by a JSON job file.

    cendlab <command> --input job.json [--summary] [--output report.json]

Commands: axioms, hopf, phi, wn, irreducible, ideal, simple, classify,
weyl, operad.  Exit codes: 0 all checks passed (or a decision was
reached), 1 a mathematical counterexample was found, 2 malformed input,
3 a broken internal invariant (the message names it).
The environment variable CENDLAB_FIELD ("rational" or "cyclotomic:m")
overrides the job's field spec.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .checks import CHECK_MANIFEST
from .classify import (
    ChiFunction,
    ClassifyError,
    InvalidChiError,
    NotIrreducibleError,
    NotSubalgebraError,
    analyze_Se,
    canonicalize,
    chi_span,
    validate_chi,
)
from .conformal import Ambient, cend, check_axioms, check_axioms_exhaustive_basis
from .conformal import diff_product, diff_product_sweedler
from .fields import FieldError, field_from_spec
from .groups import GroupError, cosets, is_subgroup, is_transitive, make_group, make_gset
from .linalg import LinAlgError
from .hopf import coaction_report, hopf_axiom_report
from .weyl import WeylElem, module_compat_witness, weyl_algebra_relation, weyl_nprod
from .operad import (
    LEAF,
    Partition,
    compose_associativity_witness,
    pair_index,
    pair_of_index,
    parse_tree,
    tree_compose,
)
from .workbench import (
    WorkbenchError,
    IdealShapeError,
    NotTInvariantError,
    certificate_defect,
    evaluate,
    evaluation_points,
    ideal_shape,
    is_essential,
    is_irreducible,
    is_simple,
    left_ideal_closure,
    module_closure,
    module_unit,
    op_product,
    phi,
    phi_inv,
    right_ideal_closure,
    wn_span,
)


class JobError(ValueError):
    pass


class InternalError(RuntimeError):
    """A broken internal invariant, named in the message; never an input
    error."""


def _check(report, check_id, passed, detail=None):
    entry = {"id": check_id, "law": CHECK_MANIFEST[check_id], "passed": bool(passed)}
    if detail is not None:
        entry["detail"] = detail
    report["checks"].append(entry)
    if not passed:
        report["passed"] = False


def _count(job, key, default, least=0):
    """The job's integer ``key`` (``default`` if absent); a value below
    ``least`` would check nothing and is refused."""
    value = job.get(key, default)
    if value is not None and int(value) < least:
        raise JobError(f"{key!r} must be at least {least}, not {value}")
    return value if value is None else int(value)


def _ambient_from_job(job) -> Ambient:
    field = field_from_spec(os.environ.get("CENDLAB_FIELD") or job.get("field"))
    try:
        group = make_group(job["group"])
    except KeyError:
        raise JobError("job needs a 'group' spec") from None
    gset = make_gset(group, job.get("gset"))
    n = int(job.get("n", 1))
    return Ambient(group, n, gset=gset, field=field)


def _generators_span(job, amb):
    gens = job.get("generators")
    if not gens:
        raise JobError("job needs a nonempty 'generators' list")
    from .conformal import SubSpan

    elems = [jsonio.diffelem_from_json(amb, e) for e in gens]
    return SubSpan.from_elems(amb, elems)


def run_axioms(job, report):
    amb = _ambient_from_job(job)
    trials = _count(job, "trials", None)
    if trials is None and amb.dim <= 16:
        res = check_axioms_exhaustive_basis(amb)
    else:
        basis = [amb.basis_elem(*t) for t in amb.basis_indices()]
        res = check_axioms(basis, trials=200 if trials is None else trials)
    ce = res["counterexample"]
    kind = ce["kind"] if ce else None
    _check(
        report, "conf.h-action-left", kind != "h-action-left",
        ce if kind == "h-action-left" else None,
    )
    _check(
        report, "conf.h-action-right", kind != "h-action-right",
        ce if kind == "h-action-right" else None,
    )
    _check(
        report, "conf.composition", kind not in ("composition", "closed-form"),
        ce if kind in ("composition", "closed-form") else None,
    )
    _check(report, "conf.regularity", True, res["regularity"])
    report["result"] = {"checked": res["checked"], "mode": "random" if trials else "exhaustive"}


def run_hopf(job, report):
    amb = _ambient_from_job(job)
    res = hopf_axiom_report(amb.group, amb.field)
    fails = {f[0] for f in res["failures"]}
    _check(report, "hopf.coassociativity", "coassociativity" not in fails)
    _check(
        report,
        "hopf.counit",
        not ({"counit-left", "counit-right"} & fails),
    )
    _check(
        report,
        "hopf.antipode",
        not ({"antipode-left", "antipode-right", "antipode-involutive"} & fails),
    )
    _check(report, "hopf.coproduct-multiplicative", "coproduct-multiplicative" not in fails)
    _check(
        report,
        "hopf.left-shift",
        not ({"left-shift-antimultiplicative", "left-shift-algebra-map"} & fails),
    )
    cres = coaction_report(amb.gset, amb.field)
    _check(report, "hopf.coaction", cres["passed"], cres["failures"][:3])
    report["result"] = {"basis_size": amb.group.order}


def run_phi(job, report):
    import random

    amb = _ambient_from_job(job)
    group = amb.group
    ok_round = True
    ok_transport = True
    ok_prodlaw = True
    witness = None
    basis = [amb.basis_elem(*t) for t in amb.basis_indices()]
    families = [phi_inv(x) for x in basis]
    for x, family in zip(basis, families):
        try:
            back = phi(family)
        except NotTInvariantError as exc:
            ok_round = False
            witness = {"element": jsonio.diffelem_to_json(x), "not_invariant": exc.witness}
            break
        if back != x:
            ok_round = False
            witness = jsonio.diffelem_to_json(x)
            break
    trials = _count(job, "trials", None)
    size = len(basis)
    if trials is None and size * size * group.order > 100000:
        trials = 2000
    if trials is None:
        pairs = [
            (i, j, g) for i in range(size) for j in range(size) for g in group.elements()
        ]
        mode = "exhaustive"
    else:
        rng = random.Random(int(job.get("seed", 0)))
        pairs = [
            (rng.randrange(size), rng.randrange(size), rng.randrange(group.order))
            for _ in range(trials)
        ]
        mode = "random"
    transport_witness = None
    for i, j, g in pairs:
        a, b = basis[i], basis[j]
        prod = diff_product(a, b, g)
        not_invariant = None
        # (a o_g b)(zg) = a(g) b(z): one set of block products serves the
        # transport and the product law
        law = op_product(families[i], families[j], g)
        try:
            transported = phi(law)
        except NotTInvariantError as exc:
            transported, not_invariant = None, exc.witness
        if transported != prod:
            ok_transport = False
            transport_witness = {
                "a": jsonio.diffelem_to_json(a),
                "b": jsonio.diffelem_to_json(b),
                "g": g,
            }
            if not_invariant is not None:
                transport_witness["not_invariant"] = not_invariant
            break
        # the right side from the Sweedler expansion, not from diff_product
        if transported != diff_product_sweedler(a, b, g):
            ok_prodlaw = False
            break
    _check(report, "phi.roundtrip", ok_round, witness)
    _check(report, "phi.transport", ok_transport, transport_witness)
    _check(report, "op.product-law", ok_prodlaw)
    report["result"] = {"basis_size": len(basis), "mode": mode}


def run_wn(job, report):
    amb = _ambient_from_job(job)
    C = cend(amb)
    # the job gives no span: cend(amb) is closed by construction, so a
    # refusal here is a broken invariant, not bad input
    try:
        basis = wn_span(C)
    except WorkbenchError as exc:
        raise InternalError(f"wn.span: {exc}") from exc
    N = amb.module_dim
    _check(
        report,
        "wn.full-dimension",
        basis.dim == N * N,
        {"dim": basis.dim, "expect": N * N},
    )
    ops = [evaluate(e, z) for e in C.basis_elems() for z in evaluation_points(e)]
    seeds = [module_unit(amb, w, i) for w in amb.gset.points() for i in range(amb.n)]
    closures_full = all(c.dim == N for c in module_closure(ops, seeds, N))
    _check(report, "wn.vector-closure", closures_full)
    report["result"] = {"wn_dim": basis.dim}


def run_irreducible(job, report):
    amb = _ambient_from_job(job)
    span = _generators_span(job, amb)
    res = is_irreducible(span)
    _check(
        report,
        "irred.enrich-test",
        res.irreducible == (res.enriched_dim == amb.dim)
        and span.dim <= res.enriched_dim <= amb.dim,
        {"enriched_dim": res.enriched_dim, "full": res.irreducible},
    )
    cert = None
    if res.certificate is not None:
        cert = [[amb.field.to_json(x) for x in row] for row in res.certificate.rows]
        defect = certificate_defect(span, res.certificate)
        _check(report, "irred.certificate", defect is None, defect)
    elif not res.irreducible:
        _check(report, "irred.certificate", res.flag is not None, res.flag)
    report["result"] = {
        "verdict": "irreducible" if res.irreducible else "reducible",
        "certificate": cert,
        "flag": res.flag,
    }


def run_ideal(job, report):
    amb = _ambient_from_job(job)
    side = job.get("side", "left")
    if side not in ("left", "right"):
        raise JobError("side must be 'left' or 'right'")
    gens = [jsonio.diffelem_from_json(amb, e) for e in job.get("generators") or []]
    if not gens:
        raise JobError("job needs a nonempty 'generators' list")
    closure = right_ideal_closure(gens) if side == "right" else left_ideal_closure(gens)
    try:
        b0 = ideal_shape(closure, side)
        shape_ok = True
        detail = {"b0_dim": b0.dim, "ideal_dim": closure.dim}
    except IdealShapeError as exc:
        b0 = None
        shape_ok = False
        detail = str(exc)
    _check(
        report,
        "ideal.right-shape" if side == "right" else "ideal.left-shape",
        shape_ok,
        detail,
    )
    essential = None
    if side == "left" and b0 is not None:
        # the B0 of a left ideal's shape is a left ideal of M_n(A), so a
        # refusal here is a broken invariant, not bad input
        try:
            essential, by_whole_ring = is_essential(amb, b0)
        except WorkbenchError as exc:
            raise InternalError(f"ideal.essential: {exc}") from exc
        detail = {"essential": essential}
        if by_whole_ring != essential:
            detail["by_whole_ring"] = by_whole_ring
        _check(report, "ideal.essential", by_whole_ring == essential, detail)
    report["result"] = {
        "ideal_dim": closure.dim,
        "b0_dim": None if b0 is None else b0.dim,
        "essential": essential,
    }


def run_simple(job, report):
    amb = _ambient_from_job(job)
    verdict, witness = is_simple(amb)
    transitive = is_transitive(amb.gset)
    _check(
        report,
        "simple.transitivity",
        verdict == transitive,
        {"simple": verdict, "transitive": transitive},
    )
    report["result"] = {
        "verdict": "simple" if verdict else "not simple",
        "witness_dim": None if witness is None else witness.dim,
    }


def run_classify(job, report):
    amb = _ambient_from_job(job)
    if amb.gset.size != amb.group.order:
        raise JobError("classification runs over V = G; omit the 'gset' field")
    if "generators" in job:
        span = _generators_span(job, amb)
    else:
        try:
            sub = tuple(int(x) for x in job["subgroup"])
        except KeyError:
            raise JobError("classify needs 'generators' or 'subgroup'") from None
        if "chi" in job:
            chi = jsonio.chi_from_json(amb.group, job["chi"], amb.field)
        else:
            chi = ChiFunction.constant_one(amb.group, amb.field)
        ok, witness = validate_chi(amb.group, sub, chi)
        _check(report, "classify.validate-chi", ok, witness and _witness_json(witness, amb))
        if not ok:
            report["result"] = {"verdict": "invalid chi", "witness": _witness_json(witness, amb)}
            return
        span = chi_span(amb.group, sub, chi, amb.n, amb.field)
    # analyze_Se decides closure and irreducibility once; canonicalize
    # reuses its decomposition.  Past those two input refusals, every step
    # holds for an irreducible subalgebra, so its failure is a broken
    # invariant, not bad input
    try:
        decomp = analyze_Se(span)
    except NotIrreducibleError as exc:
        _check(
            report, "classify.build", False, {"dim": span.dim, "enriched_dim": exc.enriched_dim}
        )
        report["result"] = {"verdict": "reducible input"}
        return
    except NotSubalgebraError:
        raise
    except (ClassifyError, LinAlgError) as exc:
        raise InternalError(f"classify.analyze: {exc}") from exc
    built = decomp.enriched_dim == amb.dim
    _check(
        report, "classify.build", built, {"dim": span.dim, "enriched_dim": decomp.enriched_dim}
    )
    if not built:
        report["result"] = {"verdict": "reducible input"}
        return
    try:
        subgroup, chi_out, sigma = canonicalize(span, decomp)
    except (ClassifyError, LinAlgError) as exc:
        raise InternalError(f"classify.canonical: {exc}") from exc
    # canonical: the subgroup is one, and chi is 1 at the representatives,
    # the least points of the cosets
    classes = cosets(amb.group, subgroup) if is_subgroup(amb.group, subgroup) else None
    one = amb.field.one
    canonical = classes is not None and all(
        chi_out.value(g, min(c)) == one for c in classes for g in amb.group.elements()
    )
    _check(report, "classify.canonical", canonical, {"subgroup": list(subgroup)})
    if not canonical:
        report["result"] = {"verdict": "not canonical"}
        return
    report["result"] = {
        "subgroup": list(subgroup),
        "cosets": [list(c) for c in classes],
        "chi": jsonio.chi_to_json(chi_out, amb.field),
        "sigma_conjugators": [jsonio.mat_to_json(u, amb.field) for u in sigma.us],
    }


def _witness_json(witness, amb):
    out = {}
    for k, v in witness.items():
        out[k] = amb.field.to_json(v) if amb.field.is_element(v) else v
    return out


def run_weyl(job, report):
    field = field_from_spec(os.environ.get("CENDLAB_FIELD") or job.get("field"))
    budget = int(job.get("budget", 10))
    v = WeylElem.monomial(field, 0, 1)
    sq = WeylElem.monomial(field, 0, 2)
    prods_ok = (
        weyl_nprod(v, v, 0) == sq
        and weyl_nprod(v, v, 1) == v
        and not weyl_nprod(v, v, 2)
    )
    _check(report, "weyl.products", prods_ok)
    c2_ok = True
    loc_ok = True
    deg = _count(job, "degree", 3)
    monos = [
        WeylElem.monomial(field, r, s) for r in range(deg + 1) for s in range(deg + 1)
    ]
    for a in monos:
        for b in monos:
            from .weyl import locality_bound

            bound = locality_bound(a, b)
            if weyl_nprod(a, b, bound) or not weyl_nprod(a, b, bound - 1):
                loc_ok = False
            for m in range(bound + 1):
                lhs = weyl_nprod(a.t_mult(), b, m)
                rhs = (
                    weyl_nprod(a, b, m - 1).scale(field.scalar(-m))
                    if m
                    else WeylElem.zero(field)
                )
                if lhs != rhs:
                    c2_ok = False
                second = weyl_nprod(a, b.t_mult(), m)
                expect = weyl_nprod(a, b, m).t_mult() - lhs
                if second != expect:
                    c2_ok = False
    _check(report, "weyl.c2", c2_ok)
    _check(report, "weyl.locality", loc_ok)
    rel = weyl_algebra_relation(budget, field)
    _check(report, "weyl.first-weyl-relation", rel["passed"], rel)
    compat = module_compat_witness(
        WeylElem.monomial(field, 1, 1), WeylElem.monomial(field, 1, 2), 2, 1, budget + 6
    )
    report["passed"] = report["passed"] and compat is None
    report["result"] = {"budget": budget, "action_compat_witness": compat}


def run_operad(job, report):
    max_m = _count(job, "max_m", 8, least=1)
    import random

    rng = random.Random(int(job.get("seed", 0)))
    bij_ok = True
    for n_parts in range(1, max_m + 1):
        for _ in range(10):
            parts = []
            left = max_m
            for i in range(n_parts):
                hi = left - (n_parts - i - 1)
                if hi < 1:
                    break
                p = rng.randint(1, hi)
                parts.append(p)
                left -= p
            if len(parts) < n_parts:
                continue
            pi = Partition(parts)
            seen = set()
            for i in range(1, pi.length + 1):
                for j in range(1, pi.parts[i - 1] + 1):
                    k = pair_index(pi, i, j)
                    seen.add(k)
                    if pair_of_index(pi, k) != (i, j):
                        bij_ok = False
            if seen != set(range(1, pi.total + 1)):
                bij_ok = False
    _check(report, "operad.pair-index", bij_ok)

    def random_tree(leaves):
        if leaves == 1:
            return LEAF
        cut = rng.randint(1, leaves - 1)
        return tree_compose(
            parse_tree("x1x2"),
            [random_tree(cut), random_tree(leaves - cut)],
            Partition((cut, leaves - cut)),
        )

    assoc_ok = True
    trials = _count(job, "trials", 25)
    for _ in range(trials):
        n_mid = rng.randint(1, 3)
        pi_parts = [rng.randint(1, 2) for _ in range(n_mid)]
        pi = Partition(pi_parts)
        tau_parts = [rng.randint(1, 2) for _ in range(pi.total)]
        tau = Partition(tau_parts)
        if tau.total > max_m:
            continue
        phi_t = random_tree(n_mid)
        chis = [random_tree(p) for p in pi_parts]
        psis = [random_tree(p) for p in tau_parts]
        if compose_associativity_witness(phi_t, chis, psis, tau, pi) is not None:
            assoc_ok = False
    _check(report, "operad.associativity", assoc_ok)
    mul = parse_tree("x1x2")
    left_ok = (
        tree_compose(mul, [LEAF, mul], Partition((1, 2))).render() == "x1(x2x3)"
        and tree_compose(mul, [mul, LEAF], Partition((2, 1))).render() == "(x1x2)x3"
    )
    ident_ok = True
    for t in (mul, tree_compose(mul, [LEAF, mul], Partition((1, 2)))):
        n_leaves = t.leaves()
        if tree_compose(t, [LEAF] * n_leaves, Partition((1,) * n_leaves)) != t:
            ident_ok = False
        if tree_compose(LEAF, [t], Partition((n_leaves,))) != t:
            ident_ok = False
    _check(report, "operad.identity", ident_ok and left_ok)
    report["result"] = {"max_m": max_m, "trials": trials}


RUNNERS = {
    "axioms": run_axioms,
    "hopf": run_hopf,
    "phi": run_phi,
    "wn": run_wn,
    "irreducible": run_irreducible,
    "ideal": run_ideal,
    "simple": run_simple,
    "classify": run_classify,
    "weyl": run_weyl,
    "operad": run_operad,
}


def run_job(job) -> dict:
    if not isinstance(job, dict):
        raise JobError("job must be a JSON object")
    command = job.get("command")
    if command not in RUNNERS:
        raise JobError(f"unknown command {command!r}; choose from {sorted(RUNNERS)}")
    report = {
        "command": command,
        "passed": True,
        "checks": [],
        "result": {},
    }
    if "group" in job:
        report["instance"] = {
            "group": job["group"],
            "n": int(job.get("n", 1)),
            "field": os.environ.get("CENDLAB_FIELD") or job.get("field") or "rational",
        }
    RUNNERS[command](job, report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cendlab",
        description="exact verification and classification runs for conformal "
        "endomorphism algebras over finite groups",
    )
    parser.add_argument("command", choices=sorted(RUNNERS) + ["run"])
    parser.add_argument("--input", required=True, help="path to the JSON job file")
    parser.add_argument("--output", help="write the JSON report here")
    parser.add_argument(
        "--summary", action="store_true", help="print a human-readable summary"
    )
    args = parser.parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if args.command != "run":
        if "command" in job and job["command"] != args.command:
            print(
                f"input error: job file says {job['command']!r}, "
                f"command line says {args.command!r}",
                file=sys.stderr,
            )
            return 2
        job = {**job, "command": args.command}
    try:
        report = run_job(job)
    except (
        JobError,
        jsonio.JsonError,
        GroupError,
        FieldError,
        InvalidChiError,
        WorkbenchError,
        KeyError,
        TypeError,
        ValueError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.summary:
        for entry in report["checks"]:
            mark = "PASS" if entry["passed"] else "FAIL"
            print(f"[{mark}] {entry['id']}: {entry['law']}")
        print(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    if not args.output and not args.summary:
        print(text)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
