"""Seeded job lists for the three workloads.

The seed changes values only: sampling seeds of ``phi`` jobs, conjugators,
and the scalar tables chi.  Which commands run on which instances and
subgroups is fixed, so every seed asks the program for the same amount of
work and the runs of different seeds can be compared.

Each entry is {"id", "job", "expect"}: ``job`` is handed to
``cendlab.cli.run_job`` and ``expect`` is what the independent checks in
``oracle.py`` need to know about how the input was built.
"""

from __future__ import annotations

import random

from exact import (
    FIELDS,
    GROUPS,
    canonical_basis,
    conjugate,
    mat_inv,
    subgroup_closure,
)

WORKLOADS = ("transport", "decide-qq", "decide-cyc")

# (group, n, phi trials).  The sampled pairs add to the roundtrip over the
# whole basis, which every phi job runs; the trial counts lift the small
# instances well above timer and collector jitter.
PHI = [
    ("C4", 1, 150), ("C4", 2, 12), ("C2xC2", 1, 150), ("C2xC2", 2, 12),
    ("S3", 1, 48), ("S3", 2, 4), ("D4", 1, 12), ("D4", 2, 4),
]
# wn on D4 at n = 2 (about 4 s) is left out: the top job already sits there
# and the round would no longer fit a run twice.  wn at n = 1 on C4, C2xC2
# and S3 takes under 30 ms, where run-to-run jitter reached 20%.
WN = [("C4", 2), ("C2xC2", 2), ("S3", 2), ("D4", 1)]

# Subgroups are given by their generators; (group, n, generators of G1).
# The last entry of each list is the workload's top job.
CLASSIFY_QQ = [
    ("C2xC2", 1, (1,)), ("S3", 1, ()), ("S3", 1, (1,)), ("S3", 1, (3,)), ("S3", 1, (1, 3)),
    ("D4", 1, ()), ("D4", 1, (4,)), ("D4", 1, (1,)), ("D4", 1, (1, 4)),
    ("C4", 2, (2,)), ("C4", 2, (1,)), ("C2xC2", 2, (2,)), ("S3", 2, (3,)), ("D4", 2, (1,)),
]
# (group, n, generators of G1); at n = 2 the matrix slot is upper triangular,
# so the span is reducible, and at n = 1 it is the irreducible C(G1, chi).
IRREDUCIBLE_QQ = [
    ("C4", 2, (2,)), ("C2xC2", 2, ()), ("S3", 2, (1,)), ("D4", 2, (1, 4)),
    ("S3", 1, (3,)), ("D4", 1, (4,)),
]
# (group, n, generators of G1, or None for a single T_g (x) T_w (x) e_11)
IDEAL_QQ = [
    ("C2xC2", 2, (1,)), ("S3", 1, (1,)), ("D4", 1, (1, 4)),
    ("S3", 2, None), ("D4", 2, None),
]
# Over Q(zeta_4) the cost of a job at n = 1 moves by up to 30% with the
# drawn chi and phases, which no extra round averages out; each such
# instance runs twice, with independent draws.
CLASSIFY_QI_N1 = [
    ("C4", 1, ()), ("C4", 1, (2,)), ("C4", 1, (1,)), ("C2xC2", 1, (1,)), ("C2xC2", 1, (1, 2)),
    ("S3", 1, ()), ("S3", 1, (3,)), ("S3", 1, (1,)), ("D4", 1, (4,)),
]
CLASSIFY_QI = CLASSIFY_QI_N1 * 2 + [("C4", 2, (2,)), ("S3", 2, (1,))]
IRREDUCIBLE_QI = [("C4", 2, (1,)), ("C2xC2", 2, (1,)), ("S3", 2, (3,)), ("D4", 1, (1,))]


def elem_json(elem, F):
    return [
        {"g": g, "w": w, "matrix": [[F.to_json(x) for x in row] for row in m]}
        for (g, w), m in sorted(elem.items())
    ]


def _roots(F):
    return [F.int(1), F.int(-1)] if F.name == "QQ" else [F.root(k) for k in range(4)]


def random_chi(rng, group, F):
    """chi(g, a) = psi(g) mu(a) / mu(g^-1 a) with psi, mu valued in the roots
    of unity of F.  Its coset ratio is psi(g) psi(h) / psi(gh) for every
    coset of every subgroup, so it is valid for all G1; redrawn until some
    value differs from 1."""
    roots = _roots(F)
    while True:
        psi = [rng.choice(roots) for _ in range(group.order)]
        mu = [rng.choice(roots) for _ in range(group.order)]
        chi = [
            [psi[g] * mu[a] / mu[group.mul(group.inv(g), a)] for a in range(group.order)]
            for g in range(group.order)
        ]
        if any(x != F.one for row in chi for x in row):
            return chi


def _base_conjugator(a, n, F, upper):
    """The fixed matrix behind the conjugator at point a: integer entries
    in [-3, 3] over QQ, fourth roots of unity (and 0) over Q(zeta_4)."""
    if F.name == "QQ":
        k, m = F.int(a % 3 + 1), F.int(a % 2 + 1)
        if n == 1:
            return [[k]]
        return [[k, F.one], [F.zero, m]] if upper else [[k, F.one], [F.one, -m]]
    if n == 1:
        return [[F.one]]
    if upper:
        return [[F.one, F.root(a)], [F.zero, F.one]]
    return [[F.one, F.one], [F.one, -F.one]] if a % 2 else [[F.one, F.root(1)], [F.root(1), F.one]]


def random_conjugators(rng, group, n, F, upper=False):
    """One invertible conjugator per point a: a seeded root of unity (a sign
    over QQ) times a fixed matrix B_a.  The seed moves one phase per point,
    never the zero pattern or the magnitudes, so every seed costs the
    program about the same; seeded phases on both sides of B_a made the
    decide-cyc top job take 5.3 to 7.6 s depending on the seed.  With
    ``upper`` every B_a is upper triangular, so conjugation keeps an upper
    triangular matrix slot upper triangular."""
    roots = _roots(F)
    out = []
    for a in range(group.order):
        phase = rng.choice(roots)
        out.append([[phase * x for x in row] for row in _base_conjugator(a, n, F, upper)])
    return out


def _conjugated_span(rng, group, sub, n, F, upper=False):
    """A basis of C(G1, chi) for a seeded chi, with the matrix slot cut down
    to the upper triangular units when ``upper``, moved by the slotwise
    automorphism of seeded conjugators so that the input is not canonical."""
    chi = random_chi(rng, group, F)
    units = [(i, j) for i in range(n) for j in range(n) if not upper or i <= j]
    basis = canonical_basis(group, sub, chi, n, F, units)
    us = random_conjugators(rng, group, n, F, upper)
    us_inv = [mat_inv(u, F) for u in us]
    return [elem_json(conjugate(e, us, us_inv, group, F), F) for e in basis]


def _base(command, name, n, F):
    job = {"command": command, "group": GROUPS[name]().spec, "n": n}
    if F.name != "QQ":
        job["field"] = F.job_spec
    return job


def _classify_jobs(rng, spec, F):
    out = []
    for name, n, gens in spec:
        group = GROUPS[name]()
        sub = subgroup_closure(group, gens)
        job = _base("classify", name, n, F)
        job["generators"] = _conjugated_span(rng, group, sub, n, F)
        out.append(({"kind": "classify", "subgroup": list(sub)}, job, name, n))
    return out


def _irreducible_jobs(rng, spec, F):
    out = []
    for name, n, gens in spec:
        group = GROUPS[name]()
        sub = subgroup_closure(group, gens)
        job = _base("irreducible", name, n, F)
        job["generators"] = _conjugated_span(rng, group, sub, n, F, upper=n > 1)
        verdict = "reducible" if n > 1 else "irreducible"
        out.append(({"kind": "irreducible", "verdict": verdict}, job, name, n))
    return out


def _ideal_jobs(rng, spec, F):
    out = []
    for name, n, gens in spec:
        group = GROUPS[name]()
        job = _base("ideal", name, n, F)
        job["side"] = "left"
        if gens is None:
            g, w = rng.randrange(group.order), rng.randrange(group.order)
            unit = [[F.one if (i, j) == (0, 0) else F.zero for j in range(n)] for i in range(n)]
            job["generators"] = [elem_json({(g, w): unit}, F)]
            expect = {"essential": False, "b0_dim": n, "ideal_dim": group.order * n}
        else:
            sub = subgroup_closure(group, gens)
            chi = random_chi(rng, group, F)
            job["generators"] = [elem_json(e, F) for e in canonical_basis(group, sub, chi, n, F)]
            d = group.order * n * n
            expect = {"essential": True, "b0_dim": d, "ideal_dim": group.order * d}
        out.append(({"kind": "ideal", **expect}, job, name, n))
    return out


def build(workload: str, seed: int):
    """The job list of one workload; the same seed gives the same list.
    Exactly one entry, the workload's largest job, has "top": True."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    QQ, QI = FIELDS["QQ"], FIELDS["QI"]
    entries = []
    if workload == "transport":
        for name, n, trials in PHI:
            job = _base("phi", name, n, QQ)
            job["trials"] = trials
            job["seed"] = rng.randrange(10**6)
            order = GROUPS[name]().order
            entries.append(({"kind": "phi", "basis_size": order * order * n * n}, job, name, n))
        top = len(PHI) - 1
        for name, n in WN:
            order = GROUPS[name]().order
            expect = {"kind": "wn", "wn_dim": (order * n) ** 2}
            entries.append((expect, _base("wn", name, n, QQ), name, n))
    elif workload == "decide-qq":
        entries += _classify_jobs(rng, CLASSIFY_QQ, QQ)
        top = len(entries) - 1
        entries += _irreducible_jobs(rng, IRREDUCIBLE_QQ, QQ)
        entries += _ideal_jobs(rng, IDEAL_QQ, QQ)
    else:
        entries += _classify_jobs(rng, CLASSIFY_QI, QI)
        top = len(entries) - 1
        entries += _irreducible_jobs(rng, IRREDUCIBLE_QI, QI)
    field = {"decide-cyc": "QI"}.get(workload, "QQ")
    return [
        {
            "id": f"{job['command']}:{name}:n{n}:{k}",
            "job": job,
            "expect": {**expect, "field": field, "group": name, "n": n},
            "top": k == top,
        }
        for k, (expect, job, name, n) in enumerate(entries)
    ]
