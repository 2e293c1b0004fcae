"""Golden CLI reports: each ``tests/golden/<name>.job.json`` must give the
report stored next to it, byte for byte, as ``cli.main`` prints it."""

import json
from pathlib import Path

import pytest

import cendlab.conformal
import cendlab.workbench
from cendlab.cli import run_job
from cendlab.linalg import EchelonBuilder, Mat

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(p.name[: -len(".job.json")] for p in GOLDEN.glob("*.job.json"))


def test_golden_set_is_complete():
    assert len(NAMES) == 22
    assert all((GOLDEN / f"{name}.report.json").exists() for name in NAMES)


def check_golden(name, monkeypatch):
    monkeypatch.delenv("CENDLAB_FIELD", raising=False)
    job = json.loads((GOLDEN / f"{name}.job.json").read_text())
    expect = (GOLDEN / f"{name}.report.json").read_text()
    assert json.dumps(run_job(job), sort_keys=True, indent=2) + "\n" == expect


@pytest.mark.parametrize("name", NAMES)
def test_golden_report(name, monkeypatch):
    check_golden(name, monkeypatch)


@pytest.mark.parametrize("name", [
    "classify_generators_s3",
    "classify_reducible",
    "irreducible_irreducible",
    "irreducible_reducible",
])
def test_decisions_run_without_the_oracles(name, monkeypatch):
    # closure and irreducibility are decided by grading alone; the closure
    # witness and the explicit enrichment are oracles for the tests
    def oracle(*args, **kwargs):
        raise AssertionError("a decision called an oracle")

    for module in (cendlab.conformal, cendlab.workbench):
        monkeypatch.setattr(module, "subalgebra_closure_witness", oracle)
    monkeypatch.setattr(cendlab.workbench, "enrich", oracle)
    check_golden(name, monkeypatch)


@pytest.mark.parametrize(
    "name", [name for name in NAMES if name.startswith(("phi_", "wn_", "irreducible_"))]
)
def test_operators_stay_block_sparse(name, monkeypatch):
    # operators on M are block-sparse: no matrix product or application
    # larger than the n x n blocks runs in these jobs
    n = json.loads((GOLDEN / f"{name}.job.json").read_text())["n"]
    mul, apply = Mat.__mul__, Mat.apply

    def small(*mats):
        for m in mats:
            if m.nrows > n or m.ncols > n:
                raise AssertionError(f"a dense {m.nrows} x {m.ncols} operator ran")

    def guarded_mul(self, other):
        if isinstance(other, Mat):
            small(self, other)
        return mul(self, other)

    def guarded_apply(self, vec):
        small(self)
        return apply(self, vec)

    monkeypatch.setattr(Mat, "__mul__", guarded_mul)
    monkeypatch.setattr(Mat, "apply", guarded_apply)
    check_golden(name, monkeypatch)


@pytest.mark.parametrize(
    "name",
    [
        name
        for name in NAMES
        # classify_invalid_chi stops at classify.validate-chi, before grading
        if name.startswith(("classify_", "irreducible_")) and name != "classify_invalid_chi"
    ],
)
def test_product_rule_is_not_pairwise(name, monkeypatch):
    # grading decides the product rule by closing a generating set, with
    # (generators) x dim S products, where the pairwise scan took (dim S)^2.
    # No job may use more than half of that.  A span of dimension 2 is
    # exempt: classify_reducible, T_e (x) T_0 and T_g (x) T_0 over C2, needs
    # both as generators, so 4 products.
    rule, product = cendlab.workbench._product_rule, cendlab.workbench._graded_product
    runs = []  # [dim S, products] per product-rule decision

    def counted_rule(amb, components, blocks):
        runs.append([sum(comp.dim for comp in components.values()), 0])
        return rule(amb, components, blocks)

    def counted_product(*args):
        runs[-1][1] += 1
        return product(*args)

    monkeypatch.setattr(cendlab.workbench, "_product_rule", counted_rule)
    monkeypatch.setattr(cendlab.workbench, "_graded_product", counted_product)
    check_golden(name, monkeypatch)
    assert runs
    assert all(2 * products <= dim * dim or dim <= 2 for dim, products in runs), runs


@pytest.mark.parametrize(
    "name",
    [name for name in NAMES if name.startswith(("ideal_left_", "wn_"))] + ["irreducible_reducible"],
)
def test_closures_run_through_span_closure(name, monkeypatch):
    # span_closure is the one closure routine: the ideal closure, the B0
    # left-ideal test of is_essential and the module closures of the
    # certificate search all call it
    calls = []
    closure = cendlab.workbench.span_closure

    def counted(*args):
        calls.append(args[0])
        return closure(*args)

    monkeypatch.setattr(cendlab.workbench, "span_closure", counted)
    check_golden(name, monkeypatch)
    assert calls


@pytest.mark.parametrize("name", ["wn_c4_n2", "wn_cosets_s3", "ideal_left_essential"])
def test_full_echelon_eliminates_nothing(name, monkeypatch):
    # these jobs close spans that reach the whole space: every vector of
    # M_n for wn, all of Cend for an essential ideal.  Once an echelon
    # spans k^N it decides every vector, so no reduction may run on it
    reduce, basis = EchelonBuilder.reduce, EchelonBuilder.basis
    on_full, filled = [], []

    def counted_reduce(self, vec):
        if len(self.index) == self.ambient:
            on_full.append(self.ambient)
        return reduce(self, vec)

    def counted_basis(self):
        if len(self.index) == self.ambient:
            filled.append(self.ambient)
        return basis(self)

    monkeypatch.setattr(EchelonBuilder, "reduce", counted_reduce)
    monkeypatch.setattr(EchelonBuilder, "basis", counted_basis)
    check_golden(name, monkeypatch)
    assert filled
    assert not on_full, f"{len(on_full)} reductions against a full echelon"
