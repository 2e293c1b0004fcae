import json
import os
import subprocess
import sys

import pytest

import cendlab


def child_env(**extra):
    """This environment for a child interpreter, with the directory this
    process imports ``cendlab`` from put first on PYTHONPATH, so that the
    child runs the same package from a checkout or an install."""
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(cendlab.__file__)))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (import_root, env.get("PYTHONPATH")) if p)
    return env


def run_cli(tmp_path, job, command=None, extra=()):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    cmd = command or job.get("command")
    out_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cendlab.cli", cmd, "--input", str(job_path),
         "--output", str(out_path), *extra],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    report = None
    if out_path.exists():
        report = json.loads(out_path.read_text())
    return proc, report


def test_axioms_command(tmp_path):
    proc, report = run_cli(
        tmp_path, {"command": "axioms", "group": {"kind": "cyclic", "n": 2}, "n": 1}
    )
    assert proc.returncode == 0
    assert report["passed"]
    assert {c["id"] for c in report["checks"]} >= {
        "conf.h-action-left",
        "conf.h-action-right",
        "conf.composition",
        "conf.regularity",
    }


def test_hopf_command_all_groups(tmp_path):
    for spec in (
        {"kind": "cyclic", "n": 3},
        {"kind": "dihedral", "n": 4},
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]},
    ):
        proc, report = run_cli(tmp_path, {"command": "hopf", "group": spec})
        assert proc.returncode == 0 and report["passed"]


def test_classify_command(tmp_path):
    proc, report = run_cli(
        tmp_path,
        {
            "command": "classify",
            "group": {"kind": "cyclic", "n": 4},
            "n": 1,
            "subgroup": [0, 2],
        },
    )
    assert proc.returncode == 0
    assert report["result"]["subgroup"] == [0, 2]
    assert report["result"]["cosets"] == [[0, 2], [1, 3]]
    assert all(v == "1" for row in report["result"]["chi"]["values"] for v in row)


def test_classify_rejects_invalid_chi_with_witness(tmp_path):
    vals = [["1"] * 4 for _ in range(4)]
    vals[1][2] = "-1"
    proc, report = run_cli(
        tmp_path,
        {
            "command": "classify",
            "group": {"kind": "cyclic", "n": 4},
            "n": 1,
            "subgroup": [0, 2],
            "chi": {"values": vals},
        },
    )
    assert proc.returncode == 1
    assert not report["passed"]
    assert report["result"]["verdict"] == "invalid chi"
    witness = report["result"]["witness"]
    assert witness["g"] == 1 and witness["h"] == 1


def test_irreducible_command_reducible_witness(tmp_path):
    gens = [
        [{"g": g, "w": 0, "matrix": [["1"]]}] for g in range(2)
    ]
    proc, report = run_cli(
        tmp_path,
        {
            "command": "irreducible",
            "group": {"kind": "cyclic", "n": 2},
            "n": 1,
            "generators": gens,
        },
    )
    assert proc.returncode == 0
    assert report["result"]["verdict"] == "reducible"
    assert report["result"]["certificate"] == [["1", "0"]]


def test_ideal_command(tmp_path):
    gens = [[{"g": 0, "w": 0, "matrix": [["1"]]}]]
    proc, report = run_cli(
        tmp_path,
        {
            "command": "ideal",
            "group": {"kind": "cyclic", "n": 2},
            "n": 1,
            "side": "left",
            "generators": gens,
        },
    )
    assert proc.returncode == 0
    assert report["result"]["b0_dim"] is not None


def test_simple_command(tmp_path):
    proc, report = run_cli(
        tmp_path,
        {
            "command": "simple",
            "group": {"kind": "cyclic", "n": 3},
            "gset": {"kind": "trivial", "size": 2},
            "n": 1,
        },
    )
    assert proc.returncode == 0
    assert report["result"]["verdict"] == "not simple"


def test_weyl_and_operad_commands(tmp_path):
    proc, report = run_cli(tmp_path, {"command": "weyl", "budget": 6, "degree": 2})
    assert proc.returncode == 0 and report["passed"]
    proc, report = run_cli(tmp_path, {"command": "operad", "max_m": 6, "trials": 10})
    assert proc.returncode == 0 and report["passed"]


def test_malformed_group_table_exits_2(tmp_path):
    proc, _ = run_cli(
        tmp_path,
        {"command": "hopf", "group": {"kind": "table", "table": [[0, 1], [1, 1]]}},
    )
    assert proc.returncode == 2
    assert "input error" in proc.stderr


C2 = {"kind": "cyclic", "n": 2}


@pytest.mark.parametrize("job", [
    {"command": "classify", "group": {"kind": "cyclic", "n": 4}, "subgroup": [0, 99]},
    {"command": "wn", "group": C2, "gset": {"kind": "cosets", "subgroup": [0, 5]}},
    {"command": "simple", "group": C2, "gset": {"kind": "union", "parts": []}},
    {"command": "phi", "group": C2, "trials": -1},
    {"command": "axioms", "group": C2, "trials": -1},
    {"command": "operad", "trials": -1},
    {"command": "operad", "max_m": 0},
    {"command": "weyl", "degree": -1},
], ids=[
    "subgroup-id-out-of-range", "coset-id-out-of-range", "empty-union", "phi-negative-trials",
    "axioms-negative-trials", "operad-negative-trials", "operad-max-m-0", "weyl-negative-degree",
])
def test_malformed_input_exits_2(tmp_path, capsys, job):
    # input that indexed a table with unchecked ids, or that checked nothing
    # and passed, is refused where it enters
    from cendlab.cli import main

    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    out_path = tmp_path / "report.json"
    assert main([job["command"], "--input", str(job_path), "--output", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out_path.exists()


def test_unknown_command_exits_2(tmp_path):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({"command": "axioms", "group": {"kind": "cyclic", "n": 2}}))
    proc = subprocess.run(
        [sys.executable, "-m", "cendlab.cli", "hopf", "--input", str(job_path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 2  # job/command disagreement


def test_reports_deterministic(tmp_path):
    job = {"command": "classify", "group": {"kind": "cyclic", "n": 4}, "n": 1, "subgroup": [0, 2]}
    _, first = run_cli(tmp_path, job)
    _, second = run_cli(tmp_path, job)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_field_env_override(tmp_path, monkeypatch):
    job_path = tmp_path / "job.json"
    job_path.write_text(
        json.dumps({"command": "hopf", "group": {"kind": "cyclic", "n": 2}})
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cendlab.cli", "hopf", "--input", str(job_path), "--summary"],
        capture_output=True,
        text=True,
        env=child_env(CENDLAB_FIELD="cyclotomic:4"),
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_irreducible_non_closed_generators_exit_2(tmp_path):
    # C(C2, chi) for a chi that fails representative independence: the
    # span is homogeneous and dense but not closed under the products
    gens = [[{"g": 0, "w": 0, "matrix": [["1"]]}, {"g": 0, "w": 1, "matrix": [["-1"]]}],
            [{"g": 1, "w": 0, "matrix": [["1"]]}, {"g": 1, "w": 1, "matrix": [["1"]]}]]
    proc, report = run_cli(
        tmp_path,
        {
            "command": "irreducible",
            "group": {"kind": "cyclic", "n": 2},
            "n": 1,
            "generators": gens,
        },
    )
    assert proc.returncode == 2
    assert report is None
    assert "input error: span is not a subalgebra" in proc.stderr


def test_classify_non_closed_generators_exit_2(tmp_path):
    # the same span given to classify: a grading defect stays an input
    # error, not the broken invariant of exit 3
    gens = [[{"g": 0, "w": 0, "matrix": [["1"]]}, {"g": 0, "w": 1, "matrix": [["-1"]]}],
            [{"g": 1, "w": 0, "matrix": [["1"]]}, {"g": 1, "w": 1, "matrix": [["1"]]}]]
    proc, report = run_cli(
        tmp_path,
        {"command": "classify", "group": {"kind": "cyclic", "n": 2}, "n": 1, "generators": gens},
    )
    assert proc.returncode == 2
    assert report is None
    assert "input error: span is not a subalgebra" in proc.stderr


def test_every_manifest_id_is_emitted():
    from cendlab.checks import CHECK_MANIFEST
    from cendlab.cli import run_job

    c2 = {"kind": "cyclic", "n": 2}
    c4 = {"kind": "cyclic", "n": 4}
    unit = [[{"g": 0, "w": 0, "matrix": [["1"]]}]]
    reducible = [[{"g": g, "w": 0, "matrix": [["1"]]}] for g in range(2)]
    bad_chi = [["1"] * 4 for _ in range(4)]
    bad_chi[1][2] = "-1"
    jobs = [
        {"command": "axioms", "group": c2, "n": 1},
        {"command": "hopf", "group": c2},
        {"command": "phi", "group": c2, "n": 1},
        {"command": "wn", "group": c2, "n": 1},
        {"command": "irreducible", "group": c2, "n": 1, "generators": reducible},
        {"command": "ideal", "group": c2, "n": 1, "side": "left", "generators": unit},
        {"command": "ideal", "group": c2, "n": 1, "side": "right", "generators": unit},
        {"command": "simple", "group": {"kind": "cyclic", "n": 3},
         "gset": {"kind": "trivial", "size": 2}, "n": 1},
        {"command": "classify", "group": c4, "n": 1, "subgroup": [0, 2]},
        {"command": "classify", "group": c4, "n": 1, "subgroup": [0, 2],
         "chi": {"values": bad_chi}},
        {"command": "weyl", "budget": 6, "degree": 2},
        {"command": "operad", "max_m": 6, "trials": 10},
    ]
    emitted = {check["id"] for job in jobs for check in run_job(job)["checks"]}
    assert emitted == set(CHECK_MANIFEST)


def test_phi_broken_invariance_is_a_failed_check_not_an_input_error(tmp_path, monkeypatch):
    # a valid job whose operator families the invariance check rejects: the
    # failure belongs to the program, so it is reported as failed checks
    # with their witnesses and exit 1, never as an input error
    import cendlab.workbench
    from cendlab.cli import main

    broken = {"g": 1, "w": 0}
    monkeypatch.setattr(cendlab.workbench, "check_Tinvariance", lambda a: (False, broken))
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({"command": "phi", "group": {"kind": "cyclic", "n": 2}, "n": 1}))
    out_path = tmp_path / "report.json"
    assert main(["phi", "--input", str(job_path), "--output", str(out_path)]) == 1
    report = json.loads(out_path.read_text())
    checks = {c["id"]: c for c in report["checks"]}
    element = {"g": 0, "w": 0, "matrix": [["1"]]}
    assert not checks["phi.roundtrip"]["passed"]
    assert checks["phi.roundtrip"]["detail"] == {"element": [element], "not_invariant": broken}
    assert not checks["phi.transport"]["passed"]
    detail = checks["phi.transport"]["detail"]
    assert detail["not_invariant"] == broken
    assert set(detail) == {"a", "b", "g", "not_invariant"}
    assert not report["passed"]


def test_product_law_is_compared_with_the_sweedler_product(tmp_path, monkeypatch):
    # op.product-law takes its right side from the Sweedler expansion, so a
    # wrong one fails that check alone, while the transport (against
    # diff_product) still passes
    import cendlab.cli

    real = cendlab.cli.diff_product_sweedler
    monkeypatch.setattr(cendlab.cli, "diff_product_sweedler", lambda a, b, g: real(a, b, g) + a)
    code, report = run_main_on_golden(tmp_path, "phi_c2_n2")
    assert code == 1
    assert failed_checks(report) == ["op.product-law"]


@pytest.mark.parametrize("fake, defect", [
    ([["1", "1"]], "certificate is not invariant under Gamma_0"),
    ([["1", "0"], ["0", "1"]], "certificate is all of M"),
], ids=["non-invariant", "full"])
def test_irreducible_broken_certificate_fails_the_report(tmp_path, monkeypatch, fake, defect):
    # the certificate of a reducible span is checked against its definition,
    # so a wrong one fails the report (exit 1) with the defect as detail
    import cendlab.workbench
    from cendlab.cli import main
    from cendlab.fields import QQ
    from cendlab.linalg import SubspaceBasis

    rows = [[QQ.scalar(int(x)) for x in row] for row in fake]
    monkeypatch.setattr(
        cendlab.workbench, "invariant_submodule_search", lambda C: SubspaceBasis.from_vectors(2, rows)
    )
    gens = [[{"g": g, "w": 0, "matrix": [["1"]]}] for g in range(2)]
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({
        "command": "irreducible", "group": {"kind": "cyclic", "n": 2}, "n": 1, "generators": gens,
    }))
    out_path = tmp_path / "report.json"
    assert main(["irreducible", "--input", str(job_path), "--output", str(out_path)]) == 1
    report = json.loads(out_path.read_text())
    checks = {c["id"]: c for c in report["checks"]}
    assert checks["irred.enrich-test"]["passed"]
    assert not checks["irred.certificate"]["passed"]
    assert checks["irred.certificate"]["detail"] == defect
    assert report["result"]["certificate"] == fake
    assert not report["passed"]


def run_main_on_golden(tmp_path, name):
    """Run ``cli.main`` in this process on a golden job, so that a test can
    patch what the CLI calls; returns the exit code and the report."""
    from pathlib import Path

    from cendlab.cli import main

    job = json.loads((Path(__file__).parent / "golden" / f"{name}.job.json").read_text())
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    out_path = tmp_path / "report.json"
    code = main([job["command"], "--input", str(job_path), "--output", str(out_path)])
    return code, json.loads(out_path.read_text())


def failed_checks(report):
    return [c["id"] for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("name, enriched_dim", [
    ("irreducible_irreducible", lambda dim: dim - 1),
    ("irreducible_reducible", lambda dim: 0),
], ids=["irreducible-but-proper", "below-the-span"])
def test_enrich_test_compares_the_verdict_with_the_enriched_dimension(
    tmp_path, monkeypatch, name, enriched_dim
):
    # an irreducible verdict with a proper enrichment, or an enriched
    # dimension below that of the span, fails irred.enrich-test
    import cendlab.cli

    real = cendlab.cli.is_irreducible

    def broken(span):
        res = real(span)
        res.enriched_dim = enriched_dim(res.enriched_dim)
        return res

    monkeypatch.setattr(cendlab.cli, "is_irreducible", broken)
    code, report = run_main_on_golden(tmp_path, name)
    assert code == 1
    assert failed_checks(report) == ["irred.enrich-test"]


def test_essential_check_compares_the_two_criteria(tmp_path, monkeypatch):
    # criteria that disagree fail ideal.essential and are both reported
    import cendlab.cli

    real = cendlab.cli.is_essential

    def disagreeing(amb, b0):
        by_annihilator, by_whole_ring = real(amb, b0)
        return by_annihilator, not by_whole_ring

    monkeypatch.setattr(cendlab.cli, "is_essential", disagreeing)
    code, report = run_main_on_golden(tmp_path, "ideal_left_essential")
    assert code == 1
    assert failed_checks(report) == ["ideal.essential"]
    detail = report["checks"][-1]["detail"]
    assert detail == {"essential": True, "by_whole_ring": False}


@pytest.mark.parametrize("breakage", ["chi-at-representative", "not-a-subgroup"])
def test_canonical_check_reads_the_subgroup_and_chi(tmp_path, monkeypatch, breakage):
    # classify.canonical fails when canonicalize returns a subset that is no
    # subgroup, or a chi that is not 1 at a coset representative
    import cendlab.cli
    from cendlab.classify import ChiFunction

    real = cendlab.cli.canonicalize

    def broken(span, decomp=None):
        subgroup, chi, sigma = real(span, decomp)
        if breakage == "not-a-subgroup":
            return (0, 1), chi, sigma
        values = [list(row) for row in chi.values]
        values[1][0] = values[1][0] + values[1][0]
        return subgroup, ChiFunction(chi.group, values), sigma

    monkeypatch.setattr(cendlab.cli, "canonicalize", broken)
    code, report = run_main_on_golden(tmp_path, "classify_subgroup_c4")
    assert code == 1
    assert failed_checks(report) == ["classify.canonical"]
    assert report["result"] == {"verdict": "not canonical"}


def test_build_check_reads_the_enriched_dimension(tmp_path, monkeypatch):
    # an analysis whose enrichment is proper fails classify.build, and the
    # job stops before canonicalize
    import cendlab.cli

    real = cendlab.cli.analyze_Se

    def broken(span):
        decomp = real(span)
        key = min(decomp.ranks)
        decomp.ranks[key] -= 1
        return decomp

    monkeypatch.setattr(cendlab.cli, "analyze_Se", broken)
    code, report = run_main_on_golden(tmp_path, "classify_subgroup_c4")
    assert code == 1
    assert failed_checks(report) == ["classify.build"]
    # C4 at n = 1: a span of dimension 8 in an algebra of dimension 16
    assert report["checks"][-1]["detail"] == {"dim": 8, "enriched_dim": 15}
    assert report["result"] == {"verdict": "reducible input"}


def test_broken_invariant_of_canonicalize_exits_3(tmp_path, monkeypatch, capsys):
    # analyze_Se has accepted the span, so canonicalize failing on it is a
    # broken internal invariant: exit 3 with the invariant named, no report,
    # and not the input error of exit 2
    from pathlib import Path

    import cendlab.classify
    from cendlab.cli import main

    def broken(decomp):
        raise cendlab.classify.NonScalarError("planted")

    monkeypatch.setattr(cendlab.classify, "extract_chi", broken)
    job_path = Path(__file__).parent / "golden" / "classify_subgroup_c4.job.json"
    out_path = tmp_path / "report.json"
    code = main(["classify", "--input", str(job_path), "--output", str(out_path)])
    assert code == 3
    assert capsys.readouterr().err == "internal error: classify.canonical: planted\n"
    assert not out_path.exists()


def test_broken_invariant_of_is_essential_exits_3(tmp_path, monkeypatch, capsys):
    # ideal_shape has returned B0 for a left ideal, so is_essential refusing
    # it as no left ideal of M_n(A) is a broken invariant: exit 3 with the
    # invariant named and no report, not the input error of exit 2
    from pathlib import Path

    import cendlab.workbench
    from cendlab.cli import main

    monkeypatch.setattr(cendlab.workbench, "is_mn_a_left_ideal", lambda amb, basis: False)
    job_path = Path(__file__).parent / "golden" / "ideal_left_essential.job.json"
    out_path = tmp_path / "report.json"
    code = main(["ideal", "--input", str(job_path), "--output", str(out_path)])
    assert code == 3
    assert capsys.readouterr().err == (
        "internal error: ideal.essential: B0 is not a left ideal of M_n(A)\n"
    )
    assert not out_path.exists()


def test_broken_invariant_of_wn_span_exits_3(tmp_path, monkeypatch, capsys):
    # a wn job gives no span: cend(amb) is closed by construction, so
    # wn_span refusing it is a broken invariant, exit 3 with no report
    from pathlib import Path

    import cendlab.workbench
    from cendlab.cli import main

    witness = {"kind": "product", "left": 0, "right": 0, "gamma": 0}
    monkeypatch.setattr(cendlab.workbench, "subalgebra_closure_witness", lambda C: witness)
    job_path = Path(__file__).parent / "golden" / "wn_c4_n2.job.json"
    out_path = tmp_path / "report.json"
    code = main(["wn", "--input", str(job_path), "--output", str(out_path)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"internal error: wn.span: span is not closed under the products ({witness})\n"
    )
    assert not out_path.exists()


def _cut_block_3(s_e, n2):
    # the rows of class {1, 3} for G1 = {0, 2} in C4 lose their entries at
    # point 3, so their support is {1} and point 3 lies in no class
    return [{c: a for c, a in row.items() if c // n2 != 3} for row in s_e.srows]


def _drop_last_row(s_e, n2):
    # the class {1, 3} keeps n^2 - 1 = 3 of its rows
    return list(s_e.srows[:-1])


@pytest.mark.parametrize("name, breakage, message", [
    ("classify_subgroup_c4", _cut_block_3, "kernel classes are not the subgroup cosets"),
    ("classify_generators_c4_n2", _drop_last_row,
     "block component over class 1 has dimension 3, not n^2"),
], ids=["classes-not-cosets", "short-class-component"])
def test_broken_invariant_of_analyze_exits_3(
    tmp_path, monkeypatch, capsys, name, breakage, message
):
    # past the grading and the rank check, analyze_Se refuses only on a
    # broken invariant: exit 3 with the invariant named and no report.  The
    # identity component the grading hands over is corrupted
    from pathlib import Path

    import cendlab.classify
    from cendlab.cli import main
    from cendlab.linalg import SubspaceBasis

    real = cendlab.classify.grading

    def broken(span):
        decomp = real(span)
        s_e = decomp.components[0]
        n2 = span.ambient.n * span.ambient.n
        decomp.components[0] = SubspaceBasis.from_vectors(s_e.ambient, breakage(s_e, n2))
        return decomp

    monkeypatch.setattr(cendlab.classify, "grading", broken)
    job_path = Path(__file__).parent / "golden" / f"{name}.job.json"
    out_path = tmp_path / "report.json"
    code = main(["classify", "--input", str(job_path), "--output", str(out_path)])
    assert code == 3
    assert capsys.readouterr().err == f"internal error: classify.analyze: {message}\n"
    assert not out_path.exists()


CANONICALIZED_GOLDENS = [
    "classify_subgroup_c4",
    "classify_cyclotomic_c4",
    "classify_cyclotomic_subgroup_c4",
    "classify_generators_c4_n2",
    "classify_generators_s3",
]


@pytest.mark.parametrize("name", CANONICALIZED_GOLDENS)
def test_canonicalize_eliminates_only_inside_components(tmp_path, monkeypatch, name):
    # canonicalize straightens each first-slot component on its own: no
    # elimination in the whole algebra, no whole-span image and no second
    # grading of it into components
    import cendlab.classify
    import cendlab.cli
    import cendlab.linalg
    import cendlab.workbench

    inside = []
    algebra_dims = []
    ambients = []
    forbidden = []
    real_canonicalize = cendlab.cli.canonicalize
    real_init = cendlab.linalg.EchelonBuilder.__init__

    def canonicalize(span, decomp=None):
        inside.append(True)
        algebra_dims.append(span.ambient.dim)
        try:
            return real_canonicalize(span, decomp)
        finally:
            inside.pop()

    def init(self, ambient):
        if inside:
            ambients.append(ambient)
        real_init(self, ambient)

    def watched(label, real):
        def call(*args):
            if inside:
                forbidden.append(label)
            return real(*args)

        return call

    monkeypatch.setattr(cendlab.cli, "canonicalize", canonicalize)
    monkeypatch.setattr(cendlab.linalg.EchelonBuilder, "__init__", init)
    monkeypatch.setattr(
        cendlab.classify,
        "apply_automorphism",
        watched("apply_automorphism", cendlab.classify.apply_automorphism),
    )
    # the image is not graded again: grading is where a span is split into
    # its first-slot components, and classify holds its own binding of it
    regrade = watched("grading", cendlab.workbench.grading)
    monkeypatch.setattr(cendlab.workbench, "grading", regrade)
    monkeypatch.setattr(cendlab.classify, "grading", regrade)
    code, report = run_main_on_golden(tmp_path, name)
    assert code == 0 and "subgroup" in report["result"]
    assert len(algebra_dims) == 1 and ambients
    assert algebra_dims[0] not in ambients
    assert forbidden == []


@pytest.mark.parametrize("name", CANONICALIZED_GOLDENS)
def test_classify_solves_no_null_space(tmp_path, monkeypatch, name):
    # the classes, the class components and the conjugators are read off
    # rows and columns the classification already holds; the report is the
    # golden one
    from pathlib import Path

    import cendlab.classify
    import cendlab.cli
    import cendlab.linalg

    inside = []
    solved = []
    real_run = cendlab.cli.RUNNERS["classify"]

    def run_classify(job, report):
        inside.append(True)
        try:
            return real_run(job, report)
        finally:
            inside.pop()

    def watched(label, real):
        def call(*args):
            if inside:
                solved.append(label)
            return real(*args)

        return call

    monkeypatch.setitem(cendlab.cli.RUNNERS, "classify", run_classify)
    for label in ("nullspace", "sparse_nullspace"):
        wrapper = watched(label, getattr(cendlab.linalg, label))
        monkeypatch.setattr(cendlab.linalg, label, wrapper)
        # also any binding of its own that classify holds
        monkeypatch.setattr(cendlab.classify, label, wrapper, raising=False)
    code, report = run_main_on_golden(tmp_path, name)
    golden = Path(__file__).parent / "golden" / f"{name}.report.json"
    assert code == 0 and report == json.loads(golden.read_text())
    assert solved == []


@pytest.mark.parametrize("name", ["classify_subgroup_c4", "classify_cyclotomic_c4"])
def test_classify_grades_the_span_once(tmp_path, monkeypatch, name):
    # classify.build reads the decomposition canonicalize uses; the span is
    # not graded a second time
    import cendlab.classify

    calls = []
    real = cendlab.classify.grading

    def counted(span):
        calls.append(span.dim)
        return real(span)

    monkeypatch.setattr(cendlab.classify, "grading", counted)
    code, report = run_main_on_golden(tmp_path, name)
    assert code == 0
    assert len(calls) == 1
