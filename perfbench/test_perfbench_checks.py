"""The benchmark's own tests: each independent checker accepts the
program's real report and rejects a wrong one, the benchmark's groups are
numbered as the program numbers them, tracing counts repeat exactly, and
the rescaling of CPU seconds weighs the reference runs as documented.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from cendlab import cli  # noqa: E402
from cendlab.groups import make_group  # noqa: E402


def _entry(workload, prefix):
    return next(e for e in jobs.build(workload, 0) if e["id"].startswith(prefix))


def _report(entry):
    return json.loads(json.dumps(cli.run_job(entry["job"]), sort_keys=True, indent=2))


@pytest.fixture(scope="module")
def reports():
    picks = {
        "classify": ("decide-qq", "classify:C2xC2:n1"),
        "irreducible": ("decide-qq", "irreducible:C4:n2"),
        "ideal": ("decide-qq", "ideal:S3:n1"),
        "wn": ("transport", "wn:C4:n2"),
        "phi": ("transport", "phi:C4:n1"),
        "cyc": ("decide-cyc", "classify:C4:n1"),
    }
    out = {}
    for key, (workload, prefix) in picks.items():
        entry = _entry(workload, prefix)
        out[key] = (entry, _report(entry))
    return out


def test_real_reports_pass(reports):
    for entry, report in reports.values():
        assert oracle.check(entry, report) == [], entry["id"]


@pytest.mark.parametrize("key", ["classify", "cyc"])
def test_mutated_chi_entry_is_rejected(reports, key):
    entry, report = reports[key]
    F = exact.FIELDS[entry["expect"]["field"]]
    for g, gamma in [(1, 1), (1, 0)]:
        bad = copy.deepcopy(report)
        values = bad["result"]["chi"]["values"]
        values[g][gamma] = F.to_json(-F.from_json(values[g][gamma]))
        assert oracle.check(entry, bad), (g, gamma)


def test_mutated_conjugator_is_rejected(reports):
    entry, report = reports["classify"]
    F = exact.FIELDS["QQ"]
    bad = copy.deepcopy(report)
    u = bad["result"]["sigma_conjugators"][1]
    u[0][0] = F.to_json(7 * F.from_json(u[0][0]))
    assert oracle.check(entry, bad)


def test_non_invariant_certificate_is_rejected(reports):
    entry, report = reports["irreducible"]
    N = len(report["result"]["certificate"][0])
    bad = copy.deepcopy(report)
    bad["result"]["certificate"] = [["1" if k == 1 else "0" for k in range(N)]]
    assert oracle.check(entry, bad)
    bad["result"]["certificate"] = [["1" if j == k else "0" for k in range(N)] for j in range(N)]
    assert oracle.check(entry, bad)


@pytest.mark.parametrize(
    "key, field", [("wn", "wn_dim"), ("phi", "basis_size"), ("ideal", "b0_dim"), ("ideal", "ideal_dim")]
)
def test_dimension_off_by_one_is_rejected(reports, key, field):
    entry, report = reports[key]
    bad = copy.deepcopy(report)
    bad["result"][field] += 1
    assert oracle.check(entry, bad)


def test_failed_report_check_is_rejected(reports):
    entry, report = reports["wn"]
    bad = copy.deepcopy(report)
    bad["checks"][0]["passed"] = False
    assert oracle.check(entry, bad)


def test_groups_match_the_program_numbering():
    for build in exact.GROUPS.values():
        group = build()
        assert [list(r) for r in make_group(group.spec).table] == group.table


def test_trace_counts_repeat_and_wrappers_come_off():
    entries = [_entry("decide-cyc", "irreducible:C4:n2"), _entry("decide-qq", "ideal:S3:n1")]
    original = cli.run_job
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            for k, entry in enumerate(entries):
                tracer.job_id = k
                tracer.span("cli.report_json", json.dumps)(cli.run_job(entry["job"]))
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.run_job.calls"] == 2
    assert counts[0]["fields.cyc_mul.calls"] > 0
    assert cli.run_job is original
    names = {name for name, _, _ in spans.metric_specs()}
    assert set(metrics) == names


def test_rescaling_uses_the_harmonic_mean_and_drops_slow_outliers():
    import run

    ref = run.REFERENCE_S
    assert run.scaled(1.0, [ref, ref]) == pytest.approx(1.0)
    # half the CPU time at half speed: the work is 0.5 + 0.25 reference seconds
    assert run.scaled(1.0, [ref, 2 * ref, ref, 2 * ref]) == pytest.approx(0.75)
    # a kernel run that a collection hit does not count
    assert run.scaled(1.0, [ref, ref, ref, 10 * ref]) == pytest.approx(1.0)
