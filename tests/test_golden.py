"""Golden CLI reports: each ``tests/golden/<name>.job.json`` must give the
report stored next to it, byte for byte, as ``cli.main`` prints it."""

import json
from pathlib import Path

import pytest

from cendlab.cli import run_job

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(p.name[: -len(".job.json")] for p in GOLDEN.glob("*.job.json"))


def test_golden_set_is_complete():
    assert len(NAMES) == 14
    assert all((GOLDEN / f"{name}.report.json").exists() for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_golden_report(name, monkeypatch):
    monkeypatch.delenv("CENDLAB_FIELD", raising=False)
    job = json.loads((GOLDEN / f"{name}.job.json").read_text())
    expect = (GOLDEN / f"{name}.report.json").read_text()
    assert json.dumps(run_job(job), sort_keys=True, indent=2) + "\n" == expect
