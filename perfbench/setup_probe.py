"""One fresh start of the benchmark's set-up, timed by ``run.py``.

    python3 perfbench/setup_probe.py <job list .json>

Imports cendlab from the checkout's ``src``, loads the job list and
builds every group it names, then prints "ready" and the CPU seconds the
process has used since it started, interpreter start-up included.
"""

import json
import sys
from pathlib import Path
from time import process_time

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import cendlab.cli  # noqa: E402  (the whole CLI, as a job needs it)
from cendlab.groups import make_group  # noqa: E402

if Path(cendlab.__file__).resolve().parent != SRC / "cendlab":
    sys.exit(f"imported cendlab from {cendlab.__file__}, not from {SRC}")
with open(sys.argv[1], encoding="utf-8") as fh:
    entries = json.load(fh)
specs = {json.dumps(entry["job"]["group"], sort_keys=True) for entry in entries}
groups = [make_group(json.loads(spec)) for spec in sorted(specs)]
print("ready", repr(process_time()), flush=True)
