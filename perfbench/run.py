#!/usr/bin/env python3
"""End-to-end benchmark of cendlab CLI jobs, with a traced per-layer run.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; cendlab is imported from its ``src``.
One process, one thread, a closed loop with a single caller: each job of
the workload's seeded list goes through ``cendlab.cli.run_job`` and the
``json.dumps`` of the report that ``cli.main`` prints, and the next job
starts when it returns.  The list runs in whole rounds until ``--seconds``
have passed (at least one round); an untimed warm-up comes first and the
independent checks of ``oracle.py`` come after the timed rounds.

--trace 0 prints the end-to-end metrics; --trace 1 times one untraced
round, then one round with spans around the layer functions, and prints
the per-layer metrics.  The last line of standard output is the JSON
result; details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time, thread_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Fresh interpreters started per run to time set-up; their median is setup_s.
SETUP_STARTS = 9
# A bare start: the interpreter, site and the stdlib modules cendlab loads
# first, without cendlab.  It is the reference that set-up is rescaled by.
BARE_START = "import fractions, json, time; print('ready', repr(time.process_time()))"
# CPU seconds of one BARE_START on an uncontended vCPU of the machine the
# README figures come from.
REFERENCE_START_S = 0.040
# CPU seconds of one reference_kernel() run on an uncontended vCPU of the
# machine the README figures come from; every job time is rescaled to this
# speed of the reference kernel.
REFERENCE_S = 0.003
# CPU seconds between two reference-kernel runs inside a job; each run costs
# about REFERENCE_S, about 1% of the job.
SAMPLE_EVERY = 0.25
# CENDLAB_FIELD would override the field of every job, CENDLAB_PURE the
# scalar backend; a run never inherits them.
ISOLATED = ("CENDLAB_FIELD", "CENDLAB_PURE")

sys.path.insert(0, str(HERE))
import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402


def report_json(report):
    return json.dumps(report, sort_keys=True, indent=2)


def reference_kernel():
    """Exact elimination of a fixed 10 x 10 Fraction matrix: the kind of
    work the program's hot paths do, with no cendlab code in it."""
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(10)]
            for i in range(10)]
    for c in range(10):
        p = rows[c][c]
        if p:
            rows[c] = [x / p for x in rows[c]]
            for r in range(10):
                f = rows[r][c]
                if r != c and f:
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows


def reference_seconds():
    """Median CPU seconds of three reference-kernel runs: how fast the
    vCPU runs right now."""
    samples = []
    for _ in range(3):
        t0 = process_time()
        reference_kernel()
        samples.append(process_time() - t0)
    return statistics.median(samples)


def pin_quietest():
    """Pin this process, and the children it starts, to the allowed CPU on
    which the reference kernel runs fastest now; returns that CPU."""
    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        reference_kernel()
        speed[cpu] = min(reference_seconds() for _ in range(3))
    cpu = min(speed, key=speed.get)
    os.sched_setaffinity(0, {cpu})
    return cpu


def scaled(seconds, refs):
    """CPU seconds rescaled to the reference speed.  The reference runs are
    spread evenly over the CPU time they cover, so the work done is that
    time over their harmonic mean; runs slower than 1.5 times the median
    (a collection or a preemption hit them) are dropped first."""
    typical = statistics.median(refs)
    kept = [r for r in refs if r <= 1.5 * typical]
    return seconds * REFERENCE_S * sum(1 / r for r in kept) / len(kept)


class SpeedSampler:
    """Runs the reference kernel once every SAMPLE_EVERY CPU seconds of a
    job (on SIGPROF), so that a long job is rescaled by the speed of the
    vCPU while it ran, not only before and after it.  ``spent`` is the CPU
    time of those runs, which the caller takes off the job's time."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        # the thread clock: while ITIMER_PROF is armed, the process clock
        # read alone advanced in 4 ms ticks here
        t0 = thread_time()
        reference_kernel()
        t = thread_time() - t0
        self.samples.append(t)
        self.spent += t

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return False


def child_cpu_seconds(args):
    """CPU seconds a fresh interpreter reports it has used when it is
    ready (its last words are "ready <seconds>")."""
    proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE, text=True, check=False)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode} before it was ready")
    return float(words[1])


def time_setup(jobs_path):
    """SETUP_STARTS set-up probes, each in CPU seconds rescaled to the
    reference speed of a bare start: times REFERENCE_START_S over the mean
    of the bare starts just before and after it.  Start-up is page faults,
    file reads and unmarshalling, which neighbours on the host slow down
    more than they slow the reference kernel; a bare start slows with them."""
    probe = [str(HERE / "setup_probe.py"), str(jobs_path)]
    bare = [child_cpu_seconds(["-c", BARE_START])]
    samples = []
    for _ in range(SETUP_STARTS):
        seconds = child_cpu_seconds(probe)
        bare.append(child_cpu_seconds(["-c", BARE_START]))
        samples.append(seconds * REFERENCE_START_S * 2 / (bare[-2] + bare[-1]))
    return samples


def run_round(cli, entries, tracer=None):
    """One pass over the list: per-job CPU seconds, report texts (None for
    a job that raised), and per job the reference times measured before,
    during (untraced rounds only) and after it."""
    dump = report_json if tracer is None else tracer.span("cli.report_json", report_json)
    sampler = SpeedSampler()
    times, texts, refs = [], [], []
    before = reference_seconds()
    for k, entry in enumerate(entries):
        if tracer is not None:
            tracer.job_id = k
        gc.collect()
        # CPU seconds: for this single-threaded loop without I/O they equal
        # the wall time on an unshared machine, but leave out the time a
        # hypervisor runs other guests on the vCPU (steal time)
        t0 = process_time()
        try:
            if tracer is None:
                with sampler:
                    text = dump(cli.run_job(entry["job"]))
            else:
                text = dump(cli.run_job(entry["job"]))
        except Exception as exc:  # a job that raises is counted as failed
            print(f"{entry['id']}: {type(exc).__name__}: {exc}", file=sys.stderr)
            text = None
        times.append(process_time() - t0 - sampler.spent)
        texts.append(text)
        after = reference_seconds()
        refs.append([before, *sampler.samples, after])
        before = after
    return times, texts, refs


def scaled_round(times, refs):
    return [scaled(t, r) for t, r in zip(times, refs)]


def judge(entries, rounds_texts):
    """(failed attempts, wrong answers, problems).  An attempt fails when
    its job raised or its report is wrong; a report is wrong when the
    independent checks reject it or it differs from the job's report in
    the first round."""
    failed = wrong = 0
    problems = {}
    verdicts = {}
    for texts in rounds_texts:
        for k, (entry, text) in enumerate(zip(entries, texts)):
            if text is None:
                failed += 1
                problems.setdefault(entry["id"], ["raised"])
                continue
            if text != rounds_texts[0][k]:
                found = ["report differs between rounds"]
            else:
                if k not in verdicts:
                    verdicts[k] = oracle.check(entry, json.loads(text))
                found = verdicts[k]
            if found:
                failed += 1
                wrong += 1
                problems.setdefault(entry["id"], found)
    return failed, wrong, problems


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(entries, rounds_times, setup_samples):
    per_job = [statistics.median(ts) for ts in zip(*rounds_times)]
    attempts = sum(len(ts) for ts in rounds_times)
    top = next(k for k, e in enumerate(entries) if e["top"])
    return {
        "jobs_per_s": (attempts / sum(map(sum, rounds_times)), "1/s"),
        "job_geomean_s": (geomean(per_job), "s"),
        "top_job_s": (per_job[top], "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, per_job


def traced_rounds(cli, entries, info):
    """One untraced round, then one traced round; returns both rounds'
    times and texts and the per-layer metrics, and writes the spans."""
    untraced_times, untraced_texts, untraced_refs = run_round(cli, entries)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_times, traced_texts, traced_refs = run_round(cli, entries, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{info['workload']}.json", info["jobs"])
    layer = tracer.metrics()
    untraced = sum(scaled_round(untraced_times, untraced_refs))
    traced = sum(scaled_round(traced_times, traced_refs))
    info.update(untraced_s=untraced, traced_s=traced, spans=len(tracer.name),
                cpu_s=[untraced_times, traced_times], refs_s=[untraced_refs, traced_refs])
    print(
        f"one round, scaled CPU seconds: untraced {untraced:.3f} s, traced {traced:.3f} s, "
        f"tracing overhead {100 * (traced / untraced - 1):.1f}%",
        file=sys.stderr,
    )
    metrics = {}
    for name, unit, _ in spans.metric_specs():
        metrics[name] = (layer[name], unit)
        if name.endswith(".calls") and layer[name]:
            base = name[: -len(".calls")]
            print(f"  {base:34s} {layer[name]:>9d} calls {layer[base + '.self_s']:9.4f} s",
                  file=sys.stderr)
    return [untraced_times, traced_times], [untraced_texts, traced_texts], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "cendlab" / "__init__.py").is_file():
        print(f"perfbench: no cendlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in ISOLATED:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import cendlab
    from cendlab import cli
    from cendlab.fields import RATIONAL_BACKEND

    if Path(cendlab.__file__).resolve().parent != SRC / "cendlab":
        print(f"perfbench: imported cendlab from {cendlab.__file__}", file=sys.stderr)
        return 2

    entries = jobs.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    jobs_path = OUT / f"jobs-{tag}.json"
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh)

    info = {"cpu": pin_quietest()}
    setup_samples = [] if args.trace else time_setup(jobs_path)

    seen = set()
    for entry in entries:  # warm-up: the first job of each command, untimed
        if entry["job"]["command"] not in seen:
            seen.add(entry["job"]["command"])
            run_round(cli, [entry])

    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": RATIONAL_BACKEND, "python": platform.python_version(),
        "nproc": os.cpu_count(), "jobs": [e["id"] for e in entries],
    })
    if args.trace:
        rounds_times, rounds_texts, metrics = traced_rounds(cli, entries, info)
    else:
        rounds_times, rounds_texts, cpu_s, refs_s = [], [], [], []
        t0 = perf_counter()
        while not rounds_times or perf_counter() - t0 < args.seconds:
            times, texts, refs = run_round(cli, entries)
            rounds_times.append(scaled_round(times, refs))
            rounds_texts.append(texts)
            cpu_s.append(times)
            refs_s.append(refs)
        metrics, per_job = end_to_end(entries, rounds_times, setup_samples)
        info.update(rounds_s=rounds_times, cpu_s=cpu_s, refs_s=refs_s,
                    setup_samples=setup_samples, job_s=dict(zip(info["jobs"], per_job)))

    failed, wrong, problems = judge(entries, rounds_texts)
    for job_id, found in problems.items():
        print(f"{job_id}: {'; '.join(found)}", file=sys.stderr)
    result = {
        "correct": wrong == 0,
        "attempted": sum(len(ts) for ts in rounds_times),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    info.update(problems=problems, result=result)
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
