"""cyclespec benchmark: one workload, closed loop, one client, in-process.

    python3 perfbench/run.py --workload construct|search|verify \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The client calls ``cyclespec.cli.main(argv)`` on the workload's seeded
sequence of invocations, one after another, capturing stdout, stderr and
the exit code.  Every output is checked after the timed loop.

All times are wall seconds.  ``--seconds`` sets the work rather than the
wall time: the client runs the number of whole blocks (see workloads.py)
that takes about that long on the reference host, so a slow spell of a
shared host lengthens a run but never changes its mix or sample count.

``--trace 0`` prints the end-to-end metrics: set-up time (the median of
fresh interpreters importing ``cyclespec.cli``, taken between invocations
all through the run), invocations per second of client time, the share of
invocations that succeed, and the peak resident memory of this process.
The median invocation time and the tail (the highest percentile with at
least ten invocations beyond it) go into the details.  ``--trace 1`` runs
each invocation untraced and then traced and prints the per-layer metrics
of tracing.py from the traced runs.

The last stdout line is the result object; the line before it gives the
details (seed, mix and the exact invocations, sample counts, latency,
failures by reason, Python version, git sha, nproc).  Both also go to
``perfbench/results/``, with the spans of a traced run.  An invocation
fails when it raises, exits with another code than its check expects, or
prints output that fails its check.  ``correct`` is false when any
invocation fails, except that the known graph6 defect (exit 2 on graph6
with more than 62 vertices) counts as failed only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 21
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import cyclespec.cli; "
                "print(time.perf_counter() - t)")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[int, float]:
    """The highest integer percentile with at least ``beyond`` samples
    ranked above it (nearest-rank), and its value.  With too few samples
    this is the maximum, reported as percentile 100."""
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in range(99, 0, -1):
        rank = max(1, math.ceil(percentile * count / 100))
        if count - rank >= beyond:
            return percentile, ordered[rank - 1]
    return 100, ordered[-1]


def measure_setup(repeats: int) -> list[float]:
    """Wall seconds for fresh interpreters to import ``cyclespec.cli``."""
    probe = [sys.executable, "-s", "-E", "-c", IMPORT_PROBE, str(SRC)]
    return [float(subprocess.run(probe, check=True, capture_output=True, text=True,
                                 timeout=60).stdout)
            for _ in range(repeats)]


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def invoke(cli, argv: list[str]) -> tuple[float, int | None, str, str, str | None]:
    """One closed-loop call: (seconds, exit code, stdout, stderr, raised)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # any crash is a failed, incorrect invocation
            code, raised = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue(), raised


def make_workload(name: str, workdir: Path):
    reference = workloads.load_reference()
    if name == "construct":
        return workloads.Construct(reference)
    if name == "search":
        return workloads.Search()
    return workloads.Verify(reference, workdir)


class Record(NamedTuple):
    op: workloads.Op
    seconds: float     # wall
    code: int | None
    digest: str        # sha256 of stdout
    stderr: str
    raised: str | None
    traced: bool


def judge(workload, records: list[Record], outputs: dict[str, str]) -> list[dict]:
    """The failed invocations, each with its reason and whether it makes
    the run incorrect: all do but the refusals of the known graph6 defect."""
    verdicts = {}
    failed = []
    for index, r in enumerate(records):
        if r.raised is not None:
            reason, wrong = f"raised {r.raised}", True
        elif r.code == 2 and r.op.long_graph6:
            first = r.stderr.strip().splitlines()[0] if r.stderr.strip() else ""
            reason, wrong = f"exit 2: {first}", False
        else:
            key = (r.op, r.code, r.digest)
            if key not in verdicts:
                verdicts[key] = workload.check(r.op, r.code, outputs[r.digest])
            reason, wrong = verdicts[key], True
        if reason is not None:
            failed.append({"op": index, "argv": r.op.argv, "label": r.op.label,
                           "reason": reason, "wrong": wrong})
    return failed


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Measure one workload; returns the result, its details, and a log of
    every invocation, the failed ones, and the spans of a traced run."""
    from cyclespec import cli

    workload = make_workload(name, workdir)
    rng = random.Random(seed)
    tracer = tracing.Tracer()
    records: list[Record] = []
    outputs: dict[str, str] = {}  # one copy of each distinct stdout, by digest
    # A fixed number of blocks, so that a slow spell of the host changes
    # neither the mix nor the sample count.  A traced run takes half of them
    # and runs each invocation twice in a row, untraced and then traced, so
    # that trace.overhead compares the same work at the same host speed.
    blocks = [workload.block(index, rng)
              for index in range(max(1, round(seconds / workload.block_seconds)))]
    if trace:
        blocks = blocks[:max(1, round(len(blocks) / 2))]
    # Set-up probes are spread over the run, so that their median sees the
    # same spells of the host as the invocations; the first import only
    # fills the bytecode cache.
    total = sum(len(ops) for ops in blocks)
    probes = [] if trace else [k * total // SETUP_REPEATS for k in range(SETUP_REPEATS)]
    if probes:
        measure_setup(1)
    setup: list[float] = []
    for op in (op for ops in blocks for op in ops):
        setup += measure_setup(probes.count(len(records)))
        for traced in (False, True) if trace else (False,):
            if traced:
                tracer.install()
            tracer.op = len(records)
            wall, code, out, err, raised = invoke(cli, op.argv)
            if traced:
                tracer.uninstall()
            key = workloads.digest(out)
            outputs.setdefault(key, out)
            records.append(Record(op, wall, code, key, err, raised, traced))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = judge(workload, records, outputs)
    incorrect = sum(f["wrong"] for f in failed)
    failures: dict[str, int] = {}
    for f in failed:
        label = f"{f['label']}: {f['reason']}"
        failures[label] = failures.get(label, 0) + 1
    walls = [r.seconds for r in records if not r.traced]
    untraced_rate = len(walls) / sum(walls)
    percentile, tail = tail_percentile(walls)
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "mix": workload.mix, "blocks": len(blocks), "samples": len(walls),
        "invocations": dict(sorted(Counter(r.op.key for r in records).items())),
        # Printed, not gated: with a few dozen invocations a run, the host's
        # jitter moves these more than the largest bound allows.
        "latency": {"op_p50_s": statistics.median(walls), "op_tail_s": tail,
                    "tail_percentile": percentile},
        "failures": failures,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if trace:
        traced = {i: r for i, r in enumerate(records) if r.traced}
        traced_rate = len(traced) / sum(r.seconds for r in traced.values())
        overhead = 1 - traced_rate / untraced_rate
        # The wrappers may cost at most the measured overhead (or 2 %) of an
        # op, plus a millisecond for timer resolution and the call itself.
        limit = max(overhead, 0.02)
        gaps = tracing.per_op_accounting(tracer.spans, {i: r.seconds for i, r in traced.items()})
        bad = sum(not 0 <= gap <= limit * traced[i].seconds + 1e-3 for i, gap in gaps.items())
        incorrect += bad
        details.update(trace_accounting_failures=bad, traced_samples=len(traced),
                       spans=len(tracer.spans))
        units = {k: unit for k, (unit, _) in tracing.metric_specs().items()}
        values = tracing.layer_metrics(tracer.spans, len(traced), overhead)
    else:
        units = END_TO_END
        values = {"setup_s": statistics.median(setup),
                  "ops_per_s": untraced_rate,
                  "success_rate": (len(records) - len(failed)) / len(records),
                  "peak_rss_mb": peak_rss_mb}
        details["setup_samples"] = len(setup)
    details["incorrect"] = incorrect
    result = {"correct": incorrect == 0, "attempted": len(records), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    log = {"ops": [[" ".join(r.op.argv), r.seconds, r.code, r.traced]
                   for r in records],
           "failed_ops": failed, "spans": tracer.spans if trace else None}
    return result, details, log


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("construct", "search", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclespec" / "cli.py").is_file():
        print(f"error: no cyclespec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        result, details, log = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   Path(workdir))
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = log.pop("spans")
    with open(f"{stem}.json", "w") as handle:
        json.dump({"details": details, "result": result} | log, handle, indent=1)
    if spans is not None:
        with open(f"{stem}-spans.json", "w") as handle:
            json.dump([[s.name, s.start, s.end, s.parent, s.op, s.tag, s.work]
                       for s in spans], handle)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
