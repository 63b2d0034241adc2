"""Run every workload in its own fresh process and print every metric with
its unit and sample count.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

``--trace`` adds a traced run of each workload and prints its per-layer
metrics too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("construct", "search", "verify")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    *_, details, result = done.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def samples(metric: str, details: dict) -> int:
    if metric == "setup_s":
        return details["setup_samples"]
    if metric == "peak_rss_mb":
        return 1
    return details.get("traced_samples", details["samples"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    for trace in (False, True) if args.trace else (False,):
        print("workload\tmetric\tvalue\tunit\tsamples\tnote")
        for name in WORKLOADS:
            details, result = run_workload(name, args.seed, args.seconds, trace)
            for metric, entry in result["metrics"].items():
                print(f"{name}\t{metric}\t{entry['value']:.6g}\t{entry['unit']}\t"
                      f"{samples(metric, details)}\t")
            if not trace:
                latency = details["latency"]
                print(f"{name}\top_p50_s\t{latency['op_p50_s']:.6g}\ts\t"
                      f"{details['samples']}\tnot gated")
                print(f"{name}\top_tail_s\t{latency['op_tail_s']:.6g}\ts\t"
                      f"{details['samples']}\tp{latency['tail_percentile']}, not gated")
            print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} mix: {details['mix']}")
            for reason, count in details["failures"].items():
                print(f"#   {count} x {reason}")
        print(f"# seed={args.seed} python={details['python']} git_sha={details['git_sha']} "
              f"nproc={details['nproc']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
