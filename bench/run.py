"""gf2hyper benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {units,large,census,lattice} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The workload runs in a fresh worker
process (bench/worker.py), so per-operator caches and peak memory never
carry over from another workload.  With --trace 0 the last stdout line
holds the end-to-end metrics, including setup_s: the median time, over
several fresh interpreters, from start until gf2hyper.cli is imported
and the first job's input files are written.  Times are scaled to a
reference host speed (bench/speed.py).  With --trace 1 it holds the
per-layer metrics of a traced run.  The line before it carries the
detail: tail percentile, sample count, error rate, output digest and
the raw wall-clock figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 9
DEADLINE_S = 170.0
# An installed CLI imports from cached bytecode, so let Python write it.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def setup_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(WORKER), "--probe", "--workload", workload, "--seed", str(seed)]
    # The first start compiles bytecode, which an installed CLI has already done.
    subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, check=True, timeout=60)
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, check=True, timeout=60)
        ready, factor = map(float, proc.stdout.split()[-2:])
        samples.append((ready - t0) / factor)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gf2hyper" / "cli.py").is_file():
        print(f"error: no gf2hyper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    begin = time.monotonic()
    try:
        setup = None if args.trace else setup_seconds(args.workload, args.seed)
        proc = subprocess.run(
            [
                sys.executable,
                str(WORKER),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            env=ENV,
            capture_output=True,
            text=True,
            timeout=DEADLINE_S - (time.monotonic() - begin),
        )
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    print(json.dumps(result["detail"]))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
