"""Run one workload in this fresh process and print its result as JSON.

    python3 bench/worker.py --workload units --seed 1 --seconds 25 --trace 0
    python3 bench/worker.py --probe --workload units --seed 1

A job is what a user runs: `gf2hyper.cli.main(argv)` on generated files,
stdout captured, or `verify.census(shape)` for the census workload.
Every per-operator cache in the package is cleared before each such
call, because a CLI user pays to fill them on every call.  The loop is
closed with one client: the next job starts when the last one has been
checked.  `--probe` measures set-up instead: it imports gf2hyper.cli,
writes the first job's input files, and prints the monotonic clock and
the host speed factor (see speed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from spans import TRACED, Tracer  # noqa: E402
from speed import KERNEL_REFERENCE_S, ScaledClock, kernel_seconds  # noqa: E402

# Per-layer metrics: the span whose inclusive time per job each reports.
LAYER_MS = (
    "nilpotent.validate_nilpotent",
    "nilpotent.generator_tuple",
    "commutant.commutant_basis",
    "commutant.automorphism_generators",
    "commutant.enumerate_automorphisms",
    "classify.classify",
    "classify.hyperinvariant_lattice",
    "shoda.counterexample",
    "verify.census",
)
PREDICATES = ("is_invariant", "is_marked", "is_characteristic", "is_hyperinvariant")
MODULES = tuple(TRACED) + ("bench",)


class Runner:
    """Runs and checks jobs against one imported copy of gf2hyper."""

    def __init__(self):
        import gf2hyper

        self.package = gf2hyper
        self.cli = importlib.import_module("gf2hyper.cli")
        self.verify = importlib.import_module("gf2hyper.verify")
        self.caches = []
        for name, module in sorted(sys.modules.items()):
            if name.startswith("gf2hyper."):
                for value in vars(module).values():
                    if callable(getattr(value, "cache_clear", None)):
                        if all(value is not c for c in self.caches):
                            self.caches.append(value)

    def clear_caches(self) -> None:
        for cached in self.caches:
            cached.cache_clear()

    def call_cli(self, argv: list[str]) -> str:
        self.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        if rc != 0:
            raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def run(self, job: W.Job) -> tuple[float, str, list[str]]:
        """Latency in seconds, the output to digest, and the problems found."""
        t0 = time.perf_counter()
        if job.workload == "census":
            self.clear_caches()
            data = self.verify.census(job.parts)
            latency = time.perf_counter() - t0
            output = job.label + "".join(
                f"|{name}:" + ";".join(",".join(map(str, s.rows)) for s in getattr(data, name))
                for name in ("invariant", "marked", "characteristic", "hyperinvariant")
            )
            return latency, output, checks.check_census(job, data)
        if job.workload == "lattice":
            text = self.call_cli(["lattice", job.matrix_path, "--which", "hinv", "--json"])
            latency = time.perf_counter() - t0
            return latency, text, checks.check_lattice(job, text)
        analysis = self.call_cli(["analyze", job.matrix_path, "--json"])
        report = self.call_cli(["classify", job.matrix_path, job.subspace_path, "--json"])
        latency = time.perf_counter() - t0
        problems = checks.check_analyze(job, analysis) + checks.check_classify(job, report)
        return latency, analysis + report, problems

    def run_suite(self) -> tuple[float, str, list[str]]:
        t0 = time.perf_counter()
        argv = ["verify", "--suite", "census", "--max-dim", str(W.CENSUS_MAX_DIM)]
        text = self.call_cli(argv)
        return time.perf_counter() - t0, text, checks.check_suite(text, W.CENSUS_MAX_DIM)


def safe(fn) -> tuple[float | None, str, list[str]]:
    """Run a job, turning any exception into a reported problem."""
    try:
        return fn()
    except Exception as exc:  # a failed job is counted, and the loop goes on
        return None, "", [f"{type(exc).__name__}: {exc}"]


def layer_metrics(tracer: Tracer, jobs: int, traced_s: float, overheads: list[float]) -> dict:
    own = tracer.self_times()
    total = {}
    calls = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for sid, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        total[name] = total.get(name, 0.0) + tracer.end[sid] - tracer.start[sid]
        calls[name] = calls.get(name, 0) + 1
        module_self[name.split(".")[0]] += own[sid]
    c = tracer.counts
    per_job = max(jobs, 1)
    m = {}
    for name in LAYER_MS:
        m[f"{name}_ms"] = (total.get(name, 0.0) * 1e3 / per_job, "ms")
    for p in PREDICATES:
        name = f"classify.{p}"
        n = calls.get(name, 0)
        m[f"{name}_us"] = (total.get(name, 0.0) * 1e6 / n if n else 0.0, "us")
        m[f"{name}_calls"] = (n / per_job, "count")
    enumerated = c["gf2.enumerate_subspaces"]
    m["gf2.subspaces_enumerated"] = (enumerated / per_job, "count")
    m["classify.invariant_yield"] = (c["invariant_true"] / enumerated if enumerated else 0.0, "ratio")
    m["commutant.dim"] = (c["commutant.dim"] / per_job, "count")
    m["commutant.generators"] = (c["commutant.generators"] / per_job, "count")
    candidates = c["unit_candidates"]
    m["commutant.unit_candidates"] = (candidates / per_job, "count")
    m["commutant.unit_yield"] = (c["units"] / candidates if candidates else 0.0, "ratio")
    m["classify.lattice_nodes"] = (c["classify.lattice_nodes"] / per_job, "count")
    for module in MODULES:
        m[f"{module}.self_ms"] = (module_self[module] * 1e3 / per_job, "ms")
    m["trace.overhead"] = (statistics.median(overheads) if overheads else 0.0, "ratio")
    m["trace.accounted"] = (sum(own) / traced_s if traced_s else 0.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def summary(sample: list[float], pct: int) -> tuple[float, float]:
    """Median and the pct-th percentile of a sample."""
    if len(sample) < 2:
        return (sample[0], sample[0]) if sample else (0.0, 0.0)
    return statistics.median(sample), statistics.quantiles(sample, n=100, method="inclusive")[pct - 1]


class Loop:
    """Closed-loop tallies: attempts, failures, latencies and output digest."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.jobs = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.traced_s = 0.0
        self.overheads: list[float] = []  # per job: traced time / untraced time - 1

    def execute(self, fn, label: str, digest: bool) -> float | None:
        """Run and check one job; with a tracer, run it untraced and traced.

        The two passes alternate which goes first.  Returns the untraced
        latency, or None when the job failed.
        """
        passes = (False,)
        if self.tracer is not None:
            passes = (False, True) if self.jobs % 2 else (True, False)
        self.jobs += 1
        latency = None
        took_s = {}
        for traced in passes:
            self.attempted += 1
            t0 = time.perf_counter()
            if traced:
                with self.tracer.job():
                    took, output, bad = safe(fn)
            else:
                took, output, bad = safe(fn)
                latency = None if bad else took
                if digest:
                    self.digest.update(output.encode())
            took_s[traced] = time.perf_counter() - t0
            if bad:
                self.problems.append(f"{label}: {'; '.join(bad)}")
        if self.tracer is not None:
            self.traced_s += took_s[True]
            self.overheads.append(took_s[True] / took_s[False] - 1.0)
        return latency


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner()
    inputs = OUT / "inputs" / workload
    inputs.mkdir(parents=True, exist_ok=True)
    cycles = [W.make_cycle(workload, seed, c, inputs) for c in range(W.INPUT_CYCLES)]
    per_cycle = len(cycles[0])
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.bind(runner.package)
    loop = Loop(tracer)
    clock = ScaledClock()
    k = 0
    whole = 0  # slices up to the end of the last whole cycle
    while clock.elapsed() < seconds:
        job = cycles[(k // per_cycle) % W.INPUT_CYCLES][k % per_cycle]
        latency = loop.execute(lambda: runner.run(job), job.label, digest=k < per_cycle)
        if latency is not None:
            clock.add(latency)
        k += 1
        clock.close_slice(force=k % per_cycle == 0)
        if k % per_cycle == 0:
            whole = len(clock.slices)
    clock.close_slice(force=True)
    whole = whole or len(clock.slices)
    suite_s = None
    if workload == "census":
        t0 = time.perf_counter()
        loop.execute(runner.run_suite, "census/suite", digest=True)
        suite_s = time.perf_counter() - t0
    for line in loop.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    detail = {
        "workload": workload,
        "seed": seed,
        "clients": 1,
        "jobs": k,
        "jobs_per_cycle": per_cycle,
        "whole_cycles": k // per_cycle,
        "error_rate": len(loop.problems) / loop.attempted,
        "first_cycle_sha256": loop.digest.hexdigest(),
        "suite_s": suite_s,
    }
    result = {"correct": not loop.problems, "attempted": loop.attempted, "failed": len(loop.problems)}
    if tracer is None:
        pct = W.TAIL_PERCENTILE[workload]
        wall, sample = clock.totals(whole)
        raw_wall, raw_sample = clock.totals(whole, scaled=False)
        p50, top = summary(sample, pct)
        raw_p50, raw_top = summary(raw_sample, pct)
        detail.update(
            samples=len(sample),
            tail_percentile=pct,
            jobs_beyond_tail=sum(x > top for x in sample),
            speed_factor_median=statistics.median(clock.factors()),
            raw_jobs_per_s=len(raw_sample) / raw_wall,
            raw_job_p50_ms=raw_p50 * 1e3,
            raw_job_tail_ms=raw_top * 1e3,
        )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "jobs_per_s": {"value": len(sample) / wall, "unit": "1/s"},
            "job_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "job_tail_ms": {"value": top * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    else:
        traced_jobs = tracer.job_id + 1
        result["metrics"] = layer_metrics(tracer, traced_jobs, loop.traced_s, loop.overheads)
        path = OUT / "trace" / f"{workload}.csv.gz"
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(path)
        detail.update(traced_jobs=traced_jobs, spans=len(tracer.start), spans_file=str(path.relative_to(ROOT)))
    result["detail"] = detail
    return result


def probe(workload: str, seed: int) -> None:
    importlib.import_module("gf2hyper.cli")
    out = OUT / "probe" / workload
    out.mkdir(parents=True, exist_ok=True)
    W.make_cycle(workload, seed, 0, out, shapes=W.cycle_shapes(workload)[:1])
    ready = time.monotonic()
    print(ready, kernel_seconds() / KERNEL_REFERENCE_S)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(W.WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        probe(args.workload, args.seed)
    else:
        print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
