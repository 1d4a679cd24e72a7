"""Tests for the benchmark itself: smoke runs, checker sensitivity, metric names.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gf2ref as R
import workloads as W
from worker import Runner

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE_SHAPES = {
    "units": [(1, 1, 1), (2, 2), (1, 5), (1, 1, 4)],
    "large": [(1, 2, 3, 6)],
    "lattice": [(1, 2, 3), (1, 1, 2, 4)],
    "census": [(1,), (1, 1), (2,), (1, 2), (3,), (1, 1, 1)],
}


@pytest.fixture(scope="module")
def runner():
    return Runner()


def smoke_jobs(workload: str, tmp_path: Path) -> list[W.Job]:
    return W.make_cycle(workload, 3, 0, tmp_path, shapes=SMOKE_SHAPES[workload])


@pytest.mark.parametrize("workload", sorted(SMOKE_SHAPES))
def test_smoke_run_passes_every_check(workload, runner, tmp_path):
    for job in smoke_jobs(workload, tmp_path):
        latency, output, problems = runner.run(job)
        assert problems == [], job.label
        assert latency > 0 and output


def test_census_suite_check_counts_every_line(runner):
    text = runner.call_cli(["verify", "--suite", "census", "--max-dim", "3"])
    assert checks.check_suite(text, 3) == []
    assert checks.check_suite(text.replace("ok ", "FAIL ", 1), 3)
    assert checks.check_suite(text, 4)


def test_unit_subspaces_follow_shoda(tmp_path):
    jobs = W.make_cycle("units", 5, 0, tmp_path, shapes=[(1, 3), (2, 2)])
    assert R.shoda_pair(jobs[0].parts) == (1, 3)
    assert R.shoda_pair(jobs[1].parts) is None
    assert len(jobs[0].subspace) == 2  # the span of z and f z
    assert len(jobs[1].subspace) == 4  # Ker f^2 is everything


def test_same_seed_same_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = W.make_cycle("large", 9, 1, tmp_path / "a", shapes=[(1, 2, 3, 6)])
    b = W.make_cycle("large", 9, 1, tmp_path / "b", shapes=[(1, 2, 3, 6)])
    c = W.make_cycle("large", 10, 1, None, shapes=[(1, 2, 3, 6)])
    assert Path(a[0].matrix_path).read_text() == Path(b[0].matrix_path).read_text()
    assert (a[0].f, a[0].subspace) == (b[0].f, b[0].subspace)
    assert a[0].f != c[0].f
    assert "why: " in Path(a[0].matrix_path).read_text()


def _flip(coords: list[int], j: int) -> None:
    coords[j] ^= 1


def test_checker_rejects_corrupted_analyze(runner, tmp_path):
    job = W.make_cycle("units", 3, 0, tmp_path, shapes=[(1, 5)])[0]
    text = runner.call_cli(["analyze", job.matrix_path, "--json"])
    assert checks.check_analyze(job, text) == []
    for corrupt in (
        lambda d: d.update(shoda_holds=not d["shoda_holds"]),
        lambda d: d.update(commutant_dimension=d["commutant_dimension"] + 1),
        lambda d: d.update(automorphism_count=d["automorphism_count"] * 2),
        lambda d: d["elementary_divisors"].reverse(),
        lambda d: d["shoda_witness"]["y_span"]["basis"].pop(),
        lambda d: _flip(d["shoda_witness"]["z"], 0),
    ):
        doc = json.loads(text)
        corrupt(doc)
        assert checks.check_analyze(job, json.dumps(doc)), corrupt


def test_checker_rejects_corrupted_classify(runner, tmp_path):
    job = W.make_cycle("units", 3, 0, tmp_path, shapes=[(1, 5)])[0]
    text = runner.call_cli(["classify", job.matrix_path, job.subspace_path, "--json"])
    assert checks.check_classify(job, text) == []
    witness = json.loads(text)["hyperinvariance_witness"]
    assert witness is not None
    n = sum(job.parts)
    for corrupt in (
        lambda d: d.update(hyperinvariant=True),
        lambda d: d.update(characteristic=False),
        lambda d: d.update(marked=True),
        lambda d: d.update(hyperinvariance_witness=None),
        lambda d: _flip(d["hyperinvariance_witness"]["vector"], 0),
        lambda d: d["hyperinvariance_witness"]["matrix"].update(
            rows=[[int(i == j) for j in range(n)] for i in range(n)]
        ),
    ):
        doc = json.loads(text)
        corrupt(doc)
        assert checks.check_classify(job, json.dumps(doc)), corrupt


def test_checker_rejects_corrupted_lattice(runner, tmp_path):
    job = W.make_cycle("lattice", 3, 0, tmp_path, shapes=[(1, 2, 3)])[0]
    text = runner.call_cli(["lattice", job.matrix_path, "--which", "hinv", "--json"])
    assert checks.check_lattice(job, text) == []
    for corrupt in (
        lambda d: d["nodes"].pop(),
        lambda d: d["edges"].append(list(reversed(d["edges"][0]))),
        lambda d: d["edges"].pop(0),
        lambda d: _flip(d["nodes"][1]["basis"][0], 0),
    ):
        doc = json.loads(text)
        corrupt(doc)
        doc["edges"] = [e for e in doc["edges"] if max(e) < len(doc["nodes"])]
        assert checks.check_lattice(job, json.dumps(doc)), corrupt


def test_checker_rejects_corrupted_census(runner):
    job = W.make_cycle("census", 0, 0, None, shapes=[(1, 3)])[0]
    runner.clear_caches()
    data = runner.verify.census(job.parts)
    assert checks.check_census(job, data) == []
    for name in ("invariant", "characteristic", "hyperinvariant"):
        corrupted = dataclasses.replace(data, **{name: getattr(data, name)[:-1]})
        assert checks.check_census(job, corrupted), name


def test_failed_check_counts_as_failed_job(runner, tmp_path, monkeypatch):
    job = smoke_jobs("units", tmp_path)[-1]
    real = checks.check_classify
    flipped = lambda j, t: real(j, t.replace('"invariant": true', '"invariant": false'))
    monkeypatch.setattr(checks, "check_classify", flipped)
    from worker import Loop

    loop = Loop(None)
    assert loop.execute(lambda: runner.run(job), job.label, digest=False) is None
    assert loop.attempted == 1 and len(loop.problems) == 1


def _declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lattice", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(_declared(kind))
    spec = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    assert all(result["metrics"][k]["unit"] == u for k, u in spec.items())
