"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed cycle of operator shapes (partitions of n, the
Jordan block sizes).  The seed draws the random basis change P, so the
program sees P J P^-1 and never a Jordan matrix, and the subspace picks.
The shapes and their order do not depend on the seed, so runs with
different seeds do the same mix of work.  Inputs reach the program only
as matrix and subspace files in the normative text format; the census
workload is the exception, because `verify.census` takes a shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import gf2ref as R

WHY = {  # the same text as in BENCHMARK.json
    "units": (
        "unit-group enumeration: commutant dimension 8 to 15, so analyze, "
        "counterexample and classify each walk 2^dim candidates"
    ),
    "large": (
        "cold per-operator construction at n 24 to 33: commutant_basis and "
        "automorphism_generators dominate, enumeration never runs"
    ),
    "census": (
        "read-heavy classify: verify.census over every shape up to n=6, "
        "predicates called thousands of times on enumerated subspaces"
    ),
    "lattice": (
        "the hyperinvariant_lattice worklist closure and the cli "
        "covering-edge scan on conjugated multi-block shapes up to n=20"
    ),
}

# Partitions of n <= 9 whose commutant dimension is 8 to 15: the range
# where analyze and classify enumerate every unit (2^dim <= 2^20).  The
# zero operator (1, 1, 1) is left to the census workload.
UNITS_SHAPES = tuple(
    p
    for n in range(1, 10)
    for p in R.partitions(n)
    if 8 <= R.commutant_dim(p) <= 15 and max(p) > 1
)
LARGE_SHAPES = (
    (1, 3, 5, 7, 9),
    (2, 3, 5, 7, 9),
    (1, 2, 3, 4, 6, 8),
    (4, 6, 8, 10),
    (1, 2, 3, 4, 5, 6, 7),
    (1, 2, 4, 8, 16),
    (1, 1, 2, 3, 5, 8, 13),
)
LATTICE_SHAPES = (
    (1, 2, 3, 4),
    (1, 3, 4, 6),
    (1, 2, 4, 7),
    (1, 3, 5, 7),
    (2, 3, 4, 5, 6),
    (2, 3, 5, 8),
    (2, 4, 6, 8),
)
CENSUS_MAX_DIM = 6
# job_tail_ms reports this percentile of the whole cycles' latencies.  A
# run of k whole cycles holds k copies of each shape, so a percentile
# that falls between two shapes' copies jumps with noise.  Each value is
# (j - 1/2) / (shapes per cycle) for the highest shape rank j, by cost,
# that leaves at least ten jobs beyond it once a run completes 2 (units),
# 4 (large), 7 (census) or 7 (lattice) whole cycles, as every run does at
# the seed commit.  It lands mid-way through shape j's copies for any
# number of cycles.  The shape counts are odd for the same reason: the
# median is then one shape's copies.  The shapes are spread in cost, so
# neighbouring ranks rarely swap.
TAIL_PERCENTILE = {"units": 78, "large": 64, "census": 95, "lattice": 79}
# Distinct random conjugates drawn per shape; later cycles reuse them.
INPUT_CYCLES = 3


@dataclass(frozen=True)
class Job:
    """One user-level job and the facts its output is checked against."""

    workload: str
    label: str
    parts: tuple[int, ...]
    f: tuple[int, ...] = ()         # operator rows, P J P^-1
    q: tuple[int, ...] = ()         # P^-1, maps program output to Jordan coordinates
    subspace: tuple[int, ...] = ()  # spanning rows of the classified subspace
    matrix_path: str = ""
    subspace_path: str = ""


def interleave_by_cost(shapes, cost) -> list:
    """Costliest, cheapest, next costliest, ...: any prefix mixes both ends."""
    ranked = sorted(shapes, key=cost, reverse=True)
    out = []
    while ranked:
        out.append(ranked.pop(0))
        if ranked:
            out.append(ranked.pop())
    return out


def cycle_shapes(workload: str) -> list[tuple[int, ...]]:
    if workload == "units":
        return interleave_by_cost(UNITS_SHAPES, R.commutant_dim)
    if workload == "large":
        return interleave_by_cost(LARGE_SHAPES, sum)
    if workload == "lattice":
        return interleave_by_cost(LATTICE_SHAPES, lambda p: len(R.monotone_tuples(p)))
    if workload == "census":
        return [p for n in range(1, CENSUS_MAX_DIM + 1) for p in R.partitions(n)]
    raise ValueError(f"unknown workload {workload!r}")


def _orbit_sum(rng: random.Random, parts, p, count: int = 2) -> list[int]:
    """Spanning rows of the f-orbits of `count` random vectors, f = P J P^-1."""
    j = R.jordan(parts)
    rows = []
    for _ in range(count):
        w = rng.getrandbits(sum(parts))
        while w:
            rows.append(R.apply(p, w))
            w = R.apply(j, w)
    return rows


def _units_subspace(parts, p) -> list[int]:
    """The characteristic span when Shoda holds, else Ker f^2 (hyperinvariant)."""
    if R.shoda_pair(parts) is not None:
        jordan_rows = R.exceptional_span_jordan(parts)
    else:
        mask = R.tail_span(parts, tuple(max(t - 2, 0) for t in parts))
        jordan_rows = [1 << c for c in range(sum(parts)) if (mask >> c) & 1]
    return [R.apply(p, v) for v in jordan_rows]


def make_cycle(
    workload: str, seed: int, cycle: int, out_dir: Path | None, shapes=None
) -> list[Job]:
    """The jobs of one cycle; writes their input files under out_dir."""
    shapes = cycle_shapes(workload) if shapes is None else shapes
    if workload == "census":
        return [
            Job(workload, f"census/{'-'.join(map(str, p))}", tuple(p)) for p in shapes
        ]
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    jobs = []
    for i, parts in enumerate(shapes):
        parts = tuple(parts)
        n = sum(parts)
        p, q = R.random_invertible(rng, n)
        f = R.matmul(R.matmul(p, R.jordan(parts)), q)
        label = f"{workload}/c{cycle}/{i:02d}/{'-'.join(map(str, parts))}"
        note = f"{label} seed {seed}\nwhy: {WHY[workload]}"
        if workload == "units":
            subspace = _units_subspace(parts, p)
        elif workload == "large":
            subspace = _orbit_sum(rng, parts, p)
        else:
            subspace = []
        matrix_path = subspace_path = ""
        if out_dir is not None:
            stem = out_dir / f"c{cycle}-{i:02d}"
            matrix_path = f"{stem}.f.txt"
            Path(matrix_path).write_text(R.format_rows(f, n, note))
            if workload != "lattice":
                subspace_path = f"{stem}.s.txt"
                Path(subspace_path).write_text(R.format_rows(subspace, n, note))
        jobs.append(
            Job(
                workload,
                label,
                parts,
                tuple(f),
                tuple(q),
                tuple(subspace),
                matrix_path,
                subspace_path,
            )
        )
    return jobs
