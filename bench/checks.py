"""Output checks built on facts the benchmark derives from the partition.

Each check returns a list of problems; an empty list means the output is
correct.  Nothing here imports gf2hyper: subspaces are compared with
gf2ref, and every verdict is tested against the block sizes the
generator drew, mapped back to Jordan coordinates through P^-1.
"""

from __future__ import annotations

import json

import gf2ref as R
from workloads import Job


def _same_span(a: list[int], b: list[int]) -> bool:
    sa, sb = R.Span(a), R.Span(b)
    return sa.dim == sb.dim and all(sa.contains(v) for v in b)


def _bits(coords) -> int:
    return sum(int(c) << j for j, c in enumerate(coords))


def _to_jordan(job: Job, rows: list[int]) -> list[int]:
    return [R.apply(list(job.q), v) for v in rows]


def check_analyze(job: Job, text: str) -> list[str]:
    parts = job.parts
    doc = json.loads(text)
    bad = []
    rows = [_bits(r) for r in doc["matrix"]["rows"]]
    if rows != list(job.f):
        bad.append("matrix echo differs from the input")
    if doc["nilpotency_index"] != max(parts):
        bad.append("nilpotency index")
    if doc["elementary_divisors"] != sorted(parts):
        bad.append("elementary divisors")
    mult = R.multiplicities(parts)
    if doc["ulm_sequence"] != [mult.get(r, 0) for r in range(1, max(parts) + 1)]:
        bad.append("ulm sequence")
    if doc["commutant_dimension"] != R.commutant_dim(parts):
        bad.append("commutant dimension is not sum of min(t_i, t_j)")
    count = doc["automorphism_count"]
    if count is not None and count != R.aut_order(parts):
        bad.append("automorphism count differs from the GL-order formula")
    pair = R.shoda_pair(parts)
    if doc["shoda_holds"] != (pair is not None):
        bad.append("shoda verdict")
    w = doc["shoda_witness"]
    if (w is None) != (pair is None):
        bad.append("shoda witness presence")
    elif w is not None:
        if (w["a_rho"], w["a_tau"]) != pair:
            bad.append("shoda block sizes")
        y = [_bits(b) for b in w["y_span"]["basis"]]
        if not _same_span(_to_jordan(job, y), R.exceptional_span_jordan(parts)):
            bad.append("witness span differs from the exceptional span")
        z = _bits(w["z"])
        fz = R.apply(list(job.f), z)
        if not R.Span(y).contains(z) or fz == 0 or R.apply(list(job.f), fz) != 0:
            bad.append("linking vector is not an exponent-2 member of the span")
    return bad


def _check_witness(job: Job, s: R.Span, w, invertible: bool, label: str) -> list[str]:
    n = sum(job.parts)
    g = [_bits(r) for r in w["matrix"]["rows"]]
    v = _bits(w["vector"])
    if len(g) != n or w["matrix"]["n_cols"] != n:
        return [f"{label} witness has the wrong shape"]
    bad = []
    f = list(job.f)
    if R.matmul(g, f) != R.matmul(f, g):
        bad.append(f"{label} witness does not commute with f")
    if invertible and R.rank(g) != n:
        bad.append(f"{label} witness is not invertible")
    if not s.contains(v):
        bad.append(f"{label} witness vector is not in S")
    elif s.contains(R.apply(g, v)):
        bad.append(f"{label} witness does not move its vector out of S")
    return bad


def check_classify(job: Job, text: str) -> list[str]:
    """Verdicts and witnesses for an f-invariant subspace."""
    parts = job.parts
    doc = json.loads(text)
    bad = []
    basis = [_bits(b) for b in doc["subspace"]["basis"]]
    if not _same_span(basis, list(job.subspace)):
        bad.append("reported subspace differs from the input")
    s = R.Span(job.subspace)
    hyper = R.is_hyperinvariant_jordan(parts, _to_jordan(job, list(job.subspace)))
    if doc["invariant"] is not True:
        bad.append("an f-invariant input was reported not invariant")
    if doc["hyperinvariant"] != hyper:
        bad.append("hyperinvariant verdict differs from the monotone-tail test")
    if doc["hyperinvariant"] != (doc["characteristic"] and doc["marked"]):
        bad.append("hyperinvariant is not characteristic-and-marked")
    if R.shoda_pair(parts) is None and doc["characteristic"] != hyper:
        bad.append("characteristic differs from hyperinvariant without Shoda")
    if not doc["characteristic_complete"]:
        bad.append("characteristic verdict is not exact")
    if job.workload == "units":
        shoda = R.shoda_pair(parts) is not None
        if doc["characteristic"] is not True or doc["hyperinvariant"] == shoda:
            bad.append("units subspace verdicts differ from their construction")
    for key, verdict, invertible in (
        ("invariance_witness", doc["invariant"], False),
        ("characteristic_witness", doc["characteristic"], True),
        ("hyperinvariance_witness", doc["hyperinvariant"], False),
    ):
        w = doc[key]
        if verdict and w is not None:
            bad.append(f"{key} given for a true verdict")
        elif not verdict and key != "invariance_witness" and w is None:
            bad.append(f"{key} missing for a false verdict")
        elif w is not None:
            bad += _check_witness(job, s, w, invertible, key)
    return bad


def check_lattice(job: Job, text: str) -> list[str]:
    """Nodes are exactly the monotone tail sums; edges are their covering pairs."""
    parts = job.parts
    n = sum(parts)
    doc = json.loads(text)
    bad = []
    masks = []
    for node in doc["nodes"]:
        basis = [_bits(b) for b in node["basis"]]
        mask = R.coordinate_mask(_to_jordan(job, basis), n)
        shifts = None if mask is None else R.shifts_of_tail(parts, mask)
        if shifts is None or not R.is_monotone(parts, shifts):
            bad.append(f"node {node['id']} is not hyperinvariant")
            return bad
        masks.append(mask)
    if len(set(masks)) != len(masks):
        bad.append("repeated lattice node")
    if len(masks) != len(R.monotone_tuples(parts)):
        bad.append("node count differs from the number of monotone shift tuples")
    if {tuple(e) for e in doc["edges"]} != _covers(masks):
        bad.append("edges differ from the covering relation of the tail sums")
    return bad


def _covers(masks: list[int]) -> set[tuple[int, int]]:
    """(i, j) where node j covers node i: strictly above, nothing between."""
    above = [0] * len(masks)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if a != b and a & ~b == 0:
                above[i] |= 1 << j
    edges = set()
    for i, up in enumerate(above):
        beyond = 0
        for k in range(len(masks)):
            if (up >> k) & 1:
                beyond |= above[k]
        covers = up & ~beyond
        edges |= {(i, j) for j in range(len(masks)) if (covers >> j) & 1}
    return edges


def _subspace_total(n: int) -> int:
    """Number of subspaces of GF(2)^n, the invariant count of f = 0."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= (1 << (n - i)) - 1
            den *= (1 << (i + 1)) - 1
        total += num // den
    return total


def check_census(job: Job, data) -> list[str]:
    """A SubspaceCensus in the Jordan basis against the partition."""
    parts = job.parts
    n = sum(parts)
    j = R.jordan(parts)
    bad = []
    inv = [tuple(s.rows) for s in data.invariant]
    sets = {
        name: {tuple(s.rows) for s in getattr(data, name)}
        for name in ("invariant", "marked", "characteristic", "hyperinvariant")
    }
    if len(sets["invariant"]) != len(inv):
        bad.append("repeated invariant subspace")
    for rows in inv:
        span = R.Span(rows)
        if not all(span.contains(R.apply(j, r)) for r in rows):
            bad.append("a listed invariant subspace is not invariant")
            break
    if all(t == 1 for t in parts) and len(inv) != _subspace_total(n):
        bad.append("f = 0 must leave every subspace invariant")
    if not sets["marked"] <= sets["invariant"] or not sets["characteristic"] <= sets["invariant"]:
        bad.append("marked or characteristic subspace outside the invariant set")
    hyper = sets["hyperinvariant"]
    if hyper != sets["characteristic"] & sets["marked"]:
        bad.append("hyperinvariant is not characteristic-and-marked")
    if len(hyper) != len(R.monotone_tuples(parts)):
        bad.append("hyperinvariant count differs from the monotone tuple count")
    if not all(R.is_hyperinvariant_jordan(parts, list(rows)) for rows in hyper):
        bad.append("a hyperinvariant subspace is not a monotone tail sum")
    strict = sets["characteristic"] > hyper
    if strict != (R.shoda_pair(parts) is not None):
        bad.append("characteristic > hyperinvariant disagrees with Shoda")
    return bad


def expected_suite_checks(max_dim: int) -> int:
    """Five checks per shape, plus one where Shoda fails."""
    return sum(
        5 + (R.shoda_pair(p) is None)
        for n in range(1, max_dim + 1)
        for p in R.partitions(n)
    )


def check_suite(text: str, max_dim: int) -> list[str]:
    lines = text.splitlines()
    want = expected_suite_checks(max_dim)
    bad = []
    if len(lines) != want + 1:
        bad.append(f"census suite printed {len(lines) - 1} checks, expected {want}")
    if not all(line.startswith("ok ") for line in lines[:-1]):
        bad.append("census suite has a failing check")
    if not lines or lines[-1] != f"{want}/{want} checks passed":
        bad.append("census suite summary line")
    return bad
