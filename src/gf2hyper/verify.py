"""Verification suites: golden cases, exhaustive censuses, and oracles.

The census takes every invariant subspace, enumerated directly, of every
Jordan configuration up to a dimension bound, classifies each one
exactly with one stability scan plus the intersection criterion, and
exposes the four predicate sets so the equivalences between them can be
replayed wholesale, with the lattice closure as the oracle for the
monotone-span lattice.  The oracle suite cross-checks the chain formula
for the exceptional span against a brute-force height scan.

Each suite is a generator of checks, (name, held, detail) triples,
computed one at a time as the reader asks for the next.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from . import shoda
from .classify import (
    MOVED_BY_F,
    MOVED_BY_UNIT,
    STABLE,
    _chain_coordinates,
    _in_chains,
    _marked,
    _scan,
    classify,
    hyperinvariant_lattice,
    invariant_subspaces,
    is_hyperinvariant,
    is_marked,
)
from .commutant import commutant_basis, enumerate_automorphisms
from .gf2 import Gf2Matrix, Gf2Vector, Subspace, _check_subspace_cap
from .nilpotent import (
    INFINITY,
    NilpotentOperator,
    elementary_divisors,
    exponent,
    generator_tuple,
    height,
    jordan_matrix,
    ulm_sequence,
    validate_nilpotent,
)

CENSUS_MAX_DIM = 6
ORACLE_MAX_DIM = 9


@dataclass(frozen=True)
class SubspaceCensus:
    """Exact predicate sets over every invariant subspace of one configuration."""

    block_sizes: tuple[int, ...]
    invariant: tuple[Subspace, ...] = field(repr=False)
    marked: tuple[Subspace, ...] = field(repr=False)
    characteristic: tuple[Subspace, ...] = field(repr=False)
    hyperinvariant: tuple[Subspace, ...] = field(repr=False)


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All nondecreasing positive tuples summing to n."""

    def rec(remaining: int, minimum: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return rec(n, 1)


@functools.lru_cache(maxsize=None)
def jordan_operator(block_sizes: tuple[int, ...]) -> NilpotentOperator:
    return validate_nilpotent(jordan_matrix(list(block_sizes)))


@functools.lru_cache(maxsize=1)
def census(block_sizes: tuple[int, ...]) -> SubspaceCensus:
    """Classify every invariant subspace, enumerated directly, exactly as `classify` does.

    One `_scan` call takes the whole sorted list, so the scan reads the
    operator's maps once for the shape, and the frame is checked once:
    with P the identity, each subspace's rows are its chain coordinates
    and their RREF.  The marked test runs only at index > 2, below which
    every invariant subspace is marked.
    """
    f = jordan_operator(block_sizes)
    subspaces = sorted(invariant_subspaces(f), key=lambda s: (len(s.rows), s.pivots, s.rows))
    if _chain_coordinates(f)[0] is None:
        chains = ((s.rows, s.rows, s.rows, s.pivots) for s in subspaces)
    else:
        chains = ((s.rows, *_in_chains(f, s)) for s in subspaces)
    scanned, chains = itertools.tee(chains)  # read by the scan and by this loop, in step
    invariant, marked, characteristic, hyperinvariant = [], [], [], []
    for s, (_, xs, _, _), (kind, _, _) in zip(subspaces, chains, _scan(f, scanned)):
        if kind == MOVED_BY_F:
            raise AssertionError("lifted subspace is not invariant")
        invariant.append(s)
        if f.index <= 2 or _marked(f, xs):
            marked.append(s)
        if kind > MOVED_BY_UNIT:
            characteristic.append(s)
        if kind == STABLE:
            hyperinvariant.append(s)
    return SubspaceCensus(
        block_sizes,
        tuple(invariant),
        tuple(marked),
        tuple(characteristic),
        tuple(hyperinvariant),
    )


def lattice_closure(f: NilpotentOperator) -> tuple[Subspace, ...]:
    """Oracle for hyperinvariant_lattice: the closure of the power kernels
    and images under sum and intersection, as a worklist fixed point."""
    nodes = set(f.kernel_chain) | set(f.image_chain)
    while True:
        pairs = itertools.combinations(nodes, 2)
        fresh = {c for a, b in pairs for c in (a.sum(b), a.intersect(b))} - nodes
        if not fresh:
            return tuple(sorted(nodes, key=lambda s: (s.dim, s.rows)))
        nodes |= fresh


def _vec(bits: int, dim: int = 4) -> Gf2Vector:
    return Gf2Vector(bits, dim)


def paper_suite() -> Iterator[tuple[str, bool, str]]:
    """Replay the published 4x4 example and the small golden facts."""
    f = jordan_operator((1, 3))
    e1, e2, e3, e4 = (_vec(1 << i) for i in range(4))
    z = e1 + e3
    fz = f.mat.apply(z)
    x = Subspace.span([z, fz], 4)

    yield "kernel-of-f", f.mat.kernel() == Subspace.span([e1, e4], 4), ""
    yield "image-of-f", f.mat.image() == Subspace.span([e3, e4], 4), ""
    yield "x-members", sorted(v.bits for v in x.enumerate_vectors()) == [0, 5, 8, 13], ""
    yield "x-contains-e4", x.contains(e4), ""
    yield "x-misses-e1", not x.contains(e1), ""
    yield "exponent-of-z", exponent(f, z) == 2, ""
    yield "height-of-zero", height(f, _vec(0)) == INFINITY, ""
    yield "ulm-sequence", ulm_sequence(f).d == (1, 0, 1), ""
    yield "single-block-ulm", ulm_sequence(jordan_operator((4,))).d == (0, 0, 0, 1), ""
    yield "homogeneous-ulm", ulm_sequence(jordan_operator((2, 2))).d == (0, 2), ""
    yield "divisors", elementary_divisors(ulm_sequence(f)) == (1, 3), ""

    c = commutant_basis(f)
    yield "commutant-dim", c.dim == 6, ""
    units = enumerate_automorphisms(c)
    yield "unit-count", len(units) == 16, ""
    yield "unit-template", all(_matches_unit_template(g) for g in units.elements), ""
    # g z is z + e4 when the entries (3,0) and (2,1) of g differ, else z
    actions_ok = all(
        g.apply(z) == (gz := z + e4 if g.entry(3, 0) ^ g.entry(2, 1) else z)
        and g.apply(fz) == e4
        and g.apply(z + fz) == gz + e4
        for g in units.elements
    )
    yield "unit-action-on-x", actions_ok, ""

    report = classify(f, x)
    classes = (report.invariant, report.marked, report.characteristic, report.hyperinvariant)
    yield "x-classification", classes == (True, False, True, False), ""
    w = report.hyperinvariance_witness
    projection_ok = (
        w is not None
        and w.matrix.rows == (1, 0, 0, 0)
        and w.vector == z
        and w.matrix.apply(z) == e1
    )
    yield "projection-witness", projection_ok, ""
    moved = [
        k
        for k in range(f.index + 1)
        if not (
            is_hyperinvariant(f, f.kernel_chain[k])[0]
            and is_hyperinvariant(f, f.image_chain[k])[0]
        )
    ]
    yield "power-spaces-hyperinvariant", not moved, f"k={moved[0]}" if moved else ""

    u = generator_tuple(f)
    yield "linking-vector", shoda.linking_vector(f, u, 0, 1) == z, ""
    yield "formula-span", shoda.exceptional_subspace(f, u, 0, 1) == x, ""
    yield "scan-span", shoda.exceptional_subspace_scan(f, 1, 3) == x, ""
    found = shoda.counterexample(f)
    found_ok = found is not None and (found[0], found[1].a_rho, found[1].a_tau) == (x, 1, 3)
    yield "counterexample", found_ok, ""
    yield "zero-subspace-marked", is_marked(f, Subspace.zero(4)), ""


def _matches_unit_template(g: Gf2Matrix) -> bool:
    """Unit diagonal, fixed zero pattern, and the two tied entries equal."""
    fixed_one = [(0, 0), (1, 1), (2, 2), (3, 3)]
    fixed_zero = [(0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (2, 3)]
    return (
        all(g.entry(i, j) == 1 for i, j in fixed_one)
        and all(g.entry(i, j) == 0 for i, j in fixed_zero)
        and g.entry(3, 2) == g.entry(2, 1)
    )


def census_suite(max_dim: int) -> Iterator[tuple[str, bool, str]]:
    """Exhaustive predicate equivalences over all configurations up to max_dim.

    Each shape's census is dropped after its checks, and `census` keeps only
    the last one it built, so the suite holds at most two shapes' subspaces,
    while the next one is built."""
    # the zero operator on GF(2)^n has all of it as its kernel, and the subspace
    # count rises with n: gate every n before the first shape is lifted
    for n in range(1, max_dim + 1):
        _check_subspace_cap(n)
    for n in range(1, max_dim + 1):
        for sizes in partitions(n):
            yield from _census_checks(sizes)


def _census_checks(sizes: tuple[int, ...]) -> Iterator[tuple[str, bool, str]]:
    """The census suite's checks of one shape, from its own census."""
    f = jordan_operator(sizes)
    data = census(sizes)
    label = "-".join(map(str, sizes))
    marked, char, hyper = map(set, (data.marked, data.characteristic, data.hyperinvariant))
    del data
    strict = char > hyper
    ulm = ulm_sequence(f)
    shoda_holds, excluded = shoda.shoda_condition(ulm), shoda.ulm_form_condition(ulm)
    yield f"shoda-equivalence[{label}]", strict == shoda_holds, f"strict={strict}"
    yield f"ulm-form-negation[{label}]", shoda_holds != excluded, ""
    yield f"hyper-iff-char-and-marked[{label}]", hyper == char & marked, ""
    yield f"lattice-closure-matches-census[{label}]", set(lattice_closure(f)) == hyper, ""
    lattice = set(hyperinvariant_lattice(f))
    yield f"lattice-equals-monotone-spans[{label}]", lattice == hyper, ""
    if excluded:
        yield f"char-equals-hyper-when-excluded[{label}]", char == hyper, ""


def oracle_suite(max_dim: int) -> Iterator[tuple[str, bool, str]]:
    """Chain formula vs height scan for every eligible pair of classes."""
    for n in range(1, max_dim + 1):
        for sizes in partitions(n):
            f = jordan_operator(sizes)
            u = generator_tuple(f)
            label = "-".join(map(str, sizes))
            for a_rho, a_tau in shoda._shoda_pairs(ulm_sequence(f)):
                rho = u.class_of_exponent(a_rho)
                tau = u.class_of_exponent(a_tau)
                formula = shoda.exceptional_subspace(f, u, rho, tau)
                scanned = shoda.exceptional_subspace_scan(f, a_rho, a_tau)
                middle = sum(len(u.class_indices(mu)) for mu in range(rho + 1, tau))
                tail = sum(len(u.class_indices(mu)) for mu in range(tau + 1, u.class_count))
                expected_dim = 2 + middle + 2 * tail
                ok = (
                    formula == scanned
                    and formula.dim == expected_dim
                    # f X = span{f z} + the socle end of each chain above tau
                    and f.mat.map_subspace(formula).dim == 1 + tail
                    and all(formula.contains_bits(f.mat.apply_bits(r)) for r in formula.rows)
                )
                yield f"formula-vs-scan[{label}:{a_rho}<{a_tau}]", ok, f"dim={formula.dim}"


def run_suite(name: str, max_dim: int | None = None) -> Iterator[tuple[str, bool, str]]:
    """The checks of one suite, each computed as it is read."""
    if name == "paper":
        return paper_suite()
    if name == "census":
        return census_suite(CENSUS_MAX_DIM if max_dim is None else max_dim)
    if name == "oracle":
        return oracle_suite(ORACLE_MAX_DIM if max_dim is None else max_dim)
    raise ValueError(f"unknown suite {name!r}")
