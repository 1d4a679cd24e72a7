"""The algebra of operators commuting with f and its unit group.

Both come from the generator tuple.  The elementary chain maps, each
sending one Jordan chain onto a shifted copy of another, are a basis of
the commutant, whose dimension is the formula sum of min(t_i, t_j); the
identity plus each one, bar the chain projections, generates the unit
group (the commuting automorphisms), whose order has a closed formula.
Classification scans the few chain maps whose sums and products give
the span of the units and the whole commutant
(`classify._stability_maps`) as bit shifts in the chain coordinates
that `nilpotent` lays out, and builds a matrix (`_chain_map`) only for a
witness it reports.  `commutant_basis`, its canonical basis,
`automorphism_generators`, and capped exhaustive enumeration of the
units are the oracles; the chain maps and the first two are kept on f.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CapExceeded
from .gf2 import Gf2Matrix, Subspace, _apply_columns, _transpose
from .nilpotent import (
    NilpotentOperator,
    _per_operator,
    chain_frame,
    elementary_divisors,
    generator_tuple,
    ulm_sequence,
)

UNIT_ENUM_CAP = 1 << 20


def flatten_matrix(m: Gf2Matrix) -> int:
    """Pack a square matrix into one int, row-major."""
    bits = 0
    for i, r in enumerate(m.rows):
        bits |= r << (i * m.n_cols)
    return bits


def unflatten_matrix(bits: int, n: int) -> Gf2Matrix:
    mask = (1 << n) - 1
    return Gf2Matrix(tuple((bits >> (i * n)) & mask for i in range(n)), n)


@dataclass(frozen=True)
class CommutantBasis:
    """A linear basis of {g : gf = fg}."""

    operator: NilpotentOperator
    basis: tuple[Gf2Matrix, ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class AutomorphismSet:
    """Every invertible commuting operator, from exhaustive enumeration."""

    elements: tuple[Gf2Matrix, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.elements)


def _chain_map(f: NilpotentOperator, c: int, i: int, j: int) -> Gf2Matrix:
    """The elementary chain map N_(c,i,j), checked to commute with f.

    N_(c,i,j) sends f^k u_c to f^(j+k) u_i and every other chain to 0.
    It commutes with f exactly when max(0, t_i - t_c) <= j < t_i.  It is
    P E P^-1, with P the chain matrix of the generator tuple and E the
    shift written in chain coordinates, built column by column from the
    columns of P and P^-1 (`chain_frame`).
    """
    p, p_inv = chain_frame(f)
    o = generator_tuple(f).offsets
    a, mask, b = o[c], (1 << (o[i + 1] - o[i] - j)) - 1, o[i] + j
    cols = [_apply_columns(p, ((x >> a) & mask) << b) for x in p_inv]
    # f m e_k against m f e_k, column by column: no product, no row matrix
    fc = f.mat._columns
    if any(_apply_columns(fc, y) != _apply_columns(cols, x) for y, x in zip(cols, fc)):
        raise AssertionError("chain map does not commute with f")
    return Gf2Matrix(_transpose(cols, f.dim), f.dim)


@_per_operator
def _chain_maps(f: NilpotentOperator) -> tuple[tuple[int, int, int, Gf2Matrix], ...]:
    """Every elementary chain map N_(c,i,j), in (c, i, j) order: min(t_i, t_c) per pair."""
    t = generator_tuple(f).exponents
    pairs = itertools.product(range(len(t)), repeat=2)
    indices = ((c, i, j) for c, i in pairs for j in range(max(0, t[i] - t[c]), t[i]))
    return tuple((c, i, j, _chain_map(f, c, i, j)) for c, i, j in indices)


def commutant_dimension(f: NilpotentOperator) -> int:
    """dim of the commutant: sum of min(t_i, t_j) over pairs of chain lengths."""
    divisors = elementary_divisors(ulm_sequence(f))
    return sum(min(a, b) for a in divisors for b in divisors)


@_per_operator
def commutant_basis(f: NilpotentOperator) -> CommutantBasis:
    """The canonical basis of the span of the elementary chain maps.

    Matrices are packed row-major into n^2 bits and echelonized, so the
    basis is the RREF basis of the commutant and depends only on f.
    """
    n = f.dim
    span = Subspace.span_bits((flatten_matrix(m) for *_, m in _chain_maps(f)), n * n)
    basis = tuple(unflatten_matrix(b, n) for b in span.rows)
    for g in basis:
        if g @ f.mat != f.mat @ g:
            raise AssertionError("commutant basis has a non-commuting matrix")
    expected = commutant_dimension(f)
    if len(basis) != expected:
        raise AssertionError(
            f"commutant dimension {len(basis)} != sum of min(t_i, t_j) = {expected}"
        )
    return CommutantBasis(f, basis)


def enumerate_automorphisms(c: CommutantBasis) -> AutomorphismSet:
    """All invertible commutant elements, sorted by packed-bit value.

    Walks the 2^dim linear combinations in Gray-code order (one basis
    XOR per step) and keeps the full-rank ones; refuses above
    UNIT_ENUM_CAP combinations.
    """
    total = 1 << c.dim
    if total > UNIT_ENUM_CAP:
        raise CapExceeded(
            f"commutant has {total} elements, above the cap of {UNIT_ENUM_CAP}", required=total
        )
    n = c.operator.dim
    current = [0] * n
    units = []
    for step in range(1, total):
        flip = (step & -step).bit_length() - 1
        for i, row in enumerate(c.basis[flip].rows):
            current[i] ^= row
        candidate = Gf2Matrix(tuple(current), n)
        if candidate.rank() == n:
            units.append(candidate)
    units.sort(key=flatten_matrix)
    return AutomorphismSet(tuple(units))


@_per_operator
def automorphism_generators(f: NilpotentOperator) -> tuple[Gf2Matrix, ...]:
    """A generating set of the commuting automorphism group.

    Each generator is I + N_(c,i,j) for a chain map other than a chain
    projection N_(c,c,0): it adds f^j u_i to u_c and fixes the rest.  The
    within-class additions project onto the transvections of each general
    linear block and the rest span the radical, so together they generate
    the full unit group of the commutant.
    """
    identity = Gf2Matrix.identity(f.dim)
    gens = []
    for c, i, j, m in _chain_maps(f):
        if (i, j) != (c, 0):
            g = identity + m
            if not g.is_invertible():
                raise AssertionError("unit-group generator is not invertible")
            gens.append(g)
    return tuple(gens)


def automorphism_group_order(f: NilpotentOperator) -> int:
    """|Aut_f| from the block structure, without enumeration.

    The commutant surjects onto a product of full matrix algebras, one
    per block size, with 2-group kernel: the order is the product of the
    general linear group orders times 2^(radical dimension).
    """
    ulm = ulm_sequence(f)
    order = 1
    semisimple_dim = 0
    for r in range(1, len(ulm.d) + 1):
        d = ulm.count(r)
        if d == 0:
            continue
        semisimple_dim += d * d
        for i in range(d):
            order *= (1 << d) - (1 << i)
    return order << (commutant_dimension(f) - semisimple_dim)
