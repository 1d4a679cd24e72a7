"""The algebra of operators commuting with f and its unit group.

Both come from the generator tuple.  The elementary chain maps, each
sending one Jordan chain onto a shifted copy of another, are a basis of
the commutant; the identity plus each one, bar the chain projections,
generates the unit group (the commuting automorphisms), whose order has
a closed formula.  Capped exhaustive enumeration is the oracle for both.
Classification scans the generators and the chain projections, which
with I span the commutant; `commutant_basis` is its canonical basis.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .errors import (
    CapExceeded,
    ChainLengthOne,
    DimensionMismatch,
    NotAGeneratorTuple,
    ExponentOrderViolation,
    NotHomogeneous,
    SingleBlock,
)
from .gf2 import Gf2Matrix, Gf2Vector, Subspace
from .nilpotent import (
    GeneratorTuple,
    NilpotentOperator,
    chain_matrix,
    elementary_divisors,
    exponent,
    generator_tuple,
    make_generator_tuple,
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


@functools.lru_cache(maxsize=None)
def _chain_maps(f: NilpotentOperator) -> tuple[tuple[int, int, int, Gf2Matrix], ...]:
    """The elementary chain maps N_(c,i,j), in (c, i, j) order.

    N_(c,i,j) sends f^k u_c to f^(j+k) u_i and every other chain to 0.
    It commutes with f exactly when j >= t_i - t_c, so j runs over
    [max(0, t_i - t_c), t_i): min(t_i, t_c) maps per pair of chains.
    Each one is P E P^-1, with P the chain matrix of the generator tuple
    and E the shift written in chain coordinates.
    """
    u = generator_tuple(f)
    p = chain_matrix(f, u)
    p_inv = p.inverse()
    offsets = tuple(itertools.accumulate(u.exponents, initial=0))
    maps = []
    for c, tc in enumerate(u.exponents):
        for i, ti in enumerate(u.exponents):
            for j in range(max(0, ti - tc), ti):
                # E P^-1 moves row offsets[c] + k of P^-1 to row offsets[i] + j + k
                rows = [0] * f.dim
                for k in range(ti - j):
                    rows[offsets[i] + j + k] = p_inv.rows[offsets[c] + k]
                m = p @ Gf2Matrix(tuple(rows), f.dim)
                if m @ f.mat != f.mat @ m:
                    raise AssertionError("chain map does not commute with f")
                maps.append((c, i, j, m))
    return tuple(maps)


@functools.lru_cache(maxsize=None)
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
    divisors = elementary_divisors(ulm_sequence(f))
    expected = sum(min(a, b) for a in divisors for b in divisors)
    if len(basis) != expected:
        raise AssertionError(
            f"commutant dimension {len(basis)} != sum of min(t_i, t_j) = {expected}"
        )
    return CommutantBasis(f, basis)


def enumerate_automorphisms(c: CommutantBasis, cap: int = UNIT_ENUM_CAP) -> AutomorphismSet:
    """All invertible commutant elements, sorted by packed-bit value.

    Walks the 2^dim linear combinations in Gray-code order (one basis
    XOR per step) and keeps the full-rank ones.
    """
    total = 1 << c.dim
    if total > cap:
        raise CapExceeded(
            f"commutant has {total} elements, above the cap of {cap}", required=total
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


def automorphism_from_images(
    f: NilpotentOperator, u: GeneratorTuple, images: list[Gf2Vector] | tuple[Gf2Vector, ...]
) -> Gf2Matrix:
    """The unique commuting automorphism sending each generator to its image.

    The images must form a generator tuple with matching exponents; the
    map is defined chain-wise, alpha(f^j u_i) = f^j images[i].
    """
    images = tuple(images)
    if len(images) != len(u.generators):
        raise NotAGeneratorTuple("image count does not match the generator count")
    for img, t in zip(images, u.exponents):
        if img.dim != f.dim:
            raise DimensionMismatch("image dimension does not match the operator")
        if exponent(f, img) != t:
            raise NotAGeneratorTuple(
                f"image exponent {exponent(f, img)} != generator exponent {t}"
            )
    target = chain_matrix(f, make_generator_tuple(f, images))
    source = chain_matrix(f, u)
    alpha = target @ source.inverse()
    if alpha @ f.mat != f.mat @ alpha:
        raise AssertionError("automorphism from images does not commute with f")
    return alpha


def exchange_generator(
    f: NilpotentOperator, u: GeneratorTuple, x: Gf2Vector
) -> tuple[int, GeneratorTuple]:
    """Swap x into a homogeneous tuple, returning the replaced position.

    The chain coefficients of x form triangular Toeplitz blocks; block j
    is invertible exactly when the constant coefficient at generator j
    is one, and any such j admits the exchange.
    """
    if len(set(u.exponents)) != 1:
        raise NotHomogeneous("exchange needs a single exponent class")
    if x.dim != f.dim:
        raise DimensionMismatch("vector dimension does not match the operator")
    if x.is_zero():
        raise ValueError("cannot exchange the zero vector into a tuple")
    coords = chain_matrix(f, u).inverse().apply_bits(x.bits)
    a = u.exponents[0]
    j = None
    for i in range(len(u.generators)):
        if (coords >> (i * a)) & 1:
            j = i
            break
    if j is None:
        raise ValueError("vector has positive height, exchange impossible")
    replaced = list(u.generators)
    replaced[j] = x
    return j, make_generator_tuple(f, replaced)


def shift_automorphism(
    f: NilpotentOperator, u: GeneratorTuple, w_index: int, y_index: int
) -> Gf2Matrix:
    """Automorphism adding a strictly lower-exponent generator to a higher one.

    Sends y to w + y and fixes every other generator; applying it twice
    returns y, since w + (w + y) = y over GF(2).
    """
    if u.exponents[w_index] >= u.exponents[y_index]:
        raise ExponentOrderViolation(
            "the added generator must have strictly smaller exponent"
        )
    images = list(u.generators)
    images[y_index] = u.generators[w_index] + u.generators[y_index]
    return automorphism_from_images(f, u, images)


def _mixing_matrix(k: int) -> Gf2Matrix:
    """A k x k matrix B with both B and B + I invertible over GF(2).

    Preferred shape: mix each generator with its neighbours plus a 1 in
    the top-left corner.  That form degenerates when k = 1 mod 3, where
    the companion matrix of x^k + x + 1 steps in (its characteristic
    polynomial avoids the eigenvalues 0 and 1 for every k >= 2).
    """
    if k % 3 != 1:
        rows = []
        for i in range(k):
            bits = 0
            if i > 0:
                bits |= 1 << (i - 1)
            if i + 1 < k:
                bits |= 1 << (i + 1)
            if i == 0:
                bits |= 1
            rows.append(bits)
        return Gf2Matrix(tuple(rows), k)
    rows = [0] * k
    for i in range(1, k):
        rows[i] |= 1 << (i - 1)     # companion shift
    rows[0] |= 1 << (k - 1)         # constant coefficient of x^k + x + 1
    rows[1] |= 1 << (k - 1)         # linear coefficient
    return Gf2Matrix(tuple(rows), k)


def complementary_automorphism_pair(
    f: NilpotentOperator,
) -> tuple[Gf2Matrix, Gf2Matrix]:
    """Two commuting automorphisms of a homogeneous operator summing to I.

    Requires every Jordan block to have the same size a >= 2 and at
    least two blocks; both outputs act uniformly along chains, so they
    commute with f by construction.
    """
    ulm = ulm_sequence(f)
    nonzero = [(r, ulm.count(r)) for r in range(1, len(ulm.d) + 1) if ulm.count(r)]
    if len(nonzero) != 1:
        raise NotHomogeneous("all Jordan blocks must share one size")
    a, k = nonzero[0]
    if k == 1:
        raise SingleBlock("the identity cannot split over a single block")
    if a == 1:
        raise ChainLengthOne("blocks of size one are not supported")
    u = generator_tuple(f)
    mixing = _mixing_matrix(k)
    images = []
    for c in range(k):
        bits = 0
        for d in range(k):
            if mixing.entry(d, c):
                bits ^= u.generators[d].bits
        images.append(Gf2Vector(bits, f.dim))
    beta = automorphism_from_images(f, u, images)
    gamma = beta + Gf2Matrix.identity(f.dim)
    if not gamma.is_invertible():
        raise AssertionError("complementary map is not invertible")
    if gamma @ f.mat != f.mat @ gamma:
        raise AssertionError("complementary map does not commute with f")
    return beta, gamma


@functools.lru_cache(maxsize=None)
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
    divisors = elementary_divisors(ulm)
    commutant_dim = sum(min(a, b) for a in divisors for b in divisors)
    order = 1
    semisimple_dim = 0
    for r in range(1, len(ulm.d) + 1):
        d = ulm.count(r)
        if d == 0:
            continue
        semisimple_dim += d * d
        for i in range(d):
            order *= (1 << d) - (1 << i)
    return order << (commutant_dim - semisimple_dim)
