"""Structure theory of a nilpotent operator over GF(2).

Validates nilpotency in one paired walk down the image chain, which
also yields the generators of a Jordan basis; keeps the image chain,
the walk, the one source of preimages and of the socles
Ker f ∩ Im f^j, and those generators.  The generator tuple (cyclic
decomposition) walks each generator's Jordan chain f^k u_i once, and
is the one record of the block structure: the exponents, the Ulm
sequence (block-size multiplicities), the elementary divisors, the
kernel chain, the chain frame, the equal-exponent summands and every
chain span elsewhere in the package are read off it.

It also owns the chain coordinates the package computes in: bit
offsets[i] + k stands for f^k u_i, `chain_frame` gives the columns of
the change of basis P and of P^-1, `_tail_mask` the masks of chain tails.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import DimensionMismatch, NotAGeneratorTuple, NotNilpotent, NotSquare, SingularMatrix
from .gf2 import Gf2Matrix, Gf2Vector, Subspace, _rref_extend, _rref_rows


@functools.total_ordering
class _InfiniteHeight:
    """Sentinel for the height of the zero vector.

    Compares above every int but supports no arithmetic, so accidental
    height arithmetic on the zero vector fails loudly.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"

    def __eq__(self, other) -> bool:
        return isinstance(other, _InfiniteHeight)

    def __hash__(self) -> int:
        return hash("gf2hyper-infinite-height")

    def __lt__(self, other):
        if isinstance(other, (int, _InfiniteHeight)):
            return False
        return NotImplemented


INFINITY = _InfiniteHeight()


@dataclass(frozen=True)
class NilpotentOperator:
    """A validated nilpotent matrix with its image chain and Jordan generators.

    ``image_chain[j]`` is Im f^j, canonical and strictly decreasing down
    to zero, for j = 0..index.  ``walk[j]``, j < index, is level j of the
    paired walk: {pivot bit of a row y of Im f^(j+1): a preimage of y in
    Im f^j} (read by `_lift`) and the canonical Ker f ∩ Im f^j.
    ``generators`` holds the bits of the generators u_i of the lifted
    Jordan basis, exponents ascending (`generator_tuple`).  ``_memo``
    keeps what `_per_operator` derives from f, outside equality.
    """

    mat: Gf2Matrix
    index: int
    image_chain: tuple[Subspace, ...] = field(compare=False, repr=False)
    walk: tuple[tuple[dict[int, int], Subspace], ...] = field(compare=False, repr=False)
    generators: tuple[int, ...] = field(compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.mat.n_cols

    @functools.cached_property
    def kernel_chain(self) -> tuple[Subspace, ...]:
        """Ker f^j for j = 0..index, canonical and strictly increasing up to
        the whole space: the span of the last min(j, t_i) entries of each
        Jordan chain.  Built on first read and kept out of the fields, so
        equality, hashing and repr still read the matrix alone."""
        chains = generator_tuple(self).chains
        return tuple(
            Subspace.span_bits((b for c in chains for b in c[max(len(c) - j, 0) :]), self.dim)
            for j in range(self.index + 1)
        )

    def image_of_power(self, k: int) -> Subspace:
        return self.image_chain[min(k, self.index)]


@dataclass(frozen=True)
class UlmSequence:
    """Block-size multiplicities: d[r-1] blocks of size r.

    Trailing zeros are stripped so the last entry is the nilpotency
    index multiplicity, which is always at least one.
    """

    d: tuple[int, ...]

    def __post_init__(self):
        d = tuple(self.d)
        while d and d[-1] == 0:
            d = d[:-1]
        if not d:
            raise ValueError("an Ulm sequence needs at least one block")
        if any(x < 0 for x in d):
            raise ValueError("multiplicities must be nonnegative")
        object.__setattr__(self, "d", d)

    def count(self, r: int) -> int:
        """Number of Jordan blocks of size r."""
        if 1 <= r <= len(self.d):
            return self.d[r - 1]
        return 0


@dataclass(frozen=True)
class GeneratorTuple:
    """Cyclic generators with nondecreasing exponents.

    ``partition`` groups generator indices by exponent, ascending, so
    partition[mu] = (exponent, indices) mirrors the equal-exponent
    summands of the space.  ``chains[i][k]`` is the bits of f^k u_i, and
    ``offsets[i]`` the chain coordinate of u_i: f^k u_i is coordinate
    offsets[i] + k, and offsets[-1] is the dimension.  ``inverse_columns[j]``
    is column j of P^-1 for the chain matrix P: the chain coordinates of e_j.
    """

    generators: tuple[Gf2Vector, ...]
    exponents: tuple[int, ...]
    partition: tuple[tuple[int, tuple[int, ...]], ...]
    chains: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    offsets: tuple[int, ...] = field(compare=False, repr=False)
    inverse_columns: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def class_count(self) -> int:
        return len(self.partition)

    def class_exponent(self, mu: int) -> int:
        return self.partition[mu][0]

    def class_indices(self, mu: int) -> tuple[int, ...]:
        return self.partition[mu][1]

    def class_of_exponent(self, a: int) -> int:
        for mu, (exp, _) in enumerate(self.partition):
            if exp == a:
                return mu
        raise ValueError(f"no exponent class of size {a}")


def _per_operator(fn: Callable) -> Callable:
    """fn(f) computed once per operator and kept in its memo, as long as f lives."""

    @functools.wraps(fn)
    def memoized(f: NilpotentOperator):
        if fn not in f._memo:
            f._memo[fn] = fn(f)
        return f._memo[fn]

    return memoized


def _lift(preimages: dict[int, int], bits: int) -> int:
    """A preimage of bits in Im f^(j+1) from level j of the walk.

    In the RREF basis of Im f^(j+1) the coordinates of bits are its bits
    at the pivots, so the preimages at those pivots sum to one.
    """
    out = 0
    for pivot, b in preimages.items():
        if bits & pivot:
            out ^= b
    return out


def validate_nilpotent(m: Gf2Matrix) -> NilpotentOperator:
    """Check that m is nilpotent and build its image chain and Jordan generators.

    One paired walk down the image chain: at level j the rows f(b) | b << n,
    for b in the RREF basis of Im f^j, reduce to rows pivoted below n,
    whose low halves are the RREF of Im f^(j+1) and whose high halves are
    preimages in Im f^j, and to rows pivoted at n or above, whose high
    halves are the RREF of Ker f ∩ Im f^j.  Socle vectors lifted through
    those preimages are the generators of a Jordan basis: at exponent a
    they are the rows of Ker f ∩ Im f^(a-1) independent of those already
    lifted, in row order, so the basis depends only on m.  No chain is
    walked here; `generator_tuple` walks them and checks them against the
    image chain.
    """
    if not m.is_square():
        raise NotSquare(f"operator must be square, got {m.n_rows}x{m.n_cols}")
    n = m.n_cols
    low_half = (1 << n) - 1
    rows = tuple(1 << i for i in range(n))
    image_chain = [Subspace._canonical(rows, tuple(range(n)), n)]
    walk = []
    while rows:
        paired: dict[int, int] = {}
        _rref_extend(paired, 0, (m.apply_bits(b) | b << n for b in rows))
        basis, pivots = _rref_rows(paired)
        k = sum(p < n for p in pivots)
        if k == len(basis):
            raise NotNilpotent(f"matrix is not nilpotent: f^{n} != 0")
        socle = Subspace._canonical(
            tuple(b >> n for b in basis[k:]), tuple(p - n for p in pivots[k:]), n
        )
        walk.append(({b & -b: b >> n for b in basis[:k]}, socle))
        rows = tuple(b & low_half for b in basis[:k])
        image_chain.append(Subspace._canonical(rows, tuple(pivots[:k]), n))
    index = len(walk)
    # Ker f ∩ Im f^(a-1) holds the chain ends of the blocks of size at least a
    taken: dict[int, int] = {}
    taken_mask = 0
    generators: list[int] = []
    for a in range(index, 0, -1):
        lifted = []
        for bits in walk[a - 1][1].rows:
            grown = _rref_extend(taken, taken_mask, (bits,))
            if grown == taken_mask:
                continue
            taken_mask = grown
            for preimages, _ in reversed(walk[: a - 1]):
                bits = _lift(preimages, bits)
            lifted.append(bits)
        generators[:0] = lifted  # exponents ascend in the tuple
    return NilpotentOperator(m, index, tuple(image_chain), tuple(walk), tuple(generators))


def exponent(f: NilpotentOperator, x: Gf2Vector) -> int:
    """Smallest l >= 0 with f^l x = 0; the zero vector has exponent 0."""
    if x.dim != f.dim:
        raise DimensionMismatch("vector dimension does not match the operator")
    bits = x.bits
    steps = 0
    while bits:
        bits = f.mat.apply_bits(bits)
        steps += 1
    return steps


def height(f: NilpotentOperator, x: Gf2Vector):
    """Largest q with x in Im f^q; INFINITY for the zero vector."""
    if x.dim != f.dim:
        raise DimensionMismatch("vector dimension does not match the operator")
    if x.is_zero():
        return INFINITY
    for q in range(f.index - 1, 0, -1):
        if f.image_chain[q].contains_bits(x.bits):
            return q
    return 0


@_per_operator
def ulm_sequence(f: NilpotentOperator) -> UlmSequence:
    """d(r) = the number of exponents of the generator tuple equal to r,
    r = 1..index: each generator spans one Jordan block of its exponent.
    Counted once per operator."""
    t = generator_tuple(f).exponents
    return UlmSequence(tuple(t.count(r) for r in range(1, f.index + 1)))


def elementary_divisors(u: UlmSequence) -> tuple[int, ...]:
    """Block sizes with multiplicity, ascending."""
    out = []
    for i, count in enumerate(u.d):
        out.extend([i + 1] * count)
    return tuple(out)


def jordan_matrix(block_sizes: list[int] | tuple[int, ...]) -> Gf2Matrix:
    """Block-diagonal nilpotent matrix with the given chain lengths.

    Each block maps basis vector e_i to e_(i+1) and the last one to zero.
    """
    sizes = list(block_sizes)
    if not sizes or any(t < 1 for t in sizes):
        raise ValueError("block sizes must be positive")
    n = sum(sizes)
    rows = [0] * n
    offset = 0
    for t in sizes:
        for r in range(1, t):
            rows[offset + r] = 1 << (offset + r - 1)
        offset += t
    return Gf2Matrix(tuple(rows), n)


def make_generator_tuple(
    f: NilpotentOperator, generators: list[Gf2Vector] | tuple[Gf2Vector, ...]
) -> GeneratorTuple:
    """Validate that the vectors decompose the space into cyclic summands.

    Walks each generator under f once; the walks are the stored chains,
    and their lengths are the exponents.  One elimination proves the chains
    independent and inverts P^T, the entries as rows: its rows are P^-1's columns.
    """
    gens = tuple(generators)
    if not gens:
        raise NotAGeneratorTuple("a generator tuple cannot be empty")
    chains = []
    for g in gens:
        if g.dim != f.dim:
            raise DimensionMismatch("generator dimension does not match the operator")
        chain = []
        bits = g.bits
        while bits:
            chain.append(bits)
            bits = f.mat.apply_bits(bits)
        chains.append(tuple(chain))
    exps = tuple(map(len, chains))
    if any(a > b for a, b in zip(exps, exps[1:])):
        raise NotAGeneratorTuple("exponents must be nondecreasing")
    if sum(exps) != f.dim:
        raise NotAGeneratorTuple("chain lengths do not sum to the dimension")
    try:
        inverse = Gf2Matrix(tuple(b for c in chains for b in c), f.dim).inverse()
    except SingularMatrix:
        raise NotAGeneratorTuple("chains are linearly dependent") from None
    partition = []
    for i, a in enumerate(exps):
        if partition and partition[-1][0] == a:
            partition[-1][1].append(i)
        else:
            partition.append((a, [i]))
    frozen = tuple((a, tuple(ix)) for a, ix in partition)
    offsets = tuple(itertools.accumulate(exps, initial=0))
    return GeneratorTuple(gens, exps, frozen, tuple(chains), offsets, inverse.rows)


@_per_operator
def generator_tuple(f: NilpotentOperator) -> GeneratorTuple:
    """The cyclic decomposition of the space by the generators that
    `validate_nilpotent` lifted, which depend only on the matrix.

    Checked once per operator against the walked image chain by
    rank-nullity: dim Im f^j = Σ max(t_i - j, 0) for j = 0..index.
    """
    u = make_generator_tuple(f, [Gf2Vector(b, f.dim) for b in f.generators])
    for j, im in enumerate(f.image_chain):
        if im.dim != sum(max(t - j, 0) for t in u.exponents):
            raise AssertionError("the Jordan chains do not match the image chain")
    return u


@_per_operator
def chain_frame(f: NilpotentOperator) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The columns of the chain matrix P of the generator tuple (column
    offsets[i] + k is f^k u_i) and of P^-1, from `make_generator_tuple`.

    f P = P J for the Jordan matrix J of the chain lengths; that is
    checked here column by column, once per operator, for every map later
    written as a shift in these chain coordinates: f sends each f^k u_i
    to the next entry of its chain, and the chain end to 0.
    """
    u = generator_tuple(f)
    for chain in u.chains:
        if any(f.mat.apply_bits(b) != image for b, image in zip(chain, chain[1:] + (0,))):
            raise AssertionError("the chains do not carry f to its Jordan form")
    return tuple(b for c in u.chains for b in c), u.inverse_columns


def _tail_mask(u: GeneratorTuple, shifts: Iterable[int]) -> int:
    """The bits of the chain coordinates of f^k u_i for k >= shifts[i]."""
    return sum(((1 << t) - (1 << r)) << o for o, t, r in zip(u.offsets, u.exponents, shifts))


def class_span(f: NilpotentOperator, u: GeneratorTuple, mu: int) -> Subspace:
    """The equal-exponent summand spanned by the chains of class mu."""
    return Subspace.span_bits((b for i in u.class_indices(mu) for b in u.chains[i]), f.dim)
