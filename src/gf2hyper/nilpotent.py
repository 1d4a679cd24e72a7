"""Structure theory of a nilpotent operator over GF(2).

Validates nilpotency, caches the kernel/image chains, and derives the
classical invariants: exponents, heights, the Ulm sequence (block-size
multiplicities), elementary divisors, and a deterministic generator tuple
(cyclic decomposition).  The tuple keeps its Jordan chains f^k u_i, walked
once when it is built; the chain matrix, the equal-exponent summands and
every chain span elsewhere in the package read them.

It also owns the chain coordinates the package computes in: bit
offsets[i] + k stands for f^k u_i, `chain_frame` gives the change of
basis P, P^-1, and `_tail_mask` the masks of chain tails.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DimensionMismatch, NotAGeneratorTuple, NotNilpotent, NotSquare
from .gf2 import Gf2Matrix, Gf2Vector, Subspace


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
    """A validated nilpotent matrix with its kernel and image chains.

    ``kernel_chain[j]`` is Ker f^j (strictly increasing up to the whole
    space), ``image_chain[j]`` is Im f^j (strictly decreasing down to
    zero), and ``powers[j]`` is f^j, all for j = 0..index.
    """

    mat: Gf2Matrix
    index: int
    kernel_chain: tuple[Subspace, ...] = field(compare=False, repr=False)
    image_chain: tuple[Subspace, ...] = field(compare=False, repr=False)
    powers: tuple[Gf2Matrix, ...] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.mat.n_cols

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
    offsets[i] + k, and offsets[-1] is the dimension.
    """

    generators: tuple[Gf2Vector, ...]
    exponents: tuple[int, ...]
    partition: tuple[tuple[int, tuple[int, ...]], ...]
    chains: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    offsets: tuple[int, ...] = field(compare=False, repr=False)

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


def validate_nilpotent(m: Gf2Matrix) -> NilpotentOperator:
    """Check m^n = 0 and cache powers plus both chains."""
    if not m.is_square():
        raise NotSquare(f"operator must be square, got {m.n_rows}x{m.n_cols}")
    n = m.n_cols
    powers = [Gf2Matrix.identity(n)]
    while not powers[-1].is_zero():
        if len(powers) > n:
            raise NotNilpotent(f"matrix is not nilpotent: f^{n} != 0")
        powers.append(powers[-1] @ m)
    index = len(powers) - 1
    kernel_chain = tuple(p.kernel() for p in powers)
    # Im f^(j+1) = f(Im f^j), from the whole space down
    image_chain = [Subspace.span_bits((1 << i for i in range(n)), n)]
    for _ in range(index):
        image_chain.append(m.map_subspace(image_chain[-1]))
    for j in range(index):
        if kernel_chain[j].dim >= kernel_chain[j + 1].dim:
            raise AssertionError("kernel chain must strictly increase")
        if image_chain[j].dim <= image_chain[j + 1].dim:
            raise AssertionError("image chain must strictly decrease")
    return NilpotentOperator(m, index, kernel_chain, tuple(image_chain), tuple(powers))


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


def ulm_sequence(f: NilpotentOperator) -> UlmSequence:
    """d(r) = 2 dim Ker f^r - dim Ker f^(r-1) - dim Ker f^(r+1), r = 1..index.

    dim Ker f^r - dim Ker f^(r-1) counts the blocks of size at least r,
    so the second difference counts those of size exactly r; past the
    index the kernel is the whole space.
    """
    k = [s.dim for s in f.kernel_chain] + [f.dim]
    return UlmSequence(tuple(2 * k[r] - k[r - 1] - k[r + 1] for r in range(1, f.index + 1)))


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
    and their lengths are the exponents.
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
    if Subspace.span_bits((b for c in chains for b in c), f.dim).dim != f.dim:
        raise NotAGeneratorTuple("chains are linearly dependent")
    partition = []
    for i, a in enumerate(exps):
        if partition and partition[-1][0] == a:
            partition[-1][1].append(i)
        else:
            partition.append((a, [i]))
    frozen = tuple((a, tuple(ix)) for a, ix in partition)
    offsets = tuple(itertools.accumulate(exps, initial=0))
    return GeneratorTuple(gens, exps, frozen, tuple(chains), offsets)


@functools.lru_cache(maxsize=None)
def generator_tuple(f: NilpotentOperator) -> GeneratorTuple:
    """Deterministic cyclic decomposition of the space under f.

    Works down from the longest chains: at exponent a it walks the
    canonical basis of Ker f^a and keeps the first vectors whose socle
    images extend the span already committed (deeper socle plus the
    picks made so far).  The canonical bases make the output depend only
    on the matrix.
    """
    socle = f.kernel_chain[1]
    ulm = ulm_sequence(f)
    committed: list[int] = []
    picked: dict[int, list[int]] = {}
    for a in range(f.index, 0, -1):
        need = ulm.count(a)
        if need == 0:
            continue
        deeper = socle.intersect(f.image_chain[min(a, f.index)])
        blocked = deeper.sum(Subspace.span_bits(committed, f.dim))
        candidates = f.kernel_chain[a]
        f_top = f.powers[a - 1]
        picks = []
        for _ in range(need):
            for b in candidates.rows:
                w = f_top.apply_bits(b)
                if not blocked.contains_bits(w):
                    picks.append(b)
                    committed.append(w)
                    blocked = blocked.sum(Subspace.span_bits([w], f.dim))
                    break
            else:
                raise AssertionError("socle filtration exhausted prematurely")
        picked[a] = picks
    gens = [
        Gf2Vector(b, f.dim) for a in sorted(picked) for b in picked[a]
    ]
    return make_generator_tuple(f, gens)


def chain_matrix(f: NilpotentOperator, u: GeneratorTuple) -> Gf2Matrix:
    """Basis-change matrix whose columns are the Jordan chains of u."""
    return Gf2Matrix.from_columns(Gf2Vector(b, f.dim) for c in u.chains for b in c)


@functools.lru_cache(maxsize=None)
def chain_frame(f: NilpotentOperator) -> tuple[Gf2Matrix, Gf2Matrix]:
    """The chain matrix P of the generator tuple and P^-1.

    f P = P J for the Jordan matrix J of the chain lengths; that is
    checked here, once per operator, for every map later written as a
    shift in these chain coordinates.
    """
    u = generator_tuple(f)
    p = chain_matrix(f, u)
    if f.mat @ p != p @ jordan_matrix(u.exponents):
        raise AssertionError("the chains do not carry f to its Jordan form")
    return p, p.inverse()


def _tail_mask(u: GeneratorTuple, shifts: Iterable[int]) -> int:
    """The bits of the chain coordinates of f^k u_i for k >= shifts[i]."""
    return sum(((1 << t) - (1 << r)) << o for o, t, r in zip(u.offsets, u.exponents, shifts))


def class_span(f: NilpotentOperator, u: GeneratorTuple, mu: int) -> Subspace:
    """The equal-exponent summand spanned by the chains of class mu."""
    return Subspace.span_bits((b for i in u.class_indices(mu) for b in u.chains[i]), f.dim)
