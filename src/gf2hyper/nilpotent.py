"""Structure theory of a nilpotent operator over GF(2).

Validates nilpotency in one paired walk down the image chain.  Each
level is kept as a forward echelon form that pairs a basis of
Im f^(j+1) with preimages in Im f^j, and only the socles
Ker f ∩ Im f^j are put in RREF: they pick the generators of a Jordan
basis, and `_lift` reduces against them to make each preimage
canonical.  The lifts of a socle vector are its Jordan chain read
backwards, so the walk yields the chains f^k u_i without walking f
again.  The generator tuple (cyclic decomposition) built from them is
the one record of the block structure: the exponents, the Ulm sequence
(block-size multiplicities), the elementary divisors, the kernel chain,
the chain frame, the equal-exponent summands and every chain span
elsewhere in the package are read off it.  The canonical image chain
is built from the walk only when it is read.

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
from .gf2 import Gf2Matrix, Gf2Vector, Subspace, _reduce_against, _rref_extend


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
    """A validated nilpotent matrix with its image walk and Jordan chains.

    ``walk[j]``, j < index, is level j of the paired walk down the image
    chain: a forward echelon form {low pivot bit: f(h) | h << n} with no
    back-substitution, whose low halves are a basis of Im f^(j+1) and
    whose h lie in Im f^j (read by `_lift` and `height`), and the socle
    Ker f ∩ Im f^j in RREF.  ``chains[i][k]`` holds the bits of f^k u_i
    for the generators u_i of the lifted Jordan basis, exponents
    ascending (`generator_tuple`).  ``_memo`` keeps what `_per_operator`
    derives from f, outside equality.
    """

    mat: Gf2Matrix
    index: int
    walk: tuple[tuple[dict[int, int], Subspace], ...] = field(compare=False, repr=False)
    chains: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.mat.n_cols

    @functools.cached_property
    def image_chain(self) -> tuple[Subspace, ...]:
        """Im f^j for j = 0..index, canonical and strictly decreasing down to
        zero: the RREF of the low halves of each walk level.  Built on first
        read and kept out of the fields, like `kernel_chain`."""
        n = self.dim
        low_half = (1 << n) - 1
        whole = Subspace._canonical(tuple(1 << i for i in range(n)), tuple(range(n)), n)
        levels = ((r & low_half for r in rows.values()) for rows, _ in self.walk)
        return (whole, *(Subspace.span_bits(level, n) for level in levels))

    @functools.cached_property
    def kernel_chain(self) -> tuple[Subspace, ...]:
        """Ker f^j for j = 0..index, canonical and strictly increasing up to
        the whole space: the span of the last min(j, t_i) entries of each
        Jordan chain.  Built on first read and kept out of the fields, so
        equality, hashing and repr still read the matrix alone."""
        return tuple(
            Subspace.span_bits((b for c in self.chains for b in c[max(len(c) - j, 0) :]), self.dim)
            for j in range(self.index + 1)
        )


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


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """A forward echelon form {lowest bit: row} of rows, with no back-substitution.

    Each row is reduced by the row at its lowest bit until that bit is
    new or the row is zero.  The pivots of the form are the pivots of the
    RREF of its span, but its rows are not reduced at each other's pivots.
    """
    form: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            other = form.get(low)
            if other is None:
                form[low] = row
                break
            row ^= other
    return form


def _reduce_paired(rows: dict[int, int], bits: int, low_half: int) -> int:
    """bits reduced through the paired rows f(h) | h << n of a walk level at their
    low pivots: the low half is zero exactly when bits lies in their span, and
    then bits >> n is the sum of the h of the rows used, a preimage of bits."""
    while bits & low_half:
        row = rows.get(bits & -bits)
        if row is None:
            break
        bits ^= row
    return bits


def _lift(level: tuple[dict[int, int], Subspace], bits: int) -> int:
    """The preimage of bits in Im f^(j+1) that lies in Im f^j and is zero at
    the pivots of the socle Ker f ∩ Im f^j, from level j of the walk.

    The preimages of bits in Im f^j form a coset of the socle, and reducing
    any one of them against the socle's RREF gives the one zero at its
    pivots, whichever echelon form the level's rows are in.
    """
    rows, socle = level
    n = socle.ambient_dim
    h = _reduce_paired(rows, bits, (1 << n) - 1) >> n
    return _reduce_against(h, socle.rows, socle.pivots)


def validate_nilpotent(m: Gf2Matrix) -> NilpotentOperator:
    """Check that m is nilpotent and build its walk and Jordan chains.

    One paired walk down the image chain.  Level j takes the rows
    f(b) | b << n for b in a basis of Im f^j (at level 0, the columns of f
    paired with the unit vectors) to a forward echelon form: the rows
    pivoted below n pair an echelon basis of Im f^(j+1) with preimages in
    Im f^j, and the high halves of the rows pivoted at n or above span
    the socle Ker f ∩ Im f^j, kept in RREF.  Socle vectors lifted through
    the levels (`_lift`) are the generators of a Jordan basis: at exponent
    a they are the rows of Ker f ∩ Im f^(a-1) independent of those already
    lifted, in row order, so the basis depends only on m.  The lifts of a
    socle vector f^(a-1) u are its Jordan chain read backwards, so no
    chain is walked under f; `generator_tuple` checks them against the
    level sizes and `chain_frame` checks that f carries each entry to the
    next.
    """
    if not m.is_square():
        raise NotSquare(f"operator must be square, got {m.n_rows}x{m.n_cols}")
    n = m.n_cols
    low_half = (1 << n) - 1
    rows = [c | 1 << (n + i) for i, c in enumerate(m._columns)]
    walk = []
    while rows:
        form = _echelon(rows)
        image = {p: r for p, r in form.items() if p & low_half}
        if len(image) == len(rows):
            raise NotNilpotent(f"matrix is not nilpotent: f^{n} != 0")
        socle = Subspace.span_bits((r >> n for p, r in form.items() if not p & low_half), n)
        walk.append((image, socle))
        rows = [m.apply_bits(b) | b << n for b in (r & low_half for r in image.values())]
    index = len(walk)
    # Ker f ∩ Im f^(a-1) holds the chain ends of the blocks of size at least a
    taken: dict[int, int] = {}
    taken_mask = 0
    chains: list[tuple[int, ...]] = []
    for a in range(index, 0, -1):
        lifted = []
        for bits in walk[a - 1][1].rows:
            grown = _rref_extend(taken, taken_mask, (bits,))
            if grown == taken_mask:
                continue
            taken_mask = grown
            chain = [bits]
            for level in reversed(walk[: a - 1]):
                chain.append(_lift(level, chain[-1]))
            lifted.append(tuple(reversed(chain)))
        chains[:0] = lifted  # exponents ascend in the tuple
    return NilpotentOperator(m, index, tuple(walk), tuple(chains))


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
    low_half = (1 << f.dim) - 1
    for q in range(f.index - 1, 0, -1):
        if not _reduce_paired(f.walk[q - 1][0], x.bits, low_half) & low_half:
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


@_per_operator
def generator_tuple(f: NilpotentOperator) -> GeneratorTuple:
    """The cyclic decomposition of the space by the Jordan chains that
    `validate_nilpotent` lifted, which depend only on the matrix; no
    vector is walked under f here.

    Checked once per operator against the walk by rank-nullity,
    dim Im f^j = Σ max(t_i - j, 0) for j = 0..index, read off the level
    sizes.  One elimination proves the chains independent and inverts
    P^T, the entries as rows: its rows are P^-1's columns.  `chain_frame`
    checks that the chains are f-chains.
    """
    chains = f.chains
    exps = tuple(map(len, chains))
    sizes = (f.dim, *(len(rows) for rows, _ in f.walk))
    for j, size in enumerate(sizes):
        if size != sum(max(t - j, 0) for t in exps):
            raise AssertionError("the Jordan chains do not match the image chain")
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
    gens = tuple(Gf2Vector(c[0], f.dim) for c in chains)
    return GeneratorTuple(gens, exps, frozen, chains, offsets, inverse.rows)


@_per_operator
def chain_frame(f: NilpotentOperator) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The columns of the chain matrix P of the generator tuple (column
    offsets[i] + k is f^k u_i) and of P^-1, from `generator_tuple`.

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
