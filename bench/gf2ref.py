"""Independent GF(2) arithmetic and partition facts for the benchmark.

Shares no code with gf2hyper, so the output checks do not trust the
program they check.  Matrices follow the normative convention: a list of
row ints, bit j of a row is column j, and a matrix acts on column
vectors.  Vectors are ints with bit j holding coordinate j.
"""

from __future__ import annotations

import itertools
import random


def parity(x: int) -> int:
    return x.bit_count() & 1


def apply(rows: list[int], v: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        out |= parity(r & v) << i
    return out


def matmul(a: list[int], b: list[int]) -> list[int]:
    """Rows of a @ b: row i of a selects rows of b to XOR."""
    out = []
    for r in a:
        acc = 0
        j = 0
        while r:
            if r & 1:
                acc ^= b[j]
            r >>= 1
            j += 1
        out.append(acc)
    return out


class Span:
    """A subspace held as an echelon basis keyed by leading bit."""

    def __init__(self, vectors=()):
        self.lead: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        while v:
            top = v.bit_length() - 1
            b = self.lead.get(top)
            if b is None:
                return v
            v ^= b
        return 0

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v:
            self.lead[v.bit_length() - 1] = v
        return bool(v)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self.lead)


def rank(vectors) -> int:
    return Span(vectors).dim


def inverse(rows: list[int], n: int) -> list[int] | None:
    """Gauss-Jordan on [A | I]; None when A is singular."""
    aug = [r | (1 << (n + i)) for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if (aug[i] >> col) & 1), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for i in range(n):
            if i != col and (aug[i] >> col) & 1:
                aug[i] ^= aug[col]
    return [r >> n for r in aug]


def random_invertible(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """A uniformly random invertible P and its inverse."""
    while True:
        p = [rng.getrandbits(n) for _ in range(n)]
        q = inverse(p, n)
        if q is not None:
            return p, q


def jordan(parts: tuple[int, ...]) -> list[int]:
    """Nilpotent Jordan matrix: in each block e_i -> e_(i+1), last -> 0."""
    rows = [0] * sum(parts)
    offset = 0
    for t in parts:
        for r in range(1, t):
            rows[offset + r] = 1 << (offset + r - 1)
        offset += t
    return rows


def block_offsets(parts: tuple[int, ...]) -> list[int]:
    return list(itertools.accumulate((0,) + tuple(parts[:-1])))


def tail_span(parts: tuple[int, ...], shifts: tuple[int, ...]) -> int:
    """Coordinate mask of the sum over blocks of Im J^(r_i) within block i."""
    mask = 0
    for off, t, r in zip(block_offsets(parts), parts, shifts):
        for j in range(r, t):
            mask |= 1 << (off + j)
    return mask


def coordinate_mask(basis: list[int], n: int) -> int | None:
    """The unit vectors spanning a subspace, or None if it has no such basis."""
    span = Span(basis)
    mask = 0
    for c in range(n):
        if span.contains(1 << c):
            mask |= 1 << c
    return mask if mask.bit_count() == span.dim else None


def shifts_of_tail(parts: tuple[int, ...], mask: int) -> tuple[int, ...] | None:
    """Inverse of tail_span: per-block shifts, or None if mask is no tail sum."""
    shifts = []
    for off, t in zip(block_offsets(parts), parts):
        block = (mask >> off) & ((1 << t) - 1)
        r = t - block.bit_count()
        if block != ((1 << t) - 1) ^ ((1 << r) - 1):
            return None
        shifts.append(r)
    return tuple(shifts)


def is_monotone(parts: tuple[int, ...], shifts: tuple[int, ...]) -> bool:
    """Shifts nondecreasing and co-shifts t - r nondecreasing as t grows."""
    pairs = sorted(zip(parts, shifts))
    return all(
        r1 <= r2 and t1 - r1 <= t2 - r2 for (t1, r1), (t2, r2) in zip(pairs, pairs[1:])
    )


def monotone_tuples(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every shift tuple whose tail sum is hyperinvariant (in block order)."""
    return [
        s
        for s in itertools.product(*(range(t + 1) for t in parts))
        if is_monotone(parts, s)
    ]


def is_hyperinvariant_jordan(parts: tuple[int, ...], basis: list[int]) -> bool:
    """A subspace in Jordan coordinates is hyperinvariant iff it is a monotone tail sum."""
    mask = coordinate_mask(basis, sum(parts))
    if mask is None:
        return False
    shifts = shifts_of_tail(parts, mask)
    return shifts is not None and is_monotone(parts, shifts)


def commutant_dim(parts: tuple[int, ...]) -> int:
    return sum(min(a, b) for a in parts for b in parts)


def multiplicities(parts: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for t in parts:
        out[t] = out.get(t, 0) + 1
    return out


def gl_order(d: int) -> int:
    order = 1
    for i in range(d):
        order *= (1 << d) - (1 << i)
    return order


def aut_order(parts: tuple[int, ...]) -> int:
    """|Aut| = product of |GL_d(2)| over block sizes times 2^(radical dim)."""
    mult = multiplicities(parts)
    order = 1
    for d in mult.values():
        order *= gl_order(d)
    return order << (commutant_dim(parts) - sum(d * d for d in mult.values()))


def shoda_pair(parts: tuple[int, ...]) -> tuple[int, int] | None:
    """Smallest sizes r < s with one block each and s > r + 1, if any."""
    ones = sorted(t for t, d in multiplicities(parts).items() if d == 1)
    for i, r in enumerate(ones):
        for s in ones[i + 1 :]:
            if s > r + 1:
                return r, s
    return None


def exceptional_span_jordan(parts: tuple[int, ...]) -> list[int]:
    """The characteristic non-hyperinvariant span in Jordan coordinates.

    Every vector of exponent 2 whose height jumps from r - 1 to s - 1:
    the linking vector and its image, the socle of each block strictly
    between sizes r and s, and the top two levels of each longer block.
    """
    r, s = shoda_pair(parts)
    offs = block_offsets(parts)
    short = next(o for o, t in zip(offs, parts) if t == r)
    long = next(o for o, t in zip(offs, parts) if t == s)
    z = (1 << (short + r - 1)) | (1 << (long + s - 2))
    vectors = [z, 1 << (long + s - 1)]
    for off, t in zip(offs, parts):
        if r < t < s:
            vectors.append(1 << (off + t - 1))
        elif t > s:
            vectors += [1 << (off + t - 2), 1 << (off + t - 1)]
    return vectors


def partitions(n: int, smallest: int = 1):
    """Nondecreasing positive tuples summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def format_rows(rows: list[int], n_cols: int, comment: str = "") -> str:
    """The normative text format: a header, then one 0/1 line per row."""
    lines = [f"# {line}" for line in comment.splitlines()]
    lines.append(f"{len(rows)} {n_cols}")
    lines += [" ".join(str((r >> j) & 1) for j in range(n_cols)) for r in rows]
    return "\n".join(lines) + "\n"
