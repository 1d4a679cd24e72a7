"""Bit-packed exact linear algebra over GF(2).

Vectors and matrix rows are Python ints used as bitsets: bit j holds
coordinate j, so a row operation is a single XOR no matter how wide the
row is.  Subspaces are stored in reduced row echelon form with strictly
increasing pivots, which makes equality of spans plain value equality.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapExceeded,
    DimensionMismatch,
    ParseError,
    SingularMatrix,
)

VECTOR_ENUM_CAP = 24            # enumerate_vectors refuses above 2**24 members
SUBSPACE_ENUM_CAP = 1 << 24     # _subspace_rows refuses longer streams


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _rref_extend(form: dict[int, int], pivot_mask: int, rows: Iterable[int]) -> int:
    """Add rows to an RREF kept as {pivot bit: row}; returns the new pivot mask.

    `pivot_mask` is the OR of the pivot bits (each row's lowest set bit).
    Every row is zero at every other row's pivot, so one XOR clears
    exactly one pivot bit of an incoming row, and only the pivot bits it
    holds are visited.  The mask grows exactly when a row is independent.
    """
    for row in rows:
        hits = row & pivot_mask
        while hits:
            low = hits & -hits
            row ^= form[low]
            hits ^= low
        if row:
            low = row & -row
            for p, other in form.items():
                if other & low:
                    form[p] = other ^ row
            form[low] = row
            pivot_mask |= low
    return pivot_mask


def _rref_rows(form: dict[int, int]) -> tuple[list[int], list[int]]:
    """The rows of an `_rref_extend` form and their pivot columns, by pivot."""
    order = sorted(form)
    return [form[p] for p in order], [p.bit_length() - 1 for p in order]


def _echelonize(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduce int-packed rows to RREF.

    Returns (basis, pivots), both sorted by pivot column; zero rows are
    dropped and every pivot column is cleared in all other rows.
    """
    form: dict[int, int] = {}
    _rref_extend(form, 0, rows)
    return _rref_rows(form)


def _bit_row(bits: int, width: int, sep: str) -> str:
    """Coordinates 0 .. width-1 of a packed row as 0/1 digits joined by sep."""
    return sep.join(format(bits, f"0{width}b")[::-1])


def _transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The `width` columns of nonempty packed rows, each packed over the rows.

    Each row in binary, top bit first; read from the last row up, the
    c-th character of every row is column width - 1 - c, row 0 lowest.
    """
    text = [format(r, f"0{width}b") for r in reversed(rows)]
    return tuple(int("".join(col), 2) for col in reversed(tuple(zip(*text))))


def _apply_columns(columns: Sequence[int], bits: int) -> int:
    """Mv for the matrix M of these packed columns: those at the set bits of v."""
    out = 0
    while bits:
        low = bits & -bits
        out ^= columns[low.bit_length() - 1]
        bits ^= low
    return out


def _reduce_against(bits: int, basis: tuple[int, ...], pivots: tuple[int, ...]) -> int:
    for p, b in zip(pivots, basis):
        if (bits >> p) & 1:
            bits ^= b
    return bits


@dataclass(frozen=True)
class Gf2Vector:
    """A packed vector in GF(2)^dim; bit j is coordinate j."""

    bits: int
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("vector dimension must be positive")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError("bits set beyond the declared dimension")

    @classmethod
    def zero(cls, dim: int) -> Gf2Vector:
        return cls(0, dim)

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> Gf2Vector:
        coords = list(coords)
        bits = 0
        for j, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits |= c << j
        return cls(bits, len(coords))

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: Gf2Vector) -> Gf2Vector:
        if self.dim != other.dim:
            raise DimensionMismatch("vector dimensions differ")
        return Gf2Vector(self.bits ^ other.bits, self.dim)

    def to_text(self) -> str:
        return _bit_row(self.bits, self.dim, " ")

    def __repr__(self) -> str:
        return f"Gf2Vector({self.to_text()!r})"


@dataclass(frozen=True)
class Gf2Matrix:
    """A dense matrix over GF(2) acting on column vectors, v -> Mv.

    Rows are packed ints over n_cols bits; n_rows may be zero (the empty
    basis of the zero subspace in file form).
    """

    rows: tuple[int, ...]
    n_cols: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.n_cols < 1:
            raise ValueError("matrix width must be positive")
        for r in self.rows:
            if not 0 <= r < (1 << self.n_cols):
                raise ValueError("row bits set beyond the declared width")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        return cls(tuple(1 << i for i in range(n)), n)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> Gf2Matrix:
        return cls((0,) * n_rows, n_cols)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> Gf2Matrix:
        vecs = [Gf2Vector.from_coords(r) for r in rows]
        if not vecs:
            raise ValueError("from_rows needs at least one row")
        width = vecs[0].dim
        if any(v.dim != width for v in vecs):
            raise DimensionMismatch("rows have unequal length")
        return cls(tuple(v.bits for v in vecs), width)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    @functools.cached_property
    def _columns(self) -> tuple[int, ...]:
        """Column j packed over the rows, built once per matrix and kept out of
        the fields, so equality, hashing and repr still read the rows alone."""
        if not self.rows:
            return (0,) * self.n_cols
        return _transpose(self.rows, self.n_cols)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def apply_bits(self, bits: int) -> int:
        """Mv as the sum of the columns at the set bits of v."""
        return _apply_columns(self._columns, bits)

    def apply(self, v: Gf2Vector) -> Gf2Vector:
        if v.dim != self.n_cols:
            raise DimensionMismatch("vector dimension does not match matrix width")
        return Gf2Vector(self.apply_bits(v.bits), self.n_rows)

    def __matmul__(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.n_cols != other.n_rows:
            raise DimensionMismatch("inner dimensions differ")
        out = []
        for bits in self.rows:
            acc = 0
            while bits:
                low = bits & -bits
                acc ^= other.rows[low.bit_length() - 1]
                bits ^= low
            out.append(acc)
        return Gf2Matrix(tuple(out), other.n_cols)

    def __add__(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols:
            raise DimensionMismatch("matrix shapes differ")
        return Gf2Matrix(tuple(a ^ b for a, b in zip(self.rows, other.rows)), self.n_cols)

    def rank(self) -> int:
        basis, _ = _echelonize(self.rows)
        return len(basis)

    def kernel(self) -> Subspace:
        """The solution space {v : Mv = 0}, canonicalized.

        Each column c_j paired with its unit vector, c_j | 1 << (m + j) for
        m rows, reduces as `inverse` does: the rows pivoted at m or above
        have zero low halves, and their high halves are the kernel in RREF.
        """
        m = self.n_rows
        basis, pivots = _echelonize(c | 1 << (m + j) for j, c in enumerate(self._columns))
        k = sum(p < m for p in pivots)
        return Subspace._canonical(
            tuple(b >> m for b in basis[k:]), tuple(p - m for p in pivots[k:]), self.n_cols
        )

    def image(self) -> Subspace:
        """The column space {Mv}, canonicalized."""
        if self.n_rows == 0:
            raise DimensionMismatch("image of an empty matrix is undefined")
        return Subspace.span_bits(self._columns, self.n_rows)

    def map_subspace(self, s: Subspace) -> Subspace:
        """The image {Mv : v in s}, canonicalized."""
        if s.ambient_dim != self.n_cols:
            raise DimensionMismatch("subspace ambient dimension does not match")
        return Subspace.span_bits((self.apply_bits(r) for r in s.rows), self.n_rows)

    def is_invertible(self) -> bool:
        return self.is_square() and self.rank() == self.n_cols

    def inverse(self) -> Gf2Matrix:
        if not self.is_square():
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.n_cols
        aug = [row | (1 << (n + i)) for i, row in enumerate(self.rows)]
        basis, pivots = _echelonize(aug)
        if pivots != list(range(n)):
            raise SingularMatrix("matrix has no inverse over GF(2)")
        return Gf2Matrix(tuple(r >> n for r in basis), n)

    def to_text(self) -> str:
        return "\n".join(_bit_row(r, self.n_cols, " ") for r in self.rows)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^ambient_dim as a canonical RREF basis.

    Canonicity is the equality witness: two Subspace values are equal as
    sets exactly when their fields are equal.
    """

    rows: tuple[int, ...]
    ambient_dim: int
    pivots: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        pivots = []
        for r in self.rows:
            if r == 0 or r >= (1 << self.ambient_dim):
                raise ValueError("basis rows must be nonzero and within the ambient space")
            pivots.append(_lowest_bit(r))
        if any(a >= b for a, b in zip(pivots, pivots[1:])):
            raise ValueError("basis pivots must strictly increase")
        for i, p in enumerate(pivots):
            for k, r in enumerate(self.rows):
                if k != i and (r >> p) & 1:
                    raise ValueError("pivot columns must be cleared in other rows")
        object.__setattr__(self, "pivots", tuple(pivots))

    @classmethod
    def _canonical(
        cls, rows: tuple[int, ...], pivots: tuple[int, ...], ambient_dim: int
    ) -> Subspace:
        """Wrap rows already in RREF, with their pivots, skipping the O(k^2) check.

        Only for rows that `_echelonize` or an RREF-preserving construction
        produced; anything from outside goes through the checking constructor.
        """
        s = object.__new__(cls)
        # one write through s.__dict__ would be faster, but would give each
        # instance a dict of its own: 248 bytes per Subspace instead of 104 on
        # CPython 3.11
        object.__setattr__(s, "rows", rows)
        object.__setattr__(s, "ambient_dim", ambient_dim)
        object.__setattr__(s, "pivots", pivots)
        return s

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls((), ambient_dim)

    @classmethod
    def span_bits(cls, bits: Iterable[int], ambient_dim: int) -> Subspace:
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        basis, pivots = _echelonize(bits)
        if basis and max(basis).bit_length() > ambient_dim:
            raise ValueError("basis rows must be nonzero and within the ambient space")
        return cls._canonical(tuple(basis), tuple(pivots), ambient_dim)

    @classmethod
    def span(cls, vectors: Iterable[Gf2Vector], ambient_dim: int) -> Subspace:
        collected = []
        for v in vectors:
            if v.dim != ambient_dim:
                raise DimensionMismatch("spanning vector has wrong dimension")
            collected.append(v.bits)
        return cls.span_bits(collected, ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[Gf2Vector, ...]:
        return tuple(Gf2Vector(r, self.ambient_dim) for r in self.rows)

    def contains_bits(self, bits: int) -> bool:
        return _reduce_against(bits, self.rows, self.pivots) == 0

    def contains(self, v: Gf2Vector) -> bool:
        if v.dim != self.ambient_dim:
            raise DimensionMismatch("vector dimension does not match ambient space")
        return self.contains_bits(v.bits)

    def sum(self, other: Subspace) -> Subspace:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        return Subspace.span_bits(self.rows + other.rows, self.ambient_dim)

    def intersect(self, other: Subspace) -> Subspace:
        """Zassenhaus on packed rows: eliminate [A|A] and [B|0] blocks."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        n = self.ambient_dim
        mask = (1 << n) - 1
        stacked = [r | (r << n) for r in self.rows] + list(other.rows)
        basis, _ = _echelonize(stacked)
        return Subspace.span_bits((r >> n for r in basis if (r & mask) == 0), n)

    def enumerate_vectors(self, cap: int = VECTOR_ENUM_CAP) -> list[Gf2Vector]:
        """All 2**dim members, in subset order of the canonical basis."""
        if self.dim > cap:
            raise CapExceeded(
                f"enumerating 2**{self.dim} vectors exceeds the cap of 2**{cap}",
                required=1 << self.dim,
            )
        return [Gf2Vector(bits, self.ambient_dim) for bits in _span_table(self.rows)]

    def to_text(self) -> str:
        return "\n".join(_bit_row(r, self.ambient_dim, " ") for r in self.rows)

    def __str__(self) -> str:
        return self.to_text() if self.rows else "(zero subspace)"


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= (1 << n) - (1 << i)
        den *= (1 << k) - (1 << i)
    return num // den


def subspace_count(n: int) -> int:
    return sum(gaussian_binomial(n, k) for k in range(n + 1))


# the least n with more than SUBSPACE_ENUM_CAP subspaces in GF(2)^n; the count
# rises with n, so every larger n is past the cap too
_FIRST_PAST_CAP = next(n for n in itertools.count() if subspace_count(n) > SUBSPACE_ENUM_CAP)


def _check_subspace_cap(n: int) -> None:
    """CapExceeded when GF(2)^n has more than SUBSPACE_ENUM_CAP subspaces.

    Below `_FIRST_PAST_CAP` it counts nothing.  At it, the message and
    `required` carry the exact count.  Past it, the exact count would take
    seconds at n in the hundreds and have too many digits to print, so the
    message gives a lower bound: the subspaces of dimension k = n // 2 alone
    number at least 2^(k(n-k)).
    """
    if n < _FIRST_PAST_CAP:
        return
    if n == _FIRST_PAST_CAP:
        total = subspace_count(n)
        message = f"GF(2)^{n} has {total} subspaces, above the cap of {SUBSPACE_ENUM_CAP}"
        raise CapExceeded(message, required=total)
    k = n // 2
    bound = f"more than 2^{k * (n - k)}"
    raise CapExceeded(f"GF(2)^{n} has {bound} subspaces, above the cap of {SUBSPACE_ENUM_CAP}")


def _span_table(rows: Sequence[int]) -> list[int]:
    """Every sum of `rows`: entry r sums the rows at the bits of r."""
    span = [0]
    for b in rows:
        span += [v ^ b for v in span]
    return span


def _subspace_rows(
    basis: Sequence[int], onto: int = 0
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every subspace of span(basis) whose coordinates project onto the first `onto`.

    Each subspace is its RREF in the coordinates of the independent
    `basis`: pivot positions, in `itertools.combinations` order, holding
    0 ... onto-1; and for pivot p a row basis[p] plus a sum of the later
    basis vectors at no pivot.  Yields (rows, pivot positions), each
    subspace once.  Over an RREF basis with increasing pivots the rows
    are again in RREF.  Refuses a basis whose span has more than
    SUBSPACE_ENUM_CAP subspaces.
    """
    m = len(basis)
    _check_subspace_cap(m)
    head = tuple(range(onto))
    for k in range(onto, m + 1):
        for rest in itertools.combinations(range(onto, m), k - onto):
            pivots = head + rest
            choices = []
            for p in pivots:
                free = [basis[q] for q in range(p + 1, m) if q not in pivots]
                choices.append([basis[p] ^ v for v in _span_table(free)])
            for rows in itertools.product(*choices):
                yield rows, pivots


def enumerate_subspaces(n: int) -> Iterator[Subspace]:
    """Every subspace of GF(2)^n exactly once, by RREF shape.

    The RREF shapes over the unit vectors, so each canonical basis is
    produced directly and no deduplication pass is needed.  Refuses
    GF(2)^n with more than SUBSPACE_ENUM_CAP subspaces.
    """
    if n < 1:
        raise ValueError("ambient dimension must be positive")
    for rows, pivots in _subspace_rows([1 << i for i in range(n)]):
        yield Subspace._canonical(rows, pivots, n)


def _data_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


def parse_matrix(text: str) -> Gf2Matrix:
    """Parse the normative text format: 'n_rows n_cols' then 0/1 rows."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("header must be 'n_rows n_cols'")
    try:
        n_rows, n_cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError("header must contain two integers") from exc
    if n_rows < 0 or n_cols < 1:
        raise ParseError("header dimensions out of range")
    if len(lines) - 1 != n_rows:
        raise ParseError(f"expected {n_rows} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n_cols:
            raise ParseError(f"expected {n_cols} entries per row")
        digits = "".join(reversed(tokens))  # coordinate j is bit j
        if len(digits) != n_cols or digits.strip("01"):
            raise ParseError("entries must be 0 or 1")
        rows.append(int(digits, 2))
    return Gf2Matrix(tuple(rows), n_cols)


def format_matrix(m: Gf2Matrix) -> str:
    body = m.to_text()
    header = f"{m.n_rows} {m.n_cols}"
    return header + ("\n" + body if body else "")


def parse_subspace(text: str) -> Subspace:
    """Parse basis rows in matrix format and canonicalize the span."""
    m = parse_matrix(text)
    return Subspace.span_bits(m.rows, m.n_cols)


def format_subspace(s: Subspace) -> str:
    return format_matrix(Gf2Matrix(s.rows, s.ambient_dim))
