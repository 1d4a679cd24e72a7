"""Subspace classification: invariant, marked, characteristic, hyperinvariant.

Invariant, characteristic and hyperinvariant are one ordered scan over
a few maps commuting with f: f, then units that with I generate the
span of every unit, then the projections that complete the commutant.
Each class tests a prefix, so the first map that moves a basis row
decides all three.  The scan runs in the Jordan chain coordinates of
`nilpotent`, where each map is a shift and a mask, and returns where it
stopped: that map's index and the row it moved out.  It takes a batch
of subspaces and reads the maps once for all of them; a single verdict
is a batch of one.  A reader that reports a witness builds that one map
as a matrix.  Marked checks only the pairs (a, r) of the intersection
criterion that can fail, in the same coordinates, from one graded
echelon of s and one of each f^a s.  `invariant_subspaces` lifts each
invariant subspace once, down the image chain, passing RREF forms from
level to level.  Each lattice yields its own covers: a walk
up from zero for the invariant and the characteristic subspaces, the
shift tuples for the hyperinvariant ones.  `_lattice` picks each family's
walk and refuses, before building a node, a lattice past the cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, DimensionMismatch
from .commutant import _chain_map
from .gf2 import (
    SUBSPACE_ENUM_CAP,
    Gf2Matrix,
    Gf2Vector,
    Subspace,
    _apply_columns,
    _check_subspace_cap,
    _echelonize,
    _lowest_bit,
    _rref_extend,
    _rref_rows,
    _span_table,
    _subspace_rows,
)
from .nilpotent import (
    GeneratorTuple,
    NilpotentOperator,
    _lift,
    _per_operator,
    _tail_mask,
    chain_frame,
    class_span,
    generator_tuple,
)


@dataclass(frozen=True)
class Witness:
    """A commuting map and a member it pushes outside the subspace."""

    matrix: Gf2Matrix
    vector: Gf2Vector


@dataclass(frozen=True)
class ClassificationReport:
    """The four predicate verdicts for one subspace."""

    subspace: Subspace
    invariant: bool
    marked: bool
    characteristic: bool
    hyperinvariant: bool
    invariance_witness: Witness | None = None
    characteristic_witness: Witness | None = None
    hyperinvariance_witness: Witness | None = None


# the kind of the first map that moves s, as _first_exit reports it, or STABLE
MOVED_BY_F, MOVED_BY_UNIT, MOVED_BY_PROJECTION, STABLE = range(4)
# a scanned map: (kind, (c, i, j) or None for f, a, m, b), see _stability_maps
_ScanMap = tuple[int, tuple[int, int, int] | None, int, int, int]
_Lattice = tuple[tuple[Subspace, ...], tuple[tuple[int, int], ...]]


def _stability_maps(f: NilpotentOperator) -> tuple[_ScanMap, ...]:
    """The maps to scan, as (kind, (c, i, j), a, m, b): f (descriptor
    None), units I + N_(c,i,j), then projections P_c = N_(c,c,0).

    The N are elementary chain maps N_(c,i,j) (`commutant._chain_map`):
    consecutive chains of one class, both ways, with j = 0; the first
    chains a < b of adjacent classes, up with j = t_b - t_a and down with
    j = 0; and f P_c = N_(c,c,1) for each single-chain class with t_c >= 2.
    The P_c are the projections of the single-chain classes.

    I + N is stable on s exactly when N is.  As f N_(c,i,j) = N_(c,i,j+1)
    and N_(i,k,j') N_(c,i,j) = N_(c,k,j+j'), products of these N give
    every chain map but the single-chain P_c (in a larger class, P_c =
    N_(i,c,0) N_(c,i,0)).  Each unit is I plus a sum of those, so with I
    the unit prefix generates the span of the units as an algebra, and
    the single-chain P_c complete the commutant.

    In chain coordinates each map moves chains onto chains: it sends x
    to ((x >> a) & m) << b.  f is (0, every bit but the chain ends, 1);
    N_(c,i,j) is (o_c, 2^(t_i - j) - 1, o_i + j), the first t_i - j
    entries of chain c moved to position j of chain i.
    """
    u = generator_tuple(f)
    firsts = [ix[0] for _, ix in u.partition]
    singles = [ix[0] for _, ix in u.partition if len(ix) == 1]
    links = []
    for _, ix in u.partition:
        for a, b in zip(ix, ix[1:]):
            links += [(a, b, 0), (b, a, 0)]
    for a, b in zip(firsts, firsts[1:]):
        links += [(a, b, u.exponents[b] - u.exponents[a]), (b, a, 0)]
    links += [(c, c, 1) for c in singles if u.exponents[c] >= 2]
    chain_maps = [(MOVED_BY_UNIT, link) for link in links]
    chain_maps += [(MOVED_BY_PROJECTION, (c, c, 0)) for c in singles]
    o, t = u.offsets, u.exponents
    ends = _tail_mask(u, [e - 1 for e in t])
    return ((MOVED_BY_F, None, 0, (1 << f.dim) - 1 - ends, 1),) + tuple(
        (kind, (c, i, j), o[c], (1 << (t[i] - j)) - 1, o[i] + j) for kind, (c, i, j) in chain_maps
    )


@_per_operator
def _chain_coordinates(
    f: NilpotentOperator,
) -> tuple[tuple[int, ...] | None, tuple[_ScanMap, ...], tuple[int, ...]]:
    """What classification keeps on the operator: the columns of P^-1 (None
    when it is the identity), the `_stability_maps`, and the masks images[m]
    of Im f^m in chain coordinates, where f^m is (x << m) & images[m]."""
    _, p_inv = chain_frame(f)
    u = generator_tuple(f)
    images = tuple(
        _tail_mask(u, [min(m, t) for t in u.exponents]) for m in range(f.index + 1)
    )
    to_chain = None if p_inv == tuple(1 << j for j in range(f.dim)) else p_inv
    return to_chain, _stability_maps(f), images


def _in_chains(f: NilpotentOperator, s: Subspace) -> tuple[Sequence[int], ...]:
    """P^-1 r for each basis row r of s, in order, and their RREF basis and pivots.

    With P the identity, as for every Jordan matrix with nondecreasing
    blocks, these are the rows of s as they are.
    """
    if s.ambient_dim != f.dim:
        raise DimensionMismatch("subspace does not match the operator")
    to_chain = _chain_coordinates(f)[0]
    if to_chain is None:
        return s.rows, s.rows, s.pivots
    xs = [_apply_columns(to_chain, r) for r in s.rows]
    return (xs, *_echelonize(xs))


def _witness(f: NilpotentOperator, s: Subspace, at: int, row: int) -> Witness:
    """Stability map number `at` as a matrix, with the basis row of s it moves out.

    f is f.mat; each other map is P E P^-1 (`commutant._chain_map`, which
    checks that it commutes with f), plus I for a unit.  The built map is
    checked to move the row out of s.
    """
    kind, link, *_ = _chain_coordinates(f)[1][at]
    if link is None:
        g = f.mat
    else:
        g = _chain_map(f, *link)
        if kind == MOVED_BY_UNIT:
            g = Gf2Matrix.identity(f.dim) + g
            if not g.is_invertible():
                raise AssertionError("stability unit is not invertible")
    if s.contains_bits(g.apply_bits(row)):
        raise AssertionError("the witness map keeps its row inside the subspace")
    return Witness(g, Gf2Vector(row, f.dim))


def _scan(
    f: NilpotentOperator,
    items: Iterable[tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]],
) -> Iterator[tuple[int, int, int | None]]:
    """Scan every stability map, in order, over the basis rows of each subspace, in order.

    Each item is (rows, xs, basis, pivots) for one subspace s: its basis
    rows, their chain coordinates `_in_chains` and the RREF basis and
    pivots of those.  Yields, item by item, (kind, at, row): the kind and
    the index in `_stability_maps` of the first map that moves a basis
    row of s out of s, and that row; (STABLE, number of maps, None) when
    none does.  The kind decides all three classes, and
    `_witness(f, s, at, row)` builds the map for a reader that reports it.

    The scan runs in chain coordinates, where each map is a shift and a
    mask (`_chain_coordinates`), read once for all the items, and builds
    no matrix.  An image is in s when reducing it at the pivots, in
    order, clears it.  A map with mask 0 (f of the zero operator) moves
    nothing and is skipped, but every index counts all the maps.
    """
    maps = _chain_coordinates(f)[1]
    live = [(at, kind, a, m, b) for at, (kind, _, a, m, b) in enumerate(maps) if m]
    stable = (STABLE, len(maps), None)
    for rows, xs, basis, pivots in items:
        for at, kind, a, m, b in live:
            for row, x in zip(rows, xs):
                if y := ((x >> a) & m) << b:
                    for p, r in zip(pivots, basis):
                        if (y >> p) & 1:
                            y ^= r
                    if y:
                        break
            else:
                continue
            yield kind, at, row
            break
        else:
            yield stable


def _first_exit(
    f: NilpotentOperator, s: Subspace, chain: tuple[Sequence[int], ...]
) -> tuple[int, int, int | None]:
    """`_scan` of the one subspace s, given `chain` = `_in_chains(f, s)`,
    which callers share with `_marked`."""
    return next(_scan(f, ((s.rows, *chain),)))


def is_invariant(f: NilpotentOperator, s: Subspace) -> bool:
    return _first_exit(f, s, _in_chains(f, s))[0] != MOVED_BY_F


def is_hyperinvariant(f: NilpotentOperator, s: Subspace) -> tuple[bool, Witness | None]:
    """Stability under everything commuting with f.

    Tested against the whole scan tuple, which generates the commutant
    as an algebra; sums and products extend the verdict to all of it.
    The witness is the first map of the tuple that moves s.
    """
    kind, at, row = _first_exit(f, s, _in_chains(f, s))
    hyper = kind == STABLE
    return hyper, None if hyper else _witness(f, s, at, row)


def is_characteristic(f: NilpotentOperator, s: Subspace) -> tuple[bool, Witness | None]:
    """Stability under every automorphism commuting with f.

    Tested against f and the unit prefix of the scan tuple, which with I
    generates the span of every unit as an algebra; sums and products
    extend the verdict to the whole group, at any size.  So s is
    characteristic exactly when the first map that moves it is a
    projection, or none does.
    """
    kind, at, row = _first_exit(f, s, _in_chains(f, s))
    char = kind > MOVED_BY_UNIT
    return char, None if char else _witness(f, s, at, row)


def is_marked(f: NilpotentOperator, s: Subspace) -> bool:
    """Invariant and meeting the intersection criterion (`_marked`)."""
    return is_invariant(f, s) and _marked(f, _in_chains(f, s)[0])


def _meet(rows: Iterable[int], mask: int) -> tuple[list[int], list[int]]:
    """Rows eliminated on the bits outside `mask`: those that keep such a bit,
    independent outside it, and the nonzero rest, reduced to none there,
    which span span(rows) ∩ the coordinate subspace on the bits of mask."""
    outside: list[tuple[int, int]] = []
    inside = []
    for x in rows:
        for p, b in outside:
            if (x >> p) & 1:
                x ^= b
        if rest := x & ~mask:
            outside.append((_lowest_bit(rest), x))
        elif x:
            inside.append(x)
    return [b for _, b in outside], inside


def _levels(rows: Iterable[int], images: Sequence[int]) -> list[list[int]]:
    """A graded echelon of span(rows): levels[k] holds the rows leading at level
    k, the bits of images[k] outside images[k + 1], `_meet` level by level up.
    No row has a bit below its lead level, and at each level the parts of the
    rows leading there are independent."""
    levels = []
    for above in images[1:]:
        lead, rows = _meet(rows, above)
        levels.append(lead)
    return levels


def _marked(f: NilpotentOperator, rows: Sequence[int]) -> bool:
    """Intersection criterion on an invariant s, given P^-1 of a basis of s
    (`_in_chains`): f^a s ∩ Im f^(a+r) = f^a (s ∩ Im f^r) for all a, r ≥ 0.

    Only the pairs with 1 ≤ a, 1 ≤ r and a + r < index can fail; every
    other pair holds for any s:
    a = 0 gives s ∩ Im f^r on both sides;
    r = 0 gives f^a s on both sides, as f^a s lies inside Im f^a;
    a + r ≥ index gives 0 on both sides, as Im f^(a+r) = 0 and the
    right side lies inside it.
    So an invariant subspace of an operator of index ≤ 2 is marked.

    The right side always lies inside the left, so equal dimensions
    decide each pair.  Both are counted in chain coordinates, where f^a
    is x ↦ (x << a) & images[a] and Im f^m is spanned by the bits of
    level m and above, from one graded echelon (`_levels`) of s and one
    of each f^a s.  In a graded echelon the lowest level of a nonzero
    combination of the rows is the least lead level L among the rows it
    uses: each is zero below its lead level, and at level L only those
    leading at L have bits, whose parts there are independent, so they
    do not cancel.  So V ∩ Im f^m, for V the span, is spanned by the
    rows that lead at m or above, and its dimension is their count.
    Hence dim(f^a s ∩ Im f^(a+r)) counts the rows of f^a s that lead at
    a + r or above, and dim f^a (s ∩ Im f^r) is the rank of f^a of the
    rows of s that lead at r or above, kept running as r falls.  f^a
    sends rows leading at index - a or above to 0, so r starts below.
    """
    if f.index <= 2:
        return True
    images = _chain_coordinates(f)[2]
    levels = _levels(rows, images)
    for a in range(1, f.index - 1):
        mapped = _levels(((x << a) & images[a] for x in rows), images[a:])  # from level a
        form, lhs, pivots = {}, 0, 0
        for r in range(f.index - a - 1, 0, -1):
            lhs += len(mapped[r])
            pivots = _rref_extend(form, pivots, ((x << a) & images[a] for x in levels[r]))
            if pivots.bit_count() != lhs:
                return False
    return True


def _lifts(
    f: NilpotentOperator, k: int, below: Iterable[dict[int, int]], last: bool
) -> Iterator[dict[int, int] | Subspace]:
    """The invariant subspaces X inside U = Im f^k, from those Y = f(X) inside f(U).

    K = Ker f ∩ U.  f maps W = f^-1(Y) ∩ U onto Y with kernel K, so the
    invariant X inside U with f(X) = Y are exactly the X with
    Y ⊆ X ⊆ W and X + K = W.  Take a complement E of Y in Y + K and a
    complement D of Y + K in W, so W = Y ⊕ E ⊕ D.  Then X ↦ X ∩ (E ⊕ D)
    is a bijection onto the subspaces T of E ⊕ D that project onto all
    of D, and X = Y ⊕ T.  In the coordinates of the D rows, then the E
    rows, those T are the RREF shapes with a pivot at each of the first
    dim D positions (`_subspace_rows` with onto = dim D).  Extending Y's
    RREF by the rows of K, then by a preimage of each row of Y, gives E
    and D: the rows at the pivots each step adds, E copied before the
    second step rewrites it.  Each X extends a copy of Y's RREF by T.
    For Y = 0, W = K and D = 0: the X are K's RREF shapes, canonical as
    they come.  K is the socle of level k of `NilpotentOperator.walk`, and
    `_lift` reads the preimages in U of the rows of Y off that level.

    Each Y comes, and each X goes, as its `_rref_extend` form {pivot bit:
    row}, unsorted; the `last` level yields each X as a Subspace instead.
    """
    level = f.walk[k]
    _, kernel = level
    n = f.dim
    if _echelonize(kernel.rows) != (list(kernel.rows), list(kernel.pivots)):
        raise AssertionError("the kernel rows are not canonical")  # RREF is unique
    for y in below:
        if not y:
            shape = None  # _subspace_rows yields one positions tuple per shape
            for rows, at in _subspace_rows(kernel.rows):
                if at is not shape:
                    shape, pivots = at, tuple(kernel.pivots[i] for i in at)
                    bits = tuple(1 << p for p in pivots)
                yield Subspace._canonical(rows, pivots, n) if last else dict(zip(bits, rows))
            continue
        form, mask = dict(y), sum(y)
        with_kernel = _rref_extend(form, mask, kernel.rows)
        e_rows = [x for p, x in form.items() if not p & mask]
        _rref_extend(form, with_kernel, (_lift(level, b) for b in y.values()))
        d_rows = [x for p, x in form.items() if not p & with_kernel]
        for t, _ in _subspace_rows(d_rows + e_rows, onto=len(d_rows)):
            child = dict(y)
            if _rref_extend(child, mask, t).bit_count() != len(y) + len(t):
                raise AssertionError("lifted subspace has the wrong dimension")
            if last:
                basis, pivots = _rref_rows(child)
                yield Subspace._canonical(tuple(basis), tuple(pivots), n)
            else:
                yield child


def invariant_subspaces(f: NilpotentOperator) -> Iterator[Subspace]:
    """Every f-invariant subspace exactly once, lazily, in no set order.

    Sorted by (dim, pivots, rows) they come in `enumerate_subspaces`
    order.  Built down the image chain from the zero subspace of
    Im f^index = 0 to U = GF(2)^n; each level lifts the one below it
    (`_lifts`) as it is read.  The levels in between pass each subspace
    up as its RREF form, and only the last builds Subspace objects.
    The lifting is a bijection, so no subspace is produced twice and
    none is kept.
    """
    level = iter(({},))
    for k in range(f.index - 1, -1, -1):
        level = _lifts(f, k, level, k == 0)
    return level


def _closure(s: Subspace, v: int, maps: Sequence[tuple[int, int, int]]) -> Subspace:
    """The span of s, v and the images of v under words in the maps, for an s they keep."""
    form = dict(zip((1 << p for p in s.pivots), s.rows))
    mask = sum(form)
    pending = [v]
    while pending:
        x = pending.pop()
        if (grown := _rref_extend(form, mask, (x,))) != mask:
            mask = grown
            pending += [((x >> a) & m) << b for a, m, b in maps]
    rows, pivots = _rref_rows(form)
    return Subspace._canonical(tuple(rows), tuple(pivots), s.ambient_dim)


def _stable_lattice(f: NilpotentOperator, through: int) -> _Lattice:
    """The subspaces that the scan maps of kinds up to `through` keep, sorted by
    dimension and basis, and the sorted pairs (i, j) with node j covering node
    i: the invariant subspaces through MOVED_BY_F, the characteristic ones
    through MOVED_BY_UNIT.  Breadth-first up from zero, in chain coordinates.

    A cover Y of a stable X holds a v outside X with f v in X, as Y/X is
    a nilpotent module, and the closure of X + v is stable, inside Y and
    larger than X, so it is Y.  So the covers of X are the minimal
    closures of X + v over the lines v of f^-1(X)/X, and each closure one
    dimension up is one; a larger one is not minimal when it holds every
    row of another.  f^-1(X) is Ker f, spanned by the chain ends, plus
    x >> 1 for each basis row x of X ∩ Im f.  Extending X's RREF by those
    rows, the rows at the new pivots span a complement of X in f^-1(X).
    """
    _, maps, images = _chain_coordinates(f)
    scan = [(a, m, b) for kind, _, a, m, b in maps if kind <= through]
    ends = tuple(1 << (o - 1) for o in generator_tuple(f).offsets[1:])
    covers: dict[Subspace, list[Subspace]] = {}
    level = [Subspace.zero(f.dim)]
    while level:
        for x in level:
            form = dict(zip((1 << p for p in x.pivots), x.rows))
            mask = sum(form)
            _rref_extend(form, mask, ends + tuple(y >> 1 for y in _meet(x.rows, images[1])[1]))
            lines = [r for p, r in form.items() if not p & mask]
            spans = {_closure(x, v, scan) for v in _span_table(lines)[1:]}
            covers[x] = [
                y
                for y in spans
                if y.dim == x.dim + 1
                or not any(z.dim < y.dim and all(map(y.contains_bits, z.rows)) for z in spans)
            ]
        level = {y for x in level for y in covers[x] if y not in covers}
    p, _ = chain_frame(f)
    std = {x: Subspace.span_bits((_apply_columns(p, r) for r in x.rows), f.dim) for x in covers}
    at = {x: i for i, x in enumerate(sorted(covers, key=lambda x: (std[x].dim, std[x].rows)))}
    edges = sorted((at[x], at[y]) for x, ys in covers.items() for y in ys)
    return tuple(std[x] for x in at), tuple(edges)


def _monotone_shift_count(exponents: tuple[int, ...]) -> int:
    """The number of monotone shift tuples (nondecreasing shifts and
    nondecreasing co-shifts) over the exponents, counted without building one.

    The tuples are counted by their last shift: after shift r at exponent t
    the next shift s lies in [r, r + t' - t], so the count at s sums the counts
    at r in [s - (t' - t), s], read off prefix sums.
    """
    counts = [1]  # the virtual shift 0 at exponent 0
    for t, t_next in zip((0,) + exponents, exponents):
        prefix = [0, *itertools.accumulate(counts)]
        counts = [prefix[min(s, t) + 1] - prefix[max(s - t_next + t, 0)] for s in range(t_next + 1)]
    return sum(counts)


@_per_operator
def _hyperinvariant_lattice(f: NilpotentOperator) -> _Lattice:
    """`hyperinvariant_lattice` and its covering pairs: node j covers node i exactly
    when j's shift tuple is i's with one exponent class's shift lowered by 1.

    Equal exponents force equal shifts, so a node is one shift r_c per exponent
    class c, with class exponents t_1 < ... < t_m.  In chain coordinates a node
    is the coordinate subspace of the entries f^j u_k with j >= r_c, so span(r)
    lies in span(r') exactly when r >= r' entrywise, and the lattice is the
    set of monotone tuples in reverse order.  Those are the integer points of
    0 <= r_1 <= t_1 and r_c <= r_(c+1) <= r_c + d_c, with d_c = t_(c+1) - t_c >= 1.
    Lowering one r_c by 1 is a cover, as no tuple lies strictly between.  Every cover is one: take r > r' in the set, and Q
    the classes where r_c > r'_c.  Lowering r_c by 1 breaks a constraint only if
    it is tight.  r_1 = 0 cannot hold for 1 in Q, as r'_1 >= 0.  If r_c = r_(c-1),
    then c - 1 is in Q too; if r_(c+1) = r_c + d_c, then c + 1 is in Q too.
    Both ties at one pair would need d_c = 0, so tight steps never turn back.
    Followed from any class of Q, they end at a class of Q with no tight
    constraint, and lowering it stays in the set and above r'.

    The walk starts at zero, r = (t_c), and lowers one shift at a time.  Each
    node is built once, from the first node it covers that the walk reaches:
    that node's RREF form, extended by the entries f^(r_c) u_k of class c, must
    gain one row per generator of the class, which by induction from zero is
    the dimension sum((t_c - r_c) |c|) of the node.
    """
    u = generator_tuple(f)
    exponents = [t for t, _ in u.partition]
    classes = [[u.chains[k] for k in ix] for _, ix in u.partition]
    # r_c may drop to r_(c-1), and r_(c+1) - r_c may grow to d_c
    gaps = [t_next - t for t, t_next in zip(exponents, exponents[1:])]
    top = tuple(exponents)
    forms: dict[tuple[int, ...], tuple[dict[int, int], int]] = {top: ({}, 0)}  # form, pivot mask
    covers: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    walk = [top]
    for p in walk:  # grows as new nodes are reached
        form, mask = forms[p]
        below = 0
        for c, r in enumerate(p):
            if r > below and (c + 1 == len(p) or p[c + 1] - r < gaps[c]):
                s = p[:c] + (r - 1,) + p[c + 1 :]
                covers.append((p, s))
                if s not in forms:
                    grown = dict(form)
                    grown_mask = _rref_extend(grown, mask, (chain[r - 1] for chain in classes[c]))
                    if len(grown) != len(form) + len(classes[c]):
                        raise AssertionError("shifted chains failed to stay independent")
                    forms[s] = grown, grown_mask
                    walk.append(s)
            below = r
    spans = []
    for s, (form, _) in forms.items():
        rows, pivots = _rref_rows(form)
        spans.append((Subspace._canonical(tuple(rows), tuple(pivots), f.dim), s))
    spans.sort(key=lambda x: (x[0].dim, x[0].rows))
    at = {s: i for i, (_, s) in enumerate(spans)}
    edges = sorted((at[p], at[s]) for p, s in covers)
    return tuple(x for x, _ in spans), tuple(edges)


def hyperinvariant_lattice(f: NilpotentOperator) -> tuple[Subspace, ...]:
    """Every hyperinvariant subspace, sorted by dimension and basis.

    These are exactly the spans of the monotone-shifted chains (Fillmore,
    Herrero and Longstaff, LAA 17, 1977), one per monotone shift tuple.
    """
    return _hyperinvariant_lattice(f)[0]


def _lattice(f: NilpotentOperator, which: str) -> _Lattice:
    """The "inv", "chinv" or "hinv" lattice of f: its nodes, sorted by dimension
    and basis, and its covering pairs; CapExceeded before any node is built.

    hinv has one node per monotone shift tuple of the class exponents, counted
    first.  inv and chinv are walked only in a space with at most
    SUBSPACE_ENUM_CAP subspaces, which bounds their nodes.
    """
    if which == "hinv":
        count = _monotone_shift_count(tuple(t for t, _ in generator_tuple(f).partition))
        if count > SUBSPACE_ENUM_CAP:
            message = f"the hyperinvariant lattice has {count} nodes"
            raise CapExceeded(f"{message}, above the cap of {SUBSPACE_ENUM_CAP}")
        return hyperinvariant_lattice(f), _hyperinvariant_lattice(f)[1]
    _check_subspace_cap(f.dim)
    return _stable_lattice(f, {"inv": MOVED_BY_F, "chinv": MOVED_BY_UNIT}[which])


def largest_hyperinvariant_inside(
    f: NilpotentOperator, u: GeneratorTuple, s: Subspace
) -> Subspace:
    """The sum of the intersections with each equal-exponent summand.

    For a characteristic subspace this is the largest hyperinvariant
    subspace it contains.
    """
    acc = Subspace.zero(f.dim)
    for mu in range(u.class_count):
        acc = acc.sum(s.intersect(class_span(f, u, mu)))
    return acc


def classify(f: NilpotentOperator, s: Subspace) -> ClassificationReport:
    """All four verdicts from one stability scan plus the intersection
    criterion, with hyperinvariant = characteristic and marked enforced."""
    chain = _in_chains(f, s)
    kind, at, row = _first_exit(f, s, chain)
    bad = None if kind == STABLE else _witness(f, s, at, row)
    if kind == MOVED_BY_F:
        return ClassificationReport(s, False, False, False, False, invariance_witness=bad)
    marked = _marked(f, chain[0])
    char = kind > MOVED_BY_UNIT
    if (bad is None) != (char and marked):
        raise AssertionError("hyperinvariant must coincide with characteristic-and-marked")
    return ClassificationReport(
        s,
        invariant=True,
        marked=marked,
        characteristic=char,
        hyperinvariant=bad is None,
        characteristic_witness=None if char else bad,
        hyperinvariance_witness=bad,
    )
