import dataclasses
import functools
import itertools
from bisect import bisect

import pytest
from hypothesis import strategies as st

from gf2hyper import (
    AdmissibleTuple,
    GeneratorTuple,
    Gf2Matrix,
    Gf2Vector,
    NotAGeneratorTuple,
    NotNilpotent,
    NotSquare,
    SingularMatrix,
    Subspace,
    exponent,
    generator_tuple,
    ulm_sequence,
    validate_nilpotent,
)
from gf2hyper.classify import (
    MOVED_BY_F,
    MOVED_BY_PROJECTION,
    MOVED_BY_UNIT,
    STABLE,
)
from gf2hyper.commutant import _chain_map
from gf2hyper.errors import DimensionMismatch, ParseError
from gf2hyper.gf2 import _rref_extend, _rref_rows
from gf2hyper.nilpotent import jordan_matrix


# the shapes of the benchmark's large workload: n = 24 to 33, index 7 to 16
LARGE_SHAPES = (
    (1, 3, 5, 7, 9),
    (2, 3, 5, 7, 9),
    (1, 2, 3, 4, 6, 8),
    (4, 6, 8, 10),
    (1, 2, 3, 4, 5, 6, 7),
    (1, 2, 4, 8, 16),
    (1, 1, 2, 3, 5, 8, 13),
)


def monotone_shift_condition(
    exponents: tuple[int, ...] | list[int], shifts: AdmissibleTuple | tuple[int, ...]
) -> bool:
    """Oracle for classify._monotone_shifts: nondecreasing shifts with
    nondecreasing co-shifts, tested on one given tuple."""
    r = shifts.shifts if isinstance(shifts, AdmissibleTuple) else tuple(shifts)
    if any(x > y for x, y in zip(r, r[1:])):
        return False
    co = [t - x for t, x in zip(exponents, r)]
    return all(x <= y for x, y in zip(co, co[1:]))


def monotone_shifts(exponents: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Oracle for classify._monotone_shift_count and the hinv walk: every shift
    tuple with nondecreasing shifts and nondecreasing co-shifts.

    Exactly these tuples have a chain span that does not depend on the
    choice of generators; those spans are the hyperinvariant subspaces.
    After shift r at exponent t, the next shift at exponent t' lies in
    [r, r + t' - t]: the lower bound keeps the shifts nondecreasing and
    the upper bound the co-shifts, so no tuple is built and then dropped.
    """
    tuples = [(0,)]  # a virtual shift 0 at exponent 0 starts every tuple
    for t, t_next in zip((0,) + exponents, exponents):
        tuples = [r + (s,) for r in tuples for s in range(r[-1], r[-1] + t_next - t + 1)]
    return [r[1:] for r in tuples]


def chain_matrix(f, u):
    """Oracle for nilpotent.chain_frame: the basis-change matrix P whose
    columns are the Jordan chains of u, read entry by entry."""
    cols = [b for c in u.chains for b in c]
    return Gf2Matrix(
        tuple(sum(((b >> i) & 1) << k for k, b in enumerate(cols)) for i in range(f.dim)), f.dim
    )


def contains_subspace(outer, inner):
    """Oracle for subspace containment: every basis row of inner lies in outer."""
    assert outer.ambient_dim == inner.ambient_dim
    return all(outer.contains_bits(r) for r in inner.rows)


@functools.lru_cache(maxsize=None)
def stability_matrices(f):
    """Oracle for classify._stability_maps: the (kind, map) pairs to scan,
    each map built as a matrix: f, units I + N_(c,i,j), then projections P_c.

    The same links in the same order: consecutive chains of one class both
    ways with j = 0, the first chains of adjacent classes up with
    j = t_b - t_a and down with j = 0, f P_c for each single-chain class
    with t_c >= 2; then the single-chain projections.
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
    maps = [(MOVED_BY_F, f.mat)]
    for c, i, j in links:
        g = Gf2Matrix.identity(f.dim) + _chain_map(f, c, i, j)
        if not g.is_invertible():
            raise AssertionError("stability unit is not invertible")
        maps.append((MOVED_BY_UNIT, g))
    maps += [(MOVED_BY_PROJECTION, _chain_map(f, c, c, 0)) for c in singles]
    return tuple(maps)


def first_exit_by_matrices(f, s, chain):
    """Oracle for classify._first_exit: every map of `stability_matrices`
    applied as a matrix to each basis row of s, in order.  The chain rows
    that `_first_exit` is handed are not read."""
    if s.ambient_dim != f.dim:
        raise DimensionMismatch("subspace does not match the operator")
    maps = stability_matrices(f)
    for at, (kind, g) in enumerate(maps):
        for r in s.rows:
            if not s.contains_bits(g.apply_bits(r)):
                return kind, at, r
    return STABLE, len(maps), None


def covering_edges_by_triple_scan(nodes):
    """Oracle for the covering pairs of a lattice: (i, j) with node i strictly
    inside node j, unless some node k sits strictly between."""
    count = len(nodes)
    above = [0] * count
    for i in range(count):
        for j in range(count):
            if i != j and nodes[i] != nodes[j] and contains_subspace(nodes[j], nodes[i]):
                above[i] |= 1 << j
    edges = []
    for i in range(count):
        sup = above[i]
        m = sup
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if not any(
                (above[k] >> j) & 1
                for k in range(count)
                if k != j and (sup >> k) & 1
            ):
                edges.append((i, j))
    return edges


def coordinate_rows(rows, width):
    """Packed rows as lists of their 0/1 coordinates, one int per coordinate."""
    return [[r >> j & 1 for j in range(width)] for r in rows]


def json_tree(x):
    """Oracle for cli._dumps: the JSON tree of x, with a matrix, subspace or
    vector by its `coordinate_rows`, any other dataclass by its fields in
    declaration order, a tuple as a list, and dicts and lists item by item."""
    if isinstance(x, Gf2Matrix):
        return {"n_rows": x.n_rows, "n_cols": x.n_cols, "rows": coordinate_rows(x.rows, x.n_cols)}
    if isinstance(x, Subspace):
        return {"ambient_dim": x.ambient_dim, "basis": coordinate_rows(x.rows, x.ambient_dim)}
    if isinstance(x, Gf2Vector):
        return coordinate_rows([x.bits], x.dim)[0]
    if dataclasses.is_dataclass(x):
        return {f.name: json_tree(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: json_tree(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_tree(v) for v in x]
    return x


# (width, packed rows): widths 1 to 130, so rows wider than a machine word,
# and lists of up to five rows, the empty list included
PACKED_ROWS = st.integers(1, 130).flatmap(
    lambda width: st.tuples(st.just(width), st.lists(st.integers(0, (1 << width) - 1), max_size=5))
)


def parse_rows_by_token(rows, width):
    """Oracle for the rows of gf2.parse_matrix: each row of tokens packed one
    token at a time, with the same ParseError for a wrong entry count or an
    entry other than 0 or 1."""
    out = []
    for tokens in rows:
        if len(tokens) != width:
            raise ParseError(f"expected {width} entries per row")
        bits = 0
        for j, tok in enumerate(tokens):
            if tok not in ("0", "1"):
                raise ParseError("entries must be 0 or 1")
            bits |= (tok == "1") << j
        out.append(bits)
    return tuple(out)


def echelonize_by_insertion(rows):
    """Oracle for gf2._echelonize: reduce each row against every pivot in
    turn, insert it in pivot order and clear its pivot from the others."""
    basis = []
    pivots = []
    for row in rows:
        for p, b in zip(pivots, basis):
            if (row >> p) & 1:
                row ^= b
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        at = bisect(pivots, p)
        pivots.insert(at, p)
        basis.insert(at, row)
        for i, other in enumerate(basis):
            if i != at and (other >> p) & 1:
                basis[i] = other ^ row
    return basis, pivots


def apply_by_row_parity(m, bits):
    """Oracle for Gf2Matrix.apply_bits: coordinate i of Mv is the parity of row i and v."""
    out = 0
    for i, r in enumerate(m.rows):
        out |= ((r & bits).bit_count() & 1) << i
    return out


def power_tower(f):
    """Oracle for validate_nilpotent: the powers f^j for j = 0..index, by products."""
    powers = [Gf2Matrix.identity(f.dim)]
    for _ in range(f.index):
        powers.append(powers[-1] @ f.mat)
    return tuple(powers)


def paired_rref_walk(m):
    """Oracle for validate_nilpotent: the paired walk with every level in RREF.

    At level j the rows f(b) | b << n, for b in the RREF basis of Im f^j,
    reduce to RREF: the rows pivoted below n pair the RREF of Im f^(j+1)
    with preimages in Im f^j, and the rows pivoted at n or above hold the
    RREF of Ker f ∩ Im f^j.  A preimage of y in Im f^(j+1) is the sum of
    the preimages at the pivots y holds.  At exponent a, each socle row of
    Ker f ∩ Im f^(a-1) independent of those taken is lifted level by level
    to a generator.  Returns the index, the levels as (preimages {pivot
    bit of a row of Im f^(j+1): preimage}, socle) and the generator bits,
    exponents ascending.
    """
    if not m.is_square():
        raise NotSquare("operator must be square")
    n = m.n_cols
    low_half = (1 << n) - 1
    rows = tuple(1 << i for i in range(n))
    walk = []
    while rows:
        paired = {}
        _rref_extend(paired, 0, (m.apply_bits(b) | b << n for b in rows))
        basis, pivots = _rref_rows(paired)
        k = sum(p < n for p in pivots)
        if k == len(basis):
            raise NotNilpotent(f"matrix is not nilpotent: f^{n} != 0")
        socle = Subspace(tuple(b >> n for b in basis[k:]), n)
        walk.append(({b & -b: b >> n for b in basis[:k]}, socle))
        rows = tuple(b & low_half for b in basis[:k])
    taken = Subspace.zero(n)
    generators = []
    for a in range(len(walk), 0, -1):
        lifted = []
        for bits in walk[a - 1][1].rows:
            if taken.contains_bits(bits):
                continue
            taken = taken.sum(Subspace.span_bits([bits], n))
            for preimages, _ in reversed(walk[: a - 1]):
                bits = sum_preimages(preimages, bits)
            lifted.append(bits)
        generators[:0] = lifted
    return len(walk), tuple(walk), tuple(generators)


def sum_preimages(preimages, bits):
    """A preimage of bits from a level of `paired_rref_walk`: in the RREF basis of
    Im f^(j+1) the coordinates of bits are its bits at the pivots."""
    out = 0
    for pivot, b in preimages.items():
        if bits & pivot:
            out ^= b
    return out


def make_generator_tuple(f, generators):
    """Oracle for nilpotent.generator_tuple: validate that the vectors decompose
    the space into cyclic summands, walking each generator under f.

    The walks are the chains and their lengths the exponents; inverting the
    matrix whose rows are the chain entries proves the chains independent,
    and its inverse's rows are P^-1's columns.
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
    partition = tuple(
        (a, tuple(i for i, _ in group))
        for a, group in itertools.groupby(enumerate(exps), key=lambda item: item[1])
    )
    offsets = tuple(itertools.accumulate(exps, initial=0))
    return GeneratorTuple(gens, exps, partition, tuple(chains), offsets, inverse.rows)


def generator_tuple_by_intersection(f):
    """Oracle for nilpotent.generator_tuple on Jordan matrices, in either
    block order, where the lifted Jordan basis is exactly this pick: scan
    the canonical basis of Ker f^a, testing f^(a-1) b against the blocked
    span Ker f ∩ Im f^a (a Zassenhaus intersection) plus the socle images
    picked so far, re-summed after every pick.  On other bases the two
    generator tuples differ; only their socle images are pinned there.
    Returns the generators."""
    socle = f.kernel_chain[1]
    ulm = ulm_sequence(f)
    committed = []
    picked = {}
    for a in range(f.index, 0, -1):
        need = ulm.count(a)
        if need == 0:
            continue
        deeper = socle.intersect(f.image_chain[a])
        blocked = deeper.sum(Subspace.span_bits(committed, f.dim))
        # a row passed over stays blocked, so each pick resumes the scan
        candidates = iter(f.kernel_chain[a].rows)
        picks = []
        for _ in range(need):
            for b in candidates:
                w = b
                for _ in range(a - 1):
                    w = f.mat.apply_bits(w)
                if not blocked.contains_bits(w):
                    picks.append(b)
                    committed.append(w)
                    blocked = blocked.sum(Subspace.span_bits([w], f.dim))
                    break
            else:
                raise AssertionError("socle filtration exhausted prematurely")
        picked[a] = picks
    return tuple(Gf2Vector(b, f.dim) for a in sorted(picked) for b in picked[a])


def random_invertible(rng, n):
    while True:
        m = Gf2Matrix(tuple(rng.getrandbits(n) for _ in range(n)), n)
        if m.is_invertible():
            return m


def cyclic_subspace(f, x):
    """Oracle for the stored Jordan chains: span{f^i x : i >= 0}, walked afresh."""
    chain = []
    bits = x.bits
    while bits:
        chain.append(bits)
        bits = f.mat.apply_bits(bits)
    return Subspace.span_bits(chain, f.dim)


def automorphism_from_images(f, u, images):
    """Oracle for the unit-group generators: the unique commuting
    automorphism with alpha(f^j u_i) = f^j images[i], chain by chain.

    The images must form a generator tuple with matching exponents;
    anything else raises ValueError.
    """
    images = tuple(images)
    if len(images) != len(u.generators):
        raise ValueError("image count does not match the generator count")
    for img, t in zip(images, u.exponents):
        if img.dim != f.dim:
            raise ValueError("image dimension does not match the operator")
        if exponent(f, img) != t:
            raise ValueError(f"image exponent {exponent(f, img)} != generator exponent {t}")
    try:
        target = make_generator_tuple(f, images)
    except NotAGeneratorTuple as exc:
        raise ValueError(str(exc)) from exc
    alpha = chain_matrix(f, target) @ chain_matrix(f, u).inverse()
    if alpha @ f.mat != f.mat @ alpha:
        raise AssertionError("automorphism from images does not commute with f")
    return alpha


def _mixing_matrix(k):
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


def complementary_automorphism_pair(f):
    """Two commuting automorphisms beta and beta + I of a homogeneous operator.

    Their sum is I, so on every block size a >= 2 with at least two
    blocks the identity, and with it each chain projection, lies in the
    span of the units.  Both act uniformly along chains.
    """
    ulm = ulm_sequence(f)
    nonzero = [(r, ulm.count(r)) for r in range(1, len(ulm.d) + 1) if ulm.count(r)]
    if len(nonzero) != 1:
        raise ValueError("all Jordan blocks must share one size")
    a, k = nonzero[0]
    if k == 1:
        raise ValueError("the identity cannot split over a single block")
    if a == 1:
        raise ValueError("blocks of size one are not supported")
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
    return beta, beta + Gf2Matrix.identity(f.dim)


@pytest.fixture
def golden():
    # the published 4x4 operator with one block of size 1 and one of size 3
    return validate_nilpotent(jordan_matrix([1, 3]))


@pytest.fixture
def golden_x(golden):
    z = Gf2Vector(0b0101, 4)
    return Subspace.span([z, golden.mat.apply(z)], 4)


@pytest.fixture
def e():
    return tuple(Gf2Vector(1 << i, 4) for i in range(4))


@pytest.fixture
def conjugate():
    """P J P^-1 for the Jordan matrix J of the block sizes and a random invertible P."""

    def build(sizes, rng):
        p = random_invertible(rng, sum(sizes))
        return validate_nilpotent(p @ jordan_matrix(sizes) @ p.inverse())

    return build
