import dataclasses
import random

import pytest

from gf2hyper import (
    DimensionMismatch,
    Gf2Matrix,
    Gf2Vector,
    INFINITY,
    NotAGeneratorTuple,
    NotNilpotent,
    NotSquare,
    Subspace,
    elementary_divisors,
    exponent,
    generator_tuple,
    height,
    ulm_sequence,
    validate_nilpotent,
)
from gf2hyper import nilpotent
from gf2hyper.classify import hyperinvariant_lattice
from gf2hyper.gf2 import _span_table
from gf2hyper.nilpotent import (
    UlmSequence,
    _lift,
    _tail_mask,
    chain_frame,
    jordan_matrix,
)
from gf2hyper.verify import jordan_operator, partitions

from conftest import (
    LARGE_SHAPES,
    chain_matrix,
    cyclic_subspace,
    generator_tuple_by_intersection,
    make_generator_tuple,
    monotone_shifts,
    paired_rref_walk,
    power_tower,
    random_invertible,
    sum_preimages,
)


def test_jordan_matrix_matches_published_example(golden):
    assert golden.mat == Gf2Matrix.from_rows(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    )


def test_validate_golden(golden):
    assert golden.index == 3
    assert [s.dim for s in golden.kernel_chain] == [0, 2, 3, 4]
    assert [s.dim for s in golden.image_chain] == [4, 2, 1, 0]


def test_validate_zero_and_identity():
    zero = validate_nilpotent(Gf2Matrix.zeros(3, 3))
    assert zero.index == 1
    with pytest.raises(NotNilpotent):
        validate_nilpotent(Gf2Matrix.identity(2))
    with pytest.raises(NotSquare):
        validate_nilpotent(Gf2Matrix.zeros(2, 3))


def test_exponent(golden, e):
    z = e[0] + e[2]
    assert exponent(golden, z) == 2
    assert exponent(golden, Gf2Vector(0, 4)) == 0
    # e2 -> e3 -> e4 -> 0
    assert exponent(golden, e[1]) == 3


def test_height(golden, e):
    z = e[0] + e[2]
    assert not golden.image_chain[1].contains(z)  # z outside Im f
    assert height(golden, z) == 0
    assert height(golden, Gf2Vector(0, 4)) == INFINITY
    assert height(golden, e[3]) == 2


def test_infinity_semantics():
    assert INFINITY > 10**9
    assert 3 < INFINITY
    assert INFINITY >= INFINITY
    assert not INFINITY < INFINITY
    assert INFINITY == INFINITY
    with pytest.raises(TypeError):
        INFINITY + 1


def test_exponent_height_interplay(golden):
    for bits in range(1, 16):
        x = Gf2Vector(bits, 4)
        ex = exponent(golden, x)
        assert 1 <= ex <= golden.index
        fx = golden.mat.apply(x)
        if ex >= 1:
            assert exponent(golden, fx) == ex - 1
        if not fx.is_zero():
            assert height(golden, fx) >= height(golden, x) + 1


def test_ulm_sequence(golden):
    assert ulm_sequence(golden).d == (1, 0, 1)
    assert ulm_sequence(jordan_operator((4,))).d == (0, 0, 0, 1)
    assert ulm_sequence(jordan_operator((2, 2))).d == (0, 2)
    assert ulm_sequence(golden) is ulm_sequence(golden)  # counted once per operator


def test_ulm_total_and_divisor_cross_check():
    for n in range(1, 7):
        for sizes in partitions(n):
            f = jordan_operator(sizes)
            ulm = ulm_sequence(f)
            assert elementary_divisors(ulm) == sizes
            for r in range(1, n + 1):
                assert ulm.count(r) == sum(1 for t in sizes if t == r)


def test_ulm_normalization():
    assert UlmSequence((1, 1, 0)).d == (1, 1)
    with pytest.raises(ValueError):
        UlmSequence((0, 0))


def test_elementary_divisors():
    assert elementary_divisors(UlmSequence((1, 0, 1))) == (1, 3)
    assert elementary_divisors(UlmSequence((0, 2))) == (2, 2)
    assert elementary_divisors(UlmSequence((2, 0, 0, 1))) == (1, 1, 4)


def test_generator_tuple_golden(golden, e):
    u = generator_tuple(golden)
    assert u.generators == (e[0], e[1])
    assert u.exponents == (1, 3)
    assert u.partition == ((1, (0,)), (3, (1,)))


def test_generator_tuple_simple_cases():
    zero2 = validate_nilpotent(Gf2Matrix.zeros(2, 2))
    u = generator_tuple(zero2)
    assert [g.bits for g in u.generators] == [1, 2]
    assert u.exponents == (1, 1)

    two_blocks = jordan_operator((2, 2))
    u = generator_tuple(two_blocks)
    assert [g.bits for g in u.generators] == [0b0001, 0b0100]
    assert u.exponents == (2, 2)


def test_generator_tuple_every_partition_and_determinism():
    for n in range(1, 7):
        for sizes in partitions(n):
            f = jordan_operator(sizes)
            u = generator_tuple(f)
            assert u.exponents == sizes
            assert chain_matrix(f, u).is_invertible()
            rebuilt = validate_nilpotent(f.mat)
            assert generator_tuple(rebuilt) == u
            ulm = ulm_sequence(f)
            for a, indices in u.partition:
                assert len(indices) == ulm.count(a)


def test_generator_tuple_of_conjugated_operator():
    rng = random.Random(11)
    for sizes in [(1, 3), (2, 2), (1, 1, 2), (2, 3)]:
        base = jordan_operator(sizes)
        n = base.dim
        for _ in range(5):
            p = random_invertible(rng, n)
            conj = validate_nilpotent(p @ base.mat @ p.inverse())
            assert ulm_sequence(conj).d == ulm_sequence(base).d
            u = generator_tuple(conj)
            assert chain_matrix(conj, u).is_invertible()


def _greedy_socle_picks(f, powers):
    """Class by class from the top, the canonical rows of Ker f ∩ Im f^(a-1),
    by Zassenhaus on the power tower, independent of those picked before."""
    socle = powers[1].kernel()
    picked = Subspace.zero(f.dim)
    by_class = []
    for a in range(f.index, 0, -1):
        picks = []
        for row in socle.intersect(powers[a - 1].image()).rows:
            if not picked.contains_bits(row):
                picks.append(row)
                picked = picked.sum(Subspace.span_bits([row], f.dim))
        by_class[:0] = picks
    return by_class


def test_generator_tuple_matches_the_intersection_oracle(conjugate):
    # Jordan matrices: the picks of the blocked span rebuilt by Zassenhaus at each
    # exponent; any basis: the socle images f^(t_i - 1) u_i, by products of f
    rng = random.Random(97)
    for n in range(1, 9):
        for sizes in partitions(n):
            decreasing = validate_nilpotent(jordan_matrix(sorted(sizes, reverse=True)))
            for f in (jordan_operator(sizes), decreasing):
                assert generator_tuple(f).generators == generator_tuple_by_intersection(f), sizes
            f = conjugate(sizes, rng)
            powers = power_tower(f)
            u = generator_tuple(f)
            assert u.exponents == tuple(sorted(sizes)), sizes
            tops = [powers[t - 1].apply_bits(g.bits) for g, t in zip(u.generators, u.exponents)]
            assert tops == _greedy_socle_picks(f, powers), sizes


def test_make_generator_tuple_rejections(golden, e, conjugate):
    with pytest.raises(NotAGeneratorTuple):
        make_generator_tuple(golden, [])
    with pytest.raises(DimensionMismatch):
        make_generator_tuple(golden, [e[0], Gf2Vector(0b0010, 5)])
    with pytest.raises(NotAGeneratorTuple):
        make_generator_tuple(golden, [e[1], e[0]])  # exponents decreasing
    with pytest.raises(NotAGeneratorTuple):
        make_generator_tuple(golden, [e[0], e[1], e[2]])  # wrong total length
    with pytest.raises(NotAGeneratorTuple, match="linearly dependent"):
        make_generator_tuple(golden, [e[3], e[1]])  # chains overlap
    f = conjugate((1, 3), random.Random(109))
    u = generator_tuple(f)
    top = Gf2Vector(u.chains[1][2], 4)  # f^2 u_1, the end of the long chain
    with pytest.raises(NotAGeneratorTuple, match="linearly dependent"):
        make_generator_tuple(f, [top, u.generators[1]])
    # generator_tuple keeps the same check on the chains the walk lifted
    dependent = dataclasses.replace(f, chains=((top.bits,), u.chains[1]))
    with pytest.raises(NotAGeneratorTuple, match="linearly dependent"):
        generator_tuple(dependent)


def test_cyclic_subspace(golden, golden_x, e):
    z = e[0] + e[2]
    assert cyclic_subspace(golden, z) == golden_x
    assert cyclic_subspace(golden, Gf2Vector(0, 4)) == Subspace.zero(4)
    assert cyclic_subspace(golden, e[1]) == Subspace.span([e[1], e[2], e[3]], 4)
    assert cyclic_subspace(golden, z).dim == exponent(golden, z)


def test_ulm_sequence_matches_the_socle_definition(conjugate):
    # oracle: d(r) = dim(Ker f ∩ Im f^(r-1)) - dim(Ker f ∩ Im f^r)
    rng = random.Random(71)
    for n in range(1, 8):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                socle = f.kernel_chain[1]
                dims = [socle.intersect(f.image_chain[r]).dim for r in range(f.index + 1)]
                d = tuple(dims[r - 1] - dims[r] for r in range(1, f.index + 1))
                assert ulm_sequence(f).d == d, sizes
                # and d(r) = 2 k_r - k_(r-1) - k_(r+1) for k_r = dim Ker f^r of the products
                k = [p.kernel().dim for p in power_tower(f)] + [f.dim]
                d = tuple(2 * k[r] - k[r - 1] - k[r + 1] for r in range(1, f.index + 1))
                assert ulm_sequence(f).d == d, sizes


def test_image_chain_matches_the_power_images(conjugate):
    # oracle: Im f^j as the column space of f^j, not walked forward from Im f^(j-1)
    rng = random.Random(73)
    for n in range(1, 8):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                assert f.image_chain == tuple(p.image() for p in power_tower(f)), sizes


def test_validate_nilpotent_matches_the_power_tower(conjugate):
    # oracle: the index, Ker f^j and Im f^j read off the products f^j, not the paired walk
    rng = random.Random(83)
    for n in range(1, 9):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                powers = power_tower(f)
                assert not any(powers[-1].rows) and all(any(p.rows) for p in powers[:-1])
                assert f.index == max(sizes) == len(powers) - 1, sizes
                assert f.kernel_chain == tuple(p.kernel() for p in powers), sizes
                assert f.image_chain == tuple(p.image() for p in powers), sizes
                # each stored level: the socle by Zassenhaus; each row f(h) | h << n
                # with h in Im f^j, pivoted at the pivots of Im f^(j+1); and _lift
                # gives a preimage in Im f^j that is zero at the socle's pivots
                low_half = (1 << n) - 1
                assert len(f.walk) == f.index
                for j, level in enumerate(f.walk):
                    rows, socle = level
                    above, image = powers[j].image(), powers[j + 1].image()
                    assert socle == f.kernel_chain[1].intersect(above), sizes
                    assert sorted(rows) == [1 << p for p in image.pivots], sizes
                    for pivot, r in rows.items():
                        y, h = r & low_half, r >> n
                        assert y & -y == pivot and f.mat.apply_bits(h) == y, sizes
                        assert above.contains_bits(h), sizes
                    for y in image.rows:
                        b = _lift(level, y)
                        assert f.mat.apply_bits(b) == y and above.contains_bits(b), sizes
                        assert not any(b >> p & 1 for p in socle.pivots), sizes


def test_validate_nilpotent_matches_the_paired_rref_walk(conjugate):
    # oracle: the same walk with every level reduced to RREF, and the chains
    # walked under f from its generators: equal index, socles, generators,
    # chains and P^-1, and each lift the sum of the RREF walk's preimages
    rng = random.Random(107)
    operators = [conjugate(sizes, rng) for sizes in LARGE_SHAPES]
    for n in range(1, 9):
        for sizes in partitions(n):
            operators += [jordan_operator(sizes), conjugate(sizes, rng)]
    for f in operators:
        index, walk, generators = paired_rref_walk(f.mat)
        assert f.index == index
        assert [socle for _, socle in f.walk] == [socle for _, socle in walk]
        u = generator_tuple(f)
        assert tuple(g.bits for g in u.generators) == generators
        oracle = make_generator_tuple(f, u.generators)
        assert u == oracle
        assert u.chains == oracle.chains and u.offsets == oracle.offsets
        assert u.inverse_columns == oracle.inverse_columns
        if f.dim <= 8:
            for j, (level, (preimages, _)) in enumerate(zip(f.walk, walk)):
                for y in _span_table(f.image_chain[j + 1].rows):
                    assert _lift(level, y) == sum_preimages(preimages, y)


def test_generator_tuple_applies_f_to_no_vector(conjugate, monkeypatch):
    # per build, f is applied in the walk's levels >= 1, once per basis row of
    # Im f^j, and in chain_frame's check, once per chain entry; nowhere else
    rng = random.Random(113)
    calls = []
    apply_bits = Gf2Matrix.apply_bits

    def counted(m, bits):
        calls.append(bits)
        return apply_bits(m, bits)

    monkeypatch.setattr(Gf2Matrix, "apply_bits", counted)
    for sizes in ((1, 3), (1, 2, 4), (2, 2, 3), (1, 2, 4, 8, 16)):
        m = conjugate(sizes, rng).mat
        del calls[:]
        f = validate_nilpotent(m)
        assert len(calls) == sum(sum(max(t - j, 0) for t in sizes) for j in range(1, max(sizes)))
        del calls[:]
        generator_tuple(f)
        assert calls == []
        chain_frame(f)
        assert len(calls) == f.dim


def test_generator_tuple_checks_the_image_chain(conjugate):
    # the rank-nullity self-check: a walk with two levels swapped no longer
    # has dim Im f^j = Σ max(t_i - j, 0) for its level sizes, and
    # generator_tuple says so
    rng = random.Random(97)
    for sizes in ((1, 3), (1, 2, 4), (2, 2, 3)):
        for f in (jordan_operator(sizes), conjugate(sizes, rng)):
            walk = list(f.walk)
            walk[0], walk[1] = walk[1], walk[0]
            broken = dataclasses.replace(f, walk=tuple(walk))
            with pytest.raises(AssertionError, match="image chain"):
                generator_tuple(broken)
            assert generator_tuple(f).exponents == tuple(sorted(sizes))


def test_validate_nilpotent_rejects_what_never_vanishes():
    rng = random.Random(89)
    j3 = jordan_matrix([3])
    # diag(J_3, [1]): nilpotent on a 3-dimensional summand, the identity on the other
    mixed = Gf2Matrix(j3.rows + (1 << 3,), 4)
    for m in (Gf2Matrix.identity(1), Gf2Matrix.identity(5), random_invertible(rng, 6), mixed):
        with pytest.raises(NotNilpotent, match=f"f\\^{m.n_cols} != 0"):
            validate_nilpotent(m)


def _columns_span(p, mask):
    """The span of the columns of p at the bits of mask."""
    n = p.n_cols
    return Subspace.span_bits((p.apply_bits(1 << b) for b in range(n) if mask >> b & 1), n)


def test_chain_tail_masks_span_the_operators_own_chains(conjugate):
    # the chain layout (offsets, tail masks, P) against the kernel and image
    # chains that validate_nilpotent computes from the matrix alone
    rng = random.Random(79)
    for n in range(1, 8):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                u = generator_tuple(f)
                p = chain_matrix(f, u)
                assert u.offsets[-1] == n
                for m in range(f.index + 1):
                    images = _tail_mask(u, [min(m, t) for t in u.exponents])
                    assert _columns_span(p, images) == f.image_chain[m], (sizes, m)
                    kernels = _tail_mask(u, [max(t - m, 0) for t in u.exponents])
                    assert _columns_span(p, kernels) == f.kernel_chain[m], (sizes, m)
                shifts = monotone_shifts(u.exponents)
                spans = [_columns_span(p, _tail_mask(u, r)) for r in shifts]
                assert sorted(spans, key=lambda s: (s.dim, s.rows)) == list(
                    hyperinvariant_lattice(f)
                ), sizes


def _columns(m):
    return tuple(m.apply_bits(1 << j) for j in range(m.n_cols))


def test_chain_frame_matches_the_inverted_chain_matrix(conjugate):
    # oracle: P built as a matrix from the chains and inverted by its own elimination
    rng = random.Random(101)
    operators = [conjugate(sizes, rng) for sizes in LARGE_SHAPES]
    for n in range(1, 9):
        for sizes in partitions(n):
            operators += [jordan_operator(sizes), conjugate(sizes, rng)]
    for f in operators:
        u = generator_tuple(f)
        p = chain_matrix(f, u)
        assert u.inverse_columns == _columns(p.inverse())
        assert chain_frame(f) == (_columns(p), u.inverse_columns)


def test_chain_frame_refuses_a_tampered_chain_entry(conjugate, monkeypatch):
    # each chain entry tampered after the walk, by adding the generator of the
    # longest chain, breaks f v_k = v_(k+1) at that column or the one before it
    rng = random.Random(103)
    for sizes in ((1, 3), (1, 1, 2, 4), (2, 2, 3)):
        f = conjugate(sizes, rng)
        u = generator_tuple(f)
        x = u.chains[-1][0]
        for i, k in ((i, k) for i, chain in enumerate(u.chains) for k in range(len(chain))):
            chains = [list(c) for c in u.chains]
            chains[i][k] ^= x
            tampered = dataclasses.replace(u, chains=tuple(map(tuple, chains)))
            monkeypatch.setattr(nilpotent, "generator_tuple", lambda g: tampered)
            with pytest.raises(AssertionError, match="do not carry f to its Jordan form"):
                chain_frame(f)
        monkeypatch.undo()
        assert chain_frame(f)[1] == u.inverse_columns


def test_ulm_invariant_under_conjugation(golden):
    rng = random.Random(12)
    for _ in range(10):
        p = random_invertible(rng, 4)
        conj = validate_nilpotent(p @ golden.mat @ p.inverse())
        assert ulm_sequence(conj).d == (1, 0, 1)


def test_exponent_height_interplay_more_configs():
    for sizes in [(2, 2), (1, 2, 3), (1, 1, 4)]:
        f = jordan_operator(sizes)
        n = f.dim
        for bits in range(1, 1 << n):
            x = Gf2Vector(bits, n)
            ex = exponent(f, x)
            assert 1 <= ex <= f.index
            fx = f.mat.apply(x)
            assert exponent(f, fx) == ex - 1
            if not fx.is_zero():
                assert height(f, fx) >= height(f, x) + 1
