import itertools
import random

import pytest

from gf2hyper import (
    CapExceeded,
    Gf2Matrix,
    Gf2Vector,
    Subspace,
    automorphism_generators,
    automorphism_group_order,
    commutant_basis,
    commutant_dimension,
    enumerate_automorphisms,
    generator_tuple,
    validate_nilpotent,
)
from gf2hyper import commutant
from gf2hyper.commutant import _chain_map, flatten_matrix, unflatten_matrix
from gf2hyper.nilpotent import chain_frame, class_span, elementary_divisors, ulm_sequence
from gf2hyper.verify import jordan_operator, partitions

from conftest import automorphism_from_images, complementary_automorphism_pair


def closure(gens, n):
    ident = Gf2Matrix.identity(n)
    seen = {flatten_matrix(ident)}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = a @ g
                key = flatten_matrix(b)
                if key not in seen:
                    seen.add(key)
                    fresh.append(b)
        frontier = fresh
    return seen


def _commutant_by_solve(f):
    """Oracle: the kernel of g -> gf - fg on the n^2 matrix entries.

    Unknown (i, j) is bit i*n + j, matching flatten_matrix.
    """
    n = f.dim
    fm = f.mat.rows
    constraints = []
    for p in range(n):
        for q in range(n):
            bits = 0
            for k in range(n):
                if (fm[k] >> q) & 1:
                    bits ^= 1 << (p * n + k)
                if (fm[p] >> k) & 1:
                    bits ^= 1 << (k * n + q)
            if bits:
                constraints.append(bits)
    if constraints:
        solution = Gf2Matrix(tuple(constraints), n * n).kernel()
    else:
        solution = Subspace.span_bits((1 << k for k in range(n * n)), n * n)
    return tuple(unflatten_matrix(b, n) for b in solution.rows)


def _generators_from_images(f):
    """Oracle: each generator rebuilt from the images of the generator tuple."""
    u = generator_tuple(f)
    gens = []
    for c, (uc, tc) in enumerate(zip(u.generators, u.exponents)):
        for i, (ui, ti) in enumerate(zip(u.generators, u.exponents)):
            addend = ui.bits
            for j in range(ti):
                if ti - j <= tc and not (i == c and j == 0):
                    images = list(u.generators)
                    images[c] = uc + Gf2Vector(addend, f.dim)
                    gens.append(automorphism_from_images(f, u, images))
                addend = f.mat.apply_bits(addend)
    return tuple(gens)


def _oracle_operators(conjugate):
    rng = random.Random(31)
    for n in range(1, 8):
        for sizes in partitions(n):
            if n <= 6:
                yield jordan_operator(sizes)
            yield conjugate(sizes, rng)


def test_commutant_basis_matches_the_linear_solve(conjugate):
    for f in _oracle_operators(conjugate):
        assert commutant_basis(f).basis == _commutant_by_solve(f)
        assert commutant_dimension(f) == commutant_basis(f).dim


def test_generators_match_the_construction_from_images(conjugate):
    for f in _oracle_operators(conjugate):
        gens = automorphism_generators(f)
        assert gens == _generators_from_images(f)
        for g in gens:
            assert g @ f.mat == f.mat @ g
            assert g.is_invertible()


def test_commutant_dimensions(golden):
    assert commutant_basis(golden).dim == 6
    zero2 = validate_nilpotent(Gf2Matrix.zeros(2, 2))
    assert commutant_basis(zero2).dim == 4
    assert commutant_basis(jordan_operator((3,))).dim == 3


def test_commutant_dimension_formula():
    for n in range(1, 7):
        for sizes in partitions(n):
            f = jordan_operator(sizes)
            divisors = elementary_divisors(ulm_sequence(f))
            expected = sum(min(a, b) for a in divisors for b in divisors)
            assert commutant_basis(f).dim == expected


def test_commutant_elements_commute_and_multiply_into_span(golden):
    c = commutant_basis(golden)
    span = Subspace.span_bits([flatten_matrix(g) for g in c.basis], 16)
    for g in c.basis:
        assert g @ golden.mat == golden.mat @ g
    for g, h in itertools.product(c.basis, repeat=2):
        assert span.contains_bits(flatten_matrix(g @ h))


def test_enumerate_automorphisms_golden(golden):
    units = enumerate_automorphisms(commutant_basis(golden))
    assert len(units) == 16
    for g in units:
        assert g.is_invertible()
        assert g @ golden.mat == golden.mat @ g
    keys = [flatten_matrix(g) for g in units]
    assert keys == sorted(keys)


def test_enumerate_automorphisms_small_cases():
    zero2 = validate_nilpotent(Gf2Matrix.zeros(2, 2))
    assert len(enumerate_automorphisms(commutant_basis(zero2))) == 6
    n2 = jordan_operator((2,))
    units = enumerate_automorphisms(commutant_basis(n2))
    assert {g.rows for g in units} == {(1, 2), (1, 3)}  # I and I + f


def test_enumerate_automorphisms_cap():
    # the zero operator on GF(2)^5 commutes with all 2**25 matrices, above UNIT_ENUM_CAP
    f = jordan_operator((1, 1, 1, 1, 1))
    with pytest.raises(CapExceeded) as info:
        enumerate_automorphisms(commutant_basis(f))
    assert str(info.value) == f"commutant has {1 << 25} elements, above the cap of {1 << 20}"


def test_unit_group_closed_under_product_and_inverse():
    for sizes in [(1, 3), (2, 2), (1, 1, 2)]:
        f = jordan_operator(sizes)
        units = enumerate_automorphisms(commutant_basis(f))
        keys = {flatten_matrix(g) for g in units}
        for g in units:
            assert flatten_matrix(g.inverse()) in keys
        for g, h in itertools.product(units, repeat=2):
            assert flatten_matrix(g @ h) in keys


def test_images_bijection_golden(golden):
    # distinct units map to distinct generator images, and the image map inverts
    u = generator_tuple(golden)
    units = enumerate_automorphisms(commutant_basis(golden))
    images_seen = set()
    for g in units:
        images = tuple(g.apply(x) for x in u.generators)
        assert images not in images_seen
        images_seen.add(images)
        assert automorphism_from_images(golden, u, list(images)) == g
    assert len(images_seen) == 16


def test_automorphism_from_images(golden, e):
    u = generator_tuple(golden)
    assert automorphism_from_images(golden, u, list(u.generators)) == Gf2Matrix.identity(4)
    alpha = automorphism_from_images(golden, u, [e[0], e[0] + e[1]])
    assert alpha.apply(e[0]) == e[0]
    assert alpha.apply(e[1]) == e[0] + e[1]
    assert alpha.is_invertible()
    assert alpha @ golden.mat == golden.mat @ alpha
    with pytest.raises(ValueError):
        automorphism_from_images(golden, u, [e[1], e[0]])  # wrong exponents
    with pytest.raises(ValueError):
        automorphism_from_images(golden, u, [e[3], e[1]])  # e4 lies on the chain of e2
    with pytest.raises(ValueError):
        automorphism_from_images(golden, u, [e[0]])  # wrong arity


def test_complementary_pair_small():
    for sizes in [(2, 2), (2, 2, 2), (2, 2, 2, 2)]:
        f = jordan_operator(sizes)
        beta, gamma = complementary_automorphism_pair(f)
        assert beta + gamma == Gf2Matrix.identity(f.dim)
        assert beta.is_invertible() and gamma.is_invertible()
        assert beta @ f.mat == f.mat @ beta
        assert gamma @ f.mat == f.mat @ gamma


def test_complementary_pair_rejections():
    with pytest.raises(ValueError, match="size one"):
        complementary_automorphism_pair(validate_nilpotent(Gf2Matrix.zeros(2, 2)))
    with pytest.raises(ValueError, match="single block"):
        complementary_automorphism_pair(jordan_operator((3,)))
    with pytest.raises(ValueError, match="one size"):
        complementary_automorphism_pair(jordan_operator((1, 3)))


def test_generators_generate_the_full_unit_group():
    for sizes in [(1, 1), (1, 2), (1, 3), (2, 2), (1, 1, 2), (2, 3), (1, 1, 1)]:
        f = jordan_operator(sizes)
        generated = closure(automorphism_generators(f), f.dim)
        enumerated = {
            flatten_matrix(g)
            for g in enumerate_automorphisms(commutant_basis(f))
        }
        assert generated == enumerated
        assert len(generated) == automorphism_group_order(f)


def test_group_order_formula_matches_enumeration():
    for n in range(1, 6):
        for sizes in partitions(n):
            f = jordan_operator(sizes)
            c = commutant_basis(f)
            if c.dim > 14:
                continue
            assert automorphism_group_order(f) == len(enumerate_automorphisms(c))


def test_commutant_dimension_formula_larger_configs():
    for n in range(7, 11):
        for sizes in partitions(n):
            f = jordan_operator(sizes)
            divisors = elementary_divisors(ulm_sequence(f))
            expected = sum(min(a, b) for a in divisors for b in divisors)
            assert commutant_basis(f).dim == expected


def test_generators_generate_gl4():
    f = jordan_operator((1, 1, 1, 1))
    generated = closure(automorphism_generators(f), 4)
    assert len(generated) == automorphism_group_order(f) == 20160


def test_chain_projections_golden(golden):
    assert _chain_map(golden, 0, 0, 0).rows == (1, 0, 0, 0)
    assert _chain_map(golden, 1, 1, 0).rows == (0, 2, 4, 8)


def test_chain_projections_of_a_homogeneous_operator_sum_to_identity():
    f = jordan_operator((2, 2))
    assert _chain_map(f, 0, 0, 0) + _chain_map(f, 1, 1, 0) == Gf2Matrix.identity(4)


def test_chain_map_refuses_a_tampered_inverse_column(conjugate, monkeypatch):
    # built from Q = P^-1 + D, the map P E Q commutes with f for each projection
    # E = N_(c,c,0) only if E (D f - J D) = 0; these sum to I, so a flipped bit
    # in column j of Q escapes them all only when row j of f is zero
    rng = random.Random(107)
    for sizes in ((1, 3), (2, 2, 3), (1, 2, 2, 4)):
        f = conjugate(sizes, rng)
        assert all(f.mat.rows)
        p, p_inv = chain_frame(f)
        chains = range(len(generator_tuple(f).exponents))
        for j, k in itertools.product(range(f.dim), repeat=2):
            q = tuple(x ^ (i == j) << k for i, x in enumerate(p_inv))
            monkeypatch.setattr(commutant, "chain_frame", lambda g: (p, q))
            with pytest.raises(AssertionError, match="chain map does not commute with f"):
                for c in chains:
                    _chain_map(f, c, c, 0)
        monkeypatch.undo()


def test_class_projections_from_chain_projections(conjugate):
    # summed over a class, the chain projections project onto its summand
    # along the other classes; over all classes they sum to I
    rng = random.Random(43)
    for sizes in [(1, 3), (1, 2, 4), (1, 1, 2), (2, 3), (2, 2, 3)]:
        for f in (jordan_operator(sizes), conjugate(sizes, rng)):
            u = generator_tuple(f)
            total = Gf2Matrix.zeros(f.dim, f.dim)
            for mu in range(u.class_count):
                pi = Gf2Matrix.zeros(f.dim, f.dim)
                for i in u.class_indices(mu):
                    pi = pi + _chain_map(f, i, i, 0)
                assert pi @ pi == pi
                assert pi @ f.mat == f.mat @ pi
                assert pi.image() == class_span(f, u, mu)
                total = total + pi
            assert total == Gf2Matrix.identity(f.dim)
