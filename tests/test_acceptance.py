"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.  Every expected value is exact; the only tolerances are
wall-clock budgets, asserted where stated.
"""

import itertools
import random
import time
from contextlib import contextmanager

from gf2hyper import (
    Gf2Matrix,
    Gf2Vector,
    Subspace,
    classify,
    commutant_basis,
    counterexample,
    enumerate_automorphisms,
    exceptional_subspace,
    exceptional_subspace_scan,
    generator_tuple,
    hyperinvariant_lattice,
    is_characteristic,
    is_hyperinvariant,
    is_marked,
    largest_hyperinvariant_inside,
    shoda_condition,
    ulm_form_condition,
    ulm_sequence,
)
from gf2hyper.nilpotent import elementary_divisors
from gf2hyper.verify import census, jordan_operator, partitions

from conftest import (
    complementary_automorphism_pair,
    contains_subspace,
    monotone_shift_condition,
    shifted_chain_span,
)


@contextmanager
def criterion(number, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s)")


def golden_operator():
    return jordan_operator((1, 3))


def golden_x():
    z = Gf2Vector(0b0101, 4)
    f = golden_operator()
    return Subspace.span([z, f.mat.apply(z)], 4)


def test_criterion_01_golden_example():
    with criterion(1, "golden example classification"):
        started = time.perf_counter()
        f = golden_operator()
        x = golden_x()
        assert elementary_divisors(ulm_sequence(f)) == (1, 3)

        units = enumerate_automorphisms(commutant_basis(f))
        assert len(units) == 16

        report = classify(f, x)
        assert report.invariant
        assert report.characteristic
        assert not report.hyperinvariant
        assert not report.marked

        witness = report.hyperinvariance_witness
        assert witness is not None
        assert witness.matrix == Gf2Matrix((1, 0, 0, 0), 4)  # diagonal projection
        z = Gf2Vector(0b0101, 4)
        assert witness.vector == z
        assert witness.matrix.apply(z) == Gf2Vector(1, 4)
        assert not x.contains(Gf2Vector(1, 4))
        assert time.perf_counter() - started < 1.0


def test_criterion_02_commutant_shape():
    with criterion(2, "commutant dimension and unit template"):
        started = time.perf_counter()
        f = golden_operator()
        c = commutant_basis(f)
        assert c.dim == 6
        units = enumerate_automorphisms(c)
        assert len(units) == 16
        fixed_one = [(0, 0), (1, 1), (2, 2), (3, 3)]
        fixed_zero = [(0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (2, 3)]
        free_profiles = set()
        for g in units:
            assert all(g.entry(i, j) == 1 for i, j in fixed_one)
            assert all(g.entry(i, j) == 0 for i, j in fixed_zero)
            assert g.entry(3, 2) == g.entry(2, 1)
            free_profiles.add(
                (g.entry(0, 1), g.entry(2, 1), g.entry(3, 0), g.entry(3, 1))
            )
        assert len(free_profiles) == 16
        assert time.perf_counter() - started < 1.0


def test_criterion_03_shoda_equivalence():
    with criterion(3, "block-size criterion equals census, both directions"):
        started = time.perf_counter()
        for n in range(1, 7):
            for sizes in partitions(n):
                data = census(sizes)
                strict = set(data.characteristic) > set(data.hyperinvariant)
                ulm = ulm_sequence(jordan_operator(sizes))
                assert strict == shoda_condition(ulm), sizes
        for n in range(1, 13):
            for sizes in partitions(n):
                ulm = ulm_sequence(jordan_operator(sizes))
                assert shoda_condition(ulm) != ulm_form_condition(ulm), sizes
        assert time.perf_counter() - started < 300.0


def test_criterion_04_hyper_iff_characteristic_and_marked():
    with criterion(4, "hyperinvariant iff characteristic and marked"):
        for n in range(1, 7):
            for sizes in partitions(n):
                data = census(sizes)
                assert set(data.hyperinvariant) == set(data.characteristic) & set(
                    data.marked
                ), sizes


def test_criterion_05_shifted_span_three_way_equivalence():
    with criterion(5, "shifted chain spans: characteristic = hyper = monotone"):
        started = time.perf_counter()
        for n in range(1, 8):
            for sizes in partitions(n):
                f = jordan_operator(sizes)
                u = generator_tuple(f)
                for shifts in itertools.product(*(range(t + 1) for t in sizes)):
                    w = shifted_chain_span(f, u, shifts)
                    char, _ = is_characteristic(f, w)
                    hyper, _ = is_hyperinvariant(f, w)
                    monotone = monotone_shift_condition(sizes, shifts)
                    assert char == hyper == monotone, (sizes, shifts)
        assert time.perf_counter() - started < 120.0


def test_criterion_06_marked_criterion_consistency():
    with criterion(6, "lattice members marked, golden subspace not"):
        f = golden_operator()
        for member in hyperinvariant_lattice(f):
            assert is_marked(f, member)
        assert not is_marked(f, golden_x())
        for n in range(1, 7):
            for sizes in partitions(n):
                g = jordan_operator(sizes)
                assert all(is_marked(g, m) for m in hyperinvariant_lattice(g))


def test_criterion_07_largest_hyperinvariant_inside():
    with criterion(7, "largest hyperinvariant subspace inside"):
        f = golden_operator()
        u = generator_tuple(f)
        x = golden_x()
        tilde = largest_hyperinvariant_inside(f, u, x)
        assert tilde == Subspace.span([Gf2Vector(8, 4)], 4)
        lattice = hyperinvariant_lattice(f)
        assert len(lattice) == 6
        for member in lattice:
            if contains_subspace(x, member):
                assert contains_subspace(tilde, member)

        rng = random.Random(20260808)
        pool = []
        for n in range(2, 7):
            for sizes in partitions(n):
                for s in census(sizes).characteristic:
                    pool.append((sizes, s))
        for sizes, s in rng.sample(pool, 20):
            g = jordan_operator(sizes)
            ug = generator_tuple(g)
            inner = largest_hyperinvariant_inside(g, ug, s)
            assert contains_subspace(s, inner)
            assert is_hyperinvariant(g, inner)[0]
            for member in hyperinvariant_lattice(g):
                if contains_subspace(s, member):
                    assert contains_subspace(inner, member)


def test_criterion_08_complementary_automorphism_pairs():
    with criterion(8, "complementary automorphism pairs on homogeneous operators"):
        checked = 0
        for a in range(2, 7):
            for k in range(2, 7):
                if a * k > 12:
                    continue
                f = jordan_operator(tuple([a] * k))
                beta, gamma = complementary_automorphism_pair(f)
                assert beta + gamma == Gf2Matrix.identity(f.dim)
                assert beta.is_invertible() and gamma.is_invertible()
                assert beta @ f.mat == f.mat @ beta
                assert gamma @ f.mat == f.mat @ gamma
                checked += 1
        assert checked == 12


def test_criterion_09_formula_matches_scan():
    with criterion(9, "exceptional span formula equals the height scan"):
        started = time.perf_counter()
        eligible = 0
        for n in range(1, 10):
            for sizes in partitions(n):
                f = jordan_operator(sizes)
                u = generator_tuple(f)
                for rho in range(u.class_count):
                    for tau in range(rho + 1, u.class_count):
                        if len(u.class_indices(rho)) != 1:
                            continue
                        if len(u.class_indices(tau)) != 1:
                            continue
                        a_rho = u.class_exponent(rho)
                        a_tau = u.class_exponent(tau)
                        if a_rho + 1 >= a_tau:
                            continue
                        formula = exceptional_subspace(f, u, rho, tau)
                        scanned = exceptional_subspace_scan(f, a_rho, a_tau)
                        assert formula == scanned, (sizes, a_rho, a_tau)
                        eligible += 1
        assert eligible >= 30
        assert time.perf_counter() - started < 120.0


def test_criterion_10_excluded_patterns_collapse():
    with criterion(10, "characteristic equals hyperinvariant off the criterion"):
        qualifying = 0
        for n in range(1, 7):
            for sizes in partitions(n):
                ulm = ulm_sequence(jordan_operator(sizes))
                ones = [r for r in range(1, n + 1) if ulm.count(r) == 1]
                at_most_one = len(ones) <= 1
                two_successive = len(ones) == 2 and ones[1] == ones[0] + 1
                if not (at_most_one or two_successive):
                    continue
                qualifying += 1
                data = census(sizes)
                assert set(data.characteristic) == set(data.hyperinvariant), sizes
        assert qualifying > 10


def test_golden_counterexample_end_to_end():
    # not a numbered criterion: ties the construction to the classification
    f = golden_operator()
    found = counterexample(f)
    assert found is not None
    span, witness = found
    assert span == golden_x()
    assert (witness.a_rho, witness.a_tau) == (1, 3)
    assert exceptional_subspace_scan(f, 1, 3) == span
