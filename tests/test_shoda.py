import random

import pytest

from gf2hyper import (
    Gf2Vector,
    ShodaConditionFails,
    Subspace,
    counterexample,
    exceptional_subspace,
    exceptional_subspace_scan,
    exponent,
    generator_tuple,
    height,
    is_characteristic,
    is_hyperinvariant,
    is_invariant,
    linking_vector,
    shoda_block_sizes,
    shoda_condition,
    ulm_form_condition,
    ulm_sequence,
)
from gf2hyper.gf2 import _apply_columns
from gf2hyper.nilpotent import UlmSequence, _tail_mask, chain_frame
from gf2hyper.shoda import _shoda_pairs
from gf2hyper.verify import ORACLE_MAX_DIM, jordan_operator, partitions


def test_shoda_condition_examples():
    assert shoda_condition(UlmSequence((1, 0, 1)))        # blocks 1, 3
    assert not shoda_condition(UlmSequence((1, 1)))       # blocks 1, 2: successive
    assert not shoda_condition(UlmSequence((0, 2)))       # blocks 2, 2: no multiplicity one
    assert shoda_condition(UlmSequence((1, 1, 1)))        # 1 and 3 qualify


def test_ulm_form_condition_examples():
    assert not ulm_form_condition(UlmSequence((1, 0, 1)))
    assert ulm_form_condition(UlmSequence((1, 1, 0)))
    assert not ulm_form_condition(UlmSequence((1, 1, 1)))
    assert ulm_form_condition(UlmSequence((0, 2)))
    assert ulm_form_condition(UlmSequence((3,)))


def test_predicates_are_negations_up_to_dim_12():
    checked = 0
    for n in range(1, 13):
        for sizes in partitions(n):
            ulm = ulm_sequence(jordan_operator(sizes))
            assert shoda_condition(ulm) != ulm_form_condition(ulm), sizes
            checked += 1
    assert checked > 250


def test_shoda_block_sizes_picks_smallest_pair():
    assert shoda_block_sizes(UlmSequence((1, 0, 1))) == (1, 3)
    assert shoda_block_sizes(UlmSequence((1, 0, 1, 0, 1))) == (1, 3)
    assert shoda_block_sizes(UlmSequence((1, 1))) is None
    assert shoda_block_sizes(UlmSequence((0, 1, 0, 1))) == (2, 4)


def test_linking_vector_golden(golden, e):
    u = generator_tuple(golden)
    assert linking_vector(golden, u, 0, 1) == e[0] + e[2]


def test_linking_vector_gap_two():
    f = jordan_operator((1, 4))
    u = generator_tuple(f)
    z = linking_vector(f, u, 0, 1)
    assert exponent(f, z) == 2
    assert height(f, z) == 0
    assert height(f, f.mat.apply(z)) == 3


def test_linking_vector_rejects_bad_classes():
    f = jordan_operator((2, 2))
    u = generator_tuple(f)
    with pytest.raises(ShodaConditionFails):
        linking_vector(f, u, 0, 0)
    f2 = jordan_operator((1, 2))
    u2 = generator_tuple(f2)
    with pytest.raises(ShodaConditionFails):
        linking_vector(f2, u2, 0, 1)  # sizes differ by exactly one
    f3 = jordan_operator((1, 1, 3))
    u3 = generator_tuple(f3)
    with pytest.raises(ShodaConditionFails):
        linking_vector(f3, u3, 0, 1)  # short class has two blocks


def test_exceptional_subspace_golden(golden, golden_x):
    u = generator_tuple(golden)
    span = exceptional_subspace(golden, u, 0, 1)
    assert span == golden_x
    assert exceptional_subspace_scan(golden, 1, 3) == golden_x


def test_exceptional_subspace_middle_and_tail():
    f = jordan_operator((1, 2, 4))
    u = generator_tuple(f)
    span = exceptional_subspace(f, u, 0, 2)
    assert span.dim == 3  # linking pair plus the middle class socle
    assert is_invariant(f, span)

    f2 = jordan_operator((1, 3, 4))
    u2 = generator_tuple(f2)
    span2 = exceptional_subspace(f2, u2, 0, 1)
    assert span2.dim == 4  # linking pair plus two tail levels
    assert is_invariant(f2, span2)


def test_exceptional_subspace_matches_scan_spot_checks():
    for sizes, rho_tau in [((1, 3, 5), (0, 1)), ((1, 3, 5), (1, 2)), ((2, 4), (0, 1))]:
        f = jordan_operator(sizes)
        u = generator_tuple(f)
        rho, tau = rho_tau
        a_rho = u.class_exponent(rho)
        a_tau = u.class_exponent(tau)
        assert exceptional_subspace(f, u, rho, tau) == exceptional_subspace_scan(
            f, a_rho, a_tau
        )


def test_exceptional_subspace_maps_onto_f_z_and_the_tail_socle(conjugate):
    # the image dimension the oracle suite checks, 1 + tail, case by case and as
    # the exact span f X = span{f z} + the socle vectors of the chains above tau
    rng = random.Random(61)
    cases = 0
    for n in range(1, ORACLE_MAX_DIM + 1):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                u = generator_tuple(f)
                for rho in range(u.class_count):
                    for tau in range(rho + 1, u.class_count):
                        try:
                            x = exceptional_subspace(f, u, rho, tau)
                        except ShodaConditionFails:
                            continue
                        z = linking_vector(f, u, rho, tau)
                        tail = [
                            u.chains[i][-1]
                            for mu in range(tau + 1, u.class_count)
                            for i in u.class_indices(mu)
                        ]
                        image = f.mat.map_subspace(x)
                        assert image == Subspace.span_bits([f.mat.apply_bits(z.bits)] + tail, n)
                        assert image.dim == 1 + len(tail), (sizes, rho, tau)
                        cases += 1
    assert cases == 2 * 30


def test_linking_vector_projects_onto_its_short_chain_entry(conjugate):
    # counterexample's projection check reads P_r z as the entry f^(a_rho - 1) u_r
    # of the short chain r; here P_r z is taken in chain coordinates, P (P^-1 z ∧ chain r)
    rng = random.Random(67)
    cases = 0
    for n in range(1, ORACLE_MAX_DIM + 1):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                u = generator_tuple(f)
                p, p_inv = chain_frame(f)
                for a_rho, a_tau in _shoda_pairs(ulm_sequence(f)):
                    rho, tau = u.class_of_exponent(a_rho), u.class_of_exponent(a_tau)
                    r = u.class_indices(rho)[0]
                    chain_r = _tail_mask(u, [0 if i == r else t for i, t in enumerate(u.exponents)])
                    z = linking_vector(f, u, rho, tau)
                    on_chain = _apply_columns(p, _apply_columns(p_inv, z.bits) & chain_r)
                    assert on_chain == u.chains[r][a_rho - 1], (sizes, a_rho, a_tau)
                    cases += 1
    assert cases == 2 * 30


def test_scan_with_unsatisfiable_profile_is_zero():
    f = jordan_operator((2, 2))
    assert exceptional_subspace_scan(f, 1, 3) == Subspace.zero(4)


def test_counterexample_golden(golden, golden_x):
    result = counterexample(golden)
    assert result is not None
    y_span, witness = result
    assert y_span == golden_x
    assert (witness.rho_index, witness.tau_index) == (0, 1)
    assert (witness.a_rho, witness.a_tau) == (1, 3)
    assert witness.z == Gf2Vector(0b0101, 4)
    assert witness.y_span == golden_x


def test_counterexample_none_cases():
    assert counterexample(jordan_operator((5,))) is None
    assert counterexample(jordan_operator((2, 2, 5))) is None
    assert counterexample(jordan_operator((1, 2))) is None


def test_counterexample_verified_properties():
    for sizes in [(1, 3), (1, 4), (2, 4), (1, 3, 4, 4), (1, 2, 4)]:
        f = jordan_operator(sizes)
        result = counterexample(f)
        assert result is not None, sizes
        y_span, witness = result
        assert is_invariant(f, y_span)
        ok, _ = is_characteristic(f, y_span)
        assert ok
        assert not is_hyperinvariant(f, y_span)[0]
        u = generator_tuple(f)
        middle = sum(
            len(u.class_indices(mu))
            for mu in range(witness.rho_index + 1, witness.tau_index)
        )
        tail = sum(
            len(u.class_indices(mu))
            for mu in range(witness.tau_index + 1, u.class_count)
        )
        assert y_span.dim == 2 + middle + 2 * tail


def test_counterexample_prefers_smallest_pair():
    f = jordan_operator((1, 3, 5))
    result = counterexample(f)
    assert result is not None
    _, witness = result
    assert (witness.a_rho, witness.a_tau) == (1, 3)


def test_scan_cap_exceeded():
    from gf2hyper import CapExceeded

    # the scan covers Im f^0 = GF(2)^22, above its fixed cap of 2**20 vectors
    f = jordan_operator((1, 21))
    with pytest.raises(CapExceeded) as info:
        exceptional_subspace_scan(f, 1, 3)
    assert info.value.required == 1 << 22


def test_counterexample_agrees_with_census_up_to_dim_7():
    # end to end: the constructive route finds a subspace exactly when the
    # exhaustive census sees strictly more characteristic than hyperinvariant
    from gf2hyper.verify import census

    for n in range(1, 8):
        for sizes in partitions(n):
            f = jordan_operator(sizes)
            found = counterexample(f)
            data = census(sizes)
            strict = set(data.characteristic) > set(data.hyperinvariant)
            assert (found is not None) == strict, sizes
            if found is not None:
                assert found[0] in set(data.characteristic)
                assert found[0] not in set(data.hyperinvariant)
