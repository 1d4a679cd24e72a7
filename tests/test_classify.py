import dataclasses
import gc
import importlib
import itertools
import json
import random
import sys
import weakref

import pytest

from gf2hyper import (
    AdmissibleTuple,
    Gf2Matrix,
    Gf2Vector,
    InadmissibleTuple,
    Subspace,
    classify,
    commutant_basis,
    counterexample,
    enumerate_automorphisms,
    format_matrix,
    generator_tuple,
    hyperinvariant_lattice,
    invariant_subspaces,
    is_characteristic,
    is_hyperinvariant,
    is_invariant,
    is_marked,
    largest_hyperinvariant_inside,
    shifted_chain_span,
    validate_nilpotent,
)
from gf2hyper import verify
from gf2hyper.cli import _from_obj, build_analysis, main
from gf2hyper.classify import (
    MOVED_BY_F,
    MOVED_BY_PROJECTION,
    MOVED_BY_UNIT,
    Witness,
    _first_exit,
    _hyperinvariant_lattice,
    _in_chains,
    _monotone_shift_count,
    _scan,
    _stability_maps,
    _stable_lattice,
    _witness,
)
from gf2hyper.commutant import _chain_map, _chain_maps, automorphism_generators, flatten_matrix
from gf2hyper.gf2 import enumerate_subspaces
from gf2hyper.nilpotent import class_span, jordan_matrix
from gf2hyper.verify import census, jordan_operator, lattice_closure, partitions

from conftest import (
    LARGE_SHAPES,
    contains_subspace,
    covering_edges_by_triple_scan,
    cyclic_subspace,
    first_exit_by_matrices,
    monotone_shift_condition,
    monotone_shifts,
    power_tower,
    random_invertible,
    stability_matrices,
)

WHOLE = Subspace.span_bits([1, 2, 4, 8], 4)


def test_is_invariant(golden, golden_x, e):
    assert is_invariant(golden, golden_x)
    assert not is_invariant(golden, Subspace.span([e[1]], 4))
    assert is_invariant(golden, Subspace.zero(4))
    assert is_invariant(golden, WHOLE)


def test_invariant_subspaces_match_the_filter_oracle(conjugate):
    # the same subspaces as filtering every subspace by f s ⊆ s, row by row in the
    # standard basis, none twice; sorted, the same order
    rng = random.Random(43)
    for n in range(1, 8):
        every = list(enumerate_subspaces(n))
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                lifted = list(invariant_subspaces(f))
                lifted.sort(key=lambda s: (s.dim, s.pivots, s.rows))
                apply = f.mat.apply_bits
                kept = [s for s in every if all(s.contains_bits(apply(r)) for r in s.rows)]
                assert lifted == kept, sizes
                assert len(set(lifted)) == len(lifted)


def test_lifting_runs_no_zassenhaus_and_no_sum(monkeypatch, conjugate):
    # each parent's complements come from one extension of its RREF, not from Y ∩ K and Y + K
    rng = random.Random(53)
    fs = [g for n in range(1, 7) for sizes in partitions(n)
          for g in (jordan_operator(sizes), conjugate(sizes, rng))]

    def lifted():
        return [
            sorted(invariant_subspaces(f), key=lambda s: (s.dim, s.pivots, s.rows)) for f in fs
        ]

    expected = lifted()
    census.cache_clear()
    expected_census = census((1, 2, 3))

    def refuse(*_):
        raise AssertionError("the lifting called a Zassenhaus intersection or a sum")

    monkeypatch.setattr(Subspace, "intersect", refuse)
    monkeypatch.setattr(Subspace, "sum", refuse)
    census.cache_clear()
    try:
        assert census((1, 2, 3)) == expected_census
    finally:
        census.cache_clear()
    assert lifted() == expected


def test_the_zero_parents_children_are_enumerate_subspaces():
    # the zero operator lifts only the zero parent: its children are K's shapes, in their order
    for n in range(1, 7):
        lifted = [(s.rows, s.pivots) for s in invariant_subspaces(jordan_operator((1,) * n))]
        assert lifted == [(s.rows, s.pivots) for s in enumerate_subspaces(n)]


def test_census_scans_only_the_invariant_subspaces(monkeypatch):
    # one batched scan per shape, over the invariant subspaces alone: the marked
    # test does not scan f again
    calls = []
    scan = verify._scan

    def counting(f, items):
        items = list(items)
        calls.append([rows for rows, *_ in items])
        return scan(f, items)

    monkeypatch.setattr(verify, "_scan", counting)
    monkeypatch.setattr(sys.modules["gf2hyper.classify"], "_scan", counting)
    census.cache_clear()
    try:
        data = census((3, 3))
    finally:
        census.cache_clear()
    assert len(calls) == 1
    assert len(calls[0]) == len(data.invariant) == 37  # of the 2,825 subspaces of GF(2)^6
    assert calls[0] == [s.rows for s in data.invariant]


def test_census_classes_are_the_classify_verdicts():
    # census keeps, in order, the invariant subspaces whose classify report says
    # so; decreasing blocks give a chain frame other than the identity
    for n in range(1, 7):
        for sizes in {p[::k] for p in partitions(n) for k in (1, -1)}:
            data = census(sizes)
            f = jordan_operator(sizes)
            reports = [classify(f, s) for s in data.invariant]
            assert all(r.invariant for r in reports), sizes
            for name in ("marked", "characteristic", "hyperinvariant"):
                kept = tuple(r.subspace for r in reports if getattr(r, name))
                assert getattr(data, name) == kept, (sizes, name)


@pytest.mark.parametrize("which", ["inv", "chinv"])
def test_lattice_matches_the_filter_oracle(which, conjugate, tmp_path, capsys):
    rng = random.Random(47)
    path = tmp_path / "f.txt"
    for f in (jordan_operator((1, 3)), jordan_operator((2, 4)), conjugate((1, 2, 3), rng)):
        path.write_text(format_matrix(f.mat))
        assert main(["lattice", str(path), "--which", which, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        nodes = sorted(
            (
                s
                for s in enumerate_subspaces(f.dim)
                if is_invariant(f, s) and (which == "inv" or is_characteristic(f, s)[0])
            ),
            key=lambda s: (s.dim, s.rows),
        )
        bases = [{"ambient_dim": n["ambient_dim"], "basis": n["basis"]} for n in doc["nodes"]]
        assert [_from_obj(Subspace, basis) for basis in bases] == nodes
        assert doc["edges"] == [list(e) for e in covering_edges_by_triple_scan(nodes)]


def test_is_hyperinvariant_golden(golden, golden_x, e):
    verdict, witness = is_hyperinvariant(golden, golden_x)
    assert not verdict
    # the projection onto the short chain moves z = e1 + e3 out to e1
    assert witness.matrix.rows == (1, 0, 0, 0)
    assert witness.vector == e[0] + e[2]
    assert witness.matrix @ golden.mat == golden.mat @ witness.matrix
    assert not golden_x.contains(witness.matrix.apply(witness.vector))
    for k in range(golden.index + 1):
        assert is_hyperinvariant(golden, golden.kernel_chain[k])[0]
        assert is_hyperinvariant(golden, golden.image_chain[k])[0]
    assert is_hyperinvariant(golden, Subspace.zero(4))[0]


def test_is_characteristic_golden(golden, golden_x, e):
    verdict, witness = is_characteristic(golden, golden_x)
    assert verdict and witness is None
    line = Subspace.span([e[0]], 4)
    verdict, witness = is_characteristic(golden, line)
    assert not verdict
    assert witness is not None
    assert witness.matrix.is_invertible()
    assert witness.matrix @ golden.mat == golden.mat @ witness.matrix
    assert line.contains(witness.vector)
    assert not line.contains(witness.matrix.apply(witness.vector))
    assert is_characteristic(golden, Subspace.zero(4))[0]
    assert is_characteristic(golden, WHOLE)[0]


def test_is_characteristic_methods_agree():
    # oracle: stability under every unit of the commutant, enumerated
    shapes = 0
    for n in range(1, 6):
        for sizes in partitions(n):
            f = jordan_operator(sizes)
            c = commutant_basis(f)
            if c.dim > 14:
                continue
            shapes += 1
            units = enumerate_automorphisms(c).elements
            for s in enumerate_subspaces(n):
                if not is_invariant(f, s):
                    continue
                stable = all(
                    s.contains_bits(g.apply_bits(r)) for g in units for r in s.rows
                )
                verdict, witness = is_characteristic(f, s)
                assert verdict == stable, (sizes, s.rows)
                if not verdict:
                    g = witness.matrix
                    assert g.is_invertible()
                    assert g @ f.mat == f.mat @ g
                    assert s.contains(witness.vector)
                    assert not s.contains(g.apply(witness.vector))
    assert shapes == 15


def test_is_marked(golden, golden_x):
    assert not is_marked(golden, golden_x)
    assert is_marked(golden, Subspace.zero(4))
    assert is_marked(golden, WHOLE)
    for k in range(golden.index + 1):
        assert is_marked(golden, golden.kernel_chain[k])
        assert is_marked(golden, golden.image_chain[k])


def _is_marked_by_every_pair(f, s):
    """Oracle for is_marked: the intersection criterion on all (index + 1)^2
    pairs, as subspaces of the standard basis, f^a applied as f a times."""
    if not is_invariant(f, s):
        return False
    mapped = [s]  # f^a s
    while len(mapped) <= f.index:
        mapped.append(f.mat.map_subspace(mapped[-1]))
    for r in range(f.index + 1):
        rhs = s.intersect(f.image_chain[r])  # f^a (s ∩ Im f^r), from a = 0 up
        for a in range(f.index + 1):
            image = f.image_of_power(a + r)
            if (mapped[a].intersect(image) if image.rows else image) != rhs:
                return False
            rhs = f.mat.map_subspace(rhs)
    return True


def test_is_marked_matches_every_pair(conjugate):
    # every subspace up to n = 5; the invariant ones at n = 6 and off the Jordan basis
    rng = random.Random(29)
    cases = []
    for n in range(1, 7):
        for sizes in partitions(n):
            cases.append((jordan_operator(sizes), n == 6))
            cases.append((conjugate(sizes, rng), True))
    for f, invariant_only in cases:
        for s in enumerate_subspaces(f.dim):
            if invariant_only and not is_invariant(f, s):
                continue
            assert is_marked(f, s) == _is_marked_by_every_pair(f, s), (f.mat.rows, s.rows)


def test_is_marked_matches_every_pair_at_high_index(conjugate):
    # index 7 to 16, where the graded pass has many levels, on seeded conjugates
    # of the large shapes: sums of f-orbits of one to three random vectors (the
    # large workload classifies sums of two) and the counterexample span against
    # the oracle; every hyperinvariant subspace is marked, and every twelfth is
    # checked by the oracle too, which takes 3 to 4 ms a subspace at this size
    rng = random.Random(131)
    verdicts = []
    for sizes in LARGE_SHAPES:
        f = conjugate(sizes, rng)
        nodes = hyperinvariant_lattice(f)
        assert all(is_marked(f, s) for s in nodes), sizes
        subspaces = [counterexample(f)[0], *nodes[::12]]
        for k in range(12):
            orbit = Subspace.zero(f.dim)
            for _ in range(1 + k % 3):
                orbit = orbit.sum(cyclic_subspace(f, Gf2Vector(rng.getrandbits(f.dim), f.dim)))
            subspaces.append(orbit)
        for s in subspaces:
            marked = _is_marked_by_every_pair(f, s)
            assert is_marked(f, s) == classify(f, s).marked == marked, (sizes, s.rows)
            verdicts.append(marked)
    assert 0 < verdicts.count(False) < len(verdicts)


def test_scan_marked_census_and_counterexample_multiply_no_matrices(conjugate, monkeypatch):
    # the chain frame comes from the one inverse that proves the chains
    # independent, and the scan, the marked test, the census and the
    # counterexample then run in chain coordinates with no matrix product
    rng = random.Random(137)
    cases = []
    for sizes in ((1, 3), (2, 2, 3), (1, 2, 4), (1, 3, 5), *LARGE_SHAPES):
        f = conjugate(sizes, rng)
        picks = [Subspace.span_bits([rng.getrandbits(f.dim) for _ in range(3)], f.dim)]
        picks.append(cyclic_subspace(f, Gf2Vector(rng.getrandbits(f.dim), f.dim)))
        picks.append(picks[-1].sum(cyclic_subspace(f, Gf2Vector(rng.getrandbits(f.dim), f.dim))))
        nodes = hyperinvariant_lattice(f)
        cases.append((f.mat, nodes[len(nodes) // 2], picks))
    inverses = []
    inverse = Gf2Matrix.inverse

    def counted(m):
        inverses.append(m)
        return inverse(m)

    def verdicts():
        out = []
        for m, hyper, picks in cases:
            f = validate_nilpotent(m)  # a fresh operator builds its frame here
            before = len(inverses)
            report = classify(f, hyper)
            assert report.hyperinvariant
            out.append((report, counterexample(f)))
            out += [(is_invariant(f, s), is_marked(f, s)) for s in picks]
            assert len(inverses) - before <= 1
        census.cache_clear()
        jordan_operator.cache_clear()
        before = len(inverses)
        out += [census(sizes) for sizes in ((1, 3), (1, 2, 4), (2, 2, 3))]
        assert len(inverses) - before <= 3
        return out

    def refuse(*_):
        raise AssertionError("a matrix product on the scan or the marked path")

    monkeypatch.setattr(Gf2Matrix, "inverse", counted)
    try:
        expected = verdicts()
        assert {marked for _, marked in expected[1:4]} == {False, True}
        monkeypatch.setattr(Gf2Matrix, "__matmul__", refuse)
        assert verdicts() == expected
    finally:
        census.cache_clear()
        jordan_operator.cache_clear()


def test_stability_scans_start_with_f():
    # on a subspace f moves out, every class reports the invariance witness
    for n in range(1, 5):
        for sizes in partitions(n):
            f = jordan_operator(sizes)
            for s in enumerate_subspaces(n):
                bad = classify(f, s).invariance_witness
                if bad is None:
                    continue
                assert bad.matrix == f.mat
                assert is_characteristic(f, s) == (False, bad)
                assert is_hyperinvariant(f, s) == (False, bad)


def _every_subspace(conjugate, seed, max_dim=5):
    """(f, s) for every subspace of every partition with n <= max_dim, Jordan and conjugated."""
    rng = random.Random(seed)
    for n in range(1, max_dim + 1):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                for s in enumerate_subspaces(n):
                    yield f, s


def _stable(s, maps):
    return all(s.contains_bits(g.apply_bits(r)) for g in maps for r in s.rows)


def test_scan_matches_the_commutant_basis_oracle(conjugate):
    # oracle: stability under f and every unit generator, and under the RREF commutant basis
    for f, s in _every_subspace(conjugate, 31, max_dim=6):
        invariant = _stable(s, [f.mat])
        hyper = invariant and _stable(s, commutant_basis(f).basis)
        char = invariant and _stable(s, automorphism_generators(f))
        assert is_hyperinvariant(f, s)[0] == hyper, (f.mat.rows, s.rows)
        assert is_characteristic(f, s)[0] == char, (f.mat.rows, s.rows)
        report = classify(f, s)
        assert (report.invariant, report.characteristic, report.hyperinvariant) == (
            invariant,
            char,
            hyper,
        )
        assert report.marked == is_marked(f, s)


def _algebra(maps, n):
    """The span of I and every product of the maps: the algebra they generate."""
    words = [Gf2Matrix.identity(n)]
    span = Subspace.span_bits([flatten_matrix(words[0])], n * n)
    for w in words:  # grows while it is walked
        for g in maps:
            product = g @ w
            if not span.contains_bits(flatten_matrix(product)):
                span = span.sum(Subspace.span_bits([flatten_matrix(product)], n * n))
                words.append(product)
    return span


def _scanned_matrix(f, kind, link):
    """A scanned map rebuilt from its descriptor: f, I + N_(c,i,j) for a unit, P_c = N_(c,c,0)."""
    if link is None:
        return f.mat
    g = _chain_map(f, *link)
    return Gf2Matrix.identity(f.dim) + g if kind == MOVED_BY_UNIT else g


def test_unit_prefix_and_projections_generate_the_commutant(conjugate):
    # the premise of the scan: with I, f and the scanned units generate the
    # algebra of f and every unit generator; the projections complete the commutant
    rng = random.Random(37)
    operators = [jordan_operator(sizes) for n in range(1, 9) for sizes in partitions(n)]
    operators += [conjugate(sizes, rng) for n in range(1, 7) for sizes in partitions(n)]
    for f in operators:
        n = f.dim
        maps = tuple(
            (kind, _scanned_matrix(f, kind, link)) for kind, link, *_ in _stability_maps(f)
        )
        assert maps == stability_matrices(f), f.mat.rows
        assert maps[0][1] == f.mat
        prefix = [g for kind, g in maps if kind <= MOVED_BY_UNIT]
        units = _algebra([f.mat, *automorphism_generators(f)], n)
        assert _algebra(prefix, n) == units, f.mat.rows
        commutant = Subspace.span_bits(map(flatten_matrix, commutant_basis(f).basis), n * n)
        assert _algebra([g for _, g in maps], n) == commutant, f.mat.rows


def test_scan_matches_the_matrix_oracle(conjugate):
    # kind, map index and basis row where the matrix scan stops: every subspace
    # up to n = 6, the invariant subspaces at n = 7, each shape as a Jordan
    # matrix and one seeded conjugate; one subspace at a time and all of a
    # shape's in one batch
    rng = random.Random(59)
    for n in range(1, 8):
        every = list(enumerate_subspaces(n)) if n <= 6 else None
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                subspaces = every if every is not None else list(invariant_subspaces(f))
                chains = [_in_chains(f, s) for s in subspaces]
                expected = [first_exit_by_matrices(f, s, None) for s in subspaces]
                for s, chain, exit in zip(subspaces, chains, expected):
                    assert _first_exit(f, s, chain) == exit, (f.mat.rows, s.rows)
                batch = _scan(f, ((s.rows, *chain) for s, chain in zip(subspaces, chains)))
                assert list(batch) == expected, f.mat.rows
                if max(sizes) == 1:
                    # f is the zero map, whose mask 0 the scan skips: the unit
                    # exits must still report their index among all the maps
                    assert _stability_maps(f)[0][3] == 0
                    assert n == 1 or any(kind == MOVED_BY_UNIT for kind, _, _ in expected)


def test_only_a_reported_witness_builds_a_chain_map(monkeypatch, conjugate):
    # the scan reads shifts and masks; a chain map is built only as a witness
    # that classify reports, one at most, and never for a discarded one
    built = []

    def counting(f, c, i, j):
        built.append((c, i, j))
        return _chain_map(f, c, i, j)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "gf2hyper" and hasattr(module, "_chain_map"):
            monkeypatch.setattr(module, "_chain_map", counting)
    rng = random.Random(67)
    census.cache_clear()
    try:
        for sizes in [(1, 3), (1, 2, 3), (2, 6)]:
            census(sizes)
    finally:
        census.cache_clear()
    for sizes in [(1, 3), (1, 2, 4)]:
        f = conjugate(sizes, rng)
        assert build_analysis(f, census=True).shoda_holds
        _stable_lattice(f, MOVED_BY_UNIT)
    assert built == []
    reported = 0
    for sizes in [(1, 3), (1, 1, 2), (2, 2)]:
        f = conjugate(sizes, rng)
        for s in enumerate_subspaces(f.dim):
            built.clear()
            report = classify(f, s)
            moved_by_unit_or_projection = report.invariant and not report.hyperinvariant
            assert len(built) == moved_by_unit_or_projection, (f.mat.rows, s.rows)
            reported += moved_by_unit_or_projection
    assert reported > 0


def _span_of_bits(n, *vectors):
    return Subspace.span_bits([sum(1 << i for i in v) for v in vectors], n)


def test_units_f_times_a_single_chain_projection_are_needed():
    # on J(2,6) no scanned unit but I + f P_0 and I + f P_1 moves these invariant subspaces;
    # without them the scan would call both characteristic
    j = jordan_operator((2, 6))
    s1 = _span_of_bits(8, (0, 4, 5), (1, 5), (6,), (7,))
    s2 = _span_of_bits(8, (0, 4), (1, 5), (6,), (7,))
    n = j.dim
    p = random_invertible(random.Random(26), n)
    g = validate_nilpotent(p @ j.mat @ p.inverse())
    for f, subspaces in [(j, (s1, s2)), (g, (p.map_subspace(s1), p.map_subspace(s2)))]:
        units = enumerate_automorphisms(commutant_basis(f)).elements
        assert len(units) == 1024
        for s in subspaces:
            report = classify(f, s)
            assert report.invariant and not report.marked
            assert not report.characteristic and not report.hyperinvariant
            expected = Gf2Matrix.identity(n) + _chain_map(f, 0, 0, 1)
            assert report.characteristic_witness.matrix == expected
            assert not _stable(s, units)


def test_a_witness_that_keeps_its_row_inside_is_refused(monkeypatch):
    # the scan says the unit I + f P_0 moves s; a built map that fixes s contradicts it
    monkeypatch.setattr(
        sys.modules[_stability_maps.__module__],
        "_chain_map",
        lambda f, c, i, j: Gf2Matrix.zeros(f.dim, f.dim),
    )
    f = jordan_operator((2, 6))
    s = _span_of_bits(8, (0, 4, 5), (1, 5), (6,), (7,))
    with pytest.raises(AssertionError, match="keeps its row inside"):
        classify(f, s)


def test_invariance_builds_no_chain_map(monkeypatch):
    # the invariant and marked verdicts read the scan's kind and report no witness
    def refuse(*args):
        raise AssertionError("invariance must build no chain map")

    monkeypatch.setattr(sys.modules[_stability_maps.__module__], "_chain_map", refuse)
    f = jordan_operator((1, 2, 4))
    inside = f.kernel_chain[2]
    outside = Subspace.span([Gf2Vector(1 << 1, f.dim)], f.dim)
    assert is_invariant(f, inside) and not is_invariant(f, outside)
    assert is_marked(f, inside) and not is_marked(f, outside)


def test_stored_chains_and_chain_spans_match_the_cyclic_oracle(conjugate):
    # oracle: chains and spans rebuilt from the generators through the power tower
    rng = random.Random(53)
    for n in range(1, 8):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                u = generator_tuple(f)
                powers = power_tower(f)
                for g, chain, t in zip(u.generators, u.chains, u.exponents):
                    assert chain == tuple(powers[k].apply_bits(g.bits) for k in range(t))
                    assert powers[t].apply_bits(g.bits) == 0 and 0 not in chain
                tails = [
                    [cyclic_subspace(f, powers[r].apply(g)) for r in range(t + 1)]
                    for g, t in zip(u.generators, u.exponents)
                ]
                for shifts in itertools.product(*(range(t + 1) for t in u.exponents)):
                    oracle = Subspace.zero(n)
                    for tail, r in zip(tails, shifts):
                        oracle = oracle.sum(tail[r])
                    assert shifted_chain_span(f, u, AdmissibleTuple(shifts)) == oracle
                for mu in range(u.class_count):
                    oracle = Subspace.zero(n)
                    for i in u.class_indices(mu):
                        oracle = oracle.sum(tails[i][0])
                    assert class_span(f, u, mu) == oracle


def test_stability_tuple_sizes():
    # O(#chains) maps, not one per elementary chain map
    for sizes, count in [
        ((1, 3, 6, 10, 15, 21, 28), 26),
        ((2, 4, 6, 8, 10), 19),
        ((1,) * 7, 13),
        ((2, 2, 3, 3, 5), 11),
    ]:
        assert len(_stability_maps(jordan_operator(sizes))) == count, sizes


def _assert_moves_out(f, s, witness):
    g, v = witness.matrix, witness.vector
    assert g @ f.mat == f.mat @ g
    assert s.contains(v)
    assert not s.contains(g.apply(v))


def test_every_witness_commutes_and_moves_its_vector_out(conjugate):
    # and the characteristic verdict and witness are the matrix scan's, cut
    # after the unit prefix
    for f, s in _every_subspace(conjugate, 41):
        projections = {m for c, i, j, m in _chain_maps(f) if (i, j) == (c, 0)}
        char, char_witness = is_characteristic(f, s)
        hyper, hyper_witness = is_hyperinvariant(f, s)
        assert char == (char_witness is None) and hyper == (hyper_witness is None)
        kind, at, row = first_exit_by_matrices(f, s, None)
        if kind <= MOVED_BY_UNIT:
            expected = Witness(stability_matrices(f)[at][1], Gf2Vector(row, f.dim))
            assert (char, char_witness) == (False, expected), (f.mat.rows, s.rows)
        else:
            assert (char, char_witness) == (True, None), (f.mat.rows, s.rows)
        report = classify(f, s)
        if not report.invariant:
            _, at, row = _first_exit(f, s, _in_chains(f, s))
            assert report.invariance_witness == _witness(f, s, at, row)
            assert report.invariance_witness == char_witness
            _assert_moves_out(f, s, report.invariance_witness)
            continue
        assert report.invariance_witness is None
        assert report.characteristic_witness == char_witness
        assert report.hyperinvariance_witness == hyper_witness
        if not char:
            _assert_moves_out(f, s, char_witness)
            assert char_witness.matrix.is_invertible()
            assert hyper_witness == char_witness
        elif not hyper:
            _assert_moves_out(f, s, hyper_witness)
            assert hyper_witness.matrix in projections


def test_classification_paths_never_build_the_commutant_basis(monkeypatch):
    # nor every chain map, nor the unit generators: the scan builds its own few maps
    def refuse(f):
        raise AssertionError("classification must build only the scan tuple")

    for name in ("commutant_basis", "_chain_maps", "automorphism_generators"):
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "gf2hyper" and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    jordan_operator.cache_clear()
    census.cache_clear()
    for sizes in [(1, 3), (1, 1, 2), (2, 2), (1, 2, 3)]:
        f = jordan_operator(sizes)
        for s in census(sizes).invariant:
            classify(f, s)
            is_invariant(f, s)
            is_marked(f, s)
            is_characteristic(f, s)
            is_hyperinvariant(f, s)
    assert counterexample(jordan_operator((1, 3, 5))) is not None
    assert build_analysis(jordan_operator((1, 3, 5))).commutant_dimension == 19
    assert build_analysis(jordan_operator((1, 3)), census=True).lattice_census.characteristic == 7
    jordan_operator.cache_clear()
    census.cache_clear()


def test_derived_data_lives_as_long_as_the_operator():
    # what is derived from f is kept on f, so nothing holds f once the caller drops it
    p = random_invertible(random.Random(97), 7)
    f = validate_nilpotent(p @ jordan_matrix((1, 2, 4)) @ p.inverse())
    assert build_analysis(f, census=True).lattice_census.characteristic
    span, _ = counterexample(f)
    assert not classify(f, span).hyperinvariant
    assert _stable_lattice(f, MOVED_BY_F)[0] and _stable_lattice(f, MOVED_BY_UNIT)[0]
    assert _hyperinvariant_lattice(f)[0]
    assert commutant_basis(f).dim == 15
    assert automorphism_generators(f)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_shifted_chain_span_examples(golden):
    u = generator_tuple(golden)
    assert shifted_chain_span(golden, u, AdmissibleTuple((0, 0))) == WHOLE
    assert shifted_chain_span(golden, u, AdmissibleTuple((1, 3))) == Subspace.zero(4)
    assert shifted_chain_span(golden, u, AdmissibleTuple((0, 1))) == golden.kernel_chain[2]
    with pytest.raises(InadmissibleTuple):
        shifted_chain_span(golden, u, AdmissibleTuple((2, 0)))
    with pytest.raises(InadmissibleTuple):
        shifted_chain_span(golden, u, AdmissibleTuple((0, 0, 0)))
    with pytest.raises(InadmissibleTuple):
        AdmissibleTuple((-1, 0))


def test_shifted_chain_span_dimension():
    for sizes in [(1, 3), (2, 2), (1, 2, 4)]:
        f = jordan_operator(sizes)
        u = generator_tuple(f)
        for shifts in itertools.product(*(range(t + 1) for t in sizes)):
            w = shifted_chain_span(f, u, AdmissibleTuple(shifts))
            assert w.dim == sum(t - r for t, r in zip(sizes, shifts))


def test_shifted_chains_that_meet_are_refused(monkeypatch):
    # f u_1 tampered into f^2 u_1: the spans lose a dimension, and both the
    # walk and shifted_chain_span raise where they would return a smaller subspace
    f = validate_nilpotent(jordan_matrix((1, 3)))
    u = generator_tuple(f)
    u0, u1 = u.chains
    tampered = dataclasses.replace(u, chains=(u0, (u1[0], u1[2], u1[2])))
    with pytest.raises(AssertionError, match="shifted chains failed to stay independent"):
        shifted_chain_span(f, tampered, AdmissibleTuple((0, 1)))
    monkeypatch.setattr(sys.modules["gf2hyper.classify"], "generator_tuple", lambda g: tampered)
    with pytest.raises(AssertionError, match="shifted chains failed to stay independent"):
        _hyperinvariant_lattice(f)


def test_monotone_shift_condition():
    assert monotone_shift_condition((1, 3), (0, 1))
    assert not monotone_shift_condition((1, 3), (1, 0))
    assert monotone_shift_condition((2, 2), (1, 1))
    assert not monotone_shift_condition((2, 2), (0, 1))  # equal lengths force equal shifts
    assert monotone_shift_condition((1, 3), AdmissibleTuple((0, 2)))


def test_monotone_shifts_match_the_filtered_product():
    for n in range(1, 9):
        for sizes in partitions(n):
            product = itertools.product(*(range(t + 1) for t in sizes))
            expected = [r for r in product if monotone_shift_condition(sizes, r)]
            assert monotone_shifts(sizes) == expected, sizes


def test_monotone_shift_count_matches_the_tuples():
    # the DP that gates `lattice --which hinv` counts what the lattice builds:
    # on the class exponents of every shape with n <= 12, and on its full
    # exponent tuple, with repeats
    for n in range(1, 13):
        for sizes in partitions(n):
            for exponents in (tuple(sorted(set(sizes))), tuple(sorted(sizes))):
                assert _monotone_shift_count(exponents) == len(monotone_shifts(exponents)), sizes
    assert _monotone_shift_count(tuple(range(1, 26))) == 1 << 25


def test_hyperinvariant_lattice_golden(golden, e):
    lattice = set(hyperinvariant_lattice(golden))
    expected = {
        Subspace.zero(4),
        Subspace.span([e[3]], 4),
        Subspace.span([e[2], e[3]], 4),
        Subspace.span([e[0], e[3]], 4),
        Subspace.span([e[0], e[2], e[3]], 4),
        WHOLE,
    }
    assert lattice == expected


def test_hyperinvariant_lattice_chain_and_trivial():
    n3 = jordan_operator((3,))
    lattice = hyperinvariant_lattice(n3)
    assert [s.dim for s in lattice] == [0, 1, 2, 3]
    zero2 = validate_nilpotent(Gf2Matrix.zeros(2, 2))
    assert [s.dim for s in hyperinvariant_lattice(zero2)] == [0, 2]


def test_lattice_members_are_exactly_the_hyperinvariant_subspaces():
    for sizes in [(1, 3), (2, 2), (1, 1, 2), (4,)]:
        f = jordan_operator(sizes)
        lattice = set(hyperinvariant_lattice(f))
        by_census = {
            s
            for s in enumerate_subspaces(f.dim)
            if is_invariant(f, s) and is_hyperinvariant(f, s)[0]
        }
        assert lattice == by_census


def test_lattice_matches_the_closure_off_the_jordan_basis(conjugate):
    rng = random.Random(17)
    for n in range(1, 8):
        for sizes in partitions(n):
            f = conjugate(sizes, rng)
            assert hyperinvariant_lattice(f) == lattice_closure(f)


def _shifted_chain_spans(f):
    u = generator_tuple(f)
    return {shifted_chain_span(f, u, AdmissibleTuple(r)) for r in monotone_shifts(u.exponents)}


def test_hyperinvariant_covers_match_the_projection_walk(conjugate):
    # the shift-tuple cover rule is proven in `_hyperinvariant_lattice`; the cover
    # walk through the whole scan, which reaches the same subspaces by their
    # closures, guards it; the nodes, each grown from one it covers, are the spans
    # of the full shift tuples
    rng = random.Random(83)
    for n in range(1, 9):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                walk = _stable_lattice(f, MOVED_BY_PROJECTION)
                assert _hyperinvariant_lattice(f) == walk, sizes
                assert set(walk[0]) == _shifted_chain_spans(f), sizes
    f = conjugate((2, 4, 6, 8, 10), random.Random(41))
    nodes, edges = _hyperinvariant_lattice(f)
    assert len(nodes) == 243
    assert set(nodes) == _shifted_chain_spans(f)
    assert (nodes, edges) == _stable_lattice(f, MOVED_BY_PROJECTION)


def test_hyperinvariant_lattice_extends_one_form_per_nonzero_node(conjugate, monkeypatch):
    # each node but zero is one RREF extension of a node it covers, and no node
    # is built twice, whichever of its covers the walk reaches first
    calls = []
    classify_mod = importlib.import_module("gf2hyper.classify")  # the package exports the function
    real = classify_mod._rref_extend

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(classify_mod, "_rref_extend", counted)
    rng = random.Random(29)
    shapes = [sizes for n in range(1, 9) for sizes in partitions(n)]
    for sizes in shapes + [(1, 3, 5, 7), (2, 4, 6, 8, 10), (1, 1, 2, 3, 5, 8, 13)]:
        f = conjugate(sizes, rng)
        calls.clear()
        nodes, _ = _hyperinvariant_lattice(f)
        assert len(calls) == len(nodes) - 1, sizes


def test_stable_lattice_nodes_match_the_census():
    # the walk's nodes are the census's invariant and characteristic subspaces,
    # on each Jordan matrix and, mapped by P, on a seeded conjugate P J P^-1
    rng = random.Random(89)
    for n in range(1, 7):
        for sizes in partitions(n):
            data = census(sizes)
            p = random_invertible(rng, n)
            conjugated = validate_nilpotent(p @ jordan_matrix(sizes) @ p.inverse())
            for f, g in ((jordan_operator(sizes), Gf2Matrix.identity(n)), (conjugated, p)):
                for through, expected in (
                    (MOVED_BY_F, data.invariant),
                    (MOVED_BY_UNIT, data.characteristic),
                ):
                    mapped = sorted(map(g.map_subspace, expected), key=lambda s: (s.dim, s.rows))
                    assert _stable_lattice(f, through)[0] == tuple(mapped), (sizes, through)


def test_lattice_of_equal_blocks_skips_the_shift_product(monkeypatch):
    # equal chain lengths force equal shifts: 3 tuples among 3^8, 2 among 2^12
    def refuse(*args, **kwargs):
        raise AssertionError("the shift tuples must not come from a product")

    monkeypatch.setattr(itertools, "product", refuse)
    for sizes, count in [((2,) * 8, 3), ((1,) * 12, 2)]:
        f = validate_nilpotent(jordan_matrix(sizes))
        lattice = hyperinvariant_lattice(f)
        assert len(lattice) == count
        assert lattice == tuple(f.image_chain[::-1])


def test_largest_hyperinvariant_inside_golden(golden, golden_x, e):
    u = generator_tuple(golden)
    tilde = largest_hyperinvariant_inside(golden, u, golden_x)
    assert tilde == Subspace.span([e[3]], 4)
    assert largest_hyperinvariant_inside(golden, u, WHOLE) == WHOLE
    for w in hyperinvariant_lattice(golden):
        assert largest_hyperinvariant_inside(golden, u, w) == w


def test_classify_golden(golden, golden_x, e):
    report = classify(golden, golden_x)
    assert report.invariant
    assert not report.marked
    assert report.characteristic
    assert not report.hyperinvariant
    assert report.invariance_witness is None
    assert report.hyperinvariance_witness is not None

    kernel_report = classify(golden, golden.kernel_chain[1])
    assert kernel_report.invariant and kernel_report.marked
    assert kernel_report.characteristic and kernel_report.hyperinvariant

    rogue = classify(golden, Subspace.span([e[1]], 4))
    assert not rogue.invariant
    assert not rogue.marked and not rogue.characteristic and not rogue.hyperinvariant
    assert rogue.invariance_witness is not None


def test_hyper_iff_characteristic_and_marked_up_to_dim_5():
    for n in range(1, 6):
        for sizes in partitions(n):
            data = census(sizes)
            assert set(data.hyperinvariant) == set(data.characteristic) & set(data.marked)


def test_every_invariant_subspace_marked_when_sizes_differ_by_one():
    data = census((2, 3))
    assert set(data.marked) == set(data.invariant)


def test_projection_components_stay_inside_characteristic_subspaces():
    # in a class with more than one block each chain projection lies in the
    # algebra the units generate, so a characteristic subspace keeps each component
    for sizes in [(1, 1, 2), (1, 2, 2), (2, 2, 3)][:2]:
        f = jordan_operator(sizes)
        u = generator_tuple(f)
        data = census(sizes)
        for s in data.characteristic:
            for mu in range(u.class_count):
                if len(u.class_indices(mu)) <= 1:
                    continue
                for r in s.rows:
                    for i in u.class_indices(mu):
                        assert s.contains_bits(_chain_map(f, i, i, 0).apply_bits(r))


def test_largest_hyperinvariant_is_maximal():
    rng = random.Random(13)
    pool = []
    for n in range(2, 6):
        for sizes in partitions(n):
            for s in census(sizes).characteristic:
                pool.append((sizes, s))
    for sizes, s in rng.sample(pool, 20):
        f = jordan_operator(sizes)
        u = generator_tuple(f)
        tilde = largest_hyperinvariant_inside(f, u, s)
        assert contains_subspace(s, tilde)
        assert is_hyperinvariant(f, tilde)[0]
        for w in hyperinvariant_lattice(f):
            if contains_subspace(s, w):
                assert contains_subspace(tilde, w)


def test_characteristic_class_intersections_are_shifted_chains():
    # inside every characteristic subspace, the slice along one
    # equal-exponent summand is a power of f applied to that summand,
    # and the shift profile satisfies the monotone condition
    from gf2hyper.nilpotent import class_span

    for sizes in [(1, 3), (1, 1, 2), (2, 3), (1, 2, 2)]:
        f = jordan_operator(sizes)
        u = generator_tuple(f)
        powers = power_tower(f)
        for s in census(sizes).characteristic:
            profile = []
            for mu in range(u.class_count):
                a = u.class_exponent(mu)
                summand = class_span(f, u, mu)
                slice_ = s.intersect(summand)
                matches = [
                    c
                    for c in range(a + 1)
                    if powers[c].map_subspace(summand) == slice_
                ]
                assert matches, (sizes, s.rows, mu)
                profile.append((a, matches[0]))
            shifts = [c for _, c in profile]
            assert all(x <= y for x, y in zip(shifts, shifts[1:]))
            co = [a - c for a, c in profile]
            assert all(x <= y for x, y in zip(co, co[1:]))
