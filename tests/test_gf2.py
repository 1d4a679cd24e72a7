import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gf2hyper import (
    CapExceeded,
    DimensionMismatch,
    Gf2Matrix,
    Gf2Vector,
    ParseError,
    SingularMatrix,
    Subspace,
    format_matrix,
    format_subspace,
    gaussian_binomial,
    generator_tuple,
    invariant_subspaces,
    parse_matrix,
    parse_subspace,
    subspace_count,
    validate_nilpotent,
)
from gf2hyper import gf2
from gf2hyper.gf2 import (
    SUBSPACE_ENUM_CAP,
    _FIRST_PAST_CAP,
    _check_subspace_cap,
    _echelonize,
    _subspace_rows,
    enumerate_subspaces,
)
from gf2hyper.verify import jordan_operator, partitions

from conftest import (
    PACKED_ROWS,
    apply_by_row_parity,
    contains_subspace,
    coordinate_rows,
    echelonize_by_insertion,
    parse_rows_by_token,
    power_tower,
)


def span_members(rows, n):
    # independent oracle: all XOR combinations of the given rows
    out = set()
    for k in range(len(rows) + 1):
        for combo in itertools.combinations(rows, k):
            acc = 0
            for r in combo:
                acc ^= r
            out.add(acc)
    return out


def random_matrix(rng, n_rows, n_cols):
    return Gf2Matrix(tuple(rng.getrandbits(n_cols) for _ in range(n_rows)), n_cols)


def test_vector_basics():
    v = Gf2Vector.from_coords([1, 0, 1, 0])
    assert v.bits == 0b0101
    assert v.to_text() == "1 0 1 0"
    assert (v + v).is_zero()
    with pytest.raises(DimensionMismatch):
        v + Gf2Vector(0, 3)
    with pytest.raises(ValueError):
        Gf2Vector(0b10000, 4)


def test_rref_identity_is_fixed():
    ident = Gf2Matrix.identity(3)
    assert _echelonize(ident.rows) == (list(ident.rows), [0, 1, 2])


def test_rref_single_elimination():
    # rows e1+e3, e3
    assert _echelonize((0b0101, 0b0100)) == ([0b0001, 0b0100], [0, 2])


def test_rref_preserves_row_space():
    rng = random.Random(1)
    seen_rank4 = 0
    while seen_rank4 < 5:
        m = random_matrix(rng, 6, 6)
        if m.rank() != 4:
            continue
        seen_rank4 += 1
        basis, pivots = _echelonize(m.rows)
        assert len(basis) == 4 and all(basis)
        assert span_members(m.rows, 6) == span_members(basis, 6)
        # strictly increasing pivots, each the lowest bit of its row and
        # cleared in every other row
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert basis[i] & -basis[i] == 1 << p
            assert [k for k, r in enumerate(basis) if r >> p & 1] == [i]


def test_rref_idempotent():
    rng = random.Random(2)
    for _ in range(25):
        m = random_matrix(rng, 5, 7)
        basis, pivots = _echelonize(m.rows)
        assert _echelonize(basis) == (basis, pivots)


def test_echelonize_matches_the_insertion_oracle():
    # zero, repeated and dependent rows, dense and sparse, on widths past one machine word
    rng = random.Random(4)
    for width in (1, 5, 63, 64, 65, 130, 257):
        for trial in range(30):
            if trial % 2:
                base = [rng.getrandbits(width) for _ in range(rng.randint(0, 9))]
            else:
                base = [
                    sum(1 << rng.randrange(width) for _ in range(3))
                    for _ in range(rng.randint(0, 9))
                ]
            rows = base + [0] * rng.randint(0, 2)
            rows += [rng.choice(base) for _ in range(2)] if base else []
            rows += [a ^ b for a, b in zip(base, base[2:])]
            rng.shuffle(rows)
            assert _echelonize(rows) == echelonize_by_insertion(rows), (width, rows)


def test_apply_bits_matches_the_row_parity_oracle():
    rng = random.Random(6)
    for n_rows, n_cols in [(1, 1), (3, 5), (5, 3), (0, 4), (70, 9), (9, 70), (65, 65), (130, 3)]:
        m = random_matrix(rng, n_rows, n_cols)
        for bits in [0, (1 << n_cols) - 1] + [rng.getrandbits(n_cols) for _ in range(20)]:
            assert m.apply_bits(bits) == apply_by_row_parity(m, bits), (n_rows, n_cols)
        if n_rows:
            units = (apply_by_row_parity(m, 1 << j) for j in range(n_cols))
            assert m.image() == Subspace.span_bits(units, n_rows)


def test_column_cache_is_not_a_field():
    # the columns are kept per matrix, outside eq, hash, repr and the JSON codec
    assert [f.name for f in dataclasses.fields(Gf2Matrix)] == ["rows", "n_cols"]
    a = random_matrix(random.Random(7), 6, 4)
    a.apply_bits(0b1011)
    b = Gf2Matrix(a.rows, a.n_cols)
    assert "_columns" in vars(a) and "_columns" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_rank_examples(golden):
    assert Gf2Matrix.zeros(4, 4).rank() == 0
    assert Gf2Matrix.identity(5).rank() == 5
    # image of the golden operator spans exactly {f v} over all 16 vectors
    images = {golden.mat.apply_bits(v) for v in range(16)}
    oracle_dim = len(Subspace.span_bits(images, 4).rows)
    assert golden.mat.rank() == oracle_dim == 2


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rank() + m.kernel().dim == m.n_cols


def test_kernel_examples(golden, e):
    assert golden.mat.kernel() == Subspace.span([e[0], e[3]], 4)
    assert Gf2Matrix.identity(3).kernel() == Subspace.zero(3)
    f2 = golden.mat @ golden.mat
    oracle = [v for v in range(16) if f2.apply_bits(v) == 0]
    assert golden.mat.kernel().contains_bits(0)
    assert power_tower(golden)[2].kernel() == Subspace.span_bits(oracle, 4)
    assert power_tower(golden)[2].kernel() == Subspace.span([e[0], e[2], e[3]], 4)


def test_image_examples(golden, e):
    assert golden.mat.image() == Subspace.span([e[2], e[3]], 4)
    assert Gf2Matrix.zeros(3, 3).image() == Subspace.zero(3)
    f2 = power_tower(golden)[2]
    oracle = {f2.apply_bits(v) for v in range(16)}
    assert f2.image() == Subspace.span_bits(oracle, 4)
    assert f2.image() == Subspace.span([e[3]], 4)


def test_sum_examples(e):
    a = Subspace.span([e[0]], 4)
    zero = Subspace.zero(4)
    assert a.sum(zero) == a
    assert a.sum(Subspace.span([e[3]], 4)) == Subspace.span([e[0], e[3]], 4)


def test_intersect_examples(e):
    a = Subspace.span([e[0], e[3]], 4)
    b = Subspace.span([e[2], e[3]], 4)
    got = a.intersect(b)
    oracle = span_members(a.rows, 4) & span_members(b.rows, 4)
    assert span_members(got.rows, 4) == oracle
    assert got == Subspace.span([e[3]], 4)
    assert a.intersect(a) == a
    assert a.intersect(Subspace.zero(4)) == Subspace.zero(4)


def test_sum_intersect_brute_force_gf2_5():
    rng = random.Random(4)
    for _ in range(40):
        a = Subspace.span_bits([rng.getrandbits(5) for _ in range(rng.randint(0, 4))], 5)
        b = Subspace.span_bits([rng.getrandbits(5) for _ in range(rng.randint(0, 4))], 5)
        members_a = span_members(a.rows, 5)
        members_b = span_members(b.rows, 5)
        assert span_members(a.sum(b).rows, 5) == {x ^ y for x in members_a for y in members_b}
        assert span_members(a.intersect(b).rows, 5) == members_a & members_b


def test_sum_intersect_all_pairs_dimension_4():
    all_subspaces = list(enumerate_subspaces(4))
    members = {s: span_members(s.rows, 4) for s in all_subspaces}
    for a, b in itertools.product(all_subspaces, repeat=2):
        assert members[a.sum(b)] == {x ^ y for x in members[a] for y in members[b]}
        assert members[a.intersect(b)] == members[a] & members[b]


def test_modular_dimension_law():
    rng = random.Random(5)
    for _ in range(50):
        a = Subspace.span_bits([rng.getrandbits(6) for _ in range(3)], 6)
        b = Subspace.span_bits([rng.getrandbits(6) for _ in range(3)], 6)
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_contains(golden_x, e):
    assert not golden_x.contains(e[0])
    assert golden_x.contains(e[3])
    assert golden_x.contains(Gf2Vector(0, 4))
    with pytest.raises(DimensionMismatch):
        golden_x.contains(Gf2Vector(0, 3))


def test_map_subspace(golden, golden_x, e):
    image_oracle = {golden.mat.apply_bits(v) for v in span_members(golden_x.rows, 4)}
    mapped = golden.mat.map_subspace(golden_x)
    assert span_members(mapped.rows, 4) == image_oracle
    assert mapped == Subspace.span([e[3]], 4)
    assert golden.mat.map_subspace(Subspace.zero(4)) == Subspace.zero(4)
    assert Gf2Matrix.identity(4).map_subspace(golden_x) == golden_x


def test_enumerate_vectors(golden_x):
    zero = Subspace.zero(3)
    assert [v.bits for v in zero.enumerate_vectors()] == [0]
    got = [v.bits for v in golden_x.enumerate_vectors()]
    assert got == [0, 0b0101, 0b1000, 0b1101]
    plane = Subspace.span([Gf2Vector(1, 4), Gf2Vector(2, 4)], 4)
    assert sorted(v.bits for v in plane.enumerate_vectors()) == [0, 1, 2, 3]
    with pytest.raises(CapExceeded, match=r"^enumerating 2\*\*21 vectors exceeds the cap of 2\*\*20$"):
        Subspace.span_bits((1 << i for i in range(21)), 21).enumerate_vectors()


def test_canonicity():
    rng = random.Random(6)
    for _ in range(40):
        rows = [rng.getrandbits(6) for _ in range(3)]
        s1 = Subspace.span_bits(rows, 6)
        # same span presented differently: shuffled sums of the rows
        mixed = [rows[0] ^ rows[1], rows[2], rows[1], rows[0] ^ rows[2]]
        rng.shuffle(mixed)
        s2 = Subspace.span_bits(mixed, 6)
        assert span_members(s1.rows, 6) == span_members(s2.rows, 6)
        assert s1 == s2


def test_list_rows_are_kept_as_tuples():
    # list rows would make the value unhashable, and fail inside cached calls
    m = Gf2Matrix([0, 1], 2)
    assert m.rows == (0, 1) and hash(m) == hash(Gf2Matrix((0, 1), 2))
    assert generator_tuple(validate_nilpotent(m)).exponents == (2,)
    s = Subspace([1], 2)
    assert s.rows == (1,) and hash(s) == hash(Subspace((1,), 2))


def test_subspace_validation_rejects_non_canonical():
    with pytest.raises(ValueError):
        Subspace((0b11, 0b10), 2)  # pivot column of row 2 not cleared in row 1
    with pytest.raises(ValueError):
        Subspace((0b10, 0b01), 2)  # pivots not increasing


def test_unchecked_constructions_pass_the_checking_constructor(conjugate):
    # these routes skip the canonical-form check; each result must survive it
    rng = random.Random(53)
    built = [s for n in range(1, 6) for s in enumerate_subspaces(n)]
    for n in range(1, 7):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                built += invariant_subspaces(f)
    for _ in range(500):
        n = rng.randint(1, 9)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(0, n + 2))]
        built.append(Subspace.span_bits(rows, n))
    for s in built:
        checked = Subspace(s.rows, s.ambient_dim)
        assert checked == s and checked.pivots == s.pivots


def test_span_bits_rejects_rows_outside_the_ambient_space():
    with pytest.raises(ValueError):
        Subspace.span_bits([0b100], 2)
    with pytest.raises(ValueError):
        Subspace.span_bits([0b01, 0b101], 2)
    with pytest.raises(ValueError):
        Subspace.span_bits([1], 0)
    with pytest.raises(ValueError):
        Subspace.span_bits([], 0)


def test_enumerate_subspaces_counts():
    assert len(list(enumerate_subspaces(1))) == 2
    assert len(list(enumerate_subspaces(2))) == 5
    all4 = list(enumerate_subspaces(4))
    assert len(all4) == 67
    assert len(set(all4)) == 67
    assert subspace_count(4) == 67
    by_dim = {}
    for s in all4:
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    assert by_dim == {0: 1, 1: 15, 2: 35, 3: 15, 4: 1}
    assert gaussian_binomial(4, 2) == 35


def test_enumerate_subspaces_cap():
    with pytest.raises(CapExceeded) as info:
        next(enumerate_subspaces(10))
    assert str(info.value) == f"GF(2)^10 has {subspace_count(10)} subspaces, above the cap of 16777216"


def test_subspace_cap_counts_only_the_first_space_past_it(monkeypatch):
    assert subspace_count(_FIRST_PAST_CAP - 1) <= SUBSPACE_ENUM_CAP < subspace_count(_FIRST_PAST_CAP)
    # past the first space, the message's bound is below the exact count
    for n in range(_FIRST_PAST_CAP + 1, 40):
        assert subspace_count(n) > 2 ** ((n // 2) * (n - n // 2))

    def refuse(n):
        raise AssertionError("the subspace count was built")

    monkeypatch.setattr(gf2, "subspace_count", refuse)
    for n in range(_FIRST_PAST_CAP):
        _check_subspace_cap(n)
    for n, bound in ((11, 30), (300, 22500), (10**6, 250000000000)):
        with pytest.raises(CapExceeded) as info:
            _check_subspace_cap(n)
        assert str(info.value) == f"GF(2)^{n} has more than 2^{bound} subspaces, above the cap of 16777216"


def test_subspace_rows_onto_the_leading_positions():
    # over the unit vectors, onto=d keeps the subspaces of GF(2)^(d+e) with
    # pivots 0 ... d-1: sum_k [e, k] 2^(d(e-k)) of them, each once
    for n in range(1, 7):
        every = list(enumerate_subspaces(n))
        for d in range(n + 1):
            e = n - d
            got = [
                Subspace._canonical(rows, pivots, n)
                for rows, pivots in _subspace_rows([1 << i for i in range(n)], onto=d)
            ]
            assert got == [s for s in every if s.pivots[:d] == tuple(range(d))]
            assert len(set(got)) == len(got)
            assert len(got) == sum(gaussian_binomial(e, k) << d * (e - k) for k in range(e + 1))


def test_subspace_rows_over_a_subspace_basis():
    rng = random.Random(59)
    for _ in range(30):
        n = rng.randint(1, 8)
        s = Subspace.span_bits([rng.getrandbits(n) for _ in range(rng.randint(0, 5))], n)
        spans = {Subspace.span_bits(rows, n) for rows, _ in _subspace_rows(s.rows)}
        assert len(spans) == subspace_count(s.dim)
        assert all(contains_subspace(s, t) for t in spans)


def test_matrix_multiply_against_entries():
    rng = random.Random(7)
    for _ in range(20):
        a = random_matrix(rng, 4, 5)
        b = random_matrix(rng, 5, 3)
        c = a @ b
        for i in range(4):
            for j in range(3):
                expected = 0
                for k in range(5):
                    expected ^= a.entry(i, k) & b.entry(k, j)
                assert c.entry(i, j) == expected


def test_matrix_inverse():
    rng = random.Random(8)
    found = 0
    while found < 10:
        m = random_matrix(rng, 5, 5)
        if not m.is_invertible():
            continue
        found += 1
        assert m @ m.inverse() == Gf2Matrix.identity(5)
        assert m.inverse() @ m == Gf2Matrix.identity(5)
    with pytest.raises(SingularMatrix):
        Gf2Matrix.zeros(3, 3).inverse()


def test_parse_format_roundtrip(golden, golden_x):
    assert parse_matrix(format_matrix(golden.mat)) == golden.mat
    assert parse_subspace(format_subspace(golden_x)) == golden_x
    zero = Subspace.zero(4)
    assert parse_subspace(format_subspace(zero)) == zero


@given(PACKED_ROWS)
@example((1, []))
@example((1, [0, 1]))
@example((65, [1 << 64, 1]))
@example((130, [(1 << 130) - 1, 0]))
@settings(max_examples=200, deadline=None)
def test_text_writers_write_the_per_coordinate_form(case):
    width, rows = case

    def lines(packed):
        return [" ".join(str(c) for c in coords) for coords in coordinate_rows(packed, width)]

    assert [Gf2Vector(r, width).to_text() for r in rows] == lines(rows)
    m = Gf2Matrix(tuple(rows), width)
    assert m.to_text() == str(m) == "\n".join(lines(rows))
    assert format_matrix(m) == "\n".join([f"{len(rows)} {width}"] + lines(rows))
    s = Subspace.span_bits(rows, width)
    assert s.to_text() == "\n".join(lines(s.rows))
    assert format_subspace(s) == "\n".join([f"{s.dim} {width}"] + lines(s.rows))


def test_parse_accepts_comments_and_blanks():
    text = "# operator\n\n2 2\n0 0\n1 0\n# trailing note\n"
    assert parse_matrix(text).rows == (0, 1)


# tokens a 0/1 row must not take, though int(..., 2) or str.isdigit might
MALFORMED_TOKENS = ["00", "2", "-0", "+1", "0b1", "1_0", "\uff11"]


@st.composite
def token_rows(draw):
    """(width, rows of tokens): 0/1 rows, or one row with a malformed token or
    one entry too many or too few (never none: a blank line is no row)."""
    width = draw(st.integers(1, 70))
    row = st.lists(st.sampled_from("01"), min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=4))
    flaw = draw(st.sampled_from(["none", "token", "count"]))
    if rows and flaw == "token":
        bad = draw(st.sampled_from(rows))
        bad[draw(st.integers(0, width - 1))] = draw(st.sampled_from(MALFORMED_TOKENS))
    elif rows and flaw == "count":
        bad = draw(st.sampled_from(rows))
        if width > 1 and draw(st.booleans()):
            bad.pop()
        else:
            bad.append("0")
    return width, rows


@given(token_rows())
@example((2, [["0", "00"]]))
@example((1, [["-0"]]))
@example((3, [["1", "0"]]))
@settings(max_examples=300, deadline=None)
def test_parse_matrix_matches_the_per_token_oracle(case):
    width, rows = case
    text = f"{len(rows)} {width}\n" + "".join(" ".join(r) + "\n" for r in rows)
    try:
        expected = parse_rows_by_token(rows, width)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_matrix(text)
        assert str(info.value) == str(exc)
    else:
        assert parse_matrix(text) == Gf2Matrix(expected, width)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("2\n0 0\n0 0")
    with pytest.raises(ParseError):
        parse_matrix("2 2\n0 0")
    with pytest.raises(ParseError):
        parse_matrix("1 2\n0 2")
    with pytest.raises(ParseError):
        parse_matrix("1 2\n0 0 1")
