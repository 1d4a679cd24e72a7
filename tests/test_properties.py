from hypothesis import given, settings
from hypothesis import strategies as st

from gf2hyper import Gf2Matrix, Subspace, classify, validate_nilpotent
from gf2hyper.verify import census, jordan_operator, partitions

SHAPES = [sizes for n in range(1, 7) for sizes in partitions(n)]


@st.composite
def change_of_basis(draw):
    """A partition with n <= 6, an invertible P, and S: either the span of
    random rows, or one of the shape's invariant subspaces, so that every
    combination of verdicts is drawn.

    P is a permuted product of a lower and an upper unitriangular matrix;
    every invertible matrix has that form, and no draw is rejected.
    """
    sizes = draw(st.sampled_from(SHAPES))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    lower = [1 << i | draw(st.integers(0, (1 << i) - 1)) for i in range(n)]
    upper = [1 << i | draw(st.integers(0, (1 << n) - 1)) >> (i + 1) << (i + 1) for i in range(n)]
    p = (
        Gf2Matrix(tuple(1 << k for k in perm), n)
        @ Gf2Matrix(tuple(lower), n)
        @ Gf2Matrix(tuple(upper), n)
    )
    if draw(st.booleans()):
        s = draw(st.sampled_from(census(sizes).invariant))
    else:
        s = Subspace.span_bits(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n)), n)
    return jordan_operator(sizes), p, s


def _verdicts(report):
    return report.invariant, report.marked, report.characteristic, report.hyperinvariant


@settings(max_examples=200, deadline=None)
@given(change_of_basis())
def test_classify_is_invariant_under_change_of_basis(case):
    f, p, s = case
    g = validate_nilpotent(p @ f.mat @ p.inverse())
    ps = Subspace.span_bits((p.apply_bits(r) for r in s.rows), f.dim)
    assert _verdicts(classify(g, ps)) == _verdicts(classify(f, s))
