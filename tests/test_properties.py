from hypothesis import given, settings
from hypothesis import strategies as st

from gf2hyper import Gf2Matrix, Subspace, classify, counterexample, validate_nilpotent
from gf2hyper.verify import census, jordan_operator, partitions

SHAPES = [sizes for n in range(1, 7) for sizes in partitions(n)]
SHAPES_UP_TO_8 = [sizes for n in range(1, 9) for sizes in partitions(n)]


def _invertible(draw, n):
    """A permuted product of a lower and an upper unitriangular matrix.

    Every invertible matrix has that form, and no draw is rejected.
    """
    perm = draw(st.permutations(range(n)))
    lower = [1 << i | draw(st.integers(0, (1 << i) - 1)) for i in range(n)]
    upper = [1 << i | draw(st.integers(0, (1 << n) - 1)) >> (i + 1) << (i + 1) for i in range(n)]
    return (
        Gf2Matrix(tuple(1 << k for k in perm), n)
        @ Gf2Matrix(tuple(lower), n)
        @ Gf2Matrix(tuple(upper), n)
    )


@st.composite
def change_of_basis(draw):
    """A partition with n <= 6, an invertible P, and S: either the span of
    random rows, or one of the shape's invariant subspaces, so that every
    combination of verdicts is drawn."""
    sizes = draw(st.sampled_from(SHAPES))
    n = sum(sizes)
    p = _invertible(draw, n)
    if draw(st.booleans()):
        s = draw(st.sampled_from(census(sizes).invariant))
    else:
        s = Subspace.span_bits(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n)), n)
    return jordan_operator(sizes), p, s


def _verdicts(report):
    return report.invariant, report.marked, report.characteristic, report.hyperinvariant


def _conjugate(f, p):
    return validate_nilpotent(p @ f.mat @ p.inverse())


def _image(p, s):
    return Subspace.span_bits((p.apply_bits(r) for r in s.rows), s.ambient_dim)


@settings(max_examples=200, deadline=None)
@given(change_of_basis())
def test_classify_is_invariant_under_change_of_basis(case):
    f, p, s = case
    assert _verdicts(classify(_conjugate(f, p), _image(p, s))) == _verdicts(classify(f, s))


@st.composite
def conjugation(draw):
    """A partition with n <= 8 and an invertible P."""
    sizes = draw(st.sampled_from(SHAPES_UP_TO_8))
    return jordan_operator(sizes), _invertible(draw, sum(sizes))


@settings(max_examples=100, deadline=None)
@given(conjugation())
def test_counterexample_follows_the_change_of_basis(case):
    # the span is the span of one height profile, so it does not depend on the basis
    f, p = case
    found, moved = counterexample(f), counterexample(_conjugate(f, p))
    assert (found is None) == (moved is None)
    if found is not None:
        assert moved[0] == _image(p, found[0])
        assert (moved[1].a_rho, moved[1].a_tau) == (found[1].a_rho, found[1].a_tau)
