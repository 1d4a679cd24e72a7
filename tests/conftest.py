import pytest

from gf2hyper import AdmissibleTuple, Gf2Matrix, Gf2Vector, Subspace, validate_nilpotent
from gf2hyper.nilpotent import jordan_matrix


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
    return tuple(Gf2Vector.unit(i, 4) for i in range(4))


@pytest.fixture
def conjugate():
    """P J P^-1 for the Jordan matrix J of the block sizes and a random invertible P."""

    def build(sizes, rng):
        n = sum(sizes)
        while True:
            p = Gf2Matrix(tuple(rng.getrandbits(n) for _ in range(n)), n)
            if p.is_invertible():
                return validate_nilpotent(p @ jordan_matrix(sizes) @ p.inverse())

    return build
