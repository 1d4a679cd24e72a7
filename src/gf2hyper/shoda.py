"""Shoda's criterion and the explicit characteristic non-hyperinvariant span.

Over GF(2) a nilpotent operator admits a characteristic subspace that is
not hyperinvariant exactly when two block sizes r < s occur with
multiplicity one each and s > r + 1.  When they do, the span of all
vectors of exponent 2 whose height jumps from r - 1 to s - 1 under f is
such a subspace, and it has a closed chain formula that the scan oracle
cross-checks.  Its certificate is read in the Jordan basis of the
generator tuple, where the projection of the linking vector onto the
short chain is one stored chain entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ShodaConditionFails
from .classify import MOVED_BY_PROJECTION, STABLE, _first_exit, _in_chains
from .gf2 import Gf2Vector, Subspace
from .nilpotent import (
    GeneratorTuple,
    NilpotentOperator,
    UlmSequence,
    exponent,
    generator_tuple,
    height,
    ulm_sequence,
)


@dataclass(frozen=True)
class ShodaWitness:
    """The data certifying a characteristic non-hyperinvariant subspace."""

    rho_index: int
    tau_index: int
    a_rho: int
    a_tau: int
    z: Gf2Vector
    y_span: Subspace


def _single_block_sizes(u: UlmSequence) -> list[int]:
    """The block sizes of multiplicity one, ascending."""
    return [r for r in range(1, len(u.d) + 1) if u.count(r) == 1]


def shoda_condition(u: UlmSequence) -> bool:
    """True iff two multiplicity-one block sizes r < s exist with s > r + 1."""
    return shoda_block_sizes(u) is not None


def ulm_form_condition(u: UlmSequence) -> bool:
    """At most one multiplicity-one size, or exactly two at successive sizes."""
    ones = _single_block_sizes(u)
    return len(ones) <= 1 or (len(ones) == 2 and ones[1] == ones[0] + 1)


def _shoda_pairs(u: UlmSequence) -> Iterator[tuple[int, int]]:
    """Each pair r < s of multiplicity-one block sizes with s > r + 1, ascending."""
    ones = _single_block_sizes(u)
    return ((r, s) for i, r in enumerate(ones) for s in ones[i + 1 :] if s > r + 1)


def shoda_block_sizes(u: UlmSequence) -> tuple[int, int] | None:
    """The lexicographically smallest qualifying pair (r, s), if any."""
    return next(_shoda_pairs(u), None)


def _check_witness_classes(u: GeneratorTuple, rho: int, tau: int) -> tuple[int, int]:
    if not 0 <= rho < tau < u.class_count:
        raise ShodaConditionFails("class indices must satisfy rho < tau")
    a_rho = u.class_exponent(rho)
    a_tau = u.class_exponent(tau)
    if len(u.class_indices(rho)) != 1 or len(u.class_indices(tau)) != 1:
        raise ShodaConditionFails("both classes must hold exactly one block")
    if a_rho + 1 >= a_tau:
        raise ShodaConditionFails("block sizes must differ by more than one")
    return a_rho, a_tau


def linking_vector(
    f: NilpotentOperator, u: GeneratorTuple, rho: int, tau: int
) -> Gf2Vector:
    """The exponent-2 vector tying the two multiplicity-one chains.

    Sum of the next-to-last chain entries: f^(a_rho - 1) of the short
    generator plus f^(a_tau - 2) of the long one.
    """
    a_rho, a_tau = _check_witness_classes(u, rho, tau)
    c_rho = u.chains[u.class_indices(rho)[0]]
    c_tau = u.chains[u.class_indices(tau)[0]]
    z = Gf2Vector(c_rho[a_rho - 1] ^ c_tau[a_tau - 2], f.dim)
    if exponent(f, z) != 2:
        raise AssertionError("linking vector does not have exponent 2")
    if height(f, z) != a_rho - 1:
        raise AssertionError("linking vector height differs from a_rho - 1")
    if height(f, f.mat.apply(z)) != a_tau - 1:
        raise AssertionError("height of f(z) differs from a_tau - 1")
    return z


def exceptional_subspace(
    f: NilpotentOperator, u: GeneratorTuple, rho: int, tau: int
) -> Subspace:
    """Chain formula for the span of the linking height profile.

    The span of the linking vector, plus the socle of every class
    strictly between the two marked ones, plus the two top chain levels
    of every class above; empty ranges contribute nothing.
    """
    return _exceptional_span(f, u, rho, tau, linking_vector(f, u, rho, tau))


def _exceptional_span(
    f: NilpotentOperator, u: GeneratorTuple, rho: int, tau: int, z: Gf2Vector
) -> Subspace:
    """`exceptional_subspace` for the linking vector z of the classes rho < tau."""
    bits = [z.bits, f.mat.apply_bits(z.bits)]
    for mu in range(rho + 1, tau):
        bits += [u.chains[i][-1] for i in u.class_indices(mu)]
    for mu in range(tau + 1, u.class_count):
        for i in u.class_indices(mu):
            bits += u.chains[i][-2:]
    return Subspace.span_bits(bits, f.dim)


def exceptional_subspace_scan(f: NilpotentOperator, a_rho: int, a_tau: int) -> Subspace:
    """Brute-force oracle: span every vector with the linking height profile.

    Scans Im f^(a_rho - 1) only, since the height constraint already
    forces membership there, and refuses above 2**VECTOR_ENUM_CAP vectors
    (`Subspace.enumerate_vectors`).  Returns the zero subspace when no
    vector matches.
    """
    base = f.image_chain[a_rho - 1]
    members = []
    for v in base.enumerate_vectors():
        if v.is_zero() or exponent(f, v) != 2:
            continue
        if height(f, v) != a_rho - 1:
            continue
        if height(f, f.mat.apply(v)) != a_tau - 1:
            continue
        members.append(v)
    return Subspace.span(members, f.dim)


def counterexample(
    f: NilpotentOperator,
) -> tuple[Subspace, ShodaWitness] | None:
    """A verified characteristic non-hyperinvariant subspace, if one exists.

    Returns None when the block-size condition fails.  The returned span
    is re-checked by one stability scan (characteristic, not
    hyperinvariant), and the projection onto the short chain must move
    the linking vector outside: that projection is the chain entry
    f^(a_rho - 1) u_rho, read off the generator tuple.
    """
    ulm = ulm_sequence(f)
    pair = shoda_block_sizes(ulm)
    if pair is None:
        return None
    a_rho, a_tau = pair
    u = generator_tuple(f)
    rho = u.class_of_exponent(a_rho)
    tau = u.class_of_exponent(a_tau)
    z = linking_vector(f, u, rho, tau)
    y_span = _exceptional_span(f, u, rho, tau, z)
    kind = _first_exit(f, y_span, _in_chains(f, y_span))[0]
    if kind < MOVED_BY_PROJECTION:
        raise AssertionError("constructed span failed the characteristic check")
    if kind == STABLE:
        raise AssertionError("constructed span is unexpectedly hyperinvariant")
    # P_r z, the projection onto the short chain r: z is f^(a_rho - 1) u_r plus a
    # vector of the long chain, so P_r z is that entry of chain r
    if y_span.contains_bits(u.chains[u.class_indices(rho)[0]][a_rho - 1]):
        raise AssertionError("projection witness failed")
    witness = ShodaWitness(rho, tau, a_rho, a_tau, z, y_span)
    return y_span, witness
