"""Exact GF(2) analysis of nilpotent operators.

Bit-packed linear algebra, nilpotent structure theory, the commutant and
its unit group, the invariant/marked/characteristic/hyperinvariant
classification, and a constructive test for characteristic subspaces
that are not hyperinvariant (Shoda's criterion).
"""

from .errors import (
    CapExceeded,
    DimensionMismatch,
    Gf2HyperError,
    NotAGeneratorTuple,
    NotNilpotent,
    NotSquare,
    ParseError,
    ShodaConditionFails,
    SingularMatrix,
)
from .gf2 import (
    Gf2Matrix,
    Gf2Vector,
    Subspace,
    format_matrix,
    format_subspace,
    gaussian_binomial,
    parse_matrix,
    parse_subspace,
    subspace_count,
)
from .nilpotent import (
    INFINITY,
    GeneratorTuple,
    NilpotentOperator,
    UlmSequence,
    elementary_divisors,
    exponent,
    generator_tuple,
    height,
    jordan_matrix,
    ulm_sequence,
    validate_nilpotent,
)
from .commutant import (
    CommutantBasis,
    automorphism_generators,
    automorphism_group_order,
    commutant_basis,
    commutant_dimension,
    enumerate_automorphisms,
)
from .classify import (
    ClassificationReport,
    Witness,
    classify,
    hyperinvariant_lattice,
    invariant_subspaces,
    is_characteristic,
    is_hyperinvariant,
    is_invariant,
    is_marked,
    largest_hyperinvariant_inside,
)
from .shoda import (
    ShodaWitness,
    counterexample,
    exceptional_subspace,
    exceptional_subspace_scan,
    linking_vector,
    shoda_block_sizes,
    shoda_condition,
    ulm_form_condition,
)

__version__ = "0.1.0"
