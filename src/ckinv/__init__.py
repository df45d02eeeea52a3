"""Exact K-theoretic invariants of Cuntz-Krieger algebras.

Compute, from an irreducible non-permutation 0-1 matrix A, the K-groups,
weak and strong extension groups and homotopy groups of the automorphism
group of the Cuntz-Krieger algebra O_A; decide isomorphism and stable
isomorphism of two such algebras; verify the connecting five-term exact
sequence; and construct matrices realizing prescribed K-groups.  All
arithmetic is exact integer linear algebra.

Every public operation is a pure function of immutable values; results
carry no shared mutable state, so independent calls may run in parallel.
"""

from .groups import FgAbGroup, TRIVIAL, Z, Z2, canonical_from_cyclic, \
    free_abelian
from .intmat import HermiteDecomposition, SmithDecomposition, \
    cokernel_invariants, hermite_normal_form, kernel_basis, \
    lattice_contains, lattice_solve, smith_diagonal, smith_normal_form
from .presented import GroupElement, GroupHom, PresentedGroup, \
    is_exact_at, quotient_by_elements
from .ck import CKReport, FiveTermSequence, MatrixValidationError, \
    VerificationError, ZeroOneMatrix, ext_strong_presentation, \
    five_term_sequence, gen_amplified, gen_cuntz, gen_random_irreducible, \
    i_minus, invariants, iota_one, is_isomorphic_ck, \
    is_stably_isomorphic_ck, k0_pair, pi_aut, pi_aut_stable, validate
from .realize import RealizationError, RealizationTarget, \
    ext_pair_from_k0_pair, pair_equivalent, range_witness, realize_k0

__version__ = "0.1.0"

__all__ = [
    "FgAbGroup", "TRIVIAL", "Z", "Z2", "canonical_from_cyclic",
    "free_abelian",
    "SmithDecomposition", "HermiteDecomposition", "cokernel_invariants",
    "hermite_normal_form", "kernel_basis",
    "lattice_contains", "lattice_solve", "smith_diagonal",
    "smith_normal_form",
    "PresentedGroup", "GroupElement", "GroupHom", "is_exact_at",
    "quotient_by_elements",
    "CKReport", "FiveTermSequence", "MatrixValidationError",
    "VerificationError", "ZeroOneMatrix", "ext_strong_presentation",
    "five_term_sequence", "gen_amplified", "gen_cuntz",
    "gen_random_irreducible", "i_minus", "invariants", "iota_one",
    "is_isomorphic_ck", "is_stably_isomorphic_ck", "k0_pair", "pi_aut",
    "pi_aut_stable", "validate",
    "RealizationError", "RealizationTarget", "ext_pair_from_k0_pair",
    "pair_equivalent", "range_witness", "realize_k0",
]
