"""Class-2 computations with Demushkin groups under a prime-to-p action.

The package works in the window F/F^3 of the q-central series of a free
pro-p group: exact collection arithmetic, the cup form and Bockstein vector
of a one-relator presentation, involutions with their H^1 matrices and H^2
scalars, coinvariants, and certified equivariant free quotients with a
prescribed signature.
"""

from demuskin.class2_words import (
    ClassTwoElement,
    ClassTwoEndo,
    ClassTwoStack,
    GeneratorSet,
    KillQuotient,
    central_sqrt,
    commutator,
    compose,
    demushkin_generators,
    format_word,
    invert_auto,
    parse_word,
    quotient_kill,
)
from demuskin.demushkin_core import (
    CharacterData,
    CohomologyData,
    CoinvariantMachine,
    DemushkinPresentation,
    InvolutionAction,
    NotAnInvolutionError,
    RelatorNotPreservedError,
    bockstein_kernel,
    clean_frame,
    coinvariants,
    delta_map,
    gamma_line,
    invariants,
    lift_involution,
    standard_involution,
    standard_relator,
    symmetrize_basis,
    symmetrized_change,
)
from demuskin.quotient_builder import (
    FreeQuotientCertificate,
    IsotropicSubmodule,
    Signature,
    build_V,
    free_quotient,
    signature_of,
    uniqueness_check,
    validate_V,
)
from demuskin.zq_linalg import (
    BilinearForm,
    IsotropicOracle,
    Modulus,
    OracleGuardError,
    Submodule,
    eigen_split,
    inv_mod,
    is_totally_isotropic,
    isotropic_oracle,
    kernel,
    orthogonal_complement,
)

__version__ = "0.1.0"
