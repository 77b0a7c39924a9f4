"""Exact computational algebra over finite fields.

Constructions of matrix pairs with prescribed commutators, canonical-form
machinery (invariant factors, rational and Jordan forms), conjugacy-class
censuses with exact centralizer orders, and dimension estimation from
point-count growth.
"""

from .census import (
    CensusLimits,
    ClassRep,
    CountReport,
    centralizer_group_order,
    count_commuting_pairs,
    count_group_pairs,
    count_lie_pairs,
    count_w,
    enumerate_classes,
    estimate_dimension,
    gl_order,
)
from .errors import LimitExceeded, MathCheckFailed
from .gf import Fe, FieldSpec, embed, field, frobenius, root_of_unity
from .matgf import (
    InvariantFactors,
    JordanType,
    Mat,
    commutator_solutions,
    group_commutator,
    invariant_factors,
    is_regular,
    jordan_type,
    lie_commutator,
    min_poly,
    regular_commuting,
    rref,
    solve_affine,
)
from .polyring import Poly, factor, gcd, irreducibles_of_degree, is_irreducible
from .typea_group import (
    ZetaInstance,
    build_d_matrix,
    build_rho,
    group_dims,
    is_conjugate_to_zeta_x,
    solution_set_for_x,
    verify_central_commutator,
    zeta_instance,
)
from .weyl import (
    BlockPair,
    SolutionFamily,
    WeylPair,
    build_block_pair,
    component_dimensions,
    generic_split_pair,
    kernel_action_check,
    solution_family,
    weyl_pair,
)

__version__ = "0.1.0"
