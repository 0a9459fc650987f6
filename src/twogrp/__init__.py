"""twogrp: exact finite group cohomology, skeletal 2-groups, and the
simplicial correspondence between their Duskin nerves and homotopy-fiber
models."""

from .coeff import AbelianGroup
from .cochain import (
    Cochain,
    are_cohomologous,
    coboundary,
    cocycle_solve,
    cohomology,
    cohomology_classes_mod_aut,
    is_cocycle,
    pull_back_along_automorphism,
)
from .correspondence import (
    TheoremReport,
    canonical_iso,
    duskin_nerve,
    pullback_model,
    verify_theorem,
)
from .errors import TwogrpError
from .group import (
    FiniteGroup,
    cyclic,
    dihedral,
    group_automorphisms,
    group_construct,
    symmetric,
)
from .simplicial import (
    Horn,
    SimplicialMap,
    TruncatedSSet,
    cocycle_as_map,
    decalage_map,
    fiber_product,
    fillers,
    gamma_a2,
    is_kan,
    nerve_bg,
    validate_simplicial,
    w_b2a,
    wbar_b2a,
)
from .twogroup import (
    TwoGroupSkeleton,
    check_pentagon,
    check_triangle,
    check_zigzag,
    duality_data,
    monoidal_functor_check,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Cochain",
    "FiniteGroup",
    "Horn",
    "SimplicialMap",
    "TheoremReport",
    "TruncatedSSet",
    "TwoGroupSkeleton",
    "TwogrpError",
    "are_cohomologous",
    "canonical_iso",
    "check_pentagon",
    "check_triangle",
    "check_zigzag",
    "coboundary",
    "cyclic",
    "dihedral",
    "cocycle_as_map",
    "cocycle_solve",
    "cohomology",
    "cohomology_classes_mod_aut",
    "decalage_map",
    "duality_data",
    "duskin_nerve",
    "fiber_product",
    "fillers",
    "gamma_a2",
    "group_automorphisms",
    "group_construct",
    "is_cocycle",
    "is_kan",
    "monoidal_functor_check",
    "nerve_bg",
    "pull_back_along_automorphism",
    "pullback_model",
    "symmetric",
    "validate_simplicial",
    "verify_theorem",
    "w_b2a",
    "wbar_b2a",
]
