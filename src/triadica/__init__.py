"""Exact computational kernel for differential triads over finite spaces.

The layers, bottom up: exactla (rational linear algebra), finspace (finite
topologies and continuous maps), algebra (finite-dimensional commutative
algebras and their characters), sheaf (presheaves, sheafification, direct
images), triad (differential triads and the Leibniz validator), kaehler
(universal differential modules), dtcat (triad morphisms, composition,
uniqueness, fullness), workspace + cli (declarative documents and the
command surface).
"""

from .exactla import Matrix, Subspace, kernel, rat, span, vec
from .finspace import (ContinuousMap, FiniteSpace, check_topology,
                       discrete_space, indiscrete_space, sierpinski_space,
                       space_from_opens)
from .algebra import (Algebra, Character, InvalidAlgebraError, NotSplitError,
                      algebra_from_struct, characters, function_algebra,
                      poly_quotient_algebra, tensor_product,
                      truncated_poly_algebra, validate_algebra)
from .sheaf import (InvalidPresheafError, ModuleSections, Presheaf,
                    PresheafMorphism, check_sheaf_condition, constant_presheaf,
                    function_presheaf, make_presheaf, pushforward, sheafify,
                    stalk, validate_algebra_presheaf)
from .triad import (DifferentialTriad, NotFunctional, check_leibniz,
                    constant_triad, constants_only_kernel, function_triad,
                    pushforward_triad, validate_triad)
from .kaehler import (KaehlerModule, factor_derivation, kaehler_module,
                      kaehler_presheaf)
from .dtcat import (BoundExceeded, TriadMorphism, algebra_component_uniqueness,
                    check_morphism, compose, constant_morphism,
                    differential_agreement_on_image, fullness_check,
                    identity_morphism, pullback_morphism,
                    verify_pullback_forced)
from .workspace import (ParseError, UnresolvedReference, WorkspaceDocument,
                        load_workspace, parse_workspace)
from .errors import DimensionMismatchError, InvariantError, TriadicaError
from .report import Finding, Report

__version__ = "0.1.0"

__all__ = [
    "Algebra", "BoundExceeded", "Character",
    "ContinuousMap", "DifferentialTriad", "DimensionMismatchError",
    "Finding", "FiniteSpace", "InvalidAlgebraError",
    "InvalidPresheafError", "InvariantError", "KaehlerModule", "Matrix",
    "ModuleSections", "NotFunctional", "NotSplitError",
    "ParseError", "Presheaf", "PresheafMorphism", "Report", "Subspace", "TriadMorphism",
    "TriadicaError", "UnresolvedReference", "WorkspaceDocument",
    "algebra_component_uniqueness", "algebra_from_struct",
    "characters", "check_leibniz", "check_morphism", "check_sheaf_condition",
    "check_topology", "compose", "constant_morphism", "constant_presheaf",
    "constant_triad", "constants_only_kernel",
    "differential_agreement_on_image", "discrete_space", "factor_derivation",
    "fullness_check", "function_algebra", "function_presheaf",
    "function_triad", "identity_morphism", "indiscrete_space",
    "kaehler_module", "kaehler_presheaf", "kernel", "load_workspace",
    "make_presheaf", "parse_workspace", "poly_quotient_algebra",
    "pullback_morphism", "pushforward", "pushforward_triad", "rat",
    "sheafify", "sierpinski_space", "space_from_opens", "span", "stalk",
    "tensor_product", "truncated_poly_algebra", "validate_algebra",
    "validate_algebra_presheaf", "validate_triad", "vec",
    "verify_pullback_forced",
]
