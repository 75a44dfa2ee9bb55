"""Exact computational kernel for differential triads over finite spaces.

The layers, bottom up: exactla (rational linear algebra), finspace (finite
topologies and continuous maps), algebra (finite-dimensional commutative
algebras and their characters), sheaf (presheaves, sheafification, direct
images), triad (differential triads and the Leibniz validator), kaehler
(universal differential modules), dtcat (triad morphisms, composition,
uniqueness, fullness), workspace + cli (declarative documents and the
command surface).

Each layer loads on first use.  Importing the package registers every
layer in `sys.modules` and binds it here as an attribute, but runs none of
them (`importlib.util.LazyLoader`); the first attribute read on a layer
runs it.  The names in `__all__` resolve through the module `__getattr__`
(PEP 562), which reads them off their home layer.  So a command compiles
only the layers it runs, and an import error inside a layer shows where
that layer is first used, not at `import triadica`.  `cli` is left out:
`python -m triadica.cli` must find it unimported.
"""

import importlib.util
import sys

# each layer and the names the package exports from it
_EXPORTS = {
    "errors": ("DimensionMismatchError", "InvariantError", "TriadicaError"),
    "record": (),
    "report": ("Finding", "Report"),
    "exactla": ("Matrix", "Subspace", "kernel", "rat", "span", "vec"),
    "finspace": ("ContinuousMap", "FiniteSpace", "check_topology",
                 "discrete_space", "indiscrete_space", "sierpinski_space",
                 "space_from_opens"),
    "algebra": ("Algebra", "Character", "InvalidAlgebraError",
                "NotSplitError", "algebra_from_struct", "characters",
                "function_algebra", "poly_quotient_algebra", "tensor_product",
                "truncated_poly_algebra", "validate_algebra"),
    "sheaf": ("InvalidPresheafError", "ModuleSections", "Presheaf",
              "PresheafMorphism", "check_sheaf_condition", "constant_presheaf",
              "function_presheaf", "make_presheaf", "pushforward", "sheafify",
              "stalk", "validate_algebra_presheaf"),
    "triad": ("DifferentialTriad", "NotFunctional", "check_leibniz",
              "constant_triad", "constants_only_kernel", "function_triad",
              "pushforward_triad", "validate_triad"),
    "kaehler": ("KaehlerModule", "factor_derivation", "kaehler_module",
                "kaehler_presheaf"),
    "dtcat": ("BoundExceeded", "TriadMorphism", "algebra_component_uniqueness",
              "check_morphism", "compose", "constant_morphism",
              "differential_agreement_on_image", "fullness_check",
              "identity_morphism", "pullback_morphism",
              "verify_pullback_forced"),
    "workspace": ("ParseError", "UnresolvedReference", "WorkspaceDocument",
                  "load_workspace", "parse_workspace"),
}

# exported name -> its home layer
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def _register(layer: str):
    """The layer's module, in `sys.modules` but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _EXPORTS:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
