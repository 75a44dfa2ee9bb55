"""Exact computational kernel for differential triads over finite spaces.

The layers, bottom up: record (frozen value classes), report (the
exception hierarchy, findings and reports), exactla (rational linear
algebra), finspace (finite topologies), maps (continuous maps), algebra
(finite-dimensional commutative algebras and the modules over them),
spectrum (their characters, through the rational roots of characteristic
polynomials), sheaf (presheaves and the sheaf condition), sheafmaps (maps
of presheaves, direct images), gluing (sheafification), triad
(differential triads and the Leibniz validator), axioms (presheaf axioms,
stalk families), triad_axioms (module and Leibniz axioms), kaehler
(universal differential modules), dtcat (triad morphisms, composition,
fullness), uniqueness (of a morphism's components), workspace
(declarative documents: spaces, algebras and the fragments of the rest),
compound (their presheaves and triads), compound_maps (their maps and
morphisms), compound_dump (every entry and fragment written back),
synopsis (--help) and cli (the command surface).

Each layer loads on first use.  Importing the package registers every
layer in `sys.modules` and binds it here as an attribute, but runs none of
them (`importlib.util.LazyLoader`); the first attribute read on a layer
runs it.  The names in `__all__` resolve through the module `__getattr__`
(PEP 562), which reads them off their home layer.  So a command compiles
only the layers it runs, and an import error inside a layer shows where
that layer is first used, not at `import triadica`.  `cli` is left out:
`python -m triadica.cli` must find it unimported.  A layer that only some
functions of another layer need, as `kaehler_presheaf` needs `sheaf` and
`triad`, is read off its module where it is called (`from . import
sheaf`), not imported by name at the top, so a command that calls none of
those functions does not run it.

`__all__` holds the data model the reports are built from and the
operations the command line runs, and the test-only functions that the
benchmark's tracer patches by name (`tensor_product`, `factor_derivation`)
while it does.  The constructors that only the tests
call (example spaces, constant presheaves and triads, function triads, the
identity and pullback morphisms, Q[x]/(f)) live with the tests, in
`tests/builders.py`.
"""

import importlib.util
import sys

# each layer and the names the package exports from it
_EXPORTS = {
    "record": (),
    "report": ("DimensionMismatchError", "Finding", "InvariantError", "Report",
               "TriadicaError"),
    "exactla": ("Matrix", "Subspace", "kernel", "rat", "span", "vec"),
    "finspace": ("FiniteSpace", "check_topology"),
    "maps": ("ContinuousMap",),
    "algebra": ("Algebra", "InvalidAlgebraError", "ModuleSections",
                "characters", "function_algebra", "tensor_product",
                "truncated_poly_algebra", "validate_algebra"),
    "spectrum": ("Character", "NotSplitError"),
    "sheaf": ("InvalidPresheafError", "Presheaf", "check_sheaf_condition",
              "function_presheaf", "make_presheaf", "pushforward", "sheafify",
              "validate_algebra_presheaf"),
    "sheafmaps": ("PresheafMorphism",),
    "gluing": (),
    "triad": ("DifferentialTriad", "NotFunctional", "check_leibniz",
              "pushforward_triad", "validate_triad"),
    "axioms": (),
    "triad_axioms": (),
    "kaehler": ("KaehlerModule", "factor_derivation", "kaehler_module",
                "kaehler_presheaf"),
    "dtcat": ("BoundExceeded", "TriadMorphism", "check_morphism", "compose",
              "constant_morphism", "fullness_check", "verify_pullback_forced"),
    "uniqueness": ("algebra_component_uniqueness", "constants_only_kernel",
                   "differential_agreement_on_image"),
    "workspace": ("ParseError", "UnresolvedReference", "WorkspaceDocument",
                  "load_workspace", "parse_workspace"),
    "compound": (),
    "compound_maps": (),
    "compound_dump": (),
    "synopsis": (),
}

# exported name -> its home layer
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def _register(layer: str):
    """The layer's module, in `sys.modules` but not yet run.  Its file is
    named, not searched for on the import path, which would cost more."""
    spec = importlib.util.spec_from_file_location(f"{__name__}.{layer}", f"{__path__[0]}/{layer}.py")
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
