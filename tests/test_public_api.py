"""Every name the package exports resolves on it, and to its definition;
the constructors that only the tests use resolve in `builders`, not on it."""

import sys

import pytest

import builders
import triadica

# the names that left `triadica.__all__` for the tests' `builders` module:
# each still resolves, there and no longer on the package
MOVED = ("algebra_from_struct", "constant_presheaf", "constant_triad",
         "discrete_space", "function_triad", "identity_morphism",
         "indiscrete_space", "poly_quotient_algebra", "pullback_morphism",
         "sierpinski_space", "space_from_opens", "stalk")


@pytest.mark.parametrize("name", [*triadica.__all__, *MOVED])
def test_exported_name_resolves(name):
    if name in MOVED:
        assert name not in triadica.__all__
        assert not hasattr(triadica, name)
        assert callable(getattr(builders, name))
    else:
        assert hasattr(triadica, name)


def test_exported_names_are_unique():
    assert len(set(triadica.__all__)) == len(triadica.__all__)


def test_star_import_binds_each_name_to_its_definition():
    namespace = {}
    exec("from triadica import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(triadica.__all__)
    for name in triadica.__all__:
        # resolved by the package's module __getattr__, not bound on it
        assert name not in vars(triadica)
        obj = namespace[name]
        assert obj.__name__ == name
        assert obj.__module__.startswith("triadica.")
        assert vars(sys.modules[obj.__module__])[name] is obj
