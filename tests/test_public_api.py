"""Every name the package exports resolves on it, and to its definition."""

import sys

import pytest

import triadica


@pytest.mark.parametrize("name", triadica.__all__)
def test_exported_name_resolves(name):
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
