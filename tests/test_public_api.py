"""Every name the package exports resolves on it."""

import pytest

import triadica


@pytest.mark.parametrize("name", triadica.__all__)
def test_exported_name_resolves(name):
    assert hasattr(triadica, name)


def test_exported_names_are_unique():
    assert len(set(triadica.__all__)) == len(triadica.__all__)
