"""Continuous maps between finite spaces (see `finspace`)."""

from __future__ import annotations

from itertools import product

from .report import DimensionMismatchError
from .finspace import FiniteSpace
from .record import record


def _preimage_indices(values, domain: FiniteSpace, codomain: FiniteSpace) -> tuple:
    """Per codomain open, the domain index of its preimage, or None if not open."""
    return tuple(domain.index.get(frozenset(x for x in domain.points if values[x] in v))
                 for v in codomain.opens)


def continuity_witness(values, domain: FiniteSpace, codomain: FiniteSpace) -> int | None:
    """Index of a codomain open whose preimage is not open, or None."""
    preimages = _preimage_indices(values, domain, codomain)
    return preimages.index(None) if None in preimages else None


@record
class ContinuousMap:
    domain: FiniteSpace
    codomain: FiniteSpace
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain.point_count:
            raise DimensionMismatchError("map must assign a value to every point")
        for x, y in enumerate(self.values):
            if y < 0 or y >= self.codomain.point_count:
                raise DimensionMismatchError(f"f({x}) = {y} is outside the codomain")
        preimages = _preimage_indices(self.values, self.domain, self.codomain)
        if None in preimages:
            witness = preimages.index(None)
            raise ValueError(
                f"not continuous: preimage of open {sorted(self.codomain.opens[witness])} "
                f"(index {witness}) is not open")
        object.__setattr__(self, "preimages", preimages)

    def __call__(self, x: int) -> int:
        return self.values[x]


def compose_maps(g: ContinuousMap, f: ContinuousMap) -> ContinuousMap:
    """g after f."""
    if f.codomain is not g.domain and f.codomain != g.domain:
        raise DimensionMismatchError("maps are not composable")
    return ContinuousMap(f.domain, g.codomain, tuple(g.values[y] for y in f.values))


def constant_map(domain: FiniteSpace, codomain: FiniteSpace, c: int) -> ContinuousMap:
    return ContinuousMap(domain, codomain, (c,) * domain.point_count)


def all_maps(domain: FiniteSpace, codomain: FiniteSpace):
    """All set maps domain -> codomain, in lexicographic order of value tuples."""
    return product(range(codomain.point_count), repeat=domain.point_count)
