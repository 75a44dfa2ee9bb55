"""Finite topological spaces with explicitly listed open sets.

Points are 0..point_count-1.  The open sets are stored as an explicit tuple
of frozensets, each with a stable index that the rest of the package uses to
key section data.  On a finite space every point has a smallest open
neighbourhood, which is what replaces germ limits downstream.

A space maps each open to its first index (`index`) and lists its inclusion
pairs (`inclusion_pairs`) and the cover pairs among them (`cover_pairs`, the
edges of the Hasse diagram), and a continuous map (`maps`) keeps the domain
index of each codomain open's preimage (`preimages`), as its continuity
check finds them.  All are built once, at construction, and are not fields:
equality, hashing and repr read only the fields.
"""

from __future__ import annotations

from . import maps
from .record import record
from .report import DimensionMismatchError, Finding, Report, ValidationError


class InvalidTopologyError(ValidationError):
    """The listed opens do not form a topology."""

    prefix = "not a topology"


@record
class FiniteSpace:
    point_count: int
    opens: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.point_count < 0:
            raise DimensionMismatchError("negative point count")
        for u in self.opens:
            if any(x < 0 or x >= self.point_count for x in u):
                raise DimensionMismatchError(f"open {sorted(u)} mentions a point outside the space")
        index = {}
        for i, u in enumerate(self.opens):
            index.setdefault(u, i)
        object.__setattr__(self, "index", index)
        # opens[v] inside opens[u]; a cover pair has no open strictly between
        opens = self.opens
        pairs = tuple((u, v) for u, big in enumerate(opens)
                      for v, small in enumerate(opens) if small <= big)
        object.__setattr__(self, "inclusion_pairs", pairs)
        object.__setattr__(self, "cover_pairs", tuple(
            (u, v) for u, v in pairs if u != v and not any(
                opens[v] < w < opens[u] for w in opens)))

    @property
    def points(self) -> range:
        return range(self.point_count)

    @property
    def full_set(self) -> frozenset[int]:
        return frozenset(self.points)

    def open_index(self, subset) -> int:
        target = frozenset(subset)
        i = self.index.get(target)
        if i is None:
            raise KeyError(f"{sorted(target)} is not an open of this space")
        return i

    def is_open(self, subset) -> bool:
        return frozenset(subset) in self.index

    @property
    def is_discrete(self) -> bool:
        """Every point is open."""
        return all(self.is_open({p}) for p in self.points)


def check_topology(space: FiniteSpace) -> Report:
    """Report-valued check that the listed opens form a topology."""
    findings: list[Finding] = []
    seen = {}
    for i, u in enumerate(space.opens):
        if u in seen:
            findings.append(Finding("error", f"opens[{i}]",
                                    "duplicate open set", sorted(u)))
        seen.setdefault(u, i)
    present = set(space.opens)
    if frozenset() not in present:
        findings.append(Finding("error", "opens", "empty set missing", []))
    if space.full_set not in present:
        findings.append(Finding("error", "opens", "full point set missing",
                                sorted(space.full_set)))
    for i, u in enumerate(space.opens):
        for j, v in enumerate(space.opens):
            if j < i:
                continue
            union = u | v
            if union not in present:
                findings.append(Finding("error", f"opens[{i}]|opens[{j}]",
                                        "union of opens is not open", sorted(union)))
            meet = u & v
            if meet not in present:
                findings.append(Finding("error", f"opens[{i}]&opens[{j}]",
                                        "intersection of opens is not open", sorted(meet)))
    return Report("check_topology", tuple(findings))


def require_topology(space: FiniteSpace) -> None:
    """Raise InvalidTopologyError carrying the first check_topology error."""
    InvalidTopologyError.require(check_topology(space))


def minimal_open(space: FiniteSpace, x: int) -> int:
    """Index of the smallest open containing the point x."""
    return minimal_open_superset(space, {x})


def minimal_open_superset(space: FiniteSpace, subset) -> int:
    """Index of the smallest open containing every point of `subset`.

    Exists for every subset of a finite space: intersect all opens that
    contain it (the full set always does).
    """
    target = frozenset(subset)
    acc = space.full_set
    for u in space.opens:
        if target <= u:
            acc &= u
    return space.open_index(acc)


def is_continuous(values, domain: FiniteSpace, codomain: FiniteSpace) -> bool:
    return maps.continuity_witness(values, domain, codomain) is None
