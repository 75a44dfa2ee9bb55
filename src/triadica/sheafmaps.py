"""Maps of presheaves and direct images; their entry points are in `sheaf`."""

from __future__ import annotations

from . import maps, sheaf
from .exactla import Matrix
from .record import Interner, record
from .report import DimensionMismatchError, Finding, Report, relocated
from .sheaf import Presheaf


@record
class PresheafMorphism:
    """Componentwise linear map between presheaves over the same space."""

    source: Presheaf
    target: Presheaf
    components: tuple[Matrix, ...]

    def __post_init__(self):
        space = self.source.space
        if len(self.components) != len(space.opens):
            raise DimensionMismatchError("one component per open required")
        for u, c in enumerate(self.components):
            if c.cols != self.source.section_dim(u) or c.rows != self.target.section_dim(u):
                raise DimensionMismatchError(f"component over open {u} has shape "
                                             f"{c.rows}x{c.cols}")


def validate_presheaf_morphism(h: PresheafMorphism,
                               interner: Interner | None = None) -> Report:
    """Restriction squares; between algebra layers also unit and product
    preservation per open, each distinct check once per `interner`."""
    interner = interner or Interner()
    findings = [Finding("error", f"square {u}->{v}",
                        "component does not commute with restriction", [u, v])
                for u, v in sheaf.restriction_square_failures(
                    h.components, h.source, h.target, h.source.space.inclusion_pairs,
                    interner)]
    if h.source.base is None and h.target.base is None:
        for u, c in enumerate(h.components):
            findings += relocated(f"open {u}: ", sheaf.algebra_map_errors(
                h.source.sections[u], h.target.sections[u], c, interner))
    return Report("validate_presheaf_morphism", tuple(findings))


def direct_image(f: maps.ContinuousMap, p: Presheaf, base_image: Presheaf | None) -> Presheaf:
    """Sections and restrictions of p read at the preimages of f's opens."""
    if p.space != f.domain:
        raise DimensionMismatchError("presheaf does not live on the map's domain")
    pre = f.preimages
    table = {(u, v): p.restriction(pre[u], pre[v])
             for u, v in f.codomain.inclusion_pairs}
    return Presheaf(f.codomain, tuple(p.sections[w] for w in pre), table, base_image)
