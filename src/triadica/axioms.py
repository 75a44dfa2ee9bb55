"""The presheaf axioms and the stalk-family layouts (`Presheaf.layouts`),
which a command that only reads or maps triads never compiles."""

from __future__ import annotations

from . import triad_axioms
from .algebra import generators_first, validate_algebra
from .errors import InvariantError
from .exactla import ONE, ZERO, Matrix, Subspace, Vector, full_space, kernel
from .finspace import minimal_open
from .record import Interner, record
from .report import Finding, Report, relocated
from .sheaf import (Presheaf, algebra_map_errors, semilinearity_defects,
                    sheaf_status, validate_algebra_presheaf)


def _functoriality_findings(p: Presheaf, tops, interner: Interner) -> list[Finding]:
    """One finding per chain u -> v -> w, (u, v) among `tops`, whose
    composite is not the direct restriction; each distinct (r_uw, r_vw,
    r_uv) is multiplied out once per `interner`."""
    findings = []
    opens = p.space.opens
    for u, v in tops:
        uv = p.restriction(u, v)
        for w, smaller in enumerate(opens):
            if smaller <= opens[v]:
                uw, vw = p.restriction(u, w), p.restriction(v, w)
                if not interner.once("compose", (uw, vw, uv), lambda: vw @ uv == uw):
                    findings.append(Finding("error", f"chain {u}->{v}->{w}",
                                            "restriction maps do not compose functorially",
                                            [u, v, w]))
    return findings


def _pair_findings(p: Presheaf, pairs, interner: Interner) -> list[Finding]:
    """Per inclusion pair among `pairs`, the identity on the diagonal and a
    map of p's layer."""
    noun = "restriction" if p.base is None else "module restriction"
    findings = []
    for u, v in pairs:
        if u == v and p.restriction(u, v) != Matrix.identity(p.section_dim(u)):
            findings.append(Finding("error", f"{noun} {u}->{u}",
                                    "identity inclusion must restrict by the identity", None))
        findings += relocated(f"{noun} {u}->{v}", _restriction_errors(p, u, v, interner))
    return findings


def _restriction_errors(p: Presheaf, u: int, v: int, interner: Interner) -> list[Finding]:
    """Where restriction u->v fails to be a map of p's layer: an algebra
    map, or a module map over the base's restriction, each distinct check
    once per `interner`.  Locations are relative to the pair."""
    r, source, target = p.restriction(u, v), p.sections[u], p.sections[v]
    if p.base is None:
        return relocated(": ", algebra_map_errors(source, target, r, interner))
    base_r = p.base.restriction(u, v)
    return interner.once("module map", (source, target, r, base_r), lambda: [
        Finding("error", "", "restriction does not respect the action", [i, j])
        for i, j, _, _ in semilinearity_defects(r, base_r, source, target)])


def presheaf_findings(p: Presheaf, interner: Interner) -> tuple[Finding, ...]:
    """The presheaf axioms, shared by both layers: per open valid sections
    and zero over the empty open; per inclusion pair the identity on the
    diagonal and a map of the layer (an algebra map, or a module map over
    the base's restriction); and functoriality.

    Every check is a function of the sections and matrices it reads, so
    it runs once per distinct input, keyed in `interner` by those values,
    and its findings are relocated to each open, pair or chain it stands
    for.

    Once the sections pass (and a module layer's base composes on them),
    the cover pairs and the chains u -> v -> w from one come first: by
    induction on chain length they give every chain, and each restriction
    is a composite of checked maps.  Any finding reruns every pair."""
    base, space = p.base, p.space
    findings: list[Finding] = []
    for u, s in enumerate(p.sections):
        if base is None:
            reads, check = (s,), lambda: validate_algebra(s).errors()
        else:
            a = base.sections[u]
            reads = (a, s)
            if interner.passed("sections", (a,)):
                check = lambda: generators_first(
                    a, lambda firsts: triad_axioms.action_findings(a, s, firsts))
            else:
                check = lambda: triad_axioms.validate_module_sections(a, s).errors()
        findings += relocated(f"open {u}: ", interner.once("sections", reads, check))
        if not space.opens[u] and s.dim != 0:
            findings.append(Finding(
                "error", f"open {u}",
                "sections over the empty set must be the zero algebra" if base is None
                else "module sections over the empty set must vanish", s.dim))
    pairs, covers = space.inclusion_pairs, space.cover_pairs
    if not findings and (base is None or not _functoriality_findings(base, covers, interner)):
        diagonal = [(u, u) for u in range(len(space.opens))]
        if not (_pair_findings(p, diagonal + list(covers), interner)
                or _functoriality_findings(p, covers, interner)):
            return ()
    proper = [(u, v) for u, v in pairs if u != v]
    return tuple(findings + _pair_findings(p, pairs, interner)
                 + _functoriality_findings(p, proper, interner))


def validate_presheaf_command(args, p):
    rep = validate_algebra_presheaf(p)
    return Report(rep.operation, rep.findings + tuple(sheaf_status([("sections", p)]))), {}


@record
class FamilyLayout:
    """Coordinates of the compatible-stalk-family space over one open, and
    in them `families`, the stalk family of each basis section over it."""

    points: tuple[int, ...]
    stalk_opens: tuple[int, ...]
    offsets: tuple[int, ...]
    dims: tuple[int, ...]
    total: int
    compatible: Subspace
    families: tuple[Vector, ...]

    @property
    def basis(self) -> tuple[Vector, ...]:
        """Echelon basis of the compatible-family space."""
        return self.compatible.basis

    def chunks(self, vector):
        return [tuple(vector[o:o + d]) for o, d in zip(self.offsets, self.dims)]

    def coordinates(self, vector) -> Vector:
        coords = self.compatible.coordinates(vector)
        if coords is None:
            raise InvariantError("family is not compatible; sheafification is broken")
        return coords


def family_layout(p: Presheaf, u: int) -> FamilyLayout:
    space = p.space
    pts = tuple(sorted(space.opens[u]))
    stalk_opens = tuple(minimal_open(space, x) for x in pts)
    dims = tuple(p.section_dim(s) for s in stalk_opens)
    offsets = []
    total = 0
    for d in dims:
        offsets.append(total)
        total += d
    rows = []
    for a_pos, x in enumerate(pts):
        for b_pos, y in enumerate(pts):
            if x == y:
                continue
            # y in U_x exactly when U_y is inside U_x
            if not space.opens[stalk_opens[b_pos]] <= space.opens[stalk_opens[a_pos]]:
                continue
            if space.opens[stalk_opens[b_pos]] == space.opens[stalk_opens[a_pos]]:
                # identical minimal opens at distinct points: both directions
                # would give the same constraint twice; keep one orientation
                if b_pos < a_pos:
                    continue
            r = p.restriction(stalk_opens[a_pos], stalk_opens[b_pos])
            for row_idx in range(r.rows):
                row = [ZERO] * total
                for c in range(r.cols):
                    row[offsets[a_pos] + c] += r.entries[row_idx][c]
                row[offsets[b_pos] + row_idx] -= ONE
                rows.append(row)
    compatible = kernel(Matrix.from_rows(rows, cols=total)) if rows else full_space(total)
    families = tuple(tuple(x for s in stalk_opens for x in p.restriction(u, s).col(i))
                     for i in range(p.section_dim(u)))
    return FamilyLayout(pts, stalk_opens, tuple(offsets), dims, total, compatible, families)
