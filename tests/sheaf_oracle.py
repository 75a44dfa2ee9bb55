"""Reference sheaf check by cover enumeration.

For every open U and every irredundant cover of U by proper nonempty opens,
the natural map F(U) -> prod F(V_i) must be injective and its image must be
the families that agree pairwise on the intersections V_i & V_j.  The empty
open has only the empty cover, so F(empty) must vanish.  This runs through
up to 2^(#opens - 2) candidate covers per open; the library's stalk-family
check must give the same verdict.
"""

from triadica.exactla import ZERO, Matrix, full_space, kernel, span
from triadica.sheaf import CoverWitness, SheafCertificate, irredundant_covers


def equalizer_data(p, u: int, cover: tuple[int, ...]):
    """Natural map into the product and the compatible-family subspace."""
    space = p.space
    dims = [p.section_dim(i) for i in cover]
    offsets = []
    total = 0
    for d in dims:
        offsets.append(total)
        total += d
    if cover:
        natural = Matrix(total, p.section_dim(u),
                         tuple(row for i in cover for row in p.restriction(u, i).entries))
    else:
        natural = Matrix.zeros(0, p.section_dim(u))
    rows = []
    for a_pos in range(len(cover)):
        for b_pos in range(a_pos + 1, len(cover)):
            i, j = cover[a_pos], cover[b_pos]
            meet = space.open_index(space.opens[i] & space.opens[j])
            ri = p.restriction(i, meet)
            rj = p.restriction(j, meet)
            for r in range(ri.rows):
                row = [ZERO] * total
                for c in range(ri.cols):
                    row[offsets[a_pos] + c] += ri.entries[r][c]
                for c in range(rj.cols):
                    row[offsets[b_pos] + c] -= rj.entries[r][c]
                rows.append(row)
    if rows:
        compatible = kernel(Matrix.from_rows(rows, cols=total))
    else:
        compatible = full_space(total)
    return natural, compatible, offsets, dims


def check_sheaf_by_covers(p) -> SheafCertificate:
    """Equalizer test against every irredundant cover of every open.

    The image of the natural map lies in the compatible-family space when
    the restrictions compose, so the test reduces to: natural map injective,
    and its rank equal to the dimension of the compatible-family space.
    """
    witnesses = []
    for u in range(len(p.space.opens)):
        for cover in irredundant_covers(p.space, u):
            natural, compatible, offsets, dims = equalizer_data(p, u, cover)
            ker = kernel(natural)
            if ker.dim > 0:
                witnesses.append(CoverWitness(u, cover, "not_injective",
                                              [str(x) for x in ker.basis[0]]))
                continue
            image = span(natural.rows, [natural.col(c) for c in range(natural.cols)])
            if image.dim != compatible.dim:
                stray = next(b for b in compatible.basis if not image.contains(b))
                family = [[str(x) for x in stray[o:o + d]]
                          for o, d in zip(offsets, dims)]
                witnesses.append(CoverWitness(u, cover, "gluing_fails", family))
    return SheafCertificate(p, not witnesses, tuple(witnesses))
