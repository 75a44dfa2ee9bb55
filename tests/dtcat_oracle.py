"""Reference enumeration of presheaf morphisms by depth-first search.

Every unit-preserving algebra map Q^V -> Q^{f^-1 V} is the pullback along a
point map, so listing all of them per open and keeping only the choices
that square with every restriction finds every family.  The candidates per
open grow like |V|^|f^-1 V| and each choice costs matrix products, so the
search is exponential in the size of the spaces; the library's closed form
(one family per point map g with g(x) in U_{f(x)}) must give the same
families.

`module_linearity_by_pairs` is the module-component half of the triad
morphism check, one pair of basis vectors at a time; `check_morphism` must
report the same findings in the same order.
"""

from triadica.algebra import enumerate_unital_morphisms
from triadica.maps import ContinuousMap
from triadica.report import Finding
from triadica.sheaf import function_presheaf, pushforward
from triadica.sheafmaps import PresheafMorphism


def presheaf_morphisms_by_search(f: ContinuousMap) -> list[PresheafMorphism]:
    """All unit-preserving multiplicative presheaf morphisms from the full
    functional sheaf on the codomain into the pushforward of the one on the
    domain.

    Depth-first over opens in ascending size; a candidate for an open is kept
    only if it squares with every already-chosen component of a smaller open.
    """
    y = f.codomain
    source = function_presheaf(y)
    target = pushforward(f, function_presheaf(f.domain))
    order = sorted(range(len(y.opens)),
                   key=lambda u: (len(y.opens[u]), sorted(y.opens[u])))
    candidates = {
        u: [mor.matrix for mor in
            enumerate_unital_morphisms(source.sections[u], target.sections[u])]
        for u in order}
    strict_subs = {u: [v for v in order if y.opens[v] < y.opens[u]] for u in order}
    out: list[PresheafMorphism] = []
    assigned = {}

    def extend(k: int):
        if k == len(order):
            out.append(PresheafMorphism(
                source, target, tuple(assigned[u] for u in range(len(y.opens)))))
            return
        u = order[k]
        for cand in candidates[u]:
            if all(assigned[v] @ source.restriction(u, v) ==
                   target.restriction(u, v) @ cand for v in strict_subs[u]):
                assigned[u] = cand
                extend(k + 1)
                del assigned[u]

    extend(0)
    return out


def module_linearity_by_pairs(m) -> list[Finding]:
    """Over each codomain open v, the module component must satisfy
    fo(e_i . w_j) = fa(e_i) . fo(w_j) for every pair of basis vectors."""
    source, target = m.source, m.target
    findings = []
    for v in range(len(target.space.opens)):
        pre = m.map.preimages[v]
        act_y = target.modules.sections[v]
        act_x = source.modules.sections[pre]
        fa, fo = m.algebra_components[v], m.module_components[v]
        for i in range(act_y.algebra_dim):
            fa_i = fa.col(i)
            for j in range(act_y.dim):
                lhs = fo.apply(act_y.action[i][j])
                rhs = act_x.act(fa_i, fo.col(j))
                if lhs != rhs:
                    findings.append(Finding(
                        "error", f"open {v}, action pair ({i},{j})",
                        "module component is not linear over the algebra component",
                        {"open": v, "pair": [i, j],
                         "defect": [str(p - q) for p, q in zip(lhs, rhs)]}))
    return findings
