"""Rational polynomials: characteristic polynomials and exact rational roots.

Coefficient lists run from the constant term up.  The rational roots of a
polynomial are found by isolating the real roots of a monic integer
transform with a Sturm sequence and testing the one integer left in each
isolating interval, in time polynomial in the degree and the coefficients'
bit size.  `algebra.characters` reads its eigenvalues off these roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactla import ONE, ZERO, Matrix


def char_poly(m: Matrix) -> list[Fraction]:
    """Coefficients [c0, ..., c_{k-1}, 1] of det(t*I - m), by Faddeev-LeVerrier.

    N_1 = m, c_{k-1} = -tr N_1; N_{i+1} = m (N_i + c_{k-i} I),
    c_{k-i-1} = -tr N_{i+1} / (i+1).
    """
    k = m.rows
    if k == 0:
        return [ONE]
    coeffs = [ZERO] * k + [ONE]
    n_mat = m
    c = -sum((n_mat.entries[d][d] for d in range(k)), ZERO)
    coeffs[k - 1] = c
    for i in range(1, k):
        shifted = Matrix(k, k, tuple(
            tuple(n_mat.entries[r][s] + (c if r == s else ZERO) for s in range(k))
            for r in range(k)))
        n_mat = m @ shifted
        c = -sum((n_mat.entries[d][d] for d in range(k)), ZERO) / (i + 1)
        coeffs[k - 1 - i] = c
    return coeffs


def _primitive(coeffs) -> list[int]:
    """The coefficients times the positive rational that makes them coprime
    integers (signs are kept)."""
    scale = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * scale) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


def _sturm_chain(g: list[int]) -> list[list[int]]:
    """Sturm sequence g, g', -rem(g, g'), ..., each later member scaled by a
    positive rational to coprime integers, so every sign is kept.

    When g has repeated roots the chain ends at a multiple of gcd(g, g') and
    still counts the distinct real roots between two points that are not
    roots of g.
    """
    chain = [g, _primitive([i * c for i, c in enumerate(g)][1:])]
    while True:
        rem = [Fraction(c) for c in chain[-2]]
        div = chain[-1]
        while len(rem) >= len(div):
            q = rem[-1] / div[-1]
            shift = len(rem) - len(div)
            for i, c in enumerate(div):
                rem[shift + i] -= q * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return chain
        chain.append(_primitive([-c for c in rem]))


def _at(p: list[int], num: int, den: int) -> int:
    """den^deg(p) * p(num/den), by Horner's rule in integers."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _sign_changes(chain: list[list[int]], num: int, den: int) -> int:
    """Sign changes along the chain at num/den (den > 0), zeros skipped."""
    signs = [v > 0 for p in chain if (v := _at(p, num, den))]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots, sorted and distinct, of a polynomial with
    rational coefficients [c0, ..., cd], cd != 0.

    The primitive integer form a_0..a_d becomes the monic integer
    polynomial g(y) = a_d^(d-1) p(y/a_d), whose rational roots are integers
    y, each giving the root y/a_d of p.  A Sturm chain of g counts its
    distinct real roots between half-integers, so bisecting the integers
    within the Cauchy bound isolates each integer candidate in an interval
    of width 1, where one exact evaluation tests it.  The cost is
    polynomial in the degree and the coefficients' bit size.
    """
    poly = list(coeffs)
    roots = [ZERO] if poly[0] == 0 else []
    while poly and poly[0] == 0:
        poly = poly[1:]
    if len(poly) <= 1:
        return roots
    a = _primitive(poly)
    d, lead = len(a) - 1, a[-1]
    g = [c * lead ** (d - 1 - i) for i, c in enumerate(a[:-1])] + [1]
    bound = max(abs(c) for c in g[:-1])  # |integer root| <= Cauchy bound - 1
    chain = _sturm_chain(g)

    def changes(m):  # sign changes of the chain at m + 1/2
        return _sign_changes(chain, 2 * m + 1, 2)

    # integer intervals [lo, hi] with the sign changes at lo - 1/2 and hi + 1/2
    stack = [(-bound, bound, changes(-bound - 1), changes(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if lo == hi:
            if _at(g, lo, 1) == 0:
                roots.append(Fraction(lo, lead))
            continue
        mid = (lo + hi) // 2
        v_mid = changes(mid)
        stack += [(lo, mid, v_lo, v_mid), (mid + 1, hi, v_mid, v_hi)]
    return sorted(roots)
