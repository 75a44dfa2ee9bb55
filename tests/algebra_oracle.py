"""Reference rational-root search by trial division.

By the rational root theorem every rational root p/q in lowest terms of an
integer polynomial has p dividing the constant term and q dividing the
leading coefficient (after the zero roots are stripped), so trying every
such pair finds them all.  Listing the divisors takes time proportional to
the square root of each coefficient, exponential in its bit size; the
library's Sturm bisection must give the same roots.
"""

from fractions import Fraction
from math import lcm

from triadica.exactla import ZERO


def divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots_by_division(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero polynomial with rational coefficients."""
    poly = list(coeffs)
    roots = []
    while poly and poly[0] == 0:
        if ZERO not in roots:
            roots.append(ZERO)
        poly = poly[1:]
    if len(poly) <= 1:
        return sorted(roots)
    scale = lcm(*[c.denominator for c in poly])
    ints = [int(c * scale) for c in poly]
    lead, const = ints[-1], ints[0]
    candidates = set()
    for p in divisors(const):
        for q in divisors(lead):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for cand in candidates:
        acc = ZERO
        for c in reversed(poly):
            acc = acc * cand + c
        if acc == 0:
            roots.append(cand)
    return sorted(set(roots))
