"""Reference algorithms for the algebra layer: rational roots by trial
division, and generators by a plain closure.

By the rational root theorem every rational root p/q in lowest terms of an
integer polynomial has p dividing the constant term and q dividing the
leading coefficient (after the zero roots are stripped), so trying every
such pair finds them all.  Listing the divisors takes time proportional to
the square root of each coefficient, exponential in its bit size; the
library's Sturm bisection must give the same roots.

The generating basis is checked against the same greedy choice made over
the left closure of 1 under the chosen basis vectors, a span with no
relations or coefficients; where the algebra is associative it equals the
span of the library's Buchberger-Moeller pass.
"""

from fractions import Fraction
from math import lcm

from triadica.algebra import Algebra
from triadica.exactla import ZERO, Subspace, span, unit_vector


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


def closure(a: Algebra, gens) -> Subspace:
    """The span of 1 and its products with the basis vectors `gens`, on
    the left again and again: if it is all, they generate the algebra."""
    n, rows, todo = a.dim, [], [a.unit]
    while todo:
        v = todo.pop()
        for lead, row in rows:
            c = v[lead]
            if c:  # zero entries are skipped, as in `contract`
                v = [x - c * y if y else x for x, y in zip(v, row)]
        lead = next((k for k, x in enumerate(v) if x), None)
        if lead is not None:
            rows.append((lead, [x / v[lead] if x else x for x in v]))
            todo += [a.multiply(unit_vector(n, g), v) for g in gens]
    return span(n, [row for _, row in rows])


def greedy_generators(a: Algebra) -> tuple[int, ...] | None:
    """`Algebra.generating_basis` over `closure`: each basis vector the one
    that grows the closure of those before it most, or None once 2 r >= n,
    or at once when the basis vectors in no product of basis vectors but
    their own square already make 2 (r + 1) >= n."""
    n, gens = a.dim, []
    made = {k for i, row in enumerate(a.struct) for j, v in enumerate(row)
            for k, x in enumerate(v) if x and not i == j == k}
    if 2 * (n - 1 - len(made)) >= n:
        return None
    span_now = closure(a, gens)
    while span_now.dim < n:
        if 2 * (len(gens) + 1) >= n:
            return None
        grown = []
        for j in range(n):
            if not span_now.contains(unit_vector(n, j)):
                grown.append((closure(a, gens + [j]), j))
                if grown[-1][0].dim == n:
                    break
        span_now, j = max(grown, key=lambda c: c[0].dim)
        gens.append(j)
    return tuple(gens)
