"""Reference point enumeration, and exact checks on L-polynomials and polygons.

naive_trace_distribution is the loop that point enumeration ran before it
moved to the field's log tables.  For one level s it visits every x of
F_(q^s) in FieldElement arithmetic, with the curve's data carried there by
the canonical embedding, evaluates the polynomial part by Horner's rule
and each principal part as a polynomial in 1/(x - e), and tallies the
traces.  It reads no log table and takes no log in the base field; tests
compare it with ascart.zeta._trace_distributions, which counts every
level of a tower in one pass.

weil_bounds_ok(L) decides exactly whether every reciprocal root of L has
absolute value sqrt(q), by a Sturm count over Q, and is_symmetric(polygon)
whether slopes t and 1 - t come with equal multiplicities: two properties
that every L-polynomial and Newton polygon of a curve has, which tests
check on what ascart.zeta computes.  multiplicity(polygon, slope) reads
one slope's multiplicity.
"""

import itertools
from fractions import Fraction

from ascart.finite_field import GF, embedding
from ascart.ratfunc import Poly

from naive_ratfunc import evaluate


def naive_trace_distribution(spec, s: int) -> list[int]:
    """counts[c] = #{x in F_(q^s), x not a pole : Tr f(x) = c}, c in [0, p)."""
    base = spec.field
    big = base if s == 1 else GF(base.p, base.k * s)
    phi = embedding(base, big)
    f0 = Poly(big, [phi(c) for c in spec.poles[0].coeffs])
    finite = [
        (phi(datum.location), [phi(c) for c in datum.coeffs])
        for datum in spec.poles[1:]
    ]
    locations = {loc for loc, _ in finite}
    counts = [0] * base.p
    for x in big.elements():
        if x in locations:
            continue
        val = evaluate(f0, x)
        for loc, coeffs in finite:
            t = (x - loc).inverse()
            acc = big.zero
            for c in reversed(coeffs):
                acc = (acc + c) * t
            val = val + acc
        counts[val.trace_to_prime()] += 1
    return counts


def weil_bounds_ok(L) -> bool:
    """Every reciprocal root of the LPolynomial L has absolute value
    sqrt(q), decided exactly.

    The reciprocal roots are the roots of P(T) = T^(2g) L(1/T), and the
    functional equation makes P(T) = T^g h(T + q/T) for a monic integer
    h of degree g.  A root alpha has |alpha| = sqrt(q) exactly when
    x = alpha + q/alpha is real with x^2 <= 4q, so the bound holds when
    the g roots x_i^2 of H(z) = h(x) h(-x), z = x^2, are all real and in
    [0, 4q].  A Sturm sequence of the squarefree part of H counts its
    distinct roots there (Kedlaya, "Search techniques for root-unitary
    polynomials", 2008).
    """
    g, q, c = L.genus, L.q, L.coeffs
    # h = c_g + sum_j c_(g-j) s_j(x) for s_j(T + q/T) = T^j + (q/T)^j:
    # s_0 = 2, s_1 = x, s_j = x s_(j-1) - q s_(j-2)
    h, s_prev, s_j = [c[g]] + [0] * g, [2], [0, 1]
    for j in range(1, g + 1):
        for i, a in enumerate(s_j):
            h[i] += c[g - j] * a
        s_prev, s_j = s_j, [a - q * b for a, b in
                            itertools.zip_longest([0] + s_j, s_prev, fillvalue=0)]
    H = [0] * (2 * g + 1)
    for i, a in enumerate(h):
        for j, b in enumerate(h):
            H[i + j] += a * b * (-1) ** j
    H = H[::2]  # h(x) h(-x) is even
    H = _divmod_q(H, _gcd_q(H, _derivative(H)))[0]  # the squarefree part
    sturm = [H]
    nxt = _derivative(H)
    while nxt:
        sturm.append(nxt)
        nxt = [-a for a in _divmod_q(sturm[-2], sturm[-1])[1]]
    in_range = _sign_changes(sturm, 0) - _sign_changes(sturm, 4 * q) + (H[0] == 0)
    return in_range == len(H) - 1


# Polynomials over Q for the Sturm count: lists of coefficients, constant
# first, with a nonzero last coefficient; the zero polynomial is [].


def _derivative(a: list) -> list:
    return [i * x for i, x in enumerate(a)][1:]


def _divmod_q(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by the nonzero b over Q."""
    rem = [Fraction(x) for x in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        d, f = len(rem) - len(b), rem[-1] / b[-1]
        quo[d] = f
        for i, x in enumerate(b):
            rem[i + d] -= f * x
        while rem and not rem[-1]:
            rem.pop()
    return quo, rem


def _gcd_q(a: list, b: list) -> list:
    while b:
        a, b = b, _divmod_q(a, b)[1]
    return a


def _sign_changes(polys: list[list], z) -> int:
    """Sign changes along the values of polys at z, zeros skipped."""
    values = [v for v in (sum(x * z**i for i, x in enumerate(a)) for a in polys) if v]
    return sum((u < 0) != (v < 0) for u, v in itertools.pairwise(values))


def multiplicity(polygon, slope) -> int:
    """How often the SlopePolygon has the slope, 0 if never."""
    return dict(polygon.slopes).get(Fraction(slope), 0)


def is_symmetric(polygon) -> bool:
    """Slope t and 1 - t of the SlopePolygon occur with the same multiplicity."""
    return all(multiplicity(polygon, 1 - s) == m for s, m in polygon.slopes)
