"""Reference point enumeration: Tr f(x) element by element.

This is the loop ascart.zeta._trace_distribution ran before it moved to the
field's log tables.  It visits every x of F_(q^s) in FieldElement
arithmetic, evaluates the polynomial part by Horner's rule and each
principal part as a polynomial in 1/(x - e), and tallies the traces.  It
reads no log table; tests compare the two routes.
"""

from ascart.finite_field import GF, embedding
from ascart.ratfunc import Poly


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
        val = f0.evaluate(x)
        for loc, coeffs in finite:
            t = (x - loc).inverse()
            acc = big.zero
            for c in reversed(coeffs):
                acc = (acc + c) * t
            val = val + acc
        counts[val.trace_to_prime()] += 1
    return counts
