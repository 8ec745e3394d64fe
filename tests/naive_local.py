"""Reference local Cartier pipeline on partial fraction products.

This is the route ascart.cartier's local pipeline took before it moved to
truncated Laurent series at each pole.  It multiplies whole
PartialFractions in FieldElement arithmetic, reducing every product on the
decomposed form with synthetic division against linear factors and local
binomial expansions at each pole, and applies the pole rules of
cartier_local to x_j^b f^e, with f from the pole data as
f_partial_fraction(spec).  It shares no code with the series route:
tests compare the two, and compare pf_mul with products of RatFuncs.
"""

from ascart.cartier import CartierMatrix, cartier_poly
from ascart.curve import BasisForm, CurveSpec, basis
from ascart.finite_field import FieldElement
from ascart.ratfunc import PartialFraction, Poly

from conftest import matrix_from_rows
from naive_ratfunc import monomial


def f_partial_fraction(spec: CurveSpec) -> PartialFraction:
    """f as a PartialFraction, straight from the pole data."""
    tails = {
        datum.location: {n: c for n, c in enumerate(datum.coeffs, start=1)}
        for datum in spec.poles[1:]
    }
    return PartialFraction(Poly(spec.field, spec.poles[0].coeffs), tails)


def cartier_local(pf: PartialFraction) -> PartialFraction:
    """C(g dx) term by term on a partial fraction decomposition."""
    p = pf.field.p
    tails = {}
    for e, tail in pf.tails.items():
        t = {}
        for n, c in tail.items():
            if n % p == 1:
                t[(n - 1) // p + 1] = c.pth_root()
        if t:
            tails[e] = t
    return PartialFraction(cartier_poly(pf.poly), tails)


def binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient mod p by Lucas' theorem; n, k >= 0."""
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        num = den = 1
        for i in range(ki):
            num = num * (ni - i) % p
            den = den * (i + 1) % p
        result = result * num * pow(den, -1, p) % p
        n //= p
        k //= p
    return result


def pf_mul(lhs: PartialFraction, rhs: PartialFraction) -> PartialFraction:
    """lhs * rhs, fully reduced on the decomposed form."""
    field = lhs.field
    acc_poly = lhs.poly * rhs.poly
    acc_tails: dict[FieldElement, dict[int, FieldElement]] = {}

    def add_tail(e, n, c):
        if not c.is_zero():
            t = acc_tails.setdefault(e, {})
            t[n] = t.get(n, field.zero) + c

    def poly_times_tail(P: Poly, e, tail):
        # P(x) * (x-e)^(-n) = sum_{s<n} a_s (x-e)^(s-n) + Q_n(x)
        # with a_s, Q_s from repeated synthetic division of P by (x-e).
        nonlocal acc_poly
        if P.is_zero():
            return
        nmax = max(tail)
        quotients, rems, cur = [P], [], P
        for _ in range(nmax):
            cur, rem = cur.divmod_linear(e)
            quotients.append(cur)
            rems.append(rem)
        for n, c in tail.items():
            for s in range(n):
                add_tail(e, n - s, c * rems[s])
            acc_poly = acc_poly + quotients[n] * c

    def same_pole(e, t1, t2):
        for n1, c1 in t1.items():
            for n2, c2 in t2.items():
                add_tail(e, n1 + n2, c1 * c2)

    def cross_series(tail, delta_inv, depth):
        # power series, to the given depth, of a principal part at e2
        # re-expanded around e1, where delta_inv = 1/(e1-e2)
        p = field.p
        coeffs = [field.zero] * depth
        for n2, c2 in tail.items():
            w = delta_inv**n2
            for s in range(depth):
                b = binom_mod(n2 + s - 1, s, p)
                if b:
                    term = c2 * w * field(b)
                    coeffs[s] = coeffs[s] + (term if s % 2 == 0 else -term)
                w = w * delta_inv
        return coeffs

    def cross_poles(e1, t1, e2, t2):
        # (principal part at e1) * (principal part at e2): contributes
        # principal parts at both poles and nothing else.
        delta = e1 - e2
        series2 = cross_series(t2, delta.inverse(), max(t1))
        for n, c in t1.items():
            for s in range(n):
                add_tail(e1, n - s, c * series2[s])
        series1 = cross_series(t1, (-delta).inverse(), max(t2))
        for n, c in t2.items():
            for s in range(n):
                add_tail(e2, n - s, c * series1[s])

    for e, t in rhs.tails.items():
        poly_times_tail(lhs.poly, e, t)
    for e, t in lhs.tails.items():
        poly_times_tail(rhs.poly, e, t)
    for e1, t1 in lhs.tails.items():
        for e2, t2 in rhs.tails.items():
            if e1 == e2:
                same_pole(e1, t1, t2)
            else:
                cross_poles(e1, t1, e2, t2)
    return PartialFraction(acc_poly, acc_tails)


def pf_pow(a: PartialFraction, n: int) -> PartialFraction:
    """a^n by square-and-multiply with pf_mul."""
    if n < 0:
        raise ValueError("negative power of a partial fraction")
    result = PartialFraction(Poly.constant(a.field, 1))
    base = a
    while n:
        if n & 1:
            result = pf_mul(result, base)
        base = pf_mul(base, base)
        n >>= 1
    return result


def naive_local_matrix(spec) -> CartierMatrix:
    """cartier_matrix(spec, "local") from cached powers f^e as PartialFractions
    and the images C(x_j^b f^e dx) term by term, column by column."""
    field = spec.field
    forms = basis(spec)
    index = {form: i for i, form in enumerate(forms)}
    loc_to_j = {datum.location: j for j, datum in enumerate(spec.poles) if j >= 1}
    powers = [PartialFraction(Poly.constant(field, 1)), f_partial_fraction(spec)]
    images: dict[tuple[int, int, int], PartialFraction] = {}

    def f_power_pf(e: int) -> PartialFraction:
        while len(powers) <= e:
            powers.append(pf_mul(powers[-1], powers[1]))
        return powers[e]

    def c_monomial_pf(j: int, b: int, e: int) -> PartialFraction:
        key = (j, b, e)
        if key not in images:
            g = f_power_pf(e)
            if j == 0:
                if b:
                    g = pf_mul(g, PartialFraction(monomial(field, b)))
            else:
                loc = spec.poles[j].location
                g = pf_mul(g, PartialFraction(Poly(field), {loc: {b: field.one}}))
            images[key] = cartier_local(g)
        return images[key]

    def accumulate(pf: PartialFraction, scale, y_power: int, vec: list) -> None:
        # the monomials x^b and x_j^n of pf, times scale * y^y_power, onto vec
        terms = [(BasisForm(0, b, y_power), c) for b, c in enumerate(pf.poly.coeffs)]
        for loc, tail in pf.tails.items():
            terms.extend((BasisForm(loc_to_j[loc], n, y_power), c) for n, c in tail.items())
        for form, c in terms:
            if not c.is_zero():
                vec[index[form]] = vec[index[form]] + c * scale

    columns = []
    for form in forms:
        vec = [field.zero] * len(forms)
        # (y^p - f)^r = sum_e (-1)^e C(r, e) y^(p(r-e)) f^e
        for e in range(form.r + 1):
            sign = (-1) ** e * binom_mod(form.r, e, field.p)
            accumulate(c_monomial_pf(form.j, form.b, e), field(sign), form.r - e, vec)
        columns.append(vec)
    return matrix_from_rows(field, forms, zip(*columns))
