"""Reference rational functions over GF(p^k), and C(g dx) on them.

ascart takes curves in normal form, pole data with a pole at infinity, so
it has no rational-function type: its rational pipeline decomposes
unreduced pairs (num, den) and never reduces a fraction.  This module is
the canonical quotient the tests check against: a RatFunc keeps a monic
denominator coprime to its numerator, through the polynomial gcd, with
the field operations, the derivative and evaluation.  assemble(pf) turns
a PartialFraction back into a RatFunc and decompose(f) a RatFunc into a
PartialFraction, so tests check that the two are exact inverses.
cartier_rational(g) is C(g dx) by denominator amplification,
g = num*den^(p-1) / den^p, for the operator's axioms and the pole rules
on partial fractions.  from_ints and monomial build test polynomials.

Poly computes on digit rows; schoolbook, long_division,
synthetic_division, taylor and principal_parts are the same operations in
FieldElement arithmetic, one coefficient at a time, as references for it.
"""

from ascart.cartier import cartier_poly
from ascart.errors import IrreducibleDenominatorFactor
from ascart.finite_field import FieldElement
from ascart.ratfunc import PartialFraction, Poly, partial_fractions


def from_ints(field, ints) -> Poly:
    """The polynomial with coefficients field(c) for c in ints, lowest
    degree first."""
    return Poly(field, [field(c) for c in ints])


def monomial(field, degree: int, c=1) -> Poly:
    """c x^degree."""
    return Poly(field, [field.zero] * degree + [field(c)])


def schoolbook(a: Poly, b: Poly) -> Poly:
    """a * b, every coefficient product summed in element arithmetic."""
    field, xs, ys = a.field, a.coeffs, b.coeffs
    if not xs or not ys:
        return Poly(field)
    out = [field.zero] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] = out[i + j] + x * y
    return Poly(field, out)


def long_division(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """divmod(a, b) by long division, one quotient term at a time."""
    field, rem, divisor = a.field, list(a.coeffs), b.coeffs
    d, inv_lead = len(divisor) - 1, divisor[-1].inverse()
    q = [field.zero] * max(0, len(rem) - d)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = rem[shift + d] * inv_lead
        for i, y in enumerate(divisor):
            rem[shift + i] = rem[shift + i] - c * y
    return Poly(field, q), Poly(field, rem[:d])


def synthetic_division(a: Poly, e: FieldElement) -> tuple[Poly, FieldElement]:
    """The quotient of a by x - e and a(e), by Horner's rule in element
    arithmetic: the reference of ratfunc._divide_linear."""
    field, cs = a.field, a.coeffs
    acc, q = field.zero, []
    for c in reversed(cs):
        acc = acc * e + c
        q.append(acc)
    rem = q.pop() if q else field.zero
    return Poly(field, q[::-1]), rem


def taylor(a: Poly, e: FieldElement, depth: int) -> list[FieldElement]:
    """The first depth coefficients of a in powers of x - e, one synthetic
    division per coefficient: the reference of ratfunc._taylor."""
    out = []
    for _ in range(depth):
        a, rem = synthetic_division(a, e)
        out.append(rem)
    return out


def principal_parts(num: Poly, den: Poly, candidates) -> PartialFraction:
    """partial_fractions((num, den), candidates=candidates): the roots of den
    among the candidates by synthetic division, then at each root e of
    multiplicity n the series of rem/(den/(x-e)^n) to n terms, solved one
    coefficient at a time."""
    field = den.field
    poly_part, rem = long_division(num, den)
    cofactor, roots = den, {}
    for e in candidates:
        while cofactor.degree() > 0:
            q, r = synthetic_division(cofactor, e)
            if not r.is_zero():
                break
            cofactor, roots[e] = q, roots.get(e, 0) + 1
    if cofactor.degree() > 0:
        raise IrreducibleDenominatorFactor(cofactor.degree())
    tails = {}
    for e, n in roots.items():
        hat = den
        for _ in range(n):
            hat = synthetic_division(hat, e)[0]
        a, b = taylor(rem, e, n), taylor(hat, e, n)
        g = []
        for s in range(n):
            acc = a[s]
            for t in range(s):
                acc = acc - g[t] * b[s - t]
            g.append(acc / b[0])
        tails[e] = {n - s: c for s, c in enumerate(g)}
    return PartialFraction(poly_part, tails)


def power(a: Poly, n: int) -> Poly:
    """a^n, left to right from the top bit: bit_length(n) - 1 squarings and
    popcount(n) - 1 products by a, none of them by 1."""
    if n < 0:
        raise ValueError("negative polynomial power")
    if n == 0:
        return Poly.constant(a.field, 1)
    result = a
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * a
    return result


def monic(a: Poly) -> Poly:
    return a * a.leading().inverse() if a else a


def gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b (zero when both are), by Euclid."""
    while b:
        a, b = b, divmod(a, b)[1]
    return monic(a)


def derivative(a: Poly) -> Poly:
    f, cs = a.field, a.coeffs
    return Poly(f, [cs[i] * f(i) for i in range(1, len(cs))])


def evaluate(a: Poly, x: FieldElement) -> FieldElement:
    """a(x) by Horner's rule."""
    acc = a.field.zero
    for c in reversed(a.coeffs):
        acc = acc * x + c
    return acc


class RatFunc:
    """Quotient of polynomials, canonical: monic denominator, coprime."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        field = num.field
        if den is None:
            den = Poly.constant(field, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.constant(field, 1)
        else:
            g = gcd(num, den)
            if g.degree() > 0:
                num, den = divmod(num, g)[0], divmod(den, g)[0]
            lead = den.leading()
            if lead != field.one:
                inv = lead.inverse()
                num, den = num * inv, den * inv
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return RatFunc(self.num * other, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("inverse of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(power(self.num, n), power(self.den, n))

    def derivative(self) -> "RatFunc":
        return RatFunc(
            derivative(self.num) * self.den - self.num * derivative(self.den),
            self.den * self.den,
        )

    def evaluate(self, x: FieldElement) -> FieldElement:
        d = evaluate(self.den, x)
        if d.is_zero():
            raise ZeroDivisionError(f"pole at {x!r}")
        return evaluate(self.num, x) / d

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def assemble(pf: PartialFraction) -> RatFunc:
    """The rational function the decomposition pf represents."""
    field = pf.field
    total = RatFunc(pf.poly)
    x = Poly.x(field)
    for e, tail in pf.tails.items():
        nmax = max(tail)
        lin = x - Poly.constant(field, e)
        # numerator sum_n c_n (x-e)^(nmax-n) over (x-e)^nmax
        powers = [Poly.constant(field, 1)]
        for _ in range(nmax):
            powers.append(powers[-1] * lin)
        num = Poly(field)
        for n, c in tail.items():
            num = num + powers[nmax - n] * c
        total = total + RatFunc(num, powers[nmax])
    return total


def decompose(f: RatFunc, candidates=None) -> PartialFraction:
    """partial_fractions of f, with its poles looked for among candidates,
    or among every element of the field in counter order by default."""
    if candidates is None:
        candidates = f.field.elements()
    return partial_fractions((f.num, f.den), candidates=candidates)


def cartier_rational(g: RatFunc) -> RatFunc:
    """C(g dx) via denominator amplification: g = num*den^(p-1) / den^p."""
    p = g.field.p
    return RatFunc(cartier_poly(g.num * power(g.den, p - 1)), g.den)
