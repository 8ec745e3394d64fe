"""Polynomials, rational functions and partial fractions over GF(p^k).

A Poly stores coefficients in ascending degree with trailing zeros trimmed;
the zero polynomial has an empty coefficient tuple.  A RatFunc is always
canonical: monic denominator, numerator and denominator coprime.  A
PartialFraction is a polynomial part plus, per finite pole e, the principal
part  sum_n c_n (x-e)^(-n)  stored as {e: {n: c_n}} with zero coefficients
dropped, so decompositions are unique and comparable.

The rational Cartier pipeline only reads a decomposition's poly and
tails.  A product goes through PartialFraction.assemble() and back through
partial_fractions() at the poles of both factors: no pipeline multiplies
partial fractions (the local Cartier pipeline multiplies truncated Laurent
series; see ascart.cartier).
partial_fractions() and PartialFraction.assemble() convert between the two
representations and are exact inverses of each other.

partial_fractions() also takes an unreduced pair (num, den) of
polynomials, not necessarily coprime nor den monic, and gives the
decomposition of num/den: a surplus top coefficient of a principal part
comes out zero and is dropped.  That skips RatFunc's gcd, its exact
divisions and its monic scaling for a caller whose fraction is known to
decompose, such as the rational Cartier pipeline.

Denominators must split into linear factors over the coefficient field.
partial_fractions() looks for their roots among a caller's list of
candidates, the pole locations of a curve for instance, and scans the
whole field in counter order when given none.  A factor left over by that
search, a non-split one or a root missing from the candidates, raises
IrreducibleDenominatorFactor.
"""

from __future__ import annotations

from .errors import IrreducibleDenominatorFactor, SingularTransform
from .finite_field import Field, FieldElement


class Poly:
    """Dense univariate polynomial over a Field, canonical form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_ints(field: Field, ints) -> "Poly":
        return Poly(field, [field(c) for c in ints])

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly(field, [field.zero, field.one])

    @staticmethod
    def constant(field: Field, c) -> "Poly":
        return Poly(field, [field(c)])

    @staticmethod
    def monomial(field: Field, degree: int, c=1) -> "Poly":
        return Poly(field, [field.zero] * degree + [field(c)])

    # -- basic queries --------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            c = self.field(other)
            return Poly(self.field, [a * c for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree()
        inv_lead = other.leading().inverse()
        q = [self.field.zero] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            c = rem[-1] * inv_lead
            shift = len(rem) - 1 - d
            q[shift] = c
            for i, oc in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - c * oc
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly(self.field, q), Poly(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.constant(self.field, 1)
        # left to right from the top bit: bit_length(n) - 1 squarings and
        # popcount(n) - 1 products by self, none of them by 1
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * self.leading().inverse()

    def derivative(self) -> "Poly":
        f = self.field
        return Poly(f, [self.coeffs[i] * f(i) for i in range(1, len(self.coeffs))])

    def evaluate(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- local expansions around x = e ---------------------------------------

    def divmod_linear(self, e: FieldElement):
        """Synthetic division by (x - e): returns (quotient, remainder)."""
        if self.is_zero():
            return self, self.field.zero
        q = [self.field.zero] * (len(self.coeffs) - 1)
        acc = self.field.zero
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * e + self.coeffs[i]
            q[i - 1] = acc
        rem = acc * e + self.coeffs[0]
        return Poly(self.field, q), rem

    def taylor(self, e: FieldElement, depth: int) -> list[FieldElement]:
        """First `depth` coefficients of the expansion in powers of (x - e)."""
        out, cur = [], self
        for _ in range(depth):
            cur, rem = cur.divmod_linear(e)
            out.append(rem)
        return out

    # -- identity -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"{c!r}")
            else:
                x = "x" if i == 1 else f"x^{i}"
                parts.append(x if c == self.field.one else f"{c!r}*{x}")
        return " + ".join(reversed(parts))


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
            g = num.gcd(den)
            if g.degree() > 0:
                num, den = num // g, den // g
            lead = den.leading()
            if lead != field.one:
                inv = lead.inverse()
                num, den = num * inv, den * inv
        self.num = num
        self.den = den

    @property
    def field(self) -> Field:
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
        return RatFunc(self.num**n, self.den**n)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, x: FieldElement) -> FieldElement:
        d = self.den.evaluate(x)
        if d.is_zero():
            raise ZeroDivisionError(f"pole at {x!r}")
        return self.num.evaluate(x) / d

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


class PartialFraction:
    """poly_part + sum over finite poles e of sum_n tails[e][n] * (x-e)^(-n)."""

    __slots__ = ("poly", "tails")

    def __init__(self, poly: Poly, tails=None):
        self.poly = poly
        clean: dict[FieldElement, dict[int, FieldElement]] = {}
        for e, tail in (tails or {}).items():
            t = {n: c for n, c in tail.items() if not c.is_zero()}
            if t:
                clean[e] = t
        self.tails = clean

    @property
    def field(self) -> Field:
        return self.poly.field

    def is_zero(self) -> bool:
        return self.poly.is_zero() and not self.tails

    # -- multiplication -------------------------------------------------------

    def __mul__(self, other: "PartialFraction") -> "PartialFraction":
        """The product, through assemble() and back at the poles of both."""
        poles = self.tails.keys() | other.tails.keys()
        return partial_fractions(self.assemble() * other.assemble(), candidates=poles)

    # -- conversion -----------------------------------------------------------

    def assemble(self) -> RatFunc:
        """The rational function this decomposition represents."""
        field = self.field
        total = RatFunc(self.poly)
        x = Poly.x(field)
        for e, tail in self.tails.items():
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialFraction)
            and self.poly == other.poly
            and self.tails == other.tails
        )

    def __repr__(self) -> str:
        parts = [] if self.poly.is_zero() else [repr(self.poly)]
        for e in sorted(self.tails, key=lambda v: v.counter()):
            for n in sorted(self.tails[e]):
                parts.append(f"{self.tails[e][n]!r}/(x-{e!r})^{n}")
        return " + ".join(parts) if parts else "0"


def partial_fractions(f, *, candidates=None) -> PartialFraction:
    """Exact partial fraction decomposition of f.

    f is a RatFunc or a pair (num, den) of polynomials, which need not be
    coprime nor den monic: the decomposition is that of num/den all the
    same, as the principal parts come out of the series of num/den at each
    root of den and a surplus top coefficient there is zero.  A zero den
    raises ZeroDivisionError.

    The roots of the denominator are looked for among `candidates`, an
    iterable of elements of f's field, or among all of the field when it
    is None.  The denominator must be a product of linear factors at those
    roots; otherwise IrreducibleDenominatorFactor is raised.
    """
    num, den = f if isinstance(f, tuple) else (f.num, f.den)
    field = num.field
    poly_part, rem = divmod(num, den)
    if rem.is_zero():
        return PartialFraction(poly_part)

    # root extraction with multiplicities; a candidate that is no root
    # costs one synthetic division, whose remainder is the value there
    roots: list[tuple[FieldElement, int]] = []
    cofactor = den
    for e in field.elements() if candidates is None else candidates:
        if cofactor.degree() == 0:
            break
        mult = 0
        while True:
            q, r = cofactor.divmod_linear(e)
            if not r.is_zero():
                break
            cofactor, mult = q, mult + 1
        if mult:
            roots.append((e, mult))
    if cofactor.degree() > 0:
        raise IrreducibleDenominatorFactor(cofactor.degree())

    tails: dict[FieldElement, dict[int, FieldElement]] = {}
    for e, n in roots:
        # divide out (x-e)^n, expand num/cofactor as a series at e
        hat = den
        for _ in range(n):
            hat, _zero = hat.divmod_linear(e)
        a = rem.taylor(e, n)
        b = hat.taylor(e, n)
        b0_inv = b[0].inverse()
        g: list[FieldElement] = []
        for s in range(n):
            acc = a[s]
            for t in range(s):
                acc = acc - g[t] * b[s - t]
            g.append(acc * b0_inv)
        tails[e] = {n - s: g[s] for s in range(n)}
    return PartialFraction(poly_part, tails)


def moebius_substitute(f: RatFunc, coeffs) -> RatFunc:
    """f((a*x + b)/(c*x + d)) as a canonical rational function.

    coeffs is the matrix (a, b, c, d); it must be invertible, otherwise
    SingularTransform is raised.  The multiset of pole orders of f (the
    pole at infinity included) is preserved.
    """
    field = f.field
    a, b, c, d = (field(v) for v in coeffs)
    if (a * d - b * c).is_zero():
        raise SingularTransform("ad - bc = 0")
    top = Poly(field, [b, a])
    bot = Poly(field, [d, c])

    def homogenize(poly: Poly, degree: int) -> Poly:
        # x^i -> top^i * bot^(degree-i), exact for deg poly <= degree
        out = Poly(field)
        tp = Poly.constant(field, 1)
        powers_bot = [Poly.constant(field, 1)]
        for _ in range(degree):
            powers_bot.append(powers_bot[-1] * bot)
        for i in range(degree + 1):
            ci = poly.coeff(i)
            if not ci.is_zero():
                out = out + tp * powers_bot[degree - i] * ci
            tp = tp * top
        return out

    deg = max(f.num.degree(), f.den.degree(), 0)
    new_num = homogenize(f.num, deg)
    new_den = homogenize(f.den, deg)
    if new_den.is_zero():
        # f.den is a power of (d*x + ... ) collapsing entirely; cannot happen
        # for an invertible transform with canonical f
        raise SingularTransform("denominator collapsed")
    return RatFunc(new_num, new_den)
