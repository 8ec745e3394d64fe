"""Polynomials and partial fractions over GF(p^k), for the rational pipeline.

A Poly stores coefficients in ascending degree with trailing zeros trimmed;
the zero polynomial has an empty coefficient tuple.  A PartialFraction is a
polynomial part plus, per finite pole e, the principal part
sum_n c_n (x-e)^(-n) stored as {e: {n: c_n}} with zero coefficients
dropped, so decompositions are unique and comparable.

partial_fractions() decomposes an unreduced pair (num, den) of
polynomials, not necessarily coprime nor den monic: a surplus top
coefficient of a principal part comes out zero and is dropped, so no gcd
is taken.  The rational Cartier pipeline decomposes each image this way
and reads only the decomposition's poly and tails; no pipeline multiplies
partial fractions (the local Cartier pipeline multiplies truncated Laurent
series; see ascart.cartier).

Denominators must split into linear factors at a caller's list of
candidate roots, the pole locations of a curve for instance.  A factor
left over, a non-split one or a root missing from the candidates, raises
IrreducibleDenominatorFactor.
"""

from __future__ import annotations

from .errors import IrreducibleDenominatorFactor
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
    def x(field: Field) -> "Poly":
        return Poly(field, [field.zero, field.one])

    @staticmethod
    def constant(field: Field, c) -> "Poly":
        return Poly(field, [field(c)])

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
        """The product, as one unreduced fraction decomposed at the poles of both."""
        (num, den), (other_num, other_den) = self._fraction(), other._fraction()
        poles = self.tails.keys() | other.tails.keys()
        return partial_fractions((num * other_num, den * other_den), candidates=poles)

    def _fraction(self) -> tuple[Poly, Poly]:
        """This decomposition as an unreduced pair (num, den), den the product
        of (x-e)^nmax over its poles e, nmax the top order there."""
        field = self.field
        num, den = self.poly, Poly.constant(field, 1)
        for e, tail in self.tails.items():
            lin = Poly.x(field) - Poly.constant(field, e)
            # sum_n c_n (x-e)^(nmax-n) by Horner from c_1, over (x-e)^nmax
            part, power = Poly.constant(field, tail.get(1, field.zero)), lin
            for n in range(2, max(tail) + 1):
                part = part * lin + Poly.constant(field, tail.get(n, field.zero))
                power = power * lin
            num, den = num * power + part * den, den * power
        return num, den

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


def partial_fractions(pair, *, candidates) -> PartialFraction:
    """Exact partial fraction decomposition of num/den, for pair = (num, den).

    num and den need not be coprime nor den monic: the principal parts come
    out of the series of num/den at each root of den, and a surplus top
    coefficient there is zero.  A zero den raises ZeroDivisionError.

    The roots of den are looked for among `candidates`, an iterable of
    elements of its field.  den must be a product of linear factors at those
    roots; otherwise IrreducibleDenominatorFactor is raised.
    """
    num, den = pair
    poly_part, rem = divmod(num, den)
    if rem.is_zero():
        return PartialFraction(poly_part)

    # root extraction with multiplicities; a candidate that is no root
    # costs one synthetic division, whose remainder is the value there
    roots: list[tuple[FieldElement, int]] = []
    cofactor = den
    for e in candidates:
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
