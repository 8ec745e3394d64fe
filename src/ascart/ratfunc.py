"""Polynomials and partial fractions over GF(p^k), for the rational pipeline.

A Poly stores its coefficients once, as digits: a read-only (n, k) int64
array whose row i is the digit row of the coefficient of x^i, with zero top
rows trimmed, so the zero polynomial has no rows.  coeffs and leading are
views that build field elements from those digits on each read.  A
PartialFraction is a polynomial part plus, per finite pole e, the principal
part sum_n c_n (x-e)^(-n), stored the same way: an (n, k) digit array per
pole, row n - 1 the digits of c_n, zero top rows trimmed and a pole with no
nonzero c_n dropped, so decompositions are unique and comparable.  Its
tails view builds {e: {n: c_n}} with the zero c_n dropped.

All arithmetic is on digit rows.  A product of two polynomials is one
Kronecker substitution (Harvey, J. Symb. Comput. 2009) on Python ints: each
coefficient's k digits go in a slot of 2k-1 unsigned fields, so that one
big-int multiply puts in slot s the schoolbook product of the digit rows i
and j, summed over i + j = s; np.frombuffer reads the slots back, and one
fold by field.reduction takes each to k digits, mod p.  A field of the
product sums at most min(n_a, n_b)*k digit products, each at most (p-1)^2.
The fields are of the narrowest unsigned type that holds that slot bound,
and the bound must stay below 2^63 (_SLOT_BOUND), so that the sums read as
int64; a longer product is taken in chunks of the shorter factor that keep
it.  In the rational Cartier pipeline every factor has fewer than 10g + 4
terms and p - 1 <= 2g, so under the digit cap g^2*k <= 2^20 (cartier_matrix)
the bound stays below 2^36 and no product is chunked; it is about 2^22 at
the cap.  A product by one field element c, in division, synthetic
division and the series of a principal part, is a mat-vec with its k x k
multiplication matrix, c @ field.multiplication.

partial_fractions() decomposes an unreduced pair (num, den) of
polynomials, not necessarily coprime nor den monic: a surplus top
coefficient of a principal part comes out zero and is dropped, so no gcd
is taken.  The rational Cartier pipeline decomposes each image this way
and reads only the decomposition's digits; no pipeline multiplies partial
fractions (the local Cartier pipeline multiplies truncated Laurent series;
see ascart.local).

Denominators must split into linear factors at a caller's list of
candidate roots, the pole locations of a curve for instance.  A factor
left over, a non-split one or a root missing from the candidates, raises
IrreducibleDenominatorFactor.
"""

from __future__ import annotations

import numpy as np

from .errors import IrreducibleDenominatorFactor
from .finite_field import Field, FieldElement

_SLOT_BOUND = 2**63  # on every field of a Kronecker product, so that it reads as int64


def _trimmed(digits: np.ndarray) -> np.ndarray:
    """A read-only view of digits without its zero top rows."""
    n = len(digits)
    while n and not any(digits[n - 1].tolist()):
        n -= 1
    if n < len(digits):
        digits = digits[:n]
    digits.flags.writeable = False
    return digits


def _poly(field: Field, digits: np.ndarray) -> "Poly":
    """The Poly of digits, int64 and reduced mod p, kept without a copy."""
    poly = object.__new__(Poly)
    poly.field, poly.digits = field, _trimmed(digits)
    return poly


def _element(field: Field, row: np.ndarray) -> FieldElement:
    """The element with the reduced digit row row."""
    return FieldElement(field, tuple(row.tolist()))


def _times(field: Field, c) -> np.ndarray:
    """The k x k matrix of a -> c*a on digit rows, for the digit row c:
    (a @ it) % p is the digit row of c*a."""
    return np.asarray(c) @ field.multiplication % field.p


def _kronecker(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The reduced digits of the product of the nonempty digit arrays a and
    b, by one big-int multiply, in fields of the narrowest unsigned type
    that holds min(len(a), len(b))*k*(p-1)^2 < _SLOT_BOUND."""
    p, k = field.p, field.k
    slot, n = 2 * k - 1, len(a) + len(b) - 1
    width = np.min_scalar_type(min(len(a), len(b)) * k * (p - 1) ** 2).newbyteorder("<")
    packed = []
    for rows in (a, b):
        fields = np.zeros((len(rows), slot), dtype=width)
        fields[:, :k] = rows
        packed.append(int.from_bytes(fields.tobytes(), "little"))
    product = (packed[0] * packed[1]).to_bytes(width.itemsize * n * slot, "little")
    sums = np.frombuffer(product, dtype=width).reshape(n, slot).astype(np.int64) % p
    return sums if k == 1 else sums @ field.reduction % p


def _product(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The reduced digits of the product of the nonempty digit arrays a and
    b: one Kronecker product, or one per chunk of the shorter factor short
    enough for the slot bound, summed at their offsets."""
    if len(a) < len(b):
        a, b = b, a
    chunk = (_SLOT_BOUND - 1) // (field.k * (field.p - 1) ** 2)
    if len(b) <= chunk:
        return _kronecker(field, a, b)
    out = np.zeros((len(a) + len(b) - 1, field.k), dtype=np.int64)
    for s in range(0, len(b), chunk):
        part = _kronecker(field, a, b[s : s + chunk])
        out[s : s + len(part)] += part
    return out % field.p


def _divide_linear(a: np.ndarray, times: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic division of the nonempty digits a by x - e, for times the
    multiplication matrix of e: the quotient's digits and the remainder's
    digit row, by Horner's rule from the top."""
    out = a.copy()
    for i in range(len(a) - 2, -1, -1):
        out[i] = (out[i + 1] @ times + out[i]) % p
    return out[1:], out[0]


def _taylor(a: np.ndarray, times: np.ndarray, p: int, depth: int) -> np.ndarray:
    """The (depth, k) digits of the first depth coefficients of the digits
    a expanded in powers of x - e, for times the multiplication matrix of e:
    one synthetic division per coefficient."""
    out = np.zeros((depth, times.shape[0]), dtype=np.int64)
    for s in range(min(depth, len(a))):
        a, out[s] = _divide_linear(a, times, p)
    return out


class Poly:
    """Dense univariate polynomial over a Field, canonical form, stored as
    digits (see the module docstring)."""

    __slots__ = ("field", "digits")

    def __init__(self, field: Field, coeffs=()):
        """From coefficients lowest degree first, elements of field or ints,
        or from an (n, k) integer array of their digits, taken mod p."""
        if isinstance(coeffs, np.ndarray):
            if coeffs.dtype.kind not in "iu" or coeffs.ndim != 2 or coeffs.shape[1] != field.k:
                raise ValueError(f"polynomial digits must be an integer (n, {field.k}) array")
            digits = coeffs.astype(np.int64, copy=False) % field.p
        else:
            rows = [field(c).digits for c in coeffs]
            digits = np.array(rows, dtype=np.int64).reshape(len(rows), field.k)
        self.field, self.digits = field, _trimmed(digits)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def x(field: Field) -> "Poly":
        return _poly(field, np.array([field.zero.digits, field.one.digits], dtype=np.int64))

    @staticmethod
    def constant(field: Field, c) -> "Poly":
        return _poly(field, np.array([field(c).digits], dtype=np.int64))

    # -- basic queries --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        """The coefficients as elements, lowest degree first, built on read."""
        return self.field.element_rows(self.digits[None])[0]

    def degree(self) -> int:
        return len(self.digits) - 1

    def is_zero(self) -> bool:
        return not len(self.digits)

    def __bool__(self) -> bool:
        return bool(len(self.digits))

    def leading(self) -> FieldElement:
        if not len(self.digits):
            raise ValueError("zero polynomial has no leading coefficient")
        return _element(self.field, self.digits[-1])

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.digits, other.digits
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return _poly(self.field, out % self.field.p)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return _poly(self.field, -self.digits % self.field.p)

    def __mul__(self, other):
        field = self.field
        if isinstance(other, (FieldElement, int)):
            times = _times(field, field(other).digits)
            return _poly(field, self.digits @ times % field.p)
        if not len(self.digits) or not len(other.digits):
            return Poly(field)
        return _poly(field, _product(field, self.digits, other.digits))

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        """Long division by the digits of other made monic: one mat-vec per
        quotient term."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field, p, k, d = self.field, self.field.p, self.field.k, other.degree()
        n = len(self.digits) - d  # terms of the quotient
        if n <= 0:
            return _poly(field, np.zeros((0, k), dtype=np.int64)), self
        lower, lead = other.digits[:-1], other.leading()
        monic = lead == field.one
        if not monic:
            inverse = _times(field, lead.inverse().digits)
            lower = lower @ inverse % p
        # row c of times_lower is c times the lower terms of the monic divisor
        times_lower = (lower @ field.multiplication % p).reshape(k, d * k)
        rem, q = self.digits.copy(), np.empty((n, k), dtype=np.int64)
        for shift in range(n - 1, -1, -1):
            q[shift] = c = rem[shift + d]
            rem[shift : shift + d] -= (c @ times_lower).reshape(d, k)
            rem[shift : shift + d] %= p
        if not monic:
            q = q @ inverse % p
        return _poly(field, q), _poly(field, rem[:d])

    # -- identity -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and np.array_equal(self.digits, other.digits)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.digits.tobytes()))

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


def _nonzero_tails(tails: dict) -> dict:
    """The digit arrays of tails trimmed and read-only, the empty ones dropped."""
    trimmed = {e: _trimmed(digits) for e, digits in tails.items()}
    return {e: digits for e, digits in trimmed.items() if len(digits)}


def _partial_fraction(poly: Poly, tails: dict) -> "PartialFraction":
    """The PartialFraction of poly and tails, reduced (n, k) digit arrays,
    kept without a copy."""
    pf = object.__new__(PartialFraction)
    pf.poly, pf.tail_digits = poly, _nonzero_tails(tails)
    return pf


class PartialFraction:
    """poly_part + sum over finite poles e of sum_n tails[e][n] * (x-e)^(-n),
    each principal part stored as digits (see the module docstring)."""

    __slots__ = ("poly", "tail_digits")

    def __init__(self, poly: Poly, tails=None):
        """tails maps each pole e to {n: c_n}, n >= 1 and c_n an element of
        the field of poly or an int."""
        field, digits = poly.field, {}
        for e, tail in (tails or {}).items():
            if min(tail, default=1) < 1:
                raise ValueError("principal part orders must be >= 1")
            digits[e] = np.zeros((max(tail, default=0), field.k), dtype=np.int64)
            for n, c in tail.items():
                digits[e][n - 1] = field(c).digits
        self.poly, self.tail_digits = poly, _nonzero_tails(digits)

    @property
    def field(self) -> Field:
        return self.poly.field

    @property
    def tails(self) -> dict[FieldElement, dict[int, FieldElement]]:
        """{e: {n: c_n}} with the zero c_n dropped, built on read."""
        rows = self.field.element_rows
        return {e: {n: c for n, c in enumerate(rows(digits[None])[0], 1) if c}
                for e, digits in self.tail_digits.items()}

    def is_zero(self) -> bool:
        return self.poly.is_zero() and not self.tail_digits

    # -- multiplication -------------------------------------------------------

    def __mul__(self, other: "PartialFraction") -> "PartialFraction":
        """The product, as one unreduced fraction decomposed at the poles of both."""
        (num, den), (other_num, other_den) = self._fraction(), other._fraction()
        poles = self.tail_digits.keys() | other.tail_digits.keys()
        return partial_fractions((num * other_num, den * other_den), candidates=poles)

    def _fraction(self) -> tuple[Poly, Poly]:
        """This decomposition as an unreduced pair (num, den), den the product
        of (x-e)^nmax over its poles e, nmax the top order there."""
        field = self.field
        num, den = self.poly, Poly.constant(field, 1)
        for e, digits in self.tail_digits.items():
            lin = Poly.x(field) - Poly.constant(field, e)
            # sum_n c_n (x-e)^(nmax-n) by Horner from c_1, over (x-e)^nmax
            part, power = _poly(field, digits[:1]), lin
            for n in range(1, len(digits)):
                part = part * lin + _poly(field, digits[n : n + 1])
                power = power * lin
            num, den = num * power + part * den, den * power
        return num, den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialFraction)
            and self.poly == other.poly
            and self.tail_digits.keys() == other.tail_digits.keys()
            and all(np.array_equal(digits, other.tail_digits[e])
                    for e, digits in self.tail_digits.items())
        )

    def __repr__(self) -> str:
        parts = [] if self.poly.is_zero() else [repr(self.poly)]
        tails = self.tails
        for e in sorted(tails, key=lambda v: v.counter()):
            for n in sorted(tails[e]):
                parts.append(f"{tails[e][n]!r}/(x-{e!r})^{n}")
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
    field, p, k = den.field, den.field.p, den.field.k

    # the multiplicity n of each candidate root e, and hat = den/(x-e)^n, by
    # synthetic divisions of den; a candidate that is no root costs one,
    # whose remainder is the value there
    roots: dict[FieldElement, tuple[int, np.ndarray, np.ndarray]] = {}
    found = 0
    for e in candidates:
        if found == den.degree():
            break
        if e in roots:
            continue
        times, hat, n = _times(field, e.digits), den.digits, 0
        while len(hat) > 1:
            q, r = _divide_linear(hat, times, p)
            if any(r.tolist()):
                break
            hat, n = q, n + 1
        if n:
            roots[e] = n, times, hat
            found += n
    if found < den.degree():
        raise IrreducibleDenominatorFactor(den.degree() - found)

    tails: dict[FieldElement, np.ndarray] = {}
    for e, (n, times, hat) in roots.items():
        # the series rem/hat = a/b at e, to n terms
        a, b = _taylor(rem.digits, times, p, n), _taylor(hat, times, p, n)
        b0_inverse = _times(field, _element(field, b[0]).inverse().digits)
        if n > 1:  # times_b[t] is the multiplication matrix of b_t
            times_b = (b @ field.multiplication % p).transpose(1, 0, 2)
        g = np.empty((n, k), dtype=np.int64)
        for s in range(n):
            # g_s = (a_s - sum_(0<t<=s) b_t g_(s-t)) / b_0
            known = g[s - 1 :: -1].ravel() @ times_b[1 : s + 1].reshape(s * k, k) if s else 0
            g[s] = (a[s] - known) % p @ b0_inverse % p
        tails[e] = g[::-1]  # g_s is the coefficient of (x-e)^-(n-s)
    return _partial_fraction(poly_part, tails)
