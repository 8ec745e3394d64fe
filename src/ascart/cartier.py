"""The Cartier operator on regular 1-forms of y^p - y = f(x).

The operator C is 1/p-semilinear, kills exact forms, fixes logarithmic
differentials, and on the rational function field acts coefficientwise:

    C(x^i dx)        = x^((i+1)/p - 1) dx   if p divides i+1, else 0,
    C((x-e)^-n dx)   = (x-e)^(-(n-1)/p - 1) dx  if n = 1 mod p, else 0,

with a p-th root applied to each coefficient.  On a basis form x_j^b y^r dx
the computation substitutes y^r = (y^p - f)^r and expands binomially,

    C(x_j^b y^r dx) = sum_e (-1)^e C(r,e) y^(r-e) C(x_j^b f^e dx),

which regroups the multinomial expansion over the individual principal
parts of f into powers of f itself and avoids enumerating tuples.  Since
r <= p-2 for every basis form, all the binomial coefficients are units;
both pipelines read them from one table of signs mod p
(curve.binomial_signs).

Two pipelines reduce the inner C(g dx) for rational g and never share
reduction code, so each serves as an oracle for the other: rational
(ascart.rational), which amplifies g to a p-th power denominator and
decomposes the quotient, and local (ascart.local), which reads the
principal part of g off its Laurent series at each pole.  Neither imports
the other, nor this module.

The output is the matrix only, cartier_matrix, the one gate of both
pipelines (one validation, one size check, check_digit_cap, the g = 0
case): a column is the coordinate vector of C(omega_j) in the ordered
basis, and entry (i, j) is the coefficient of omega_i in C(omega_j).
cartier_poly, the polynomial rule, and support(p, orders), the pattern of
the entries the local layout reads, are re-exported from their pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import BasisForm, CurveSpec, validate
from .errors import SeriesTooLarge
from .finite_field import Field, FieldElement
from .local import local_matrix, support
from .rational import cartier_poly, rational_matrix

PIPELINES = ("rational", "local")
_MAX_DIGITS = 2**20  # on g^2 * k, the digits of a Cartier matrix


@dataclass(frozen=True, eq=False, init=False, repr=False)
class CartierMatrix:
    """Matrix of the Cartier operator in the ordered basis.

    Column j holds the coordinates of C(omega_j): entry (i, j) is the
    coefficient of omega_i.  The constructor takes the matrix as digits, a
    (g, g, k) integer array, each digit in [0, p), and keeps only a private
    read-only int64 copy; equality and hashing read it.  Rows of field
    elements as digits are refused.  entries is the view that builds exact
    field elements from the digits on each read.  The keyword entries takes
    rows of elements of field in place of digits, only so that the
    benchmark's tests can edit a matrix with dataclasses.replace(M, entries=rows).
    """

    field: Field
    basis: tuple[BasisForm, ...]
    digits: np.ndarray

    def __init__(self, field: Field, basis: tuple[BasisForm, ...],
                 digits: np.ndarray | None = None, *, entries=None):
        g = len(basis)
        if entries is not None:
            flat = [c for row in entries for c in row]
            if any(c.field != field for c in flat):
                raise ValueError(f"matrix entries must lie in {field}")
            digits = field.digit_array(flat)
            if len(digits) == g * g:
                digits = digits.reshape(g, g, field.k)
        if not isinstance(digits, np.ndarray):
            raise ValueError(f"matrix digits must be an integer array, "
                             f"not {type(digits).__name__}")
        if digits.dtype.kind not in "iu":
            raise ValueError(f"matrix digits must be integers, not {digits.dtype}")
        digits = digits.astype(np.int64)  # a copy: no alias of the input can change it
        if digits.shape != (g, g, field.k):
            raise ValueError(f"a basis of {g} forms needs a {g} x {g} matrix "
                             f"of {field.k}-digit entries")
        if digits.size and not 0 <= digits.min() <= digits.max() < field.p:
            raise ValueError(f"matrix digits must lie in [0, {field.p})")
        digits.setflags(write=False)
        for name, value in ("field", field), ("basis", basis), ("digits", digits):
            object.__setattr__(self, name, value)  # the dataclass is frozen

    @property
    def entries(self) -> tuple[tuple[FieldElement, ...], ...]:
        return self.field.element_rows(self.digits)

    def __repr__(self) -> str:
        return (f"CartierMatrix(field={self.field!r}, basis={self.basis!r}, "
                f"entries={self.entries!r})")

    def _key(self) -> tuple:
        return self.field, self.basis, self.digits.tobytes()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "basis": [list(form) for form in self.basis],
            "entries": self.digits.reshape(-1, self.field.k).tolist(),
        }

    @staticmethod
    def from_json(data: dict) -> "CartierMatrix":
        field = Field.from_json(data["field"])
        forms = []
        for form in data["basis"]:
            if not (isinstance(form, (list, tuple)) and len(form) == 3
                    and all(type(v) is int and v >= 0 for v in form)):
                raise ValueError(f"basis form {form!r} is not three non-negative ints")
            forms.append(BasisForm(*form))
        if len(set(forms)) != len(forms):
            raise ValueError("basis lists a form twice")
        forms = tuple(forms)
        g = len(forms)
        # the raw digits, so the constructor's checks cover them too
        flat = np.array(data["entries"] or np.zeros((0, field.k), dtype=np.int64))
        if len(flat) != g * g:
            raise ValueError("entry count does not match basis size")
        return CartierMatrix(field, forms, flat.reshape(g, g, *flat.shape[1:]))


def check_digit_cap(g: int, field: Field) -> None:
    """Refuse a Cartier matrix of genus g over field past the digit cap,
    g^2 * k <= 2^20, with SeriesTooLarge: the only size check of both
    pipelines, made before anything is built.  Every dense array has
    O(g^2 * k) entries, since e_max + 1 <= g and the series, read-sized,
    have at most N = (p-1)*d_l + 1 <= 4g + 1 terms.  As p - 1 <= 2g for
    g >= 1, the local pipeline's int64 sums stay below
    N*k*(p-1)^2 <= (4g + 1)*4*2^20 < 2^35, and its powers' unreduced folds
    below (2k-1)*N*k*(p-1)^3 < 2k^2*(4g + 1)*8g^3
    <= 64*(g^2*k)^2 + 16*(g^2*k)^2 < 2^47."""
    if g**2 * field.k > _MAX_DIGITS:
        raise SeriesTooLarge(f"Cartier matrix of genus {g} over {field} exceeds "
                             f"the {_MAX_DIGITS}-digit cap on g^2*k")


def cartier_matrix(spec: CurveSpec, pipeline: str = "local") -> CartierMatrix:
    """The full matrix of the Cartier operator, by either pipeline.

    The one gate of both pipelines: the curve is validated once, and the
    digit cap (check_digit_cap) is its only size check, before anything is
    built.  At g = 0 neither pipeline runs.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
    field, inv = spec.field, validate(spec)
    check_digit_cap(inv.g, field)
    if not inv.g:
        return CartierMatrix(field, (), np.zeros((0, 0, field.k), dtype=np.int64))
    build = local_matrix if pipeline == "local" else rational_matrix
    forms, digits = build(spec, inv.orders)
    return CartierMatrix(field, forms, digits)
