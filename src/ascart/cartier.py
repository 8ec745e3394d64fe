"""The Cartier operator on regular 1-forms of y^p - y = f(x).

The operator C is 1/p-semilinear, kills exact forms, fixes logarithmic
differentials, and on the rational function field acts coefficientwise:

    C(x^i dx)        = x^((i+1)/p - 1) dx   if p divides i+1, else 0,
    C((x-e)^-n dx)   = (x-e)^(-(n-1)/p - 1) dx  if n = 1 mod p, else 0,

with a p-th root applied to each coefficient.  On a basis form x_j^b y^r dx
the computation substitutes y^r = (y^p - f)^r and expands binomially,

    C(x_j^b y^r dx) = sum_e (-1)^e C(r,e) y^(r-e) C(x_j^b f^e dx),

which regroups the multinomial expansion over the individual principal
parts of f into powers of f itself and avoids enumerating tuples.  So the
g images C(x_j^b f^e dx), one per basis form x_j^b y^e dx, written in the
D_0 level-0 forms x_l^n dx, fix the matrix: M[(l,n,y),(j,b,r)] is
(-1)^(r-y) C(r, r-y) times the coefficient of x_l^n dx in image
(j, b, r-y) for y <= r, and 0 for y > r.  Since r <= p-2 for every basis
form, the signs are units; their table (_signs) is the lift's alone.

Two pipelines compute the images as a (D_0, g, k) block and never share
reduction code, so each serves as an oracle for the other: rational
(ascart.rational), which amplifies x_j^b f^e to a p-th power denominator
and decomposes the quotient, and local (ascart.local), which reads the
principal part of x_j^b f^e off its Laurent series at each pole.  Neither
imports the other, nor this module, which alone applies the regrouping.

The output is the matrix only, cartier_matrix, the one gate of both
pipelines (one size check, check_digit_cap, the g = 0 case, and the lift
of the images to the matrix; a spec is valid once built): a column is the
coordinate vector of C(omega_j) in the ordered basis, and entry (i, j) is
the coefficient of omega_i in C(omega_j).  support(p, orders) is the
pattern of the entries any curve of a family can make nonzero;
cartier_poly, the polynomial rule, is re-exported from its pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .curve import (BasisForm, CurveSpec, ordered_basis,
                    validate)  # noqa: F401 (validate kept as ascart.cartier.validate)
from .errors import NotInSpan, SeriesTooLarge
from .finite_field import Field, FieldElement
from .local import image_support, local_matrix
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
    pipelines, made before anything is built.  Under it the gate's arrays,
    the matrix and its lift (_lift), have O(g^2 * k) entries and the block
    of images O(g * D_0 * k); as p - 1 <= 2g <= 2048 (g = D*(p-1)/2, D >= 1),
    the lift's int32 indices stay below g^2 <= 2^20 and its products of a
    digit and a sign below 2^22.  The local pipeline derives its own bounds
    with its sums (local_matrix, _powers)."""
    if g**2 * field.k > _MAX_DIGITS:
        raise SeriesTooLarge(f"Cartier matrix of genus {g} over {field} exceeds "
                             f"the {_MAX_DIGITS}-digit cap on g^2*k")


def _signs(p: int, e_max: int) -> np.ndarray:
    """sign[r, e] = (-1)^e C(r, e) mod p for r, e <= e_max, by Pascal's rule:
    the coefficient of y^(r-e) C(x_j^b f^e dx) in C(x_j^b y^r dx)."""
    sign = np.zeros((e_max + 1, e_max + 1), dtype=np.int32)
    sign[:, 0] = 1
    for r in range(1, e_max + 1):
        sign[r, 1:] = (sign[r - 1, 1:] - sign[r - 1, :-1]) % p
    return sign


@functools.lru_cache(maxsize=64)
def _lift(p: int, orders) -> tuple:
    """The regrouping for the ordered basis of (p, orders), g >= 1, as one
    gather: entry (l,n,y),(j,b,r) of the flat (g*g, k) matrix is coef times
    row src, (l,n),(j,b,r-y), of the flat (D_0*g, k) block of images, with
    coef = (-1)^(r-y) C(r, r-y) mod p for y <= r, and 0 for y > r, both
    int32 (check_digit_cap).  refused are the rows of the block that a
    column x_j^b y^r dx lifts past every form x_l^n y^y dx, and beyond the
    first monomial past each x_l^n dx."""
    forms = ordered_basis(p, orders)
    js, bs, rs = np.array(forms).T
    g, d0 = len(forms), int((rs == 0).sum())  # the level-0 forms come first
    # at[j, b, r]: position of x_j^b y^r dx in the basis, -1 outside it
    at = np.full((len(orders), bs.max() + 1, rs.max() + 1), -1, dtype=np.int32)
    at[js, bs, rs] = np.arange(g)
    top = (at[js, bs] >= 0).sum(axis=1) - 1
    e = rs - rs[:, None]  # row (l,n,y) reads column (j,b,r)'s image e = r - y
    live, e = e >= 0, np.maximum(e, 0)
    src = np.where(live, at[js, bs, 0][:, None] * g + at[js, bs, e], 0).ravel()
    coef = np.where(live, _signs(p, rs.max())[rs, e], 0).reshape(-1, 1)
    refused = np.flatnonzero(top - rs > top[:d0, None])
    for table in (src, coef, refused):
        table.setflags(write=False)  # shared by every curve with these orders
    beyond = tuple(BasisForm(j, b, t + 1) for (j, b, _), t in zip(forms[:d0], top.tolist()))
    return src, coef, refused, beyond


def support(p: int, orders) -> np.ndarray:
    """The g x g entries that the Cartier matrix of a curve with these pole
    orders can make nonzero, as a read-only boolean pattern: the lift of
    the entries of the images that the local layout reads
    (local.image_support); (0, 0) at g = 0.  Every other entry is 0 by
    construction, so the term rank of the pattern bounds the rank of every
    curve of the family."""
    reads = image_support(p, orders)
    if not reads.size:  # genus 0: no forms, nothing to lift
        return reads
    src, coef, *_ = _lift(p, tuple(orders))
    out = (reads.ravel().take(src) & (coef[:, 0] > 0)).reshape(reads.shape[1], -1)
    out.setflags(write=False)
    return out


def cartier_matrix(spec: CurveSpec, pipeline: str = "local") -> CartierMatrix:
    """The full matrix of the Cartier operator, by either pipeline.

    The one gate of both pipelines: it reads the invariants the spec took
    when it was built, and the digit cap (check_digit_cap) is its only size
    check, before anything is built.  At g = 0 neither pipeline runs.  One
    gather (_lift) writes the matrix from the pipeline's block of images,
    after one guard: a nonzero image coefficient that a column would lift
    outside the basis is a bug, NotInSpan, never a wrong matrix.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
    field, inv = spec.field, spec.invariants
    g, k = inv.g, field.k
    check_digit_cap(g, field)
    if not g:
        return CartierMatrix(field, (), np.zeros((0, 0, k), dtype=np.int64))
    build = local_matrix if pipeline == "local" else rational_matrix
    forms, images = build(spec, inv.orders)
    src, coef, refused, beyond = _lift(field.p, inv.orders)
    flat = images.reshape(-1, k)
    stray = flat.take(refused, axis=0)
    if stray.any():
        form = beyond[refused[stray.any(axis=1).argmax()] // g]
        raise NotInSpan(f"monomial {form.label()} falls outside the basis")
    digits = flat.astype(np.int32).take(src, axis=0)  # int32: exact (check_digit_cap)
    np.multiply(digits, coef, out=digits)
    return CartierMatrix(field, forms, np.remainder(digits, field.p, out=digits).reshape(g, g, k))
