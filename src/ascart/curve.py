"""Artin-Schreier curves y^p - y = f(x) given by pole data.

A curve is described by its field and one PoleDatum per pole of f: the
location (infinity first, then finite points e_j) and the coefficients of
the principal part there.  For the pole at infinity the coefficients are
those of the polynomial part f_0(x), degrees 0..d_0 (a constant term is
allowed and retained; it never changes the basis or the Cartier matrix but
does change point counts).  For a finite pole they are the coefficients of
f_j(x_j) in x_j = (x - e_j)^(-1), degrees 1..d_j, so a constant term cannot
occur in well-formed data.

A CurveSpec is valid by construction: building one calls validate(), which
checks the normal form (every element in the curve's field, pole orders
prime to p, nonzero leading coefficients, distinct locations, infinity
present and listed first) and returns the numeric invariants, kept as
spec.invariants: D, L, the genus g = D(p-1)/2, the p-rank s = m(p-1), and,
when p = 1 mod L, the slopes gamma_j = (p-1)/d_j.  validate() on a built
spec reads them back.  order_invariants() is the half that (p, orders)
alone decide.

basis() enumerates the monomial basis of regular 1-forms, and
ordered_basis() that of every curve with given p and pole orders: blocks
W_j of forms x_j^b y^r dx subject to

    j = 0:   r, b >= 0      and  r*d_0 + b*p <= (p-1)*(d_0 - 1) - 2
    j >= 1:  r >= 0, b >= 1 and  r*d_j + b*p <= (p-1)*(d_j + 1)

sorted by r, then pole index, then b.  Block j has (d_j + eps_j)*(p-1)/2
elements, eps_0 = -1 and eps_j = 1 otherwise, so the total is the genus.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DuplicatePoleLocation,
    ForeignElement,
    MissingInfinitePole,
    PoleOrderDivisibleByP,
    ZeroLeadingCoefficient,
)
from .finite_field import Field, FieldElement


class Infinity:
    """The distinguished pole location at infinity (a singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = Infinity()


@dataclass(frozen=True)
class PoleDatum:
    """One pole of f: its location and the principal-part coefficients.

    coeffs covers degrees 0..d at infinity and degrees 1..d at a finite
    pole; the top entry is the leading coefficient u_j.
    """

    location: FieldElement | Infinity
    coeffs: tuple[FieldElement, ...]

    @staticmethod
    def at_infinity(field: Field, coeffs) -> "PoleDatum":
        return PoleDatum(INF, tuple(field(c) for c in coeffs))

    @staticmethod
    def finite(field: Field, location, coeffs) -> "PoleDatum":
        """Principal part at a finite pole, coefficients of degrees 1..d."""
        return PoleDatum(field(location), tuple(field(c) for c in coeffs))

    @property
    def is_infinite(self) -> bool:
        return isinstance(self.location, Infinity)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1 if self.is_infinite else len(self.coeffs)

    @property
    def leading(self) -> FieldElement:
        return self.coeffs[-1]


@dataclass(frozen=True)
class CurveSpec:
    """y^p - y = f(x) with f given pole by pole, infinity first, validated
    when built; invariants keeps validate's result, outside ==, hash and repr."""

    field: Field
    poles: tuple[PoleDatum, ...]
    invariants: CurveInvariants = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "invariants", validate(self))

    @property
    def p(self) -> int:
        return self.field.p


@dataclass(frozen=True)
class CurveInvariants:
    """Numeric invariants of a validated curve."""

    orders: tuple[int, ...]
    m: int
    D: int
    L: int
    g: int
    s: int
    epsilon: tuple[int, ...]
    gamma: tuple[int, ...] | None
    theorem_applicable: bool

    def to_json(self) -> dict:
        return {
            "orders": list(self.orders),
            "m": self.m,
            "D": self.D,
            "L": self.L,
            "genus": self.g,
            "p_rank": self.s,
            "epsilon": list(self.epsilon),
            "gamma": None if self.gamma is None else list(self.gamma),
            "theorem_applicable": self.theorem_applicable,
        }


def validate(spec: CurveSpec) -> CurveInvariants:
    """Check the normal form and return the curve's numeric invariants;
    CurveSpec calls it once, when the spec is built, and on a built spec it
    returns the kept spec.invariants without reading the pole data again."""
    kept = vars(spec).get("invariants")
    if kept is not None:
        return kept
    if not spec.poles or not spec.poles[0].is_infinite:
        raise MissingInfinitePole("the first pole must be at infinity; substitute "
                                  "x -> e + 1/x to move a pole e of f there")
    seen: set = set()
    for datum in spec.poles[1:]:
        if datum.is_infinite:
            raise DuplicatePoleLocation("infinity listed more than once")
        if datum.location in seen:
            raise DuplicatePoleLocation(f"two poles at {datum.location!r}")
        seen.add(datum.location)
    return order_invariants(spec.p, _orders(spec))


def _orders(spec: CurveSpec):
    """Each pole's order once its elements pass, yielded as order_invariants reads it."""
    field = spec.field
    for j, datum in enumerate(spec.poles):
        for c in datum.coeffs if datum.is_infinite else (datum.location, *datum.coeffs):
            if c.field is not field and c.field != field:  # GF shares fields: `is` first
                raise ForeignElement(f"pole {j}: {c!r} does not lie in {field!r} "
                                     f"(modulus {field.modulus})")
        if datum.is_infinite and datum.order < 1:
            raise MissingInfinitePole("f is regular at infinity; substitute x -> e + 1/x "
                                      "to move a pole e of f there")
        if not datum.coeffs or datum.leading.is_zero():
            raise ZeroLeadingCoefficient(f"pole {j}: leading coefficient is zero")
        yield datum.order


def order_invariants(p: int, orders) -> CurveInvariants:
    """The numeric invariants of every curve in characteristic p with these
    pole orders, infinity first; PoleOrderDivisibleByP at the first order
    that p divides."""
    checked = []
    for j, d in enumerate(orders):
        if d % p == 0:
            raise PoleOrderDivisibleByP(f"pole {j} has order {d} divisible by p={p}")
        checked.append(d)
    m = len(checked) - 1
    D = sum(d + 1 for d in checked) - 2
    L = math.lcm(*checked)
    applicable = (p - 1) % L == 0
    return CurveInvariants(
        orders=tuple(checked), m=m, D=D, L=L, g=D * (p - 1) // 2, s=m * (p - 1),
        epsilon=tuple(-1 if j == 0 else 1 for j in range(m + 1)),
        gamma=tuple((p - 1) // d for d in checked) if applicable else None,
        theorem_applicable=applicable,
    )


class BasisForm(NamedTuple):
    """The regular 1-form x_j^b y^r dx (x_0 = x, x_j = 1/(x - e_j))."""

    j: int
    b: int
    r: int

    def label(self) -> str:
        parts = []
        if self.j == 0:
            if self.b:
                parts.append("x" if self.b == 1 else f"x^{self.b}")
        else:
            parts.append(f"x{self.j}" if self.b == 1 else f"x{self.j}^{self.b}")
        if self.r:
            parts.append("y" if self.r == 1 else f"y^{self.r}")
        return " ".join(parts + ["dx"])


def order_key(form: BasisForm) -> tuple[int, int, int]:
    """Sort key realizing the basis order: by r, then pole index, then b."""
    return (form.r, form.j, form.b)


def basis(spec: CurveSpec) -> list[BasisForm]:
    """The full ordered basis of regular 1-forms; its length is the genus."""
    return ordered_basis(spec.p, spec.invariants.orders)


def ordered_basis(p: int, orders) -> list[BasisForm]:
    """basis() of every curve in characteristic p with these pole orders."""
    forms = []
    for j, d in enumerate(orders):
        # W_j is r*d + b*p <= bound
        bound = (p - 1) * (d - 1) - 2 if j == 0 else (p - 1) * (d + 1)
        b = 0 if j == 0 else 1
        while b * p <= bound:
            forms.extend(BasisForm(j, b, r) for r in range((bound - b * p) // d + 1))
            b += 1
    forms.sort(key=order_key)
    return forms

