"""The Cartier operator on regular 1-forms of y^p - y = f(x).

The operator C is 1/p-semilinear, kills exact forms, fixes logarithmic
differentials, and on the rational function field acts coefficientwise:

    C(x^i dx)        = x^((i+1)/p - 1) dx   if p divides i+1, else 0,
    C((x-e)^-n dx)   = (x-e)^(-(n-1)/p - 1) dx  if n = 1 mod p, else 0,

with a p-th root applied to each coefficient.  On a basis form x_j^b y^r dx
the computation substitutes y^r = (y^p - f)^r and expands binomially,

    C(x_j^b y^r dx) = sum_i (-1)^(r-i) C(r,i) y^i C(x_j^b f^(r-i) dx),

which regroups the multinomial expansion over the individual principal
parts of f into powers of f itself and avoids enumerating tuples.  Since
r <= p-2 for every basis form, all the binomial coefficients are units.

Two pipelines reduce the inner C(g dx) for rational g and never share
reduction code, so each serves as an oracle for the other:

  * rational -- write g = (num * den^(p-1)) / den^p, apply the polynomial
    rule to the amplified numerator, divide by den (cartier_rational);
  * local -- decompose g into partial fractions and apply the polynomial
    and pole rules term by term (cartier_local).

A matrix column is the coordinate vector of C(omega_j) in the ordered
basis; entry (i, j) is the coefficient of omega_i in C(omega_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve import (
    BasisForm,
    CurveSpec,
    basis,
    in_basis,
    partition_HA,
    validate,
)
from .errors import ConditionNotSatisfied, IrreducibleDenominatorFactor, NotInH, NotInSpan
from .finite_field import Field, FieldElement
from .ratfunc import PartialFraction, Poly, RatFunc, partial_fractions

PIPELINES = ("rational", "local")


# ---------------------------------------------------------------------------
# The operator on polynomials, rational functions and partial fractions
# ---------------------------------------------------------------------------


def cartier_poly(g: Poly) -> Poly:
    """C(g dx) for polynomial g: keep degrees = -1 mod p, take p-th roots."""
    p = g.field.p
    out = [
        g.coeff(a * p + p - 1).pth_root() for a in range(g.degree() // p + 2)
    ]
    return Poly(g.field, out)


def cartier_rational(g: RatFunc) -> RatFunc:
    """C(g dx) via denominator amplification: g = num*den^(p-1) / den^p."""
    p = g.field.p
    amplified = g.num * g.den ** (p - 1)
    return RatFunc(cartier_poly(amplified), g.den)


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


# ---------------------------------------------------------------------------
# Binomial regrouping of the y^r substitution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionTerm:
    """One term of the regrouped expansion of C(x_j^b y^r dx)."""

    y_power: int  # surviving power of y
    coefficient: int  # (-1)^(r - y_power) * binom(r, y_power) mod p
    f_power: int  # power of f inside the inner Cartier image


@dataclass(frozen=True)
class CartierExpansion:
    r: int
    terms: tuple[ExpansionTerm, ...]


def binomial_expansion(r: int, p: int) -> CartierExpansion:
    """Terms of (y^p - f)^r grouped by the surviving power of y.

    Requires r <= p-2, which every basis form satisfies; under that bound
    every binomial coefficient is nonzero mod p.
    """
    if r > p - 2:
        raise ValueError(f"y-power {r} exceeds p-2 = {p - 2}")
    terms = []
    for i in range(r + 1):
        c = math.comb(r, i) % p
        if (r - i) % 2:
            c = (-c) % p
        terms.append(ExpansionTerm(i, c, r - i))
    return CartierExpansion(r, tuple(terms))


class MixedDifferential:
    """sum_r g_r(x) y^r dx with rational coefficients g_r."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict[int, RatFunc] | None = None):
        self.field = field
        self.terms = {r: g for r, g in (terms or {}).items() if not g.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, r: int) -> RatFunc:
        return self.terms.get(r, RatFunc(Poly(self.field)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MixedDifferential)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [
            f"({self.terms[r]!r})" + ("" if r == 0 else f" y^{r}")
            for r in sorted(self.terms)
        ]
        return " + ".join(parts) + " dx"


# ---------------------------------------------------------------------------
# Engine: cached powers of f and Cartier images of x_j^b f^e dx
# ---------------------------------------------------------------------------


class _Engine:
    """Per-curve caches shared by all columns of one matrix computation."""

    def __init__(self, spec: CurveSpec):
        self.spec = spec
        self.inv = validate(spec)
        self.field = spec.field
        self.forms = basis(spec)
        self.index = {form: i for i, form in enumerate(self.forms)}
        self.loc_to_j = _pole_index_map(spec)
        self._pow_rat: dict[int, RatFunc] = {}
        self._pow_pf: dict[int, PartialFraction] = {}
        self._c_rat: dict[tuple[int, int, int], RatFunc] = {}
        self._c_pf: dict[tuple[int, int, int], PartialFraction] = {}

    # powers of f in both representations

    def f_power_rat(self, e: int) -> RatFunc:
        if e not in self._pow_rat:
            if e == 0:
                self._pow_rat[0] = RatFunc(Poly.constant(self.field, 1))
            else:
                self._pow_rat[e] = self.f_power_rat(e - 1) * self._f_rat()
        return self._pow_rat[e]

    def _f_rat(self) -> RatFunc:
        if 1 not in self._pow_rat:
            self._pow_rat[1] = self.spec.f_ratfunc()
        return self._pow_rat[1]

    def f_power_pf(self, e: int) -> PartialFraction:
        if e not in self._pow_pf:
            if e == 0:
                self._pow_pf[0] = PartialFraction(Poly.constant(self.field, 1))
            elif e == 1:
                self._pow_pf[1] = self.spec.f_partial_fraction()
            else:
                self._pow_pf[e] = self.f_power_pf(e - 1) * self.f_power_pf(1)
        return self._pow_pf[e]

    # C(x_j^b f^e dx), cached per (j, b, e)

    def c_monomial_rat(self, j: int, b: int, e: int) -> RatFunc:
        key = (j, b, e)
        if key not in self._c_rat:
            g = self.f_power_rat(e)
            if j == 0:
                g = g * RatFunc(Poly.monomial(self.field, b))
            else:
                loc = self.spec.poles[j].location
                lin = Poly.x(self.field) - Poly.constant(self.field, loc)
                g = g * RatFunc(Poly.constant(self.field, 1), lin**b)
            self._c_rat[key] = cartier_rational(g)
        return self._c_rat[key]

    def c_monomial_pf(self, j: int, b: int, e: int) -> PartialFraction:
        key = (j, b, e)
        if key not in self._c_pf:
            g = self.f_power_pf(e)
            if j == 0:
                if b:
                    g = g * PartialFraction(Poly.monomial(self.field, b))
            else:
                loc = self.spec.poles[j].location
                mono = PartialFraction(Poly(self.field), {loc: {b: self.field.one}})
                g = g * mono
            self._c_pf[key] = cartier_local(g)
        return self._c_pf[key]

    # full Cartier image of a basis form

    def image_rational(self, form: BasisForm) -> MixedDifferential:
        terms: dict[int, RatFunc] = {}
        for t in binomial_expansion(form.r, self.field.p).terms:
            g = self.c_monomial_rat(form.j, form.b, t.f_power) * self.field(
                t.coefficient
            )
            if not g.is_zero():
                terms[t.y_power] = g
        return MixedDifferential(self.field, terms)

    def image_local(self, form: BasisForm) -> dict[int, PartialFraction]:
        layers: dict[int, PartialFraction] = {}
        for t in binomial_expansion(form.r, self.field.p).terms:
            pf = self.c_monomial_pf(form.j, form.b, t.f_power).scale(
                self.field(t.coefficient)
            )
            if not pf.is_zero():
                layers[t.y_power] = pf
        return layers


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def cartier_basis_form(
    spec: CurveSpec, form: BasisForm, pipeline: str = "rational"
) -> MixedDifferential:
    """C applied to one basis form, as a differential sum_i g_i y^i dx."""
    _check_pipeline(pipeline)
    engine = _Engine(spec)
    if not in_basis(spec.p, engine.inv.orders, form):
        raise ValueError(f"{form} is not a basis form of this curve")
    if pipeline == "rational":
        return engine.image_rational(form)
    layers = engine.image_local(form)
    return MixedDifferential(
        spec.field, {i: pf.assemble() for i, pf in layers.items()}
    )


def _check_pipeline(pipeline: str) -> None:
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")


def _pole_index_map(spec: CurveSpec) -> dict:
    return {datum.location: j for j, datum in enumerate(spec.poles) if j >= 1}


def _accumulate_layer(
    pf: PartialFraction,
    r: int,
    index: dict[BasisForm, int],
    loc_to_j: dict,
    vec: list[FieldElement],
) -> None:
    for bdeg, c in enumerate(pf.poly.coeffs):
        if c.is_zero():
            continue
        key = BasisForm(0, bdeg, r)
        if key not in index:
            raise NotInSpan(f"monomial {key.label()} falls outside the basis")
        vec[index[key]] = vec[index[key]] + c
    for e, tail in pf.tails.items():
        j = loc_to_j.get(e)
        if j is None:
            raise NotInSpan(f"pole at {e!r} is not a pole of the curve")
        for n, c in tail.items():
            key = BasisForm(j, n, r)
            if key not in index:
                raise NotInSpan(f"monomial {key.label()} falls outside the basis")
            vec[index[key]] = vec[index[key]] + c


def _accumulate_rational(
    md: MixedDifferential,
    index: dict[BasisForm, int],
    loc_to_j: dict,
    vec: list[FieldElement],
) -> None:
    # A regular differential, the Cartier image of one included, has poles
    # in x only where the curve does, so the finite pole locations are the
    # only candidate roots; a factor left elsewhere is a bug.
    for r, g in md.terms.items():
        try:
            pf = partial_fractions(g, candidates=loc_to_j.keys())
        except IrreducibleDenominatorFactor as exc:
            raise NotInSpan(
                f"denominator keeps a factor of degree {exc.degree} "
                "away from the poles of the curve"
            ) from exc
        _accumulate_layer(pf, r, index, loc_to_j, vec)


def express_in_basis(
    spec: CurveSpec,
    md: MixedDifferential,
    basis_forms: list[BasisForm] | None = None,
) -> list[FieldElement]:
    """Exact coordinates of a regular differential in the ordered basis.

    Each y-layer is decomposed into partial fractions at the curve's finite
    poles and its monomials are matched against basis forms; a pole
    elsewhere or a monomial outside the basis raises NotInSpan (which, for
    Cartier images of regular forms, means a bug).
    """
    if basis_forms is None:
        basis_forms = basis(spec)
    index = {form: i for i, form in enumerate(basis_forms)}
    vec = [spec.field.zero] * len(basis_forms)
    _accumulate_rational(md, index, _pole_index_map(spec), vec)
    return vec


@dataclass(frozen=True)
class CartierMatrix:
    """Matrix of the Cartier operator in the ordered basis.

    Column j holds the coordinates of C(omega_j): entries[i][j] is the
    coefficient of omega_i.  Entries are exact field elements.
    """

    field: Field
    basis: tuple[BasisForm, ...]
    entries: tuple[tuple[FieldElement, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def entry(self, i: int, j: int) -> FieldElement:
        return self.entries[i][j]

    def column(self, j: int) -> tuple[FieldElement, ...]:
        return tuple(row[j] for row in self.entries)

    def unmodified(self) -> "CartierMatrix":
        """The classical variant with every entry raised to the p-th power.

        Its rank equals the rank of this matrix, so either may be used for
        the a-number.
        """
        return CartierMatrix(
            self.field,
            self.basis,
            tuple(tuple(c**self.field.p for c in row) for row in self.entries),
        )

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "basis": [list(form) for form in self.basis],
            "entries": [c.to_json() for row in self.entries for c in row],
        }

    @staticmethod
    def from_json(data: dict) -> "CartierMatrix":
        field = Field.from_json(data["field"])
        forms = tuple(BasisForm(*f) for f in data["basis"])
        g = len(forms)
        flat = [field(digits) for digits in data["entries"]]
        if len(flat) != g * g:
            raise ValueError("entry count does not match basis size")
        rows = tuple(tuple(flat[i * g : (i + 1) * g]) for i in range(g))
        return CartierMatrix(field, forms, rows)


def _column(engine: _Engine, form: BasisForm, pipeline: str) -> list[FieldElement]:
    """Coordinates of C(form) in the ordered basis, by either pipeline."""
    vec = [engine.field.zero] * len(engine.forms)
    index, loc_to_j = engine.index, engine.loc_to_j
    if pipeline == "rational":
        _accumulate_rational(engine.image_rational(form), index, loc_to_j, vec)
    else:
        for r, pf in engine.image_local(form).items():
            _accumulate_layer(pf, r, index, loc_to_j, vec)
    return vec


def cartier_matrix(spec: CurveSpec, pipeline: str = "local") -> CartierMatrix:
    """The full matrix of the Cartier operator, by either pipeline."""
    _check_pipeline(pipeline)
    engine = _Engine(spec)
    columns = [_column(engine, form, pipeline) for form in engine.forms]
    return CartierMatrix(spec.field, tuple(engine.forms), tuple(zip(*columns)))


# ---------------------------------------------------------------------------
# Key terms (matrix pivots)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyTerm:
    """The pivot monomial of C(source) and its (nonzero) coefficient."""

    source: BasisForm
    target: BasisForm
    coefficient: FieldElement


def kappa(spec: CurveSpec, form: BasisForm) -> BasisForm:
    """The designated pivot target x_j^b y^(r - (b - eps_j)*gamma_j) dx."""
    inv = validate(spec)
    if not inv.theorem_applicable:
        raise ConditionNotSatisfied(f"p = {spec.p} is not 1 mod L = {inv.L}")
    eps = inv.epsilon[form.j]
    return BasisForm(form.j, form.b, form.r - (form.b - eps) * inv.gamma[form.j])


def key_term(spec: CurveSpec, form: BasisForm) -> KeyTerm:
    """Pivot coefficient of C(form) for a form in H; provably nonzero."""
    H, _a = partition_HA(spec)
    if form not in H:
        raise NotInH(f"{form} is not in the pivot set H")
    target = kappa(spec, form)
    engine = _Engine(spec)
    coeff = _column(engine, form, "local")[engine.index[target]]
    if coeff.is_zero():
        raise AssertionError(f"pivot coefficient of {form} vanished")  # unreachable
    return KeyTerm(form, target, coeff)
