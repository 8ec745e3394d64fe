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
both pipelines read them from one table of signs mod p (_signs).

Two pipelines reduce the inner C(g dx) for rational g and never share
reduction code, so each serves as an oracle for the other:

  * rational -- amplify g = x_j^b f^e pole by pole to a p-th power
    denominator, apply the polynomial rule to the numerator, divide by the
    p-th root (_rational_image), and decompose once per (j, b, e); the
    columns are sums of the decompositions' coefficients, handed over as
    digits (_rational_columns).  cartier_rational amplifies a whole
    denominator, num*den^(p-1) / den^p;
  * local -- read the principal part of g = x_j^b f^e at each pole off its
    Laurent series in the paper's local parameter there, w = 1/x at
    infinity and u = x - e_l at a finite pole, and apply the pole rules to
    it.  With f = u^(-d_l) H_l(u), the series H_l is the pole's own
    principal part plus the expansions there of f_0 and of the other
    poles' parts; its powers H_l^e (e <= p-2), the powers of the x_j there
    and the products of the two are truncated convolutions of int64 digit
    arrays, one pass per pole.  C keeps the coefficients at exponents
    -1 mod p in x at infinity and 1 mod p in 1/u at a finite pole, under a
    p-th root.  cartier_local applies the same pole rules to a
    PartialFraction.

A matrix column is the coordinate vector of C(omega_j) in the ordered
basis; entry (i, j) is the coefficient of omega_i in C(omega_j).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .curve import (
    BasisForm,
    CurveSpec,
    basis,
    in_basis,
    ordered_basis,
    partition_HA,
    validate,
)
from .errors import (
    ConditionNotSatisfied,
    IrreducibleDenominatorFactor,
    NotInH,
    NotInSpan,
    SeriesTooLarge,
)
from .finite_field import Field, FieldElement
from .ratfunc import PartialFraction, Poly, RatFunc, partial_fractions

PIPELINES = ("rational", "local")
_MAX_DIGITS = 2**20  # on g^2 * k, the digits of a Cartier matrix


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
# Binomial regrouping of the y^r substitution, read by both pipelines
# ---------------------------------------------------------------------------


def _signs(p: int, e_max: int) -> np.ndarray:
    """sign[r, e] = (-1)^e C(r, e) mod p for r, e <= e_max, by Pascal's rule:
    the coefficient of y^(r-e) C(x_j^b f^e dx) in C(x_j^b y^r dx)."""
    sign = np.zeros((e_max + 1, e_max + 1), dtype=np.int64)
    sign[:, 0] = 1
    for r in range(1, e_max + 1):
        sign[r, 1:] = (sign[r - 1, 1:] - sign[r - 1, :-1]) % p
    return sign


class MixedDifferential:
    """sum_r g_r(x) y^r dx with rational coefficients g_r."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict[int, RatFunc] | None = None):
        self.field = field
        self.terms = {r: g for r, g in (terms or {}).items() if not g.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

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
# Rational pipeline: one image of x_j^b f^e dx per (j, b, e), decomposed once
# ---------------------------------------------------------------------------


def _f_numerator(spec: CurveSpec) -> Poly:
    """N = f * prod_l (x - e_l)^(d_l), straight from the pole data.

    Pole by pole: with N/D the parts so far and P = (x - e_l)^(d_l), adding
    the part T/P at e_l, T = sum_n c_n (x - e_l)^(d_l - n), gives
    (N P + T D) / (D P).
    """
    field = spec.field
    num, den = Poly(field, spec.poles[0].coeffs), Poly.constant(field, 1)
    for datum in spec.poles[1:]:
        lin = Poly.x(field) - Poly.constant(field, datum.location)
        tail = Poly(field)
        for c in datum.coeffs:  # Horner from c_1, the coefficient of lin^(d-1)
            tail = tail * lin + Poly.constant(field, c)
        power = lin**datum.order
        num, den = num * power + tail * den, den * power
    return num


def _rational_image(spec: CurveSpec, num: Poly, j: int, b: int, e: int) -> RatFunc:
    """C(x_j^b f^e dx) for num = N^e, amplified pole by pole.  With the pole
    multiplicities m_l = e*d_l (+ b at l = j), x_j^b f^e = G / h^p for
    G = N^e x^b[j = 0] prod_l (x - e_l)^(-m_l mod p) and
    h = prod_l (x - e_l)^ceil(m_l/p), and C(G/h^p dx) = C(G dx) / h."""
    field, p = spec.field, spec.field.p
    num = num * Poly.monomial(field, b if j == 0 else 0)
    h = Poly.constant(field, 1)
    for l, datum in enumerate(spec.poles[1:], start=1):
        m = e * datum.order + (b if l == j else 0)
        lin = Poly.x(field) - Poly.constant(field, datum.location)
        num, h = num * lin ** (-m % p), h * lin ** -(-m // p)
    return RatFunc(cartier_poly(num), h)


def _rational_columns(spec: CurveSpec, forms, wanted) -> np.ndarray:
    """The (g, len(wanted), k) digits of the columns of the wanted forms in
    the ordered basis forms, by the rational pipeline: the column of
    x_j^b y^r dx is the signed sum over e <= r of the decompositions of
    C(x_j^b f^e dx), each in y-layer r - e.  The powers N^e are built once
    and each (j, b, e) is decomposed once, for every column that reads it."""
    field = spec.field
    index = {form: i for i, form in enumerate(forms)}
    loc_to_j = _pole_index_map(spec)
    e_max = max((form.r for form in wanted), default=0)
    sign = _signs(field.p, e_max)
    powers = [Poly.constant(field, 1), _f_numerator(spec)]  # N^0, N^1, ...
    while len(powers) <= e_max:
        powers.append(powers[-1] * powers[1])

    @functools.cache
    def decomposition(j: int, b: int, e: int) -> PartialFraction:
        return _decompose(_rational_image(spec, powers[e], j, b, e), loc_to_j)

    out = np.zeros((len(forms), len(wanted), field.k), dtype=np.int64)
    for col, (j, b, r) in enumerate(wanted):
        vec = [field.zero] * len(forms)
        for e, s in enumerate(sign[r, : r + 1].tolist()):
            _accumulate_layer(decomposition(j, b, e).scale(s), r - e, index, loc_to_j, vec)
        out[:, col] = field.digit_array(vec)
    return out


def _pole_index_map(spec: CurveSpec) -> dict:
    return {datum.location: j for j, datum in enumerate(spec.poles) if j >= 1}


def _decompose(g: RatFunc, loc_to_j: dict) -> PartialFraction:
    # A regular differential, the Cartier image of one included, has poles
    # in x only where the curve does, so the finite pole locations are the
    # only candidate roots; a factor left elsewhere is a bug.
    try:
        return partial_fractions(g, candidates=loc_to_j.keys())
    except IrreducibleDenominatorFactor as exc:
        raise NotInSpan(
            f"denominator keeps a factor of degree {exc.degree} "
            "away from the poles of the curve"
        ) from exc


def _accumulate_layer(
    pf: PartialFraction,
    r: int,
    index: dict[BasisForm, int],
    loc_to_j: dict,
    vec: list[FieldElement],
) -> None:
    terms = [(BasisForm(0, b, r), c) for b, c in enumerate(pf.poly.coeffs) if not c.is_zero()]
    for e, tail in pf.tails.items():
        if e not in loc_to_j:
            raise NotInSpan(f"pole at {e!r} is not a pole of the curve")
        terms.extend((BasisForm(loc_to_j[e], n, r), c) for n, c in tail.items())
    for key, c in terms:
        if key not in index:
            raise NotInSpan(f"monomial {key.label()} falls outside the basis")
        vec[index[key]] = vec[index[key]] + c


# ---------------------------------------------------------------------------
# Local pipeline: truncated Laurent series at each pole
# ---------------------------------------------------------------------------


def _series_sizes(p: int, k: int, orders) -> list[int]:
    """Terms kept of the series at each pole: (p-1)*d_l + 1.

    C(x_j^b f^e dx) reads H_l^e, or its product with the series of x_j^b,
    below index (e+1)*d_l since b <= d_l in every basis form, and
    e <= p-2; the one term more keeps the expansions of the other poles
    nonempty at p = 2.  A product sums at most N*k digit products below
    (p-1)^2, so N*k*(p-1)^2 must stay below 2^63.
    """
    sizes = [(p - 1) * d + 1 for d in orders]
    if max(sizes) * k * (p - 1) ** 2 >= 2**63:
        raise SeriesTooLarge(
            f"local Laurent series of {max(sizes)} terms over GF({p}^{k}) "
            "would overflow int64 sums"
        )
    return sizes


def _series_mul(field: Field, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The first n terms of a_i * b for every series a_i of the batch a.

    A series over GF(p^k) is an int64 array (..., N, k) of N coefficients,
    each the digit row of a field element.  Entries stay below 2^63 while
    n*k*(p-1)^2 does; _series_sizes checks that bound.
    """
    a, b = a[..., :n, :], b[:n]
    k, slot, rows, gap = field.k, 2 * field.k - 1, a.shape[-2], len(b) - 1
    # Kronecker packing: a slot of 2k-1 entries holds the schoolbook
    # product of two digit vectors, and rows `width` slots apart hold
    # the products of different series, so one convolution makes all.
    # Only the last row's product needs no room after it.
    width = max(n, rows + gap)
    pa = np.zeros(a.shape[:-2] + (width, slot), dtype=np.int64)
    pa[..., :rows, :k] = a
    pb = np.zeros((len(b), slot), dtype=np.int64)
    pb[:, :k] = b
    c = np.convolve(pa.ravel()[: pa.size - min(width - rows, gap) * slot], pb.ravel())
    c = c[: pa.size].reshape(pa.shape)[..., :n, :] % field.p @ field.reduction
    return np.remainder(c, field.p, out=c)


def _powers(field: Field, s: np.ndarray, m: int, n: int) -> np.ndarray:
    """s^0, ..., s^m to n terms each, for the series s, by doubling: the
    (m+1, n, k) digits.  Every power table of the local pipeline is one."""
    out = np.zeros((m + 1, n, field.k), dtype=np.int64)
    out[0, 0, 0] = 1
    out[1:2, : len(s)] = s[:n]
    top = 1
    while top < m:  # s^(top+1), ..., s^(2top) as s^1, ..., s^top times s^top
        new = min(2 * top, m)
        out[top + 1 : new + 1] = _series_mul(field, out[1 : new - top + 1], out[top], n)
        top = new
    return out


class _Layout:
    """The part of the local pipeline that depends only on p, k and the pole
    orders: the basis, the (j, b) of its forms, the series indices C reads
    at each pole, and the matrix position of every reading."""

    def __init__(self, p: int, k: int, orders):
        self.orders = orders
        self.forms = forms = tuple(ordered_basis(p, orders))
        if not forms:  # g = 0 builds no series, so needs no int64 bound
            return
        self.sizes = _series_sizes(p, k, orders)
        self.e_max = e_max = max(form.r for form in forms)
        self.groups = groups = tuple(sorted({(form.j, form.b) for form in forms}))
        # At pole l, x_j^b f^e = u^-(e*d + s) q_e with s = b for j = l, as
        # x_l^b = u^(-b), and s = 0 otherwise; q_e is H_l^e, or its product
        # with the series of x_j^b.  C keeps u^-n for n = 1 mod p (x^n for
        # n = -1 mod p at infinity), the entries of q_e at e*d + s - n.
        js, bs = np.array(groups).T[:, :, None, None]
        g, e = np.arange(len(groups))[:, None, None], np.arange(e_max + 1)[:, None]
        self.reads, pole, power = [], [], []
        for l, d in enumerate(orders):
            first = np.where(js == l, bs, 0) + d * e - (p - 1 if l == 0 else 1)
            count = max(first.max() // p + 1, 0)
            t = first - p * np.arange(count)
            self.reads.append(((g, e, t.clip(0)), t[..., None] >= 0))
            pole.append(np.full(count, l))
            power.append(np.arange(count) + (l > 0))
        self.pole, self.power = np.concatenate(pole), np.concatenate(power)
        self.sign = _signs(p, e_max)
        # where[l, i, b]: position of x_l^b y^i dx in the basis, -1 outside it
        width = max(self.power.max(initial=0), max(form.b for form in forms)) + 1
        where = np.full((len(orders), e_max + 1, width), -1)
        for i, form in enumerate(forms):
            where[form.j, form.r, form.b] = i
        self.cols = where[js[..., 0], np.arange(e_max + 1), bs[..., 0]]  # [g, r]
        y_power = np.subtract.outer(np.arange(e_max + 1), np.arange(e_max + 1)).clip(0)
        self.rows = where[self.pole, y_power[..., None], self.power]  # [r, e, a]
        reads = [a for index, read in self.reads for a in (*index, read)]
        for table in (self.pole, self.power, self.sign, self.cols, self.rows, *reads):
            table.setflags(write=False)  # shared by every curve with these orders


_layout = functools.lru_cache(maxsize=64)(_Layout)


def _local_images(spec: CurveSpec, layout: _Layout) -> np.ndarray:
    """C(x_j^b f^e dx) for each (j, b) of the layout's groups and every e.

    One pass per pole l, in the local parameter there, w = 1/x at infinity
    or u = x - e_l at a finite pole: the powers of every other x_j, then
    H_l = u^d f, whose regular part is sum_j f_j(x_j) over those powers,
    then the powers H_l^e and their products with the x_j^b, read at once.
    Entry [g, e, a] is the coefficient of x^b' dx (l = 0) or of x_l^b' dx
    (l >= 1), for the pole l and power b' of the layout's column a.
    """
    field, p = spec.field, spec.field.p
    locs = [datum.location for datum in spec.poles]
    # f_j as a polynomial in x_j; a finite pole's part has no constant term
    polys = [field.digit_array(datum.coeffs) for datum in spec.poles]
    polys[1:] = [np.vstack([np.zeros_like(c[:1]), c]) for c in polys[1:]]
    picked = []
    for l, (n, d, (index, read)) in enumerate(zip(layout.sizes, layout.orders, layout.reads)):
        h = np.zeros((n, field.k), dtype=np.int64)
        h[: len(polys[l])] = polys[l][::-1]  # the own principal part times u^d
        x_powers = {}
        for j, c in enumerate(polys):
            if j == l:
                continue
            if l == 0:  # x_j = w / (1 - e_j w) = sum_s e_j^s w^(s+1)
                x = np.zeros((n, field.k), dtype=np.int64)
                x[1:] = _powers(field, field.digit_array([locs[j]]), n - 2, 1)[:, 0]
            elif j == 0:  # x = e_l + u
                x = field.digit_array([locs[l], field.one])
            else:  # x_j = 1/(u + e_l - e_j) = -sum_s z^(s+1) u^s with z = 1/(e_j - e_l)
                z = field.digit_array([(locs[j] - locs[l]).inverse()])
                x = -_powers(field, z, n, 1)[1:, 0] % p
            x_powers[j] = xp = _powers(field, x, len(c) - 1, n)
            # term t of f_j(x_j) = sum_i c_i x_j^i is term deg f_j of the
            # series (x_j^i)_t in i times c reversed
            f_j = _series_mul(field, xp.swapaxes(0, 1)[: n - d], c[::-1], len(c))[:, -1]
            h[d:] = (h[d:] + f_j) % p
        powers = _powers(field, h, layout.e_max, n)
        q = np.stack([
            powers if j == l or not b else _series_mul(field, powers, x_powers[j][b], n)
            for j, b in layout.groups
        ])
        picked.append(np.where(read, q[index], 0))
    return np.concatenate(picked, axis=2) @ field.pth_root_matrix % p  # pth_root of each


def _local_matrix(spec: CurveSpec, orders) -> tuple[tuple[BasisForm, ...], np.ndarray]:
    """The basis and the (g, g, k) digits of the Cartier matrix, by the
    local pipeline."""
    field = spec.field
    p, layout = field.p, _layout(field.p, field.k, orders)
    forms = layout.forms
    out = np.zeros((len(forms), len(forms), field.k), dtype=np.int64)
    if not forms:
        return forms, out
    images = _local_images(spec, layout)
    vals = layout.sign[:, :, None, None] * images[:, None] % p  # [g, r, e, a, :]
    live = vals.any(-1) & (layout.cols[:, :, None, None] >= 0)
    outside = np.argwhere(live & (layout.rows < 0))
    if len(outside):
        _, r, e, a = outside[0]
        form = BasisForm(int(layout.pole[a]), int(layout.power[a]), int(r - e))
        raise NotInSpan(f"monomial {form.label()} falls outside the basis")
    g, r, e, a = np.nonzero(live)
    out[layout.rows[r, e, a], layout.cols[g, r]] = vals[g, r, e, a]
    return forms, out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def cartier_basis_form(
    spec: CurveSpec, form: BasisForm, pipeline: str = "rational"
) -> MixedDifferential:
    """C applied to one basis form, as a differential sum_i g_i y^i dx."""
    _check_pipeline(pipeline)
    orders = validate(spec).orders
    if not in_basis(spec.p, orders, form):
        raise ValueError(f"{form} is not a basis form of this curve")
    field = spec.field
    if pipeline == "rational":
        forms = basis(spec)
        digits = _rational_columns(spec, forms, [form])[:, 0]
    else:
        M = cartier_matrix(spec, "local")
        forms, digits = M.basis, M.digits[:, M.basis.index(form)]
    # the column as principal parts of the forms x_j^b y^r dx
    layers: dict[int, PartialFraction] = {}
    for (j, b, r), c in zip(forms, field.element_rows(digits[None])[0]):
        if j:
            pf = PartialFraction(Poly(field), {spec.poles[j].location: {b: c}})
        else:
            pf = PartialFraction(Poly.monomial(field, b, c))
        layers[r] = layers.get(r, PartialFraction.zero(field)) + pf
    return MixedDifferential(field, {r: pf.assemble() for r, pf in layers.items()})


def _check_pipeline(pipeline: str) -> None:
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")


def express_in_basis(spec: CurveSpec, md: MixedDifferential) -> list[FieldElement]:
    """Exact coordinates of a regular differential in the ordered basis.

    Each y-layer is decomposed into partial fractions at the curve's finite
    poles and its monomials are matched against basis forms; a pole
    elsewhere or a monomial outside the basis raises NotInSpan (which, for
    Cartier images of regular forms, means a bug).
    """
    forms = basis(spec)
    index = {form: i for i, form in enumerate(forms)}
    loc_to_j = _pole_index_map(spec)
    vec = [spec.field.zero] * len(forms)
    for r, g in md.terms.items():
        _accumulate_layer(_decompose(g, loc_to_j), r, index, loc_to_j, vec)
    return vec


class _DigitStore:
    """The entries field of CartierMatrix, stored as digits.

    Setting it, in the constructor or through dataclasses.replace, takes
    rows of elements of the matrix's field or a (g, g, k) integer digit
    array, each digit in [0, p), and keeps only a private read-only int64
    copy, as the instance's digits.  Reading it builds the rows of elements
    from those digits.
    """

    def __get__(self, M, owner=None):
        if M is None:
            raise AttributeError("entries")  # so the dataclass field has no default
        return M.field.element_rows(M.digits)

    def __set__(self, M, value):
        field, g = M.field, len(M.basis)
        if isinstance(value, np.ndarray):
            if value.dtype.kind not in "iu":
                raise ValueError(f"matrix digits must be integers, not {value.dtype}")
            digits = value.astype(np.int64)  # a copy: no alias of value can change it
        else:
            flat = list(itertools.chain.from_iterable(value))
            if any(c.field != field for c in flat):
                raise ValueError(f"matrix entries must lie in {field}")
            digits = field.digit_array(flat)
            if len(digits) == g * g:
                digits = digits.reshape(g, g, field.k)
        if digits.shape != (g, g, field.k):
            raise ValueError(f"a basis of {g} forms needs a {g} x {g} matrix")
        if digits.size and not 0 <= digits.min() <= digits.max() < field.p:
            raise ValueError(f"matrix digits must lie in [0, {field.p})")
        digits.setflags(write=False)
        object.__setattr__(M, "digits", digits)  # the dataclass is frozen


@dataclass(frozen=True, eq=False)
class CartierMatrix:
    """Matrix of the Cartier operator in the ordered basis.

    Column j holds the coordinates of C(omega_j): entry (i, j) is the
    coefficient of omega_i.  The matrix is stored once, as digits, a
    read-only (g, g, k) int64 array of the entries' digits; equality and
    hashing read it.  entries, entry and column are views that build exact
    field elements from it on each read.  The constructor takes the
    entries as rows of elements or as a digit array (see _DigitStore).
    """

    field: Field
    basis: tuple[BasisForm, ...]
    entries: tuple[tuple[FieldElement, ...], ...] = _DigitStore()

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

    def entry(self, i: int, j: int) -> FieldElement:
        return self.field(self.digits[i, j])

    def column(self, j: int) -> tuple[FieldElement, ...]:
        return self.field.element_rows(self.digits[None, :, j])[0]

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "basis": [list(form) for form in self.basis],
            "entries": self.digits.reshape(-1, self.field.k).tolist(),
        }

    @staticmethod
    def from_json(data: dict) -> "CartierMatrix":
        field = Field.from_json(data["field"])
        forms = tuple(BasisForm(*f) for f in data["basis"])
        g = len(forms)
        flat = field.digit_array(map(field, data["entries"]))  # each entry as field() reads it
        if len(flat) != g * g:
            raise ValueError("entry count does not match basis size")
        return CartierMatrix(field, forms, flat.reshape(g, g, field.k))


def cartier_matrix(spec: CurveSpec, pipeline: str = "local") -> CartierMatrix:
    """The full matrix of the Cartier operator, by either pipeline.

    A curve over the digit cap is refused before anything is built: every
    dense array has O(g^2 * k) entries, since e_max + 1 <= g and the series
    have (p-1)*d_l + 1 <= 4g + 1 terms.  At g = 0 no series is built, so
    the local pipeline's int64 bound does not apply.
    """
    _check_pipeline(pipeline)
    field, inv = spec.field, validate(spec)
    if pipeline == "local" and inv.g:  # its int64 bound first, with its own message
        _series_sizes(field.p, field.k, inv.orders)
    if inv.g**2 * field.k > _MAX_DIGITS:
        raise SeriesTooLarge(f"Cartier matrix of genus {inv.g} over {field} exceeds "
                             f"the {_MAX_DIGITS}-digit cap on g^2*k")
    if pipeline == "local":
        forms, digits = _local_matrix(spec, inv.orders)
    else:
        forms = tuple(basis(spec))
        digits = _rational_columns(spec, forms, forms)
    return CartierMatrix(field, forms, digits)


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
    forms = basis(spec)
    coeff = cartier_matrix(spec, "local").entry(forms.index(target), forms.index(form))
    if coeff.is_zero():
        raise AssertionError(f"pivot coefficient of {form} vanished")  # unreachable
    return KeyTerm(form, target, coeff)
