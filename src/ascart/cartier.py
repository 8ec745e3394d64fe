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
    p-th root (_rational_image), and decompose the unreduced quotient
    C(G dx)/h once per (j, b, e), with no gcd; the pole factors
    (x - e_l)^i and the powers N^e of f's numerator are tabulated once per
    curve.  A column is a signed sum of the decompositions' digits, each
    read once per (j, b, e) (_rational_columns).  cartier_rational amplifies
    a whole denominator, num*den^(p-1) / den^p, on a RatFunc;
  * local -- read the principal part of g = x_j^b f^e at each pole off its
    Laurent series in the paper's local parameter there, w = 1/x at
    infinity and u = x - e_l at a finite pole, and apply the pole rules to
    it.  With f = u^(-d_l) H_l(u), the series H_l is the pole's own
    principal part plus the expansions there of f_0 and of the other
    poles' parts; its powers H_l^e (e <= p-2), the powers of the x_j there
    and the products of the two are truncated convolutions of int64 digit
    arrays, one pass per pole.  C keeps the coefficients at exponents
    -1 mod p in x at infinity and 1 mod p in 1/u at a finite pole.  What
    depends on (p, orders) alone is a cached layout (_Layout): the basis
    and, at each pole, one flat read table, the series entry, matrix entry
    and sign of each coefficient kept.  Its guard that no read falls
    outside the basis runs once per (p, orders); per curve, each pole is
    one gather and one signed scatter, and the p-th root is taken once, on
    the matrix.

The output is the matrix only, cartier_matrix, the one gate of both
pipelines (one validation, one size check, the g = 0 case): a column is the
coordinate vector of C(omega_j) in the ordered basis, and entry (i, j) is
the coefficient of omega_i in C(omega_j).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .curve import BasisForm, CurveSpec, ordered_basis, validate
from .errors import IrreducibleDenominatorFactor, NotInSpan, SeriesTooLarge
from .finite_field import Field, FieldElement
from .ratfunc import PartialFraction, Poly, RatFunc, partial_fractions

PIPELINES = ("rational", "local")
_MAX_DIGITS = 2**20  # on g^2 * k, the digits of a Cartier matrix


# ---------------------------------------------------------------------------
# The operator on polynomials and rational functions
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


# ---------------------------------------------------------------------------
# Rational pipeline: one image of x_j^b f^e dx per (j, b, e), decomposed once
# ---------------------------------------------------------------------------


def _pole_factors(spec: CurveSpec) -> list[list[Poly]]:
    """(x - e_l)^i for i <= max(p - 1, d_l), at each finite pole e_l: every
    power that N and the amplified images read, as -m mod p < p and
    ceil(m/p) <= d_l for m <= (e + 1)*d_l, e <= p - 2.  Each power is one
    product by x - e_l from the one before."""
    field, x = spec.field, Poly.x(spec.field)
    tables = []
    for datum in spec.poles[1:]:
        table = [Poly.constant(field, 1), x - Poly.constant(field, datum.location)]
        while len(table) < max(field.p, datum.order + 1):
            table.append(table[-1] * table[1])
        tables.append(table)
    return tables


def _product(field: Field, factors) -> Poly:
    """The product of the polynomials factors, none of them 1."""
    return functools.reduce(Poly.__mul__, factors) if factors else Poly.constant(field, 1)


def _f_numerator(spec: CurveSpec, factors) -> Poly:
    """N = f * prod_l (x - e_l)^(d_l), straight from the pole data and the
    pole factors (_pole_factors).

    Pole by pole: with N/D the parts so far and P = (x - e_l)^(d_l), adding
    the part T/P at e_l, T = sum_n c_n (x - e_l)^(d_l - n), gives
    (N P + T D) / (D P), with D = 1 before the first finite pole.
    """
    field = spec.field
    num, den = Poly(field, spec.poles[0].coeffs), []
    for datum, table in zip(spec.poles[1:], factors):
        tail = Poly.constant(field, datum.coeffs[0])
        for c in datum.coeffs[1:]:  # Horner from c_1, the coefficient of lin^(d-1)
            tail = tail * table[1] + Poly.constant(field, c)
        power = table[datum.order]
        num = num * power + _product(field, [tail, *den])
        den.append(power)
    return num


def _rational_image(spec: CurveSpec, num: Poly, j: int, b: int, e: int, factors):
    """C(x_j^b f^e dx) as the unreduced pair (C(G dx), h), for num = N^e
    (1 at e = 0) and the pole factors (_pole_factors), amplified pole by
    pole.  With the pole multiplicities m_l = e*d_l (+ b at l = j),
    x_j^b f^e = G / h^p for G = N^e x^b[j = 0] prod_l (x - e_l)^(-m_l mod p)
    and h = prod_l (x - e_l)^ceil(m_l/p), and C(G/h^p dx) = C(G dx) / h."""
    field, p = spec.field, spec.field.p
    tops, bottoms = [num] if e else [], []
    for l, (datum, table) in enumerate(zip(spec.poles[1:], factors), start=1):
        m = e * datum.order + (b if l == j else 0)
        if m % p:
            tops.append(table[-m % p])
        if m:
            bottoms.append(table[-(-m // p)])
    top = _product(field, tops)
    if j == 0:  # times x^b, a shift
        top = Poly(field, (field.zero,) * b + top.coeffs)
    return cartier_poly(top), _product(field, bottoms)


def _rational_columns(spec: CurveSpec, forms) -> np.ndarray:
    """The (g, g, k) digits of the Cartier matrix in the ordered basis forms,
    by the rational pipeline: the column of x_j^b y^r dx is the signed sum
    over e <= r of the decompositions of C(x_j^b f^e dx), each in y-layer
    r - e.  The pole factors and the powers N^e are built once per curve,
    and each (j, b, e) is decomposed once, for every column that reads it."""
    field = spec.field
    index = {form: i for i, form in enumerate(forms)}
    loc_to_j = {datum.location: j for j, datum in enumerate(spec.poles) if j >= 1}
    e_max = max(form.r for form in forms)
    sign = _signs(field.p, e_max)
    factors = _pole_factors(spec)
    powers = [Poly.constant(field, 1), _f_numerator(spec, factors)]  # N^0, N^1, ...
    while len(powers) <= e_max:
        powers.append(powers[-1] * powers[1])

    @functools.cache
    def decomposition(j: int, b: int, e: int) -> list[tuple[tuple[int, int], np.ndarray]]:
        """C(x_j^b f^e dx) as ((j', b'), digits) pairs, one per term x_j'^b' dx."""
        pf = _decompose(_rational_image(spec, powers[e], j, b, e, factors), loc_to_j)
        terms = [((0, n), c) for n, c in enumerate(pf.poly.coeffs)]
        for loc, tail in pf.tails.items():  # at the curve's poles only (_decompose)
            terms.extend(((loc_to_j[loc], n), c) for n, c in tail.items())
        return [(key, np.array(c.digits)) for key, c in terms if not c.is_zero()]

    out = np.zeros((len(forms), len(forms), field.k), dtype=np.int64)
    for col, (j, b, r) in enumerate(forms):
        for e, s in enumerate(sign[r, : r + 1].tolist()):
            for (pole, power), digits in decomposition(j, b, e):
                form = BasisForm(pole, power, r - e)
                if form not in index:
                    raise NotInSpan(f"monomial {form.label()} falls outside the basis")
                out[index[form], col] += s * digits
    return out % field.p


def _decompose(pair, loc_to_j: dict) -> PartialFraction:
    # pair is an image (C(G dx), h) of _rational_image, unreduced.  A regular
    # differential, the Cartier image of one included, has poles in x only
    # where the curve does, so the finite pole locations are the only
    # candidate roots; a factor left elsewhere is a bug.
    try:
        return partial_fractions(pair, candidates=loc_to_j.keys())
    except IrreducibleDenominatorFactor as exc:
        raise NotInSpan(
            f"denominator keeps a factor of degree {exc.degree} "
            "away from the poles of the curve"
        ) from exc


# ---------------------------------------------------------------------------
# Local pipeline: truncated Laurent series at each pole
# ---------------------------------------------------------------------------


def _series_mul(field: Field, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The first n terms of a_i * b for every series a_i of the batch a.

    A series over GF(p^k) is an int64 array (..., N, k) of N coefficients,
    each the digit row of a field element.  Entries stay below 2^63 while
    n*k*(p-1)^2 does, which the digit cap ensures (cartier_matrix).
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
    """The part of the local pipeline that depends only on p and the pole
    orders (of genus g >= 1): the basis, the (j, b) of its forms, the series
    sizes, and at each pole one flat read-only table, a column per read of
    C: the series entry (group, e, t) read, the matrix entry (row, col) it
    fills and its sign.  A read outside the basis is refused here, once."""

    def __init__(self, p: int, orders):
        self.orders = orders
        self.forms = forms = tuple(ordered_basis(p, orders))
        # C(x_j^b f^e dx) reads H_l^e, or its product with the series of
        # x_j^b, below index (e+1)*d_l since b <= d_l in every basis form,
        # and e <= p-2; the one term more keeps the expansions of the other
        # poles nonempty at p = 2.
        self.sizes = [(p - 1) * d + 1 for d in orders]
        self.e_max = e_max = max(form.r for form in forms)
        self.groups = groups = tuple(sorted({(form.j, form.b) for form in forms}))
        group = {jb: i for i, jb in enumerate(groups)}
        gs = np.array([group[form.j, form.b] for form in forms])
        js, bs, rs = np.array(forms).T
        # where[l, i, b]: position of x_l^b y^i dx in the basis, -1 outside
        # it, for every b of the basis (past p - 1 at p = 2) and every power
        # read (at most first // p + 1, below)
        width = max(bs.max(), (bs.max() + max(orders) * e_max) // p + 1) + 1
        where = np.full((len(orders), e_max + 1, width), -1)
        where[js, rs, bs] = np.arange(len(forms))
        sign, e = _signs(p, e_max), np.arange(e_max + 1)
        # At pole l, x_j^b f^e = u^-(e*d + s) q_e with s = b for j = l, as
        # x_l^b = u^(-b), and s = 0 otherwise; q_e is H_l^e, or its product
        # with the series of x_j^b.  C keeps u^-n for n = 1 mod p (x^n for
        # n = -1 mod p at infinity), the entry of q_e at t = e*d + s - n, as
        # the coefficient of x_l^power dx in layer y = r - e of x_j^b y^r dx.
        self.reads = []
        for l, d in enumerate(orders):
            first = np.where(js == l, bs, 0)[:, None] + d * e - (p - 1 if l == 0 else 1)
            t = first[..., None] - p * np.arange(first.max() // p + 1)
            col, e_col, i = np.nonzero((t >= 0) & (e <= rs[:, None])[..., None])
            power, y = i + (l > 0), rs[col] - e_col
            row = where[l, y, power]
            if (row < 0).any():
                a = np.argmax(row < 0)
                form = BasisForm(l, int(power[a]), int(y[a]))
                raise NotInSpan(f"monomial {form.label()} falls outside the basis")
            table = np.stack([gs[col], e_col, t[col, e_col, i], row, col, sign[rs[col], e_col]])
            table.setflags(write=False)  # shared by every curve with these orders
            self.reads.append(table)


_layout = functools.lru_cache(maxsize=64)(_Layout)


def _local_matrix(spec: CurveSpec, orders) -> tuple[tuple[BasisForm, ...], np.ndarray]:
    """The basis and the (g, g, k) digits of the Cartier matrix, by the
    local pipeline.

    One pass per pole l, in the local parameter there, w = 1/x at infinity
    or u = x - e_l at a finite pole: the powers of every other x_j, then
    H_l = u^d f, whose regular part is sum_j f_j(x_j) over those powers,
    then the powers H_l^e and their products with the x_j^b, q[group, e, t].
    The layout's table at l gathers its entries once and scatters them,
    signed, into the matrix.  The p-th root, GF(p)-linear, is taken once,
    on the matrix.
    """
    field, p = spec.field, spec.field.p
    layout = _layout(p, orders)
    locs = [datum.location for datum in spec.poles]
    # f_j as a polynomial in x_j; a finite pole's part has no constant term
    polys = [field.digit_array(datum.coeffs) for datum in spec.poles]
    polys[1:] = [np.vstack([np.zeros_like(c[:1]), c]) for c in polys[1:]]
    out = np.zeros((len(layout.forms), len(layout.forms), field.k), dtype=np.int64)
    for l, (n, d, reads) in enumerate(zip(layout.sizes, layout.orders, layout.reads)):
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
        group, e, t, row, col, sign = reads
        out[row, col] = sign[:, None] * q[group, e, t] % p
    out = out @ field.pth_root_matrix  # the pth_root of each entry
    return layout.forms, np.remainder(out, p, out=out)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


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

    The one gate of both pipelines: the curve is validated once, and the
    digit cap, g^2 * k <= 2^20, is its only size check, before anything is
    built.  Every dense array has O(g^2 * k) entries, since e_max + 1 <= g
    and the series have N = (p-1)*d_l + 1 <= 4g + 1 terms; as p - 1 <= 2g
    for g >= 1, the local pipeline's int64 sums stay below
    N*k*(p-1)^2 <= (4g + 1)*4*2^20 < 2^35.  At g = 0 neither pipeline runs.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
    field, inv = spec.field, validate(spec)
    if inv.g**2 * field.k > _MAX_DIGITS:
        raise SeriesTooLarge(f"Cartier matrix of genus {inv.g} over {field} exceeds "
                             f"the {_MAX_DIGITS}-digit cap on g^2*k")
    if not inv.g:
        return CartierMatrix(field, (), np.zeros((0, 0, field.k), dtype=np.int64))
    if pipeline == "local":
        forms, digits = _local_matrix(spec, inv.orders)
    else:
        forms = tuple(ordered_basis(field.p, inv.orders))
        digits = _rational_columns(spec, forms)
    return CartierMatrix(field, forms, digits)

