"""The rational pipeline of the Cartier matrix: one image of x_j^b f^e dx
per (j, b, e), decomposed once.

It reduces the inner C(g dx), g = x_j^b f^e, of the binomial regrouping
(ascart.cartier) by amplifying g pole by pole to a p-th power denominator,
applying the polynomial rule to the numerator, dividing by the p-th root
(_rational_image), and decomposing the unreduced quotient C(G dx)/h once
per (j, b, e), with no gcd; the pole factors (x - e_l)^i and the powers N^e
of f's numerator are tabulated once per curve.  All of it is ratfunc's
arithmetic on digit arrays, with no field element in between: each product
is one Kronecker product of big ints, the polynomial rule one strided slice
of the digits times the field's pth_root_matrix (cartier_poly), and each
decomposition is read off as digit rows.  A column is a signed sum of those
rows.  What depends on (p, orders) alone is a cached plan (_RationalPlan):
the basis, its index, and one record per (j, b, e) that a column reads
(_Image), with the exponents of (x - e_l) in G and h, the shift x^b, the
column, sign and y-layer of each read, and whether G has degree p - 1 or
more.  An image whose G has a smaller degree is dead: C keeps only the
degrees = -1 mod p of G, so C(G dx) = 0 by degree alone, and the curve's
pass skips it.  A curve is then one pass: each live image built and
decomposed once, and the matrix written in one scatter (_rational_columns).

rational_matrix(spec, orders) is the pipeline's entry point for the gate
(cartier_matrix).  It shares no reduction code with the local pipeline
(ascart.local), so each serves as an oracle for the other, and it is the
only module of the package that imports ratfunc.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .curve import BasisForm, CurveSpec, binomial_signs, ordered_basis
from .errors import IrreducibleDenominatorFactor, NotInSpan
from .finite_field import Field
from .ratfunc import PartialFraction, Poly, partial_fractions


def cartier_poly(g: Poly) -> Poly:
    """C(g dx) for polynomial g: keep degrees = -1 mod p, take p-th roots,
    as one strided slice of its digits times the field's pth_root_matrix."""
    field = g.field
    return Poly(field, g.digits[field.p - 1 :: field.p] @ field.pth_root_matrix)


def _pole_factors(spec: CurveSpec) -> list[list[Poly]]:
    """(x - e_l)^i for i <= max(p - 1, d_l), at each finite pole e_l: every
    power that N and the amplified images read, as -m mod p < p and
    ceil(m/p) <= d_l for m <= (e + 1)*d_l, e <= p - 2.  Each power is one
    product by x - e_l from the one before."""
    field, tables = spec.field, []
    for datum in spec.poles[1:]:
        lin = np.array([np.negative(datum.location.digits), field.one.digits])  # x - e_l
        table = [Poly.constant(field, 1), Poly(field, lin)]
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


class _Image(NamedTuple):
    """One image C(x_j^b f^e dx) that columns of the rational pipeline read,
    as its amplified form x_j^b f^e = G / h^p takes it (_rational_image).
    With the pole multiplicities m_l = e*d_l (+ b at l = j) at the finite
    poles l >= 1, tops and bottoms are the pairs (l - 1, -m_l mod p) and
    (l - 1, ceil(m_l/p)) with a nonzero exponent: the powers of x - e_l in
    G and in h, by their index in the pole factors (_pole_factors).  shift
    is b at j = 0, the factor x^b of G, and 0 otherwise.  reads holds a
    row (col, sign, y) for each column x_j^b y^r dx that reads the image,
    in column order: its sign (-1)^e C(r, e) mod p (binomial_signs) and its
    y-layer y = r - e.

    live is deg G >= p - 1, with
    deg G = e*sum_j d_j + sum_l (-m_l mod p) + shift, exact as f_0 has a
    nonzero leading coefficient (validate).  cartier_poly keeps only the
    degrees = -1 mod p of G, so C(G dx) is 0 for a dead image."""

    j: int
    b: int
    e: int
    tops: tuple
    bottoms: tuple
    shift: int
    reads: np.ndarray
    live: bool


class _RationalPlan:
    """The part of the rational pipeline that depends only on p and the pole
    orders (of genus g >= 1): the ordered basis forms, e_max, the basis
    index {form: column}, and images, one _Image for each distinct
    (j, b, e) that a column x_j^b y^r dx reads (e <= r), sorted by
    (j, b, e)."""

    def __init__(self, p: int, orders):
        self.forms = forms = tuple(ordered_basis(p, orders))
        self.e_max = e_max = max(form.r for form in forms)
        self.index = {form: i for i, form in enumerate(forms)}
        # every read (col, e), e <= r, of every column, sorted by its image
        # (j, b, e) and, within one, by column
        js, bs, rs = np.array(forms).T
        cols = np.repeat(np.arange(len(forms)), rs + 1)
        es = np.arange(len(cols)) - np.repeat(np.cumsum(rs + 1) - rs - 1, rs + 1)
        key = (js[cols] * (bs.max() + 1) + bs[cols]) * (e_max + 1) + es
        order = np.argsort(key, kind="stable")
        cols, es = cols[order], es[order]
        reads = np.stack([cols, binomial_signs(p, e_max)[rs[cols], es], rs[cols] - es], axis=1)
        reads.setflags(write=False)  # shared by every curve with these orders
        starts = np.unique(key[order], return_index=True)[1]
        heads = np.stack([js[cols[starts]], bs[cols[starts]], es[starts]], axis=1)
        bounds = [*starts.tolist(), len(cols)]
        images = []
        for (j, b, e), a, z in zip(heads.tolist(), bounds, bounds[1:]):
            m = [e * d + (b if l == j else 0) for l, d in enumerate(orders)][1:]
            tops = tuple((l, -n % p) for l, n in enumerate(m) if n % p)
            bottoms = tuple((l, -(-n // p)) for l, n in enumerate(m) if n)
            shift = b if j == 0 else 0
            degree = e * sum(orders) + sum(n for _, n in tops) + shift
            images.append(_Image(j, b, e, tops, bottoms, shift, reads[a:z], degree >= p - 1))
        self.images = tuple(images)


_rational_plan = functools.lru_cache(maxsize=64)(_RationalPlan)


def _rational_image(spec: CurveSpec, num: Poly, image: _Image, factors):
    """C(x_j^b f^e dx) as the unreduced pair (C(G dx), h), for an image
    (j, b, e) of the plan (_Image), num = N^e (1 at e = 0) and the pole
    factors (_pole_factors), amplified pole by pole: with the pole
    multiplicities m_l = e*d_l (+ b at l = j), x_j^b f^e = G / h^p for
    G = N^e x^b[j = 0] prod_l (x - e_l)^(-m_l mod p) and
    h = prod_l (x - e_l)^ceil(m_l/p), and C(G/h^p dx) = C(G dx) / h.  The
    image's tops, bottoms and shift hold those exponents."""
    field = spec.field
    tops = [num] if image.e else []
    top = _product(field, tops + [factors[l][n] for l, n in image.tops])
    if image.shift:  # times x^b, a shift
        top = Poly(field, np.vstack([np.zeros((image.shift, field.k), dtype=np.int64),
                                     top.digits]))
    return cartier_poly(top), _product(field, [factors[l][n] for l, n in image.bottoms])


def _rational_columns(spec: CurveSpec, plan: _RationalPlan) -> np.ndarray:
    """The (g, g, k) digits of the Cartier matrix in the plan's ordered
    basis, by the rational pipeline: the column of x_j^b y^r dx is the
    signed sum over e <= r of the decompositions of C(x_j^b f^e dx), each
    in y-layer r - e.  The pole factors and the powers N^e are built once
    per curve, and each live image of the plan (_Image) is built and
    decomposed once, for every column that reads it; a dead image, whose G
    has degree below p - 1, is 0 by degree alone and is skipped.  The
    matrix is written in one scatter."""
    field = spec.field
    loc_to_j = {datum.location: j for j, datum in enumerate(spec.poles) if j >= 1}
    factors = _pole_factors(spec)
    powers = [Poly.constant(field, 1), _f_numerator(spec, factors)]  # N^0, N^1, ...
    while len(powers) <= plan.e_max:
        powers.append(powers[-1] * powers[1])
    # each entry is written once: within a column, each e <= r reads its own
    # y-layer r - e, and each decomposition names a term once
    entries, cols, signs, rows = [], [], [], []
    for image in plan.images:
        if not image.live:
            continue
        pair = _rational_image(spec, powers[image.e], image, factors)
        if pair[0].is_zero():
            continue
        pf = _decompose(pair, loc_to_j)
        # x^n of the poly part from n = 0, then (x - e_l)^-n = x_l^n of each
        # tail from n = 1, at the curve's poles only (_decompose)
        parts = [(0, 0, pf.poly.digits)]
        parts += [(loc_to_j[loc], 1, tail) for loc, tail in pf.tail_digits.items()]
        reads = image.reads.tolist()
        for pole, first, digits in parts:
            for power, row in enumerate(digits.tolist(), first):
                if not any(row):
                    continue
                for col, s, y in reads:
                    entry = plan.index.get((pole, power, y))
                    if entry is None:
                        form = BasisForm(pole, power, y)
                        raise NotInSpan(f"monomial {form.label()} falls outside the basis")
                    entries.append(entry)
                    cols.append(col)
                    signs.append(s)
                    rows.append(row)
    g = len(plan.forms)
    out = np.zeros((g, g, field.k), dtype=np.int64)
    if rows:
        out[entries, cols] = np.array(signs)[:, None] * np.array(rows) % field.p
    return out


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


def rational_matrix(spec: CurveSpec, orders) -> tuple[tuple[BasisForm, ...], np.ndarray]:
    """The basis and the (g, g, k) digits of the Cartier matrix, by the
    rational pipeline, on the cached plan of (p, orders) (_RationalPlan)."""
    plan = _rational_plan(spec.field.p, orders)
    return plan.forms, _rational_columns(spec, plan)
