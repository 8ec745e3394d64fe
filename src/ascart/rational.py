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
the basis, a record of each (j, b, e) whose image is not 0 by degree
(_Image) and one table of where each term goes.  A curve is then one pass
(_rational_columns): one decomposition per image, one guard, one scatter.

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


def _ragged(counts: np.ndarray) -> np.ndarray:
    """0, ..., n - 1 for each n of counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


class _Image(NamedTuple):
    """An image C(x_j^b f^e dx) that columns of the rational pipeline read,
    amplified as x_j^b f^e = G / h^p (_rational_image).  With m_l = e*d_l
    (+ b at l = j) at the finite poles l >= 1, tops and bottoms are the
    pairs (l - 1, -m_l mod p) and (l - 1, ceil(m_l/p)) with a nonzero
    exponent: the powers of x - e_l in G and in h, by their index in the
    pole factors (_pole_factors).  shift is b at j = 0, the factor x^b of
    G, and 0 otherwise.  runs maps each pole i of C(G dx)/h to the slots
    (first, count) of its terms: x^0..x^top, top = deg C(G dx) - deg h, at
    i = 0, and x_i^1..x_i^n, x_i = 1/(x - e_i), at each bottom (i - 1, n)."""

    j: int
    b: int
    e: int
    tops: tuple
    bottoms: tuple
    shift: int
    runs: dict


class _RationalPlan:
    """The part of the rational pipeline that depends only on p and the pole
    orders (of genus g >= 1): the ordered basis forms, e_max, and images,
    an _Image for each (j, b, e) that a column x_j^b y^r dx reads (e <= r),
    sorted, but the dead ones: C keeps the degrees = -1 mod p of G, of exact
    degree e*sum_j d_j + sum_l (-m_l mod p) + shift (validate), so C(G dx)
    is 0 if that is below p - 1.  table has a column (slot, entry, col, sign)
    for each slot and each read of its image, x_j^b y^r dx: the slot's term
    x_i^n, in y-layer r - e, is entry (entry, col), -1 outside the basis,
    times (-1)^e C(r, e) mod p; refused is (slot, i, n, r - e) at each -1."""

    def __init__(self, p: int, orders):
        self.forms = forms = tuple(ordered_basis(p, orders))
        self.e_max = e_max = max(form.r for form in forms)
        # in (j, b, r) order, column x_j^b y^e dx heads image (j, b, e), read
        # by the columns from it to the end of its (j, b) group, a:z of order
        js, bs, rs = np.array(forms).T
        order = np.lexsort((rs, bs, js))
        heads = [forms[col] for col in order.tolist()]
        ends = {(j, b): z for z, (j, b, _) in enumerate(heads, 1)}
        images, runs, slots = [], [], 0  # runs: (pole, count, a, z), in slot order
        for a, (j, b, e) in enumerate(heads):
            m = [e * d + (b if l == j else 0) for l, d in enumerate(orders)][1:]
            tops = tuple((l, -n % p) for l, n in enumerate(m) if n % p)
            bottoms = tuple((l, -(-n // p)) for l, n in enumerate(m) if n)
            shift = b if j == 0 else 0
            degree = e * sum(orders) + sum(n for _, n in tops) + shift
            if degree >= p - 1:
                top = (degree + 1) // p - 1 - sum(n for _, n in bottoms)
                image_runs = {}
                for pole, count in [(0, max(top + 1, 0)), *((l + 1, n) for l, n in bottoms)]:
                    image_runs[pole], slots = (slots, count), slots + count
                    runs.append((pole, count, a, ends[j, b]))
                images.append(_Image(j, b, e, tops, bottoms, shift, image_runs))
        self.images, self.slots = tuple(images), slots
        # each slot of each run, from x^0 or x_i^1, then each read of its image
        pole, count, a, z = np.array(runs, dtype=np.int64).reshape(-1, 4).T
        power = (np.repeat(pole, count) > 0) + _ragged(count)
        pole, a, reads = (np.repeat(v, count) for v in (pole, a, z - a))
        slot, a = np.repeat(np.arange(slots), reads), np.repeat(a, reads)
        col, e = order[a + _ragged(reads)], rs[order[a]]
        pole, power, y = pole[slot], power[slot], rs[col] - e
        # where[i, y, n]: position of x_i^n y^y dx in the basis, -1 outside it
        where = np.full((len(orders), e_max + 1, max(bs.max(), power.max(initial=0)) + 1), -1)
        where[js, rs, bs] = np.arange(len(forms))
        entry = where[pole, y, power]
        self.table = np.stack([slot, entry, col, binomial_signs(p, e_max)[rs[col], e]])
        self.refused = np.stack([slot, pole, power, y])[:, entry < 0]
        for table in (self.table, self.refused):
            table.setflags(write=False)  # shared by every curve with these orders


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
    in y-layer r - e.  Each image of the plan (_Image) is decomposed once
    into the slots of its terms; one guard refuses a nonzero slot read
    outside the basis, and one signed scatter of the table writes M."""
    field, g = spec.field, len(plan.forms)
    loc_to_j = {datum.location: j for j, datum in enumerate(spec.poles) if j >= 1}
    factors = _pole_factors(spec)
    powers = [Poly.constant(field, 1), _f_numerator(spec, factors)]  # N^0, N^1, ...
    while len(powers) <= plan.e_max:
        powers.append(powers[-1] * powers[1])
    terms = np.zeros((plan.slots, field.k), dtype=np.int64)
    for image in plan.images:
        pf = _decompose(_rational_image(spec, powers[image.e], image, factors), loc_to_j)
        # x^n of the poly part from n = 0, then (x - e_l)^-n = x_l^n of each
        # tail from n = 1, at the curve's poles only (_decompose)
        parts = [(0, pf.poly.digits)]
        parts += [(loc_to_j[loc], tail) for loc, tail in pf.tail_digits.items()]
        for pole, digits in parts:
            first, count = image.runs.get(pole, (0, 0))
            if len(digits) > count:  # a bug, named by its first term past the run
                n = count + int(digits[count:].any(axis=1).argmax()) + (pole > 0)
                form = BasisForm(pole, n, 0)  # as the image's own column reads it
                where = "past its image's degree" if form in plan.forms else "outside the basis"
                raise NotInSpan(f"monomial {form.label()} falls {where}")
            terms[first : first + len(digits)] = digits
    hit = terms[plan.refused[0]].any(axis=1)
    if hit.any():
        form = BasisForm(*plan.refused[1:, hit.argmax()].tolist())
        raise NotInSpan(f"monomial {form.label()} falls outside the basis")
    # one write per entry, as a column reads y-layer r - e for each e <= r
    slot, entry, col, sign = plan.table  # entry -1 lands in the spare row g
    out = np.zeros((g + 1, g, field.k), dtype=np.int64)
    out[entry, col] = sign[:, None] * terms.take(slot, axis=0) % field.p
    return out[:g]


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
