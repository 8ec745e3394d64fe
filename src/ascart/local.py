"""The local pipeline of the Cartier matrix: truncated Laurent series at
each pole.

It reduces the inner C(g dx), g = x_j^b f^e, of the binomial regrouping
(ascart.cartier) by reading the principal part of g at each pole off its
Laurent series in the paper's local parameter there, w = 1/x at infinity
and u = x - e_l at a finite pole, and applying the pole rules to it.  With
f = u^(-d_l) H_l(u), the series H_l is the pole's own principal part plus
the expansions there of f_0 and of the other poles' parts.  The series of
the x_j there need no products: each term is a binomial coefficient mod p
times a power of one z,

    at infinity, x_j^b = w^b (1 - e_j w)^(-b):   C(t-1, t-b) e_j^(t-b),
    at e_l, x^b = (e_l + u)^b:                   C(b, t) e_l^(b-t),
    at e_l, x_j^b = (-z/(1 - z u))^b:            (-1)^b C(b+t-1, t) z^(b+t)

for z = 1/(e_j - e_l), so the stacks of them of every pole are one gather
from one geometric table of every z per curve, built by doubling, times a
coefficient table, and sum_j f_j(x_j) at each pole is one contraction of
its stack.

Every series at pole l is read-sized: cut to the terms that C reads
there and the d_l + 1 of H_l's own principal part, never more than
(p-1)*d_l + 1 terms.  The powers H_l^e (e <= p-2) are the only series
products, each one truncated convolution of H_l^(e-1) with H_l cut to
its band, one fold and one mod (_powers).  The band is the most terms
H_l can have: H_l is a polynomial, of degree at most d_0 + d_l, at
infinity when f has no finite pole and at the finite pole of a curve
with one, so there each product is by a few terms.  C keeps the
coefficients at exponents -1 mod p in x at infinity and 1 mod p in 1/u
at a finite pole, so of the products H_l^e x_j^b only those
coefficients are computed, each as a gathered dot product
sum_s H_l^e[t-s] x_j^b[s] over the terms where x_j^b can be nonzero.
What depends on (p, orders) alone is a cached layout (_Layout): the
basis, the coefficients of the stacks (binomials mod p, by Pascal's
rule) and the positions of their powers of z, the doubling plan of the
geometric table, each pole's band and its offsets in the flat tables,
and two read tables across all poles, one for the coefficients read
off the H_l^e and one for those of the products, with the matrix entry
and sign of each and, for a product, its term range and gather data.
Its guard that no read falls outside the basis runs once per
(p, orders).  A curve is then one pass: every pole's powers written
into one power table, one gather from it for every direct read, one
call of the gathered dot products in chunks of bounded size for every
product read, and their signed scatters.  Over GF(p) every fold of
digit products is the product by [[1]] and is skipped (_fold); over
GF(p^k), k > 1, the p-th root is taken once, on the matrix.

local_matrix(spec, orders) is the pipeline's entry point for the gate
(cartier_matrix).  support(p, orders) is the pattern of the entries the
layout reads, the only ones any curve with those pole orders can make
nonzero.  The pipeline shares no reduction code with the rational one
(ascart.rational), so each serves as an oracle for the other.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .curve import BasisForm, CurveSpec, binomial_signs, ordered_basis
from .errors import NotInSpan
from .finite_field import Field


def _fold(field: Field, sums: np.ndarray, table: np.ndarray, out=None) -> np.ndarray:
    """The digits mod p of sums @ table, for unreduced digit sums and the
    fold table (field.reduction or _digit_fold) that takes them to k
    digits.  Every fold table is [[1]] over GF(p), so there the fold is
    only the mod, as the p-th root, the identity there, is skipped too
    (local_matrix)."""
    if field.k > 1:
        sums = sums @ table
    return np.remainder(sums, field.p, out=out)


def _digit_fold(field: Field) -> np.ndarray:
    """The (k^2, k) matrix taking the k x k digit products a_i b_j of two
    elements, flattened, to the digits of their product: row i*k + j is
    t^(i+j) mod m, field.multiplication flattened."""
    return field.multiplication.reshape(field.k**2, field.k)


def _powers(field: Field, s: np.ndarray, m: int, n: int, out=None) -> np.ndarray:
    """s^0, ..., s^m to n terms each, for the series s of at most n terms:
    the (m+1, n, k) digits, a view of the packed powers, written into out,
    zero-filled packed rows (m+1, n, 2k-1), when given.  The local pipeline
    builds the powers H_l^e with it, s being H_l cut to its band (_Layout).

    A series over GF(p^k) is an int64 array (N, k) of N coefficients, each
    the digit row of a field element.  Every power is kept packed, its
    digit rows in slots of 2k-1 entries, so that a slot of a convolution
    holds the schoolbook product of two digit rows.  Each s^e is then one
    truncated np.convolve of s^(e-1) with s, so that a polynomial H_l
    costs a product by its few terms, and one fold of the unreduced slots
    to k digits mod p, written into the next packed row (_fold: one
    product by field.reduction and one np.remainder, only the remainder
    over GF(p)).  A slot sums at most
    n*k digit products of at most (p-1)^2, and the fold 2k-1 slots times
    entries of at most p-1, so every sum is at most (2k-1)*n*k*(p-1)^3,
    below 2^47 under the digit cap (check_digit_cap).
    """
    k, slot = field.k, 2 * field.k - 1
    packed = np.zeros((m + 1, n, slot), dtype=np.int64) if out is None else out
    packed[0, 0, 0] = 1
    packed[1:2, : len(s), :k] = s[:n]
    step = packed[1:2, : len(s)].ravel()  # no row at m = 0
    for e in range(2, m + 1):
        c = np.convolve(packed[e - 1].ravel(), step)[: n * slot].reshape(n, slot)
        _fold(field, c, field.reduction, out=packed[e, :, :k])
    return packed[..., :k]


def _negative_binomials(p: int, b_max: int, n: int) -> np.ndarray:
    """C(b + t - 1, t) mod p for b <= b_max and t < n: the terms of
    (1 - z w)^(-b) = sum_t C(b + t - 1, t) z^t w^t.  Row 0 is the series 1,
    and row b is the running sum of row b - 1, as (1 - w)^(-1) = sum_t w^t."""
    out = np.zeros((b_max + 1, n), dtype=np.int64)
    out[0, 0] = 1
    for b in range(1, b_max + 1):
        out[b] = np.cumsum(out[b - 1]) % p
    return out


class _Doubling(NamedTuple):
    """How _geometric lays out and fills rows of given lengths n_r >= 1,
    one row after another in a flat table of size entries: row r starts at
    starts[r], its term 1 is set for the rows second, and each step is the
    flat positions (dst, src, pivot) with z^dst = z^src * z^pivot."""

    size: int
    starts: np.ndarray
    second: np.ndarray
    steps: list


def _doubling(lengths) -> _Doubling:
    """The _Doubling of rows of these lengths.  With z^0, ..., z^(T-1) known
    in every row longer than T, one step sets z^T, ..., z^(2T-2) there, as
    z^1, ..., z^(T-1) times z^(T-1); T starts at 2."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    steps, top = [], 2
    while top < lengths.max(initial=0):
        rows = np.nonzero(lengths > top)[0]
        count = np.minimum(lengths[rows], 2 * top - 1) - top
        first = np.repeat(starts[rows], count)
        s = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        steps.append((first + top + s, first + 1 + s, first + top - 1))
        top = 2 * top - 1
    return _Doubling(int(lengths.sum()), starts, np.nonzero(lengths > 1)[0], steps)


class _Pole(NamedTuple):
    """Where the series of one pole l sit in the flat tables of a _Layout.
    Each has size = n_l terms; those of H_l^e are columns offset, ...,
    offset + n_l - 1 of the power table, and H_l has no nonzero term at or
    past band.  The stack of pole l is len(f_rows) series, from row stack
    of the flat stack, and f_rows[i] is the row, in the concatenated digits
    of the f_j, of the coefficient c_(j,i') of f_j that multiplies stacked
    series i, x_j^i'."""

    size: int
    band: int
    offset: int
    stack: int
    f_rows: np.ndarray


class _Layout:
    """The part of the local pipeline that depends only on p and the pole
    orders (of genus g >= 1): the basis and every read-only table of one
    curve's pass, laid out flat across the poles, with each pole's offsets
    (poles, a _Pole each) baked in.

    The powers H_l^e of every pole fill one (e_max+1, width, k) power
    table, width = sum_l n_l: term t of H_l^e is its flat row
    e*width + offset_l + t.  A direct read takes such a term itself: a
    column (l, e, t, row, col, sign) of direct, naming the matrix entry
    (row, col) it fills and its sign, with its flat row in reads.  A
    product read takes term t of H_l^e x_j^b, sum_s H_l^e[t-s] x_j^b[s]
    over its term range lo <= s <= hi: a column (l, e, t, x, lo, hi, row,
    col, sign) of products, with x the position of x_j^b in pole l's stack
    of the powers x_j^0, ..., x_j^(d_j) of every j != l.  gathers holds the
    same reads as flat gather data (h0, x0, length, start): with the terms
    of all reads numbered m = start, ..., start + length - 1, term m is the
    product of row h0 - m of the power table and row x0 + m of the flat
    stack.  A read outside the basis is refused here, once.

    band is the most terms H_l can have in the family: H_l = u^(d_l) f is
    a polynomial, of degree d_0 at infinity when f has no finite pole and
    d_0 + d_l at the finite pole of a curve with exactly one, and
    otherwise a series, cut to its n_l terms.

    Term t of x_j^b at pole l is a binomial coefficient mod p times a power
    of one z, a pole location e_j or, for a pair of finite poles, the
    inverse 1/(e_j - e_l) of pairs[i], in that order (z row j - 1, or
    len(orders) - 1 + i):

        at infinity, x_j = w/(1 - e_j w):  x_j^b[t] = C(t-1, t-b) e_j^(t-b),
        at e_l, x = e_l + u:               x^b[t] = C(b, t) e_l^(b-t),
        at e_l, x_j = -z/(1 - z u):        x_j^b[t] = (-1)^b C(b+t-1, t) z^(b+t),

    with the series 1 at b = 0.  stack is (power, coef): for each term of
    the flat stack of every pole, the position of its power of z in the
    flat table of the doubling plan doubling (_geometric) and its
    coefficient."""

    def __init__(self, p: int, orders):
        self.forms = forms = tuple(ordered_basis(p, orders))
        self.e_max = e_max = max(form.r for form in forms)
        js, bs, rs = np.array(forms).T
        # where[l, i, b]: position of x_l^b y^i dx in the basis, -1 outside
        # it, for every b of the basis (past p - 1 at p = 2) and every power
        # read (at most first // p + 1, below)
        b_end = max(bs.max(), (bs.max() + max(orders) * e_max) // p + 1) + 1
        where = np.full((len(orders), e_max + 1, b_end), -1)
        where[js, rs, bs] = np.arange(len(forms))
        sign, e = binomial_signs(p, e_max), np.arange(e_max + 1)
        sizes, direct, products = [], [], []
        for l, d in enumerate(orders):
            # At pole l, x_j^b f^e = u^-(e*d + s) q_e with s = b for j = l,
            # as x_l^b = u^(-b), and s = 0 otherwise; q_e is H_l^e, or its
            # product with the series of x_j^b.  C keeps u^-n for n = 1 mod
            # p (x^n for n = -1 mod p at infinity), the entry of q_e at
            # t = e*d + s - n, as the coefficient of x_l^power dx in layer
            # y = r - e of x_j^b y^r dx.
            first = np.where(js == l, bs, 0)[:, None] + d * e - (p - 1 if l == 0 else 1)
            t = first[..., None] - p * np.arange(first.max() // p + 1)
            col, e_col, i = np.nonzero((t >= 0) & (e <= rs[:, None])[..., None])
            power, y = i + (l > 0), rs[col] - e_col
            row = where[l, y, power]
            if (row < 0).any():
                a = np.argmax(row < 0)
                form = BasisForm(l, int(power[a]), int(y[a]))
                raise NotInSpan(f"monomial {form.label()} falls outside the basis")
            t, j, b, s = t[col, e_col, i], js[col], bs[col], sign[rs[col], e_col]
            # The series of x_j^b at l starts at w^b at infinity, as
            # x_j = w/(1 - e_j w), and is (e_l + u)^b, of degree b, for j = 0
            # at a finite pole.  A product read with an empty range is 0 and
            # is dropped, leaving its matrix entry 0.
            lo = b * (l == 0)
            hi = np.where((l > 0) & (j == 0), np.minimum(t, b), t)
            is_direct = (j == l) | (b == 0)
            is_product = ~is_direct & (lo <= hi)
            counts = np.array(orders) + 1  # x_j^0, ..., x_j^(d_j) for each j != l
            counts[l] = 0
            x = (np.cumsum(counts) - counts)[j] + b
            pole = np.full_like(t, l)
            direct.append(np.stack([pole, e_col, t, row, col, s])[:, is_direct])
            products.append(np.stack([pole, e_col, t, x, lo, hi, row, col, s])[:, is_product])
            t_d, (t_p, x_p, lo_p, hi_p) = direct[-1][2], products[-1][2:6]
            # The series are read-sized: n terms hold every read, the term t
            # of H_l^e read directly and, for a product, the terms up to
            # t - lo of H_l^e and up to hi of x_j^b, and the d + 1 terms of
            # H_l's own principal part.  Truncated series multiply exactly
            # below u^n, and n <= (p-1)*d + 1, as t < (e+1)*d with b <= d
            # in every basis form and e <= p-2.
            sizes.append(1 + int(max(d, t_d.max(initial=0), (t_p - lo_p).max(initial=0),
                                     hi_p.max(initial=0))))
        power, coef, f_rows = self._closed_forms(p, orders, sizes)
        spans = np.array([n * len(rows) for n, rows in zip(sizes, f_rows)])
        offsets, starts = np.cumsum(sizes) - sizes, np.cumsum(spans) - spans
        sizes, self.width = np.array(sizes), sum(sizes)
        self.poles = []
        for l, (n, rows) in enumerate(zip(sizes.tolist(), f_rows)):
            # H_l is a polynomial where f has no pole but l and infinity
            band = min(n, sum(orders) + 1) if len(orders) == 1 + (l > 0) else n
            self.poles.append(_Pole(n, band, int(offsets[l]), int(starts[l]), rows))
        self.direct, self.products = np.hstack(direct), np.hstack(products)
        l, e, t = self.direct[:3]
        self.reads = e * self.width + offsets[l] + t
        l, e, t, x, lo, hi = self.products[:6]
        length = hi - lo + 1
        start = np.cumsum(length) - length
        self.gathers = np.stack([e * self.width + offsets[l] + t - lo + start,
                                 starts[l] + x * sizes[l] + lo - start, length, start])
        self.stack = power, coef
        for table in (self.direct, self.products, self.reads, self.gathers, power, coef,
                      *f_rows):
            table.setflags(write=False)  # shared by every curve with these orders

    def _closed_forms(self, p: int, orders, sizes) -> tuple:
        """pairs and doubling, and the stacks of series of these sizes from
        the closed forms above: the flat power and coef of stack, and the
        f_rows of each pole."""
        m = len(orders)
        self.pairs = [(l, j) for l in range(1, m) for j in range(1, m) if j != l]
        pair = {lj: i for i, lj in enumerate(self.pairs)}
        coeffs = np.cumsum(np.array(orders) + 1) - np.array(orders) - 1  # where f_j starts
        if m > 1:
            # C(b, t) mod p: the signs (-1)^t C(b, t) times (-1)^t
            binom = binomial_signs(p, orders[0]) * (1 - 2 * (np.arange(orders[0] + 1) % 2)) % p
            negative = _negative_binomials(p, max(orders[1:]), max(sizes))
        lengths = np.ones((m - 1) ** 2, dtype=np.int64)  # of each z row's powers read
        stacks = []
        for l, n in enumerate(sizes):
            t = np.arange(n)
            rows = [(np.zeros(0, np.int64), np.zeros((0, n), np.int64),  # empty for one pole
                     np.zeros((0, n), np.int64), np.zeros(0, np.int64))]
            for j in range(m):
                if j == l:
                    continue
                b = np.arange(orders[j] + 1)[:, None]
                if l == 0:
                    s = np.maximum(t - b, 0)
                    z, power, coef = j - 1, s, np.where(t >= b, negative[b, s], 0)
                elif j == 0:
                    s = np.minimum(t, b)
                    z, power, coef = l - 1, b - s, np.where(t <= b, binom[b, s], 0)
                else:
                    z = m - 1 + pair[l, j]
                    power, coef = b + t, (1 - 2 * (b % 2)) * negative[b, t] % p
                rows.append((np.full(len(b), z), power, coef, coeffs[j] + b[:, 0]))
            z, power, coef, coeff = (np.concatenate(part) for part in zip(*rows))
            np.maximum.at(lengths, z, power.max(axis=1, initial=0) + 1)
            stacks.append((z, power, coef, coeff))
        self.doubling = _doubling(lengths)
        power = np.concatenate([(self.doubling.starts[z, None] + power).ravel()
                                for z, power, _, _ in stacks])
        coef = np.concatenate([coef.ravel() for _, _, coef, _ in stacks])[:, None]
        return power, coef, [coeff for *_, coeff in stacks]


_layout = functools.lru_cache(maxsize=64)(_Layout)


def support(p: int, orders) -> np.ndarray:
    """The g x g entries that the Cartier matrix of a curve with these pole
    orders can make nonzero, as a read-only boolean pattern: the (row, col)
    of every direct and product read of the cached layout (_Layout), of
    genus g >= 1.  Every other entry is 0 by construction, so the term rank
    of the pattern bounds the rank of every curve of the family."""
    layout = _layout(p, tuple(orders))
    g = len(layout.forms)
    out = np.zeros((g, g), dtype=bool)
    for table in (layout.direct, layout.products):
        out[table[-3], table[-2]] = True
    out.setflags(write=False)
    return out


_CHUNK = 2**16  # digit products summed at a time by _gathered_products


def _geometric(field: Field, z: np.ndarray, plan: _Doubling) -> np.ndarray:
    """z_r^0, ..., z_r^(n_r - 1) for every row z_r of the (rows, k) digits z,
    laid out flat by the plan (_doubling) of the lengths n_r: the
    (plan.size, k) digits.  Each doubling step is one digit product of a
    batch of known powers by one known power per row, folded to k digits
    (_digit_fold); its sums stay below k^2 * p^3 < 2^63 within the field
    cap."""
    k, fold = field.k, _digit_fold(field)
    out = np.zeros((plan.size, k), dtype=np.int64)
    out[plan.starts, 0] = 1
    out[plan.starts[plan.second] + 1] = z[plan.second]
    for dst, src, pivot in plan.steps:
        terms = out.take(src, axis=0)[:, :, None] * out.take(pivot, axis=0)[:, None, :]
        out[dst] = _fold(field, terms.reshape(len(dst), k * k), fold)
    return out


def _gathered_products(field: Field, powers: np.ndarray, xs: np.ndarray, gather) -> np.ndarray:
    """The (reads, k) digits of the product reads of every pole: term t of
    H_l^e x_j^b, sum_s H_l^e[t-s] x_j^b[s], for the power table powers and
    the flat stack xs of the x_j powers, as gather (_Layout.gathers) lays
    them out.

    The reads go in chunks, those that start within one window of
    _CHUNK // k^2 terms, so a chunk has at most one read's terms more than
    that.  Each chunk is one gather from the powers, one from xs, their
    k x k digit products, one np.add.reduceat over each read's terms, and
    one fold to k digits (_fold).
    """
    p, k = field.p, field.k
    h0, x0, length, start = gather
    hs, xs = powers.reshape(-1, k), xs.reshape(-1, k)
    out = np.empty((len(start), k), dtype=np.int64)
    windows = np.arange(0, start[-1] + length[-1], max(1, _CHUNK // k**2))
    cuts = np.searchsorted(start, windows).tolist()
    for a, b in zip(cuts, [*cuts[1:], len(start)]):
        if a == b:  # the window lies inside a read that started before it
            continue
        m = np.arange(start[a], start[b - 1] + length[b - 1])
        h = hs.take(np.repeat(h0[a:b], length[a:b]) - m, axis=0)
        x = xs.take(np.repeat(x0[a:b], length[a:b]) + m, axis=0)
        terms = (h[:, :, None] * x[:, None, :]).reshape(len(m), k * k)
        out[a:b] = _fold(field, np.add.reduceat(terms, start[a:b] - start[a]) % p,
                         _digit_fold(field))
    return out


def local_matrix(spec: CurveSpec, orders) -> tuple[tuple[BasisForm, ...], np.ndarray]:
    """The basis and the (g, g, k) digits of the Cartier matrix, by the
    local pipeline, in one pass per curve over the layout's flat tables.

    One geometric table of every z the closed forms read (_geometric), and
    one gather from it times the layout's coefficients gives the stack of
    every pole at once: at pole l, in the local parameter there, w = 1/x
    at infinity or u = x - e_l at a finite pole, the powers of every other
    x_j.  Then each pole l builds H_l = u^d f, whose regular part
    sum_j f_j(x_j) is one contraction of its stack with the coefficients of
    the f_j, and writes its powers H_l^e, from H_l cut to its band, in
    place into one power table (_powers).  Every series has the layout's
    read-sized n_l terms.  One gather from that table serves every direct
    read, and one call of _gathered_products every product read: only the
    terms of H_l^e x_j^b that C keeps, as gathered dot products.  Both
    scatter, signed, into the matrix.  The p-th root, GF(p)-linear, is
    taken once, on the matrix, and not at all over GF(p), where it is the
    identity.

    The int64 sums stay exact, as N <= (p-1)*d_l + 1: each of the k^2
    digit sums of a product read, before the fold to k digits, adds at most
    N digit products, each at most (p-1)^2, so it is at most
    N*k*(p-1)^2 < 2^35 under the digit cap (check_digit_cap), and a power's
    unreduced fold (_powers) is at most (2k-1)*N*k*(p-1)^3 < 2^47.  The
    contraction adds one digit product per stacked power, fewer than
    D + 2 <= 2g + 2 of them, so its sums stay below (2g + 2)*(p-1)^2 < 2^35
    too.  The folds and the scatter take residues mod p.
    """
    field, p, k = spec.field, spec.field.p, spec.field.k
    layout = _layout(p, orders)
    locs = [datum.location for datum in spec.poles]
    # the coefficients of every f_j as a polynomial in x_j, a finite pole's
    # part with no constant term, then every z, in one conversion to digits
    elements = list(spec.poles[0].coeffs)
    for datum in spec.poles[1:]:
        elements += [field.zero, *datum.coeffs]
    split = len(elements)
    elements += locs[1:] + [(locs[j] - locs[l]).inverse() for l, j in layout.pairs]
    digits = field.digit_array(elements)
    coeffs, z = digits[:split], digits[split:]
    power, coef = layout.stack
    xs = _geometric(field, z, layout.doubling).take(power, axis=0) * coef % p
    fold = _digit_fold(field)
    packed = np.zeros((layout.e_max + 1, layout.width, 2 * k - 1), dtype=np.int64)
    start = 0  # where f_l starts in coeffs
    for pole, d in zip(layout.poles, orders):
        n, band, f_rows = pole.size, pole.band, pole.f_rows
        stack = xs[pole.stack : pole.stack + len(f_rows) * n]  # x_j^0, ..., x_j^(d_j), j != l
        # term t of sum_j f_j(x_j): the digit products of sum_(j,i) x_j^i[t] c_(j,i)
        f = (stack.reshape(len(f_rows), n * k).T @ coeffs[f_rows]).reshape(n, k * k)
        h = np.zeros((band, k), dtype=np.int64)  # H_l, cut to its band
        h[: d + 1] = coeffs[start : start + d + 1][::-1]  # the own principal part times u^d
        start += d + 1
        h[d:] = (h[d:] + _fold(field, f[: band - d] % p, fold)) % p
        _powers(field, h, layout.e_max, n, out=packed[:, pole.offset : pole.offset + n])
    powers = packed[..., :k].reshape(-1, k)  # a view: the flat rows e*width + offset_l + t
    out = np.zeros((len(layout.forms), len(layout.forms), k), dtype=np.int64)
    *_, row, col, sign = layout.direct
    out[row, col] = sign[:, None] * powers.take(layout.reads, axis=0) % p
    *_, row, col, sign = layout.products
    if len(sign):
        out[row, col] = sign[:, None] * _gathered_products(field, powers, xs, layout.gathers) % p
    if k > 1:  # the pth_root of each entry, the identity over GF(p)
        out = out @ field.pth_root_matrix
        np.remainder(out, p, out=out)
    return layout.forms, out
