"""The local pipeline of the Cartier matrix: truncated Laurent series at
each pole.

It computes the images C(x_j^b f^e dx) of the binomial regrouping
(ascart.cartier), one per basis form x_j^b y^e dx, by reading the
principal part of x_j^b f^e at each pole off its Laurent series in the
paper's local parameter there, w = 1/x at infinity and u = x - e_l at a
finite pole, and applying the pole rules to it.  With
f = u^(-d_l) H_l(u), the series H_l is the pole's own principal part plus
the expansions there of f_0 and of the other poles' parts.  The series of
the x_j there need no products: each term is a binomial coefficient mod p
times a power of one z,

    at infinity, x_j^b = w^b (1 - e_j w)^(-b):   C(t-1, t-b) e_j^(t-b),
    at e_l, x^b = (e_l + u)^b:                   C(b, t) e_l^(b-t),
    at e_l, x_j^b = (-z/(1 - z u))^b:            (-1)^b C(b+t-1, t) z^(b+t)

for z = 1/(e_j - e_l), so the stacks of them of every pole are one gather
from one geometric table of every z per curve, a few rectangles each
built by doubling its rows at once, times a coefficient table, and
sum_j f_j(x_j) at every pole is one contraction of the stacks.  Each
coefficient is an entry of one table of C(b + t - 1, t) mod p
(_negative_binomials), C(b, t) as C((b-t+1) + t-1, t).

Every series at pole l is read-sized: cut to the terms that C reads
there and the d_l + 1 of H_l's own principal part, never more than
(p-1)*d_l + 1 terms, and a pole that no read reaches has no series.
The powers H_l^e (e <= p-2) are the only series products, built for
every pole at once, one fold per power (_powers).  C
keeps the coefficients at exponents -1 mod p in x at infinity and 1 mod p
in 1/u at a finite pole, so of the products H_l^e x_j^b only those
coefficients are computed, each as a gathered dot product
sum_s H_l^e[t-s] x_j^b[s] over the terms where x_j^b can be nonzero.
Each such coefficient is one read of one image, and no two reads
coincide.  What depends on (p, orders) alone is a cached layout
(_Layout), with the chunk cuts of its product reads cached per k
(_chunks), and a curve is one pass over its flat tables (local_matrix).

local_matrix(spec, orders) is the pipeline's entry point for the gate
(cartier_matrix): the basis and the (D_0, g, k) block of images, which
the gate lifts to the matrix.  image_support(p, orders) is the pattern of
the block's entries the layout reads.  The pipeline shares no reduction
code with the rational one (ascart.rational), so each serves as an oracle
for the other.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

import numpy as np

from .curve import BasisForm, CurveSpec, ordered_basis
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


def _powers(field: Field, h: np.ndarray, poles, m: int) -> np.ndarray:
    """H_l^0, ..., H_l^m to n_l terms each, for every pole l of poles (a
    _Pole each), from the (width, k) digits h of every H_l at its pole's
    offset, zero at and past its band, the poles' terms tiling h: the
    (m+1, width, k) digits, a view of the packed powers, term t of H_l^e at
    [e, offset_l + t].  A pole with no series (n_l = 0) has no terms.

    A series over GF(p^k) is an int64 array (N, k) of N coefficients, each
    the digit row of a field element.  Every power is kept packed, its
    digit rows in slots of 2k-1 entries, so that a slot of a convolution
    holds the schoolbook product of two digit rows.  Each H_l^e is then
    one truncated convolution of H_l^(e-1) with H_l cut to its band, so
    that a polynomial H_l costs a product by its few terms: np.correlate
    with the packed H_l reversed once, which is np.convolve without its
    per-call wrapper, into one scratch row of every pole's slots.  Then one
    fold of the unreduced slots of every pole to k digits mod p is written
    into the next packed row (_fold: one product by field.reduction and one
    np.remainder, only the remainder over GF(p)).  A slot sums at most
    n*k digit products of at most (p-1)^2, and the fold 2k-1 slots times
    entries of at most p-1, so every sum is at most (2k-1)*n*k*(p-1)^3,
    below 2^47 under the digit cap (check_digit_cap).
    """
    k, slot, width = field.k, 2 * field.k - 1, len(h)
    packed = np.zeros((m + 1, width, slot), dtype=np.int64)
    rows = packed.reshape(m + 1, width * slot)  # a view: each power as one flat row
    packed[1:2, :, :k] = h
    scratch = np.empty(width * slot, dtype=np.int64)  # the poles' slots tile it
    steps = []  # each pole's slots in every power and in scratch, and its band reversed once
    for pole in poles:
        if pole.size:
            a, b = pole.offset * slot, (pole.offset + pole.size) * slot
            rows[0, a] = 1
            band = rows[1:2, a : a + pole.band * slot].ravel()  # none at m = 0
            steps.append((rows[:, a:b], scratch[a:b], band[::-1].copy()))
    # over GF(p) a slot is one digit, and a row of slots the digits of a power
    shape, digits = ((width, slot), packed[..., :k]) if k > 1 else ((width,), rows)
    sums = scratch.reshape(shape)
    for e in range(2, m + 1):
        for power, c, step in steps:
            c[:] = np.correlate(power[e - 1], step, "full")[: len(c)]
        _fold(field, sums, field.reduction, out=digits[e])
    return packed[..., :k]


def _negative_binomials(p: int, b_max: int, n: int) -> np.ndarray:
    """C(b + t - 1, t) mod p for b <= b_max and t < n, the terms of
    (1 - z w)^(-b), and C(b, t) at row b - t + 1.  Row 0 is the series 1,
    and row b is the running sum of row b - 1, as (1 - w)^(-1) = sum_t w^t."""
    out = np.zeros((b_max + 1, n), dtype=np.int64)
    out[0, 0] = 1
    for b in range(1, b_max + 1):
        out[b] = np.cumsum(out[b - 1]) % p
    return out


class _Pole(NamedTuple):
    """Where the series of one pole l sit in the power table of a _Layout.
    Each has size = n_l terms, 0 at a pole that no read reaches; those of
    H_l^e are columns offset, ..., offset + n_l - 1 of the power table,
    and H_l has no nonzero term at or past band."""

    size: int
    band: int
    offset: int


class _Layout:
    """The part of the local pipeline that depends only on p and the pole
    orders (of genus g >= 1): the basis and every read-only table of one
    curve's pass, laid out flat across the poles, with each pole's offsets
    (poles, a _Pole each) baked in.

    The powers H_l^e of every pole fill one (e_max+1, width, k) power
    table, width = sum_l n_l: term t of H_l^e is its flat row
    e*width + offset_l + t.  A pole that no read reaches has n_l = 0 and
    no series at all.  Each read is one coefficient of one image, of the
    level-0 form row < d0 in image col.  A direct read takes a term of
    H_l^e itself: a column (l, e, t, row, col) of direct, with its flat
    row in reads.  A product read takes term t of H_l^e x_j^b,
    sum_s H_l^e[t-s] x_j^b[s] over its term range lo <= s <= hi: a column
    (l, e, t, x, lo, hi, row, col) of products, with x the position of
    x_j^b in pole l's stack of the powers x_j^0, ..., x_j^(d_j) of every
    j != l.  gathers is its flat gather data (h0, x0, length, start): with
    the terms of the product reads numbered m = start, ...,
    start + length - 1, term m is the product of row h0 - m of the power
    table and row x0 + m of the flat stack.  A read outside the level-0
    forms is refused here, once.

    band is the most terms H_l can have in the family: H_l = u^(d_l) f is
    a polynomial, of degree d_0 at infinity when f has no finite pole and
    d_0 + d_l at the finite pole of a curve with exactly one, and
    otherwise a series, cut to its n_l terms.  Every H_l, to its n_l
    terms, is built at rows offset_l, ..., offset_l + n_l - 1 of one flat
    (width, k) table.  Its terms d_l + t are one contraction, (stack,
    coeff_rows, groups, rows): term t of sum_j f_j(x_j) at pole l is
    sum_(j,i) x_j^i[t] c_(j,i), a group of consecutive products, each of
    stack row stack[m] and of row coeff_rows[m] of the concatenated digits
    of the f_j, from groups[g] on, summed into flat row rows[g].  Its own
    principal part, times u^d_l, its terms 0, ..., d_l, is own: the flat
    rows and the rows of the coefficients of f_l.  A pole with no other
    pole stacks nothing.

    Term t of x_j^b at pole l is a binomial coefficient mod p times a power
    of one z (the closed forms above, with the series 1 at b = 0), a row of
    z_rows: a pole location e_j, (0, j), or 1/(e_j - e_l) for finite poles
    l != j, (l, j).  pairs holds each such (l, j) or (j, l) once, as l < j.
    stack is (power, coef): for each term of the flat stack of every pole,
    the stack of pole l its n_l terms of each x_j^b in turn, the position
    of its power of z in the flat geometric table (_geometric), and its
    coefficient.  Each of the table's rectangles (count, n) holds the next
    count z rows, whose longest reads lie in one range (2^(c-1), 2^c], to
    n, the longest: fewer than twice the stack's."""

    def __init__(self, p: int, orders):
        self.forms = forms = tuple(ordered_basis(p, orders))
        self.e_max = e_max = max(form.r for form in forms)
        js, bs, rs = np.array(forms).T
        self.d0 = d0 = int((rs == 0).sum())  # the level-0 forms, first in the basis
        # where[l, b]: position of x_l^b dx in the basis, -1 outside it, for
        # every b of the basis (past p - 1 at p = 2) and every power read
        # (at most first // p + 1, below)
        b_end = max(bs.max(), (bs.max() + max(orders) * e_max) // p + 1) + 1
        where = np.full((len(orders), b_end), -1)
        where[js[:d0], bs[:d0]] = np.arange(d0)
        sizes, direct, products = [], [], []
        for l, d in enumerate(orders):
            # Image col is C(x_j^b f^e dx) for the form x_j^b y^e dx of
            # column col.  At pole l, x_j^b f^e = u^-(e*d + s) q_e with s = b
            # for j = l, as x_l^b = u^(-b), and s = 0 otherwise; q_e is
            # H_l^e, or its product with the series of x_j^b.  C keeps u^-n
            # for n = 1 mod p (x^n for n = -1 mod p at infinity), the entry
            # of q_e at t = e*d + s - n, as the coefficient of x_l^power dx.
            first = np.where(js == l, bs, 0) + d * rs - (p - 1 if l == 0 else 1)
            t = first[:, None] - p * np.arange(first.max() // p + 1)
            col, i = np.nonzero(t >= 0)
            power = i + (l > 0)
            row = where[l, power]
            if (row < 0).any():
                form = BasisForm(l, int(power[np.argmax(row < 0)]), 0)
                raise NotInSpan(f"monomial {form.label()} falls outside the basis")
            t, j, b, e = t[col, i], js[col], bs[col], rs[col]
            # The series of x_j^b at l starts at w^b at infinity, as
            # x_j = w/(1 - e_j w), and is (e_l + u)^b, of degree b, for j = 0
            # at a finite pole.  A product read with an empty range is 0 and
            # is dropped, leaving its entry of the block 0.
            lo = b * (l == 0)
            hi = np.where((l > 0) & (j == 0), np.minimum(t, b), t)
            is_direct = (j == l) | (b == 0)
            is_product = ~is_direct & (lo <= hi)
            counts = np.array(orders) + 1  # x_j^0, ..., x_j^(d_j) for each j != l
            counts[l] = 0
            x = (np.cumsum(counts) - counts)[j] + b
            pole = np.full_like(t, l)
            direct.append(np.stack([pole, e, t, row, col])[:, is_direct])
            products.append(np.stack([pole, e, t, x, lo, hi, row, col])[:, is_product])
            t_d, (t_p, x_p, lo_p, hi_p) = direct[-1][2], products[-1][2:6]
            # The series are read-sized: n terms hold every read, the term t
            # of H_l^e read directly and, for a product, the terms up to
            # t - lo of H_l^e and up to hi of x_j^b, and the d + 1 terms of
            # H_l's own principal part.  Truncated series multiply exactly
            # below u^n, and n <= (p-1)*d + 1, as t < (e+1)*d with b <= d
            # in every basis form and e <= p-2.  A pole that no read reaches
            # has no series.
            sizes.append(1 + int(max(d, t_d.max(initial=0), (t_p - lo_p).max(initial=0),
                                     hi_p.max(initial=0))) if t_d.size + t_p.size else 0)
        fs = np.cumsum(np.array(orders) + 1) - np.array(orders) - 1  # where f_l starts
        power, coef, f_rows = self._closed_forms(p, orders, sizes, fs)
        spans = np.array([n * len(rows) for n, rows in zip(sizes, f_rows)])
        offsets, starts = np.cumsum(sizes) - sizes, np.cumsum(spans) - spans
        sizes, self.width = np.array(sizes), sum(sizes)
        # H_l's terms d_l, ..., n_l - 1 from the stack, none without another pole
        terms = [n - d if n and len(rows) else 0 for n, rows, d in zip(sizes, f_rows, orders)]
        stack = np.empty(np.dot(terms, [len(rows) for rows in f_rows]), dtype=np.int64)
        coeff_rows, groups, at, own = np.empty_like(stack), [], [], []
        self.poles, cut = [], 0
        for l, (n, rows, d, count) in enumerate(zip(sizes.tolist(), f_rows, orders, terms)):
            # H_l is a polynomial where f has no pole but l and infinity
            band = min(n, sum(orders) + 1) if len(orders) == 1 + (l > 0) else n
            self.poles.append(_Pole(n, band, int(offsets[l])))
            # group t: the term t of each stacked x_j^i and the row of c_(j,i)
            block, t = slice(cut, cut + count * len(rows)), np.arange(count)
            np.add.outer(starts[l] + t, n * np.arange(len(rows)),
                         out=stack[block].reshape(count, len(rows)))
            coeff_rows[block].reshape(count, len(rows))[:] = rows
            groups.append(cut + len(rows) * t)
            at.append(offsets[l] + d + t)
            cut += count * len(rows)
            i = np.arange(d + 1 if n else 0)
            own.append((offsets[l] + i, fs[l] + d - i))
        self.contraction = stack, coeff_rows, np.concatenate(groups), np.concatenate(at)
        self.own = tuple(np.concatenate(part) for part in zip(*own))
        self.direct, self.products = np.hstack(direct), np.hstack(products)
        l, e, t = self.direct[:3]
        self.reads = e * self.width + offsets[l] + t
        l, e, t, x, lo, hi = self.products[:6]
        length = hi - lo + 1
        start = np.cumsum(length) - length
        self.gathers = np.stack([e * self.width + offsets[l] + t - lo + start,
                                 starts[l] + x * sizes[l] + lo - start, length, start])
        self.stack = power, coef
        for table in (self.direct, self.products, self.reads, self.gathers,
                      power, coef, *self.contraction, *self.own):
            table.setflags(write=False)  # shared by every curve with these orders

    def _closed_forms(self, p: int, orders, sizes, fs) -> tuple:
        """z_rows, pairs and rectangles, and the stacks of series of these sizes
        from the closed forms above: the flat power and coef of stack, and
        for each pole the rows of the coefficients of the f_j, which start
        at rows fs, that multiply its stacked series."""
        m = len(orders)
        negative = _negative_binomials(p, max(orders) + 1, max(sizes)) if m > 1 else None
        blocks, f_rows = [], []  # (z, power, coef) of each x_j^0, ..., x_j^(d_j) at each pole
        for l, n in enumerate(sizes):
            t, rows = np.arange(n), [np.zeros(0, np.int64)]  # no rows for one pole
            for j in range(m):
                if j == l:
                    continue
                b = np.arange(orders[j] + 1)[:, None]
                if l == 0:
                    s = np.maximum(t - b, 0)
                    z, power, coef = (0, j), s, np.where(t >= b, negative[b, s], 0)
                elif j == 0:
                    s = np.minimum(t, b)
                    z, power, coef = (0, l), b - s, np.where(t <= b, negative[b - s + 1, s], 0)
                else:
                    z, power, coef = (l, j), b + t, (1 - 2 * (b % 2)) * negative[b, t] % p
                if n:
                    blocks.append((z, power, coef))
                rows.append(fs[j] + b[:, 0])
            f_rows.append(np.concatenate(rows))
        length = {}  # the powers of each z read
        for z, power, _ in blocks:
            length[z] = max(length.get(z, 0), int(power.max()) + 1)
        self.z_rows = tuple(sorted(length, key=length.get, reverse=True))
        self.pairs = sorted({(min(l, j), max(l, j)) for l, j in self.z_rows if l})
        start, rectangles = {}, []
        for _, group in itertools.groupby(self.z_rows, lambda z: (length[z] - 1).bit_length()):
            group = list(group)  # its longest first
            base = sum(count * n for count, n in rectangles)
            start.update((z, base + i * length[group[0]]) for i, z in enumerate(group))
            rectangles.append((len(group), length[group[0]]))
        self.rectangles = tuple(rectangles)
        empty = [np.zeros(0, np.int64)]  # no blocks for one pole
        power = np.concatenate([(start[z] + b).ravel() for z, b, _ in blocks] or empty)
        coef = np.concatenate([coef.ravel() for *_, coef in blocks] or empty)
        return power, coef[:, None], f_rows


_layout = functools.lru_cache(maxsize=64)(_Layout)


def image_support(p: int, orders) -> np.ndarray:
    """The (D_0, g) entries of the block of images that the cached layout
    of a family of genus g reads, the only ones any curve of the family can
    make nonzero, as a read-only boolean pattern; (0, 0) at g = 0, which
    has no layout."""
    out = np.zeros((0, 0), dtype=bool)
    if ordered_basis(p, orders):
        layout = _layout(p, tuple(orders))
        out = np.zeros((layout.d0, len(layout.forms)), dtype=bool)
        for table in (layout.direct, layout.products):
            out[table[-2], table[-1]] = True
    out.setflags(write=False)
    return out


_CHUNK = 2**16  # digit products summed at a time by _gathered_products


def _geometric(field: Field, z: np.ndarray, rectangles) -> np.ndarray:
    """z_r^0, ..., z_r^(n-1) for every row z_r of the (rows, k) digits z,
    for each (count, n) of rectangles the next count rows to n powers: the
    flat digits, each rectangle's (count, n, k) table after the one before.
    With z^0, ..., z^(T-1) known, one doubling step sets z^T, ..., z^(2T-2)
    of every row of a rectangle at once, as z^1, ..., z^(T-1) times
    z^(T-1), one digit product folded to k digits (_digit_fold); T starts
    at 2.  Its sums stay below k^2 * p^3 < 2^63 within the field cap."""
    k, fold = field.k, _digit_fold(field)
    out = np.zeros((sum(count * n for count, n in rectangles), k), dtype=np.int64)
    row = base = 0
    for count, n in rectangles:
        table = out[base : base + count * n].reshape(count, n, k)
        table[:, 0, 0] = 1
        table[:, 1:2] = z[row : row + count, None]  # nothing at n = 1
        top, row, base = 2, row + count, base + count * n
        while top < n:
            new = min(n, 2 * top - 1) - top
            terms = table[:, 1 : 1 + new, :, None] * table[:, top - 1, None, None, :]
            _fold(field, terms.reshape(count, new, k * k), fold, out=table[:, top : top + new])
            top += new
    return out


@functools.lru_cache(maxsize=64)
def _chunks(p: int, orders, window: int) -> tuple:
    """The chunks (a, b, m0, m1) of the product reads of a family for
    _gathered_products: reads a, ..., b - 1, those that start within one
    window of terms, and their terms m0, ..., m1 - 1, so a chunk has at
    most one read's terms more than the window, _CHUNK // k^2 over GF(p^k),
    which keys the cache by k.  A window that lies inside a read that
    started before it has none."""
    _, _, length, start = _layout(p, orders).gathers
    cuts = np.searchsorted(start, np.arange(0, start[-1] + length[-1], window)).tolist()
    return tuple((a, b, int(start[a]), int(start[b - 1] + length[b - 1]))
                 for a, b in zip(cuts, [*cuts[1:], len(start)]) if a < b)


def _gathered_products(field: Field, powers: np.ndarray, xs: np.ndarray, gather,
                       chunks) -> np.ndarray:
    """The (reads, k) digits of the product reads of every pole: term t of
    H_l^e x_j^b, sum_s H_l^e[t-s] x_j^b[s], for the flat power table powers
    and the flat stack xs of the x_j powers, as gather (_Layout.gathers) lays
    them out, in the chunks of _chunks.  Each chunk is one gather from the
    powers, one from xs, their k x k digit products, one np.add.reduceat
    over each read's terms, and one fold of those sums to k digits (_fold).
    """
    k = field.k
    h0, x0, length, start = gather
    out = np.empty((len(start), k), dtype=np.int64)
    for a, b, m0, m1 in chunks:
        m = np.arange(m0, m1)
        h = powers.take(np.repeat(h0[a:b], length[a:b]) - m, axis=0)
        x = xs.take(np.repeat(x0[a:b], length[a:b]) + m, axis=0)
        terms = (h[:, :, None] * x[:, None, :]).reshape(len(m), k * k)
        out[a:b] = _fold(field, np.add.reduceat(terms, start[a:b] - m0), _digit_fold(field))
    return out


def _inverses(values: list) -> list:
    """1/v for each of the nonzero field elements values, with one
    inversion: Montgomery's trick, 1/v_i = (v_0 ... v_(i-1)) / (v_0 ... v_i),
    from the prefix products and the inverse of the last."""
    if not values:
        return []
    prefix = list(itertools.accumulate(values, operator.mul))
    inverse, out = prefix[-1].inverse(), []
    for v, before in zip(reversed(values[1:]), reversed(prefix[:-1])):
        out.append(inverse * before)
        inverse = inverse * v  # 1/(v_0 ... v_(i-1))
    out.append(inverse)
    return out[::-1]


def local_matrix(spec: CurveSpec, orders) -> tuple[tuple[BasisForm, ...], np.ndarray]:
    """The basis and the (D_0, g, k) block of images C(x_j^b f^e dx), one
    per column, in the level-0 forms, by the local pipeline, in one pass
    per curve over the layout's flat tables; the gate (cartier_matrix)
    lifts them to the matrix.

    Every z = 1/(e_j - e_l) comes from one field inversion (_inverses),
    the one at (j, l) the negative of the one at (l, j).  One geometric
    table of every z the closed forms read (_geometric), gathered and
    times the layout's coefficients, gives the stack of every pole at
    once: the powers of every other x_j in the pole's local parameter.
    One contraction of every stack with the coefficients of the
    f_j gives the regular part sum_j f_j(x_j) of every H_l = u^d f, and one
    indexed write adds each pole's own principal part.  One call writes
    the powers H_l^e of every pole that a read reaches, from H_l cut to
    its band, into one power table (_powers).  One gather from that table
    serves every direct read, and one call of _gathered_products every
    product read, and both scatter into the block.  Over GF(p) every fold
    of digit products is the product by [[1]] and is skipped (_fold); over
    GF(p^k), k > 1, the p-th root, GF(p)-linear, is taken once, on the
    block.

    The int64 sums stay exact, as N <= (p-1)*d_l + 1: each of the k^2
    digit sums of a product read, before the fold to k digits, adds at most
    N digit products, each at most (p-1)^2, so it is at most
    N*k*(p-1)^2 < 2^35 under the digit cap (check_digit_cap), and their
    unreduced fold over GF(p^k), k >= 2, k^2 of them times entries of at
    most p - 1, at most k^2*N*(p-1)^3 < 2^45; a power's unreduced fold
    (_powers) is at most (2k-1)*N*k*(p-1)^3 < 2^47.  The contraction adds
    one digit product per stacked power, fewer than D + 2 <= 2g + 2 of
    them, so its sums stay below (2g + 2)*(p-1)^2 < 2^35, and their
    unreduced fold over GF(p^k), k >= 2, below k^2*(2g + 2)*(p-1)^3 < 2^48
    in the field cap.  The folds take residues mod p.
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
    # 1/(e_j - e_l) for each pair l < j of finite poles read, and its negative at (j, l)
    inverse = dict(zip(layout.pairs, _inverses([locs[j] - locs[l] for l, j in layout.pairs])))
    elements += [locs[j] if l == 0 else inverse[l, j] if l < j else -inverse[j, l]
                 for l, j in layout.z_rows]
    digits = field.digit_array(elements)
    coeffs, z = digits[:split], digits[split:]
    power, coef = layout.stack
    xs = _geometric(field, z, layout.rectangles).take(power, axis=0) * coef % p
    # every H_l to its n_l terms: its own principal part times u^d, then
    # the digit products of sum_(j,i) x_j^i[t] c_(j,i) at its terms d + t
    h = np.zeros((layout.width, k), dtype=np.int64)
    rows, sources = layout.own
    h[rows] = coeffs.take(sources, axis=0)
    stack, coeff_rows, groups, rows = layout.contraction
    if len(groups):
        x, c = xs.take(stack, axis=0), coeffs.take(coeff_rows, axis=0)
        # the k x k digit products, over GF(p) the one product, in place
        terms = np.multiply(x, c, out=x) if k == 1 else x[:, :, None] * c[:, None, :]
        sums = np.add.reduceat(terms.reshape(len(stack), k * k), groups)
        h[rows] += _fold(field, sums, _digit_fold(field))
    np.remainder(h, p, out=h)
    # a view: the flat rows e*width + offset_l + t
    powers = _powers(field, h, layout.poles, layout.e_max).reshape(-1, k)
    out = np.zeros((layout.d0, len(layout.forms), k), dtype=np.int64)
    *_, row, col = layout.direct
    out[row, col] = powers.take(layout.reads, axis=0)
    *_, row, col = layout.products
    if len(row):
        chunks = _chunks(p, orders, max(1, _CHUNK // k**2))
        out[row, col] = _gathered_products(field, powers, xs, layout.gathers, chunks)
    if k > 1:  # the pth_root of each coefficient, the identity over GF(p)
        out = out @ field.pth_root_matrix
        np.remainder(out, p, out=out)
    return layout.forms, out
