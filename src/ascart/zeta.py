"""Point counts, L-polynomial and slope polygons of y^p - y = f(x).

Counting is by enumeration: over F_(q^s) an x that is not a pole of f lifts
to p points when the absolute trace of f(x) vanishes and to none otherwise,
and each pole carries exactly one (totally ramified) point since its order
is prime to p.  So

    N_s = (m+1) + p * #{ x in F_(q^s), x not a pole, Tr(f(x)) = 0 }.

The enumeration runs on all of F_(q^s) at once in the log arithmetic of
the field's Zech tables (Field.log_tables), so it reaches the field cap;
the trace is additive, so Tr f(x) is the sum of its terms' traces mod p.
Every level s a count needs is enumerated in one pass over the tower:
the coefficients and pole locations are logged once, in the base field
GF(q), and an element of log c there has log t_s*c mod q^s - 1 in
F_(q^s), for t_s the log there of the image of GF(q)'s primitive
element.  x = 0 is evaluated once, in GF(q), and Tr_(q^s/p)(a) =
s*Tr_(q/p)(a) gives its trace at every level.

The L-polynomial needs N_1..N_g, g = D(p-1)/2, but enumeration stops at
s <= min(D, g).  Write the distribution of Tr f(x) over F_(q^s) as the
character sum S_s = sum_x zeta^(Tr f(x)) in Z[zeta_p]; then
N_s = q^s + 1 + Tr_(Q(zeta_p)/Q)(S_s).  The L-function
L(f, psi, T) = exp(sum_s S_s T^s / s) is a polynomial of degree D
(Bombieri 1966; Adolphson-Sperber 1989), and L(u) is the product of its
p-1 Galois conjugates.  So when D < g (p >= 5) Newton's identities turn
S_1..S_D into the coefficients e_1..e_D of L(f, psi, T), each an exact
division in Z[zeta_p] (a remainder raises InconsistentCounts), and the
recurrence with e_n = 0 for n > D continues the sums to s = g.  Elements
of Z[zeta_p] are integer vectors on 1, zeta, ..., zeta^(p-2).

The numerator L(u) of the zeta function is recovered from N_1..N_g through
the exponential power series identity (exact integer arithmetic; a
non-integral coefficient raises InconsistentCounts) and completed to degree
2g by the functional equation c_(2g-i) = q^(g-i) c_i.  Extension fields are
built on the canonical modulus, and the canonical embedding of GF(q) into
each fixes its t_s.

The q-adic Newton polygon is the lower convex hull of (i, ord_p(c_i)/a),
q = p^a, recorded as a multiset of slopes with multiplicities.  The Hodge
polygon of f depends on the pole orders alone: slopes 0 and 1 with
multiplicity m, plus i/d_j for 0 < i < d_j at each pole.  When p = 1 mod L
the Newton polygon, shrunk by p-1 in both directions, equals the Hodge
polygon; compare_polygons performs that shrink-and-compare exactly, with
rational arithmetic only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .curve import CurveSpec
from .errors import InconsistentCounts, NotShrinkable
from .finite_field import GF, Field, embedding


# ---------------------------------------------------------------------------
# Point counting
# ---------------------------------------------------------------------------


def count_points(spec: CurveSpec, s: int) -> int:
    """Number of points of the smooth projective curve over F_(q^s)."""
    return (spec.invariants.m + 1) + spec.p * _trace_distributions(spec, [s])[0][0]


def _trace_distributions(spec: CurveSpec, levels) -> list[list[int]]:
    """For each s of levels, counts[c] = #{x in F_(q^s), x not a pole :
    Tr f(x) = c}, c in [0, p).

    Every nonzero x is g^i for the primitive g of the field's log tables,
    so the terms of f are evaluated on all i at once in log arithmetic,
    n = q^s - 1: a_j x^j has log log(a_j) + j*i, x - e = -e * (1 + x/(-e))
    has log c + Z(i - c) with c = log(-e) (the only Zech lookup), and a
    power of it is a multiple.  Each term's trace is one table lookup, and
    since the trace is additive, Tr f(x) is the sum of those traces mod p.

    Every coefficient and pole location is logged once, in GF(q), and
    reaches level s as t_s times that log (_tower).  The levels' ranges of
    i are one range, run in chunks that may span several levels (_frames):
    the exponents of every term are one (terms, chunk) array, each level's
    part gathers from that level's tables, and one bincount of
    level*p + trace counts every level, the poles in a bucket past the
    last.  x = 0 is evaluated once, in GF(q), where
    Tr_(q^s/p)(a) = s*Tr_(q/p)(a).
    """
    base, p, levels = spec.field, spec.field.p, tuple(levels)
    tower = _tower(base, levels, _CHUNK)
    tables = [F.log_tables() for F in tower.fields]
    own = base.log_tables()
    # every term is log(a) + j*x[r], for x[0] the log of x and x[r] that of
    # x - e at the r-th nonzero pole location e; a zero a is no term
    f0, finite = spec.poles[0].coeffs, spec.poles[1:]
    places = [datum.location for datum in finite if datum.location]
    terms, r = [(a.counter(), j, 0) for j, a in enumerate(f0)], 0
    for datum in finite:
        r += bool(datum.location)
        terms += [(a.counter(), -m, r if datum.location else 0)
                  for m, a in enumerate(datum.coeffs, 1)]
    terms = [term for term in terms if term[0]]
    cut, width = len(terms), len(terms) + len(places)
    # the logs in GF(q) of the terms' coefficients, of every -e and every e
    logs = own.log[[c for c, _, _ in terms] + [(-e).counter() for e in places]
                   + [e.counter() for e in places]]
    shift = logs[:, None] * tower.t % tower.n  # and at every level, t_s times those
    holes = (shift[width:] + tower.bounds[:-1]).ravel().tolist()  # where each x = e is
    mults, rows = np.array([(j, r) for _, j, r in terms], dtype=np.int64).T
    mults = mults[:, None]
    counts = np.zeros(len(levels) * p + 1, dtype=np.int64)
    for start, spans, level, i, n in tower.frames or _frames(tower.bounds, tower.n, _CHUNK):
        here = shift[:width].take(level, axis=1)
        x = np.empty((1 + len(places), len(i)), dtype=np.int64)
        x[0] = i
        if places:
            # at x = e this is log(-e), not the log of zero; x = e is a hole
            z = i - here[cut:]
            z %= n
            for lv, a, b in spans:
                x[1:, a:b] = tables[lv].zech[z[:, a:b]]
            x[1:] += here[cut:]
        # in place, as temporaries of a whole chunk cost as much as the arithmetic
        e = x.take(rows, axis=0)
        e *= mults
        e += here[:cut]
        e %= n
        key = np.empty(len(i), dtype=np.int64)
        for lv, a, b in spans:  # the tables are uint8 or uint16; the sums int64
            tables[lv].trace.take(e[:, a:b]).sum(axis=0, out=key[a:b])
        key %= p
        key += level * p
        key[[h - start for h in holes if start <= h < start + len(i)]] = len(levels) * p
        counts += np.bincount(key, minlength=len(counts))
    counts = counts[:-1].reshape(len(levels), p).tolist()
    if len(places) == len(finite):  # x = 0 is not a pole: the same terms, in GF(q)
        x0, nq = [0, *logs[cut:width].tolist()], base.order - 1
        trace = sum(int(own.trace[(lg + j * x0[r]) % nq])
                    for lg, (_, j, r) in zip(logs[:cut].tolist(), terms) if r or not j)
        for row, s in zip(counts, levels):
            row[s * trace % p] += 1
    return counts


class _Tower(NamedTuple):
    """The fields F_(q^s) of the levels s, their n = q^s - 1 and t_s, the
    bounds of their ranges of i in one concatenated range, and its frames
    (_frames) when it fits in one chunk, else None."""

    fields: tuple[Field, ...]
    n: np.ndarray
    t: np.ndarray
    bounds: np.ndarray
    frames: tuple | None


@functools.lru_cache(maxsize=16)
def _tower(base: Field, levels: tuple[int, ...], chunk: int) -> _Tower:
    """The tower of base = GF(q) at levels, built once per (base, levels,
    chunk).  t_s is the log in F_(q^s) of the image of the primitive element
    of GF(q): the embedding is multiplicative, so an element of log c in
    GF(q) has log t_s*c mod q^s - 1 there.  Only a tower of at most one
    chunk keeps its frame, so no entry holds more than 3 * chunk integers."""
    fields = tuple(base if s == 1 else GF(base.p, base.k * s) for s in levels)
    t = [F.log_tables().log[embedding(base, F)(base.primitive()).counter()] for F in fields]
    n = np.array([F.order - 1 for F in fields], dtype=np.int64)
    bounds = np.concatenate([[0], np.cumsum(n)])
    frames = tuple(_frames(bounds, n, chunk)) if bounds[-1] <= chunk else None
    return _Tower(fields, n, np.array(t, dtype=np.int64), bounds, frames)


def _frames(bounds: np.ndarray, n: np.ndarray, chunk: int):
    """(start, spans, level, i, n) for each chunk of the concatenated range
    of i: its first position, the spans (level, a, b) of its positions
    a..b-1 on each level, and the level, i and n of each position."""
    edges = bounds.tolist()
    for start in range(0, edges[-1], chunk):
        stop = min(start + chunk, edges[-1])
        spans = [(lv, max(a, start) - start, min(b, stop) - start)
                 for lv, (a, b) in enumerate(itertools.pairwise(edges)) if a < stop and b > start]
        level = np.repeat([lv for lv, _, _ in spans], [b - a for _, a, b in spans])
        yield start, spans, level, np.arange(start, stop) - bounds.take(level), n.take(level)


# this many i of the tower's range at a time, so temporaries stay small at the cap
_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# L-polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPolynomial:
    """Numerator of the zeta function: integer coefficients, degree 2g.

    Always satisfies coeffs[0] = 1 and the functional equation
    coeffs[2g-i] = q^(g-i) * coeffs[i].
    """

    coeffs: tuple[int, ...]
    q: int

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("L-polynomial must have constant term 1")
        if len(self.coeffs) % 2 == 0:
            raise ValueError("L-polynomial must have even degree")
        g = self.genus
        for i in range(g + 1):
            if self.coeffs[2 * g - i] != self.q ** (g - i) * self.coeffs[i]:
                raise ValueError("functional equation violated")

    @property
    def genus(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def predicted_counts(self, n: int) -> list[int]:
        """N_1, ..., N_n implied by this polynomial, by one pass of Newton's
        identities (exact)."""
        # L = prod (1 - alpha_i u); power sums A_s of the alpha_i satisfy
        # s*c_s = -sum_{r<=s} A_r c_{s-r}; then N_s = q^s + 1 - A_s.
        c = self.coeffs
        A: list[int] = []
        for s in range(1, n + 1):
            acc = s * (c[s] if s < len(c) else 0)
            for t in range(max(1, s - len(c) + 1), s):
                acc += A[t - 1] * c[s - t]
            A.append(-acc)
        return [self.q**s + 1 - a for s, a in enumerate(A, start=1)]


def l_from_counts(counts, q: int, g: int) -> LPolynomial:
    """L(u) from the counts N_1..N_g plus the functional equation.

    Exact integer arithmetic; counts that do not come from a curve of
    genus g over F_q surface as InconsistentCounts.
    """
    if len(counts) < g:
        raise ValueError(f"need N_1..N_{g}, got {len(counts)} counts")
    traces = [counts[s - 1] - q**s - 1 for s in range(1, g + 1)]
    c = [1]
    for n in range(1, g + 1):
        acc = sum(traces[s - 1] * c[n - s] for s in range(1, n + 1))
        if acc % n:
            raise InconsistentCounts(f"coefficient {n} is not an integer")
        c.append(acc // n)
    for i in range(g - 1, -1, -1):
        c.append(q ** (g - i) * c[i])
    return LPolynomial(tuple(c), q)


def l_polynomial(spec: CurveSpec) -> LPolynomial:
    """Recover L(u) from the trace distributions of f over F_q..F_(q^min(D,g))."""
    inv = spec.invariants
    p, q, D, g = spec.p, spec.field.order, inv.D, inv.g
    sums = []
    if min(D, g):
        GF(p, spec.field.k * min(D, g))  # the largest field, so an oversized one fails first
        sums = [_cyclotomic(c) for c in _trace_distributions(spec, range(1, min(D, g) + 1))]
    if D < g:
        # coefficients of L(f, psi, T) by Newton's identities n e_n = sum_s S_s e_(n-s)
        e = [[1] + [0] * (p - 2)]
        for n in range(1, D + 1):
            ne = _dot(zip(sums, reversed(e)), p)
            if any(c % n for c in ne):
                raise InconsistentCounts(f"coefficient {n} of L(f, psi, T) is not integral")
            e.append([c // n for c in ne])
        # deg L(f, psi, T) = D, so S_n = -sum_(j=1..D) e_j S_(n-j) for n > D
        for _ in range(D + 1, g + 1):
            sums.append([-c for c in _dot(zip(e[1:], reversed(sums)), p)])
    counts = [q**s + 1 + _cyclotomic_trace(S) for s, S in enumerate(sums, start=1)]
    return l_from_counts(counts, q, g)


# Elements of Z[zeta_p] are integer vectors on 1, zeta, ..., zeta^(p-2).


def _cyclotomic(coeffs: list[int]) -> list[int]:
    """sum_c coeffs[c] zeta^c over c in [0, p), reduced by Phi_p(zeta) = 0."""
    top = coeffs[-1]
    return [c - top for c in coeffs[:-1]]


def _dot(pairs, p: int) -> list[int]:
    """sum of a*b over the pairs (a, b) of elements of Z[zeta_p]."""
    acc = [0] * p
    for a, b in pairs:
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    acc[(i + j) % p] += ai * bj
    return _cyclotomic(acc)


def _cyclotomic_trace(a: list[int]) -> int:
    """Tr_(Q(zeta_p)/Q): zeta^0 has trace p-1, every other zeta^i trace -1."""
    return len(a) * a[0] - sum(a[1:])


# ---------------------------------------------------------------------------
# Slope polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopePolygon:
    """Multiset of rational slopes: ((slope, multiplicity), ...) ascending."""

    slopes: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def from_multiset(values) -> "SlopePolygon":
        counts: dict[Fraction, int] = {}
        for v in values:
            fv = Fraction(v)
            counts[fv] = counts.get(fv, 0) + 1
        return SlopePolygon(tuple(sorted(counts.items())))

    @property
    def length(self) -> int:
        return sum(m for _, m in self.slopes)

    def expanded(self) -> list[Fraction]:
        return [s for s, m in self.slopes for _ in range(m)]

    def shrink(self, factor: int) -> "SlopePolygon":
        """Divide every multiplicity by factor; slopes are unchanged."""
        out = []
        for s, m in self.slopes:
            if m % factor:
                raise NotShrinkable(
                    f"multiplicity {m} of slope {s} is not divisible by {factor}"
                )
            out.append((s, m // factor))
        return SlopePolygon(tuple(out))

    def vertex_heights(self) -> list[Fraction]:
        """Partial sums of the sorted slopes (the polygon's vertices)."""
        heights = [Fraction(0)]
        for s in self.expanded():
            heights.append(heights[-1] + s)
        return heights

    def to_json(self) -> list[list[int]]:
        return [[s.numerator, s.denominator, m] for s, m in self.slopes]


def _prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p^a and p prime: p is the least divisor of q, and a
    q with no divisor up to isqrt(q) is prime."""
    if q < 2:
        raise ValueError("q must be >= 2")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    a = 0
    while q % p == 0:
        q //= p
        a += 1
    if q != 1:
        raise ValueError("q is not a prime power")
    return p, a


def _ord(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def newton_polygon(L: LPolynomial, q: int) -> SlopePolygon:
    """q-adic Newton polygon of L: lower hull of (i, ord_p(c_i)/a)."""
    p, a = _prime_power(q)
    points = [(i, _ord(c, p)) for i, c in enumerate(L.coeffs) if c != 0]
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    # collinear points were popped, so the segments' slopes strictly increase
    return SlopePolygon(tuple((Fraction(y2 - y1, (x2 - x1) * a), x2 - x1)
                              for (x1, y1), (x2, y2) in itertools.pairwise(hull)))


def hodge_polygon(orders) -> SlopePolygon:
    """Hodge polygon of f from its pole orders alone; total length D.  It
    is built once per tuple of orders and kept (_hodge_polygon)."""
    return _hodge_polygon(tuple(orders))


@functools.lru_cache(maxsize=64)
def _hodge_polygon(orders: tuple[int, ...]) -> SlopePolygon:
    m = len(orders) - 1
    slopes = [Fraction(0)] * m + [Fraction(1)] * m
    for d in orders:
        slopes.extend(Fraction(i, d) for i in range(1, d))
    return SlopePolygon.from_multiset(slopes)


def compare_polygons(newton: SlopePolygon, hodge: SlopePolygon, p: int) -> str:
    """Shrink the Newton polygon by p-1 and compare with the Hodge polygon.

    Returns "equal", "np_above" (the shrunk Newton polygon lies on or above
    the Hodge polygon as a convex polygon) or "incomparable".
    """
    shrunk = newton.shrink(p - 1)
    if shrunk == hodge:
        return "equal"
    if shrunk.length != hodge.length:
        return "incomparable"
    hn = shrunk.vertex_heights()
    hh = hodge.vertex_heights()
    if all(a >= b for a, b in zip(hn, hh)):
        return "np_above"
    return "incomparable"
