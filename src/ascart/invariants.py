"""Rank, a-number and p-rank from the Cartier matrix.

The a-number is the corank: a = g - rank(M).  When p = 1 mod L the pivot
structure of the Cartier matrix depends on p and the pole orders alone,
and is computed once per (p, orders): the forms H with
r >= (b - eps_j)*gamma_j, each with a pivot at

    kappa(x_j^b y^r dx) = x_j^b y^(r - (b - eps_j)*gamma_j) dx,

and the complement A.  partition_HA(p, orders) returns (H, A), and
kappa(p, orders, form) the pivot of a form of H; the a-number equals #A in
that regime.  _basis_orders(p, basis) reads the pole orders back off an
ordered basis there.  Neither Cartier pipeline reaches this module, so
this closed form stays an independent check on both.

There the paper's proof gives the rank with no elimination, and rank
checks that proof on each matrix first.  For the ordered basis of such
(p, orders) a certificate is built once and cached (_certificate): the rows
kappa(H) and columns H, H in basis order, and a Koenig vertex cover of #H
lines of the family's support (cartier.support).  A matrix whose block
M[kappa(H), H] is triangular with a nonzero diagonal has rank >= #H, and
one whose nonzero entries all lie in the cover's lines has rank <= #H.
Both sides are read off the matrix's own digits, so a wrong support or a
false theorem cannot change a result: a matrix that fails either side, or
whose basis has no certificate, falls back to the elimination.

Every other rank, over every field, comes from one exact fraction-free
elimination on int64 arrays mod p, one
step per pivot, on the digits the matrix carries (CartierMatrix.digits).
It walks the rows in order and skips a row that earlier pivots reduced to
zero, so no step compacts the rows left.
A matrix over GF(q), q = p^k, enters it through
the regular representation: the entry c becomes the k x k GF(p) matrix
rho(c) of multiplication by c in the basis 1, t, ..., t^(k-1), and the
GF(p) rank of the block matrix rho(M) is k * rank(M).  Rank does not care
about the ground field, so this is also the rank over the algebraic
closure.  For k = 1, rho is the identity and the residues go in directly.

When p = 1 mod L the a-number also has a closed form depending only on the
pole orders:

    a = sum_j a_j,   a_j = (p-1)*d_j/4            if d_j is even,
                     a_j = (p-1)*(d_j^2-1)/(4*d_j) if d_j is odd,

and a_number() reports both values side by side.  For a monomial f = x^d
there is a separate expression through the residues h_b = (-1-b)/d mod p
which covers p != 1 mod d as well (a_monomial_remark).

The p-rank is the stable rank of the 1/p-semilinear operator: with sigma
the entrywise p-power map, s = rank(M * M^(sigma^-1) * ... ) once the
product stops dropping rank.  The twist is GF(p)-linear as well: with Phi
the matrix of pth_root, rho(c^(sigma^-1)) = Phi rho(c) Phi^-1, so with
P = I_g (x) Phi the n-factor product has GF(p) rank rank(A^n) for the one
matrix A = rho(M) P.  A is built block by block (rho(M_ij) Phi), never as
a gk x gk Kronecker product; P is invertible, so A has the rank of rho(M).
The images shrink at every step until one keeps them (Fitting's lemma),
so the rank is stable from g factors on.

Both pipelines make every matrix upper triangular in the ordered basis,
which sorts by the level r first: C(x_j^b y^r dx) = sum_e (-1)^e C(r,e)
y^(r-e) C(x_j^b f^e dx) sends a form of level r to levels r - e <= r, and
at e = 0 the only image on the diagonal is that of a logarithmic form
x_j y^r dx (j >= 1, b = 1), which C fixes.  So the diagonal has m(p-1)
nonzero entries, which is Deuring-Shafarevich.  When M's digits show that
shape, A is block upper triangular, and its k x k diagonal blocks
rho(M_ii) Phi are invertible when M_ii != 0 and zero otherwise.  The
nonzero eigenvalues of A then have multiplicity k * #{i : M_ii != 0},
which by Fitting's lemma is the rank of every high power of A, so
s = #{i : M_ii != 0} with no product at all.  The check reads the digits,
not the basis, so a matrix that is not upper triangular -- hand-built,
read from JSON or in a permuted basis -- takes the one general route,
twisted_rank_profile: the chain of bases V_n of the row spaces of A^n, one
product V_n A and one elimination per factor up to the first repeated
rank.  The row space of A^(n+1) lies in that of A^n, so equal ranks mean
equal spaces, every later power keeps them, and the repeated rank is s.
The products are float64, reduced as Z - floor(Z/p)*p, and exact: sums
stay below 2^53 (_product_mod).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cartier import CartierMatrix, cartier_matrix, support
from .curve import BasisForm, CurveSpec, ordered_basis
from .errors import ConditionNotSatisfied, DNotCoprime, NotInH


# ---------------------------------------------------------------------------
# Exact elimination over GF(p)
# ---------------------------------------------------------------------------


def _echelon_int(rows: np.ndarray, p: int) -> np.ndarray:
    """Independent rows spanning the row space of an int matrix mod p (rows
    already reduced).

    One step per pivot, walking the rows in order: a row reduced to zero
    by the time the walk reaches it is skipped; any other row pivots on its
    first nonzero column c, and every later row r nonzero there becomes
    (a*r - r[c]*pivot) mod p for the pivot entry a.  The pivots are packed
    to the front as they are found, so no step compacts the rows left.
    Each kept row is nonzero in its pivot column, where every later one is
    zero, so the cost follows the rank, not the column count.
    """
    rest = rows[rows.any(axis=1)]  # a copy, so the updates below stay private
    n = 0
    for i, pivot in enumerate(rest):
        nonzero = pivot.nonzero()[0]
        if not len(nonzero):
            continue
        c = nonzero[0]
        rest[n] = pivot
        n += 1
        hit = i + 1 + rest[i + 1 :, c].nonzero()[0]
        if len(hit):
            below = rest[hit]
            rest[hit] = (below * pivot[c] - below[:, c : c + 1] * pivot) % p
    return rest[:n]


def _prime_matrix(M: CartierMatrix) -> np.ndarray:
    """M as the GF(p) matrix rho(M) (I (x) Phi), read off M.digits and the
    field's own tables.

    Block (i, j) is the matrix of x -> M_ij * pth_root(x) on digit columns:
    row a of M_ij @ Field.multiplication holds M_ij * t^a, and
    Field.pth_root_matrix turns those rows into M_ij * pth_root(t^a), column
    a of the block.  For k = 1 this is the matrix of residues itself.
    """
    g, n, k = M.digits.shape
    if k == 1:
        return M.digits.reshape(g, n)
    field, p = M.field, M.field.p
    X = np.tensordot(M.digits, field.multiplication, axes=(2, 0)) % p  # row a: M_ij * t^a
    Y = field.pth_root_matrix @ X % p
    return Y.transpose(0, 3, 1, 2).reshape(g * k, n * k)


def _reduce_mod(Z: np.ndarray, p: int) -> np.ndarray:
    """Z mod p, in place, for float64 integers 0 <= Z < 2^53, exactly.

    Z - floor(Z/p)*p is exact there.  With Z = m*p + r, 0 <= r < p, the
    quotient Z/p is rounded correctly, by at most half an ulp, and below
    2^53/p half an ulp is less than 1/p <= (p - r)/p, the distance from
    Z/p to m + 1; so the rounded quotient lies in [m, m + 1) and its floor
    is m.  Then m*p <= Z and Z - m*p are integers below 2^53, exact as
    well.  Unlike np.fmod, it costs the same whatever the quotient's size.
    """
    Z -= np.floor(Z / p) * p
    return Z


def _product_mod(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """X @ Y mod p for float64 residues, exactly: a chunk of the inner
    dimension adds step products to the carried residue, p - 1 + step *
    (p-1)^2 < 2^53, and each sum is reduced exactly (_reduce_mod).  Every
    matrix cartier_matrix admits is one chunk."""
    step = (2**53 - p) // (p - 1) ** 2
    out = _reduce_mod(X[:, :step] @ Y[:step], p)
    for i in range(step, X.shape[1], step):
        out = _reduce_mod(out + X[:, i : i + step] @ Y[i : i + step], p)
    return out


def _over_field(prime_rank: int, k: int) -> int:
    """GF(q) rank from the GF(p) rank of a regular representation."""
    r, rest = divmod(prime_rank, k)
    if rest:  # unreachable
        raise AssertionError(f"GF(p) rank {prime_rank} is not a multiple of k = {k}")
    return r


def _basis_orders(p: int, basis) -> tuple[int, ...] | None:
    """The pole orders whose ordered_basis in characteristic p is basis,
    when p = 1 mod L; None when the recovered orders do not give it back.

    There every d_j < p, so for j >= 1 the form x_j^(d_j) dx is the one of
    pole j with the largest b, and d_0 follows from the genus g = len(basis),
    2g/(p-1) = D = sum_j (d_j + 1) - 2.  Other bases may give None.
    """
    basis = list(basis)
    top: dict = {}
    for j, b, _ in basis:
        top[j] = max(top.get(j, b), b)
    m = len(top) - (0 in top)  # each finite pole has forms, infinity may have none
    finite = [top.get(j, 0) for j in range(1, m + 1)]
    D, rest = divmod(2 * len(basis), p - 1)
    orders = (D + 1 - sum(d + 1 for d in finite), *finite)
    if rest or min(orders) < 1 or ordered_basis(p, orders) != basis:
        return None
    return orders


@functools.lru_cache(maxsize=64)
def _pivots(p: int, orders: tuple[int, ...]) -> dict[BasisForm, BasisForm]:
    """{omega: kappa(omega)} for the forms omega of H, in basis order.

    Defined only when p = 1 mod L, where gamma_j = (p-1)/d_j is integral.
    Callers must not mutate the cached dict.
    """
    L = math.lcm(*orders)
    if (p - 1) % L:
        raise ConditionNotSatisfied(
            f"p = {p} is not 1 mod L = {L}; the partition needs integral "
            "slopes gamma_j"
        )
    pivots = {}
    for form in ordered_basis(p, orders):
        eps = -1 if form.j == 0 else 1
        r = form.r - (form.b - eps) * ((p - 1) // orders[form.j])
        if r >= 0:
            pivots[form] = BasisForm(form.j, form.b, r)
    return pivots


def partition_HA(p: int, orders) -> tuple[frozenset[BasisForm], frozenset[BasisForm]]:
    """Split ordered_basis(p, orders) into the pivot forms H and the
    complement A, when p = 1 mod L; the a-number equals #A there."""
    H = frozenset(_pivots(p, tuple(orders)))
    return H, frozenset(ordered_basis(p, orders)) - H


def kappa(p: int, orders, form: BasisForm) -> BasisForm:
    """The pivot target x_j^b y^(r - (b - eps_j)*gamma_j) dx of a form of H,
    when p = 1 mod L; a form outside H raises NotInH."""
    target = _pivots(p, tuple(orders)).get(form)
    if target is None:
        raise NotInH(f"{form.label()} is not in the pivot set H")
    return target


class _Certificate(NamedTuple):
    """The paper's pivot structure as a check on one matrix's digits, for
    the ordered basis of some (p, orders) with p = 1 mod L.

    rows and cols are the positions of kappa(H) and H, H in basis order;
    (cover_rows, cover_cols) is a Koenig vertex cover of the layout's
    support (cartier.support) of size #H.  A matrix whose entries are
    nonzero at every flat index of diagonal and zero at every one of zeros
    (the block M[kappa(H), H] below its diagonal, and every entry outside
    the cover) has rank #H."""

    rows: np.ndarray
    cols: np.ndarray
    cover_rows: np.ndarray
    cover_cols: np.ndarray
    diagonal: np.ndarray
    zeros: np.ndarray


@functools.lru_cache(maxsize=64)
def _certificate(p: int, basis: tuple[BasisForm, ...]) -> _Certificate | None:
    """The certificate of the basis in characteristic p, or None when it is
    no ordered basis with p = 1 mod L or kappa is not a maximum matching of
    the support.

    The cover comes from one alternating search, level by level, from the
    rows that kappa leaves free: a row reaches every column of its support,
    a column its matched row.  Reaching a free column is an augmenting path,
    and then there is no certificate.  Otherwise, by Koenig's construction,
    the rows not reached and the columns reached cover every entry of the
    support, one end of each matched pair, so #H in all.
    """
    orders = _basis_orders(p, basis)
    if orders is None or (p - 1) % math.lcm(*orders):
        return None
    g = len(basis)
    index = {form: i for i, form in enumerate(basis)}
    H, _ = partition_HA(p, orders)
    forms = [form for form in basis if form in H]
    cols = np.array([index[form] for form in forms], dtype=np.intp)
    rows = np.array([index[kappa(p, orders, form)] for form in forms], dtype=np.intp)
    # the row kappa matches to each column: kappa keeps j and b and shifts
    # r by a constant, so it is one to one
    mate = np.full(g, -1)
    mate[cols] = rows
    S = support(p, orders)
    rows_seen = np.ones(g, dtype=bool)
    rows_seen[rows] = False
    cols_seen, frontier = np.zeros(g, dtype=bool), rows_seen.copy()
    while frontier.any():
        reached = S[frontier].any(axis=0) & ~cols_seen
        if (mate[reached] < 0).any():
            return None
        cols_seen |= reached
        frontier = np.zeros(g, dtype=bool)
        frontier[mate[reached]] = True
        rows_seen |= frontier
    zero = rows_seen[:, None] & ~cols_seen  # outside the cover
    zero[rows[:, None], cols] |= np.tri(len(cols), k=-1, dtype=bool)
    certificate = _Certificate(rows, cols, ~rows_seen, cols_seen, rows * g + cols,
                               np.flatnonzero(zero))
    for array in certificate:
        array.setflags(write=False)  # shared by every matrix in this basis
    return certificate


def rank(M: CartierMatrix) -> int:
    """Exact rank over the field (invariant under any field extension).

    When the basis has a certificate (_certificate) and M passes it, the
    rank is #H, read off M's own digits from both sides: the block
    M[kappa(H), H] is triangular with a nonzero diagonal, so rank >= #H,
    and every nonzero entry lies in a row or column of a cover of #H
    lines, so rank <= #H.  Otherwise, one elimination (_echelon_int)."""
    if not M.dimension:
        return 0
    certificate = _certificate(M.field.p, tuple(M.basis))
    if certificate is not None:
        nonzero = M.digits.any(axis=2).ravel()
        if nonzero[certificate.diagonal].all() and not nonzero[certificate.zeros].any():
            return len(certificate.diagonal)
    return _over_field(_echelon_int(_prime_matrix(M), M.field.p).shape[0], M.field.k)


# ---------------------------------------------------------------------------
# p-rank: stable rank of twisted products
# ---------------------------------------------------------------------------


def _twisted_ranks(M: CartierMatrix):
    """Ranks of the 1-, 2-, ... factor twisted products, without end."""
    p, k = M.field.p, M.field.k
    A = _prime_matrix(M)
    V = _echelon_int(A, p)
    A = A.astype(np.float64)
    while True:
        yield _over_field(V.shape[0], k)
        V = _echelon_int(_product_mod(V.astype(np.float64), A, p).astype(np.int64), p)


def twisted_rank_profile(M: CartierMatrix, factors: int | None = None) -> list[int]:
    """Ranks of M, M*M^(sigma^-1), ... for 1..factors twisted factors.

    Defaults to g+1 factors: the rank provably stabilizes by g factors.  The
    chain stops at its first repeat, rank(A^n) = rank(A^(n+1)), which itself
    witnesses stationarity (Fitting's lemma), and the rest of the list
    repeats that rank.
    """
    g = M.dimension
    if factors is None:
        factors = g + 1
    if g == 0:
        return []
    profile: list[int] = []
    for r in itertools.islice(_twisted_ranks(M), factors):
        if profile and profile[-1] == r:
            break
        profile.append(r)
    return profile + profile[-1:] * (factors - len(profile))


@functools.lru_cache(maxsize=8)
def _strictly_lower(g: int) -> np.ndarray:
    """The flat positions i*g + j, i > j, of the entries of a g x g matrix
    below its diagonal; read-only because the cache shares them."""
    rows, cols = np.tril_indices(g, -1)
    flat = rows * g + cols
    flat.setflags(write=False)
    return flat


def p_rank_stable(M: CartierMatrix) -> int:
    """Stable rank of the twisted products; equals the p-rank m(p-1).

    When M's digits are zero below the diagonal, A = rho(M) (I (x) Phi) is
    block upper triangular with diagonal blocks rho(M_ii) Phi, invertible
    when M_ii != 0 and zero otherwise.  So the nonzero eigenvalues of A
    have multiplicity k * #{i : M_ii != 0}, and by Fitting's lemma that is
    the rank of every high power of A: the stable rank is the number of
    nonzero diagonal entries.  Any other matrix takes the stable value of
    the twisted chain, twisted_rank_profile."""
    g = M.dimension
    if g == 0:
        return 0
    nonzero = M.digits.any(axis=2)
    if not nonzero.ravel().take(_strictly_lower(g)).any():
        return int(np.count_nonzero(nonzero.diagonal()))
    return twisted_rank_profile(M)[-1]


# ---------------------------------------------------------------------------
# a-number
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ANumberReport:
    """Rank-based a-number next to the closed-form value, when it applies."""

    g: int
    rank: int
    a_rank: int
    a_formula: int | None
    match: bool | None

    def to_json(self) -> dict:
        return {
            "genus": self.g,
            "rank": self.rank,
            "a_rank": self.a_rank,
            "a_formula": self.a_formula,
            "match": self.match,
        }


def theorem_a_value(p: int, orders) -> int:
    """Closed-form a-number from pole orders; requires p = 1 mod every order."""
    total = 0
    for d in orders:
        if (p - 1) % d != 0:
            raise ConditionNotSatisfied(f"p = {p} is not 1 mod {d}")
        if d % 2 == 0:
            num = (p - 1) * d
            den = 4
        else:
            num = (p - 1) * (d - 1) * (d + 1)
            den = 4 * d
        if num % den:
            raise AssertionError("non-integral a_j")  # unreachable
        total += num // den
    return total


def a_number(spec: CurveSpec, pipeline: str = "local") -> ANumberReport:
    """a = g - rank(M), with the closed form alongside when p = 1 mod L."""
    inv = spec.invariants
    M = cartier_matrix(spec, pipeline)
    r = rank(M)
    a_rank = inv.g - r
    if inv.theorem_applicable:
        formula = theorem_a_value(spec.p, inv.orders)
        return ANumberReport(inv.g, r, a_rank, formula, a_rank == formula)
    return ANumberReport(inv.g, r, a_rank, None, None)


def a_monomial_remark(p: int, d: int) -> int:
    """a-number of y^p - y = x^d through the residues h_b = (-1-b)/d mod p.

    Defined whenever p does not divide d; intended for p != 1 mod d but
    also evaluated in the overlap regime as a cross-check.
    """
    if d % p == 0:
        raise DNotCoprime(f"p = {p} divides d = {d}")
    d_inv = pow(d % p, -1, p)
    total = 0
    for b in range(d - 1):
        h_b = ((-1 - b) * d_inv) % p
        ceil_term = -((p + 1 + b * p) // -d)
        total += min(h_b, p - ceil_term)
    return total
