"""Exact arithmetic in GF(p^k).

Elements are vectors of k residues, the coordinates with respect to the
power basis 1, t, ..., t^(k-1) of GF(p)[t] modulo a fixed monic irreducible
polynomial of degree k.  The modulus is chosen deterministically: among all
monic irreducibles of degree k it is the one with the smallest counter value
sum(c_i * p**i), i.e. coefficient tuples are compared from the highest
degree down.  Two runs (or two implementations following the same rule)
therefore agree on every digit of every result.

One kernel does the arithmetic for every k: a fold table, the digits of
t^i mod m for k <= i <= 2k-2, turns the schoolbook product of two digit
vectors into their product mod m, and one square-and-multiply loop gives
powers; a product in GF(p) is taken mod p at once (a measured shortcut).
Everything else is read off that kernel once per field:

- Frobenius x -> x^p is a field automorphism of order k, so p-th roots
  exist and are unique: pth_root(a) = a^(p^(k-1)), a GF(p)-linear map
  applied as a mat-vec with its k x k matrix Phi;
- the inverse of an element of GF(p) is its inverse mod p; any other a is
  inverted by Itoh-Tsujii: the product a^(r-1) of its conjugates other
  than a itself, r = (q-1)/(p-1), comes from k-1 mat-vecs with Phi and k-2
  products, the norm N(a) = a * a^(r-1) lies in GF(p), and
  a^(-1) = a^(r-1) * N(a)^(-1);
- the absolute trace is a dot product with the vector Tr(t^j);
- the modulus is chosen by Rabin's test in the same ring, with "is a unit"
  tested as h^(p^k - 1) = 1.

For enumerating a whole field a Field also gives log tables (Zech
logarithms, as in FLINT's fq_zech; Huber, IEEE Trans. IT 1990), built on
first use and cached for the fields of a tower at once: with a primitive g
every nonzero element is g^i, a product is a sum of logs mod q-1 and a sum
is one lookup, g^a + g^b = g^(a + Z(b - a)) with Z(n) = log(1 + g^n).  The
tables are an enumeration device only; FieldElement keeps the fold kernel.

Everything is immutable and every operation is exact; there is no lazy
reduction and no floating point.  Fields, primitive elements, embeddings
and log tables are cached process-wide; the log-table cache is kept under a
lock.

Fields are capped at about 10**7 elements.  The cap keeps exhaustive
procedures (root finding, point counting, element enumeration) honest.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import FieldTooLarge, FieldTooSmall, InvalidInput, NotPrime

_MAX_FIELD_SIZE = 10**7


def is_prime(n: int) -> bool:
    """Trial-division primality test; fields are desk scale."""
    return n >= 2 and _prime_divisors(n) == [n]


# ---------------------------------------------------------------------------
# The arithmetic kernel of GF(p)[t]/m, on k-digit tuples.  Modulus
# selection runs in it too, so m here need not be irreducible.
# ---------------------------------------------------------------------------


def _fold_table(m: tuple[int, ...], p: int) -> tuple[tuple[int, ...], ...]:
    """Digits of t^i mod m for k <= i <= 2k-2, for a monic m of degree k.

    Built from t^(k-1) by shift-and-subtract with t^k = -(m_0 + ... +
    m_(k-1) t^(k-1)), so empty at k = 1.  Stored transposed, the order _mul
    reads it in: entry [l][i - k] is digit l of t^i mod m.
    """
    k = len(m) - 1
    row, rows = [0] * (k - 1) + [1], []
    for _ in range(k - 1):
        top = row[-1]
        row = [(s - top * c) % p for s, c in zip([0] + row[:-1], m)]
        rows.append(row)
    return tuple(zip(*rows))


def _mul(a: tuple[int, ...], b: tuple[int, ...], fold, p: int) -> tuple[int, ...]:
    """a * b mod m: the schoolbook product, degrees >= k folded back by table."""
    k = len(a)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
    high = prod[k:]
    if not any(high):  # most often a GF(p) constant times an element
        return tuple([c % p for c in prod[:k]])
    return tuple([(c + sum(map(mul, high, col))) % p for c, col in zip(prod, fold)])


def _matvec(rows, a: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The GF(p)-linear map with the given matrix rows, applied to a."""
    return tuple([sum(map(mul, row, a)) % p for row in rows])


def _pow(a: tuple[int, ...], e: int, fold, p: int) -> tuple[int, ...]:
    """a^e mod m for e >= 0, by square-and-multiply."""
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = _mul(result, a, fold, p)
        e >>= 1
        if e:
            a = _mul(a, a, fold, p)
    return result


def _prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Rabin's test: t^(p^k) = t mod m, and t^(p^(k/q)) - t is a unit for
    every prime q | k.

    Once t^(p^k) = t, m is squarefree and the degrees of its factors divide
    k, so GF(p)[t]/m is a product of fields GF(p^d) with d | k.  Its units
    are then exactly the h with h^(p^k - 1) = 1, which stands in for
    gcd(h, m) = 1.
    """
    k = len(m) - 1
    if k == 1:
        return True
    fold = _fold_table(m, p)
    t = (0, 1) + (0,) * (k - 2)
    frob = [t]  # t^(p^j) mod m
    for _ in range(k):
        frob.append(_pow(frob[-1], p, fold, p))
    if frob[k] != t:
        return False
    one = (1,) + (0,) * (k - 1)
    for q in _prime_divisors(k):
        h = list(frob[k // q])
        h[1] = (h[1] - 1) % p
        if _pow(tuple(h), p**k - 1, fold, p) != one:
            return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k minimizing sum(c_i * p**i)."""
    for counter in range(p**k):
        digits, n = [], counter
        for _ in range(k):
            digits.append(n % p)
            n //= p
        m = tuple(digits) + (1,)
        if _is_irreducible(m, p):
            return m
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Field and FieldElement
# ---------------------------------------------------------------------------


class Field:
    """GF(p^k) with a fixed monic irreducible modulus.

    Construct via GF(p, k) to share instances; direct construction is fine
    too.  A Field compares equal to any Field with the same (p, k, modulus).

    Batch code holds elements as rows of k int64 digits; digit_array and
    element_rows convert, and three read-only arrays give the tables for such
    rows: reduction, (2k-1, k), whose row i is t^i mod m; multiplication,
    (k, k, k), whose [d, i] is t^(d+i) mod m, so that M = c @ multiplication
    % p is the k x k matrix of a -> c*a, a @ M % p the digits of c*a; and
    pth_root_matrix, (k, k), with a @ pth_root_matrix = pth_root(a).
    """

    __slots__ = ("p", "k", "modulus", "order", "reduction", "multiplication",
                 "pth_root_matrix", "_zero", "_one", "_fold", "_phi", "_trace")

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        # The cap comes before the trial-division primality test, which would
        # run for hours on a large p.  k >= 24 gives p^k >= 2^24 > 10^7, so a
        # huge k never forms p**k.
        if k < 1:
            raise InvalidInput("extension degree must be >= 1")
        if p >= 2 and (k >= _MAX_FIELD_SIZE.bit_length() or p**k > _MAX_FIELD_SIZE):
            raise FieldTooLarge(f"field GF({p}^{k}) exceeds the {_MAX_FIELD_SIZE}-element cap")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.k = k
        if modulus is None:
            modulus = _smallest_irreducible(p, k)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        self.order = p**k
        self._zero = FieldElement(self, (0,) * k)
        self._one = FieldElement(self, (1,) + (0,) * (k - 1))
        self._fold = fold = _fold_table(modulus, p)
        # Phi, the matrix of x -> x^(p^(k-1)), as rows; its column j is
        # pth_root(t^j) = pth_root(t)^j.  Only k >= 2 reads root.
        root = _pow((0, 1, *(0,) * (k - 2))[:k], p ** (k - 1), fold, p)
        columns = [self._one.digits]
        for _ in range(k - 1):
            columns.append(_mul(columns[-1], root, fold, p))
        self._phi = tuple(zip(*columns))
        # Tr(t^j), the trace of multiplication by t^j: sum_l [t^(j+l) mod m]_l.
        self._trace = tuple(
            (k * (j == 0) + sum(fold[l][j + l - k] for l in range(k - j, k))) % p
            for j in range(k)
        )
        self.reduction = np.eye(2 * k - 1, k, dtype=np.int64)
        self.reduction[k:] = np.array(self._fold, dtype=np.int64).reshape(k, k - 1).T
        self.multiplication = self.reduction[np.add.outer(np.arange(k), np.arange(k))]
        self.pth_root_matrix = np.array(self._phi, dtype=np.int64).T
        for table in (self.reduction, self.multiplication, self.pth_root_matrix):
            table.setflags(write=False)  # shared by everything over the field

    # -- construction -------------------------------------------------------

    def __call__(self, value) -> FieldElement:
        """Coerce an int (reduced mod p) or a digit sequence to an element."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        digits = tuple(int(c) % self.p for c in value)
        if len(digits) > self.k:
            raise ValueError(f"expected at most {self.k} digits")
        return FieldElement(self, digits + (0,) * (self.k - len(digits)))

    @property
    def zero(self) -> FieldElement:
        return self._zero

    @property
    def one(self) -> FieldElement:
        return self._one

    @property
    def gen(self) -> FieldElement:
        """The class of t, a root of the modulus (k >= 2)."""
        if self.k == 1:
            raise ValueError("prime field has no extension generator")
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def from_counter(self, n: int) -> FieldElement:
        """The n-th element in canonical order, n in [0, p^k)."""
        digits = []
        for _ in range(self.k):
            digits.append(n % self.p)
            n //= self.p
        return FieldElement(self, tuple(digits))

    def elements(self) -> Iterator[FieldElement]:
        """All elements in canonical (counter) order."""
        for n in range(self.order):
            yield self.from_counter(n)

    def digit_array(self, elements: Iterable[FieldElement]) -> np.ndarray:
        """The (n, k) int64 array whose rows are the digits of n elements."""
        flat = itertools.chain.from_iterable(c.digits for c in elements)
        return np.fromiter(flat, dtype=np.int64).reshape(-1, self.k)

    def element_rows(self, digits: np.ndarray) -> tuple[tuple[FieldElement, ...], ...]:
        """Rows of elements from a (rows, cols, k) digit array, one element
        object per distinct value."""
        counters = digits @ self.p ** np.arange(self.k)
        values, inverse = np.unique(counters, return_inverse=True)
        elements = [self.from_counter(c) for c in values.tolist()]
        rows = inverse.reshape(counters.shape).tolist()
        return tuple(tuple(map(elements.__getitem__, row)) for row in rows)

    @functools.cache
    def primitive(self) -> FieldElement:
        """The generator of the multiplicative group with the smallest counter.

        g is primitive when g^((q-1)/r) != 1 for every prime r | q-1.  Found
        on first use and kept per field, so equal fields share it.
        """
        n, one = self.order - 1, self._one.digits
        cofactors = [n // r for r in _prime_divisors(n)]
        return next(g for g in map(self.from_counter, range(1, self.order))
                    if all(_pow(g.digits, e, self._fold, self.p) != one for e in cofactors))

    def log_tables(self) -> LogTables:
        """This field's log tables, built on first use (see LogTables).

        The tables of recently used fields are kept until they hold more than
        2 * _MAX_FIELD_SIZE elements together, so a whole tower
        GF(q), GF(q^2), ..., GF(q^S) stays cached: sum_(s<=S) q^s < 2 q^S.
        """
        with _LOG_LOCK:
            tables = _LOG_TABLES.pop(self, None)
            if tables is None:
                room = 2 * _MAX_FIELD_SIZE - self.order
                while _LOG_TABLES and sum(f.order for f in _LOG_TABLES) > room:
                    _LOG_TABLES.popitem(last=False)  # the least recently used
                tables = _build_log_tables(self)
            _LOG_TABLES[self] = tables
        return tables

    def random_element(self, rng, nonzero: bool = False) -> FieldElement:
        while True:
            e = FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))
            if not (nonzero and e.is_zero()):
                return e

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(data: dict) -> "Field":
        return Field(data["p"], data["k"], tuple(data["modulus"]))


@functools.lru_cache(maxsize=None)
def GF(p: int, k: int = 1) -> Field:
    """Shared Field instance with the canonical modulus."""
    return Field(p, k)


class FieldElement:
    """An element of GF(p^k), canonical (reduced) at all times."""

    __slots__ = ("field", "digits")

    def __init__(self, field: Field, digits: tuple[int, ...]):
        self.field = field
        self.digits = digits

    # -- helpers ------------------------------------------------------------

    def _check(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other
            raise ValueError("elements of different fields")
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    def counter(self) -> int:
        """Position in the canonical element order."""
        n = 0
        for d in reversed(self.digits):
            n = n * self.field.p + d
        return n

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.digits, other.digits))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.digits, other.digits))
        )

    def __rsub__(self, other):
        return self.field(other) - self

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.digits))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        if f.k == 1:  # the kernel's one shortcut, see the module docstring
            return FieldElement(f, ((self.digits[0] * other.digits[0]) % f.p,))
        return FieldElement(f, _mul(self.digits, other.digits, f._fold, f.p))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        f = self.field
        a = self.digits
        if not any(a[1:]):  # in GF(p)
            if a[0] == 0:
                raise ZeroDivisionError("inverse of zero")
            return FieldElement(f, (pow(a[0], -1, f.p),) + a[1:])
        p, fold = f.p, f._fold
        conjugate = rest = _matvec(f._phi, a, p)
        for _ in range(f.k - 2):
            conjugate = _matvec(f._phi, conjugate, p)
            rest = _mul(rest, conjugate, fold, p)
        norm_inv = pow(_mul(a, rest, fold, p)[0], -1, p)
        return FieldElement(f, tuple([c * norm_inv % p for c in rest]))

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field(other) / self

    def __pow__(self, e: int) -> "FieldElement":
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(f, _pow(self.digits, e, f._fold, f.p))

    # -- Frobenius structure --------------------------------------------------

    def pth_root(self) -> "FieldElement":
        """The unique r with r^p = self; equals self^(p^(k-1))."""
        f = self.field
        return FieldElement(f, _matvec(f._phi, self.digits, f.p))

    def trace_to_prime(self) -> int:
        """Sum of the Galois conjugates, as a residue in [0, p)."""
        f = self.field
        return sum(map(mul, f._trace, self.digits)) % f.p

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.digits == other.digits and (
                self.field is other.field or self.field == other.field
            )
        if isinstance(other, int):
            return self == self.field(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.digits, self.field.p, self.field.k))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.field.k == 1:
            return str(self.digits[0])
        return "(" + ",".join(str(d) for d in self.digits) + ")"


# ---------------------------------------------------------------------------
# Log tables
# ---------------------------------------------------------------------------


class LogTables(NamedTuple):
    """Read-only log tables of GF(q) for its primitive element g.

    Elements are named by their counters, and n = q - 1 stands for the log
    of zero:

    antilog[i]  counter of g^i, 0 <= i < n: a permutation of 1..n;
    log[c]      the i with g^i = element c, and log[0] = n;
    zech[i]     log(1 + g^i), n where 1 + g^i = 0;
    trace[i]    Tr(g^i) in [0, p), and trace[n] = Tr(0) = 0.

    The first three are int32 (q <= 10^7 < 2^31), the trace the narrowest
    unsigned type that holds p - 1.
    """

    antilog: np.ndarray
    log: np.ndarray
    zech: np.ndarray
    trace: np.ndarray


# Field -> LogTables, least recently used first; Field.log_tables keeps it
# under _LOG_LOCK, so no thread iterates it while another inserts.  It evicts
# by the fields' total size, which functools.lru_cache cannot express.
_LOG_TABLES: OrderedDict = OrderedDict()
_LOG_LOCK = threading.Lock()

# Powers of g made per step of the table build.
_LOG_BLOCK = 1 << 14


def _build_log_tables(field: Field) -> LogTables:
    """The tables of field, a block of B powers of g at a time.

    The first block comes from the fold kernel; each later one is the one
    before times the k x k matrix of multiplication by g^B.  Only counters
    and traces are kept, so no (q, k) digit array is ever formed.
    """
    p, k, n = field.p, field.k, field.order - 1
    fold, g = field._fold, field.primitive().digits
    powers = [field._one.digits]
    for _ in range(min(n, _LOG_BLOCK) - 1):
        powers.append(_mul(powers[-1], g, fold, p))
    rows = [_mul(powers[-1], g, fold, p)]  # t^j * g^B
    for _ in range(k - 1):
        rows.append(_mul(rows[-1], field.gen.digits, fold, p))
    step = np.array(rows, dtype=np.int64)
    place = p ** np.arange(k, dtype=np.int64)
    weights = np.array(field._trace, dtype=np.int64)
    block = np.array(powers, dtype=np.int64)
    antilog = np.empty(n, dtype=np.int32)
    trace = np.zeros(n + 1, dtype=np.min_scalar_type(p - 1))
    for start in range(0, n, len(block)):
        stop = min(start + len(block), n)
        antilog[start:stop] = block[: stop - start] @ place
        trace[start:stop] = block[: stop - start] @ weights % p
        block = block @ step % p
    log = np.empty(n + 1, dtype=np.int32)
    log[antilog] = np.arange(n, dtype=np.int32)
    log[0] = n
    # 1 + g^i: digit 0 of the counter goes up by one, wrapping from p - 1
    plus_one = antilog + 1
    plus_one[antilog % p == p - 1] -= p
    zech = log[plus_one]
    for table in (antilog, log, zech, trace):
        table.setflags(write=False)
    return LogTables(antilog, log, zech, trace)


# ---------------------------------------------------------------------------
# Embeddings GF(p^k) -> GF(p^(k*s))
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def embedding(src: Field, dst: Field):
    """The canonical field embedding src -> dst.

    Requires src.p == dst.p and src.k | dst.k.  The generator of src is sent
    to the root of src's modulus that comes first in dst's canonical element
    order, which pins the embedding uniquely.  Returns a callable.

    The roots lie in the subfield of order r = src.order, whose nonzero
    elements are the powers of h = g^((dst.order - 1)/(r - 1)) for the
    primitive g of dst, so only those r - 1 elements are tried.  The search
    runs once per (src, dst): the callables are cached.  For k >= 2 the
    callable is one mat-vec; GF(p) goes through a table of its p images.
    """
    if src.p != dst.p or dst.k % src.k != 0:
        raise ValueError(f"no embedding {src} -> {dst}")
    if src == dst:
        return lambda a: a
    if src.k == 1:
        consts = [dst(n) for n in range(src.p)]
        return lambda a: consts[a.digits[0]]
    mod_consts = [dst(c) for c in src.modulus]
    h = dst.primitive() ** ((dst.order - 1) // (src.order - 1))
    roots, x = [], dst.one
    for _ in range(src.order - 1):
        acc = dst.zero
        for c in reversed(mod_consts):
            acc = acc * x + c
        if acc.is_zero():
            roots.append(x)
        x = x * h
    if not roots:
        raise FieldTooSmall(f"{dst} contains no root of the modulus of {src}")
    root = min(roots, key=FieldElement.counter)
    columns = [dst.one.digits]  # root^j, the image of t^j
    for _ in range(src.k - 1):
        columns.append(_mul(columns[-1], root.digits, dst._fold, dst.p))
    rows = tuple(zip(*columns))
    return lambda a: FieldElement(dst, _matvec(rows, a.digits, dst.p))
