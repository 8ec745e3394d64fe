"""Exact arithmetic in GF(p^k).

Elements are vectors of k residues, the coordinates with respect to the
power basis 1, t, ..., t^(k-1) of GF(p)[t] modulo a fixed monic irreducible
polynomial of degree k.  The modulus is chosen deterministically: among all
monic irreducibles of degree k it is the one with the smallest counter value
sum(c_i * p**i), i.e. coefficient tuples are compared from the highest
degree down.  Two runs (or two implementations following the same rule)
therefore agree on every digit of every result.

Everything is immutable and every operation is exact; there is no lazy
reduction and no floating point.  Frobenius x -> x^p is a field automorphism
of order k, so p-th roots exist and are unique: pth_root(a) = a^(p^(k-1)).

Fields are capped at about 10**7 elements.  The cap keeps exhaustive
procedures (root finding, point counting, element enumeration) honest.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from .errors import FieldTooLarge, FieldTooSmall, NotPrime

_MAX_FIELD_SIZE = 10**7


def is_prime(n: int) -> bool:
    """Trial-division primality test; fields are desk scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Dense polynomials over the prime field, represented as lists of ints.
# These power modulus selection and element arithmetic; they are internal.
# ---------------------------------------------------------------------------


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        q = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - q * mi) % p
        _trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _poly_powmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_rem(base, m, p)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, p), m, p)
        base = _poly_rem(_poly_mul(base, base, p), m, p)
        e >>= 1
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


def _is_irreducible(m: list[int], p: int) -> bool:
    """Rabin test: t^(p^k) = t mod m, and t^(p^(k/q)) - t coprime to m."""
    k = len(m) - 1
    if k == 1:
        return True
    t = [0, 1]
    # t^(p^j) mod m by iterating the p-power map.
    frob = _poly_powmod(t, p, m, p)
    powers = [t, frob]
    for _ in range(k - 1):
        powers.append(_poly_powmod(powers[-1], p, m, p))
    if powers[k] != _poly_rem(t, m, p):
        return False
    for q in _prime_divisors(k):
        h = [x % p for x in powers[k // q]]
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(m, _trim(diff), p)
        if len(g) - 1 != 0:
            return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k minimizing sum(c_i * p**i)."""
    if k == 1:
        return (0, 1)  # the polynomial t
    for counter in range(p**k):
        digits, n = [], counter
        for _ in range(k):
            digits.append(n % p)
            n //= p
        m = digits + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Field and FieldElement
# ---------------------------------------------------------------------------


class Field:
    """GF(p^k) with a fixed monic irreducible modulus.

    Construct via GF(p, k) to share instances; direct construction is fine
    too.  A Field compares equal to any Field with the same (p, k, modulus).
    """

    __slots__ = ("p", "k", "modulus", "order", "_zero", "_one", "_gen")

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        # The cap comes before the trial-division primality test, which would
        # run for hours on a large p.  k >= 24 gives p^k >= 2^24 > 10^7, so a
        # huge k never forms p**k.
        if k < 1:
            raise ValueError("extension degree must be >= 1")
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
            if not _is_irreducible(list(modulus), p):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        self.order = p**k
        self._zero = FieldElement(self, (0,) * k)
        self._one = FieldElement(self, (1,) + (0,) * (k - 1))
        self._gen = None if k == 1 else FieldElement(self, (0, 1) + (0,) * (k - 2))

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
        if self._gen is None:
            raise ValueError("prime field has no extension generator")
        return self._gen

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
            if other.field == self.field:
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
        if f.k == 1:
            return FieldElement(f, ((self.digits[0] * other.digits[0]) % f.p,))
        prod = _poly_mul(list(self.digits), list(other.digits), f.p)
        red = _poly_rem(prod, list(f.modulus), f.p)
        return FieldElement(f, tuple(red) + (0,) * (f.k - len(red)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        f = self.field
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if f.k == 1:
            return FieldElement(f, (pow(self.digits[0], -1, f.p),))
        # extended Euclid in GF(p)[t] against the modulus
        p = f.p
        r0, r1 = list(f.modulus), _trim(list(self.digits))
        s0, s1 = [], [1]
        while r1:
            # divmod r0 by r1
            q = []
            rem = list(r0)
            inv_lead = pow(r1[-1], -1, p)
            while rem and len(rem) >= len(r1):
                shift = len(rem) - len(r1)
                c = (rem[-1] * inv_lead) % p
                if len(q) < shift + 1:
                    q += [0] * (shift + 1 - len(q))
                q[shift] = c
                for i, ri in enumerate(r1):
                    rem[shift + i] = (rem[shift + i] - c * ri) % p
                _trim(rem)
            r0, r1 = r1, rem
            new_s = list(s0)
            qs = _poly_mul(q, s1, p)
            if len(new_s) < len(qs):
                new_s += [0] * (len(qs) - len(new_s))
            for i, c in enumerate(qs):
                new_s[i] = (new_s[i] - c) % p
            s0, s1 = s1, _trim(new_s)
        inv_r = pow(r0[-1], -1, p)
        res = [(c * inv_r) % p for c in s0]
        res = _poly_rem(res, list(f.modulus), p)
        return FieldElement(f, tuple(res) + (0,) * (f.k - len(res)))

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field(other) / self

    def __pow__(self, e: int) -> "FieldElement":
        f = self.field
        if f.k == 1:
            if self.digits[0] == 0 and e < 0:
                raise ZeroDivisionError("inverse of zero")
            if self.digits[0] == 0:
                return f.one if e == 0 else f.zero
            return FieldElement(f, (pow(self.digits[0], e, f.p),))
        if e < 0:
            return self.inverse() ** (-e)
        result, base = f.one, self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- Frobenius structure --------------------------------------------------

    def frobenius(self) -> "FieldElement":
        """x -> x^p, the generator of the Galois group over GF(p)."""
        if self.field.k == 1:
            return self
        return self**self.field.p

    def pth_root(self) -> "FieldElement":
        """The unique r with r^p = self; equals self^(p^(k-1))."""
        if self.field.k == 1:
            return self
        r = self
        for _ in range(self.field.k - 1):
            r = r.frobenius()
        return r

    def trace_to_prime(self) -> int:
        """Sum of the Galois conjugates, as a residue in [0, p)."""
        if self.field.k == 1:
            return self.digits[0]
        acc, cur = self, self
        for _ in range(self.field.k - 1):
            cur = cur.frobenius()
            acc = acc + cur
        if any(acc.digits[1:]):
            raise AssertionError("trace left the prime field")  # unreachable
        return acc.digits[0]

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.digits == other.digits
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

    def to_json(self) -> list[int]:
        return list(self.digits)


# ---------------------------------------------------------------------------
# Embeddings GF(p^k) -> GF(p^(k*s))
# ---------------------------------------------------------------------------


def embedding(src: Field, dst: Field):
    """The canonical field embedding src -> dst.

    Requires src.p == dst.p and src.k | dst.k.  The generator of src is sent
    to the root of src's modulus that comes first in dst's canonical element
    order, which pins the embedding uniquely.  Returns a callable.
    """
    if src.p != dst.p or dst.k % src.k != 0:
        raise ValueError(f"no embedding {src} -> {dst}")
    if src == dst:
        return lambda a: a
    if src.k == 1:
        consts = [dst(n) for n in range(src.p)]
        return lambda a: consts[a.digits[0]]
    root = None
    mod_consts = [dst(c) for c in src.modulus]
    for x in dst.elements():
        acc = dst.zero
        for c in reversed(mod_consts):
            acc = acc * x + c
        if acc.is_zero():
            root = x
            break
    if root is None:
        raise FieldTooSmall(f"{dst} contains no root of the modulus of {src}")
    powers = [dst.one]
    for _ in range(src.k - 1):
        powers.append(powers[-1] * root)

    def embed(a: FieldElement) -> FieldElement:
        acc = dst.zero
        for d, rp in zip(a.digits, powers):
            if d:
                acc = acc + dst(d) * rp
        return acc

    return embed
