"""Reference arithmetic in GF(p)[t]/m on coefficient lists.

Trial-division remainder and schoolbook product, lowest degree first.  It
shares no code with ascart.finite_field, whose kernel folds high degrees
back through a table of t^i mod m; tests compare the two, and the modulus
oracle divides by every monic polynomial of lower degree with it.
"""


def poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a by m over GF(p), with trailing zeros stripped."""
    a = [c % p for c in a]
    inv_lead = pow(m[-1], -1, p)
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(m):
            return a
        shift = len(a) - len(m)
        q = a[-1] * inv_lead % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - q * mi) % p


def mul_mod(a, b, m, p: int) -> tuple[int, ...]:
    """Digits of a * b mod m, padded to deg m digits."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    rem = poly_rem(prod, list(m), p)
    return tuple(rem) + (0,) * (len(m) - 1 - len(rem))


def pow_mod(a, e: int, m, p: int) -> tuple[int, ...]:
    """Digits of a^e mod m, e >= 0."""
    result = mul_mod([1], [1], m, p)
    base = tuple(a)
    while e:
        if e & 1:
            result = mul_mod(result, base, m, p)
        base = mul_mod(base, base, m, p)
        e >>= 1
    return result
