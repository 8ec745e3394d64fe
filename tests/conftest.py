"""Shared builders for the test suite.

Tests draw random curves through ascart.sweep.random_curve with fixed
seeds, so every run exercises identical inputs.
"""

import itertools
import math
import random

import pytest

from ascart import GF, INF, CurveSpec, PoleDatum, Poly, embedding, kappa, partition_HA, validate
from ascart.invariants import rank
from ascart.sweep import random_curve

from naive_ratfunc import RatFunc, power


def curve(p, inf_coeffs, finite=(), k=1):
    """CurveSpec over GF(p^k) from integer coefficient lists.

    finite is a sequence of (location, coeffs-degrees-1..d) pairs.
    """
    field = GF(p, k)
    poles = [PoleDatum.at_infinity(field, inf_coeffs)]
    for loc, coeffs in finite:
        poles.append(PoleDatum.finite(field, loc, coeffs))
    return CurveSpec(field, tuple(poles))


def embed_curve(spec, dst):
    """The same curve with all data pushed through the canonical embedding."""
    phi = embedding(spec.field, dst)
    poles = tuple(
        PoleDatum(INF if datum.is_infinite else phi(datum.location),
                  tuple(phi(c) for c in datum.coeffs))
        for datum in spec.poles
    )
    return CurveSpec(dst, poles)


# Every (p, orders) with p = 1 mod L and at most 3 poles, for p up to this bound
PARTITION_MAX_P = 23


def admissible_families(max_p, max_poles):
    for p in range(2, max_p + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            divisors = [d for d in range(1, p) if (p - 1) % d == 0]
            for n in range(1, max_poles + 1):
                yield from ((p, orders) for orders in itertools.product(divisors, repeat=n))


@pytest.fixture
def rng():
    return random.Random(20240501)


def random_specs(p, orders, count, seed, k=1):
    """Deterministic stream of random curves with the given pole orders."""
    field = GF(p, k)
    r = random.Random(seed)
    return [random_curve(field, orders, r) for _ in range(count)]


def random_split_ratfunc(field, rng, max_num_deg=4, max_poles=2, max_order=3):
    """Random f whose denominator splits into linear factors."""
    num = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(max_num_deg + 2))])
    den = Poly.constant(field, 1)
    for n in rng.sample(range(field.order), rng.randrange(max_poles + 1)):
        e = field.from_counter(n)
        lin = Poly.x(field) - Poly.constant(field, e)
        den = den * power(lin, rng.randrange(max_order) + 1)
    return RatFunc(num, den)


def assert_pivot_structure(spec, M):
    """The paper's pivot lemmas on the Cartier matrix M of spec, p = 1 mod L:
    C(omega) has a nonzero coefficient at kappa(omega) for each omega in H,
    no form before omega in basis order has one there, the targets are
    distinct, and the columns of H carry the whole rank."""
    orders = validate(spec).orders
    index = {form: i for i, form in enumerate(M.basis)}
    H, _ = partition_HA(spec.p, orders)
    targets = set()
    for w in H:
        t = kappa(spec.p, orders, w)
        assert not M.field(M.digits[index[t], index[w]]).is_zero(), w
        assert not M.digits[index[t], : index[w]].any(), w  # M.basis is in basis order
        targets.add(t)
    assert len(targets) == len(H)
    # The columns of H have rank #H already: on the distinct target rows,
    # each is nonzero at its own target and every earlier column is zero
    # there, a triangular submatrix.  So they carry the whole rank when it
    # is #H.
    assert len(H) == rank(M)
