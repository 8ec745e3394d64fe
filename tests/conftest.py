"""Shared builders for the test suite.

Tests draw random curves through ascart.sweep.random_curve with fixed
seeds, so every run exercises identical inputs.
"""

import random

import pytest

from ascart import GF, CurveSpec, PoleDatum, Poly, RatFunc, kappa, partition_HA, validate
from ascart.invariants import rank, rank_of_columns
from ascart.sweep import random_curve


def curve(p, inf_coeffs, finite=(), k=1):
    """CurveSpec over GF(p^k) from integer coefficient lists.

    finite is a sequence of (location, coeffs-degrees-1..d) pairs.
    """
    field = GF(p, k)
    poles = [PoleDatum.at_infinity(field, inf_coeffs)]
    for loc, coeffs in finite:
        poles.append(PoleDatum.finite(field, loc, coeffs))
    return CurveSpec(field, tuple(poles))


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
        den = den * lin ** (rng.randrange(max_order) + 1)
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
        assert not M.entry(index[t], index[w]).is_zero(), w
        assert not M.digits[index[t], : index[w]].any(), w  # M.basis is in basis order
        targets.add(t)
    assert len(targets) == len(H)
    assert rank_of_columns(M, [index[w] for w in H]) == len(H) == rank(M)
