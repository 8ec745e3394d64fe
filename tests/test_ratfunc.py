"""Polynomials and partial fractions, against the reference rational functions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascart import GF, PartialFraction, Poly
from ascart.errors import IrreducibleDenominatorFactor
from ascart.ratfunc import partial_fractions

from conftest import random_split_ratfunc
from naive_local import binom_mod, pf_mul, pf_pow
from naive_ratfunc import (RatFunc, assemble, decompose, derivative, evaluate, from_ints, gcd,
                           power)

F3 = GF(3)
F7 = GF(7)


def random_poly(field, rng, max_deg):
    return Poly(field, [field.random_element(rng) for _ in range(rng.randrange(max_deg + 2))])


def random_pf(field, rng, max_poly_deg=4, max_poles=2, max_order=3):
    poly = random_poly(field, rng, max_poly_deg)
    tails = {}
    for n in rng.sample(range(field.order), rng.randrange(max_poles + 1)):
        e = field.from_counter(n)
        tails[e] = {
            j: field.random_element(rng)
            for j in range(1, rng.randrange(max_order) + 2)
        }
    return PartialFraction(poly, tails)


class TestPolyArith:
    def test_product_example(self):
        a = from_ints(F3, [1, 1])  # x + 1
        b = from_ints(F3, [2, 1])  # x + 2
        assert a * b == from_ints(F3, [2, 0, 1])  # x^2 + 2 (3x = 0)

    def test_gcd_example(self):
        a = from_ints(F7, [-1, 0, 1])  # x^2 - 1
        b = from_ints(F7, [-1, 1])  # x - 1
        assert gcd(a, b) == from_ints(F7, [6, 1])  # x + 6

    def test_pow_zero(self):
        assert power(Poly.x(F3), 0) == Poly.constant(F3, 1)

    def test_divmod_invariant(self, rng):
        for _ in range(200):
            a = random_poly(F7, rng, 6)
            b = random_poly(F7, rng, 3)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree() < b.degree()

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly.x(F3), Poly(F3))

    def test_derivative(self):
        # d/dx (x^3 + 2x) = 3x^2 + 2 = 2 over GF(3)
        p = from_ints(F3, [0, 2, 0, 1])
        assert derivative(p) == from_ints(F3, [2])

    def test_synthetic_division(self, rng):
        for _ in range(100):
            a = random_poly(F7, rng, 6)
            e = F7.random_element(rng)
            q, r = a.divmod_linear(e)
            lin = Poly.x(F7) - Poly.constant(F7, e)
            assert q * lin + Poly.constant(F7, r) == a
            assert r == evaluate(a, e)

    def test_taylor(self, rng):
        for _ in range(50):
            a = random_poly(F7, rng, 5)
            e = F7.random_element(rng)
            coeffs = a.taylor(e, a.degree() + 2)
            lin = Poly.x(F7) - Poly.constant(F7, e)
            rebuilt = Poly(F7)
            for s, c in enumerate(coeffs):
                rebuilt = rebuilt + power(lin, s) * c
            assert rebuilt == a

    @pytest.mark.parametrize("ints", [[3, 1, 5], [0, 1], [4]])
    def test_pow_is_the_repeated_product_in_few_products(self, ints, monkeypatch):
        base = from_ints(F7, ints)
        products = [Poly.constant(F7, 1)]
        for _ in range(40):
            products.append(products[-1] * base)
        calls = []
        mul = Poly.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted)
        for n, product in enumerate(products):
            calls.clear()
            assert power(base, n) == product
            # square-and-multiply from the base, with no final squaring
            assert len(calls) == max(n.bit_length() + bin(n).count("1") - 2, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=5), st.lists(st.integers(0, 6), max_size=5))
    def test_mul_commutes(self, xs, ys):
        a, b = from_ints(F7, xs), from_ints(F7, ys)
        assert a * b == b * a


class TestRatFunc:
    def test_canonical(self):
        f = RatFunc(from_ints(F7, [0, 2]), from_ints(F7, [0, 0, 2]))
        assert f.num == from_ints(F7, [1])
        assert f.den == from_ints(F7, [0, 1])  # 2x/2x^2 = 1/x

    def test_exact_division(self, rng):
        for _ in range(100):
            a = random_split_ratfunc(F7, rng)
            b = random_split_ratfunc(F7, rng)
            if b.is_zero():
                continue
            assert (a * b) / b == a

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly.x(F3), Poly(F3))


class TestPartialFractions:
    def test_example_poly_plus_simple_pole(self):
        # f = (x^2 (x-1) + 1)/(x-1) = x^2 + 1/(x-1)
        num = from_ints(F3, [1, 0, -1, 1])
        den = from_ints(F3, [-1, 1])
        pf = decompose(RatFunc(num, den))
        assert pf.poly == from_ints(F3, [0, 0, 1])
        assert pf.tails == {F3(1): {1: F3(1)}}

    def test_example_double_pole(self):
        F = GF(5)
        e = F(2)
        den = power(Poly.x(F) - Poly.constant(F, e), 2)
        pf = decompose(RatFunc(Poly.constant(F, 1), den))
        assert pf.poly.is_zero()
        assert pf.tails == {e: {2: F.one}}

    def test_irreducible_denominator(self):
        f = RatFunc(Poly.constant(F3, 1), from_ints(F3, [1, 0, 1]))
        with pytest.raises(IrreducibleDenominatorFactor) as exc:
            decompose(f)
        assert exc.value.degree == 2

    def test_assemble_example(self):
        pf = PartialFraction(from_ints(F3, [0, 0, 1]), {F3(1): {1: F3.one}})
        f = assemble(pf)
        assert f.num == from_ints(F3, [1, 0, 2, 1])
        assert f.den == from_ints(F3, [2, 1])

    def test_assemble_empty(self):
        f = assemble(PartialFraction(Poly(F3)))
        assert f.is_zero()
        assert f.den == Poly.constant(F3, 1)

    @pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2)])
    def test_round_trips(self, p, k):
        field = GF(p, k)
        rng = random.Random(p * 100 + k)
        for _ in range(100):
            pf = random_pf(field, rng)
            assert decompose(assemble(pf)) == pf
            f = random_split_ratfunc(field, rng)
            assert assemble(decompose(f)) == f

    def test_multiplication_matches_ratfunc(self, rng):
        for _ in range(150):
            a, b = random_pf(F7, rng), random_pf(F7, rng)
            assert assemble(pf_mul(a, b)) == assemble(a) * assemble(b)

    @pytest.mark.parametrize("field", [F7, GF(3, 2)], ids=repr)
    def test_operator_matches_reference_product(self, field):
        rng = random.Random(field.order)
        for _ in range(60):
            a, b = random_pf(field, rng), random_pf(field, rng)
            assert a * b == pf_mul(a, b)

    def test_reference_power(self, rng):
        for _ in range(30):
            a, n = random_pf(F7, rng, max_poly_deg=2), rng.randrange(4)
            assert assemble(pf_pow(a, n)) == assemble(a) ** n
        with pytest.raises(ValueError):
            pf_pow(random_pf(F7, rng), -1)


class TestCandidateRoots:
    """partial_fractions at a few candidates against every element of the
    field as a candidate."""

    @staticmethod
    def split_denominator(field, rng, roots):
        den = Poly.constant(field, 1)
        mults = [rng.randrange(1, 4) for _ in roots]  # repeated roots included
        for e, n in zip(roots, mults):
            den = den * power(Poly.x(field) - Poly.constant(field, e), n)
        return den, mults

    @pytest.mark.parametrize("field", [GF(7), GF(3, 3), GF(2, 5)], ids=repr)
    def test_matches_full_scan(self, field):
        rng = random.Random(field.order)
        for _ in range(60):
            picks = rng.sample(range(field.order), rng.randrange(1, 6))
            elements = [field.from_counter(n) for n in picks]
            n_roots = rng.randrange(1, len(elements) + 1)
            den, _mults = self.split_denominator(field, rng, elements[:n_roots])
            f = RatFunc(random_poly(field, rng, 6), den)
            candidates = list(elements)  # the roots and some non-roots
            rng.shuffle(candidates)
            assert decompose(f, candidates) == decompose(f)

    @pytest.mark.parametrize("field", [GF(7), GF(3, 3), GF(2, 5)], ids=repr)
    def test_missing_root_raises(self, field):
        rng = random.Random(field.order + 1)
        for _ in range(20):
            picks = rng.sample(range(field.order), 4)
            kept, missing, *others = [field.from_counter(n) for n in picks]
            den, mults = self.split_denominator(field, rng, [kept, missing])
            f = RatFunc(Poly.constant(field, 1), den)
            with pytest.raises(IrreducibleDenominatorFactor) as exc:
                decompose(f, [kept, *others])
            assert exc.value.degree == mults[1]


def linear_power(field, e, m):
    return power(Poly.x(field) - Poly.constant(field, e), m)


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([GF(7), GF(3, 2), GF(2, 3)]), data=st.data())
def test_unreduced_pair_decomposes_as_its_ratfunc(field, data):
    """partial_fractions((num, den)) for den = c * prod (x - e_i)^(m_i), c
    any unit, and num sharing factors with den, equals the decomposition
    of the canonical RatFunc(num, den)."""
    element = st.integers(0, field.order - 1).map(field.from_counter)
    roots = data.draw(st.lists(element, max_size=3, unique=True))
    unit = data.draw(st.integers(1, field.order - 1).map(field.from_counter))
    num = Poly(field, data.draw(st.lists(element, max_size=5)))
    den = Poly.constant(field, unit)
    for e in roots:
        den = den * linear_power(field, e, data.draw(st.integers(1, 3)))
        num = num * linear_power(field, e, data.draw(st.integers(0, 4)))
    others = data.draw(st.lists(element, max_size=3))
    candidates = data.draw(st.permutations(roots + others))
    assert partial_fractions((num, den), candidates=candidates) == decompose(
        RatFunc(num, den), candidates
    )


def test_unreduced_pair_errors():
    F = GF(5)
    e1, e2 = F(1), F(2)
    with pytest.raises(ZeroDivisionError):
        partial_fractions((Poly.x(F), Poly(F)), candidates=[e1])
    den = linear_power(F, e1, 1) * linear_power(F, e2, 2) * F(3)
    with pytest.raises(IrreducibleDenominatorFactor) as exc:
        partial_fractions((Poly.constant(F, 1), den), candidates=[e1])
    assert exc.value.degree == 2


class TestBinomMod:
    def test_against_math_comb(self, rng):
        for p in (2, 3, 5, 7, 13):
            for _ in range(100):
                n = rng.randrange(200)
                k = rng.randrange(200)
                assert binom_mod(n, k, p) == math.comb(n, k) % p
