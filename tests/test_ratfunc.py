"""Polynomials and partial fractions, against the reference rational functions."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ascart import GF, PartialFraction, Poly, ratfunc
from ascart.errors import IrreducibleDenominatorFactor
from ascart.ratfunc import partial_fractions

from conftest import random_split_ratfunc
from naive_local import binom_mod, pf_mul, pf_pow
from naive_ratfunc import (RatFunc, assemble, decompose, derivative, evaluate, from_ints, gcd,
                           long_division, power, principal_parts, schoolbook,
                           synthetic_division, taylor)

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
            q, r = synthetic_division(a, e)
            lin = Poly.x(F7) - Poly.constant(F7, e)
            assert q * lin + Poly.constant(F7, r) == a
            assert r == evaluate(a, e)

    def test_taylor(self, rng):
        for _ in range(50):
            a = random_poly(F7, rng, 5)
            e = F7.random_element(rng)
            coeffs = taylor(a, e, a.degree() + 2)
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


# k > 1, p = 2, and GF(9999991), the largest prime field under the field
# cap, whose digits fill the widest Kronecker fields (64 bits)
BIG = GF(9999991)
FIELDS = [GF(2), GF(2, 3), GF(3, 2), GF(7), GF(3, 7), BIG]


def polys(field, max_size=8):
    elements = st.integers(0, field.order - 1).map(field.from_counter)
    return st.lists(elements, max_size=max_size).map(lambda cs: Poly(field, cs))


def top_digits(field, n):
    """The polynomial of n terms whose every digit is p - 1: each field of a
    product with it holds the largest sum its length allows."""
    return Poly(field, np.full((n, field.k), field.p - 1))


class TestDigitArithmetic:
    """Poly on digit rows against the element-wise references of
    naive_ratfunc."""

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(FIELDS), data=st.data())
    def test_product_is_the_schoolbook_product(self, field, data):
        a, b = data.draw(polys(field)), data.draw(polys(field))
        assert a * b == b * a == schoolbook(a, b)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_zero_and_one_term_products(self, field):
        rng = random.Random(field.order)
        zero, c = Poly(field), Poly.constant(field, field.random_element(rng, nonzero=True))
        for a in (zero, c, Poly.x(field), random_poly(field, rng, 6)):
            for b in (zero, c, Poly.x(field)):
                assert a * b == b * a == schoolbook(a, b)
        assert (zero * zero).is_zero() and (c * zero).is_zero()

    @pytest.mark.parametrize("n_a,n_b", [(40, 30), (1, 50), (2, 2)])
    def test_widest_fields(self, n_a, n_b):
        """Every digit p - 1 in GF(9999991): the fields sum up to
        min(n_a, n_b)*(p-1)^2, about 3*10^15, in 64-bit fields."""
        a, b = top_digits(BIG, n_a), top_digits(BIG, n_b)
        assert a * b == schoolbook(a, b)

    @pytest.mark.parametrize("field", [GF(2, 3), GF(7), GF(3, 7)], ids=repr)
    def test_chunks_of_the_shorter_factor(self, field, monkeypatch):
        """With the slot bound lowered to three rows of the shorter factor
        per product, a product of all-top digits comes in chunks, at their
        offsets."""
        monkeypatch.setattr(ratfunc, "_SLOT_BOUND", 3 * field.k * (field.p - 1) ** 2 + 1)
        for n_a, n_b in [(10, 7), (4, 4), (9, 3), (5, 1)]:
            a, b = top_digits(field, n_a), top_digits(field, n_b)
            assert a * b == schoolbook(a, b)

    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(FIELDS), data=st.data())
    def test_divmod_is_long_division(self, field, data):
        a, b = data.draw(polys(field)), data.draw(polys(field))
        assume(not b.is_zero())
        q, r = divmod(a, b)
        assert (q, r) == long_division(a, b)
        assert schoolbook(q, b) + r == a and r.degree() < b.degree()

    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(FIELDS), data=st.data())
    def test_synthetic_division_and_taylor(self, field, data):
        """The digit routines under partial_fractions, against the element
        references: _divide_linear on a nonzero a, _taylor on any."""
        a = data.draw(polys(field))
        e = data.draw(st.integers(0, field.order - 1).map(field.from_counter))
        times = ratfunc._times(field, e.digits)
        if not a.is_zero():
            q, r = ratfunc._divide_linear(a.digits, times, field.p)
            reference_q, reference_r = synthetic_division(a, e)
            assert Poly(field, q) == reference_q and tuple(r.tolist()) == reference_r.digits
        depth = data.draw(st.integers(0, a.degree() + 3))
        digits = ratfunc._taylor(a.digits, times, field.p, depth)
        assert [tuple(row) for row in digits.tolist()] == [c.digits for c in taylor(a, e, depth)]

    @settings(max_examples=100, deadline=None)
    @given(field=st.sampled_from(FIELDS[:-1]), data=st.data())
    def test_partial_fractions_solve_the_series_by_elements(self, field, data):
        """Unreduced pairs with a non-monic split den and repeated roots."""
        element = st.integers(0, field.order - 1).map(field.from_counter)
        roots = data.draw(st.lists(element, min_size=1, max_size=3, unique=True))
        unit = data.draw(st.integers(1, field.order - 1).map(field.from_counter))
        den = Poly.constant(field, unit)
        for e in roots:
            den = den * linear_power(field, e, data.draw(st.integers(1, 4)))
        num = data.draw(polys(field, 10))
        candidates = data.draw(st.permutations(roots + data.draw(st.lists(element, max_size=2))))
        pf = partial_fractions((num, den), candidates=candidates)
        assert pf == principal_parts(num, den, candidates)
        assert all(c for tail in pf.tails.values() for c in tail.values())

    def test_digits_are_stored_once_and_read_only(self):
        F = GF(3, 2)
        a = Poly(F, [F.one, F.gen, F.zero, F.zero])
        assert a.digits.dtype == np.int64 and a.digits.shape == (2, 2)
        assert not a.digits.flags.writeable
        assert a.coeffs == (F.one, F.gen) and a.leading() == F.gen
        assert Poly(F, np.array([[4, 5], [3, 0]])) == Poly(F, [F((1, 2))])  # mod p, trimmed
        assert Poly(F).digits.shape == (0, 2)
        with pytest.raises(ValueError):
            Poly(F, np.zeros((2, 3), dtype=np.int64))


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


# GF(2), GF(3), GF(4), GF(5), GF(8), GF(9)
STACK_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(2, 3), GF(3, 2)]


class TestStackedPartialFractions:
    """partial_fractions((nums, den)) for a sequence nums over one den: the
    list of the decompositions of each numerator alone, from one root
    search, raising exactly when one of them would alone."""

    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(STACK_FIELDS), data=st.data())
    def test_each_numerator_as_alone_and_as_the_reference(self, field, data):
        """Repeated roots, a non-monic den, numerators shorter and longer
        than den, zero ones among them, and candidates with duplicates and
        non-roots."""
        element = st.integers(0, field.order - 1).map(field.from_counter)
        roots = data.draw(st.lists(element, min_size=1, max_size=3, unique=True))
        unit = data.draw(st.integers(1, field.order - 1).map(field.from_counter))
        den = Poly.constant(field, unit)
        for e in roots:
            den = den * linear_power(field, e, data.draw(st.integers(1, 3)))
        nums = data.draw(st.lists(polys(field, den.degree() + 4), min_size=1, max_size=5))
        extra = data.draw(st.lists(element, max_size=2))
        candidates = data.draw(st.permutations(roots + extra + roots[:1]))
        stacked = partial_fractions((nums, den), candidates=candidates)
        assert isinstance(stacked, list)
        assert stacked == [partial_fractions((num, den), candidates=candidates) for num in nums]
        assert stacked == [principal_parts(num, den, candidates) for num in nums]

    def test_edge_numerators(self):
        """Over GF(5), den = 3 (x - 1)^3 (x - 2): the zero numerator, a
        constant, one of den's own degree, a multiple of den and one past
        it, with every candidate listed twice."""
        F = GF(5)
        den = linear_power(F, F(1), 3) * linear_power(F, F(2), 1) * F(3)
        nums = [Poly(F), Poly.constant(F, 4), from_ints(F, [1, 2, 3, 4, 1]),
                den * from_ints(F, [2, 1]), from_ints(F, [0, 1, 0, 0, 0, 0, 0, 3])]
        candidates = [F(2), F(1), F(2), F(1), F(4)]
        stacked = partial_fractions((nums, den), candidates=candidates)
        assert stacked == [principal_parts(num, den, candidates) for num in nums]
        assert stacked[0].is_zero() and stacked[3] == PartialFraction(from_ints(F, [2, 1]))
        assert stacked[1].poly.is_zero() and set(stacked[1].tails) == {F(1), F(2)}
        assert stacked[4].poly.degree() == 3

    @pytest.mark.parametrize("field", [GF(7), GF(2, 3), GF(3, 2)], ids=repr)
    def test_missing_root_raises(self, field):
        """A root of den missing from the candidates raises
        IrreducibleDenominatorFactor, with the degree left over, as soon
        as one numerator of the stack leaves a remainder; a stack of
        multiples of den needs no root and raises nothing, as each of its
        numerators alone."""
        kept, missing, other = (field.from_counter(n) for n in (1, 2, 3))
        den = linear_power(field, kept, 2) * linear_power(field, missing, 2)
        multiples = [den * Poly.x(field), Poly(field), den]
        assert partial_fractions((multiples, den), candidates=[kept]) == [
            partial_fractions((num, den), candidates=[kept]) for num in multiples]
        for num in multiples:  # a numerator that leaves a remainder, anywhere in the stack
            for at in range(len(multiples) + 1):
                stack = multiples[:at] + [Poly.constant(field, 1) + num] + multiples[at:]
                with pytest.raises(IrreducibleDenominatorFactor) as exc:
                    partial_fractions((stack, den), candidates=[kept, other])
                assert exc.value.degree == 2

    def test_zero_den_and_empty_stack(self):
        F = GF(5)
        with pytest.raises(ZeroDivisionError):
            partial_fractions(([Poly.x(F)], Poly(F)), candidates=[F(1)])
        assert partial_fractions(((), linear_power(F, F(1), 2)), candidates=[F(1)]) == []


class TestBinomMod:
    def test_against_math_comb(self, rng):
        for p in (2, 3, 5, 7, 13):
            for _ in range(100):
                n = rng.randrange(200)
                k = rng.randrange(200)
                assert binom_mod(n, k, p) == math.comb(n, k) % p
