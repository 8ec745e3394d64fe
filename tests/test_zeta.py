"""Point counts, L-polynomials, Newton and Hodge polygons."""

import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ascart import (
    GF,
    cartier_matrix,
    compare_polygons,
    count_points,
    hodge_polygon,
    l_polynomial,
    newton_polygon,
    validate,
)
from ascart import zeta
from ascart.errors import InconsistentCounts, NotShrinkable
from ascart.curve import CurveSpec, PoleDatum
from ascart.finite_field import Field, embedding
from ascart.specfile import parse_spec
from ascart.sweep import random_curve
from ascart.zeta import LPolynomial, SlopePolygon, l_from_counts

from conftest import curve, embed_curve
from naive_local import f_partial_fraction
from naive_ratfunc import assemble
from naive_zeta import is_symmetric, multiplicity, naive_trace_distribution, weil_bounds_ok


def _product(factors):
    """Coefficients of the product of integer polynomials, constant first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def brute_count(spec, s):
    """Independent oracle: re-derive N_s by assembling f and evaluating."""
    from ascart.finite_field import GF as GFc

    base = spec.field
    big = base if s == 1 else GFc(base.p, base.k * s)
    espec = embed_curve(spec, big)
    f = assemble(f_partial_fraction(espec))
    locations = {d.location for d in espec.poles[1:]}
    total = len(spec.poles)
    for x in big.elements():
        if x in locations:
            continue
        if f.evaluate(x).trace_to_prime() == 0:
            total += base.p
    return total


class TestCountPoints:
    def test_p3_x2_over_f3(self):
        spec = curve(3, [0, 0, 1])
        assert count_points(spec, 1) == 4  # x=0 splits, x=1,2 do not, +1 at inf

    def test_p3_x2_over_f9(self):
        assert count_points(curve(3, [0, 0, 1]), 2) == 16

    def test_rational_curve(self):
        for p in (3, 5):
            spec = curve(p, [0, 1])
            for s in (1, 2):
                assert count_points(spec, s) == p**s + 1

    def test_rational_curve_extension_base(self):
        spec = curve(3, [0, 1], k=2)  # f = x over GF(9)
        assert count_points(spec, 1) == 10
        assert count_points(spec, 2) == 82

    def test_matches_brute_oracle(self):
        for spec in (
            curve(3, [0, 0, 1], [(1, [1])]),
            curve(5, [1, 0, 1]),
            curve(3, [2, 0, 1], [(2, [1])]),
        ):
            for s in (1, 2, 3):
                assert count_points(spec, s) == brute_count(spec, s)

    def test_constant_term_changes_counts(self):
        plain = curve(3, [0, 0, 1])
        shifted = curve(3, [1, 0, 1])
        assert count_points(plain, 1) != count_points(shifted, 1)


CURVE_FILES = sorted((Path(__file__).resolve().parent.parent / "curves").glob("*.curve"))


def count_by_newton(L: LPolynomial, s: int) -> int:
    """N_s from L alone, rerunning Newton's identities from r = 1: the
    power sums A_r of the reciprocal roots satisfy
    r*c_r = -sum_(t<r) A_t c_(r-t) - A_r, and N_s = q^s + 1 - A_s."""
    c = list(L.coeffs) + [0] * s
    A = []
    for r in range(1, s + 1):
        A.append(-r * c[r] - sum(A[t - 1] * c[r - t] for t in range(1, r)))
    return L.q**s + 1 - A[-1]


class TestLPolynomial:
    def test_p3_x2(self):
        L = l_polynomial(curve(3, [0, 0, 1]))
        assert L.coeffs == (1, 0, 3)
        assert L.predicted_counts(1)[-1] == 4
        assert L.predicted_counts(2)[-1] == 16

    def test_genus_zero(self):
        L = l_polynomial(curve(5, [0, 1]))
        assert L.coeffs == (1,)
        assert L.predicted_counts(3)[-1] == 5**3 + 1

    def test_two_pole_degree_six(self):
        spec = curve(3, [0, 0, 1], [(1, [1])])
        L = l_polynomial(spec)
        assert len(L.coeffs) == 7
        g = validate(spec).g
        for s in range(1, 2 * g + 1):
            assert L.predicted_counts(s)[-1] == count_points(spec, s)
        assert weil_bounds_ok(L)

    @pytest.mark.parametrize("spec", [
        *(parse_spec(path) for path in CURVE_FILES),
        curve(101, [0, 0, 1]),  # g = 50
    ], ids=[*(path.stem for path in CURVE_FILES), "p101_x2"])
    def test_predicted_counts_in_one_pass(self, spec):
        """N_1..N_n from one pass equal N_s from Newton's identities rerun
        for each s, and the point counts small enough to enumerate."""
        L = l_polynomial(spec)
        n = 2 * L.genus + 1
        counts = L.predicted_counts(n)
        assert counts == [count_by_newton(L, s) for s in range(1, n + 1)]
        assert counts == [L.predicted_counts(s)[-1] for s in range(1, n + 1)]
        small = [s for s in range(1, n + 1) if L.q**s <= 10**4]
        assert [counts[s - 1] for s in small] == [count_points(spec, s) for s in small]

    def test_functional_equation_enforced(self):
        with pytest.raises(ValueError):
            LPolynomial((1, 0, 5), q=3)
        with pytest.raises(ValueError):
            LPolynomial((2, 0, 3), q=3)

    def test_inconsistent_counts(self):
        # N_1 = q+1 and N_2 = q^2+2 force c_2 = 1/2
        with pytest.raises(InconsistentCounts):
            l_from_counts([4, 11], q=3, g=2)

    def test_weil_bounds(self):
        assert weil_bounds_ok(LPolynomial((1, 0, 3), q=3))
        # (1+u)(1+3u): reciprocal roots 1 and 3, not sqrt(3)
        assert not weil_bounds_ok(LPolynomial((1, 4, 3), q=3))

    def test_weil_bounds_repeated_roots(self):
        # L of the GF(5^4) curve with orders (1, 1), f = (1 + 2t) x + (1 + 3t^2)
        # + (4 + 4t) / (x - (2 + t^2)): four times each root of 1 - 6u + 625u^2,
        # where floating point root finding misses |alpha| = 25 by 1.7e-4
        assert weil_bounds_ok(LPolynomial(tuple(_product([(1, -6, 625)] * 4)), q=625))

    @pytest.mark.parametrize("factors,q,ok", [
        ([(1, -6, 9)], 9, True),  # alpha = 3 twice, x = 6 = 2 sqrt(q): the end of the range
        ([(1, 6, 9), (1, -6, 9)], 9, True),  # alpha = -3 and 3, each twice
        ([(1, 0, 9)] * 3, 9, True),  # x = 0 three times
        ([(1, -7, 9)], 9, False),  # x = 7: real alpha off the circle
        ([(1, -6, 9), (1, -6, 9), (1, 7, 9)], 9, False),
        ([(1, 0, 2 * 9 + 1, 0, 81)], 9, False),  # h = x^2 + 1: x = +-i
        ([(1, 0, 2 * 9 - 1, 0, 81)], 9, True),  # h = x^2 - 1: x = +-1
        ([], 9, True),  # genus 0
    ])
    def test_weil_bounds_exact_cases(self, factors, q, ok):
        assert weil_bounds_ok(LPolynomial(tuple(_product(factors)), q)) is ok

    @settings(max_examples=60, deadline=None)
    @given(q=st.sampled_from([2, 3, 4, 5, 7, 9, 25, 49, 625]),
           traces=st.lists(st.integers(-60, 60), min_size=1, max_size=5))
    def test_weil_bounds_of_quadratic_factors(self, q, traces):
        """prod (1 - a u + q u^2) has every |alpha| = sqrt(q) exactly when
        every a^2 <= 4q, repeated factors and endpoints included."""
        traces = [t * (2 * math.isqrt(q) + 2) // 40 for t in traces]  # |a| up to ~3 sqrt(q)
        L = LPolynomial(tuple(_product([(1, -a, q) for a in traces])), q)
        assert weil_bounds_ok(L) is all(a * a <= 4 * q for a in traces)


class TestNewtonPolygon:
    def test_supersingular_elliptic(self):
        np_ = newton_polygon(LPolynomial((1, 0, 3), 3), 3)
        assert np_.slopes == ((Fraction(1, 2), 2),)

    def test_ordinary_contains_slope_zero(self):
        np_ = newton_polygon(LPolynomial((1, -1, 3), 3), 3)
        assert multiplicity(np_, 0) == 1

    def test_trivial(self):
        np_ = newton_polygon(LPolynomial((1,), 3), 3)
        assert np_.slopes == ()
        assert np_.length == 0

    def test_prime_power_base(self):
        # q = 9: ord_9(3) = 1/2
        np_ = newton_polygon(LPolynomial((1, 0, 9), 9), 9)
        assert np_.slopes == ((Fraction(1, 2), 2),)

    def test_prime_power_matches_a_sieve(self):
        """Every q below 5000 against the prime powers of a sieve: (p, a)
        for q = p^a, ValueError for any other q, q < 2 included."""
        N = 5000
        composite = [False] * N
        powers = {}
        for p in range(2, N):
            if not composite[p]:
                composite[p * p::p] = [True] * len(range(p * p, N, p))
                powers.update((p**a, (p, a)) for a in range(1, N.bit_length()) if p**a < N)
        for q in range(-2, N):
            if q in powers:
                assert zeta._prime_power(q) == powers[q]
            else:
                with pytest.raises(ValueError):
                    zeta._prime_power(q)
        assert zeta._prime_power(9999991) == (9999991, 1)
        assert zeta._prime_power(2**23) == (2, 23)
        assert zeta._prime_power(3**14) == (3, 14)

    def test_collinear_point_merges_segments(self):
        # (2, 1) lies on the segment from (0, 0) to (4, 2)
        np_ = newton_polygon(LPolynomial((1, 0, 3, 0, 9), 3), 3)
        assert np_.slopes == ((Fraction(1, 2), 4),)


class TestHodgePolygon:
    def test_single_even_order(self):
        assert hodge_polygon([2]).slopes == ((Fraction(1, 2), 1),)

    def test_with_finite_pole(self):
        hp = hodge_polygon([2, 1])
        assert hp.slopes == (
            (Fraction(0), 1), (Fraction(1, 2), 1), (Fraction(1), 1),
        )

    def test_cubic(self):
        assert hodge_polygon([3]).slopes == (
            (Fraction(1, 3), 1), (Fraction(2, 3), 1),
        )

    def test_total_length_is_D(self):
        for orders in [(2,), (2, 1), (4, 3), (2, 2, 1)]:
            D = sum(d + 1 for d in orders) - 2
            assert hodge_polygon(orders).length == D

    def test_built_once_per_tuple_of_orders(self):
        """The polygon depends on the orders alone: equal orders, as a list
        or a tuple, give the same polygon, and other orders another."""
        hp = hodge_polygon([4, 3])
        assert hodge_polygon((4, 3)) is hp and hodge_polygon([4, 3]) is hp
        assert hodge_polygon((3, 4)) is not hp and hodge_polygon((3, 4)) == hp
        assert hodge_polygon((4, 2)) != hp


class TestComparePolygons:
    def test_equal_supersingular(self):
        np_ = SlopePolygon.from_multiset([Fraction(1, 2)] * 2)
        assert compare_polygons(np_, hodge_polygon([2]), 3) == "equal"

    def test_equal_two_pole(self):
        np_ = SlopePolygon.from_multiset(
            [Fraction(0)] * 2 + [Fraction(1, 2)] * 2 + [Fraction(1)] * 2
        )
        assert compare_polygons(np_, hodge_polygon([2, 1]), 3) == "equal"

    def test_np_above(self):
        np_ = SlopePolygon.from_multiset([Fraction(1)] * 2)
        hp = SlopePolygon.from_multiset([Fraction(1, 2)])
        assert compare_polygons(np_, hp, 3) == "np_above"

    def test_incomparable(self):
        np_ = SlopePolygon.from_multiset([Fraction(0)] * 2)
        hp = SlopePolygon.from_multiset([Fraction(1, 2)])
        assert compare_polygons(np_, hp, 3) == "incomparable"

    def test_not_shrinkable(self):
        np_ = SlopePolygon.from_multiset([Fraction(1, 2)] * 3)
        with pytest.raises(NotShrinkable):
            compare_polygons(np_, hodge_polygon([2]), 3)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "spec_args",
        [
            (3, [0, 0, 1], ()),
            (3, [0, 0, 1], ((1, [1]),)),
            (3, [1, 0, 2], ((2, [2]),)),
            (5, [0, 0, 1], ()),
        ],
    )
    def test_newton_properties(self, spec_args):
        p, inf_coeffs, finite = spec_args
        spec = curve(p, inf_coeffs, finite)
        inv = validate(spec)
        L = l_polynomial(spec)
        np_ = newton_polygon(L, spec.field.order)
        assert np_.length == 2 * inv.g == inv.D * (p - 1)
        assert multiplicity(np_, 0) == inv.s  # p-rank = slope-0 length
        assert is_symmetric(np_)
        slopes = [t for t, _ in np_.slopes]
        assert slopes == sorted(set(slopes))
        if inv.theorem_applicable:
            hp = hodge_polygon(inv.orders)
            assert compare_polygons(np_, hp, p) == "equal"

    def test_slope_json(self):
        hp = hodge_polygon([2, 1])
        assert hp.to_json() == [[0, 1, 1], [1, 2, 1], [1, 1, 1]]


def assert_counts_match(spec):
    """L from character sums predicts the enumerated N_s for every s <= g."""
    L = l_polynomial(spec)
    for s in range(1, validate(spec).g + 1):
        assert L.predicted_counts(s)[-1] == count_points(spec, s), s


class TestCharacterSumRoute:
    @pytest.mark.parametrize(
        "spec_args",
        [
            (5, [0, 0, 0, 1], (), 1),  # x^3, D=2 < g=4
            (5, [3, 2], ((2, [4]),), 1),  # orders (1,1) with a finite pole
            (7, [0, 0, 1], (), 1),  # x^2, D=1 < g=3
            (5, [0, 0, 1], (), 2),  # x^2 over GF(5^2), D=1 < g=2
        ],
    )
    def test_extended_sums_match_enumeration(self, spec_args):
        p, inf_coeffs, finite, k = spec_args
        spec = curve(p, inf_coeffs, finite, k=k)
        inv = validate(spec)
        assert inv.D < inv.g
        assert_counts_match(spec)

    def test_p7_cubic(self):
        L = l_polynomial(curve(7, [0, 0, 0, 1]))
        assert L.coeffs == (1, 0, 0, 14, 0, 0, 735, 0, 0, 4802, 0, 0, 117649)

    @pytest.mark.parametrize(
        "spec_args",
        [
            (2, [0, 1, 0, 1], ((1, [1]),)),  # g = D/2 < D
            (3, [1, 0, 2], ((2, [2]),)),  # g = D
        ],
    )
    def test_small_p_needs_no_extension(self, spec_args):
        p, inf_coeffs, finite = spec_args
        spec = curve(p, inf_coeffs, finite)
        inv = validate(spec)
        assert inv.g <= inv.D
        assert_counts_match(spec)

    def test_non_integral_sums_raise(self, monkeypatch):
        # Tr f(x) = 0 on all of F_5 and 1 on all of F_25:
        # 2 e_2 = S_1^2 + S_2 = 25 + 25 zeta is not integral.
        fake = {1: [5, 0, 0, 0, 0], 2: [0, 25, 0, 0, 0]}
        monkeypatch.setattr(zeta, "_trace_distributions",
                            lambda spec, levels: [fake[s] for s in levels])
        with pytest.raises(InconsistentCounts, match="coefficient 2 of L\\(f, psi, T\\)"):
            l_polynomial(curve(5, [0, 0, 0, 1]))

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        k=st.integers(1, 2),
        raw_orders=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_enumeration_property(self, p, k, raw_orders, seed):
        orders = tuple(d for d in raw_orders if d % p)
        assume(orders)
        q = p**k
        g = (sum(d + 1 for d in orders) - 2) * (p - 1) // 2
        assume(q**g <= 5 * 10**3 and len(orders) - 1 <= q)
        assert_counts_match(random_curve(GF(p, k), orders, random.Random(seed)))


# (p, k) of the bases the table route is checked on, and the largest q^s
# the scalar reference enumerates
TABLE_BASES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]
REFERENCE_ELEMENTS = 300


@st.composite
def curves_and_degree(draw):
    """A curve over a small base with any pole locations and coefficients,
    and an s with q^s small enough for the scalar reference."""
    p, k = draw(st.sampled_from(TABLE_BASES))
    F = GF(p, k)
    s = draw(st.integers(1, max(s for s in range(1, 9) if F.order**s <= REFERENCE_ELEMENTS)))
    element = st.integers(0, F.order - 1).map(F.from_counter)
    nonzero = st.integers(1, F.order - 1).map(F.from_counter)
    order = st.integers(1, 4).filter(lambda d: d % p)
    locations = draw(st.lists(st.integers(0, F.order - 1), max_size=min(4, F.order), unique=True))
    d = draw(order)
    inf_coeffs = draw(st.lists(element, min_size=d, max_size=d)) + [draw(nonzero)]
    poles = [PoleDatum.at_infinity(F, inf_coeffs)]
    for loc in locations:
        d = draw(order)
        coeffs = draw(st.lists(element, min_size=d - 1, max_size=d - 1)) + [draw(nonzero)]
        poles.append(PoleDatum.finite(F, F.from_counter(loc), coeffs))
    spec = CurveSpec(F, tuple(poles))
    validate(spec)
    return spec, s


class TestTableRoute:
    """_trace_distributions in log arithmetic against the scalar loop."""

    @settings(max_examples=60, deadline=None)
    @given(case=curves_and_degree(), data=st.data(),
           chunk=st.sampled_from([1, 5, 64, zeta._CHUNK]))
    def test_matches_scalar_reference(self, case, data, chunk):
        # several levels in one pass, in chunks that may span levels
        spec, top = case
        levels = sorted({top, *data.draw(st.lists(st.integers(1, top), max_size=3))})
        with mock.patch.object(zeta, "_CHUNK", chunk):
            counts = zeta._trace_distributions(spec, levels)
        assert counts == [naive_trace_distribution(spec, s) for s in levels]

    @pytest.mark.parametrize(
        "spec_args",
        [
            (2, [1, 1, 0, 1], ((0, [1]), (1, [0, 0, 1])), 1),  # p = 2, a pole at x = 0
            (2, [0, 1], ((0, [1]),), 3),  # GF(8), a pole at x = 0
            (3, [0, 0, 1], ((0, [0, 1]), ((1, 1), [2])), 2),  # GF(9), zero coefficients
            (2, [0, 1], ((0, [1]), (1, [1]), ((0, 1), [1]), ((1, 1), [1])), 2),  # all of GF(4)
            # uint8 and uint16 traces whose sums pass 255
            (251, [200, 150, 100], ((1, [200, 180]),), 1),
            (257, [200, 150, 100], ((1, [200, 180]),), 1),
        ],
    )
    def test_examples(self, spec_args):
        p, inf_coeffs, finite, k = spec_args
        spec = curve(p, inf_coeffs, finite, k=k)
        validate(spec)
        levels = [s for s in range(1, 4) if spec.field.order**s <= 4 * REFERENCE_ELEMENTS]
        assert zeta._trace_distributions(spec, levels) == [
            naive_trace_distribution(spec, s) for s in levels
        ]

    def test_every_x_of_the_base_a_pole(self):
        spec = curve(5, [0, 1], [(e, [1]) for e in range(5)])
        assert zeta._trace_distributions(spec, [1]) == [[0] * 5]
        counts = zeta._trace_distributions(spec, [2])[0]
        assert sum(counts) == 25 - 5 and counts == naive_trace_distribution(spec, 2)

    @pytest.mark.parametrize("chunk", [3, zeta._CHUNK])
    @pytest.mark.parametrize(
        "spec_args",
        [
            # k >= 2, so t_s is not 1: GF(4) to GF(64), GF(9) to GF(81)
            (2, [1, 1, 0, 1], (((0, 1), [1]),), 2, [1, 2, 3]),
            (3, [(1, 1), 0, (2, 1)], ((1, [(0, 1)]),), 2, [1, 2]),
            (2, [0, 1, 0, (1, 1)], (((1, 1), [(0, 1)]),), 3, [1, 2]),
            # s = 0 mod p, with x = 0 not a pole, so f(0) has trace s*Tr(f(0)) = 0
            (2, [1, 1, 0, 1], ((1, [1]),), 1, [1, 2, 3, 4, 6, 8]),
            (2, [(1, 1), 1], (((0, 1), [1]),), 2, [2]),
            (3, [2, 1, 0, 0, 1], ((1, [1, 2]),), 1, [1, 3, 5]),
            # poles at 0
            (3, [1, 0, 1], ((0, [1]), (2, [2, 1])), 1, [1, 2, 3, 4]),
            (3, [0, 1], ((0, [(1, 2), (0, 1)]),), 2, [1, 2]),
            # every element of the base a pole
            (3, [1, 0, 1], ((0, [1]), (1, [2]), (2, [1, 1])), 1, [1, 2, 3, 5]),
            (2, [0, 1], ((0, [1]), (1, [1]), ((0, 1), [1]), ((1, 1), [1])), 2, [1, 2, 3]),
        ],
    )
    def test_tower_examples(self, spec_args, chunk):
        p, inf_coeffs, finite, k, levels = spec_args
        spec = curve(p, inf_coeffs, finite, k=k)
        with mock.patch.object(zeta, "_CHUNK", chunk):
            counts = zeta._trace_distributions(spec, levels)
        assert counts == [naive_trace_distribution(spec, s) for s in levels]

    def test_count_points_enumerates_its_level_only(self, monkeypatch):
        calls, fields = [], []
        enumerate_levels, log_tables = zeta._trace_distributions, Field.log_tables

        def spy(spec, levels):
            calls.append(list(levels))
            return enumerate_levels(spec, levels)

        def tables(field):
            fields.append(field.order)
            return log_tables(field)

        monkeypatch.setattr(zeta, "_trace_distributions", spy)
        monkeypatch.setattr(Field, "log_tables", tables)
        spec = curve(3, [0, 1, 2], ((1, [1]),))
        assert count_points(spec, 3) == brute_count(spec, 3)
        assert calls == [[3]] and set(fields) <= {3, 27}

    @pytest.mark.parametrize(
        "spec_args",
        [
            (5, [0, 0, 0, 1], (), 1),  # D = 2 < g = 4: levels 1, 2
            (3, [1, 0, 2], ((2, [2]),), 1),  # g = D = 3: levels 1..3
            (2, [0, 1, 0, 1], ((1, [1]),), 2),  # GF(4), g = 2 < D = 4: levels 1, 2
        ],
    )
    def test_l_polynomial_enumerates_once(self, monkeypatch, spec_args):
        p, inf_coeffs, finite, k = spec_args
        spec = curve(p, inf_coeffs, finite, k=k)
        calls = []
        enumerate_levels = zeta._trace_distributions

        def spy(spec, levels):
            calls.append(list(levels))
            return enumerate_levels(spec, levels)

        monkeypatch.setattr(zeta, "_trace_distributions", spy)
        L = l_polynomial(spec)
        inv = validate(spec)
        assert calls == [list(range(1, min(inv.D, inv.g) + 1))]
        assert L.predicted_counts(inv.g) == [brute_count(spec, s) for s in range(1, inv.g + 1)]

    def test_past_the_scalar_envelope(self):
        # GF(5^4), orders (1, 1): D = 2, g = 4, so F_(q^2) = GF(5^8) with
        # 390,625 elements is enumerated; the scalar loop took about 78 s
        spec = random_curve(GF(5, 4), (1, 1), random.Random(0))
        inv = validate(spec)
        assert (inv.D, inv.g) == (2, 4)
        L = l_polynomial(spec)
        hodge = hodge_polygon(inv.orders)
        assert compare_polygons(newton_polygon(L, spec.field.order), hodge, 5) == "equal"
        assert weil_bounds_ok(L)
        assert L.predicted_counts(1)[-1] == brute_count(spec, 1)

    def test_embedding_searched_once_per_field_pair(self):
        # GF(3^3), orders (1, 1): D = 2, so GF(3^6) is enumerated and the
        # GF(3^3) -> GF(3^6) embedding needs a subfield root search.  It
        # gives t_2 once per tower, so a second curve embeds nothing.
        rng = random.Random(5)
        first, second = (random_curve(GF(3, 3), (1, 1), rng) for _ in range(2))
        l_polynomial(first)
        before = embedding.cache_info()
        L = l_polynomial(second)
        after = embedding.cache_info()
        assert after.misses == before.misses and after.hits == before.hits
        assert L.predicted_counts(2) == [brute_count(second, s) for s in (1, 2)]


def det_one_minus_t(A) -> list[int]:
    """det(I - T A) of an integer matrix, exactly, by Faddeev-LeVerrier in
    Fractions: with N_1 = I, N_k = A N_(k-1) + c_(k-1) I, c_k = -tr(A N_k)/k."""
    g = len(A)
    coeffs, N = [Fraction(1)], [[Fraction(0)] * g for _ in range(g)]
    for k in range(1, g + 1):
        N = [[sum(a * b for a, b in zip(row, col)) + (coeffs[-1] if i == j else 0)
              for j, col in enumerate(zip(*N))] for i, row in enumerate(A)]
        coeffs.append(-sum(A[i][j] * N[j][i] for i in range(g) for j in range(g)) / k)
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


class TestManinCongruence:
    """L(T) = det(I - T M) mod p at k = 1, for the Cartier matrix M: the
    matrix against the point counts, two independent derivations."""

    def test_det_of_small_matrices(self):
        assert det_one_minus_t([]) == [1]
        assert det_one_minus_t([[3]]) == [1, -3]
        assert det_one_minus_t([[1, 2], [3, 4]]) == [1, -5, -2]  # 1 - tr T + det T^2

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.sampled_from([3, 5, 7, 11, 13]),
        raw_orders=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=7, raw_orders=[3], seed=0)  # 7 = 1 mod 3
    @example(p=5, raw_orders=[3], seed=0)  # 5 != 1 mod 3
    @example(p=3, raw_orders=[2, 1], seed=1)  # 3 = 1 mod 2, a finite pole
    @example(p=5, raw_orders=[3, 1, 1], seed=2)  # 5 != 1 mod 3, two finite poles
    def test_l_polynomial_is_det_mod_p(self, p, raw_orders, seed):
        orders = tuple(d for d in raw_orders if d % p)
        assume(orders and len(orders) - 1 <= p)
        spec = random_curve(GF(p), orders, random.Random(seed))
        inv = validate(spec)
        assume(p ** min(inv.D, inv.g) <= 3000 and inv.g <= 30)
        M = cartier_matrix(spec)
        det = det_one_minus_t(M.digits[..., 0].tolist())
        L = l_polynomial(spec).coeffs
        assert [c % p for c in L] == [c % p for c in det] + [0] * inv.g
