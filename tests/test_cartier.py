"""Cartier operator: axioms, dual pipelines, matrices, key terms."""

import dataclasses
import inspect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ascart import (
    GF,
    MixedDifferential,
    PartialFraction,
    Poly,
    RatFunc,
    cartier_basis_form,
    cartier_local,
    cartier_matrix,
    cartier_poly,
    cartier_rational,
    express_in_basis,
    kappa,
    key_term,
    partition_HA,
)
from ascart import cartier
from ascart.cartier import CartierMatrix, _series_sizes, _signs
from ascart.curve import BasisForm, basis, order_key
from ascart.errors import ConditionNotSatisfied, NotInH, NotInSpan, SeriesTooLarge
from ascart.finite_field import Field
from ascart.invariants import rank, rank_of_columns
from ascart.ratfunc import partial_fractions
from ascart.sweep import random_curve

from conftest import curve, random_specs
from naive_local import naive_local_matrix
from naive_rank import naive_rank

F3 = GF(3)
F7 = GF(7)


def random_split_ratfunc(field, rng, max_num_deg, max_poles, max_order):
    num = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(max_num_deg + 2))])
    den = Poly.constant(field, 1)
    for n in rng.sample(range(field.order), rng.randrange(max_poles + 1)):
        e = field.from_counter(n)
        lin = Poly.x(field) - Poly.constant(field, e)
        den = den * lin ** (rng.randrange(max_order) + 1)
    return RatFunc(num, den)


class TestCartierPoly:
    def test_p3_examples(self):
        assert cartier_poly(Poly.from_ints(F3, [0, 0, 1])) == Poly.constant(F3, 1)
        assert cartier_poly(Poly.constant(F3, 1)).is_zero()

    def test_p7_examples(self):
        x6 = Poly.monomial(F7, 6)
        x9 = Poly.monomial(F7, 9)
        x13 = Poly.monomial(F7, 13)
        assert cartier_poly(x6) == Poly.constant(F7, 1)
        assert cartier_poly(x9).is_zero()
        assert cartier_poly(x13) == Poly.x(F7)

    def test_takes_pth_roots_of_coefficients(self):
        F = GF(3, 2)
        t = F.gen
        g = Poly(F, [F.zero, F.zero, t])  # t * x^2
        assert cartier_poly(g) == Poly(F, [t.pth_root()])


class TestCartierRational:
    def test_logarithmic_fixed(self):
        for p in (3, 5, 7):
            field = GF(p)
            e = field(p - 2)
            f = RatFunc(Poly.constant(field, 1), Poly.x(field) - Poly.constant(field, e))
            assert cartier_rational(f) == f

    def test_polynomial_passthrough(self):
        g = RatFunc(Poly.from_ints(F3, [0, 0, 1]))
        assert cartier_rational(g) == RatFunc(Poly.constant(F3, 1))

    def test_double_pole_killed(self):
        e = F3(1)
        den = (Poly.x(F3) - Poly.constant(F3, e)) ** 2
        g = RatFunc(Poly.constant(F3, 1), den)
        assert cartier_rational(g).is_zero()


class TestCartierLocal:
    def test_pole_rule(self):
        e = F3(2)
        pf = PartialFraction(Poly(F3), {e: {4: F3.one}})
        out = cartier_local(pf)
        assert out.tails == {e: {2: F3.one}}
        assert out.poly.is_zero()

    def test_pole_rule_dead_exponent(self):
        e = F3(2)
        pf = PartialFraction(Poly(F3), {e: {2: F3.one}})
        assert cartier_local(pf).is_zero()

    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
    def test_agrees_with_rational(self, p, k):
        field = GF(p, k)
        rng = random.Random(1000 + p + k)
        for _ in range(100):
            g = random_split_ratfunc(field, rng, 4, 2, 3)
            pf = partial_fractions(g)
            local = cartier_local(pf).assemble()
            assert local == cartier_rational(g)


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    k=st.integers(3, 7),
    raw_orders=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=3, k=7, raw_orders=[2, 1], seed=0)
def test_pipelines_agree_over_extensions(p, k, raw_orders, seed):
    """Both pipelines over GF(p^k), k >= 3, where the rational one finds its
    denominator roots among the curve's poles and not by scanning the field."""
    orders = tuple(d for d in raw_orders if d % p)
    genus = (sum(d + 1 for d in orders) - 2) * (p - 1) // 2
    assume(orders and 1 <= genus <= 6 and p**k <= 3**7)
    spec = random_curve(GF(p, k), orders, random.Random(seed))
    assert cartier_matrix(spec, "rational").entries == cartier_matrix(spec, "local").entries


def check_local_series(spec):
    """The series route against the partial-fraction reference and the
    rational pipeline, matrix and basis forms; a rational basis form image,
    one RatFunc per y-power, decomposes back into its matrix column."""
    local = cartier_matrix(spec, "local")
    assert local.entries == naive_local_matrix(spec).entries
    assert local.entries == cartier_matrix(spec, "rational").entries
    forms = basis(spec)
    for form in forms[:: max(1, len(forms) // 3)]:
        image = cartier_basis_form(spec, form, "rational")
        assert cartier_basis_form(spec, form, "local") == image
        assert express_in_basis(spec, image) == list(local.column(forms.index(form)))


@settings(max_examples=20, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    k=st.integers(1, 3),
    raw_orders=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_local_series_matches_references(p, k, raw_orders, seed):
    orders = tuple(d for d in raw_orders if d % p)
    genus = (sum(d + 1 for d in orders) - 2) * (p - 1) // 2
    assume(orders and genus <= 40 and len(orders) - 1 <= p**k)
    check_local_series(random_curve(GF(p, k), orders, random.Random(seed)))


@pytest.mark.parametrize(
    "p,orders,k,seed",
    [
        (2, (3, 1, 1), 1, 0),  # every y-power is 0, so only f^0 occurs
        (61, (4,), 1, 1),
        (11, (5, 2, 1), 1, 2),
        (3, (2, 1, 1), 7, 3),  # GF(3^7) with two finite poles
    ],
)
def test_local_series_examples(p, orders, k, seed):
    check_local_series(random_curve(GF(p, k), orders, random.Random(seed)))


def test_local_series_large_genus():
    spec = random_curve(GF(31), (5, 3), random.Random(4))  # g = 120
    check_local_series(spec)


class TestLocalSeriesGuards:
    def test_sizes(self):
        assert _series_sizes(13, 1, (4, 3)) == [49, 37]
        assert _series_sizes(3, 7, (2, 1)) == [5, 3]

    def test_int64_bound(self):
        # at p = 2 the bound is N*k < 2^63 with N = d + 1
        assert _series_sizes(2, 1, (2**63 - 3,)) == [2**63 - 2]
        with pytest.raises(SeriesTooLarge, match="overflow int64"):
            _series_sizes(2, 1, (2**63 - 1,))
        with pytest.raises(SeriesTooLarge):
            _series_sizes(2_000_003, 1, (7,))
        with pytest.raises(SeriesTooLarge):
            _series_sizes(2, 2, (2**62,))

    def test_series_route_names_nothing_of_the_rational_route(self):
        """The two pipelines must stay independent oracles: walk the code of
        the series route, following every function of the cartier module it
        calls, and look for the rational route."""
        names = names_reached(cartier._local_matrix, cartier._local_images, cartier._Layout,
                              cartier._series_mul, cartier._powers, cartier._signs)
        assert {"_series_sizes", "convolve", "_signs"} <= names
        rational = {"RatFunc", "partial_fractions", "cartier_rational", "cartier_poly",
                    "_rational_columns", "_rational_image", "_decompose", "_accumulate_layer",
                    "_f_numerator"}
        assert not names & rational

    def test_rational_route_names_nothing_of_the_series_route(self):
        names = names_reached(cartier._rational_columns)
        assert {"partial_fractions", "cartier_poly", "_signs", "_rational_image"} <= names
        series = {"_series_mul", "_powers", "_local_images", "_Layout", "_layout", "convolve",
                  "_series_sizes", "_local_matrix"}
        assert not names & series


def names_reached(*roots) -> set[str]:
    """Every name in the code of the roots (functions, or classes for their
    methods), following each function of the cartier module they name."""
    todo, seen, names = list(roots), set(), set()
    while todo:
        item = todo.pop()
        if item in seen:
            continue
        seen.add(item)
        members = vars(item).values() if isinstance(item, type) else [item]
        codes = [f.__code__ for f in members if inspect.isfunction(f)]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes.extend(c for c in code.co_consts if inspect.iscode(c))
            for name in code.co_names:
                target = vars(cartier).get(name)
                if inspect.isfunction(target) and target.__module__ == cartier.__name__:
                    todo.append(target)
    return names


@pytest.mark.parametrize("pipeline", ["rational", "local"])
def test_matrix_over_the_digit_cap_is_refused_before_building(pipeline, monkeypatch):
    def built(*args):
        raise AssertionError("a pipeline started past the cap")

    monkeypatch.setattr(cartier, "_rational_columns", built)
    monkeypatch.setattr(cartier, "_local_matrix", built)
    # y^1031 - y = x^3 has g = 1030, and 1030^2 is over the 2^20 cap
    with pytest.raises(SeriesTooLarge, match="genus 1030 over GF"):
        cartier_matrix(curve(1031, [0, 0, 0, 1]), pipeline)


@pytest.mark.parametrize("pipeline", cartier.PIPELINES)
def test_genus_zero_needs_no_series_bound(pipeline):
    # y^p - y = x has g = 0: no series is built, though one of (p-1)*1 + 1
    # terms would be past the int64 bound at this p
    spec = curve(2_200_013, [0, 1])
    M = cartier_matrix(spec, pipeline)
    assert M.basis == () and M.digits.shape == (0, 0, 1) and rank(M) == 0
    assert cartier._layout(2_200_013, 1, (1,)).forms == ()


@pytest.mark.parametrize("build", [*cartier.PIPELINES, "from_json"])
def test_matrix_is_built_from_digits(build, monkeypatch):
    """Both pipelines and from_json hand CartierMatrix a digit array, never
    rows of elements."""
    spec = curve(3, [0, 0, 1], [(1, [1])], k=2)
    reference = cartier_matrix(spec)
    handed = []

    def spy(field, forms, entries):
        handed.append(entries)
        return CartierMatrix(field, forms, entries)

    monkeypatch.setattr(cartier, "CartierMatrix", spy)
    if build == "from_json":
        M = CartierMatrix.from_json(reference.to_json())
    else:
        M = cartier_matrix(spec, build)
    assert [type(entries) for entries in handed] == [np.ndarray]
    assert M == reference


class TestOperatorAxioms:
    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
    def test_axioms(self, p, k):
        field = GF(p, k)
        rng = random.Random(7000 + 10 * p + k)
        for _ in range(60):
            g1 = random_split_ratfunc(field, rng, 3, 2, 2)
            g2 = random_split_ratfunc(field, rng, 3, 2, 2)
            # additivity
            assert cartier_rational(g1 + g2) == cartier_rational(g1) + cartier_rational(g2)
            # 1/p-semilinearity: C(h^p g dx) = h C(g dx)
            h = random_split_ratfunc(field, rng, 2, 1, 1)
            assert cartier_rational(h**p * g1) == h * cartier_rational(g1)
            # exact forms die: C(dh) = 0
            assert cartier_rational(h.derivative()).is_zero()
            # logarithmic normalization: C(h^(p-1) dh) = dh
            if not h.is_zero():
                assert cartier_rational(h ** (p - 1) * h.derivative()) == h.derivative()


class TestSigns:
    """_signs: sign[r, e] = (-1)^e C(r, e) mod p, by Pascal's rule."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 1009])
    def test_against_comb(self, p):
        e_max = min(p + 3, 40)  # past p - 2, where Pascal's rule wraps mod p
        sign = _signs(p, e_max)
        assert sign.shape == (e_max + 1, e_max + 1) and sign.dtype == np.int64
        assert sign.tolist() == [[(-1) ** e * math.comb(r, e) % p for e in range(e_max + 1)]
                                 for r in range(e_max + 1)]

    def test_small(self):
        assert _signs(7, 2).tolist() == [[1, 0, 0], [1, 6, 0], [1, 5, 1]]  # (+1, -2, +1) mod 7
        assert _signs(5, 0).tolist() == [[1]]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 1009])
    def test_no_entry_vanishes_below_p_minus_one(self, p):
        r = max(p - 2, 0)  # the largest y-power of a basis form
        sign = _signs(p, r)
        assert (sign != 0)[np.tril_indices(r + 1)].all()
        assert sign[r].tolist() == [(-1) ** e * math.comb(r, e) % p for e in range(r + 1)]


class TestBasisFormImages:
    def test_cubic_y2(self):
        spec = curve(7, [0, 0, 0, 1])
        md = cartier_basis_form(spec, BasisForm(0, 0, 2), "rational")
        assert md.terms == {0: RatFunc(Poly.constant(F7, 1))}

    def test_cubic_y3(self):
        spec = curve(7, [0, 0, 0, 1])
        for pipeline in ("rational", "local"):
            md = cartier_basis_form(spec, BasisForm(0, 0, 3), pipeline)
            assert md.terms == {1: RatFunc(Poly.constant(F7, 3))}

    def test_dx_dies(self):
        spec = curve(7, [0, 0, 0, 1])
        md = cartier_basis_form(spec, BasisForm(0, 0, 0), "local")
        assert md.is_zero()

    def test_not_a_basis_form(self):
        spec = curve(7, [0, 0, 0, 1])
        with pytest.raises(ValueError):
            cartier_basis_form(spec, BasisForm(0, 9, 0))


class TestExpressInBasis:
    def test_constant(self):
        spec = curve(7, [0, 0, 0, 1])
        md = MixedDifferential(F7, {0: RatFunc(Poly.constant(F7, 1))})
        vec = express_in_basis(spec, md)
        assert [repr(c) for c in vec] == ["1", "0", "0", "0", "0", "0"]

    def test_scaled_y(self):
        spec = curve(7, [0, 0, 0, 1])
        md = MixedDifferential(F7, {1: RatFunc(Poly.constant(F7, 3))})
        vec = express_in_basis(spec, md)
        forms = basis(spec)
        assert vec[forms.index(BasisForm(0, 0, 1))] == F7(3)
        assert sum(1 for c in vec if not c.is_zero()) == 1

    def test_not_in_span(self):
        spec = curve(7, [0, 0, 0, 1])  # d_0 = 3
        md = MixedDifferential(F7, {0: RatFunc(Poly.monomial(F7, 3))})
        with pytest.raises(NotInSpan):
            express_in_basis(spec, md)

    def test_foreign_pole(self):
        spec = curve(7, [0, 0, 0, 1])
        g = RatFunc(Poly.constant(F7, 1), Poly.x(F7) - Poly.constant(F7, F7(2)))
        with pytest.raises(NotInSpan):
            express_in_basis(spec, MixedDifferential(F7, {0: g}))


class TestMatrix:
    def test_1x1_zero(self):
        M = cartier_matrix(curve(3, [0, 0, 1]))
        assert M.dimension == 1
        assert M.entries[0][0].is_zero()

    def test_hand_verified_cubic(self):
        spec = curve(7, [0, 0, 0, 1])
        forms = basis(spec)
        for pipeline in ("rational", "local"):
            M = cartier_matrix(spec, pipeline)
            nonzero = {
                (i, j): M.entry(i, j)
                for i in range(6)
                for j in range(6)
                if not M.entry(i, j).is_zero()
            }
            assert nonzero == {
                (forms.index(BasisForm(0, 0, 0)), forms.index(BasisForm(0, 0, 2))): F7(1),
                (forms.index(BasisForm(0, 0, 1)), forms.index(BasisForm(0, 0, 3))): F7(3),
            }

    def test_two_pole_structure(self):
        spec = curve(3, [0, 0, 1], [(1, [1])])
        forms = basis(spec)
        M = cartier_matrix(spec, "local")
        assert M.column(forms.index(BasisForm(0, 0, 0))) == (F3(0),) * 3
        # pivots on the diagonal of the two x1 columns
        for f in (BasisForm(1, 1, 0), BasisForm(1, 1, 1)):
            i = forms.index(f)
            assert not M.entry(i, i).is_zero()
        assert cartier_matrix(spec, "rational").entries == M.entries

    @pytest.mark.parametrize(
        "p,orders,k,seed",
        [(3, (2, 1), 1, 31), (5, (4,), 1, 32), (5, (2, 2, 1), 1, 33),
         (7, (3, 2), 1, 34), (3, (2, 2), 2, 35)],
    )
    def test_pipeline_equivalence(self, p, orders, k, seed):
        for spec in random_specs(p, orders, 6, seed, k=k):
            assert (
                cartier_matrix(spec, "rational").entries
                == cartier_matrix(spec, "local").entries
            )

    def test_unknown_pipeline(self):
        with pytest.raises(ValueError):
            cartier_matrix(curve(3, [0, 0, 1]), "fast")

    def test_json_round_trip(self):
        spec = curve(3, [0, 0, 1], [(1, [1])], k=2)
        M = cartier_matrix(spec)
        assert CartierMatrix.from_json(M.to_json()) == M


class TestMatrixDigits:
    """CartierMatrix.digits: the one stored form, read-only, however built."""

    @staticmethod
    def check(M):
        F, g = M.field, M.dimension
        flat = [c for row in M.entries for c in row]
        assert M.digits.dtype == np.int64 and M.digits.shape == (g, g, F.k)
        assert (M.digits == F.digit_array(flat).reshape(g, g, F.k)).all()
        assert not M.digits.flags.writeable
        if M.digits.size:
            with pytest.raises(ValueError):
                M.digits[0, 0, 0] = 1
        assert all(M.column(j) == tuple(row[j] for row in M.entries) for j in range(g))
        assert all(M.entry(i, j) == c for i, row in enumerate(M.entries)
                   for j, c in enumerate(row))

    @pytest.mark.parametrize("p,orders,k,seed", [(13, (4, 3), 1, 41), (5, (4, 2), 2, 42),
                                                 (3, (2, 1), 7, 43), (2, (3, 1), 3, 44)])
    def test_every_construction(self, p, orders, k, seed):
        spec = random_specs(p, orders, 1, seed, k=k)[0]
        local, rational = cartier_matrix(spec, "local"), cartier_matrix(spec, "rational")
        rebuilt = CartierMatrix.from_json(local.to_json())
        by_hand = CartierMatrix(local.field, local.basis, local.entries)
        from_digits = CartierMatrix(local.field, local.basis, local.digits.copy())
        # M + I through dataclasses.replace: the digits follow the new rows
        F = local.field
        rows = tuple(tuple(c + F.one if i == j else c for j, c in enumerate(row))
                     for i, row in enumerate(local.entries))
        shifted = dataclasses.replace(local, entries=rows)
        equal = (local, rational, rebuilt, by_hand, from_digits)
        for M in (*equal, shifted):
            self.check(M)
        assert all(M == local and hash(M) == hash(local) and repr(M) == repr(local)
                   for M in equal)
        assert shifted.entries == rows
        assert (shifted.digits == F.digit_array(itertools.chain(*rows)).reshape(local.digits.shape)).all()
        assert rank(shifted) == naive_rank(shifted)
        twin = CartierMatrix(F, local.basis, rows)
        assert shifted == twin and hash(shifted) == hash(twin) and shifted != local

    def test_empty_matrix(self):
        self.check(CartierMatrix(GF(3, 2), (), ()))

    def test_digits_are_a_private_copy(self):
        M = cartier_matrix(random_curve(GF(13), (4, 3), random.Random(1)))  # g = 42
        assert M.dimension == 42 and rank(M) == 22
        big = np.stack([M.digits, M.digits])  # writable
        N = CartierMatrix(M.field, M.basis, big[0])
        key = hash(N)
        big[0] = 0
        self.check(N)
        assert N == M and hash(N) == key and rank(N) == naive_rank(N) == 22

    @pytest.mark.parametrize("bad", ["plus_p", "all_p", "negative", "float", "bool"])
    def test_digits_must_be_reduced_integers(self, bad):
        M = cartier_matrix(random_curve(GF(13), (4, 3), random.Random(1)))
        g = M.dimension
        digits = {
            "plus_p": lambda: M.digits + 13,
            "all_p": lambda: np.full((g, g, 1), 13),
            "negative": lambda: M.digits - 1,
            "float": lambda: M.digits.astype(float),
            "bool": lambda: M.digits > 0,
        }[bad]()
        with pytest.raises(ValueError, match="matrix digits must"):
            CartierMatrix(M.field, M.basis, digits)
        with pytest.raises(ValueError, match="matrix digits must"):
            dataclasses.replace(M, entries=digits)

    def test_entries_must_lie_in_the_field(self):
        other = Field(3, 2, modulus=(2, 2, 1))  # GF(3^2), but not the default modulus
        assert other != GF(3, 2)
        with pytest.raises(ValueError, match="matrix entries must lie in"):
            CartierMatrix(GF(3, 2), (BasisForm(0, 0, 0),), ((other.gen,),))

    def test_shape_must_match_basis(self):
        M = cartier_matrix(curve(7, [0, 0, 0, 1]))
        with pytest.raises(ValueError, match="6 x 6"):
            CartierMatrix(M.field, M.basis, M.digits[:5, :5])
        with pytest.raises(ValueError, match="6 x 6"):
            CartierMatrix(M.field, M.basis, M.entries[:5])


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    k=st.integers(1, 3),
    orders=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_numerator_from_pole_data(p, k, orders, seed):
    """The rational pipeline's N = f * prod (x - e_l)^(d_l), built from the
    pole data, is the numerator of the assembled f."""
    orders = orders[:1] + [max(d, 1) for d in orders[1:]]
    assume(len(orders) - 1 <= p**k)
    spec = random_curve(GF(p, k), orders, random.Random(seed))
    assert cartier._f_numerator(spec) == spec.f_ratfunc().num


class TestKeyTerms:
    def test_cubic_pivots(self):
        spec = curve(7, [0, 0, 0, 1])
        kt2 = key_term(spec, BasisForm(0, 0, 2))
        assert kt2.target == BasisForm(0, 0, 0)
        assert kt2.coefficient == F7(1)
        kt3 = key_term(spec, BasisForm(0, 0, 3))
        assert kt3.target == BasisForm(0, 0, 1)
        assert kt3.coefficient == F7(3)

    def test_self_pivot_on_finite_pole(self):
        spec = curve(3, [0, 0, 1], [(1, [1])])
        kt = key_term(spec, BasisForm(1, 1, 1))
        assert kt.target == BasisForm(1, 1, 1)
        assert kt.coefficient == F3(1)

    def test_not_in_h(self):
        spec = curve(7, [0, 0, 0, 1])
        with pytest.raises(NotInH):
            key_term(spec, BasisForm(0, 0, 0))

    def test_condition_not_satisfied(self):
        spec = curve(3, [0, 0, 0, 0, 1])
        with pytest.raises(ConditionNotSatisfied):
            kappa(spec, BasisForm(0, 0, 0))

    @pytest.mark.parametrize(
        "p,orders,seed", [(3, (2, 1), 41), (5, (2, 4), 42), (7, (3, 2), 43), (7, (6,), 44)]
    )
    def test_pivot_structure(self, p, orders, seed):
        """Nonzero pivots, zeros in earlier columns, distinct targets,
        H-columns carry the whole rank."""
        for spec in random_specs(p, orders, 4, seed):
            forms = basis(spec)
            index = {f: i for i, f in enumerate(forms)}
            H, _ = partition_HA(spec)
            M = cartier_matrix(spec, "local")
            targets = {}
            for w in H:
                t = kappa(spec, w)
                assert not M.entry(index[t], index[w]).is_zero()
                targets[w] = t
                for wp in forms:
                    if order_key(wp) < order_key(w):
                        assert M.entry(index[t], index[wp]).is_zero()
            assert len(set(targets.values())) == len(H)
            h_cols = [index[w] for w in H]
            assert rank_of_columns(M, h_cols) == len(H) == rank(M)
