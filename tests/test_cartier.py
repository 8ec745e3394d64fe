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
    PartialFraction,
    Poly,
    RatFunc,
    cartier_matrix,
    cartier_poly,
    cartier_rational,
    kappa,
)
from ascart import cartier
from ascart.cartier import CartierMatrix, _signs
from ascart.cli import main
from ascart.curve import BasisForm, basis, ordered_basis
from ascart.errors import ConditionNotSatisfied, NotInH, NotInSpan, SeriesTooLarge
from ascart.finite_field import _MAX_FIELD_SIZE, Field, is_prime
from ascart.invariants import rank
from ascart.ratfunc import partial_fractions
from ascart.sweep import random_curve

from conftest import (PARTITION_MAX_P, admissible_families, assert_pivot_structure, curve,
                      random_specs, random_split_ratfunc)
from naive_local import cartier_local, f_partial_fraction, naive_local_matrix
from naive_rank import naive_rank

F3 = GF(3)
F7 = GF(7)


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


# (p, k, orders) with p in {2, 3, 5, 7}, 3 <= k <= 7, p^k <= 3^7, at most
# three poles of order 1..7 prime to p, and genus 1..6
EXTENSION_CASES = [
    (p, k, orders)
    for p in (2, 3, 5, 7)
    for k in range(3, 8)
    if p**k <= 3**7
    for n in range(1, 4)
    for orders in itertools.product([d for d in range(1, 8) if d % p], repeat=n)
    if 1 <= (sum(d + 1 for d in orders) - 2) * (p - 1) // 2 <= 6
]


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(EXTENSION_CASES), seed=st.integers(0, 2**32 - 1))
@example(case=(3, 7, (2, 1)), seed=0)
def test_pipelines_agree_over_extensions(case, seed):
    """Both pipelines over GF(p^k), k >= 3, where the rational one finds its
    denominator roots among the curve's poles and not by scanning the field."""
    p, k, orders = case
    spec = random_curve(GF(p, k), orders, random.Random(seed))
    assert cartier_matrix(spec, "rational").entries == cartier_matrix(spec, "local").entries


def check_local_series(spec):
    """The series route against the partial-fraction reference and the
    rational pipeline."""
    local = cartier_matrix(spec, "local")
    assert local.entries == naive_local_matrix(spec).entries
    assert local.entries == cartier_matrix(spec, "rational").entries


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
    def test_digit_cap_keeps_series_sums_in_int64(self):
        """The digit cap is the only size check, so it must bound every
        product of the local pipeline: N*k*(p-1)^2 < 2^63 for series of N
        terms over GF(p^k).  With D = sum(d_l + 1) - 2, g = D*(p-1)/2, so a
        curve of genus g >= 1 under the cap, g^2*k <= cap, has
        p <= 2*sqrt(cap) + 1, p^k within the field cap, D no more than the
        cap allows at (p, k), and every order d <= D + 1, N = (p-1)*d + 1."""
        cap = cartier._MAX_DIGITS
        worst = (0,)
        for p in filter(is_prime, range(2, 2 * math.isqrt(cap) + 2)):
            for k in itertools.takewhile(lambda k: p**k <= _MAX_FIELD_SIZE, itertools.count(1)):
                D = math.isqrt(4 * cap // k) // (p - 1)  # the largest with g^2*k <= cap
                if D:
                    n = (p - 1) * (D + 1) + 1
                    worst = max(worst, (n * k * (p - 1) ** 2, p, k, D))
        # at the cap of 2^20: 16,933,591,188 at p = 2039, k = 1, D = 1 (g = 1019)
        assert worst[0] < 2**63, f"N*k*(p-1)^2 = {worst[0]:,} at (p, k, D) = {worst[1:]}"

    def test_series_route_names_nothing_of_the_rational_route(self):
        """The two pipelines must stay independent oracles: walk the code of
        the series route, following every function of the cartier module it
        calls, and look for the rational route.  Neither route reads the
        pivot structure or the closed form that the corank is checked
        against (CLOSED_FORM)."""
        names = names_reached(cartier._local_matrix, cartier._Layout, cartier._series_mul,
                              cartier._powers, cartier._signs)
        assert {"convolve", "_signs"} <= names
        rational = {"RatFunc", "partial_fractions", "cartier_rational", "cartier_poly",
                    "_rational_columns", "_rational_image", "_decompose", "_accumulate_layer",
                    "_f_numerator"}
        assert not names & rational
        assert not names & CLOSED_FORM

    def test_rational_route_names_nothing_of_the_series_route(self):
        names = names_reached(cartier._rational_columns)
        assert {"partial_fractions", "cartier_poly", "_signs", "_rational_image"} <= names
        # the decompositions' terms go straight to digits: no scaled copies
        # of a PartialFraction, no lists of elements turned into digits
        assert not names & {"digit_array", "scale"}
        series = {"_series_mul", "_powers", "_Layout", "_layout", "convolve", "_series_sizes",
                  "_local_matrix"}
        assert not names & series
        assert not names & CLOSED_FORM


CLOSED_FORM = {"partition_HA", "kappa", "theorem_a_value"}


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
def test_genus_zero_needs_no_series_bound(pipeline, monkeypatch):
    # y^p - y = x has g = 0: cartier_matrix returns the empty matrix before
    # either pipeline starts, at a p where a series would have p terms
    def built(*args):
        raise AssertionError("a pipeline started at g = 0")

    for name in ("_layout", "_local_matrix", "_rational_columns"):
        monkeypatch.setattr(cartier, name, built)
    M = cartier_matrix(curve(2_200_013, [0, 1]), pipeline)
    assert M.basis == () and M.digits.shape == (0, 0, 1) and rank(M) == 0


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
    f = f_partial_fraction(spec).assemble()
    assert cartier._f_numerator(spec, cartier._pole_factors(spec)) == f.num


@pytest.mark.parametrize("p,k,orders", [(13, 1, (4, 3)), (5, 2, (4, 2)), (3, 7, (2, 1)),
                                         (7, 1, (2, 1, 3))])
def test_rational_route_reduces_no_fraction(p, k, orders, monkeypatch):
    """The rational route decomposes C(G dx)/h unreduced: no gcd is taken,
    and the matrix is still the local pipeline's."""
    specs = random_specs(p, orders, 2, seed=p * k, k=k)

    def gcd(self, other):
        raise AssertionError("the rational route took a gcd")

    monkeypatch.setattr(Poly, "gcd", gcd)
    for spec in specs:
        assert cartier_matrix(spec, "rational") == cartier_matrix(spec, "local")


def test_monomial_outside_the_basis_is_refused(monkeypatch):
    """An image with a monomial outside the basis, x^3 dx where d_0 = 3, is a
    bug of the rational route: NotInSpan, never a wrong matrix."""
    def stray(spec, num, j, b, e, factors):
        return Poly.monomial(spec.field, 3), Poly.constant(spec.field, 1)

    monkeypatch.setattr(cartier, "_rational_image", stray)
    with pytest.raises(NotInSpan, match=r"monomial x\^3 dx falls outside the basis"):
        cartier_matrix(curve(7, [0, 0, 0, 1]), "rational")


def test_local_read_outside_the_basis_is_refused(tmp_path, monkeypatch, capsys):
    """A read of the local route that lands outside the basis is a bug,
    refused when the layout is built: with dx, the key term of y^2 dx on
    y^7 - y = x^3, dropped from the basis, NotInSpan, never a wrong matrix,
    and exit 3 from the CLI."""
    def without_dx(p, orders):
        return [form for form in ordered_basis(p, orders) if form != BasisForm(0, 0, 0)]

    monkeypatch.setattr(cartier, "ordered_basis", without_dx)
    cartier._layout.cache_clear()
    try:
        with pytest.raises(NotInSpan, match="monomial dx falls outside the basis"):
            cartier_matrix(curve(7, [0, 0, 0, 1]), "local")
        path = tmp_path / "cubic.curve"
        path.write_text("p = 7\npole inf: 0 0 0 1\n")
        assert main(["matrix", str(path)]) == 3
        assert "internal error (NotInSpan)" in capsys.readouterr().err
    finally:
        cartier._layout.cache_clear()


def test_layout_of_every_admissible_family():
    """Every read of the local route's layout lands in the basis, at a
    matrix entry no other read fills (the scatter assigns), inside its
    series, with a unit sign."""
    for p, orders in admissible_families(PARTITION_MAX_P, 3):
        g = len(ordered_basis(p, orders))
        if not g:  # no layout at g = 0
            continue
        layout = cartier._Layout(p, orders)
        entries = np.hstack([row * g + col for _, _, _, row, col, _ in layout.reads])
        assert np.bincount(entries).max(initial=0) <= 1, (p, orders)
        for (_, _, t, _, _, sign), n in zip(layout.reads, layout.sizes):
            assert (0 <= t).all() and (t < n).all(), (p, orders)
            assert (sign % p != 0).all(), (p, orders)


def pivot_coefficient(M, p, orders, form):
    """The key term of C(form): its target kappa(form) and the coefficient
    there, read off the matrix M."""
    target = kappa(p, orders, form)
    return target, M.entry(M.basis.index(target), M.basis.index(form))


class TestKeyTerms:
    def test_cubic_pivots(self):
        for pipeline in cartier.PIPELINES:
            M = cartier_matrix(curve(7, [0, 0, 0, 1]), pipeline)
            assert pivot_coefficient(M, 7, (3,), BasisForm(0, 0, 2)) == (BasisForm(0, 0, 0), F7(1))
            assert pivot_coefficient(M, 7, (3,), BasisForm(0, 0, 3)) == (BasisForm(0, 0, 1), F7(3))

    def test_self_pivot_on_finite_pole(self):
        for pipeline in cartier.PIPELINES:
            M = cartier_matrix(curve(3, [0, 0, 1], [(1, [1])]), pipeline)
            target = BasisForm(1, 1, 1)
            assert pivot_coefficient(M, 3, (2, 1), target) == (target, F3(1))

    def test_not_in_h(self):
        # dx is in A, and x^5 y^9 dx is not even in the basis of y^7 - y = x^3
        for form in (BasisForm(0, 0, 0), BasisForm(0, 5, 9)):
            with pytest.raises(NotInH):
                kappa(7, (3,), form)

    def test_condition_not_satisfied(self):
        with pytest.raises(ConditionNotSatisfied):
            kappa(3, (4,), BasisForm(0, 0, 0))

    @pytest.mark.parametrize(
        "p,orders,seed", [(3, (2, 1), 41), (5, (2, 4), 42), (7, (3, 2), 43), (7, (6,), 44)]
    )
    def test_pivot_structure(self, p, orders, seed):
        for spec in random_specs(p, orders, 4, seed):
            assert_pivot_structure(spec, cartier_matrix(spec, "local"))
