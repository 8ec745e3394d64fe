"""Cartier operator: axioms, dual pipelines, matrices, key terms."""

import copy
import dataclasses
import inspect
import itertools
import json
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
    cartier_matrix,
    cartier_poly,
    kappa,
)
from ascart import cartier, invariants, local, ratfunc, rational
from ascart.cartier import CartierMatrix
from ascart.cli import main
from ascart.curve import (INF, BasisForm, CurveSpec, PoleDatum, basis, binomial_signs,
                          ordered_basis)
from ascart.errors import (ConditionNotSatisfied, ForeignElement, NotInH, NotInSpan,
                           SeriesTooLarge)
from ascart.finite_field import _MAX_FIELD_SIZE, Field, is_prime
from ascart.invariants import rank, theorem_a_value
from ascart.sweep import random_curve

from conftest import (PARTITION_MAX_P, admissible_families, assert_pivot_structure, curve,
                      matrix_from_rows, random_specs, random_split_ratfunc)
from naive_local import cartier_local, f_partial_fraction, naive_local_matrix
from naive_ratfunc import (RatFunc, assemble, cartier_rational, decompose, from_ints, monomial,
                           power)
from naive_rank import naive_rank

F3 = GF(3)
F7 = GF(7)


class TestCartierPoly:
    def test_p3_examples(self):
        assert cartier_poly(from_ints(F3, [0, 0, 1])) == Poly.constant(F3, 1)
        assert cartier_poly(Poly.constant(F3, 1)).is_zero()

    def test_p7_examples(self):
        x6 = monomial(F7, 6)
        x9 = monomial(F7, 9)
        x13 = monomial(F7, 13)
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
        g = RatFunc(from_ints(F3, [0, 0, 1]))
        assert cartier_rational(g) == RatFunc(Poly.constant(F3, 1))

    def test_double_pole_killed(self):
        e = F3(1)
        den = power(Poly.x(F3) - Poly.constant(F3, e), 2)
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
            pf = decompose(g)
            local = assemble(cartier_local(pf))
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


@settings(max_examples=20, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    k=st.integers(1, 3),
    raw_orders=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=13, k=1, raw_orders=[4, 3], seed=0)  # p = 1 mod L
@example(p=5, k=2, raw_orders=[3], seed=0)  # p != 1 mod L
def test_rational_matrix_lies_inside_the_support(p, k, raw_orders, seed):
    """The rational route never reads the local layout, so its matrix being
    zero off cartier.support checks the support from outside, on both sides
    of p = 1 mod L."""
    orders = tuple(d for d in raw_orders if d % p)
    genus = (sum(d + 1 for d in orders) - 2) * (p - 1) // 2
    assume(orders and 1 <= genus <= 40 and len(orders) - 1 <= p**k)
    M = cartier_matrix(random_curve(GF(p, k), orders, random.Random(seed)), "rational")
    S = cartier.support(p, orders)
    assert S.shape == (genus, genus) and S.dtype == bool and not S.flags.writeable
    assert not (M.digits.any(axis=2) & ~S).any()


def test_local_series_large_genus():
    spec = random_curve(GF(31), (5, 3), random.Random(4))  # g = 120
    check_local_series(spec)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_pipelines_agree_at_genus_120(seed):
    """local against rational far past the g <= 15 of the hypothesis
    properties: p = 31 = 1 mod 15, orders (5, 3), g = 120, where a = 56 by
    the closed form."""
    spec = random_curve(GF(31), (5, 3), random.Random(seed))
    local, rational = cartier_matrix(spec, "local"), cartier_matrix(spec, "rational")
    assert local == rational
    assert local.dimension == 120
    assert local.dimension - rank(local) == theorem_a_value(31, (5, 3)) == 56


@pytest.mark.parametrize("p,k,orders,seed", [(7, 1, (3, 2, 1), 0), (5, 2, (4, 2), 1)])
def test_gathered_products_in_small_chunks(p, k, orders, seed, monkeypatch):
    """The product reads summed three terms at a time, so that most reads
    span several chunks and leave some chunks empty, still give the
    reference matrix."""
    field = GF(p, k)
    monkeypatch.setattr(local, "_CHUNK", 3 * k**2)
    _, _, lengths, _ = local._layout(p, orders).gathers  # every pole's product reads
    assert lengths.max() > 3 and lengths.sum() > 3 * len(lengths)
    spec = random_curve(field, orders, random.Random(seed))
    assert cartier_matrix(spec, "local").entries == naive_local_matrix(spec).entries


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_binomial_tables_against_comb(p):
    """The local route's running-sum table equals math.comb mod p, also past
    p, where Lucas' theorem makes some entries 0: C(p + t - 1, t) for
    0 < t < p.  Its C(b, t) are the signs of curve.binomial_signs, which
    TestSigns checks."""
    b_max, n = 2 * p + 1, 3 * p + 2
    negative = local._negative_binomials(p, b_max, n)
    assert negative.tolist() == [[math.comb(b + t - 1, t) % p if b else int(t == 0)
                                  for t in range(n)] for b in range(b_max + 1)]
    assert not negative[p, 1:p].any()


@pytest.mark.parametrize("m", [0, 1, 2, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 13])
def test_powers_against_field_products(p, k, m, monkeypatch):
    """_powers gives s^0, ..., s^m to n terms, against running FieldElement
    products, for a full series, one whose digits are all p - 1, one with a
    zero constant term, one with zero tail terms, a one-term series and one
    shorter than n.  At m = 0
    (e_max at p = 2) only s^0 is built, and at m <= 1 no product is."""
    def product(*args):
        raise AssertionError(f"_powers took a product at m = {m}")

    if m <= 1:
        monkeypatch.setattr(np, "convolve", product)
    field, n = GF(p, k), 7
    rng = random.Random(p * 100 + k * 10 + m)

    def element():
        return field.random_element(rng, nonzero=True)

    zeros = [field.zero] * n
    cases = {
        "full": [element() for _ in range(n)],
        # every digit p - 1: the widest sums the unreduced fold takes
        "all p - 1": list(field.element_rows(np.full((1, n, k), p - 1))[0]),
        "zero constant": [field.zero] + [element() for _ in range(n - 1)],
        "zero tail": [element(), field.zero, element()] + zeros[3:],
        "one term": [element()],
        "short": [element(), element()],
    }
    for name, s in cases.items():
        padded = (s + zeros)[:n]
        expected = [[field.one] + zeros[1:]]
        while len(expected) <= m:
            last = expected[-1]
            expected.append([sum((last[i] * padded[t - i] for i in range(t + 1)), field.zero)
                             for t in range(n)])
        powers = local._powers(field, field.digit_array(s), m, n)
        assert powers.shape == (m + 1, n, k), name
        assert field.element_rows(powers) == tuple(map(tuple, expected)), name


@pytest.mark.parametrize("p,k,orders,seed", [(101, 1, (1, 1), 1), (97, 1, (2, 1), 2),
                                          (11, 2, (1, 1), 3), (7, 2, (2, 1), 4)])
def test_read_sized_series_agree_with_rational(p, k, orders, seed):
    """local against rational on the shapes whose series read-sizing cuts
    the most: at infinity, orders (1, 1) keep 2 of the (p-1)*d_0 + 1 terms
    and orders (2, 1) about half of them."""
    layout = local._layout(p, orders)
    n = layout.poles[0].size
    assert n <= (p - 1) * orders[0] // 2 + 1, n
    assert n == 2 or orders != (1, 1), n
    spec = random_curve(GF(p, k), orders, random.Random(seed))
    assert cartier_matrix(spec, "local") == cartier_matrix(spec, "rational")


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2), (3, 7)])
def test_geometric_table_against_field_powers(p, k):
    """Each row of _geometric holds z^0, ..., z^(n-1) of its z, against
    running FieldElement products: rows of lengths 1, 2 and 3, and longer
    ones that take several doubling steps, for z = 0, z = 1 and random z,
    in one batch."""
    field = GF(p, k)
    rng = random.Random(p * k)
    zs = [field.zero, field.one] + [field.random_element(rng, nonzero=True) for _ in range(3)]
    rows = [(z, n) for z in zs for n in (1, 2, 3, 4, 9, 40)]
    rng.shuffle(rows)
    plan = local._doubling([n for _, n in rows])
    table = local._geometric(field, field.digit_array([z for z, _ in rows]), plan)
    assert table.shape == (plan.size, k) == (sum(n for _, n in rows), k)
    for (z, n), start in zip(rows, plan.starts.tolist()):
        expected = [field.one]
        while len(expected) < n:
            expected.append(expected[-1] * z)
        assert field.element_rows(table[None, start : start + n])[0] == tuple(expected), (z, n)


@pytest.mark.parametrize(
    "spec",
    [
        # at infinity x_1 = w/(1 - e_1 w); at e_1, x = e_1 + u
        curve(7, [1, 2, 3, 1], [(3, [4, 5])]),
        # the same with e_1 = 0, whose powers vanish past z^0
        curve(5, [2, 1, 0, 1], [(0, [1, 2])]),
        # two finite poles over GF(5^2), at 0 and 1: z = 1/(e_j - e_l) is 1 and -1
        curve(5, [0, 1, 1], [(0, [3]), (1, [1, 0, 2])], k=2),
        # two finite poles over GF(3^7), at t and 1 + 2t
        curve(3, [1, 0, 1], [((0, 1), [1]), ((1, 2), [2, 1])], k=7),
    ],
    ids=["infinity-and-x", "location-zero", "pair-gf25", "pair-gf2187"],
)
def test_closed_form_series_cases(spec):
    """One curve per closed form of the x_j series against the references."""
    check_local_series(spec)


class TestLocalSeriesGuards:
    def test_digit_cap_keeps_series_sums_in_int64(self):
        """The digit cap is the only size check, so it must bound every
        product of the local pipeline: N*k*(p-1)^2 < 2^63 for series of N
        terms over GF(p^k), and the unreduced fold of a power,
        (2k-1)*N*k*(p-1)^3, too.  Read-sized series have at most the N
        below.  With D = sum(d_l + 1) - 2, g = D*(p-1)/2, so a
        curve of genus g >= 1 under the cap, g^2*k <= cap, has
        p <= 2*sqrt(cap) + 1, p^k within the field cap, D no more than the
        cap allows at (p, k), and every order d <= D + 1, N = (p-1)*d + 1."""
        cap = cartier._MAX_DIGITS
        worst, fold = (0,), (0,)
        for p in filter(is_prime, range(2, 2 * math.isqrt(cap) + 2)):
            for k in itertools.takewhile(lambda k: p**k <= _MAX_FIELD_SIZE, itertools.count(1)):
                D = math.isqrt(4 * cap // k) // (p - 1)  # the largest with g^2*k <= cap
                if D:
                    n = (p - 1) * (D + 1) + 1
                    worst = max(worst, (n * k * (p - 1) ** 2, p, k, D))
                    fold = max(fold, ((2 * k - 1) * n * k * (p - 1) ** 3, p, k, D))
        # at the cap of 2^20: 16,933,591,188 at p = 2039, k = 1, D = 1 (g = 1019)
        assert worst[0] < 2**63, f"N*k*(p-1)^2 = {worst[0]:,} at (p, k, D) = {worst[1:]}"
        # _powers folds its unreduced slots, 2k - 1 of them times entries of
        # at most p - 1: 52,481,297,415,888 at p = 1447, k = 2, D = 1 (g = 723)
        assert fold[0] < 2**46, f"(2k-1)*N*k*(p-1)^3 = {fold[0]:,} at (p, k, D) = {fold[1:]}"

    def test_cap_curve(self):
        """y^1009 - y = x^3, g = 1008, the largest genus of a cubic under the
        digit cap: the rank is g - a from the closed form, and the matrix is
        upper triangular with a zero diagonal, so the p-rank is 0."""
        M = cartier_matrix(curve(1009, [0, 0, 0, 1]))
        assert M.dimension == 1008
        assert rank(M) == 1008 - theorem_a_value(1009, (3,)) == 336
        assert not np.tril(M.digits.any(axis=2)).any()
        assert invariants.p_rank_stable(M) == 0

    def test_series_route_names_nothing_of_the_rational_route(self):
        """The two pipelines must stay independent oracles, which the import
        graph checks (test_module_boundaries); this walk covers what it
        cannot see.  Walk the code of the series route, following every
        function of the local module it calls: it never reads the pivot
        structure or the closed form that the corank is checked against
        (CLOSED_FORM)."""
        names = names_reached(local, local.local_matrix, local._Layout, local._powers,
                              local._gathered_products, local._digit_fold,
                              local._negative_binomials, local._doubling, local._geometric)
        assert {"convolve", "binomial_signs", "_gathered_products", "reduceat",
                "_negative_binomials", "_doubling", "_geometric", "_fold", "_Pole"} <= names
        assert not names & CLOSED_FORM

    def test_rational_route_names_nothing_of_the_series_route(self):
        """The same walk from the rational route, into the rational module,
        ratfunc and the methods of Poly and PartialFraction: its products
        are Kronecker products (from_bytes, frombuffer), never numpy's
        convolutions or gathered sums."""
        names = names_reached(rational, rational.rational_matrix, rational._RationalPlan)
        assert {"partial_fractions", "cartier_poly", "binomial_signs", "_rational_image",
                "_kronecker", "from_bytes", "frombuffer", "_divide_linear", "_taylor"} <= names
        assert not names & {"convolve", "reduceat"}
        # the decompositions' terms go straight to digits: no scaled copies
        # of a PartialFraction, no lists of elements turned into digits
        assert not names & {"digit_array", "scale"}
        assert not names & CLOSED_FORM


CLOSED_FORM = {"partition_HA", "kappa", "theorem_a_value"}


def names_reached(pipeline, *roots) -> set[str]:
    """Every name in the code of the roots (functions, or classes for their
    methods and properties), following each function of the pipeline's
    module and of ratfunc that they name, and every method of Poly and
    PartialFraction once either class is named."""
    followed = (pipeline, ratfunc)
    todo, seen, names = list(roots), set(), set()
    while todo:
        item = todo.pop()
        if item in seen:
            continue
        seen.add(item)
        members = vars(item).values() if isinstance(item, type) else [item]
        members = [m.fget if isinstance(m, property) else getattr(m, "__func__", m)
                   for m in members]
        codes = [f.__code__ for f in members if inspect.isfunction(f)]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes.extend(c for c in code.co_consts if inspect.iscode(c))
            for name in code.co_names:
                for module in followed:
                    target = vars(module).get(name)
                    if target in (Poly, PartialFraction) or (
                            inspect.isfunction(target) and target.__module__ == module.__name__):
                        todo.append(target)
    return names


# what each pipeline builds, by the name the gate or the pipeline calls it
BUILDERS = ((cartier, "rational_matrix"), (rational, "_rational_plan"),
            (rational, "_rational_columns"), (cartier, "local_matrix"), (local, "_layout"))


@pytest.mark.parametrize("pipeline", ["rational", "local"])
def test_matrix_over_the_digit_cap_is_refused_before_building(pipeline, monkeypatch):
    def built(*args):
        raise AssertionError("a pipeline started past the cap")

    for module, name in BUILDERS:
        monkeypatch.setattr(module, name, built)
    # y^1031 - y = x^3 has g = 1030, and 1030^2 is over the 2^20 cap
    with pytest.raises(SeriesTooLarge, match="genus 1030 over GF"):
        cartier_matrix(curve(1031, [0, 0, 0, 1]), pipeline)


@pytest.mark.parametrize("pipeline", cartier.PIPELINES)
def test_genus_zero_needs_no_series_bound(pipeline, monkeypatch):
    # y^p - y = x has g = 0: cartier_matrix returns the empty matrix before
    # either pipeline starts, at a p where a series would have p terms
    def built(*args):
        raise AssertionError("a pipeline started at g = 0")

    for module, name in BUILDERS:
        monkeypatch.setattr(module, name, built)
    M = cartier_matrix(curve(2_200_013, [0, 1]), pipeline)
    assert M.basis == () and M.digits.shape == (0, 0, 1) and rank(M) == 0


@pytest.mark.parametrize("build", [*cartier.PIPELINES, "from_json"])
def test_matrix_is_built_from_digits(build, monkeypatch):
    """Both pipelines and from_json hand CartierMatrix a digit array, never
    rows of elements: the keyword entries has no caller in the package."""
    spec = curve(3, [0, 0, 1], [(1, [1])], k=2)
    reference = cartier_matrix(spec)
    handed = []

    def spy(field, forms, digits):
        handed.append(digits)
        return CartierMatrix(field, forms, digits)

    monkeypatch.setattr(cartier, "CartierMatrix", spy)
    if build == "from_json":
        M = CartierMatrix.from_json(reference.to_json())
    else:
        M = cartier_matrix(spec, build)
    assert [type(digits) for digits in handed] == [np.ndarray]
    assert M == reference


def test_rows_of_elements_are_refused():
    """CartierMatrix takes digits: rows of elements, as tuples, lists or the
    empty rows, are refused as digits with ValueError, in the constructor
    and through dataclasses.replace.  Only the keyword entries takes rows."""
    M = cartier_matrix(curve(3, [0, 0, 1], [(1, [1])], k=2))
    for rows in (M.entries, [list(row) for row in M.entries], ()):
        with pytest.raises(ValueError, match="matrix digits must be an integer array"):
            CartierMatrix(M.field, M.basis, rows)
        with pytest.raises(ValueError, match="matrix digits must be an integer array"):
            dataclasses.replace(M, digits=rows)
    assert dataclasses.replace(M, entries=M.entries) == M
    assert [f.name for f in dataclasses.fields(CartierMatrix)] == ["field", "basis", "digits"]


@pytest.mark.parametrize("pipeline", cartier.PIPELINES)
@pytest.mark.parametrize("where", ["modulus", "characteristic", "location"])
def test_elements_of_another_field_are_refused(pipeline, where):
    """validate refuses a coefficient or a location that lies in another
    field than the curve's, so neither pipeline reads foreign digits."""
    F, other = GF(3, 2), Field(3, 2, modulus=(2, 2, 1))  # GF(3^2), not the default modulus
    assert other != F
    foreign = {"modulus": other.gen, "characteristic": GF(5)(2), "location": other.gen}[where]
    if where == "location":
        poles = (PoleDatum(INF, (F.zero, F.zero, F.one)), PoleDatum(foreign, (F.one,)))
    else:
        poles = (PoleDatum(INF, (F.zero, F.zero, foreign)),)
    with pytest.raises(ForeignElement, match=r"does not lie in GF\(3\^2\)"):
        cartier_matrix(CurveSpec(F, poles), pipeline)


@pytest.mark.parametrize("pipeline", cartier.PIPELINES)
def test_elements_of_an_equal_field_are_accepted(pipeline):
    """An element of a field equal to the curve's that GF did not build is
    no foreign element."""
    F, twin = GF(3, 2), Field(3, 2)
    assert twin is not F and twin == F
    spec = CurveSpec(F, (PoleDatum(INF, (F.zero, F.zero, twin.gen)),))
    assert cartier_matrix(spec, pipeline) == cartier_matrix(curve(3, [0, 0, (0, 1)], k=2), pipeline)


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
    """binomial_signs: sign[r, e] = (-1)^e C(r, e) mod p, by Pascal's rule."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 1009])
    def test_against_comb(self, p):
        e_max = min(p + 3, 40)  # past p - 2, where Pascal's rule wraps mod p
        sign = binomial_signs(p, e_max)
        assert sign.shape == (e_max + 1, e_max + 1) and sign.dtype == np.int64
        assert sign.tolist() == [[(-1) ** e * math.comb(r, e) % p for e in range(e_max + 1)]
                                 for r in range(e_max + 1)]

    def test_small(self):
        # (+1, -2, +1) mod 7
        assert binomial_signs(7, 2).tolist() == [[1, 0, 0], [1, 6, 0], [1, 5, 1]]
        assert binomial_signs(5, 0).tolist() == [[1]]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 1009])
    def test_no_entry_vanishes_below_p_minus_one(self, p):
        r = max(p - 2, 0)  # the largest y-power of a basis form
        sign = binomial_signs(p, r)
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
            entries = cartier_matrix(spec, pipeline).entries
            nonzero = {
                (i, j): entries[i][j]
                for i in range(6)
                for j in range(6)
                if not entries[i][j].is_zero()
            }
            assert nonzero == {
                (forms.index(BasisForm(0, 0, 0)), forms.index(BasisForm(0, 0, 2))): F7(1),
                (forms.index(BasisForm(0, 0, 1)), forms.index(BasisForm(0, 0, 3))): F7(3),
            }

    def test_two_pole_structure(self):
        spec = curve(3, [0, 0, 1], [(1, [1])])
        forms = basis(spec)
        M = cartier_matrix(spec, "local")
        entries = M.entries
        j = forms.index(BasisForm(0, 0, 0))
        assert tuple(row[j] for row in entries) == (F3(0),) * 3
        # pivots on the diagonal of the two x1 columns
        for f in (BasisForm(1, 1, 0), BasisForm(1, 1, 1)):
            i = forms.index(f)
            assert not entries[i][i].is_zero()
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
        # through JSON text, also for the empty basis of genus 0
        for spec in (curve(3, [0, 0, 1], [(1, [1])], k=2), curve(3, [0, 1])):
            M = cartier_matrix(spec)
            assert CartierMatrix.from_json(json.loads(json.dumps(M.to_json()))) == M


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
        assert all(F(M.digits[i, j]) == c for i, row in enumerate(M.entries)
                   for j, c in enumerate(row))

    @pytest.mark.parametrize("p,orders,k,seed", [(13, (4, 3), 1, 41), (5, (4, 2), 2, 42),
                                                 (3, (2, 1), 7, 43), (2, (3, 1), 3, 44)])
    def test_every_construction(self, p, orders, k, seed):
        spec = random_specs(p, orders, 1, seed, k=k)[0]
        local, rational = cartier_matrix(spec, "local"), cartier_matrix(spec, "rational")
        rebuilt = CartierMatrix.from_json(local.to_json())
        from_digits = CartierMatrix(local.field, local.basis, local.digits.copy())
        # M + I through dataclasses.replace: the entries follow the new digits
        F = local.field
        rows = tuple(tuple(c + F.one if i == j else c for j, c in enumerate(row))
                     for i, row in enumerate(local.entries))
        shifted = dataclasses.replace(local, digits=matrix_from_rows(F, local.basis, rows).digits)
        equal = (local, rational, rebuilt, from_digits)
        for M in (*equal, shifted):
            self.check(M)
        assert all(M == local and hash(M) == hash(local) and repr(M) == repr(local)
                   for M in equal)
        assert shifted.entries == rows
        assert rank(shifted) == naive_rank(shifted) and shifted != local
        twin = dataclasses.replace(local, entries=rows)  # the keyword takes rows of elements
        assert shifted == twin and hash(shifted) == hash(twin)

    def test_empty_matrix(self):
        self.check(matrix_from_rows(GF(3, 2), (), ()))

    @pytest.mark.parametrize("p,k,entries,message", [
        (13, 1, [[13]], "must lie in"),
        (13, 1, [[-1]], "must lie in"),
        (13, 1, [[1.7]], "must be integers"),
        (3, 2, [[1]], "1 x 1 matrix of 2-digit entries"),
    ], ids=["p", "negative", "float", "one-digit"])
    def test_from_json_refuses_malformed_digits(self, p, k, entries, message):
        data = {"field": GF(p, k).to_json(), "basis": [[0, 0, 0]], "entries": entries}
        with pytest.raises(ValueError, match=message):
            CartierMatrix.from_json(data)

    @pytest.mark.parametrize("form", [[0, 0], [0, 0, 0, 0], [0, -1, 0], [0, 1.0, 0], [0, True, 0],
                                      "x^0", 7],
                             ids=["two", "four", "negative", "float", "bool", "string", "int"])
    def test_from_json_refuses_a_malformed_form(self, form):
        data = {"field": GF(13).to_json(), "basis": [form], "entries": [[1]]}
        with pytest.raises(ValueError, match="not three non-negative ints"):
            CartierMatrix.from_json(data)

    def test_from_json_refuses_a_repeated_form(self):
        data = {"field": GF(13).to_json(), "basis": [[0, 1, 0], [0, 1, 0]],
                "entries": [[1], [0], [0], [1]]}
        with pytest.raises(ValueError, match="lists a form twice"):
            CartierMatrix.from_json(data)

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
            dataclasses.replace(M, digits=digits)

    def test_entries_must_lie_in_the_field(self):
        other = Field(3, 2, modulus=(2, 2, 1))  # GF(3^2), but not the default modulus
        assert other != GF(3, 2)
        with pytest.raises(ValueError, match="matrix entries must lie in"):
            CartierMatrix(GF(3, 2), (BasisForm(0, 0, 0),), entries=((other.gen,),))

    def test_shape_must_match_basis(self):
        M = cartier_matrix(curve(7, [0, 0, 0, 1]))
        with pytest.raises(ValueError, match="6 x 6"):
            CartierMatrix(M.field, M.basis, M.digits[:5, :5])
        with pytest.raises(ValueError, match="6 x 6"):
            CartierMatrix(M.field, M.basis, entries=M.entries[:5])


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    k=st.integers(1, 3),
    ranks=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_numerator_from_pole_data(p, k, ranks, seed):
    """The rational pipeline's N = f * prod (x - e_l)^(d_l), built from the
    pole data, is the numerator of the assembled f.  Every order is
    admissible: the n-th positive integer prime to p."""
    orders = [n + (n - 1) // (p - 1) for n in ranks]
    assume(len(orders) - 1 <= p**k)
    spec = random_curve(GF(p, k), orders, random.Random(seed))
    f = assemble(f_partial_fraction(spec))
    assert rational._f_numerator(spec, rational._pole_factors(spec)) == f.num


@pytest.mark.parametrize("p,k,orders", [
    (13, 1, (4, 3)), (5, 2, (4, 2)), (3, 7, (2, 1)), (7, 1, (2, 1, 3)),
    # 2, 3 and 4 finite poles over GF(p^k), k = 1, 2, 3
    (5, 1, (2, 1, 3)), (3, 2, (1, 2, 1)), (2, 3, (3, 1, 1)),
    (7, 1, (3, 1, 2, 1)), (5, 2, (1, 1, 1, 2)), (3, 3, (2, 1, 1, 2)),
    (5, 1, (2, 1, 1, 1, 1)), (3, 2, (1, 1, 2, 1, 1)), (2, 3, (1, 1, 1, 1, 3)),
])
def test_rational_route_reduces_no_fraction(p, k, orders, monkeypatch):
    """The rational route decomposes C(G dx)/h unreduced: no gcd is taken,
    and the matrix is still the local pipeline's, also where the plan's
    images carry powers of several pole factors in G and in h."""
    specs = random_specs(p, orders, 2, seed=p * k, k=k)

    def gcd(self, other):
        raise AssertionError("the rational route took a gcd")

    # Poly has no gcd of its own: the trap catches one that comes back
    monkeypatch.setattr(Poly, "gcd", gcd, raising=False)
    for spec in specs:
        assert cartier_matrix(spec, "rational") == cartier_matrix(spec, "local")


def test_rational_plan_of_every_admissible_family():
    """The rational route's plan, for every admissible family, against a
    direct enumeration of every read: one image per distinct (j, b, e) that
    a column x_j^b y^r dx reads, e <= r, sorted, with the exponents of the
    amplified form x_j^b f^e = G / h^p, with m_l = e*d_l (+ b at l = j),
    -m_l mod p in G and ceil(m_l/p) in h at each finite pole, and the shift
    x^b at j = 0.  An image is in the plan exactly when deg G >= p - 1, and
    every dead one's G, built as that product of powers of f's numerator N
    and of the x - e_l on a random curve of the family over GF(p^k),
    k <= 3, has that degree and C(G dx) = 0.  A live image's runs hold the
    poly part x^0..x^top, top = deg C(G dx) - deg h, then (x - e_l)^-1..-n
    for each (l, n) of h, and the table has one column per slot and read,
    in that order: the slot's term in the read's y-layer r - e, its matrix
    entry, -1 outside the basis, the reading column and the sign
    (-1)^e C(r, e) mod p.  No read of any family falls outside the basis,
    so the route's guard (refused) only ever catches a bug."""
    rng, dead = random.Random(34), 0
    for p, orders in admissible_families(PARTITION_MAX_P, 3):
        forms = ordered_basis(p, orders)
        k = rng.randint(1, 3)
        if not forms or len(orders) - 1 > p**k:
            continue
        plan = rational._rational_plan(p, tuple(orders))
        assert plan.forms == tuple(forms) and plan.e_max == max(form.r for form in forms)
        index = {tuple(form): i for i, form in enumerate(forms)}
        reads = {}  # (cols, signs, y-layers) of the reads of each (j, b, e)
        for col, (j, b, r) in enumerate(forms):
            for e in range(r + 1):
                cols, signs, ys = reads.setdefault((j, b, e), ([], [], []))
                cols.append(col)
                signs.append((-1) ** e * math.comb(r, e) % p)
                ys.append(r - e)
        images = {image[:3]: image for image in plan.images}
        assert list(images) == sorted(images) and images.keys() <= reads.keys(), (p, orders)
        spec = random_curve(GF(p, k), orders, rng)
        N = rational._f_numerator(spec, rational._pole_factors(spec))
        x = Poly.x(spec.field)
        lin = [x - Poly.constant(spec.field, datum.location) for datum in spec.poles[1:]]
        table, slot = ([], [], [], []), 0  # (slot, entry, col, sign)
        for j, b, e in sorted(reads):
            m = [e * d + (b if l == j else 0) for l, d in enumerate(orders)][1:]
            tops = tuple((l, -n % p) for l, n in enumerate(m) if n % p)
            bottoms = tuple((l, math.ceil(n / p)) for l, n in enumerate(m) if n)
            shift = b if j == 0 else 0
            degree = e * N.degree() + sum(n for _, n in tops) + shift
            if degree < p - 1:
                assert (j, b, e) not in images, (p, orders, j, b, e)
                G = power(x, shift) * power(N, e)
                for l, n in tops:
                    G = G * power(lin[l], n)
                assert G.degree() == degree and cartier_poly(G).is_zero(), (p, orders, j, b, e)
                dead += 1
                continue
            image = images[j, b, e]
            assert (image.tops, image.bottoms, image.shift) == (tops, bottoms, shift)
            top = (degree + 1) // p - 1 - sum(n for _, n in bottoms)
            cols, signs, ys = reads[j, b, e]
            runs, first = {}, slot
            for pole, terms in [(0, range(top + 1))] + [(l + 1, range(1, n + 1))
                                                         for l, n in bottoms]:
                runs[pole] = (slot, len(terms))
                for n in terms:
                    table[1].extend([index.get((pole, n, y), -1) for y in ys])
                slot += len(terms)
            assert image.runs == runs, (p, orders, j, b, e)
            table[0].extend(s for s in range(first, slot) for _ in cols)
            table[2].extend(cols * (slot - first))
            table[3].extend(signs * (slot - first))
        assert plan.slots == slot and np.array_equal(plan.table, table), (p, orders)
        assert -1 not in plan.table[1] and plan.refused.shape == (4, 0), (p, orders)
    assert dead > 1000, dead


def test_monomial_outside_the_basis_is_refused(monkeypatch):
    """An image with a monomial outside the basis, x^3 dx where d_0 = 3, is a
    bug of the rational route: NotInSpan, never a wrong matrix."""
    def stray(spec, num, image, factors):
        return monomial(spec.field, 3), Poly.constant(spec.field, 1)

    monkeypatch.setattr(rational, "_rational_image", stray)
    with pytest.raises(NotInSpan, match=r"monomial x\^3 dx falls outside the basis"):
        cartier_matrix(curve(7, [0, 0, 0, 1]), "rational")


@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
@pytest.mark.parametrize("spec, stray, message", [
    # the poly part x of an image whose only slot is x^0, where x dx is a form
    (curve(7, [0, 0, 0, 1]), lambda x, one: (x, one),
     r"monomial x dx falls past its image's degree"),
    # 1/(x - 1)^4, a tail longer than every run at the pole x = 1
    (curve(3, [0, 0, 1], [(1, [1])]), lambda x, one: (one, power(x - one, 4)),
     r"monomial x1\^4 dx falls outside the basis"),
])
def test_part_longer_than_its_slots_is_refused(spec, stray, message, last, monkeypatch):
    """A decomposition with a part longer than its run of slots, which the
    degrees of its image rule out, is a bug of the rational route:
    NotInSpan, naming its first term past the run, never an IndexError or
    a ValueError from the write, also at the last image, whose run ends
    the slots."""
    plan = rational._rational_plan(spec.p, spec.invariants.orders)
    x, one, real = Poly.x(spec.field), Poly.constant(spec.field, 1), rational._rational_image

    def image_of(spec, num, image, factors):
        if last and image is not plan.images[-1]:
            return real(spec, num, image, factors)
        return stray(x, one)

    monkeypatch.setattr(rational, "_rational_image", image_of)
    with pytest.raises(NotInSpan, match=message):
        cartier_matrix(spec, "rational")


def test_rational_read_outside_the_basis_is_refused(monkeypatch):
    """A nonzero term that a column of the rational route reads outside the
    basis is a bug, refused by the one guard of the curve's pass: with dx
    dropped from the basis, C(f^2 dx) = 1 on y^7 - y = x^3 lands on it in
    the column of y^2 dx, NotInSpan, never a wrong matrix."""
    def without_dx(p, orders):
        return [form for form in ordered_basis(p, orders) if form != BasisForm(0, 0, 0)]

    monkeypatch.setattr(rational, "ordered_basis", without_dx)
    rational._rational_plan.cache_clear()
    try:
        with pytest.raises(NotInSpan, match="monomial dx falls outside the basis"):
            cartier_matrix(curve(7, [0, 0, 0, 1]), "rational")
    finally:
        rational._rational_plan.cache_clear()


def test_local_read_outside_the_basis_is_refused(tmp_path, monkeypatch, capsys):
    """A read of the local route that lands outside the basis is a bug,
    refused when the layout is built: with dx, the key term of y^2 dx on
    y^7 - y = x^3, dropped from the basis, NotInSpan, never a wrong matrix,
    and exit 3 from the CLI."""
    def without_dx(p, orders):
        return [form for form in ordered_basis(p, orders) if form != BasisForm(0, 0, 0)]

    monkeypatch.setattr(local, "ordered_basis", without_dx)
    local._layout.cache_clear()
    rational._rational_plan.cache_clear()
    try:
        with pytest.raises(NotInSpan, match="monomial dx falls outside the basis"):
            cartier_matrix(curve(7, [0, 0, 0, 1]), "local")
        path = tmp_path / "cubic.curve"
        path.write_text("p = 7\npole inf: 0 0 0 1\n")
        assert main(["matrix", str(path)]) == 3
        assert "internal error (NotInSpan)" in capsys.readouterr().err
    finally:
        local._layout.cache_clear()
        rational._rational_plan.cache_clear()


def assert_triangular_support(p, orders):
    """The family's support is upper triangular in the ordered basis, with
    its diagonal exactly at the logarithmic forms x_j y^r dx (j >= 1,
    b = 1), m(p-1) of them: every matrix of the family is upper triangular,
    with at most m(p-1) nonzero diagonal entries."""
    S = cartier.support(p, orders)
    assert not np.tril(S, -1).any(), (p, orders)
    logarithmic = [i for i, form in enumerate(ordered_basis(p, orders))
                   if form.j >= 1 and form.b == 1]
    assert np.flatnonzero(S.diagonal()).tolist() == logarithmic, (p, orders)
    assert len(logarithmic) == (len(orders) - 1) * (p - 1), (p, orders)


def test_layout_of_every_admissible_family():
    """Every read of the local route's layout lands in the basis, at a
    matrix entry no other read fills (the scatter assigns), inside its
    series, with a unit sign.  Each read is direct or a product, never
    both: a product read is one of H_l^e by x_j^b for j != l and b >= 1,
    its indices t - s and s lie inside the rows of H_l^e and x_j^b for
    every s of its term range, and its flat gather data name those
    entries.  The basis has a pivot certificate: the kappa matching lies in
    the support and is maximum there, so the support's term rank is #H =
    g - theorem_a_value, and rank's cover has #H lines.  The support is
    upper triangular, with m(p-1) logarithmic forms on its diagonal."""
    for p, orders in admissible_families(PARTITION_MAX_P, 3):
        g = len(ordered_basis(p, orders))
        if not g:  # no layout at g = 0
            continue
        assert_triangular_support(p, orders)
        layout = local._layout(p, orders)
        certificate = invariants._certificate(p, layout.forms)
        assert certificate is not None, (p, orders)
        H = len(certificate.cols)
        assert H == g - theorem_a_value(p, orders), (p, orders)
        assert cartier.support(p, orders)[certificate.rows, certificate.cols].all(), (p, orders)
        assert certificate.cover_rows.sum() + certificate.cover_cols.sum() == H, (p, orders)
        entries = np.hstack([table[-3] * g + table[-2]
                             for table in (layout.direct, layout.products)])
        assert np.bincount(entries).max(initial=0) <= 1, (p, orders)
        jb = np.array(layout.forms)[:, :2]
        assert layout.direct.shape[0] == 6 and layout.products.shape[0] == 9, (p, orders)
        assert len(layout.poles) == len(orders), (p, orders)
        poles = np.hstack([layout.direct[0], layout.products[0]])
        assert ((0 <= poles) & (poles < len(orders))).all(), (p, orders)
        h0, x0, length, start = layout.gathers
        assert (start == np.cumsum(length) - length).all(), (p, orders)
        # the poles' columns of the power table and rows of the flat stack
        # tile them, in pole order
        power, coef = layout.stack
        sizes = np.array([pole.size for pole in layout.poles])
        spans = np.array([len(pole.f_rows) * pole.size for pole in layout.poles])
        assert [pole.offset for pole in layout.poles] == (np.cumsum(sizes) - sizes).tolist()
        assert [pole.stack for pole in layout.poles] == (np.cumsum(spans) - spans).tolist()
        assert layout.width == sizes.sum() and len(power) == len(coef) == spans.sum()
        assert (0 <= power).all() and (power < layout.doubling.size).all(), (p, orders)
        assert (0 <= coef).all() and (coef < p).all(), (p, orders)
        for l, pole in enumerate(layout.poles):
            n, on_l, read_l = pole.size, layout.direct[0] == l, layout.products[0] == l
            direct, products = layout.direct[1:, on_l], layout.products[1:, read_l]
            e, t, x, lo, hi, _, col, _ = products
            j, b = jb[col].T
            others = np.array([(jj, bb) for jj, d in enumerate(orders) if jj != l
                               for bb in range(d + 1)]).reshape(-1, 2)
            assert (others[x] == jb[col]).all(), (p, orders, l)
            assert (j != l).all() and (b >= 1).all(), (p, orders, l)
            e_d, t_d, _, col_d, _ = direct
            j_d, b_d = jb[col_d].T
            assert ((j_d == l) | (b_d == 0)).all(), (p, orders, l)
            # read-sized: the fewest terms that hold every read and the
            # d_l + 1 terms of H_l's own principal part
            d = orders[l]
            assert n == 1 + max([d, *t_d, *(t - lo), *hi]), (p, orders, l)
            assert n <= (p - 1) * d + 1, (p, orders, l)
            # a band cuts only H_l of a pole whose one other pole is infinity
            assert 1 <= pole.band <= n, (p, orders, l)
            assert pole.band == n or len(orders) == 1 + (l > 0), (p, orders, l)
            for e_, t_, sign in ((e_d, t_d, direct[-1]), (e, t, products[-1])):
                assert (0 <= e_).all() and (e_ <= layout.e_max).all(), (p, orders)
                assert (0 <= t_).all() and (t_ < n).all(), (p, orders)
                assert (sign % p != 0).all(), (p, orders)
            # a direct read's flat row is term t_d of H_l^e_d in the power table
            assert (layout.reads[on_l] == e_d * layout.width + pole.offset + t_d).all()
            # every s in [lo, hi]: 0 <= t - s and s < n, s >= 0
            assert (0 <= lo).all() and (lo <= hi).all() and (hi <= t).all(), (p, orders, l)
            assert (length[read_l] == hi - lo + 1).all(), (p, orders, l)
            # term m of a read, s = lo + m - start, reads row h0 - m of the
            # power table and row x0 + m of the flat stack; both are linear
            # in m, so the two ends of each range decide it
            first, last = start[read_l], start[read_l] + length[read_l] - 1
            for m, s in ((first, lo), (last, hi)):
                assert (h0[read_l] - m == e * layout.width + pole.offset + t - s).all()
                assert (x0[read_l] + m == pole.stack + x * n + s).all(), (p, orders, l)
            # the closed forms: one power of z and one coefficient per term
            # of the stack, and one coefficient of f_j per stacked power
            f_rows = pole.f_rows
            assert len(f_rows) == len(others) and (f_rows < sum(orders) + len(orders)).all()


def test_band_holds_every_term_of_H(monkeypatch):
    """H_l has no nonzero term at or past its band: on a random curve over
    GF(p^k), k <= 3, of every admissible family, the local route with
    every band widened to its pole's n_l terms hands _powers an H_l that
    is 0 from the band on, and gives the same matrix.  A band cuts only
    where f has at most one finite pole; elsewhere it is n_l, with nothing
    past it to check."""
    rng, powers, cut = random.Random(33), local._powers, 0
    for p, orders in admissible_families(PARTITION_MAX_P, 3):
        k = rng.randint(1, 3)
        if not ordered_basis(p, orders) or len(orders) - 1 > p**k:
            continue
        if len(orders) > 2:  # every band n_l (test_layout_of_every_admissible_family)
            continue
        spec = random_curve(GF(p, k), orders, rng)
        layout, seen = local._layout(p, orders), []
        wide = copy.copy(layout)
        wide.poles = [pole._replace(band=pole.size) for pole in layout.poles]

        def spy(field, s, m, n, out=None):
            seen.append(s.copy())
            return powers(field, s, m, n, out=out)

        with monkeypatch.context() as patch:
            patch.setattr(local, "_layout", lambda p, orders: wide)
            patch.setattr(local, "_powers", spy)
            _, digits = local.local_matrix(spec, orders)
        assert (digits == cartier_matrix(spec).digits).all(), (p, orders, k)
        assert len(seen) == len(orders), (p, orders, k)
        for pole, h in zip(layout.poles, seen):
            assert len(h) == pole.size and not h[pole.band :].any(), (p, orders, k)
            cut += pole.band < pole.size
    assert cut > 100, cut


def test_support_is_triangular_off_the_theorem():
    """The support's shape needs no p = 1 mod L: it holds on every family
    with p <= 13, up to 3 poles and orders <= 7 prime to p, outside it."""
    families = 0
    for p in filter(is_prime, range(2, 14)):
        prime_to_p = [d for d in range(1, 8) if d % p]
        for n in range(1, 4):
            for orders in itertools.product(prime_to_p, repeat=n):
                if (p - 1) % math.lcm(*orders) and ordered_basis(p, orders):
                    assert_triangular_support(p, orders)
                    families += 1
    assert families == 1219


def pivot_coefficient(M, p, orders, form):
    """The key term of C(form): its target kappa(form) and the coefficient
    there, read off the matrix M."""
    target = kappa(p, orders, form)
    return target, M.field(M.digits[M.basis.index(target), M.basis.index(form)])


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
