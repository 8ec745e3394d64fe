"""Acceptance suite: one test per criterion, exact tolerances, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Everything here is exact arithmetic; there are no tolerances to tune except
the explicitly numeric Weil-bound sanity check, which is not a criterion.
"""

import random
from fractions import Fraction

import pytest

from ascart import (
    GF,
    cartier_matrix,
    compare_polygons,
    count_points,
    hodge_polygon,
    l_polynomial,
    newton_polygon,
    p_rank_stable,
    rank,
    theorem_a_value,
    twisted_rank_profile,
    validate,
)
from ascart.curve import BasisForm, basis
from ascart.invariants import a_monomial_remark, a_number
from ascart.sweep import SweepConfig, child_seed, random_curve, run_sweep

from conftest import assert_pivot_structure, curve, random_split_ratfunc
from naive_ratfunc import cartier_rational

SWEEP_TUPLES = [
    (3, (2,)),
    (3, (2, 1)),
    (3, (2, 2)),
    (5, (4,)),
    (5, (2, 4)),
    (5, (2, 2, 1)),
    (7, (3,)),
    (7, (6,)),
    (7, (3, 2)),
    (13, (4, 3)),
]
DRAWS = 100


@pytest.fixture(scope="module")
def swept():
    """100 seeded draws per (p, orders) tuple with matrix and rank."""
    data = {}
    for p, orders in SWEEP_TUPLES:
        field = GF(p)
        base = 20240000 + p * 1009 + sum(d * 31**i for i, d in enumerate(orders))
        records = []
        for i in range(DRAWS):
            rng = random.Random(child_seed(base, i))
            spec = random_curve(field, orders, rng)
            inv = validate(spec)
            M = cartier_matrix(spec, "local")
            records.append((spec, inv, M, rank(M)))
        data[(p, orders)] = records
    return data


def test_criterion_1_theorem_reproduction(swept):
    """a_rank equals the closed-form value on every draw, exactly."""
    for (p, orders), records in swept.items():
        expected = theorem_a_value(p, orders)
        for spec, inv, M, r in records:
            assert inv.g - r == expected, (p, orders, spec)
    print(
        f"\nACCEPTANCE 1 PASS: a_rank = a_formula on {DRAWS} draws for each of "
        f"{len(SWEEP_TUPLES)} (p, orders) tuples, exact"
    )


def test_criterion_2_hand_verified_instance():
    """p=7, f=x^3: the 6x6 matrix has exactly the two known entries."""
    F = GF(7)
    spec = curve(7, [0, 0, 0, 1])
    forms = basis(spec)
    assert [f.label() for f in forms] == [
        "dx", "x dx", "y dx", "x y dx", "y^2 dx", "y^3 dx",
    ]
    for pipeline in ("rational", "local"):
        entries = cartier_matrix(spec, pipeline).entries
        nonzero = {
            (i, j): entries[i][j]
            for i in range(6)
            for j in range(6)
            if not entries[i][j].is_zero()
        }
        assert nonzero == {
            (forms.index(BasisForm(0, 0, 0)), forms.index(BasisForm(0, 0, 2))): F(1),
            (forms.index(BasisForm(0, 0, 1)), forms.index(BasisForm(0, 0, 3))): F(3),
        }
    rep = a_number(spec)
    assert (rep.g, rep.rank, rep.a_rank) == (6, 2, 4)
    assert rep.a_formula == (7 - 1) * 2 * 4 // 12 == 4 and rep.match
    print("\nACCEPTANCE 2 PASS: p=7, f=x^3 matrix, rank 2, g=6, a=4=formula")


def test_criterion_3_cartier_axiom_suite():
    """>= 1000 random rational h across GF(p^k), all four axioms, exact."""
    fields = [GF(3), GF(5), GF(7), GF(3, 2)]
    total = 0
    for field in fields:
        p = field.p
        rng = random.Random(3000 + field.order)
        for _ in range(250):
            h = random_split_ratfunc(field, rng, 2, 1, 2)
            g1 = random_split_ratfunc(field, rng, 3, 2, 2)
            g2 = random_split_ratfunc(field, rng, 3, 2, 2)
            assert cartier_rational(g1 + g2) == cartier_rational(g1) + cartier_rational(g2)
            assert cartier_rational(h**p * g1) == h * cartier_rational(g1)
            assert cartier_rational(h.derivative()).is_zero()
            if not h.is_zero():
                assert cartier_rational(h ** (p - 1) * h.derivative()) == h.derivative()
            total += 1
    assert total == 1000
    print(f"\nACCEPTANCE 3 PASS: operator axioms on {total} random h, exact")


def test_criterion_4_dual_pipeline_oracle():
    """The two reduction pipelines agree entrywise on >= 100 random specs."""
    pools = [
        (3, (2,), 1), (3, (2, 1), 1), (3, (2, 2), 1), (3, (2, 1), 2),
        (5, (4,), 1), (5, (2, 4), 1), (5, (2, 2, 1), 1), (5, (4, 2), 1),
        (7, (3,), 1), (7, (3, 2), 1), (7, (2, 1), 1), (7, (4, 1), 1),
    ]
    rng = random.Random(44)
    checked = 0
    while checked < 100:
        p, orders, k = pools[checked % len(pools)]
        spec = random_curve(GF(p, k), orders, rng)
        m_rat = cartier_matrix(spec, "rational")
        m_loc = cartier_matrix(spec, "local")
        assert m_rat.entries == m_loc.entries, spec
        checked += 1
    print(f"\nACCEPTANCE 4 PASS: pipelines identical on {checked} random specs")


def test_criterion_5_pivot_structure(swept):
    """Nonzero pivots, zeros left of each pivot, H carries the full rank."""
    specs_checked = 0
    for (p, orders), records in swept.items():
        for spec, inv, M, r in records:
            assert_pivot_structure(spec, M)
            specs_checked += 1
    print(
        f"\nACCEPTANCE 5 PASS: pivot lemmas and rank = #H on {specs_checked} swept specs"
    )


def test_criterion_6_p_rank(swept):
    """Stable twisted rank equals m(p-1); profile stationary by g factors."""
    for (p, orders), records in swept.items():
        for spec, inv, M, r in records:
            profile = twisted_rank_profile(M)  # g+1 factors
            assert all(a >= b for a, b in zip(profile, profile[1:]))
            assert profile[-1] == profile[-2]
            assert p_rank_stable(M) == inv.s == inv.m * (p - 1)
    print("\nACCEPTANCE 6 PASS: p-rank = m(p-1) with stationary profiles on all swept specs")


def test_criterion_7_genus_and_block_counts(swept):
    """|W| = D(p-1)/2 and per-block counts (d_j+eps_j)(p-1)/2, every spec."""
    for (p, orders), records in swept.items():
        for spec, inv, M, r in records:
            forms = basis(spec)
            assert len(forms) == inv.g == inv.D * (p - 1) // 2
            for j, d in enumerate(inv.orders):
                block = [f for f in forms if f.j == j]
                assert len(block) == (d + inv.epsilon[j]) * (p - 1) // 2
    print("\nACCEPTANCE 7 PASS: basis sizes match genus and block formulas on all swept specs")


def test_criterion_8_zeta_desk_scale():
    """Known L-polynomials, shrink-equality, counts re-derived to s = 2g."""
    # y^3 - y = x^2
    spec1 = curve(3, [0, 0, 1])
    L1 = l_polynomial(spec1)
    assert L1.coeffs == (1, 0, 3)
    np1 = newton_polygon(L1, 3)
    assert np1.slopes == ((Fraction(1, 2), 2),)
    hp1 = hodge_polygon([2])
    assert hp1.slopes == ((Fraction(1, 2), 1),)
    assert compare_polygons(np1, hp1, 3) == "equal"
    for s in (1, 2):
        assert L1.predicted_counts(s)[-1] == count_points(spec1, s)

    # y^3 - y = x^2 + 1/(x-1): degree-6 L over F_3
    spec2 = curve(3, [0, 0, 1], [(1, [1])])
    g2 = validate(spec2).g
    L2 = l_polynomial(spec2)
    assert len(L2.coeffs) == 2 * g2 + 1 == 7
    np2 = newton_polygon(L2, 3)
    hp2 = hodge_polygon([2, 1])
    assert hp2.slopes == ((Fraction(0), 1), (Fraction(1, 2), 1), (Fraction(1), 1))
    assert compare_polygons(np2, hp2, 3) == "equal"
    for s in range(1, 2 * g2 + 1):
        assert L2.predicted_counts(s)[-1] == count_points(spec2, s)
    print(
        f"\nACCEPTANCE 8 PASS: L = {list(L1.coeffs)} and degree-6 L = {list(L2.coeffs)}, "
        "Newton shrink-equals Hodge, counts to s=2g re-derived"
    )


def test_criterion_9_constancy_sweep():
    """cmd_sweep reports exactly one a-number equal to the closed form."""
    for config in (
        SweepConfig(p=7, field_degree=1, orders=(3,), samples=100, seed=900),
        SweepConfig(p=3, field_degree=2, orders=(2, 1), samples=100, seed=901),
    ):
        report = run_sweep(config)
        assert report.passed is True
        assert len(report.distinct_a) == 1
        assert report.distinct_a[0] == report.theorem_value
        assert len(report.samples) == 100
    print("\nACCEPTANCE 9 PASS: sweeps report a single a-number equal to the formula")


def test_criterion_10_monomial_remark():
    """h_b formula vs matrix rank: p=3 d=4 gives 3; p=7 d=3 gives 4."""
    assert a_monomial_remark(3, 4) == 3
    rep34 = a_number(curve(3, [0, 0, 0, 0, 1]))
    assert rep34.a_rank == 3

    assert a_monomial_remark(7, 3) == 4
    assert theorem_a_value(7, (3,)) == 4
    rep73 = a_number(curve(7, [0, 0, 0, 1]))
    assert rep73.a_rank == 4
    print("\nACCEPTANCE 10 PASS: monomial h_b formula = rank = 3 (p=3,d=4); = theorem = 4 (p=7,d=3)")
