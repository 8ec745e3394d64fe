"""Normal form validation, invariants, basis enumeration, H/A partition."""

import random

import pytest

from ascart import GF, CurveSpec, PoleDatum, basis, kappa, partition_HA, validate
from ascart.curve import BasisForm, embed_curve, order_key, ordered_basis
from ascart.errors import (
    ConditionNotSatisfied,
    DuplicatePoleLocation,
    FieldTooSmall,
    MissingInfinitePole,
    PoleOrderDivisibleByP,
    ZeroLeadingCoefficient,
)
from ascart.invariants import theorem_a_value
from ascart.ratfunc import Poly, RatFunc
from ascart.sweep import random_curve

from conftest import PARTITION_MAX_P, admissible_families, curve, random_specs
from naive_local import f_partial_fraction


class TestValidate:
    def test_monomial_cubic(self):
        inv = validate(curve(7, [0, 0, 0, 1]))
        assert (inv.m, inv.D, inv.L, inv.g, inv.s) == (0, 2, 3, 6, 0)
        assert inv.theorem_applicable  # 7 = 1 mod 3
        assert inv.gamma == (2,)
        assert inv.epsilon == (-1,)

    def test_two_poles(self):
        inv = validate(curve(3, [0, 0, 1], [(1, [1])]))
        assert (inv.m, inv.D, inv.L, inv.g, inv.s) == (1, 3, 2, 3, 2)
        assert inv.theorem_applicable
        assert inv.gamma == (1, 2)
        assert inv.epsilon == (-1, 1)

    def test_pole_order_divisible_by_p(self):
        with pytest.raises(PoleOrderDivisibleByP):
            validate(curve(3, [0, 0, 0, 1]))

    def test_not_applicable(self):
        inv = validate(curve(3, [0, 0, 0, 0, 1]))  # d=4, 3 != 1 mod 4
        assert not inv.theorem_applicable
        assert inv.gamma is None

    def test_duplicate_location(self):
        with pytest.raises(DuplicatePoleLocation):
            validate(curve(5, [0, 1], [(3, [1]), (3, [2])]))

    def test_duplicate_infinity(self):
        F = GF(5)
        spec = CurveSpec(
            F, (PoleDatum.at_infinity(F, [0, 1]), PoleDatum.at_infinity(F, [0, 1]))
        )
        with pytest.raises(DuplicatePoleLocation):
            validate(spec)

    def test_missing_infinite_pole(self):
        F = GF(5)
        spec = CurveSpec(F, (PoleDatum.finite(F, 1, [1]),))
        with pytest.raises(MissingInfinitePole):
            validate(spec)
        with pytest.raises(MissingInfinitePole):
            validate(CurveSpec(F, ()))

    def test_constant_f0_is_not_a_pole(self):
        with pytest.raises(MissingInfinitePole):
            validate(curve(5, [2]))

    def test_zero_leading(self):
        with pytest.raises(ZeroLeadingCoefficient):
            validate(curve(5, [1, 1, 0]))
        with pytest.raises(ZeroLeadingCoefficient):
            validate(curve(5, [0, 1], [(1, [1, 0])]))

    def test_constant_term_of_f0_retained(self):
        spec = curve(3, [2, 0, 1])
        inv = validate(spec)
        assert inv.g == 1
        assert f_partial_fraction(spec).assemble().num.coeff(0) == GF(3)(2)


class TestFromRational:
    def test_round_trip(self):
        spec = curve(3, [1, 0, 1], [(1, [1]), (2, [0, 2])])
        f = f_partial_fraction(spec).assemble()
        rebuilt = CurveSpec.from_rational(GF(3), f)
        assert f_partial_fraction(rebuilt).assemble() == f
        assert validate(rebuilt) == validate(spec)

    def test_no_infinite_pole_hint(self):
        F = GF(5)
        f = RatFunc(Poly.constant(F, 1), Poly.x(F))
        with pytest.raises(MissingInfinitePole):
            CurveSpec.from_rational(F, f)


class TestBasis:
    def test_monomial_cubic_ordered(self):
        forms = basis(curve(7, [0, 0, 0, 1]))
        assert [f.label() for f in forms] == [
            "dx", "x dx", "y dx", "x y dx", "y^2 dx", "y^3 dx",
        ]

    def test_two_pole_basis(self):
        forms = basis(curve(3, [0, 0, 1], [(1, [1])]))
        assert forms == [BasisForm(0, 0, 0), BasisForm(1, 1, 0), BasisForm(1, 1, 1)]

    def test_degree_one_is_empty(self):
        for p in (3, 5, 7):
            assert basis(curve(p, [0, 1])) == []

    @pytest.mark.parametrize(
        "p,orders,seed", [(3, (2, 1), 1), (5, (4,), 2), (7, (3, 2), 3), (5, (2, 2, 1), 4)]
    )
    def test_block_counts_and_total(self, p, orders, seed):
        for spec in random_specs(p, orders, 10, seed):
            inv = validate(spec)
            forms = basis(spec)
            for j, (d, eps) in enumerate(zip(inv.orders, inv.epsilon)):
                assert sum(1 for f in forms if f.j == j) == (d + eps) * (p - 1) // 2
            assert len(forms) == inv.g == inv.D * (p - 1) // 2

    def test_triangle_description_when_applicable(self):
        # under p = 1 mod L the blocks fill closed lattice triangles
        for p, orders, seed in [(3, (2, 1), 5), (5, (4,), 6), (7, (3, 2), 7), (13, (4, 3), 8)]:
            for spec in random_specs(p, orders, 3, seed):
                inv = validate(spec)
                assert inv.theorem_applicable
                forms = basis(spec)
                for j, (eps, gamma) in enumerate(zip(inv.epsilon, inv.gamma)):
                    triangle = {
                        (b, r)
                        for b in range((1 + eps) // 2, p + max(inv.orders))
                        for r in range(p)
                        if r <= (p - 2 + eps * gamma) - gamma * b
                    }
                    assert {(f.b, f.r) for f in forms if f.j == j} == triangle


class TestOrdering:
    def test_r_dominates(self):
        assert order_key(BasisForm(0, 1, 0)) < order_key(BasisForm(0, 0, 1))

    def test_pole_index_breaks_ties(self):
        assert order_key(BasisForm(0, 0, 2)) < order_key(BasisForm(1, 1, 2))

    def test_equal(self):
        assert order_key(BasisForm(1, 2, 3)) == (3, 1, 2)

    def test_total_order_properties(self, rng):
        forms = [
            BasisForm(rng.randrange(3), rng.randrange(4), rng.randrange(4))
            for _ in range(60)
        ]
        # distinct forms never tie, so sorting by the key orders them totally
        for a in forms[:20]:
            for b in forms[:20]:
                assert (order_key(a) == order_key(b)) == (a == b)

    def test_sorted_by_key(self):
        forms = basis(curve(7, [0, 0, 0, 1]))
        assert forms == sorted(forms, key=order_key)


class TestPartition:
    def test_monomial_cubic(self):
        H, A = partition_HA(7, (3,))
        assert H == {BasisForm(0, 0, 2), BasisForm(0, 0, 3)}
        assert len(A) == 4
        assert H | A == set(basis(curve(7, [0, 0, 0, 1])))
        assert not H & A

    def test_single_even_pole(self):
        H, A = partition_HA(3, (2,))
        assert H == set()
        assert A == {BasisForm(0, 0, 0)}

    def test_two_poles(self):
        H, A = partition_HA(3, [2, 1])
        assert H == {BasisForm(1, 1, 0), BasisForm(1, 1, 1)}
        assert A == {BasisForm(0, 0, 0)}

    def test_condition_not_satisfied(self):
        with pytest.raises(ConditionNotSatisfied, match="not 1 mod L = 4"):
            partition_HA(3, (4,))

    @pytest.mark.parametrize("p,orders,seed", [(5, (2, 4), 11), (7, (6,), 12), (13, (4, 3), 13)])
    def test_block_A_sizes_match_formula(self, p, orders, seed):
        # #A_j equals the closed-form a_j value on the orders of random curves
        for spec in random_specs(p, orders, 5, seed):
            inv = validate(spec)
            H, A = partition_HA(p, inv.orders)
            assert H | A == set(basis(spec)) and not H & A
            for j, d in enumerate(inv.orders):
                assert sum(1 for f in A if f.j == j) == theorem_a_value(p, [d])

    def test_pivot_structure_every_admissible_family(self):
        """Over every admissible family: H and A split the basis, #A_j is the
        closed-form a_j, and kappa maps H one to one into the basis, never to
        a form after its source."""
        families = 0
        for p, orders in admissible_families(PARTITION_MAX_P, 3):
            forms = ordered_basis(p, orders)
            H, A = partition_HA(p, orders)
            assert H | A == set(forms) and not H & A, (p, orders)
            for j, d in enumerate(orders):
                assert sum(1 for f in A if f.j == j) == theorem_a_value(p, [d]), (p, orders)
            targets = {kappa(p, orders, w): w for w in H}
            assert len(targets) == len(H) and set(targets) <= set(forms), (p, orders)
            assert all(order_key(t) <= order_key(w) for t, w in targets.items()), (p, orders)
            families += 1
        assert families == 979


class TestEmbedCurve:
    def test_invariants_preserved(self):
        spec = curve(3, [0, 0, 1], [(1, [1])])
        big = embed_curve(spec, GF(3, 2))
        assert validate(big) == validate(spec)
        assert big.field == GF(3, 2)


def test_random_curve_respects_orders():
    field = GF(5)
    r = random.Random(99)
    for _ in range(20):
        spec = random_curve(field, (2, 2, 1), r)
        inv = validate(spec)
        assert inv.orders == (2, 2, 1)
        locs = [d.location for d in spec.poles[1:]]
        assert len(set(locs)) == 2


def test_random_curve_needs_room_for_its_poles():
    with pytest.raises(FieldTooSmall, match="fewer than 3 finite poles"):
        random_curve(GF(2), (1, 1, 1, 1), random.Random(0))
    assert validate(random_curve(GF(3), (1, 1, 1, 1), random.Random(0))).orders == (1, 1, 1, 1)
