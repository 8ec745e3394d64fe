"""Normal form validation, invariants, basis enumeration, H/A partition."""

import random

import pytest

from ascart import GF, CurveSpec, PoleDatum, basis, partition_HA, validate
from ascart.curve import (
    BasisForm,
    basis_blocks,
    embed_curve,
    order_key,
)
from ascart.errors import (
    ConditionNotSatisfied,
    DuplicatePoleLocation,
    FieldTooSmall,
    MissingInfinitePole,
    PoleOrderDivisibleByP,
    ZeroLeadingCoefficient,
)
from ascart.ratfunc import Poly, RatFunc
from ascart.sweep import random_curve

from conftest import curve, random_specs
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
            blocks = basis_blocks(spec)
            for j, block in enumerate(blocks):
                d, eps = inv.orders[j], inv.epsilon[j]
                assert len(block) == (d + eps) * (p - 1) // 2
            assert len(basis(spec)) == inv.g == inv.D * (p - 1) // 2

    def test_triangle_description_when_applicable(self):
        # under p = 1 mod L the blocks fill closed lattice triangles
        for p, orders, seed in [(3, (2, 1), 5), (5, (4,), 6), (7, (3, 2), 7), (13, (4, 3), 8)]:
            for spec in random_specs(p, orders, 3, seed):
                inv = validate(spec)
                assert inv.theorem_applicable
                for j, block in enumerate(basis_blocks(spec)):
                    eps, gamma = inv.epsilon[j], inv.gamma[j]
                    triangle = {
                        (b, r)
                        for b in range((1 + eps) // 2, p + max(inv.orders))
                        for r in range(p)
                        if r <= (p - 2 + eps * gamma) - gamma * b
                    }
                    assert {(f.b, f.r) for f in block} == triangle


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
        spec = curve(7, [0, 0, 0, 1])
        H, A = partition_HA(spec)
        assert H == {BasisForm(0, 0, 2), BasisForm(0, 0, 3)}
        assert len(A) == 4
        assert H | A == set(basis(spec))
        assert not H & A

    def test_single_even_pole(self):
        H, A = partition_HA(curve(3, [0, 0, 1]))
        assert H == set()
        assert A == {BasisForm(0, 0, 0)}

    def test_two_poles(self):
        H, A = partition_HA(curve(3, [0, 0, 1], [(1, [1])]))
        assert H == {BasisForm(1, 1, 0), BasisForm(1, 1, 1)}
        assert A == {BasisForm(0, 0, 0)}

    def test_condition_not_satisfied(self):
        with pytest.raises(ConditionNotSatisfied):
            partition_HA(curve(3, [0, 0, 0, 0, 1]))

    @pytest.mark.parametrize("p,orders,seed", [(5, (2, 4), 11), (7, (6,), 12), (13, (4, 3), 13)])
    def test_block_A_sizes_match_formula(self, p, orders, seed):
        # #A_j equals the closed-form a_j value
        from ascart.invariants import theorem_a_value

        for spec in random_specs(p, orders, 5, seed):
            inv = validate(spec)
            H, A = partition_HA(spec)
            for j, d in enumerate(inv.orders):
                a_j = theorem_a_value(p, [d])
                assert sum(1 for f in A if f.j == j) == a_j


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
