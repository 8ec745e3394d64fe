"""Rank, a-number (both routes), p-rank via twisted products."""

import random

import pytest

from ascart import (
    GF,
    CurveSpec,
    PoleDatum,
    a_monomial_remark,
    a_number,
    cartier_matrix,
    p_rank_stable,
    partition_HA,
    rank,
    theorem_a_value,
    twisted_rank_profile,
    validate,
)
from ascart import invariants
from ascart.cartier import CartierMatrix
from ascart.curve import basis, ordered_basis
from ascart.errors import ConditionNotSatisfied, DNotCoprime
from ascart.sweep import random_curve

from conftest import PARTITION_MAX_P, admissible_families, curve, embed_curve, random_specs

F3 = GF(3)
F7 = GF(7)


def identity_matrix(field, g):
    rows = tuple(
        tuple(field.one if i == j else field.zero for j in range(g)) for i in range(g)
    )
    forms = tuple(basis(curve(7, [0, 0, 0, 1]))[:g])
    return CartierMatrix(field, forms, rows)


class TestRank:
    def test_zero_1x1(self):
        assert rank(cartier_matrix(curve(3, [0, 0, 1]))) == 0

    def test_cubic(self):
        assert rank(cartier_matrix(curve(7, [0, 0, 0, 1]))) == 2

    def test_identity(self):
        assert rank(identity_matrix(F7, 6)) == 6

    def test_empty(self):
        assert rank(cartier_matrix(curve(7, [0, 1]))) == 0

    def test_generic_path_matches_int_path(self):
        # same curve over GF(3) and pushed into GF(9): ranks agree, and the
        # GF(9) computation runs the generic elimination
        spec = curve(3, [0, 0, 1], [(1, [1])])
        big = embed_curve(spec, GF(3, 2))
        assert rank(cartier_matrix(big)) == rank(cartier_matrix(spec)) == 2


class TestANumber:
    def test_cubic(self):
        rep = a_number(curve(7, [0, 0, 0, 1]))
        assert (rep.g, rep.rank, rep.a_rank) == (6, 2, 4)
        assert rep.a_formula == 4 and rep.match

    def test_two_pole(self):
        rep = a_number(curve(3, [0, 0, 1], [(1, [1])]))
        assert (rep.g, rep.rank, rep.a_rank) == (3, 2, 1)
        assert rep.a_formula == 1 and rep.match

    def test_genus_zero(self):
        rep = a_number(curve(5, [0, 1]))
        assert (rep.g, rep.rank, rep.a_rank) == (0, 0, 0)
        assert rep.a_formula == 0 and rep.match

    def test_not_applicable_reports_rank_only(self):
        rep = a_number(curve(3, [0, 0, 0, 0, 1]))  # d=4, 3 != 1 mod 4
        assert rep.a_formula is None and rep.match is None
        assert rep.a_rank == rep.g - rep.rank

    def test_json(self):
        rep = a_number(curve(7, [0, 0, 0, 1]))
        assert rep.to_json() == {
            "genus": 6, "rank": 2, "a_rank": 4, "a_formula": 4, "match": True,
        }


class TestTheoremValue:
    @pytest.mark.parametrize(
        "p,orders,expected",
        [
            (3, (2,), 1),
            (3, (2, 1), 1),
            (3, (2, 2), 2),
            (5, (4,), 4),
            (5, (2, 4), 6),
            (5, (2, 2, 1), 4),
            (7, (3,), 4),
            (7, (6,), 9),
            (7, (3, 2), 7),
            (13, (4, 3), 20),
        ],
    )
    def test_closed_form(self, p, orders, expected):
        # (p-1)d/4 for even d, (p-1)(d-1)(d+1)/(4d) for odd d, summed
        assert theorem_a_value(p, orders) == expected

    def test_requires_divisibility(self):
        with pytest.raises(ConditionNotSatisfied):
            theorem_a_value(3, (4,))


class TestMonomialRemark:
    def test_p3_d4(self):
        # h = (2,1,0), ceilings (1,2,3): min-sum 2+1+0 = 3
        assert a_monomial_remark(3, 4) == 3

    def test_p3_d4_matches_rank(self):
        rep = a_number(curve(3, [0, 0, 0, 0, 1]))
        assert rep.a_rank == a_monomial_remark(3, 4) == 3

    def test_overlap_regime(self):
        assert a_monomial_remark(7, 3) == theorem_a_value(7, (3,)) == 4
        assert a_number(curve(7, [0, 0, 0, 1])).a_rank == 4

    def test_d_divisible_by_p(self):
        with pytest.raises(DNotCoprime):
            a_monomial_remark(3, 3)


class TestPRank:
    def test_nilpotent_cubic(self):
        M = cartier_matrix(curve(7, [0, 0, 0, 1]))
        profile = twisted_rank_profile(M)
        assert profile[0] == 2 and profile[1] == 0
        assert p_rank_stable(M) == 0

    def test_two_pole(self):
        spec = curve(3, [0, 0, 1], [(1, [1])])
        M = cartier_matrix(spec)
        assert p_rank_stable(M) == validate(spec).s == 2

    def test_zero_matrix(self):
        assert p_rank_stable(cartier_matrix(curve(3, [0, 0, 1]))) == 0

    def test_empty_matrix(self):
        assert p_rank_stable(cartier_matrix(curve(3, [0, 1]))) == 0

    @pytest.mark.parametrize(
        "p,orders,k,seed",
        [(3, (2, 1), 1, 51), (5, (2, 4), 1, 52), (7, (3, 2), 1, 53), (3, (2, 1), 2, 54)],
    )
    def test_deuring_shafarevich(self, p, orders, k, seed):
        for spec in random_specs(p, orders, 5, seed, k=k):
            inv = validate(spec)
            M = cartier_matrix(spec)
            profile = twisted_rank_profile(M)
            assert all(a >= b for a, b in zip(profile, profile[1:]))
            assert profile[-1] == profile[-2]  # stationary by g factors
            assert p_rank_stable(M) == inv.s == inv.m * (p - 1)


class TestInvarianceSweeps:
    def test_permuting_finite_poles(self):
        field = GF(5)
        spec = curve(5, [0, 0, 1], [(1, [1, 2]), (3, [2])])
        a0 = a_number(spec).a_rank
        swapped = CurveSpec(field, (spec.poles[0], spec.poles[2], spec.poles[1]))
        assert a_number(swapped).a_rank == a0

    def test_non_leading_coefficients_do_not_matter(self):
        # p = 1 mod L: redraw every non-leading coefficient, a is constant
        field = GF(5)
        r = random.Random(6001)
        base = random_curve(field, (2, 4), r)
        a0 = a_number(base).a_rank
        for _ in range(10):
            poles = []
            for datum in base.poles:
                coeffs = [field.random_element(r) for _ in range(len(datum.coeffs) - 1)]
                coeffs.append(datum.leading)
                poles.append(PoleDatum(datum.location, tuple(coeffs)))
            assert a_number(CurveSpec(field, tuple(poles))).a_rank == a0

    def test_moving_pole_locations(self):
        field = GF(7)
        r = random.Random(6002)
        base = random_curve(field, (3, 2), r)
        a0 = a_number(base).a_rank
        for n in range(field.order):
            loc = field.from_counter(n)
            poles = (base.poles[0], PoleDatum(loc, base.poles[1].coeffs))
            assert a_number(CurveSpec(field, poles)).a_rank == a0

    def test_rank_invariant_under_field_extension(self):
        spec = curve(3, [0, 0, 1], [(1, [1])])
        for k in (2, 3):
            big = embed_curve(spec, GF(3, k))
            assert rank(cartier_matrix(big)) == 2
            assert a_number(big).a_rank == 1


class TestStructuralProperties:
    @pytest.mark.parametrize(
        "p,orders,seed", [(3, (2, 2), 61), (5, (2, 2, 1), 62), (7, (6,), 63)]
    )
    def test_rank_equals_H_and_bounds(self, p, orders, seed):
        for spec in random_specs(p, orders, 5, seed):
            inv = validate(spec)
            M = cartier_matrix(spec)
            H, A = partition_HA(p, inv.orders)
            r = rank(M)
            assert r == len(H)
            a = inv.g - r
            assert a == len(A)
            s = p_rank_stable(M)
            assert 0 <= a + s <= inv.g

    def test_extension_field_curve_full_stack(self):
        # curve defined over GF(9) with a pole at the generator
        field = GF(3, 2)
        t = field.gen
        spec = CurveSpec(
            field,
            (
                PoleDatum.at_infinity(field, [field.one, t, field(2)]),
                PoleDatum.finite(field, t, [t + field.one]),
            ),
        )
        rep = a_number(spec)
        assert rep.match
        assert p_rank_stable(cartier_matrix(spec)) == validate(spec).s


def test_basis_orders_reads_back_every_admissible_family():
    """_basis_orders gives back the orders of every ordered basis with
    p = 1 mod L, and None for that basis with its first two forms swapped.
    Less its last form, a basis gives None unless what is left is itself
    an ordered basis: of orders (1,), genus 0, after a genus-1 basis, or
    of (1, 1) after (1, 1, 1) at p = 2."""
    truncated = set()
    for p, orders in admissible_families(PARTITION_MAX_P, 3):
        forms = ordered_basis(p, orders)
        assert invariants._basis_orders(p, forms) == orders
        if len(forms) >= 2:
            assert invariants._basis_orders(p, [forms[1], forms[0], *forms[2:]]) is None
        if forms:
            found = invariants._basis_orders(p, forms[:-1])
            if found is not None:
                assert ordered_basis(p, found) == forms[:-1]
                truncated.add((p, orders, found))
    assert truncated == {(2, (1, 1), (1,)), (3, (2,), (1,)), (2, (1, 1, 1), (1, 1))}
