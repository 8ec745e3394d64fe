"""Rank and p-rank over GF(p^k) through the regular representation.

The reference is tests/naive_rank.py: elimination on field elements with an
entrywise pth_root twist, sharing no code with ascart.invariants.
"""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ascart import GF, cartier_matrix, p_rank_stable, rank, twisted_rank_profile, validate
from ascart import invariants
from ascart.cartier import CartierMatrix
from ascart.cli import main
from ascart.curve import BasisForm
from ascart.invariants import rank_of_columns, regular_representation
from ascart.sweep import random_curve

from conftest import curve
from naive_rank import naive_rank, naive_rank_of_columns, naive_twisted_rank_profile

CURVES = Path(__file__).resolve().parent.parent / "curves"

FIELDS = [(5, 2), (3, 2), (3, 3), (2, 3), (7, 2), (3, 7), (13, 1), (2, 2), (2, 4)]


def rho(c):
    T, _ = regular_representation(c.field)
    return np.tensordot(np.array(c.digits), T, axes=(0, 0)) % c.field.p


def digits(c):
    return np.array(c.digits)


def genus(p, orders):
    return (sum(d + 1 for d in orders) - 2) * (p - 1) // 2


def assert_matches_naive(M, rng):
    g = M.dimension
    assert rank(M) == naive_rank(M)
    cols = rng.sample(range(g), rng.randint(0, g)) if g else []
    assert rank_of_columns(M, cols) == naive_rank_of_columns(M, cols)
    assert twisted_rank_profile(M) == naive_twisted_rank_profile(M, g + 1)


def random_matrix(field, g, r, rng):
    """A g x g matrix of rank at most r: a g x r times an r x g product."""
    U = [[field.random_element(rng) for _ in range(r)] for _ in range(g)]
    W = [[field.random_element(rng) for _ in range(g)] for _ in range(r)]
    rows = tuple(
        tuple(sum((U[i][l] * W[l][j] for l in range(r)), field.zero) for j in range(g))
        for i in range(g)
    )
    return CartierMatrix(field, tuple(BasisForm(0, i, 0) for i in range(g)), rows)


class TestRegularRepresentation:
    @pytest.mark.parametrize("p,k", FIELDS)
    def test_multiplication_and_twist(self, p, k):
        F = GF(p, k)
        T, Phi = regular_representation(F)
        assert T.shape == (k, k, k) and Phi.shape == (k, k)
        r = random.Random(p * 100 + k)
        for _ in range(10):
            a, b = F.random_element(r), F.random_element(r)
            assert (rho(a) @ digits(b) % p == digits(a * b)).all()
            assert (rho(a) @ rho(b) % p == rho(a * b)).all()
            assert (Phi @ digits(a) % p == digits(a.pth_root())).all()
            assert (Phi @ rho(a) % p == rho(a.pth_root()) @ Phi % p).all()
        assert (np.linalg.matrix_power(Phi, k) % p == np.eye(k, dtype=np.int64)).all()

    def test_prime_field_is_trivial(self):
        T, Phi = regular_representation(GF(13))
        assert T.tolist() == [[[1]]] and Phi.tolist() == [[1]]

    def test_cached_and_read_only(self):
        T, Phi = regular_representation(GF(3, 2))
        assert regular_representation(GF(3, 2))[0] is T
        with pytest.raises(ValueError):
            T[0, 0, 0] = 2
        with pytest.raises(ValueError):
            Phi[0, 0] = 2


class TestFieldDigitArrays:
    @pytest.mark.parametrize("p,k", FIELDS)
    def test_round_trip(self, p, k):
        F = GF(p, k)
        r = random.Random(p * 10 + k)
        elements = [F.random_element(r) for _ in range(10)] + [F.zero, F.one]
        arr = F.digit_array(elements)
        assert arr.dtype == np.int64 and arr.shape == (12, k)
        assert [tuple(row) for row in arr.tolist()] == [c.digits for c in elements]
        rows = F.element_rows(arr.reshape(3, 4, k))
        assert rows == tuple(tuple(elements[i : i + 4]) for i in range(0, 12, 4))
        assert F.digit_array([]).shape == (0, k)
        assert F.element_rows(np.zeros((0, 0, k), dtype=np.int64)) == ()

    def test_equal_digits_share_one_element(self):
        F = GF(3, 2)
        (a, b), (c, d) = F.element_rows(np.array([[[1, 2], [0, 0]], [[0, 0], [1, 2]]]))
        assert a is d and b is c and a == F((1, 2)) and b.is_zero()

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_tables(self, p, k):
        F = GF(p, k)
        t = F.gen if k > 1 else F.one
        assert F.reduction.tolist() == [list((t**i).digits) for i in range(2 * k - 1)]
        r = random.Random(p * 10 + k)
        for _ in range(10):
            a = F.random_element(r)
            assert (digits(a) @ F.pth_root_matrix % p == digits(a.pth_root())).all()
        for table in (F.reduction, F.pth_root_matrix):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1


class TestAgainstNaiveElimination:
    @pytest.mark.parametrize("p,k", FIELDS)
    def test_cartier_matrices(self, p, k):
        orders = {2: (3, 1), 3: (2, 1), 5: (4, 2), 7: (3, 2), 13: (4,)}[p]
        F = GF(p, k)
        r = random.Random(1000 * p + k)
        for _ in range(3):
            spec = random_curve(F, orders, r)
            M = cartier_matrix(spec)
            assert_matches_naive(M, r)
            assert p_rank_stable(M) == validate(spec).s

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_random_matrices(self, p, k):
        # matrices the Cartier operator does not produce: any rank, any profile
        F = GF(p, k)
        r = random.Random(2000 * p + k)
        for g in (1, 2, 5):
            for target in range(g + 1):
                assert_matches_naive(random_matrix(F, g, target, r), r)

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        k=st.integers(2, 4),
        raw_orders=st.lists(st.integers(1, 7), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, p, k, raw_orders, seed):
        orders = tuple(d for d in raw_orders if d % p)
        assume(orders and genus(p, orders) <= 15 and p**k <= 2401)
        r = random.Random(seed)
        spec = random_curve(GF(p, k), orders, r)
        M = cartier_matrix(spec)
        assert_matches_naive(M, r)
        inv = validate(spec)
        assert p_rank_stable(M) == inv.s == inv.m * (p - 1)


class TestFittingStop:
    def count_eliminations(self, monkeypatch):
        calls = []
        real = invariants._echelon_int

        def counting(rows, p):
            calls.append(rows.shape)
            return real(rows, p)

        monkeypatch.setattr(invariants, "_echelon_int", counting)
        return calls

    def test_stops_at_first_stationary_step(self, monkeypatch):
        # y^7 - y = x^3: g = 6, profile [2, 0, 0, ...]
        M = cartier_matrix(curve(7, [0, 0, 0, 1]))
        calls = self.count_eliminations(monkeypatch)
        assert p_rank_stable(M) == 0
        assert len(calls) == 3  # ranks of M, M^2, M^3; not g + 1 = 7

    def test_profile_keeps_its_explicit_count(self, monkeypatch):
        M = cartier_matrix(curve(7, [0, 0, 0, 1]))
        calls = self.count_eliminations(monkeypatch)
        assert twisted_rank_profile(M, 5) == [2, 0, 0, 0, 0]
        assert len(calls) == 5

    def test_never_stationary_is_internal(self, monkeypatch):
        M = random_matrix(GF(3, 2), 3, 3, random.Random(1))
        monkeypatch.setattr(invariants, "_twisted_ranks", lambda M: itertools.count(9, -1))
        with pytest.raises(AssertionError, match="not stationary"):
            p_rank_stable(M)


class TestDivisibilityCheck:
    def drop_a_row(self, monkeypatch):
        real = invariants._echelon_int
        monkeypatch.setattr(invariants, "_echelon_int", lambda rows, p: real(rows, p)[1:])

    def test_rank_not_multiple_of_k(self, monkeypatch):
        M = cartier_matrix(random_curve(GF(3, 2), (2, 1), random.Random(5)))
        self.drop_a_row(monkeypatch)
        with pytest.raises(AssertionError, match="not a multiple of k = 2"):
            rank(M)

    def test_cli_exits_3(self, monkeypatch, capsys):
        self.drop_a_row(monkeypatch)
        assert main(["anumber", str(CURVES / "p3_gf9_twopole.curve")]) == 3
        assert "internal error (AssertionError)" in capsys.readouterr().err
