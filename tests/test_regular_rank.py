"""Rank and p-rank over GF(p^k) through the regular representation.

The reference is tests/naive_rank.py: elimination on field elements with an
entrywise pth_root twist, sharing no code with ascart.invariants.
"""

import dataclasses
import inspect
import itertools
import math
import random
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ascart import GF, cartier_matrix, p_rank_stable, rank, twisted_rank_profile, validate
from ascart import cartier, invariants
from ascart.cartier import CartierMatrix
from ascart.cli import main
from ascart.curve import BasisForm
from ascart.finite_field import _MAX_FIELD_SIZE, Field, is_prime
from ascart.sweep import SweepConfig, random_curve, run_sweep

from conftest import curve, matrix_from_rows
from naive_rank import echelon_elements, naive_rank, naive_twisted_rank_profile

FIELDS = [(5, 2), (3, 2), (3, 3), (2, 3), (7, 2), (3, 7), (13, 1), (2, 2), (2, 4)]


def digits(c):
    return np.array(c.digits)


def rho(c):
    """The GF(p) matrix of x -> c * x on digit columns, from the field's
    multiplication table."""
    return np.tensordot(digits(c), c.field.multiplication, axes=(0, 0)).T % c.field.p


def block(c):
    """_prime_matrix of the 1 x 1 matrix (c)."""
    M = CartierMatrix(c.field, (BasisForm(0, 0, 0),), digits(c).reshape(1, 1, -1))
    return invariants._prime_matrix(M)


def genus(p, orders):
    return (sum(d + 1 for d in orders) - 2) * (p - 1) // 2


def assert_matches_naive(M):
    g = M.dimension
    assert rank(M) == naive_rank(M)
    profile = naive_twisted_rank_profile(M, g + 1)
    assert twisted_rank_profile(M) == profile
    assert p_rank_stable(M) == (profile[-1] if g else 0)


def record_calls(monkeypatch, *names):
    """For each named function of invariants, the shape of the first
    argument of every call (the argument itself when it has no shape)."""
    calls = {name: [] for name in names}
    for name, shapes in calls.items():
        real = getattr(invariants, name)

        def recording(first, *args, shapes=shapes, real=real):
            shapes.append(getattr(first, "shape", first))
            return real(first, *args)

        monkeypatch.setattr(invariants, name, recording)
    return calls


def reversed_order(M):
    """M in its basis taken backwards: J M J for the reversal J, a
    permutation similarity that commutes with I (x) Phi, so every twisted
    rank, and the p-rank, stays.  A pipeline matrix becomes lower
    triangular, so its p-rank takes the twisted chain."""
    return CartierMatrix(M.field, M.basis, M.digits[::-1, ::-1])


def random_matrix(field, g, r, rng):
    """A g x g matrix of rank at most r: a g x r times an r x g product."""
    U = [[field.random_element(rng) for _ in range(r)] for _ in range(g)]
    W = [[field.random_element(rng) for _ in range(g)] for _ in range(r)]
    rows = tuple(
        tuple(sum((U[i][l] * W[l][j] for l in range(r)), field.zero) for j in range(g))
        for i in range(g)
    )
    return matrix_from_rows(field, [BasisForm(0, i, 0) for i in range(g)], rows)


class TestRegularRepresentation:
    """_prime_matrix against field arithmetic: block (i, j) is the matrix of
    x -> M_ij * pth_root(x), rho(M_ij) Phi for rho(c) the multiplication by c
    and Phi the pth_root, both on digit columns."""

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_multiplication_and_twist(self, p, k):
        F = GF(p, k)
        Phi = F.pth_root_matrix.T
        assert F.multiplication.shape == (k, k, k) and Phi.shape == (k, k)
        r = random.Random(p * 100 + k)
        for _ in range(10):
            a, b = F.random_element(r), F.random_element(r)
            assert (block(a) @ digits(b) % p == digits(a * b.pth_root())).all()
            assert (block(a) == rho(a) @ Phi % p).all()
            assert (rho(a) @ digits(b) % p == digits(a * b)).all()
            assert (rho(a) @ rho(b) % p == rho(a * b)).all()
            assert (Phi @ digits(a) % p == digits(a.pth_root())).all()
            assert (Phi @ rho(a) % p == rho(a.pth_root()) @ Phi % p).all()
        assert (np.linalg.matrix_power(Phi, k) % p == np.eye(k, dtype=np.int64)).all()
        M = random_matrix(F, 3, 2, r)
        general = np.block([[block(c) for c in row] for row in M.entries])
        assert (invariants._prime_matrix(M) == general).all()

    def test_prime_field_is_trivial(self):
        F = GF(13)
        assert F.multiplication.tolist() == [[[1]]] and F.pth_root_matrix.tolist() == [[1]]
        assert block(F(5)).tolist() == [[5]]

    @pytest.mark.parametrize("p", [2, 13, 101])
    def test_prime_matrix_reshape_matches_general_route(self, p):
        """_prime_matrix's k = 1 shortcut is rho(M) (I (x) Phi) built block by
        block from the tables of GF(p)."""
        F = GF(p)
        Phi = F.pth_root_matrix.T
        M = random_matrix(F, 6, 4, random.Random(p))
        general = np.block([[rho(c) @ Phi % p for c in row] for row in M.entries])
        assert (invariants._prime_matrix(M) == general).all()

    def test_cached_and_read_only(self):
        """_prime_matrix reads tables each field builds once: GF gives one
        field per (p, k), and its tables cannot be written."""
        F = GF(3, 2)
        assert GF(3, 2) is F
        for table in (F.multiplication, F.pth_root_matrix):
            with pytest.raises(ValueError):
                table[0, 0] = 2


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
            assert_matches_naive(M)
            assert p_rank_stable(M) == validate(spec).s

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_random_matrices(self, p, k):
        # matrices the Cartier operator does not produce: any rank, any profile
        F = GF(p, k)
        r = random.Random(2000 * p + k)
        for g in (1, 2, 5):
            for target in range(g + 1):
                assert_matches_naive(random_matrix(F, g, target, r))

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
        assert_matches_naive(M)
        inv = validate(spec)
        assert p_rank_stable(M) == inv.s == inv.m * (p - 1)


def reference_rank(rows, p):
    F = GF(p)
    return len(echelon_elements([[F(int(v)) for v in row] for row in rows]))


def check_echelon(rows, p):
    """_echelon_int against the element-wise reference: as many rows as the
    rank, inside the row space, and independent."""
    out = invariants._echelon_int(rows, p)
    r = reference_rank(rows, p)
    assert out.shape == (r, rows.shape[1])
    assert reference_rank(np.vstack([rows, out]), p) == r
    assert reference_rank(out, p) == r


class TestEchelonInt:
    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 13]),
        nrows=st.integers(0, 9),
        ncols=st.integers(0, 9),
        planted=st.integers(0, 9),
        copies=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, p, nrows, ncols, planted, copies, seed):
        # a product of n x r and r x m factors has rank at most r; copies of
        # its rows, shuffled in, keep the rank and test the row drop
        rng = np.random.default_rng(seed)
        r = min(planted, nrows, ncols)
        rows = rng.integers(0, p, (nrows, r)) @ rng.integers(0, p, (r, ncols)) % p
        if nrows:
            rows = np.vstack([rows, rows[rng.integers(0, nrows, copies)]])
        check_echelon(rng.permutation(rows), p)

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_edge_cases(self, p):
        rng = np.random.default_rng(p)
        row = rng.integers(1, p, (1, 6))
        for rows in (
            np.zeros((0, 5), dtype=np.int64),
            np.zeros((4, 0), dtype=np.int64),
            np.zeros((4, 5), dtype=np.int64),
            row,
            np.zeros((1, 6), dtype=np.int64),
            np.vstack([row, row, row * 2 % p, row]),
            np.eye(5, dtype=np.int64)[::-1],
            rng.integers(0, p, (7, 4)),
        ):
            check_echelon(rows, p)

    def test_input_untouched(self):
        rows = np.array([[1, 2, 0], [2, 4, 1], [0, 0, 1]])
        rows.setflags(write=False)
        invariants._echelon_int(rows, 5)
        assert rows.tolist() == [[1, 2, 0], [2, 4, 1], [0, 0, 1]]

    def test_rank_reads_a_view_of_the_digits_and_leaves_them(self):
        """At k = 1, _prime_matrix hands the elimination a read-only view of
        M.digits, no copy; the elimination leaves it as it was."""
        M = cartier_matrix(random_curve(GF(13), (4, 3), random.Random(3)))
        A = invariants._prime_matrix(M)
        assert np.shares_memory(A, M.digits) and not A.flags.writeable
        before = M.digits.copy()
        assert rank(M) == naive_rank(M)
        assert (M.digits == before).all()

    @pytest.mark.parametrize("p", [2, 5, 13])
    def test_rows_that_vanish_mid_elimination(self, p):
        """Rows that are zero only once earlier pivots reduce them, and zero
        rows from the start between nonzero ones: the walk skips each, and
        the rank and row space stay the reference's."""
        rng = np.random.default_rng(p)
        base = rng.integers(0, p, (4, 7))
        zero = np.zeros((1, 7), dtype=np.int64)
        for rows in (
            np.vstack([base, base]),  # duplicates
            np.vstack([base[:2], (base[0] + base[1]) % p, base[2:]]),  # a sum of two others
            np.vstack([base[0], (p - 1) * base[0] % p, zero, base[1]]),  # a multiple
            np.vstack([zero, base[0], zero, base[1], zero, (base[0] + 2 * base[1]) % p,
                       zero, base[2], zero]),
        ):
            check_echelon(rows, p)
            check_echelon(rows[::-1], p)


class TestSharedElimination:
    @pytest.mark.parametrize("p,k,orders,seed", [(7, 1, (3,), 1), (13, 1, (4, 3), 2),
                                                 (5, 2, (4, 2), 3), (3, 7, (2, 1), 4)])
    def test_rank_then_p_rank_eliminate_once(self, p, k, orders, seed, monkeypatch):
        """p = 1 mod L on these curves, so rank reads them off the pivot
        certificate, and p_rank_stable reads the upper triangular digits:
        neither builds A.  In the reversed basis the p-rank builds A once and
        runs the twisted chain: one elimination of A, gk x gk, then one of
        each product V_n A, gk columns wide, up to the first repeat of the
        rank s."""
        spec = random_curve(GF(p, k), orders, random.Random(seed))
        M = cartier_matrix(spec)
        gk, s = M.dimension * k, validate(spec).s
        profile = twisted_rank_profile(M)
        chain = profile[: profile.index(s) + 1]
        calls = record_calls(monkeypatch, "_prime_matrix", "_product_mod", "_echelon_int")
        assert rank(M) == naive_rank(M)
        assert p_rank_stable(M) == s
        assert calls == {"_prime_matrix": [], "_product_mod": [], "_echelon_int": []}
        R = reversed_order(M)
        assert p_rank_stable(R) == s
        assert calls["_prime_matrix"] == [R]
        assert calls["_product_mod"] == [(k * r, gk) for r in chain]
        assert calls["_echelon_int"] == [(gk, gk)] + calls["_product_mod"]

    def test_round_trip_through_elements_stays_out(self):
        """Walk the code of the rank and p-rank route, following every
        function of the invariants module it calls: the matrix enters only
        through M.digits, never through its FieldElement entries."""
        todo = [invariants._prime_matrix, invariants.rank, invariants._twisted_ranks,
                invariants.p_rank_stable]
        seen, names = set(), set()
        while todo:
            item = todo.pop()
            if item in seen:
                continue
            seen.add(item)
            codes = [item.__code__]
            while codes:
                code = codes.pop()
                names.update(code.co_names)
                codes.extend(c for c in code.co_consts if inspect.iscode(c))
                for name in code.co_names:
                    target = vars(invariants).get(name)
                    if inspect.isfunction(target) and target.__module__ == invariants.__name__:
                        todo.append(target)
        assert {"digits", "_echelon_int", "_product_mod"} <= names
        assert not names & {"entries", "digit_array"}

    @pytest.mark.parametrize("p,k,orders", [(13, 1, (4, 3)), (5, 2, (4, 2))])
    def test_sweep_builds_no_matrix_elements(self, p, k, orders, monkeypatch):
        """The local matrix hands over its digits, so a sweep (matrix, rank,
        p-rank) never turns them into FieldElements."""
        def refuse(self, digits):
            raise AssertionError("element_rows called on the sweep route")

        monkeypatch.setattr(Field, "element_rows", refuse)
        report = run_sweep(SweepConfig(p=p, field_degree=k, orders=orders, samples=3, seed=5))
        assert report.passed and len(report.samples) == 3

    @pytest.mark.parametrize("p,k,orders", [(13, 1, (4, 3)), (5, 2, (4, 2))])
    def test_sweep_hashes_no_matrix(self, p, k, orders, monkeypatch):
        """Nothing on the sweep route keys a cache by a CartierMatrix, so a
        sweep never hashes one."""
        def refuse(self):
            raise AssertionError("CartierMatrix hashed on the sweep route")

        monkeypatch.setattr(CartierMatrix, "__hash__", refuse)
        report = run_sweep(SweepConfig(p=p, field_degree=k, orders=orders, samples=3, seed=5))
        assert report.passed and len(report.samples) == 3

    def test_threads_match_serial(self):
        """Four threads, each on matrices of its own over GF(13) and GF(5^2):
        switching threads every microsecond interleaves their rank and
        p-rank calls."""
        cases = [(GF(13), (4, 3)), (GF(5, 2), (4, 2))]
        specs = [[random_curve(F, orders, random.Random(10 * t + i))
                  for i, (F, orders) in enumerate(cases)] for t in range(4)]
        mats = [[cartier_matrix(spec) for spec in row] for row in specs]
        serial = [[(rank(M), p_rank_stable(M)) for M in row] for row in mats]
        assert serial == [[(naive_rank(M), validate(spec).s) for M, spec in zip(row, spec_row)]
                          for row, spec_row in zip(mats, specs)]
        rounds = 10
        results, errors = {}, []

        def work(t):
            try:
                results[t] = [[(rank(M), p_rank_stable(M)) for M in mats[t]]
                              for _ in range(rounds)]
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not [thread for thread in threads if thread.is_alive()]
        assert not errors
        assert results == {t: [serial[t]] * rounds for t in range(4)}


# (p, k, orders) with k <= 3 and genus at most 42, on both sides of p = 1 mod L
CERTIFIED = [(13, 1, (4, 3)), (5, 2, (4, 2)), (3, 3, (2, 1)), (7, 1, (3, 2)), (7, 2, (3,)),
             (5, 3, (2, 1, 1))]
UNCERTIFIED = [(5, 2, (3,)), (7, 1, (4, 1)), (5, 1, (3, 2)), (3, 3, (4,)), (2, 3, (3,)),
               (11, 1, (3,))]


class TestPivotCertificate:
    @staticmethod
    def eliminations(M):
        """rank(M), checked against the reference, and how many times it
        eliminated."""
        with mock.patch.object(invariants, "_echelon_int", wraps=invariants._echelon_int) as spy:
            r = rank(M)
        assert r == naive_rank(M)
        return spy.call_count

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(CERTIFIED + UNCERTIFIED),
           pipeline=st.sampled_from(cartier.PIPELINES),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_certified_rank_matches_elimination(self, case, pipeline, seed, data):
        """A curve with p = 1 mod L passes its basis's certificate, so rank
        eliminates nothing; every other curve, and every copy of a certified
        matrix broken at one digit the certificate reads, takes the
        elimination.  All of them match the reference rank."""
        p, k, orders = case
        M = cartier_matrix(random_curve(GF(p, k), orders, random.Random(seed)), pipeline)
        certificate = invariants._certificate(p, M.basis)
        if case in UNCERTIFIED:
            assert certificate is None
            assert self.eliminations(M) == 1
            return
        assert self.eliminations(M) == 0
        rows, cols = certificate.rows, certificate.cols
        outside = np.argwhere(~certificate.cover_rows[:, None] & ~certificate.cover_cols)
        nonzero = st.integers(1, p**k - 1).map(lambda n: [n // p**i % p for i in range(k)])
        broken = []
        i = data.draw(st.integers(0, len(cols) - 1))
        broken.append(((rows[i], cols[i]), [0] * k))  # a pivot set to zero
        if len(cols) > 1:  # a nonzero digit below the block's diagonal
            j = data.draw(st.integers(0, len(cols) - 2))
            i = data.draw(st.integers(j + 1, len(cols) - 1))
            broken.append(((rows[i], cols[j]), data.draw(nonzero)))
        if len(outside):  # a nonzero digit outside the cover
            broken.append((tuple(outside[data.draw(st.integers(0, len(outside) - 1))]),
                           data.draw(nonzero)))
        for (row, col), entry in broken:
            digits = M.digits.copy()
            digits[row, col] = entry
            assert self.eliminations(dataclasses.replace(M, digits=digits)) == 1

    @pytest.mark.parametrize("case,calls", [((13, 1, (4, 3)), 0), ((7, 2, (3,)), 0),
                                            ((7, 1, (4, 1)), 1), ((5, 2, (3,)), 1)])
    def test_only_uncertified_curves_eliminate(self, case, calls):
        p, k, orders = case
        M = cartier_matrix(random_curve(GF(p, k), orders, random.Random(7)))
        assert self.eliminations(M) == calls

    def test_basis_of_no_family_eliminates(self):
        """A basis that is no ordered_basis, here that of y^7 - y = x^3 less
        its last form, has no certificate."""
        M = cartier_matrix(curve(7, [0, 0, 0, 1]))
        g = M.dimension - 1
        N = CartierMatrix(M.field, M.basis[:g], M.digits[:g, :g])
        assert invariants._certificate(7, N.basis) is None
        assert self.eliminations(N) == 1


class TestTriangularPRank:
    # the cases of TestPivotCertificate up to genus 12, where the reference
    # profile is quick; the genus 42 curve is in TestFittingStop
    CASES = [case for case in CERTIFIED + UNCERTIFIED if genus(case[0], case[2]) <= 12]

    @staticmethod
    def route(M):
        """p_rank_stable(M), checked against the last entry of the reference
        profile, and how many times it built A, multiplied and eliminated."""
        spies = [mock.patch.object(invariants, name, wraps=getattr(invariants, name))
                 for name in ("_prime_matrix", "_product_mod", "_echelon_int")]
        with spies[0] as built, spies[1] as products, spies[2] as eliminations:
            s = p_rank_stable(M)
        assert s == naive_twisted_rank_profile(M, M.dimension + 1)[-1]
        return s, built.call_count, products.call_count, eliminations.call_count

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(CASES), pipeline=st.sampled_from(cartier.PIPELINES),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_pipeline_matrices_read_the_diagonal(self, case, pipeline, seed, data):
        """Every pipeline matrix is upper triangular, and its p-rank m(p-1)
        is read off the diagonal with no product.  A copy with one nonzero
        digit below the diagonal -- on the first subdiagonal, or anywhere --
        and the copy in the reversed basis take the twisted chain; a copy
        with one diagonal entry changed stays upper triangular and is read
        off its own diagonal.  All of them match the reference."""
        p, k, orders = case
        M = cartier_matrix(random_curve(GF(p, k), orders, random.Random(seed)), pipeline)
        g = M.dimension
        nonzero = M.digits.any(axis=2)
        assert not np.tril(nonzero, -1).any()
        assert self.route(M) == ((len(orders) - 1) * (p - 1), 0, 0, 0)
        # the reversed basis is lower triangular, unless M is diagonal
        general = int(np.triu(nonzero, 1).any())
        assert self.route(reversed_order(M))[1] == general
        digit = st.integers(1, p**k - 1).map(lambda n: [n // p**i % p for i in range(k)])
        i = data.draw(st.integers(0, g - 1))
        diagonal = M.digits.copy()
        diagonal[i, i] = [0] * k if nonzero[i, i] else data.draw(digit)
        assert self.route(dataclasses.replace(M, digits=diagonal))[1:] == (0, 0, 0)
        if g < 2:  # nothing lies below the diagonal
            return
        j = data.draw(st.integers(0, g - 2))
        below = [(j + 1, j)]
        j = data.draw(st.integers(0, g - 2))
        below.append((data.draw(st.integers(j + 1, g - 1)), j))
        for row, col in below:
            broken = M.digits.copy()
            broken[row, col] = data.draw(digit)
            assert self.route(dataclasses.replace(M, digits=broken))[1] == 1

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(CERTIFIED + UNCERTIFIED),
           pipeline=st.sampled_from(cartier.PIPELINES),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_permuted_pipeline_matrices_keep_the_p_rank(self, case, pipeline, seed, data):
        """P M P^T is M in its basis taken in a random order, the same
        operator: p_rank_stable, down the twisted chain unless P keeps M
        upper triangular, and the stable twisted rank both give m(p-1)."""
        p, k, orders = case
        M = cartier_matrix(random_curve(GF(p, k), orders, random.Random(seed)), pipeline)
        order = data.draw(st.permutations(range(M.dimension)))
        P = CartierMatrix(M.field, tuple(M.basis[i] for i in order),
                          M.digits[np.ix_(order, order)])
        s = (len(orders) - 1) * (p - 1)
        assert p_rank_stable(P) == twisted_rank_profile(P)[-1] == s


@pytest.mark.parametrize("g", [1, 2, 5, 42])
def test_strictly_lower_positions(g):
    """p_rank_stable's cached index of the entries below the diagonal: the
    flat positions np.tril marks, read-only and one array per g."""
    flat = invariants._strictly_lower(g)
    assert flat.tolist() == np.flatnonzero(np.tril(np.ones((g, g), dtype=bool), -1)).tolist()
    assert not flat.flags.writeable and invariants._strictly_lower(g) is flat


class TestFittingStop:
    def test_nilpotent_stops_after_the_first_zero_power(self, monkeypatch):
        # y^7 - y = x^3: g = 6, profile [2, 0, 0, ...].  Its matrix is upper
        # triangular with a zero diagonal, read with no product; in the
        # reversed basis the chain meets A^2 = 0 and stops at its repeat,
        # A^3: two products, the last of no rows, and three eliminations
        M = cartier_matrix(curve(7, [0, 0, 0, 1]))
        calls = record_calls(monkeypatch, "_product_mod", "_echelon_int")
        assert p_rank_stable(M) == 0
        assert calls == {"_product_mod": [], "_echelon_int": []}
        assert p_rank_stable(reversed_order(M)) == 0
        assert calls == {"_product_mod": [(2, 6), (0, 6)],
                         "_echelon_int": [(6, 6), (2, 6), (0, 6)]}

    def test_non_nilpotent_stops_at_the_first_repeat(self, monkeypatch):
        # y^13 - y over GF(13) with orders (4, 3): g = 42, s = 12, read off
        # the diagonal.  In the reversed basis the chain's ranks are 22, 15,
        # 12 and 12: three products and four eliminations
        spec = random_curve(GF(13), (4, 3), random.Random(1))
        M = cartier_matrix(spec)
        calls = record_calls(monkeypatch, "_product_mod", "_echelon_int")
        assert p_rank_stable(M) == validate(spec).s == 12
        assert calls == {"_product_mod": [], "_echelon_int": []}
        assert p_rank_stable(reversed_order(M)) == 12
        assert calls == {"_product_mod": [(22, 42), (15, 42), (12, 42)],
                         "_echelon_int": [(42, 42), (22, 42), (15, 42), (12, 42)]}

    def test_profile_keeps_its_explicit_count(self, monkeypatch):
        # ranks 2, 0, 0: the chain stops at the repeat, the third factor,
        # and the list is filled out to the five factors asked for
        M = cartier_matrix(curve(7, [0, 0, 0, 1]))
        calls = record_calls(monkeypatch, "_product_mod", "_echelon_int")
        assert twisted_rank_profile(M, 5) == [2, 0, 0, 0, 0]
        assert len(calls["_echelon_int"]) == 3
        assert len(calls["_product_mod"]) == 2

    def test_profile_stops_at_the_first_repeat(self, monkeypatch):
        """rank(A^n) = rank(A^(n+1)) makes every later rank the same
        (Fitting's lemma), so the default g+1 factors take one elimination
        per factor up to that repeat, and equal the whole chain."""
        spec = random_curve(GF(13), (4, 3), random.Random(1))
        M = cartier_matrix(spec)
        g = M.dimension
        chain = list(itertools.islice(invariants._twisted_ranks(M), g + 1))
        repeat = next(n for n in range(1, g + 1) if chain[n] == chain[n - 1])
        calls = record_calls(monkeypatch, "_echelon_int")
        assert twisted_rank_profile(M) == chain
        assert chain[-1] == validate(spec).s
        assert len(calls["_echelon_int"]) == repeat + 1 < g + 1


def residues(rng, shape, p, top):
    """Random residues mod p; with top, all within 3 of p - 1, where sums of
    products are largest."""
    if top:
        return (p - 1 - rng.integers(0, min(p, 4), shape)).astype(np.float64)
    return rng.integers(0, p, shape).astype(np.float64)


class TestProductMod:
    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from([2, 13, 1009, 9999991]),
        rows=st.integers(0, 4),
        inner=st.integers(0, 200),
        cols=st.integers(0, 4),
        top=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, p, rows, inner, cols, top, seed):
        # GF(9999991) takes 90 products a chunk, so inner > 90 crosses a
        # chunk boundary
        rng = np.random.default_rng(seed)
        X, Y = residues(rng, (rows, inner), p, top), residues(rng, (inner, cols), p, top)
        out = invariants._product_mod(X, Y, p)
        expect = X.astype(np.int64).astype(object) @ Y.astype(np.int64).astype(object) % p
        assert out.dtype == np.float64 and out.shape == (rows, cols)
        assert out.astype(np.int64).tolist() == expect.tolist()

    @pytest.mark.parametrize("inner", [90, 91, 180, 181, 200])
    def test_chunk_boundaries_at_large_residues(self, inner):
        # (p-2)^2 is odd, so from 91 terms on the unchunked sum passes 2^53
        # and is rounded
        p = 9999991
        X = np.full((2, inner), p - 2.0)
        assert invariants._product_mod(X, X.T, p).tolist() == [[4 * inner % p] * 2] * 2

    def test_stable_rank_across_a_chunk_boundary(self):
        """A dense g = 100 matrix over GF(9999991), M = U N U+ with U+ U = I,
        so M^n = U N^n U+ and its profile is that of the 8 x 8 matrix N:
        nilpotent blocks of sizes 3 and 2 and an invertible 3 x 3 block."""
        p, g = 9999991, 100
        F = GF(p)
        rng = np.random.default_rng(7)
        R = rng.integers(0, p, (g - 8, 8)).astype(object)
        X = rng.integers(0, p, (8, g - 8)).astype(object)
        U = np.vstack([np.eye(8, dtype=np.int64).astype(object), R])
        U_left = np.hstack([(np.eye(8, dtype=np.int64) - X @ R) % p, X])  # U_left @ U = I
        N = np.zeros((8, 8), dtype=np.int64).astype(object)
        N[0, 1] = N[1, 2] = N[3, 4] = 1
        N[5:, 5:] = rng.integers(0, p, (3, 3)) + np.eye(3, dtype=np.int64) * 17
        M_digits = (U @ N @ U_left % p).astype(np.int64).reshape(g, g, 1)
        M = CartierMatrix(F, tuple(BasisForm(0, i, 0) for i in range(g)), M_digits)
        assert (U_left @ U % p == np.eye(8, dtype=np.int64)).all()
        profile = naive_twisted_rank_profile(M, 4)
        assert profile[-2] == profile[-1]  # stationary, so stable
        assert p_rank_stable(M) == profile[-1] == 3 and profile[0] == rank(M) == 6

    def test_digit_cap_makes_every_product_one_chunk(self):
        """The digit cap bounds every product p_rank_stable takes: the inner
        dimension is gk, so a sum of products of residues is at most
        gk*(p-1)^2.  A curve of genus g >= 1 has g = D*(p-1)/2 with D >= 1,
        so p - 1 <= 2g and gk*(p-1)^2 <= 4*g^3*k; under the cap, g^2*k <= cap,
        g <= sqrt(cap) and 4*g^3*k <= 4*cap^(3/2) = 2^32, with the residue
        carried from a chunk still far below 2^53."""
        cap = cartier._MAX_DIGITS
        worst = (0,)
        for p in filter(is_prime, range(2, 2 * math.isqrt(cap) + 2)):
            for k in itertools.takewhile(lambda k: p**k <= _MAX_FIELD_SIZE, itertools.count(1)):
                g = math.isqrt(cap // k)  # the largest with g^2*k <= cap
                if 2 * g >= p - 1:
                    assert g * k * (p - 1) ** 2 <= 4 * g**3 * k
                    worst = max(worst, (4 * g**3 * k, p, k, g))
        # at the cap of 2^20: 2^32 at k = 1, g = 1024, first reached at p = 2
        assert worst[0] <= 2**32, f"4*g^3*k = {worst[0]:,} at (p, k, g) = {worst[1:]}"
        assert worst[0] + worst[1] < 2**53


@pytest.mark.parametrize("p", [2, 13, 1009, 9999991])
def test_reduce_mod_matches_integer_remainder(p):
    """Z - floor(Z/p)*p equals Z % p on the whole range 0 <= Z < 2^53,
    at its ends and at each side of multiples of p up to the largest."""
    top = (2**53 - 1) // p
    multiples = [m * p for m in (1, 2, top // 2, top)]
    Z = [0, 2**53 - 1, *multiples, *(z - 1 for z in multiples)]
    out = invariants._reduce_mod(np.array(Z, dtype=np.float64), p)
    assert out.astype(np.int64).tolist() == [z % p for z in Z]


class TestDivisibilityCheck:
    def drop_a_row(self, monkeypatch):
        real = invariants._echelon_int
        monkeypatch.setattr(invariants, "_echelon_int", lambda rows, p: real(rows, p)[1:])

    # y^5 - y = f of degree 3 over GF(25): p != 1 mod 3, so no pivot
    # certificate, and rank eliminates
    def test_rank_not_multiple_of_k(self, monkeypatch):
        M = cartier_matrix(random_curve(GF(5, 2), (3,), random.Random(5)))
        self.drop_a_row(monkeypatch)
        with pytest.raises(AssertionError, match="not a multiple of k = 2"):
            rank(M)

    def test_cli_exits_3(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "gf25_cubic.curve"
        path.write_text("p = 5\nfield_degree = 2\npole inf: 1 (0,1) 2 1\n")
        self.drop_a_row(monkeypatch)
        assert main(["anumber", str(path)]) == 3
        assert "internal error (AssertionError)" in capsys.readouterr().err
