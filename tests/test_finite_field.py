"""Field arithmetic, deterministic moduli, Frobenius structure."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascart import GF, Field, embedding, finite_field
from ascart.errors import AscartError, FieldTooLarge, NotPrime
from ascart.finite_field import is_prime
from naive_field import mul_mod, poly_rem, pow_mod


def brute_force_smallest_modulus(p, k):
    """Oracle: first monic degree-k poly with no monic divisor of degree
    1..k-1, scanning counter order; trial division only."""

    def divides(d, m):
        return not poly_rem(list(m), list(d), p)

    def all_monics(deg):
        for n in range(p**deg):
            digits, v = [], n
            for _ in range(deg):
                digits.append(v % p)
                v //= p
            yield digits + [1]

    for n in range(p**k):
        digits, v = [], n
        for _ in range(k):
            digits.append(v % p)
            v //= p
        m = digits + [1]
        if not any(
            divides(d, m) for deg in range(1, k) for d in all_monics(deg)
        ):
            return tuple(m)
    raise AssertionError


class TestModulusSelection:
    def test_prime_field_uses_t(self):
        assert GF(3).modulus == (0, 1)

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2), (2, 4), (2, 6), (3, 4)])
    def test_matches_exhaustive_oracle(self, p, k):
        assert Field(p, k).modulus == brute_force_smallest_modulus(p, k)

    @pytest.mark.parametrize(
        "p,k,modulus",
        [
            (2, 6, (0, 1, 0, 0, 0, 1, 1)),  # t (t^2+t+1) (t^3+t+1)
            (3, 6, (1, 0, 0, 1, 0, 1, 1)),  # (t+1) (t^2+1) (t^3+2t+1)
        ],
    )
    def test_reducible_modulus_rejected(self, p, k, modulus):
        # squarefree with factor degrees dividing k, so t^(p^k) = t holds and
        # only the unit condition on t^(p^(k/q)) - t can reject it
        t = (0, 1) + (0,) * (k - 2)
        assert pow_mod(t, p**k, modulus, p) == t
        with pytest.raises(ValueError, match="modulus is reducible"):
            Field(p, k, modulus)

    def test_frozen_examples(self):
        # oracle-derived: t^2+1 over GF(3), t^2+2 over GF(5)
        assert GF(3, 2).modulus == (1, 0, 1)
        assert GF(5, 2).modulus == (2, 0, 1)

    def test_deterministic(self):
        assert Field(3, 4).modulus == Field(3, 4).modulus
        assert Field(13, 2) == Field(13, 2)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            Field(6)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            Field(101, 4)

    def test_size_cap_before_primality(self):
        # trial division of a 19-digit prime, or forming 2**(10**9), would
        # take far longer than the cap check
        with pytest.raises(ValueError, match="cap"):
            Field(10**18 + 3)
        with pytest.raises(ValueError, match="cap"):
            Field(2, 10**9)

    def test_size_cap_is_an_ascart_error(self):
        # callers catching AscartError see the cap; ValueError catchers still do
        with pytest.raises(FieldTooLarge) as exc:
            Field(101, 4)
        assert isinstance(exc.value, AscartError) and isinstance(exc.value, ValueError)

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]


class TestArithmetic:
    def test_gf7_product(self):
        F = GF(7)
        assert F(3) * F(5) == F(1)

    def test_gf9_generator_square(self):
        F = GF(3, 2)
        assert F.gen * F.gen == F(2)  # t^2 = -1 = 2

    def test_additive_identity(self, rng):
        F = GF(5, 2)
        for _ in range(50):
            a = F.random_element(rng)
            assert a + F.zero == a

    def test_division(self):
        F = GF(7)
        assert F(3) / F(5) == F(3) * F(5).inverse()
        with pytest.raises(ZeroDivisionError):
            F(1) / F(0)
        with pytest.raises(ZeroDivisionError):
            F(0).inverse()

    def test_cross_field_rejected(self):
        with pytest.raises(ValueError):
            GF(3).one + GF(5).one

    def test_field_axioms_bulk(self):
        # >= 10^4 random triples across three fields
        for field in (GF(7), GF(3, 2), GF(5, 2)):
            r = random.Random(field.order)
            for _ in range(3500):
                a = field.random_element(r)
                b = field.random_element(r)
                c = field.random_element(r)
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + (-a) == field.zero
                if not b.is_zero():
                    assert (a / b) * b == a

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    def test_commutativity_gf9(self, da, db):
        F = GF(3, 2)
        a, b = F(list(da)), F(list(db))
        assert a + b == b + a
        assert a * b == b * a

    def test_pow(self):
        F = GF(3, 2)
        t = F.gen
        assert t**8 == F.one  # multiplicative order divides 8
        assert t**0 == F.one
        assert t**-1 == t.inverse()


@pytest.mark.parametrize("field", [GF(2), GF(13), GF(101), GF(3, 3), GF(2, 5), GF(3, 7)])
def test_kernel_matches_naive_reference(field):
    """Product, inverse, powers, trace and p-th root against tests/naive_field.py,
    on prime fields and extensions alike."""
    p, k, m, q = field.p, field.k, field.modulus, field.order
    one = (1,) + (0,) * (k - 1)
    r = random.Random(field.order)
    for _ in range(60):
        a = field.random_element(r, nonzero=True)
        b = field.random_element(r)
        assert (a * b).digits == mul_mod(a.digits, b.digits, m, p)
        assert mul_mod(a.digits, a.inverse().digits, m, p) == one
        for e in (0, 1, q - 2, 3 * q + 1):
            assert (a**e).digits == pow_mod(a.digits, e, m, p)
            assert a**-e == (a**e).inverse()
        conjugates = [pow_mod(a.digits, p**i, m, p) for i in range(k)]
        trace = tuple(sum(col) % p for col in zip(*conjugates))
        assert trace == (a.trace_to_prime(),) + (0,) * (k - 1)
        assert a.pth_root().digits == pow_mod(a.digits, p ** (k - 1), m, p)
    zero = field.zero
    assert zero**0 == field.one and zero**3 == zero
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        zero**-1


def test_mixing_fields():
    """Equal fields mix whether or not they are the same object; others raise."""
    twin = Field(3, 2)
    assert twin is not GF(3, 2)
    a, b = GF(3, 2)([1, 2]), twin([2, 2])
    assert a + b == GF(3, 2)([0, 1])
    assert a * b == a * GF(3, 2)([2, 2])
    with pytest.raises(ValueError):
        a + GF(3, 3)([1, 2])
    with pytest.raises(ValueError):
        a * GF(5, 2)([1, 2])


@pytest.mark.parametrize("p,k", [(3, 3), (2, 5), (5, 2), (3, 7)])
def test_inverse_matches_fermat(p, k):
    """Itoh-Tsujii and the GF(p) shortcut against a^(q-2) from tests/naive_field.py,
    on every element, or on the GF(p) constants and 197 samples of GF(3^7)."""
    field = GF(p, k)
    if field.order < 5000:
        elements = list(field.elements())
    else:
        r = random.Random(37)
        elements = [field(c) for c in range(p)]
        elements += [field.random_element(r) for _ in range(200 - p)]
    m = field.modulus
    for a in elements:
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        inv = a.inverse()
        assert inv.digits == pow_mod(a.digits, field.order - 2, m, p)
        assert a * inv == field.one


class TestFrobenius:
    def test_prime_field_identity(self):
        assert GF(3)(2).pth_root() == GF(3)(2)

    @pytest.mark.parametrize("p", [2, 13, 101])
    def test_prime_field_tables(self, p):
        """At k = 1 the kernel's reduction and Frobenius tables are the identity."""
        F = Field(p, 1)
        assert F.reduction.tolist() == [[1]] and F.pth_root_matrix.tolist() == [[1]]

    def test_gf9_example(self):
        F = GF(3, 2)
        t = F.gen
        r = t.pth_root()
        assert r == F([0, 2])  # 2t
        assert r**3 == t

    @pytest.mark.parametrize(
        "field",
        [GF(3), GF(13), GF(3, 2), GF(3, 4), GF(5, 2), GF(7, 2), GF(2, 5)],
    )
    def test_pth_root_exhaustive(self, field):
        p = field.p
        for a in field.elements():
            assert a.pth_root() ** p == a
            assert (a**p).pth_root() == a

    def test_trace_examples(self):
        assert GF(3)(1).trace_to_prime() == 1
        F = GF(3, 2)
        assert F.gen.trace_to_prime() == 0  # t + t^3 = t + 2t
        assert F.one.trace_to_prime() == 2

    @pytest.mark.parametrize("field", [GF(3, 2), GF(5, 2), GF(3, 3)])
    def test_trace_frobenius_invariant(self, field):
        for a in field.elements():
            assert (a**field.p).trace_to_prime() == a.trace_to_prime()

    def test_trace_additive(self, rng):
        F = GF(3, 3)
        for _ in range(100):
            a, b = F.random_element(rng), F.random_element(rng)
            assert (a + b).trace_to_prime() == (
                a.trace_to_prime() + b.trace_to_prime()
            ) % 3


class TestEnumerationAndSerialization:
    def test_counter_roundtrip(self):
        F = GF(3, 2)
        elems = list(F.elements())
        assert len(elems) == 9
        assert len(set(elems)) == 9
        for i, e in enumerate(elems):
            assert e.counter() == i
            assert F.from_counter(i) == e

    def test_json(self):
        F = GF(5, 2)
        assert F.to_json() == {"p": 5, "k": 2, "modulus": [2, 0, 1]}
        assert Field.from_json(F.to_json()) == F
        a = F([3, 4])
        assert list(a.digits) == [3, 4]
        assert F(list(a.digits)) == a

    def test_coercion(self):
        F = GF(7)
        assert F(-1) == F(6)
        assert F(10) == F(3)


class TestEmbedding:
    def test_prime_into_extension(self):
        phi = embedding(GF(3), GF(3, 2))
        assert phi(GF(3)(2)) == GF(3, 2)(2)

    def test_homomorphism(self, rng):
        src, dst = GF(3, 2), GF(3, 4)
        phi = embedding(src, dst)
        for _ in range(100):
            a, b = src.random_element(rng), src.random_element(rng)
            assert phi(a + b) == phi(a) + phi(b)
            assert phi(a * b) == phi(a) * phi(b)
        assert phi(src.one) == dst.one

    def test_generator_goes_to_first_root(self):
        src, dst = GF(3, 2), GF(3, 4)
        phi = embedding(src, dst)
        image = phi(src.gen)
        # image is a root of t^2 + 1, and no earlier element is one
        assert image * image + dst.one == dst.zero
        for x in dst.elements():
            if x == image:
                break
            assert not (x * x + dst.one).is_zero()

    def test_incompatible(self):
        with pytest.raises(ValueError):
            embedding(GF(3, 2), GF(3, 3))
        with pytest.raises(ValueError):
            embedding(GF(3), GF(5))

    @pytest.mark.parametrize(
        "p,k,s", [(2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 4, 2), (5, 2, 3), (13, 2, 2)]
    )
    def test_subfield_search_matches_full_scan(self, p, k, s):
        src, dst = GF(p, k), GF(p, k * s)
        assert embedding(src, dst)(src.gen) == first_root_by_full_scan(src, dst)


def first_root_by_full_scan(src, dst):
    """Oracle: the first element of dst, in counter order, that is a root of
    src's modulus."""
    mod_consts = [dst(c) for c in src.modulus]
    for x in dst.elements():
        acc = dst.zero
        for c in reversed(mod_consts):
            acc = acc * x + c
        if acc.is_zero():
            return x
    raise AssertionError("no root")


LOG_FIELDS = [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 1), (13, 2), (257, 1)]


class TestLogTables:
    @pytest.mark.parametrize("p,k", LOG_FIELDS)
    def test_primitive_has_full_order(self, p, k):
        F = GF(p, k)
        g = F.primitive()
        powers, x = set(), F.one
        for _ in range(F.order - 1):
            powers.add(x.counter())
            x = x * g
        assert x == F.one and len(powers) == F.order - 1
        # and no element with a smaller counter generates the group
        for c in range(1, g.counter()):
            h = F.from_counter(c)
            assert any(h ** ((F.order - 1) // r) == F.one for r in prime_factors(F.order - 1))

    @pytest.mark.parametrize("p,k", LOG_FIELDS)
    def test_tables_are_narrow_and_read_only(self, p, k):
        tables = GF(p, k).log_tables()
        for table in tables:
            assert table.dtype.kind in "iu" and table.dtype.itemsize <= 4
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
        assert tables.trace.dtype.itemsize == (1 if p <= 256 else 2)

    @pytest.mark.parametrize("p,k", LOG_FIELDS)
    def test_antilog_and_log_are_inverse_permutations(self, p, k):
        F = GF(p, k)
        tables, n = F.log_tables(), F.order - 1
        assert sorted(tables.antilog.tolist()) == list(range(1, F.order))
        assert tables.log[0] == n
        assert tables.log[tables.antilog].tolist() == list(range(n))
        g, x = F.primitive(), F.one
        for i in range(min(n, 300)):
            assert tables.antilog[i] == x.counter()
            x = x * g

    @pytest.mark.parametrize("p,k", LOG_FIELDS)
    def test_zech_and_trace_agree_with_element_arithmetic(self, p, k):
        F = GF(p, k)
        tables, n = F.log_tables(), F.order - 1
        sample = random.Random(p * 100 + k).sample(range(n), min(n, 200))
        for i in sample:
            x = F.from_counter(int(tables.antilog[i]))
            z = int(tables.zech[i])
            if z == n:
                assert (x + 1).is_zero()
            else:
                assert F.from_counter(int(tables.antilog[z])) == x + 1
            assert tables.trace[i] == x.trace_to_prime()
        assert tables.trace[n] == 0

    def test_two_l_polynomials_build_each_table_once(self, monkeypatch):
        from ascart.sweep import random_curve
        from ascart.zeta import l_polynomial

        built = []
        build = finite_field._build_log_tables
        monkeypatch.setattr(finite_field, "_LOG_TABLES", finite_field.OrderedDict())
        monkeypatch.setattr(
            finite_field, "_build_log_tables", lambda field: built.append(field) or build(field)
        )
        rng = random.Random(0)
        for _ in range(2):
            l_polynomial(random_curve(GF(5), (1, 1), rng))  # GF(5) and GF(25)
        assert built == [GF(5), GF(5, 2)]

    def test_least_recently_used_evicted_past_twice_the_cap(self, monkeypatch):
        monkeypatch.setattr(finite_field, "_LOG_TABLES", finite_field.OrderedDict())
        monkeypatch.setattr(finite_field, "_MAX_FIELD_SIZE", 30)
        for F in (GF(5), GF(5, 2), GF(7)):  # 37 <= 60 elements
            F.log_tables()
        GF(5).log_tables()  # now the most recently used
        GF(3, 3).log_tables()  # 37 + 27 > 60: the oldest, GF(5^2), goes
        assert list(finite_field._LOG_TABLES) == [GF(7), GF(5), GF(3, 3)]
        GF(5, 2).log_tables()  # 39 + 25 > 60: GF(7) goes
        assert list(finite_field._LOG_TABLES) == [GF(5), GF(3, 3), GF(5, 2)]

    def test_miss_while_another_thread_inserts(self, monkeypatch):
        """A second thread caches GF(11) while a miss on GF(3^3) sums the cached
        orders; both tables end up cached and neither call raises."""
        monkeypatch.setattr(finite_field, "_LOG_TABLES", finite_field.OrderedDict())
        for F in (GF(5), GF(5, 2), GF(7)):
            F.log_tables()
        field = Field(3, 3)
        other = threading.Thread(target=GF(11).log_tables)

        def in_genexpr(frame, event, arg):
            if event == "line" and other.ident is None:
                other.start()
                other.join(timeout=1)
            return in_genexpr

        def on_call(frame, event, arg):
            caller = frame.f_back.f_code
            if frame.f_code.co_name == "<genexpr>" and caller is Field.log_tables.__code__:
                return in_genexpr  # the sum over the cached fields
            return None

        tracer = sys.gettrace()
        sys.settrace(on_call)
        try:
            field.log_tables()
        finally:
            sys.settrace(tracer)
            other.join()
        assert other.ident is not None
        assert set(finite_field._LOG_TABLES) == {GF(5), GF(5, 2), GF(7), GF(3, 3), GF(11)}


def prime_factors(n):
    return [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
