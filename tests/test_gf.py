"""Field construction and element arithmetic."""

import operator
import random
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ppinv.gf
from ppinv.gf import (
    MAX_ORDER,
    SCALAR_TABLE_LIMIT,
    Field,
    FieldElement,
    _is_irreducible,
    _kernel,
    _ListKernel,
    first_irreducible,
    is_prime,
    prime_factors,
)


def test_pinned_moduli():
    assert Field(3, 1, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert Field(5, 1, 2).modulus == (2, 0, 1)  # x^2 + 2
    assert Field(2, 1, 1).modulus == (0, 1)     # x


@pytest.mark.parametrize("spec", [(2, 1, 4), (3, 2, 1), (7, 1, 2), (2, 2, 3), (13, 1, 1)])
def test_build_deterministic(spec):
    assert Field(*spec).modulus == Field(*spec).modulus


def test_same_degree_same_modulus_across_splits():
    # F_64 as q=2,n=6 / q=4,n=3 / q=8,n=2 share the underlying field
    mods = {Field(2, e, 6 // e).modulus for e in (1, 2, 3)}
    assert len(mods) == 1


def test_build_errors():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(5, 0, 1)
    with pytest.raises(ValueError):
        Field(5, 1, 0)
    with pytest.raises(ValueError):
        Field(2, 1, 33)  # 2^33 over the bound
    # a huge degree is refused before 3^(3 10^7) is computed or printed
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds the bound {MAX_ORDER}"):
        Field(3, 1, 30_000_000)
    assert time.perf_counter() - start < 0.5


def test_bound_is_checked_before_primality(monkeypatch):
    def no_trial_division(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(ppinv.gf, "prime_factors", no_trial_division)
    with pytest.raises(ValueError, match="exceeds the bound"):
        Field(2 ** 61 - 1)
    with pytest.raises(ValueError, match="exceeds the bound"):
        Field(7, 1, 12)


@pytest.mark.parametrize("spec", [(3, 1, 4), (3, 1, 20), (2, 1, 32)])
def test_numpy_integer_components(spec):
    F = Field(*(np.int64(c) for c in spec))
    twin = Field(*spec)
    assert F == twin and F.modulus == twin.modulus
    assert all(type(c) is int for c in (F.p, F.e, F.n, F.order))
    rng = random.Random(spec[2])
    for _ in range(20):
        i, j = rng.randrange(F.order), rng.randrange(1, F.order)
        k = rng.randrange(2 * F.order)
        assert (F(i) * F(j)).index == (twin(i) * twin(j)).index
        assert (F(i) + F(j)).index == (twin(i) + twin(j)).index
        assert (F(i) ** k).index == (twin(i) ** k).index
        assert F(j).inverse().index == twin(j).inverse().index
    for bad in ((3.0,), (3, 1.0, 2), (3, 1, np.float64(2))):
        with pytest.raises(TypeError):
            Field(*bad)


def test_first_irreducible_is_irreducible_by_brute_force():
    # no roots for degree 2/3 candidates over small primes
    for p, deg in [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (3, 3)]:
        mod = first_irreducible(p, deg)
        assert len(mod) == deg + 1 and mod[-1] == 1
        for r in range(p):
            val = sum(c * pow(r, k, p) for k, c in enumerate(mod)) % p
            assert val != 0, (p, deg, r)


def test_primality_helpers():
    assert [n for n in range(60) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert prime_factors(728) == [2, 7, 13]
    assert prime_factors(1) == []
    assert not is_prime(0) and not is_prime(-7)
    assert is_prime(2 ** 32 - 5)  # the largest prime p with a field under MAX_ORDER
    ntheory = pytest.importorskip("sympy.ntheory")
    assert [n for n in range(2 * 10 ** 5) if is_prime(n)] == list(ntheory.primerange(2 * 10 ** 5))
    rng = random.Random(2024)
    for n in (rng.randrange(2 ** 31 + 1, 2 ** 32 + 1) for _ in range(300)):
        assert is_prime(n) == ntheory.isprime(n), n


def test_arith_pinned_f9():
    F9 = Field(3, 1, 2)
    i = F9.from_coeffs([0, 1])
    one = F9.one
    a = one + i
    assert (a * (one - i)).index == 2
    assert a.inverse() == F9.from_coeffs([2, 1])
    assert a + F9.zero == a
    assert (a * a.inverse()) == one


def test_pow_pinned():
    F5 = Field(5)
    assert (F5(2) ** 2).index == 4
    F9 = Field(3, 1, 2)
    a = F9.from_coeffs([1, 1])
    assert (a ** 4).index == 2
    assert (F9.zero ** 0) == F9.one
    assert (a ** 0) == F9.one
    with pytest.raises(ValueError):
        a ** -1


def test_inverse_of_zero_is_reported():
    F7 = Field(7)
    with pytest.raises(ZeroDivisionError):
        F7.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        F7.one / F7.zero


@pytest.mark.parametrize("spec", [(2, 1, 3), (3, 1, 2), (5, 1, 1)])
def test_field_axioms_exhaustive(spec):
    F = Field(*spec)
    elems = list(F.elements())
    for a in elems:
        assert a + F.zero == a
        assert a * F.one == a
        if a:
            assert a * a.inverse() == F.one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert a - b == -(b - a)
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 2)])
def test_lagrange_power_laws(spec):
    F = Field(*spec)
    Q = F.order
    for a in F.elements():
        assert a ** Q == a
        if a:
            assert a ** (Q - 1) == F.one


def test_norm_pinned_and_properties():
    F9 = Field(3, 1, 2)
    a = F9.from_coeffs([1, 1])
    assert F9.norm(a, 1).index == 2
    assert F9.norm(F9.one, 1) == F9.one
    assert F9.norm(F9.zero, 1) == F9.zero
    for x in F9.elements():
        assert F9.norm(x, 2) == x  # d = n: identity exponent
    # multiplicativity and subfield membership on F_16 over F_4 (e=1, n=4, d=2)
    F16 = Field(2, 1, 4)
    sub_order = F16.q ** 2
    for x in F16.elements():
        nx = F16.norm(x, 2)
        if x:
            assert nx ** (sub_order - 1) == F16.one
        for y in F16.elements():
            assert F16.norm(x * y, 2) == F16.norm(x, 2) * F16.norm(y, 2)
    with pytest.raises(ValueError):
        F16.norm(F16.one, 3)


def test_from_coeffs_rejects_non_integers():
    F9 = Field(3, 1, 2)
    for bad in ([1.5], [1, 2.0], [np.float64(1)]):
        with pytest.raises(TypeError):
            F9.from_coeffs(bad)
    assert F9.from_coeffs([np.int64(1), 2]) == F9(7)
    assert type(F9.from_coeffs([np.int64(1), np.int64(2)]).index) is int


def test_element_rejects_scalar_bool():
    F5 = Field(5)
    for bad in (True, False):
        with pytest.raises(TypeError):
            F5.element(bad)
    assert F5.element(1) == F5.one and F5.element(np.int64(0)) == F5.zero


def test_element_rejects_numpy_bool():
    F5 = Field(5)
    for bad in (np.True_, np.False_):
        with pytest.raises(TypeError, match="got bool"):
            F5.element(bad)


def test_unit_rejects_zero_on_scalars_and_arrays():
    F5 = Field(5)
    with pytest.raises(ValueError, match="nonzero"):
        F5.unit(0)
    with pytest.raises(ValueError, match="nonzero"):
        F5.unit(np.array([1, 0, 3]))  # one zero entry rejects the array, with no ambiguous truth value
    with pytest.raises(TypeError):
        F5.unit(True)
    assert F5.unit(3) == F5(3) and F5.unit(F5(2)) == F5(2)
    units = F5.unit(np.arange(1, 5))
    assert units.field == F5 and units.index.tolist() == [1, 2, 3, 4]


def test_enumeration_and_index_round_trip():
    F9 = Field(3, 1, 2)
    assert F9(4) == F9.from_coeffs([1, 1])  # 4 = 1 + 1*3
    assert F9(0) == F9.zero
    seen = [e.index for e in F9.elements()]
    assert seen == list(range(9))
    for k in range(9):
        assert F9(F9(k).index).index == k
        assert F9.from_coeffs(F9(k).coeffs) == F9(k)
    with pytest.raises(ValueError):
        F9(9)
    with pytest.raises(ValueError):
        F9(-1)
    with pytest.raises(ValueError):
        F9.from_coeffs([3, 0])
    assert len(list(F9.elements())) == 9


def test_descriptor_round_trip():
    F = Field.from_descriptor("5^1^2")
    assert (F.p, F.e, F.n) == (5, 1, 2)
    assert F.descriptor() == "5^1^2"
    assert Field.from_descriptor(F.descriptor()) == F
    for bad in ("5^1", "5", "a^b^c", "5^1^2^3"):
        with pytest.raises(ValueError):
            Field.from_descriptor(bad)


def test_mixed_field_operands_rejected():
    a = Field(5)(2)
    b = Field(7)(2)
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b


class _OnIndices:
    """A scalar backend's native arithmetic read on field indices: each
    operand is converted in by ``pack`` and each result out by ``unpack``."""

    def __init__(self, backend):
        self.backend = backend

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def add_idx(self, i, j):
        K = self.backend
        return K.unpack(K.add(K.pack(i), K.pack(j)))

    def neg_idx(self, i):
        K = self.backend
        return K.unpack(K.neg(K.pack(i)))

    def mul_idx(self, i, j):
        K = self.backend
        return K.unpack(K.mul(K.pack(i), K.pack(j)))

    def pow_idx(self, i, k):
        K = self.backend
        return K.unpack(K.power(K.pack(i), k))


@pytest.mark.parametrize("spec", [(2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2)])
def test_tables_match_scalar_ops(spec):
    F = Field(*spec)
    K = _OnIndices(F._kernel)  # packed-integer arithmetic, built apart from the tables
    T = F.tables
    Q = F.order
    for i in range(Q):
        assert (T.neg[i] if F.p != 2 else T.sub(np.int64(0), np.int64(i))) == K.neg_idx(i)
        if i:
            assert T.inv[i] == K.pow_idx(i, Q - 2)
        for j in range(Q):
            assert T.add(np.int64(i), np.int64(j)) == K.add_idx(i, j)
            assert T.mul(np.int64(i), np.int64(j)) == K.mul_idx(i, j)
        for k in (0, 1, 2, 3, Q - 1, Q, 2 * Q + 1, 2 ** 62 + 1, F.norm_exponent(1)):
            assert T.pow(np.int64(i), k) == K.pow_idx(i, k)


@pytest.mark.parametrize("spec", [(2, 1, 1), (7, 1, 1), (2, 1, 9), (3, 3, 2), (7, 1, 3), (2, 1, 16)])
def test_tables_pow_paths_match_packed_kernel(spec):
    # FieldTables.pow gathers from a Q-entry table of x^k from Q points up and
    # powers each point by its log below: both paths against packed arithmetic
    F = Field(*spec)
    K = _OnIndices(F._kernel)
    T, Q, L = F.tables, F.order, F.tables.group
    if Q <= 4096:
        pts = np.arange(Q, dtype=np.int64)
    else:  # a seeded subset, with zero and one
        pts = np.concatenate([[0, 1], np.random.default_rng(35).choice(np.arange(2, Q), 4094, replace=False)])
    rows = max(2, -(-Q // len(pts)))  # (rows, len(pts)) holds at least Q points
    exponents = {0, 1, 2, F.p, F.p ** (F.degree - 1), L, L + 1, 2 * L + 1, 2 ** 62 + 1, F.norm_exponent(1)}
    for k in sorted(exponents):
        want = np.array([K.pow_idx(int(i), k) for i in pts], dtype=np.int64)
        cases = [(np.tile(pts, (rows, 1)), np.tile(want, (rows, 1)))]  # the table path, a zero in every row
        cases += [(pts[s], want[s]) for s in np.array_split(np.arange(len(pts)), 2)]  # shorter than Q
        cases += [(np.asarray(pts[i]), np.asarray(want[i])) for i in (0, 1, -1)]  # 0-d
        for u, expect in cases:
            got = T.pow(u, k)
            assert got.dtype == np.int64 and got.shape == u.shape
            np.testing.assert_array_equal(got, expect, err_msg=f"k={k}, shape {u.shape}")
    for u in (np.tile(pts, (rows, 1)), pts[:1], np.asarray(pts[1])):
        with pytest.raises(ValueError, match="negative exponent"):
            T.pow(u, -1)


def test_tables_guard():
    with pytest.raises(ValueError):
        Field(2, 1, 21).tables  # 2^21 beyond the dense-table limit

    F = Field(3, 1, 2)
    with pytest.raises(ZeroDivisionError):
        F.tables.inv_of(np.array([0, 1]))


def _digitwise(p, degree, i, j, sign=1):
    """Index of digits(i) + sign * digits(j), coefficient by coefficient."""
    return sum((i // p ** k + sign * (j // p ** k)) % p * p ** k for k in range(degree))


@pytest.mark.parametrize("spec", [(2, 1, 4), (2, 3, 2), (7, 1, 1), (101, 1, 1), (3, 1, 3), (5, 2, 1)])
def test_scalar_add_matches_digitwise(spec):
    F = Field(*spec)
    p, D = F.p, F.degree
    # the field's own backend (lists at these orders) and the packed kernel
    for backend in (_OnIndices(F._scalar), _OnIndices(F._kernel)):
        for i in range(F.order):
            neg = backend.neg_idx(i)
            assert neg == _digitwise(p, D, 0, i, -1), (backend, i)
            for j in range(F.order):
                assert backend.add_idx(i, j) == _digitwise(p, D, i, j), (backend, i, j)
                assert backend.add_idx(j, neg) == _digitwise(p, D, j, i, -1), (backend, i, j)


def _reference_powers(F):
    """Least generator and its powers, by repeated scalar multiplication."""
    group = F.order - 1
    if group == 1:
        return 1, [1]
    K = _OnIndices(F._kernel)
    for g in range(2, F.order):
        powers = [1]
        while (nxt := K.mul_idx(powers[-1], g)) != 1:
            powers.append(nxt)
        if len(powers) == group:
            return g, powers
    raise AssertionError("no generator")


def test_binary_tables_hold_no_negation_table():
    # -u = u on p = 2: no table, sub is add, and array negation keeps the indices
    for spec in [(2, 1, 1), (2, 1, 8), (2, 2, 3)]:
        F = Field(*spec)
        T = F.tables
        assert T.neg is None
        u = np.arange(F.order, dtype=np.int64)
        v = np.random.default_rng(F.order).permutation(F.order)
        assert np.array_equal(T.sub(u, v), T.add(u, v))
        assert np.array_equal((-F.element(v)).index, v)
        assert np.array_equal((F.element(u) - F.element(v)).index, u ^ v)
    assert Field(3, 1, 2).tables.neg is not None


@pytest.mark.parametrize("spec", [(2, 1, 1), (3, 1, 1), (2, 1, 9), (3, 1, 6), (3, 3, 2), (5, 1, 3), (2, 1, 16)])
def test_tables_equal_reference(spec):
    F = Field(*spec)
    gen, exp = _reference_powers(F)  # packed-kernel products, not the tables under test
    T = F.tables
    Q, p, group = F.order, F.p, len(exp)
    log, inv = [2 * group] * Q, [0] * Q  # log 0 folded in as 2 (Q - 1)
    for k, x in enumerate(exp):
        log[x] = k
        inv[x] = exp[-k % group]
    dig = np.arange(Q, dtype=np.int64)[:, None] // T.pw % p
    assert T.generator == gen
    assert T.group == group
    assert T.exp.tolist() == exp + exp + [0] * (2 * group + 1)
    assert T.log.tolist() == log
    assert T.inv.tolist() == inv
    assert np.array_equal(T.neg if p != 2 else (-F.all_elements()).index, (-dig % p) @ T.pw)
    assert np.array_equal(T.dig, dig)


@pytest.mark.parametrize(
    "spec", [(2, 1, 1), (2, 1, 9), (2, 2, 3), (7, 1, 1), (101, 1, 1), (3, 1, 2), (3, 1, 6), (3, 3, 2), (5, 1, 3), (2, 1, 16)]
)
def test_vector_add_matches_digitwise(spec):
    F = Field(*spec)
    T = F.tables
    Q, p = F.order, F.p
    rng = np.random.default_rng(Q)

    def digits(a):
        return np.asarray(a, dtype=np.int64)[..., None] // T.pw % p

    def index(d):
        return d % p @ T.pw

    col = rng.integers(0, Q, (40, 1))
    row = rng.integers(0, Q, (1, 30))
    col[:4] = 0
    row[0, :3] = 0
    flat = rng.integers(0, Q, 50)
    flat[:2] = 0
    negs = index(-digits(flat))  # u = -v at every position
    cases = [(col, row), (flat, negs), (flat, flat), (np.int64(0), flat), (flat, np.int64(0))]
    for u, v in cases:
        assert np.array_equal(T.add(u, v), index(digits(u) + digits(v)))
        assert np.array_equal(T.sub(u, v), index(digits(u) - digits(v)))
    for rows in (0, 1, 2, 3, 5, 8, 16):
        stack = rng.integers(0, Q, (rows, 25))
        if rows >= 2:
            stack[:, 0] = 0
            stack[0, 1], stack[1, 1] = flat[5], negs[5]
            stack[2:, 1] = 0  # a column that sums to zero
        got = T.sum_terms(stack)
        assert got.dtype == np.int64
        assert np.array_equal(got, index(digits(stack).sum(axis=0)))


# first_irreducible(p, d) for every (p, degree) that the test suite and the
# benchmark build, captured before the packed-integer kernels replaced the
# digit-list arithmetic; every prime p <= 113 also gives (0, 1) at degree 1.
PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1) + (0,) * 7 + (1,),
    (2, 10): (1, 0, 0, 1) + (0,) * 6 + (1,),
    (2, 16): (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
    (2, 20): (1, 0, 0, 1) + (0,) * 16 + (1,),
    (2, 21): (1, 0, 1) + (0,) * 18 + (1,),
    (2, 32): (1, 0, 1, 1, 0, 0, 0, 1) + (0,) * 24 + (1,),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2) + (0,) * 7 + (1,),
    (3, 20): (1, 2, 0, 1) + (0,) * 16 + (1,),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 11): (3, 1) + (0,) * 9 + (1,),
    (11, 2): (1, 0, 1),
    (13, 2): (2, 0, 1),
    (251, 4): (4, 1, 0, 0, 1),
}
PINNED_MODULI.update({(p, 1): (0, 1) for p in range(2, 114) if is_prime(p)})


def test_first_irreducible_pinned():
    for (p, degree), modulus in PINNED_MODULI.items():
        assert first_irreducible(p, degree) == modulus, (p, degree)


def test_first_irreducible_agrees_with_sympy():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def irreducible(coeffs, p):
        return galoistools.gf_irreducible_p(list(reversed(coeffs)), p, ZZ)

    for (p, degree), modulus in PINNED_MODULI.items():
        assert irreducible(list(modulus), p), (p, degree)
        # every earlier candidate in little-endian base-p order is reducible
        first = sum(c * p ** i for i, c in enumerate(modulus[:-1]))
        for k in range(first):
            cand = [k // p ** i % p for i in range(degree)] + [1]
            assert not irreducible(cand, p), (p, degree, cand)


@pytest.mark.parametrize("p, top", [(2, 10), (3, 6), (5, 4), (7, 4), (11, 3), (13, 3)])
def test_is_irreducible_agrees_with_sympy_on_every_candidate(p, top):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    for degree in range(1, top + 1):
        for k in range(p ** degree):
            cand = [k // p ** i % p for i in range(degree)] + [1]
            expected = galoistools.gf_irreducible_p(list(reversed(cand)), p, ZZ)
            assert _is_irreducible(cand, p) == expected, (p, cand)


def _ref_mul(p, modulus, i, j):
    """Schoolbook product of two digit vectors, reduced one top digit at a time."""
    D = len(modulus) - 1
    prod = [0] * (2 * D - 1)
    for x in range(D):
        for y in range(D):
            prod[x + y] = (prod[x + y] + i // p ** x % p * (j // p ** y % p)) % p
    for k in range(2 * D - 2, D - 1, -1):
        c = prod[k]
        for t in range(D + 1):
            prod[k - D + t] = (prod[k - D + t] - c * modulus[t]) % p
    return sum(c * p ** k for k, c in enumerate(prod[:D]))


def _ref_pow(p, modulus, i, k):
    """Square and multiply on _ref_mul, with the exponent left unreduced."""
    result, base = 1, i
    while k:
        if k & 1:
            result = _ref_mul(p, modulus, result, base)
        base = _ref_mul(p, modulus, base, base)
        k >>= 1
    return result


# the last two have p > 256 and D >= 2: a base-p digit needs more than a byte
PACKED_SPECS = [
    (2, 1, 32), (3, 1, 20), (7, 1, 11), (251, 1, 4), (3, 2, 5),
    (5, 1, 3), (2, 1, 1), (3, 1, 1), (257, 1, 3), (65521, 1, 2),
]


@pytest.mark.parametrize("spec", PACKED_SPECS)
def test_packed_kernel_matches_schoolbook(spec):
    F = Field(*spec)
    K, Q, p, D = _OnIndices(F._kernel), F.order, F.p, F.degree
    rng = np.random.default_rng(Q % 1000)
    operands = [0, 1, Q - 1] + [int(v) for v in rng.integers(0, Q, 6)]
    for i in operands:
        assert K.neg_idx(i) == _digitwise(p, D, 0, i, -1), i
        for j in operands:
            assert K.add_idx(i, j) == _digitwise(p, D, i, j), (i, j)
            assert K.mul_idx(i, j) == _ref_mul(p, F.modulus, i, j), (i, j)
        for k in (0, 1, Q - 1, Q, 2 ** 40 + 12345):
            assert K.pow_idx(i, k) == _ref_pow(p, F.modulus, i, k), (i, k)
        if i:
            assert _ref_mul(p, F.modulus, i, K.pow_idx(i, Q - 2)) == 1, i


def _ref_frobenius(p, modulus, i):
    """i^(p^j) for j = 0 .. D-1: the schoolbook p-th power applied j times."""
    out = [i]
    for _ in range(len(modulus) - 2):
        out.append(_ref_pow(p, modulus, out[-1], p))
    return out


@pytest.mark.parametrize("spec", PACKED_SPECS)
def test_p_power_exponents_match_schoolbook(spec):
    F = Field(*spec)
    K, Q, p, D = _OnIndices(F._kernel), F.order, F.p, F.degree  # p^j with 0 < j < D takes the Frobenius map
    rng = np.random.default_rng(Q % 1000 + 1)
    for i in [0, 1, Q - 1] + [int(v) for v in rng.integers(0, Q, 4)]:
        for j, ref in enumerate(_ref_frobenius(p, F.modulus, i)):
            assert K.pow_idx(i, p ** j) == ref, (i, j)
    assert sorted(K._frob) == [p ** j for j in range(1, D)]
    assert None not in K._frob.values()  # every map was built and used


@pytest.mark.parametrize("p, degree", [(2, 32), (3, 20), (7, 11), (251, 4), (5, 3)])
def test_packed_kernel_worst_case_slot_sums(p, degree):
    # The first irreducibles are sparse, so their products stay far below the
    # slot bound; a dense modulus and all-(p-1) operands reach it.  The kernel
    # computes in F_p[x]/(m) for any monic m, irreducible or not.
    modulus = (p - 1,) * degree + (1,)
    K = _OnIndices(_kernel(p, modulus))
    Q = p ** degree
    rng = np.random.default_rng(p)
    operands = [Q - 1, Q - 2] + [int(v) for v in rng.integers(0, Q, 4)]
    for i in operands:
        assert K.neg_idx(i) == _digitwise(p, degree, 0, i, -1), i
        for j in operands:
            assert K.add_idx(i, j) == _digitwise(p, degree, i, j), (i, j)
            assert K.mul_idx(i, j) == _ref_mul(p, modulus, i, j), (i, j)
        assert K.pow_idx(i, Q - 2) == _ref_pow(p, modulus, i, Q - 2), i
        for j, ref in enumerate(_ref_frobenius(p, modulus, i)[1:], 1):
            assert K.pow_idx(i, p ** j) == ref, (i, j)


def _chain_exponents(p, degree):
    """The norm exponents (p^D - 1)/(p^j - 1) for j | D, j < D, and Q - 2."""
    Q = p ** degree
    norms = [(Q - 1) // (p ** j - 1) for j in range(1, degree) if degree % j == 0]
    return norms + [Q - 2]


class _PowSpy:
    """Records the exponents that reach a kernel's square and multiply."""

    def __init__(self, K, monkeypatch):
        self.calls, real = [], K.pow

        def spy(a, k):
            self.calls.append(k)
            return real(a, k)

        monkeypatch.setattr(K, "pow", spy)


@pytest.mark.parametrize("spec", [(2, 1, 32), (3, 2, 5), (251, 1, 4)])
def test_frobenius_chains_match_schoolbook(spec, monkeypatch):
    # every j | D gives a norm exponent; with Q - 2 they are Frobenius chains
    F = Field(*spec)
    K, Q, p = _OnIndices(F._kernel), F.order, F.p
    exps = _chain_exponents(p, F.degree)
    assert set(exps[:-1]) == set(K._norms)
    rng = np.random.default_rng(Q % 1000 + 2)
    operands = [1, 2, Q - 1] + [int(v) for v in rng.integers(0, Q, 3)]
    for i in operands:
        for k in exps:
            assert K.pow_idx(i, k) == _ref_pow(p, F.modulus, i, k), (i, k)
        assert _ref_mul(p, F.modulus, i, F(i).inverse().index) == 1, i
    spy = _PowSpy(F._kernel, monkeypatch)  # the maps are built: no exponent beyond p - 2 is left
    for i in operands:
        for k in exps:
            K.pow_idx(i, k)
    assert all(k <= max(p - 2, 1) for k in spy.calls), spy.calls


@pytest.mark.parametrize("p, degree", [(2, 32), (3, 20), (7, 11), (251, 4), (5, 3)])
def test_frobenius_chains_on_reducible_moduli(p, degree):
    # the chains are identities of exponents, exact for any monic m; power
    # reduces k mod p^D - 1, which only a field justifies, so p^D - 1 itself
    # (the norm exponent for p = 2, j = 1) is left out
    modulus = (p - 1,) * degree + (1,)
    K = _OnIndices(_kernel(p, modulus))
    Q = p ** degree
    rng = np.random.default_rng(p + 1)
    for i in [Q - 1, Q - 2, p] + [int(v) for v in rng.integers(0, Q, 3)]:
        for k in _chain_exponents(p, degree):
            if k < Q - 1:
                assert K.pow_idx(i, k) == _ref_pow(p, modulus, i, k), (i, k)


def test_inverse_of_a_prime_field_above_the_lists(monkeypatch):
    # D = 1 has no Frobenius map, so Q - 2 falls back to square and multiply
    F = Field(65537)
    K = F._kernel
    assert F._scalar is K and K._norms == {} and K._frob == {}
    spy = _PowSpy(K, monkeypatch)
    for i in (1, 2, 3, 12345, 65536):
        assert F(i).inverse().index == pow(i, 65535, 65537) == _ref_pow(65537, F.modulus, i, 65535)
    assert spy.calls == [65535] * 5


def test_windowed_gf2_product_matches_schoolbook():
    # degrees 1-33 cover every window count and a ragged last nibble
    rng = random.Random(33)
    for degree in range(1, 34):
        modulus = first_irreducible(2, degree)
        K = _kernel(2, modulus)
        top = 1 << degree - 1
        operands = {0, 1, top, 2 * top - 1, top | 1} | {top | rng.getrandbits(degree) for _ in range(3)}
        for i in operands:
            for j in operands:
                assert K.mul(i, j) == _ref_mul(2, modulus, i, j), (degree, i, j)


@pytest.mark.parametrize("spec", [(2, 1, 9), (3, 3, 2), (5, 1, 3), (2, 1, 16)])
def test_packed_kernel_matches_tables(spec):
    F = Field(*spec)
    K, Q = _OnIndices(F._kernel), F.order
    assert isinstance(F._scalar, _ListKernel)  # scalars read the tables as lists
    rng = np.random.default_rng(Q)
    pairs = rng.integers(0, Q, (20000, 2)).tolist()
    exps = rng.integers(0, 2 ** 62, 20000).tolist()
    for (i, j), k in zip(pairs, exps):
        assert K.add_idx(i, j) == (F(i) + F(j)).index, (i, j)
        assert K.neg_idx(i) == (-F(i)).index, i
        assert K.mul_idx(i, j) == (F(i) * F(j)).index, (i, j)
        assert K.pow_idx(i, k) == (F(i) ** k).index, (i, k)
        if i:
            assert K.pow_idx(i, Q - 2) == F(i).inverse().index, i


class _BackendSpy:
    """Stands in for a field's scalar backend and records each method it hands out."""

    def __init__(self, backend):
        self.backend, self.calls = backend, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.backend, name)


@pytest.mark.parametrize("degree, lists", [(16, True), (17, False)])
def test_scalar_backend_depends_on_order_alone(degree, lists, monkeypatch):
    # 2^16 is the last order whose scalars read lists; building the tables of
    # a larger field for its arrays leaves its scalars on the packed kernel
    assert SCALAR_TABLE_LIMIT == 2 ** 16
    F = Field(2, 1, degree)
    backend = F._scalar
    if lists:
        assert isinstance(backend, _ListKernel) and "tables" in vars(F)
    else:
        assert backend is F._kernel and "tables" not in vars(F)
    spy = _BackendSpy(backend)
    monkeypatch.setattr(F, "_scalar", spy)

    def ops():
        x, y = F(12345), F(F.order - 3)
        return [(x + y).index, (x * y).index, (x ** 1000003).index, x.inverse().index]

    before = ops()
    calls = list(spy.calls)
    F.tables
    assert ops() == before
    # each element is packed in once, each result unpacked once where its index is read
    assert calls == ["pack", "pack", "add", "unpack", "mul", "unpack", "power", "unpack", "power", "unpack"]
    assert spy.calls == calls * 2
    assert F._scalar is spy


@pytest.mark.parametrize("spec", [(2, 1, 32), (3, 1, 20), (7, 1, 11), (251, 1, 4)])
def test_native_values_are_canonical(spec):
    # elements hold their backend's native value; equality and hashing must
    # not see how a value was reached
    F = Field(*spec)
    K = F._scalar
    assert K is F._kernel
    rng = random.Random(F.order)
    elems = [F(rng.randrange(F.order)) for _ in range(6)] + [F.zero, F.one, F(F.order - 1)]
    results = []
    for x in elems:
        results.append(-x)
        results.append(x - x)
        assert not bool(x - x) and x - x == F.zero
        if x:
            results.append(x.inverse())
            assert x * x.inverse() == F.one
        for y in elems:
            results += [x + y, x * y, x - y]
    for e in results:
        ref = F(e.index)
        assert e == ref and hash(e) == hash(ref) and e.value == ref.value, e
        assert not e != ref
    if F.p != 2:  # every slot of a packed result lies in [0, p), nothing above slot D - 1
        for e in results:
            v = e.value
            assert v >> K.width * F.degree == 0, e
            assert all((v >> K.width * i & K.slot) < F.p for i in range(F.degree)), e


def test_equal_fields_with_other_native_forms_mix():
    # equal Fields built apart: above SCALAR_TABLE_LIMIT each holds packed
    # values from its own kernel, and the values mix as they are
    field, bare = Field(3, 1, 11), Field(3, 1, 11)
    x, y = field(100), bare(200)
    assert field._scalar is not bare._scalar
    assert x.value != 100 and y.value != 200 and x.value == bare(100).value
    assert (x * y).index == (bare(100) * y).index == (field(100) * field(200)).index
    assert (y + x).index == (field(200) + x).index
    assert x == bare(100) and bare(100) == x and hash(x) == hash(bare(100))


def test_power_takes_an_integer_exponent():
    F = Field(3, 1, 4)
    for x in (F(5), F.all_elements()):
        with pytest.raises(TypeError):
            x ** 2.0
        assert np.array_equal((x ** np.int64(3)).index, (x * x * x).index)


# -- index-array elements against scalar elements -----------------------------

ARRAY_LIMIT = 2 ** 20


@lru_cache(maxsize=None)
def _array_fields(p: int, e: int, n: int) -> tuple[Field, Field]:
    """The split with tables (for arrays) and a copy whose scalars run on its packed kernel."""
    field = Field(p, e, n)
    field.tables
    bare = Field(p, e, n)
    bare._scalar = bare._kernel  # a reference apart from the lists made from the tables
    return field, bare


@st.composite
def _small_splits(draw):
    degree = draw(st.integers(1, 20))
    top = int(round(ARRAY_LIMIT ** (1 / degree)))
    while top ** degree > ARRAY_LIMIT:
        top -= 1
    x = draw(st.integers(2, max(top, 2)))
    p = next(c for c in range(x, 1, -1) if is_prime(c))
    e = draw(st.sampled_from([e for e in range(1, degree + 1) if degree % e == 0]))
    return p, e, degree // e


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data(), split=_small_splits())
def test_array_elements_match_scalar_elements(data, split):
    field, bare = _array_fields(*split)
    Q = field.order
    assert Q <= ARRAY_LIMIT
    index = st.integers(0, Q - 1)
    u = [0, Q - 1] + data.draw(st.lists(index, min_size=1, max_size=6), label="u")
    v = data.draw(st.lists(index, min_size=len(u), max_size=len(u)), label="v")
    c = data.draw(index, label="c")
    k = data.draw(st.integers(1, 2 * Q), label="k")
    frob = field.p ** data.draw(st.integers(0, field.degree - 1), label="j")
    U, V, C = field.element(np.array(u)), field.element(np.array(v)), field(c)

    def scalars(fn, *columns):
        return [fn(*(bare(x) for x in xs)).index for xs in zip(*columns)]

    for op in (operator.add, operator.sub, operator.mul):
        assert op(U, V).index.tolist() == scalars(op, u, v)
        assert op(U, C).index.tolist() == scalars(lambda x: op(x, bare(c)), u)
        assert op(C, U).index.tolist() == scalars(lambda x: op(bare(c), x), u)
    grid = field.element(U.index[:, None]) * field.element(V.index[None, :]) + C
    assert grid.index.tolist() == [[(bare(x) * bare(y) + bare(c)).index for y in v] for x in u]
    assert (-U).index.tolist() == scalars(operator.neg, u)
    assert (U ** k).index.tolist() == scalars(lambda x: x ** k, u)
    assert (U ** frob).index.tolist() == scalars(lambda x: x ** frob, u)
    assert (U ** 0).index.tolist() == [1] * len(u)

    units = [y or 1 for y in v]
    W = field.element(np.array(units))
    assert (U / W).index.tolist() == scalars(operator.truediv, u, units)
    assert (C / W).index.tolist() == scalars(lambda y: bare(c) / y, units)
    if c:
        assert (U / C).index.tolist() == scalars(lambda x: x / bare(c), u)
    with pytest.raises(ZeroDivisionError):
        C / U  # u holds 0
    with pytest.raises(ZeroDivisionError):
        U.inverse()

    assert (U == V).tolist() == [x == y for x, y in zip(u, v)]
    assert (U != V).tolist() == [x != y for x, y in zip(u, v)]
    assert (U == C).tolist() == [x == c for x in u]
    assert (C == U).tolist() == [x == c for x in u]
    for bad in ([Q], [-1], [0, Q + 5]):
        with pytest.raises(ValueError):
            field.element(np.array(bad))
