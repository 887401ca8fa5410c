"""Criterion, pointwise and symbolic inverses, linearized binomial, gcd identity."""

import functools
import math
import operator

import numpy as np
import pytest

from ppinv.family import (
    NotPermutationError,
    PPParams,
    frobenius_chain,
    frobenius_sum,
    gcd_halfpower,
    linearized_inverse,
    linearized_is_permutation,
    linearized_poly,
    poly_from_terms,
)
from ppinv import gf
from ppinv.gf import Field
from ppinv.oracle import PermTable, inverse_poly_by_interpolation, tabulate
from ppinv.poly import Poly


def linearized_images(field, m, a_indices):
    """Images of every field point under x^{q^m} - ax, one row per a."""
    a = field.element(np.asarray(a_indices)[:, None])
    x = field.all_elements()
    return (x ** field.q ** m - a * x).index


def all_params(field, m):
    v = field.q ** m - 1
    return [PPParams(field, m, s, v // s) for s in range(1, v + 1) if v % s == 0]


def test_params_pinned():
    F49 = Field(7, 1, 2)
    prm = PPParams(F49, 1, 3, 2)
    assert (prm.d, prm.s_bar, prm.u) == (1, 3, 2)
    F25 = Field(5, 1, 2)
    prm2 = PPParams(F25, 1, 4, 1)
    assert (prm2.d, prm2.s_bar, prm2.u) == (1, 4, 1)


def test_params_errors():
    F25 = Field(5, 1, 2)
    with pytest.raises(ValueError):
        PPParams(F25, 1, 2, 3)  # 2*3 != 4
    with pytest.raises(ValueError):
        PPParams(F25, 3, 2, 2)  # m out of range
    with pytest.raises(ValueError):
        PPParams(F25, 0, 2, 2)
    with pytest.raises(ValueError):
        PPParams(F25, 1, 4, 0)


def test_params_reject_bools():
    F16 = Field(2, 1, 4)
    PPParams(F16, 1, 1, 1)  # the same values as ints are valid
    for args in [(True, 1, 1), (1, True, 1), (1, 1, True), (np.True_, 1, 1)]:
        with pytest.raises(TypeError, match="bool"):
            PPParams(F16, *args)


def test_params_divisibility_invariants():
    for spec in [(3, 1, 2), (5, 1, 2), (2, 1, 4), (2, 2, 2), (7, 1, 2)]:
        field = Field(*spec)
        for m in range(1, field.n + 1):
            for prm in all_params(field, m):
                group = field.order - 1
                assert prm.d == math.gcd(m, field.n)
                assert group % prm.s_bar == 0
                assert prm.t % prm.u == 0
                for i in range(1, field.n // prm.d + 1):
                    assert (field.q ** ((i - 1) * m) - 1) % prm.t == 0


def test_is_pp_pinned():
    F5 = Field(5)
    prm = PPParams(F5, 1, 2, 2)
    assert prm.is_permutation(F5(2)) is True
    assert prm.is_permutation(F5(4)) is False
    assert prm.is_permutation(F5(1)) is False
    with pytest.raises(ValueError):
        prm.is_permutation(F5(0))


def test_eval_f_pinned():
    F5 = Field(5)
    prm = PPParams(F5, 1, 2, 2)
    assert prm.evaluate(F5(2), F5(2)).index == 3
    assert prm.evaluate(F5(2), F5(0)) == F5.zero
    F7 = Field(7)
    assert PPParams(F7, 1, 2, 3).evaluate(F7(3), F7(6)).index == 1


def test_inverse_value_pinned():
    F5 = Field(5)
    prm = PPParams(F5, 1, 2, 2)
    assert prm.inverse_value(F5(2), F5(3)).index == 2
    assert prm.inverse_value(F5(2), F5(0)) == F5.zero
    F7 = Field(7)
    assert PPParams(F7, 1, 3, 2).inverse_value(F7(2), F7(6)).index == 3


def test_inverse_rejected_for_non_pp():
    F5 = Field(5)
    prm = PPParams(F5, 1, 2, 2)
    with pytest.raises(NotPermutationError):
        prm.inverse_value(F5(4), F5(2))
    with pytest.raises(NotPermutationError):
        prm.closed_inverse(F5(1))
    with pytest.raises(NotPermutationError):
        prm.inverse_values(F5(4))


def test_inverse_value_over_an_array_of_a():
    field = Field(3, 1, 4)
    prm = PPParams(field, 4, 2, 40)
    crit = prm.criterion_mask()
    good = np.nonzero(crit)[0] + 1
    bad = np.nonzero(~crit)[0] + 1
    assert good.size and bad.size
    ys = field.all_elements()
    rows = prm.inverse_value(field.element(good[:, None]), ys).index
    assert rows.shape == (good.size, field.order)
    for row, a in zip(rows, good):
        assert (row == prm.inverse_values(field(int(a)))).all(), a
    # one failing a rejects the whole array and is named in the error
    mixed = np.array([good[0], bad[1], good[1], bad[0]])
    with pytest.raises(NotPermutationError, match=f"a={bad[1]} is an s-th power"):
        prm.inverse_value(field.element(mixed[:, None]), ys)
    with pytest.raises(NotPermutationError, match=f"a={bad[0]} is an s-th power"):
        prm.inverse_value(field.element(bad[:, None]), ys)


def test_criterion_matches_oracle_bijectivity():
    for spec in [(2, 1, 3), (3, 1, 2), (5, 1, 1), (7, 1, 1), (2, 2, 2), (3, 1, 3)]:
        field = Field(*spec)
        for m in range(1, field.n + 1):
            for prm in all_params(field, m):
                for a in list(field.elements())[1:]:
                    table = tabulate(field, lambda x: prm.evaluate(a, x))
                    assert prm.is_permutation(a) == table.is_bijection(), (spec, prm, a)


def test_inverse_laws_small_sweep():
    for spec in [(3, 1, 2), (5, 1, 1), (7, 1, 1), (2, 2, 2)]:
        field = Field(*spec)
        for m in range(1, field.n + 1):
            for prm in all_params(field, m):
                for a in list(field.elements())[1:]:
                    if not prm.is_permutation(a):
                        continue
                    for x in field.elements():
                        assert prm.inverse_value(a, prm.evaluate(a, x)) == x
                        assert prm.evaluate(a, prm.inverse_value(a, x)) == x


def test_closed_inverse_pinned():
    F5 = Field(5)
    prm = PPParams(F5, 1, 2, 2)
    ci = prm.closed_inverse(F5(2))
    assert ci.scale == F5.one
    assert ci.g == Poly(F5, [2, 0, 1])
    assert ci.h == Poly(F5, [3])
    assert ci.t == 2
    assert ci.as_poly() == Poly(F5, [0, 0, 0, 1])


def test_closed_inverse_term_counts():
    for spec in [(3, 1, 2), (5, 1, 2), (7, 1, 2), (2, 2, 2)]:
        field = Field(*spec)
        for m in range(1, field.n + 1):
            for prm in all_params(field, m):
                for a in list(field.elements())[1:]:
                    if not prm.is_permutation(a):
                        continue
                    ci = prm.closed_inverse(a)
                    assert len(ci.g_terms) == prm.u
                    assert len(ci.h_terms) == field.n // prm.d
                    nu = sum(field.q ** (prm.d * l) for l in range(field.n // prm.d))
                    assert [e for e, _ in ci.g_terms] == [nu * prm.s * l for l in range(prm.u)]


def test_closed_inverse_agrees_with_pointwise():
    for spec in [(3, 1, 2), (5, 1, 2), (7, 1, 1), (2, 1, 4)]:
        field = Field(*spec)
        for m in range(1, field.n + 1):
            for prm in all_params(field, m):
                for a in list(field.elements())[1:]:
                    if not prm.is_permutation(a):
                        continue
                    got = prm.closed_inverse(a).as_poly()(field.element(np.arange(field.order))).index
                    for y in field.elements():
                        assert got[y.index] == prm.inverse_value(a, y).index


def test_closed_inverse_g_is_folded():
    # the literal g exponents reach nu*s*(u-1) = 4369*819*4 = 14,312,844
    field = Field(2, 1, 16)
    ci = PPParams(field, 12, 819, 5).closed_inverse(field(3))
    assert len(ci.g_terms) == 5
    assert len(ci.g.idx) <= field.order


def test_closed_inverse_poly_matches_interpolation():
    for spec in [(3, 1, 2), (5, 1, 1), (7, 1, 1), (3, 1, 3)]:
        field = Field(*spec)
        for m in range(1, field.n + 1):
            for prm in all_params(field, m):
                for a in list(field.elements())[1:]:
                    if not prm.is_permutation(a):
                        continue
                    table = tabulate(field, lambda x: prm.evaluate(a, x))
                    assert prm.inverse_polynomial(a) == inverse_poly_by_interpolation(table)


@pytest.mark.parametrize("spec", [(3, 1, 4), (2, 1, 8), (5, 1, 3), (7, 1, 2)])
def test_inverse_polynomial_matches_the_power_chain(spec):
    # the dense power y (scale g h)^t by square and multiply, independent of
    # the values on the cycle that inverse_polynomial interpolates
    field = Field(*spec)
    rng = np.random.default_rng(field.order)
    ts, us = set(), set()
    for m in range(1, field.n + 1):
        for prm in all_params(field, m):
            pp = prm.a_indices()[prm.criterion_mask()]
            for a in rng.choice(pp, size=min(3, len(pp)), replace=False):
                ci = prm.closed_inverse(int(a))
                terms = [(i + j, c * d) for i, c in ci.g_terms for j, d in ci.h_terms]
                chain = poly_from_terms(field, terms).pow_mod(ci.t)
                chain = (chain * Poly(field, [0, ci.scale ** ci.t])).reduce()
                assert prm.inverse_polynomial(int(a)) == chain, (prm, a)
                ts.add(prm.t)
                us.add(prm.u)
    assert 1 in ts and max(us) > 1


def test_vector_paths_match_scalar():
    field = Field(5, 1, 2)
    prm = PPParams(field, 2, 4, 6)
    imgs = prm.images_for()
    crit = prm.criterion_mask()
    for ai in range(1, 25):
        a = field(ai)
        assert crit[ai - 1] == prm.is_permutation(a)
        for xv in range(25):
            assert imgs[ai - 1, xv] == prm.evaluate(a, field(xv)).index
        if crit[ai - 1]:
            iv = prm.inverse_values(a)
            for yv in range(25):
                assert iv[yv] == prm.inverse_value(a, field(yv)).index


def _h_exponents(prm):
    """(E_i, G_i) of the terms a^{-E_i} y^{G_i} of h, as geometric sums."""
    qm = prm.field.q ** prm.m
    return [
        (sum(qm ** l for l in range(i)), prm.s * sum(qm ** l for l in range(i - 1)))
        for i in range(1, prm.field.n // prm.d + 1)
    ]


def _h_reference(prm, a, y):
    ainv = a.inverse()
    return [ainv ** E * y ** G for E, G in _h_exponents(prm)]


@pytest.mark.parametrize(
    "spec, m, s",
    [
        ((2, 1, 32), 2, 3),
        ((3, 1, 20), 1, 2),
        ((7, 1, 11), 1, 3),
        ((251, 1, 4), 1, 2),
        ((3, 2, 5), 1, 2),
        ((3, 2, 5), 2, 16),
        ((7, 1, 11), 11, 2),  # m = n: n/d = 1
    ],
)
def test_h_recurrence_matches_geometric_exponents(spec, m, s):
    field = Field(*spec)
    K = field._kernel  # the reference's arithmetic, whichever backend the field's scalars use
    prm = PPParams(field, m, s, (field.q ** m - 1) // s)
    rng = np.random.default_rng(field.order % 1000)
    for ai, yi in [(1, 0), (int(rng.integers(1, field.order)), 0), (2, 1)] + [
        tuple(int(v) for v in rng.integers(1, field.order, 2)) for _ in range(3)
    ]:
        a, y = field(ai), field(yi)
        ainv = K.power(K.pack(ai), field.order - 2)
        ref = [field(K.unpack(K.mul(K.power(ainv, E), K.power(K.pack(yi), G)))) for E, G in _h_exponents(prm)]
        assert list(frobenius_chain(*prm._h_chain(a.inverse(), y ** s))) == ref, (ai, yi)
        assert prm.h_value(a, y) == functools.reduce(operator.add, ref), (ai, yi)


@pytest.mark.parametrize("spec, m, s", [((2, 1, 10), 4, 3), ((3, 1, 6), 2, 2), ((5, 1, 4), 4, 4)])
def test_h_recurrence_on_an_a_column(spec, m, s):
    # as check_family calls it: a column of a against the whole-field y array
    field = Field(*spec)
    prm = PPParams(field, m, s, (field.q ** m - 1) // s)
    a = field.element(np.arange(1, field.order, 7)[:, None])
    y = field.all_elements()
    ref = _h_reference(prm, a, y)
    got = list(frobenius_chain(*prm._h_chain(a.inverse(), y ** s)))
    assert len(got) == len(ref) == field.n // prm.d
    for term, expected in zip(got, ref):
        assert np.array_equal(*np.broadcast_arrays(term.index, expected.index))
    total = functools.reduce(operator.add, ref)
    assert np.array_equal(*np.broadcast_arrays(prm.h_value(a, y).index, total.index))


def test_h_value_makes_two_general_powers(monkeypatch):
    # a^{-1} and y^s; every later term is a Frobenius map and one product
    field = Field(2, 1, 32)
    prm = PPParams(field, 2, 3, 1)
    a, y = field(123456789), field(987654321)
    expected = prm.h_value(a, y)  # builds the map for q^m = 2^2 once
    calls = []
    real = gf._PackedKernel.pow

    def spy(self, v, k):
        calls.append(k)
        return real(self, v, k)

    monkeypatch.setattr(gf._PackedKernel, "pow", spy)
    assert prm.h_value(a, y) == expected
    assert len(calls) <= 2, calls


def test_criterion_comes_from_the_norm(monkeypatch):
    # a^((Q-1)/s_bar) = N(a)^((q^d-1)/s_bar): on 2^32 with (m, s) = (2, 3)
    # both a-exponents are 1431655765, and only the norm's is raised
    field = Field(2, 1, 32)
    prm = PPParams(field, 2, 3, 1)
    assert prm._crit_exp == prm._norm_exp
    a, y = field(3), field(987654321)
    assert prm.is_permutation(a)
    expected = prm.inverse_value(a, y)  # builds the Frobenius maps once
    assert prm.evaluate(a, expected) == y
    calls, norms = [], []
    real_pow, real_norm = gf._PackedKernel.pow, gf._PackedKernel._norm

    def spy_pow(self, v, k):
        calls.append(k)
        return real_pow(self, v, k)

    def spy_norm(self, v, P, count):
        norms.append((P, count))
        return real_norm(self, v, P, count)

    def no_criterion_power(self, a):
        raise AssertionError("criterion_power called")

    monkeypatch.setattr(gf._PackedKernel, "pow", spy_pow)
    monkeypatch.setattr(gf._PackedKernel, "_norm", spy_norm)
    monkeypatch.setattr(PPParams, "criterion_power", no_criterion_power)
    assert prm.inverse_value(a, y) == expected
    # N(a), N(y^s), a^-1 and the denominator's inverse are Frobenius chains:
    # no full-size exponent reaches square and multiply
    assert not any(k.bit_length() >= 31 for k in calls), calls
    assert norms.count((4, 16)) == 2 and norms.count((2, 31)) == 2, norms
    prm.closed_inverse(a)  # its scale reuses the verdict's power


def test_poly_from_terms_folds_large_exponents():
    F9 = Field(3, 1, 2)
    # x^9 -> x, so (9, 1) and (1, 2) accumulate on the same slot
    p = poly_from_terms(F9, [(9, F9.one), (1, F9(2))])
    assert p == Poly(F9)
    assert poly_from_terms(F9, [(0, F9(2)), (10, F9.one)]) == Poly(F9, [2, 0, 1])


# -- linearized binomial -----------------------------------------------------


def test_linearized_pinned_f9():
    F9 = Field(3, 1, 2)
    a = F9.from_coeffs([1, 1])  # 1 + i
    assert linearized_is_permutation(F9, 1, a) is True
    ell_inv = linearized_inverse(F9, 1, a)
    assert ell_inv == Poly(F9, [0, 5, 0, 2])  # (2+i) x + 2 x^3
    ell = linearized_poly(F9, 1, a)
    ys = F9.all_elements()  # a reduced polynomial is fixed by its values
    assert (ell_inv(ell(ys)) == ys).all()
    assert (ell(ell_inv(ys)) == ys).all()
    i = F9.from_coeffs([0, 1])
    assert linearized_is_permutation(F9, 1, i) is False
    with pytest.raises(NotPermutationError):
        linearized_inverse(F9, 1, i)


def test_linearized_m_range():
    F9 = Field(3, 1, 2)
    a = F9.from_coeffs([1, 1])
    for m in (0, F9.n + 1):
        for fn in (linearized_poly, linearized_is_permutation, linearized_inverse):
            with pytest.raises(ValueError, match="m must lie in"):
                fn(F9, m, a)
    # m = n: L folds to (1 - a) x, a permutation exactly when a != 1, inverse x / (1 - a)
    ys = F9.all_elements()
    for a in list(F9.elements())[1:]:
        ell = linearized_poly(F9, F9.n, a)
        assert ell == Poly(F9, [0, F9.one - a])
        assert linearized_is_permutation(F9, F9.n, a) == (a != F9.one)
        if a != F9.one:
            inv = linearized_inverse(F9, F9.n, a)
            assert inv == Poly(F9, [0, (F9.one - a).inverse()])
            assert (inv(ell(ys)) == ys).all()
    with pytest.raises(NotPermutationError):
        linearized_inverse(F9, F9.n, F9.one)
    # a prime field has m = n = 1 only
    F7 = Field(7)
    a = F7(3)
    assert linearized_is_permutation(F7, 1, a) and not linearized_is_permutation(F7, 1, F7.one)
    ys = F7.all_elements()
    assert (linearized_inverse(F7, 1, a)(linearized_poly(F7, 1, a)(ys)) == ys).all()


def test_linearized_sweep_small():
    for spec in [(3, 1, 2), (2, 1, 4), (2, 2, 2), (5, 1, 2)]:
        field = Field(*spec)
        for m in range(1, field.n):
            d = math.gcd(m, field.n)
            ell_mask = field.norm(field.element(np.arange(1, field.order)), d) != field.one
            imgs = linearized_images(field, m, np.arange(1, field.order))
            for ai in range(1, field.order):
                a = field(ai)
                ell = linearized_poly(field, m, a)
                table = PermTable(field, imgs[ai - 1])
                for x in field.elements():
                    assert ell(x) == x ** (field.q ** m) - a * x
                assert table.is_bijection() == bool(ell_mask[ai - 1])
                assert linearized_is_permutation(field, m, a) == bool(ell_mask[ai - 1])
                if ell_mask[ai - 1]:
                    ys = field.all_elements()
                    assert (linearized_inverse(field, m, a)(ell(ys)) == ys).all()


def test_norm_rejects_non_divisor():
    field = Field(3, 1, 6)
    with pytest.raises(ValueError, match="does not divide"):
        field.norm(field(2), 4)


def test_linearized_selections_must_be_integer():
    field = Field(3, 1, 2)
    for bad in ([2.9], ["3"], [True]):
        with pytest.raises(TypeError, match="integer"):
            field.element(np.asarray(bad))
        with pytest.raises(TypeError, match="integer"):
            linearized_images(field, 1, bad)


# -- gcd identity ------------------------------------------------------------


def test_gcd_halfpower_pinned():
    assert gcd_halfpower(3, 2, 4) == 4
    assert gcd_halfpower(3, 2, 3) == 2
    assert gcd_halfpower(3, 1, 1) == 1


def test_gcd_halfpower_matches_direct_gcd():
    for a in (3, 5, 7, 9):
        for m in range(1, 9):
            for n in range(1, 9):
                assert gcd_halfpower(a, m, n) == math.gcd((a ** m - 1) // 2, a ** n - 1)


def test_gcd_halfpower_rejects_even_base():
    with pytest.raises(ValueError):
        gcd_halfpower(4, 2, 3)
    with pytest.raises(ValueError):
        gcd_halfpower(2, 1, 1)
    with pytest.raises(ValueError):
        gcd_halfpower(3, 0, 1)


# -- the sum of a Frobenius chain by doubling ----------------------------------


def _chain_sum(term, w, qm, count):
    return functools.reduce(operator.add, frobenius_chain(term, w, qm, count))


@pytest.mark.parametrize("spec", [(3, 1, 6), (2, 1, 32), (3, 1, 20), (7, 1, 11), (251, 1, 4)])
def test_frobenius_sum_matches_the_chain(spec):
    field = Field(*spec)
    rng = np.random.default_rng(field.order % 997)
    for count in range(1, 41):
        # qm = p^j, up to p^D = Q (the identity map); the terms need not be units
        qm = field.p ** (1 + count % field.degree) if count % 3 else field.order
        term, w = (field(int(v)) for v in rng.integers(0, field.order, 2))
        assert frobenius_sum(term, w, qm, count) == _chain_sum(term, w, qm, count), (count, qm)


@pytest.mark.parametrize("spec, m", [((3, 1, 6), 1), ((2, 1, 9), 1), ((2, 2, 4), 3)])
def test_frobenius_sum_on_a_by_y_arrays(spec, m):
    # as h is summed on a check_family chunk: an a column, w over (a x y)
    field = Field(*spec)
    qm = field.q ** m
    ainv = field.element(np.arange(1, field.order, 41)[:, None]).inverse()
    w = ainv * field.all_elements() ** 3
    for count in range(1, 41):
        got = frobenius_sum(ainv, w, qm, count).index
        want = _chain_sum(ainv, w, qm, count).index
        assert got.shape == want.shape and np.array_equal(got, want), count


class _Counting:
    """Wraps an element and counts the products, powers and sums taken on it."""

    def __init__(self, element, tally):
        self.element, self.tally, self.field = element, tally, element.field

    def _op(self, name, fn, other):
        self.tally[name] += 1
        other = other.element if isinstance(other, _Counting) else other
        return _Counting(fn(self.element, other), self.tally)

    def __mul__(self, other):
        return self._op("mul", operator.mul, other)

    def __add__(self, other):
        return self._op("add", operator.add, other)

    def __pow__(self, k):
        return self._op("pow", operator.pow, k)


def test_frobenius_sum_takes_no_more_operations_than_the_chain():
    field = Field(3, 1, 20)
    term, w = field(12345), field(67890)
    totals = {}
    for count in range(1, 41):
        doubled, chained = dict.fromkeys(("mul", "pow", "add"), 0), dict.fromkeys(("mul", "pow", "add"), 0)
        got = frobenius_sum(_Counting(term, doubled), _Counting(w, doubled), 3, count)
        want = _chain_sum(_Counting(term, chained), _Counting(w, chained), 3, count)
        assert got.element == want.element, count
        assert chained == dict.fromkeys(("mul", "pow", "add"), count - 1)
        assert all(doubled[k] <= chained[k] for k in doubled), (count, doubled)
        totals[count] = (sum(doubled.values()), sum(chained.values()))
    # N is only carried forward for a later doubling
    assert [totals[c] for c in (2, 3, 4, 8, 20)] == [(3, 3), (6, 6), (8, 9), (13, 21), (23, 57)]
