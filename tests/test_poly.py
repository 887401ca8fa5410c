"""Polynomial ring mod x^Q - x: reduction, composition, interpolation."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppinv.gf import Field, is_prime
from ppinv.poly import INTERP_LIMIT, Poly, family_poly, _comb_mod_p, _limb_split


def rand_poly(field, max_len, rng):
    return Poly(field, [rng.randrange(field.order) for _ in range(rng.randrange(1, max_len))])


def test_eval_pinned():
    F5 = Field(5)
    p = Poly(F5, [0, 4, 0, 1, 0, 1])  # x^5 + x^3 + 4x
    assert p(F5(2)).index == 3
    assert Poly(F5, [3])(F5(4)).index == 3
    assert Poly.x(F5)(F5(4)).index == 4
    assert Poly.zero(F5)(F5(2)) == F5.zero


def test_reduce_rules_pinned():
    F5 = Field(5)
    assert Poly.monomial(F5, 5).reduce() == Poly.x(F5)          # x^Q -> x
    assert Poly.monomial(F5, 4).reduce() == Poly.monomial(F5, 4)  # x^{Q-1} stays
    x3 = Poly.monomial(F5, 3)
    assert x3.mul_mod(x3) == Poly.monomial(F5, 2)               # x^6 -> x^2


def test_reduce_preserves_function():
    rng = random.Random(7)
    for spec in [(2, 1, 2), (3, 1, 2), (5, 1, 1), (2, 2, 1)]:
        F = Field(*spec)
        for _ in range(25):
            p = rand_poly(F, 3 * F.order + 2, rng)
            r = p.reduce()
            assert r.degree < F.order
            for x in F.elements():
                assert r(x) == p(x)


def test_mul_matches_pointwise_product():
    rng = random.Random(11)
    for spec in [(3, 1, 2), (2, 1, 3), (5, 1, 1), (2, 2, 1)]:
        F = Field(*spec)
        for _ in range(20):
            a = rand_poly(F, 10, rng)
            b = rand_poly(F, 10, rng)
            prod = a * b
            assert prod.degree <= a.degree + b.degree
            for x in F.elements():
                assert prod(x) == a(x) * b(x)


def test_add_neg_scale_shift():
    F7 = Field(7)
    a = Poly(F7, [1, 2, 3])
    b = Poly(F7, [6, 5])
    assert (a + b) == Poly(F7, [0, 0, 3])
    assert (a - a) == Poly.zero(F7)
    assert (-a) == Poly(F7, [6, 5, 4])
    assert a.scale(F7(2)) == Poly(F7, [2, 4, 6])
    assert a.shift(2) == Poly(F7, [0, 0, 1, 2, 3])


def test_compose_pinned():
    F5 = Field(5)
    x3 = Poly.monomial(F5, 3)
    assert x3.compose_mod(x3) == Poly.x(F5)  # x^9 -> x
    f = family_poly(F5, 2, 2, F5(2))
    assert Poly.x(F5).compose_mod(f) == f.reduce()
    assert f.compose_mod(Poly.x(F5)) == f.reduce()


def test_compose_agrees_with_pointwise():
    rng = random.Random(3)
    for spec in [(3, 1, 2), (5, 1, 1), (2, 1, 3)]:
        F = Field(*spec)
        for _ in range(12):
            outer = rand_poly(F, 8, rng)
            inner = rand_poly(F, 8, rng)
            comp = outer.compose_mod(inner)
            assert comp.degree < F.order
            for x in F.elements():
                assert comp(x) == outer(inner(x))


def test_pow_mod_matches_repeated_multiplication():
    rng = random.Random(5)
    for spec in [(3, 1, 2), (2, 1, 3), (7, 1, 1)]:
        F = Field(*spec)
        for _ in range(8):
            p = rand_poly(F, 6, rng)
            ref = Poly.one(F)
            for k in range(40):
                assert p.pow_mod(k) == ref
                ref = ref.mul_mod(p)
    F9 = Field(3, 1, 2)
    with pytest.raises(ValueError):
        Poly.x(F9).pow_mod(-2)


def test_frobenius_is_pth_power():
    rng = random.Random(13)
    for spec in [(3, 1, 2), (2, 1, 4), (5, 1, 1)]:
        F = Field(*spec)
        for _ in range(10):
            p = rand_poly(F, 9, rng)
            fr = p.frobenius()
            assert fr == p.pow_mod(F.p)
            for x in F.elements():
                assert fr(x) == p(x) ** F.p


def test_interpolate_pinned():
    F5 = Field(5)
    assert Poly.interpolate(F5, range(5)) == Poly.x(F5)
    assert Poly.interpolate(F5, [3] * 5) == Poly(F5, [3])
    cubes = [pow(k, 3, 5) for k in range(5)]
    assert Poly.interpolate(F5, cubes) == Poly.monomial(F5, 3)


def test_interpolate_round_trip():
    rng = random.Random(17)
    # Q = 2 and Q = 3 leave the middle range 1 <= k <= Q - 2 empty or a single term
    for spec in [(3, 1, 2), (2, 2, 1), (11, 1, 1), (2, 1, 1), (3, 1, 1), (2, 1, 7), (5, 1, 3)]:
        F = Field(*spec)
        for _ in range(10):
            p = rand_poly(F, F.order + 1, rng)  # up to degree Q - 1
            table = [p(x).index for x in F.elements()]
            assert Poly.interpolate(F, table) == p.reduce()


def test_interpolate_rejects_bad_tables():
    F5 = Field(5)
    with pytest.raises(ValueError, match="exactly 5 images"):
        Poly.interpolate(F5, range(4))
    with pytest.raises(ValueError, match="exactly 5 images"):
        Poly.interpolate(F5, range(6))
    with pytest.raises(ValueError, match="exactly 5 images"):
        Poly.interpolate(F5, [[0, 1, 2, 3, 4]])
    with pytest.raises(ValueError, match="must lie in"):
        Poly.interpolate(F5, [0, 1, 2, 3, 5])
    with pytest.raises(ValueError, match="must lie in"):
        Poly.interpolate(F5, [0, 1, -1, 3, 4])


def test_family_poly_pinned():
    F5 = Field(5)
    assert family_poly(F5, 2, 2, F5(2)) == Poly(F5, [0, 4, 0, 1, 0, 1])
    F7 = Field(7)
    assert family_poly(F7, 3, 2, F7(2)) == Poly(F7, [0, 4, 0, 0, 3, 0, 0, 1])
    # t = 1 collapses to the linearized binomial x^{q^m} - a x
    assert family_poly(F5, 4, 1, F5(2)) == Poly(F5, [0, 3, 0, 0, 0, 1])
    with pytest.raises(ValueError):
        family_poly(F5, 2, 2, F5(0))
    with pytest.raises(ValueError):
        family_poly(F5, 0, 2, F5(2))


def test_family_poly_matches_direct_evaluation():
    for spec, s, t in [((3, 1, 2), 2, 4), ((5, 1, 1), 4, 1), ((2, 2, 1), 1, 3)]:
        F = Field(*spec)
        for a in F.units():
            p = family_poly(F, s, t, a)
            for x in F.elements():
                assert p(x) == x * (x ** s - a) ** t


def test_comb_mod_p():
    from math import comb

    for p in (2, 3, 5, 7):
        for t in range(0, 40):
            for k in range(0, t + 1):
                assert _comb_mod_p(t, k, p) == comb(t, k) % p


def test_text_round_trip():
    F5 = Field(5)
    p = Poly(F5, [4, 0, 1, 0, 0, 1])
    assert p.to_text() == "4,0,1,0,0,1"
    assert Poly(F5, [int(c) for c in p.to_text().split(",")]) == p
    assert Poly.zero(F5).to_text() == ""


def test_eval_terms_matches_scalar():
    import numpy as np

    F9 = Field(3, 1, 2)
    for p in (Poly(F9, [2, 7, 0, 5, 1]), Poly.monomial(F9, 7, 4)):
        got = p(F9.element(np.arange(9))).index
        for x in F9.elements():
            assert got[x.index] == p(x).index


# -- FFT product against a schoolbook digit convolution ------------------------

def schoolbook_mul(a, b):
    """Reference product: one integer convolution per pair of base-p digit columns."""
    f = a.field
    T = f.tables
    D, p = f.degree, f.p
    A, B = T.dig[a.idx], T.dig[b.idx]
    C = np.zeros((len(a.idx) + len(b.idx) - 1, 2 * D - 1), dtype=np.int64)
    for u in range(D):
        for v in range(D):
            C[:, u + v] = (C[:, u + v] + np.convolve(A[:, u], B[:, v]) % p) % p
    # x^k for k >= D, from the highest down, folds into the digits below D
    for k in range(2 * D - 2, D - 1, -1):
        C[:, :D] = (C[:, :D] + C[:, k:k + 1] * T.dig[f._pow_idx(p, k)]) % p
    return Poly(f, C[:, :D] @ T.pw)


def longest_single_limb(p, degree, cap):
    """Largest length <= cap at which equal-length operands need no limb split."""
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _limb_split(p, degree, mid, mid)[0] == 1:
            lo = mid
        else:
            hi = mid - 1
    return lo


@pytest.mark.parametrize(
    "spec", [(2, 1, 10), (3, 1, 6), (2, 5, 2), (5, 1, 4), (251, 1, 2), (65521, 1, 1), (1048573, 1, 1)]
)
def test_fft_product_matches_schoolbook(spec):
    F = Field(*spec)
    Q, p, D = F.order, F.p, F.degree
    rng = np.random.default_rng(Q)
    # reduced operands are at most Q long; 4096 keeps the reference quick
    cap = min(Q, 4096)
    top = longest_single_limb(p, D, cap)
    assert _limb_split(p, D, top, top)[0] == 1
    if p > 1000:  # the two large primes need limbs, even below Q
        assert top < cap and _limb_split(p, D, top + 1, top + 1)[0] > 1
        assert _limb_split(p, D, Q, Q)[0] > 1
    worst = np.full(cap, Q - 1, dtype=np.int64)  # every digit p - 1
    cases = [
        (worst[:1], worst[:1]),
        (rng.integers(1, Q, 1), rng.integers(0, Q, 37)),
        (rng.integers(0, Q, 300), rng.integers(1, Q, 1)),
        (rng.integers(0, Q, 257), rng.integers(0, Q, 300)),
        (worst[:top], worst[:top]),
        (rng.integers(0, Q, top), rng.integers(0, Q, top)),
        (worst, worst[1:]),
    ]
    for ia, ib in cases:
        a, b = Poly(F, ia), Poly(F, ib)
        assert a * b == schoolbook_mul(a, b), (len(ia), len(ib))


@st.composite
def _fft_fields(draw):
    degree = draw(st.integers(1, 12))
    top = int(round(4096 ** (1 / degree)))
    while top ** degree > 4096:
        top -= 1
    x = draw(st.integers(2, max(top, 2)))
    p = next(c for c in range(x, 1, -1) if is_prime(c))
    e = draw(st.sampled_from([e for e in range(1, degree + 1) if degree % e == 0]))
    return Field(p, e, degree // e)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), field=_fft_fields())
def test_fft_product_is_pointwise_product(data, field):
    coeffs = st.lists(st.integers(0, field.order - 1), min_size=1, max_size=48)
    f = Poly(field, np.array(data.draw(coeffs, label="f"), dtype=np.int64))
    g = Poly(field, np.array(data.draw(coeffs, label="g"), dtype=np.int64))
    x = field.element(np.arange(field.order))
    # a zero operand evaluates to the scalar zero
    lhs, rhs = (np.broadcast_to(v.index, field.order) for v in ((f * g)(x), f(x) * g(x)))
    assert np.array_equal(lhs, rhs)


def test_p_power_digits_make_no_products(monkeypatch):
    from ppinv.family import linearized_inverse, linearized_is_permutation, linearized_poly

    calls = []
    product = Poly.__mul__

    def spy(self, other):
        calls.append((len(self.idx), len(other.idx)))
        return product(self, other)

    monkeypatch.setattr(Poly, "__mul__", spy)
    rng = random.Random(19)
    composed = 0
    for spec in [(2, 1, 6), (3, 1, 4), (5, 1, 3), (3, 2, 2)]:
        F = Field(*spec)
        f = rand_poly(F, F.order, rng)
        image = f.reduce()
        for k in range(F.degree + 2):
            assert f.pow_mod(F.p ** k) == image
            image = image.frobenius()
        for m in range(1, F.n):
            # none when the norm onto F_(q^d), d = gcd(m, n), is always 1 (q^d = 2)
            a = next((a for a in F.units() if linearized_is_permutation(F, m, a)), None)
            if a is not None:
                inverse = linearized_inverse(F, m, a)
                assert inverse.compose_mod(linearized_poly(F, m, a)) == Poly.x(F)
                composed += 1
    assert composed >= 4 and calls == []


def test_interpolation_memory_is_bounded():
    import tracemalloc

    F = Field(2, 1, 11)
    assert F.order == INTERP_LIMIT
    F.tables
    images = np.random.default_rng(3).permutation(F.order)
    poly = Poly.interpolate(F, images)  # warm-up
    tracemalloc.start()
    try:
        assert Poly.interpolate(F, images) == poly
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
