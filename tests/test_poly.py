"""Polynomial ring mod x^Q - x: reduction, composition, interpolation."""

import random

import pytest

from ppinv.gf import Field
from ppinv.poly import Poly, family_poly, _comb_mod_p


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
