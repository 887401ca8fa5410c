"""Polynomial ring mod x^Q - x: reduction, products, powers, interpolation."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ppinv.family import PPParams
from ppinv.gf import Field, is_prime
from ppinv.oracle import PermTable
from ppinv.poly import Poly, poly_from_terms, _cycle_coeffs, _limb_split, _symmetry
from ppinv.verify import field_splits


def rand_poly(field, max_len, rng):
    return Poly(field, [rng.randrange(field.order) for _ in range(rng.randrange(1, max_len))])


def test_eval_pinned():
    F5 = Field(5)
    p = Poly(F5, [0, 4, 0, 1, 0, 1])  # x^5 + x^3 + 4x
    assert p(F5(2)).index == 3
    assert Poly(F5, [3])(F5(4)).index == 3
    assert Poly(F5, [0, 1])(F5(4)).index == 4
    assert Poly(F5)(F5(2)) == F5.zero


def test_reduce_rules_pinned():
    F5 = Field(5)
    x = Poly(F5, [0, 1])
    x4 = Poly(F5, [0, 0, 0, 0, 1])
    assert Poly(F5, [0, 0, 0, 0, 0, 1]).reduce() == x  # x^Q -> x
    assert x4.reduce() == x4                            # x^{Q-1} stays
    x3 = Poly(F5, [0, 0, 0, 1])
    assert (x3 * x3).reduce() == Poly(F5, [0, 0, 1])    # x^6 -> x^2


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


def test_pow_mod_matches_repeated_multiplication():
    rng = random.Random(5)
    for spec in [(3, 1, 2), (2, 1, 3), (7, 1, 1)]:
        F = Field(*spec)
        for _ in range(8):
            p = rand_poly(F, 6, rng)
            ref = Poly(F, [1])
            for k in range(40):
                assert p.pow_mod(k) == ref
                ref = ref_mul_mod(ref, p)
    F9 = Field(3, 1, 2)
    with pytest.raises(ValueError):
        Poly(F9, [0, 1]).pow_mod(-2)


def test_frobenius_is_pth_power():
    rng = random.Random(13)
    for spec in [(3, 1, 2), (2, 1, 4), (5, 1, 1)]:
        F = Field(*spec)
        Q = F.order
        # unreduced inputs too: frobenius() folds kp without reducing k first
        long = [
            Poly(F, [rng.randrange(Q) for _ in range(n - 1)] + [rng.randrange(1, Q)])
            for n in (Q + 1, 2 * Q, 3 * Q + 5)
        ]
        for p in [rand_poly(F, 9, rng) for _ in range(10)] + long:
            fr = p.frobenius()
            assert fr.degree < Q
            assert fr == p.pow_mod(F.p)
            for x in F.elements():
                assert fr(x) == p(x) ** F.p


def test_interpolate_pinned():
    F5 = Field(5)
    assert Poly.interpolate(F5, range(5)) == Poly(F5, [0, 1])
    assert Poly.interpolate(F5, [3] * 5) == Poly(F5, [3])
    cubes = [pow(k, 3, 5) for k in range(5)]
    assert Poly.interpolate(F5, cubes) == Poly(F5, [0, 0, 0, 1])


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
    # truncating floats or bools would interpolate some other table
    for bad in ([0.7, 1.2, 2.9, 3.1, 4.0], np.arange(5.0), [True, False, True, False, True], list("01234")):
        with pytest.raises(TypeError, match="integer"):
            Poly.interpolate(F5, bad)
    assert Poly.interpolate(F5, np.arange(5, dtype=np.uint8)) == Poly(F5, [0, 1])


def test_index_arrays_share_one_check():
    """Field.element, PermTable, Poly.interpolate and Poly(field, array) refuse
    a bad index array with the same exception and message, and take any
    integer dtype alike."""
    F5 = Field(5)
    entries = (F5.element, lambda a: PermTable(F5, a), lambda a: Poly.interpolate(F5, a), lambda a: Poly(F5, a))
    bad = {
        TypeError: (np.arange(5.0), np.ones(5, dtype=bool), np.array(list("01234"))),
        ValueError: (np.array([0, 1, -1, 3, 4]), np.array([0, 1, 2, 3, 5])),
    }
    for kind, tables in bad.items():
        for table in tables:
            caught = set()
            for call in entries:
                with pytest.raises(kind) as info:
                    call(table)
                caught.add((info.type, str(info.value)))
            assert len(caught) == 1, caught
    assert str(info.value) == "element indices must lie in [0, 5)"  # the last table: an entry equal to Q
    table = [0, 2, 4, 1, 3]  # x -> 2x
    results = [
        (F5.element(a).index.tolist(), PermTable(F5, a), Poly.interpolate(F5, a), Poly(F5, a))
        for a in (np.array(table, dtype=dtype) for dtype in (np.int64, np.int32, np.uint8))
    ]
    assert results == [(table, PermTable(F5, table), Poly(F5, [0, 2]), Poly(F5, table))] * 3
    F9 = Field(3, 1, 2)
    with pytest.raises(TypeError):
        F9.element([1, 1])  # digits go through from_coeffs
    assert F9.from_coeffs([1, 1]) == F9(4)


def test_text_round_trip():
    F5 = Field(5)
    p = Poly(F5, [4, 0, 1, 0, 0, 1])
    assert p.to_text() == "4,0,1,0,0,1"
    assert Poly(F5, [int(c) for c in p.to_text().split(",")]) == p
    assert Poly(F5).to_text() == ""


def test_eval_terms_matches_scalar():
    import numpy as np

    F9 = Field(3, 1, 2)
    for p in (Poly(F9, [2, 7, 0, 5, 1]), Poly(F9, [0, 0, 0, 0, 0, 0, 0, 4])):
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
        C[:, :D] = (C[:, :D] + C[:, k:k + 1] * T.dig[(f(p) ** k).index]) % p
    return Poly(f, C[:, :D] @ T.pw)


def longest_single_limb(p, degree, cap):
    """Largest length <= cap at which equal-length operands need no limb split."""
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _limb_split(p, degree, mid, mid) == 1:
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
    assert _limb_split(p, D, top, top) == 1
    if p > 1000:  # the two large primes need limbs, even below Q
        assert top < cap and _limb_split(p, D, top + 1, top + 1) > 1
        assert _limb_split(p, D, Q, Q) > 1
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


# the fields near the 2^16 oracle cap with the largest digits for their degree
LARGEST_PLANS = [(65521, 1, 1), (2, 1, 16), (3, 1, 10), (5, 1, 7), (7, 1, 5), (13, 1, 4), (31, 1, 3), (251, 1, 2), (257, 1, 2)]


@pytest.mark.parametrize("spec", LARGEST_PLANS)
def test_fft_product_exact_at_the_largest_plan(spec):
    # a plan multiplies M by 2M - 1 coefficients, M = (Q - 1)/e; only 65521
    # needs a second limb.  The e = 1 product is the window M - 1 .. 2M - 2
    # of their cyclic convolution, where every sum has M terms: for every
    # digit p - 1 each is M (Q - 1)^2, and for random operands sampled sums
    # are compared with the schoolbook sum in table arithmetic
    import ppinv.poly

    field = Field(*spec)
    T, Q, p = field.tables, field.order, field.p
    for M in ((Q - 1) // 2, Q - 1):
        r = _limb_split(p, field.degree, M, 2 * M - 1)
        assert r == (2 if p == 65521 else 1), M
    size = 1 << (2 * M - 2).bit_length()
    window = slice(M - 1, 2 * M - 1)

    def window_sums(a, b):
        A, B = (ppinv.poly._transform(field, x, size, r) for x in (a, b))
        return ppinv.poly._convolve(field, A, B, size, window)

    worst = np.full(2 * M - 1, Q - 1, dtype=np.int64)
    assert np.array_equal(window_sums(worst[:M], worst), np.full(M, T.mul(T.mul(Q - 1, Q - 1), M % p)))
    rng = np.random.default_rng(Q)
    a, b = rng.integers(0, Q, M), rng.integers(0, Q, 2 * M - 1)
    sums = window_sums(a, b)
    for k in [M - 1, 2 * M - 2, *rng.integers(M - 1, 2 * M - 1, 6)]:
        assert sums[k - M + 1] == T.sum_terms(T.mul(a, b[k - np.arange(M)])), k


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


def test_p_power_exponents_match_iterated_frobenius():
    from ppinv.family import linearized_inverse, linearized_is_permutation, linearized_poly

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
            a = next((a for a in list(F.elements())[1:] if linearized_is_permutation(F, m, a)), None)
            if a is not None:
                # a reduced polynomial is fixed by its values, so the pointwise identity is exact
                ys = F.all_elements()
                inverse, ell = linearized_inverse(F, m, a), linearized_poly(F, m, a)
                assert (inverse(ell(ys)) == ys).all()
                composed += 1
    assert composed >= 4


@pytest.mark.parametrize("n, bound", [(11, 4 * 2 ** 20), (16, 160 * 2 ** 20)], ids=["2^11", "2^16"])
def test_interpolation_memory_is_bounded(n, bound):
    # the cold call builds the field's chirp plan, the warm one reuses it
    import tracemalloc

    F = Field(2, 1, n)
    F.tables
    images = np.random.default_rng(3).permutation(F.order)
    peaks = []
    tracemalloc.start()
    try:
        poly = Poly.interpolate(F, images)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        assert Poly.interpolate(F, images) == poly
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < bound, peaks


# -- interpolation against the group-sum formula --------------------------------

def group_sum_cycle(field, at_zero, values, e):
    """Reference: the W of degree <= M = (Q - 1)/e with W(0) = at_zero and
    W(g^(ej)) = values[j]: w_0 = W(0), w_k = S_k / M for 0 < k < M and
    w_M = S_M / M - W(0), S_k = sum_j W(g^(ej)) g^(-ejk) (the inverse DFT on
    the cycle, as w_0 + w_M = S_0 / M = S_M / M).

    The formula term by term in the log domain, one exp gather per term, in
    blocks of at most 2^14 terms.
    """
    T = field.tables
    L = field.order - 1
    M = L // e
    j = np.flatnonzero(values)
    logs = T.log[values[j]]
    k = np.arange(1, M + 1, dtype=np.int64)
    sums = np.zeros(M, dtype=np.int64)
    step = max(1, (1 << 14) // M)
    for lo in range(0, len(j), step):
        # log of W(g^(ej)) g^(-ejk) = log W(g^(ej)) + e (M - j) k mod L
        ex = np.multiply.outer(e * (M - j[lo:lo + step]), k)
        ex += logs[lo:lo + step, None]
        ex %= L
        sums = T.add(sums, T.sum_terms(T.exp[ex]))
    w = T.mul(sums, pow(M, -1, field.p))
    w[-1] = T.sub(w[-1], at_zero)
    return np.concatenate([[at_zero], w])


def group_sum_interpolate(field, images):
    """Reference: c_0 = F(0), c_k = -sum_j F(g^j) g^(-jk), c_L = -sum_x F(x)."""
    y_by_x = np.asarray(images, dtype=np.int64)
    return Poly(field, group_sum_cycle(field, y_by_x[0], y_by_x[field.tables.exp[:field.order - 1]], 1))


def _table(Q, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        return rng.permutation(Q)
    if kind == "random":
        return rng.integers(0, Q, Q)
    table = np.zeros(Q, dtype=np.int64)
    if kind == "zero-but-origin":
        table[0] = rng.integers(1, Q)
    elif kind == "sparse":
        at = rng.integers(0, Q, 3)
        table[at] = rng.integers(1, Q, 3)
    return table


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    split=st.sampled_from(field_splits(2048)),
    kind=st.sampled_from(["permutation", "random", "zero", "zero-but-origin", "sparse"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(split=(2, 1, 1), kind="random", seed=1)
@example(split=(2, 1, 1), kind="zero-but-origin", seed=1)
@example(split=(3, 1, 1), kind="permutation", seed=2)
@example(split=(2, 1, 2), kind="random", seed=3)
@example(split=(2, 2, 1), kind="zero-but-origin", seed=4)
@example(split=(3, 1, 2), kind="zero", seed=5)
@example(split=(2, 1, 11), kind="random", seed=6)
@example(split=(2039, 1, 1), kind="permutation", seed=7)
@example(split=(2, 1, 10), kind="random", seed=8)  # L = 1023: N = 2L + 2
@example(split=(257, 1, 1), kind="permutation", seed=9)  # L = 256: N = 2L, the wrap ends at L - 3
@example(split=(17, 1, 1), kind="random", seed=10)
@example(split=(2, 5, 2), kind="zero", seed=11)  # an all-zero correlation operand
def test_interpolate_matches_group_sum(split, kind, seed):
    field = Field(*split)
    table = _table(field.order, kind, seed)
    assert Poly.interpolate(field, table) == group_sum_interpolate(field, table)


@pytest.mark.parametrize("spec", [(2, 1, 1), (3, 1, 6), (2, 5, 2), (2039, 1, 1)])
def test_interpolation_is_one_convolution(monkeypatch, spec):
    import ppinv.poly

    calls = []
    convolve, product = ppinv.poly._convolve, Poly.__mul__

    def spy_convolve(field, A, B, size, window):
        calls.append(("convolve", len(range(size)[window])))
        return convolve(field, A, B, size, window)

    def spy_mul(self, other):
        calls.append("mul")
        return product(self, other)

    monkeypatch.setattr(ppinv.poly, "_convolve", spy_convolve)
    monkeypatch.setattr(Poly, "__mul__", spy_mul)
    field = Field(*spec)
    table = np.random.default_rng(field.order).integers(0, field.order, field.order)
    assert Poly.interpolate(field, table) == group_sum_interpolate(field, table)
    assert calls == [("convolve", field.order - 1)]  # one kernel call, finishing only the L sums


def _cyclotomic_table(field, k, rng):
    """A table y W(y^k), k | L = Q - 1: F(0) = 0 and F(g^j) = g^j W(g^(kj)), W random on mu_(L/k)."""
    T, L = field.tables, field.order - 1
    w = rng.integers(0, field.order, L // k)
    table = np.zeros(field.order, dtype=np.int64)
    table[T.exp[:L]] = T.mul(T.exp[:L], w[np.arange(L) % (L // k)])
    return table


def _table_symmetry(field, table):
    """_symmetry of G = F - F(0) on the units."""
    T = field.tables
    return _symmetry(field, T.sub(table[T.exp[:field.order - 1]], table[0]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(split=st.sampled_from(field_splits(2048)), k=st.integers(1, 2 ** 11), seed=st.integers(0, 2 ** 32 - 1))
@example(split=(2, 1, 10), k=33, seed=1)
@example(split=(2, 1, 10), k=1023, seed=2)  # k = L: F(y) = c y on the units
@example(split=(2, 5, 2), k=31, seed=3)
@example(split=(3, 1, 6), k=56, seed=4)
@example(split=(3, 1, 6), k=728, seed=5)
@example(split=(3, 2, 3), k=8, seed=6)
@example(split=(2039, 1, 1), k=2, seed=7)
@example(split=(2039, 1, 1), k=1019, seed=8)
@example(split=(2039, 1, 1), k=2038, seed=9)
@example(split=(2, 1, 1), k=1, seed=10)  # L = 1: only e = 1
def test_interpolate_on_the_table_cycle(split, k, seed):
    # k becomes a divisor of L; the table's own e is a multiple of it (W may
    # have more symmetry by chance), one changed unit entry leaves no zeta of
    # mu_e, a changed F(0) alone leaves e = 1, and a constant added at every
    # point keeps the cycle of G = F - F(0)
    field = Field(*split)
    L = field.order - 1
    k = math.gcd(k, L)
    rng = np.random.default_rng(seed)
    table = _cyclotomic_table(field, k, rng)
    e = _table_symmetry(field, table)
    assert e % k == 0
    changed = table.copy()
    at = field.tables.exp[rng.integers(L)]
    changed[at] = (changed[at] + rng.integers(1, field.order)) % field.order
    fallback = _table_symmetry(field, changed)
    assert math.gcd(fallback, e) == 1 and (fallback < e or e == 1)
    moved = table.copy()
    moved[0] = rng.integers(1, field.order)
    assert _table_symmetry(field, moved) == 1
    lifted = field.tables.add(table, rng.integers(1, field.order))
    assert _table_symmetry(field, lifted) % k == 0
    for case in (table, changed, moved, lifted):
        assert Poly.interpolate(field, case) == group_sum_interpolate(field, case)


@pytest.mark.parametrize("spec", [(3, 1, 6), (2, 1, 10), (5, 1, 4), (257, 1, 1)])
def test_cycle_coeffs_on_every_subgroup(spec):
    # the first round builds one chirp plan per e, the second reuses them
    import ppinv.poly

    field = Field(*spec)
    T, L = field.tables, field.order - 1
    rng = np.random.default_rng(L)
    divisors = [e for e in range(1, L + 1) if L % e == 0]  # e = L, L/2 give M = 1, 2
    for _ in range(2):
        for e in divisors:
            M = L // e
            c, values = rng.integers(0, field.order), rng.integers(0, field.order, M)
            coeffs = _cycle_coeffs(field, values, e)
            assert np.array_equal(coeffs, group_sum_cycle(field, 0, values, e)[1:]), e
            W = Poly(field, np.concatenate([[0], coeffs]))
            assert W.degree <= M
            assert np.array_equal(W(field.element(T.exp[e * np.arange(M)])).index, values), e
            # c + y W(y^e): c at 0, c + g^j values[j mod M] at g^j
            F = Poly.from_cycle(field, c, values, e)
            assert F.degree < field.order
            got = F(field.all_elements()).index
            want = np.empty(field.order, dtype=np.int64)
            want[0] = c
            want[T.exp[:L]] = T.add(c, T.mul(T.exp[:L], values[np.arange(L) % M]))
            assert np.array_equal(got, want), e
        assert sorted(ppinv.poly._plans[T]) == divisors


def _count_transforms(monkeypatch):
    """Spy on poly._transform: the list of operand lengths it is called with."""
    import ppinv.poly

    lengths = []
    transform = ppinv.poly._transform

    def spy(field, idx, size, r):
        lengths.append(len(idx))
        return transform(field, idx, size, r)

    monkeypatch.setattr(ppinv.poly, "_transform", spy)
    return lengths


def test_interpolations_share_the_field_plan(monkeypatch):
    # the kernel b_1 .. b_(2L-1) is transformed once per field, a once per call
    lengths = _count_transforms(monkeypatch)
    field = Field(3, 1, 6)
    L = field.order - 1
    tables = [_table(field.order, kind, seed) for seed, kind in enumerate(["permutation", "random", "sparse", "permutation"])]
    for table in tables:
        assert Poly.interpolate(field, table) == group_sum_interpolate(field, table)
    assert sorted(lengths) == [L] * len(tables) + [2 * L - 1]


@pytest.mark.parametrize("spec, m, s", [((3, 1, 6), 6, 14), ((2, 5, 2), 2, 33)])
def test_member_inverse_interpolates_on_its_cycle(monkeypatch, spec, m, s):
    # the inverse of x (x^s - a)^t is y W(y^s_bar): one convolution finishing
    # the L/s_bar sums, one plan, which inverse_polynomial then reuses
    import ppinv.poly

    field = Field(*spec)
    L = field.order - 1
    params = PPParams(field, m, s, (field.q ** m - 1) // s)
    M = L // params.s_bar
    assert params.s_bar > 1
    a = int(np.flatnonzero(params.criterion_mask())[0]) + 1
    inverse = np.argsort(params.images_for([a])[0])
    sums = []
    convolve = ppinv.poly._convolve

    def spy(field, A, B, size, window):
        sums.append(len(range(size)[window]))
        return convolve(field, A, B, size, window)

    monkeypatch.setattr(ppinv.poly, "_convolve", spy)
    lengths = _count_transforms(monkeypatch)
    poly = Poly.interpolate(field, inverse)
    assert sums == [M]
    assert list(ppinv.poly._plans[field.tables]) == [params.s_bar]
    assert sorted(lengths) == [M, 2 * M - 1]
    lengths.clear()
    assert params.inverse_polynomial(a) == poly
    assert lengths == [M]  # its values only: no new kernel


def test_equal_fields_keep_their_own_plans(monkeypatch):
    import gc
    import weakref

    import ppinv.poly

    lengths = _count_transforms(monkeypatch)
    first, second = Field(2, 5, 2), Field(2, 5, 2)
    assert first == second and first.tables is not second.tables
    L = first.order - 1
    table = _table(first.order, "permutation", 12)
    poly = Poly.interpolate(first, table)
    assert Poly.interpolate(second, table) == poly
    assert sorted(lengths) == [L, L, 2 * L - 1, 2 * L - 1]
    assert ppinv.poly._plans[first.tables][1] is not ppinv.poly._plans[second.tables][1]
    # a plan lives as long as its tables
    tables = weakref.ref(second.tables)
    del second
    gc.collect()
    assert tables() is None


@pytest.mark.parametrize("spec", [(3, 1, 6), (2, 5, 2), (2, 1, 11), (43, 1, 2), (2039, 1, 1)])
def test_interpolant_reproduces_table(spec):
    # Poly.__call__ is table arithmetic only; (2039, 1, 1) has the largest
    # digits below 2048, which still fit one limb
    field = Field(*spec)
    L = field.order - 1
    assert _limb_split(field.p, field.degree, L, 2 * L) == 1
    table = np.random.default_rng(field.order).integers(0, field.order, field.order)
    table[0] = 1
    poly = Poly.interpolate(field, table)
    assert poly.degree < field.order
    assert np.array_equal(poly(field.all_elements()).index, table)


@pytest.mark.parametrize("spec", [(2, 1, 1), (3, 1, 1), (2, 1, 2), (5, 1, 1), (3, 1, 2), (2, 1, 7), (3, 2, 2)])
def test_reduce_matches_fold(spec):
    field = Field(*spec)
    Q = field.order
    rng = np.random.default_rng(Q)
    for n in (Q + 1, 2 * Q - 1, 2 * Q, 3 * Q + 5):
        coeffs = rng.integers(0, Q, n)
        coeffs[-1] = rng.integers(1, Q)
        poly = Poly(field, coeffs)
        assert poly.reduce() == ref_reduce(poly), n


def test_poly_from_terms_checks_exponents():
    F5 = Field(5)
    # a wrapped negative exponent is a wrong polynomial: x^-1 would read as the constant 1
    for field, terms in ((F5, [(-1, 1)]), (Field(3, 1, 2), [(-1, 1)]), (F5, [(-3, 2), (2, 1)])):
        with pytest.raises(ValueError, match="exponents"):
            poly_from_terms(field, terms)
    for terms in ([(2.7, 1)], [(True, 3)], [(np.True_, 3)], [("2", 1)]):  # not x^2 or 3x
        with pytest.raises(TypeError):
            poly_from_terms(F5, terms)


# -- powers and products of polynomials in x^e ------------------------------------

def ref_reduce(poly):
    """Reference fold mod x^Q - x, one term at a time: x^k -> x^(((k - 1) mod (Q - 1)) + 1)."""
    f = poly.field
    Q = f.order
    out = [f.zero] * Q
    for k, c in poly.terms():
        j = k if k < Q else (k - 1) % (Q - 1) + 1
        out[j] = out[j] + c
    return Poly(f, out)


def ref_mul_mod(a, b):
    return ref_reduce(schoolbook_mul(a, b)) if a and b else Poly(a.field)


def ref_pow_mod(a, k):
    result, base = Poly(a.field, [1]), ref_reduce(a)
    while k:
        if k & 1:
            result = ref_mul_mod(result, base)
        base = ref_mul_mod(base, base)
        k >>= 1
    return result


def poly_in_x_to_the(field, e, rng, ends=True):
    """Random reduced polynomial in x^e with a nonzero x^e term; ends adds x^0 and x^(Q-1)."""
    Q = field.order
    coeffs = np.zeros(Q, dtype=np.int64)
    coeffs[::e] = rng.integers(0, Q, len(coeffs[::e]))
    coeffs[e] = rng.integers(1, Q)
    if ends:
        coeffs[0], coeffs[Q - 1] = rng.integers(1, Q, 2)
    return Poly(field, coeffs)


DECIMATION_FIELDS = [(2, 1, 4), (3, 1, 4), (5, 1, 2), (3, 2, 2)]


@pytest.mark.parametrize("spec", DECIMATION_FIELDS)
def test_pow_mod_of_polynomials_in_x_to_the_e(spec):
    F = Field(*spec)
    Q = F.order
    rng = np.random.default_rng(Q + F.p)
    divisors = [e for e in range(1, Q) if (Q - 1) % e == 0]
    polys = [Poly(F), Poly(F, [1]), Poly(F, [Q - 1])]
    for e in divisors:
        for ends in (True, False):
            polys.append(poly_in_x_to_the(F, e, rng, ends))
    for p in polys:
        for k in (0, 1, F.p, Q - 1, Q, 2 ** 40 + 3):
            assert p.pow_mod(k) == ref_pow_mod(p, k), (p, k)


@pytest.mark.parametrize("spec", DECIMATION_FIELDS)
def test_mul_mod_of_polynomials_in_mixed_powers(spec):
    F = Field(*spec)
    Q = F.order
    rng = np.random.default_rng(Q * F.p)
    divisors = [e for e in range(1, Q) if (Q - 1) % e == 0]
    polys = [Poly(F), Poly(F, [rng.integers(1, Q)])]
    polys += [poly_in_x_to_the(F, e, rng, ends=bool(i % 2)) for i, e in enumerate(divisors)]
    for a in polys:
        for b in polys:
            assert (a * b).reduce() == ref_mul_mod(a, b), (a, b)
    # unreduced operands, up to twice Q long, fold the same way
    long = Poly(F, np.tile(poly_in_x_to_the(F, divisors[1], rng).idx, 2))
    for b in polys:
        assert (long * b).reduce() == ref_mul_mod(long, b)


def test_inverse_polynomial_products_stay_on_the_decimated_cycle(monkeypatch):
    # the symbolic inverse makes one kernel call and no product: its value
    # operand has at most (Q - 1)/s_bar + 1 coefficients, since g*h is a
    # polynomial in y^s_bar, and its transform is no longer than one product
    # of two such operands; a second inverse on the field reuses the chirp
    # operand's spectrum and transforms the value operand only
    import ppinv.poly
    from ppinv.family import PPParams

    calls = []
    transform, convolve, product = ppinv.poly._transform, ppinv.poly._convolve, Poly.__mul__

    def spy_transform(field, idx, size, r):
        calls.append(("transform", len(idx), size))
        return transform(field, idx, size, r)

    def spy_convolve(field, A, B, size, window):
        calls.append(("convolve", size))
        return convolve(field, A, B, size, window)

    def spy_mul(self, other):
        calls.append(("mul",))
        return product(self, other)

    monkeypatch.setattr(ppinv.poly, "_transform", spy_transform)
    monkeypatch.setattr(ppinv.poly, "_convolve", spy_convolve)
    monkeypatch.setattr(Poly, "__mul__", spy_mul)
    for m, s in [(12, 3), (12, 45), (6, 9), (12, 819)]:
        F = Field(2, 1, 12)  # fresh tables: the first inverse builds the chirp plan
        points = F.all_elements()
        params = PPParams(F, m, s, (2 ** m - 1) // s)
        a = next(a for a in range(2, F.order) if params.is_permutation(F(a)))
        calls.clear()
        inverse = params.inverse_polynomial(a)
        bound = (F.order - 1) // params.s_bar + 1
        assert [call[0] for call in calls] == ["transform", "transform", "convolve"], (m, s)
        la, lb = sorted(length for _, length, _ in calls[:2])
        size = calls[2][1]
        assert {n for _, _, n in calls[:2]} == {size}, (m, s)
        assert la <= bound and lb <= 2 * bound and size <= 1 << (2 * bound - 2).bit_length(), (m, s)
        assert np.array_equal(inverse(points).index, params.inverse_values(a)), (m, s)
        calls.clear()
        assert params.inverse_polynomial(a) == inverse
        assert calls == [("transform", la, size), ("convolve", size)], (m, s)


def test_poly_arguments_are_checked():
    F9 = Field(3, 1, 2)
    x = Poly(F9, [0, 1])
    for k in (2.0, 0.0, -1.0):
        with pytest.raises(TypeError):
            x.pow_mod(k)
    assert x.pow_mod(np.int64(3)) == Poly(F9, [0, 0, 0, 1])
    other = Poly(Field(3, 2, 1), [0, 1])  # an equal order is not the same field
    mixed = (x.__mul__, lambda p: x(p.field.one))
    for call in mixed:
        with pytest.raises(TypeError):
            call(other)
    F5 = Field(5)
    for bad in ([0, -1], [0, 7]):  # an index array is checked like a list
        for coeffs in (bad, np.array(bad, dtype=np.int64)):
            with pytest.raises(ValueError):
                Poly(F5, coeffs)
    with pytest.raises(ValueError, match="1-D"):
        Poly(F5, np.array([[1, 2], [3, 4]]))
