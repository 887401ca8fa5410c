"""Acceptance suite: exhaustive verification of every advertised guarantee.

All claims are exact algebraic identities, so every criterion is checked at
zero tolerance over exhaustively enumerated small fields.  Each test prints
one summary PASS line (visible with pytest -s); a failing assert names the
offending instance.
"""

import hashlib
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from ppinv import special
from ppinv.family import PPParams, gcd_halfpower, linearized_inverse, linearized_poly
from ppinv.gf import Field
from ppinv.oracle import PermTable, inverse_poly_by_interpolation
from ppinv.poly import Poly, poly_from_terms
from ppinv.verify import bijection_mask, factor_pairs, write_survey_csv

# the sweep draws q from this list; fields are all F_{q^n} with q^n <= 729
SWEEP_Q = {
    2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
    9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4), 25: (5, 2), 27: (3, 3),
}


@lru_cache(maxsize=None)
def get_field(p: int, e: int, n: int) -> Field:
    field = Field(p, e, n)
    field.tables  # warm the dense tables once per field
    return field


def sweep_fields(limit: int):
    out = []
    for q in sorted(SWEEP_Q):
        p, e = SWEEP_Q[q]
        n = 1
        while q ** n <= limit:
            out.append(get_field(p, e, n))
            n += 1
    return out


def linearized_images(field: Field, m: int, a_indices) -> np.ndarray:
    """Images of every field point under x^{q^m} - ax, one row per a."""
    a = field.element(np.asarray(a_indices)[:, None])
    x = field.all_elements()
    return (x ** field.q ** m - a * x).index


def family_space(field: Field):
    for m in range(1, field.n + 1):
        for s, t in factor_pairs(field.q ** m - 1):
            yield PPParams(field, m, s, t)


def pp_rows(params: PPParams):
    """(row, a) pairs for every a passing the criterion."""
    crit = params.criterion_mask()
    for row in np.nonzero(crit)[0]:
        yield int(row), params.field(int(row) + 1)


def test_01_criterion_equivalence_sweep():
    """Criterion verdict == exhaustive bijectivity for every (field, m, s, t, a)."""
    start = time.monotonic()
    cases = 0
    for field in sweep_fields(729):
        for params in family_space(field):
            crit = params.criterion_mask()
            bij = bijection_mask(params.images_for())
            assert (crit == bij).all(), f"criterion/oracle mismatch in {params}"
            cases += crit.size
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"sweep took {elapsed:.0f}s, budget is 5 minutes"
    print(f"[criterion 1] PASS: criterion == bijectivity on {cases} cases in {elapsed:.1f}s")


def test_02_general_inverse_round_trips():
    """inverse(f(x)) = x and f(inverse(y)) = y at every point, for every permutation."""
    instances = 0
    points = 0
    for field in sweep_fields(729):
        xs = np.arange(field.order, dtype=np.int64)
        for params in family_space(field):
            a_pp = np.nonzero(params.criterion_mask())[0] + 1
            if not a_pp.size:
                continue
            images = params.images_for(a_pp)
            inverses = params.inverse_value(field.element(a_pp[:, None]), field.all_elements()).index
            for a, img, inv in zip(a_pp, images, inverses):
                assert (inv[img] == xs).all(), f"left inverse fails for {params}, a={a}"
                assert (img[inv] == xs).all(), f"right inverse fails for {params}, a={a}"
                instances += 1
                points += 2 * field.order
    print(f"[criterion 2] PASS: two-sided inversion on {instances} permutations ({points} point checks)")


def test_03_symbolic_inverse_equals_interpolation():
    """Reduced symbolic inverse == group-sum interpolation of the inverted table (Q <= 125)."""
    checked = 0
    for field in sweep_fields(125):
        for params in family_space(field):
            images = None
            for row, a in pp_rows(params):
                if images is None:
                    images = params.images_for()
                sym = params.inverse_polynomial(a)
                oracle = inverse_poly_by_interpolation(PermTable(field, images[row]))
                assert sym == oracle, f"coefficient mismatch for {params}, a={a}"
                checked += 1
    print(f"[criterion 3] PASS: symbolic == interpolated coefficients on {checked} instances")


def test_04_linearized_binomial():
    """x^{q^m} - ax: inverse(ell(y)) = y at every y for norm != 1, oracle non-bijectivity otherwise.

    The pointwise identity is exact: a polynomial reduced mod x^Q - x is fixed
    by the function it induces, so inverse o ell = x mod x^Q - x iff it holds at every y.
    """
    F9 = get_field(3, 1, 2)
    pinned = linearized_inverse(F9, 1, F9.from_coeffs([1, 1]))
    assert pinned == Poly(F9, [0, 5, 0, 2])  # (2+i) x + 2 x^3

    composed = 0
    refused = 0
    for field in sweep_fields(729):
        ys = field.all_elements()
        all_a = np.arange(1, field.order, dtype=np.int64)
        for m in range(1, field.n):
            d = math.gcd(m, field.n)
            mask = field.norm(field.element(all_a), d) != field.one
            bij = bijection_mask(linearized_images(field, m, all_a))
            assert (bij == mask).all(), f"norm criterion vs oracle fails on {field}, m={m}"
            for ai in np.nonzero(mask)[0]:
                a = field(int(ai) + 1)
                ell = linearized_poly(field, m, a)
                assert (linearized_inverse(field, m, a)(ell(ys)) == ys).all(), (
                    f"composition not identity on {field}, m={m}, a={a}"
                )
                composed += 1
            refused += int((~mask).sum())
    print(f"[criterion 4] PASS: {composed} exact compositions, {refused} non-permutations confirmed")


def test_05_gcd_identity_1008_cases():
    """Closed form equals the directly computed gcd for all odd a <= 15, m, n <= 12."""
    cases = 0
    for a in (3, 5, 7, 9, 11, 13, 15):
        for m in range(1, 13):
            for n in range(1, 13):
                assert gcd_halfpower(a, m, n) == math.gcd((a ** m - 1) // 2, a ** n - 1), (a, m, n)
                cases += 1
    assert cases == 1008
    print(f"[criterion 5] PASS: gcd closed form exact on {cases} cases")


T2_CASES = (
    ((5, 1, 2), 1),   # odd branch
    ((3, 1, 3), 1),   # vacuous (no permutations), still exercised
    ((3, 1, 3), 2),   # even branch
    ((7, 1, 2), 1),   # odd branch
    ((11, 1, 2), 1),  # odd branch
)


def test_06_specialized_evaluators_agree():
    """t=2 and the explicit GF(5^n)/GF(7^n) inverses match the general formula pointwise."""
    F5 = get_field(5, 1, 1)
    assert [special.gf5_s2t2_inverse(F5, F5(2), x).index for x in F5.elements()] == [0, 1, 3, 2, 4]
    F7 = get_field(7, 1, 1)
    assert special.gf7_s3t2_inverse(F7, F7(2), F7(6)).index == 3
    assert special.gf7_s2t3_inverse(F7, F7(3), F7(6)).index == 1

    checked = 0
    for spec, m in T2_CASES:
        field = get_field(*spec)
        params = PPParams(field, m, (field.q ** m - 1) // 2, 2)
        for _, a in pp_rows(params):
            inv = params.inverse_values(a)
            for x in field.elements():
                assert special.t2_inverse(field, m, a, x).index == inv[x.index], (
                    f"t2 disagrees on {params}, a={a}, x={x}"
                )
            checked += 1
    for n in (1, 2, 3):
        field = get_field(5, 1, n)
        params = PPParams(field, 1, 2, 2)
        for _, a in pp_rows(params):
            inv = params.inverse_values(a)
            for x in field.elements():
                assert special.gf5_s2t2_inverse(field, a, x).index == inv[x.index]
            checked += 1
    for n in (1, 2):
        field = get_field(7, 1, n)
        p_sq = PPParams(field, 1, 3, 2)
        for _, a in pp_rows(p_sq):
            inv = p_sq.inverse_values(a)
            for x in field.elements():
                assert special.gf7_s3t2_inverse(field, a, x).index == inv[x.index]
            checked += 1
        p_cu = PPParams(field, 1, 2, 3)
        for _, a in pp_rows(p_cu):
            inv = p_cu.inverse_values(a)
            for x in field.elements():
                assert special.gf7_s2t3_inverse(field, a, x).index == inv[x.index]
            checked += 1
    print(f"[criterion 6] PASS: specialized evaluators agree on {checked} permutation instances")


def test_07_h_sum_identities():
    """h2(x) = x h(x)^2 and h3(x) = x h(x)^3 pointwise, for every nonzero a."""
    checked = 0
    for spec, m in T2_CASES:
        field = get_field(*spec)
        params = PPParams(field, m, (field.q ** m - 1) // 2, 2)
        for a in list(field.elements())[1:]:
            for x in field.elements():
                h = params.h_value(a, x)
                assert special.multinomial_sum(field, m, a, x, 2) == x * h * h, (
                    f"h2 identity fails on {params}, a={a}, x={x}"
                )
                checked += 1
    for n in (1, 2):
        field = get_field(7, 1, n)
        params = PPParams(field, 1, 2, 3)
        for a in list(field.elements())[1:]:
            for x in field.elements():
                h = params.h_value(a, x)
                assert special.multinomial_sum(field, 1, a, x, 3) == x * h * h * h, (
                    f"h3 identity fails on {params}, a={a}, x={x}"
                )
                checked += 1
    print(f"[criterion 7] PASS: h2/h3 product identities on {checked} points")


def test_08_t1_coherence_with_linearized():
    """At s = q^m - 1, t = 1 the general inverse, pointwise and as linearized_inverse,
    equals the printed linearized-binomial inverse, transcribed here by direct powers:
    N/(1 - N) sum_i a^{-(q^{im}-1)/(q^m-1)} x^{q^{(i-1)m}}, N the norm onto F_{q^d}."""
    instances = 0
    for field in sweep_fields(729):
        q = field.q
        ys = field.element(np.arange(field.order, dtype=np.int64))
        all_a = np.arange(1, field.order, dtype=np.int64)
        for m in range(1, field.n):
            d = math.gcd(m, field.n)
            params = PPParams(field, m, q ** m - 1, 1)
            mask = field.norm(field.element(all_a), d) != field.one
            assert (params.criterion_mask() == mask).all(), f"criteria disagree on {params}"
            for ai in np.nonzero(mask)[0]:
                a = field(int(ai) + 1)
                n_a = field.norm(a, d)
                scale = n_a / (field.one - n_a)
                printed = poly_from_terms(field, [
                    (q ** ((i - 1) * m), scale * a.inverse() ** ((q ** (i * m) - 1) // (q ** m - 1)))
                    for i in range(1, field.n // d + 1)
                ])
                assert linearized_inverse(field, m, a) == printed, (
                    f"linearized inverse disagrees with the printed formula on {params}, a={a}"
                )
                assert (params.inverse_values(a) == printed(ys).index).all(), (
                    f"t=1 inverse disagrees with the printed formula on {params}, a={a}"
                )
                instances += 1
    print(f"[criterion 8] PASS: t=1 coherence on {instances} instances")


SURVEY_125_SHA256 = "533d987c13a75ee9f592023311de31939b8ab3c13a164046bea168f5e301d7dc"
SURVEY_125_ROWS = 28786


def test_09_survey_determinism(tmp_path):
    """Two runs of the order-125 survey produce byte-identical CSV, with pinned bytes."""
    out1 = tmp_path / "survey1.csv"
    out2 = tmp_path / "survey2.csv"
    rows1 = write_survey_csv(out1, 125)
    rows2 = write_survey_csv(out2, 125)
    blob1 = out1.read_bytes()
    assert rows1 == rows2 == SURVEY_125_ROWS
    assert blob1 == out2.read_bytes()
    assert hashlib.sha256(blob1).hexdigest() == SURVEY_125_SHA256
    # content sanity: criterion matches oracle and inverses hold on every row
    import csv as _csv
    import io as _io

    rows = list(_csv.DictReader(_io.StringIO(blob1.decode())))
    assert len(rows) == rows1
    assert all(r["is_pp_criterion"] == r["is_pp_oracle"] for r in rows)
    assert all(r["inverse_ok"] == "true" for r in rows if r["is_pp_criterion"] == "true")
    assert all(r["special_agrees"] in ("", "true") for r in rows)
    print(f"[criterion 9] PASS: survey byte-identical across runs ({rows1} rows)")
