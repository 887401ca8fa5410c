"""Sweep orchestration and the survey CSV."""

import csv
import io
import tracemalloc

import numpy as np
import pytest

from ppinv import special
from ppinv.family import PPParams
from ppinv.gf import Field
from ppinv.oracle import CapExceededError, PermTable, inverse_poly_by_interpolation
from ppinv.poly import _limb_split
from ppinv.verify import (
    CHUNK,
    SURVEY_COLUMNS,
    FamilyCheck,
    bijection_mask,
    check_family,
    factor_pairs,
    field_splits,
    survey_rows,
    write_survey_csv,
)


def test_factor_pairs():
    assert factor_pairs(1) == [(1, 1)]
    assert factor_pairs(6) == [(1, 6), (2, 3), (3, 2), (6, 1)]
    assert factor_pairs(24) == [(1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (8, 3), (12, 2), (24, 1)]


def test_factor_pairs_match_brute_force():
    for v in range(1, 2001):
        assert factor_pairs(v) == [(s, v // s) for s in range(1, v + 1) if v % s == 0], v
    # 2^32 - 1 = 3 * 5 * 17 * 257 * 65537: 32 divisors
    pairs = factor_pairs(2 ** 32 - 1)
    assert len(pairs) == 32
    assert [s for s, _ in pairs] == sorted(s for s, _ in pairs)
    assert all(s * t == 2 ** 32 - 1 for s, t in pairs)
    assert pairs[1] == (3, 1431655765) and pairs[-2] == (1431655765, 3)


def test_field_splits():
    splits = field_splits(27)
    assert splits[0] == (2, 1, 1)
    assert (3, 1, 3) in splits and (3, 3, 1) in splits
    assert (2, 1, 4) in splits and (2, 2, 2) in splits and (2, 4, 1) in splits
    assert all(p ** (e * n) <= 27 for p, e, n in splits)
    assert splits == field_splits(27)  # deterministic
    # 64 admits three nontrivial splits plus the n=1 one
    s64 = [t for t in field_splits(64) if t[0] ** (t[1] * t[2]) == 64]
    assert s64 == [(2, 1, 6), (2, 2, 3), (2, 3, 2), (2, 6, 1)]
    assert field_splits(1) == []


def test_field_splits_match_sympy_primes():
    ntheory = pytest.importorskip("sympy.ntheory")
    bound = 2 ** 12
    out = []
    for p in ntheory.primerange(bound + 1):
        k = 1
        while p ** k <= bound:
            out += [(p ** k, p, e, k // e) for e in range(1, k + 1) if k % e == 0]
            k += 1
    splits = field_splits(bound)
    assert splits == [(p, e, n) for _, p, e, n in sorted(out)]
    assert all(type(v) is int for split in splits for v in split)
    assert [field_splits(b) for b in (-3, 0, 1, 2, 3, 4)] == [[], [], [], [(2, 1, 1)], [(2, 1, 1), (3, 1, 1)],
                                                              [(2, 1, 1), (3, 1, 1), (2, 1, 2), (2, 2, 1)]]


def test_bijection_mask():
    import numpy as np

    rows = np.array([[0, 1, 2], [0, 0, 2], [2, 1, 0]])
    assert list(bijection_mask(rows)) == [True, False, True]


@pytest.mark.parametrize("verdicts, mismatch", [
    (dict(criterion=True, bijective=True, inverse_ok=True), False),
    (dict(criterion=False, bijective=False), False),
    (dict(criterion=True, bijective=False), True),
    (dict(criterion=False, bijective=True), True),
    (dict(criterion=True, bijective=True, inverse_ok=True, symbolic_ok=False), True),
])
def test_family_check_mismatch(verdicts, mismatch):
    assert FamilyCheck(a=1, **verdicts).mismatch is mismatch


def test_check_family_f5():
    field = Field(5)
    params = PPParams(field, 1, 2, 2)
    recs = check_family(params, symbolic=True, with_special=True)
    assert [r.a for r in recs] == [1, 2, 3, 4]
    assert [r.criterion for r in recs] == [False, True, True, False]
    assert all(r.criterion == r.bijective for r in recs)
    for r in recs:
        if r.criterion:
            assert r.inverse_ok and r.symbolic_ok and r.special_ok
            assert r.special_form == "cor3"
        else:
            assert r.inverse_ok is None and r.symbolic_ok is None and r.special_ok is None
        assert not r.mismatch


def test_check_family_selection_and_cap():
    field = Field(5)
    params = PPParams(field, 1, 2, 2)
    recs = check_family(params, [2])
    assert len(recs) == 1 and recs[0].a == 2 and recs[0].inverse_ok
    with pytest.raises(CapExceededError):
        check_family(params, cap=3)


def per_a_family(params, a_sel, symbolic=False, with_special=False):
    """check_family's records, built one a at a time with no batching."""
    field = params.field
    forms = special.applicable_forms(field, params.m, params.s, params.t) if with_special else []
    form = forms[0] if forms else None
    points = field.all_elements()
    xs = points.index
    out = []
    for a_idx in a_sel:
        img = params.images_for([a_idx])[0]
        rec = FamilyCheck(
            a=int(a_idx),
            criterion=bool(params.criterion_mask([a_idx])[0]),
            bijective=bool(bijection_mask(img[None, :])[0]),
            special_form=form or "",
        )
        if rec.criterion and rec.bijective:
            a = field(int(a_idx))
            inv = params.inverse_values(a)
            rec.inverse_ok = bool((inv[img] == xs).all() and (img[inv] == xs).all())
            if symbolic:
                oracle_poly = inverse_poly_by_interpolation(PermTable(field, img))
                rec.symbolic_ok = params.inverse_polynomial(a) == oracle_poly
            if form:
                value = special.evaluate_special(form, field, params.m, a, points)
                rec.special_ok = bool((value.index == inv).all())
        out.append(rec)
    return out


def assert_matches_per_a(params, a_sel=None, **flags):
    recs = check_family(params, a_sel, **flags)
    expected = per_a_family(params, params.a_indices(a_sel), **flags)
    assert recs == expected, params
    return recs


def test_check_family_chunks_match_per_a_on_all_a(monkeypatch):
    field = Field(3, 1, 6)
    params = PPParams(field, 2, 4, 2)
    step = CHUNK // field.order
    assert -(-(field.order - 1) // step) == 9  # 728 a in nine chunks
    calls = []
    original = PPParams.inverse_value

    def counted(self, a, y):
        calls.append(np.shape(a.index))
        return original(self, a, y)

    monkeypatch.setattr(PPParams, "inverse_value", counted)
    recs = check_family(params)
    monkeypatch.setattr(PPParams, "inverse_value", original)
    assert len(calls) == 9 and all(shape[0] <= step for shape in calls)
    assert recs == per_a_family(params, range(1, field.order))
    assert any(r.inverse_ok for r in recs) and not all(r.criterion for r in recs)


def test_check_family_one_a_per_chunk_on_2_16():
    field = Field(2, 1, 16)
    params = PPParams(field, 16, 3, 21845)
    assert CHUNK // field.order == 1
    recs = assert_matches_per_a(params, [1, 2, 3, 1000, 65535])
    assert {r.criterion for r in recs} == {True, False}


def test_check_family_selection_order_duplicates_and_empty():
    params = PPParams(Field(3, 1, 6), 6, 8, 91)
    recs = assert_matches_per_a(params, [700, 3, 3, 1, 700, 42])
    assert [r.a for r in recs] == [700, 3, 3, 1, 700, 42]
    assert check_family(params, []) == []


def test_check_family_where_no_a_permutes():
    params = PPParams(Field(2, 1, 3), 3, 1, 7)
    assert params.s_bar == 1
    recs = assert_matches_per_a(params)
    assert not any(r.criterion or r.bijective for r in recs)
    assert all(r.inverse_ok is None for r in recs)


@pytest.mark.parametrize("spec, mst, form", [
    ((3, 1, 3), (2, 4, 2), "thm31"),
    ((5, 1, 2), (1, 2, 2), "cor3"),
])
def test_check_family_special_forms_match_per_a(spec, mst, form):
    params = PPParams(Field(*spec), *mst)
    recs = assert_matches_per_a(params, with_special=True)
    assert all(r.special_form == form for r in recs)
    assert any(r.special_ok for r in recs)


def test_check_family_symbolic_matches_per_a():
    field = Field(5)
    for s, t in factor_pairs(4):
        recs = assert_matches_per_a(PPParams(field, 1, s, t), symbolic=True)
        assert all(r.symbolic_ok is (True if r.criterion else None) for r in recs)


def test_check_family_memory_is_bounded_by_the_chunk():
    field = Field(2, 1, 12)
    field.tables
    params = PPParams(field, 12, 3, 1365)
    tracemalloc.start()
    try:
        recs = check_family(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(recs) == field.order - 1 and all(not r.mismatch for r in recs)
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_a_indices_outside_the_units_are_rejected():
    params = PPParams(Field(5, 1, 2), 2, 2, 12)
    for bad in (-1, 0, 25):
        with pytest.raises(ValueError, match="a indices"):
            params.criterion_mask([bad])
        with pytest.raises(ValueError, match="a indices"):
            params.images_for([2, bad])
        with pytest.raises(ValueError, match="a indices"):
            check_family(params, [bad])
    # non-integer selections are refused, not cast
    for bad in ([2.9], ["3"], [True]):
        with pytest.raises(TypeError, match="integer"):
            params.criterion_mask(bad)
        with pytest.raises(TypeError, match="integer"):
            params.images_for(bad)
        with pytest.raises(TypeError, match="integer"):
            check_family(params, bad)
    assert params.criterion_mask([]).shape == (0,)
    assert check_family(params, []) == []


def test_symbolic_check_refuses_large_field_before_work(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("images built before the oracle cap was checked")

    monkeypatch.setattr(PPParams, "images_for", reached)
    params = PPParams(Field(3, 1, 7), 1, 2, 1)
    with pytest.raises(CapExceededError, match="field order 2187 exceeds oracle cap 2000"):
        check_family(params, [2], symbolic=True, cap=2000)


@pytest.mark.parametrize(
    "spec, m, s",
    [((2, 1, 12), 12, 45), ((3, 1, 8), 4, 5), ((5, 1, 6), 3, 4), ((2, 1, 16), 4, 3),
     ((65521, 1, 1), 1, 2), ((251, 1, 2), 1, 10)],
    ids=["2^12", "3^8", "5^6", "2^16", "65521", "251^2"],
)
def test_symbolic_check_up_to_the_oracle_cap(spec, m, s):
    field = Field(*spec)
    L = field.order - 1
    # the largest digits, 65521's, take the two-limb FFT product
    assert _limb_split(field.p, field.degree, L, 2 * L) == (2 if field.p == 65521 else 1)
    params = PPParams(field, m, s, (field.q ** m - 1) // s)
    permuting = np.flatnonzero(params.criterion_mask()) + 1
    a = int(np.random.default_rng(field.order).choice(permuting))
    (rec,) = check_family(params, [a], symbolic=True)
    assert rec.inverse_ok and rec.symbolic_ok, (spec, m, s, a)


def test_survey_deterministic_and_consistent():
    buf1, buf2 = io.StringIO(), io.StringIO()
    n1 = write_survey_csv(buf1, 16)
    n2 = write_survey_csv(buf2, 16)
    assert n1 == n2
    assert buf1.getvalue() == buf2.getvalue()
    rows = list(csv.DictReader(io.StringIO(buf1.getvalue())))
    assert len(rows) == n1
    assert list(rows[0].keys()) == list(SURVEY_COLUMNS)
    for r in rows:
        assert r["is_pp_criterion"] == r["is_pp_oracle"]
        if r["is_pp_criterion"] == "true":
            assert r["inverse_ok"] == "true"
        else:
            assert r["inverse_ok"] == ""
        if r["special_agrees"]:
            assert r["special_agrees"] == "true"


def test_survey_rows_refuses_an_order_above_the_cap_when_called(monkeypatch):
    # the call itself raises, before any row is made or any split is listed
    import ppinv.verify

    def no_splits(max_order):
        raise AssertionError("field splits enumerated")

    monkeypatch.setattr(ppinv.verify, "field_splits", no_splits)
    with pytest.raises(CapExceededError, match="field order 9 exceeds oracle cap 8"):
        survey_rows(9, cap=8)


def test_survey_empty_range_is_header_only():
    buf = io.StringIO()
    assert write_survey_csv(buf, 1) == 0
    assert buf.getvalue() == ",".join(SURVEY_COLUMNS) + "\n"


def test_survey_to_path(tmp_path):
    out = tmp_path / "survey.csv"
    rows = write_survey_csv(out, 8)
    text = out.read_text()
    assert text.startswith("p,e,n,m,s,t,a,")
    assert len(text.strip().splitlines()) == rows + 1
