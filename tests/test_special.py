"""Specialised inverse formulas versus the general path."""

import argparse
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ppinv import special
from ppinv.cli import build_parser
from ppinv.family import NotPermutationError, PPParams, gcd_halfpower
from ppinv.gf import Field
from ppinv.special import (
    COROLLARIES,
    FORMS,
    applicable_forms,
    evaluate_special,
    g2_value,
    gf5_s2t2_inverse,
    gf7_s2t3_inverse,
    gf7_s3t2_inverse,
    multinomial_sum,
    t2_inverse,
)
from ppinv.verify import factor_pairs, field_splits


def pp_values(params):
    return [a for a in list(params.field.elements())[1:] if params.is_permutation(a)]


def test_t2_rejects_bad_inputs():
    F16 = Field(2, 1, 4)
    with pytest.raises(ValueError):
        t2_inverse(F16, 1, F16(3), F16(2))  # even q
    F25 = Field(5, 1, 2)
    with pytest.raises(ValueError):
        t2_inverse(F25, 2, F25(2), F25(3))  # m = n out of range
    # criterion failure: a = 1 has norm 1
    with pytest.raises(NotPermutationError):
        t2_inverse(F25, 1, F25(1), F25(3))
    with pytest.raises(ValueError, match="nonzero"):
        t2_inverse(F25, 1, F25(0), F25(3))
    # even m/d: F_27 with (m, s, t) = (2, 4, 2), where a = 1 has norm 1
    F27 = Field(3, 1, 3)
    with pytest.raises(NotPermutationError, match="norm of a is 1"):
        t2_inverse(F27, 2, F27(1), F27(2))
    with pytest.raises(ValueError, match="unknown specialised form"):
        evaluate_special("cor6", F25, 1, F25(2), F25(3))


def test_corollary_forms_refuse_m_other_than_1():
    # each corollary is derived for m = 1; on F_25 the m = 2 member with s = 2
    # has t = 12, and its inverse at 3 is 2, not the m = 1 member's 7
    F25 = Field(5, 1, 2)
    assert evaluate_special("cor3", F25, 1, F25(5), F25(3)).index == 7
    assert PPParams(F25, 2, 2, 12).inverse_value(F25(5), F25(3)).index == 2
    for name, field in (("cor3", F25), ("cor4", Field(7, 1, 2)), ("cor5", Field(7, 1, 2))):
        for m in (0, 2):
            with pytest.raises(ValueError, match="m = 1"):
                evaluate_special(name, field, m, field(5), field(3))


@pytest.mark.parametrize(
    "spec,m",
    [((5, 1, 2), 1), ((3, 1, 3), 2), ((7, 1, 2), 1), ((11, 1, 2), 1), ((3, 1, 3), 1)],
)
def test_t2_agrees_with_general(spec, m):
    field = Field(*spec)
    s = (field.q ** m - 1) // 2
    if s == 0:
        pytest.skip("degenerate family")
    params = PPParams(field, m, s, 2)
    pps = pp_values(params)
    for a in pps:
        for x in field.elements():
            assert t2_inverse(field, m, a, x) == params.inverse_value(a, x)
    # and the criterion itself matches branch-wise
    d = math.gcd(m, field.n)
    for a in list(field.elements())[1:]:
        n_a = field.norm(a, d)
        if (m // d) % 2 == 0:
            branch = n_a != field.one
        else:
            branch = field.norm(a * a, d) != field.one
        assert branch == params.is_permutation(a)


def test_t2_branch_selection_matches_gcd_identity():
    # s_bar equals q^d - 1 exactly when m/d is even, else (q^d - 1)/2
    for spec in [(3, 1, 3), (5, 1, 2), (7, 1, 2), (3, 1, 4), (5, 1, 3)]:
        field = Field(*spec)
        for m in range(1, field.n):
            s = (field.q ** m - 1) // 2
            if s == 0:
                continue
            params = PPParams(field, m, s, 2)
            d = params.d
            assert params.s_bar == gcd_halfpower(field.q, m, field.n)
            if (m // d) % 2 == 0:
                assert params.s_bar == field.q ** d - 1
            else:
                assert params.s_bar == (field.q ** d - 1) // 2


def test_g2_is_square_of_g_on_units():
    field = Field(5, 1, 2)
    params = PPParams(field, 1, 2, 2)
    for a in pp_values(params):
        g = params.closed_inverse(a).g
        for x in list(field.elements())[1:]:
            g_val = g(x)
            assert g2_value(field, 1, a, x) == g_val * g_val


def test_h2_h3_are_x_times_h_powers():
    """multinomial_sum(..., t) = y h(y)^t for every (m, s, t) of at most 3000
    index tuples, on fields where p = 2, t >= p and q = p^e all occur."""
    rng = np.random.default_rng(1812)
    for spec in [(2, 1, 4), (3, 1, 4), (3, 2, 2), (5, 1, 3), (7, 1, 2)]:
        field = Field(*spec)
        y = field.all_elements()
        for m in range(1, field.n + 1):
            nd = field.n // math.gcd(m, field.n)
            for s, t in factor_pairs(field.q ** m - 1):
                if math.comb(nd + t - 1, t) > 3000:
                    continue
                params = PPParams(field, m, s, t)
                for a in rng.choice(np.arange(1, field.order), size=min(8, field.order - 1), replace=False):
                    got = multinomial_sum(field, m, field(a), y, t)
                    want = y * params.h_value(field(a), y) ** t
                    assert got.index.tolist() == want.index.tolist(), (spec, m, s, t, a)


def test_gf5_pinned():
    F5 = Field(5)
    # a = 2: the inverse collapses to x -> x^3
    for x in F5.elements():
        assert gf5_s2t2_inverse(F5, F5(2), x).index == pow(x.index, 3, 5)
    assert gf5_s2t2_inverse(F5, F5(2), F5(3)).index == 2
    assert gf5_s2t2_inverse(F5, F5(2), F5(0)) == F5.zero
    with pytest.raises(NotPermutationError):
        gf5_s2t2_inverse(F5, F5(4), F5(1))  # 4 is a square
    F7 = Field(7)
    with pytest.raises(ValueError):
        gf5_s2t2_inverse(F7, F7(2), F7(1))  # wrong characteristic
    F25e2 = Field(5, 2, 1)
    with pytest.raises(ValueError):
        gf5_s2t2_inverse(F25e2, F25e2(2), F25e2(1))  # e must be 1


def test_gf7_pinned():
    F7 = Field(7)
    assert gf7_s3t2_inverse(F7, F7(2), F7(6)).index == 3
    assert gf7_s3t2_inverse(F7, F7(2), F7(0)) == F7.zero
    assert gf7_s2t3_inverse(F7, F7(3), F7(6)).index == 1
    assert gf7_s2t3_inverse(F7, F7(3), F7(0)) == F7.zero
    with pytest.raises(NotPermutationError):
        gf7_s3t2_inverse(F7, F7(1), F7(1))  # 1 is a cube
    with pytest.raises(NotPermutationError):
        gf7_s2t3_inverse(F7, F7(2), F7(1))  # 2 is a square mod 7
    F5 = Field(5)
    with pytest.raises(ValueError):
        gf7_s3t2_inverse(F5, F5(2), F5(1))


@pytest.mark.parametrize("name", sorted(COROLLARIES))
def test_corollary_criterion_sweep(name):
    """Each corollary rejects exactly the a the family's criterion rejects, on
    every GF(p^n) with p^n <= 343, and refuses e = 2 and the other characteristic."""
    p, s, t, form = COROLLARIES[name]
    rejection = "a is a square" if s == 2 else "a is a cube"
    for n in (1, 2, 3):
        field = Field(p, 1, n)
        params = PPParams(field, 1, s, t)
        x = field.element(2)
        for a in range(1, field.order):
            if params.is_permutation(a):
                assert form(field, a, x) == params.inverse_value(a, x), (name, n, a)
            else:
                with pytest.raises(NotPermutationError, match=rejection):
                    form(field, a, x)
    for field in (Field(p, 2, 1), Field({5: 7, 7: 5}[p], 1, 1)):
        with pytest.raises(ValueError, match=r"form requires a GF\(%d\^n\) field" % p):
            form(field, 2, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_corollary_forms_agree_with_general(n):
    f5 = Field(5, 1, n)
    f5.tables
    p5 = PPParams(f5, 1, 2, 2)
    for a in pp_values(p5):
        for x in f5.elements():
            assert gf5_s2t2_inverse(f5, a, x) == p5.inverse_value(a, x)
    f7 = Field(7, 1, n)
    f7.tables
    p_sq = PPParams(f7, 1, 3, 2)
    for a in pp_values(p_sq):
        for x in f7.elements():
            assert gf7_s3t2_inverse(f7, a, x) == p_sq.inverse_value(a, x)
    p_cu = PPParams(f7, 1, 2, 3)
    for a in pp_values(p_cu):
        for x in f7.elements():
            assert gf7_s2t3_inverse(f7, a, x) == p_cu.inverse_value(a, x)


def test_cube_root_identities_behind_gf7_prefactor():
    # with w = a^((Q-1)/3) != 1: (1-w)^2 = -3w and 1+w = -w^2, which turns the
    # general t=2 prefactor into the compact two-term form used on GF(7^n)
    for n in (1, 2):
        field = Field(7, 1, n)
        field.tables
        Q = field.order
        one = field.one
        three = field.element(3)
        for a in list(field.elements())[1:]:
            w = a ** ((Q - 1) // 3)
            if w == one:
                continue
            assert (one - w) * (one - w) == -(three * w)
            assert one + w == -(w * w)
    # consequence: the compact prefactor equals the general one on nonzero points
    field = Field(7, 1, 2)
    Q = field.order
    params = PPParams(field, 1, 3, 2)
    for a in pp_values(params):
        n_a2 = field.norm(a * a, 1)
        den = field.one - n_a2
        for x in list(field.elements())[1:]:
            compact = field.element(4) * (a ** ((Q - 1) // 6)) * (x ** ((Q - 1) // 2)) - field.element(2) * (
                a.inverse() ** ((Q - 1) // 3)
            )
            general = n_a2 / (den * den) * g2_value(field, 1, a, x)
            assert compact == general


def test_routing():
    # every applicable form, most specific first; auto routing takes the first
    assert applicable_forms(Field(5, 1, 1), 1, 2, 2)[0] == "cor3"
    assert applicable_forms(Field(5, 1, 3), 1, 2, 2)[0] == "cor3"
    assert applicable_forms(Field(7, 1, 2), 1, 3, 2)[0] == "cor4"
    assert applicable_forms(Field(7, 1, 1), 1, 2, 3)[0] == "cor5"
    assert applicable_forms(Field(11, 1, 2), 1, 5, 2)[0] == "thm31"
    assert applicable_forms(Field(3, 1, 3), 2, 4, 2)[0] == "thm31"
    assert applicable_forms(Field(2, 1, 4), 2, 1, 3) == []    # even q
    assert applicable_forms(Field(5, 1, 2), 2, 12, 2) == []   # t=2 but m = n
    assert applicable_forms(Field(5, 1, 1), 1, 4, 1) == []    # t = 1
    assert applicable_forms(Field(5, 2, 1), 1, 2, 2) == []    # e != 1 blocks cor3; m=n blocks thm31
    assert applicable_forms(Field(5, 1, 3), 1, 2, 2) == ["cor3", "thm31"]
    assert applicable_forms(Field(7, 1, 2), 1, 3, 2) == ["cor4", "thm31"]
    assert applicable_forms(Field(7, 1, 1), 1, 2, 3) == ["cor5"]
    assert applicable_forms(Field(5, 1, 2), 2, 3, 8) == []


def test_special_forms_on_arrays_match_scalars():
    """Each applicable form on the whole-field array equals its per-y scalar values."""
    rng = np.random.default_rng(20181231)
    forms = set()
    for split in field_splits(343):
        field = Field(*split)
        bare = Field(*split)
        bare._scalar = bare._kernel  # scalars on the packed kernel, apart from the tables
        for m in range(1, field.n + 1):
            for s, t in factor_pairs(field.q ** m - 1):
                applicable = applicable_forms(field, m, s, t)
                if not applicable:
                    continue
                params = PPParams(field, m, s, t)
                pp = [a for a in range(1, field.order) if params.is_permutation(a)]
                for form in applicable:
                    for a in rng.choice(pp, size=min(3, len(pp)), replace=False).tolist():
                        got = evaluate_special(form, field, m, field(a), field.all_elements())
                        want = [evaluate_special(form, bare, m, bare(a), bare(y)).index for y in range(field.order)]
                        assert got.index.tolist() == want, (form, split, m, a)
                    forms.add(form)
    assert forms == set(FORMS)


def test_forms_are_listed_once():
    """FORMS is the CLI's --special list, in the order of its help text, and
    each corollary's name (with its p, s and t) is spelled in special.py only."""
    assert FORMS == ("thm31", "cor3", "cor4", "cor5")
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (option,) = (a for a in subs.choices["invert"]._actions if a.dest == "special")
    assert tuple(option.choices) == ("auto", *FORMS)
    src = Path(special.__file__).parent
    outside = [f.name for f in sorted(src.glob("*.py")) if f.name != "special.py" and re.search(r"cor[345]", f.read_text())]
    assert outside == []
