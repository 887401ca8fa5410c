"""Exhaustive verification sweeps and the CSV survey harness.

check_family runs, for one parameter set, the fast vectorised comparison of
the permutation criterion against oracle bijectivity, the two-sided inverse
composition laws, optional symbolic-versus-interpolation coefficient
equality, and optional agreement of the specialised formulas with the
general inverse.  It walks the a values in chunks whose arrays hold at most
CHUNK field points, so its memory does not grow with the number of a: each
chunk makes one array call for the images, the criterion and the inverse of
every permuting a, and each inverse is computed once.  The survey iterates
this over every field split up to a requested order with a fixed row order,
so its CSV output is reproducible byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass

import numpy as np

from . import special
from .family import PPParams
from .gf import Field, is_prime, prime_factors
from .oracle import CapExceededError, PermTable, bijection_mask, check_cap, inverse_poly_by_interpolation, oracle_cap

# field points per check_family chunk: one row at the 2^16 oracle cap
CHUNK = 1 << 16


def factor_pairs(v: int) -> list[tuple[int, int]]:
    """All (s, t) with s*t = v, ascending in s; trial division up to sqrt(v)."""
    low = [s for s in range(1, math.isqrt(v) + 1) if v % s == 0]
    high = [v // s for s in reversed(low) if s * s != v]
    return [(s, v // s) for s in low + high]


def field_splits(max_order: int) -> list[tuple[int, int, int]]:
    """Every (p, e, n) with p prime and p^(e*n) <= max_order, sorted by (order, p, e, n);
    the primes by gf.is_prime."""
    out = []
    for p in filter(is_prime, range(2, max_order + 1)):
        k = 1
        while p ** k <= max_order:
            out += [(p ** k, p, e, k // e) for e in range(1, k + 1) if k % e == 0]
            k += 1
    return [(p, e, n) for _, p, e, n in sorted(out)]


@dataclass
class FamilyCheck:
    """Verdicts for a single (params, a) pair."""

    a: int
    criterion: bool
    bijective: bool
    inverse_ok: bool | None = None
    symbolic_ok: bool | None = None
    special_form: str = ""
    special_ok: bool | None = None

    @property
    def mismatch(self) -> bool:
        if self.criterion != self.bijective:
            return True
        return any(flag is False for flag in (self.inverse_ok, self.symbolic_ok, self.special_ok))


def check_family(
    params: PPParams,
    a_indices=None,
    symbolic: bool = False,
    with_special: bool = False,
    cap: int | None = None,
) -> list[FamilyCheck]:
    """Criterion-versus-oracle sweep over the selected a values.

    One record per selected a, in selection order.  The a values are taken
    in chunks of max(1, CHUNK // Q), so each chunk's (rows x Q) arrays hold
    at most CHUNK points, or one row when Q > CHUNK.  Per chunk, one array
    inverse_value call gives the inverse of every a that passes both the
    criterion and the oracle; the two-sided check, the special form and the
    symbolic comparison all read that a's row of it.  symbolic_ok shares
    _cycle_coeffs and its _ChirpPlan with inverse_polynomial, so it cannot
    see a defect in that transform.
    """
    field = params.field
    check_cap(field, cap)
    a_sel = params.a_indices(a_indices)
    forms = special.applicable_forms(field, params.m, params.s, params.t) if with_special else []
    form = forms[0] if forms else None
    step = max(1, CHUNK // field.order)
    results = []
    for start in range(0, len(a_sel), step):
        results += _check_chunk(params, a_sel[start:start + step], symbolic, form)
    return results


def _check_chunk(
    params: PPParams, a_chunk: np.ndarray, symbolic: bool, form: str | None
) -> list[FamilyCheck]:
    field = params.field
    points = field.all_elements()
    xs = points.index
    images = params.images_for(a_chunk)
    crit = params.criterion_mask(a_chunk)
    bij = bijection_mask(images)
    recs = [
        FamilyCheck(a=int(a), criterion=bool(c), bijective=bool(b), special_form=form or "")
        for a, c, b in zip(a_chunk, crit, bij)
    ]
    rows = np.nonzero(crit & bij)[0]
    if not rows.size:
        return recs
    inv = params.inverse_value(field.element(a_chunk[rows][:, None]), points).index
    img = images[rows]
    inverse_ok = (
        (np.take_along_axis(inv, img, axis=1) == xs).all(axis=1)
        & (np.take_along_axis(img, inv, axis=1) == xs).all(axis=1)
    )
    for k, row in enumerate(rows):
        rec = recs[row]
        rec.inverse_ok = bool(inverse_ok[k])
        if symbolic:
            oracle_poly = inverse_poly_by_interpolation(PermTable(field, img[k]))
            rec.symbolic_ok = params.inverse_polynomial(rec.a) == oracle_poly
        if form:
            value = special.evaluate_special(form, field, params.m, rec.a, points)
            rec.special_ok = bool((value.index == inv[k]).all())
    return recs


SURVEY_COLUMNS = (
    "p", "e", "n", "m", "s", "t", "a",
    "is_pp_criterion", "is_pp_oracle", "inverse_ok",
    "special_form_used", "special_agrees",
)


def cell(value) -> str:
    """One report or CSV cell: "" for None, true/false for bools, else str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def survey_rows(max_order: int, cap: int | None = None):
    """Deterministic stream of survey rows, as lists of SURVEY_COLUMNS cells,
    over all splits up to max_order; CapExceededError up front for an order
    above the cap (only those orders are scanned, not the splits)."""
    limit = oracle_cap(cap)
    for order in range(max(limit + 1, 2), max_order + 1):  # a prime lies in (n, 2n]
        if len(prime_factors(order)) == 1:
            raise CapExceededError(f"field order {order} exceeds oracle cap {limit}")
    return _rows(max_order, cap)


def _rows(max_order: int, cap: int | None):
    for p, e, n in field_splits(max_order):
        field = Field(p, e, n)
        for m in range(1, n + 1):
            for s, t in factor_pairs(field.q ** m - 1):
                params = PPParams(field, m, s, t)
                checks = check_family(params, symbolic=False, with_special=True, cap=cap)
                prefix = [str(v) for v in (p, e, n, m, s, t)]
                for rec in checks:
                    yield prefix + [
                        cell(v)
                        for v in (rec.a, rec.criterion, rec.bijective, rec.inverse_ok,
                                  rec.special_form, rec.special_ok)
                    ]


def write_survey_csv(out, max_order: int, cap: int | None = None) -> int:
    """Write the survey to a path or text file object; returns the row count.

    The cap is checked before the file is opened, so a refused survey leaves
    an existing file untouched.
    """
    rows = survey_rows(max_order, cap)
    with contextlib.nullcontext(out) if hasattr(out, "write") else open(out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SURVEY_COLUMNS)
        count = 0
        for row in rows:
            writer.writerow(row)
            count += 1
    return count
