"""Specialised inverses: the t = 2 family and the explicit GF(5^n)/GF(7^n) cases.

Every formula here is a direct transcription of its printed closed form,
with no delegation to the general inverse in family.py: the two
implementations cross-validate each other in the test suite.  The forms
share one expansion of y h(y)^t with multinomial weights, multinomial_sum.
"""

from __future__ import annotations

import itertools
import math

from .gf import Field, FieldElement, exact_div
from .family import NotPermutationError


# ---------------------------------------------------------------------------
# y h(y)^t, expanded


def multinomial_sum(field: Field, m: int, a, x, t: int) -> FieldElement:
    """x h(x)^t, with h(x) = sum_i a^{-(q^{(i+1)m}-1)/(q^m-1)} x^{(q^{im}-1)/t}.

    i runs over 0 .. n/d - 1, d = gcd(m, n).  The power is expanded term by
    term: each nondecreasing index t-tuple, in lexicographic order, adds its
    multinomial weight t!/prod k_j! mod p (k_j its repeat counts) times
    a^{-(sum q^{(i+1)m} - t)/(q^m-1)} x^{(sum q^{im})/t}.  Both divisions are
    exact, as q^m = 1 mod t and mod q^m - 1.
    """
    a = field.unit(a)
    x = field.element(x)
    qm = field.q ** m
    ainv = a.inverse()
    acc = field.zero
    for idx in itertools.combinations_with_replacement(range(field.n // math.gcd(m, field.n)), t):
        weight = math.factorial(t) // math.prod(math.factorial(idx.count(i)) for i in set(idx))
        ae = exact_div(sum(qm ** (i + 1) for i in idx) - t, qm - 1)
        xe = exact_div(sum(qm ** i for i in idx), t)
        acc = acc + field.element(weight % field.p) * ainv ** ae * x ** xe
    return acc


# ---------------------------------------------------------------------------
# t = 2: f(x) = x^{q^m} - 2a x^{(q^m+1)/2} + a^2 x  =  x (x^{(q^m-1)/2} - a)^2


def g2_value(field: Field, m: int, a, x) -> FieldElement:
    """N(a^2) + 1 + 2 N(a) x^{(q^n-1)/2}."""
    a = field.unit(a)
    x = field.element(x)
    n_a = field.norm(a, math.gcd(m, field.n))
    two = field.one + field.one
    return n_a * n_a + field.one + two * n_a * (x ** ((field.order - 1) // 2))


def t2_inverse(field: Field, m: int, a, x) -> FieldElement:
    """Inverse of x(x^{(q^m-1)/2} - a)^2, branching on the parity of m/d."""
    if field.p == 2:
        raise ValueError("t = 2 form requires odd q")
    if not 1 <= m <= field.n - 1:
        raise ValueError(f"m must lie in [1, {field.n - 1}]")
    a = field.unit(a)
    x = field.element(x)
    d = math.gcd(m, field.n)
    n_a = field.norm(a, d)
    n_a2 = n_a * n_a  # N(a^2) = N(a)^2
    one = field.one
    if (m // d) % 2 == 0:
        if n_a == one:
            raise NotPermutationError("norm of a is 1; f is not a permutation")
        den = one - n_a
        return n_a2 / (den * den) * multinomial_sum(field, m, a, x, 2)
    if n_a2 == one:
        raise NotPermutationError("norm of a^2 is 1; f is not a permutation")
    den = one - n_a2
    return n_a2 / (den * den) * g2_value(field, m, a, x) * multinomial_sum(field, m, a, x, 2)


# ---------------------------------------------------------------------------
# GF(p^n) with m = 1: x (x^s - a)^t, permuting iff a is not an s-th power


def _corollary(field: Field, name: str, a, x) -> tuple[FieldElement, FieldElement, int]:
    """(a, x, Q) for the form ``name`` of COROLLARIES, checking a, the field and the criterion."""
    p, s, _, _ = COROLLARIES[name]
    a = field.unit(a)
    if field.p != p or field.e != 1:
        raise ValueError(f"form requires a GF({p}^n) field, got GF({field.descriptor()})")
    x = field.element(x)
    Q = field.order
    if a ** ((Q - 1) // s) == field.one:
        raise NotPermutationError(f"a is a {'square' if s == 2 else 'cube'}; f is not a permutation")
    return a, x, Q


def gf5_s2t2_inverse(field: Field, a, x) -> FieldElement:
    """GF(5^n): f(x) = x^5 - 2a x^3 + a^2 x  =  x (x^2 - a)^2."""
    a, x, Q = _corollary(field, "cor3", a, x)
    pref = field.element(2) * (a ** ((Q - 1) // 4)) * (x ** ((Q - 1) // 2))
    return pref * multinomial_sum(field, 1, a, x, 2)


def gf7_s3t2_inverse(field: Field, a, x) -> FieldElement:
    """GF(7^n): f(x) = x^7 - 2a x^4 + a^2 x  =  x (x^3 - a)^2."""
    a, x, Q = _corollary(field, "cor4", a, x)
    pref = (field.element(4) * (a ** ((Q - 1) // 6)) * (x ** ((Q - 1) // 2))
            - field.element(2) * (a.inverse() ** ((Q - 1) // 3)))
    return pref * multinomial_sum(field, 1, a, x, 2)


def gf7_s2t3_inverse(field: Field, a, x) -> FieldElement:
    """GF(7^n): f(x) = x^7 - 3a x^5 + 3a^2 x^3 - a^3 x  =  x (x^2 - a)^3."""
    a, x, Q = _corollary(field, "cor5", a, x)
    three = field.element(3)
    two = field.element(2)
    pref = three * ((a * x ** 4) ** ((Q - 1) // 6)) - three * ((a * x) ** ((Q - 1) // 3)) - two
    return pref * multinomial_sum(field, 1, a, x, 3)


# ---------------------------------------------------------------------------
# the one list of forms, for the CLI and the survey
# name -> (p, s, t, inverse) of each explicit form on GF(p^n), m = 1
COROLLARIES = {
    "cor3": (5, 2, 2, gf5_s2t2_inverse),
    "cor4": (7, 3, 2, gf7_s3t2_inverse),
    "cor5": (7, 2, 3, gf7_s2t3_inverse),
}
FORMS = ("thm31", *COROLLARIES)


def applicable_forms(field: Field, m: int, s: int, t: int) -> list[str]:
    """Names of the specialised forms derived for these parameters, most specific first."""
    forms = [name for name, entry in COROLLARIES.items() if field.e == m == 1 and entry[:3] == (field.p, s, t)]
    if t == 2 and field.p != 2 and 1 <= m <= field.n - 1:
        forms.append("thm31")
    return forms


def evaluate_special(name: str, field: Field, m: int, a, x) -> FieldElement:
    if name == "thm31":
        return t2_inverse(field, m, a, x)
    if name not in COROLLARIES:
        raise ValueError(f"unknown specialised form {name!r}")
    return COROLLARIES[name][3](field, a, x)
