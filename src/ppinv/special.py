"""Specialised inverses: the t = 2 family and the explicit GF(5^n)/GF(7^n) cases.

Every formula here is a direct transcription of its printed closed form,
with no delegation to the general inverse in family.py: the two
implementations cross-validate each other in the test suite.  The forms
share one expansion of y h(y)^t with multinomial weights, multinomial_sum.
"""

from __future__ import annotations

import itertools
import math

from .gf import Field, FieldElement
from .family import NotPermutationError


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{num} not divisible by {den}")
    return q


def _unit(field: Field, a) -> FieldElement:
    a = field.element(a)
    if not a:
        raise ValueError("a must be nonzero")
    return a


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
    a = _unit(field, a)
    x = field.element(x)
    qm = field.q ** m
    ainv = a.inverse()
    acc = field.zero
    for idx in itertools.combinations_with_replacement(range(field.n // math.gcd(m, field.n)), t):
        weight = math.factorial(t) // math.prod(math.factorial(idx.count(i)) for i in set(idx))
        ae = _exact(sum(qm ** (i + 1) for i in idx) - t, qm - 1)
        xe = _exact(sum(qm ** i for i in idx), t)
        acc = acc + field.element(weight % field.p) * ainv ** ae * x ** xe
    return acc


# ---------------------------------------------------------------------------
# t = 2: f(x) = x^{q^m} - 2a x^{(q^m+1)/2} + a^2 x  =  x (x^{(q^m-1)/2} - a)^2


def g2_value(field: Field, m: int, a, x) -> FieldElement:
    """N(a^2) + 1 + 2 N(a) x^{(q^n-1)/2}."""
    a = _unit(field, a)
    x = field.element(x)
    d = math.gcd(m, field.n)
    nu = _exact(field.q ** field.n - 1, field.q ** d - 1)
    n_a = a ** nu
    two = field.one + field.one
    return n_a * n_a + field.one + two * n_a * (x ** ((field.order - 1) // 2))


def t2_inverse(field: Field, m: int, a, x) -> FieldElement:
    """Inverse of x(x^{(q^m-1)/2} - a)^2, branching on the parity of m/d."""
    if field.p == 2:
        raise ValueError("t = 2 form requires odd q")
    if not 1 <= m <= field.n - 1:
        raise ValueError(f"m must lie in [1, {field.n - 1}]")
    a = _unit(field, a)
    x = field.element(x)
    d = math.gcd(m, field.n)
    nu = _exact(field.q ** field.n - 1, field.q ** d - 1)
    n_a = a ** nu
    n_a2 = (a * a) ** nu
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
# GF(5^n): f(x) = x^5 - 2a x^3 + a^2 x  =  x (x^2 - a)^2


def _require_base(field: Field, p: int):
    if field.p != p or field.e != 1:
        raise ValueError(f"form requires a GF({p}^n) field, got GF({field.descriptor()})")


def gf5_s2t2_inverse(field: Field, a, x) -> FieldElement:
    a = _unit(field, a)
    _require_base(field, 5)
    x = field.element(x)
    Q = field.order
    if a ** ((Q - 1) // 2) != -field.one:
        raise NotPermutationError("a is a square; f is not a permutation")
    pref = field.element(2) * (a ** ((Q - 1) // 4)) * (x ** ((Q - 1) // 2))
    return pref * multinomial_sum(field, 1, a, x, 2)


# ---------------------------------------------------------------------------
# GF(7^n): f(x) = x^7 - 2a x^4 + a^2 x  =  x (x^3 - a)^2


def gf7_s3t2_inverse(field: Field, a, x) -> FieldElement:
    a = _unit(field, a)
    _require_base(field, 7)
    x = field.element(x)
    Q = field.order
    if a ** ((Q - 1) // 3) == field.one:
        raise NotPermutationError("a is a cube; f is not a permutation")
    ainv = a.inverse()
    pref = field.element(4) * (a ** ((Q - 1) // 6)) * (x ** ((Q - 1) // 2)) - field.element(2) * (
        ainv ** ((Q - 1) // 3)
    )
    return pref * multinomial_sum(field, 1, a, x, 2)


# ---------------------------------------------------------------------------
# GF(7^n): f(x) = x^7 - 3a x^5 + 3a^2 x^3 - a^3 x  =  x (x^2 - a)^3


def gf7_s2t3_inverse(field: Field, a, x) -> FieldElement:
    a = _unit(field, a)
    _require_base(field, 7)
    x = field.element(x)
    Q = field.order
    if a ** ((Q - 1) // 2) != -field.one:
        raise NotPermutationError("a is a square; f is not a permutation")
    three = field.element(3)
    two = field.element(2)
    x4 = x ** 4
    pref = three * ((a * x4) ** ((Q - 1) // 6)) - three * ((a * x) ** ((Q - 1) // 3)) - two
    return pref * multinomial_sum(field, 1, a, x, 3)


# ---------------------------------------------------------------------------
# routing for the CLI and the survey


def applicable_forms(field: Field, m: int, s: int, t: int) -> list[str]:
    """Names of the specialised forms derived for these parameters, most specific first."""
    corollaries = {(5, 2, 2): "cor3", (7, 3, 2): "cor4", (7, 2, 3): "cor5"}  # on GF(p^n), m = 1
    forms = [corollaries[field.p, s, t]] if field.e == m == 1 and (field.p, s, t) in corollaries else []
    if t == 2 and field.p != 2 and 1 <= m <= field.n - 1:
        forms.append("thm31")
    return forms


def evaluate_special(name: str, field: Field, m: int, a, x) -> FieldElement:
    if name == "cor3":
        return gf5_s2t2_inverse(field, a, x)
    if name == "cor4":
        return gf7_s3t2_inverse(field, a, x)
    if name == "cor5":
        return gf7_s2t3_inverse(field, a, x)
    if name == "thm31":
        return t2_inverse(field, m, a, x)
    raise ValueError(f"unknown specialised form {name!r}")
