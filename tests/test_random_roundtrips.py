"""Randomized two-sided round trips on fields above the exhaustive oracle's cap.

Orders in (2^16, 2^32] are out of reach of the exhaustive sweeps, so these
fields are checked pointwise: for a random split (p, e, n), a random m, a
random factor pair s*t = q^m - 1 and a random a that passes the criterion,
f(f^-1(y)) = y and f^-1(f(x)) = x at random points.
"""

import math
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ppinv.family import PPParams  # noqa: E402
from ppinv.gf import Field, is_prime  # noqa: E402
from ppinv.verify import factor_pairs  # noqa: E402

LOW, HIGH = 2 ** 16, 2 ** 32


def _prime_range(degree: int) -> tuple[int, int]:
    """Least and greatest p with LOW < p^degree <= HIGH."""
    lo = max(2, int(LOW ** (1 / degree)) - 1)
    while lo ** degree <= LOW:
        lo += 1
    hi = int(HIGH ** (1 / degree)) + 1
    while hi ** degree > HIGH:
        hi -= 1
    return lo, hi


def _prime_near(x: int, lo: int, hi: int) -> int:
    """First prime at or above x within [lo, hi], else the last one below x."""
    for p in range(x, hi + 1):
        if is_prime(p):
            return p
    return next(p for p in range(x, lo - 1, -1) if is_prime(p))


@st.composite
def splits(draw):
    degree = draw(st.integers(1, 32))
    lo, hi = _prime_range(degree)
    p = _prime_near(draw(st.integers(lo, hi)), lo, hi)
    e = draw(st.sampled_from([e for e in range(1, degree + 1) if degree % e == 0]))
    return p, e, degree // e


@lru_cache(maxsize=None)
def _field(p: int, e: int, n: int) -> Field:
    return Field(p, e, n)


@lru_cache(maxsize=None)
def _families(p: int, e: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """Every (m, s, t) on the split whose criterion holds for some a (s_bar > 1).

    Never empty: m = n, s = q^n - 1 has s_bar = q^n - 1.
    """
    field = _field(p, e, n)
    group = field.order - 1
    return tuple(
        (m, s, t)
        for m in range(1, n + 1)
        for s, t in factor_pairs(field.q ** m - 1)
        if math.gcd(s, group) > 1
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), split=splits())
def test_round_trips_above_the_oracle_cap(data, split):
    field = _field(*split)
    assert LOW < field.order <= HIGH
    m, s, t = data.draw(st.sampled_from(_families(*split)), label="m, s, t")
    params = PPParams(field, m, s, t)
    a = data.draw(st.integers(1, field.order - 1), label="a start")
    while not params.is_permutation(a):
        a = a % (field.order - 1) + 1
    x, y = (data.draw(st.integers(0, field.order - 1), label=name) for name in ("x", "y"))
    assert params.evaluate(a, params.inverse_value(a, y)).index == y
    assert params.inverse_value(a, params.evaluate(a, x)).index == x
