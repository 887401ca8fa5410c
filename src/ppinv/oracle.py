"""Brute-force ground truth: evaluation tables, bijectivity, table inversion.

Everything here is exhaustive and capped: entry points refuse fields larger
than the oracle cap (default 2^16, overridable via PPINV_ORACLE_CAP or a
per-call argument) so a misconfigured sweep fails fast.
"""

from __future__ import annotations

import os

import numpy as np

from .gf import Field
from .poly import Poly, check_images

DEFAULT_CAP = 1 << 16
CAP_ENV_VAR = "PPINV_ORACLE_CAP"


class CapExceededError(ValueError):
    """An exhaustive check was requested beyond the configured oracle cap."""


def oracle_cap(cap: int | None = None) -> int:
    """Effective cap: explicit argument, else environment, else default."""
    if cap is not None:
        return int(cap)
    env = os.environ.get(CAP_ENV_VAR)
    if not env:
        return DEFAULT_CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None


def check_cap(field: Field, cap: int | None):
    """Raise CapExceededError if the field is larger than the oracle cap."""
    limit = oracle_cap(cap)
    if field.order > limit:
        raise CapExceededError(f"field order {field.order} exceeds oracle cap {limit}")


def bijection_mask(images: np.ndarray) -> np.ndarray:
    """Row-wise bijectivity of an (Na, Q) image array, by occupancy counts."""
    na, Q = images.shape
    flat = images + Q * np.arange(na, dtype=np.int64)[:, None]
    counts = np.bincount(flat.ravel(), minlength=na * Q).reshape(na, Q)
    return (counts == 1).all(axis=1)


class PermTable:
    """Full evaluation table of a map on a field, in enumeration order."""

    __slots__ = ("field", "images")

    def __init__(self, field: Field, images):
        self.field = field
        self.images = check_images(field, images)

    def __eq__(self, other):
        return (
            isinstance(other, PermTable)
            and self.field == other.field
            and np.array_equal(self.images, other.images)
        )

    def __len__(self):
        return len(self.images)

    def is_bijection(self) -> bool:
        """Every index hit exactly once, by the same count as bijection_mask."""
        return bool(bijection_mask(self.images[None])[0])

    def inverted(self) -> "PermTable":
        if not self.is_bijection():
            raise ValueError("cannot invert a non-bijective table")
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(len(self.images), dtype=np.int64)
        return PermTable(self.field, inv)


def tabulate(field: Field, fn, cap: int | None = None) -> PermTable:
    """Evaluate fn at every field element, in index order."""
    check_cap(field, cap)
    images = np.empty(field.order, dtype=np.int64)
    for k, x in enumerate(field.elements()):
        images[k] = fn(x).index
    return PermTable(field, images)


def inverse_poly_by_interpolation(table: PermTable) -> Poly:
    """Reduced polynomial inducing the inverse permutation.

    Interpolated from the inverted table by Poly.interpolate as
    F(0) + y W(y^e): the group-sum formula as a chirp correlation of one FFT
    convolution on the table's own cycle, finished only on the (Q - 1)/e sums
    it reads, e the largest order of roots of unity zeta with
    G(zeta y) = zeta G(y) for G = F - F(0) (e = gcd(s, Q - 1) for an inverse
    in the family, where F(0) = 0), against a kernel spectrum kept per field
    and e.  The symbolic inverse runs the same kernel on the same cycle and
    builds the same shape through Poly.from_cycle, so the tests check both
    against the formula term by term and the interpolant against the table
    point by point.
    """
    return Poly.interpolate(table.field, table.inverted().images)


def check_composition_identity(field: Field, f, g, cap: int | None = None) -> bool:
    """True iff g(f(x)) = x for every x in the field."""
    check_cap(field, cap)
    return all(g(f(x)) == x for x in field.elements())
