"""Brute-force oracle: tables, bijectivity, interpolation, caps."""

import math

import numpy as np
import pytest

from ppinv.family import PPParams
from ppinv.gf import Field
from ppinv.oracle import (
    CapExceededError,
    PermTable,
    check_composition_identity,
    inverse_poly_by_interpolation,
    oracle_cap,
    tabulate,
)
from ppinv.poly import Poly
from ppinv.verify import factor_pairs, field_splits


def f5_instance():
    field = Field(5)
    params = PPParams(field, 1, 2, 2)
    a = field(2)
    return field, params, a


def test_tabulate_pinned():
    field, params, a = f5_instance()
    ident = tabulate(field, lambda x: x)
    assert list(ident.images) == [0, 1, 2, 3, 4]
    table = tabulate(field, lambda x: params.evaluate(a, x))
    assert list(table.images) == [0, 1, 3, 2, 4]
    const = tabulate(field, lambda x: field.zero)
    assert list(const.images) == [0, 0, 0, 0, 0]
    assert not const.is_bijection()


def test_bijection_and_inversion_pinned():
    field, params, a = f5_instance()
    table = tabulate(field, lambda x: params.evaluate(a, x))
    assert table.is_bijection()
    inv = table.inverted()
    assert list(inv.images) == [0, 1, 3, 2, 4]  # this instance is an involution
    assert inv.inverted() == table
    ident = tabulate(field, lambda x: x)
    assert ident.inverted() == ident
    with pytest.raises(ValueError):
        tabulate(field, lambda x: field.zero).inverted()


def test_invert_law_random_permutation():
    rng = np.random.default_rng(42)
    field = Field(3, 1, 2)
    images = rng.permutation(9)
    table = PermTable(field, images)
    inv = table.inverted()
    for k in range(9):
        assert inv.images[table.images[k]] == k
    assert inv.inverted() == table


def test_permtable_validation():
    field = Field(5)
    with pytest.raises(ValueError):
        PermTable(field, [0, 1, 2])
    with pytest.raises(ValueError):
        PermTable(field, [0, 1, 2, 3, 9])
    table = PermTable(field, [0, 1, 3, 2, 4])
    assert table.images[2] == 3
    assert len(table) == 5
    # floats and bools were truncated to some other table
    for bad in ([0.7, 1.2, 2.9, 3.1, 4.0], np.arange(5.0), [True, False, True, False, True]):
        with pytest.raises(TypeError, match="integer"):
            PermTable(field, bad)
    assert PermTable(field, np.array([0, 1, 3, 2, 4], dtype=np.uint16)) == table


def test_inverse_poly_by_interpolation_pinned():
    field, params, a = f5_instance()
    table = tabulate(field, lambda x: params.evaluate(a, x))
    assert inverse_poly_by_interpolation(table) == Poly.x(field).shift(2)
    ident = tabulate(field, lambda x: x)
    assert inverse_poly_by_interpolation(ident) == Poly.x(field)


def test_interpolated_inverse_composes_to_identity():
    field = Field(7)
    params = PPParams(field, 1, 3, 2)
    a = field(2)
    table = tabulate(field, lambda x: params.evaluate(a, x))
    inv_poly = inverse_poly_by_interpolation(table)
    from ppinv.poly import family_poly

    f_poly = family_poly(field, 3, 2, a)
    ys = field.all_elements()
    assert (inv_poly(f_poly(ys)) == ys).all()
    # pointwise: interpolant reproduces the inverted table
    inv = table.inverted()
    for k in range(7):
        assert inv_poly(field(k)).index == inv.images[k]


def test_oracle_inverse_reproduces_the_table_off_the_shared_plan():
    # the oracle interpolates the inverse of a member with s_bar > 1 on the
    # cycle mu_(L/s_bar), whose chirp plan inverse_polynomial shares, so it is
    # checked here by Poly.__call__, table arithmetic that reads no plan: on
    # every field up to 2^10 but F_2, one seeded member and permuting a
    rng = np.random.default_rng(27)
    checked = 0
    for split in field_splits(1 << 10):
        field = Field(*split)
        L = field.order - 1
        members = [(m, s, t) for m in range(1, field.n + 1)
                   for s, t in factor_pairs(field.q ** m - 1) if math.gcd(s, L) > 1]
        if not members:
            continue
        params = PPParams(field, *members[rng.integers(len(members))])
        a = rng.choice(np.flatnonzero(params.criterion_mask())) + 1
        table = PermTable(field, params.images_for([a])[0])
        poly = inverse_poly_by_interpolation(table)
        assert np.array_equal(poly(field.all_elements()).index, table.inverted().images), (split, params)
        checked += 1
    assert checked == len(field_splits(1 << 10)) - 1


def test_check_composition_identity():
    field, params, a = f5_instance()
    fwd = lambda x: params.evaluate(a, x)
    assert check_composition_identity(field, fwd, lambda y: params.inverse_value(a, y))
    assert check_composition_identity(field, lambda x: x, lambda x: x)
    assert check_composition_identity(field, fwd, fwd)  # involution instance
    assert not check_composition_identity(field, fwd, lambda y: y)


def test_cap_enforcement(monkeypatch):
    field = Field(5)
    with pytest.raises(CapExceededError):
        tabulate(field, lambda x: x, cap=4)
    with pytest.raises(CapExceededError):
        check_composition_identity(field, lambda x: x, lambda x: x, cap=2)
    assert oracle_cap() == 1 << 16
    assert oracle_cap(100) == 100
    monkeypatch.setenv("PPINV_ORACLE_CAP", "3")
    assert oracle_cap() == 3
    with pytest.raises(CapExceededError):
        tabulate(field, lambda x: x)
    monkeypatch.setenv("PPINV_ORACLE_CAP", "25")
    tabulate(field, lambda x: x)


def test_cap_env_must_be_integer(monkeypatch):
    monkeypatch.setenv("PPINV_ORACLE_CAP", "abc")
    with pytest.raises(ValueError, match="PPINV_ORACLE_CAP"):
        oracle_cap()
    assert oracle_cap(100) == 100  # an explicit cap never reads the variable
