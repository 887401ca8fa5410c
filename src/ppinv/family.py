"""The permutation family f(x) = x(x^s - a)^t on F_{q^n}.

Provides the s-th power non-residue criterion, the pointwise closed-form
inverse, its symbolic (scale, g, h) decomposition, and the gcd identity used
to select branches in the t = 2 specialisation.  The linearized binomial
x^{q^m} - ax is the member s = q^m - 1, t = 1, served by the same code.  The
powers a^{-(q^{im}-1)/(q^m-1)} of h come from one Frobenius chain, and the
pointwise h from its sum by doubling.
"""

from __future__ import annotations

import math

import numpy as np

from .gf import Field, FieldElement, as_int, exact_div
from .poly import Poly, poly_from_terms


class NotPermutationError(ValueError):
    """An inverse was requested where the permutation criterion fails."""


def frobenius_chain(term: FieldElement, w, qm: int, count: int):
    """The count terms c_1 = term, c_(i+1) = c_i^qm * w (w unused if count = 1).

    With term = w = a^-1, c_i = a^(-(qm^i - 1)/(qm - 1)).  A power to qm = p^j
    is a Frobenius map: one linear map on the packed kernels.
    """
    yield term
    for _ in range(count - 1):
        term = term ** qm * w
        yield term


def frobenius_sum(term: FieldElement, w, qm: int, count: int) -> FieldElement:
    """c_1 + ... + c_count for the terms c_i of ``frobenius_chain``, by doubling.

    With S_k = c_1 + ... + c_k and N_k = w^(1 + qm + ... + qm^(k-1)),
    c_(i+k) = c_i^(qm^k) N_k and a power to qm = p^j is additive, so
    S_2k = S_k + S_k^(qm^k) N_k, N_2k = N_k^(qm^k) N_k, S_(k+1) = term + S_k^qm w
    and N_(k+1) = N_k^qm w (Itoh and Tsujii, Inf. Comput. 78, 1988).  N is kept
    only for a later doubling, so this takes no more products, powers or sums
    than the chain.  qm^k is kept mod Q - 1, never 0 as count > 1 means Q > 3.
    """
    group = term.field.order - 1
    bits = bin(count)[3:]
    total, norm, qk = term, w, qm % group  # S_k, N_k and qm^k for k = 1
    for later, bit in zip(range(len(bits) - 1, -1, -1), bits):  # later: doublings after this one
        total = total + total ** qk * norm
        norm = norm ** qk * norm if later else None
        qk = qk * qk % group
        if bit == "1":
            total = term + total ** qm * w
            norm = norm ** qm * w if later else None
            qk = qk * qm % group
    return total


class PPParams:
    """Validated parameters (m, s, t) with st = q^m - 1, plus derived gcd data."""

    def __init__(self, field: Field, m: int, s: int, t: int):
        m, s, t = as_int(m, "m"), as_int(s, "s"), as_int(t, "t")
        if not 1 <= m <= field.n:
            raise ValueError(f"m must lie in [1, {field.n}], got {m}")
        if s < 1 or t < 1:
            raise ValueError("s and t must be positive")
        target = field.q ** m - 1
        if s * t != target:
            raise ValueError(f"s*t = {s * t} but q^m - 1 = {target}")
        self.field = field
        self.m = m
        self.s = s
        self.t = t
        group = field.order - 1
        self.d = math.gcd(m, field.n)
        self.s_bar = math.gcd(s, group)
        self.u = math.gcd(t, group // self.s_bar)
        q = field.q
        nd = field.n // self.d
        # the exponents (q^{(i-1)m}-1)/t of y in h, i = 1..n/d
        self._G = [exact_div(q ** ((i - 1) * m) - 1, t) for i in range(1, nd + 1)]
        self._norm_exp = field.norm_exponent(self.d)
        self._crit_exp = group // self.s_bar

    def __eq__(self, other):
        return (
            isinstance(other, PPParams)
            and (self.field, self.m, self.s, self.t) == (other.field, other.m, other.s, other.t)
        )

    def __hash__(self):
        return hash((self.field, self.m, self.s, self.t))

    def __repr__(self):
        return f"PPParams(GF({self.field.descriptor()}), m={self.m}, s={self.s}, t={self.t})"

    # -- operations on an element or an index-array element ---------------------

    def _permuting(self, a) -> tuple[FieldElement, FieldElement, FieldElement]:
        """a as a unit, its norm N(a) onto the subfield of order q^d, and the
        criterion power a^((q^n-1)/s_bar) = N(a)^((q^d-1)/s_bar), as s_bar | q^d-1.

        Rejects a up front when the criterion fails, since the denominator
        N(y^s) - N(a) of the inverse is only provably nonzero for permutations.
        An index-array a is rejected if any of its entries fails, naming the
        first one.
        """
        a = self.field.unit(a)
        n_a = a ** self._norm_exp
        crit = n_a ** (self._crit_exp // self._norm_exp)
        fails = crit == self.field.one
        if np.any(fails):
            first = np.extract(fails, a.index)[0]
            raise NotPermutationError(f"a={first} is an s-th power; f is not a permutation")
        return a, n_a, crit

    def _h_chain(self, ainv: FieldElement, ys: FieldElement):
        """(T_1, w, q^m, n/d) for the terms T_i of h given ys = y^s (see ``h_value``):
        T_1 = a^{-1} and T_{i+1} = T_i^{q^m} w with w = a^{-1} y^s."""
        count = len(self._G)
        return ainv, ainv * ys if count > 1 else None, self.field.q ** self.m, count

    def criterion_power(self, a) -> FieldElement:
        """a^((q^n-1)/s_bar); f permutes the field iff this is not 1."""
        return self.field.unit(a) ** self._crit_exp

    def is_permutation(self, a) -> bool:
        return self.criterion_power(a) != self.field.one

    def evaluate(self, a, x) -> FieldElement:
        """f(x) = x (x^s - a)^t."""
        a = self.field.unit(a)
        x = self.field.element(x)
        return x * (x ** self.s - a) ** self.t

    def h_value(self, a, y) -> FieldElement:
        """The n/d-term sum h(y) = sum_i T_i, T_i = a^{-E_i} y^{G_i}.

        E_i = (q^{im}-1)/(q^m-1) = 1 + q^m + ... + q^{(i-1)m} and
        G_i = (q^{(i-1)m}-1)/t = s (1 + q^m + ... + q^{(i-2)m}), using
        st = q^m - 1.  Hence E_1 = 1, G_1 = 0, E_{i+1} = q^m E_i + 1 and
        G_{i+1} = q^m G_i + s, so T_1 = a^{-1} and
        T_{i+1} = T_i^{q^m} * a^{-1} y^s.  The sum is a twisted trace, which
        ``frobenius_sum`` doubles in about 2 log2(n/d) powers to q^{mk} and
        products.  On the packed kernels such a power is a Frobenius map, linear
        on digit vectors; the only general power is y^s, as a^{-1} is a chain of
        Frobenius maps (see ``gf._PackedKernel``).
        """
        y = self.field.element(y)
        return frobenius_sum(*self._h_chain(self.field.unit(a).inverse(), y ** self.s))

    def inverse_value(self, a, y) -> FieldElement:
        """Pointwise inverse: the unique x with f(x) = y.

        y^s is raised once and serves both h and the denominator
        N(y^s) - N(a); on the packed kernels the norm and both inverses are
        Frobenius chains, so y^s and the final t-th power are the only general
        powers.  At y = 0 the denominator is -N(a) != 0, so the result is 0.
        """
        a, n_a, _ = self._permuting(a)
        y = self.field.element(y)
        ys = y ** self.s
        scale = n_a / (ys ** self._norm_exp - n_a)
        chain = self._h_chain(a.inverse(), ys)
        del ys  # on index arrays, one (a x y) array fewer is alive while h is summed
        return y * (scale * frobenius_sum(*chain)) ** self.t

    def closed_inverse(self, a) -> "ClosedInverse":
        """Symbolic decomposition f^{-1}(y) = y (scale * g(y) * h(y))^t."""
        a, n_a, crit = self._permuting(a)
        scale = n_a / (self.field.one - crit)
        # at y = 1 the terms are the coefficients a^{-E_i}
        h_terms = tuple(zip(self._G, frobenius_chain(*self._h_chain(a.inverse(), self.field.one))))
        return ClosedInverse(self.field, a, self.t, scale, n_a, self.u, self._norm_exp * self.s, h_terms)

    def inverse_polynomial(self, a) -> Poly:
        """Reduced coefficient form of the inverse, from the symbolic decomposition."""
        return self.closed_inverse(a).as_poly()

    # -- whole-field sweeps, as index arrays ---------------------------------------

    def a_indices(self, selection=None) -> np.ndarray:
        """The selected a indices as an array; every nonzero a when None.

        Raises ValueError for a selection that is not 1-D, for any index
        outside [1, Q), and for None on a field too large for index arrays;
        Field.element raises TypeError for a selection that is not integer
        (floats, strings, bools).
        """
        Q = self.field.order
        if selection is None:
            return self.field.all_elements().index[1:]
        a = np.asarray(selection)
        if a.ndim != 1:
            raise ValueError(f"a indices must be a 1-D selection, got shape {a.shape}")
        if not a.size:
            a = a.astype(np.int64)  # np.asarray([]) is float64
        elif a.dtype.kind in "iu" and (a.min() < 1 or a.max() >= Q):
            raise ValueError(f"a indices must lie in [1, {Q})")
        return self.field.element(a).index

    def criterion_mask(self, a_indices=None) -> np.ndarray:
        """Boolean criterion verdict for an array of nonzero a indices."""
        a = FieldElement(self.field, self.a_indices(a_indices))
        return self.criterion_power(a) != self.field.one

    def images_for(self, a_indices=None) -> np.ndarray:
        """Images of every field point under f, one row per a."""
        a = FieldElement(self.field, self.a_indices(a_indices)[:, None])
        return self.evaluate(a, self.field.all_elements()).index

    def inverse_values(self, a) -> np.ndarray:
        """Pointwise inverse at every field point, as an index array."""
        return self.inverse_value(a, self.field.all_elements()).index


class ClosedInverse:
    """The (scale, g, h, t) decomposition of the inverse of x(x^s - a)^t.

    g = sum_l N^(u-l) y^(step (l-1)), l = 1 .. u, is kept as N = N(a), u and
    step = nu s; h as its term list.  Term lists keep the literal exponents
    (which may exceed Q - 1); the g and h properties fold them mod x^Q - x.
    """

    __slots__ = ("field", "a", "t", "scale", "n_a", "u", "step", "h_terms")

    def __init__(self, field, a, t, scale, n_a, u, step, h_terms):
        self.field = field
        self.a = a
        self.t = t
        self.scale = scale
        self.n_a = n_a
        self.u = u
        self.step = step
        self.h_terms = h_terms

    @property
    def g_terms(self) -> tuple:
        """The u terms (step (l-1), N^(u-l)) of g, l = 1 .. u."""
        return tuple((self.step * (l - 1), self.n_a ** (self.u - l)) for l in range(1, self.u + 1))

    @property
    def g(self) -> Poly:
        return poly_from_terms(self.field, self.g_terms)

    @property
    def h(self) -> Poly:
        return poly_from_terms(self.field, self.h_terms)

    def as_poly(self) -> Poly:
        """Reduced coefficient vector of y (scale * g(y) * h(y))^t.

        Every exponent of g h is a multiple of e = gcd(Q - 1, the exponents),
        so the inverse is y W(y^e) with W of degree <= M = (Q - 1)/e and W(0) = 0,
        fixed by its values on the cycle mu_M (Poly.from_cycle): the t-th
        powers of scale g h at y = g^j, j < M, g the table generator.  There h
        is summed from its terms and g = sum_l N^(u-l) w^(l-1) =
        (N^u - w^u)/(N - w), with N = N(a) and w = y^step = N(y^s), never N
        as a permutes.
        """
        f, u, k = self.field, self.u, self.step
        T, L = f.tables, f.order - 1
        e = math.gcd(L, k if u > 1 else 0, *(i for i, _ in self.h_terms))
        j = np.arange(L // e, dtype=np.int64)  # y = g^j
        h = np.zeros_like(j)
        for i, c in self.h_terms:
            h = T.add(h, T.exp[i % L * j % L + T.log[c.index]])
        g = f.one.index
        if u > 1:
            top = T.sub((self.n_a ** u).index, T.exp[u * k % L * j % L])
            g = T.mul(top, T.inv_of(T.sub(self.n_a.index, T.exp[k % L * j % L])))
        values = T.pow(T.mul(T.mul(g, h), self.scale.index), self.t)
        return Poly.from_cycle(f, 0, values, e)

    def __repr__(self):
        return (
            f"ClosedInverse(a={self.a.index}, t={self.t}, scale={self.scale.index}, "
            f"g={self.u} terms, h={len(self.h_terms)} terms)"
        )


# ---------------------------------------------------------------------------
# The linearized binomial L(x) = x^{q^m} - ax: the member s = q^m - 1, t = 1


def linearized_poly(field: Field, m: int, a) -> Poly:
    """Coefficients of L(x) = x^{q^m} - ax, folded mod x^Q - x."""
    PPParams(field, m, field.q ** m - 1, 1)  # checks m
    a = field.unit(a)
    return poly_from_terms(field, [(1, -a), (field.q ** m, field.one)])


def linearized_is_permutation(field: Field, m: int, a) -> bool:
    """L permutes the field iff the norm of a onto the gcd subfield is not 1."""
    return PPParams(field, m, field.q ** m - 1, 1).is_permutation(a)


def linearized_inverse(field: Field, m: int, a) -> Poly:
    """Inverse of L as a reduced q-polynomial: g = 1, the criterion power is N(a)
    and the family's inverse is N/(1 - N) sum_i a^{-(q^{im}-1)/(q^m-1)} x^{q^{(i-1)m}}
    (Wu and Liu, Finite Fields Appl. 22, 2013); at m = n, L is (1 - a) x."""
    return PPParams(field, m, field.q ** m - 1, 1).inverse_polynomial(a)


# ---------------------------------------------------------------------------
# gcd identity for odd bases


def gcd_halfpower(a: int, m: int, n: int) -> int:
    """gcd((a^m - 1)/2, a^n - 1) in closed form for odd a >= 3.

    Equals a^d - 1 when m/d is even and (a^d - 1)/2 when m/d is odd,
    where d = gcd(m, n).
    """
    if a < 3 or a % 2 == 0:
        raise ValueError("base must be odd and >= 3")
    if m < 1 or n < 1:
        raise ValueError("exponents must be positive")
    d = math.gcd(m, n)
    v = a ** d - 1
    return v if (m // d) % 2 == 0 else v // 2
