"""Exact arithmetic in finite fields F_{p^(e*n)}.

A Field fixes the split q = p^e, n: the same underlying field F_{p^(e*n)}
admits several (q, n) splits, and norms and permutation criteria depend on
the split, so it is part of the field's identity.  Elements are coefficient
vectors over F_p in the power basis 1, x, x^2, ..., addressed by the integer
index sum(c_i * p^i).  The modulus is the first monic irreducible polynomial
of its degree in that same little-endian base-p order, so construction is
deterministic.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

DEFAULT_MAX_ORDER = 2 ** 32

# Dense lookup tables (exp/log, digit matrix) are only built for fields small
# enough to sweep exhaustively.
TABLE_LIMIT = 2 ** 20

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for all n below 3.3e24)."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n >= 1, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over F_p as little-endian coefficient lists (internal helpers
# for modulus search and element arithmetic).

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            a[k] = 0
            for j in range(dm):
                a[k - dm + j] = (a[k - dm + j] - c * m[j]) % p
    del a[dm:]
    return _ptrim(a)


def _pmulmod(a, b, m, p):
    return _pmod(_pmul(a, b, p), m, p)


def _ppowmod(a, k, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while k:
        if k & 1:
            result = _pmulmod(result, base, m, p)
        base = _pmulmod(base, base, m, p)
        k >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        bm = [(c * inv_lead) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    return a


def _is_irreducible(m, p) -> bool:
    """Deterministic irreducibility test for a monic polynomial over F_p.

    Checks x^(p^deg) == x mod m together with gcd(x^(p^(deg/r)) - x, m) = 1
    for every prime r dividing deg.
    """
    deg = len(m) - 1
    if deg < 1:
        return False
    x = [0, 1]
    # frob[k] = x^(p^k) mod m, computed by iterated p-th powers
    t = _pmod(x, m, p)
    frob = {0: t}
    for k in range(1, deg + 1):
        t = _ppowmod(t, p, m, p)
        frob[k] = t
    if frob[deg] != _pmod(x, m, p):
        return False
    for r in prime_factors(deg):
        diff = list(frob[deg // r])
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(m, _ptrim(diff), p)
        if len(g) > 1:
            return False
    return True


def first_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """First monic irreducible of the given degree over F_p.

    Candidates are ordered by their non-leading coefficient vector read as a
    little-endian base-p integer, ascending, so the result is deterministic.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    for k in range(p ** degree):
        coeffs = []
        v = k
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        cand = coeffs + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldElement:
    """Element of a Field, identified by its index sum(c_i * p^i)."""

    __slots__ = ("field", "index")

    def __init__(self, field: "Field", index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field._digits(self.index)

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise TypeError("operands belong to different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field._add_idx(self.index, other.index))

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field._sub_idx(self.index, other.index))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg_idx(self.index))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field._mul_idx(self.index, other.index))

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field._mul_idx(self.index, self.field._inv_idx(other.index)))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent: invert first")
        return FieldElement(self.field, self.field._pow_idx(self.index, k))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv_idx(self.index))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.field, self.index))

    def __bool__(self):
        return self.index != 0

    def __int__(self):
        return self.index

    def __str__(self):
        return str(self.index)

    def __repr__(self):
        return f"FieldElement({self.index}, GF({self.field.descriptor()}))"


class Field:
    """F_{q^n} with q = p^e, realised as F_p[x]/(modulus)."""

    def __init__(self, p: int, e: int = 1, n: int = 1, max_order: int = DEFAULT_MAX_ORDER):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1 or n < 1:
            raise ValueError("extension degrees must be positive")
        degree = e * n
        order = p ** degree
        if order > max_order:
            raise ValueError(f"field order {order} exceeds bound {max_order}")
        self.p = p
        self.e = e
        self.n = n
        self.degree = degree
        self.q = p ** e
        self.order = order
        self.modulus: tuple[int, ...] = first_irreducible(p, degree)
        # exp/log lists for fast scalar ops, filled in once dense tables exist
        self._flog: list[int] | None = None
        self._fexp: list[int] | None = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.n) == (other.p, other.e, other.n)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.n))

    def descriptor(self) -> str:
        return f"{self.p}^{self.e}^{self.n}"

    @classmethod
    def from_descriptor(cls, text: str, max_order: int = DEFAULT_MAX_ORDER) -> "Field":
        """Parse a "p^e^n" descriptor."""
        parts = text.split("^")
        if len(parts) != 3:
            raise ValueError(f"field descriptor must look like p^e^n, got {text!r}")
        try:
            p, e, n = (int(s) for s in parts)
        except ValueError:
            raise ValueError(f"non-integer component in field descriptor {text!r}") from None
        return cls(p, e, n, max_order=max_order)

    def __repr__(self):
        return f"Field({self.p}, {self.e}, {self.n})"

    # -- element construction ----------------------------------------------

    def element(self, value) -> FieldElement:
        """Element from an integer index or a coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise TypeError("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer)):
            k = int(value)
            if not 0 <= k < self.order:
                raise ValueError(f"element index {k} out of range [0, {self.order})")
            return FieldElement(self, k)
        return self.from_coeffs(value)

    __call__ = element

    def from_coeffs(self, coeffs) -> FieldElement:
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        if any(not 0 <= c < self.p for c in coeffs):
            raise ValueError("coefficients must be residues mod p")
        return FieldElement(self, self._index(coeffs))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def elements(self):
        """All field elements in index order."""
        for k in range(self.order):
            yield FieldElement(self, k)

    def units(self):
        """All nonzero elements in index order."""
        for k in range(1, self.order):
            yield FieldElement(self, k)

    # -- index <-> digits ----------------------------------------------------

    def _digits(self, k: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.degree):
            out.append(k % self.p)
            k //= self.p
        return tuple(out)

    def _index(self, digits) -> int:
        k = 0
        for c in reversed(list(digits)):
            k = k * self.p + c
        return k

    # -- scalar arithmetic on indices ---------------------------------------

    def _add_idx(self, i: int, j: int) -> int:
        p = self.p
        if p == 2:
            return i ^ j
        if self.degree == 1:
            return (i + j) % p
        out = 0
        mult = 1
        for _ in range(self.degree):
            out += ((i + j) % p) * mult
            i //= p
            j //= p
            mult *= p
        return out

    def _neg_idx(self, i: int) -> int:
        p = self.p
        if p == 2:
            return i
        if self.degree == 1:
            return -i % p
        out = 0
        mult = 1
        for _ in range(self.degree):
            out += (-i % p) * mult
            i //= p
            mult *= p
        return out

    def _sub_idx(self, i: int, j: int) -> int:
        return self._add_idx(i, self._neg_idx(j))

    def _mul_idx(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if self._fexp is not None:
            group = self.order - 1
            return self._fexp[(self._flog[i] + self._flog[j]) % group] if group > 1 else 1
        prod = _pmulmod(list(self._digits(i)), list(self._digits(j)), list(self.modulus), self.p)
        return self._index(prod + [0] * (self.degree - len(prod)))

    def _pow_idx(self, i: int, k: int) -> int:
        if k == 0:
            return 1
        if i == 0:
            return 0
        group = self.order - 1
        k %= group
        if k == 0:
            return 1
        if self._fexp is not None:
            return self._fexp[self._flog[i] * k % group]
        result = 1
        base = i
        while k:
            if k & 1:
                result = self._mul_idx(result, base)
            base = self._mul_idx(base, base)
            k >>= 1
        return result

    def _inv_idx(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._fexp is not None:
            group = self.order - 1
            return self._fexp[(group - self._flog[i]) % group] if group > 1 else 1
        return self._pow_idx(i, self.order - 2)

    # -- norm ----------------------------------------------------------------

    def norm(self, a: FieldElement, d: int = 1) -> FieldElement:
        """Norm from F_{q^n} onto the subfield of order q^d (d must divide n).

        Computed as a^((q^n-1)/(q^d-1)) with the exponent assembled as the
        geometric sum 1 + q^d + q^(2d) + ... so no big-integer division occurs.
        """
        if d < 1 or self.n % d != 0:
            raise ValueError(f"{d} does not divide n={self.n}")
        exp = sum(self.q ** (d * l) for l in range(self.n // d))
        return a ** exp

    # -- dense tables ---------------------------------------------------------

    @cached_property
    def tables(self) -> "FieldTables":
        return FieldTables(self)


class FieldTables:
    """numpy lookup tables for a small field, for vectorised index arithmetic.

    Multiplication goes through exp/log with respect to the least generator g
    of the unit group.  The exp table is built by doubling: multiplying by g^n
    is F_p-linear on digit vectors, so exp[n:2n] is exp[0:n] times one D x D
    matrix mod p, and squaring that matrix doubles n.

    Addition uses one kernel per kind of field:

    - p = 2: XOR of indices; subtraction is the same and negation the identity;
    - prime fields: (u + v) mod p;
    - odd p^k with k >= 2: Zech logarithms (Huber 1990),
      u + v = g^(log u + Z[log v - log u]) with Z[k] = log(1 + g^k), which is
      undefined where g^k = -1, i.e. at k = (Q - 1)/2.

    The digit matrix ``dig`` is built on first use: only Poly's digit
    convolution and coefficient folding need it.  Built lazily via
    Field.tables.
    """

    def __init__(self, field: Field):
        if field.order > TABLE_LIMIT:
            raise ValueError(f"field order {field.order} too large for dense tables")
        self.field = field
        q = field.order
        p = field.p
        self.order = q
        self.p = p
        self.pw = np.array([p ** i for i in range(field.degree)], dtype=np.int64)
        group = max(q - 1, 1)
        ks = np.arange(group, dtype=np.int64)

        # exp/log tables from the least generator of the unit group
        self.generator = self._find_generator()
        self.exp = self._exp_by_doubling(self.generator)
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[self.exp] = ks
        self.inv = np.zeros(q, dtype=np.int64)
        self.inv[self.exp] = self.exp[(group - ks) % group]
        # Frobenius x -> x^p on indices
        self.frob = np.zeros(q, dtype=np.int64)
        self.frob[self.exp] = self.exp[ks * p % group]
        # -1 = g^((Q-1)/2) for odd Q
        if p == 2:
            self.neg = np.arange(q, dtype=np.int64)
        else:
            self.neg = np.zeros(q, dtype=np.int64)
            self.neg[self.exp] = self.exp[(ks + group // 2) % group]

        self._zech = None
        if p != 2 and field.degree > 1:
            self._build_zech()

        # hand the tables back to the field for fast scalar arithmetic
        field._flog = self.log.tolist()
        field._fexp = self.exp.tolist()

    def _find_generator(self) -> int:
        f = self.field
        group = f.order - 1
        if group == 1:
            return 1
        checks = [group // r for r in prime_factors(group)]
        for cand in range(2, f.order):
            if all(f._pow_idx(cand, c) != 1 for c in checks):
                return cand
        raise AssertionError("no generator found")  # unreachable

    def _exp_by_doubling(self, g: int) -> np.ndarray:
        f = self.field
        p, pw = self.p, self.pw
        group = max(self.order - 1, 1)
        exp = np.empty(group, dtype=np.int64)
        exp[0] = 1
        # row i holds the digits of x^i * g^n, so digits(v g^n) = digits(v) @ step
        step = np.array([f._digits(f._mul_idx(int(w), g)) for w in pw], dtype=np.int64)
        n = 1
        while n < group:
            k = min(n, group - n)
            exp[n:n + k] = (exp[:k, None] // pw % p) @ step % p @ pw
            step = step @ step % p
            n += k
        return exp

    def _build_zech(self):
        """Zech tables that need no branch on zero operands.

        u + v = _zexp[lu + _zech[lv - lu]] with lu = _zlog[u], lv = _zlog[v].
        With L = Q - 1, _zlog reads log 0 as 2L, so lv - lu lies in [-2L, 2L];
        negative differences index _zech (length 4L + 1) from its end.

        - both nonzero: Z[(lv - lu) mod L], and 2L where 1 + g^k = 0;
        - u = 0: the difference itself, so the exp index is lv;
        - v = 0: 0, so the exp index is lu;
        - both zero: the difference is 0 and the exp index 2L + Z[0].

        _zexp is exp twice, then L zeros, so exp indices in [2L, 3L) give 0.
        """
        p, L = self.p, self.order - 1
        # index of 1 + g^k: add one to the constant digit
        one_plus = np.where(self.exp % p == p - 1, self.exp - (p - 1), self.exp + 1)
        z = self.log[one_plus]
        z[z < 0] = 2 * L
        zech = np.zeros(4 * L + 1, dtype=np.int64)
        zech[:L] = z
        zech[-(L - 1):] = z[1:]
        zech[2 * L + 1:3 * L + 1] = np.arange(-2 * L, -L, dtype=np.int64)
        self._zech = zech
        self._zexp = np.concatenate([self.exp, self.exp, np.zeros(L, dtype=np.int64)])
        self._zlog = self.log.copy()
        self._zlog[0] = 2 * L

    @cached_property
    def dig(self) -> np.ndarray:
        """(Q, D) base-p digits of every index."""
        return np.arange(self.order, dtype=np.int64)[:, None] // self.pw % self.p

    # all methods take and return int64 index arrays (broadcastable)

    def _zech_add(self, u, v):
        lu = self._zlog[u]
        return self._zexp[lu + self._zech[self._zlog[v] - lu]]

    def add(self, u, v):
        if self.p == 2:
            return np.bitwise_xor(u, v)
        if self._zech is None:
            return np.add(u, v) % self.p
        return self._zech_add(u, v)

    def sub(self, u, v):
        if self.p == 2:
            return np.bitwise_xor(u, v)
        if self._zech is None:
            return np.subtract(u, v) % self.p
        return self._zech_add(u, self.neg[v])

    def sum_terms(self, stack):
        """Field sum along the first axis of a stacked index array."""
        stack = np.asarray(stack, dtype=np.int64)
        if self.p == 2:
            return np.bitwise_xor.reduce(stack, axis=0)
        if self._zech is None:
            return stack.sum(axis=0) % self.p
        if len(stack) <= 1:
            return stack.sum(axis=0)
        # pairwise halving: log2(rows) vectorised adds
        while len(stack) > 1:
            half = len(stack) // 2
            pairs = self._zech_add(stack[:half], stack[half:2 * half])
            stack = np.concatenate([pairs, stack[2 * half:]]) if len(stack) % 2 else pairs
        return stack[0]

    def mul(self, u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        out = self.exp[(self.log[u] + self.log[v]) % max(self.order - 1, 1)]
        return np.where((u == 0) | (v == 0), 0, out)

    def pow(self, u, k: int):
        u = np.asarray(u, dtype=np.int64)
        if k < 0:
            raise ValueError("negative exponent: invert first")
        if k == 0:
            return np.ones_like(u)
        group = max(self.order - 1, 1)
        kk = k % group
        out = self.exp[(self.log[u] * kk) % group]
        return np.where(u == 0, 0, out)

    def inv_of(self, u):
        u = np.asarray(u, dtype=np.int64)
        if np.any(u == 0):
            raise ZeroDivisionError("inverse of zero")
        return self.inv[u]
