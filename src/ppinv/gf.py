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
import operator
from functools import cached_property

import numpy as np

# The largest field order: checked before any big power or primality test.
MAX_ORDER = 2 ** 32

# Dense lookup tables (exp/log, digit matrix) are only built for fields small
# enough to sweep exhaustively.
TABLE_LIMIT = 2 ** 20

# Scalar arithmetic reads lists made from the tables up to this order (a build
# of at most ~50 ms, covering every oracle field) and the packed kernel above.
SCALAR_TABLE_LIMIT = 2 ** 16

# An element index: an int, or an int64 array of indices on a field with tables.
Index = int | np.ndarray


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


def exact_div(num: int, den: int) -> int:
    """num / den, which must be exact."""
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{num} not divisible by {den}")
    return q


def as_int(value, what: str) -> int:
    """value as a Python int: TypeError for a bool (Python's or numpy's) or a non-integer."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{what} must be an integer, got bool")
    return operator.index(value)


def is_prime(n: int) -> bool:
    """Primality by trial division: at most ~2 ms up to MAX_ORDER."""
    return n > 1 and prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# Packed-integer kernels: F_p[x]/(m) with each residue held in one Python int,
# so a product is one big-integer multiply plus a few whole-word operations.

# _SPREAD[b] interleaves the bits of the byte b with zeros: squaring over F_2
_SPREAD = [sum((b >> i & 1) << 2 * i for i in range(8)) for b in range(256)]


def _repeat(word: int, width: int, count: int) -> int:
    """``word`` copied into ``count`` slots of ``width`` bits."""
    return word * ((1 << width * count) - 1) // ((1 << width) - 1)


class _PackedKernel:
    """Multiplication mod a monic modulus on packed residues.

    ``pack``/``unpack`` convert between a field index and the packed form,
    the kernel's native value; ``add``, ``neg``, ``mul``, ``sqr``, ``pow`` and
    ``power`` work on native values only.  Above SCALAR_TABLE_LIMIT the kernel
    is the scalar backend, and a FieldElement holds its native value, so a
    chain of operations converts only where an index is read.

    A power to k = p^j with 0 < j < D is the Frobenius map, which is
    F_p-linear on digit vectors: ``frob`` applies it from the images of
    x^(i k), built on first use of each k by ``_frobenius_map`` and kept in
    ``_frob`` (keyed by every such k, None until built).  ``power`` sends
    two more exponent shapes to chains of these maps (Itoh and Tsujii, Inf.
    Comput. 78, 1988), about log2(D) products each in place of a square and
    multiply over the whole exponent:

    - a norm exponent (p^D - 1)/(p^j - 1) with j | D, j < D, by ``_norm``;
    - Q - 2, the inverse, by ``_inverse``.

    Both are identities of exponents, exact in F_p[x]/(m) for any monic m.
    """

    def __init__(self, p: int, degree: int):
        self.p, self.degree = p, degree
        self.group = p ** degree - 1
        self._frob = dict.fromkeys(p ** j for j in range(1, degree))
        # norm exponent -> (P, count): a^(1 + P + ... + P^(count-1)), P = p^j
        self._norms = {
            self.group // (p ** j - 1): (p ** j, degree // j)
            for j in range(1, degree) if degree % j == 0
        }

    def pow(self, a: int, k: int) -> int:
        """a^k for k >= 1, by left-to-right square and multiply."""
        r = a
        for bit in bin(k)[3:]:
            r = self.sqr(r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def power(self, a: int, k: int) -> int:
        """a^k for k >= 0 reduced mod p^D - 1: a Frobenius map, a chain or square and multiply."""
        if a == 0:
            return 0 if k else 1
        k %= self.group
        if k == 0:
            return 1
        if k in self._frob:
            return self.frob(a, k)
        if k in self._norms:
            return self._norm(a, *self._norms[k])
        if k == self.group - 1 and self.degree > 1:
            return self._inverse(a)
        return self.pow(a, k)

    def _frobenius_map(self, k: int) -> list[int]:
        """Packed x^(i k) for i = 0 .. D-1 (needs D >= 2)."""
        step = self.pow(self.x, k)
        images = [1]
        for _ in range(1, self.degree):
            images.append(self.mul(images[-1], step))
        return images

    def frob(self, v: int, k: int) -> int:
        """Packed v^k for packed v and k = p^j, 0 < j < D, by the map kept in ``_frob``."""
        images = self._frob[k]
        if images is None:
            images = self._frob[k] = self._frobenius_map(k)
        return self.frobenius(images, v)

    def _norm(self, a: int, P: int, count: int) -> int:
        """Packed b_count = a^(1 + P + ... + P^(count-1)) for packed a, P = p^j, j count <= D.

        Doubling chain: b_(2c) = b_c^(P^c) b_c and b_(c+1) = b_c^P a, where
        every P^c with c < count is a Frobenius map.
        """
        beta, Pc = a, P
        for bit in bin(count)[3:]:
            beta = self.mul(self.frob(beta, Pc), beta)
            Pc *= Pc
            if bit == "1":
                beta = self.mul(self.frob(beta, P), a)
                Pc *= P
        return beta

    def _inverse(self, a: int) -> int:
        """Packed a^(Q-2) = a^(r-1) (a^r)^(p-2) with r = (Q-1)/(p-1), for D >= 2.

        a^(r-1) = a^(p + ... + p^(D-1)) is b_(D-1)^p; the small (p-2)-th
        power goes through ``pow``.
        """
        head = self.frob(self._norm(a, self.p, self.degree - 1), self.p)
        if self.p == 2:
            return head
        return self.mul(head, self.pow(self.mul(head, a), self.p - 2))


class _Gf2Kernel(_PackedKernel):
    """p = 2: an index is its own coefficient bit vector.

    A product is a carry-less multiply by 4-bit windows (a table of the 16
    products a v, then one shift and XOR per nibble of b), a square spreads the
    bits apart, and x^D is folded back as the XOR of the modulus's low terms,
    shifted.  The first irreducible of each degree has few, low taps, so one or
    two folds finish the reduction.
    """

    def __init__(self, modulus):
        super().__init__(2, len(modulus) - 1)
        self.mask = (1 << self.degree) - 1
        self.taps = tuple(i for i, c in enumerate(modulus[:-1]) if c)
        self.x = 2  # x, for degree >= 2

    pack = unpack = neg = staticmethod(operator.pos)  # +i is i
    add = staticmethod(operator.xor)

    def reduce(self, v: int) -> int:
        D, mask, taps = self.degree, self.mask, self.taps
        hi = v >> D
        while hi:
            v &= mask
            for j in taps:
                v ^= hi << j
            hi = v >> D
        return v

    def mul(self, a: int, b: int) -> int:
        """4-bit window: the carry-less products a v for v < 16, one per nibble of b."""
        a2, a4, a8 = a << 1, a << 2, a << 3
        a3, a6, a12 = a2 ^ a, a4 ^ a2, a8 ^ a4
        table = (0, a, a2, a3, a4, a4 ^ a, a6, a6 ^ a, a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
        out = 0
        for shift in range(0, b.bit_length(), 4):
            out ^= table[b >> shift & 15] << shift
        return self.reduce(out)

    def sqr(self, a: int) -> int:
        out = 0
        shift = 0
        while a:
            out |= _SPREAD[a & 255] << shift
            a >>= 8
            shift += 16
        return self.reduce(out)

    def _frobenius_map(self, k: int) -> list[list[int]]:
        """Nibble tables: entry v of table c is the image of the bits v << 4c."""
        images = super()._frobenius_map(k)
        tables = []
        for c in range(0, self.degree, 4):
            table = [0]
            for image in images[c:c + 4]:
                table += [v ^ image for v in table]
            tables.append(table)
        return tables

    @staticmethod
    def frobenius(tables, v: int) -> int:
        out = 0
        for table in tables:
            out ^= table[v & 15]
            v >>= 4
        return out


class _OddKernel(_PackedKernel):
    """Odd p: Kronecker substitution (Harvey 2009) with W-bit slots.

    Digit c_i of a residue sits in bits [W i, W (i + 1)), so the product of
    two residues is one integer multiply whose slots hold the raw coefficient
    sums.  Whole-word steps then finish the product:

    - ``_mod`` reduces every slot mod p at once: floor(v / p) is
      (v * M) >> s for every v up to the slot bound, so one multiply, shift and
      mask give all quotients;
    - the high half is reduced by polynomial Barrett division, quotient
      q = ((P div x^D) * mu) div x^(D-2) with mu = x^(2D-2) div m, exact over a
      field, and remainder P - q m taken on the low D slots only.

    W is chosen so that no slot sum (at most (D-1) D (p-1)^3 before a
    ``_mod``) spills into its neighbour, also after the multiply by M.
    """

    def __init__(self, p: int, modulus):
        D = len(modulus) - 1
        super().__init__(p, D)
        bound = max(2 * D * (p - 1) ** 2, (D - 1) * D * (p - 1) ** 3)
        self.shift = s = (bound * p).bit_length()
        self.magic = M = -(-(1 << s) // p)
        self.width = W = (bound * M).bit_length()
        self.slot = (1 << W) - 1
        self.quot = _repeat((1 << W - s) - 1, W, 2 * D - 1)
        self.low = (1 << W * D) - 1
        self.x = 1 << W  # x, for degree >= 2
        self.negm = sum((-c % p) << W * i for i, c in enumerate(modulus))
        self.p_ones = _repeat(p, W, D)
        self.mu = self._barrett_mu()

    def _barrett_mu(self) -> int:
        """x^(2D-2) div m by long division on the packed dividend."""
        D, W, p = self.degree, self.width, self.p
        num = 1 << W * (2 * D - 2)
        mu = 0
        for k in range(2 * D - 2, D - 1, -1):
            c = (num >> W * k & self.slot) % p
            if c:
                mu |= c << W * (k - D)
                num += c * self.negm << W * (k - D)
        return mu

    def _mod(self, v: int) -> int:
        return v - self.p * ((v * self.magic) >> self.shift & self.quot)

    def mul(self, a: int, b: int) -> int:
        D, W = self.degree, self.width
        prod = a * b
        q = self._mod((prod >> W * D) * self.mu) >> W * (D - 2) if D > 1 else 0
        return self._mod((prod & self.low) + (q * self.negm & self.low))

    def add(self, a: int, b: int) -> int:
        return self._mod(a + b)

    def neg(self, a: int) -> int:
        return self._mod(self.p_ones - a)

    def frobenius(self, images, v: int) -> int:
        """Sum of the digits c_i of packed v times the images of x^i.

        Slot sums of at most D (p-1)^2 fit ``_mod``.
        """
        W, slot, acc = self.width, self.slot, 0
        for image in images:
            acc += (v & slot) * image
            v >>= W
        return self._mod(acc)

    def pack(self, i: int) -> int:
        out = shift = 0
        while i:
            i, c = divmod(i, self.p)
            out |= c << shift
            shift += self.width
        return out

    def unpack(self, v: int) -> int:
        out = 0
        for shift in range(self.width * (self.degree - 1), -1, -self.width):
            out = out * self.p + (v >> shift & self.slot)
        return out


def _kernel(p: int, modulus) -> _PackedKernel:
    return _Gf2Kernel(modulus) if p == 2 else _OddKernel(p, modulus)


def _is_irreducible(m, p) -> bool:
    """Deterministic irreducibility test for a monic polynomial over F_p (Rabin 1980).

    Checks x^(p^deg) == x mod m together with gcd(x^(p^(deg/r)) - x, m) = 1
    for every prime r dividing deg.  Candidates with the root 0 or 1 are
    rejected first.  Once x^(p^deg) == x, m divides x^(p^deg) - x, so it is
    squarefree with irreducible factors of degrees dividing deg (Lidl and
    Niederreiter, Th. 3.20), and F_p[x]/(m) is a product of fields whose unit
    groups have orders dividing p^deg - 1.  A residue u is therefore coprime
    to m exactly when u^(p^deg - 1) == 1, which the packed kernel computes.
    """
    deg = len(m) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if m[0] == 0 or sum(m) % p == 0:
        return False
    K = _kernel(p, m)
    # frob[k] = x^(p^k) mod m, packed
    frob = [K.x]
    for _ in range(deg):
        frob.append(K.pow(frob[-1], p))
    if frob[deg] != K.x:
        return False
    for r in prime_factors(deg):
        u = K.add(frob[deg // r], (p - 1) * K.x)  # x^(p^(deg/r)) - x
        if K.pow(u, K.group) != 1:
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
        cand = [k // p ** i % p for i in range(degree)] + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldElement:
    """Element of a Field, identified by its index sum(c_i * p^i).

    ``FieldElement(field, index)`` holds ``value``, the native form of the
    scalar backend (packed on the odd-p packed kernel, else the index), which
    the operators pass straight to its ``add``, ``neg``, ``mul`` and ``power``;
    ``index`` converts back once and caches.  On a field with tables the index
    may be an int64 numpy array, also the value: operators then run elementwise
    on the FieldTables kernels with broadcasting and ``==``/``!=`` give masks
    (the galois library's FieldArray), so a formula evaluates arrays unchanged.
    """

    __slots__ = ("field", "value", "_index")

    def __init__(self, field: "Field", index: Index | None, value=None):
        self.field = field
        self._index = index
        if value is None:
            value = index if index.__class__ is np.ndarray else field._scalar.pack(index)
        self.value = value

    @property
    def index(self) -> Index:
        if self._index is None:
            v = self.value
            self._index = v if v.__class__ is np.ndarray else self.field._scalar.unpack(v)
        return self._index

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field._digits(self.index)

    def _pair(self, other):
        """The backend for self op other, and both operands in its native form.

        Equal fields share the modulus and the scalar backend, both fixed by
        (p, degree), so their elements' native values mix as they are.
        """
        f = self.field
        if other.__class__ is not FieldElement or (other.field is not f and other.field != f):
            raise TypeError("operands belong to different fields")
        a, b = self.value, other.value
        if a.__class__ is np.ndarray or b.__class__ is np.ndarray:
            return f.tables, self.index, other.index
        return f._scalar, a, b

    def __add__(self, other):
        ops, a, b = self._pair(other)
        return FieldElement(self.field, None, ops.add(a, b))

    def __sub__(self, other):
        return self + -other  # for a non-element, -other is none either and __add__ raises TypeError

    def __neg__(self):
        v, f = self.value, self.field
        if v.__class__ is not np.ndarray:
            return FieldElement(f, None, f._scalar.neg(v))
        return FieldElement(f, None, v if f.p == 2 else f.tables.neg[v])

    def __mul__(self, other):
        ops, a, b = self._pair(other)
        return FieldElement(self.field, None, ops.mul(a, b))

    def __truediv__(self, other):
        self._pair(other)  # the field check comes before other.inverse() can raise
        return self * other.inverse()

    def __pow__(self, k: int):
        if k.__class__ is not int:
            k = operator.index(k)  # TypeError on floats, for scalars and arrays alike
        if k < 0:
            raise ValueError("negative exponent: invert first")
        if k == 1:  # e.g. the norm onto the whole field, or t = 1: no kernel call
            return self
        v = self.value
        if v.__class__ is np.ndarray:
            return FieldElement(self.field, None, self.field.tables.pow(v, k))
        return FieldElement(self.field, None, self.field._scalar.power(v, k))

    def inverse(self) -> "FieldElement":
        v = self.value
        if v.__class__ is np.ndarray:
            return FieldElement(self.field, None, self.field.tables.inv_of(v))
        if not v:
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.field, None, self.field._scalar.power(v, self.field.order - 2))

    def __eq__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            a, b = self.value, other.value
            if a.__class__ is not np.ndarray and b.__class__ is not np.ndarray:
                return a == b  # native forms are canonical: packed slots lie in [0, p)
        return isinstance(other, FieldElement) and other.field == self.field and self.index == other.index

    def __ne__(self, other):
        eq = self == other
        return ~eq if isinstance(eq, np.ndarray) else not eq

    def __hash__(self):
        return hash((self.field, self.index))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.index

    def __str__(self):
        return str(self.index)

    def __repr__(self):
        return f"FieldElement({self.index}, GF({self.field.descriptor()}))"


class Field:
    """F_{q^n} with q = p^e, realised as F_p[x]/(modulus)."""

    def __init__(self, p: int, e: int = 1, n: int = 1):
        p, e, n = operator.index(p), operator.index(e), operator.index(n)  # TypeError on floats
        if e < 1 or n < 1:
            raise ValueError("extension degrees must be positive")
        degree = e * n
        # p^degree >= 2^degree, so a long degree is refused before its power is taken
        if p > 1 and (degree >= MAX_ORDER.bit_length() or p ** degree > MAX_ORDER):
            raise ValueError(f"field order {p}^{degree} exceeds the bound {MAX_ORDER}")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.e = e
        self.n = n
        self.degree = degree
        self.q = p ** e
        self.order = p ** degree
        self.modulus: tuple[int, ...] = first_irreducible(p, degree)

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
    def from_descriptor(cls, text: str) -> "Field":
        """Parse a "p^e^n" descriptor."""
        parts = text.split("^")
        if len(parts) != 3:
            raise ValueError(f"field descriptor must look like p^e^n, got {text!r}")
        try:
            p, e, n = (int(s) for s in parts)
        except ValueError:
            raise ValueError(f"non-integer component in field descriptor {text!r}") from None
        return cls(p, e, n)

    def __repr__(self):
        return f"Field({self.p}, {self.e}, {self.n})"

    # -- element construction ----------------------------------------------

    def element(self, value) -> FieldElement:
        """Element from an integer index or an index array; digits go to from_coeffs.

        The package's one index-array check: TypeError unless the dtype is
        integer, ValueError unless every entry lies in [0, Q), and ValueError
        above TABLE_LIMIT, as an array runs on the field's tables.
        """
        if isinstance(value, FieldElement):
            if value.field != self:
                raise TypeError("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer, np.bool_)):
            k = as_int(value, "element index")
            if not 0 <= k < self.order:
                raise ValueError(f"element index {k} out of range [0, {self.order})")
            return FieldElement(self, k)
        if isinstance(value, np.ndarray):
            if value.dtype.kind not in "iu":
                raise TypeError(f"element index arrays must be integer, got {value.dtype}")
            if value.size and (value.min() < 0 or value.max() >= self.order):
                raise ValueError(f"element indices must lie in [0, {self.order})")
            self.tables  # arrays run on the table kernels
            return FieldElement(self, np.asarray(value, dtype=np.int64))  # a plain ndarray
        raise TypeError(f"element needs an integer index or an index array, got {type(value).__name__}")

    __call__ = element

    def unit(self, a) -> FieldElement:
        """a as an element, which must be nonzero (every entry, for an index array)."""
        a = self.element(a)
        if not (a.index.all() if isinstance(a.index, np.ndarray) else a.index):
            raise ValueError("a must be nonzero")
        return a

    def from_coeffs(self, coeffs) -> FieldElement:
        coeffs = [operator.index(c) for c in coeffs]  # TypeError on floats
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        if any(not 0 <= c < self.p for c in coeffs):
            raise ValueError("coefficients must be residues mod p")
        return FieldElement(self, self._index(coeffs))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0, 0)  # 0 and 1 are their own native forms

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1, 1)

    def elements(self):
        """All field elements in index order."""
        return (FieldElement(self, k) for k in range(self.order))

    def all_elements(self) -> FieldElement:
        """Every field element at once: one element holding the index array 0..Q-1."""
        self.tables  # arrays run on the table kernels
        return FieldElement(self, np.arange(self.order, dtype=np.int64))

    # -- index <-> digits ----------------------------------------------------

    def _digits(self, k: int) -> tuple[int, ...]:
        return tuple(k // self.p ** i % self.p for i in range(self.degree))

    def _index(self, digits) -> int:
        return sum(c * self.p ** i for i, c in enumerate(digits))

    # -- backends ---------------------------------------------------------------
    # An index array operand goes to the FieldTables kernels, a scalar to _scalar.

    @cached_property
    def _kernel(self) -> _PackedKernel:
        """Packed-integer kernel: the scalar backend above SCALAR_TABLE_LIMIT, and the table build's."""
        return _kernel(self.p, self.modulus)

    @cached_property
    def _scalar(self) -> "_ListKernel | _PackedKernel":
        """The scalar backend, fixed by the order alone; built by the first scalar element."""
        return _ListKernel(self.tables) if self.order <= SCALAR_TABLE_LIMIT else self._kernel

    # -- norm ----------------------------------------------------------------

    def norm_exponent(self, d: int) -> int:
        """(q^n-1)/(q^d-1), the exponent of the norm onto the subfield of order q^d.

        d must divide n.  Assembled as the geometric sum 1 + q^d + q^(2d) + ...
        so no big-integer division occurs.
        """
        if d < 1 or self.n % d != 0:
            raise ValueError(f"{d} does not divide n={self.n}")
        return sum(self.q ** (d * l) for l in range(self.n // d))

    def norm(self, a: FieldElement, d: int = 1) -> FieldElement:
        """Norm from F_{q^n} onto the subfield of order q^d (d must divide n)."""
        return a ** self.norm_exponent(d)

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

    - p = 2: XOR of indices; subtraction is the same, and no ``neg`` table as -u = u;
    - prime fields: (u + v) mod p;
    - odd p^k with k >= 2: Zech logarithms (Huber 1990),
      u + v = g^(log u + Z[log v - log u]) with Z[k] = log(1 + g^k), which is
      undefined where g^k = -1, i.e. at k = (Q - 1)/2.

    ``pow(u, k)`` reduces k mod L = Q - 1; from Q points up it gathers from one
    Q-entry table of x^k.  Remainders by L are e - (e // L) L (e >= 0): numpy
    divides an array by a scalar by multiply and shift, but ``%`` per element.

    The digit matrix ``dig`` and the digits ``xpow`` of x^0 .. x^(2D-2) are
    built on first use: only Poly's FFT product and coefficient folding need
    them.  Built lazily via Field.tables, on the field's packed kernel alone:
    up to SCALAR_TABLE_LIMIT the scalar backend reads these tables.
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
        self.group = L = q - 1
        ks = np.arange(L, dtype=np.int64)

        # exp/log from the least generator g of the unit group, with zero
        # folded in as in Huber's Zech tables: log reads log 0 as 2L, and exp
        # is g^k for k < 2L, then 2L + 1 zeros, so exp[log u + log v] is u v;
        # exp[:L] lists the units
        self.generator = self._find_generator()
        units = self._exp_by_doubling(self.generator)
        self.exp = np.concatenate([units, units, np.zeros(2 * L + 1, dtype=np.int64)])
        self.log = np.full(q, 2 * L, dtype=np.int64)
        self.log[units] = ks
        self.inv = np.zeros(q, dtype=np.int64)
        self.inv[units] = units[(L - ks) % L]
        # -u = u g^((Q-1)/2) for odd Q; no table for p = 2, where -u = u
        self.neg = None if p == 2 else self.exp[self.log + L // 2]

        self._zech = None
        if p != 2 and field.degree > 1:
            self._build_zech()

    def _find_generator(self) -> int:
        f, K, group = self.field, self.field._kernel, self.group
        if group == 1:
            return 1
        checks = [group // r for r in prime_factors(group)]
        for cand in range(2, f.order):
            if all(K.power(K.pack(cand), c) != 1 for c in checks):  # 1 is its own packed form
                return cand
        raise AssertionError("no generator found")  # unreachable

    def _exp_by_doubling(self, g: int) -> np.ndarray:
        f, K = self.field, self.field._kernel
        p, pw, group = self.p, self.pw, self.group
        exp = np.empty(group, dtype=np.int64)
        exp[0] = 1
        # row i holds the digits of x^i * g^n, so digits(v g^n) = digits(v) @ step
        step = np.array([f._digits(K.unpack(K.mul(K.pack(int(w)), K.pack(g)))) for w in pw], dtype=np.int64)
        n = 1
        while n < group:
            k = min(n, group - n)
            exp[n:n + k] = (exp[:k, None] // pw % p) @ step % p @ pw
            step = step @ step % p
            n += k
        return exp

    def _build_zech(self):
        """Zech tables that need no branch on zero operands.

        u + v = exp[lu + _zech[lv - lu]] with lu = log[u], lv = log[v].
        With L = Q - 1, log reads log 0 as 2L, so lv - lu lies in [-2L, 2L];
        negative differences index _zech (length 4L + 1) from its end.

        - both nonzero: Z[(lv - lu) mod L], and 2L where 1 + g^k = 0;
        - u = 0: the difference itself, so the exp index is lv;
        - v = 0: 0, so the exp index is lu;
        - both zero: the difference is 0 and the exp index 2L + Z[0].

        Exp indices in [2L, 3L) land in the zero tail of exp.
        """
        p, L = self.p, self.group
        units = self.exp[:L]
        # index of 1 + g^k: add one to the constant digit
        z = self.log[np.where(units % p == p - 1, units - (p - 1), units + 1)]
        zech = np.zeros(4 * L + 1, dtype=np.int64)
        zech[:L] = z
        zech[-(L - 1):] = z[1:]
        zech[2 * L + 1:3 * L + 1] = np.arange(-2 * L, -L, dtype=np.int64)
        self._zech = zech

    @cached_property
    def dig(self) -> np.ndarray:
        """(Q, D) base-p digits of every index."""
        return np.arange(self.order, dtype=np.int64)[:, None] // self.pw % self.p

    @cached_property
    def xpow(self) -> np.ndarray:
        """(2D - 1, D) digits of x^w for w < 2D - 1; x has index p."""
        K, D = self.field._kernel, self.field.degree
        high = [K.unpack(K.power(K.pack(self.p), w)) for w in range(D, 2 * D - 1)]
        return np.vstack([np.eye(D, dtype=np.int64), self.dig[high]])

    # all methods take and return int64 index arrays (broadcastable)

    def _zech_add(self, u, v):
        lu = self.log[u]
        return self.exp[lu + self._zech[self.log[v] - lu]]

    def add(self, u, v):
        if self.p == 2:
            return np.bitwise_xor(u, v)
        if self._zech is None:
            return np.add(u, v) % self.p
        return self._zech_add(u, v)

    def sub(self, u, v):
        return self.add(u, v if self.p == 2 else self.neg[v])

    def sum_terms(self, stack):
        """Field sum along the first axis of a stacked index array (zeros for no rows):
        pairwise halving, log2(rows) calls of add."""
        stack = np.asarray(stack, dtype=np.int64)
        if not len(stack):
            return np.zeros(stack.shape[1:], dtype=np.int64)
        while len(stack) > 1:
            half = len(stack) // 2
            stack = np.concatenate([self.add(stack[:half], stack[half:2 * half]), stack[2 * half:]])
        return stack[0]

    def mul(self, u, v):
        return self.exp[self.log[u] + self.log[v]]

    def pow(self, u, k: int):
        u = np.asarray(u, dtype=np.int64)
        if k < 0:
            raise ValueError("negative exponent: invert first")
        if k == 0:
            return np.ones_like(u)
        L, k = self.group, k % self.group
        if u.size < self.order:  # below Q points the table costs more than the points
            e = self.log[u] * k
            return np.where(u == 0, 0, self.exp[e - e // L * L])
        e = self.log * k
        table = self.exp[e - e // L * L]
        table[0] = 0  # log 0 reads 2L; 0^k = 0 for k > 0
        return table[u]

    def inv_of(self, u):
        u = np.asarray(u, dtype=np.int64)
        if not u.all():
            raise ZeroDivisionError("inverse of zero")
        return self.inv[u]


class _ListKernel:
    """The scalar backend up to SCALAR_TABLE_LIMIT: FieldTables' zero-folded
    exp/log (and Zech) tables as Python lists, which index far faster than
    numpy arrays.  Its native value is the index, so an element is made
    without the lists, which the first operation that reads them builds.
    Addition is XOR for p = 2, (i + j) mod p on prime fields and Zech
    otherwise; -i = i g^((Q-1)/2) for odd p, and i for p = 2.
    """

    def __init__(self, tables: FieldTables):
        p, self.tables, self.group = tables.p, tables, tables.group
        self.half = self.group // 2
        if p == 2:
            self.add, self.neg = operator.xor, operator.pos
        elif tables._zech is None:
            self.add = lambda i, j: (i + j) % p

    pack = unpack = staticmethod(operator.pos)  # +i is i
    zlog = cached_property(lambda self: self.tables.log.tolist())
    # the units listed twice, not tables.exp.tolist(): each unit is then one
    # shared int object, which keeps the lists 2 MiB smaller at 2^16
    zexp = cached_property(lambda self: 2 * self.tables.exp[:self.group].tolist() + [0] * (2 * self.group + 1))
    zech = cached_property(lambda self: self.tables._zech.tolist())

    def add(self, i: int, j: int) -> int:
        lu = self.zlog[i]
        return self.zexp[lu + self.zech[self.zlog[j] - lu]]

    def neg(self, i: int) -> int:
        return self.zexp[self.zlog[i] + self.half]

    def mul(self, i: int, j: int) -> int:
        return self.zexp[self.zlog[i] + self.zlog[j]]

    def power(self, i: int, k: int) -> int:
        if i == 0:
            return 0 if k else 1
        return self.zexp[self.zlog[i] * k % self.group]
