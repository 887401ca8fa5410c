"""Dense univariate polynomials over a finite field.

Coefficients are stored little-endian as an int64 array of element indices.
A product is one exact float64 FFT convolution of the operands' base-p digit
matrices: each operand is transformed once (_transform), and _convolve
multiplies the spectra and finishes only the output window its caller reads.
Reduction mod x^Q - x (Q the field order) uses the exponent rule
k -> ((k - 1) mod (Q - 1)) + 1 for k >= Q, which never sends a positive
exponent to 0 and so preserves the induced function on the whole field,
including at 0.  Two reduced polynomials are equal iff they induce the same
function (Lidl & Niederreiter, Finite Fields, ch. 7).  Polynomials in
z = x^e, e | Q - 1, live in a smaller ring: with M = (Q - 1)/e, z -> x^e is
a ring homomorphism F[z]/(z^(M+1) - z) -> F[x]/(x^Q - x), as
x^(e(M+1)) = x^(Q-1+e) = x^e.  As z^(M+1) - z splits into distinct linear
factors over {0} and the cycle mu_M of g^e (g the table generator), such a
polynomial is fixed by its values there.  Every interpolant here has the
one shape F(0) + y W(y^e) with W(0) = 0: Poly.from_cycle reads W from its
values on mu_M by a chirp correlation of one cyclic convolution
(_cycle_coeffs) and scatters it, reduced, onto the exponents 1 + ek.
Poly.interpolate first reads the table's own cycle: for G = F - F(0), the
largest e | Q - 1 with G(zeta y) = zeta G(y) for every zeta in mu_e, one
vector compare per prime power of Q - 1 (_symmetry).  Then G(y) = y W(y^e)
with W(g^(ej)) = G(g^j) / g^j, so it transforms (Q - 1)/e values, and a
table with no symmetry (e = 1) the whole group.  The inverse of x h(x^s)
has this shape, with F(0) = 0, for the e that family.ClosedInverse.as_poly
reads off its terms, so where the table has no further symmetry the two
share one cycle and one plan.  The chirp, the transform length and the
spectrum of the correlation kernel depend only on the field and e: they are
built on the first call into a _ChirpPlan, kept per e for as long as the
field's tables live, so a later call gathers and transforms its values only.
A plan holds D r spectrum rows of N/2 + 1 complex entries (r limbs per
digit, N the power of two >= 2M - 1), 16 MiB for e = 1 at 2^16.  Every
operation, interpolation included, reads the field's dense tables and is
bounded only by their limit (gf.TABLE_LIMIT); exhaustive checks over a field
are bounded by the oracle cap instead.
"""

from __future__ import annotations

import math
import operator
import weakref

import numpy as np

from .gf import Field, FieldElement, prime_factors

def check_images(field: Field, images) -> np.ndarray:
    """A table of Q image indices as int64; TypeError unless its dtype is integer."""
    table = np.asarray(images)
    if table.shape != (field.order,):
        raise ValueError(f"table must hold exactly {field.order} images")
    if table.dtype.kind not in "iu":
        raise TypeError(f"image indices must be integers, got {table.dtype}")
    if table.min() < 0 or table.max() >= field.order:
        raise ValueError(f"image indices must lie in [0, {field.order})")
    return table.astype(np.int64, copy=False)


def _limb_bits(p: int, r: int) -> int:
    """Bit width of each of the r limbs a base-p digit is split into."""
    return -(-(p - 1).bit_length() // r)


def _limb_split(p: int, digits: int, la: int, lb: int) -> int:
    """Fewest limbs r that keep an FFT product exact.

    Each base-p digit is split into r limbs of ceil(log2 p / r) bits.  By
    Percival's bound (Math. Comp. 72 (2003) 387-395), a float64 FFT
    convolution of length N = 2^n misses x * y by less than
    |x| |y| ((1 + e)^(3n) (1 + e sqrt 5)^(3n + 1) (1 + b)^(3n) - 1) in every
    entry, with e = 2^-53 and b, the error of the roots of unity, taken as e.
    An output digit sums digits * r such products in the frequency domain
    (one more factor (1 + e) each), and |x| <= top sqrt(len) for limbs of at
    most top.  The bound must stay below 1/4, half of what rounding to the
    nearest integer needs, as margin for numpy's real radix-4 transforms.
    Percival's bound is for cyclic convolution; n, from la + lb - 2, is log2 of
    the full product's length and over-estimates it for any shorter cyclic one.
    """
    n = (la + lb - 2).bit_length()
    eps = 2.0 ** -53
    for r in range(1, (p - 1).bit_length() + 1):
        bits = _limb_bits(p, r)
        top = min(p - 1, (1 << bits) - 1)
        terms = digits * r
        grow = math.expm1((6 * n + terms) * math.log1p(eps) + (3 * n + 1) * math.log1p(eps * math.sqrt(5)))
        if terms * top * top * math.sqrt(la * lb) * grow < 0.25:
            return r
    raise ValueError("polynomials too long for an exact float64 product")


def _transform(field: Field, idx: np.ndarray, size: int, r: int) -> np.ndarray:
    """The spectrum _convolve takes for an index vector: its base-p digit matrix,
    each digit split into r limbs, transformed along the coefficient axis at
    length size (a power of two).

    Axes: digit u, limb i, frequency.  Digits above the highest nonzero one are
    dropped, all but digit 0 for an all-zero operand.
    """
    bits = _limb_bits(field.p, r)
    limbs = field.tables.dig[idx].T[:, None] >> bits * np.arange(r)[:, None] & (1 << bits) - 1
    return np.fft.rfft(limbs[: np.flatnonzero(limbs.any(axis=(1, 2))).max(initial=0) + 1], n=size)


def _convolve(field: Field, A: np.ndarray, B: np.ndarray, size: int, window: slice) -> np.ndarray:
    """The element indices in window of the length-size cyclic convolution of
    two index vectors, given as their spectra (_transform, with the same size
    and the r limbs of _limb_split for their lengths).

    Digit u of one operand times digit v of the other lands on digit u + v,
    so the digit axis is convolved as at most D broadcast multiply-adds of spectra;
    one inverse transform and np.rint then give the exact integer digit sums, since
    _limb_split keeps the rounding error below 1/4 (for large p by splitting digits
    into limbs, which adds a second digit-like axis).  Digits u + v >= D fold back
    through x^(u+v) mod the field modulus.  Only the window's coefficients are
    rounded, reduced and folded.
    """
    T, D, p = field.tables, field.degree, field.p
    r = A.shape[1]
    bits = _limb_bits(p, r)
    C = np.zeros((len(A) + len(B) - 1, 2 * r - 1, size // 2 + 1), dtype=np.complex128)
    for u in range(len(A)):
        for i in range(r):
            C[u:u + len(B), i:i + r] += A[u, i] * B
    C = np.rint(np.fft.irfft(C, n=size)[..., window])
    C -= p * np.rint(C * (1 / p))  # now |C| <= p/2 + 1, congruent mod p
    # limb sum l of digit w weighs 2^(bits l) x^w, and x^w for w >= D folds
    # back below the field modulus; in float64 this is exact, each sum
    # having (2D - 1)(2r - 1) terms below p (p/2 + 1)
    weights = [pow(2, bits * k, p) for k in range(2 * r - 1)]
    fold = np.multiply.outer(T.xpow[: len(C)].T, weights).reshape(D, -1) % p
    C = (fold @ C.reshape(fold.shape[1], -1)).astype(np.int64) % p
    return T.pw @ C


class Poly:
    """Polynomial over a Field; the zero polynomial has an empty coefficient vector."""

    __slots__ = ("field", "idx")

    def __init__(self, field: Field, coeffs=()):
        self.field = field
        if isinstance(coeffs, np.ndarray) and coeffs.dtype == np.int64:
            if coeffs.view(np.uint64).max(initial=0) >= field.order:  # negatives wrap to huge
                raise ValueError(f"element indices out of range [0, {field.order})")
            arr = coeffs
        else:
            arr = np.array([field.element(c).index for c in coeffs], dtype=np.int64)
        nz = np.nonzero(arr)[0]
        self.idx = arr[: nz[-1] + 1].copy() if len(nz) else np.empty(0, dtype=np.int64)

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.idx) - 1

    def terms(self):
        """Nonzero (exponent, coefficient) pairs, ascending."""
        return [(int(k), FieldElement(self.field, int(self.idx[k]))) for k in np.nonzero(self.idx)[0]]

    def to_text(self) -> str:
        return ",".join(str(int(c)) for c in self.idx)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and np.array_equal(self.idx, other.idx)
        )

    def __bool__(self):
        return len(self.idx) > 0

    def __repr__(self):
        return f"Poly(GF({self.field.descriptor()}), [{self.to_text()}])"

    # -- evaluation -----------------------------------------------------------

    def __call__(self, x: FieldElement) -> FieldElement:
        """Value at x, an element or an index-array element, summed over the nonzero terms."""
        if x.field != self.field:
            raise TypeError("point from a different field")
        acc = self.field.zero
        for k, c in self.terms():
            acc = acc + c * x ** k
        return acc

    # -- ring operations --------------------------------------------------------

    def __mul__(self, other: "Poly") -> "Poly":
        """Plain (unreduced) product: one _convolve long enough not to wrap."""
        f = self.field
        if other.field != f:
            raise TypeError("mixed fields")
        if not self or not other:
            return Poly(f)
        la, lb = len(self.idx), len(other.idx)
        size = 1 << (la + lb - 2).bit_length()
        r = _limb_split(f.p, f.degree, la, lb)
        A, B = _transform(f, self.idx, size, r), _transform(f, other.idx, size, r)
        return Poly(f, _convolve(f, A, B, size, slice(la + lb - 1)))

    def reduce(self) -> "Poly":
        """Canonical representative of the induced function (degree < Q):
        x^k -> x^(((k - 1) mod (Q - 1)) + 1) for k >= Q."""
        Q = self.field.order
        if len(self.idx) <= Q:
            return Poly(self.field, self.idx)
        out = self.idx[:Q].copy()
        for lo in range(Q, len(self.idx), Q - 1):  # x^(Q + (Q-1) r + i) -> x^(i+1)
            chunk = self.idx[lo:lo + Q - 1]
            out[1:len(chunk) + 1] = self.field.tables.add(out[1:len(chunk) + 1], chunk)
        return Poly(self.field, out)

    def frobenius(self) -> "Poly":
        """p-th power, reduced: c -> c^p, and exponent k > 0 -> ((kp - 1) mod (Q - 1)) + 1,
        a permutation of 1 .. Q - 1 as p is prime to Q - 1.  No package path calls
        it: it stays as a bench layer and a test reference."""
        f, base = self.field, self.reduce()
        tgt = np.arange(len(base.idx))
        tgt[1:] = (tgt[1:] * f.p - 1) % (f.order - 1) + 1
        out = np.zeros(tgt.max(initial=-1) + 1, dtype=np.int64)
        out[tgt] = f.tables.pow(base.idx, f.p)
        return Poly(f, out)

    def pow_mod(self, k: int) -> "Poly":
        """k-th power mod x^Q - x by square and multiply.  No package path calls
        it: it stays as a bench layer and a test reference."""
        k = operator.index(k)
        if k < 0:
            raise ValueError("negative exponent")
        result, base = Poly(self.field, [1]), self.reduce()
        while k:
            if k & 1:
                result = (result * base).reduce()
            k >>= 1
            if k:
                base = (base * base).reduce()
        return result

    # -- interpolation ----------------------------------------------------------

    @classmethod
    def interpolate(cls, field: Field, images) -> "Poly":
        """Unique polynomial of degree < Q taking the value images[x] at each x.

        images holds the Q integer image indices in index order.  For
        G = F - F(0), e is the largest divisor of L = Q - 1 with G(zeta y) =
        zeta G(y) for every unit y and zeta in mu_e (_symmetry).  Then G(y) =
        y W(y^e) with W(g^(ej)) = G(g^j) / g^j, so from_cycle transforms L/e values.
        """
        y_by_x = check_images(field, images)
        T, L = field.tables, field.order - 1
        G = T.sub(y_by_x[T.exp[:L]], y_by_x[0])  # on the units, in generator order
        e = _symmetry(field, G)
        M = L // e
        return cls.from_cycle(field, y_by_x[0], T.mul(G[:M], T.inv[T.exp[:M]]), e)

    @classmethod
    def from_cycle(cls, field: Field, at_zero, values: np.ndarray, e: int) -> "Poly":
        """The reduced at_zero + y W(y^e), for the W of degree <= M = (Q - 1)/e
        with W(0) = 0 and W(g^(ej)) = values[j] for j < M, g the table
        generator (_cycle_coeffs).  w_k lands on y^(1 + ek) for 0 < k < M, and
        the y^Q term w_M folds onto y."""
        out = np.zeros(field.order, dtype=np.int64)
        out[0] = at_zero
        out[1::e] = np.roll(_cycle_coeffs(field, values, e), 1)
        return cls(field, out)


class _ChirpPlan:
    """What _cycle_coeffs reads of the field and e alone, for M = (Q - 1)/e:
    the chirp c_m = h^C(m, 2) of h = g^e as the head c_0 .. c_(M-1) and the
    tail -e c_1 .. -e c_M, the transform length N, the limbs r of an exact
    product of M by 2M - 1 coefficients, and the spectrum of the kernel
    b_m = 1/c_m, 0 < m < 2M: D r rows of N/2 + 1 complex128, about 8 D r N bytes.
    """

    __slots__ = ("head", "tail", "size", "limbs", "kernel")

    def __init__(self, field: Field, e: int):
        T = field.tables
        M = (field.order - 1) // e
        m = np.arange(2 * M, dtype=np.int64)
        chirp = T.exp[m * (m - 1) // 2 % M * e]
        self.head = chirp[:M]
        self.tail = T.mul(chirp[1:M + 1], -e % field.p)  # 1/M = -e in F_p
        # a reversed times b_1 .. b_(2M-1) has coefficient M - 2 + k = sum_j a_j b_(j+k);
        # the 3M - 2 coefficients, cyclic at length N >= 2M - 1, wrap only below M - 1
        self.size = 1 << (2 * M - 2).bit_length()
        self.limbs = _limb_split(field.p, field.degree, M, 2 * M - 1)
        self.kernel = _transform(field, T.inv[chirp[1:]], self.size, self.limbs)


# the chirp plans of each field's tables by e, built on first use and dropped
# with the tables
_plans = weakref.WeakKeyDictionary()


def _cycle_coeffs(field: Field, values: np.ndarray, e: int) -> np.ndarray:
    """Coefficients w_1 .. w_M of the W of degree <= M = (Q - 1)/e with W(0) =
    0 and W(g^(ej)) = values[j] for j < M, g the table generator.

    z^(M+1) - z splits into distinct linear factors over {0} and the cycle
    mu_M of h = g^e, so W is unique.  Inverting the DFT on mu_M (Lidl &
    Niederreiter, Finite Fields, ch. 7; 1/M = -e in F_p, as eM = Q - 1)
    gives w_k = -e S_k, S_k = sum_(j<M) W(h^j) h^(-jk).  As -jk = C(j,2) +
    C(k,2) - C(j+k,2) (Bluestein's chirp), S_k is h^C(k,2) times the
    correlation sum_j a_j b_(j+k) of a_j = W(h^j) h^C(j,2) and b_m =
    h^-C(m,2), taken as one cyclic FFT product (a middle product: Hanrot,
    Quercia and Zimmermann, AAECC 14 (2004)).  Everything but a depends on
    the field and e alone and is kept in a _ChirpPlan, so a call transforms
    a only.
    """
    T = field.tables
    plans = _plans.setdefault(T, {})
    plan = plans.get(e)
    if plan is None:
        plan = plans[e] = _ChirpPlan(field, e)
    M = len(plan.head)
    a = _transform(field, T.mul(values, plan.head)[::-1], plan.size, plan.limbs)
    sums = _convolve(field, a, plan.kernel, plan.size, slice(M - 1, 2 * M - 1))
    return T.mul(sums, plan.tail)


def _symmetry(field: Field, units: np.ndarray) -> int:
    """The largest e | L = Q - 1 with F(zeta y) = zeta F(y) for every unit y
    and zeta in mu_e, F the table with F(g^j) = units[j].

    The zeta with F(zeta y) = zeta F(y) for all y form a subgroup of the
    cyclic unit group, mu_e, and mu_e is the product of its parts mu_(q^i),
    q^i || e.  So for each prime q | L, i rises while g^(L/q^i), the
    generator of mu_(q^i), passes: one compare of the units rolled by L/q^i
    against the units times g^(L/q^i).
    """
    T, L = field.tables, len(units)
    e = 1
    for q in prime_factors(L):
        k = q
        while L % k == 0 and np.array_equal(np.roll(units, -(L // k)), T.mul(units, T.exp[L // k])):
            k *= q
        e *= k // q
    return e


def poly_from_terms(field: Field, terms) -> Poly:
    """Reduced polynomial from (exponent, coefficient) pairs.

    Exponents >= Q are folded as Python integers first, so arbitrarily large
    printed exponents stay cheap; terms that land on the same exponent are
    added digit-wise.  Like every Poly operation this needs the field's
    tables, so a larger field is refused with ValueError.
    """
    Q = field.order
    pairs = [(k if k < Q else (k - 1) % (Q - 1) + 1, field.element(c).index) for k, c in terms]
    exps, coeffs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    T = field.tables
    acc = np.zeros((exps.max(initial=0) + 1, field.degree), dtype=np.int64)
    np.add.at(acc, exps, T.dig[coeffs])
    return Poly(field, (acc % field.p) @ T.pw)

