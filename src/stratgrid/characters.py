"""Exact cyclotomic arithmetic, characters of small finite rings, Gauss sums,
and the coefficientwise twist identity for companion coefficient families.

Gauss sums, and every element a caller reads, are computed in rings
Z[x]/Phi_m(x) with integer coefficients; no floating point and no division.
The one inverse the twist identity would need, 1/W(psi), is removed by
cross-multiplying both sides.

The twist checks (`verify_twist_identity`, `twist_laws`) print no
coefficient, only a verdict and the first index where two elements differ.
They decide each comparison by evaluating both sides at every primitive
M-th root of unity modulo primes l = 1 (mod M) below 2^30 (von zur Gathen
and Gerhard, *Modern Computer Algebra*, chapters 5 and 8), so a product is
phi(M) multiplications of one-digit integers.  That is exact:

- Modulo such an l there is an w of exact order M, and its powers w^k, k
  prime to M, are phi(M) distinct roots of Phi_M.  zeta_M -> w^k is a ring
  map, so a difference D of the two sides that vanishes at all of them has
  its phi(M) power-basis coefficients, a polynomial of degree below phi(M),
  all divisible by l.
- Each side is a product of factors, each a sum of terms c zeta_M^e.  The
  product of those sums, folded modulo x^M - 1, has coefficients at most
  the product of the factors' L1 norms (the sums of |c|), and reducing it
  modulo Phi_M grows them at most `_divisor(M).growth` times.  So with B
  that growth times the larger product, every coefficient of D is at most
  2B in absolute value.
- The primes are taken until their product exceeds 2B; a coefficient of D
  divisible by all of them is then 0.  So the sides agree at every point
  exactly when they are equal.

With the CLI's r = 2, s = 3, C = 1 and seed coefficients up to 9, one
30-bit prime covers M = 12, 24, 60, 156, 506 and 2436 (B is below 2^27 at
M = 2436).  `_Evaluation` never stops short of the bound.

Every term of a character sum is a power zeta_M^e, so the sums are counted in
Z[x]/(x^M - 1), one counter per distinct exponent e mod M, and reduced once
modulo Phi_M.  That is exact because Phi_M divides x^M - 1.  The counts are
packed straight from the terms, so no M-long vector is built.

The ring arithmetic runs in C big-integer operations, and every product and
every reduction takes one path:

- Phi_m is the Mobius product of (1 - x^d)^mu(m/d) over d | m, one in-place
  pass per squarefree cofactor m/d.
- A product trims its operands, packs each into one integer, a signed digit
  per coefficient, and multiplies once (Kronecker substitution: von zur
  Gathen and Gerhard, *Modern Computer Algebra*, section 8.4).  A reduction
  folds its dividend modulo x^m - 1, which Phi_m divides, and packs it.
- The digits are sized once, for the division as well: the nonzero terms of
  the sparser operand times the largest coefficients of both (for a
  reduction, the dividend's largest coefficient), times
  `_divisor(m).growth`.
- The packed integer is reduced modulo Phi_m without being unpacked in
  between.  A dividend of at most phi(m) coefficients is only unpacked; a
  longer one goes through the reversed-inverse (Newton) division.  1/Phi_m
  is -Psi_m repeated with period m, where Psi_m = (x^m - 1)/Phi_m, so the
  same Mobius product gives it.
- An `int` operand of `CyclotomicInt` scales coefficient by coefficient,
  with no packing and no reduction: a reduced element times an integer
  stays reduced.  An integer, and zeta_m^k for k mod m below phi(m), is its
  own remainder, so `from_int`, such a `zeta` and `==` against an `int`
  pack nothing either.

The twist identity is linear in the seed, and at every index both of its
sides are the seed coefficient times a factor free of the seed.  Every seed
coefficient is nonzero and Z[zeta_M] is a domain, so the factors decide the
identity for every seed.  They come down to two classical laws (Ireland and
Rosen, *A Classical Introduction to Modern Number Theory*, chapter 8):

    T(u) psi_p(u) = W(psi_p)        for u != 0,
    S_n(v) = psi_n(v) W(psi_n^-1)   for units v,

where T(u) is the psi_p-twisted sum at u and S_n(v) the psi_n^-1-twisted sum
over units; T(0) = 0 when psi_p is nontrivial.  `twist_laws` checks the
factors; `verify_twist_identity` checks the identity on one seed.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product, repeat
from math import gcd, lcm
from operator import add, index, mod, mul, sub
from random import Random

from .embeddings import _is_prime

__all__ = [
    "ConductorTooLarge",
    "InconsistentSeed",
    "TrivialCharacter",
    "cyclotomic_poly",
    "CyclotomicInt",
    "conductor",
    "GF",
    "UnitGroup",
    "FieldChar",
    "UnitChar",
    "all_field_chars",
    "all_unit_chars",
    "gauss_sum",
    "twisted_sum",
    "unit_twisted_sum",
    "CoeffFamily",
    "TwistSeed",
    "random_twist_seed",
    "build_companion_coeffs",
    "TwistReport",
    "verify_twist_identity",
    "twist_laws",
    "COEFF_CAP",
]

COEFF_CAP = 1000


class ConductorTooLarge(ValueError):
    """Requested cyclotomic ring needs more than COEFF_CAP coefficients."""


class InconsistentSeed(ValueError):
    """Seed assigns values outside its allowed support or misses indices."""


class TrivialCharacter(ValueError):
    """Operation needs a nontrivial character."""


# ---------------------------------------------------------------------------
# integer polynomials (dense ascending coefficient sequences)

# Machine words that `array` packs in one call: byte size -> typecode.
_WORDS = {array(t).itemsize: t for t in "qlihb"}


def _top(a) -> int:
    """Index of the last nonzero coefficient of a, -1 if there is none."""
    return next(compress(range(len(a) - 1, -1, -1), reversed(a)), -1)


@lru_cache(maxsize=256)
def _mask(n: int, size: int) -> int:
    """The integer with the top bit of each of n size-byte digits set."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


def _pack(a, size: int) -> int:
    """a evaluated at 2^(8 size), for |coefficients| below 2^(8 size - 1).

    The digits are read as two's complement words in one call; flipping each
    top bit turns the word of x into x + 2^(8 size - 1), so subtracting the
    mask leaves the signed sum.
    """
    if size in _WORDS:
        words = array(_WORDS[size], a)
        if sys.byteorder != "little":
            words.byteswap()
        raw = words.tobytes()
    else:
        raw = b"".join(x.to_bytes(size, "little", signed=True) for x in a)
    mask = _mask(len(a), size)
    return (int.from_bytes(raw, "little") ^ mask) - mask


def _unpack(v: int, n: int, size: int) -> list[int]:
    """The n signed size-byte digits of v; inverse of `_pack`."""
    mask = _mask(n, size)
    raw = ((v + mask) ^ mask).to_bytes(n * size, "little")
    if size in _WORDS:
        words = array(_WORDS[size])
        words.frombytes(raw)
        if sys.byteorder != "little":
            words.byteswap()
        return words.tolist()
    return [
        int.from_bytes(raw[i : i + size], "little", signed=True)
        for i in range(0, len(raw), size)
    ]


def _word_size(bound: int) -> int:
    """Bytes of the smallest digit that holds every integer of absolute value
    at most `bound` in two's complement, rounded up to a machine word when
    one is wide enough."""
    size = (bound.bit_length() + 8) // 8
    if size not in _WORDS and size < max(_WORDS):
        size = min(w for w in _WORDS if w >= size)
    return size


def _high_digits(v: int, j: int, bits: int) -> int:
    """The packed digits of v from position j up, when every digit of v
    below j is a signed (bits)-bit digit."""
    if j == 0:
        return v
    return (v + (1 << (bits * j - 1))) >> (bits * j)


def _max_abs(a) -> int:
    return max(max(a, default=0), -min(a, default=0))


def _mobius_factors(m: int) -> list[tuple[int, int]]:
    """(d, mu(m/d)) for the divisors d of m with m/d squarefree."""
    out = [(m, 1)]
    for _, p in _prime_power_factors(m):
        out += [(d // p, -mu) for d, mu in out]
    return out


def _times_one_minus(s: list[int], d: int) -> None:
    """s *= 1 - x^d, truncated to len(s), in place."""
    s[d:] = map(sub, s[d:], s[: len(s) - d])


def _over_one_minus(s: list[int], d: int) -> None:
    """s /= 1 - x^d as a power series truncated to len(s), in place."""
    for i in range(d, len(s), d):
        s[i : i + d] = map(add, s[i : i + d], s[i - d : i])


def _cyclotomic_series(m: int, n: int, power: int) -> list[int]:
    """First n coefficients of the product over d | m of (1 - x^d)^mu(m/d),
    raised to power = 1 or -1: that product is Phi_m for m >= 2, and
    1 - x = rev(Phi_1) for m = 1."""
    s = [1] + [0] * (n - 1)
    for d, mu in _mobius_factors(m):
        if mu * power > 0:
            _times_one_minus(s, d)
        else:
            _over_one_minus(s, d)
    return s


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, exact."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if m == 1:
        return (-1, 1)
    return tuple(_cyclotomic_series(m, _euler_phi(m) + 1, 1))


@dataclass(frozen=True, slots=True)
class _Divisor:
    """Phi_m as a divisor.

    `series` holds the first m coefficients of the power series
    1/rev(Phi_m), which repeat with period m.  For m >= 2 Phi_m is
    palindromic, and the series is 1/Phi_m(x) = -Psi_m(x) (1 + x^m + x^2m +
    ...) with Psi_m = (x^m - 1)/Phi_m of degree below m; for m = 1 it is
    1/(1 - x) = 1 + x + ....  `growth`, 1 plus the L1 norms of one period of
    the series and of Phi_m multiplied, bounds how much a packed division
    can grow a coefficient.
    """

    m: int
    deg: int
    series: tuple[int, ...]
    growth: int


@lru_cache(maxsize=None)
def _divisor(m: int) -> _Divisor:
    phi = cyclotomic_poly(m)
    series = tuple(_cyclotomic_series(m, m, -1))
    growth = 1 + sum(map(abs, series)) * sum(map(abs, phi))
    return _Divisor(m, len(phi) - 1, series, growth)


@lru_cache(maxsize=256)
def _packed_divisor(m: int, k: int, size: int) -> tuple[int, int]:
    """The first k coefficients of 1/rev(Phi_m) reversed, and Phi_m, packed."""
    return _pack(_divisor(m).series[k - 1 :: -1], size), _pack(cyclotomic_poly(m), size)


def _packed_rem(packed: int, n: int, div: _Divisor, size: int) -> list[int]:
    """a mod Phi_m as exactly phi(m) coefficients, for a dividend a of
    n <= m + deg coefficients packed in signed digits of `size` bytes.

    A dividend of at most deg coefficients is its own remainder, and is only
    unpacked.  A longer one goes through the reversed-inverse (Newton)
    division on packed integers: two products and one unpack.  With
    a = q Phi_m + r and k = n - deg, let h be the coefficients of a from
    x^deg up and s the first k of 1/rev(Phi_m).  Then rev(q) = rev(h) s mod
    x^k, that is, q is h times rev(s) from x^(k-1) up; and r = a - q Phi_m.
    Every coefficient met, of a, h rev(s) and r, is at most max|a| times
    `div.growth`: the digits of `size` bytes must hold that.  The digits of
    q Phi_m need no bound, since a - q Phi_m = r exactly.
    """
    if n <= div.deg:
        return _unpack(packed, div.deg, size)
    k = n - div.deg
    bits = 8 * size
    rev_series, phi = _packed_divisor(div.m, k, size)
    q = _high_digits(_high_digits(packed, div.deg, bits) * rev_series, k - 1, bits)
    return _unpack(packed - q * phi, div.deg, size)


def _reduce(a, m: int) -> list[int]:
    """a mod Phi_m as exactly phi(m) coefficients, exact over the integers.

    Coefficients from x^m up are first folded down, since Phi_m divides
    x^m - 1; the rest is packed, its digits sized for the division, and
    `_packed_rem` divides it.
    """
    div = _divisor(m)
    n = _top(a) + 1
    if n > m:
        folded = list(a[:m])
        for i in range(m, n, m):
            chunk = a[i : min(i + m, n)]
            folded[: len(chunk)] = map(add, folded, chunk)
        a = folded
        n = _top(a) + 1
    a = a[:n]
    size = _word_size(_max_abs(a) * div.growth)
    return _packed_rem(_pack(a, size), n, div, size)


def _ring_mul(a, b, m: int) -> list[int]:
    """a b mod Phi_m, for a and b of at most phi(m) coefficients.

    The trimmed operands are packed, multiplied once and divided by
    `_packed_rem`, with no unpacking in between.  A product coefficient is a
    sum of at most as many terms as the sparser operand has nonzero
    coefficients, each at most max|a| max|b|; the digits hold that times
    `_divisor(m).growth`, what the division needs, from the start.
    """
    div = _divisor(m)
    ta, tb = _top(a), _top(b)
    if ta < 0 or tb < 0:
        return [0] * div.deg
    a, b = a[: ta + 1], b[: tb + 1]
    terms = min(len(a) - a.count(0), len(b) - b.count(0))
    size = _word_size(terms * _max_abs(a) * _max_abs(b) * div.growth)
    return _packed_rem(_pack(a, size) * _pack(b, size), ta + tb + 1, div, size)


@dataclass(frozen=True)
class CyclotomicInt:
    """Element of Z[zeta_m], stored reduced modulo Phi_m."""

    m: int
    coeffs: tuple[int, ...]

    @staticmethod
    def make(m: int, coeffs) -> "CyclotomicInt":
        return CyclotomicInt(m, tuple(_reduce(tuple(coeffs), m)))

    @staticmethod
    def from_int(m: int, c: int) -> "CyclotomicInt":
        """c as (c, 0, ..., 0): an integer is its own remainder."""
        return CyclotomicInt(m, (index(c),) + (0,) * (_divisor(m).deg - 1))

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CyclotomicInt":
        """zeta_m^k: a unit vector when k mod m is below phi(m), else reduced."""
        k %= m
        deg = _divisor(m).deg
        if k < deg:
            return CyclotomicInt(m, (0,) * k + (1,) + (0,) * (deg - k - 1))
        return CyclotomicInt.make(m, (0,) * k + (1,))

    def _coerce(self, other) -> "CyclotomicInt":
        if isinstance(other, int):
            return CyclotomicInt.from_int(self.m, other)
        if isinstance(other, CyclotomicInt):
            if other.m != self.m:
                raise ValueError(f"conductor mismatch: {self.m} vs {other.m}")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CyclotomicInt(self.m, tuple(x + y for x, y in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __mul__(self, other):
        if type(other) is int:
            # a reduced element times an integer stays reduced
            return CyclotomicInt(self.m, tuple(map(mul, self.coeffs, repeat(other))))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CyclotomicInt(self.m, tuple(_ring_mul(self.coeffs, o.coeffs, self.m)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers leave the integer ring")
        out = CyclotomicInt.from_int(self.m, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        if isinstance(other, CyclotomicInt):
            return self.m == other.m and self.coeffs == other.coeffs
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def galois(self, t: int) -> "CyclotomicInt":
        """Image under zeta_m -> zeta_m^t, for t prime to m."""
        if gcd(t, self.m) != 1:
            raise ValueError("galois exponent must be prime to the conductor")
        out = [0] * self.m
        for i, c in enumerate(self.coeffs):
            out[(i * t) % self.m] += c
        return CyclotomicInt.make(self.m, out)

    def embed(self, M: int) -> "CyclotomicInt":
        """Image in the conductor-M ring via zeta_m = zeta_M^(M/m); the element
        itself when M = m."""
        if M == self.m:
            return self
        if M % self.m != 0:
            raise ValueError(f"{self.m} does not divide {M}")
        step = M // self.m
        out = [0] * (max((len(self.coeffs) - 1) * step, 0) + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return CyclotomicInt.make(M, out)


def conductor(*orders: int) -> int:
    """lcm of the given orders, rejected when the ring would exceed COEFF_CAP.

    The ring Z[x]/Phi_M has phi(M) coefficients, counted without building
    Phi_M: a rejected conductor costs no polynomial division.  phi(M) is at
    least sqrt(M / 2), so M above 2 COEFF_CAP^2 is rejected before M is
    factored, whose trial division takes O(sqrt M) steps.
    """
    M = 1
    for d in orders:
        M = lcm(M, d)
    if M > 2 * COEFF_CAP**2:
        raise ConductorTooLarge(f"conductor {M} needs more than {COEFF_CAP} coefficients")
    size = _euler_phi(M)
    if size > COEFF_CAP:
        raise ConductorTooLarge(f"conductor {M} needs {size} coefficients")
    return M


# ---------------------------------------------------------------------------
# evaluation at the primitive M-th roots of unity modulo primes l = 1 (mod M)

_EVAL_PRIME_LIMIT = 1 << 30


def _eval_primes(M: int):
    """The primes l = 1 (mod M) below 2^30, descending."""
    for l in range((_EVAL_PRIME_LIMIT - 2) // M * M + 1, 1, -M):
        if _is_prime(l):
            yield l


def _root_of_order(M: int, l: int) -> int:
    """The first of g^((l - 1)/M), g = 1, 2, ..., of exact order M modulo the
    prime l."""
    cofactor = (l - 1) // M
    primes = [p for _, p in _prime_power_factors(M)]
    for g in range(1, l):
        w = pow(g, cofactor, l)
        if all(pow(w, M // p, l) != 1 for p in primes):
            return w
    raise AssertionError(f"no root of order {M} modulo {l}")


class _Evaluation:
    """Z[zeta_M] -> the product over primes l of F_l^phi(M), zeta_M -> w_l^k.

    The primes are l = 1 (mod M) below 2^30, from the largest down: at
    least one, and as many as it takes for their product `modulus` to exceed
    2 `bound`.  w_l has exact order M modulo l, and k runs over the units of
    Z/M.  An element is a list of residues, one per point (l, k), and is
    never changed in place; sums, products and equality act pointwise.  The
    module docstring says why two elements whose coefficients are at most
    `bound` are equal exactly when their lists are.
    """

    def __init__(self, M: int, bound: int):
        units = [k for k in range(M) if gcd(k, M) == 1]
        candidates = _eval_primes(M)
        primes, roots, pows, modulus = [], [], [], 1
        while not primes or modulus <= 2 * bound:
            l = next(candidates, None)
            if l is None:
                raise ValueError(f"primes 1 mod {M} below 2^30 cannot exceed twice {bound}")
            w = _root_of_order(M, l)
            powers = [1] * M
            for j in range(1, M):
                powers[j] = powers[j - 1] * w % l
            primes.append(l)
            roots.append(w)
            pows += powers
            modulus *= l
        self.M, self.modulus = M, modulus
        self.primes, self.roots = tuple(primes), tuple(roots)
        self._pows = pows
        self._points = [(i * M, k) for i in range(len(primes)) for k in units]
        self._mods = [l for l in primes for _ in units]
        self.zero = [0] * len(self._mods)
        self._zetas = {}

    def zeta(self, e: int) -> list[int]:
        """zeta_M^e, gathered from the power tables once per e mod M."""
        e %= self.M
        got = self._zetas.get(e)
        if got is None:
            M, pows = self.M, self._pows
            got = self._zetas[e] = [pows[base + e * k % M] for base, k in self._points]
        return got

    def terms(self, terms) -> list[int]:
        """The sum of c zeta_M^e over the pairs (c, e) of `terms`."""
        rows = [self.zeta(e) if c == 1 else map(mul, self.zeta(e), repeat(c)) for c, e in terms]
        if len(rows) < 2:
            return list(map(mod, rows[0], self._mods)) if rows else self.zero
        return list(map(mod, map(sum, zip(*rows)), self._mods))

    def element(self, x) -> list[int]:
        """An int, or a `CyclotomicInt` of a conductor dividing M."""
        if isinstance(x, int):
            return self.terms(((x, 0),))
        if self.M % x.m:
            raise ValueError(f"{x.m} does not divide {self.M}")
        step = self.M // x.m
        return self.terms((c, i * step) for i, c in enumerate(x.coeffs) if c)

    def mul(self, x, y) -> list[int]:
        """x y, where x may also be an int."""
        if isinstance(x, int):
            return y if x == 1 else list(map(mod, map(mul, y, repeat(x)), self._mods))
        return list(map(mod, map(mul, x, y), self._mods))

    def add(self, x, y) -> list[int]:
        return list(map(mod, map(add, x, y), self._mods))

    def sub(self, x, y) -> list[int]:
        return list(map(mod, map(sub, x, y), self._mods))

    def equal_products(self, x, y, z, w) -> bool:
        """Whether x y = z w, in one pass."""
        return not any(map(mod, map(sub, map(mul, x, y), map(mul, z, w)), self._mods))


def _l1(x) -> int:
    """The L1 norm of an int or `CyclotomicInt` as a sum of c zeta^e terms."""
    return abs(x) if isinstance(x, int) else sum(map(abs, x.coeffs))


# ---------------------------------------------------------------------------
# small finite fields


class GF:
    """F_q for q = p^r, r <= 3, with deterministic tables.

    Element of index i has the base-p digits of i as coefficient tuple, the
    constant coefficient least significant; index 0 is zero, index 1 is one,
    and for prime q the index equals the residue.  Products of nonzero
    elements go through the exp/dlog tables, and every trace is tabulated.
    """

    def __init__(self, q: int):
        p, r = _prime_power(q)
        self.q, self.p, self.r = q, p, r
        if r > 3:
            raise ValueError("only degrees up to 3 are supported")
        self.modulus = _find_irreducible(p, r)
        self.elements = [tuple(reversed(t)) for t in product(range(p), repeat=r)]
        # reversed so the constant coordinate varies fastest: index 1 is one
        self._index = {t: i for i, t in enumerate(self.elements)}
        self.gen, self.exp = self._find_generator()
        self.dlog = {e: i for i, e in enumerate(self.exp)}
        self._traces = [self._frobenius_trace(i) for i in range(q)]

    def add(self, i: int, j: int) -> int:
        a, b = self.elements[i], self.elements[j]
        return self._index[tuple((x + y) % self.p for x, y in zip(a, b))]

    def neg(self, i: int) -> int:
        return self._index[tuple((-x) % self.p for x in self.elements[i])]

    def mul(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        return self.exp[(self.dlog[i] + self.dlog[j]) % (self.q - 1)]

    def _mul_coeffs(self, i: int, j: int) -> int:
        """Product of the coefficient tuples modulo the defining polynomial."""
        if i == 0 or j == 0:
            return 0
        a, b = self.elements[i], self.elements[j]
        prod = [0] * (2 * self.r - 1)
        for s, x in enumerate(a):
            for t, y in enumerate(b):
                prod[s + t] += x * y
        for k in range(len(prod) - 1, self.r - 1, -1):
            c = prod[k] % self.p
            if c:
                for t, y in enumerate(self.modulus[:-1]):
                    prod[k - self.r + t] -= c * y
            prod[k] = 0
        return self._index[tuple(c % self.p for c in prod[: self.r])]

    def pow(self, i: int, e: int) -> int:
        if i == 0:
            return 0 if e else 1
        return self.exp[(self.dlog[i] * e) % (self.q - 1)]

    def trace(self, i: int) -> int:
        return self._traces[i]

    def _frobenius_trace(self, i: int) -> int:
        """i + i^p + ... + i^(p^(r-1)), which lies in F_p."""
        acc = 0
        cur = i
        for _ in range(self.r):
            acc = self.add(acc, cur)
            cur = self.pow(cur, self.p)
        t = self.elements[acc]
        assert all(c == 0 for c in t[1:])
        return t[0]

    def _find_generator(self) -> tuple[int, list[int]]:
        """The least generator g of F_q^x and its powers 1, g, ..., g^(q-2),
        from one walk: an element's powers up to 1 give its order."""
        for i in range(1, self.q):
            powers, cur = [1], i
            while cur != 1:
                powers.append(cur)
                cur = self._mul_coeffs(cur, i)
            if len(powers) == self.q - 1:
                return i, powers
        raise AssertionError("no generator found")


def _prime_power(q: int) -> tuple[int, int]:
    """(p, r) with q = p^r and r >= 1, read off `_prime_power_factors`."""
    factors = _prime_power_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    (pe, p), r = factors[0], 0
    while pe > 1:
        pe //= p
        r += 1
    return p, r


def _find_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Smallest monic degree-r polynomial over F_p with no roots.

    Rootlessness is equivalent to irreducibility for r in {2, 3}.
    """
    if r == 1:
        return (0, 1)
    for tail in product(range(p), repeat=r):
        poly = tail + (1,)
        if poly[0] == 0:
            continue
        if all(
            sum(c * a**k for k, c in enumerate(poly)) % p != 0 for a in range(p)
        ):
            return poly
    raise AssertionError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# unit groups of Z/n


class UnitGroup:
    """(Z/n)^x with a fixed generator decomposition via prime powers.

    For n = 1 the group is trivial with single element 0 (= 1 mod 1).
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("modulus must be >= 1")
        self.n = n
        self.units = [u for u in range(n) if gcd(u, n) == 1] if n > 1 else [0]
        self.gens: list[tuple[int, int]] = []
        for pe, p in _prime_power_factors(n):
            for g_local, d in _local_unit_gens(p, pe):
                self.gens.append((_crt_lift(g_local, pe, n), d))
        self._dlog: dict[int, tuple[int, ...]] = {}
        for exps in product(*[range(d) for _, d in self.gens]):
            u = 1 % n
            for (g, _), e in zip(self.gens, exps):
                u = (u * pow(g, e, n)) % n if n > 1 else 0
            self._dlog.setdefault(u, exps)
        assert len(self._dlog) == len(self.units)

    def dlog(self, u: int) -> tuple[int, ...]:
        return self._dlog[u % self.n if self.n > 1 else 0]

    @property
    def exponent(self) -> int:
        out = 1
        for _, d in self.gens:
            out = lcm(out, d)
        return out


def _euler_phi(m: int) -> int:
    out = m
    for _, p in _prime_power_factors(m):
        out -= out // p
    return out


def _prime_power_factors(n: int) -> list[tuple[int, int]]:
    """(p^e, p) for each prime p dividing n, p ascending; [] for n <= 1.

    Trial division stops at the square root of what is left, which is then
    1 or one last prime: O(sqrt n) steps, so a large conductor is refused
    cheaply.
    """
    out = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            pe = 1
            while m % p == 0:
                m //= p
                pe *= p
            out.append((pe, p))
        p += 1
    if m > 1:
        out.append((m, m))
    return out


def _local_unit_gens(p: int, pe: int) -> list[tuple[int, int]]:
    if p == 2:
        if pe == 2:
            return []
        if pe == 4:
            return [(3, 2)]
        return [(pe - 1, 2), (5, pe // 4)]
    phi = pe - pe // p
    for g in range(2, pe):
        if gcd(g, p) == 1 and _mult_order(g, pe) == phi:
            return [(g, phi)]
    raise AssertionError("no primitive root found")


def _mult_order(g: int, m: int) -> int:
    order, cur = 1, g % m
    while cur != 1:
        cur = (cur * g) % m
        order += 1
    return order


def _crt_lift(g: int, pe: int, n: int) -> int:
    """Unit congruent to g mod pe and to 1 modulo the complement."""
    rest = n // pe
    if rest == 1:
        return g % n
    inv = pow(pe, -1, rest)
    return (g + pe * ((1 - g) * inv % rest)) % n


# ---------------------------------------------------------------------------
# multiplicative characters


@dataclass(frozen=True)
class FieldChar:
    """Character of F_q^x: the fixed generator maps to zeta_(q-1)^exp."""

    field: GF
    exp: int

    @property
    def order(self) -> int:
        d = self.field.q - 1
        return d // gcd(self.exp % d, d)

    def is_trivial(self) -> bool:
        return self.exp % (self.field.q - 1) == 0

    def inverse(self) -> "FieldChar":
        return FieldChar(self.field, (-self.exp) % (self.field.q - 1))

    def exponent(self, i: int, M: int) -> int:
        """e in [0, M) with value zeta_M^e at the nonzero element of index i."""
        if i == 0:
            raise ValueError("character not defined at zero")
        return self._exponents(M)(i)

    def _exponents(self, M: int):
        """`exponent(., M)` with the order worked out once: at the element of
        dlog a, e = (a exp mod (q - 1)) / ((q - 1) / order) times M / order,
        the division exact."""
        d, order = self.field.q - 1, self.order
        if M % order:
            raise ValueError("conductor does not contain the character values")
        dlog, k, g, scale = self.field.dlog, self.exp, d // order, M // order
        return lambda i: dlog[i] * k % d // g * scale

    def value(self, i: int, M: int) -> CyclotomicInt:
        """Value at the nonzero element of index i, in the conductor-M ring."""
        return CyclotomicInt.zeta(M, self.exponent(i, M))

    def at_minus_one(self, M: int) -> int:
        """psi(-1) as the integer +-1.  psi(-1)^2 = psi(1) = 1, so its
        exponent in the conductor-M ring is 0 or M/2, and zeta_M^(M/2) = -1."""
        return -1 if self.exponent(self.field.neg(1), M) else 1


@dataclass(frozen=True)
class UnitChar:
    """Character of (Z/n)^x given by exponents along the fixed generators."""

    group: UnitGroup
    exps: tuple[int, ...]

    def is_trivial(self) -> bool:
        return all(
            k % d == 0 for (_, d), k in zip(self.group.gens, self.exps)
        )

    def inverse(self) -> "UnitChar":
        return UnitChar(
            self.group,
            tuple((-k) % d for (_, d), k in zip(self.group.gens, self.exps)),
        )

    def exponent(self, u: int, M: int) -> int:
        """e in [0, M) with value zeta_M^e at the unit u."""
        e = 0
        for (_, d), k, x in zip(self.group.gens, self.exps, self.group.dlog(u)):
            if M % d:
                raise ValueError("conductor does not contain the character values")
            e += x * k * (M // d)
        return e % M

    def value(self, u: int, M: int) -> CyclotomicInt:
        return CyclotomicInt.zeta(M, self.exponent(u, M))


def all_field_chars(field: GF):
    return [FieldChar(field, k) for k in range(field.q - 1)]


def all_unit_chars(group: UnitGroup):
    return [
        UnitChar(group, exps)
        for exps in product(*[range(d) for _, d in group.gens])
    ]


# ---------------------------------------------------------------------------
# Gauss sums


def _zeta_sum(M: int, exponents) -> CyclotomicInt:
    """Sum of zeta_M^e over the given exponents, reduced once.

    The sum is packed from its terms, with no M-long list to build and scan:
    `_packed_rem` gets the sum of c 2^(8 size e) over the distinct exponents
    e mod M, c the count of e, with the digits sized from the largest count
    times `_divisor(M).growth`, what the division needs.
    """
    counts = Counter(e % M for e in exponents)
    div = _divisor(M)
    size = _word_size(max(counts.values(), default=0) * div.growth)
    packed = sum(c << (8 * size * e) for e, c in counts.items())
    n = max(counts, default=-1) + 1
    return CyclotomicInt(M, tuple(_packed_rem(packed, n, div, size)))


def gauss_sum(psi: FieldChar, M: int | None = None) -> CyclotomicInt:
    """Sum of psi(j) zeta_p^Tr(j) over nonzero j, in conductor lcm(p, ord psi)."""
    return twisted_sum(psi, 1, M)


def _twisted_exponents(psi: FieldChar, t: int, M: int) -> list[int]:
    """The exponents e of the q - 1 terms zeta_M^e of the psi-twisted sum at t."""
    field = psi.field
    exponent, step = psi._exponents(M), M // field.p
    trace, times = field.trace, field.mul
    return [exponent(j) + trace(times(j, t)) * step for j in range(1, field.q)]


def _unit_twisted_exponents(chi: UnitChar, v: int, M: int) -> list[int]:
    """The exponents e of the terms zeta_M^e of the chi-twisted sum at v,
    one per unit of Z/n."""
    n = chi.group.n
    return [chi.exponent(j, M) + (j * v % n) * (M // n) for j in chi.group.units]


def twisted_sum(psi: FieldChar, t: int, M: int | None = None) -> CyclotomicInt:
    """Sum of psi(j) zeta_p^Tr(jt); equals psi^-1(t) W(psi) for t != 0, else 0."""
    if M is None:
        M = conductor(psi.field.p, psi.order)
    return _zeta_sum(M, _twisted_exponents(psi, t, M))


def unit_twisted_sum(chi: UnitChar, v: int, M: int) -> CyclotomicInt:
    """Sum of chi(j) zeta_n^(jv) over units j of Z/n."""
    return _zeta_sum(M, _unit_twisted_exponents(chi, v, M))


# ---------------------------------------------------------------------------
# companion coefficient families and the twist identity


@dataclass(frozen=True)
class CoeffFamily:
    """Coefficients over the index group F_q x Z/n, plus the reduced level.

    `full` maps (element index of F_q, residue mod n) to a coefficient; the
    reduced-level map enters the scaling relations at divisible indices.
    Indices with a non-unit second coordinate carry coefficient zero.
    """

    full: dict
    reduced: dict

    def at(self, u: int, v: int) -> CyclotomicInt:
        return self.full[(u, v)]


@dataclass(frozen=True)
class TwistSeed:
    """Free data: b on (u != 0, v unit) and the reduced family b0 on units.

    Each value is a monomial (c, e), standing for c zeta_M^e in the ring of
    the conductor M the seed is used at.
    """

    b_full: dict
    b_reduced: dict


def random_twist_seed(field: GF, group: UnitGroup, M: int, seed: int) -> TwistSeed:
    """Monomials c zeta_M^e with c in 1..9 and e in 0..M-1, drawn in index
    order, c before e."""
    rng = Random(seed)
    b_full = {}
    for u in range(1, field.q):
        for v in group.units:
            b_full[(u, v)] = (rng.randint(1, 9), rng.randrange(M))
    b_reduced = {v: (rng.randint(1, 9), rng.randrange(M)) for v in group.units}
    return TwistSeed(b_full, b_reduced)


def _check_seed(field: GF, group: UnitGroup, seed: TwistSeed) -> None:
    want = {(u, v) for u in range(1, field.q) for v in group.units}
    if set(seed.b_full) != want or set(seed.b_reduced) != set(group.units):
        raise InconsistentSeed("seed support must be exactly the full-order indices")


def _scalar(x, M: int) -> CyclotomicInt:
    """Coerce an int or CyclotomicInt scalar into the conductor-M ring."""
    if isinstance(x, int):
        return CyclotomicInt.from_int(M, x)
    return x.embed(M)


class _PowerBasis:
    """Z[zeta_M] held reduced modulo Phi_M, as `_companion` reads a ring."""

    mul = staticmethod(mul)

    def __init__(self, M: int):
        self.M = M
        self.zero = CyclotomicInt.from_int(M, 0)

    def zeta(self, e: int) -> CyclotomicInt:
        return CyclotomicInt.zeta(self.M, e)


def _companion(field, group, psi_p, psi_n, r, s, C, b_full, b_reduced, ring):
    """The scaling relations: the companion pair (a, b) of a seed, in `ring`
    (`_PowerBasis` or `_Evaluation`), which r, s, C and the seed's values
    b_full and b_reduced are elements of already.

    b carries the seed on full-order indices and s times the reduced family
    on divisible ones; a is C psi_p(u) psi_n(v) b(u, v) at full order and r
    times the reduced a-family C psi_n(v) b0(v) at divisible indices; both
    are zero at non-unit v.
    """
    M, times, zeta = ring.M, ring.mul, ring.zeta
    e_p = psi_p._exponents(M)
    e_n = {v: psi_n.exponent(v, M) for v in group.units}
    a_reduced = {v: times(C, times(zeta(e), b_reduced[v])) for v, e in e_n.items()}
    a_full, b_out = {}, {}
    for u in range(field.q):
        for v in range(group.n):
            if v not in e_n:
                b_out[(u, v)] = a_full[(u, v)] = ring.zero
            elif u == 0:
                b_out[(u, v)] = times(s, b_reduced[v])
                a_full[(u, v)] = times(r, a_reduced[v])
            else:
                bval = b_out[(u, v)] = b_full[(u, v)]
                a_full[(u, v)] = times(C, times(zeta(e_p(u) + e_n[v]), bval))
    return CoeffFamily(a_full, a_reduced), CoeffFamily(b_out, dict(b_reduced))


def build_companion_coeffs(
    field: GF,
    group: UnitGroup,
    psi_p: FieldChar,
    psi_n: UnitChar,
    r,
    s,
    C,
    seed: TwistSeed,
    M: int,
) -> tuple[CoeffFamily, CoeffFamily]:
    """Extend a seed to the companion pair (a, b) by the scaling relations
    (`_companion`), in the power basis of the conductor-M ring.

    The scalars r, s, C may be ints or CyclotomicInt values.
    """
    _check_seed(field, group, seed)
    ring = _PowerBasis(M)
    b_full = {k: c * ring.zeta(e) for k, (c, e) in seed.b_full.items()}
    b_reduced = {v: c * ring.zeta(e) for v, (c, e) in seed.b_reduced.items()}
    r, s, C = (_scalar(x, M) for x in (r, s, C))
    return _companion(field, group, psi_p, psi_n, r, s, C, b_full, b_reduced, ring)


class _TwistTable:
    """What the twist checks of one command share, all in one `_Evaluation`:
    T(u) for the psi_p whose pairs are running, S_n(v) for each chi met, and
    the seed of each trial t with its evaluated values.

    A check whose bound needs more primes than `ring` has gets a new ring,
    and the table starts over.  The table lives as long as the command.
    """

    def __init__(self, field: GF, group: UnitGroup, M: int):
        self.field, self.group, self.M = field, group, M
        self.ring = None
        self._seeds = {}  # t -> the seed of trial t
        self._trial = {}  # id(seed) -> t, for the seeds held above
        self._start_over()

    def _start_over(self):
        self._rows = None  # (psi_p, [T(u) for u in F_q])
        self._cols = {}  # chi -> [S_n(v) for v in Z/n]
        self._values = {}  # t -> the evaluated values of the seed of trial t

    def evaluation(self, bound: int) -> _Evaluation:
        """The table's ring, made anew when its modulus is not above 2 bound."""
        if self.ring is None or self.ring.modulus <= 2 * bound:
            self.ring = _Evaluation(self.M, bound)
            self._start_over()
        return self.ring

    def row_sums(self, psi_p: FieldChar) -> list:
        """T(u) = sum of psi_p(j) zeta_p^Tr(ju) for every u of F_q."""
        if self._rows is None or self._rows[0] != psi_p:
            sums = [self._sum(_twisted_exponents(psi_p, u, self.M)) for u in range(self.field.q)]
            self._rows = (psi_p, sums)
        return self._rows[1]

    def unit_sums(self, chi: UnitChar) -> list:
        """S_n(v) = sum of chi(j) zeta_n^(jv) over units j, for every v of Z/n."""
        if chi not in self._cols:
            self._cols[chi] = [
                self._sum(_unit_twisted_exponents(chi, v, self.M)) for v in range(self.group.n)
            ]
        return self._cols[chi]

    def _sum(self, exponents) -> list:
        return self.ring.terms(zip(repeat(1), exponents))

    def seed(self, t: int) -> TwistSeed:
        """`random_twist_seed` of trial t, drawn once per command."""
        if t not in self._seeds:
            seed = self._seeds[t] = random_twist_seed(self.field, self.group, self.M, t)
            self._trial[id(seed)] = t
        return self._seeds[t]

    def seed_values(self, seed: TwistSeed) -> tuple[dict, dict]:
        """The seed's b_full and b_reduced evaluated; kept for the seeds that
        `seed` drew."""
        t = self._trial.get(id(seed))
        if t is not None and t in self._values:
            return self._values[t]
        monomial = self.ring.terms
        values = (
            {k: monomial((m,)) for k, m in seed.b_full.items()},
            {v: monomial((m,)) for v, m in seed.b_reduced.items()},
        )
        if t is not None:
            self._values[t] = values
        return values


@dataclass(frozen=True)
class TwistReport:
    passed: bool
    mismatch_index: tuple | None
    conductor: int


def verify_twist_identity(
    field: GF,
    group: UnitGroup,
    psi_p: FieldChar,
    psi_n: UnitChar,
    r,
    s,
    C,
    seed: TwistSeed,
    corrupt: bool = False,
    table: _TwistTable | None = None,
) -> TwistReport:
    """Check the cross-multiplied twist identity coefficientwise.

    For every index (u, v):
        W(psi_n^-1) * [sum_j psi_p(j) zeta_p^Tr(ju)] * a(u,v)
          = C * W(psi_p) * [S_n(v) * b(u,v) - s * (u == 0) * S_n(v) * b0(v)]
    with S_n(v) the psi_n^-1-twisted sum over units.  With `corrupt` a single
    b-coefficient is perturbed after a was built; the report then names the
    first index where the sides differ.

    Each side is one product per index:
        A_u * a(u,v)  and  B_v * (b(u,v) - s * b0(v) * [u == 0]),
    with A_u = W(psi_n^-1) T(u) once per row and B_v = C W(psi_p) S_n(v) once
    per column.  Z[zeta_M] is commutative, so these are the elements written
    above.  At a non-unit v both families are zero, and so are both sides:
    only units v are compared, which leaves the first mismatch where it was.

    The sides are compared in an `_Evaluation` whose primes multiply to more
    than 2B, which makes each comparison exact (module docstring).  B is
    `_divisor(M).growth` times the larger of the sides' products of L1
    norms, where T(u) and W(psi_p) = T(1) are sums of q - 1 roots of unity,
    S_n(v) and W(psi_n^-1) = S_n(1) sums of phi(n) of them, a seed value
    c zeta^e has norm |c| (|c| + 1 where `corrupt` adds 1), and
    b(0,v) - s b0(v) has at most twice the norm of s b0(v).  `table` holds
    what the checks of one command share; without it the call makes its own.
    """
    if psi_p.is_trivial():
        raise TrivialCharacter("the identity degenerates for trivial psi_p")
    M = conductor(field.p, field.q - 1, group.n, group.exponent)
    _check_seed(field, group, seed)
    if table is None:
        table = _TwistTable(field, group, M)
    norms = (field.q - 1) * len(group.units) * _l1(C)
    b_top = max((abs(c) for c, _ in seed.b_full.values()), default=0)
    b0_top = max(abs(c) for c, _ in seed.b_reduced.values())
    lhs = norms * max(b_top, _l1(r) * b0_top)  # W(psi_n^-1) T(u) a(u,v)
    rhs = norms * max(b_top + corrupt, 2 * _l1(s) * b0_top)  # C W(psi_p) S_n(v) (b - s b0)
    ring = table.evaluation(_divisor(M).growth * max(lhs, rhs))
    rv, sv, cv = (x if isinstance(x, int) else ring.element(x) for x in (r, s, C))
    a, b = _companion(field, group, psi_p, psi_n, rv, sv, cv, *table.seed_values(seed), ring)
    b_full = dict(b.full)
    if corrupt:
        if _scalar(C, M).is_zero():
            raise ValueError("corruption is invisible when C is zero")
        target = _detectable_index(group, psi_n, M)
        b_full[target] = ring.add(b_full[target], ring.element(1))
    times = ring.mul
    rows, sums = table.row_sums(psi_p), table.unit_sums(psi_n.inverse())
    w_n_inv = sums[1 % group.n]
    cw_p = times(cv, rows[1])  # T(1) = W(psi_p)
    cols = [(v, times(cw_p, sums[v])) for v in group.units]  # B_v
    for u, t_u in enumerate(rows):
        row = times(w_n_inv, t_u)  # A_u
        for v, col in cols:
            bv = b_full[(u, v)]
            if u == 0:
                bv = ring.sub(bv, times(sv, b.reduced[v]))
            if not ring.equal_products(row, a.full[(u, v)], col, bv):
                return TwistReport(False, (u, v), M)
    return TwistReport(True, None, M)


def twist_laws(
    field: GF,
    group: UnitGroup,
    psi_p: FieldChar,
    psi_n: UnitChar,
    M: int,
    table: _TwistTable | None = None,
) -> tuple | None:
    """First index (u, v), in the order `verify_twist_identity` walks, where
    the seed-free factor of the twist identity fails; None if none does.

    The factor at (u, v) is
    - on row u = 0: W(psi_n^-1) T(0) = 0;
    - for u != 0 and a unit v:
      W(psi_n^-1) T(u) psi_p(u) psi_n(v) = W(psi_p) S_n(v);
    - at a non-unit v: none, both sides of the identity are zero.
    psi_n(v) is a unit of Z[zeta_M], so the second factor is checked as
    W(psi_n^-1) [T(u) psi_p(u)] = W(psi_p) [S_n(v) psi_n^-1(v)]: one side
    per u and one per v.  The two laws make both brackets constant.

    Every side is a product of a sum of q - 1 roots of unity, a sum of
    phi(n) of them and one root, so it is compared in an `_Evaluation` of
    bound `_divisor(M).growth` (q - 1) phi(n), exactly as
    `verify_twist_identity` compares.  `table` is the command's, as there.
    """
    if table is None:
        table = _TwistTable(field, group, M)
    ring = table.evaluation(_divisor(M).growth * (field.q - 1) * len(group.units))
    times = ring.mul
    chi = psi_n.inverse()
    rows, cols = table.row_sums(psi_p), table.unit_sums(chi)
    w_n_inv = cols[1 % group.n]
    if times(w_n_inv, rows[0]) != ring.zero:
        return (0, group.units[0])
    rhs = [(v, times(rows[1], times(cols[v], ring.zeta(chi.exponent(v, M))))) for v in group.units]
    for u in range(1, field.q):
        lhs = times(w_n_inv, times(rows[u], ring.zeta(psi_p.exponent(u, M))))
        for v, side in rhs:
            if lhs != side:
                return (u, v)
    return None


def _detectable_index(group: UnitGroup, psi_n: UnitChar, M: int):
    """First full-order index whose perturbation the identity can see."""
    for v in group.units:
        if not unit_twisted_sum(psi_n.inverse(), v, M).is_zero():
            return (1, v)
    raise ValueError("every unit twisted sum vanishes; corruption would be invisible")
