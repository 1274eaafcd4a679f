"""Tests for exact cyclotomic arithmetic, Gauss sums, and the twist identity."""
import functools
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratgrid import characters
from stratgrid.characters import (
    ConductorTooLarge,
    CoeffFamily,
    CyclotomicInt,
    FieldChar,
    GF,
    InconsistentSeed,
    TrivialCharacter,
    TwistSeed,
    UnitChar,
    UnitGroup,
    all_field_chars,
    all_unit_chars,
    build_companion_coeffs,
    conductor,
    cyclotomic_poly,
    gauss_sum,
    random_twist_seed,
    twist_laws,
    twisted_sum,
    unit_twisted_sum,
    verify_twist_identity,
)
from stratgrid.characters import (
    _detectable_index,
    _prime_power,
    _prime_power_factors,
    _reduce,
    _ring_mul,
)

GAUSS_ORDERS = (3, 4, 5, 7, 8, 9, 11, 13)
# Every field `GF` builds with q <= 27 (16 needs degree 4).
FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23, 25, 27)


def euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


# ---------------------------------------------------------------------------
# cyclotomic ring


def test_cyclotomic_poly_known_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


# ---------------------------------------------------------------------------
# schoolbook oracles for the ring arithmetic


def oracle_poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def oracle_poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return oracle_poly_trim(out)


def oracle_poly_rem(a, b):
    """Remainder of a by monic b, one leading coefficient at a time."""
    a = list(a)
    db = len(b) - 1
    assert b[-1] == 1
    for top in range(len(a) - 1, db - 1, -1):
        lead = a[top]
        if lead:
            shift = top - db
            for j, y in enumerate(b[:-1]):
                a[shift + j] -= lead * y
    del a[db:]
    return oracle_poly_trim(a)


def oracle_poly_div_exact(a, b):
    """Quotient of a by monic b when the division is exact."""
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    while len(a) - 1 >= db and a:
        lead = a[-1]
        shift = len(a) - 1 - db
        q[shift] = lead
        if lead:
            for j, y in enumerate(b):
                a[shift + j] -= lead * y
        while a and a[-1] == 0:
            a.pop()
    assert not a, "division was not exact"
    return oracle_poly_trim(q)


@functools.lru_cache(maxsize=None)
def oracle_cyclotomic_poly(m):
    """(x^m - 1) divided by Phi_d for every proper divisor d of m."""
    if m == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            num = oracle_poly_div_exact(num, oracle_cyclotomic_poly(d))
    return num


def test_cyclotomic_poly_matches_division_oracle():
    """The Mobius product agrees with repeated exact division for m < 700."""
    for m in range(1, 700):
        assert cyclotomic_poly(m) == oracle_cyclotomic_poly(m), m


# Coefficients on both sides of the 64-bit packing word, and operands of
# every shape: empty, length 1, monomials, sparse, dense.
small_coeff = st.integers(-9, 9)
wide_coeff = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, -(2**63), 2**64, -(2**64) - 1, 2**31, -(2**31)]),
)
any_coeff = st.one_of(small_coeff, wide_coeff)


@st.composite
def poly_operands(draw, max_len=80):
    n = draw(st.integers(0, max_len))
    kind = draw(st.sampled_from(["dense", "sparse", "monomial"]))
    coeff = draw(st.sampled_from([small_coeff, wide_coeff, any_coeff]))
    if kind == "dense":
        return draw(st.lists(coeff, min_size=n, max_size=n))
    out = [0] * n
    if n:
        spots = 1 if kind == "monomial" else draw(st.integers(1, max(1, n // 4)))
        for i in draw(st.lists(st.integers(0, n - 1), min_size=spots, max_size=spots)):
            out[i] = draw(coeff.filter(bool))
    return out


def _oracle_ring_product(a, b, m):
    return oracle_poly_rem(oracle_poly_mul(a, b), cyclotomic_poly(m))


# Conductors whose rings hold operands of up to 80 coefficients: phi(m) is
# 128, 108 and 220.
WIDE_CONDUCTORS = (272, 342, 506)


@settings(max_examples=300, deadline=None)
@given(poly_operands(), poly_operands(), st.sampled_from(WIDE_CONDUCTORS), st.booleans())
def test_ring_mul_of_mixed_operands_matches_schoolbook_oracles(a, b, m, as_tuple):
    """Operands of any shape and fewer coefficients than phi(m), untrimmed,
    as lists or tuples."""
    want = _oracle_ring_product(a, b, m)
    if as_tuple:
        a, b = tuple(a), tuple(b)
    got = _ring_mul(a, b, m)
    assert len(got) == len(cyclotomic_poly(m)) - 1
    assert oracle_poly_trim(list(got)) == want


def test_ring_mul_at_word_edges():
    """Dense and sparse operands of many lengths, up to phi(506) = 220, with
    coefficients at the edges of the signed 8-, 16-, 32- and 64-bit words
    and past them."""
    m = 506
    for n in (1, 2, 3, 5, 8, 12, 16, 40, 220):
        for top in (1, 2**7, 2**15, 2**31, 2**62, 2**63, 2**64, 2**200):
            a = [(-1) ** i * (top - i) for i in range(n)]
            b = [top // (i + 1) for i in range(n)]
            sparse = [0] * n
            sparse[-1] = -top
            for x, y in ((a, b), (a, a[::-1]), (sparse, b), (b, sparse), ([top], b)):
                got = _ring_mul(x, y, m)
                assert oracle_poly_trim(list(got)) == _oracle_ring_product(x, y, m), (n, top)


@pytest.mark.parametrize("m", [64, 128, 256])
def test_ring_mul_sizes_digits_by_the_nonzero_terms(m):
    """At m = 2^k, Phi_m = 1 + x^(m/2) and a division grows a coefficient at
    most 5 times, so a dense square of phi(m) equal coefficients c, whose
    middle coefficient is phi(m) c^2, needs digits sized by its count of
    terms.  c runs to just past the edges of the signed 8-, 16-, 32- and
    64-bit words."""
    deg = m // 2
    for bits in (8, 16, 32, 64):
        c0 = math.isqrt(((1 << (bits - 1)) - 1) // deg)
        for c in (c0, c0 + 1, -c0 - 1):
            a = [c] * deg
            got = _ring_mul(a, a, m)
            assert oracle_poly_trim(got) == _oracle_ring_product(a, a, m), (m, bits, c)


# Conductors for the remainder: small ones, and the wide rings of the Gauss
# and twist checks (q = 13, 17, 19, 23).
REM_CONDUCTORS = [1, 2, 3, 12, 60, 110, 156, 272, 342, 506]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REM_CONDUCTORS), st.data())
def test_reduce_matches_schoolbook_oracle(m, data):
    deg = len(cyclotomic_poly(m)) - 1
    n = data.draw(st.sampled_from([0, 1, deg, deg + 1, m, 2 * deg - 1, 2 * m + 3]))
    kind = data.draw(st.sampled_from(["dense", "sparse"]))
    coeff = data.draw(st.sampled_from([small_coeff, wide_coeff, any_coeff]))
    if kind == "dense":
        a = data.draw(st.lists(coeff, min_size=n, max_size=n))
    else:
        a = [0] * n
        spots = data.draw(st.lists(st.integers(0, n - 1), max_size=5)) if n else []
        for i in spots:
            a[i] = data.draw(coeff)
    got = _reduce(tuple(a), m)
    assert len(got) == deg
    assert oracle_poly_trim(list(got)) == oracle_poly_rem(a, cyclotomic_poly(m))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REM_CONDUCTORS), st.data())
def test_ring_mul_matches_schoolbook_oracles(m, data):
    """Products of reduced elements, divided packed without unpacking."""
    deg = len(cyclotomic_poly(m)) - 1
    a, b = (
        data.draw(poly_operands(max_len=deg).map(lambda c: c + [0] * (deg - len(c))))
        for _ in range(2)
    )
    got = _ring_mul(tuple(a), tuple(b), m)
    assert len(got) == deg
    want = oracle_poly_rem(oracle_poly_mul(a, b), cyclotomic_poly(m))
    assert oracle_poly_trim(list(got)) == want


# Integer scalars for the scaling path: 0, +-1 and the edges of the signed
# 8-, 16-, 32- and 64-bit words and past them.
SCALARS = (0, 1, -1) + tuple(
    k for e in (7, 15, 31, 63, 64, 200) for x in (2**e - 1, 2**e) for k in (x, -x)
)


def _ring_elements(m):
    """Reduced elements of conductor m: two dense ones, with small and with
    wide coefficients, and a root of unity."""
    rng = Random(m)
    return [
        CyclotomicInt.make(m, [rng.randint(-9, 9) for _ in range(m)]),
        CyclotomicInt.make(m, [rng.randint(-(2**70), 2**70) for _ in range(m)]),
        CyclotomicInt.zeta(m, m // 2 + 1),
    ]


@pytest.mark.parametrize("m", REM_CONDUCTORS)
def test_int_scalar_products_match_oracles(m):
    """An exact `int` scales coefficient by coefficient, in either operand
    order, and the result is the reduced product; a bool still coerces."""
    deg = len(cyclotomic_poly(m)) - 1
    for z in _ring_elements(m):
        for k in SCALARS:
            want = _oracle_ring_product((k,), z.coeffs, m)
            for got in (z * k, k * z):
                assert got.m == m and len(got.coeffs) == deg
                assert oracle_poly_trim(list(got.coeffs)) == want, (m, k)
        assert True * z == 1 * z and z * True == z * 1
        assert False * z == 0 * z


@pytest.mark.parametrize("m", REM_CONDUCTORS)
def test_monomial_products_match_oracles(m):
    """c x^i for i < phi(m), one nonzero term, times dense elements in
    either operand order: the digits are sized by that one term."""
    deg = len(cyclotomic_poly(m)) - 1
    rng = Random(m)
    spots = sorted({0, deg - 1, *rng.sample(range(deg), min(deg, 6))})
    for z in _ring_elements(m):
        for i in spots:
            for c in (1, -1, 7, 2**63, -(2**64) - 3):
                mono = CyclotomicInt(m, (0,) * i + (c,) + (0,) * (deg - 1 - i))
                want = _oracle_ring_product(mono.coeffs, z.coeffs, m)
                for got in (mono * z, z * mono):
                    assert len(got.coeffs) == deg
                    assert oracle_poly_trim(list(got.coeffs)) == want, (m, i, c)


def _remainder_rows(m, count):
    """x^i mod Phi_m for i < count, each as phi(m) coefficients."""
    phi = cyclotomic_poly(m)
    row = [1] + [0] * (len(phi) - 2)
    rows = []
    for _ in range(count):
        rows.append(row)
        lead = row[-1]
        row = [0] + row[:-1]
        row = [x - lead * c for x, c in zip(row, phi)]
    return rows


def _worst_case_dividend(m):
    """Signs s_i and the column j such that r = sum s_i x^i mod Phi_m has the
    largest |r_j| over all dividends of m coefficients in {-1, 0, 1}, and
    that |r_j|."""
    rows = _remainder_rows(m, m)
    j = max(range(len(rows[0])), key=lambda col: sum(abs(r[col]) for r in rows))
    signs = [(r[j] > 0) - (r[j] < 0) for r in rows]
    return signs, j, sum(abs(r[j]) for r in rows)


@pytest.mark.parametrize("m", REM_CONDUCTORS + [24])
def test_divisor_growth_bounds_the_worst_remainder(m):
    """`_divisor(m).growth` is at least the largest |r_j| / max|a| over
    remainders r = a mod Phi_m of dividends a of fewer than m + phi(m)
    coefficients, the longest a packed division meets: column j's worst
    case is the sum over i of |(x^i mod Phi_m)_j|.  The twist checks size
    their primes by it too."""
    rows = _remainder_rows(m, m + euler_phi(m))
    worst = max(sum(abs(r[j]) for r in rows) for j in range(len(rows[0])))
    assert characters._divisor(m).growth >= worst


@pytest.mark.parametrize("m", [506, 630, 770])
def test_zeta_sum_digits_hold_the_division_growth(m):
    """A character sum whose remainder outgrows its counts: 127, the largest
    count a one-byte digit holds, of each exponent e whose x^e mod Phi_m is
    positive in column j.  That coefficient is 127 times their sum, past a
    byte, so the digits must be sized for the division's growth."""
    rows = _remainder_rows(m, m)
    j = max(range(len(rows[0])), key=lambda col: sum(r[col] for r in rows if r[col] > 0))
    exponents = [e for e, r in enumerate(rows) if r[j] > 0 for _ in range(127)]
    got = characters._zeta_sum(m, exponents).coeffs
    assert got[j] == 127 * sum(r[j] for r in rows if r[j] > 0) > 127
    counts = [127 if r[j] > 0 else 0 for r in rows]
    assert got == tuple(_reduce(tuple(counts), m))


@pytest.mark.parametrize("m", [630, 770])
def test_reduce_worst_case_dividends_at_word_edges(m):
    """Dividends whose remainder just overflows each signed word: at these
    conductors Phi_m has coefficients above 1, and a remainder coefficient
    can grow past max|a| times the nonzero terms of 1/Phi_m."""
    signs, j, growth = _worst_case_dividend(m)
    for bits in (8, 16, 32, 64):
        a = [s * ((1 << (bits - 1)) // growth + 1) for s in signs]
        got = _reduce(tuple(a), m)
        assert abs(got[j]) >= 1 << (bits - 1)
        assert oracle_poly_trim(list(got)) == oracle_poly_rem(a, cyclotomic_poly(m))


def test_reduce_products_of_dense_elements_at_506():
    """Squares and products of count vectors, the Gauss-law shape: reduced,
    multiplied in the ring, and the unreduced product reduced."""
    M = 506
    phi = cyclotomic_poly(M)
    for seed in range(4):
        rng = Random(seed)
        x = [rng.randint(-30, 30) for _ in range(M)]
        y = [rng.randint(0, 2**40) for _ in range(M)]
        xr, yr = _reduce(tuple(x), M), _reduce(tuple(y), M)
        assert oracle_poly_trim(list(xr)) == oracle_poly_rem(x, phi)
        assert oracle_poly_trim(list(yr)) == oracle_poly_rem(y, phi)
        prod = oracle_poly_mul(xr, yr)
        want = oracle_poly_rem(prod, phi)
        assert oracle_poly_trim(_ring_mul(xr, yr, M)) == want
        assert oracle_poly_trim(_ring_mul(xr, xr, M)) == oracle_poly_rem(
            oracle_poly_mul(xr, xr), phi
        )
        assert oracle_poly_trim(_reduce(prod, M)) == want


def _gauss_conductors():
    """The conductors of the Gauss laws, conductor(p, q - 1), and of `gauss`,
    conductor(p, ord psi), for every field `GF` builds with q <= 27."""
    out = set()
    for q in FIELD_ORDERS:
        F = GF(q)
        out.add(conductor(F.p, q - 1))
        out |= {conductor(F.p, psi.order) for psi in all_field_chars(F)}
    return sorted(out)


SMALL_RINGS = sorted({1, 2, *_gauss_conductors()})


def test_small_rings_cover_the_gauss_conductors():
    assert {1, 2, 6, 14, 20, 24, 42, 506} <= set(SMALL_RINGS)


def _small_ring_operands(rng, n):
    """Operands of n coefficients: dense with small and with wide
    coefficients, sparse, and a monomial, the wide ones up to 2^200."""
    wide = 2 ** rng.choice((7, 31, 63, 64, 200))
    sparse = [0] * n
    for i in rng.sample(range(n), max(1, n // 5)):
        sparse[i] = rng.randint(-wide, wide) or 1
    monomial = [0] * n
    monomial[rng.randrange(n)] = rng.choice((1, -1, wide, -wide - 1))
    return [
        [rng.randint(-9, 9) for _ in range(n)],
        [rng.randint(-wide, wide) for _ in range(n)],
        sparse,
        monomial,
    ]


@pytest.mark.parametrize("m", SMALL_RINGS)
def test_small_ring_products_and_reductions_match_oracles(m):
    """Every ring the Gauss laws and `gauss` reach for q <= 27, and m = 1
    and 2: products of reduced elements, products short enough to need no
    division (at most phi(m) coefficients), and dividends of every length
    up to past 2m, against the schoolbook oracles."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    rng = Random(m)
    shapes = [(deg, deg), (deg, 1), (1, deg)]
    shapes += [(i, deg + 1 - i) for i in {1, 2, deg // 2, deg} if 0 < i <= deg]  # deg terms
    for na, nb in shapes:
        for a, b in zip(_small_ring_operands(rng, na), _small_ring_operands(rng, nb)[::-1]):
            got = _ring_mul(a, b, m)
            assert len(got) == deg
            assert oracle_poly_trim(got) == _oracle_ring_product(a, b, m), (m, a, b)
    for n in sorted({0, 1, deg, deg + 1, m, m + 1, 2 * m + 3}):
        for a in _small_ring_operands(rng, n) if n else [[]]:
            got = _reduce(tuple(a), m)
            assert len(got) == deg
            assert oracle_poly_trim(got) == oracle_poly_rem(a, phi), (m, a)


INTEGER_RINGS = sorted({*SMALL_RINGS, *REM_CONDUCTORS})


@pytest.mark.parametrize("m", INTEGER_RINGS)
def test_integer_elements_match_their_reductions(m):
    """`from_int`, `zeta` below x^phi(m) and `==` against an int build no
    packed element; each agrees with `_reduce` and `make`, m = 1 and 2
    included."""
    deg = len(cyclotomic_poly(m)) - 1
    rng = Random(m)
    for c in (0, 1, -1, 23, 2**70, -(2**200), True):
        x = CyclotomicInt.from_int(m, c)
        assert x.coeffs == tuple(_reduce((c,), m)) == CyclotomicInt.make(m, [c]).coeffs
        assert all(type(v) is int for v in x.coeffs)
    for k in range(-m - 1, 2 * m + 2):
        want = _reduce((0,) * (k % m) + (1,), m)
        assert CyclotomicInt.zeta(m, k).coeffs == tuple(want), k
    elements = [CyclotomicInt.from_int(m, c) for c in (0, 5, -5)]
    elements += [CyclotomicInt.zeta(m, k) for k in range(m)]
    elements += [CyclotomicInt.make(m, [rng.randint(-3, 3) for _ in range(deg)]) for _ in range(5)]
    elements += [CyclotomicInt.from_int(m, 5) + CyclotomicInt.zeta(m, k) for k in range(1, deg)]
    for x in elements:
        for c in (0, 1, -1, 5, -5):
            assert (x == c) is (x.coeffs == tuple(_reduce((c,), m))), (x, c)


@pytest.mark.parametrize("m", INTEGER_RINGS)
def test_zeta_sums_packed_from_their_terms_match_count_vectors(m):
    """`_zeta_sum` packs the counts of its exponents without an M-long list;
    it agrees with the count vector reduced by `_reduce` and by the
    schoolbook oracle, for exponents past m and below 0, many repeats of
    one exponent, and none."""
    rng = Random(m)
    phi = cyclotomic_poly(m)
    cases = [[], [0], [m - 1], [-1, m, 2 * m + 1], [rng.randrange(m)] * 1000]
    cases += [[rng.randrange(-m, 3 * m) for _ in range(n)] for n in (1, 7, m, 3 * m)]
    for exponents in cases:
        counts = [0] * m
        for e in exponents:
            counts[e % m] += 1
        got = characters._zeta_sum(m, exponents).coeffs
        assert got == tuple(_reduce(tuple(counts), m)), exponents
        assert oracle_poly_trim(list(got)) == oracle_poly_rem(counts, phi)


@pytest.mark.parametrize("m", list(range(1, 31)) + [60, 156])
def test_cyclotomic_poly_degree_and_root(m):
    """Phi_m has degree phi(m) and zeta_m is a root."""
    assert len(cyclotomic_poly(m)) - 1 == euler_phi(m)
    z = CyclotomicInt.zeta(m)
    acc = CyclotomicInt.from_int(m, 0)
    for i, c in enumerate(cyclotomic_poly(m)):
        acc = acc + c * z**i
    assert acc == 0


@pytest.mark.parametrize("m", list(range(1, 131)) + [272, 342, 506])
def test_zeta_ring_laws_sparse_reduction(m):
    """Reduction by the sparse Phi_m: zeta has period m, zeta^m = 1, and the
    m-th roots of unity sum to 0 (to 1 for m = 1)."""
    for k in range(-2, m + 2):
        assert CyclotomicInt.zeta(m, k + m) == CyclotomicInt.zeta(m, k)
    assert CyclotomicInt.zeta(m) ** m == 1
    total = CyclotomicInt.from_int(m, 0)
    for k in range(m):
        total = total + CyclotomicInt.zeta(m, k)
    assert total == (1 if m == 1 else 0)


@pytest.mark.parametrize("m", [1, 2, 6, 12, 20])
def test_zeta_is_primitive(m):
    z = CyclotomicInt.zeta(m)
    assert z**m == 1
    for k in range(1, m):
        assert z**k != 1


coeff_vec = st.lists(st.integers(-9, 9), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(coeff_vec, coeff_vec, coeff_vec)
def test_ring_laws_conductor_12(ac, bc, cc):
    a = CyclotomicInt.make(12, ac)
    b = CyclotomicInt.make(12, bc)
    c = CyclotomicInt.make(12, cc)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    assert a * 1 == a


@settings(max_examples=40, deadline=None)
@given(coeff_vec, coeff_vec, st.sampled_from([1, 5, 7, 11]))
def test_galois_is_ring_map(ac, bc, t):
    a = CyclotomicInt.make(12, ac)
    b = CyclotomicInt.make(12, bc)
    assert (a * b).galois(t) == a.galois(t) * b.galois(t)
    assert (a + b).galois(t) == a.galois(t) + b.galois(t)


def test_reduction_idempotent_and_embed():
    x = CyclotomicInt.make(12, [3, 1, 4, 1, 5, 9, 2, 6])
    again = CyclotomicInt.make(12, x.coeffs)
    assert x == again
    assert CyclotomicInt.zeta(6).embed(12) == CyclotomicInt.zeta(12) ** 2
    y = CyclotomicInt.make(6, [2, -1])
    assert y.embed(12).galois(5) == CyclotomicInt.make(6, [2, -1]).galois(5).embed(12)
    with pytest.raises(ValueError):
        CyclotomicInt.zeta(4).embed(6)


def test_conductor_cap():
    assert conductor(3, 4) == 12
    with pytest.raises(ConductorTooLarge):
        conductor(2048)


def _naive_factors(n):
    """(p^e, p) for each prime p dividing n, by trying every p up to n."""
    out = []
    for p in range(2, n + 1):
        if n % p == 0 and all(p % k for k in range(2, p)):
            pe = p
            while n % (pe * p) == 0:
                pe *= p
            out.append((pe, p))
    return out


def test_prime_power_factors_match_naive():
    for n in range(1, 3001):
        assert _prime_power_factors(n) == _naive_factors(n), n


def test_prime_power():
    primes = [
        p for p in range(2, 10**4 + 1) if all(p % k for k in range(2, math.isqrt(p) + 1))
    ]
    for p in primes:
        for r in (1, 2, 3):
            if p**r <= 10**4:
                assert _prime_power(p**r) == (p, r)
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError, match="not a prime power"):
            _prime_power(q)


# ---------------------------------------------------------------------------
# finite fields and unit groups


@pytest.mark.parametrize("q", GAUSS_ORDERS)
def test_field_tables(q):
    F = GF(q)
    assert len(F.elements) == q
    assert F.elements[0] == (0,) * F.r
    # generator powers enumerate every nonzero element exactly once
    assert sorted(F.exp) == list(range(1, q))
    # trace is additive and Frobenius-invariant
    for i in range(q):
        assert F.trace(F.pow(i, F.p)) == F.trace(i)
        for j in range(q):
            assert F.trace(F.add(i, j)) == (F.trace(i) + F.trace(j)) % F.p
    # trace is onto F_p (nondegenerate pairing needs a nonzero value)
    assert set(F.trace(i) for i in range(q)) == set(range(F.p))


@pytest.mark.parametrize("q", GAUSS_ORDERS)
def test_field_mul_table_matches_polynomial_product(q):
    F = GF(q)
    for i in range(q):
        for j in range(q):
            assert F.mul(i, j) == F._mul_coeffs(i, j)


def test_prime_field_indices_are_residues():
    F = GF(7)
    for i in range(7):
        for j in range(7):
            assert F.add(i, j) == (i + j) % 7
            assert F.mul(i, j) == (i * j) % 7
        assert F.trace(i) == i


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 21])
def test_unit_group_structure(n):
    U = UnitGroup(n)
    expected = [u for u in range(n) if math.gcd(u, n) == 1] if n > 1 else [0]
    assert U.units == expected
    # dlog reconstructs every unit from the fixed generators
    for u in U.units:
        acc = 1 % n
        for (g, _), e in zip(U.gens, U.dlog(u)):
            acc = (acc * pow(g, e, n)) % n
        assert acc == u or n == 1
    assert len(all_unit_chars(U)) == len(U.units)


@pytest.mark.parametrize("n", [3, 4, 8, 12])
def test_unit_char_orthogonality(n):
    """Characters sum to zero over the group unless trivial."""
    U = UnitGroup(n)
    M = conductor(n, U.exponent)
    for chi in all_unit_chars(U):
        total = CyclotomicInt.from_int(M, 0)
        for u in U.units:
            total = total + chi.value(u, M)
        if chi.is_trivial():
            assert total == len(U.units)
        else:
            assert total == 0


# ---------------------------------------------------------------------------
# Gauss sums


@pytest.mark.parametrize("q", GAUSS_ORDERS)
def test_gauss_sum_laws(q):
    F = GF(q)
    for psi in all_field_chars(F):
        if psi.is_trivial():
            assert gauss_sum(psi) == -1
            continue
        M = conductor(F.p, q - 1)
        W = gauss_sum(psi, M)
        Winv = gauss_sum(psi.inverse(), M)
        assert W * Winv == psi.at_minus_one(M) * CyclotomicInt.from_int(M, q)
        # |W|^2 = q, conjugation realized by the galois map zeta -> zeta^-1
        assert W * W.galois(M - 1) == q


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_at_minus_one_is_the_value_at_minus_one(q):
    """psi(-1) is the integer +-1 and equals the value of psi at -1, at the
    conductor lcm(p, q - 1) and at a proper multiple of it."""
    F = GF(q)
    M = conductor(F.p, q - 1)
    for N in (M, conductor(2 * M)):
        for psi in all_field_chars(F):
            sign = psi.at_minus_one(N)
            assert sign in (1, -1)
            assert sign == psi.value(F.neg(1), N), (q, N, psi.exp)


# Term-by-term character sums in ring arithmetic: the oracle for the
# exponent-counting sums.  Powers of zeta are memoised here only to keep the
# oracle fast at M = 506.


@functools.lru_cache(maxsize=None)
def _zeta(M, k):
    return CyclotomicInt.zeta(M, k)


def oracle_twisted_sum(psi, t, M):
    field = psi.field
    out = CyclotomicInt.from_int(M, 0)
    for j in range(1, field.q):
        tr = field.trace(field.mul(j, t))
        out = out + psi.value(j, M) * _zeta(M, tr * (M // field.p))
    return out


def oracle_gauss_sum(psi, M):
    field = psi.field
    out = CyclotomicInt.from_int(M, 0)
    for j in range(1, field.q):
        out = out + psi.value(j, M) * _zeta(M, field.trace(j) * (M // field.p))
    return out


def oracle_unit_twisted_sum(chi, v, M):
    n = chi.group.n
    out = CyclotomicInt.from_int(M, 0)
    for j in chi.group.units:
        zeta_pow = (
            _zeta(M, (j * v % n) * (M // n))
            if n > 1
            else CyclotomicInt.from_int(M, 1)
        )
        out = out + chi.value(j, M) * zeta_pow
    return out


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_character_sums_match_term_by_term_oracle(q):
    """Every character, and every t for q <= 13 (t in {0, 1, 2} above)."""
    F = GF(q)
    ts = range(q) if q <= 13 else (0, 1, 2)
    for psi in all_field_chars(F):
        M = conductor(F.p, psi.order)
        assert gauss_sum(psi) == oracle_gauss_sum(psi, M), (q, psi.exp)
        for t in ts:
            assert twisted_sum(psi, t) == oracle_twisted_sum(psi, t, M), (q, psi.exp, t)


@pytest.mark.parametrize("n", range(1, 25))
def test_unit_twisted_sums_match_term_by_term_oracle(n):
    U = UnitGroup(n)
    M = conductor(n, U.exponent)
    for chi in all_unit_chars(U):
        for v in range(n):
            assert unit_twisted_sum(chi, v, M) == oracle_unit_twisted_sum(chi, v, M), (
                n,
                chi.exps,
                v,
            )


def test_gauss_sum_default_conductor():
    F = GF(5)
    psi = FieldChar(F, 2)
    assert gauss_sum(psi).m == 10
    assert psi.order == 2


def test_quadratic_gauss_sum_squares_to_five():
    W = gauss_sum(FieldChar(GF(5), 2))
    assert W * W == 5


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_twisted_sum_law(q):
    """twisted_sum(psi, t) = psi^-1(t) W(psi) for t != 0, and 0 at t = 0."""
    F = GF(q)
    for psi in all_field_chars(F):
        if psi.is_trivial():
            continue
        M = conductor(F.p, q - 1)
        W = gauss_sum(psi, M)
        assert twisted_sum(psi, 0, M) == 0
        for t in range(1, q):
            assert twisted_sum(psi, t, M) == psi.inverse().value(t, M) * W


def test_twisted_sum_quadratic_flip():
    quad = FieldChar(GF(5), 2)
    assert twisted_sum(quad, 2) == -gauss_sum(quad)


# Relations that tie one exact Gauss sum to another, with no oracle.


@pytest.mark.parametrize("p,r", [(p, r) for p in (2, 3, 5, 7) for r in (2, 3)])
def test_hasse_davenport(p, r):
    """g_{p^r}(psi o N) = (-1)^(r-1) g_p(psi)^r for every character psi of
    F_p^x, N the norm from F_{p^r}, in conductor lcm(p, p - 1) (Ireland and
    Rosen, ch. 11, sec. 4).  It ties GF(p^r)'s generator, tables and traces
    to GF(p)'s: N(gen) = gen^((q - 1)/(p - 1)) lies in F_p, where an
    element's index is its residue, and psi o N sends gen to
    zeta_(p-1)^(k a) for psi = zeta_(p-1)^k at F_p's generator and a the
    discrete log of N(gen)."""
    small, big = GF(p), GF(p**r)
    q = big.q
    norm = big.pow(big.gen, (q - 1) // (p - 1))
    assert 1 <= norm < p
    a = small.dlog[norm]
    M = conductor(p, p - 1)
    for psi in all_field_chars(small):
        lifted = FieldChar(big, psi.exp * a * ((q - 1) // (p - 1)))
        want = gauss_sum(psi, M) ** r * (-1) ** (r - 1)
        assert gauss_sum(lifted, M) == want, (p, r, psi.exp)


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_galois_action_on_gauss_sums(q):
    """sigma_t: zeta_M -> zeta_M^t, t prime to M = lcm(p, q - 1), acts on
    g(psi) by two laws: sigma_t(g(psi)) = g(psi^t) when t = 1 mod p, and
    sigma_t(g(psi)) = conj(psi)(c) g(psi) when t = 1 mod q - 1 and t = c
    mod p.  Every character of every field with q <= 27 that `GF` builds."""
    F = GF(q)
    M = conductor(F.p, q - 1)
    ts = [t for t in range(1, M) if math.gcd(t, M) == 1]
    cases = 0
    for psi in all_field_chars(F):
        W = gauss_sum(psi, M)
        for t in ts:
            if (t - 1) % F.p == 0:
                assert W.galois(t) == gauss_sum(FieldChar(F, psi.exp * t), M), (q, psi.exp, t)
                cases += 1
            if (t - 1) % (q - 1) == 0:
                c = t % F.p  # an element of F_p: its index is its residue
                assert W.galois(t) == psi.inverse().value(c, M) * W, (q, psi.exp, t)
                cases += 1
    # t = 1 makes two cases per character; every field but F_2 has others
    assert cases > 2 * (q - 1) or q == 2


# ---------------------------------------------------------------------------
# companion coefficients and the twist identity


def _setup(q, n):
    F, U = GF(q), UnitGroup(n)
    M = conductor(F.p, q - 1, n, U.exponent)
    return F, U, M


def test_build_companion_coeffs_relations():
    F, U, M = _setup(3, 4)
    psi_p = FieldChar(F, 1)
    psi_n = [c for c in all_unit_chars(U) if not c.is_trivial()][0]
    seed = random_twist_seed(F, U, M, 5)
    r, s, C = 2, 3, 4
    a, b = build_companion_coeffs(F, U, psi_p, psi_n, r, s, C, seed, M)
    for v in U.units:
        assert b.at(0, v) == s * b.reduced[v]
        assert a.at(0, v) == r * C * psi_n.value(v, M) * b.reduced[v]
    for u in range(1, 3):
        for v in U.units:
            assert a.at(u, v) == C * psi_p.value(u, M) * psi_n.value(v, M) * b.at(u, v)
    for u in range(3):
        for v in range(4):
            if v in (0, 2):
                assert a.at(u, v) == 0 and b.at(u, v) == 0


def test_build_companion_coeffs_rejects_bad_seed():
    F, U, M = _setup(3, 4)
    psi_p = FieldChar(F, 1)
    psi_n = all_unit_chars(U)[0]
    good = random_twist_seed(F, U, M, 1)
    missing = TwistSeed(dict(list(good.b_full.items())[:-1]), good.b_reduced)
    extra = TwistSeed({**good.b_full, (0, 1): CyclotomicInt.from_int(M, 1)}, good.b_reduced)
    for bad in (missing, extra):
        with pytest.raises(InconsistentSeed):
            build_companion_coeffs(F, U, psi_p, psi_n, 2, 3, 1, bad, M)


def literal_twist_mismatch(field, group, psi_p, psi_n, r, s, C, seed, corrupt=False):
    """The first index where the cross-multiplied identity fails, or None,
    with each side associated as `verify_twist_identity`'s docstring writes
    it: (W(psi_n^-1) T(u)) a(u,v) against
    (C W(psi_p)) [S_n(v) b(u,v) - (s S_n(v)) b0(v) [u == 0]]."""
    M = conductor(field.p, field.q - 1, group.n, group.exponent)
    a, b = build_companion_coeffs(field, group, psi_p, psi_n, r, s, C, seed, M)
    sc, Cc = characters._scalar(s, M), characters._scalar(C, M)
    b_full = dict(b.full)
    if corrupt:
        target = _detectable_index(group, psi_n, M)
        b_full[target] = b_full[target] + 1
    w_n_inv = unit_twisted_sum(psi_n.inverse(), 1 % group.n, M)
    w_p = gauss_sum(psi_p, M)
    s_n = {v: unit_twisted_sum(psi_n.inverse(), v, M) for v in range(group.n)}
    for u in range(field.q):
        w_tw = w_n_inv * twisted_sum(psi_p, u, M)
        for v in range(group.n):
            lhs = w_tw * a.at(u, v)
            core = s_n[v] * b_full[(u, v)]
            if u == 0 and v in b.reduced:
                core = core - sc * s_n[v] * b.reduced[v]
            rhs = Cc * w_p * core
            if lhs != rhs:
                return (u, v)
    return None


def _assert_matches_literal(F, U, psi_p, psi_n, r, s, C, seed):
    """`verify_twist_identity` names the literal loop's first mismatch, on
    the clean seed and with `corrupt`; both raise where the perturbation
    cannot be seen."""
    for corrupt in (False, True):
        try:
            want = literal_twist_mismatch(F, U, psi_p, psi_n, r, s, C, seed, corrupt)
        except ValueError:
            with pytest.raises(ValueError):
                verify_twist_identity(F, U, psi_p, psi_n, r, s, C, seed, corrupt)
            continue
        rep = verify_twist_identity(F, U, psi_p, psi_n, r, s, C, seed, corrupt)
        assert rep.mismatch_index == want, (psi_p.exp, psi_n.exps, corrupt)
        assert rep.passed is (want is None)


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3), (9, 4)])
def test_twist_identity_all_characters(q, n):
    """Every seed passes, and one product per side of each index names the
    same first mismatch as the identity evaluated literally, clean and
    with `corrupt`, on every character pair."""
    F, U, M = _setup(q, n)
    for psi_p in all_field_chars(F):
        if psi_p.is_trivial():
            continue
        for psi_n in all_unit_chars(U):
            for sd in range(3):
                seed = random_twist_seed(F, U, M, sd)
                rep = verify_twist_identity(F, U, psi_p, psi_n, 2, 3, 1, seed)
                assert rep.passed, (psi_p.exp, psi_n.exps, sd, rep.mismatch_index)
                assert rep.conductor == M
                _assert_matches_literal(F, U, psi_p, psi_n, 2, 3, 1, seed)


TWIST_PAIRS = [(3, 4), (5, 3), (9, 4), (4, 5), (7, 6), (8, 3)]


@pytest.mark.parametrize("q,n", TWIST_PAIRS)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_twist_laws_decide_the_identity_for_every_seed(q, n, seed):
    """The laws hold on every character pair; so the seed passes, and with
    `corrupt` it fails at `_detectable_index` or the identity raises where
    that index does."""
    F, U, M = _setup(q, n)
    for psi_p in all_field_chars(F):
        if psi_p.is_trivial():
            continue
        for psi_n in all_unit_chars(U):
            assert twist_laws(F, U, psi_p, psi_n, M) is None, (psi_p.exp, psi_n.exps)
            twist_seed = random_twist_seed(F, U, M, seed)
            for corrupt in (False, True):
                try:
                    want = _detectable_index(U, psi_n, M) if corrupt else None
                except ValueError:
                    with pytest.raises(ValueError):
                        verify_twist_identity(F, U, psi_p, psi_n, 2, 3, 1, twist_seed, True)
                    continue
                rep = verify_twist_identity(F, U, psi_p, psi_n, 2, 3, 1, twist_seed, corrupt)
                assert rep.mismatch_index == want, (psi_p.exp, psi_n.exps, corrupt)
                assert rep.passed is (want is None)


@pytest.mark.parametrize("q,n", TWIST_PAIRS)
def test_twist_laws_find_row_zero_of_trivial_psi_p(q, n):
    """T(0) = q - 1 for trivial psi_p, so the factor fails on row 0, at the
    first unit, exactly when W(psi_n^-1) != 0; the other rows hold."""
    F, U, M = _setup(q, n)
    for psi_n in all_unit_chars(U):
        vanishes = unit_twisted_sum(psi_n.inverse(), 1 % n, M).is_zero()
        want = None if vanishes else (0, U.units[0])
        assert twist_laws(F, U, FieldChar(F, 0), psi_n, M) == want, psi_n.exps


def test_twist_laws_name_a_failing_row_past_zero(monkeypatch):
    """With T(2) off by one, the seed-free factor first fails on row 2, at
    the first unit; W(psi_n^-1) is nonzero there, so the row sees it.  The
    extra term zeta^0 = 1 goes in where T(u) is summed, at the exponents."""
    F, U, M = _setup(5, 3)
    psi_p = FieldChar(F, 1)
    psi_n = all_unit_chars(U)[0]
    assert not unit_twisted_sum(psi_n.inverse(), 1, M).is_zero()
    assert twist_laws(F, U, psi_p, psi_n, M) is None
    t2 = twisted_sum(psi_p, 2, M)
    real = characters._twisted_exponents
    monkeypatch.setattr(
        characters, "_twisted_exponents", lambda psi, t, M: real(psi, t, M) + [0] * (t == 2)
    )
    assert twisted_sum(psi_p, 2, M) == t2 + 1
    assert twist_laws(F, U, psi_p, psi_n, M) == (2, U.units[0])


def test_twist_identity_root_of_unity_scalars():
    """r, s and C roots of unity, of the identity's conductor and of a
    smaller one that embeds: the seed passes, and the first mismatch matches
    the literal loop's, clean and with `corrupt`."""
    F, U, M = _setup(5, 3)
    assert M == 60
    psi_p = FieldChar(F, 1)
    psi_n = [c for c in all_unit_chars(U) if not c.is_trivial()][0]
    seed = random_twist_seed(F, U, M, 11)
    C = CyclotomicInt.zeta(M, 7)
    rep = verify_twist_identity(F, U, psi_p, psi_n, 2, 3, C, seed)
    assert rep.passed
    for psi_n in all_unit_chars(U):
        for r, s, C in (
            (2, 3, CyclotomicInt.zeta(M, 7)),
            (CyclotomicInt.zeta(M, 5), CyclotomicInt.zeta(M, 59), CyclotomicInt.zeta(M, 31)),
            (CyclotomicInt.zeta(12, 5), CyclotomicInt.zeta(4), CyclotomicInt.zeta(15, 2)),
        ):
            _assert_matches_literal(F, U, psi_p, psi_n, r, s, C, seed)


def test_twist_identity_corrupted_control_fails():
    F, U, M = _setup(3, 4)
    psi_p = FieldChar(F, 1)
    psi_n = [c for c in all_unit_chars(U) if not c.is_trivial()][0]
    seed = random_twist_seed(F, U, M, 42)
    rep = verify_twist_identity(F, U, psi_p, psi_n, 2, 3, 1, seed, corrupt=True)
    assert not rep.passed
    assert rep.mismatch_index == (1, 1)


def test_twist_identity_corruption_masked_cases_raise():
    """Trivial psi_n mod 4 kills every unit twisted sum, so does C = 0."""
    F, U, M = _setup(3, 4)
    psi_p = FieldChar(F, 1)
    triv = [c for c in all_unit_chars(U) if c.is_trivial()][0]
    seed = random_twist_seed(F, U, M, 1)
    with pytest.raises(ValueError):
        verify_twist_identity(F, U, psi_p, triv, 2, 3, 1, seed, corrupt=True)
    nontriv = [c for c in all_unit_chars(U) if not c.is_trivial()][0]
    with pytest.raises(ValueError):
        verify_twist_identity(F, U, psi_p, nontriv, 2, 3, 0, seed, corrupt=True)


def test_twist_identity_trivial_psi_p_rejected():
    F, U, M = _setup(3, 4)
    seed = random_twist_seed(F, U, M, 0)
    with pytest.raises(TrivialCharacter):
        verify_twist_identity(F, U, FieldChar(F, 0), all_unit_chars(U)[0], 2, 3, 1, seed)


def test_twist_identity_degenerate_modulus_one():
    """n = 1 reduces the identity to the single-prime statement and passes."""
    F, U, M = GF(3), UnitGroup(1), conductor(3, 2)
    assert U.units == [0]
    psi_p = FieldChar(F, 1)
    chi = all_unit_chars(U)[0]
    assert chi.is_trivial()
    assert unit_twisted_sum(chi, 0, M) == 1
    seed = random_twist_seed(F, U, M, 9)
    rep = verify_twist_identity(F, U, psi_p, chi, 4, 5, 2, seed)
    assert rep.passed


def test_coeff_family_shape():
    F, U, M = _setup(3, 4)
    psi_p = FieldChar(F, 1)
    psi_n = all_unit_chars(U)[1]
    a, b = build_companion_coeffs(F, U, psi_p, psi_n, 1, 1, 1, random_twist_seed(F, U, M, 2), M)
    assert isinstance(a, CoeffFamily) and isinstance(b, CoeffFamily)
    assert set(a.full) == {(u, v) for u in range(3) for v in range(4)}
    assert set(a.reduced) == set(U.units)


def test_twist_identity_matches_literal_at_conductor_156():
    """On every character pair of q = 13, n = 3 (M = 156, phi(M) = 48), the
    evaluated check names the literal loop's first mismatch, clean and with
    `corrupt`."""
    F, U, M = _setup(13, 3)
    assert M == 156
    seed = random_twist_seed(F, U, M, 5)
    for psi_p in all_field_chars(F):
        if not psi_p.is_trivial():
            for psi_n in all_unit_chars(U):
                _assert_matches_literal(F, U, psi_p, psi_n, 2, 3, 1, seed)


# ---------------------------------------------------------------------------
# evaluation at the primitive M-th roots of unity modulo primes l = 1 (mod M)

EVAL_CONDUCTORS = REM_CONDUCTORS + [24, 2436]


def _two_prime_bound(M):
    """The least bound whose evaluation ring takes a second prime."""
    return (characters._Evaluation(M, 0).primes[0] + 1) // 2


@pytest.mark.parametrize("M", EVAL_CONDUCTORS)
def test_evaluation_points_are_the_roots_of_phi(M):
    """Each w has exact order M modulo its prime l = 1 (mod M) below 2^30,
    and the points w^k, k prime to M, are phi(M) distinct roots of Phi_M
    modulo l."""
    ring = characters._Evaluation(M, _two_prime_bound(M))
    assert len(ring.primes) == 2 and ring.modulus == ring.primes[0] * ring.primes[1]
    phi, size = cyclotomic_poly(M), euler_phi(M)
    points = ring.zeta(1)
    assert len(points) == 2 * size
    for i, (l, w) in enumerate(zip(ring.primes, ring.roots)):
        assert l < 2**30 and (l - 1) % M == 0
        assert all(l % d for d in range(2, math.isqrt(l) + 1))
        assert pow(w, M, l) == 1
        assert all(pow(w, d, l) != 1 for d in range(1, M) if M % d == 0)
        mine = points[i * size : (i + 1) * size]
        assert len(set(mine)) == size
        for x in mine:
            value = 0
            for c in reversed(phi):
                value = (value * x + c) % l
            assert value == 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 12, 24, 60, 156]), st.data())
def test_evaluation_respects_sums_and_products(M, data):
    """Evaluation is a ring map on random elements: sums, differences,
    products, integer scalars, powers of zeta and elements of a smaller
    conductor, at one prime and at two."""
    size = euler_phi(M)
    coeffs = st.lists(st.integers(-50, 50), min_size=size, max_size=size)
    x, y = (CyclotomicInt.make(M, data.draw(coeffs)) for _ in range(2))
    c = data.draw(st.integers(-9, 9))
    e = data.draw(st.integers(-2 * M, 2 * M))
    ring = characters._Evaluation(M, data.draw(st.sampled_from([0, _two_prime_bound(M)])))
    ev = ring.element
    assert ev(x + y) == ring.add(ev(x), ev(y))
    assert ev(x - y) == ring.sub(ev(x), ev(y))
    assert ev(x * y) == ring.mul(ev(x), ev(y))
    assert ev(c * y) == ring.mul(c, ev(y)) == ring.mul(ev(c), ev(y))
    assert ring.equal_products(ev(x), ev(y), ev(x * y), ev(1))
    assert ring.zeta(e) == ev(CyclotomicInt.zeta(M, e))
    assert ring.terms([(c, e), (1, 0), (0, 1)]) == ev(c * CyclotomicInt.zeta(M, e) + 1)
    m = data.draw(st.sampled_from([d for d in range(1, M + 1) if M % d == 0]))
    assert ev(CyclotomicInt.zeta(m, e)) == ring.zeta(e * (M // m))
    with pytest.raises(ValueError):
        ev(CyclotomicInt.zeta(M + 1))


@pytest.mark.parametrize("M", [12, 60, 156])
def test_evaluation_tells_pairs_apart_under_its_bound(M):
    """Pairs with coefficients up to the bound evaluate equal exactly when
    they are equal.  A pair that differs by exactly l in one coefficient
    agrees modulo l, so once the bound passes l / 2 the ring takes a second
    prime, which tells the pair apart."""
    rng = Random(M)
    size = euler_phi(M)
    for bound in (1, 1000, 2**40):
        ring = characters._Evaluation(M, bound)
        assert ring.modulus > 2 * bound
        for _ in range(30):
            x = [rng.randint(-bound, bound) for _ in range(size)]
            y = list(x)
            if rng.random() < 0.5:
                y[rng.randrange(size)] = rng.randint(-bound, bound)
            got = ring.element(CyclotomicInt(M, tuple(x))) == ring.element(CyclotomicInt(M, tuple(y)))
            assert got is (x == y)
    first = characters._Evaluation(M, 0).primes[0]
    x, y = [0] * size, [0] * size
    x[-1], y[-1] = (first + 1) // 2, -(first - 1) // 2
    X, Y = CyclotomicInt(M, tuple(x)), CyclotomicInt(M, tuple(y))
    one = characters._Evaluation(M, (first - 1) // 2)
    assert one.primes == (first,) and one.element(X) == one.element(Y)
    two = characters._Evaluation(M, (first + 1) // 2)
    assert len(two.primes) == 2 and two.element(X) != two.element(Y)


def _rings(monkeypatch):
    """The `_Evaluation` rings built from now on, in order, with the bound
    each was built for."""
    built = []
    real = characters._Evaluation

    def recorded(M, bound):
        ring = real(M, bound)
        built.append((ring, bound))
        return ring

    monkeypatch.setattr(characters, "_Evaluation", recorded)
    return built


def _counted(monkeypatch, name):
    """Wrap `characters.<name>`; the returned list collects each call's
    arguments and result."""
    calls = []
    real = getattr(characters, name)

    def counted(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(characters, name, counted)
    return calls


@pytest.mark.parametrize("laws_hold", [True, False])
def test_twist_trials_share_the_sums_and_seeds_of_one_command(monkeypatch, laws_hold):
    """A `twist_trials` command draws `random_twist_seed` once per trial
    number, sums T(u) once per psi_p and S(v) once per chi, all in its one
    ring, and the sums are the evaluated `twisted_sum` and
    `unit_twisted_sum`.  A failing law makes every trial run, so every trial
    number is drawn."""
    q, n, trials, seed = 4, 5, 3, 11
    rings = _rings(monkeypatch)
    draws = _counted(monkeypatch, "random_twist_seed")
    rows = _counted(monkeypatch, "_row_sums")
    cols = _counted(monkeypatch, "_unit_sums")
    if not laws_hold:
        monkeypatch.setattr(characters, "_laws_mismatch", lambda *args: (0, 0))
    runs, total, _, M = characters.twist_trials(q, n, trials, seed, False)
    F, U, _ = _setup(q, n)
    assert runs == (q - 2) * len(all_unit_chars(U)) * trials and total == 0
    [(ring, _)] = rings
    assert [args[3] for args, _ in draws] == list(range(seed, seed + (1 if laws_hold else trials)))
    for args, got in draws:
        assert got == random_twist_seed(F, U, M, args[3])
    assert [args[1].exp for args, _ in rows] == list(range(1, q - 1))
    assert len({args[1].exps for args, _ in cols}) == len(cols) == len(all_unit_chars(U))
    for (got_ring, psi), sums in rows:
        assert got_ring is ring
        assert sums == [ring.element(twisted_sum(psi, u, M)) for u in range(q)], psi.exp
    for (got_ring, chi), sums in cols:
        assert got_ring is ring
        assert sums == [ring.element(unit_twisted_sum(chi, v, M)) for v in range(n)], chi.exps


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize(
    "q,n,M", [(3, 4, 12), (9, 4, 24), (5, 3, 60), (13, 3, 156), (23, 1, 506), (29, 3, 2436)]
)
def test_twist_trials_compare_in_one_ring_of_one_prime(monkeypatch, q, n, M, corrupt):
    """A command builds one ring, sized by `_identity_bound` at seed
    coefficients up to 9, and one prime covers it at every golden
    conductor.  A wider ring would give the same reports, only slower, so
    the sums and the trials are stubbed out and only the ring is read."""
    rings = _rings(monkeypatch)
    monkeypatch.setattr(characters, "_row_sums", lambda ring, psi: [])
    monkeypatch.setattr(characters, "_unit_sums", lambda ring, chi: [])
    monkeypatch.setattr(characters, "_identity_mismatch", lambda *args: None)
    assert characters.twist_trials(q, n, 1, 0, corrupt)[3] == M
    F, U, _ = _setup(q, n)
    [(ring, bound)] = rings
    assert bound == characters._identity_bound(F, U, M, 2, 3, 1, 9, 9, corrupt)
    assert len(ring.primes) == 1 and ring.modulus > 2 * bound


@pytest.mark.parametrize("q,n", TWIST_PAIRS + [(13, 3)])
def test_identity_bound_at_the_largest_coefficient_bounds_every_seed(q, n):
    """The bound at b_top = b0_top = 9 is at least the bound of each seed of
    trials 0 to 20, so the command's ring fits every seed it can draw."""
    F, U, M = _setup(q, n)
    for corrupt in (False, True):
        top = characters._identity_bound(F, U, M, 2, 3, 1, 9, 9, corrupt)
        for t in range(21):
            seed = random_twist_seed(F, U, M, t)
            b_top = max(c for c, _ in seed.b_full.values())
            b0_top = max(c for c, _ in seed.b_reduced.values())
            assert 1 <= b_top <= 9 and 1 <= b0_top <= 9
            assert characters._identity_bound(F, U, M, 2, 3, 1, b_top, b0_top, corrupt) <= top


def test_twist_check_sizes_its_primes_by_growth_times_the_norms():
    """The check's bound is `_divisor(M).growth` times the larger product of
    the sides' L1 norms.  With C such that twice the norms stay below the
    first prime and twice growth times them do not, the check takes a
    second prime, and still passes, or names the corrupted index."""
    F, U, M = _setup(5, 3)
    growth = characters._divisor(M).growth
    psi_p = FieldChar(F, 1)
    psi_n = [c for c in all_unit_chars(U) if not c.is_trivial()][0]
    seed = random_twist_seed(F, U, M, 4)
    first = characters._Evaluation(M, 0).primes[0]
    sums = (F.q - 1) * len(U.units)
    b_top = max(c for c, _ in seed.b_full.values())
    b0_top = max(c for c, _ in seed.b_reduced.values())
    for corrupt in (False, True):
        # r = 2, s = 3: a(0, v) has norm 2 C b0, b(0, v) - s b0(v) at most 6 b0
        norms = sums * max(b_top + corrupt, 6 * b0_top)
        C = first // (4 * norms)
        assert 2 * C * norms < first < 2 * growth * C * norms
        with pytest.MonkeyPatch.context() as m:
            rings = _rings(m)
            rep = verify_twist_identity(F, U, psi_p, psi_n, 2, 3, C, seed, corrupt)
            assert rep.mismatch_index == (_detectable_index(U, psi_n, M) if corrupt else None)
            [(ring, _)] = rings
            assert len(ring.primes) == 2 and ring.modulus > 2 * growth * C * norms
            # the laws need one prime
            assert twist_laws(F, U, psi_p, psi_n, M) is None
            assert len(rings[1][0].primes) == 1
