"""Degree-vector laws: stratum compatibility, flips, heights, inequalities."""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from stratgrid.embeddings import PrimeProfile, parse_profile
from stratgrid.degrees import (
    CuspInput,
    DegreeVector,
    DegreeVectorError,
    GenericFlagRequired,
    HodgeInterval,
    ProfileMismatch,
    _as_fraction,
    _entry_masks,
    genericity_constraints,
    hodge_height,
    pair_of_degvec,
    raynaud_feasible,
    w_T_deg,
)
from stratgrid.strata import _face_masks, codim, w_T_pair

PROFILES = [
    PrimeProfile(3, (1,)),
    PrimeProfile(3, (2,)),
    PrimeProfile(3, (3,)),
    PrimeProfile(3, (2, 1)),
    PrimeProfile(5, (2, 2)),
    PrimeProfile(2, (2,)),
]

F = Fraction


def dv(profile, *vals, generic=False, cusp=False):
    return DegreeVector(profile, tuple(F(v) for v in vals), generic=generic, cusp=cusp)


@st.composite
def cusp_or_degvec(draw):
    """A degree vector, or a cusp vector: 0/1 and constant on every block."""
    if not draw(st.booleans()):
        return draw(degvec())
    profile = draw(st.sampled_from(PROFILES))
    vals = []
    for f in profile.f:
        vals += [F(draw(st.integers(0, 1)))] * f
    return DegreeVector(profile, tuple(vals), generic=draw(st.booleans()), cusp=True)


@st.composite
def degvec(draw, profiles=PROFILES):
    profile = draw(st.sampled_from(profiles))
    den = draw(st.sampled_from([1, 2, 3, 6, 12]))
    vals = tuple(
        F(draw(st.integers(min_value=0, max_value=den)), den) for _ in range(profile.g)
    )
    return DegreeVector(profile, vals, generic=draw(st.booleans()))


def test_validation():
    profile = PrimeProfile(3, (2,))
    with pytest.raises(DegreeVectorError):
        dv(profile, 2, 0)
    with pytest.raises(DegreeVectorError):
        dv(profile, "1/2")
    with pytest.raises(DegreeVectorError):
        DegreeVector(profile, (F(1, 2), F(1, 2)), cusp=True)
    # blockwise-constant 0/1 vectors are fine as cusps
    DegreeVector(profile, (F(1), F(1)), cusp=True)
    DegreeVector(PrimeProfile(3, (2, 1)), (F(1), F(1), F(0)), cusp=True)


@pytest.mark.parametrize(
    "value,ok",
    [
        (F(0), True),
        (F(1), True),
        ("2/2", True),
        ("-0", True),
        (F(999_999_999, 10**9), True),
        (F(-1, 10**9), False),
        (F(10**9 + 1, 10**9), False),
        ("-1/3", False),
        (2, False),
    ],
)
def test_entry_range_is_closed_unit_interval(value, ok):
    """The [0, 1] check read off numerator and denominator accepts both ends
    and refuses the nearest values outside."""
    profile = PrimeProfile(3, (1,))
    if ok:
        assert dv(profile, value).entries == (F(value),)
    else:
        with pytest.raises(DegreeVectorError, match=r"must lie in \[0, 1\]"):
            dv(profile, value)


@pytest.mark.parametrize("text", ["p=3;f=2,1", "p=2;f=1,3"])
def test_cusp_accepts_exactly_the_blockwise_constant_vertices(text):
    profile = parse_profile(text)
    accepted = 0
    for vals in product((0, 1), repeat=profile.g):
        blocks = [vals[off : off + f] for off, f in zip(profile.offsets, profile.f)]
        want = all(len(set(block)) == 1 for block in blocks)
        try:
            dv(profile, *vals, cusp=True)
        except DegreeVectorError:
            assert not want, vals
        else:
            assert want, vals
            accepted += 1
    assert accepted == 2**profile.n_primes


def test_json_round_trip():
    profile = PrimeProfile(3, (2, 1))
    h = dv(profile, "1/2", 0, 1, generic=True)
    data = h.to_json_dict()
    assert data == {
        "deg": {"0/0": "1/2", "0/1": "0", "1/0": "1"},
        "generic": True,
        "cusp": False,
    }
    assert DegreeVector.from_json_dict(profile, data) == h
    with pytest.raises(DegreeVectorError):
        DegreeVector.from_json_dict(profile, {"deg": {"0/0": "1/2"}})


@given(degvec())
def test_json_round_trip_returns_the_vector(h):
    assert DegreeVector.from_json_dict(h.profile, h.to_json_dict()) == h


def _general_as_fraction(v) -> Fraction:
    """`_as_fraction` without its fast paths: the general path alone, kept
    as the oracle the fast paths are checked against."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        if "e" in v or "E" in v:
            raise DegreeVectorError(f"bad fraction string {v!r}: no exponent notation")
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise DegreeVectorError(f"bad fraction string {v!r}: {e}") from None
    raise DegreeVectorError(f"cannot interpret {v!r} as an exact rational")


def _digits(min_size=0):
    """Digit runs: short ASCII ones, ones past `int`'s 4300-digit limit, and
    ones holding non-ASCII decimal digits."""
    return st.one_of(
        st.text("0123456789", min_size=min_size, max_size=6),
        st.sampled_from(["0", "00", "10"]),
        st.integers(4290, 4310).map(lambda n: "7" * n),
        st.text("0123456789\u0663\uff17\u096a\u00b2", min_size=max(min_size, 1), max_size=4),
    )


@st.composite
def fraction_text(draw):
    """A string near the fraction grammar: signs, surrounding spaces, "_"
    between digits, ".", "e"/"E", zero denominators and long digit runs."""
    sign = draw(st.sampled_from(["", "", "+", "-"]))
    num = draw(_digits())
    if draw(st.booleans()):
        num = draw(st.sampled_from(["", "1_0", "1__0", "_1", "1.5", ".5", "1e3", "2E1"]))
    text = sign + num
    kind = draw(st.integers(0, 3))
    if kind == 1:
        text += "/" + draw(_digits())
    elif kind == 2:
        text += "/" + draw(st.sampled_from(["0", "00", "-3", "+3", "1_0", "2.0", " 3"]))
    elif kind == 3:
        text += draw(st.sampled_from(["/", "//2", "/3/4", "x"]))
    pad = draw(st.sampled_from(["", " ", "\t", "\n"]))
    return draw(st.sampled_from([text, pad + text, text + pad, pad + text + pad]))


@settings(max_examples=400)
@given(st.one_of(fraction_text(), st.text(max_size=8)))
@example("47/135")
@example("1/0")
@example("0/0")
@example("1" * 5000)
@example("1/" + "1" * 5000)
@example("\u0663/4")
@example("\u00b2")
@example("1/\u00b2")
@example("1e-2000000")
def test_as_fraction_matches_the_general_path(text):
    """On every string the fast paths return what `Fraction(str)` returns,
    where the general path accepts it, and raise its error with its message
    where it refuses."""
    try:
        want = _general_as_fraction(text)
    except DegreeVectorError as e:
        with pytest.raises(DegreeVectorError) as got:
            _as_fraction(text)
        assert str(got.value) == str(e)
    else:
        got = _as_fraction(text)
        assert type(got) is Fraction and got == want


def test_construction_errors_keep_their_order():
    """A malformed entry is named before a wrong length or an entry out of
    range, and a wrong length before an entry out of range."""
    profile = PrimeProfile(3, (2,))
    with pytest.raises(DegreeVectorError, match="bad fraction string 'x'"):
        DegreeVector(profile, ("2", "x"))
    with pytest.raises(DegreeVectorError, match="need 2 entries"):
        DegreeVector(profile, ("2", "3", "4"))


@pytest.mark.parametrize("value", [True, False, 1.5, None, b"1/2", F(1, 3), 7, -2])
def test_as_fraction_matches_the_general_path_off_strings(value):
    try:
        want = _general_as_fraction(value)
    except DegreeVectorError as e:
        with pytest.raises(DegreeVectorError, match=re.escape(str(e))):
            _as_fraction(value)
    else:
        assert _as_fraction(value) == want


def test_from_json_dict_rejects_deg_that_is_not_a_mapping():
    profile = PrimeProfile(3, (2,))
    for deg in ([1], "1/2", 1, None):
        with pytest.raises(DegreeVectorError):
            DegreeVector.from_json_dict(profile, {"deg": deg})


@pytest.mark.parametrize("twin", ["0/1 ", "0/01", " 0/1", "00/1"])
def test_from_json_dict_rejects_two_labels_for_one_embedding(twin):
    profile = PrimeProfile(3, (2, 1))
    deg = {"0/0": "1/2", "0/1": "0", "1/0": "1", twin: "1/3"}
    with pytest.raises(DegreeVectorError, match="0/1"):
        DegreeVector.from_json_dict(profile, {"deg": deg})


def test_from_json_dict_flags_are_json_booleans():
    profile = PrimeProfile(3, (2,))
    deg = {"0/0": "1", "0/1": "1"}
    h = DegreeVector.from_json_dict(profile, {"deg": deg})
    assert h.generic is False and h.cusp is False
    h = DegreeVector.from_json_dict(profile, {"deg": deg, "generic": True, "cusp": True})
    assert h.generic is True and h.cusp is True
    for flag in ("generic", "cusp"):
        for bad in ("false", "true", 1, 0, None, [], {}):
            with pytest.raises(DegreeVectorError, match=flag):
                DegreeVector.from_json_dict(profile, {"deg": deg, flag: bad})


@given(degvec())
def test_pair_of_degvec_always_admissible(h):
    pair = pair_of_degvec(h)  # constructor validates admissibility
    assert codim(pair) == sum(1 for v in h.entries if 0 < v < 1)
    assert _face_masks(pair) == _entry_masks(h.entries, 1)


def test_pair_of_degvec_example():
    profile = PrimeProfile(3, (2,))
    h = dv(profile, "1/2", 0)
    pair = pair_of_degvec(h)
    # positive set {0} pushes forward to phi = {1}; eta = everything below 1
    assert pair.phi == 0b10 and pair.eta == 0b11


def test_pair_of_degvec_rejects_cusp():
    profile = PrimeProfile(3, (1,))
    with pytest.raises(CuspInput):
        pair_of_degvec(DegreeVector(profile, (F(1),), cusp=True))


@given(degvec(), st.data())
def test_w_T_involution_and_commutation(h, data):
    T = data.draw(st.sets(st.integers(0, h.profile.n_primes - 1)))
    flipped = w_T_deg(h, T)
    assert w_T_deg(flipped, T) == h
    # transport commutes with taking stratum pairs
    assert pair_of_degvec(flipped) == w_T_pair(pair_of_degvec(h), T)


def test_w_T_generic_flag_is_caller_supplied():
    profile = PrimeProfile(3, (2,))
    h = dv(profile, "1/2", 1, generic=True)
    assert w_T_deg(h, {0}).generic is True
    assert w_T_deg(h, {0}, generic=False).generic is False
    assert w_T_deg(h, {0}).entries == (F(1, 2), F(0))


def test_hodge_height_examples():
    profile = PrimeProfile(3, (2,))
    # equal arguments: only a lower bound survives
    h = dv(profile, "1/4", "1/4")
    assert hodge_height(h, 0) == HodgeInterval(F(3, 4), F(1), False)
    assert hodge_height(h, 1) == HodgeInterval(F(3, 4), F(1), False)
    # distinct arguments pin the value
    h2 = dv(profile, 0, "1/2")
    assert hodge_height(h2, 1) == HodgeInterval(F(0), F(0), True)
    assert hodge_height(h2, 0) == HodgeInterval(F(1), F(1), True)  # min(3/2, 1) clamped


def test_hodge_interval_intersection():
    a = HodgeInterval(F(1, 2), F(1, 2), True)
    b = HodgeInterval(F(1, 4), F(1), False)
    c = HodgeInterval(F(3, 4), F(3, 4), True)
    assert a.intersects(b) and b.intersects(a)
    assert not a.intersects(c)
    assert b.intersects(c)


def test_raynaud_examples():
    profile = PrimeProfile(3, (2,))
    h = dv(profile, 1, 0)
    # anchored at 0: 3*d0 + d1 <= 3*0 + 1
    assert raynaud_feasible(h, dv(profile, "1/3", 0), 0)
    assert not raynaud_feasible(h, dv(profile, "1/3", "2/3"), 0)
    assert not raynaud_feasible(h, dv(profile, "1/2", 0), 0)


def test_raynaud_profile_mismatch():
    h = dv(PrimeProfile(3, (2,)), 1, 0)
    d = dv(PrimeProfile(3, (1, 1)), 0, 0)
    with pytest.raises(ProfileMismatch):
        raynaud_feasible(h, d, 0)


def test_genericity_needs_flag():
    profile = PrimeProfile(3, (2,))
    h = dv(profile, 1, 0)
    with pytest.raises(GenericFlagRequired):
        genericity_constraints(h, dv(profile, 0, 0), 0)


def test_genericity_examples():
    profile = PrimeProfile(3, (2,))
    h = dv(profile, 1, 0, generic=True)
    # h=1 at position 0: d0 <= 1/3 and predecessor entry d1 = 0
    assert genericity_constraints(h, dv(profile, "1/3", 0), 0)
    assert not genericity_constraints(h, dv(profile, "4/9", 0), 0)
    assert not genericity_constraints(h, dv(profile, "1/3", "1/9"), 0)
    # h=0 at position 1 with d0 < 1 forces d1 = 0 (already covered above);
    # d0 = 1 evades that family
    assert genericity_constraints(dv(profile, "1/2", 0, generic=True), dv(profile, 1, "1/2"), 0)


@given(degvec())
def test_deg_prime_totals(h):
    total = sum((h.deg_prime(i) for i in range(h.profile.n_primes)), F(0))
    assert total == sum(h.entries, F(0))


@given(cusp_or_degvec(), st.data())
def test_flips_equal_validated_vectors(h, data):
    """What `w_T_deg` returns equals the vector built through the validated
    constructor, cusp vectors included."""
    profile = h.profile
    T = data.draw(st.sets(st.integers(0, profile.n_primes - 1)))
    flag = data.draw(st.sampled_from([None, False, True]))
    flipped = tuple(
        1 - v if profile.prime_of(k) in T else v for k, v in enumerate(h.entries)
    )
    generic = h.generic if flag is None else flag
    assert w_T_deg(h, T, generic=flag) == DegreeVector(
        profile, flipped, generic=generic, cusp=h.cusp
    )
