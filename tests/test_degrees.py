"""Degree-vector laws: stratum compatibility, flips, heights, inequalities."""
from __future__ import annotations

import json
import pickle
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from stratgrid.embeddings import PrimeProfile, ProfileError, parse_profile
from stratgrid.degrees import (
    CuspInput,
    DegreeVector,
    DegreeVectorError,
    GenericFlagRequired,
    HodgeInterval,
    ProfileMismatch,
    _as_fraction,
    _entry_masks,
    _fraction_texts,
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
    """The general path alone, as `Fraction(str)` reads each string: the
    oracle `_as_fraction` and the digit path of `from_json_dict` are checked
    against."""
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


def _outcome(build):
    """What `build()` returns, or the type and message of the error it raises."""
    try:
        return True, build()
    except (DegreeVectorError, ProfileError) as e:
        return False, (type(e), str(e))


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
@example("1/00")
@example("2/4")
@example("1" * 5000)
@example("1/" + "1" * 5000)
@example("\u0663/4")
@example("\u00b2")
@example("1/\u00b2")
@example("1e-2000000")
def test_as_fraction_matches_the_general_path(text):
    """On every string `_as_fraction`, and a one-entry vector parsed by
    `from_json_dict`, whose digit path reads the strings `to_json_dict`
    writes straight into integers, hold what `Fraction(str)` returns where
    the general path accepts it, and raise its error with its message where
    it refuses."""
    data = {"deg": {"0/0": text}}
    try:
        want = _general_as_fraction(text)
    except DegreeVectorError as e:
        with pytest.raises(DegreeVectorError) as got:
            _as_fraction(text)
        assert str(got.value) == str(e)
        ok, parsed = _outcome(lambda: DegreeVector.from_json_dict(PrimeProfile(3, (1,)), data))
        assert not ok and parsed == (DegreeVectorError, str(e))
    else:
        got = _as_fraction(text)
        assert type(got) is Fraction and got == want
        ok, parsed = _outcome(lambda: DegreeVector.from_json_dict(PrimeProfile(3, (1,)), data))
        if 0 <= want <= 1:
            assert ok and parsed.entries == (want,) and parsed.den == want.denominator
        else:
            assert parsed == (DegreeVectorError, "degree entries must lie in [0, 1]")


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


# ---------------------------------------------------------------------------
# the integer vector against a `Fraction` reference


@dataclass(frozen=True)
class RefVector:
    """A degree vector held as `Fraction`s: the oracle the integer
    `DegreeVector` is checked against.  Its constructor, codec and errors
    are those of the `Fraction` dataclass the integer vector replaced, with
    every value read by the general path `_general_as_fraction`."""

    profile: PrimeProfile
    entries: tuple
    generic: bool = False
    cusp: bool = False

    def __post_init__(self):
        entries = tuple(_general_as_fraction(v) for v in self.entries)
        if len(entries) != self.profile.g:
            raise DegreeVectorError(
                f"need {self.profile.g} entries for {self.profile}, got {len(entries)}"
            )
        if not all(0 <= v <= 1 for v in entries):
            raise DegreeVectorError("degree entries must lie in [0, 1]")
        if self.cusp:
            for f, off in zip(self.profile.f, self.profile.offsets):
                block = entries[off : off + f]
                if block[0] not in (0, 1) or len(set(block)) != 1:
                    raise DegreeVectorError(
                        "cusp vectors are 0/1 with blockwise-constant One-set"
                    )
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, k):
        return self.entries[k]

    def deg_prime(self, i):
        off = self.profile.offsets[i]
        return sum(self.entries[off : off + self.profile.f[i]], F(0))

    def to_json_dict(self):
        labels = [self.profile.label(k) for k in range(self.profile.g)]
        return {
            "deg": dict(zip(labels, map(str, self.entries))),
            "generic": self.generic,
            "cusp": self.cusp,
        }

    @classmethod
    def from_json_dict(cls, profile, data):
        if not isinstance(data, dict) or "deg" not in data:
            raise DegreeVectorError(f"degree JSON needs a 'deg' mapping, got {data!r}")
        deg = data["deg"]
        if not isinstance(deg, dict):
            raise DegreeVectorError(f"'deg' must map labels to degrees, got {deg!r}")
        entries = [None] * profile.g
        for label, val in deg.items():
            k = profile.index_of_label(label)
            if entries[k] is not None:
                raise DegreeVectorError(f"two labels name embedding {profile.label(k)}")
            entries[k] = _general_as_fraction(val)
        missing = [profile.label(k) for k, e in enumerate(entries) if e is None]
        if missing:
            raise DegreeVectorError(f"missing degree entries for {missing}")
        flags = {}
        for name in ("generic", "cusp"):
            flags[name] = data.get(name, False)
            if not isinstance(flags[name], bool):
                raise DegreeVectorError(f"{name!r} must be true or false, got {flags[name]!r}")
        return cls(profile, tuple(entries), **flags)


@st.composite
def small_profiles(draw):
    """A profile with p in {2, 3, 5, 7} and g <= 6."""
    f = []
    while not f or (sum(f) < 6 and draw(st.booleans())):
        f.append(draw(st.integers(1, 6 - sum(f))))
    return PrimeProfile(draw(st.sampled_from([2, 3, 5, 7])), tuple(f))


# Mixed denominators: coprime ones side by side, powers of p, and a large
# prime, so the lcm of a vector's denominators is rarely any one of them.
DENS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 25, 27, 49, 100, 125, 2**31 - 1]


@st.composite
def entry_value(draw, refused=True):
    """One entry as a constructor or a JSON mapping may hold it: a `Fraction`,
    an int, a reduced or unreduced digit string, or, about one time in nine
    when `refused`, a value the vector refuses."""
    if refused and draw(st.integers(0, 8)) == 0:
        bad = [F(-1, 3), F(4, 3), 2, -1, "3/2", "-1/3", "x", "1/0", "1e3", 1.5, True, None]
        return draw(st.sampled_from(bad) | fraction_text())
    den = draw(st.sampled_from(DENS))
    v = F(draw(st.integers(0, den)), den)
    form = draw(st.integers(0, 3))
    if form == 1 and v.denominator == 1:
        return int(v)
    if form == 2:
        return str(v)
    if form == 3:
        m = draw(st.integers(1, 4))
        return f"{'0' * draw(st.integers(0, 1))}{v.numerator * m}/{v.denominator * m}"
    return v


@st.composite
def vector_args(draw, refused=True):
    """(profile, entries, generic, cusp): mostly a well-formed vector, at
    times one with a wrong length, a bad entry, or a cusp flag its entries
    may break."""
    profile = draw(small_profiles())
    g = profile.g
    cusp = draw(st.integers(0, 5)) == 0
    if cusp and draw(st.booleans()):
        vals = []
        for f in profile.f:
            vals += [draw(st.sampled_from([F(0), F(1), 0, 1, "1", "2/2"]))] * f
    else:
        n = g if draw(st.integers(0, 9)) else draw(st.sampled_from([g - 1, g + 1]))
        vals = [draw(entry_value(refused)) for _ in range(n)]
    return profile, tuple(vals), draw(st.booleans()), cusp


@settings(max_examples=300)
@given(vector_args())
def test_vector_matches_the_fraction_reference(args):
    """Construction, errors and messages, the `Fraction` view, `h[k]`,
    `deg_prime`, the JSON bytes and the round trip agree with the
    reference."""
    profile, vals, generic, cusp = args
    ok, h = _outcome(lambda: DegreeVector(profile, vals, generic=generic, cusp=cusp))
    ok_ref, ref = _outcome(lambda: RefVector(profile, vals, generic, cusp))
    assert ok is ok_ref
    if not ok:
        assert h == ref
        return
    assert h.entries == ref.entries
    assert all(type(v) is F for v in h.entries)
    assert [h[k] for k in range(profile.g)] == list(ref.entries)
    assert [h.deg_prime(i) for i in range(profile.n_primes)] == [
        ref.deg_prime(i) for i in range(profile.n_primes)
    ]
    assert h.den == lcm(*(v.denominator for v in ref.entries))
    assert json.dumps(h.to_json_dict()) == json.dumps(ref.to_json_dict())
    back = DegreeVector.from_json_dict(profile, h.to_json_dict())
    assert back == h and hash(back) == hash(h)


@st.composite
def vector_pairs(draw):
    """Two well-formed vectors on one profile; half the time the second
    holds the first's values, each written in another form."""
    args = vector_args(refused=False).filter(lambda a: len(a[1]) == a[0].g)
    profile, vals, generic, cusp = draw(args)
    if draw(st.booleans()):
        other = []
        for v in vals:
            v = _general_as_fraction(v)
            m = draw(st.integers(1, 3))
            forms = [v, str(v), f"{v.numerator * m}/{v.denominator * m}"]
            other.append(draw(st.sampled_from(forms)))
        other_flags = (generic, cusp) if draw(st.integers(0, 3)) else (not generic, cusp)
    else:
        other = [draw(entry_value(refused=False)) for _ in vals]
        other_flags = (draw(st.booleans()), False)
    return profile, vals, (generic, cusp), tuple(other), other_flags


@settings(max_examples=300)
@given(vector_pairs())
def test_equality_and_hash_match_the_fraction_reference(pair):
    """Two vectors are equal, either way round, exactly when their
    references are; equal vectors hash alike and hold the same (scaled,
    den), and a vector equals itself written over twice its denominator."""
    profile, vals_a, (ga, ca), vals_b, (gb, cb) = pair
    try:
        refs = RefVector(profile, vals_a, ga, ca), RefVector(profile, vals_b, gb, cb)
    except DegreeVectorError:  # the drawn entries broke a cusp flag
        return
    ha = DegreeVector(profile, vals_a, generic=ga, cusp=ca)
    hb = DegreeVector(profile, vals_b, generic=gb, cusp=cb)
    same = refs[0] == refs[1]
    assert (ha == hb) is same and (hb == ha) is same and (ha != hb) is not same
    if same:
        assert hash(ha) == hash(hb) and (ha.scaled, ha.den) == (hb.scaled, hb.den)
    # the same values over twice the denominator, through the grid constructor
    twice = DegreeVector.from_grid(profile, [2 * a for a in ha.scaled], 2 * ha.den, ga, ca)
    assert twice == ha and hash(twice) == hash(ha)
    assert ha != refs[0] and ha != tuple(refs[0].entries)


# Labels other than the exact ones: each names an embedding, or none.
ODD_LABELS = [" 0/0", "00/1", "0/1 ", "1/0", "0/9", "9/0", "x", ""]


@st.composite
def json_args(draw):
    """(profile, data): mostly a well-formed serialized vector, with its
    values in every form `entry_value` draws; at times a label missing,
    doubled or malformed, a flag that is not a boolean, or a `deg` that is
    not a mapping."""
    profile, vals, generic, cusp = draw(vector_args())
    labels = [profile.label(k) for k in range(profile.g)]
    deg = dict(zip(labels, vals))
    if draw(st.integers(0, 5)) == 0:
        deg[draw(st.sampled_from(ODD_LABELS))] = draw(entry_value())
    if draw(st.integers(0, 7)) == 0 and deg:
        del deg[draw(st.sampled_from(sorted(deg)))]
    keys = list(deg)
    deg = {k: deg[k] for k in draw(st.permutations(keys))}
    data = {"deg": deg}
    for name, flag in (("generic", generic), ("cusp", cusp)):
        if draw(st.booleans()):
            bad = draw(st.sampled_from(["true", 1, None]))
            data[name] = flag if draw(st.integers(0, 9)) else bad
    if draw(st.integers(0, 19)) == 0:
        data = draw(st.sampled_from([{}, {"deg": list(deg.values())}, [deg], None]))
    return profile, data


@settings(max_examples=400)
@given(json_args())
def test_from_json_dict_matches_the_fraction_reference(args):
    """Every parse agrees with the reference: the vector, or the error and
    its message."""
    profile, data = args
    ok, h = _outcome(lambda: DegreeVector.from_json_dict(profile, data))
    ok_ref, ref = _outcome(lambda: RefVector.from_json_dict(profile, data))
    assert ok is ok_ref
    if not ok:
        assert h == ref
        return
    assert h.entries == ref.entries and (h.generic, h.cusp) == (ref.generic, ref.cusp)
    assert h.den == lcm(*(v.denominator for v in ref.entries))
    assert json.dumps(h.to_json_dict()) == json.dumps(ref.to_json_dict())


def test_coprime_denominators_past_the_digit_limit():
    """Six entries over pairwise coprime denominators of 760 digits: their
    lcm has more digits than `str` writes, and no step of the vector
    writes it."""
    m = 60 * 10**760  # m*k + 1 for k = 1..6 are pairwise coprime
    dens = [m * k + 1 for k in range(1, 7)]
    vals = tuple(F(1 if k % 2 else d - 1, d) for k, d in enumerate(dens))
    profile = PrimeProfile(5, (2, 3, 1))
    h = DegreeVector(profile, vals, generic=True)
    assert h.den == prod(dens) and h.den > 10**4300
    with pytest.raises(ValueError):
        str(h.den)
    ref = RefVector(profile, vals, generic=True)
    assert h.entries == ref.entries and h.deg_prime(1) == ref.deg_prime(1)
    data = h.to_json_dict()
    assert json.dumps(data) == json.dumps(ref.to_json_dict())
    back = DegreeVector.from_json_dict(profile, data)
    assert back == h and hash(back) == hash(h)
    assert w_T_deg(w_T_deg(h, {0, 2}), {0, 2}) == h
    assert _entry_masks(h.scaled, h.den) == _entry_masks(ref.entries, 1)
    assert DegreeVector.from_grid(profile, h.scaled, h.den, generic=True) == h
    assert repr(h).startswith("DegreeVector(profile=PrimeProfile(p=5, f=(2, 3, 1)), entries=")


def test_fraction_texts_write_what_str_of_a_fraction_writes():
    """Every a / den with den <= 240 and 0 <= a <= den, and values past den,
    as a record's lhs may be."""
    for den in range(1, 241):
        want = [str(F(a, den)) for a in range(den + 1)]
        assert _fraction_texts(range(den + 1), den) == want, den
        past = [2 * den, 3 * den + 1, 7 * den - 1]
        assert _fraction_texts(past, den) == [str(F(a, den)) for a in past], den


def test_from_grid_reduces_and_refuses_like_the_constructor():
    profile = PrimeProfile(3, (2, 1))
    h = DegreeVector.from_grid(profile, (6, 3, 12), 12, generic=True)
    assert (h.scaled, h.den) == ((2, 1, 4), 4)
    assert h == DegreeVector(profile, (F(1, 2), F(1, 4), F(1)), generic=True)
    assert DegreeVector.from_grid(profile, (0, 0, 0), 9).den == 1
    with pytest.raises(DegreeVectorError, match="need 3 entries"):
        DegreeVector.from_grid(profile, (1, 2), 4)
    with pytest.raises(DegreeVectorError, match=r"must lie in \[0, 1\]"):
        DegreeVector.from_grid(profile, (1, 5, 0), 4)
    with pytest.raises(DegreeVectorError, match=r"must lie in \[0, 1\]"):
        DegreeVector.from_grid(profile, (1, -1, 0), 4)
    with pytest.raises(DegreeVectorError, match="positive denominator"):
        DegreeVector.from_grid(profile, (0, 0, 0), 0)
    with pytest.raises(DegreeVectorError, match="cusp vectors"):
        DegreeVector.from_grid(profile, (4, 0, 4), 4, cusp=True)


def test_vectors_are_immutable_and_pickle():
    h = dv(PrimeProfile(3, (2,)), "1/2", 1, generic=True)
    for name in ("scaled", "den", "generic", "entries", "profile"):
        with pytest.raises(AttributeError):
            setattr(h, name, None)
        with pytest.raises(AttributeError):
            delattr(h, name)
    back = pickle.loads(pickle.dumps(h))
    assert back == h and back.generic is True and back.entries == (F(1, 2), F(1))
