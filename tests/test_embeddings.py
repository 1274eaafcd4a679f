"""Indexing and shift laws, checked against a position-level oracle."""
from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from stratgrid.embeddings import (
    MAX_P,
    PrimeProfile,
    ProfileError,
    parse_profile,
    shift_left,
    shift_right,
    subset_to_indices,
)
from stratgrid.embeddings import _is_prime

PROFILES = [
    PrimeProfile(3, (1,)),
    PrimeProfile(3, (2,)),
    PrimeProfile(3, (3,)),
    PrimeProfile(3, (2, 1)),
    PrimeProfile(5, (2, 1, 1)),
    PrimeProfile(2, (2,)),
    PrimeProfile(7, (4, 3)),
]


def indices_to_subset(indices) -> int:
    m = 0
    for k in indices:
        m |= 1 << k
    return m


def oracle_shift_left(profile: PrimeProfile, mask: int) -> int:
    # membership oracle: k in l(S) iff successor(k) in S
    out = 0
    for k in subset_to_indices(profile.full_mask):
        i, pos = profile.emb(k)
        succ = profile.index(i, (pos + 1) % profile.f[i])
        if mask >> succ & 1:
            out |= 1 << k
    return out


def rotate_blocks(profile: PrimeProfile, mask: int, step: int) -> int:
    # loop oracle: rotate each block's bits down (step = -1) or up (step = +1)
    out = 0
    for i, d in enumerate(profile.f):
        for pos in range(d):
            if mask >> profile.index(i, pos) & 1:
                out |= 1 << profile.index(i, (pos + step) % d)
    return out


def profile_strategy():
    return st.sampled_from(PROFILES)


@st.composite
def profile_and_mask(draw):
    profile = draw(profile_strategy())
    mask = draw(st.integers(min_value=0, max_value=profile.full_mask))
    return profile, mask


def test_parse_string_and_json_agree():
    a = parse_profile("p=3;f=2,1,1")
    b = parse_profile('{"p": 3, "f": [2, 1, 1]}')
    c = parse_profile({"p": 3, "f": [2, 1, 1]})
    assert a == b == c == PrimeProfile(3, (2, 1, 1))
    assert str(a) == "p=3;f=2,1,1"
    assert a.to_json_dict() == {"p": 3, "f": [2, 1, 1]}


@pytest.mark.parametrize(
    "bad",
    ["p=4;f=2", "p=3;f=", "p=3", "f=2,1", "p=3;f=0,1", '{"p": 3}', '{"p": 3, "f": 2}', "p=1;f=1"],
)
def test_parse_rejects(bad):
    with pytest.raises(ProfileError):
        parse_profile(bad)


@pytest.mark.parametrize(
    "text,reason",
    [('{"p": 3, "f": [2', "Expecting"), ('{"p": 3, "f": ' + "[" * 100000 + "}", "recursion")],
    ids=["truncated", "nested"],
)
def test_bad_profile_json_names_itself(text, reason):
    with pytest.raises(ProfileError, match=f"^bad profile JSON: .*{reason}"):
        parse_profile(text)


def test_prime_at_or_above_the_bound_is_refused():
    """p below `MAX_P` is decided by trial division; p at or above it is
    refused before any, prime or not."""
    assert PrimeProfile(2**31 - 1, (1,)).p == 2**31 - 1
    for p in (MAX_P, 10**15 + 37, 2**61 - 1):
        with pytest.raises(ProfileError, match="below 2\\^31"):
            PrimeProfile(p, (1,))


def test_is_prime_matches_a_sieve_and_refuses_strong_pseudoprimes():
    """Miller-Rabin to the bases 2, 7 and 61 agrees with a sieve below 10^5,
    and calls composite the strong pseudoprimes to smaller base sets below
    its bound: to base 2 (2047, 3277), to 2, 3 and 5 (25326001) and to 2, 3,
    5 and 7 (3215031751), as well as Carmichael numbers."""
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert [_is_prime(n) for n in range(limit)] == sieve
    for n in (561, 1105, 2047, 3277, 25326001, 3215031751, 2**31 + 1, 2**32 - 1):
        assert not _is_prime(n), n
    for n in (2**31 - 1, 2**32 - 5, 4759123129):
        assert _is_prime(n), n


def test_boolean_residue_degree_rejected():
    # bool is an int, so True would pass for a residue degree of 1
    with pytest.raises(ProfileError):
        PrimeProfile(3, (True, 2))


def test_small_primes_accepted():
    # p=2 profiles construct; the p>=3 hypothesis surfaces in checks, not here
    assert parse_profile("p=2;f=2").p == 2


def test_indexing_round_trip():
    profile = PrimeProfile(3, (2, 1, 3))
    assert profile.g == 6
    assert profile.offsets == (0, 2, 3)
    for k in range(profile.g):
        i, pos = profile.emb(k)
        assert profile.index(i, pos) == k
        assert profile.index_of_label(profile.label(k)) == k
    with pytest.raises(IndexError):
        profile.index(0, 2)
    with pytest.raises(IndexError):
        profile.emb(6)


@pytest.mark.parametrize("label", ["9/9", "0/2", "1/1", "3/0", "0/10"])
def test_index_of_label_rejects_labels_naming_no_embedding(label):
    with pytest.raises(ProfileError, match="names no embedding"):
        PrimeProfile(3, (2, 1)).index_of_label(label)


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _regex_index_of_label(profile: PrimeProfile, s: str) -> int:
    """The label reader before the label table: a 'prime/pos' regex on the
    stripped string."""
    m = re.fullmatch(r"(\d+)/(\d+)", s.strip())
    if not m:
        raise ProfileError(f"bad embedding label {s!r}, expected 'prime/pos'")
    try:
        return profile.index(int(m.group(1)), int(m.group(2)))
    except IndexError:
        raise ProfileError(f"label {s!r} names no embedding of {profile}") from None


def test_label_table_matches_prime_and_position():
    """On every profile up to g = 12, the label of k is 'prime/pos' and
    reads back as k."""
    for g in range(1, 13):
        for f in _compositions(g):
            profile = PrimeProfile(3, f)
            k = 0
            for i, d in enumerate(f):
                for pos in range(d):
                    assert profile.label(k) == f"{i}/{pos}"
                    assert profile.index_of_label(profile.label(k)) == k
                    k += 1
            with pytest.raises(IndexError):
                profile.label(g)
            with pytest.raises(IndexError):
                profile.label(-1)


@pytest.mark.parametrize(
    "label", ["0/1 ", " 0/1", "00/1", "0/01", "x", "3/0", "1/0", "0/2", "", "0 / 1", "-0/1"]
)
def test_index_of_label_reads_other_strings_as_before(label):
    """A string that is not a label exactly gives the regex reader's index
    or its error, word for word."""
    profile = PrimeProfile(3, (2, 1))
    try:
        want = _regex_index_of_label(profile, label)
    except ProfileError as exc:
        with pytest.raises(ProfileError) as got:
            profile.index_of_label(label)
        assert str(got.value) == str(exc)
    else:
        assert profile.index_of_label(label) == want


def test_shift_example():
    # f=3 block: the predecessor set of {pos 1} is {pos 0}
    profile = PrimeProfile(3, (3,))
    s = indices_to_subset([profile.index(0, 1)])
    assert shift_left(profile, s) == indices_to_subset([profile.index(0, 0)])
    # wrap-around
    s0 = indices_to_subset([profile.index(0, 0)])
    assert shift_left(profile, s0) == indices_to_subset([profile.index(0, 2)])


@given(profile_and_mask())
def test_shift_left_matches_oracle(pm):
    profile, mask = pm
    assert shift_left(profile, mask) == oracle_shift_left(profile, mask)


@pytest.mark.parametrize("text", ["p=3;f=3,1,2,1", "p=2;f=1,4,1,1", "p=5;f=2,2,3"])
def test_shifts_match_block_rotation_exhaustively(text):
    """Every mask of profiles mixing block sizes, size-1 blocks included."""
    profile = parse_profile(text)
    for mask in range(profile.full_mask + 1):
        left = shift_left(profile, mask)
        assert left == rotate_blocks(profile, mask, -1), (text, mask)
        assert shift_right(profile, mask) == rotate_blocks(profile, mask, 1), (text, mask)
        assert shift_right(profile, left) == mask


@given(profile_and_mask())
def test_shift_round_trip(pm):
    profile, mask = pm
    assert shift_right(profile, shift_left(profile, mask)) == mask
    assert shift_left(profile, shift_right(profile, mask)) == mask


@given(profile_and_mask())
def test_shift_commutes_with_complement(pm):
    profile, mask = pm
    full = profile.full_mask
    assert shift_left(profile, full & ~mask) == full & ~shift_left(profile, mask)


@given(profile_and_mask())
def test_blocks_partition(pm):
    profile, mask = pm
    acc = 0
    for i in range(profile.n_primes):
        b = mask & profile.block_mask(i)
        assert acc & b == 0
        acc |= b
    assert acc == mask


@pytest.mark.parametrize("profile", PROFILES)
def test_block_table_names_each_embeddings_block(profile):
    assert len(profile._block_of) == profile.g
    for k in range(profile.g):
        assert profile._block_of[k] == profile.block_mask(profile.prime_of(k))
    # derived, like the other tables: equality, hashing and repr see (p, f) only
    twin = PrimeProfile(profile.p, profile.f)
    assert twin == profile and hash(twin) == hash(profile)
    assert "_block_of" not in repr(profile)


def test_mask_range_checked():
    profile = PrimeProfile(3, (2,))
    with pytest.raises(ValueError):
        shift_left(profile, 1 << 5)
