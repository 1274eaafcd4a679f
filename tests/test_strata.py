"""Stratum pairs against a brute-force oracle, plus face and transport laws."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stratgrid.embeddings import PrimeProfile, shift_left, shift_right, subset_to_indices
from stratgrid import regions
from stratgrid.regions import CoverageReport, IntervalQ, coverage_check
from stratgrid.strata import (
    Badness,
    EnumerationBound,
    InadmissiblePair,
    StratumClass,
    StratumPair,
    _face_masks,
    _swap_on,
    _whole_blocks,
    classify,
    classify_face,
    closure_set,
    codim,
    enumerate_admissible,
    is_admissible,
    pair_of_masks,
    pi_image,
    w_T_pair,
)

PROFILES = [
    PrimeProfile(3, (1,)),
    PrimeProfile(3, (2,)),
    PrimeProfile(3, (1, 1)),
    PrimeProfile(3, (3,)),
    PrimeProfile(3, (2, 1)),
    PrimeProfile(5, (2, 2)),
    PrimeProfile(2, (2, 1)),
]


def face(text: str) -> tuple[int, int]:
    """Zero and One masks of a face written as coverage reports write it: one
    of "0", "1" and "*" (Open) per coordinate, embedding 0 first."""
    zeros = sum(1 << k for k, c in enumerate(text) if c == "0")
    ones = sum(1 << k for k, c in enumerate(text) if c == "1")
    return zeros, ones


def all_faces(profile: PrimeProfile):
    """The masks of all 3^g faces."""
    for coords in itertools.product("01*", repeat=profile.g):
        yield face("".join(coords))


def oracle_admissible(profile: PrimeProfile, phi: int, eta: int) -> bool:
    # positionwise restatement: every beta outside phi has its predecessor in eta
    full = profile.full_mask
    for k in range(profile.g):
        if phi >> k & 1:
            continue
        i, pos = profile.emb(k)
        pred = profile.index(i, (pos - 1) % profile.f[i])
        if not eta >> pred & 1:
            return False
    return True


def brute_pairs(profile: PrimeProfile) -> list[tuple[int, int]]:
    full = profile.full_mask
    return [
        (phi, eta)
        for phi in range(full + 1)
        for eta in range(full + 1)
        if oracle_admissible(profile, phi, eta)
    ]


@st.composite
def admissible_pair(draw, profiles=PROFILES):
    profile = draw(st.sampled_from(profiles))
    full = profile.full_mask
    phi = draw(st.integers(min_value=0, max_value=full))
    extra = draw(st.integers(min_value=0, max_value=full))
    eta = shift_left(profile, full & ~phi) | (extra & shift_left(profile, phi))
    return StratumPair(profile, phi, eta)


@pytest.mark.parametrize("profile", PROFILES)
def test_census_matches_brute_force(profile):
    got = [(p.phi, p.eta) for p in enumerate_admissible(profile)]
    assert got == sorted(brute_pairs(profile))
    assert len(got) == 3**profile.g


def test_enumeration_bound():
    with pytest.raises(EnumerationBound):
        enumerate_admissible(PrimeProfile(3, (13,)))


def test_inadmissible_rejected():
    profile = PrimeProfile(3, (2,))
    # phi empty forces eta to contain everything
    with pytest.raises(InadmissiblePair):
        StratumPair(profile, 0, 0b01)
    assert not is_admissible(profile, 0, 0b01)
    assert is_admissible(profile, 0, 0b11)


@given(admissible_pair())
def test_codim_bounds(pair):
    c = codim(pair)
    assert 0 <= c <= pair.profile.g
    # codim equals the number of Open face coordinates
    zeros, ones = _face_masks(pair)
    assert c == pair.profile.g - (zeros | ones).bit_count()


@given(admissible_pair())
@settings(max_examples=60)
def test_closure_is_upward_closed_and_codim_monotone(pair):
    cl = closure_set(pair)
    assert pair in cl
    base = codim(pair)
    for q in cl:
        assert q.phi & pair.phi == pair.phi and q.eta & pair.eta == pair.eta
        assert codim(q) >= base
    # oracle: direct filter over the census
    expected = [
        (q.phi, q.eta)
        for q in enumerate_admissible(pair.profile)
        if q.phi & pair.phi == pair.phi and q.eta & pair.eta == pair.eta
    ]
    assert sorted((q.phi, q.eta) for q in cl) == sorted(expected)


@given(admissible_pair())
def test_pi_image_cardinality(pair):
    taus = pi_image(pair)
    free = pair.profile.full_mask & ~pair.phi & ~pair.eta
    assert len(taus) == 1 << free.bit_count()
    base = pair.phi & pair.eta
    for tau in taus:
        assert tau & base == base and tau & ~(base | free) == 0


@given(admissible_pair(), st.data())
def test_w_T_involution_and_result_admissible(pair, data):
    T = data.draw(st.sets(st.integers(0, pair.profile.n_primes - 1)))
    moved = w_T_pair(pair, T)  # constructor revalidates admissibility
    assert w_T_pair(moved, T) == pair


@given(admissible_pair(), st.data())
def test_w_T_intertwines_face_flip(pair, data):
    T = data.draw(st.sets(st.integers(0, pair.profile.n_primes - 1)))
    # w_T_pair is the paper's (phi, eta) -> (r(eta), l(phi)) on T's blocks;
    # on faces it must be the production flip, a mask swap there
    flip = sum(pair.profile.block_mask(i) for i in T)
    assert _face_masks(w_T_pair(pair, T)) == _swap_on(*_face_masks(pair), flip)


@pytest.mark.parametrize("profile", PROFILES[:5])
def test_face_round_trip_over_census(profile):
    for pair in enumerate_admissible(profile):
        assert pair_of_masks(profile, *_face_masks(pair)) == pair
    # and the other direction over all 3^g faces
    for masks in all_faces(profile):
        assert _face_masks(pair_of_masks(profile, *masks)) == masks


def test_classify_examples():
    profile = PrimeProfile(3, (3,))
    # face (Open, Zero, One): bad with a single Zero after beta0, so j = 1
    cls = classify(pair_of_masks(profile, *face("*01")))
    assert cls.badness is Badness.BAD and cls.beta0 == 0 and cls.j == 1
    assert cls.nowhere_etale
    # face (Open, Zero, Zero): eta fills the block, no j
    cls2 = classify(pair_of_masks(profile, *face("*00")))
    assert cls2.badness is Badness.BAD and cls2.beta0 == 0 and cls2.j is None
    # face (Open, One, Zero): successor of beta0 is One, good
    cls3 = classify(pair_of_masks(profile, *face("*10")))
    assert cls3.badness is Badness.GOOD and cls3.beta0 == 0 and cls3.j is None


def test_classify_f1_always_good():
    profile = PrimeProfile(3, (1, 1))
    assert classify(pair_of_masks(profile, *face("*1"))).badness is Badness.GOOD


def test_classify_f2_bad_has_no_j():
    # with a block of size 2 the Zero run after beta0 fills the block
    profile = PrimeProfile(3, (2,))
    cls = classify(pair_of_masks(profile, *face("*0")))
    assert cls.badness is Badness.BAD and cls.j is None


@pytest.mark.parametrize("profile", PROFILES)
def test_classify_j_range(profile):
    # genuine bad strata with eta not filling the block have 1 <= j <= f-2
    for pair in enumerate_admissible(profile, codim_filter=1):
        cls = classify(pair)
        if cls.j is not None:
            f0 = profile.f[profile.prime_of(cls.beta0)]
            assert 1 <= cls.j <= f0 - 2


def classify_oracle(pair: StratumPair) -> StratumClass:
    """The pair-based classification, read off phi and eta directly."""
    profile = pair.profile
    full = profile.full_mask
    zeros = shift_left(profile, full & ~pair.phi)
    ones = full & ~pair.eta
    nowhere = True
    for i in range(profile.n_primes):
        b = profile.block_mask(i)
        if pair.phi & b == 0 and pair.eta & b == b:
            nowhere = False
            break
    if codim(pair) != 1:
        return StratumClass(nowhere, Badness.NOT_CODIM1)
    opens = pair.eta & shift_left(profile, pair.phi)
    beta0 = opens.bit_length() - 1
    succ = shift_right(profile, 1 << beta0)
    if succ & zeros == 0:
        return StratumClass(nowhere, Badness.GOOD, beta0)
    b = profile.block_mask(profile.prime_of(beta0))
    if pair.eta & b == b:
        return StratumClass(nowhere, Badness.BAD, beta0, None)
    cur = succ
    j = 0
    while cur & zeros:
        j += 1
        cur = shift_right(profile, cur)
    return StratumClass(nowhere, Badness.BAD, beta0, j)


def classify_face_walk(profile: PrimeProfile, zeros: int, ones: int) -> StratumClass:
    """The face classification by walking `shift_right` from beta0 and
    scanning for beta0's prime: `classify_oracle`'s companion on masks."""
    full = profile.full_mask
    nowhere = not any(
        zeros & profile.block_mask(i) == profile.block_mask(i) for i in range(profile.n_primes)
    )
    opens = full & ~(zeros | ones)
    if opens.bit_count() != 1:
        return StratumClass(nowhere, Badness.NOT_CODIM1)
    beta0 = opens.bit_length() - 1
    succ = shift_right(profile, opens)
    if succ & zeros == 0:
        return StratumClass(nowhere, Badness.GOOD, beta0)
    if ones & profile.block_mask(profile.prime_of(beta0)) == 0:
        return StratumClass(nowhere, Badness.BAD, beta0, None)
    cur = succ
    j = 0
    while cur & zeros:
        j += 1
        cur = shift_right(profile, cur)
    return StratumClass(nowhere, Badness.BAD, beta0, j)


@pytest.mark.parametrize(
    "profile",
    PROFILES + [PrimeProfile(2, (4,)), PrimeProfile(3, (5, 1)), PrimeProfile(3, (1, 3, 2))],
)  # blocks of size 4 and 5 give Zero runs j = 2 and 3
def test_classify_face_matches_pair_oracle_on_every_face(profile):
    for zeros, ones in all_faces(profile):
        pair = pair_of_masks(profile, zeros, ones)
        want = classify_oracle(pair)
        assert classify_face(profile, zeros, ones) == want, (zeros, ones)
        assert classify_face_walk(profile, zeros, ones) == want, (zeros, ones)
        assert classify(pair) == want, (zeros, ones)


def test_classify_face_rejects_inadmissible_masks():
    profile = PrimeProfile(3, (2, 1))
    for zeros, ones in ((0b001, 0b011), (0b111, 0b100), (0b1000, 0), (0, 0b1000), (-1, 0)):
        with pytest.raises(InadmissiblePair):
            classify_face(profile, zeros, ones)


def test_etale_detection():
    profile = PrimeProfile(3, (2, 1))
    # all-Zero block on prime 0: phi empty there, eta full there
    assert not classify(pair_of_masks(profile, *face("001"))).nowhere_etale
    assert classify(pair_of_masks(profile, *face("101"))).nowhere_etale


@pytest.mark.parametrize("profile", PROFILES)
def test_whole_blocks_matches_per_block_oracle(profile):
    blocks = [profile.block_mask(i) for i in range(profile.n_primes)]
    for mask in range(profile.full_mask + 1):
        want = 0
        for b in blocks:
            if all(mask >> k & 1 for k in range(profile.g) if b >> k & 1):
                want |= b
        assert _whole_blocks(profile, mask) == want, mask


def test_vertex_decomposition_and_transport():
    profile = PrimeProfile(3, (2, 1, 2))
    zeros, ones = face("00110")
    # prime 0 is all Zero (T0), prime 1 all One, prime 2 mixed (T2)
    t0 = _whole_blocks(profile, zeros)
    t0_t2 = profile.full_mask & ~_whole_blocks(profile, ones)
    assert t0 == profile.block_mask(0)
    assert t0_t2 == profile.block_mask(0) | profile.block_mask(2)
    # flipping the all-Zero blocks makes every block carry a One: nowhere etale
    assert classify_face(profile, *_swap_on(zeros, ones, t0)).nowhere_etale
    assert classify_face(profile, *_swap_on(zeros, ones, t0_t2)).nowhere_etale
    assert coverage_check(profile).vertex_failures == ()


@pytest.mark.parametrize("profile", PROFILES)
def test_vertex_transport_nowhere_etale_exhaustive(profile):
    # for every vertex, flipping T0 or T0 | T2 yields a nowhere-etale stratum
    assert coverage_check(profile).vertex_failures == ()


def compositions(n: int):
    """Ordered residue-degree tuples summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


SMALL_PROFILES = [
    PrimeProfile(p, f) for p in (2, 3) for g in range(1, 6) for f in compositions(g)
]


def rule_flip(profile: PrimeProfile, picks, zeros: int, ones: int) -> int:
    """The blocks a flip rule of `regions` picks on a face: each block's
    masks are moved down to bit 0 and handed to the rule."""
    flip = 0
    for i in range(profile.n_primes):
        b = profile.block_mask(i)
        off = profile.offsets[i]
        if picks((zeros & b) >> off, (ones & b) >> off, b >> off):
            flip |= b
    return flip


def coverage_oracle(profile: PrimeProfile) -> CoverageReport:
    """`coverage_check`'s report built the old way: faces from coordinate
    strings, every face walked, each flip, as `regions`' flip rules pick it,
    decided by naming the flipped face's stratum with `classify_face_walk`,
    and the tail sums as `Fraction` sums.  The rules are read at each call,
    so a test that swaps them in `regions` swaps them here too."""
    g = profile.g

    def etale_flips(flips, zeros: int, ones: int) -> list[str]:
        return [
            tag
            for tag, picks in flips
            if not classify_face_walk(
                profile, *_swap_on(zeros, ones, rule_flip(profile, picks, zeros, ones))
            ).nowhere_etale
        ]

    vertex_failures = []
    for coords in itertools.product("01", repeat=g):
        zeros, ones = face("".join(coords))
        for tag in etale_flips(regions._VERTEX_FLIPS, zeros, ones):
            vertex_failures.append({"vertex": list(coords), "flip": tag})
    edge_failures = []
    for beta0 in range(g):
        i0 = profile.prime_of(beta0)
        t = sum((Fraction(1, profile.p**i) for i in range(1, profile.f[i0])), Fraction(0))
        for rest in itertools.product("01", repeat=g - 1):
            coords = list(rest[:beta0]) + ["*"] + list(rest[beta0:])
            zeros, ones = face("".join(coords))
            issues = [
                {"flip": tag, "issue": "etale"}
                for tag in etale_flips(regions._EDGE_FLIPS, zeros, ones)
            ]
            if not 1 - t > t:
                covered = [IntervalQ(t, Fraction(1)), IntervalQ(Fraction(0), 1 - t)]
                issues.append(
                    {
                        "issue": "gap",
                        "covered": [c.to_json_list() for c in covered],
                        "gap": [str(1 - t), str(t)],
                    }
                )
            for issue in issues:
                edge_failures.append({"edge": coords, "beta0": beta0, **issue})
    passed = not vertex_failures and not edge_failures
    return CoverageReport(profile, passed, tuple(vertex_failures), tuple(edge_failures))


@pytest.mark.parametrize("profile", SMALL_PROFILES, ids=str)
def test_coverage_matches_the_stratum_naming_oracle(profile):
    assert coverage_check(profile) == coverage_oracle(profile)


@pytest.mark.parametrize("profile", SMALL_PROFILES, ids=str)
def test_flip_rules_pick_the_transported_charts(profile):
    """On every vertex and edge, the rules pick T0 (the all-Zero blocks),
    T0 + T2 (the blocks not all One) and T0 + p0 (T0 and the Open entry's
    block)."""
    g, full = profile.g, profile.full_mask
    blocks = [profile.block_mask(i) for i in range(profile.n_primes)]

    def inside(mask: int) -> int:
        return sum(b for b in blocks if mask & b == b)

    (t0_tag, t0), (t2_tag, t0_t2) = regions._VERTEX_FLIPS
    (e0_tag, e0), (p0_tag, t0_p0) = regions._EDGE_FLIPS
    assert (t0_tag, t2_tag, e0_tag, p0_tag) == ("T0", "T0+T2", "T0", "T0+p0")
    for coords in itertools.product("01", repeat=g):
        zeros, ones = face("".join(coords))
        assert rule_flip(profile, t0, zeros, ones) == inside(zeros)
        assert rule_flip(profile, t0_t2, zeros, ones) == full & ~inside(ones)
    for beta0 in range(g):
        b0 = blocks[profile.prime_of(beta0)]
        for rest in itertools.product("01", repeat=g - 1):
            zeros, ones = face("".join(rest[:beta0]) + "*" + "".join(rest[beta0:]))
            assert rule_flip(profile, e0, zeros, ones) == inside(zeros)
            assert rule_flip(profile, t0_p0, zeros, ones) == inside(zeros) | b0


def _flip_nothing(zeros, ones, block):
    return False


def _flip_everything(zeros, ones, block):
    return True


def _all_one(zeros, ones, block):
    return ones == block


# Wrong flip rules that leave blocks all Zero, so the check walks its faces
# and lists etale flips: every rule flipping nothing or everything, or T0 + T2
# and an edge's T0 taking the all-One blocks.
WRONG_RULES = {
    "nothing": ((_flip_nothing,) * 2, (_flip_nothing,) * 2),
    "everything": ((_flip_everything,) * 2, (_flip_everything,) * 2),
    "all-one": ((regions._all_zero, _all_one), (_all_one, regions._all_zero_or_open)),
}


@pytest.mark.parametrize("rules", WRONG_RULES, ids=str)
def test_coverage_lists_the_etale_flips_of_wrong_rules_like_the_oracle(rules, monkeypatch):
    """The listing path, which no profile reaches under the real rules: with
    a wrong rule swapped in for both the check and the oracle, they report
    the same failures face for face, and some profile fails on an etale
    flip at a vertex and at an edge."""
    (t0, t0_t2), (e0, t0_p0) = WRONG_RULES[rules]
    monkeypatch.setattr(regions, "_VERTEX_FLIPS", (("T0", t0), ("T0+T2", t0_t2)))
    monkeypatch.setattr(regions, "_EDGE_FLIPS", (("T0", e0), ("T0+p0", t0_p0)))
    reports = [coverage_check(profile) for profile in SMALL_PROFILES]
    assert reports == [coverage_oracle(profile) for profile in SMALL_PROFILES]
    assert any(r.vertex_failures for r in reports)
    assert any(e.get("issue") == "etale" for r in reports for e in r.edge_failures)


def test_coverage_oracle_sees_etale_flips():
    """The oracle's etale branch is live, although no coverage report of a
    small profile has an etale failure: flipping nothing at a vertex with an
    all-Zero block lands on an etale face."""
    profile = PrimeProfile(3, (2, 1))
    zeros, ones = face("001")
    assert not classify_face_walk(profile, *_swap_on(zeros, ones, 0)).nowhere_etale


def test_pair_json_record():
    profile = PrimeProfile(3, (2,))
    pair = pair_of_masks(profile, *face("*0"))
    rec = pair.to_json_dict()
    assert rec == {
        "phi": subset_to_indices(pair.phi),
        "eta": [0, 1],
        "codim": 1,
        "nowhere_etale": True,
        "badness": "bad",
        "beta0": 0,
        "j": None,
    }
