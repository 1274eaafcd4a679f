"""Region predicates: case analysis, thresholds, transported unions, coverage."""
from __future__ import annotations

import functools
import json
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from stratgrid import regions
from stratgrid.cli import run
from stratgrid.embeddings import PrimeProfile
from stratgrid.degrees import CuspInput, DegreeVector, _entry_masks, pair_of_degvec, w_T_deg
from stratgrid.hecke import saturation_check, verify_sigma_up
from stratgrid.strata import (
    ENUMERATION_MAX_G,
    EnumerationBound,
    _swap_on,
    _whole_blocks,
    pair_of_masks,
)
from stratgrid.regions import (
    Verdict,
    coverage_check,
    delta,
    delta_star,
    in_interval_region,
    in_sigma,
    in_sigma_S,
    in_vcan,
    istar_interval,
    sigma_case,
)

F = Fraction


def dv(profile, *vals, generic=True, cusp=False):
    return DegreeVector(profile, tuple(F(v) for v in vals), generic=generic, cusp=cusp)


def test_delta_values():
    assert delta(3, 1) == F(1, 3)
    assert delta(3, 2) == F(4, 9)
    assert delta(2, 1) == F(1, 2)
    assert delta(2, 2) == F(3, 4)
    with pytest.raises(ValueError):
        delta(3, 0)
    assert delta_star(3, 1) == 0
    assert delta_star(3, 3) == F(4, 9)


@pytest.mark.parametrize("p", range(2, 12))
def test_delta_closed_form_matches_the_geometric_sum(p):
    for j in range(1, 9):
        want = sum((F(1, p**i) for i in range(1, j + 1)), F(0))
        got = delta(p, j)
        assert got == want and got.denominator == p**j, (p, j)


def test_istar_interval():
    band = istar_interval(3, 2)
    assert not band.contains(F(1, 3)) and band.contains(F(1, 2)) and not band.contains(F(1))
    assert istar_interval(3, 1).contains(F(1, 2))
    assert not istar_interval(3, 1).contains(F(0))


def test_in_interval_region():
    profile = PrimeProfile(3, (2, 1))
    assert in_interval_region(dv(profile, "1/2", 0, "1/2"))
    assert not in_interval_region(dv(profile, "1/6", "1/6", "1/2"))  # block sum 1/3 not > 1/3
    assert not in_interval_region(dv(profile, "1/2", 0, 1))


def test_in_vcan():
    profile = PrimeProfile(3, (2,))
    assert in_vcan(dv(profile, "1/2", "1/2"))
    assert not in_vcan(dv(profile, 0, "1/2"))  # 3*0 + 1/2 <= 1 at position 1
    assert not in_vcan(dv(profile, "1/4", "1/4"))  # boundary 3/4 + 1/4 = 1 excluded
    assert in_vcan(dv(profile, "1/3", "1/2"))
    single = PrimeProfile(3, (1,))
    assert in_vcan(dv(single, "1/8"))
    assert not in_vcan(dv(single, 0))


def in_vcan_oracle(h):
    """`in_vcan` in `Fraction` arithmetic: blockwise p*pred + value > 1, or
    value > 0 on a block of size 1."""
    profile = h.profile
    p = profile.p
    for i in range(profile.n_primes):
        f, off = profile.f[i], profile.offsets[i]
        if f == 1:
            if not h[off] > 0:
                return False
        else:
            for pos in range(f):
                pred = off + (pos - 1) % f
                if not p * h[pred] + h[off + pos] > 1:
                    return False
    return True


VCAN_PROFILES = [
    PrimeProfile(2, (1,)),
    PrimeProfile(3, (2,)),
    PrimeProfile(2, (3, 1)),
    PrimeProfile(3, (1, 2, 1)),
    PrimeProfile(5, (2, 2)),
    PrimeProfile(7, (3, 1)),
]


@st.composite
def vcan_points(draw):
    """Cusp vectors, or vectors whose entries lie on a small grid, at the
    thresholds delta(p, j), or at 1 - p*x for x on the grid, where a
    predecessor x makes p*pred + value = 1 exactly."""
    profile = draw(st.sampled_from(VCAN_PROFILES))
    if draw(st.integers(0, 4)) == 0:
        vals = []
        for f in profile.f:
            vals += [F(draw(st.integers(0, 1)))] * f
        return DegreeVector(profile, tuple(vals), cusp=True)
    p = profile.p
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 9, 10, 25, 49]))
    grid = [F(a, den) for a in range(den + 1)]
    specials = [delta(p, j) for j in range(1, 4)] + [1 - p * x for x in grid if p * x <= 1]
    entry = st.sampled_from(grid) | st.sampled_from(specials)
    return DegreeVector(profile, tuple(draw(entry) for _ in range(profile.g)))


@settings(max_examples=400)
@given(vcan_points())
def test_in_vcan_matches_the_fraction_oracle(h):
    assert in_vcan(h) is in_vcan_oracle(h)


def test_sigma_codim0_needs_generic():
    profile = PrimeProfile(3, (2,))
    assert in_sigma(dv(profile, 1, 0)) is Verdict.IN
    assert in_sigma(dv(profile, 1, 0, generic=False)) is Verdict.OUT
    # all-Zero block is etale: Out regardless
    assert in_sigma(dv(profile, 0, 0)) is Verdict.OUT
    assert sigma_case(dv(profile, 0, 0))[0].kind == "etale"


def test_sigma_codim2_out():
    profile = PrimeProfile(3, (2,))
    assert in_sigma(dv(profile, "1/2", "1/2")) is Verdict.OUT
    assert sigma_case(dv(profile, "1/2", "1/2"))[0].kind == "codim_ge2"


def test_sigma_good_case():
    profile = PrimeProfile(3, (2,))
    h = dv(profile, "1/2", 1)  # successor of the free coordinate is One
    case, verdict = sigma_case(h)
    assert case.kind == "good" and verdict is Verdict.IN
    assert in_sigma(dv(profile, "1/2", 1, generic=False)) is Verdict.OUT


def test_sigma_2b_interval():
    profile = PrimeProfile(3, (2,))
    # bad stratum with eta full: membership is the open interval (1/3, 1)
    assert in_sigma(dv(profile, "1/2", 0)) is Verdict.IN
    assert in_sigma(dv(profile, "1/3", 0)) is Verdict.OUT
    assert in_sigma(dv(profile, "1/4", 0)) is Verdict.OUT
    # no generic flag needed in this case
    assert in_sigma(dv(profile, "1/2", 0, generic=False)) is Verdict.IN
    case = sigma_case(dv(profile, "1/2", 0))[0]
    assert case.kind == "bad_full_eta" and case.threshold == F(1, 3)


def test_sigma_2c_threshold():
    profile = PrimeProfile(3, (3,))
    base = ("1/2", 0, 1)  # free at 0, Zero run of length 1, then One: j = 1
    case, verdict = sigma_case(dv(profile, *base))
    assert case.kind == "bad_partial_eta" and case.j == 1 and case.threshold == F(1, 3)
    assert verdict is Verdict.IN
    assert in_sigma(dv(profile, "1/4", 0, 1)) is Verdict.IN
    assert in_sigma(dv(profile, "1/3", 0, 1)) is Verdict.INDETERMINATE
    assert in_sigma(dv(profile, "1/3", 0, 1, generic=False)) is Verdict.OUT


def test_sigma_cusp_vertices():
    profile = PrimeProfile(3, (2, 1))
    allone = DegreeVector(profile, (F(1), F(1), F(1)), generic=True, cusp=True)
    assert in_sigma(allone) is Verdict.IN
    etale = DegreeVector(profile, (F(0), F(0), F(1)), generic=True, cusp=True)
    assert in_sigma(etale) is Verdict.OUT


def test_sigma_S_union():
    profile = PrimeProfile(3, (2,))
    h = dv(profile, "1/2", "1/2")
    assert in_sigma(h) is Verdict.OUT
    # flipping the block sends (1/2, 1/2) to itself: still Out
    assert in_sigma_S(h, {0}) is Verdict.OUT
    low = dv(profile, "1/4", 0)
    assert in_sigma(low) is Verdict.OUT
    # the flip lands on (3/4, 1): a good codim-1 point, so the union is In
    assert in_sigma_S(low, {0}) is Verdict.IN
    assert in_sigma_S(low, set()) is Verdict.OUT


def test_sigma_S_indeterminate_propagates():
    profile = PrimeProfile(3, (3,))
    h = dv(profile, "1/3", 0, 1)
    assert in_sigma(h) is Verdict.INDETERMINATE
    assert in_sigma_S(h, set()) is Verdict.INDETERMINATE


@given(st.data())
def test_sigma_S_monotone_in_S(data):
    profile = PrimeProfile(3, (2, 1))
    den = 6
    vals = tuple(F(data.draw(st.integers(0, den)), den) for _ in range(3))
    h = DegreeVector(profile, vals, generic=True)
    small = data.draw(st.sets(st.integers(0, 1)))
    big = small | data.draw(st.sets(st.integers(0, 1)))
    rank = {Verdict.OUT: 0, Verdict.INDETERMINATE: 1, Verdict.IN: 2}
    assert rank[in_sigma_S(h, big)] >= rank[in_sigma_S(h, small)]


CHART_PROFILES = [
    PrimeProfile(3, (2, 1)),
    PrimeProfile(3, (3, 1)),
    PrimeProfile(5, (1, 1, 1)),
    PrimeProfile(5, (2, 2)),
    PrimeProfile(2, (2, 1)),
    PrimeProfile(7, (3,)),
]


@st.composite
def chart_points(draw):
    """Degree or cusp vectors on multi-prime profiles, with entries on a small
    grid or exactly at the thresholds delta(p, j) and 1 - delta(p, 1)."""
    profile = draw(st.sampled_from(CHART_PROFILES))
    generic = draw(st.booleans())
    if draw(st.integers(0, 4)) == 0:
        vals = []
        for f in profile.f:
            vals += [F(draw(st.integers(0, 1)))] * f
        return DegreeVector(profile, tuple(vals), generic=generic, cusp=True)
    p = profile.p
    specials = [delta(p, j) for j in range(1, max(profile.f) + 1)] + [1 - delta(p, 1)]
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 9, 25]))
    grid = st.integers(0, den).map(lambda a: F(a, den))
    entry = st.one_of(grid, st.sampled_from(specials))
    vals = tuple(draw(entry) for _ in range(profile.g))
    return DegreeVector(profile, vals, generic=generic)


def union_oracle(chart, S):
    """The union of chart(T) over every T inside S, In over Indeterminate over
    Out, where chart(T) is `in_sigma` of the flipped vector `w_T_deg(h, T)`."""
    verdicts = {chart(frozenset(T)) for r in range(len(S) + 1) for T in combinations(S, r)}
    return next(v for v in (Verdict.IN, Verdict.INDETERMINATE, Verdict.OUT) if v in verdicts)


@settings(max_examples=300)
@given(chart_points(), st.data())
def test_sigma_S_matches_flipped_vectors(h, data):
    """Deciding each chart on swapped masks agrees with the union of `in_sigma`
    over the flipped vectors `w_T_deg(h, T)`."""
    n = h.profile.n_primes
    S = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    assert in_sigma_S(h, S) is union_oracle(lambda T: in_sigma(w_T_deg(h, T)), S)


# Three to five primes and four to six embeddings: the two-chart decision
# stands for up to 32 charts here, where CHART_PROFILES stop at three primes
# and eight charts.  Six primes would take seconds through the oracle's
# `w_T_deg`, so they are left to the call count below.
MANY_PRIME_PROFILES = [
    PrimeProfile(2, (2, 1, 1)),
    PrimeProfile(5, (1, 1, 1, 1)),
    PrimeProfile(3, (2, 1, 1, 1)),
    PrimeProfile(3, (1, 1, 1, 1, 1)),
]


def vertex_and_edge_points(profile):
    """Every vertex of the cube, then every edge point whose free entry is
    1/2, delta(p, j) or 1 - delta(p, 1)."""
    p, g = profile.p, profile.g
    deltas = {delta(p, j) for j in range(1, max(profile.f) + 1)}
    frees = sorted({F(1, 2), 1 - delta(p, 1)} | deltas)
    for bits in product((0, 1), repeat=g):
        yield tuple(map(F, bits))
    for k in range(g):
        for corner in product((0, 1), repeat=g - 1):
            for v in frees:
                yield tuple(map(F, corner[:k])) + (v,) + tuple(map(F, corner[k:]))


@pytest.mark.parametrize("profile", MANY_PRIME_PROFILES, ids=str)
def test_sigma_S_matches_flipped_vectors_on_many_primes(profile):
    """Every vertex and edge point, both flags, S empty, every prime and each
    single prime: `in_sigma_S` is the union over all 2^|S| flipped vectors."""
    n = profile.n_primes
    choices = [(), tuple(range(n))] + [(i,) for i in range(n)]
    for entries in vertex_and_edge_points(profile):
        for generic in (True, False):
            h = DegreeVector(profile, entries, generic=generic)
            chart = functools.cache(lambda T, h=h: in_sigma(w_T_deg(h, T)))
            for S in choices:
                assert in_sigma_S(h, S) is union_oracle(chart, S), (h, S)


def test_sigma_S_decides_at_most_two_charts(monkeypatch):
    """Six primes and S every prime: at most two `stratum_case` calls per
    query, and two on some codimension-1 point."""
    calls = []
    real = regions.stratum_case

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(regions, "stratum_case", counted)
    profile = PrimeProfile(3, (1,) * 6)
    most = 0
    for entries in vertex_and_edge_points(profile):
        for generic in (True, False):
            calls.clear()
            in_sigma_S(DegreeVector(profile, entries, generic=generic), range(6))
            assert 1 <= len(calls) <= 2, entries
            most = max(most, len(calls))
    assert most == 2


def test_w_equivariance_of_sigma_on_vertices():
    # on 0/1 vectors, membership in the T-transported region matches membership
    # of the flipped vector in the base region
    profile = PrimeProfile(5, (2, 1))
    for bits in range(8):
        vals = tuple(F((bits >> k) & 1) for k in range(3))
        h = DegreeVector(profile, vals, generic=True)
        for T in [set(), {0}, {1}, {0, 1}]:
            assert in_sigma(w_T_deg(h, T)) is in_sigma(w_T_deg(w_T_deg(h, T), set()))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("f", [(1,), (2,), (3,), (2, 1), (1, 1, 1), (3, 2, 1)])
def test_coverage_passes_for_odd_p(p, f):
    report = coverage_check(PrimeProfile(p, f))
    assert report.passed, report


def test_coverage_fails_for_p2_with_big_block():
    report = coverage_check(PrimeProfile(2, (2,)))
    assert not report.passed
    assert report.vertex_failures == ()
    gaps = [rec for rec in report.edge_failures if rec["issue"] == "gap"]
    assert gaps and gaps[0]["gap"] == ["1/2", "1/2"]


def test_coverage_p2_all_f1_passes():
    assert coverage_check(PrimeProfile(2, (1, 1))).passed


@pytest.mark.parametrize("f", [(13,), (12, 1), (30,), (1,) * 30])
def test_coverage_refuses_profiles_above_the_enumeration_bound(f):
    assert sum(f) > ENUMERATION_MAX_G
    with pytest.raises(EnumerationBound, match=f"g={sum(f)} exceeds enumeration bound"):
        coverage_check(PrimeProfile(3, f))


def test_coverage_report_json():
    rep = coverage_check(PrimeProfile(3, (2,)))
    data = rep.to_json_dict()
    assert data["schema"] == "1" and data["pass"] is True


# ---------------------------------------------------------------------------
# the integer queries against their `Fraction` forms


def sigma_case_fraction(h):
    """`sigma_case` as it read a vector's `Fraction` entries."""
    stratum = regions.stratum_case(h.profile, *_entry_masks(h.entries, 1))
    free = F(0) if stratum.beta0 is None else h[stratum.beta0]
    return stratum, stratum.decide(h.generic, free.numerator, free.denominator)


def in_sigma_S_fraction(h, S):
    """`in_sigma_S`'s two charts as they read a vector's `Fraction` entries."""
    profile = h.profile
    flippable = 0
    for i in set(S):
        flippable |= profile.block_mask(i)
    zeros, ones = _entry_masks(h.entries, 1)
    t0 = _whole_blocks(profile, zeros) & flippable
    flips = [t0]
    opens = profile.full_mask & ~(zeros | ones)
    if opens.bit_count() == 1:
        b0 = profile._block_of[opens.bit_length() - 1]
        if b0 & flippable:
            flips.append(t0 | b0)
    verdicts = []
    for flip in flips:
        stratum = regions.stratum_case(profile, *_swap_on(zeros, ones, flip))
        b = stratum.beta0
        num, den = 0, 1
        if b is not None:
            num, den = h[b].numerator, h[b].denominator
            if flip >> b & 1:
                num = den - num
        verdicts.append(stratum.decide(h.generic, num, den))
    return next(v for v in (Verdict.IN, Verdict.INDETERMINATE, Verdict.OUT) if v in verdicts)


def in_vcan_fraction(h):
    """`in_vcan` as it read a vector's `Fraction` entries: with pred = a / d_a
    and value = b / d_b, p*a*d_b + b*d_a > d_a*d_b."""
    profile = h.profile
    p = profile.p
    for f, off in zip(profile.f, profile.offsets):
        if f == 1:
            if h[off].numerator <= 0:
                return False
            continue
        block = h.entries[off : off + f]
        a, da = block[-1].numerator, block[-1].denominator
        for cur in block:
            b, db = cur.numerator, cur.denominator
            if p * a * db + b * da <= da * db:
                return False
            a, da = b, db
    return True


def pair_of_degvec_fraction(h):
    if h.cusp:
        raise CuspInput("cusp vectors do not define a stratum pair")
    return pair_of_masks(h.profile, *_entry_masks(h.entries, 1))


@st.composite
def mixed_points(draw):
    """Vectors on profiles with g <= 6 whose entries mix denominators: a
    vertex with up to three entries replaced by a / den, delta(p, j),
    1 - delta(p, 1), 1/2 or 2/3; or a cusp vector."""
    f = []
    while not f or (sum(f) < 6 and draw(st.booleans())):
        f.append(draw(st.integers(1, 6 - sum(f))))
    profile = PrimeProfile(draw(st.sampled_from([2, 3, 5, 7])), tuple(f))
    p, g = profile.p, profile.g
    generic = draw(st.booleans())
    if draw(st.integers(0, 5)) == 0:
        vals = []
        for size in profile.f:
            vals += [F(draw(st.integers(0, 1)))] * size
        return DegreeVector(profile, tuple(vals), generic=generic, cusp=True)
    den = draw(st.sampled_from([2, 3, 4, 5, 6, 9, 12, 25, 27, 100]))
    specials = [delta(p, j) for j in range(1, max(f) + 1)] + [1 - delta(p, 1), F(1, 2), F(2, 3)]
    entry = st.integers(1, den - 1).map(lambda a: F(a, den)) | st.sampled_from(specials)
    vals = [F(draw(st.integers(0, 1))) for _ in range(g)]
    for k in draw(st.lists(st.integers(0, g - 1), max_size=3, unique=True)):
        vals[k] = draw(entry)
    return DegreeVector(profile, tuple(vals), generic=generic)


@settings(max_examples=400)
@given(mixed_points())
# one Open entry, in a block S flips: the second chart reads 1 - h there
@example(DegreeVector(PrimeProfile(3, (2, 2)), (F(0), F(1), F(1, 3), F(1))))
@example(DegreeVector(PrimeProfile(5, (2, 1)), (F(4, 5), F(1), F(1))))
def test_integer_queries_match_their_fraction_forms(h):
    """`sigma_case`, `in_sigma_S` on every S, `in_vcan` and
    `pair_of_degvec` read `scaled` and `den`; each gives what its
    `Fraction` form gives."""
    assert sigma_case(h) == sigma_case_fraction(h)
    primes = range(h.profile.n_primes)
    for r in range(len(primes) + 1):
        for S in combinations(primes, r):
            assert in_sigma_S(h, S) is in_sigma_S_fraction(h, S), S
    assert in_vcan(h) is in_vcan_fraction(h)
    if h.cusp:
        with pytest.raises(CuspInput):
            pair_of_degvec(h)
    else:
        assert pair_of_degvec(h) == pair_of_degvec_fraction(h)


def test_no_reader_outside_the_oracles_reads_entries(monkeypatch, capsys):
    """With `DegreeVector.entries` made to raise, a saturation sweep with
    In points, a sigma-up sweep that writes records, `regions check` on each
    region and the region queries all run: none of them reads the
    `Fraction` view."""
    def refuse(self):
        raise AssertionError("read DegreeVector.entries")

    monkeypatch.setattr(DegreeVector, "entries", property(refuse))
    profile = PrimeProfile(3, (2,))
    rep = saturation_check(profile, 27)
    assert rep["points_in"] > 0 and rep["membership_pure"] is True
    rep = verify_sigma_up(profile, 12, drop_genericity=True)
    assert rep["counterexamples"]
    point = json.dumps({"deg": {"0/0": "1/2", "0/1": "1/3"}, "generic": True})
    for region in (["sigma"], ["vcan"], ["sigmaS", "--S", "0"]):
        argv = ["regions", "check", "--profile", "p=3;f=2", "--point", point, "--region"]
        assert run([*argv, *region]) == 0
    capsys.readouterr()
    h = DegreeVector(PrimeProfile(5, (2, 1)), (F(1, 2), F(2, 3), 1), generic=True)
    assert in_sigma(h) is Verdict.OUT and in_vcan(h)
    assert in_sigma_S(h, (0, 1)) is Verdict.OUT
    with pytest.raises(AssertionError, match="read DegreeVector.entries"):
        h.entries
