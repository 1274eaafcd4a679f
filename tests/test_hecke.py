"""Tests for the correspondence-side checks.

The feasible-set enumerator is validated against a brute-force oracle that
filters the full d-grid through direct evaluations of each constraint family,
sharing no code with the range-propagating implementation.
"""
import json
import multiprocessing
from collections import Counter
from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from stratgrid.degrees import (
    CuspInput,
    DegreeVector,
    _entry_masks,
    genericity_constraints,
    hodge_height,
    raynaud_feasible,
)
from stratgrid.cli import run
from stratgrid.embeddings import parse_profile
from stratgrid.hecke import (
    BkResult,
    BlockPlan,
    GridTooLarge,
    bk_newton_degree,
    feasible_d_grid,
    saturation_check,
    verify_sigma_up,
)
from stratgrid import hecke
from stratgrid.hecke import (
    _block_count,
    _block_plan,
    _block_runs,
    _blocks,
    _canonical,
    _cell_point,
    _cell_points,
    _cells,
    _cx_record,
    _feasible_tuples,
    _fold,
    _held_cells,
    _hodge_edge_ranges,
    _last_ranges,
    _off_grid_pins,
    _on_grid,
    _orbits,
    _plan_bounds,
    _point_in,
    _pred_ranges,
    _pin_for,
    _quotient_vcan_failures,
    _run_failures,
    _self_edge_ranges,
    _share,
    _total,
    _windows,
    _within,
)
from stratgrid.regions import (
    Verdict,
    delta,
    delta_star,
    in_interval_region,
    sigma_case,
    stratum_case,
)


# ---------------------------------------------------------------------------
# brute-force oracle


def ordinary_block_ok(h: DegreeVector, d: DegreeVector) -> bool:
    profile = h.profile
    p = profile.p
    for i in range(profile.n_primes):
        f, off = profile.f[i], profile.offsets[i]
        block = [h[off + k] for k in range(f)]
        if not all(v in (0, 1) for v in block):
            continue
        for pos in range(f):
            dv = d[off + pos]
            if block[pos] == 1 and block[(pos + 1) % f] == 0:
                if not F(1, p) <= dv <= delta_star(p, f):
                    return False
            elif dv != 0:
                return False
    return True


def pinned_coordinate_ok(h: DegreeVector, d: DegreeVector) -> bool:
    case, verdict = sigma_case(h)
    if case.kind != "bad_partial_eta" or verdict is Verdict.OUT:
        return True
    res = bk_newton_degree(
        h.profile.p, h.profile.f[h.profile.prime_of(case.beta0)], case.j, h[case.beta0]
    )
    if res.kind == "exact":
        return d[case.beta0] == res.value
    return d[case.beta0] >= res.value


def brute_feasible(h: DegreeVector, den: int, drop_genericity: bool = False):
    profile = h.profile
    use_generic = h.generic and not drop_genericity
    out = []
    for combo in product(range(den + 1), repeat=profile.g):
        d = DegreeVector(profile, tuple(F(a, den) for a in combo))
        if not all(raynaud_feasible(h, d, i) for i in range(profile.n_primes)):
            continue
        if not all(
            hodge_height(h, b).intersects(hodge_height(d, b))
            for b in range(profile.g)
        ):
            continue
        if use_generic:
            if not all(
                genericity_constraints(h, d, i) for i in range(profile.n_primes)
            ):
                continue
            if not ordinary_block_ok(h, d):
                continue
            if not pinned_coordinate_ok(h, d):
                continue
        out.append(tuple(d.entries))
    return sorted(out)


PROFILES = [parse_profile(s) for s in ("p=3;f=2", "p=3;f=1,1", "p=2;f=2", "p=5;f=2", "p=3;f=3", "p=3;f=2,1")]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_feasible_matches_brute_oracle(data):
    profile = data.draw(st.sampled_from(PROFILES))
    den = data.draw(st.sampled_from([3, 4, 6]))
    scaled = data.draw(
        st.tuples(*[st.integers(0, den) for _ in range(profile.g)])
    )
    generic = data.draw(st.booleans())
    drop = data.draw(st.booleans())
    h = DegreeVector(profile, tuple(F(a, den) for a in scaled), generic=generic)
    got = sorted(tuple(d.entries) for d in feasible_d_grid(h, den, drop))
    assert got == brute_feasible(h, den, drop)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_adding_families_never_enlarges_feasible_set(data):
    profile = data.draw(st.sampled_from(PROFILES[:4]))
    den = data.draw(st.sampled_from([4, 6]))
    scaled = data.draw(st.tuples(*[st.integers(0, den) for _ in range(profile.g)]))
    h = DegreeVector(profile, tuple(F(a, den) for a in scaled), generic=True)
    full = {tuple(d.entries) for d in feasible_d_grid(h, den)}
    relaxed = {tuple(d.entries) for d in feasible_d_grid(h, den, drop_genericity=True)}
    assert full <= relaxed


def _vertex_and_edge_points(profile, den):
    for scaled in product(range(den + 1), repeat=profile.g):
        if sum(1 for a in scaled if 0 < a < den) <= 1:
            yield DegreeVector(profile, tuple(F(a, den) for a in scaled), generic=True)


@pytest.mark.parametrize(
    "prof,den",
    [
        ("p=5;f=3", 5),
        ("p=3;f=1", 6),
        ("p=2;f=1", 7),
        ("p=5;f=1", 4),
        ("p=3;f=2,1", 4),
        ("p=2;f=4", 3),
    ],
)
def test_feasible_matches_brute_oracle_exhaustive(prof, den):
    """Every vertex and edge point against the oracle.  At p=5;f=3 den 5 the
    threshold 1/5 is on the grid and 6/25 is not; the size-1 blocks check the
    self edge, whose height window couples an entry to itself.  At p=2;f=4
    den 3 a free value below delta_2 = 3/4 pins d to it, and delta_1 = 1/2
    and delta_2 are off the grid."""
    for h in _vertex_and_edge_points(parse_profile(prof), den):
        for drop in (False, True):
            got = sorted(tuple(d.entries) for d in feasible_d_grid(h, den, drop))
            assert got == brute_feasible(h, den, drop), (h.entries, drop)


@pytest.mark.parametrize(
    "prof,den", [("p=5;f=3", 10), ("p=3;f=2,1", 12), ("p=3;f=3", 9), ("p=2;f=1,3,1", 4)]
)
def test_feasible_comes_out_ascending(prof, den):
    """The sweep keeps the first failures it meets, so the descent itself must
    yield d in strictly ascending lexicographic order: no sort restores it."""
    for h in _vertex_and_edge_points(parse_profile(prof), den):
        for drop in (False, True):
            got = [tuple(d.entries) for d in feasible_d_grid(h, den, drop)]
            assert all(a < b for a, b in zip(got, got[1:])), (h.entries, drop)


def test_block_plan_matches_fraction_definitions():
    """Each integer window and anchored sum is the Fraction family times den."""
    for prof, den in [("p=3;f=2", 6), ("p=5;f=3", 10), ("p=3;f=2,1", 6)]:
        profile = parse_profile(prof)
        p = profile.p
        for h in _vertex_and_edge_points(profile, den):
            for i in range(profile.n_primes):
                f, off = profile.f[i], profile.offsets[i]
                s = _on_grid(h, den)[off : off + f]
                lo, hi, wlo, whi, plan_rhs = _plan_bounds(p, den, s, True, None)
                assert s == tuple(h[off + pos] * den for pos in range(f))
                for pos in range(f):
                    w = hodge_height(h, off + pos)
                    assert (wlo[pos], whi[pos]) == (w.lower * den, w.upper * den)
                    rhs = sum(
                        p ** (f - 1 - k) * (1 - h[off + (pos + k) % f]) for k in range(f)
                    )
                    assert plan_rhs[pos] == rhs * den
                    if h[off + pos] == 1:
                        # the plan omits the tail bound: the self-anchored bound implies it
                        assert F(hi[pos], den) <= delta_star(p, f)


def test_block_plan_rejects_off_grid_h():
    h = DegreeVector(parse_profile("p=3;f=2"), (F(1, 4), F(0)), generic=True)
    with pytest.raises(ValueError):
        _on_grid(h, 6)
    with pytest.raises(ValueError):
        feasible_d_grid(h, 6)


def test_feasible_frozen_examples():
    P2 = parse_profile("p=3;f=2")
    h = DegreeVector(P2, (F(1), F(0)), generic=True)
    assert [tuple(d.entries) for d in feasible_d_grid(h, 12)] == [(F(1, 3), F(0))]

    P3 = parse_profile("p=3;f=3")
    h = DegreeVector(P3, (F(2, 3), F(0), F(1)), generic=True)
    assert [tuple(d.entries) for d in feasible_d_grid(h, 27)] == [
        (F(1, 3), F(0), F(1, 9))
    ]
    h = DegreeVector(P3, (F(2, 9), F(0), F(1)), generic=True)
    assert [tuple(d.entries) for d in feasible_d_grid(h, 27)] == [
        (F(2, 9), F(0), F(7, 27)),
        (F(2, 9), F(0), F(8, 27)),
    ]
    # at the threshold only the lower bound is pinned
    h = DegreeVector(P3, (F(1, 3), F(0), F(1)), generic=True)
    firsts = [d[0] for d in feasible_d_grid(h, 27)]
    assert min(firsts) == F(1, 3) and all(v >= F(1, 3) for v in firsts)


@pytest.mark.parametrize(
    "prof,den", [("p=3;f=3", 12), ("p=2;f=4", 6), ("p=3;f=4", 10), ("p=2;f=4", 7)]
)
def test_pin_matches_bk_newton_degree(prof, den):
    """The integer pin is `bk_newton_degree` times den: exact values, empty
    when off the grid, and a lower bound at the threshold."""
    profile = parse_profile(prof)
    for h in _vertex_and_edge_points(profile, den):
        case, verdict = sigma_case(h)
        scaled = _on_grid(h, den)
        pin = _pin_for(case, scaled, den)
        if case.kind != "bad_partial_eta" or verdict is Verdict.OUT:
            assert pin is None
            continue
        b = case.beta0
        res = bk_newton_degree(profile.p, profile.f[profile.prime_of(b)], case.j, h[b])
        if res.kind == "lower_bound":
            want = {v for v in range(den + 1) if F(v, den) >= res.value}
        else:
            want = {v for v in range(den + 1) if F(v, den) == res.value}
        assert pin[0] == b and set(range(pin[1], pin[2] + 1)) == want, (h.entries, pin)


@pytest.mark.parametrize("prof,den", [("p=3;f=3", 12), ("p=2;f=4", 6)])
def test_feasible_reads_the_stratum_not_sigma_case(prof, den, monkeypatch):
    """`feasible_d_grid` names the stratum from h's face masks, as the sweeps
    do, and its pin reads the stratum alone: with `hecke.sigma_case` made
    to raise, it gives the sets it gave before, at every vertex and edge
    point, genericity on and dropped.  Both profiles have pinned points."""
    profile = parse_profile(prof)
    points = list(_vertex_and_edge_points(profile, den))
    assert any(sigma_case(h)[0].kind == "bad_partial_eta" for h in points)
    want = [[feasible_d_grid(h, den, drop) for drop in (False, True)] for h in points]

    def refuse(h):
        raise AssertionError("feasible_d_grid called sigma_case")

    monkeypatch.setattr(hecke, "sigma_case", refuse)
    for h, sets in zip(points, want):
        assert [feasible_d_grid(h, den, drop) for drop in (False, True)] == sets, h.entries


def test_feasible_errors():
    P2 = parse_profile("p=3;f=2")
    cusp = DegreeVector(P2, (F(1), F(1)), cusp=True)
    with pytest.raises(CuspInput):
        feasible_d_grid(cusp, 6)
    h = DegreeVector(P2, (F(1), F(0)), generic=True)
    with pytest.raises(GridTooLarge):
        feasible_d_grid(h, 50_000)
    for den in (0, -4):
        with pytest.raises(ValueError):
            feasible_d_grid(h, den)


# ---------------------------------------------------------------------------
# edge-range internals against the direct predicate


# Per-value predicates of the families that couple a block's entries: the
# direct definitions the range helpers are tested against.  The vanishing
# rule is implied by the others (see `hecke._block_plan`).


def _hodge_edge_ok(plan, pos, a_prev, a_cur) -> bool:
    # consistency of the d-side height interval at `pos` with the h-side one
    x = plan.p * a_prev
    y = plan.den - a_cur
    m = x if x < y else y
    if x != y:
        return plan.wlo[pos] <= m <= plan.whi[pos]
    return m <= plan.whi[pos]


def _gen3_edge_ok(plan, block, generic, pos, a_prev, a_cur) -> bool:
    # predecessor entry must vanish under a Zero predecessor with d below 1
    if not generic:
        return True
    pred = (pos - 1) % plan.f
    if block[pred] == 0 and a_cur < plan.den and a_prev != 0:
        return False
    return True


def _raynaud_ok(plan, assign) -> bool:
    p, f = plan.p, plan.f
    for start in range(f):
        lhs = sum(p ** (f - 1 - k) * assign[(start + k) % f] for k in range(f))
        if lhs > plan.rhs[start]:
            return False
    return True


def _plans():
    """Unpruned plans of the first block, genericity on and off, as (plan,
    den, block, generic): the plan holds `_plan_bounds`, and the block and
    the flag it was built from ride beside it.  (p + 1) divides 8, so the
    self edge of p=3;f=1 has a value where x = y; at p=5;f=1 den 7 it has
    none.  At p=2;f=3 den 4 the anchored inequalities cap the last entry
    below its edges and bounds."""
    for prof, den in [
        ("p=3;f=2", 6),
        ("p=2;f=2", 5),
        ("p=5;f=3", 4),
        ("p=2;f=3", 4),
        ("p=3;f=1", 8),
        ("p=5;f=1", 7),
    ]:
        profile = parse_profile(prof)
        f = profile.f[0]
        for h in _vertex_and_edge_points(profile, den):
            for generic in (True, False):
                s = _on_grid(h, den)[:f]
                bounds = _plan_bounds(profile.p, den, s, generic, None)
                plan = BlockPlan(profile.p, f, den, *map(tuple, bounds))
                yield plan, den, s, generic


def _pruned(plan, block, generic):
    """The plan `_block_plan` builds, pruned, from the same block."""
    return _block_plan(plan.p, plan.den, block, generic, None)


def _in_ranges(a, ranges) -> bool:
    return any(lo <= a <= hi for lo, hi in ranges)


def _ascending(ranges) -> bool:
    return all(lo <= hi for lo, hi in ranges) and all(
        r1[1] < r2[0] for r1, r2 in zip(ranges, ranges[1:])
    )


def test_hodge_edge_ranges_match_predicate():
    for plan, den, block, _ in _plans():
        for pos in range(1, plan.f):
            for a_prev in range(den + 1):
                allowed = _hodge_edge_ranges(plan, pos, a_prev)
                for a in range(den + 1):
                    want = _hodge_edge_ok(plan, pos, a_prev, a)
                    got = any(lo <= a <= hi for lo, hi in allowed)
                    assert got == want, (block, pos, a_prev, a)


def test_pred_ranges_match_predicate():
    """Every entry before pos and every interval of the entry at pos."""
    for plan, den, _, _ in _plans():
        for pos in range(plan.f):
            for clo in range(den + 1):
                for chi in range(clo, den + 1):
                    allowed = _pred_ranges(plan, pos, clo, chi)
                    for a in range(den + 1):
                        want = any(
                            _hodge_edge_ok(plan, pos, a, b) for b in range(clo, chi + 1)
                        )
                        assert _in_ranges(a, allowed) == want, (plan, pos, clo, chi, a)


def test_vanishing_rule_is_implied():
    """The descent does not restate the vanishing rule: within a generic
    plan's bounds, every pair passing the height edge at pos passes it."""
    for plan, den, block, generic in _plans():
        if not generic:
            continue
        for pos in range(plan.f):
            prev = (pos - 1) % plan.f
            for a in range(plan.lo[prev], plan.hi[prev] + 1):
                for b in range(plan.lo[pos], plan.hi[pos] + 1):
                    if plan.f == 1 and a != b:
                        continue  # a size-1 block couples its entry with itself
                    if _hodge_edge_ok(plan, pos, a, b):
                        assert _gen3_edge_ok(plan, block, generic, pos, a, b), (plan, pos, a, b)


def test_self_edge_ranges_match_predicate():
    for plan, den, _, _ in _plans():
        if plan.f == 1:
            allowed = _self_edge_ranges(plan)
            assert _ascending(allowed), (plan, allowed)
            for a in range(den + 1):
                assert _in_ranges(a, allowed) == _hodge_edge_ok(plan, 0, a, a), (plan, a)


def test_last_ranges_match_predicates():
    """The last entry's ranges hold exactly the values that complete a prefix
    within the bounds: its bounds, the height edge and vanishing rule into it
    and around the wrap (the self edge when f = 1), and every anchored
    inequality."""
    for unpruned, den, block, generic in _plans():
        for plan in (unpruned, _pruned(unpruned, block, generic)):
            f = plan.f
            bounds = [range(plan.lo[q], plan.hi[q] + 1) for q in range(f - 1)]
            for prefix in product(*bounds):
                allowed = _last_ranges(plan, prefix)
                assert _ascending(allowed), (plan, prefix, allowed)
                for a in range(den + 1):
                    d = (*prefix, a)
                    want = (
                        plan.lo[-1] <= a <= plan.hi[-1]
                        and _hodge_edge_ok(plan, f - 1, d[(f - 2) % f], a)
                        and _gen3_edge_ok(plan, block, generic, f - 1, d[(f - 2) % f], a)
                        and _hodge_edge_ok(plan, 0, a, d[0])
                        and _gen3_edge_ok(plan, block, generic, 0, a, d[0])
                        and _raynaud_ok(plan, d)
                    )
                    assert _in_ranges(a, allowed) == want, (plan, d)


def test_run_failures_match_quotient_test():
    """A run's failure count is the quotient test summed over its tuples."""
    for plan, den, _, _ in _plans():
        profile = parse_profile(f"p={plan.p};f={plan.f}")
        for prefix, lo, hi in _block_runs(plan):
            want = sum(
                len(_quotient_vcan_failures(profile, (*prefix, a), den))
                for a in range(lo, hi + 1)
            )
            assert _run_failures(plan, prefix, lo, hi) == want, (plan, prefix, lo, hi)


def test_prune_keeps_every_live_entry():
    """Every entry of every candidate the unpruned descent keeps lies inside
    the pruned bounds, and the descent over them finds the same runs."""
    for plan, den, block, generic in _plans():
        runs = _block_runs(plan)
        pruned = _pruned(plan, block, generic)
        assert _block_runs(pruned) == runs, plan
        for prefix, lo, hi in runs:
            for d in ((*prefix, lo), (*prefix, hi)):
                assert all(pruned.lo[q] <= d[q] <= pruned.hi[q] for q in range(plan.f))


@pytest.mark.parametrize(
    "prof,den",
    [("p=3;f=2", 27), ("p=5;f=3", 25), ("p=3;f=3", 27), ("p=3;f=2,1", 27), ("p=2;f=3", 8)],
)
def test_prune_cuts_first_entry_to_live_interval(prof, den):
    """On the plans a sweep builds with genericity on, the first entries that
    start a candidate of a block of size >= 2 form one interval, and the
    pruned bounds are exactly that interval (or some range is empty)."""
    profile = parse_profile(prof)
    for point in _sweep_points(profile, den):
        scaled, stratum = point
        free = 0 if stratum.beta0 is None else scaled[stratum.beta0]
        verdict = stratum.decide(True, free, den)
        if verdict is not Verdict.IN:
            continue
        for plan, runs in _blocks(profile, scaled, den, True, stratum, {}):
            if plan.f == 1:
                continue
            firsts = {prefix[0] for prefix, _, _ in runs}
            if firsts:
                assert firsts == set(range(plan.lo[0], plan.hi[0] + 1)), (scaled, plan)
            else:
                assert any(lo > hi for lo, hi in zip(plan.lo, plan.hi)), (scaled, plan)


# ---------------------------------------------------------------------------
# the pinned degree


def test_bk_newton_degree_examples():
    assert bk_newton_degree(3, 3, 2, F(1, 2)) == BkResult("exact", F(4, 9))
    assert bk_newton_degree(3, 3, 2, F(1, 3)) == BkResult("exact", F(1, 3))
    r = bk_newton_degree(3, 3, 2, F(4, 9))
    assert r.kind == "lower_bound" and r.value == F(4, 9)


def test_bk_newton_degree_validation():
    with pytest.raises(ValueError):
        bk_newton_degree(3, 3, 3, F(1, 2))
    with pytest.raises(ValueError):
        bk_newton_degree(3, 1, 1, F(1, 2))
    with pytest.raises(ValueError):
        bk_newton_degree(3, 3, 1, F(0))
    with pytest.raises(ValueError):
        bk_newton_degree(3, 3, 1, F(1))


# ---------------------------------------------------------------------------
# sweeps


def _grid_candidates(g: int, den: int):
    """Scaled vertices and open-edge points of the cube, in lexicographic order.

    Each coordinate takes 0, then 1..den-1 while no coordinate is fractional
    yet, then den: 2**g + g * 2**(g-1) * (den-1) points, none held at once.
    """

    def extend(prefix: tuple[int, ...], fractional: bool):
        if len(prefix) == g:
            yield prefix
            return
        yield from extend(prefix + (0,), fractional)
        if not fractional:
            for t in range(1, den):
                yield from extend(prefix + (t,), True)
        yield from extend(prefix + (den,), fractional)

    return extend((), False)


def _sweep_points(profile, den: int):
    """`_grid_candidates` paired with their `StratumCase`."""
    for scaled in _grid_candidates(profile.g, den):
        yield scaled, stratum_case(profile, *_entry_masks(scaled, den))


def _sweep_point(profile, den, drop_genericity, saturation_only, keep, point):
    """The unweighted full-stream oracle of one grid point: (points_in, pure,
    pairs, cx_total, records), planning every block afresh, with no orbit
    and no table.

    `point` is the scaled h and its `StratumCase`.  `records` holds the
    point's first `keep` failures as integer tuples (h_scaled, d_scaled,
    beta, lhs), ordered by d and then beta.
    """
    windows = _windows(profile, den) if saturation_only else None
    point_in, pure = _point_in(profile, den, windows, *point)
    if not point_in:
        return 0, pure, 0, 0, []
    scaled, stratum = point
    blocks = _blocks(profile, scaled, den, not drop_genericity, stratum, {})
    pairs, cx_total = _fold([_block_count(plan) for plan, _ in blocks])
    records = []
    if cx_total and keep:
        for d_scaled in _feasible_tuples(blocks):
            for beta, lhs in _quotient_vcan_failures(profile, d_scaled, den):
                records.append((scaled, d_scaled, beta, lhs))
            if len(records) >= keep:
                break
    return 1, pure, pairs, cx_total, records[:keep]


def test_sweep_passes_on_small_profiles():
    for prof, den in [("p=3;f=2", 6), ("p=3;f=1,1", 6), ("p=3;f=3", 6), ("p=5;f=2", 10)]:
        rep = verify_sigma_up(parse_profile(prof), den)
        assert rep["pass"] and rep["counterexample_total"] == 0, prof
        assert rep["points_in"] > 0 and rep["pairs_checked"] > 0
        assert rep["schema"] == "1" and rep["check"] == "sigma-up"


def test_sweep_drop_genericity_finds_counterexamples():
    rep = verify_sigma_up(parse_profile("p=3;f=2"), 6, drop_genericity=True)
    assert not rep["pass"]
    assert rep["counterexample_total"] == 2
    assert rep["counterexamples"][0] == {
        "h": {"0/0": "0", "0/1": "1"},
        "d": {"0/0": "1", "0/1": "0"},
        "beta": 0,
        "lhs": "3",
    }
    # records come lexicographically ordered and are capped; the total is not
    for cap in (0, 1):
        capped = verify_sigma_up(
            parse_profile("p=3;f=2"), 6, drop_genericity=True, max_counterexamples=cap
        )
        assert capped["counterexamples"] == rep["counterexamples"][:cap]
        assert capped["counterexample_total"] == 2


def test_sweep_p2_smallest_profile_finds_no_counterexamples():
    """No quotient failure at p=2 on profile (2).  A failure at beta needs
    2*d_beta + d_succ >= 2; the anchored inequality caps that sum at
    2*(1-h_beta) + (1-h_succ), which is below 2 at every In point unless
    h_beta = 0.  The genericity rules exclude the rest.  At the vertices
    (1,0) and (0,1) the ordinary-block rule and the vanishing of d before an
    h = 1 entry force d_beta = 0.  On an edge (t,0) the vanishing rule forces
    d_1 = 0 unless d_0 = 1, which the anchored bound at beta = 0 forbids for
    t > 1/2; the edge (0,t) is the mirror image."""
    rep = verify_sigma_up(parse_profile("p=2;f=2"), 8)
    assert rep["pass"] and rep["counterexample_total"] == 0
    assert rep["points_in"] > 0 and rep["pairs_checked"] > 0


@pytest.mark.parametrize(
    "prof, den, caps, worker_counts",
    [
        pytest.param("p=3;f=2", 8, (5,), (2, 3, 5), id="p3f2-den8"),
        # the cap bites: more failures than records at every cap
        pytest.param("p=3;f=2,1", 12, (0, 1, 3), (2, 3, 5), id="p3f21-den12"),
        # g = 11: label strings such as "0/10" and "0/2" sort apart from indices
        pytest.param("p=2;f=11", 1, (1,), (4, 8), id="p2f11-den1"),
    ],
)
def test_sweep_deterministic_across_workers(prof, den, caps, worker_counts):
    profile = parse_profile(prof)
    uncapped = verify_sigma_up(
        profile, den, drop_genericity=True, max_counterexamples=10**6
    )
    assert len(uncapped["counterexamples"]) == uncapped["counterexample_total"]
    for cap in caps:
        base = verify_sigma_up(profile, den, drop_genericity=True, max_counterexamples=cap)
        assert base["counterexamples"] == uncapped["counterexamples"][:cap]
        assert base["counterexample_total"] == uncapped["counterexample_total"]
        for workers in worker_counts:
            rep = verify_sigma_up(
                profile, den, drop_genericity=True, max_counterexamples=cap, workers=workers
            )
            assert json.dumps(rep, sort_keys=True) == json.dumps(base, sort_keys=True)


def test_sweep_byte_identical_under_spawn(monkeypatch):
    """Children started by spawn, in fresh interpreters: exactly workers - 1
    of them run to the end, and the report is the serial one."""
    profile = parse_profile("p=3;f=2,1")
    serial = verify_sigma_up(profile, 12, drop_genericity=True)
    spawn_process = multiprocessing.get_context("spawn").Process
    made = []

    def process(*args, **kwargs):
        made.append(spawn_process(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(multiprocessing, "Process", process)
    spawned = verify_sigma_up(profile, 12, drop_genericity=True, workers=3)
    assert [child.exitcode for child in made] == [0, 0]
    assert json.dumps(spawned, sort_keys=True) == json.dumps(serial, sort_keys=True)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
@pytest.mark.parametrize("failing", [0, 2])
def test_share_error_exits_2_and_leaves_no_child(failing, monkeypatch, capsys):
    """A share that raises, in the parent (share 0) or in a child, raises
    the same exception type from the sweep, so the CLI exits 2 with one
    line, and every child has been joined."""
    # forked children run the stubbed share too
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
    share = hecke._share

    def stub(*args):
        if args[-1] == failing:
            raise ValueError(f"share {failing} failed")
        return share(*args)

    monkeypatch.setattr(hecke, "_share", stub)
    with pytest.raises(ValueError, match=f"share {failing} failed"):
        verify_sigma_up(parse_profile("p=3;f=2"), 24, workers=3)
    assert multiprocessing.active_children() == []
    argv = ["verify", "sigma-up", "--profile", "p=3;f=2", "--den", "24", "--workers", "3"]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: share {failing} failed\n"
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_child_share_error_is_sent_to_the_parent(monkeypatch):
    """`_share_child` sends (False, the exception) for a share that raises,
    and closes its end of the pipe; at two workers the parent raises share
    1's error again and leaves no child."""
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
    share = hecke._share

    def stub(*args):
        if args[-1] == 1:
            raise ArithmeticError("share 1 failed")
        return share(*args)

    monkeypatch.setattr(hecke, "_share", stub)
    conn, send = multiprocessing.Pipe(duplex=False)
    hecke._share_child(send, 1)
    ok, exc = conn.recv()
    assert ok is False and type(exc) is ArithmeticError and send.closed
    conn.close()
    with pytest.raises(ArithmeticError, match="share 1 failed"):
        verify_sigma_up(parse_profile("p=3;f=2"), 24, workers=2)
    assert multiprocessing.active_children() == []


def test_sweep_starts_fewer_children_than_cells(monkeypatch):
    """p=3;f=2 at den 4 has 8 cells, so workers=50 makes 8 shares: 7
    children, counted by a fake that runs each share in-process."""
    started = []

    class Counted:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            started.append(self.args[-1])
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing, "Process", Counted)
    profile = parse_profile("p=3;f=2")
    rep = verify_sigma_up(profile, 4, drop_genericity=True, workers=50)
    assert started == list(range(1, 8))
    assert rep == verify_sigma_up(profile, 4, drop_genericity=True)


@pytest.mark.parametrize(
    "prof,den",
    [
        ("p=3;f=2,1", 12),
        ("p=5;f=3", 10),
        ("p=3;f=3", 9),
        ("p=2;f=1,3,1", 4),
        ("p=5;f=1", 25),
    ],
)
def test_sweep_counts_match_enumeration(prof, den):
    """The sweep counts pairs and failures on the runs; they must equal those
    of the enumerated candidates, and its records the first failures."""
    profile = parse_profile(prof)
    for point in _sweep_points(profile, den):
        scaled = point[0]
        h = DegreeVector(profile, tuple(F(a, den) for a in scaled), generic=True)
        for drop in (False, True):
            found = []
            if sigma_case(h)[1] is Verdict.IN:
                found = [
                    tuple(int(v * den) for v in d.entries)
                    for d in feasible_d_grid(h, den, drop)
                ]
            failures = [
                (scaled, d, beta, lhs)
                for d in found
                for beta, lhs in _quotient_vcan_failures(profile, d, den)
            ]
            for keep in (0, 1, 3):
                _, _, pairs, cx_total, records = _sweep_point(
                    profile, den, drop, False, keep, point
                )
                assert pairs == len(found), (scaled, drop)
                assert cx_total == len(failures), (scaled, drop)
                assert records == failures[:keep], (scaled, drop, keep)


def test_sweep_grid_cap():
    with pytest.raises(GridTooLarge):
        verify_sigma_up(parse_profile("p=3;f=2"), 50_000)


def test_saturation_check():
    rep = saturation_check(parse_profile("p=3;f=2"), 6)
    assert rep["pass"] and rep["check"] == "saturation"
    assert rep["membership_pure"] is True
    assert rep["points_in"] > 0
    # the window restriction only shrinks the swept set
    full = verify_sigma_up(parse_profile("p=3;f=2"), 6)
    assert rep["points_in"] <= full["points_in"]


def test_saturation_vacuous_on_mixed_profile():
    # with a size-1 block the windows exclude every vertex coordinate,
    # so no grid point meets all of them at once
    rep = saturation_check(parse_profile("p=3;f=2,1"), 6)
    assert rep["pass"] and rep["points_in"] == 0


def test_saturation_purity_fails_when_serialization_drops_the_flag(monkeypatch, capsys):
    """With `to_json_dict` made to drop the generic flag, each parsed In
    point is decided as a non-generic vector, so membership no longer
    reads only the serialized data: saturation reports it impure, fails,
    and exits 1."""
    to_json_dict = DegreeVector.to_json_dict

    def flagless(self):
        data = to_json_dict(self)
        del data["generic"]
        return data

    monkeypatch.setattr(DegreeVector, "to_json_dict", flagless)
    argv = ["verify", "saturation", "--profile", "p=3;f=2", "--den", "24", "--workers", "1"]
    assert run(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["membership_pure"] is False and rep["pass"] is False
    assert rep["counterexample_total"] == 0 and rep["points_in"] > 0


def _emptied_pins(profile, den) -> dict:
    """{j: number of In points on a bad_partial_eta stratum with that j whose
    pin is empty}, counted point by point over the sweep's grid."""
    emptied = Counter()
    for scaled, stratum in _sweep_points(profile, den):
        free = 0 if stratum.beta0 is None else scaled[stratum.beta0]
        if stratum.decide(True, free, den) is not Verdict.IN:
            continue
        pin = _pin_for(stratum, scaled, den)
        if pin is not None and pin[1] > pin[2]:
            emptied[stratum.j] += 1
    return emptied


@pytest.mark.parametrize("prof", ["p=2;f=4", "p=3;f=4", "p=5;f=4", "p=3;f=2,3"])
def test_off_grid_pins_match_the_brute_count(prof):
    """`_off_grid_pins` names exactly the j at which some In point's pin is
    empty, at every den up to 20, den 1 included."""
    profile = parse_profile(prof)
    for den in range(1, 21):
        got = _off_grid_pins(profile.p, profile.f, den)
        assert [j for j, _ in got] == sorted(_emptied_pins(profile, den)), den
        assert all(dj == delta(profile.p, j) for j, dj in got)


@pytest.mark.parametrize(
    "prof,den,emptied",
    [
        ("p=5;f=3", 24, 57),
        ("p=3;f=3", 10, 18),
        ("p=5;f=3", 25, 0),
        ("p=3;f=3", 27, 0),
        ("p=5;f=4", 50, 0),
    ],
)
def test_off_grid_pin_warning_appears_exactly_when_points_check_no_d(
    prof, den, emptied, capsys
):
    """A generic sigma-up sweep warns exactly when some In point's pin is
    off the grid, naming each such delta_j; the report and exit code stay
    as they are, and saturation, which counts no pinned point, and a sweep
    without genericity give no line."""
    profile = parse_profile(prof)
    counts = _emptied_pins(profile, den)
    assert sum(counts.values()) == emptied
    assert [j for j, _ in _off_grid_pins(profile.p, profile.f, den)] == sorted(counts)
    args = ["--profile", prof, "--den", str(den), "--workers", "1"]
    assert run(["verify", "sigma-up", *args]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == verify_sigma_up(profile, den)
    lines = captured.err.splitlines()
    if emptied:
        deltas = ", ".join(
            f"delta({profile.p}, {j}) = {delta(profile.p, j)}" for j in sorted(counts)
        )
        assert lines == [
            f"warning: sigma-up on {prof} leaves pinned points unchecked:"
            f" {deltas} is off the 1/{den} grid"
        ]
    else:
        assert lines == []
    for extra in (["saturation"], ["sigma-up", "--drop-genericity"]):
        run(["verify", *extra, *args])
        assert "pinned" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# symmetry orbits


def _group(profile):
    """Every element of G, listed explicitly: per-block rotations and a
    permutation of the blocks that keeps each block's size."""
    n = profile.n_primes
    perms = [
        perm
        for perm in permutations(range(n))
        if all(profile.f[perm[i]] == profile.f[i] for i in range(n))
    ]
    for rots in product(*(range(f) for f in profile.f)):
        for perm in perms:
            yield rots, perm


def _act(profile, element, entries):
    """element . entries: block i rotated left by rots[i], moved to block perm[i]."""
    rots, perm = element
    out = list(entries)
    for i, (r, j) in enumerate(zip(rots, perm)):
        f, off, dest = profile.f[i], profile.offsets[i], profile.offsets[j]
        block = tuple(entries[off : off + f])
        out[dest : dest + f] = block[r:] + block[:r]
    return tuple(out)


def _act_index(profile, element, beta):
    """Where element moves the entry at embedding beta."""
    rots, perm = element
    i = profile.prime_of(beta)
    f = profile.f[i]
    return profile.offsets[perm[i]] + (beta - profile.offsets[i] - rots[i]) % f


EQUIVARIANCE_PROFILES = [
    parse_profile(s)
    for s in ("p=2;f=1,3,1", "p=3;f=2,2", "p=3;f=1,1,1", "p=3;f=3", "p=5;f=2,1,2", "p=2;f=4")
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_feasible_set_and_sigma_case_are_equivariant(data):
    """For g in G and a vertex or edge point h: the feasible set of g.h is g
    applied to that of h, and sigma_case keeps its kind, j, threshold and
    verdict with beta0 moved by g, genericity on and dropped."""
    profile = data.draw(st.sampled_from(EQUIVARIANCE_PROFILES))
    den = data.draw(st.sampled_from([2, 3, 4]))
    corner = data.draw(st.tuples(*[st.sampled_from((0, den)) for _ in range(profile.g)]))
    k = data.draw(st.integers(0, profile.g - 1))
    scaled = corner[:k] + (data.draw(st.integers(0, den)),) + corner[k + 1 :]
    generic = data.draw(st.booleans())
    drop = data.draw(st.booleans())
    element = data.draw(st.sampled_from(list(_group(profile))))
    h = DegreeVector(profile, tuple(F(a, den) for a in scaled), generic=generic)
    gh = DegreeVector(profile, _act(profile, element, h.entries), generic=generic)
    moved = {_act(profile, element, d.entries) for d in feasible_d_grid(h, den, drop)}
    assert {tuple(d.entries) for d in feasible_d_grid(gh, den, drop)} == moved
    (case, verdict), (g_case, g_verdict) = sigma_case(h), sigma_case(gh)
    assert (g_case.kind, g_case.j, g_case.threshold, g_verdict) == (
        case.kind, case.j, case.threshold, verdict
    )
    if case.beta0 is None:
        assert g_case.beta0 is None
    else:
        assert g_case.beta0 == _act_index(profile, element, case.beta0)


CANONICAL_CASES = [
    ("p=3;f=2,2", 6, 8),
    ("p=2;f=1,3,1", 4, 6),
    ("p=5;f=1,1,1", 5, 6),
    ("p=3;f=3", 9, 3),
]


def _cell_of(scaled, den):
    """The first point of the cell holding the scaled grid point: its free
    value, if any, put back to 1."""
    free = [k for k, a in enumerate(scaled) if 0 < a < den]
    return scaled if not free else scaled[: free[0]] + (1,) + scaled[free[0] + 1 :]


@pytest.mark.parametrize("prof,den,order", CANONICAL_CASES)
def test_canonical_point_and_orbit_size_match_brute_force(prof, den, order):
    """The least image, built without listing G, equals the least of all
    images over the listed group; the orbit size, the number of cells that
    `_orbits` maps to the point's canonical cell, equals the count of those
    images; and the orbit sizes of the canonical points sum to the grid."""
    profile = parse_profile(prof)
    group = list(_group(profile))
    assert len(group) == order
    orbits = _orbits(profile, den)
    sizes = Counter(orbits.values())
    weights = 0
    for scaled, _ in _sweep_points(profile, den):
        orbit = {_act(profile, element, scaled) for element in group}
        assert _canonical(profile, scaled) == min(orbit), scaled
        assert sizes[orbits[_cell_of(scaled, den)]] == len(orbit), scaled
        if min(orbit) == scaled:
            weights += len(orbit)
    assert weights == verify_sigma_up(profile, den)["grid_points"]


@pytest.mark.parametrize(
    "prof,den", [(prof, d) for prof, den, _ in CANONICAL_CASES for d in (1, 2, den)]
)
def test_cells_partition_the_grid(prof, den):
    """The cells' points are the grid's points, each once, and a cell's
    canonical cell, decided once by `_orbits`, is the one `_canonical` gives
    at every one of its points: the least image of the cell's point at free
    value t is the canonical cell's point at t.  The counting pass names, on
    a canonical cell, exactly the t at which the full-stream oracle finds
    failures (genericity dropped, so some fail)."""
    profile = parse_profile(prof)
    cells = {cell[0]: cell for cell in _cells(profile.g, den)}
    orbits = _orbits(profile, den)
    assert orbits.keys() == cells.keys()
    failed = _share(profile, den, True, None, Counter(orbits.values()), 1, 0)[4]
    points = []
    for cell in cells.values():
        canon = orbits[cell[0]]
        stratum = stratum_case(profile, *_entry_masks(cell[0], den))
        for scaled in _cell_points(cell, den):
            t = None if cell[1] is None else scaled[cell[1]]
            assert _cell_point(cell, t) == scaled
            assert _canonical(profile, scaled) == _cell_point(cells[canon], t)
            if canon == cell[0]:
                fails = _sweep_point(profile, den, True, False, 0, (scaled, stratum))[3]
                assert (t in failed.get(cell[0], ())) == bool(fails), (cell, t)
            points.append(scaled)
    assert sorted(points) == list(_grid_candidates(profile.g, den))
    assert len(points) == verify_sigma_up(profile, den)["grid_points"]


@pytest.mark.parametrize("prof,den", [(prof, den) for prof, den, _ in CANONICAL_CASES])
def test_shares_partition_the_grid(prof, den, monkeypatch):
    """For n = 1..5, share k visits every n-th point of the cells' points
    from the k-th, so the shares visit the grid's points each once; their
    counts fold to the one-share sweep's; and each share plans a distinct
    block at most once."""
    profile = parse_profile(prof)
    stream = [pt for cell in _cells(profile.g, den) for pt in _cell_points(cell, den)]
    assert sorted(stream) == list(_grid_candidates(profile.g, den))
    sizes = Counter(_orbits(profile, den).values())
    keys = []
    plan = hecke._block_plan

    def counted(p, den, s, generic_active, pin):
        keys.append((s, pin))
        return plan(p, den, s, generic_active, pin)

    monkeypatch.setattr(hecke, "_block_plan", counted)
    for drop, windows in ((True, None), (False, _windows(profile, den))):
        whole = _share(profile, den, drop, windows, sizes, 1, 0)
        if windows is None:
            assert whole[2] > 0  # pairs are counted
        for n in range(1, 6):
            parts = []
            for k in range(n):
                held = _held_cells(profile.g, den, n, k)
                points = [pt for cell, start in held for pt in _cell_points(cell, den, start, n)]
                assert points == stream[k::n], (n, k)
                keys.clear()
                parts.append(_share(profile, den, drop, windows, sizes, n, k))
                assert len(keys) == len(set(keys)), (n, k)
            assert _total(parts) == whole, (drop, n)


class _InProcess:
    """A stand-in for `multiprocessing.Process` that runs its target in this
    process when started, so that monkeypatched counters see every share."""

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def terminate(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize("prof,den", [("p=3;f=2,2", 6), ("p=2;f=1,3,1", 4), ("p=3;f=3", 9)])
def test_sigma_up_decides_only_canonical_cells(prof, den, monkeypatch):
    """Sigma-up decides the points of canonical cells only, each once, and
    saturation every grid point once, for its purity round trip, at one
    share and at three."""
    profile = parse_profile(prof)
    canonical = [
        pt
        for cell in _cells(profile.g, den)
        if _canonical(profile, cell[0]) == cell[0]
        for pt in _cell_points(cell, den)
    ]
    assert len(canonical) < len(list(_grid_candidates(profile.g, den)))
    decided = []
    point_in = hecke._point_in

    def counted(profile, den, windows, scaled, stratum):
        decided.append(scaled)
        return point_in(profile, den, windows, scaled, stratum)

    monkeypatch.setattr(hecke, "_point_in", counted)
    monkeypatch.setattr(multiprocessing, "Process", _InProcess)
    for workers in (1, 3):
        decided.clear()
        verify_sigma_up(profile, den, drop_genericity=True, workers=workers)
        assert sorted(decided) == sorted(canonical), workers
        decided.clear()
        saturation_check(profile, den, workers=workers)
        assert sorted(decided) == list(_grid_candidates(profile.g, den)), workers


@pytest.mark.parametrize("prof,den", [("p=3;f=2,2", 6), ("p=3;f=2,1", 27)])
def test_canonical_runs_once_per_cell_in_the_parent(prof, den, monkeypatch):
    """One `_canonical` call per cell per sweep, all made before the first
    share starts, whatever the worker count and whether records are kept:
    neither a share nor the record pass calls it."""
    profile = parse_profile(prof)
    cells = len(list(_cells(profile.g, den)))
    calls = []
    canonical = hecke._canonical

    def counted(profile, scaled):
        calls.append(scaled)
        return canonical(profile, scaled)

    class Checked(_InProcess):
        def start(self):
            assert len(calls) == cells
            super().start()

    monkeypatch.setattr(hecke, "_canonical", counted)
    monkeypatch.setattr(multiprocessing, "Process", Checked)
    for workers in (1, 3):
        for keep in (0, 1000):
            calls.clear()
            rep = verify_sigma_up(
                profile, den, drop_genericity=True, max_counterexamples=keep, workers=workers
            )
            assert rep["counterexample_total"] > 0
            assert len(calls) == len(set(calls)) == cells, (workers, keep)


# Profiles whose blocks are permutations of each other, with the totals
# (pairs_checked, counterexample_total) of their sigma-up sweeps with
# genericity dropped and on.
BLOCK_ORDERS = [
    (("p=3;f=2,1", "p=3;f=1,2"), 54, (3470, 108), (1526, 0)),
    (("p=5;f=2,1,2", "p=5;f=1,2,2", "p=5;f=2,2,1"), 50, (98394, 10488), (10314, 0)),
    # two size classes of equal-size blocks
    (("p=5;f=2,2,1,1", "p=5;f=1,2,1,2", "p=5;f=1,1,2,2"), 10, (1743, 708), (567, 0)),
]


@pytest.mark.parametrize("profiles,den,dropped,generic", BLOCK_ORDERS)
def test_block_order_leaves_the_totals(profiles, den, dropped, generic):
    """Permuting a profile's blocks relabels its grid and leaves every total
    of its sweeps as it is: no oracle, one exact answer against another."""
    fields = ("grid_points", "points_in", "pairs_checked", "counterexample_total", "pass")
    seen = set()
    for text in profiles:
        profile = parse_profile(text)
        up = [
            verify_sigma_up(profile, den, drop_genericity=drop, max_counterexamples=0)
            for drop in (True, False)
        ]
        sat = saturation_check(profile, den, max_counterexamples=0)
        seen.add(
            tuple(rep[k] for rep in up for k in fields)
            + tuple(sat[k] for k in fields + ("membership_pure",))
        )
        assert [(rep["pairs_checked"], rep["counterexample_total"]) for rep in up] == [
            dropped,
            generic,
        ], text
    assert len(seen) == 1, seen


def _full_stream_report(profile, den, drop, saturation_only, keep):
    """The report fields a sweep folds, from `_sweep_point` on every point of
    the full stream: no orbit is used."""
    results = [
        _sweep_point(profile, den, drop, saturation_only, keep, point)
        for point in _sweep_points(profile, den)
    ]
    records = [rec for res in results for rec in res[4]][:keep]
    return {
        "grid_points": len(results),
        "points_in": sum(res[0] for res in results),
        "pairs_checked": sum(res[2] for res in results),
        "counterexample_total": sum(res[3] for res in results),
        "counterexamples": [_cx_record(profile, den, *rec) for rec in records],
    }


@pytest.mark.parametrize(
    "prof,den",
    [
        ("p=3;f=3", 27),
        ("p=3;f=2,2", 9),
        # size-1 blocks of equal size that are not adjacent
        ("p=3;f=1,2,1", 9),
        # no failures: a size-1 block fails only at d = 1, which the anchored
        # bound allows only where h = 0, a whole Zero block
        ("p=3;f=1,1", 12),
    ],
)
def test_orbit_sweep_matches_full_stream(prof, den, monkeypatch):
    """The orbit sweep reports what the full stream folds, with genericity
    dropped so that there are failures, at every cap and worker count.  The
    record pass must reach failing points that are not canonical and lie
    between canonical ones, and expands at most `keep` points: those it
    takes from the merged stream of failing points."""
    profile = parse_profile(prof)
    uncapped = _full_stream_report(profile, den, True, False, 1000)
    if uncapped["counterexample_total"]:
        hs = [
            tuple(int(F(v) * den) for v in rec["h"].values())
            for rec in uncapped["counterexamples"]
        ]
        assert any(_canonical(profile, h) != h for h in hs)
    merge = hecke.merge
    expanded = []

    def counted(*streams):
        for point in merge(*streams):
            expanded.append(point[0])
            yield point

    # the record pass takes each point it expands from `merge`
    monkeypatch.setattr(hecke, "merge", counted)
    for keep in (0, 1, 5, 20, 1000):
        want = _full_stream_report(profile, den, True, False, keep)
        for workers in (1, 3):
            expanded.clear()
            rep = verify_sigma_up(
                profile, den, drop_genericity=True, max_counterexamples=keep, workers=workers
            )
            assert {k: rep[k] for k in want} == want, (keep, workers)
            assert len(expanded) <= keep
            assert bool(expanded) == bool(keep and want["counterexample_total"])
        sat = saturation_check(profile, den, max_counterexamples=keep)
        assert {k: sat[k] for k in want} == _full_stream_report(profile, den, False, True, keep)


@pytest.mark.parametrize("prof,plans", [("p=3;f=2,1", 360), ("p=3;f=2", 225)])
def test_sweep_plans_each_block_once(prof, plans, monkeypatch):
    """A serial sweep plans each distinct (block, local pin) once; every
    other point reads that block's counts from the sweep's table."""
    keys = []
    plan = hecke._block_plan

    def counted(p, den, s, generic_active, pin):
        keys.append((s, pin))
        return plan(p, den, s, generic_active, pin)

    monkeypatch.setattr(hecke, "_block_plan", counted)
    verify_sigma_up(parse_profile(prof), 135)
    assert len(keys) == len(set(keys)) == plans


def test_record_pass_plans_each_block_once(monkeypatch):
    """With genericity dropped and every record kept on p=3;f=2,1@27, the
    record pass plans each distinct (block, local pin) once: it reads every
    point's blocks through `_blocks`, from its one table, and blocks recur
    from point to point."""
    profile, den = parse_profile("p=3;f=2,1"), 27
    orbits = _orbits(profile, den)
    counted_pass = _share(profile, den, True, None, Counter(orbits.values()), 1, 0)
    cx_total, failed = counted_pass[3], counted_pass[4]
    keys = []
    points = []
    plan = hecke._block_plan
    merge = hecke.merge

    def counted(p, den, s, generic_active, pin):
        keys.append((s, pin))
        return plan(p, den, s, generic_active, pin)

    def counted_merge(*streams):
        for point in merge(*streams):
            points.append(point[0])
            yield point

    monkeypatch.setattr(hecke, "_block_plan", counted)
    monkeypatch.setattr(hecke, "merge", counted_merge)
    records = list(hecke._records(profile, den, False, orbits, failed))
    assert len(records) == cx_total > 0
    assert len(keys) == len(set(keys)) > 0
    assert len(points) * profile.n_primes > len(keys)


# The benchmark's one-worker sweeps, with the blocks each plans and the
# purity round trips each makes.
SERIAL_SWEEPS = [
    ("sigma-up", "p=3;f=2", 135, 225, 0),
    ("sigma-up", "p=5;f=3", 75, 280, 0),
    ("sigma-up", "p=3;f=2,1", 135, 360, 0),
    ("saturation", "p=3;f=2", 135, 89, 449),
]


def test_serial_sweeps_plan_954_blocks_and_run_449_round_trips(monkeypatch, capsys):
    """The serial benchmark sweeps plan each distinct block once, 954 in
    all, and saturation runs its purity round trip at each of its In
    points, canonical or not, 449 in all."""
    plans = []
    trips = []
    plan = hecke._block_plan
    from_json_dict = DegreeVector.from_json_dict.__func__

    def counted_plan(*args):
        plans.append(args)
        return plan(*args)

    def counted_trip(cls, profile, data):
        trips.append(data)
        return from_json_dict(cls, profile, data)

    monkeypatch.setattr(hecke, "_block_plan", counted_plan)
    monkeypatch.setattr(DegreeVector, "from_json_dict", classmethod(counted_trip))
    for check, prof, den, n_plans, n_trips in SERIAL_SWEEPS:
        plans.clear()
        trips.clear()
        argv = ["verify", check, "--profile", prof, "--den", str(den), "--workers", "1"]
        assert run(argv) == 0
        capsys.readouterr()
        assert (len(plans), len(trips)) == (n_plans, n_trips), (check, prof)
        if check == "saturation":
            in_points = 0
            for scaled, stratum in _sweep_points(parse_profile(prof), den):
                free = 0 if stratum.beta0 is None else scaled[stratum.beta0]
                in_points += stratum.decide(True, free, den) is Verdict.IN
            assert in_points == n_trips
    assert sum(row[3] for row in SERIAL_SWEEPS) == 954
    assert sum(row[4] for row in SERIAL_SWEEPS) == 449


@pytest.mark.parametrize(
    "prof,den",
    [
        # a pinned three-entry block beside a size-1 block
        ("p=3;f=3,1", 27),
        # products whose blocks recur from point to point
        ("p=5;f=2,1", 25),
        ("p=3;f=2,1", 27),
    ],
)
def test_block_table_sweep_matches_full_stream(prof, den):
    """Folding each point's counts from the sweep's table of block counts
    reports what the full stream folds, genericity on and dropped, at every
    cap and worker count."""
    profile = parse_profile(prof)
    for drop in (False, True):
        for keep in (0, 5, 1000):
            want = _full_stream_report(profile, den, drop, False, keep)
            for workers in (1, 3):
                rep = hecke._run_sweep(profile, den, drop, False, keep, workers)
                assert {k: rep[k] for k in want} == want, (drop, keep, workers)


def test_block_table_lives_for_one_sweep():
    """Sweeps in one process share no block counts: a table that outlived
    its sweep, or was keyed without the genericity flag or den, would hand
    the next sweep counts of blocks it plans differently."""
    profile = parse_profile("p=3;f=2,1")
    for drop, den in ((True, 27), (False, 27), (True, 27), (True, 54)):
        want = _full_stream_report(profile, den, drop, False, 5)
        rep = verify_sigma_up(profile, den, drop_genericity=drop)
        assert {k: rep[k] for k in want} == want, (drop, den)


@pytest.mark.parametrize("prof,den", [("p=3;f=2", 27), ("p=5;f=3", 25), ("p=3;f=2,1", 27)])
def test_integer_window_matches_in_interval_region(prof, den):
    profile = parse_profile(prof)
    windows = _windows(profile, den)
    seen = set()
    for h in _vertex_and_edge_points(profile, den):
        got = _within(windows, _on_grid(h, den))
        assert got == in_interval_region(h), h.entries
        seen.add(got)
    # the single-prime profiles meet both sides of their windows
    assert seen == ({False} if profile.n_primes > 1 else {True, False})


# ---------------------------------------------------------------------------
# relations that need no oracle


@pytest.mark.parametrize(
    "prof,den,k",
    [
        ("p=3;f=2", 9, 2),
        ("p=3;f=2", 9, 3),
        ("p=3;f=3", 9, 2),
        ("p=3;f=3", 9, 3),
        ("p=5;f=2,1", 5, 2),
        ("p=5;f=2,1", 5, 3),
        ("p=5;f=3", 25, 5),
    ],
)
def test_den_refinement_keeps_the_coarse_feasible_set(prof, den, k):
    """Every family is a statement about rationals, so refining the grid
    adds candidates and removes none: `feasible_d_grid(h, k * den)` on the
    1/den grid is `feasible_d_grid(h, den)`, at every vertex and edge point
    of the coarse grid, genericity on and dropped.  One exact answer
    against another, with no oracle."""
    profile = parse_profile(prof)
    nonempty = 0
    for h in _vertex_and_edge_points(profile, den):
        for drop in (False, True):
            coarse = [d.entries for d in feasible_d_grid(h, den, drop)]
            fine = [
                d.entries
                for d in feasible_d_grid(h, k * den, drop)
                if all(den % v.denominator == 0 for v in d.entries)
            ]
            assert fine == coarse, (h.entries, drop)
            nonempty += bool(coarse)
    assert nonempty
