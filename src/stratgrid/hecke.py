"""Correspondence-side checks: feasible subgroup degrees and grid sweeps.

Given a degree vector h on a grid, `feasible_d_grid` enumerates the subgroup
degree vectors d that survive every NECESSARY constraint family: the anchored
Raynaud inequalities, the genericity families, Hodge-interval consistency, the
ordinary-block rules, and the pinned free coordinate on the relevant
codimension-1 strata.  Survivors need not be realizable by an actual point of
the correspondence; the sweeps therefore prove universally quantified
statements ("every surviving d lands in the canonical locus") but existence
claims never rest on this set.

The enumeration is integer-only: on the 1/den grid every window and bound of
those families is an integer multiple of 1/den, so `_plan_bounds` restates
them times den, and nothing below it builds a `Fraction`.  A block's plan is
built in one integer pass and one constructor call: `_plan_bounds` takes the
anchored sums by Horner's rule, the candidate ranges and height windows, and
`_block_plan` cuts the ranges in place by `_prune`, bounds consistency around
the cycle of height edges, so the first entry runs over its live interval
only.  A `BlockPlan` holds only the integers the descent reads.
`_block_runs` grows the candidates' prefixes one entry at a time through the
middle entries and solves the last one as one to three ranges, yielding
ascending runs (prefix, lo, hi).  A bound another one implies (the
genericity tail bound) is not restated.  The `Fraction` definitions in
`degrees` and `regions` stay the oracle; the tests check the plan, the range
helpers and the enumeration against them.  `feasible_d_grid`, the counting
pass (`_block_count`) and the record pass share this one descent.

`verify_sigma_up` sweeps every grid point of the membership region and checks
that all surviving d push the quotient into the canonical locus.  Only
vertices and open edges of the cube are enumerated: a vector with two or more
fractional coordinates sits on a stratum of codimension at least 2 and is Out,
so the restriction is exact.  A point's stratum is named by its face masks,
its entries at 0 and at 1, which are the same along an edge, so most of
`sigma_case` is decided once per edge; each point compares only its free
value.  The quotient test is blockwise, so a point counts its pairs as the
product of the blocks' candidate counts and its failures on the runs, and
expands the runs only to build the records it keeps.  A block's
(candidates, failures) depends on nothing but `_block_plan`'s arguments, and
within one sweep only two of them vary: the block of the scaled h and its
local pin (p, den and the genericity flag are fixed).  So the counting pass
keeps a table keyed by those two, plans and counts each distinct block once,
and folds a point's counts from its blocks' entries; the table is exact
because the key is everything the count reads.  It lives for one sweep, or
for one share of a sweep split over workers, and nothing outlives the sweep.

The sweep enumerates each symmetry orbit once.  The profile has one p, so
the group G = (prod_i Z_{f_i}) x| (permutations of the blocks of equal size)
acts on h and d alike, rotating each block and moving whole blocks between
positions of equal size, and every family the sweep applies is equivariant
under it:

- the height edges couple pos - 1 to pos inside a block, cyclically;
- the anchored sums run once from each start of a block, so a rotation
  permutes them;
- the genericity rules and the ordinary-block rule read a position, its
  predecessor and its successor inside the block;
- `classify_face` reads only beta0's block, stepping to the next bit
  cyclically inside it, so the stratum kind, j and the threshold (a function
  of p, j and f) stay, and beta0 moves with the point;
- the pin sits at beta0 and reads the free value there;
- the quotient test reads beta and its successor inside the block, or one
  size-1 block on its own;
- the saturation window reads a block's sum and size.

So the feasible set of g.h is g applied to that of h, the verdict is the
same, and (points_in, pure, pairs, cx_total) is constant on an orbit.  Only
the canonical point of an orbit, its least image under G, is counted, and
its counts are multiplied by the orbit size (canonical representatives as
in McKay, "Isomorph-free exhaustive generation", J. Algorithms 26 (1998)).
The least image is built block by block, without listing G: least
rotations, sorted within each size class.

The counting pass works one cell of the cube at a time: a vertex, or an open
edge with its free value t in 1..den-1.  The least image of a cell's point
at t is its canonical cell's point at t (`_canonical` gives the argument),
so a cell's points are all canonical or none is, and G acts on the cells.
Each sweep applies G in one place: `_orbits` maps every cell to its
canonical cell once, in the parent, and the orbit size of a canonical
cell's points is the number of cells mapped to it.  Sigma-up visits the
canonical cells only; each of their points is decided by its own free
value, since a verdict can change along an edge at a threshold, and counts
for its whole orbit.  Saturation still visits every point: the purity round
trip is a per-point check, and running it only at representatives would
loosen it; it counts at the canonical cells only.  At every In point the
round trip runs in full: the point's `DegreeVector` is built from the
sweep's grid values a / den (`Windows.grid`, built once per sweep),
serialized by `to_json_dict`, parsed back by `from_json_dict`, and the
parsed vector decided by `sigma_case`.  No parsed vector and no verdict is
shared between points.  With n workers the pass is cut into n shares of
every n-th point, taken in cell order, so the shares hold near-equal parts
of every edge.  A share decides a cell only where it holds one of its
points; the parent runs one share and a child process each of the others,
and hands each the orbit sizes.

The records come from the cells too, and are lexicographic by
construction.  A point fails exactly when its least image does, so the
counting pass reports the free values at which each canonical cell failed,
and a cell's failing points are its points at those values.  The record
pass in the parent reads each cell's canonical cell from the sweep's one
map, streams the failing points of each cell, t ascending, which is
lexicographic within a cell, and merges the streams into one lexicographic
stream.  Each point's failures come ordered by d and then beta, so the first
records of the merged stream are the first by embedding index, and the pass
stops at the cap: each point it expands gives at least one record, and there
is no `_canonical` call and no sort, whatever the worker count.  It reads
its blocks through `_blocks`, from a table of its own that holds each
distinct block's plan and runs, so each is planned once; the counting table
holds only counts.  A record's lhs stays an integer, times den, until
`_cx_record` writes it.
"""
from __future__ import annotations

import multiprocessing
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from itertools import product
from math import prod
from typing import NamedTuple

from .degrees import CuspInput, DegreeVector, _entry_masks
from .embeddings import PrimeProfile
from .regions import (
    StratumCase,
    Verdict,
    delta,
    istar_interval,
    sigma_case,
    stratum_case,
)
from .strata import ENUMERATION_MAX_G, EnumerationBound

__all__ = [
    "GridTooLarge",
    "BkResult",
    "bk_newton_degree",
    "feasible_d_grid",
    "verify_sigma_up",
    "saturation_check",
    "GRID_CAP",
    "MAX_WORKERS",
]

GRID_CAP = 10_000
# More shares than this only add processes: each share is a whole process
# for one sweep, so a worker count is held to what a host can run at once.
MAX_WORKERS = 64


class GridTooLarge(ValueError):
    """Embedding count times denominator exceeds the configured cap."""


# ---------------------------------------------------------------------------
# the pinned degree on a bad stratum


@dataclass(frozen=True)
class BkResult:
    """Degree of the pinned coordinate: an exact value or a lower bound."""

    kind: str  # "exact" | "lower_bound"
    value: Fraction


def bk_newton_degree(p: int, f: int, j: int, h: Fraction) -> BkResult:
    """Pinned subgroup degree at the free coordinate of a bad stratum.

    For free value h strictly between the threshold and 1 the degree is the
    threshold itself; strictly below, the degree equals h; at the threshold
    only the lower bound survives.  This is the `Fraction` definition that
    `_pin_for` restates in integers.
    """
    if f < 2 or not 1 <= j <= f - 1:
        raise ValueError(f"need f >= 2 and 1 <= j <= f-1, got f={f}, j={j}")
    h = Fraction(h)
    if not 0 < h < 1:
        raise ValueError(f"free coordinate must lie in (0,1), got {h}")
    dj = delta(p, j)
    if h > dj:
        return BkResult("exact", dj)
    if h < dj:
        return BkResult("exact", h)
    return BkResult("lower_bound", dj)


# ---------------------------------------------------------------------------
# the quotient test


def _quotient_vcan_failures(profile: PrimeProfile, scaled: tuple[int, ...], den: int):
    """(beta, lhs) where the quotient degrees 1 - d leave the canonical locus.

    On blocks of size > 1 this is the strict canonical test on d, which
    fails where lhs = p*d_beta + d_succ >= p; on size-1 blocks the quotient
    needs positive degree, i.e. d < 1, and lhs = (p + 1) d.  `scaled` is d
    times den, and so is lhs.
    """
    p = profile.p
    out = []
    for i in range(profile.n_primes):
        f, off = profile.f[i], profile.offsets[i]
        for pos in range(f):
            beta = off + pos
            succ = off + (pos + 1) % f
            if f > 1:
                lhs = p * scaled[beta] + scaled[succ]
                if lhs >= p * den:
                    out.append((beta, lhs))
            elif scaled[beta] == den:
                out.append((beta, (p + 1) * den))
    return out


# ---------------------------------------------------------------------------
# feasible subgroup degrees on a grid


def _ceil_div(a: int, b: int) -> int:
    """Ceiling of a / b for integers with b > 0; floor division is `//`."""
    return -(-a // b)


def _on_grid(h: DegreeVector, den: int) -> tuple[int, ...]:
    """h's entries times den, which must be integers: a plan is never rounded."""
    out = []
    for v in h.entries:
        if den % v.denominator:
            raise ValueError(f"degree {v} is not on the 1/{den} grid")
        out.append(v.numerator * (den // v.denominator))
    return tuple(out)


class BlockPlan(NamedTuple):
    """Integer data of one block of h on the 1/den grid: what the descent
    reads.

    Every entry is the matching rational times den: `lo`/`hi` the candidate
    range of each entry of d, cut by `_prune`, `wlo`/`whi` the window of
    `degrees.hodge_height` at each position, and `rhs` the weighted sum of
    1 - h anchored at each position (the right-hand side of
    `degrees.raynaud_feasible`).  The genericity families are already in
    the bounds.
    """

    p: int
    f: int
    den: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    wlo: tuple[int, ...]
    whi: tuple[int, ...]
    rhs: tuple[int, ...]


def _plan_bounds(p: int, den: int, s: tuple[int, ...], generic_active: bool, pin):
    """(lo, hi, wlo, whi, rhs) of one block of h, as lists, before `_prune`.

    `s` is the block of h times den, and `pin` is None or the pinned range
    (pos, lo, hi) inside the block.  The bounds restate the Fraction families
    of `degrees` (`hodge_height`, `raynaud_feasible`,
    `genericity_constraints`) and the ordinary-block rule times den; those
    definitions stay the oracle the bounds are tested against.  Two
    genericity rules are implied and not restated.  The tail bound
    (d <= delta_star where h = 1): there the k = 0 term of the anchored sum
    is 0, so the self-anchored bound caps d at sum_{k>=1} p^-k (1 - h_(pos+k))
    <= delta_star(p, f).  The vanishing rule (where h's predecessor entry is
    0 and d < 1, d's predecessor entry is 0; `tests/test_hecke.py` holds it
    as the per-value predicate `_gen3_edge_ok`): there the h-side height
    window is {0} unless h = 1, and a d-side height of 0 with d < 1 needs p
    times the predecessor entry to be 0; where h = 1 the bounds cap the
    predecessor entry at 0.  Every bound is a min or a max, so the order
    they are taken in does not matter.
    """
    f = len(s)
    rhs = []
    for start in range(f):
        r = 0  # Horner's rule over the block read cyclically from start
        for k in range(start, start + f):
            r = r * p + den - s[k % f]
        rhs.append(r)
    # self-anchored inequality bound: p^{f-1} d <= weighted rhs
    top = p ** (f - 1)
    lo = [0] * f
    hi = [min(den, r // top) for r in rhs]
    if generic_active:
        zero_one = all(v == 0 or v == den for v in s)
        for pos in range(f):
            if s[pos] == den:
                hi[pos - 1] = min(hi[pos - 1], 0)
            if zero_one:
                if s[pos] == den and s[(pos + 1) % f] == 0:
                    lo[pos] = max(lo[pos], _ceil_div(den, p))
                else:
                    hi[pos] = min(hi[pos], 0)
    if pin is not None:
        pos0, plo, phi = pin
        lo[pos0] = max(lo[pos0], plo)
        hi[pos0] = min(hi[pos0], phi)
    wlo = []
    whi = []
    for pos in range(f):
        # hodge_height times den: min(x, y) when they differ, else [x, den].
        # Entries lie in [0, den], so both values do and its clamp never bites.
        x = p * s[pos - 1]
        y = den - s[pos]
        m = x if x < y else y
        wlo.append(m)
        whi.append(m if x != y else den)
    return lo, hi, wlo, whi, rhs


def _block_plan(p: int, den: int, s: tuple[int, ...], generic_active: bool, pin) -> BlockPlan:
    """The block's `_plan_bounds`, the ranges cut in place by `_prune`, in
    one `BlockPlan`."""
    lo, hi, wlo, whi, rhs = _plan_bounds(p, den, s, generic_active, pin)
    _prune(p, den, lo, hi, wlo, whi, rhs)
    return BlockPlan(p, len(s), den, tuple(lo), tuple(hi), tuple(wlo), tuple(whi), tuple(rhs))


def _hodge_edge_ranges(plan: BlockPlan, pos, a_prev) -> list[tuple[int, int]]:
    """Disjoint closed ranges of a_cur passing the height edge at pos, ascending.

    With x = p*a_prev and y = den - a_cur the d-side height is min(x, y)
    exactly when x != y and the interval [x, den] otherwise; the three
    branches below solve each case against the h-side window, in the order
    y > x, y = x, y < x.
    """
    den = plan.den
    x = plan.p * a_prev
    wlo, whi = plan.wlo[pos], plan.whi[pos]
    ranges = []
    if x < den and wlo <= x <= whi:
        ranges.append((0, den - x - 1))
    if x <= den and x <= whi:
        ranges.append((den - x, den - x))
    lo2 = max(den - whi, den - x + 1, 0)
    hi2 = min(den - wlo, den)
    if lo2 <= hi2:
        ranges.append((lo2, hi2))
    return ranges


def _pred_branches(p, den, wlo, whi, clo, chi) -> tuple[int, int, int, int, int, int]:
    """(lo1, hi1, lo2, hi2, lo3, hi3): the entry before an edge of h-side
    window [wlo, whi] passes it with some entry after it in [clo, chi]
    exactly on these three closed ranges; a range with lo > hi is empty.

    With x = p*a_prev and y = den - a_cur as in `_hodge_edge_ranges`, the
    branches solve y > x, y = x and y < x for a_prev.  For one a_cur
    (clo == chi) the nonempty ranges are disjoint and ascending.
    """
    top = min(whi, den - clo)
    y = max(wlo, den - chi)  # the least y in the window
    return (
        _ceil_div(wlo, p),
        min(whi, den - clo - 1) // p,
        _ceil_div(den - chi, p),
        top // p,
        y // p + 1 if y <= top else den + 1,
        den,
    )


def _pred_ranges(plan: BlockPlan, pos, clo, chi) -> list[tuple[int, int]]:
    """The nonempty `_pred_branches` of the height edge at pos, as ranges."""
    b = _pred_branches(plan.p, plan.den, plan.wlo[pos], plan.whi[pos], clo, chi)
    return [(b[i], b[i + 1]) for i in (0, 2, 4) if b[i] <= b[i + 1]]


def _prune(p, den, lo, hi, wlo, whi, rhs) -> None:
    """Cut the bounds lo/hi of a block, in place, by bounds consistency
    around the cycle.

    A round first caps each entry by every anchored inequality with the other
    entries at their lower bounds.  Then, from the last entry back to the
    first, entry q keeps the hull of the values in its bounds that some value
    of entry q + 1 within its bounds supports across the height edge at
    q + 1 (`_pred_branches`; the wrap edge for q = f - 1).  Rounds repeat
    until no bound moves or a range is empty.  Only values that start no
    feasible tuple are cut; the bounds may stay wider than that.
    """
    f = len(lo)
    top = p ** (f - 1)
    moved = all(lo[q] <= hi[q] for q in range(f))
    while moved:
        moved = False
        for start in range(f):
            total = 0
            for k in range(start, start + f):
                total = total * p + lo[k % f]
            w = top
            for k in range(start, start + f):
                q = k % f
                cap = (rhs[start] - total) // w + lo[q]
                if cap < hi[q]:
                    hi[q] = cap
                    moved = True
                w //= p
        for q in reversed(range(f)):
            nxt = (q + 1) % f
            cur_lo, cur_hi = lo[q], hi[q]
            new_lo, new_hi = cur_hi + 1, cur_lo - 1
            if lo[nxt] <= hi[nxt]:
                b = _pred_branches(p, den, wlo[nxt], whi[nxt], lo[nxt], hi[nxt])
                for i in (0, 2, 4):
                    rlo = b[i] if b[i] > cur_lo else cur_lo
                    rhi = b[i + 1] if b[i + 1] < cur_hi else cur_hi
                    if rlo <= rhi:
                        if rlo < new_lo:
                            new_lo = rlo
                        if rhi > new_hi:
                            new_hi = rhi
            if new_lo != cur_lo or new_hi != cur_hi:
                lo[q], hi[q] = new_lo, new_hi
                moved = new_lo <= new_hi
                if not moved:
                    break


def _self_edge_ranges(plan: BlockPlan) -> list[tuple[int, int]]:
    """Ranges of the entry of a size-1 block passing its self edge, ascending.

    The edge at pos 0 couples the entry a with itself: x = p*a and
    y = den - a, so y > x, y = x and y < x hold for a below, at and above
    den / (p + 1).
    """
    den, p = plan.den, plan.p
    wlo, whi = plan.wlo[0], plan.whi[0]
    cut = den // (p + 1)
    ranges = []
    lo1, hi1 = _ceil_div(wlo, p), min(whi // p, (den - 1) // (p + 1))
    if lo1 <= hi1:
        ranges.append((lo1, hi1))
    if (p + 1) * cut == den and p * cut <= whi:
        ranges.append((cut, cut))
    lo3, hi3 = max(cut + 1, den - whi), den - wlo
    if lo3 <= hi3:
        ranges.append((lo3, hi3))
    return ranges


def _last_ranges(plan: BlockPlan, prefix) -> list[tuple[int, int]]:
    """Ranges of the last entry that complete `prefix`, the first f - 1
    entries, ascending.

    The height edges into the last entry and around the wrap (the self edge
    when f = 1) give one to three ranges.  The bounds and one upper bound per
    anchored inequality clip them, so every value left passes every family
    when the prefix lies within the bounds.
    """
    p, f = plan.p, plan.f
    last = f - 1
    lo, hi = plan.lo[last], plan.hi[last]
    if f == 1:
        ranges = _self_edge_ranges(plan)
    else:
        ranges = _intersect_ranges(
            _hodge_edge_ranges(plan, last, prefix[last - 1]),
            _pred_ranges(plan, 0, prefix[0], prefix[0]),  # the wrap edge
        )
    # with the last entry at 0, each anchored sum caps it; its weight in the
    # sum anchored at start is p^start
    d = (*prefix, 0)
    w = 1
    for start in range(f):
        total = 0
        for k in range(start, start + f):
            total = total * p + d[k % f]
        cap = (plan.rhs[start] - total) // w
        if cap < hi:
            hi = cap
        w *= p
    out = []
    for rlo, rhi in ranges:
        rlo, rhi = max(rlo, lo), min(rhi, hi)
        if rlo <= rhi:
            out.append((rlo, rhi))
    return out


def _intersect_ranges(r1, r2) -> list[tuple[int, int]]:
    out = []
    for lo1, hi1 in r1:
        for lo2, hi2 in r2:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                out.append((lo, hi))
    return out


Run = tuple[tuple[int, ...], int, int]


def _block_runs(plan: BlockPlan) -> list[Run]:
    """The block's candidates as runs (prefix, lo, hi), in lexicographic order.

    A run stands for the tuples prefix + (a,) with lo <= a <= hi.  The
    prefixes grow one entry at a time, in ascending order: the first entry
    over its bounds (pruned by `_prune`), a middle entry over the disjoint
    ascending ranges `_hodge_edge_ranges` leaves within its bounds.  The last
    entry is solved as ranges by `_last_ranges`.
    """
    f, lo, hi = plan.f, plan.lo, plan.hi
    if any(lo[pos] > hi[pos] for pos in range(f)):
        return []
    prefixes = [()] if f == 1 else [(a,) for a in range(lo[0], hi[0] + 1)]
    for pos in range(1, f - 1):
        prefixes = [
            prefix + (a,)
            for prefix in prefixes
            for rlo, rhi in _hodge_edge_ranges(plan, pos, prefix[-1])
            for a in range(max(rlo, lo[pos]), min(rhi, hi[pos]) + 1)
        ]
    return [
        (prefix, rlo, rhi) for prefix in prefixes for rlo, rhi in _last_ranges(plan, prefix)
    ]


def _run_failures(plan: BlockPlan, prefix, lo, hi) -> int:
    """`_quotient_vcan_failures` summed over the run's tuples.

    Each test is linear in the last entry, so it fails on a tail of the run.
    """
    p, f, den = plan.p, plan.f, plan.den
    if f == 1:
        return 1 if lo <= den <= hi else 0
    pden = p * den
    n = hi - lo + 1
    fails = 0
    for pos in range(f - 2):
        if p * prefix[pos] + prefix[pos + 1] >= pden:
            fails += n
    # p * (entry f-2) + a >= p*den, and p * a + (entry 0) >= p*den
    fails += max(0, hi - max(lo, pden - p * prefix[-1]) + 1)
    fails += max(0, hi - max(lo, _ceil_div(pden - prefix[0], p)) + 1)
    return fails


def _pin_for(stratum: StratumCase, scaled, den: int):
    """Pinned range (beta0, lo, hi) at the free coordinate, or None.

    `stratum` is the point's `stratum_case`.  This pin is the sweep's one
    use of the local model on a bad stratum.  It reads the stratum alone: a
    pin is asked for only where the genericity families apply, so with h
    generic, and `StratumCase.decide` makes a generic `bad_partial_eta`
    point In or Indeterminate, never Out.  The range is `bk_newton_degree`'s
    value times den, compared in integers: the threshold delta_j when the
    free value lies above it (empty when delta_j is off the grid), the free
    value below it, and at least the free value at it.  `bk_newton_degree`
    stays the `Fraction` definition the tests check this range against.
    """
    if stratum.kind != "bad_partial_eta":
        return None
    beta0, s = stratum.beta0, scaled[stratum.beta0]
    q = stratum.threshold.denominator
    pinned = stratum.threshold.numerator * den  # delta_j * den, times q
    if s * q > pinned:
        if pinned % q:
            return beta0, 1, 0  # off-grid pin: empty range
        return beta0, pinned // q, pinned // q
    if s * q < pinned:
        return beta0, s, s
    return beta0, s, den


def _off_grid_pins(p: int, f, den: int) -> list[tuple[int, Fraction]]:
    """(j, delta_j) of each j at which a generic sweep of the profile with
    prime p and block sizes f, on the 1/den grid, holds an In point whose
    pin `_pin_for` leaves empty, so that the point checks no d.

    Such a point is a `bad_partial_eta` point: beta0 Open, then a run of j
    Zeros, then a One, inside one block, so the block has f >= j + 2; every
    other block all One keeps the face nowhere etale.  Its pin is empty
    exactly when its free value t lies above delta_j and delta_j * den is
    not an integer.  delta_j has denominator p^j (`regions.delta`), so the
    second test is p^j not dividing den, and some t in 1..den-1 lies above
    delta_j exactly when den - 1 does.  Saturation counts no such point:
    beta0's block holds a One, so its sum exceeds den, above the window.
    """
    out = []
    for j in range(1, max(f) - 1):
        threshold = delta(p, j)
        if den % threshold.denominator and (den - 1) * threshold.denominator > (
            threshold.numerator * den
        ):
            out.append((j, threshold))
    return out


def _block_keys(profile: PrimeProfile, scaled, den: int, generic_active: bool, stratum):
    """(block of scaled, local pin) of every block: what `_block_plan` reads
    of the point, p, den and the genericity flag aside; the pin only where
    the genericity families apply."""
    pin = _pin_for(stratum, scaled, den) if generic_active else None
    for f, off in zip(profile.f, profile.offsets):
        local_pin = None
        if pin is not None and off <= pin[0] < off + f:
            local_pin = (pin[0] - off, pin[1], pin[2])
        yield scaled[off : off + f], local_pin


def _blocks(
    profile: PrimeProfile, scaled, den: int, generic_active: bool, stratum, table: dict
):
    """(plan, runs) of every block of the scaled h, read from `table` by its
    `_block_keys` key and planned only on a miss.  A table holds one sweep's
    blocks, or one call's when it is a fresh `{}`."""
    out = []
    for key in _block_keys(profile, scaled, den, generic_active, stratum):
        block = table.get(key)
        if block is None:
            plan = _block_plan(profile.p, den, key[0], generic_active, key[1])
            block = table[key] = plan, _block_runs(plan)
        out.append(block)
    return out


def _feasible_tuples(blocks):
    """The scaled d of the blocks' runs, in lexicographic order."""
    lists = [
        [prefix + (a,) for prefix, lo, hi in runs for a in range(lo, hi + 1)]
        for _, runs in blocks
    ]
    for combo in product(*lists):
        yield sum(combo, ())


def feasible_d_grid(
    h: DegreeVector, den: int, drop_genericity: bool = False
) -> list[DegreeVector]:
    """Subgroup degree vectors on the 1/den grid passing every necessary family.

    The families: anchored Raynaud inequalities (always), genericity
    constraints and ordinary-block rules (when h.generic and not dropped),
    Hodge-interval consistency (always), and the pinned free coordinate on
    bad codimension-1 strata with partial eta (when h.generic and not
    dropped).  Membership here is necessary, not sufficient, for d to arise
    from the correspondence.  h must lie on the 1/den grid and den must be
    at least 1, else ValueError.
    """
    if den < 1:
        raise ValueError(f"den must be at least 1, got {den}")
    if h.cusp:
        raise CuspInput("feasible degrees are not defined for cusp vectors")
    if h.profile.g * den > GRID_CAP:
        raise GridTooLarge(f"{h.profile.g} * {den} exceeds cap {GRID_CAP}")
    scaled = _on_grid(h, den)
    stratum = stratum_case(h.profile, *_entry_masks(scaled, den))
    blocks = _blocks(h.profile, scaled, den, h.generic and not drop_genericity, stratum, {})
    return [
        DegreeVector(h.profile, tuple(Fraction(a, den) for a in d))
        for d in _feasible_tuples(blocks)
    ]


# ---------------------------------------------------------------------------
# grid sweeps


def _cx_record(profile: PrimeProfile, den, h_scaled, d_scaled, beta, lhs) -> dict:
    def degs(scaled):
        return {profile.label(k): str(Fraction(a, den)) for k, a in enumerate(scaled)}

    lhs = str(Fraction(lhs, den))
    return {"h": degs(h_scaled), "d": degs(d_scaled), "beta": beta, "lhs": lhs}


class Windows(NamedTuple):
    """What saturation reads besides the stratum: each block's window in
    integers, (off, f, lo, hi) as `_windows` builds it, and `grid`, the
    den + 1 values a / den for a = 0..den, from which `_point_in` builds a
    point's `DegreeVector` without a `Fraction` call per entry."""

    blocks: tuple[tuple[int, int, int, int], ...]
    grid: tuple[Fraction, ...]


def _windows(profile: PrimeProfile, den: int) -> Windows:
    """Saturation's window of each block in integers: (off, f, lo, hi) such
    that the block's sum s of the scaled h, over den, lies strictly inside
    the block's `istar_interval` exactly when lo < s < hi.  For an integer s,
    s > x * den iff s > floor(x * den), and s < y * den iff s < ceil(y * den).
    `regions.in_interval_region` is the `Fraction` oracle the tests check
    this window and `_within` against.  The grid values are built here, once
    per sweep.
    """
    out = []
    for f, off in zip(profile.f, profile.offsets):
        window = istar_interval(profile.p, f)
        lo = window.lo.numerator * den // window.lo.denominator
        hi = _ceil_div(window.hi.numerator * den, window.hi.denominator)
        out.append((off, f, lo, hi))
    return Windows(tuple(out), tuple(Fraction(a, den) for a in range(den + 1)))


def _within(windows: Windows, scaled) -> bool:
    return all(lo < sum(scaled[off : off + f]) < hi for off, f, lo, hi in windows.blocks)


def _point_in(profile, den, windows, scaled, stratum) -> tuple[bool, bool]:
    """(in, pure) of one grid point, the scaled h on `stratum`: its
    `StratumCase` verdict and, on a saturation sweep (`windows` is the
    sweep's `_windows`, else None), the window test and the purity round
    trip.

    The round trip runs in full at every In point: it builds the point's
    `DegreeVector` from the grid values, serializes it with `to_json_dict`,
    parses that back with `DegreeVector.from_json_dict`, and decides the
    parsed vector with `sigma_case`, from its strings alone.  Only the grid
    values are shared between points, and no verdict is."""
    free = 0 if stratum.beta0 is None else scaled[stratum.beta0]
    if stratum.decide(True, free, den) is not Verdict.IN:
        return False, True
    if windows is None:
        return True, True
    # structural check: membership reads only the serialized data
    grid = windows.grid
    h = DegreeVector(profile, tuple([grid[a] for a in scaled]), generic=True)
    back = DegreeVector.from_json_dict(profile, h.to_json_dict())
    pure = sigma_case(back)[1] is Verdict.IN
    return _within(windows, scaled), pure


def _block_count(plan: BlockPlan) -> tuple[int, int]:
    """(candidates, failures) of one block, counted on its runs."""
    candidates = failures = 0
    for prefix, lo, hi in _block_runs(plan):
        candidates += hi - lo + 1
        failures += _run_failures(plan, prefix, lo, hi)
    return candidates, failures


def _fold(counts) -> tuple[int, int]:
    """(pairs, cx_total) of a point from its blocks' (candidates, failures).

    The quotient test is blockwise, so over the blocks' candidate lists L_i,
    pairs = prod |L_i| and cx_total = sum_i fail_i * prod_{k != i} |L_k|.
    """
    sizes = [n for n, _ in counts]
    cx_total = 0
    for i, (_, fails) in enumerate(counts):
        if fails:
            cx_total += fails * prod(sizes[:i]) * prod(sizes[i + 1 :])
    return prod(sizes), cx_total


def _canonical(profile: PrimeProfile, scaled) -> tuple[int, ...]:
    """The least image of `scaled` under G.

    Each block is rotated to its least rotation; within each class of
    equal-size blocks those contents are sorted and put back on the class's
    positions in ascending order.  No image other than the least one is
    built.

    One call on a cell's first point (`_cells`) decides the whole cell.  Off
    the free coordinate every entry is 0 or den, and the free value t lies
    strictly between, 0 < t < den.  An image of an edge point under G moves
    t to some position and keeps the other entries 0 or den, and where t
    sits does not depend on t.  So whether two images agree at a position
    does not depend on t, and where they first differ, their two entries
    are two of 0, t and den, whose order is the same for every t in
    (0, den).  Which image is least is therefore the same at every t: the
    cell's points are all canonical or none is.  One element of G takes
    every point of the cell to its least image and t to one position, so
    the least image of the point at t is the point at t of one cell, the
    canonical cell, whose first point is the least image of the cell's
    first point.  G maps cells to cells and the point at t of a cell to the
    point at t of its image, so the orbit of the point at t is the set of
    points at t of the cells in its cell's orbit: its size is the number of
    cells whose canonical cell is the same (`_orbits`).
    """
    classes: dict[int, list] = {}
    for f, off in zip(profile.f, profile.offsets):
        block = scaled[off : off + f]
        if f > 1:
            block = min(block[k:] + block[:k] for k in range(f))
        classes.setdefault(f, []).append((off, block))
    out = list(scaled)
    for f, members in classes.items():
        for (off, _), block in zip(members, sorted(block for _, block in members)):
            out[off : off + f] = block
    return tuple(out)


def _orbits(profile: PrimeProfile, den: int) -> dict:
    """The first point of every cell's canonical cell, keyed by the cell's
    first point: one `_canonical` call per cell.  The orbit size of a
    canonical cell's points is the number of cells mapped to it
    (`_canonical`'s argument), so `Counter(_orbits(...).values())` holds
    the orbit sizes, keyed by the canonical cells."""
    return {first: _canonical(profile, first) for first, _ in _cells(profile.g, den)}


def _cells(g: int, den: int):
    """The cells of the cube as (first point, free coordinate), scaled.

    A cell is one of the 2**g vertices (free coordinate None), or, when
    den >= 2, one of the g * 2**(g-1) open edges: a base of 0/den entries
    and the free coordinate beta, whose points take 1..den-1 at beta.  The
    first point of an edge takes 1.  The cells partition the cube's
    2**g + g * 2**(g-1) * (den-1) vertices and open-edge points.
    """
    for vertex in product((0, den), repeat=g):
        yield vertex, None
    if den >= 2:
        for beta in range(g):
            for corner in product((0, den), repeat=g - 1):
                yield corner[:beta] + (1,) + corner[beta:], beta


def _cell_point(cell, t):
    """The scaled point of a cell at free value t; a vertex (t None) is its
    own one point."""
    first, beta = cell
    return first if beta is None else first[:beta] + (t,) + first[beta + 1 :]


def _cell_points(cell, den: int, start: int = 0, step: int = 1):
    """The scaled points of a cell, the free value ascending: from its
    start-th point, every step-th."""
    free = (None,) if cell[1] is None else range(1, den)
    return (_cell_point(cell, t) for t in free[start::step])


def _held_cells(g: int, den: int, n: int, k: int):
    """(cell, start) of each cell, in `_cells` order, holding points of share
    k of n.  Numbered in `_cells` order, the cube's points of index k mod n
    are the share's, and start is the index within the cell of its first."""
    index = 0  # of the cell's first point
    for cell in _cells(g, den):
        size = 1 if cell[1] is None else den - 1
        start = (k - index) % n
        if start < size:
            yield cell, start
        index += size


def _total(results) -> tuple[int, bool, int, int, dict]:
    """Fold `_share` results: sums, an AND, and the set of free values at
    which each canonical cell failed.  None of these depends on the order of
    `results`."""
    points_in = pairs = cx_total = 0
    pure = True
    failed = {}
    for part_in, part_pure, part_pairs, part_cx, part_failed in results:
        points_in += part_in
        pure = pure and part_pure
        pairs += part_pairs
        cx_total += part_cx
        for canon, free in part_failed.items():
            failed.setdefault(canon, set()).update(free)
    return points_in, pure, pairs, cx_total, failed


def _share(profile, den, drop_genericity, windows, sizes, n, k):
    """Share k of n of the counting pass: (points_in, pure, pairs, cx_total,
    failed) of the cube's points of index k mod n (`_held_cells`).

    `sizes` maps each canonical cell's first point to its orbit size
    (`Counter` of `_orbits`); a cell is canonical exactly when its first
    point is a key.  A cell visited decides its stratum once from its face
    masks, and each point held its own verdict.  On sigma-up only the
    canonical cells are visited.  On saturation every cell held is, since
    each point gets its window test and purity round trip, a per-point
    check.  Only a canonical cell counts, for its whole orbit: at each of its
    In points it adds the orbit size to points_in, and its pairs and
    failures times the orbit size.  Each block's (candidates, failures) is
    looked up in the share's one table by its `_block_keys` key, and planned
    and counted only on a miss.  `failed` maps a canonical cell's first
    point to the set of free values of its held points that have failures.
    """
    generic = not drop_genericity
    table = {}
    points_in = pairs = cx_total = 0
    pure = True
    failed = {}
    for cell, start in _held_cells(profile.g, den, n, k):
        first, beta = cell
        size = sizes.get(first)
        if size is None and windows is None:
            continue
        stratum = stratum_case(profile, *_entry_masks(first, den))
        for scaled in _cell_points(cell, den, start, n):
            point_in, point_pure = _point_in(profile, den, windows, scaled, stratum)
            pure = pure and point_pure
            if not point_in or size is None:
                continue
            points_in += size
            counts = []
            for key in _block_keys(profile, scaled, den, generic, stratum):
                count = table.get(key)
                if count is None:
                    plan = _block_plan(profile.p, den, key[0], generic, key[1])
                    count = table[key] = _block_count(plan)
                counts.append(count)
            point_pairs, point_cx = _fold(counts)
            pairs += size * point_pairs
            cx_total += size * point_cx
            if point_cx:
                t = None if beta is None else scaled[beta]
                failed.setdefault(first, set()).add(t)
    return points_in, pure, pairs, cx_total, failed


def _share_child(conn, *args) -> None:
    """Process entry of a share: send (True, result), or (False, the
    exception) when the share raises, and close the pipe."""
    try:
        conn.send((True, _share(*args)))
    except Exception as exc:
        conn.send((False, exc))
    finally:
        conn.close()


def _records(profile: PrimeProfile, den: int, generic: bool, orbits, failed):
    """The sweep's failures as (h_scaled, d_scaled, beta, lhs), ordered by h,
    then d, then beta; lhs is times den.

    `orbits` is the sweep's `_orbits` and `failed` is `_total`'s.  A cell
    fails at the free values where its canonical cell failed (`_canonical`'s
    argument), so each cell of `_cells` reads its canonical cell from
    `orbits` and, where that cell failed, streams its points there, t
    ascending, with the cell's stratum; `merge` makes one lexicographic
    stream of them.  The cells' points are distinct, so no two strata are
    compared.  Each point's failures are expanded from its blocks' runs,
    read by `_blocks` from the pass's one table of plans and runs, so each
    distinct block is planned once.
    """
    streams = []
    for cell in _cells(profile.g, den):
        free = failed.get(orbits[cell[0]])
        if free:
            stratum = stratum_case(profile, *_entry_masks(cell[0], den))
            streams.append([(_cell_point(cell, t), stratum) for t in sorted(free)])
    table = {}
    for scaled, stratum in merge(*streams):
        blocks = _blocks(profile, scaled, den, generic, stratum, table)
        for d_scaled in _feasible_tuples(blocks):
            for beta, lhs in _quotient_vcan_failures(profile, d_scaled, den):
                yield scaled, d_scaled, beta, lhs


def _check_sweep(profile: PrimeProfile, den: int, workers: int) -> None:
    """Refuse a sweep's den, worker count and grid before any work: den at
    least 1, 1 to `MAX_WORKERS` workers, g * den at most `GRID_CAP` and g at
    most `strata.ENUMERATION_MAX_G`.  Each refusal is a `ValueError`."""
    if den < 1:
        raise ValueError(f"den must be at least 1, got {den}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be between 1 and {MAX_WORKERS}, got {workers}")
    g = profile.g
    if g * den > GRID_CAP:
        raise GridTooLarge(f"{g} * {den} exceeds cap {GRID_CAP}")
    if g > ENUMERATION_MAX_G:
        raise EnumerationBound(f"g={g} exceeds enumeration bound {ENUMERATION_MAX_G}")


def _run_sweep(
    profile: PrimeProfile,
    den: int,
    drop_genericity: bool,
    saturation_only: bool,
    max_counterexamples: int,
    workers: int,
) -> dict:
    """Sweep the grid points in two passes and fold the results.

    The sweep refuses its arguments (`_check_sweep`, and a negative record
    cap) before it walks a cell or starts a process.
    `_orbits` then maps every cell of the cube (`_cells`) to its canonical
    cell, once, here in the parent, and the orbit sizes are its counts.
    The counting pass counts each orbit once, at its canonical cell: each
    cell it visits decides its stratum once, each point its verdict, and a
    canonical In point folds its blocks' (candidates, failures) from a
    table keyed by (block of the scaled h, local pin), the arguments of
    `_block_plan` that vary within a sweep; p, den and the genericity flag
    are the sweep's own.  Saturation's windows are built once here.  The pass
    is split into n = min(workers, cells) shares (`_share`), each given the
    orbit sizes: share k takes every n-th point of the cube from the k-th,
    so each edge is spread over all shares, and keeps one block table.  A
    share sends back its four counts and the free values at which each
    canonical cell failed.  The parent runs share 0 itself and starts one
    process with a one-way pipe for each other share, so one worker starts
    no process.  The counts fold by `_total`, so they depend neither on the
    order the shares finish in nor on the worker count or the start method.
    A share's exception is raised again in the parent, and every child is
    joined before the sweep returns or raises, terminated first if anything
    raised.  When there are failures to keep, the record pass (`_records`)
    runs in the parent on the cells whose canonical cell failed, read from
    the same map, at the free values where it failed, and stops once
    `max_counterexamples` records are kept: the lexicographically first by
    embedding index, with no sort.
    """
    _check_sweep(profile, den, workers)
    if max_counterexamples < 0:
        raise ValueError(
            f"max_counterexamples must be at least 0, got {max_counterexamples}"
        )
    g = profile.g
    total = 2**g + g * 2 ** (g - 1) * (den - 1)
    windows = _windows(profile, den) if saturation_only else None
    orbits = _orbits(profile, den)
    n = min(workers, len(orbits))  # at most the cells
    args = (profile, den, drop_genericity, windows, Counter(orbits.values()), n)
    children = []
    try:
        for k in range(1, n):
            conn, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_share_child, args=(send, *args, k))
            child.start()
            send.close()
            children.append((child, conn))
        results = [_share(*args, 0)]
        for _, conn in children:
            ok, result = conn.recv()
            if not ok:
                raise result
            results.append(result)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, conn in children:
            child.join()
            conn.close()
    points_in, pure, pairs, cx_total, failed = _total(results)
    cx = []
    if failed and max_counterexamples:
        for record in _records(profile, den, not drop_genericity, orbits, failed):
            cx.append(record)
            if len(cx) == max_counterexamples:
                break
    report = {
        "schema": "1",
        "check": "saturation" if saturation_only else "sigma-up",
        "profile": profile.to_json_dict(),
        "den": den,
        "scenario": {"drop_genericity": drop_genericity, "generic": True},
        "grid_points": total,
        "points_in": points_in,
        "pairs_checked": pairs,
        "counterexample_total": cx_total,
        "counterexamples": [_cx_record(profile, den, *rec) for rec in cx],
        "pass": cx_total == 0,
    }
    if saturation_only:
        report["membership_pure"] = pure
        report["pass"] = report["pass"] and pure
    return report


def verify_sigma_up(
    profile: PrimeProfile,
    den: int,
    drop_genericity: bool = False,
    max_counterexamples: int = 5,
    workers: int = 1,
) -> dict:
    """Sweep all In grid points; every feasible d must keep the quotient canonical.

    Counterexamples are reported as (h, d, beta, lhs) records, the first in
    embedding-index order, capped at max_counterexamples; the total is exact.
    """
    return _run_sweep(profile, den, drop_genericity, False, max_counterexamples, workers)


def saturation_check(
    profile: PrimeProfile,
    den: int,
    max_counterexamples: int = 5,
    workers: int = 1,
) -> dict:
    """Restrict the sweep to the per-prime saturation windows.

    Also asserts structurally that membership depends on the degree vector
    alone by re-deciding it through a serialization round trip.
    """
    return _run_sweep(profile, den, False, True, max_counterexamples, workers)
