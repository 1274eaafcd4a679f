"""Membership predicates for valuation regions on the degree cube.

The central predicate is three-valued: In, Out, or Indeterminate.  A point
qualifies only when its stratum has codimension at most 1 and no block is
entirely Zero; codimension-1 points split by goodness, and the bad cases gate
on the free coordinate against geometric series thresholds.  Everything is
exact.  The queries read a vector's entries as integers over its one
denominator (`DegreeVector.scaled` and `den`) and compare them with the
thresholds' numerators and denominators; `in_interval_region` reads the
`Fraction` view and stays the oracle of hecke's integer windows.

A point's stratum is named by its face masks, the entries equal to 0 and
those equal to 1, and `strata._face_class` decides it on them.  A chart is
decided from one `StratumCase`, which `stratum_case` builds from that tuple
with no `StratumClass` between.  The three kinds that carry no data (etale,
codimension 0, codimension at least 2) are module constants: they are
values, like `delta`'s, not decisions, so no decision is cached.  Charts and
the coverage check work on the same masks: the chart of T flips v -> 1 - v
on T's blocks, which `strata._swap_on` does by swapping the two masks there,
so no flipped vector is built.  The union over every T inside S is decided
from at most two charts: T0, the all-Zero blocks of S, and on a
codimension-1 point whose Open entry's block is in S also T0 plus that
block (`in_sigma_S` argues why no other chart can add to them).  The
coverage check needs only whether a flipped face is etale, which is whether
some block is all Zero after the flip, so it names no stratum and decides
coverage per block: each flip picks a block from the face's pattern on that
block alone, so one table per block size and flip, of the patterns it
leaves all Zero, decides every face (`coverage_check` argues it).  The
tables are empty, so only the p = 2 gaps fail, and faces are walked only to
write those records.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import product

from .degrees import DegreeVector, _entry_masks
from .embeddings import PrimeProfile
from .strata import (
    ENUMERATION_MAX_G,
    Badness,
    EnumerationBound,
    _face_class,
    _prime_blocks,
    _swap_on,
    _whole_blocks,
)

__all__ = [
    "Verdict",
    "StratumCase",
    "IntervalQ",
    "delta",
    "delta_star",
    "istar_interval",
    "in_interval_region",
    "in_vcan",
    "stratum_case",
    "sigma_case",
    "in_sigma",
    "in_sigma_S",
    "coverage_check",
    "CoverageReport",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class Verdict(Enum):
    IN = "in"
    OUT = "out"
    INDETERMINATE = "indeterminate"


@cache
def delta(p: int, j: int) -> Fraction:
    """Partial geometric sum 1/p + ... + 1/p^j, for p >= 2.

    In closed form it is (p^j - 1) / (p - 1) over p^j, in lowest terms: the
    numerator 1 + p + ... + p^(j-1) is 1 mod p.  It is a pure function of
    two small integers, so each value is built once per process and shared:
    `stratum_case` asks for it at every bad point.  No decision is cached: a
    chart is decided from one `StratumCase` built per call, and only the
    data-free kinds (etale, codim 0, codim >= 2) are shared constants, which
    are values and not decisions.
    """
    if j < 1:
        raise ValueError(f"delta needs j >= 1, got {j}")
    q = p**j
    return Fraction((q - 1) // (p - 1), q)


def delta_star(p: int, f: int) -> Fraction:
    """Full tail sum for a block of size f; zero when f = 1."""
    return delta(p, f - 1) if f > 1 else ZERO


@dataclass(frozen=True)
class IntervalQ:
    """The open interval (lo, hi)."""

    lo: Fraction
    hi: Fraction

    def contains(self, v: Fraction) -> bool:
        return self.lo < v < self.hi

    def to_json_list(self) -> list:
        return [str(self.lo), str(self.hi)]


def istar_interval(p: int, f: int) -> IntervalQ:
    """Per-prime saturation window for total block degree."""
    return IntervalQ(delta_star(p, f), ONE) if f > 1 else IntervalQ(ZERO, ONE)


def in_interval_region(h: DegreeVector) -> bool:
    """Whether every block's total degree lies in its saturation window."""
    profile = h.profile
    return all(
        istar_interval(profile.p, profile.f[i]).contains(h.deg_prime(i))
        for i in range(profile.n_primes)
    )


def in_vcan(h: DegreeVector) -> bool:
    """Canonical-locus test: blockwise p*pred + value > 1, or value > 0 when f=1.

    With the entries a / den, the test is p*a_pred + a > den, in integers.
    """
    profile = h.profile
    p, den, scaled = profile.p, h.den, h.scaled
    for f, off in zip(profile.f, profile.offsets):
        if f == 1:
            if scaled[off] <= 0:
                return False
            continue
        a = scaled[off + f - 1]
        for b in scaled[off : off + f]:
            if p * a + b <= den:
                return False
            a = b
    return True


@dataclass(frozen=True)
class StratumCase:
    """What a point's stratum alone decides of its membership.

    The stratum is named by two masks: the entries equal to 0 and the entries
    equal to 1.  They are the same at every point of an open edge of the
    cube, so a sweep decides this once per edge and leaves only the free
    value at beta0, which `decide` compares with the threshold in integers.
    """

    kind: str  # etale | codim_ge2 | codim0 | good | bad_full_eta | bad_partial_eta
    beta0: int | None = None
    j: int | None = None
    threshold: Fraction | None = None  # delta_star for 2b, delta_j for 2c

    def decide(self, generic: bool, num: int, den: int) -> Verdict:
        """The verdict at a point whose free value, at beta0, is num / den (den > 0)."""
        kind = self.kind
        if kind in ("etale", "codim_ge2"):
            return Verdict.OUT
        if kind in ("codim0", "good"):
            return Verdict.IN if generic else Verdict.OUT
        free = num * self.threshold.denominator
        thr = self.threshold.numerator * den
        if kind == "bad_full_eta":
            # membership is the open interval above the tail sum and needs no
            # generic flag
            return Verdict.IN if free > thr else Verdict.OUT
        if not generic:
            return Verdict.OUT
        return Verdict.INDETERMINATE if free == thr else Verdict.IN


# The kinds that carry no data, as values: every stratum of one of these
# kinds decides the same, so `stratum_case` returns the one value.
_ETALE = StratumCase("etale")
_CODIM0 = StratumCase("codim0")
_CODIM_GE2 = StratumCase("codim_ge2")


def stratum_case(profile: PrimeProfile, zeros: int, ones: int) -> StratumCase:
    """Stratum data of the points whose entries are 0 on `zeros`, 1 on `ones`
    and strictly between on the rest, read off `strata._face_class`."""
    nowhere, badness, beta0, j = _face_class(profile, zeros, ones)
    if not nowhere:
        return _ETALE
    if badness is Badness.NOT_CODIM1:
        return _CODIM0 if zeros | ones == profile.full_mask else _CODIM_GE2
    if badness is Badness.GOOD:
        return StratumCase("good", beta0)
    p = profile.p
    if j is None:
        thr = delta_star(p, profile._block_of[beta0].bit_count())
        return StratumCase("bad_full_eta", beta0, None, thr)
    return StratumCase("bad_partial_eta", beta0, j, delta(p, j))


def sigma_case(h: DegreeVector) -> tuple[StratumCase, Verdict]:
    """The stratum data of h and its verdict, read off h's integers."""
    scaled, den = h.scaled, h.den
    stratum = stratum_case(h.profile, *_entry_masks(scaled, den))
    free = 0 if stratum.beta0 is None else scaled[stratum.beta0]
    return stratum, stratum.decide(h.generic, free, den)


def in_sigma(h: DegreeVector) -> Verdict:
    """Three-valued membership of a degree vector in the base region."""
    return sigma_case(h)[1]


def in_sigma_S(h: DegreeVector, S) -> Verdict:
    """Union of transported regions over all subsets T of S, decided from at
    most two charts.

    Each chart is decided on h's masks swapped on T's blocks, with free value
    1 - h at beta0 in a flipped block, passed to `decide` as the integers
    den - a over den, where h's entry there is a / den.  The generic flag
    carries over, so a vector flagged generic is assumed generic in every
    chart.

    Two charts stand for all 2^|S|:

    - `classify_face` reads the blocks other than beta0's only through
      etaleness; the kind, beta0, j and threshold come from beta0's block
      alone.  So a chart's verdict depends only on whether beta0's block is
      flipped and whether the chart is etale (an etale chart is Out).
    - A flipped block is all Zero exactly when it was all One, and a block
      holding the Open entry is never whole.  T0, the chart that flips
      exactly S's all-Zero blocks, leaves all Zero only the all-Zero blocks
      outside S, which every chart leaves all Zero.  So on each side (beta0's
      block flipped or not), if any chart is nowhere etale, so is T0, or T0
      plus beta0's block.
    - If a block outside S is all Zero, every chart is etale and the union
      is Out, which `stratum_case` returns for T0 as well.
    - A vertex has no beta0, so T0 alone decides it; at codim >= 2 every
      chart is Out.

    So the union is T0, and on a codim-1 point whose Open entry's block is
    in S also T0 plus that block: In if either chart is, else Indeterminate
    if either is, else Out.
    """
    profile = h.profile
    flippable = _prime_blocks(profile, S)
    scaled, den = h.scaled, h.den
    zeros, ones = _entry_masks(scaled, den)
    t0 = _whole_blocks(profile, zeros) & flippable
    flips = [t0]
    opens = profile.full_mask & ~(zeros | ones)
    if opens.bit_count() == 1:
        b0 = profile._block_of[opens.bit_length() - 1]
        if b0 & flippable:
            flips.append(t0 | b0)

    generic = h.generic
    out = Verdict.OUT
    for flip in flips:
        stratum = stratum_case(profile, *_swap_on(zeros, ones, flip))
        b = stratum.beta0
        num = 0
        if b is not None:
            num = scaled[b]
            if flip >> b & 1:
                num = den - num
        verdict = stratum.decide(generic, num, den)
        if verdict is Verdict.IN:
            return verdict
        if verdict is Verdict.INDETERMINATE:
            out = verdict
    return out


@dataclass(frozen=True)
class CoverageReport:
    profile: PrimeProfile
    passed: bool
    vertex_failures: tuple
    edge_failures: tuple

    def to_json_dict(self) -> dict:
        return {
            "schema": "1",
            "check": "coverage",
            "profile": self.profile.to_json_dict(),
            "pass": self.passed,
            "vertex_failures": list(self.vertex_failures),
            "edge_failures": list(self.edge_failures),
        }


def _corner_masks(positions) -> list[int]:
    """One-masks of all 0/1 assignments to positions, in product order.

    The first position varies slowest, as in itertools.product, so the masks
    line up with `product("01", ...)` over the same positions, which writes
    the reports' coordinates.
    """
    masks = [0]
    for k in positions:
        bit = 1 << k
        masks = [m | b for m in masks for b in (0, bit)]
    return masks


def _all_zero(zeros: int, ones: int, block: int) -> bool:
    return zeros == block


def _not_all_one(zeros: int, ones: int, block: int) -> bool:
    return ones != block


def _all_zero_or_open(zeros: int, ones: int, block: int) -> bool:
    return zeros == block or zeros | ones != block


# The flips `coverage_check` takes, each a tag and the rule that picks a block
# from the face's Zero and One masks on that block, moved down to bit 0, with
# `block` the block's own mask there.  At a vertex: T0, the all-Zero blocks,
# and T0 + T2, the blocks not all One.  At an edge: T0, and T0 + p0, which
# also takes the block holding the Open entry.
_VERTEX_FLIPS = (("T0", _all_zero), ("T0+T2", _not_all_one))
_EDGE_FLIPS = (("T0", _all_zero), ("T0+p0", _all_zero_or_open))


@cache
def _zeroed_faces(f: int, picks, edge: bool) -> frozenset:
    """The faces of one block of size f, as (Zero, One) masks moved down to
    bit 0, that the rule `picks` leaves all Zero: among the 2^f vertex
    patterns, and with `edge` also the f 2^(f-1) patterns with one Open
    entry."""
    block = (1 << f) - 1
    faces = [(block & ~ones, ones) for ones in range(block + 1)]
    if edge:
        faces += [
            (block & ~bit & ~ones, ones)
            for bit in (1 << k for k in range(f))
            for ones in range(block + 1)
            if not ones & bit
        ]
    return frozenset(
        face for face in faces if _swap_on(*face, block if picks(*face, block) else 0)[0] == block
    )


def _etale_flips(profile: PrimeProfile, flips, edge: bool) -> list[tuple[str, list]]:
    """The flips that leave some block of `profile` all Zero on some face, in
    the order of `flips`, each with the `_zeroed_faces` table of every block."""
    out = []
    for tag, picks in flips:
        tables = [_zeroed_faces(f, picks, edge) for f in profile.f]
        if any(tables):
            out.append((tag, tables))
    return out


def _is_etale(profile: PrimeProfile, tables: list, zeros: int, ones: int) -> bool:
    """Whether the flip with per-block tables `tables` makes the face with
    masks (zeros, ones) etale: whether some block's pattern is in its table."""
    for table, f, off in zip(tables, profile.f, profile.offsets):
        block = (1 << f) - 1
        if (zeros >> off & block, ones >> off & block) in table:
            return True
    return False


def coverage_check(profile: PrimeProfile) -> CoverageReport:
    """Vertex and edge coverage of the degree cube by transported charts,
    decided block by block.

    For every vertex, flipping the all-Zero blocks (with or without the mixed
    blocks) must land on nowhere-etale strata.  For every edge, the two
    transported charts cover free-coordinate intervals (t, 1) and (0, 1-t)
    with t the tail sum of the free block; these cover (0,1) iff 1-t > t,
    which fails exactly when p = 2 and the free block has size >= 2.

    A face is held as its Zero and One bitmasks.  Flipping a set of blocks
    swaps the two masks there (`strata._swap_on`), and the flipped face is
    etale exactly when `_whole_blocks` of its Zero mask is not empty, the
    test `classify_face` makes.  That factors over the blocks:

    - The flipped face is etale exactly when some block is all Zero after
      the flip: an OR over the blocks.
    - Each flip the check takes (`_VERTEX_FLIPS`, `_EDGE_FLIPS`) picks each
      block from the face's masks on that block alone, so whether a block is
      all Zero after the flip depends only on the face's pattern there.
    - `_zeroed_faces` tabulates, once per block size and rule, the patterns
      the flip leaves all Zero.  A flip fails on some face exactly when some
      block's table is not empty, since every combination of block patterns
      is a face (at an edge the blocks other than the Open entry's hold
      vertex patterns).

    Every table is empty, which is the lemma the check exposes: a block is
    all Zero after a swap exactly when it was all Zero and not flipped, or
    all One and flipped.  T0 flips every all-Zero block and no all-One one,
    and so do T0 + T2 and T0 + p0; a block holding the Open entry is
    neither.  So no flip the check takes leaves a block all Zero, and only
    the p = 2 gaps can fail.  The faces are walked to list etale flips, in
    product order, only when some table is not empty; otherwise only the
    edges of a block with a gap are walked, to write its gap records.

    A report can list all 2^g vertices and g * 2^(g-1) edges, so the check
    refuses a profile above the enumeration bound with `EnumerationBound`.
    """
    g = profile.g
    if g > ENUMERATION_MAX_G:
        raise EnumerationBound(f"g={g} exceeds enumeration bound {ENUMERATION_MAX_G}")
    full = profile.full_mask

    vertex_failures = []
    flips = _etale_flips(profile, _VERTEX_FLIPS, False)
    if flips:
        for ones, coords in zip(_corner_masks(range(g)), product("01", repeat=g)):
            zeros = full & ~ones
            for tag, tables in flips:
                if _is_etale(profile, tables, zeros, ones):
                    vertex_failures.append({"vertex": list(coords), "flip": tag})
    edge_failures = []
    flips = _etale_flips(profile, _EDGE_FLIPS, True)
    # The gap record of each block size whose tail leaves (0, 1) uncovered,
    # built once and shared by every edge of that size.
    gaps = {}
    for f in set(profile.f):
        t = delta_star(profile.p, f)
        if not ONE - t > t:
            gaps[f] = {
                "issue": "gap",
                "covered": [
                    IntervalQ(t, ONE).to_json_list(),
                    IntervalQ(ZERO, ONE - t).to_json_list(),
                ],
                "gap": [str(ONE - t), str(t)],
            }
    for beta0 in range(g):
        gap = gaps.get(profile._block_of[beta0].bit_count())
        if not (flips or gap):
            continue
        closed = full & ~(1 << beta0)
        others = _corner_masks(k for k in range(g) if k != beta0)
        for ones, rest in zip(others, product("01", repeat=g - 1)):
            zeros = closed & ~ones
            coords = [*rest[:beta0], "*", *rest[beta0:]]
            issues = [
                {"flip": tag, "issue": "etale"}
                for tag, tables in flips
                if _is_etale(profile, tables, zeros, ones)
            ]
            if gap:
                issues.append(gap)
            for issue in issues:
                edge_failures.append({"edge": coords, "beta0": beta0, **issue})
    passed = not vertex_failures and not edge_failures
    return CoverageReport(profile, passed, tuple(vertex_failures), tuple(edge_failures))
