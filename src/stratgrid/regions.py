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
those equal to 1, and `strata.classify_face` decides it on them.  Charts and
the coverage check work on the same masks: the chart of T flips v -> 1 - v
on T's blocks, which `strata._swap_on` does by swapping the two masks there,
so no flipped vector is built.  The union over every T inside S is decided
from at most two charts: T0, the all-Zero blocks of S, and on a
codimension-1 point whose Open entry's block is in S also T0 plus that
block (`in_sigma_S` argues why no other chart can add to them).  The
coverage check needs only whether a flipped face is etale, which is
`strata._whole_blocks` of its Zero mask, so it names no stratum.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache

from .degrees import DegreeVector, _entry_masks
from .embeddings import PrimeProfile
from .strata import (
    ENUMERATION_MAX_G,
    Badness,
    EnumerationBound,
    _swap_on,
    _whole_blocks,
    classify_face,
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
    `stratum_case` asks for it at every bad point.  No decision is cached.
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


def stratum_case(profile: PrimeProfile, zeros: int, ones: int) -> StratumCase:
    """Stratum data of the points whose entries are 0 on `zeros`, 1 on `ones`
    and strictly between on the rest."""
    cls = classify_face(profile, zeros, ones)
    if not cls.nowhere_etale:
        return StratumCase("etale")
    if cls.badness is Badness.NOT_CODIM1:
        return StratumCase("codim0" if zeros | ones == profile.full_mask else "codim_ge2")
    beta0 = cls.beta0
    if cls.badness is Badness.GOOD:
        return StratumCase("good", beta0)
    p = profile.p
    if cls.j is None:
        thr = delta_star(p, profile._block_of[beta0].bit_count())
        return StratumCase("bad_full_eta", beta0, None, thr)
    return StratumCase("bad_partial_eta", beta0, cls.j, delta(p, cls.j))


def sigma_case(h: DegreeVector) -> tuple[StratumCase, Verdict]:
    """The stratum data of h and its verdict, read off h's integers."""
    scaled, den = h.scaled, h.den
    stratum = stratum_case(h.profile, *_entry_masks(scaled, den))
    free = 0 if stratum.beta0 is None else scaled[stratum.beta0]
    return stratum, stratum.decide(h.generic, free, den)


def in_sigma(h: DegreeVector) -> Verdict:
    """Three-valued membership of a degree vector in the base region."""
    return sigma_case(h)[1]


def _combine(verdicts) -> Verdict:
    out = Verdict.OUT
    for v in verdicts:
        if v is Verdict.IN:
            return Verdict.IN
        if v is Verdict.INDETERMINATE:
            out = Verdict.INDETERMINATE
    return out


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
    in S also T0 plus that block, folded by `_combine`.
    """
    profile = h.profile
    blocks = profile._block_masks
    flippable = 0
    for i in sorted(set(S)):
        if not (0 <= i < profile.n_primes):
            raise ValueError(f"prime index {i} out of range for {profile}")
        flippable |= blocks[i]
    scaled, den = h.scaled, h.den
    zeros, ones = _entry_masks(scaled, den)
    t0 = _whole_blocks(profile, zeros) & flippable
    flips = [t0]
    opens = profile.full_mask & ~(zeros | ones)
    if opens.bit_count() == 1:
        b0 = profile._block_of[opens.bit_length() - 1]
        if b0 & flippable:
            flips.append(t0 | b0)

    def chart(flip: int) -> Verdict:
        stratum = stratum_case(profile, *_swap_on(zeros, ones, flip))
        b = stratum.beta0
        num = 0
        if b is not None:
            num = scaled[b]
            if flip >> b & 1:
                num = den - num
        return stratum.decide(h.generic, num, den)

    return _combine(chart(flip) for flip in flips)


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

    The first position varies slowest, as in itertools.product, so reports
    list faces in the same order as a coordinate-tuple enumeration would.
    """
    masks = [0]
    for k in positions:
        bit = 1 << k
        masks = [m | b for m in masks for b in (0, bit)]
    return masks


def _coords_json(g: int, zeros: int, ones: int) -> list[str]:
    return ["1" if ones >> k & 1 else "0" if zeros >> k & 1 else "*" for k in range(g)]


def coverage_check(profile: PrimeProfile) -> CoverageReport:
    """Vertex and edge coverage of the degree cube by transported charts.

    For every vertex, flipping the all-Zero blocks (with or without the mixed
    blocks) must land on nowhere-etale strata.  For every edge, the two
    transported charts cover free-coordinate intervals (t, 1) and (0, 1-t)
    with t the tail sum of the free block; these cover (0,1) iff 1-t > t,
    which fails exactly when p = 2 and the free block has size >= 2.

    A face is held as its Zero and One bitmasks.  T0 is `_whole_blocks` of
    the Zero mask and T0 + T2 the complement of `_whole_blocks` of the One
    mask.  Flipping them swaps the two masks there (`strata._swap_on`), so
    the flipped face's Zero mask is the old Zeros off the flip and the old
    Ones on it, and the flipped face is etale exactly when `_whole_blocks`
    of that mask is not empty, the test `classify_face` makes.

    The check visits 2^g vertices and g * 2^(g-1) edges, so it refuses a
    profile above the enumeration bound with `EnumerationBound`.
    """
    g = profile.g
    if g > ENUMERATION_MAX_G:
        raise EnumerationBound(f"g={g} exceeds enumeration bound {ENUMERATION_MAX_G}")
    full = profile.full_mask

    def flips_to_etale(zeros: int, ones: int, flip: int) -> bool:
        return _whole_blocks(profile, (zeros & ~flip) | (ones & flip)) != 0

    vertex_failures = []
    for ones in _corner_masks(range(g)):
        zeros = full & ~ones
        t0 = _whole_blocks(profile, zeros)  # blocks of T0: all Zero
        t0_t2 = full & ~_whole_blocks(profile, ones)  # T0 + T2: not all One
        for tag, flip in (("T0", t0), ("T0+T2", t0_t2)):
            if flips_to_etale(zeros, ones, flip):
                vertex_failures.append({"vertex": _coords_json(g, zeros, ones), "flip": tag})
    edge_failures = []
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
        b0 = profile._block_of[beta0]
        gap = gaps.get(b0.bit_count())
        closed = full & ~(1 << beta0)
        for ones in _corner_masks(k for k in range(g) if k != beta0):
            zeros = closed & ~ones
            t0 = _whole_blocks(profile, zeros)  # beta0 is Open: never its block
            issues = [
                {"flip": tag, "issue": "etale"}
                for tag, flip in (("T0", t0), ("T0+p0", t0 | b0))
                if flips_to_etale(zeros, ones, flip)
            ]
            if gap:
                issues.append(gap)
            for issue in issues:
                edge_failures.append(
                    {"edge": _coords_json(g, zeros, ones), "beta0": beta0, **issue}
                )
    passed = not vertex_failures and not edge_failures
    return CoverageReport(profile, passed, tuple(vertex_failures), tuple(edge_failures))
