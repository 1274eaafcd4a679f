"""Rational degree vectors on the embedding universe and their inequalities.

A degree vector assigns each embedding a rational in [0, 1].  Two flags ride
along: `generic` (the specialization hypothesis several constraint families
need) and `cusp` (degenerate boundary points whose One-set must be a union of
whole blocks).  All arithmetic is exact via Fraction.  A vector's stratum is
named by its face masks, the entries equal to 0 and to 1 (`_entry_masks`).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .embeddings import PrimeProfile
from .strata import StratumPair, _whole_blocks, pair_of_masks

__all__ = [
    "DegreeVectorError",
    "CuspInput",
    "GenericFlagRequired",
    "ProfileMismatch",
    "DegreeVector",
    "HodgeInterval",
    "pair_of_degvec",
    "w_T_deg",
    "hodge_height",
    "raynaud_feasible",
    "genericity_constraints",
]

ZERO = Fraction(0)
ONE = Fraction(1)
# the longest string `_as_fraction` reads on its fast path: `int` checks no
# string this short against its digit limit, whatever that limit is set to
_FAST_CHARS = sys.int_info.str_digits_check_threshold


class DegreeVectorError(ValueError):
    """Entries out of range or malformed serialization."""


class CuspInput(ValueError):
    """Operation undefined on cusp vectors."""


class GenericFlagRequired(ValueError):
    """Constraint family only applies under the generic flag."""


class ProfileMismatch(ValueError):
    """Two arguments carry different prime profiles."""


def _as_fraction(v) -> Fraction:
    """A Fraction, an int or a fraction string as an exact rational.  Booleans
    are refused, and so is exponent notation: "1e-2000000" is slow to read.

    Two fast paths come first, decided on the exact type, not through
    `isinstance`.  A `Fraction` is returned as is.  A string of ASCII
    digits, optionally followed by "/" and ASCII digits naming a nonzero
    denominator, is the form `to_json_dict` writes; it is read as
    `Fraction(int(num), int(den))`.  On such a string `Fraction(str)` reads
    the same two digit strings with `int` and reduces the same pair, so the
    value is the same, without the regex.  The fast path takes only strings
    of at most `_FAST_CHARS` characters, which `int` never checks against
    its digit limit.  Every other value, a zero denominator or a longer
    string among them, takes the general path below, with its messages.
    """
    t = type(v)
    if t is Fraction:
        return v
    if t is str and len(v) <= _FAST_CHARS and v.isascii():
        num, slash, den = v.partition("/")
        if num.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isdigit():
                d = int(den)
                if d:
                    return Fraction(int(num), d)
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


def _json_flag(data: dict, name: str) -> bool:
    """A JSON boolean flag of a serialized vector; a missing flag is false."""
    v = data.get(name, False)
    if not isinstance(v, bool):
        raise DegreeVectorError(f"{name!r} must be true or false, got {v!r}")
    return v


@dataclass(frozen=True)
class DegreeVector:
    profile: PrimeProfile
    entries: tuple[Fraction, ...]
    generic: bool = False
    cusp: bool = False

    def __post_init__(self) -> None:
        # one pass converts and range-checks; a conversion error is raised at
        # once, the length and range errors after the pass, in that order
        entries = []
        in_range = True
        for v in self.entries:
            if type(v) is not Fraction:
                v = _as_fraction(v)
            # 0 <= v <= 1 read off v's numerator and its positive denominator
            n, d = v.as_integer_ratio()
            if n < 0 or n > d:
                in_range = False
            entries.append(v)
        entries = tuple(entries)
        if len(entries) != self.profile.g:
            raise DegreeVectorError(
                f"need {self.profile.g} entries for {self.profile}, got {len(entries)}"
            )
        if not in_range:
            raise DegreeVectorError("degree entries must lie in [0, 1]")
        if self.cusp:
            profile = self.profile
            zeros, ones = _entry_masks(entries, 1)
            whole = _whole_blocks(profile, zeros) | _whole_blocks(profile, ones)
            if whole != profile.full_mask:
                raise DegreeVectorError("cusp vectors are 0/1 with blockwise-constant One-set")
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, k: int) -> Fraction:
        return self.entries[k]

    def deg_prime(self, i: int) -> Fraction:
        off = self.profile.offsets[i]
        return sum(self.entries[off : off + self.profile.f[i]], ZERO)

    def to_json_dict(self) -> dict:
        return {
            "deg": dict(zip(self.profile._labels, map(str, self.entries))),
            "generic": self.generic,
            "cusp": self.cusp,
        }

    @classmethod
    def from_json_dict(cls, profile: PrimeProfile, data: dict) -> "DegreeVector":
        if not isinstance(data, dict) or "deg" not in data:
            raise DegreeVectorError(f"degree JSON needs a 'deg' mapping, got {data!r}")
        deg = data["deg"]
        if not isinstance(deg, dict):
            raise DegreeVectorError(f"'deg' must map labels to degrees, got {deg!r}")
        entries = [None] * profile.g
        exact = profile._label_index
        for label, val in deg.items():
            k = exact.get(label)
            if k is None:
                k = profile.index_of_label(label)
            if entries[k] is not None:
                raise DegreeVectorError(f"two labels name embedding {profile.label(k)}")
            entries[k] = _as_fraction(val)
        # each label filled a distinct entry, so they are all filled exactly
        # when there are g labels
        if len(deg) != profile.g:
            missing = [profile.label(k) for k, e in enumerate(entries) if e is None]
            raise DegreeVectorError(f"missing degree entries for {missing}")
        return cls(
            profile,
            tuple(entries),
            generic=_json_flag(data, "generic"),
            cusp=_json_flag(data, "cusp"),
        )


def _entry_masks(entries, one) -> tuple[int, int]:
    """Face masks of the entries: those equal to 0 and those equal to `one`.

    `one` is 1 for a vector's own entries and den for entries scaled by den.
    """
    zeros = 0
    ones = 0
    for k, v in enumerate(entries):
        if v == 0:
            zeros |= 1 << k
        elif v == one:
            ones |= 1 << k
    return zeros, ones


def pair_of_degvec(h: DegreeVector) -> StratumPair:
    """Stratum pair of a degree vector; always admissible.

    phi collects embeddings whose predecessor coordinate is positive, eta those
    with coordinate below one.
    """
    if h.cusp:
        raise CuspInput("cusp vectors do not define a stratum pair")
    return pair_of_masks(h.profile, *_entry_masks(h.entries, 1))


def w_T_deg(h: DegreeVector, T, generic: bool | None = None) -> DegreeVector:
    """Blockwise degree flip v -> 1 - v on the primes in T.

    The generic flag of the image is caller-supplied; by default it is carried
    over unchanged.
    """
    tset = set(T)
    for i in tset:
        if not (0 <= i < h.profile.n_primes):
            raise ValueError(f"prime index {i} out of range for {h.profile}")
    entries = list(h.entries)
    for i in tset:
        off = h.profile.offsets[i]
        for pos in range(h.profile.f[i]):
            entries[off + pos] = ONE - entries[off + pos]
    return replace(
        h, entries=tuple(entries), generic=h.generic if generic is None else generic
    )


@dataclass(frozen=True)
class HodgeInterval:
    """Possible values of a partial Hodge height: a point or [lower, 1]."""

    lower: Fraction
    upper: Fraction
    exact: bool

    def contains(self, v: Fraction) -> bool:
        return self.lower <= v <= self.upper

    def intersects(self, other: "HodgeInterval") -> bool:
        return max(self.lower, other.lower) <= min(self.upper, other.upper)

    def to_json_dict(self) -> dict:
        return {"lower": str(self.lower), "upper": str(self.upper), "exact": self.exact}


def _clamp01(v: Fraction) -> Fraction:
    return ZERO if v < 0 else ONE if v > 1 else v


def hodge_height(h: DegreeVector, beta: int) -> HodgeInterval:
    """Height bound at beta: min(p * value at predecessor, 1 - value at beta).

    When the two arguments differ the height is pinned to the minimum; when
    they coincide only the lower bound survives and the interval runs up to 1.
    Values are clamped to [0, 1].
    """
    profile = h.profile
    i, pos = profile.emb(beta)
    pred = profile.index(i, (pos - 1) % profile.f[i])
    a = profile.p * h[pred]
    b = ONE - h[beta]
    if a != b:
        v = _clamp01(min(a, b))
        return HodgeInterval(v, v, True)
    return HodgeInterval(_clamp01(a), ONE, False)


def _require_same_profile(h: DegreeVector, d: DegreeVector) -> None:
    if h.profile != d.profile:
        raise ProfileMismatch(f"{h.profile} vs {d.profile}")


def raynaud_feasible(h: DegreeVector, d: DegreeVector, i: int) -> bool:
    """Anchored valuation inequalities on the block of prime i.

    For every anchor beta in the block, the p-weighted cyclic sum of d must
    not exceed the matching weighted sum of 1 - h.
    """
    _require_same_profile(h, d)
    profile = h.profile
    p, f, off = profile.p, profile.f[i], profile.offsets[i]
    for start in range(f):
        lhs = ZERO
        rhs = ZERO
        for k in range(f):
            w = p ** (f - 1 - k)
            idx = off + (start + k) % f
            lhs += w * d[idx]
            rhs += w * (ONE - h[idx])
        if lhs > rhs:
            return False
    return True


def genericity_constraints(h: DegreeVector, d: DegreeVector, i: int) -> bool:
    """Constraints available only for generic h, on the block of prime i.

    Where h is 1: d is at most the tail sum of p-th powers and the predecessor
    entry of d vanishes.  Where h's predecessor entry is 0 and d is below 1:
    the predecessor entry of d vanishes.
    """
    _require_same_profile(h, d)
    if not h.generic:
        raise GenericFlagRequired("genericity constraints need h.generic")
    profile = h.profile
    p, f, off = profile.p, profile.f[i], profile.offsets[i]
    tail = sum((Fraction(1, p**k) for k in range(1, f)), ZERO)
    for pos in range(f):
        beta = off + pos
        pred = off + (pos - 1) % f
        if h[beta] == ONE:
            if d[beta] > tail or d[pred] != ZERO:
                return False
        if h[pred] == ZERO and d[beta] < ONE:
            if d[pred] != ZERO:
                return False
    return True
