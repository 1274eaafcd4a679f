"""Rational degree vectors on the embedding universe and their inequalities.

A degree vector assigns each embedding a rational in [0, 1].  Two flags ride
along: `generic` (the specialization hypothesis several constraint families
need) and `cusp` (degenerate boundary points whose One-set must be a union of
whole blocks).  All arithmetic is exact.  A vector holds its entries as
integers over one denominator, `scaled` and `den`, and the region queries,
the face masks and the JSON codec read those integers; the `Fraction` view
`entries` is built only for the definitions here that read it
(`hodge_height`, `raynaud_feasible`, `genericity_constraints`, `h[k]`), the
oracles of the integer core.  A vector's stratum is named by its face masks,
the entries equal to 0 and to den (`_entry_masks`).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
# the longest string `from_json_dict` reads straight into integers: `int`
# checks no string this short against its digit limit, whatever that limit is
# set to
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
    """
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


def _fraction_texts(scaled, den: int) -> list[str]:
    """`str(Fraction(a, den))` of each integer a of `scaled`, for den >= 1:
    "0" and "1" at the cube's faces, else from one gcd, a // den when den
    divides a and "num/den" in lowest terms otherwise.  Neither den nor a
    is written before it is reduced."""
    out = []
    for a in scaled:
        if a == 0:
            out.append("0")
        elif a == den:
            out.append("1")
        else:
            g = gcd(a, den)
            out.append(str(a // den) if g == den else f"{a // g}/{den // g}")
    return out


def _json_flag(data: dict, name: str) -> bool:
    """A JSON boolean flag of a serialized vector; a missing flag is false."""
    v = data.get(name, False)
    if not isinstance(v, bool):
        raise DegreeVectorError(f"{name!r} must be true or false, got {v!r}")
    return v


def _check_cusp(profile: PrimeProfile, scaled, den: int) -> None:
    zeros, ones = _entry_masks(scaled, den)
    if _whole_blocks(profile, zeros) | _whole_blocks(profile, ones) != profile.full_mask:
        raise DegreeVectorError("cusp vectors are 0/1 with blockwise-constant One-set")


class DegreeVector:
    """A degree vector on a profile: entry k is `scaled[k] / den`.

    den is the lcm of the entries' denominators in lowest terms, so equal
    vectors have equal `(scaled, den)`, and equality and hashing read those
    integers with the profile and the two flags.  `entries` is the
    `Fraction` view, built on its first read; the `Fraction` definitions
    below read it, and nothing on the sweeps' or the region queries' paths
    does.  The vector is immutable: `__setattr__` refuses every assignment,
    and the constructors fill the slots through their own setters.

    The constructor takes `Fraction`s, ints and fraction strings.  One pass
    converts each entry, range-checks it and brings it to the running
    denominator, which grows to the lcm; when it grows, the entries scaled
    so far are scaled again.  A conversion error is raised at once, the
    length and range errors after the pass, in that order.  `from_grid`
    takes integers over a given denominator.
    """

    __slots__ = ("profile", "scaled", "den", "generic", "cusp", "_entries")

    def __init__(self, profile: PrimeProfile, entries, generic: bool = False, cusp: bool = False):
        scaled = []
        den = 1
        in_range = True
        for v in entries:
            if type(v) is not Fraction:
                v = _as_fraction(v)
            # the two slots a Fraction keeps its lowest terms in, read
            # without the call `as_integer_ratio` makes
            n, d = v._numerator, v._denominator
            if n < 0 or n > d:
                in_range = False
            if d == den:
                scaled.append(n)
            elif d == 1:
                scaled.append(n * den)
            else:
                if den % d:
                    # d is in lowest terms: den grows to lcm(den, d)
                    m = d // gcd(den, d)
                    den *= m
                    for k in range(len(scaled)):
                        scaled[k] *= m
                scaled.append(n * (den // d))
        if len(scaled) != profile.g:
            raise DegreeVectorError(f"need {profile.g} entries for {profile}, got {len(scaled)}")
        if not in_range:
            raise DegreeVectorError("degree entries must lie in [0, 1]")
        if cusp:
            _check_cusp(profile, scaled, den)
        _set_profile(self, profile)
        _set_scaled(self, tuple(scaled))
        _set_den(self, den)
        _set_generic(self, generic)
        _set_cusp(self, cusp)

    @classmethod
    def from_grid(
        cls, profile: PrimeProfile, scaled, den: int, generic: bool = False, cusp: bool = False
    ) -> "DegreeVector":
        """The vector with entries a / den for the integers a of `scaled`,
        each in 0..den, brought to lowest terms by their gcd with den."""
        scaled = tuple(scaled)
        if len(scaled) != profile.g:
            raise DegreeVectorError(f"need {profile.g} entries for {profile}, got {len(scaled)}")
        if den < 1:
            raise DegreeVectorError("a grid needs a positive denominator")
        if min(scaled) < 0 or max(scaled) > den:
            raise DegreeVectorError("degree entries must lie in [0, 1]")
        g = gcd(den, *scaled)
        if g > 1:
            scaled = tuple([a // g for a in scaled])
            den //= g
        if cusp:
            _check_cusp(profile, scaled, den)
        self = object.__new__(cls)
        _set_profile(self, profile)
        _set_scaled(self, scaled)
        _set_den(self, den)
        _set_generic(self, generic)
        _set_cusp(self, cusp)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"DegreeVector is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DegreeVector is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self).from_grid, (self.profile, self.scaled, self.den, self.generic, self.cusp)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as `Fraction`s, built on the first read."""
        try:
            return self._entries
        except AttributeError:  # not read before
            den = self.den
            entries = tuple([Fraction(a, den) for a in self.scaled])
            _set_entries(self, entries)
            return entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.den == other.den
            and self.scaled == other.scaled
            and self.generic == other.generic
            and self.cusp == other.cusp
            and self.profile == other.profile
        )

    def __hash__(self) -> int:
        return hash((self.profile, self.scaled, self.den, self.generic, self.cusp))

    def __repr__(self) -> str:
        return (
            f"DegreeVector(profile={self.profile!r}, entries={self.entries!r}, "
            f"generic={self.generic!r}, cusp={self.cusp!r})"
        )

    def __getitem__(self, k: int) -> Fraction:
        return self.entries[k]

    def deg_prime(self, i: int) -> Fraction:
        off = self.profile.offsets[i]
        return Fraction(sum(self.scaled[off : off + self.profile.f[i]]), self.den)

    def to_json_dict(self) -> dict:
        return {
            "deg": dict(zip(self.profile._labels, _fraction_texts(self.scaled, self.den))),
            "generic": self.generic,
            "cusp": self.cusp,
        }

    @classmethod
    def from_json_dict(cls, profile: PrimeProfile, data: dict) -> "DegreeVector":
        """The vector `data` serializes.

        A string in the form `to_json_dict` writes is read straight into
        integers: ASCII digits, optionally followed by "/" and ASCII digits
        naming a nonzero denominator, in at most `_FAST_CHARS` characters.
        On such a string `Fraction(str)` reads the same two digit strings
        with `int`, so the ratio is its value.  Every other value goes
        through `_as_fraction`, with its messages.  The ratios are brought
        to one denominator by the lcm, and to lowest terms by `from_grid`,
        which range-checks them.
        """
        if not isinstance(data, dict) or "deg" not in data:
            raise DegreeVectorError(f"degree JSON needs a 'deg' mapping, got {data!r}")
        deg = data["deg"]
        if not isinstance(deg, dict):
            raise DegreeVectorError(f"'deg' must map labels to degrees, got {deg!r}")
        nums = [None] * profile.g
        dens = [1] * profile.g
        exact = profile._label_index
        for label, val in deg.items():
            k = exact.get(label)
            if k is None:
                k = profile.index_of_label(label)
            if nums[k] is not None:
                raise DegreeVectorError(f"two labels name embedding {profile.label(k)}")
            if type(val) is str and len(val) <= _FAST_CHARS and val.isascii():
                if val.isdigit():
                    nums[k] = int(val)
                    continue
                num, _, den = val.partition("/")
                if num.isdigit() and den.isdigit() and den.strip("0"):
                    nums[k], dens[k] = int(num), int(den)
                    continue
            nums[k], dens[k] = _as_fraction(val).as_integer_ratio()
        # each label filled a distinct entry, so they are all filled exactly
        # when there are g labels
        if len(deg) != profile.g:
            missing = [profile.label(k) for k, n in enumerate(nums) if n is None]
            raise DegreeVectorError(f"missing degree entries for {missing}")
        generic = _json_flag(data, "generic")
        cusp = _json_flag(data, "cusp")
        den = lcm(*dens)
        return cls.from_grid(
            profile, [n * (den // d) for n, d in zip(nums, dens)], den, generic, cusp
        )


# The slots' own setters, which `__setattr__` does not go through.
_set_profile, _set_scaled, _set_den, _set_generic, _set_cusp, _set_entries = (
    vars(DegreeVector)[name].__set__ for name in DegreeVector.__slots__
)


def _entry_masks(entries, one) -> tuple[int, int]:
    """Face masks of the entries: those equal to 0 and those equal to `one`.

    `one` is den for entries scaled by den, as a vector's `scaled` and a
    sweep's grid points are, and 1 for `Fraction` entries.
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
    return pair_of_masks(h.profile, *_entry_masks(h.scaled, h.den))


def w_T_deg(h: DegreeVector, T, generic: bool | None = None) -> DegreeVector:
    """Blockwise degree flip v -> 1 - v on the primes in T, a -> den - a on
    the scaled entries.

    The generic flag of the image is caller-supplied; by default it is carried
    over unchanged.
    """
    profile, den = h.profile, h.den
    tset = set(T)
    for i in tset:
        if not (0 <= i < profile.n_primes):
            raise ValueError(f"prime index {i} out of range for {profile}")
    scaled = list(h.scaled)
    for i in tset:
        off = profile.offsets[i]
        for k in range(off, off + profile.f[i]):
            scaled[k] = den - scaled[k]
    return DegreeVector.from_grid(
        profile, scaled, den, h.generic if generic is None else generic, h.cusp
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
