"""Admissible stratum pairs, their faces, and codimension-1 classification.

A pair of subsets (phi, eta) is admissible when every embedding outside phi
has its predecessor inside eta, i.e. shift_left(complement(phi)) is contained
in eta.  Admissible pairs index strata; their codimension is
|phi| + |eta| - g.  Each pair corresponds to a face of the unit degree cube:
coordinates are One on the complement of eta, Zero on the predecessor set of
the complement of phi, and Open (free in (0,1)) on the rest.

A face exists only as its Zero and One bitmasks (`_face_masks`, and
`pair_of_masks` back), which are disjoint exactly when the pair is
admissible; `_face_class` works on them, the one definition of a face's
class, which `classify_face` wraps in a `StratumClass` and
`regions.stratum_case` reads as a tuple.  It reads the profile's block
table (`_block_of`, the block mask of each embedding) and does everything
after beta0 as bit operations inside beta0's block, where the successor is
the next bit up and wraps to the block's lowest bit; no shift operator runs
per face.  Three mask operations serve strata, regions and degree vectors
alike: `_whole_blocks`, the blocks lying wholly inside a mask (an all-Zero
block makes a stratum etale, so a face is nowhere etale exactly when
`_whole_blocks` of its Zero mask is empty); `_prime_blocks`, the blocks of a
set of primes T, the one place such a set is checked; and `_swap_on`, the
flip v -> 1 - v on a union of blocks, which exchanges the two masks there.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .embeddings import (
    PrimeProfile,
    shift_left,
    shift_right,
    subset_to_indices,
)

__all__ = [
    "InadmissiblePair",
    "EnumerationBound",
    "Badness",
    "StratumPair",
    "StratumClass",
    "is_admissible",
    "codim",
    "enumerate_admissible",
    "closure_set",
    "pi_image",
    "w_T_pair",
    "classify",
    "classify_face",
    "pair_of_masks",
    "ENUMERATION_MAX_G",
]

ENUMERATION_MAX_G = 12


class InadmissiblePair(ValueError):
    """Pair fails the predecessor-containment condition."""


class EnumerationBound(ValueError):
    """Profile too large for exhaustive enumeration."""


class Badness(Enum):
    GOOD = "good"
    BAD = "bad"
    NOT_CODIM1 = "not_codim1"


def is_admissible(profile: PrimeProfile, phi: int, eta: int) -> bool:
    """Whether shift_left(complement(phi)) is contained in eta."""
    full = profile.full_mask
    return shift_left(profile, full & ~phi) & ~eta == 0


@dataclass(frozen=True)
class StratumPair:
    profile: PrimeProfile
    phi: int
    eta: int

    def __post_init__(self) -> None:
        full = self.profile.full_mask
        if self.phi & ~full or self.eta & ~full or self.phi < 0 or self.eta < 0:
            raise InadmissiblePair(f"masks out of range for {self.profile}")
        if not is_admissible(self.profile, self.phi, self.eta):
            raise InadmissiblePair(
                f"pair phi={subset_to_indices(self.phi)} eta={subset_to_indices(self.eta)} "
                f"is not admissible for {self.profile}"
            )

    def to_json_dict(self) -> dict:
        cls = classify(self)
        return {
            "phi": subset_to_indices(self.phi),
            "eta": subset_to_indices(self.eta),
            "codim": codim(self),
            "nowhere_etale": cls.nowhere_etale,
            "badness": None if cls.badness is Badness.NOT_CODIM1 else cls.badness.value,
            "beta0": cls.beta0,
            "j": cls.j,
        }


def codim(pair: StratumPair) -> int:
    return pair.phi.bit_count() + pair.eta.bit_count() - pair.profile.g


def _supersets(base: int, free: int) -> list[int]:
    """base | s for every submask s of free, ascending; base and free are disjoint."""
    out = []
    sub = 0
    while True:
        out.append(base | sub)
        if sub == free:
            return out
        sub = (sub - free) & free


def enumerate_admissible(
    profile: PrimeProfile,
    codim_filter: int | None = None,
    nowhere_etale: bool | None = None,
) -> list[StratumPair]:
    """All admissible pairs, ordered by (phi, eta) as integers.

    For each phi, eta must contain the predecessor set of phi's complement and
    is otherwise free inside the predecessor set of phi, so the census over
    all phi is 3^g.
    """
    if profile.g > ENUMERATION_MAX_G:
        raise EnumerationBound(f"g={profile.g} exceeds enumeration bound {ENUMERATION_MAX_G}")
    full = profile.full_mask
    out: list[StratumPair] = []
    for phi in range(full + 1):
        required = shift_left(profile, full & ~phi)
        free = shift_left(profile, phi)
        for eta in _supersets(required, free):
            pair = StratumPair(profile, phi, eta)
            if codim_filter is not None and codim(pair) != codim_filter:
                continue
            if nowhere_etale is not None and classify(pair).nowhere_etale != nowhere_etale:
                continue
            out.append(pair)
    return out


def closure_set(pair: StratumPair) -> list[StratumPair]:
    """Admissible pairs (phi', eta') with phi' >= phi and eta' >= eta."""
    profile = pair.profile
    full = profile.full_mask
    etas = _supersets(pair.eta, full & ~pair.eta)
    out = []
    for phi in _supersets(pair.phi, full & ~pair.phi):
        for eta in etas:
            if is_admissible(profile, phi, eta):
                out.append(StratumPair(profile, phi, eta))
    return out


def pi_image(pair: StratumPair) -> list[int]:
    """Subsets tau with phi&eta <= tau <= (phi&eta) | (~phi&~eta).

    There are 2^|~phi & ~eta| of them.
    """
    full = pair.profile.full_mask
    return _supersets(pair.phi & pair.eta, full & ~pair.phi & ~pair.eta)


def _prime_blocks(profile: PrimeProfile, T) -> int:
    """Union of the blocks of the primes in T, read in one pass.  An index
    outside the profile's primes is refused with a `ValueError` naming the
    least one."""
    out = 0
    bad = []
    for i in T:
        if 0 <= i < profile.n_primes:
            out |= profile._block_masks[i]
        else:
            bad.append(i)
    if bad:
        raise ValueError(f"prime index {min(bad)} out of range for {profile}")
    return out


def w_T_pair(pair: StratumPair, T) -> StratumPair:
    """Blockwise transport: on each prime in T, (phi, eta) -> (r(eta), l(phi))."""
    profile = pair.profile
    flip = _prime_blocks(profile, T)
    phi, eta = pair.phi, pair.eta
    return StratumPair(
        profile,
        (phi & ~flip) | (shift_right(profile, eta) & flip),
        (eta & ~flip) | (shift_left(profile, phi) & flip),
    )


@dataclass(frozen=True)
class StratumClass:
    nowhere_etale: bool
    badness: Badness
    beta0: int | None = None
    j: int | None = None


def _face_class(profile: PrimeProfile, zeros: int, ones: int) -> tuple:
    """Nowhere-etale test plus goodness of codimension-1 strata, on the face
    whose Zero and One coordinates are the bitmasks `zeros` and `ones`, as
    the tuple (nowhere_etale, badness, beta0, j).

    This is the one definition: `classify_face` wraps the tuple in a
    `StratumClass`, and `regions.stratum_case` reads it directly.

    The stratum is etale when some block is all Zero.  On a codim-1 face
    exactly one embedding beta0 is Open.  The stratum is bad when the
    successor of beta0 is a Zero coordinate.  Bad strata split by whether
    beta0's block has a One; when it does, j >= 1 counts the run of Zeros
    after beta0 before the first One.

    Everything after beta0 happens inside its block, read off the profile's
    block table: the successor of a bit is the next bit up while that stays
    in the block, and the block's lowest bit after its highest.
    """
    full = profile.full_mask
    if (zeros | ones) & ~full or zeros & ones:
        raise InadmissiblePair(f"face masks overlap or leave {profile}")
    nowhere = not _whole_blocks(profile, zeros)
    opens = full & ~(zeros | ones)
    if opens.bit_count() != 1:
        return nowhere, Badness.NOT_CODIM1, None, None
    beta0 = opens.bit_length() - 1
    block = profile._block_of[beta0]
    cur = opens << 1
    if not cur & block:
        cur = block & -block
    if cur & zeros == 0:
        return nowhere, Badness.GOOD, beta0, None
    if ones & block == 0:
        return nowhere, Badness.BAD, beta0, None
    j = 0
    while cur & zeros:
        j += 1
        cur <<= 1
        if not cur & block:
            cur = block & -block
    assert cur & ones, "walk must stop at a One inside the block"
    return nowhere, Badness.BAD, beta0, j


def classify_face(profile: PrimeProfile, zeros: int, ones: int) -> StratumClass:
    """The `StratumClass` of the face with Zero mask `zeros` and One mask
    `ones`: `_face_class`'s tuple, raising `InadmissiblePair` as it does."""
    return StratumClass(*_face_class(profile, zeros, ones))


def _face_masks(pair: StratumPair) -> tuple[int, int]:
    """Zero and One masks of the pair's face."""
    full = pair.profile.full_mask
    return shift_left(pair.profile, full & ~pair.phi), full & ~pair.eta


def _swap_on(zeros: int, ones: int, flip: int) -> tuple[int, int]:
    """Face masks with their bits on `flip` exchanged: v -> 1 - v there turns
    v == 0 into v == 1 and back."""
    return (zeros & ~flip) | (ones & flip), (ones & ~flip) | (zeros & flip)


def _whole_blocks(profile: PrimeProfile, mask: int) -> int:
    """Union of the blocks that lie wholly inside `mask`."""
    out = 0
    for b in profile._block_masks:
        if mask & b == b:
            out |= b
    return out


def classify(pair: StratumPair) -> StratumClass:
    """`classify_face` on the pair's face."""
    return classify_face(pair.profile, *_face_masks(pair))


def pair_of_masks(profile: PrimeProfile, zeros: int, ones: int) -> StratumPair:
    """The pair whose face has Zero mask `zeros` and One mask `ones`."""
    full = profile.full_mask
    return StratumPair(profile, shift_right(profile, full & ~zeros), full & ~ones)
