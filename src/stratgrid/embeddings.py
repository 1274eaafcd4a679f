"""Indexing layer: prime profiles and bitmask subsets of the embedding universe.

A profile fixes a rational prime p and a tuple of residue degrees, one per
prime above p.  Embeddings are indexed block-major: all positions of prime 0,
then prime 1, and so on.  Within a block of size f the cyclic successor sigma
sends position k to k+1 mod f.  Subsets of embeddings are plain ints with one
bit per embedding, so set algebra is bit algebra.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass

__all__ = [
    "ProfileError",
    "PrimeProfile",
    "parse_profile",
    "shift_left",
    "shift_right",
    "subset_to_indices",
]

MAX_G = 64  # masks stay cheap ints; enumeration bounds are tighter and live elsewhere
# `_is_prime` is exact below 4,759,123,141, which is above this bound.
MAX_P = 2**31


class ProfileError(ValueError):
    """Malformed or unsupported prime profile."""


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n below 4,759,123,141: Miller-Rabin to the
    bases 2, 7 and 61, which no composite below that passes (Jaeschke, "On
    strong pseudoprimes to several bases", Math. Comp. 61, 1993)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 61):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeProfile:
    """Residue-degree profile (p; f_0, ..., f_{m-1}) of the primes above p."""

    p: int
    f: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p >= MAX_P or not _is_prime(self.p):
            raise ProfileError(f"p must be a rational prime below 2^31, got {self.p!r}")
        if not self.f or any(
            not isinstance(d, int) or isinstance(d, bool) or d < 1 for d in self.f
        ):
            raise ProfileError(f"residue degrees must be positive ints, got {self.f!r}")
        if sum(self.f) > MAX_G:
            raise ProfileError(f"total degree {sum(self.f)} exceeds {MAX_G}")
        object.__setattr__(self, "f", tuple(self.f))
        # Derived fields, computed once: the hot loops read them per embedding.
        # They are plain attributes, not dataclass fields, so equality,
        # hashing and repr still see only (p, f).
        offsets, acc = [], 0
        for d in self.f:
            offsets.append(acc)
            acc += d
        object.__setattr__(self, "g", acc)
        object.__setattr__(self, "n_primes", len(self.f))
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "full_mask", (1 << acc) - 1)
        blocks = tuple(((1 << d) - 1) << off for d, off in zip(self.f, offsets))
        object.__setattr__(self, "_block_masks", blocks)
        # The block mask of each embedding, so a face decision reads its
        # block without scanning the offsets.
        object.__setattr__(
            self, "_block_of", tuple(b for b, d in zip(blocks, self.f) for _ in range(d))
        )
        # Shift tables: the first and last bit of every block, and per distinct
        # block size d the first bits of the blocks of that size, which a
        # rotation moves d - 1 places to the other end of their block.
        firsts = [1 << off for off in offsets]
        object.__setattr__(self, "_first_bits", sum(firsts))
        object.__setattr__(
            self, "_last_bits", sum(b << (d - 1) for b, d in zip(firsts, self.f))
        )
        wraps: dict[int, int] = {}
        for b, d in zip(firsts, self.f):
            wraps[d - 1] = wraps.get(d - 1, 0) | b
        object.__setattr__(self, "_wraps", tuple(wraps.items()))
        # The label of each embedding and its inverse, read by every
        # serialization of a degree vector.
        labels = tuple(f"{i}/{pos}" for i, d in enumerate(self.f) for pos in range(d))
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_label_index", {s: k for k, s in enumerate(labels)})

    def block_mask(self, i: int) -> int:
        """Bitmask of all embeddings of prime i."""
        return self._block_masks[i]

    def index(self, i: int, pos: int) -> int:
        """Global embedding index of position pos within prime i."""
        if not (0 <= i < self.n_primes) or not (0 <= pos < self.f[i]):
            raise IndexError(f"no embedding {i}/{pos} in profile {self}")
        return self.offsets[i] + pos

    def emb(self, k: int) -> tuple[int, int]:
        """Inverse of index: global index -> (prime, position)."""
        if not (0 <= k < self.g):
            raise IndexError(f"embedding index {k} out of range")
        for i, off in enumerate(self.offsets):
            if k < off + self.f[i]:
                return i, k - off
        raise IndexError(k)  # unreachable

    def prime_of(self, k: int) -> int:
        return self.emb(k)[0]

    def label(self, k: int) -> str:
        if not (0 <= k < self.g):
            raise IndexError(f"embedding index {k} out of range")
        return self._labels[k]

    def index_of_label(self, s: str) -> int:
        """The index of label s.  An exact label is looked up; any other
        string, such as " 0/1" or "00/1", is read as 'prime/pos' digits."""
        k = self._label_index.get(s)
        if k is not None:
            return k
        m = re.fullmatch(r"(\d+)/(\d+)", s.strip())
        if not m:
            raise ProfileError(f"bad embedding label {s!r}, expected 'prime/pos'")
        try:
            return self.index(int(m.group(1)), int(m.group(2)))
        except IndexError:
            raise ProfileError(f"label {s!r} names no embedding of {self}") from None

    def to_json_dict(self) -> dict:
        return {"p": self.p, "f": list(self.f)}

    def __str__(self) -> str:
        return f"p={self.p};f={','.join(str(d) for d in self.f)}"


def parse_profile(text: str | dict) -> PrimeProfile:
    """Parse 'p=3;f=2,1,1' or the JSON form {"p": 3, "f": [2, 1, 1]}."""
    if isinstance(text, dict):
        data = text
    else:
        s = text.strip()
        if s.startswith("{"):
            try:
                data = json.loads(s)
            except (json.JSONDecodeError, RecursionError) as e:
                raise ProfileError(f"bad profile JSON: {e}") from None
        else:
            m = re.fullmatch(r"p\s*=\s*(\d+)\s*;\s*f\s*=\s*(\d+(?:\s*,\s*\d+)*)", s)
            if not m:
                raise ProfileError(f"bad profile {text!r}, expected 'p=P;f=a,b,...'")
            return PrimeProfile(int(m.group(1)), tuple(int(x) for x in m.group(2).split(",")))
    if not isinstance(data, dict) or set(data) != {"p", "f"}:
        raise ProfileError(f"profile JSON needs exactly keys p and f, got {data!r}")
    f = data["f"]
    if not isinstance(f, list):
        raise ProfileError("profile f must be a list")
    return PrimeProfile(data["p"], tuple(f))


def _check_mask(profile: PrimeProfile, mask: int) -> None:
    if not isinstance(mask, int) or mask < 0 or mask & ~profile.full_mask:
        raise ValueError(f"mask {mask!r} not a subset of the {profile.g} embeddings")


def shift_left(profile: PrimeProfile, mask: int) -> int:
    """Predecessor set: k is in the result iff its cyclic successor is in mask.

    Blockwise this rotates each block's bits one position down.
    """
    _check_mask(profile, mask)
    out = (mask & ~profile._first_bits) >> 1
    for s, firsts in profile._wraps:
        out |= (mask & firsts) << s
    return out


def shift_right(profile: PrimeProfile, mask: int) -> int:
    """Successor set, the inverse of shift_left."""
    _check_mask(profile, mask)
    out = (mask & ~profile._last_bits) << 1
    for s, firsts in profile._wraps:
        out |= (mask >> s) & firsts
    return out


def subset_to_indices(mask: int) -> list[int]:
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out
