"""Capture the deterministic reports of a checkout, byte-compare two captures,
and pin the reports' digests in the repository.

    python3 tools/golden.py capture DIR   # write every report below to DIR
    python3 tools/golden.py compare A B   # exit 0 iff A and B hold the same bytes
                                          # (2 and one error line if A or B
                                          # cannot be read)
    python3 tools/golden.py digest        # write tests/data/report_digests.json
    python3 tools/golden.py check         # compare with it, without writing it

`capture` runs each command through `stratgrid.cli.run --out`, importing
stratgrid from the `src` directory next to this script: a copy of the script
placed in another checkout captures that checkout's reports.  Exit codes are
written to `exit_codes.json` in DIR, so `compare` checks them too; stderr is
not captured.  The feasible sets are written by calling `feasible_d_grid`
directly.  The report set:

- the benchmark's sweeps (`bench/workloads.py` SWEEPS) at workers 1 and 2;
- sigma-up with genericity on, dropped, and dropped with
  `--max-counterexamples 50` and 10000 (at or above every
  `counterexample_total`, so every record is kept), and saturation, on the
  criterion-4 profiles, p=2;f=2, the block-swap profiles p=3;f=2,2,
  p=3;f=1,1,1 and p=2;f=1,3,1, and p=3;f=3,1 at small dens, at workers 1
  and 3;
- sigma-up with genericity on, and dropped with `--max-counterexamples 50`,
  on profiles of several blocks of equal size, whose block swaps make large
  orbits: p=5;f=2,2,2,2 at den 100, and p=3;f=2,2,2 at den 54 with saturation
  as well, at workers 1 and 3 (their dropped totals pass 10000, so no sweep
  of theirs keeps every record);
- sigma-up with genericity on and dropped, and saturation, on p=3;f=2,1 and
  p=3;f=2,2 at den 1 (vertices only) and den 2 (one point per open edge), at
  workers 1 and 3;
- `verify twist` on six (q, n) pairs, with and without `--corrupt`, at the
  default seed and trials and at `--seed 7 --trials 3`;
- `verify twist` on the inputs that run no trial: q=2, n=3, and q=3, n=2 and
  q=4, n=1 with `--corrupt`;
- `verify twist` at two large conductors, whose checks evaluate at the most
  roots of unity: q=23, n=1 with `--trials 1` (phi(M) = 220) and q=13, n=3
  (phi(M) = 48);
- `gauss` for every q <= 27 except 16 and every character exponent;
- `regions coverage` on every profile with g <= 6 for p in {2, 3, 5, 7, 11};
- `strata enumerate`, plain, with `--codim 1` and with `--nowhere-etale`, on
  every profile of the coverage reports with g <= 4 and on p=3;f=3,2,1 and
  p=2;f=1,4,1;
- `suite` at workers 1 and 2;
- `regions check --region sigma` on every 0/1 point of p=3;f=2,1 and
  p=2;f=1,3 flagged `"cusp": true`: the blockwise-constant points are
  reports, the mixed ones exit 2;
- `feasible_d_grid` on every vertex and edge h of p=3;f=2,1 at den 18 and
  p=5;f=3 at den 10, with the generic flag on and off and genericity on and
  dropped, one file per profile; an error is recorded as data;
- `in_sigma`, `in_sigma_S` (S every prime, and each single prime) and
  `in_vcan`, called directly on every vertex and edge h of p=3;f=2,1 and
  p=3;f=3,1 at den 6, p=2;f=2,1 at den 8, p=5;f=1,1,1 and p=5;f=1,1,1,1 at
  den 5 and p=2;f=2,1,1 at den 4, and on the edge points whose free entry is
  delta(p, j) or 1 - delta(p, 1), with the generic flag on and off, one file
  per profile.

`digest` captures into a temporary directory and writes, for each command,
its exit code and the SHA-256 of its report (null where it wrote none, on
exit 2), and the SHA-256 of each record set.  `tests/test_golden.py`
recomputes the digests of the fast commands in tier-1.  `check` recomputes
the whole set the same way and compares it with
`tests/data/report_digests.json`, which it leaves as it is: it exits 0 when
every digest and exit code matches, and 1 after naming each command or
record set that differs, or that only one side has.  A change that alters
report bytes on purpose runs `digest` and commits the new file.

Stdlib only; tier-1 does not collect it.  A capture of the 952 commands (936
reports and 16 exit-2 errors), the 2 feasible sets and the 6 region-query
sets takes about 16 s on two cores.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import SWEEPS  # noqa: E402

SMALL_DENS = {2: 24, 3: 54, 5: 50}
# The dens at which a sweep's cells have one point each.
TINY_DENS = (1, 2)
TINY_PROFILES = ("p=3;f=2,1", "p=3;f=2,2")
# The criterion-4 profiles, p=2;f=2, profiles whose blocks of equal size can
# be swapped, so that the sweeps pin down the block-swap orbits, and
# p=3;f=3,1, whose pinned three-entry block sits beside a size-1 block (at den
# 54, delta(3, 1) and delta(3, 2) lie on the grid).
SWEEP_PROFILES = [
    f"p={p};f={f}" for p in (3, 5) for f in ("1", "2", "3", "1,1", "2,1")
] + ["p=2;f=2", "p=3;f=2,2", "p=3;f=1,1,1", "p=2;f=1,3,1", "p=3;f=3,1"]
# Profiles of several blocks of equal size, at dens where their sweeps take
# about a second: (profile, den, whether saturation is swept too).
SWAP_SWEEPS = (("p=5;f=2,2,2,2", "100", False), ("p=3;f=2,2,2", "54", True))
# With genericity dropped and this cap, the records of the sweeps with
# failures run past the first failing orbit.
MANY_COUNTEREXAMPLES = "50"
# At or above every counterexample_total of those sweeps (the largest is
# 5634, at p=3;f=3,1), so every record is kept.
ALL_COUNTEREXAMPLES = "10000"
TWISTS = ((3, 4), (5, 3), (9, 4), (4, 5), (7, 6), (8, 3))
# Trials past the first at a nonzero seed.
TWIST_SEEDED = ["--seed", "7", "--trials", "3"]
# GF(2) has no nontrivial character; mod 2 and mod 1 every character is
# trivial, which `--corrupt` skips.
TWISTS_WITHOUT_TRIALS = ((2, 3, []), (3, 2, ["--corrupt"]), (4, 1, ["--corrupt"]))
# Large conductors: the twist checks evaluate at phi(M) = 220 and 48 roots.
LARGE_TWISTS = ((23, 1, ["--trials", "1"]), (13, 3, []))
GAUSS_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23, 25, 27)
COVERAGE_PRIMES = (2, 3, 5, 7, 11)
MAX_G = 6
STRATA_MAX_G = 4
STRATA_EXTRA = ("p=3;f=3,2,1", "p=2;f=1,4,1")
STRATA_FILTERS = {"": [], "-codim1": ["--codim", "1"], "-nowhere-etale": ["--nowhere-etale"]}
SUITE_PROFILE = "p=3;f=2,1"
CUSP_PROFILES = ("p=3;f=2,1", "p=2;f=1,3")
FEASIBLE = (("p=3;f=2,1", 18), ("p=5;f=3", 10))
# p=3;f=3,1 has the bad partial-eta strata, where a point at delta(p, j) is
# indeterminate.  p=2;f=2,1,1 and p=5;f=1,1,1,1 have four embeddings, so
# `in_sigma_S` over every prime stands for eight and sixteen charts.
REGION_QUERIES = (
    ("p=3;f=2,1", 6),
    ("p=2;f=2,1", 8),
    ("p=5;f=1,1,1", 5),
    ("p=3;f=3,1", 6),
    ("p=2;f=2,1,1", 4),
    ("p=5;f=1,1,1,1", 5),
)
EXIT_CODES = "exit_codes.json"
DIGESTS = os.path.join(ROOT, "tests", "data", "report_digests.json")


def compositions(n: int):
    """Ordered tuples of positive ints summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def commands():
    """(file name, cli argv without --out) of every report in the set."""
    for check, profile, den in SWEEPS:
        for w in (1, 2):
            yield (
                f"bench-{check}-{profile}-d{den}-w{w}",
                ["verify", check, "--profile", profile, "--den", str(den), "--workers", str(w)],
            )
    for profile in SWEEP_PROFILES:
        den = str(SMALL_DENS[int(profile[2])])
        for w in ("1", "3"):
            common = ["--profile", profile, "--den", den, "--workers", w]
            yield f"sigma-up-{profile}-d{den}-w{w}", ["verify", "sigma-up", *common]
            yield (
                f"sigma-up-dropped-{profile}-d{den}-w{w}",
                ["verify", "sigma-up", *common, "--drop-genericity"],
            )
            for cap in (MANY_COUNTEREXAMPLES, ALL_COUNTEREXAMPLES):
                yield (
                    f"sigma-up-dropped-cx{cap}-{profile}-d{den}-w{w}",
                    [
                        "verify", "sigma-up", *common, "--drop-genericity",
                        "--max-counterexamples", cap,
                    ],
                )
            yield f"saturation-{profile}-d{den}-w{w}", ["verify", "saturation", *common]
    for profile, den, saturation in SWAP_SWEEPS:
        for w in ("1", "3"):
            common = ["--profile", profile, "--den", den, "--workers", w]
            yield f"sigma-up-{profile}-d{den}-w{w}", ["verify", "sigma-up", *common]
            yield (
                f"sigma-up-dropped-cx{MANY_COUNTEREXAMPLES}-{profile}-d{den}-w{w}",
                [
                    "verify", "sigma-up", *common, "--drop-genericity",
                    "--max-counterexamples", MANY_COUNTEREXAMPLES,
                ],
            )
            if saturation:
                yield f"saturation-{profile}-d{den}-w{w}", ["verify", "saturation", *common]
    for profile in TINY_PROFILES:
        for den in TINY_DENS:
            for w in ("1", "3"):
                common = ["--profile", profile, "--den", str(den), "--workers", w]
                yield f"sigma-up-{profile}-d{den}-w{w}", ["verify", "sigma-up", *common]
                yield (
                    f"sigma-up-dropped-{profile}-d{den}-w{w}",
                    ["verify", "sigma-up", *common, "--drop-genericity"],
                )
                yield f"saturation-{profile}-d{den}-w{w}", ["verify", "saturation", *common]
    for q, n in TWISTS:
        twist = ["verify", "twist", "--q", str(q), "--n", str(n)]
        yield f"twist-q{q}-n{n}", twist
        yield f"twist-q{q}-n{n}-corrupt", twist + ["--corrupt"]
        yield f"twist-q{q}-n{n}-seed7-trials3", twist + TWIST_SEEDED
        yield f"twist-q{q}-n{n}-seed7-trials3-corrupt", twist + TWIST_SEEDED + ["--corrupt"]
    for q, n, extra in TWISTS_WITHOUT_TRIALS:
        yield (
            f"twist-q{q}-n{n}{'-corrupt' if extra else ''}",
            ["verify", "twist", "--q", str(q), "--n", str(n), *extra],
        )
    for q, n, extra in LARGE_TWISTS:
        yield (
            f"twist-q{q}-n{n}",
            ["verify", "twist", "--q", str(q), "--n", str(n), *extra],
        )
    for q in GAUSS_ORDERS:
        for e in range(q - 1):
            yield f"gauss-q{q}-e{e}", ["gauss", "--q", str(q), "--char-exp", str(e)]
    strata_profiles = list(STRATA_EXTRA)
    for p in COVERAGE_PRIMES:
        for g in range(1, MAX_G + 1):
            for parts in compositions(g):
                profile = f"p={p};f={','.join(map(str, parts))}"
                yield f"coverage-{profile}", ["regions", "coverage", "--profile", profile]
                if g <= STRATA_MAX_G:
                    strata_profiles.append(profile)
    for profile in strata_profiles:
        for tag, extra in STRATA_FILTERS.items():
            yield (
                f"strata{tag}-{profile}",
                ["strata", "enumerate", "--profile", profile, *extra],
            )
    for w in ("1", "2"):
        yield (
            f"suite-{SUITE_PROFILE}-w{w}",
            ["suite", "--profile", SUITE_PROFILE, "--den", "24", "--workers", w],
        )
    from itertools import product

    from stratgrid.embeddings import parse_profile

    for text in CUSP_PROFILES:
        profile = parse_profile(text)
        for bits in product("01", repeat=profile.g):
            deg = {profile.label(k): v for k, v in enumerate(bits)}
            point = json.dumps({"deg": deg, "cusp": True})
            yield (
                f"cusp-sigma-{text}-{''.join(bits)}",
                ["regions", "check", "--profile", text, "--point", point, "--region", "sigma"],
            )


def _vertex_and_edge_points(g: int, den: int, free_values=()):
    """Entries of every vertex and open-edge point of the grid at den, then of
    every edge point whose one free entry is in `free_values`."""
    from fractions import Fraction
    from itertools import product

    for scaled in product(range(den + 1), repeat=g):
        if sum(0 < a < den for a in scaled) <= 1:
            yield tuple(Fraction(a, den) for a in scaled)
    for k in range(g):
        for v in free_values:
            for corner in product((0, 1), repeat=g - 1):
                yield tuple(map(Fraction, corner[:k] + (v,) + corner[k:]))


def feasible_records(profile_text: str, den: int) -> list[dict]:
    """`feasible_d_grid` on every vertex and edge h, each generic flag and each
    genericity setting: the d found, or the error raised."""
    from stratgrid.degrees import DegreeVector
    from stratgrid.embeddings import parse_profile
    from stratgrid.hecke import feasible_d_grid

    profile = parse_profile(profile_text)
    records = []
    for entries in _vertex_and_edge_points(profile.g, den):
        for generic in (True, False):
            h = DegreeVector(profile, entries, generic=generic)
            for drop in (False, True):
                rec = {"h": [str(v) for v in entries], "generic": generic, "drop": drop}
                try:
                    found = feasible_d_grid(h, den, drop)
                except ValueError as e:
                    rec["error"] = f"{type(e).__name__}: {e}"
                else:
                    rec["d"] = [[str(v) for v in d.entries] for d in found]
                records.append(rec)
    return records


def region_records(profile_text: str, den: int) -> list[dict]:
    """`in_sigma`, `in_sigma_S` and `in_vcan` on every vertex and edge h and
    on the edge points at the thresholds, each generic flag."""
    from stratgrid.degrees import DegreeVector
    from stratgrid.embeddings import parse_profile
    from stratgrid.regions import delta, in_sigma, in_sigma_S, in_vcan

    profile = parse_profile(profile_text)
    p, n = profile.p, profile.n_primes
    thresholds = {delta(p, j) for j in range(1, max(profile.f) + 1)} | {1 - delta(p, 1)}
    charts = [tuple(range(n))] + [(i,) for i in range(n)]
    records = []
    for entries in _vertex_and_edge_points(profile.g, den, sorted(thresholds)):
        for generic in (True, False):
            h = DegreeVector(profile, entries, generic=generic)
            rec = {"h": [str(v) for v in entries], "generic": generic}
            rec["in_sigma"] = in_sigma(h).value
            for S in charts:
                rec[f"in_sigma_S {','.join(map(str, S))}"] = in_sigma_S(h, S).value
            rec["in_vcan"] = in_vcan(h)
            records.append(rec)
    return records


def _file_name(name: str) -> str:
    return name.replace(";", "_").replace("=", "").replace(",", ".") + ".json"


def file_digest(path: str):
    """SHA-256 of a file's bytes in hex, or None when there is no file."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(out_dir: str) -> dict:
    """The digests of a capture in `out_dir`: each command's exit code and
    report digest, and the digest of every other file, the record sets."""
    with open(os.path.join(out_dir, EXIT_CODES), encoding="utf-8") as fh:
        codes = json.load(fh)
    reports = {
        name: {"exit": code, "sha256": file_digest(os.path.join(out_dir, _file_name(name)))}
        for name, code in codes.items()
    }
    written = {_file_name(name) for name in codes} | {EXIT_CODES}
    record_sets = {
        name: file_digest(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
        if name not in written
    }
    return {"reports": reports, "record_sets": record_sets}


def digest(path: str = DIGESTS) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        capture(tmp)
        found = digests(tmp)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(found, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def differences(pinned: dict, found: dict) -> list[str]:
    """One line for each command or record set whose digest or exit code in
    `found` differs from `pinned`, or that only one of them has."""
    out = []
    for section in ("reports", "record_sets"):
        want, got = pinned.get(section, {}), found.get(section, {})
        for name in sorted(want.keys() | got.keys()):
            if name not in got:
                out.append(f"not recomputed: {name}")
            elif name not in want:
                out.append(f"not pinned: {name}")
            elif want[name] != got[name]:
                out.append(f"differs: {name}")
    return out


def check(path: str = DIGESTS) -> int:
    with open(path, encoding="utf-8") as fh:
        pinned = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        capture(tmp)
        found = digests(tmp)
    lines = differences(pinned, found)
    for line in lines:
        print(line)
    total = sum(len(found[section]) for section in ("reports", "record_sets"))
    print(f"{total - len(lines)} of {total} digests match {path}")
    return 1 if lines else 0


def capture(out_dir: str) -> int:
    from stratgrid import cli

    os.makedirs(out_dir, exist_ok=True)
    codes = {}
    for name, argv in commands():
        path = os.path.join(out_dir, _file_name(name))
        codes[name] = cli.run([*argv, "--out", path])
    with open(os.path.join(out_dir, EXIT_CODES), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    record_sets = (
        ("feasible", feasible_records, FEASIBLE),
        ("regions", region_records, REGION_QUERIES),
    )
    for prefix, make, cases in record_sets:
        for profile, den in cases:
            path = os.path.join(out_dir, _file_name(f"{prefix}-{profile}-d{den}"))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(make(profile, den), fh, indent=1)
                fh.write("\n")
    print(
        f"captured {len(codes)} reports, {len(FEASIBLE)} feasible sets and "
        f"{len(REGION_QUERIES)} region-query sets in {out_dir}"
    )
    return 0


def compare(a: str, b: str) -> int:
    names_a, names_b = set(os.listdir(a)), set(os.listdir(b))
    for name in sorted(names_a ^ names_b):
        print(f"only in {a if name in names_a else b}: {name}")
    same = differ = 0
    for name in sorted(names_a & names_b):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() == fb.read():
                same += 1
            else:
                differ += 1
                print(f"differs: {name}")
    print(f"{same} identical, {differ} differing, {len(names_a ^ names_b)} unmatched")
    return 0 if differ == 0 and names_a == names_b else 1


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "capture":
        return capture(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        try:
            return compare(argv[1], argv[2])
        except OSError as e:  # a capture that is missing or cannot be read
            print(f"error: cannot read {e.filename}: {e.strerror}", file=sys.stderr)
            return 2
    if argv == ["digest"]:
        return digest()
    if argv == ["check"]:
        return check()
    print(
        "usage: golden.py capture DIR | golden.py compare A B | golden.py digest"
        " | golden.py check",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
