"""The benchmark's workloads: inputs made from a seed, and a check of every output.

sweep-serial   `verify sigma-up` on p=3;f=2, p=5;f=3 and p=3;f=2,1 and
               `verify saturation` on p=3;f=2, through `cli.run` with one
               worker.  Feasible-d enumeration in `hecke` does nearly all the
               work.  The inputs cover a single two-entry block, a pinned
               three-entry block, a multi-prime product with the f=1 self-edge
               path, and saturation's filter and JSON round trip.  Each den is
               a multiple of p^(max f - 1), so every threshold lies on the grid.
sweep-parallel The same commands with two workers: only here do pool start-up,
               the chunk split, the per-worker candidate rebuild and the merge
               run.  Each report must be byte-identical to the serial one.
checks         No pool.  `coverage_check` over every profile with g <= 6 for
               p in {2, 3, 5, 7}, seeded region queries, `verify twist`,
               Gauss-sum laws and one `suite` run: `embeddings`, `strata`,
               `degrees`, `regions`, `characters` and `cli` do the work.

The seed orders the sweep commands, and picks the query points and twist seeds
of `checks`.  Input generation below needs no stratgrid import, so the runner
can describe a workload's input mix without loading the library.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from random import Random

WORKLOADS = ("sweep-serial", "sweep-parallel", "checks")
# The inputs of every workload at once: what a traced run measures, so that
# each traced run reaches every layer.
ALL = "all"
PARALLEL_WORKERS = 2

SWEEPS = (
    ("sigma-up", "p=3;f=2", 135),
    ("sigma-up", "p=5;f=3", 75),
    ("sigma-up", "p=3;f=2,1", 135),
    ("saturation", "p=3;f=2", 135),
)
# Report fields compared with the captured expectations.  Fields added to the
# reports later, such as a `vacuous` flag, are not compared.
SWEEP_FIELDS = (
    "grid_points",
    "points_in",
    "pairs_checked",
    "counterexample_total",
    "counterexamples",
    "pass",
    "membership_pure",
)
COVERAGE_FIELDS = ("pass", "vertex_failures", "edge_failures")

COVERAGE_PRIMES = (2, 3, 5, 7)
MAX_G = 6
TWISTS = ((3, 4), (5, 3), (9, 4))
TWIST_TRIALS = 5
# Prime powers up to 27 except 16: GF builds extensions of degree <= 3 only.
GAUSS_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23, 25, 27)
SUITE_ARGS = ("suite", "--profile", "p=3;f=2,1", "--den", "24")

# Region queries come from a fixed pool per profile; the seed samples it.
POOL_SEED = 20121
POOL_PER_PROFILE = 40
POINT_KINDS = ("vertex", "edge", "edge", "edge", "interior")
GENERIC_SHARE = 0.8
THRESHOLD_SHARE = 0.1
QUERIES_PER_PROFILE = 13
QUERIES = ("in_sigma", "in_sigma_S", "in_vcan")
VERDICT_CHAR = {"in": "i", "out": "o", "indeterminate": "x"}

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


# ---------------------------------------------------------------------------
# inputs


def partitions(n: int, largest: int | None = None):
    """Weakly decreasing partitions of n."""
    if n == 0:
        yield ()
        return
    largest = n if largest is None else largest
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def profile_text(p: int, f) -> str:
    return f"p={p};f={','.join(map(str, f))}"


def all_profiles() -> list[tuple[int, tuple[int, ...]]]:
    return [
        (p, parts)
        for p in COVERAGE_PRIMES
        for g in range(1, MAX_G + 1)
        for parts in partitions(g)
    ]


def _delta(p: int, j: int) -> Fraction:
    return sum((Fraction(1, p**i) for i in range(1, j + 1)), Fraction(0))


def query_pool(p: int, f) -> list[tuple[str, tuple[Fraction, ...], bool]]:
    """Fixed query points of one profile: (kind, entries, generic flag).

    Vertices, points on open edges (a tenth of them exactly on a threshold
    delta(p, j) of the free block) and interior points with two or more
    fractional coordinates, on the grid 1/(12 p^(max f - 1)).
    """
    rng = Random(f"{POOL_SEED} {profile_text(p, f)}")
    g = sum(f)
    block_of = [d for d in f for _ in range(d)]
    den = 12 * p ** (max(f) - 1)
    out = []
    for k in range(POOL_PER_PROFILE):
        kind = POINT_KINDS[k % len(POINT_KINDS)]
        if kind == "interior" and g < 2:
            kind = "edge"
        entries = [Fraction(rng.randint(0, 1)) for _ in range(g)]
        if kind == "edge":
            beta = rng.randrange(g)
            fb = block_of[beta]
            if fb > 1 and rng.random() < THRESHOLD_SHARE:
                entries[beta] = _delta(p, rng.randint(1, fb - 1))
            else:
                entries[beta] = Fraction(rng.randrange(1, den), den)
        elif kind == "interior":
            for beta in rng.sample(range(g), rng.randint(2, g)):
                entries[beta] = Fraction(rng.randrange(1, den), den)
        out.append((kind, tuple(entries), rng.random() < GENERIC_SHARE))
    return out


def query_sample(seed: int) -> list[tuple[int, int]]:
    """(profile index, pool index) of the query points, in query order.

    The same number of points from every profile, so that the share of
    costly multi-prime queries, which set op_p99_ms, does not vary by seed.
    """
    rng = Random(seed)
    out = [
        (i, k)
        for i in range(len(all_profiles()))
        for k in rng.sample(range(POOL_PER_PROFILE), QUERIES_PER_PROFILE)
    ]
    rng.shuffle(out)
    return out


def sampled_points(seed: int):
    """(profile index, pool index, point) of each query point, in query order."""
    profiles = all_profiles()
    pools: dict[int, list] = {}
    for i, k in query_sample(seed):
        if i not in pools:
            pools[i] = query_pool(*profiles[i])
        yield i, k, pools[i][k]


def sweep_order(seed: int):
    return Random(seed).sample(SWEEPS, len(SWEEPS))


def sweep_key(check: str, profile: str, den: int) -> str:
    return f"{check} {profile} @{den}"


def file_name(key: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in key) + ".json"


def input_mix(seed: int, expected: dict) -> dict:
    """Shares of point kinds, verdict counts per query and the n_primes spread."""
    profiles = all_profiles()
    kinds: dict[str, int] = {}
    n_primes: dict[int, int] = {}
    verdicts = {q: {"in": 0, "out": 0, "indeterminate": 0} for q in QUERIES}
    names = {v: k for k, v in VERDICT_CHAR.items()}
    for i, k, (kind, _, _) in sampled_points(seed):
        p, f = profiles[i]
        kinds[kind] = kinds.get(kind, 0) + 1
        n_primes[len(f)] = n_primes.get(len(f), 0) + 1
        chars = expected["queries"][profile_text(p, f)]
        for q, c in zip(QUERIES, chars[3 * k : 3 * k + 3]):
            verdicts[q][names[c]] += 1
    total = {v: sum(verdicts[q][v] for q in QUERIES) for v in names.values()}
    points = sum(kinds.values())
    return {
        "points": points,
        "kind_share": {k: v / points for k, v in sorted(kinds.items())},
        "verdicts": verdicts,
        "verdict_share": {v: c / (3 * points) for v, c in total.items()},
        "n_primes": {str(n): c for n, c in sorted(n_primes.items())},
    }


# ---------------------------------------------------------------------------
# checking outputs


def matches(expected, actual) -> bool:
    """Whether `actual` agrees with `expected` on every key `expected` has."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and matches(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(matches(e, a) for e, a in zip(expected, actual))
        )
    return type(expected) is type(actual) and expected == actual


def project_sweep(report: dict) -> dict:
    return {k: report[k] for k in SWEEP_FIELDS if k in report}


def coverage_digest(report: dict) -> str:
    fields = {k: report[k] for k in COVERAGE_FIELDS}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]


def project_suite(report: dict) -> dict:
    checks = []
    for c in report["checks"]:
        item = {k: v for k, v in c.items() if k != "report"}
        if c["name"] == "coverage":
            item["report"] = {k: c["report"][k] for k in COVERAGE_FIELDS}
        elif "report" in c:
            item["report"] = project_sweep(c["report"])
        checks.append(item)
    return {"pass": report["pass"], "checks": checks}


def project_twist(report: dict) -> dict:
    return {k: report[k] for k in ("runs", "failure_total", "pass")}


def suite_sweeps(report: dict) -> list[dict]:
    return [c["report"] for c in report["checks"] if c["name"] in ("sigma-up", "saturation")]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# operations


class Op:
    """One operation: `call()` does the work that is timed, `check(result)`
    returns (error or None, sweep reports) and is not timed."""

    __slots__ = ("name", "kind", "call", "check", "report_file")

    def __init__(self, name, kind, call, check, report_file=None):
        self.name, self.kind, self.call, self.check = name, kind, call, check
        self.report_file = report_file


def _command_op(api, name, kind, argv, out_path, expect, sweeps_of):
    def call():
        return api.run([*argv, "--out", out_path])

    def check(code):
        if code != 0:
            return f"exit code {code}", []
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        if not matches(expect, report):
            return "report differs from the captured expectation", []
        return None, sweeps_of(report)

    return Op(name, kind, call, check, os.path.basename(out_path))


def gauss_violations(api, q: int) -> int:
    """Characters of GF(q) breaking g(psi) = -1 (trivial psi) or
    g(psi) g(psi^-1) = psi(-1) q (the rest)."""
    from stratgrid.characters import GF, CyclotomicInt, all_field_chars, conductor

    field = GF(q)
    bad = 0
    for psi in all_field_chars(field):
        if psi.is_trivial():
            bad += api.gauss_sum(psi) != -1
            continue
        M = conductor(field.p, q - 1)
        product = api.gauss_sum(psi, M) * api.gauss_sum(psi.inverse(), M)
        bad += product != psi.at_minus_one(M) * CyclotomicInt.from_int(M, q)
    return bad


def sweep_ops(api, seed, workers, out_dir, expected) -> list[Op]:
    ops = []
    for check, profile, den in sweep_order(seed):
        key = sweep_key(check, profile, den)
        argv = ["verify", check, "--profile", profile, "--den", str(den), "--workers", str(workers)]
        path = os.path.join(out_dir, file_name(key))
        ops.append(
            _command_op(api, key, "command", argv, path, expected["sweeps"][key], lambda r: [r])
        )
    return ops


def suite_op(api, workers, out_dir, expected) -> Op:
    argv = [*SUITE_ARGS, "--workers", str(workers)]
    path = os.path.join(out_dir, file_name("suite"))
    return _command_op(api, "suite", "suite", argv, path, expected["suite"], suite_sweeps)


def checks_ops(api, seed, out_dir, expected) -> list[Op]:
    from stratgrid.degrees import DegreeVector
    from stratgrid.embeddings import parse_profile

    profiles = all_profiles()
    parsed = [parse_profile(profile_text(p, f)) for p, f in profiles]
    ops = []
    for (p, f), prof in zip(profiles, parsed):
        text = profile_text(p, f)
        digest = expected["coverage"][text]
        ops.append(
            Op(
                f"coverage {text}",
                "coverage",
                lambda prof=prof: api.coverage_check(prof),
                lambda rep, d=digest: (
                    None if coverage_digest(rep.to_json_dict()) == d else "coverage report differs",
                    [],
                ),
            )
        )
    for i, k, (_, entries, generic) in sampled_points(seed):
        p, f = profiles[i]
        h = DegreeVector(parsed[i], entries, generic=generic)
        everything = tuple(range(len(f)))
        want = expected["queries"][profile_text(p, f)][3 * k : 3 * k + 3]
        calls = (
            lambda h=h: VERDICT_CHAR[api.in_sigma(h).value],
            lambda h=h, S=everything: VERDICT_CHAR[api.in_sigma_S(h, S).value],
            lambda h=h: "i" if api.in_vcan(h) else "o",
        )
        for q, call, c in zip(QUERIES, calls, want):
            ops.append(
                Op(
                    f"{q} {profile_text(p, f)}#{k}",
                    "query",
                    call,
                    lambda got, c=c: (None if got == c else f"verdict {got}, expected {c}", []),
                )
            )
    for q, n in TWISTS:
        key = f"twist {q},{n}"
        argv = [
            "verify", "twist", "--q", str(q), "--n", str(n),
            "--trials", str(TWIST_TRIALS), "--seed", str(seed),
        ]
        path = os.path.join(out_dir, file_name(key))
        ops.append(_command_op(api, key, "twist", argv, path, expected["twist"][key], lambda r: []))
    for q in GAUSS_ORDERS:
        ops.append(
            Op(
                f"gauss-laws {q}",
                "gauss",
                lambda q=q: gauss_violations(api, q),
                lambda bad: (None if bad == 0 else f"{bad} characters break a law", []),
            )
        )
    ops.append(suite_op(api, 1, out_dir, expected))
    return ops


def build(workload, seed, api, out_dir, workers, sweeps_only, expected) -> list[Op]:
    """Operations of one pass over a workload's inputs (or ALL), in order.

    `workers` is the sweep worker count; `sweeps_only` keeps only the
    operations that run sweeps (for `checks`, the suite).
    """
    ops = []
    if workload in ("sweep-serial", "sweep-parallel", ALL):
        ops += sweep_ops(api, seed, workers, out_dir, expected)
    if workload in ("checks", ALL):
        if sweeps_only:
            ops.append(suite_op(api, workers, out_dir, expected))
        else:
            ops += checks_ops(api, seed, out_dir, expected)
    if not ops:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
