"""Command-line front end: enumeration, region queries, verification sweeps,
Gauss sums, and a one-shot suite runner with deterministic JSON reports.

Exit codes: 0 success, 1 verification failure (counterexamples found),
2 usage error.  Reports are valid JSON on every non-usage path.  A sweep that
checks no pairs, a generic sigma-up sweep whose pinned points lie off the grid
(so that some check no d), or a twist that runs no trials, adds one `warning:`
line on stderr and changes nothing else.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from random import Random

from .characters import (
    COEFF_CAP,
    CyclotomicInt,
    FieldChar,
    GF,
    all_field_chars,
    all_unit_chars,
    conductor,
    gauss_sum,
    random_twist_seed,
    twist_laws,
    UnitGroup,
    verify_twist_identity,
    _detectable_index,
    _prime_power,
)
from .degrees import DegreeVector, pair_of_degvec, w_T_deg
from .embeddings import parse_profile
from .hecke import _check_sweep, _off_grid_pins, saturation_check, verify_sigma_up
from .regions import coverage_check, in_sigma, in_sigma_S, in_vcan, Verdict
from .strata import _face_masks, closure_set, codim, enumerate_admissible, pi_image, w_T_pair

SCHEMA = "1"
SUITE_RNG_SEED = 20240601
_SWEEPS = ("sigma-up", "saturation")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exit 2; the subparsers
    inherit it through `parser_class`."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process, on the first `run`."""
    top = _Parser(prog="stratgrid", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, profile=True):
        if profile:
            p.add_argument("--profile", required=True, help='e.g. "p=3;f=2,1"')
        p.add_argument("--out", help="write the JSON report to this path")

    strata = sub.add_parser("strata", help="stratum enumeration")
    strata_sub = strata.add_subparsers(dest="subcommand", required=True)
    enum = strata_sub.add_parser("enumerate", help="list admissible pairs")
    add_common(enum)
    enum.add_argument("--codim", type=int, default=None)
    enum.add_argument("--nowhere-etale", action="store_true", default=False)

    regions = sub.add_parser("regions", help="membership and coverage")
    regions_sub = regions.add_subparsers(dest="subcommand", required=True)
    check = regions_sub.add_parser("check", help="membership of one point")
    add_common(check)
    check.add_argument("--point", required=True, help="degree-vector JSON")
    check.add_argument("--region", required=True, choices=("sigma", "vcan", "sigmaS"))
    check.add_argument("--S", default=None, help="comma-separated prime indices")
    coverage = regions_sub.add_parser("coverage", help="chart coverage check")
    add_common(coverage)

    verify = sub.add_parser("verify", help="verification sweeps")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    for name in ("sigma-up", "saturation"):
        v = verify_sub.add_parser(name)
        add_common(v)
        v.add_argument("--den", type=int, default=24)
        v.add_argument("--max-counterexamples", type=int, default=5)
        v.add_argument("--workers", type=int, default=None)
        if name == "sigma-up":
            v.add_argument("--drop-genericity", action="store_true", default=False)
    twist = verify_sub.add_parser("twist")
    add_common(twist, profile=False)
    twist.add_argument("--q", type=int, required=True)
    twist.add_argument("--n", type=int, required=True)
    twist.add_argument("--trials", type=int, default=10)
    twist.add_argument("--seed", type=int, default=0)
    twist.add_argument("--corrupt", action="store_true", default=False)

    gauss = sub.add_parser("gauss", help="Gauss sum coefficient vector")
    add_common(gauss, profile=False)
    gauss.add_argument("--q", type=int, required=True)
    gauss.add_argument("--char-exp", type=int, required=True)

    suite = sub.add_parser("suite", help="run every check once")
    add_common(suite)
    suite.add_argument("--den", type=int, default=24)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--workers", type=int, default=None)
    return top


def _workers(ns) -> int:
    if getattr(ns, "workers", None) is not None:
        return ns.workers
    env = os.environ.get("TOOL_WORKERS")
    return int(env) if env else 1


def _cmd_strata_enumerate(ns):
    profile = parse_profile(ns.profile)
    pairs = enumerate_admissible(
        profile,
        codim_filter=ns.codim,
        nowhere_etale=True if ns.nowhere_etale else None,
    )
    report = {
        "schema": SCHEMA,
        "check": "strata-enumerate",
        "profile": profile.to_json_dict(),
        "count": len(pairs),
        "strata": [p.to_json_dict() for p in pairs],
    }
    return report, False


def _cmd_regions_check(ns):
    profile = parse_profile(ns.profile)
    h = DegreeVector.from_json_dict(profile, json.loads(ns.point))
    report = {
        "schema": SCHEMA,
        "check": "region",
        "profile": profile.to_json_dict(),
        "region": ns.region,
        "point": h.to_json_dict(),
    }
    if ns.region == "sigma":
        report["verdict"] = in_sigma(h).value
    elif ns.region == "vcan":
        report["verdict"] = Verdict.IN.value if in_vcan(h) else Verdict.OUT.value
    else:
        if ns.S is None:
            raise ValueError("--S is required for region sigmaS")
        S = sorted({int(tok) for tok in ns.S.split(",") if tok.strip() != ""})
        report["S"] = S
        report["verdict"] = in_sigma_S(h, S).value
    return report, False


def _cmd_regions_coverage(ns):
    report = coverage_check(parse_profile(ns.profile)).to_json_dict()
    return report, not report["pass"]


def _cmd_verify_sigma_up(ns):
    report = verify_sigma_up(
        parse_profile(ns.profile),
        ns.den,
        drop_genericity=ns.drop_genericity,
        max_counterexamples=ns.max_counterexamples,
        workers=_workers(ns),
    )
    return report, not report["pass"]


def _cmd_verify_saturation(ns):
    report = saturation_check(
        parse_profile(ns.profile),
        ns.den,
        max_counterexamples=ns.max_counterexamples,
        workers=_workers(ns),
    )
    return report, not report["pass"]


def _twist_mismatch(field, group, psi_p, psi_n, M, seed, corrupt):
    """Mismatch index of one real trial (r = 2, s = 3, C = 1), or None."""
    twist_seed = random_twist_seed(field, group, M, seed)
    rep = verify_twist_identity(field, group, psi_p, psi_n, 2, 3, 1, twist_seed, corrupt=corrupt)
    return rep.mismatch_index


def _twist_runs(q, n, trials, seed, corrupt):
    """Trials of the twist identity on every character pair: (runs, failures, M).

    Trial 0 of a pair runs for real.  When `twist_laws` hold, every trial of
    the pair passes, or with `corrupt` fails at `_detectable_index`: C = 1,
    W(psi_p) != 0 and S_n(v) != 0 there, so no seed hides the perturbation.
    The other trials take that answer if trial 0 agrees with it.  If a law
    fails or trial 0 disagrees, every trial runs for real.
    """
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    # lcm(p, q - 1, n) divides M, so a ring too large for it is refused
    # before any table of F_q or (Z/n)^x is built
    conductor(_prime_power(q)[0], q - 1, n)
    field, group = GF(q), UnitGroup(n)
    M = conductor(field.p, q - 1, n, group.exponent)
    failures = []
    runs = 0
    for psi_p in all_field_chars(field):
        if psi_p.is_trivial():
            continue
        for psi_n in all_unit_chars(group):
            if corrupt and psi_n.is_trivial():
                continue
            first = _twist_mismatch(field, group, psi_p, psi_n, M, seed, corrupt)
            predicted = _detectable_index(group, psi_n, M) if corrupt else None
            if first == predicted and twist_laws(field, group, psi_p, psi_n, M) is None:
                mismatches = [first] * trials
            else:
                mismatches = [first] + [
                    _twist_mismatch(field, group, psi_p, psi_n, M, seed + k, corrupt)
                    for k in range(1, trials)
                ]
            runs += trials
            for k, index in enumerate(mismatches):
                if index is not None:
                    failures.append(
                        {
                            "psi_p": psi_p.exp,
                            "psi_n": list(psi_n.exps),
                            "seed": seed + k,
                            "mismatch_index": list(index),
                        }
                    )
    return runs, failures, M


def _cmd_verify_twist(ns):
    runs, failures, M = _twist_runs(ns.q, ns.n, ns.trials, ns.seed, ns.corrupt)
    passed = not failures
    report = {
        "schema": SCHEMA,
        "check": "twist",
        "q": ns.q,
        "n": ns.n,
        "trials": ns.trials,
        "seed": ns.seed,
        "corrupt": ns.corrupt,
        "conductor": M,
        "runs": runs,
        "failure_total": len(failures),
        "failures": failures[:5],
        "pass": passed,
    }
    return report, not passed


def _cmd_gauss(ns):
    conductor(_prime_power(ns.q)[0])  # p divides W's conductor: refuse before GF
    # GF(q) tabulates all q elements.  A prime field passes the conductor check
    # only when q - 1 = phi(q) is at most COEFF_CAP; a prime power is held to
    # the same size before its tables are built.
    if ns.q - 1 > COEFF_CAP:
        raise ValueError(f"GF({ns.q}) has q - 1 = {ns.q - 1} units, more than {COEFF_CAP}")
    psi = FieldChar(GF(ns.q), ns.char_exp)
    W = gauss_sum(psi)
    report = {
        "schema": SCHEMA,
        "check": "gauss",
        "q": ns.q,
        "char_exp": ns.char_exp,
        "char_order": psi.order,
        "conductor": W.m,
        "coeffs": list(W.coeffs),
    }
    return report, False


def _suite_census(profile):
    pairs = enumerate_admissible(profile)
    return {
        "name": "census",
        "count": len(pairs),
        "expected": 3**profile.g,
        "pass": len(pairs) == 3**profile.g,
    }


def _suite_poset(profile):
    bad = 0
    pairs = enumerate_admissible(profile)
    full = profile.full_mask
    for pair in pairs:
        up = closure_set(pair)
        if any(codim(q) < codim(pair) for q in up):
            bad += 1
            continue
        free = (~pair.phi) & (~pair.eta) & full
        if len(pi_image(pair)) != 2 ** free.bit_count():
            bad += 1
            continue
        zeros, ones = _face_masks(pair)
        if codim(pair) != profile.g - (zeros | ones).bit_count():  # Open coordinates
            bad += 1
    return {"name": "poset-laws", "pairs": len(pairs), "violations": bad, "pass": bad == 0}


def _suite_atkin_lehner(profile, den, rng):
    samples = 100
    bad = 0
    n = profile.n_primes
    for _ in range(samples):
        h = DegreeVector.from_grid(profile, [rng.randint(0, den) for _ in range(profile.g)], den)
        T = tuple(i for i in range(n) if rng.random() < 0.5)
        if w_T_deg(w_T_deg(h, T), T) != h:
            bad += 1
            continue
        if pair_of_degvec(w_T_deg(h, T)) != w_T_pair(pair_of_degvec(h), T):
            bad += 1
    return {"name": "atkin-lehner", "samples": samples, "violations": bad, "pass": bad == 0}


def _suite_gauss_laws():
    orders = (3, 4, 5, 7, 8, 9)
    bad = 0
    for q in orders:
        field = GF(q)
        for psi in all_field_chars(field):
            if psi.is_trivial():
                if gauss_sum(psi) != -1:
                    bad += 1
                continue
            M = conductor(field.p, q - 1)
            W = gauss_sum(psi, M)
            Winv = gauss_sum(psi.inverse(), M)
            rhs = psi.at_minus_one(M) * CyclotomicInt.from_int(M, q)
            if W * Winv != rhs:
                bad += 1
    return {"name": "gauss-laws", "orders": list(orders), "violations": bad, "pass": bad == 0}


def _cmd_suite(ns):
    profile = parse_profile(ns.profile)
    workers = _workers(ns)
    # the sweeps' arguments are refused before the first check runs
    _check_sweep(profile, ns.den, workers)
    rng = Random(SUITE_RNG_SEED)
    checks = [
        _suite_census(profile),
        _suite_poset(profile),
        _suite_atkin_lehner(profile, ns.den, rng),
    ]
    cov = coverage_check(profile).to_json_dict()
    checks.append({"name": "coverage", "pass": cov["pass"], "report": cov})
    up = verify_sigma_up(profile, ns.den, workers=workers)
    checks.append({"name": "sigma-up", "pass": up["pass"], "report": up})
    sat = saturation_check(profile, ns.den, workers=workers)
    checks.append({"name": "saturation", "pass": sat["pass"], "report": sat})
    checks.append(_suite_gauss_laws())
    runs, failures, _ = _twist_runs(3, 4, 3, ns.seed, False)
    checks.append(
        {
            "name": "twist-sample",
            "runs": runs,
            "violations": len(failures),
            "pass": not failures,
        }
    )
    passed = all(c["pass"] for c in checks)
    report = {
        "schema": SCHEMA,
        "check": "suite",
        "profile": profile.to_json_dict(),
        "den": ns.den,
        "seed": ns.seed,
        "checks": checks,
        "pass": passed,
    }
    return report, not passed


_DISPATCH = {
    ("strata", "enumerate"): _cmd_strata_enumerate,
    ("regions", "check"): _cmd_regions_check,
    ("regions", "coverage"): _cmd_regions_coverage,
    ("verify", "sigma-up"): _cmd_verify_sigma_up,
    ("verify", "saturation"): _cmd_verify_saturation,
    ("verify", "twist"): _cmd_verify_twist,
    ("gauss", None): _cmd_gauss,
    ("suite", None): _cmd_suite,
}


def _sweep_warnings(report: dict) -> list[str]:
    """The `warning:` lines of the report's sweeps, the report itself or a
    suite's, in order: one when a sweep checks no pairs, and one when a
    generic sigma-up sweep holds pinned In points whose pin is off the grid
    (`hecke._off_grid_pins`), so that they check no d."""
    sweeps = [c["report"] for c in report.get("checks", ()) if c["name"] in _SWEEPS]
    if report.get("check") in _SWEEPS:
        sweeps.append(report)
    lines = []
    for sweep in sweeps:
        if sweep["pairs_checked"] == 0:
            profile = parse_profile(sweep["profile"])
            lines.append(f"warning: {sweep['check']} on {profile} checked no pairs")
        if sweep["check"] == "sigma-up" and not sweep["scenario"]["drop_genericity"]:
            p, f, den = sweep["profile"]["p"], sweep["profile"]["f"], sweep["den"]
            pins = _off_grid_pins(p, f, den)
            if pins:
                deltas = ", ".join(f"delta({p}, {j}) = {dj}" for j, dj in pins)
                lines.append(
                    f"warning: sigma-up on {parse_profile(sweep['profile'])} leaves pinned"
                    f" points unchecked: {deltas} is off the 1/{den} grid"
                )
    return lines


def run(argv=None) -> int:
    """Parse argv, dispatch, emit the JSON report, and return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler = _DISPATCH[(ns.command, getattr(ns, "subcommand", None))]
    try:
        report, failed = handler(ns)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in _sweep_warnings(report):
        print(line, file=sys.stderr)
    if report.get("check") == "twist" and report["runs"] == 0:
        print(f"warning: twist on q={report['q']}, n={report['n']} ran no trials", file=sys.stderr)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
