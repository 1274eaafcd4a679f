"""Command-line front end: enumeration, region queries, verification sweeps,
Gauss sums, and a one-shot suite runner with deterministic JSON reports.

Exit codes: 0 success, 1 verification failure (counterexamples found),
2 usage error.  Reports are valid JSON on every non-usage path.

Each leaf of the argparse tree names its handler, which returns the report,
whether it failed, and its `warning:` lines: one for a sweep that checks no
pairs, one for a generic sigma-up sweep whose pinned points lie off the grid
(so that some check no d), and one for a twist that runs no trials.  `run`
prints them on stderr after the report is written; they change nothing else.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import stat
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
    twist_laws,
    UnitGroup,
    verify_twist_identity,
    _detectable_index,
    _prime_power,
    _TwistTable,
)
from .degrees import DegreeVector, pair_of_degvec, w_T_deg
from .embeddings import parse_profile
from .hecke import _check_sweep, _off_grid_pins, saturation_check, verify_sigma_up
from .regions import coverage_check, in_sigma, in_sigma_S, in_vcan, Verdict
from .strata import _face_masks, closure_set, codim, enumerate_admissible, pi_image, w_T_pair

SCHEMA = "1"
SUITE_RNG_SEED = 20240601


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exit 2; the subparsers
    inherit it through `parser_class`."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process, on the first `run`; each
    leaf names its handler as `handler`."""
    top = _Parser(prog="stratgrid", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, handler, profile=True):
        p.set_defaults(handler=handler)
        if profile:
            p.add_argument("--profile", required=True, help='e.g. "p=3;f=2,1"')
        p.add_argument("--out", help="write the JSON report to this path")

    strata = sub.add_parser("strata", help="stratum enumeration")
    strata_sub = strata.add_subparsers(dest="subcommand", required=True)
    enum = strata_sub.add_parser("enumerate", help="list admissible pairs")
    add_common(enum, _cmd_strata_enumerate)
    enum.add_argument("--codim", type=int, default=None)
    enum.add_argument("--nowhere-etale", action="store_true", default=False)

    regions = sub.add_parser("regions", help="membership and coverage")
    regions_sub = regions.add_subparsers(dest="subcommand", required=True)
    check = regions_sub.add_parser("check", help="membership of one point")
    add_common(check, _cmd_regions_check)
    check.add_argument("--point", required=True, help="degree-vector JSON")
    check.add_argument("--region", required=True, choices=("sigma", "vcan", "sigmaS"))
    check.add_argument("--S", default=None, help="comma-separated prime indices")
    coverage = regions_sub.add_parser("coverage", help="chart coverage check")
    add_common(coverage, _cmd_regions_coverage)

    verify = sub.add_parser("verify", help="verification sweeps")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    for name in ("sigma-up", "saturation"):
        v = verify_sub.add_parser(name)
        add_common(v, _cmd_verify_sweep)
        v.add_argument("--den", type=int, default=24)
        v.add_argument("--max-counterexamples", type=int, default=5)
        v.add_argument("--workers", type=int, default=None)
        if name == "sigma-up":
            v.add_argument("--drop-genericity", action="store_true", default=False)
    twist = verify_sub.add_parser("twist")
    add_common(twist, _cmd_verify_twist, profile=False)
    twist.add_argument("--q", type=int, required=True)
    twist.add_argument("--n", type=int, required=True)
    twist.add_argument("--trials", type=int, default=10)
    twist.add_argument("--seed", type=int, default=0)
    twist.add_argument("--corrupt", action="store_true", default=False)

    gauss = sub.add_parser("gauss", help="Gauss sum coefficient vector")
    add_common(gauss, _cmd_gauss, profile=False)
    gauss.add_argument("--q", type=int, required=True)
    gauss.add_argument("--char-exp", type=int, required=True)

    suite = sub.add_parser("suite", help="run every check once")
    add_common(suite, _cmd_suite)
    suite.add_argument("--den", type=int, default=24)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--workers", type=int, default=None)
    return top


def _workers(ns) -> int:
    if ns.workers is not None:
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
    return report, False, []


def _cmd_regions_check(ns):
    profile = parse_profile(ns.profile)
    try:
        point = json.loads(ns.point)
    except RecursionError as e:
        raise ValueError(f"bad point JSON: {e}") from None
    h = DegreeVector.from_json_dict(profile, point)
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
    return report, False, []


def _cmd_regions_coverage(ns):
    report = coverage_check(parse_profile(ns.profile)).to_json_dict()
    return report, not report["pass"], []


def _sweep_warnings(profile, sweep: dict) -> list[str]:
    """The `warning:` lines of a sweep report on `profile`: one when it
    checks no pairs, and one when a generic sigma-up sweep holds pinned In
    points whose pin is off the grid (`hecke._off_grid_pins`), so that they
    check no d."""
    lines = []
    if sweep["pairs_checked"] == 0:
        lines.append(f"warning: {sweep['check']} on {profile} checked no pairs")
    if sweep["check"] == "sigma-up" and not sweep["scenario"]["drop_genericity"]:
        pins = _off_grid_pins(profile.p, profile.f, sweep["den"])
        if pins:
            deltas = ", ".join(f"delta({profile.p}, {j}) = {dj}" for j, dj in pins)
            lines.append(
                f"warning: sigma-up on {profile} leaves pinned points unchecked:"
                f" {deltas} is off the 1/{sweep['den']} grid"
            )
    return lines


def _cmd_verify_sweep(ns):
    """`verify sigma-up` and `verify saturation`."""
    profile = parse_profile(ns.profile)
    options = {"max_counterexamples": ns.max_counterexamples, "workers": _workers(ns)}
    if ns.subcommand == "sigma-up":
        report = verify_sigma_up(profile, ns.den, drop_genericity=ns.drop_genericity, **options)
    else:
        report = saturation_check(profile, ns.den, **options)
    return report, not report["pass"], _sweep_warnings(profile, report)


def _twist_mismatch(table, psi_p, psi_n, seed, corrupt):
    """Mismatch index of one real trial (r = 2, s = 3, C = 1), or None."""
    rep = verify_twist_identity(
        table.field, table.group, psi_p, psi_n, 2, 3, 1, table.seed(seed), corrupt=corrupt, table=table
    )
    return rep.mismatch_index


def _twist_runs(q, n, trials, seed, corrupt):
    """Trials of the twist identity on every character pair:
    (runs, failure total, the first five failure records, M).

    Trial 0 of a pair runs for real.  When `twist_laws` hold, every trial of
    the pair passes, or with `corrupt` fails at `_detectable_index`: C = 1,
    W(psi_p) != 0 and S_n(v) != 0 there, so no seed hides the perturbation.
    The other trials take that answer if trial 0 agrees with it.  If a law
    fails or trial 0 disagrees, every trial runs for real.  With one trial
    there is nothing to take, so neither is computed.  The checks share one
    `_TwistTable`, which the command drops when it returns.
    """
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    # lcm(q - 1, n) and then lcm(p, q - 1, n) divide M, so a ring too large
    # for them is refused before q is factored and before any table of F_q
    # or (Z/n)^x is built; a q below 2 is refused as no prime power at once
    if q > 1:
        conductor(q - 1, n)
    conductor(_prime_power(q)[0], q - 1, n)
    field, group = GF(q), UnitGroup(n)
    M = conductor(field.p, q - 1, n, group.exponent)
    table = _TwistTable(field, group, M)
    failures, total, runs = [], 0, 0
    for psi_p in all_field_chars(field):
        if psi_p.is_trivial():
            continue
        for psi_n in all_unit_chars(group):
            if corrupt and psi_n.is_trivial():
                continue
            runs += trials
            first = _twist_mismatch(table, psi_p, psi_n, seed, corrupt)
            predicted = _detectable_index(group, psi_n, M) if corrupt and trials > 1 else None
            derivable = trials > 1 and first == predicted
            if derivable and twist_laws(field, group, psi_p, psi_n, M, table) is None:
                # every trial takes trial 0's answer: count them all, list five
                failed = 0 if first is None else trials
                found = [(k, first) for k in range(min(failed, 5))]
            else:
                indices = [first] + [
                    _twist_mismatch(table, psi_p, psi_n, seed + k, corrupt)
                    for k in range(1, trials)
                ]
                found = [(k, index) for k, index in enumerate(indices) if index is not None]
                failed = len(found)
            total += failed
            for k, index in found[: 5 - len(failures)]:
                failures.append(
                    {
                        "psi_p": psi_p.exp,
                        "psi_n": list(psi_n.exps),
                        "seed": seed + k,
                        "mismatch_index": list(index),
                    }
                )
    return runs, total, failures, M


def _cmd_verify_twist(ns):
    runs, total, failures, M = _twist_runs(ns.q, ns.n, ns.trials, ns.seed, ns.corrupt)
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
        "failure_total": total,
        "failures": failures,
        "pass": total == 0,
    }
    warnings = [f"warning: twist on q={ns.q}, n={ns.n} ran no trials"] if runs == 0 else []
    return report, total > 0, warnings


def _cmd_gauss(ns):
    # GF(q) tabulates all q elements, so q - 1 is held to COEFF_CAP before
    # q is factored or its tables are built.  Then phi(p) = p - 1 < q is
    # within the cap too; `gauss_sum` checks the conductor lcm(p, ord psi).
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
    return report, False, []


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
    runs, total, _, _ = _twist_runs(3, 4, 3, ns.seed, False)
    checks.append({"name": "twist-sample", "runs": runs, "violations": total, "pass": total == 0})
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
    return report, not passed, _sweep_warnings(profile, up) + _sweep_warnings(profile, sat)


def _refuse_unwritable(path: str) -> None:
    """Refuse a report path that is a directory, or whose parent is missing
    or is not a directory, with the error `open` would give, without
    creating or truncating any file: the handler has not run yet.  The errno
    is the one `os.stat` of the parent raises, or ENOTDIR when the parent
    exists but is not a directory."""
    if os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:
            parent = os.stat(os.path.dirname(path) or os.curdir)
        except OSError as exc:
            code = exc.errno
        else:
            if stat.S_ISDIR(parent.st_mode):
                return
            code = errno.ENOTDIR
    raise ValueError(str(OSError(code, os.strerror(code), path)))


def run(argv=None) -> int:
    """Parse argv, call the leaf's handler, emit the JSON report and the
    handler's warnings, and return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if ns.out:
            _refuse_unwritable(ns.out)
        report, failed, warnings = ns.handler(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if ns.out:
        # written before any warning, so that a path that cannot be written
        # leaves the one `error:` line alone on stderr
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for line in warnings:
        print(line, file=sys.stderr)
    if not ns.out:
        sys.stdout.write(text)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
