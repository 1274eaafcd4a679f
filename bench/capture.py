"""Capture the expected outputs that every benchmark pass is checked against.

    python3 bench/capture.py

Runs each input of every workload once, serially, and writes
bench/expected.json.  Re-capture only when a report is meant to change; an
optimisation must leave the file as it is.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from stratgrid import cli  # noqa: E402
from stratgrid.degrees import DegreeVector  # noqa: E402
from stratgrid.embeddings import parse_profile  # noqa: E402
from stratgrid.regions import coverage_check, in_sigma, in_sigma_S, in_vcan  # noqa: E402


def _report(argv, out_dir) -> dict:
    path = os.path.join(out_dir, "report.json")
    code = cli.run([*argv, "--out", path])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def capture() -> dict:
    expected = {"sweeps": {}, "coverage": {}, "queries": {}, "twist": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as out_dir:
        for check, profile, den in wl.SWEEPS:
            argv = ["verify", check, "--profile", profile, "--den", str(den), "--workers", "1"]
            key = wl.sweep_key(check, profile, den)
            expected["sweeps"][key] = wl.project_sweep(_report(argv, out_dir))
        for q, n in wl.TWISTS:
            argv = ["verify", "twist", "--q", str(q), "--n", str(n), "--trials", str(wl.TWIST_TRIALS)]
            expected["twist"][f"twist {q},{n}"] = wl.project_twist(_report(argv, out_dir))
        suite = _report([*wl.SUITE_ARGS, "--workers", "1"], out_dir)
        expected["suite"] = wl.project_suite(suite)
    for p, f in wl.all_profiles():
        text = wl.profile_text(p, f)
        profile = parse_profile(text)
        expected["coverage"][text] = wl.coverage_digest(coverage_check(profile).to_json_dict())
        chars = []
        for _, entries, generic in wl.query_pool(p, f):
            h = DegreeVector(profile, entries, generic=generic)
            chars.append(wl.VERDICT_CHAR[in_sigma(h).value])
            chars.append(wl.VERDICT_CHAR[in_sigma_S(h, range(len(f))).value])
            chars.append("i" if in_vcan(h) else "o")
        expected["queries"][text] = "".join(chars)
    return expected


if __name__ == "__main__":
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
