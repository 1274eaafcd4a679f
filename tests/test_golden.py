"""Report bytes pinned in the repository.

`tests/data/report_digests.json` holds the exit code and the SHA-256 of
every report `tools/golden.py capture` writes (`tools/golden.py digest`
makes it).  Here the fast commands among them run again and must give the
same exit codes and bytes; running `digest` again and diffing the file
checks the whole set outside tier-1.
"""
import json
import os
import sys

from stratgrid import cli
from stratgrid.embeddings import parse_profile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import golden  # noqa: E402


def _subcommand(argv) -> tuple[str, ...]:
    return tuple(argv[:1]) if argv[0] in ("gauss", "suite") else tuple(argv[:2])


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _fast(name: str, argv) -> bool:
    """Commands of a few milliseconds each or less: the benchmark's
    one-worker sweeps, the one-worker sweeps at den 1 and 2, the twists with
    q <= 4, `gauss` for q <= 9, every coverage check (g <= 6, each well
    under a millisecond since coverage is decided per block), strata on
    g <= 3, the one-worker suite and every cusp check."""
    kind = _subcommand(argv)
    if kind in (("verify", "sigma-up"), ("verify", "saturation")):
        if _arg(argv, "--workers") != "1":
            return False
        return name.startswith("bench-") or _arg(argv, "--den") in ("1", "2")
    if kind == ("verify", "twist"):
        return int(_arg(argv, "--q")) <= 4
    if kind == ("gauss",):
        return int(_arg(argv, "--q")) <= 9
    if kind == ("regions", "coverage"):
        return True
    if kind == ("strata", "enumerate"):
        return parse_profile(_arg(argv, "--profile")).g <= 3
    if kind == ("suite",):
        return _arg(argv, "--workers") == "1"
    return kind == ("regions", "check")


COMMANDS = list(golden.commands())
FAST = [(name, argv) for name, argv in COMMANDS if _fast(name, argv)]


def test_fast_commands_cover_every_subcommand():
    assert {_subcommand(argv) for _, argv in FAST} == {
        _subcommand(argv) for _, argv in COMMANDS
    }
    # the benchmark's serial sweeps, and sweeps that keep records
    assert sum(name.startswith("bench-") for name, _ in FAST) == 4
    assert any("--drop-genericity" in argv for _, argv in FAST)


def test_fast_reports_match_their_digests(tmp_path, capsys):
    with open(golden.DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)["reports"]
    assert set(pinned) == {name for name, _ in COMMANDS}
    for name, argv in FAST:
        path = tmp_path / golden._file_name(name)
        code = cli.run([*argv, "--out", str(path)])
        digest = golden.file_digest(str(path))
        assert {"exit": code, "sha256": digest} == pinned[name], name
    capsys.readouterr()


def test_check_names_each_difference_and_leaves_the_file(tmp_path, monkeypatch, capsys):
    """`golden.py check` exits 1 naming each differing, unpinned and missing
    digest, exits 0 when all match, and never rewrites the pinned file."""
    pinned = {
        "reports": {"a": {"exit": 0, "sha256": "1"}, "b": {"exit": 1, "sha256": "2"}, "d": {}},
        "record_sets": {"r.json": "3", "s.json": "4"},
    }
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(pinned), encoding="utf-8")
    before = path.read_bytes()
    found = {
        "reports": {"a": {"exit": 0, "sha256": "1"}, "b": {"exit": 0, "sha256": "2"}, "c": {}},
        "record_sets": {"r.json": "3", "s.json": "5"},
    }
    monkeypatch.setattr(golden, "capture", lambda out_dir: 0)
    monkeypatch.setattr(golden, "digests", lambda out_dir: found)
    assert golden.check(str(path)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["differs: b", "not pinned: c", "not recomputed: d", "differs: s.json"]
    assert path.read_bytes() == before
    found = pinned
    assert golden.check(str(path)) == 0
    assert capsys.readouterr().out.splitlines() == [f"5 of 5 digests match {path}"]
    assert path.read_bytes() == before
