"""End-to-end tests for the command-line interface and its exit codes."""
import contextlib
import io
import itertools
import json
import math
import multiprocessing
import signal
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stratgrid import characters, cli
from stratgrid.characters import GF, FieldChar, UnitGroup, conductor
from stratgrid.degrees import _entry_masks
from stratgrid.embeddings import parse_profile
from stratgrid.hecke import MAX_WORKERS, _pin_for
from stratgrid.regions import Verdict, stratum_case
from stratgrid.strata import enumerate_admissible


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_one_line_usage_error(capsys, code):
    """Exit 2, no report, and exactly one `error:` line on stderr."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


# ---------------------------------------------------------------------------
# strata


def test_strata_enumerate_split_profile(capsys):
    """Two split primes give the full 3^2 census."""
    code, rep = run_json(capsys, ["strata", "enumerate", "--profile", "p=3;f=1,1"])
    assert code == 0
    assert rep["count"] == 9
    assert len(rep["strata"]) == 9
    for rec in rep["strata"]:
        assert set(rec) == {"phi", "eta", "codim", "nowhere_etale", "badness", "beta0", "j"}


def test_strata_enumerate_filters(capsys):
    code, rep = run_json(
        capsys, ["strata", "enumerate", "--profile", "p=3;f=2", "--codim", "1"]
    )
    assert code == 0
    assert all(rec["codim"] == 1 for rec in rep["strata"])
    code, rep = run_json(
        capsys, ["strata", "enumerate", "--profile", "p=3;f=2", "--nowhere-etale"]
    )
    assert code == 0
    assert rep["count"] > 0
    assert all(rec["nowhere_etale"] for rec in rep["strata"])


def test_coverage_above_the_enumeration_bound_is_usage_error(capsys):
    code = cli.run(["regions", "coverage", "--profile", "p=3;f=30"])
    assert_one_line_usage_error(capsys, code)


# ---------------------------------------------------------------------------
# regions


def point(deg, generic=True):
    return json.dumps({"deg": deg, "generic": generic})


def test_regions_check_sigma(capsys):
    code, rep = run_json(
        capsys,
        [
            "regions", "check",
            "--profile", "p=3;f=2",
            "--point", point({"0/0": "2/3", "0/1": "0"}),
            "--region", "sigma",
        ],
    )
    assert code == 0
    assert rep["verdict"] == "in"


def test_regions_check_vcan(capsys):
    code, rep = run_json(
        capsys,
        [
            "regions", "check",
            "--profile", "p=3;f=2",
            "--point", point({"0/0": "2/3", "0/1": "2/3"}),
            "--region", "vcan",
        ],
    )
    assert code == 0
    assert rep["verdict"] == "in"


def test_regions_check_sigma_s(capsys):
    code, rep = run_json(
        capsys,
        [
            "regions", "check",
            "--profile", "p=3;f=1,1",
            "--point", point({"0/0": "1", "1/0": "2/3"}),
            "--region", "sigmaS",
            "--S", "0,1",
        ],
    )
    assert code == 0
    assert rep["S"] == [0, 1]
    assert rep["verdict"] in ("in", "out", "indeterminate")


def test_regions_check_sigma_s_requires_s(capsys):
    code = cli.run(
        [
            "regions", "check",
            "--profile", "p=3;f=1,1",
            "--point", point({"0/0": "1", "1/0": "2/3"}),
            "--region", "sigmaS",
        ]
    )
    assert code == 2


def test_regions_check_bad_point_is_usage_error(capsys):
    code = cli.run(
        [
            "regions", "check",
            "--profile", "p=3;f=2",
            "--point", "not json",
            "--region", "sigma",
        ]
    )
    assert code == 2


def test_regions_check_deg_not_a_mapping_is_usage_error(capsys):
    code = cli.run(
        [
            "regions", "check",
            "--profile", "p=3;f=2",
            "--point", '{"deg":[1]}',
            "--region", "sigma",
        ]
    )
    assert_one_line_usage_error(capsys, code)


def test_regions_check_unknown_label_is_usage_error(capsys):
    code = cli.run(
        [
            "regions", "check",
            "--profile", "p=3;f=2",
            "--point", '{"deg":{"9/9":"1/2","0/0":"0","0/1":"1"}}',
            "--region", "sigma",
        ]
    )
    assert_one_line_usage_error(capsys, code)


def test_regions_check_string_flag_is_usage_error(capsys):
    code = cli.run(
        [
            "regions", "check",
            "--profile", "p=3;f=2",
            "--point", '{"deg":{"0/0":"1/2","0/1":"1"},"generic":"false"}',
            "--region", "sigma",
        ]
    )
    assert_one_line_usage_error(capsys, code)


@pytest.mark.parametrize("value", ["true", "false", '"1e-200000"'])
def test_regions_check_boolean_or_exponent_degree_is_usage_error(capsys, value):
    """A JSON boolean is no degree, and an exponent string could be made as
    costly to read as its exponent is long."""
    code = cli.run(
        [
            "regions", "check",
            "--profile", "p=3;f=2",
            "--point", '{"deg":{"0/0":%s,"0/1":"0"}}' % value,
            "--region", "sigma",
        ]
    )
    assert_one_line_usage_error(capsys, code)


@pytest.mark.parametrize(
    "argv",
    [
        # an option value starting with '-' reads as an option
        ["--profile", "p=3;f=2", "--point", "-1e+16", "--region", "sigma"],
        ["--profile", "p=3;f=2", "--region", "sigma"],
        ["--profile", "p=3;f=2", "--point", '{"deg":{}}', "--region", "sigmaT"],
    ],
    ids=["dash-value", "missing-option", "bad-choice"],
)
def test_argparse_errors_are_one_line(capsys, argv):
    assert_one_line_usage_error(capsys, cli.run(["regions", "check", *argv]))


FUZZ_PROFILES = ("p=3;f=2", "p=3;f=2,1", "p=2;f=1,1", "p=5;f=1,1,1")
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=6)
)


@st.composite
def fuzz_points(draw):
    """A profile and point JSON: mostly the profile's own labels with degrees
    in [0, 1], sometimes other labels, values, flags or shapes."""
    profile = draw(st.sampled_from(FUZZ_PROFILES))
    f = [int(d) for d in profile.split("f=")[1].split(",")]
    own = [f"{i}/{pos}" for i, d in enumerate(f) for pos in range(d)]

    def often(good, bad):
        return draw(good if draw(st.integers(0, 9)) else bad)

    degree = st.integers(1, 6).flatmap(
        lambda b: st.integers(0, b).map(lambda a: f"{a}/{b}")
    )
    odd_value = st.one_of(
        st.builds("{}/{}".format, st.integers(-1, 7), st.integers(0, 6)), JSON_SCALARS
    )
    label = st.one_of(
        st.builds("{}/{}".format, st.integers(0, 12), st.integers(0, 12)),
        st.sampled_from(["0/1 ", " 0/0", "0/01", "00/0", "0/-1", "/", "a/b"]),
        st.text(max_size=5),
    )
    deg = {lab: often(degree, odd_value) for lab in own if draw(st.integers(0, 19))}
    if not draw(st.integers(0, 3)):
        deg.update(draw(st.dictionaries(label, st.one_of(degree, odd_value), max_size=2)))
    point = {"deg": often(st.just(deg), st.one_of(JSON_SCALARS, st.lists(degree)))}
    for flag in ("generic", "cusp"):
        if draw(st.booleans()):
            point[flag] = often(st.booleans(), JSON_SCALARS)
    return profile, json.dumps(often(st.just(point), JSON_SCALARS))


@settings(max_examples=300, deadline=None)
@given(
    fuzz_points(),
    st.sampled_from(["sigma", "vcan", "sigmaS"]),
    st.sampled_from(["0", "0,1", "1,2", "2", "7", "x", ""]),
)
def test_regions_check_fuzz_keeps_the_exit_contract(case, region, s_arg):
    """Any point JSON ends in exit 0 with a JSON report, or exit 2 with one
    `error:` line, and never raises."""
    profile, point_json = case
    # `--opt=value`, so that argparse never reads a point such as -1 as an option
    argv = ["regions", "check", f"--profile={profile}", f"--point={point_json}"]
    argv += [f"--region={region}", f"--S={s_arg}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["check"] == "region"
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


def test_regions_coverage_pass_and_fail(capsys):
    code, rep = run_json(capsys, ["regions", "coverage", "--profile", "p=3;f=2,1"])
    assert code == 0 and rep["pass"] is True
    code, rep = run_json(capsys, ["regions", "coverage", "--profile", "p=2;f=2"])
    assert code == 1 and rep["pass"] is False
    assert rep["edge_failures"]


def test_regions_coverage_boolean_degree_is_usage_error(capsys):
    code = cli.run(["regions", "coverage", "--profile", '{"p": 3, "f": [true, 2]}'])
    assert_one_line_usage_error(capsys, code)


# ---------------------------------------------------------------------------
# verify


def test_verify_sigma_up_pass(capsys):
    code, rep = run_json(
        capsys, ["verify", "sigma-up", "--profile", "p=3;f=2", "--den", "12"]
    )
    assert code == 0
    assert rep["pass"] is True
    assert rep["counterexample_total"] == 0


def test_verify_sigma_up_drop_genericity_fails_with_valid_json(capsys):
    code, rep = run_json(
        capsys,
        [
            "verify", "sigma-up",
            "--profile", "p=3;f=2",
            "--den", "6",
            "--drop-genericity",
        ],
    )
    assert code == 1
    assert rep["pass"] is False
    assert rep["counterexample_total"] >= 1
    assert rep["counterexamples"][0]["lhs"]


def test_verify_sigma_up_oversized_grid_is_usage_error(capsys):
    code = cli.run(
        ["verify", "sigma-up", "--profile", "p=3;f=3,3", "--den", "100000"]
    )
    assert code == 2


@pytest.mark.parametrize("check", ["sigma-up", "saturation"])
@pytest.mark.parametrize("den", ["0", "-4"])
def test_verify_den_below_one_is_usage_error(capsys, check, den):
    code = cli.run(["verify", check, "--profile", "p=3;f=2", "--den", den])
    assert_one_line_usage_error(capsys, code)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_workers_below_one_is_usage_error(capsys, workers):
    code = cli.run(
        ["verify", "sigma-up", "--profile", "p=3;f=2", "--den", "6", "--workers", workers]
    )
    assert_one_line_usage_error(capsys, code)


@pytest.mark.parametrize("check", ["sigma-up", "saturation"])
@pytest.mark.parametrize("profile", ["p=2;f=13", "p=2;f=30", "p=3;f=6,7"])
def test_verify_above_the_enumeration_bound_is_usage_error(capsys, check, profile):
    """A sweep refuses g > 12 before it walks a cell: at g = 30 the cube has
    2^30 vertices."""
    start = time.perf_counter()
    code = cli.run(["verify", check, "--profile", profile, "--den", "1", "--workers", "1"])
    assert time.perf_counter() - start < 1
    assert_one_line_usage_error(capsys, code)


def _no_process(*args, **kwargs):
    raise AssertionError("a process was constructed")


@pytest.mark.parametrize("check", ["sigma-up", "saturation"])
def test_verify_workers_above_the_cap_is_usage_error(capsys, monkeypatch, check):
    """More than `MAX_WORKERS` workers, from `--workers` or `TOOL_WORKERS`,
    is refused before any process is constructed; `MAX_WORKERS` itself is
    accepted."""
    monkeypatch.setattr(multiprocessing, "Process", _no_process)
    argv = ["verify", check, "--profile", "p=3;f=2", "--den", "6"]
    over = str(MAX_WORKERS + 1)
    assert_one_line_usage_error(capsys, cli.run(argv + ["--workers", over]))
    monkeypatch.setenv("TOOL_WORKERS", over)
    assert_one_line_usage_error(capsys, cli.run(argv))
    monkeypatch.undo()
    # p=3;f=1 at den 1 has two cells: one child
    argv = ["verify", check, "--profile", "p=3;f=1", "--den", "1"]
    assert cli.run(argv + ["--workers", str(MAX_WORKERS)]) == 0
    assert json.loads(capsys.readouterr().out)["grid_points"] == 2


@pytest.mark.parametrize("check", ["sigma-up", "saturation"])
def test_verify_negative_max_counterexamples_is_usage_error(capsys, check):
    code = cli.run(
        ["verify", check, "--profile", "p=3;f=2", "--den", "6", "--max-counterexamples", "-2"]
    )
    assert_one_line_usage_error(capsys, code)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_tool_workers_below_one_is_usage_error(capsys, monkeypatch, workers):
    monkeypatch.setenv("TOOL_WORKERS", workers)
    code = cli.run(["verify", "sigma-up", "--profile", "p=3;f=2", "--den", "6"])
    assert_one_line_usage_error(capsys, code)


def test_verify_saturation(capsys):
    code, rep = run_json(
        capsys, ["verify", "saturation", "--profile", "p=3;f=2", "--den", "12"]
    )
    assert code == 0
    assert rep["pass"] is True
    assert rep["membership_pure"] is True


@pytest.mark.parametrize(
    "profile, warnings",
    [("p=3;f=2,1", ["warning: saturation on p=3;f=2,1 checked no pairs"]), ("p=3;f=2", [])],
)
def test_sweep_warns_when_it_checks_no_pairs(capsys, profile, warnings):
    code = cli.run(["verify", "saturation", "--profile", profile, "--den", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert (json.loads(captured.out)["pairs_checked"] == 0) == bool(warnings)
    assert captured.err.splitlines() == warnings


def test_suite_warns_once_per_sweep_that_checks_no_pairs(capsys):
    code = cli.run(["suite", "--profile", "p=3;f=2,1", "--den", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.splitlines() == [
        "warning: saturation on p=3;f=2,1 checked no pairs"
    ]


def test_verify_twist_pass(capsys):
    code, rep = run_json(
        capsys,
        ["verify", "twist", "--q", "3", "--n", "4", "--trials", "2", "--seed", "42"],
    )
    assert code == 0
    assert rep["pass"] is True
    assert rep["runs"] == 4


def test_verify_twist_corrupt_control_fails(capsys):
    code, rep = run_json(
        capsys,
        ["verify", "twist", "--q", "3", "--n", "4", "--trials", "1", "--corrupt"],
    )
    assert code == 1
    assert rep["pass"] is False
    assert rep["failures"][0]["mismatch_index"] == [1, 1]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_twist_trials_below_one_is_usage_error(capsys, trials):
    """Zero runs would report a vacuous pass."""
    code = cli.run(["verify", "twist", "--q", "3", "--n", "4", "--trials", trials])
    assert_one_line_usage_error(capsys, code)


def test_verify_twist_bad_q_is_usage_error(capsys):
    assert cli.run(["verify", "twist", "--q", "6", "--n", "4"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--q", "2", "--n", "3"],  # GF(2) has no nontrivial psi_p
        ["--q", "3", "--n", "2", "--corrupt"],  # every psi_n mod 2 is trivial
        ["--q", "4", "--n", "1", "--corrupt"],  # so is the one psi_n mod 1
    ],
)
def test_verify_twist_warns_when_it_runs_no_trials(capsys, args):
    """A twist over no character pair keeps its report and exit code, and
    says so on stderr."""
    code = cli.run(["verify", "twist", *args])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 0
    assert rep["runs"] == 0 and rep["pass"] is True
    assert captured.err.splitlines() == [
        f"warning: twist on q={args[1]}, n={args[3]} ran no trials"
    ]


def _twist_bytes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("q,n", [(5, 3), (9, 4), (4, 5)])
@pytest.mark.parametrize("corrupt", [False, True])
def test_verify_twist_reads_trials_off_the_laws(monkeypatch, q, n, corrupt):
    """Only trial 0 of a character pair runs, and the report is the one that
    running every trial gives: a failing law, or with `--corrupt` a trial 0
    that misses the predicted index, makes every trial run."""
    argv = ["verify", "twist", "--q", str(q), "--n", str(n), "--seed", "7", "--trials", "3"]
    argv += ["--corrupt"] if corrupt else []
    calls = []
    real = cli.verify_twist_identity

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_twist_identity", counted)
    derived = _twist_bytes(argv)
    runs = json.loads(derived[1])["runs"]
    assert runs == 3 * len(calls) == 3 * len(set(calls)) > 0
    fallbacks = [("twist_laws", lambda *args: (0, 0))]
    if corrupt:
        fallbacks.append(("_detectable_index", lambda *args: (0, 0)))
    for name, stub in fallbacks:
        with monkeypatch.context() as m:
            m.setattr(cli, name, stub)
            calls.clear()
            assert _twist_bytes(argv) == derived, name
            assert len(calls) == runs, name


@pytest.mark.parametrize("corrupt", [False, True])
def test_verify_twist_one_trial_reads_no_laws(capsys, monkeypatch, corrupt):
    """With one trial per pair there is nothing to take from the laws, so
    neither they nor the predicted index are computed."""

    def unread(*args):
        raise AssertionError("computed for a single trial")

    monkeypatch.setattr(cli, "twist_laws", unread)
    monkeypatch.setattr(cli, "_detectable_index", unread)
    argv = ["verify", "twist", "--q", "5", "--n", "3", "--trials", "1"]
    code, rep = run_json(capsys, argv + (["--corrupt"] if corrupt else []))
    assert code == (1 if corrupt else 0)
    assert rep["runs"] == (3 if corrupt else 6)


@contextlib.contextmanager
def deadline(seconds):
    """Raise `TimeoutError` inside the block once `seconds` of wall time have
    passed (a real-time interval timer and SIGALRM), so that a call which
    would run for hours fails instead; the previous handler and timer are
    put back afterwards."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    previous = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, *previous)


def test_deadline_stops_a_block_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with pytest.raises(TimeoutError):
        with deadline(0.05):
            while True:
                time.sleep(0.01)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("corrupt", [False, True])
def test_verify_twist_counts_trials_without_listing_them(capsys, corrupt):
    """A trial count far past memory is reported from the laws in one pass:
    the failure total counts every trial, and five records are kept.  If the
    laws or trial 0 disagree, every trial runs for real, so the call runs
    under a deadline and fails in seconds rather than never returning."""
    trials = 10**12
    argv = ["verify", "twist", "--q", "3", "--n", "4", "--trials", str(trials)]
    start = time.perf_counter()
    with deadline(5):
        code, rep = run_json(capsys, argv + (["--corrupt"] if corrupt else []))
    assert time.perf_counter() - start < 1
    if corrupt:  # the trivial psi_n is skipped, which leaves one pair
        assert code == 1 and rep["runs"] == rep["failure_total"] == trials
        assert [f["seed"] for f in rep["failures"]] == [0, 1, 2, 3, 4]
        assert {tuple(f["mismatch_index"]) for f in rep["failures"]} == {(1, 1)}
    else:
        assert code == 0 and rep["runs"] == 2 * trials
        assert rep["failure_total"] == 0 and rep["failures"] == []


# ---------------------------------------------------------------------------
# gauss


def test_gauss_quadratic(capsys):
    code, rep = run_json(capsys, ["gauss", "--q", "5", "--char-exp", "2"])
    assert code == 0
    assert rep["conductor"] == 10
    assert rep["char_order"] == 2
    assert len(rep["coeffs"]) == 4


def test_gauss_bad_q(capsys):
    assert cli.run(["gauss", "--q", "6", "--char-exp", "1"]) == 2


def test_gauss_keeps_fields_up_to_the_cap(capsys):
    """31^2 is the largest prime square with q - 1 at most COEFF_CAP."""
    code, rep = run_json(capsys, ["gauss", "--q", "961", "--char-exp", "0"])
    assert code == 0
    assert rep["conductor"] == 31 and rep["coeffs"][0] == -1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "twist", "--q", "191", "--n", "193"],
        ["verify", "twist", "--q", "1000003", "--n", "1"],
        ["verify", "twist", "--q", "3", "--n", "1000000007"],
        ["gauss", "--q", "1000003", "--char-exp", "1"],
        # 997^3 and 37^2 pass the conductor check (M = p), but F_q is too large
        ["gauss", "--q", "991026973", "--char-exp", "0"],
        ["gauss", "--q", "1369", "--char-exp", "0"],
    ],
)
def test_large_conductor_is_refused_before_any_table(capsys, monkeypatch, argv):
    """A ring above the coefficient cap is refused from q and n alone: no
    field or unit-group table is built on the way to the one error line."""

    def unbuilt(*args):
        raise AssertionError("built a table before the conductor check")

    monkeypatch.setattr(cli, "GF", unbuilt)
    monkeypatch.setattr(cli, "UnitGroup", unbuilt)
    code = cli.run(argv)
    assert_one_line_usage_error(capsys, code)


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss", "--q", "100000000000000003", "--char-exp", "1"],
        ["verify", "twist", "--q", "1000000000000000003", "--n", "1"],
        ["verify", "twist", "--q", "3", "--n", "1000000000000000003"],
    ],
)
def test_huge_q_or_n_is_refused_before_trial_division(capsys, monkeypatch, argv):
    """A q or n far above the cap is refused without factoring anything
    larger than 2 COEFF_CAP^2 + 1: phi(M) >= sqrt(M / 2), so a conductor
    M above 2 COEFF_CAP^2 is too large whatever its factors."""
    factors = characters._prime_power_factors

    def bounded(n):
        if n > 2 * characters.COEFF_CAP**2 + 1:
            raise AssertionError(f"trial division of {n}")
        return factors(n)

    monkeypatch.setattr(characters, "_prime_power_factors", bounded)
    start = time.perf_counter()
    code = cli.run(argv)
    assert time.perf_counter() - start < 1
    assert_one_line_usage_error(capsys, code)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "twist", "--q", "0", "--n", "3"], "0 is not a prime power"),
        (["verify", "twist", "--q", "1", "--n", "3"], "1 is not a prime power"),
        (["verify", "twist", "--q=-10000000", "--n", "3"], "-10000000 is not a prime power"),
        (["verify", "twist", "--q", "16", "--n", "3"], "only degrees up to 3 are supported"),
        (["verify", "twist", "--q", "5", "--n", "0"], "modulus must be >= 1"),
        (["verify", "twist", "--q", "5", "--n=-2"], "modulus must be >= 1"),
        (
            ["verify", "twist", "--q", "5", "--n", "3", "--trials", "0"],
            "--trials must be at least 1, got 0",
        ),
        (["gauss", "--q", "0", "--char-exp", "1"], "0 is not a prime power"),
        (["gauss", "--q", "1", "--char-exp", "1"], "1 is not a prime power"),
        (["gauss", "--q", "16", "--char-exp", "1"], "only degrees up to 3 are supported"),
    ],
)
def test_small_bad_q_or_n_keeps_its_message(capsys, argv, message):
    """The conductor checks that come first pass these inputs by, so each
    keeps the error of the check that has always refused it."""
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# A real twist trial costs about pairs * q * n * phi(M)^2 coefficient
# products; inputs above this (a fifth of a second) are drawn and not run.
TWIST_FUZZ_PRODUCTS = 200_000


def _twist_products(q: int, n: int) -> int:
    """Rough cost of `verify twist --q q --n n`; 0 on a usage error."""
    try:
        field, group = GF(q), UnitGroup(n)
        M = conductor(field.p, q - 1, n, group.exponent)
    except ValueError:
        return 0
    phi = sum(1 for k in range(M) if math.gcd(k, M) == 1)
    return (q - 2) * len(group.units) * q * n * phi**2


@st.composite
def gauss_or_twist_argv(draw):
    q = draw(st.integers(0, 32))
    if draw(st.booleans()):
        return ["gauss", f"--q={q}", f"--char-exp={draw(st.integers())}"]
    n = draw(st.integers(-2, 12))
    assume(_twist_products(q, n) <= TWIST_FUZZ_PRODUCTS)
    argv = ["verify", "twist", f"--q={q}", f"--n={n}", f"--trials={draw(st.integers(1, 2))}"]
    return argv + (["--corrupt"] if draw(st.booleans()) else [])


@settings(max_examples=120, deadline=None)
@given(gauss_or_twist_argv())
@example(["verify", "twist", "--q=5", "--n=3", "--trials=2", "--corrupt"])  # exit 1
@example(["verify", "twist", "--q=3", "--n=9", "--trials=1", "--corrupt"])  # sums vanish
@example(["verify", "twist", "--q=2", "--n=3", "--trials=1"])  # no trial
@example(["verify", "twist", "--q=13", "--n=11", "--trials=1"])  # conductor too large
@example(["gauss", "--q=16", "--char-exp=1"])  # degree 4
def test_gauss_and_twist_fuzz_keep_the_exit_contract(argv):
    """Exit 0 or 1 with a JSON report (and the zero-trial warning when a
    twist runs no trial), or exit 2 with one `error:` line; never a raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        return
    rep = json.loads(out.getvalue())
    assert rep["check"] == ("gauss" if argv[0] == "gauss" else "twist")
    assert code == (0 if rep.get("pass", True) else 1)
    warnings = []
    if rep["check"] == "twist" and rep["runs"] == 0:
        warnings.append(f"warning: twist on q={rep['q']}, n={rep['n']} ran no trials")
    assert lines == warnings


@st.composite
def strata_or_coverage_argv(draw):
    """`strata enumerate` (with and without its filters) or `regions
    coverage`, on a profile text with p in {2, 3, 4, 5} and g up to 30, or
    on a malformed one."""
    if draw(st.integers(0, 4)) == 0:
        profile = draw(
            st.sampled_from(["p=3;f=", "p=3", "f=2", "p=3;f=0,1", '{"p": 3}', "p=1;f=1"])
            | st.text(max_size=12)
        )
    else:
        g = draw(st.integers(1, 30))
        parts = []
        while g:
            parts.append(draw(st.integers(1, g)))
            g -= parts[-1]
        profile = f"p={draw(st.sampled_from([2, 3, 4, 5]))};f={','.join(map(str, parts))}"
    if draw(st.booleans()):
        return ["regions", "coverage", f"--profile={profile}"]
    argv = ["strata", "enumerate", f"--profile={profile}"]
    if draw(st.booleans()):
        argv.append(f"--codim={draw(st.integers(-1, 4))}")
    if draw(st.booleans()):
        argv.append("--nowhere-etale")
    return argv


def _cheap(argv) -> bool:
    """Whether argv runs in a fraction of a second: a census of g <= 12 has
    3^g records, so `strata enumerate` runs only up to g = 6 and above the
    bound, where it is refused."""
    if argv[0] == "regions":
        return True
    try:
        g = parse_profile(argv[2].split("=", 1)[1]).g
    except ValueError:
        return True
    return g <= 6 or g > 12


@settings(max_examples=100, deadline=None)
@given(strata_or_coverage_argv())
@example(["regions", "coverage", "--profile=p=3;f=13"])  # g = 13: above the bound
@example(["strata", "enumerate", "--profile=p=3;f=6,7", "--nowhere-etale"])  # g = 13
@example(["regions", "coverage", "--profile=p=4;f=2"])  # p not prime
@example(["strata", "enumerate", "--profile=p=4;f=1,1", "--codim=1"])  # p not prime
@example(["regions", "coverage", "--profile=p=2;f=2,1"])  # exit 1: the p = 2 gap
def test_strata_and_coverage_fuzz_keep_the_exit_contract(argv):
    """Exit 0 or 1 with a JSON report, or exit 2 with one `error:` line;
    never a raise."""
    assume(_cheap(argv))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        return
    rep = json.loads(out.getvalue())
    assert lines == []
    if argv[0] == "regions":
        assert rep["check"] == "coverage"
        assert code == (0 if rep["pass"] else 1)
    else:
        assert rep["check"] == "strata-enumerate" and code == 0
        assert rep["count"] == len(rep["strata"])


def _pin_warnings(profile, den: int) -> list[str]:
    """The off-grid pin warning a generic sigma-up sweep prints, from a brute
    count: each point of the cube that is In and whose pin is empty names
    its delta_j."""
    thresholds = {}
    for scaled in itertools.product(range(den + 1), repeat=profile.g):
        stratum = stratum_case(profile, *_entry_masks(scaled, den))
        free = 0 if stratum.beta0 is None else scaled[stratum.beta0]
        pin = _pin_for(stratum, scaled, den)
        if stratum.decide(True, free, den) is Verdict.IN and pin and pin[1] > pin[2]:
            thresholds[stratum.j] = stratum.threshold
    if not thresholds:
        return []
    deltas = ", ".join(
        f"delta({profile.p}, {j}) = {thresholds[j]}" for j in sorted(thresholds)
    )
    return [
        f"warning: sigma-up on {profile} leaves pinned points unchecked:"
        f" {deltas} is off the 1/{den} grid"
    ]


SWEEP_FUZZ_PROFILES = ("p=3;f=2", "p=3;f=2,1", "p=2;f=1,1", "p=3;f=1,2,1", "p=5;f=3")


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["sigma-up", "saturation"]),
    st.sampled_from(SWEEP_FUZZ_PROFILES),
    st.integers(1, 12),
    st.booleans(),
    st.one_of(st.integers(0, 30), st.integers(0, 2**70)),
)
@example("sigma-up", "p=3;f=2,1", 12, True, 10**29)  # a cap past sys.maxsize
@example("sigma-up", "p=3;f=2,1", 12, True, 3)  # the cap bites
@example("saturation", "p=3;f=2", 6, True, 5)  # saturation has no such flag
@example("sigma-up", "p=2;f=13", 1, False, 5)  # g = 13: above the enumeration bound
@example("sigma-up", "p=2;f=30", 1, False, 5)  # 2^30 vertices, refused unwalked
def test_sweep_fuzz_keeps_the_exit_contract(check, profile, den, drop, cap):
    """Exit 0 or 1 with a JSON report holding min(cap, total) records (and
    the zero-pairs warning when it checks no pairs), or exit 2 with one
    `error:` line; never a raise."""
    argv = ["verify", check, f"--profile={profile}", f"--den={den}", "--workers=1"]
    argv += [f"--max-counterexamples={cap}"] + (["--drop-genericity"] if drop else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        return
    rep = json.loads(out.getvalue())
    assert rep["check"] == check
    assert code == (0 if rep["pass"] else 1)
    assert len(rep["counterexamples"]) == min(cap, rep["counterexample_total"])
    warnings = []
    if rep["pairs_checked"] == 0:
        warnings.append(f"warning: {check} on {profile} checked no pairs")
    if check == "sigma-up" and not drop:
        warnings += _pin_warnings(parse_profile(profile), den)
    assert lines == warnings


# ---------------------------------------------------------------------------
# suite and plumbing


def test_suite_example_profile_passes(capsys):
    code, rep = run_json(capsys, ["suite", "--profile", "p=3;f=2,1", "--den", "24"])
    assert code == 0
    assert rep["pass"] is True
    names = [c["name"] for c in rep["checks"]]
    assert names == [
        "census",
        "poset-laws",
        "atkin-lehner",
        "coverage",
        "sigma-up",
        "saturation",
        "gauss-laws",
        "twist-sample",
    ]
    assert all(c["pass"] for c in rep["checks"])


@pytest.mark.parametrize("den", ["0", "-3"])
def test_suite_den_below_one_is_usage_error(capsys, den):
    code = cli.run(["suite", "--profile", "p=3;f=2,1", "--den", den])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: den must be at least 1, got {den}"]


@pytest.mark.parametrize(
    "profile,den,workers",
    [
        ("p=3;f=5,5", "2", "65"),
        # g * den over the grid cap
        ("p=3;f=2", "5001", "1"),
        # g above the enumeration bound
        ("p=2;f=13", "1", "1"),
    ],
)
def test_suite_refuses_bad_sweep_arguments_before_any_check(
    capsys, monkeypatch, profile, den, workers
):
    """`suite` refuses what its sweeps would refuse before its first check
    runs, with the line `verify sigma-up` prints for the same arguments."""
    args = ["--profile", profile, "--den", den, "--workers", workers]
    assert cli.run(["verify", "sigma-up", *args]) == 2
    want = capsys.readouterr().err

    def unrun(*args):
        raise AssertionError("a suite check ran before the sweep arguments were checked")

    monkeypatch.setattr(cli, "_suite_census", unrun)
    start = time.perf_counter()
    code = cli.run(["suite", *args])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == want and want.startswith("error: ")


@st.composite
def suite_profile_text(draw):
    """A profile text with p in {2, 3, 4, 5} and g up to 3, a malformed one,
    or a JSON one with a boolean residue degree."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(
            st.sampled_from(["p=3;f=", "p=3", "p=3;f=0,1", '{"p": 3}', "p=1;f=1"])
            | st.text(max_size=12)
        )
    if kind == 1:
        degrees = draw(
            st.lists(st.sampled_from(["true", "false", "1", "2"]), min_size=1, max_size=3)
        )
        return f'{{"p": 3, "f": [{", ".join(degrees)}]}}'
    g = draw(st.integers(1, 3))
    parts = []
    while g:
        parts.append(draw(st.integers(1, g)))
        g -= parts[-1]
    return f"p={draw(st.sampled_from([2, 3, 4, 5]))};f={','.join(map(str, parts))}"


@settings(max_examples=100, deadline=None)
@given(suite_profile_text(), st.integers(-3, 8), st.integers())
@example("p=3;f=2,1", 0, 0)  # den 0
@example("p=3;f=2,1", -3, 0)  # den -3
@example('{"p": 3, "f": [true]}', 4, 0)  # a boolean residue degree
@example("p=3;f=13", 2, 0)  # g = 13: above the enumeration bound
def test_suite_fuzz_keeps_the_exit_contract(profile, den, seed):
    """Exit 0 or 1 with a JSON report (and one zero-pairs warning per sweep
    that checks no pairs), or exit 2 with one `error:` line; never a raise."""
    argv = ["suite", f"--profile={profile}", f"--den={den}", f"--seed={seed}", "--workers=1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        return
    rep = json.loads(out.getvalue())
    assert rep["check"] == "suite" and rep["den"] == den and rep["seed"] == seed
    assert code == (0 if rep["pass"] else 1)
    assert rep["pass"] == all(c["pass"] for c in rep["checks"])
    warnings = []
    for c in rep["checks"]:
        if c["name"] in ("sigma-up", "saturation") and c["report"]["pairs_checked"] == 0:
            warnings.append(f"warning: {c['name']} on {parse_profile(profile)} checked no pairs")
        if c["name"] == "sigma-up":
            warnings += _pin_warnings(parse_profile(profile), den)
    assert lines == warnings


def test_suite_byte_identical_across_workers(tmp_path, capsys):
    paths = []
    for w in ("1", "2"):
        out = tmp_path / f"suite-{w}.json"
        code = cli.run(
            [
                "suite",
                "--profile", "p=3;f=2",
                "--den", "12",
                "--workers", w,
                "--out", str(out),
            ]
        )
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_suite_seed_only_moves_twist_sample(capsys):
    _, rep0 = run_json(capsys, ["suite", "--profile", "p=3;f=2", "--den", "6", "--seed", "0"])
    _, rep5 = run_json(capsys, ["suite", "--profile", "p=3;f=2", "--den", "6", "--seed", "5"])
    assert rep0["checks"][:-1] == rep5["checks"][:-1]
    assert rep0["pass"] and rep5["pass"]


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.run(["gauss", "--q", "5", "--char-exp", "2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["check"] == "gauss"


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gauss", "--q", "5", "--char-exp", "1"],
        # a saturation sweep of two primes checks no pairs, so it warns
        ["verify", "saturation", "--profile", "p=3;f=1,1", "--den", "2"],
    ],
    ids=["gauss", "warning"],
)
def test_out_that_cannot_be_written_is_usage_error(tmp_path, capsys, target, argv):
    """A report path in a missing directory, or a path that is a directory,
    ends in one `error:` line and exit 2, with no warning before it."""
    out = tmp_path / "missing" / "report.json" if target == "missing" else tmp_path
    assert_one_line_usage_error(capsys, cli.run([*argv, "--out", str(out)]))


@pytest.mark.parametrize("target", ["missing", "directory", "file parent"])
def test_out_that_cannot_be_written_is_refused_before_the_sweep(
    tmp_path, capsys, monkeypatch, target
):
    """The report path is tried before the handler runs: the sweep is never
    called, no file is made, and the one line is the error `open` gives."""

    def unrun(*args, **kwargs):
        raise AssertionError("the sweep ran before the report path was tried")

    monkeypatch.setattr(cli, "saturation_check", unrun)
    made = []
    if target == "missing":
        out = tmp_path / "missing" / "x.json"
    elif target == "directory":
        out = tmp_path
    else:
        parent = tmp_path / "file.txt"
        parent.write_text("kept\n", encoding="utf-8")
        made.append(parent)
        out = parent / "x.json"
    argv = ["verify", "saturation", "--profile", "p=5;f=2,2,2,2", "--den", "100"]
    code = cli.run([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    with pytest.raises(OSError) as opened:
        open(out, "w", encoding="utf-8")
    assert captured.err == f"error: {opened.value}\n"
    assert list(tmp_path.iterdir()) == made


@pytest.mark.parametrize(
    "argv",
    [
        ["regions", "check", "--profile", "p=3;f=2", "--region", "sigma", "--point", "[" * 100000],
        ["strata", "enumerate", "--profile", '{"p":3,"f":' + "[" * 100000 + "}"],
    ],
    ids=["point", "profile"],
)
def test_deeply_nested_json_is_usage_error(capsys, argv):
    """JSON nested past the decoder's recursion limit is a usage error."""
    assert_one_line_usage_error(capsys, cli.run(argv))


def test_huge_prime_is_refused_before_trial_division(capsys):
    """p = 10^15 + 37 is prime, but far above the bound below which
    `_is_prime` is exact; p at or above `MAX_P` is refused before any
    primality test."""
    start = time.perf_counter()
    code = cli.run(["strata", "enumerate", "--profile", "p=1000000000000037;f=1"])
    assert time.perf_counter() - start < 1
    assert_one_line_usage_error(capsys, code)


@pytest.mark.parametrize(
    "check,target,name,fault",
    [
        ("poset-laws", cli, "closure_set", lambda pair: enumerate_admissible(pair.profile)),
        ("poset-laws", cli, "pi_image", lambda pair: []),
        ("poset-laws", cli, "_face_masks", lambda pair: (0, 0)),
        ("atkin-lehner", cli, "w_T_deg", lambda h, T, flip=cli.w_T_deg: flip(h, T, generic=True)),
        ("atkin-lehner", cli, "w_T_pair", lambda pair, T: pair),
        (
            "gauss-laws",
            cli,
            "gauss_sum",
            lambda psi, M=None, gauss=cli.gauss_sum: gauss(psi, M) + (M is None),
        ),
        (
            "gauss-laws",
            FieldChar,
            "at_minus_one",
            lambda psi, M, value=FieldChar.at_minus_one: -value(psi, M),
        ),
    ],
    ids=[
        "closure below the pair",
        "empty pi image",
        "no open coordinates",
        "flip not an involution",
        "pair not transported",
        "trivial gauss sum",
        "wrong psi(-1)",
    ],
)
def test_suite_law_violation_fails_the_suite(capsys, monkeypatch, check, target, name, fault):
    """Each violation counter of the suite's laws counts its fault, fails
    its check and no other, and makes `suite` exit 1 with a JSON report."""
    monkeypatch.setattr(target, name, fault)
    code, rep = run_json(capsys, ["suite", "--profile", "p=3;f=2,1", "--den", "6"])
    assert code == 1 and rep["pass"] is False
    failed = [c for c in rep["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == [check]
    assert failed[0]["violations"] > 0


def test_workers_env_fallback(monkeypatch):
    monkeypatch.setenv("TOOL_WORKERS", "3")
    ns = cli._build_parser().parse_args(["suite", "--profile", "p=3;f=2"])
    assert cli._workers(ns) == 3
    monkeypatch.delenv("TOOL_WORKERS")
    assert cli._workers(ns) == 1


def test_second_run_builds_no_parser(monkeypatch, capsys):
    """The argparse tree is built once per process: a second `run` makes no
    `_Parser`, and keeps its one-line usage error."""
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert cli.run(["gauss", "--q", "5", "--char-exp", "2"]) == 0
    built.clear()
    assert cli.run(["gauss", "--q", "5", "--char-exp", "1"]) == 0
    assert cli.run(["gauss", "--q", "5"]) == 2
    assert built == []
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def test_usage_errors(capsys):
    assert cli.run([]) == 2
    assert cli.run(["nonsense"]) == 2
    assert cli.run(["strata"]) == 2
    assert cli.run(["verify", "sigma-up", "--profile", "not a profile"]) == 2


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
