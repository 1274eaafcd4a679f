"""Tests of the benchmark's own statistics, span arithmetic and output checks.

    python3 -m pytest -q bench
"""
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_percentile_is_nearest_rank():
    xs = list(range(1000, 0, -1))
    assert stats.percentile(xs, 50) == 500
    assert stats.percentile(xs, 99) == 990  # ten samples lie beyond it
    assert stats.percentile(xs, 100) == 1000
    assert stats.percentile([4, 1, 3, 2], 50) == 2
    assert stats.percentile([7], 99) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


def test_quartiles_follow_statistics_quantiles():
    xs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
    assert stats.quartiles(xs) == tuple(statistics.quantiles(xs, n=4))
    assert stats.quartiles(xs)[1] == statistics.median(xs)
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_union_length():
    assert stats.union_length([]) == 0
    assert stats.union_length([(0, 10)]) == 10
    assert stats.union_length([(0, 4), (2, 6)]) == 6  # overlap
    assert stats.union_length([(0, 10), (2, 3)]) == 10  # nested
    assert stats.union_length([(5, 7), (0, 1)]) == 3  # disjoint, unsorted
    assert stats.union_length([(0, 2), (2, 4)]) == 4  # touching


def test_self_times_subtract_direct_children_once():
    spans = [
        (0, 100, -1),  # root
        (10, 30, 0),  # child
        (20, 50, 0),  # overlapping child
        (90, 120, 0),  # child running past its parent: clipped to 90..100
        (12, 18, 1),  # grandchild: covered by its own parent only
    ]
    assert stats.self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def _span(name, caller, start, end, parent):
    return [name, caller, start, end, parent]


def test_layer_metrics_attribute_time_by_callee_and_caller():
    ms = 1_000_000
    spans = [
        _span("cli.run", "bench", 0, 100 * ms, -1),
        _span("hecke.verify_sigma_up", "cli", 10 * ms, 90 * ms, 0),
        _span("embeddings.parse_profile", "hecke", 10 * ms, 11 * ms, 1),
        _span("regions.sigma_case", "hecke", 20 * ms, 30 * ms, 1),
        _span("strata.classify", "regions", 22 * ms, 28 * ms, 3),
        _span("embeddings.shift_left", "strata", 23 * ms, 24 * ms, 4),
        _span("regions.in_sigma", "bench", 200 * ms, 210 * ms, -1),
        _span("degrees.w_T_deg", "cli", 95 * ms, 96 * ms, 0),  # not from regions
    ]
    m = tracing.layer_metrics(spans, pairs=1000)
    assert m["cli.self_s"] == pytest.approx(0.100 - 0.080 - 0.001)
    assert m["hecke.sweep_s"] == pytest.approx(0.080)
    assert m["hecke.self_s"] == pytest.approx(0.080 - 0.001 - 0.010)
    assert m["hecke.self_us_per_pair"] == pytest.approx(69.0)
    assert m["embeddings.parse_profile.calls"] == 1
    assert m["regions.sigma_case.calls"] == 1
    assert m["regions.sigma_case_s"] == pytest.approx(0.010)
    assert m["strata.classify_s"] == pytest.approx(0.006)
    assert m["embeddings.shift.calls"] == 1
    assert m["regions.query.calls"] == 1
    assert m["degrees.w_T_deg.calls"] == 0
    assert tracing.sweep_seconds(spans) == pytest.approx(0.080)


def test_tracer_wraps_module_boundaries_and_restores_them():
    from stratgrid import regions, strata
    from stratgrid.degrees import DegreeVector
    from stratgrid.embeddings import parse_profile

    original = regions.classify
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert regions.classify is not original
        api = tracing.bench_api(tracer)
        h = DegreeVector(parse_profile("p=3;f=2"), (1, 0), generic=True)
        assert api.in_sigma(h) is regions.in_sigma(h)
    finally:
        tracer.uninstall()
    assert regions.classify is original
    assert not any(hasattr(v, "__wrapped__") for v in vars(strata).values())
    names = [s[0] for s in tracer.spans]
    assert names[0] == "regions.in_sigma" and tracer.spans[0][4] == -1
    classify = names.index("strata.classify")
    assert tracer.spans[classify][1] == "regions"
    assert all(s[2] <= s[3] for s in tracer.spans)


def test_matches_ignores_added_fields_only():
    expected = {"pass": True, "pairs_checked": 3, "counterexamples": []}
    assert workloads.matches(expected, {**expected, "vacuous": False})
    assert not workloads.matches(expected, {"pass": True, "pairs_checked": 3})
    assert not workloads.matches(expected, {**expected, "pairs_checked": 4})
    assert not workloads.matches(expected, {**expected, "pass": 1})
    assert not workloads.matches(expected, {**expected, "counterexamples": [{}]})


def test_inputs_depend_on_the_seed_only():
    assert workloads.query_sample(5) == workloads.query_sample(5)
    assert workloads.query_sample(5) != workloads.query_sample(6)
    assert workloads.query_pool(3, (2, 1)) == workloads.query_pool(3, (2, 1))
    assert sorted(workloads.sweep_order(9)) == sorted(workloads.SWEEPS)
    assert len(workloads.all_profiles()) == 116


def test_tracer_rejects_a_boundary_that_moved():
    from stratgrid import cli

    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.SWEEP_BOUNDARY)
        assert hasattr(cli.verify_sigma_up, "__wrapped__")
        assert not hasattr(cli.coverage_check, "__wrapped__")
    finally:
        tracer.uninstall()
    with pytest.raises(LookupError):
        tracer.install({"cli": ("no_such_function",)})


def test_clock_scales_by_the_kernel_runs_around_an_operation():
    clock = reference.Clock()
    try:
        clock.tick()
        clock.samples = [reference.NOMINAL_S, reference.NOMINAL_S * 3]
        assert clock.scale(0) == pytest.approx(0.5)  # host at half speed
        assert clock.maybe_tick() == 1  # a run just went by: none due yet
    finally:
        clock.close()


def test_clock_runs_one_kernel_copy_per_worker_and_stops_its_helpers():
    clock = reference.Clock(workers=2)
    try:
        assert clock.tick() == 0
        assert clock.tick() == 1
        assert clock.wall_s >= sum(clock.samples)  # each sample: mean time of the copies
        assert clock.scale(0) > 0
        procs = [proc for _, proc in clock._helpers]
        assert len(procs) == 1 and procs[0].is_alive()
    finally:
        clock.close()
    assert not procs[0].is_alive() and procs[0].exitcode == 0
