"""Tests of the benchmark's helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import os

import pytest

import checks
import tracing
from repro.obs.promtext import parse


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert tracing.percentile(samples, 0.5) == 50
    assert tracing.percentile(samples, 0.9) == 90
    assert tracing.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        tracing.percentile([], 0.5)


def test_p90_is_refused_below_one_hundred_samples():
    short = tracing.latency_summary([float(i) for i in range(99)])
    assert short["n"] == 99 and short["p90"] is None and short["p50"] == 49.0
    enough = tracing.latency_summary([float(i) for i in range(100)])
    assert enough["n"] == 100 and enough["p90"] == 89.0


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracing.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "root", "parent": None, "name": "run", "start": 0.0, "end": 10.0},
        # Overlapping children cover [1, 6]; the part past the parent is clipped.
        {"id": "a", "parent": "root", "name": "kernel", "start": 1.0, "end": 4.0},
        {"id": "b", "parent": "root", "name": "kernel", "start": 3.0, "end": 6.0},
        {"id": "c", "parent": "root", "name": "filter", "start": 9.0, "end": 12.0},
        {"id": "d", "parent": "a", "name": "filter", "start": 2.0, "end": 3.0},
    ]
    selfs = tracing.self_times(spans)
    assert selfs["run"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["kernel"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert selfs["filter"] == pytest.approx(1.0 + 3.0)
    assert tracing.durations(spans)["kernel"] == pytest.approx(6.0)


def test_recorder_self_times_add_up_to_the_outer_span():
    ticks = iter(range(100))
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda value: value + 1)
    outer = recorder.wrap("outer", lambda value: inner(value) + inner(value))
    assert outer(1) == 4
    assert [span["parent"] for span in recorder.spans] == [None, 0, 0]
    selfs = tracing.self_times(recorder.spans)
    assert sum(selfs.values()) == pytest.approx(tracing.durations(recorder.spans)["outer"])


BEFORE = """# TYPE atcd_http_requests_total counter
atcd_http_requests_total{server="service",route="/v1/jobs",status="202"} 3
atcd_http_requests_total{server="broker",route="/v1/jobs",status="200"} 9
# TYPE atcd_store_lookups_total counter
atcd_store_lookups_total{result="hit"} 1
"""

AFTER = """# TYPE atcd_http_requests_total counter
atcd_http_requests_total{server="service",route="/v1/jobs",status="202"} 5
atcd_http_requests_total{server="service",route="/metrics",status="200"} 1
atcd_http_requests_total{server="broker",route="/v1/jobs",status="200"} 20
# TYPE atcd_store_lookups_total counter
atcd_store_lookups_total{result="hit"} 4
atcd_store_lookups_total{result="miss"} 2
"""


def test_counter_delta_between_scrapes():
    assert tracing.counter_delta(parse, BEFORE, AFTER, "atcd_http_requests_total",
                                 server="service") == 3.0
    assert tracing.counter_delta(parse, BEFORE, AFTER, "atcd_store_lookups_total") == 5.0
    assert tracing.counter_delta(parse, BEFORE, AFTER, "atcd_store_lookups_total",
                                 result="miss") == 2.0
    assert tracing.counter_delta(parse, BEFORE, AFTER, "atcd_missing_total") == 0.0


MODEL = {"root": "r", "nodes": [
    {"name": "r", "type": "OR", "children": ["g", "c"], "damage": 5.0},
    {"name": "g", "type": "AND", "children": ["a", "b"], "damage": 10.0},
    {"name": "a", "type": "BAS", "cost": 1.0, "probability": 0.5},
    {"name": "b", "type": "BAS", "cost": 2.0, "probability": 0.5},
    {"name": "c", "type": "BAS", "cost": 4.0, "damage": 1.0, "probability": 1.0},
]}


def test_evaluate_deterministic_and_expected_damage():
    assert checks.evaluate(MODEL, ["a", "b"], probabilistic=False) == (3.0, 15.0)
    cost, damage = checks.evaluate(MODEL, ["a", "b"], probabilistic=True)
    assert cost == 3.0 and damage == pytest.approx(0.25 * 15.0)
    with pytest.raises(ValueError):
        checks.evaluate(MODEL, ["g"], probabilistic=False)


def _rows(front, value, witness, budget):
    return [
        {"setting": "deterministic", "front": front},
        {"request": {"problem": "dgc", "budget": budget}, "value": value,
         "witness": witness},
    ]


GOOD_FRONT = [
    {"cost": 0.0, "damage": 0.0, "attack": []},
    {"cost": 3.0, "damage": 15.0, "attack": ["a", "b"]},
    {"cost": 7.0, "damage": 16.0, "attack": ["a", "b", "c"]},
]


def test_check_case_accepts_a_correct_answer():
    case = {"model": MODEL, "requests": [{}, {}]}
    assert checks.check_case(case, _rows(GOOD_FRONT, 15.0, ["a", "b"], 5)) == []


def test_check_case_catches_wrong_witness_staircase_and_budget_value():
    case = {"model": MODEL, "requests": [{}, {}]}
    wrong_witness = [dict(point) for point in GOOD_FRONT]
    wrong_witness[1]["attack"] = ["a"]
    assert checks.check_case(case, _rows(wrong_witness, 15.0, ["a", "b"], 5))
    not_strict = GOOD_FRONT + [{"cost": 8.0, "damage": 16.0, "attack": ["a", "b", "c"]}]
    assert any("staircase" in text
               for text in checks.check_case(case, _rows(not_strict, 15.0, None, 5)))
    assert checks.check_case(case, _rows(GOOD_FRONT, 16.0, None, 5))


def test_same_result_ignores_timing_and_cache_provenance():
    left = {"value": 1.0, "wall_time_seconds": 0.1, "cache_hit": False}
    assert checks.same_result(left, {"value": 1.0, "wall_time_seconds": 9.0,
                                     "cache_hit": True})
    assert not checks.same_result(left, {"value": 2.0})


def test_slowdowns_take_the_median_of_nearby_yardstick_samples():
    # Samples after analyses 0, 2 and 4; the third marks a host twice slower.
    factors = tracing.slowdowns([0, 2, 4], [1.0, 1.0, 2.0], 6, reference=1.0,
                                neighbours=1)
    assert factors == [1.0, 1.0, 1.0, 1.5, 1.5, 2.0]
    assert tracing.slowdowns([0], [3.0], 2, reference=1.5) == [2.0, 2.0]
    with pytest.raises(ValueError):
        tracing.slowdowns([], [], 1, reference=1.0)


def test_peak_rss_reads_a_live_process():
    assert tracing.peak_rss_mb(os.getpid()) > 1.0
    # Above the largest pid Linux allows, so no such process exists.
    with pytest.raises(OSError):
        tracing.peak_rss_mb(2 ** 22 + 1)
