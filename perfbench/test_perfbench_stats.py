"""Tests for the benchmark's own arithmetic: self time, medians, quartiles, names."""

import json
import os

import pytest

import benchlib
import workloads

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


def _span(i, parent, start, end):
    return {"id": i, "name": f"s{i}", "parent": parent, "run": "r", "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 5.0, 6.0)]
    assert benchlib.self_times(spans) == pytest.approx({0: 7.0, 1: 2.0, 2: 1.0})


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 6.0),
        _span(2, 0, 4.0, 8.0),  # overlaps span 1 by 2
        _span(3, 0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert benchlib.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_ignores_grandchildren():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 0.0, 4.0), _span(2, 1, 1.0, 2.0)]
    own = benchlib.self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(3.0)


def test_self_time_by_name_sums_spans_of_one_name():
    spans = [_span(0, None, 0.0, 4.0), _span(1, 0, 0.0, 1.0), _span(2, 0, 2.0, 3.0)]
    spans[2]["name"] = "s1"
    assert benchlib.self_time_by_name(spans) == pytest.approx({"s0": 2.0, "s1": 2.0})


def test_tracer_records_parent_and_run():
    tr = benchlib.Tracer("run-7")
    with tr.span("outer"):
        with tr.span("inner", s=3):
            pass
    outer, inner = tr.spans
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert inner["run"] == "run-7" and inner["s"] == 3
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_median_odd_and_even():
    assert benchlib.median([3, 1, 2]) == 2.0
    assert benchlib.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        benchlib.median([])


def test_quartiles_match_exclusive_method():
    assert benchlib.quartiles(range(1, 11)) == pytest.approx((2.75, 5.5, 8.25))
    assert benchlib.quartiles([1.0, 2.0]) == pytest.approx((0.75, 1.5, 2.25))
    with pytest.raises(ValueError):
        benchlib.quartiles([1.0])


def test_line_fit_recovers_intercept_and_slope():
    fixed, slope = benchlib.line_fit([1, 2, 3, 4], [1.5, 2.0, 2.5, 3.0])
    assert (fixed, slope) == pytest.approx((1.0, 0.5))
    with pytest.raises(ValueError):
        benchlib.line_fit([2, 2], [1.0, 3.0])


@pytest.mark.parametrize(
    "name, ok",
    [
        ("setup_s", True),
        ("engine.exact_sequence_fidelity_ms.clifford-mbqc-full.s4", True),
        ("3rd", True),
        ("", False),
        (".hidden", False),
        ("has space", False),
        ("slash/name", False),
        ("a" * 64, True),
        ("a" * 65, False),
    ],
)
def test_metric_name_pattern(name, ok):
    assert benchlib.valid_metric_name(name) is ok


def test_declared_metrics_are_well_formed_and_unique():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(benchlib.valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_oracle_rungs_cover_each_variant_up_to_its_limit():
    rungs = workloads.oracle_rungs()
    assert len(rungs) == 15
    assert ("derandomized-mbqc", 3) in rungs and ("derandomized-mbqc", 4) not in rungs
