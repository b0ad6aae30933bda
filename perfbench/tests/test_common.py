"""Tests of the benchmark's own helpers (no simulation).

Run with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from common import (  # noqa: E402
    Spans,
    failed_frac,
    failed_samples,
    overlaps,
    percentile,
    quartile_spread,
    ratio,
    rel_close,
    result_line,
    samples_beyond,
    self_times,
    share,
    tail_percentile,
    valid_name,
    valid_unit,
)

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# -- percentiles ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 99) == 99
    assert percentile(data, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_counts_points_above_the_rank():
    assert samples_beyond(100, 50) == 50
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(1, 50) == 0


@pytest.mark.parametrize(
    "count, expected_q",
    [
        (5, None),  # median has 2 beyond: nothing is supported
        (20, 50.0),  # 10 beyond the median
        (99, 50.0),  # 9 beyond p90
        (100, 90.0),  # exactly 10 beyond p90
        (999, 90.0),  # 9 beyond p99
        (1000, 99.0),
        (10_000, 99.9),
        (100_000, 99.99),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected_q):
    data = [float(k) for k in range(count)]
    got = tail_percentile(data)
    if expected_q is None:
        assert got is None
    else:
        q, value = got
        assert q == expected_q
        assert value == percentile(data, expected_q)
        assert samples_beyond(count, q) >= 10


def test_tail_percentile_is_order_independent():
    data = [float(k % 37) for k in range(2000)]
    assert tail_percentile(data) == tail_percentile(sorted(data))


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


# -- ratios --------------------------------------------------------------------


def test_ratio_without_base_is_the_default():
    assert ratio(3, 4) == 0.75
    assert ratio(3, 0) == 0.0
    assert ratio(3, 0, default=1.0) == 1.0


def test_share_is_part_over_total():
    assert share(3, 1) == 0.75  # e.g. 3 Jacobian reuses, 1 stamp
    assert share(0, 0) == 0.0
    assert share(0, 5) == 0.0


def test_rel_close():
    assert rel_close(1.0, 1.0 + 1e-10, 1e-9)
    assert not rel_close(1.0, 1.0 + 1e-6, 1e-9)
    assert rel_close(math.inf, math.inf, 1e-9)
    assert not rel_close(math.inf, 1e300, 1e-9)
    assert rel_close(0.0, 0.0, 1e-9)


def test_overlaps():
    intervals = [(1.0, 2.0), (5.0, 6.0)]
    assert overlaps(1.5, 1.6, intervals)
    assert overlaps(0.5, 1.1, intervals)
    assert overlaps(5.9, 7.0, intervals)
    assert not overlaps(2.0, 5.0, intervals)  # touching ends do not overlap
    assert not overlaps(3.0, 4.0, [])


# -- failure accounting --------------------------------------------------------


def test_nan_samples_fail_but_inf_write_failures_do_not():
    samples = [1e-9, math.inf, math.nan, 2e-9, math.inf, math.nan]
    assert failed_samples(samples) == 2
    assert failed_samples([math.inf, math.inf]) == 0
    assert failed_samples([]) == 0


def test_failed_frac():
    assert failed_frac(2, 8) == 0.25
    assert failed_frac(0, 8) == 0.0
    assert failed_frac(0, 0) == 0.0


# -- names and the result line -------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "serve.hit_p99_ms", "mc.drnm_samples_per_s", "9lives", "a-b.c_d"]
)
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_private", ".dot", "has space", "slash/name", "x" * 65, "ünï"]
)
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "MB", "share"):
        assert valid_unit(unit)
    for unit in ("", "per second", "x" * 17):
        assert not valid_unit(unit)


def test_benchmark_json_names_and_units_are_valid():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert valid_unit(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_run_reports_every_declared_per_layer_metric():
    import run

    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.PER_LAYER_UNITS == declared


def test_result_line_shape():
    line = result_line(True, 5, 1, {"latency_ms": (1.25, "ms"), "setup_s": (0.5, "s")})
    payload = json.loads(line)
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["metrics"]["latency_ms"] == {"value": 1.25, "unit": "ms"}
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"bad name": (1.0, "ms")})
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"x": (math.nan, "ms")})


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    records = [
        {"id": 0, "parent": None, "name": "outer", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "inner", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "name": "inner", "start": 3.0, "end": 6.0},  # overlaps
        {"id": 3, "parent": 1, "name": "leaf", "start": 2.0, "end": 3.0},
    ]
    times = self_times(records)
    assert times["outer"] == pytest.approx(10.0 - 5.0)  # union [1, 6]
    assert times["inner"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert times["leaf"] == pytest.approx(1.0)


def test_spans_record_parents_and_skip_when_disabled():
    spans = Spans(True)
    with spans.span("a"):
        with spans.span("b", k=1):
            pass
    assert [r["name"] for r in spans.records] == ["a", "b"]
    assert spans.records[1]["parent"] == spans.records[0]["id"]
    assert spans.records[1]["fields"] == {"k": 1}
    assert set(self_times(spans.records)) == {"a", "b"}

    off = Spans(False)
    with off.span("a"):
        pass
    assert off.records == []


# -- per-workload failure counting ----------------------------------------------


def test_mc_load_counts_nan_samples_as_failed():
    import mc_yield

    mc = mc_yield.McLoad(1, Spans(False))
    mc.units.append(
        mc_yield.Unit("wlcrit", 201, 4, 2, [1e-9, math.inf, math.nan, 2e-9], None, 2.0)
    )
    mc.units.append(mc_yield.Unit("drnm", 101, 2, 2, [0.9, 0.8], None, 0.5))
    assert mc.attempted == 6
    assert mc.failed == 1
    assert mc.rate("wlcrit") == 2.0
    assert mc.rate("drnm") == 4.0


def test_serve_load_counts_errors_and_backfill_overlap():
    import serve_mixed

    sp = serve_mixed.ServeLoad.__new__(serve_mixed.ServeLoad)
    key = ("drnm", "proposed", 0.7)
    window = serve_mixed.Slice(mixed=True)
    window.window_s = 3.0
    window.misses = [serve_mixed.Request(1.0, 2.0, key, "backfill", 0.9, 5e5)]
    window.hits = [
        serve_mixed.Request(0.1, 0.2, key, "memory", 0.9, 50.0),
        serve_mixed.Request(1.5, 1.6, key, "memory", 0.9, 50.0),
        serve_mixed.Request(2.5, 2.6, key, error="timeout"),
    ]
    hits_only = serve_mixed.Slice(mixed=False)
    hits_only.window_s = 2.0
    hits_only.hits = [serve_mixed.Request(3.1, 3.2, key, "memory", 0.9, 50.0)]
    sp.slices = [hits_only, window]
    assert sp.attempted == 5
    assert sp.failed == 1
    during, quiet = sp.hits_during_backfill()
    assert len(during) == 1 and len(quiet) == 2
    assert sp.throughput() == pytest.approx(1 / 2.0)
    assert sp.at_round_end


def test_interleave_spreads_each_group():
    import run

    order = run._interleave([2, 2, 2])
    assert sorted(order) == list(range(6))
    assert order[:3] == [0, 2, 4] and order[3:] == [1, 3, 5]
    assert run._interleave([1, 3]) == [1, 0, 2, 3]


class _FakeLoad:
    def __init__(self, round_slices: int, cost: float):
        self.round_slices = round_slices
        self.cost = cost
        self.calls = 0

    def slice(self) -> float:
        self.calls += 1
        return self.cost

    @property
    def at_round_end(self) -> bool:
        return self.calls % self.round_slices == 0


def test_measure_runs_whole_primary_rounds_and_every_companion_round():
    import run

    bench = run.Run("mc_yield", 1, 3.0, False)
    primary = _FakeLoad(5, 1.0)
    paths, traffic = _FakeLoad(4, 0.5), _FakeLoad(2, 0.5)
    bench.measure(primary, [("array_path", paths), ("serve_mixed", traffic)])
    assert primary.calls == 5
    assert paths.calls == 4 * run.COMPANION_ROUNDS["array_path"]
    assert traffic.calls == 2 * run.COMPANION_ROUNDS["serve_mixed"]


def test_layer_map_cites_declared_metrics_and_workloads():
    layer_map = json.loads((HERE.parent / "layers.json").read_text())
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    mapped = set()
    for layer in layer_map["layers"]:
        mapped.update(layer["per_layer"])
        for workload, moved in layer.get("moves", {}).items():
            assert workload in workloads | {"all"}
            assert {m.split(" ")[0] for m in moved} <= end_to_end
        assert set(layer.get("no_change", ())) <= workloads
    assert mapped | set(layer_map["property_shares"]) == per_layer
