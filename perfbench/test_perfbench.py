"""Self-tests of the benchmark's pure helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402


# -- percentile rule ---------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert benchlib.percentile(list(range(19)), 0.5) is None
    assert benchlib.percentile(list(range(20)), 0.5) == 9
    assert benchlib.percentile(list(range(199)), 0.95) is None
    assert benchlib.percentile(list(range(200)), 0.95) == 189
    assert benchlib.percentile([], 0.5) is None


def test_percentile_is_order_independent():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert benchlib.percentile(values, 0.5) == 3.0


def test_histogram_percentile_interpolates_inside_bucket():
    bounds = [1.0, 2.0, 4.0]
    counts = [10, 20, 10, 0]  # 10 in (0,1], 20 in (1,2], 10 in (2,4]
    # rank 20 of 40 lands half-way through the (1, 2] bucket
    assert benchlib.histogram_percentile(bounds, counts, 0.5) == 1.5
    # too few samples beyond p95 of 40
    assert benchlib.histogram_percentile(bounds, counts, 0.95) is None


def test_histogram_percentile_in_inf_bucket_reports_last_bound():
    assert benchlib.histogram_percentile([1.0], [0, 30], 0.5) == 1.0


def test_spread_is_iqr_over_median():
    assert benchlib.spread([10.0]) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, _, q3 = [9.5, 10.0, 10.5]
    assert benchlib.spread(values) == pytest.approx((q3 - q1) / 10.0)


# -- spans ---------------------------------------------------------------

def _span(id, parent, start, end, name="x"):
    return {"id": id, "parent": parent, "start": start, "end": end,
            "name": name}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),  # grandchild: charged to span 2, not 1
        _span(4, 1, 6.0, 7.0),
    ]
    assert benchlib.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 2.0, 6.0),
        _span(3, 1, 4.0, 8.0),   # overlaps span 2 (another thread)
        _span(4, 1, 9.0, 12.0),  # runs past the parent: clipped
    ]
    assert benchlib.self_times(spans)[0] == pytest.approx(3.0)


def test_self_segments_are_the_uncovered_gaps():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 2.0, 4.0),
             _span(3, 1, 3.0, 5.0)]
    assert benchlib.self_segments(spans)[0] == [(0.0, 2.0), (5.0, 10.0)]


def test_attribute_shares_overlaps_and_sums_to_wall():
    segments = [(0.0, 4.0, "a"), (2.0, 6.0, "b"), (7.0, 8.0, "a")]
    share = benchlib.attribute(segments, 0.0, 10.0)
    assert share["a"] == pytest.approx(2.0 + 1.0 + 1.0)
    assert share["b"] == pytest.approx(1.0 + 2.0)
    assert share[None] == pytest.approx(3.0)  # 6..7 and 8..10 idle
    assert sum(share.values()) == pytest.approx(10.0)


def test_attribute_clips_to_the_window():
    share = benchlib.attribute([(-5.0, 5.0, "a")], 0.0, 2.0)
    assert share == {None: 0.0, "a": 2.0}


# -- report canonicalisation ---------------------------------------------

class Kind(enum.Enum):
    A = 1
    B = 2


@dataclass
class Storage:
    blocks: int
    bits_per_block: float


@dataclass
class Report:
    name: str
    ratio: float = 0.0
    kind: Kind = Kind.A
    per_node: Dict[int, float] = field(default_factory=dict)
    storage: Optional[Storage] = None


def test_canonical_floats_are_exact_and_distinct_from_ints():
    assert benchlib.canonical(0.1) == {"__float__": "0.1"}
    assert benchlib.canonical(1.0) != benchlib.canonical(1)
    assert benchlib.canonical(1 / 3) == {"__float__": repr(1 / 3)}


def test_canonical_keeps_none_fields_and_nests_dataclasses():
    bare = benchlib.canonical(Report("em3d"))
    assert bare["storage"] is None
    nested = benchlib.canonical(
        Report("em3d", storage=Storage(3, 0.5))
    )
    assert nested["storage"] == {
        "__type__": "Storage", "blocks": 3,
        "bits_per_block": {"__float__": "0.5"},
    }
    assert bare != nested


def test_canonical_sorts_mappings_and_names_enums():
    one = Report("x", per_node={2: 1.5, 1: 0.5}, kind=Kind.B)
    two = Report("x", per_node={1: 0.5, 2: 1.5}, kind=Kind.B)
    assert benchlib.report_digest(one) == benchlib.report_digest(two)
    assert benchlib.canonical(one)["kind"] == "Kind.B"
    json.dumps(benchlib.canonical(one))  # JSON-ready


def test_digest_moves_with_any_number():
    base = benchlib.report_digest(Report("x", ratio=0.25))
    assert benchlib.report_digest(Report("x", ratio=0.25)) == base
    assert benchlib.report_digest(Report("x", ratio=0.2500001)) != base


def test_canonical_rejects_unknown_types():
    with pytest.raises(TypeError):
        benchlib.canonical(object())


def test_compare_digests_names_moved_and_missing_keys():
    assert benchlib.compare_digests(
        {"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "9", "d": "4"}
    ) == ["b", "c", "d"]


# -- registry deltas -----------------------------------------------------

def _snap(counters=None, gauges=None, histograms=None):
    return {"schema": "s", "counters": counters or {},
            "gauges": gauges or {}, "histograms": histograms or {}}


def test_registry_delta_differences_counters_per_series():
    before = _snap(counters={"c": {"kind=a": 5, "kind=b": 2}})
    after = _snap(counters={"c": {"kind=a": 9, "kind=b": 2, "kind=c": 1},
                            "new": {"": 3}})
    delta = benchlib.registry_delta(before, after)
    assert delta["counters"] == {
        "c": {"kind=a": 4, "kind=c": 1}, "new": {"": 3},
    }


def test_registry_delta_differences_histograms_and_keeps_gauges():
    h0 = {"buckets": [1.0], "counts": [2, 1], "sum": 3.0, "count": 3}
    h1 = {"buckets": [1.0], "counts": [5, 1], "sum": 4.5, "count": 6}
    delta = benchlib.registry_delta(
        _snap(gauges={"g": {"": 1}}, histograms={"h": {"": h0}}),
        _snap(gauges={"g": {"": 7}}, histograms={"h": {"": h1}}),
    )
    assert delta["gauges"] == {"g": {"": 7}}
    assert delta["histograms"]["h"][""] == {
        "buckets": [1.0], "counts": [3, 0], "sum": 1.5, "count": 3,
    }


def test_registry_delta_drops_unchanged_histograms():
    h = {"buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}
    delta = benchlib.registry_delta(_snap(histograms={"h": {"": h}}),
                                    _snap(histograms={"h": {"": h}}))
    assert delta["histograms"] == {}


def test_merge_counters_and_label_sum():
    merged = benchlib.merge_counters([
        {"counters": {"e": {"kind=dir_arrive": 2, "kind=reply": 1}}},
        {"counters": {"e": {"kind=dir_arrive": 3}}},
    ])
    assert merged == {"e": {"kind=dir_arrive": 5, "kind=reply": 1}}
    frames = {"type=lease,worker=w1": 4, "type=lease,worker=w2": 2,
              "type=result,worker=w1": 9}
    assert benchlib.label_sum(frames, type="lease") == 6
    assert benchlib.label_sum(frames) == 15


# -- BENCHMARK.json agrees with the catalog --------------------------------

def test_benchmark_json_matches_the_catalog():
    import catalog
    from grid import WORKLOADS

    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", catalog.END_TO_END),
                       ("per_layer", catalog.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == {
            name: (m.unit, m.better) for name, m in table.items()
        }
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
