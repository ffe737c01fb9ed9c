"""``repro report``: a static HTML site over the result store.

Stdlib-only generator — no template engine, no JS, no external
assets. :func:`generate_report` reads three sources:

* the sqlite :class:`~repro.store.index.ResultIndex` (experiment
  metric tables + inline SVG figures, one page per experiment, and
  per-holder throughput from each row's ``holder``/``created``);
* the fleet observability files under ``<cache>/claims/`` —
  ``fleet.json`` (current status) and ``fleet_events.jsonl`` (the
  durable scaling-event log the controller appends);
* ``BENCH_*.json`` micro-benchmark records (the
  ``ltp-repro-bench/1`` schema the benchmark suite emits) for trend
  charts.

and writes ``index.html`` plus ``experiment-<name>.html`` pages into
the output directory. Everything is inlined, so the site can be
archived, attached to CI runs, or opened from ``file://`` as-is.

Charts follow one fixed visual system: categorical series take hues
in a fixed slot order (never cycled), light and dark palettes are
separate steps of the same ramps selected via CSS custom properties,
text always wears ink tokens (never a series color), every chart is
paired with a plain table of the same numbers, and the reserved
status red marks only halts.
"""

from __future__ import annotations

import html
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.store.index import ResultIndex

#: fixed categorical slot order (light, dark) — assigned to series in
#: this order, never cycled; extra series fold into the muted "other"
SERIES_COLORS = (
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
)

#: reserved status hue (fleet halts) — never used for a series
STATUS_CRITICAL = "#d03b3b"
STATUS_SERIOUS = "#ec835a"

_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
%(light_series)s
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255, 255, 255, 0.10);
%(dark_series)s
  }
}
* { box-sizing: border-box; }
body {
  margin: 0;
  background: var(--page);
  color: var(--text-primary);
  font: 15px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 960px; margin: 0 auto; padding: 24px 20px 64px; }
h1 { font-size: 24px; margin: 8px 0 4px; }
h2 { font-size: 18px; margin: 36px 0 8px; }
h3 { font-size: 15px; margin: 20px 0 6px; }
p.sub { color: var(--text-secondary); margin: 0 0 16px; }
a { color: inherit; }
section.card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 16px 20px;
  margin: 12px 0;
}
table { border-collapse: collapse; width: 100%%; margin: 8px 0; }
th, td {
  text-align: left;
  padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--text-secondary); font-weight: 600; }
td.num, th.num { text-align: right; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0; }
.legend span { color: var(--text-secondary); font-size: 13px; }
.chip {
  display: inline-block;
  width: 10px; height: 10px;
  border-radius: 3px;
  margin-right: 5px;
  vertical-align: baseline;
}
svg text { font: 11px system-ui, -apple-system, sans-serif; }
.kpis { display: flex; flex-wrap: wrap; gap: 24px; }
.muted { color: var(--muted); font-size: 13px; font-weight: 400; }
.kpi .value { font-size: 26px; font-weight: 600; }
.kpi .label { color: var(--text-secondary); font-size: 13px; }
footer {
  color: var(--muted);
  font-size: 12px;
  margin-top: 40px;
}
"""


def _css() -> str:
    light = "\n".join(
        f"  --series-{i + 1}: {pair[0]};"
        for i, pair in enumerate(SERIES_COLORS)
    )
    dark = "\n".join(
        f"    --series-{i + 1}: {pair[1]};"
        for i, pair in enumerate(SERIES_COLORS)
    )
    return _CSS % {"light_series": light, "dark_series": dark}


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _fmt_ts(epoch: Optional[float]) -> str:
    if not epoch:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(epoch))


def _fmt_num(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _page(title: str, subtitle: str, body: str, footer: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" '
        'content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_css()}</style>\n</head>\n<body>\n<main>\n"
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="sub">{_esc(subtitle)}</p>\n'
        f"{body}\n"
        f"<footer>{_esc(footer)}</footer>\n"
        "</main>\n</body>\n</html>\n"
    )


# -- SVG charts --------------------------------------------------------

_CHART_W = 880
_CHART_H = 260
_PAD_L = 64
_PAD_R = 12
_PAD_T = 14
_PAD_B = 34


def _y_scale(max_value: float) -> Tuple[float, List[float]]:
    """A rounded axis maximum and 4 gridline values for ``[0, max]``."""
    if max_value <= 0:
        return 1.0, [0.25, 0.5, 0.75, 1.0]
    magnitude = 10 ** (len(f"{int(max_value)}") - 1) \
        if max_value >= 1 else 10 ** -(len(f"{max_value:e}".split("-")[-1]))
    top = magnitude
    while top < max_value:
        top += magnitude
    return float(top), [top * f for f in (0.25, 0.5, 0.75, 1.0)]


def _grid_lines(top: float, ticks: List[float]) -> str:
    plot_h = _CHART_H - _PAD_T - _PAD_B
    parts = []
    for tick in ticks:
        y = _PAD_T + plot_h * (1 - tick / top)
        parts.append(
            f'<line x1="{_PAD_L}" y1="{y:.1f}" '
            f'x2="{_CHART_W - _PAD_R}" y2="{y:.1f}" '
            'stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{_PAD_L - 6}" y="{y + 3.5:.1f}" '
            'text-anchor="end" fill="var(--muted)">'
            f"{tick:.4g}</text>"
        )
    baseline_y = _CHART_H - _PAD_B
    parts.append(
        f'<line x1="{_PAD_L}" y1="{baseline_y}" '
        f'x2="{_CHART_W - _PAD_R}" y2="{baseline_y}" '
        'stroke="var(--baseline)" stroke-width="1"/>'
    )
    return "".join(parts)


def bar_chart_svg(
    categories: Sequence[str],
    series: Sequence[Tuple[str, Sequence[Optional[float]]]],
) -> str:
    """Grouped bar chart: categories on x, one fixed-slot hue per
    series, thin bars with rounded data-ends and 2px surface gaps."""
    values = [
        v for _, vals in series for v in vals if v is not None
    ]
    top, ticks = _y_scale(max(values) if values else 0.0)
    plot_w = _CHART_W - _PAD_L - _PAD_R
    plot_h = _CHART_H - _PAD_T - _PAD_B
    baseline_y = _CHART_H - _PAD_B
    group_w = plot_w / max(1, len(categories))
    bar_w = min(
        28.0, max(4.0, (group_w - 12) / max(1, len(series)) - 2)
    )
    parts = [_grid_lines(top, ticks)]
    for ci, category in enumerate(categories):
        group_x = _PAD_L + group_w * ci
        cluster_w = len(series) * (bar_w + 2) - 2
        start = group_x + (group_w - cluster_w) / 2
        for si, (_, vals) in enumerate(series):
            value = vals[ci]
            if value is None:
                continue
            h = plot_h * (value / top)
            x = start + si * (bar_w + 2)
            color = f"var(--series-{si + 1})" if si < len(
                SERIES_COLORS
            ) else "var(--muted)"
            parts.append(
                f'<path d="M{x:.1f} {baseline_y:.1f} '
                f"v{-max(0.0, h - 4):.1f} "
                f"q0 -4 4 -4 h{bar_w - 8:.1f} q4 0 4 4 "
                f'v{max(0.0, h - 4):.1f} z" fill="{color}"/>'
                if h > 4 else
                f'<rect x="{x:.1f}" y="{baseline_y - h:.1f}" '
                f'width="{bar_w:.1f}" height="{h:.1f}" '
                f'fill="{color}"/>'
            )
        parts.append(
            f'<text x="{group_x + group_w / 2:.1f}" '
            f'y="{baseline_y + 16}" text-anchor="middle" '
            f'fill="var(--muted)">{_esc(category)}</text>'
        )
    return (
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" '
        'role="img" width="100%" '
        f'preserveAspectRatio="xMidYMid meet">{"".join(parts)}</svg>'
    )


def line_chart_svg(
    xs: Sequence[float],
    series: Sequence[Tuple[str, Sequence[Optional[float]]]],
    x_labels: Optional[Sequence[str]] = None,
    step: bool = False,
    markers: Sequence[Tuple[float, float, str, str]] = (),
) -> str:
    """Line (or step) chart over numeric x; 2px strokes, fixed-slot
    hues, optional status ``markers`` as ``(x, y, color, label)``."""
    values = [
        v for _, vals in series for v in vals if v is not None
    ]
    top, ticks = _y_scale(max(values) if values else 0.0)
    lo = min(xs) if xs else 0.0
    hi = max(xs) if xs else 1.0
    span = (hi - lo) or 1.0
    plot_w = _CHART_W - _PAD_L - _PAD_R
    plot_h = _CHART_H - _PAD_T - _PAD_B
    baseline_y = _CHART_H - _PAD_B

    def sx(x: float) -> float:
        return _PAD_L + plot_w * (x - lo) / span

    def sy(v: float) -> float:
        return _PAD_T + plot_h * (1 - v / top)

    parts = [_grid_lines(top, ticks)]
    for si, (_, vals) in enumerate(series):
        color = f"var(--series-{si + 1})" if si < len(
            SERIES_COLORS
        ) else "var(--muted)"
        points = [
            (sx(x), sy(v))
            for x, v in zip(xs, vals)
            if v is not None
        ]
        if not points:
            continue
        d = f"M{points[0][0]:.1f} {points[0][1]:.1f}"
        for (px, py), (qx, qy) in zip(points, points[1:]):
            if step:
                d += f" H{qx:.1f} V{qy:.1f}"
            else:
                d += f" L{qx:.1f} {qy:.1f}"
        parts.append(
            f'<path d="{d}" fill="none" stroke="{color}" '
            'stroke-width="2" stroke-linejoin="round" '
            'stroke-linecap="round"/>'
        )
        if len(points) == 1:
            parts.append(
                f'<circle cx="{points[0][0]:.1f}" '
                f'cy="{points[0][1]:.1f}" r="4" fill="{color}"/>'
            )
    for mx, my, color, label in markers:
        parts.append(
            f'<circle cx="{sx(mx):.1f}" cy="{sy(my):.1f}" r="5" '
            f'fill="{color}" stroke="var(--surface-1)" '
            'stroke-width="2"/>'
        )
        if label:
            parts.append(
                f'<text x="{sx(mx):.1f}" '
                f'y="{sy(my) - 9:.1f}" text-anchor="middle" '
                f'fill="var(--text-secondary)">{_esc(label)}</text>'
            )
    if x_labels:
        idx = {0, len(xs) - 1, (len(xs) - 1) // 2}
        for i in sorted(idx):
            if 0 <= i < len(xs):
                parts.append(
                    f'<text x="{sx(xs[i]):.1f}" '
                    f'y="{baseline_y + 16}" text-anchor="middle" '
                    f'fill="var(--muted)">{_esc(x_labels[i])}</text>'
                )
    return (
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" '
        'role="img" width="100%" '
        f'preserveAspectRatio="xMidYMid meet">{"".join(parts)}</svg>'
    )


def _legend(names: Sequence[str]) -> str:
    if len(names) < 2:
        return ""
    chips = []
    for i, name in enumerate(names):
        color = f"var(--series-{i + 1})" if i < len(
            SERIES_COLORS
        ) else "var(--muted)"
        chips.append(
            f'<span><i class="chip" '
            f'style="background:{color}"></i>{_esc(name)}</span>'
        )
    return f'<div class="legend">{"".join(chips)}</div>'


# -- experiment sections -----------------------------------------------

#: identity fields that may distinguish series within one experiment
_SERIES_FIELDS = (
    "policy", "bits", "encoder", "variant", "forwarding",
    "si_fire_delay", "kind",
)

#: metric shown in the figure, first match wins
_PRIMARY_METRICS = (
    "accuracy", "execution_cycles", "miss_rate", "total_blocks",
)


def _series_key(row: Dict[str, Any], varying: List[str]) -> str:
    parts = []
    for field in varying:
        value = row.get(field)
        if value is None:
            continue
        parts.append(
            f"{value}" if field in ("policy", "variant", "kind")
            else f"{field}={value}"
        )
    return " ".join(parts) or "all"


def _experiment_chart(
    rows: List[Dict[str, Any]],
) -> Tuple[str, str, List[str], List[Tuple[str, List]]]:
    """Pick the primary metric, split rows into (workload) categories
    × (varying identity) series; returns (metric, legend_html,
    categories, series)."""
    names = set()
    for row in rows:
        names.update(row["metrics"])
    metric = next(
        (m for m in _PRIMARY_METRICS if m in names),
        sorted(names)[0] if names else None,
    )
    varying = [
        field for field in _SERIES_FIELDS
        if len({row.get(field) for row in rows}) > 1
    ]
    if not varying:
        varying = ["policy"]
    categories = sorted(
        {row.get("workload") or "?" for row in rows}
    )
    by_series: Dict[str, Dict[str, float]] = {}
    for row in rows:
        if metric is None or metric not in row["metrics"]:
            continue
        key = _series_key(row, varying)
        by_series.setdefault(key, {})[
            row.get("workload") or "?"
        ] = row["metrics"][metric]
    series = [
        (name, [by_series[name].get(c) for c in categories])
        for name in sorted(by_series)
    ]
    return metric or "-", _legend(
        [name for name, _ in series]
    ), categories, series


def _experiment_table(rows: List[Dict[str, Any]]) -> str:
    names: List[str] = []
    for row in rows:
        for name in sorted(row["metrics"]):
            if name not in names:
                names.append(name)
    names = names[:8]
    head = "".join(
        f"<th>{_esc(h)}</th>"
        for h in ("workload", "size", "policy", "holder")
    ) + "".join(f'<th class="num">{_esc(n)}</th>' for n in names)
    body = []
    for row in sorted(
        rows,
        key=lambda r: (
            r.get("workload") or "", r.get("policy") or "",
            r["digest"],
        ),
    ):
        cells = "".join(
            f"<td>{_esc(row.get(f) if row.get(f) is not None else '-')}"
            "</td>"
            for f in ("workload", "size", "policy", "holder")
        )
        cells += "".join(
            f'<td class="num">'
            f"{_fmt_num(row['metrics'].get(n))}</td>"
            for n in names
        )
        body.append(f"<tr>{cells}</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f'<tbody>{"".join(body)}</tbody></table>'
    )


def _experiment_page(
    name: str, rows: List[Dict[str, Any]], footer: str
) -> str:
    metric, legend, categories, series = _experiment_chart(rows)
    chart = bar_chart_svg(categories, series)
    body = (
        '<p><a href="index.html">&larr; overview</a></p>'
        f'<section class="card"><h2>{_esc(metric)}</h2>'
        f"{legend}{chart}</section>"
        f'<section class="card"><h2>All metrics</h2>'
        f"{_experiment_table(rows)}</section>"
    )
    return _page(
        f"Experiment: {name}",
        f"{len(rows)} indexed result(s)",
        body,
        footer,
    )


# -- fleet section -----------------------------------------------------


def holder_throughput(
    rows: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Per-holder publish counts from index rows, busiest first.

    Each entry: ``holder``, ``done`` (rows it published), ``started``
    and ``updated`` (its first and last ``created`` stamps), and
    ``rate`` in jobs/min over that span, floored at one second. Rows
    without a holder (plain local runs) are skipped.
    """
    by_holder: Dict[str, List[float]] = {}
    for row in rows:
        if row.get("holder") and row.get("created") is not None:
            by_holder.setdefault(row["holder"], []).append(
                float(row["created"])
            )
    out = []
    for holder, stamps in by_holder.items():
        started, updated = min(stamps), max(stamps)
        out.append({
            "holder": holder,
            "done": len(stamps),
            "started": started,
            "updated": updated,
            "rate": len(stamps) * 60.0 / max(updated - started, 1.0),
        })
    return sorted(out, key=lambda h: (-h["done"], h["holder"]))


def load_fleet(
    cache_root, rows: Sequence[Dict[str, Any]] = ()
) -> Dict[str, Any]:
    """Status + full event history from the claims directory, plus
    per-holder throughput from the index ``rows``.

    The controller size-rotates its event log (``fleet_events.jsonl``
    plus ``.1``..``.N`` backups); the rotated segments are read
    oldest-first so the timeline stays chronological across rotation.
    """
    from repro.fleet import (
        CLAIMS_DIRNAME,
        FLEET_EVENTS_NAME,
        FLEET_STATUS_NAME,
    )
    from repro.telemetry.sink import read_jsonl

    claims = Path(cache_root) / CLAIMS_DIRNAME
    status: Dict[str, Any] = {}
    try:
        status = json.loads(
            (claims / FLEET_STATUS_NAME).read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        pass
    events: List[Dict[str, Any]] = list(
        read_jsonl(claims / FLEET_EVENTS_NAME)
    )
    if not events:
        events = list(status.get("events", []))
    return {
        "status": status,
        "events": events,
        "holders": holder_throughput(rows),
    }


def _fleet_section(fleet: Dict[str, Any]) -> str:
    status = fleet["status"]
    events = fleet["events"]
    holders = fleet["holders"]
    if not status and not events and not holders:
        return (
            '<section class="card"><h2>Fleet</h2>'
            "<p>No fleet activity recorded (no "
            "<code>claims/fleet.json</code> or scaling-event log in "
            "this cache).</p></section>"
        )
    kpis = ""
    if status:
        halted = bool(status.get("halted"))
        kpis = '<div class="kpis">' + "".join(
            f'<div class="kpi"><div class="value">{_esc(v)}</div>'
            f'<div class="label">{_esc(k)}</div></div>'
            for k, v in (
                ("live workers", status.get("live", "-")),
                ("desired", status.get("desired", "-")),
                ("queue depth", status.get("queue_depth", "-")),
                (
                    "throughput (jobs/min)",
                    f"{status.get('throughput', 0.0):.1f}",
                ),
                ("policy", status.get("policy", "-")),
                ("state", "HALTED" if halted else "ok"),
            )
        ) + "</div>"
    timeline = ""
    if events:
        xs = [e["when"] for e in events]
        live = [e["live"] for e in events]
        markers = [
            (
                e["when"],
                e["live"],
                STATUS_CRITICAL if e["action"] == "halt"
                else STATUS_SERIOUS,
                e["action"],
            )
            for e in events
            if e["action"] in ("halt", "exit")
        ]
        timeline = (
            "<h3>Scaling timeline (live workers)</h3>"
            + line_chart_svg(
                xs,
                [("live workers", live)],
                x_labels=[_fmt_ts(x) for x in xs],
                step=True,
                markers=markers,
            )
        )
        recent = events[-12:]
        rows = "".join(
            "<tr>"
            f"<td>{_fmt_ts(e['when'])}</td>"
            f"<td>{_esc(e['action'])}</td>"
            f'<td class="num">{_esc(e["live"])}</td>'
            f'<td class="num">{_esc(e["desired"])}</td>'
            f'<td class="num">{_esc(e["queue_depth"])}</td>'
            f"<td>{_esc(e['reason'])}</td>"
            "</tr>"
            for e in recent
        )
        timeline += (
            f"<h3>Last {len(recent)} of {len(events)} event(s)</h3>"
            "<table><thead><tr><th>when</th><th>action</th>"
            '<th class="num">live</th><th class="num">desired</th>'
            '<th class="num">queue</th><th>reason</th></tr></thead>'
            f"<tbody>{rows}</tbody></table>"
        )
    holder_table = ""
    if holders:
        rows = "".join(
            "<tr>"
            f"<td>{_esc(h['holder'])}</td>"
            f'<td class="num">{h["done"]}</td>'
            f'<td class="num">{h["rate"]:.1f}</td>'
            f"<td>{_fmt_ts(h['started'])}</td>"
            f"<td>{_fmt_ts(h['updated'])}</td>"
            "</tr>"
            for h in holders
        )
        holder_table = (
            "<h3>Per-holder throughput</h3>"
            "<table><thead><tr><th>holder</th>"
            '<th class="num">done</th>'
            '<th class="num">jobs/min</th>'
            "<th>started</th><th>last publish</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>"
        )
    return (
        f'<section class="card"><h2>Fleet</h2>'
        f"{kpis}{timeline}{holder_table}</section>"
    )


# -- telemetry section -------------------------------------------------


def load_span_durations(cache_root) -> Dict[str, List[float]]:
    """Span durations in ms, grouped by span name, from the rotated
    ``telemetry/spans.jsonl`` beside the cache (empty when telemetry
    was off or the directory was never configured)."""
    from repro.telemetry import TELEMETRY_DIRNAME, read_spans

    groups: Dict[str, List[float]] = {}
    for record in read_spans(Path(cache_root) / TELEMETRY_DIRNAME):
        name = record.get("name")
        dur = record.get("dur_ms")
        if isinstance(name, str) and isinstance(dur, (int, float)):
            groups.setdefault(name, []).append(float(dur))
    return groups


#: latency-histogram bucket upper bounds (ms); mirrors the shape of
#: the in-process DEFAULT_BUCKETS but in the units spans record
_SPAN_BUCKETS_MS = (
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
    1000.0, 5000.0, 15000.0, 60000.0,
)


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile over an already-sorted sample."""
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered))))
    return ordered[rank]


def _fmt_ms(value: float) -> str:
    if value >= 1000.0:
        return f"{value / 1000.0:.2g}s"
    return f"{value:g}ms"


def _telemetry_section(groups: Dict[str, List[float]]) -> str:
    if not groups:
        return (
            '<section class="card"><h2>Latency</h2>'
            "<p>No span telemetry recorded (run with telemetry "
            "enabled and a result cache: spans land in "
            "<code>telemetry/spans.jsonl</code> beside it).</p>"
            "</section>"
        )
    labels = [
        f"&le;{_fmt_ms(b)}" for b in _SPAN_BUCKETS_MS
    ] + [f"&gt;{_fmt_ms(_SPAN_BUCKETS_MS[-1])}"]
    panels = []
    for name in sorted(groups):
        durations = sorted(groups[name])
        counts: List[Optional[float]] = [0.0] * (
            len(_SPAN_BUCKETS_MS) + 1
        )
        for dur in durations:
            for i, bound in enumerate(_SPAN_BUCKETS_MS):
                if dur <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        stats = "  ".join(
            f"p{int(q * 100)}={_fmt_ms(_quantile(durations, q))}"
            for q in (0.5, 0.9, 0.99)
        )
        panels.append(
            f"<h3>{_esc(name)} "
            f'<span class="muted">n={len(durations)}, '
            f"{_esc(stats)}</span></h3>"
            + bar_chart_svg(labels, [("spans", counts)])
        )
    return (
        '<section class="card"><h2>Latency</h2>'
        "<p>Span-duration histograms from the telemetry trace log "
        "(one panel per instrumented operation).</p>"
        + "".join(panels)
        + "</section>"
    )


# -- bench section -----------------------------------------------------


def load_bench(bench_dir) -> Dict[str, List[Dict[str, Any]]]:
    """``BENCH_*.json`` records grouped by bench name, time-ordered."""
    groups: Dict[str, List[Dict[str, Any]]] = {}
    directory = Path(bench_dir)
    if not directory.is_dir():
        return groups
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if record.get("schema") != "ltp-repro-bench/1":
            continue
        groups.setdefault(record.get("name", path.stem), []).append(
            record
        )
    for records in groups.values():
        records.sort(key=lambda r: r.get("timestamp", 0.0))
    return groups


def _bench_section(
    groups: Dict[str, List[Dict[str, Any]]],
) -> str:
    if not groups:
        return (
            '<section class="card"><h2>Benchmark trends</h2>'
            "<p>No <code>BENCH_*.json</code> records found.</p>"
            "</section>"
        )
    charts = []
    for name in sorted(groups):
        records = groups[name]
        xs = [r.get("timestamp", 0.0) for r in records]
        means = [r.get("stats_s", {}).get("mean") for r in records]
        chart = line_chart_svg(
            xs,
            [(name, means)],
            x_labels=[_fmt_ts(x) for x in xs],
        )
        rows = "".join(
            "<tr>"
            f"<td>{_fmt_ts(r.get('timestamp'))}</td>"
            f'<td class="num">'
            f"{_fmt_num(r.get('stats_s', {}).get('mean'))}</td>"
            f'<td class="num">'
            f"{_fmt_num(r.get('stats_s', {}).get('stddev'))}</td>"
            f'<td class="num">{_esc(r.get("rounds", "-"))}</td>'
            "</tr>"
            for r in records
        )
        charts.append(
            f"<h3>{_esc(name)} — mean seconds per round</h3>"
            f"{chart}"
            "<table><thead><tr><th>when</th>"
            '<th class="num">mean (s)</th>'
            '<th class="num">stddev (s)</th>'
            '<th class="num">rounds</th></tr></thead>'
            f"<tbody>{rows}</tbody></table>"
        )
    return (
        '<section class="card"><h2>Benchmark trends</h2>'
        f'{"".join(charts)}</section>'
    )


# -- discovery campaigns -----------------------------------------------


def load_campaigns(cache_root) -> List[Dict[str, Any]]:
    """Every campaign state file under ``<cache-root>/campaigns``,
    sorted by name. Unreadable files are skipped — the report renders
    what it can."""
    states = []
    campaigns_dir = Path(cache_root) / "campaigns"
    if not campaigns_dir.is_dir():
        return states
    for path in sorted(campaigns_dir.glob("*.json")):
        try:
            state = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(state, dict) and "explored" in state:
            states.append(state)
    return states


def _campaign_scatter(state: Dict[str, Any]) -> str:
    """Explored-point scatter: the scored metric over the campaign's
    exploration sequence, discoveries as status markers."""
    explored = state.get("explored", [])
    metric_names = [
        name
        for outcome in explored
        for name in (outcome.get("metrics") or {})
    ]
    metric = metric_names[0] if metric_names else None
    xs = [float(i + 1) for i in range(len(explored))]
    ys: List[Optional[float]] = []
    markers = []
    for i, outcome in enumerate(explored):
        if metric is not None:
            value = (outcome.get("metrics") or {}).get(metric)
        else:
            # identity-only metric: plot the verdict itself
            value = 1.0 if outcome.get("interesting") else 0.0
        ys.append(value)
        if outcome.get("interesting") and value is not None:
            point = outcome.get("point", {})
            label = "/".join(
                str(point[k])
                for k in ("workload", "policy")
                if k in point
            )
            markers.append(
                (xs[i], float(value), STATUS_CRITICAL, label)
            )
    label_idx = {0, len(xs) - 1} if xs else set()
    x_labels = [
        str(int(x)) if i in label_idx else ""
        for i, x in enumerate(xs)
    ]
    chart = line_chart_svg(
        xs,
        [(metric or "interesting", ys)],
        x_labels=x_labels,
        markers=markers,
    )
    return (
        f'<figure>{chart}<figcaption>{_esc(metric or "verdict")} '
        "over the explored sequence; markers are discoveries"
        "</figcaption></figure>"
    )


def _campaign_table(state: Dict[str, Any]) -> str:
    found = [
        o for o in state.get("explored", []) if o.get("interesting")
    ]
    if not found:
        return "<p>No discoveries yet.</p>"
    fields: List[str] = []
    for outcome in found:
        for name in outcome.get("point", {}):
            if name not in fields:
                fields.append(name)
    metric_names: List[str] = []
    for outcome in found:
        for name in outcome.get("metrics") or {}:
            if name not in metric_names:
                metric_names.append(name)
    head = "".join(
        f"<th>{_esc(name)}</th>" for name in fields
    ) + "".join(
        f'<th class="num">{_esc(name)}</th>' for name in metric_names
    ) + "<th>digest</th>"
    body = []
    for outcome in found:
        point = outcome.get("point", {})
        metrics = outcome.get("metrics") or {}
        cells = [
            f"<td>{_esc(point.get(name, '-'))}</td>"
            for name in fields
        ]
        cells.extend(
            f'<td class="num">{_fmt_num(metrics.get(name))}</td>'
            for name in metric_names
        )
        digest = outcome.get("digest") or "-"
        cells.append(f"<td><code>{_esc(str(digest)[:12])}</code></td>")
        body.append(f'<tr>{"".join(cells)}</tr>')
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f'<tbody>{"".join(body)}</tbody></table>'
    )


def _campaign_section(states: List[Dict[str, Any]]) -> str:
    """The Discoveries card: one block per campaign state file."""
    if not states:
        return ""
    blocks = []
    for state in states:
        explored = state.get("explored", [])
        found = [o for o in explored if o.get("interesting")]
        metric = " AND ".join(state.get("metric", []))
        blocks.append(
            f"<h3>{_esc(state.get('name', '?'))}</h3>"
            f"<p>seed {_esc(state.get('seed'))}, "
            f"budget {_esc(state.get('budget'))}, "
            f"{len(explored)} point(s) explored, "
            f"{len(found)} discovery(ies) where "
            f"<code>{_esc(metric)}</code> "
            f"(stopped: {_esc(state.get('stop_reason', '?'))})</p>"
            + _campaign_table(state)
            + _campaign_scatter(state)
        )
    return (
        '<section class="card" id="discoveries">'
        "<h2>Discoveries</h2>"
        "<p>Budgeted campaign search over the parameter space "
        "(<code>ltp-repro campaign run</code>); points satisfying a "
        "campaign's interestingness predicate are tagged in the "
        "index and listed here.</p>"
        + "".join(blocks)
        + "</section>"
    )


# -- the site ----------------------------------------------------------


def generate_report(
    cache,
    out_dir,
    bench_dir=None,
    now: Optional[float] = None,
) -> Path:
    """Write the static site; returns the ``index.html`` path.

    ``cache`` is a :class:`~repro.runner.cache.ResultCache`; the
    report reads only its sqlite index and the observability files —
    never the pickled blobs.
    """
    now = time.time() if now is None else now
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = cache.index if cache.index is not None else ResultIndex(
        cache.root
    )
    if index.exists():
        # refresh experiment membership for rows published since the
        # last reindex (grid enumeration only — no simulation)
        from repro.store.query import tag_experiments

        tag_experiments(index)
    rows = index.select("", ())
    footer = (
        f"generated {_fmt_ts(now)} UTC from "
        f"{cache.root} ({len(rows)} indexed result(s))"
    )
    by_experiment: Dict[str, List[Dict[str, Any]]] = {}
    untagged = 0
    for row in rows:
        if not row["experiments"]:
            untagged += 1
        for name in row["experiments"]:
            by_experiment.setdefault(name, []).append(row)
    experiment_cards = []
    for name in sorted(by_experiment):
        exp_rows = by_experiment[name]
        page_name = f"experiment-{name}.html"
        (out / page_name).write_text(
            _experiment_page(name, exp_rows, footer),
            encoding="utf-8",
        )
        workloads = sorted(
            {r.get("workload") for r in exp_rows if r.get("workload")}
        )
        experiment_cards.append(
            "<tr>"
            f'<td><a href="{page_name}">{_esc(name)}</a></td>'
            f'<td class="num">{len(exp_rows)}</td>'
            f"<td>{_esc(', '.join(workloads))}</td>"
            "</tr>"
        )
    if experiment_cards:
        experiments_html = (
            '<section class="card" id="experiments">'
            "<h2>Experiments</h2>"
            "<table><thead><tr><th>experiment</th>"
            '<th class="num">results</th>'
            "<th>workloads</th></tr></thead>"
            f'<tbody>{"".join(experiment_cards)}</tbody></table>'
            + (
                f"<p>{untagged} result(s) not matching any known "
                "experiment grid (ad-hoc specs or stale salts).</p>"
                if untagged else ""
            )
            + "</section>"
        )
    else:
        experiments_html = (
            '<section class="card" id="experiments">'
            "<h2>Experiments</h2>"
            "<p>No indexed experiment results. Populate the cache "
            "(<code>ltp-repro run-all</code>) or rebuild the index "
            "(<code>ltp-repro cache reindex</code>).</p></section>"
        )
    campaigns_html = _campaign_section(load_campaigns(cache.root))
    fleet_html = _fleet_section(load_fleet(cache.root, rows))
    latency_html = _telemetry_section(
        load_span_durations(cache.root)
    )
    bench_html = _bench_section(
        load_bench(bench_dir) if bench_dir else {}
    )
    body = (
        experiments_html + campaigns_html + fleet_html
        + latency_html + bench_html
    )
    index_path = out / "index.html"
    index_path.write_text(
        _page(
            "LTP repro results",
            "result store, fleet activity, and benchmark trends",
            body,
            footer,
        ),
        encoding="utf-8",
    )
    return index_path
