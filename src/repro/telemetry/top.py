"""``repro top``: a live terminal view over the scrape endpoint.

This is the reference *consumer* of the observability surface: it
polls ``GET /healthz`` (the JSON health document) and ``GET
/metrics`` (Prometheus text) of a ``repro serve --metrics-port``
broker and renders one screen per interval — queue and fleet state up
top, lease-to-publish latency percentiles computed from the histogram
buckets, then a per-worker table (liveness, held leases, heartbeat
round-trip, executed counts and their rate since the previous poll)
and the per-grid backlog.

Everything here works from the two HTTP documents alone — no broker
import, no shared state — so ``top`` can watch a service on another
host, and the module doubles as the in-tree example of how to consume
the endpoint from outside the codebase. The Prometheus parser below
accepts anything :func:`repro.telemetry.exposition.render_prometheus`
emits (the 0.0.4 text format).
"""

from __future__ import annotations

import json
import math
import re
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Tuple

#: one parsed sample: (sorted (label, value) pairs, sample value)
Sample = Tuple[Tuple[Tuple[str, str], ...], float]

_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')

_UNESCAPE = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


def _unescape(value: str) -> str:
    return re.sub(
        r'\\\\|\\"|\\n', lambda m: _UNESCAPE[m.group(0)], value
    )


def parse_prometheus(text: str) -> Dict[str, List[Sample]]:
    """Parse 0.0.4 exposition text into ``name -> samples``.

    Tolerant by design: comment/TYPE lines are skipped, malformed
    lines are dropped rather than raised on — a half-written scrape
    should degrade the display, not crash it.
    """
    out: Dict[str, List[Sample]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ident, _, raw = line.rpartition(" ")
        if not ident:
            continue
        try:
            value = float(raw)
        except ValueError:
            continue
        name, brace, rest = ident.partition("{")
        labels: Tuple[Tuple[str, str], ...] = ()
        if brace:
            labels = tuple(sorted(
                (key, _unescape(val))
                for key, val in _LABEL_RE.findall(rest)
            ))
        out.setdefault(name, []).append((labels, value))
    return out


def metric_total(
    samples: Dict[str, List[Sample]],
    name: str,
    **match: str,
) -> float:
    """Sum a metric's samples, optionally filtered by label values."""
    want = set(match.items())
    return sum(
        value
        for labels, value in samples.get(name, ())
        if want <= set(labels)
    )


def histogram_quantile(
    samples: Dict[str, List[Sample]],
    name: str,
    q: float,
) -> Optional[float]:
    """A quantile estimate from ``<name>_bucket`` cumulative counts.

    Returns the upper bound of the first bucket covering the ``q``
    rank, or ``None`` when the histogram has no observations. Buckets
    from multiple label sets (e.g. several workers) are merged first.
    """
    merged: Dict[float, float] = {}
    for labels, value in samples.get(name + "_bucket", ()):
        le = dict(labels).get("le")
        if le is None:
            continue
        bound = math.inf if le == "+Inf" else float(le)
        merged[bound] = merged.get(bound, 0.0) + value
    if not merged:
        return None
    total = merged.get(math.inf, 0.0)
    if total <= 0:
        return None
    target = q * total
    for bound in sorted(merged):
        if merged[bound] >= target:
            return bound
    return math.inf


def scrape(
    base_url: str, timeout: float = 5.0
) -> Tuple[dict, Dict[str, List[Sample]]]:
    """Fetch and parse ``/healthz`` and ``/metrics`` from one server."""
    base = base_url.rstrip("/")
    with urllib.request.urlopen(
        base + "/healthz", timeout=timeout
    ) as resp:
        health = json.loads(resp.read().decode("utf-8"))
    with urllib.request.urlopen(
        base + "/metrics", timeout=timeout
    ) as resp:
        metrics = parse_prometheus(resp.read().decode("utf-8"))
    return health, metrics


# -- rendering ---------------------------------------------------------


def _fmt_secs(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == math.inf:
        return ">60s"
    if value < 1.0:
        return f"{value * 1000:.0f}ms"
    return f"{value:.2f}s"


def _fmt_rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}/min"


def render_screen(
    health: dict,
    metrics: Dict[str, List[Sample]],
    previous: Optional[Dict[str, List[Sample]]] = None,
    elapsed: Optional[float] = None,
) -> str:
    """One ``top`` frame as plain text (no terminal control codes).

    ``previous``/``elapsed`` — the prior poll's samples and the
    seconds since — turn cumulative counters into rates; the first
    frame shows totals only.
    """
    fleet = health.get("fleet", {})
    stats = health.get("stats", {})
    lines: List[str] = []

    def rate(name: str, **match: str) -> Optional[float]:
        if previous is None or not elapsed:
            return None
        delta = (
            metric_total(metrics, name, **match)
            - metric_total(previous, name, **match)
        )
        return max(0.0, delta) * 60.0 / elapsed

    state = "closing" if health.get("closing") else "serving"
    if fleet.get("halted"):
        state += " [WORKER POOL HALTED]"
    lines.append(
        f"broker: {state}  queue={health.get('queue_depth', 0)} "
        f"leased={health.get('leased', 0)} "
        f"workers={health.get('live_workers', 0)} live / "
        f"{fleet.get('desired', 0)} desired"
    )
    lines.append(
        f"fleet:  spawned={fleet.get('spawned', 0)}"
        f"  results={rate('repro_broker_results_total') or 0:.1f}/min"
    )
    lat = "lease->publish: " + "  ".join(
        f"p{int(q * 100)}={_fmt_secs(histogram_quantile(metrics, 'repro_broker_lease_to_publish_seconds', q))}"
        for q in (0.5, 0.9, 0.99)
    )
    lines.append(
        lat + f"  (n={metric_total(metrics, 'repro_broker_lease_to_publish_seconds_count'):.0f})"
    )
    lines.append("")
    workers = health.get("workers", {})
    if workers:
        lines.append(
            f"{'WORKER':<24} {'STATE':<9} {'KEYS':>4} {'AGE':>6} "
            f"{'RTT':>7} {'OK':>6} {'FAIL':>5} {'RATE':>9}"
        )
        for name in sorted(workers):
            info = workers[name]
            wstate = "live" if info.get("live") else "stale"
            ok = metric_total(
                metrics, "repro_worker_executed_total",
                worker=name, outcome="ok",
            )
            failed = metric_total(
                metrics, "repro_worker_executed_total",
                worker=name, outcome="failed",
            )
            lines.append(
                f"{name:<24} {wstate:<9} "
                f"{info.get('keys', 0):>4} "
                f"{info.get('age_s', 0.0):>5.1f}s "
                f"{_fmt_secs(info.get('rtt_s')):>7} "
                f"{ok:>6.0f} {failed:>5.0f} "
                f"{_fmt_rate(rate('repro_worker_executed_total', worker=name)):>9}"
            )
    else:
        lines.append("(no workers have heartbeat yet)")
    grids = health.get("grids_pending", {})
    if grids:
        lines.append("")
        lines.append("PENDING GRIDS")
        for gid in sorted(grids):
            lines.append(f"  {gid}: {grids[gid]} spec(s) outstanding")
    lines.append("")
    lines.append(
        f"totals: {stats.get('results', 0)} results "
        f"({stats.get('duplicates', 0)} dup), "
        f"{stats.get('grids_done', 0)} grids done, "
        f"{stats.get('auth_failures', 0)} auth failures"
    )
    return "\n".join(lines)


def run_top(
    base_url: str,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    clear: bool = True,
    out: Callable[[str], None] = print,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll and render until ``iterations`` frames (None = forever).

    Returns 0, or 1 when the very first scrape fails (the address is
    wrong / the service is down); later scrape failures render an
    error frame and keep polling, because a service mid-restart is
    exactly when an operator is watching.
    """
    previous: Optional[Dict[str, List[Sample]]] = None
    prev_at: Optional[float] = None
    shown = 0
    while iterations is None or shown < iterations:
        try:
            health, metrics = scrape(base_url)
        except (OSError, ValueError, urllib.error.URLError) as exc:
            if shown == 0:
                out(f"top: cannot scrape {base_url}: {exc}")
                return 1
            frame = f"top: scrape failed ({exc}); retrying..."
            health = metrics = None  # type: ignore[assignment]
        now = time.monotonic()
        if metrics is not None:
            frame = render_screen(
                health,
                metrics,
                previous,
                None if prev_at is None else now - prev_at,
            )
            previous, prev_at = metrics, now
        if clear:
            out("\x1b[2J\x1b[H" + frame)
        else:
            out(frame)
        shown += 1
        if iterations is None or shown < iterations:
            sleep(interval)
    return 0
