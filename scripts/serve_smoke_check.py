"""CI guard: the serve/submit path must match the inline backend.

End-to-end, through the real CLI entry points:

1. resolve a small grid with the inline backend (the golden bytes);
2. start ``ltp-repro serve`` as a subprocess (autoscaling from zero,
   free port, fresh cache, wire auth enabled) and parse the announced
   address;
3. assert a wrong-token ``ltp-repro submit`` is rejected before any
   dispatch (the broker admits nothing and counts an auth failure);
4. run two *concurrent* authenticated ``ltp-repro submit`` clients —
   one grid per tenant — then a third warm submission that must be
   served entirely from the service's cache, exercising the
   cross-grid amortization serve mode exists for;
5. poll the service's observability endpoint (``--metrics-port 0``)
   throughout: ``/healthz`` must expose a frame taken *mid-drain*
   (a worker draining, or the drain counted while work is still
   queued), and a live ``/metrics`` scrape must show tenant/lease
   counters consistent with the exit summary the service prints;
6. assert every report the service published is byte-identical to the
   golden bytes, that the autoscaler scaled up from zero, and that it
   scaled *down* mid-queue by draining a worker (protocol v3: the
   ``fleet_events.jsonl`` log records a ``down`` with a non-empty
   queue, and the serve summary counts at least one drain), and that
   no ``*.claim`` or ``*.done`` coordination file landed in the cache;
7. run ``report --html`` against the smoke cache and assert the
   rendered site covers the fleet's scale-up, the per-holder
   throughput table (from the index) and the submitted experiments
   (CI uploads the site directory as an artifact).

Run as ``PYTHONPATH=src python scripts/serve_smoke_check.py [DIR]``;
exits non-zero on any divergence.
"""

import json
import pickle
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.experiments.cli import main as cli_main
from repro.runner import PolicySpec, ResultCache, Runner, timing_job
from repro.telemetry.top import metric_total, parse_prometheus

SIZE = "tiny"
#: one grid per tenant — distinct workloads so the two concurrent
#: submissions admit disjoint spec sets into the shared lease table
WORKLOADS = ("em3d", "tomcatv")
AUTH_TOKEN = "serve-smoke-token"


def _grid(workload):
    # table4's slice for one workload: small, deterministic,
    # multi-policy
    return [
        timing_job(workload, SIZE, PolicySpec(name=name))
        for name in ("base", "dsi", "ltp")
    ]


def _start_serve(cache_dir: Path):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--cache-dir", str(cache_dir),
            "--max-workers", "2",
            # 3 specs/worker means the controller wants a single
            # worker as soon as the 6-spec tenant wave is half done —
            # a wide window for the mid-queue scale-down this script
            # asserts on (retirement drains, so nothing strands)
            "--specs-per-worker", "3",
            "--cooldown", "0.2",
            "--scale-interval", "0.05",
            "--lease-ttl", "10",
            "--grids", "3",
            "--auth-token", AUTH_TOKEN,
            "--metrics-port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines = []

    def pump():
        for line in proc.stdout:
            lines.append(line.rstrip())

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    deadline = time.time() + 60
    while time.time() < deadline:
        for line in lines:
            match = re.search(r"listening on (\S+)", line)
            if match:
                return proc, match.group(1), lines
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    proc.kill()
    raise AssertionError(
        "serve never announced an address:\n" + "\n".join(lines)
    )


def _wait_for_metrics(proc, lines, timeout=60):
    """The metrics line prints right after the listen line."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        for line in lines:
            match = re.search(r"metrics on (http://\S+)/metrics", line)
            if match:
                return match.group(1)
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    raise AssertionError(
        "serve never announced a metrics endpoint:\n" + "\n".join(lines)
    )


def _fetch(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return resp.read().decode("utf-8")


def _submit(address, workload, token):
    return cli_main([
        "submit", "table4",
        "--size", SIZE, "--workloads", workload,
        "--connect", address,
        "--timeout", "240",
        "--auth-token", token,
    ])


def main(argv) -> int:
    if argv:
        work_dir = Path(argv[0])
        work_dir.mkdir(parents=True, exist_ok=True)
        context = None
    else:
        context = tempfile.TemporaryDirectory()
        work_dir = Path(context.name)
    cache_dir = work_dir / "serve-cache"
    try:
        golden = {
            spec: pickle.dumps(
                value, protocol=pickle.HIGHEST_PROTOCOL
            )
            for workload in WORKLOADS
            for spec, value in Runner().run(_grid(workload)).items()
        }

        proc, address, lines = _start_serve(cache_dir)
        health_frames = []
        stop_polling = threading.Event()
        try:
            metrics_base = _wait_for_metrics(proc, lines)

            # wrong token: rejected during the HMAC handshake, before
            # the submit frame is ever dispatched — and it must not
            # consume one of the service's --grids slots
            rc = _submit(address, WORKLOADS[0], "not-the-token")
            assert rc != 0, (
                "wrong-token submit was accepted by an authenticated "
                "broker"
            )

            # two tenants submit concurrently; the fair-share broker
            # serves both grids from the same autoscaled fleet —
            # while a background poller watches /healthz the way an
            # external monitor would, from first submit all the way
            # through the service's own shutdown drain
            def poll_health():
                while not stop_polling.is_set():
                    try:
                        health_frames.append(
                            json.loads(_fetch(metrics_base, "/healthz"))
                        )
                    except Exception:
                        # endpoint not up yet / torn down at exit
                        pass
                    stop_polling.wait(0.005)

            poller = threading.Thread(target=poll_health, daemon=True)
            poller.start()
            codes = {}
            tenants = [
                threading.Thread(
                    target=lambda w=w: codes.__setitem__(
                        w, _submit(address, w, AUTH_TOKEN)
                    ),
                )
                for w in WORKLOADS
            ]
            for t in tenants:
                t.start()
            for t in tenants:
                t.join()
            for workload, rc in codes.items():
                assert rc == 0, f"{workload} submit exited {rc}"

            # a live scrape, while the service still runs: the two
            # tenant grids' traffic must already be on the wire
            specs_total = sum(len(_grid(w)) for w in WORKLOADS)
            health = json.loads(_fetch(metrics_base, "/healthz"))
            assert health["fleet"]["policy"], (
                "fleet section missing from /healthz"
            )
            scraped_drains = health["stats"]["drains"]
            scraped_auth = health["stats"]["auth_failures"]
            assert scraped_drains >= 1, "drain missing from /healthz"
            assert scraped_auth >= 1, (
                "auth failure missing from /healthz"
            )
            samples = parse_prometheus(_fetch(metrics_base, "/metrics"))
            assert metric_total(
                samples, "repro_broker_results_total", outcome="first"
            ) >= specs_total
            assert metric_total(
                samples, "repro_broker_leases_total"
            ) >= specs_total
            assert metric_total(
                samples, "repro_broker_auth_failures_total"
            ) == scraped_auth
            assert metric_total(
                samples,
                "repro_broker_lease_to_publish_seconds_count",
            ) >= specs_total

            # warm: served entirely from the service's cache
            rc = _submit(address, WORKLOADS[0], AUTH_TOKEN)
            assert rc == 0, f"warm submit exited {rc}"
            proc.wait(timeout=60)  # --grids 3 ends the service
            assert proc.returncode == 0, (
                f"serve exited {proc.returncode}:\n"
                + "\n".join(lines)
            )
            stop_polling.set()
            poller.join(timeout=5)

            # the drain phases were observable over HTTP while in
            # flight: a worker mid drain-handshake, the drain counted
            # with work still outstanding, or the service's own
            # shutdown drain (``closing`` stays scrapeable until the
            # fleet has wound down)
            mid_drain = [
                doc for doc in health_frames
                if any(
                    w.get("draining")
                    for w in doc.get("workers", {}).values()
                )
                or doc.get("closing")
                or (
                    doc.get("stats", {}).get("drains", 0) > 0
                    and doc.get("queue_depth", 0) + doc.get("leased", 0)
                    > 0
                )
            ]
            assert mid_drain, (
                f"no mid-drain /healthz frame in "
                f"{len(health_frames)} polled frame(s)"
            )
        finally:
            stop_polling.set()
            if proc.poll() is None:
                proc.kill()

        # byte-identity: what the service published vs inline golden
        cache = ResultCache(cache_dir)
        for spec, raw in golden.items():
            hit, value = cache.get(spec)
            assert hit, (
                f"{spec.label()} missing from the serve cache"
            )
            got = pickle.dumps(
                value, protocol=pickle.HIGHEST_PROTOCOL
            )
            assert got == raw, (
                f"{spec.label()} diverged from the inline backend"
            )

        # the broker counted the rejected client, and retirement went
        # through the drain handshake (summary prints only when the
        # counters are non-zero)
        summary = [line for line in lines if "auth failure" in line]
        assert summary, (
            "serve summary recorded no auth failures:\n"
            + "\n".join(lines)
        )
        summary_drains = int(
            re.search(r"(\d+) drain", summary[0]).group(1)
        )
        summary_auth = int(
            re.search(r"(\d+) auth failure", summary[0]).group(1)
        )
        assert summary_drains >= 1, (
            f"no worker was drained: {summary[0]}"
        )
        # the live scrape and the exit summary told the same story:
        # no auth failure happened after the scrape (the warm grid
        # authenticates), and drains only accumulate
        assert summary_auth == scraped_auth, (
            f"scraped {scraped_auth} auth failure(s), summary says "
            f"{summary_auth}"
        )
        assert summary_drains >= scraped_drains, (
            f"scraped {scraped_drains} drain(s), summary says "
            f"{summary_drains}"
        )

        # the autoscaler did its job, in both directions: a scale-up
        # from zero, and a mid-queue scale-down (allowed since
        # protocol v3 — retirement drains instead of terminating)
        from repro.telemetry import read_jsonl

        events = list(
            read_jsonl(cache_dir / "claims" / "fleet_events.jsonl")
        )
        ups = [e for e in events if e["action"] == "up"]
        assert ups, f"no scale-up event recorded: {events}"
        assert ups[0]["live"] == 0, (
            f"first scale-up did not start from zero: {ups[0]}"
        )
        downs = [e for e in events if e["action"] == "down"]
        assert downs, f"no scale-down event recorded: {events}"
        mid_queue_downs = [
            e for e in downs if e["queue_depth"] > 0
        ]
        assert mid_queue_downs, (
            f"every scale-down waited for an empty queue: {downs}"
        )
        # the broker is the only coordinator: nothing wrote per-spec
        # claim files or per-worker counter files into the cache
        strays = sorted(
            str(path.relative_to(cache_dir))
            for pattern in ("*.claim", "*.done")
            for path in cache_dir.rglob(pattern)
        )
        assert not strays, f"coordination files in the cache: {strays}"

        # the reporting pipeline runs against the same cache: the
        # smoke fleet's published results + scaling events must
        # render as a self-contained static site (uploaded as a CI
        # artifact by the serve-smoke job)
        site_dir = work_dir / "site"
        rc = cli_main([
            "report", "--html", str(site_dir),
            "--cache-dir", str(cache_dir),
        ])
        assert rc == 0, f"report --html exited {rc}"
        index_html = (site_dir / "index.html").read_text()
        assert "Fleet" in index_html, "fleet section missing"
        assert ">up<" in index_html or ">up" in index_html, (
            "scale-up event missing from the rendered timeline"
        )
        assert "Per-holder throughput" in index_html, (
            "per-holder throughput missing: the broker's publishes "
            "should carry worker holders into the index"
        )
        experiment_pages = list(site_dir.glob("experiment-*.html"))
        assert experiment_pages, (
            "no experiment page rendered from the smoke grid"
        )
    finally:
        if context is not None:
            context.cleanup()
    print(
        "serve smoke OK: 2 concurrent tenants + 1 warm grid "
        "byte-identical to the inline backend, wrong-token client "
        f"rejected, fleet scaled up from zero ({len(ups)} up "
        f"event(s)) and drained down mid-queue "
        f"({len(mid_queue_downs)} of {len(downs)} down event(s)), "
        f"drain observed live over /healthz ({len(mid_drain)} "
        f"frame(s)), /metrics scrape consistent with the exit "
        f"summary, report site rendered "
        f"({1 + len(experiment_pages)} page(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
