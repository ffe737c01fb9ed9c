"""Command-line entry point: regenerate any table or figure.

Examples::

    ltp-repro fig6
    ltp-repro fig9 --size small --workloads em3d tomcatv
    ltp-repro all --size tiny
    ltp-repro run-all --size small --jobs 8 --cache-dir .repro-cache
    ltp-repro run-all --backend remote --listen 0.0.0.0:7463 \
        --remote-workers 0            # broker; attach workers below
    ltp-repro worker --connect broker-host:7463
    ltp-repro serve --listen 0.0.0.0:7463 --jobs 4
    ltp-repro submit fig9 --size small --connect serve-host:7463
    ltp-repro run-all --attach serve-host:7463   # whole grid, served
    ltp-repro cache stats --watch 2
    ltp-repro cache prune --max-age 7d --max-bytes 500M
    python -m repro.experiments.cli table3

Every experiment subcommand accepts ``--jobs N`` (worker processes)
and ``--cache-dir PATH`` (content-addressed result cache); ``run-all``
executes the entire paper grid through one shared runner so the
overlapping simulations across experiments run exactly once and repeat
invocations are served from the cache. ``run-all`` selects an
execution backend (``--backend inline|pool|remote``, auto by
default): ``--backend remote`` starts a TCP broker
(:mod:`repro.runner.remote`) that leases specs to ``ltp-repro worker
--connect`` processes — no shared filesystem required. ``run-all``
defaults to persisting built workload traces under
``<cache-dir>/traces`` so repeat runs skip ``ProgramSet`` synthesis.

``serve`` keeps one broker alive *across* grids with a fixed pool of
``--jobs N`` supervised local workers (:mod:`repro.fleet`): ``submit``
(or ``run-all --attach``) enqueues an experiment's JobSpecs into the
live lease table and streams the reports back — repeats arrive
straight from the service's result cache, cold specs run on the pool,
and a worker that exits is replaced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro._version import __version__
from repro.experiments import EXPERIMENTS, report
from repro.fleet import CLAIMS_DIRNAME, FLEET_STATUS_NAME, FleetService
from repro.runner import (
    GridClient,
    ResultCache,
    Runner,
    prune_files,
)
from repro.runner.backends import InlineBackend, PoolBackend
from repro.runner.remote import (
    AUTH_TOKEN_ENV,
    DEFAULT_LEASE_TTL,
    ProtocolError,
    RemoteBackend,
    RemoteExecutionError,
    run_worker,
)
from repro.timing.config import SystemConfig
from repro.trace.scheduler import interleave
from repro.trace.stats import collect_stream_stats
from repro.workloads import SIZES, WORKLOAD_NAMES, TraceCache, get_workload

#: default on-disk cache location for ``run-all``
DEFAULT_CACHE_DIR = ".repro-cache"


def _render_config() -> str:
    cfg = SystemConfig()
    lines = [
        "Table 1 — system configuration",
        f"  nodes                  {cfg.num_nodes}",
        f"  block size             {cfg.block_size} bytes",
        f"  network latency        {cfg.network_latency} cycles",
        f"  memory service         {cfg.memory_service_time} cycles",
        f"  clean miss round trip  {cfg.clean_miss_round_trip} cycles",
        f"  remote-to-local ratio  "
        f"{cfg.clean_miss_round_trip / cfg.memory_service_time:.1f}",
    ]
    return "\n".join(lines)


def _render_workloads(size: str) -> str:
    lines = [f"Table 2 — workloads at size={size!r}"]
    for name in WORKLOAD_NAMES:
        workload = get_workload(name, size)
        programs = workload.build()
        stats = collect_stream_stats(interleave(programs))
        lines.append(
            f"  {name:<13} nodes={programs.num_nodes:<3} "
            f"accesses={stats.accesses:<9,} "
            f"blocks={len(stats.blocks):<6} "
            f"actively shared={stats.actively_shared_blocks():<6} "
            f"writes={stats.write_fraction:5.1%}"
        )
    return "\n".join(lines)


def _add_runner_args(p: argparse.ArgumentParser, cache_default=None):
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation jobs (default: 1)",
    )
    p.add_argument(
        "--cache-dir", metavar="PATH", default=cache_default,
        help="content-addressed result cache directory"
             + (f" (default: {cache_default})" if cache_default else ""),
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if --cache-dir is set",
    )
    p.add_argument(
        "--trace-cache", metavar="PATH", default=None,
        help="persistent ProgramSet build cache directory "
             "(run-all defaults to <cache-dir>/traces)",
    )


def _add_auth_token_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--auth-token", metavar="TOKEN",
        default=os.environ.get(AUTH_TOKEN_ENV),
        help="shared wire-auth secret (protocol v3 HMAC handshake); "
             f"defaults to ${AUTH_TOKEN_ENV}. On `serve` it makes "
             "the broker reject unauthenticated peers; on clients "
             "and workers it authenticates the connection",
    )


#: run-all execution backend choices (auto = derive from --jobs)
BACKEND_CHOICES = ("auto", "inline", "pool", "remote")


def _parse_address(text: str):
    """'host:port' (or ':port' / 'port' for localhost) -> (host, port)."""
    host, _, port = text.strip().rpartition(":")
    host = host or "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid address {text!r}; use HOST:PORT, e.g. "
            "127.0.0.1:7463 (port 0 picks a free one)"
        )


def _parse_age(text: str) -> float:
    """'90', '90s', '30m', '36h', '7d' -> seconds (finite, >= 0)."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    text = text.strip().lower()
    factor = units.get(text[-1:], None)
    if factor is not None:
        text = text[:-1]
    try:
        value = float(text) * (factor or 1.0)
    except ValueError:
        value = math.nan
    # NaN fails both comparisons, so it is rejected with the rest
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"invalid age {text!r}; use e.g. 90s, 30m, 36h, 7d"
        )
    return value


def _parse_bytes(text: str) -> float:
    """'1048576', '500K', '500M', '2G' -> bytes (finite, >= 0)."""
    units = {"k": 2**10, "m": 2**20, "g": 2**30, "t": 2**40}
    text = text.strip().lower().rstrip("ib")
    factor = units.get(text[-1:], None)
    if factor is not None:
        text = text[:-1]
    try:
        value = float(text) * (factor or 1)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}; use e.g. 1048576, 500M, 2G"
        )
    return value


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover


def _fmt_age(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltp-repro",
        description=(
            "Reproduce the tables and figures of Lai & Falsafi, "
            "'Selective, Accurate, and Timely Self-Invalidation Using "
            "Last-Touch Prediction' (ISCA 2000)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*EXPERIMENTS, "all"):
        p = sub.add_parser(name, help=f"run {name}")
        p.add_argument("--size", choices=SIZES, default="small")
        p.add_argument(
            "--workloads", nargs="+", choices=WORKLOAD_NAMES, default=None
        )
        # a file holds one experiment's rows, so `all` exports none;
        # `query --format csv|json` exports any set of indexed results
        for fmt in () if name == "all" else ("csv", "json"):
            p.add_argument(
                f"--{fmt}", metavar="PATH", default=None,
                help=f"also write flattened rows as {fmt.upper()}",
            )
        _add_runner_args(p)
    p = sub.add_parser(
        "run-all",
        help="execute the whole paper grid once, in parallel, cached",
    )
    p.add_argument("--size", choices=SIZES, default="small")
    p.add_argument(
        "--workloads", nargs="+", choices=WORKLOAD_NAMES, default=None
    )
    p.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="execution backend (default: auto — pool if --jobs > 1, "
             "else inline)",
    )
    p.add_argument(
        "--listen", type=_parse_address, default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="remote backend: broker bind address (default "
             "127.0.0.1:0 — a free port, printed at startup)",
    )
    p.add_argument(
        "--remote-workers", type=int, default=None, metavar="N",
        help="remote backend: local worker processes to fork "
             "(default: --jobs; 0 waits for external "
             "`ltp-repro worker --connect` processes)",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
        metavar="SECS",
        help="remote backend: seconds without a worker heartbeat "
             "before its leased specs are reassigned "
             f"(default: {DEFAULT_LEASE_TTL:g})",
    )
    p.add_argument(
        "--wait-workers-timeout", type=float, default=None,
        metavar="SECS",
        help="remote backend with --remote-workers 0: fail if no "
             "external worker connects within SECS (default: warn "
             "and wait forever)",
    )
    p.add_argument(
        "--attach", type=_parse_address, default=None,
        metavar="HOST:PORT",
        help="submit the grid to a live `ltp-repro serve` broker "
             "there instead of starting a broker (implies "
             "--backend remote)",
    )
    _add_auth_token_arg(p)
    _add_runner_args(p, cache_default=DEFAULT_CACHE_DIR)
    p = sub.add_parser(
        "worker",
        help="connect to a `run-all --backend remote` broker and "
             "execute leased jobs until the grid is done",
    )
    p.add_argument(
        "--connect", type=_parse_address, required=True,
        metavar="HOST:PORT", help="broker address to lease specs from",
    )
    p.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help="specs leased per request (default: 1)",
    )
    p.add_argument(
        "--trace-cache", metavar="PATH", default=None,
        help="persistent ProgramSet build cache on this worker host",
    )
    p.add_argument(
        "--name", default=None,
        help="worker identity shown in broker accounting "
             "(default: <hostname>-<pid>)",
    )
    _add_auth_token_arg(p)
    p = sub.add_parser(
        "serve",
        help="run a persistent broker with a fixed pool of --jobs "
             "local workers; `ltp-repro submit` enqueues grids into it",
    )
    p.add_argument(
        "--listen", type=_parse_address, default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="broker bind address (default 127.0.0.1:0 — a free "
             "port, printed at startup)",
    )
    p.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help="specs each local worker leases per request (default: 1)",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
        metavar="SECS",
        help="seconds without a worker heartbeat before its leased "
             f"specs are reassigned (default: {DEFAULT_LEASE_TTL:g})",
    )
    p.add_argument(
        "--grids", type=int, default=None, metavar="N",
        help="exit after N submitted grids complete (default: serve "
             "until interrupted; used by smoke tests)",
    )
    p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve GET /metrics (Prometheus text) and "
             "GET /healthz (JSON) on 127.0.0.1:PORT (0 = a free "
             "port, printed at startup; default: no endpoint); "
             "`ltp-repro top` reads it",
    )
    _add_auth_token_arg(p)
    _add_runner_args(p, cache_default=DEFAULT_CACHE_DIR)
    p = sub.add_parser(
        "submit",
        help="submit an experiment's grid to a `ltp-repro serve` "
             "broker and render the result from the streamed reports",
    )
    p.add_argument(
        "experiment", choices=(*EXPERIMENTS, "all"),
        help="experiment grid to submit ('all' = the whole paper "
             "grid, like run-all)",
    )
    p.add_argument(
        "--connect", type=_parse_address, required=True,
        metavar="HOST:PORT", help="serve-mode broker address",
    )
    p.add_argument("--size", choices=SIZES, default="small")
    p.add_argument(
        "--workloads", nargs="+", choices=WORKLOAD_NAMES, default=None
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECS",
        help="fail if the submitted grid is not fully streamed back "
             "within SECS (default: wait)",
    )
    _add_auth_token_arg(p)
    p = sub.add_parser(
        "top",
        help="live terminal view of a `ltp-repro serve "
             "--metrics-port` broker: queue, fleet, per-worker "
             "rates, lease latency percentiles",
    )
    p.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the broker's metrics endpoint (printed at serve "
             "startup), not its lease port",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECS",
        help="seconds between refreshes (default: 2)",
    )
    p.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="render N frames then exit (default: run until "
             "interrupted; scripts and tests use 1)",
    )
    p.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of redrawing the screen "
             "(for logs/pipes)",
    )
    p = sub.add_parser(
        "cache", help="inspect or prune the shared result cache"
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cache_help = {
        "stats": "show result/trace/index accounting",
        "prune": "apply retention limits to results and traces",
        "reindex": "rebuild the sqlite result index from the blobs "
                   "on disk (backfills pre-index caches; re-tags "
                   "experiment membership)",
    }
    for cache_cmd in ("stats", "prune", "reindex"):
        cp = cache_sub.add_parser(cache_cmd, help=cache_help[cache_cmd])
        cp.add_argument(
            "--cache-dir", metavar="PATH", default=DEFAULT_CACHE_DIR,
            help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
        )
        cp.add_argument(
            "--trace-cache", metavar="PATH", default=None,
            help="trace cache directory to account/prune "
                 "(default: <cache-dir>/traces)",
        )
        if cache_cmd == "stats":
            cp.add_argument(
                "--watch", type=float, default=None, metavar="SECS",
                help="refresh the display every SECS seconds "
                     "(Ctrl-C to stop)",
            )
            cp.add_argument(
                "--refreshes", type=int, default=None, metavar="N",
                help="with --watch: stop after N refreshes "
                     "(default: run until interrupted)",
            )
        if cache_cmd == "prune":
            cp.add_argument(
                "--max-age", type=_parse_age, default=None,
                metavar="AGE",
                help="drop results older than AGE (e.g. 36h, 7d)",
            )
            cp.add_argument(
                "--max-bytes", type=_parse_bytes, default=None,
                metavar="SIZE",
                help="then drop oldest results until under SIZE "
                     "(e.g. 500M, 2G)",
            )
    p = sub.add_parser(
        "report",
        help="run the full evaluation and emit one markdown doc, or "
             "(--html) build the static HTML site from the result "
             "store without running anything",
    )
    p.add_argument("--size", choices=SIZES, default="small")
    p.add_argument(
        "--workloads", nargs="+", choices=WORKLOAD_NAMES, default=None
    )
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the markdown to PATH instead of stdout")
    p.add_argument(
        "--html", metavar="DIR", default=None,
        help="instead of the markdown evaluation, generate the "
             "static HTML dashboard (experiment tables + figures, "
             "fleet status, bench trends) into DIR from "
             "the --cache-dir result index — runs no simulations",
    )
    p.add_argument(
        "--bench-dir", metavar="PATH",
        default="benchmarks/results",
        help="directory of BENCH_*.json records for the --html trend "
             "charts (default: benchmarks/results)",
    )
    _add_runner_args(p)
    p = sub.add_parser(
        "query",
        help="filter the sqlite result index (no blob unpickling): "
             "by experiment, identity columns, or metric predicates",
    )
    p.add_argument(
        "--cache-dir", metavar="PATH", default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    p.add_argument(
        "--experiment", metavar="NAME", default=None,
        help="restrict to one experiment's grid (CLI alias like "
             "'fig9' or canonical name like 'figure9')",
    )
    p.add_argument(
        "--where", action="append", default=None, metavar="PRED",
        help="predicate NAME OP VALUE over identity columns "
             "(workload, policy, size, holder, ...) or metrics "
             "(accuracy, execution_cycles, ...); e.g. "
             "\"accuracy<0.9\" or \"policy=ltp\"; repeatable (AND)",
    )
    p.add_argument(
        "--campaign", metavar="NAME", default=None,
        help="restrict to one campaign's tagged discoveries",
    )
    p.add_argument(
        "--format", choices=("table", "csv", "json"),
        default="table", help="output shape (default: table)",
    )
    p.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="return at most N rows",
    )
    _add_campaign_parser(sub)
    p = sub.add_parser(
        "profile",
        help="run every unique spec of one experiment (any job kind) "
             "under cProfile and report hot functions, seconds per "
             "job kind, and timing-engine event counts by kind",
    )
    p.add_argument(
        "experiment", choices=tuple(EXPERIMENTS),
        help="experiment whose jobs to profile",
    )
    p.add_argument("--size", choices=SIZES, default="small")
    p.add_argument(
        "--workloads", nargs="+", choices=WORKLOAD_NAMES, default=None
    )
    p.add_argument(
        "--sort", default="cumulative",
        help="cProfile sort column (default: cumulative)",
    )
    p.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="profile rows to print (default: 25)",
    )
    p.add_argument(
        "--trace-cache", metavar="PATH", default=None,
        help="persistent ProgramSet build cache (trace synthesis "
             "happens before profiling either way, so the profile "
             "shows only simulation time, including each accuracy "
             "workload's one-time stream compile)",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write an ltp-repro-bench/1 record (wall time, "
             "specs/second, per-kind event counts) to PATH",
    )
    sub.add_parser("config", help="print the Table 1 system parameters")
    p = sub.add_parser("workloads", help="print Table 2 workload stats")
    p.add_argument("--size", choices=SIZES, default="small")
    return parser


def _add_campaign_parser(sub) -> None:
    from repro.runner.spec import KINDS
    from repro.runner.spec import POLICY_NAMES as SPEC_POLICIES

    parser = sub.add_parser(
        "campaign",
        help="budgeted discovery campaigns over the parameter space "
             "(seeded exploration + refinement; see docs/campaigns.md)",
    )
    csub = parser.add_subparsers(
        dest="campaign_command", required=True
    )

    def _common(p, with_budget=True):
        p.add_argument(
            "--cache-dir", metavar="PATH", default=DEFAULT_CACHE_DIR,
            help=f"cache directory (default: {DEFAULT_CACHE_DIR}); "
                 "campaign state lives under <cache-dir>/campaigns",
        )
        p.add_argument(
            "--state", metavar="PATH", default=None,
            help="campaign state file (default: "
                 "<cache-dir>/campaigns/<name>.json)",
        )
        if with_budget:
            p.add_argument(
                "--budget", type=int, default=None, metavar="N",
                help="hard cap on explored points",
            )
            p.add_argument(
                "--max-seconds", type=float, default=None,
                metavar="S",
                help="wall-clock budget for fresh executions this "
                     "run (replay is always free)",
            )
            p.add_argument(
                "--connect", metavar="HOST:PORT", default=None,
                help="execute on a live `serve` broker instead of "
                     "the inline backend (the campaign becomes one "
                     "fair-share tenant)",
            )
            p.add_argument(
                "--timeout", type=float, default=240.0,
                help="per-point broker wait with --connect "
                     "(default: 240)",
            )
            p.add_argument(
                "--jobs", type=int, default=1,
                help="local worker processes without --connect "
                     "(default: 1)",
            )
            _add_auth_token_arg(p)

    p = csub.add_parser(
        "run", help="start (or continue) a named campaign",
    )
    p.add_argument(
        "--name", metavar="NAME", default=None,
        help="campaign name — the index tag and default state-file "
             "stem (default: campaign-seed<SEED>)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="exploration-shuffle seed (default: 0); part of the "
             "campaign's identity",
    )
    p.add_argument(
        "--where", action="append", default=None, metavar="PRED",
        help="interestingness predicate NAME OP VALUE (same language "
             "as `query --where`); repeatable (AND); default: "
             "\"accuracy < 0.5\"",
    )
    p.add_argument("--size", choices=SIZES, default="tiny")
    p.add_argument(
        "--workloads", nargs="+", choices=WORKLOAD_NAMES,
        default=None,
        help="workload axis override (default: em3d tomcatv appbt)",
    )
    p.add_argument(
        "--policies", nargs="+", choices=SPEC_POLICIES, default=None,
        help="policy axis override (default: base dsi ltp)",
    )
    p.add_argument(
        "--kinds", nargs="+", choices=KINDS, default=None,
        help="run-kind axis override (default: accuracy timing)",
    )
    p.add_argument(
        "--delays", nargs="+", type=int, default=None,
        metavar="CYCLES",
        help="si_fire_delay axis override (default: 0 500 2000)",
    )
    _common(p)

    p = csub.add_parser(
        "resume",
        help="continue a campaign exactly from its state file "
             "(identical seed + state => identical sequence; a "
             "finished campaign resumes as a no-op)",
    )
    _common(p)
    p.add_argument(
        "--name", metavar="NAME", default=None,
        help="campaign whose default state file to resume (or pass "
             "--state)",
    )

    p = csub.add_parser(
        "status", help="summarise a campaign's state file",
    )
    _common(p, with_budget=False)
    p.add_argument(
        "--name", metavar="NAME", default=None,
        help="campaign whose default state file to inspect (or pass "
             "--state)",
    )


def _announce_broker(address: str) -> None:
    print(
        f"[remote] broker listening on {address} — attach workers "
        f"with: ltp-repro worker --connect {address}",
        flush=True,
    )


def _warn_broker(message: str) -> None:
    print(f"[remote] warning: {message}", file=sys.stderr, flush=True)


def _backend_from_args(args):
    """Explicit --backend choice -> ExecutionBackend, or None (auto:
    the Runner derives one from jobs)."""
    choice = getattr(args, "backend", "auto")
    attach = getattr(args, "attach", None)
    if attach is not None:
        # --attach implies the remote backend in submission mode
        return RemoteBackend(
            attach=attach,
            announce=lambda address: print(
                f"[remote] submitting misses to the serve broker at "
                f"{address}",
                flush=True,
            ),
            auth_token=getattr(args, "auth_token", None),
        )
    if choice == "auto":
        return None
    jobs = getattr(args, "jobs", 1)
    if choice == "inline":
        return InlineBackend()
    if choice == "pool":
        return PoolBackend(jobs=jobs)
    workers = getattr(args, "remote_workers", None)
    return RemoteBackend(
        listen=getattr(args, "listen", ("127.0.0.1", 0)),
        workers=max(1, jobs) if workers is None else workers,
        lease_ttl=getattr(args, "lease_ttl", DEFAULT_LEASE_TTL),
        wait_workers_timeout=getattr(
            args, "wait_workers_timeout", None
        ),
        announce=_announce_broker,
        warn=_warn_broker,
        auth_token=getattr(args, "auth_token", None),
    )


def _configure_telemetry(cache_dir) -> None:
    """Point the span sink at ``<cache>/telemetry/`` (no-op when there
    is no cache to sit beside — metrics still work in memory, spans
    simply have nowhere to land)."""
    import repro.telemetry as _tm

    if cache_dir:
        _tm.configure(Path(cache_dir) / _tm.TELEMETRY_DIRNAME)


def _runner_from_args(args, progress=None) -> Runner:
    cache = None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir and not getattr(args, "no_cache", False):
        cache = ResultCache(cache_dir)
        _configure_telemetry(cache_dir)
    # an explicit --trace-cache always wins (even under --no-cache,
    # which disables only the *result* cache); run-all additionally
    # defaults the trace cache to live inside an active result cache
    trace_dir = getattr(args, "trace_cache", None)
    if trace_dir is None and cache is not None and (
        getattr(args, "command", None) == "run-all"
    ):
        trace_dir = str(Path(cache_dir) / "traces")
    trace_cache = TraceCache(trace_dir) if trace_dir else None
    return Runner(
        jobs=getattr(args, "jobs", 1),
        cache=cache,
        progress=progress,
        trace_cache=trace_cache,
        backend=_backend_from_args(args),
    )


def _print_progress(done: int, total: int, spec, source: str) -> None:
    tag = {"run": "ran", "cache": "cached", "memo": "memo"}[source]
    print(f"[{done:>4}/{total}] {tag:<6} {spec.label()}", flush=True)


def _run_all(args) -> int:
    if args.remote_workers is not None and args.remote_workers < 0:
        print(
            "run-all: --remote-workers must be at least 0, got "
            f"{args.remote_workers}",
            file=sys.stderr,
        )
        return 2
    if args.attach is not None and args.backend not in (
        "auto", "remote"
    ):
        print(
            f"run-all: --attach conflicts with "
            f"--backend {args.backend}",
            file=sys.stderr,
        )
        return 2
    if args.attach is not None and (
        args.remote_workers is not None
        or args.wait_workers_timeout is not None
        or args.listen != ("127.0.0.1", 0)
        or args.lease_ttl != DEFAULT_LEASE_TTL
    ):
        print(
            "run-all: --attach uses an existing serve broker — the "
            "broker flags (--remote-workers/--listen/--lease-ttl/"
            "--wait-workers-timeout) have no effect there; configure "
            "the `ltp-repro serve` side instead",
            file=sys.stderr,
        )
        return 2
    runner = _runner_from_args(args, progress=_print_progress)
    specs = []
    for module in EXPERIMENTS.values():
        specs.extend(
            module.jobs(size=args.size, workloads=args.workloads)
        )
    unique = len(dict.fromkeys(specs))
    where = (
        f"cache={runner.cache.root}" if runner.cache else "cache off"
    )
    print(
        f"[run-all] {len(specs)} jobs ({unique} unique) across "
        f"{len(EXPERIMENTS)} experiments; jobs={runner.jobs}, {where}"
    )
    start = time.time()
    runner.run(specs)
    elapsed = time.time() - start
    # read the accounting before the render passes below re-request
    # every spec (all memo hits, which would inflate the summary)
    grid_stats = runner.stats
    runner.progress = None
    for name, module in EXPERIMENTS.items():
        result = module.run(
            size=args.size, workloads=args.workloads, runner=runner
        )
        print(result.render())
        print()
    print(
        f"[run-all] grid resolved in {elapsed:.1f}s — "
        f"{grid_stats.summary()}"
    )
    if runner.trace_cache is not None:
        tc = runner.trace_cache
        print(
            f"[run-all] trace cache {tc.root}: {tc.hits} hits, "
            f"{tc.builds} builds this process, "
            f"{tc.entries()} traces on disk"
        )
    return 0


def _print_cache_stats(cache, traces) -> None:
    stats = cache.stats()
    print(f"cache {cache.root}")
    ages = (
        f" (oldest {_fmt_age(stats.oldest_age)}, "
        f"newest {_fmt_age(stats.newest_age)})"
        if stats.entries else ""
    )
    print(
        f"  results  {stats.entries} entries, "
        f"{_fmt_bytes(stats.total_bytes)}{ages}"
    )
    orphans = sum(1 for _ in traces.orphan_paths())
    orphaned = (
        f"; {orphans} orphaned ({_fmt_bytes(traces.orphan_bytes())}), "
        "removed by `cache prune`"
        if orphans else ""
    )
    print(
        f"  traces   {traces.entries()} entries, "
        f"{_fmt_bytes(traces.total_bytes())}{orphaned}"
    )
    _print_index_status(cache, stats.entries)
    _print_fleet_status(cache.root)


def _print_index_status(cache, entries: int) -> None:
    """One line on the sqlite result index, with a `cache reindex`
    hint whenever the index is missing or out of step with the blobs
    — instead of silently reporting blob-only numbers."""
    index = cache.index
    if index is None:
        return
    try:
        rows = index.count()
    except Exception:
        rows = None
    if rows is None:
        if entries:
            print(
                f"  index    missing ({entries} unindexed entries) — "
                "run `ltp-repro cache reindex` to make them "
                "queryable"
            )
        return
    if rows != entries:
        print(
            f"  index    {rows} row(s) vs {entries} blob entries "
            "(stale) — run `ltp-repro cache reindex` to reconcile"
        )
    else:
        print(f"  index    {rows} row(s), in sync")


def _print_fleet_status(cache_root) -> None:
    """The serve pool's view: desired vs live workers and the crash
    breaker, read from the service's fleet.json mirror."""
    path = Path(cache_root) / CLAIMS_DIRNAME / FLEET_STATUS_NAME
    try:
        data = json.loads(path.read_text())
        live = int(data["live"])
        desired = int(data["desired"])
        age = max(0.0, time.time() - float(data.get("updated", 0.0)))
    except (OSError, ValueError, KeyError, TypeError):
        # the status file is advisory; anything unreadable — torn,
        # foreign, or oddly typed — must not break `cache stats`
        return
    flags = " HALTED" if data.get("halted") else ""
    stale = " (stale)" if age > 60 else ""
    print(
        f"  serve    {live} live / {desired} desired workers "
        f"(updated {_fmt_age(age)} ago){flags}{stale}"
    )


def _cache_command(args) -> int:
    cache = ResultCache(args.cache_dir)
    traces = TraceCache(
        args.trace_cache or Path(args.cache_dir) / "traces"
    )
    if traces.root.resolve() == cache.root.resolve():
        # result entries share the unversioned trace layout, so they
        # would read as orphaned traces, and prune deletes orphans
        raise SystemExit(
            "cache: --trace-cache must not be the --cache-dir itself"
        )
    if args.cache_command == "stats":
        watch = getattr(args, "watch", None)
        refreshes = getattr(args, "refreshes", None)
        shown = 0
        try:
            while True:
                if watch is not None:
                    print(time.strftime("— %H:%M:%S —"))
                _print_cache_stats(cache, traces)
                shown += 1
                if watch is None or (
                    refreshes is not None and shown >= refreshes
                ):
                    break
                sys.stdout.flush()
                time.sleep(watch)
                print()
        except KeyboardInterrupt:
            pass
        return 0
    if args.cache_command == "reindex":
        from repro.store import reindex

        start = time.time()
        indexed, skipped = reindex(cache)
        tagged = len(cache.index.experiments())
        print(
            f"reindexed {indexed} entries in "
            f"{time.time() - start:.1f}s "
            f"({skipped} undecodable skipped); "
            f"{tagged} experiment(s) tagged — query with "
            "`ltp-repro query`"
        )
        return 0
    # prune: orphaned traces always go; then an age sweep per store and
    # one *combined* byte budget over results + live traces, so
    # --max-bytes bounds the directory as a whole
    removed_orphans = traces.remove_orphans()
    removed_age = (
        cache.prune_by(max_age=args.max_age)
        + prune_files(traces.entry_paths(), max_age=args.max_age)
    )
    removed_budget = prune_files(
        list(cache.entry_paths()) + list(traces.entry_paths()),
        max_bytes=args.max_bytes,
    )
    # drop index rows whose blobs the sweep removed, so query results
    # never point at pruned entries
    if cache.index is not None and cache.index.exists():
        cache.index.delete_missing(
            path.stem for path in cache.entry_paths()
        )
    stats = cache.stats()
    print(
        f"pruned {removed_orphans + removed_age + removed_budget} cached "
        f"files ({removed_orphans} orphaned traces, "
        f"{removed_age} past --max-age, "
        f"{removed_budget} over --max-bytes); "
        f"{stats.entries} results ({_fmt_bytes(stats.total_bytes)}) "
        f"and {traces.entries()} traces "
        f"({_fmt_bytes(traces.total_bytes())}) remain"
    )
    return 0


def _query_command(args) -> int:
    from repro.store import QueryError, ResultIndex, run_query
    from repro.store.query import (
        format_rows_csv,
        format_rows_json,
        format_rows_table,
    )

    index = ResultIndex(args.cache_dir)
    if not index.exists():
        print(
            f"query: no result index at {index.path} — populate the "
            "cache (any run publishes into it) or backfill with "
            "`ltp-repro cache reindex`",
            file=sys.stderr,
        )
        return 1
    try:
        rows = run_query(
            index,
            where=args.where,
            experiment=args.experiment,
            campaign=getattr(args, "campaign", None),
            limit=args.limit,
        )
    except QueryError as exc:
        print(f"query: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        sys.stdout.write(format_rows_csv(rows))
    elif args.format == "json":
        print(format_rows_json(rows))
    else:
        print(format_rows_table(rows))
    return 0


def _campaign_state_path(args, name: Optional[str] = None) -> Path:
    if args.state:
        return Path(args.state)
    stem = name or getattr(args, "name", None)
    if not stem:
        raise SystemExit(
            "campaign: pass --state PATH or --name NAME to locate "
            "the state file"
        )
    return Path(args.cache_dir) / "campaigns" / f"{stem}.json"


def _campaign_executor(args):
    from repro.campaign import BrokerExecutor, LocalExecutor

    if getattr(args, "connect", None):
        return BrokerExecutor(
            _parse_address(args.connect),
            size=getattr(args, "size", "tiny"),
            auth_token=getattr(args, "auth_token", None),
            timeout=args.timeout,
        )
    cache = ResultCache(args.cache_dir)
    return LocalExecutor(
        cache, size=getattr(args, "size", "tiny"), jobs=args.jobs
    )


def _campaign_execute(driver, args) -> int:
    """Run a built driver to completion, tag discoveries, report."""
    from repro.campaign.space import point_spec

    def progress(spent, budget, point, interesting, source):
        spec = point_spec(point, getattr(args, "size", "tiny"))
        marker = " *** interesting" if interesting else ""
        print(
            f"[campaign {driver.name}] {spent}/{budget} "
            f"{spec.label()} ({source}){marker}",
            flush=True,
        )

    executor = _campaign_executor(args)
    try:
        result = driver.run(executor, progress=progress)
    finally:
        executor.close()
    digests = [
        o["digest"] for o in result.discoveries if o.get("digest")
    ]
    index = ResultCache(args.cache_dir).index
    if digests and index is not None:
        index.tag_campaign(driver.name, digests)
    print(
        f"[campaign {driver.name}] {result.spent} point(s) explored "
        f"({result.executed} fresh, budget {result.budget}), "
        f"{len(result.discoveries)} discovery(ies), "
        f"stopped: {result.stop_reason}"
    )
    if driver.state_path is not None:
        print(f"[campaign {driver.name}] state: {driver.state_path}")
    if digests:
        print(
            f"[campaign {driver.name}] tagged {len(digests)} "
            f"discovery(ies) — query with `ltp-repro query "
            f"--campaign {driver.name}`, render with `ltp-repro "
            f"report --html SITE`"
        )
    return 0


def _campaign_command(args) -> int:
    from repro.campaign import (
        CampaignDriver,
        CampaignError,
        InterestingnessMetric,
        default_space,
    )
    from repro.store.query import QueryError

    try:
        if args.campaign_command == "run":
            seed = args.seed
            name = args.name or f"campaign-seed{seed}"
            state_path = _campaign_state_path(args, name)
            space = default_space(
                workloads=args.workloads,
                policies=args.policies,
                kinds=args.kinds,
                delays=args.delays,
            )
            metric = InterestingnessMetric.parse(
                args.where or ["accuracy < 0.5"]
            )
            driver = CampaignDriver(
                name=name,
                space=space,
                metric=metric,
                seed=seed,
                budget=args.budget if args.budget else 40,
                state_path=state_path,
                max_seconds=args.max_seconds,
            )
            return _campaign_execute(driver, args)
        if args.campaign_command == "resume":
            state_path = _campaign_state_path(args)
            if not state_path.exists():
                print(
                    f"campaign: no state file at {state_path}",
                    file=sys.stderr,
                )
                return 1
            driver = CampaignDriver.from_state(
                state_path,
                budget=args.budget,
                max_seconds=args.max_seconds,
            )
            return _campaign_execute(driver, args)
        # status
        state_path = _campaign_state_path(args)
        if not state_path.exists():
            print(
                f"campaign: no state file at {state_path}",
                file=sys.stderr,
            )
            return 1
        from repro.campaign import CampaignDriver as _Driver

        state = _Driver.load_state(state_path)
        explored = state.get("explored", [])
        found = [o for o in explored if o.get("interesting")]
        print(f"campaign:    {state.get('name')}")
        print(f"seed:        {state.get('seed')}")
        print(f"budget:      {state.get('budget')}")
        print(
            f"explored:    {len(explored)} point(s), "
            f"{len(found)} discovery(ies)"
        )
        print(f"metric:      {' AND '.join(state.get('metric', []))}")
        print(f"stop reason: {state.get('stop_reason')}")
        print(f"state file:  {state_path}")
        return 0
    except (CampaignError, QueryError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, RemoteExecutionError, OSError) as exc:
        # a broker that vanishes mid-campaign is an operational
        # failure, not a crash: the state file keeps every completed
        # point, so `campaign resume` continues where this run died
        print(
            f"campaign: executor failed ({exc}); completed points "
            f"are saved — continue with `ltp-repro campaign resume "
            f"--state <state-file>`",
            file=sys.stderr,
        )
        return 3


def _report_html_command(args) -> int:
    from repro.store import generate_report

    cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    cache = ResultCache(cache_dir)
    if not cache.index.exists() and cache.entries():
        print(
            "[report] no result index yet — building one with "
            "`cache reindex` first",
            flush=True,
        )
        from repro.store import reindex

        reindex(cache)
    index_path = generate_report(
        cache, args.html, bench_dir=args.bench_dir
    )
    print(f"[wrote {index_path}]")
    return 0


def _serve_command(args) -> int:
    if args.no_cache or not args.cache_dir:
        print(
            "serve: a result cache is required (--cache-dir without "
            "--no-cache) — submitted grids publish into it",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print(
            f"serve: --jobs must be at least 1, got {args.jobs}",
            file=sys.stderr,
        )
        return 2
    cache = ResultCache(args.cache_dir)
    _configure_telemetry(args.cache_dir)
    trace_dir = args.trace_cache or str(Path(args.cache_dir) / "traces")
    service = FleetService(
        cache=cache,
        workers=args.jobs,
        listen=args.listen,
        trace_cache=TraceCache(trace_dir),
        lease_ttl=args.lease_ttl,
        batch=max(1, args.batch),
        announce=lambda address: print(
            f"[serve] broker listening on {address} — submit grids "
            f"with: ltp-repro submit <experiment> --connect {address}",
            flush=True,
        ),
        auth_token=args.auth_token,
        metrics_port=args.metrics_port,
    )
    try:
        service.start()
    except OSError as exc:
        # by far the likeliest bind failure is the metrics port (the
        # broker defaults to an ephemeral port and binds first);
        # start() has already torn down whatever it started, so name
        # the port and the operator knows which flag to change
        print(
            f"serve: could not bind the observability endpoint on "
            f"port {args.metrics_port}: {exc} — pick another "
            f"--metrics-port (0 = any free port)"
            if args.metrics_port is not None
            else f"serve: could not bind: {exc}",
            file=sys.stderr,
        )
        return 2
    if service.metrics_address is not None:
        mhost, mport = service.metrics_address
        print(
            f"[serve] metrics on http://{mhost}:{mport}/metrics "
            f"(health: /healthz — watch live with: ltp-repro top "
            f"--connect {mhost}:{mport})",
            flush=True,
        )
    print(
        f"[serve] {args.jobs} worker(s), cache={cache.root}",
        flush=True,
    )
    try:
        done = service.serve(max_grids=args.grids)
    except KeyboardInterrupt:
        done = service.broker.stats.grids_done
        print("\n[serve] interrupted — stopping workers", flush=True)
    finally:
        service.stop()
    stats = service.broker.stats
    print(
        f"[serve] {done} grid(s) served this session "
        f"({stats.results} results, {stats.duplicates} duplicates, "
        f"{len(stats.workers)} worker(s) seen); "
        f"{service.supervisor.spawned} spawned"
    )
    if stats.auth_failures:
        print(f"[serve] {stats.auth_failures} auth failure(s)")
    return 0


def _top_command(args) -> int:
    from repro.telemetry.top import run_top

    address = args.connect
    if "://" not in address:
        address = "http://" + address
    try:
        return run_top(
            address,
            interval=max(0.1, args.interval),
            iterations=args.iterations,
            clear=not args.no_clear,
        )
    except KeyboardInterrupt:
        print()
        return 0


def _submit_command(args) -> int:
    modules = (
        dict(EXPERIMENTS) if args.experiment == "all"
        else {args.experiment: EXPERIMENTS[args.experiment]}
    )
    specs = []
    for module in modules.values():
        specs.extend(
            module.jobs(size=args.size, workloads=args.workloads)
        )
    host, port = args.connect
    print(
        f"[submit] {len(specs)} jobs "
        f"({len(dict.fromkeys(specs))} unique) -> {host}:{port}"
    )
    start = time.time()
    try:
        client = GridClient((host, port), auth_token=args.auth_token)
        try:
            reply = client.submit(specs)
            print(
                f"[submit] grid {reply['grid']}: {client.specs} specs "
                f"enqueued, {client.cached} already cached broker-side"
            )
            collected = {}
            for spec, value in client.stream(timeout=args.timeout):
                collected[spec] = value
                print(
                    f"[{len(collected):>4}/{client.specs}] "
                    f"{spec.label()}",
                    flush=True,
                )
        finally:
            client.close()
    except (OSError, ProtocolError) as exc:
        print(
            f"submit: lost serve broker at {host}:{port}: {exc}",
            file=sys.stderr,
        )
        return 1
    except RemoteExecutionError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    elapsed = time.time() - start
    # render locally from the streamed reports: a memo-seeded runner
    # serves every spec without touching this host's caches
    runner = Runner()
    runner._memo.update(collected)
    for module in modules.values():
        result = module.run(
            size=args.size, workloads=args.workloads, runner=runner
        )
        print(result.render())
        print()
    print(
        f"[submit] grid streamed in {elapsed:.1f}s — "
        f"{runner.stats.summary()}"
    )
    return 0


def _worker_command(args) -> int:
    host, port = args.connect
    # a standalone worker has no result cache; its spans land beside
    # its local trace cache (fleet-forked workers instead inherit the
    # service's telemetry dir through REPRO_TELEMETRY_DIR)
    _configure_telemetry(args.trace_cache)
    print(f"[worker] connecting to broker at {host}:{port}")
    try:
        stats = run_worker(
            address=(host, port),
            batch=max(1, args.batch),
            trace_root=args.trace_cache,
            name=args.name,
            auth_token=args.auth_token,
        )
    except (OSError, ProtocolError) as exc:
        print(
            f"worker: lost broker at {host}:{port}: {exc}",
            file=sys.stderr,
        )
        return 1
    print(
        f"[worker {stats.name}] grid done: {stats.executed} executed, "
        f"{stats.failed} failed, {stats.leased} leased"
    )
    return 0


def _profile_command(args) -> int:
    import cProfile
    import platform
    import pstats

    import repro.telemetry as _tm
    from repro.runner.runner import (
        _execute_spec_inner,
        _programs_for,
        _swap_trace_cache,
    )
    from repro.telemetry.metrics import parse_label_key

    module = EXPERIMENTS[args.experiment]
    specs = list(dict.fromkeys(
        module.jobs(size=args.size, workloads=args.workloads)
    ))
    if args.trace_cache:
        _swap_trace_cache(TraceCache(args.trace_cache))
    kinds: dict = {}
    for spec in specs:
        kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
    print(
        f"[profile] {len(specs)} specs ({args.experiment}, "
        f"size={args.size}: "
        + ", ".join(f"{n} {kind}" for kind, n in kinds.items()) + ")"
    )
    # synthesize (or load) every ProgramSet up front: the profile
    # should show where simulation cycles go, not trace construction
    for spec in specs:
        _programs_for(spec)
    # the timing engine folds its per-kind dispatch counts into this
    # series
    events = _tm.counter("repro_engine_events_total")
    since = _tm.Baseline(events)
    seconds = dict.fromkeys(kinds, 0.0)
    profiler = cProfile.Profile()
    start = time.time()
    profiler.enable()
    for spec in specs:
        began = time.perf_counter()
        _execute_spec_inner(spec)
        seconds[spec.kind] += time.perf_counter() - began
    profiler.disable()
    elapsed = time.time() - start
    counters = {
        parse_label_key(key).get("kind", ""): count
        for key, count in since.series(events).items()
    }
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    rate = len(specs) / elapsed if elapsed else 0.0
    print(
        f"[profile] {len(specs)} specs in {elapsed:.2f}s "
        f"({rate:.2f} specs/s); by job kind:"
    )
    for kind, n in kinds.items():
        print(f"    {kind:<14} {n:>6} specs {seconds[kind]:>9.2f}s")
    if counters:
        total = sum(counters.values())
        print(f"[profile] {total:,} events by kind:")
        for kind, count in sorted(
            counters.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            print(
                f"    {kind:<14} {count:>12,}  ({count / total:5.1%})"
            )
    if args.json:
        record = {
            "schema": "ltp-repro-bench/1",
            "name": f"profile_{args.experiment}",
            "fullname": f"ltp-repro profile {args.experiment}",
            "group": "profile",
            "timestamp": time.time(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "rounds": 1,
            "stats_s": {
                "mean": elapsed, "min": elapsed, "max": elapsed,
                "stddev": 0.0,
            },
            "extra_info": {
                "size": args.size,
                "specs": len(specs),
                "specs_per_second": rate,
                "event_counts": counters,
                "kinds": {
                    kind: {"specs": n, "seconds": seconds[kind]}
                    for kind, n in kinds.items()
                },
            },
        }
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[wrote {args.json}]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "config":
        print(_render_config())
        return 0
    if args.command == "run-all":
        return _run_all(args)
    if args.command == "worker":
        return _worker_command(args)
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "submit":
        return _submit_command(args)
    if args.command == "top":
        return _top_command(args)
    if args.command == "cache":
        return _cache_command(args)
    if args.command == "query":
        return _query_command(args)
    if args.command == "campaign":
        return _campaign_command(args)
    if args.command == "profile":
        return _profile_command(args)
    if args.command == "report" and args.html:
        return _report_html_command(args)
    if args.command == "report":
        doc = report.run(
            size=args.size,
            workloads=args.workloads,
            runner=_runner_from_args(args),
        )
        text = doc.render()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print(f"[wrote {args.out}]")
        else:
            print(text)
        return 0
    if args.command == "workloads":
        print(_render_workloads(args.size))
        return 0
    names = (
        list(EXPERIMENTS) if args.command == "all" else [args.command]
    )
    # one runner for the whole invocation: `all` dedupes overlapping
    # grids exactly like run-all, just serially rendered
    runner = _runner_from_args(args)
    for name in names:
        start = time.time()
        result = EXPERIMENTS[name].run(
            size=args.size, workloads=args.workloads, runner=runner
        )
        print(result.render())
        print(f"[{name} completed in {time.time() - start:.1f}s]\n")
        _maybe_export(result, args)
    return 0


def _maybe_export(result, args) -> None:
    csv_path = getattr(args, "csv", None)
    json_path = getattr(args, "json", None)
    if not csv_path and not json_path:
        return
    from repro.analysis.export import (
        export_result,
        rows_to_csv,
        rows_to_json,
    )

    try:
        rows = export_result(result)
    except TypeError as exc:
        print(f"[export skipped: {exc}]")
        return
    if csv_path:
        with open(csv_path, "w") as handle:
            handle.write(rows_to_csv(rows))
        print(f"[wrote {csv_path}]")
    if json_path:
        with open(json_path, "w") as handle:
            handle.write(rows_to_json(rows))
        print(f"[wrote {json_path}]")


if __name__ == "__main__":
    sys.exit(main())
