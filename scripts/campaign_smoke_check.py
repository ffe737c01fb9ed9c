"""CI guard: a seeded discovery campaign against a real serve broker.

End-to-end, through the real CLI entry points:

1. start ``ltp-repro serve`` as a subprocess (1-worker fleet, free
   port, fresh cache, wire auth) and parse the announced address;
2. run a tiny seeded campaign (2-point space, ``accuracy < 0.5``)
   as a broker tenant via ``ltp-repro campaign run --connect`` and
   assert it completes, the serve process exits cleanly after its
   grid quota, and **at least one discovery lands in the index**
   with the campaign tag (visible to ``query --campaign``);
3. resume the campaign from its state file (inline — replay executes
   nothing, so no broker is needed) and assert it is a **no-op
   re-run**: zero fresh executions, state file byte-identical;
4. render ``report --html`` against the campaign's cache and assert
   the site contains the **Discoveries** section with this
   campaign's name and scatter figure.

Run as ``PYTHONPATH=src python scripts/campaign_smoke_check.py
[DIR]``; exits non-zero on any divergence.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.experiments.cli import main as cli_main
from repro.store import ResultIndex, run_query

AUTH_TOKEN = "campaign-smoke-token"
CAMPAIGN = "campaign-seed7"
#: the campaign's space: workloads em3d x policies {base, ltp} at
#: kind=accuracy / delay 0 — 2 points, so the broker serves exactly
#: 2 one-spec grids; base scores accuracy 0.0 (a guaranteed
#: discovery for the `accuracy < 0.5` metric)
CAMPAIGN_ARGS = (
    "--budget", "4", "--seed", "7", "--size", "tiny",
    "--workloads", "em3d", "--policies", "base", "ltp",
    "--kinds", "accuracy", "--delays", "0",
)


def _start_serve(cache_dir: Path):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--cache-dir", str(cache_dir),
            "--lease-ttl", "10",
            "--grids", "2",
            "--auth-token", AUTH_TOKEN,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines = []

    def pump():
        for line in proc.stdout:
            lines.append(line.rstrip())

    threading.Thread(target=pump, daemon=True).start()
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


def main(argv) -> int:
    if argv:
        work_dir = Path(argv[0])
        work_dir.mkdir(parents=True, exist_ok=True)
        context = None
    else:
        context = tempfile.TemporaryDirectory()
        work_dir = Path(context.name)
    cache_dir = work_dir / "campaign-cache"
    try:
        proc, address, lines = _start_serve(cache_dir)
        try:
            rc = cli_main([
                "campaign", "run",
                "--cache-dir", str(cache_dir),
                *CAMPAIGN_ARGS,
                "--connect", address,
                "--timeout", "240",
                "--auth-token", AUTH_TOKEN,
            ])
            assert rc == 0, f"campaign run exited {rc}"
            proc.wait(timeout=60)  # --grids 2 ends the service
            assert proc.returncode == 0, (
                f"serve exited {proc.returncode}:\n"
                + "\n".join(lines)
            )
        finally:
            if proc.poll() is None:
                proc.kill()

        # >= 1 discovery landed in the index under the campaign tag
        index = ResultIndex(cache_dir)
        assert CAMPAIGN in index.campaigns(), (
            f"campaign tag missing from the index: "
            f"{index.campaigns()}"
        )
        rows = run_query(index, campaign=CAMPAIGN)
        assert rows, "no tagged discovery rows in the index"
        for row in rows:
            assert row["metrics"].get("accuracy", 1.0) < 0.5, (
                f"tagged row does not satisfy the metric: {row}"
            )

        # resume from the state file is a no-op re-run: nothing
        # fresh executes (so no broker needed), state is unchanged
        state = cache_dir / "campaigns" / f"{CAMPAIGN}.json"
        assert state.exists(), f"no state file at {state}"
        before = state.read_bytes()
        explored = len(json.loads(before)["explored"])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli_main([
                "campaign", "resume",
                "--cache-dir", str(cache_dir),
                "--name", CAMPAIGN,
            ])
        assert rc == 0, f"campaign resume exited {rc}"
        assert "0 fresh" in stdout.getvalue(), (
            "resume re-executed points:\n" + stdout.getvalue()
        )
        assert state.read_bytes() == before, (
            "resume changed the state file of a finished campaign"
        )

        # the rendered report carries the Discoveries section
        site_dir = work_dir / "site"
        rc = cli_main([
            "report", "--html", str(site_dir),
            "--cache-dir", str(cache_dir),
        ])
        assert rc == 0, f"report --html exited {rc}"
        index_html = (site_dir / "index.html").read_text()
        assert "Discoveries" in index_html, (
            "Discoveries section missing from the report"
        )
        assert CAMPAIGN in index_html, (
            "campaign name missing from the Discoveries section"
        )
        assert 'id="discoveries"' in index_html
        assert index_html.count("<svg") >= 1, (
            "no scatter figure rendered"
        )
    finally:
        if context is not None:
            context.cleanup()
    print(
        f"campaign smoke OK: {explored} point(s) explored as a "
        f"serve tenant, {len(rows)} tagged discovery(ies) queryable, "
        "resume was a byte-identical no-op, Discoveries section "
        "rendered"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
