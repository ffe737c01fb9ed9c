"""Golden-file test for the `repro report --html` site structure.

The golden file pins the *skeleton* of the generated HTML — the
nesting of structural elements (sections, headings with their text,
tables, SVG figures) — not the full bytes, so numeric drift in
simulator output never breaks it while a dropped section, figure, or
table always does. Regenerate after intentional structure changes::

    PYTHONPATH=src python tests/unit/test_store_report.py
"""

import json
from html.parser import HTMLParser
from pathlib import Path

from repro.experiments import figure9
from repro.runner import ResultCache, execute_spec
from repro.store import generate_report

GOLDEN = Path(__file__).parent / "data" / "report_skeleton.txt"

#: elements that define the page skeleton; everything else (rows,
#: cells, chart marks, inline spans) is allowed to vary
_SKELETON_TAGS = {
    "html", "head", "title", "body", "main", "h1", "h2", "h3",
    "section", "table", "thead", "tbody", "svg", "footer",
}

#: headings keep their text so a renamed section is a golden change
_TEXT_TAGS = {"h1", "h2", "h3", "title"}

FIXED_NOW = 1700000000.0


class _Skeleton(HTMLParser):
    def __init__(self):
        super().__init__()
        self.lines = []
        self.depth = 0
        self._text_line = None
        self._text_tag = None
        self._text = []

    def handle_starttag(self, tag, attrs):
        if tag in _SKELETON_TAGS:
            ident = dict(attrs).get("id")
            label = f"{tag}#{ident}" if ident else tag
            self.lines.append("  " * self.depth + label)
            self.depth += 1
            if tag in _TEXT_TAGS:
                self._text_line = len(self.lines) - 1
                self._text_tag = tag
                self._text = []

    def handle_endtag(self, tag):
        if tag in _SKELETON_TAGS:
            if tag == self._text_tag:
                text = "".join(self._text).strip()
                self.lines[self._text_line] += f": {text}"
                self._text_tag = self._text_line = None
            self.depth = max(0, self.depth - 1)

    def handle_data(self, data):
        if self._text_tag:
            self._text.append(data)


def skeleton(html_text: str) -> str:
    parser = _Skeleton()
    parser.feed(html_text)
    return "\n".join(parser.lines) + "\n"


def build_site(tmp_path):
    """A deterministic seeded cache + fleet + bench fixture."""
    cache = ResultCache(tmp_path / "cache")
    for spec in figure9.jobs(size="tiny", workloads=("em3d",)):
        # a broker publish: the holder feeds per-holder throughput
        cache.put(spec, execute_spec(spec), holder="host-7")
    claims = tmp_path / "cache" / "claims"
    claims.mkdir(parents=True, exist_ok=True)
    events = [
        {"when": FIXED_NOW - 240 + i * 60, "action": action,
         "live": live, "desired": desired, "queue_depth": queue,
         "throughput": rate, "reason": "policy=queue"}
        for i, (action, live, desired, queue, rate) in enumerate([
            ("up", 0, 2, 8, 0.0),
            ("up", 2, 4, 16, 10.0),
            ("exit", 4, 4, 9, 12.0),
            ("down", 4, 1, 1, 14.0),
        ])
    ]
    with open(claims / "fleet_events.jsonl", "w") as log:
        for event in events:
            log.write(json.dumps(event) + "\n")
    (claims / "fleet.json").write_text(json.dumps({
        "updated": FIXED_NOW, "live": 1, "desired": 1,
        "queue_depth": 0, "throughput": 14.0, "policy": "queue",
        "halted": False, "events": events[-2:],
    }))
    bench = tmp_path / "bench"
    bench.mkdir()
    for i in range(3):
        (bench / f"BENCH_run{i}.json").write_text(json.dumps({
            "schema": "ltp-repro-bench/1",
            "name": "fleet_throughput", "fullname": "f", "group": "g",
            "timestamp": FIXED_NOW - 86400 * (3 - i),
            "python": "3", "platform": "linux", "rounds": 5,
            "stats_s": {"mean": 1.0 + 0.1 * i, "min": 0.9,
                        "max": 1.4, "stddev": 0.03},
            "extra_info": {},
        }))
    out = tmp_path / "site"
    generate_report(cache, out, bench_dir=bench, now=FIXED_NOW)
    return out


class TestReportGolden:
    def test_index_skeleton_matches_golden(self, tmp_path):
        out = build_site(tmp_path)
        got = skeleton((out / "index.html").read_text())
        want = GOLDEN.read_text()
        assert got == want, (
            "report HTML skeleton drifted from the golden file — if "
            "intentional, regenerate with: PYTHONPATH=src python "
            f"{__file__}"
        )

    def test_site_is_self_contained(self, tmp_path):
        out = build_site(tmp_path)
        pages = sorted(p.name for p in out.glob("*.html"))
        assert "index.html" in pages
        assert any(p.startswith("experiment-figure9") for p in pages)
        for page in pages:
            text = (out / page).read_text()
            assert "http://" not in text
            assert "https://" not in text
            assert "<script" not in text

    def test_experiment_page_structure(self, tmp_path):
        out = build_site(tmp_path)
        text = (out / "experiment-figure9.html").read_text()
        assert "<svg" in text            # the figure
        assert "execution_cycles" in text
        assert 'href="index.html"' in text
        assert text.count("<tr>") >= 3   # base/dsi/ltp rows

    def test_holder_throughput_comes_from_index_rows(self):
        from repro.store.report import holder_throughput

        rows = [
            {"holder": "w0", "created": 100.0},
            {"holder": "w0", "created": 160.0},
            {"holder": "w0", "created": 130.0},
            {"holder": "w1", "created": 50.0},
            {"holder": None, "created": 70.0},  # a plain local run
        ]
        w0, w1 = holder_throughput(rows)
        assert (w0["holder"], w0["done"]) == ("w0", 3)
        assert (w0["started"], w0["updated"]) == (100.0, 160.0)
        assert w0["rate"] == 3.0  # 3 publishes over one minute
        # a lone publish spans the one-second floor
        assert (w1["holder"], w1["done"], w1["rate"]) == ("w1", 1, 60.0)

    def test_index_holders_render_per_holder_table(self, tmp_path):
        out = build_site(tmp_path)
        text = (out / "index.html").read_text()
        assert "Per-holder throughput" in text
        assert "<td>host-7</td>" in text

    def test_empty_cache_site_renders(self, tmp_path):
        cache = ResultCache(tmp_path / "empty")
        out = tmp_path / "site"
        index_path = generate_report(cache, out, now=FIXED_NOW)
        text = index_path.read_text()
        assert "No indexed experiment results" in text
        assert "No fleet activity" in text
        assert "No <code>BENCH_*.json</code> records" in text


if __name__ == "__main__":  # regenerate the golden skeleton
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = build_site(Path(tmp))
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(skeleton((out / "index.html").read_text()))
        print(f"regenerated {GOLDEN}")
