"""Traced in-process replay of one workload (started by run.py --trace 1).

    PYTHONPATH=src python3 perfbench/trace.py SPEC.json

Runs in a fresh interpreter, so heap and collector state match a CLI
process. Each command is replayed by calling the layers' public
functions in the order the CLI handler calls them, with a span around
each call (name, start, end, parent; spans of one invocation share its
id) and counts taken at the same boundaries. Spans stay in memory until
the end, then go to the spans file.

Off-path commands (those the workload does not cycle through) are
replayed once first, so that every layer is measured on this workload's
input. Then, per iteration, every on-path command runs three ways:
traced replay and the same replay untraced, in alternating order, then
`cli.run(argv)` with stdout captured. The last line of
stdout is a JSON object of per-layer metrics.
"""

from __future__ import annotations

import gc
import time

_now = time.perf_counter_ns


class GcLog:
    """Collector pauses seen through gc.callbacks, tagged with an activity."""

    def __init__(self):
        self.activity = "import"
        self.pauses: list[tuple[str, int]] = []  # (activity, nanoseconds)
        self._start = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = _now()
        else:
            self.pauses.append((self.activity, _now() - self._start))

    def during(self, activity: str) -> list[int]:
        return [ns for tag, ns in self.pauses if tag == activity]


# Installed before fmeakit is imported, so the import's collections count.
GC = GcLog()
gc.callbacks.append(GC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from fmeakit import cli  # noqa: E402
from fmeakit.analysis import (  # noqa: E402
    DEFAULT_BANDS, MatrixAxes, collisions, rank, risk_matrix, summary_stats)
from fmeakit.dataset import bundled_csv_bytes, microgrid_worksheet  # noqa: E402
from fmeakit.ingest import emit_json, parse_csv, parse_json  # noqa: E402
from fmeakit.report import (  # noqa: E402
    analysis_payload, render_analysis_csv, render_analysis_markdown,
    render_fmea_report, render_matrix_svg, render_scales_csv,
    render_simulation_text)
from fmeakit.simulate import SimConfig, simulate_worksheet  # noqa: E402
from fmeakit.worksheet import validate_worksheet  # noqa: E402

GC.activity = "replay"


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, str, int, int]] = []
        self.counts: list[tuple[str, str, float]] = []
        self.enabled = True
        self.invocation = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, self.invocation, name, 0, 0))
        self._stack.append(span_id)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.invocation, name, start, end)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((self.invocation, name, value))


def _load(tr: Tracer, path: str):
    with tr.span("ingest.read"):
        with open(path, "rb") as handle:
            data = handle.read()
    tr.count("ingest.bytes_in", len(data))
    parse = parse_json if path.endswith(".json") else parse_csv
    with tr.span(f"ingest.{parse.__name__}"):
        ws = parse(data)
    tr.count("ingest.entries_accepted", len(ws))
    return ws


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def replay(tr: Tracer, argv: list[str]) -> bytes:
    """What `fmeakit <argv>` writes to stdout, one span per layer call."""
    command = argv[0]
    if command == "validate":
        ws = _load(tr, argv[-1])
        with tr.span("worksheet.validate_worksheet"):
            violations = validate_worksheet(ws)
        tr.count("worksheet.violations", len(violations))
        out = f"OK: {len(ws)} entries, no violations\n"
    elif command == "analyze":
        ws = _load(tr, argv[-1])
        with tr.span("analysis.rank"):
            results = rank(ws, DEFAULT_BANDS)
        with tr.span("analysis.collisions"):
            groups = collisions(ws)
        flagged = [r for r in results if r.discrepancy]
        tr.count("analysis.collision_groups", len(groups))
        tr.count("analysis.discrepancies", len(flagged))
        with tr.span("analysis.summary_stats"):
            summary = summary_stats(ws, DEFAULT_BANDS)
        fmt = _option(argv, "--format", "md")
        parts = (ws, results, groups, flagged, summary, DEFAULT_BANDS)
        if fmt == "md":
            with tr.span("report.render_analysis_markdown"):
                out = render_analysis_markdown(*parts)
        elif fmt == "csv":
            with tr.span("report.render_analysis_csv"):
                out = render_analysis_csv(*parts)
        else:
            with tr.span("report.analysis_payload"):
                document = analysis_payload(*parts)
            with tr.span("cli.encode_json"):
                out = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    elif command == "matrix":
        ws = _load(tr, argv[-1])
        with tr.span("analysis.risk_matrix"):
            matrix = risk_matrix(ws, MatrixAxes(_option(argv, "--axes", "")))
        with tr.span("report.render_matrix_svg"):
            out = render_matrix_svg(matrix)
    elif command == "report":
        ws = _load(tr, argv[-1])
        with tr.span("analysis.rank"):
            results = rank(ws, DEFAULT_BANDS)
        with tr.span("report.render_fmea_report"):
            out = render_fmea_report(ws, results)
    elif command == "simulate":
        ws = _load(tr, argv[-1])
        cfg = SimConfig(trials=int(_option(argv, "--trials", "")),
                        seed=int(_option(argv, "--seed", "0")))
        with tr.span("simulate.simulate_worksheet"):
            results = simulate_worksheet(ws, cfg)
        tr.count("simulate.agree_ratio",
                 sum(r.agrees for r in results) / max(1, len(results)))
        with tr.span("report.render_simulation_text"):
            out = render_simulation_text(results, [e.component for e in ws.entries])
    elif command == "dataset":
        if _option(argv, "--format", "csv") == "json":
            with tr.span("dataset.microgrid_worksheet"):
                ws = microgrid_worksheet()
            with tr.span("ingest.emit_json"):
                out = emit_json(ws)
        else:
            with tr.span("dataset.bundled_csv_bytes"):
                out = bundled_csv_bytes()
    elif command == "scales":
        with tr.span("report.render_scales_csv"):
            out = render_scales_csv(None)
    else:
        raise ValueError(f"no replay for {command!r}")
    data = out if isinstance(out, bytes) else out.encode("utf-8")
    tr.count("report.bytes_out", len(data))
    return data


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """`cli.run(argv)` in this process with stdout captured as bytes."""
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        code = cli.run(argv)
    stdout.flush()
    return code, buffer.getvalue()


def _ms(ns: float) -> float:
    return ns / 1e6


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    path, off_path = spec["path"], spec["off_path"]
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = Tracer()
    deadline = _now() + spec["seconds"] * 1e9
    for k, argv in enumerate(off_path, start=len(path)):
        tr.enabled, tr.invocation = True, f"off.{k}"
        with tr.span("cli." + argv[0]):
            (out_dir / f"{k}.out").write_bytes(replay(tr, argv))

    cli_ms, untraced_ms, roots = [], [], []
    unattributed, overhead, mismatches = [], [], []
    iteration, last = 0, 0
    while iteration == 0 or _now() + last <= deadline:
        begin = _now()
        for k, argv in enumerate(path):
            def traced():
                tr.enabled, tr.invocation = True, f"{iteration}.{k}"
                with tr.span("cli." + argv[0]):
                    return replay(tr, argv)

            def untraced():
                tr.enabled = False
                start = _now()
                replay(tr, argv)
                untraced_ms.append(_ms(_now() - start))

            if iteration % 2:
                replayed = traced()
                untraced()
            else:
                untraced()
                replayed = traced()
            root = next(s for s in reversed(tr.spans) if s[1] is None)
            children = sum(s[5] - s[4] for s in tr.spans[root[0] + 1:]
                           if s[1] == root[0])
            GC.activity = "cli"
            start = _now()
            code, out = run_cli(argv)
            wall = _now() - start
            GC.activity = "replay"
            cli_ms.append(_ms(wall))
            roots.append(_ms(root[5] - root[4]))
            overhead.append(roots[-1] - untraced_ms[-1])
            unattributed.append(_ms(wall - children))
            if code != 0 or replayed != out:
                mismatches.append(argv)
            (out_dir / f"{k}.out").write_bytes(out)
        last = _now() - begin
        iteration += 1

    # Layer times and counts come from the on-path invocations; a layer
    # the workload never reaches is measured by the off-path replays.
    on_durations: dict[str, list[float]] = {}
    off_durations: dict[str, list[float]] = {}
    self_ns: dict[str, float] = {}
    child_ns = [0] * len(tr.spans)
    for span_id, parent, _, _, start, end in tr.spans:
        if parent is not None:
            child_ns[parent] += end - start
    for span_id, parent, invocation, name, start, end in tr.spans:
        off = invocation.startswith("off.")
        if parent is not None:
            (off_durations if off else on_durations).setdefault(
                name, []).append(_ms(end - start))
        if not off:
            self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[span_id])
    on_counts: dict[str, list[float]] = {}
    off_counts: dict[str, list[float]] = {}
    for invocation, name, value in tr.counts:
        (off_counts if invocation.startswith("off.") else on_counts).setdefault(
            name, []).append(value)

    on_path = len(roots)
    total_self = sum(self_ns.values())
    print(f"traced: {iteration} iterations of {len(path)} on-path commands, "
          f"{len(off_path)} off-path commands once; {len(tr.spans)} spans")
    print("self time per on-path invocation, largest first:")
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name}: {_ms(ns / on_path):.3f} ms ({100 * ns / total_self:.1f}%)")
    print(f"tracing overhead: {statistics.median(overhead):.3f} ms per invocation "
          f"(traced {statistics.median(roots):.3f} ms, untraced "
          f"{statistics.median(untraced_ms):.3f} ms)")

    import_gc, cli_gc = GC.during("import"), GC.during("cli")
    metrics = {f"{name}_ms": (statistics.median(values), "ms") for name, values
               in {**off_durations, **on_durations}.items()}
    metrics.update({
        name: (statistics.median(values), "ratio" if "ratio" in name else "count")
        for name, values in {**off_counts, **on_counts}.items()})
    metrics.update({
        "cli.run_ms": (statistics.median(cli_ms), "ms"),
        "cli.unattributed_ms": (statistics.median(unattributed), "ms"),
        "trace.overhead_ms": (statistics.median(overhead), "ms"),
        "python.gc_collections": (len(import_gc) + len(cli_gc) / on_path, "count"),
        "python.gc_ms": (_ms(sum(import_gc) + sum(cli_gc) / on_path), "ms"),
    })

    Path(spec["spans_file"]).write_text(json.dumps({
        "spans": [dict(zip(("id", "parent", "invocation", "name", "start_ns",
                            "end_ns"), span)) for span in tr.spans],
        "counts": [dict(zip(("invocation", "name", "value"), c)) for c in tr.counts],
    }))
    print(json.dumps({"metrics": {k: list(v) for k, v in metrics.items()},
                      "mismatches": mismatches}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
