"""Output oracle for the fmeakit CLI, built from the generated rows.

Every expectation is computed here from the worksheet rows the benchmark
wrote (ratings, names, declared classes), following the README's rules,
never from fmeakit's own output. Simulated failure counts are never
pinned: only their shape (row count, rating_in, failures <= trials) is.

`check(argv, stdout, expected)` returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from dataclasses import dataclass

from gen import NARRATIVE, Row, read_csv

BANDS = (100, 200, 500)
LABELS = ("Catastrophic", "Critical", "Marginal", "Negligible")
SCALES = ("severity", "occurrence", "detection")


def classify(value: int) -> str:
    """Class band of an RPN under the default bands (boundaries go up)."""
    marginal, critical, catastrophic = BANDS
    if value >= catastrophic:
        return "Catastrophic"
    if value >= critical:
        return "Critical"
    if value >= marginal:
        return "Marginal"
    return "Negligible"


def _declared(text: str) -> str | None:
    return text.strip().capitalize() if text.strip() else None


@dataclass(frozen=True)
class Ranked:
    """One expected ranked row: the entry plus what the CLI derives."""

    rank: int
    index: int
    row: Row
    rpn: int
    computed: str
    declared: str | None

    @property
    def discrepancy(self) -> bool:
        return self.declared is not None and self.declared != self.computed


class Expected:
    """Everything the oracle expects of one worksheet's outputs."""

    def __init__(self, rows: list[Row], title: str = ""):
        self.rows = rows
        self.title = title
        rpns = [r.severity * r.occurrence * r.detection for r in rows]
        # README tie rule: RPN, S, O, D descending, then component name;
        # sorted() is stable, so remaining ties keep worksheet order.
        order = sorted(range(len(rows)), key=lambda i: (
            -rpns[i], -rows[i].severity, -rows[i].occurrence,
            -rows[i].detection, rows[i].component))
        self.ranked = [
            Ranked(pos, i, rows[i], rpns[i], classify(rpns[i]),
                   _declared(rows[i].declared_classification))
            for pos, i in enumerate(order, start=1)]
        self.flagged = [r for r in self.ranked if r.discrepancy]
        members: dict[int, list[int]] = {}
        for i, value in enumerate(rpns):
            members.setdefault(value, []).append(i)
        self.collisions = [(value, idx) for value, idx
                           in sorted(members.items(), reverse=True) if len(idx) >= 2]
        self.matrix_so = Counter((r.severity, r.occurrence) for r in rows)
        self.rpn_min = min(rpns)
        self.rpn_max = max(rpns)
        self.rpn_mean = f"{sum(rpns) / len(rpns):.2f}"
        self.computed_counts = Counter(r.computed for r in self.ranked)
        self.declared_counts = Counter(r.declared for r in self.ranked
                                       if r.declared is not None)

    def __len__(self) -> int:
        return len(self.rows)


class _Problems(list):
    def expect(self, what: str, got: object, want: object) -> None:
        if got != want and len(self) < 20:
            self.append(f"{what}: got {got!r}, expected {want!r}")


def _counts_text(counts: Counter) -> str:
    return ", ".join(f"{label} {counts[label]}" for label in LABELS)


def _check_validate(out: str, exp: Expected, bad: _Problems) -> None:
    bad.expect("validate output", out, f"OK: {len(exp)} entries, no violations\n")


def _md_cells(line: str) -> list[str]:
    return [cell.replace("\\|", "|") for cell in
            re.split(r"(?<!\\) \| ", line[2:-2])]


def _check_analyze_md(out: str, exp: Expected, bad: _Problems) -> None:
    lines = out.split("\n")
    bad.expect("summary line", lines[3] if len(lines) > 3 else None,
               f"Entries: {len(exp)} | RPN min {exp.rpn_min}, max {exp.rpn_max}, "
               f"mean {exp.rpn_mean}")
    bad.expect("computed classes", lines[4] if len(lines) > 4 else None,
               "Computed classes: " + _counts_text(exp.computed_counts))
    rows = [_md_cells(line) for line in lines[9:9 + len(exp)]]
    want = [[str(r.rank), r.row.component, r.row.failure_mode, str(r.row.severity),
             str(r.row.occurrence), str(r.row.detection), str(r.rpn), r.computed,
             r.declared or "-", "yes" if r.discrepancy else "no"]
            for r in exp.ranked]
    _compare_rows("ranked row", rows, want, bad)
    rest = lines[9 + len(exp):]
    groups = [line for line in rest if line.startswith("- RPN ")]
    bad.expect("collision groups", groups, [
        f"- RPN {value} ({len(idx)} entries): "
        + "; ".join(exp.rows[i].component for i in idx)
        for value, idx in exp.collisions])
    flagged = [line for line in rest if ": declared " in line]
    bad.expect("discrepancies", flagged, [
        f"- {r.row.component}: declared {r.declared}, computed {r.computed} "
        f"(RPN {r.rpn})" for r in exp.flagged])


def _compare_rows(what: str, got: list, want: list, bad: _Problems) -> None:
    bad.expect(f"{what} count", len(got), len(want))
    for position, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            bad.expect(f"{what} {position}", g, w)
            return


def _check_analyze_csv(out: str, exp: Expected, bad: _Problems) -> None:
    tables = [list(csv.reader(io.StringIO(part, newline="")))
              for part in out.split("\n\n")]
    if len(tables) != 4:
        bad.expect("csv table count", len(tables), 4)
        return
    summary, ranked, groups, flagged = tables
    bad.expect("summary row", summary[1:], [[
        str(len(exp)), str(exp.rpn_min), str(exp.rpn_max), exp.rpn_mean,
        *(str(b) for b in BANDS)]])
    _compare_rows("ranked row", ranked[1:], [
        [str(r.rank), r.row.component, r.row.failure_mode, str(r.row.severity),
         str(r.row.occurrence), str(r.row.detection), str(r.rpn), r.computed,
         r.declared or "", "true" if r.discrepancy else "false"]
        for r in exp.ranked], bad)
    bad.expect("collision rows", groups[1:], [
        [str(value), ";".join(map(str, idx)),
         ";".join(exp.rows[i].component for i in idx)]
        for value, idx in exp.collisions])
    bad.expect("discrepancy rows", flagged[1:], [
        [str(r.rank), r.row.component, str(r.rpn), r.computed, r.declared]
        for r in exp.flagged])


def _json_record(r: Ranked) -> dict:
    return {
        "rank": r.rank, "entry_index": r.index, "component": r.row.component,
        "failure_mode": r.row.failure_mode, "severity": r.row.severity,
        "occurrence": r.row.occurrence, "detection": r.row.detection,
        "rpn": r.rpn, "computed_class": r.computed, "declared_class": r.declared,
        "discrepancy": r.discrepancy,
    }


def _check_analyze_json(out: str, exp: Expected, bad: _Problems) -> None:
    doc = json.loads(out)
    bad.expect("bands", doc.get("bands"), list(BANDS))
    summary = doc.get("summary", {})
    bad.expect("summary", [summary.get(k) for k in
                           ("entries", "rpn_min", "rpn_max", "rpn_mean")],
               [len(exp), exp.rpn_min, exp.rpn_max, float(exp.rpn_mean)])
    bad.expect("computed class counts", summary.get("computed_class_counts"),
               {label: exp.computed_counts[label] for label in LABELS})
    bad.expect("declared class counts", summary.get("declared_class_counts"),
               {label: exp.declared_counts[label] for label in LABELS})
    _compare_rows("result", doc.get("results", []),
                  [_json_record(r) for r in exp.ranked], bad)
    bad.expect("collisions", doc.get("collisions"), [
        {"rpn": value, "members": idx,
         "components": [exp.rows[i].component for i in idx]}
        for value, idx in exp.collisions])
    _compare_rows("discrepancy", doc.get("discrepancies", []),
                  [_json_record(r) for r in exp.flagged], bad)


_SVG_COUNT = re.compile(r'<text x="\d+" y="\d+" text-anchor="middle" fill="#[0-9a-f]{6}">(\d+)</text>')


def _check_matrix_svg(out: str, exp: Expected, bad: _Problems) -> None:
    bad.expect("svg cells", out.count('<rect class="cell"'), 100)
    counts = sorted(int(c) for c in _SVG_COUNT.findall(out))
    bad.expect("matrix total", sum(counts), len(exp))
    bad.expect("non-empty cell counts", counts, sorted(exp.matrix_so.values()))


def _check_report(out: str, exp: Expected, bad: _Problems) -> None:
    heading = f"# FMEA report: {exp.title}" if exp.title else "# FMEA report"
    bad.expect("report heading", out.split("\n", 1)[0], heading)
    sections = out.split("\n\n## ")[1:]
    got = []
    for section in sections:
        lines = section.split("\n")
        fields = dict(line[2:].split(": ", 1) for line in lines[2:] if ": " in line)
        got.append([lines[0], fields.get("Severity (S)"), fields.get("Occurrence (O)"),
                    fields.get("Detection (D)"), fields.get("RPN"),
                    fields.get("Classification")])
    _compare_rows("report section", got, [
        [f"{r.rank}. {r.row.component}", str(r.row.severity), str(r.row.occurrence),
         str(r.row.detection), str(r.rpn), r.declared or r.computed]
        for r in exp.ranked], bad)


def _check_simulate(out: str, exp: Expected, trials: int, bad: _Problems) -> None:
    lines = out.rstrip("\n").split("\n")
    bad.expect("simulate header", lines[0].split(),
               ["component", "rating_in", "trials", "failures", "empirical_rate",
                "rating_out", "agrees"])
    rows = lines[1:]
    bad.expect("simulate rows", len(rows), len(exp))
    for index, (line, row) in enumerate(zip(rows, exp.rows)):
        component, rating_in, n, failures, rate, rating_out, agrees = \
            line.rsplit(maxsplit=6)
        problem = (
            component.rstrip() != row.component or rating_in != str(row.occurrence)
            or n != str(trials) or not 0 <= int(failures) <= trials
            or rate != f"{int(failures) / trials:.8f}"
            or not 1 <= int(rating_out) <= 10
            or agrees != ("yes" if rating_out == rating_in else "no"))
        if problem:
            bad.expect(f"simulate row {index}", line, "consistent with the entry")
            return


def _check_dataset_csv(out: str, exp: Expected, bad: _Problems) -> None:
    bad.expect("dataset rows", read_csv(out.encode("utf-8")), exp.rows)


def _check_dataset_json(out: str, exp: Expected, bad: _Problems) -> None:
    doc = json.loads(out)
    bad.expect("dataset entries", doc.get("entries"), [
        {**{name: getattr(row, name) for name in
            ("component", "failure_mode", "severity", "occurrence", "detection",
             *NARRATIVE)},
         "declared_classification": _declared(row.declared_classification)}
        for row in exp.rows])


def _check_scales(out: str, bad: _Problems) -> None:
    rows = list(csv.reader(io.StringIO(out, newline="")))
    bad.expect("scales header", rows[0], ["scale", "rating", "label", "criteria"])
    bad.expect("scale points", sorted((r[0], int(r[1])) for r in rows[1:]),
               sorted((s, k) for s in SCALES for k in range(1, 11)))
    if not all(r[2] and r[3] for r in rows[1:]):
        bad.append("scales: empty label or criteria")


def check(argv: list[str], out: bytes, exp: Expected) -> list[str]:
    """Problems in the stdout of `fmeakit <argv>`; [] when it is correct.

    Supports exactly the command lines the benchmark runs. `exp` describes
    the worksheet named in argv (or the bundled one, for `dataset`).
    """
    bad = _Problems()
    try:
        text = out.decode("utf-8")
        command, options = argv[0], argv[1:]
        if command == "validate":
            _check_validate(text, exp, bad)
        elif command == "analyze":
            fmt = options[options.index("--format") + 1] if "--format" in options else "md"
            {"md": _check_analyze_md, "csv": _check_analyze_csv,
             "json": _check_analyze_json}[fmt](text, exp, bad)
        elif command == "matrix":
            _check_matrix_svg(text, exp, bad)
        elif command == "report":
            _check_report(text, exp, bad)
        elif command == "simulate":
            _check_simulate(text, exp, int(options[options.index("--trials") + 1]), bad)
        elif command == "dataset":
            json_format = "--format" in options and options[-1] == "json"
            (_check_dataset_json if json_format else _check_dataset_csv)(text, exp, bad)
        elif command == "scales":
            _check_scales(text, bad)
        else:
            bad.append(f"no oracle for {command!r}")
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        bad.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return list(bad)
