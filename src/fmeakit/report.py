"""Deterministic rendering of analysis results.

Every renderer here is a pure function of its inputs and produces the
same bytes on every call: line-feed newlines only, no locale-dependent
number formatting, no timestamps, no generated ids. Mean RPN is rendered
to two decimal places. These outputs are the golden-file surface of the
tool, so any change to them is a contract change.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import attrgetter

from .analysis import (
    ClassBands,
    CollisionGroup,
    RiskMatrix,
    RpnResult,
    Summary,
)
from .ingest import _csv_cell, csv_text
from .scales import DETECTION_SCALE, OCCURRENCE_SCALE, SEVERITY_SCALE
from .simulate import SimResult
from .worksheet import RATING_FIELDS, ClassLabel, Worksheet

# The ranked-row fields: JSON key (and CSV header), then Markdown heading.
# entry_index has no heading: only JSON carries it.
_RANKED_FIELDS = (
    ("rank", "Rank"),
    ("entry_index", None),
    ("component", "Component"),
    ("failure_mode", "Failure Mode"),
    ("severity", "S"),
    ("occurrence", "O"),
    ("detection", "D"),
    ("rpn", "RPN"),
    ("computed_class", "Computed Class"),
    ("declared_class", "Declared Class"),
    ("discrepancy", "Discrepancy"),
)
# In a table row, entry_index (the second field) is taken by %.0s, which writes nothing.
_MD_ROW = "| %s%.0s" + " | %s" * (len(_RANKED_FIELDS) - 2) + " |"
_MD_HEADER = (_MD_ROW % tuple(heading for _, heading in _RANKED_FIELDS),
              _MD_ROW % (("---",) * len(_RANKED_FIELDS)))
# The ranked and discrepancy CSV tables, a template per row each; the text
# cells are spelt by _csv_cell, as csv_text spells every cell.
_CSV_ROW = "%s%.0s" + ",%s" * (len(_RANKED_FIELDS) - 2) + "\n"
_CSV_HEADER = _CSV_ROW % tuple(key for key, _ in _RANKED_FIELDS)
_FLAGGED_CSV_HEADER = "rank,component,rpn,computed_class,declared_class\n"
_FLAGGED_CSV_ROW = "%s,%s,%s,%s,%s\n"
# Each label's text, looked up without an Enum descriptor call per row.
_LABEL_TEXT = {label: label.value for label in ClassLabel}
# A ranked record and a collision group of the analysis document, as
# json.dumps spells them with indent=2 as items of a top-level list: keys at
# six spaces and the item at four.
_JSON_ROW = "{" + ",".join(f"\n      {encode_basestring(key)}: %s"
                           for key, _ in _RANKED_FIELDS) + "\n    }"
_JSON_GROUP = ('{\n      "rpn": %s,\n      "members": [\n        %s\n      ],'
               '\n      "components": [\n        %s\n      ]\n    }')
# Each class, no class (None) included, as each ranked-row format spells it.
_MD_LABELS = {None: "-", **_LABEL_TEXT}
_CSV_LABELS = {None: "", **_LABEL_TEXT}
_JSON_LABELS = {None: "null", **{label: encode_basestring(text)
                                 for label, text in _LABEL_TEXT.items()}}


def _one_line(text: str) -> str:
    # CommonMark ends a line at LF, CRLF and a bare CR alike: each becomes a space.
    if "\n" in text or "\r" in text:
        return text.replace("\r\n", " ").replace("\n", " ").replace("\r", " ")
    return text


def _md_cell(text: str) -> str:
    # A worksheet-text cell of a Markdown table: on one line, and a "|"
    # escaped so that it does not end the cell.
    return _one_line(text).replace("|", "\\|")


def _table_rows(results: list[RpnResult], ws: Worksheet, cell: Callable[[str], str],
                labels: dict[ClassLabel | None, str], flags: tuple[str, str]) -> list[tuple]:
    """Ranked rows, each its values in _RANKED_FIELDS order, as every format
    spells them: numbers as ints, the two worksheet-text cells passed
    through *cell*, each class as *labels* has it (None, no class,
    included), the discrepancy flag as flags[0] (no) or flags[1] (yes)."""
    entries = ws.entries
    rows = []
    for result in results:
        entry = entries[result.entry_index]
        triple = entry.triple
        rows.append((result.rank, result.entry_index, cell(entry.component),
                     cell(entry.failure_mode), triple.severity,
                     triple.occurrence, triple.detection, result.rpn,
                     labels[result.computed_class], labels[result.declared_class],
                     flags[result.discrepancy]))
    return rows


def render_fmea_report(ws: Worksheet, results: list[RpnResult]) -> str:
    """Render the full worksheet report, one section per entry in rank order.

    Each section carries the complete row: failure mode, ratings, effects,
    cause, classification (the declared label when present, otherwise the
    computed one), controls, and RPN. The title and each text cell are
    written on one line.
    """
    entries = ws.entries
    sections = ["# FMEA report: %s" % _one_line(ws.title) if ws.title else "# FMEA report"]
    sections += [f"""

## {result.rank}. {_one_line(entry.component)}

- Failure mode: {_one_line(entry.failure_mode) or "-"}
- Severity (S): {entry.triple.severity}
- Effect: {_one_line(entry.effect) or "-"}
- End effect: {_one_line(entry.end_effect) or "-"}
- Cause: {_one_line(entry.cause) or "-"}
- Classification: {_LABEL_TEXT[entry.declared_classification or result.computed_class]}
- Occurrence (O): {entry.triple.occurrence}
- Prevention controls: {_one_line(entry.prevention_controls) or "-"}
- Detection controls: {_one_line(entry.detection_controls) or "-"}
- Detection (D): {entry.triple.detection}
- RPN: {result.rpn}""" for result in results for entry in [entries[result.entry_index]]]
    sections.append("\n")
    return "".join(sections)


# The matrix layout: ratings 1 to 10 across, severity 10 at the top.
_AXIS = range(1, 11)


def _matrix_rows(matrix: RiskMatrix) -> Iterator[tuple[int, list[int]]]:
    """Each severity row, top first, with its counts for ratings 1 to 10."""
    for severity in reversed(_AXIS):
        yield severity, [matrix.count(severity, x) for x in _AXIS]


def render_matrix_text(matrix: RiskMatrix) -> str:
    """Render a 10x10 count grid, severity 10 at the top, zeros as "."."""
    second = matrix.axes.second_name
    corner = "S\\" + second[0]
    lines = [
        f"Risk matrix: Severity vs {second}",
        f"Rows: severity 10 (top) to 1. Columns: {second.lower()} 1 to 10. "
        "Zero cells shown as \".\".",
        "",
        f"{corner:>4}" + "".join(f"{x:>5}" for x in _AXIS),
    ]
    for severity, counts in _matrix_rows(matrix):
        lines.append(f"{severity:>4}" + "".join(f"{count or '.':>5}" for count in counts))
    return "\n".join(lines) + "\n"


def render_matrix_csv(matrix: RiskMatrix) -> str:
    """Render the count grid as CSV, one row per severity (10 down to 1)."""
    prefix = matrix.axes.second_name[0].lower()
    rows: list[list[object]] = [["severity"] + [f"{prefix}{x}" for x in _AXIS]]
    rows += ([severity, *counts] for severity, counts in _matrix_rows(matrix))
    return csv_text(rows)


_CELL = 40
_LEFT, _TOP, _RIGHT, _BOTTOM = 70, 50, 20, 60
_HEAT_RGB = (178, 24, 43)  # saturated end of the white-to-red ramp


def _heat_fill(count: int, max_count: int) -> str:
    if count == 0:  # max_count is 0 only when every count is
        return "#ffffff"
    f = count / max_count
    channels = (round(255 + (c - 255) * f) for c in _HEAT_RGB)
    return "#" + "".join(f"{c:02x}" for c in channels)


def render_matrix_svg(matrix: RiskMatrix) -> bytes:
    """Render the matrix as a standalone SVG heatmap, byte-deterministic.

    Exactly 100 cell rectangles; fill intensity is linear in count from
    white (zero) to a single saturated hue (the matrix maximum); counts
    are overlaid on non-empty cells.
    """
    second = matrix.axes.second_name
    width = _LEFT + 10 * _CELL + _RIGHT
    height = _TOP + 10 * _CELL + _BOTTOM
    grid_cx = _LEFT + 5 * _CELL
    grid_cy = _TOP + 5 * _CELL
    max_count = matrix.max_count()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g font-family="sans-serif" font-size="14">',
        f'<text x="{grid_cx}" y="30" text-anchor="middle" font-size="18">'
        f'Risk matrix: Severity vs {second}</text>',
    ]
    numerals = []
    for severity, counts in _matrix_rows(matrix):
        y = _TOP + (10 - severity) * _CELL
        for x_rating, count in zip(_AXIS, counts):
            x = _LEFT + (x_rating - 1) * _CELL
            fill = _heat_fill(count, max_count)
            parts.append(
                f'<rect class="cell" x="{x}" y="{y}" width="{_CELL}" '
                f'height="{_CELL}" fill="{fill}" stroke="#cccccc"/>')
            if count:
                text_fill = "#ffffff" if count / max_count > 0.5 else "#000000"
                numerals.append(
                    f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 5}" '
                    f'text-anchor="middle" fill="{text_fill}">{count}</text>')
    parts.extend(numerals)

    for x_rating in _AXIS:
        x = _LEFT + (x_rating - 1) * _CELL + _CELL // 2
        parts.append(f'<text x="{x}" y="{_TOP + 10 * _CELL + 20}" '
                     f'text-anchor="middle">{x_rating}</text>')
    for severity in _AXIS:
        y = _TOP + (10 - severity) * _CELL + _CELL // 2 + 5
        parts.append(f'<text x="{_LEFT - 10}" y="{y}" '
                     f'text-anchor="end">{severity}</text>')
    parts.append(f'<text x="{grid_cx}" y="{_TOP + 10 * _CELL + 45}" '
                 f'text-anchor="middle">{second}</text>')
    parts.append(f'<text transform="rotate(-90 18 {grid_cy})" x="18" y="{grid_cy}" '
                 f'text-anchor="middle">Severity</text>')
    parts.append("</g>")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _mean_text(summary: Summary) -> str:
    mean = summary.rpn_mean
    return f"{mean.numerator / mean.denominator:.2f}"


def _class_counts_text(counts: dict[ClassLabel, int]) -> str:
    return ", ".join(f"{label.value} {counts[label]}" for label in ClassLabel)


def render_analysis_markdown(ws: Worksheet, results: list[RpnResult],
                             groups: list[CollisionGroup],
                             flagged: list[RpnResult],
                             summary: Summary, bands: ClassBands) -> str:
    """Assemble the full analysis document: ranked table, rows in rank
    order, then collisions and discrepancies; each worksheet-text cell on
    one line."""
    lines = ["# FMEA analysis", ""]
    lines.append(f"Class bands: {bands.describe()}")
    if summary.entries:
        lines.append(f"Entries: {summary.entries} | RPN min {summary.rpn_min}, "
                     f"max {summary.rpn_max}, mean {_mean_text(summary)}")
        lines.append("Computed classes: "
                     + _class_counts_text(summary.computed_class_counts))
        lines.append("Declared classes: "
                     + _class_counts_text(summary.declared_class_counts))
    else:
        lines.append("Entries: 0")
    lines.append("")
    lines += _MD_HEADER
    ranked = _table_rows(results, ws, _md_cell, _MD_LABELS, ("no", "yes"))
    lines += map(_MD_ROW.__mod__, ranked)
    lines.append("")
    lines.append("## Collisions")
    lines.append("")
    if groups:
        for group in groups:
            # "; " holds no line break, so this is _one_line on each name.
            names = _one_line("; ".join([ws.entries[i].component for i in group.members]))
            lines.append(f"- RPN {group.rpn} ({len(group.members)} entries): {names}")
    else:
        lines.append("(none)")
    lines.append("")
    lines.append("## Discrepancies")
    lines.append("")
    if flagged:
        for result in flagged:
            entry = ws.entries[result.entry_index]
            lines.append(f"- {_one_line(entry.component)}: declared "
                         f"{_LABEL_TEXT.get(result.declared_class, '-')}, computed "
                         f"{_LABEL_TEXT[result.computed_class]} (RPN {result.rpn})")
    else:
        lines.append("(none)")
    return "\n".join(lines) + "\n"


def render_analysis_csv(ws: Worksheet, results: list[RpnResult],
                        groups: list[CollisionGroup],
                        flagged: list[RpnResult],
                        summary: Summary, bands: ClassBands) -> str:
    """Analysis as four CSV tables separated by blank lines: summary
    (including the bands in force), ranked results (machine-readable
    headers, an empty cell for a missing declared class, true/false for
    the flag), collisions, discrepancies."""
    summary_rows: list[list[object]] = [
        ["entries", "rpn_min", "rpn_max", "rpn_mean",
         "marginal_min", "critical_min", "catastrophic_min"],
        [summary.entries, summary.rpn_min, summary.rpn_max,
         None if summary.rpn_mean is None else _mean_text(summary),
         bands.marginal_min, bands.critical_min, bands.catastrophic_min],
    ]
    ranked = _table_rows(results, ws, _csv_cell, _CSV_LABELS, ("false", "true"))
    out = [csv_text(summary_rows), _CSV_HEADER + "".join(map(_CSV_ROW.__mod__, ranked))]

    collision_rows: list[list[object]] = [["rpn", "member_indices", "member_components"]]
    for group in groups:
        collision_rows.append([
            group.rpn,
            ";".join(str(i) for i in group.members),
            ";".join(ws.entries[i].component for i in group.members),
        ])
    out.append(csv_text(collision_rows))

    entries = ws.entries
    out.append(_FLAGGED_CSV_HEADER + "".join([_FLAGGED_CSV_ROW % (
        result.rank, _csv_cell(entries[result.entry_index].component), result.rpn,
        _LABEL_TEXT[result.computed_class], _LABEL_TEXT.get(result.declared_class, "-"))
        for result in flagged]))
    return "\n".join(out)


def _json_list(out: list[str], items: Iterable[str], after: str) -> None:
    """Append a top-level list of the analysis document to *out*: its
    items, already spelt, each after a separator interleaved in C, the
    first separator then made the opening bracket; then *after*."""
    start = len(out)
    out += chain.from_iterable(zip(repeat(",\n    "), items))
    if len(out) == start:
        out.append("[]" + after)
    else:
        out[start] = "[\n    "
        out.append("\n  ]" + after)


def render_analysis_json(ws: Worksheet, results: list[RpnResult],
                         groups: list[CollisionGroup], flagged: list[RpnResult],
                         summary: Summary, bands: ClassBands) -> str:
    """The analysis document, the --format json text, as json.dumps writes
    it with indent=2 and ensure_ascii=False plus a line feed. The head
    (bands and summary) is json.dumps's own text; each ranked record and
    each collision group is spelt from one template, a flagged record's
    text serves both "results" and "discrepancies", and all the pieces are
    joined once."""
    entries = ws.entries
    records = {row[1]: _JSON_ROW % row for row in _table_rows(
        results, ws, encode_basestring, _JSON_LABELS, ("false", "true"))}
    spelt_groups = [_JSON_GROUP % (
        group.rpn, ",\n        ".join(map(str, group.members)),
        ",\n        ".join([encode_basestring(entries[i].component) for i in group.members]))
        for group in groups]
    head = {"bands": [bands.marginal_min, bands.critical_min, bands.catastrophic_min],
            "summary": {
                "entries": summary.entries,
                "rpn_min": summary.rpn_min,
                "rpn_max": summary.rpn_max,
                "rpn_mean": None if summary.rpn_mean is None else float(_mean_text(summary)),
                "computed_class_counts": {label.value: summary.computed_class_counts[label]
                                          for label in ClassLabel},
                "declared_class_counts": {label.value: summary.declared_class_counts[label]
                                          for label in ClassLabel}}}
    # The head does not grow with the sheet: json.dumps spells it, and the
    # lists take the place of its closing brace.
    out = [json.dumps(head, indent=2, ensure_ascii=False).removesuffix("\n}")
           + ',\n  "results": ']
    _json_list(out, records.values(), ',\n  "collisions": ')
    _json_list(out, spelt_groups, ',\n  "discrepancies": ')
    _json_list(out, [records[r.entry_index] for r in flagged], "\n}\n")
    return "".join(out)


def analysis_payload(ws: Worksheet, results: list[RpnResult],
                     groups: list[CollisionGroup], flagged: list[RpnResult],
                     summary: Summary, bands: ClassBands) -> dict:
    """The analysis document as a dict: render_analysis_json's text, read back."""
    return json.loads(render_analysis_json(ws, results, groups, flagged, summary, bands))


# The simulation table's padded columns, each a SimResult field and the
# conversion that spells its cell; the last column, agrees, is yes or no.
_SIM_COLUMNS = (("rating_in", "s"), ("trials", "s"), ("failures", "s"),
                ("empirical_rate", ".8f"), ("rating_out", "s"))
_SIM_FIELDS = (*(field for field, _ in _SIM_COLUMNS), "agrees")


def render_simulation_text(results: list[SimResult],
                           components: list[str] | None = None) -> str:
    """Simulation results as an aligned text table, one template per row:
    each column left-aligned to its widest cell, two spaces apart, the
    last one unpadded.

    When components is given (worksheet mode), one per result, a leading
    component column identifies each row, each line break in it a space.

    Each row is written straight from its result: the ints by %s, the
    rate to eight decimals, agrees as yes or no. A column's width comes
    from its field's least and greatest value, whose cells are the widest
    for ints and finite floats, which is what simulate makes; no cell is
    spelt to size a column.
    """
    # Without components, the component column is taken by %.0s, which writes nothing.
    names: Iterable[str] = repeat("") if components is None else components
    head = row = "%.0s" if components is None else "%%-%ds  " % max(
        map(len, map(_one_line, chain(["component"], components))))
    for field, conversion in _SIM_COLUMNS:
        width = len(field)
        if results:
            value = attrgetter(field)
            for end in min(map(value, results)), max(map(value, results)):
                width = max(width, len(("%" + conversion) % end))
        head += "%%-%ds  " % width
        row += "%%-%d%s  " % (width, conversion)
    cells = ((_one_line(name), result.rating_in, result.trials, result.failures,
              result.empirical_rate, result.rating_out, "yes" if result.agrees else "no")
             for name, result in zip(names, results))
    return "".join(chain([(head + "%s\n") % ("component", *_SIM_FIELDS)],
                         map((row + "%s\n").__mod__, cells)))


_SCALES = tuple(zip(RATING_FIELDS, (SEVERITY_SCALE, OCCURRENCE_SCALE, DETECTION_SCALE)))


def render_scales_csv(which: str | None = None) -> str:
    """Dump the rating scales as CSV (scale, rating, label, criteria).

    which selects a single scale by initial ("s", "o", "d"); None dumps
    all three.
    """
    rows: list[list[object]] = [["scale", "rating", "label", "criteria"]]
    for name, table in _SCALES:
        if which is not None and not name.startswith(which):
            continue
        for row in table:
            rows.append([name, row.rating, row.label, row.criteria])
    return csv_text(rows)
