"""Renderer structure and byte determinism."""

from __future__ import annotations

import csv
import io
import random

import pytest

from fmeakit import (
    DEFAULT_BANDS,
    ClassLabel,
    FmeaEntry,
    MatrixAxes,
    RatingTriple,
    Worksheet,
    collisions,
    discrepancies,
    rank,
    risk_matrix,
    summary_stats,
)
from fmeakit.report import (
    analysis_payload,
    render_analysis_csv,
    render_analysis_markdown,
    render_fmea_report,
    render_matrix_csv,
    render_matrix_svg,
    render_matrix_text,
    render_scales_csv,
    render_simulation_text,
)
from fmeakit.simulate import SimConfig, simulate_worksheet


def ranked_markdown(ws):
    """The ranked table of the Markdown analysis: its lines that start "| "."""
    document = render_analysis_markdown(*analysis_parts(ws))
    return [line for line in document.split("\n") if line.startswith("| ")]


def ranked_csv(ws):
    """The ranked table of the CSV analysis: its second blank-line-separated block."""
    return render_analysis_csv(*analysis_parts(ws)).split("\n\n")[1]


def test_ranked_markdown_structure(fixture_ws):
    lines = ranked_markdown(fixture_ws)
    assert lines[0].startswith("| Rank | Component |")
    assert len(lines) == 2 + 15
    # every component appears exactly once as a full cell ("PHEV" must not
    # be counted inside "PHEV supply equipment")
    for entry in fixture_ws.entries:
        assert sum(f"| {entry.component} |" in line for line in lines) == 1


def test_ranked_markdown_escapes_pipes_and_newlines():
    ws = Worksheet("w", [FmeaEntry("A|B", "x\ny", RatingTriple(2, 2, 2))])
    text = "\n".join(ranked_markdown(ws))
    assert "A\\|B" in text
    assert "x y" in text


def test_ranked_csv_parses_back(fixture_ws):
    rows = list(csv.reader(io.StringIO(ranked_csv(fixture_ws))))
    assert rows[0][:3] == ["rank", "component", "failure_mode"]
    assert len(rows) == 16
    assert rows[1][0] == "1" and rows[1][6] == "560"
    assert [r[0] for r in rows[1:]] == [str(n) for n in range(1, 16)]


def test_ranked_csv_missing_declared_is_empty():
    ws = Worksheet("w", [FmeaEntry("A", "x", RatingTriple(2, 2, 2))])
    rows = list(csv.reader(io.StringIO(ranked_csv(ws))))
    assert rows[1][8] == ""
    assert rows[1][9] == "false"


def test_ranked_csv_quotes_carriage_returns():
    # failure_mode is the ranked table's free-text field besides component
    ws = Worksheet("w", [FmeaEntry("A\rB", "x\ry", RatingTriple(2, 2, 2)),
                         FmeaEntry("C", "\r0", RatingTriple(1, 1, 1))])
    rows = list(csv.reader(io.StringIO(ranked_csv(ws), newline="")))
    assert len(rows) == 3
    assert rows[1][1:3] == ["A\rB", "x\ry"]
    assert rows[2][1:3] == ["C", "\r0"]


def test_fmea_report_sections_in_rank_order(fixture_ws):
    text = render_fmea_report(fixture_ws, rank(fixture_ws))
    assert text.startswith("# FMEA report")
    headings = [line for line in text.splitlines() if line.startswith("## ")]
    assert len(headings) == 15
    assert headings[0] == "## 1. Energy Management System (EMS)"
    assert headings[1] == "## 2. Human-machine interface (HMI)"
    assert headings[2] == "## 3. Smart meter"
    assert "intrusion detection systems" in text


def test_fmea_report_single_entry():
    ws = Worksheet("w", [FmeaEntry("A", "x", RatingTriple(2, 2, 2))])
    text = render_fmea_report(ws, rank(ws))
    assert text.count("## ") == 1
    assert "- RPN: 8" in text
    # no declared label, so the computed one is shown
    assert "- Classification: Negligible" in text


def parse_grid(text: str) -> list[list[int]]:
    rows = []
    for line in text.splitlines():
        cells = line.split()
        if cells and cells[0].isdigit():
            rows.append([0 if c == "." else int(c) for c in cells[1:]])
    return rows


def test_matrix_text_grid_conserves_counts(fixture_ws):
    for axes in MatrixAxes:
        grid = parse_grid(render_matrix_text(risk_matrix(fixture_ws, axes)))
        assert len(grid) == 10 and all(len(row) == 10 for row in grid)
        assert sum(sum(row) for row in grid) == 15


def test_matrix_text_spot_cell_and_orientation(fixture_ws):
    text = render_matrix_text(risk_matrix(fixture_ws, MatrixAxes.SEVERITY_DETECTION))
    assert text.startswith("Risk matrix: Severity vs Detection")
    assert "S\\D" in text
    grid = parse_grid(text)
    # first grid row is severity 10; severity 7 row, detection 4 column
    assert grid[10 - 7][4 - 1] == 3


def test_matrix_text_empty_worksheet():
    text = render_matrix_text(risk_matrix(Worksheet(""), MatrixAxes.SEVERITY_OCCURRENCE))
    dot_cells = sum(line.split()[1:].count(".") for line in text.splitlines()
                    if line.split() and line.split()[0].isdigit())
    assert dot_cells == 100


def test_matrix_csv_shape(fixture_ws):
    text = render_matrix_csv(risk_matrix(fixture_ws, MatrixAxes.SEVERITY_OCCURRENCE))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["severity"] + [f"o{i}" for i in range(1, 11)]
    assert [r[0] for r in rows[1:]] == [str(s) for s in range(10, 0, -1)]
    assert sum(int(c) for row in rows[1:] for c in row[1:]) == 15


def test_matrix_svg_structure(fixture_ws):
    matrix = risk_matrix(fixture_ws, MatrixAxes.SEVERITY_OCCURRENCE)
    data = render_matrix_svg(matrix)
    assert data.startswith(b"<svg")
    assert data.count(b'class="cell"') == 100
    assert render_matrix_svg(matrix) == data
    # the (S=5, O=4) cell holds 2 entries, the matrix maximum, so its
    # numeral renders white on the saturated fill
    x = 70 + (4 - 1) * 40 + 20
    y = 50 + (10 - 5) * 40 + 25
    assert f'<text x="{x}" y="{y}" text-anchor="middle" fill="#ffffff">2</text>' \
        .encode() in data
    # a singleton cell (EMS at S=10, O=7) gets a black numeral
    x = 70 + (7 - 1) * 40 + 20
    y = 50 + (10 - 10) * 40 + 25
    assert f'<text x="{x}" y="{y}" text-anchor="middle" fill="#000000">1</text>' \
        .encode() in data


def test_matrix_svg_heat_scale():
    # a single nonzero cell gets the fully saturated fill (count cell
    # rects by their stroke suffix; numeral text fills are separate)
    ws = Worksheet("w", [FmeaEntry("A", "x", RatingTriple(5, 5, 5))])
    data = render_matrix_svg(risk_matrix(ws, MatrixAxes.SEVERITY_OCCURRENCE))
    assert data.count(b'fill="#ffffff" stroke') == 99
    assert data.count(b'fill="#b2182b" stroke') == 1


def analysis_parts(ws, bands=DEFAULT_BANDS):
    results = rank(ws, bands)
    return (ws, results, collisions(ws), [r for r in results if r.discrepancy],
            summary_stats(ws, bands), bands)


def test_analysis_markdown_sections(fixture_ws):
    text = render_analysis_markdown(*analysis_parts(fixture_ws))
    assert text.startswith("# FMEA analysis\n")
    assert "Class bands: Negligible [1,100), Marginal [100,200), " \
           "Critical [200,500), Catastrophic [500,1000]" in text
    assert "Entries: 15 | RPN min 80, max 560, mean 186.93" in text
    assert "## Collisions" in text and "## Discrepancies" in text
    assert "- RPN 210 (2 entries): Remote terminal unit (RTU); Smart meter" in text
    assert text.count("- RPN ") == 2
    assert text.count("declared ") == 7


def test_analysis_markdown_empty_sections():
    ws = Worksheet("w", [FmeaEntry("A", "x", RatingTriple(2, 2, 2))])
    text = render_analysis_markdown(*analysis_parts(ws))
    assert text.count("(none)") == 2


def test_analysis_csv_has_four_tables(fixture_ws):
    text = render_analysis_csv(*analysis_parts(fixture_ws))
    blocks = text.split("\n\n")
    assert len(blocks) == 4
    assert blocks[0].splitlines()[0].startswith("entries,rpn_min")
    assert blocks[0].splitlines()[1] == "15,80,560,186.93,100,200,500"
    assert blocks[1].splitlines()[0].startswith("rank,component")
    assert blocks[2].splitlines()[0] == "rpn,member_indices,member_components"
    assert blocks[3].splitlines()[0] == "rank,component,rpn,computed_class,declared_class"
    assert len(blocks[3].splitlines()) == 1 + 7


def test_analysis_payload_shape(fixture_ws):
    payload = analysis_payload(*analysis_parts(fixture_ws))
    assert payload["bands"] == [100, 200, 500]
    assert payload["summary"]["rpn_mean"] == 186.93
    assert len(payload["results"]) == 15
    assert payload["results"][0]["rpn"] == 560
    assert payload["results"][0]["component"] == "Energy Management System (EMS)"
    assert [g["rpn"] for g in payload["collisions"]] == [210, 120]
    assert len(payload["discrepancies"]) == 7


def _mixed_class_sheet(n: int, seed: int) -> Worksheet:
    # Like perfbench/gen.py: unique pairs, uniform ratings, declared classes
    # empty, canonical or in another case.
    rng = random.Random(seed)
    declared = ("", "", "Catastrophic", "Critical", "Marginal", "Negligible",
                "critical", "MARGINAL")
    return Worksheet("", [
        FmeaEntry(f"Component {i}", "Failure", RatingTriple(*(rng.randint(1, 10) for _ in "sod")),
                  declared_classification=ClassLabel.from_text(text) if text else None)
        for i, text in enumerate(rng.choice(declared) for _ in range(n))])


def test_analysis_payload_discrepancies_are_the_flagged_results(fixture_ws):
    for ws in (fixture_ws, _mixed_class_sheet(500, 7)):
        payload = analysis_payload(*analysis_parts(ws))
        flagged = [r for r in payload["results"] if r["discrepancy"]]
        assert flagged and payload["discrepancies"] == flagged


def test_simulation_table(fixture_ws):
    cfg = SimConfig(trials=1000, seed=0)
    results = simulate_worksheet(fixture_ws, cfg)
    names = [e.component for e in fixture_ws.entries]
    text = render_simulation_text(results, names)
    lines = text.splitlines()
    assert lines[0].split() == ["component", "rating_in", "trials", "failures",
                                "empirical_rate", "rating_out", "agrees"]
    assert len(lines) == 16
    assert lines[1].startswith("Database")


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_worksheet_text_stays_on_its_line(brk):
    # CommonMark ends a line at LF, CRLF and a bare CR alike; headings,
    # bullets and text-table rows show each as a space. CSV and JSON keep
    # the text as it is.
    ws = Worksheet(f"T{brk}U", [
        FmeaEntry(f"Pump{brk}A", "Leak", RatingTriple(5, 5, 5), effect=f"e1{brk}e2",
                  declared_classification=ClassLabel.CATASTROPHIC),
        FmeaEntry(f"Pump{brk}B", "Leak", RatingTriple(5, 5, 5)),
    ])
    report = render_fmea_report(ws, rank(ws)).split("\n")
    assert report[0] == "# FMEA report: T U"
    assert {line for line in report if line.startswith("## ")} \
        == {"## 1. Pump A", "## 2. Pump B"}
    assert "- Effect: e1 e2" in report
    analysis = render_analysis_markdown(*analysis_parts(ws)).split("\n")
    assert "- RPN 125 (2 entries): Pump A; Pump B" in analysis
    assert "- Pump A: declared Catastrophic, computed Marginal (RPN 125)" in analysis
    table = render_simulation_text(simulate_worksheet(ws, SimConfig(trials=1000, seed=0)),
                                   [e.component for e in ws.entries]).split("\n")
    assert [line.split("  ")[0] for line in table[1:3]] == ["Pump A", "Pump B"]
    for lines in (report, analysis, table):
        assert not any("\r" in line for line in lines)
    assert analysis_payload(*analysis_parts(ws))["collisions"][0]["components"] \
        == [f"Pump{brk}A", f"Pump{brk}B"]
    assert f'"Pump{brk}A;Pump{brk}B"' in render_analysis_csv(*analysis_parts(ws))


def test_scales_csv_full_and_filtered():
    rows = list(csv.reader(io.StringIO(render_scales_csv())))
    assert rows[0] == ["scale", "rating", "label", "criteria"]
    assert len(rows) == 1 + 30
    occ = list(csv.reader(io.StringIO(render_scales_csv("o"))))
    assert len(occ) == 1 + 10
    assert occ[1] == ["occurrence", "10", "Extremely high (inevitable failure)",
                      "≥ 1 in 2"]


def test_renderers_are_deterministic(fixture_ws):
    parts = analysis_parts(fixture_ws)
    assert render_analysis_markdown(*parts) == render_analysis_markdown(*parts)
    matrix = risk_matrix(fixture_ws, MatrixAxes.SEVERITY_DETECTION)
    assert render_matrix_text(matrix) == render_matrix_text(matrix)
    assert render_fmea_report(fixture_ws, rank(fixture_ws)) == \
        render_fmea_report(fixture_ws, rank(fixture_ws))
