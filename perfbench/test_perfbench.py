"""Tests of the benchmark's generator, oracle and traced replay.

    PYTHONPATH=src python3 -m pytest -q perfbench

Run from the repository root. The oracle is checked against the real
CLI on a generated sheet, and must flag a deliberately corrupted output.
The traced replay must reproduce the CLI's bytes and measure every
per-layer metric BENCHMARK.json declares.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import gen
import oracle
import run
from workloads import CATALOGUE, WORKLOADS, off_path, prepare

ROOT = Path(__file__).resolve().parents[1]


def test_same_seed_gives_identical_bytes():
    a, b = gen.generate(500, seed=7), gen.generate(500, seed=7)
    assert gen.to_csv(a) == gen.to_csv(b)
    assert gen.to_json(a) == gen.to_json(b)
    assert gen.to_csv(gen.generate(500, seed=8)) != gen.to_csv(a)


def test_generated_sheet_properties():
    rows = gen.generate(5000, seed=3)
    assert len({(r.component, r.failure_mode) for r in rows}) == len(rows)
    for name in ("severity", "occurrence", "detection"):
        counts = Counter(getattr(r, name) for r in rows)
        assert sorted(counts) == list(range(1, 11))
        assert all(400 <= c <= 600 for c in counts.values()), counts
    declared = Counter(oracle._declared(r.declared_classification) for r in rows)
    assert set(declared) == {None, *oracle.LABELS}
    assert all(getattr(r, name) for r in rows for name in gen.NARRATIVE)
    assert len({r.severity * r.occurrence * r.detection for r in rows}) == 120


def test_narrative_can_be_turned_off():
    rows = gen.generate(200, seed=3, narrative=False)
    assert not any(getattr(r, name) for r in rows for name in gen.NARRATIVE)


def test_csv_reads_back_to_the_same_rows():
    rows = gen.generate(300, seed=5)
    assert gen.read_csv(gen.to_csv(rows)) == rows


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Every catalogue command's real CLI output on a generated sheet."""
    root = tmp_path_factory.mktemp("bench")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(ROOT)
        workload = WORKLOADS["analyze_csv_large"]
        small = dataclasses.replace(workload, entries=400, formats=("csv", "json"))
        inputs = prepare(small, 11, root / "in")
        runner = run.Runner(root)
        outputs = {}
        for template in CATALOGUE:
            argv = inputs.argv(template, 11)
            code, _, _, out, err = runner.cli(argv)
            assert code == 0, err
            outputs[" ".join(template)] = (argv, out, inputs.expected_for(argv))
    return outputs


def test_oracle_accepts_real_cli_output(cli_outputs):
    for argv, out, expected in cli_outputs.values():
        assert oracle.check(argv, out, expected) == [], argv


def _swap_first_rows(text: str) -> str:
    lines = text.split("\n")
    lines[9], lines[10] = lines[10], lines[9]
    return "\n".join(lines)


def _bump_first_svg_count(text: str) -> str:
    head, sep, tail = text.partition('fill="#000000">')
    count, rest = tail.split("<", 1)
    return f"{head}{sep}{int(count) + 1}<{rest}"


def _drop_collision(text: str) -> str:
    doc = json.loads(text)
    doc["collisions"].pop()
    return json.dumps(doc)


CORRUPTIONS = {
    "validate {csv}": lambda t: t.replace(" entries", "1 entries"),
    "analyze {csv}": _swap_first_rows,
    "analyze --format csv {csv}": lambda t: t.replace(",true\n", ",false\n", 1),
    "analyze --format json {json}": _drop_collision,
    "matrix --axes s-o --format svg {csv}": _bump_first_svg_count,
    "report {csv}": lambda t: t.replace("- RPN: ", "- RPN: 1", 1),
    "simulate --trials 1000000 --seed {seed} {csv}":
        lambda t: t.rsplit("\n", 2)[0] + "\n",
    "dataset --format json": lambda t: t.replace('"severity": 4', '"severity": 5', 1),
    "dataset": lambda t: t.replace(",4,", ",5,", 1),
    "scales": lambda t: t.rsplit("\n", 2)[0] + "\n",
}


@pytest.mark.parametrize("command", sorted(CORRUPTIONS))
def test_oracle_detects_a_corrupted_output(cli_outputs, command):
    argv, out, expected = cli_outputs[command]
    corrupted = CORRUPTIONS[command](out.decode("utf-8")).encode("utf-8")
    assert corrupted != out
    assert oracle.check(argv, corrupted, expected) != []


def test_simulated_counts_are_not_pinned(cli_outputs):
    argv, out, expected = cli_outputs["simulate --trials 1000000 --seed {seed} {csv}"]
    other = [*argv[:4], str(int(argv[4]) + 1), argv[5]]
    code, _, _, changed, _ = run.Runner(Path(argv[-1]).parent).cli(other)
    assert code == 0 and changed != out
    assert oracle.check(other, changed, expected) == []


def test_run_refuses_a_directory_without_fmeakit(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli_small", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_traced_replay_covers_every_layer(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = WORKLOADS["cli_small"]
    inputs = prepare(workload, 3, tmp_path / "in", ("csv", "json"))
    spec = {
        "path": [inputs.argv(t, 3) for t in workload.commands],
        "off_path": [inputs.argv(t, 3) for t in off_path(workload)],
        "seconds": 0.5,
        "spans_file": str(tmp_path / "spans.json"),
        "out_dir": str(tmp_path / "out"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code, _, _, out, err = run.Runner(tmp_path).spawn(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(tmp_path / "spec.json")])
    assert code == 0, err
    report = json.loads(out.decode("utf-8").splitlines()[-1])
    assert report["mismatches"] == []
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    measured_elsewhere = {"process.python_startup_ms", "process.import_fmeakit_ms",
                          "process.import_numpy_ms", "ingest.accepted_ratio"}
    assert set(report["metrics"]) == declared - measured_elsewhere | {
        "ingest.entries_accepted"}
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["invocation"] == span["invocation"]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]


def test_times_scale_to_reference_speed():
    # Reference work twice as slow as nominal: the machine runs at half speed.
    assert run._scales([600.0] * 3, 300.0) == [0.5, 0.5]
    # Bracketing runs at half and double: their geometric mean is nominal.
    assert run._scales([150.0, 600.0], 300.0) == [1.0]
