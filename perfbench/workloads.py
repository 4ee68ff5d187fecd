"""The benchmark's workloads: which inputs each one writes and which CLI
commands it cycles through, plus the set-up that writes those inputs.

Each workload is a closed loop with one client: the next command starts
only after the previous one has exited. Command templates name their
input as {csv} or {json}; {seed} is the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen
from oracle import Expected

SRC = Path("src")
BUNDLED_CSV = SRC / "fmeakit" / "data" / "microgrid_cyber_fmea.csv"
JSON_TITLE = "Synthetic worksheet"

# The *_large sheets hold 10^4 entries. At 10^5 one analyze call takes
# about 5 s here, too few calls per run to give a steady median.
LARGE = 10_000

# The reference work (reference.py) a workload's times are scaled by:
# its sheet's rows, and the nominal time in ms it scales them to, about
# what it takes on a 2-vCPU machine. A cli_small call is mostly
# interpreter start and imports, and so is the small reference; a large
# workload's call is mostly work on a big sheet, and so is the large one.
SMALL_REFERENCE = (2000, 300.0)
LARGE_REFERENCE = (8000, 500.0)

SIMULATE = ("simulate", "--trials", "1000000", "--seed", "{seed}", "{csv}")


@dataclass(frozen=True)
class Workload:
    name: str
    entries: int  # 0 selects the bundled 15-entry sheet
    narrative: bool
    formats: tuple[str, ...]  # input files set-up writes: "csv", "json"
    commands: tuple[tuple[str, ...], ...]
    reference: tuple[int, float]  # SMALL_REFERENCE or LARGE_REFERENCE


WORKLOADS = {w.name: w for w in (
    Workload(
        "cli_small", 0, True, ("json",),
        (("validate", "{json}"), ("analyze", "{csv}"),
         ("analyze", "--format", "json", "{json}"),
         ("matrix", "--axes", "s-o", "--format", "svg", "{csv}"),
         ("report", "{csv}"), SIMULATE, ("dataset", "--format", "json"),
         ("scales",)), SMALL_REFERENCE),
    Workload(
        "analyze_csv_large", LARGE, True, ("csv",),
        (("analyze", "{csv}"), ("analyze", "--format", "csv", "{csv}"),
         ("report", "{csv}")), LARGE_REFERENCE),
    Workload(
        "analyze_json_large", LARGE, True, ("json",),
        (("analyze", "--format", "json", "{json}"), ("validate", "{json}")),
        LARGE_REFERENCE),
    Workload(
        "simulate_large", LARGE, False, ("csv",),
        (SIMULATE,), LARGE_REFERENCE),
)}

# Every command the benchmark knows. A traced run replays the ones its
# workload does not cycle through once, so that every layer is measured
# on every workload's input.
CATALOGUE = (
    ("validate", "{csv}"), ("validate", "{json}"), ("analyze", "{csv}"),
    ("analyze", "--format", "csv", "{csv}"),
    ("analyze", "--format", "json", "{json}"),
    ("matrix", "--axes", "s-o", "--format", "svg", "{csv}"),
    ("report", "{csv}"), SIMULATE, ("dataset", "--format", "json"),
    ("dataset",), ("scales",),
)


def off_path(workload: Workload) -> list[tuple[str, ...]]:
    """Catalogue commands the workload does not cycle through."""
    return [t for t in CATALOGUE if t not in workload.commands]


@dataclass
class Inputs:
    """Paths of one set-up's input files and the oracle's expectations,
    keyed by path (the bundled sheet is keyed by "dataset")."""

    files: dict[str, str]
    expected: dict[str, Expected]

    def argv(self, template: tuple[str, ...], seed: int) -> list[str]:
        return [part.format(seed=seed, **self.files) for part in template]

    def expected_for(self, argv: list[str]) -> Expected:
        return self.expected.get(argv[-1], self.expected["dataset"])

    def entries(self, argv: list[str]) -> int:
        """Entries one command processes: its sheet's, none for scales."""
        return 0 if argv[0] == "scales" else len(self.expected_for(argv))


def prepare(workload: Workload, seed: int, directory: Path,
            formats: tuple[str, ...] | None = None) -> Inputs:
    """Generate the workload's inputs from the seed and write them.

    The bundled sheet is read from the source tree and used in place as
    CSV; the JSON copy is written by this benchmark, not by fmeakit.
    """
    directory.mkdir(parents=True, exist_ok=True)
    bundled = gen.read_csv(BUNDLED_CSV.read_bytes())
    expected = {"dataset": Expected(bundled)}
    if workload.entries:
        rows = gen.generate(workload.entries, seed, workload.narrative)
        files = {"csv": str(directory / "sheet.csv"),
                 "json": str(directory / "sheet.json")}
    else:
        rows = bundled
        files = {"csv": str(BUNDLED_CSV), "json": str(directory / "sheet.json")}
    for fmt in formats or workload.formats:
        if fmt == "csv" and workload.entries:
            Path(files["csv"]).write_bytes(gen.to_csv(rows))
        elif fmt == "json":
            Path(files["json"]).write_bytes(gen.to_json(rows, JSON_TITLE))
    expected[files["csv"]] = Expected(rows)
    expected[files["json"]] = Expected(rows, JSON_TITLE)
    return Inputs(files, expected)
