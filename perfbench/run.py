"""fmeakit benchmark: the real CLI as one subprocess after another.

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 22 --trace 0

Run from the repository root. With --trace 0 it times `python -m fmeakit`
(PYTHONPATH=src) end to end, checks every output against the oracle,
and reports the end-to-end metrics, every time scaled by the time a fixed
reference work (perfbench/reference.py) took around it, so that the
machine's changing speed cancels. With --trace 1 it reports per-layer
metrics instead: interpreter and import probes, then a traced in-process
replay of the workload in a fresh subprocess (perfbench/trace.py).

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from workloads import (BUNDLED_CSV, SRC, WORKLOADS, Inputs, Workload, off_path,
                       prepare)

SETUPS = 3  # set-ups per run; setup_s is their median
PROBE_ROUNDS = 7  # rounds of interpreter/import probes in a traced run
WORK = Path(".perfbench")
REFERENCE = Path(__file__).with_name("reference.py")
# A reference run follows every run of invocations that took this long;
# see README.md, "Drift".
BRACKET_MS = 400.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.resolve())
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Runner:
    """Spawns children one at a time and keeps what each one cost."""

    def __init__(self, work: Path):
        self.work = work
        self.env = _env()

    def spawn(self, argv: list[str]) -> tuple[int, float, int, bytes, bytes]:
        """Run argv to completion: (exit code, wall ms, max RSS KiB, stdout, stderr).

        Wall time runs from spawn to exit. Max RSS comes from os.wait4 for
        this child alone (RUSAGE_CHILDREN would keep a running maximum).
        """
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                     stderr=err, env=self.env)
            _, status, usage = os.wait4(child.pid, 0)
            wall_ms = (time.perf_counter() - start) * 1000
        child.returncode = os.waitstatus_to_exitcode(status)
        return (child.returncode, wall_ms, usage.ru_maxrss,
                out_path.read_bytes(), err_path.read_bytes())

    def cli(self, argv: list[str]):
        return self.spawn([sys.executable, "-m", "fmeakit", *argv])

    def python_startup_ms(self) -> float:
        return self.spawn([sys.executable, "-c", "pass"])[1]

    def reference_ms(self, rows: int) -> float:
        """Wall time of the fixed reference work (perfbench/reference.py)."""
        code, wall, _, _, err = self.spawn([sys.executable, str(REFERENCE), str(rows)])
        if code != 0:
            raise RuntimeError(f"reference work failed: {err.decode('utf-8', 'replace')[-500:]}")
        return wall


def _problems(code: int, out: bytes, err: bytes, argv: list[str],
              inputs: Inputs) -> list[str]:
    if code != 0:
        return [f"exit {code}: {err.decode('utf-8', 'replace').strip()[-300:]}"]
    problems = oracle.check(argv, out, inputs.expected_for(argv))
    if err:
        problems.append(f"unexpected stderr: {err[:200]!r}")
    return problems


class Tally:
    """Invocations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, argv: list[str], problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"fmeakit {' '.join(argv)}: {problems[0]}")


def setup(runner: Runner, workload: Workload, seed: int, directory: Path,
          tally: Tally, formats: tuple[str, ...] | None = None) -> Inputs:
    """Write the inputs, then run each command once and discard its time.

    The warm-up fills the .pyc files and the page cache. A warm-up whose
    output is wrong still counts as a failure.
    """
    inputs = prepare(workload, seed, directory, formats)
    for template in workload.commands:
        argv = inputs.argv(template, seed)
        code, _, _, out, err = runner.cli(argv)
        tally.record(argv, _problems(code, out, err, argv, inputs))
    return inputs


def _scales(references: list[float], nominal_ms: float) -> list[float]:
    """Factors that bring measured times to reference speed.

    references[k] and references[k + 1] bracket the k-th timed step; its
    factor is nominal_ms over their geometric mean.
    """
    return [nominal_ms / math.sqrt(before * after)
            for before, after in zip(references, references[1:])]


def measure(runner: Runner, workload: Workload, seed: int, seconds: float,
            tally: Tally) -> dict:
    """Set up SETUPS times, then cycle the commands for `seconds`.

    Every time reported is scaled to reference speed: multiplied by the
    workload's nominal reference time over the time the reference work
    took just before and just after it. The machine's speed wanders within seconds, so each
    set-up is bracketed by its own reference runs, and so is each
    invocation, or each run of invocations that together take BRACKET_MS.
    """
    rows, nominal_ms = workload.reference
    setup_times, setup_references = [], [runner.reference_ms(rows)]
    for k in range(SETUPS):
        start = time.perf_counter()
        inputs = setup(runner, workload, seed, runner.work / f"setup{k}", tally)
        setup_times.append(time.perf_counter() - start)
        setup_references.append(runner.reference_ms(rows))
    setup_scaled = [t * scale for t, scale
                    in zip(setup_times, _scales(setup_references, nominal_ms))]

    walls: list[float] = []  # in invocation order, cycle after cycle
    brackets: list[int] = []  # index of the reference run before each one
    rss: list[int] = []
    references = setup_references[-1:]
    unbracketed_ms = 0.0
    start = time.perf_counter()
    cycle = 0.0
    # Whole cycles only, so every command is sampled equally often; the
    # last cycle starts only if it should end within the run.
    while not walls or time.perf_counter() - start + cycle <= seconds:
        cycle_start = time.perf_counter()
        for template in workload.commands:
            argv = inputs.argv(template, seed)
            code, wall, max_rss, out, err = runner.cli(argv)
            tally.record(argv, _problems(code, out, err, argv, inputs))
            walls.append(wall)
            brackets.append(len(references) - 1)
            rss.append(max_rss)
            unbracketed_ms += wall
            if unbracketed_ms >= BRACKET_MS:
                references.append(runner.reference_ms(rows))
                unbracketed_ms = 0.0
        cycle = time.perf_counter() - cycle_start
    if unbracketed_ms:
        references.append(runner.reference_ms(rows))

    # Each command's median, averaged over the mix: a pooled quantile of a
    # mix of slow and fast commands falls in the gap between commands, and
    # a mean would follow the machine's slowest moments. The upper quartile
    # scales that by the upper quartile of all invocations, each taken
    # relative to its own command's median: a command has too few samples
    # for a steady quartile of its own.
    count = len(workload.commands)
    scales = _scales(references, nominal_ms)
    scaled_walls = [wall * scales[k] for wall, k in zip(walls, brackets)]
    raw = [walls[k::count] for k in range(count)]
    scaled = [scaled_walls[k::count] for k in range(count)]
    medians = [statistics.median(times) for times in scaled]
    relative = [t / median for times, median in zip(scaled, medians) for t in times]
    p50 = statistics.fmean(medians)
    p75 = p50 * statistics.quantiles(relative, n=4)[2]
    entries = sum(inputs.entries(inputs.argv(t, seed)) for t in workload.commands)
    samples = len(walls)
    print(f"samples: {samples} invocations in {samples // count} cycles, "
          f"{tally.attempted - samples} warm-up invocations")
    for template, times, median in zip(workload.commands, raw, medians):
        print(f"  fmeakit {' '.join(template)}: median {median:.1f} ms at reference "
              f"speed, {statistics.median(times):.1f} ms as measured, over {len(times)}")
    print(f"reference work: median {statistics.median(references):.1f} ms over "
          f"{len(references)} runs of {rows} rows (nominal {nominal_ms:.0f} ms); unscaled "
          f"wall_p50 {statistics.fmean(statistics.median(t) for t in raw):.1f} ms")
    print(f"wall_p75 has about {samples - math.ceil(0.75 * samples)} of "
          f"{samples} invocations beyond it")
    print(f"input: {entries} entries per cycle of {len(medians)} commands; "
          f"setup runs: {', '.join(f'{t:.3f}' for t in setup_times)} s as measured")
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "wall_p50_ms": (p50, "ms"),
        "wall_p75_ms": (p75, "ms"),
        "entries_per_s": (entries / (sum(medians) / 1000), "1/s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S.*)$")


def _numpy_import_ms(stderr: bytes) -> float:
    for line in stderr.decode("utf-8", "replace").splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(2).strip() == "numpy":
            return int(match.group(1)) / 1000
    raise RuntimeError("no numpy line in -X importtime output")


def measure_traced(runner: Runner, workload: Workload, seed: int,
                   seconds: float, tally: Tally) -> dict:
    """Per-layer metrics: process probes, then the traced replay."""
    inputs = setup(runner, workload, seed, runner.work / "traced", tally,
                   formats=("csv", "json"))
    start = time.perf_counter()
    startup, import_fmeakit, import_numpy = [], [], []
    for _ in range(PROBE_ROUNDS):
        startup.append(runner.python_startup_ms())
        import_fmeakit.append(runner.spawn(
            [sys.executable, "-c", "import fmeakit"])[1])
        import_numpy.append(_numpy_import_ms(runner.spawn(
            [sys.executable, "-X", "importtime", "-c", "import fmeakit"])[4]))
    probe_s = time.perf_counter() - start

    spec = {
        "path": [inputs.argv(t, seed) for t in workload.commands],
        "off_path": [inputs.argv(t, seed) for t in off_path(workload)],
        "seconds": max(1.0, seconds - probe_s),
        "spans_file": str(WORK / f"spans-{workload.name}-{seed}.json"),
        "out_dir": str(runner.work / "traced-out"),
    }
    spec_path = runner.work / "trace-spec.json"
    spec_path.write_text(json.dumps(spec))
    trace_py = Path(__file__).with_name("trace.py")
    code, _, _, out, err = runner.spawn([sys.executable, str(trace_py), str(spec_path)])
    if code != 0:
        raise RuntimeError(f"traced run failed: {err.decode('utf-8', 'replace')[-2000:]}")
    lines = out.decode("utf-8").strip().splitlines()
    print("\n".join(lines[:-1]))
    report = json.loads(lines[-1])
    for argv in report["mismatches"]:
        tally.record(argv, ["traced replay differs from cli.run output"])
    for index, argv in enumerate(spec["path"] + spec["off_path"]):
        captured = Path(spec["out_dir"]) / f"{index}.out"
        tally.record(argv, oracle.check(argv, captured.read_bytes(),
                                        inputs.expected_for(argv)))
    metrics = {
        "process.python_startup_ms": (statistics.median(startup), "ms"),
        "process.import_fmeakit_ms": (statistics.median(import_fmeakit), "ms"),
        "process.import_numpy_ms": (statistics.median(import_numpy), "ms"),
    }
    metrics.update((name, tuple(pair)) for name, pair in report["metrics"].items())
    entries = metrics.pop("ingest.entries_accepted")[0]
    records = len(inputs.expected[inputs.files["csv"]])
    metrics["ingest.accepted_ratio"] = (entries / records, "ratio")
    return metrics


def _declared(trace: int) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not BUNDLED_CSV.is_file():
        print(f"error: {BUNDLED_CSV} not found; run from the root of an "
              "fmeakit checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        runner = Runner(work)
        if args.trace:
            metrics = measure_traced(runner, workload, args.seed, args.seconds, tally)
        else:
            metrics = measure(runner, workload, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = _declared(args.trace)
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != declared:
        print(f"error: metrics {sorted(reported.items())} do not match "
              f"BENCHMARK.json {sorted(declared.items())}", file=sys.stderr)
        return 1
    for note in tally.notes:
        print(f"FAILED {note}")
    print(f"failed_ratio: {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} invocations)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
