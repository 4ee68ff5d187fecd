"""Seeded, stdlib-only generator of synthetic FMEA worksheets.

Ratings are drawn uniformly from 1-10, as in Bowles' critique of RPN
ranking: only 120 distinct products exist in [1, 1000], so a large sheet
is dense with RPN ties and collision groups. The generator knows nothing
of fmeakit; the oracle checks the CLI's output against the rows it
returns here.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

COLUMNS = (
    "component", "failure_mode", "severity", "occurrence", "detection",
    "effect", "end_effect", "cause", "prevention_controls",
    "detection_controls", "declared_classification",
)
NARRATIVE = ("effect", "end_effect", "cause", "prevention_controls",
             "detection_controls")

# Declared classes as a worksheet author types them: empty, canonical, or
# in another case (the CLI matches labels case-insensitively).
_DECLARED = ("", "", "Catastrophic", "Critical", "Marginal", "Negligible",
             "critical", "MARGINAL")

_COMPONENTS = (
    "Inverter", "Battery management system", "Smart meter", "Relay",
    "Phasor measurement unit", "Remote terminal unit", "Database",
    "Historian server", "Human-machine interface", "Disconnect switch",
    "Generator controller", "Automatic transfer switch", "PHEV charger",
    "Wind turbine controller", "Energy management system", "Gateway",
    "Intelligent electronic device", "Firewall", "Data concentrator",
    "Protection relay", "Capacitor bank controller", "Feeder recloser",
)
_FAILURES = (
    "False data injection", "Denial of service", "Spoofed command",
    "Firmware tampering", "Replay attack", "Loss of communication",
    "Unauthorized access", "Malware infection", "Time synchronization loss",
    "Configuration drift", "Credential theft", "Sensor drift",
    "Man-in-the-middle attack", "Buffer overflow", "Physical damage",
)
_WORDS = (
    "operator", "feeder", "breaker", "voltage", "frequency", "setpoint",
    "telemetry", "protocol", "firmware", "network", "island", "load",
    "outage", "alarm", "schedule", "dispatch", "controller", "signal",
    "measurement", "patch", "audit", "token", "session", "backup",
    "redundant", "manual", "delayed", "unreliable", "corrupted", "stale",
    "réseau", "Störung", "sécurité", "delay,", "loss,", "\"spoofed\"",
)


@dataclass(frozen=True)
class Row:
    """One generated worksheet row; ratings are ints, the rest text."""

    component: str
    failure_mode: str
    severity: int
    occurrence: int
    detection: int
    effect: str
    end_effect: str
    cause: str
    prevention_controls: str
    detection_controls: str
    declared_classification: str

    def cells(self) -> list[object]:
        return [getattr(self, name) for name in COLUMNS]


def _sentence(rng: random.Random, low: int, high: int) -> str:
    words = rng.choices(_WORDS, k=rng.randint(low, high))
    return " ".join(words).capitalize()


def generate(n: int, seed: int, narrative: bool = True) -> list[Row]:
    """n rows with unique (component, failure_mode) pairs, same rows per seed."""
    rng = random.Random(seed)
    units = max(1, n // 8)
    seen: set[tuple[str, str]] = set()
    rows = []
    while len(rows) < n:
        component = f"{rng.choice(_COMPONENTS)} {rng.randrange(units):05d}"
        failure_mode = f"{rng.choice(_FAILURES)} via {_sentence(rng, 1, 3).lower()}"
        if (component, failure_mode) in seen:
            continue
        seen.add((component, failure_mode))
        text = {name: _sentence(rng, 5, 13) if narrative else ""
                for name in NARRATIVE}
        rows.append(Row(
            component=component,
            failure_mode=failure_mode,
            severity=rng.randint(1, 10),
            occurrence=rng.randint(1, 10),
            detection=rng.randint(1, 10),
            declared_classification=rng.choice(_DECLARED),
            **text,
        ))
    return rows


def to_csv(rows: list[Row]) -> bytes:
    """The rows as a worksheet CSV (header row, LF newlines, UTF-8)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(row.cells() for row in rows)
    return buffer.getvalue().encode("utf-8")


def to_json(rows: list[Row], title: str = "Synthetic worksheet") -> bytes:
    """The rows as a worksheet JSON document; an empty class becomes null."""
    entries = []
    for row in rows:
        record = dict(zip(COLUMNS, row.cells()))
        record["declared_classification"] = row.declared_classification or None
        entries.append(record)
    document = {"title": title, "entries": entries}
    return (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def read_csv(data: bytes) -> list[Row]:
    """Rows of a worksheet CSV read with the csv module (for the bundled sheet)."""
    records = list(csv.DictReader(io.StringIO(data.decode("utf-8-sig"), newline="")))
    return [Row(**{name: int(rec[name]) if name in ("severity", "occurrence", "detection")
                   else rec[name] for name in COLUMNS}) for rec in records]
