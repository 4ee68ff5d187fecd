"""Bundled microgrid cyber-component FMEA worksheet.

Fifteen cyber-physical components of a microgrid communication
infrastructure, each with one high-risk failure mode (a class of
cyberattack), its S/O/D ratings, and a declared criticality label. The
worksheet ships as the plain file CSV_PATH beside this module, the one
copy of it: the CLI emits it as is, and ``microgrid_worksheet()`` parses it.

Provenance. The three top-risk components (Energy Management System
(EMS), Human-machine interface (HMI), Smart meter) carry their full
worksheet narrative verbatim. The other twelve (Database, Server,
Intelligent electronic device (IED), Generator controller, Automatic
transfer switch (ATS), Renewable energy controller, Remote terminal unit
(RTU), Phasor measurement unit (PMU), Disconnect switch, PHEV, PHEV
supply equipment, Relay) carry only ratings and classification in the
source dataset; their narrative fields are terse paraphrases of each
component's role in the microgrid, not a primary-source record. Declared
classifications are carried exactly as recorded, including their
internal inconsistencies; they are never "corrected" to match computed
bands.
"""

from __future__ import annotations

import os

from .ingest import parse_csv
from .worksheet import Worksheet

WORKSHEET_TITLE = "Microgrid cyber-physical component FMEA"
CSV_PATH = os.path.join(os.path.dirname(__file__), "data", "microgrid_cyber_fmea.csv")


def microgrid_worksheet() -> Worksheet:
    """Return the bundled 15-entry microgrid cyber-component worksheet."""
    return Worksheet(WORKSHEET_TITLE, parse_csv(bundled_csv_bytes()).entries)


def bundled_csv_bytes() -> bytes:
    """Return the shipped CSV rendition of the bundled worksheet, byte-exact."""
    with open(CSV_PATH, "rb") as handle:
        return handle.read()
