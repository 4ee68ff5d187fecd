"""The benchmark's fixed reference work: the machine's speed, not fmeakit's.

    python3 perfbench/reference.py ROWS

It does what an fmeakit call does, without fmeakit: start the interpreter,
import numpy, then write, parse, rank and render a fixed sheet of ROWS
rows with csv and json from the standard library. Its input never
changes, so any change in its time is the machine's. run.py times it
around the invocations of every workload and scales each measured time
by it.
"""

import csv
import io
import json
import random
import sys

import numpy  # noqa: F401  (its import is a third of an fmeakit call's start)

WORDS = ("operator", "feeder", "breaker", "voltage", "telemetry", "réseau",
         "Störung", "delay,", "\"spoofed\"", "firmware", "outage", "alarm")
COLUMNS = ("component", "failure_mode", "severity", "occurrence",
           "detection", "effect")


def main(count: int) -> None:
    rnd = random.Random(12345)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(COLUMNS)
    for _ in range(count):
        writer.writerow([f"C{rnd.randrange(50)}", f"M{rnd.randrange(30)}",
                         rnd.randint(1, 10), rnd.randint(1, 10), rnd.randint(1, 10),
                         " ".join(rnd.choice(WORDS) for _ in range(12))])
    rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    for row in rows:
        row["rpn"] = int(row["severity"]) * int(row["occurrence"]) * int(row["detection"])
    rows.sort(key=lambda row: (-row["rpn"], row["component"], row["failure_mode"]))
    table = "\n".join(f"| {row['component']} | {row['failure_mode']} | "
                      f"{row['rpn']} | {row['effect']} |" for row in rows)
    text = json.dumps(rows, indent=2)
    assert len(json.loads(text)) == len(rows) and table


if __name__ == "__main__":
    main(int(sys.argv[1]))
