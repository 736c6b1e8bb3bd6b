#!/usr/bin/env python3
"""Print what ``import sawlab, sawlab.cli`` costs in a fresh interpreter.

Runs ``python -X importtime -c "import sawlab, sawlab.cli"`` in N new
processes and prints, per ``sawlab`` module, the median of its cumulative
import time (its own code and whatever it imported first), and the median
total: the cumulative times of the ``sawlab`` imports the statement makes
at top level.  It then names every ``concurrent``, ``multiprocessing`` or
``configparser`` module that got loaded, which only ``count --workers``
and ``--config`` need.  The child processes inherit the environment, so
``PYTHONPATH`` picks the tree measured; a host that sets
``PYTHONDONTWRITEBYTECODE`` compiles every module in every run.

    PYTHONPATH=src python3 tools/startup.py        # 10 processes
    PYTHONPATH=src python3 tools/startup.py -n 30
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from collections import defaultdict

STATEMENT = "import sawlab, sawlab.cli"
WATCHED = ("concurrent", "multiprocessing", "configparser")


def entries(stderr: str) -> list[tuple[str, int]]:
    """(indented module name, cumulative microseconds) per line of one
    ``-X importtime`` report; the indent is one space per top-level import
    and two more per level of nesting."""
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            _, cumulative, field = line.split("|")
            if cumulative.strip().isdigit():  # not the header
                rows.append((field, int(cumulative)))
    return rows


def import_times(rows: list[tuple[str, int]]) -> tuple[dict[str, int], int]:
    """Cumulative microseconds per ``sawlab`` module and their top-level
    total."""
    modules, total = {}, 0
    for field, cumulative in rows:
        name = field.strip()
        if name == "sawlab" or name.startswith("sawlab."):
            modules[name] = cumulative
            if field.startswith(" " + name):  # not nested in another import
                total += cumulative
    return modules, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", "--runs", type=int, default=10,
                        help="fresh processes to run (default 10)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    per_module: dict[str, list[int]] = defaultdict(list)
    totals, watched = [], set()
    for _ in range(args.runs):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", STATEMENT],
                              capture_output=True, text=True, check=True)
        rows = entries(done.stderr)
        modules, total = import_times(rows)
        for name, micros in modules.items():
            per_module[name].append(micros)
        totals.append(total)
        watched |= {field.strip() for field, _ in rows
                    if field.strip().split(".")[0] in WATCHED}
    print(f"median cumulative import time over {args.runs} processes, ms")
    for name in sorted(per_module):
        print(f"{statistics.median(per_module[name]) / 1000:8.1f}  {name}")
    print(f"{statistics.median(totals) / 1000:8.1f}  total ({STATEMENT})")
    print("pool/config modules loaded:", ", ".join(sorted(watched)) or "none")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
