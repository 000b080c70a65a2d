#!/usr/bin/env python
"""Fail when any perfbench workload reports incorrect output.

``perfbench/run.py`` exits 0 even when a workload's output checks fail
(served posteriors differing from offline scoring, a restored refit
differing from the live one, ...): it only records ``"correct": false``
in the workload's last JSON line. This script reads the captured output
of ``python3 perfbench/run.py --workload all ...`` and exits non-zero
unless every workload section ends in a JSON line with
``"correct": true``.

Usage::

    python3 perfbench/run.py --workload all --seed 1 --seconds 2 > out.txt
    python3 scripts/check_perfbench.py out.txt
"""

from __future__ import annotations

import argparse
import json
import sys


def verdicts(lines: list[str]) -> dict[str, dict | None]:
    """Each ``== workload`` section's last JSON line (``None`` if none)."""
    results: dict[str, dict | None] = {}
    current = None
    for line in lines:
        if line.startswith("== "):
            current = line[3:].strip()
            results[current] = None
        elif current is not None and line.startswith("{"):
            try:
                results[current] = json.loads(line)
            except json.JSONDecodeError:
                results[current] = None
    return results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("output", help="captured perfbench/run.py output")
    args = parser.parse_args(argv)
    with open(args.output, encoding="utf-8") as handle:
        results = verdicts(handle.read().splitlines())
    if not results:
        print("no '== workload' sections found", file=sys.stderr)
        return 1
    bad = 0
    for name, result in results.items():
        if result is None:
            verdict = "NO RESULT (workload crashed?)"
        elif result.get("correct") is True:
            verdict = f"correct ({result.get('attempted', 0)} operations)"
        else:
            verdict = f"INCORRECT ({result.get('failed', 0)} failed operations)"
        ok = result is not None and result.get("correct") is True
        bad += not ok
        print(f"{name:<20} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
