"""Regenerate the paper-vs-measured validation report.

Usage: python scripts/make_report.py [output.txt]

Checks every row of the anchor table (``repro.analysis.anchors``) at
the calibrated defaults and prints (and optionally writes) the report,
grouped by figure. Run after any change to the thermal/power/performance
models.
"""

from __future__ import annotations

import sys

from repro.analysis.anchors import render_full_report


def main() -> None:
    text = render_full_report()
    print(text)
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            fh.write(text + "\n")
        print(f"\n[written to {sys.argv[1]}]")


if __name__ == "__main__":
    main()
