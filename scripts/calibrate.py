"""Score a candidate PackageParams against the paper's anchor table.

Prints each chip's max-frequency grid and every row of
``repro.analysis.anchors.ANCHORS`` for the calibrated package with the
given overrides applied. Each VALUE is a JSON number, typed and checked
like a spec's ``package_overrides``. Re-run after any structural change
to the thermal model.

Usage: python scripts/calibrate.py [FIELD=VALUE ...]

Exit status: 0 when every row is met, 1 when a row misses, 2 for a
malformed or refused override.
"""

from __future__ import annotations

import json
import sys

from repro.analysis.anchors import (Measurements, full_report,
                                    render_full_report, render_grids)
from repro.config import fields_from_dict, fields_to_dict
from repro.errors import ConfigurationError
from repro.thermal.package import DEFAULT_PACKAGE, PackageParams


def parse_params(args: list[str]) -> PackageParams:
    """The calibrated package with ``FIELD=VALUE`` overrides applied."""
    overrides = {}
    for arg in args:
        key, sep, text = arg.partition("=")
        try:
            if not sep:
                raise ValueError
            overrides[key] = json.loads(text)
        except ValueError:
            raise ConfigurationError(
                f"expected FIELD=VALUE with a JSON number, got {arg!r}"
            ) from None
    return fields_from_dict(
        PackageParams, {**fields_to_dict(DEFAULT_PACKAGE), **overrides},
        "package parameter")


def main(args: list[str]) -> int:
    try:
        params = parse_params(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    measured = Measurements(params)
    print(render_grids(measured))
    print()
    print(render_full_report(measured))
    return 0 if all(r.passed == r.total
                    for r in full_report(measured)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
