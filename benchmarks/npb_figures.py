"""Shared machinery for the NPB execution-time figures (10-13)."""

from __future__ import annotations

from repro.analysis import format_table
from repro.core.cosim import NpbComparison, run_npb_comparison
from repro.perfsim.npb import NPB_ORDER


def render_npb_figure(title: str, cmp_: NpbComparison,
                      coolings: tuple[str, ...]) -> str:
    """Bars of the figure: per-benchmark relative execution times."""
    headers = ["benchmark"] + list(coolings)
    rows = []
    rel = {c: cmp_.relative_times(c) for c in coolings}
    for name in NPB_ORDER:
        rows.append([name.upper()] + [rel[c][name] for c in coolings])
    rows.append(["average"]
                + [cmp_.average_relative(c) for c in coolings])
    freq_note = ", ".join(
        f"{o.cooling}@{o.point.f_ghz:.1f}GHz"
        for o in cmp_.outcomes if o.feasible)
    return (f"{title}\n(operating points: {freq_note}; "
            f"{cmp_.threads} threads)\n"
            + format_table(headers, rows))


def run_comparison(chip: str, n_chips: int, reference: str
                   ) -> NpbComparison:
    """The timed kernel: full power->thermal->performance pipeline."""
    return run_npb_comparison(chip, n_chips, reference=reference)

