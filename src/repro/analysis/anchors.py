"""The paper's anchors, as one table.

Each row of :data:`ANCHORS` is one published number or shape: an id,
the figure or section it comes from, the paper's value (read from
:mod:`repro.datasets.paper`; None where the paper states the anchor in
words), an inclusive window the measured value must fall in, and the
measure that reads that value from :class:`Measurements`. A shape
claim ("water is fastest on every program") is measured as a count of
violations, with the window ``(0, 0)``.

A row marked ``pinned`` holds one of EXPERIMENTS.md's accepted
deviations at its measured value: exactly for chip counts and ladder
steps, within 0.005 for fractions. A fix then fails the row as surely
as further drift does; move the pin and EXPERIMENTS.md together.

The tier-1 test (``tests/test_anchors.py``) checks each row;
:func:`full_report` (``repro report``, ``scripts/make_report.py``) and
``scripts/calibrate.py`` render them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from ..datasets import paper
from ..errors import ReproError
from ..thermal.package import DEFAULT_PACKAGE, PackageParams
from .tables import format_table
from .validate import Check, ValidationReport

LP, HF, E5, PHI = ("low-power-cmp", "high-frequency-cmp", "xeon-e5-2667v4",
                   "xeon-phi-7290")
_LABEL = {LP: "LP", HF: "HF", E5: "E5", PHI: "Phi"}
#: The paper's cooling options, worst to best.
COOLINGS = ("air", "water_pipe", "mineral_oil", "fluorinert", "water")
#: Stack heights of each chip's frequency grid (Figs. 1, 7, 8, 17).
GRID_HEIGHTS = {LP: tuple(range(1, 16)), HF: tuple(range(1, 16)),
                E5: (1, 2, 3, 4), PHI: (1, 2, 3, 4)}
#: Fig. 14's heat-transfer coefficients (W/m2K), air to beyond water.
H_VALUES = (14.0, 30.0, 50.0, 60.0, 120.0, 160.0, 180.0, 250.0, 400.0,
            800.0, 1200.0, 1600.0, 2000.0)
#: Figs. 10-13, in the order of :data:`repro.core.cosim.NPB_FIGURES`.
NPB_FIGS = (10, 11, 12, 13)


class Measurements:
    """Everything the rows read, for one :class:`PackageParams`.

    Each group is computed on first use and kept, so checking the table
    runs every grid, comparison and sweep once.
    """

    def __init__(self, params: PackageParams = DEFAULT_PACKAGE) -> None:
        self.params = params

    @cached_property
    def grids(self) -> dict:
        """Max frequency by chip, then cooling option, over
        :data:`GRID_HEIGHTS` (Figs. 1, 7, 8, 17)."""
        from ..core.sweeps import frequency_vs_chips
        return {chip: {s.cooling: s for s in frequency_vs_chips(
                    chip, heights, COOLINGS, params=self.params)}
                for chip, heights in GRID_HEIGHTS.items()}

    @cached_property
    def npb(self) -> dict:
        """Figs. 10-13's NPB comparisons, by figure number."""
        from ..core.cosim import NPB_FIGURES, run_npb_comparison
        return {fig: run_npb_comparison(chip, n, reference=ref,
                                        params=self.params)
                for fig, (chip, n, ref) in zip(NPB_FIGS, NPB_FIGURES)}

    @cached_property
    def headline(self) -> dict[str, float]:
        """The abstract's two NPB gains, from :attr:`npb`."""
        from ..core.cosim import headline_summary
        return headline_summary(self.npb.values())

    @cached_property
    def rotation(self) -> dict:
        """Fig. 15: the 4-chip high-frequency stack's hottest cell over
        its ladder, by (cooling, flipped)."""
        from ..core.sweeps import temperature_vs_frequency
        return {(c, flip): temperature_vs_frequency(
                    HF, c, flipped=flip, params=self.params).max_temp_c
                for c in ("air", "water") for flip in (False, True)}

    @cached_property
    def flip_ghz(self) -> dict[str, float]:
        """Fig. 15: the flipped 4-chip high-frequency stack's max
        frequency by cooling (0.0 where infeasible)."""
        from ..core.point import evaluate
        from ..stack.chipstack import flip_rotations
        return {c: evaluate(HF, 4, c, rotations=flip_rotations(4),
                            params=self.params).point.f_ghz
                for c in ("air", "water")}

    @cached_property
    def h_sweep(self) -> dict[str, tuple[float, ...]]:
        """Fig. 14: each chip's 4-chip stack at f_max, hottest cell over
        :data:`H_VALUES`."""
        from ..core.sweeps import temperature_vs_h
        return {chip: temperature_vs_h(chip, H_VALUES,
                                       params=self.params).max_temp_c
                for chip in GRID_HEIGHTS}

    @cached_property
    def fig4(self) -> dict[str, float]:
        """Fig. 4: the prototype board's chip temperature by scenario."""
        from ..prototype import PrototypeBoardModel
        return PrototypeBoardModel().figure4()

    @cached_property
    def failures(self) -> dict[str, float]:
        """Section 2.2: each component's expected failures over the
        test-board campaign."""
        from ..prototype import (CAMPAIGN_YEARS, NUM_TEST_BOARDS,
                                 TEST_BOARD_COMPONENTS, fitted_lifetimes)
        lives = fitted_lifetimes()
        return {c.name: NUM_TEST_BOARDS * c.per_board
                * lives[c.name].failure_probability(CAMPAIGN_YEARS)
                for c in TEST_BOARD_COMPONENTS}

    @cached_property
    def masked_life_years(self) -> float:
        """Section 2.2: median life of the masked board."""
        from ..prototype import masked_board
        return masked_board().median_life_years()

    @cached_property
    def pue(self) -> dict[str, float]:
        """Section 4.4: PUE by facility."""
        from ..cooling import pue_comparison
        return pue_comparison()

    def ghz(self, chip: str, cooling: str, n: int) -> float:
        """Grid frequency at height ``n`` (0.0 where infeasible)."""
        return self.grids[chip][cooling].f_ghz[GRID_HEIGHTS[chip].index(n)]

    def depth(self, chip: str, cooling: str) -> int:
        """Tallest feasible stack on the grid."""
        return self.grids[chip][cooling].feasible_up_to()

    def misordered(self, chip: str) -> int:
        """(height, neighbouring options) where the worse option of
        :data:`COOLINGS` runs faster."""
        by = self.grids[chip]
        return sum(fa > fb + 1e-9 for a, b in zip(COOLINGS, COOLINGS[1:])
                   for fa, fb in zip(by[a].f_ghz, by[b].f_ghz))

    def gain(self, fig: int) -> float:
        """Water's average NPB time reduction against the figure's
        reference."""
        return 1.0 - self.npb[fig].average_relative("water")

    def water_relative(self, fig: int) -> dict[str, float]:
        """Water's per-program time relative to the figure's reference."""
        return self.npb[fig].relative_times("water")

    def water_not_fastest(self, fig: int) -> int:
        """(program, feasible option) pairs that beat water."""
        cmp_ = self.npb[fig]
        water = cmp_.relative_times("water")
        return sum(water[p] > other[p] + 1e-9
                   for other in (cmp_.relative_times(o.cooling)
                                 for o in cmp_.outcomes if o.feasible)
                   for p in water)


def _ratio(a: float, b: float) -> float:
    """a / b, NaN (outside every window) when b is 0."""
    return a / b if b else math.nan


def _around(value: float, tol: float) -> tuple[float, float]:
    return (value - tol, value + tol)


def _ahead_of_ep(relative: dict[str, float]) -> int:
    """Programs with a smaller relative time than EP's."""
    return sum(v < relative["ep"] for v in relative.values())


def _behind_is_cg(relative: dict[str, float]) -> int:
    """Programs with a larger relative time than both IS's and CG's."""
    return sum(v > max(relative["is"], relative["cg"])
               for v in relative.values())


def _steps_not_falling(temps) -> int:
    return sum(b >= a for a, b in zip(temps, temps[1:]))


def _returns_not_diminishing(temps) -> int:
    return int(temps[0] - temps[1] <= temps[-2] - temps[-1])


@dataclass(frozen=True)
class Anchor:
    """One row of the table.

    Attributes:
        id: stable name (the tier-1 test id).
        figure: the figure, table or section; the report groups by it.
        claim: what the measure reads, in words.
        paper: the paper's value, or None for a claim made in words.
        window: inclusive (low, high) bounds; None is unbounded.
        measure: reads the value from :class:`Measurements`.
        pinned: an accepted deviation held at its measured value.
    """

    id: str
    figure: str
    claim: str
    paper: float | None
    window: tuple[float | None, float | None]
    measure: Callable[[Measurements], float]
    pinned: bool = False

    def check(self, measured: Measurements) -> Check:
        """The row against ``measured``; a measure that cannot be
        taken (say, an option infeasible under an override) misses."""
        low, high = self.window
        note = (f"{self.claim}; window "
                f"[{'-inf' if low is None else f'{low:g}'}, "
                f"{'inf' if high is None else f'{high:g}'}]"
                + ("; pinned deviation" if self.pinned else ""))
        try:
            value = float(self.measure(measured))
        except ReproError as exc:
            return Check(self.id, self.paper, math.nan, None, False,
                         f"{note}; {exc}")
        passed = ((low is None or value >= low)
                  and (high is None or value <= high))
        return Check(self.id, self.paper, value, None, passed, note)


#: A shape row's window: no violations.
_NONE = (0, 0)
_WATER_H = paper.HEAT_TRANSFER_W_M2K["water"]

ANCHORS: tuple[Anchor, ...] = (
    # Fig. 1: Xeon E5 stacks at the chip's 78 C limit.
    Anchor("fig1-e5-water-1chip", "Fig. 1", "E5 under water, 1 chip (GHz)",
           paper.E5_MAX_FREQ_GHZ, (3.4, paper.E5_MAX_FREQ_GHZ + 0.21),
           lambda m: m.ghz(E5, "water", 1)),
    Anchor("fig1-e5-air-3chip", "Fig. 1", "E5 under air, 3 chips (GHz)",
           paper.FIG1_E5[3]["air"], (1.2, 1.2),
           lambda m: m.ghz(E5, "air", 3), pinned=True),
    Anchor("fig1-e5-water-minus-air-3chip", "Fig. 1",
           "E5, 3 chips: water GHz minus air GHz",
           paper.FIG1_E5[3]["water"] - paper.FIG1_E5[3]["air"], (0.4, None),
           lambda m: m.ghz(E5, "water", 3) - m.ghz(E5, "air", 3)),
    # Fig. 4: the prototype board (Section 2.4).
    *(Anchor(f"fig4-{s.replace('_', '-')}", "Fig. 4",
             f"prototype chip, {s} (C)", t, _around(t, 1.0),
             lambda m, s=s: m.fig4[s])
      for s, t in paper.FIG4_TEMPERATURES_C.items()),
    Anchor("fig4-immersion-gain", "Fig. 4",
           "air minus full immersion (C)", paper.ABSTRACT_IMMERSION_GAIN_C,
           _around(paper.ABSTRACT_IMMERSION_GAIN_C, 1.0),
           lambda m: m.fig4["air"] - m.fig4["full_immersion"]),
    # Fig. 7: the low-power CMP at 80 C.
    Anchor("fig7-lp-air-depth", "Fig. 7", "LP under air: tallest stack",
           paper.LOW_POWER_MAX_CHIPS["air"], (5, 5),
           lambda m: m.depth(LP, "air"), pinned=True),
    Anchor("fig7-lp-pipe-depth", "Fig. 7",
           "LP under the water pipe: tallest stack (so 8 fails, "
           "Fig. 11's premise)", paper.LOW_POWER_MAX_CHIPS["water_pipe"],
           (paper.LOW_POWER_MAX_CHIPS["water_pipe"],) * 2,
           lambda m: m.depth(LP, "water_pipe")),
    Anchor("fig7-lp-oil-8chip", "Fig. 7",
           "LP under oil, 8 chips (GHz; feasible, Fig. 11's reference)",
           None, (paper.VFS_LOW_POWER["min_ghz"], None),
           lambda m: m.ghz(LP, "mineral_oil", 8)),
    Anchor("fig7-lp-water-depth", "Fig. 7", "LP under water: tallest stack",
           None, (10, None), lambda m: m.depth(LP, "water")),
    Anchor("fig7-lp-1chip-cap", "Fig. 7",
           "LP, 1 chip: slowest option (GHz)", paper.VFS_LOW_POWER["max_ghz"],
           (paper.VFS_LOW_POWER["max_ghz"],) * 2,
           lambda m: min(m.ghz(LP, c, 1) for c in COOLINGS)),
    Anchor("fig7-lp-6chip-water-over-pipe", "Fig. 7",
           "LP, 6 chips: water GHz over water-pipe GHz", None, (1.1, 1.7),
           lambda m: _ratio(m.ghz(LP, "water", 6),
                            m.ghz(LP, "water_pipe", 6))),
    Anchor("fig7-lp-8chip-water-over-oil", "Fig. 7",
           "LP, 8 chips: water GHz over oil GHz", None, (1.0, 1.2),
           lambda m: _ratio(m.ghz(LP, "water", 8),
                            m.ghz(LP, "mineral_oil", 8))),
    # Fig. 8: the high-frequency CMP at 80 C.
    Anchor("fig8-hf-air-depth", "Fig. 8",
           f"HF under air: tallest stack (paper: air cannot support "
           f"{paper.AIR_CANNOT_SUPPORT[0]})", None, (6, 6),
           lambda m: m.depth(HF, "air"), pinned=True),
    Anchor("fig8-hf-air-deeper-than-lp", "Fig. 8",
           "tallest air stack, HF minus LP (broader VFS range)", None,
           (0, None), lambda m: m.depth(HF, "air") - m.depth(LP, "air")),
    Anchor("fig8-hf-pipe-8chip", "Fig. 8",
           "HF under the water pipe, 8 chips (GHz; feasible, Fig. 13's "
           "reference)", None, (paper.VFS_HIGH_FREQ["min_ghz"], None),
           lambda m: m.ghz(HF, "water_pipe", 8)),
    Anchor("fig8-hf-water-4chip", "Fig. 8", "HF under water, 4 chips (GHz)",
           None, (3.0, None), lambda m: m.ghz(HF, "water", 4)),
    Anchor("fig8-hf-water-depth", "Fig. 8", "HF under water: tallest stack",
           None, (10, None), lambda m: m.depth(HF, "water")),
    Anchor("fig8-hf-6chip-water-over-pipe", "Fig. 8",
           "HF, 6 chips: water GHz over water-pipe GHz", None, (1.1, 1.7),
           lambda m: _ratio(m.ghz(HF, "water", 6),
                            m.ghz(HF, "water_pipe", 6))),
    # Figs. 10-13: NPB times, and the abstract's headline.
    Anchor("fig10-gain", "Figs. 10-13",
           "6-chip LP: water's average gain over the water pipe",
           paper.HEADLINE_VS_WATER_PIPE, (0.08, 0.25), lambda m: m.gain(10)),
    *(Anchor(f"fig{fig}-threads", "Figs. 10-13", f"{n}-chip stacks: threads",
             paper.NPB_THREADS[n], (paper.NPB_THREADS[n],) * 2,
             lambda m, fig=fig: m.npb[fig].threads)
      for fig, n in ((10, 6), (13, 8))),
    Anchor("fig10-water-beats-pipe", "Figs. 10-13",
           "6-chip LP: programs water does not run faster than the pipe",
           None, _NONE,
           lambda m: sum(v >= 1.0 for v in m.water_relative(10).values())),
    Anchor("fig11-gain", "Figs. 10-13",
           "8-chip LP: water's average gain over oil",
           paper.HEADLINE_VS_MINERAL_OIL,
           _around(paper.HEADLINE_VS_MINERAL_OIL, 0.03), lambda m: m.gain(11)),
    Anchor("fig11-pipe-feasible", "Figs. 10-13",
           "8-chip LP: the water pipe is feasible (1) or not (0)", None,
           _NONE, lambda m: m.npb[11].outcome("water_pipe").feasible),
    Anchor("fig12-gain", "Figs. 10-13",
           "6-chip HF: water's average gain over the water pipe",
           paper.HEADLINE_VS_WATER_PIPE, (0.08, 0.22), lambda m: m.gain(12)),
    Anchor("fig13-gain", "Figs. 10-13",
           "8-chip HF: water's average gain over the water pipe",
           paper.HEADLINE_VS_WATER_PIPE, _around(0.228, 0.005),
           lambda m: m.gain(13), pinned=True),
    *(row for fig in NPB_FIGS for row in (
        Anchor(f"fig{fig}-water-fastest", "Figs. 10-13",
               f"Fig. {fig}: (program, option) pairs faster than water",
               None, _NONE, lambda m, fig=fig: m.water_not_fastest(fig)),
        Anchor(f"fig{fig}-ep-gains-most", "Figs. 10-13",
               f"Fig. {fig}: programs water speeds up more than EP", None,
               _NONE, lambda m, fig=fig: _ahead_of_ep(m.water_relative(fig))),
        Anchor(f"fig{fig}-is-cg-gain-least", "Figs. 10-13",
               f"Fig. {fig}: programs water speeds up less than both IS "
               f"and CG", None, _NONE,
               lambda m, fig=fig: _behind_is_cg(m.water_relative(fig))))),
    Anchor("headline-vs-pipe", "Figs. 10-13",
           "best average gain of water over the water pipe",
           paper.HEADLINE_VS_WATER_PIPE, _around(0.228, 0.005),
           lambda m: m.headline["water_vs_water_pipe_avg_reduction"],
           pinned=True),
    Anchor("headline-vs-oil", "Figs. 10-13",
           "best average gain of water over oil",
           paper.HEADLINE_VS_MINERAL_OIL,
           _around(paper.HEADLINE_VS_MINERAL_OIL, 0.03),
           lambda m: m.headline["water_vs_mineral_oil_avg_reduction"]),
    # Fig. 14: 4-chip stacks at f_max against the coolant's h.
    *(row for chip in GRID_HEIGHTS for row in (
        Anchor(f"fig14-{_LABEL[chip].lower()}-monotone", "Fig. 14",
               f"{_LABEL[chip]}: h steps that do not cool", None, _NONE,
               lambda m, chip=chip: _steps_not_falling(m.h_sweep[chip])),
        Anchor(f"fig14-{_LABEL[chip].lower()}-diminishing", "Fig. 14",
               f"{_LABEL[chip]}: returns that do not diminish (the first "
               f"h step cools no more than the last)", None, _NONE,
               lambda m, chip=chip: _returns_not_diminishing(
                   m.h_sweep[chip])))),
    Anchor("fig14-e5-beyond-water", "Fig. 14",
           f"E5: cooling from h = {_WATER_H:g} to h = 1600 W/m2K (C)", None,
           (2.0, None), lambda m: (m.h_sweep[E5][H_VALUES.index(_WATER_H)]
                                   - m.h_sweep[E5][H_VALUES.index(1600.0)])),
    # Fig. 15: the 4-chip high-frequency stack, plain and flipped.
    Anchor("fig15-flip-gain", "Fig. 15",
           "water, 3.6 GHz: plain minus flipped (C)",
           paper.FLIP_GAIN_AT_36GHZ_C,
           _around(paper.FLIP_GAIN_AT_36GHZ_C, 5.0),
           lambda m: (m.rotation["water", False][-1]
                      - m.rotation["water", True][-1])),
    Anchor("fig15-noflip-water-36", "Fig. 15",
           "water, 3.6 GHz, plain: hottest cell near the limit (C)",
           paper.THRESHOLD_C, (75.0, 95.0),
           lambda m: m.rotation["water", False][-1]),
    Anchor("fig15-flip-water-ghz", "Fig. 15", "flipped under water (GHz)",
           paper.FLIP_ENABLES_WATER_GHZ, (paper.FLIP_ENABLES_WATER_GHZ,) * 2,
           lambda m: m.flip_ghz["water"]),
    Anchor("fig15-flip-air-ghz", "Fig. 15", "flipped under air (GHz)",
           paper.FLIP_AIR_GHZ[1], (2.0, 2.0),
           lambda m: m.flip_ghz["air"], pinned=True),
    Anchor("fig15-flip-cooler", "Fig. 15",
           "(cooling, step) where the flip does not cool", None, _NONE,
           lambda m: sum(f >= p for c in ("air", "water") for p, f in zip(
               m.rotation[c, False], m.rotation[c, True]))),
    Anchor("fig15-water-cooler-than-air", "Fig. 15",
           "steps where plain water is not cooler than plain air", None,
           _NONE, lambda m: sum(w >= a for w, a in zip(
               m.rotation["water", False], m.rotation["air", False]))),
    Anchor("fig15-water-faster-than-air", "Fig. 15",
           "plain and flipped: feasible air at least as fast as water",
           None, _NONE, lambda m: sum(
               a > 0 and a >= w for a, w in (
                   (m.ghz(HF, "air", 4), m.ghz(HF, "water", 4)),
                   (m.flip_ghz["air"], m.flip_ghz["water"])))),
    # Fig. 17: Xeon Phi 7290 stacks.
    Anchor("fig17-phi-water-1chip", "Fig. 17", "Phi under water, 1 chip (GHz)",
           paper.PHI_MAX_FREQ_GHZ, (1.5, paper.PHI_MAX_FREQ_GHZ + 0.11),
           lambda m: m.ghz(PHI, "water", 1)),
    Anchor("fig17-phi-pipe-depth", "Fig. 17",
           "Phi under the water pipe: tallest stack",
           paper.PHI_MAX_CHIPS["water_pipe"],
           (None, paper.PHI_MAX_CHIPS["water_pipe"]),
           lambda m: m.depth(PHI, "water_pipe")),
    Anchor("fig17-phi-oil-depth", "Fig. 17", "Phi under oil: tallest stack",
           paper.PHI_MAX_CHIPS["mineral_oil"], (4, 4),
           lambda m: m.depth(PHI, "mineral_oil"), pinned=True),
    # Figs. 1, 7, 8, 17: coolant ordering at every height.
    *(Anchor(f"fig{fig}-{_LABEL[chip].lower()}-ordering", f"Fig. {fig}",
             f"{_LABEL[chip]}: (height, option pair) where the worse option "
             f"is faster", None, _NONE,
             lambda m, chip=chip: m.misordered(chip))
      for fig, chip in ((1, E5), (7, LP), (8, HF), (17, PHI))),
    # Section 2.2: the five-board, two-year campaign.
    *(Anchor(f"s22-{name.replace('_', '-')}-failures", "Section 2.2",
             f"{name}: expected failures over the campaign", n,
             _around(n, 1.0), lambda m, name=name: m.failures[name])
      for name, n in paper.TESTBOARD_FAILURES.items()),
    Anchor("s22-masked-life", "Section 2.2",
           "masked board: median life, 'a couple of years' (years)", None,
           (2.0, None), lambda m: m.masked_life_years),
    # Section 4.4: facility PUE.
    Anchor("s44-natural-water-pue", "Section 4.4",
           "in-water computers under natural water", paper.NATURAL_WATER_PUE,
           _around(paper.NATURAL_WATER_PUE, 0.01),
           lambda m: m.pue["in-water computers under natural water"]),
    Anchor("s44-oil-pue", "Section 4.4",
           "oil immersion (tanks + secondary water loop)",
           paper.OIL_IMMERSION_PUE_REPORTED,
           _around(paper.OIL_IMMERSION_PUE_REPORTED, 0.08),
           lambda m: m.pue["oil immersion (tanks + secondary water loop)"]),
)


def full_report(measured: Measurements | None = None
                ) -> list[ValidationReport]:
    """Every row checked, one report per figure or section.

    Reports follow the table's order; ``measured`` defaults to the
    calibrated package."""
    m = measured if measured is not None else Measurements()
    reports: dict[str, ValidationReport] = {}
    for row in ANCHORS:
        reports.setdefault(row.figure,
                           ValidationReport(row.figure)).add(row.check(m))
    return list(reports.values())


def render_full_report(measured: Measurements | None = None) -> str:
    """The whole paper-vs-measured report as text."""
    reports = full_report(measured)
    total = sum(r.total for r in reports)
    passed = sum(r.passed for r in reports)
    body = "\n\n".join(r.render() for r in reports)
    return (f"paper-vs-measured validation: {passed}/{total} checks\n\n"
            + body)


def render_grids(measured: Measurements) -> str:
    """Each chip's max-frequency grid (GHz; -- where infeasible)."""
    return "\n\n".join(
        f"{chip}:\n" + format_table(
            ["cooling", *map(str, GRID_HEIGHTS[chip])],
            [[c, *(f or None for f in by[c].f_ghz)] for c in COOLINGS],
            float_fmt="{:.1f}")
        for chip, by in measured.grids.items())
