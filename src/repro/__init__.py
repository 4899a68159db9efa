"""repro — water-immersion computer boards, reproduced in Python.

Reproduction of Koibuchi, Fujiwara, Niwa, Totoki, Hirasawa: *The Case
for Water-Immersion Computer Boards*, ICPP 2019.

The package provides the paper's full evaluation pipeline:

* :mod:`repro.power` — McPAT-like chip power model with alpha-power VFS;
* :mod:`repro.thermal` — HotSpot-like steady-state 3-D thermal model;
* :mod:`repro.floorplan` — die floorplans and rotations;
* :mod:`repro.cooling` — air / water-pipe / immersion cooling options;
* :mod:`repro.stack` — 3-D chip stacks;
* :mod:`repro.perfsim` — gem5-like CMP performance simulation of the
  NAS Parallel Benchmarks;
* :mod:`repro.core` — thermal-constrained frequency optimization and
  the power->thermal->performance co-simulation;
* :mod:`repro.prototype` — in-water prototype board models (Section 2);
* :mod:`repro.datasets` — the paper's published numbers, digitized.

Quickstart::

    from repro import quick_max_frequency
    point = quick_max_frequency("high-frequency-cmp", n_chips=4,
                                cooling="water")
    print(point.f_ghz, point.max_temp_c)
"""

from __future__ import annotations

__version__ = "1.0.0"

from .config import ExperimentResult, ExperimentSpec
from .cooling import get_cooling
from .core import OperatingPoint, max_frequency
from .core.point import evaluate
from .power import get_chip
from .stack import StackConfig, flip_even_layers, uniform_stack
from .stack.chipstack import flip_rotations
from .thermal import ThermalModel, model_for


def quick_max_frequency(chip: str, n_chips: int, cooling: str,
                        *, flip: bool = False,
                        threshold_c: float | None = None) -> OperatingPoint:
    """One-call version of the paper's core question.

    Args:
        chip: chip name ("low-power-cmp", "high-frequency-cmp",
            "xeon-e5-2667v4", "xeon-phi-7290").
        n_chips: stack height.
        cooling: cooling option name ("air", "water_pipe", "mineral_oil",
            "fluorinert", "water").
        flip: apply the Section 4.2 rotation schedule.
        threshold_c: temperature limit override.

    Returns:
        The maximum-frequency operating point
        (:func:`repro.core.point.evaluate` with no programs).
    """
    return evaluate(chip, n_chips, cooling, threshold_c=threshold_c,
                    rotations=flip_rotations(n_chips) if flip else ()).point


__all__ = [
    "__version__",
    "quick_max_frequency",
    "ExperimentSpec",
    "ExperimentResult",
    "OperatingPoint",
    "max_frequency",
    "ThermalModel",
    "model_for",
    "StackConfig",
    "uniform_stack",
    "flip_even_layers",
    "get_chip",
    "get_cooling",
]
