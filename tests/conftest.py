"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.analysis.anchors import Measurements
from repro.cooling.options import get_cooling
from repro.power.processors import get_chip
from repro.stack.chipstack import StackConfig
from repro.thermal.hotspot import ThermalModel
from repro.thermal.package import DEFAULT_PACKAGE, PackageParams


@pytest.fixture(scope="session")
def fast_params() -> PackageParams:
    """Coarser grids for tests that only need qualitative behaviour."""
    from dataclasses import replace
    return replace(DEFAULT_PACKAGE, die_grid=8, package_grid=4)


@pytest.fixture(scope="session")
def lp_water_4(fast_params: PackageParams) -> ThermalModel:
    """A 4-chip low-power stack under water immersion (shared, cached)."""
    return ThermalModel(
        StackConfig(chip=get_chip("low-power-cmp"), n_chips=4),
        get_cooling("water"),
        fast_params,
    )


@pytest.fixture(scope="session")
def hf_air_2(fast_params: PackageParams) -> ThermalModel:
    """A 2-chip high-frequency stack under air cooling."""
    return ThermalModel(
        StackConfig(chip=get_chip("high-frequency-cmp"), n_chips=2),
        get_cooling("air"),
        fast_params,
    )


@pytest.fixture(scope="session")
def measured() -> Measurements:
    """Everything the anchor table reads at the calibrated package,
    computed once for every test that checks the paper's anchors."""
    return Measurements()
