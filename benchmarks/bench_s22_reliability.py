"""Section 2.2/2.3 — in-water component reliability campaign.

Regenerates the test-board outcome table and the board-lifetime
predictions: an unmasked (fully coated) board is limited by the PCIe x4
connector class, while the paper's masked configuration survives "a
couple of years" and beyond.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.datasets import paper
from repro.prototype import (
    CAMPAIGN_YEARS,
    NUM_TEST_BOARDS,
    TEST_BOARD_COMPONENTS,
    fitted_lifetimes,
    fully_coated_board,
    masked_board,
)


def run_reliability():
    lives = fitted_lifetimes()
    full = fully_coated_board()
    masked = masked_board()
    return lives, full.median_life_years(), masked.median_life_years()


def test_s22(benchmark, save_artifact):
    lives, full_years, masked_years = benchmark(run_reliability)
    rows = []
    for c in TEST_BOARD_COMPONENTS:
        exposed = NUM_TEST_BOARDS * c.per_board
        expected = exposed * lives[c.name].failure_probability(
            CAMPAIGN_YEARS)
        rows.append([c.name, c.observed_failures, round(expected, 2),
                     round(lives[c.name].mean_years(), 2)])
    table = format_table(
        ["component", "observed fails (2y, 5 boards)", "model expected",
         "model MTTF years"], rows)
    summary = (f"fully coated board median life: {full_years:.2f} years\n"
               f"masked board median life:       {masked_years:.2f} years")
    save_artifact("s22_reliability",
                  "Section 2.2: test-board campaign vs fitted model\n"
                  + table + "\n" + summary)

    for c in TEST_BOARD_COMPONENTS:
        assert c.observed_failures == paper.TESTBOARD_FAILURES[c.name]
    assert masked_years > full_years    # masking helps

    # Monte-Carlo agreement with the analytic survival curve.
    rng = np.random.default_rng(7)
    mc = float(np.median(masked_board().simulate(rng, 3000)))
    assert abs(mc - masked_years) / masked_years < 0.15
