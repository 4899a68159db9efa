"""Headline — the abstract's numbers, end to end.

"...the water-immersion chip multiprocessors outperform the counterpart
water-pipe cooled and oil-immersion chips by up to 14% and 4.5%,
respectively, in terms of execution times of NAS Parallel Benchmarks."

This bench runs the full pipeline over all four NPB configurations and
reports the best average improvement of water over each reference.
"""

from __future__ import annotations

from repro.analysis import format_mapping
from repro.core.cosim import headline_summary
from repro.datasets import paper


def test_headline(benchmark, save_artifact):
    h = benchmark(headline_summary)
    save_artifact(
        "headline_summary",
        format_mapping(
            "Headline: best average NPB execution-time reduction of "
            "water immersion", h)
        + f"\npaper: up to {paper.HEADLINE_VS_WATER_PIPE:.0%} vs water "
          f"pipe, {paper.HEADLINE_VS_MINERAL_OIL:.1%} vs mineral oil")
