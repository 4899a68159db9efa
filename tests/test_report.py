"""The validation report (``repro report``, ``scripts/make_report.py``):
the anchor table's rows, one section per figure or section."""

from __future__ import annotations

from repro.analysis.anchors import ANCHORS, full_report, render_full_report


class TestReportSections:
    def test_rotation_section_all_pass(self, measured):
        rep = next(r for r in full_report(measured)
                   if r.experiment == "Fig. 15")
        assert rep.passed == rep.total == sum(a.figure == "Fig. 15"
                                              for a in ANCHORS)

    def test_render_contains_verdicts(self, measured):
        text = render_full_report(measured)
        n = len(ANCHORS)
        assert text.startswith(f"paper-vs-measured validation: {n}/{n} checks")
        assert "[PASS]" in text
        for rep in full_report(measured):
            assert f"== {rep.experiment}: {rep.passed}/{rep.total} ==" in text
