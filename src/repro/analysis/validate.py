"""Paper-vs-measured validation records.

The anchor table (:mod:`repro.analysis.anchors`) renders its rows
through these helpers: a :class:`Check` compares a measured value
against the paper's published one, and a :class:`ValidationReport`
aggregates checks per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One paper-vs-measured comparison.

    Attributes:
        name: what is compared.
        paper: the published value (None when the paper gives only a
            qualitative statement).
        measured: this reproduction's value.
        tolerance: acceptable |measured - paper| (absolute), or None
            for qualitative checks judged by ``passed``.
        passed: outcome; for quantitative checks computed from the
            tolerance, for qualitative ones supplied by the caller.
        note: context (units, where the paper states the value).
    """

    name: str
    paper: float | None
    measured: float
    tolerance: float | None
    passed: bool
    note: str = ""

    @classmethod
    def quantitative(cls, name: str, paper: float, measured: float,
                     tolerance: float, note: str = "") -> "Check":
        """Build a tolerance-judged check."""
        return cls(name=name, paper=paper, measured=measured,
                   tolerance=tolerance,
                   passed=abs(measured - paper) <= tolerance, note=note)

    @classmethod
    def qualitative(cls, name: str, measured: float, passed: bool,
                    note: str = "") -> "Check":
        """Build a caller-judged check (ordering, feasibility...)."""
        return cls(name=name, paper=None, measured=measured,
                   tolerance=None, passed=passed, note=note)

    def render(self) -> str:
        """One-line textual form."""
        mark = "PASS" if self.passed else "DEVIATION"
        paper = "--" if self.paper is None else f"{self.paper:g}"
        return (f"[{mark}] {self.name}: paper={paper} "
                f"measured={self.measured:g}"
                + (f"  ({self.note})" if self.note else ""))


@dataclass
class ValidationReport:
    """Checks for one experiment (figure/table)."""

    experiment: str
    checks: list[Check] = field(default_factory=list)

    def add(self, check: Check) -> None:
        """Append a check."""
        self.checks.append(check)

    @property
    def passed(self) -> int:
        """Number of passing checks."""
        return sum(c.passed for c in self.checks)

    @property
    def total(self) -> int:
        """Total checks."""
        return len(self.checks)

    def render(self) -> str:
        """Multi-line report."""
        lines = [f"== {self.experiment}: {self.passed}/{self.total} =="]
        lines.extend(c.render() for c in self.checks)
        return "\n".join(lines)
