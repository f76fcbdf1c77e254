"""Check reports: one record per verified identity, exact witnesses on failure."""

from __future__ import annotations

from typing import Any, List, Optional


class AxiomCheck:
    """Outcome of a single identity check.

    ``witness`` holds the exact difference (tensor or element) when the check
    fails; ``element`` names the offending basis element for checks that are
    quantified over the basis.  ``over`` is the loop domain of such a check,
    "generators" or "basis", and ``size`` the number of elements in it.
    """

    def __init__(self, axiom: str, passed: bool, witness: Any = None,
                 element: Optional[str] = None, over: Optional[str] = None,
                 size: int = 0, seconds: float = 0.0):
        self.axiom, self.passed, self.witness, self.element = axiom, passed, witness, element
        self.over, self.size, self.seconds = over, size, seconds

    def as_dict(self) -> dict:
        # timing and loop domain are excluded: serialized reports must be
        # byte-identical across runs and engine versions on the same input
        d = {"id": self.axiom, "passed": self.passed}
        if self.element is not None:
            d["element"] = self.element
        if not self.passed and self.witness is not None:
            d["witness"] = str(self.witness)
        return d


class AxiomReport:
    def __init__(self, subject: str, checks: Optional[List[AxiomCheck]] = None):
        self.subject, self.checks = subject, [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def add(self, check: AxiomCheck) -> None:
        self.checks.append(check)

    def extend(self, other: "AxiomReport") -> None:
        self.checks.extend(other.checks)

    def find(self, axiom: str) -> Optional[AxiomCheck]:
        return next((c for c in self.checks if c.axiom == axiom), None)

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def summary(self) -> str:
        lines = [f"{self.subject}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            at = f" @ {c.element}" if c.element else ""
            over = ""
            if c.over is not None:
                noun = "generator" if c.over == "generators" else "basis element"
                over = f"over {c.size} {noun}{'' if c.size == 1 else 's'}, "
            lines.append(f"  [{mark}] {c.axiom}{at}  ({over}{c.seconds:.3f} s)")
        return "\n".join(lines)
