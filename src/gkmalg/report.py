"""Machine-readable pass/fail records for the verification suites.

:func:`checking` is the one harness every check runs under: it builds and
times the check's :class:`CheckResult` and turns a :class:`CheckFailed`
raised by the check body into a failure carrying the witness.  It imports
nothing from the package, so every module that defines a check can use it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class CheckResult:
    """One verified property: outcome, sampling regime, and failure witness.

    A failing check always carries a witness dict with enough identifiers
    (generator ids, mode labels, offending value) to reproduce it, plus a
    ``replay`` hint when produced through the command-line driver.
    """

    name: str
    passed: bool
    regime: str = "exhaustive"  # "exhaustive" | "sampled" | "skipped"
    seed: int | None = None
    witness: dict | None = None
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)

    def tally(self, key: str, items):
        """Yield ``items``, counting each one into ``details[key]`` as it is checked."""
        self.details[key] = 0
        for item in items:
            self.details[key] += 1
            yield item

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "regime": self.regime,
            "wall_time_s": round(self.wall_time, 6),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CheckResult":
        return cls(
            name=data["name"],
            passed=bool(data["passed"]),
            regime=data.get("regime", "exhaustive"),
            seed=data.get("seed"),
            witness=data.get("witness"),
            wall_time=float(data.get("wall_time_s", 0.0)),
            details=data.get("details", {}),
        )


class CheckFailed(Exception):
    """Raised inside :func:`checking` to fail the check with ``witness``."""

    def __init__(self, witness: dict):
        super().__init__(witness)
        self.witness = witness


@contextmanager
def checking(name: str):
    """Run one check body and yield the :class:`CheckResult` it fills in.

    The body records its items (see :meth:`CheckResult.tally`), may set the
    regime and seed, and fails by raising :class:`CheckFailed`.  The harness
    sets ``passed``, ``witness`` and ``wall_time``.
    """
    result = CheckResult(name=name, passed=True)
    start = perf_counter()
    try:
        yield result
    except CheckFailed as failure:
        result.passed = False
        result.witness = failure.witness
    result.wall_time = perf_counter() - start


@dataclass
class VerificationReport:
    """Ordered collection of check results with an overall verdict."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    def extend(self, results) -> None:
        self.checks.extend(results)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(checks=[CheckResult.from_dict(c) for c in data.get("checks", [])])

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f" [{c.regime}]" if c.regime != "exhaustive" else ""
            line = f"{status:4}  {c.name}{extra}  ({c.wall_time:.3f}s)"
            if c.witness:
                line += f"\n      witness: {c.witness}"
            lines.append(line)
        verdict = "ALL CHECKS PASSED" if self.passed else "VERIFICATION FAILED"
        lines.append(verdict)
        return "\n".join(lines)
