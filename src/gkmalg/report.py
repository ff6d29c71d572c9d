"""Machine-readable pass/fail records for the verification suites.

:func:`checking` is the one harness every check runs under: it builds and
times the check's :class:`CheckResult` and turns a :class:`CheckFailed`
raised by the check body into a failure carrying the witness.  It imports
nothing from the package, so every module that defines a check can use it.
Check bodies, and the builds, dumps and loads, run under :func:`gc_paused`,
which on its way out moves what they built into the collector's oldest
generation (CPython's ``gc.freeze``/``gc.unfreeze``), so young collections
after the pause do not re-scan it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


# The keys a check counts its items under; each check records exactly one.  A check
# that draws its items also records their population's size under "population".
ITEM_KEYS = ("triples", "pairs", "bracket_pairs", "entries", "samples", "modes", "dim")


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
        """Yield ``items``, counting each one into ``details[key]`` as it is checked.

        A check that decides its items without walking them (one derived
        from the factor checks of its run, on a pass) sets ``details[key]``
        to the count a walk would reach instead.
        """
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
def gc_paused():
    """Hold off CPython's cyclic garbage collector while the body runs.

    Building, dumping, loading and checking make tens of thousands of small
    containers, and each full collection scans them all for nothing: they
    form no cycles, so reference counting alone frees them.  The collector is
    re-enabled afterwards only if it was on before, so a caller that turned
    it off finds it off.  Also usable as a decorator.

    Before re-enabling it, the pause moves every tracked object into the
    oldest generation with ``gc.freeze(); gc.unfreeze()``, which CPython does
    in constant time and which zeroes the young count.  So the first young
    collection after the pause does not scan what the body built, and no later
    one does either; only a full collection looks at it again.  That is safe
    for the same reason as the pause: what the body leaves alive holds no
    cycles to free sooner.  The promotion is skipped when the caller has
    frozen objects, since ``gc.unfreeze`` would thaw them too, and when the
    collector was off, so such callers see exactly the plain pause.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


@contextmanager
def checking(name: str):
    """Run one check body and yield the :class:`CheckResult` it fills in.

    The body records its items (see :meth:`CheckResult.tally`), may set the
    regime and seed, and fails by raising :class:`CheckFailed`.  The harness
    sets ``passed``, ``witness`` and ``wall_time``, and pauses the collector.
    """
    result = CheckResult(name=name, passed=True)
    start = perf_counter()
    with gc_paused():
        try:
            yield result
        except CheckFailed as failure:
            result.passed = False
            result.witness = failure.witness
    result.wall_time = perf_counter() - start


@dataclass
class VerificationReport:
    """Ordered collection of check results with an overall verdict.

    ``stats`` holds run-level counters (cache sizes after the run); it is
    written only when set, so the other keys keep their meaning.
    """

    checks: list[CheckResult] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

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
        out = {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}
        if self.stats:
            out["stats"] = self.stats
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            checks=[CheckResult.from_dict(c) for c in data.get("checks", [])],
            stats=data.get("stats", {}),
        )

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            seed = f", seed {c.seed}" if c.seed is not None else ""
            extra = f" [{c.regime}{seed}]" if c.regime != "exhaustive" else ""
            of = f" of {c.details['population']}" if "population" in c.details else ""
            extra += "".join(f"  {c.details[k]}{of} {k}" for k in ITEM_KEYS if k in c.details)
            line = f"{status:4}  {c.name}{extra}  ({c.wall_time:.3f}s)"
            if c.witness:
                line += f"\n      witness: {c.witness}"
            lines.append(line)
        verdict = "ALL CHECKS PASSED" if self.passed else "VERIFICATION FAILED"
        lines.append(verdict)
        return "\n".join(lines)
