"""The benchmark's workloads: which cases each one runs, and with what budget.

Budgets and oracle sample counts are fixed here and passed explicitly to
``run_suites``; the library defaults are never used, so a later change to a
default cannot change the work measured.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    algebra: str
    manifold: str
    cutoff: int

    @property
    def id(self) -> str:
        return f"{self.algebra}/{self.manifold}/c{self.cutoff}"


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    suite: str
    budget: int
    oracle_samples: int
    cold_wigner: bool  # clear the 3j cache before every pass, as a fresh CLI process does
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-sampled",
            cases=(Case("su2", "s3", 3), Case("su3", "s2", 2)),
            suite="all",
            budget=1000,
            oracle_samples=500,
            cold_wigner=False,
            why=(
                "budget below the triple counts, so Jacobi, invariance and associativity run "
                "sampled: the exact bracket kernel under low pair-cache reuse, out-of-cutoff "
                "products and the S^3 grading check"
            ),
        ),
        Workload(
            name="verify-exhaustive",
            cases=(
                Case("su2", "s2", 2),
                Case("su2", "t2", 1),
                Case("su2", "s3", 1),
                Case("su2", "t1", 2),
            ),
            suite="all",
            budget=20000,
            oracle_samples=500,
            cold_wigner=False,
            why=(
                "every check exhaustive on small cases: the same layers as verify-sampled with "
                "high pair-cache reuse, plus per-case overhead and the torus hierarchy rebuild"
            ),
        ),
        Workload(
            name="tables",
            cases=(Case("su2", "s3", 4), Case("su2", "s2", 7)),
            suite="oracle",
            budget=20000,
            oracle_samples=1000,
            cold_wigner=True,
            why=(
                "large mode tables built from a cold 3j cache, dumped, loaded and checked by the "
                "quadrature oracle only: wigner, modes, serialize and quadrature, never the bracket"
            ),
        ),
    )
}
