"""Verification suites: every asserted algebraic property, exactly or vs oracle.

Each check body runs under the harness ``checking(name)`` of
:mod:`gkmalg.report`, which times it and builds its :class:`CheckResult`.
The body counts the distinct items it checks into ``details`` under one item
key (``triples``, ``pairs``, ``bracket_pairs``, ``entries``, ``samples``,
``modes`` or ``dim``) and fails by raising :class:`CheckFailed` with a witness:
the offending generator ids or mode labels and the nonzero value.  Checks read
the materialised tables of the algebra under test (not the generating rules),
so a tampered dump is diagnosed here rather than at parse time.

:func:`_draw` alone picks the regime: a budget that covers the population
checks every item in order ("exhaustive"); a smaller one checks that many
distinct items of the same population, drawn by :func:`sample_items`
("sampled", with the seed that reproduces the draw exactly).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial

from .algebra import GKMAlgebra, GKMElement, GenId, build_algebra
from .liealg import coefficients_in_span, jacobi_check_finite, killing_form
from .modes import ModeSystem, TorusGeometry
from .quadrature import (
    make_grid,
    numeric_cocycle_pairing,
    numeric_conjugation_pairing,
    numeric_eigencheck,
    numeric_product_coefficient,
)
from .report import CheckFailed, CheckResult, VerificationReport, checking
from .scalars import CSURD_ZERO, SURD_ONE, SURD_ZERO

DEFAULT_BUDGET = 50_000


# -- populations and the sampler ----------------------------------------------


class Combinations:
    """The ``k``-combinations of ``items`` (with ``repeats``: multisets), lazily.

    With ``lead``, each is preceded by one more item ranging over all of
    ``items``.  Iteration is the exhaustive loop in ``itertools`` order;
    ``len`` counts the population and ``[i]`` unranks its ``i``-th element
    without listing the others.
    """

    def __init__(self, items, k: int, repeats: bool = False, lead: bool = False):
        self.items, self.k, self.repeats, self.lead = list(items), k, repeats, lead
        # a multiset c_0 <= ... <= c_k-1 of range(n) is the set c_j + j of range(n + k - 1)
        self._span = len(self.items) + (k - 1 if repeats else 0)
        self._tails = comb(self._span, k)

    def __len__(self) -> int:
        return (len(self.items) if self.lead else 1) * self._tails

    def __iter__(self):
        combos = itertools.combinations_with_replacement if self.repeats else itertools.combinations
        heads = [(x,) for x in self.items] if self.lead else [()]
        return (head + tail for head in heads for tail in combos(self.items, self.k))

    def __getitem__(self, index: int) -> tuple:
        head, rank = divmod(index, self._tails)
        picks = [head] if self.lead else []
        # lexicographic rank r of a k-set S is colex rank total-1-r of {span-1-s : s in S}
        rest = self._tails - 1 - rank
        for slot, size in enumerate(range(self.k, 0, -1)):
            c = _colex_top(rest, size)
            rest -= comb(c, size)
            picks.append(self._span - 1 - c - (slot if self.repeats else 0))
        return tuple(self.items[i] for i in picks)


def _colex_top(rank: int, size: int) -> int:
    """The largest c with comb(c, size) <= rank, from a float estimate."""
    c = max(size - 1, int((factorial(size) * rank) ** (1 / size)) + size // 2)
    while comb(c + 1, size) <= rank:
        c += 1
    while comb(c, size) > rank:
        c -= 1
    return c


def sample_items(population, count: int, seed: int):
    """``count`` distinct items of ``population`` (all if fewer), in seeded order.

    Only the drawn indices are held, never the population.
    """
    picks = random.Random(seed).sample(range(len(population)), min(count, len(population)))
    return (population[i] for i in picks)


def _draw(result: CheckResult, key: str, population, sample: str | int, seed: int | None):
    """Set ``result``'s regime and seed for a budget; yield the items to check, tallied."""
    if sample != "all" and int(sample) < len(population):
        result.regime, result.seed = "sampled", (seed if seed is not None else 0)
        population = sample_items(population, int(sample), result.seed)
    return result.tally(key, population)


# -- mode-system axioms ---------------------------------------------------------


def commutativity_check(ms: ModeSystem) -> CheckResult:
    with checking("product_commutativity") as result:
        for I, J in result.tally("pairs", itertools.combinations(ms.modes, 2)):
            if ms.products[(I, J)] != ms.products[(J, I)]:
                raise CheckFailed({"modes": [list(I), list(J)]})
    return result


def _expand(ms: ModeSystem, table: dict, other) -> dict:
    """sum_L c_L * (rho_L rho_other) as a merged coefficient map."""
    out: dict = {}
    for L, cl in table.items():
        for M, cm in ms.product(L, other).items():
            acc = out.get(M, SURD_ZERO) + cl * cm
            if acc.is_zero:
                out.pop(M, None)
            else:
                out[M] = acc
    return out


def associativity_check(
    ms: ModeSystem, budget: int = DEFAULT_BUDGET, seed: int | None = None
) -> CheckResult:
    """(rho_I rho_J) rho_K must equal rho_I (rho_J rho_K), exactly.

    Products of in-cutoff modes extend beyond the cutoff; the intermediate
    sums stay finite on every supported manifold, so the comparison is exact.
    """
    with checking("product_associativity") as result:
        population = Combinations(ms.modes, 3, repeats=True)
        for I, J, K in _draw(result, "triples", population, budget, seed):
            left = _expand(ms, ms.product(I, J), K)
            if left != _expand(ms, ms.product(J, K), I):
                raise CheckFailed({"modes": [list(I), list(J), list(K)]})
            if left != _expand(ms, ms.product(I, K), J):
                raise CheckFailed({"modes": [list(I), list(K), list(J)]})
    return result


def eigen_additivity_check(ms: ModeSystem) -> CheckResult:
    with checking("eigen_additivity") as result:
        entries = ((I, J, K, c) for (I, J), table in ms.products.items() for K, c in table.items())
        for I, J, K, c in result.tally("entries", entries):
            target = tuple(a + b for a, b in zip(ms.eigen(I), ms.eigen(J)))
            if not c.is_zero and ms.eigen(K) != target:
                raise CheckFailed(
                    {
                        "modes": [list(I), list(J), list(K)],
                        "eigen_K": [str(v) for v in ms.eigen(K)],
                        "expected": [str(v) for v in target],
                    }
                )
    return result


def unit_check(ms: ModeSystem) -> CheckResult:
    with checking("unit_mode") as result:
        for I in result.tally("modes", ms.modes):
            expected = {I: SURD_ONE}
            if ms.products[(ms.unit, I)] != expected or ms.products[(I, ms.unit)] != expected:
                raise CheckFailed({"mode": list(I)})
    return result


def eta_involution_check(ms: ModeSystem) -> CheckResult:
    with checking("eta_involution") as result:
        for I in result.tally("modes", ms.modes):
            J, phase1 = ms.eta(I)
            back, phase2 = ms.eta(J)
            if back != I or phase1 * phase2 != 1:
                raise CheckFailed(
                    {"mode": list(I), "partner": list(J), "phases": [phase1, phase2]}
                )
    return result


def mode_axiom_checks(
    ms: ModeSystem,
    budget: int = DEFAULT_BUDGET,
    seed: int | None = None,
    include_hermiticity: bool = True,
) -> list[CheckResult]:
    out = [
        commutativity_check(ms),
        associativity_check(ms, budget=budget, seed=seed),
        eigen_additivity_check(ms),
        unit_check(ms),
        eta_involution_check(ms),
    ]
    if include_hermiticity:
        out.extend(ms.hermiticity_check(j) for j in range(1, ms.r + 1))
    return out


# -- algebra-level checks ---------------------------------------------------------


def jacobi_check_gkm(
    alg: GKMAlgebra,
    sample: str | int = "all",
    seed: int | None = None,
) -> CheckResult:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 over generator triples.

    Distinct unordered triples span the full identity by trilinearity and
    antisymmetry.  Central terms ride along, so this simultaneously verifies
    the 2-cocycle identity.
    """
    with checking("jacobi_gkm") as result:
        triples = _draw(result, "triples", Combinations(alg.generators(), 3), sample, seed)
        for x, y, z in triples:
            ex, ey, ez = alg.generator(x), alg.generator(y), alg.generator(z)
            acc = alg.bracket(alg.bracket(ex, ey), ez)
            acc = acc + alg.bracket(alg.bracket(ey, ez), ex)
            acc = acc + alg.bracket(alg.bracket(ez, ex), ey)
            if not acc.is_zero:
                gen, coeff = next(iter(acc.coeffs.items()))
                raise CheckFailed(
                    {
                        "generators": [repr(x), repr(y), repr(z)],
                        "component": repr(gen),
                        "value": str(coeff),
                    }
                )
    return result


def antisymmetry_check(alg: GKMAlgebra) -> CheckResult:
    with checking("bracket_antisymmetry") as result:
        pairs = itertools.combinations_with_replacement(alg.generators(), 2)
        for x, y in result.tally("pairs", pairs):
            forward = alg.bracket_generators(x, y)
            backward = alg.bracket_generators(y, x)
            if not (forward + backward).is_zero:
                raise CheckFailed({"generators": [repr(x), repr(y)]})
    return result


def cocycle_antisymmetry_check(alg: GKMAlgebra) -> CheckResult:
    """omega_j(x, y) + omega_j(y, x) = 0 for all mode pairs and all j."""
    with checking("cocycle_antisymmetry") as result:
        ms = alg.modes
        for I, j in result.tally("pairs", itertools.product(ms.modes, range(1, ms.r + 1))):
            J, phase_forward = ms.eta(I)
            back, phase_back = ms.eta(J)
            forward = ms.eigen(I)[j - 1] * phase_forward
            backward = ms.eigen(J)[j - 1] * phase_back if back == I else None
            if backward is None or forward + backward != 0:
                raise CheckFailed(
                    {
                        "operator": j,
                        "modes": [list(I), list(J)],
                        "omega_IJ": str(forward),
                        "omega_JI": "undefined" if backward is None else str(backward),
                    }
                )
    return result


def invariance_check(
    alg: GKMAlgebra,
    sample: str | int = "all",
    seed: int | None = None,
) -> CheckResult:
    """<[x,y],z> + <y,[x,z]> = 0 over generator triples (x ordered, y<=z)."""
    with checking("invariance") as result:
        population = Combinations(alg.generators(), 2, repeats=True, lead=True)
        for x, y, z in _draw(result, "triples", population, sample, seed):
            ex, ey, ez = alg.generator(x), alg.generator(y), alg.generator(z)
            total = alg.killing(alg.bracket(ex, ey), ez) + alg.killing(ey, alg.bracket(ex, ez))
            if not total.is_zero:
                raise CheckFailed(
                    {"generators": [repr(x), repr(y), repr(z)], "value": str(total)}
                )
    return result


def killing_consistency_check(alg: GKMAlgebra) -> CheckResult:
    """Stored base metric must equal the trace form of the stored f, exactly.

    A uniformly rescaled f still satisfies Jacobi and even leaves a scalar
    metric invariant, so this f-vs-g consistency check is what pins the
    normalisation a dump claims.
    """
    with checking("killing_consistency") as result:
        base = alg.base
        recomputed = killing_form(base.f, base.dim)
        for a in range(base.dim):
            for b in range(base.dim):
                if recomputed[a][b] != base.g[a][b]:
                    raise CheckFailed(
                        {
                            "indices": [a + 1, b + 1],
                            "stored": str(base.g[a][b]),
                            "recomputed": str(recomputed[a][b]),
                        }
                    )
        result.details["dim"] = base.dim
    return result


def _killing_table_entries(alg: GKMAlgebra):
    """(p, q, expected <p, q>) for every pair the pairing table must satisfy."""
    ms = alg.modes
    for a in range(1, alg.base.dim + 1):
        for b in range(1, alg.base.dim + 1):
            gab = alg.base.killing_entry(a, b)
            for I in ms.modes:
                partner, phase = ms.eta(I)
                for J in ms.modes:
                    expected = gab * phase if J == partner else SURD_ZERO
                    yield ("T", a, I), ("T", b, J), expected
    sample_t = ("T", 1, ms.modes[0])
    for i in range(1, alg.r + 1):
        for j in range(1, alg.r + 1):
            delta = Fraction(1 if i == j else 0)
            yield ("D", i), ("k", j), delta
            yield ("k", i), ("D", j), delta
            yield ("D", i), ("D", j), Fraction(0)
            yield ("k", i), ("k", j), Fraction(0)
            yield ("D", i), sample_t, Fraction(0)
            yield ("k", i), sample_t, Fraction(0)


def killing_table_check(alg: GKMAlgebra) -> CheckResult:
    """The generator pairing table itself: <T,T> = g eta, <D,k> = delta, else 0."""
    with checking("killing_table") as result:
        for p, q, expected in result.tally("pairs", _killing_table_entries(alg)):
            got = alg.killing_generators(p, q)
            if not got.im.is_zero or got.re != expected:
                raise CheckFailed(
                    {
                        "pair": [repr(p), repr(q)],
                        "value": str(got),
                        "expected": str(expected),
                    }
                )
    return result


def grading_check(alg: GKMAlgebra) -> CheckResult:
    """[g_(a,m), g_(b,n)] must land in g_(a+b, m+n); central terms only at 0.

    For each bracket of root-space basis elements: every surviving mode
    must carry eigenvalue m+n, the base part must sit inside the expected
    root line (or the Cartan span at a+b = 0, or vanish when a+b is not a
    root), and the central part must vanish unless a+b = 0 and m+n = 0.
    """
    with checking("grading") as result:
        if alg.cw is None:
            result.regime = "skipped"
            result.details["note"] = "abelian base: no root grading to check"
            return result
        cw = alg.cw
        zero_root = tuple(Fraction(0) for _ in cw.roots[0])
        labels = [lab for lab in alg.root_space_labels() if alg.root_space(*lab)]
        root_set = set(cw.roots)
        brackets = (
            (alpha, m, beta, n, alg.bracket(u, v))
            for (alpha, m), (beta, n) in itertools.combinations_with_replacement(labels, 2)
            for u in alg.root_space(alpha, m)
            for v in alg.root_space(beta, n)
        )
        for alpha, m, beta, n, w in result.tally("bracket_pairs", brackets):
            target_root = tuple(x + y for x, y in zip(alpha, beta))
            target_eigen = tuple(x + y for x, y in zip(m, n))
            witness = _grading_violation(alg, w, target_root, target_eigen, root_set, zero_root)
            if witness is not None:
                witness.update(
                    {
                        "alpha": [str(x) for x in alpha],
                        "m": [str(x) for x in m],
                        "beta": [str(x) for x in beta],
                        "n": [str(x) for x in n],
                    }
                )
                raise CheckFailed(witness)
        result.details["labels"] = len(labels)
    return result


def _grading_violation(alg, w: GKMElement, target_root, target_eigen, root_set, zero_root):
    central_allowed = target_root == zero_root and all(v == 0 for v in target_eigen)
    for gen, coeff in w.central_part().items():
        if not central_allowed and not coeff.is_zero:
            return {"component": repr(gen), "value": str(coeff), "kind": "central"}
    t_by_mode: dict = {}
    for gen, coeff in w.t_part().items():
        _, a, K = gen
        vec = t_by_mode.setdefault(K, [None] * alg.base.dim)
        vec[a - 1] = coeff
    for K, entries in t_by_mode.items():
        vec = tuple(c if c is not None else CSURD_ZERO for c in entries)
        if all(c.is_zero for c in vec):
            continue
        if alg.modes.eigen(K) != target_eigen:
            return {"mode": list(K), "kind": "eigenvalue drift"}
        if target_root in root_set:
            basis = [alg.cw.root_vectors[target_root]]
        elif target_root == zero_root:
            basis = list(alg.cw.cartan)
        else:
            return {"mode": list(K), "kind": "bracket outside the root system"}
        if coefficients_in_span(vec, basis) is None:
            return {"mode": list(K), "kind": "base part outside expected root line"}
    return None


def torus_hierarchy_check(
    n: int,
    cutoff: int,
    base: str = "su2",
    embed_suffix: tuple[int, ...] = (0,),
) -> CheckResult:
    """The m -> (m, 0) copy of the (n-1)-torus algebra inside the n-torus one.

    Checks closure of the embedded span and exact equality of structure
    constants under the label map.  A nonzero suffix is the designed
    negative: eigenvalue additivity then drifts out of the image.
    """
    if n < 2:
        raise ValueError("hierarchy check needs a torus of dimension >= 2")

    def up(gen: GenId) -> GenId:
        if gen[0] == "T":
            return ("T", gen[1], gen[2] + embed_suffix)
        return gen

    def down_element(elem: GKMElement):
        mapped = {}
        for gen, coeff in elem.coeffs.items():
            if gen[0] == "T":
                mode = gen[2]
                if mode[n - 1 :] != embed_suffix:
                    return None, gen
                mapped[("T", gen[1], mode[: n - 1])] = coeff
            elif gen[1] <= n - 1:
                mapped[gen] = coeff
            elif not coeff.is_zero:
                return None, gen
        return mapped, None

    with checking(f"torus_hierarchy_{n}to{n - 1}") as result:
        big = build_algebra(base, TorusGeometry(n), cutoff, charges=(Fraction(1),) * n)
        small = build_algebra(
            base, TorusGeometry(n - 1), cutoff, charges=(Fraction(1),) * (n - 1)
        )
        pairs = itertools.combinations_with_replacement(small.generators(), 2)
        for p, q in result.tally("pairs", pairs):
            mapped, escape = down_element(big.bracket_generators(up(p), up(q)))
            if mapped is None:
                raise CheckFailed(
                    {"generators": [repr(p), repr(q)], "escaping_component": repr(escape)}
                )
            if mapped != small.bracket_generators(p, q).coeffs:
                raise CheckFailed(
                    {
                        "generators": [repr(p), repr(q)],
                        "kind": "structure constants differ under the embedding",
                    }
                )
    return result


# -- oracle agreement ---------------------------------------------------------


def _oracle_band(ms: ModeSystem) -> int:
    worst = max((ms.geometry.degree(I) for I in ms.modes), default=1)
    return max(1, 2 * worst)


def oracle_agreement_check(
    alg: GKMAlgebra | ModeSystem,
    samples: int = 500,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckResult:
    """Exact tables vs quadrature: products, eta, eigenvalues, cocycles.

    Enumerates every stored quantity and compares all of them, or ``samples``
    of them drawn with the seed when the table is larger than that.
    """
    with checking("oracle_agreement") as result:
        ms = alg.modes if isinstance(alg, GKMAlgebra) else alg
        grid = make_grid(ms.geometry, _oracle_band(ms))
        numeric_of = {
            "product": numeric_product_coefficient,
            "eta": numeric_conjugation_pairing,
            "eigen": numeric_eigencheck,
            "cocycle": numeric_cocycle_pairing,
        }
        quantities: list[tuple] = []
        for (I, J), table in ms.products.items():
            for K, c in table.items():
                quantities.append(("product", (I, J, K), float(c)))
        for I in ms.modes:
            J, phase = ms.eta(I)
            quantities.append(("eta", (I, J), float(phase)))
            for j in range(1, ms.r + 1):
                quantities.append(("eigen", (j, I), float(ms.eigen(I)[j - 1])))
                quantities.append(("cocycle", (j, I, J), float(ms.cocycle_pairing(j, I, J))))
        result.details["band"] = grid.band
        worst = 0.0
        for kind, args, exact in _draw(result, "samples", quantities, samples, seed):
            numeric = numeric_of[kind](grid, *args)
            delta = abs(numeric - exact)
            worst = max(worst, delta)
            if delta > tol:
                raise CheckFailed(
                    {
                        "quantity": kind,
                        "labels": repr(args),
                        "exact": exact,
                        "numeric": [numeric.real, numeric.imag]
                        if isinstance(numeric, complex)
                        else numeric,
                        "delta": delta,
                    }
                )
        result.details["max_delta"] = worst
    return result


# -- suite driver ---------------------------------------------------------------

SUITES = ("all", "jacobi", "cocycle", "grading", "invariance", "oracle")


def run_suites(
    alg: GKMAlgebra,
    suite: str = "all",
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    oracle_samples: int = 500,
) -> VerificationReport:
    """Run the selected verification suite(s) against one algebra."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    report = VerificationReport()
    if suite in ("all", "jacobi"):
        report.add(jacobi_check_finite(alg.base.f, alg.base.dim, alg.base.name))
        report.add(jacobi_check_gkm(alg, sample=budget, seed=seed))
    if suite in ("all", "cocycle"):
        report.add(cocycle_antisymmetry_check(alg))
        report.extend(alg.modes.hermiticity_check(j) for j in range(1, alg.r + 1))
    if suite in ("all", "grading"):
        report.add(grading_check(alg))
    if suite in ("all", "invariance"):
        report.add(killing_consistency_check(alg))
        report.add(killing_table_check(alg))
        report.add(invariance_check(alg, sample=budget, seed=seed))
    if suite == "all":
        report.add(antisymmetry_check(alg))
        # hermiticity already ran under the cocycle block
        report.extend(
            mode_axiom_checks(alg.modes, budget=budget, seed=seed, include_hermiticity=False)
        )
        geo = alg.modes.geometry
        if isinstance(geo, TorusGeometry) and geo.n >= 2:
            report.add(
                torus_hierarchy_check(geo.n, alg.modes.cutoff, base=alg.base.name)
            )
    if suite in ("all", "oracle"):
        report.add(oracle_agreement_check(alg, samples=oracle_samples, seed=seed))
    return report
