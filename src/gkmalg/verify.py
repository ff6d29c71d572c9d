"""Verification suites: every asserted algebraic property, exactly or vs oracle.

Each check body runs under the harness ``checking(name)`` of
:mod:`gkmalg.report`, which times it and builds its :class:`CheckResult`.
The body counts the distinct items it checks into ``details`` under one of
``report.ITEM_KEYS`` and fails by raising :class:`CheckFailed` with a witness:
the offending generator ids or mode labels and the nonzero value.  Checks read
the materialised tables of the algebra under test, not the generating rules
(the torus hierarchy rebuilds only the smaller torus it embeds), so a tampered
dump is diagnosed here rather than at parse time.

Jacobi, invariance, the torus hierarchy and the pairing table's D/k tail are
evaluated exactly on the X-basis bracket and form rows of
:mod:`gkmalg.algebra`, and associativity on the mode-product rows of
``ModeSystem.product_row``.  Rows are integer numerators over one
denominator, and every sum is :func:`gkmalg.scalars.contract` into an int
accumulator over a running common denominator.  Canonical rows compare as
tuples, and two sums over different denominators compare cross-multiplied.
Eigenvalue additivity and cocycle antisymmetry add and compare eigenvalue
labels as int tuples over one denominator (:func:`_eigen_ints`).  So a
passing item of these checks does no Fraction arithmetic.  A failure's
witness is read off the same sum or labels, and only then is a Fraction
built: a sum's first nonzero component becomes a T-basis value by
``GKMAlgebra._t_value``.
A bracket table a dump carries is compared entry by entry with the one read
off the same rows.  A cached row costs one dict lookup: each check reads
rows through the column getters of :meth:`GKMAlgebra.bracket_column`, and
associativity reads products through a check-local column view of
``ModeSystem.product_row``; Jacobi and invariance contract no empty row.

:func:`_draw` alone picks the regime: a budget that covers the population
checks every item in order ("exhaustive"); a smaller one checks that many
distinct items of the same population, drawn by :func:`sample_items`
("sampled", with the seed that reproduces the draw exactly).

Exhaustive invariance decides most triples without summing them.  The sum
of a triple (x, y, z) is sum_w [x,y]_w <w,z> + sum_w [x,z]_w <y,w>, and the
form pairs each generator with about one partner, so a term is nonzero only
where w is in the support of a bracket row and the form row of (w, z), or of
(y, w), is nonempty.  Every other triple is an empty sum, exactly 0: on
su2/s3/c4, 8,259 of 2,427,685 triples have a term.  The check takes each
generator's candidate partners from the support rule of
:meth:`GKMAlgebra.form_partners`, keeps those whose form row is nonempty,
evaluates only the triples that meet one, in population order, and reports
the count an in-order pass over every triple would give.

Five checks are derived from the factor checks of the same run, which
:func:`run_suites` runs first while keeping the report order (Kac,
*Infinite-dimensional Lie algebras*, ch. 7).  Eta phases are ints, so with
``eta_involution`` each in-cutoff partner pair names each other with one
phase, +1 or -1, and with ``cocycle_antisymmetry`` their eigenvalues cancel.

- ``jacobi_finite[name]`` and ``killing_consistency`` follow from
  ``base_tables``: the stored f and g are the named tables, which the tests
  prove antisymmetric, Jacobi and with g the trace form of f.
- ``killing_table`` follows from ``base_tables`` and ``eta_involution``:
  <X_aI, X_bJ> = -g_ab eta_IJ is the zero row unless eta(I) names J with a
  nonzero phase, g is symmetric and a partner pair shares its phase, so the
  T-T part is symmetric.  The D/k tail is the form's definition in the code,
  and is still read, 6r^2 pairs.
- ``grading`` follows from ``eigen_additivity``, ``cocycle_antisymmetry`` and
  ``eta_involution``: an item fails only through a nonzero entry of
  rho_I rho_J whose eigenvalue is not I's plus J's, or through a central term
  off (0, 0), which needs a partner pair of nonzero phase whose eigenvalues
  do not cancel (the pairing <x, y> is nonzero only at root sum 0).
- ``bracket_antisymmetry`` follows from ``base_tables``,
  ``product_commutativity`` and ``cocycle_antisymmetry``: a T-T row is
  [X_aI, X_bJ] = -f_ab^c c_IJ^K X_cK - g_ab omega_j(I, J) k_j, so it is minus
  its transpose when f is antisymmetric, g symmetric, the stored products of
  I, J equal in both orders and omega antisymmetric; a D-T row reads one
  eigenvalue in both orders, and the D-D, k and D-k rows are zero.

The table :data:`_DERIVED` names each derived check's factors, in the order
they are read, and one helper, :func:`_derived`, runs every derived check.
When its factors pass, a derived check reports the count a walk over its
items would reach, without reading a table: C(dim, 3) triples, the dim,
every pair of the pairing table, (S^2 + sum s^2)/2 grading items over root
spaces of sizes s, S = sum s, and n(n+1)/2 antisymmetry pairs over the n
generator ids.  When a factor fails, the derived check fails at once, reads
no item and builds no bracket row; its witness is ``{"factor": ...,
"witness": ...}``, the first failing factor in table order and that
factor's own witness.  :func:`run_suites` hands the factor results to each
derived check through its private ``_factors`` keyword; called alone, or in
a suite without its factors, a derived check runs the factor checks it
needs itself and does not report them.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_right
from math import comb, isfinite, lcm

from .algebra import GKMAlgebra, _Memo, build_algebra
from .liealg import make_algebra
from .modes import ModeSystem, TorusGeometry
from .quadrature import (
    make_grid,
    numeric_cocycle_pairing,
    numeric_conjugation_pairing,
    numeric_eigencheck,
    numeric_product_coefficient,
)
from .report import CheckFailed, CheckResult, VerificationReport, checking
from .scalars import SURD_ONE, SURD_ZERO, SurdScalar, contract
from .serialize import bracket_table
from .wigner import cache_size

DEFAULT_BUDGET = 50_000


# -- populations and the sampler ----------------------------------------------


class Combinations:
    """The ``k``-combinations of ``items`` (with ``repeats``: multisets), lazily.

    With ``lead``, each is preceded by one more item ranging over all of
    ``items``.  Iteration is the exhaustive loop in ``itertools`` order;
    ``len`` counts the population, ``[i]`` unranks its ``i``-th element
    without listing the others, and :meth:`index` ranks one.
    """

    def __init__(self, items, k: int, repeats: bool = False, lead: bool = False):
        self.items, self.k, self.repeats, self.lead = list(items), k, repeats, lead
        self._position = {x: i for i, x in enumerate(self.items)}
        # a multiset c_0 <= ... <= c_k-1 of range(n) is the set c_j + j of range(n + k - 1)
        self._span = len(self.items) + (k - 1 if repeats else 0)
        self._tails = comb(self._span, k)
        self._len = (len(self.items) if lead else 1) * self._tails
        self._slots = None

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        combos = itertools.combinations_with_replacement if self.repeats else itertools.combinations
        heads = [(x,) for x in self.items] if self.lead else [()]
        return (head + tail for head in heads for tail in combos(self.items, self.k))

    def index(self, item) -> int:
        """The ``i`` with ``self[i] == item``; a ValueError if ``item`` is not a member."""
        picks = [self._position.get(x) for x in item]
        if None in picks or len(picks) != self.k + self.lead:
            raise ValueError(f"{item!r} is not in the population")
        head = picks.pop(0) if self.lead else 0
        tail = [p + j for j, p in enumerate(picks)] if self.repeats else picks
        if any(a >= b for a, b in zip(tail, tail[1:])):
            raise ValueError(f"{item!r} is not in the population")
        colex = sum(comb(self._span - 1 - s, self.k - j) for j, s in enumerate(tail))
        return head * self._tails + self._tails - 1 - colex

    def _slot_tables(self) -> list:
        """Per slot, ``(comb(c, size) for c in range(span + 1), the item each c picks)``."""
        n, spans = len(self.items), range(self._span + 1)
        slots = []
        for slot, size in enumerate(range(self.k, 0, -1)):
            # c picks index span-1-c of the set, minus the slot for a multiset
            shift = self._span - 1 - (slot if self.repeats else 0)
            picked = [self.items[shift - c] if 0 <= shift - c < n else None for c in spans]
            slots.append(([comb(c, size) for c in spans], picked))
        return slots

    def __getitem__(self, index: int) -> tuple:
        if not 0 <= index < self._len:
            raise IndexError(f"index {index} out of range for {self._len} items")
        if self._slots is None:
            self._slots = self._slot_tables()
        head, rank = divmod(index, self._tails)
        out = [self.items[head]] if self.lead else []
        # lexicographic rank r of a k-set S is colex rank total-1-r of {span-1-s : s in S}
        rest = self._tails - 1 - rank
        for table, picked in self._slots:
            c = bisect_right(table, rest) - 1  # the largest c with comb(c, size) <= rest
            rest -= table[c]
            out.append(picked[c])
        return tuple(out)


def sample_items(population, count: int, seed: int):
    """``count`` distinct items of ``population`` (all if fewer), in seeded order.

    Only the drawn indices are held, never the population.
    """
    picks = random.Random(seed).sample(range(len(population)), min(count, len(population)))
    return (population[i] for i in picks)


def _draw(result: CheckResult, key: str, population, sample: str | int, seed: int | None):
    """Set ``result``'s regime and seed for a budget; yield the items to check, tallied.

    The population's size goes into ``details["population"]``, next to the
    item count.  A numeric budget below 1 is a ValueError: it would pass on
    no items.
    """
    if sample != "all" and int(sample) < 1:
        raise ValueError(f"sample size must be at least 1, got {sample}")
    result.details["population"] = len(population)
    if sample != "all" and int(sample) < len(population):
        result.regime, result.seed = "sampled", (seed if seed is not None else 0)
        population = sample_items(population, int(sample), result.seed)
    return result.tally(key, population)


# -- mode-system axioms ---------------------------------------------------------


def commutativity_check(ms: ModeSystem) -> CheckResult:
    with checking("product_commutativity") as result:
        for I, J in result.tally("pairs", itertools.combinations(ms.modes, 2)):
            if ms.products.get((I, J)) != ms.products.get((J, I)):
                raise CheckFailed({"modes": [list(I), list(J)]})
    return result


def _expand(product: _Memo, row: tuple, K) -> tuple[dict, int]:
    """sum_L c_L * (rho_L rho_K) for the row ``c`` of ``(L, d, n)`` terms, as ``(acc, scale)``.

    ``product[K]`` is the getter of K's product column: ``product[K](L)`` is rho_L rho_K.
    """
    acc: dict = {}
    return acc, contract(acc, 1, row, product[K])


def _same(left: tuple[dict, int], right: tuple[dict, int]) -> bool:
    """Whether two ``(acc, scale)`` sums are equal, compared cross-multiplied by the scales."""
    (a, sa), (b, sb) = left, right
    return {k: n * sb for k, n in a.items() if n} == {k: n * sa for k, n in b.items() if n}


def associativity_check(
    ms: ModeSystem, budget: int = DEFAULT_BUDGET, seed: int | None = None
) -> CheckResult:
    """(rho_I rho_J) rho_K must equal rho_I (rho_J rho_K), exactly.

    Products of in-cutoff modes extend beyond the cutoff; the intermediate
    sums stay finite on every supported manifold, so the comparison is exact.
    """
    with checking("product_associativity") as result:
        # a check-local column view: product[K](L) is ms.product_row(L, K), one C call when seen
        product = _Memo(lambda K: _Memo(lambda L: ms.product_row(L, K)).__getitem__)
        population = Combinations(ms.modes, 3, repeats=True)
        for I, J, K in _draw(result, "triples", population, budget, seed):
            left = _expand(product, product[J](I), K)
            if not _same(left, _expand(product, product[K](J), I)):
                raise CheckFailed({"modes": [list(I), list(J), list(K)]})
            if not _same(left, _expand(product, product[K](I), J)):
                raise CheckFailed({"modes": [list(I), list(K), list(J)]})
    return result


def _scaled(scale: int):
    """The map from a vector of rationals whose denominators divide ``scale`` to its numerators."""
    return lambda vec: tuple(v.numerator * (scale // v.denominator) for v in vec)


def _eigen_ints(ms: ModeSystem) -> tuple:
    """``(scaled, eig)``: eigenvalue vectors as int tuples over the lcm of the table's and
    the rule's denominators, ``eig[K]`` memoised for mode K, so label sums are int ones.

    Only the table's labels are converted per call: a mode the table lacks takes the rule's
    labels from ``ModeSystem.rule_eigen``, which keeps them across calls.
    """
    table, den = ms.eigen_table, ms.geometry.eigen_den
    scale = lcm(den, *(v.denominator for e in table.values() for v in e))
    scaled, factor = _scaled(scale), scale // den

    def label(K) -> tuple:
        stored = table.get(K)
        if stored is not None:
            return scaled(stored)
        rule = ms.rule_eigen(K)
        return rule if factor == 1 else tuple(n * factor for n in rule)

    return scaled, _Memo(label)


def eigen_additivity_check(ms: ModeSystem) -> CheckResult:
    with checking("eigen_additivity") as result:
        eig = _eigen_ints(ms)[1]
        entries = (
            (I, J, target, K, c)
            for (I, J), table in ms.products.items()
            for target in [tuple(a + b for a, b in zip(eig[I], eig[J]))]  # once per row
            for K, c in table.items()
        )
        for I, J, target, K, c in result.tally("entries", entries):
            if not c.is_zero and eig[K] != target:
                expected = (a + b for a, b in zip(ms.eigen(I), ms.eigen(J)))
                raise CheckFailed(
                    {
                        "modes": [list(I), list(J), list(K)],
                        "eigen_K": [str(v) for v in ms.eigen(K)],
                        "expected": [str(v) for v in expected],
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


def eta_trace_check(ms: ModeSystem) -> CheckResult:
    """eta is the trace form of the mode algebra: [rho_I rho_J]_unit = eta_IJ.

    For orthonormal modes of unit total measure the unit coefficient of
    rho_I rho_J is the integral of rho_I rho_J: the phase when
    eta(I) = (J, phase), else 0.  With it, form invariance and the cyclic
    cocycle identity follow from associativity and eigenvalue additivity.
    """
    with checking("eta_trace") as result:
        unit, units = ms.unit, {1: SURD_ONE, -1: -SURD_ONE}  # the phases eta_involution passes
        pairs = itertools.combinations_with_replacement(ms.modes, 2)
        for I, J in result.tally("pairs", pairs):
            partner, phase = ms.eta(I)
            expected = SURD_ZERO if partner != J else units.get(phase) or SurdScalar.rational(phase)
            got = ms.products[(I, J)].get(unit, SURD_ZERO)
            if got != expected:
                values = {"unit_coefficient": str(got), "expected": str(expected)}
                raise CheckFailed({"modes": [list(I), list(J)], **values})
    return result


def mode_axiom_checks(
    ms: ModeSystem, budget: int = DEFAULT_BUDGET, seed: int | None = None
) -> list[CheckResult]:
    """The function-algebra axioms; hermiticity of the D_j is ``ModeSystem.hermiticity_check``."""
    return [
        commutativity_check(ms),
        associativity_check(ms, budget=budget, seed=seed),
        eigen_additivity_check(ms),
        unit_check(ms),
        eta_involution_check(ms),
        eta_trace_check(ms),
    ]


# -- algebra-level checks ---------------------------------------------------------


def _columns(alg: GKMAlgebra) -> _Memo:
    """j -> the getter of ``alg``'s bracket column j: ``rows[j](i)`` is the row of [X_i, X_j].

    A cached row is then one C-level call, with no Python frame and no key tuple.
    """
    return _Memo(lambda j: alg.bracket_column(j).__getitem__)


def jacobi_check_gkm(
    alg: GKMAlgebra,
    sample: str | int = "all",
    seed: int | None = None,
) -> CheckResult:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 over generator triples.

    Distinct unordered triples span the full identity by trilinearity and
    antisymmetry.  Central terms ride along, so this simultaneously verifies
    the 2-cocycle identity.  Triples are checked on the bracket rows; the
    witness is the first nonzero component of the same sum, in the T basis.
    """
    with checking("jacobi_gkm") as result:
        row = _columns(alg)
        triples = _draw(result, "triples", Combinations(alg.generator_ids(), 3), sample, seed)
        for ids in triples:
            # [[x,y],z] + [[y,z],x] + [[z,x],y]: rows (x, y), then its support against z, ...
            x, y, z = ids
            acc: dict = {}
            scale = 1
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                inner = row[b](a)
                if inner[1]:  # an empty row adds nothing, so skip the call
                    scale = contract(acc, scale, inner, row[c])
            if not any(acc.values()):
                continue
            u = next(w for (w, _), n in acc.items() if n)
            value = alg._t_value(scale, {d: n for (w, d), n in acc.items() if w == u}, ids, u)
            raise CheckFailed(
                {
                    "generators": [repr(alg.generator_of(i)) for i in ids],
                    "component": repr(alg.generator_of(u)),
                    "value": str(value),
                }
            )
    return result


def antisymmetry_check(alg: GKMAlgebra, *, _factors: dict | None = None) -> CheckResult:
    """[X_x, X_y] = -[X_y, X_x] for every generator id pair x <= y, derived from the factor
    checks of :data:`_DERIVED` (see the module docstring); no bracket row is built."""
    return _derived("bracket_antisymmetry", alg, _factors)


def bracket_table_check(alg: GKMAlgebra) -> CheckResult:
    """A dump's bracket table must equal :func:`bracket_table`, entry by entry as JSON text."""
    with checking("bracket_table") as result:
        pairs = itertools.zip_longest(alg.stored_brackets, bracket_table(alg))
        for n, (stored, derived) in enumerate(result.tally("entries", pairs)):
            if json.dumps(stored, sort_keys=True) != json.dumps(derived, sort_keys=True):
                raise CheckFailed({"entry": n, "stored": stored, "derived": derived})
    return result


def cocycle_antisymmetry_check(alg: GKMAlgebra) -> CheckResult:
    """omega_j(x, y) + omega_j(y, x) = 0 for all mode pairs and all j.

    Decided on the int eigenvalue labels of :func:`_eigen_ints`; only a
    witness's values are Fractions.
    """
    with checking("cocycle_antisymmetry") as result:
        ms = alg.modes
        eig = _eigen_ints(ms)[1]
        for I, j in result.tally("pairs", itertools.product(ms.modes, range(1, ms.r + 1))):
            J, phase_forward = ms.eta(I)
            back, phase_back = ms.eta(J)
            if back != I or eig[I][j - 1] * phase_forward + eig[J][j - 1] * phase_back:
                forward = ms.eigen(I)[j - 1] * phase_forward
                backward = ms.eigen(J)[j - 1] * phase_back if back == I else None
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
    """<[x,y],z> + <y,[x,z]> = 0 over generator triples (x ordered, y<=z).

    Evaluated on the bracket and form rows with the arguments in this order
    (a tampered eta makes the stored form asymmetric); the witness value is
    the same sum, in the T basis.

    A triple's sum is sum_w [x,y]_w <w,z> + sum_w [x,z]_w <y,w>, so a term is
    nonzero only where w is in the support of a bracket row and the form row
    of (w, z), or of (y, w), is nonempty.  The exhaustive regime evaluates
    just the triples :func:`_form_candidates` finds to have such a term, from
    the form partners of :meth:`GKMAlgebra.form_partners`; every other triple
    is an empty sum, 0, and passes exactly.  Its count is the population on a
    pass, and the failing triple's position in it on a failure, as if every
    triple had been checked in order.  Rows are read through the bracket
    columns, one dict lookup each once cached.
    """
    with checking("invariance") as result:
        row, form = _columns(alg), alg.form_row
        population = Combinations(alg.generator_ids(), 2, repeats=True, lead=True)
        triples = _draw(result, "triples", population, sample, seed)
        exhaustive = result.regime == "exhaustive"
        # into[z] maps w to <w, z> and out_of[y] maps w to <y, w>
        if exhaustive:  # memoised per target: a hit runs no Python code
            result.details["triples"] = len(population)
            triples = _form_candidates(alg, population.items)
            into = _Memo(lambda z: _Memo(lambda w: form(w, z)).__getitem__)
            out_of = _Memo(lambda y: _Memo(lambda w: form(y, w)).__getitem__)
        else:  # a drawn triple seldom meets a pair again, so the form rows are read as they are
            into = _Memo(lambda z: lambda w: form(w, z))
            out_of = _Memo(lambda y: lambda w: form(y, w))
        for ids in triples:
            x, y, z = ids
            acc: dict = {}
            scale = 1
            left, right = row[y](x), row[z](x)
            if left[1]:  # an empty row adds nothing, so skip the call
                scale = contract(acc, scale, left, into[z])
            if right[1]:
                scale = contract(acc, scale, right, out_of[y])
            if any(acc.values()):
                if exhaustive:
                    result.details["triples"] = population.index(ids) + 1
                gens = [repr(alg.generator_of(i)) for i in ids]
                value = alg._t_value(scale, {d: n for (_, d), n in acc.items()}, ids)
                raise CheckFailed({"generators": gens, "value": str(value)})
    return result


def _form_candidates(alg: GKMAlgebra, ids: list):
    """Every triple (x, y, z) of ``ids``, y <= z, with a term of its invariance sum, sorted.

    With ``to[w]`` the ids z where <w, z> is nonempty and ``frm[w]`` the ids
    y where <y, w> is: each w in the support of [x, v] gives the triples
    (x, v, z) for z in ``to[w]`` and (x, y, v) for y in ``frm[w]``.  Only the
    candidates of :meth:`GKMAlgebra.form_partners` are tried, z among the
    partners of w and y among the ids that have w as a partner, and each is
    kept when ``alg.form_row`` is nonempty on it.  Every row (x, v) is
    requested, x-major and v ascending, as an in-order pass over all triples
    requests them, and each x's triples are yielded once its rows are all read.
    """
    row, form, gen = _columns(alg), alg.form_row, alg.generator_of
    position = {gen(i): i for i in ids}
    partner_of: dict = {}  # generator w -> the ids y that have w as a form partner
    for y in ids:
        for w in alg.form_partners(y):
            partner_of.setdefault(w, []).append(y)
    to = _Memo(
        lambda w: [
            z for z in map(position.get, alg.form_partners(w)) if z is not None and form(w, z)[1]
        ]
    )
    frm = _Memo(lambda w: [y for y in partner_of.get(gen(w), ()) if form(y, w)[1]])
    for x in ids:
        found = set()
        for v in ids:
            for w in {w for w, _, _ in row[v](x)[1]}:
                found.update((x, v, z) for z in to[w] if v <= z)
                found.update((x, y, v) for y in frm[w] if y <= v)
        yield from sorted(found)


def killing_consistency_check(alg: GKMAlgebra, *, _factors: dict | None = None) -> CheckResult:
    """Stored base metric must equal the trace form of the stored f, exactly.

    A uniformly rescaled f still satisfies Jacobi and even leaves a scalar
    metric invariant, so this f-vs-g consistency check is what pins the
    normalisation a dump claims.  Derived from ``base_tables`` (see the
    module docstring).
    """
    return _derived("killing_consistency", alg, _factors)


def _killing_tail(alg: GKMAlgebra):
    """The generator id pairs (i, j) of the pairing table's D/k tail, in check order."""
    m, r = len(alg.modes.modes), alg.r
    D, k = alg.base.dim * m, alg.base.dim * m + r  # the ids of D_1 and k_1; id 0 is a T
    for i, j in itertools.product(range(r), range(r)):
        yield from ((D + i, k + j), (k + i, D + j), (D + i, D + j), (k + i, k + j))
        yield from ((D + i, 0), (k + i, 0))


def _killing_expected(alg: GKMAlgebra, i: int, j: int):
    """The row <X_i, X_j> of a tail pair must equal: delta_ij on D_i, k_j, else 0."""
    p, q = alg.generator_of(i), alg.generator_of(j)
    delta = {p[0], q[0]} == {"D", "k"} and p[1] == q[1]
    return (1, ((None, 1, 1),) if delta else ())


def killing_table_check(alg: GKMAlgebra, *, _factors: dict | None = None) -> CheckResult:
    """The generator pairing table: <T,T> symmetric, <D,k> = delta, D/k else 0.

    Derived from ``base_tables`` and ``eta_involution`` (see the module
    docstring); on a pass the 6r^2 pairs of the D/k tail, which the code
    defines and no dump stores, are still read (:func:`_killing_table_count`).
    """
    return _derived("killing_table", alg, _factors)


def _killing_table_count(alg: GKMAlgebra, details: dict) -> None:
    """Count the (dim M)^2 T-T pairs, then read each pair of the D/k tail on its form row.

    A tail pair that is not as defined fails the check, counted at its place
    after every T-T pair.
    """
    details["pairs"] = (alg.base.dim * len(alg.modes.modes)) ** 2
    for i, j in _killing_tail(alg):
        details["pairs"] += 1
        got, expected = alg.form_row(i, j), _killing_expected(alg, i, j)
        if got != expected:
            value, wanted = (
                str(alg._t_value(den, {d: n for _, d, n in terms}, (i, j)))
                for den, terms in (got, expected)
            )
            gens = (alg.generator_of(i), alg.generator_of(j))
            raise CheckFailed({"pair": [repr(g) for g in gens], "value": value, "expected": wanted})


def base_tables_check(alg: GKMAlgebra) -> CheckResult:
    """The base's dim, f and g must be those :func:`make_algebra` gives its name, entry by entry.

    The Cartan-Weyl data and grading's base factor come from the name, so this
    ties the stored tables to them.  The witness is the first differing entry
    in sorted index order; a name :func:`make_algebra` rejects is its own.
    """
    with checking("base_tables") as result:
        base = alg.base
        try:
            named = make_algebra(base.name)
        except ValueError:
            raise CheckFailed({"name": base.name}) from None
        if named.dim != base.dim:
            raise CheckFailed({"table": "dim", "stored": base.dim, "expected": named.dim})
        stored, expected = _table_entries(base), _table_entries(named)
        for key in result.tally("entries", sorted(stored.keys() | expected.keys())):
            if stored.get(key) != expected.get(key):
                got, want = (str(t.get(key, SURD_ZERO)) for t in (stored, expected))
                witness = {"table": key[0], "indices": list(key[1])}
                raise CheckFailed({**witness, "stored": got, "expected": want})
    return result


def _table_entries(base) -> dict:
    """``(table, indices) -> value`` for each nonzero entry of the f and g of ``base``, 1-based."""
    f = {("f", (a, b, c)): v for (a, b), row in base.f.items() for c, v in row.items()}
    g = {("g", (a, b)): v for a, row in enumerate(base.g, 1) for b, v in enumerate(row, 1)}
    return {key: v for key, v in {**f, **g}.items() if not v.is_zero}


def grading_check(alg: GKMAlgebra, *, _factors: dict | None = None) -> CheckResult:
    """[g_(a,m), g_(b,n)] must land in g_(a+b, m+n); central terms only at 0.

    Derived from ``eigen_additivity``, ``cocycle_antisymmetry`` and
    ``eta_involution`` (see the module docstring); skipped on an abelian base,
    which has no root grading.
    """
    if alg.cw is None:
        with checking("grading") as result:
            result.regime = "skipped"
            result.details["note"] = "abelian base: no root grading to check"
        return result
    return _derived("grading", alg, _factors)


def _root_spaces(alg: GKMAlgebra) -> dict:
    """Each root-space label -> its basis ``(k, I)`` from ``GKMAlgebra._root_basis``."""
    by_eigen = alg._modes_by_eigen()
    return {(a, n): list(alg._root_basis(a, by_eigen[n])) for a, n in alg.root_space_labels()}


def _grading_count(alg: GKMAlgebra, details: dict) -> None:
    """(S^2 + sum s^2)/2 items over root spaces of sizes s, S = sum s: one per basis element
    of each space paired with one of the same or a later space, as the spaces are listed."""
    sizes = [len(basis) for basis in _root_spaces(alg).values()]
    details["bracket_pairs"] = (sum(sizes) ** 2 + sum(s * s for s in sizes)) // 2
    details["labels"] = len(sizes)


def torus_hierarchy_check(alg: GKMAlgebra, embed_suffix: tuple[int, ...] = (0,)) -> CheckResult:
    """The m -> (m, 0) copy of the (n-1)-torus algebra inside the n-torus ``alg``.

    Checks closure of the embedded span and exact equality of structure
    constants under the label map: the bracket rows of ``alg`` against those
    of the (n-1)-torus algebra rebuilt for its base name and cutoff (the
    T-basis phases agree, since the map keeps every generator's kind).  A
    nonzero suffix is the designed negative: eigenvalue additivity then
    drifts out of the image.
    """
    n = alg.r  # T^n has n grading operators
    if not isinstance(alg.modes.geometry, TorusGeometry) or n < 2:
        raise ValueError("hierarchy check needs a torus of dimension >= 2")

    with checking(f"torus_hierarchy_{n}to{n - 1}") as result:
        small = build_algebra(alg.base.name, TorusGeometry(n - 1), alg.modes.cutoff, (1,) * (n - 1))
        lifted = [
            alg.gen_id(("T", g[1], g[2] + embed_suffix) if g[0] == "T" else g)
            for g in small.generators()
        ]
        row, small_row = _columns(alg), _columns(small)
        pairs = itertools.combinations_with_replacement(small.generator_ids(), 2)
        for i, j in result.tally("pairs", pairs):
            names = [repr(small.generator_of(i)), repr(small.generator_of(j))]
            den, terms = row[lifted[j]](lifted[i])
            mapped = {}
            for k, d, c in terms:
                gen = alg.generator_of(k)
                if gen[0] == "T" and gen[2][n - 1 :] == embed_suffix:
                    gen = ("T", gen[1], gen[2][: n - 1])
                elif gen[0] == "T" or gen[1] > n - 1:
                    raise CheckFailed({"generators": names, "escaping_component": repr(gen)})
                mapped[gen, d] = c
            # both rows are in lowest terms, so equal values have equal denominators
            small_den, small_terms = small_row[j](i)
            expected = {(small.generator_of(k), d): c for k, d, c in small_terms}
            if (den, mapped) != (small_den, expected):
                raise CheckFailed(
                    {"generators": names, "kind": "structure constants differ under the embedding"}
                )
    return result


# -- oracle agreement ---------------------------------------------------------


def _oracle_band(ms: ModeSystem) -> int:
    worst = max((ms.geometry.degree(I) for I in ms.modes), default=1)
    return max(1, 2 * worst)


def _quantity(ms: ModeSystem, tables: list, starts: list, i: int) -> tuple:
    """The i-th oracle quantity ``(kind, args, exact value)``, built alone.

    The stored product entries come first, in table order (the first entry
    of ``tables[t]`` is the ``starts[t]``-th), then eta, each eigenvalue and
    each cocycle factor of every mode.
    """
    if i < starts[-1]:
        t = bisect_right(starts, i) - 1
        (I, J), table = tables[t]
        K, c = next(itertools.islice(table.items(), i - starts[t], None))
        return "product", (I, J, K), c
    mode, rest = divmod(i - starts[-1], 1 + 2 * ms.r)  # eta, then eigen and cocycle per j
    I, j = ms.modes[mode], (rest + 1) // 2
    J, phase = ms.eta(I)
    if not rest:
        return "eta", (I, J), phase
    if rest % 2:
        return "eigen", (j, I), ms.eigen(I)[j - 1]
    return "cocycle", (j, I, J), ms.cocycle_pairing(j, I, J)


def _json_number(x: float | complex) -> float | str | list:
    """``x`` as JSON: a complex as ``[re, im]``, a NaN or an infinity as its text."""
    if isinstance(x, complex):
        return [_json_number(x.real), _json_number(x.imag)]
    return x if isfinite(x) else str(x)


def oracle_agreement_check(
    alg: GKMAlgebra | ModeSystem,
    samples: int = 500,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckResult:
    """Exact tables vs quadrature: products, eta, eigenvalues, cocycles.

    Compares every stored quantity (see :func:`_quantity`), or ``samples``
    of them drawn with the seed when the table is larger than that; indices
    are drawn first, and only the drawn quantities are built.  Exact values
    are turned into floats only for the quantities drawn, each distinct
    value once.  A quantity passes only when its delta is at most ``tol``,
    so a NaN fails.  The integrals run on the pure-Python factors of
    :mod:`gkmalg.quadrature`, so the check never imports numpy.
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
        result.details["band"] = grid.band
        worst = 0.0
        floats = {}  # each distinct exact value is converted once
        tables = list(ms.products.items())
        starts = list(itertools.accumulate(map(len, ms.products.values()), initial=0))
        population = range(starts[-1] + (1 + 2 * ms.r) * len(ms.modes))
        for i in _draw(result, "samples", population, samples, seed):
            kind, args, value = _quantity(ms, tables, starts, i)
            if (exact := floats.get(value)) is None:
                exact = floats[value] = float(value)
            numeric = numeric_of[kind](grid, *args)
            delta = abs(numeric - exact)
            if not delta <= tol:  # a NaN fails too
                raise CheckFailed(
                    {
                        "quantity": kind,
                        "labels": repr(args),
                        "exact": exact,
                        "numeric": _json_number(numeric),
                        "delta": _json_number(delta),
                    }
                )
            worst = max(worst, delta)
        result.details["max_delta"] = worst
    return result


# -- suite driver ---------------------------------------------------------------

SUITES = ("all", "jacobi", "cocycle", "grading", "invariance", "oracle")


# The factor checks the derived checks read, by report name (see the module docstring).
_FACTOR_CHECKS = {
    "base_tables": base_tables_check,
    "product_commutativity": lambda alg: commutativity_check(alg.modes),
    "eigen_additivity": lambda alg: eigen_additivity_check(alg.modes),
    "eta_involution": lambda alg: eta_involution_check(alg.modes),
    "cocycle_antisymmetry": cocycle_antisymmetry_check,
}


def _pairs_count(alg: GKMAlgebra, details: dict) -> None:
    """n(n+1)/2 pairs x <= y over the n generator ids."""
    n = len(alg.generator_ids())
    details["pairs"] = n * (n + 1) // 2


# Each derived check, by report name ("{}" takes the base name) -> the factor checks it
# follows from, in the order they are read, and the function that fills the details of
# a pass (see the module docstring).
_DERIVED = {
    "jacobi_finite[{}]": (
        ("base_tables",),
        lambda alg, details: details.update(triples=comb(alg.base.dim, 3)),
    ),
    "killing_consistency": (
        ("base_tables",),
        lambda alg, details: details.update(dim=alg.base.dim),
    ),
    "killing_table": (("base_tables", "eta_involution"), _killing_table_count),
    "grading": (("eigen_additivity", "cocycle_antisymmetry", "eta_involution"), _grading_count),
    "bracket_antisymmetry": (
        ("base_tables", "product_commutativity", "cocycle_antisymmetry"),
        _pairs_count,
    ),
}


def _derived(name: str, alg: GKMAlgebra, factors: dict | None) -> CheckResult:
    """The derived check ``name`` of :data:`_DERIVED` on ``alg``.

    A factor result of the same run is read from ``factors``; a factor it
    lacks is run here and not reported.  The first failing factor, in table
    order, fails the check with the witness ``{"factor": its name, "witness":
    its witness}``; when every factor passes, the details of a pass are filled in.
    """
    needs, count = _DERIVED[name]
    factors = factors or {}
    with checking(name.format(alg.base.name)) as result:
        for factor in needs:
            found = factors.get(factor) or _FACTOR_CHECKS[factor](alg)
            if not found.passed:
                raise CheckFailed({"factor": factor, "witness": found.witness})
        count(alg, result.details)
    return result


def run_suites(
    alg: GKMAlgebra,
    suite: str = "all",
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    oracle_samples: int | None = None,
) -> VerificationReport:
    """Run the selected verification suite(s) against one algebra.

    The suite's factor checks run first, and the checks derived from them
    read their results (see the module docstring); the report keeps the
    suite's order.  The oracle draws ``oracle_samples`` quantities, by
    default the budget every other check draws under.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    report, ms = VerificationReport(), alg.modes
    # the suite's factor checks run first; each is reported in its place below
    names = {"all": _FACTOR_CHECKS, "cocycle": ["cocycle_antisymmetry"], "oracle": []}
    factors = {n: _FACTOR_CHECKS[n](alg) for n in names.get(suite, ["base_tables"])}
    if suite in ("all", "jacobi"):
        report.add(_derived("jacobi_finite[{}]", alg, factors))
        report.add(jacobi_check_gkm(alg, sample=budget, seed=seed))
    if suite in ("all", "cocycle"):
        report.add(factors["cocycle_antisymmetry"])
        report.extend(ms.hermiticity_check(j) for j in range(1, alg.r + 1))
    if suite in ("all", "grading"):
        report.add(grading_check(alg, _factors=factors))
    if suite in ("all", "invariance"):
        report.add(killing_consistency_check(alg, _factors=factors))
        report.add(killing_table_check(alg, _factors=factors))
        report.add(invariance_check(alg, sample=budget, seed=seed))
    if "base_tables" in factors:
        report.add(factors["base_tables"])
    if suite == "all":
        report.add(antisymmetry_check(alg, _factors=factors))
        if alg.stored_brackets is not None:
            report.add(bracket_table_check(alg))
        associativity = associativity_check(ms, budget=budget, seed=seed)
        axioms = [factors["product_commutativity"], associativity, factors["eigen_additivity"]]
        report.extend([*axioms, unit_check(ms), factors["eta_involution"], eta_trace_check(ms)])
        if isinstance(ms.geometry, TorusGeometry) and alg.r >= 2:
            report.add(torus_hierarchy_check(alg))
    if suite in ("all", "oracle"):
        samples = budget if oracle_samples is None else oracle_samples
        report.add(oracle_agreement_check(alg, samples=samples, seed=seed))
    report.stats = {
        "bracket_rows": sum(map(len, alg._pair_cache.values())),
        "ext_products": len(ms._ext_products),
        "wigner_cache": cache_size(),
    }
    return report
