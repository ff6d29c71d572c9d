"""Verification suites: every asserted algebraic property, exactly or vs oracle.

Each check body runs under the harness ``checking(name)`` of
:mod:`gkmalg.report`, which times it and builds its :class:`CheckResult`.
The body counts the distinct items it checks into ``details`` under one of
``report.ITEM_KEYS`` and fails by raising :class:`CheckFailed` with a witness:
the offending generator ids or mode labels and the nonzero value.  Checks read
the materialised tables of the algebra under test, not the generating rules
(the torus hierarchy rebuilds only the smaller torus it embeds; grading's base
factor is the named root system, see below), so a tampered dump is diagnosed
here rather than at parse time.

Jacobi, invariance, antisymmetry, the pairing table and the torus hierarchy
are evaluated exactly on the X-basis bracket and form rows of
:mod:`gkmalg.algebra`, and associativity on the mode-product rows of
``ModeSystem.product_row``.  Rows are integer numerators over one
denominator, and every sum is :func:`gkmalg.scalars.contract` into an int
accumulator over a running common denominator.  Canonical rows compare as
tuples, and two sums over different denominators compare cross-multiplied.
The root grading is decided on the factors the T-T rows are built from: a
base part read off the named root system, whose f and g ``base_tables``
requires the dump to store, and a mode part from the product, eta and
eigenvalue tables.  Grading and eigenvalue additivity add and compare root
and eigenvalue labels as int tuples over one denominator each
(:func:`_eigen_ints`).  So a passing item of these checks does no Fraction
arithmetic.  A failure's witness is read off the same sum or labels, and
only then is a Fraction built: a sum's first nonzero component becomes a
T-basis value by ``GKMAlgebra._t_value``.
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

The pairing table, the root grading and bracket antisymmetry are decided on
their factors, and walked item by item only to name a failure.
<X_aI, X_bJ> = -g_ab eta_IJ is the zero row unless eta(I) names J with a
nonzero phase, so the table's T-T part is symmetric exactly when it is on
those mode pairs, read in both orders for every base pair (a, b); the D/k
tail is read as it is.  A grading item [u, v] fails only through a nonzero
entry of rho_I rho_J whose eigenvalue is not I's plus J's, or through a
central term off (0, 0), which needs a mode I of nonzero eigenvalue whose
nonzero-phase partner J does not carry -I: the pairing <x, y> is nonzero
only at root sum 0.  A T-T row is built by
[X_aI, X_bJ] = -f_ab^c c_IJ^K X_cK - g_ab omega_j(I, J) k_j, so it is minus
its transpose when the integer row of f_ba is that of f_ab negated (no
f_aa^c), g_ab = g_ba, the stored products of I, J in both orders are equal,
and each in-cutoff partner pair names each other with cocycle factors
I(j) phase_I + J(j) phase_J = 0 (Kac, *Infinite-dimensional Lie algebras*,
ch. 7); a D-T row reads one eigenvalue in both orders, and the D-D, k and
D-k rows are zero.  When these tests find nothing, every item passes, and
the count is the one a walk would reach: every pair of the table,
(S^2 + sum s^2)/2 grading items over root spaces of sizes s, S = sum s, and
n(n+1)/2 antisymmetry pairs over the n generator ids, with no row built.
Otherwise the walk runs and its verdict, count and witness stand.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_right
from math import comb, isfinite, lcm
from operator import add

from .algebra import GKMAlgebra, _Memo, build_algebra
from .liealg import jacobi_check_finite, killing_form, make_algebra
from .modes import ModeSystem, TorusGeometry
from .quadrature import (
    make_grid,
    numeric_cocycle_pairing,
    numeric_conjugation_pairing,
    numeric_eigencheck,
    numeric_product_coefficient,
)
from .report import CheckFailed, CheckResult, VerificationReport, checking
from .scalars import SURD_ONE, SURD_ZERO, SurdScalar, contract, int_row
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
            if ms.products[(I, J)] != ms.products[(J, I)]:
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
        pairs = itertools.combinations_with_replacement(ms.modes, 2)
        for I, J in result.tally("pairs", pairs):
            partner, phase = ms.eta(I)
            expected = SurdScalar.rational(phase) if partner == J else SURD_ZERO
            got = ms.products[(I, J)].get(ms.unit, SURD_ZERO)
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


def antisymmetry_check(alg: GKMAlgebra) -> CheckResult:
    """[X_x, X_y] = -[X_y, X_x] for every generator id pair x <= y, on the bracket rows.

    The rows are decided on their factors first: by the formula they are built
    by, a T-T row is minus its transpose when f is antisymmetric, g symmetric,
    the mode product commutative and the cocycle antisymmetric, and the D-T,
    D-D, k and D-k rows are so by construction.  When
    :func:`_antisymmetry_decided` finds all of that, every pair passes and is
    counted without building a row; anything else runs
    :func:`_antisymmetry_walk`, whose count and witness are the reference.
    """
    with checking("bracket_antisymmetry") as result:
        if _antisymmetry_decided(alg):
            n = len(alg.generator_ids())
            result.details["pairs"] = n * (n + 1) // 2
        else:
            _antisymmetry_walk(alg, result)
    return result


def _antisymmetry_decided(alg: GKMAlgebra) -> bool:
    """Whether every row ``GKMAlgebra._bracket_gens`` builds is minus its transpose, read on
    the tables it builds them from: for every base pair (a, b), the integer row of f_ba^c is
    that of f_ab^c negated over the same denominator (so no f_aa^c) and g_ab = g_ba; every
    stored in-cutoff product has an equal stored transpose; and every in-cutoff mode I whose
    eta partner J is in the cutoff is J's partner, with I(j) phase_I + J(j) phase_J = 0."""
    base, ms = alg.base, alg.modes
    dims = range(1, base.dim + 1)
    for a in dims:
        for b in dims[a - 1 :]:
            fden, fterms = int_row(base.structure(a, b).items())
            rden, rterms = int_row(base.structure(b, a).items())
            negated = {(c, d): -n for c, d, n in fterms}
            if rden != fden or negated != {(c, d): n for c, d, n in rterms}:
                return False
            if base.killing_entry(a, b) != base.killing_entry(b, a):
                return False
    products = ms.products
    for p, I in enumerate(ms.modes):
        for J in ms.modes[p:]:
            forward = products.get((I, J))
            if forward is None or forward != products.get((J, I)):
                return False
    eig, modes = _eigen_ints(ms)[1], set(ms.modes)
    for I in ms.modes:
        J, phase = ms.eta(I)
        if J in modes:
            back, back_phase = ms.eta(J)
            if back != I or any(x * phase + y * back_phase for x, y in zip(eig[I], eig[J])):
                return False
    return True


def _antisymmetry_walk(alg: GKMAlgebra, result: CheckResult) -> None:
    """Compare every generator id pair's two rows in order, tallied into ``result``."""
    row = _columns(alg)
    pairs = itertools.combinations_with_replacement(alg.generator_ids(), 2)
    for x, y in result.tally("pairs", pairs):
        # rows are in lowest terms with unique keys: [x, y] = -[y, x] term by term
        (den, terms), (rden, rterms) = row[y](x), row[x](y)
        negated = {(w, d): -n for w, d, n in terms}
        if den != rden or negated != {(w, d): n for w, d, n in rterms}:
            gens = (alg.generator_of(x), alg.generator_of(y))
            raise CheckFailed({"generators": [repr(g) for g in gens]})


def bracket_table_check(alg: GKMAlgebra) -> CheckResult:
    """A dump's bracket table must equal :func:`bracket_table`, entry by entry as JSON text."""
    with checking("bracket_table") as result:
        pairs = itertools.zip_longest(alg.stored_brackets, bracket_table(alg))
        for n, (stored, derived) in enumerate(result.tally("entries", pairs)):
            if json.dumps(stored, sort_keys=True) != json.dumps(derived, sort_keys=True):
                raise CheckFailed({"entry": n, "stored": stored, "derived": derived})
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
        # into[z] maps w to <w, z> and out_of[y] maps w to <y, w>; a hit runs no Python code
        into = _Memo(lambda z: _Memo(lambda w: form(w, z)).__getitem__)
        out_of = _Memo(lambda y: _Memo(lambda w: form(y, w)).__getitem__)

        population = Combinations(alg.generator_ids(), 2, repeats=True, lead=True)
        triples = _draw(result, "triples", population, sample, seed)
        exhaustive = result.regime == "exhaustive"
        if exhaustive:
            result.details["triples"] = len(population)
            triples = _form_candidates(alg, population.items)
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


def _killing_tail(alg: GKMAlgebra):
    """The generator id pairs (i, j) of the pairing table's D/k tail, in check order."""
    m, r = len(alg.modes.modes), alg.r
    D, k = alg.base.dim * m, alg.base.dim * m + r  # the ids of D_1 and k_1; id 0 is a T
    for i, j in itertools.product(range(r), range(r)):
        yield from ((D + i, k + j), (k + i, D + j), (D + i, D + j), (k + i, k + j))
        yield from ((D + i, 0), (k + i, 0))


def _killing_expected(alg: GKMAlgebra, i: int, j: int):
    """The row <X_i, X_j> must equal: <X_j, X_i> for a T, delta_ij on D_i, k_j, else 0."""
    p, q = alg.generator_of(i), alg.generator_of(j)
    if p[0] == "T":
        return alg.form_row(j, i)
    delta = {p[0], q[0]} == {"D", "k"} and p[1] == q[1]
    return (1, ((None, 1, 1),) if delta else ())


def killing_table_check(alg: GKMAlgebra) -> CheckResult:
    """The generator pairing table: <T,T> symmetric, <D,k> = delta, D/k else 0.

    Checked on the form rows that invariance reads, where an eta whose
    partners or phases disagree between I and J shows up as an asymmetric form.
    The table is decided on its factors first: <X_aI, X_bJ> is ``ZERO_ROW``
    unless eta(I) names J with a nonzero phase, so only those mode pairs are
    compared, in both orders, for every base pair (a, b), then the D/k tail.
    A pass counts every pair of the table without walking it; anything else
    runs :func:`_killing_table_walk`, whose count and witness are the reference.
    """
    with checking("killing_table") as result:
        if _killing_table_decided(alg):
            m, r = len(alg.modes.modes), alg.r
            result.details["pairs"] = (alg.base.dim * m) ** 2 + 6 * r * r
        else:
            _killing_table_walk(alg, result)
    return result


def _killing_table_decided(alg: GKMAlgebra) -> bool:
    """Whether every pair of the pairing table passes, read on the pairs that can be nonzero."""
    ms, form = alg.modes, alg.form_row
    m, dims = len(ms.modes), range(alg.base.dim)
    position = {I: p for p, I in enumerate(ms.modes)}
    pairs = set()  # mode positions (p, q), p <= q, with eta of one naming the other
    for p, I in enumerate(ms.modes):
        J, phase = ms.eta(I)
        q = position.get(J)
        if phase and q is not None:
            pairs.add((min(p, q), max(p, q)))
    return all(
        form(a * m + p, b * m + q) == form(b * m + q, a * m + p)
        for p, q in pairs
        for a in dims
        for b in dims
    ) and all(form(i, j) == _killing_expected(alg, i, j) for i, j in _killing_tail(alg))


def _killing_table_walk(alg: GKMAlgebra, result: CheckResult) -> None:
    """Check every generator id pair of the pairing table in order, tallied into ``result``."""
    m, dims = len(alg.modes.modes), range(alg.base.dim)
    tt = (
        (a * m + I, b * m + J)
        for a, b, I, J in itertools.product(dims, dims, range(m), range(m))
    )
    for i, j in result.tally("pairs", itertools.chain(tt, _killing_tail(alg))):
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


def grading_check(alg: GKMAlgebra) -> CheckResult:
    """[g_(a,m), g_(b,n)] must land in g_(a+b, m+n); central terms only at 0.

    For each bracket of root-space basis elements, every surviving mode must
    carry eigenvalue m+n, and the central part must vanish unless a+b = 0 and
    m+n = 0.  The base factor is the named root system, which
    :func:`base_tables_check` ties to the dump (see :func:`_grading_items`).
    An item can fail only through a drifting product entry or a partner pair
    whose eigenvalues do not cancel; when :func:`_grading_decided` finds
    neither, every item passes and is counted without walking.  Otherwise
    :func:`_grading_walk` checks each item, and its count and witness stand.
    """
    with checking("grading") as result:
        if alg.cw is None:
            result.regime = "skipped"
            result.details["note"] = "abelian base: no root grading to check"
            return result
        if _grading_decided(alg.modes):
            sizes = [len(basis) for basis in _root_spaces(alg).values()]
            result.details["bracket_pairs"] = (sum(sizes) ** 2 + sum(s * s for s in sizes)) // 2
            result.details["labels"] = len(sizes)
        else:
            _grading_walk(alg, result)
    return result


def _grading_decided(ms: ModeSystem) -> bool:
    """Whether no grading item can carry a witness: every nonzero entry of rho_I rho_J has
    eigenvalue I's plus J's, and every mode of nonzero eigenvalue with a nonzero-phase
    partner in the cutoff has the partner's eigenvalue negated."""
    eig, modes = _eigen_ints(ms)[1], set(ms.modes)
    for I in ms.modes:
        for J in ms.modes:
            target = tuple(map(add, eig[I], eig[J]))
            for K, c in ms.product(I, J).items():
                if eig[K] != target and not c.is_zero:
                    return False
        J, phase = ms.eta(I)
        if phase and any(eig[I]) and J in modes and any(map(add, eig[I], eig[J])):
            return False
    return True


def _grading_walk(alg: GKMAlgebra, result: CheckResult) -> None:
    """Check every item of :func:`_grading_items` in order, tallied into ``result``."""
    spaces = _root_spaces(alg)
    for alpha, m, beta, n, witness in result.tally("bracket_pairs", _grading_items(alg, spaces)):
        if witness is not None:
            labels = {"alpha": alpha, "m": m, "beta": beta, "n": n}
            witness.update({key: [str(x) for x in v] for key, v in labels.items()})
            raise CheckFailed(witness)
    result.details["labels"] = len(spaces)


def _root_spaces(alg: GKMAlgebra) -> dict:
    """Each root-space label -> its basis ``(k, I)`` from ``GKMAlgebra._root_basis``."""
    by_eigen = alg._modes_by_eigen()
    return {(a, n): list(alg._root_basis(a, by_eigen[n])) for a, n in alg.root_space_labels()}


def _mode_part(ms: ModeSystem, I, J, eig: _Memo) -> tuple:
    """``(drift, j)`` for modes I, J: the first nonzero K of rho_I rho_J whose int eigenvalues
    ``eig`` are not I's plus J's, and the first j whose cocycle factor omega_j(rho_I, rho_J) =
    I(j) eta_IJ is nonzero; each None where there is none."""
    target = tuple(a + b for a, b in zip(eig[I], eig[J]))
    products = ms.product(I, J).items()
    drift = next((K for K, c in products if not c.is_zero and eig[K] != target), None)
    partner, phase = ms.eta(I)
    js = (j for j in range(1, ms.r + 1) if partner == J and phase and eig[I][j - 1])
    return drift, next(js, None)


def _grading_items(alg: GKMAlgebra, spaces: dict):
    """Every grading item ``(alpha, m, beta, n, witness)`` in check order.

    One item per basis element u of g_(alpha,m) and v of g_(beta,n), over label
    pairs in ``combinations_with_replacement`` order; ``witness`` is None when
    [u, v] lies in g_(alpha+beta, m+n).  For u = x (x) rho_I, v = y (x) rho_J,
    [u, v] = sum_K c_IJ^K [x, y] (x) rho_K + <x, y> eta_IJ sum_j I(j) k_j, the
    formula the T-T rows are built by.  The base factor is the root grading of
    the named algebra (Humphreys, *Introduction to Lie Algebras*, 8.1-8.2; the
    tests prove it on the Cartan-Weyl data): [x, y] lies in g_(alpha+beta), and
    is nonzero exactly when alpha+beta is a root or 0 (two roots), when b_k != 0
    (H^k and a root b, in either order), never (H^k and H^l); <x, y> is 1 for
    two roots at alpha+beta = 0, sum_gamma gamma_k gamma_l for H^k and H^l,
    else 0.  The mode part is read once per (I, J), and labels are int tuples.
    A central term off (0, 0) is reported first, as <x, y> omega_j of the first
    such k_j; otherwise the first mode K of a nonzero [x, y] (x) rho_K that drifts.
    """
    ms, cw, modes = alg.modes, alg.cw, {}
    scaled, eig = _eigen_ints(ms)
    roots = _scaled(lcm(*(v.denominator for alpha in cw.roots for v in alpha)))
    closed = {roots(alpha) for alpha in cw.roots} | {(0,) * cw.rank}
    trace = [[sum(g[k] * g[l] for g in cw.roots) for l in range(cw.rank)] for k in range(cw.rank)]
    labels = [(*label, roots(label[0]), scaled(label[1]), basis) for label, basis in spaces.items()]
    pairs = itertools.combinations_with_replacement(labels, 2)
    for (alpha, m, ia, im, us), (beta, n, ib, in_, vs) in pairs:
        root = tuple(a + b for a, b in zip(ia, ib))
        central_ok = not any(root) and not any(a + b for a, b in zip(im, in_))
        for k, I in us:
            for l, J in vs:
                if k is None and l is None:
                    bracketed, pairing = root in closed, int(not any(root))
                elif k is None or l is None:  # [H^k, E_b] = b_k E_b
                    bracketed, pairing = (ia[l] if k is None else ib[k]) != 0, 0
                else:
                    bracketed, pairing = False, trace[k][l]
                mode = modes.get((I, J))
                if mode is None:
                    mode = modes[I, J] = _mode_part(ms, I, J, eig)
                (drift, j), witness = mode, None
                if j and pairing and not central_ok:
                    value = str(pairing * ms.cocycle_pairing(j, I, J))
                    witness = {"component": repr(("k", j)), "value": value, "kind": "central"}
                elif bracketed and drift is not None:
                    witness = {"mode": list(drift), "kind": "eigenvalue drift"}
                yield alpha, m, beta, n, witness


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


def run_suites(
    alg: GKMAlgebra,
    suite: str = "all",
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    oracle_samples: int | None = None,
) -> VerificationReport:
    """Run the selected verification suite(s) against one algebra.

    The oracle draws ``oracle_samples`` quantities, by default the budget
    every other check draws under.
    """
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
    if suite in ("all", "jacobi", "grading", "invariance"):
        report.add(base_tables_check(alg))
    if suite == "all":
        report.add(antisymmetry_check(alg))
        if alg.stored_brackets is not None:
            report.add(bracket_table_check(alg))
        report.extend(mode_axiom_checks(alg.modes, budget=budget, seed=seed))
        if isinstance(alg.modes.geometry, TorusGeometry) and alg.r >= 2:
            report.add(torus_hierarchy_check(alg))
    if suite in ("all", "oracle"):
        samples = budget if oracle_samples is None else oracle_samples
        report.add(oracle_agreement_check(alg, samples=samples, seed=seed))
    report.stats = {
        "bracket_rows": sum(map(len, alg._pair_cache.values())),
        "ext_products": len(alg.modes._ext_products),
        "wigner_cache": cache_size(),
    }
    return report
