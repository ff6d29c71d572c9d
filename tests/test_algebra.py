import dataclasses
import gc
import hashlib
import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest

from gkmalg import verify
from gkmalg.algebra import ZERO_ROW, GKMAlgebra, GKMElement, build_algebra
from gkmalg.liealg import FiniteAlgebra, coefficients_in_span
from gkmalg.modes import parse_manifold
from gkmalg.scalars import (
    CSURD_ZERO,
    SURD_ONE,
    SURD_ZERO,
    ComplexSurd,
    SurdScalar,
    contract,
    int_row,
    lowest_row,
)
from gkmalg.serialize import dump_algebra, load_algebra
from gkmalg.verify import (
    Combinations,
    _DERIVED,
    _FACTOR_CHECKS,
    _form_candidates,
    _root_spaces,
    antisymmetry_check,
    associativity_check,
    base_tables_check,
    cocycle_antisymmetry_check,
    commutativity_check,
    eigen_additivity_check,
    grading_check,
    invariance_check,
    jacobi_check_gkm,
    killing_consistency_check,
    killing_table_check,
    oracle_agreement_check,
    run_suites,
    sample_items,
    torus_hierarchy_check,
)


@pytest.fixture(scope="module")
def su2_s2():
    return build_algebra("su2", "s2", 1, charges=[1])


@pytest.fixture(scope="module")
def su2_t1():
    return build_algebra("su2", "t1", 2, charges=[1])


def test_generator_counts():
    assert len(build_algebra("su2", "s2", 1, charges=[1]).generators()) == 14
    assert len(build_algebra("su2", "t1", 2, charges=[1]).generators()) == 17
    assert len(build_algebra("u1^2", "t2", 1, charges=[1, 1]).generators()) == 22


def test_charge_count_validated():
    with pytest.raises(ValueError):
        build_algebra("su2", "t2", 1, charges=[1])


def test_affine_bracket_values(su2_t1):
    alg = su2_t1
    x = alg.generator(("T", 1, (1,)))
    y = alg.generator(("T", 2, (2,)))
    got = alg.bracket(x, y)
    assert got.coeffs == {("T", 3, (3,)): ComplexSurd(0, 1)}
    # a = b pairs produce only the central term: 2 m k1
    z = alg.generator(("T", 1, (-1,)))
    central = alg.bracket(x, z)
    assert central.coeffs == {("k", 1): ComplexSurd.rational(2)}
    assert central.fold_charges() == ComplexSurd.rational(2)
    # [D, T_m] = m T_m ; [k, anything] = 0
    d = alg.generator(("D", 1))
    assert alg.bracket(d, x).coeffs == {("T", 1, (1,)): ComplexSurd.rational(1)}
    k = alg.generator(("k", 1))
    for gen in alg.generators():
        assert alg.bracket(k, alg.generator(gen)).is_zero
    assert alg.bracket(d, d).is_zero


def test_sphere_grading_operator(su2_s2):
    alg = su2_s2
    for m in (-1, 0, 1):
        x = alg.generator(("T", 2, (1, m)))
        got = alg.bracket(alg.generator(("D", 1)), x)
        if m == 0:
            assert got.is_zero
        else:
            assert got.coeffs == {("T", 2, (1, m)): ComplexSurd.rational(m)}


def test_killing_values(su2_s2):
    alg = su2_s2
    t_a = alg.generator(("T", 1, (1, 1)))
    t_b = alg.generator(("T", 1, (1, -1)))
    assert alg.killing(t_a, t_b) == ComplexSurd.rational(-2)
    assert alg.killing(alg.generator(("D", 1)), alg.generator(("k", 1))) == ComplexSurd.rational(1)
    assert alg.killing(alg.generator(("D", 1)), t_a).is_zero
    assert alg.killing(alg.generator(("k", 1)), t_a).is_zero
    assert killing_table_check(alg).passed
    assert killing_consistency_check(alg).passed


def test_element_arithmetic(su2_s2):
    alg = su2_s2
    x = alg.generator(("T", 1, (1, 1)))
    y = alg.generator(("T", 2, (1, 0)))
    z = x + y.scale(ComplexSurd.rational(Fraction(1, 2)))
    assert z.coefficient(("T", 2, (1, 0))) == ComplexSurd.rational(Fraction(1, 2))
    assert (z - z).is_zero
    with pytest.raises(ValueError):
        other = build_algebra("su2", "t1", 1, charges=[1])
        alg.bracket(x, other.generator(("D", 1)))
    # the same labels exist in a larger cutoff, but these elements are not its own
    larger = build_algebra("su2", "s2", 2, charges=[1])
    with pytest.raises(ValueError, match="elements belong to different algebras"):
        larger.killing(x, alg.generator(("T", 1, (1, -1))))


def test_bracket_antisymmetry(su2_s2, su2_t1):
    assert antisymmetry_check(su2_s2).passed
    assert antisymmetry_check(su2_t1).passed


def test_root_space_dimensions():
    alg = build_algebra("su2", "s2", 2, charges=[1])
    plus = (Fraction(1),)
    for m in range(-2, 3):
        basis = alg.root_space(plus, (Fraction(m),))
        assert len(basis) == 2 + 1 - abs(m)
    assert alg.root_space(plus, (Fraction(5),)) == []
    zero = (Fraction(0),)
    assert len(alg.root_space(zero, (Fraction(0),))) == 3  # one H per l = 0,1,2
    t_alg = build_algebra("su2", "t1", 6, charges=[1])
    for n in range(-5, 6):
        assert len(t_alg.root_space(plus, (Fraction(n),))) == 1
        assert len(t_alg.root_space(zero, (Fraction(n),))) == 1
    with pytest.raises(ValueError):
        t_alg.root_space((Fraction(2),), (Fraction(0),))
    u1 = build_algebra("u1", "t1", 1, charges=[1])
    with pytest.raises(ValueError):
        u1.root_space(plus, (Fraction(0),))


def test_root_space_elements_are_eigenvectors(su2_t1):
    alg = su2_t1
    plus = (Fraction(1),)
    for n in range(-2, 3):
        for elem in alg.root_space(plus, (Fraction(n),)):
            got = alg.bracket(alg.generator(("D", 1)), elem)
            want = elem.scale(ComplexSurd.rational(n))
            assert (got - want).is_zero


def test_jacobi_exhaustive_small():
    for base, manifold, cutoff in (("su2", "t1", 1), ("su2", "s2", 1), ("u1^2", "t2", 1)):
        r = 2 if manifold == "t2" else 1
        alg = build_algebra(base, manifold, cutoff, charges=[1] * r)
        result = jacobi_check_gkm(alg, sample="all")
        assert result.passed, result.witness


def test_jacobi_sampled_regime(su2_s2):
    result = jacobi_check_gkm(su2_s2, sample=50, seed=11)
    assert result.passed and result.regime == "sampled" and result.seed == 11


def test_sampled_counts_are_distinct_items_checked():
    alg = build_algebra("su2", "s2", 1, charges=[1])  # 14 generators
    jacobi = jacobi_check_gkm(alg, sample=10**4, seed=1)
    assert jacobi.details["triples"] == 14 * 13 * 12 // 6
    assert jacobi.regime == "exhaustive" and jacobi.seed is None
    invariance = invariance_check(alg, sample=3000, seed=1)
    assert invariance.details["triples"] == 14 * (14 * 15 // 2)
    invariance = invariance_check(alg, sample=1000, seed=1)
    assert invariance.details["triples"] == 1000 and invariance.regime == "sampled"


@pytest.mark.parametrize(
    "k,repeats,lead", [(3, False, False), (3, True, False), (2, False, True), (2, True, True)]
)
def test_sampler_draws_from_the_exhaustive_population(k, repeats, lead):
    population = Combinations([f"g{i}" for i in range(7)], k, repeats=repeats, lead=lead)
    exhaustive = list(population)
    assert len(exhaustive) == len(population)
    assert [population[i] for i in range(len(population))] == exhaustive
    assert [population.index(item) for item in exhaustive] == list(range(len(population)))
    for index in (-1, len(population)):
        with pytest.raises(IndexError):
            population[index]
    width = k + lead
    for outsider in (("g7",) * width, exhaustive[0][:-1], exhaustive[0][: width - 2] + ("g1", "g0")):
        with pytest.raises(ValueError):
            population.index(outsider)
    for count in (len(population), len(population) + 5):
        assert sorted(sample_items(population, count, seed=3)) == sorted(exhaustive)
    drawn = list(sample_items(population, 20, seed=3))
    assert len(set(drawn)) == 20 and set(drawn) <= set(exhaustive)
    assert drawn == list(sample_items(population, 20, seed=3))


@pytest.mark.parametrize(
    "k,repeats,lead", [(3, False, False), (3, True, False), (2, False, True), (2, True, True)]
)
def test_unranking_a_large_population_matches_its_iteration(k, repeats, lead):
    population = Combinations([f"g{i}" for i in range(90)], k, repeats=repeats, lead=lead)
    wanted = set(random.Random(11).sample(range(len(population)), 300)) | {0, len(population) - 1}
    seen = {i: item for i, item in enumerate(population) if i in wanted}
    assert seen.keys() == wanted
    for i, item in seen.items():
        assert population[i] == item
        assert population.index(item) == i


def test_unranking_past_the_population_is_an_index_error():
    with pytest.raises(IndexError):
        Combinations(range(5), 2)[10]


def test_grading_check_passes():
    for manifold, cutoff in (("t1", 2), ("s2", 2)):
        alg = build_algebra("su2", manifold, cutoff, charges=[1])
        result = grading_check(alg)
        assert result.passed, result.witness
    su3 = build_algebra("su3", "t1", 1, charges=[1])
    assert grading_check(su3).passed


def test_grading_skipped_for_abelian():
    alg = build_algebra("u1", "t1", 1, charges=[1])
    res = grading_check(alg)
    assert res.passed and res.regime == "skipped"


def test_grading_detects_corrupt_product():
    alg = build_algebra("su2", "s2", 1, charges=[1])
    # inject a mode that breaks eigenvalue additivity in one product entry
    alg.modes.products[((1, 0), (1, 0))][(1, 1)] = SurdScalar.rational(1)
    alg._pair_cache.clear()
    result = grading_check(alg)
    assert not result.passed
    assert result.witness["factor"] == "eigen_additivity"


def test_cocycle_antisymmetry_and_fault():
    alg = build_algebra("su2", "s2", 2, charges=[1])
    assert cocycle_antisymmetry_check(alg).passed
    alg.modes.eta_table[(1, 1)] = ((1, -1), 1)  # flip the phase one way only
    result = cocycle_antisymmetry_check(alg)
    assert not result.passed
    assert result.witness["operator"] == 1


def _scale_dk(factor):
    """Override ``form_row`` on one algebra so that <D_i, k_j> is ``factor`` * delta_ij."""

    def tamper(alg):
        form_row = alg.form_row

        def scaled(i, j):
            row = form_row(i, j)
            if {alg.generator_of(i)[0], alg.generator_of(j)[0]} != {"D", "k"}:
                return row
            den, terms = row
            return (den, tuple((k, d, factor * n) for k, d, n in terms)) if factor else (1, ())

        alg.form_row = scaled

    return tamper


def test_invariance_exhaustive_and_dk_fault():
    alg = build_algebra("su2", "t1", 1, charges=[1])
    assert invariance_check(alg, sample="all").passed
    # setting <D, k> = 0 must break invariance on (T, T, D) triples
    _scale_dk(0)(alg)
    result = invariance_check(alg, sample="all")
    assert not result.passed
    gens = result.witness["generators"]
    assert any("'D'" in g for g in gens)


@pytest.mark.parametrize("factor", [0, 2])
def test_exhaustive_invariance_equals_every_triple_summed_under_a_dk_tamper(
    factor, dense_invariance
):
    alg = build_algebra("su2", "s2", 2, charges=[1])
    _scale_dk(factor)(alg)
    result = invariance_check(alg, sample="all")
    assert (result.passed, result.details, result.witness) == dense_invariance(alg)


@pytest.mark.parametrize("partner", [None, ((3, -1), 1), ((3, 2), -1)])
def test_form_partners_follow_an_eta_partner_beyond_the_cutoff(partner, dense_invariance):
    alg = build_algebra("su2", "s2", 2, charges=[1])
    if partner is not None:
        alg.modes.eta_table[(1, 1)] = partner  # modes (3, m) lie beyond cutoff 2
    # the candidate triples are those a scan of every id for every partner finds
    ids, form = list(alg.generator_ids()), alg.form_row
    scanned = set()
    for x, v in itertools.product(ids, ids):
        for w, _, _ in alg.bracket_row(x, v)[1]:
            scanned.update((x, v, z) for z in ids if v <= z and form(w, z)[1])
            scanned.update((x, y, v) for y in ids if y <= v and form(y, w)[1])
    assert list(_form_candidates(alg, ids)) == sorted(scanned)
    result = invariance_check(alg, sample="all")
    assert result.passed == (partner is None)
    assert (result.passed, result.details, result.witness) == dense_invariance(alg)


def test_invariance_su3():
    alg = build_algebra("su3", "t1", 1, charges=[1])
    assert invariance_check(alg, sample=800, seed=3).passed


def test_exhaustive_invariance_sums_only_the_triples_with_a_form_partner(monkeypatch):
    alg = build_algebra("su2", "s3", 3, charges=[1, 1])
    calls, forms = [], []
    contract, form_row = verify.contract, alg.form_row
    monkeypatch.setattr(verify, "contract", lambda *args: calls.append(1) or contract(*args))
    alg.form_row = lambda i, j: forms.append(1) or form_row(i, j)
    result = invariance_check(alg, sample=419710)
    assert (result.passed, result.regime) == (True, "exhaustive")
    assert result.details == {"population": 419710, "triples": 419710}
    # about 2,300 triples meet a form partner; summing all of them takes about 840,000 calls
    assert len(calls) < 10_000
    # the partners come from the support rule: scanning every id for each takes about 79,700
    assert len(forms) < 5_000


def test_an_algebra_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        alg = build_algebra("su2", "t1", 1, charges=[1])
        assert jacobi_check_gkm(alg).passed
        freed = weakref.ref(alg)
        del alg
        assert freed() is None  # the row cache holds its algebra weakly
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "base,manifold,rows,digest",
    [
        ("su2", "s2", 2221, "baca8820e969653dc1cf7f70d991a557fba67fa9e41b9e8985b8a08448caf30d"),
        ("su3", "t1", 1092, "8b64cab0c9d260b062216604da3d6db8193c725096f38d19ed7c32e128e5c75a"),
        ("su2", "s3", 850, "cd40978777f31a4b12d11aadef2070c32052059f59a7a0c3b1c70425890e974b"),
    ],
)
def test_the_checks_build_the_same_rows_and_generator_ids(base, manifold, rows, digest):
    # recorded when rows were cached by (i, j) pair: the row set, every row and the
    # order in which out-of-cutoff generators get their ids must not depend on the cache
    cutoff = 2 if (base, manifold) == ("su2", "s2") else 1
    alg = build_algebra(base, manifold, cutoff, charges=[1] * parse_manifold(manifold).r)
    report = run_suites(alg, "all", seed=0)
    assert all(check.passed for check in report.checks)
    columns = alg._pair_cache.items()
    cached = sorted((i, j, row) for j, column in columns for i, row in column.items())
    assert report.stats["bracket_rows"] == len(cached) == rows
    assert hashlib.sha256(repr((alg._gens, cached)).encode()).hexdigest() == digest


def _torus(base, n, cutoff):
    return build_algebra(base, f"t{n}", cutoff, charges=[1] * n)


def test_hierarchy_pass_and_negative():
    assert torus_hierarchy_check(_torus("su2", 2, 2)).passed
    assert torus_hierarchy_check(_torus("su2", 3, 1)).passed
    assert torus_hierarchy_check(_torus("u1", 3, 1)).passed
    bad = torus_hierarchy_check(_torus("su2", 2, 2), embed_suffix=(1,))
    assert not bad.passed
    with pytest.raises(ValueError):
        torus_hierarchy_check(_torus("su2", 1, 2))
    with pytest.raises(ValueError):
        torus_hierarchy_check(build_algebra("su2", "s2", 1, charges=[1]))
    bad = torus_hierarchy_check(_torus("su2", 2, 1), embed_suffix=(1,))
    assert (bad.details["pairs"], bad.witness) == (3, {
        "generators": ["('T', 1, (-1,))", "('T', 1, (1,))"],
        "kind": "structure constants differ under the embedding",
    })
    bad = torus_hierarchy_check(_torus("su2", 2, 0), embed_suffix=(1,))
    assert (bad.details["pairs"], bad.witness) == (2, {
        "generators": ["('T', 1, (0,))", "('T', 2, (0,))"],
        "escaping_component": "('T', 3, (0, 2))",
    })


def test_oracle_agreement_and_fault():
    alg = build_algebra("su2", "s2", 1, charges=[1])
    assert oracle_agreement_check(alg, samples=1000, seed=0).passed
    alg.modes.products[((1, 0), (1, 0))][(2, 0)] = SurdScalar.sqrt(5, Fraction(4, 5))
    result = oracle_agreement_check(alg, samples=1000, seed=0)
    assert not result.passed
    assert result.witness["quantity"] == "product"


def test_a_nan_from_the_oracle_fails_with_a_strict_json_witness(monkeypatch):
    alg = build_algebra("su2", "s2", 1, charges=[1])
    monkeypatch.setattr(verify, "numeric_product_coefficient", lambda *args: float("nan"))
    result = oracle_agreement_check(alg, samples=1000, seed=0)
    assert not result.passed and result.details["samples"] == 1
    assert result.witness["quantity"] == "product"
    assert (result.witness["numeric"], result.witness["delta"]) == ("nan", "nan")
    json.dumps(result.to_dict(), allow_nan=False)  # no NaN literal in the report


def _quantity_list(ms):
    """The oracle's population as the list it was before it was indexed lazily."""
    quantities = []
    for (I, J), table in ms.products.items():
        for K, c in table.items():
            quantities.append(("product", (I, J, K), c))
    for I in ms.modes:
        J, phase = ms.eta(I)
        quantities.append(("eta", (I, J), phase))
        for j in range(1, ms.r + 1):
            quantities.append(("eigen", (j, I), ms.eigen(I)[j - 1]))
            quantities.append(("cocycle", (j, I, J), ms.cocycle_pairing(j, I, J)))
    return quantities


@pytest.mark.parametrize("manifold,cutoff", [("t2", 2), ("s2", 3), ("s3", 2)])
def test_the_lazy_oracle_population_draws_as_the_list_did(monkeypatch, manifold, cutoff):
    alg = build_algebra("su2", manifold, cutoff, charges=[1] * parse_manifold(manifold).r)
    population = _quantity_list(alg.modes)
    drawn, built, numeric_of = [], [], {}
    for kind, name in [("product", "product_coefficient"), ("eta", "conjugation_pairing"),
                       ("eigen", "eigencheck"), ("cocycle", "cocycle_pairing")]:
        numeric = numeric_of[kind] = getattr(verify, f"numeric_{name}")
        monkeypatch.setattr(
            verify, f"numeric_{name}", lambda grid, *a, _f=numeric: drawn.append(a) or _f(grid, *a)
        )
    quantity = verify._quantity
    monkeypatch.setattr(verify, "_quantity", lambda *a: built.append(1) or quantity(*a))
    grid = verify.make_grid(alg.modes.geometry, verify._oracle_band(alg.modes))
    for seed, samples in [(0, 100), (3, 100), (11, 100), (5, len(population))]:
        drawn.clear()
        built.clear()
        result = oracle_agreement_check(alg, samples=samples, seed=seed)
        sampled = samples < len(population)
        expected = list(sample_items(population, samples, seed)) if sampled else population
        assert result.passed and drawn == [args for _, args, _ in expected]
        assert result.regime == ("sampled" if sampled else "exhaustive")
        assert len(built) == samples
        deltas = [abs(numeric_of[k](grid, *args) - float(v)) for k, args, v in expected]
        assert result.details["max_delta"] == max(deltas)


def test_oracle_converts_only_the_drawn_quantities(monkeypatch):
    alg = build_algebra("su2", "s2", 4, charges=[1])
    evalf = SurdScalar.evalf
    calls = []
    monkeypatch.setattr(SurdScalar, "evalf", lambda self, *a: calls.append(1) or evalf(self, *a))
    result = oracle_agreement_check(alg, samples=50, seed=0)
    assert result.passed and result.regime == "sampled"
    assert 0 < len(calls) <= 50
    # seed 10 draws the tampered entry as its 13th sample; witness as before
    _bump_product(1)(alg)
    result = oracle_agreement_check(alg, samples=50, seed=10)
    assert result.details["samples"] == 13
    assert {k: result.witness[k] for k in ("quantity", "labels", "exact", "delta")} == {
        "quantity": "product",
        "labels": "((1, 0), (1, 1), (2, 1))",
        "exact": 1.7745966692414834,
        "delta": 1.0,
    }


def test_vector_element_and_fold(su2_t1):
    alg = su2_t1
    cw = alg.cw
    e_plus = alg.vector_element(cw.root_vectors[(Fraction(1),)], (1,))
    e_minus = alg.vector_element(cw.root_vectors[(Fraction(-1),)], (-1,))
    comm = alg.bracket(e_plus, e_minus)
    # central coefficient equals <E+, E-> * m = 1 * 1 on k_1
    assert comm.central_part() == {("k", 1): ComplexSurd.rational(1)}
    assert comm.fold_charges() == ComplexSurd.rational(1)
    t_part = comm.t_part()
    assert set(t_part) == {("T", 3, (0,))}


def _bump_product(delta, I=(1, 0), J=(1, 1), K=(2, 1)):
    def tamper(alg):
        table = alg.modes.products[(I, J)]
        table[K] = table[K] + delta

    return tamper


def _set(name, key, value):
    return lambda alg: getattr(alg.modes, name).__setitem__(key, value)


T = "('T', {}, {})".format
TAMPERS = {
    "none": lambda alg: None,
    "product+1": _bump_product(1),
    "product+(1+sqrt2)": _bump_product(SurdScalar({1: 1, 2: 1})),
    # the Jacobi witness component has terms in two radicands next to others
    "square+(1+sqrt2)": _bump_product(SurdScalar({1: 1, 2: 1}), (1, 1), (1, 1), (2, 2)),
    "eta": _set("eta_table", (1, 1), ((1, -1), 1)),
    "eigen": _set("eigen_table", (1, 1), (2,)),
    "dk_pairing": _scale_dk(2),
}
# (jacobi_gkm, invariance) outcome per tamper of su2/s2/c2: the triples checked
# and the witness (None: passed), as computed with T-basis ComplexSurd brackets
JACOBI_WITNESS = {
    "generators": [T(1, (0, 0)), T(1, (1, 0)), T(2, (1, 1))],
    "component": T(2, (2, 1)),
}
INVARIANCE_WITNESS = {"generators": [T(1, (1, 0)), T(2, (1, 1)), T(3, (2, -1))]}
ETA_JACOBI = {"generators": [T(1, (0, 0)), T(2, (1, -1)), T(3, (1, 1))], "component": "('k', 1)"}
TT_D = {"generators": [T(1, (1, -1)), T(1, (1, 1)), "('D', 1)"]}
TAMPER_PINS = {
    "none": ((3654, None), (12615, None)),
    "product+1": (
        (37, {**JACOBI_WITNESS, "value": "-1"}),
        (1164, {**INVARIANCE_WITNESS, "value": "(-2)i"}),
    ),
    "product+(1+sqrt2)": (
        (37, {**JACOBI_WITNESS, "value": "-1 - √2"}),
        (1164, {**INVARIANCE_WITNESS, "value": "(-2 - 2√2)i"}),
    ),
    "square+(1+sqrt2)": (
        (413, {"generators": [T(1, (1, -1)), T(1, (1, 1)), T(2, (1, 1))], "component": T(2, (1, 1)),
               "value": "(2/5)√15 + (1/5)√30"}),
        (1598, {"generators": [T(1, (1, 1)), T(2, (1, 1)), T(3, (2, -2))], "value": "(2 + 2√2)i"}),
    ),
    "eta": ((218, {**ETA_JACOBI, "value": "(4)i"}), (544, {**TT_D, "value": "4"})),
    "eigen": (
        (218, {**ETA_JACOBI, "value": "(-2)i"}),
        (11777, {"generators": ["('D', 1)", T(1, (1, -1)), T(1, (1, 1))], "value": "-2"}),
    ),
    "dk_pairing": ((3654, None), (544, {**TT_D, "value": "2"})),
}


@pytest.mark.parametrize("tamper", list(TAMPERS))
def test_tampers_keep_their_verdicts_counts_and_witnesses(tamper):
    alg = build_algebra("su2", "s2", 2, charges=[1])
    TAMPERS[tamper](alg)
    for check, (triples, witness) in zip((jacobi_check_gkm, invariance_check), TAMPER_PINS[tamper]):
        result = check(alg, sample=20000, seed=0)
        assert result.regime == "exhaustive"
        assert (result.passed, result.details["triples"]) == (witness is None, triples)
        assert result.witness == witness


def test_a_passing_item_does_no_fraction_arithmetic(monkeypatch):
    algs = [
        build_algebra("su2", "s2", 2, charges=[1]),
        build_algebra("su3", "t1", 1, charges=[1]),
        build_algebra("su2", "s3", 1, charges=[1, 1]),
    ]
    for alg in algs:  # build every row the checks read
        assert run_suites(alg, "all").passed

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic while checking")

    for name in ("__mul__", "__add__", "_mul", "_add"):
        monkeypatch.setattr(Fraction, name, forbidden)
    for alg in algs:
        checks = (
            jacobi_check_gkm(alg),
            antisymmetry_check(alg),
            associativity_check(alg.modes),
            eigen_additivity_check(alg.modes),
        )
        for result in checks:
            assert result.passed and result.regime == "exhaustive", result.name


FRACTION_OPERATORS = [
    f"__{side}{op}__" for op in ("add", "sub", "mul", "truediv") for side in ("", "r")
]


@pytest.mark.parametrize("cutoff", [2, 3])
def test_a_passing_grading_check_does_no_fraction_arithmetic(monkeypatch, reference_walk, cutoff):
    # decided on the factor checks' int labels, with the count of the walk over every item
    alg = build_algebra("su2", "s3", cutoff, charges=[1, 1])
    calls = []
    with monkeypatch.context() as patch:
        for name in FRACTION_OPERATORS:
            method = getattr(Fraction, name)
            patch.setattr(Fraction, name, lambda *a, _m=method: calls.append(1) or _m(*a))
        result = grading_check(alg)
    assert result.passed and calls == []
    walk = reference_walk("grading", alg)
    assert walk.passed and result.details == walk.details


def test_eigen_labels_follow_an_edit_of_the_table_between_checks():
    # the rule's labels of out-of-cutoff modes are kept on the mode system across calls; an
    # edited table label, even one of a new denominator, is read afresh by the next call
    ms = build_algebra("su2", "s3", 1, charges=[1, 1]).modes
    reached = {K for table in ms.products.values() for K in table} | set(ms.modes)
    assert reached - set(ms.modes)
    for label in (None, (Fraction(1, 3), Fraction(1, 2)), (Fraction(-5, 6), Fraction(0))):
        if label is not None:
            ms.eigen_table[(1, 1, 1)] = label
        scaled, eig = verify._eigen_ints(ms)
        assert all(eig[K] == scaled(ms.eigen(K)) for K in reached)
        assert eig[1, 1, 1] == scaled(label or (Fraction(1, 2), Fraction(1, 2)))
    assert ms._rule_eigen


COMPLEX_SURD_OPERATORS = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__"
]


@pytest.mark.parametrize(
    "base,manifold,cutoff", [("su2", "s2", 2), ("su3", "s2", 1), ("su2", "s3", 1), ("su3", "t2", 1)]
)
def test_a_passing_verify_does_no_complex_surd_arithmetic(monkeypatch, base, manifold, cutoff):
    # checks decide on int rows and the named root system; only a witness's text may use ComplexSurd
    alg = build_algebra(base, manifold, cutoff, charges=[1] * parse_manifold(manifold).r)
    calls = []
    for name in COMPLEX_SURD_OPERATORS:
        method = getattr(ComplexSurd, name)
        monkeypatch.setattr(
            ComplexSurd, name, lambda *a, _m=method, _n=name: calls.append(_n) or _m(*a)
        )
    report = run_suites(alg, "all")
    assert report.passed and calls == []


@pytest.mark.parametrize("base,manifold,cutoff", [("su2", "s3", 2), ("su3", "s2", 1)])
def test_passing_checks_decide_the_pairing_table_and_grading_from_their_factors(
    monkeypatch, base, manifold, cutoff
):
    # both are derived from factor checks that read the f, g, eta, eigen and product tables:
    # a pass reads no T-T form row, only the D/k tail the code defines
    r = parse_manifold(manifold).r
    alg = load_algebra(dump_algebra(build_algebra(base, manifold, cutoff, charges=[1] * r)))
    dim, m = alg.base.dim, len(alg.modes.modes)
    form_row, calls = GKMAlgebra.form_row, []
    monkeypatch.setattr(GKMAlgebra, "form_row", lambda *a: calls.append(1) or form_row(*a))
    killing, grading = killing_table_check(alg), grading_check(alg)
    assert killing.passed and killing.details["pairs"] == (dim * m) ** 2 + 6 * r * r
    assert len(calls) == 6 * r * r
    assert grading.passed and grading.details["bracket_pairs"] > 0


def _reference_row(alg: GKMAlgebra, i: int, j: int) -> tuple:
    """The T-T row of [X_i, X_j] summed with ``contract``, as the rows were built before blocks."""
    (_, a, I), (_, b, J) = alg.generator_of(i), alg.generator_of(j)
    acc: dict = {}
    scale = 1
    frow = int_row(alg.base.structure(a, b).items())
    if frow[1]:
        pden, pterms = alg.modes.product_row(I, J)

        def t_row(c: int) -> tuple:  # rho_I rho_J as a row of the generators T_cK
            return pden, [(alg.gen_id(("T", c, K)), d, n) for K, d, n in pterms]

        scale = contract(acc, scale, frow, t_row)
    gab = alg.base.killing_entry(a, b)
    if not gab.is_zero and alg.modes.eta(I)[0] == J:
        omegas = int_row(
            (alg.gen_id(("k", n)), alg.modes.cocycle_pairing(n, I, J)) for n in range(1, alg.r + 1)
        )
        scale = contract(acc, scale, int_row([(None, gab)]), lambda _: omegas)
    return lowest_row(scale, [(k, d, -n) for (k, d), n in acc.items() if n])


def _two_radicands(alg):
    # f_12^3 + sqrt 2 meets rho_(1,0)^2 = 1 + sqrt 2 at (2, 0): four terms, two keys
    f = alg.base.f
    f[(1, 2)][3] = f[(1, 2)][3] + SurdScalar.sqrt(2)
    f[(2, 1)][3] = f[(2, 1)][3] - SurdScalar.sqrt(2)
    alg.modes.products[((1, 0), (1, 0))][(2, 0)] = SurdScalar({1: 1, 2: 1})


def _unit_surd(alg):
    # f_12^3 = sqrt 2: one f term of numerator 1 whose products can share a factor with the den
    f = alg.base.f
    f[(1, 2)][3] = SurdScalar.sqrt(2)
    f[(2, 1)][3] = -SurdScalar.sqrt(2)


@pytest.mark.parametrize(
    "base,manifold,cutoff,tamper",
    [
        ("su2", "s3", 2, None),
        ("su3", "s2", 1, None),
        ("su2", "t2", 1, None),
        ("su2", "s2", 1, _two_radicands),
        ("su2", "s3", 2, _unit_surd),
    ],
    ids=["su2/s3/c2", "su3/s2/c1", "su2/t2/c1", "su2/s2/c1 two radicands", "su2/s3/c2 f=sqrt2"],
)
def test_block_rows_equal_the_contracted_rows(base, manifold, cutoff, tamper):
    alg = build_algebra(base, manifold, cutoff, charges=[1] * parse_manifold(manifold).r)
    if tamper is not None:
        tamper(alg)
    run_suites(alg, "all")
    ids = len(alg._gens)
    rows = [(i, j, row) for j, column in alg._pair_cache.items() for i, row in column.items()]
    kinds = [g[0] for g in alg._gens]
    tt = [(i, j, row) for i, j, row in rows if kinds[i] == kinds[j] == "T"]
    assert len(tt) > len(rows) // 2
    for i, j, row in tt:
        assert row == _reference_row(alg, i, j), (alg.generator_of(i), alg.generator_of(j))
    assert len(alg._gens) == ids  # the reference assigned no new generator ids
    if tamper is _two_radicands:  # the merged terms are there, once each
        row = alg.bracket_row(alg.gen_id(("T", 1, (1, 0))), alg.gen_id(("T", 2, (1, 0))))
        keys = [(k, d) for k, d, _ in row[1]]
        assert len(keys) == len(set(keys)) and (alg.gen_id(("T", 3, (2, 0))), 2) in keys


@pytest.mark.parametrize("phase", [-2, -1, 0, 1, 3])
def test_form_rows_follow_the_stored_eta_phase(phase):
    # <X_aI, X_bJ> = -g_ab * phase where eta(I) = (J, phase), by int_row on each pair's g_ab,
    # with a g entry of a denominator and two radicands, so a phase of 3 needs the gcd
    alg = build_algebra("su2", "s2", 2, charges=[1])
    g = [list(row) for row in alg.base.g]
    g[0][0] = SurdScalar({1: Fraction(2, 3), 3: Fraction(4, 9)})
    alg.base = dataclasses.replace(alg.base, g=tuple(map(tuple, g)))
    for I, (J, _) in list(alg.modes.eta_table.items()):
        alg.modes.eta_table[I] = (J, phase)
    ts = [(i, alg.generator_of(i)) for i in alg.generator_ids() if alg.generator_of(i)[0] == "T"]
    for i, (_, a, I) in ts:
        partner, stored = alg.modes.eta(I)
        for j, (_, b, J) in ts:
            expected = ZERO_ROW
            if partner == J and stored:
                expected = int_row([(None, alg.base.killing_entry(a, b))], -stored)
            assert alg.form_row(i, j) == expected, (I, J)


def test_a_tamper_below_double_precision_fails_with_the_same_witnesses():
    # 1/(2**61 - 1) added to one stored coefficient: the sums' scale must grow to carry it
    alg = build_algebra("su2", "s2", 2, charges=[1])
    _bump_product(Fraction(1, 2**61 - 1), (1, 1), (1, 1), (2, 2))(alg)
    result = associativity_check(alg.modes)
    assert (result.passed, result.details["triples"]) == (False, 61)
    assert result.witness == {"modes": [[1, -1], [1, 1], [1, 1]]}
    result = jacobi_check_gkm(alg)
    assert (result.passed, result.details["triples"]) == (False, 413)
    assert result.witness == {
        "generators": [T(1, (1, -1)), T(1, (1, 1)), T(2, (1, 1))],
        "component": T(2, (1, 1)),
        "value": "(1/11529215046068469755)√30",
    }


@pytest.mark.parametrize(
    "tamper,pairs,witness",
    [
        # an eta whose partners disagree fails the factor eta_involution, and no pair is read
        ("eta", None, {"factor": "eta_involution",
                       "witness": {"mode": [1, -1], "partner": [1, 1], "phases": [-1, 1]}}),
        # the D/k tail is read when the factors pass: 27^2 T-T pairs, then the first tail pair
        ("dk_pairing", 730, {"pair": ["('D', 1)", "('k', 1)"], "value": "2", "expected": "1"}),
    ],
)
def test_killing_table_catches_eta_and_dk_tampers(tamper, pairs, witness):
    alg = build_algebra("su2", "s2", 2, charges=[1])
    TAMPERS[tamper](alg)
    result = killing_table_check(alg)
    details = {} if pairs is None else {"pairs": pairs}
    assert (result.passed, result.details, result.witness) == (False, details, witness)


# one ordering of an in-cutoff product bumped, the other left alone: (I, J, K, delta)
# -> the modes of bracket_antisymmetry's failing factor product_commutativity (None:
# passed, with 435 pairs) on su2/s2/c2
ANTISYMMETRY_PINS = [
    (((1, 1), (1, 0), (2, 1), 1), [[1, 0], [1, 1]]),
    (((1, 1), (1, 0), (2, 1), SurdScalar({1: 1, 2: 1})), [[1, 0], [1, 1]]),
    (((1, 1), (1, 0), (2, 1), Fraction(1, 2**61 - 1)), [[1, 0], [1, 1]]),
    (((2, -1), (1, 1), (1, 0), SurdScalar.sqrt(3, Fraction(1, 7))), [[1, 1], [2, -1]]),
    # a square has one ordering, so the bump stays symmetric
    (((1, 1), (1, 1), (2, 2), 1), None),
]


@pytest.mark.parametrize(
    "tamper,modes",
    ANTISYMMETRY_PINS,
    ids=["one", "1+sqrt2", "below-double-precision", "another-pair", "square"],
)
def test_antisymmetry_tampers_keep_their_verdicts_counts_and_witnesses(tamper, modes):
    I, J, K, delta = tamper
    alg = build_algebra("su2", "s2", 2, charges=[1])
    _bump_product(delta, I, J, K)(alg)
    result = antisymmetry_check(alg)
    if modes is None:
        assert (result.passed, result.details, result.witness) == (True, {"pairs": 435}, None)
    else:
        witness = {"factor": "product_commutativity", "witness": {"modes": modes}}
        assert (result.passed, result.details, result.witness) == (False, {}, witness)


def _f_diagonal(alg):  # f_22^3 = 1, which no ordering can negate
    alg.base.f[(2, 2)] = {3: SURD_ONE}


def _g_one_ordering(alg):  # g_12 = 1 with g_21 left at 0
    g = [list(row) for row in alg.base.g]
    g[0][1] = SURD_ONE
    alg.base = dataclasses.replace(alg.base, g=tuple(map(tuple, g)))


# a tamper of each factor the antisymmetry check is decided on, on su2/s2/c2 -> the first
# factor that fails, in the order of verify._DERIVED, and that factor's witness
ANTISYMMETRY_FACTOR_PINS = {
    "f12 one ordering": (
        lambda alg: alg.base.f[(1, 2)].__setitem__(3, alg.base.f[(1, 2)][3] + 1),
        "base_tables",
        {"table": "f", "indices": [1, 2, 3], "stored": "2", "expected": "1"},
    ),
    # the numerators still negate each other, over denominators 1 and 2
    "f21 halved": (
        lambda alg: alg.base.f[(2, 1)].__setitem__(3, SurdScalar.rational(Fraction(-1, 2))),
        "base_tables",
        {"table": "f", "indices": [2, 1, 3], "stored": "-1/2", "expected": "-1"},
    ),
    "f22 diagonal": (
        _f_diagonal,
        "base_tables",
        {"table": "f", "indices": [2, 2, 3], "stored": "1", "expected": "0"},
    ),
    "g12 one ordering": (
        _g_one_ordering,
        "base_tables",
        {"table": "g", "indices": [1, 2], "stored": "1", "expected": "0"},
    ),
    "eta not involutive": (
        _set("eta_table", (1, 1), ((2, -1), -1)),
        "cocycle_antisymmetry",
        {"operator": 1, "modes": [[1, -1], [1, 1]], "omega_IJ": "1", "omega_JI": "undefined"},
    ),
    "eigen": (
        TAMPERS["eigen"],
        "cocycle_antisymmetry",
        {"operator": 1, "modes": [[1, -1], [1, 1]], "omega_IJ": "1", "omega_JI": "-2"},
    ),
}


@pytest.mark.parametrize("tamper", list(ANTISYMMETRY_FACTOR_PINS))
def test_a_factor_tamper_fails_antisymmetry_on_its_first_failing_factor(monkeypatch, tamper):
    edit, factor, witness = ANTISYMMETRY_FACTOR_PINS[tamper]
    alg = build_algebra("su2", "s2", 2, charges=[1])
    edit(alg)
    monkeypatch.setattr(GKMAlgebra, "_bracket_gens", lambda *a: pytest.fail("a row was built"))
    result = antisymmetry_check(alg)
    assert (result.passed, result.details) == (False, {})
    assert result.witness == {"factor": factor, "witness": witness}


# in-memory tampers of the factor tables, each failing a factor check some derived check needs
FACTOR_TAMPERS = {
    **{name: edit for name, (edit, _, _) in ANTISYMMETRY_FACTOR_PINS.items()},
    # eta_involution passes, cocycle_antisymmetry fails: I(j) phase + I(j) phase != 0
    "eta self-partnered": lambda alg: alg.modes.eta_table.update(
        {(1, 1): ((1, 1), 1), (1, -1): ((1, -1), 1)}
    ),
    # cocycle_antisymmetry passes on partners of equal eigenvalue and opposite phases, and
    # eta_involution fails
    "eta phases opposed": lambda alg: alg.modes.eta_table.update(
        {
            (1, 1): ((2, 1), 1),
            (2, 1): ((1, 1), -1),
            (1, -1): ((2, -1), 1),
            (2, -1): ((1, -1), -1),
        }
    ),
}


@pytest.mark.parametrize("tamper", list(FACTOR_TAMPERS))
def test_a_factor_tamper_fails_each_derived_check_on_its_first_failing_factor(tamper):
    alg = build_algebra("su2", "s2", 2, charges=[1])
    FACTOR_TAMPERS[tamper](alg)
    report = {c.name: c for c in run_suites(alg, "all", budget=50, oracle_samples=5).checks}
    alone = {name: check(alg) for name, check in _FACTOR_CHECKS.items()}
    derived_failed = 0
    for name, (factors, _) in _DERIVED.items():
        failing = [f for f in factors if not alone[f].passed]
        derived_failed += bool(failing)
        witness = {"factor": failing[0], "witness": alone[failing[0]].witness} if failing else None
        for result in (report[name.format("su2")], verify._derived(name, alg, None)):
            assert (result.passed, result.witness) == (not failing, witness), name
    assert derived_failed
@pytest.mark.parametrize("tamper", ["eta", "dk_pairing"])
def test_sampled_invariance_equals_the_drawn_triples_summed(tamper, dense_invariance):
    # both tampers make the form asymmetric, so a sampled check must read <w, z> and <y, w>
    # in that order, as the exhaustive check does
    alg = build_algebra("su2", "s2", 2, charges=[1])
    TAMPERS[tamper](alg)
    population = Combinations(alg.generator_ids(), 2, repeats=True, lead=True)
    result = invariance_check(alg, sample=3000, seed=5)
    assert result.regime == "sampled" and not result.passed
    drawn = sample_items(population, 3000, 5)
    assert (result.passed, result.details, result.witness) == dense_invariance(alg, drawn)


@pytest.mark.parametrize("base,manifold,cutoff", [("su2", "s3", 2), ("su3", "s2", 1)])
def test_a_passing_antisymmetry_check_builds_no_row_and_does_no_fraction_arithmetic(
    monkeypatch, base, manifold, cutoff
):
    alg = build_algebra(base, manifold, cutoff, charges=[1] * parse_manifold(manifold).r)

    def forbidden(*args):
        raise AssertionError("a bracket row built or Fraction arithmetic done")

    monkeypatch.setattr(GKMAlgebra, "_bracket_gens", forbidden)
    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, forbidden)
    result = antisymmetry_check(alg)
    n = len(alg.generator_ids())
    assert result.passed and result.details["pairs"] == n * (n + 1) // 2


def test_generator_checks_read_only_the_bracket_rows(monkeypatch):
    alg = build_algebra("su2", "t2", 1, charges=[1, 1])
    tampered = build_algebra("su2", "s2", 2, charges=[1])
    GRADING_TAMPERS["eta"](tampered)

    def forbidden(*args):
        raise AssertionError("a generator-level check built a GKMElement bracket or pairing")

    names = ("bracket", "bracket_generators", "killing", "killing_generators")
    for name in (*names, "root_space", "vector_element"):
        monkeypatch.setattr(GKMAlgebra, name, forbidden)
    report = run_suites(alg, "all")
    assert all(check.passed for check in report.checks)
    result = grading_check(tampered)
    assert not result.passed and result.witness["factor"] == "cocycle_antisymmetry"


@pytest.mark.parametrize(
    "base,manifold,rows,digest",
    [
        ("su2", "s2", 114, "43d739d9c353ac9ae13d6b6517bf9535924be0e3621fdc610275b99ed9671c25"),
        ("su3", "t1", 498, "e48bec1ef1a5ce8cb2cab77032b4bbb3c1af47fb3884a37125653f8bfa7d0d30"),
        ("su2", "s3", 210, "570a1d016ee73c92d00f6d954262ed4b4cf74391e0fc021cd5f3aa95777e6fd1"),
    ],
)
def test_bracket_table_matches_the_t_basis_construction(base, manifold, rows, digest):
    # digests of the bracket tables built directly in the T basis with
    # ComplexSurd coefficients; the view over the X-basis rows must match them
    alg = build_algebra(base, manifold, 1, charges=[1] * parse_manifold(manifold).r)
    table = dump_algebra(alg, include_brackets=True)["brackets"]
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    assert (len(table), hashlib.sha256(text.encode()).hexdigest()) == (rows, digest)


def _bump_structure(a, b, c):
    def tamper(alg):
        f = alg.base.f
        f[(a, b)][c] = f[(a, b)].get(c, SURD_ZERO) + 1
        f[(b, a)][c] = f[(b, a)].get(c, SURD_ZERO) - 1

    return tamper


def _double_first_f12(alg):
    row = alg.base.f[(1, 2)]
    c = next(iter(row))
    row[c] = row[c] * 2  # f is no longer antisymmetric


def _product_mode(value):
    return lambda alg: alg.modes.products[((1, 0), (1, 0))].__setitem__((1, 1), value)


GRADING_TAMPERS = {
    "product": _product_mode(SurdScalar.rational(1)),
    "product+(1+sqrt2)": _product_mode(SurdScalar({1: 1, 2: 1})),
    "eta": _set("eta_table", (1, 1), ((1, 1), 1)),
    "f13": _bump_structure(1, 3, 3),
    "f12": _bump_structure(1, 2, 4),
    "f45": _bump_structure(4, 5, 3),
    "f12 doubled": _double_first_f12,
    "eigen": _set("eigen_table", (1, 1), (2,)),
}
# grading reports the drift of the eigen tamper, and base_tables the f entry
GRADING_TAMPERS["f13 and eigen"] = lambda alg: [GRADING_TAMPERS[t](alg) for t in ("f13", "eigen")]
# -> grading's item count on a pass, or the first of its factors to fail, in the order of
# verify._DERIVED: its witness is that factor's own
GRADING_PINS = [
    ("su2", 2, None, 393, None),
    ("su2", 2, "product", None, "eigen_additivity"),
    ("su2", 2, "product+(1+sqrt2)", None, "eigen_additivity"),
    ("su2", 2, "eta", None, "cocycle_antisymmetry"),
    ("su2", 2, "eigen", None, "eigen_additivity"),
    ("su3", 1, None, 542, None),
    ("su3", 1, "product", None, "eigen_additivity"),
    ("su3", 1, "product+(1+sqrt2)", None, "eigen_additivity"),
    ("su3", 1, "eta", None, "cocycle_antisymmetry"),
    ("su3", 1, "eigen", None, "eigen_additivity"),
    # grading reads none of the base tables: an f tamper passes it with the full count and
    # fails base_tables (BASE_TABLES_PINS)
    ("su2", 2, "f13", 393, None),
    ("su2", 2, "f12 doubled", 393, None),
    ("su2", 2, "f13 and eigen", None, "eigen_additivity"),
    ("su3", 1, "f12 doubled", 542, None),
    ("su3", 1, "f12", 542, None),
    ("su3", 1, "f45", 542, None),
    ("su3", 1, "f13 and eigen", None, "eigen_additivity"),
]


@pytest.mark.parametrize("base,cutoff,tamper,pairs,factor", GRADING_PINS)
def test_grading_tampers_keep_their_verdicts_counts_and_witnesses(
    base, cutoff, tamper, pairs, factor
):
    alg = build_algebra(base, "s2", cutoff, charges=[1])
    if tamper is not None:
        GRADING_TAMPERS[tamper](alg)
        alg._pair_cache.clear()
    result = grading_check(alg)
    if factor is None:
        assert result.passed and result.details["bracket_pairs"] == pairs
    else:
        witness = {"factor": factor, "witness": _FACTOR_CHECKS[factor](alg).witness}
        assert (result.passed, result.details, result.witness) == (False, {}, witness)


BASE_TABLES_PINS = [
    ("su2", "f13", [1, 3, 3], "1", "0"),
    ("su2", "f12 doubled", [1, 2, 3], "2", "1"),
    ("su2", "f13 and eigen", [1, 3, 3], "1", "0"),
    ("su3", "f13", [1, 3, 3], "1", "0"),
    ("su3", "f12", [1, 2, 4], "1", "0"),
    ("su3", "f45", [4, 5, 3], "3/2", "1/2"),
    ("su3", "f12 doubled", [1, 2, 3], "2", "1"),
    ("su3", "f13 and eigen", [1, 3, 3], "1", "0"),
]


@pytest.mark.parametrize("base,tamper,indices,stored,expected", BASE_TABLES_PINS)
def test_base_tables_witnesses_the_first_edited_f_entry(base, tamper, indices, stored, expected):
    alg = build_algebra(base, "s2", 1, charges=[1])
    GRADING_TAMPERS[tamper](alg)
    result = base_tables_check(alg)
    assert not result.passed
    witness = {"table": "f", "indices": indices, "stored": stored, "expected": expected}
    assert result.witness == witness


def test_base_tables_compares_every_entry_of_the_named_tables():
    for name, entries in (("su2", 9), ("su3", 62), ("u1^3", 0)):
        manifold = "t1" if name.startswith("u1") else "s2"
        result = base_tables_check(build_algebra(name, manifold, 1, charges=[1]))
        assert (result.passed, result.details) == (True, {"entries": entries}), name
    alg = build_algebra("su3", "s2", 1, charges=[1])
    g = [list(row) for row in alg.base.g]
    g[7][7] = SurdScalar.rational(4)
    alg = dataclasses.replace(alg, base=dataclasses.replace(alg.base, g=tuple(map(tuple, g))))
    result = base_tables_check(alg)
    assert result.witness == {"table": "g", "indices": [8, 8], "stored": "4", "expected": "3"}


@pytest.mark.parametrize(
    "base,witness",
    [
        (FiniteAlgebra("u2", 1, {}, ((SURD_ZERO,),)), {"name": "u2"}),
        (FiniteAlgebra("u1^2", 3, {}, ((SURD_ZERO,) * 3,) * 3),
         {"table": "dim", "stored": 3, "expected": 2}),
        (FiniteAlgebra("u1^2", 2, {}, ((SURD_ONE, SURD_ZERO), (SURD_ZERO, SURD_ZERO))),
         {"table": "g", "indices": [1, 1], "stored": "1", "expected": "0"}),
    ],
    ids=["unknown name", "dim", "u1 metric"],
)
def test_base_tables_fails_an_abelian_base_that_is_not_its_name(base, witness):
    result = base_tables_check(build_algebra(base, "t1", 1, charges=[1]))
    assert (result.passed, result.witness) == (False, witness)


@pytest.mark.parametrize(
    "tamper,factor",
    [
        # [x rho_I, y rho_J] has the central part <x, y> eta_IJ sum_j I(j) k_j: an eta
        # pairing modes of unequal eigenvalue adds nothing when I(j) = 0 or the phase is 0
        (_set("eta_table", (1, 0), ((1, 1), 1)), "cocycle_antisymmetry"),
        (_set("eta_table", (1, 1), ((1, 1), 0)), "cocycle_antisymmetry"),
        # a product entry stored as zero adds no mode, whatever its eigenvalue
        (_product_mode(SURD_ZERO), None),
    ],
    ids=["eta to a zero eigenvalue", "eta phase 0", "zero product entry"],
)
def test_a_tamper_that_adds_nothing_to_a_bracket_fails_grading_only_on_a_factor(
    reference_walk, tamper, factor
):
    alg = build_algebra("su2", "s2", 1, charges=[1])
    tamper(alg)
    assert reference_walk("grading", alg).passed  # every item lands in its root space
    result = grading_check(alg)
    assert (result.passed, (result.witness or {}).get("factor")) == (factor is None, factor)


# the agreement is between the grading rules and elements built on the named tables,
# so it takes the tampers that leave f and g alone
GRADING_AGREEMENT_TAMPERS = [
    (base, "s2", tamper)
    for base in ("su2", "su3")
    for tamper in GRADING_TAMPERS
    if not tamper.startswith("f")
]


def _replayed_witness(alg: GKMAlgebra, w: GKMElement, target_root, target_eigen):
    """The witness for an element ``w`` outside the target root space, else None.

    The element-level reference for the grading check's factor witnesses: the
    bracket summed on T-basis ``GKMElement``s, its central part first, then
    each mode of its T part in order.
    """
    zero_root = tuple(Fraction(0) for _ in alg.cw.roots[0])
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
        if target_root in alg.cw.root_vectors:
            basis = [alg.cw.root_vectors[target_root]]
        elif target_root == zero_root:
            basis = list(alg.cw.cartan)
        else:
            return {"mode": list(K), "kind": "bracket outside the root system"}
        if coefficients_in_span(vec, basis) is None:
            return {"mode": list(K), "kind": "base part outside expected root line"}
    return None


@pytest.mark.parametrize(
    "base,manifold,tamper",
    [
        ("su2", "s2", None),
        ("su3", "t1", None),
        ("su2", "s3", None),
        ("su2", "t2", None),
        ("su2", "s3-integer", None),
        *GRADING_AGREEMENT_TAMPERS,
    ],
)
def test_grading_rows_agree_with_elements_on_every_pair(grading_items, base, manifold, tamper):
    alg = build_algebra(base, manifold, 1, charges=[1] * parse_manifold(manifold).r)
    if tamper is not None:
        GRADING_TAMPERS[tamper](alg)
    spaces, cw = _root_spaces(alg), alg.cw
    elements = {label: alg.root_space(*label) for label in alg.root_space_labels()}
    assert elements == {
        (alpha, n): [
            alg.vector_element(cw.root_vectors[alpha] if k is None else cw.cartan[k], I)
            for k, I in basis
        ]
        for (alpha, n), basis in spaces.items()
    }
    replayed = []
    for ((alpha, m), us), ((beta, n), vs) in itertools.combinations_with_replacement(
        elements.items(), 2
    ):
        root = tuple(x + y for x, y in zip(alpha, beta))
        eigen = tuple(x + y for x, y in zip(m, n))
        for u, v in itertools.product(us, vs):
            witness = _replayed_witness(alg, alg.bracket(u, v), root, eigen)
            replayed.append((alpha, m, beta, n, witness))
    items = list(grading_items(alg, spaces))
    assert items == replayed
    verdicts = {witness is None for *_, witness in items}
    assert verdicts == ({True} if tamper is None else {True, False})
