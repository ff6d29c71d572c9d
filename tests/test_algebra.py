from fractions import Fraction

import pytest

from gkmalg.algebra import build_algebra
from gkmalg.scalars import ComplexSurd, SurdScalar
from gkmalg.verify import (
    Combinations,
    antisymmetry_check,
    cocycle_antisymmetry_check,
    grading_check,
    invariance_check,
    jacobi_check_gkm,
    killing_consistency_check,
    killing_table_check,
    oracle_agreement_check,
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


@pytest.mark.parametrize("k,repeats,lead", [(3, False, False), (3, True, False), (2, True, True)])
def test_sampler_draws_from_the_exhaustive_population(k, repeats, lead):
    population = Combinations([f"g{i}" for i in range(7)], k, repeats=repeats, lead=lead)
    exhaustive = list(population)
    assert len(exhaustive) == len(population)
    assert [population[i] for i in range(len(population))] == exhaustive
    for count in (len(population), len(population) + 5):
        assert sorted(sample_items(population, count, seed=3)) == sorted(exhaustive)
    drawn = list(sample_items(population, 20, seed=3))
    assert len(set(drawn)) == 20 and set(drawn) <= set(exhaustive)
    assert drawn == list(sample_items(population, 20, seed=3))


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
    assert result.witness["kind"] == "eigenvalue drift"


def test_cocycle_antisymmetry_and_fault():
    alg = build_algebra("su2", "s2", 2, charges=[1])
    assert cocycle_antisymmetry_check(alg).passed
    alg.modes.eta_table[(1, 1)] = ((1, -1), 1)  # flip the phase one way only
    result = cocycle_antisymmetry_check(alg)
    assert not result.passed
    assert result.witness["operator"] == 1


def test_invariance_exhaustive_and_dk_fault():
    alg = build_algebra("su2", "t1", 1, charges=[1])
    assert invariance_check(alg, sample="all").passed
    # setting <D, k> = 0 must break invariance on (T, T, D) triples
    alg.dk_pairing = ((Fraction(0),),)
    result = invariance_check(alg, sample="all")
    assert not result.passed
    gens = result.witness["generators"]
    assert any("'D'" in g for g in gens)


def test_invariance_su3():
    alg = build_algebra("su3", "t1", 1, charges=[1])
    assert invariance_check(alg, sample=800, seed=3).passed


def test_hierarchy_pass_and_negative():
    assert torus_hierarchy_check(2, 2, base="su2").passed
    assert torus_hierarchy_check(3, 1, base="su2").passed
    assert torus_hierarchy_check(3, 1, base="u1").passed
    bad = torus_hierarchy_check(2, 2, base="su2", embed_suffix=(1,))
    assert not bad.passed
    with pytest.raises(ValueError):
        torus_hierarchy_check(1, 2)


def test_oracle_agreement_and_fault():
    alg = build_algebra("su2", "s2", 1, charges=[1])
    assert oracle_agreement_check(alg, samples=1000, seed=0).passed
    alg.modes.products[((1, 0), (1, 0))][(2, 0)] = SurdScalar.sqrt(5, Fraction(4, 5))
    result = oracle_agreement_check(alg, samples=1000, seed=0)
    assert not result.passed
    assert result.witness["quantity"] == "product"


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
