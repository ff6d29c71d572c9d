import itertools
from fractions import Fraction

import numpy as np
import pytest

import gkmalg.liealg
from gkmalg.algebra import build_algebra
from gkmalg.liealg import (
    FiniteAlgebra,
    cartan_weyl,
    coefficients_in_span,
    jacobi_check_finite,
    killing_form,
    make_algebra,
)
from gkmalg.scalars import CSURD_ZERO, ComplexSurd, SurdScalar
from gkmalg.serialize import dump_algebra, load_algebra
from gkmalg.verify import run_suites

# defining 3x3 matrices of the standard traceless Hermitean basis, used to
# re-derive the su(3) structure constants independently
_L = np.zeros((9, 3, 3), dtype=complex)
_L[1] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
_L[2] = [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]
_L[3] = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
_L[4] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
_L[5] = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
_L[6] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
_L[7] = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
_L[8] = np.diag([1, 1, -2]) / np.sqrt(3)


def _su3_f_numeric(a, b, c):
    # [T_a, T_b] = i f_ab^c T_c with T = lambda/2 and Tr(l_a l_b) = 2 delta
    ta, tb, tc = _L[a] / 2, _L[b] / 2, _L[c] / 2
    comm = ta @ tb - tb @ ta
    return float(np.real_if_close(np.trace(comm @ tc) * 2 / 1j))


def test_su2_structure():
    su2 = make_algebra("su2")
    assert su2.dim == 3
    assert su2.structure(1, 2)[3] == SurdScalar.rational(1)
    assert su2.structure(2, 1)[3] == SurdScalar.rational(-1)
    for a in range(3):
        for b in range(3):
            assert su2.g[a][b] == SurdScalar.rational(2 if a == b else 0)


def test_u1n():
    alg = make_algebra("u1^2")
    assert alg.dim == 2 and alg.is_abelian
    assert all(v.is_zero for row in alg.g for v in row)
    assert make_algebra("u1").dim == 1
    with pytest.raises(ValueError):
        make_algebra("so5")


def test_su3_against_matrix_oracle():
    su3 = make_algebra("su3")
    assert su3.dim == 8
    assert su3.structure(1, 2)[3] == SurdScalar.rational(1)
    assert su3.structure(4, 5)[8] == SurdScalar.sqrt(3, Fraction(1, 2))
    for a in range(1, 9):
        for b in range(1, 9):
            row = su3.structure(a, b)
            for c in range(1, 9):
                exact = float(row.get(c, SurdScalar())) if row else 0.0
                assert exact == pytest.approx(_su3_f_numeric(a, b, c), abs=1e-12)


def test_killing_form_values():
    su3 = make_algebra("su3")
    for a in range(8):
        for b in range(8):
            assert su3.g[a][b] == SurdScalar.rational(3 if a == b else 0)
    assert killing_form({}, 2) == ((SurdScalar(),) * 2,) * 2


def test_make_algebra_shares_g_and_hands_out_a_fresh_f():
    for name in ("su2", "su3"):
        first, second = make_algebra(name), make_algebra(name)
        assert first.g == second.g == killing_form(second.f, second.dim)
        first.f[(1, 2)][3] = first.f[(1, 2)][3] * 2  # a tamper of one result's f, in place
        del first.f[(2, 1)]
        assert make_algebra(name).f == second.f
        assert make_algebra(name).structure(1, 2)[3] == SurdScalar.rational(1)


def test_killing_ad_invariance():
    # g([x,y],z) + g(y,[x,z]) = 0 on all basis triples
    for name in ("su2", "su3"):
        alg = make_algebra(name)
        dim = alg.dim

        def basis(a):
            vec = [CSURD_ZERO] * dim
            vec[a] = ComplexSurd.rational(1)
            return tuple(vec)

        for a, b, c in itertools.product(range(dim), repeat=3):
            x, y, z = basis(a), basis(b), basis(c)
            total = alg.killing_vectors(alg.bracket_vectors(x, y), z) + alg.killing_vectors(
                y, alg.bracket_vectors(x, z)
            )
            assert total.is_zero, (name, a, b, c)


def test_jacobi_check_passes_and_fails():
    su2 = make_algebra("su2")
    su3 = make_algebra("su3")
    assert jacobi_check_finite(su2.f, 3).passed
    assert jacobi_check_finite(su3.f, 8).passed
    broken = {k: dict(v) for k, v in su2.f.items()}
    broken[(1, 2)] = {3: SurdScalar.rational(2)}
    result = jacobi_check_finite(broken, 3, "broken")
    assert not result.passed
    assert result.witness["indices"][:3] == [1, 2, 3]
    # an antisymmetric but genuinely non-Jacobi tensor must fail the cyclic sum
    su3 = make_algebra("su3")
    tampered = {k: dict(v) for k, v in su3.f.items()}
    tampered[(1, 4)] = {7: SurdScalar.rational(1)}
    tampered[(4, 1)] = {7: SurdScalar.rational(-1)}
    result = jacobi_check_finite(tampered, 8, "tampered")
    assert not result.passed and result.witness.get("kind") != "antisymmetry"


# su3 tampers (p, q, r, v), each setting f_pq^r = v and f_qp^r = -v, and the
# whole witness each fails with.  In the last two the running sum of index 5
# (resp. 2) returns to zero and becomes nonzero again before a second index,
# 1, turns nonzero, so the pins fix which of two failing indices is named.
JACOBI_WITNESS_PINS = [
    ([(1, 4, 7, 1)], {"indices": [1, 2, 4, 5], "value": "-1/4"}),
    ([(1, 4, 3, -1), (1, 6, 5, 1)], {"indices": [1, 2, 4, 5], "value": "-1/4"}),
    ([(5, 7, 2, 1), (4, 6, 1, 1)], {"indices": [1, 4, 5, 2], "value": "-1/4"}),
]


@pytest.mark.parametrize("entries, witness", JACOBI_WITNESS_PINS)
def test_jacobi_check_pins_the_whole_witness(entries, witness):
    tampered = {k: dict(v) for k, v in make_algebra("su3").f.items()}
    for p, q, r, v in entries:
        tampered.setdefault((p, q), {})[r] = SurdScalar.rational(v)
        tampered.setdefault((q, p), {})[r] = SurdScalar.rational(-v)
    result = jacobi_check_finite(tampered, 8)
    assert not result.passed
    assert result.witness == witness


def _assert_cartan_weyl(alg, rank):
    """The five relations of the Cartan-Weyl data of ``alg``, exactly."""
    cw = cartan_weyl(alg)
    assert cw.rank == rank and len(cw.roots) + rank == alg.dim
    for root in cw.roots:
        neg_root = tuple(-x for x in root)
        assert neg_root in cw.roots
        evec = cw.root_vectors[root]
        for i, h in enumerate(cw.cartan):
            # [H^i, E_alpha] = alpha_i E_alpha
            assert alg.bracket_vectors(h, evec) == tuple(v * root[i] for v in evec)
        neg = cw.root_vectors[neg_root]
        assert alg.killing_vectors(evec, neg) == ComplexSurd.rational(1)
        assert coefficients_in_span(alg.bracket_vectors(evec, neg), list(cw.cartan)) is not None
    return cw


def test_cartan_weyl_su2():
    cw = _assert_cartan_weyl(make_algebra("su2"), 1)
    assert set(cw.roots) == {(Fraction(1),), (Fraction(-1),)}


def test_cartan_weyl_su3():
    _assert_cartan_weyl(make_algebra("su3"), 2)


def test_cartan_weyl_refuses_tables_other_than_the_named_ones():
    # doubled f with its own trace form: [H, E_alpha] = 2 alpha E_alpha, <E_alpha, E_-alpha> = 4
    su2 = make_algebra("su2")
    doubled = {key: {c: v * 2 for c, v in row.items()} for key, row in su2.f.items()}
    alg = FiniteAlgebra(name="su2", dim=3, f=doubled, g=killing_form(doubled, 3))
    assert jacobi_check_finite(alg.f, alg.dim).passed
    with pytest.raises(ValueError, match="differ from its standard tables"):
        cartan_weyl(alg)


def test_an_algebra_equal_to_the_named_one_builds_and_verifies():
    su2 = make_algebra("su2")
    copied = FiniteAlgebra(
        name="su2", dim=3, f={key: dict(row) for key, row in su2.f.items()}, g=su2.g
    )
    assert copied == su2 and copied is not su2
    alg = build_algebra(copied, "s2", 1, charges=[1])
    assert run_suites(alg, "all").passed


def test_build_and_load_prove_no_base_table_again(monkeypatch):
    # the constant tables are proven by the tests above, not by each build, load or verify
    def forbidden(*args, **kwargs):
        raise AssertionError("the constant base tables were proven again")

    monkeypatch.setattr(gkmalg.liealg, "jacobi_check_finite", forbidden)
    for name in ("bracket_vectors", "killing_vectors"):
        monkeypatch.setattr(FiniteAlgebra, name, forbidden)
    loaded = load_algebra(dump_algebra(build_algebra("su3", "s2", 1, charges=[1])))
    # verify holds its own reference, so the suites still check the algebra under test
    report = run_suites(loaded, "all")
    checks = {c.name: c for c in report.checks}
    assert checks["jacobi_finite[su3]"].passed and report.passed


@pytest.mark.parametrize("name,trace", [("su2", [[2]]), ("su3", [[3, 0], [0, 4]])])
def test_the_root_grading_the_grading_check_reads(name, trace):
    """[g_a, g_b] lies in g_(a+b), and the bracket and trace form follow the root rules.

    On every pair of Cartan-Weyl basis vectors, against the vector references:
    [E_a, E_b] != 0 exactly when a+b is a root or 0, [H^k, E_b] != 0 exactly
    when b_k != 0, [H^k, H^l] = 0; <E_a, E_b> = delta_(a+b,0), <H, E> = 0 and
    <H^k, H^l> = sum_gamma gamma_k gamma_l.
    """
    alg = make_algebra(name)
    cw = cartan_weyl(alg)
    zero = (Fraction(0),) * cw.rank
    ranks = range(cw.rank)
    assert [[sum(g[k] * g[l] for g in cw.roots) for l in ranks] for k in ranks] == trace
    basis = [(a, None, cw.root_vectors[a]) for a in cw.roots]
    basis += [(zero, k, h) for k, h in enumerate(cw.cartan)]
    for (alpha, k, x), (beta, l, y) in itertools.product(basis, repeat=2):
        target = tuple(a + b for a, b in zip(alpha, beta))
        if k is None and l is None:
            bracketed, pairing = target in cw.root_vectors or target == zero, int(target == zero)
        elif k is None or l is None:
            bracketed, pairing = (alpha[l] if k is None else beta[k]) != 0, 0
        else:
            bracketed, pairing = False, trace[k][l]
        w = alg.bracket_vectors(x, y)
        assert any(not c.is_zero for c in w) == bracketed, (alpha, k, beta, l)
        space = [cw.root_vectors[target]] if target in cw.root_vectors else []
        assert coefficients_in_span(w, list(cw.cartan) if target == zero else space) is not None
        assert alg.killing_vectors(x, y) == ComplexSurd.rational(pairing), (alpha, k, beta, l)


def test_cartan_weyl_rejects_abelian():
    with pytest.raises(ValueError):
        cartan_weyl(make_algebra("u1^2"))
