"""Fixtures shared by more than one test module."""

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest

from gkmalg.liealg import jacobi_check_finite, killing_form
from gkmalg.report import CheckFailed, checking
from gkmalg.verify import (
    _columns,
    _eigen_ints,
    _killing_expected,
    _killing_tail,
    _root_spaces,
    _scaled,
)


def _triple_witness(alg, form, ids, left, right):
    """The witness of the invariance sum of ``ids`` = (x, y, z), summed in Fractions from the
    rows ``left`` of [x, y] and ``right`` of [x, z], or None when the sum is 0."""
    x, y, z = ids
    total: dict = {}
    for (den, terms), pair in ((left, lambda w: form(w, z)), (right, lambda w: form(y, w))):
        for w, d1, n1 in terms:
            fden, fterms = pair(w)
            for _, d2, n2 in fterms:
                g = gcd(d1, d2)  # sqrt(d1) sqrt(d2) = g sqrt(d1 d2 / g^2)
                d = d1 // g * (d2 // g)
                total[d] = total.get(d, 0) + Fraction(n1 * n2 * g, den * fden)
    if not any(total.values()):
        return None
    scale = lcm(*(c.denominator for c in total.values()))
    value = alg._t_value(scale, {d: int(c * scale) for d, c in total.items()}, ids)
    return {"generators": [repr(alg.generator_of(i)) for i in ids], "value": str(value)}


def _dense_invariance(alg, triples=None):
    """``(passed, details, witness)`` of invariance with each triple summed in order, in Fractions.

    ``triples`` are the triples to sum, by default every triple of the population in order.
    """
    ids = alg.generator_ids()
    population = len(ids) * len(ids) * (len(ids) + 1) // 2
    form = functools.cache(alg.form_row)
    count = 0
    if triples is not None:
        for count, (x, y, z) in enumerate(triples, 1):
            witness = _triple_witness(alg, form, (x, y, z), alg.bracket_row(x, y), alg.bracket_row(x, z))
            if witness:
                return False, {"population": population, "triples": count}, witness
        return True, {"population": population, "triples": count}, None
    for x in ids:
        rows = [alg.bracket_row(x, v) for v in ids]
        for y, z in itertools.combinations_with_replacement(ids, 2):
            count += 1
            if not (rows[y][1] or rows[z][1]):
                continue  # both sums are empty
            witness = _triple_witness(alg, form, (x, y, z), rows[y], rows[z])
            if witness:
                return False, {"population": population, "triples": count}, witness
    return True, {"population": population, "triples": population}, None


@pytest.fixture()
def dense_invariance():
    """The invariance check as a reference: every triple of the population summed, in order.

    Gives ``(passed, details, witness)`` as ``invariance_check(alg, sample="all")``
    reports them, from the same bracket and form rows but with no triple skipped; given
    the triples a sampled check draws, as that check reports them.
    """
    return _dense_invariance


# -- the derived checks walked item by item, as references ---------------------------
#
# Each walk checks every item of a check derived from factor checks in order, tallied
# into ``result``.  The package decides these checks from their factors; the walks give
# the verdict and count a check of every item reaches, where its factors pass.


def _antisymmetry_walk(alg, result):
    """Compare every generator id pair's two rows in order."""
    row = _columns(alg)
    pairs = itertools.combinations_with_replacement(alg.generator_ids(), 2)
    for x, y in result.tally("pairs", pairs):
        # rows are in lowest terms with unique keys: [x, y] = -[y, x] term by term
        (den, terms), (rden, rterms) = row[y](x), row[x](y)
        negated = {(w, d): -n for w, d, n in terms}
        if den != rden or negated != {(w, d): n for w, d, n in rterms}:
            gens = (alg.generator_of(x), alg.generator_of(y))
            raise CheckFailed({"generators": [repr(g) for g in gens]})


def _killing_consistency_walk(alg, result):
    """Compare every entry of the stored g with the trace form of the stored f, in order."""
    base = alg.base
    recomputed = killing_form(base.f, base.dim)
    for a in range(base.dim):
        for b in range(base.dim):
            if recomputed[a][b] != base.g[a][b]:
                values = {"stored": str(base.g[a][b]), "recomputed": str(recomputed[a][b])}
                raise CheckFailed({"indices": [a + 1, b + 1], **values})
    result.details["dim"] = base.dim


def _killing_table_walk(alg, result):
    """Check every generator id pair of the pairing table in order: the T-T pairs against
    their transposes, then the D/k tail."""
    m, dims = len(alg.modes.modes), range(alg.base.dim)
    tt = (
        (a * m + I, b * m + J)
        for a, b, I, J in itertools.product(dims, dims, range(m), range(m))
    )
    for i, j in result.tally("pairs", itertools.chain(tt, _killing_tail(alg))):
        got = alg.form_row(i, j)
        if alg.generator_of(i)[0] == "T":
            expected = alg.form_row(j, i)
        else:
            expected = _killing_expected(alg, i, j)
        if got != expected:
            value, wanted = (
                str(alg._t_value(den, {d: n for _, d, n in terms}, (i, j)))
                for den, terms in (got, expected)
            )
            gens = (alg.generator_of(i), alg.generator_of(j))
            raise CheckFailed({"pair": [repr(g) for g in gens], "value": value, "expected": wanted})


def _grading_walk(alg, result):
    """Check every item of :func:`_grading_items` in order."""
    spaces = _root_spaces(alg)
    for alpha, m, beta, n, witness in result.tally("bracket_pairs", _grading_items(alg, spaces)):
        if witness is not None:
            labels = {"alpha": alpha, "m": m, "beta": beta, "n": n}
            witness.update({key: [str(x) for x in v] for key, v in labels.items()})
            raise CheckFailed(witness)
    result.details["labels"] = len(spaces)


def _mode_part(ms, I, J, eig):
    """``(drift, j)`` for modes I, J: the first nonzero K of rho_I rho_J whose int eigenvalues
    ``eig`` are not I's plus J's, and the first j whose cocycle factor omega_j(rho_I, rho_J) =
    I(j) eta_IJ is nonzero; each None where there is none."""
    target = tuple(a + b for a, b in zip(eig[I], eig[J]))
    products = ms.product(I, J).items()
    drift = next((K for K, c in products if not c.is_zero and eig[K] != target), None)
    partner, phase = ms.eta(I)
    js = (j for j in range(1, ms.r + 1) if partner == J and phase and eig[I][j - 1])
    return drift, next(js, None)


def _grading_items(alg, spaces):
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


_WALKS = {
    "killing_consistency": _killing_consistency_walk,
    "killing_table": _killing_table_walk,
    "grading": _grading_walk,
    "bracket_antisymmetry": _antisymmetry_walk,
}


def _reference_walk(name, alg):
    """The walk of the derived check ``name``, a key of ``verify._DERIVED``, on ``alg``."""
    if name == "jacobi_finite[{}]":
        return jacobi_check_finite(alg.base.f, alg.base.dim, alg.base.name)
    with checking(name) as result:
        _WALKS[name](alg, result)
    return result


@pytest.fixture()
def reference_walk():
    """``reference_walk(name, alg)``: the derived check ``name`` (a key of
    ``verify._DERIVED``) walked item by item, the result a check of every item gives."""
    return _reference_walk


@pytest.fixture()
def grading_items():
    """``grading_items(alg, spaces)``: every item of the grading walk, with its witness."""
    return _grading_items
