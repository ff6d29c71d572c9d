"""Fixtures shared by more than one test module."""

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest

from gkmalg.liealg import jacobi_check_finite
from gkmalg.report import checking
from gkmalg.verify import (
    _antisymmetry_walk,
    _grading_walk,
    _jacobi_finite,
    _killing_consistency_walk,
    _killing_table_walk,
    antisymmetry_check,
    grading_check,
    killing_consistency_check,
    killing_table_check,
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


@pytest.fixture()
def walked():
    """A check's per-item walk as a reference: ``walked(name, walk, alg)`` is the result
    the walk gives when called directly under the check's harness."""

    def run(name, walk, alg):
        with checking(name) as result:
            walk(alg, result)
        return result

    return run


@pytest.fixture()
def derived_and_walked(walked):
    """``derived_and_walked(alg)``: each check derived from factor checks, by report name ->
    ``(the check called alone, its walk's result)``."""

    def run(alg):
        finite = jacobi_check_finite(alg.base.f, alg.base.dim, alg.base.name)
        derived = {finite.name: (_jacobi_finite(alg, None), finite)}
        for name, check, walk in (
            ("killing_consistency", killing_consistency_check, _killing_consistency_walk),
            ("killing_table", killing_table_check, _killing_table_walk),
            ("grading", grading_check, _grading_walk),
            ("bracket_antisymmetry", antisymmetry_check, _antisymmetry_walk),
        ):
            derived[name] = (check(alg), walked(name, walk, alg))
        return derived

    return run
