"""Fixtures shared by more than one test module."""

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest

from gkmalg.report import checking


def _dense_invariance(alg):
    """``(passed, details, witness)`` of invariance with every triple summed in order, in Fractions."""
    ids = alg.generator_ids()
    population = len(ids) * len(ids) * (len(ids) + 1) // 2
    form = functools.cache(alg.form_row)
    count = 0
    for x in ids:
        rows = [alg.bracket_row(x, v) for v in ids]
        for y, z in itertools.combinations_with_replacement(ids, 2):
            count += 1
            if not (rows[y][1] or rows[z][1]):
                continue  # both sums are empty
            total: dict = {}
            for (den, terms), pair in ((rows[y], lambda w: form(w, z)), (rows[z], lambda w: form(y, w))):
                for w, d1, n1 in terms:
                    fden, fterms = pair(w)
                    for _, d2, n2 in fterms:
                        g = gcd(d1, d2)  # sqrt(d1) sqrt(d2) = g sqrt(d1 d2 / g^2)
                        d = d1 // g * (d2 // g)
                        total[d] = total.get(d, 0) + Fraction(n1 * n2 * g, den * fden)
            if any(total.values()):
                scale = lcm(*(c.denominator for c in total.values()))
                value = alg._t_value(scale, {d: int(c * scale) for d, c in total.items()}, (x, y, z))
                gens = [repr(alg.generator_of(i)) for i in (x, y, z)]
                details = {"population": population, "triples": count}
                return False, details, {"generators": gens, "value": str(value)}
    return True, {"population": population, "triples": population}, None


@pytest.fixture()
def dense_invariance():
    """The invariance check as a reference: every triple of the population summed, in order.

    Gives ``(passed, details, witness)`` as ``invariance_check(alg, sample="all")``
    reports them, from the same bracket and form rows but with no triple skipped.
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
