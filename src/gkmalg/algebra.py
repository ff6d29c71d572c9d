"""Assembly of the centrally extended current algebra over a compact manifold.

Generators:

* ``("T", a, I)``  - base generator a carried by mode I,
* ``("D", j)``     - the j-th commuting Hermitean grading operator,
* ``("k", j)``     - the central element paired with D_j.

Nonzero generator brackets::

    [T_aI, T_bJ] = i f_ab^c c_IJ^K T_cK  +  g_ab eta_IJ sum_j I(j) k_j
    [D_j,  T_aI] = I(j) T_aI

with I(j) the eigenvalue of D_j on mode I.  Central elements are kept as
formal generators so the cocycle identity is checkable on its own;
evaluating them against the fixed rational charges is a separate fold.

The invariant bilinear form pairs <T_aI, T_bJ> = g_ab eta_IJ and
<D_i, k_j> = delta_ij, all other pairings zero.

Bracket rows.  Brackets are computed in the real basis X_aI = i T_aI, with
D_j and k_j kept, where every structure constant is real::

    [X_aI, X_bJ] = -f_ab^c c_IJ^K X_cK  -  g_ab eta_IJ sum_j I(j) k_j
    [D_j,  X_aI] = I(j) X_aI

Each generator has an int id: its position in :meth:`GKMAlgebra.generators`
(numbered at construction), then the next free id for each out-of-cutoff
T_cK that a product reaches.  The row of a generator pair (i, j) is an
integer row ``(den, ((k, d, n), ...))``: each term means ``n/den * sqrt(d)``
times generator k, with d squarefree and n an int, over one positive
denominator, in lowest terms and with zero terms dropped, so equal rows are
equal tuples.  A coefficient with several surd terms (a tampered
``1 + sqrt 2``, say) is several terms with the same k.  Rows are built on
first use and kept column-major in ``_pair_cache``: column j,
:meth:`GKMAlgebra.bracket_column`, is a slotted dict of i -> the row of
[X_i, X_j] that holds j and a weak reference to the algebra, and builds a
missing row with one ``_bracket_gens(i, j)`` call; a cached row is one
dict lookup, with no key tuple.  A T-T row reads the block of its base
pair (a, b), built once: the terms of f_ab^c, negated, each with the
per-c memo of T_cK ids, and the integer row of g_ab.  Each f term times
the integer row of :meth:`ModeSystem.product_row`, in (c, K) order (a
radicand-1 term just scales numerators), gives terms with distinct keys
(id, d), so no accumulator is needed (terms are merged only when a
tampered f_ab^c has two radicands); the central part g_ab omega_j(I, J),
from :meth:`ModeSystem.cocycle_pairing`, joins it, and one gcd puts the
row in lowest terms, unless f_ab is one term +-1 over 1 and there is no
central part: the row is then the product row, already in lowest terms,
with a sign.  Fractions appear only in views: a witness or a T-basis
value is built as ``Fraction(n, den)``.

:class:`GKMElement` brackets, with complex coefficients in the T basis, are
a view over the rows.  Writing each generator as ``s * X`` with s = -i for T
and s = 1 for D and k, the coefficient of w in [p, q] is the row value times
``s_p s_q / s_w``; the dumped bracket table is that view too.  The form is
real in the X basis: the form row of a generator pair,
:meth:`GKMAlgebra.form_row`, is read straight off the g and eta tables as
<X_aI, X_bJ> = -g_ab eta_IJ, with <D_i, k_j> = delta_ij by definition, as an
integer row whose one output, a scalar, has the key None; and
``killing_generators`` and ``killing`` are views over it.  The views of
elements are the bilinear extensions of the generator views and nothing
more: :meth:`GKMAlgebra.bracket` sums ``_row_view`` of each generator pair,
scaled by the product of the two coefficients, with :class:`GKMElement`
addition, and :meth:`GKMAlgebra.killing` sums the ``form_row`` values the
same way with :class:`ComplexSurd` addition, each of which keeps its own
canonical form (a zero coefficient is dropped).  These phases are
nonzero, so Jacobi, antisymmetry and invariance hold on the rows exactly when
they hold on the elements; :mod:`gkmalg.verify` checks them on the rows, and
:meth:`GKMAlgebra._t_value`, the one place the phase rule is written, turns
every row value into its T-basis value.  A tampered eta makes the
stored form asymmetric, so invariance is evaluated as <[x,y],z> + <y,[x,z]>
with the arguments in exactly that order.  The root grading is decided on
the named root system and the mode tables the T-T rows are built from, by
the same formula; root-space elements are a view for callers, never built
by a check.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

from .liealg import (
    CartanWeylData,
    FiniteAlgebra,
    RootVec,
    Vector,
    cartan_weyl,
    make_algebra,
)
from .modes import Eigen, Geometry, ModeLabel, ModeSystem, make_mode_system, parse_manifold
from .report import gc_paused
from .scalars import CSURD_ZERO, ComplexSurd, SurdScalar, int_row, lowest_row, surd_product

GenId = tuple  # ("T", a, mode) | ("D", j) | ("k", j)
Row = tuple  # (den, ((k, d, n), ...)): sum of n/den * sqrt(d) * generator k, in the X basis

ZERO_ROW: Row = (1, ())


class _Memo(dict):
    """A dict that fills a missing key ``k`` with ``fn(k)``."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Column(dict):
    """Column j of the row cache: i -> the row of [X_i, X_j], built by the owner on a miss."""

    __slots__ = ("owner", "j")

    def __init__(self, owner, j: int):
        self.owner, self.j = owner, j

    def __missing__(self, i):
        row = self[i] = self.owner()._bracket_gens(i, self.j)
        return row


class GKMElement:
    """Sparse element: generator id -> complex surd coefficient."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "GKMAlgebra", coeffs: dict[GenId, ComplexSurd] | None = None):
        self.algebra = algebra
        self.coeffs = {g: c for g, c in (coeffs or {}).items() if not c.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "GKMElement") -> "GKMElement":
        self._check_peer(other)
        keys = self.coeffs | other.coeffs
        return GKMElement(self.algebra, {g: self.coefficient(g) + other.coefficient(g) for g in keys})

    def __neg__(self) -> "GKMElement":
        return GKMElement(self.algebra, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other: "GKMElement") -> "GKMElement":
        return self + (-other)

    def scale(self, coeff) -> "GKMElement":
        return GKMElement(self.algebra, {g: c * coeff for g, c in self.coeffs.items()})

    def coefficient(self, gen: GenId) -> ComplexSurd:
        return self.coeffs.get(gen, CSURD_ZERO)

    def t_part(self) -> dict[GenId, ComplexSurd]:
        return {g: c for g, c in self.coeffs.items() if g[0] == "T"}

    def central_part(self) -> dict[GenId, ComplexSurd]:
        return {g: c for g, c in self.coeffs.items() if g[0] == "k"}

    def fold_charges(self) -> ComplexSurd:
        """Scalar obtained by replacing each central generator by its charge."""
        charges = self.algebra.charges
        return sum((c * charges[g[1] - 1] for g, c in self.central_part().items()), CSURD_ZERO)

    def __eq__(self, other):
        return isinstance(other, GKMElement) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "GKMElement(0)"
        bits = [f"({c}) {g}" for g, c in sorted(self.coeffs.items(), key=lambda kv: repr(kv[0]))]
        return "GKMElement(" + " + ".join(bits) + ")"

    def _check_peer(self, *others: "GKMElement") -> None:
        if any(other.algebra is not self.algebra for other in others):
            raise ValueError("elements belong to different algebras")


@dataclass
class GKMAlgebra:
    """A base algebra tensored with a mode system, centrally extended."""

    base: FiniteAlgebra
    modes: ModeSystem
    charges: tuple[Fraction, ...]
    cw: CartanWeylData | None = None
    stored_brackets: list | None = field(default=None, repr=False)  # a dump's bracket table
    _pair_cache: dict = field(init=False, repr=False)  # j -> (i -> Row), see __post_init__
    _blocks: list = field(init=False, repr=False)  # [a][b] -> base-pair block, see _block
    _t_ids: dict = field(init=False, repr=False)  # c -> (K -> id of T_cK)
    _gens: list = field(init=False, repr=False)  # id -> generator
    _gen_ids: dict = field(init=False, repr=False)  # generator -> id

    def __post_init__(self):
        if len(self.charges) != self.modes.r:
            raise ValueError(
                f"expected {self.modes.r} central charges, got {len(self.charges)}"
            )
        self._gens = self.generators()
        self._gen_ids = {g: i for i, g in enumerate(self._gens)}
        # column j maps i to the row of [X_i, X_j] and builds a missing one; _bracket_gens is
        # looked up at each miss, so a patched builder sees every row built, and the weak
        # reference leaves no cycle, so an algebra is freed as soon as its last user drops it
        owner = weakref.ref(self)
        self._pair_cache = _Memo(lambda j: _Column(owner, j))
        self._blocks = [[None] * (self.base.dim + 1) for _ in range(self.base.dim + 1)]
        self._t_ids = _Memo(lambda c: _Memo(lambda K: owner().gen_id(("T", c, K))))

    # -- structure ----------------------------------------------------------

    @property
    def r(self) -> int:
        return self.modes.r

    def generators(self) -> list[GenId]:
        gens: list[GenId] = [
            ("T", a, I)
            for a in range(1, self.base.dim + 1)
            for I in self.modes.modes
        ]
        gens.extend(("D", j) for j in range(1, self.r + 1))
        gens.extend(("k", j) for j in range(1, self.r + 1))
        return gens

    def generator(self, gen: GenId) -> GKMElement:
        return GKMElement(self, {gen: ComplexSurd.rational(1)})

    def element(self, coeffs: Mapping[GenId, ComplexSurd]) -> GKMElement:
        return GKMElement(self, dict(coeffs))

    def zero(self) -> GKMElement:
        return GKMElement(self, {})

    # -- generator ids and bracket rows ---------------------------------------

    def generator_ids(self) -> range:
        """The ids of :meth:`generators`, in that order."""
        return range(self.base.dim * len(self.modes.modes) + 2 * self.r)

    def gen_id(self, gen: GenId) -> int:
        """The id of a generator; an out-of-cutoff one gets the next free id."""
        i = self._gen_ids.get(gen)
        if i is None:
            i = self._gen_ids[gen] = len(self._gens)
            self._gens.append(gen)
        return i

    def generator_of(self, i: int) -> GenId:
        return self._gens[i]

    def _block(self, a: int, b: int) -> tuple:
        """Base pair (a, b)'s ``(fden, ((T_c id memo, d, -n), ...), repeated, unit, g row)``."""
        fden, fterms = int_row(self.base.structure(a, b).items())
        gab = self.base.killing_entry(a, b)
        repeated = len({c for c, _, _ in fterms}) < len(fterms)
        unit = fden == 1 and len(fterms) == 1 and fterms[0][1] == 1 and abs(fterms[0][2]) == 1
        terms = tuple((self._t_ids[c], d, -n) for c, d, n in fterms)
        grow = None if gab.is_zero else int_row([(None, gab)])
        block = self._blocks[a][b] = (fden, terms, repeated, unit, grow)
        return block

    def _bracket_gens(self, i: int, j: int) -> Row:
        """Build the row of [X_i, X_j] from the stored tables; its column keeps it."""
        p, q = self._gens[i], self._gens[j]
        kp, kq = p[0], q[0]
        if kp == kq == "T":
            _, a, I = p
            _, b, J = q
            den, fterms, repeated, unit, grow = self._blocks[a][b] or self._block(a, b)
            central = grow is not None and self.modes.eta(I)[0] == J
            if not (fterms or central):
                return ZERO_ROW
            # minus f_ab^c c_IJ^K X_cK, the f row times the product row
            terms: list = []
            if fterms:
                pden, pterms = self.modes.product_row(I, J)
                den *= pden
                for ids, d1, m1 in fterms:
                    if d1 == 1:
                        terms += [(ids[K], d2, m1 * n2) for K, d2, n2 in pterms]
                    else:
                        terms += [(ids[K], *surd_product(d1, m1, d2, n2)) for K, d2, n2 in pterms]
                if unit and not central:  # +-(the product row), already in lowest terms
                    return den, tuple(terms)
                if repeated:  # an f_ab^c with two radicands: terms can meet, so sum them
                    acc: dict = {}
                    for k, d, n in terms:
                        acc[k, d] = acc.get((k, d), 0) + n
                    terms = [(k, d, n) for (k, d), n in acc.items() if n]
            if central:
                # minus g_ab omega_n(I, J) k_n, over the product of both denominators
                gden, gterms = grow
                oden, oterms = int_row(
                    (self.gen_id(("k", n)), self.modes.cocycle_pairing(n, I, J))
                    for n in range(1, self.r + 1)
                )
                terms = [(k, d, n * gden * oden) for k, d, n in terms]
                for _, d1, n1 in gterms:
                    terms += [(k, *surd_product(d1, -den * n1, d2, n2)) for k, d2, n2 in oterms]
                den *= gden * oden
            return lowest_row(den, terms)
        if kp == "D" and kq == "T":
            lam = self.modes.eigen(q[2])[p[1] - 1]
            return (lam.denominator, ((j, 1, lam.numerator),)) if lam else ZERO_ROW
        if kp == "T" and kq == "D":
            lam = self.modes.eigen(p[2])[q[1] - 1]
            return (lam.denominator, ((i, 1, -lam.numerator),)) if lam else ZERO_ROW
        return ZERO_ROW

    def bracket_column(self, j: int) -> dict[int, Row]:
        """i -> the memoised X-basis row of [X_i, X_j]: a cached row is one dict lookup."""
        return self._pair_cache[j]

    def bracket_row(self, i: int, j: int) -> Row:
        """The memoised X-basis row of [X_i, X_j]."""
        return self._pair_cache[j][i]

    def _t_value(
        self, den: int, terms: Mapping[int, int], inputs: Iterable[int], out: int | None = None
    ) -> ComplexSurd:
        """The T-basis value of X-basis ``d -> n/den`` terms of a product of ``inputs``.

        Each T generator is -i times its X, so the value gains a factor
        ``(-i)**(#T inputs - [output is T])``; ``out`` is the id of the output
        generator, None for a scalar such as a pairing.
        """
        gens = self._gens
        n = sum(gens[i][0] == "T" for i in inputs) - (out is not None and gens[out][0] == "T")
        z = ComplexSurd.real(SurdScalar._raw({d: Fraction(c, den) for d, c in terms.items() if c}))
        if n % 2:
            z = ComplexSurd(z.im, -z.re)
        return -z if n % 4 >= 2 else z

    def _row_view(self, i: int, j: int) -> list[tuple[GenId, ComplexSurd]]:
        """(generator w, T-basis coefficient of w) over the row of [X_i, X_j]."""
        den, terms = self.bracket_row(i, j)
        values: dict[int, dict[int, int]] = {}
        for k, d, n in terms:
            values.setdefault(k, {})[d] = n
        return [(self._gens[k], self._t_value(den, v, (i, j), k)) for k, v in values.items()]

    # -- bracket ------------------------------------------------------------

    def bracket_generators(self, p: GenId, q: GenId) -> GKMElement:
        """[p, q] of two generators, as a view over their row."""
        return GKMElement(self, dict(self._row_view(self.gen_id(p), self.gen_id(q))))

    def bracket(self, x: GKMElement, y: GKMElement) -> GKMElement:
        """[x, y], the bilinear extension of the generator rows."""
        total = self.zero()
        total._check_peer(x, y)
        for p, cp in x.coeffs.items():
            i = self.gen_id(p)
            for q, cq in y.coeffs.items():
                total += GKMElement(self, dict(self._row_view(i, self.gen_id(q)))).scale(cp * cq)
        return total

    # -- invariant form -----------------------------------------------------

    def form_row(self, i: int, j: int) -> Row:
        """<X_i, X_j> as an integer row with the one key None, read off the g and eta tables.

        <X_aI, X_bJ> = -g_ab * phase when eta(I) = (J, phase), on the g row of the
        :meth:`_block`; <D_i, k_j> = delta_ij by definition; every other pair is zero.
        """
        p, q = self._gens[i], self._gens[j]
        if p[0] == q[0] == "T":
            partner, phase = self.modes.eta(p[2])
            if partner != q[2] or not phase:
                return ZERO_ROW
            grow = (self._blocks[p[1]][q[1]] or self._block(p[1], q[1]))[4]
            if grow is None or phase == -1:
                return grow or ZERO_ROW
            scaled = [(k, d, -phase * n) for k, d, n in grow[1]]
            return (grow[0], tuple(scaled)) if phase == 1 else lowest_row(grow[0], scaled)
        if {p[0], q[0]} == {"D", "k"} and p[1] == q[1]:
            return 1, ((None, 1, 1),)
        return ZERO_ROW

    def form_partners(self, i: int) -> list[GenId]:
        """The generators q with <X_i, q> possibly nonempty; :meth:`form_row` is zero on the rest.

        T_aI pairs only with the T_b of mode eta(I), read from the stored eta,
        so a tampered partner beyond the cutoff is followed; D_j pairs only
        with k_j, and k_j only with D_j.
        """
        p = self._gens[i]
        if p[0] == "T":
            partner = self.modes.eta(p[2])[0]
            return [("T", b, partner) for b in range(1, self.base.dim + 1)]
        return [("k" if p[0] == "D" else "D", p[1])]

    def killing_generators(self, p: GenId, q: GenId) -> ComplexSurd:
        """<p, q> of two generators, as a view over their form row."""
        i, j = self.gen_id(p), self.gen_id(q)
        den, terms = self.form_row(i, j)
        return self._t_value(den, {d: n for _, d, n in terms}, (i, j))

    def killing(self, x: GKMElement, y: GKMElement) -> ComplexSurd:
        """<x, y>, the bilinear extension of the generator form rows."""
        self.zero()._check_peer(x, y)
        pairs = product(x.coeffs.items(), y.coeffs.items())
        return sum((cp * cq * self.killing_generators(p, q) for (p, cp), (q, cq) in pairs), CSURD_ZERO)

    # -- root spaces ----------------------------------------------------------

    def _require_cw(self) -> CartanWeylData:
        if self.cw is None:
            raise ValueError("root-space queries need a semisimple base algebra")
        return self.cw

    def vector_element(self, vec: Vector, I: ModeLabel) -> GKMElement:
        coeffs = {
            ("T", a, I): comp
            for a, comp in enumerate(vec, start=1)
            if not comp.is_zero
        }
        return GKMElement(self, coeffs)

    def root_space(self, alpha: RootVec, n: Eigen) -> list[GKMElement]:
        """Basis of the (alpha, n) root space within the cutoff.

        alpha is a root for the rotated generators E_(alpha I), or the zero
        vector for the Cartan directions H^i_I; n picks the modes with that
        eigenvalue vector.
        """
        cw = self._require_cw()
        n = tuple(Fraction(v) for v in n)
        if len(n) != self.r:
            raise ValueError(f"eigenvalue vector must have length {self.r}")
        alpha = tuple(Fraction(v) for v in alpha)
        if any(alpha) and alpha not in cw.root_vectors:
            raise ValueError(f"{alpha} is not a root of {self.base.name}")
        modes = self._modes_by_eigen().get(n, ())
        return [
            self.vector_element(cw.root_vectors[alpha] if k is None else cw.cartan[k], I)
            for k, I in self._root_basis(alpha, modes)
        ]

    def _modes_by_eigen(self) -> dict:
        """Each eigenvalue vector n -> the modes within the cutoff that carry it, in mode order."""
        groups: dict = {}
        for I in self.modes.modes:
            groups.setdefault(self.modes.eigen(I), []).append(I)
        return groups

    def _root_basis(self, alpha: RootVec, modes):
        """Yield ``(k, I)`` for the basis of g_(alpha, n), mode outer: H^k (x) rho_I at
        alpha = 0, E_alpha (x) rho_I (k None) at a root.

        ``modes`` are the modes of eigenvalue n, from :meth:`_modes_by_eigen`.
        """
        ks = [None] if any(alpha) else range(self.cw.rank)
        return ((k, I) for I in modes for k in ks)

    def root_space_labels(self) -> list[tuple[RootVec, Eigen]]:
        """All (alpha | 0, n) labels with nonempty spaces within the cutoff."""
        cw = self._require_cw()
        eigenvalues = sorted({self.modes.eigen(I) for I in self.modes.modes})
        zero = tuple(Fraction(0) for _ in cw.roots[0])
        labels: list[tuple[RootVec, Eigen]] = []
        for alpha in (*cw.roots, zero):
            for n in eigenvalues:
                labels.append((alpha, n))
        return labels


@gc_paused()
def build_algebra(
    base: str | FiniteAlgebra,
    manifold: str | Geometry,
    cutoff: int,
    charges: Iterable,
) -> GKMAlgebra:
    """Construct and validate the full algebra for the given parameters."""
    base_alg = make_algebra(base) if isinstance(base, str) else base
    geometry = parse_manifold(manifold) if isinstance(manifold, str) else manifold
    modes = make_mode_system(geometry, cutoff)
    charge_vec = tuple(Fraction(c) for c in charges)
    cw = None if base_alg.is_abelian else cartan_weyl(base_alg)
    return GKMAlgebra(base=base_alg, modes=modes, charges=charge_vec, cw=cw)
