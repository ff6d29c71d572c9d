"""Versioned JSON persistence for built algebras.

All scalars are stored exactly: rationals as "p/q" strings and surds as
lists of {radicand, num, den} records with integer strings, so a dump
round-trips to the identical canonical objects.  Unknown schema versions
are rejected outright.

A load builds one :class:`~gkmalg.scalars.SurdScalar` per distinct record
list, memoised for that call only, and shares it between the entries that
store it; every record is still type-checked before its list is looked up,
so a ``true`` or ``1.0`` cannot pass as the int it equals.  Numbers are read
only in the form the writer gives them: a record list must be a JSON list
equal to the ``to_records()`` of the value it is read as (so ``{4, "1",
"2"}``, ``"2"/"2"`` or ``" 1"`` is malformed), and an eigenvalue or charge
``str(Fraction(...))`` inside a JSON list (``charges`` and each eigenvalue
vector).  A string or object where a list is stored would be read character
by character or key by key, a surd's as no records, so it is malformed.

Loading deliberately does not check the stored f and g against anything:
the verification suites read the stored tables and produce witnesses, so a
tampered dump is diagnosed as a verification failure instead of a parse
error.  ``base_tables`` compares them with the tables of the base's name at
verify time, with exit 3 and the first differing entry as the witness; a
stored :func:`bracket_table` is diagnosed the same way.  A value that
cannot be read exactly (not a JSON integer where one is stored, a
``half_integer`` that is not a JSON boolean, an index outside ``1..dim``,
an invalid mode label, a key stored twice) makes the dump malformed.
``provenance`` and ``verification`` are not read.
"""

from __future__ import annotations

import datetime as _dt
import json
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .algebra import GKMAlgebra
from .liealg import FiniteAlgebra, cartan_weyl, make_algebra
from .modes import ModeSystem, geometry_from_dict
from .report import gc_paused
from .scalars import SurdScalar

SCHEMA_VERSION = 1
TOOL_NAME = "gkmalg"
TOOL_VERSION = "0.1.0"


class DumpFormatError(ValueError):
    """Raised when a dump cannot be interpreted under the known schema."""


def _rat_parse(text: str) -> Fraction:
    if type(text) is not str:
        raise ValueError(f"a rational must be a string, got {text!r}")
    value = Fraction(text)
    if str(value) != text:
        raise ValueError(f"a rational must be written as {str(value)!r}, got {text!r}")
    return value


def _rat_list(texts, what: str) -> tuple[Fraction, ...]:
    """The rationals of a JSON list; any other value (a string, an object) is a ValueError."""
    if type(texts) is not list:
        raise ValueError(f"{what} must be a list, got {texts!r}")
    return tuple(map(_rat_parse, texts))


def _int(value, what: str, top: int | None = None) -> int:
    """``value`` if it is a JSON integer (in ``1..top`` when given), else ValueError."""
    if type(value) is not int or top is not None and not 1 <= value <= top:
        raise ValueError(f"{what} must be an integer{f' in 1..{top}' if top else ''}, got {value!r}")
    return value


def _gen_key(gen) -> list:
    if gen[0] == "T":
        return ["T", gen[1], list(gen[2])]
    return [gen[0], gen[1]]


def _surd_reader():
    """A reader of stored surd record lists that builds each distinct list's value once.

    The memo lives as long as the returned function, one load.  Every record
    is type-checked, with no fourth key, before the lookup, so a ``true`` or
    ``1.0`` radicand cannot hit the entry of the int it equals.  A miss
    builds the value with :meth:`SurdScalar.from_records`, and the list is
    read only if it is the canonical form the writer gives that value (sorted
    squarefree radicands, nonzero terms in lowest terms, integer text as
    ``str(int)``).
    """
    memo: dict[tuple, SurdScalar] = {}

    def read(records) -> SurdScalar:
        if type(records) is not list:  # a string or object would iterate as no records: zero
            raise ValueError(f"surd records must be a list, got {records!r}")
        fields = []
        for rec in records:
            d, num, den = rec["radicand"], rec["num"], rec["den"]
            if len(rec) != 3 or type(d) is not int or type(num) is not str or type(den) is not str:
                raise ValueError(f"a surd record is an int radicand and string num, den: {records}")
            fields.append((d, num, den))
        key = tuple(fields)
        value = memo.get(key)
        if value is None:
            value = SurdScalar.from_records(records)  # a repeated radicand is a ValueError
            # the fields of value.to_records(), without building its dicts
            canonical = tuple(
                (d, str(q.numerator), str(q.denominator)) for d, q in sorted(value.terms.items())
            )
            if canonical != key:
                raise ValueError(f"surd records not in the form the writer gives: {records}")
            memo[key] = value
        return value

    return read


@gc_paused()
def dump_algebra(
    alg: GKMAlgebra,
    build_params: dict | None = None,
    include_brackets: bool = False,
    report=None,
) -> dict:
    """Serialise an algebra: base block, mode block, generator index, charges.

    ``include_brackets`` adds the full generator bracket table;  ``report``
    (a VerificationReport) attaches the latest verification outcomes.
    """
    base = alg.base
    f_entries = []
    for (a, b), row in sorted(base.f.items()):
        if a < b:  # independent entries; loader restores antisymmetry
            for c, v in sorted(row.items()):
                f_entries.append([a, b, c, v.to_records()])
    g_entries = [
        [a + 1, b + 1, base.g[a][b].to_records()]
        for a in range(base.dim)
        for b in range(a, base.dim)
        if not base.g[a][b].is_zero
    ]
    ms = alg.modes
    products = [
        [list(I), list(J), [[list(K), c.to_records()] for K, c in sorted(tab.items())]]
        for (I, J), tab in sorted(ms.products.items())
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "created": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
            "build_params": build_params or {},
        },
        "base": {
            "name": base.name,
            "dim": base.dim,
            "f": f_entries,
            "g": g_entries,
        },
        "modes": {
            "geometry": ms.geometry.to_dict(),
            "cutoff": ms.cutoff,
            "r": ms.r,
            "modes": [list(I) for I in ms.modes],
            "products": products,
            "eta": [
                [list(I), list(J), phase]
                for I, (J, phase) in sorted(ms.eta_table.items())
            ],
            "eigen": [
                [list(I), [str(v) for v in vals]]
                for I, vals in sorted(ms.eigen_table.items())
            ],
        },
        "charges": [str(c) for c in alg.charges],
        "generators": [_gen_key(g) for g in alg.generators()],
    }
    if report is not None:
        payload["verification"] = report.to_dict()
    if include_brackets:
        payload["brackets"] = bracket_table(alg)
    return payload


def bracket_table(alg: GKMAlgebra) -> list:
    """Each nonzero [p, q] of in-cutoff generators, in order, as ``[p, q, [[w, value], ...]]``."""
    table = []
    for i in alg.generator_ids():
        for j in alg.generator_ids():
            view = sorted(alg._row_view(i, j), key=lambda kv: repr(kv[0]))
            if view:
                outputs = [[_gen_key(w), c.to_records()] for w, c in view]
                table.append([_gen_key(alg.generator_of(i)), _gen_key(alg.generator_of(j)), outputs])
    return table


def save_algebra(alg: GKMAlgebra, path, **kwargs) -> None:
    Path(path).write_text(json.dumps(dump_algebra(alg, **kwargs)), encoding="utf-8")


@gc_paused()
def load_algebra(source) -> GKMAlgebra:
    """Rebuild an algebra from a dump dict, JSON text path, or Path."""
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DumpFormatError(f"cannot read dump: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise DumpFormatError("dump root must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DumpFormatError(
            f"unknown schema_version {version!r}; this tool reads version {SCHEMA_VERSION}"
        )
    try:
        return _load_v1(data)
    except DumpFormatError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DumpFormatError(f"malformed dump: {exc}") from exc


def _load_v1(data: dict) -> GKMAlgebra:
    base_blk = data["base"]
    dim = _int(base_blk["dim"], "dim")
    # Cartan-Weyl data and the hierarchy's smaller torus come from the *name*,
    # not the stored tables, so a tampered f/g fails verification instead of being
    # refused by cartan_weyl; the name is checked before dim-sized tables are built.
    named = make_algebra(str(base_blk["name"]))
    if named.dim != dim:
        raise DumpFormatError(f"malformed dump: base {named.name} is not of dimension {dim}")
    surd = _surd_reader()
    f: dict[tuple[int, int], dict[int, SurdScalar]] = {}
    for a, b, c, records in base_blk["f"]:
        a, b, c = (_int(x, "f index", dim) for x in (a, b, c))
        v = surd(records)
        if v.is_zero:
            continue
        f.setdefault((a, b), {})[c] = v
        f.setdefault((b, a), {})[c] = -v
    g = [[SurdScalar() for _ in range(dim)] for _ in range(dim)]
    for a, b, records in base_blk["g"]:
        a, b = (_int(x, "g index", dim) for x in (a, b))
        g[a - 1][b - 1] = g[b - 1][a - 1] = surd(records)
    # of a repeated key, or of an f or g entry and its mirror, only the last would be read
    f_keys = [(min(a, b), max(a, b), c) for a, b, c, _ in base_blk["f"]]
    g_keys = [(min(a, b), max(a, b)) for a, b, _ in base_blk["g"]]
    if len(set(f_keys)) != len(f_keys) or len(set(g_keys)) != len(g_keys):
        raise DumpFormatError("malformed dump: an f or g entry, or its mirror, repeats")
    base = FiniteAlgebra(
        name=str(base_blk["name"]),
        dim=dim,
        f=f,
        g=tuple(tuple(row) for row in g),
    )

    mode_blk = data["modes"]
    geometry = geometry_from_dict(mode_blk["geometry"])
    modes = [tuple(m) for m in mode_blk["modes"]]
    rows, eta, eigen = mode_blk["products"], mode_blk["eta"], mode_blk["eigen"]
    products = {
        (tuple(I), tuple(J)): {tuple(K): surd(records) for K, records in entries}
        for I, J, entries in rows
    }
    eta_table = {tuple(I): (tuple(J), _int(phase, "eta phase")) for I, J, phase in eta}
    eigen_table = {tuple(I): _rat_list(vals, "an eigenvalue vector") for I, vals in eigen}
    # every label read must be JSON integers: a 1.0 or true would pass as the int it equals
    entries = [K for row in products.values() for K in row]
    partners = [J for J, _ in eta_table.values()]
    labels = [*modes, *chain.from_iterable(products), *entries, *eta_table, *partners, *eigen_table]
    if not set(map(type, chain.from_iterable(labels))) <= {int}:
        bad = next(L for L in labels if any(type(x) is not int for x in L))
        raise ValueError(f"a mode label must be JSON integers, got {list(bad)!r}")
    for label in {*modes, *entries, *partners}:  # the keys are checked against the modes below
        geometry.validate(label)
    cutoff = _int(mode_blk["cutoff"], "cutoff")
    # an absent row would fall back to the geometry rules and go unchecked.  The counts go
    # first, so a crafted cutoff or torus dimension enumerates no more labels than are stored;
    # every geometry has at least `cutoff` labels, so a larger cutoff is refused uncounted
    counted = cutoff <= len(modes) and len(modes) == geometry.mode_count(cutoff)
    if not counted or modes != geometry.enumerate_modes(cutoff):
        raise DumpFormatError("malformed dump: mode list disagrees with the geometry and cutoff")
    pairs = {(I, J) for I in modes for J in modes}
    if products.keys() != pairs or len(rows) != len(pairs):  # a repeated row: the last is read
        raise DumpFormatError("malformed dump: product rows are not every ordered mode pair once")
    if len(entries) != sum(len(row) for *_, row in rows):
        raise DumpFormatError("malformed dump: a product row repeats an entry")
    once = len(eta) == len(eigen) == len(modes)  # a repeated mode: the last row is read
    if not (once and eta_table.keys() == eigen_table.keys() == set(modes)):
        raise DumpFormatError("malformed dump: eta or eigen rows are not the modes once each")
    if any(len(vals) != geometry.r for vals in eigen_table.values()):
        raise DumpFormatError(f"malformed dump: an eigenvalue vector's length is not {geometry.r}")
    if _int(mode_blk["r"], "r") != geometry.r:
        raise DumpFormatError("malformed dump: stored operator count disagrees with the manifold")
    ms = ModeSystem(
        geometry=geometry,
        cutoff=cutoff,
        modes=modes,
        products=products,
        eta_table=eta_table,
        eigen_table=eigen_table,
    )
    charges = _rat_list(data["charges"], "charges")
    cw = None if named.is_abelian else cartan_weyl(named)
    brackets = data.get("brackets")
    if brackets is not None and not isinstance(brackets, list):
        raise DumpFormatError("malformed dump: brackets must be a list")
    alg = GKMAlgebra(base=base, modes=ms, charges=charges, cw=cw, stored_brackets=brackets)
    if json.dumps(data["generators"]) != json.dumps([_gen_key(g) for g in alg.generators()]):
        raise DumpFormatError("malformed dump: generator list disagrees with base, modes and r")
    return alg
