"""Per-layer tracing from outside the program.

While installed, a :class:`Tracer` replaces the public functions of each
gkmalg layer by timing wrappers, patched where each name is looked up
(modules import by name).  Spans (name, start, end, parent) are kept in
flat in-memory lists; self time is a span's duration minus its direct
children's.  Scalar multiplications are only counted, never spanned.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import gkmalg.algebra
import gkmalg.modes
import gkmalg.serialize
import gkmalg.verify
import gkmalg.wigner
from gkmalg.algebra import GKMAlgebra
from gkmalg.modes import ModeSystem, Sphere2Geometry, Sphere3Geometry, TorusGeometry
from gkmalg.scalars import ComplexSurd, SurdScalar

# Report-name prefix -> function name in gkmalg.verify, for the checks timed one by one.
CHECKS = {
    "jacobi_gkm": "jacobi_check_gkm",
    "invariance": "invariance_check",
    "grading": "grading_check",
    "bracket_antisymmetry": "antisymmetry_check",
    "product_associativity": "associativity_check",
    "torus_hierarchy": "torus_hierarchy_check",
    "oracle_agreement": "oracle_agreement_check",
}

# (owner, attribute, span name): every function wrapped in a span.
_SPANNED = [
    (gkmalg.wigner, "wigner3j", "wigner.wigner3j"),
    (gkmalg.modes, "clebsch_gordan", "wigner.clebsch_gordan"),
    (gkmalg.modes, "gaunt_normalized", "wigner.gaunt_normalized"),
    (gkmalg.algebra, "make_mode_system", "modes.make_mode_system"),
    (TorusGeometry, "product", "modes.geometry_product"),
    (Sphere2Geometry, "product", "modes.geometry_product"),
    (Sphere3Geometry, "product", "modes.geometry_product"),
    (gkmalg.algebra, "make_algebra", "liealg.build"),
    (gkmalg.algebra, "cartan_weyl", "liealg.build"),
    (gkmalg.serialize, "make_algebra", "liealg.build"),
    (gkmalg.serialize, "cartan_weyl", "liealg.build"),
    (GKMAlgebra, "bracket_generators", "algebra.bracket_generators"),
    (GKMAlgebra, "_bracket_gens", "algebra.bracket_gens"),
    (GKMAlgebra, "killing", "algebra.killing"),
    (gkmalg.verify, "run_suites", "verify.run_suites"),
    (gkmalg.verify, "make_grid", "quadrature.make_grid"),
    (gkmalg.verify, "numeric_product_coefficient", "quadrature.numeric"),
    (gkmalg.verify, "numeric_conjugation_pairing", "quadrature.numeric"),
    (gkmalg.verify, "numeric_eigencheck", "quadrature.numeric"),
    (gkmalg.verify, "numeric_cocycle_pairing", "quadrature.numeric"),
    (gkmalg.serialize, "dump_algebra", "serialize.dump_algebra"),
    (gkmalg.serialize, "load_algebra", "serialize.load_algebra"),
] + [(gkmalg.verify, fn, f"verify.{c}") for c, fn in CHECKS.items()]

# (owner, attribute, counter name): wrapped in a bare call counter.
_COUNTED = [
    (SurdScalar, "__mul__", "scalars.surd_mul"),
    (SurdScalar, "__rmul__", "scalars.surd_mul"),
    (ComplexSurd, "__mul__", "scalars.complex_mul"),
    (ComplexSurd, "__rmul__", "scalars.complex_mul"),
    (ModeSystem, "product", "modes.product"),
]

_WIGNER = ("wigner.wigner3j", "wigner.clebsch_gordan", "wigner.gaunt_normalized")
_BRACKET = ("algebra.bracket", "algebra.bracket_generators", "algebra.bracket_gens")

# Per-layer metric -> unit, in report order.
UNITS = {
    "scalars.surd_mul_calls": "count",
    "scalars.complex_mul_calls": "count",
    "wigner.calls": "count",
    "wigner.misses": "count",
    "wigner.hit_ratio": "ratio",
    "wigner.self_s": "s",
    "modes.product_calls": "count",
    "modes.ext_products": "count",
    "modes.build_s": "s",
    "liealg.build_s": "s",
    "algebra.bracket_calls": "count",
    "algebra.bracket_s": "s",
    "algebra.pair_misses": "count",
    "algebra.pair_hit_ratio": "ratio",
    "algebra.killing_calls": "count",
    **{
        f"verify.{c}.{m}": u
        for c in CHECKS
        for m, u in (("s", "s"), ("items", "count"), ("us_per_item", "us"))
    },
    "verify.other_s": "s",
    "verify.oracle_prep_s": "s",
    "quadrature.grid_s": "s",
    "quadrature.numeric_calls": "count",
    "quadrature.us_per_quantity": "us",
    "serialize.dump_s": "s",
    "serialize.load_s": "s",
    "serialize.json_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters for one pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def _bracket(self, fn):
        """GKMAlgebra.bracket: a span, plus one pair-cache lookup per coefficient pair."""
        counts = self.counts
        traced = self._spanned("algebra.bracket", fn)

        def bracket(alg, x, y):
            counts["algebra.pair_lookups"] += len(x.coeffs) * len(y.coeffs)
            return traced(alg, x, y)

        return bracket

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in _SPANNED:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        for owner, attr, name in _COUNTED:
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        self._patch(GKMAlgebra, "bracket", self._bracket(GKMAlgebra.bracket))
        # each bracket_generators call is one pair-cache lookup
        lookups = self._counted("algebra.pair_lookups", GKMAlgebra.bracket_generators)
        self._patch(GKMAlgebra, "bracket_generators", lookups)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def summarise(self) -> dict:
        """Per span name: calls, total (inclusive) and self time, plus parent-aware counts."""
        n = len(self.span_name)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        build_products = 0
        build_id = self._ids.get("modes.make_mode_system", -2)
        product_id = self._ids.get("modes.geometry_product", -2)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            if self.span_name[i] == product_id and self.parents[i] >= 0:
                build_products += self.span_name[self.parents[i]] == build_id
        return {
            "calls": calls,
            "total": total,
            "self": self_s,
            "counts": self.counts,
            "ext_products": calls["modes.geometry_product"] - build_products,
        }

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent index] (gzip'd JSON)."""
        spans = [
            [self.names[self.span_name[i]], self.starts[i], self.ends[i], self.parents[i]]
            for i in range(len(self.span_name))
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)


@contextmanager
def installed(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def layer_metrics(summary: dict, report_items: dict, json_bytes: int, wigner_misses: int) -> dict:
    """Every per-layer metric of one traced pass except trace.overhead_s."""
    calls, total, self_s, counts = (
        summary["calls"],
        summary["total"],
        summary["self"],
        summary["counts"],
    )

    def ratio(hits, attempts):
        return hits / attempts if attempts else 0.0

    wigner_calls = calls["wigner.wigner3j"]
    pair_misses = calls["algebra.bracket_gens"]
    lookups = counts["algebra.pair_lookups"]
    numeric_calls = calls["quadrature.numeric"]
    out = {
        "scalars.surd_mul_calls": counts["scalars.surd_mul"],
        "scalars.complex_mul_calls": counts["scalars.complex_mul"],
        "wigner.calls": wigner_calls,
        "wigner.misses": wigner_misses,
        "wigner.hit_ratio": ratio(wigner_calls - wigner_misses, wigner_calls),
        "wigner.self_s": sum(self_s[n] for n in _WIGNER),
        "modes.product_calls": counts["modes.product"],
        "modes.ext_products": summary["ext_products"],
        "modes.build_s": self_s["modes.make_mode_system"] + self_s["modes.geometry_product"],
        "liealg.build_s": total["liealg.build"],
        "algebra.bracket_calls": calls["algebra.bracket"],
        "algebra.bracket_s": sum(self_s[n] for n in _BRACKET),
        "algebra.pair_misses": pair_misses,
        "algebra.pair_hit_ratio": ratio(lookups - pair_misses, lookups),
        "algebra.killing_calls": calls["algebra.killing"],
    }
    checked = 0.0
    for c in CHECKS:
        seconds = total[f"verify.{c}"]
        items = report_items.get(c, 0)
        checked += seconds
        out[f"verify.{c}.s"] = seconds
        out[f"verify.{c}.items"] = items
        out[f"verify.{c}.us_per_item"] = 1e6 * seconds / items if items else 0.0
    grid_s, numeric_s = total["quadrature.make_grid"], total["quadrature.numeric"]
    out["verify.other_s"] = total["verify.run_suites"] - checked
    out["verify.oracle_prep_s"] = total["verify.oracle_agreement"] - grid_s - numeric_s
    out["quadrature.grid_s"] = grid_s
    out["quadrature.numeric_calls"] = numeric_calls
    out["quadrature.us_per_quantity"] = 1e6 * numeric_s / numeric_calls if numeric_calls else 0.0
    out["serialize.dump_s"] = total["serialize.dump_algebra"] + total["serialize.encode"]
    out["serialize.load_s"] = total["serialize.decode"] + total["serialize.load_algebra"]
    out["serialize.json_bytes"] = json_bytes
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
