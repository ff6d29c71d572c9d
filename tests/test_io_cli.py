import copy
import functools
import io
import json
import shlex
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmalg.algebra import build_algebra
from gkmalg.cli import main
from gkmalg.liealg import jacobi_check_finite
from gkmalg.modes import parse_manifold
from gkmalg.report import VerificationReport
from gkmalg.scalars import SurdScalar
from gkmalg.serialize import DumpFormatError, dump_algebra, load_algebra, save_algebra
from gkmalg.verify import (
    SUITES,
    _antisymmetry_walk,
    _grading_walk,
    _killing_table_walk,
    antisymmetry_check,
    base_tables_check,
    bracket_table_check,
    grading_check,
    invariance_check,
    killing_consistency_check,
    killing_table_check,
    run_suites,
    torus_hierarchy_check,
)
from gkmalg.wigner import cache_size, clear_cache


@pytest.fixture()
def s2_dump(tmp_path):
    path = tmp_path / "a.json"
    code = main(
        [
            "build",
            "--algebra",
            "su2",
            "--manifold",
            "s2",
            "--cutoff",
            "2",
            "--charges",
            "1",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


def _tamper(path, tmp_path, mutate):
    data = json.loads(path.read_text())
    mutate(data)
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(data))
    return out


def test_dump_round_trip_identity(tmp_path):
    alg = build_algebra("su2", "s2", 1, charges=[Fraction(3, 7)])
    first = dump_algebra(alg, build_params={"note": "round-trip"})
    loaded = load_algebra(first)
    second = dump_algebra(loaded, build_params={"note": "round-trip"})
    first.pop("provenance")
    second.pop("provenance")
    assert first == second
    assert loaded.charges == (Fraction(3, 7),)
    assert loaded.modes.products == alg.modes.products
    assert loaded.base.f == alg.base.f


def test_round_trip_verification_outcomes_match(tmp_path):
    alg = build_algebra("su2", "t1", 2, charges=[1])
    path = tmp_path / "t.json"
    save_algebra(alg, path)
    loaded = load_algebra(path)
    direct = run_suites(alg, suite="all", seed=5)
    reloaded = run_suites(loaded, suite="all", seed=5)
    assert [c.name for c in direct.checks] == [c.name for c in reloaded.checks]
    assert [c.passed for c in direct.checks] == [c.passed for c in reloaded.checks]


def test_unknown_schema_rejected(tmp_path):
    alg = build_algebra("u1", "t1", 1, charges=[1])
    data = dump_algebra(alg)
    data["schema_version"] = 99
    with pytest.raises(DumpFormatError):
        load_algebra(data)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DumpFormatError):
        load_algebra(bad)


def test_build_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["build", "--algebra", "su2", "--manifold", "s5", "--cutoff", "1", "--charges", "1", "--out", out]) == 2
    assert main(["build", "--algebra", "so9", "--manifold", "s2", "--cutoff", "1", "--charges", "1", "--out", out]) == 2
    assert main(["build", "--algebra", "su2", "--manifold", "t2", "--cutoff", "1", "--charges", "1", "--out", out]) == 2  # charge count
    capsys.readouterr()
    assert main(["build", "--algebra", "su2", "--manifold", "s2", "--cutoff", "-1", "--charges", "1", "--out", out]) == 2
    assert capsys.readouterr().err == "error: cutoff must be >= 0\n"
    assert main(["nonsense"]) == 2


def test_build_counts_in_dump(s2_dump):
    data = json.loads(s2_dump.read_text())
    assert data["schema_version"] == 1
    assert len(data["modes"]["modes"]) == 9
    assert len(data["generators"]) == 29  # 3 * 9 + 2
    assert data["base"]["dim"] == 3
    assert data["provenance"]["build_params"]["cutoff"] == 2


def test_dump_with_attached_report():
    alg = build_algebra("su2", "t1", 1, charges=[1])
    report = run_suites(alg, suite="jacobi")
    data = dump_algebra(alg, report=report)
    assert data["verification"]["passed"] is True
    names = [c["name"] for c in data["verification"]["checks"]]
    assert "jacobi_gkm" in names
    # the verification block is advisory; loading still round-trips the algebra
    assert load_algebra(data).charges == (Fraction(1),)


def test_verify_cli_pass(s2_dump, capsys):
    code = main(["verify", str(s2_dump), "--suite", "all", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) >= 5
    report = VerificationReport.from_dict(payload)
    assert report.passed


def test_verify_cli_text_format(s2_dump, capsys):
    code = main(["verify", str(s2_dump), "--suite", "oracle", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle_agreement" in out and "ALL CHECKS PASSED" in out
    argv = ["verify", str(s2_dump), "--suite", "jacobi", "--seed", "9", "--budget", "100"]
    assert main(argv + ["--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS  jacobi_finite[su2]  1 triples  (")
    assert lines[1].startswith("PASS  jacobi_gkm [sampled, seed 9]  100 of 3654 triples  (")


def test_verify_text_format_prints_each_failures_witness(s2_dump, tmp_path, capsys):
    def mutate(d):
        d["modes"]["eigen"][0][1] = ["7"]

    tampered = _tamper(s2_dump, tmp_path, mutate)
    assert main(["verify", str(tampered), "--format", "text"]) == 3
    lines = capsys.readouterr().out.splitlines()
    fails = [n for n, line in enumerate(lines) if line.startswith("FAIL")]
    assert fails and lines[-1] == "VERIFICATION FAILED"
    for n in fails:
        assert lines[n + 1].startswith("      witness: {") and lines[n + 1].endswith("}")


def test_verify_a_dump_whose_root_is_not_an_object_is_malformed(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.strip() == "error: dump root must be a JSON object"


def test_build_rejects_a_torus_power_that_is_not_an_integer(tmp_path, capsys):
    argv = ["build", "--algebra", "u1^x", "--manifold", "t1", "--cutoff", "1", "--charges", "1"]
    assert main([*argv, "--out", str(tmp_path / "a.json")]) == 2
    assert capsys.readouterr().err.strip() == "error: unknown algebra name 'u1^x'"


def test_report_gives_each_drawn_check_its_population():
    alg = build_algebra("su2", "s2", 2, charges=[1])
    report = run_suites(alg, "all", budget=100, oracle_samples=10)
    checks = {c.name: c for c in report.checks}
    for name, population in (("jacobi_gkm", 3654), ("invariance", 12615)):
        details = checks[name].details
        assert (checks[name].regime, details["triples"], details["population"]) == (
            "sampled", 100, population
        )
    text = report.render_text()
    assert "PASS  jacobi_gkm [sampled, seed 0]  100 of 3654 triples  (" in text
    assert "PASS  invariance [sampled, seed 0]  100 of 12615 triples  (" in text


def test_verify_deterministic_for_seed(s2_dump, capsys):
    main(["verify", str(s2_dump), "--suite", "jacobi", "--seed", "9", "--budget", "100"])
    first = json.loads(capsys.readouterr().out)
    main(["verify", str(s2_dump), "--suite", "jacobi", "--seed", "9", "--budget", "100"])
    second = json.loads(capsys.readouterr().out)
    for a, b in zip(first["checks"], second["checks"]):
        a.pop("wall_time_s"), b.pop("wall_time_s")
    assert first == second
    regimes = {c["name"]: c["regime"] for c in first["checks"]}
    assert regimes["jacobi_gkm"] == "sampled"


def test_root_grading_follows_the_base_name_not_the_stored_f():
    data = dump_algebra(build_algebra("su2", "s2", 1, charges=[1]))
    for *_, records in data["base"]["f"]:
        records.clear()  # the writer's form of a zero coefficient
    checks = {c.name: c for c in run_suites(load_algebra(data), "all").checks}
    assert checks["grading"].regime == "exhaustive"
    assert not checks["killing_consistency"].passed


def test_verify_corrupt_dump_exit1(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text("{\"schema_version\": 1}")
    assert main(["verify", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["verify", str(missing)]) == 1


@pytest.mark.parametrize(
    "build, cutoff",
    [
        (("su2", "t1", 1, [1]), 10**6),  # a million labels on the circle
        (("u1", "t13", 0, [1] * 13), 1),  # 3**13 labels on T^13, one stored
    ],
    ids=["large-cutoff", "high-torus-dimension"],
)
def test_a_crafted_cutoff_is_malformed_without_enumerating_its_modes(tmp_path, capsys, build, cutoff):
    data = dump_algebra(build_algebra(*build))
    data["modes"]["cutoff"] = cutoff
    path = tmp_path / "crafted.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        with pytest.raises(DumpFormatError, match="mode list disagrees"):
            load_algebra(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert main(["verify", str(path)]) == 1
    assert "mode list disagrees" in capsys.readouterr().err


_REPEATED_BASE = "an f or g entry, or its mirror, repeats"
_REPEATED_MODE = "eta or eigen rows are not the modes once each"


def _record(num):
    return {"radicand": 1, "num": num, "den": "1"}


def _drop_last_mode(data):
    last = data["modes"]["modes"].pop()
    data["generators"] = [g for g in data["generators"] if g[0] != "T" or g[2] != last]


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.__setitem__("charges", ["1/0"]), "Fraction(1, 0)"),
        (lambda d: d["base"]["g"][0].__setitem__(0, 9), "g index must be an integer in 1..3, got 9"),
        (lambda d: d["modes"].__setitem__("geometry", "s2"), "has no attribute"),
        (lambda d: d["generators"].pop(), "generator list disagrees"),
        (_drop_last_mode, "mode list disagrees"),
        (lambda d: d["modes"].__setitem__("cutoff", 1), "mode list disagrees"),
        (lambda d: d["modes"]["eta"].pop(3), "eta or eigen rows"),
        (lambda d: d["modes"]["eigen"].pop(3), "eta or eigen rows"),
        (lambda d: d["modes"]["products"].pop(3), "product rows"),
        (lambda d: d["modes"]["eigen"][3][1].append("0"), "length is not 1"),
        (lambda d: d["modes"].__setitem__("r", 2), "operator count"),
        (lambda d: d["base"].__setitem__("name", "su3"), "base su3 is not of dimension 3"),
        (lambda d: d["base"].__setitem__("dim", 4), "base su2 is not of dimension 4"),
        (
            lambda d: d["modes"]["products"][0][2][0][1][0].__setitem__("radicand", 0),
            "radicand must be a positive integer",
        ),
        (lambda d: d.__setitem__("brackets", 5), "brackets must be a list"),
        # a repeated key placed before the real one would never be read
        (
            lambda d: d["modes"]["products"][0][2][0][1].insert(0, _record("7")),
            "repeated radicand 1",
        ),
        (lambda d: d["base"]["f"].insert(0, [1, 2, 3, [_record("5")]]), _REPEATED_BASE),
        (lambda d: d["base"]["f"].insert(0, [2, 1, 3, [_record("5")]]), _REPEATED_BASE),
        (lambda d: d["base"]["g"].insert(0, [1, 1, [_record("5")]]), _REPEATED_BASE),
        (lambda d: d["base"]["g"].extend([[2, 1, [_record("5")]], [1, 2, []]]), _REPEATED_BASE),
        (
            lambda d: d["modes"]["products"].insert(0, [[0, 0], [1, 0], [[[1, 0], [_record("2")]]]]),
            "product rows are not every ordered mode pair once",
        ),
        (
            lambda d: d["modes"]["products"][1][2].insert(0, [[1, -1], [_record("2")]]),
            "a product row repeats an entry",
        ),
        (lambda d: d["modes"]["eta"].insert(0, [[1, -1], [1, 1], 1]), _REPEATED_MODE),
        (lambda d: d["modes"]["eigen"].insert(0, [[1, -1], ["1"]]), _REPEATED_MODE),
        # a label component equal to an int but not one would be read as its twin
        (
            lambda d: d["modes"]["products"][1][2][0].__setitem__(0, [1.0, -1]),
            "a mode label must be JSON integers, got [1.0, -1]",
        ),
        (
            lambda d: d["modes"]["products"][3][2][0].__setitem__(0, [True, 1]),
            "a mode label must be JSON integers, got [True, 1]",
        ),
    ],
    ids=[
        "zero-denominator-charge", "base-g-index", "geometry-not-an-object", "generator-list",
        "last-mode-dropped", "cutoff", "eta-row", "eigen-row", "product-row", "eigen-length",
        "operator-count", "base-name", "base-dim", "zero-radicand", "brackets-not-a-list",
        "repeated-radicand", "repeated-f-entry", "repeated-f-mirror", "repeated-g-entry",
        "repeated-g-mirror", "repeated-product-row", "repeated-product-entry", "repeated-eta-mode",
        "repeated-eigen-mode", "float-label", "bool-label",
    ],
)
def test_malformed_dump_is_reported_as_malformed(s2_dump, tmp_path, mutate, message, capsys):
    bad = _tamper(s2_dump, tmp_path, mutate)
    with pytest.raises(DumpFormatError):
        load_algebra(bad)
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed dump: ") and message in err


@pytest.mark.parametrize(
    "manifold,mutate,message",
    [
        ("t2", lambda d: d.__setitem__("charges", "12"), "charges must be a list, got '12'"),
        ("t2", lambda d: d.__setitem__("charges", {"1": 0, "2": 0}), "charges must be a list"),
        (
            "s3",
            lambda d: d["modes"]["eigen"][0].__setitem__(1, "00"),
            "an eigenvalue vector must be a list, got '00'",
        ),
    ],
    ids=["t2-string-charges", "t2-object-charges", "s3-string-eigen-row"],
)
def test_charges_and_eigenvalue_vectors_must_be_json_lists(tmp_path, manifold, mutate, message, capsys):
    # iterating a string or an object would read its characters or keys as the entries
    data = dump_algebra(build_algebra("su2", manifold, 1, charges=[1, 1]))
    mutate(data)
    with pytest.raises(DumpFormatError, match=message):
        load_algebra(copy.deepcopy(data))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["modes"]["products"][0][2].append([[1, 1], ""]),
        lambda d: d["modes"]["products"][0][2].append([[1, 1], {}]),
        lambda d: d["base"]["f"][0].__setitem__(3, ""),
    ],
    ids=["product-string", "product-object", "f-string"],
)
def test_surd_records_must_be_a_json_list(tmp_path, mutate, capsys):
    # a string or an object iterates as no records, which would read as a stored zero
    data = dump_algebra(build_algebra("su2", "s2", 1, charges=[1]))
    mutate(data)
    message = "surd records must be a list"
    with pytest.raises(DumpFormatError, match=message):
        load_algebra(copy.deepcopy(data))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["base"]["f"][0][3][0].__setitem__("note", 5),
        lambda d: d["modes"]["products"][0][2][0][1][0].__setitem__("note", 5),
    ],
    ids=["f-entry", "product-entry"],
)
def test_surd_records_with_an_extra_key_are_malformed(tmp_path, mutate, capsys):
    # the writer's to_records() gives exactly radicand, num and den
    data = dump_algebra(build_algebra("su2", "s2", 1, charges=[1]))
    mutate(data)
    message = "a surd record is an int radicand and string num, den"
    with pytest.raises(DumpFormatError, match=message):
        load_algebra(copy.deepcopy(data))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 1
    assert message in capsys.readouterr().err


def test_a_dump_that_is_not_utf8_is_reported_as_unreadable(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + '{"schema_version": 1}'.encode("utf-16-le"))
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read dump: ") and "utf-8" in err


@pytest.mark.parametrize(
    "flags",
    [["--budget", "0"], ["--budget", "-1"], ["--oracle-samples", "0"], ["--oracle-samples", "-1"],
     ["--budget", "many"]],
)
def test_verify_rejects_a_non_positive_budget(s2_dump, flags, capsys):
    assert main(["verify", str(s2_dump), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flags[0] in captured.err


@pytest.mark.parametrize("budget", [0, -1])
def test_run_suites_rejects_a_non_positive_budget(budget):
    alg = build_algebra("su2", "s2", 1, charges=[1])
    with pytest.raises(ValueError, match="sample size must be at least 1"):
        run_suites(alg, "jacobi", budget=budget)
    with pytest.raises(ValueError, match="sample size must be at least 1"):
        run_suites(alg, "oracle", oracle_samples=budget)


@pytest.mark.parametrize(
    "suite,mutate",
    [
        # flipped eta phase on one pair -> cocycle antisymmetry breaks
        (
            "cocycle",
            lambda d: [
                e.__setitem__(2, -e[2])
                for e in d["modes"]["eta"]
                if e[0] == [1, 1]
            ],
        ),
        # bogus mode injected into a product entry -> grading + jacobi break
        (
            "grading",
            lambda d: [
                e[2].append([[1, 1], [{"radicand": 1, "num": "1", "den": "1"}]])
                for e in d["modes"]["products"]
                if e[0] == [1, 0] and e[1] == [1, 0]
            ],
        ),
        (
            "jacobi",
            lambda d: [
                e[2].append([[1, 1], [{"radicand": 1, "num": "1", "den": "1"}]])
                for e in d["modes"]["products"]
                if e[0] == [1, 0] and e[1] == [1, 0]
            ],
        ),
        # scaled f with stale metric -> killing consistency breaks
        (
            "invariance",
            lambda d: [
                e.__setitem__(3, [{"radicand": 1, "num": "2", "den": "1"}])
                for e in d["base"]["f"]
                if e[:3] == [1, 2, 3]
            ],
        ),
        # corrupted eigenvalue -> hermiticity breaks
        (
            "cocycle",
            lambda d: [
                e.__setitem__(1, ["2"])
                for e in d["modes"]["eigen"]
                if e[0] == [1, 1]
            ],
        ),
        # magnitude-tampered product coefficient -> oracle disagrees
        (
            "oracle",
            lambda d: [
                e[2].__setitem__(
                    [k[0] for k in e[2]].index([2, 0]),
                    [[2, 0], [{"radicand": 5, "num": "4", "den": "5"}]],
                )
                for e in d["modes"]["products"]
                if e[0] == [1, 0] and e[1] == [1, 0]
            ],
        ),
    ],
)
def test_every_suite_fails_on_designed_negative(s2_dump, tmp_path, suite, mutate, capsys):
    tampered = _tamper(s2_dump, tmp_path, mutate)
    code = main(["verify", str(tampered), "--suite", suite])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    failing = [c for c in out["checks"] if not c["passed"]]
    assert failing and all("witness" in c for c in failing)
    assert "replay" in failing[0]["witness"]

    def failing_checks():
        checks = json.loads(capsys.readouterr().out)["checks"]
        return [{k: v for k, v in c.items() if k != "wall_time_s"} for c in checks if not c["passed"]]

    # a non-default oracle count must survive the replay line; a 7-quantity draw
    # catches the tampered oracle coefficient only at some seeds, so take the first
    for seed in range(200):
        argv = ["verify", str(tampered), "--suite", suite, "--seed", str(seed)]
        if main(argv + ["--oracle-samples", "7"]) == 3:
            break
        capsys.readouterr()
    found = failing_checks()
    assert found, "no seed caught the tamper"
    replay = shlex.split(found[0]["witness"]["replay"])
    assert replay[:2] == ["gkmalg", "verify"]
    assert main(replay[1:]) == 3
    assert failing_checks() == found


def test_the_oracle_draws_under_the_budget_by_default(tmp_path, capsys):
    path = tmp_path / "c4.json"
    args = ["--algebra", "su2", "--manifold", "s2", "--cutoff", "4", "--charges", "1"]
    assert main(["build", *args, "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--suite", "oracle"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "oracle_agreement" and check["regime"] == "exhaustive"
    assert check["details"]["samples"] == check["details"]["population"] == 1528
    # a failure's replay line names the count the oracle drew: the budget, unless overridden
    data = json.loads(path.read_text())
    for entry in data["modes"]["eta"]:
        entry[2] = -entry[2]
    path.write_text(json.dumps(data))
    for extra, drawn in (([], "1000"), (["--oracle-samples", "2000"], "2000")):
        assert main(["verify", str(path), "--suite", "oracle", "--budget", "1000", *extra]) == 3
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["details"]["samples"] <= int(drawn)
        assert shlex.split(check["witness"]["replay"])[-2:] == ["--oracle-samples", drawn]


@pytest.fixture()
def t2_dump(tmp_path):
    path = tmp_path / "t2.json"
    save_algebra(build_algebra("su2", "t2", 1, charges=[1, 1]), path)
    return path


def test_hierarchy_reads_the_products_of_the_dump(t2_dump, tmp_path):
    def double(data):
        # the product of mode (1, 0) with the unit (0, 0), the image of rho_1 rho_0
        row = next(e[2] for e in data["modes"]["products"] if e[:2] == [[1, 0], [0, 0]])
        next(recs for K, recs in row if K == [1, 0])[0]["num"] = "2"

    result = torus_hierarchy_check(load_algebra(_tamper(t2_dump, tmp_path, double)))
    assert (result.name, result.passed) == ("torus_hierarchy_2to1", False)
    assert result.witness["kind"] == "structure constants differ under the embedding"


def test_tampered_structure_constant_fails_the_hierarchy(t2_dump, tmp_path, capsys):
    def double(data):
        next(e for e in data["base"]["f"] if e[:3] == [2, 3, 1])[3][0]["num"] = "2"

    bad = _tamper(t2_dump, tmp_path, double)
    assert main(["verify", str(bad), "--suite", "all"]) == 3
    captured = capsys.readouterr()
    failing = {c["name"] for c in json.loads(captured.out)["checks"] if not c["passed"]}
    assert "torus_hierarchy_2to1" in failing and captured.err == ""


@functools.cache
def _small_dump(manifold, base="su2"):
    r = parse_manifold(manifold).r
    return dump_algebra(build_algebra(base, manifold, 1, charges=[1] * r))


def _entry_mutations(data):
    """Every single-entry mutation of a dump that changes it: ``(path, new value)``.

    The entries are the indices of each f and g entry (set to every index in
    range), the num and radicand of each f, g and product record, each eta
    phase and partner, and each eigenvalue.
    """
    base, ms = data["base"], data["modes"]
    records = [("base", "f", e, 3) for e in range(len(base["f"]))]
    records += [("base", "g", e, 2) for e in range(len(base["g"]))]
    records += [
        ("modes", "products", e, 2, k, 1)
        for e, row in enumerate(ms["products"])
        for k in range(len(row[2]))
    ]
    out = [
        (("base", table, e, k), a)
        for table, width in (("f", 3), ("g", 2))
        for e in range(len(base[table]))
        for k in range(width)
        for a in range(1, base["dim"] + 1)
    ]
    for path in records:
        for r, rec in enumerate(_entry(data, path)):
            num = int(rec["num"])
            out += [(path + (r, "num"), str(num + 1)), (path + (r, "num"), str(-num))]
            out.append((path + (r, "radicand"), rec["radicand"] + 1))
    for e, (_, partner, phase) in enumerate(ms["eta"]):
        out.append((("modes", "eta", e, 2), -phase))
        out += [(("modes", "eta", e, 1), K) for K in ms["modes"] if K != partner]
    for e, (_, values) in enumerate(ms["eigen"]):
        for j, v in enumerate(values):
            path = ("modes", "eigen", e, 1, j)
            out += [(path, str(Fraction(v) + 1)), (path, str(-Fraction(v)))]
    return [(path, value) for path, value in out if _entry(data, path) != value]


def _entry(data, path):
    for key in path:
        data = data[key]
    return data


def _loaded_mutations(manifold, base="su2"):
    """``(path, algebra)`` for each single-entry mutation of a small dump that loads."""
    dump = _small_dump(manifold, base)
    text = json.dumps(dump)
    for path, value in _entry_mutations(dump):
        data = json.loads(text)
        _entry(data, path[:-1])[path[-1]] = value
        try:
            yield path, load_algebra(data)
        except DumpFormatError:
            continue


MUTATIONS = [(m, *mutation) for m in ("s2", "t2") for mutation in _entry_mutations(_small_dump(m))]


def _in_writer_form(records) -> bool:
    """Whether a surd record list is as the writer gives it.

    Radicands strictly increasing and squarefree, terms nonzero, and each
    num/den in lowest terms with a positive den, written as plain integers.
    """
    radicands = [rec["radicand"] for rec in records]
    if radicands != sorted(set(radicands)):
        return False
    for rec in records:
        d, num, den = rec["radicand"], int(rec["num"]), int(rec["den"])
        if d < 1 or any(d % (p * p) == 0 for p in range(2, d + 1)):
            return False
        if not num or den < 1 or gcd(num, den) != 1:
            return False
        if (rec["num"], rec["den"]) != (str(num), str(den)):
            return False
    return True


def _leaves_writer_form(mutation) -> bool:
    """Whether a mutation edits a surd record list out of the writer's form."""
    manifold, path, value = mutation
    if path[-1] not in ("num", "radicand"):
        return False
    records = copy.deepcopy(_entry(_small_dump(manifold), path[:-2]))
    records[path[-2]][path[-1]] = value
    return not _in_writer_form(records)


# a num+1 that gives "0" or a radicand+1 that gives 16: malformed, not a wrong value
MALFORMED_MUTATIONS = [m for m in MUTATIONS if _leaves_writer_form(m)]


def _assert_malformed(data) -> None:
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err):
        dump = Path(tmp) / "mutated.json"
        dump.write_text(json.dumps(data))
        assert main(["verify", str(dump), "--suite", "all"]) == 1
    assert err.getvalue().startswith("error: malformed dump: ")


def _verify(argv):
    """Exit code and failing checks (without wall times) of one ``gkmalg verify``."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    failing = [c for c in json.loads(out.getvalue())["checks"] if not c["passed"]]
    return code, [{k: v for k, v in c.items() if k != "wall_time_s"} for c in failing]


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.sampled_from(MUTATIONS))
def test_every_single_entry_mutation_fails_verification_and_replays(mutation):
    manifold, path, value = mutation
    data = copy.deepcopy(_small_dump(manifold))
    _entry(data, path[:-1])[path[-1]] = value
    if mutation in MALFORMED_MUTATIONS:
        _assert_malformed(data)
        return
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "mutated.json"
        dump.write_text(json.dumps(data))
        code, failing = _verify(["verify", str(dump), "--suite", "all"])
        assert code == 3, (manifold, path, value)
        replay = shlex.split(failing[0]["witness"]["replay"])
        assert replay[:2] == ["gkmalg", "verify"]
        assert _verify(replay[1:]) == (3, failing)


def _flip_base_vector(data, a):
    """The basis change x_a -> -x_a of a dump: negate each f entry with an odd count of index a.

    g is diagonal, so it is unchanged, and the algebra stays isomorphic to the named one.
    """
    for entry in data["base"]["f"]:
        if entry[:3].count(a) % 2:
            entry[3] = [{**rec, "num": str(-int(rec["num"]))} for rec in entry[3]]


COHERENT_TAMPERS = [
    (base, manifold, a)
    for base, dim, manifolds in (("su2", 3, ("s2", "s3")), ("su3", 8, ("s2", "t1")))
    for manifold in manifolds
    for a in range(1, dim + 1)
]


@pytest.mark.parametrize("base,manifold,a", COHERENT_TAMPERS)
def test_a_coherent_sign_flip_of_the_base_fails_base_tables(base, manifold, a, tmp_path):
    # every identity still holds on the flipped tables, so only their identity with the name fails
    alg = build_algebra(base, manifold, 1, charges=[1] * parse_manifold(manifold).r)
    data = dump_algebra(alg)
    _flip_base_vector(data, a)
    checks = {c.name: c for c in run_suites(load_algebra(data), "all").checks}
    assert checks[f"jacobi_finite[{base}]"].passed and checks["killing_consistency"].passed
    assert not checks["base_tables"].passed
    dump = tmp_path / "flipped.json"
    dump.write_text(json.dumps(data))
    code, failing = _verify(["verify", str(dump), "--suite", "all"])
    assert code == 3 and "base_tables" in [c["name"] for c in failing]


def test_a_mutation_out_of_the_writers_form_is_malformed():
    edited = sorted((m, path[-1]) for m, path, _ in MALFORMED_MUTATIONS)
    assert edited == [("s2", "num")] * 3 + [("s2", "radicand")] * 4 + [("t2", "num")]
    for manifold, path, value in MALFORMED_MUTATIONS:
        data = copy.deepcopy(_small_dump(manifold))
        _entry(data, path[:-1])[path[-1]] = value
        _assert_malformed(data)


def test_exhaustive_invariance_equals_every_triple_summed(dense_invariance):
    """Skipping the triples with no form partner changes no verdict, count or witness."""
    loaded = 0
    for manifold in ("s2", "t2", "s3"):
        for path, alg in _loaded_mutations(manifold):
            loaded += 1
            result = invariance_check(alg, sample="all")
            assert (result.passed, result.details, result.witness) == dense_invariance(alg), path
    assert loaded == 684


@pytest.mark.parametrize(
    "base,manifold", [("su2", "s2"), ("su3", "s2"), ("su2", "t2"), ("su2", "s3")]
)
def test_pairing_table_grading_and_antisymmetry_decide_as_their_walks(walked, base, manifold):
    """Deciding from the factors changes no verdict, count or witness of any of the three checks."""
    failures = 0
    for path, alg in _loaded_mutations(manifold, base):
        for name, check, walk in (
            ("killing_table", killing_table_check, _killing_table_walk),
            ("grading", grading_check, _grading_walk),
            ("bracket_antisymmetry", antisymmetry_check, _antisymmetry_walk),
        ):
            result, reference = check(alg), walked(name, walk, alg)
            assert (result.passed, result.details, result.witness) == (
                reference.passed, reference.details, reference.witness
            ), (name, path)
            failures += not reference.passed
    assert failures > 0


def test_no_base_block_mutation_fails_the_finite_checks_alone():
    # the loader takes a known name and base_tables compares the stored f and g with its
    # proven tables, so jacobi_finite and killing_consistency add a witness but no catch
    loaded, alone = 0, []
    for manifold in ("s2", "t2"):
        for path, alg in _loaded_mutations(manifold):
            if path[0] != "base":
                continue
            loaded += 1
            finite = (
                jacobi_check_finite(alg.base.f, alg.base.dim, alg.base.name),
                killing_consistency_check(alg),
            )
            if base_tables_check(alg).passed and not all(check.passed for check in finite):
                alone.append(path)
    assert (loaded, alone) == (94, [])


LABEL =("modes", "products", 1, 2, 0, 0)  # the s2 entry [1, -1] of rho_(0,0) rho_(1,-1)
RADICAND = ("modes", "products", 0, 2, 0, 1, 0, "radicand")
# a record {1, "1", "1"} read after an equal one (row 0's), so a memo of record lists could alias it
LATER = ("modes", "products", 1, 2, 0, 1, 0)
INEXACT_VALUES = [
    ("s2", ("modes", "eta", 0, 2), 1.5),
    ("s2", ("modes", "eta", 0, 2), True),
    ("s2", ("modes", "eta", 0, 2), "1"),
    ("s2", ("base", "f", 0, 1), 2.7),
    ("s2", ("base", "f", 0, 0), 9),
    ("s2", ("base", "g", 2, 0), 0),  # would alias g index 3
    ("s2", LABEL, [1.9, -1]),
    ("s2", LABEL, [1, 5]),
    ("s2", LABEL, [1, 2, 3]),
    ("s2", LABEL, [-1, 0]),
    ("s2", ("modes", "modes", 1), [1.0, -1]),
    ("s2", ("modes", "eta", 0, 1), [1, 2, 3]),
    ("s2", ("modes", "eta", 0, 1), [5, 9]),
    ("s2", RADICAND, 1.5),
    ("s2", RADICAND, True),
    ("s2", ("base", "g", 0, 2, 0, "num"), 2.5),
    ("s2", ("base", "g", 0, 2, 0, "den"), 1.0),
    ("s2", ("modes", "eigen", 0, 1, 0), 0.0),
    ("s2", ("modes", "cutoff"), 1.9),
    ("s2", ("modes", "r"), 1.0),
    ("s2", ("base", "dim"), "3"),
    ("t2", ("modes", "geometry", "n"), 2.5),
    ("s2", ("generators", 0), ["T", True, [0, 0]]),
    ("s2", ("generators", 1), ["T", 1.0, [1, -1]]),
    ("s2", LATER + ("radicand",), True),
    ("s2", LATER + ("radicand",), 1.0),
    # numeric text the writer never gives: it is read in one spelling only
    *[("s2", LATER + ("num",), text) for text in (" 1", "+1", "01", "1 ", "\u0661")],
    ("s2", LATER + ("den",), "01"),
    ("s2", ("modes", "eigen", 1, 1, 0), "-1.0"),
    ("s2", ("charges", 0), "1.0"),
    ("s2", ("charges", 0), "2/2"),
    # records equal in value to {1, "1", "1"} in a form the writer never gives
    ("s2", LATER, {"radicand": 4, "num": "1", "den": "2"}),
    ("s2", LATER, {"radicand": 1, "num": "2", "den": "2"}),
    ("s2", LATER, {"radicand": 1, "num": "-1", "den": "-1"}),
]


@pytest.mark.parametrize(
    "manifold,path,value",
    INEXACT_VALUES,
    ids=[f"{m}:{'.'.join(map(str, path))}={value!r}" for m, path, value in INEXACT_VALUES],
)
def test_a_value_the_loader_cannot_read_exactly_is_malformed(manifold, path, value, capsys):
    data = copy.deepcopy(_small_dump(manifold))
    assert json.dumps(_entry(data, path)) != json.dumps(value)
    _entry(data, path[:-1])[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "inexact.json"
        dump.write_text(json.dumps(data))
        assert main(["verify", str(dump), "--suite", "all"]) == 1
    assert capsys.readouterr().err.startswith("error: malformed dump: ")


@pytest.mark.parametrize("value", ["yes", 1, [0], "deleted"], ids=repr)
def test_half_integer_must_be_a_json_boolean(value):
    data = copy.deepcopy(_small_dump("s3"))
    geometry = data["modes"]["geometry"]
    if value == "deleted":
        del geometry["half_integer"]
    else:
        geometry["half_integer"] = value
    with pytest.raises(DumpFormatError, match="unsupported manifold record"):
        load_algebra(data)


def test_verify_rejects_a_half_integer_that_is_not_a_boolean(tmp_path, capsys):
    data = copy.deepcopy(_small_dump("s3"))
    assert load_algebra(data).modes.geometry.name == "s3"
    data["modes"]["geometry"]["half_integer"] = "yes"
    dump = tmp_path / "s3.json"
    dump.write_text(json.dumps(data))
    assert main(["verify", str(dump)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed dump: unsupported manifold record")
    integer = dump_algebra(build_algebra("su2", "s3-integer", 2, charges=[1, 1]))
    assert integer["modes"]["geometry"]["half_integer"] is False
    assert load_algebra(integer).modes.geometry.name == "s3-integer"


@pytest.mark.parametrize("manifold,cutoff", [("s2", 3), ("s3", 2), ("t2", 1)])
def test_a_load_builds_one_object_per_distinct_coefficient(manifold, cutoff):
    r = parse_manifold(manifold).r
    data = dump_algebra(build_algebra("su2", manifold, cutoff, charges=[1] * r))
    loaded = load_algebra(data)
    values = [c for row in loaded.modes.products.values() for c in row.values()]
    assert len({id(c) for c in values}) == len(set(values)) < len(values)
    stored = {(tuple(I), tuple(J)): entries for I, J, entries in data["modes"]["products"]}
    for pair, row in loaded.modes.products.items():
        for K, records in stored[pair]:
            assert row[tuple(K)] == SurdScalar.from_records(records)
    again = dump_algebra(loaded)
    data.pop("provenance")
    again.pop("provenance")
    assert again == data


@functools.cache
def _bracket_dump():
    return dump_algebra(build_algebra("su2", "s2", 1, charges=[1]), include_brackets=True)


def _bracket_mutations(data):
    """Every num and radicand of the bracket table, each edited once: ``(path, new value)``."""
    out = []
    for e, (_, _, outputs) in enumerate(data["brackets"]):
        for k, (_, value) in enumerate(outputs):
            for part, records in value.items():
                for r, rec in enumerate(records):
                    path = ("brackets", e, 2, k, 1, part, r)
                    out.append((path + ("num",), str(int(rec["num"]) + 1)))
                    out.append((path + ("radicand",), rec["radicand"] + 1))
    return out


@pytest.mark.parametrize("manifold,entries", [("s2", 114), ("t2", 582), ("s3", 210)])
def test_a_stored_bracket_table_is_checked_entry_by_entry(manifold, entries):
    r = parse_manifold(manifold).r
    data = dump_algebra(build_algebra("su2", manifold, 1, charges=[1] * r), include_brackets=True)
    assert load_algebra(_small_dump(manifold)).stored_brackets is None
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "brackets.json"
        dump.write_text(json.dumps(data))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["verify", str(dump), "--suite", "all"]) == 0
    check = next(c for c in json.loads(out.getvalue())["checks"] if c["name"] == "bracket_table")
    assert (check["regime"], check["details"]["entries"]) == ("exhaustive", entries)


@pytest.mark.parametrize("radicand", [True, 1.0])
def test_the_bracket_table_is_compared_as_json(radicand):
    data = copy.deepcopy(_bracket_dump())
    records = data["brackets"][0][2][0][1]["im"]
    assert records[0]["radicand"] == 1
    records[0]["radicand"] = radicand
    result = bracket_table_check(load_algebra(data))
    assert (result.passed, result.details["entries"], result.witness["entry"]) == (False, 1, 0)


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(st.sampled_from(_bracket_mutations(_bracket_dump())))
def test_every_bracket_table_edit_fails_the_bracket_table_and_replays(mutation):
    path, value = mutation
    data = copy.deepcopy(_bracket_dump())
    stored = copy.deepcopy(_entry(data, path[:2]))
    _entry(data, path[:-1])[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "mutated.json"
        dump.write_text(json.dumps(data))
        code, failing = _verify(["verify", str(dump), "--suite", "all"])
        assert (code, [c["name"] for c in failing]) == (3, ["bracket_table"])
        assert failing[0]["witness"]["entry"] == path[1]
        assert failing[0]["witness"]["derived"] == stored
        replay = shlex.split(failing[0]["witness"]["replay"])
        assert _verify(replay[1:]) == (3, failing)


def test_report_contract_regimes_seeds_and_item_keys():
    alg = build_algebra("su2", "t2", 1, charges=[1, 1])
    report = run_suites(alg, "all", seed=4, budget=200, oracle_samples=50)
    item_keys = {"triples", "pairs", "bracket_pairs", "entries", "samples", "modes", "dim"}
    regimes = set()
    for check in report.checks:
        regimes.add(check.regime)
        assert check.regime in ("exhaustive", "sampled", "skipped"), check.name
        assert (check.seed is not None) == (check.regime == "sampled"), check.name
        if check.regime != "skipped":
            assert len(item_keys & set(check.details)) == 1, check.name
    assert regimes == {"exhaustive", "sampled"}


def test_report_stats_block_is_additive():
    alg = build_algebra("su2", "s2", 1, charges=[1])
    report = run_suites(alg, "all", seed=0, budget=100, oracle_samples=10)
    data = report.to_dict()
    assert set(data) == {"passed", "checks", "stats"}
    assert data["stats"] == {
        "bracket_rows": sum(map(len, alg._pair_cache.values())),
        "ext_products": len(alg.modes._ext_products),
        "wigner_cache": cache_size(),
    }
    assert min(data["stats"].values()) > 0
    assert VerificationReport.from_dict(json.loads(json.dumps(data))).to_dict() == data
    assert set(VerificationReport(checks=report.checks).to_dict()) == {"passed", "checks"}


def test_roots_cli(s2_dump, capsys):
    assert main(["roots", str(s2_dump), "--alpha", "+a", "--n", "0"]) == 0
    out = capsys.readouterr().out
    assert "dimension 3" in out
    assert main(["roots", str(s2_dump), "--alpha", "1", "--n", "5"]) == 0
    assert "dimension 0" in capsys.readouterr().out
    assert main(["roots", str(s2_dump), "--alpha", "0", "--n", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 2  # H at modes (1,1) and (2,1)


def test_roots_cli_rejects_u1(tmp_path, capsys):
    path = tmp_path / "u1.json"
    assert main(["build", "--algebra", "u1", "--manifold", "t1", "--cutoff", "1", "--charges", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["roots", str(path), "--alpha", "+a", "--n", "0"]) == 2


def test_build_rejects_a_charge_with_zero_denominator(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["build", "--algebra", "su2", "--manifold", "s2", "--cutoff", "1", "--charges", "1/0", "--out", out]) == 2
    assert "bad charges '1/0'" in capsys.readouterr().err


def test_build_into_a_missing_directory_is_an_io_failure(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.json")
    assert main(["build", "--algebra", "su2", "--manifold", "s2", "--cutoff", "1", "--charges", "1", "--out", out]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_roots_on_a_dump_that_is_not_json_is_an_io_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["roots", str(bad), "--alpha", "0", "--n", "0"]) == 1
    assert "cannot read dump" in capsys.readouterr().err


def test_roots_rejects_an_eigenvalue_vector_of_the_wrong_length(s2_dump, capsys):
    assert main(["roots", str(s2_dump), "--alpha", "0", "--n", "0,1"]) == 2
    assert "eigenvalue vector must have length 1" in capsys.readouterr().err


def test_roots_rejects_a_named_root_above_rank_one(tmp_path, capsys):
    path = tmp_path / "su3.json"
    assert main(["build", "--algebra", "su3", "--manifold", "s2", "--cutoff", "0", "--charges", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["roots", str(path), "--alpha", "+a", "--n", "0"]) == 2
    assert "named roots +a/-a only make sense at rank 1" in capsys.readouterr().err


def test_run_suites_rejects_an_unknown_suite():
    alg = build_algebra("su2", "t1", 0, charges=[1])
    with pytest.raises(ValueError, match="unknown suite 'bogus'") as info:
        run_suites(alg, "bogus")
    assert str(SUITES) in str(info.value)


def test_wigner_cli(capsys):
    assert main(["wigner", "--3j", "1", "1", "0", "0", "0", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("-(1/3)√3")
    assert "-0.5773502691896257" in out
    assert main(["wigner", "--3j", "1", "2", "4", "0", "0", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    # half-integers as fractions
    assert main(["wigner", "--3j", "1/2", "1/2", "1", "1/2", "-1/2", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["float"] == pytest.approx(1 / 6**0.5)
    # malformed labels exit 2
    assert main(["wigner", "--3j", "1", "1", "1", "2", "0", "0"]) == 2
    assert main(["wigner", "--3j", "1/3", "1", "1", "0", "0", "0"]) == 2


def test_wigner_cache_variable_is_ignored(tmp_path, monkeypatch, capsys):
    # [2, 2, 2, -2, 0, 0] is the memo key of (1 1 0; 1 -1 0) = sqrt(3)/3; the file says 7
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    poisoned = [[[2, 2, 2, -2, 0, 0], [{"radicand": 1, "num": "7", "den": "1"}]]]
    (cache_dir / "wigner3j-cache.json").write_text(json.dumps(poisoned))
    before = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
    monkeypatch.setenv("GKMALG_WIGNER_CACHE", str(cache_dir))
    clear_cache()
    assert main(["wigner", "--3j", "1", "1", "0", "1", "-1", "0", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["float"] == pytest.approx(3**0.5 / 3)
    out = tmp_path / "a.json"
    build = ["build", "--algebra", "su2", "--manifold", "s2", "--cutoff", "2", "--charges", "1"]
    assert main([*build, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    clear_cache()
    expected = dump_algebra(build_algebra("su2", "s2", 2, charges=[1]))
    assert json.loads(out.read_text())["modes"] == expected["modes"]
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == before


def test_build_with_brackets_flag(tmp_path, capsys):
    path = tmp_path / "b.json"
    code = main(
        ["build", "--algebra", "su2", "--manifold", "t1", "--cutoff", "1",
         "--charges", "1", "--out", str(path), "--brackets"]
    )
    assert code == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert data["brackets"], "bracket table requested but missing"
    loaded = load_algebra(str(path))
    assert run_suites(loaded, suite="jacobi").passed


@pytest.mark.parametrize("setting", [None, "1"])
def test_internal_error_traceback_is_opt_in(monkeypatch, capsys, setting):
    def boom(args):
        raise RuntimeError("bracket rows and elements disagree")

    monkeypatch.setattr("gkmalg.cli._cmd_wigner", boom)
    if setting is None:
        monkeypatch.delenv("GKMALG_TRACEBACK", raising=False)
    else:
        monkeypatch.setenv("GKMALG_TRACEBACK", setting)
    assert main(["wigner", "--3j", "1", "1", "0", "0", "0", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: bracket rows and elements disagree\n")
    if setting is None:
        assert err == "internal error: bracket rows and elements disagree\n"
    else:
        assert "Traceback (most recent call last)" in err
        assert err.rstrip().endswith("RuntimeError: bracket rows and elements disagree")
