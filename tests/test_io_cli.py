import json
import shlex
from fractions import Fraction

import pytest

from gkmalg.algebra import build_algebra
from gkmalg.cli import main
from gkmalg.report import VerificationReport
from gkmalg.serialize import DumpFormatError, dump_algebra, load_algebra, save_algebra
from gkmalg.verify import run_suites


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


def test_build_usage_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["build", "--algebra", "su2", "--manifold", "s5", "--cutoff", "1", "--charges", "1", "--out", out]) == 2
    assert main(["build", "--algebra", "so9", "--manifold", "s2", "--cutoff", "1", "--charges", "1", "--out", out]) == 2
    assert main(["build", "--algebra", "su2", "--manifold", "t2", "--cutoff", "1", "--charges", "1", "--out", out]) == 2  # charge count
    assert main(["build", "--algebra", "su2", "--manifold", "s2", "--cutoff", "-1", "--charges", "1", "--out", out]) == 2
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


def test_verify_corrupt_dump_exit1(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text("{\"schema_version\": 1}")
    assert main(["verify", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["verify", str(missing)]) == 1


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


def test_wigner_cache_env(tmp_path, monkeypatch, capsys):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("GKMALG_WIGNER_CACHE", str(cache_dir))
    assert main(["wigner", "--3j", "2", "2", "2", "1", "-1", "0"]) == 0
    capsys.readouterr()
    cache_file = cache_dir / "wigner3j-cache.json"
    assert cache_file.exists()
    entries = json.loads(cache_file.read_text())
    assert entries
    # second run loads the cache without error and reproduces the value
    assert main(["wigner", "--3j", "2", "2", "2", "1", "-1", "0"]) == 0


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
