"""One benchmark run in one fresh process: warm-up, timed passes, correctness gate.

A job is one case of a workload, driven in-process the way the CLI drives
it: ``build_algebra`` -> ``dump_algebra`` -> JSON text (``gkmalg build``),
then JSON text -> ``load_algebra`` -> ``run_suites`` -> ``report.to_dict()``
-> JSON (``gkmalg verify``).  A pass runs every case of the workload once.
Every job is checked against ``expected.json``; the gate runs outside the
timed regions.  Times are rescaled to a reference machine speed (speed.py).

Started by ``run.py``, which sets the isolation environment.  Modes:

    worker.py --workload W --seed N --seconds S --trace 0|1 [--tamper]
    worker.py --probe      # print the (rescaled) seconds taken by `import gkmalg`
    worker.py --record     # rewrite expected.json from the current program
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import re
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from workloads import WORKLOADS, Case, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
SPANS_DIR = HERE / "out"

# details key holding a check's item count, in order of preference
ITEM_KEYS = ("triples", "pairs", "bracket_pairs", "entries", "samples", "modes", "dim")


def import_gkmalg(clock=perf_counter) -> float:
    """Import gkmalg from this checkout's src/ only; returns the import time."""
    if not (SRC / "gkmalg" / "__init__.py").is_file():
        sys.exit(f"error: no gkmalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = clock()
    import gkmalg

    elapsed = clock() - start
    if Path(gkmalg.__file__).resolve().parent != (SRC / "gkmalg").resolve():
        sys.exit(f"error: imported gkmalg from {gkmalg.__file__}, not from {SRC}")
    return elapsed


def items_of(check: dict) -> int:
    details = check.get("details", {})
    return next((int(details[k]) for k in ITEM_KEYS if k in details), 0)


def canonical_sha256(payload: dict) -> str:
    """Digest of a dump with its timestamped provenance dropped."""
    body = {k: v for k, v in payload.items() if k != "provenance"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tamper(payload: dict) -> None:
    """Change one stored product coefficient of a mixed pair (I != J)."""
    for I, J, entries in payload["modes"]["products"]:
        if I != J and entries:
            record = entries[0][1][0]
            record["num"] = str(int(record["num"]) + 1)
            return
    raise ValueError("dump has no product entry to tamper with")


@dataclass
class Job:
    case: Case
    build_s: float = 0.0
    verify_s: float = 0.0
    marks: tuple[int, int, int] = (0, 0, 0)  # speed-probe marks at start, built, end
    json_bytes: int = 0
    payload: dict | None = None
    report: dict | None = None
    error: str | None = None


def run_job(
    wl: Workload, case: Case, seed: int, probe: SpeedProbe | None = None, tracer=None, corrupt=False
) -> Job:
    """Build, dump, load, verify and report one case, timing both halves."""
    from gkmalg import algebra, serialize, verify
    from gkmalg.modes import parse_manifold

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    clock = probe.clock if probe is not None else perf_counter
    mark = probe.mark if probe is not None else (lambda: 0)
    job = Job(case)
    charges = ",".join(["1"] * parse_manifold(case.manifold).r)
    try:
        first = mark()
        start = clock()
        alg = algebra.build_algebra(case.algebra, case.manifold, case.cutoff, charges.split(","))
        payload = serialize.dump_algebra(
            alg,
            build_params={
                "algebra": case.algebra,
                "manifold": case.manifold,
                "cutoff": case.cutoff,
                "charges": charges,
            },
        )
        if corrupt:
            tamper(payload)
        with span("serialize.encode"):
            text = json.dumps(payload)
        built = clock()
        middle = mark()
        with span("serialize.decode"):
            data = json.loads(text)
        loaded = serialize.load_algebra(data)
        report = verify.run_suites(
            loaded,
            suite=wl.suite,
            seed=seed,
            budget=wl.budget,
            oracle_samples=wl.oracle_samples,
        ).to_dict()
        json.dumps(report)
        job.verify_s = clock() - built
        job.build_s = built - start
        job.marks = (first, middle, mark())
    except Exception as exc:  # a crashing program is a failed job, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        job.error = f"{type(exc).__name__}: {exc}"
        return job
    job.payload, job.report, job.json_bytes = payload, report, len(text)
    return job


def gate(job: Job, expected: dict) -> list[str]:
    """Every mismatch between a job's outputs and the recorded expectations.

    Each recorded check must be present with the same regime and item count;
    checks added by a later program version are allowed.
    """
    if job.error is not None:
        return [f"{job.case.id}: {job.error}"]
    errors = []
    if canonical_sha256(job.payload) != expected["sha256"]:
        errors.append(f"{job.case.id}: dump digest differs from the recorded one")
    if not job.report["passed"]:
        failed = [c["name"] for c in job.report["checks"] if not c["passed"]]
        errors.append(f"{job.case.id}: report failed checks {failed}")
    got = {c["name"]: [c["regime"], items_of(c)] for c in job.report["checks"]}
    for name, want in expected["checks"].items():
        if got.get(name) != want:
            errors.append(f"{job.case.id}: check {name} expected {want}, got {got.get(name)}")
    return errors


@dataclass
class Pass:
    jobs: list[Job]
    wigner_misses: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    raw_wall_s: float = 0.0  # before rescaling to the reference speed

    @property
    def build_s(self) -> float:
        return sum(j.build_s for j in self.jobs)

    @property
    def verify_s(self) -> float:
        return sum(j.verify_s for j in self.jobs)

    @property
    def wall_s(self) -> float:
        return self.build_s + self.verify_s

    def items(self) -> dict[str, int]:
        """Items checked, summed over jobs, per report check name."""
        out: dict[str, int] = {}
        for job in self.jobs:
            for check in (job.report or {}).get("checks", []):
                out[check["name"]] = out.get(check["name"], 0) + items_of(check)
        return out


def run_pass(
    wl: Workload,
    rng: random.Random,
    expected: dict,
    probe: SpeedProbe | None = None,
    tracer=None,
    corrupt=False,
) -> Pass:
    """Every case once; with ``corrupt``, the first case's dump is tampered with.

    With a probe, each job's two timed halves are rescaled to the reference speed.
    """
    from gkmalg import wigner

    if wl.cold_wigner:
        wigner.clear_cache()
    size = wigner.cache_size()
    done = Pass([])
    for i, case in enumerate(wl.cases):
        gc.collect()  # each CLI step starts as a fresh process, with nothing left to collect
        job = run_job(wl, case, rng.randrange(2**31), probe, tracer, corrupt=corrupt and i == 0)
        errors = gate(job, expected[case.id])
        job.payload = None  # a CLI process would not hold the previous dump
        done.jobs.append(job)
        done.failed += bool(errors)
        done.errors.extend(errors)
    done.wigner_misses = wigner.cache_size() - size
    done.raw_wall_s = done.wall_s
    if probe is not None:
        for job in done.jobs:
            first, middle, last = job.marks
            job.build_s *= probe.scale(first, middle)
            job.verify_s *= probe.scale(middle, last)
    return done


def traced_pass(wl: Workload, rng: random.Random, expected: dict, probe: SpeedProbe):
    """One traced pass, its per-layer metrics and its tracer."""
    import tracer as tr

    tracer = tr.Tracer()
    since = probe.mark()
    with tr.installed(tracer):
        done = run_pass(wl, rng, expected, probe, tracer)
    scale = probe.scale(since)
    items: dict[str, int] = {}
    for name, count in done.items().items():
        family = next((c for c in tr.CHECKS if name.startswith(c)), None)
        if family is not None:
            items[family] = items.get(family, 0) + count
    metrics = tr.layer_metrics(
        tracer.summarise(),
        items,
        json_bytes=sum(j.json_bytes for j in done.jobs),
        wigner_misses=done.wigner_misses,
    )
    for name, value in metrics.items():
        if tr.UNITS[name] in ("s", "us"):
            metrics[name] = value * scale
    return done, metrics, tracer


def measure(
    wl: Workload, seed: int, seconds: float, trace: bool, corrupt: bool, probe: SpeedProbe
) -> dict:
    prep_start = probe.clock()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[wl.name]
    rng = random.Random(seed)
    prep_s = (probe.clock() - prep_start) * probe.scale(0)

    started = perf_counter()
    warmup = run_pass(wl, rng, expected, probe, corrupt=corrupt)
    longest = perf_counter() - started
    stop = perf_counter() + seconds
    passes: list[Pass] = [warmup]
    timed: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    last_tracer = None
    while not any(p.errors for p in passes):
        enough = timed and (traced or not trace)
        if enough and perf_counter() + longest > stop:
            break
        started = perf_counter()
        if trace and len(traced) <= len(timed):
            done, metrics, last_tracer = traced_pass(wl, rng, expected, probe)
            traced.append((done, metrics))
        else:
            done = run_pass(wl, rng, expected, probe, corrupt=corrupt)
            timed.append(done)
        passes.append(done)
        longest = max(longest, perf_counter() - started)

    errors = [e for p in passes for e in p.errors]
    result = {
        "correct": not errors,
        "attempted": sum(len(p.jobs) for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": errors[:10],
        "passes": len(timed),
        "traced_passes": len(traced),
        "warmup_s": warmup.wall_s,
        "prep_s": prep_s,
        "raw_wall_s": statistics.median(p.raw_wall_s for p in timed) if timed else 0.0,
        "metrics": {},
    }
    if errors:
        return result
    if trace:
        import tracer as tr

        per_layer = tr.median_metrics([m for _, m in traced])
        per_layer["trace.overhead_s"] = statistics.median(
            p.wall_s for p, _ in traced
        ) - statistics.median(p.wall_s for p in timed)
        result["metrics"] = {k: {"value": per_layer[k], "unit": u} for k, u in tr.UNITS.items()}
        SPANS_DIR.mkdir(exist_ok=True)
        last_tracer.write(SPANS_DIR / f"spans-{wl.name}-seed{seed}.json.gz")
        return result
    result["metrics"] = {
        "wall_s": {"value": statistics.median(p.wall_s for p in timed), "unit": "s"},
        "build_s": {"value": statistics.median(p.build_s for p in timed), "unit": "s"},
        "verify_s": {"value": statistics.median(p.verify_s for p in timed), "unit": "s"},
        "items_per_s": {
            "value": statistics.median(sum(p.items().values()) / p.verify_s for p in timed),
            "unit": "1/s",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    return result


def record_expected() -> None:
    """Rewrite expected.json from one pass of every workload at seed 0."""
    out = {}
    for wl in WORKLOADS.values():
        out[wl.name] = {}
        rng = random.Random(0)
        for case in wl.cases:
            job = run_job(wl, case, rng.randrange(2**31))
            if job.error is not None or not job.report["passed"]:
                sys.exit(f"error: {case.id} does not pass; refusing to record it")
            out[wl.name][case.id] = {
                "sha256": canonical_sha256(job.payload),
                "checks": {c["name"]: [c["regime"], items_of(c)] for c in job.report["checks"]},
            }
    text = re.sub(r'\[\s+("\w+"),\s+(\d+)\s+\]', r"[\1, \2]", json.dumps(out, indent=1))
    EXPECTED.write_text(text + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        import_gkmalg()
        record_expected()
        return 0
    if args.workload is None and not args.probe:
        parser.error("--workload is required")
    with SpeedProbe() as probe:
        import_s = import_gkmalg(probe.clock) * probe.scale(0)
        if args.probe:
            result = {"import_s": import_s}
        else:
            wl = WORKLOADS[args.workload]
            result = measure(wl, args.seed, args.seconds, bool(args.trace), args.tamper, probe)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
