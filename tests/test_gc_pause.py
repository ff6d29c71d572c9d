"""The cyclic collector is held off while an algebra is built, dumped, loaded and checked.

Every such phase runs under ``report.gc_paused``: the collector is off inside
it and back in the caller's state after it, however it ends.  Leaving a pause
moves what it built into the oldest generation, unless the caller froze
objects or had the collector off.  The pause and the move are safe only while
those phases make no cyclic garbage, which the last test pins, so a cycle
added later fails here before it can wait for a full collection.
"""

import copy
import gc
import inspect
import json

import pytest

import gkmalg.verify
from gkmalg.algebra import build_algebra
from gkmalg.modes import parse_manifold
from gkmalg.report import gc_paused
from gkmalg.serialize import DumpFormatError, dump_algebra, load_algebra, save_algebra
from gkmalg.verify import run_suites, torus_hierarchy_check


@pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
def collector(request):
    """The collector's state as the caller leaves it, restored after the test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_each_phase_keeps_the_callers_collector_state(collector):
    alg = build_algebra("su2", "t2", 1, charges=[1, 1])
    assert gc.isenabled() is collector
    data = dump_algebra(alg)
    assert gc.isenabled() is collector
    loaded = load_algebra(copy.deepcopy(data))
    assert gc.isenabled() is collector
    assert run_suites(loaded, "all").passed
    assert gc.isenabled() is collector


def test_a_malformed_dump_keeps_the_callers_collector_state(collector, tmp_path):
    with pytest.raises(DumpFormatError):
        load_algebra({"schema_version": 1, "base": {"dim": "three"}})
    assert gc.isenabled() is collector
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(DumpFormatError):
        load_algebra(bad)
    assert gc.isenabled() is collector


def test_a_failing_or_raising_check_keeps_the_callers_collector_state(collector):
    data = dump_algebra(build_algebra("su2", "t2", 1, charges=[1, 1]))
    bad = copy.deepcopy(data)
    next(e for e in bad["base"]["f"] if e[:3] == [2, 3, 1])[3][0]["num"] = "2"
    report = run_suites(load_algebra(bad), "all")
    assert not report.passed
    assert gc.isenabled() is collector
    with pytest.raises(ValueError, match="sample size must be at least 1"):
        run_suites(load_algebra(data), "jacobi", budget=0)
    assert gc.isenabled() is collector


def test_the_hierarchys_nested_build_leaves_the_collector_off_for_its_check(collector, monkeypatch):
    states = []

    def build(*args):
        states.append(gc.isenabled())
        small = build_algebra(*args)
        states.append(gc.isenabled())
        return small

    monkeypatch.setattr(gkmalg.verify, "build_algebra", build)
    result = torus_hierarchy_check(build_algebra("su2", "t2", 1, charges=[1, 1]))
    assert result.passed and states == [False, False]
    assert gc.isenabled() is collector


def test_no_collection_starts_inside_build_dump_or_load(tmp_path):
    bodies = {inspect.unwrap(f).__code__ for f in (build_algebra, dump_algebra, load_algebra)}
    inside = []

    def probe(phase, info):
        if phase != "start":
            return
        frame = inspect.currentframe().f_back
        while frame is not None:
            if frame.f_code in bodies:
                inside.append((frame.f_code.co_name, info["generation"]))
                return
            frame = frame.f_back

    path = tmp_path / "c4.json"
    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(probe)
    try:
        alg = build_algebra("su2", "s2", 4, charges=[1])
        path.write_text(json.dumps(dump_algebra(alg)))
        load_algebra(path)
    finally:
        gc.callbacks.remove(probe)
        (gc.enable if was_enabled else gc.disable)()
    assert inside == []


def _leaves_a_pause(frame) -> bool:
    """Whether ``frame`` runs the exit of a ``gc_paused`` block, in its body or its manager."""
    body = inspect.unwrap(gc_paused).__code__
    if frame.f_code is body:
        return True
    manager = frame.f_locals.get("self") if frame.f_code.co_name == "__exit__" else None
    return getattr(getattr(manager, "gen", None), "gi_code", None) is body


def test_a_pause_hands_what_it_built_to_the_oldest_generation(tmp_path):
    exits = []

    def probe(phase, info):
        frame = inspect.currentframe().f_back
        while phase == "start" and frame is not None:
            if _leaves_a_pause(frame):
                exits.append(info["generation"])
                return
            frame = frame.f_back

    path = tmp_path / "c4.json"
    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(probe)
    try:
        alg = build_algebra("su2", "s2", 4, charges=[1])
        oldest = any(obj is alg.modes.products for obj in gc.get_objects(generation=2))
        path.write_text(json.dumps(dump_algebra(alg)))
        assert run_suites(load_algebra(path), "all").passed
    finally:
        gc.callbacks.remove(probe)
        (gc.enable if was_enabled else gc.disable)()
    assert exits == []
    assert oldest


def test_a_callers_frozen_objects_stay_frozen(collector):
    gc.freeze()
    frozen = gc.get_freeze_count()
    try:
        alg = build_algebra("su2", "t2", 1, charges=[1, 1])
        assert gc.get_freeze_count() == frozen
        loaded = load_algebra(dump_algebra(alg))
        assert gc.get_freeze_count() == frozen
        # not "all": the oracle's decimal contexts replace, and so free, a frozen object
        assert run_suites(loaded, "jacobi").passed
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize(
    "base,manifold,cutoff", [("su2", "s2", 2), ("su2", "t2", 1), ("su2", "s3", 1), ("su3", "s2", 1)]
)
def test_build_dump_load_and_check_make_no_cyclic_garbage(base, manifold, cutoff, tmp_path):
    path = tmp_path / "a.json"
    charges = [1] * parse_manifold(manifold).r

    def stages():
        alg = build_algebra(base, manifold, cutoff, charges)
        yield "build"
        save_algebra(alg, path)
        yield "dump"
        loaded = load_algebra(path)
        yield "load"
        assert run_suites(loaded, "all").passed
        yield "run_suites"
        del alg, loaded  # reference counting alone must free both algebras
        yield "free"

    for _ in stages():  # warm-up: lazy imports and the caches they fill are not garbage
        pass
    gc.collect()
    with gc_paused():
        found = {stage: gc.collect() for stage in stages()}
    assert found == {"build": 0, "dump": 0, "load": 0, "run_suites": 0, "free": 0}
