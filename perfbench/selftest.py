"""Self-tests of the benchmark: every workload at a tiny size, traced
and untraced, and one deliberately corrupted output per workload that
its checks must catch.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Takes about 20 seconds; needs no network beyond 127.0.0.1.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import collect, serve, synthesize  # noqa: E402
from perfbench.run import E2E_UNITS, LAYER_UNITS, execute  # noqa: E402
from perfbench.tracing import SELF_METRICS  # noqa: E402

TINY = {"synthesize": synthesize.TINY, "collect": collect.TINY,
        "serve": serve.TINY}
SEED = 7


def run_tiny(name: str, trace: bool = False) -> Dict[str, object]:
    result, _lines = execute(name, SEED, 1.0, trace, config=TINY[name])
    return result


@contextlib.contextmanager
def replaced(owner: object, attr: str, value: object) -> Iterator[None]:
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_untraced(name: str) -> None:
    result = run_tiny(name)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0, result
    metrics = result["metrics"]
    assert set(metrics) == set(E2E_UNITS), sorted(metrics)
    for metric, entry in metrics.items():
        assert entry["value"] > 0, (name, metric, entry)


def check_traced(name: str) -> None:
    result = run_tiny(name, trace=True)
    assert result["correct"], result
    metrics = {key: entry["value"]
               for key, entry in result["metrics"].items()}
    assert set(metrics) == set(LAYER_UNITS), sorted(metrics)
    wall = metrics["trace.wall_s"]
    accounted = (sum(metrics[metric] for metric in SELF_METRICS.values())
                 + metrics["trace.unattributed_share"] * wall)
    assert abs(accounted - wall) <= 1e-6 * wall, (name, accounted, wall)


def expect_caught(name: str, fragment: str) -> None:
    result, lines = execute(name, SEED, 1.0, False, config=TINY[name])
    assert not result["correct"], f"{name}: corruption went unnoticed"
    failures = [line for line in lines if line.startswith("CHECK FAILED")]
    assert failures and fragment in failures[0], (fragment, failures)


# -- tests -----------------------------------------------------------------


def test_synthesize_runs() -> None:
    check_untraced("synthesize")
    check_traced("synthesize")


def test_collect_runs() -> None:
    check_untraced("collect")
    check_traced("collect")


def test_serve_runs() -> None:
    check_untraced("serve")
    check_traced("serve")


_UNPATCH_PROBE = """\
import repro.core.aggregate
from perfbench.tracing import Tracer, install
tracer = Tracer("selftest")
install(tracer)
import repro.query.views
assert hasattr(repro.query.views.aggregate_snapshot, "__wrapped__")
tracer.unpatch()
for module in (repro.core.aggregate, repro.query.views):
    assert not hasattr(module.aggregate_snapshot, "__wrapped__"), module
assert tracer.missing == [], tracer.missing
"""


def test_unpatch_restores_every_binding() -> None:
    """After a traced run no program module keeps a wrapper, including
    modules that imported a wrapped function by value. Runs in a fresh
    interpreter, where the query modules are not loaded yet."""
    done = subprocess.run(
        [sys.executable, "-c", _UNPATCH_PROBE], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            (str(ROOT), str(ROOT / "src")))},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_synthesize_matches_one_study_call() -> None:
    """Building per IXP and joining gives the bundle one
    ``Study.synthetic`` call over every IXP gives."""
    from repro.core import Study
    from repro.core.export import dumps_rows, study_rows
    config = synthesize.TINY
    whole = Study.synthetic(ixps=config.ixps, scale=config.scale, seed=3)
    parts = [Study.synthetic(ixps=(ixp,), scale=config.scale, seed=3)
             for ixp in config.ixps]
    joined = Study.from_snapshots(
        [s for part in parts for s in part.snapshots.values()],
        {ixp: d for part in parts for ixp, d in part.dictionaries.items()})
    assert dumps_rows(study_rows(joined)) == dumps_rows(study_rows(whole))


def test_synthesize_catches_perturbed_aggregate() -> None:
    import repro.core.pipeline as pipeline
    original = pipeline.aggregate_snapshot

    def perturbed(snapshot, dictionary, *args, **kwargs):
        aggregate = original(snapshot, dictionary, *args, **kwargs)
        if snapshot.family == 6:
            aggregate.defined_count += 1
        return aggregate

    with replaced(pipeline, "aggregate_snapshot", perturbed):
        expect_caught("synthesize", "recount through the dictionary")


def test_collect_catches_dropped_route() -> None:
    from repro.lg.client import LookingGlassClient
    original = LookingGlassClient.routes

    def dropping(self, asn, *args, **kwargs):
        routes = list(original(self, asn, *args, **kwargs))
        return iter(routes[:-1] if self.family == 4 else routes)

    with replaced(LookingGlassClient, "routes", dropping):
        expect_caught("collect", "committed routes differ")


def test_serve_catches_flipped_byte() -> None:
    from repro.query.views import QueryService
    original = QueryService.respond

    def flipping(self, name, *args, **kwargs):
        response = original(self, name, *args, **kwargs)
        if name == "export" and response.body:
            body = bytearray(response.body)
            body[len(body) // 2] ^= 0x01
            response.body = bytes(body)
        return response

    with replaced(QueryService, "respond", flipping):
        expect_caught("serve", "/v1/export differs")


def test_refuses_without_program() -> None:
    """In a directory holding only the benchmark, the run exits
    non-zero and prints no result."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "collect",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        try:
            parsed = json.loads(line)
        except ValueError:
            continue
        assert "metrics" not in parsed, line


def main() -> int:
    tests = [(name, value) for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    failed = 0
    for name, test in tests:
        try:
            test()
        except Exception as error:  # noqa: BLE001 — report and go on
            failed += 1
            print(f"FAIL {name}: {error!r}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
