"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload synthesize --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from its
``src`` directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The exit code is 0 when every check passed, 1 when a
check failed and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _metric_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit, in ``BENCHMARK.json`` order (the contract
    the results must match)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[kind]}


E2E_UNITS = _metric_units("end_to_end")
LAYER_UNITS = _metric_units("per_layer")


def run_rounds(workload, seconds: float, first: int):
    """Whole rounds until *seconds* have passed (at least one)."""
    from perfbench.common import Round
    rounds: List[Round] = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(workload.round(first + len(rounds)))
    return rounds, started, time.perf_counter()


def execute(name: str, seed: int, seconds: float, trace: bool,
            config=None) -> Tuple[Dict[str, object], List[str]]:
    """Set up, measure and check one workload; returns the result
    object and the human-readable report lines."""
    from perfbench import common
    from perfbench.collect import Collect
    from perfbench.serve import Serve
    from perfbench.synthesize import Synthesize
    from perfbench.tracing import Tracer, install, layer_metrics

    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workloads = {kind.name: kind for kind in (Synthesize, Collect, Serve)}
    workload = workloads[name](seed, workdir, **(
        {"config": config} if config is not None else {}))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    lines: List[str] = []
    metrics: Dict[str, float] = {}
    correct = True
    tracer = None
    try:
        if not trace:
            setups = [workload.setup()
                      for _ in range(workload.config.setups)]
            workload.start()
            rounds, started, ended = run_rounds(workload, seconds, 0)
            workload.stop()
            metrics.update(workload.metrics(rounds, started, ended))
            metrics["setup_s"] = common.median(setups)
            metrics["peak_rss_mb"] = common.peak_rss_mb()
            metrics.update(workload.check())
        else:
            tracer = Tracer(f"{name}-{seed}-{os.getpid()}-{time.time():.0f}")
            install(tracer)
            setup_started = time.perf_counter()
            workload.setup()
            setup_ended = time.perf_counter()
            tracer.unpatch()
            setup_layers, _ = tracer.attribute(setup_started, setup_ended)
            metrics["workload.setup_routes"] = tracer.counts[
                "routeserver.announces"]
            tracer.counts.clear()
            workload.start()
            plain, p_started, p_ended = run_rounds(
                workload, seconds / 2, 0)
            install(tracer)
            workload.tracer = tracer
            traced, t_started, t_ended = run_rounds(
                workload, seconds / 2, len(plain))
            workload.stop()
            tracer.unpatch()
            metrics.update(layer_metrics(
                tracer, t_started, t_ended, len(traced),
                sum(r.routes for r in traced)))
            metrics.update(workload.layer_metrics(tracer, traced))
            metrics["workload.setup_generate_s"] = sum(
                setup_layers.get(span, 0.0) for span in (
                    "workload.generate", "routeserver.announce",
                    "routeserver.export"))
            plain_rate = workload.rate(plain, p_started, p_ended)
            traced_rate = workload.rate(traced, t_started, t_ended)
            metrics["trace.overhead"] = plain_rate / traced_rate - 1.0
            lines.extend(layer_table(metrics))
            if tracer.missing:
                lines.append("missing wraps (their layers read 0): "
                             + ", ".join(tracer.missing))
            tracer.write(ROOT / ".perfbench_out" / f"{name}.trace.json.gz",
                         {"workload": name, "seed": seed,
                          "window": [t_started, t_ended],
                          "rounds": len(traced), "metrics": metrics})
            workload.check()
    except common.CheckFailed as failure:
        correct = False
        lines.append(f"CHECK FAILED: {failure}")
    finally:
        if tracer is not None:
            tracer.unpatch()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    operations = workload.operations
    for kind_name, row in operations.summary().items():
        lines.append(f"ops {kind_name}: {row['attempted']} attempted, "
                     f"{row['failed']} failed")
    units = LAYER_UNITS if trace else E2E_UNITS
    result = {
        "correct": correct,
        "attempted": sum(operations.attempted.values()),
        "failed": sum(operations.failed.values()),
        "metrics": {metric: {"value": float(metrics[metric]),
                             "unit": unit}
                    for metric, unit in units.items() if metric in metrics},
    }
    if correct:
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return result, lines


def layer_table(metrics: Dict[str, float]) -> List[str]:
    """Self seconds per round of each layer, and their share of the
    traced wall time (the rows add up to the wall time)."""
    from perfbench.tracing import SELF_METRICS
    wall = metrics["trace.wall_s"]
    lines = [f"traced wall per round: {wall:.4f} s"]
    for metric in SELF_METRICS.values():
        value = metrics[metric]
        lines.append(f"  {metric:34s} {value:10.4f} s "
                     f"{100 * value / wall if wall else 0:6.1f}%")
    lines.append(f"  {'unattributed':34s} "
                 f"{metrics['trace.unattributed_share'] * wall:10.4f} s "
                 f"{100 * metrics['trace.unattributed_share']:6.1f}%")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("synthesize", "collect", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # import perfbench as a package, never its modules by bare name
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if entry != here]
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, lines = execute(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
