"""Pieces shared by the three workloads: statistics, the round record,
operation accounting and the failed-check exception."""

from __future__ import annotations

import random
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

#: the checkout the benchmark runs in; the program is under ``src``.
ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Round:
    """One measured unit of a workload."""

    seconds: float
    #: routes this round carried end to end.
    routes: int
    #: latencies (seconds) of the unit operations inside the round.
    ops: List[float] = field(default_factory=list)


@dataclass
class Operations:
    """What a run attempted and what failed, by kind."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)

    def add(self, kind: str, attempted: int, failed: int = 0) -> None:
        self.attempted[kind] += attempted
        self.failed[kind] += failed

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {kind: {"attempted": self.attempted[kind],
                       "failed": self.failed[kind]}
                for kind in sorted(self.attempted)}


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 31-bit seed for one named input of a run."""
    return random.Random(f"{seed}:" + ":".join(map(str, parts))
                         ).randrange(1, 2 ** 31)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q < 1), interpolated between samples."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low]
                 + (ordered[high] - ordered[low]) * (position - low))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def snapshot_files(root: Path) -> List[Path]:
    """Committed snapshot files of a store (no checkpoints)."""
    return sorted(path for path in root.glob("*/v[46]/*.json.gz")
                  if not path.name.endswith(".ckpt.json.gz"))


class Workload:
    """Defaults of the harness interface (see run.py): ``setup`` returns
    its seconds, ``round`` measures one unit, ``check`` runs the
    independent checks and returns end-to-end figures found there."""

    #: set by run.py while rounds are traced.
    tracer = None

    def start(self) -> None:
        """Measurement begins."""

    def stop(self) -> None:
        """Measurement ends."""

    def close(self) -> None:
        """Release servers and threads."""

    def metrics(self, rounds: Sequence[Round], started: float,
                ended: float) -> Dict[str, float]:
        return round_metrics(rounds)

    def rate(self, rounds: Sequence[Round], started: float,
             ended: float) -> float:
        """The throughput the tracing overhead is measured on."""
        return sum(r.routes for r in rounds) / sum(r.seconds for r in rounds)

    def layer_metrics(self, tracer, rounds: Sequence[Round],
                      ) -> Dict[str, float]:
        """Per-layer figures only this workload can produce."""
        return {"lg.client.retries": 0.0, "collector.campaign.peers": 0.0,
                "query.wire_ms": 0.0}


def round_metrics(rounds: Sequence[Round]) -> Dict[str, float]:
    """The end-to-end figures every round-based workload reports:
    throughputs over all rounds, latencies as medians over rounds."""
    seconds = sum(r.seconds for r in rounds)
    return {
        "routes_per_s": sum(r.routes for r in rounds) / seconds,
        "ops_per_s": sum(len(r.ops) for r in rounds) / seconds,
        "op_p50_ms": 1e3 * median([quantile(r.ops, 0.5) for r in rounds]),
        "op_p90_ms": 1e3 * median([quantile(r.ops, 0.9) for r in rounds]),
        # a round takes new input all the way to complete output
        "refresh_s": median([r.seconds for r in rounds]),
    }
