"""Workload ``collect``: a Looking Glass campaign into a fresh store.

Set-up populates one route server per (IXP, family) from the synthetic
generator and serves them through a ``LookingGlassServer``. One round
runs a ``CollectionCampaign`` with its default settings (one
connection, the store's default snapshot codec, a checkpoint after
every peer) into a fresh ``DatasetStore``. The Looking Glass's rate
limit is lifted: a token bucket refusing requests on wall-clock time
would make the set of failed requests vary from run to run.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from .common import (
    Operations,
    Round,
    Workload,
    derive_seed,
    median,
    require,
    snapshot_files,
)

FAMILIES = (4, 6)
#: the collection date of every campaign (the paper's analysis
#: snapshot, 4 Oct 2021).
CAPTURE_DATE = "2021-10-04"


@dataclass(frozen=True)
class Config:
    ixps: Tuple[str, ...]
    scale: float
    setups: int


FULL = Config(ixps=("linx", "bcix"), scale=0.005, setups=5)
TINY = Config(ixps=("bcix",), scale=0.001, setups=1)


def route_key(route) -> Tuple:
    """What a collected route must preserve: peer, prefix, path and
    every community."""
    return (route.peer_asn, route.prefix, str(route.as_path),
            frozenset(str(c) for c in (*route.communities,
                                       *route.extended_communities,
                                       *route.large_communities)))


class Collect(Workload):
    name = "collect"

    def __init__(self, seed: int, workdir: Path,
                 config: Config = FULL) -> None:
        self.seed = seed
        self.workdir = workdir
        self.config = config
        self.operations = Operations()
        self.route_servers: Dict[Tuple[str, int], object] = {}
        self.looking_glass = None
        self.base_url = ""
        self._routes = 0
        self._store = None
        #: committed snapshot file -> sha256, as the first round wrote it.
        self._files: Dict[str, str] = {}
        self._sizes: List[float] = []
        self._peers: List[int] = []
        self._retries: List[int] = []

    # -- harness interface --------------------------------------------

    def setup(self) -> float:
        from repro.ixp.profiles import get_profile
        from repro.lg.server import LookingGlassServer
        from repro.workload.generator import (
            FINAL_WEEKLY_DAY,
            ScenarioConfig,
            SnapshotGenerator,
        )
        self.close()
        started = time.perf_counter()
        scenario = ScenarioConfig(scale=self.config.scale,
                                  seed=derive_seed(self.seed, "scenario"))
        servers = {}
        for ixp in self.config.ixps:
            generator = SnapshotGenerator(get_profile(ixp), scenario)
            for family in FAMILIES:
                servers[(ixp, family)] = generator.populated_route_server(
                    family, FINAL_WEEKLY_DAY)
        looking_glass = LookingGlassServer(
            servers, rate_per_second=1e9, burst=10 ** 9)
        self.base_url = looking_glass.start()
        seconds = time.perf_counter() - started
        self.route_servers = servers
        self.looking_glass = looking_glass
        self._routes = sum(len(server.accepted_routes())
                           for server in servers.values())
        return seconds

    def round(self, index: int) -> Round:
        from repro.collector.campaign import (
            STATUS_COMPLETE,
            CampaignConfig,
            CampaignTarget,
            CollectionCampaign,
        )
        from repro.collector.store import DatasetStore
        # a collector's disk holds one campaign's store at a time here:
        # keeping every round's files would add their writeback to the
        # fsyncs of later rounds.
        shutil.rmtree(self.workdir / f"store-{index - 1}",
                      ignore_errors=True)
        store = DatasetStore(self.workdir / f"store-{index}")
        targets = [CampaignTarget(ixp, family)
                   for ixp in self.config.ixps for family in FAMILIES]
        campaign = CollectionCampaign(store, CampaignConfig(
            base_url=self.base_url, targets=targets,
            captured_on=CAPTURE_DATE))
        started = time.perf_counter()
        report = campaign.run()
        seconds = time.perf_counter() - started

        attempted = sum(t.peers_attempted for t in report.targets)
        collected = sum(t.peers_collected for t in report.targets)
        self.operations.add("peers", attempted, attempted - collected)
        complete = [t for t in report.targets
                    if t.status == STATUS_COMPLETE]
        self.operations.add("snapshot_writes", len(targets),
                            len(targets) - len(complete))
        stats = [campaign.client_for(target).stats for target in targets]
        # one neighbour-list request per target; the rest are pages
        self.operations.add("lg_neighbor_lists", len(targets))
        self.operations.add(
            "lg_pages", sum(s.requests for s in stats) - len(targets),
            sum(s.rate_limited + s.server_errors + s.http_4xx
                + s.timeouts + s.malformed for s in stats))
        self._peers.append(collected)
        self._retries.append(sum(s.retries for s in stats))
        # read back as plain files, so tracing attributes none of it
        paths = snapshot_files(store.root)
        files = {path.relative_to(store.root).as_posix():
                 hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in paths}
        self._files = self._files or files
        require(files == self._files,
                f"round {index} committed different snapshot bytes "
                f"than round 0")
        self._sizes.append(
            sum(path.stat().st_size for path in paths) / self._routes)
        self._store = store
        return Round(seconds=seconds, routes=self._routes,
                     ops=[t.elapsed for t in report.targets])

    def check(self) -> Dict[str, float]:
        """The last round's store holds the served route servers'
        routes and passes the fsck audit (every round committed the
        same snapshot bytes, checked as it ended)."""
        from repro.collector.fsck import fsck_store
        store = self._store
        require(store is not None, "no round completed")
        require(len(self._files) == len(self.route_servers),
                f"{len(self._files)} snapshots committed for "
                f"{len(self.route_servers)} targets")
        for (ixp, family), server in self.route_servers.items():
            snapshot = store.load_snapshot(ixp, family, CAPTURE_DATE)
            collected = {route_key(route) for route in snapshot.routes}
            served = {route_key(route)
                      for route in server.accepted_routes()}
            require(len(snapshot.routes) == len(collected),
                    f"{ixp}/v{family}: duplicate routes committed")
            require(collected == served,
                    f"{ixp}/v{family}: committed routes differ from the "
                    f"route server's ({len(collected - served)} extra, "
                    f"{len(served - collected)} missing)")
        audit = fsck_store(store)
        require(audit.clean, f"fsck: {audit.format_summary()}")
        return {"store_bytes_per_route": median(self._sizes)}

    def layer_metrics(self, tracer, rounds) -> Dict[str, float]:
        count = len(rounds)
        return {"lg.client.retries": sum(self._retries[-count:]) / count,
                "collector.campaign.peers":
                    sum(self._peers[-count:]) / count,
                "query.wire_ms": 0.0}

    def close(self) -> None:
        if self.looking_glass is not None:
            self.looking_glass.stop()
            self.looking_glass = None
