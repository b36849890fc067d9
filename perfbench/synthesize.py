"""Workload ``synthesize``: the study built from the synthetic generator.

One round synthesises the paper's eight IXPs, both families, through
``Study.synthetic`` (one call per IXP, so each IXP's build is timed as
one operation), joins them with ``Study.from_snapshots``, computes
every aggregate and renders the complete export bundle. No sockets,
no disk. Each round draws its own scenario seed from the run seed, so
no round can reuse another's result.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .common import ROOT, Operations, Round, Workload, derive_seed, require

FAMILIES = (4, 6)

#: set-up of this workload: a fresh interpreter importing the program
#: and building every IXP's community dictionary (prints seconds).
_SETUP_PROBE = """\
import time
started = time.perf_counter()
import repro.core.export
from repro.ixp.profiles import ALL_IXPS, get_profile
from repro.ixp.schemes import dictionary_for
for key in ALL_IXPS:
    dictionary_for(get_profile(key))
print(time.perf_counter() - started)
"""


@dataclass(frozen=True)
class Config:
    ixps: Optional[Tuple[str, ...]]  # None = the paper's eight
    scale: float
    setups: int


FULL = Config(ixps=None, scale=0.002, setups=7)
TINY = Config(ixps=("bcix", "netnod"), scale=0.001, setups=1)


class Synthesize(Workload):
    name = "synthesize"

    def __init__(self, seed: int, workdir: Path,
                 config: Config = FULL) -> None:
        from repro.ixp.profiles import ALL_IXPS
        self.seed = seed
        self.config = config
        self.ixps = config.ixps or ALL_IXPS
        self.operations = Operations()
        #: the first round's study, its scenario seed and bundle text,
        #: kept for the independent checks.
        self._first: Optional[Tuple[object, int, str]] = None

    # -- harness interface --------------------------------------------

    def setup(self) -> float:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def round(self, index: int) -> Round:
        from repro.core import Study
        from repro.core.export import dumps_rows, study_rows
        seed = derive_seed(self.seed, "round", index)
        ops: List[float] = []
        snapshots = []
        dictionaries = {}
        started = time.perf_counter()
        for ixp in self.ixps:
            op_started = time.perf_counter()
            part = Study.synthetic(ixps=(ixp,), families=FAMILIES,
                                   scale=self.config.scale, seed=seed)
            ops.append(time.perf_counter() - op_started)
            snapshots.extend(part.snapshots.values())
            dictionaries.update(part.dictionaries)
        study = Study.from_snapshots(snapshots, dictionaries)
        study.aggregates()
        bundle = dumps_rows(study_rows(study, FAMILIES))
        seconds = time.perf_counter() - started

        routes = sum(snapshot.route_count for snapshot in snapshots)
        self.operations.add("ixp_builds", len(self.ixps))
        self.operations.add("aggregates", len(study.keys()))
        self.operations.add("bundles", 1)
        check_bundle(json.loads(bundle), snapshots)
        if self._first is None:
            self._first = (study, seed, bundle)
        return Round(seconds=seconds, routes=routes, ops=ops)

    def check(self) -> Dict[str, float]:
        """Independent checks on the first round; returns the
        store-size figure (the synthesised snapshots as the store's
        default codec would write them, encoded in memory)."""
        require(self._first is not None, "no round completed")
        study, seed, bundle = self._first
        check_recount(study)
        check_route_servers(json.loads(bundle), self.ixps,
                            self.config.scale, seed)
        return {"store_bytes_per_route": encoded_bytes_per_route(
            [study.snapshots[key] for key in study.keys()])}


# -- checks -----------------------------------------------------------------


def check_bundle(bundle: Dict[str, list], snapshots) -> None:
    """Properties every bundle must have: Fig. 1 and Fig. 3 shares sum
    to one per row, and Table 1 counts the snapshots' routes."""
    for name, first, second in (
            ("fig1_defined_vs_unknown", "defined_share", "unknown_share"),
            ("fig3_action_vs_informational", "action_share",
             "informational_share")):
        rows = bundle[name]
        require(bool(rows), f"{name} is empty")
        for row in rows:
            total = row[first] + row[second]
            require(abs(total - 1.0) < 1e-9,
                    f"{name} {row['ixp']}/v{row['family']}: shares sum "
                    f"to {total!r}, not 1")
    routes = {(s.ixp, s.family): s.route_count for s in snapshots}
    for row in bundle["table1_summary"]:
        for family in FAMILIES:
            if (row["key"], family) in routes:
                require(row[f"routes_v{family}"]
                        == routes[(row["key"], family)],
                        f"table 1 {row['key']} v{family} route count "
                        f"differs from the snapshot")


def recount(snapshot, dictionary) -> Dict[str, object]:
    """Community instances counted straight from the routes through
    ``CommunityDictionary.lookup`` (not the classifier's flat table)."""
    from repro.ixp.taxonomy import CommunityRole
    counts: Dict[str, object] = {
        "defined": 0, "unknown": 0, "action": 0, "informational": 0,
        "routes_with_action": 0, "kinds": Counter(),
        "per_community": Counter(), "per_peer": Counter()}
    for route in snapshot.routes:
        if route.filtered:
            continue
        actions = 0
        for community in (*route.communities, *route.extended_communities,
                          *route.large_communities):
            semantics = dictionary.lookup(community)
            if semantics is None:
                counts["unknown"] += 1
                continue
            counts["defined"] += 1
            counts["kinds"][community.kind] += 1
            if community.kind != "standard":
                continue
            if semantics.is_action:
                actions += 1
                counts["per_community"][community] += 1
            elif semantics.role is CommunityRole.INFORMATIONAL:
                counts["informational"] += 1
        if actions:
            counts["action"] += actions
            counts["routes_with_action"] += 1
            counts["per_peer"][route.peer_asn] += actions
    return counts


def check_recount(study) -> None:
    for ixp, family in study.keys():
        aggregate = study.aggregate(ixp, family)
        expected = recount(study.snapshots[(ixp, family)],
                           study.dictionaries[ixp])
        observed = {
            "defined": aggregate.defined_count,
            "unknown": aggregate.unknown_count,
            "action": aggregate.std_action_count,
            "informational": aggregate.std_informational_count,
            "routes_with_action": aggregate.routes_with_action,
            "kinds": Counter({kind: count for kind, count
                              in aggregate.kind_counts.items() if count}),
            "per_community": Counter(aggregate.community_instances),
            "per_peer": Counter(aggregate.per_as_action),
        }
        for field_name, value in expected.items():
            require(observed[field_name] == value,
                    f"aggregate {ixp}/v{family} {field_name} differs from "
                    f"the recount through the dictionary")


def check_route_servers(bundle: Dict[str, list], ixps, scale: float,
                        seed: int) -> None:
    """Table 1 route counts equal ``RouteServer.accepted_routes()`` of
    route servers populated afresh for the same scenario."""
    from repro.ixp.profiles import get_profile
    from repro.workload.generator import (
        FINAL_WEEKLY_DAY,
        ScenarioConfig,
        SnapshotGenerator,
    )
    rows = {row["key"]: row for row in bundle["table1_summary"]}
    for ixp in ixps:
        generator = SnapshotGenerator(
            get_profile(ixp), ScenarioConfig(scale=scale, seed=seed))
        for family in FAMILIES:
            server = generator.populated_route_server(
                family, FINAL_WEEKLY_DAY)
            accepted = len(server.accepted_routes())
            require(rows[ixp][f"routes_v{family}"] == accepted,
                    f"table 1 {ixp} v{family}: "
                    f"{rows[ixp][f'routes_v{family}']} routes, route "
                    f"server accepted {accepted}")


def default_snapshot_codec() -> str:
    """The codec a :class:`DatasetStore` writes when not told otherwise
    — read from the program, so the benchmark follows a change of
    default instead of pinning one."""
    from repro.collector.store import DatasetStore
    return inspect.signature(DatasetStore).parameters[
        "snapshot_codec"].default


def encoded_bytes_per_route(snapshots) -> float:
    from repro.collector.integrity import encode_artefact
    from repro.io.columnar import encode_snapshot_payload
    codec = default_snapshot_codec()
    size = routes = 0
    for snapshot in snapshots:
        data, _digest = encode_artefact(
            encode_snapshot_payload(snapshot, codec), "snapshot", gz=True)
        size += len(data)
        routes += len(snapshot.routes)
    require(routes > 0, "no routes synthesised")
    return size / routes
