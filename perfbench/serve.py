"""Workload ``serve``: the query API read between dataset publishes.

Set-up writes a columnar store of weekly snapshots, starts a
``QueryHTTPServer`` over it and requests every path of the mix once,
so the first cold builds happen in set-up. The clients run in a
separate load-generator process (``loadgen.py``), so that their own
Python work does not share the server's interpreter lock: at most
``nproc`` clients, each on one keep-alive connection. The mix is every
path of the API's dataset views once: Tables 1-4, every figure, every
key's aggregate and the export bundle. The responses say
``Cache-Control: no-cache``, so a client revalidates every ETag it
holds with ``If-None-Match``.

One round is one publish cycle. A new snapshot for the next key is
written through a second ``DatasetStore`` on the same root, which
moves the dataset fingerprint; then every client sweeps the mix once
in its own seeded order, closed-loop (the next request goes out when
the previous answer is in), and the next publish follows. A publish
moves the ETag of every path but the other keys' aggregates, so each
sweep gets the same number of 200s and 304s, and the 200s pay for the
cold rebuilds (read, decode, aggregate). Tables 3 and 4 re-read every
snapshot of the store, so a refresh re-serves the whole dataset:
``routes_per_s`` is the store's route count over the refresh time. The
server's rate limit is lifted so that every request is answered by the
serving path, whatever its speed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .common import (
    Operations,
    Round,
    Workload,
    derive_seed,
    median,
    quantile,
    require,
    snapshot_files,
)

FAMILIES = (4, 6)
FIGURES = ("fig1", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig5",
           "fig6", "fig7")


@dataclass(frozen=True)
class Config:
    ixps: Tuple[str, ...]
    scale: float
    #: weekly snapshots per (IXP, family) written in set-up.
    weeks: int
    setups: int


FULL = Config(ixps=("bcix", "decix-mad"), scale=0.005, weeks=4, setups=3)
TINY = Config(ixps=("bcix",), scale=0.001, weeks=2, setups=1)

#: clients, one keep-alive connection each: at most nproc.
CLIENTS = min(2, os.cpu_count() or 1)
#: seeded orders per client; sweep i uses order i modulo this.
SWEEPS = 50


@dataclass
class Request:
    sent: float
    done: float
    path: str
    status: int
    etag: Optional[str]
    #: the ETag sent in If-None-Match, if any.
    revalidated: Optional[str]
    #: aggregate responses keep their body for the publish checks.
    body: Optional[bytes]


@dataclass
class Publish:
    cycle_started: float
    published: float
    ixp: str
    family: int
    captured_on: str
    routes: int
    #: routes in every snapshot of the store once this one is in.
    dataset_routes: int


def mix(ixps: Sequence[str]) -> List[str]:
    paths = [f"/v1/tables/{table}" for table in (1, 2, 3, 4)]
    paths += [f"/v1/figures/{figure}" for figure in FIGURES]
    paths += [f"/v1/ixps/{ixp}/v{family}/aggregate"
              for ixp in ixps for family in FAMILIES]
    paths.append("/v1/export")
    return paths


def aggregate_path(ixp: str, family: int) -> str:
    return f"/v1/ixps/{ixp}/v{family}/aggregate"


class Serve(Workload):
    name = "serve"

    def __init__(self, seed: int, workdir: Path,
                 config: Config = FULL) -> None:
        self.seed = seed
        self.workdir = workdir
        self.config = config
        self.operations = Operations()
        self.paths = mix(config.ixps)
        self.keys = [(ixp, family) for ixp in config.ixps
                     for family in FAMILIES]
        self.host = "127.0.0.1"
        self.port = 0
        #: the load generator process (perfbench/loadgen.py).
        self.loadgen: Optional[subprocess.Popen] = None
        self._tagging = False
        self._records: List[Request] = []
        self._errors: List[str] = []
        self.publishes: List[Publish] = []
        self.server = None
        self.store_dir: Optional[Path] = None
        self._writer = None
        self._pool: Dict[Tuple[str, int], list] = {}
        self._next_day: Dict[Tuple[str, int], int] = {}
        self._routes_written = 0
        self._setups = 0

    # -- harness interface --------------------------------------------

    def setup(self) -> float:
        from repro.collector.store import DatasetStore
        from repro.ixp.profiles import get_profile
        from repro.query.server import QueryHTTPServer
        from repro.query.views import QueryService
        from repro.workload.generator import ScenarioConfig, SnapshotGenerator
        self.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        started = time.perf_counter()
        store_dir = self.workdir / f"store-{self._setups}"
        self._setups += 1
        store = DatasetStore(store_dir, snapshot_codec="columnar")
        scenario = ScenarioConfig(scale=self.config.scale,
                                  seed=derive_seed(self.seed, "scenario"))
        pool: Dict[Tuple[str, int], list] = {}
        routes = 0
        for ixp in self.config.ixps:
            generator = SnapshotGenerator(get_profile(ixp), scenario)
            store.save_dictionary(ixp, generator.dictionary)
            for family in FAMILIES:
                weekly = [generator.snapshot(family, 7 * week,
                                             degraded=False)
                          for week in range(self.config.weeks)]
                for snapshot in weekly:
                    store.save_snapshot(snapshot)
                    routes += len(snapshot.routes)
                pool[(ixp, family)] = weekly
        server = QueryHTTPServer(
            QueryService(store, ixps=self.config.ixps, families=FAMILIES),
            rate_per_second=1e9, burst=10 ** 9)
        server.start()
        self.server = server
        self.host, self.port = server.host, server.port
        for path in self.paths:
            status, _body, _etag = self._get(path)
            require(status == 200, f"warm-up {path}: HTTP {status}")
        seconds = time.perf_counter() - started
        self.store_dir = store_dir
        self._writer = DatasetStore(store_dir, snapshot_codec="columnar")
        self._pool = pool
        self._next_day = {key: 7 * self.config.weeks for key in self.keys}
        self._routes_written = routes
        return seconds

    def start(self) -> None:
        sweeps = []
        for index in range(CLIENTS):
            rng = random.Random(derive_seed(self.seed, "client", index))
            client_sweeps = []
            for _ in range(SWEEPS):
                order = list(self.paths)
                rng.shuffle(order)
                client_sweeps.append(order)
            sweeps.append(client_sweeps)
        self.loadgen = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("loadgen.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._command(json.dumps({"host": self.host, "port": self.port,
                                  "sweeps": sweeps}))
        # the clients first learn every ETag, as returning clients would
        self._sweep()

    def _sweep(self) -> None:
        self._command("sweep")
        require(self.loadgen.stdout.readline().strip() == "swept",
                "a client stopped")

    def _command(self, line: str) -> None:
        self.loadgen.stdin.write(line + "\n")
        self.loadgen.stdin.flush()

    def round(self, index: int) -> Round:
        from repro.collector.snapshot import Snapshot
        from repro.workload.generator import day_to_date
        if self.tracer is not None and not self._tagging:
            self._command("trace")
            self._tagging = True
        cycle_started = time.perf_counter()
        key = self.keys[index % len(self.keys)]
        pool = self._pool[key]
        source = pool[(index // len(self.keys)) % len(pool)]
        day = self._next_day[key]
        self._next_day[key] = day + 7
        snapshot = Snapshot(
            ixp=source.ixp, family=source.family,
            captured_on=day_to_date(day), members=source.members,
            routes=source.routes, filtered_count=source.filtered_count,
            meta={**source.meta, "day": day})
        token = (self.tracer.begin("bench.publish")
                 if self.tracer is not None else None)
        self._writer.save_snapshot(snapshot)
        published = time.perf_counter()
        if token is not None:
            self.tracer.end(token)
        self.operations.add("publishes", 1)
        self._routes_written += len(snapshot.routes)
        self.publishes.append(Publish(
            cycle_started=cycle_started, published=published,
            ixp=key[0], family=key[1],
            captured_on=snapshot.captured_on,
            routes=snapshot.route_count,
            dataset_routes=self._routes_written))
        self._sweep()
        return Round(seconds=time.perf_counter() - cycle_started,
                     routes=snapshot.route_count)

    def stop(self) -> None:
        """Stop the clients and collect their records."""
        self._command("stop")
        output, _ = self.loadgen.communicate(timeout=170)
        require(self.loadgen.returncode == 0,
                f"load generator exited with {self.loadgen.returncode}")
        self.loadgen = None
        result = json.loads(output)
        self._errors = result["errors"]
        records = []
        for index, rows in enumerate(result["records"]):
            for sent, done, path, status, etag, held, body, span in rows:
                records.append(Request(
                    sent=sent, done=done, path=path, status=status,
                    etag=etag, revalidated=held,
                    body=None if body is None else body.encode("utf-8")))
                if span is not None and self.tracer is not None:
                    self.tracer.spans.append(
                        (span, 0, "query.client", -1 - index, sent, done))
        self._records = sorted(records, key=lambda record: record.sent)
        statuses: Dict[int, int] = {}
        for record in self._records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        for status, count in sorted(statuses.items()):
            self.operations.add(f"http_{status}", count,
                                0 if status in (200, 304) else count)

    def records(self) -> List[Request]:
        return self._records

    def metrics(self, rounds, started: float, ended: float
                ) -> Dict[str, float]:
        records = self.records()
        cycles = [p for p in self.publishes
                  if started <= p.cycle_started < ended]
        bounds = [p.cycle_started for p in cycles] + [ended]
        p50, p90 = [], []
        for low, high in zip(bounds, bounds[1:]):
            latencies = [r.done - r.sent for r in records
                         if low <= r.sent < high]
            if latencies:
                p50.append(quantile(latencies, 0.5))
                p90.append(quantile(latencies, 0.9))
        refreshes = [(publish, self._refresh(records, publish))
                     for publish in cycles]
        refreshes = [(p, seconds) for p, seconds in refreshes
                     if seconds is not None]
        require(bool(refreshes) and bool(p50),
                "no publish was answered by every path")
        return {
            "ops_per_s": self.rate(rounds, started, ended),
            "op_p50_ms": 1e3 * median(p50),
            "op_p90_ms": 1e3 * median(p90),
            "refresh_s": median([seconds for _p, seconds in refreshes]),
            "routes_per_s": median([p.dataset_routes / seconds
                                    for p, seconds in refreshes]),
        }

    def rate(self, rounds, started: float, ended: float) -> float:
        answered = sum(1 for record in self._records
                       if started <= record.sent < ended)
        return answered / (ended - started)

    def _refresh(self, records: List[Request],
                 publish: Publish) -> Optional[float]:
        """Seconds from a publish until every path of the mix has
        answered a request sent after it."""
        first: Dict[str, float] = {}
        for record in records:
            if record.sent >= publish.published \
                    and record.path not in first:
                first[record.path] = record.done
                if len(first) == len(self.paths):
                    return max(first.values()) - publish.published
        return None

    def check(self) -> Dict[str, float]:
        from repro.collector.store import DatasetStore
        from repro.core import Study
        from repro.core.export import export_study_json
        require(not self._errors, f"clients stopped: {self._errors}")
        records = self.records()
        require(any(r.status == 304 for r in records),
                "no revalidation was answered 304")
        for record in records:
            if record.status == 304:
                require(record.revalidated == record.etag,
                        f"{record.path}: 304 for ETag {record.revalidated}"
                        f" while the current one is {record.etag}")
            elif record.revalidated is not None and record.status == 200:
                require(record.etag != record.revalidated,
                        f"{record.path}: 200 although If-None-Match "
                        f"matched the current ETag")
        for publish in self.publishes:
            self._check_publish(records, publish)

        status, body, etag = self._get("/v1/export")
        require(status == 200, f"/v1/export: HTTP {status}")
        expected_path = self.workdir / "export.json"
        reader = DatasetStore(self.store_dir)
        export_study_json(Study.from_store(
            reader, ixps=self.config.ixps, families=FAMILIES),
            expected_path)
        require(body == expected_path.read_bytes(),
                "/v1/export differs from export_study_json over a "
                "cache-less Study.from_store")
        status, _body, _etag = self._get("/v1/export", etag)
        require(status == 304,
                f"/v1/export with a matching If-None-Match: HTTP {status}")

        files = snapshot_files(self.store_dir)
        return {"store_bytes_per_route":
                sum(path.stat().st_size for path in files)
                / self._routes_written}

    def _check_publish(self, records: List[Request],
                       publish: Publish) -> None:
        key_path = aggregate_path(publish.ixp, publish.family)
        before: Dict[str, str] = {}
        after: Dict[str, Request] = {}
        for record in records:
            if record.done <= publish.published and record.etag:
                before[record.path] = record.etag
            elif record.sent >= publish.published \
                    and record.path not in after:
                after[record.path] = record
        for path, record in after.items():
            moved = path == key_path or not path.endswith("/aggregate")
            if moved and path in before:
                require(record.etag != before[path],
                        f"{path} kept ETag {record.etag} across the "
                        f"publish of {publish.ixp}/v{publish.family} "
                        f"{publish.captured_on}")
        record = after.get(key_path)
        if record is None:
            return  # the run ended first; metrics() skips it too
        require(record.status == 200,
                f"{key_path} after a publish: HTTP {record.status}")
        payload = json.loads(record.body)
        newest = max((p for p in self.publishes
                      if (p.ixp, p.family) == (publish.ixp, publish.family)
                      and p.published <= record.sent),
                     key=lambda p: p.published)
        require(payload["captured_on"] == newest.captured_on
                and payload["aggregate"]["route_count"] == newest.routes,
                f"{key_path} reports {payload['captured_on']} with "
                f"{payload['aggregate']['route_count']} routes, the "
                f"store's newest is {newest.captured_on} with "
                f"{newest.routes}")

    def layer_metrics(self, tracer, rounds) -> Dict[str, float]:
        """``query.wire_ms``: per traced request, client latency minus
        the server's ``handle`` time; the median."""
        clients = {span[0]: span for span in tracer.spans
                   if span[2] == "query.client"}
        handled: Dict[int, float] = {}
        for span in tracer.spans:
            if span[1] in clients and span[2] == "query.respond":
                handled[span[1]] = handled.get(span[1], 0.0) + (
                    span[5] - span[4])
        wire = [span[5] - span[4] - handled.get(span_id, 0.0)
                for span_id, span in clients.items()]
        return {"lg.client.retries": 0.0, "collector.campaign.peers": 0.0,
                "query.wire_ms": 1e3 * median(wire) if wire else 0.0}

    def _get(self, path: str, etag: Optional[str] = None
             ) -> Tuple[int, bytes, Optional[str]]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=120)
        try:
            connection.request("GET", path, headers=(
                {"If-None-Match": etag} if etag else {}))
            response = connection.getresponse()
            return (response.status, response.read(),
                    response.getheader("ETag"))
        finally:
            connection.close()

    def close(self) -> None:
        if self.loadgen is not None:
            self.loadgen.kill()
            self.loadgen.communicate()
            self.loadgen = None
        if self.server is not None:
            self.server.stop()
            self.server = None
