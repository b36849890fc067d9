"""Span tracing done from outside the program.

The benchmark's traced run wraps public calls at each layer boundary of
the program. A wrap whose target is gone is skipped, never fatal: it is
printed with the layer table, counted in ``trace.missing_wraps`` and
listed in the trace file, since its layer then reads 0 and its time
moves to the parent span. A span records (id, parent id, name, thread,
start, end) in memory; counts are bumped by per-call hooks at the same
boundaries. Nothing in
the program is edited, and the untraced runs that produce the
end-to-end metrics install none of this.

Attribution: a span's self time is its interval minus the intervals of
its child spans. Where self intervals of different threads overlap
(the serve workload's concurrent clients), each instant is shared
equally among the spans active at it, so the per-layer times plus the
unattributed remainder add up exactly to the traced wall time.
Spans named ``bench.*`` are the harness's own and count as
unattributed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

#: (span id, parent id, name, thread ident, start, end); parent 0 = root.
Span = Tuple[int, int, str, int, float, float]

Hook = Callable[["Tracer", tuple, dict, Any, float, float], None]

HARNESS_PREFIX = "bench."

#: cross-thread parent channel of the Looking Glass: a client fetch
#: span is the parent of the server render spans it waits for (the
#: campaign holds one connection, so at most one fetch is open).
LG_CHANNEL = "lg"


class Tracer:
    """Spans and counts kept in memory for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: wrap targets that no longer exist in the program.
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._channels: Dict[str, int] = {}
        self._patched: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original) of module-level functions,
        #: so that bindings made after patching can be restored too.
        self._wrappers: Dict[int, Tuple[object, object]] = {}

    # -- recording ---------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def begin(self, name: str, parent: Optional[int] = None
              ) -> Tuple[int, int, str, float]:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def end(self, token: Tuple[int, int, str, float]) -> float:
        end = time.perf_counter()
        span_id, parent, name, start = token
        self._stack().pop()
        self.spans.append((span_id, parent, name, threading.get_ident(),
                           start, end))
        return end - start

    def wrap(self, func: Callable, name: Optional[str], *,
             hook: Optional[Hook] = None,
             remote: Optional[Callable[[tuple, dict], int]] = None,
             channel: Optional[str] = None,
             generator: bool = False) -> Callable:
        """*func* recorded as span *name* (``None``: no span, the hook
        only).

        ``remote`` names the parent of a call that arrives on another
        thread (a server handling a traced client's request);
        ``channel`` publishes this span as that parent while it is
        open. ``hook`` sees (tracer, args, kwargs, result, wall, cpu)
        after the call, cpu being the calling thread's CPU seconds.
        """
        tracer = self
        if name is None:  # count calls only, no span
            @functools.wraps(func)
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                hook(tracer, args, kwargs, result, 0.0, 0.0)
                return result
            return counted

        def open_span(args: tuple, kwargs: dict):
            parent = None
            if remote is not None and not tracer._stack():
                parent = remote(args, kwargs)
            token = tracer.begin(name, parent)
            previous = None
            if channel is not None:
                previous = tracer._channels.get(channel)
                tracer._channels[channel] = token[0]
            return token, previous, time.thread_time()

        def close_span(state, args: tuple, kwargs: dict, result) -> None:
            token, previous, cpu_start = state
            cpu = time.thread_time() - cpu_start
            wall = tracer.end(token)
            if channel is not None:
                if previous is None:
                    tracer._channels.pop(channel, None)
                else:
                    tracer._channels[channel] = previous
            if hook is not None:
                hook(tracer, args, kwargs, result, wall, cpu)

        if generator:
            @functools.wraps(func)
            def traced_generator(*args, **kwargs):
                state = open_span(args, kwargs)
                try:
                    yield from func(*args, **kwargs)
                finally:
                    close_span(state, args, kwargs, None)
            return traced_generator

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = open_span(args, kwargs)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                close_span(state, args, kwargs, result)
        return traced

    def channel_parent(self, channel: str) -> int:
        return self._channels.get(channel, 0)

    # -- patching ------------------------------------------------------

    def patch(self, module_name: str, qualname: str, name: Optional[str],
              **options: Any) -> None:
        """Replace ``module_name:qualname`` with a traced wrapper. A
        module-level function is replaced in every loaded ``repro``
        module that imported it by value; a module that imports it
        later binds the wrapper, which ``unpatch`` finds as well."""
        parts = qualname.split(".")
        try:
            owner: Any = importlib.import_module(module_name)
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, parts[-1])
        except (ImportError, AttributeError):
            target = f"{module_name}:{qualname}"
            if target not in self.missing:
                self.missing.append(target)
            return
        if isinstance(owner, type):
            if isinstance(original, classmethod):
                replacement: Any = classmethod(
                    self.wrap(original.__func__, name, **options))
            elif isinstance(original, staticmethod):
                replacement = staticmethod(
                    self.wrap(original.__func__, name, **options))
            else:
                replacement = self.wrap(original, name, **options)
            setattr(owner, parts[-1], replacement)
            self._patched.append((owner, parts[-1], original))
            return
        replacement = self.wrap(original, name, **options)
        self._wrappers[id(replacement)] = (replacement, original)
        for loaded in _program_modules():
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, replacement)
                    self._patched.append((loaded, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        if self._wrappers:
            for loaded in _program_modules():
                for attr, value in list(vars(loaded).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(loaded, attr, entry[1])
            self._wrappers.clear()

    # -- analysis --------------------------------------------------------

    def attribute(self, start: float, end: float,
                  ) -> Tuple[Dict[str, float], float]:
        """Per-span-name self seconds inside ``[start, end]`` and the
        unattributed seconds; the two add up to ``end - start``."""
        spans = [s for s in self.spans if s[5] > start and s[4] < end]
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in spans:
            children[span[1]].append((span[4], span[5]))
        events: List[Tuple[float, int, str]] = []
        for span_id, _parent, name, _thread, s_start, s_end in spans:
            s_start, s_end = max(s_start, start), min(s_end, end)
            cursor = s_start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start = max(c_start, s_start)
                if c_start > cursor:
                    events.append((cursor, 1, name))
                    events.append((c_start, -1, name))
                cursor = max(cursor, min(c_end, s_end))
            if s_end > cursor:
                events.append((cursor, 1, name))
                events.append((s_end, -1, name))
        events.sort(key=lambda event: event[0])
        active: Dict[str, int] = defaultdict(int)
        attributed: Dict[str, float] = defaultdict(float)
        depth = 0
        last = start
        for moment, delta, name in events:
            if depth and moment > last:
                share = (moment - last) / depth
                for active_name, count in active.items():
                    if count:
                        attributed[active_name] += share * count
            last = max(last, moment)
            active[name] += delta
            depth += delta
        layers = {name: seconds for name, seconds in attributed.items()
                  if not name.startswith(HARNESS_PREFIX)}
        return layers, (end - start) - sum(layers.values())

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write every span and count (gzipped JSON) for offline
        inspection; the file is replaced on each traced run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        threads: Dict[int, int] = {}
        names: Dict[str, int] = {}
        rows = []
        for span_id, parent, name, thread, start, end in self.spans:
            rows.append([span_id, parent,
                         names.setdefault(name, len(names)),
                         threads.setdefault(thread, len(threads)),
                         round(start, 7), round(end, 7)])
        document = {
            "run_id": self.run_id,
            "columns": ["id", "parent", "name", "thread", "start", "end"],
            "names": list(names),
            "spans": rows,
            "counts": dict(self.counts),
            "missing_wraps": self.missing,
            **extra,
        }
        temporary = path.with_suffix(f".{os.getpid()}.tmp")
        with gzip.open(temporary, "wt", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
        os.replace(temporary, path)


def _program_modules() -> List[Any]:
    return [module for module in list(sys.modules.values())
            if module is not None
            and getattr(module, "__name__", "").startswith("repro")]


# -- the layer map ---------------------------------------------------------


def _count_announce(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("routeserver.announces")


def _count_lg_request(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("lg.server.requests")
    tracer.count("lg.server.bytes_out", len(result[1]))


def _count_page(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("lg.client.pages")


def _count_fetch_wait(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("lg.client.wait_s", max(0.0, wall - cpu))


def _count_checkpoint(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("collector.store.checkpoints")
    tracer.count("collector.store.bytes_written", _size(result))


def _count_write(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("collector.store.bytes_written", _size(result))


def _count_payload(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("io.codec.routes", len(args[0].routes))


def _count_artefact(tracer: Tracer, args, kwargs, result, wall, cpu):
    kind = args[1] if len(args) > 1 else kwargs.get("kind")
    if kind == "snapshot":
        tracer.count("io.codec.bytes", len(result[0]))


def _count_aggregate(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("core.aggregate.routes", len(args[0].routes))


def _count_probe(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("core.engine.cache_misses" if result is None
                 else "core.engine.cache_hits")


def _count_response(tracer: Tracer, args, kwargs, result, wall, cpu):
    if result is None:
        return
    if result.cache_event == "hit":
        tracer.count("query.cache_hits")
    elif result.cache_event == "miss":
        tracer.count("query.build_s", wall)
    if result.status == 304:
        tracer.count("query.not_modified")


def _count_route_decode(tracer: Tracer, args, kwargs, result, wall, cpu):
    tracer.count("bgp.route_decodes")


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def query_parent(args: tuple, kwargs: dict) -> int:
    """The client span id a traced serve request carries in its query
    string (``?trace=<id>``); the query router ignores query strings."""
    path = args[1] if len(args) > 1 else kwargs.get("path", "")
    values = parse_qs(urlparse(path).query).get("trace")
    try:
        return int(values[0]) if values else 0
    except ValueError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    lg = dict(remote=lambda args, kwargs: tracer.channel_parent(LG_CHANNEL))
    fetch = dict(channel=LG_CHANNEL, hook=_count_fetch_wait)
    targets = [
        # workload generation (the route-server import is its child)
        ("repro.core.pipeline", "Study.synthetic", "workload.generate", {}),
        ("repro.workload.generator", "SnapshotGenerator.__init__",
         "workload.generate", {}),
        ("repro.workload.generator", "SnapshotGenerator.snapshot",
         "workload.generate", {}),
        ("repro.workload.generator",
         "SnapshotGenerator.populated_route_server",
         "workload.generate", {}),
        # route server: import filters + RIB, and read-out
        ("repro.routeserver.server", "RouteServer.announce",
         "routeserver.announce", dict(hook=_count_announce)),
        ("repro.routeserver.server", "RouteServer.accepted_routes",
         "routeserver.export", {}),
        ("repro.routeserver.server", "RouteServer.filtered_routes",
         "routeserver.export", {}),
        ("repro.routeserver.server", "RouteServer.peers_summary",
         "routeserver.export", {}),
        ("repro.routeserver.server", "RouteServer.export_to",
         "routeserver.export", {}),
        # Looking Glass: server render, client fetch + page decode
        ("repro.lg.server", "LookingGlassServer.handle_bytes",
         "lg.server.render", dict(lg, hook=_count_lg_request)),
        ("repro.lg.client", "LookingGlassClient.neighbors",
         "lg.client.fetch", fetch),
        ("repro.lg.client", "LookingGlassClient.routes",
         "lg.client.fetch", dict(fetch, generator=True)),
        ("repro.lg.dialects", "parse_routes", "lg.client.fetch",
         dict(hook=_count_page)),
        # collection campaign and the store
        ("repro.collector.campaign", "CollectionCampaign.run",
         "collector.campaign", {}),
        ("repro.collector.store", "DatasetStore.save_checkpoint",
         "collector.store.checkpoint", dict(hook=_count_checkpoint)),
        ("repro.collector.store", "DatasetStore.delete_checkpoint",
         "collector.store.checkpoint", {}),
        ("repro.collector.store", "DatasetStore.load_checkpoint",
         "collector.store.checkpoint", {}),
        ("repro.collector.store", "DatasetStore.save_snapshot",
         "collector.store.write", dict(hook=_count_write)),
        ("repro.collector.store", "DatasetStore.save_dictionary",
         "collector.store.write", {}),
        ("repro.collector.store", "DatasetStore.save_aggregate",
         "collector.store.write", {}),
        ("repro.collector.store", "DatasetStore.read_snapshot",
         "collector.store.read", {}),
        ("repro.collector.store", "DatasetStore.load_aggregate",
         "collector.store.read", {}),
        ("repro.collector.store", "DatasetStore.load_dictionary",
         "collector.store.read", {}),
        ("repro.collector.store", "DatasetStore.has_dictionary",
         "collector.store.read", {}),
        ("repro.collector.store", "DatasetStore.snapshot_digest",
         "collector.store.read", {}),
        ("repro.collector.store", "DatasetStore.snapshot_dates",
         "collector.store.read", {}),
        # codecs: snapshot payload (JSON / columnar) and the envelope
        ("repro.io.columnar", "encode_snapshot_payload", "io.codec.encode",
         dict(hook=_count_payload)),
        ("repro.io.columnar", "decode_snapshot_payload", "io.codec.decode",
         {}),
        ("repro.collector.integrity", "encode_artefact", "io.codec.encode",
         dict(hook=_count_artefact)),
        ("repro.collector.integrity", "decode_artefact", "io.codec.decode",
         {}),
        # analysis core
        ("repro.core.aggregate", "aggregate_snapshot", "core.aggregate",
         dict(hook=_count_aggregate)),
        ("repro.core.pipeline", "Study.aggregate", "core.aggregate", {}),
        ("repro.core.pipeline", "Study.aggregates", "core.aggregate", {}),
        ("repro.core.pipeline", "Study.from_snapshots", "core.study", {}),
        ("repro.core.pipeline", "Study.from_store", "core.study", {}),
        ("repro.core.engine", "AggregateCache.probe", "core.engine",
         dict(hook=_count_probe)),
        ("repro.core.engine", "AggregateCache.put", "core.engine", {}),
        ("repro.core.export", "study_rows", "core.export", {}),
        ("repro.core.export", "dumps_rows", "core.export", {}),
        ("repro.core.stability", "variation_rows", "core.export", {}),
        # query service
        ("repro.query.server", "QueryHTTPServer.handle", "query.respond",
         dict(remote=query_parent)),
        ("repro.query.views", "QueryService.respond", "query.respond",
         dict(hook=_count_response)),
        ("repro.query.views", "QueryService.fingerprint",
         "query.fingerprint", {}),
        # counted, not timed: a route rebuilt from its dict form
        ("repro.bgp.route", "Route.from_dict", None,
         dict(hook=_count_route_decode)),
    ]
    # import every target first: a module imported between two patches
    # would bind the wrappers of the earlier ones by value
    for module_name, _qualname, _name, _options in targets:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass  # patch() lists it as missing
    for module_name, qualname, name, options in targets:
        tracer.patch(module_name, qualname, name, **options)


#: span name -> the per-layer self-time metric it feeds.
SELF_METRICS = {
    "workload.generate": "workload.generate_s",
    "routeserver.announce": "routeserver.announce_s",
    "routeserver.export": "routeserver.export_s",
    "lg.server.render": "lg.server.render_s",
    "lg.client.fetch": "lg.client.fetch_s",
    "collector.campaign": "collector.campaign.self_s",
    "collector.store.checkpoint": "collector.store.checkpoint_s",
    "collector.store.write": "collector.store.write_s",
    "collector.store.read": "collector.store.read_s",
    "io.codec.encode": "io.codec.encode_s",
    "io.codec.decode": "io.codec.decode_s",
    "core.aggregate": "core.aggregate.aggregate_s",
    "core.study": "core.study.load_s",
    "core.engine": "core.engine.cache_s",
    "core.export": "core.export.render_s",
    "query.respond": "query.respond_s",
    "query.fingerprint": "query.fingerprint_s",
    "query.client": "query.wire_s",
}


def layer_metrics(tracer: Tracer, start: float, end: float, rounds: int,
                  routes: int) -> Dict[str, float]:
    """Self seconds per round for every layer, the unattributed share
    of the traced wall time, and the per-round counts and ratios;
    *routes* is what the traced rounds carried end to end."""
    layers, unattributed = tracer.attribute(start, end)
    unknown = set(layers) - set(SELF_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a layer metric: {unknown}")
    per_round = max(1, rounds)
    wall = end - start
    metrics = {metric: layers.get(span, 0.0) / per_round
               for span, metric in SELF_METRICS.items()}
    counts = tracer.counts
    announce_s = layers.get("routeserver.announce", 0.0)
    aggregate_s = layers.get("core.aggregate", 0.0)
    metrics.update({
        "trace.missing_wraps": float(len(tracer.missing)),
        "trace.wall_s": wall / per_round,
        "trace.unattributed_share": unattributed / wall if wall else 0.0,
        "workload.routes": counts["routeserver.announces"] / per_round,
        "routeserver.announce_per_s": (
            counts["routeserver.announces"] / announce_s
            if announce_s else 0.0),
        "lg.server.requests": counts["lg.server.requests"] / per_round,
        "lg.server.bytes_out": counts["lg.server.bytes_out"] / per_round,
        "lg.client.wait_s": counts["lg.client.wait_s"] / per_round,
        "lg.client.pages": counts["lg.client.pages"] / per_round,
        "collector.store.checkpoints":
            counts["collector.store.checkpoints"] / per_round,
        "io.codec.bytes_per_route": (
            counts["io.codec.bytes"] / counts["io.codec.routes"]
            if counts["io.codec.routes"] else 0.0),
        "core.aggregate.routes_per_s": (
            counts["core.aggregate.routes"] / aggregate_s
            if aggregate_s else 0.0),
        "core.engine.cache_hits":
            counts["core.engine.cache_hits"] / per_round,
        "core.engine.cache_misses":
            counts["core.engine.cache_misses"] / per_round,
        "query.build_s": counts["query.build_s"] / per_round,
        "query.cache_hits": counts["query.cache_hits"] / per_round,
        "query.not_modified": counts["query.not_modified"] / per_round,
        "collector.store.bytes_written_per_route": (
            counts["collector.store.bytes_written"] / routes
            if routes else 0.0),
        "collector.campaign.route_decodes_per_route": (
            counts["bgp.route_decodes"] / routes if routes else 0.0),
    })
    return metrics
