"""The ``serve`` workload's load generator, run as its own process.

    python3 perfbench/loadgen.py < plan.json-line + commands

It keeps the clients' own Python work (building requests, parsing
responses) off the interpreter lock of the server under test. Standard
input carries one JSON line, ``{"host", "port", "sweeps"}`` (per
client, a list of sweeps, each every path in a seeded order), then
commands, one a line:

``trace``
    from now on, send ``?trace=<span id>`` and record the span id, so
    that the server's spans find their parent client request;
``sweep``
    every client requests each path once, in its next seeded order,
    then ``swept`` is printed;
``stop``
    stop the clients and print the records as one JSON object.

Every client holds one keep-alive connection and, within a sweep,
sends the next request as soon as the previous answer is in. It keeps
the ETag of every path it has been answered, and revalidates it with
``If-None-Match`` on each later request of that path, as a client of
a ``Cache-Control: no-cache`` response must. ``perf_counter`` reads
the system-wide monotonic clock, so the times compare with the
parent's.
"""

from __future__ import annotations

import http.client
import itertools
import json
import queue
import sys
import threading
import time
from typing import Dict, List, Optional

#: client span ids start here, far above the parent's own span ids.
SPAN_BASE = 1 << 40


class Client(threading.Thread):
    """One client on one keep-alive connection, sweeping on demand."""

    def __init__(self, generator: "LoadGenerator", index: int,
                 sweeps: List[List[str]]) -> None:
        super().__init__(name=f"serve-client-{index}", daemon=True)
        self.generator = generator
        self.sweeps = sweeps
        self.work: "queue.Queue[bool]" = queue.Queue()
        #: [sent, done, path, status, etag, revalidated, body, span]
        self.records: List[list] = []
        self.error: Optional[str] = None

    def run(self) -> None:
        generator = self.generator
        connection = http.client.HTTPConnection(
            generator.host, generator.port, timeout=120)
        etags: Dict[str, str] = {}
        count = 0
        try:
            while self.work.get():
                for path in self.sweeps[count % len(self.sweeps)]:
                    self.request(connection, etags, path)
                count += 1
                generator.done.put(None)
        except Exception as error:  # noqa: BLE001 — reported to the parent
            self.error = repr(error)
            generator.done.put(None)
        finally:
            connection.close()

    def request(self, connection: http.client.HTTPConnection,
                etags: Dict[str, str], path: str) -> None:
        held = etags.get(path)
        headers = {"If-None-Match": held} if held else {}
        span = next(self.generator.span_ids) if self.generator.tracing \
            else None
        target = path if span is None else f"{path}?trace={span}"
        sent = time.perf_counter()
        connection.request("GET", target, headers=headers)
        response = connection.getresponse()
        body = response.read()
        done = time.perf_counter()
        etag = response.getheader("ETag")
        self.records.append([
            sent, done, path, response.status, etag, held,
            body.decode("utf-8") if path.endswith("/aggregate") else None,
            span])
        if response.status == 200 and etag:
            etags[path] = etag


class LoadGenerator:
    def __init__(self, host: str, port: int,
                 sweeps: List[List[List[str]]]) -> None:
        self.host = host
        self.port = port
        self.tracing = False
        self.span_ids = itertools.count(SPAN_BASE)
        self.done: "queue.Queue[None]" = queue.Queue()
        self.clients = [Client(self, index, client_sweeps)
                        for index, client_sweeps in enumerate(sweeps)]
        for client in self.clients:
            client.start()

    def sweep(self) -> bool:
        """One sweep of every client; False if a client failed."""
        live = [client for client in self.clients if client.is_alive()]
        for client in live:
            client.work.put(True)
        for _ in live:
            self.done.get()
        return not any(client.error for client in self.clients)

    def stop(self) -> Dict[str, object]:
        for client in self.clients:
            client.work.put(False)
        for client in self.clients:
            client.join(timeout=150)
        return {"records": [client.records for client in self.clients],
                "errors": [client.error for client in self.clients
                           if client.error]}


def main() -> int:
    plan = json.loads(sys.stdin.readline())
    generator = LoadGenerator(plan["host"], plan["port"], plan["sweeps"])
    for line in sys.stdin:
        command = line.strip()
        if command == "trace":
            generator.tracing = True
        elif command == "sweep":
            print("swept" if generator.sweep() else "failed", flush=True)
        elif command == "stop":
            json.dump(generator.stop(), sys.stdout)
            sys.stdout.flush()
            return 0
    generator.stop()  # the parent went away
    return 1


if __name__ == "__main__":
    sys.exit(main())
