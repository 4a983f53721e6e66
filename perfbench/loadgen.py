"""Open-loop HTTP load: requests are due on a fixed schedule.

Independent users do not wait for each other, so each request has a
*due* time on a uniform grid at the offered rate, and its latency is
measured from that due time, not from when it was sent.  A stall on
one request therefore shows up in the latency of every request that
queued behind it.  The generator is one process with ``threads``
threads, each holding one persistent HTTP/1.1 connection; a request
waits for the next free connection.

How late the generator itself ran is reported separately as
*lateness*: the time from the moment a request could have been sent
(its due time, or later when every connection was busy) to the moment
it was sent.  It must stay near zero for the latencies to be the
server's.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException


@dataclass
class Sent:
    """One request's schedule and what came back."""

    index: int
    kind: str
    payloads: list
    thread: int = -1
    due: float = 0.0
    ready: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict | None = field(default=None, repr=False)
    error: str | None = None

    @property
    def latency_s(self) -> float:
        """Due time to last byte of the response."""
        return self.done - self.due

    @property
    def rtt_s(self) -> float:
        """Send to last byte of the response (what the client saw)."""
        return self.done - self.sent

    @property
    def queue_s(self) -> float:
        """Due time to send: the wait for a free connection."""
        return self.sent - self.due

    @property
    def lateness_s(self) -> float:
        """How late the generator sent once it could have."""
        return self.sent - max(self.due, self.ready)

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None


def request_of(kind: str, payloads: list) -> tuple[str, dict]:
    """The HTTP path and JSON body of one traffic-trace event."""
    if kind == "batch":
        return "/recommend/batch", {"requests": payloads}
    return "/recommend", payloads[0]


def run_open_loop(host: str, port: int, events, rate: float,
                  threads: int = 2, count: int | None = None,
                  stop: threading.Event | None = None,
                  abort_behind_s: float | None = None,
                  timeout_s: float = 30.0) -> tuple[list[Sent], bool]:
    """Send ``events`` at ``rate`` per second.

    Returns every outcome, in due order, and whether the phase was
    aborted.

    Sends ``count`` events, or until ``stop`` is set when ``count`` is
    None.  With ``abort_behind_s`` the phase gives up once a request
    could only be sent that long after its due time: the offered rate
    is beyond what the server sustains, and waiting out the backlog
    would only lengthen the run.
    """
    if count is None and stop is None:
        raise ValueError("give a count or a stop event")
    lock = threading.Lock()
    source = iter(events)
    outcomes: list[Sent] = []
    state = {"next": 0, "aborted": False}
    epoch = time.perf_counter() + 0.05

    def take() -> Sent | None:
        with lock:
            index = state["next"]
            if state["aborted"] or (count is not None and index >= count):
                return None
            if stop is not None and stop.is_set():
                return None
            event = next(source, None)
            if event is None:
                return None
            state["next"] = index + 1
            item = Sent(index=index, kind=event["kind"],
                        payloads=event["requests"], due=epoch + index / rate)
            outcomes.append(item)
            return item

    def worker(thread: int) -> None:
        conn = HTTPConnection(host, port, timeout=timeout_s)
        headers = {"Content-Type": "application/json"}
        try:
            while True:
                item = take()
                if item is None:
                    return
                item.thread = thread
                item.ready = time.perf_counter()
                if abort_behind_s is not None and item.ready - item.due > abort_behind_s:
                    with lock:
                        state["aborted"] = True
                        outcomes.remove(item)
                    return
                delay = item.due - item.ready
                if delay > 0:
                    time.sleep(delay)
                path, body = request_of(item.kind, item.payloads)
                encoded = json.dumps(body).encode("utf-8")
                item.sent = time.perf_counter()
                try:
                    conn.request("POST", path, body=encoded, headers=headers)
                    response = conn.getresponse()
                    raw = response.read()
                    item.done = time.perf_counter()
                    item.status = response.status
                    item.body = json.loads(raw.decode("utf-8"))
                except (OSError, HTTPException, ValueError) as error:
                    item.done = time.perf_counter()
                    item.error = f"{type(error).__name__}: {error}"
                    conn.close()
                    conn = HTTPConnection(host, port, timeout=timeout_s)
        finally:
            conn.close()

    workers = [threading.Thread(target=worker, args=(t,), daemon=True)
               for t in range(threads)]
    # A collection pause here would be charged to the server.
    gc.collect()
    gc.disable()
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
    finally:
        gc.enable()
    outcomes.sort(key=lambda item: item.index)
    return outcomes, state["aborted"]


def get_json(host: str, port: int, path: str, timeout_s: float = 10.0) -> dict:
    conn = HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise OSError(f"GET {path} answered {response.status}")
        return json.loads(body.decode("utf-8"))
    finally:
        conn.close()
