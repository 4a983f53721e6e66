"""Load-test harness: invariant checking + an end-to-end replay."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.data.synthetic import synthesize_trace
from repro.experiments.config import ExperimentScale
from repro.loadtest import (
    EventOutcome,
    LoadTestConfig,
    LoadTestResult,
    run_loadtest,
)
from repro.models.registry import build_model
from repro.serve import RecommendationEngine, RecommendationServer

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


@pytest.fixture(scope="module")
def server(tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    engine = RecommendationEngine(model, tiny_dataset)
    srv = RecommendationServer(engine, port=0, max_inflight=64)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def trace(tiny_dataset):
    return synthesize_trace(
        num_events=150,
        user_pool=tiny_dataset.num_users,
        num_items=tiny_dataset.num_items,
        hot_users=40,
        seed=17,
    )


# ----------------------------------------------------------------------
# End-to-end replay
# ----------------------------------------------------------------------
def test_replay_against_live_server(server, trace):
    host, port = server.address
    result = run_loadtest(
        trace, host, port, LoadTestConfig(threads=3)
    )
    assert result.ok, result.violations
    assert len(result.outcomes) == 150
    assert result.sequences_completed == trace.summary()["sequences"]
    assert result.qps > 0
    report = result.report()
    assert report["latency"]["p99_ms"] >= report["latency"]["p50_ms"] > 0
    assert report["statuses"] == {"200": 150}
    assert report["trace"]["distinct_users"] > 40
    assert report["violations"] == []


def test_replay_is_complete_under_tiny_deadlines(server, trace):
    """An absurd deadline budget produces refusals, never violations."""
    host, port = server.address
    result = run_loadtest(
        trace, host, port,
        LoadTestConfig(threads=3, max_events=60, deadline_ms=0.01),
    )
    assert result.ok, result.violations
    assert len(result.outcomes) == 60
    report = result.report()
    refused = report["refusals"].get("deadline_exceeded", 0)
    expired = report["item_errors"].get("deadline_exceeded", 0)
    assert refused + expired > 0  # the budget genuinely bit
    for status in report["statuses"]:
        assert status in {"200", "504"}


def test_paced_replay_respects_arrivals(server, tiny_dataset):
    host, port = server.address
    paced = synthesize_trace(
        num_events=20, user_pool=tiny_dataset.num_users,
        num_items=tiny_dataset.num_items, hot_users=10,
        calm_qps=400.0, burst_qps=400.0, seed=1,
    )
    last_arrival = max(e["arrival_s"] for e in paced)
    result = run_loadtest(
        paced, host, port, LoadTestConfig(threads=2, pace=True)
    )
    assert result.ok, result.violations
    assert result.wall_s >= last_arrival * 0.5  # pacing actually waited


# ----------------------------------------------------------------------
# Invariant unit tests (synthetic outcomes, no server)
# ----------------------------------------------------------------------
METRICS_OK = {
    "uptime_seconds": 1.0, "counters": {"requests": 0}, "gauges": {},
    "cache": {}, "throughput": {}, "latency": {},
}


def _metrics(requests: int = 0, degraded: int = 0) -> dict:
    payload = dict(METRICS_OK)
    payload["counters"] = {
        "requests": requests, "requests_degraded": degraded,
    }
    return payload


def _outcome(**overrides) -> EventOutcome:
    base = dict(
        index=0, kind="single", thread=0, status=200, latency_s=0.01,
        sequences=1, ok_items=1, model_versions=[1],
    )
    base.update(overrides)
    return EventOutcome(**base)


def _result(outcomes, before=None, after=None) -> LoadTestResult:
    completed = sum(o.sequences for o in outcomes if o.status == 200)
    return LoadTestResult(
        outcomes, wall_s=1.0,
        metrics_before=before or _metrics(),
        metrics_after=after
        if after is not None else _metrics(requests=completed),
    )


def test_clean_outcomes_pass():
    result = _result([_outcome(index=i) for i in range(5)])
    assert result.ok
    assert result.qps == 5.0


def test_transport_error_is_a_violation():
    result = _result([
        _outcome(),
        _outcome(index=1, status=0, transport_error="timeout", ok_items=0,
                 model_versions=[]),
    ])
    assert any("no HTTP response" in v for v in result.violations)


def test_unstructured_refusal_is_a_violation():
    shed = _outcome(index=1, status=503, refusal_reason="shed", ok_items=0,
                    model_versions=[])
    boom = _outcome(index=2, status=500, refusal_reason=None, ok_items=0,
                    model_versions=[])
    assert _result([_outcome(), shed]).ok
    result = _result([_outcome(), boom])
    assert any("envelope" in v for v in result.violations)


def test_non_deadline_item_error_is_a_violation():
    ok = _outcome(
        index=1, error_reasons=["deadline_exceeded"], ok_items=0,
    )
    assert _result([ok], after=_metrics(requests=1)).ok
    bad = _outcome(index=2, error_reasons=["bad_request"], ok_items=0)
    result = _result([_outcome(), bad], after=_metrics(requests=2))
    assert any("item errors" in v for v in result.violations)


def test_model_version_regression_is_a_violation():
    regressed = [
        _outcome(index=0, model_versions=[2]),
        _outcome(index=1, model_versions=[1]),
    ]
    result = _result(regressed)
    assert any("regression" in v for v in result.violations)
    # The same versions on *different* threads are fine (a swap lands
    # at different times per connection).
    parallel = [
        _outcome(index=0, thread=0, model_versions=[2]),
        _outcome(index=1, thread=1, model_versions=[1]),
    ]
    assert _result(parallel).ok


def test_requests_accounting_mismatch_is_a_violation():
    result = _result([_outcome()], after=_metrics(requests=5))
    assert any("accounting" in v for v in result.violations)


def test_degraded_accounting_mismatch_is_a_violation():
    degraded = _outcome(degraded_items=1)
    assert _result(
        [degraded], after=_metrics(requests=1, degraded=1)
    ).ok
    result = _result([degraded], after=_metrics(requests=1, degraded=0))
    assert any("degraded-tier" in v for v in result.violations)


def test_missing_metrics_schema_key_is_a_violation():
    broken = {"counters": {"requests": 1}}
    result = LoadTestResult(
        [_outcome()], wall_s=1.0, metrics_before=_metrics(),
        metrics_after=broken,
    )
    assert any("schema" in v for v in result.violations)


def test_config_validation():
    with pytest.raises(ValueError):
        LoadTestConfig(threads=0)
    with pytest.raises(ValueError):
        LoadTestConfig(pace_speedup=0.0)


# ----------------------------------------------------------------------
# Paced latency runs from the due time
# ----------------------------------------------------------------------
STALL_S = 0.3


class _StallOnceHandler(BaseHTTPRequestHandler):
    """Answers every request at once, except the first POST (stalls)."""

    protocol_version = "HTTP/1.1"

    def _reply(self, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # noqa: N802 - http.server API
        self._reply({"counters": {}})

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        if not self.server.stalled.is_set():
            self.server.stalled.set()
            time.sleep(STALL_S)
        self._reply({"items": [1], "model_version": 1})

    def log_message(self, *args):
        pass


def test_paced_latency_includes_the_wait_behind_a_stall():
    """Open-loop pacing times each request from its due time: the
    requests due while the server stalled carry that wait, so the p99
    shows the stall instead of hiding it behind one slow sample."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallOnceHandler)
    server.stalled = threading.Event()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    events = [
        {"index": i, "arrival_s": i * 0.002, "kind": "single",
         "requests": [{"user": 1, "k": 1}]}
        for i in range(200)
    ]
    try:
        host, port = server.server_address[:2]
        result = run_loadtest(
            events, host, port, LoadTestConfig(threads=1, pace=True)
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert len(result.outcomes) == 200
    latencies = result.percentiles()
    # ~150 requests fell due during the stall; the slowest of them
    # waited nearly all of it.
    assert latencies["p99_ms"] >= 0.8 * STALL_S * 1e3
    assert latencies["p50_ms"] < latencies["p99_ms"]
