"""The repository's end-to-end benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload online`` runs a fourth workload that ``BENCHMARK.json``
does not declare: its check fails on the current program (see
``perfbench/README.md``), and it is declared once that is fixed.

Each workload's program runs in its own process (``perfbench/driver.py``),
started here; this process is the HTTP load generator and the checker.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans around each layer's
public calls and reports the per-layer metrics instead.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A failed correctness check exits 1; a checkout
without the program exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import queue
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DRIVER = os.path.join(ROOT, "perfbench", "driver.py")
WORK = os.path.join(ROOT, "perfbench", ".work")
sys.path[:0] = [ROOT, SRC]

from perfbench import stats  # noqa: E402
from perfbench.loadgen import get_json, run_open_loop  # noqa: E402

#: The workloads BENCHMARK.json declares, which ``--workload all`` runs.
WORKLOADS = ("train", "serve", "scale-out")
#: Runnable on its own, not declared: its decision check fails while
#: repro.nn.tensor.no_grad is process-global.
WITHHELD = ("online",)

#: Every process the benchmark starts, and this one, runs BLAS on one
#: thread: on a small machine unpinned BLAS threads compete with the
#: server and worker processes and make timings depend on scheduling.
#: A fixed hash seed keeps per-process layout out of the spread.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Program starts per run; setup_s is the median of their spawn-to-ready
#: times (a single start varies by a third from one to the next).  The
#: starts are spread over the run, before and after the measured work,
#: so that the median does not hang on one short slow spell of the host.
SETUPS = 7
#: Fresh servers that share the light phase (each is one of the starts).
SERVERS = 5
#: Offered rate of the light phase (requests/s), and the ladder above it.
LIGHT_RATE = 20.0
LADDER = stats.ladder_rates(LIGHT_RATE * 1.6, 1.6, 1000.0)
#: After the first failing rung the search bisects the last step until
#: it is at most this ratio, so the reported rate resolves a 7% change.
LADDER_RESOLUTION = 1.07
#: Unmeasured requests a fresh server answers before the light phase,
#: and the rate they are sent at.
WARMUP_REQUESTS = 20
WARMUP_RATE = 50.0
#: Requests per ladder rung: the fewest that support a p95.
RUNG_REQUESTS = stats.min_samples(95.0)
#: A rate is sustained when p95 from due time stays within the limit,
#: at most 0.1% of requests fail, and no backlog grows.
LATENCY_LIMIT_S = 0.100
MAX_FAIL_RATIO = 0.001
BACKLOG_THRESHOLD_S = LATENCY_LIMIT_S / 2
ABORT_BEHIND_S = 0.5
#: The generator's connections (and threads): at most the core count.
CLIENT_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
TOP_K = 10
#: Bit-for-bit comparisons against the in-process engine per run.
SAMPLE_EVENTS = 16
#: Training: one warm-up epoch, then timed epochs filling --seconds at
#: the epoch time measured when the benchmark was defined, so parent
#: and change always do equal work.
EPOCH_S = {0: 5.0, 2: 2.6}
EVALS_PER_EPOCH = 2
#: The online loop trains on a fixed stream so its promote/refuse
#: sequence is known; only the live read traffic follows --seed.
ONLINE_ROUNDS = 4
ONLINE_EVENTS_PER_ROUND = 200
ONLINE_MODEL_SEED = 7
ONLINE_DECISIONS = ["promote", "promote", "promote", "refuse"]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


class Child:
    """A driver process and its stdio protocol (see driver.py)."""

    def __init__(self, mode: str, config: dict) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, DRIVER, mode, json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, tag: str, timeout_s: float = 150.0) -> str:
        """The payload of the next ``tag`` line."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                line = self.lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError(f"driver sent no {tag} within {timeout_s}s")
            if line is None:
                raise RuntimeError(
                    f"driver exited ({self.proc.wait()}) before {tag}")
            if line.startswith(tag + " "):
                return line[len(tag) + 1:]

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self, timeout_s: float = 60.0) -> dict:
        """Send ``stop`` when still listening; return the RESULT payload."""
        try:
            self.send("stop")
        except (BrokenPipeError, OSError):
            pass
        result = json.loads(self.expect("RESULT", timeout_s))
        self.close()
        return result

    def kill(self) -> None:
        self.proc.kill()
        self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


class RssSampler:
    """Peak resident memory of a process tree, sampled from /proc.

    Only the tree's own ``children`` files are read, so a sample costs
    well under a millisecond of this process's time: the sampler shares
    the interpreter lock with the load generator's threads.
    """

    def __init__(self, pid: int, interval_s: float = 0.5) -> None:
        self.pid = pid
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(interval_s,), daemon=True)
        self._thread.start()

    def _tree(self) -> list[int]:
        pids, pending = [], [self.pid]
        while pending:
            pid = pending.pop()
            pids.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        pending.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
        return pids

    def sample(self) -> None:
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            kb = int(line.split()[1])
                            self.peaks[pid] = max(self.peaks.get(pid, 0), kb)
            except OSError:
                continue

    def _run(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; the summed per-process peaks in MB."""
        self.sample()
        self._stop.set()
        self._thread.join()
        return sum(self.peaks.values()) / 1024.0


def wait_health(port: int, child: Child, timeout_s: float = 120.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if child.proc.poll() is not None:
            raise RuntimeError("server exited before /health answered")
        try:
            if get_json("127.0.0.1", port, "/health", 2.0)["status"] == "ok":
                return
        except (OSError, ValueError):
            pass
        time.sleep(0.01)
    raise RuntimeError(f"/health did not answer within {timeout_s}s")


def start(mode: str, config: dict, server: bool) -> tuple[Child, int, float]:
    """Start a driver; return it, its port and spawn-to-ready seconds."""
    child = Child(mode, config)
    try:
        port = int(child.expect("READY"))
        if server:
            wait_health(port, child)
    except BaseException:
        child.kill()
        raise
    return child, port, time.perf_counter() - child.started


def cold_starts(mode: str, config: dict, server: bool, count: int) -> list[float]:
    """Setup times of ``count`` throwaway starts of one driver."""
    times = []
    for __ in range(count):
        child, __port, seconds = start(mode, dict(config, setup_only=True), server)
        times.append(seconds)
        child.finish()
    return times


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def bench_dataset(seed: int):
    from repro.data.registry import load_dataset
    from repro.experiments.config import BENCH_SCALE

    scale = BENCH_SCALE.with_overrides(seed=seed)
    return scale, load_dataset("beauty", scale=scale.dataset_scale, seed=scale.seed)


def save_initial_checkpoint(seed: int, path: str):
    """A freshly initialised CL4SRec at BENCH_SCALE, saved for serving.

    Serving cost does not depend on the weights' values, and fresh
    weights leave the online loop room to promote, so no training run
    is spent on it.  Returns the dataset the checkpoint belongs to.
    """
    from repro.models.registry import build_model
    from repro.nn.checkpoint import save_checkpoint

    scale, dataset = bench_dataset(seed)
    save_checkpoint(path, build_model("CL4SRec", dataset, scale))
    return dataset


def traffic(seed: int, dataset, events: int):
    """Zipf hot users (cache hits), unique cold visitors (misses), batches."""
    from repro.data.synthetic import synthesize_trace

    return synthesize_trace(
        num_events=events, user_pool=dataset.num_users,
        num_items=dataset.num_items, hot_users=min(200, dataset.num_users),
        k=TOP_K, seed=seed,
    ).events()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def results_of(item) -> list[dict]:
    return item.body["results"] if item.kind == "batch" else [item.body]


def check_responses(outcomes, dataset) -> list[str]:
    """Every 200 holds k distinct in-catalogue items, none already seen."""
    problems = []
    for item in outcomes:
        if not item.ok:
            continue
        for payload, result in zip(item.payloads, results_of(item)):
            if "reason" in result:
                problems.append(f"request {item.index}: item error {result['reason']}")
                continue
            items = result["items"]
            if "user" in payload:
                seen = set(int(i) for i in dataset.seen_items(payload["user"]))
            else:
                seen = set(payload["sequence"])
            if len(items) != TOP_K or len(set(items)) != TOP_K:
                problems.append(f"request {item.index}: {len(set(items))} distinct items, want {TOP_K}")
            elif not all(1 <= i <= dataset.num_items for i in items):
                problems.append(f"request {item.index}: item outside the catalogue")
            elif seen & set(items):
                problems.append(f"request {item.index}: recommends seen items")
    return problems


def check_against_engine(outcomes, engine, seed: int) -> list[str]:
    """A seeded sample of responses equals the in-process engine's."""
    from repro.serve.requests import RecRequest

    served = [item for item in outcomes if item.ok]
    sample = random.Random(seed).sample(served, min(SAMPLE_EVENTS, len(served)))
    problems = []
    for item in sample:
        requests = [RecRequest.from_dict(p) for p in item.payloads]
        expected = [r.to_dict() for r in
                    engine.recommend_batch(requests, on_error="report")]
        for want, got in zip(expected, results_of(item)):
            if (want["items"], want["scores"]) != (got["items"], got["scores"]):
                problems.append(f"request {item.index}: served top-k differs "
                                f"from the in-process engine")
    return problems


def check_invariants(outcomes, metrics_before, metrics_after, wall_s) -> list[str]:
    """The load-test invariants: accounting, envelope, monotone versions."""
    from repro.loadtest import LoadTestResult
    from repro.loadtest.harness import EventOutcome

    events = []
    for item in outcomes:
        event = EventOutcome(index=item.index, kind=item.kind,
                             thread=item.thread, status=item.status,
                             latency_s=item.latency_s,
                             sequences=len(item.payloads),
                             transport_error=item.error)
        if item.ok:
            for result in results_of(item):
                if "reason" in result:
                    event.error_reasons.append(result["reason"])
                else:
                    event.ok_items += 1
                    event.degraded_items += bool(result.get("degraded"))
                if "model_version" in result:
                    event.model_versions.append(int(result["model_version"]))
        elif item.body is not None:
            event.refusal_reason = item.body.get("reason")
        events.append(event)
    return LoadTestResult(events, wall_s, metrics_before, metrics_after).violations


# ----------------------------------------------------------------------
# Serving phases
# ----------------------------------------------------------------------
def p50_ms(values) -> float:
    return stats.percentile(values, 50.0) * 1e3


def light_phase(port: int, events, count: int | None, stop=None):
    outcomes, __ = run_open_loop("127.0.0.1", port, events, LIGHT_RATE,
                                 threads=CLIENT_THREADS, count=count, stop=stop)
    return outcomes


def phase_latencies(outcomes) -> list[float]:
    """Due-to-response seconds; a failed request never arrives."""
    return [item.latency_s if item.ok else math.inf for item in outcomes]


def rung_verdict(outcomes, aborted: bool) -> bool:
    if aborted or len(outcomes) < RUNG_REQUESTS:
        return False
    ok = [item.latency_s for item in outcomes if item.ok]
    return stats.rung_passes(
        ok, len(outcomes) - len(ok), len(outcomes),
        [item.queue_s for item in outcomes], LATENCY_LIMIT_S,
        MAX_FAIL_RATIO, BACKLOG_THRESHOLD_S)


def delivered(outcomes) -> float:
    """Responses per second the phase delivered (``stats.delivered_rate``)."""
    ok = [item for item in outcomes if item.ok]
    return stats.delivered_rate([item.sent for item in ok],
                                [item.done for item in ok])


def ladder(port: int, events) -> tuple[float, list, list]:
    """The highest sustained offered rate above the light one, its rung's
    outcomes (``None`` when no rung passed), and every rung's outcomes."""
    outcomes, rungs = [], {}

    def probe(rate: float) -> bool:
        rung, aborted = run_open_loop(
            "127.0.0.1", port, events, rate, threads=CLIENT_THREADS,
            count=RUNG_REQUESTS, abort_behind_s=ABORT_BEHIND_S)
        passed = rung_verdict(rung, aborted)
        outcomes.extend(rung)
        rungs[rate] = rung
        log(f"  ladder {rate:7.1f} req/s: {'pass' if passed else 'FAIL'} "
            f"(p95 {stats.percentile(phase_latencies(rung), 95.0) * 1e3:.1f} ms"
            f"{', aborted' if aborted else ''})")
        return passed

    best, __ = stats.search_max_rate(LIGHT_RATE, LADDER, LADDER_RESOLUTION, probe)
    return best, rungs.get(best), outcomes


def light_summary(outcomes) -> dict:
    """Latency from due time at the light rate, with its sample count."""
    latencies = phase_latencies(outcomes)
    n = len(latencies)
    tail = stats.tail_percentile(n)
    ok = [item for item in outcomes if item.ok]
    return {
        "samples": n,
        "p50_ms": p50_ms(latencies),
        "tail_p": tail,
        "tail_ms": stats.percentile(latencies, tail) * 1e3 if tail else math.nan,
        "rtt_p50_ms": p50_ms([item.rtt_s for item in ok]),
        "lateness_p95_ms": stats.percentile(
            [item.lateness_s for item in outcomes], 95.0) * 1e3,
    }


STAGES = ("resolve", "encode", "score", "topk")


def engine_costs(windows, calls: int) -> dict:
    """Per-request engine costs over ``(before, after)`` /metrics windows.

    Stage histograms keep exact totals, so differencing two snapshots
    isolates the ``calls`` HTTP requests between them; means per request
    add up, which percentiles do not.
    """
    total_ms = {stage: 0.0 for stage in STAGES + ("total",)}
    requests = encoded = hits = misses = 0
    for before, after in windows:
        for stage in total_ms:
            new = after["latency"].get(stage, {"mean_ms": 0.0, "count": 0})
            old = before["latency"].get(stage, {"mean_ms": 0.0, "count": 0})
            total_ms[stage] += new["mean_ms"] * new["count"] - old["mean_ms"] * old["count"]
        requests += (after["counters"].get("requests", 0)
                     - before["counters"].get("requests", 0))
        encoded += (after["counters"].get("sequences_encoded", 0)
                    - before["counters"].get("sequences_encoded", 0))
        hits += after["cache"]["hits"] - before["cache"]["hits"]
        misses += after["cache"]["misses"] - before["cache"]["misses"]
    return {
        "stages_ms": {stage: total_ms[stage] / calls for stage in STAGES},
        "total_mean_ms": total_ms["total"] / calls,
        "cache_hit_ratio": hits / max(hits + misses, 1),
        "sequences_encoded": encoded,
        "batch_size_mean": requests / calls,
    }


def serving_layers(light: dict, windows, traces, phase: str) -> dict:
    """The serving ledger: client RTT = transport + engine, plus queueing."""
    engine = engine_costs(windows, light["samples"])
    layers = {f"serve.{stage}_ms": value
              for stage, value in engine["stages_ms"].items()}
    layers.update({
        "serve.engine_other_ms": stats.residual(
            engine["total_mean_ms"], engine["stages_ms"].values()),
        "http.rtt_ms": light["rtt_p50_ms"],
        "serve.residual_ms": light["p50_ms"] - light["rtt_p50_ms"],
        "serve.cache_hit_ratio": engine["cache_hit_ratio"],
        "serve.sequences_encoded": engine["sequences_encoded"],
        "serve.batch_size_mean": engine["batch_size_mean"],
        "loadtest.p95_ms": light["tail_ms"],
        "loadtest.samples": light["samples"],
        "loadtest.lateness_ms": light["lateness_p95_ms"],
    })
    spans = [(trace or {}).get("phases", {}).get(phase, {}) for trace in traces]
    calls = [d for s in spans for d in s.get("serve.engine", {}).get("durations_s", [])]
    handler = [d for s in spans for d in s.get("http.handler", {}).get("durations_s", [])]
    if calls:
        # The engine call as the HTTP layer sees it; for a sharded
        # engine that includes the pipes to the workers.
        layers["serve.total_ms"] = p50_ms(calls)
        layers["http.transport_ms"] = light["rtt_p50_ms"] - layers["serve.total_ms"]
        layers["serve.shard_ipc_ms"] = (
            statistics.fmean(calls) * 1e3 - engine["total_mean_ms"])
    if handler:
        layers["http.handler_ms"] = p50_ms(handler)
    return layers


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Run:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, problems, label: str) -> None:
        self.problems.extend(f"{label}: {p}" for p in problems)

    def traced(self, overhead_pct: float, spans: int) -> None:
        """Record a traced phase's overhead; a workload reports its worst."""
        self.layers["trace.overhead_pct"] = max(
            self.layers.get("trace.overhead_pct", 0.0), overhead_pct)
        self.layers["trace.spans"] = self.layers.get("trace.spans", 0) + spans


def per_step(phase: dict, names, steps: int) -> float:
    return sum(phase.get(n, {}).get("self_s", 0.0) for n in names) / steps * 1e3


TRAIN_LAYERS = {
    "data.batch_wait_ms": ["data.batch_wait"],
    "augment.ms": ["augment"],
    "models.sequence_loss_ms": ["models.sequence_loss"],
    "core.contrastive_loss_ms": ["core.contrastive_loss"],
    "nn.backward_ms": ["nn.backward"],
    "nn.clip_ms": ["nn.clip"],
    "nn.optimizer_ms": ["nn.optimizer", "nn.schedule"],
    "runtime.checkpoint_ms": ["runtime.checkpoint"],
    "train.worker_step_ms": ["train.worker_step"],
    "train.allreduce_ms": ["train.allreduce"],
    "train.publish_ms": ["train.publish"],
}


def training_layers(phase: dict) -> dict:
    """Per-step self times of the training layers in one traced phase."""
    steps = phase.get("nn.optimizer", {}).get("calls", 0)
    if not steps:
        return {}
    layers = {name: per_step(phase, spans, steps)
              for name, spans in TRAIN_LAYERS.items()}
    saves = phase.get("runtime.checkpoint", {}).get("calls", 0)
    if saves:
        layers["runtime.checkpoint_bytes"] = (
            phase["runtime.checkpoint_bytes"]["count"] / saves)
    if "train.grad_bytes" in phase:
        layers["train.grad_bytes"] = phase["train.grad_bytes"]["count"] / steps
    layers["train.steps"] = steps
    return layers


def run_training(run: Run, seed: int, seconds: int, trace: bool,
                 workers: int, workdir: str, measure_setup: bool,
                 evals_per_epoch: int) -> dict:
    timed = max(1, round(seconds / EPOCH_S[workers]))
    config = {"seed": seed, "workers": workers, "warmup_epochs": 1,
              "timed_epochs": timed, "evals_per_epoch": evals_per_epoch,
              "workdir": os.path.join(workdir, "train"), "trace": trace}
    before = (SETUPS - 1) // 2 if measure_setup else 0
    setups = cold_starts("train", config, False, before)
    child, __, seconds_ready = start("train", config, server=False)
    sampler = RssSampler(child.proc.pid)
    try:
        result = json.loads(child.expect("RESULT", 170.0))
    finally:
        rss = sampler.stop()
        child.close()
    if measure_setup:
        setups += cold_starts("train", config, False, SETUPS - 1 - before)

    losses = result["losses"]
    if not all(math.isfinite(x) for x in losses) or result["rollbacks"]:
        run.problems.append(f"train: non-finite loss or divergence rollback: "
                            f"{losses}, rollbacks={result['rollbacks']}")
    if not result["ndcg10"] > result["pop_ndcg10"]:
        run.problems.append(f"train: NDCG@10 {result['ndcg10']:.4f} does not "
                            f"beat Pop's {result['pop_ndcg10']:.4f}")
    wall = sum(e["wall"] for e in result["epochs"])
    cpu = sum(e["cpu"] for e in result["epochs"])
    sequences = result["sequences_per_epoch"] * len(result["epochs"])
    run.attempted += len(losses) + len(result["eval_walls"])
    run.failed += sum(not math.isfinite(x) for x in losses)
    eval_s = statistics.median(result["eval_walls"])
    out = {
        "setups": setups + [seconds_ready],
        "rss_mb": rss,
        "train_seq_per_s": sequences / wall,
        "eval_pass_ms": eval_s * 1e3,
        "eval_users_per_s": result["eval_users"] / eval_s,
        "ndcg10": result["ndcg10"],
    }
    run.notes.append(
        f"train(workers={workers}): {len(result['epochs'])} timed epochs, "
        f"{out['train_seq_per_s']:.1f} seq/s, driver CPU/wall {cpu / wall:.2f}; eval "
        f"{out['eval_users_per_s']:.0f} users/s; NDCG@10 {result['ndcg10']:.4f} "
        f"vs Pop {result['pop_ndcg10']:.4f}")
    if trace:
        phases = result["trace"]["phases"]
        train_phase = phases.get("train", {})
        layers = training_layers(train_phase)
        steps = layers["train.steps"]
        self_total = sum(v["self_s"] for v in train_phase.values() if "self_s" in v)
        spans = sum(v.get("calls", 0) for v in train_phase.values())
        layers.update({
            "train.wall_ms": wall / steps * 1e3,
            "train.cpu_ms": cpu / steps * 1e3,
            "train.residual_ms": stats.residual(wall, [self_total]) / steps * 1e3,
        })
        run.traced(100.0 * spans * result["trace"]["span_cost_s"] / wall,
                   result["trace"]["spans"])
        eval_phase = phases.get("eval", {})
        passes = len(result["eval_walls"])
        layers["eval.score_ms"] = eval_phase.get("eval.score", {}).get("self_s", 0.0) / passes * 1e3
        layers["eval.rank_ms"] = eval_phase.get("eval.rank", {}).get("self_s", 0.0) / passes * 1e3
        layers["eval.users_per_s"] = out["eval_users_per_s"]
        layers["eval.ndcg10"] = result["ndcg10"]
        run.layers.update(layers)
    return out


def run_serving(run: Run, seed: int, trace: bool, workers: int, workdir: str,
                ladder_on: bool) -> dict:
    """Light-rate latency pooled over ``SERVERS`` fresh servers, then the ladder.

    Each server process is timed from spawn to ``/health``, warmed with
    ``WARMUP_REQUESTS`` unmeasured requests, and serves an equal share
    of the light phase; pooling several processes averages out the
    process-to-process variation of a millisecond-scale latency.  The
    ladder then runs on the last server, and ``SETUPS - SERVERS`` more
    servers are only timed to ``/health``.
    """
    checkpoint = os.path.join(workdir, "init.npz")
    dataset = save_initial_checkpoint(seed, checkpoint)
    config = {"seed": seed, "workers": workers, "checkpoint": checkpoint,
              "trace": trace}
    events = traffic(seed, dataset, 50000)
    # The light phase is the ladder's floor, so it needs a p95; without
    # a ladder a p90 (and the p50) is enough.
    light_requests = RUNG_REQUESTS if ladder_on else stats.min_samples(90.0)
    share = math.ceil(light_requests / SERVERS)
    setups, light, rungs, rss, best, best_rung = [], [], [], 0.0, 0.0, None
    windows, traces = [], []
    for index in range(SERVERS):
        child, port, ready = start("serve", config, server=True)
        setups.append(ready)
        sampler = RssSampler(child.proc.pid)
        last = index == SERVERS - 1
        try:
            run_open_loop("127.0.0.1", port, events, WARMUP_RATE,
                          threads=CLIENT_THREADS, count=WARMUP_REQUESTS)
            before = get_json("127.0.0.1", port, "/metrics")
            child.send("phase light")
            started = time.perf_counter()
            part = light_phase(port, events, share)
            child.send("phase -")
            snapshot = get_json("127.0.0.1", port, "/metrics")
            if last and ladder_on:
                best, best_rung, rungs = ladder(port, events)
            after = get_json("127.0.0.1", port, "/metrics")
            wall = time.perf_counter() - started
            rss = max(rss, sampler.stop())
        finally:
            result = child.finish()
        run.check(check_invariants(part + (rungs if last else []), before,
                                   after, wall), "serve")
        light.extend(part)
        windows.append((before, snapshot))
        traces.append(result["trace"])
    setups += cold_starts("serve", config, True, SETUPS - SERVERS)
    outcomes = light + rungs
    summary = light_summary(light)
    # The light rate is the ladder's floor: when it fails nothing passes.
    # The metric is the rate the highest passing rung delivered (the last
    # server's light share when no rung passed): the offered rates are
    # fixed points of the search, the delivered one is measured.
    max_rate = (delivered(best_rung or part)
                if ladder_on and rung_verdict(light, False) else 0.0)

    from repro.serve import ServeConfig

    engine = ServeConfig(checkpoint=checkpoint, preset="bench", seed=seed).build_engine()
    try:
        run.check(check_responses(outcomes, dataset), "serve")
        run.check(check_against_engine(light, engine, seed),
                  "scale-out" if workers else "serve")
    finally:
        engine.close()
    run.attempted += len(outcomes)
    run.failed += sum(not item.ok for item in outcomes)
    run.notes.append(
        f"serve(workers={workers}): light {LIGHT_RATE:g} req/s over {SERVERS} "
        f"servers: p50 {summary['p50_ms']:.2f} ms, p{summary['tail_p']:g} "
        f"{summary['tail_ms']:.2f} ms over {summary['samples']} requests, "
        f"client RTT p50 {summary['rtt_p50_ms']:.2f} ms, generator lateness "
        f"p95 {summary['lateness_p95_ms']:.3f} ms"
        + (f"; max sustained {best:g} req/s offered, {max_rate:.2f} "
           f"delivered" if ladder_on else ""))
    if trace:
        layers = serving_layers(summary, windows, traces, "light")
        if not workers:
            layers.pop("serve.shard_ipc_ms", None)
        spans = sum(v.get("calls", 0) for t in traces
                    for v in t["phases"].get("light", {}).values())
        run.layers.update(layers)
        run.traced(100.0 * spans * statistics.fmean(
            t["span_cost_s"] for t in traces) / (len(light) / LIGHT_RATE),
            sum(t["spans"] for t in traces))
        run.notes.append(
            f"ledger: p50 from due {summary['p50_ms']:.3f} ms = queueing "
            f"{layers['serve.residual_ms']:.3f} + transport "
            f"{layers['http.transport_ms']:.3f} + engine call p50 "
            f"{layers['serve.total_ms']:.3f} ms (engine means: "
            + ", ".join(f"{stage} {layers[f'serve.{stage}_ms']:.3f}"
                        for stage in STAGES)
            + f", other {layers['serve.engine_other_ms']:.3f} ms)")
    return {"setups": setups, "rss_mb": rss, "light": summary,
            "max_rate": max_rate}


def workload_train(run: Run, seed, seconds, trace, workdir) -> None:
    out = run_training(run, seed, seconds, trace, 0, workdir, True,
                       EVALS_PER_EPOCH)
    run.metrics = {
        "setup_s": statistics.median(out["setups"]),
        "peak_rss_mb": out["rss_mb"],
        "throughput_per_s": out["train_seq_per_s"],
        "latency_p50_ms": out["eval_pass_ms"],
    }


def workload_serve(run: Run, seed, seconds, trace, workdir) -> None:
    out = run_serving(run, seed, trace, 0, workdir, ladder_on=True)
    run.metrics = {
        "setup_s": statistics.median(out["setups"]),
        "peak_rss_mb": out["rss_mb"],
        "throughput_per_s": out["max_rate"],
        "latency_p50_ms": out["light"]["p50_ms"],
    }


def workload_scale_out(run: Run, seed, seconds, trace, workdir) -> None:
    # Only the final eval pass: here it guards quality; its speed is train's.
    train = run_training(run, seed, seconds, trace, 2, workdir, False, 0)
    serve = run_serving(run, seed, trace, 2, workdir, ladder_on=False)
    run.metrics = {
        "setup_s": statistics.median(serve["setups"]),
        "peak_rss_mb": max(train["rss_mb"], serve["rss_mb"]),
        "throughput_per_s": train["train_seq_per_s"],
        "latency_p50_ms": serve["light"]["p50_ms"],
    }


#: The online loop's stages, per round (total time: a stage's own
#: training steps are traced too).
ONLINE_LAYERS = {
    "online.ingest_s": "online.ingest",
    "online.finetune_s": "online.finetune",
    "online.shadow_s": "online.shadow",
    "online.publish_s": "online.publish",
    "online.swap_s": "online.swap",
}


def workload_online(run: Run, seed, seconds, trace, workdir) -> None:
    checkpoint = os.path.join(workdir, "init.npz")
    dataset = save_initial_checkpoint(ONLINE_MODEL_SEED, checkpoint)
    config = {"checkpoint": checkpoint, "model_seed": ONLINE_MODEL_SEED,
              "rounds": ONLINE_ROUNDS, "events_per_round": ONLINE_EVENTS_PER_ROUND,
              "stream_seed": 0, "loop_seed": 0, "trace": trace}

    def fresh(index: int) -> dict:
        return dict(config, workdir=os.path.join(workdir, f"online-{index}"))

    setups = []
    for index in range(SETUPS - 1):
        child, __, ready = start("online", fresh(index), server=True)
        setups.append(ready)
        child.finish()
    child, port, ready = start("online", fresh(SETUPS), server=True)
    setups.append(ready)
    sampler = RssSampler(child.proc.pid)
    stop = threading.Event()
    reads: list = []
    try:
        before = get_json("127.0.0.1", port, "/metrics")
        events = traffic(seed, dataset, 100000)
        reader = threading.Thread(
            target=lambda: reads.extend(light_phase(port, events, None, stop)),
            daemon=True)
        started = time.perf_counter()
        reader.start()
        child.send("go")
        rounds = json.loads(child.expect("ROUNDS", 170.0))
        stop.set()
        reader.join()
        wall = time.perf_counter() - started
        after = get_json("127.0.0.1", port, "/metrics")
        rss = sampler.stop()
    finally:
        stop.set()
        result = child.finish()

    if rounds["decisions"] != ONLINE_DECISIONS:
        run.problems.append(f"online: decisions {rounds['decisions']} "
                            f"({rounds['reasons']}) differ from the recorded "
                            f"{ONLINE_DECISIONS}")
    run.check(check_responses(reads, dataset), "online")
    run.check(check_invariants(reads, before, after, wall), "online")
    summary = light_summary(reads)
    round_s = statistics.fmean(rounds["durations"])
    run.attempted += len(reads) + len(rounds["decisions"])
    run.failed += sum(not item.ok for item in reads)
    run.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": sum(rounds["events"]) / sum(rounds["durations"]),
        "latency_p50_ms": summary["p50_ms"],
    }
    run.notes.append(
        f"online: {ONLINE_ROUNDS} rounds, mean {round_s:.2f} s/round, "
        f"decisions {rounds['decisions']}; live reads p50 "
        f"{summary['p50_ms']:.2f} ms, p{summary['tail_p']:g} "
        f"{summary['tail_ms']:.2f} ms over {summary['samples']} requests")
    if trace:
        phase = result["trace"]["phases"].get("online", {})
        layers = training_layers(phase)
        n = len(rounds["durations"])
        for metric, span in ONLINE_LAYERS.items():
            layers[metric] = phase.get(span, {}).get("total_s", 0.0) / n
        layers["online.publish_bytes"] = (
            phase.get("online.publish_bytes", {}).get("count", 0.0)
            / max(phase.get("online.publish", {}).get("calls", 0), 1))
        layers["online.round_s"] = round_s
        layers["online.residual_s"] = stats.residual(
            round_s, [layers[m] for m in ONLINE_LAYERS])
        calls = sum(v.get("calls", 0) for v in phase.values())
        layers.update(serving_layers(summary, [(before, after)],
                                     [result["trace"]], "online"))
        layers.pop("serve.shard_ipc_ms", None)
        run.layers.update(layers)
        run.traced(100.0 * calls * result["trace"]["span_cost_s"]
                   / sum(rounds["durations"]), result["trace"]["spans"])


RUNNERS = {
    "train": workload_train,
    "serve": workload_serve,
    "online": workload_online,
    "scale-out": workload_scale_out,
}


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def git_state() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    if sha.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed one-thread matmul loop: the host's speed now.

    The shared host's speed drifts by tens of percent over minutes; the
    probe at the start and end of a run shows whether a slow run was a
    slow host.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((192, 192))
    times = []
    for __ in range(repeats):
        started = time.perf_counter()
        for __ in range(20):
            a @ a
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "host_probe_ms_start": host_probe_ms(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(PINNED_ENV["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **git_state(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Run:
    run = Run()
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        RUNNERS[name](run, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def report(name: str, run: Run, definition: dict, trace: bool) -> dict:
    """Print the human table; return the contract's result object."""
    group = "per_layer" if trace else "end_to_end"
    values = run.layers if trace else run.metrics
    units = {spec["name"]: spec["unit"] for spec in definition[group]}
    metrics = {metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
               for metric, unit in units.items()}
    for metric in sorted(set(units) | set(values)):
        value = float(values.get(metric, 0.0))
        unit = units.get(metric, "(not in BENCHMARK.json)")
        print(f"{name:10s} {metric:28s} {value:14.4f} {unit}")
    for note in run.notes:
        print(f"{name:10s} # {note}")
    for problem in run.problems:
        print(f"{name:10s} ! {problem}")
    return {
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + WITHHELD + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"perfbench: no program to measure: {SRC}/repro is missing")
        return 2
    os.environ.update(PINNED_ENV)
    definition = load_definition()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"fingerprint {json.dumps(fingerprint(), sort_keys=True)}")
    results = {}
    for name in names:
        log(f"perfbench: {name} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace}")
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, run, definition, bool(args.trace))
    print(f"loadavg_end {json.dumps(os.getloadavg())}")
    print(f"host_probe_ms_end {host_probe_ms():.3f}")
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
