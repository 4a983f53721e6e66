"""Deterministic data-parallel training over shared-memory workers.

:class:`ParallelWorkerPool` is the ``workers=N`` pool the epoch driver
(:mod:`repro.train.driver`) steps.  The coordinator keeps the
authoritative model, optimizer, schedule and runtime; it forks N workers
(:class:`~repro.core.procpool.ProcessPool`, shared with
:mod:`repro.serve.workers`) that each hold a read-only zero-copy view of
the **parameter pages** the coordinator republishes before every step
(:class:`~repro.core.shm.SharedArrays`: N workers cost one copy of the
weights), a private **gradient segment** only that worker writes, its
own round-robin shard ``users[w::N]`` and its own spawned RNG streams.

Per step, every active worker runs one micro-batch of its stage
(:mod:`repro.train.stages`) forward and backward and writes its
gradient into shared memory; the coordinator reduces the gradients in
**fixed worker order with pairwise summation** (:func:`pairwise_sum`).
Float addition is not associative, so the fixed reduction tree is what
makes a run bit-reproducible at a fixed worker count.

Determinism contract (tested in ``tests/train/test_parallel.py``; see
``docs/SCALING.md`` "Training at scale"):

* Two runs with the same seed **and worker count** produce
  bit-identical weights, losses, checkpoints and obs metrics.
* **Different worker counts diverge** by design: the effective batch is
  the union of N micro-batches drawn from independent streams, so
  ``workers=N`` is a different (equally valid) sample than ``workers=0``
  (the driver's in-process pool of one, bit-identical to the goldens).
* Resume is bit-exact: the checkpoint's ``aux/worker_rng`` group holds
  every worker's generator states, captured at epoch boundaries; a
  fresh process spawns the same child streams, then restores them.

Failure model: a worker that dies, hangs past ``worker_timeout_s`` or
raises surfaces as a :class:`WorkerFailedError` naming the worker and
the global step; closing the pool unlinks every shared segment.
``FaultInjector.kill_worker`` schedules a deterministic worker death.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.augment.batched import spawn_stream
from repro.core.procpool import ProcessPool, send_error, serve_commands
from repro.core.shm import SharedArrays, adopt_parameters
from repro.nn import precision
from repro.nn.serialization import CheckpointError
from repro.runtime.resume import capture_rng_states, restore_rng_states
from repro.train.stages import STAGES

__all__ = ["WorkerFailedError", "ParallelWorkerPool", "pairwise_sum"]

#: Checkpoint aux group holding each worker's serialized RNG streams.
WORKER_RNG_GROUP = "worker_rng"


def check_worker_streams(group: dict, workers: int) -> None:
    """Fail fast unless ``group`` holds exactly ``workers`` workers' streams."""
    if sorted(group) != sorted(f"worker_{worker}" for worker in range(workers)):
        raise CheckpointError(
            f"checkpoint holds RNG streams for {len(group)} training workers, "
            f"run has {workers} — resume with the worker count the run was "
            f"started with"
        )


class WorkerFailedError(RuntimeError):
    """A training worker died, hung, or errored — named, not silent.

    ``worker`` is the failed worker's id, ``step`` the 1-based global
    step the coordinator was driving when the failure surfaced (0 when
    it happened outside the step loop, e.g. at startup).
    """

    def __init__(self, worker: int, step: int, message: str) -> None:
        super().__init__(message)
        self.worker = int(worker)
        self.step = int(step)


def pairwise_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """Fixed-order pairwise (binary-tree) summation.

    The reduction tree depends only on ``len(arrays)`` — never on
    which worker replied first — so summing N worker gradients is
    bit-reproducible at fixed N.  Pairwise summation also carries the
    classic O(log N) rounding-error bound, for free.
    """
    items = list(arrays)
    if not items:
        raise ValueError("pairwise_sum needs at least one array")
    while len(items) > 1:
        merged = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def _rebind_model_rng(model, stream) -> None:
    """Point every module-held generator reference at ``stream``.

    Layers capture the model's generator *object* at construction time
    (dropout shares ``model._rng``), so rebinding only ``model._rng``
    would leave dropout drawing from the fork-inherited coordinator
    generator — invisible to the worker's RNG capture/restore and
    therefore not bit-exact across a resume.
    """
    old = getattr(model, "_rng", None)
    for module in model.modules():
        for name, value in list(vars(module).items()):
            if value is old:
                object.__setattr__(module, name, stream)
    model._rng = stream


def _train_worker_main(conn, spec: dict) -> None:
    """Training-worker entry point: adopt shared state, serve commands.

    Commands: ``("epoch", e)`` opens the epoch's batch streams,
    ``("step",)`` computes one micro-batch's gradient into the worker's
    gradient segment and replies with scalars, ``("get_rng",)`` /
    ``("set_rng", packed)`` serialize/restore the worker's generator
    streams for checkpointing, ``("shutdown",)`` exits cleanly.
    """
    try:
        model = spec["model"]
        worker = spec["worker"]
        pages = SharedArrays.attach(spec["pages"])
        adopt_parameters(model, pages.views)
        grads = SharedArrays.attach(spec["grads"], writeable=True)
        # Dropout moves to its own spawned stream — the loop generator
        # keeps feeding the loaders exactly as in single-process mode.
        rng = spec["rng"]
        _rebind_model_rng(model, spawn_stream(rng))
        stage = STAGES[spec["stage"]](
            model, spec["dataset"], spec["config"], rng,
            shard=(worker, spec["workers"]),
        )
        rngs = stage.rngs
        params = dict(model.named_parameters())
        trainable = [(name, params[name]) for name in spec["trainable"]]
        faults = spec["faults"]
        conn.send(("ok", {"steps_per_epoch": stage.steps_per_epoch,
                          "pid": os.getpid()}))
    except BaseException as error:  # surface startup failures
        send_error(conn, error)
        conn.close()
        return

    def step():
        if faults is not None:
            faults.on_worker_step(worker)
        started = time.perf_counter()
        loss, count, extras = stage.step()
        model.zero_grad()
        loss.backward()
        missing = []
        for index, (name, param) in enumerate(trainable):
            view = grads.views[name]
            if param.grad is None:
                view[...] = 0.0
                missing.append(index)
            else:
                view[...] = param.grad
        return {
            "loss": float(loss.item()),
            "count": int(count),
            "seconds": time.perf_counter() - started,
            "missing": missing,
            "extras": extras,
        }

    model.train()
    with precision.precision(np.dtype(spec["dtype"])):
        serve_commands(conn, {
            "epoch": lambda epoch: stage.begin_epoch(),
            "step": step,
            "get_rng": lambda: capture_rng_states(rngs),
            "set_rng": lambda packed: restore_rng_states(rngs, packed),
        })
    stage.close()
    pages.close()
    grads.close()
    conn.close()


class ParallelWorkerPool(ProcessPool):
    """N forked training workers over shared parameter pages.

    The coordinator creates every segment and is the only process that
    unlinks it; workers attach and close.  All control flow is
    synchronous — one command, one reply, in worker order — which is
    exactly what keeps the run deterministic.
    """

    role = "training worker"

    def __init__(self, stage: str, model, dataset, config,
                 rng: np.random.Generator, workers: int, dtype: np.dtype,
                 faults=None, start_method: str | None = None,
                 worker_timeout_s: float = 300.0, obs=None) -> None:
        super().__init__(worker_timeout_s)
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.stage = stage
        self.workers = int(workers)
        self.obs = obs
        self._model = model
        self._global_step = 0
        self.epoch_fields = {"workers": self.workers}

        # Optimizer parameter order mirrors the stage's; the
        # gradient-page layout uses state-dict names in
        # named_parameters order (same Parameter objects either way).
        self.params = STAGES[stage].parameters(model)
        ids = {id(param) for param in self.params}
        self.trainable = [
            (name, param)
            for name, param in model.named_parameters()
            if id(param) in ids
        ]

        # Workers' root streams are spawned BEFORE any checkpoint
        # restore: generator state does not include spawn counters, so
        # a fresh process must always spawn the same children first and
        # restore their bit states afterwards (see restore_rng).
        child_rngs = [spawn_stream(rng) for __ in range(self.workers)]

        self._pages = SharedArrays.create(
            {name: param.data for name, param in model.named_parameters()},
            name_prefix="repro-train",
            writeable=True,
        )
        zeros = {name: np.zeros_like(param.data) for name, param in self.trainable}
        self._grads = [
            SharedArrays.create(zeros, name_prefix="repro-grad")
            for __ in range(self.workers)
        ]
        self.grad_payload_bytes = self._grads[0].payload_bytes

        shared = {
            "stage": stage, "model": model, "dataset": dataset,
            "config": config, "workers": self.workers,
            "dtype": np.dtype(dtype).name, "pages": self._pages.meta(),
            "trainable": [name for name, __ in self.trainable],
            "faults": faults,
        }
        specs = [
            {**shared, "worker": worker, "rng": child_rngs[worker],
             "grads": self._grads[worker].meta()}
            for worker in range(self.workers)
        ]
        try:
            self._spawn(_train_worker_main, specs, "repro-train-worker",
                        start_method)
            self.steps_per_worker = [
                int(self._recv(worker)["steps_per_epoch"])
                for worker in range(self.workers)
            ]
        except BaseException:
            self.close()
            raise
        #: The coordinator drives the max shard's batch count; workers
        #: whose (smaller) shard is exhausted idle out the step tail.
        self.steps_per_epoch = max(self.steps_per_worker, default=0)

    def _failure(self, worker: int, what: str) -> Exception:
        step = self._global_step
        return WorkerFailedError(
            worker, step, f"{self.role} {worker} {what} at global step {step}"
        )

    def _worker_error(self, worker: int, error: BaseException) -> BaseException:
        step = self._global_step
        failure = WorkerFailedError(
            worker, step, f"{self.role} {worker} failed at global step {step}: {error}"
        )
        failure.__cause__ = error
        return failure

    # ------------------------------------------------------------------
    # Training protocol
    # ------------------------------------------------------------------
    def publish(self, model) -> None:
        """Copy the coordinator's current parameters into the pages."""
        views = self._pages.views
        for name, param in model.named_parameters():
            views[name][...] = param.data

    def begin_epoch(self, epoch: int) -> None:
        """Open every worker's batch streams for ``epoch``."""
        self._per_worker = [
            {"steps": 0, "sequences": 0, "seconds": 0.0}
            for __ in range(self.workers)
        ]
        for worker in range(self.workers):
            self._send(worker, ("epoch", epoch))
        for worker in range(self.workers):
            self._recv(worker)

    def step(self, step_index: int):
        """One synchronous step on every still-active worker.

        Publishes the weights, collects the workers' micro-batch
        gradients and allreduces them into ``param.grad``.  Returns the
        union batch's row-weighted mean loss, its row count and the
        row-weighted means of the stage's side metrics.
        """
        self.publish(self._model)
        self._global_step += 1
        active = [
            worker
            for worker in range(self.workers)
            if self.steps_per_worker[worker] > step_index
        ]
        for worker in active:
            self._send(worker, ("step",))
        payloads = [self._recv(worker) for worker in active]
        counts = [payload["count"] for payload in payloads]
        reduce_started = time.perf_counter()
        total = self.reduce_gradients(active, payloads)
        reduce_seconds = time.perf_counter() - reduce_started
        for worker, payload in zip(active, payloads):
            stats = self._per_worker[worker]
            stats["steps"] += 1
            stats["sequences"] += payload["count"]
            stats["seconds"] += payload["seconds"]
        if self.obs is not None:
            self.obs.observe("train.allreduce_seconds", reduce_seconds)
            self.obs.increment(
                "train.grad_bytes_reduced", self.grad_payload_bytes * len(active)
            )
            for payload in payloads:
                if payload["seconds"] > 0:
                    self.obs.observe(
                        "train.worker_items_per_sec",
                        payload["count"] / payload["seconds"],
                    )

        def weighted(values):
            # Row-count-weighted mean of a per-worker scalar (fixed order).
            return sum(value * count for value, count in zip(values, counts)) / total

        loss = weighted(payload["loss"] for payload in payloads)
        extras = {
            key: weighted(payload["extras"][key] for payload in payloads)
            for key in payloads[0]["extras"]
        }
        return loss, int(total), extras

    def reduce_gradients(self, active: list[int], payloads: list[dict]) -> float:
        """Fixed-order weighted allreduce into ``param.grad``.

        Each worker's gradient is the mean over its ``count`` rows;
        weighting by row count and dividing by the union size yields
        the exact gradient of the union micro-batch's mean loss.
        Workers that saw no gradient for a parameter shipped zeros —
        they stay in the tree (fixed shape) unless *every* worker
        missed it, in which case the parameter keeps ``grad=None`` so
        the optimizer skips it exactly like the in-process pool.
        Returns the union row count.
        """
        counts = [int(payload["count"]) for payload in payloads]
        total = float(sum(counts))
        skip = set(payloads[0]["missing"]) if payloads else set()
        for payload in payloads[1:]:
            skip &= set(payload["missing"])
        for index, (name, param) in enumerate(self.trainable):
            if index in skip:
                param.grad = None
                continue
            scaled = [
                self._grads[worker].views[name] * float(count)
                for worker, count in zip(active, counts)
            ]
            grad = pairwise_sum(scaled)
            grad /= total
            param.grad = grad
        return total

    def end_epoch(self, epoch: int) -> None:
        """Report each worker's share of the epoch (``parallel_worker``)."""
        if self.obs is None:
            return
        label = STAGES[self.stage].label
        for worker, stats in enumerate(self._per_worker):
            seconds = stats["seconds"]
            self.obs.event(
                "parallel_worker", stage=label, epoch=epoch, worker=worker,
                steps=stats["steps"], sequences=stats["sequences"],
                compute_seconds=seconds,
                items_per_sec=stats["sequences"] / seconds if seconds > 0 else 0.0,
            )

    # ------------------------------------------------------------------
    # RNG stream checkpointing
    # ------------------------------------------------------------------
    def capture_rng(self) -> dict[str, np.ndarray]:
        """Every worker's serialized generator states (aux group)."""
        for worker in range(self.workers):
            self._send(worker, ("get_rng",))
        return {
            f"worker_{worker}": np.asarray(self._recv(worker))
            for worker in range(self.workers)
        }

    def restore_rng(self, group: dict[str, np.ndarray]) -> None:
        """Restore each worker's streams from a checkpoint aux group."""
        check_worker_streams(group, self.workers)
        for worker in range(self.workers):
            self._send(worker, ("set_rng", group[f"worker_{worker}"]))
        for worker in range(self.workers):
            self._recv(worker)

    def _release(self) -> None:
        """Retire the parameter pages and every gradient segment."""
        for segment in [getattr(self, "_pages", None), *getattr(self, "_grads", [])]:
            if segment is not None:
                segment.close()
                segment.unlink()
