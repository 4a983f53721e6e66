"""One workload's program, started in its own process by ``run.py``.

The driver calls the public API the way ``python -m repro train``,
``serve`` and ``online --port`` do, and talks to ``run.py`` over
stdio: it prints ``READY <port>`` once set up, obeys ``go``, ``phase
<name>`` and ``stop`` lines on stdin, and prints one ``RESULT <json>``
line before it exits.  With ``"trace": true`` it wraps the public calls
into each layer (see :mod:`perfbench.tracer`); the program gains no
tracing of its own.

Usage (``run.py`` builds the JSON)::

    python3 perfbench/driver.py train '{"seed": 1, ...}'
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracer import Tracer  # noqa: E402


def emit(tag: str, payload="") -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload)
    sys.stdout.write(f"{tag} {text}\n")
    sys.stdout.flush()


def commands():
    """Yield stdin command lines until EOF."""
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield line


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# ----------------------------------------------------------------------
# Layer wrapping
# ----------------------------------------------------------------------
def trace_training_layers(tracer: Tracer) -> None:
    """Spans on the public calls a training step makes."""
    from repro.augment.compose import PairSampler
    from repro.core.cl4srec import CL4SRec
    from repro.data.loaders import NextItemBatchLoader
    from repro.data.pipeline import CyclingStream
    from repro.nn.optim import Adam, GradientClipper, LinearDecaySchedule
    from repro.nn.tensor import Tensor
    from repro.runtime.checkpointing import CheckpointManager
    from repro.train.parallel import ParallelWorkerPool

    tracer.wrap(NextItemBatchLoader, "epoch", "data.batch_wait", iterate=True)
    tracer.wrap(CyclingStream, "next", "data.batch_wait")
    tracer.wrap(PairSampler, "__call__", "augment")
    tracer.wrap(CL4SRec, "sequence_loss", "models.sequence_loss")
    tracer.wrap(CL4SRec, "contrastive_loss", "core.contrastive_loss")
    tracer.wrap(Tensor, "backward", "nn.backward")
    tracer.wrap(GradientClipper, "clip", "nn.clip")
    tracer.wrap(Adam, "step", "nn.optimizer")
    tracer.wrap(LinearDecaySchedule, "step", "nn.schedule")
    tracer.wrap(
        CheckpointManager, "save", "runtime.checkpoint",
        after=lambda path, args, kwargs: tracer.count(
            "runtime.checkpoint_bytes", _file_size(path)),
    )
    tracer.wrap(ParallelWorkerPool, "step", "train.worker_step")
    tracer.wrap(ParallelWorkerPool, "publish", "train.publish")

    def grad_bytes(result, args, kwargs):
        pool, active = args[0], args[1]
        per_worker = sum(param.data.nbytes for __, param in pool.trainable)
        tracer.count("train.grad_bytes", per_worker * len(active))

    tracer.wrap(ParallelWorkerPool, "reduce_gradients", "train.allreduce",
                after=grad_bytes)


def trace_eval_layers(tracer: Tracer) -> None:
    import repro.eval.evaluator as evaluator

    tracer.wrap(evaluator, "candidate_scores", "eval.score")
    tracer.wrap(evaluator, "rank_of_target", "eval.rank")


def trace_serving_layers(tracer: Tracer, engine) -> None:
    from repro.serve import RecommendationServer

    tracer.wrap(RecommendationServer, "handle_single", "http.handler")
    tracer.wrap(RecommendationServer, "handle_batch", "http.handler")
    # The serving engine only: the online loop's shadow evaluation builds
    # engines of its own.
    tracer.wrap(engine, "recommend_batch", "serve.engine")
    tracer.keep_durations("http.handler")
    tracer.keep_durations("serve.engine")


def trace_online_layers(tracer: Tracer) -> None:
    import repro.online.loop as loop
    from repro.online.finetune import IncrementalFineTuner
    from repro.online.stream import StreamIngestor
    from repro.online.versions import ModelVersionStore
    from repro.serve import RecommendationServer

    tracer.wrap(StreamIngestor, "take", "online.ingest")
    tracer.wrap(IncrementalFineTuner, "run_round", "online.finetune")
    tracer.wrap(loop, "shadow_evaluate", "online.shadow")
    tracer.wrap(
        ModelVersionStore, "publish", "online.publish",
        after=lambda record, args, kwargs: tracer.count(
            "online.publish_bytes", _file_size(args[0].path(record.version))),
    )
    tracer.wrap(RecommendationServer, "reload", "online.swap")


def _tracer(config: dict) -> Tracer | None:
    return Tracer() if config.get("trace") else None


def _finish_trace(tracer: Tracer | None) -> dict | None:
    if tracer is None:
        return None
    tracer.phase = None
    summary = tracer.summary()
    summary["span_cost_s"] = tracer.calibrate()
    tracer.restore()
    return summary


# ----------------------------------------------------------------------
# train: `repro train` (joint mode) + timed epochs + full-ranking eval
# ----------------------------------------------------------------------
def run_train(config: dict) -> None:
    from repro.core.trainer import train_joint
    from repro.data.registry import load_dataset
    from repro.eval.evaluator import Evaluator
    from repro.experiments.config import BENCH_SCALE
    from repro.experiments.factory import build_model
    from repro.models.registry import build_model as build_registered
    from repro.runtime import CheckpointManager, TrainingRuntime

    warmup, timed = config["warmup_epochs"], config["timed_epochs"]
    scale = BENCH_SCALE.with_overrides(seed=config["seed"], epochs=warmup + timed)
    dataset = load_dataset("beauty", scale=scale.dataset_scale, seed=scale.seed)
    model = build_model("CL4SRec", dataset, scale, mode="joint")
    for stage in (model.cl_config.joint, model.cl_config.pretrain,
                  model.cl_config.sasrec.train):
        stage.pipeline = "reference"
        stage.dtype = None
        stage.workers = config["workers"]
    runtime = TrainingRuntime(
        CheckpointManager(os.path.join(config["workdir"], "joint"), keep=3),
        checkpoint_every=1,
        resume=False,
        guard=True,
    )
    emit("READY", "0")
    if config.get("setup_only"):
        emit("RESULT", {})
        return

    tracer = _tracer(config)
    if tracer is not None:
        trace_training_layers(tracer)
        trace_eval_layers(tracer)

    evaluator = Evaluator(dataset, split="test")
    eval_walls: list[float] = []

    def eval_pass():
        if tracer is not None:
            tracer.phase = "eval"
        started = time.perf_counter()
        result = evaluator.evaluate(model)
        eval_walls.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.phase = None
        return result

    # Eval passes are spread over the run (``evals_per_epoch`` after each
    # timed epoch, one after training) so their median samples all of it.
    epochs: list[dict] = []
    begin_epoch, end_epoch = runtime.begin_epoch, runtime.end_epoch

    def timed_begin(epoch):
        if tracer is not None and epoch >= warmup:
            tracer.phase = "train"
        epochs.append({"epoch": epoch, "wall": time.perf_counter(),
                       "cpu": time.process_time()})
        return begin_epoch(epoch)

    def timed_end(epoch):
        result = end_epoch(epoch)
        mark = epochs[-1]
        mark["wall"] = time.perf_counter() - mark["wall"]
        mark["cpu"] = time.process_time() - mark["cpu"]
        if tracer is not None:
            tracer.phase = None
        if epoch >= warmup and config["evals_per_epoch"]:
            model.eval()
            for __ in range(config["evals_per_epoch"]):
                eval_pass()
            model.train()
        return result

    runtime.begin_epoch, runtime.end_epoch = timed_begin, timed_end
    losses = train_joint(model, dataset, model.cl_config.joint,
                         rng=model._rng, runtime=runtime)
    result = eval_pass()
    pop = build_registered("Pop", dataset, scale).fit(dataset)
    pop_ndcg10 = evaluator.evaluate(pop).metrics["NDCG@10"]

    emit("RESULT", {
        "losses": [float(x) for x in losses],
        "rollbacks": runtime.guard.total_rollbacks if runtime.guard else 0,
        "epochs": [m for m in epochs if m["epoch"] >= warmup],
        "sequences_per_epoch": int(sum(
            len(sequence) >= 2 for sequence in dataset.train_sequences)),
        "eval_walls": eval_walls,
        "eval_users": int(result.num_users),
        "ndcg10": float(result.metrics["NDCG@10"]),
        "pop_ndcg10": float(pop_ndcg10),
        "trace": _finish_trace(tracer),
    })


# ----------------------------------------------------------------------
# serve: `repro serve --port` (single engine or --workers N)
# ----------------------------------------------------------------------
def _start_server(engine):
    """Serve ``engine`` from a daemon thread.

    The listener is never shut down: it ends with the process, once the
    benchmark has stopped sending.  ``shutdown()`` would only wait out
    the listener's half-second poll, once per server start.
    """
    from repro.serve import RecommendationServer

    server = RecommendationServer(engine, host="127.0.0.1", port=0,
                                  max_inflight=64)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def run_serve(config: dict) -> None:
    from repro.serve import ServeConfig

    serve_config = ServeConfig(
        checkpoint=config["checkpoint"], preset="bench", seed=config["seed"],
        workers=config["workers"],
    )
    engine = serve_config.build_engine()
    server = _start_server(engine)
    tracer = _tracer(config)
    if tracer is not None:
        trace_serving_layers(tracer, engine)
    emit("READY", str(server.address[1]))
    try:
        for command in commands():
            if command == "stop":
                break
            if command.startswith("phase ") and tracer is not None:
                name = command.split(" ", 1)[1]
                tracer.phase = None if name == "-" else name
    finally:
        engine.close()
    emit("RESULT", {"trace": _finish_trace(tracer)})


# ----------------------------------------------------------------------
# online: `repro online --port` with the CLI's defaults
# ----------------------------------------------------------------------
def run_online(config: dict) -> None:
    from repro.data.synthetic import synthesize_trace
    from repro.models.registry import build_model
    from repro.online import (
        FineTuneConfig,
        GateConfig,
        ModelVersionStore,
        OnlineLoop,
        OnlineLoopConfig,
    )
    from repro.serve import ServeConfig

    serve_config = ServeConfig(checkpoint=config["checkpoint"], preset="bench",
                               seed=config["model_seed"])
    engine = serve_config.build_engine()
    dataset = engine.dataset
    trainer = build_model(serve_config.model, dataset, serve_config.scale())
    rounds, per_round = config["rounds"], config["events_per_round"]
    stream = synthesize_trace(
        num_events=rounds * per_round,
        user_pool=dataset.num_users,
        num_items=dataset.num_items,
        hot_users=min(200, dataset.num_users),
        batch_fraction=0.3,
        k=10,
        seed=config["stream_seed"],
    )
    store_dir = os.path.join(config["workdir"], "versions")
    loop_config = OnlineLoopConfig(
        rounds=rounds,
        events_per_round=per_round,
        seed=config["loop_seed"],
        gate=GateConfig(metrics=("HR@10", "NDCG@10")),
        finetune=FineTuneConfig(
            epochs_per_round=1,
            batch_size=64,
            learning_rate=5e-4,
            max_length=serve_config.scale().max_length,
            cl_weight=0.1,
            pipeline="reference",
            workers=0,
            checkpoint_dir=os.path.join(store_dir, "rounds"),
        ),
    )
    server = _start_server(engine)
    store = ModelVersionStore(store_dir, keep=8)
    loop = OnlineLoop(engine, trainer, stream, store, loop_config, server=server)
    tracer = _tracer(config)
    if tracer is not None:
        trace_training_layers(tracer)
        trace_online_layers(tracer)
        trace_serving_layers(tracer, engine)
    emit("READY", str(server.address[1]))
    result = None
    try:
        for command in commands():
            if command == "stop":
                break
            if command == "go" and result is None:
                if tracer is not None:
                    tracer.phase = "online"
                result = loop.run()
                if tracer is not None:
                    tracer.phase = None
                emit("ROUNDS", {
                    "decisions": [r.decision for r in result.rounds],
                    "reasons": [r.reason for r in result.rounds],
                    "durations": [r.duration_s for r in result.rounds],
                    "events": [r.events for r in result.rounds],
                    "final_model_version": result.final_model_version,
                })
    finally:
        engine.close()
    emit("RESULT", {"trace": _finish_trace(tracer)})


MODES = {
    "train": run_train,
    "serve": run_serve,
    "online": run_online,
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in MODES:
        print(f"usage: driver.py {{{','.join(MODES)}}} '<json config>'",
              file=sys.stderr)
        return 2
    MODES[argv[0]](json.loads(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
