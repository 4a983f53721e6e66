"""One epoch driver for every training loop.

:func:`fit` is the loop behind :func:`repro.core.trainer.pretrain_contrastive`,
:func:`repro.core.trainer.train_joint` and
:func:`repro.models.training.train_next_item_model`.  Only the objective
differs between them, and that lives in a stage
(:mod:`repro.train.stages`).  The driver owns everything else once:
dtype cast, optimizer, lr schedule, clipping, the
:class:`~repro.runtime.resume.TrainingRuntime` hooks (start/resume,
divergence guard, preemption, checkpoints), epoch events and
validation-driven early stopping.

The driver steps a *pool* through ``begin_epoch / step / end_epoch``
(``end_epoch`` runs after the epoch event, so a pool may report on it)
and checkpoints its streams through ``capture_rng / restore_rng``.
``workers=0`` is :class:`InProcessPool`, a pool of one, bit-identical to
the golden fixtures; ``workers=N`` is
:class:`repro.train.parallel.ParallelWorkerPool`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.eval.evaluator import Evaluator
from repro.nn import precision
from repro.nn.optim import Adam, GradientClipper, LinearDecaySchedule
from repro.train.parallel import (
    WORKER_RNG_GROUP,
    ParallelWorkerPool,
    check_worker_streams,
)
from repro.train.stages import STAGES

__all__ = ["InProcessPool", "PretrainHistory", "TrainingHistory", "fit"]


@dataclass
class PretrainHistory:
    """Per-epoch contrastive losses and in-batch retrieval accuracy."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


@dataclass
class TrainingHistory:
    """Per-epoch training losses and validation scores."""

    losses: list[float] = field(default_factory=list)
    valid_scores: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


class InProcessPool:
    """``workers=0``: the stage runs here, on the loop's own generator.

    No child streams are spawned and the model's dropout generator stays
    as constructed; ``backward()`` leaves each gradient in
    ``param.grad`` with no copy and no row-count weighting.  The
    runtime's own generator capture covers every stream, so
    :meth:`capture_rng` has nothing to add.
    """

    epoch_fields: dict = {}

    def __init__(self, stage: str, model, dataset, config, rng, obs=None) -> None:
        self.stage = STAGES[stage](model, dataset, config, rng, obs=obs)
        self.params = self.stage.parameters(model)
        self.steps_per_epoch = self.stage.steps_per_epoch

    def begin_epoch(self, epoch: int) -> None:
        self.stage.begin_epoch()

    def step(self, step_index: int):
        loss, count, extras = self.stage.step()
        value = loss.item()
        for param in self.params:
            param.zero_grad()
        loss.backward()
        return value, count, extras

    def end_epoch(self, epoch: int) -> None:
        self.stage.close()

    def capture_rng(self) -> dict:
        return {}

    def restore_rng(self, group: dict) -> None:
        check_worker_streams(group, 0)

    def close(self) -> None:
        self.stage.close()


class _EarlyStopping:
    """Validation early stopping whose counters resume from checkpoints.

    ``state`` is the runtime's ``extras`` (a resumed run continues the
    patience countdown); the best parameters live in ``aux["best"]``.
    """

    def __init__(self, dataset, config) -> None:
        self.config = config
        self.evaluator = (
            Evaluator(dataset, split="valid") if config.eval_every > 0 else None
        )
        self.state = {"best_metric": -np.inf, "epochs_since_best": 0.0,
                      "best_epoch": -1.0, "stopped_early": 0.0}

    def after_epoch(self, model, epoch: int, scores: list, aux: dict, obs) -> bool:
        """Validate when due; True when patience ran out."""
        config, state = self.config, self.state
        if self.evaluator is None or (epoch + 1) % config.eval_every:
            return False
        model.eval()
        result = self.evaluator.evaluate(
            model, max_users=config.max_eval_users, obs=obs
        )
        model.train()
        score = result[config.early_stopping_metric]
        scores.append(score)
        if score > state["best_metric"]:
            state["best_metric"] = score
            state["best_epoch"] = float(epoch)
            state["epochs_since_best"] = 0.0
            aux["best"] = model.state_dict()
            return False
        state["epochs_since_best"] += 1.0
        if state["epochs_since_best"] >= config.patience:
            state["stopped_early"] = 1.0
            return True
        return False


def fit(stage: str, model, dataset, config, history: dict[str, list],
        rng: np.random.Generator | None = None, runtime=None, obs=None):
    """Train ``model`` on one stage's objective for ``config.epochs``.

    ``history`` maps names to the caller's live per-epoch lists
    (``losses`` plus the stage's extra lists); they are appended to
    every epoch and restored in place on resume.  Returns the
    early-stopping counters for stages that validate, else None.
    """
    spec = STAGES[stage]
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    # Cast before shared segments and the optimizer are created so
    # Adam's moment buffers (and worker pages) inherit the dtype.
    dtype = precision.resolve_dtype(config.dtype)
    model.to_dtype(dtype)
    workers = int(getattr(config, "workers", 0))
    if workers:
        pool = ParallelWorkerPool(
            stage, model, dataset, config, rng, workers, dtype,
            faults=runtime.faults if runtime is not None else None, obs=obs,
        )
    else:
        pool = InProcessPool(stage, model, dataset, config, rng, obs=obs)
    stopper = _EarlyStopping(dataset, config) if spec.early_stopping else None
    aux: dict[str, dict[str, np.ndarray]] = {}
    try:
        optimizer = Adam(pool.params, lr=config.learning_rate)
        schedule = LinearDecaySchedule(
            optimizer, total_steps=max(1, config.epochs * pool.steps_per_epoch),
            final_factor=config.lr_final_factor,
        )
        clipper = GradientClipper(pool.params, config.clip_norm)

        start_epoch = 0
        if runtime is not None:
            # The loop's generator drives batch order, augmentation and
            # negative sampling; the model's own (when it has one), dropout.
            start_epoch = runtime.start(
                model=model, optimizer=optimizer, schedule=schedule,
                rngs=[rng, getattr(model, "_rng", None)], history=history,
                extras=stopper.state if stopper is not None else None, aux=aux,
            )
            if aux.get(WORKER_RNG_GROUP):
                pool.restore_rng(aux[WORKER_RNG_GROUP])
            if stopper is not None and stopper.state["stopped_early"]:
                # The interrupted run had already early-stopped.
                start_epoch = config.epochs

        model.train()
        with precision.precision(dtype), (
            runtime.session() if runtime is not None else nullcontext()
        ):
            for epoch in range(start_epoch, config.epochs):
                # Worker streams are captured at epoch start (before the
                # epoch's permutations are drawn) so an interrupt
                # mid-epoch resumes by replaying the epoch bit-exactly.
                aux[WORKER_RNG_GROUP] = pool.capture_rng()
                if runtime is not None:
                    runtime.begin_epoch(epoch)
                started = time.perf_counter()
                loss_sum, grad_norm_sum, batches, sequences = 0.0, 0.0, 0, 0
                sums = dict.fromkeys(spec.metrics, 0.0)
                pool.begin_epoch(epoch)
                for step in range(pool.steps_per_epoch):
                    loss_value, count, extras = pool.step(step)
                    grad_norm = clipper.clip()
                    if runtime is not None:
                        loss_value = runtime.intercept_loss(loss_value)
                        if not runtime.allow_update(loss_value, grad_norm):
                            optimizer.zero_grad()
                            runtime.after_step()
                            continue
                    optimizer.step()
                    schedule.step()
                    loss_sum += loss_value
                    for name, term in zip(spec.metrics, spec.terms(config, extras)):
                        sums[name] += term
                    grad_norm_sum += grad_norm
                    sequences += count
                    batches += 1
                    if runtime is not None:
                        runtime.after_step()

                means = {name: total / max(1, batches) for name, total in sums.items()}
                history["losses"].append(loss_sum / max(1, batches))
                for name, metric in spec.history.items():
                    history[name].append(means[metric])
                if obs is not None:
                    seconds = time.perf_counter() - started
                    obs.event(
                        spec.event, stage=spec.label, epoch=epoch,
                        loss=history["losses"][-1], batches=batches,
                        sequences=sequences,
                        grad_norm=grad_norm_sum / max(1, batches),
                        items_per_sec=sequences / seconds if seconds > 0 else 0.0,
                        epoch_seconds=seconds, lr=optimizer.lr,
                        **pool.epoch_fields, **means, **spec.constants(config),
                    )
                    obs.observe("train.epoch_seconds", seconds)
                    obs.increment("train_epochs")
                    obs.increment("train_batches", batches)
                    obs.increment("train_sequences", sequences)
                pool.end_epoch(epoch)
                stop = stopper is not None and stopper.after_epoch(
                    model, epoch, history["valid_scores"], aux, obs
                )
                aux[WORKER_RNG_GROUP] = pool.capture_rng()
                if runtime is not None:
                    runtime.end_epoch(epoch)
                if stop:
                    break
        if runtime is not None:
            runtime.finalize()
    finally:
        pool.close()

    if aux.get("best"):
        model.load_state_dict(aux["best"])
    model.eval()
    return stopper.state if stopper is not None else None
