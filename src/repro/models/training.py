"""Shared supervised training loop for the sequential models.

Implements the paper's fine-tuning regime: Adam with linear lr decay,
mini-batches of user sequences, the masked next-item BCE objective, and
early stopping on validation HR@10.

The loop is the one epoch driver (:func:`repro.train.driver.fit`); it
optionally threads a :class:`repro.runtime.resume.TrainingRuntime` for
crash-safe periodic checkpoints, bit-exact resume (including the
early-stopping counters and the best-validation parameters), and
divergence rollback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.train.driver import TrainingHistory, fit

__all__ = ["TrainConfig", "TrainingHistory", "train_next_item_model"]


@dataclass
class TrainConfig:
    """Hyper-parameters of the supervised training stage.

    Defaults follow §4.1.4 where feasible at CPU scale; the paper's
    values (d=128, batch=256, lr=1e-3) are noted per field.
    """

    epochs: int = 10
    batch_size: int = 256  # paper: 256
    learning_rate: float = 1e-3  # paper: 1e-3
    max_length: int = 50  # paper: 50
    lr_final_factor: float = 0.1  # linear decay target
    clip_norm: float = 5.0
    patience: int = 3  # early-stopping patience (paper: early stopping)
    eval_every: int = 0  # 0 disables mid-training validation
    max_eval_users: int = 2000
    early_stopping_metric: str = "HR@10"
    # Negative sampling: 0.0 = uniform (the paper's setting); > 0 draws
    # negatives ∝ popularity^alpha (harder contrasts).
    negative_alpha: float = 0.0
    # Batch construction: "reference" (scalar, bit-compatible with the
    # golden fixtures) or "vectorized" (precomputed padded matrices +
    # background prefetch — see docs/PERFORMANCE.md).
    pipeline: str = "reference"
    # Compute precision: None keeps the process default (float64, the
    # golden-fixture setting); "float32" roughly doubles BLAS
    # throughput at ~1e-3 relative loss accuracy — see
    # docs/PERFORMANCE.md ("Compute core") for when it is safe.
    dtype: str | None = None
    # Data-parallel worker processes: 0 trains in-process (the pool of
    # one, bit-compatible with the golden fixtures); N >= 1 forks N
    # workers — deterministic at fixed N, but a different sample than
    # workers=0 (see docs/SCALING.md "Training at scale").
    workers: int = 0
    seed: int = 0


def train_next_item_model(
    model,
    dataset: SequenceDataset,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    runtime=None,
    obs=None,
) -> TrainingHistory:
    """Run the supervised loop on any model with ``sequence_loss``.

    The model contract:

    * ``parameters()`` — trainable parameters (a Module).
    * ``sequence_loss(batch: NextItemBatch) -> Tensor`` — scalar loss.
    * ``score_users(...)`` — used for validation-based early stopping
      when ``config.eval_every > 0``.

    ``runtime`` (a :class:`repro.runtime.resume.TrainingRuntime`) adds
    periodic checkpoints, resume, and divergence rollback; interrupted
    runs raise :class:`repro.runtime.resume.TrainingInterrupted` after
    flushing a final checkpoint.  ``obs`` (a
    :class:`repro.obs.RunObserver`) records one ``train_epoch`` event
    per epoch (loss, mean grad norm, sequences/sec, wall time) plus an
    ``eval`` event for every mid-training validation pass.
    """
    history = TrainingHistory()
    stop = fit(
        "next_item", model, dataset, config,
        {"losses": history.losses, "valid_scores": history.valid_scores},
        rng=rng, runtime=runtime, obs=obs,
    )
    history.best_epoch = int(stop["best_epoch"])
    history.stopped_early = bool(stop["stopped_early"])
    return history
