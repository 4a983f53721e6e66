"""Training loops for the contrastive stage and the joint regime.

Two regimes are provided:

* :func:`pretrain_contrastive` — the preprint's CP4Rec pipeline: train
  the encoder + projection head with NT-Xent alone, then discard the
  projection and fine-tune with the supervised loop
  (:func:`repro.models.training.train_next_item_model`).
* :func:`train_joint` — the ICDE camera-ready's multi-task variant:
  each step minimizes ``L_rec + λ · L_cl`` over one supervised batch
  and one contrastive batch.

Both run on the one epoch driver (:func:`repro.train.driver.fit`) and
accept an optional :class:`repro.runtime.resume.TrainingRuntime` that
adds crash-safe periodic checkpoints, bit-exact resume, SIGTERM/SIGINT
flush-and-exit, and divergence rollback — see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.train.driver import PretrainHistory, fit

__all__ = [
    "ContrastivePretrainConfig",
    "JointTrainConfig",
    "PretrainHistory",
    "pretrain_contrastive",
    "train_joint",
]


@dataclass
class ContrastivePretrainConfig:
    """Hyper-parameters of the contrastive pre-training stage."""

    epochs: int = 5
    batch_size: int = 256  # paper: 256
    learning_rate: float = 1e-3  # paper: 1e-3
    max_length: int = 50  # paper: 50
    temperature: float = 1.0
    lr_final_factor: float = 0.1
    clip_norm: float = 5.0
    # Batch construction: "reference" (scalar, bit-compatible with the
    # golden fixtures) or "vectorized" (matrix-form augmentation +
    # background prefetch — see docs/PERFORMANCE.md).
    pipeline: str = "reference"
    # Compute precision: None keeps the process default (float64);
    # "float32" for throughput — see docs/PERFORMANCE.md.
    dtype: str | None = None
    # Data-parallel worker processes: 0 trains in-process (the pool of
    # one, bit-compatible with the golden fixtures); N >= 1 forks N
    # workers — deterministic at fixed N, but a different sample than
    # workers=0 (see docs/SCALING.md "Training at scale").
    workers: int = 0
    seed: int = 0


@dataclass
class JointTrainConfig:
    """Hyper-parameters of the joint (multi-task) regime."""

    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 1e-3
    max_length: int = 50
    temperature: float = 1.0
    cl_weight: float = 0.1  # λ in L_rec + λ·L_cl
    lr_final_factor: float = 0.1
    clip_norm: float = 5.0
    # Batch construction path; see ContrastivePretrainConfig.pipeline.
    pipeline: str = "reference"
    # Compute precision; see ContrastivePretrainConfig.dtype.
    dtype: str | None = None
    # Data-parallel workers; see ContrastivePretrainConfig.workers.
    workers: int = 0
    seed: int = 0


def pretrain_contrastive(
    model,
    dataset: SequenceDataset,
    config: ContrastivePretrainConfig,
    rng: np.random.Generator | None = None,
    runtime=None,
    obs=None,
) -> PretrainHistory:
    """Optimize NT-Xent over augmented view pairs (paper §3.2).

    The model contract: ``contrastive_parameters()`` (encoder +
    projection head) and ``contrastive_loss(batch) -> (Tensor, float)``
    returning the loss and the in-batch retrieval accuracy.

    ``runtime`` (a :class:`repro.runtime.resume.TrainingRuntime`) adds
    periodic checkpoints, resume, and divergence rollback; interrupted
    runs raise :class:`repro.runtime.resume.TrainingInterrupted` after
    flushing a final checkpoint.  ``obs`` (a
    :class:`repro.obs.RunObserver`) records one ``pretrain_epoch``
    event per epoch — NT-Xent loss, in-batch retrieval accuracy, mean
    grad norm, sequences/sec and epoch wall time.
    """
    history = PretrainHistory()
    fit(
        "pretrain", model, dataset, config, vars(history),
        rng=rng, runtime=runtime, obs=obs,
    )
    return history


def train_joint(
    model,
    dataset: SequenceDataset,
    config: JointTrainConfig,
    rng: np.random.Generator | None = None,
    runtime=None,
    obs=None,
):
    """Joint multi-task optimization: ``L_rec + λ · L_cl`` per step.

    Returns the supervised-loss history (a list of per-epoch means of
    the combined loss).  ``runtime`` behaves as in
    :func:`pretrain_contrastive`.  ``obs`` records one ``joint_epoch``
    event per epoch, splitting the combined loss into its supervised
    (``rec_loss``) and weighted contrastive (``cl_loss``) components so
    ablation questions (how much does InfoNCE contribute?) are
    answerable from logs.
    """
    losses: list[float] = []
    fit(
        "joint", model, dataset, config, {"losses": losses},
        rng=rng, runtime=runtime, obs=obs,
    )
    return losses
