"""Incremental fine-tuning: one bounded training round per stream span.

Each round runs a short joint CL4SRec optimization (``L_rec + λ·L_cl``)
over the replay buffer's current contents, starting from the weights
the serving engine currently promotes.  Rounds are crash-safe: every
round gets its own :class:`~repro.runtime.resume.TrainingRuntime`
checkpoint directory, so a loop killed mid-round resumes that round
bit-exactly (the PR-1 guarantee) instead of re-training from the start.

Determinism: the caller passes one per-round generator spawned from the
loop's root :class:`numpy.random.SeedSequence`; with a fixed seed,
identical buffer contents produce bit-identical weights.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from repro.core.trainer import JointTrainConfig, train_joint
from repro.data.preprocessing import SequenceDataset
from repro.models.training import TrainConfig, train_next_item_model
from repro.runtime.checkpointing import CheckpointManager
from repro.runtime.resume import TrainingRuntime

__all__ = ["FineTuneConfig", "FineTuneRoundResult", "IncrementalFineTuner"]


@dataclass
class FineTuneConfig:
    """Per-round training hyper-parameters.

    The learning rate defaults well below the offline value (1e-3):
    online rounds see small, correlated windows of data, and a gentle
    step keeps the candidate close to the promoted weights so the
    shadow gate measures drift adaptation, not catastrophic forgetting.
    """

    epochs_per_round: int = 1
    batch_size: int = 64
    learning_rate: float = 5e-4
    max_length: int = 50
    temperature: float = 1.0
    cl_weight: float = 0.1
    clip_norm: float = 5.0
    pipeline: str = "reference"
    #: None adopts the model's current parameter dtype, so a float32
    #: checkpoint keeps fine-tuning in float32.
    dtype: str | None = None
    #: Data-parallel training workers per round (0 = in-process);
    #: threaded straight into the round's Joint/TrainConfig, so online
    #: rounds fine-tune on the same worker pool as ``repro train``.
    workers: int = 0
    #: Round-scoped TrainingRuntime checkpoints land under
    #: ``<checkpoint_dir>/round-NNNN``; None disables mid-round
    #: crash-safety (the version store still persists every round's
    #: outcome).
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    keep: int = 2


@dataclass
class FineTuneRoundResult:
    """What one round of training did."""

    round: int
    epochs: int = 0
    losses: list[float] = field(default_factory=list)
    #: Epoch the round resumed from when a prior attempt was interrupted.
    resumed_from: int | None = None
    skipped: bool = False
    reason: str | None = None


class IncrementalFineTuner:
    """Drives per-round training of a single long-lived trainer model."""

    def __init__(self, model, config: FineTuneConfig | None = None, obs=None):
        self.model = model
        self.config = config if config is not None else FineTuneConfig()
        self.obs = obs

    def _dtype_name(self) -> str | None:
        if self.config.dtype is not None:
            return self.config.dtype
        for parameter in self.model.parameters():
            if np.issubdtype(parameter.data.dtype, np.floating):
                return str(parameter.data.dtype)
        return None

    def _runtime(self, round_index: int) -> TrainingRuntime | None:
        if self.config.checkpoint_dir is None:
            return None
        directory = os.path.join(
            self.config.checkpoint_dir, f"round-{round_index:04d}"
        )
        manager = CheckpointManager(directory, keep=self.config.keep)
        return TrainingRuntime(
            manager,
            checkpoint_every=self.config.checkpoint_every,
            resume=True,
            handle_signals=False,
            obs=self.obs,
        )

    def discard_round(self, round_index: int) -> None:
        """Drop a refused round's runtime checkpoints (audit lives in
        the version store; keeping refuted weights around would let a
        later resume pick them back up)."""
        if self.config.checkpoint_dir is None:
            return
        directory = os.path.join(
            self.config.checkpoint_dir, f"round-{round_index:04d}"
        )
        shutil.rmtree(directory, ignore_errors=True)

    def run_round(
        self,
        dataset: SequenceDataset,
        round_index: int,
        rng: np.random.Generator,
    ) -> FineTuneRoundResult:
        """Fine-tune the trainer model in place on ``dataset``."""
        config = self.config
        runtime = self._runtime(round_index)
        result = FineTuneRoundResult(round=round_index)
        contrastive = hasattr(self.model, "pair_sampler")
        try:
            if contrastive:
                losses = train_joint(
                    self.model,
                    dataset,
                    JointTrainConfig(
                        epochs=config.epochs_per_round,
                        batch_size=config.batch_size,
                        learning_rate=config.learning_rate,
                        max_length=config.max_length,
                        temperature=config.temperature,
                        cl_weight=config.cl_weight,
                        clip_norm=config.clip_norm,
                        pipeline=config.pipeline,
                        dtype=self._dtype_name(),
                        workers=config.workers,
                    ),
                    rng=rng,
                    runtime=runtime,
                    obs=self.obs,
                )
            else:
                # Plain next-item fine-tuning for non-contrastive models
                # (e.g. a bare SASRec checkpoint).
                history = train_next_item_model(
                    self.model,
                    dataset,
                    TrainConfig(
                        epochs=config.epochs_per_round,
                        batch_size=config.batch_size,
                        learning_rate=config.learning_rate,
                        max_length=config.max_length,
                        clip_norm=config.clip_norm,
                        eval_every=0,
                        pipeline=config.pipeline,
                        dtype=self._dtype_name(),
                        workers=config.workers,
                    ),
                    rng=rng,
                    runtime=runtime,
                    obs=self.obs,
                )
                losses = history.losses
        except ValueError as error:
            # The loaders raise when no buffered sequence is long
            # enough to train on; the round refuses rather than dies.
            result.skipped = True
            result.reason = str(error)
            return result
        result.losses = [float(value) for value in losses]
        result.epochs = len(result.losses)
        if runtime is not None:
            result.resumed_from = runtime.resumed_from
        self.model.eval()
        return result
