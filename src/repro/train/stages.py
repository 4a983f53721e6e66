"""The three training objectives as stages the epoch driver steps.

CL4SRec trains one encoder under three objectives (paper §3): NT-Xent
pre-training, joint ``L_rec + λ·L_cl`` and next-item fine-tuning.  A
stage owns one objective's loaders and batch streams; ``step()`` returns
``(loss, rows, extras)``, the side metrics for its epoch event.  The
same classes run in-process (``shard=None``) and inside every
data-parallel worker (``shard=(w, n)``).  Class attributes describe a
stage to :mod:`repro.train.driver`: event and label, per-epoch mean
``metrics`` (summed from :meth:`~_Stage.terms` per applied update),
constant event fields, extra history lists and early stopping.
"""

from __future__ import annotations

import numpy as np

from repro.data.loaders import (
    ContrastiveBatchLoader,
    NextItemBatchLoader,
    PopularityNegativeSampler,
)
from repro.data.pipeline import CyclingStream, Prefetcher


class _Stage:
    """One objective: loaders, batch streams and a per-step loss."""

    event = label = ""
    metrics: tuple[str, ...] = ()
    #: Extra history list -> the metric appended to it every epoch.
    history: dict[str, str] = {}
    early_stopping = False

    def __init__(self, model, dataset, config, rng, shard, obs) -> None:
        self.model, self.config, self.rng, self.obs = model, config, rng, obs
        self._stream = None
        self._graph = None
        self._args = (dataset, config, rng, shard, obs)

    def _next_item_loader(self, negative_sampler=None) -> NextItemBatchLoader:
        dataset, config, rng, shard, obs = self._args
        return NextItemBatchLoader(
            dataset, config.max_length, config.batch_size, rng,
            negative_sampler=negative_sampler, pipeline=config.pipeline,
            obs=obs, worker_shard=shard,
        )

    def _contrastive_loader(self) -> ContrastiveBatchLoader:
        dataset, config, rng, shard, obs = self._args
        return ContrastiveBatchLoader(
            dataset, self.model.pair_sampler, config.max_length,
            config.batch_size, rng, pipeline=config.pipeline, obs=obs,
            worker_shard=shard,
        )

    @property
    def rngs(self) -> list[np.random.Generator]:
        """Every distinct generator the stage draws from, in a fixed order
        (a data-parallel worker checkpoints them)."""
        loaders = [self.loader, getattr(self, "cl_loader", None)]
        streams = [loader._rng for loader in loaders if loader is not None]
        candidates = [self.rng, *streams, getattr(self.model, "_rng", None)]
        unique = {id(rng): rng for rng in candidates
                  if isinstance(rng, np.random.Generator)}
        return list(unique.values())

    @staticmethod
    def parameters(model) -> list:
        return list(model.contrastive_parameters())

    @staticmethod
    def terms(config, extras: dict) -> tuple:
        return ()

    @staticmethod
    def constants(config) -> dict:
        return {}

    def begin_epoch(self) -> None:
        self.close()
        self._stream = self.loader.epoch()
        if self.config.pipeline == "vectorized":
            self._stream = Prefetcher(self._stream, obs=self.obs)

    def step(self):
        """Build the next batch and run its forward pass."""
        loss, rows, extras = self._forward(next(self._stream))
        # The previous step's graph is released only now, after this
        # forward: its freed memory then serves this step's backward
        # instead of freshly faulted pages (about 15% of a BENCH_SCALE
        # joint step).
        self._graph = loss
        return loss, rows, extras

    def close(self) -> None:
        close = getattr(self._stream, "close", None)
        if close is not None:
            close()
        self._stream = None


class PretrainStage(_Stage):
    """NT-Xent over augmented view pairs (paper §3.2)."""

    event, label = "pretrain_epoch", "pretrain"
    metrics = ("accuracy",)
    history = {"accuracies": "accuracy"}

    def __init__(self, model, dataset, config, rng, shard=None, obs=None) -> None:
        super().__init__(model, dataset, config, rng, shard, obs)
        self.loader = self._contrastive_loader()
        self.steps_per_epoch = self.loader.num_batches

    @staticmethod
    def terms(config, extras: dict) -> tuple:
        return (extras["accuracy"],)

    def _forward(self, batch):
        loss, accuracy = self.model.contrastive_loss(batch)
        return loss, len(batch.users), {"accuracy": float(accuracy)}


class NextItemStage(_Stage):
    """Masked next-item BCE, with validation early stopping."""

    event, label = "train_epoch", "supervised"
    early_stopping = True

    def __init__(self, model, dataset, config, rng, shard=None, obs=None) -> None:
        super().__init__(model, dataset, config, rng, shard, obs)
        sampler = None
        if config.negative_alpha > 0:
            sampler = PopularityNegativeSampler.from_sequences(
                dataset.train_sequences, dataset.num_items, rng,
                alpha=config.negative_alpha,
            )
        self.loader = self._next_item_loader(sampler)
        self.steps_per_epoch = self.loader.num_batches

    @staticmethod
    def parameters(model) -> list:
        return list(model.parameters())

    def _forward(self, batch):
        return self.model.sequence_loss(batch), len(batch.users), {}


class JointStage(_Stage):
    """``L_rec + λ·L_cl``: one contrastive batch per supervised batch.

    The contrastive side cycles when its (shorter) epoch runs dry.  In
    a data-parallel worker it cycles **synchronously** even on the
    vectorized pipeline: a prefetch thread keeps drawing from the
    loader's stream after the epoch's last step, which would make the
    worker's end-of-epoch RNG capture depend on thread timing.
    In-process, the runtime captures only the loop's own generator, so
    that side prefetches like the supervised one.
    """

    event, label = "joint_epoch", "joint"
    metrics = ("rec_loss", "cl_loss")

    def __init__(self, model, dataset, config, rng, shard=None, obs=None) -> None:
        super().__init__(model, dataset, config, rng, shard, obs)
        self.loader = self._next_item_loader()
        self.cl_loader = self._contrastive_loader()
        self._cl_pipeline = config.pipeline if shard is None else "reference"
        self._cl_stream = None
        # A contrastive shard that can't form a single batch (fewer than
        # 2 eligible users) sits the run out rather than cycling an
        # empty stream forever.
        self.steps_per_epoch = (
            self.loader.num_batches if self.cl_loader.num_batches else 0
        )

    @staticmethod
    def terms(config, extras: dict) -> tuple:
        return extras["rec"], config.cl_weight * extras["cl"]

    @staticmethod
    def constants(config) -> dict:
        return {"cl_weight": config.cl_weight}

    def begin_epoch(self) -> None:
        super().begin_epoch()
        self._cl_stream = CyclingStream(
            self.cl_loader, pipeline=self._cl_pipeline, obs=self.obs
        )

    def _forward(self, batch):
        loss = self.model.sequence_loss(batch)
        cl_loss, __acc = self.model.contrastive_loss(self._cl_stream.next())
        total = loss + self.config.cl_weight * cl_loss
        return total, len(batch.users), {"rec": loss.item(), "cl": cl_loss.item()}

    def close(self) -> None:
        super().close()
        if self._cl_stream is not None:
            self._cl_stream.close()
            self._cl_stream = None


STAGES = {
    "pretrain": PretrainStage,
    "joint": JointStage,
    "next_item": NextItemStage,
}
