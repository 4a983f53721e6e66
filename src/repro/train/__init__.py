"""The one training loop and its execution modes.

:mod:`repro.train.driver` is the epoch driver behind every training
loop and :mod:`repro.train.stages` the three objectives it steps.
``workers=0`` (the default) is the driver's in-process pool of one,
bit-identical to the golden fixtures; ``workers=N`` on a training config
(or ``repro train --workers N``) steps :mod:`repro.train.parallel`'s
deterministic data-parallel worker pool instead.
"""

from repro.train.parallel import (
    ParallelWorkerPool,
    WorkerFailedError,
    pairwise_sum,
)

__all__ = [
    "ParallelWorkerPool",
    "WorkerFailedError",
    "pairwise_sum",
]
