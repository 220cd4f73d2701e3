"""Assembly of a threaded training run from plain configuration.

:func:`assemble_training` wires together dataset partitioning, model
replicas, the parameter server with a chosen synchronization paradigm and
the threaded runtime.  To run one, describe it as a
:class:`repro.api.ExperimentSpec` and call :func:`repro.api.run_experiment`
(backend ``"threaded"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.module import Module
from repro.ps.faults import parse_fault_specs
from repro.ps.runtime import ThreadedTrainer
from repro.ps.session import TrainingPlan, assemble

__all__ = [
    "DistributedTrainingConfig",
    "assemble_training",
]


@dataclass(frozen=True, kw_only=True)
class DistributedTrainingConfig(TrainingPlan):
    """Configuration of a threaded distributed training run.

    Everything in :class:`~repro.ps.session.TrainingPlan` (``num_workers``
    is the number of worker threads), plus the store layout:

    Attributes
    ----------
    num_shards:
        Number of shards the one store
        (:class:`repro.ps.sharding.ShardedKeyValueStore`) partitions the
        keys across.  With 1 (the default) pushes are applied serially;
        more lets pushes to disjoint shards run concurrently.
    shard_strategy:
        Key partitioning strategy, ``"size"`` (balanced) or ``"hash"``.
    """

    num_shards: int = 1
    shard_strategy: str = "size"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")


def assemble_training(
    config: DistributedTrainingConfig,
    model_builder: Callable[[np.random.Generator], Module],
    train_dataset: ArrayDataset,
    test_dataset: ArrayDataset | None = None,
) -> ThreadedTrainer:
    """Assemble a ready-to-run :class:`ThreadedTrainer` from configuration.

    ``model_builder`` is called once per worker plus once for the global
    model; every replica is immediately overwritten with the global initial
    weights so all workers start from the same point, as in the paper.

    The returned trainer exposes its ``server``, ``workers`` and
    ``evaluate_fn`` (built whenever a test dataset is given), which lets
    callers drive or evaluate the pieces outside the trainer's own run.
    """
    workload = SimpleNamespace(
        model_builder=model_builder,
        train_dataset=train_dataset,
        test_dataset=test_dataset,
    )
    server, workers, evaluate_fn = assemble(
        config, workload, num_shards=config.num_shards, shard_strategy=config.shard_strategy
    )
    return ThreadedTrainer(
        server=server,
        workers=workers,  # the trainer packs them to the store's layout
        iterations_per_worker=config.iterations_per_worker,
        slowdowns=config.slowdowns,
        evaluate_fn=evaluate_fn,
        evaluate_every_pushes=config.evaluate_every_pushes,
        wait_timeout=config.wait_timeout,
        fault_plan=parse_fault_specs(config.faults, config.worker_ids) or None,
    )

