"""Tests for the worker logic and the wall-clock runtimes."""

import numpy as np
import pytest

from repro.data.loader import MiniBatchLoader
from repro.experiments.config import TINY
from repro.experiments.workloads import build_workload
from repro.models import mlp
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.losses import SoftmaxCrossEntropy
from repro.api import ClusterConfig, ExperimentSpec, run_experiment
from repro.ps.plan import DistributedTrainingConfig, TrainingPlan, assemble, assemble_training
from repro.ps.session import Tally, replica_step
from repro.ps.worker import Worker


def build_model(rng, input_dim=192, num_classes=4):
    return mlp(input_dim=input_dim, hidden_dims=(16,), num_classes=num_classes, rng=rng)


def make_worker(dataset, worker_id="w0", seed=0):
    rng = np.random.default_rng(seed)
    model = build_model(rng, input_dim=dataset.inputs.shape[1])
    loader = MiniBatchLoader(dataset, batch_size=16, rng=np.random.default_rng(seed + 1))
    return Worker(
        worker_id=worker_id,
        model=model,
        loader=loader,
        loss_fn=SoftmaxCrossEntropy(),
    )


class TestWorker:
    def test_compute_gradients_returns_all_parameters(self, tiny_flat_datasets):
        train, _ = tiny_flat_datasets
        worker = make_worker(train)
        computation = worker.compute_gradients()
        assert set(computation.gradients) == set(dict(worker.model.named_parameters()))
        assert computation.samples == 16
        assert np.isfinite(computation.loss)

    def test_compute_gradients_is_one_forward_backward_over_the_next_batch(
        self, tiny_flat_datasets
    ):
        train, _ = tiny_flat_datasets
        worker = make_worker(train, seed=3)
        model = build_model(np.random.default_rng(3), input_dim=train.inputs.shape[1])
        inputs, labels = MiniBatchLoader(
            train, batch_size=16, rng=np.random.default_rng(4)
        ).next_batch()
        loss_fn = SoftmaxCrossEntropy()
        model.train(True)
        model.zero_grad()
        expected_loss = loss_fn.forward(model.forward(inputs), labels)
        model.backward(loss_fn.backward())
        computation = worker.compute_gradients()
        assert computation.loss == expected_loss
        expected = model.gradients()
        assert computation.gradients.keys() == expected.keys()
        for name, gradient in expected.items():
            assert np.array_equal(computation.gradients[name], gradient), name

    def test_load_weights_updates_version_and_values(self, tiny_flat_datasets):
        train, _ = tiny_flat_datasets
        worker = make_worker(train)
        new_weights = {
            name: np.zeros_like(parameter.data)
            for name, parameter in worker.model.named_parameters()
        }
        worker.load_weights(new_weights, version=7)
        assert worker.local_version == 7
        assert all(np.all(p.data == 0) for _, p in worker.model.named_parameters())

    def test_load_weights_rejects_unknown_names(self, tiny_flat_datasets):
        train, _ = tiny_flat_datasets
        worker = make_worker(train)
        with pytest.raises(KeyError):
            worker.load_weights({"nope": np.zeros(3)}, version=1)

    def test_gradient_base_version_tracks_pull(self, tiny_flat_datasets):
        train, _ = tiny_flat_datasets
        worker = make_worker(train)
        snapshot = {
            name: parameter.data.copy()
            for name, parameter in worker.model.named_parameters()
        }
        worker.load_weights(snapshot, version=3)
        assert worker.compute_gradients().base_version == 3

    def test_loss_history_statistics(self, tiny_flat_datasets):
        train, _ = tiny_flat_datasets
        worker = make_worker(train)
        tally = Tally()
        assert np.isnan(tally.report("w0", wait=0.0, compute=0.0, pulled=0)["mean_loss"])
        steps = [replica_step(worker) for _ in range(2)]
        for clock, step in enumerate(steps):
            tally.add(step, clock)
        report = tally.report("w0", wait=0.0, compute=0.0, pulled=0)
        losses = [step.computation.loss for step in steps]
        assert report["mean_loss"] == (0.0 + losses[0] + losses[1]) / 2
        assert (report["iterations"], report["samples_processed"]) == (2, 32)
        dense = sum(parameter.data.nbytes for _, parameter in worker.model.named_parameters())
        assert report["pushed_raw_bytes"] == report["pushed_wire_bytes"] == 2 * dense

    def test_workers_always_have_model_and_loss_arenas(self, tiny_flat_datasets):
        train, _ = tiny_flat_datasets
        worker = make_worker(train)
        # Steady state: iterating allocates no new workspace buffers.
        worker.compute_gradients()
        baseline = worker.model.workspace_stats()["allocations"]
        loss_baseline = worker.loss_fn._workspace.allocations
        assert baseline > 0 and loss_baseline > 0
        worker.compute_gradients()
        assert worker.model.workspace_stats()["allocations"] == baseline
        assert worker.loss_fn._workspace.allocations == loss_baseline


def wall_clock_run(
    backend, paradigm="bsp", num_workers=2, iterations=4, num_shards=1, slowdowns=None,
    **policy_kwargs,
):
    """A run of the tiny MLP: 160-row partitions in batches of 16, so
    ``iterations / 10`` epochs, evaluated every 4 pushes."""
    spec = ExperimentSpec(
        workload="mlp",
        scale="tiny",
        cluster=ClusterConfig(num_workers=num_workers),
        paradigm=paradigm,
        paradigm_kwargs=policy_kwargs,
        epochs=iterations / 10,
        batch_size=16,
        learning_rate=0.05,
        momentum=0.9,
        evaluate_every_updates=4,
        num_shards=num_shards,
        slowdowns=slowdowns or {},
        seed=0,
    )
    return run_experiment(spec, backend)


#: (backend, shards): the tcp server holds a monolithic store only.
LAYOUTS = {
    "process-monolithic": ("process", 1),
    "process-sharded": ("process", 2),
    "tcp-monolithic": ("tcp", 1),
}


class TestEntryLayerSkipsItsInputGradient:
    """A worker marks its replica's entry layer ``input_grad_unused``: one
    matmul less per step, and not a bit of any gradient or loss changes."""

    @pytest.mark.parametrize("workload, entry", [("mlp", Linear), ("resnet110", Conv2d)])
    def test_gradients_and_losses_are_byte_equal_with_and_without_the_mark(
        self, workload, entry
    ):
        def replica(marked):
            plan = TrainingPlan(num_workers=1, batch_size=16, seed=3)
            server, (worker,) = assemble(plan, build_workload(workload, TINY))
            worker.attach_flat_layout(server.store.flat_layouts)
            (layer,) = [
                module for _, module in worker.model.named_modules() if module.input_grad_unused
            ]
            first = next(m for _, m in worker.model.named_modules() if m._parameters)
            assert layer is first and type(layer) is entry
            layer.input_grad_unused = marked
            return worker

        def iterations(worker):
            for _ in range(3):
                computation = worker.compute_gradients()
                yield computation.loss, {
                    shard: flat.tobytes() for shard, flat in computation.flat_gradients.items()
                }

        marked, unmarked = replica(True), replica(False)
        assert list(iterations(marked)) == list(iterations(unmarked))
        grad = unmarked.loss_fn.backward()
        assert unmarked.model.backward(grad).shape == unmarked.loader.next_batch()[0].shape
        assert marked.model.backward(marked.loss_fn.backward()) is None


class TestWallClockRuns:
    @pytest.mark.parametrize(
        "paradigm,kwargs",
        [
            ("bsp", {}),
            ("asp", {}),
            ("ssp", {"staleness": 2}),
            ("dssp", {"s_lower": 1, "s_upper": 4}),
        ],
    )
    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_runs_to_completion_under_every_paradigm(self, paradigm, kwargs, layout):
        backend, num_shards = layout
        result = wall_clock_run(backend, paradigm=paradigm, num_shards=num_shards, **kwargs)
        assert result.errors == []
        assert result.total_time > 0
        assert result.server_statistics["store_version"] == 2 * 4
        assert all(report.iterations == 4 for report in result.worker_reports)

    @pytest.mark.parametrize("backend", ["process", "tcp"])
    def test_evaluations_recorded(self, backend):
        result = wall_clock_run(backend, paradigm="asp", iterations=6)
        assert len(result.accuracies) >= 1
        assert 0.0 <= result.best_accuracy <= 1.0
        assert result.final_accuracy == result.accuracies[-1]

    @pytest.mark.parametrize("backend", ["process", "tcp"])
    def test_slowdown_increases_waiting_of_fast_worker(self, backend):
        result = wall_clock_run(
            backend, paradigm="bsp", iterations=5, slowdowns={"worker-1": 0.03}
        )
        waits = {report.worker_id: report.total_wait_time for report in result.worker_reports}
        assert waits["worker-0"] > waits["worker-1"]

    @pytest.mark.parametrize("backend", ["process", "tcp"])
    def test_training_reduces_loss(self, backend):
        result = wall_clock_run(backend, paradigm="bsp", iterations=20)
        assert result.errors == []
        losses = [report.mean_loss for report in result.worker_reports]
        assert all(np.isfinite(losses))
        # The model should fit the tiny problem far better than chance.
        assert result.best_accuracy > 0.4


class TestCoordinator:
    def test_assembled_workers_always_have_arenas(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        config = DistributedTrainingConfig(
            paradigm="asp",
            paradigm_kwargs={},
            num_workers=2,
            iterations_per_worker=2,
            batch_size=16,
        )
        trainer = assemble_training(
            config,
            lambda rng: build_model(rng, input_dim=train.inputs.shape[1]),
            train,
            test,
        )
        assert trainer.server.registered == ["worker-0", "worker-1"]
        for worker in trainer.workers:
            # Packed to mirror the store, as a caller driving the pieces needs.
            step = replica_step(worker)
            assert step.flat is not None
            assert worker.model.workspace_stats()["allocations"] > 0
            assert worker.loss_fn._workspace.allocations > 0

    @staticmethod
    def two_worker_run(backend, **fields):
        """A 2-worker run of the tiny MLP: 0.5 epochs of 160-sample
        partitions in batches of 16 is 5 pushes per worker."""
        spec = ExperimentSpec(
            workload="mlp",
            scale="tiny",
            cluster=ClusterConfig(num_workers=2),
            epochs=0.5,
            batch_size=16,
            learning_rate=0.05,
            evaluate_every_updates=5,
            **fields,
        )
        return run_experiment(spec, backend=backend)

    @pytest.mark.parametrize("backend", ["process", "tcp"])
    def test_run_end_to_end(self, backend):
        result = self.two_worker_run(
            backend, paradigm="dssp", paradigm_kwargs={"s_lower": 1, "s_upper": 4}
        )
        assert result.errors == []
        assert len(result.worker_reports) == 2
        assert len(result.accuracies) >= 1

    def test_process_run_with_sharded_float32_store(self):
        result = self.two_worker_run(
            "process", paradigm="ssp", paradigm_kwargs={"staleness": 2}, num_shards=4,
            dtype="float32",
        )
        assert result.errors == []
        assert result.server_statistics["store_version"] == 2 * 5
        assert len(result.accuracies) >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingPlan(num_workers=0)
        with pytest.raises(ValueError):
            TrainingPlan(iterations_per_worker=0)
        with pytest.raises(ValueError):
            TrainingPlan(batch_size=0)
        with pytest.raises(ValueError):
            TrainingPlan(num_shards=0)

    def test_config_rejects_bad_paradigm_kwargs_at_construction(self):
        # Fail fast: the typo'd kwarg must not survive until mid-run.
        with pytest.raises(TypeError):
            TrainingPlan(paradigm="ssp", paradigm_kwargs={"stalness": 3})
        with pytest.raises(ValueError):
            TrainingPlan(paradigm="gossip", paradigm_kwargs={})

    def test_config_rejects_slowdowns_for_nonexistent_workers(self):
        with pytest.raises(ValueError, match="nonexistent workers"):
            TrainingPlan(num_workers=2, slowdowns={"worker-7": 0.01})
        # Valid ids are accepted.
        config = TrainingPlan(num_workers=2, slowdowns={"worker-1": 0.01})
        assert config.slowdowns == {"worker-1": 0.01}
