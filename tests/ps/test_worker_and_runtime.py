"""Tests for the worker logic, the threaded runtime and the coordinator."""

import numpy as np
import pytest

from repro.core.factory import make_policy
from repro.data.loader import MiniBatchLoader
from repro.metrics.accuracy import evaluate_model
from repro.experiments.config import TINY
from repro.experiments.workloads import build_workload
from repro.models import mlp
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.losses import SoftmaxCrossEntropy
from repro.optim.sgd import SGD
from repro.api import ClusterConfig, ExperimentSpec, run_experiment
from repro.ps.coordinator import DistributedTrainingConfig
from repro.ps.runtime import ThreadedTrainer
from repro.ps.server import ParameterServer
from repro.ps.session import Tally, assemble, replica_step
from repro.ps.sharding import make_store
from repro.ps.worker import Worker


def build_model(rng, input_dim=192, num_classes=4):
    return mlp(input_dim=input_dim, hidden_dims=(16,), num_classes=num_classes, rng=rng)


def make_worker(dataset, worker_id="w0", seed=0, micro_batches=1):
    rng = np.random.default_rng(seed)
    model = build_model(rng, input_dim=dataset.inputs.shape[1])
    loader = MiniBatchLoader(dataset, batch_size=16, rng=np.random.default_rng(seed + 1))
    return Worker(
        worker_id=worker_id,
        model=model,
        loader=loader,
        loss_fn=SoftmaxCrossEntropy(),
        micro_batches=micro_batches,
    )


class TestWorker:
    def test_compute_gradients_returns_all_parameters(self, tiny_flat_datasets):
        train, _ = tiny_flat_datasets
        worker = make_worker(train)
        computation = worker.compute_gradients()
        assert set(computation.gradients) == set(dict(worker.model.named_parameters()))
        assert computation.samples == 16
        assert np.isfinite(computation.loss)

    def test_micro_batches_average_gradients(self, tiny_flat_datasets):
        train, _ = tiny_flat_datasets
        worker = make_worker(train, micro_batches=3)
        computation = worker.compute_gradients()
        assert computation.samples == 48

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
        worker = make_worker(train, micro_batches=3)
        tally = Tally()
        assert np.isnan(tally.report("w0", wait=0.0, compute=0.0, pulled=0)["mean_loss"])
        steps = [replica_step(worker) for _ in range(2)]
        for step in steps:
            tally.add(step)
        report = tally.report("w0", wait=0.0, compute=0.0, pulled=0)
        losses = [step.computation.loss for step in steps]
        assert report["mean_loss"] == (0.0 + losses[0] + losses[1]) / 2
        assert (report["iterations"], report["samples_processed"]) == (2, 96)
        dense = sum(parameter.data.nbytes for _, parameter in worker.model.named_parameters())
        assert report["pushed_raw_bytes"] == report["pushed_wire_bytes"] == 2 * dense

    def test_invalid_micro_batches(self, tiny_flat_datasets):
        train, _ = tiny_flat_datasets
        with pytest.raises(ValueError):
            make_worker(train, micro_batches=0)

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


def build_threaded_trainer(
    train, test, paradigm="bsp", num_workers=2, iterations=4,
    store_layout="monolithic", **policy_kwargs,
):
    seed_rng = np.random.default_rng(0)
    global_model = build_model(seed_rng, input_dim=train.inputs.shape[1])
    store = make_store(
        initial_weights={name: p.data for name, p in global_model.named_parameters()},
        initial_buffers=global_model.buffers(),
        num_shards=2 if store_layout == "sharded" else 1,
    )
    server = ParameterServer(
        store=store, optimizer=SGD(learning_rate=0.05, momentum=0.9),
        policy=make_policy(paradigm, **policy_kwargs),
    )
    workers = []
    for index in range(num_workers):
        worker = make_worker(train, worker_id=f"w{index}", seed=index + 1)
        worker.model.load_state_dict(global_model.state_dict())
        server.register_worker(f"w{index}")
        workers.append(worker)

    eval_model = build_model(np.random.default_rng(9), input_dim=train.inputs.shape[1])

    def evaluate(state):
        eval_model.load_state_dict(dict(state))
        return evaluate_model(eval_model, test, batch_size=32)

    return ThreadedTrainer(
        server=server,
        workers=workers,
        iterations_per_worker=iterations,
        evaluate_fn=evaluate,
        evaluate_every_pushes=4,
        wait_timeout=30.0,
    )


class TestEntryLayerSkipsItsInputGradient:
    """A worker marks its replica's entry layer ``input_grad_unused``: one
    matmul less per step, and not a bit of any gradient or loss changes."""

    @pytest.mark.parametrize("workload, entry", [("mlp", Linear), ("resnet110", Conv2d)])
    def test_gradients_and_losses_are_byte_equal_with_and_without_the_mark(
        self, workload, entry
    ):
        def replica(marked):
            plan = DistributedTrainingConfig(num_workers=1, batch_size=16, seed=3)
            server, (worker,), _ = assemble(plan, build_workload(workload, TINY))
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


class TestThreadedTrainer:
    @pytest.mark.parametrize(
        "paradigm,kwargs",
        [
            ("bsp", {}),
            ("asp", {}),
            ("ssp", {"staleness": 2}),
            ("dssp", {"s_lower": 1, "s_upper": 4}),
        ],
    )
    @pytest.mark.parametrize("store_layout", ["monolithic", "sharded"])
    def test_runs_to_completion_under_every_paradigm(
        self, tiny_flat_datasets, paradigm, kwargs, store_layout
    ):
        train, test = tiny_flat_datasets
        trainer = build_threaded_trainer(
            train, test, paradigm=paradigm, store_layout=store_layout, **kwargs
        )
        result = trainer.run()
        assert result.errors == []
        assert result.wall_time > 0
        assert trainer.server.store.version == 2 * 4
        assert all(report.iterations == 4 for report in result.worker_reports)

    def test_finished_workers_leave_the_membership(self, tiny_flat_datasets):
        # As under the process and tcp servers: a worker's done deregisters it.
        train, test = tiny_flat_datasets
        trainer = build_threaded_trainer(train, test, paradigm="asp", num_workers=3)
        result = trainer.run()
        assert result.errors == []
        assert trainer.server.num_workers == 0

    def test_evaluations_recorded(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        trainer = build_threaded_trainer(train, test, paradigm="asp", iterations=6)
        result = trainer.run()
        assert len(result.evaluation_accuracies) >= 1
        assert 0.0 <= result.best_accuracy <= 1.0
        assert result.final_accuracy == result.evaluation_accuracies[-1]

    def test_slowdown_increases_waiting_of_fast_worker(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        trainer = build_threaded_trainer(train, test, paradigm="bsp", iterations=5)
        trainer.slowdowns = {"w1": 0.03}
        result = trainer.run()
        waits = {report.worker_id: report.total_wait_time for report in result.worker_reports}
        assert waits["w0"] > waits["w1"]

    def test_training_reduces_loss(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        trainer = build_threaded_trainer(train, test, paradigm="bsp", iterations=20)
        result = trainer.run()
        assert result.errors == []
        losses = [report.mean_loss for report in result.worker_reports]
        assert all(np.isfinite(losses))
        # The model should fit the tiny 4-class problem far better than chance.
        assert result.best_accuracy > 0.4

    def test_validation_of_arguments(self, tiny_flat_datasets):
        train, test = tiny_flat_datasets
        trainer = build_threaded_trainer(train, test)
        with pytest.raises(ValueError):
            ThreadedTrainer(
                server=trainer.server, workers=trainer.workers, iterations_per_worker=0
            )
        stranger = make_worker(train, worker_id="ghost")
        with pytest.raises(ValueError):
            ThreadedTrainer(
                server=trainer.server, workers=[stranger], iterations_per_worker=1
            )


class TestCoordinator:
    def test_assembled_workers_always_have_arenas(self, tiny_flat_datasets):
        from repro.ps.coordinator import assemble_training

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
            model_builder=lambda rng: build_model(rng, input_dim=train.inputs.shape[1]),
            train_dataset=train,
            test_dataset=test,
        )
        result = trainer.run()
        assert result.errors == []
        for worker in trainer.workers:
            assert worker.model.workspace_stats()["allocations"] > 0
            assert worker.loss_fn._workspace.allocations > 0

    @staticmethod
    def threaded_run(**fields):
        """A 2-worker threaded run of the tiny MLP: 0.5 epochs of 160-sample
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
        return run_experiment(spec, backend="threaded")

    def test_threaded_run_end_to_end(self):
        result = self.threaded_run(paradigm="dssp", paradigm_kwargs={"s_lower": 1, "s_upper": 4})
        assert result.errors == []
        assert len(result.worker_reports) == 2
        assert len(result.accuracies) >= 1

    def test_threaded_run_with_sharded_float32_store(self):
        result = self.threaded_run(
            paradigm="ssp", paradigm_kwargs={"staleness": 2}, num_shards=4, dtype="float32"
        )
        assert result.errors == []
        assert result.server_statistics["store_version"] == 2 * 5
        assert len(result.accuracies) >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistributedTrainingConfig(num_workers=0)
        with pytest.raises(ValueError):
            DistributedTrainingConfig(iterations_per_worker=0)
        with pytest.raises(ValueError):
            DistributedTrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            DistributedTrainingConfig(num_shards=0)

    def test_config_rejects_bad_paradigm_kwargs_at_construction(self):
        # Fail fast: the typo'd kwarg must not survive until mid-run.
        with pytest.raises(TypeError):
            DistributedTrainingConfig(paradigm="ssp", paradigm_kwargs={"stalness": 3})
        with pytest.raises(ValueError):
            DistributedTrainingConfig(paradigm="gossip", paradigm_kwargs={})

    def test_config_rejects_slowdowns_for_nonexistent_workers(self):
        with pytest.raises(ValueError, match="nonexistent workers"):
            DistributedTrainingConfig(num_workers=2, slowdowns={"worker-7": 0.01})
        # Valid ids are accepted.
        config = DistributedTrainingConfig(num_workers=2, slowdowns={"worker-1": 0.01})
        assert config.slowdowns == {"worker-1": 0.01}
