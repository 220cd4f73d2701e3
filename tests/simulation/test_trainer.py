"""Integration tests for the discrete-event training simulator."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.experiments.config import TINY
from repro.models import mlp
from repro.ps.plan import TrainingPlan
from repro.ps.process_runtime import ProcessTrainingPlan
from repro.ps.tcp_runtime import TcpTrainingPlan
from repro.simulation.cluster import ClusterSpec, heterogeneous_cluster, homogeneous_cluster
from repro.simulation.trainer import SimulatedTraining, SimulationOptions


@pytest.fixture
def flat_problem(tiny_flat_datasets):
    return tiny_flat_datasets


def builder_for(train: ArrayDataset):
    input_dim = train.inputs.shape[1]

    def builder(rng: np.random.Generator):
        return mlp(input_dim=input_dim, hidden_dims=(16,), num_classes=4, rng=rng)

    return builder


def compute_heavy_timing_cost():
    """A timing cost dominated by computation, so device-speed differences
    (and therefore the synchronization behaviour) actually matter."""
    from repro.simulation.workload import ModelCost

    return ModelCost(
        flops_per_sample=5e8, num_parameters=100_000, parameter_bytes=400_000
    )


def simulate(train, test, options, builder=None, **plan_fields):
    """One simulated run of ``options.cluster``; ``plan_fields`` go to the plan."""
    plan = TrainingPlan(num_workers=options.cluster.num_workers, **plan_fields)
    workload = SimpleNamespace(
        model_builder=builder or builder_for(train), train_dataset=train, test_dataset=test
    )
    return SimulatedTraining(plan, workload, options).run()


def run(
    train, test, paradigm, cluster=None, epochs=2.0, seed=0, num_shards=1,
    paradigm_kwargs=None, **options,
):
    cluster = cluster or homogeneous_cluster(num_workers=2, gpus_per_worker=1)
    return simulate(
        train,
        test,
        SimulationOptions(cluster=cluster, epochs=epochs, **options),
        paradigm=paradigm,
        paradigm_kwargs=_default_kwargs(paradigm) if paradigm_kwargs is None else paradigm_kwargs,
        batch_size=16,
        learning_rate=0.05,
        evaluate_every_pushes=8,
        num_shards=num_shards,
        seed=seed,
    )


def _default_kwargs(paradigm):
    if paradigm == "ssp":
        return {"staleness": 2}
    if paradigm == "dssp":
        return {"s_lower": 1, "s_upper": 4}
    return {}


class TestSimulatedTraining:
    @pytest.mark.parametrize("paradigm", ["bsp", "asp", "ssp", "dssp"])
    def test_runs_and_reports_for_every_paradigm(self, flat_problem, paradigm):
        train, test = flat_problem
        result = run(train, test, paradigm)
        expected_updates = int(np.ceil(2.0 * len(train) / 16))
        assert result.total_updates == expected_updates
        assert result.total_time > 0
        assert result.times.shape == result.accuracies.shape
        assert np.all(np.diff(result.times) >= 0)
        assert 0.0 <= result.best_accuracy <= 1.0
        assert set(result.iterations_per_worker) == {"worker-0", "worker-1"}

    def test_training_improves_accuracy(self, flat_problem):
        train, test = flat_problem
        result = run(train, test, "bsp", epochs=4.0)
        assert result.accuracies[-1] > result.accuracies[0] + 0.2

    def test_same_seed_is_deterministic(self, flat_problem):
        train, test = flat_problem
        first = run(train, test, "dssp", seed=3)
        second = run(train, test, "dssp", seed=3)
        assert np.allclose(first.times, second.times)
        assert np.allclose(first.accuracies, second.accuracies)
        assert first.total_time == pytest.approx(second.total_time)

    def test_different_seeds_differ(self, flat_problem):
        train, test = flat_problem
        first = run(train, test, "asp", seed=1)
        second = run(train, test, "asp", seed=2)
        assert first.total_time != pytest.approx(second.total_time)

    def test_asp_never_waits_and_bsp_waits(self, flat_problem):
        train, test = flat_problem
        cluster = heterogeneous_cluster()
        asp = run(train, test, "asp", cluster=cluster)
        bsp = run(train, test, "bsp", cluster=cluster)
        assert asp.total_wait_time == 0.0
        assert bsp.total_wait_time > 0.0

    def test_heterogeneous_asp_lets_fast_worker_do_more_iterations(self, flat_problem):
        train, test = flat_problem
        result = run(
            train,
            test,
            "asp",
            cluster=heterogeneous_cluster(),
            timing_cost=compute_heavy_timing_cost(),
            timing_batch_size=128,
        )
        iterations = result.iterations_per_worker
        assert iterations["worker-0"] > iterations["worker-1"]

    def test_per_worker_accounting_balances_iterations(self, flat_problem):
        train, test = flat_problem
        result = run(
            train,
            test,
            "asp",
            cluster=heterogeneous_cluster(),
            epoch_accounting="per_worker",
            timing_cost=compute_heavy_timing_cost(),
            timing_batch_size=128,
        )
        iterations = result.iterations_per_worker
        assert iterations["worker-0"] == iterations["worker-1"]

    def test_ssp_staleness_stays_bounded(self, flat_problem):
        train, test = flat_problem
        result = run(
            train,
            test,
            "ssp",
            cluster=heterogeneous_cluster(),
            paradigm_kwargs={"staleness": 2},
            epochs=3.0,
        )
        # Update staleness can exceed the clock bound only by the in-flight
        # pushes of one round (at most num_workers - 1 extra).
        assert result.staleness.maximum <= (2 + 1) * 2

    def test_dssp_records_controller_decisions_on_skewed_cluster(self, flat_problem):
        train, test = flat_problem
        result = run(
            train,
            test,
            "dssp",
            cluster=heterogeneous_cluster(),
            paradigm_kwargs={"s_lower": 1, "s_upper": 6},
            epochs=3.0,
            timing_cost=compute_heavy_timing_cost(),
            timing_batch_size=128,
        )
        assert result.server_statistics["controller_invocations"] > 0
        assert result.paradigm_label == "DSSP s=1, r=5"

    def test_max_updates_caps_run(self, flat_problem):
        train, test = flat_problem
        options = SimulationOptions(
            cluster=homogeneous_cluster(num_workers=2, gpus_per_worker=1),
            epochs=10.0,
            max_updates=7,
        )
        result = simulate(train, test, options, paradigm="asp", paradigm_kwargs={}, batch_size=16)
        assert result.total_updates == 7

    def test_lr_schedule_reduces_learning_rate(self, flat_problem):
        train, test = flat_problem
        result = run(
            train,
            test,
            "bsp",
            epochs=3.0,
            lr_milestones=(1.0, 2.0),
            lr_decay=0.1,
        )
        assert result.server_statistics["learning_rate"] == pytest.approx(0.05 * 0.01)

    def test_timing_cost_override_changes_virtual_time(self, flat_problem):
        train, test = flat_problem
        from repro.simulation.workload import ModelCost

        heavy = ModelCost(flops_per_sample=1e9, num_parameters=10_000_000, parameter_bytes=4 * 10_000_000)
        slow = run(train, test, "asp", timing_cost=heavy, timing_batch_size=128)
        fast = run(train, test, "asp")
        assert slow.total_time > fast.total_time

    def test_result_is_the_run_record(self, flat_problem):
        from repro.ps.result import RunResult

        train, test = flat_problem
        result = run(train, test, "ssp")
        assert isinstance(result, RunResult) and result.errors == []
        assert result.total_time == result.times[-1]
        assert result.total_updates == result.server_statistics["store_version"]
        assert result.iterations_per_worker == {
            report.worker_id: report.iterations for report in result.worker_reports
        }
        assert sum(result.iterations_per_worker.values()) == result.total_updates

    def test_trace_records_every_push(self, flat_problem):
        train, test = flat_problem
        result = run(train, test, "bsp")
        pushes = sum(result.push_times(w).size for w in result.iterations_per_worker)
        assert pushes == result.total_updates

    def test_time_to_accuracy_helper(self, flat_problem):
        train, test = flat_problem
        result = run(train, test, "bsp", epochs=4.0)
        reachable = result.time_to_accuracy(result.best_accuracy)
        assert reachable is not None
        assert result.time_to_accuracy(1.1) is None


class TestShardedSimulation:
    """Simulated training against the sharded parameter server."""

    def test_sharded_run_completes_for_every_paradigm(self, flat_problem):
        train, test = flat_problem
        for paradigm in ("bsp", "asp", "dssp"):
            result = run(train, test, paradigm, num_shards=4)
            expected_updates = int(np.ceil(2.0 * len(train) / 16))
            assert result.total_updates == expected_updates
            assert 0.0 <= result.best_accuracy <= 1.0

    def test_sharding_reduces_communication_bound_time(self, flat_problem):
        """On a communication-bound workload, parallel per-shard transfers
        shorten the iteration and therefore the total virtual time.

        The model needs several similar-sized tensors: per-key sharding
        cannot split one dominant tensor, so a model that is one big matrix
        gains nothing (which is itself worth knowing and asserted below).
        """
        from repro.simulation.workload import ModelCost

        train, test = flat_problem
        input_dim = train.inputs.shape[1]

        def wide_builder(rng):
            return mlp(
                input_dim=input_dim,
                hidden_dims=(input_dim, input_dim, input_dim),
                num_classes=4,
                rng=rng,
            )

        comm_heavy = ModelCost(
            flops_per_sample=1e6, num_parameters=10_000_000,
            parameter_bytes=4 * 10_000_000,
        )

        def run_wide(num_shards):
            options = SimulationOptions(
                cluster=homogeneous_cluster(num_workers=2, gpus_per_worker=1),
                epochs=2.0,
                timing_cost=comm_heavy,
                timing_batch_size=128,
                timing_jitter=False,
            )
            return simulate(
                train, test, options, wide_builder,
                paradigm="asp", paradigm_kwargs={}, batch_size=16, num_shards=num_shards,
            )

        mono = run_wide(1)
        sharded = run_wide(4)
        assert sharded.total_time < mono.total_time
        # Four near-equal weight matrices over four shards: the gating shard
        # carries about a third of the payload, so the bandwidth-dominated
        # round trip (and with it the total time) drops well below half.
        assert sharded.total_time < mono.total_time * 0.5

    def test_sharded_run_is_deterministic(self, flat_problem):
        train, test = flat_problem
        first = run(train, test, "dssp", seed=3, num_shards=4)
        second = run(train, test, "dssp", seed=3, num_shards=4)
        assert np.allclose(first.accuracies, second.accuracies)
        assert first.total_time == second.total_time

    def test_sharded_matches_monolithic_accuracy_with_same_event_order(self, flat_problem):
        """With timing jitter off and a homogeneous cluster the event order is
        identical, so delta pulls must reproduce the monolithic weights."""
        train, test = flat_problem
        kwargs = dict(timing_jitter=False, epochs=1.0)
        mono = run(train, test, "bsp", **kwargs)
        sharded = run(train, test, "bsp", num_shards=2, **kwargs)
        assert np.allclose(mono.accuracies, sharded.accuracies)


ONE, TWO = homogeneous_cluster(num_workers=1), homogeneous_cluster(num_workers=2)


def _renamed_cluster():
    (spec,) = ONE.workers
    return ClusterSpec(workers=(dataclasses.replace(spec, worker_id="gpu-a"),))


def _construct(plan_type=TrainingPlan, options=None, **plan_fields):
    """Build (never run) a plan, and a simulation of it when ``options`` is given."""
    if plan_type is not TrainingPlan:
        plan_fields.update(workload="mlp", scale_fields=dataclasses.asdict(TINY))
    plan = plan_type(**plan_fields)
    if options is not None:
        SimulatedTraining(plan, None, SimulationOptions(**options))


#: Every check the plan, the simulator's options and the simulation itself
#: make, one row each: (constructor arguments, the complaint).
REJECTED = {
    "batch_size": ({"batch_size": 0}, "batch_size must be positive"),
    "num_shards": ({"num_shards": 0}, "num_shards must be positive"),
    "epochs": ({"options": {"cluster": ONE, "epochs": 0}}, "epochs must be positive"),
    "max_updates": (
        {"options": {"cluster": ONE, "max_updates": 0}}, "max_updates must be positive"
    ),
    "epoch_accounting": (
        {"options": {"cluster": ONE, "epoch_accounting": "sometimes"}}, "epoch_accounting"
    ),
    "comm_pattern": ({"options": {"cluster": ONE, "comm_pattern": "gossip"}}, "comm_pattern"),
    "topology": ({"options": {"cluster": ONE, "topology": "nowhere"}}, "topology"),
    "ring_paradigm": (
        {
            "num_workers": 2, "paradigm": "asp", "paradigm_kwargs": {},
            "options": {"cluster": TWO, "comm_pattern": "ring_allreduce"},
        },
        "requires paradigm 'bsp'",
    ),
    "topology_with_shards": (
        {"num_workers": 1, "num_shards": 2, "options": {"cluster": ONE, "topology": "flat"}},
        "single server endpoint",
    ),
    "cluster_worker_names": (
        {"num_workers": 1, "options": {"cluster": _renamed_cluster()}},
        r"worker-0 … worker-\(n-1\)",
    ),
    "cluster_size": (
        {"num_workers": 2, "options": {"cluster": ONE}}, r"worker-0 … worker-\(n-1\)"
    ),
    "net_faults_on_shm": (
        {"plan_type": ProcessTrainingPlan, "net_faults": ({"spec": "delay:5"},)},
        "transport='pipe'",
    ),
    "transport": ({"plan_type": ProcessTrainingPlan, "transport": "pigeon"}, "transport"),
    "tcp_shards": ({"plan_type": TcpTrainingPlan, "num_shards": 2}, "monolithic store"),
}


@pytest.mark.parametrize("arguments,complaint", REJECTED.values(), ids=REJECTED.keys())
def test_every_run_description_check_rejects(arguments, complaint):
    with pytest.raises(ValueError, match=complaint):
        _construct(**arguments)
