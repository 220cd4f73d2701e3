"""Tests for the pluggable backends and the unified RunResult schema."""

import numpy as np
import pytest

from repro.api import (
    Backend,
    ClusterConfig,
    ExperimentSpec,
    ProcessBackend,
    RunResult,
    SimulatedBackend,
    ThreadedBackend,
    available_backends,
    get_backend,
    register_backend,
    run_experiment,
)

TINY_SPEC = ExperimentSpec(
    name="backend-test",
    workload="mlp",
    scale="tiny",
    cluster=ClusterConfig(num_workers=2, gpus_per_worker=1),
    paradigm="dssp",
    paradigm_kwargs={"s_lower": 1, "s_upper": 4},
    epochs=1.0,
    batch_size=16,
    evaluate_every_updates=10,
    seed=0,
)


@pytest.fixture(scope="module")
def simulated_result():
    return run_experiment(TINY_SPEC, "simulated")


@pytest.fixture(scope="module")
def threaded_result():
    return run_experiment(TINY_SPEC, "threaded")


@pytest.fixture(scope="module")
def process_result():
    return run_experiment(TINY_SPEC, "process")


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["simulated", "threaded", "process", "tcp"]

    def test_get_backend_instances_protocol(self):
        assert isinstance(get_backend("simulated"), Backend)
        assert isinstance(get_backend("threaded"), Backend)
        assert isinstance(get_backend("process"), Backend)
        assert isinstance(get_backend("tcp"), Backend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("simulated")(SimulatedBackend)


class TestSimulatedBackend:
    def test_runs_and_reports(self, simulated_result):
        result = simulated_result
        assert result.backend == "simulated"
        assert result.paradigm == "dssp"
        assert result.total_updates > 0
        assert result.times[0] == 0.0
        assert len(result.times) == len(result.accuracies) == len(result.losses)
        assert set(result.iterations_per_worker) == {"worker-0", "worker-1"}
        assert result.provenance.spec == TINY_SPEC.to_dict()
        assert result.provenance.injected == ()

    def test_deterministic_given_seed(self, simulated_result):
        again = run_experiment(TINY_SPEC, SimulatedBackend())
        assert again.total_time == simulated_result.total_time
        np.testing.assert_allclose(again.accuracies, simulated_result.accuracies)

    def test_slowdowns_skew_iteration_counts(self):
        spec = TINY_SPEC.replace(
            paradigm="asp",
            paradigm_kwargs={},
            evaluate_every_updates=0,
            slowdowns={"worker-0": 4.0},
        )
        result = run_experiment(spec, "simulated")
        iterations = result.iterations_per_worker
        assert iterations["worker-0"] < iterations["worker-1"]


    def test_samples_processed_counts_the_ragged_final_batch(self):
        # tiny / 3 workers: partitions of 107, 107 and 106 samples, so one
        # epoch of batch 32 ends on a batch of 11 or 10 — what the worker
        # consumed, not iterations x batch_size (128), is what is reported.
        spec = TINY_SPEC.replace(
            cluster=ClusterConfig(num_workers=3, gpus_per_worker=1),
            paradigm="bsp",
            paradigm_kwargs={},
            batch_size=32,
            epoch_accounting="per_worker",
        )
        reports = run_experiment(spec, "simulated").worker_reports
        assert [report.iterations for report in reports] == [4, 4, 4]
        assert sorted(report.samples_processed for report in reports) == [106, 107, 107]


class TestThreadedBackend:
    def test_runs_and_reports(self, threaded_result):
        result = threaded_result
        assert result.backend == "threaded"
        assert result.errors == []
        assert result.total_updates == 20  # 2 workers x 10 iterations
        # Curve starts with the initial model and ends with the final one.
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(result.total_time)
        assert result.accuracies.size >= 2

    def test_epochs_converted_to_iterations(self, threaded_result):
        # tiny scale: 320 train samples, 2 workers, batch 16 -> 10 per worker.
        assert threaded_result.iterations_per_worker == {
            "worker-0": 10,
            "worker-1": 10,
        }

    def test_lr_milestones_rejected_rather_than_silently_dropped(self):
        spec = TINY_SPEC.replace(lr_milestones=(0.5,))
        with pytest.raises(ValueError, match="lr_milestones"):
            run_experiment(spec, "threaded")
        # The simulated backend supports them.
        assert run_experiment(spec, "simulated").total_updates > 0

    def test_max_updates_rejected_rather_than_silently_dropped(self):
        spec = TINY_SPEC.replace(max_updates=5)
        with pytest.raises(ValueError, match="max_updates"):
            run_experiment(spec, "threaded")
        assert run_experiment(spec, "simulated").total_updates == 5


class TestProcessBackend:
    def test_runs_and_reports(self, process_result):
        result = process_result
        assert result.backend == "process"
        assert result.errors == []
        assert result.total_updates == 20  # 2 workers x 10 iterations
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(result.total_time)
        assert result.accuracies.size >= 2
        assert result.iterations_per_worker == {"worker-0": 10, "worker-1": 10}

    def test_schema_matches_threaded(self, process_result, threaded_result):
        assert TestBackendParity.schema(process_result.to_dict()) == (
            TestBackendParity.schema(threaded_result.to_dict())
        )

    def test_lr_milestones_and_max_updates_rejected(self):
        with pytest.raises(ValueError, match="lr_milestones"):
            run_experiment(TINY_SPEC.replace(lr_milestones=(0.5,)), "process")
        with pytest.raises(ValueError, match="max_updates"):
            run_experiment(TINY_SPEC.replace(max_updates=5), "process")

    def test_injected_workload_rejected(self):
        from repro.experiments.workloads import build_workload

        workload = build_workload("mlp", TINY_SPEC.resolved_scale())
        with pytest.raises(ValueError, match="injected workload"):
            run_experiment(TINY_SPEC, "process", workload=workload)

    def test_pipe_transport_equivalent_schema(self):
        result = run_experiment(TINY_SPEC, ProcessBackend(transport="pipe"))
        assert result.errors == []
        assert result.total_updates == 20

    def test_no_shared_memory_leaked(self, process_result):
        import os

        del process_result  # the run has completed by fixture resolution
        leaked = [
            name for name in os.listdir("/dev/shm") if name.startswith("repro-")
        ] if os.path.isdir("/dev/shm") else []
        assert leaked == []

    def test_staleness_and_wait_times_reported(self, process_result):
        assert process_result.staleness.count == process_result.total_updates
        assert set(process_result.wait_time_per_worker) == {"worker-0", "worker-1"}


class TestTcpBackend:
    @pytest.fixture(scope="class")
    def tcp_result(self):
        return run_experiment(TINY_SPEC, "tcp")

    def test_runs_and_reports(self, tcp_result):
        result = tcp_result
        assert result.backend == "tcp"
        assert result.errors == []
        assert result.total_updates == 20  # 2 workers x 10 iterations
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(result.total_time)
        assert result.iterations_per_worker == {"worker-0": 10, "worker-1": 10}
        assert result.staleness.count == result.total_updates

    def test_schema_matches_process(self, tcp_result, process_result):
        assert TestBackendParity.schema(tcp_result.to_dict()) == (
            TestBackendParity.schema(process_result.to_dict())
        )

    def test_transport_field_tcp_accepted(self):
        result = run_experiment(TINY_SPEC.replace(transport="tcp"), "tcp")
        assert result.errors == []

    def test_transport_field_mailbox_rejected(self):
        with pytest.raises(ValueError, match="tcp backend"):
            run_experiment(TINY_SPEC.replace(transport="shm"), "tcp")

    def test_sharding_rejected(self):
        with pytest.raises(ValueError, match="monolithic"):
            run_experiment(TINY_SPEC.replace(num_shards=4), "tcp")

    def test_injected_workload_rejected(self):
        from repro.experiments.workloads import build_workload

        workload = build_workload("mlp", TINY_SPEC.resolved_scale())
        with pytest.raises(ValueError, match="injected workload"):
            run_experiment(TINY_SPEC, "tcp", workload=workload)


class TestTransportSpecField:
    def test_spec_transport_overrides_process_default(self):
        # ProcessBackend defaults to shm; the spec can demand pipe.
        result = run_experiment(TINY_SPEC.replace(transport="pipe"), "process")
        assert result.errors == []
        assert result.total_updates == 20

    def test_spec_transport_tcp_rejected_on_process(self):
        with pytest.raises(ValueError, match="tcp backend"):
            run_experiment(TINY_SPEC.replace(transport="tcp"), "process")

    @pytest.mark.parametrize("backend", ["simulated", "threaded"])
    def test_spec_transport_rejected_on_non_process(self, backend):
        with pytest.raises(ValueError, match="transport"):
            run_experiment(TINY_SPEC.replace(transport="shm"), backend)


class TestBackendParity:
    """The same spec yields schema-identical results on both backends."""

    @staticmethod
    def schema(payload, prefix=""):
        """All key paths of a nested dict (list elements collapse to [])."""
        paths = set()
        if isinstance(payload, dict):
            for key, value in payload.items():
                paths.add(f"{prefix}{key}")
                paths |= TestBackendParity.schema(value, prefix=f"{prefix}{key}.")
        elif isinstance(payload, list) and payload:
            paths |= TestBackendParity.schema(payload[0], prefix=f"{prefix}[].")
        return paths

    def test_schema_identical_field_for_field(self, simulated_result, threaded_result):
        simulated = simulated_result.to_dict()
        threaded = threaded_result.to_dict()
        assert self.schema(simulated) == self.schema(threaded)

    def test_dataclass_fields_and_types_match(self, simulated_result, threaded_result):
        import dataclasses

        assert type(simulated_result) is type(threaded_result) is RunResult
        for entry in dataclasses.fields(RunResult):
            simulated_value = getattr(simulated_result, entry.name)
            threaded_value = getattr(threaded_result, entry.name)
            assert type(simulated_value) is type(threaded_value), entry.name

    def test_same_workers_and_update_totals(self, simulated_result, threaded_result):
        assert set(simulated_result.wait_time_per_worker) == set(
            threaded_result.wait_time_per_worker
        )
        assert simulated_result.total_updates == threaded_result.total_updates

    def test_staleness_and_throughput_shapes(self, simulated_result, threaded_result):
        for result in (simulated_result, threaded_result):
            assert result.staleness.count == result.total_updates
            assert result.throughput.updates_per_second > 0
            assert result.throughput.samples_per_second == pytest.approx(
                result.throughput.updates_per_second * 16
            )

    def test_provenance_differs_only_in_backend(self, simulated_result, threaded_result):
        simulated = simulated_result.provenance.to_dict()
        threaded = threaded_result.provenance.to_dict()
        assert simulated.pop("backend") == "simulated"
        assert threaded.pop("backend") == "threaded"
        assert simulated == threaded


class TestCompression:
    """Push codecs thread through every backend (tentpole integration)."""

    def test_transfers_reported_by_all_backends(
        self, simulated_result, threaded_result, process_result
    ):
        for result in (simulated_result, threaded_result, process_result):
            transfers = result.transfers
            assert transfers.pushed_wire_bytes > 0
            assert transfers.pushed_wire_bytes == transfers.pushed_raw_bytes
            assert transfers.pulled_bytes > 0
            assert transfers.compression_ratio == 1.0
            assert set(transfers.pushed_wire_bytes_per_worker) == {
                "worker-0",
                "worker-1",
            }
            payload = result.to_dict()["transfers"]
            assert payload["pushed_wire_bytes"] == transfers.pushed_wire_bytes
            assert payload["compression_ratio"] == 1.0

    def test_none_codec_equivalent_threaded(self, threaded_result):
        # The threaded runtime is wall-clock scheduled, so run-to-run curves
        # wobble slightly even without a codec; the bit-for-bit guarantee is
        # asserted on the deterministic simulator and at the server level
        # (tests/ps/test_compression.py).  Here: same work, same bytes, no
        # inflation of the wire size.
        result = run_experiment(TINY_SPEC.replace(compression="none"), "threaded")
        assert result.errors == []
        assert result.total_updates == threaded_result.total_updates
        assert result.transfers.compression_ratio == 1.0
        assert result.transfers.pushed_wire_bytes == (
            threaded_result.transfers.pushed_wire_bytes
        )

    def test_none_codec_bit_for_bit_simulated(self, simulated_result):
        result = run_experiment(TINY_SPEC.replace(compression="none"), "simulated")
        np.testing.assert_array_equal(result.accuracies, simulated_result.accuracies)
        np.testing.assert_array_equal(result.times, simulated_result.times)
        assert result.total_time == simulated_result.total_time

    def test_topk_cuts_wire_bytes_threaded(self, threaded_result):
        result = run_experiment(TINY_SPEC.replace(compression="topk:0.05"), "threaded")
        assert result.errors == []
        assert result.transfers.compression_ratio > 8.0
        assert result.transfers.pushed_raw_bytes == (
            threaded_result.transfers.pushed_raw_bytes
        )

    def test_topk_cuts_wire_and_virtual_time_simulated(self, simulated_result):
        result = run_experiment(TINY_SPEC.replace(compression="topk:0.05"), "simulated")
        assert result.transfers.compression_ratio > 8.0
        # The simulator charges the network for encoded bytes, so the
        # virtual time shrinks relative to the dense run.
        assert result.total_time < simulated_result.total_time

    def test_codecs_run_on_process_backend(self, process_result):
        result = run_experiment(TINY_SPEC.replace(compression="topk:0.05"), "process")
        assert result.errors == []
        assert result.total_updates == process_result.total_updates
        assert result.transfers.compression_ratio > 8.0

    def test_int8_process_pipe_transport(self):
        result = run_experiment(
            TINY_SPEC.replace(compression="int8"), ProcessBackend(transport="pipe")
        )
        assert result.errors == []
        assert 6.0 < result.transfers.compression_ratio < 9.0


class TestRunResultSerialization:
    def test_to_dict_json_safe(self, simulated_result):
        import json

        payload = json.loads(json.dumps(simulated_result.to_dict()))
        assert payload["backend"] == "simulated"
        assert payload["provenance"]["spec"]["workload"] == "mlp"
        assert len(payload["times"]) == len(payload["accuracies"])


class TestRobustness:
    """The aggregation/faults spec surface through the backends."""

    CHAOS = TINY_SPEC.replace(
        cluster=ClusterConfig(num_workers=3, gpus_per_worker=1),
        aggregation="trimmed_mean:1",
        faults=(
            {"worker": 1, "kind": "byzantine", "mode": "sign_flip", "after_clock": 2},
            {"worker": 2, "kind": "crash", "after_clock": 4},
        ),
    )

    def test_clean_runs_have_empty_events(self, simulated_result, threaded_result):
        assert simulated_result.events == []
        assert threaded_result.events == []

    def test_mean_aggregator_bit_for_bit_no_op_simulated(self, simulated_result):
        # The simulator is deterministic, so this is an exact gate: a spec
        # with aggregation="mean" must replay the aggregation-less run.
        result = run_experiment(TINY_SPEC.replace(aggregation="mean"), "simulated")
        assert np.array_equal(result.accuracies, simulated_result.accuracies)
        assert np.array_equal(result.losses, simulated_result.losses)
        assert result.total_updates == simulated_result.total_updates
        assert result.server_statistics["aggregation"]["windows_applied"] == 0

    def test_mean_aggregator_keeps_the_fast_path_threaded(self, threaded_result):
        # Thread scheduling makes wall-clock runs non-replayable, so the
        # gate here is structural: no buffering, no events, same totals.
        result = run_experiment(TINY_SPEC.replace(aggregation="mean"), "threaded")
        assert result.errors == [] and result.events == []
        assert result.total_updates == threaded_result.total_updates
        assert result.server_statistics["aggregation"]["windows_applied"] == 0

    @pytest.mark.parametrize("backend", ["simulated", "threaded", "process", "tcp"])
    def test_chaos_run_reports_events(self, backend):
        result = run_experiment(self.CHAOS, backend)
        kinds = {event["kind"] for event in result.events}
        assert "crash" in kinds
        assert "corrupted_push" in kinds
        assert all({"kind", "worker"} <= set(event) for event in result.events)
        # An injected crash is chaos, not failure — on every backend,
        # including tcp where the server sees the dropped connection.
        assert result.errors == []
        # The crashed worker stops early; the survivors finish their quota.
        iterations = result.iterations_per_worker
        assert iterations["worker-2"] < max(iterations.values())
        assert result.server_statistics["aggregation"]["windows_applied"] > 0

    def test_events_survive_wire_serialization(self):
        result = run_experiment(self.CHAOS, "process")
        import json

        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["events"] == result.events


class TestProfilePlumbing:
    """``profile=True`` records a per-layer breakdown on every backend."""

    PROFILE_KEYS = {"worker_id", "forward_seconds", "backward_seconds",
                    "total_seconds", "layers"}

    def test_unprofiled_runs_record_none(self, simulated_result, threaded_result):
        assert simulated_result.profile is None
        assert threaded_result.profile is None
        assert simulated_result.to_dict()["profile"] is None

    @pytest.mark.parametrize("backend", ["simulated", "threaded", "process"])
    def test_profile_recorded_per_backend(self, backend):
        result = run_experiment(TINY_SPEC, backend, profile=True)
        profile = result.profile
        assert profile is not None
        assert set(profile) == self.PROFILE_KEYS
        assert profile["worker_id"] == "worker-0"
        assert profile["layers"], "expected per-layer entries"
        names = {layer["name"] for layer in profile["layers"]}
        assert "<loss>" in names
        assert profile["total_seconds"] == pytest.approx(
            profile["forward_seconds"] + profile["backward_seconds"]
        )
        # The breakdown must survive JSON serialization with the result.
        import json

        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["profile"]["worker_id"] == "worker-0"

    def test_profiling_does_not_change_the_run(self):
        plain = run_experiment(TINY_SPEC, "simulated")
        profiled = run_experiment(TINY_SPEC, "simulated", profile=True)
        assert np.array_equal(plain.accuracies, profiled.accuracies)
        assert np.array_equal(plain.losses, profiled.losses)
        assert plain.total_updates == profiled.total_updates


class TestNetFaultsSpecField:
    @pytest.mark.parametrize("backend", ["simulated", "threaded"])
    def test_rejected_on_backends_without_network(self, backend):
        with pytest.raises(ValueError, match="no network"):
            run_experiment(
                TINY_SPEC.replace(net_faults=({"spec": "delay:5"},)), backend
            )

    def test_process_shm_transport_rejected(self):
        # shm pushes never cross a connection: demand the pipe transport.
        with pytest.raises(ValueError, match="transport='pipe'"):
            run_experiment(
                TINY_SPEC.replace(net_faults=({"spec": "delay:5"},)), "process"
            )

    def test_process_pipe_rejects_unsupported_kinds(self):
        with pytest.raises(ValueError, match="pipe transport"):
            run_experiment(
                TINY_SPEC.replace(
                    transport="pipe", net_faults=({"spec": "partition:1,1"},)
                ),
                "process",
            )

    def test_process_pipe_delay_runs_clean(self):
        result = run_experiment(
            TINY_SPEC.replace(transport="pipe", net_faults=({"spec": "delay:1"},)),
            "process",
        )
        assert result.errors == []
        assert result.total_updates == 20

    def test_process_pipe_drop_is_a_permanent_leave(self):
        # Pipes cannot reconnect, so a dropped worker leaves for good; the
        # survivor finishes and the drop shows up as a structured event.
        result = run_experiment(
            TINY_SPEC.replace(
                transport="pipe", net_faults=({"spec": "drop", "worker": 0},)
            ),
            "process",
        )
        assert result.errors == []
        kinds = [event["kind"] for event in result.events]
        assert "net_drop" in kinds
        assert result.iterations_per_worker["worker-1"] == 10

    def test_tcp_drop_reconnects_and_completes(self):
        result = run_experiment(
            TINY_SPEC.replace(net_faults=({"spec": "drop", "worker": 0},)), "tcp"
        )
        assert result.errors == []
        kinds = [event["kind"] for event in result.events]
        assert "net_drop" in kinds
        assert "reconnect" in kinds
        assert result.iterations_per_worker == {"worker-0": 10, "worker-1": 10}
