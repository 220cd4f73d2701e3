"""API surface of the topology spec field.

Construction-time validation, JSON round-trips, wall-clock backend
rejection, the simulated backend's percentile reporting, and the CLI
overrides.
"""

import json

import numpy as np
import pytest

from repro.api.backends import run_experiment
from repro.api.cli import main
from repro.api.spec import ClusterConfig, ExperimentSpec
from repro.experiments.workloads import build_workload

PARADIGMS = {
    "bsp": {},
    "asp": {},
    "ssp": {"staleness": 3},
    "dssp": {"s_lower": 3, "s_upper": 15},
}


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="topo-api",
        workload="mlp",
        scale="tiny",
        cluster=ClusterConfig(num_workers=2, gpus_per_worker=1, topology="flat"),
        paradigm="bsp",
        paradigm_kwargs={},
        epochs=0.5,
        evaluate_every_updates=0,
        seed=0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_unknown_preset_rejected_at_construction(self):
        with pytest.raises(ValueError, match="preset"):
            ClusterConfig(num_workers=2, topology="warehouse-scale")

    def test_malformed_inline_topology_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ClusterConfig(num_workers=2, topology={"kind": "mesh"})

    def test_topology_rejects_sharding(self):
        with pytest.raises(ValueError, match="num_shards"):
            tiny_spec(num_shards=2)

    def test_round_trips_through_json(self):
        spec = tiny_spec()
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.cluster.topology == "flat"
        assert clone.to_dict() == spec.to_dict()

    def test_inline_topology_round_trips(self):
        inline = {
            "kind": "racks",
            "num_racks": 2,
            "leaf": {"latency": 1e-4, "bandwidth": 1e9},
            "uplink": {"latency": 1e-3, "bandwidth": 1e8, "jitter": "pareto:2.0"},
        }
        spec = tiny_spec(cluster=ClusterConfig(num_workers=4, topology=inline))
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.cluster.topology == inline

    def test_replace_overrides_topology(self):
        spec = tiny_spec()
        flat = spec.replace(cluster=spec.cluster.replace(topology=None))
        assert flat.cluster.topology is None
        assert spec.cluster.topology == "flat"


class TestBackendBehaviour:
    @pytest.mark.parametrize("backend", ["process", "tcp"])
    def test_wall_clock_backends_reject_topology(self, backend):
        with pytest.raises(ValueError, match="topology"):
            run_experiment(tiny_spec(), backend)

    def test_simulated_reports_percentiles(self):
        result = run_experiment(tiny_spec(), "simulated")
        summary = result.iteration_time_percentiles
        assert summary.count > 0
        assert summary.p99 >= summary.p90 >= summary.p50 > 0.0
        payload = result.to_dict()
        assert set(payload["iteration_time_percentiles"]) == {
            "count", "p50", "p90", "p99", "mean", "max",
        }

    def test_wall_clock_percentiles_schema_stable(self):
        spec = ExperimentSpec(
            name="flat-process",
            workload="mlp",
            scale="tiny",
            cluster=ClusterConfig(num_workers=2, gpus_per_worker=1),
            paradigm="bsp",
            paradigm_kwargs={},
            epochs=0.5,
            evaluate_every_updates=0,
            seed=0,
        )
        result = run_experiment(spec, "process")
        payload = result.to_dict()["iteration_time_percentiles"]
        assert payload["count"] == 0
        assert payload["p99"] == 0.0

    @pytest.mark.parametrize("topology", ["flat", "two-rack"])
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_every_iteration_pushes_and_pulls_the_dense_payload(self, paradigm, topology):
        spec = tiny_spec(
            paradigm=paradigm,
            paradigm_kwargs=PARADIGMS[paradigm],
            cluster=ClusterConfig(num_workers=2, gpus_per_worker=1, topology=topology),
        )
        result = run_experiment(spec, "simulated")
        assert not result.errors
        workload = build_workload(spec.workload, spec.resolved_scale())
        model = workload.model_builder(np.random.default_rng(0))
        dense = model.num_parameters() * np.dtype(spec.dtype).itemsize
        for report in result.worker_reports:
            assert report.iterations > 0
            assert report.pushed_wire_bytes == report.pushed_raw_bytes == report.iterations * dense
            # One pull to start, then one whole-model reply per push.
            assert report.pulled_bytes == (report.iterations + 1) * dense

    @pytest.mark.parametrize("topology", ["flat", "two-rack", "tail-heavy"])
    def test_a_topology_run_replays_exactly(self, topology):
        spec = tiny_spec(
            paradigm="dssp",
            paradigm_kwargs=PARADIGMS["dssp"],
            cluster=ClusterConfig(num_workers=4, gpus_per_worker=1, topology=topology),
        )
        first, again = run_experiment(spec, "simulated"), run_experiment(spec, "simulated")
        assert first.total_time == again.total_time
        assert first.accuracies.tolist() == again.accuracies.tolist()
        assert first.iteration_time_percentiles == again.iteration_time_percentiles


class TestCliOverrides:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        spec = ExperimentSpec(
            name="cli-topo",
            workload="mlp",
            scale="tiny",
            cluster=ClusterConfig(num_workers=2, gpus_per_worker=1),
            paradigm="bsp",
            paradigm_kwargs={},
            epochs=0.5,
            evaluate_every_updates=0,
            seed=0,
        )
        return spec.save(tmp_path / "spec.json")

    def test_topology_flag_threads_through(self, spec_path, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(
            ["run", str(spec_path), "--backend", "simulated",
             "--topology", "two-rack", "--output", str(output)]
        )
        assert code == 0
        assert "iteration times" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["provenance"]["spec"]["cluster"]["topology"] == "two-rack"
        assert payload["iteration_time_percentiles"]["count"] > 0

    def test_the_comm_pattern_flag_is_unrecognized(self, spec_path, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", str(spec_path), "--comm-pattern", "ps"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --comm-pattern ps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_a_spec_file_that_sets_comm_pattern_is_refused(self, spec_path, command, capsys):
        # Older spec files wrote ``"comm_pattern": "ps"`` by default.
        data = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**data, "comm_pattern": "ps"}))
        assert main([command, str(spec_path)]) == 2
        assert "unknown spec key(s) ['comm_pattern']" in capsys.readouterr().err

    def test_unknown_topology_flag_fails_cleanly(self, spec_path, capsys):
        code = main(
            ["run", str(spec_path), "--backend", "simulated",
             "--topology", "warehouse"]
        )
        assert code != 0

    def test_registry_lists_topologies(self, capsys):
        code = main(["registry"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "two-rack" in printed
