"""The one run record: every backend's RunResult has one strict-JSON schema
that round-trips exactly through ``to_dict``/``from_dict``."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ClusterConfig, ExperimentSpec, RunResult, run_experiment
from repro.api.cli import main
from repro.ps.messages import WorkerReport
from repro.ps.result import SCHEMA_VERSION

SPEC = ExperimentSpec(
    name="run-record",
    workload="mlp",
    scale="tiny",
    cluster=ClusterConfig(num_workers=2, gpus_per_worker=1),
    paradigm="dssp",
    paradigm_kwargs={"s_lower": 1, "s_upper": 4},
    epochs=0.5,
    batch_size=16,
    evaluate_every_updates=4,
    seed=0,
)
BACKENDS = ("simulated", "process", "tcp")


def key_paths(payload, prefix=""):
    """Every key path of a JSON payload (a list contributes its first item)."""
    paths = set()
    if isinstance(payload, dict):
        for key, value in payload.items():
            paths.add(prefix + key)
            paths |= key_paths(value, prefix + key + ".")
    elif isinstance(payload, list) and payload:
        paths |= key_paths(payload[0], prefix + "[].")
    return paths


@pytest.fixture(scope="module")
def records():
    """One run per backend, rendered once."""
    cache = {}

    def record(backend):
        if backend not in cache:
            result = run_experiment(SPEC, backend)
            assert result.errors == [], (backend, result.errors)
            cache[backend] = result.to_dict()
        return cache[backend]

    return record


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_writes_one_schema_that_round_trips(records, backend):
    record = records(backend)
    assert key_paths(record) == key_paths(records("simulated")), backend
    assert RunResult.from_dict(record).to_dict() == record
    json.dumps(record, allow_nan=False)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["backend"] == backend


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_diverged_run_is_strict_json_and_restores_its_nans():
    tiny_mlp = ExperimentSpec.load(Path(__file__).parents[2] / "examples/specs/tiny_mlp.json")
    result = run_experiment(tiny_mlp.replace(learning_rate=1e30), "simulated")
    assert np.isnan(result.losses[-1])
    record = result.to_dict()
    json.dumps(record, allow_nan=False)
    restored = RunResult.from_dict(json.loads(json.dumps(record)))
    assert np.isnan(restored.losses[-1])
    assert restored.to_dict() == record


def test_unknown_schema_version_is_rejected():
    record = RunResult.failed("nothing ran").to_dict()
    assert RunResult.from_dict(record).errors == ["nothing ran"]
    with pytest.raises(ValueError, match="schema_version"):
        RunResult.from_dict({**record, "schema_version": SCHEMA_VERSION + 1})


def test_push_times_are_one_workers_pushes():
    result = RunResult.failed("")
    result.push_trace = [(0.0, "a", 1.0), (1.0, "a", 0.5), (1.5, "b", 0.7)]
    assert result.push_times("a").tolist() == [0.0, 1.0]
    assert result.push_times("b").tolist() == [1.5]
    assert result.push_times("c").size == 0


def test_simulator_traces_every_push_and_wall_clock_backends_none(records):
    simulated = RunResult.from_dict(records("simulated"))
    assert len(simulated.push_trace) == simulated.total_updates
    assert {worker for _, worker, _ in simulated.push_trace} == {"worker-0", "worker-1"}
    assert records("process")["push_trace"] == []


def test_show_prints_what_run_printed(tmp_path, capsys):
    spec_path = SPEC.save(tmp_path / "spec.json")
    output = tmp_path / "run.json"
    assert main(["run", str(spec_path), "--output", str(output)]) == 0
    printed = capsys.readouterr().out
    assert main(["show", str(output)]) == 0
    shown = capsys.readouterr().out
    assert shown.strip() and shown in printed


def test_a_record_whose_spec_names_a_transport_still_loads_and_shows(records, tmp_path, capsys):
    # Records written while specs still carried a ``transport`` field: the
    # provenance spec is a plain dict, so reading it back never re-parses it.
    record = json.loads(json.dumps(records("process")))
    record["provenance"]["spec"]["transport"] = "pipe"
    restored = RunResult.from_dict(record)
    assert restored.provenance.spec["transport"] == "pipe"
    path = tmp_path / "old.json"
    path.write_text(json.dumps(record))
    assert main(["show", str(path)]) == 0
    assert "process" in capsys.readouterr().out


def test_worker_report_fields_survive_the_round_trip():
    result = RunResult.failed("")
    result.worker_reports = [
        WorkerReport("worker-0", 4, 64, 0.5, 0.7, float("nan"), pushed_wire_bytes=123)
    ]
    (report,) = RunResult.from_dict(json.loads(json.dumps(result.to_dict()))).worker_reports
    assert report.pushed_wire_bytes == 123 and np.isnan(report.mean_loss)
