"""Tests for the ``python -m repro`` command line."""

import json
import socket
import threading

import pytest

from repro.api.cli import main
from repro.api.spec import ClusterConfig, ExperimentSpec


@pytest.fixture()
def spec_path(tmp_path):
    spec = ExperimentSpec(
        name="cli-test",
        workload="mlp",
        scale="tiny",
        cluster=ClusterConfig(num_workers=2, gpus_per_worker=1),
        paradigm="bsp",
        paradigm_kwargs={},
        epochs=0.5,
        batch_size=16,
        evaluate_every_updates=0,
        seed=0,
    )
    return spec.save(tmp_path / "spec.json")


class TestRun:
    def test_run_simulated_writes_result(self, spec_path, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(["run", str(spec_path), "--backend", "simulated", "--output", str(output)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "backend   : simulated" in printed
        payload = json.loads(output.read_text())
        assert payload["backend"] == "simulated"
        assert payload["paradigm"] == "bsp"
        assert payload["provenance"]["spec"]["name"] == "cli-test"

    def test_run_process(self, spec_path, capsys):
        code = main(["run", str(spec_path), "--backend", "process"])
        assert code == 0
        assert "backend   : process" in capsys.readouterr().out

    def test_the_threaded_backend_is_an_unknown_name(self, spec_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(spec_path), "--backend", "threaded"])
        assert exit_info.value.code != 0
        assert "unknown backend 'threaded'; available backends: simulated, process, tcp" in (
            capsys.readouterr().err
        )

    def test_run_with_profile_prints_breakdown(self, spec_path, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(
            ["run", str(spec_path), "--backend", "process", "--profile",
             "--output", str(output)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "per-layer compute breakdown" in printed
        assert "<loss>" in printed
        payload = json.loads(output.read_text())
        assert payload["profile"]["worker_id"] == "worker-0"
        assert payload["profile"]["layers"]

    def test_seed_override_recorded(self, spec_path, tmp_path):
        output = tmp_path / "result.json"
        code = main(["run", str(spec_path), "--seed", "9", "--output", str(output)])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["provenance"]["seed"] == 9

    def test_missing_spec_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_valid_spec_ok(self, spec_path, capsys):
        assert main(["validate", str(spec_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_spec_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workload": "mlp", "paradgim": "bsp"}))
        assert main(["validate", str(bad)]) == 2
        assert "unknown spec key" in capsys.readouterr().err

    def test_unknown_workload_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workload": "alexnett"}))
        assert main(["validate", str(bad)]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bad_paradigm_kwargs_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"paradigm": "ssp", "paradigm_kwargs": {"stalness": 3}})
        )
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompressionFlag:
    def test_run_with_compression_reports_ratio(self, spec_path, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(
            ["run", str(spec_path), "--backend", "process",
             "--compression", "topk:0.05", "--output", str(output)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "compression       : topk:0.05" in printed
        payload = json.loads(output.read_text())
        assert payload["provenance"]["spec"]["compression"] == "topk:0.05"
        transfers = payload["transfers"]
        assert transfers["pushed_wire_bytes"] > 0
        assert transfers["compression_ratio"] > 5.0

    def test_unknown_codec_fails_cleanly(self, spec_path, capsys):
        code = main(["run", str(spec_path), "--compression", "gzip"])
        assert code == 2
        # The error names the accepted codecs (satellite requirement).
        assert "topk" in capsys.readouterr().err


class TestRegistry:
    def test_lists_components(self, capsys):
        assert main(["registry"]) == 0
        printed = capsys.readouterr().out
        for expected in ("simulated", "process", "dssp", "alexnet", "resnet110", "p100"):
            assert expected in printed

    def test_lists_codecs(self, capsys):
        assert main(["registry"]) == 0
        printed = capsys.readouterr().out
        assert "codecs:" in printed
        for codec in ("none", "fp16", "int8", "topk", "significance"):
            assert codec in printed

    def test_lists_all_backends_in_registration_order(self, capsys):
        assert main(["registry"]) == 0
        printed = capsys.readouterr().out
        backends_block = printed.split("paradigms:")[0]
        assert backends_block.startswith("backends:")
        listed = [line.strip() for line in backends_block.splitlines()[1:] if line.strip()]
        assert listed == ["simulated", "process", "tcp"]

    def test_lists_no_transports(self, capsys):
        # The backend decides the gradient path: process pushes through
        # shared memory, tcp through its sockets.
        assert main(["registry"]) == 0
        assert "transports:" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["run", "spec.json", "--transport", "shm"])


class TestOldSpecFiles:
    def test_a_spec_file_that_sets_transport_is_refused(self, spec_path, capsys):
        data = json.loads(spec_path.read_text())
        data["transport"] = "pipe"
        spec_path.write_text(json.dumps(data))
        assert main(["run", str(spec_path), "--backend", "process"]) == 2
        assert "unknown spec key(s) ['transport']" in capsys.readouterr().err


class TestRunProcessBackend:
    def test_run_process_writes_result(self, spec_path, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(
            ["run", str(spec_path), "--backend", "process", "--output", str(output)]
        )
        assert code == 0
        assert "backend   : process" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["backend"] == "process"
        assert payload["errors"] == []
        assert payload["provenance"]["spec"]["name"] == "cli-test"

    def test_process_is_an_accepted_backend_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "spec.json", "--backend", "quantum"])
        assert "process" in capsys.readouterr().err


class TestTcpBackendCli:
    def test_run_tcp_writes_result(self, spec_path, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(["run", str(spec_path), "--backend", "tcp", "--output", str(output)])
        assert code == 0
        assert "backend   : tcp" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["backend"] == "tcp"
        assert payload["errors"] == []
        assert payload["transfers"]["pushed_wire_bytes"] > 0

    def test_serve_then_run_against_it(self, spec_path, tmp_path, capsys):
        # Full CLI loop: 'serve' hosts the parameter server, 'run
        # --backend tcp --address' points the workers at it.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            address = "127.0.0.1:%d" % probe.getsockname()[1]
        serve_code = []
        server = threading.Thread(
            target=lambda: serve_code.append(
                main(["serve", str(spec_path), "--bind", address])
            ),
            daemon=True,
        )
        server.start()
        output = tmp_path / "result.json"
        code = main(
            ["run", str(spec_path), "--backend", "tcp",
             "--address", address, "--output", str(output)]
        )
        server.join(timeout=60.0)
        assert not server.is_alive(), "serve never returned"
        assert code == 0
        assert serve_code == [0]
        payload = json.loads(output.read_text())
        assert payload["backend"] == "tcp"
        assert payload["errors"] == []
        printed = capsys.readouterr().out
        assert f"on {address}" in printed
        assert "run complete" in printed

    def test_serve_checkpoint_every_requires_checkpoint(self, spec_path, capsys):
        code = main(["serve", str(spec_path), "--checkpoint-every", "5"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_address_requires_tcp_backend(self, spec_path, capsys):
        code = main(
            ["run", str(spec_path), "--backend", "process",
             "--address", "127.0.0.1:5555"]
        )
        assert code == 2
        assert "--backend tcp" in capsys.readouterr().err


class TestNetFaultsFlag:
    def test_argument_parsing(self):
        from repro.api.cli import _parse_net_fault_argument

        assert _parse_net_fault_argument("delay:5") == {"spec": "delay:5"}
        assert _parse_net_fault_argument("1=drop:0.5") == {
            "spec": "drop:0.5",
            "worker": 1,
        }
        assert _parse_net_fault_argument("worker-1=drop") == {
            "spec": "drop",
            "worker": "worker-1",
        }

    def test_rejected_on_simulated_backend(self, spec_path, capsys):
        code = main(
            ["run", str(spec_path), "--backend", "simulated",
             "--net-faults", "delay:5"]
        )
        assert code == 2
        assert "no network" in capsys.readouterr().err

    def test_tcp_run_with_delay_fault(self, spec_path, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(
            ["run", str(spec_path), "--backend", "tcp",
             "--net-faults", "delay:1", "--output", str(output)]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["errors"] == []
        assert payload["provenance"]["spec"]["net_faults"] == [{"spec": "delay:1"}]


class TestSupervisedServe:
    def test_supervise_requires_checkpoint(self, spec_path, capsys):
        code = main(["serve", str(spec_path), "--supervise"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_supervised_serve_then_run(self, spec_path, tmp_path, capsys):
        # The happy path of watchdog mode: the supervised server hosts an
        # uninterrupted run exactly like a bare 'serve' would.  (The
        # kill -9 path is exercised in tests/ps/test_tcp_runtime.py and
        # the chaos-net-smoke CI job.)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            address = "127.0.0.1:%d" % probe.getsockname()[1]
        serve_code = []
        server = threading.Thread(
            target=lambda: serve_code.append(
                main(
                    ["serve", str(spec_path), "--bind", address,
                     "--supervise", "--checkpoint",
                     str(tmp_path / "supervised.npz")]
                )
            ),
            daemon=True,
        )
        server.start()
        output = tmp_path / "result.json"
        code = main(
            ["run", str(spec_path), "--backend", "tcp",
             "--address", address, "--output", str(output)]
        )
        server.join(timeout=120.0)
        assert not server.is_alive(), "supervised serve never returned"
        assert code == 0
        assert serve_code == [0]
        printed = capsys.readouterr().out
        assert "supervising" in printed
        assert "server pid" in printed
        payload = json.loads(output.read_text())
        assert payload["errors"] == []
