"""Tests for the declarative ExperimentSpec (validation + serialization)."""

import pytest

from repro.api.spec import ClusterConfig, ExperimentSpec, NAMED_SCALES
from repro.experiments.config import TINY


class TestClusterConfig:
    def test_homogeneous_build(self):
        cluster = ClusterConfig(kind="homogeneous", num_workers=3, device="p100").build()
        assert cluster.num_workers == 3
        assert {spec.device.name for spec in cluster.workers} == {"p100"}

    def test_heterogeneous_build(self):
        config = ClusterConfig(
            kind="heterogeneous", devices=("gtx1080ti", "gtx1060"), network="ethernet"
        )
        cluster = config.build()
        assert [spec.device.name for spec in cluster.workers] == ["gtx1080ti", "gtx1060"]
        assert config.worker_ids == ["worker-0", "worker-1"]

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(kind="galactic")

    def test_heterogeneous_requires_devices(self):
        with pytest.raises(ValueError):
            ClusterConfig(kind="heterogeneous", devices=())

    def test_unknown_network_rejected_at_build(self):
        config = ClusterConfig(network="carrier-pigeon")
        with pytest.raises(ValueError, match="unknown network"):
            config.build()

    def test_round_trip(self):
        config = ClusterConfig(kind="heterogeneous", devices=("p100", "gtx1060"))
        assert ClusterConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown cluster key"):
            ClusterConfig.from_dict({"kind": "homogeneous", "wokers": 3})

    def test_from_cluster_spec_round_trips_shape(self):
        original = ClusterConfig(
            kind="heterogeneous", devices=("gtx1080ti", "gtx1060"), network="ethernet"
        ).build()
        recovered = ClusterConfig.from_cluster_spec(original)
        assert recovered.kind == "heterogeneous"
        assert recovered.devices == ("gtx1080ti", "gtx1060")
        assert recovered.network == "ethernet"


class TestSpecValidation:
    def test_defaults_valid(self):
        spec = ExperimentSpec()
        assert spec.resolved_scale() is NAMED_SCALES["tiny"]
        assert spec.label == "DSSP s=3, r=12"

    def test_bad_paradigm_kwargs_fail_fast(self):
        with pytest.raises(TypeError):
            ExperimentSpec(paradigm="ssp", paradigm_kwargs={"stalness": 3})
        with pytest.raises(ValueError):
            ExperimentSpec(paradigm="ssp", paradigm_kwargs={})
        with pytest.raises(ValueError):
            ExperimentSpec(paradigm="gossip")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            ExperimentSpec(scale="gigantic")

    def test_inline_scale_dict(self):
        spec = ExperimentSpec(
            scale={
                "name": "custom",
                "num_train": 64,
                "num_test": 32,
                "image_size": 8,
                "num_classes_cifar100": 10,
                "model_width": 4,
                "fc_width": 8,
                "resnet_depth_for_110": 8,
                "resnet_depth_for_50": 8,
                "epochs": 1.0,
                "batch_size": 8,
                "evaluate_every_updates": 4,
            }
        )
        assert spec.resolved_scale().num_train == 64
        assert spec.resolved_epochs() == 1.0

    def test_scale_object_canonicalized_to_dict(self):
        spec = ExperimentSpec(scale=TINY)
        assert isinstance(spec.scale, dict)
        assert spec.resolved_scale() == TINY
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_bad_scale_type_rejected(self):
        with pytest.raises(ValueError, match="scale must be"):
            ExperimentSpec(scale=42)

    def test_scale_defaults_flow_through(self):
        spec = ExperimentSpec(scale="tiny")
        assert spec.resolved_epochs() == TINY.epochs
        assert spec.resolved_batch_size() == TINY.batch_size
        assert spec.resolved_evaluate_every_updates() == TINY.evaluate_every_updates

    def test_overrides_beat_scale(self):
        spec = ExperimentSpec(scale="tiny", epochs=0.5, batch_size=8, evaluate_every_updates=0)
        assert spec.resolved_epochs() == 0.5
        assert spec.resolved_batch_size() == 8
        assert spec.resolved_evaluate_every_updates() == 0

    def test_slowdowns_validated_against_cluster(self):
        with pytest.raises(ValueError, match="nonexistent workers"):
            ExperimentSpec(
                cluster=ClusterConfig(num_workers=2), slowdowns={"worker-9": 0.01}
            )
        with pytest.raises(ValueError, match="must be positive"):
            ExperimentSpec(
                cluster=ClusterConfig(num_workers=2), slowdowns={"worker-1": 0.0}
            )
        spec = ExperimentSpec(
            cluster=ClusterConfig(num_workers=2), slowdowns={"worker-1": 0.5}
        )
        assert spec.slowdowns == {"worker-1": 0.5}

    def test_numeric_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(epochs=0.0)
        with pytest.raises(ValueError):
            ExperimentSpec(batch_size=-1)
        with pytest.raises(ValueError):
            ExperimentSpec(num_shards=0)
        with pytest.raises(ValueError):
            ExperimentSpec(epoch_accounting="sideways")

    def test_replace_revalidates(self):
        spec = ExperimentSpec()
        with pytest.raises(ValueError):
            spec.replace(paradigm="nope")
        assert spec.replace(seed=7).seed == 7

    def test_compression_validated(self):
        assert ExperimentSpec(compression="topk:0.01").compression == "topk:0.01"
        assert ExperimentSpec().compression is None
        with pytest.raises(ValueError, match="available codecs"):
            ExperimentSpec(compression="gzip")
        with pytest.raises(ValueError, match="density"):
            ExperimentSpec(compression="topk:1.5")

    def test_compression_survives_round_trip(self):
        spec = ExperimentSpec(compression="int8:chunk=512")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["compression"] == "int8:chunk=512"

    def test_aggregation_validated(self):
        assert ExperimentSpec(aggregation="trimmed_mean:1").aggregation == "trimmed_mean:1"
        assert ExperimentSpec().aggregation is None
        with pytest.raises(ValueError, match="available aggregators"):
            ExperimentSpec(aggregation="krum")
        with pytest.raises(ValueError, match="tau"):
            ExperimentSpec(aggregation="clip:0")

    def test_faults_validated_against_cluster(self):
        spec = ExperimentSpec(
            cluster=ClusterConfig(num_workers=2),
            faults=({"worker": 1, "kind": "crash", "after_clock": 3},),
        )
        assert spec.faults == ({"worker": 1, "kind": "crash", "after_clock": 3},)
        with pytest.raises(ValueError, match="out of range"):
            ExperimentSpec(
                cluster=ClusterConfig(num_workers=2),
                faults=({"worker": 5, "kind": "crash"},),
            )
        with pytest.raises(ValueError, match="corruption mode"):
            ExperimentSpec(faults=({"worker": 0, "kind": "byzantine"},))

    def test_aggregation_and_faults_survive_round_trip(self):
        spec = ExperimentSpec(
            aggregation="median",
            faults=(
                {"worker": 0, "kind": "byzantine", "mode": "sign_flip"},
                {"worker": 1, "kind": "flaky", "scale": 2.0, "period": 3},
            ),
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_dict()["aggregation"] == "median"
        assert restored.faults[0]["mode"] == "sign_flip"

    def test_transport_validated(self):
        assert ExperimentSpec(transport="pipe").transport == "pipe"
        assert ExperimentSpec(transport="  SHM ").transport == "shm"
        assert ExperimentSpec().transport is None
        with pytest.raises(ValueError, match="carrier-pigeon"):
            ExperimentSpec(transport="carrier-pigeon")

    def test_transport_survives_round_trip(self):
        spec = ExperimentSpec(transport="pipe")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["transport"] == "pipe"

    def test_cluster_address_and_heartbeat_validated(self):
        cluster = ClusterConfig(address="0.0.0.0:5555", heartbeat_timeout=3.0)
        assert cluster.address == "0.0.0.0:5555"
        with pytest.raises(ValueError, match="host:port"):
            ClusterConfig(address="localhost")
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ClusterConfig(heartbeat_timeout=0.0)

    def test_cluster_address_survives_round_trip(self):
        config = ClusterConfig(address="127.0.0.1:7777", heartbeat_timeout=2.5)
        assert ClusterConfig.from_dict(config.to_dict()) == config


class TestSpecSerialization:
    @pytest.fixture()
    def spec(self):
        return ExperimentSpec(
            name="round-trip",
            workload="alexnet",
            workload_kwargs={"seed": 3},
            scale="small",
            cluster=ClusterConfig(
                kind="heterogeneous", devices=("gtx1080ti", "gtx1060"), network="ethernet"
            ),
            paradigm="ssp",
            paradigm_kwargs={"staleness": 5},
            epochs=2.5,
            batch_size=64,
            lr_milestones=(1.5, 2.0),
            evaluate_every_updates=12,
            num_shards=4,
            shard_strategy="hash",
            dtype="float32",
            slowdowns={"worker-1": 0.25},
            seed=11,
        )

    def test_dict_round_trip_is_identity(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_identity(self, spec):
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, spec, tmp_path):
        path = spec.save(tmp_path / "spec.json")
        assert ExperimentSpec.load(path) == spec

    def test_unknown_key_rejected(self, spec):
        data = spec.to_dict()
        data["paradgim"] = "bsp"
        with pytest.raises(ValueError, match="unknown spec key"):
            ExperimentSpec.from_dict(data)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentSpec.load(tmp_path / "missing.json")

    def test_to_dict_is_json_safe(self, spec):
        import json

        encoded = json.dumps(spec.to_dict())
        assert "round-trip" in encoded

    def test_lr_milestones_survive_as_tuple(self, spec):
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.lr_milestones == (1.5, 2.0)
        assert isinstance(restored.lr_milestones, tuple)


class TestNetFaultsField:
    def _spec(self, **overrides):
        base = dict(
            name="chaos",
            workload="mlp",
            scale="tiny",
            cluster=ClusterConfig(num_workers=2, gpus_per_worker=1),
            paradigm="bsp",
            paradigm_kwargs={},
            epochs=1.0,
            batch_size=16,
            seed=0,
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_validated_at_construction(self):
        with pytest.raises(ValueError, match="meteor"):
            self._spec(net_faults=({"spec": "meteor:5"},))
        with pytest.raises(ValueError, match="out of range"):
            self._spec(net_faults=({"spec": "drop", "worker": 7},))
        with pytest.raises(ValueError, match="duplicate"):
            self._spec(
                net_faults=({"spec": "delay:5"}, {"spec": "delay:10"})
            )

    def test_round_trips_through_dict(self):
        spec = self._spec(
            net_faults=(
                {"spec": "delay:5"},
                {"spec": "drop:0.5,2", "worker": 1},
            )
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.net_faults == (
            {"spec": "delay:5"},
            {"spec": "drop:0.5,2", "worker": 1},
        )

    def test_default_is_empty_tuple(self):
        assert self._spec().net_faults == ()
