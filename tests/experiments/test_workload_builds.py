"""One build of a workload per process, and what that build contains.

``build_workload`` memoises per process, keyed on the registered builder,
the scale and the params, and hands out read-only datasets.  The process
and tcp coordinators build before they fork, so a forked run builds once in
all; a ``spawn`` child builds for itself.  The dataset digests pin the
synthesis to the bytes the per-sample ``np.roll`` loop produced.
"""

import dataclasses
import hashlib
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.api import ClusterConfig, ExperimentSpec, ProcessBackend, run_experiment
from repro.experiments import workloads
from repro.experiments.config import TINY, ExperimentScale
from repro.experiments.workloads import WORKLOADS, build_workload, mlp_workload
from repro.models.alexnet import downsized_alexnet
from repro.models.mlp import mlp
from repro.models.resnet import cifar_resnet, resnet50
from repro.simulation.workload import estimate_model_cost
from repro.utils.registry import Registry


@dataclasses.dataclass(frozen=True)
class BuildLog:
    """The file :func:`counting_workload` appends one line to per build.

    It travels in ``workload_kwargs``: unpickling it in a ``spawn`` child
    imports this module, which registers the counting workload there too.
    """

    path: str


def counting_workload(scale, log: BuildLog):
    """The ``mlp`` workload, recording which process built it."""
    with open(log.path, "a") as handle:
        handle.write(f"{os.getpid()}\n")
    return mlp_workload(scale)


COUNTING = "test-counting-mlp"
if COUNTING not in WORKLOADS:
    WORKLOADS.register(COUNTING, counting_workload, description="mlp that logs its builds")


def builds(log: BuildLog) -> list[str]:
    path = Path(log.path)
    return path.read_text().split() if path.exists() else []


def counting_spec(log: BuildLog) -> ExperimentSpec:
    return ExperimentSpec(
        name="build-count",
        workload=COUNTING,
        workload_kwargs={"log": log},
        scale="tiny",
        cluster=ClusterConfig(num_workers=1, gpus_per_worker=1),
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 1, "s_upper": 4},
        epochs=1.0,
        batch_size=16,
        evaluate_every_updates=10,
        seed=0,
    )


class TestCache:
    def test_equal_name_scale_and_params_share_one_build(self):
        first = build_workload("mlp", TINY, seed=5)
        same_scale = ExperimentScale(**dataclasses.asdict(TINY))
        assert build_workload("  MLP ", same_scale, seed=5) is first
        assert build_workload("mlp", TINY, seed=6) is not first
        assert build_workload("mlp", dataclasses.replace(TINY, num_test=60), seed=5) is not first

    def test_another_builder_under_the_same_name_builds_anew(self, monkeypatch):
        registered = build_workload("mlp", TINY)
        other = Registry("workload", {"mlp": lambda scale: mlp_workload(scale)}, given=("scale",))
        monkeypatch.setattr(workloads, "WORKLOADS", other)
        rebuilt = build_workload("mlp", TINY)
        assert rebuilt is not registered
        assert rebuilt.train_dataset.inputs.tobytes() == registered.train_dataset.inputs.tobytes()

    def test_built_datasets_are_read_only(self):
        workload = build_workload("mlp", TINY)
        for dataset in (workload.train_dataset, workload.test_dataset):
            for array in (dataset.inputs, dataset.labels):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_unhashable_params_build_uncached(self):
        spec = ExperimentSpec(workload="mlp", workload_kwargs={"seed": [2]}, scale="tiny")
        first = build_workload(spec.workload, spec.resolved_scale(), **spec.workload_kwargs)
        second = build_workload(spec.workload, spec.resolved_scale(), **spec.workload_kwargs)
        assert first is not second
        assert first.train_dataset.inputs.tobytes() == second.train_dataset.inputs.tobytes()
        assert not first.train_dataset.inputs.flags.writeable

    def test_only_a_few_builds_are_kept(self):
        first = build_workload("mlp", TINY, seed=10)
        for seed in range(11, 11 + workloads._build.cache_info().maxsize):
            build_workload("mlp", TINY, seed=seed)
        assert build_workload("mlp", TINY, seed=10) is not first


class TestBuildsPerRun:
    def test_a_fork_process_run_builds_once(self, tmp_path):
        log = BuildLog(str(tmp_path / "builds"))
        result = run_experiment(counting_spec(log), ProcessBackend(context="fork"))
        assert result.errors == []
        assert builds(log) == [str(os.getpid())]

    def test_a_self_hosted_tcp_run_builds_once(self, tmp_path):
        log = BuildLog(str(tmp_path / "builds"))
        result = run_experiment(counting_spec(log), "tcp")
        assert result.errors == []
        assert builds(log) == [str(os.getpid())]

    def test_spawned_children_build_for_themselves_and_train_the_same(self, tmp_path):
        fork_log = BuildLog(str(tmp_path / "fork"))
        spawn_log = BuildLog(str(tmp_path / "spawn"))
        forked = run_experiment(counting_spec(fork_log), ProcessBackend(context="fork"))
        spawned = run_experiment(counting_spec(spawn_log), ProcessBackend(context="spawn"))
        assert spawned.errors == []
        # The coordinator, the server and the one worker: one build each.
        assert len(builds(spawn_log)) == len(set(builds(spawn_log))) == 3
        assert builds(spawn_log)[0] == str(os.getpid())
        assert len(forked.losses) >= 3
        assert spawned.losses.tolist() == forked.losses.tolist()


#: Perfbench's workload scales (perfbench/workloads.py), pinned here.
PERFBENCH_MLP = ExperimentScale(
    name="perfbench-mlp", num_train=4096, num_test=256, image_size=16,
    num_classes_cifar100=10, model_width=4, fc_width=256, resnet_depth_for_110=8,
    resnet_depth_for_50=8, epochs=1.0, batch_size=32, evaluate_every_updates=0,
    noise_scale=3.0,
)
PERFBENCH_RESNET = ExperimentScale(
    name="perfbench-resnet", num_train=1024, num_test=256, image_size=8,
    num_classes_cifar100=10, model_width=6, fc_width=48, resnet_depth_for_110=14,
    resnet_depth_for_50=14, epochs=1.0, batch_size=32, evaluate_every_updates=0,
)
SCALES = {"tiny": TINY, "perfbench-mlp": PERFBENCH_MLP, "perfbench-resnet": PERFBENCH_RESNET}

#: SHA-256 over dtype, shape and bytes of train inputs, train labels, test
#: inputs and test labels, as the per-sample np.roll synthesis built them.
DIGESTS = {
    ("mlp", "tiny"): "0a0e3606b74d4cbfeab9d5a65471ba90a33b4f199cf5c936001dea5c56764fbe",
    ("resnet110", "tiny"): "6cfdac813f319a70bd50e3e472739d2699f6d6b7c91a9103b7c6c873202e2184",
    ("resnet50", "tiny"): "6cfdac813f319a70bd50e3e472739d2699f6d6b7c91a9103b7c6c873202e2184",
    ("alexnet", "tiny"): "5fffda7145e1f5582db397649469aaf502f1fc2ec175753981b1b54b6872757b",
    ("mlp", "perfbench-mlp"): "84158bc7f19e4777717182efb6bffe67eefaa6d719f2d2c5631e5575faf99caa",
    ("resnet110", "perfbench-mlp"): "f56d3c62506513e1b890b89789a99704f28c9753413e36ab431e606ec556b3bc",
    ("resnet50", "perfbench-mlp"): "f56d3c62506513e1b890b89789a99704f28c9753413e36ab431e606ec556b3bc",
    ("alexnet", "perfbench-mlp"): "c7a4b3c5754ddf6b460af7a747745c1927cd0a74a1d0824138f939c4d1d84249",
    ("mlp", "perfbench-resnet"): "f88504cf1f1e3a1a4e8e44ddbfc65cbab69978bd43156119ed8d522e133dee74",
    ("resnet110", "perfbench-resnet"): "ed1c49382c09929e7ffc95c475299803bb7d54dcf623fb63f606557f822429e8",
    ("resnet50", "perfbench-resnet"): "ed1c49382c09929e7ffc95c475299803bb7d54dcf623fb63f606557f822429e8",
    ("alexnet", "perfbench-resnet"): "b5f43ed1c9e1c9cd1553230f38ae1f688fd66c8658c0f17608266d4f46bdf02b",
}


@pytest.mark.parametrize("name, scale", list(DIGESTS), ids=[f"{n}@{s}" for n, s in DIGESTS])
def test_synthesis_is_byte_identical_to_the_per_sample_roll(name, scale):
    # The registered builder directly: a digest needs no cached copy.
    workload = WORKLOADS[name](SCALES[scale])
    digest = hashlib.sha256()
    for dataset in (workload.train_dataset, workload.test_dataset):
        for array in (dataset.inputs, dataset.labels):
            digest.update(f"{array.dtype}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == DIGESTS[name, scale]


def test_an_mlp_build_holds_its_data_once():
    # Uncached, so the build happens inside the trace: no second
    # dataset-sized array (the whole-array noise draw) and no paper-scale
    # reference model on the way.
    tracemalloc.start()
    try:
        workload = workloads._build.__wrapped__(WORKLOADS["mlp"], PERFBENCH_MLP, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = sum(
        array.nbytes
        for dataset in (workload.train_dataset, workload.test_dataset)
        for array in (dataset.inputs, dataset.labels)
    )
    assert peak <= 1.25 * data


@pytest.mark.parametrize(
    "cost, reference, input_shape",
    [
        (workloads.MLP_COST, lambda: mlp(3 * 32 * 32, (512, 256), 10), (3 * 32 * 32,)),
        (
            workloads.ALEXNET_COST,
            lambda: downsized_alexnet(10, image_size=32, width=32, fc_width=256),
            (3, 32, 32),
        ),
        (
            workloads.RESNET_COSTS[110],
            lambda: cifar_resnet(depth=110, num_classes=100, base_width=16),
            (3, 32, 32),
        ),
        (
            workloads.RESNET_COSTS[50],
            lambda: resnet50(num_classes=100, base_width=16),
            (3, 32, 32),
        ),
    ],
    ids=["mlp", "alexnet", "resnet110", "resnet50"],
)
def test_each_timing_cost_is_its_paper_scale_reference_estimate(cost, reference, input_shape):
    assert cost == estimate_model_cost(reference(), input_shape)
