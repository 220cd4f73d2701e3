"""Simulator regression matrix: 26 specs, every reported number dumped as hex.

A refactor of the simulated backend must leave its outputs bit-identical.
Dump the matrix on two checkouts and compare leaf by leaf::

    PYTHONPATH=<parent>/src python tools/sim_matrix.py dump parent.json
    PYTHONPATH=src          python tools/sim_matrix.py dump change.json
    PYTHONPATH=src          python tools/sim_matrix.py compare parent.json change.json

Covers the four paradigms, 1 worker, the ``none``/``topk``/``int8`` codecs,
4 shards (size and hash), float32, ``per_worker`` accounting, LR milestones,
``max_updates``, heterogeneous clusters, ``median``/``trimmed_mean``,
slowdowns, the ``tail-heavy`` topology, crash/byzantine/corrupt/flaky
faults, and two convolutional workloads (a heterogeneous ``resnet110`` and
the max-pooling ``alexnet``) so the ``nn`` conv, pooling and batch-norm
kernels are covered too.  ``samples_processed`` is left out of the dump (it
was corrected on purpose once).
"""


import dataclasses
import json
import sys

import numpy as np

from repro.api import ClusterConfig, ExperimentSpec, run_experiment

BASE = dict(
    workload="mlp",
    scale="tiny",
    cluster=ClusterConfig(num_workers=3, gpus_per_worker=1),
    paradigm="dssp",
    paradigm_kwargs={"s_lower": 1, "s_upper": 4},
    epochs=4.0,
    batch_size=32,
    evaluate_every_updates=5,
    seed=0,
)
HETERO = ClusterConfig(
    kind="heterogeneous", devices=("gtx1080ti", "gtx1080ti", "gtx1060"), network="ethernet"
)
TAIL = ClusterConfig(
    kind="heterogeneous",
    devices=("gtx1080ti", "gtx1080ti", "gtx1080ti", "gtx1060",
             "gtx1080ti", "gtx1080ti", "gtx1080ti", "straggler"),
    topology="tail-heavy",
)

MATRIX = {
    "bsp": dict(paradigm="bsp", paradigm_kwargs={}),
    "asp": dict(paradigm="asp", paradigm_kwargs={}),
    "ssp": dict(paradigm="ssp", paradigm_kwargs={"staleness": 2}),
    "dssp": dict(),
    "one-worker": dict(cluster=ClusterConfig(num_workers=1, gpus_per_worker=1)),
    "codec-none": dict(compression="none"),
    "codec-topk": dict(compression="topk:0.01"),
    "codec-int8": dict(compression="int8"),
    "shards-4": dict(num_shards=4),
    "shards-4-hash-topk": dict(num_shards=4, shard_strategy="hash", compression="topk:0.01"),
    "float32": dict(dtype="float32"),
    "per-worker": dict(epoch_accounting="per_worker", cluster=HETERO),
    "milestones": dict(lr_milestones=(1.0, 3.0), lr_decay=0.1),
    "max-updates": dict(max_updates=23),
    "hetero": dict(cluster=HETERO),
    "hetero-ssp-seed3": dict(cluster=HETERO, paradigm="ssp", paradigm_kwargs={"staleness": 3}, seed=3),
    "median": dict(aggregation="median", paradigm="bsp", paradigm_kwargs={}),
    "trimmed-mean": dict(aggregation="trimmed_mean:1"),
    "slowdowns": dict(slowdowns={"worker-1": 3.0}),
    "tail-heavy": dict(cluster=TAIL, epochs=3.0, batch_size=16),
    "crash": dict(faults=({"worker": 2, "kind": "crash", "after_clock": 4},), aggregation="trimmed_mean:1"),
    "byzantine": dict(
        faults=({"worker": 1, "kind": "byzantine", "mode": "noise", "after_clock": 2},),
        aggregation="median",
    ),
    "corrupt": dict(
        faults=({"worker": 0, "kind": "corrupt", "mode": "bit_flip", "after_clock": 1, "until_clock": 6},)
    ),
    "flaky": dict(faults=({"worker": 1, "kind": "flaky", "period": 2, "scale": 5.0},)),
    "resnet110-hetero": dict(workload="resnet110", cluster=HETERO, epochs=1.0, batch_size=16),
    "alexnet": dict(workload="alexnet", epochs=1.0, batch_size=16),
}
assert len(MATRIX) == 26


def hexed(value):
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [hexed(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    if dataclasses.is_dataclass(value):
        return hexed(dataclasses.asdict(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


def dump(path):
    """Run the matrix on the importable ``repro`` and write ``path``."""
    out = {}
    for name, overrides in MATRIX.items():
        spec = ExperimentSpec(name=name, **{**BASE, **overrides})
        result = run_experiment(spec, "simulated")
        assert result.errors == [], (name, result.errors)
        payload = result.to_dict()
        payload.pop("provenance")
        for report in payload["worker_reports"]:
            report.pop("samples_processed")
        out[name] = hexed(payload)
        print(name, result.total_updates, f"{result.final_accuracy:.4f}", flush=True)
    json.dump(out, open(path, "w"), indent=1, sort_keys=True)


def _diff(x, y, path=""):
    if type(x) != type(y):
        return [(path, x, y)]
    out = []
    if isinstance(x, dict):
        for key in sorted(set(x) | set(y)):
            if key not in x or key not in y:
                out.append((f"{path}/{key}", x.get(key, "<missing>"), y.get(key, "<missing>")))
            else:
                out += _diff(x[key], y[key], f"{path}/{key}")
    elif isinstance(x, list):
        if len(x) != len(y):
            out.append((path + "#len", len(x), len(y)))
        for index, (left, right) in enumerate(zip(x, y)):
            out += _diff(left, right, f"{path}[{index}]")
    elif x != y:
        out.append((path, x, y))
    return out


def _leaves(x):
    if isinstance(x, dict):
        return sum(_leaves(value) for value in x.values())
    if isinstance(x, list):
        return sum(_leaves(value) for value in x)
    return 1


def compare(path_a, path_b):
    """Print one line per spec of either dump; return how many specs differ.

    A spec only one dump holds differs, and prints as ``ONLY IN PARENT``
    (``path_a``) or ``ONLY IN CHANGE`` (``path_b``) without its payload.
    """
    a, b = json.load(open(path_a)), json.load(open(path_b))
    names = sorted(set(a) | set(b))
    differing = 0
    for name in names:
        found = []
        if name not in b:
            verdict = "ONLY IN PARENT"
        elif name not in a:
            verdict = "ONLY IN CHANGE"
        else:
            found = _diff(a[name], b[name])
            verdict = f"{len(found)} differences" if found else f"IDENTICAL ({_leaves(a[name])} values)"
        print(f"{name:22s}", verdict)
        for item in found[:6]:
            print("   ", item)
        differing += not verdict.startswith("IDENTICAL")
    print("specs differing:", differing, "of", len(names))
    return differing


if __name__ == "__main__":
    if sys.argv[1] == "dump":
        dump(sys.argv[2])
    else:
        sys.exit(1 if compare(sys.argv[2], sys.argv[3]) else 0)
