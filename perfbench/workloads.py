"""The four perfbench workloads as plain data.

Every workload is closed loop (a worker sends its next push only after its
OK and pull) under DSSP ``s_lower=3, s_upper=15`` (the paper's range) with
``batch_size=32, momentum=0.9`` and no periodic evaluation; the final
evaluation still runs.  The one-line reason each exists is the ``why`` in
``BENCHMARK.json``; ``perfbench/README.md`` has the long form.

This module imports nothing from ``repro``: the parent process builds a job
from it and the child process receives only the generated spec.
"""

from __future__ import annotations

import math

# BENCH_transport's communication-leaning MLP: 199 k float64 parameters,
# 1.6 MB per dense push and per pull.  noise_scale=3.0 because at the
# default noise the task ends at accuracy 1.000 and the quality check
# would be blind (sized: 0.90-0.93 across seeds).
MLP_SCALE = {
    "name": "perfbench-mlp",
    "num_train": 4096,
    "num_test": 256,
    "image_size": 16,
    "num_classes_cifar100": 10,
    "model_width": 4,
    "fc_width": 256,
    "resnet_depth_for_110": 8,
    "resnet_depth_for_50": 8,
    "epochs": 1.0,
    "batch_size": 32,
    "evaluate_every_updates": 0,
    "noise_scale": 3.0,
}

RESNET_SCALE = {
    "name": "perfbench-resnet",
    "num_train": 1024,
    "num_test": 256,
    "image_size": 8,
    "num_classes_cifar100": 10,
    "model_width": 6,
    "fc_width": 48,
    "resnet_depth_for_110": 14,
    "resnet_depth_for_50": 14,
    "epochs": 1.0,
    "batch_size": 32,
    "evaluate_every_updates": 0,
}

_DSSP = {
    "paradigm": "dssp",
    "paradigm_kwargs": {"s_lower": 3, "s_upper": 15},
    "batch_size": 32,
    "momentum": 0.9,
    "evaluate_every_updates": 0,
}

_MLP = {
    **_DSSP,
    "workload": "mlp",
    "scale": MLP_SCALE,
    "learning_rate": 0.01,
    "cluster": {"kind": "homogeneous", "num_workers": 2},
}

_RESNET = {
    **_DSSP,
    "workload": "resnet110",
    "scale": RESNET_SCALE,
    "cluster": {
        "kind": "heterogeneous",
        "devices": ["gtx1080ti", "gtx1080ti", "gtx1060", "gtx1060"],
        "network": "ethernet",
    },
}

# ``epochs`` is sized for 2-3 s of training per MLP repetition on the 2-core
# reference host, so one 20 s run takes the median of four or five fresh
# processes; the simulator needs its 8 epochs (5 s) to reach the accuracy
# its quality check asks for.  ``quick_epochs`` is the warm-up / smoke budget.
WORKLOADS = {
    "shm_mlp_dssp": {
        "backend": "process",
        "spec": _MLP,
        "epochs": 8,
        "quick_epochs": 0.5,
        "min_accuracy": 0.80,
    },
    "tcp_mlp_dssp": {
        "backend": "tcp",
        "spec": _MLP,
        "epochs": 4,
        "quick_epochs": 0.5,
        "min_accuracy": 0.80,
    },
    "tcp_mlp_topk": {
        "backend": "tcp",
        "spec": {**_MLP, "compression": "topk:0.01"},
        "epochs": 4,
        "quick_epochs": 0.5,
        "min_accuracy": 0.80,
    },
    "sim_resnet_hetero": {
        "backend": "simulated",
        "spec": _RESNET,
        "epochs": 8,
        "quick_epochs": 1,
        "min_accuracy": 0.90,
    },
}


def make_job(name: str, seed: int, quick: bool = False) -> dict:
    """The job a child process receives for one repetition of ``name``.

    ``push_budget`` is the number of pushes the spec's epoch budget comes
    to (the operations of ``attempted``/``failed``): an equal share per
    worker on the wall-clock backends, one global budget on the simulator.
    """
    workload = WORKLOADS[name]
    epochs = workload["quick_epochs"] if quick else workload["epochs"]
    spec = {**workload["spec"], "name": name, "epochs": epochs, "seed": seed}
    cluster = spec["cluster"]
    workers = cluster.get("num_workers") or len(cluster["devices"])
    num_train = spec["scale"]["num_train"]
    batch = spec["batch_size"]
    if workload["backend"] == "simulated":
        budget = math.ceil(epochs * num_train / batch)
    else:
        budget = workers * math.ceil(epochs * (num_train // workers) / batch)
    return {
        "workload": name,
        "backend": workload["backend"],
        "spec": spec,
        "workers": workers,
        "push_budget": budget,
    }
