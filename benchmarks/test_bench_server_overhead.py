"""Micro-benchmarks of the server-side machinery.

The paper's DSSP adds work to the parameter server (clock bookkeeping and
the synchronization controller); these benchmarks quantify that overhead per
push for every paradigm and the cost of a full push (policy decision plus
SGD weight update) on a realistically sized parameter set — plus the pull
path: copy-on-write pulls that resend only the shards moved since the
puller's base, on eight shards versus one.
"""

import numpy as np
import pytest

from repro.core.factory import make_policy
from repro.optim.sgd import SGD
from repro.ps.server import ParameterServer
from repro.ps.session import ServerSession
from repro.ps.sharding import ShardedKeyValueStore, make_store


def resnet_scale_weights(layers=10):
    """~1.7M parameters in equal-sized tensors (ResNet-110 sized payload)."""
    rng = np.random.default_rng(0)
    return {f"layer{i}.weight": rng.normal(size=(400, 430)) for i in range(layers)}

PARADIGMS = [
    ("bsp", {}),
    ("asp", {}),
    ("ssp", {"staleness": 3}),
    ("dssp", {"s_lower": 3, "s_upper": 15}),
]


def _drive_policy(policy, num_workers: int, rounds: int) -> None:
    time = 0.0
    blocked = set()
    for round_index in range(rounds):
        for index in range(num_workers):
            worker_id = f"w{index}"
            if worker_id in blocked:
                continue
            time += 0.001 * (index + 1)
            outcome = policy.on_push(worker_id, time)
            if outcome.blocked:
                blocked.add(worker_id)
            for released in policy.pop_releasable():
                blocked.discard(released)


@pytest.mark.parametrize("name,kwargs", PARADIGMS, ids=[p[0] for p in PARADIGMS])
def test_policy_decision_overhead(benchmark, name, kwargs):
    """Time to process 400 push decisions (4 workers x 100 rounds)."""

    def run():
        policy = make_policy(name, **kwargs)
        for index in range(4):
            policy.register_worker(f"w{index}")
        _drive_policy(policy, num_workers=4, rounds=100)
        return policy

    policy = benchmark(run)
    assert policy.statistics()["pushes"] > 0


def test_full_push_with_sgd_update(benchmark):
    """One push against a ~1.7M-parameter store (ResNet-110 sized payload)."""
    rng = np.random.default_rng(0)
    weights = resnet_scale_weights()
    store = make_store(weights)
    server = ParameterServer(
        store=store,
        optimizer=SGD(learning_rate=0.05, momentum=0.9),
        policy=make_policy("dssp", s_lower=3, s_upper=15),
    )
    server.register_worker("w0")
    session = ServerSession(server, ["w0"])
    gradients = {name: rng.normal(size=value.shape) for name, value in weights.items()}

    state = {"version": 0, "time": 0.0}

    def push():
        state["time"] += 0.01
        header = {"base_version": store.version, "timestamp": state["time"]}
        return session.push("w0", header, named=gradients)

    response = benchmark(push)
    assert response.new_version >= 1


@pytest.mark.parametrize("layout", ["monolithic", "sharded"])
def test_pull_latency(benchmark, layout):
    """Time of one pull when only one of ten tensors is dirty per interval.

    Both stores hand out copy-on-write views of the shards that moved since
    the puller's known version: the monolithic store's one shard is the
    full ~13 MB model, the sharded store's is the dirtied tensor's shard.
    """
    weights = resnet_scale_weights()
    if layout == "sharded":
        store = ShardedKeyValueStore(initial_weights=weights, num_shards=8)
    else:
        store = make_store(weights)
    optimizer = SGD(learning_rate=0.05)
    name = next(iter(weights))
    gradient = {name: np.ones(weights[name].shape)}
    state = {"known": 0}

    def pull():
        store.apply_gradients(gradient, optimizer)
        reply = store.pull(known_version=state["known"])
        state["known"] = reply.version
        return reply

    reply = benchmark(pull)
    assert reply.version >= 1


def test_cow_delta_pull_copies_fewer_bytes():
    """Acceptance check: with few dirty keys the sharded copy-on-write pull
    moves >= 2x fewer bytes than the monolithic store's full-model pull."""
    weights = resnet_scale_weights()
    mono = make_store(weights)
    sharded = ShardedKeyValueStore(initial_weights=weights, num_shards=8)
    mono_opt, shard_opt = SGD(0.05), SGD(0.05)

    # One of ten tensors dirtied since the worker's last pull.
    name = next(iter(weights))
    gradient = {name: np.ones(weights[name].shape)}
    known = sharded.pull().version
    mono.apply_gradients(gradient, mono_opt)
    sharded.apply_gradients(gradient, shard_opt)

    full_reply = mono.pull(known_version=known)   # its one shard moved: all of it
    delta_reply = sharded.pull(known_version=known)
    shard = sharded.shard_of(name)
    assert set(delta_reply.weights) == {n for n in weights if sharded.shard_of(n) == shard}
    assert delta_reply.wire_nbytes * 2 <= full_reply.wire_nbytes
    # The delta is the dirtied tensor's whole shard (here two of the ten
    # equal tensors: layer0 and layer8 share it).
    assert delta_reply.wire_nbytes == sharded.shard_nbytes[shard]
