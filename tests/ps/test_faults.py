"""Tests for the one fault plan and fault injection (repro.ps.faults).

Covers the one parser of both entry lists (``faults`` and ``net_faults``)
as one rejection table plus the plan it builds, the per-spec corruption
and slow-phase windows, the corruption math of every mode, the injector's
pooled scratch and event log, and the satellite determinism guarantee:
two runs of the same chaos plan produce identical fault event logs.
"""

import numpy as np
import pytest

from repro.api import ClusterConfig, ExperimentSpec, run_experiment
from repro.ps.faults import (
    CORRUPTION_MODES,
    FAULT_KINDS,
    NET_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
)
from repro.utils.rng import RngStream

WORKERS = ["worker-0", "worker-1", "worker-2"]


# ----------------------------------------------------------------------
# The one parser
# ----------------------------------------------------------------------
def _crash(worker=0, **fields):
    return {"worker": worker, "kind": "crash", **fields}


#: Every malformed ``faults`` / ``net_faults`` input, one row each:
#: (faults, net_faults, the complaint).
REJECTED = {
    # worker faults
    "index_out_of_range": ([_crash(9)], (), "out of range"),
    "unknown_worker_id": ([_crash("worker-9")], (), "not in the cluster"),
    "unknown_kind_lists_available": (
        [{"worker": 0, "kind": "meteor"}], (), "crash, byzantine"
    ),
    "unknown_kind": ([{"worker": 0, "kind": "?"}], (), "fault kind"),
    "key_foreign_to_the_kind": ([_crash(mode="sign_flip")], (), "does not accept"),
    "two_faults_for_one_worker": (
        [_crash(), {"worker": "worker-0", "kind": "flaky"}], (), "more than one fault"
    ),
    "byzantine_without_mode": (
        [{"worker": 0, "kind": "byzantine"}], (), "corruption mode"
    ),
    "unknown_corruption_mode": (
        [{"worker": 0, "kind": "corrupt", "mode": "gamma_ray"}], (), "corruption mode"
    ),
    "until_clock_not_after_after_clock": (
        [{"worker": 0, "kind": "corrupt", "mode": "noise", "after_clock": 5,
          "until_clock": 5}],
        (),
        "until_clock",
    ),
    "negative_after_clock": ([_crash(after_clock=-1)], (), "after_clock"),
    "zero_scale": (
        [{"worker": 0, "kind": "byzantine", "mode": "noise", "scale": 0}], (), "scale"
    ),
    "zero_rejoin_after": ([_crash(rejoin_after=0)], (), "rejoin_after"),
    "negative_delay": ([{"worker": 0, "kind": "flaky", "delay": -0.1}], (), "delay"),
    "faults_not_a_list": ({"worker": 0, "kind": "crash"}, (), "list"),
    "fault_not_a_mapping": (["crash"], (), "mapping"),
    "fault_without_worker": ([{"kind": "crash"}], (), "'worker' and 'kind'"),
    # network faults
    "unknown_net_kind_lists_registry": (
        (), [{"spec": "meteor:1"}], ", ".join(NET_FAULT_KINDS)
    ),
    **{
        f"malformed_{bad}": ((), [{"spec": bad}], "expected")
        for bad in (
            "delay:0", "delay:-1", "delay:abc", "drop:0", "drop:1.5", "drop:0.5,-1",
            "drop:0.5,1,2", "partition:-1,1", "partition:2,0", "partition:2",
            "throttle:0", "throttle:-5",
        )
    },
    "net_fault_not_a_mapping": ((), ["delay:5"], "mapping"),
    "net_fault_without_spec": ((), [{"worker": 0}], "missing 'spec'"),
    "net_fault_unknown_key": (
        (), [{"spec": "delay:5", "kind": "delay"}], "unknown net fault keys"
    ),
    "net_faults_not_a_list": ((), {"spec": "delay:5"}, "list of mappings"),
    "net_fault_index_out_of_range": ((), [{"spec": "delay:5", "worker": 9}], "out of range"),
    "net_fault_worker_not_in_roster": (
        (), [{"spec": "delay:5", "worker": "worker-9"}], "not in the roster"
    ),
    "net_fault_worker_a_bool": ((), [{"spec": "delay:5", "worker": True}], "index or id"),
    "two_net_faults_of_a_kind_for_one_target": (
        (), [{"spec": "delay:5"}, {"spec": "delay:10"}], "duplicate net fault kind"
    ),
}


@pytest.mark.parametrize("faults,net_faults,complaint", REJECTED.values(), ids=REJECTED.keys())
def test_the_one_parser_rejects(faults, net_faults, complaint):
    with pytest.raises(ValueError, match=complaint):
        parse_fault_plan(faults, net_faults, WORKERS)


class TestParsedPlan:
    def test_index_and_id_both_resolve(self):
        plan = parse_fault_plan(
            [
                {"worker": 1, "kind": "crash", "after_clock": 3},
                {"worker": "worker-2", "kind": "byzantine", "mode": "sign_flip"},
            ],
            [{"spec": "delay:5", "worker": 2}],
            WORKERS,
        )
        assert plan.for_worker("worker-1").kind == "crash"
        assert plan.for_worker("worker-2").mode == "sign_flip"
        assert plan.for_worker("worker-0") is None
        assert plan.net_faults[0].worker == "worker-2"

    def test_empty_lists_give_the_empty_plan(self):
        assert parse_fault_plan([], (), WORKERS) == FaultPlan()

    def test_every_net_kind_parses(self):
        plan = parse_fault_plan(
            (),
            [
                {"spec": "delay:5"},
                {"spec": "drop:0.25,3", "worker": 1},
                {"spec": "partition:2,1", "worker": "worker-2"},
                {"spec": "throttle:1000000", "worker": 0},
            ],
            WORKERS,
        )
        assert plan.net_kinds() == ("delay", "drop", "partition", "throttle")
        by_kind = {fault.kind: fault for fault in plan.net_faults}
        assert by_kind["delay"].worker is None
        assert by_kind["delay"].delay_ms == 5.0
        assert by_kind["drop"].worker == "worker-1"
        assert by_kind["drop"].probability == 0.25
        assert by_kind["drop"].times == 3
        assert by_kind["partition"].start == 2.0
        assert by_kind["partition"].duration == 1.0
        assert by_kind["throttle"].bytes_per_second == 1e6

    def test_drop_defaults(self):
        (drop,) = parse_fault_plan((), [{"spec": "drop"}], WORKERS).net_faults
        assert drop.probability == 1.0
        assert drop.times == 1

    def test_net_for_includes_untargeted_faults(self):
        plan = parse_fault_plan(
            (), [{"spec": "delay:5"}, {"spec": "drop", "worker": 1}], WORKERS
        )
        assert {f.kind for f in plan.net_for("worker-1")} == {"delay", "drop"}
        assert {f.kind for f in plan.net_for("worker-0")} == {"delay"}
        assert plan.tears_connections("worker-1")
        assert not plan.tears_connections("worker-0")

    def test_a_training_plan_carries_its_parsed_plan(self):
        from repro.ps.plan import TrainingPlan

        faults = ({"worker": 0, "kind": "crash", "after_clock": 2},)
        plan = TrainingPlan(num_workers=3, faults=faults)
        assert plan.fault_plan == parse_fault_plan(faults, (), WORKERS)


class TestSpecWindows:
    def test_byzantine_corrupts_from_after_clock_forever(self):
        spec = FaultSpec(worker="w", kind="byzantine", mode="sign_flip", after_clock=3)
        assert [spec.corrupts(clock) for clock in range(6)] == [
            False, False, False, True, True, True,
        ]

    def test_corrupt_stops_at_until_clock(self):
        spec = FaultSpec(
            worker="w", kind="corrupt", mode="noise", after_clock=2, until_clock=4
        )
        assert [spec.corrupts(clock) for clock in range(6)] == [
            False, False, True, True, False, False,
        ]

    def test_crash_and_flaky_never_corrupt(self):
        assert not FaultSpec(worker="w", kind="crash").corrupts(0)
        assert not FaultSpec(worker="w", kind="flaky").corrupts(0)

    def test_flaky_alternates_period_slow_period_normal(self):
        spec = FaultSpec(worker="w", kind="flaky", after_clock=2, period=2)
        assert [spec.slow(clock) for clock in range(8)] == [
            False, False, True, True, False, False, True, True,
        ]

    def test_only_flaky_is_slow(self):
        assert not FaultSpec(worker="w", kind="crash").slow(5)

    def test_plan_lookup_helpers(self):
        plan = parse_fault_plan(
            [
                {"worker": 0, "kind": "crash", "after_clock": 7, "rejoin_after": 3},
                {"worker": 1, "kind": "crash", "after_clock": 2},
                {"worker": 2, "kind": "flaky"},
            ],
            (),
            WORKERS,
        )
        assert plan.for_worker("worker-0").after_clock == 7
        assert plan.for_worker("worker-0").rejoin_after == 3
        assert plan.for_worker("worker-1").rejoin_after is None
        assert plan.for_worker("worker-2").slow(0)


# ----------------------------------------------------------------------
# Corruption math and the injector
# ----------------------------------------------------------------------
def _injector(entries, seed=0):
    return FaultInjector(parse_fault_plan(entries, (), WORKERS), RngStream(seed))


class TestCorruption:
    def test_sign_flip_negates_and_scales(self):
        injector = _injector(
            [{"worker": 0, "kind": "byzantine", "mode": "sign_flip", "scale": 2.0}]
        )
        grad = np.arange(8.0)
        out = injector.corrupt_push("worker-0", {0: grad})
        np.testing.assert_array_equal(out[0], -2.0 * grad)
        np.testing.assert_array_equal(grad, np.arange(8.0))  # input untouched

    def test_noise_perturbs_at_the_gradient_scale(self):
        injector = _injector(
            [{"worker": 0, "kind": "byzantine", "mode": "noise", "scale": 1.0}]
        )
        grad = np.ones(1000)
        out = injector.corrupt_push("worker-0", {0: grad})[0]
        assert not np.array_equal(out, grad)
        # Noise is scaled by the gradient RMS (1.0 here): the perturbation
        # is order-1, not order-1e6.
        assert 0.5 < np.std(out - grad) < 2.0

    def test_bit_flip_touches_few_elements(self):
        injector = _injector(
            [{"worker": 0, "kind": "byzantine", "mode": "bit_flip"}]
        )
        grad = np.ones(200)
        out = injector.corrupt_push("worker-0", {0: grad})[0]
        changed = np.count_nonzero(out != grad)
        assert 1 <= changed <= 2  # ~1% of 200

    def test_nothing_before_after_clock_and_pooled_scratch_after(self):
        injector = _injector(
            [{"worker": 0, "kind": "byzantine", "mode": "sign_flip", "after_clock": 2}]
        )
        grad = np.ones(16)
        assert injector.corrupt_push("worker-0", {0: grad}) is None
        assert injector.corrupt_push("worker-0", {0: grad}) is None
        first = injector.corrupt_push("worker-0", {0: grad})
        second = injector.corrupt_push("worker-0", {0: grad})
        assert first is not None
        assert first[0] is second[0]  # pooled scratch, reused across pushes

    def test_unfaulted_workers_pass_through(self):
        injector = _injector(
            [{"worker": 0, "kind": "byzantine", "mode": "sign_flip"}]
        )
        assert injector.corrupt_push("worker-1", {0: np.ones(4)}) is None
        assert injector.events == []

    def test_events_record_clock_and_mode(self):
        injector = _injector(
            [{"worker": 0, "kind": "corrupt", "mode": "noise", "until_clock": 1}]
        )
        injector.corrupt_push("worker-0", {0: np.ones(4)})
        injector.corrupt_push("worker-0", {0: np.ones(4)})  # past the window
        assert injector.events == [
            {
                "kind": "corrupted_push",
                "worker": "worker-0",
                "clock": 0,
                "mode": "noise",
                "fault": "corrupt",
            }
        ]

    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_same_seed_same_corruption(self, mode):
        grad = np.random.default_rng(3).normal(size=64)
        outs = []
        for _ in range(2):
            injector = _injector(
                [{"worker": 0, "kind": "byzantine", "mode": mode}], seed=11
            )
            outs.append(injector.corrupt_push("worker-0", {0: grad.copy()})[0].copy())
        np.testing.assert_array_equal(outs[0], outs[1])


# ----------------------------------------------------------------------
# End-to-end determinism: identical fault event logs across runs
# ----------------------------------------------------------------------
CHAOS_SPEC = ExperimentSpec(
    name="chaos-determinism",
    workload="mlp",
    scale="tiny",
    cluster=ClusterConfig(num_workers=3),
    paradigm="ssp",
    paradigm_kwargs={"staleness": 2},
    aggregation="trimmed_mean:1",
    faults=(
        {"worker": 0, "kind": "byzantine", "mode": "noise", "after_clock": 1},
        {"worker": 2, "kind": "crash", "after_clock": 4},
    ),
    seed=13,
)


class TestDeterminism:
    def test_two_simulated_runs_identical_event_logs(self):
        first = run_experiment(CHAOS_SPEC, "simulated")
        second = run_experiment(CHAOS_SPEC, "simulated")
        assert first.events == second.events
        assert any(event["kind"] == "crash" for event in first.events)
        assert any(event["kind"] == "corrupted_push" for event in first.events)
        np.testing.assert_array_equal(first.accuracies, second.accuracies)

    def test_events_survive_result_serialization(self):
        result = run_experiment(CHAOS_SPEC, "simulated")
        data = result.to_dict()
        assert data["events"] == result.events
        import json

        json.dumps(data["events"])  # JSON-safe

    def test_kinds_constant_is_exhaustive(self):
        assert FAULT_KINDS == ("crash", "byzantine", "corrupt", "flaky")

    def test_flaky_worker_costs_virtual_time_in_the_simulator(self):
        clean = run_experiment(CHAOS_SPEC.replace(faults=()), "simulated")
        flaky = run_experiment(
            CHAOS_SPEC.replace(
                faults=({"worker": 0, "kind": "flaky", "scale": 8.0, "period": 2},)
            ),
            "simulated",
        )
        assert flaky.events == []  # slowness is not a logged fault event
        assert flaky.total_time > clean.total_time
