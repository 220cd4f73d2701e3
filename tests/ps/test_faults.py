"""Tests for fault injection (repro.ps.faults).

Covers fault-plan parsing and validation, the per-spec corruption and
slow-phase windows, the corruption math of every mode, the injector's
pooled scratch and event log, and the satellite determinism guarantee:
two runs of the same chaos plan produce identical fault event logs.
"""

import numpy as np
import pytest

from repro.api import ClusterConfig, ExperimentSpec, run_experiment
from repro.ps.faults import (
    CORRUPTION_MODES,
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    parse_fault_specs,
    validate_fault_specs,
)
from repro.utils.rng import RngStream

WORKERS = ["worker-0", "worker-1", "worker-2"]


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------
class TestParsing:
    def test_index_and_id_both_resolve(self):
        plan = parse_fault_specs(
            [
                {"worker": 1, "kind": "crash", "after_clock": 3},
                {"worker": "worker-2", "kind": "byzantine", "mode": "sign_flip"},
            ],
            WORKERS,
        )
        assert plan.for_worker("worker-1").kind == "crash"
        assert plan.for_worker("worker-2").mode == "sign_flip"
        assert plan.for_worker("worker-0") is None

    def test_empty_plan_is_falsy(self):
        plan = parse_fault_specs([], WORKERS)
        assert not plan and len(plan) == 0

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_fault_specs([{"worker": 9, "kind": "crash"}], WORKERS)

    def test_unknown_worker_id_rejected(self):
        with pytest.raises(ValueError, match="not in the cluster"):
            parse_fault_specs([{"worker": "worker-9", "kind": "crash"}], WORKERS)

    def test_unknown_kind_lists_available(self):
        with pytest.raises(ValueError, match="crash, byzantine"):
            parse_fault_specs([{"worker": 0, "kind": "meteor"}], WORKERS)

    def test_keys_foreign_to_the_kind_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            parse_fault_specs(
                [{"worker": 0, "kind": "crash", "mode": "sign_flip"}], WORKERS
            )

    def test_one_fault_per_worker(self):
        with pytest.raises(ValueError, match="more than one fault"):
            parse_fault_specs(
                [
                    {"worker": 0, "kind": "crash"},
                    {"worker": "worker-0", "kind": "flaky"},
                ],
                WORKERS,
            )

    def test_corruption_requires_a_mode(self):
        with pytest.raises(ValueError, match="corruption mode"):
            parse_fault_specs([{"worker": 0, "kind": "byzantine"}], WORKERS)
        with pytest.raises(ValueError, match="corruption mode"):
            parse_fault_specs(
                [{"worker": 0, "kind": "corrupt", "mode": "gamma_ray"}], WORKERS
            )

    def test_until_clock_must_follow_after_clock(self):
        with pytest.raises(ValueError, match="until_clock"):
            parse_fault_specs(
                [
                    {
                        "worker": 0,
                        "kind": "corrupt",
                        "mode": "noise",
                        "after_clock": 5,
                        "until_clock": 5,
                    }
                ],
                WORKERS,
            )

    def test_numeric_bounds(self):
        with pytest.raises(ValueError, match="after_clock"):
            parse_fault_specs([{"worker": 0, "kind": "crash", "after_clock": -1}], WORKERS)
        with pytest.raises(ValueError, match="scale"):
            parse_fault_specs(
                [{"worker": 0, "kind": "byzantine", "mode": "noise", "scale": 0}],
                WORKERS,
            )
        with pytest.raises(ValueError, match="rejoin_after"):
            parse_fault_specs(
                [{"worker": 0, "kind": "crash", "rejoin_after": 0}], WORKERS
            )
        with pytest.raises(ValueError, match="delay"):
            parse_fault_specs(
                [{"worker": 0, "kind": "flaky", "delay": -0.1}], WORKERS
            )

    def test_faults_must_be_a_list_of_mappings(self):
        with pytest.raises(ValueError, match="list"):
            parse_fault_specs({"worker": 0, "kind": "crash"}, WORKERS)
        with pytest.raises(ValueError, match="mapping"):
            parse_fault_specs(["crash"], WORKERS)
        with pytest.raises(ValueError, match="'worker' and 'kind'"):
            parse_fault_specs([{"kind": "crash"}], WORKERS)

    def test_to_dicts_round_trips_through_parse(self):
        entries = [
            {"worker": 0, "kind": "crash", "after_clock": 4, "rejoin_after": 2},
            {"worker": 1, "kind": "corrupt", "mode": "noise", "scale": 2.0,
             "after_clock": 1, "until_clock": 9},
            {"worker": 2, "kind": "flaky", "scale": 3.0, "period": 2},
        ]
        plan = parse_fault_specs(entries, WORKERS)
        again = parse_fault_specs(plan.to_dicts(), WORKERS)
        assert again.specs == plan.specs

    def test_validate_is_the_raising_form(self):
        validate_fault_specs([{"worker": 0, "kind": "crash"}], WORKERS)
        with pytest.raises(ValueError):
            validate_fault_specs([{"worker": 0, "kind": "?"}], WORKERS)


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
        plan = parse_fault_specs(
            [
                {"worker": 0, "kind": "crash", "after_clock": 7, "rejoin_after": 3},
                {"worker": 1, "kind": "crash", "after_clock": 2},
                {"worker": 2, "kind": "flaky"},
            ],
            WORKERS,
        )
        assert plan.crash_at() == {"worker-0": 7, "worker-1": 2}
        assert plan.rejoin_after() == {"worker-0": 3}
        assert plan.flaky_for("worker-2").kind == "flaky"
        assert plan.flaky_for("worker-0") is None


# ----------------------------------------------------------------------
# Corruption math and the injector
# ----------------------------------------------------------------------
def _injector(entries, seed=0):
    plan = parse_fault_specs(entries, WORKERS)
    return FaultInjector(plan, RngStream(seed))


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
