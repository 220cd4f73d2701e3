"""Tests for the one name registry (repro.utils.registry) and its tables."""

import pytest

from repro.api.backends import BACKENDS, get_backend
from repro.api.cli import REGISTRIES, _build_parser, main
from repro.api.spec import NAMED_SCALES, NETWORKS, ClusterConfig, ExperimentSpec
from repro.core.dssp import DynamicStaleSynchronousParallel
from repro.core.factory import POLICIES, make_policy, validate_paradigm
from repro.experiments.config import TINY
from repro.experiments.workloads import WORKLOADS, build_workload
from repro.models.registry import MODELS, build_model
from repro.ps.aggregation import AGGREGATORS, make_aggregator
from repro.ps.compression import CODECS, TopKCodec, make_codec
from repro.ps.faults import FAULT_KIND_KEYS, NET_FAULT_EXAMPLES, parse_fault_plan, resolve_worker
from repro.simulation.profiles import GPU_CATALOGUE, get_device_profile
from repro.simulation.topology import (
    COMM_PATTERNS,
    JITTERS,
    TOPOLOGY_PRESETS,
    canonical_topology_spec,
    make_jitter,
    validate_comm_pattern,
)
from repro.utils.registry import Registry, UnknownName

WORKERS = ["worker-0", "worker-1"]


class Knob:
    name = "knob"
    positional = "turns"

    def __init__(self, turns=1.0, detent=0.0):
        self.turns, self.detent = turns, detent


class Lever:
    name = "lever"
    positional = None


@pytest.fixture()
def widgets():
    registry = Registry("widget", field="gadget")
    registry.add(Knob)
    registry.add(Lever)
    return registry


class TestGrammar:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("knob", ("knob", {})),
            ("knob:3", ("knob", {"turns": 3.0})),
            ("knob:turns=2,detent=0.5", ("knob", {"turns": 2.0, "detent": 0.5})),
            ("knob:4,detent=1", ("knob", {"turns": 4.0, "detent": 1.0})),
            ("knob:2,", ("knob", {"turns": 2.0})),
            ("  KNOB :2", ("knob", {"turns": 2.0})),
            ("lever", ("lever", {})),
        ],
    )
    def test_parses(self, widgets, spec, expected):
        assert widgets.parse(spec) == expected

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("", "gadget spec must be a non-empty string; available widgets: knob, lever"),
            ("   ", "non-empty"),
            (None, "non-empty"),
            ("lever:1", "widget 'lever' takes no positional parameter"),
            ("knob:turns=lots", "not a number"),
            ("knob:1,turns=2", "duplicate widget parameter 'turns'"),
            ("gizmo:1", "unknown widget 'gizmo'; available widgets: knob, lever"),
        ],
    )
    def test_rejects(self, widgets, spec, message):
        with pytest.raises(ValueError, match=message):
            widgets.parse(spec)

    def test_build_turns_an_unknown_parameter_into_a_bad_value(self, widgets):
        assert widgets.build("knob:3").turns == 3.0
        with pytest.raises(ValueError, match=r"invalid parameters \['wobble'\]"):
            widgets.build("knob:wobble=1")
        with pytest.raises(TypeError, match="accepted: turns, detent"):
            widgets.make("knob", wobble=1)


class TestRegistration:
    def test_duplicates_are_rejected_after_normalisation(self, widgets):
        with pytest.raises(ValueError, match="duplicate widget 'knob': already registered"):
            widgets.register(" KNOB ", object())

    def test_lookup_normalises_case_and_whitespace(self, widgets):
        assert widgets["  KNOB "] is Knob
        assert widgets.key(" Lever") == "lever"
        assert "KNOB" in widgets and "gizmo" not in widgets
        assert list(widgets) == ["knob", "lever"] and len(widgets) == 2

    def test_non_string_names_are_unknown(self, widgets):
        for name in (None, 3, ("knob",)):
            with pytest.raises(UnknownName):
                widgets.key(name)

    def test_decorator_form_returns_the_target_and_keeps_a_description(self, widgets):
        @widgets.register("dial", description="turns and clicks")
        def dial(clicks, *, snap=True):
            return clicks

        assert widgets["dial"] is dial
        assert widgets.descriptions["dial"] == "turns and clicks"
        assert widgets.parameters("dial") == ("clicks", "snap=True")
        assert widgets.parameters("lever") == ()


@pytest.mark.parametrize(
    "make, kwargs, error",
    [
        ("ssp", {}, ValueError),
        ("dssp", {"s_lower": 3}, ValueError),
        ("bsp", {"staleness": 3}, TypeError),
        ("ssp", {"staleness": 3, "bogus": 1}, TypeError),
    ],
)
def test_policy_parameters_come_from_the_builder_signature(make, kwargs, error):
    with pytest.raises(error):
        make_policy(make, **kwargs)
    with pytest.raises(error):
        validate_paradigm(make, kwargs)


def test_parameters_listed_per_registry():
    assert POLICIES.parameters("dssp") == ("s_lower", "s_upper", "enforce_upper_bound=False")
    assert POLICIES.parameters("bsp") == ()
    assert CODECS.parameters("topk") == ("density=0.01",)
    assert WORKLOADS.parameters("alexnet") == ("seed=0",)  # ``scale`` is given
    assert "hidden_dims=(64,)" in MODELS.parameters("mlp")  # the spec's default
    assert BACKENDS.parameters("process") == ()  # a name alone selects a backend


def test_every_public_front_normalises_names():
    assert isinstance(make_policy("  DSSP ", s_lower=1, s_upper=2), DynamicStaleSynchronousParallel)
    assert isinstance(make_codec("TopK:0.02"), TopKCodec)
    assert make_aggregator("Trimmed_Mean:1").k == 1
    assert get_backend("TCP").name == "tcp"
    assert validate_comm_pattern("RING_ALLREDUCE") == "ring_allreduce"
    assert canonical_topology_spec("Two-Rack")["name"] == "two-rack"
    assert make_jitter("LogNormal:0.2").sigma == 0.2
    assert get_device_profile("P100") is GPU_CATALOGUE["p100"]
    assert ExperimentSpec(scale="TINY").resolved_scale() is NAMED_SCALES["tiny"]
    assert build_model("MLP").forward is not None
    plan = parse_fault_plan([{"worker": 0, "kind": "Crash"}], [{"spec": "DELAY:5"}], WORKERS)
    assert plan.for_worker("worker-0").kind == "crash"
    assert plan.net_kinds() == ("delay",)


#: Each registry through its public make_*/build_*/get_*/validate_* front.
FRONTS = {
    "backend": get_backend,
    "paradigm": make_policy,
    "workload": lambda name: build_workload(name, TINY),
    "model": build_model,
    "scale": lambda name: ExperimentSpec(scale=name),
    "device": get_device_profile,
    "network": lambda name: ClusterConfig(network=name).build(),
    "topology preset": canonical_topology_spec,
    "jitter": lambda name: make_jitter(f"{name}:0.1"),
    "comm_pattern": validate_comm_pattern,
    "codec": make_codec,
    "aggregator": make_aggregator,
    "fault kind": lambda name: parse_fault_plan([{"worker": 0, "kind": name}], (), WORKERS),
    "net fault kind": lambda name: parse_fault_plan((), [{"spec": f"{name}:1"}], WORKERS),
}


def test_the_fronts_cover_every_registry():
    assert [registry.noun for registry in REGISTRIES] == list(FRONTS)


@pytest.mark.parametrize("registry", REGISTRIES, ids=lambda registry: registry.noun)
def test_a_bogus_name_is_one_error_naming_every_entry(registry):
    with pytest.raises(UnknownName) as caught:
        FRONTS[registry.noun]("bogus")
    error = caught.value
    assert isinstance(error, KeyError) and isinstance(error, ValueError)
    assert str(error) == (
        f"unknown {registry.noun} 'bogus'; available {registry.plural}: "
        + ", ".join(registry)
    )


def test_worker_references_resolve_against_one_roster():
    assert resolve_worker(1, WORKERS) == "worker-1"
    assert resolve_worker("worker-0", WORKERS, "net fault") == "worker-0"
    with pytest.raises(ValueError, match=r"net fault worker 'w9' is not in the cluster \(not in the roster"):
        resolve_worker("w9", WORKERS, "net fault")
    with pytest.raises(ValueError, match=r"fault worker index 2 out of range \[0, 2\)"):
        resolve_worker(2, WORKERS)
    with pytest.raises(ValueError, match="index or id"):
        resolve_worker(True, WORKERS)


class TestCli:
    def test_registry_lists_names_with_parameters(self, capsys):
        assert main(["registry"]) == 0
        printed = capsys.readouterr().out
        for expected in ("density", "staleness", "enforce_upper_bound=False", "hidden_dims"):
            assert expected in printed
        assert printed.startswith("backends:\n  simulated\n")
        assert "\nfault kinds: crash, byzantine, corrupt, flaky\n" in printed

    def test_flags_resolve_through_the_registry(self):
        arguments = _build_parser().parse_args(
            ["run", "spec.json", "--backend", "TCP", "--comm-pattern", "PS"]
        )
        assert (arguments.backend, arguments.comm_pattern) == ("tcp", "ps")

    def test_a_bad_flag_value_names_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["run", "spec.json", "--backend", "carrier"])
        assert "unknown backend 'carrier'; available backends: simulated, process, tcp" in (
            capsys.readouterr().err
        )
