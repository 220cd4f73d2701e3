"""Command-line front end: ``python -m repro``.

Subcommands:

* ``run SPEC.json [--backend simulated|process|tcp]
  [--output OUT.json]`` — execute one experiment spec and print its summary
  (optionally an ASCII accuracy curve and a JSON result file).  With
  ``--backend tcp`` the run self-hosts a socket parameter server over
  localhost; add ``--address host:port`` to connect the workers to an
  already-running ``serve`` server instead.
* ``serve SPEC.json [--bind host:port] [--checkpoint CKPT.npz]
  [--supervise]`` — run a standalone TCP parameter server for the spec and
  wait for workers.  ``--supervise`` adds a watchdog that relaunches the
  server from its latest checkpoint when it dies hard (``kill -9``, OOM).
* ``show RUN.json`` — print the summary of a saved run record (the
  ``--output`` of ``run`` or ``serve``), as ``run`` printed it.
* ``validate SPEC.json`` — parse and validate a spec without running it.
* ``registry`` — list every name a spec or flag may use (backends,
  paradigms, workloads, models, scales, devices, networks,
  topology presets, jitters, comm patterns, codecs, aggregators, fault and
  net-fault kinds), each builder with its parameters.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

from repro.api.backends import (
    BACKENDS,
    TcpBackend,
    get_backend,
    make_provenance,
    run_experiment,
    tcp_plan_from_spec,
)
from repro.api.spec import NAMED_SCALES, NETWORKS, ExperimentSpec
from repro.core.factory import POLICIES
from repro.experiments.workloads import WORKLOADS
from repro.metrics.plotting import ascii_curves
from repro.models.registry import MODELS
from repro.ps.aggregation import AGGREGATORS
from repro.ps.compression import CODECS
from repro.ps.faults import FAULT_KIND_KEYS, NET_FAULT_EXAMPLES
from repro.ps.result import RunResult
from repro.simulation.profiles import GPU_CATALOGUE
from repro.simulation.topology import COMM_PATTERNS, JITTERS, TOPOLOGY_PRESETS
from repro.utils.registry import UnknownName

__all__ = ["main", "summarize", "REGISTRIES"]

#: Every registry, in the order ``registry`` lists them.
REGISTRIES = (
    BACKENDS, POLICIES, WORKLOADS, MODELS, NAMED_SCALES, GPU_CATALOGUE,
    NETWORKS, TOPOLOGY_PRESETS, JITTERS, COMM_PATTERNS, CODECS, AGGREGATORS,
    FAULT_KIND_KEYS, NET_FAULT_EXAMPLES,
)


def _registered(registry):
    """An argparse ``type=`` resolving a flag's value through ``registry``."""

    def resolve(text: str) -> str:
        try:
            return registry.key(text)
        except UnknownName as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return resolve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified experiment runner for the DSSP reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one experiment spec")
    run.add_argument("spec", type=Path, help="path to an ExperimentSpec JSON file")
    run.add_argument(
        "--backend",
        default="simulated",
        type=_registered(BACKENDS),
        help=f"execution backend: {', '.join(BACKENDS)} (default: simulated)",
    )
    run.add_argument(
        "--output", type=Path, default=None, help="write the full RunResult JSON here"
    )
    run.add_argument(
        "--curve", action="store_true", help="render the accuracy curve as ASCII"
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="time each layer's forward/backward on one worker and print the "
        "breakdown (also recorded in the result JSON)",
    )
    run.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    run.add_argument(
        "--compression",
        default=None,
        help="override the spec's gradient push codec, e.g. topk:0.01, fp16, "
        "int8, significance:2.0 or none (see 'registry' for the codec list)",
    )
    run.add_argument(
        "--address",
        default=None,
        metavar="HOST:PORT",
        help="tcp backend only: connect workers to an already-running "
        "'serve' server instead of self-hosting one over localhost",
    )
    run.add_argument(
        "--net-faults",
        action="append",
        default=None,
        metavar="[WORKER=]SPEC",
        help="inject a deterministic network fault (tcp backend only): SPEC is "
        "delay:MS, drop[:P[,N]], partition:START,DURATION or "
        "throttle:BYTES_PER_S, optionally prefixed with a worker index "
        "or id (e.g. --net-faults 'worker-1=drop:0.5'); repeatable",
    )
    run.add_argument(
        "--topology",
        default=None,
        help="simulated backend only: override the cluster's network "
        "topology preset (flat, two-rack, tail-heavy; see 'registry')",
    )
    run.add_argument(
        "--comm-pattern",
        default=None,
        type=_registered(COMM_PATTERNS),
        help="simulated backend only: override the communication pattern "
        "(ps or ring_allreduce; ring requires paradigm bsp)",
    )

    serve = commands.add_parser(
        "serve", help="run a standalone TCP parameter server for a spec"
    )
    serve.add_argument(
        "spec", type=Path, help="path to an ExperimentSpec JSON file"
    )
    serve.add_argument(
        "--bind",
        default=None,
        metavar="HOST:PORT",
        help="address to bind (default: the spec cluster's address; "
        "port 0 asks the OS for an ephemeral port)",
    )
    serve.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="checkpoint file: written atomically during the run and at "
        "SIGTERM, restored at startup if it exists (graceful restart)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="also checkpoint every N applied pushes (0: only at "
        "completion and SIGTERM; requires --checkpoint)",
    )
    serve.add_argument(
        "--output", type=Path, default=None,
        help="write the RunResult JSON here on completion (the schema of run --output)",
    )
    serve.add_argument(
        "--supervise",
        action="store_true",
        help="watchdog mode: relaunch the server from the latest checkpoint "
        "when it dies hard (kill -9, OOM, segfault); workers reconnect "
        "and the run resumes — requires --checkpoint",
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        metavar="N",
        help="give up after the supervised server has died N times "
        "(default: 5; only meaningful with --supervise)",
    )
    serve.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    serve.add_argument(
        "--compression", default=None, help="override the spec's gradient push codec"
    )

    show = commands.add_parser("show", help="print the summary of a saved run record")
    show.add_argument("record", type=Path, help="a RunResult JSON file (run/serve --output)")

    validate = commands.add_parser("validate", help="validate a spec without running")
    validate.add_argument("spec", type=Path)

    commands.add_parser("registry", help="list registered components")
    return parser


def summarize(result: RunResult) -> str:
    """The run record as ``run``, ``serve`` and ``show`` print it."""
    spec = result.provenance.spec if result.provenance is not None else {}
    scale = spec.get("scale")
    lines = [
        f"spec      : {spec.get('name', '?')}",
        f"backend   : {result.backend}",
        f"paradigm  : {result.paradigm_label}",
        f"workload  : {spec.get('workload', '?')} @ scale "
        f"{scale if isinstance(scale, str) else 'inline'}",
    ]
    if result.provenance is not None:
        lines.append(
            f"revision  : {result.provenance.git_revision} "
            f"(repro {result.provenance.repro_version})"
        )
    staleness, percentiles = result.staleness, result.iteration_time_percentiles
    lines += [
        "",
        f"total time        : {result.total_time:.2f} s",
        f"server updates    : {result.total_updates}",
        f"updates/second    : {result.throughput.updates_per_second:.2f}",
        f"final accuracy    : {result.final_accuracy:.3f}",
        f"best accuracy     : {result.best_accuracy:.3f}",
        f"total wait time   : {result.total_wait_time:.2f} s",
        f"mean staleness    : {staleness.mean:.2f} (max {staleness.maximum})",
    ]
    if percentiles.count:
        lines.append(
            f"iteration times   : p50 {percentiles.p50:.4f} s, "
            f"p90 {percentiles.p90:.4f} s, p99 {percentiles.p99:.4f} s "
            f"({percentiles.count} intervals)"
        )
    if spec.get("compression") is not None:
        transfers = result.transfers
        lines.append(
            f"compression       : {spec['compression']} "
            f"({transfers.pushed_wire_bytes} push bytes on the wire, "
            f"{transfers.compression_ratio:.1f}x vs dense)"
        )
    if spec.get("aggregation") is not None:
        windows = result.server_statistics.get("aggregation", {}).get("windows_applied")
        detail = f" ({windows} buffered windows)" if windows is not None else ""
        lines.append(f"aggregation       : {spec['aggregation']}{detail}")
    if result.events:
        lines.append(f"fault events      : {len(result.events)}")
        for event in result.events[:20]:
            fields = " ".join(
                f"{key}={value}" for key, value in event.items() if key not in ("kind", "worker")
            )
            lines.append(
                f"  {event.get('kind', '?'):<20} {event.get('worker', '?'):<12} {fields}"
            )
        if len(result.events) > 20:
            lines.append(f"  ... and {len(result.events) - 20} more")
    if result.errors:
        lines.append(f"errors            : {result.errors}")
    lines += ["", f"{'worker':<10} {'iterations':>10} {'samples':>9} {'wait (s)':>9} {'mean loss':>10}"]
    lines += [
        f"{report.worker_id:<10} {report.iterations:>10d} "
        f"{report.samples_processed:>9d} {report.total_wait_time:>9.2f} "
        f"{report.mean_loss:>10.3f}"
        for report in result.worker_reports
    ]
    if result.profile:
        from repro.utils.profiler import render_profile

        lines += [
            "",
            f"per-layer compute breakdown ({result.profile.get('worker_id', '?')}, "
            "slowest 12 layers):",
            render_profile(result.profile, top=12),
        ]
    return "\n".join(lines)


def _parse_net_fault_argument(text: str) -> dict:
    """Parse one ``--net-faults`` value: ``[WORKER=]SPEC``.

    The worker prefix is an index (``1=delay:5``) or id
    (``worker-1=delay:5``); without it the fault hits every worker.
    """
    worker, separator, spec = text.partition("=")
    if not separator:
        return {"spec": text}
    worker = worker.strip()
    return {
        "spec": spec,
        "worker": int(worker) if worker.lstrip("-").isdigit() else worker,
    }


def _command_run(arguments: argparse.Namespace) -> int:
    spec = ExperimentSpec.load(arguments.spec)
    if arguments.seed is not None:
        spec = spec.replace(seed=arguments.seed)
    if arguments.compression is not None:
        spec = spec.replace(compression=arguments.compression)
    if arguments.net_faults:
        spec = spec.replace(
            net_faults=tuple(
                _parse_net_fault_argument(value) for value in arguments.net_faults
            )
        )
    if arguments.topology is not None:
        spec = spec.replace(cluster=spec.cluster.replace(topology=arguments.topology))
    if arguments.comm_pattern is not None:
        spec = spec.replace(comm_pattern=arguments.comm_pattern)
    if arguments.address is not None:
        if arguments.backend != "tcp":
            raise ValueError(
                "--address connects workers to a running TCP server; "
                "it requires --backend tcp"
            )
        backend = TcpBackend(address=arguments.address)
    else:
        backend = get_backend(arguments.backend)
    result = run_experiment(spec, backend, profile=arguments.profile)
    print(summarize(result))

    if arguments.curve and result.times.size >= 2:
        print()
        print(ascii_curves({result.paradigm_label: result.curve()}))

    _write(result, arguments.output)
    return 1 if result.errors else 0


def _write(result: RunResult, output: Path | None) -> None:
    """Save the run record as strict JSON (``show`` reads it back)."""
    if output is None:
        return
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(result.to_dict(), indent=2, allow_nan=False) + "\n")
    print()
    print(f"result written to {output}")


def _command_serve(arguments: argparse.Namespace) -> int:
    """Run a standalone TCP parameter server until the run completes.

    The server prints its bound address once listening (parse the last
    token to discover an ephemeral port), serves joins/pushes/heartbeats
    until every expected worker has finished, and exits 0.  SIGTERM
    triggers a graceful restart: checkpoint (when ``--checkpoint`` is
    set), tell connected workers to reconnect with backoff, exit 0 — a
    relaunched ``serve`` on the same address resumes from the checkpoint.
    With ``--supervise`` the server runs under a watchdog instead: hard
    deaths (``kill -9``) relaunch it from the latest checkpoint on the
    same address, and SIGTERM to the supervisor shuts the pair down
    gracefully.
    """
    spec = ExperimentSpec.load(arguments.spec)
    if arguments.seed is not None:
        spec = spec.replace(seed=arguments.seed)
    if arguments.compression is not None:
        spec = spec.replace(compression=arguments.compression)
    if arguments.checkpoint_every and arguments.checkpoint is None:
        raise ValueError("--checkpoint-every requires --checkpoint")
    if arguments.supervise and arguments.checkpoint is None:
        raise ValueError("--supervise requires --checkpoint")
    from repro.ps.tcp_runtime import TcpServer, TcpSupervisor

    plan = tcp_plan_from_spec(
        spec,
        address=arguments.bind,
        checkpoint_path=(
            str(arguments.checkpoint) if arguments.checkpoint is not None else None
        ),
        checkpoint_every_pushes=arguments.checkpoint_every,
    )

    def ready(address: str) -> None:
        mode = "supervising" if arguments.supervise else "serving"
        print(
            f"{mode} {spec.name!r} ({spec.workload}, {spec.label}) on {address} "
            f"— expecting {plan.num_workers} worker(s)",
            flush=True,
        )
        if arguments.supervise:
            # Chaos harnesses kill -9 this pid to exercise the watchdog.
            print(f"server pid {supervisor.server_pid}", flush=True)

    if arguments.supervise:
        supervisor = TcpSupervisor(
            plan, max_restarts=arguments.max_restarts, ready_callback=ready
        )
        # SIGTERM to the supervisor forwards to the child (checkpoint,
        # notify workers) and exits without respawning; only the main
        # thread may install the handler.
        if threading.current_thread() is threading.main_thread():
            previous_handler = signal.signal(
                signal.SIGTERM, supervisor.request_shutdown
            )
            try:
                result = supervisor.run()
            finally:
                signal.signal(signal.SIGTERM, previous_handler)
        else:
            result = supervisor.run()
        if supervisor.restarts:
            print(f"server restarted {supervisor.restarts} time(s)")
    else:
        result = TcpServer(plan, ready_callback=ready).serve()
    if result is None:
        print("shutdown requested: state checkpointed, workers told to reconnect")
        return 0
    result = replace(result, backend="tcp", provenance=make_provenance(spec, "tcp"))
    print("run complete")
    print()
    print(summarize(result))
    _write(result, arguments.output)
    return 1 if result.errors else 0


def _command_show(arguments: argparse.Namespace) -> int:
    """Print the summary of a saved run record (``run``/``serve --output``)."""
    result = RunResult.from_dict(json.loads(arguments.record.read_text()))
    print(summarize(result))
    return 1 if result.errors else 0


def _command_validate(arguments: argparse.Namespace) -> int:
    spec = ExperimentSpec.load(arguments.spec)
    scale = spec.resolved_scale()
    spec.cluster.build()  # materializes device and network profiles
    # Spec construction cannot check the workload (backends accept injected
    # pre-built workloads under unregistered names), but a spec *file* must
    # name a registered one — the most likely typo this subcommand exists
    # to catch.
    WORKLOADS.key(spec.workload)
    print(f"{arguments.spec}: OK")
    print(f"  name={spec.name!r} workload={spec.workload!r} paradigm={spec.label!r}")
    print(f"  scale={scale.name!r} epochs={spec.resolved_epochs()} "
          f"batch_size={spec.resolved_batch_size()} "
          f"workers={len(spec.cluster.worker_ids)}")
    return 0


def _command_registry() -> int:
    """One line per table of values; one line per entry of a table of
    builders, with the entry's parameters and description."""
    for registry in REGISTRIES:
        if not any(map(callable, registry.values())):
            print(f"{registry.plural}: {', '.join(registry)}")
            continue
        print(f"{registry.plural}:")
        rows = [
            (name, ", ".join(registry.parameters(name)), registry.descriptions[name])
            for name in registry
        ]
        name_width, parameters_width = (max(len(row[i]) for row in rows) for i in (0, 1))
        for name, parameters, description in rows:
            print(
                f"  {name:<{name_width}}  {parameters:<{parameters_width}}  {description}"
                .rstrip()
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    try:
        if arguments.command == "run":
            return _command_run(arguments)
        if arguments.command == "serve":
            return _command_serve(arguments)
        if arguments.command == "show":
            return _command_show(arguments)
        if arguments.command == "validate":
            return _command_validate(arguments)
        return _command_registry()
    except (ValueError, KeyError, FileNotFoundError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
