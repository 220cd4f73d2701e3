#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer numbers on four named workloads.

One run of one workload (the form ``BENCHMARK.json``'s command takes)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` repeats the workload in fresh child processes for S seconds
with tracing off and reports the median of every end-to-end metric;
``--trace 1`` runs one repetition plus the traced layer loop and reports
every per-layer metric.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` it is the whole suite — all workloads round-robin,
one discarded warm-up round, ``--reps`` measured rounds, then the traced
pass — with the cross-workload checks and an ``--out`` result file, and
``--compare A.json B.json`` sets two such files side by side.  Metric
names, units and bounds are read from ``BENCHMARK.json``; the exit status
is non-zero when a correctness check fails.  ``perfbench/README.md`` has
the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_job  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in BENCH["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in BENCH["per_layer"]}
CHILD_TIMEOUT_S = 150.0
QUICK_SPANS, SPANS = 50, 1000


class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a failed check)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Measure the program, not the scheduler or the compiler.

    One BLAS thread per process (three processes x 64 OpenBLAS threads on
    two cores time the scheduler: ~10x slower, +-40 % spread), and a
    bytecode cache inside ``perfbench/out`` so a run leaves the source tree
    untouched and, once the warm-up has filled it, ``setup_s`` does not
    time the compiler.
    """
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


def run_child(job: dict) -> tuple[dict, float]:
    """Run one job in a fresh process; returns its output and wall seconds.

    The wall clock is the parent's, from process start to exit — what
    ``python -m repro run`` costs a user.
    """
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
        wall_s = time.perf_counter() - start
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['workload']}: child exceeded {CHILD_TIMEOUT_S:.0f} s")
    finally:
        # The runtimes join their own children; this reaps any that a
        # crashed or timed-out run left in the child's session.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
    if process.returncode != 0:
        raise BenchError(f"{job['workload']}: child exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), wall_s


def end_to_end_rep(name: str, seed: int, quick: bool, profile: bool = False) -> dict:
    """One untraced repetition through the front door, with derived numbers."""
    job = {**make_job(name, seed, quick), "mode": "e2e", "profile": profile}
    run, wall_s = run_child(job)
    updates = max(run["total_updates"], 1)
    run["wall_s"] = wall_s
    run["setup_s"] = wall_s - run["train_s"]
    run["updates_per_s"] = run["total_updates"] / run["train_s"]
    run["wire_bytes_per_update"] = (run["pushed_wire_bytes"] + run["pulled_bytes"]) / updates
    run["attempted"] = job["push_budget"]
    done = 0 if run["errors"] else min(sum(run["iterations"]), run["attempted"])
    run["failed"] = run["attempted"] - done
    run["failures"] = check_rep(name, job, run, quick)
    print(
        f"  rep {name}: {run['updates_per_s']:.1f} updates/s, train {run['train_s']:.3f} s, "
        f"wall {wall_s:.3f} s, accuracy {run['final_accuracy']:.4f}",
        flush=True,
    )
    return run


def check_rep(name: str, job: dict, run: dict, quick: bool) -> list[str]:
    """Correctness checks on one repetition's outputs."""
    failures = []
    budget, workers = job["push_budget"], job["workers"]
    if run["errors"]:
        failures.append(f"errors: {run['errors']}")
    if job["backend"] == "simulated":
        met = sum(run["iterations"]) == budget
    else:
        met = run["iterations"] == [budget // workers] * workers
    if not met:
        failures.append(f"iterations {run['iterations']} short of budget {budget}")
    if run["total_updates"] != budget:
        failures.append(f"total_updates {run['total_updates']} != {budget}")
    if run["final_loss"] is None:
        failures.append("final loss is not finite")
    floor = WORKLOADS[name]["min_accuracy"]
    if not quick and run["final_accuracy"] < floor:
        failures.append(f"final_accuracy {run['final_accuracy']:.4f} < {floor}")
    return [f"{name}: {failure}" for failure in failures]


def check_reps(name: str, reps: list[dict]) -> list[str]:
    """Per-repetition failures plus the simulator's bit-for-bit agreement."""
    failures = [failure for rep in reps for failure in rep["failures"]]
    if WORKLOADS[name]["backend"] == "simulated":
        for key in ("total_time", "accuracies", "wire_bytes_per_update"):
            if any(rep[key] != reps[0][key] for rep in reps):
                failures.append(f"{name}: repetitions disagree on {key}")
    return failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(reps: list[dict]) -> dict:
    """Median over the repetitions of every end-to-end metric."""
    return {name: statistics.median(rep[name] for rep in reps) for name in END_TO_END}


# p50 spans on one worker's blocking path: compute, encode, transport push,
# apply, policy, transport pull, load.  (The pipe probe is not on it: no
# workload's backend pushes through the pipe today.)
BLOCKING_PATH_MS = (
    "nn.step_ms_p50",
    "ps.compression.encode_ms_p50",
    "ps.transport.tcp_push_ms_p50",
    "ps.server.apply_ms_p50",
    "ps.transport.tcp_pull_ms_p50",
    "ps.worker.load_ms_p50",
)
BLOCKING_PATH_US = ("core.policy_us_p50", "ps.shm.pull_us_p50")


def layer_metrics(job: dict, run: dict, layers: dict) -> dict:
    """Every per-layer metric: timings from the layer loop, counts from ``run``.

    A layer the workload's backend does not execute reports 0.
    """
    backend, workers = job["backend"], job["workers"]
    updates = max(run["total_updates"], 1)
    metrics = {
        **dict.fromkeys(PER_LAYER, 0.0),
        **layers["metrics"],
        "ps.compression.ratio": run["pushed_raw_bytes"] / max(run["pushed_wire_bytes"], 1),
        "core.blocks_per_push": run["blocks"] / updates,
        "core.controller_invocations_per_push": run["controller_invocations"] / updates,
        "core.credit_releases_per_push": run["credit_releases"] / updates,
        "core.staleness_mean": run["staleness_mean"],
        "core.staleness_max": run["staleness_max"],
        "ps.transport.push_bytes_per_update": run["pushed_wire_bytes"] / updates,
        "ps.transport.pull_bytes_per_update": run["pulled_bytes"] / updates,
        "ps.transport.socket_bytes_per_update": run["socket_bytes"] / updates,
        "ps.shm.cow_fallbacks": run["cow_fallbacks"],
    }
    if backend == "simulated":
        profiled_s = run["profile_s"] * updates / max(run["profile_iterations"], 1)
        metrics.update(
            {
                "simulation.virtual_time_s": run["total_time"],
                "simulation.wait_share": run["sim_wait_s"] / (workers * run["total_time"]),
                "simulation.iter_s_p50": run["iter_s_p50"],
                "simulation.iter_s_p99": run["iter_s_p99"],
                "simulation.engine_share": 1.0 - profiled_s / run["train_s"],
            }
        )
        return metrics
    busy = workers * run["train_s"]
    compute, wait = run["compute_s"] / busy, run["wait_s"] / busy
    # The transport a backend does not use reported 0 and adds nothing.
    path = sum(metrics[key] for key in BLOCKING_PATH_MS)
    path += sum(metrics[key] for key in BLOCKING_PATH_US) / 1e3
    metrics.update(
        {
            "runtime.compute_share": compute,
            "runtime.wait_share": wait,
            "runtime.other_share": 1.0 - compute - wait,
            # By construction: blocking-path p50s + this = one worker's step.
            "runtime.unattributed_ms_per_step": workers * 1e3 / run["updates_per_s"] - path,
        }
    )
    return metrics


def traced_pass(name: str, seed: int, seconds: float, quick: bool, run=None) -> dict:
    """One repetition for the counts, then the traced layer loop for the timings.

    The simulator's repetition runs with the layer profiler on — its engine
    share needs the profile and its virtual time is immune to it — so it is
    always a run of its own; a wall-clock workload may pass an untraced
    repetition it already has as ``run``.
    """
    simulated = WORKLOADS[name]["backend"] == "simulated"
    begin = time.monotonic()
    if run is None or simulated:
        run = end_to_end_rep(name, seed, quick, profile=simulated)
    trace_path = OUT / f"trace-{name}.json"
    job = {
        **make_job(name, seed, quick),
        "mode": "layers",
        "spans": QUICK_SPANS if quick else SPANS,
        "seconds": max(seconds - (time.monotonic() - begin), 2.0),
        "trace_path": str(trace_path),
    }
    layers, _ = run_child(job)
    return {
        "run": run,
        "metrics": layer_metrics(job, run, layers),
        "counts": layers["counts"],
        "trace_file": str(trace_path.relative_to(ROOT)),
        "failures": check_reps(name, [run]),
    }


def require_names(metrics: dict, expected: dict, what: str) -> None:
    if set(metrics) != set(expected):
        raise BenchError(
            f"{what} metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(expected))}"
        )


def print_metrics(title: str, metrics: dict, specs: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {specs[name]['unit']}")


# ----------------------------------------------------------------------
# One run of one workload (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def load_warning() -> float:
    load = os.getloadavg()[0]
    cpus = os.cpu_count() or 1
    if load > cpus / 2:
        print(
            f"warning: 1-minute load average {load:.2f} exceeds cpu_count/2 "
            f"({cpus}/2); timings will be noisy",
            file=sys.stderr,
        )
    return load


def run_single(args) -> int:
    name, seed, seconds = args.workload, args.seed, float(args.seconds)
    load_warning()
    if not args.quick:
        # Discarded warm-up: fills the bytecode cache and the page cache.
        end_to_end_rep(name, seed, quick=True)
    if args.trace:
        traced = traced_pass(name, seed, seconds, args.quick)
        metrics, specs, failures = traced["metrics"], PER_LAYER, traced["failures"]
        reps = [traced["run"]]
        print(f"{name}: spans per layer {traced['counts']}, trace {traced['trace_file']}")
    else:
        reps = []
        begin = time.monotonic()
        while True:
            reps.append(end_to_end_rep(name, seed, args.quick))
            used = time.monotonic() - begin
            if args.quick or used + reps[-1]["wall_s"] > seconds:
                break
        metrics, specs, failures = end_to_end_metrics(reps), END_TO_END, check_reps(name, reps)
    require_names(metrics, specs, "reported")
    print_metrics(f"{name} (seed {seed}, {len(reps)} repetition(s))", metrics, specs)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(rep["attempted"] for rep in reps),
                "failed": sum(rep["failed"] for rep in reps),
                "metrics": {
                    key: {"value": value, "unit": specs[key]["unit"]}
                    for key, value in metrics.items()
                },
            }
        )
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# The suite: every workload, round-robin
# ----------------------------------------------------------------------
def spread(values: list[float]) -> dict:
    """Median, quartiles, min, max and n of one metric's repetitions."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def cross_checks(results: dict) -> list[str]:
    """Checks that set one workload's counts against another's."""
    push = {
        name: result["per_layer"]["ps.transport.push_bytes_per_update"]
        for name, result in results.items()
    }
    failures = []
    if push["shm_mlp_dssp"] != push["tcp_mlp_dssp"]:
        failures.append(
            "shm_mlp_dssp and tcp_mlp_dssp push different bytes per update "
            f"({push['shm_mlp_dssp']} vs {push['tcp_mlp_dssp']}): same work, same dense payload"
        )
    if push["tcp_mlp_topk"] * 10 > push["tcp_mlp_dssp"]:
        failures.append(
            f"tcp_mlp_topk pushes {push['tcp_mlp_topk']} B/update, not 10x fewer "
            f"than tcp_mlp_dssp's {push['tcp_mlp_dssp']}"
        )
    return failures


def run_suite(args) -> int:
    names = [workload["name"] for workload in BENCH["workloads"]]
    if set(names) != set(WORKLOADS):
        raise BenchError("BENCHMARK.json and perfbench/workloads.py name different workloads")
    quick = args.quick
    rounds = 1 if quick else args.reps
    load_before = load_warning()
    if not quick:
        for name in names:  # discarded warm-up round
            end_to_end_rep(name, args.seed, quick=True)
    reps: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(rounds):  # round-robin, so drift hits all workloads alike
        for name in names:
            reps[name].append(end_to_end_rep(name, args.seed, quick))

    results, failures = {}, []
    for name in names:
        traced = traced_pass(name, args.seed, 12.0, quick, run=reps[name][-1])
        require_names(traced["metrics"], PER_LAYER, f"{name} per-layer")
        end_to_end = {
            key: {**spread([rep[key] for rep in reps[name]]), "unit": END_TO_END[key]["unit"]}
            for key in END_TO_END
        }
        results[name] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "counts": traced["counts"],
            "trace_file": traced["trace_file"],
            "attempted": sum(rep["attempted"] for rep in reps[name]),
            "failed": sum(rep["failed"] for rep in reps[name]),
        }
        failures += check_reps(name, reps[name]) + traced["failures"]
        print(f"\n== {name} ({rounds} repetition(s), seed {args.seed}) ==")
        for key, stats in end_to_end.items():
            print(
                f"  {key:<44} {stats['median']:>16.6g} {stats['unit']:<6}"
                f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                f" min {stats['min']:.6g} max {stats['max']:.6g} n {stats['n']}"
            )
        print(f"  {'failed_ops':<44} {results[name]['failed']:>16} of {results[name]['attempted']}")
        print_metrics(f"  -- per layer ({traced['counts']}; {traced['trace_file']})",
                      traced["metrics"], PER_LAYER)
    failures += cross_checks(results)

    versions = reps[names[0]][0]["versions"]
    document = {
        "host": {
            "cpu_count": os.cpu_count(),
            **versions,
            "blas_threads": 1,
            "load_1min_before": load_before,
            "load_1min_after": os.getloadavg()[0],
        },
        "seed": args.seed,
        "quick": quick,
        "workloads": results,
        "failures": failures,
        "claim": None,
    }
    print(f"\nhost: {json.dumps(document['host'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("all correctness checks passed" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Compare two result files
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """A vs B per workload and end-to-end metric: ok / worse / unresolved.

    ``worse``: B's median is worse than A's by more than the bound (a share
    of A's median).  ``unresolved``: the run-to-run spread (the wider
    inter-quartile distance of the two, as a share of A's median) exceeds
    the bound, so the pair cannot show the metric unchanged.
    """
    a, b = (json.loads(Path(path).read_text())["workloads"] for path in (path_a, path_b))
    bad = 0
    print(f"{'workload':<18} {'metric':<22} {'A':>12} {'B':>12} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for name in a:
        for key, spec in END_TO_END.items():
            sa, sb = a[name]["end_to_end"][key], b[name]["end_to_end"][key]
            base = abs(sa["median"])
            change = (sb["median"] - sa["median"]) / base
            worse_by = -change if spec["better"] == "higher" else change
            iqr = max(sa["q3"] - sa["q1"], sb["q3"] - sb["q1"]) / base
            if iqr > spec["bound"]:
                verdict = "unresolved"
            elif worse_by > spec["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(
                f"{name:<18} {key:<22} {sa['median']:>12.6g} {sb['median']:>12.6g} "
                f"{worse_by:>+9.2%} {iqr:>7.2%} {spec['bound']:>6.0%}  {verdict}"
            )
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5, help="suite: measured rounds")
    parser.add_argument("--quick", action="store_true", help="tiny budgets, one repetition")
    parser.add_argument("--out", help="suite: write the result file here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload:
            return run_single(args)
        return run_suite(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
