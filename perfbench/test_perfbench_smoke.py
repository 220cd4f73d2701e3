"""Smoke test of the benchmark itself (collected by tier-1, about 12 s).

Runs the suite once with ``--quick`` (tiny budgets, one repetition, 50+
spans per layer) and checks what it prints against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_status() -> str | None:
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
            timeout=30.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def test_quick_suite_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_file = HERE / "out" / "smoke.json"
    before = _git_status()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out_file)],
        cwd=ROOT, capture_output=True, text=True, timeout=170.0, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    # The run leaves the work tree as it found it (perfbench/out is ignored).
    assert _git_status() == before

    document = json.loads(out_file.read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in units)
    assert all(units.values())
    assert list(document["workloads"]) == [w["name"] for w in bench["workloads"]]
    for name, result in document["workloads"].items():
        assert list(result["end_to_end"]) == [m["name"] for m in bench["end_to_end"]]
        assert set(result["per_layer"]) == {m["name"] for m in bench["per_layer"]}
        assert result["failed"] == 0 and result["attempted"] > 0
        # Every metric is printed by name with its unit.
        for metric in (*result["end_to_end"], *result["per_layer"]):
            assert re.search(
                rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(units[metric])}\b",
                done.stdout, re.MULTILINE,
            ), metric

        # Valid Chrome trace-event JSON whose child spans nest in their step.
        events = json.loads((ROOT / result["trace_file"]).read_text())["traceEvents"]
        steps = {
            (e["tid"], e["args"]["step"]): e for e in events if e["name"] == "step"
        }
        children = [e for e in events if e["name"] != "step"]
        assert len(steps) >= 50 and len(children) == 6 * len(steps)
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0
        for child in children:
            step = steps[child["tid"], child["args"]["step"]]
            assert step["ts"] <= child["ts"]
            assert child["ts"] + child["dur"] <= step["ts"] + step["dur"] + 1e-3
