"""Smoke test of the benchmark's traced run: each job kind of
``perfbench/tracer.py`` on tiny inputs, so a change to the library that
breaks a per-layer job fails here and not only in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

REPLAYS = [
    ["figure1", "--k-to", "3", "--m-to", "10"],
    ["signs", "--k-max", "10"],
    ["figure2", "--k-to", "8"],
    ["search", "--k", "1..3", "--m", "3..50", "--jobs", "2"],
    ["threshold", "--k", "5"],
]
JOBS = [{"kind": "replay", "argv": argv, "trace_id": "smoke"} for argv in REPLAYS] + [
    {"kind": "cli", "argv": ["signs", "--k-max", "10"]},
    {"kind": "sign_summary", "k_max": 10},
    {"kind": "find_solutions", "k": [1, 3], "m": [3, 50], "shards": 2},
    {"kind": "sign_threshold", "k": 5},
    {"kind": "probe", "size": 10},
]


@pytest.mark.parametrize("job", JOBS, ids=lambda job: " ".join([job["kind"], *job.get("argv", [])[:1]]))
def test_job_exits_0_with_a_json_last_line(job):
    proc = subprocess.run([sys.executable, str(TRACER), json.dumps(job)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert isinstance(result, dict) and result
    if job["kind"] == "cli":
        assert result["exit"] == 0 and result["chars"] > 0
