"""Smoke self-test of the benchmark at tiny sizes: answers only, no timing gate.

Each run generates tiny inputs, plays the whole session through the CLI and
the server, checks every answer, and must report exactly the metrics that
BENCHMARK.json names.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_runs_are_correct_and_complete():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in contract["workloads"]] == ["flat-divide", "cd-chains"]
    runs = [(w["name"], 0) for w in contract["workloads"]] + [("cd-chains", 1)]
    for workload, trace in runs:
        result = _run(workload, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        wanted = contract["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
