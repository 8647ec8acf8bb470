"""Run the benchmark over several seeds and summarize it as one trajectory point.

    python3 bench/collect.py --label seed --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --out bench/trajectory/00-seed.json

Run it from the repository root.  For every workload in BENCHMARK.json it
runs the timed benchmark once per seed and the traced benchmark once per
``--trace-seeds`` seed, each for the contract's ``run_seconds``, then records
for every metric the median and the extremes of the per-run values, with the
run count.  With four runs or more it also records the quartiles and the
spread (interquartile range over median); an end-to-end spread of a third of
the metric's bound or more is printed as UNSTEADY.  The median set-up times
of the CLI and of the server, the two parts of ``setup_s``, are recorded
apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarize(results: list[dict], specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        median = statistics.median(values)
        entry = {
            "unit": spec["unit"],
            "better": spec["better"],
            "n": len(values),
            "median": median,
            "min": min(values),
            "max": max(values),
            "values": values,
        }
        if len(values) >= 4:  # fewer values give extrapolated, meaningless quartiles
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        if "bound" in spec:
            entry["bound"] = spec["bound"]
        out[spec["name"]] = entry
    return out


def main() -> int:
    contract = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[1, 2])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = contract["run_seconds"]

    point = {
        "label": args.label,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in contract["workloads"]):
        timed = [run_once(workload, s, seconds, 0) for s in args.seeds]
        traced = [run_once(workload, s, seconds, 1) for s in args.trace_seeds]
        results = [r for r, _ in timed + traced]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "seeds": args.seeds,
            "trace_seeds": args.trace_seeds,
            "samples": timed[0][1]["samples"],
            "setup_parts_s": {
                part: statistics.median(info["setup_parts_s"][part] for _, info in timed)
                for part in ("cli", "server")
            },
            "end_to_end": summarize([r for r, _ in timed], contract["end_to_end"]),
        }
        if traced:
            entry["per_layer"] = summarize([r for r, _ in traced], contract["per_layer"])
            entry["trace_details"] = [
                {k: info[k] for k in ("seed", "samples", "verify_share")} for _, info in traced
            ]
        point["workloads"][workload] = entry
        for name, m in entry["end_to_end"].items():
            spread = m.get("spread")
            flag = "UNSTEADY" if spread is not None and spread >= m["bound"] / 3 else ""
            shown = "n/a" if spread is None else f"{spread:.3f}"
            print(f"{workload:12s} {name:14s} median={m['median']:.4f} {m['unit']:5s} "
                  f"spread={shown} bound={m['bound']} {flag}")
        print(f"{workload:12s} setup_parts_s {entry['setup_parts_s']}")
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
