"""Append one point to the benchmark trajectory.

    python3 perfbench/trajectory.py LABEL

Runs every workload untraced on seeds 1, 2 and 3 and traced on seed 1, one run
at a time, and appends a JSON line to ``perfbench/trajectory.jsonl``: the
environment, the median of every end-to-end metric (``failed_share`` and
``task_tail_ms`` included) with the per-seed values, and the full per-layer
table of the traced run.  It takes about six minutes.  Compare points only
when their ``env`` records match.
"""

from __future__ import annotations

import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.jsonl"
SEEDS = (1, 2, 3)


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    path = ROOT / ".bench_work" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    point = {"label": args[0],
             "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, 0, spec["run_seconds"]) for seed in SEEDS]
        traced = _run(workload, SEEDS[0], 1, spec["run_seconds"])
        point["env"] = {k: v for k, v in runs[0]["env"].items() if k != "seed"}
        e2e = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            e2e[name] = {"median": statistics.median(values), "unit": first["unit"],
                         "values": values}
        point["workloads"][workload] = {
            "sizes": runs[0]["sizes"],
            "failed_positions": runs[0]["failed_positions"],
            "correct": all(not r["regressions"] for r in runs + [traced]),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload}: " + ", ".join(f"{k} {v['median']:.4g} {v['unit']}"
                                          for k, v in e2e.items()), file=sys.stderr)
    with TRAJECTORY.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(point, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
