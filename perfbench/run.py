"""qdilate benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 25 --trace 0

Run from anywhere; paths are resolved from this file.  Each run starts fresh
Python processes (``worker.py``) with the BLAS thread count pinned to 1.
Set-up is timed in several of them and reported as the median; the last one
also measures.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from a traced run plus the tracing overhead.  Human
readable lines come first; the last line of stdout is the JSON result.  The
full record, with the environment and every metric, is written to
``.bench_work/result-<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("corpus-verify", "lift-scale", "charfn-grid")
SETUP_SAMPLES = 5       # fresh processes timed per run; the last one measures
TIME_LIMIT_S = 170.0    # a run must end within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# calibration kernel time (worker.Calibration) on the host the bounds were set
# on: a 2-vCPU x86_64 VM, numpy 2.4.6 with OpenBLAS 0.3.31, one BLAS thread
CAL_REF_S = 0.06


class BenchError(RuntimeError):
    pass


def _worker(args, mode: str, deadline: float) -> tuple[float, bytes]:
    """Start one worker; return (seconds from spawn to READY, remaining stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--work", str(WORK / args.workload)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        try:
            fd, head = proc.stdout.fileno(), b""
            while b"\n" not in head:
                wait = deadline - time.monotonic()
                if wait <= 0 or not select.select([fd], [], [], wait)[0]:
                    raise BenchError(f"{mode} worker did not get ready in time")
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                head += chunk
            ready_s = time.perf_counter() - start
            line, _, rest = head.partition(b"\n")
            rest += proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0]
        except (subprocess.TimeoutExpired, BenchError):
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker exceeded the time limit") from None
    if proc.returncode != 0 or line.strip() != b"READY":
        raise BenchError(f"{mode} worker failed with exit code {proc.returncode}")
    return ready_s, rest


def tail_latency(sorted_ms: list) -> tuple[float, float, int] | None:
    """Highest percentile with at least 10 samples beyond it: (p, value, beyond)."""
    n = len(sorted_ms)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, sorted_ms[rank - 1], n - rank
    return None


def speed_factor(raw: dict) -> float:
    """How much slower than the reference host this run's host was, from the
    calibration kernel timed between tasks; 1.0 where the workload is not
    calibrated."""
    if not raw["calibration_s"]:
        return 1.0
    return statistics.fmean(raw["calibration_s"]) / CAL_REF_S


def end_to_end(setup_samples: list, raw: dict) -> tuple[dict, dict]:
    """Every end-to-end metric as {name: (value, unit)}, with notes for printing."""
    lat = raw["untraced"]["latencies"]
    ms = sorted(x * 1000.0 for x in lat)
    speed = speed_factor(raw)
    out = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "norm_tasks_per_s": (len(lat) / sum(lat) * speed, "1/s"),
        "tasks_per_s": (len(lat) / sum(lat), "1/s"),
        "task_p50_ms": (statistics.median(ms), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "failed_share": (raw["failed"] / raw["attempted"], "ratio"),
    }
    tail = tail_latency(ms)
    if tail is not None:
        out["task_tail_ms"] = (tail[1], "ms")
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes: "
                   + ", ".join(f"{s:.3f}" for s in setup_samples),
        "norm_tasks_per_s": f"tasks_per_s x host speed factor {speed:.4f} from "
                            f"{len(raw['calibration_s'])} calibration samples "
                            f"(reference {CAL_REF_S} s)",
        "tasks_per_s": f"{len(lat)} tasks in {raw['untraced']['passes']} whole passes "
                       f"of {raw['tasks_per_pass']}, {sum(lat):.2f} s busy",
        "task_p50_ms": f"n={len(lat)}",
        "task_tail_ms": (f"p{tail[0]:g}, {tail[2]} samples beyond, n={len(lat)}" if tail
                         else "undefined: fewer than 20 tasks in the run"),
        "peak_rss_mb": "getrusage high-water mark of the measuring process",
        "failed_share": f"{raw['failed']} of {raw['attempted']} tasks; failing positions "
                        f"{raw['failed_positions']}",
    }
    return out, notes


def per_layer(raw: dict) -> tuple[dict, dict]:
    """The traced run's per-layer table plus the tracing overhead."""
    out = {name: (value, unit) for name, (value, unit) in raw["per_layer"].items()}
    untraced = raw["untraced"]["latencies"]
    traced = raw["traced"]["latencies"]
    tps_u = len(untraced) / sum(untraced)
    tps_t = len(traced) / sum(traced)
    out["trace.overhead_share"] = (1.0 - tps_t / tps_u, "ratio")
    notes = {"trace.overhead_share":
             f"traced {tps_t:.4f} vs untraced {tps_u:.4f} tasks/s "
             f"({len(traced)} and {len(untraced)} tasks)"}
    return out, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time to measure; whole passes are run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "qdilate" / "__init__.py").is_file():
        print(f"error: no qdilate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    (WORK / args.workload).mkdir(parents=True, exist_ok=True)

    try:
        setup_samples = [_worker(args, "setup", deadline)[0]
                         for _ in range(SETUP_SAMPLES - 1)]
        ready_s, rest = _worker(args, "measure", deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(ready_s)
    raw = json.loads(rest.decode().strip().splitlines()[-1])

    if args.trace:
        metrics, notes = per_layer(raw)
    else:
        metrics, notes = end_to_end(setup_samples, raw)
    wrong = [m["name"] for m in wanted
             if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]
    if wrong:
        print(f"error: metrics missing or in another unit: {wrong}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, "
          f"one client, {raw['tasks_per_pass']} tasks per pass")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    print("sizes " + json.dumps(raw["sizes"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:42s} {value:>16.6g} {unit:6s} {note}")
    for text in raw["regressions"]:
        print(f"  regression: {text}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": raw["env"], "sizes": raw["sizes"],
              "setup_samples_s": setup_samples, "attempted": raw["attempted"],
              "failed": raw["failed"], "failed_positions": raw["failed_positions"],
              "regressions": raw["regressions"],
              "latencies_s": raw["untraced"]["latencies"],
              "calibration_s": raw["calibration_s"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    final = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not raw["regressions"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
