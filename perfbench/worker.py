"""One fresh benchmark process: set up a workload, then optionally measure it.

Started by ``run.py``.  Set-up pins the BLAS thread count to 1 before numpy is
imported, imports qdilate from ``src/``, generates and writes the seeded
inputs, and runs one untimed warm-up task; the process then prints ``READY``.
In ``measure`` mode it goes on to run whole passes over the workload's tasks
in a closed loop with one client until the summed task time reaches
``--seconds``.  Outside the timed calls it judges every output and, once a
second of task time, times a fixed numpy calibration kernel.  It ends by
printing one JSON line of raw results.
"""

from __future__ import annotations

import os

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = HERE / "manifest.json"


def import_qdilate():
    """Import qdilate from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import qdilate
    origin = Path(qdilate.__file__).resolve().parent
    if origin != SRC / "qdilate":
        raise ImportError(f"qdilate imported from {origin}, expected {SRC / 'qdilate'}")
    return qdilate


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_pin": {v: os.environ[v] for v in PIN_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


class Calibration:
    """A fixed numpy kernel timed between tasks, to measure the host's speed.

    Other tenants of a shared host slow small-matrix and interpreter-bound
    work by 10-30% for minutes at a time.  Averaged over a run, this kernel's
    time tracks that slowdown: over 15-30 s windows, corpus task time divided
    by it varied 2% where the raw task time varied 11%.  It uses no qdilate
    code, so a change to qdilate does not move it.
    """

    EVERY_S = 1.0   # task time between two calibration samples

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)

        def cmat(n):
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        self._np = np
        self._big, self._mid = cmat(300), cmat(200)
        self._small = [cmat(n) for n in (4, 12, 40)]
        self.samples: list = []
        self._since = self.EVERY_S
        self._kernel()      # first calls allocate LAPACK workspaces; untimed

    def _kernel(self) -> None:
        np = self._np
        self._big @ self._big
        np.linalg.svd(self._mid)
        np.linalg.eigh(self._mid + self._mid.conj().T)
        for _ in range(30):
            for a in self._small:
                np.linalg.svd(a)
                np.linalg.solve(a + 5.0 * np.eye(len(a)), a @ a)

    def after_task(self, task_s: float) -> None:
        """Time the kernel once per EVERY_S of task time, so long tasks get as
        many samples as the same time spent in short ones."""
        self._since += task_s
        while self._since >= self.EVERY_S:
            self._since -= self.EVERY_S
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)


class Loop:
    """Closed loop with one client over whole passes of a task list; each
    task starts when the previous one and its judgement are done."""

    def __init__(self, workload, judge, calibration: Calibration | None):
        self.workload = workload
        self.judge = judge
        self.calibration = calibration
        self.attempted = 0
        self.failed = 0
        self.failed_positions: set = set()
        self.regressions: list = []

    def run_pass(self, execute, into: dict) -> None:
        """Run every task once, adding latencies and busy time to `into`."""
        for task in self.workload.tasks:
            t0 = time.perf_counter()
            outcome = execute(task)
            dt = time.perf_counter() - t0
            into["latencies"].append(dt)
            into["busy"] += dt
            self._record(task, outcome)
            if self.calibration is not None:
                self.calibration.after_task(dt)
        into["passes"] += 1

    def _record(self, task, outcome) -> None:
        verdict = self.judge(task, outcome)
        self.attempted += 1
        if verdict.failed:
            self.failed += 1
            self.failed_positions.add(task.position)
        for text in verdict.regressions:
            if len(self.regressions) < 50:
                self.regressions.append(f"task {task.position} ({task.label}): {text}")


def make_judge(workload_name: str):
    import oracle
    if workload_name == "charfn-grid":
        return lambda task, outcome: oracle.judge_charfn(outcome, task)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))[workload_name]
    return lambda task, outcome: oracle.judge_verify(outcome, manifest[task.position])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--work", required=True, help="scratch directory for inputs")
    args = parser.parse_args(argv)

    import_qdilate()
    import workloads
    wl = workloads.build(args.workload, args.seed, Path(args.work))
    warm = workloads.run_task(wl.warmup)
    if warm.error or any(rc != 0 for rc in warm.rc.values()):
        print(f"warm-up task failed: {warm.error or warm.rc}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    calibration = Calibration() if wl.calibrated else None
    loop = Loop(wl, make_judge(args.workload), calibration)
    result = {"workload": args.workload, "env": environment(args.seed), "sizes": wl.sizes,
              "tasks_per_pass": len(wl.tasks)}
    untraced = result["untraced"] = {"latencies": [], "busy": 0.0, "passes": 0}
    if not args.trace:
        while untraced["passes"] == 0 or untraced["busy"] < args.seconds:
            loop.run_pass(workloads.run_task, untraced)
    else:
        # alternate untraced and traced passes, so drift in machine speed
        # does not masquerade as tracing overhead
        import tracer as tracing
        tracer = tracing.Tracer()
        traced = result["traced"] = {"latencies": [], "busy": 0.0, "passes": 0}
        while traced["passes"] == 0 or untraced["busy"] + traced["busy"] < args.seconds:
            loop.run_pass(workloads.run_task, untraced)
            tracer.install()
            try:
                loop.run_pass(lambda task: tracer.run_task(task.position, workloads.run_task,
                                                           task), traced)
            finally:
                tracer.uninstall()
        pairs = sum(2 if t.kind == "charfn" else 1 for t in wl.tasks)
        result["per_layer"] = tracer.per_layer(traced["passes"], pairs)
        tracer.write_spans(Path(args.work) / f"spans-{args.workload}-seed{args.seed}.jsonl")
    result.update(attempted=loop.attempted, failed=loop.failed,
                  failed_positions=sorted(loop.failed_positions),
                  regressions=loop.regressions,
                  calibration_s=calibration.samples if calibration else [],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
