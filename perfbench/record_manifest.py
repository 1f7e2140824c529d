"""Record the correctness manifest of the verify workloads.

    python3 perfbench/record_manifest.py

Runs every task of ``corpus-verify`` and ``lift-scale`` once for each of
several seeds, keeps each check id's status (pass, skip or fail) by task
position and suite, and writes ``perfbench/manifest.json``.  It refuses to
write when two seeds disagree, because the oracle assumes the seed changes
only Haar conjugators.  Record it at the commit whose behaviour later
commits must keep.
"""

from __future__ import annotations

import json
import sys

from worker import MANIFEST, ROOT, import_qdilate

SEEDS = (0, 1, 2)


def main() -> int:
    import_qdilate()
    import oracle
    import workloads

    manifest = {"_comment": "check statuses by task position and suite; "
                            "written by perfbench/record_manifest.py"}
    for name in ("corpus-verify", "lift-scale"):
        per_seed = []
        for seed in SEEDS:
            wl = workloads.build(name, seed, ROOT / ".bench_work" / "manifest" / name)
            statuses = []
            for task in wl.tasks:
                outcome = workloads.run_task(task)
                if outcome.error:
                    print(f"{name} task {task.position} raised: {outcome.error}",
                          file=sys.stderr)
                    return 1
                statuses.append(oracle.report_statuses(json.loads(outcome.outputs["verify"])))
            per_seed.append(statuses)
            print(f"{name} seed {seed}: {len(statuses)} tasks", file=sys.stderr)
        for seed, statuses in zip(SEEDS[1:], per_seed[1:]):
            for pos, (a, b) in enumerate(zip(per_seed[0], statuses)):
                if a != b:
                    print(f"{name} task {pos}: seed {seed} differs from seed {SEEDS[0]}",
                          file=sys.stderr)
                    return 1
        manifest[name] = per_seed[0]
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
