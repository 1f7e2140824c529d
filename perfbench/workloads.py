"""The benchmark's workloads: seeded inputs and how one task drives qdilate.

Every input is generated here from the workload seed, validated, and written
as pair JSON; qdilate sees only those files (through ``qdilate.cli.main``) and
the validated pairs (through the public ``model`` functions).  The seed changes
only Haar conjugators, never sizes, so every seed does the same amount of work
and the correctness manifest can be keyed by task position.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qdilate import cli, matcore, model, qpair
from qdilate.errors import QDilateError

WORKLOADS = ("corpus-verify", "lift-scale", "charfn-grid")

CORPUS_TRUNC = 24
# (dim, N): lift dimension D = dim + (N+1) * 2 (dim-2) = 264, 526, 788.  An odd
# number of tasks per pass puts the median latency inside one task's samples.
LIFT_SWEEP = ((4, 64), (6, 64), (8, 64))
LIFT_SUITES = "schaffer,douglas,pseudo"
# nilpotent and clock-shift pairs alternate along the dims
CHARFN_DIMS = (16, 22, 28, 34, 40, 46, 52, 58, 64)
CHARFN_GRID = (12, 24)


@dataclass
class Task:
    """One unit of closed-loop work: a verify report or a charfn-grid pair."""

    position: int
    label: str
    kind: str                       # "verify" or "charfn"
    pair_path: str
    argv: tuple = ()                # extra qdilate verify arguments
    pair: object = None             # validated QPair (charfn tasks)
    partner: object = None          # Haar-conjugated copy of `pair`
    conjugator: np.ndarray = None   # W with partner = W pair W*
    grid: tuple = CHARFN_GRID


@dataclass
class Workload:
    name: str
    tasks: list
    warmup: Task
    sizes: dict = field(default_factory=dict)
    # whether the host speed factor applies; see worker.Calibration
    calibrated: bool = True


@dataclass
class Outcome:
    """What one task produced: command exit codes and captured outputs."""

    rc: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    error: str = ""                 # what the task raised; a traceback for a crash


def _write_pair(pair, path: Path) -> str:
    """Write pair JSON and check that qdilate reads back the same pair."""
    path.write_text(json.dumps(qpair.pair_to_json(pair)), encoding="utf-8")
    back = qpair.pair_from_json(json.loads(path.read_text(encoding="utf-8")))
    if back.q != pair.q or not (np.array_equal(back.t1, pair.t1)
                                and np.array_equal(back.t2, pair.t2)):
        raise RuntimeError(f"pair JSON round trip changed {path.name}")
    return str(path)


def _schaffer_dim(pair, trunc: int) -> int:
    """Dimension dim + (N+1)(rank D_T1 + rank D_T2) of the inclusion-type lift."""
    fiber = sum(matcore.defect(t)[1].dim for t in (pair.t1, pair.t2))
    return pair.dim + (trunc + 1) * fiber


def boundary_pairs(seed: int):
    """Near-boundary pairs that end in typed errors or stress rank cutoffs."""
    nilp = qpair.gen_nilpotent(5, qpair.CORPUS_TWISTS["e1"], 0.99, 0.99)
    return [
        ("clock-shift:n=3,scale=1-1e-9", qpair.gen_clock_shift(3, 1 - 1e-9)),
        ("clock-shift:n=2,scale=0.999", qpair.gen_clock_shift(2, 0.999)),
        ("clock-shift:n=2,scale=1-1e-6", qpair.gen_clock_shift(2, 1 - 1e-6)),
        (f"conjugated-nilpotent:n=5,q=e1,c=0.99,d=0.99,seed={seed + 100}",
         qpair.gen_conjugated(nilp, seed + 100)[0]),
    ]


def lift_pair(dim: int, seed: int):
    """Haar-conjugated clock-shift(2) (+) nilpotent(dim-2, q=-1, c=0.9, d=0.8)."""
    base = qpair.gen_direct_sum([qpair.gen_clock_shift(2, 1.0),
                                 qpair.gen_nilpotent(dim - 2, -1.0, 0.9, 0.8)])
    return qpair.gen_conjugated(base, seed)[0]


def _charfn_task(position, label, pair, seed, work: Path, grid=CHARFN_GRID) -> Task:
    path = _write_pair(pair, work / f"charfn-{position}.json")
    pair = qpair.pair_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    partner, w = qpair.gen_conjugated(pair, seed)
    return Task(position, label, "charfn", path, pair=pair, partner=partner,
                conjugator=w, grid=grid)


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate, validate and write the inputs of workload `name`."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "corpus-verify":
        named = [(label, pair) for label, pair, _ in qpair.standard_corpus(seed)]
        named += boundary_pairs(seed)
        argv = ("--trunc", str(CORPUS_TRUNC))
        tasks = [Task(i, label, "verify", _write_pair(pair, work / f"corpus-{i}.json"), argv)
                 for i, (label, pair) in enumerate(named)]
        warm = qpair.gen_nilpotent(3, 1j, 0.8, 0.9)
        warmup = Task(-1, "warm-up", "verify", _write_pair(warm, work / "warmup.json"),
                      ("--trunc", "8"))
        sizes = {"pairs": len(tasks), "boundary_pairs": 4,
                 "dims": sorted({p.dim for _, p in named}), "trunc": CORPUS_TRUNC,
                 "suites": list(cli.SUITES),
                 "largest_schaffer_D": max(_schaffer_dim(p, CORPUS_TRUNC) for _, p in named)}
        return Workload(name, tasks, warmup, sizes)
    if name == "lift-scale":
        paths, dims = {}, {}
        for dim in sorted({d for d, _ in LIFT_SWEEP}):
            pair = lift_pair(dim, seed + dim)
            paths[dim] = _write_pair(pair, work / f"lift-{dim}.json")
            dims[dim] = pair
        tasks = [Task(i, f"dim={dim},N={n}", "verify", paths[dim],
                      ("--suites", LIFT_SUITES, "--trunc", str(n)))
                 for i, (dim, n) in enumerate(LIFT_SWEEP)]
        warmup = Task(-1, "warm-up", "verify",
                      _write_pair(lift_pair(4, seed), work / "warmup.json"),
                      ("--suites", LIFT_SUITES, "--trunc", "8"))
        sizes = {"points": [{"dim": d, "trunc": n,
                             "schaffer_D": _schaffer_dim(dims[d], n)} for d, n in LIFT_SWEEP],
                 "suites": LIFT_SUITES.split(",")}
        sizes["largest_schaffer_D"] = max(p["schaffer_D"] for p in sizes["points"])
        # Dense LAPACK on 1-10 MB matrices did not slow down with the
        # calibration kernel: over ten seeds, rescaling widened the quartile
        # spread of its throughput from 5% to 12%.
        return Workload(name, tasks, warmup, sizes, calibrated=False)
    if name == "charfn-grid":
        tasks = []
        for pos, dim in enumerate(CHARFN_DIMS):
            if pos % 2 == 0:
                base = qpair.gen_nilpotent(dim, qpair.CORPUS_TWISTS["e1"], 0.9, 0.9)
                label = f"nilpotent:n={dim},q=e1,c=0.9,d=0.9"
            else:
                base = qpair.gen_clock_shift(dim, 0.9)
                label = f"clock-shift:n={dim},scale=0.9"
            conj = qpair.gen_conjugated(base, seed + 2 * pos)[0]
            tasks.append(_charfn_task(pos, f"{label},conj", conj, seed + 2 * pos + 1, work))
        warm = qpair.gen_conjugated(qpair.gen_nilpotent(8, 1j, 0.9, 0.9), seed)[0]
        warmup = _charfn_task(-1, "warm-up", warm, seed, work, grid=(2, 4))
        radii, angles = CHARFN_GRID
        sizes = {"pairs": len(tasks), "dims": list(CHARFN_DIMS),
                 "grid": f"{radii}x{angles}", "boundary_ring_points": angles,
                 "coincidence_grid": "8x16"}
        return Workload(name, tasks, warmup, sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _cli(argv) -> tuple[int, str]:
    """Run one qdilate command in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def run_task(task: Task) -> Outcome:
    """Execute one task as a user would; never raises for a program fault."""
    result = Outcome()
    try:
        if task.kind == "verify":
            result.rc["verify"], result.outputs["verify"] = _cli(
                ["verify", "--pair", task.pair_path, *task.argv])
        else:
            radii, angles = task.grid
            result.rc["charfn"], result.outputs["charfn"] = _cli(
                ["charfn", "--pair", task.pair_path, "--grid", f"{radii}x{angles}"])
            result.rc["triple"], result.outputs["triple"] = _cli(
                ["triple", "--pair", task.pair_path])
            triple_a = model.char_triple(task.pair)
            triple_b = model.char_triple(task.partner)
            u, u_star = model.induced_defect_unitaries(triple_a, triple_b, task.conjugator)
            result.outputs["coincidence"] = model.verify_coincidence(
                triple_a, triple_b, u, u_star)
    except QDilateError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    except Exception:  # a crash is a task outcome, and the loop must go on
        result.error = traceback.format_exc()
    return result
