"""Committed snapshot of the `qdilate verify` report of every corpus pair.

Covers the 78 pairs of `standard_corpus(0)` and four near-boundary pairs, all
eight suites at --trunc 12.  A refactor must keep every check id, its pass and
skip flags, its tolerance and the note of every `*/error` record.  Residuals
may move by rounding: each must stay within 10x of the recorded value, or both
values must be at most 1e-3 of the check's tolerance.

Re-record (only when a report is meant to change):

    PYTHONPATH=src python3 tests/test_report_snapshot.py

The re-record keeps the committed residual of every check whose id, flags
and tolerance are unchanged and whose new residual passes `residual_matches`,
so a re-record writes only the checks that moved, and none on an unchanged
program run on another BLAS.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from qdilate import cli, qpair

SNAPSHOT = Path(__file__).parent / "data" / "report_snapshot.json"
TRUNC = 12


def snapshot_pairs():
    nilp = qpair.gen_nilpotent(5, qpair.CORPUS_TWISTS["e1"], 0.99, 0.99)
    named = [(name, pair) for name, pair, _ in qpair.standard_corpus(0)]
    return named + [
        ("clock-shift:n=3,scale=1-1e-9", qpair.gen_clock_shift(3, 1 - 1e-9)),
        ("clock-shift:n=2,scale=0.999", qpair.gen_clock_shift(2, 0.999)),
        ("clock-shift:n=2,scale=1-1e-6", qpair.gen_clock_shift(2, 1 - 1e-6)),
        ("conjugated-nilpotent:n=5,q=e1,c=0.99,d=0.99,seed=100",
         qpair.gen_conjugated(nilp, 100)[0]),
    ]


def report_summary(pair, workdir: Path) -> dict:
    """Run `qdilate verify` on one pair; keep what the snapshot compares."""
    path = workdir / "pair.json"
    path.write_text(json.dumps(qpair.pair_to_json(pair)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["verify", "--pair", str(path), "--trunc", str(TRUNC)])
    text = out.getvalue().removesuffix("\n")
    report = json.loads(text)
    # the report writer's own template must give json's bytes
    assert text == json.dumps(report, indent=2, sort_keys=True)
    records = report["records"]
    return {
        "rc": rc,
        "checks": [[r["id"], r["pass"], r["skipped"], r["residual"], r["tolerance"]]
                   for r in records],
        "errors": {r["id"]: r["note"] for r in records if r["id"].endswith("/error")},
    }


def residual_matches(recorded: float, now: float, tol: float) -> bool:
    if recorded / 10.0 <= now <= recorded * 10.0:
        return True
    return max(recorded, now) <= 1e-3 * tol


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_covers_every_pair(snapshot):
    assert [name for name, _ in snapshot_pairs()] == list(snapshot)
    assert len(snapshot) == 82


@pytest.mark.parametrize("name,pair", [pytest.param(n, p, id=n) for n, p in snapshot_pairs()])
def test_report_matches_snapshot(name, pair, snapshot, tmp_path):
    want = snapshot[name]
    got = report_summary(pair, tmp_path)
    assert got["rc"] == want["rc"]
    assert [c[:3] for c in got["checks"]] == [c[:3] for c in want["checks"]]
    assert got["errors"] == want["errors"]
    for (cid, _, _, res, tol), (_, _, _, res0, tol0) in zip(got["checks"], want["checks"]):
        assert tol == tol0, cid
        assert residual_matches(res0, res, tol), (cid, res0, res)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {name: report_summary(pair, Path(tmp)) for name, pair in snapshot_pairs()}
    old = json.loads(SNAPSHOT.read_text(encoding="utf-8")) if SNAPSHOT.exists() else {}
    for name, rep in data.items():
        kept = {c[0]: c for c in old.get(name, {}).get("checks", [])}
        for c in rep["checks"]:
            c0 = kept.get(c[0])
            if (c0 is not None and c0[1:3] == c[1:3] and c0[4] == c[4]
                    and residual_matches(c0[3], c[3], c[4])):
                c[3] = c0[3]
    SNAPSHOT.parent.mkdir(exist_ok=True)
    # one line per check keeps the file diffable
    entries = []
    for name, rep in data.items():
        checks = ",\n".join(f"   {json.dumps(c)}" for c in rep["checks"])
        entries.append(f' {json.dumps(name)}: {{"rc": {rep["rc"]}, '
                       f'"errors": {json.dumps(rep["errors"])}, "checks": [\n{checks}]}}')
    SNAPSHOT.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(data)} reports in {SNAPSHOT}")
