"""Correctness oracle, independent of the seed and of qdilate's own code paths.

``verify`` tasks are judged against a manifest recorded once at a reference
commit: for each task position and suite, every check id with its status
(pass, skip or fail).  The seed only changes Haar conjugators, so the manifest
holds for every seed.  ``charfn`` tasks are judged against a plain-numpy
evaluation of the characteristic function.

Each judgement has two parts:

* ``failed``: the task did not end in a clean pass.  It raised, a suite
  recorded an error, a check failed, or a check that the manifest records as
  passing is missing, skipped or failing.  Known defects count here.
* ``regressions``: the subset of problems the manifest does not expect (a
  crash, a wrong value, a check that used to pass).  A run is ``correct`` when
  no task has one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# |sigma_csv - sigma_oracle| bound: both sides are backward stable to ~1e-13
# for these well-conditioned resolvents (||(I - zT*)^-1|| <= 1/(1 - 0.81)).
SV_TOL = 1e-9
# radius of the rank cutoff on the defect eigenvalues; the workload pairs keep
# every defect eigenvalue above 0.3 or at exact zero
DEFECT_CUTOFF = 1e-6


@dataclass
class Judgement:
    failed: bool = False
    problems: list = field(default_factory=list)
    regressions: list = field(default_factory=list)

    def problem(self, text: str, expected: bool) -> None:
        self.failed = True
        self.problems.append(text)
        if not expected:
            self.regressions.append(text)


def report_statuses(report: dict) -> dict:
    """Map each check id of a verify report to pass, skip or fail, by suite."""
    out: dict = {}
    for rec in report["records"]:
        suite = rec["id"].split("/", 1)[0]
        status = "skip" if rec["skipped"] else ("pass" if rec["pass"] else "fail")
        out.setdefault(suite, {})[rec["id"]] = status
    return out


def judge_verify(outcome, expected: dict) -> Judgement:
    """Apply the failure rule to one verify task against its manifest entry."""
    j = Judgement()
    if outcome.error:
        j.problem(f"raised {outcome.error.strip().splitlines()[-1]}", expected=False)
        return j
    try:
        report = json.loads(outcome.outputs["verify"])
    except (KeyError, json.JSONDecodeError):
        j.problem(f"no report (exit code {outcome.rc.get('verify')})", expected=False)
        return j
    got = report_statuses(report)
    for suite, checks in got.items():
        for cid, status in checks.items():
            if status != "fail":
                continue
            known = expected.get(suite, {}).get(cid) == "fail"
            what = "recorded an error" if cid == f"{suite}/error" else "failed"
            j.problem(f"{cid} {what}", expected=known)
    for suite, checks in expected.items():
        for cid, status in checks.items():
            if status != "pass":
                continue
            now = got.get(suite, {}).get(cid)
            if now is None:
                j.problem(f"{cid} missing", expected=False)
            elif now == "skip":
                j.problem(f"{cid} skipped", expected=False)
    return j


def defect_basis(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H^{1/2}, orthonormal basis of its range) for a PSD matrix H."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    root = np.sqrt(np.clip(w, 0.0, None))
    return (v * root) @ v.conj().T, v[:, root > DEFECT_CUTOFF]


def theta_singular_values(t: np.ndarray, z: complex) -> np.ndarray:
    """Singular values of Theta(z) = -T + z D_{T*} (I - zT*)^{-1} D_T between
    ran D_T and ran D_{T*}; independent of the bases chosen for those ranges."""
    n = t.shape[0]
    eye = np.eye(n)
    d_t, b_t = defect_basis(eye - t.conj().T @ t)
    d_s, b_s = defect_basis(eye - t @ t.conj().T)
    core = -t + z * d_s @ np.linalg.solve(eye - z * t.conj().T, d_t)
    return np.linalg.svd(b_s.conj().T @ core @ b_t, compute_uv=False)


def expected_grid(t: np.ndarray, radii: int, angles: int) -> list[complex]:
    """The points qdilate charfn must emit, boundary ring included when rho(T) < 1."""
    rs = list(np.linspace(0.1, 0.9, radii))
    if max(abs(np.linalg.eigvals(t))) < 1.0 - 1e-12:
        rs.append(1.0)
    return [r * np.exp(2j * np.pi * k / angles) for r in rs for k in range(angles)]


def check_charfn_csv(csv_text: str, t: np.ndarray, radii: int, angles: int) -> list[str]:
    """Compare every CSV row with the plain-numpy Theta; return the mismatches."""
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "re_z,im_z,singular_values,delta_norm":
        return ["charfn CSV header missing"]
    rows = lines[1:]
    grid = expected_grid(t, radii, angles)
    if len(rows) != len(grid):
        return [f"charfn CSV has {len(rows)} rows, expected {len(grid)}"]
    bad = []
    for row, z_exp in zip(rows, grid):
        re_z, im_z, svs, _ = row.split(",")
        z = complex(float(re_z), float(im_z))
        if abs(z - z_exp) > 1e-11:
            bad.append(f"grid point {z} != {z_exp}")
            continue
        got = np.array([float(s) for s in svs.split(";")])
        want = theta_singular_values(t, z)
        if got.shape != want.shape:
            bad.append(f"z={z:.3f}: {got.size} singular values, expected {want.size}")
        elif np.max(np.abs(got - want)) > SV_TOL:
            bad.append(f"z={z:.3f}: singular values off by {np.max(np.abs(got - want)):.2e}")
    return bad


def _matrix(obj: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["data"]])
    return flat.reshape(obj["rows"], obj["cols"])


def judge_charfn(outcome, task) -> Judgement:
    """Check the charfn grid, the triple's Theta samples and the coincidence report."""
    j = Judgement()
    if outcome.error:
        j.problem(f"raised {outcome.error.strip().splitlines()[-1]}", expected=False)
        return j
    t = task.pair.product()
    for cmd in ("charfn", "triple"):
        if outcome.rc.get(cmd) != 0:
            j.problem(f"qdilate {cmd} exited {outcome.rc.get(cmd)}", expected=False)
    if outcome.rc.get("charfn") == 0:
        for text in check_charfn_csv(outcome.outputs["charfn"], t, *task.grid):
            j.problem(text, expected=False)
    if outcome.rc.get("triple") == 0:
        triple = json.loads(outcome.outputs["triple"])
        for sample in triple["theta_samples"]:
            z = complex(*sample["z"])
            got = np.linalg.svd(_matrix(sample["theta"]), compute_uv=False)
            want = theta_singular_values(t, z)
            if got.shape != want.shape or np.max(np.abs(got - want)) > SV_TOL:
                j.problem(f"triple Theta({z.real:.1f}) singular values differ", expected=False)
    coincidence = outcome.outputs["coincidence"]
    for rec in coincidence.records:
        if not rec.passed:
            j.problem(f"coincidence/{rec.check_id} failed", expected=False)
    return j
