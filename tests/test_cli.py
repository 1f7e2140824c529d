import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdilate as qd
from qdilate import ando, cli, hardy, lifts, matcore, model, pseudolift, qpair
from qdilate.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    assert run(["gen", "clock-shift:n=3,scale=0.9", "--out", path]) == 0
    return path


class TestGen:
    def test_generates_valid_pair(self, tmp_path):
        path = tmp_path / "p.json"
        assert run(["gen", "clock-shift:n=4,scale=1", "--out", path]) == 0
        pair = qpair.pair_from_json(json.loads(path.read_text()))
        assert pair.dim == 4

    def test_nilpotent_with_decimal_twist(self, tmp_path):
        path = tmp_path / "p.json"
        assert run(["gen", "nilpotent:n=3,q=0.5403+0.8415i,c=0.9,d=0.9",
                    "--out", path]) == 0
        pair = qpair.pair_from_json(json.loads(path.read_text()))
        assert abs(abs(pair.q) - 1.0) < 1e-15

    def test_malformed_spec(self, capsys):
        assert run(["gen", "clock-shift:n"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_unknown_generator(self):
        assert run(["gen", "weighted-shift:n=3"]) == 2

    @pytest.mark.parametrize("spec,name", [
        ("nilpotent:n=3,q=nan,c=0.9,d=0.8", "twist q"),
        ("nilpotent:n=3,q=nan+1i,c=0.9,d=0.8", "twist q"),
        ("nilpotent:n=3,q=1,c=nan,d=0.8", "|c|"),
        ("nilpotent:n=3,q=1,c=0.9,d=0.5+nani", "|d|"),
    ])
    def test_nan_parameter_is_a_generator_error(self, spec, name, capsys):
        assert run(["gen", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("generator error:") and name in err, err


class TestVerify:
    def test_all_suites_pass(self, pair_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify", "--pair", pair_file, "--trunc", 12,
                    "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["overall"] is True
        assert all("anchor" in r for r in rep["records"])

    def test_unitary_pair_triple_skip(self, tmp_path):
        path = tmp_path / "u.json"
        run(["gen", "clock-shift:n=3,scale=1", "--out", path])
        out = tmp_path / "rep.json"
        assert run(["verify", "--pair", path, "--trunc", 8, "--out", out]) == 0
        rep = json.loads(out.read_text())
        skips = [r for r in rep["records"] if r["skipped"]]
        assert any("not-cnu" in r["id"] for r in skips)
        assert rep["overall"] is True

    def test_invalid_pair_exits_1(self, tmp_path):
        obj = qpair.pair_to_json(qd.gen_clock_shift(2, 0.9))
        obj["q"] = [0.5, 0.0]  # not unimodular
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run(["verify", "--pair", path]) == 1

    def test_nan_twist_exits_1(self, tmp_path, capsys):
        # |NaN| - 1 compares False with every tolerance; the unimodularity
        # check must still reject it as a validation failure
        obj = qpair.pair_to_json(qd.gen_clock_shift(2, 0.9))
        obj["q"] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        assert run(["verify", "--pair", path]) == 1
        assert "validation failure" in capsys.readouterr().err

    def test_twist_just_off_the_circle_passes(self, tmp_path):
        # a hand-typed q within validate's 1e-12 of the circle, yet about
        # 4000 ulp off it: every phase table must still be built
        path, out = tmp_path / "p.json", tmp_path / "rep.json"
        run(["gen", "nilpotent:n=3,q=-0.5+0.8660254037844386i,c=0.9,d=0.8", "--out", path])
        obj = json.loads(path.read_text())
        obj["q"] = [-0.5, 0.866025403785]
        assert 4e-13 < abs(complex(*obj["q"])) - 1 < 1e-12
        path.write_text(json.dumps(obj))
        assert run(["verify", "--pair", path, "--trunc", 6, "--out", out]) == 0
        assert json.loads(out.read_text())["overall"] is True

    def test_unreadable_input_exits_2(self, tmp_path, pair_file):
        path = tmp_path / "junk.json"
        bad_entry = qpair.pair_to_json(qd.gen_clock_shift(2, 0.9))
        bad_entry["T1"]["data"][0] = [0.5]
        for text in ("{not json", "{}", "[1, 2]", json.dumps(bad_entry)):
            path.write_text(text)
            assert run(["verify", "--pair", path]) == 2, text
        assert run(["verify", "--pair", tmp_path / "missing.json"]) == 2
        assert run(["charfn", "--pair", pair_file, "--grid=-1x4"]) == 2
        assert run(["verify", "--pair", pair_file, "--trunc", -1]) == 2

    def test_unknown_suite_exits_2(self, pair_file):
        assert run(["verify", "--pair", pair_file, "--suites", "nope"]) == 2

    def test_empty_suite_list_exits_2(self, pair_file, capsys):
        # an empty --suites names no suite; it is not the default of all eight
        assert run(["verify", "--pair", pair_file, "--suites", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown suite ''" in captured.err

    def test_repeated_suite_exits_2(self, pair_file, capsys):
        # a suite run twice writes each of its ids twice, and a reader keyed
        # by id keeps only one of them
        assert run(["verify", "--pair", pair_file, "--suites",
                    "fundamental,canonical,fundamental"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'fundamental' named twice" in captured.err

    def test_byte_stable(self, pair_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        run(["verify", "--pair", pair_file, "--trunc", 10, "--out", out1])
        run(["verify", "--pair", pair_file, "--trunc", 10, "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_suite_subset(self, pair_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify", "--pair", pair_file, "--suites",
                    "ando,fundamental", "--out", out]) == 0
        rep = json.loads(out.read_text())
        ids = {r["id"].split("/")[0] for r in rep["records"]}
        assert ids == {"ando", "fundamental"}

    def test_failed_tuple_built_once(self, tmp_path, monkeypatch):
        # both Ando tuples of this pair fail to build; each is built once per
        # verify, and every suite that reads one reports the stored error
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(qpair.pair_to_json(qd.gen_clock_shift(3, 1 - 1e-9))))
        builds = []
        build = ando.special_ando_tuple

        def counted(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(ando, "special_ando_tuple", counted)
        monkeypatch.setattr(model, "special_ando_tuple", counted)
        out = tmp_path / "all.json"
        assert run(["verify", "--pair", path, "--out", out]) == 1
        assert len(builds) == 2
        # a run per suite builds everything afresh: the same records, byte for byte
        fresh = []
        for suite in cli.SUITES:
            one = tmp_path / f"{suite}.json"
            run(["verify", "--pair", path, "--suites", suite, "--out", one])
            fresh += json.loads(one.read_text())["records"]
        cached = json.loads(out.read_text())["records"]
        assert sum(r["id"].endswith("/error") for r in cached) == 7
        assert ([json.dumps(r, sort_keys=True) for r in cached]
                == [json.dumps(r, sort_keys=True) for r in fresh])

    def test_pseudo_lift_built_once(self, pair_file, tmp_path, monkeypatch):
        # the douglas and pseudo suites share one Douglas pseudo lift, and the
        # Douglas lift dresses its observability column
        obs_builds, pseudo_builds = [], []
        obs_op, pseudo_triple = hardy.obs_op, lifts.PseudoTriple

        def counted_obs(*args, **kwargs):
            obs_builds.append(1)
            return obs_op(*args, **kwargs)

        def counted_triple(*args, **kwargs):
            pseudo_builds.append(1)
            return pseudo_triple(*args, **kwargs)

        monkeypatch.setattr(hardy, "obs_op", counted_obs)
        monkeypatch.setattr(lifts, "PseudoTriple", counted_triple)
        out = tmp_path / "rep.json"
        assert run(["verify", "--pair", pair_file, "--trunc", 8, "--out", out]) == 0
        assert (len(obs_builds), len(pseudo_builds)) == (1, 1)

    def test_tol_moves_no_gate(self, tmp_path):
        # --tol is the tolerance of pair validation only: every record of
        # verify reads as in the default run
        path = tmp_path / "p.json"
        run(["gen", "nilpotent:n=3,q=-1,c=0.9,d=0.8", "--out", path])
        records = []
        for tol in ([], ["--tol", "1e-3"]):
            out = tmp_path / "rep.json"
            assert run(["verify", "--pair", path, "--trunc", 12, *tol, "--out", out]) == 0
            records.append([(r["id"], r["tolerance"], r["pass"], r["residual"])
                            for r in json.loads(out.read_text())["records"]])
        assert len(records[0]) == 73 and records[0] == records[1]

    def test_shared_intertwinings_computed_once(self, pair_file, tmp_path, monkeypatch):
        # gform-intertwine-i of the douglas suite and lift-lift-wi of the
        # pseudo suite are one residual on the cached Douglas pseudo lift:
        # 2 schaffer + 2 douglas + 2 shared + lift-lift-w
        calls = []
        residual = lifts.intertwining_residual

        def counted(*args):
            calls.append(1)
            return residual(*args)

        monkeypatch.setattr(lifts, "intertwining_residual", counted)
        monkeypatch.setattr(pseudolift, "intertwining_residual", counted)
        out = tmp_path / "rep.json"
        assert run(["verify", "--pair", pair_file, "--suites", "schaffer,douglas,pseudo",
                    "--trunc", 8, "--out", out]) == 0
        assert len(calls) == 7
        rec = {r["id"]: r for r in json.loads(out.read_text())["records"]}
        for i in (1, 2):
            assert (rec[f"douglas/gform-intertwine-{i}"]["residual"]
                    == rec[f"pseudo/lift-lift-w{i}"]["residual"])

    def test_unitary_part_computed_once(self, pair_file, tmp_path, monkeypatch):
        # the cnu split is the one place that takes the power limit: the
        # canonical pair and the triple read its Q, and no eigendecomposition
        # of T is made
        limits, eigs = [], []
        power_limit, eig = matcore.power_limit, np.linalg.eig

        def counted_limit(*args, **kwargs):
            limits.append(1)
            return power_limit(*args, **kwargs)

        def counted_eig(*args, **kwargs):
            eigs.append(1)
            return eig(*args, **kwargs)

        monkeypatch.setattr(matcore, "power_limit", counted_limit)
        monkeypatch.setattr(np.linalg, "eig", counted_eig)
        out = tmp_path / "rep.json"
        assert run(["verify", "--pair", pair_file, "--trunc", 8, "--out", out]) == 0
        assert (len(limits), len(eigs)) == (1, 0)


class TestCharfn:
    def test_scalar_blaschke_grid(self, tmp_path):
        # 1-dim pair with product 0.5: |Theta| matches |(z-c)/(1-cz)|
        obj = {
            "q": [1.0, 0.0],
            "T1": {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]},
            "T2": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
        }
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "grid.csv"
        assert run(["charfn", "--pair", path, "--grid", "4x8", "--out", out]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        checked = 0
        for row in rows:
            re_z, im_z, svals, dnorm = row.split(",")
            z = complex(float(re_z), float(im_z))
            sv = float(svals.split(";")[0])
            expected = abs((z - 0.5) / (1 - 0.5 * z))
            assert abs(sv - expected) < 1e-12
            if dnorm:
                assert float(dnorm) < 1e-7  # boundary rows carry ||Delta||
                checked += 1
        assert checked  # boundary rows present for a cnu product

    def test_boundary_delta_column(self, pair_file, tmp_path):
        # I - Theta*Theta = (1 - r^2) Y*Y vanishes on the boundary ring: the
        # column reads exactly 0 there, not the square root of rounding
        out = tmp_path / "grid.csv"
        assert run(["charfn", "--pair", pair_file, "--grid", "2x8", "--out", out]) == 0
        ring = [row.split(",") for row in out.read_text().strip().splitlines()[1:]
                if not row.endswith(",")]
        assert len(ring) == 8
        for k, row in enumerate(ring):
            z = 1.0 * np.exp(2j * np.pi * k / 8)
            assert row[:2] == [f"{z.real:.12e}", f"{z.imag:.12e}"]
            assert row[3] == f"{0.0:.12e}"

    @pytest.mark.parametrize("spec", ["nilpotent:n=6,q=0.5403+0.8415i,c=0.9,d=0.9",
                                      "clock-shift:n=6,scale=0.9"])
    def test_delta_column_matches_the_square_root_route(self, spec, tmp_path):
        # inside the disk the resolvent identity gives the spectral norm of the
        # formed square root (I - Theta*Theta)^{1/2}; the ring at r = 1 reads 0
        path, out = tmp_path / "p.json", tmp_path / "grid.csv"
        assert run(["gen", spec, "--out", path]) == 0
        pair = qpair.pair_from_json(json.loads(path.read_text()))
        theta = model.CharFn(pair.product())
        for r in (0.0, 0.1, 0.5, 0.9):
            for k in range(24):
                z = r * np.exp(2j * np.pi * k / 24)
                old = matcore.opnorm(model.theta_defect(theta(z)))
                assert abs(theta.defect_norm(z, r) - old) <= 1e-12 * old, (r, k)
        assert run(["charfn", "--pair", path, "--grid", "1x24", "--out", out]) == 0
        ring = [row.split(",") for row in out.read_text().strip().splitlines()[1:]
                if not row.endswith(",")]
        assert [row[3] for row in ring] == [f"{0.0:.12e}"] * 24

    def test_validates_once(self, pair_file, tmp_path, monkeypatch):
        calls = []
        check = matcore.check_contraction

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(matcore, "check_contraction", counted)
        out = tmp_path / "grid.csv"
        assert run(["charfn", "--pair", pair_file, "--grid", "4x8", "--out", out]) == 0
        assert len(calls) <= 5

    def test_unitary_product_header_only(self, tmp_path):
        path = tmp_path / "u.json"
        run(["gen", "clock-shift:n=2,scale=1", "--out", path])
        out = tmp_path / "grid.csv"
        assert run(["charfn", "--pair", path, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("#")


class TestOtherCommands:
    def test_triple_json(self, tmp_path):
        path = tmp_path / "p.json"
        run(["gen", "nilpotent:n=2,q=i,c=0.8,d=0.8", "--out", path])
        out = tmp_path / "triple.json"
        assert run(["triple", "--pair", path, "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["unitary_part_dim"] == 0
        assert obj["defect_dims"]["dstar"] >= 1

    def test_triple_unitary_fails(self, tmp_path):
        path = tmp_path / "p.json"
        run(["gen", "clock-shift:n=2,scale=1", "--out", path])
        assert run(["triple", "--pair", path]) == 1

    def test_lift_command(self, pair_file, tmp_path):
        out = tmp_path / "lift.json"
        dump = tmp_path / "tuple.json"
        assert run(["lift", "--pair", pair_file, "--kind", "schaffer",
                    "--trunc", 10, "--out", out, "--dump-ando", dump]) == 0
        assert json.loads(out.read_text())["overall"] is True
        tup = json.loads(dump.read_text())
        assert {"d1_dim", "d2_dim", "e_dim", "lambda", "p", "u"} <= set(tup)
        assert run(["lift", "--pair", pair_file, "--kind", "douglas",
                    "--trunc", 10, "--out", out]) == 0

    def test_lift_writes_its_report_to_out(self, pair_file, tmp_path, capsys):
        out = tmp_path / "lift.json"
        assert run(["lift", "--pair", pair_file, "--kind", "douglas", "--trunc", 6,
                    "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(out.read_text())["overall"] is True
        assert "[PASS]" in captured.err

    def test_pseudo_with_perturbation(self, pair_file, tmp_path):
        out = tmp_path / "ps.json"
        assert run(["pseudo", "--pair", pair_file, "--trunc", 10,
                    "--perturb", 0.01, "--out", out]) == 0
        rep = json.loads(out.read_text())
        ids = {r["id"]: r for r in rep["records"]}
        assert ids["perturbation-rejected"]["pass"] is True

    def test_pseudo_tol_sets_no_gate(self, tmp_path):
        # exactly q-commuting, so --tol 1e-30 passes validation; the axioms
        # and intertwinings keep their fixed 1e-9
        path, out = tmp_path / "p.json", tmp_path / "ps.json"
        run(["gen", "nilpotent:n=3,q=-1,c=0.9,d=0.8", "--out", path])
        assert run(["pseudo", "--pair", path, "--trunc", 10, "--tol", "1e-30",
                    "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["environment"]["tol"] == 1e-9
        gated = [r for r in rep["records"] if r["id"] != "lift-minimality"]
        assert len(gated) == 8 and all(r["tolerance"] == 1e-9 for r in gated)

    def test_demo(self, tmp_path):
        out = tmp_path / "demo.json"
        assert run(["demo", "--trunc", 8, "--out", out]) == 0
        assert json.loads(out.read_text())["overall"] is True

    def test_demo_trunc_too_small(self):
        assert run(["demo", "--trunc", 1]) == 2


def fresh_python(args, tmp_path):
    """Run the interpreter with `args` in a new process that imports this
    checkout's `qdilate`; return the finished process."""
    src = str(Path(qd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *map(str, args)],
                          cwd=tmp_path, env=env, capture_output=True, timeout=300)


def fresh_run(args, tmp_path):
    """Run `qdilate` in a new interpreter; return its exit code."""
    return fresh_python(["-m", "qdilate.cli", *args], tmp_path).returncode


class TestImports:
    # scipy.linalg costs about 0.14 s and 27 MB of start-up; qdilate uses
    # numpy alone, so no command loads any scipy module
    SCIPY = "[m for m in sys.modules if m.startswith('scipy')]"

    def test_import_loads_no_scipy(self, tmp_path):
        done = fresh_python(["-c", f"import sys, qdilate, qdilate.cli; print({self.SCIPY})"],
                            tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines()[-1] == "[]", done.stdout

    def test_gen_charfn_and_triple_leave_scipy_unloaded(self, tmp_path):
        script = ("import sys\n"
                  "from qdilate import cli\n"
                  "rc = [cli.main(['gen', 'clock-shift:n=16,scale=0.9', '--out', 'p.json']), "
                  "cli.main(['charfn', '--pair', 'p.json', '--grid', '12x24', "
                  "'--out', 'grid.csv']), "
                  "cli.main(['triple', '--pair', 'p.json', '--out', 'triple.json'])]\n"
                  f"print(rc, {self.SCIPY})\n")
        done = fresh_python(["-c", script], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines()[-1] == "[0, 0, 0] []", done.stdout
        assert (tmp_path / "grid.csv").read_text().startswith("re_z,im_z,")
        assert json.loads((tmp_path / "triple.json").read_text())["defect_dims"]

    def test_pseudo_suite_leaves_sparse_linalg_unloaded(self, pair_file, tmp_path):
        # every norm on the pseudo path is a pass over stored entries or a
        # dense numpy call; no scipy module, scipy.sparse.linalg and
        # scipy.sparse.csgraph among them, is loaded
        script = ("import sys, qdilate\n"
                  "from qdilate import cli\n"
                  f"rc = cli.main(['verify', '--pair', {str(pair_file)!r}, "
                  "'--suites', 'pseudo', '--out', 'rep.json'])\n"
                  f"print(rc, {self.SCIPY})\n")
        done = fresh_python(["-c", script], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines()[-1] == "0 []", done.stdout
        assert json.loads((tmp_path / "rep.json").read_text())["overall"] is True

    def test_verify_and_perturbed_pseudo_leave_scipy_sparse_unloaded(self, pair_file,
                                                                     tmp_path):
        # all eight verify suites (the Ando completion and the symbol norms
        # among them) and the perturbed pseudo triple; lift-space operators
        # stay in block form, so scipy.sparse too stays unloaded
        script = ("import sys\n"
                  "from qdilate import cli\n"
                  f"rc = [cli.main(['verify', '--pair', {str(pair_file)!r}, "
                  "'--out', 'rep.json']), "
                  f"cli.main(['pseudo', '--pair', {str(pair_file)!r}, '--perturb', '0.01', "
                  "'--out', 'pseudo.json'])]\n"
                  f"print(rc, {self.SCIPY})\n")
        done = fresh_python(["-c", script], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines()[-1] == "[0, 0] []", done.stdout
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["overall"] is True
        assert len(report["environment"]["suites"]) == 8
        records = json.loads((tmp_path / "pseudo.json").read_text())["records"]
        assert next(r for r in records if r["id"] == "perturbation-rejected")["pass"] is True

    def test_lifts_and_demo_leave_scipy_unloaded(self, pair_file, tmp_path):
        pair = str(pair_file)
        script = ("import sys\n"
                  "from qdilate import cli\n"
                  f"rc = [cli.main(['lift', '--pair', {pair!r}, '--kind', 'schaffer', "
                  "'--out', 'schaffer.json']), "
                  f"cli.main(['lift', '--pair', {pair!r}, '--kind', 'douglas', "
                  "'--out', 'douglas.json']), "
                  "cli.main(['demo', '--trunc', '6', '--out', 'demo.json'])]\n"
                  f"print(rc, {self.SCIPY})\n")
        done = fresh_python(["-c", script], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines()[-1] == "[0, 0, 0] []", done.stdout
        for kind in ("schaffer", "douglas"):
            assert json.loads((tmp_path / f"{kind}.json").read_text())["overall"] is True


# the options each command reads, and nothing else
COMMAND_OPTIONS = {
    "gen": {"spec", "--out"},
    "verify": {"--pair", "--trunc", "--tol", "--suites", "--out"},
    "lift": {"--pair", "--trunc", "--tol", "--kind", "--out", "--dump-ando"},
    "charfn": {"--pair", "--tol", "--grid", "--out"},
    "triple": {"--pair", "--tol", "--out"},
    "pseudo": {"--pair", "--trunc", "--tol", "--seed", "--perturb", "--out"},
    "demo": {"--trunc", "--out"},
}


def command_argv(command, pair_file):
    """The shortest argv of `command` that its parser accepts."""
    return {"gen": ["gen", "clock-shift:n=2,scale=0.9"],
            "lift": ["lift", "--pair", pair_file, "--kind", "douglas"],
            "demo": ["demo"]}.get(command, [command, "--pair", pair_file])


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_each_command_declares_only_what_it_reads(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        declared = {name: {a.option_strings[0] if a.option_strings else a.dest
                           for a in p._actions if a.dest != "help"}
                    for name, p in sub.choices.items()}
        assert declared == COMMAND_OPTIONS
        assert sum(map(len, declared.values())) == 28

    @pytest.mark.parametrize("command,option,value", [
        ("gen", "--trunc", 3), ("gen", "--tol", 5), ("gen", "--seed", 7),
        ("verify", "--seed", 3), ("lift", "--seed", 1), ("lift", "--report", "r.json"),
        ("charfn", "--trunc", 50), ("charfn", "--seed", 50),
        ("triple", "--trunc", 50), ("triple", "--seed", 50),
        ("demo", "--tol", 1), ("demo", "--seed", 9),
    ])
    def test_removed_option_exits_2(self, command, option, value, pair_file, capsys):
        assert option not in COMMAND_OPTIONS[command]
        with pytest.raises(SystemExit) as exc:
            run([*command_argv(command, pair_file), option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err

    def test_no_option_leaks_between_calls(self, pair_file, tmp_path):
        # every option of the first call differs from its default; the second
        # call must see the defaults, as a fresh process does
        first = ["verify", "--pair", pair_file, "--suites", "fundamental,canonical",
                 "--trunc", 3, "--tol", 1e-6]
        second = ["verify", "--pair", pair_file, "--suites", "triple"]
        for name, args in (("first", first), ("second", second)):
            assert run([*args, "--out", tmp_path / f"{name}-in.json"]) == 0
        for name, args in (("first", first), ("second", second)):
            assert fresh_run([*args, "--out", tmp_path / f"{name}-fresh.json"], tmp_path) == 0
            in_process = (tmp_path / f"{name}-in.json").read_bytes()
            assert in_process == (tmp_path / f"{name}-fresh.json").read_bytes(), name
        env = json.loads((tmp_path / "second-in.json").read_text())["environment"]
        assert env == {"trunc": hardy.DEFAULT_TRUNC, "tol": 1e-9, "suites": ["triple"]}


@pytest.fixture()
def non_commuting_file(tmp_path):
    # q = 1 and T1 T2 - T2 T1 = diag(1/4, -1/4): passes validation only at a
    # tolerance that checks nothing
    path = tmp_path / "nc.json"
    t1, t2 = np.array([[0.0, 0.5], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.0]])
    path.write_text(json.dumps({"q": [1.0, 0.0], "T1": matcore.matrix_to_json(t1),
                                "T2": matcore.matrix_to_json(t2)}))
    return path


class TestOptionRanges:
    def test_trunc_must_be_at_least_0(self, pair_file, capsys):
        for command in sorted(c for c, opts in COMMAND_OPTIONS.items() if "--trunc" in opts):
            assert run([*command_argv(command, pair_file), "--trunc", -1]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --trunc must be at least 0, got -1\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_at_least_0(self, value, non_commuting_file, capsys):
        for command in sorted(c for c, opts in COMMAND_OPTIONS.items() if "--tol" in opts):
            assert run([*command_argv(command, non_commuting_file), "--tol", value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: --tol must be finite and at least 0, "
                                    f"got {float(value)}\n")

    @pytest.mark.parametrize("value", ["-0.01", "0", "nan", "inf"])
    def test_perturb_must_be_finite_and_above_0(self, value, pair_file, capsys):
        assert run(["pseudo", "--pair", pair_file, "--trunc", 4, "--perturb", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --perturb must be finite and above 0, "
                                f"got {float(value)}\n")


def json_leaves():
    floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
        [-0.0, 5e-324, -5e-324, 1e308, -1e308, float("nan"), float("inf"), float("-inf")])
    return floats | st.integers() | st.booleans() | st.none() | st.text(max_size=6)


@st.composite
def matrices(draw):
    """`matrix_to_json` of a random complex matrix; either side may be 0."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    return matcore.matrix_to_json(
        scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))))


def pair_lists():
    """Lists of two-item lists: float pairs (any float), and near misses."""
    floats = json_leaves().filter(lambda x: type(x) is float)
    pair = st.lists(floats, min_size=2, max_size=2)
    near = st.lists(json_leaves(), min_size=1, max_size=3) | st.tuples(floats, floats)
    return st.lists(pair, max_size=4) | st.lists(pair | near, min_size=1, max_size=4)


json_objects = st.recursive(
    json_leaves() | matrices() | pair_lists(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_objects)
    @example({"m": matcore.matrix_to_json(np.array([[-0.0 + 5e-324j, 1e308 - 0.0j]]))})
    @example([matcore.matrix_to_json(np.zeros((0, 3))), matcore.matrix_to_json(np.zeros((3, 0)))])
    @example({"nan": [[float("nan"), float("inf")], [float("-inf"), -0.0]]})
    @example([[1.0, 2], [True, 1.0], (1.0, 2.0), [1.0, 2.0, 3.0]])
    @example({"b": {"a": [[0.5, -0.0]], "c": {}}, "a": [], "d": {2: [[0.5, 1.0]], 1: "x"}})
    def test_matches_json_dumps(self, obj):
        assert cli.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_triple_reads_back(self, tmp_path):
        path = tmp_path / "p.json"
        assert run(["gen", "nilpotent:n=4,q=i,c=0.9,d=0.8",
                    "--out", path]) == 0
        out = tmp_path / "triple.json"
        assert run(["triple", "--pair", path, "--out", out]) == 0
        text = out.read_text()
        obj = json.loads(text)
        assert text == json.dumps(obj, indent=2, sort_keys=True)
        triple = model.char_triple(qpair.pair_from_json(json.loads(path.read_text())))
        assert np.array_equal(matcore.matrix_from_json(obj["G1"]), triple.fundamental.g1)
        assert np.array_equal(matcore.matrix_from_json(obj["G2"]), triple.fundamental.g2)
        for sample in obj["theta_samples"]:
            z = complex(*sample["z"])
            assert np.array_equal(matcore.matrix_from_json(sample["theta"]), triple.theta(z))

    def test_gen_and_dump_ando_match_json_dumps(self, pair_file, tmp_path):
        dump = tmp_path / "tuple.json"
        assert run(["lift", "--pair", pair_file, "--kind", "douglas", "--trunc", 4,
                    "--out", tmp_path / "rep.json", "--dump-ando", dump]) == 0
        for path in (pair_file, dump):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
