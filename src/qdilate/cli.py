"""Command-line front end: pair generation, verification suites, lifts,
characteristic-function grids, demos.

Exit codes: 0 all checks pass, 1 a check or pair validation failed,
2 unreadable or malformed input.  Reports are JSON with sorted keys so a
fixed input and options always produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import ando, hardy, lifts, matcore, model, pseudolift, qpair
from .errors import NotCnuError, ParseError, QDilateError
from .report import Report, dumps


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text)


def _emit(rep: Report, out: str | None) -> int:
    """Write a report's JSON, print its summary lines to stderr, and return
    the exit code: 0 if every check passes, else 1."""
    _write_or_print(rep.to_json(), out)
    for line in rep.summary_lines():
        print(line, file=sys.stderr)
    return 0 if rep.overall else 1


def _load_pair(path: str, tol: float):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read pair file {path}: {exc}", file=sys.stderr)
        return None, 2
    try:
        return qpair.pair_from_json(raw, tol=tol), 0
    except ParseError as exc:
        print(f"error: bad pair file {path}: {exc}", file=sys.stderr)
        return None, 2
    except QDilateError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return None, 1


def cmd_gen(args) -> int:
    try:
        pair = qpair.from_spec(args.spec)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except QDilateError as exc:
        print(f"generator error: {exc}", file=sys.stderr)
        return 2
    text = dumps(qpair.pair_to_json(pair))
    _write_or_print(text, args.out)
    print(f"generated {args.spec}: dim {pair.dim}, q = {pair.q:.6f}, "
          f"||T1 T2 - q T2 T1|| = "
          f"{matcore.frob(pair.t1 @ pair.t2 - pair.q * pair.t2 @ pair.t1):.3e}",
          file=sys.stderr)
    return 0


def _suite_ando(an, n):
    rep = Report("ando")
    rep.merge(ando.verify_tuple_invariants(an.tup, an.pair))
    rep.merge(ando.verify_prop1(an.tup, an.pair), prefix="fwd-")
    rep.merge(ando.verify_prop2(an.star, an.pair), prefix="star-")
    return rep


def _suite_schaffer(an, n):
    lift = lifts.schaffer_lift(an.pair, an.tup, n)
    rep = lifts.verify_lift(lift, an)
    rep.merge(lifts.minimality_check(lift))
    _, ext = lifts.extract_ando_from_lift(lift, an)
    rep.merge(ext, prefix="extract-")
    return rep


def _suite_douglas(an, n):
    lift = lifts.douglas_lift(an, n)
    rep = lifts.verify_lift(lift, an)
    rep.merge(lifts.minimality_check(lift))
    return rep


def _suite_fundamental(an, n):
    rep = Report("fundamental")
    fund = an.fundamental
    rep.check("fundamental-equations",
              "D_{T*} G_i D_{T*} matches the defining right-hand sides",
              fund.funeq_residual, 1e-10)
    rep.check("pseudoinverse-oracle",
              "tuple formula agrees with the least-squares solution",
              fund.oracle_gap, 1e-9)
    rep.check("contractive", "||G_i|| <= 1",
              max(0.0, max(matcore.opnorm(fund.g1), matcore.opnorm(fund.g2)) - 1.0),
              1e-9)
    return rep


def _suite_canonical(an, n):
    return model.verify_canonical_pair(an.canonical, an.pair)


def _suite_triple(an, n):
    return model.verify_triple(an)


def _suite_pseudo(an, n):
    pi, triple = pseudolift.douglas_pseudo_lift(an, n)
    rep = pseudolift.is_pseudo_triple(triple)
    rep.merge(pseudolift.is_pseudo_lift(pi, triple, an), prefix="lift-")
    rep.merge(pseudolift.taylor_rigidity(triple, an), prefix="taylor-")
    return rep


def _suite_model(an, n):
    rep = Report("model")
    try:
        comp = model.model_compress(an)
    except NotCnuError as exc:
        rep.skip("not-cnu", "functional model needs a cnu product", note=str(exc))
        return rep
    rep.merge(comp.report)
    return rep


_SUITE_FNS = {
    "ando": _suite_ando,
    "schaffer": _suite_schaffer,
    "douglas": _suite_douglas,
    "fundamental": _suite_fundamental,
    "canonical": _suite_canonical,
    "triple": _suite_triple,
    "pseudo": _suite_pseudo,
    "model": _suite_model,
}
SUITES = tuple(_SUITE_FNS)


def cmd_verify(args) -> int:
    pair, rc = _load_pair(args.pair, args.tol)
    if pair is None:
        return rc
    suites = list(SUITES) if args.suites is None else args.suites.split(",")
    for k, s in enumerate(suites):
        if s not in _SUITE_FNS:
            print(f"error: unknown suite {s!r}; choose from {','.join(SUITES)}",
                  file=sys.stderr)
            return 2
        if s in suites[:k]:
            print(f"error: suite {s!r} named twice", file=sys.stderr)
            return 2
    master = Report("verify", {"trunc": args.trunc, "tol": args.tol, "suites": suites})
    an = model.PairAnalysis(pair)
    for s in suites:
        try:
            rep = _SUITE_FNS[s](an, args.trunc)
            master.merge(rep, prefix=f"{s}/")
        except QDilateError as exc:
            master.require(f"{s}/error", f"suite {s} raised", False, note=str(exc))
    return _emit(master, args.out)


def cmd_charfn(args) -> int:
    pair, rc = _load_pair(args.pair, args.tol)
    if pair is None:
        return rc
    try:
        radii_n, angles_n = (int(x) for x in args.grid.split("x"))
        if min(radii_n, angles_n) < 1:
            raise ValueError("grid counts must be at least 1")
    except ValueError:
        print(f"error: bad grid spec {args.grid!r}, expected RxA with R, A >= 1",
              file=sys.stderr)
        return 2
    t = pair.product()
    theta_fn = model.CharFn(t)
    lines = ["re_z,im_z,singular_values,delta_norm"]
    if theta_fn.dt.dim == 0:
        lines.append("# empty defect: product is unitary, Theta lives on {0}")
        _write_or_print("\n".join(lines) + "\n", args.out)
        return 0
    boundary_ok = all(abs(ev) < 1.0 - 1e-12 for ev in np.linalg.eigvals(t))
    radii = list(np.linspace(0.1, 0.9, radii_n))
    if boundary_ok:
        radii.append(1.0)
    done = 0
    for zs, thetas in theta_fn.grid(radii, angles_n):
        for z, svals in zip(zs, np.linalg.svd(thetas, compute_uv=False)):
            sv_text = ";".join(map("{:.12e}".format, svals.tolist()))
            r = radii[done // angles_n]
            d_text = f"{theta_fn.defect_norm(z, r):.12e}" if r == 1.0 else ""
            lines.append(f"{z.real:.12e},{z.imag:.12e},{sv_text},{d_text}")
            done += 1
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_triple(args) -> int:
    pair, rc = _load_pair(args.pair, args.tol)
    if pair is None:
        return rc
    try:
        triple = model.char_triple(pair)
    except NotCnuError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    samples = [{"z": [float(z.real), float(z.imag)], "theta": matcore.matrix_to_json(theta)}
               for zs, thetas in triple.theta.many([0.0, 0.3, 0.6, 0.9])
               for z, theta in zip(zs, thetas)]
    obj = {
        "q": [float(pair.q.real), float(pair.q.imag)],
        "G1": matcore.matrix_to_json(triple.fundamental.g1),
        "G2": matcore.matrix_to_json(triple.fundamental.g2),
        "unitary_part_dim": triple.unitary_dim,
        "q_norm": triple.q_residual,
        "defect_dims": {"dt": triple.dt.dim, "dstar": triple.dstar.dim},
        "theta_samples": samples,
    }
    _write_or_print(dumps(obj), args.out)
    return 0


def cmd_lift(args) -> int:
    pair, rc = _load_pair(args.pair, args.tol)
    if pair is None:
        return rc
    an = model.PairAnalysis(pair)
    if args.kind == "schaffer":
        tup = an.tup
        rep = _suite_schaffer(an, args.trunc)
    else:
        tup = an.star
        rep = _suite_douglas(an, args.trunc)
    if args.dump_ando:
        Path(args.dump_ando).write_text(dumps(tup.to_json()), encoding="utf-8")
    return _emit(rep, args.out)


def cmd_pseudo(args) -> int:
    pair, rc = _load_pair(args.pair, args.tol)
    if pair is None:
        return rc
    an = model.PairAnalysis(pair)
    pi, triple = pseudolift.douglas_pseudo_lift(an, args.trunc)
    rep = pseudolift.is_pseudo_triple(triple)
    rep.merge(pseudolift.is_pseudo_lift(pi, triple, an), prefix="lift-")
    if args.perturb:
        bad = pseudolift.perturbed_triple(triple, args.perturb, seed=args.seed)
        bad_rep = pseudolift.is_pseudo_triple(bad)
        rep.require("perturbation-rejected",
                    f"perturbation of norm {args.perturb} of W1's degree-0 symbol "
                    "coefficient (its tail without a Hardy part) violates the axioms",
                    not bad_rep.overall and bad_rep.worst() >= 0.9 * args.perturb,
                    note=f"worst residual {bad_rep.worst():.3e}")
    return _emit(rep, args.out)


def cmd_demo(args) -> int:
    if args.trunc < 2:
        print("error: the demo needs --trunc >= 2", file=sys.stderr)
        return 2
    rep = lifts.nonisolifts_fixture(args.trunc)
    return _emit(rep, args.out)


# Every option of a command, written once: its argparse keywords and the
# range `main` checks a given value against, as (test, rule) or None.  Each
# command in `build_parser` names the options it reads, so none declares an
# option it never reads.
_OPTIONS = {
    "spec": ({"help": 'e.g. "clock-shift:n=4,scale=0.9" or '
                      '"nilpotent:n=3,q=0.5403+0.8415i,c=0.9,d=0.9"'}, None),
    "--pair": ({"required": True, "help": "pair JSON file"}, None),
    "--trunc": ({"type": int, "default": hardy.DEFAULT_TRUNC,
                 "help": "Hardy truncation degree, at least 0 (default 24)"},
                (lambda v: v >= 0, "at least 0")),
    "--tol": ({"type": float, "default": 1e-9,
               "help": "tolerance of pair validation only, finite and at "
                       "least 0; every check keeps the fixed tolerance its "
                       "report record carries (default 1e-9)"},
              (lambda v: 0 <= v < math.inf, "finite and at least 0")),
    "--suites": ({"help": f"comma-separated subset of {','.join(SUITES)}, "
                          "each named once"}, None),
    "--kind": ({"choices": ("schaffer", "douglas"), "required": True}, None),
    "--dump-ando": ({"help": "also write the defect tuple (Lambda, P, U) as JSON"}, None),
    "--grid": ({"default": "8x16", "help": "radii x angles (default 8x16)"}, None),
    "--seed": ({"type": int, "default": 0,
                "help": "seed of the --perturb block (default 0)"}, None),
    "--perturb": ({"type": float,
                   "help": "also add a block of this norm, finite and above 0, "
                           "to W1's degree-0 symbol coefficient (its tail "
                           "without a Hardy part)"},
                  (lambda v: 0 < v < math.inf, "finite and above 0")),
    "--out": ({"help": "output path (default stdout)"}, None),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qdilate` parser, built once per process: `parse_args` leaves it
    unchanged, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="qdilate",
        description="Construct and verify dilation/model objects for "
                    "q-commuting contraction pairs at finite truncation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, options in (
            ("gen", cmd_gen, "generate a pair from a spec string", ("spec", "--out")),
            ("verify", cmd_verify, "run verification suites on a pair",
             ("--pair", "--trunc", "--tol", "--suites", "--out")),
            ("lift", cmd_lift, "build a lift and verify its axioms",
             ("--pair", "--trunc", "--tol", "--kind", "--out", "--dump-ando")),
            ("charfn", cmd_charfn, "export a characteristic-function grid",
             ("--pair", "--tol", "--grid", "--out")),
            ("triple", cmd_triple, "emit the characteristic triple as JSON",
             ("--pair", "--tol", "--out")),
            ("pseudo", cmd_pseudo, "pseudo-lift axiom report",
             ("--pair", "--trunc", "--tol", "--seed", "--perturb", "--out")),
            ("demo", cmd_demo, "two non-equivalent minimal lifts of (0,0)",
             ("--trunc", "--out"))):
        p = sub.add_parser(name, help=text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option][0])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for option, (_, limits) in _OPTIONS.items():
        value = getattr(args, option.lstrip("-").replace("-", "_"), None)
        if limits and value is not None and not limits[0](value):
            print(f"error: {option} must be {limits[1]}, got {value}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except QDilateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
