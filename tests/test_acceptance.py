"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Desk scale: dims 1..6, truncations <= 32 except where a slow tail
forces a larger (still cheap) Hardy section.
"""

import ast
from pathlib import Path

import numpy as np

import qdilate as qd
from qdilate import lifts, model, pseudolift
from qdilate.matcore import adj, eye, frob, opnorm

from conftest import rand_vec
from model_oracle import truncated_compress


def conclude(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_ando_tuples(corpus):
    """Structural identities of both tuples < 1e-10 over the full corpus."""
    assert len(corpus) >= 50
    twists = {np.round(p.q, 9) for _, p, _ in corpus}
    assert len(twists) >= 5
    worst = 0.0
    for name, pair, _ in corpus:
        tup = qd.special_ando_tuple(pair)
        star = qd.star_ando_tuple(pair)
        r1 = qd.verify_prop1(tup, pair)
        r2 = qd.verify_prop2(star, pair)
        worst = max(worst, r1.worst(), r2.worst())
        if not (r1.overall and r2.overall):
            conclude(1, "tuple identities on the corpus", False, name)
    conclude(1, f"tuple identities on {len(corpus)} pairs",
             worst < 1e-10, f"worst residual {worst:.3e}")


def test_criterion_2_schaffer(corpus):
    """Inclusion-type lift: exact intertwining, budgeted isometry and
    q-commutation < 1e-10, extraction round trip < 1e-10."""
    n = 16
    worst_int = worst_ax = worst_ext = 0.0
    for name, pair, _ in corpus:
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, n)
        rep = qd.verify_lift(lift, pair)
        by_id = {r.check_id: r for r in rep.records}
        worst_int = max(worst_int, by_id["intertwine-v1"].residual,
                        by_id["intertwine-v2"].residual)
        worst_ax = max(worst_ax, by_id["isometry-v1"].residual,
                       by_id["isometry-v2"].residual, by_id["q-commute"].residual)
        frag, ext = qd.extract_ando_from_lift(lift, pair)
        worst_ext = max(worst_ext, ext.worst(), frob(frag.lam - tup.lam))
    ok = worst_int < 1e-11 and worst_ax < 1e-10 and worst_ext < 1e-10
    conclude(2, "inclusion-type lift axioms and extraction round trip", ok,
             f"intertwine {worst_int:.3e}, axioms {worst_ax:.3e}, "
             f"extract {worst_ext:.3e}")


def test_criterion_3_douglas(corpus):
    """Embedding energy identity to 1e-11 for 100 random h per pair;
    fundamental-operator intertwinings at 1e-9 on the rows the truncation
    keeps exact."""
    n = 20
    rng = np.random.default_rng(0)
    worst_energy = 0.0
    cor_ok = True
    for name, pair, _ in corpus:
        lift = qd.douglas_lift(pair, n)
        t_star = adj(pair.product())
        tp = np.linalg.matrix_power(t_star, n + 1)
        q_op = lift.canonical.q_op
        for _ in range(100):
            h = rand_vec(rng, pair.dim)
            lhs = np.linalg.norm(lift.pi @ h) ** 2
            rhs = (np.linalg.norm(h) ** 2 - np.linalg.norm(tp @ h) ** 2
                   + np.linalg.norm(q_op @ h) ** 2)
            worst_energy = max(worst_energy, abs(lhs - rhs) / max(1.0, abs(rhs)))
        rep = qd.verify_lift(lift, pair)
        for rec in rep.records:
            if rec.check_id.startswith("gform-intertwine") and not rec.passed:
                cor_ok = False
    ok = worst_energy < 1e-11 and cor_ok
    conclude(3, "Douglas embedding identity and intertwinings", ok,
             f"worst energy residual {worst_energy:.3e}")


def test_criterion_4_fundamental(corpus):
    """Tuple formula vs pseudoinverse oracle 1e-9; defining equations 1e-10;
    contractivity."""
    worst_eq = worst_gap = worst_norm = 0.0
    for name, pair, _ in corpus:
        f = qd.fundamental_ops(pair)
        worst_eq = max(worst_eq, f.funeq_residual)
        worst_gap = max(worst_gap, f.oracle_gap)
        worst_norm = max(worst_norm, opnorm(f.g1), opnorm(f.g2))
    ok = worst_eq < 1e-10 and worst_gap < 1e-9 and worst_norm <= 1 + 1e-9
    conclude(4, "fundamental operators", ok,
             f"equations {worst_eq:.3e}, oracle gap {worst_gap:.3e}, "
             f"max norm {worst_norm:.12f}")


def test_criterion_5_canonical(corpus):
    """Unitary pairs reproduce themselves to 1e-12; transport under 20 random
    conjugations passes at 1e-10."""
    worst_self = 0.0
    for _, pair, _ in corpus:
        t = pair.product()
        if frob(adj(t) @ t - eye(pair.dim)) > 1e-12:
            continue
        cp = qd.canonical_unitary_pair(pair)
        b = cp.basis.columns
        worst_self = max(worst_self,
                         frob(b @ cp.w1 @ adj(b) - pair.t1),
                         frob(b @ cp.w2 @ adj(b) - pair.t2))
    bases = [qd.gen_clock_shift(4, 1.0),
             qd.gen_direct_sum([qd.gen_clock_shift(2, 1.0),
                                qd.gen_nilpotent(3, -1.0 + 0j, 0.9, 0.8)]),
             qd.gen_direct_sum([qd.gen_clock_shift(3, 1.0),
                                qd.gen_nilpotent(3, np.exp(2j * np.pi / 3), 0.8, 0.8)]),
             qd.gen_clock_shift(5, 1.0)]
    worst_transport = 0.0
    count = 0
    for base in bases:
        for seed in range(5):
            conj, w = qd.gen_conjugated(base, seed=seed)
            rep = qd.canonicity_transport(base, conj, w)
            worst_transport = max(worst_transport, rep.worst())
            count += 1
            if not rep.overall:
                conclude(5, "canonical pair transport", False, f"seed {seed}")
    assert count == 20
    ok = worst_self < 1e-12 and worst_transport < 1e-10
    conclude(5, "canonical unitary pair", ok,
             f"self {worst_self:.3e}, transport {worst_transport:.3e} "
             f"over {count} conjugations")


def test_criterion_6_characteristic_function(cnu_corpus):
    """Theta(0) = -T| to 1e-13; scalar Blaschke on 128 points to 1e-12;
    two-sided innerness < 1e-8 up to spectral radius 0.95."""
    worst_zero = 0.0
    for name, pair, _ in cnu_corpus:
        tri = qd.char_triple(pair)
        expected = -adj(tri.dstar.basis.columns) @ tri.product @ tri.dt.basis.columns
        worst_zero = max(worst_zero, frob(tri.theta(0.0) - expected))

    c = 0.5
    t_scalar = np.array([[c]], dtype=complex)
    worst_blaschke = 0.0
    rng = np.random.default_rng(3)
    for _ in range(128):
        z = rng.random() * 0.98 * np.exp(2j * np.pi * rng.random())
        worst_blaschke = max(worst_blaschke,
                             abs(abs(qd.char_fn(t_scalar, z)[0, 0])
                                 - abs((z - c) / (1 - c * z))))

    worst_inner = 0.0
    hot = qd.gen_clock_shift(2, np.sqrt(0.95))  # product spectral radius 0.95
    for pair in [hot, qd.gen_clock_shift(3, 0.9), qd.gen_nilpotent(4, 1j, 1.0, 0.9)]:
        t = pair.product()
        assert np.abs(np.linalg.eigvals(t)).max() <= 0.95 + 1e-12
        dt_dim = qd.char_fn(t, 0.0).shape[1]
        for k in range(64):
            zeta = np.exp(2j * np.pi * k / 64)
            th = qd.char_fn(t, zeta)
            worst_inner = max(worst_inner, frob(adj(th) @ th - eye(dt_dim)))
    ok = worst_zero < 1e-13 and worst_blaschke < 1e-12 and worst_inner < 1e-8
    conclude(6, "characteristic function", ok,
             f"zero {worst_zero:.3e}, blaschke {worst_blaschke:.3e}, "
             f"inner {worst_inner:.3e}")


def test_criterion_7_functional_model():
    """Compressed model pair equivalent to the source with defect < 1e-8,
    summed over all degrees; the truncated oracle's defect scales with the
    tail between N and 2N."""
    pairs = [
        qd.validate(1.0, np.zeros((1, 1)), np.zeros((1, 1))),
        qd.gen_nilpotent(2, 1j, 0.8, 0.9),
        qd.gen_nilpotent(4, np.exp(1j), 1.0, 0.7),
        qd.gen_clock_shift(3, 0.6),
        qd.gen_clock_shift(2, 0.9),
    ]
    worst_defect = 0.0
    for pair in pairs:
        comp = qd.model_compress(pair)
        worst_defect = max(worst_defect, comp.defect)
        assert comp.report.overall

    # ratio test at a truncation where the defect is visibly tail-driven:
    # the constant C = defect/tail at N must keep bounding the defect at 2N
    ratio_ok = True
    detail = []
    for pair, n0 in ((qd.gen_clock_shift(3, 0.6), 4),
                     (qd.gen_clock_shift(2, 0.9), 12)):
        comp_n = truncated_compress(pair, n=n0)
        comp_2n = truncated_compress(pair, n=2 * n0)
        assert comp_n.defect > 1e-13  # genuinely visible at this truncation
        c_n = comp_n.defect / comp_n.tail
        ratio_ok &= comp_2n.defect <= 10.0 * c_n * comp_2n.tail + 1e-12
        detail.append(f"C={c_n:.2e}, defect {comp_n.defect:.1e}->{comp_2n.defect:.1e}")
    ok = worst_defect < 1e-8 and ratio_ok
    conclude(7, "functional-model compression", ok,
             f"worst defect {worst_defect:.3e}; " + "; ".join(detail))


def test_criterion_8_invariance(cnu_corpus):
    """Coincidence of triples for conjugated pairs at 1e-9; distinct scalar
    Blaschke parameters rejected with grid residual > 1e-2."""
    worst = 0.0
    count = 0
    for idx, (name, pair, _) in enumerate(cnu_corpus[::3]):
        conj, w = qd.gen_conjugated(pair, seed=100 + idx)
        tri_a = qd.char_triple(pair)
        tri_b = qd.char_triple(conj)
        u, u_star = model.induced_defect_unitaries(tri_a, tri_b, w)
        rep = qd.verify_coincidence(tri_a, tri_b, u, u_star)
        worst = max(worst, max(r.residual for r in rep.records[:2]))
        count += 1
        if not rep.overall:
            conclude(8, "invariance under conjugation", False, name)

    tri_a = qd.char_triple(qd.validate(1.0, np.array([[0.3]]), eye(1)))
    tri_b = qd.char_triple(qd.validate(1.0, np.array([[0.4]]), eye(1)))
    min_reject = np.inf
    for pu in np.exp(2j * np.pi * np.arange(8) / 8):
        for ps in np.exp(2j * np.pi * np.arange(8) / 8):
            rep = qd.verify_coincidence(tri_a, tri_b, pu * eye(1), ps * eye(1))
            min_reject = min(min_reject, rep.records[0].residual)
    ok = worst < 1e-9 and min_reject > 1e-2
    conclude(8, "characteristic-triple invariance", ok,
             f"worst coincidence {worst:.3e} over {count} conjugated pairs, "
             f"negative control {min_reject:.3e}")


def test_criterion_9_pseudo_uniqueness(corpus):
    """Model pseudo lift passes all axioms; 0.01-perturbations rejected with
    residual >= 0.009; Taylor rigidity recovers (G1, G2) to 1e-9."""
    n = 12
    axiom_ok = True
    for name, pair, _ in corpus[::3]:
        pi, tri = pseudolift.douglas_pseudo_lift(pair, n)
        r1 = pseudolift.is_pseudo_triple(tri)
        r2 = pseudolift.is_pseudo_lift(pi, tri, pair)
        axiom_ok &= r1.overall and r2.overall

    mixed = qd.gen_direct_sum([qd.gen_clock_shift(4, 1.0),
                               qd.gen_nilpotent(2, 1j, 0.8, 0.8)])
    _, tri = pseudolift.douglas_pseudo_lift(mixed, n)
    reject_ok = True
    worst_reject = np.inf
    for seed in range(5):
        bad = pseudolift.perturbed_triple(tri, 0.01, seed=seed)
        rep = pseudolift.is_pseudo_triple(bad)
        reject_ok &= (not rep.overall) and rep.worst() >= 0.009
        worst_reject = min(worst_reject, rep.worst())

    taylor_ok = True
    worst_taylor = 0.0
    for name, pair, _ in corpus[::4]:
        _, tri = pseudolift.douglas_pseudo_lift(pair, n)
        rep = pseudolift.taylor_rigidity(tri, pair)
        taylor_ok &= rep.overall
        worst_taylor = max(worst_taylor, rep.worst())
    ok = axiom_ok and reject_ok and taylor_ok
    conclude(9, "pseudo-lift axioms, rigidity, uniqueness", ok,
             f"min rejection residual {worst_reject:.3e}, "
             f"taylor {worst_taylor:.3e}")


def test_criterion_10_two_lifts_demo():
    """Both lifts of (0,0) minimal and q-commuting at 1e-12; discriminator
    separation by a factor >= 1e10."""
    rep = lifts.nonisolifts_fixture(8)
    by_id = {r.check_id: r for r in rep.records}
    sep = by_id["separation"].passed
    axioms = all(by_id[k].passed for k in
                 ("a-q-commute", "a-isometry", "a-lift", "a-minimal",
                  "b-q-commute", "b-isometry", "b-lift", "b-minimal"))
    disc_b = by_id["b-doubly"].residual
    ok = rep.overall and sep and axioms and disc_b < 1e-12
    conclude(10, "two non-equivalent minimal lifts of the zero pair", ok,
             by_id["separation"].note)


# Every tolerance, cutoff or iteration-bound parameter of src/qdilate, keyed
# (function, parameter), with the caller that sets it.  A fixed tolerance is
# a literal at its check (or a module constant), not a parameter no caller
# sets: a new one must name its caller here.
TOLERANCE_PARAMETERS = {
    ("cli._load_pair", "tol"): "the CLI --tol (pair validation)",
    ("hardy.choose_trunc", "max_degree"): "tests/test_hardy.py at 16",
    ("hardy.extract_symbol", "tol"): "tests/test_hardy.py (the planted-precondition test)",
    ("matcore.numerical_rank", "rank_tol"): "tests/test_lifts.py and tests/test_matcore.py at 1e-8",
    ("matcore.orth_columns", "rank_tol"): "matcore.greedy_orbit_rank; verify_admissible at 1/2",
    ("matcore.power_limit", "tol"): "qpair.cnu_decompose at 1e-13",
    ("matcore.power_limit", "max_doublings"): "tests/test_matcore.py at 3",
    ("matcore.rank_gap", "rank_tol"): "lifts.orbit_dimension (lifts.RANK_TOL)",
    ("qpair.validate", "tol"): "the CLI --tol, through qpair.pair_from_json",
    ("qpair.pair_from_json", "tol"): "the CLI --tol (cli._load_pair)",
}


def tolerance_parameters() -> set:
    """(module.function, parameter) of every parameter of src/qdilate whose
    name ends in `tol` or is slack, max_rounds, max_doublings or max_degree."""
    names = {"slack", "max_rounds", "max_doublings", "max_degree"}
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg.endswith("tol") or arg.arg in names:
                        found.add((f"{module}.{prefix}{child.name}", arg.arg))
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(Path(qd.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_every_tolerance_parameter_has_a_caller():
    """No tolerance or cutoff parameter beyond the listed ones, each set by
    its named caller; a fixed tolerance is written at its check."""
    found = tolerance_parameters()
    assert found == set(TOLERANCE_PARAMETERS), (
        f"unlisted: {sorted(found - set(TOLERANCE_PARAMETERS))}, "
        f"gone: {sorted(set(TOLERANCE_PARAMETERS) - found)}")
