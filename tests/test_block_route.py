"""The block route of the lift verifiers against the reference route.

The builders return their operators as `lifts.LiftOperator`s, whose residuals
come from the symbol blocks.  The reference applies the verifiers' residual
formulas to the matrices the blocks stand for (`test_sparse`): CSR matrices
where a test says "sparse" or "csr", dense ones elsewhere.  The residuals must
agree, with the same pass flags, to rounding on the corpus and to 1e-10
relative on negative controls with O(1e-2) residuals.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import qdilate as qd
from qdilate import hardy, lifts, model, pseudolift, qpair
from qdilate.errors import NotQCommutantError, QDilateError
from qdilate.hardy import TwistedSymbol, shift_symbol
from qdilate.matcore import EPS, adj, eye, frob, opnorm
from qdilate.report import Report

from conftest import with_u
from test_hardy import grid_norm
from test_lifts import mixed_pair
from test_report_snapshot import snapshot_pairs
from test_sparse import (
    assert_residuals_match,
    dense_lift_residuals,
    dense_pseudo_lift_residuals,
    dense_shape_residual,
    dense_triple_residuals,
    fro,
    interior,
    intertwining,
    lift_matrix,
)


def assert_lift_matches(lift, an, atol, rtol=0.0, csr=False):
    """verify_lift of `lift` against the reference on dense or CSR matrices,
    and minimality_check's shape residual against the dense one; returns the
    minimality report."""
    oracle = dense_lift_residuals(lift, an.pair, lift.trunc, csr)
    assert_residuals_match(qd.verify_lift(lift, an), oracle, atol, rtol)
    rep = qd.minimality_check(lift)
    shape = dense_shape_residual(lift_matrix(lift.v1) @ lift_matrix(lift.v2), lift.space)
    assert abs(rep.environment["shape_residual"] - shape) <= max(atol, rtol * shape)
    return rep


def assert_pseudo_matches(pi, tri, an, atol, rtol=0.0):
    """is_pseudo_triple and is_pseudo_lift against the reference; the
    minimality record is compared through its shape residual."""
    assert_residuals_match(pseudolift.is_pseudo_triple(tri), dense_triple_residuals(tri),
                           atol, rtol)
    rep = pseudolift.is_pseudo_lift(pi, tri, an)
    records = [r for r in rep.records if r.check_id != "minimality"]
    assert_residuals_match(dataclasses.replace(rep, records=records),
                           dense_pseudo_lift_residuals(pi, tri, an.pair), atol, rtol)
    shape = dense_shape_residual(lift_matrix(tri.w), tri.space)
    assert abs(rep.environment["shape_residual"] - shape) <= max(atol, rtol * shape)


def assert_same(a, b, atol):
    """Two reports, record by record: ids, pass and skip flags, and residuals
    within atol."""
    assert ([(r.check_id, r.passed, r.skipped) for r in a.records]
            == [(r.check_id, r.passed, r.skipped) for r in b.records])
    for r, s in zip(a.records, b.records):
        assert abs(r.residual - s.residual) <= atol, (r.check_id, r.residual, s.residual)


@pytest.mark.parametrize("n", [6, 12, 24])
def test_block_route_matches_the_sparse_route(n):
    # standard_corpus(0) and the four near-boundary pairs of the snapshot;
    # the reference of the lift suites takes CSR matrices
    pairs = [pair for _, pair in snapshot_pairs()]
    built = 0
    for pair in pairs:
        an = model.PairAnalysis(pair)
        try:
            lifts_built = [qd.schaffer_lift(an.pair, an.tup, n), qd.douglas_lift(an, n)]
        except QDilateError:
            continue
        for lift in lifts_built:
            assert_lift_matches(lift, an, 1e-13, csr=True)
        pi, tri = pseudolift.douglas_pseudo_lift(an, n)
        assert_pseudo_matches(pi, tri, an, 1e-13)
        built += 1
    # only the Ando construction of clock-shift:n=3 at 1 - 1e-9 fails
    assert built == len(pairs) - 1


@pytest.mark.parametrize("spec", ["nilpotent:n=8,q=-1,c=0.9,d=0.8",
                                  "nilpotent:n=6,q=-0.5+0.8660254037844386i,c=0.9,d=0.8"])
def test_sparse_route_holds_at_large_truncation(spec):
    # the two pairs of the large-N lift step of CI, at N = 10000: every
    # materialized phase comes from one table, so the CSR reference passes
    # and reads the block route's residuals; W2's rotation is conj(q) itself
    an = model.PairAnalysis(qpair.from_spec(spec))
    n = 10_000
    for lift in (qd.schaffer_lift(an.pair, an.tup, n), qd.douglas_lift(an, n)):
        oracle = dense_lift_residuals(lift, an.pair, n, csr=True)
        rep = qd.verify_lift(lift, an)
        assert rep.overall and qd.minimality_check(lift).overall, lift.kind
        assert_residuals_match(rep, oracle, 1e-12)
    _, tri = pseudolift.douglas_pseudo_lift(an, n)
    taylor = pseudolift.taylor_rigidity(tri, an)
    assert next(r for r in taylor.records if r.check_id == "reconstruct-2").residual == 0.0


def bump(rng, shape):
    """A random matrix of Frobenius norm 1e-2."""
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 1e-2 * x / frob(x)


def with_symbol(op, k, delta):
    sym = op.symbol
    coeffs = tuple(c + delta if j == k else c for j, c in enumerate(sym.coeffs))
    return dataclasses.replace(op, symbol=TwistedSymbol(sym.rot, coeffs))


def negative_controls(pair, n):
    """(name, kind, realization) with O(1e-2) residuals: the Ando unitary
    scaled by 1.01, a bumped symbol coefficient, tail block and column."""
    an = model.PairAnalysis(pair)
    rng = np.random.default_rng(5)
    schaffer = qd.schaffer_lift(an.pair, an.tup, n)
    douglas = qd.douglas_lift(an, n)
    pi, tri = pseudolift.douglas_pseudo_lift(an, n)
    scaled = with_u(an.tup, 1.01 * an.tup.u)
    v1, w = schaffer.v1, douglas.v2
    yield "ando-u-scaled", "lift", qd.schaffer_lift(an.pair, scaled, n)
    yield "schaffer-column", "lift", dataclasses.replace(schaffer, v1=dataclasses.replace(
        v1, column=(v1.column[0] + bump(rng, v1.column[0].shape),)))
    yield "schaffer-symbol", "lift", dataclasses.replace(
        schaffer, v2=with_symbol(schaffer.v2, 1, bump(rng, v1.symbol.coeffs[0].shape)))
    yield "douglas-symbol", "lift", dataclasses.replace(
        douglas, v1=with_symbol(douglas.v1, 0, bump(rng, douglas.v1.symbol.coeffs[0].shape)))
    yield "douglas-tail", "lift", dataclasses.replace(
        douglas, v2=dataclasses.replace(w, tail=w.tail + bump(rng, w.tail.shape)))
    yield "pseudo-symbol", "pseudo", (pi, dataclasses.replace(
        tri, w1=with_symbol(tri.w1, 1, bump(rng, tri.w1.symbol.coeffs[0].shape))))
    yield "pseudo-tail", "pseudo", (pi, dataclasses.replace(
        tri, w=dataclasses.replace(tri.w, tail=tri.w.tail + bump(rng, tri.w.tail.shape))))


@pytest.mark.parametrize("n", [6, 24])
def test_negative_controls_fail_alike_on_both_routes(n):
    pairs = [mixed_pair(), qd.gen_conjugated(mixed_pair(), 3)[0]]
    for pair in pairs:
        an = model.PairAnalysis(pair)
        assert an.canonical.dim and an.dstar.dim
        for name, kind, real in negative_controls(pair, n):
            if kind == "lift":
                reports = [qd.verify_lift(real, an), assert_lift_matches(real, an, 1e-13, 1e-10)]
            else:
                assert_pseudo_matches(*real, an, 1e-13, 1e-10)
                reports = [pseudolift.is_pseudo_triple(real[1]),
                           pseudolift.is_pseudo_lift(*real, an)]
            worst = max(r.residual / r.tolerance for rep in reports
                        for r in rep.records if not r.skipped and r.tolerance < 0.5)
            assert not all(rep.overall for rep in reports), name
            assert worst > 1e3, (name, worst)


def test_ando_scaling_moves_the_isometry_residuals():
    # U scaled by 1.01 makes V_i*V_i - I of order 1e-2 on every interior
    # column: both routes read the same residual, far above the tolerance
    pair = mixed_pair()
    an = model.PairAnalysis(pair)
    lift = qd.schaffer_lift(an.pair, with_u(an.tup, 1.01 * an.tup.u), 12)
    assert isinstance(lift.v1, lifts.LiftOperator)
    block = qd.verify_lift(lift, an)
    ref = dense_lift_residuals(lift, an.pair, 12)
    for cid in ("isometry-v1", "isometry-v2"):
        a = next(r for r in block.records if r.check_id == cid)
        assert not a.passed and 0.1 < a.residual < 1.0
        assert abs(a.residual - ref[cid]) <= 1e-10 * ref[cid]


def barely_expansive_triple(q, n):
    """W1 = W2 = M_phi R_q with phi = a + bz, |a| = |b| = (1 + 1e-6)/2, and
    W = M_z on TruncHardy(1, N): ||phi||_inf = 1 + 1e-6, while the degree
    <= N-1 columns of the N = 6 section have norm below 0.98."""
    r = (1 + 1e-6) / 2
    space = lifts.LiftSpace(0, qd.TruncHardy(1, n), 0)
    empty = np.zeros((0, 0), dtype=complex)
    phi = TwistedSymbol(q, (np.full((1, 1), r), np.full((1, 1), r * np.exp(0.3j))))
    w1 = lifts.LiftOperator(space, empty, (), phi, empty)
    shift = lifts.LiftOperator(space, empty, (), shift_symbol(1), empty)
    return lifts.PseudoTriple(q, w1, w1, shift)


def contraction_record(rep):
    return next(r for r in rep.records if r.check_id.endswith("axiom-i-contractions"))


def test_contraction_gate_reads_the_untruncated_norm():
    # the block route gates the untruncated operator and fails; a gate on
    # the section's norm, the reference's, would pass
    tri = barely_expansive_triple(np.exp(0.7j), 6)
    section = np.linalg.norm(lift_matrix(tri.w1)[:, interior(tri.space, 1)], 2)
    assert section < 0.98
    block = contraction_record(pseudolift.is_pseudo_triple(tri))
    # the sup norm is read from above, within 2 LEVEL_EPS (relative)
    assert not block.passed and 1e-6 <= block.residual <= 1e-6 + 2.1e-12
    assert dense_triple_residuals(tri)["axiom-i-contractions"] == 0.0


def test_uniqueness_keeps_a_block_candidate():
    # the same triple as a candidate over the Douglas data of the zero pair
    # (D_{T*} = I on C, no unitary part): it shares the Douglas isometry, and
    # its contractivity is read on the untruncated operator, so it fails
    q = np.exp(0.7j)
    pair = qd.validate(q, np.zeros((1, 1)), np.zeros((1, 1)))
    tri = barely_expansive_triple(q, 6)
    rep = pseudolift.uniqueness_test(pair, tri)
    by_id = {r.check_id: r for r in rep.records}
    assert by_id["same-douglas-isometry"].passed
    assert by_id["same-douglas-isometry"].residual == 0.0
    record = contraction_record(rep)
    assert record.check_id == "candidate-axiom-i-contractions"
    assert not record.passed and 1e-6 <= record.residual <= 1e-6 + 2.1e-12
    assert by_id["uniqueness-equality"].skipped


def csr_extract_ando(lift, an, tol=1e-10):
    """`extract_ando_from_lift` on the materialized CSR matrices: the
    model-form guards and the columns read from slices and a sparse product."""
    pair, t = an.pair, an.product
    h, f, n = pair.dim, lift.space.hardy.fiber_dim, lift.trunc
    v1, v2 = lift_matrix(lift.v1, csr=True), lift_matrix(lift.v2, csr=True)
    assert max(fro(v1[:h, h:]), fro(v2[:h, h:])) <= tol
    v = v1 @ v2
    mz = sp.csr_matrix(hardy.materialize(shift_symbol(f), n).matrix)
    assert fro((v[h:, h:] - mz)[:, lift.space.hardy.low(n - 1)]) <= tol
    c_block = v[h:, :h].toarray()
    c0 = c_block[:f]
    x = an.dt.coords()
    lam = c0 @ np.linalg.pinv(x)
    a1, a2 = v1[h:h + f, :h].toarray(), pair.q * v2[h:h + f, :h].toarray()
    rest = c0 - a1 @ pair.t2
    closed = rest @ pair.t1 + a1
    rep = Report("ando-extract")
    for cid, value in [
            ("mzstar-c", opnorm(c_block[f:])),
            ("c-defect", frob(adj(c0) @ c0 - (eye(h) - adj(t) @ t))),
            ("lambda-isometry", frob(adj(lam) @ lam - eye(an.dt.dim))),
            ("lambda-consistency", frob(lam @ x - c0)),
            ("frag-t1", frob(adj(pair.t1) @ pair.t1 + adj(a1) @ a1 - eye(h))),
            ("frag-t2", frob(adj(pair.t2) @ pair.t2 + adj(a2) @ a2 - eye(h))),
            ("frag-third", frob(adj(a2) @ a2 - adj(rest) @ rest)),
            ("frag-fourth", frob(adj(c0) @ c0 - adj(closed) @ closed))]:
        rep.check(cid, "", value, tol)
    return lifts.AndoFragments(lam, a1, a2), rep


def csr_taylor_rigidity(tri, an, tol=1e-9):
    """`taylor_rigidity` by `hardy.extract_symbol` on the Hardy blocks of the
    materialized W1 and W2 (read from the CSR matrices)."""
    q, fund = tri.q, an.fundamental
    hd, space = tri.space.hardy.total_dim, tri.space.hardy
    syms, rep = [], Report("taylor-rigidity")
    for i, (w, base) in enumerate(((tri.w1, q), (tri.w2, np.conj(q))), 1):
        sym, res = hardy.extract_symbol(
            hardy.TruncOperator(lift_matrix(w, csr=True)[:hd, :hd].toarray(), space, space),
            base)
        rep.check(f"reconstruct-{i}", "", res, tol)
        syms.append(sym)
    rep.require("degree-1", "", all(sym.degree <= 1 for sym in syms))
    (p0, p1), (r0, r1) = ([sym.coeffs[k] if k <= sym.degree else 0 * sym.coeffs[0]
                           for k in (0, 1)] for sym in syms)
    rep.check("match-fundamental", "",
              max(frob(p0 - adj(fund.g1)), frob(p1 - fund.g2), frob(r0 - adj(fund.g2)),
                  frob(r1 - np.conj(q) * fund.g1)), tol)
    rep.check("linear-pencil", "", frob(p0 - np.conj(q) * adj(r1)), tol)
    return rep


@pytest.mark.parametrize("n", [6, 12, 24])
def test_block_extraction_matches_the_csr_oracle(n):
    # standard_corpus(0) and the four near-boundary pairs of the snapshot
    pairs = [pair for _, pair in snapshot_pairs()]
    built = 0
    for pair in pairs:
        an = model.PairAnalysis(pair)
        try:
            lift = qd.schaffer_lift(an.pair, an.tup, n)
            _, tri = pseudolift.douglas_pseudo_lift(an, n)
        except QDilateError:
            continue
        frag, rep = qd.extract_ando_from_lift(lift, an)
        frag_ref, rep_ref = csr_extract_ando(lift, an)
        assert_same(rep, rep_ref, 1e-13)
        for got, want in zip(dataclasses.astuple(frag), dataclasses.astuple(frag_ref)):
            assert got.shape == want.shape and np.allclose(got, want, rtol=0.0, atol=1e-13)
        assert_same(pseudolift.taylor_rigidity(tri, an), csr_taylor_rigidity(tri, an), 1e-13)
        built += 1
    # only the Ando construction of clock-shift:n=3 at 1 - 1e-9 fails
    assert built == len(pairs) - 1


@pytest.mark.parametrize("case", ["degree-2-kept", "degree-2-dropped", "base-near", "base-off"])
def test_taylor_rigidity_matches_the_oracle_off_the_model(case):
    # W1's symbol with a degree-2 coefficient above and below the 1e-10
    # cutoff of extract_symbol, or with a twist base 1e-13 and 1e-3 away
    # from q: the closed forms read what the oracle reads off the matrices
    an = model.PairAnalysis(qd.gen_nilpotent(3, 1j, 0.9, 0.8))
    _, tri = pseudolift.douglas_pseudo_lift(an, 12)
    sym = tri.w1.symbol
    if case.startswith("degree-2"):
        unit = np.ones_like(sym.coeffs[0]) / np.sqrt(sym.coeffs[0].size)
        size = 5e-10 if case == "degree-2-kept" else 5e-11
        sym = TwistedSymbol(sym.rot, (*sym.coeffs, size * unit))
    else:
        angle = 1e-13 if case == "base-near" else 1e-3
        sym = TwistedSymbol(sym.rot * np.exp(1j * angle), sym.coeffs)
    bad = dataclasses.replace(tri, w1=dataclasses.replace(tri.w1, symbol=sym))
    if case == "base-off":
        for taylor in (pseudolift.taylor_rigidity, csr_taylor_rigidity):
            with pytest.raises(NotQCommutantError):
                taylor(bad, an)
        return
    block = pseudolift.taylor_rigidity(bad, an)
    assert_same(block, csr_taylor_rigidity(bad, an), 1e-13)
    by_id = {r.check_id: r for r in block.records}
    assert by_id["degree-1"].passed == (case != "degree-2-kept")
    if case != "degree-2-kept":
        assert by_id["reconstruct-1"].residual > 1e-12


def random_operator(rng, space, q, degree, twist, column_degree):
    """A LiftOperator with random blocks: symbol and column of the given
    degrees (column_degree -1: no column)."""
    h, f, t = space.head_dim, space.hardy.fiber_dim, space.tail_dim

    def mat(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    head, column = mat(h, h), tuple(mat(f, h) for _ in range(column_degree + 1))
    sym = TwistedSymbol(q ** twist, tuple(mat(f, f) for _ in range(degree + 1)))
    return lifts.LiftOperator(space, head, column, sym, mat(t, t))


@pytest.mark.parametrize("seed", range(6))
def test_block_formulas_match_dense_matrices(seed):
    # random blocks, degrees above the budget and mixed twists: every block
    # formula against the dense matrices it stands for
    rng = np.random.default_rng(seed)
    q = np.exp(0.7j)
    n = 5
    space = lifts.LiftSpace(seed % 3, qd.TruncHardy(2, n), (seed // 3) * 2)
    ops = [random_operator(rng, space, q, int(rng.integers(0, 3)), int(rng.integers(-1, 2)),
                           int(rng.integers(-1, 3)) if space.head_dim else -1)
           for _ in range(3)]
    x, y, z = ops
    dense = [lift_matrix(op) for op in ops]
    dx, dy, dz = dense
    for d in (0, 1, 2, 3):
        e = interior(space, d)
        cases = [((1.0, x), (-0.5j, y)),
                 ((1.0, x, y), (-1.0, z)),
                 ((2.0, x, x), (1.0 - 1j, y, z), (0.3, z)),
                 ((1.0, x @ y), (-q, y @ x))]
        refs = [dx - 0.5j * dy, dx.conj().T @ dy - dz,
                2.0 * dx.conj().T @ dx + (1.0 - 1j) * dy.conj().T @ dz + 0.3 * dz,
                dx @ dy - q * dy @ dx]
        for terms, ref in zip(cases, refs):
            got = lifts.interior_frob(d, *terms)
            want = np.linalg.norm(ref[:, e])
            assert abs(got - want) <= 1e-12 * max(1.0, want), (d, terms, got, want)
    pi = rng.standard_normal((space.total_dim, 3)) + 0j
    t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for op, mat in zip(ops, dense):
        got, want = lifts.intertwining_residual(op, pi, t), intertwining(op, mat, pi, t)
        assert abs(got - want) <= 1e-12 * want, (got, want)
        shape = lifts._shape_residual(op)
        assert abs(shape - dense_shape_residual(mat, space)) <= 1e-12 * shape
        if not space.head_dim:
            # the block route reads the untruncated operator: at least the
            # section's norm, and the larger of the tail's and the symbol's
            # sup norm on the circle (the grid oracle)
            oracle = max(np.linalg.norm(op.tail, 2) if op.tail.size else 0.0,
                         grid_norm(op.symbol))
            for d in (1, 2):
                got = lifts.interior_opnorm(op, d)
                section = np.linalg.norm(mat[:, interior(space, d)], 2)
                assert got >= section * (1 - 16 * EPS), (d, got, section)
                assert abs(got - oracle) <= 1e-10 * oracle, (d, got, oracle)
