"""The block route of the lift verifiers against the sparse route.

The builders return their operators as `lifts.LiftOperator`s, whose residuals
come from the symbol blocks.  The same realizations with every operator
replaced by its `as_csr` matrix take the sparse route, the reference: the
reports must agree on ids and flags, with residuals equal to rounding on the
corpus and to 1e-10 relative on negative controls with O(1e-2) residuals.
"""

import dataclasses

import numpy as np
import pytest

import qdilate as qd
from qdilate import lifts, model, pseudolift
from qdilate.errors import QDilateError
from qdilate.hardy import TwistedSymbol, shift_symbol
from qdilate.matcore import EPS, as_csr, frob

from test_hardy import grid_norm
from test_lifts import mixed_pair, sparse_route, sparse_triple
from test_report_snapshot import snapshot_pairs


def lift_reports(lift, an, route):
    if route == "sparse":
        lift = sparse_route(lift)
    return {lift.kind: qd.verify_lift(lift, an),
            f"{lift.kind}-minimality": qd.minimality_check(lift)}


def pseudo_reports(pi, tri, an, route):
    if route == "sparse":
        tri = sparse_triple(tri)
    return {"pseudo-triple": pseudolift.is_pseudo_triple(tri),
            "pseudo-lift": pseudolift.is_pseudo_lift(pi, tri, an)}


def builder_reports(an, n, route):
    """verify_lift and minimality_check of both lifts, is_pseudo_triple and
    is_pseudo_lift of the pseudo lift; a builder that raises is left out."""
    out = {}
    for build in (lambda: qd.schaffer_lift(an.pair, an.tup, n), lambda: qd.douglas_lift(an, n)):
        try:
            lift = build()
        except QDilateError:
            continue
        out.update(lift_reports(lift, an, route))
    try:
        pi, tri = pseudolift.douglas_pseudo_lift(an, n)
    except QDilateError:
        return out
    out.update(pseudo_reports(pi, tri, an, route))
    return out


def assert_same(block, ref, atol, rtol=0.0):
    """Same reports, record by record: ids, pass and skip flags, and
    residuals (and minimality shape residuals) within atol or rtol."""
    assert block.keys() == ref.keys()
    for key in block:
        a, b = block[key], ref[key]
        assert ([(r.check_id, r.passed, r.skipped) for r in a.records]
                == [(r.check_id, r.passed, r.skipped) for r in b.records]), key
        pairs = [(r.check_id, r.residual, s.residual) for r, s in zip(a.records, b.records)]
        if "shape_residual" in b.environment:
            pairs.append(("shape", a.environment["shape_residual"],
                          b.environment["shape_residual"]))
        for cid, x, y in pairs:
            assert abs(x - y) <= max(atol, rtol * max(x, y)), (key, cid, x, y)


@pytest.mark.parametrize("n", [6, 12, 24])
def test_block_route_matches_the_sparse_route(n):
    # standard_corpus(0) and the four near-boundary pairs of the snapshot
    pairs = [pair for _, pair in snapshot_pairs()]
    built = 0
    for i, pair in enumerate(pairs):
        an = model.PairAnalysis(pair)
        block = builder_reports(an, n, "block")
        assert_same(block, builder_reports(an, n, "sparse"), 1e-13)
        built += len(block) == 6
    # only the Ando construction of clock-shift:n=3 at 1 - 1e-9 fails
    assert built == len(pairs) - 1


def bump(rng, shape):
    """A random matrix of Frobenius norm 1e-2."""
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 1e-2 * x / frob(x)


def with_symbol(op, k, delta):
    sym = op.symbol
    coeffs = tuple(c + delta if j == k else c for j, c in enumerate(sym.coeffs))
    return dataclasses.replace(op, symbol=TwistedSymbol(sym.q, sym.twist, coeffs))


def negative_controls(pair, n):
    """(name, kind, realization) with O(1e-2) residuals: the Ando unitary
    scaled by 1.01, a bumped symbol coefficient, tail block and column."""
    an = model.PairAnalysis(pair)
    rng = np.random.default_rng(5)
    schaffer = qd.schaffer_lift(an.pair, an.tup, n)
    douglas = qd.douglas_lift(an, n)
    pi, tri = pseudolift.douglas_pseudo_lift(an, n)
    scaled = dataclasses.replace(an.tup, u=1.01 * an.tup.u)
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
                block, ref = (lift_reports(real, an, route) for route in ("block", "sparse"))
            else:
                block, ref = (pseudo_reports(*real, an, route) for route in ("block", "sparse"))
            assert_same(block, ref, 1e-13, 1e-10)
            worst = max(r.residual / r.tolerance for rep in block.values()
                        for r in rep.records if not r.skipped and r.tolerance < 0.5)
            assert not all(rep.overall for rep in block.values()), name
            assert worst > 1e3, (name, worst)


def test_ando_scaling_moves_the_isometry_residuals():
    # U scaled by 1.01 makes V_i*V_i - I of order 1e-2 on every interior
    # column: both routes read the same residual, far above the tolerance
    pair = mixed_pair()
    an = model.PairAnalysis(pair)
    lift = qd.schaffer_lift(an.pair, dataclasses.replace(an.tup, u=1.01 * an.tup.u), 12)
    assert isinstance(lift.v1, lifts.LiftOperator)
    block, ref = (lift_reports(lift, an, route)["schaffer"] for route in ("block", "sparse"))
    for cid in ("isometry-v1", "isometry-v2"):
        a = next(r for r in block.records if r.check_id == cid)
        b = next(r for r in ref.records if r.check_id == cid)
        assert not a.passed and 0.1 < a.residual < 1.0
        assert abs(a.residual - b.residual) <= 1e-10 * b.residual


def test_contraction_gate_reads_the_untruncated_norm():
    # W1 = M_phi R_q with phi = a + bz, |a| = |b| = (1 + 1e-6)/2: ||phi||_inf
    # = 1 + 1e-6, while the degree <= 5 columns of its N = 6 section have
    # norm below 0.98.  The block route gates the untruncated operator and
    # fails; the sparse route gates the section and passes.
    q, n = np.exp(0.7j), 6
    r = (1 + 1e-6) / 2
    space = lifts.LiftSpace(0, qd.TruncHardy(1, n), 0)
    empty = np.zeros((0, 0), dtype=complex)
    phi = TwistedSymbol(q, 1, (np.full((1, 1), r), np.full((1, 1), r * np.exp(0.3j))))
    w1 = lifts.LiftOperator(space, empty, (), phi, empty)
    shift = lifts.LiftOperator(space, empty, (), shift_symbol(q, 1), empty)
    tri = lifts.PseudoTriple(q, space, w1, w1, shift, n)
    section = np.linalg.norm(as_csr(w1).toarray()[:, space.interior(1)], 2)
    assert section < 0.98

    def contraction(triple):
        rep = pseudolift.is_pseudo_triple(triple)
        return next(r for r in rep.records if r.check_id == "axiom-i-contractions")

    block, ref = contraction(tri), contraction(sparse_triple(tri))
    assert not block.passed and abs(block.residual - 1e-6) <= 1e-12
    assert ref.passed and ref.residual == 0.0


def random_operator(rng, space, q, degree, twist, column_degree):
    """A LiftOperator with random blocks: symbol and column of the given
    degrees (column_degree -1: no column)."""
    h, f, t = space.head_dim, space.hardy.fiber_dim, space.tail_dim

    def mat(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    return lifts.LiftOperator(space, mat(h, h), tuple(mat(f, h) for _ in range(column_degree + 1)),
                              TwistedSymbol(q, twist, tuple(mat(f, f) for _ in range(degree + 1))),
                              mat(t, t))


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
    dense = [as_csr(op).toarray() for op in ops]
    dx, dy, dz = dense
    for d in (0, 1, 2, 3):
        e = space.interior(d)
        cases = [((1.0, x), (-0.5j, y)),
                 ((1.0, x, y), (-1.0, z)),
                 ((2.0, x, x), (1.0 - 1j, y, z), (0.3, z)),
                 ((1.0, x @ y), (-q, y @ x))]
        refs = [dx - 0.5j * dy, dx.conj().T @ dy - dz,
                2.0 * dx.conj().T @ dx + (1.0 - 1j) * dy.conj().T @ dz + 0.3 * dz,
                dx @ dy - q * dy @ dx]
        for terms, ref in zip(cases, refs):
            got = lifts.interior_frob(space, d, *terms)
            want = np.linalg.norm(ref[:, e])
            assert abs(got - want) <= 1e-12 * max(1.0, want), (d, terms, got, want)
    pi = rng.standard_normal((space.total_dim, 3)) + 0j
    for op, mat in zip(ops, dense):
        assert np.allclose(lifts.adjoint_times(op, pi), mat.conj().T @ pi, atol=1e-12)
        shape = lifts._shape_residual(op, space)
        assert abs(shape - lifts._shape_residual(as_csr(op), space)) <= 1e-12 * shape
        if not space.head_dim:
            # the block route reads the untruncated operator: at least the
            # section's norm, and the larger of the tail's and the symbol's
            # sup norm on the circle (the grid oracle)
            oracle = max(np.linalg.norm(op.tail, 2) if op.tail.size else 0.0,
                         grid_norm(op.symbol))
            for d in (1, 2):
                got = lifts.interior_opnorm(op, space, d)
                section = np.linalg.norm(mat[:, space.interior(d)], 2)
                assert got >= section * (1 - 16 * EPS), (d, got, section)
                assert abs(got - oracle) <= 1e-10 * oracle, (d, got, oracle)
