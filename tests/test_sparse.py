"""The reference route: lift-space operators materialized from their blocks.

The verifiers read `lifts.LiftOperator`s from their blocks only.  Here one
helper builds the matrix such an operator stands for (dense, or CSR for lift
spaces too large for a dense matrix), and the residual formulas of
`verify_lift` and `is_pseudo_triple` are applied to those matrices, the
oracle the block route is held to.  A realization or triple built from
matrices instead of LiftOperators ends in NotModelFormError.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as qd
from qdilate import hardy, lifts, pseudolift
from qdilate.errors import NotModelFormError
from qdilate.hardy import shift_symbol
from qdilate.matcore import adj, eye, frob, opnorm

EMPTY = np.zeros((0, 0), dtype=complex)


def interior(space, d):
    """Indices of head (+) degrees <= N-d (+) tail in the full space."""
    low = space.hardy.low(space.hardy.max_degree - d)
    return np.r_[0:space.head_dim + low.stop, space.tail_start:space.total_dim]


def csr_symbol(sym, n):
    """M_phi R_rot on TruncHardy(fiber, n) as CSR: sum_k (S^k diag(rot^j)) (x) C_k,
    so block (j+k, j) is rot^j C_k, the entries `hardy.materialize` fills."""
    phase = hardy.phases(sym.rot, n)
    out = sp.csr_matrix(((n + 1) * sym.fiber_out, (n + 1) * sym.fiber_in), dtype=complex)
    for k, c in enumerate(sym.coeffs):
        out = out + sp.kron(sp.diags(phase[:n + 1 - k], -k, shape=(n + 1, n + 1)), c)
    return out.tocsr()


def lift_matrix(op, csr=False):
    """The matrix of a LiftOperator, built from its blocks: head, the column
    C(z) below the head, the Hardy part and the tail; dense, or CSR."""
    n, h = op.space.hardy.max_degree, op.space.head_dim
    if csr:
        out = sp.block_diag([op.head, csr_symbol(op.symbol, n), op.tail], format="csr")
        if op.column:
            c = sp.coo_matrix(np.vstack(op.column))
            out = out + sp.csr_matrix((c.data, (c.row + h, c.col)), shape=out.shape)
        return out
    out = scipy.linalg.block_diag(op.head, hardy.materialize(op.symbol, n).matrix, op.tail)
    if op.column:
        column = np.vstack(op.column)
        out[h:h + len(column), :h] = column
    return out


def fro(a) -> float:
    """Frobenius norm of a dense or sparse matrix; sparse input costs one pass
    over its stored entries, duplicates summed first (on a copy)."""
    if not sp.issparse(a):
        return frob(a)
    a = a.tocsr()
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    return float(np.linalg.norm(a.data))


def spectral(a) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


@st.composite
def sparse_matrices(draw):
    """Banded, block-structured (a head block, one constant column and a
    block-bidiagonal part, as in the lifts) or full-pattern sparse matrices,
    at unit, tiny or huge scale."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["band", "blocks", "full"]))
    scale = draw(st.sampled_from([1.0, 1e-200, 1e150]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    i, j = np.indices((m, n))
    if kind == "band":
        below, above = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        mask = (i - j <= below) & (j - i <= above)
    elif kind == "blocks":
        head, f = draw(st.integers(0, 4)), draw(st.integers(1, 4))
        gap = (i - head) // f - (j - head) // f
        mask = (i >= head) & (j >= head) & (gap >= 0) & (gap <= 1)
        mask |= (i < head) & (j < head)
        mask |= (j < head) & (i >= head) & (i < head + f)
    else:
        mask = np.ones((m, n), dtype=bool)
    vals = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return sp.csr_matrix(np.where(mask, vals, 0.0) * scale)


class TestSparseFrob:
    """`fro`, the Frobenius norm the CSR reference takes, against the dense one."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sparse_matrices())
    def test_matches_dense_norm(self, a):
        ref = float(np.linalg.norm(a.toarray()))
        assert abs(fro(a) - ref) <= 1e-12 * ref, (fro(a), ref)

    def test_duplicate_coo_entries(self):
        # (0, 1) is stored as 1 and 2: the entry is 3, so the norm is 5, not
        # sqrt(1 + 4 + 16)
        a = sp.coo_matrix(([1.0, 2.0, 4.0j], ([0, 0, 2], [1, 1, 0])), shape=(3, 2))
        assert fro(a) == float(np.linalg.norm(a.toarray())) == 5.0
        csr = sp.csr_matrix((np.array([1.0, 2.0, 4.0j]), [1, 1, 0], [0, 2, 2, 3]),
                            shape=(3, 2))
        assert not csr.has_canonical_format
        assert fro(csr) == 5.0
        # the input keeps its stored entries
        assert csr.nnz == 3 and not csr.has_canonical_format

    def test_cancelling_duplicates_and_explicit_zeros(self):
        a = sp.coo_matrix(([1.0, -1.0, 0.0, 2.0], ([0, 0, 2, 1], [1, 1, 3, 0])),
                          shape=(4, 5))
        assert fro(a) == 2.0
        z = sp.csr_matrix((np.zeros(3), ([0, 1, 2], [0, 2, 1])), shape=(3, 4))
        assert z.nnz == 3 and fro(z) == 0.0

    def test_empty(self):
        for shape in ((0, 0), (0, 3), (3, 0), (4, 5)):
            assert fro(sp.csr_matrix(shape, dtype=complex)) == 0.0

    def test_column_slice(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((9, 12)) + 1j * rng.standard_normal((9, 12))
        d[np.abs(d) < 1.0] = 0.0
        a = sp.csr_matrix(d)
        for cols in (np.r_[0:4, 7:12], slice(2, 9), np.array([], dtype=int)):
            ref = float(np.linalg.norm(d[:, cols])) if d[:, cols].size else 0.0
            assert abs(fro(a[:, cols]) - ref) <= 1e-14 * max(ref, 1.0)


def intertwining(op, v, pi, t) -> float:
    """||(V* Pi - Pi T*)[rows]||_2 for the matrix V of the LiftOperator `op`,
    on the rows `interior(space, deg phi)`: the head, the Hardy degrees
    <= N - deg phi and the tail, where V* Pi reads only blocks of Pi that
    exist."""
    return opnorm((adj(v) @ pi - pi @ adj(t))[interior(op.space, op.symbol.degree)])


def dense_lift_residuals(lift, pair, n, csr=False, norm=fro):
    """The residuals of `verify_lift` by the formulas on the materialized
    matrices: the lift-space identity residuals in `norm` (Frobenius, as
    gated), the D x dim ones in the norms they are gated on."""
    v1, v2 = lift_matrix(lift.v1, csr), lift_matrix(lift.v2, csr)
    pi, q, space = lift.pi, pair.q, lift.space
    e1, e2 = interior(space, 1), interior(space, 2)
    ident = sp.identity(space.total_dim, dtype=complex, format="csr") if csr else eye(
        space.total_dim)
    out = {
        "intertwine-v1": intertwining(lift.v1, v1, pi, pair.t1),
        "intertwine-v2": intertwining(lift.v2, v2, pi, pair.t2),
        "isometry-v1": norm((adj(v1) @ v1 - ident)[:, e1]),
        "isometry-v2": norm((adj(v2) @ v2 - ident)[:, e1]),
        "q-commute": norm((v1 @ v2 - q * v2 @ v1)[:, e2]),
    }
    if lift.kind == "schaffer":
        out["pi-isometry"] = frob(adj(pi) @ pi - eye(pair.dim))
    else:
        cp, t = lift.canonical, pair.product()
        tp = np.linalg.matrix_power(t, n + 1)
        out["pi-energy"] = frob(adj(pi) @ pi
                                - (eye(pair.dim) - tp @ adj(tp) + cp.q_op @ cp.q_op))
        vd = lifts.LiftOperator(space, EMPTY, (), shift_symbol(space.hardy.fiber_dim), cp.wd)
        out["product-structure"] = norm((v1 @ v2 - lift_matrix(vd, csr))[:, e2])
        pi_d, g = lifts.douglas_pseudo_lift(pair, n)
        out["gform-intertwine-1"] = intertwining(g.w1, lift_matrix(g.w1, csr), pi_d, pair.t1)
        out["gform-intertwine-2"] = intertwining(g.w2, lift_matrix(g.w2, csr), pi_d, pair.t2)
    return out


def dense_triple_residuals(tri, norm=fro):
    """The residuals of `is_pseudo_triple` by the formulas on the dense
    matrices: the contractivity by the spectral norms of the degree <= N-1
    sections (a lower bound for the untruncated norms the block route
    gates), the identity residuals in `norm`."""
    w1, w2, w = (lift_matrix(x) for x in (tri.w1, tri.w2, tri.w))
    q = tri.q
    e1, e2 = interior(tri.space, 1), interior(tri.space, 2)
    return {
        "axiom-i-contractions": max(0.0, max(opnorm(w1[:, e1]), opnorm(w2[:, e1])) - 1.0),
        "axiom-i-isometry": norm((adj(w) @ w - eye(tri.space.total_dim))[:, e1]),
        "axiom-ii-w1": norm((w1 @ w - q * w @ w1)[:, e2]),
        "axiom-ii-w2": norm((w2 @ w - np.conj(q) * w @ w2)[:, e2]),
        "axiom-iii": norm((w1 - np.conj(q) * adj(w2) @ w)[:, e1]),
    }


def dense_pseudo_lift_residuals(pi, tri, pair):
    """The intertwining residuals of `is_pseudo_lift`, on the dense matrices."""
    return {f"lift-{name}": intertwining(w, lift_matrix(w), pi, t)
            for name, w, t in (("w1", tri.w1, pair.t1), ("w2", tri.w2, pair.t2),
                               ("w", tri.w, pair.product()))}


def dense_shape_residual(v, space):
    """`lifts._shape_residual` on a dense matrix V: V minus M_z on the Hardy
    part, with the head and constant columns and the tail block left out."""
    h, f, ts = space.head_dim, space.hardy.fiber_dim, space.tail_start
    r = v.copy()
    r[h:ts, h:ts] -= hardy.materialize(shift_symbol(f), space.hardy.max_degree).matrix
    r[:h + f, :h] = 0.0
    r[ts:, ts:] = 0.0
    return frob(r)


# the block route gates the untruncated norm, which bounds every section's
LOWER_BOUND_IDS = {"axiom-i-contractions"}


def assert_residuals_match(rep, oracle, atol=None, rtol=1e-10):
    """Each record of `rep` against the oracle's residual of its id (the ids
    must be the same): within rtol relative or atol absolute (by default:
    both at most 1e-3 of the check's tolerance), and passing exactly when the
    oracle's residual is within the tolerance.  A contractivity excess need
    only be at least the section's, and fail when it does."""
    by_id = {r.check_id: r for r in rep.records}
    assert set(oracle) == set(by_id), (sorted(oracle), sorted(by_id))
    for cid, ref in oracle.items():
        rec = by_id[cid]
        got, tol = rec.residual, rec.tolerance
        if cid in LOWER_BOUND_IDS:
            assert got >= ref - 1e-15 and (ref <= tol or not rec.passed), (cid, got, ref)
            continue
        near = abs(got - ref) <= atol if atol is not None else max(got, ref) <= 1e-3 * tol
        assert abs(got - ref) <= rtol * max(got, ref) or near, (cid, got, ref)
        assert rec.passed == (ref <= tol), (cid, got, ref, tol)


class TestDenseOracle:
    N = 6

    def lifts_of(self, pair):
        yield qd.schaffer_lift(pair, qd.special_ando_tuple(pair), self.N)
        yield qd.douglas_lift(pair, self.N)

    def test_verify_lift_corpus(self, corpus):
        for name, pair, _ in corpus[::3]:
            for lift in self.lifts_of(pair):
                rep = qd.verify_lift(lift, pair)
                assert_residuals_match(rep, dense_lift_residuals(lift, pair, self.N))

    def test_verify_lift_swapped_factors(self, corpus):
        # V1 and V2 exchanged: the intertwinings read about 1.6 wherever
        # T1 != T2; on clock-shift:n=1, where T1 = T2, the swapped lift is a
        # true lift and they read rounding
        for name, pair, _ in corpus[1::9]:
            for lift in self.lifts_of(pair):
                swapped = dataclasses.replace(lift, v1=lift.v2, v2=lift.v1)
                rep = qd.verify_lift(swapped, pair)
                oracle = dense_lift_residuals(swapped, pair, self.N)
                assert_residuals_match(rep, oracle)

    def test_pseudo_triple_corpus(self, corpus):
        for name, pair, _ in corpus[::3]:
            _, tri = pseudolift.douglas_pseudo_lift(pair, self.N)
            for cand in (tri, pseudolift.perturbed_triple(tri, 0.01, seed=2)):
                rep = pseudolift.is_pseudo_triple(cand)
                assert_residuals_match(rep, dense_triple_residuals(cand))

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize("check", ["verify_lift", "is_pseudo_triple", "uniqueness_test"])
    def test_matrix_operators_are_rejected(self, check, form):
        # a realization or triple holding matrices, not LiftOperators, ends
        # in the typed error before any residual reads its blocks
        pair = qd.gen_direct_sum([qd.gen_clock_shift(2, 1.0),
                                  qd.gen_nilpotent(3, -1.0, 0.9, 0.8)])
        lift = qd.douglas_lift(pair, self.N)
        _, tri = pseudolift.douglas_pseudo_lift(pair, self.N)
        matrix = lift_matrix(lift.v1, csr=form == "csr")
        with pytest.raises(NotModelFormError):
            if check == "verify_lift":
                qd.verify_lift(dataclasses.replace(lift, v1=matrix), pair)
            elif check == "is_pseudo_triple":
                pseudolift.is_pseudo_triple(dataclasses.replace(tri, w1=matrix))
            else:
                pseudolift.uniqueness_test(pair, dataclasses.replace(tri, w=matrix))


class TestSparsity:
    def test_lift_operators_are_sparse(self):
        # N = 64: the benchmark's lift-scale truncation.  Each operator stores
        # its blocks only, and the matrix they stand for is sparse too
        base = qd.gen_direct_sum([qd.gen_clock_shift(2, 1.0),
                                  qd.gen_nilpotent(4, -1.0, 0.9, 0.8)])
        pair = qd.gen_conjugated(base, seed=1)[0]
        n = 64
        ops = []
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), n)
        ops += [("schaffer-v1", lift.v1), ("schaffer-v2", lift.v2)]
        lift = qd.douglas_lift(pair, n)
        ops += [("douglas-v1", lift.v1), ("douglas-v2", lift.v2)]
        _, tri = pseudolift.douglas_pseudo_lift(pair, n)
        ops += [("pseudo-w1", tri.w1), ("pseudo-w2", tri.w2), ("pseudo-w", tri.w)]
        for name, op in ops:
            assert isinstance(op, lifts.LiftOperator), name
            d = op.shape[0]
            assert d > 200, name
            stored = sum(b.size for b in (op.head, *op.column, *op.symbol.coeffs, op.tail))
            assert stored < 0.01 * d * d, (name, stored, d)
            mat = lift_matrix(op, csr=True)
            assert mat.format == "csr" and mat.nnz < 0.05 * d * d, (name, mat.nnz, d)
            assert np.array_equal(mat.toarray(), lift_matrix(op)), name

    @pytest.mark.parametrize("n", [1, 5])
    def test_materialize_is_the_dense_csr(self, n):
        rng = np.random.default_rng(n)
        coeffs = tuple(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
                       for _ in range(2))
        sym = hardy.TwistedSymbol(np.conj(np.exp(0.3j)), coeffs)
        csr = csr_symbol(sym, n)
        dense = hardy.materialize(sym, n).matrix
        assert np.array_equal(csr.toarray().view(np.uint64), dense.view(np.uint64))
        assert csr.nnz == 2 * 3 * 2 * n + 3 * 2
