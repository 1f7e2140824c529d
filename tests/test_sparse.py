"""Sparse lift-space operators and the banded spectral norm.

The lift and pseudo-lift operators are CSR matrices and their residuals are
formed sparsely.  These tests check the sparse `opnorm`, on banded, block
structured, full and permuted block-diagonal input, against the dense SVD
norm, the sparse `frob` against the dense Frobenius norm, every `verify_lift`
and `is_pseudo_triple` residual against the dense formula it replaced (kept
here as the oracle, at small D), and that the operators stay sparse.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdilate as qd
from qdilate import hardy, lifts, matcore, model, pseudolift
from qdilate.matcore import adj, eye, frob, opnorm

from test_lifts import sparse_route, sparse_triple


def dense_norm(a) -> float:
    d = a.toarray()
    return float(np.linalg.norm(d, 2)) if d.size else 0.0


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


class TestSparseOpnorm:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_matrices())
    @example(sp.csr_matrix((5, 7), dtype=complex))                 # all zero
    @example(sp.csr_matrix((0, 4), dtype=complex))                 # empty
    @example(sp.csr_matrix(np.diag([1e-200, 3e-200, 2e-200])))     # tiny entries
    @example(sp.csr_matrix(np.ones((12, 9))))                      # full band
    def test_matches_dense_svd(self, a):
        ref = dense_norm(a)
        got = opnorm(a)
        assert abs(got - ref) <= 1e-12 * ref, (got, ref)

    def test_explicit_zeros(self):
        a = sp.csr_matrix((np.zeros(3), ([0, 1, 2], [0, 2, 1])), shape=(3, 4))
        assert a.nnz == 3 and opnorm(a) == 0.0

    def test_empty_shapes(self):
        for shape in ((0, 0), (0, 3), (3, 0)):
            assert opnorm(sp.csr_matrix(shape, dtype=complex)) == 0.0

    def test_repeated_top_singular_value(self):
        # every singular value equal: selecting the top eigenvalue by index
        # (LAPACK ?hbevx) fails on this cluster; the full banded solve does not
        w = qd.gen_clock_shift(5, 1.0).t1
        big = sp.block_diag([w] * 6 + [sp.identity(4)], format="csr")
        assert abs(opnorm(big) - 1.0) <= 1e-14
        assert abs(opnorm(matcore.speye(30)) - 1.0) <= 1e-14

    def test_no_underflow_of_tiny_residuals(self):
        a = sp.csr_matrix(np.diag([1e-170, 5e-170, 2e-170]))
        assert abs(opnorm(a) - 5e-170) <= 1e-12 * 5e-170


class TestSparseFrob:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sparse_matrices())
    def test_matches_dense_norm(self, a):
        ref = float(np.linalg.norm(a.toarray()))
        assert abs(frob(a) - ref) <= 1e-12 * ref, (frob(a), ref)

    def test_duplicate_coo_entries(self):
        # (0, 1) is stored as 1 and 2: the entry is 3, so the norm is 5, not
        # sqrt(1 + 4 + 16)
        a = sp.coo_matrix(([1.0, 2.0, 4.0j], ([0, 0, 2], [1, 1, 0])), shape=(3, 2))
        assert frob(a) == float(np.linalg.norm(a.toarray())) == 5.0
        csr = sp.csr_matrix((np.array([1.0, 2.0, 4.0j]), [1, 1, 0], [0, 2, 2, 3]),
                            shape=(3, 2))
        assert not csr.has_canonical_format
        assert frob(csr) == 5.0
        # the input keeps its stored entries
        assert csr.nnz == 3 and not csr.has_canonical_format

    def test_cancelling_duplicates_and_explicit_zeros(self):
        a = sp.coo_matrix(([1.0, -1.0, 0.0, 2.0], ([0, 0, 2, 1], [1, 1, 3, 0])),
                          shape=(4, 5))
        assert frob(a) == 2.0
        z = sp.csr_matrix((np.zeros(3), ([0, 1, 2], [0, 2, 1])), shape=(3, 4))
        assert z.nnz == 3 and frob(z) == 0.0

    def test_empty(self):
        for shape in ((0, 0), (0, 3), (3, 0), (4, 5)):
            assert frob(sp.csr_matrix(shape, dtype=complex)) == 0.0

    def test_column_slice(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((9, 12)) + 1j * rng.standard_normal((9, 12))
        d[np.abs(d) < 1.0] = 0.0
        a = sp.csr_matrix(d)
        for cols in (np.r_[0:4, 7:12], slice(2, 9), np.array([], dtype=int)):
            ref = float(np.linalg.norm(d[:, cols])) if d[:, cols].size else 0.0
            assert abs(frob(a[:, cols]) - ref) <= 1e-14 * max(ref, 1.0)


def permuted_block_diag(blocks, rng) -> sp.csr_matrix:
    """The direct sum of dense `blocks` with its rows and columns shuffled by
    uniformly random permutations."""
    m, n = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    out = np.zeros((m, n), dtype=np.complex128)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return sp.csr_matrix(out[rng.permutation(m)][:, rng.permutation(n)])


def rand_block(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@st.composite
def block_diagonal_matrices(draw):
    """Permuted direct sums: many blocks of 1-4 rows plus columns, one large
    block among tiny ones, or rectangular blocks; blocks with no rows or no
    columns add empty columns or rows."""
    kind = draw(st.sampled_from(["tiny", "giant", "rect"]))
    scale = draw(st.sampled_from([1.0, 1e-200, 1e150]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = []
    if kind == "tiny":
        for _ in range(draw(st.integers(1, 40))):
            rows = draw(st.integers(1, 3))
            shapes.append((rows, draw(st.integers(1, 4 - rows))))
    elif kind == "giant":
        shapes.append((draw(st.integers(17, 40)), draw(st.integers(17, 40))))
        shapes += [(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
                   for _ in range(draw(st.integers(0, 12)))]
    else:
        shapes += [(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
                   for _ in range(draw(st.integers(1, 8)))]
    shapes += [(draw(st.integers(0, 1)), 0) for _ in range(draw(st.integers(0, 3)))]
    shapes += [(0, draw(st.integers(0, 1))) for _ in range(draw(st.integers(0, 3)))]
    blocks = [rand_block(rng, *shape) for shape in shapes]
    return permuted_block_diag(blocks, rng) * scale


class TestBlockOpnorm:
    """The sparse norm of permuted block-diagonal matrices, whose Gram band
    is wide, against the dense SVD: the norm is the largest block norm."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(block_diagonal_matrices())
    def test_matches_dense_svd(self, a):
        ref = dense_norm(a)
        got = opnorm(a)
        assert abs(got - ref) <= 1e-12 * ref, (got, ref)

    def test_top_value_repeated_across_blocks(self):
        # two small blocks and one large one, each with singular values 2, 1, 1/2
        rng = np.random.default_rng(3)

        def block(n):
            u = np.linalg.qr(rand_block(rng, n, n))[0]
            v = np.linalg.qr(rand_block(rng, n, n))[0]
            return u @ np.diag(np.r_[2.0, 1.0, 0.5, np.full(n - 3, 0.25)]) @ v

        a = permuted_block_diag([block(3), block(4), block(20)], rng)
        assert abs(opnorm(a) - 2.0) <= 1e-14 * 2.0

    def test_largest_norm_in_large_block(self):
        rng = np.random.default_rng(4)
        big = rand_block(rng, 30, 25)
        big *= 5.0 / np.linalg.norm(big, 2)
        small = [rand_block(rng, 2, 2) for _ in range(30)]
        small = [b / np.linalg.norm(b, 2) for b in small]
        a = permuted_block_diag(small[:15] + [big] + small[15:], rng)
        assert abs(opnorm(a) - 5.0) <= 1e-12 * 5.0

    def test_largest_norm_in_a_later_block(self):
        # several large and small blocks: the norm is not the first block's
        rng = np.random.default_rng(5)
        norms = [1.0, 2.0, 3.0, 4.0, 6.0, 5.0]
        shapes = [(20, 20), (2, 2), (25, 18), (1, 3), (22, 24), (3, 1)]
        blocks = []
        for nrm, shape in zip(norms, shapes):
            b = rand_block(rng, *shape)
            blocks.append(b * (nrm / np.linalg.norm(b, 2)))
        a = permuted_block_diag(blocks, rng)
        assert abs(opnorm(a) - 6.0) <= 1e-12 * 6.0
        small_top = permuted_block_diag([blocks[0], blocks[1] * 4.0, blocks[2]], rng)
        assert abs(opnorm(small_top) - 8.0) <= 1e-12 * 8.0

    def test_row_and_column_blocks(self):
        # a 1 x 3 and a 3 x 1 block: the norm is that of the row
        a = sp.csr_matrix(scipy.linalg.block_diag(np.full((1, 3), 1.0),
                                                  np.full((3, 1), 0.5)))
        assert abs(opnorm(a) - np.sqrt(3.0)) <= 1e-15 * np.sqrt(3.0)

    def test_single_entry(self):
        a = sp.csr_matrix(([3.0 - 4.0j], ([3], [5])), shape=(7, 9))
        assert opnorm(a) == 5.0

    def test_zero_blocks(self):
        # duplicates that cancel leave no edge beside two nonzero blocks
        a = sp.csr_matrix((np.array([1.0, -1.0, 2.0, 1.0]), [1, 1, 3, 4], [0, 2, 2, 3, 4]),
                          shape=(4, 5))
        assert opnorm(a) == 2.0
        # duplicates that cancel, next to explicit zeros: every block is zero
        a = sp.coo_matrix(([1.0, -1.0, 0.0], ([0, 0, 2], [1, 1, 3])), shape=(4, 5))
        assert opnorm(a.tocsr()) == 0.0

    def test_fewer_banded_solves_per_verify(self, monkeypatch):
        # the lift-space identity residuals of as_csr operators (the sparse
        # route) are Frobenius norms: only the contractivity of W1, W2 takes a
        # banded Gram eigensolve, one each, where the spectral norms of all
        # residuals made 18 per run of the lift suites
        base = qd.gen_direct_sum([qd.gen_clock_shift(2, 1.0),
                                  qd.gen_nilpotent(4, -1.0, 0.9, 0.8)])
        an = model.PairAnalysis(qd.gen_conjugated(base, seed=1)[0])
        n = 16
        solves = []
        eig_banded = scipy.linalg.eig_banded

        def counted(*args, **kwargs):
            solves.append(1)
            return eig_banded(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig_banded", counted)
        reports = []
        for lift in (qd.schaffer_lift(an.pair, an.tup, n), qd.douglas_lift(an, n)):
            lift = sparse_route(lift)
            reports += [qd.verify_lift(lift, an), qd.minimality_check(lift)]
        pi, tri = pseudolift.douglas_pseudo_lift(an, n)
        tri = sparse_triple(tri)
        reports += [pseudolift.is_pseudo_triple(tri), pseudolift.is_pseudo_lift(pi, tri, an)]
        assert all(rep.overall for rep in reports)
        assert len(solves) == 2


def close(got: float, ref: float, tol: float) -> bool:
    """Within 1e-10 relative, or both at most 1e-3 of the check's tolerance."""
    return abs(got - ref) <= 1e-10 * max(got, ref) or max(got, ref) <= 1e-3 * tol


def dense_lift_residuals(lift, pair, n):
    """The residuals of `verify_lift`, by the dense formulas it replaced: the
    lift-space identity residuals in Frobenius norm, the rest as before."""
    v1, v2 = matcore.as_csr(lift.v1).toarray(), matcore.as_csr(lift.v2).toarray()
    pi, q = lift.pi, pair.q
    e1, e2 = lift.space.interior(1), lift.space.interior(2)
    ident = eye(lift.space.total_dim)
    out = {
        "intertwine-v1": opnorm(adj(v1) @ pi - pi @ adj(pair.t1)),
        "intertwine-v2": opnorm(adj(v2) @ pi - pi @ adj(pair.t2)),
        "isometry-v1": frob((adj(v1) @ v1 - ident)[:, e1]),
        "isometry-v2": frob((adj(v2) @ v2 - ident)[:, e1]),
        "q-commute": frob((v1 @ v2 - q * v2 @ v1)[:, e2]),
    }
    if lift.kind == "schaffer":
        out["pi-isometry"] = frob(adj(pi) @ pi - eye(pair.dim))
    else:
        cp, t = lift.canonical, pair.product()
        tp = np.linalg.matrix_power(t, n + 1)
        out["pi-energy"] = frob(adj(pi) @ pi
                                - (eye(pair.dim) - tp @ adj(tp) + cp.q_op @ cp.q_op))
        mz = hardy.materialize(hardy.shift_symbol(lift.space.hardy.fiber_dim), n).matrix
        vd = scipy.linalg.block_diag(mz, cp.wd)
        out["product-structure"] = frob((v1 @ v2 - vd)[:, e2])
        pi_d, g = lifts.douglas_pseudo_lift(pair, n)
        g1, g2 = matcore.as_csr(g.w1).toarray(), matcore.as_csr(g.w2).toarray()
        out["gform-intertwine-1"] = opnorm(adj(g1) @ pi_d - pi_d @ adj(pair.t1))
        out["gform-intertwine-2"] = opnorm(adj(g2) @ pi_d - pi_d @ adj(pair.t2))
    return out


def dense_triple_residuals(tri):
    """The residuals of `is_pseudo_triple`, by the dense formulas it replaced:
    the contractivity by spectral norms, the identity residuals in Frobenius
    norm."""
    w1, w2, w = (matcore.as_csr(x).toarray() for x in (tri.w1, tri.w2, tri.w))
    q = tri.q
    e1, e2 = tri.space.interior(1), tri.space.interior(2)
    return {
        "axiom-i-contractions": max(0.0, max(opnorm(w1[:, e1]), opnorm(w2[:, e1])) - 1.0),
        "axiom-i-isometry": frob((adj(w) @ w - eye(tri.space.total_dim))[:, e1]),
        "axiom-ii-w1": frob((w1 @ w - q * w @ w1)[:, e2]),
        "axiom-ii-w2": frob((w2 @ w - np.conj(q) * w @ w2)[:, e2]),
        "axiom-iii": frob((w1 - np.conj(q) * adj(w2) @ w)[:, e1]),
    }


def assert_residuals_match(rep, oracle):
    by_id = {r.check_id: r for r in rep.records}
    assert set(oracle) == set(by_id), (sorted(oracle), sorted(by_id))
    for cid, ref in oracle.items():
        rec = by_id[cid]
        assert close(rec.residual, ref, rec.tolerance), (cid, rec.residual, ref)


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
        # V1 and V2 exchanged: the residuals are of order one, not rounding
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

    def test_dense_operators_accepted(self):
        pair = qd.gen_direct_sum([qd.gen_clock_shift(2, 1.0),
                                  qd.gen_nilpotent(3, -1.0, 0.9, 0.8)])
        lift = qd.douglas_lift(pair, self.N)
        dense = dataclasses.replace(lift, v1=matcore.as_csr(lift.v1).toarray(),
                                    v2=matcore.as_csr(lift.v2).toarray())
        a = qd.verify_lift(lift, pair)
        b = qd.verify_lift(dense, pair)
        assert [r.check_id for r in a.records] == [r.check_id for r in b.records]
        for ra, rb in zip(a.records, b.records):
            assert close(ra.residual, rb.residual, ra.tolerance), ra.check_id


class TestSparsity:
    def test_lift_operators_are_sparse(self):
        # N = 64: the benchmark's lift-scale truncation
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
            op = matcore.as_csr(op)
            assert sp.issparse(op) and op.format == "csr", name
            d = op.shape[0]
            assert d > 200, name
            assert op.nnz < 0.05 * d * d, (name, op.nnz, d)

    @pytest.mark.parametrize("n", [1, 5])
    def test_materialize_is_the_dense_csr(self, n):
        rng = np.random.default_rng(n)
        coeffs = tuple(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
                       for _ in range(2))
        sym = hardy.TwistedSymbol(np.conj(np.exp(0.3j)), coeffs)
        csr = hardy.materialize_csr(sym, n)
        assert np.array_equal(csr.toarray(), hardy.materialize(sym, n).matrix)
        assert csr.nnz == 2 * 3 * 2 * n + 3 * 2
