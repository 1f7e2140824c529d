import numpy as np
import pytest

import qdilate as qd
from qdilate import lifts, matcore, pseudolift
from qdilate.errors import (
    DimensionMismatchError,
    MaxIterationsExceededError,
    NegativeEigenvalueError,
    NotContractionError,
    NotHermitianError,
    NotIsometricOnSourceError,
)
from qdilate.matcore import (
    SubspaceBasis,
    adj,
    complete_to_unitary,
    defect,
    eye,
    frob,
    opnorm,
    orth_columns,
    power_limit,
    psd_sqrt,
    stein_sum,
)

from conftest import rand_psd
from test_sparse import lift_matrix


class TestPsdSqrt:
    def test_identity(self):
        assert frob(psd_sqrt(eye(3)) - eye(3)) < 1e-14

    def test_diagonal(self):
        h = np.diag([4.0, 0.25]).astype(complex)
        assert frob(psd_sqrt(h) - np.diag([2.0, 0.5])) < 1e-14

    def test_random_psd_squares_back(self):
        # oracle: an independent S must satisfy S^2 = A; frozen seed, dim 5
        rng = np.random.default_rng(5)
        a = rand_psd(rng, 5)
        s = psd_sqrt(a)
        assert frob(s @ s - a) < 1e-10
        assert frob(s - adj(s)) < 1e-12
        assert np.linalg.eigvalsh(s).min() > -1e-12

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalueError):
            psd_sqrt(np.diag([1.0, -0.5]).astype(complex))

    def test_clamps_roundoff(self):
        h = np.diag([1.0, -1e-14]).astype(complex)
        s = psd_sqrt(h)
        assert frob(s - np.diag([1.0, 0.0])) < 1e-7

    @pytest.mark.parametrize("n", [1, 2, 8, 33, 64])
    def test_residual_invariant(self, n):
        rng = np.random.default_rng(n)
        a = rand_psd(rng, n)
        s = psd_sqrt(a)
        assert frob(s @ s - a) <= 1e-10 * max(1.0, frob(a))


class TestDefect:
    def test_unitary_has_no_defect(self):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        d, basis = defect(u)
        assert frob(d) < 1e-7
        assert basis.dim == 0

    def test_zero_has_full_defect(self):
        d, basis = defect(np.zeros((3, 3), dtype=complex))
        assert frob(d - eye(3)) < 1e-14
        assert basis.dim == 3

    def test_partial_defect(self):
        t = np.diag([0.6, 1.0]).astype(complex)
        d, basis = defect(t)
        assert frob(d - np.diag([0.8, 0.0])) < 1e-12
        assert basis.dim == 1
        assert abs(abs(basis.columns[0, 0]) - 1.0) < 1e-12

    def test_not_contraction(self):
        with pytest.raises(NotContractionError):
            defect(np.diag([1.5, 0.2]).astype(complex))

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t = a / (np.linalg.norm(a, 2) * (1 + rng.random()))
        d, basis = defect(t)
        assert np.linalg.norm(d, 2) <= 1 + 1e-12
        if basis.dim:
            gram = adj(basis.columns) @ basis.columns
            assert frob(gram - eye(basis.dim)) < 1e-12


class TestCompleteToUnitary:
    def test_full_space_returns_partial(self):
        u = np.array([[0, 1j], [1, 0]], dtype=complex) / 1.0
        u, _ = np.linalg.qr(u)
        basis = SubspaceBasis(eye(2))
        out = complete_to_unitary(basis, basis, u)
        assert frob(out - u) < 1e-12

    def test_c2_example(self):
        # send (0,1) to (1,0); the complement action comes from the fixed
        # deterministic convention, and the result must be unitary
        source = SubspaceBasis(np.array([[0.0], [1.0]], dtype=complex))
        target = SubspaceBasis(np.array([[1.0], [0.0]], dtype=complex))
        partial = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        u = complete_to_unitary(source, target, partial)
        assert frob(adj(u) @ u - eye(2)) < 1e-12
        assert np.allclose(u @ np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_agreement_on_source(self):
        rng = np.random.default_rng(11)
        w = np.linalg.qr(rng.standard_normal((5, 5))
                         + 1j * rng.standard_normal((5, 5)))[0]
        source = SubspaceBasis(w[:, :2])
        target = SubspaceBasis(w[:, 2:4])
        partial = target.columns @ adj(source.columns)
        u = complete_to_unitary(source, target, partial)
        assert frob(adj(u) @ u - eye(5)) < 1e-12
        assert frob(u @ source.columns - partial @ source.columns) < 1e-12

    def test_dimension_mismatch(self):
        source = SubspaceBasis(np.array([[1.0], [0.0]], dtype=complex))
        target = SubspaceBasis(eye(2))
        with pytest.raises(DimensionMismatchError):
            complete_to_unitary(source, target, eye(2))

    def test_not_isometric(self):
        basis = SubspaceBasis(eye(2))
        with pytest.raises(NotIsometricOnSourceError):
            complete_to_unitary(basis, basis, 0.5 * eye(2))

    def test_deterministic(self):
        source = SubspaceBasis(np.array([[0.0], [1.0], [0.0]], dtype=complex))
        target = SubspaceBasis(np.array([[0.0], [0.0], [1.0]], dtype=complex))
        partial = np.zeros((3, 3), dtype=complex)
        partial[2, 1] = 1.0
        u1 = complete_to_unitary(source, target, partial)
        u2 = complete_to_unitary(source, target, partial)
        assert np.array_equal(u1, u2)


class TestPowerLimit:
    def test_unitary(self):
        u = np.diag([1j, -1.0]).astype(complex)
        assert frob(power_limit(u) - eye(2)) < 1e-12

    def test_strict_contraction(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = 0.7 * a / np.linalg.norm(a, 2)
        assert frob(power_limit(t)) < 1e-11

    def test_mixed_diagonal(self):
        # direct limit of diag(1, 0.25^n) is diag(1, 0)
        t = np.diag([1.0, 0.5]).astype(complex)
        assert frob(power_limit(t) - np.diag([1.0, 0.0])) < 1e-11

    def test_fixed_point_invariant(self):
        t = np.diag([1.0, 0.9, 0.3]).astype(complex)
        a = power_limit(t, tol=1e-13)
        assert frob(t @ a @ adj(t) - a) < 10 * 1e-13

    def test_max_iterations(self):
        t = np.diag([1.0 - 1e-14]).astype(complex)
        with pytest.raises(MaxIterationsExceededError):
            power_limit(t, tol=1e-30, max_doublings=3)


class TestSteinSum:
    def test_nilpotent_is_a_finite_sum(self):
        t = qd.gen_nilpotent(4, 1j, 0.9, 0.8).product()   # t^4 = 0
        rng = np.random.default_rng(3)
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        partial = sum(np.linalg.matrix_power(t, k) @ c @ np.linalg.matrix_power(adj(t), k)
                      for k in range(4))
        assert frob(stein_sum(t, adj(t), c) - partial) < 1e-14 * frob(partial)

    def test_zero_input(self):
        c = np.arange(6, dtype=complex).reshape(2, 3)
        assert np.array_equal(stein_sum(np.zeros((2, 2)), np.zeros((3, 3)), c), c)
        t = np.diag([0.5, 0.9]).astype(complex)
        assert not stein_sum(t, adj(t), np.zeros((2, 2))).any()

    @pytest.mark.parametrize("scale", [0.9, 0.999, 1 - 1e-6])
    @pytest.mark.parametrize("seed", range(2))
    def test_conjugated_clock_shift_gramian(self, scale, seed):
        # sum_k T^k (I - TT*) T*^k = I for a pure T, here with rho = scale^2
        t = qd.gen_conjugated(qd.gen_clock_shift(3, scale), seed)[0].product()
        c = eye(3) - t @ adj(t)
        x = stein_sum(t, adj(t), c)
        assert frob(x - t @ x @ adj(t) - c) < 1e-14
        assert frob(x - eye(3)) < 10 * matcore.EPS / (1 - scale ** 2)

    def test_phase_against_kronecker_solve(self):
        # X - aXb = c with a = qbar T, b = T*: vec(aXb) = (b^T kron a) vec(X)
        pair = qd.gen_conjugated(qd.gen_clock_shift(4, 0.95), 5)[0]
        t = pair.product()
        a, b = np.conj(pair.q) * t, adj(t)
        rng = np.random.default_rng(8)
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vec = np.linalg.solve(eye(16) - np.kron(b.T, a), c.reshape(-1, order="F"))
        want = vec.reshape(4, 4, order="F")
        assert frob(stein_sum(a, b, c) - want) < 1e-12 * frob(want)

    def test_max_iterations(self):
        with pytest.raises(MaxIterationsExceededError):
            stein_sum(eye(1), eye(1), eye(1))


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        obj = matcore.matrix_to_json(a)
        assert obj["rows"] == 2 and obj["cols"] == 3
        back = matcore.matrix_from_json(obj)
        assert np.array_equal(a, back)

    def test_bad_length(self):
        with pytest.raises(DimensionMismatchError):
            matcore.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})


class TestDenseOpnorm:
    @staticmethod
    def layouts(a):
        """a in C and Fortran order, transposed, and as strided slices."""
        yield a
        yield np.asfortranarray(a)
        yield a.T
        yield np.asfortranarray(a).T
        yield a[::2, ::-1]
        yield a[1:, :-1]

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3), (1, 6), (6, 1), (1, 1)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_same_bits_as_numpy_norm(self, shape, kind):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape)
        if kind == "complex":
            a = a + 1j * rng.standard_normal(shape)
        for view in self.layouts(a):
            if view.size:
                want = float(np.linalg.norm(view, 2))
                assert opnorm(view) == want, (shape, kind, view.strides)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_is_zero(self, shape):
        assert opnorm(np.zeros(shape, dtype=complex)) == 0.0
        assert opnorm(np.zeros(shape)) == 0.0


class TestRankHelpers:
    def test_orbit_rank_shift(self):
        n = 6
        s = np.zeros((n, n), dtype=complex)
        for k in range(n - 1):
            s[k + 1, k] = 1.0
        seed = np.zeros((n, 1), dtype=complex)
        seed[0, 0] = 1.0
        assert matcore.greedy_orbit_rank(s, seed) == n

    def test_orbit_rank_invariant_subspace(self):
        t = np.diag([1.0, 0.5]).astype(complex)
        seed = np.array([[1.0], [0.0]], dtype=complex)
        assert matcore.greedy_orbit_rank(t, seed) == 1

    def test_numerical_rank(self):
        a = np.diag([1.0, 1e-3, 1e-12]).astype(complex)
        assert matcore.numerical_rank(a, rank_tol=1e-8) == 2


def hstack_orbit_rank(ops, seed_columns, rank_tol=1e-8):
    """The greedy orbit rank as first written: the basis regrown by hstack and
    projected through adj(basis) every round.  Oracle for the in-place one."""
    if isinstance(ops, np.ndarray):
        ops = [ops]
    ops = [matcore.as_cmatrix(o) for o in ops]
    n = seed_columns.shape[0]
    basis = orth_columns(seed_columns, rank_tol=rank_tol)
    frontier = basis
    for _ in range(n + 1):
        if basis.shape[1] >= n or frontier.shape[1] == 0:
            break
        images = np.hstack([op @ frontier for op in ops]) if ops else frontier
        resid = images - basis @ (adj(basis) @ images)
        resid = resid - basis @ (adj(basis) @ resid)
        new = orth_columns(resid, rank_tol=rank_tol)
        if new.shape[1] == 0:
            break
        basis = np.hstack([basis, new])
        frontier = new
    return basis.shape[1]


def assert_same_rank(ops, seed):
    got = matcore.greedy_orbit_rank(ops, seed)
    assert got == hstack_orbit_rank(ops, seed)
    return got


class TestGreedyOrbitRank:
    TRUNC = 12

    def test_lift_orbits_match_oracle(self, corpus):
        for name, pair, _ in corpus[::3]:
            schaffer = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), self.TRUNC)
            douglas = qd.douglas_lift(pair, self.TRUNC)
            pi, tri = pseudolift.douglas_pseudo_lift(pair, self.TRUNC)
            for op, seed in ((lift_matrix(schaffer.product), schaffer.pi),
                             (lift_matrix(douglas.product), douglas.pi),
                             (lift_matrix(tri.w), pi)):
                assert_same_rank(op, seed)

    def test_joint_orbits(self):
        # the two-variable pair of the two-lifts fixture, with and without
        # its rotation
        n, q = 6, np.exp(1j)
        mz1, mz2, rot = lifts._bidisk_ops(n, q)
        seed = np.zeros(((n + 1) ** 2, 1), dtype=complex)
        seed[0, 0] = 1.0
        assert assert_same_rank([rot @ mz1, mz2], seed) == (n + 1) ** 2
        assert assert_same_rank([mz1, mz2], seed) == (n + 1) ** 2
        rng = np.random.default_rng(7)
        ops = [np.diag(rng.standard_normal(9)).astype(complex), np.eye(9, k=-3, dtype=complex)]
        seed = (rng.standard_normal((9, 1)) + 0j)
        assert_same_rank(ops, seed)

    def test_full_rank_seed(self):
        # the shift reaches all of C^n from e_0, and a full seed is done at once
        n = 9
        s = np.eye(n, k=-1, dtype=complex)
        seed = np.zeros((n, 1), dtype=complex)
        seed[0, 0] = 1.0
        assert assert_same_rank(s, seed) == n
        assert assert_same_rank(s, eye(n)) == n

    def test_rank_deficient_seed(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
        t = np.diag(np.r_[np.ones(4), np.full(4, 0.5)]).astype(complex)
        seed = np.hstack([x, 2.0 * x, -1j * x])
        assert assert_same_rank(t, seed) == 2
        assert assert_same_rank(t, np.zeros((8, 3), dtype=complex)) == 0

    def test_empty_ops(self):
        rng = np.random.default_rng(9)
        seed = rng.standard_normal((6, 2)) + 0j
        assert assert_same_rank([], seed) == 2

    def test_overfull_last_round(self):
        # images of size 1e12: rounding leaves more directions above the
        # absolute cutoff than the space has room for, and each one counts
        rng = np.random.default_rng(1)
        ops = [1e12 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
               for _ in range(3)]
        seed = np.array([[1.0], [0.0]], dtype=complex)
        assert assert_same_rank(ops, seed) == 3
