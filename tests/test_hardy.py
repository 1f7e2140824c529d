from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilate import hardy, matcore, model, pseudolift, qpair
from qdilate.ando import DefectData
from qdilate.errors import (
    FiberMismatchError,
    MaxIterationsExceededError,
    NotQCommutantError,
    QDilateError,
    TailTooLargeError,
)
from qdilate.hardy import (
    TruncHardy,
    TwistedSymbol,
    extract_symbol,
    materialize,
    obs_op,
    shift_symbol,
    symbol_compose,
    symbol_is_inner,
    symbol_norm,
)
from qdilate.matcore import adj, defect, eye, frob, opnorm

from test_report_snapshot import snapshot_pairs

Q = np.exp(2j * np.pi / 7)


def random_symbol(rng, q, fiber, degree, twist=1):
    coeffs = tuple(rng.standard_normal((fiber, fiber))
                   + 1j * rng.standard_normal((fiber, fiber))
                   for _ in range(degree + 1))
    return TwistedSymbol(q ** twist, coeffs)


def sigma_max(sym, theta) -> np.ndarray:
    """sigma_max(phi(e^{i theta})) at each angle."""
    z = np.exp(1j * np.atleast_1d(theta))[:, None, None]
    values = np.zeros((z.shape[0], sym.fiber_out, sym.fiber_in), dtype=complex)
    for c in reversed(sym.coeffs):
        values = z * values + c
    return matcore.stack_opnorms(values)


def grid_norm(sym, points: int = 2 ** 14, peaks: int = 4) -> float:
    """Oracle for max_{|z|=1} sigma_max(phi(z)): the best of a `points`-point
    angle grid, each of its `peaks` largest local maxima refined by bounded
    scalar minimisation over the two neighbouring grid cells."""
    if not sym.fiber_in or not sym.fiber_out:
        return 0.0
    theta = 2 * np.pi * np.arange(points) / points
    grid = sigma_max(sym, theta)
    local = np.flatnonzero((grid >= np.roll(grid, 1)) & (grid >= np.roll(grid, -1)))
    best = float(grid.max())
    step = 2 * np.pi / points
    for i in local[np.argsort(grid[local])[-peaks:]]:
        res = scipy.optimize.minimize_scalar(
            lambda t: -sigma_max(sym, t)[0], bounds=(theta[i] - step, theta[i] + step),
            method="bounded", options={"xatol": 1e-13})
        best = max(best, -float(res.fun))
    return best


def qz_eigvals(a, b):
    """The finite eigenvalues of the pencil (a, b) by QZ: the route the
    shift-invert of `hardy._pencil_eigvals` replaced, kept as its oracle."""
    lam = scipy.linalg.eigvals(a, b)
    return lam[np.isfinite(lam)]


def qz_symbol_norm(sym) -> float:
    """`symbol_norm` with its pencil eigenvalues from QZ."""
    with mock.patch.object(hardy, "_pencil_eigvals", qz_eigvals):
        return symbol_norm(sym)


def assert_matches_qz(sym) -> float:
    """symbol_norm agrees with its QZ route within 2 LEVEL_EPS relative."""
    got, want = symbol_norm(sym), qz_symbol_norm(sym)
    assert abs(got - want) <= 2 * hardy.LEVEL_EPS * want, (got, want)
    return got


class TestPhases:
    """hardy.phases: one table of rot^j for every phase site."""

    @pytest.mark.parametrize("rot", [1.0, -1.0, 1j, -1j])
    def test_exact_on_fourth_roots_of_unity(self, rot):
        table = hardy.phases(rot, 10_000)
        want = np.array([1.0, rot, rot ** 2, rot ** 3], dtype=complex)
        assert np.array_equal(table, want[np.arange(10_001) % 4])

    @pytest.mark.parametrize("rot", [np.exp(2j * np.pi / 3), np.exp(1j)])
    def test_unimodular_and_locally_consistent(self, rot):
        table = hardy.phases(rot, 10_000)
        assert np.abs(np.abs(table) - 1.0).max() <= 2 * matcore.EPS
        assert np.abs(table[1:] - table[:-1] * rot).max() <= 4 * matcore.EPS
        # every real and imaginary part of the conjugate table is equal
        assert np.array_equal(hardy.phases(np.conj(rot), 10_000), np.conj(table))

    @pytest.mark.parametrize("rot", [np.exp(2j * np.pi / 3), np.exp(1j), np.exp(0.3j)])
    def test_entries_lie_on_or_inside_the_circle(self, rot):
        # re^2 + im^2 <= 1 in exact rational arithmetic
        for z in hardy.phases(rot, 2000):
            assert Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 <= 1, z

    def test_product_of_a_rotation_and_its_conjugate_is_one(self):
        for rot in (np.exp(2j * np.pi / 3), np.exp(1j), Q):
            assert hardy.unit(rot * np.conj(rot)) == 1.0
            one, two = TwistedSymbol(rot, (eye(1),)), TwistedSymbol(np.conj(rot), (eye(1),))
            assert symbol_compose(one, two).rot == 1.0

    @pytest.mark.parametrize("rot", [complex("nan"), complex("inf"), 1.5])
    def test_symbol_rejects_a_non_unimodular_rotation(self, rot):
        with pytest.raises(FiberMismatchError):
            TwistedSymbol(rot, (eye(1),))


class TestCompose:
    def test_shift_rot_squared(self):
        # (M_z R_q)^2 = q M_{z^2} R_{q^2}
        s = symbol_compose(shift_symbol(1), TwistedSymbol(Q, (eye(1),)))
        ss = symbol_compose(s, s)
        assert abs(ss.rot - Q ** 2) <= 4 * matcore.EPS
        assert ss.degree == 2
        assert abs(ss.coeffs[2][0, 0] - Q) < 1e-15
        assert frob(ss.coeffs[0]) == 0.0 and frob(ss.coeffs[1]) == 0.0

    def test_identity_neutral(self):
        rng = np.random.default_rng(1)
        s = random_symbol(rng, Q, 3, 2)
        left = symbol_compose(TwistedSymbol(1.0, (eye(3),)), s)
        assert left.rot == hardy.unit(s.rot) and left.degree == s.degree
        assert all(frob(a - b) < 1e-14 for a, b in zip(left.coeffs, s.coeffs))

    def test_rotation_past_constant(self):
        # R_q composed with a constant multiplier keeps the coefficient
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s = symbol_compose(TwistedSymbol(Q, (eye(2),)), TwistedSymbol(1.0, (a,)))
        assert s.rot == hardy.unit(Q)
        assert frob(s.coeffs[0] - a) < 1e-15

    def test_fiber_mismatch(self):
        with pytest.raises(FiberMismatchError):
            symbol_compose(TwistedSymbol(1.0, (eye(2),)), TwistedSymbol(1.0, (eye(3),)))

    @pytest.mark.parametrize("seed", range(4))
    def test_materialize_respects_compose(self, seed):
        # product of materializations equals materialized product after
        # restricting inputs by the combined degree; exact coefficients
        rng = np.random.default_rng(seed)
        n = 9
        s1 = random_symbol(rng, Q, 2, rng.integers(0, 3), twist=int(rng.integers(-2, 3)))
        s2 = random_symbol(rng, Q, 2, rng.integers(0, 3), twist=int(rng.integers(-2, 3)))
        prod = symbol_compose(s1, s2)
        lhs = materialize(s1, n).matrix @ materialize(s2, n).matrix
        rhs = materialize(prod, n).matrix
        low = TruncHardy(2, n).low(n - s1.degree - s2.degree)
        assert opnorm((lhs - rhs)[:, low]) < 1e-13 * max(1.0, opnorm(rhs))


class TestInner:
    def test_projection_unitary_symbol(self):
        # (P_perp + z P) U with P a projection and U unitary is inner
        p = np.diag([1.0, 0.0]).astype(complex)
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        s = TwistedSymbol(Q, ((eye(2) - p) @ u, p @ u))
        ok, res = symbol_is_inner(s)
        assert ok and res < 1e-14

    def test_strict_contraction_not_inner(self):
        s = TwistedSymbol(1.0, (0.5 * eye(2),))
        ok, res = symbol_is_inner(s)
        assert not ok and res > 0.5

    def test_shift_inner(self):
        ok, _ = symbol_is_inner(shift_symbol(3))
        assert ok

    def test_inner_implies_truncated_isometry(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        s = TwistedSymbol(Q, ((eye(2) - p) @ u, p @ u))
        n = 8
        m = materialize(s, n)
        low = TruncHardy(2, n).low(n - 1)
        assert opnorm((adj(m.matrix) @ m.matrix - eye(m.matrix.shape[0]))[:, low]) < 1e-12


def rand_mat(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


class TestSymbolNorm:
    """hardy.symbol_norm against the grid oracle: at or above it (the value
    is a certified upper bound) and within 1e-10 relative of it."""

    @staticmethod
    def assert_oracle(sym):
        got, want = assert_matches_qz(sym), grid_norm(sym)
        assert want <= got <= want + 1e-10 * want, (got, want)
        return got

    @staticmethod
    def assert_certified(got, norm):
        # at most 2 LEVEL_EPS (relative) above the true norm, and never below
        # it by more than rounding
        assert -4 * matcore.EPS <= got - norm <= 2 * hardy.LEVEL_EPS * norm + 4 * matcore.EPS, got

    @pytest.mark.parametrize("degree", range(4))
    @pytest.mark.parametrize("shape", [(2, 2), (3, 1), (1, 3), (2, 3)])
    def test_random_symbols(self, degree, shape):
        rng = np.random.default_rng(10 * degree + shape[0] + 3 * shape[1])
        for rot in (np.conj(Q), 1.0, Q):
            coeffs = tuple(rand_mat(rng, *shape) for _ in range(degree + 1))
            self.assert_oracle(TwistedSymbol(rot, coeffs))

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)])
    def test_fiber_zero(self, shape):
        sym = TwistedSymbol(Q, (np.zeros(shape), np.zeros(shape)))
        assert symbol_norm(sym) == 0.0

    def test_zero_symbol(self):
        assert symbol_norm(TwistedSymbol(Q, (np.zeros((2, 2)),) * 3)) == 0.0

    def test_inner_symbols(self):
        # sigma_max = 1 on the whole circle: the shift, the projection-unitary
        # symbols of the lifts, a product of two of them and U z^3
        rng = np.random.default_rng(2)
        unitaries = [np.linalg.qr(rand_mat(rng, 3, 3))[0] for _ in range(3)]
        proj = np.diag([1.0, 0.0, 1.0]).astype(complex)
        one = TwistedSymbol(Q, ((eye(3) - proj) @ unitaries[0], proj @ unitaries[0]))
        two = TwistedSymbol(np.conj(Q), (adj(unitaries[1]) @ proj,
                                         adj(unitaries[1]) @ (eye(3) - proj)))
        zero = np.zeros((3, 3), dtype=complex)
        syms = [shift_symbol(2), one, two, symbol_compose(one, two),
                TwistedSymbol(1.0, (zero, zero, zero, unitaries[2]))]
        for sym in syms:
            self.assert_certified(self.assert_oracle(sym), 1.0)

    def test_two_equal_maxima(self):
        # |1 + z^2 / 2| and max(|1 + z/2|, |1 - z/2|) peak at z = 1 and -1
        one = np.ones((1, 1), dtype=complex)
        scalar = TwistedSymbol(Q, (one, 0 * one, 0.5 * one))
        diag = TwistedSymbol(Q, (eye(2), np.diag([0.5, -0.5]).astype(complex)))
        rng = np.random.default_rng(4)
        u, v = (np.linalg.qr(rand_mat(rng, 2, 2))[0] for _ in range(2))
        rotated = TwistedSymbol(Q, tuple(u @ c @ v for c in diag.coeffs))
        for sym in (scalar, diag, rotated):
            self.assert_certified(self.assert_oracle(sym), 1.5)

    def test_singular_leading_laurent_coefficient(self):
        # G_p = C_0* C_p is singular (rank-one C_0) or zero (C_0 = 0, or C_0
        # and C_p with orthogonal ranges): the pencil has infinite eigenvalues
        rng = np.random.default_rng(5)
        x, y = rand_mat(rng, 3, 1), rand_mat(rng, 1, 3)
        cases = [(x @ y, rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)),
                 (np.zeros((3, 3)), rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)),
                 (np.diag([1.0, 0.0, 0.0]), rand_mat(rng, 3, 3), np.diag([0.0, 2.0, 0.0]))]
        for coeffs in cases:
            self.assert_oracle(TwistedSymbol(Q, coeffs))

    @pytest.mark.parametrize("n", [6, 12, 24])
    def test_bounds_every_finite_section(self, n):
        # ||M_phi R_q|| on H^2 is at least the norm of its degree-n section,
        # up to rounding in the dense SVD of the section
        rng = np.random.default_rng(n)
        for degree in range(4):
            sym = TwistedSymbol(Q, tuple(rand_mat(rng, 2, 3) for _ in range(degree + 1)))
            section = np.linalg.norm(materialize(sym, n).matrix, 2)
            assert assert_matches_qz(sym) >= section * (1 - 16 * matcore.EPS)

    def test_iteration_cap_raises(self, monkeypatch):
        # each level at half the best sigma_max lies inside [0.5, 1.5], the
        # range of |1 + z/2| on the circle, so every level has crossings
        monkeypatch.setattr(hardy, "LEVEL_EPS", -0.25)
        sym = TwistedSymbol(Q, (eye(2), 0.5 * eye(2)))
        with pytest.raises(MaxIterationsExceededError, match="after 64 levels"):
            symbol_norm(sym)

    @pytest.mark.parametrize("reject", ["window", "singular"])
    def test_every_shift_rejected_raises(self, monkeypatch, reject):
        # a window of inf puts every eigenvalue within it of each shift; a
        # singular solve rejects a shift too
        if reject == "window":
            monkeypatch.setattr(hardy, "UNIMODULAR_WINDOW", np.inf)
        else:
            def singular(a, b):
                raise np.linalg.LinAlgError("Singular matrix")

            monkeypatch.setattr(np.linalg, "solve", singular)
        sym = TwistedSymbol(Q, (eye(2), 0.5 * eye(2)))
        with pytest.raises(MaxIterationsExceededError, match="every shift"):
            symbol_norm(sym)

    def test_sigma_max_only_on_the_start_grid_and_arc_midpoints(self, monkeypatch):
        # W1 of clock-shift n=32 (degree p 1, fiber f 32) has all 2pf pencil
        # eigenvalues on the circle at its first level: the 2p + 2 start
        # points and one midpoint per arc are all the sigma_max it needs,
        # with no evaluation at the crossings or at the final eigenvalues
        _, tri = pseudolift.douglas_pseudo_lift(
            model.PairAnalysis(qpair.from_spec("clock-shift:n=32,scale=0.9")), 6)
        sym = tri.w1.symbol
        p, f = sym.degree, sym.fiber_in
        points, stack_opnorms = [], matcore.stack_opnorms
        monkeypatch.setattr(matcore, "stack_opnorms",
                            lambda a: points.append(len(a)) or stack_opnorms(a))
        symbol_norm(sym)
        assert (p, f) == (1, 32)
        assert sum(points) <= 2 * p + 2 + 2 * p * f, points


class TestPencilAgainstQZ:
    """The shift-invert pencil of `symbol_norm` against the QZ route on the
    symbols the verifiers norm and on a derandomized family; the
    `TestSymbolNorm` oracles compare it with QZ too."""

    def test_snapshot_pair_symbols(self):
        # W1 and W2, which the pseudo suite norms, and their product W, of
        # every pair of the report snapshot at its truncation
        normed = 0
        for name, pair in snapshot_pairs():
            try:
                _, tri = pseudolift.douglas_pseudo_lift(model.PairAnalysis(pair), 12)
            except QDilateError:
                continue
            for op in (tri.w1, tri.w2, tri.w):
                assert_matches_qz(op.symbol)
                normed += 1
        assert normed >= 3 * 80

    @pytest.mark.parametrize("spec", ["clock-shift:n=16,scale=0.9",
                                      "nilpotent:n=16,q=-1,c=0.9,d=0.8"])
    def test_dim_16_symbols(self, spec):
        # on the clock-shift pair all 32 pencil eigenvalues of W1 and of W2
        # lie on the circle at the first level
        _, tri = pseudolift.douglas_pseudo_lift(model.PairAnalysis(qpair.from_spec(spec)), 6)
        for op in (tri.w1, tri.w2):
            assert_matches_qz(op.symbol)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(degree=st.integers(1, 3), fiber_out=st.integers(1, 3), fiber_in=st.integers(1, 3),
           kind=st.sampled_from(["random", "rank-one-leading", "zero-constant", "inner"]),
           seed=st.integers(0, 2 ** 16))
    def test_family(self, degree, fiber_out, fiber_in, kind, seed):
        # G_p = C_0* C_p is singular for a rank-one C_p or a zero C_0 (the
        # pencil then has infinite eigenvalues); an inner symbol has sigma_max
        # 1 on the whole circle, so every pencil eigenvalue is a crossing
        rng = np.random.default_rng(seed)
        coeffs = [rand_mat(rng, fiber_out, fiber_in) for _ in range(degree + 1)]
        if kind == "rank-one-leading":
            coeffs[-1] = rand_mat(rng, fiber_out, 1) @ rand_mat(rng, 1, fiber_in)
        elif kind == "zero-constant":
            coeffs[0] = np.zeros((fiber_out, fiber_in), dtype=complex)
        elif kind == "inner":
            n = fiber_in
            sym = TwistedSymbol(1.0, (np.linalg.qr(rand_mat(rng, n, n))[0],))
            for _ in range(degree):
                u = np.linalg.qr(rand_mat(rng, n, n))[0]
                proj = np.diag(rng.integers(0, 2, n)).astype(complex)
                sym = symbol_compose(sym, TwistedSymbol(Q, ((eye(n) - proj) @ u, proj @ u)))
            coeffs = list(sym.coeffs)
        assert_matches_qz(TwistedSymbol(Q, tuple(coeffs)))


class TestMaterialize:
    def test_shift_blocks(self):
        m = materialize(shift_symbol(1), 2).matrix
        vec = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.allclose(m @ vec, [0.0, 1.0, 2.0])

    def test_rotation_diagonal(self):
        m = materialize(TwistedSymbol(Q, (eye(1),)), 2).matrix
        assert np.allclose(np.diag(m), [1.0, Q, Q ** 2])

    def test_degree_one_block_structure(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = materialize(TwistedSymbol(Q, (a, b)), 1).matrix
        expected = np.block([[a, np.zeros((2, 2))], [b, Q * a]])
        assert frob(m - expected) < 1e-14

    def test_generating_relation(self):
        # R_q M_z = q M_z R_q on degrees <= N-1
        n = 6
        mz = materialize(shift_symbol(2), n).matrix
        rq = materialize(TwistedSymbol(Q, (eye(2),)), n).matrix
        low = TruncHardy(2, n).low(n - 1)
        assert opnorm((rq @ mz - Q * mz @ rq)[:, low]) < 1e-13


class TestObservability:
    def test_zero_contraction(self):
        t = np.zeros((2, 2), dtype=complex)
        _, basis = defect(adj(t))
        col = obs_op(t, DefectData(*defect(adj(t))), 3).matrix
        assert col.shape == (8, 2)
        assert frob(col[:2] @ basis.columns - eye(2)) < 1e-14
        assert frob(col[2:]) == 0.0

    def test_unitary_gives_zero(self):
        t = np.diag([1j, -1j]).astype(complex)
        _, basis = defect(adj(t))
        assert basis.dim == 0
        col = obs_op(t, DefectData(*defect(adj(t))), 3).matrix
        assert col.shape == (0, 2)

    def test_scalar_geometric(self):
        t = np.array([[0.5]], dtype=complex)
        _, basis = defect(adj(t))
        col = obs_op(t, DefectData(*defect(adj(t))), 4).matrix
        expected = np.sqrt(0.75) * 0.5 ** np.arange(5)
        assert np.allclose(np.abs(col.ravel()), expected)

    @staticmethod
    def energy(t, n, h):
        """(lhs, rhs) of the finite-section energy identity of the
        observability column O_N: ||O_N h||^2 = ||h||^2 - ||T*^{N+1} h||^2."""
        h = np.asarray(h, dtype=complex)
        col = obs_op(t, DefectData(*defect(adj(t))), n).matrix
        rest = np.linalg.matrix_power(adj(t), n + 1) @ h
        return (float(np.linalg.norm(col @ h) ** 2),
                float(np.linalg.norm(h) ** 2 - np.linalg.norm(rest) ** 2))

    def test_tail_identity_unitary(self):
        t = np.diag([1j]).astype(complex)
        lhs, rhs = self.energy(t, 5, np.array([1.0]))
        assert abs(lhs) < 1e-14 and abs(rhs) < 1e-14

    def test_tail_identity_zero(self):
        t = np.zeros((3, 3), dtype=complex)
        h = np.array([1.0, 2.0, -1.0], dtype=complex)
        lhs, rhs = self.energy(t, 4, h)
        assert abs(lhs - np.linalg.norm(h) ** 2) < 1e-12
        assert abs(lhs - rhs) < 1e-12

    def test_tail_identity_hand_value(self):
        # T = diag(0.5), h = e1, N = 3: both sides are 1 - 0.5^8 (telescoping)
        t = np.array([[0.5]], dtype=complex)
        lhs, rhs = self.energy(t, 3, np.array([1.0]))
        assert abs(lhs - (1 - 0.5 ** 8)) < 1e-14
        assert abs(rhs - (1 - 0.5 ** 8)) < 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_tail_identity_corpus(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 33))
        dim = int(rng.integers(1, 5))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = a / (np.linalg.norm(a, 2) + rng.random())
        h = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lhs, rhs = self.energy(t, n, h)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_choose_trunc(self):
        t = np.array([[0.5]], dtype=complex)
        n = hardy.choose_trunc(t)
        assert 0.5 ** (n + 1) < 1e-10 <= 0.5 ** n
        with pytest.raises(TailTooLargeError):
            hardy.choose_trunc(np.array([[1.0]], dtype=complex), max_degree=16)


class TestExtract:
    def test_round_trip_degree_one(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s = TwistedSymbol(Q, (a, b))
        sym, res = extract_symbol(materialize(s, 8), Q)
        assert sym.degree == 1
        assert frob(sym.coeffs[0] - a) < 1e-13
        assert frob(sym.coeffs[1] - b) < 1e-13
        assert res < 1e-12

    def test_round_trip_degree_two(self):
        rng = np.random.default_rng(5)
        coeffs = tuple(rng.standard_normal((2, 2)) + 0j for _ in range(3))
        s = TwistedSymbol(Q, coeffs)
        sym, res = extract_symbol(materialize(s, 8), Q)
        assert sym.degree == 2 and res < 1e-12

    def test_shift_rotation(self):
        s = symbol_compose(shift_symbol(1), TwistedSymbol(Q, (eye(1),)))
        sym, res = extract_symbol(materialize(s, 6), Q)
        assert sym.degree == 1
        assert abs(sym.coeffs[1][0, 0] - 1.0) < 1e-14
        assert res < 1e-13

    def test_rejects_non_commutant(self):
        n = 6
        proj = np.zeros(((n + 1), (n + 1)), dtype=complex)
        proj[0, 0] = 1.0
        op = hardy.TruncOperator(proj, TruncHardy(1, n), TruncHardy(1, n))
        with pytest.raises(NotQCommutantError):
            extract_symbol(op, Q)

    @pytest.mark.parametrize("seed", range(4))
    def test_tolerance_scale_is_below_the_spectral_scale(self, seed):
        # every column norm is at most ||A||, so the scale never exceeds the
        # spectral max(1, ||A||), contractive or not
        rng = np.random.default_rng(seed)
        for size in (0.05, 1.0, 8.0):
            s = random_symbol(rng, Q, 1 + seed % 3, 2)
            mat = size * materialize(s, 6).matrix
            scale = hardy._column_norm_scale(mat)
            assert 1.0 <= scale <= max(1.0, opnorm(mat)), (size, scale)
        assert hardy._column_norm_scale(np.zeros((0, 0), dtype=complex)) == 1.0

    def test_tolerance_scale_is_one_on_corpus_pseudo_lifts(self, corpus):
        # the W1, W2 Hardy blocks are contractions: the column scale is 1 up
        # to rounding and never above the spectral one
        for name, pair, _ in corpus:
            _, tri = pseudolift.douglas_pseudo_lift(model.PairAnalysis(pair), 12)
            for w in (tri.w1, tri.w2):
                block = materialize(w.symbol, 12).matrix
                scale = hardy._column_norm_scale(block)
                assert 1.0 <= scale <= 1.0 + 4 * matcore.EPS, (name, scale)
                assert scale <= max(1.0, opnorm(block)), (name, scale)

    def test_planted_precondition_residual_is_rejected(self):
        # A = M_phi R_q with phi = 2 (1 + z + z^2): largest column norm
        # 2 sqrt(3), ||A|| near 6; a planted entry puts ||A Mz - q Mz A||_F
        # between tol times the two scales, which only the column scale rejects
        n, tol = 12, 1e-10
        one = np.ones((1, 1), dtype=complex)
        a = materialize(TwistedSymbol(Q, (2 * one, 2 * one, 2 * one)), n).matrix
        mz = materialize(shift_symbol(1), n).matrix
        low = TruncHardy(1, n).low(n - 1)

        def pre(mat):
            return frob((mat @ mz - Q * (mz @ mat))[:, low])

        bump = np.zeros_like(a)
        bump[5, 3] = 1.0
        col, spec = hardy._column_norm_scale(a), opnorm(a)
        assert col < 0.6 * spec
        planted = a + bump * (tol * (col + spec) / 2 / pre(bump))
        col, spec = hardy._column_norm_scale(planted), max(1.0, opnorm(planted))
        assert tol * col < pre(planted) < tol * spec
        op = hardy.TruncOperator(planted, TruncHardy(1, n), TruncHardy(1, n))
        with pytest.raises(NotQCommutantError):
            extract_symbol(op, Q, tol)
        sym, res = extract_symbol(hardy.TruncOperator(a, op.domain, op.codomain), Q, tol)
        assert sym.degree == 2 and res < 1e-13

