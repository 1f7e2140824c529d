from dataclasses import replace

import numpy as np
import pytest

import qdilate as qd
from qdilate import hardy, matcore, model, qpair
from qdilate.ando import DefectData
from qdilate.errors import (
    NotCnuError,
    NotIntertwinerError,
    SingularResolventError,
)
from qdilate.matcore import adj, eye, frob, opnorm

from model_oracle import truncated_compress


def scalar_pair(c, q=1.0):
    return qd.validate(q, np.array([[c]], dtype=complex), eye(1))


def zero_pair():
    return qd.validate(1.0, np.zeros((1, 1)), np.zeros((1, 1)))


class TestFundamental:
    def test_unitary_pair_empty(self):
        f = qd.fundamental_ops(qd.gen_clock_shift(3, 1.0))
        assert f.g1.shape == (0, 0)
        assert f.funeq_residual < 1e-12

    def test_zero_pair(self):
        f = qd.fundamental_ops(zero_pair())
        assert f.g1.shape == (1, 1)
        assert abs(f.g1[0, 0]) < 1e-14
        assert abs(f.g2[0, 0]) < 1e-14

    def test_nilpotent_oracle_agreement(self):
        f = qd.fundamental_ops(qd.gen_nilpotent(2, 1j, 0.8, 0.8))
        assert f.funeq_residual < 1e-11
        assert f.oracle_gap < 1e-9

    def test_equations_directly(self):
        pair = qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.7)
        f = qd.fundamental_ops(pair)
        t = pair.product()
        b = f.defect.basis.columns
        d = f.defect.operator
        g1_h = b @ f.g1 @ adj(b)
        assert frob(d @ g1_h @ d - (adj(pair.t1) - pair.t2 @ adj(t))) < 1e-11

    def test_corpus_contractive(self, corpus):
        for name, pair, _ in corpus[::4]:
            f = qd.fundamental_ops(pair)
            assert opnorm(f.g1) <= 1 + 1e-9, name
            assert opnorm(f.g2) <= 1 + 1e-9, name

    def test_route_through_m_matches_the_completed_unitary(self, corpus):
        # G1 = Lambda_** P_*perp M_* and G2 = M_** P_* Lambda_* read U_* on
        # ran Lambda_* only; the completed U_* gives the same operators
        for name, pair, _ in corpus:
            star = qd.star_ando_tuple(pair)
            f = qd.fundamental_ops(pair)
            lam, p, u = star.lam, star.p, star.u
            p_perp = eye(star.f_dim) - p
            assert frob(f.g1 - adj(lam) @ p_perp @ u @ lam) < 1e-13, name
            assert frob(f.g2 - adj(lam) @ adj(u) @ p @ lam) < 1e-13, name

    @pytest.mark.parametrize("seed", range(8))
    def test_conjugated_mixed_pair_oracle_stability(self, seed):
        # regression: conjugation smears the unitary-part roundoff across all
        # entries; both the rank cutoffs and the oracle solve must hold up
        base = qd.gen_direct_sum([
            qd.gen_clock_shift(3, 1.0),
            qd.gen_nilpotent(3, np.exp(2j * np.pi / 3), 0.8, 0.8)])
        conj, _ = qd.gen_conjugated(base, seed=seed)
        f = qd.fundamental_ops(conj)
        assert f.funeq_residual < 1e-10
        assert f.oracle_gap < 1e-12


class TestCanonicalPair:
    def test_unitary_pair_is_itself(self):
        pair = qd.gen_clock_shift(3, 1.0)
        cp = qd.canonical_unitary_pair(pair)
        assert cp.dim == 3
        b = cp.basis.columns
        assert frob(b @ cp.w1 @ adj(b) - pair.t1) < 1e-12
        assert frob(b @ cp.w2 @ adj(b) - pair.t2) < 1e-12
        assert model.verify_canonical_pair(cp, pair).overall

    def test_cnu_product_trivial(self):
        cp = qd.canonical_unitary_pair(qd.gen_nilpotent(3, 1j, 0.9, 0.8))
        assert cp.dim == 0

    def test_direct_sum_block(self):
        pair = qd.gen_direct_sum([qd.gen_clock_shift(2, 1.0),
                                  qd.gen_nilpotent(3, -1.0 + 0j, 0.9, 0.8)])
        cp = qd.canonical_unitary_pair(pair)
        assert cp.dim == 2
        b = cp.basis.columns
        p_u = b @ adj(b)
        assert frob(b @ cp.w1 @ adj(b) - p_u @ pair.t1 @ p_u) < 1e-10
        assert model.verify_canonical_pair(cp, pair).overall

    def test_transport_identity(self):
        pair = qd.gen_clock_shift(3, 1.0)
        rep = qd.canonicity_transport(pair, pair, eye(3))
        assert rep.overall
        assert rep.worst() < 1e-12

    def test_transport_conjugation(self):
        base = qd.gen_direct_sum([qd.gen_clock_shift(4, 1.0),
                                  qd.gen_nilpotent(2, 1j, 0.8, 0.8)])
        conj, w = qd.gen_conjugated(base, seed=9)
        rep = qd.canonicity_transport(base, conj, w)
        assert rep.overall, rep.summary_lines()

    def test_transport_rejects_non_intertwiner(self):
        a = qd.gen_clock_shift(3, 1.0)
        rng = np.random.default_rng(4)
        w = np.linalg.qr(rng.standard_normal((3, 3))
                         + 1j * rng.standard_normal((3, 3)))[0]
        with pytest.raises(NotIntertwinerError):
            qd.canonicity_transport(a, a, w)

    def test_uniqueness_accepts_canonical(self):
        pair = qd.gen_clock_shift(4, 1.0)
        cp = qd.canonical_unitary_pair(pair)
        ok, rep = qd.verify_unique_canonical(pair, cp.w1, cp.w2)
        assert ok, rep.summary_lines()

    def test_uniqueness_rejects_phase(self):
        pair = qd.gen_clock_shift(4, 1.0)
        cp = qd.canonical_unitary_pair(pair)
        ok, rep = qd.verify_unique_canonical(pair, np.exp(0.1j) * cp.w1, cp.w2)
        assert not ok
        assert not rep.records[0].passed  # the Q-intertwining precondition

    def test_uniqueness_vacuous_for_trivial_q(self):
        pair = qd.gen_nilpotent(2, 1j, 0.8, 0.8)
        ok, _ = qd.verify_unique_canonical(pair, np.zeros((0, 0)), np.zeros((0, 0)))
        assert ok


class TestCharFn:
    def test_at_zero(self):
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        t = pair.product()
        from qdilate.ando import DefectData
        from qdilate import matcore
        dt = DefectData(*matcore.defect(t))
        dstar = DefectData(*matcore.defect(adj(t)))
        theta0 = qd.char_fn(t, 0.0, dt, dstar)
        expected = -adj(dstar.basis.columns) @ t @ dt.basis.columns
        assert frob(theta0 - expected) < 1e-13

    def test_zero_contraction_is_z(self):
        t = np.zeros((2, 2), dtype=complex)
        for z in (0.5, 0.3 - 0.4j):
            theta = qd.char_fn(t, z)
            assert frob(theta - z * eye(2)) < 1e-14

    def test_scalar_blaschke(self):
        c = 0.5
        t = np.array([[c]], dtype=complex)
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = 0.95 * (rng.random() * np.exp(2j * np.pi * rng.random()))
            assert abs(qd.char_fn(t, z)[0, 0] - (z - c) / (1 - c * z)) < 1e-13

    def test_singular_resolvent(self):
        t = np.array([[1.0]], dtype=complex)
        with pytest.raises(SingularResolventError):
            qd.char_fn(t, 1.0)

    def test_contractive_on_grid(self, cnu_corpus):
        for name, pair, _ in cnu_corpus[::6]:
            t = pair.product()
            for r in (0.3, 0.9):
                for k in range(8):
                    z = r * np.exp(2j * np.pi * k / 8)
                    assert opnorm(qd.char_fn(t, z)) <= 1 + 1e-9, name

    def test_contractive_all_corpus_products(self, corpus):
        # Theta is defined inside the disk for any contraction, cnu or not
        radii = np.linspace(0.1, 0.9, 8)
        for name, pair, _ in corpus:
            t = pair.product()
            from qdilate.ando import DefectData
            from qdilate import matcore
            dt = DefectData(*matcore.defect(t))
            dstar = DefectData(*matcore.defect(adj(t)))
            worst = 0.0
            for r in radii[::3]:
                for k in range(8):
                    z = r * np.exp(2j * np.pi * k / 8)
                    worst = max(worst, opnorm(qd.char_fn(t, z, dt, dstar)))
            assert worst <= 1 + 1e-9, name

    @pytest.mark.parametrize("z", [complex("nan"), complex("inf"), float("inf"),
                                   complex(0.5, float("nan"))])
    def test_non_finite_point_raises(self, z):
        with np.errstate(invalid="ignore"), pytest.raises(SingularResolventError):
            qd.char_fn(np.array([[0.5]]), z)

    def test_one_code_path(self, corpus):
        # the evaluator, the one-shot wrapper, the triple's Theta and the
        # plain folded formula give the same bits at every point; the
        # unfolded formula -T + z D_{T*}(I - zT*)^{-1} D_T, restricted to
        # the defect bases, agrees to rounding
        for name, pair, _ in corpus[::6]:
            t = pair.product()
            dt = DefectData(*matcore.defect(t))
            ds = DefectData(*matcore.defect(adj(t)))
            theta_fn = qd.CharFn(t, dt, ds)
            points = [r * np.exp(2j * np.pi * k / 8) for r in (0.3, 0.8)
                      for k in range(8)]
            if max(abs(np.linalg.eigvals(t))) < 1.0 - 1e-12:
                points += [np.exp(2j * np.pi * k / 8) for k in range(8)]
            cnu = qd.cnu_decompose(t).unitary_part.dim == 0
            triple = qd.char_triple(pair) if cnu else None
            b_t, b_s = dt.basis.columns, ds.basis.columns
            for z in points:
                theta = theta_fn(z)
                x = np.linalg.solve(eye(t.shape[0]) - z * adj(t), dt.operator @ b_t)
                plain = adj(b_s) @ -t @ b_t + z * (adj(b_s) @ ds.operator @ x)
                assert np.array_equal(theta, qd.char_fn(t, z, dt, ds)), name
                assert np.array_equal(theta, plain), name
                x = np.linalg.solve(eye(t.shape[0]) - z * adj(t), dt.operator)
                unfolded = adj(b_s) @ (-t + z * ds.operator @ x) @ b_t
                assert frob(theta - unfolded) <= 1e-14 * max(1.0, opnorm(theta)), name
                if triple is not None:
                    assert np.array_equal(
                        triple.theta(z),
                        qd.char_fn(t, z, triple.dt, triple.dstar)), name

    @staticmethod
    def _points(count):
        rng = np.random.default_rng(count)
        return 0.95 * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))

    @pytest.mark.parametrize("n", [1, 6, 64])
    def test_many_matches_scalar_across_chunks(self, n):
        # a point count that is not a multiple of the chunk: full chunks and
        # a short last one, each point equal to its own scalar call
        base = qd.gen_nilpotent(max(n, 2), 1j, 0.9, 0.8)
        t = base.product()[:n, :n]
        fn = qd.CharFn(t)
        chunk = max(1, model._STACK_ENTRIES // (n * n))
        zs = self._points(2 * chunk + 3 if n > 1 else chunk + 3)
        sizes, done = [], 0
        for z, thetas in fn.many(zs):
            assert np.array_equal(z, zs[done:done + z.size])
            assert thetas.shape == (z.size, fn.dstar.dim, fn.dt.dim)
            # at n = 1 a chunk holds 16384 points: compare its two ends
            for k in (range(z.size) if n > 1 else (0, z.size - 1)):
                assert np.array_equal(thetas[k], fn(z[k]))
            sizes.append(z.size)
            done += z.size
        assert sizes[:-1] == [chunk] * (len(sizes) - 1) and sizes[-1] == 3
        assert done == zs.size

    def test_many_with_empty_defect(self):
        # a unitary T: D_T = 0 and every value is 0 x 0
        t = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        fn = qd.CharFn(t)
        assert fn.dt.dim == 0
        zs = self._points(7)
        (z, thetas), = fn.many(zs)
        assert thetas.shape == (7, 0, 0)
        assert all(np.array_equal(th, fn(zk)) for zk, th in zip(z, thetas))
        # the solve still factors I - zT*: singular at a conjugate eigenvalue
        with pytest.raises(SingularResolventError, match="singular"):
            list(fn.many([0.5, 1.0]))

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"),
                                     complex(0.5, float("-inf"))])
    def test_non_finite_point_inside_a_stack_raises(self, bad):
        fn = qd.CharFn(qd.gen_nilpotent(3, 1j, 0.9, 0.8).product())
        with np.errstate(invalid="ignore"), pytest.raises(SingularResolventError):
            list(fn.many([0.1, 0.2j, bad, 0.3]))

    def test_singular_point_inside_a_stack_is_named(self):
        fn = qd.CharFn(np.array([[1.0]]))
        with pytest.raises(SingularResolventError, match=r"z = \(1\+0j\)"):
            list(fn.many([0.5, 0.25j, 1.0, 0.1]))

    @pytest.mark.parametrize("n, count", [(6, 1000), (64, 30), (130, 5)])
    def test_stacked_solve_within_budget(self, n, count, monkeypatch):
        shapes = []
        solve = np.linalg.solve

        def recording(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        t = qd.gen_nilpotent(n, 1j, 0.9, 0.8).product()
        fn = qd.CharFn(t)
        for _ in fn.many(self._points(count)):
            pass
        assert sum(s[0] for s in shapes) == count
        # a ring through the coset route solves once per coset, m / p of
        # them, in stacks of at most a chunk, and yields at most a chunk of
        # points at a time; any other ring solves once per point (at n = 130
        # a chunk is one point, and 1024 of them would take seconds)
        for m in (24, 64, 1024) if n < 100 else (24, 64):
            before = len(shapes)
            sizes = [z.size for z, _ in fn.grid([0.5], m)]
            solves = m // model._ring_order(m) if m > fn._chunk else m
            assert sum(k for k, _, _ in shapes[before:]) == solves
            assert sum(sizes) == m and max(sizes) <= fn._chunk
            # the cached Krylov stack: at most _RING_TERMS terms L T*^s
            if fn._krylov is not None:
                assert fn._krylov[1].size <= model._RING_TERMS * fn.dstar.dim * n
        for k, rows, cols in shapes:
            assert rows == cols == n
            assert k * n * n <= model._STACK_ENTRIES or k == 1

    @pytest.mark.parametrize("n", [6, 64, 130])
    def test_ring_state_within_bound(self, n):
        # the cached state has p <= _RING_TERMS terms and a ring at most
        # _RING_TERMS cosets, whatever m: a 4096-point ring has no divisor
        # p <= 32 with at most 32 cosets and holds nothing, so --grid 2x4096
        # holds no more than --grid 2x24
        t = qd.gen_nilpotent(n, 1j, 0.9, 0.8).product()
        held = {}
        for m in (24, 64, 1024, 4096):
            fn = qd.CharFn(t)
            next(fn.grid([0.5, 0.9], m))
            if fn._krylov is None:
                held[m] = 0
                continue
            p, krylov, t_star_p = fn._krylov
            assert p == model._ring_order(m) and m // p <= model._RING_TERMS
            assert krylov.shape == (p, fn.dstar.dim, n) and t_star_p.shape == (n, n)
            held[m] = krylov.size + t_star_p.size
        assert model._ring_order(4096) == 0
        assert held[4096] == 0 <= held[24]
        assert (held[24] > 0) == (24 > max(1, model._STACK_ENTRIES // (n * n)))

    @staticmethod
    def _grid_pairs():
        # the nine charfn-grid pairs and two near the boundary of the disk
        pairs = []
        for pos, dim in enumerate(range(16, 65, 6)):
            base = (qd.gen_nilpotent(dim, qpair.CORPUS_TWISTS["e1"], 0.9, 0.9) if pos % 2 == 0
                    else qd.gen_clock_shift(dim, 0.9))
            pairs.append(qd.gen_conjugated(base, 2 * pos + 1)[0])
        pairs.append(qd.gen_conjugated(qd.gen_clock_shift(32, 1 - 1e-6), 3)[0])
        pairs.append(qd.gen_conjugated(qd.gen_nilpotent(40, -1, 0.99, 0.99), 4)[0])
        return pairs

    @staticmethod
    def _per_point(fn, radii, m):
        zs = [r * np.exp(2j * np.pi * k / m) for r in radii for k in range(m)]
        z, thetas = zip(*fn.many(zs))
        return np.concatenate(z), np.concatenate(thetas)

    @staticmethod
    def _on_grid(fn, radii, m):
        z, thetas = zip(*fn.grid(radii, m))
        return np.concatenate(z), np.concatenate(thetas)

    @pytest.mark.parametrize("index", range(11))
    def test_grid_matches_many(self, index):
        # the coset route agrees with the per-point solves to a few eps
        # (3.0e-15 relative at worst here), on the same points in the same order
        fn = qd.CharFn(self._grid_pairs()[index].product())
        radii = list(np.linspace(0.1, 0.9, 12)) + [0.97, 0.99]
        for m in (16, 24, 64):
            z, thetas = self._on_grid(fn, radii, m)
            z_ref, ref = self._per_point(fn, radii, m)
            assert np.array_equal(z, z_ref)
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(thetas - ref).max() <= 1e-13 * scale
        assert (fn._krylov is not None) == (64 > fn._chunk)

    def test_grid_falls_back_bit_for_bit(self):
        # the boundary ring, rings outside the gate |r|^p <= 1/2 (a negative
        # radius is gated on |r|) and rings that fit one chunk are the
        # per-point values, bit for bit, in order
        wide = qd.CharFn(self._grid_pairs()[4].product())
        assert wide._chunk < 21 and 0.97 ** 16 > 0.5 and 0.99 ** 24 > 0.5
        for radii, m in (([1.0], 24), ([0.99], 24), ([0.97], 16), ([0.99, 1.0], 64),
                         ([-0.99], 21)):
            z, thetas = self._on_grid(wide, radii, m)
            z_ref, ref = self._per_point(wide, radii, m)
            assert np.array_equal(z, z_ref) and np.array_equal(thetas, ref)
        narrow = qd.CharFn(self._grid_pairs()[0].product())
        assert narrow._chunk >= 24
        radii = list(np.linspace(0.1, 0.9, 12)) + [1.0]
        for m in (16, 24):
            z, thetas = self._on_grid(narrow, radii, m)
            z_ref, ref = self._per_point(narrow, radii, m)
            assert np.array_equal(z, z_ref) and np.array_equal(thetas, ref)
        assert narrow._krylov is None
        # routed and per-point rings interleave in r-major order
        radii = [0.99, 0.5, 1.0, 0.3]
        z, thetas = self._on_grid(wide, radii, 24)
        z_ref, ref = self._per_point(wide, radii, 24)
        assert np.array_equal(z, z_ref)
        for ring in (0, 2):
            rows = slice(24 * ring, 24 * ring + 24)
            assert np.array_equal(thetas[rows], ref[rows])
        assert np.abs(thetas - ref).max() <= 1e-13

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.5, float("nan"))])
    def test_grid_non_finite_radius_raises(self, bad):
        fn = qd.CharFn(self._grid_pairs()[4].product())
        with np.errstate(invalid="ignore"), pytest.raises(SingularResolventError,
                                                          match="undefined at z = "):
            list(fn.grid([0.5, bad], 24))

    def test_coset_guard_names_a_point(self, monkeypatch):
        # I - w T*^p is invertible on every ring the gate lets through, so the
        # coset guard is driven here by a solve that returns a wrong Y, and by
        # one that fails
        fn = qd.CharFn(self._grid_pairs()[4].product())

        def wrong(a, b):
            return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + b.shape[-1:])

        monkeypatch.setattr(np.linalg, "solve", wrong)
        with pytest.raises(SingularResolventError,
                           match=r"numerically singular on the coset of z = \(0\.5\+0j\)"):
            list(fn.grid([0.5], 24))

        def failing(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing)
        with pytest.raises(SingularResolventError,
                           match=r"singular on the coset of z = \(0\.5\+0j\)"):
            list(fn.grid([0.5], 24))

    def test_triple_validates_once(self, cnu_corpus, monkeypatch):
        # the pair-level objects are built once per analysis (5 checks: the
        # cnu split, the three starred defects, D_T); verify_triple then adds
        # the power limit and the one evaluator, not one check per point
        an = model.PairAnalysis(cnu_corpus[0][1])
        an.cnu, an.dt, an.fundamental
        calls = []
        check = matcore.check_contraction

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(matcore, "check_contraction", counted)
        assert model.verify_triple(an).overall
        assert len(calls) <= 5


class TestDelta:
    def test_zero_contraction(self):
        t = np.zeros((2, 2), dtype=complex)
        assert frob(qd.delta_fn(t, 1.0)) < 1e-7

    def test_scalar(self):
        t = np.array([[0.5]], dtype=complex)
        for k in range(8):
            zeta = np.exp(2j * np.pi * k / 8)
            assert frob(qd.delta_fn(t, zeta)) < 1e-7

    def test_cnu_inner_on_circle(self):
        pair = qd.gen_clock_shift(3, 0.9)
        t = pair.product()
        for k in range(16):
            zeta = np.exp(2j * np.pi * k / 16)
            assert opnorm(qd.delta_fn(t, zeta)) < 1e-7

    def test_radial_evaluation(self):
        t = np.diag([1.0, 0.5]).astype(complex)  # not cnu: needs r < 1
        d = qd.delta_fn(t, 1.0, r=0.5)
        assert d.shape[0] == 1


class TestCharTriple:
    def test_nilpotent(self):
        tri = qd.char_triple(qd.gen_nilpotent(3, 1j, 0.9, 0.8))
        assert tri.unitary_dim == 0
        assert tri.q_residual < 1e-6

    def test_zero_pair_theta_is_z(self):
        tri = qd.char_triple(zero_pair())
        for z in (0.2, 0.7j):
            assert abs(tri.theta(z)[0, 0] - z) < 1e-14
        assert abs(tri.fundamental.g1[0, 0]) < 1e-14

    def test_unitary_rejected(self):
        with pytest.raises(NotCnuError):
            qd.char_triple(qd.gen_clock_shift(3, 1.0))

    def test_taylor_coeffs_match_evaluation(self):
        tri = qd.char_triple(qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.8))
        coeffs = tri.theta_coeffs(8)
        z = 0.4 + 0.2j
        horner = sum(c * z ** k for k, c in enumerate(coeffs))
        assert frob(horner - tri.theta(z)) < 1e-12

    def test_purely_contractive(self, cnu_corpus):
        # ||Theta(0) f|| < ||f|| strictly on unit vectors of ran D_T
        for name, pair, _ in cnu_corpus[::5]:
            tri = qd.char_triple(pair)
            if tri.dt.dim == 0:
                continue
            theta0 = tri.theta(0.0)
            worst = max(np.linalg.norm(theta0[:, j]) for j in range(tri.dt.dim))
            assert worst < 1.0 - 1e-12, name


class TestModelCompress:
    def test_zero_pair(self):
        comp = qd.model_compress(zero_pair())
        assert comp.m1.shape == (1, 1)
        assert abs(comp.m1[0, 0]) < 1e-12
        assert comp.report.overall

    def test_scalar_compression(self):
        c = 0.5
        comp = qd.model_compress(scalar_pair(c))
        assert abs(comp.m1[0, 0] - c) < 1e-8
        assert comp.report.overall

    def test_nilpotent_equivalence(self):
        pair = qd.gen_nilpotent(2, 1j, 0.8, 0.9)
        comp = qd.model_compress(pair)
        assert comp.report.overall, comp.report.summary_lines()
        assert comp.defect < 1e-8

    def test_rejects_unitary_part(self):
        with pytest.raises(NotCnuError):
            qd.model_compress(qd.gen_clock_shift(2, 1.0))

    @pytest.mark.parametrize("scale", [0.999, 1 - 1e-6])
    def test_spectral_radius_near_one(self, scale):
        # rho(T) = scale^2: no truncation below 10^4 degrees reaches a 1e-10 tail
        comp = qd.model_compress(qd.gen_clock_shift(2, scale))
        assert [r.check_id for r in comp.report.records] == [
            "intertwine-1", "intertwine-2", "pi-isometry", "equivalence-defect",
            "compressed-q-commute", "compressed-product"]
        assert comp.report.overall, comp.report.summary_lines()

    def test_matches_truncated_oracle(self, cnu_corpus):
        # K_i = Pi* M_i Pi is the oracle's compression m_i in H coordinates
        for name, pair, _ in cnu_corpus[::6]:
            comp = qd.model_compress(pair)
            oracle = truncated_compress(pair)
            for k, m in ((comp.m1, oracle.m1), (comp.m2, oracle.m2)):
                assert frob(oracle.pihat @ k @ adj(oracle.pihat) - m) < 1e-9, name

    def test_perturbed_g1_matches_oracle_norm(self, cnu_corpus):
        # negative control: with G1 moved by 1e-3 the intertwining fails, and
        # the exact all-degree norm is the truncated norm at N = 400
        rng = np.random.default_rng(7)
        for name, pair, _ in cnu_corpus[::6]:
            an = model.PairAnalysis(pair)
            fund = an.fundamental
            bump = rng.standard_normal(fund.g1.shape) + 1j * rng.standard_normal(fund.g1.shape)
            an.fundamental = replace(fund, g1=fund.g1 + 1e-3 * bump / opnorm(bump))
            rec = qd.model_compress(an).report.records[0]
            assert rec.check_id == "intertwine-1" and not rec.passed, name
            want = truncated_compress(an, n=400).intertwine[0]
            assert abs(rec.residual - want) <= 1e-10 * want, name

    def test_defect_shrinks_with_n(self):
        pair = qd.gen_clock_shift(3, 0.6)
        n = truncated_compress(pair).trunc
        comp_n = truncated_compress(pair, n=n)
        comp_2n = truncated_compress(pair, n=2 * n)
        # tail-driven: the defect at 2N must be consistent with rho^N decay
        if comp_n.defect > 1e-13:
            c_n = comp_n.defect / max(comp_n.tail, 1e-300)
            assert comp_2n.defect <= 10.0 * c_n * comp_2n.tail + 1e-12


class TestCoincidence:
    def test_self_identity(self):
        tri = qd.char_triple(qd.gen_nilpotent(3, 1j, 0.9, 0.8))
        rep = qd.verify_coincidence(tri, tri, eye(tri.dt.dim), eye(tri.dstar.dim))
        assert rep.overall
        assert rep.records[0].residual < 1e-14

    def test_conjugated_pair(self):
        base = qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.8)
        conj, w = qd.gen_conjugated(base, seed=2)
        tri_a = qd.char_triple(base)
        tri_b = qd.char_triple(conj)
        u, u_star = model.induced_defect_unitaries(tri_a, tri_b, w)
        rep = qd.verify_coincidence(tri_a, tri_b, u, u_star)
        assert rep.overall, rep.summary_lines()

    def test_distinct_blaschke_rejected(self):
        tri_a = qd.char_triple(scalar_pair(0.3))
        tri_b = qd.char_triple(scalar_pair(0.4))
        for phase_u in np.exp(2j * np.pi * np.arange(8) / 8):
            for phase_us in np.exp(2j * np.pi * np.arange(8) / 8):
                rep = qd.verify_coincidence(
                    tri_a, tri_b,
                    phase_u * eye(1), phase_us * eye(1))
                assert rep.records[0].residual > 1e-2

    def test_evaluators_of_different_dimension_stay_aligned(self):
        # Theta_a(z) = z I of the zero pair on C^12; Theta_b of zero(C^11) (+)
        # the 2 x 2 Jordan pair is z I (+) z^2 up to phases, on C^13.  Both
        # defects have dimension 12, but the evaluators' chunks hold 113 and
        # 96 points, so the 128 points of the grid split as [113, 15] and
        # [96, 32] on the two sides
        tri_a = qd.char_triple(qd.validate(1.0, np.zeros((12, 12)), np.zeros((12, 12))))
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        tri_b = qd.char_triple(qd.gen_direct_sum([
            qd.validate(1.0, np.zeros((11, 11)), np.zeros((11, 11))),
            qd.validate(1.0, jordan, eye(2))]))
        assert (tri_a.dt.dim, tri_b.dt.dim) == (12, 12)
        radii = np.linspace(0.1, 0.9, 8)
        assert [len(z) for z, _ in tri_a.theta.grid(radii, 16)] == [113, 15]
        assert [len(z) for z, _ in tri_b.theta.grid(radii, 16)] == [96, 32]
        rep = qd.verify_coincidence(tri_a, tri_b, eye(12), eye(12))
        worst = max(frob(tri_a.theta(z) - tri_b.theta(z))
                    for r in radii for z in r * np.exp(2j * np.pi * np.arange(16) / 16))
        assert not rep.overall
        assert rep.records[0].residual == pytest.approx(worst, rel=1e-12)


class TestAdmissible:
    def test_characteristic_triple_is_admissible(self):
        pair = qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.8)
        tri = qd.char_triple(pair)
        rep = qd.verify_admissible(tri.fundamental.g1, tri.fundamental.g2,
                                   tri.theta_coeffs(6), pair.q)
        assert rep.overall, rep.summary_lines()
        cond2 = next(r for r in rep.records if r.check_id == "cond2-trivial-delta")
        assert cond2.residual < 1e-14

    def test_theta_unimodular_only_at_roots_of_unity_rejected(self):
        # Theta = (1 + z^64)/2 has |Theta| = 1 at the 64th roots of unity, but
        # Theta*Theta - I = z^-64/4 - 1/2 + z^64/4 is not 0: the sum of the
        # norms of its Laurent coefficients reads 1
        one = eye(1)
        coeffs = [0.5 * one] + [0 * one] * 63 + [0.5 * one]
        rep = qd.verify_admissible(0 * one, 0 * one, coeffs, 1.0 + 0j)
        cond2 = next(r for r in rep.records if r.check_id == "cond2-trivial-delta")
        assert not cond2.passed
        assert cond2.note == "boundary defect bound 1.000e+00"

    def test_shift_model_admissible(self):
        one = eye(1)
        rep = qd.verify_admissible(0 * one, 0 * one, [0 * one, one], np.exp(2j))
        assert rep.overall

    def test_expansive_rejected(self):
        one = eye(1)
        rep = qd.verify_admissible(one, one, [0 * one, one], np.exp(2j))
        by_id = {r.check_id: r for r in rep.records}
        assert not by_id["cond1-contractive"].passed

    def test_contractive_section_of_a_non_contractive_symbol_rejected(self):
        # a + bz with a = b = (1 + 1e-6)/2 has sup norm 1 + 1e-6 on the circle,
        # while its section on the degrees <= 5 of TruncHardy(1, 6) is a
        # contraction (norm 0.975): cond1 reads the untruncated norm
        one = eye(1)
        a = b = (1 + 1e-6) / 2
        sym = model.model_symbols(1.0 + 0j, np.conj(a) * one, b * one)[0]
        section = hardy.materialize(sym, 6).matrix[:, :6]
        assert np.linalg.norm(section, 2) < 0.98
        rep = qd.verify_admissible(np.conj(a) * one, b * one, [0 * one, one], 1.0 + 0j)
        cond1 = next(r for r in rep.records if r.check_id == "cond1-contractive")
        assert not cond1.passed
        # the sup norm is read from above, within 2 LEVEL_EPS (relative)
        assert 1e-6 <= cond1.residual <= 1e-6 + 2.1e-12

    def test_non_inner_theta_out_of_scope(self):
        one = eye(1)
        rep = qd.verify_admissible(0 * one, 0 * one, [0.5 * one], 1.0 + 0j)
        assert not rep.overall
        assert any("scope" in r.anchor for r in rep.records)

    def test_bumped_g1_fails_invariance_and_compression(self):
        # a random block of norm 1e-6 on G1 of the admissible triple above
        # moves Theta H^2 off an invariant subspace and breaks both product
        # identities on the model space; cond1 and cond2 do not see it
        pair = qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.8)
        tri = qd.char_triple(pair)
        g1 = tri.fundamental.g1
        rng = np.random.default_rng(0)
        bump = rng.standard_normal(g1.shape) + 1j * rng.standard_normal(g1.shape)
        bump *= 1e-6 / np.linalg.norm(bump, 2)
        rep = qd.verify_admissible(g1 + bump, tri.fundamental.g2, tri.theta_coeffs(6), pair.q)
        by_id = {r.check_id: r for r in rep.records}
        assert by_id["cond1-contractive"].passed and by_id["cond2-trivial-delta"].passed
        for cid in ("cond3-invariance", "cond4-q-commute", "cond4-product"):
            assert by_id[cid].residual > 100 * by_id[cid].tolerance, (cid, by_id[cid].residual)

    def test_non_square_theta_out_of_scope(self):
        # Theta = (1, 0)^T is inner but not square: H^2 (-) Theta H^2 holds
        # z^k (0, 1)^T for every k, so the model space is not finite-dimensional
        one = eye(2)
        rep = qd.verify_admissible(0 * one, 0 * one, [np.array([[1.0], [0.0]])], 1.0 + 0j)
        last = rep.records[-1]
        assert (last.check_id, last.passed) == ("cond2-trivial-delta", False)
        assert "non-square" in last.anchor and "scope" in last.anchor

    def test_constant_unitary_theta_has_an_empty_model_space(self):
        rep = qd.verify_admissible(0 * eye(2), 0 * eye(2), [np.array([[0, 1], [1, 0]])], 1.0 + 0j)
        by_id = {r.check_id: r for r in rep.records}
        assert by_id["cond3-invariance"].residual == 0.0
        assert by_id["cond4-compression"].skipped
        assert by_id["cond4-compression"].note == "the model space is 0"
