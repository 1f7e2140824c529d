import dataclasses

import numpy as np
import pytest

import qdilate as qd
from qdilate import ando, cli, matcore, model
from qdilate.errors import NotIsometricOnSourceError
from qdilate.matcore import adj, eye, frob

from conftest import rand_vec, with_u


def zero_pair(n=1):
    return qd.validate(1.0, np.zeros((n, n)), np.zeros((n, n)))


class TestConstruction:
    def test_zero_pair_dim1_hand_values(self):
        # all defects are C; Lambda(1) = (0, 1) and U maps (0, 1) to (1, 0)
        tup = qd.special_ando_tuple(zero_pair())
        assert (tup.d1_dim, tup.d2_dim, tup.dt_dim, tup.e_dim) == (1, 1, 1, 0)
        assert np.allclose(tup.lam.ravel(), [0.0, 1.0])
        assert np.allclose(tup.u @ np.array([0.0, 1.0]), [1.0, 0.0])
        assert frob(adj(tup.u) @ tup.u - eye(2)) < 1e-12

    def test_unitary_pair_trivial(self):
        tup = qd.special_ando_tuple(qd.gen_clock_shift(4, 1.0))
        assert tup.f_dim == 0
        assert tup.lam.shape == (0, 0)

    def test_scaled_clock_shift_invariants(self):
        p = qd.gen_clock_shift(2, 0.5)
        tup = qd.special_ando_tuple(p)
        rep = ando.verify_tuple_invariants(tup, p)
        assert rep.overall, rep.summary_lines()

    def test_projection_is_first_summand(self):
        p = qd.gen_nilpotent(3, 1j, 0.8, 0.9)
        tup = qd.special_ando_tuple(p)
        expected = np.zeros((tup.f_dim, tup.f_dim), dtype=complex)
        expected[:tup.d1_dim, :tup.d1_dim] = eye(tup.d1_dim)
        assert np.array_equal(tup.p, expected)


class TestDefectIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_lambda_isometry_identity(self, seed, corpus):
        # ||D_{T1} T2 h||^2 + ||D_{T2} h||^2 = ||D_T h||^2 for random h
        rng = np.random.default_rng(seed)
        name, p, _ = corpus[rng.integers(len(corpus))]
        tup = qd.special_ando_tuple(p)
        h = rand_vec(rng, p.dim)
        lhs = (np.linalg.norm(tup.defect_t1.operator @ p.t2 @ h) ** 2
               + np.linalg.norm(tup.defect_t2.operator @ h) ** 2)
        rhs = np.linalg.norm(tup.defect_t.operator @ h) ** 2
        assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)

    def test_operator_form(self):
        p = qd.gen_nilpotent(4, np.exp(1j), 1.0, 0.7)
        t = p.product()
        d_sq = eye(4) - adj(t) @ t
        d2_sq = eye(4) - adj(p.t2) @ p.t2
        d1_sq = eye(4) - adj(p.t1) @ p.t1
        assert frob(d_sq - (d2_sq + adj(p.t2) @ d1_sq @ p.t2)) < 1e-13
        assert frob(d_sq - (d1_sq + adj(p.t1) @ d2_sq @ p.t1)) < 1e-13


class TestStructuralIdentities:
    def test_zero_pair_exact(self):
        pair = zero_pair()
        tup = qd.special_ando_tuple(pair)
        rep = qd.verify_prop1(tup, pair)
        assert rep.overall and rep.worst() <= 1e-12, rep.summary_lines()
        star = qd.star_ando_tuple(pair)
        rep2 = qd.verify_prop2(star, pair)
        assert rep2.overall and rep2.worst() <= 1e-12, rep2.summary_lines()

    def test_unitary_pair_collapse(self):
        pair = qd.gen_clock_shift(3, 1.0)
        tup = qd.special_ando_tuple(pair)
        rep = qd.verify_prop1(tup, pair)
        assert rep.overall and rep.worst() <= 1e-12

    def test_conjugated_nilpotent(self):
        base = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        pair, _ = qd.gen_conjugated(base, seed=3)
        tup = qd.special_ando_tuple(pair)
        star = qd.star_ando_tuple(pair)
        for rep in (qd.verify_prop1(tup, pair), qd.verify_prop2(star, pair)):
            assert rep.overall and rep.worst() <= 1e-10

    def test_star_tuple_shapes(self):
        pair = zero_pair()
        star = qd.star_ando_tuple(pair)
        assert (star.d1_dim, star.d2_dim, star.dt_dim) == (1, 1, 1)
        tup = qd.special_ando_tuple(qd.gen_nilpotent(3, 1j, 0.8, 0.9))
        assert tup.f_dim == tup.d1_dim + tup.d2_dim

    def test_corpus(self, corpus):
        for name, p, _ in corpus:
            tup = qd.special_ando_tuple(p)
            star = qd.star_ando_tuple(p)
            for rep in (qd.verify_prop1(tup, p), qd.verify_prop2(star, p)):
                assert rep.overall and rep.worst() <= 1e-10, name

    def test_star_defect_matches_product_adjoint(self):
        # the starred tuple's product defect is D_{T*} for T = T1 T2
        p = qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.8)
        star = qd.star_ando_tuple(p)
        t = p.product()
        from qdilate import matcore
        d_direct = matcore.psd_sqrt(eye(3) - t @ adj(t))
        assert frob(star.defect_t.operator - d_direct) < 1e-12


class TestJson:
    def test_tuple_json(self):
        tup = qd.special_ando_tuple(qd.gen_clock_shift(2, 0.5))
        obj = tup.to_json()
        assert obj["e_dim"] == 0
        assert obj["lambda"]["rows"] == tup.f_dim


class TestLazyCompletion:
    """The tuple keeps M = U Lambda and completes U on the first read of `u`;
    the input checks of the completion run when the tuple is built."""

    PAIR = qd.gen_nilpotent(3, 1j, 0.8, 0.9)

    def test_build_completes_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("completion at build time")

        monkeypatch.setattr(matcore, "complement_basis", forbidden)
        tup = qd.special_ando_tuple(self.PAIR)
        assert "u" not in tup.__dict__
        assert frob(tup.m - tup.lam) > 0.1

    def test_u_is_built_once_and_carries_lambda_to_m(self, monkeypatch):
        tup = qd.special_ando_tuple(self.PAIR)
        calls = []
        complete = matcore.complete_to_unitary

        def counted(*args):
            calls.append(1)
            return complete(*args)

        monkeypatch.setattr(matcore, "complete_to_unitary", counted)
        assert tup.u is tup.u
        assert len(calls) == 1
        assert frob(tup.u @ tup.lam - tup.m) < 1e-13

    def test_failed_completion_raises_at_first_read_of_u(self, monkeypatch):
        # complement columns that are not orthonormal leave U non-unitary:
        # the build passes, the first read of u raises the typed error
        monkeypatch.setattr(matcore, "complement_basis",
                            lambda projector, dim: np.ones((projector.shape[0], dim)))
        tup = qd.special_ando_tuple(self.PAIR)
        with pytest.raises(NotIsometricOnSourceError, match="failed to be unitary"):
            tup.u

    def test_non_isometric_m_raises_at_first_read_of_u(self):
        tup = qd.special_ando_tuple(self.PAIR)
        bad = dataclasses.replace(tup, m=1.5 * tup.m)
        with pytest.raises(NotIsometricOnSourceError, match="not orthonormal"):
            bad.u

    def test_input_checks_run_at_build(self, monkeypatch):
        # an M whose columns miss orthonormality by 2e-9, above the 1e-12 of
        # the completion's input check, fails the build, not the first read
        polish = ando._polish_isometry

        def scaled(m, what):
            out = polish(m, what)
            return (1 + 1e-9) * out if what.startswith("U") else out

        monkeypatch.setattr(ando, "_polish_isometry", scaled)
        with pytest.raises(NotIsometricOnSourceError, match="not orthonormal"):
            qd.special_ando_tuple(self.PAIR)


class TestPropGates:
    """The six prop1/prop2 ids of the ando suite are gated at the fixed
    1e-9: a random bump of Lambda (of the forward tuple for prop1, of the
    starred one for prop2) of spectral norm 100 x the gate fails each of
    them, one of norm 1e-12 fails none."""

    IDS = {"tup": ("fwd-prop1-t1", "fwd-prop1-t2", "fwd-prop1-third-a", "fwd-prop1-third-b"),
           "star": ("star-prop2-t1", "star-prop2-t2")}

    @staticmethod
    def bumped_records(pair, which, eps):
        """The ando suite's records with Lambda of the analysis' tuple
        `which` bumped by a random block of spectral norm eps (seed 0)."""
        an = model.PairAnalysis(pair)
        tup = getattr(an, which)
        rng = np.random.default_rng(0)
        block = rng.standard_normal(tup.lam.shape) + 1j * rng.standard_normal(tup.lam.shape)
        an.__dict__[which] = with_u(
            tup, tup.u, lam=tup.lam + eps * block / np.linalg.norm(block, 2))
        return {r.check_id: r for r in cli._SUITE_FNS["ando"](an, 12).records}

    @pytest.mark.parametrize("which", ["tup", "star"])
    @pytest.mark.parametrize("pair", [
        qd.gen_nilpotent(3, -1, 0.9, 0.8),
        qd.gen_conjugated(qd.gen_clock_shift(3, 0.9), 1)[0],
    ], ids=["nilpotent", "conjugated-clock-shift"])
    def test_bump_of_lambda(self, pair, which):
        for eps, fails in ((1e-7, True), (1e-12, False)):
            rec = self.bumped_records(pair, which, eps)
            for cid in self.IDS[which]:
                assert rec[cid].tolerance == 1e-9
                assert rec[cid].passed is not fails, (eps, cid, rec[cid].residual)
