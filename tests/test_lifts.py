import dataclasses

import numpy as np
import pytest
import scipy.linalg

import qdilate as qd
from qdilate import hardy, lifts, matcore
from qdilate.errors import GeneratorError
from qdilate.matcore import adj, eye, frob, opnorm

from conftest import rand_vec


def zero_pair():
    return qd.validate(1.0, np.zeros((1, 1)), np.zeros((1, 1)))


def mixed_pair():
    return qd.gen_direct_sum([qd.gen_clock_shift(2, 1.0),
                              qd.gen_nilpotent(3, -1.0 + 0j, 0.9, 0.8)])


class TestSchafferConstruction:
    def test_zero_pair_constant_column(self):
        # at dim 1 the injected column of V1 is the constant function (1, 0)
        pair = zero_pair()
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 4)
        col = lift.v1.toarray()[1:, 0]
        assert np.allclose(col[:2], [1.0, 0.0])
        assert frob(col[2:].reshape(-1, 1)) == 0.0
        # V2's column passes through the completed part of U, so only its
        # size is convention-free
        col2 = lift.v2.toarray()[1:, 0]
        assert abs(np.linalg.norm(col2) - 1.0) < 1e-12
        assert frob(col2[2:].reshape(-1, 1)) == 0.0

    def test_unitary_pair_is_itself(self):
        pair = qd.gen_clock_shift(3, 1.0)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 6)
        assert lift.space.total_dim == 3
        assert frob(lift.v1.toarray() - pair.t1) < 1e-12
        assert frob(lift.v2.toarray() - pair.t2) < 1e-12

    def test_product_model_form(self):
        pair = qd.gen_clock_shift(3, 0.9)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 8)
        v = (lift.v1 @ lift.v2).toarray()
        # head block is T, Hardy diagonal is the plain shift
        assert frob(v[:3, :3] - pair.product()) < 1e-13
        mz = hardy.materialize(hardy.shift_symbol(pair.q, tup.f_dim), 8).matrix
        assert opnorm((v[3:, 3:] - mz)[:, lift.space.hardy.low(7)]) < 1e-12

    def test_verification(self):
        pair = qd.gen_clock_shift(3, 0.9)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 16)
        rep = qd.verify_lift(lift, pair)
        assert rep.overall, rep.summary_lines()


class TestDouglasConstruction:
    def test_cnu_pair_no_tail(self):
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        lift = qd.douglas_lift(pair, 12)
        assert lift.space.tail_dim == 0
        assert qd.verify_lift(lift, pair).overall

    def test_unitary_pair_pure_tail(self):
        pair = qd.gen_clock_shift(3, 1.0)
        lift = qd.douglas_lift(pair, 8)
        assert lift.space.hardy.total_dim == 0
        assert lift.space.tail_dim == 3
        b = lift.canonical.basis.columns
        assert frob(b @ lift.v1.toarray() @ adj(b) - pair.t1) < 1e-12
        assert frob(b @ lift.v2.toarray() @ adj(b) - pair.t2) < 1e-12

    def test_mixed_pair(self):
        pair = mixed_pair()
        lift = qd.douglas_lift(pair, 16)
        assert lift.space.tail_dim == 2
        rep = qd.verify_lift(lift, pair)
        assert rep.overall, rep.summary_lines()

    def test_embedding_energy_pointwise(self):
        # ||Pi h||^2 = ||h||^2 - ||T*^{N+1}h||^2 + ||Q h||^2 per vector
        pair = mixed_pair()
        n = 16
        lift = qd.douglas_lift(pair, n)
        rng = np.random.default_rng(0)
        t_star = adj(pair.product())
        for _ in range(25):
            h = rand_vec(rng, pair.dim)
            lhs = np.linalg.norm(lift.pi @ h) ** 2
            tail = np.linalg.norm(np.linalg.matrix_power(t_star, n + 1) @ h) ** 2
            qh = np.linalg.norm(lift.canonical.q_op @ h) ** 2
            rhs = np.linalg.norm(h) ** 2 - tail + qh
            assert abs(lhs - rhs) < 1e-11 * max(1.0, rhs)


class TestMinimality:
    def test_schaffer_zero_pair_rank(self):
        # reachable space: H plus one fiber direction per degree
        pair = zero_pair()
        tup = qd.special_ando_tuple(pair)
        n = 6
        lift = qd.schaffer_lift(pair, tup, n)
        rep = qd.minimality_check(lift)
        assert rep.overall
        assert rep.environment["achieved_rank"] == 1 + (n + 1)
        assert rep.environment["space_dim"] == 1 + 2 * (n + 1)

    def test_unitary_pair_rank(self):
        pair = qd.gen_clock_shift(3, 1.0)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 4)
        rep = qd.minimality_check(lift)
        assert rep.environment["achieved_rank"] == 3

    def test_douglas_zero_pair_rank(self):
        # dressed fiber is C^2 but the orbit stays inside the Lambda-image
        pair = zero_pair()
        n = 6
        lift = qd.douglas_lift(pair, n)
        rep = qd.minimality_check(lift)
        assert rep.overall
        assert rep.environment["achieved_rank"] == n + 1
        assert rep.environment["space_dim"] == 2 * (n + 1)

    def test_corpus_consistency(self, corpus):
        n = 10
        for name, pair, _ in corpus[::7]:
            tup = qd.special_ando_tuple(pair)
            lift = qd.schaffer_lift(pair, tup, n)
            rep = qd.minimality_check(lift)
            assert rep.overall, name
            # dense oracle: the stack rebuilt from explicit powers of V
            v = (lift.v1 @ lift.v2).toarray()
            dense = np.hstack([np.linalg.matrix_power(v, k) @ lift.pi for k in range(n + 2)])
            assert rep.environment["achieved_rank"] == matcore.numerical_rank(
                dense, rank_tol=1e-8), name

    @pytest.mark.parametrize("scale", [1e-9, 1e6])
    def test_ranks_do_not_depend_on_the_scale_of_pi(self, scale):
        # both rank routes see Pi divided by its norm: the greedy oracle's
        # absolute cutoff would otherwise drop every direction of 1e-9 Pi
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), 6)
        scaled = dataclasses.replace(lift, pi=scale * lift.pi)
        rep, ref = qd.minimality_check(scaled), qd.minimality_check(lift)
        assert ref.overall and rep.overall, rep.summary_lines()
        for key in ("achieved_rank", "oracle_rank"):
            assert rep.environment[key] == ref.environment[key]


class TestSymbolLevelProduct:
    @pytest.mark.parametrize("which", ["schaffer", "douglas"])
    def test_hardy_blocks_multiply_to_shift_exactly(self, which):
        # coefficient-exact: the two lift multipliers compose to z I
        pair = qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.8)
        if which == "schaffer":
            tup = qd.special_ando_tuple(pair)
            s1, s2 = lifts.schaffer_symbols(tup, pair.q)
        else:
            tup = qd.star_ando_tuple(pair)
            s1, s2 = lifts.douglas_symbols(tup, pair.q)
        prod = hardy.symbol_compose(s1, s2)
        assert prod.twist == 0
        assert frob(prod.coeffs[0]) < 1e-14
        assert frob(prod.coeffs[1] - eye(tup.f_dim)) < 1e-14
        assert frob(prod.coeffs[2]) < 1e-14


class TestConjugationCovariance:
    def test_residual_profile_matches(self):
        base = qd.gen_clock_shift(3, 0.9)
        conj, w = qd.gen_conjugated(base, seed=11)
        n = 12
        rep_a = qd.verify_lift(qd.schaffer_lift(base, qd.special_ando_tuple(base), n), base)
        rep_b = qd.verify_lift(qd.schaffer_lift(conj, qd.special_ando_tuple(conj), n), conj)
        for ra, rb in zip(rep_a.records, rep_b.records):
            assert ra.check_id == rb.check_id
            assert abs(ra.residual - rb.residual) < 1e-10


class TestExtractAndo:
    def test_round_trip(self):
        pair = qd.gen_clock_shift(2, 0.5)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 8)
        frag, rep = qd.extract_ando_from_lift(lift, pair)
        assert rep.overall, rep.summary_lines()
        assert frob(frag.lam - tup.lam) < 1e-10
        assert frob(frag.pul_dt - tup.p @ tup.u @ tup.lam_dt()) < 1e-10

    def test_unitary_pair_empty(self):
        pair = qd.gen_clock_shift(2, 1.0)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 4)
        frag, rep = qd.extract_ando_from_lift(lift, pair)
        assert rep.overall
        assert frag.lam.shape == (0, 0)

    def test_fiber_conjugated_lift(self):
        # rotating the Hardy fiber changes Lambda by that unitary but keeps
        # all consistency residuals
        pair = qd.gen_clock_shift(2, 0.5)
        tup = qd.special_ando_tuple(pair)
        n = 8
        lift = qd.schaffer_lift(pair, tup, n)
        f = tup.f_dim
        rng = np.random.default_rng(3)
        w_f = np.linalg.qr(rng.standard_normal((f, f))
                           + 1j * rng.standard_normal((f, f)))[0]
        big = scipy.linalg.block_diag(eye(pair.dim),
                                      np.kron(eye(n + 1), w_f)).astype(complex)
        rotated = lifts.LiftRealization(
            "schaffer", lift.q, lift.space, big @ lift.pi,
            big @ lift.v1.toarray() @ adj(big), big @ lift.v2.toarray() @ adj(big),
            n, tup)
        frag, rep = qd.extract_ando_from_lift(rotated, pair)
        assert rep.overall, rep.summary_lines()
        assert frob(frag.lam - w_f @ tup.lam) < 1e-10

    def test_rejects_non_model_form(self):
        pair = qd.gen_clock_shift(2, 0.5)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 6)
        v1_bad = lift.v1.toarray()
        v1_bad[0, 3] = 0.5
        bad = lifts.LiftRealization("schaffer", lift.q, lift.space, lift.pi,
                                    v1_bad, lift.v2, 6, tup)
        with pytest.raises(qd.QDilateError):
            qd.extract_ando_from_lift(bad, pair)


class TestCorpusLifts:
    def test_schaffer_corpus(self, corpus):
        for name, pair, _ in corpus[::5]:
            tup = qd.special_ando_tuple(pair)
            lift = qd.schaffer_lift(pair, tup, 12)
            rep = qd.verify_lift(lift, pair)
            assert rep.overall, (name, rep.summary_lines())

    def test_douglas_corpus(self, corpus):
        for name, pair, _ in corpus[::5]:
            lift = qd.douglas_lift(pair, 12)
            rep = qd.verify_lift(lift, pair)
            assert rep.overall, (name, rep.summary_lines())


class TestNonIsoLifts:
    @pytest.mark.parametrize("n", [2, 8])
    def test_fixture(self, n):
        rep = lifts.nonisolifts_fixture(n)
        assert rep.overall, rep.summary_lines()

    def test_minimum_truncation(self):
        with pytest.raises(GeneratorError):
            lifts.nonisolifts_fixture(1)

    def test_discriminator_values(self):
        rep = lifts.nonisolifts_fixture(8)
        by_id = {r.check_id: r for r in rep.records}
        assert by_id["b-doubly"].residual < 1e-12
        assert "discriminator" in by_id["a-not-doubly"].note
