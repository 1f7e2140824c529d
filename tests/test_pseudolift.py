import dataclasses

import numpy as np
import pytest

import qdilate as qd
from qdilate import hardy, model, pseudolift
from qdilate.errors import DimensionMismatchError, NotModelFormError
from qdilate.matcore import frob

from test_sparse import lift_matrix


def zero_pair():
    return qd.validate(1.0, np.zeros((1, 1)), np.zeros((1, 1)))


def mixed_pair():
    return qd.gen_direct_sum([qd.gen_clock_shift(4, 1.0),
                              qd.gen_nilpotent(2, 1j, 0.8, 0.8)])


class TestDouglasPseudoLift:
    def test_pi_reads_the_analysis_dstar(self, corpus):
        # Pi's degree-0 block is the model suite's C = D_{T*} in the starred
        # tuple's basis, bit for bit: no second square root of I - TT*
        for name, pair, _ in corpus[::3]:
            an = model.PairAnalysis(pair)
            pi, _ = pseudolift.douglas_pseudo_lift(an, 4)
            c = an.dstar.coords()
            assert np.array_equal(pi[:c.shape[0]], c), name

    def test_zero_pair_blocks(self):
        # G = 0 makes both Hardy blocks vanish while W stays the shift
        pi, tri = pseudolift.douglas_pseudo_lift(zero_pair(), 6)
        assert frob(lift_matrix(tri.w1)) == 0.0
        assert frob(lift_matrix(tri.w2)) == 0.0
        mz = hardy.materialize(hardy.shift_symbol(1), 6).matrix
        assert frob(lift_matrix(tri.w) - mz) < 1e-14
        assert pseudolift.is_pseudo_triple(tri).overall
        assert pseudolift.is_pseudo_lift(pi, tri, zero_pair()).overall

    def test_unitary_pair(self):
        pair = qd.gen_clock_shift(3, 1.0)
        pi, tri = pseudolift.douglas_pseudo_lift(pair, 6)
        assert tri.space.hardy.total_dim == 0
        rep = pseudolift.is_pseudo_triple(tri)
        assert rep.overall and rep.worst() < 1e-12
        assert pseudolift.is_pseudo_lift(pi, tri, pair).overall

    def test_mixed_pair(self):
        pair = mixed_pair()
        pi, tri = pseudolift.douglas_pseudo_lift(pair, 16)
        assert pseudolift.is_pseudo_triple(tri).overall
        rep = pseudolift.is_pseudo_lift(pi, tri, pair)
        assert rep.overall, rep.summary_lines()

    def test_corpus(self, corpus):
        n = 12
        for name, pair, _ in corpus[::6]:
            pi, tri = pseudolift.douglas_pseudo_lift(pair, n)
            assert pseudolift.is_pseudo_triple(tri).overall, name
            assert pseudolift.is_pseudo_lift(pi, tri, pair).overall, name


class TestAxiomViolations:
    def test_swap_breaks_linear_axiom(self):
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        _, tri = pseudolift.douglas_pseudo_lift(pair, 10)
        swapped = pseudolift.PseudoTriple(tri.q, tri.w2, tri.w1, tri.w)
        rep = pseudolift.is_pseudo_triple(swapped)
        by_id = {r.check_id: r for r in rep.records}
        assert by_id["axiom-iii"].residual > 0.1

    def test_zero_w2_forces_zero_w1(self):
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        _, tri = pseudolift.douglas_pseudo_lift(pair, 10)
        w2 = tri.w2
        zero = dataclasses.replace(w2, symbol=hardy.TwistedSymbol(
            w2.symbol.rot, tuple(0 * c for c in w2.symbol.coeffs)), tail=0 * w2.tail)
        cand = pseudolift.PseudoTriple(tri.q, tri.w1, zero, tri.w)
        rep = pseudolift.is_pseudo_triple(cand)
        by_id = {r.check_id: r for r in rep.records}
        # axiom iii residual is exactly ||W1|| on the interior block
        assert by_id["axiom-iii"].residual > 0.5

    def test_restricted_pi_fails_minimality(self):
        pair = mixed_pair()
        pi, tri = pseudolift.douglas_pseudo_lift(pair, 10)
        pi_bad = pi.copy()
        pi_bad[:, -1] = 0.0
        rep = pseudolift.is_pseudo_lift(pi_bad, tri, pair)
        by_id = {r.check_id: r for r in rep.records}
        assert not by_id["minimality"].passed

    def test_hardy_tail_coupling_fails_minimality(self):
        # W = M_z (+) W_D, with a tail, and its Hardy block coupled across the
        # fiber by a small degree-0 term (a Hardy<->tail block has no place
        # in block form): no longer the shift, so the orbit dimension is not
        # decided and minimality fails
        pair = mixed_pair()
        pi, tri = pseudolift.douglas_pseudo_lift(pair, 10)
        assert tri.space.tail_dim > 0
        sym = tri.w.symbol
        coupled = hardy.TwistedSymbol(sym.rot, (sym.coeffs[0] + 1e-4, *sym.coeffs[1:]))
        bad = dataclasses.replace(tri, w=dataclasses.replace(tri.w, symbol=coupled))
        rep = pseudolift.is_pseudo_lift(pi, bad, pair)
        by_id = {r.check_id: r for r in rep.records}
        assert not by_id["minimality"].passed
        assert by_id["minimality"].note.startswith("orbit undecided,")
        assert "block shape residual" in by_id["minimality"].note
        assert rep.environment["shape_residual"] > 1e-10

    def test_perturbed_w1_fails_intertwining(self):
        pair = qd.gen_nilpotent(2, 1j, 0.8, 0.8)
        pi, tri = pseudolift.douglas_pseudo_lift(pair, 10)
        sym = tri.w1.symbol
        c0 = sym.coeffs[0].copy()
        c0[0, 0] += 0.1
        w1_bad = dataclasses.replace(tri.w1, symbol=hardy.TwistedSymbol(
            sym.rot, (c0, *sym.coeffs[1:])))
        bad = pseudolift.PseudoTriple(tri.q, w1_bad, tri.w2, tri.w)
        rep = pseudolift.is_pseudo_lift(pi, bad, pair)
        assert not rep.overall

    def test_triple_with_a_head_is_rejected(self):
        # contractivity is read from the symbol and the tail only, so a head
        # would go unread: such a triple is not built
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), 6)
        with pytest.raises(NotModelFormError, match="no head"):
            pseudolift.PseudoTriple(pair.q, lift.v1, lift.v2, lift.product)

    @pytest.mark.parametrize("seed", range(3))
    def test_rigidity_perturbation(self, seed):
        # a block of norm 0.01 on W1's degree-0 symbol coefficient is
        # rejected with residual >= 0.009
        pair = mixed_pair()
        _, tri = pseudolift.douglas_pseudo_lift(pair, 10)
        bad = pseudolift.perturbed_triple(tri, 0.01, seed=seed)
        rep = pseudolift.is_pseudo_triple(bad)
        assert not rep.overall
        assert rep.worst() >= 0.009


class TestIntertwiningGates:
    """The seven lift intertwinings are gated at 1e-9 on the rows the
    truncation keeps exact.  Bumps of norm 1e-6 must fail them on
    clock-shift:n=2,scale=0.9, where a tail-sized tolerance
    1e-9 + 10 ||D_{T*} T*^{N+1}|| reads 0.379 at N 12 and 0.030 at N 24 and
    would pass both."""

    EPS = 1e-6

    def bumped_reports(self, n, bump):
        """is_pseudo_lift and verify_lift of the Douglas lift, with the cached
        Douglas pseudo lift of N replaced by bump(pi, triple) (the douglas
        suite's gform-intertwine checks read that cache), and the
        tail-sized tolerance."""
        an = model.PairAnalysis(qd.gen_clock_shift(2, 0.9))
        lift = qd.douglas_lift(an, n)
        for rep in (qd.verify_lift(lift, an),
                    pseudolift.is_pseudo_lift(*pseudolift.douglas_pseudo_lift(an, n), an)):
            assert rep.overall and rep.worst() < 1e-13
        pi, tri = bump(*pseudolift.douglas_pseudo_lift(an, n))
        an.pseudo_lifts[n] = pi, tri, {}
        tail = 10.0 * hardy.defect_tail_norm(an.product, n)
        return pseudolift.is_pseudo_lift(pi, tri, an), qd.verify_lift(lift, an), tail

    def assert_rejected(self, n, bump):
        pseudo, douglas, tail = self.bumped_reports(n, bump)
        for rep, cid in ((pseudo, "lift-w1"), (douglas, "gform-intertwine-1")):
            rec = next(r for r in rep.records if r.check_id == cid)
            assert rec.tolerance == 1e-9
            assert not rec.passed and 0.5 * self.EPS < rec.residual < tail, (cid, rec.residual)

    @pytest.mark.parametrize("n", [12, 24])
    def test_w1_symbol_bump_is_rejected(self, n):
        # a block of norm 1e-6 on W1's degree-0 symbol coefficient
        self.assert_rejected(
            n, lambda pi, tri: (pi, pseudolift.perturbed_triple(tri, self.EPS, seed=0)))

    @pytest.mark.parametrize("n", [12, 24])
    def test_pi_degree_block_bump_is_rejected(self, n):
        # a block of norm 1e-6 on the degree-3 block of Pi
        def bump(pi, tri):
            f = tri.space.hardy.fiber_dim
            rng = np.random.default_rng(0)
            block = rng.standard_normal((f, pi.shape[1])) + 1j * rng.standard_normal(
                (f, pi.shape[1]))
            pi = pi.copy()
            pi[3 * f:4 * f] += self.EPS * block / np.linalg.norm(block, 2)
            return pi, tri

        self.assert_rejected(n, bump)


class TestUniqueness:
    def test_candidate_on_another_space_is_rejected(self):
        # the Douglas space of clock-shift:n=2 has fiber 2, that of the
        # nilpotent pair fiber 3: a typed error before any residual
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        _, other = pseudolift.douglas_pseudo_lift(qd.gen_clock_shift(2, 0.9), 6)
        with pytest.raises(DimensionMismatchError, match="different spaces"):
            pseudolift.uniqueness_test(pair, other)

    def test_model_triple_accepted(self):
        pair = mixed_pair()
        _, tri = pseudolift.douglas_pseudo_lift(pair, 10)
        rep = pseudolift.uniqueness_test(pair, tri)
        assert rep.overall, rep.summary_lines()
        by_id = {r.check_id: r for r in rep.records}
        assert by_id["uniqueness-w1"].residual < 1e-12

    def test_identity_transport(self):
        # the model triple carried over by the identity, every block copied
        pair = qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.8)
        _, tri = pseudolift.douglas_pseudo_lift(pair, 10)

        def copied(op):
            return dataclasses.replace(
                op, symbol=hardy.TwistedSymbol(op.symbol.rot, tuple(
                    c.copy() for c in op.symbol.coeffs)), tail=op.tail.copy())

        cand = dataclasses.replace(tri, w1=copied(tri.w1), w2=copied(tri.w2), w=copied(tri.w))
        rep = pseudolift.uniqueness_test(pair, cand)
        assert rep.overall

    def test_axiom_breaking_candidate_vacuous(self):
        pair = mixed_pair()
        _, tri = pseudolift.douglas_pseudo_lift(pair, 10)
        bad = pseudolift.perturbed_triple(tri, 0.05, seed=1)
        rep = pseudolift.uniqueness_test(pair, bad)
        assert not rep.overall or any(r.skipped for r in rep.records)
        assert any(r.skipped and "vacuous" in r.note for r in rep.records)


class TestTaylorRigidity:
    def test_recovers_fundamental_ops(self):
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        _, tri = pseudolift.douglas_pseudo_lift(pair, 10)
        rep = pseudolift.taylor_rigidity(tri, pair)
        assert rep.overall, rep.summary_lines()

    def test_corpus_sample(self, cnu_corpus):
        for name, pair, _ in cnu_corpus[::8]:
            _, tri = pseudolift.douglas_pseudo_lift(pair, 12)
            rep = pseudolift.taylor_rigidity(tri, pair)
            assert rep.overall, (name, rep.summary_lines())
