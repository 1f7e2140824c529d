import contextlib
import dataclasses
import inspect
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import qdilate as qd
from qdilate import cli, hardy, lifts, matcore, model, pseudolift, qpair
from qdilate.errors import DimensionMismatchError, GeneratorError, NotModelFormError
from qdilate.matcore import adj, eye, frob, opnorm

from conftest import rand_vec
from test_sparse import (
    dense_lift_residuals,
    dense_triple_residuals,
    interior,
    lift_matrix,
    spectral,
)


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
        col = lift_matrix(lift.v1)[1:, 0]
        assert np.allclose(col[:2], [1.0, 0.0])
        assert frob(col[2:].reshape(-1, 1)) == 0.0
        # V2's column passes through the completed part of U, so only its
        # size is convention-free
        col2 = lift_matrix(lift.v2)[1:, 0]
        assert abs(np.linalg.norm(col2) - 1.0) < 1e-12
        assert frob(col2[2:].reshape(-1, 1)) == 0.0

    def test_unitary_pair_is_itself(self):
        pair = qd.gen_clock_shift(3, 1.0)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 6)
        assert lift.space.total_dim == 3
        assert frob(lift_matrix(lift.v1) - pair.t1) < 1e-12
        assert frob(lift_matrix(lift.v2) - pair.t2) < 1e-12

    def test_product_model_form(self):
        pair = qd.gen_clock_shift(3, 0.9)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 8)
        v = lift_matrix(lift.v1) @ lift_matrix(lift.v2)
        # head block is T, Hardy diagonal is the plain shift
        assert frob(v[:3, :3] - pair.product()) < 1e-13
        mz = hardy.materialize(hardy.shift_symbol(tup.f_dim), 8).matrix
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
        assert frob(b @ lift_matrix(lift.v1) @ adj(b) - pair.t1) < 1e-12
        assert frob(b @ lift_matrix(lift.v2) @ adj(b) - pair.t2) < 1e-12

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


def boundary_pairs():
    """Near-boundary pairs whose lifts build: near-isometric factors, rho(T)
    near 1, a unitary product, and conjugated clock-shift (+) nilpotent sums."""
    nilp = qd.gen_nilpotent(5, qpair.CORPUS_TWISTS["e1"], 0.99, 0.99)
    sums = [qd.gen_conjugated(qd.gen_direct_sum(
        [qd.gen_clock_shift(n, 1 - 1e-6),
         qd.gen_nilpotent(n, np.exp(2j * np.pi / n), 0.7, 0.6)]), 5)[0]
        for n in (2, 3)]
    return [qd.gen_clock_shift(2, 0.999), qd.gen_clock_shift(2, 1 - 1e-6),
            qd.gen_clock_shift(3, 1.0), qd.gen_conjugated(nilp, 100)[0], *sums]


def dense_orbit_rank(op, pi, n):
    """Dense oracle: numerical rank of [Pi, V Pi, ..., V^{N+1} Pi], each block
    an explicit power of the dense V applied to the one before."""
    blocks = [pi]
    for _ in range(n + 1):
        blocks.append(op @ blocks[-1])
    return matcore.numerical_rank(np.hstack(blocks), rank_tol=1e-8)


def minimality_records(an, n):
    """(kind, dense orbit operator, Pi, closed-form dimension, minimality
    record) of the Schaffer lift, the Douglas lift and the Douglas pseudo lift."""
    schaffer = qd.schaffer_lift(an.pair, an.tup, n)
    douglas = qd.douglas_lift(an, n)
    pi, tri = pseudolift.douglas_pseudo_lift(an, n)
    pair = an.pair
    douglas_dim = (n + 1) * an.dstar.dim + an.canonical.dim
    assert schaffer.reachable_dim == pair.dim + (n + 1) * an.tup.dt_dim
    assert douglas.reachable_dim == douglas_dim == tri.space.total_dim
    by_id = {r.check_id: r for r in pseudolift.is_pseudo_lift(pi, tri, pair).records}
    return [("schaffer", lift_matrix(schaffer.v1) @ lift_matrix(schaffer.v2), schaffer.pi,
             schaffer.reachable_dim, qd.minimality_check(schaffer).records[0]),
            ("douglas", lift_matrix(douglas.v1) @ lift_matrix(douglas.v2), douglas.pi,
             douglas.reachable_dim, qd.minimality_check(douglas).records[0]),
            ("pseudo", lift_matrix(tri.w), pi, douglas_dim, by_id["minimality"])]


class TestMinimality:
    def test_schaffer_zero_pair_rank(self):
        # reachable space: H plus one fiber direction per degree
        pair = zero_pair()
        tup = qd.special_ando_tuple(pair)
        n = 6
        lift = qd.schaffer_lift(pair, tup, n)
        rep = qd.minimality_check(lift)
        assert rep.overall
        assert rep.environment["orbit_rank"] == rep.environment["reachable_dim"] == 1 + (n + 1)
        assert rep.environment["space_dim"] == 1 + 2 * (n + 1)

    def test_unitary_pair_rank(self):
        pair = qd.gen_clock_shift(3, 1.0)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 4)
        rep = qd.minimality_check(lift)
        assert rep.overall
        assert rep.environment["orbit_rank"] == rep.environment["reachable_dim"] == 3

    def test_douglas_zero_pair_rank(self):
        # dressed fiber is C^2 but the orbit stays inside the Lambda-image
        pair = zero_pair()
        n = 6
        lift = qd.douglas_lift(pair, n)
        rep = qd.minimality_check(lift)
        assert rep.overall
        assert rep.environment["orbit_rank"] == rep.environment["reachable_dim"] == n + 1
        assert rep.environment["space_dim"] == 2 * (n + 1)

    @pytest.mark.parametrize("n", [6, 12])
    def test_closed_form_matches_dense_oracle(self, corpus, n):
        # the structured orbit dimension, the greedy orbit rank, the dense
        # stack rank and the dimension of the minimal dilation space agree for
        # all three lifts of every pair
        pairs = [pair for _, pair, _ in corpus] + boundary_pairs()
        for i, pair in enumerate(pairs):
            an = model.PairAnalysis(pair)
            for kind, op, pi, predicted, rec in minimality_records(an, n):
                # the record passes when the structured orbit dimension equals predicted
                assert rec.passed, (i, kind, rec.note)
                assert rec.note.startswith(f"orbit {predicted},"), (i, kind, rec.note)
                seed = pi / np.linalg.norm(pi, 2)
                assert matcore.greedy_orbit_rank(op, seed) == predicted, (i, kind)
                assert dense_orbit_rank(op, pi, n) == predicted, (i, kind)

    def test_orbit_missing_the_predicted_space_fails(self):
        # with the constant columns of V1 and V2 dropped, the orbit of Pi stays
        # in H, short of H (+) H^2_N(D_T) by (N+1) dim ran D_T
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        n = 6
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), n)
        h = pair.dim
        bad = dataclasses.replace(lift, v1=dataclasses.replace(lift.v1, column=()),
                                  v2=dataclasses.replace(lift.v2, column=()))
        rep = qd.minimality_check(bad)
        rec = rep.records[0]
        assert rec.check_id == "rank-consistency" and not rec.passed
        assert lift.reachable_dim > h
        assert f"orbit {h}," in rec.note
        assert f"predicted {lift.reachable_dim}," in rec.note

    def test_zero_pi_fails_the_check(self):
        # a zero seed is not divided by its norm: no NaN reaches the SVD
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), 6)
        rep = qd.minimality_check(dataclasses.replace(lift, pi=np.zeros_like(lift.pi)))
        assert not rep.overall
        assert rep.environment["orbit_rank"] == 0
        pi, tri = pseudolift.douglas_pseudo_lift(pair, 6)
        rep = pseudolift.is_pseudo_lift(np.zeros_like(pi), tri, pair)
        by_id = {r.check_id: r for r in rep.records}
        assert not by_id["minimality"].passed
        assert by_id["minimality"].note.startswith("orbit 0,")

    def test_head_to_hardy_block_fails_the_shape(self):
        # V1's head->Hardy column reaches degree 1: V = V1 V2 leaves the shape
        # [[A, 0], [E0 C, M_z]] and the orbit is not decided
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), 6)
        c0 = lift.v1.column[0]
        v1 = dataclasses.replace(lift.v1, column=(c0, np.full_like(c0, 1e-3)))
        rec = qd.minimality_check(dataclasses.replace(lift, v1=v1)).records[0]
        assert rec.check_id == "rank-consistency" and not rec.passed
        assert rec.note.startswith("orbit undecided,")
        assert "block shape residual" in rec.note

    def test_off_toeplitz_hardy_entry_fails_the_shape(self):
        # one entry of V's Hardy block moved by 1e-6, off the shift: a symbol
        # coefficient of degree N shows in column 0 only.  The greedy orbit
        # still fills the predicted space, but the shape residual (Frobenius,
        # all columns, 1e-10) rejects it
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        n = 6
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), n)
        h, f = pair.dim, lift.space.hardy.fiber_dim
        v = lift.product
        coeffs = [*v.symbol.coeffs, *[np.zeros((f, f))] * (n - v.symbol.degree)]
        coeffs[n] = coeffs[n].copy()
        coeffs[n][0, 0] += 1e-6
        bumped = dataclasses.replace(v, symbol=hardy.TwistedSymbol(v.symbol.rot, tuple(coeffs)))
        one = lifts.LiftOperator(lift.space, eye(h), (), hardy.TwistedSymbol(1.0, (eye(f),)),
                                 v.tail)
        bad = dataclasses.replace(lift, v1=bumped, v2=one)
        seed = lift.pi / np.linalg.norm(lift.pi, 2)
        assert matcore.greedy_orbit_rank(lift_matrix(bumped), seed) == lift.reachable_dim
        rep = qd.minimality_check(bad)
        rec = rep.records[0]
        assert rec.check_id == "rank-consistency" and not rec.passed
        assert "block shape residual 1.000e-06" in rec.note
        assert rep.environment["orbit_rank"] is None

    def test_rank_margins_are_reported(self):
        pair = mixed_pair()
        for lift in (qd.schaffer_lift(pair, qd.special_ando_tuple(pair), 6),
                     qd.douglas_lift(pair, 6)):
            rep = qd.minimality_check(lift)
            assert rep.overall
            gaps = rep.environment["rank_gaps"]
            assert gaps, lift.kind
            for name, gap in gaps.items():
                assert f"rank {name} {gap['rank']} (sigma kept" in rep.records[0].note
                assert gap["kept_sigma"] > 1e-8
                assert gap["dropped_sigma"] is None or gap["dropped_sigma"] <= 1e-8

    @pytest.mark.parametrize("scale", [1e-9, 1e6])
    def test_ranks_do_not_depend_on_the_scale_of_pi(self, scale):
        # the ranks are taken on Pi divided by its norm: the absolute cutoff
        # would otherwise drop every direction of 1e-9 Pi
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), 6)
        scaled = dataclasses.replace(lift, pi=scale * lift.pi)
        rep, ref = qd.minimality_check(scaled), qd.minimality_check(lift)
        assert ref.overall and rep.overall, rep.summary_lines()
        for key in ("orbit_rank", "reachable_dim"):
            assert rep.environment[key] == ref.environment[key]


class TestVerifyPathGuard:
    """The schaffer, douglas and pseudo suites decide minimality at dim-sized
    cost and take their residuals from the symbol blocks: no greedy orbit,
    no D x D dense buffer, no banded norm and no lift-space matrix."""

    @staticmethod
    def run(args):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(args)

    @classmethod
    def verify(cls, pair, tmp_path, n, suites="schaffer,douglas,pseudo"):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(qpair.pair_to_json(pair)))
        return cls.run(["verify", "--pair", str(path), "--trunc", str(n), "--suites", suites])

    @pytest.fixture(autouse=True)
    def no_greedy(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("greedy_orbit_rank called on the verify path")

        monkeypatch.setattr(matcore, "greedy_orbit_rank", forbidden)

    def test_suites_pass_without_the_greedy_orbit(self, tmp_path):
        pairs = [zero_pair(), mixed_pair(), qd.gen_clock_shift(3, 1.0),
                 qd.gen_conjugated(qd.gen_nilpotent(4, 1j, 0.9, 0.8), 2)[0]]
        for pair in pairs:
            assert self.verify(pair, tmp_path, 12) == 0

    def test_no_lift_space_square_buffer(self, tmp_path):
        # at D = 520 one D x D complex buffer is 4.3 MB; the traced peak of the
        # whole run stays under half of that
        pair = qd.gen_conjugated(qd.gen_direct_sum(
            [qd.gen_clock_shift(2, 1.0), qd.gen_nilpotent(2, -1.0 + 0j, 0.9, 0.8)]), 3)[0]
        n = 128
        an = model.PairAnalysis(pair)
        d = qd.schaffer_lift(an.pair, an.tup, n).space.total_dim
        assert d == 520
        self.verify(pair, tmp_path, n)  # first-call imports and caches
        tracemalloc.start()
        try:
            assert self.verify(pair, tmp_path, n) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d * 16 / 2, peak

    def test_large_truncation_without_banded_or_sparse_norms(self, tmp_path, monkeypatch):
        # at N = 1000 the lift suites cost what they cost at small N: no
        # banded eigensolve is called, and no sparse matrix exists to take
        # a norm of (`TestImports` keeps scipy.sparse unloaded)
        def forbidden(*args, **kwargs):
            raise AssertionError("N-sized norm on the lift suites")

        monkeypatch.setattr(scipy.linalg, "eig_banded", forbidden)
        assert self.verify(qd.gen_nilpotent(8, -1.0 + 0j, 0.9, 0.8), tmp_path, 1000) == 0

    def test_douglas_suite_builds_no_lift_space_matrix(self, corpus, tmp_path, monkeypatch):
        # every residual of the three lift suites, the two extraction checks
        # included, comes from the blocks: patching the one matrix builder to
        # raise, in every module that holds it, changes nothing, at N = 24
        # and at N = 1000
        forbid(monkeypatch, (hardy.materialize,), "lift-space matrix built on a lift suite")
        for pair in [pair for _, pair, _ in corpus[::9]] + [mixed_pair()]:
            assert self.verify(pair, tmp_path, 24) == 0
        assert self.verify(qd.gen_nilpotent(8, -1.0 + 0j, 0.9, 0.8), tmp_path, 1000) == 0
        # the guard is live: materializing a lift operator's symbol raises
        with pytest.raises(AssertionError, match="lift suite"):
            lift_matrix(qd.douglas_lift(mixed_pair(), 6).v1)

    def test_cli_runs_reach_no_sparse_norm_or_csr_assembly(self, corpus, cnu_corpus,
                                                           tmp_path, monkeypatch):
        # all eight verify suites on a corpus sample, charfn and triple on cnu
        # pairs: none calls a banded Gram solve or materializes a symbol
        # (`hardy.materialize`, the one builder of lift-space matrices), so
        # patching those to raise leaves every exit code as it was; scipy.sparse
        # is not even imported (`TestImports`)
        sample = [pair for _, pair, _ in corpus[::7]]
        cnu = [pair for _, pair, _ in cnu_corpus[::30]]
        paths = [tmp_path / f"pair{i}.json" for i in range(len(sample + cnu))]
        for path, pair in zip(paths, sample + cnu):
            path.write_text(json.dumps(qpair.pair_to_json(pair)))
        runs = [["verify", "--pair", str(path), "--trunc", "24"] for path in paths]
        for path in paths[len(sample):]:
            runs += [["charfn", "--pair", str(path), "--grid", "2x4"],
                     ["triple", "--pair", str(path)]]
        expected = [self.run(args) for args in runs]
        assert expected.count(0) > len(runs) // 2
        def forbidden(*args, **kwargs):
            raise AssertionError("banded norm or lift-space matrix on a CLI run")

        monkeypatch.setattr(scipy.linalg, "eig_banded", forbidden)
        forbid(monkeypatch, (hardy.materialize,), "banded norm or lift-space matrix on a CLI run")
        assert [self.run(args) for args in runs] == expected
        # the guard is live on the banded solve and on a lift's materialization
        with pytest.raises(AssertionError, match="CLI run"):
            scipy.linalg.eig_banded(np.ones((1, 3)))
        with pytest.raises(AssertionError, match="CLI run"):
            lift_matrix(qd.douglas_lift(mixed_pair(), 6).v1)


def forbid(monkeypatch, fns, message):
    """Patch each of `fns` to raise AssertionError(message), under every name
    by which a qdilate module holds it."""
    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    modules = [m for name, m in list(sys.modules.items())
               if name == "qdilate" or name.startswith("qdilate.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if any(value is fn for fn in fns):
                monkeypatch.setattr(module, key, forbidden)


def scaled(op, c):
    """The LiftOperator c V, every block scaled."""
    sym = op.symbol
    return dataclasses.replace(
        op, head=c * op.head, column=tuple(c * x for x in op.column),
        symbol=hardy.TwistedSymbol(sym.rot, tuple(c * x for x in sym.coeffs)), tail=c * op.tail)


class TestFrobeniusGates:
    """The lift-space identity residuals are gated on their Frobenius norm,
    which is never below the spectral norm the gates used before: each gated
    residual against the spectral norm of the same residual of the dense
    matrices (the reference formulas of `test_sparse`)."""

    SWITCHED = {"isometry-v1", "isometry-v2", "q-commute", "product-structure",
                "axiom-i-isometry", "axiom-ii-w1", "axiom-ii-w2", "axiom-iii",
                "same-douglas-isometry", "uniqueness-w1", "uniqueness-w2"}

    @pytest.mark.parametrize("n", [6, 12])
    def test_switched_residuals_dominate_the_spectral_norm(self, corpus, n):
        pairs = [pair for _, pair, _ in corpus[::7]] + boundary_pairs()
        for i, pair in enumerate(pairs):
            an = model.PairAnalysis(pair)
            checked = []
            for lift in (qd.schaffer_lift(an.pair, an.tup, n), qd.douglas_lift(an, n)):
                checked.append((qd.verify_lift(lift, an),
                                dense_lift_residuals(lift, an.pair, n, norm=spectral)))
            pi, tri = pseudolift.douglas_pseudo_lift(an, n)
            checked.append((pseudolift.is_pseudo_triple(tri),
                            dense_triple_residuals(tri, norm=spectral)))
            # rounding-level moves of the model triple keep every axiom, so
            # the uniqueness gates run on nonzero residuals
            cand = dataclasses.replace(tri, w1=scaled(tri.w1, 1 + 2e-13),
                                       w2=scaled(tri.w2, 1 - 3e-13), w=scaled(tri.w, 1 + 1e-13))
            uniq = pseudolift.uniqueness_test(an.pair, cand)
            assert "uniqueness-w1" in {r.check_id for r in uniq.records}, i
            e1 = interior(tri.space, 1)
            gap = {name: spectral((lift_matrix(getattr(cand, w)) - lift_matrix(getattr(tri, w)))
                                  [:, e1])
                   for name, w in (("same-douglas-isometry", "w"), ("uniqueness-w1", "w1"),
                                   ("uniqueness-w2", "w2"))}
            gap.update({f"candidate-{k}": v
                        for k, v in dense_triple_residuals(cand, norm=spectral).items()})
            checked.append((uniq, gap))
            # schaffer 3, douglas 4, pseudo 4, uniqueness 3 + the candidate's
            # 4 axioms
            switched = [(r, ref[r.check_id]) for rep, ref in checked for r in rep.records
                        if r.check_id.removeprefix("candidate-") in self.SWITCHED]
            assert len(switched) == 18, i
            for r, spec in switched:
                assert r.residual >= spec - 1e-15, (i, r.check_id, r.residual, spec)

    def test_isometry_gate_is_stricter_than_the_spectral_one(self):
        # W scaled by 1 + delta: W*W - I is (2 delta + delta^2) I on the e1
        # columns, so its spectral norm stays below tol while its Frobenius
        # norm, sqrt(#e1) times larger, exceeds it
        tol, n = 1e-9, 6
        _, tri = pseudolift.douglas_pseudo_lift(mixed_pair(), n)
        e1 = interior(tri.space, 1)
        delta = tol / 4
        excess = 2 * delta + delta ** 2
        assert excess < tol < excess * np.sqrt(len(e1))
        scaled_w = dataclasses.replace(tri, w=scaled(tri.w, 1 + delta))
        w = lift_matrix(scaled_w.w)
        spectral_norm = np.linalg.norm((adj(w) @ w - eye(w.shape[0]))[:, e1], 2)
        assert spectral_norm < tol
        rec = {r.check_id: r for r in pseudolift.is_pseudo_triple(scaled_w).records}
        assert rec["axiom-i-isometry"].tolerance == tol
        assert not rec["axiom-i-isometry"].passed
        assert abs(rec["axiom-i-isometry"].residual - excess * np.sqrt(len(e1))) <= 1e-3 * tol
        assert pseudolift.is_pseudo_triple(tri).overall


class TestSymbolLevelProduct:
    @pytest.mark.parametrize("which", ["schaffer", "douglas"])
    def test_hardy_blocks_multiply_to_shift_exactly(self, which):
        # coefficient-exact: the Hardy blocks of V1 and V2 compose to z I
        pair = qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.8)
        if which == "schaffer":
            lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), 4)
        else:
            lift = qd.douglas_lift(pair, 4)
        prod = hardy.symbol_compose(lift.v1.symbol, lift.v2.symbol)
        assert prod.rot == 1.0
        assert frob(prod.coeffs[0]) < 1e-14
        assert frob(prod.coeffs[1] - eye(lift.space.hardy.fiber_dim)) < 1e-14
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

        def rotate(op):
            # (I (+) (I_{N+1} (x) w_f)) V (I (+) (I_{N+1} (x) w_f))*, in blocks
            sym = op.symbol
            return dataclasses.replace(
                op, column=tuple(w_f @ c for c in op.column),
                symbol=hardy.TwistedSymbol(sym.rot,
                                           tuple(w_f @ c @ adj(w_f) for c in sym.coeffs)))

        rotated = dataclasses.replace(lift, v1=rotate(lift.v1), v2=rotate(lift.v2))
        big = scipy.linalg.block_diag(eye(pair.dim), np.kron(eye(n + 1), w_f))
        dense = big @ lift_matrix(lift.v1) @ adj(big)
        assert frob(lift_matrix(rotated.v1) - dense) < 1e-14
        frag, rep = qd.extract_ando_from_lift(rotated, pair)
        assert rep.overall, rep.summary_lines()
        assert frob(frag.lam - w_f @ tup.lam) < 1e-10

    def test_rejects_non_model_form(self):
        # a lift that is not in block form: its Hardy->head block is nonzero,
        # so it is a matrix, and the realization is refused on construction
        pair = qd.gen_clock_shift(2, 0.5)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 6)
        v1_bad = lift_matrix(lift.v1)
        v1_bad[0, 3] = 0.5
        with pytest.raises(NotModelFormError):
            qd.extract_ando_from_lift(dataclasses.replace(lift, v1=v1_bad), pair)

    def test_rejects_bumped_product_symbol(self):
        # a product whose Hardy diagonal is not the shift
        pair = qd.gen_clock_shift(2, 0.5)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 6)
        sym = lift.v2.symbol
        coeffs = (sym.coeffs[0] + 1e-3, *sym.coeffs[1:])
        bad = dataclasses.replace(lift, v2=dataclasses.replace(
            lift.v2, symbol=hardy.TwistedSymbol(sym.rot, coeffs)))
        assert frob(bad.product.symbol.coeffs[0]) > 1e-4
        with pytest.raises(NotModelFormError):
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


class TestOneSpace:
    """The lift helpers read the lift space from their operators, and
    operators on two spaces raise DimensionMismatchError."""

    @staticmethod
    def two_spaces(other):
        """(pi, triple) of clock-shift:n=2,scale=0.9 at N 6, and the same on
        another space: N 12 at the same fiber, or the fiber-3 Douglas space
        of a nilpotent pair at N 6."""
        pair = qd.gen_clock_shift(2, 0.9)
        other_pair, n = {"another-trunc": (pair, 12),
                         "another-fiber": (qd.gen_nilpotent(3, 1j, 0.9, 0.8), 6)}[other]
        return qd.douglas_pseudo_lift(pair, 6), qd.douglas_pseudo_lift(other_pair, n)

    @pytest.mark.parametrize("other", ["another-trunc", "another-fiber"])
    @pytest.mark.parametrize("call", [
        lambda pi, tri, pi_o, tri_o: lifts.interior_frob(1, (1.0, tri.w1), (-1.0, tri_o.w1)),
        lambda pi, tri, pi_o, tri_o: lifts.commutator_residual(tri.w1, tri_o.w, tri.q),
        lambda pi, tri, pi_o, tri_o: tri.w1 @ tri_o.w,
        lambda pi, tri, pi_o, tri_o: lifts.orbit_dimension(tri.w, pi_o),
        lambda pi, tri, pi_o, tri_o: lifts.LiftRealization("douglas", pi, tri.w1, tri_o.w2, 0),
        lambda pi, tri, pi_o, tri_o: lifts.PseudoTriple(tri.q, tri.w1, tri.w2, tri_o.w),
    ], ids=["interior_frob", "commutator_residual", "product", "orbit_dimension",
            "LiftRealization", "PseudoTriple"])
    def test_operators_on_two_spaces_raise(self, call, other):
        # a space of another N would read another section of the same
        # blocks, one of another fiber blocks of the wrong shape
        (pi, tri), (pi_o, tri_o) = self.two_spaces(other)
        with pytest.raises(DimensionMismatchError):
            call(pi, tri, pi_o, tri_o)

    @pytest.mark.parametrize("other", ["another-trunc", "another-fiber", "another-dimension"])
    def test_intertwining_residual_on_another_pi_or_t_raises(self, other):
        # W1 of clock-shift:n=2,scale=0.9 at N 6 against the Pi of N 12, the
        # Pi of a fiber-3 Douglas space, or a T of dimension 3
        pair, nilpotent = qd.gen_clock_shift(2, 0.9), qd.gen_nilpotent(3, -1, 0.9, 0.8)
        pi, tri = qd.douglas_pseudo_lift(pair, 6)
        pi, t = {"another-trunc": (qd.douglas_pseudo_lift(pair, 12)[0], pair.t1),
                 "another-fiber": (qd.douglas_pseudo_lift(nilpotent, 6)[0], pair.t1),
                 "another-dimension": (pi, nilpotent.t1)}[other]
        with pytest.raises(DimensionMismatchError):
            lifts.intertwining_residual(tri.w1, pi, t)

    def test_no_helper_takes_a_space_next_to_its_operators(self):
        # isometry_residual, interior_opnorm and _shape_residual take one
        # operator and read its space, so they cannot be given a second one;
        # _diagonal makes a LiftOperator from its space and blocks
        takes_space = {f"{mod.__name__}.{name}"
                       for mod in (lifts, pseudolift)
                       for name, fn in inspect.getmembers(mod, inspect.isfunction)
                       if fn.__module__ == mod.__name__
                       and "space" in inspect.signature(fn).parameters}
        assert takes_space == {"qdilate.lifts._diagonal"}
