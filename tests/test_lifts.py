import contextlib
import dataclasses
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import qdilate as qd
from qdilate import cli, hardy, lifts, matcore, model, pseudolift, qpair
from qdilate.errors import GeneratorError, NotModelFormError
from qdilate.matcore import adj, as_csr, eye, frob, opnorm

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
        col = as_csr(lift.v1).toarray()[1:, 0]
        assert np.allclose(col[:2], [1.0, 0.0])
        assert frob(col[2:].reshape(-1, 1)) == 0.0
        # V2's column passes through the completed part of U, so only its
        # size is convention-free
        col2 = as_csr(lift.v2).toarray()[1:, 0]
        assert abs(np.linalg.norm(col2) - 1.0) < 1e-12
        assert frob(col2[2:].reshape(-1, 1)) == 0.0

    def test_unitary_pair_is_itself(self):
        pair = qd.gen_clock_shift(3, 1.0)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 6)
        assert lift.space.total_dim == 3
        assert frob(as_csr(lift.v1).toarray() - pair.t1) < 1e-12
        assert frob(as_csr(lift.v2).toarray() - pair.t2) < 1e-12

    def test_product_model_form(self):
        pair = qd.gen_clock_shift(3, 0.9)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 8)
        v = (as_csr(lift.v1) @ as_csr(lift.v2)).toarray()
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
        assert frob(b @ as_csr(lift.v1).toarray() @ adj(b) - pair.t1) < 1e-12
        assert frob(b @ as_csr(lift.v2).toarray() @ adj(b) - pair.t2) < 1e-12

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
    v = op.toarray()
    blocks = [pi]
    for _ in range(n + 1):
        blocks.append(v @ blocks[-1])
    return matcore.numerical_rank(np.hstack(blocks), rank_tol=1e-8)


def minimality_records(an, n):
    """(kind, orbit operator, Pi, closed-form dimension, minimality record) of the
    Schaffer lift, the Douglas lift and the Douglas pseudo lift."""
    schaffer = qd.schaffer_lift(an.pair, an.tup, n)
    douglas = qd.douglas_lift(an, n)
    pi, tri = pseudolift.douglas_pseudo_lift(an, n)
    pair = an.pair
    douglas_dim = (n + 1) * an.dstar.dim + an.canonical.dim
    assert schaffer.reachable_dim == pair.dim + (n + 1) * an.tup.dt_dim
    assert douglas.reachable_dim == douglas_dim == tri.space.total_dim
    by_id = {r.check_id: r for r in pseudolift.is_pseudo_lift(pi, tri, pair).records}
    return [("schaffer", as_csr(schaffer.v1) @ as_csr(schaffer.v2), schaffer.pi,
             schaffer.reachable_dim, qd.minimality_check(schaffer).records[0]),
            ("douglas", as_csr(douglas.v1) @ as_csr(douglas.v2), douglas.pi,
             douglas.reachable_dim, qd.minimality_check(douglas).records[0]),
            ("pseudo", as_csr(tri.w), pi, douglas_dim, by_id["minimality"])]


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
                assert matcore.greedy_orbit_rank(op, seed, 1e-8) == predicted, (i, kind)
                assert dense_orbit_rank(op, pi, n) == predicted, (i, kind)

    def test_orbit_missing_the_predicted_space_fails(self):
        # with the constant columns of V1 and V2 zeroed, the orbit of Pi stays
        # in H, short of H (+) H^2_N(D_T) by (N+1) dim ran D_T
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        n = 6
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), n)
        h = pair.dim

        def cut(v):
            v = as_csr(v).tolil()
            v[h:, :h] = 0.0
            return v.tocsr()

        bad = dataclasses.replace(lift, v1=cut(lift.v1), v2=cut(lift.v2))
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
        # V1 coupled from the Hardy part back into the head: V = V1 V2 leaves
        # the block lower triangular shape and the orbit is not decided
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), 6)
        v1 = as_csr(lift.v1).tolil()
        v1[0, pair.dim + 1] = 1e-3
        rec = qd.minimality_check(dataclasses.replace(lift, v1=v1.tocsr())).records[0]
        assert rec.check_id == "rank-consistency" and not rec.passed
        assert rec.note.startswith("orbit undecided,")
        assert "block shape residual" in rec.note

    def test_off_toeplitz_hardy_entry_fails_the_shape(self):
        # one subdiagonal entry of the shift moved by 1e-6: the greedy orbit
        # still fills the predicted space, but the shape residual (Frobenius,
        # all columns, 1e-10) rejects it
        pair = qd.gen_nilpotent(3, 1j, 0.9, 0.8)
        n = 6
        lift = qd.schaffer_lift(pair, qd.special_ando_tuple(pair), n)
        h, f = pair.dim, lift.space.hardy.fiber_dim
        v = (as_csr(lift.v1) @ as_csr(lift.v2)).tolil()
        v[h + 3 * f, h + 2 * f] += 1e-6
        bad = dataclasses.replace(lift, v1=v.tocsr(), v2=matcore.speye(lift.space.total_dim))
        seed = lift.pi / np.linalg.norm(lift.pi, 2)
        assert matcore.greedy_orbit_rank(bad.v1, seed) == lift.reachable_dim
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
    no D x D dense buffer, no sparse norm and no lift-space matrix where no
    extraction needs one."""

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

    def test_banded_eigensolve_only_where_the_norm_is_gated(self, corpus, tmp_path,
                                                           monkeypatch):
        # the identity residuals are Frobenius norms from the symbol blocks,
        # the intertwinings dense SVDs, extract_symbol scales its tolerances
        # by the largest column norm and ||W1||, ||W2|| (axiom-i-contractions)
        # are the symbols' sup norms, by the level-set pencil: no sparse norm
        # and no banded Gram solve at all
        sparse_norms, solves = [], []
        eig_banded = scipy.linalg.eig_banded

        def counted(*args, **kwargs):
            solves.append(1)
            return eig_banded(*args, **kwargs)

        monkeypatch.setattr(matcore, "_sparse_opnorm",
                            lambda a: sparse_norms.append(1) or 0.0)
        monkeypatch.setattr(scipy.linalg, "eig_banded", counted)
        pairs = [pair for _, pair, _ in corpus[::11]] + [qd.gen_conjugated(mixed_pair(), 4)[0]]
        assert any(model.PairAnalysis(pair).dstar.dim == 0 for pair in pairs)
        for pair in pairs:
            solves.clear()
            assert self.verify(pair, tmp_path, 64) == 0
            assert sparse_norms == []
            assert solves == []

    def test_large_truncation_without_banded_or_sparse_norms(self, tmp_path, monkeypatch):
        # at N = 1000 the lift suites cost what they cost at small N: neither
        # a banded eigensolve nor a sparse norm is called
        def forbidden(*args, **kwargs):
            raise AssertionError("N-sized norm on the lift suites")

        monkeypatch.setattr(scipy.linalg, "eig_banded", forbidden)
        monkeypatch.setattr(matcore, "_sparse_opnorm", forbidden)
        assert self.verify(qd.gen_nilpotent(8, -1.0 + 0j, 0.9, 0.8), tmp_path, 1000) == 0

    def test_douglas_suite_builds_no_lift_space_matrix(self, corpus, tmp_path, monkeypatch):
        # every residual of the three lift suites, the two extraction checks
        # included, comes from the blocks: patching the two CSR builders to
        # raise, in every module that holds them, changes nothing, at N = 24
        # and at N = 1000
        forbid(monkeypatch, (hardy.materialize_csr, matcore.block_csr),
               "lift-space CSR built on a lift suite")
        for pair in [pair for _, pair, _ in corpus[::9]] + [mixed_pair()]:
            assert self.verify(pair, tmp_path, 24) == 0
        assert self.verify(qd.gen_nilpotent(8, -1.0 + 0j, 0.9, 0.8), tmp_path, 1000) == 0
        # the guard is live: materializing a lift operator raises
        with pytest.raises(AssertionError, match="lift suite"):
            as_csr(qd.douglas_lift(mixed_pair(), 6).v1)

    def test_cli_runs_reach_no_sparse_norm_or_csr_assembly(self, corpus, cnu_corpus,
                                                           tmp_path, monkeypatch):
        # all eight verify suites on a corpus sample, charfn and triple on cnu
        # pairs: none calls the sparse norm, its Gram solve or an assembler of
        # lift-space CSR matrices, so patching those to raise leaves every
        # exit code as it was
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
        forbid(monkeypatch, (matcore._sparse_opnorm, matcore._gram_norm, matcore.block_csr,
                             hardy.materialize_csr), "sparse norm or CSR assembly on a CLI run")
        assert [self.run(args) for args in runs] == expected
        # the guard is live on the sparse norm and on a lift's materialization
        with pytest.raises(AssertionError, match="CLI run"):
            opnorm(matcore.speye(3))
        with pytest.raises(AssertionError, match="CLI run"):
            as_csr(qd.douglas_lift(mixed_pair(), 6).v1)


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


def sparse_route(lift):
    """The realization with its operators materialized: every residual then
    takes the sparse route."""
    return dataclasses.replace(lift, v1=as_csr(lift.v1), v2=as_csr(lift.v2))


def sparse_triple(tri):
    return dataclasses.replace(tri, w1=as_csr(tri.w1), w2=as_csr(tri.w2), w=as_csr(tri.w))


class TestFrobeniusGates:
    """The lift-space identity residuals are gated on their Frobenius norm,
    which is never below the spectral norm the gates used before.  The
    sparse route is recorded here; `test_block_route.py` holds the block
    route to it.  The two extraction checks read the blocks only (their
    reconstruction residuals are closed forms), so none of their residuals is
    a sparse one."""

    SWITCHED = {"isometry-v1", "isometry-v2", "q-commute", "product-structure",
                "axiom-i-isometry", "axiom-ii-w1", "axiom-ii-w2", "axiom-iii",
                "same-douglas-isometry", "uniqueness-w1", "uniqueness-w2"}

    @staticmethod
    def record_sparse_frob(monkeypatch):
        """Patch `frob` in the lift modules to record (Frobenius, dense
        spectral) of every sparse residual it measures; on these paths the
        sparse calls are exactly the switched gates."""
        seen = []

        def recording(a):
            value = matcore.frob(a)
            if sp.issparse(a):
                d = a.toarray()
                seen.append((value, float(np.linalg.norm(d, 2)) if d.size else 0.0))
            return value

        for mod in (lifts, pseudolift, hardy):
            monkeypatch.setattr(mod, "frob", recording)
        return seen

    @pytest.mark.parametrize("n", [6, 12])
    def test_switched_residuals_dominate_the_spectral_norm(self, corpus, monkeypatch, n):
        seen = self.record_sparse_frob(monkeypatch)
        pairs = [pair for _, pair, _ in corpus[::7]] + boundary_pairs()
        for i, pair in enumerate(pairs):
            an = model.PairAnalysis(pair)
            seen.clear()
            schaffer = sparse_route(qd.schaffer_lift(an.pair, an.tup, n))
            reps = [qd.verify_lift(schaffer, an),
                    qd.extract_ando_from_lift(qd.schaffer_lift(an.pair, an.tup, n), an)[1],
                    qd.verify_lift(sparse_route(qd.douglas_lift(an, n)), an)]
            pi, tri = pseudolift.douglas_pseudo_lift(an, n)
            reps.append(pseudolift.is_pseudo_triple(sparse_triple(tri)))
            reps.append(pseudolift.taylor_rigidity(tri, an))
            # rounding-level moves of the model triple keep every axiom, so
            # the uniqueness gates run on nonzero residuals
            tri = sparse_triple(tri)
            cand = dataclasses.replace(tri, w1=tri.w1 * (1 + 2e-13),
                                       w2=tri.w2 * (1 - 3e-13), w=tri.w * (1 + 1e-13))
            uniq = pseudolift.uniqueness_test(an.pair, cand)
            assert "uniqueness-w1" in {r.check_id for r in uniq.records}, i
            reps.append(uniq)
            # schaffer 3, douglas 4, pseudo 4, uniqueness 3 + the candidate's
            # 4 axioms; the 3 model-form guards of the Ando extraction and the
            # 2 x 2 residuals of the Taylor extraction (once extract_symbol on
            # CSR matrices) are read from the blocks now, so they are not
            # sparse residuals any more
            assert len(seen) == 18, (i, len(seen))
            for value, spectral in seen:
                assert value >= spectral - 1e-15, (i, value, spectral)
            recorded = {value for value, _ in seen}
            switched = [r for rep in reps for r in rep.records
                        if r.check_id.removeprefix("candidate-") in self.SWITCHED]
            assert len(switched) == 18, i
            for r in switched:
                assert r.residual in recorded, (i, r.check_id)

    def test_isometry_gate_is_stricter_than_the_spectral_one(self):
        # W scaled by 1 + delta: W*W - I is (2 delta + delta^2) I on the e1
        # columns, so its spectral norm stays below tol while its Frobenius
        # norm, sqrt(#e1) times larger, exceeds it
        tol, n = 1e-9, 6
        _, tri = pseudolift.douglas_pseudo_lift(mixed_pair(), n)
        e1 = tri.space.interior(1)
        delta = tol / 4
        excess = 2 * delta + delta ** 2
        assert excess < tol < excess * np.sqrt(len(e1))
        scaled = dataclasses.replace(tri, w=as_csr(tri.w) * (1 + delta))
        w = scaled.w.toarray()
        spectral = np.linalg.norm((adj(w) @ w - eye(w.shape[0]))[:, e1], 2)
        assert spectral < tol
        rec = {r.check_id: r for r in pseudolift.is_pseudo_triple(scaled, tol).records}
        assert not rec["axiom-i-isometry"].passed
        assert abs(rec["axiom-i-isometry"].residual - excess * np.sqrt(len(e1))) <= 1e-3 * tol
        assert pseudolift.is_pseudo_triple(tri, tol).overall


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
        dense = big @ as_csr(lift.v1).toarray() @ adj(big)
        assert frob(as_csr(rotated.v1).toarray() - dense) < 1e-14
        frag, rep = qd.extract_ando_from_lift(rotated, pair)
        assert rep.overall, rep.summary_lines()
        assert frob(frag.lam - w_f @ tup.lam) < 1e-10

    def test_rejects_non_model_form(self):
        # a lift that is not in block form: its head->Hardy block is nonzero
        pair = qd.gen_clock_shift(2, 0.5)
        tup = qd.special_ando_tuple(pair)
        lift = qd.schaffer_lift(pair, tup, 6)
        v1_bad = as_csr(lift.v1).toarray()
        v1_bad[0, 3] = 0.5
        bad = dataclasses.replace(lift, v1=v1_bad)
        with pytest.raises(NotModelFormError):
            qd.extract_ando_from_lift(bad, pair)

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
