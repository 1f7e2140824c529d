import cmath
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdilate as qd
from qdilate import matcore, model, qpair
from qdilate.errors import (
    MixedTwistError,
    NotCnuError,
    NotContractionError,
    NotQCommutingError,
    NotReducingError,
    NotUnimodularError,
    ParseError,
    QDilateError,
)
from qdilate.matcore import adj, eye, frob, opnorm
from qdilate.report import Report

from conftest import pivoted_qr_complement
from test_report_snapshot import snapshot_pairs


class TestValidate:
    def test_zero_pair(self):
        p = qd.validate(1.0, np.zeros((2, 2)), np.zeros((2, 2)))
        assert p.dim == 2

    def test_clock_shift_at_i(self):
        # direct 4x4 check: Z X = i X Z for the clock and the cyclic shift
        z = np.diag([1, 1j, -1, -1j]).astype(complex)
        x = qpair.shift_matrix(4)
        assert frob(z @ x - 1j * x @ z) < 1e-14
        p = qd.validate(1j, z, x)
        assert p.dim == 4

    def test_identity_pair_not_q_commuting(self):
        with pytest.raises(NotQCommutingError) as err:
            qd.validate(1j, eye(2), eye(2))
        assert "1" in str(err.value)  # residual magnitude reported

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodularError):
            qd.validate(0.5, np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("q", [complex("nan"), complex("inf"), complex(1.0, float("nan"))])
    def test_non_finite_twist(self, q):
        with pytest.raises(NotUnimodularError):
            qd.validate(q, [[0.5]], [[0.5]])

    def test_not_contraction(self):
        with pytest.raises(NotContractionError):
            qd.validate(1.0, 2 * eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     complex(0.0, float("nan"))])
    @pytest.mark.parametrize("factor", [0, 1])
    def test_non_finite_entry_is_a_parse_error(self, bad, factor):
        mats = [[[0.0]], [[0.0]]]
        mats[factor] = [[bad]]
        with pytest.raises(ParseError):
            qd.validate(1.0, *mats)


class TestProductAndAdjoint:
    def test_zero_product(self):
        p = qd.validate(1.0, np.zeros((2, 2)), np.zeros((2, 2)))
        assert frob(p.product()) == 0.0

    def test_unitary_product(self):
        p = qd.gen_clock_shift(4, 1.0)
        t = p.product()
        assert frob(adj(t) @ t - eye(4)) < 1e-13

    def test_diagonal_product_entrywise(self):
        p = qd.validate(1.0, np.diag([0.5, 0.25]), np.diag([0.2, 0.8]))
        assert np.allclose(p.product(), np.diag([0.1, 0.2]))

    def test_adjoint_same_twist(self):
        p = qd.gen_clock_shift(4, 0.9)
        pa = qd.adjoint_pair(p)
        assert pa.q == p.q
        assert frob(pa.t1 @ pa.t2 - p.q * pa.t2 @ pa.t1) < 1e-12

    def test_adjoint_involution_exact(self):
        p = qd.gen_nilpotent(3, np.exp(1j), 0.9, 0.8)
        paa = qd.adjoint_pair(qd.adjoint_pair(p))
        assert np.array_equal(paa.t1, p.t1)
        assert np.array_equal(paa.t2, p.t2)

    def test_self_adjoint_commuting_fixed(self):
        t = np.diag([0.3, -0.5]).astype(complex)
        p = qd.validate(1.0, t, t)
        pa = qd.adjoint_pair(p)
        assert np.allclose(pa.t1, t)


class TestGenerators:
    def test_clock_shift_trivial(self):
        p = qd.gen_clock_shift(1, 0.7)
        assert p.dim == 1
        assert abs(p.q - 1.0) < 1e-15
        assert abs(p.t1[0, 0] - 0.7) < 1e-15

    def test_clock_shift_unitary(self):
        p = qd.gen_clock_shift(3, 1.0)
        for t in (p.t1, p.t2):
            assert frob(adj(t) @ t - eye(3)) < 1e-14

    def test_clock_shift_scaled(self):
        p = qd.gen_clock_shift(2, 0.5)
        assert abs(p.q + 1.0) < 1e-15
        assert np.linalg.norm(p.t1, 2) == pytest.approx(0.5)

    def test_nilpotent_basic(self):
        p = qd.gen_nilpotent(2, 1j, 1.0, 1.0)
        assert frob(p.t1 @ p.t1) == 0.0

    def test_nilpotent_commuting_degenerate(self):
        p = qd.gen_nilpotent(3, np.exp(0.3j), 0.0, 1.0)
        assert frob(p.t1) == 0.0

    def test_nilpotent_generic_twist(self):
        q = np.exp(1j)
        p = qd.gen_nilpotent(3, q, 0.9, 0.9)
        assert frob(p.t1 @ p.t2 - q * p.t2 @ p.t1) < 1e-14

    def test_generic_twist_forces_singular_factor(self):
        # with both factors invertible, determinants force q^n = 1; the
        # generic-q generator therefore always carries det T1 = 0
        q = np.exp(1j)
        for n in range(2, 7):
            assert abs(q ** n - 1.0) > 1e-3
            p = qd.gen_nilpotent(n, q, 0.9, 0.8)
            assert abs(np.linalg.det(p.t1)) == 0.0

    def test_conjugated(self):
        p = qd.gen_clock_shift(3, 0.9)
        pc, w = qd.gen_conjugated(p, seed=5)
        assert frob(adj(w) @ w - eye(3)) < 1e-12
        assert frob(pc.t1 - w @ p.t1 @ adj(w)) < 1e-12
        ev_a = np.sort_complex(np.linalg.eigvals(p.product()))
        ev_b = np.sort_complex(np.linalg.eigvals(pc.product()))
        assert np.allclose(ev_a, ev_b)

    def test_conjugated_identity_like(self):
        p = qd.gen_clock_shift(2, 0.5)
        pc = qd.validate(p.q, eye(2) @ p.t1 @ eye(2), p.t2)
        assert np.allclose(pc.t1, p.t1)

    def test_direct_sum(self):
        a = qd.gen_clock_shift(2, 1.0)
        b = qd.gen_nilpotent(3, -1.0 + 0j, 0.9, 0.8)
        s = qd.gen_direct_sum([a, b])
        assert s.dim == 5
        dec = qd.cnu_decompose(s.product())
        assert dec.unitary_part.dim == 2

    def test_direct_sum_matches_block_diag(self):
        parts = [qd.gen_clock_shift(2, 1.0), qd.gen_nilpotent(3, -1.0 + 0j, 0.9, 0.8),
                 qd.gen_conjugated(qd.gen_clock_shift(2, 0.9), 4)[0]]
        s = qd.gen_direct_sum(parts)
        assert np.array_equal(s.t1, scipy.linalg.block_diag(*[p.t1 for p in parts]))
        assert np.array_equal(s.t2, scipy.linalg.block_diag(*[p.t2 for p in parts]))
        assert s.t1.dtype == s.t2.dtype == np.complex128

    def test_direct_sum_single(self):
        a = qd.gen_clock_shift(2, 0.9)
        s = qd.gen_direct_sum([a])
        assert np.array_equal(s.t1, a.t1)

    def test_direct_sum_errors(self):
        with pytest.raises(MixedTwistError):
            qd.gen_direct_sum([])
        with pytest.raises(MixedTwistError):
            qd.gen_direct_sum([qd.gen_clock_shift(2, 1.0), qd.gen_clock_shift(3, 1.0)])

    def test_corpus_validates(self, corpus):
        assert len(corpus) >= 50
        assert sorted({p.dim for _, p, _ in corpus}) == [1, 2, 3, 4, 5, 6]
        for name, p, _ in corpus:
            qd.validate(p.q, p.t1, p.t2, tol=1e-10)


class TestCnuDecompose:
    def test_unitary(self):
        dec = qd.cnu_decompose(qpair.shift_matrix(3))
        assert dec.cnu_part.dim == 0
        assert dec.unitary_part.dim == 3

    def test_strict_contraction(self):
        dec = qd.cnu_decompose(0.5 * qpair.shift_matrix(3))
        assert dec.unitary_part.dim == 0

    def test_diagonal_split(self):
        dec = qd.cnu_decompose(np.diag([1.0, 0.5]).astype(complex))
        assert dec.unitary_part.dim == 1
        assert abs(abs(dec.unitary_part.columns[0, 0]) - 1.0) < 1e-12
        assert abs(abs(dec.cnu_part.columns[1, 0]) - 1.0) < 1e-12

    def test_recombination(self):
        t = np.diag([1j, 0.5, 0.2]).astype(complex)
        dec = qd.cnu_decompose(t)
        b = np.hstack([dec.unitary_part.columns, dec.cnu_part.columns])
        rebuilt = b @ np.block([
            [dec.t_unitary, np.zeros((dec.unitary_part.dim, dec.cnu_part.dim))],
            [np.zeros((dec.cnu_part.dim, dec.unitary_part.dim)), dec.t_cnu],
        ]) @ adj(b)
        assert frob(rebuilt - t) < 1e-10
        assert dec.unitary_part.dim + dec.cnu_part.dim == 3

    def test_cnu_spectral_radius(self):
        dec = qd.cnu_decompose(np.diag([1.0, 0.5]).astype(complex))
        assert np.abs(np.linalg.eigvals(dec.t_cnu)).max() < 1 - 1e-12

    def test_near_unimodular_eigenvalue_is_cnu(self):
        # |lambda| = 1 - 1e-9 is close to the circle but not on it: T^n T*^n
        # tends to 0, so the product is cnu and Q = 0
        dec = qd.cnu_decompose(np.diag([1 - 1e-9, 0.5]).astype(complex))
        assert dec.unitary_part.dim == 0
        assert dec.cnu_part.dim == 2
        assert opnorm(dec.q_op) < 1e-6

    @pytest.mark.parametrize("pair", [
        qd.gen_clock_shift(3, 1.0),
        qd.gen_direct_sum([qd.gen_clock_shift(2, 1.0), qd.gen_nilpotent(3, -1.0, 0.9, 0.8)]),
        qd.gen_conjugated(qd.gen_direct_sum(
            [qd.gen_clock_shift(2, 1.0), qd.gen_nilpotent(3, -1.0, 0.9, 0.8)]), 1)[0],
        qd.gen_direct_sum([qd.gen_clock_shift(3, 1.0), qd.gen_clock_shift(3, 0.9)]),
    ], ids=["clock-shift", "sum", "conjugated-sum", "clock-shift-sum"])
    def test_eigen_complement_matches_the_pivoted_qr_one(self, pair):
        # the cnu part is the rest of the eigenbasis of Q; the pivoted QR of
        # I - b_u b_u* it replaced spans the same subspace
        n = pair.dim
        dec = qd.cnu_decompose(pair.product())
        b_u, b_c = dec.unitary_part.columns, dec.cnu_part.columns
        assert b_u.shape[1]
        qr = pivoted_qr_complement(b_u @ adj(b_u), n - b_u.shape[1])
        assert frob(b_c @ adj(b_c) - qr @ adj(qr)) < 1e-12
        b = np.hstack([b_u, b_c])
        assert frob(adj(b) @ b - eye(n)) < 1e-12
        assert frob(b @ adj(b) - eye(n)) < 1e-12

    def test_q_spans_the_unitary_part(self):
        t = np.diag([1j, 0.5, 0.2]).astype(complex)
        dec = qd.cnu_decompose(t)
        b = dec.unitary_part.columns
        assert frob(dec.q_op @ dec.q_op - b @ adj(b)) < 1e-10


def eig_unitary_split(t: np.ndarray, tol: float = 1e-8) -> int:
    """The eigenvalue route to the unitary part, kept as a test oracle: the
    span of the eigenvectors with |lambda| > 1 - tol.  Returns its dimension
    after the same reducing and unitarity checks as `cnu_decompose`."""
    n = t.shape[0]
    w, vecs = np.linalg.eig(t)
    uni = np.abs(w) > 1.0 - tol
    b_u = matcore.orth_columns(vecs[:, uni]) if np.any(uni) else np.zeros((n, 0), complex)
    b_c = pivoted_qr_complement(b_u @ adj(b_u), n - b_u.shape[1])
    if max(opnorm(adj(b_c) @ t @ b_u), opnorm(adj(b_u) @ t @ b_c)) > 1e-10:
        raise NotReducingError("unimodular eigenspace fails to reduce")
    t_u = adj(b_u) @ t @ b_u
    if b_u.shape[1] and frob(adj(t_u) @ t_u - eye(b_u.shape[1])) > 1e-10:
        raise NotReducingError("compression to the unimodular eigenspace is not unitary")
    return b_u.shape[1]


class TestOneSplit:
    """The unitary part of T is computed once, by the power limit, and the
    cnu split, the canonical pair and the triple all agree on it."""

    def test_eigenvalue_oracle_agrees(self):
        for pos, (name, pair) in enumerate(snapshot_pairs()):
            t = pair.product()
            if name == "clock-shift:n=3,scale=1-1e-9":
                # |lambda| = 1 - 2e-9 passes the oracle's cutoff, but T is
                # not unitary on that eigenspace: the oracle fails its own check
                assert pos == 78
                with pytest.raises(NotReducingError, match="not unitary"):
                    eig_unitary_split(t)
                assert qd.cnu_decompose(t).unitary_part.dim == 0
                continue
            assert qd.cnu_decompose(t).unitary_part.dim == eig_unitary_split(t), name

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), m=st.integers(2, 4),
           s=st.sampled_from([1.0, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9]),
           c=st.floats(0.3, 1.0), d=st.floats(0.3, 1.0), seed=st.integers(0, 2 ** 16))
    @example(n=3, m=3, s=1 - 1e-9, c=0.8, d=0.7, seed=3)
    def test_split_of_conjugated_sums(self, n, m, s, c, d, seed):
        q = cmath.exp(2j * math.pi / n)
        summands = [qd.gen_clock_shift(n, s), qd.gen_nilpotent(m, q, c, d)]
        pair, _ = qd.gen_conjugated(qd.gen_direct_sum(summands), seed)
        unitary_dim = n if s == 1.0 else 0
        an = model.PairAnalysis(pair)
        assert an.cnu.unitary_part.dim == unitary_dim
        assert qd.canonical_unitary_pair(an).dim == unitary_dim
        try:
            qd.char_triple(an)
            raised = None
        except QDilateError as exc:
            raised = exc
        assert isinstance(raised, NotCnuError) == (s == 1.0), raised


def check_lemma_prod(pair, n_max=8):
    """Residuals of the product-power twist relations T_i T^n = q^(+-n) T^n T_i,
    and factor isometry when the product is isometric."""
    rep = Report("lemma-prod", {"n_max": n_max})
    t = pair.product()
    n = pair.dim
    if frob(adj(t) @ t - eye(n)) <= 1e-10:
        rep.check("t1-isometric", "T isometric => T1*T1 = I",
                  frob(adj(pair.t1) @ pair.t1 - eye(n)), 1e-10)
        rep.check("t2-isometric", "T isometric => T2*T2 = I",
                  frob(adj(pair.t2) @ pair.t2 - eye(n)), 1e-10)
    else:
        rep.skip("factor-isometry", "T isometric => T1, T2 isometric",
                 note="product not isometric")
    worst1 = worst2 = 0.0
    tn = eye(n)
    for k in range(1, n_max + 1):
        tn = tn @ t
        worst1 = max(worst1, frob(pair.t1 @ tn - (pair.q ** k) * (tn @ pair.t1)))
        worst2 = max(worst2, frob(pair.t2 @ tn - (np.conj(pair.q) ** k) * (tn @ pair.t2)))
    rep.check("t1-power-twist", "T1 T^n = q^n T^n T1", worst1, 1e-10)
    rep.check("t2-power-twist", "T2 T^n = conj(q)^n T^n T2", worst2, 1e-10)
    return rep


class TestLemmaProd:
    def test_unitary_pair(self):
        rep = check_lemma_prod(qd.gen_clock_shift(4, 1.0), n_max=6)
        assert rep.overall
        assert rep.worst() < 1e-10

    def test_zero_pair(self):
        p = qd.validate(1j, np.zeros((2, 2)), np.zeros((2, 2)))
        rep = check_lemma_prod(p)
        assert rep.overall
        assert rep.worst() == 0.0

    def test_nilpotent(self):
        rep = check_lemma_prod(qd.gen_nilpotent(4, np.exp(1j), 0.9, 0.8), n_max=5)
        assert rep.overall


class TestSpecParsing:
    def test_parse_complex(self):
        assert qpair.parse_complex("1") == 1.0
        assert qpair.parse_complex("-0.5") == -0.5
        assert qpair.parse_complex("i") == 1j
        assert qpair.parse_complex("-i") == -1j
        assert qpair.parse_complex("0.5403+0.8415i") == pytest.approx(0.5403 + 0.8415j)
        assert qpair.parse_complex("1-2i") == 1 - 2j
        with pytest.raises(ParseError):
            qpair.parse_complex("one")

    def test_from_spec(self):
        p = qd.validate(*(lambda s: (s.q, s.t1, s.t2))(
            qpair.from_spec("clock-shift:n=4,scale=1")))
        assert p.dim == 4
        p = qpair.from_spec("nilpotent:n=3,q=0.5403+0.8415i,c=0.9,d=0.9")
        assert p.dim == 3

    def test_from_spec_errors(self):
        with pytest.raises(ParseError):
            qpair.from_spec("clock-shift:n")
        with pytest.raises(ParseError):
            qpair.from_spec("unknown:n=2")
        with pytest.raises(ParseError):
            qpair.from_spec("clock-shift:m=2")

    def test_json_round_trip(self):
        p = qd.gen_nilpotent(3, np.exp(2j), 0.7, 0.6)
        obj = qpair.pair_to_json(p)
        text = json.dumps(obj)
        back = qpair.pair_from_json(json.loads(text))
        assert np.array_equal(back.t1, p.t1)
        assert back.q == p.q
