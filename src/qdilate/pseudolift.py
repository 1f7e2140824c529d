"""Pseudo q-commuting contractive triples and the Douglas-model pseudo lift.

A pseudo triple (W1, W2, W) has contractive W1, W2, isometric W, with
W1 W = q W W1, W2 W = qbar W W2 and W1 = qbar W2* W.  Over the Douglas
embedding these axioms are rigid: the off-diagonal blocks must vanish and the
Hardy blocks must be the degree-one multipliers built from the fundamental
operators.  Violating candidates are rejected by the axiom checks, so equality
with the model triple is the only way to pass over a fixed embedding.  The
Douglas pseudo lift itself is built in `lifts`, next to the Douglas lift.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import matcore
from .errors import NotModelFormError, NotQCommutantError
from .hardy import TwistedSymbol
from .lifts import (
    LiftOperator,
    PseudoTriple,
    adjoint_times,
    commutator_residual,
    douglas_pseudo_lift,
    interior_frob,
    interior_opnorm,
    isometry_residual,
    orbit_dimension,
)
from .matcore import adj, as_csr, block_csr, eye, frob, opnorm
from .model import PairAnalysis
from .qpair import QPair
from .report import Report


def is_pseudo_triple(triple: PseudoTriple, tol: float = 1e-9) -> Report:
    """Per-axiom residuals of the pseudo-triple conditions.

    Degree budgets: contractivity and the linear axiom consume one degree,
    the two twisted commutations consume two.  Contractivity gates the
    spectral norms ||W_i|| themselves; the identity residuals are gated on
    their Frobenius norm, which is never below the spectral one.  For the
    builder's triple (LiftOperators) all of them come from the symbol blocks
    (`lifts.interior_frob`, `lifts.interior_opnorm`), and contractivity reads
    the norm of the untruncated operator, ||phi||_inf on the Hardy part,
    which no finite section exceeds; other operators go through sparse
    products, contractivity through the norm of the degree <= N-1 section.
    """
    rep = Report("pseudo-triple", {"trunc": triple.trunc, "tol": tol})
    q, space = triple.q, triple.space
    w1, w2, w = triple.w1, triple.w2, triple.w
    rep.check("axiom-i-contractions", "||W1||, ||W2|| <= 1",
              max(0.0, max(interior_opnorm(w1, space), interior_opnorm(w2, space)) - 1.0),
              1e-9)
    rep.check("axiom-i-isometry", "W*W = I on degrees <= N-1",
              isometry_residual(w, space, 1), tol)
    rep.check("axiom-ii-w1", "W1 W = q W W1 on degrees <= N-2",
              commutator_residual(w1, w, q, space, 2), tol)
    rep.check("axiom-ii-w2", "W2 W = qbar W W2 on degrees <= N-2",
              commutator_residual(w2, w, np.conj(q), space, 2), tol)
    rep.check("axiom-iii", "W1 = qbar W2* W on degrees <= N-1",
              interior_frob(space, 1, (1.0, w1), (-np.conj(q), w2, w)), tol)
    return rep


def is_pseudo_lift(pi: np.ndarray, triple: PseudoTriple, pair: PairAnalysis | QPair,
                   tol: float = 1e-9, rank_tol: float = 1e-8) -> Report:
    """Lift intertwinings (tail-corrected) plus minimality of (Pi, W): the
    orbit dimension of W on Pi, proved from the block shapes by
    `lifts.orbit_dimension`, must be the whole lift space,
    (N+1) dim ran D_{T*} + dim ran Q, the minimal dilation space.  The tail
    comes from the pair's analysis, computed once per N."""
    an = PairAnalysis.of(pair)
    pair, t = an.pair, an.product
    rep = Report("pseudo-lift", {"trunc": triple.trunc, "tol": tol})
    tail = an.defect_tail(triple.trunc)
    rep.environment["tail"] = tail
    corrected = tol + 10.0 * tail
    rep.check("lift-w1", "W1* Pi = Pi T1*",
              opnorm(adjoint_times(triple.w1, pi) - pi @ adj(pair.t1)), corrected)
    rep.check("lift-w2", "W2* Pi = Pi T2*",
              opnorm(adjoint_times(triple.w2, pi) - pi @ adj(pair.t2)), corrected)
    rep.check("lift-w", "W* Pi = Pi T*",
              opnorm(adjoint_times(triple.w, pi) - pi @ adj(t)), corrected)
    proof = orbit_dimension(triple.w, pi, triple.space, rank_tol)
    rep.environment.update(proof.environment())
    full = triple.space.total_dim
    rep.require("minimality", "span{W^n Ran Pi} is the whole lift space",
                proof.dim == full, note=proof.note(f"space {full}"))
    return rep


def uniqueness_test(pair: QPair, candidate: PseudoTriple, tol: float = 1e-9,
                    tau: np.ndarray | None = None) -> Report:
    """Compare a candidate pseudo lift over the Douglas data with the model one.

    The candidate must share the Douglas isometry (W = V_D up to degree
    budget); on a pass, block rigidity forces (W1, W2) = (W1_D, W2_D), checked on
    the interior block.  A candidate in block form is checked from its blocks.
    With `tau`, an arbitrary pseudo lift is accepted and compared, as CSR,
    after conjugation by the supplied minimal-lift intertwiner.
    """
    an = PairAnalysis.of(pair)
    pi_d, ref = douglas_pseudo_lift(an, candidate.trunc)
    rep = Report("pseudo-uniqueness", {"trunc": candidate.trunc, "tol": tol})
    if tau is not None:
        tau = matcore.as_cmatrix(tau)
        rep.check("tau-unitary", "supplied intertwiner is unitary",
                  opnorm(adj(tau) @ tau - eye(tau.shape[0])), 1e-10)
        moved = [as_csr(tau @ (as_csr(x) @ adj(tau))) for x in (candidate.w1, candidate.w2,
                                                                 candidate.w)]
        candidate = replace(candidate, w1=moved[0], w2=moved[1], w=moved[2])
    space = ref.space
    same_w = rep.check("same-douglas-isometry", "candidate W equals V_D",
                       interior_frob(space, 1, (1.0, candidate.w), (-1.0, ref.w)), tol)
    axioms = is_pseudo_triple(candidate, tol)
    rep.merge(axioms, prefix="candidate-")
    lift_rep = is_pseudo_lift(pi_d, candidate, an, tol)
    rep.merge(lift_rep, prefix="candidate-")
    if same_w and axioms.overall and lift_rep.overall:
        rep.check("uniqueness-w1", "W1 = W1_D on degrees <= N-1",
                  interior_frob(space, 1, (1.0, candidate.w1), (-1.0, ref.w1)), tol)
        rep.check("uniqueness-w2", "W2 = W2_D on degrees <= N-1",
                  interior_frob(space, 1, (1.0, candidate.w2), (-1.0, ref.w2)), tol)
    else:
        rep.skip("uniqueness-equality", "(W1,W2) = (W1_D,W2_D)",
                 note="candidate failed the pseudo-lift preconditions; "
                      "uniqueness is vacuous")
    return rep


def perturbed_triple(triple: PseudoTriple, eps: float, seed: int = 0) -> PseudoTriple:
    """Inject a random Hardy<->tail block of norm eps into W1 (rigidity probe)."""
    rng = np.random.default_rng(seed)
    w1 = as_csr(triple.w1)
    hd = triple.space.hardy.total_dim
    tl = triple.space.tail_dim
    if tl == 0 or hd == 0:
        # no off-diagonal geometry: perturb the top-left corner instead
        block = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        bump = block_csr(w1.shape, [(0, 0, eps * block / abs(block[0, 0]))])
        return replace(triple, w1=w1 + bump)
    block = rng.standard_normal((hd, tl)) + 1j * rng.standard_normal((hd, tl))
    block *= eps / opnorm(block)
    return replace(triple, w1=w1 + block_csr(w1.shape, [(0, hd, block)]))


def taylor_rigidity(triple: PseudoTriple, pair: PairAnalysis | QPair,
                    tol: float = 1e-9) -> Report:
    """Read the Hardy-block symbols of a passing triple in block form (else
    NotModelFormError) and match them to the fundamental operators:
    phi1 = G1* + z G2, phi2 = G2* + qbar z G1."""
    if not (isinstance(triple.w1, LiftOperator) and isinstance(triple.w2, LiftOperator)):
        raise NotModelFormError("expected a pseudo triple in block form (LiftOperator)")
    rep = Report("taylor-rigidity", {"trunc": triple.trunc, "tol": tol})
    q, n = triple.q, triple.trunc
    fund = PairAnalysis.of(pair).fundamental
    sym1, res1 = _read_symbol(triple.w1.symbol, q, n)
    sym2, res2 = _read_symbol(triple.w2.symbol, np.conj(q), n)
    rep.check("reconstruct-1", "W1 Hardy block is a degree-1 twisted multiplier",
              res1, tol)
    rep.check("reconstruct-2", "W2 Hardy block is a degree-1 twisted multiplier",
              res2, tol)
    rep.require("degree-1", "extracted symbols have degree <= 1",
                len(sym1) == len(sym2) == 2)
    (a0, a1, *_), (b0, b1, *_) = sym1, sym2
    r = max(frob(a0 - adj(fund.g1)), frob(a1 - fund.g2),
            frob(b0 - adj(fund.g2)), frob(b1 - np.conj(q) * fund.g1))
    rep.check("match-fundamental", "Taylor coefficients reproduce (G1, G2)",
              r, tol)
    rep.check("linear-pencil", "phi_{1,0} = qbar phi_{2,1}*",
              frob(a0 - np.conj(q) * adj(b1)), tol)
    return rep


def _read_symbol(sym: TwistedSymbol, base: complex, n: int, tol: float = 1e-10):
    """`hardy.extract_symbol` of A = M_phi R_rot on TruncHardy(N), an
    operator in the base-commutant of the shift, in closed form: the Taylor
    coefficients it keeps (padded to two) and its reconstruction residual.
    With d = |rot - base| the precondition is d (sum_k (N-k) ||phi_k||^2)^(1/2);
    on the columns j <= N - p, |rot^j - base^j| <= j d, and a dropped phi_k
    fills N - k + 1 of them."""
    sq = np.array([float(np.vdot(c, c).real) for c in sym.coeffs])
    d, degrees = abs(sym.rot - base), np.arange(sym.degree + 1)
    columns = sum(np.sum(np.abs(c) ** 2, axis=0) for c in sym.coeffs)
    gate = tol * max(1.0, float(np.sqrt(columns.max(initial=0.0))))
    pre = d * np.sqrt(sq @ np.maximum(n - degrees, 0))
    if pre > gate:
        raise NotQCommutantError(f"||A Mz - q Mz A||_F = {pre:.3e} on degrees <= {n - 1}")
    p = max((k for k in degrees[1:] if np.sqrt(sq[k]) > gate), default=0)
    top = n - p
    resid = np.sqrt(d ** 2 * sq[:p + 1].sum() * top * (top + 1) * (2 * top + 1) / 6
                    + sq[p + 1:] @ (n + 1 - degrees[p + 1:]))
    return sym.coeffs[:p + 1] + (np.zeros_like(sym.coeffs[0]),) * (1 - p), float(resid)
