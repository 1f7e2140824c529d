"""Pseudo q-commuting contractive triples and the Douglas-model pseudo lift.

A pseudo triple (W1, W2, W) has contractive W1, W2, isometric W, with
W1 W = q W W1, W2 W = qbar W W2 and W1 = qbar W2* W.  Its operators are
`lifts.LiftOperator`s on TruncHardy (+) tail, checked from their blocks.  Over
the Douglas embedding these axioms are rigid: the Hardy blocks must be the
degree-one multipliers built from the fundamental operators.  Violating
candidates (`perturbed_triple` bumps W1's symbol) are rejected by the axiom
checks, so equality with the model triple is the only way to pass over a fixed
embedding.  The Douglas pseudo lift itself is built in `lifts`, next to the
Douglas lift.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import NotQCommutantError
from .hardy import TwistedSymbol
from .lifts import (
    PseudoTriple,
    commutator_residual,
    douglas_pseudo_lift,
    interior_frob,
    interior_opnorm,
    intertwining_residual,
    isometry_residual,
    orbit_dimension,
    pseudo_intertwining,
)
from .matcore import adj, frob, opnorm
from .model import PairAnalysis
from .qpair import QPair
from .report import Report


def is_pseudo_triple(triple: PseudoTriple) -> Report:
    """Per-axiom residuals of the pseudo-triple conditions, each gated at the
    fixed 1e-9.

    Degree budgets: contractivity and the linear axiom consume one degree,
    the two twisted commutations consume two.  Contractivity gates the
    spectral norms ||W_i|| themselves; the identity residuals are gated on
    their Frobenius norm, which is never below the spectral one.  All of
    them come from the symbol blocks (`lifts.interior_frob`,
    `lifts.interior_opnorm`), and contractivity reads the norm of the
    untruncated operator from above: on the Hardy part, the certified upper
    bound for ||phi||_inf of `hardy.symbol_norm`, which no finite section
    exceeds.  A symbol of norm exactly 1 reads about 2e-12 there.
    """
    tol = 1e-9
    rep = Report("pseudo-triple", {"trunc": triple.trunc, "tol": tol})
    q, w1, w2, w = triple.q, triple.w1, triple.w2, triple.w
    rep.check("axiom-i-contractions", "||W1||, ||W2|| <= 1",
              max(0.0, max(interior_opnorm(w1), interior_opnorm(w2)) - 1.0), tol)
    rep.check("axiom-i-isometry", "W*W = I on degrees <= N-1", isometry_residual(w), tol)
    rep.check("axiom-ii-w1", "W1 W = q W W1 on degrees <= N-2",
              commutator_residual(w1, w, q), tol)
    rep.check("axiom-ii-w2", "W2 W = qbar W W2 on degrees <= N-2",
              commutator_residual(w2, w, np.conj(q)), tol)
    rep.check("axiom-iii", "W1 = qbar W2* W on degrees <= N-1",
              interior_frob(1, (1.0, w1), (-np.conj(q), w2, w)), tol)
    return rep


def is_pseudo_lift(pi: np.ndarray, triple: PseudoTriple, pair: PairAnalysis | QPair) -> Report:
    """Lift intertwinings plus minimality of (Pi, W).  The intertwinings are
    read on the rows where W_i* Pi reads only blocks of Pi that exist
    (`lifts.intertwining_residual`), where they hold exactly, and are gated
    at the fixed 1e-9; on the analysis' cached Douglas pseudo lift, W1's and
    W2's are the residuals the douglas suite reports too
    (`lifts.pseudo_intertwining`).  The orbit dimension of W on Pi, proved
    from the block shapes by `lifts.orbit_dimension`, must be the whole lift
    space, (N+1) dim ran D_{T*} + dim ran Q, the minimal dilation space."""
    an = PairAnalysis.of(pair)
    tol = 1e-9
    rep = Report("pseudo-lift", {"trunc": triple.trunc, "tol": tol})
    rep.check("lift-w1", "W1* Pi = Pi T1*", pseudo_intertwining(an, pi, triple, 1), tol)
    rep.check("lift-w2", "W2* Pi = Pi T2*", pseudo_intertwining(an, pi, triple, 2), tol)
    rep.check("lift-w", "W* Pi = Pi T*", intertwining_residual(triple.w, pi, an.product), tol)
    proof = orbit_dimension(triple.w, pi)
    rep.environment.update(proof.environment())
    full = triple.space.total_dim
    rep.require("minimality", "span{W^n Ran Pi} is the whole lift space",
                proof.dim == full, note=proof.note(f"space {full}"))
    return rep


def uniqueness_test(pair: QPair, candidate: PseudoTriple) -> Report:
    """Compare a candidate pseudo lift over the Douglas data with the model one.

    The candidate must share the Douglas isometry (W = V_D up to degree
    budget); on a pass, block rigidity forces (W1, W2) = (W1_D, W2_D), checked on
    the interior block from the blocks.  A candidate on another space than the
    pair's Douglas space raises DimensionMismatchError at its first residual.
    """
    tol = 1e-9
    an = PairAnalysis.of(pair)
    pi_d, ref = douglas_pseudo_lift(an, candidate.trunc)
    rep = Report("pseudo-uniqueness", {"trunc": candidate.trunc, "tol": tol})
    same_w = rep.check("same-douglas-isometry", "candidate W equals V_D",
                       interior_frob(1, (1.0, candidate.w), (-1.0, ref.w)), tol)
    axioms = is_pseudo_triple(candidate)
    rep.merge(axioms, prefix="candidate-")
    lift_rep = is_pseudo_lift(pi_d, candidate, an)
    rep.merge(lift_rep, prefix="candidate-")
    if same_w and axioms.overall and lift_rep.overall:
        rep.check("uniqueness-w1", "W1 = W1_D on degrees <= N-1",
                  interior_frob(1, (1.0, candidate.w1), (-1.0, ref.w1)), tol)
        rep.check("uniqueness-w2", "W2 = W2_D on degrees <= N-1",
                  interior_frob(1, (1.0, candidate.w2), (-1.0, ref.w2)), tol)
    else:
        rep.skip("uniqueness-equality", "(W1,W2) = (W1_D,W2_D)",
                 note="candidate failed the pseudo-lift preconditions; "
                      "uniqueness is vacuous")
    return rep


def perturbed_triple(triple: PseudoTriple, eps: float, seed: int = 0) -> PseudoTriple:
    """Add a random block of spectral norm eps to W1's degree-0 symbol
    coefficient, or to W1's tail when the Hardy part is empty (rigidity
    probe)."""
    rng = np.random.default_rng(seed)
    w1 = triple.w1
    on_hardy = triple.space.hardy.total_dim > 0
    shape = w1.symbol.coeffs[0].shape if on_hardy else w1.tail.shape
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    block *= eps / opnorm(block)
    if on_hardy:
        sym = w1.symbol
        w1 = replace(w1, symbol=TwistedSymbol(sym.rot, (sym.coeffs[0] + block, *sym.coeffs[1:])))
    else:
        w1 = replace(w1, tail=w1.tail + block)
    return replace(triple, w1=w1)


def taylor_rigidity(triple: PseudoTriple, pair: PairAnalysis | QPair) -> Report:
    """Read the Hardy-block symbols of a passing triple and match them to
    the fundamental operators: phi1 = G1* + z G2, phi2 = G2* + qbar z G1.
    Every residual is gated at the fixed 1e-9."""
    tol = 1e-9
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


def _read_symbol(sym: TwistedSymbol, base: complex, n: int):
    """`hardy.extract_symbol` of A = M_phi R_rot on TruncHardy(N), an
    operator in the base-commutant of the shift, in closed form: the Taylor
    coefficients it keeps (padded to two) and its reconstruction residual.
    With d = |rot - base| the precondition is d (sum_k (N-k) ||phi_k||^2)^(1/2);
    on the columns j <= N - p, |rot^j - base^j| <= j d, and a dropped phi_k
    fills N - k + 1 of them."""
    sq = np.array([float(np.vdot(c, c).real) for c in sym.coeffs])
    d, degrees = abs(sym.rot - base), np.arange(sym.degree + 1)
    columns = sum(np.sum(np.abs(c) ** 2, axis=0) for c in sym.coeffs)
    gate = 1e-10 * max(1.0, float(np.sqrt(columns.max(initial=0.0))))
    pre = d * np.sqrt(sq @ np.maximum(n - degrees, 0))
    if pre > gate:
        raise NotQCommutantError(f"||A Mz - q Mz A||_F = {pre:.3e} on degrees <= {n - 1}")
    p = max((k for k in degrees[1:] if np.sqrt(sq[k]) > gate), default=0)
    top = n - p
    resid = np.sqrt(d ** 2 * sq[:p + 1].sum() * top * (top + 1) * (2 * top + 1) / 6
                    + sq[p + 1:] @ (n + 1 - degrees[p + 1:]))
    return sym.coeffs[:p + 1] + (np.zeros_like(sym.coeffs[0]),) * (1 - p), float(resid)
