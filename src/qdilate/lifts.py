"""Isometric-lift constructions and verification under the truncation contract.

Two models are built at finite Hardy truncation N:

* the inclusion-type lift on H (+) TruncHardy(F): block lower triangular,
  heads (T1, T2), twisted multipliers on the Hardy part and one constant
  column injecting the defect data;
* the Douglas-type lift on TruncHardy(F_*) (+) ran Q_{T*}: block diagonal
  multipliers plus the canonical unitary pair on the tail, with the
  observability column as the embedding.

The Douglas pseudo lift, the same model written with the fundamental
operators over ran D_{T*}, is built here too: it is the G-form against which
the Douglas lift's intertwinings are checked.  Per-pair objects (tuples,
fundamental and canonical pairs) come from the pair's `model.PairAnalysis`.

Every verified identity carries a degree budget: an identity whose sides have
maximal z-degree d is asserted on inputs of degree <= N - d only, where it
holds exactly.  The intertwinings V* Pi = Pi T* are read on the rows where
V* Pi reads only blocks of Pi that exist: the head, the Hardy degrees
<= N - deg phi and the tail, where they hold exactly at every N.

The builders return each lift and pseudo-lift operator in block form, a
`LiftOperator`: a head, a column polynomial, one twisted symbol and a tail.
Its residuals are computed from those dim-sized blocks, with closed-form
counts of the interior columns, and its norm from the symbol's sup norm on
the circle, so their cost does not depend on N; the embeddings Pi are dense
D x dim columns, and V* Pi is applied block by block on its kept rows.  The
extraction checks read the blocks too: the type is the model form.
`LiftOperator` is the only lift-space operator type: a realization or triple
built from anything else raises NotModelFormError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, zip_longest

import numpy as np

from . import hardy, matcore, model
from .ando import AndoTuple
from .errors import DimensionMismatchError, GeneratorError, NotModelFormError
from .hardy import (
    TruncHardy,
    TwistedSymbol,
    gram_coeff,
    materialize,
    shift_symbol,
    symbol_compose,
    unit,
)
from .matcore import adj, eye, frob, opnorm
from .model import CanonicalUnitaryPair, PairAnalysis
from .qpair import QPair
from .report import Report


@dataclass(frozen=True)
class LiftSpace:
    """H (+) TruncHardy (+) unitary tail, in that order."""

    head_dim: int
    hardy: TruncHardy
    tail_dim: int

    @property
    def total_dim(self) -> int:
        return self.head_dim + self.hardy.total_dim + self.tail_dim

    @property
    def tail_start(self) -> int:
        return self.head_dim + self.hardy.total_dim


@dataclass(frozen=True, eq=False)
class LiftOperator:
    """[[A, 0, 0], [C, M_phi R_rot, 0], [0, 0, W]] on head (+) TruncHardy(f, N)
    (+) tail, in block form.

    `column` holds C(z) = sum_i z^i C_i, from the head into the Hardy part;
    every scalar factor is folded into the symbol's coefficients.  Symbol and
    column have degree <= N, so the matrix drops nothing: block (j+k, j) of
    the Hardy part is rot^j phi_k, as in `hardy.materialize`.
    """

    space: LiftSpace
    head: np.ndarray
    column: tuple
    symbol: TwistedSymbol
    tail: np.ndarray

    def __post_init__(self):
        n = self.space.hardy.max_degree
        degree = max(self.symbol.degree, len(self.column) - 1)
        if degree > n:
            raise DimensionMismatchError(f"truncation {n} below symbol degree {degree}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.space.total_dim, self.space.total_dim)

    def __matmul__(self, other):
        """The product by symbol compositions, cut at N: the column of V1 V2 is
        C1 A2 + M_phi1 R C2, the second term phi1 composed with C2(z)."""
        if not isinstance(other, LiftOperator):
            return NotImplemented
        _require_blocks(self, other)
        n = self.space.hardy.max_degree
        sym = symbol_compose(self.symbol, other.symbol)
        if sym.degree > n:
            sym = TwistedSymbol(sym.rot, sym.coeffs[:n + 1])
        column = [c @ other.head for c in self.column]
        if other.column:
            moved = symbol_compose(self.symbol, TwistedSymbol(1.0, other.column)).coeffs
            column = [a + b for a, b in zip_longest(column, moved[:n + 1], fillvalue=0.0)]
        return LiftOperator(self.space, self.head @ other.head, tuple(column), sym,
                            self.tail @ other.tail)


_EMPTY = np.zeros((0, 0), dtype=np.complex128)


def _diagonal(space: LiftSpace, sym: TwistedSymbol, tail: np.ndarray) -> LiftOperator:
    """The Hardy part M_phi R (+) the unitary tail, on a space without a head."""
    return LiftOperator(space, _EMPTY, (), sym, tail)


def _require_blocks(*ops) -> LiftSpace:
    """The one lift space of `ops`: NotModelFormError unless each is a
    LiftOperator, DimensionMismatchError unless they share a space."""
    if not all(isinstance(op, LiftOperator) for op in ops):
        raise NotModelFormError("expected lift-space operators in block form (LiftOperator)")
    spaces = {op.space for op in ops}
    if len(spaces) > 1:
        raise DimensionMismatchError(f"lift-space operators on different spaces: {spaces}")
    return spaces.pop()


@dataclass(frozen=True)
class LiftRealization:
    kind: str
    pi: np.ndarray
    v1: LiftOperator
    v2: LiftOperator
    reachable_dim: int     # dimension of the minimal dilation space at N
    canonical: CanonicalUnitaryPair | None = None

    def __post_init__(self):
        _require_blocks(self.v1, self.v2)

    @property
    def space(self) -> LiftSpace:
        return self.v1.space

    @property
    def trunc(self) -> int:
        return self.space.hardy.max_degree

    @cached_property
    def product(self) -> LiftOperator:
        """V = V1 V2, formed once for the axiom checks and the minimality
        proof."""
        return self.v1 @ self.v2


@dataclass(frozen=True)
class PseudoTriple:
    """(W1, W2, W) on TruncHardy (+) tail, the Douglas form: no head."""

    q: complex
    w1: LiftOperator
    w2: LiftOperator
    w: LiftOperator

    def __post_init__(self):
        if _require_blocks(self.w1, self.w2, self.w).head_dim:
            raise NotModelFormError("a pseudo triple has no head (the Douglas form)")

    @property
    def space(self) -> LiftSpace:
        return self.w.space

    @property
    def trunc(self) -> int:
        return self.space.hardy.max_degree


def schaffer_lift(pair: QPair, tup: AndoTuple, n: int = hardy.DEFAULT_TRUNC) -> LiftRealization:
    """Inclusion-type lift on H (+) TruncHardy(F).

    V1 = [[T1, 0], [E0 PU Lambda D_T, q M_{((I-P)+zP)U} R_q]],
    V2 = [[T2, 0], [qbar E0 U*(I-P) Lambda D_T, qbar R_qbar M_{U*(P+z(I-P))}]],
    E0 the embedding of the constants.
    """
    q = pair.q
    f = tup.f_dim
    h_dim = pair.dim
    space = LiftSpace(h_dim, TruncHardy(f, n), 0)
    p, u = tup.p, tup.u
    p_perp = eye(f) - p
    ell = tup.lam_dt()

    def assemble(head, const, scalar, sym):
        coeffs = tuple(scalar * c for c in sym.coeffs)
        return LiftOperator(space, head, (const,), TwistedSymbol(sym.rot, coeffs), _EMPTY)

    sym1, sym2 = model.model_symbols(q, adj(p_perp @ u), p @ u)
    v1 = assemble(pair.t1, p @ u @ ell, q, sym1)
    v2 = assemble(pair.t2, np.conj(q) * (adj(u) @ p_perp @ ell), np.conj(q), sym2)
    pi = np.zeros((space.total_dim, h_dim), dtype=np.complex128)
    pi[:h_dim] = eye(h_dim)
    return LiftRealization("schaffer", pi, v1, v2, h_dim + (n + 1) * tup.dt_dim)


def douglas_lift(pair: PairAnalysis | QPair,
                 n: int = hardy.DEFAULT_TRUNC) -> LiftRealization:
    """Douglas-type lift on TruncHardy(F_*) (+) ran Q_{T*}, from the starred
    tuple (Lambda_*, P_*, U_*).

    V1 = M_{U_**((I-P_*)+zP_*)}R_q (+) W1, V2 = R_qbar M_{(P_*+z(I-P_*))U_*} (+) W2;
    the embedding stacks the observability column of the pseudo lift,
    dressed by Lambda_* one degree block at a time, on the Q_{T*}-coordinates.
    """
    an = PairAnalysis.of(pair)
    q = an.pair.q
    star_tup, cp = an.star, an.canonical
    space = LiftSpace(0, TruncHardy(star_tup.f_dim, n), cp.dim)

    p_perp = eye(star_tup.f_dim) - star_tup.p
    sym1, sym2 = model.model_symbols(q, p_perp @ star_tup.u, adj(star_tup.u) @ star_tup.p)
    v1 = _diagonal(space, sym1, cp.w1)
    v2 = _diagonal(space, sym2, cp.w2)

    pi_d, _ = douglas_pseudo_lift(an, n)
    k = (n + 1) * an.dstar.dim
    dressed = star_tup.lam @ pi_d[:k].reshape(n + 1, an.dstar.dim, an.pair.dim)
    pi = np.vstack([dressed.reshape(-1, an.pair.dim), pi_d[k:]])
    return LiftRealization("douglas", pi, v1, v2, (n + 1) * an.dstar.dim + cp.dim, cp)


def douglas_pseudo_lift(pair: PairAnalysis | QPair, n: int = hardy.DEFAULT_TRUNC):
    """The pseudo lift over the Douglas embedding; returns (pi, PseudoTriple).

    W1 = M_{G1*+zG2}R_q (+) W1^c, W2 = R_qbar M_{G2*+zG1} (+) W2^c,
    W = M_z (+) W_D on TruncHardy(ran D_{T*}) (+) ran Q_{T*}; pi stacks the
    observability column on the Q_{T*}-coordinates.  Cached per analysis and N,
    with its intertwining residuals (`pseudo_intertwining`).
    """
    an = PairAnalysis.of(pair)
    if n in an.pseudo_lifts:
        return an.pseudo_lifts[n][:2]
    q = an.pair.q
    fund, cp = an.fundamental, an.canonical
    dstar = an.dstar
    space = LiftSpace(0, TruncHardy(dstar.dim, n), cp.dim)
    sym1, sym2 = model.model_symbols(q, fund.g1, fund.g2)
    w1 = _diagonal(space, sym1, cp.w1)
    w2 = _diagonal(space, sym2, cp.w2)
    w = _diagonal(space, shift_symbol(dstar.dim), cp.wd)
    obs = hardy.obs_op(an.product, dstar, n).matrix
    pi = np.vstack([obs, cp.coords()])
    an.pseudo_lifts[n] = pi, PseudoTriple(q, w1, w2, w), {}
    return an.pseudo_lifts[n][:2]


def pseudo_intertwining(an: PairAnalysis, pi: np.ndarray, triple: PseudoTriple, i: int) -> float:
    """`intertwining_residual(W_i, Pi, T_i)` of a pseudo lift (Pi, triple) of
    the analysis' pair, i = 1 or 2.  The douglas suite (gform-intertwine-i)
    and the pseudo suite (lift-lift-wi) both check the cached Douglas pseudo
    lift of N: on it the residual is computed once and kept in its cache."""
    w, t = (triple.w1, an.pair.t1) if i == 1 else (triple.w2, an.pair.t2)
    entry = an.pseudo_lifts.get(triple.trunc)
    if entry is None or entry[0] is not pi or entry[1] is not triple:
        return intertwining_residual(w, pi, t)
    done = entry[2]
    if i not in done:
        done[i] = intertwining_residual(w, pi, t)
    return done[i]


# -- residuals ---------------------------------------------------------------
# Each takes LiftOperators through their blocks, on the one space they share;
# interior(d) stands for the columns of head (+) degrees <= N-d (+) tail.


def _sq(a: np.ndarray) -> float:
    """||a||_F^2."""
    return float(np.vdot(a, a).real)


def interior_frob(d: int, *terms) -> float:
    """||(sum of terms)[:, interior(d)]||_F from the blocks of LiftOperators
    on one space: a term (c, X) stands for c X, a term (c, X, Y) for c X* Y.

    With r^j from `hardy.phases`, Hardy column j of c X holds r_X^j c phi_k in
    the rows of degree j + k; that of c X* Y holds c r_Y^j conj(r_X)^l
    gram_coeff(phi_X, phi_Y, l - j) in the rows of degree l, and c r_Y^j
    sum_k C_{X,j+k}* phi_{Y,k} in the head rows.  Away from degree 0 (top rows
    cut off, head rows) and degree N (coefficients cut off) a column's norm
    does not depend on j when the terms share one rotation (r_X, or
    r_Y conj(r_X), on the circle): those columns count as one column times
    their number.  Otherwise every column is summed.
    """
    space = _require_blocks(*(op for _, *ops in terms for op in ops))
    n, f, h = space.hardy.max_degree, space.hardy.fiber_dim, space.head_dim
    last = n - d
    head = np.zeros((h, h), dtype=np.complex128)
    below = {}             # Hardy degree -> rows of the head columns
    tail = np.zeros((space.tail_dim,) * 2, dtype=np.complex128)
    lo = hi = 0
    rotations = set()
    for c, x, *y in terms:
        sx = x.symbol
        if not y:
            head += c * x.head
            for i, ci in enumerate(x.column):
                below[i] = below.get(i, 0.0) + c * ci
            tail += c * x.tail
            hi = max(hi, sx.degree)
            rot = sx.rot
        else:
            y = y[0]
            sy = y.symbol
            head += c * (adj(x.head) @ y.head)
            for a, b in zip(x.column, y.column):
                head += c * (adj(a) @ b)
            for i in range(len(y.column)):
                acc = sum(adj(sx.coeffs[k]) @ y.column[i + k]
                          for k in range(min(sx.degree, len(y.column) - 1 - i) + 1))
                below[i] = below.get(i, 0.0) + c * hardy.phases(sx.rot.conjugate(), n)[i] * acc
            tail += c * (adj(x.tail) @ y.tail)
            lo = max(lo, sx.degree, len(x.column))
            hi = max(hi, sy.degree)
            rot = sy.rot * sx.rot.conjugate()
        rotations.add(unit(rot))

    def column_sq(j: int) -> float:
        rows = {}
        top = np.zeros((h, f), dtype=np.complex128)
        for c, x, *y in terms:
            sx = x.symbol
            if not y:
                ph = c * hardy.phases(sx.rot, n)[j]
                for s in range(min(sx.degree, n - j) + 1):
                    rows[s] = rows.get(s, 0.0) + ph * sx.coeffs[s]
                continue
            sy = y[0].symbol
            ph, px = c * hardy.phases(sy.rot, n)[j], hardy.phases(sx.rot.conjugate(), n)
            for s in range(-min(j, sx.degree), min(sy.degree, n - j) + 1):
                rows[s] = rows.get(s, 0.0) + (ph * px[j + s]
                                              * gram_coeff(sx, sy, s, n - j))
            for k in range(min(sy.degree, len(x.column) - 1 - j, n - j) + 1):
                top += ph * (adj(x.column[j + k]) @ sy.coeffs[k])
        return sum(_sq(b) for b in rows.values()) + _sq(top)

    total = _sq(head) + sum(_sq(b) for b in below.values()) + _sq(tail)
    if len(rotations) > 1:
        return float(np.sqrt(total + sum(column_sq(j) for j in range(last + 1))))
    count = min(last, n - hi) - lo + 1
    edges = chain(range(min(lo, last + 1)), range(max(lo, n - hi + 1), last + 1))
    total += sum(column_sq(j) for j in edges)
    if count > 0:
        total += count * column_sq(lo)
    return float(np.sqrt(total))


def isometry_residual(v: LiftOperator) -> float:
    """||(V*V - I)[:, interior(1)]||_F: the Laurent sums of the symbol
    (`hardy.symbol_is_inner`) plus the head and column terms."""
    space = v.space
    ident = LiftOperator(space, eye(space.head_dim), (),
                         TwistedSymbol(1.0, (eye(space.hardy.fiber_dim),)), eye(space.tail_dim))
    return interior_frob(1, (1.0, v, v), (-1.0, ident))


def commutator_residual(x: LiftOperator, y: LiftOperator, c: complex) -> float:
    """||(X Y - c Y X)[:, interior(2)]||_F."""
    return interior_frob(2, (1.0, x @ y), (-c, y @ x))


def intertwining_residual(v: LiftOperator, pi: np.ndarray, t: np.ndarray) -> float:
    """||(V* Pi - Pi T*)[rows]||_2 on the rows where V* Pi reads only blocks
    of Pi that exist: the head, the Hardy degrees l <= N - deg phi and the
    tail.  With Pi_i the degree blocks of Pi, Hardy row l of V* Pi is
    conj(rot)^l sum_k phi_k* Pi_{l+k}, and the head row
    A* Pi_head + sum_i C_i* Pi_i.  A Pi whose rows are not V's space, or a
    T that is not square of Pi's column count, raises DimensionMismatchError."""
    space, sym = v.space, v.symbol
    if pi.shape[0] != space.total_dim or t.shape != (pi.shape[1],) * 2:
        raise DimensionMismatchError(
            f"Pi is {pi.shape[0]} x {pi.shape[1]} and T {t.shape[0]} x {t.shape[1]}, "
            f"the lift space {space.total_dim}")
    h, ts, n, f = space.head_dim, space.tail_start, space.hardy.max_degree, sym.fiber_in
    k, kept = pi.shape[1], n + 1 - sym.degree
    blocks = pi[h:ts].reshape(n + 1, f, k)
    tstar = adj(t)
    hardy_rows = sum(adj(phi) @ blocks[s:s + kept] for s, phi in enumerate(sym.coeffs))
    hardy_rows = (hardy_rows * hardy.phases(sym.rot.conjugate(), n)[:kept, None, None]
                  - blocks[:kept] @ tstar)
    head = adj(v.head) @ pi[:h] - pi[:h] @ tstar
    for i, ci in enumerate(v.column):
        head += adj(ci) @ blocks[i]
    tail = adj(v.tail) @ pi[ts:] - pi[ts:] @ tstar
    return opnorm(np.vstack([head, hardy_rows.reshape(-1, k), tail]))


def interior_opnorm(v: LiftOperator, d: int = 1) -> float:
    """An upper bound for ||V[:, interior(d)]||_2 of an operator without a
    head (a pseudo triple's), read on the untruncated operator: the larger
    of the tail's norm (an SVD) and the certified upper bound of
    ||phi||_inf = ||M_phi R_rot|| on the whole Hardy space that
    `hardy.symbol_norm` returns, which is at least the norm of every finite
    section and costs the same at every N.  With no interior Hardy column
    (N < d) it is the tail's norm alone.
    """
    tail = opnorm(v.tail)
    if v.space.hardy.max_degree < d:
        return tail
    return max(tail, hardy.symbol_norm(v.symbol))


def verify_lift(lift: LiftRealization, pair: PairAnalysis | QPair) -> Report:
    """Residuals of the lift axioms under the degree-budget contract.

    Isometry uses budget 1, q-commutation budget 2, and the intertwinings
    V_i* Pi = Pi T_i* are read on the rows where V_i* Pi reads only blocks of
    Pi that exist (`intertwining_residual`), where they hold exactly: at 1e-11
    for the inclusion-type lift, 1e-9 for Douglas.  For Douglas the
    intertwinings of the plain observability embedding against the
    fundamental-operator multipliers (the Douglas pseudo lift) are checked
    as well.  The lift-space identity residuals (isometry, q-commutation,
    product structure) are gated on their Frobenius norm, which is never
    below the spectral one; the dense intertwinings on the spectral norm.
    """
    an = PairAnalysis.of(pair)
    pair, t = an.pair, an.product
    q = pair.q
    n = lift.trunc
    tol = 1e-10
    rep = Report(f"lift-{lift.kind}", {"trunc": n, "tol": tol})

    int_tol = 1e-11 if lift.kind == "schaffer" else 1e-9
    v1, v2 = lift.v1, lift.v2
    for name, v, t_i in (("v1", v1, pair.t1), ("v2", v2, pair.t2)):
        rep.check(f"intertwine-{name}", f"V{name[-1]}* Pi = Pi T{name[-1]}*",
                  intertwining_residual(v, lift.pi, t_i), int_tol)
    for name, v in (("v1", v1), ("v2", v2)):
        rep.check(f"isometry-{name}", f"{name}*{name} = I on degrees <= N-1",
                  isometry_residual(v), tol)
    v12 = lift.product
    rep.check("q-commute", "V1 V2 = q V2 V1 on degrees <= N-2",
              interior_frob(2, (1.0, v12), (-q, v2 @ v1)), tol)

    if lift.kind == "schaffer":
        rep.check("pi-isometry", "Pi*Pi = I (inclusion)",
                  frob(adj(lift.pi) @ lift.pi - eye(pair.dim)), 1e-12)
    if lift.kind == "douglas":
        cp = lift.canonical
        qq = cp.q_op @ cp.q_op
        tp = np.linalg.matrix_power(t, n + 1)
        gram_target = eye(pair.dim) - tp @ adj(tp) + qq
        rep.check("pi-energy",
                  "Pi*Pi = I - T^{N+1}T*^{N+1} + Q^2 (exact finite-N identity)",
                  frob(adj(lift.pi) @ lift.pi - gram_target), 1e-11)
        vd = _diagonal(lift.space, shift_symbol(lift.space.hardy.fiber_dim), cp.wd)
        rep.check("product-structure", "V1 V2 = M_z (+) W_D on degrees <= N-2",
                  interior_frob(2, (1.0, v12), (-1.0, vd)), tol)
        pi_d, gform = douglas_pseudo_lift(an, n)
        rep.check("gform-intertwine-1", "(M_{G1*+zG2}R_q (+) W1)* Pi_D = Pi_D T1*",
                  pseudo_intertwining(an, pi_d, gform, 1), int_tol)
        rep.check("gform-intertwine-2", "(R_qbar M_{G2*+zG1} (+) W2)* Pi_D = Pi_D T2*",
                  pseudo_intertwining(an, pi_d, gform, 2), int_tol)
    return rep


# Frobenius tolerance of the block-shape residuals of the minimality proof
SHAPE_TOL = 1e-10
# absolute cutoff of the ranks of the minimality proof, on the blocks of
# Pi / ||Pi||_2 and on the constant column C_0
RANK_TOL = 1e-8


@dataclass(frozen=True)
class OrbitProof:
    """dim span{V^k Pi h : k >= 0, h in H}, decided from the block shapes of
    V and Pi (`orbit_dimension`); `dim` is None when a shape condition fails,
    and `failure` then says which."""

    dim: int | None
    shape_residual: float
    ranks: dict            # block name -> (rank, smallest kept, largest dropped sigma)
    failure: str = ""

    def note(self, sizes: str) -> str:
        """"orbit <dim>, <sizes>", then the failure and the rank margins."""
        head = f"orbit {'undecided' if self.dim is None else self.dim}, {sizes}"
        parts = [head, self.failure] if self.failure else [head]
        parts += [f"rank {name} {r} (sigma kept {_sigma(kept)}, dropped {_sigma(dropped)})"
                  for name, (r, kept, dropped) in self.ranks.items()]
        return "; ".join(parts)

    def environment(self) -> dict:
        return {
            "orbit_rank": self.dim,
            "shape_residual": self.shape_residual,
            "rank_gaps": {name: {"rank": r, "kept_sigma": kept, "dropped_sigma": dropped}
                          for name, (r, kept, dropped) in self.ranks.items()},
        }


def _sigma(s: float | None) -> str:
    return "none" if s is None else f"{s:.3e}"


def _shape_residual(v: LiftOperator) -> float:
    """Frobenius distance, over all columns, of V from the block shape
    [[A, 0, 0], [E0 C, M_z, 0], [0, 0, W]] on head (+) TruncHardy(F, N) (+)
    tail, with A, the constant column C (degree 0 only) and W read from V:
    V's column above degree 0 is compared with 0, its symbol with z."""
    shape = LiftOperator(v.space, v.head, v.column[:1], shift_symbol(v.space.hardy.fiber_dim),
                         v.tail)
    return interior_frob(0, (1.0, v), (-1.0, shape))


def orbit_dimension(v: LiftOperator, pi: np.ndarray) -> OrbitProof:
    """Dimension of the orbit span{V^k Pi h}, proved from block shapes at
    dim-sized cost instead of grown on the lift space.

    V must have the shape of `_shape_residual`, within SHAPE_TOL.  Ranks are
    taken at the absolute RANK_TOL on blocks of Pi / ||Pi||_2 and on the
    constant column C_0 of V.
    * Inclusion form (a head): Pi = [P; 0; 0] with rank P = dim head.  The
      orbit is then head (+) span{z^j ran C_0 : j <= N}, of dimension
      dim head + (N+1) rank C_0.
    * Observability form (no head): W unitary, rank [Pi_0 | ... | Pi_N] =
      rank Pi_0 over the degree blocks, and tail rows of rank dim tail.
      Since W^(N+1) maps the tail onto itself while M_z^(N+1) = 0, the orbit
      is span{z^j ran Pi_0 : j <= N} (+) tail, of dimension
      (N+1) rank Pi_0 + dim tail.
    A zero Pi has the zero orbit.  If a shape condition fails, the dimension
    is left undecided.  A Pi whose rows are not V's space raises
    DimensionMismatchError.
    """
    space = v.space
    if pi.shape[0] != space.total_dim:
        raise DimensionMismatchError(
            f"Pi has {pi.shape[0]} rows, the lift space {space.total_dim}")
    res = _shape_residual(v)
    norm = np.linalg.norm(pi, 2) if pi.size else 0.0
    if norm == 0.0:
        return OrbitProof(0, res, {})
    if res > SHAPE_TOL:
        return OrbitProof(None, res, {}, f"block shape residual {res:.3e} > {SHAPE_TOL:g}")
    seed = pi / norm
    h, hd, tail = space.head_dim, space.hardy.total_dim, space.tail_dim
    f, n = space.hardy.fiber_dim, space.hardy.max_degree
    if h:
        c0 = v.column[0] if v.column else np.zeros((f, h), dtype=np.complex128)
        ranks = {"P": matcore.rank_gap(seed[:h], RANK_TOL),
                 "C0": matcore.rank_gap(c0, RANK_TOL)}
        below = frob(seed[h:])
        if below > SHAPE_TOL:
            failure = f"Pi shape residual below the head {below:.3e} > {SHAPE_TOL:g}"
        elif ranks["P"][0] < h:
            failure = f"rank P {ranks['P'][0]} < dim head {h}"
        else:
            return OrbitProof(h + (n + 1) * ranks["C0"][0], res, ranks)
        return OrbitProof(None, res, ranks, failure)
    k = pi.shape[1]
    blocks = seed[:hd].reshape(n + 1, f, k)
    ranks = {"Pi0": matcore.rank_gap(blocks[0], RANK_TOL),
             "Pi_0..N": matcore.rank_gap(blocks.transpose(1, 0, 2).reshape(f, (n + 1) * k),
                                         RANK_TOL),
             "Pi_tail": matcore.rank_gap(seed[hd:], RANK_TOL)}
    unitary = frob(adj(v.tail) @ v.tail - eye(tail))
    if unitary > SHAPE_TOL:
        failure = f"tail block unitarity residual {unitary:.3e} > {SHAPE_TOL:g}"
    elif ranks["Pi_0..N"][0] > ranks["Pi0"][0]:
        failure = (f"rank Pi_0..N {ranks['Pi_0..N'][0]} > rank Pi0 {ranks['Pi0'][0]}: "
                   "a degree block leaves ran Pi0")
    elif ranks["Pi_tail"][0] < tail:
        failure = f"rank Pi_tail {ranks['Pi_tail'][0]} < dim tail {tail}"
    else:
        return OrbitProof((n + 1) * ranks["Pi0"][0] + tail, res, ranks)
    return OrbitProof(None, res, ranks, failure)


def minimality_check(lift: LiftRealization) -> Report:
    """Orbit of V = V1 V2 on Pi against the minimal dilation space.

    A minimal lift reaches, at truncation N, a space of known dimension
    (`lift.reachable_dim`): dim H + (N+1) dim ran D_T for the inclusion-type
    lift, (N+1) dim ran D_{T*} + dim ran Q for the Douglas lift.  The orbit
    dimension of V on Pi, proved from the block shapes by `orbit_dimension`,
    must equal it; a shape that fails leaves it undecided, and the check
    fails.  The report carries the orbit dimension, the predicted one, the
    full space dimension (the unreachable truncation slice is the gap between
    the last two) and the singular-value margin of every rank it used.
    """
    proof = orbit_dimension(lift.product, lift.pi)
    rep = Report("minimality", {
        **proof.environment(),
        "reachable_dim": lift.reachable_dim,
        "space_dim": lift.space.total_dim,
        "rank_tol": RANK_TOL,
    })
    rep.require("rank-consistency",
                "orbit dimension of V on Pi equals the minimal dilation dimension",
                proof.dim == lift.reachable_dim,
                note=proof.note(f"predicted {lift.reachable_dim}, "
                                f"space {lift.space.total_dim}"))
    return rep


@dataclass(frozen=True)
class AndoFragments:
    """Defect data recovered from a lift in model form."""

    lam: np.ndarray        # Lambda in defect coordinates, F x dim(ran D_T)
    pul_dt: np.ndarray     # P U Lambda D_T : H -> F
    upl_dt: np.ndarray     # U*(I-P) Lambda D_T : H -> F


def extract_ando_from_lift(lift: LiftRealization, pair: PairAnalysis | QPair):
    """Recover (Lambda, PU Lambda D_T, U*(I-P) Lambda D_T) from a lift in
    inclusion model form, and verify their structural consistency.

    Returns (AndoFragments, Report).  Model form is the block form (no
    Hardy->head block) on H (+) TruncHardy, and the Hardy diagonal of
    V = V1 V2 (`LiftRealization.product`) is the shift (Frobenius norm on
    degrees <= N-1, from the blocks); else it raises NotModelFormError.  The column C of V then satisfies C*C = I - T*T and
    M_z*C = 0 and factors through an isometry Lambda; PU Lambda D_T and
    U*(I-P) Lambda D_T are the degree-0 columns of V1 and q V2.
    """
    tol = 1e-10
    an = PairAnalysis.of(pair)
    pair, t = an.pair, an.product
    space = lift.space
    if space.head_dim != pair.dim or space.tail_dim != 0:
        raise NotModelFormError("expected an inclusion-type lift layout")
    q, h_dim, f = pair.q, pair.dim, space.hardy.fiber_dim
    v = lift.product
    shifted = LiftOperator(space, v.head, v.column, shift_symbol(f), v.tail)
    diag_res = interior_frob(1, (1.0, v), (-1.0, shifted))
    if diag_res > tol:
        raise NotModelFormError(
            f"Hardy diagonal of V1 V2 is not the shift: Frobenius residual {diag_res:.3e}")
    zero = (np.zeros((f, h_dim), dtype=np.complex128),)
    c0, *higher = v.column or zero
    rep = Report("ando-extract", {"tol": tol})
    rep.check("mzstar-c", "M_z* C = 0 (C is a constant column)",
              opnorm(np.vstack(higher)) if higher else 0.0, tol)
    rep.check("c-defect", "C*C = I - T*T",
              frob(adj(c0) @ c0 - (eye(h_dim) - adj(t) @ t)), tol)

    x = an.dt.coords()
    lam_rec = c0 @ np.linalg.pinv(x)
    rep.check("lambda-isometry", "recovered Lambda is an isometry on ran D_T",
              frob(adj(lam_rec) @ lam_rec - eye(an.dt.dim)), tol)
    rep.check("lambda-consistency", "Lambda (ran D_T coords) reproduces C",
              frob(lam_rec @ x - c0), tol)

    a1, a2 = (lift.v1.column or zero)[0], q * (lift.v2.column or zero)[0]
    rep.check("frag-t1", "T1*T1 + (PUL)*(PUL) = I",
              frob(adj(pair.t1) @ pair.t1 + adj(a1) @ a1 - eye(h_dim)), tol)
    rep.check("frag-t2", "T2*T2 + (U*(I-P)L)*(U*(I-P)L) = I",
              frob(adj(pair.t2) @ pair.t2 + adj(a2) @ a2 - eye(h_dim)), tol)
    rest = c0 - a1 @ pair.t2
    rep.check("frag-third", "||U*(I-P)L h|| = ||(L - PUL T2) h|| for all h",
              frob(adj(a2) @ a2 - adj(rest) @ rest), tol)
    closed = rest @ pair.t1 + a1
    rep.check("frag-fourth", "||L h|| = ||((I-P)L T1 + PUL) h|| for all h",
              frob(adj(c0) @ c0 - adj(closed) @ closed), tol)
    return AndoFragments(lam_rec, a1, a2), rep


def _bidisk_ops(n: int, q: complex):
    """Shift and rotation matrices on the box-truncated two-variable space.

    Basis z1^a z2^b, 0 <= a, b <= n, index a*(n+1)+b; the rotation acts on
    the second variable, which is what makes (R_q M_{z1}, M_{z2}) q-commute.
    """
    shift, one = np.eye(n + 1, k=-1, dtype=np.complex128), eye(n + 1)
    return np.kron(shift, one), np.kron(one, shift), np.diag(np.tile(hardy.phases(q, n), n + 1))


def nonisolifts_fixture(n: int) -> Report:
    """Two minimal lifts of the zero pair on C that fail to be equivalent,
    at the twist q = e^i.

    Pair A = (R_q M_z, M_z) on truncated H^2(D); pair B = (R_q M_{z1}, M_{z2})
    on the box-truncated two-variable space, rotation on z2.  Both are
    q-commuting isometric lifts of (0, 0) and jointly minimal; the
    doubly-q-commuting discriminator ||V2 V1* - q V1* V2|| separates them.
    """
    if n < 2:
        raise GeneratorError("two-lifts fixture needs truncation >= 2")
    q = np.exp(1j)
    rep = Report("nonisolifts", {"trunc": n, "q": [float(np.real(q)), float(np.imag(q))]})

    hs = TruncHardy(1, n)
    one = np.eye(1, dtype=np.complex128)
    v1a = materialize(TwistedSymbol(q, (0 * one, q * one)), n).matrix
    v2a = materialize(shift_symbol(1), n).matrix
    pi_a = np.zeros((hs.total_dim, 1), dtype=np.complex128)
    pi_a[0, 0] = 1.0
    e1 = hs.low(n - 1)
    e2 = hs.low(n - 2)
    rep.check("a-q-commute", "pair A: V1 V2 = q V2 V1 on degrees <= N-2",
              opnorm((v1a @ v2a - q * v2a @ v1a)[:, e2]), 1e-12)
    rep.check("a-isometry", "pair A: V_i*V_i = I on degrees <= N-1",
              max(opnorm((adj(v1a) @ v1a - eye(hs.total_dim))[:, e1]),
                  opnorm((adj(v2a) @ v2a - eye(hs.total_dim))[:, e1])), 1e-12)
    rep.check("a-lift", "pair A lifts (0,0): V_i* Pi = 0",
              max(opnorm(adj(v1a) @ pi_a), opnorm(adj(v2a) @ pi_a)), 1e-12)
    rank_a = matcore.greedy_orbit_rank([v1a, v2a], pi_a)
    rep.require("a-minimal", "pair A joint orbit spans the whole space",
                rank_a == hs.total_dim, note=f"rank {rank_a} of {hs.total_dim}")
    disc_a = opnorm((v2a @ adj(v1a) - q * adj(v1a) @ v2a)[:, e1])
    rep.require("a-not-doubly", "pair A discriminator ||V2 V1* - q V1* V2|| > 0.5",
                disc_a > 0.5, note=f"discriminator {disc_a:.6f}")

    mz1, mz2, rot = _bidisk_ops(n, q)
    v1b = rot @ mz1
    v2b = mz2
    m = n + 1
    dim_b = m * m

    def box(a_max, b_max):
        """Indices of the monomials z1^a z2^b with a <= a_max, b <= b_max."""
        return [a * m + b for a in range(a_max + 1) for b in range(b_max + 1)]

    pi_b = np.zeros((dim_b, 1), dtype=np.complex128)
    pi_b[0, 0] = 1.0
    rep.check("b-q-commute", "pair B: V1 V2 = q V2 V1 on the interior box",
              opnorm((v1b @ v2b - q * v2b @ v1b)[:, box(n - 1, n - 1)]), 1e-12)
    rep.check("b-isometry", "pair B: V_i*V_i = I on the interior box",
              max(opnorm((adj(v1b) @ v1b - eye(dim_b))[:, box(n - 1, n)]),
                  opnorm((adj(v2b) @ v2b - eye(dim_b))[:, box(n, n - 1)])), 1e-12)
    rep.check("b-lift", "pair B lifts (0,0): V_i* Pi = 0",
              max(opnorm(adj(v1b) @ pi_b), opnorm(adj(v2b) @ pi_b)), 1e-12)
    rank_b = matcore.greedy_orbit_rank([v1b, v2b], pi_b)
    rep.require("b-minimal", "pair B joint orbit spans the whole space",
                rank_b == dim_b, note=f"rank {rank_b} of {dim_b}")
    disc_b = opnorm((v2b @ adj(v1b) - q * adj(v1b) @ v2b)[:, box(n, n - 1)])
    rep.check("b-doubly", "pair B discriminator vanishes (doubly q-commuting)",
              disc_b, 1e-12)
    rep.require("separation", "discriminators separated by a factor >= 1e10",
                disc_a >= 1e10 * max(disc_b, 1e-30),
                note=f"A {disc_a:.3e} vs B {disc_b:.3e}")
    return rep
