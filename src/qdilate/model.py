"""Fundamental operators, canonical unitary pair, characteristic triple,
functional-model compression, coincidence and admissibility checks.

Coordinate conventions: everything on the product defect spaces uses one
fixed basis per pair, held by the pair's `PairAnalysis`.  Its `dt` is
defect(T); its `dstar` is the product defect of the starred Andô tuple, which
equals D_{T*} exactly.  The fundamental operators, Theta, the Douglas lift,
the pseudo lift, the observability column Pi and the model compression all
read these from the one analysis, so basis freedom inside degenerate
eigenspaces cannot split them.  Q = (lim T^n T*^n)^{1/2} and ran Q, the unitary
part of T, are the analysis' one cnu split: the canonical pair, the triple's
||Q|| and the cnu tests all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hardy, matcore
from .ando import AndoTuple, DefectData, special_ando_tuple, star_ando_tuple
from .errors import (
    FundamentalEquationResidualError,
    NonUnitarySolutionError,
    NotCnuError,
    NotIntertwinerError,
    QDilateError,
    SingularResolventError,
)
from .hardy import TruncHardy, TwistedSymbol, gram_coeff, materialize
from .matcore import SubspaceBasis, adj, as_cmatrix, eye, frob, opnorm, stack_opnorms
from .qpair import ProductDecomposition, QPair, cnu_decompose
from .report import Report


@dataclass(frozen=True)
class FundamentalPair:
    """The unique solutions (G1, G2) on ran D_{T*} of
    D_{T*} G1 D_{T*} = T1* - T2 T*  and  D_{T*} G2 D_{T*} = T2* - q T1 T*,
    in the coordinates of `defect`."""

    g1: np.ndarray
    g2: np.ndarray
    defect: DefectData
    funeq_residual: float
    oracle_gap: float


@dataclass(frozen=True)
class CanonicalUnitaryPair:
    """q-commuting unitaries on ran Q_{T*} induced by W_i* Q = Q T_i*."""

    q: complex
    basis: SubspaceBasis
    w1: np.ndarray
    w2: np.ndarray
    wd: np.ndarray
    q_op: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.dim

    def coords(self) -> np.ndarray:
        """Map H -> ran Q coordinates, h |-> basis* Q h."""
        return adj(self.basis.columns) @ self.q_op


@dataclass(frozen=True)
class CharTriple:
    """Characteristic triple of a pair with cnu product.

    Only cnu products are covered (`char_triple` raises NotCnuError
    otherwise), so the unitary component has dimension 0; q_residual records
    ||Q_{T*}|| of the cnu split.  theta evaluates the characteristic function
    of the product in the shared defect bases.
    """

    q: complex
    fundamental: FundamentalPair
    unitary_dim: int
    q_residual: float
    theta: CharFn
    dt: DefectData
    dstar: DefectData
    product: np.ndarray

    def theta_coeffs(self, degree: int) -> list[np.ndarray]:
        """Taylor coefficients of Theta: Theta_0 = -T|, Theta_k = D_{T*}T*^{k-1}D_T|."""
        b_t, b_s = self.dt.basis.columns, self.dstar.basis.columns
        coeffs = [-adj(b_s) @ self.product @ b_t]
        block = self.dstar.operator
        t_star = adj(self.product)
        for _ in range(degree):
            coeffs.append(adj(b_s) @ block @ self.dt.operator @ b_t)
            block = block @ t_star
        return coeffs


class _cached:
    """Like functools.cached_property, but a build that raises a QDilateError
    is not retried: every later read re-raises the stored error."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        failed = obj.__dict__.setdefault("_failed", {})
        if self.name in failed:
            raise failed[self.name]
        try:
            value = self.build(obj)
        except QDilateError as exc:
            failed[self.name] = exc
            raise
        obj.__dict__[self.name] = value
        return value


@dataclass(eq=False)
class PairAnalysis:
    """The objects of one q-commuting pair: the product T, its defects dt and
    dstar, the cnu split, the forward and starred Andô tuples tup and star,
    and the fundamental and canonical pairs.  Each is built on first use and
    then shared by every suite and builder that reads it; a build that fails
    is not repeated, later reads raise the same error.

    It also keeps the Douglas pseudo lift of each N that the douglas and
    pseudo suites share (in block form, O(dim^2) per block, plus the dense
    D x dim embedding), with the W1 and W2 intertwining residuals that both
    suites report (`lifts.pseudo_intertwining`).  The functions that read
    these objects accept either a bare QPair or an analysis, through `of`.
    """

    pair: QPair
    pseudo_lifts: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, pair: PairAnalysis | QPair) -> PairAnalysis:
        """`pair` itself if it is an analysis, else a fresh analysis of it."""
        return pair if isinstance(pair, cls) else cls(pair)

    @_cached
    def product(self) -> np.ndarray:
        return self.pair.product()

    @_cached
    def dt(self) -> DefectData:
        return DefectData(*matcore.defect(self.product))

    @property
    def dstar(self) -> DefectData:
        """D_{T*}, in the basis carried by the starred tuple."""
        return self.star.defect_t

    @_cached
    def cnu(self) -> ProductDecomposition:
        return cnu_decompose(self.product)

    @_cached
    def tup(self) -> AndoTuple:
        return special_ando_tuple(self.pair, dt=self.dt)

    @_cached
    def star(self) -> AndoTuple:
        return star_ando_tuple(self.pair)

    @_cached
    def fundamental(self) -> FundamentalPair:
        return fundamental_ops(self)

    @_cached
    def canonical(self) -> CanonicalUnitaryPair:
        return canonical_unitary_pair(self)


def fundamental_ops(pair: PairAnalysis | QPair) -> FundamentalPair:
    """Fundamental operators (G1, G2) = Lambda_** (P_*perp U_*, U_** P_*) Lambda_*
    from the starred tuple, cross-checked against the independent
    pseudoinverse solution of the defining equations.  They read U_* on
    ran Lambda_* only: G1 = Lambda_** P_*perp M_*, G2 = M_** P_* Lambda_*
    with M_* = U_* Lambda_*, so U_* is never completed here.

    The oracle solves D G D = RHS in the kept defect coordinates, i.e.
    G_hat = (B*DB)^{-1} B* RHS B (B*DB)^{-1}; sandwiching by the basis keeps
    the inversion away from directions the rank cutoff already discarded.
    """
    an = PairAnalysis.of(pair)
    pair, star_tup = an.pair, an.star
    lam, p, m = star_tup.lam, star_tup.p, star_tup.m
    p_perp = eye(star_tup.f_dim) - p
    g1 = adj(lam) @ p_perp @ m
    g2 = adj(m) @ p @ lam
    dstar = star_tup.defect_t
    t_star = adj(an.product)
    rhs1 = adj(pair.t1) - pair.t2 @ t_star
    rhs2 = adj(pair.t2) - pair.q * pair.t1 @ t_star
    b = dstar.basis.columns
    d_op = dstar.operator
    res = 0.0
    for g, rhs in ((g1, rhs1), (g2, rhs2)):
        res = max(res, frob(d_op @ (b @ g @ adj(b)) @ d_op - rhs))
    if res > 1e-10:
        raise FundamentalEquationResidualError(
            f"fundamental equations violated: residual {res:.3e} > 1.0e-10")
    gap = 0.0
    if dstar.dim:
        bd_inv = np.linalg.inv(matcore.hermitize(adj(b) @ d_op @ b))
        for g, rhs in ((g1, rhs1), (g2, rhs2)):
            g_hat = bd_inv @ (adj(b) @ rhs @ b) @ bd_inv
            gap = max(gap, frob(g_hat - g))
    return FundamentalPair(g1, g2, dstar, res, gap)


def canonical_unitary_pair(pair: PairAnalysis | QPair) -> CanonicalUnitaryPair:
    """Unitaries on ran Q_{T*} solving W_i* Q = Q T_i*, W_D* Q = Q T*.

    Q and the basis of its range are the analysis' cnu split (`an.cnu`):
    Q^2 = lim T^n T*^n is an orthogonal projection in finite dimensions, so
    the least-squares solutions are isometries on its range; unitarity is a
    checked postcondition, not an assumption.
    """
    an = PairAnalysis.of(pair)
    pair, t = an.pair, an.product
    basis, q_op = an.cnu.unitary_part, an.cnu.q_op
    rq = adj(basis.columns) @ q_op
    rq_pinv = np.linalg.pinv(rq) if basis.dim else rq.T.conj()
    ws = []
    for op in (pair.t1, pair.t2, t):
        x_star = (rq @ adj(op)) @ rq_pinv
        if basis.dim and frob(adj(x_star) @ x_star - eye(basis.dim)) > 1e-8:
            raise NonUnitarySolutionError(
                "intertwining solution on ran Q is not unitary; "
                "rank tolerance likely misconfigured")
        ws.append(adj(x_star))
    return CanonicalUnitaryPair(pair.q, basis, ws[0], ws[1], ws[2], q_op)


def verify_canonical_pair(cp: CanonicalUnitaryPair, pair: QPair) -> Report:
    """Residuals of the canonical-pair axioms."""
    tol = 1e-10
    rep = Report("canonical-pair", {"tol": tol})
    k = cp.dim
    rq = cp.coords()
    rep.check("w1-intertwine", "W1* Q = Q T1*",
              frob(adj(cp.w1) @ rq - rq @ adj(pair.t1)), tol)
    rep.check("w2-intertwine", "W2* Q = Q T2*",
              frob(adj(cp.w2) @ rq - rq @ adj(pair.t2)), tol)
    rep.check("wd-intertwine", "W_D* Q = Q T*",
              frob(adj(cp.wd) @ rq - rq @ adj(pair.product())), tol)
    rep.check("q-commuting", "W1 W2 = q W2 W1",
              frob(cp.w1 @ cp.w2 - cp.q * cp.w2 @ cp.w1), tol)
    rep.check("product-relation", "W1* W2* = q W_D*",
              frob(adj(cp.w1) @ adj(cp.w2) - cp.q * adj(cp.wd)), tol)
    for name, w_mat in (("w1", cp.w1), ("w2", cp.w2), ("wd", cp.wd)):
        rep.check(f"{name}-unitary", "W*W = I",
                  frob(adj(w_mat) @ w_mat - eye(k)), tol)
    rep.check("fixed-point", "T Q^2 T* = Q^2",
              frob(pair.product() @ (cp.q_op @ cp.q_op) @ adj(pair.product())
                   - cp.q_op @ cp.q_op), 1e-10)
    return rep


def canonicity_transport(pair_a: QPair, pair_b: QPair, psi: np.ndarray) -> Report:
    """Transport psi|ran Q and verify it intertwines the canonical pairs."""
    tol = 1e-10
    psi = as_cmatrix(psi)
    int_res = max(frob(psi @ pair_a.t1 - pair_b.t1 @ psi),
                  frob(psi @ pair_a.t2 - pair_b.t2 @ psi))
    if int_res > 1e-10 or frob(adj(psi) @ psi - eye(pair_a.dim)) > 1e-10:
        raise NotIntertwinerError(
            f"psi does not unitarily intertwine the pairs: residual {int_res:.3e}")
    cp_a = canonical_unitary_pair(pair_a)
    cp_b = canonical_unitary_pair(pair_b)
    rep = Report("canonicity-transport", {"tol": tol})
    if cp_a.dim != cp_b.dim:
        rep.require("rank-match", "dim ran Q preserved", False,
                    note=f"{cp_a.dim} vs {cp_b.dim}")
        return rep
    tau = adj(cp_b.basis.columns) @ psi @ cp_a.basis.columns
    rep.check("tau-unitary", "tau = psi|ran Q is unitary",
              frob(adj(tau) @ tau - eye(cp_a.dim)), tol)
    rep.check("tau-w1", "tau W1 = W1' tau", frob(tau @ cp_a.w1 - cp_b.w1 @ tau), tol)
    rep.check("tau-w2", "tau W2 = W2' tau", frob(tau @ cp_a.w2 - cp_b.w2 @ tau), tol)
    rep.check("tau-wd", "tau W_D = W_D' tau", frob(tau @ cp_a.wd - cp_b.wd @ tau), tol)
    return rep


def verify_unique_canonical(pair: QPair, w1p: np.ndarray, w2p: np.ndarray):
    """Check the uniqueness characterization of the canonical pair.

    Candidates are given in the coordinates of canonical_unitary_pair(pair).
    Returns (bool, Report): preconditions W'_j* Q = Q T_j* and
    W'_1* W'_2* = q W_D*, then equality with the canonical pair.
    """
    tol = 1e-9
    cp = canonical_unitary_pair(pair)
    rep = Report("unique-canonical", {"tol": tol})
    if cp.dim == 0:
        rep.skip("vacuous", "ran Q = 0: uniqueness vacuous")
        return True, rep
    w1p, w2p = as_cmatrix(w1p), as_cmatrix(w2p)
    rq = cp.coords()
    ok = rep.check("pre-w1", "W1'* Q = Q T1*",
                   frob(adj(w1p) @ rq - rq @ adj(pair.t1)), tol)
    ok &= rep.check("pre-w2", "W2'* Q = Q T2*",
                    frob(adj(w2p) @ rq - rq @ adj(pair.t2)), tol)
    ok &= rep.check("pre-product", "W1'* W2'* = q W_D*",
                    frob(adj(w1p) @ adj(w2p) - cp.q * adj(cp.wd)), tol)
    ok &= rep.check("equality", "(W1', W2') = (W1, W2)",
                    max(frob(w1p - cp.w1), frob(w2p - cp.w2)), tol)
    return bool(ok), rep


# Entries one stacked temporary of `CharFn.many` may hold: a chunk takes as
# many points as fit n x n matrices into it, and at least one.
_STACK_ENTRIES = 2 ** 14
# Most terms p of a ring's Krylov stack, and most cosets m / p of one ring.
_RING_TERMS = 32


def _ring_order(m: int) -> int:
    """The largest p | m with p <= _RING_TERMS, or 0 when m / p would exceed
    _RING_TERMS (a smaller divisor only gives more cosets)."""
    p = max((d for d in range(1, min(m, _RING_TERMS) + 1) if m % d == 0), default=0)
    return p if p and m // p <= _RING_TERMS else 0


class CharFn:
    """Characteristic function Theta(z) = -T + z D_{T*}(I - zT*)^{-1} D_T of one
    contraction T, as a matrix between the defect-space coordinates.

    T is checked once and its defects are built here unless given.  The
    constant factors are folded once: with B, B_* the bases of ran D_T and
    ran D_{T*}, Theta(z) = Theta0 + z L (I - zT*)^{-1} R for Theta0 = B_*^*(-T)B,
    L = B_*^* D_{T*} and R = D_T B.  `many` evaluates a point set in chunks,
    each one stacked LU solve of I - zT* against R; a single point is a
    chunk of one, so both give the same bits.

    `grid(radii, m)` evaluates the polar grid r e^{2 pi i k / m}, one ring
    per radius.  A ring shares one solve among its points: for p | m every
    point z of the coset {z : z^p = w} has (I - zT*) sum_{s<p} z^s T*^s =
    I - w T*^p, so with Y = (I - w T*^p)^{-1} R,
    Theta(z) = Theta0 + sum_{s<p} z^{s+1} (L T*^s) Y: one stacked solve of
    the m / p cosets per ring, each with the residual guard of `many`.  The
    route is taken only where |r|^p <= 1/2, so ||(I - w T*^p)^{-1}|| <= 2 for
    any checked contraction and the forward error is O(p eps) whatever T is;
    every other ring (|z| = 1, radii near 1, non-finite radii, rings that fit
    one `many` chunk, m without a divisor p <= 32 leaving at most 32 cosets)
    goes through `many`, bit for bit.  The Krylov stack L T*^s, s < p, is
    cached once per evaluator and p, and holds at most 32 dim D_{T*} n
    entries; one ring's Y holds at most 32 n dim D_T, whatever m is.  Every
    stacked temporary stays within `_STACK_ENTRIES` per chunk of points or
    cosets, as in `many`.
    """

    def __init__(self, t: np.ndarray, dt: DefectData | None = None,
                 dstar: DefectData | None = None):
        t = matcore.check_contraction(t)
        self.dt = DefectData(*matcore.defect(t)) if dt is None else dt
        self.dstar = DefectData(*matcore.defect(adj(t))) if dstar is None else dstar
        b_t, b_s = self.dt.basis.columns, self.dstar.basis.columns
        self._theta0 = adj(b_s) @ -t @ b_t
        self._left = adj(b_s) @ self.dstar.operator
        self._right = self.dt.operator @ b_t
        self._t_star, self._eye = adj(t), eye(t.shape[0])
        self._tol = 1e-8 * max(1.0, frob(self.dt.operator))
        self._chunk = max(1, _STACK_ENTRIES // max(1, t.size))
        # (p, the Krylov stack L T*^s for s < p, T*^p), built on first use
        self._krylov = None

    def __call__(self, z: complex) -> np.ndarray:
        return next(self.many((z,)))[1][0]

    def many(self, zs):
        """Yield (z, Theta(z)) for consecutive chunks of the points `zs`: a
        vector of points and the (points, dim D_{T*}, dim D_T) stack of values.
        Raises SingularResolventError at a non-finite point or where
        I - zT* is singular."""
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        for start in range(0, zs.size, self._chunk):
            z = zs[start:start + self._chunk]
            yield z, self._stack(z)

    def grid(self, radii, m: int):
        """Yield (z, Theta(z)) chunks, as `many` does, over the points
        r e^{2 pi i k / m} for r in `radii` (r-major, k-minor).  Raises
        SingularResolventError where `many` would."""
        p = _ring_order(m)
        pending = []
        for r in radii:
            ring = np.array([r * np.exp(2j * np.pi * k / m) for k in range(m)],
                            dtype=np.complex128)
            if not (p and m > self._chunk and abs(r) ** p <= 0.5):
                pending.append(ring)
                continue
            yield from self.many(pending)
            pending = []
            yield from self._ring(ring, p)
        yield from self.many(pending)

    def _ring(self, ring: np.ndarray, p: int):
        if self._krylov is None or self._krylov[0] != p:
            krylov = [self._left]
            for _ in range(p - 1):
                krylov.append(krylov[-1] @ self._t_star)
            self._krylov = (p, np.stack(krylov), np.linalg.matrix_power(self._t_star, p))
        _, krylov, t_star_p = self._krylov
        # coset j holds the points k = j mod m/p, where z^p = ring[j]^p
        cosets = ring.size // p
        heads = ring[:cosets]
        w = heads ** p
        y = np.concatenate([
            self._solve(self._eye - w[j:j + self._chunk, None, None] * t_star_p,
                        heads[j:j + self._chunk], "on the coset of")
            for j in range(0, cosets, self._chunk)])
        flat = krylov.reshape(p, -1)
        for start in range(0, ring.size, self._chunk):
            z = ring[start:start + self._chunk]
            # sum_{s<p} z^{s+1} L T*^s, one (dim D_{T*}, n) block per point
            left = (np.vander(z, p + 1, increasing=True)[:, 1:] @ flat).reshape(
                z.size, *krylov.shape[1:])
            yield z, self._theta0 + left @ y[np.arange(start, start + z.size) % cosets]

    def _stack(self, z: np.ndarray) -> np.ndarray:
        if not np.isfinite(z).all():
            raise SingularResolventError(
                f"I - z T* undefined at z = {z[~np.isfinite(z)][0]}")
        a = self._eye - z[:, None, None] * self._t_star
        return self._theta0 + z[:, None, None] * (self._left @ self._solve(a, z, "at"))

    def _solve(self, a: np.ndarray, z: np.ndarray, where: str) -> np.ndarray:
        """The stacked solve of a X = R, one matrix per point of z, under the
        residual guard; SingularResolventError names the first failing point."""
        rhs = np.broadcast_to(self._right, (len(a), *self._right.shape))
        try:
            x = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            # name the first point whose own solve fails
            for zk, ak in zip(z, a):
                try:
                    np.linalg.solve(ak, self._right)
                except np.linalg.LinAlgError as exc:
                    raise SingularResolventError(
                        f"I - z T* singular {where} z = {zk}") from exc
            raise
        # the residual guard of each point; a NaN residual fails it too
        res = np.linalg.norm(a @ x - rhs, axis=(1, 2))
        bad = ~(res <= self._tol)
        if bad.any():
            raise SingularResolventError(
                f"I - z T* numerically singular {where} z = {z[bad][0]}")
        return x


def char_fn(t: np.ndarray, z: complex, dt: DefectData | None = None,
            dstar: DefectData | None = None) -> np.ndarray:
    """Characteristic function Theta(z) at one point; `CharFn` evaluates it
    at many points of one contraction."""
    return CharFn(t, dt, dstar)(z)


def theta_defect(theta: np.ndarray) -> np.ndarray:
    """(I - Theta* Theta)^{1/2} on ran D_T, for a value Theta = Theta(z)."""
    return matcore.psd_sqrt(eye(theta.shape[1]) - adj(theta) @ theta)


def theta_defect_norm(theta: np.ndarray) -> float:
    """||(I - Theta* Theta)^{1/2}||, without forming the square root."""
    return matcore.psd_sqrt_norm(eye(theta.shape[1]) - adj(theta) @ theta)


def delta_fn(t: np.ndarray, zeta: complex, r: float | None = None,
             dt: DefectData | None = None, dstar: DefectData | None = None) -> np.ndarray:
    """Boundary defect (I - Theta(zeta)* Theta(zeta))^{1/2} on ran D_T.

    Direct evaluation at |zeta| = 1 needs rho(T) < 1; otherwise supply a
    radial parameter r < 1 to evaluate at r * zeta.
    """
    z = zeta if r is None else r * zeta
    return theta_defect(char_fn(t, z, dt, dstar))


def char_triple(pair: PairAnalysis | QPair) -> CharTriple:
    """Characteristic triple of a pair whose product is cnu.

    A product with a unitary part (clock-shift at scale 1, say: a finite
    matrix can have one) raises NotCnuError; for a cnu product the canonical
    unitary component is 0, and ||Q_{T*}|| of the analysis' cnu split is
    recorded rather than a unitary pair constructed.
    """
    an = PairAnalysis.of(pair)
    t = an.product
    dec = an.cnu
    if dec.unitary_part.dim:
        raise NotCnuError(
            f"product has a unitary part of dimension {dec.unitary_part.dim}; "
            "restrict to the cnu part first")
    theta = CharFn(t, an.dt, an.dstar)
    return CharTriple(an.pair.q, an.fundamental, 0, opnorm(dec.q_op), theta,
                      an.dt, an.dstar, t)


def verify_triple(pair: PairAnalysis | QPair) -> Report:
    """Checks of the characteristic triple: Theta(0), contractivity on a disk
    grid, the collapsed unitary part, pure contractivity and two-sided
    innerness on the circle.  A product with a unitary part is a skip."""
    rep = Report("triple")
    try:
        triple = char_triple(pair)
    except NotCnuError as exc:
        rep.skip("not-cnu", "characteristic triple needs a cnu product",
                 note=str(exc))
        return rep
    theta0 = triple.theta(0.0)
    rep.check("theta-at-zero", "Theta(0) = -T restricted to ran D_T",
              frob(theta0 - triple.theta_coeffs(0)[0]), 1e-13)
    worst = 0.0
    for _, thetas in triple.theta.grid(np.linspace(0.1, 0.9, 8), 16):
        worst = max(worst, float(stack_opnorms(thetas).max()) - 1.0)
    rep.check("theta-contractive", "||Theta(z)|| <= 1 on the disk grid", worst, 1e-9)
    rep.check("unitary-part-collapse", "||Q_{T*}|| vanishes for cnu products",
              triple.q_residual, 1e-6)
    if triple.dt.dim:
        slack = 1.0 - opnorm(theta0)
        rep.require("purely-contractive",
                    "||Theta(0) f|| < ||f|| strictly on unit defect vectors",
                    slack > 1e-12, note=f"slack {slack:.3e}")
    boundary = 0.0
    for _, thetas in triple.theta.many([np.exp(2j * np.pi * k / 64) for k in range(64)]):
        defect = thetas.conj().swapaxes(1, 2) @ thetas - eye(triple.dt.dim)
        boundary = max(boundary, float(np.linalg.norm(defect, axis=(1, 2)).max()))
    rep.check("two-sided-inner", "I - Theta(zeta)*Theta(zeta) = 0 on the circle",
              boundary, 1e-8)
    return rep


@dataclass(frozen=True)
class ModelCompression:
    """K_i = Pi* M_i Pi in the coordinates of H; defect max_i ||Pi*(M_i* Pi - Pi T_i*)||."""

    m1: np.ndarray
    m2: np.ndarray
    defect: float
    report: Report


def model_symbols(q: complex, g1: np.ndarray, g2: np.ndarray):
    """The two model multipliers: M_{G1*+zG2} R_q and R_qbar M_{G2*+zG1}
    (the latter rewritten with the rotation on the right, R_qbar stored as
    conj(q)).  The lifts' Hardy blocks are this pencil too."""
    sym1 = TwistedSymbol(q, (adj(g1), g2))
    sym2 = TwistedSymbol(np.conj(q), (adj(g2), np.conj(q) * g1))
    return sym1, sym2


def model_compress(pair: PairAnalysis | QPair) -> ModelCompression:
    """Compress the model multipliers to ran Pi and verify unitary equivalence
    with the source pair over all degrees: every sum is a Stein sum.

    Pi h = sum_k z^k C T*^k h, C = D_{T*} in dstar coordinates.  T1 T2 = q T2 T1
    gives T* T_i* = conj(r) T_i* T* for the multiplier A0 + z A1 of rotation
    r = q^m, so degree k of M_i* Pi - Pi T_i* is conj(r)^k E_i T*^k, E_i = A0* C
    + A1* C T* - C T_i*: its norm is the root of lambda_max(sum_k T^k E_i*E_i T*^k),
    and P_i = Pi*(M_i* Pi - Pi T_i*) = sum_k (conj(r) T)^k C*E_i T*^k gives the
    compression K_i = Pi* M_i Pi = (Pi*Pi T_i* + P_i)*.
    """
    tol = 1e-8
    an = PairAnalysis.of(pair)
    pair, t = an.pair, an.product
    if an.cnu.unitary_part.dim:
        raise NotCnuError("model compression needs a cnu product")
    t_star = adj(t)
    c = an.dstar.coords()
    gram = matcore.stein_sum(t, t_star, adj(c) @ c)
    g1, g2 = an.fundamental.g1, an.fundamental.g2
    rep = Report("model-compress", {"tol": tol})
    defects, ks = [], []
    for i, (sym, t_i) in enumerate(zip(model_symbols(pair.q, g1, g2), (pair.t1, pair.t2)), 1):
        a0, a1 = sym.coeffs
        phase = np.conj(sym.rot)
        twist = opnorm(t_star @ adj(t_i) - phase * adj(t_i) @ t_star)
        e = adj(a0) @ c + adj(a1) @ c @ t_star - c @ adj(t_i)
        rep.check(f"intertwine-{i}", f"M{i}* Pi = Pi T{i}* (all degrees)",
                  np.sqrt(opnorm(matcore.stein_sum(t, t_star, adj(e) @ e))), tol,
                  note=f"degrees >= 1 use ||T* T{i}* - qbar^m T{i}* T*|| = {twist:.3e}")
        p = matcore.stein_sum(phase * t, t_star, adj(c) @ e)
        defects.append(opnorm(p))
        ks.append(adj(gram @ adj(t_i) + p))
    k1, k2 = ks
    rep.check("pi-isometry", "Pi*Pi = I", frob(gram - eye(pair.dim)), tol)
    rep.check("equivalence-defect",
              "compressed pair unitarily equivalent to the source pair",
              max(defects), tol)
    rep.check("compressed-q-commute", "M1 M2 = q M2 M1 on the model space",
              opnorm(k1 @ k2 - pair.q * k2 @ k1), tol)
    rep.check("compressed-product", "M1 M2 equals the compressed shift, T Pi*Pi",
              opnorm(k1 @ k2 - t @ gram), tol)
    return ModelCompression(k1, k2, max(defects), rep)


def induced_defect_unitaries(triple_a: CharTriple, triple_b: CharTriple,
                             psi: np.ndarray):
    """Restrict a unitary pair-intertwiner to the defect spaces."""
    psi = as_cmatrix(psi)
    u = adj(triple_b.dt.basis.columns) @ psi @ triple_a.dt.basis.columns
    u_star = adj(triple_b.dstar.basis.columns) @ psi @ triple_a.dstar.basis.columns
    for name, mat, k in (("u", u, triple_a.dt.dim), ("u_star", u_star,
                                                     triple_a.dstar.dim)):
        if mat.shape[0] != mat.shape[1]:
            raise NotIntertwinerError(f"{name} is not square: defect dims differ")
        if frob(adj(mat) @ mat - eye(k)) > 1e-9:
            raise NotIntertwinerError(f"{name} fails to be unitary: psi does not "
                                      "map the defect space onto its partner")
    return u, u_star


def verify_coincidence(triple_a: CharTriple, triple_b: CharTriple,
                       u: np.ndarray, u_star: np.ndarray) -> Report:
    """Residuals of coincidence via the supplied defect unitaries.

    (i) u_* Theta(z) = Theta'(z) u on the disk grid of 8 radii from 0.1 to
    0.9 by 16 angles, (ii) conjugation of the fundamental pairs, (iii)
    unitary parts (trivial at finite dimension)."""
    tol = 1e-9
    radii, angles = np.linspace(0.1, 0.9, 8), 16
    rep = Report("coincidence", {"radii": len(radii), "angles": angles,
                                 "tol": tol})
    u, u_star = as_cmatrix(u), as_cmatrix(u_star)
    worst = 0.0
    # the two evaluators may chunk differently when their dimensions differ,
    # so the values of b are read point by point against each chunk of a
    values_b = (theta for _, thetas in triple_b.theta.grid(radii, angles) for theta in thetas)
    for _, thetas_a in triple_a.theta.grid(radii, angles):
        thetas_b = np.stack([next(values_b) for _ in thetas_a])
        diff = u_star @ thetas_a - thetas_b @ u
        worst = max(worst, float(np.linalg.norm(diff, axis=(1, 2)).max()))
    rep.check("theta-coincide", "u_* Theta(z) = Theta'(z) u on the grid",
              worst, tol)
    g_res = max(frob(triple_b.fundamental.g1 - u_star @ triple_a.fundamental.g1 @ adj(u_star)),
                frob(triple_b.fundamental.g2 - u_star @ triple_a.fundamental.g2 @ adj(u_star)))
    rep.check("fundamental-conjugate", "(G1', G2') = u_* (G1, G2) u_**", g_res, tol)
    if triple_a.unitary_dim == 0 and triple_b.unitary_dim == 0:
        rep.check("unitary-part", "residual unitary parts both 0-dimensional",
                  max(triple_a.q_residual, triple_b.q_residual), 1e-6)
    else:
        rep.require("unitary-part", "nontrivial residual parts not representable "
                    "at finite dimension", False)
    return rep


def verify_admissible(g1: np.ndarray, g2: np.ndarray, theta_coeffs, q: complex) -> Report:
    """Check the four admissibility conditions for ((G1,G2), trivial, Theta).

    Theta is a matrix polynomial of degree d given by its coefficient list
    (fiber ran D -> ran D_*).  The Delta-space must be trivial (Theta
    two-sided inner, so square), which is the finite-dimensional scope;
    condition (2) is then vacuous and recorded as such.
    Condition (1) reads the norms of the untruncated multipliers from above
    (`hardy.symbol_norm`, a certified upper bound).  Every check is exact, at
    no truncation: z^d H^2 lies in Theta H^2, so the model space H^2 (-) Theta
    H^2 is ker M_Theta* on the degrees < d.
    """
    tol = 1e-9
    g1, g2 = as_cmatrix(g1), as_cmatrix(g2)
    theta_sym = TwistedSymbol(1.0, tuple(theta_coeffs))
    d_in, d_out = theta_sym.fiber_in, theta_sym.fiber_out
    d_theta = theta_sym.degree
    rep = Report("admissible", {"tol": tol})

    sym1, sym2 = model_symbols(q, g1, g2)
    excess = max(hardy.symbol_norm(sym1), hardy.symbol_norm(sym2)) - 1.0
    rep.check("cond1-contractive",
              "M_{G1*+zG2}R_q and R_qbar M_{G2*+zG1} are contractions",
              max(0.0, excess), 1e-9)

    # Theta*Theta - I = sum_j (G_j - delta_j0 I) zeta^j on the circle, G_j the
    # Laurent coefficients: the sum of their norms bounds it at every zeta
    inner_res = sum(frob(gram_coeff(theta_sym, theta_sym, j) - (eye(d_in) if j == 0 else 0.0))
                    for j in range(-d_theta, d_theta + 1))
    square = d_in == d_out
    if square and inner_res <= 1e-8:
        rep.check("cond2-trivial-delta",
                  "Theta inner on the circle: Delta-space is 0, W-condition vacuous",
                  inner_res, 1e-8)
    else:
        rep.require("cond2-trivial-delta",
                    "nontrivial Delta-space: outside finite-dimensional scope" if square
                    else "non-square Theta: outside finite-dimensional scope",
                    False, note=f"boundary defect bound {inner_res:.3e}")
        return rep

    # with Theta unitary on the circle, (I - P_{Theta H^2}) A M_Theta =
    # M_Theta (I - P_+) M_Psi R_r for A = M_phi R_r, Psi = Theta* phi Theta(r.):
    # the norms of the negative Laurent coefficients of Psi bound it
    shift = hardy.shift_symbol(d_out)
    leak = max(sum(frob(gram_coeff(theta_sym, hardy.symbol_compose(phi, theta_sym), j))
                   for j in range(-d_theta, 0))
               for phi in (sym1, sym2, shift))
    rep.check("cond3-invariance",
              "(Theta)H^2 invariant under both multipliers and M_z", leak, tol)

    # on the degrees < d, M_Theta M_Theta* sums only the columns of degree
    # < d, so I - T T* there is the projection onto the model space
    # (eigenvalues 0 or 1, cut at 1/2); adjoints lower degree, so every
    # product below is exact at the truncation max(d, 1) the multipliers need
    n = max(d_theta, 1)
    low = TruncHardy(d_out, n).low(d_theta - 1)
    t_low = materialize(theta_sym, n).matrix[low, low]
    basis = matcore.orth_columns(eye(len(t_low)) - t_low @ adj(t_low), rank_tol=0.5)
    x = np.zeros(((n + 1) * d_out, basis.shape[1]), dtype=np.complex128)
    x[low] = basis
    if x.shape[1] == 0:
        rep.skip("cond4-compression",
                 "compressed product identities on the model complement",
                 note="the model space is 0")
        return rep
    a1, a2, mz = (materialize(s, n).matrix for s in (sym1, sym2, shift))
    prod12 = adj(a1) @ (adj(a2) @ x)
    prod21 = adj(a2) @ (adj(a1) @ x)
    r4a = opnorm(prod12 - q * prod21)
    r4b = opnorm(prod21 - adj(mz) @ x)
    rep.check("cond4-q-commute", "A1* A2* = q A2* A1* on the model space", r4a, tol)
    rep.check("cond4-product", "A2* A1* = M_z* on the model space", r4b, tol)
    return rep

