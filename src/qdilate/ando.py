"""Special Andô tuples (F; Lambda, P, U) and their defining identities.

For a q-commuting contractive pair with product T, the tuple consists of the
defect isometry Lambda: ran D_T -> D_{T1} (+) D_{T2} determined by
Lambda D_T h = D_{T1} T2 h (+) D_{T2} h, the projection P onto the first
summand, and the unitary U extending D_{T1} T2 h (+) D_{T2} h ->
D_{T1} h (+) D_{T2} T1 h.  In finite dimensions the two complements have equal
dimension, so no extra summand is ever needed (e_dim stays 0); the free choice
in the unitary extension is pinned by matcore's deterministic completion.
The tuple keeps U on ran Lambda, M = U Lambda, and completes U the first time
it is read: the fundamental operators and the characteristic triple read M
only.

All matrices here are expressed in defect-basis coordinates; `lam_dt()` gives
the composite map H -> F actually used in block formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore
from .errors import RankDeficiencyError
from .matcore import SubspaceBasis, adj, eye, frob
from .qpair import QPair, adjoint_pair
from .report import Report


@dataclass(frozen=True)
class DefectData:
    """Defect operator on H together with an orthonormal basis of its range."""

    operator: np.ndarray
    basis: SubspaceBasis

    @property
    def dim(self) -> int:
        return self.basis.dim

    def coords(self) -> np.ndarray:
        """Map H -> defect coordinates, h |-> basis* D h."""
        return adj(self.basis.columns) @ self.operator


@dataclass(frozen=True)
class AndoTuple:
    q: complex
    defect_t1: DefectData
    defect_t2: DefectData
    defect_t: DefectData
    lam: np.ndarray  # f_dim x dt_dim isometry, blocks [D_{T1}-part; D_{T2}-part]
    p: np.ndarray    # projection of F onto the first summand
    m: np.ndarray    # U Lambda, the f_dim x dt_dim isometry U carries Lambda to
    e_dim: int = 0

    @cached_property
    def u(self) -> np.ndarray:
        """The unitary on F: M Lambda* on ran Lambda, completed off it by
        matcore's deterministic pivoted QR.  Built, and checked unitary, on
        the first read; a failed completion raises its typed error there."""
        if not self.f_dim:
            return np.zeros((0, 0), dtype=np.complex128)
        return matcore.complete_to_unitary(SubspaceBasis(self.lam), SubspaceBasis(self.m),
                                           self.m @ adj(self.lam))

    @property
    def d1_dim(self) -> int:
        return self.defect_t1.dim

    @property
    def d2_dim(self) -> int:
        return self.defect_t2.dim

    @property
    def dt_dim(self) -> int:
        return self.defect_t.dim

    @property
    def f_dim(self) -> int:
        return self.d1_dim + self.d2_dim + self.e_dim

    def lam_dt(self) -> np.ndarray:
        """Lambda D_T as a map H -> F coordinates."""
        return self.lam @ self.defect_t.coords()

    def to_json(self) -> dict:
        return {
            "q": [float(self.q.real), float(self.q.imag)],
            "d1_dim": self.d1_dim,
            "d2_dim": self.d2_dim,
            "e_dim": self.e_dim,
            "lambda": matcore.matrix_to_json(self.lam),
            "p": matcore.matrix_to_json(self.p),
            "u": matcore.matrix_to_json(self.u),
        }


def _solve_on_range(x: np.ndarray, y: np.ndarray, what: str) -> np.ndarray:
    """Least-squares solve M x = y for M, assuming x has full row rank.

    The defect bases only keep eigenvalues above the rank cutoff, so x is
    well conditioned whenever the pair is; an inconsistent system signals
    defect ranks that do not match the identities and is reported as such.
    """
    if x.shape[0] == 0:
        return np.zeros((y.shape[0], 0), dtype=np.complex128)
    m = y @ np.linalg.pinv(x)
    res = frob(m @ x - y)
    if res > 1e-8 * max(1.0, frob(y)):
        raise RankDeficiencyError(f"{what}: defining equation inconsistent, "
                                  f"residual {res:.3e}")
    return m


def _polish_isometry(m: np.ndarray, what: str) -> np.ndarray:
    """Snap a numerically-near isometry onto the closest exact one."""
    k = m.shape[1]
    if k == 0:
        return m
    gram = adj(m) @ m
    dev = frob(gram - eye(k))
    if dev > 1e-8:
        raise RankDeficiencyError(f"{what} is not an isometry: deviation {dev:.3e}")
    w, v = np.linalg.eigh(gram)
    inv_sqrt = (v / np.sqrt(w)) @ adj(v)
    return m @ inv_sqrt


def special_ando_tuple(pair: QPair, dt: DefectData | None = None) -> AndoTuple:
    """Construct the special Andô tuple of a pair in defect coordinates.

    Lambda is solved against D_T on its range only (its action off the range
    is irrelevant and absent from the coordinates), and so is M = U Lambda.
    The unitary U is the deterministic completion of the partial map
    M Lambda* on ran Lambda; the input checks of that completion run here,
    the completion itself on the first read of `u`.  A caller that already
    holds D_T of the product (`matcore.defect`, at its rank cutoff) passes
    it as `dt`.
    """
    if dt is None:
        dt = DefectData(*matcore.defect(pair.product()))
    d1 = DefectData(*matcore.defect(pair.t1))
    d2 = DefectData(*matcore.defect(pair.t2))

    x = dt.coords()
    y_lam = np.vstack([d1.coords() @ pair.t2, d2.coords()])
    lam = _polish_isometry(_solve_on_range(x, y_lam, "Lambda"), "Lambda")

    y_u = np.vstack([d1.coords(), d2.coords() @ pair.t1])
    m = _polish_isometry(_solve_on_range(x, y_u, "U on ran Lambda"), "U on ran Lambda")

    f_dim = d1.dim + d2.dim
    if f_dim:
        matcore.check_partial_isometry(SubspaceBasis(lam), SubspaceBasis(m), m @ adj(lam))
    p = np.zeros((f_dim, f_dim), dtype=np.complex128)
    p[:d1.dim, :d1.dim] = eye(d1.dim)
    return AndoTuple(pair.q, d1, d2, dt, lam, p, m)


def star_ando_tuple(pair: QPair) -> AndoTuple:
    """Special Andô tuple of the adjoint pair (T1*, T2*).

    Its product defect equals D_{T*} for T = T1 T2 (the twist drops out of
    I - T*T), so this tuple carries the starred data Lambda_*, P_*, U_*.
    """
    return special_ando_tuple(adjoint_pair(pair))


def verify_prop1(tup: AndoTuple, pair: QPair) -> Report:
    """Residuals of the four structural identities of the forward tuple."""
    tol = 1e-9
    rep = Report("ando-prop1", {"tol": tol})
    n = pair.dim
    ell = tup.lam_dt()
    p, u = tup.p, tup.u
    p_perp = eye(tup.f_dim) - p
    pul = p @ u @ ell
    rep.check("prop1-t1", "T1*T1 + (PUL)*(PUL) = I, L = Lambda D_T",
              frob(adj(pair.t1) @ pair.t1 + adj(pul) @ pul - eye(n)), tol)
    rep.check("prop1-t2", "T2*T2 + L*(I-P)L = I",
              frob(adj(pair.t2) @ pair.t2 + adj(ell) @ p_perp @ ell - eye(n)), tol)
    rep.check("prop1-third-a", "PUL T2 + (I-P)L = L",
              frob(p @ u @ ell @ pair.t2 + p_perp @ ell - ell), tol)
    rep.check("prop1-third-b", "L = U*((I-P)L T1 + PUL)",
              frob(ell - adj(u) @ (p_perp @ ell @ pair.t1 + pul)), tol)
    return rep


def verify_prop2(star_tup: AndoTuple, pair: QPair) -> Report:
    """Residuals of the two adjoint-side identities of the starred tuple."""
    tol = 1e-9
    rep = Report("ando-prop2", {"tol": tol})
    q = pair.q
    t_star = adj(pair.product())
    ell = star_tup.lam_dt()  # Lambda_* D_{T*} : H -> F_*
    p, u = star_tup.p, star_tup.u
    p_perp = eye(star_tup.f_dim) - p
    rep.check("prop2-t1", "L* T1* = (I-P*)U*L* + P*U*L* T*",
              frob(ell @ adj(pair.t1)
                   - (p_perp @ u @ ell + p @ u @ ell @ t_star)), tol)
    rep.check("prop2-t2", "L* T2* = U**P*L* + q U**(I-P*)L* T*",
              frob(ell @ adj(pair.t2)
                   - (adj(u) @ p @ ell + q * adj(u) @ p_perp @ ell @ t_star)), tol)
    return rep


def verify_tuple_invariants(tup: AndoTuple, pair: QPair) -> Report:
    """Structural invariants plus the defining actions of Lambda and U."""
    tol = 1e-10
    rep = Report("ando-invariants", {"tol": tol})
    f = tup.f_dim
    rep.check("lambda-isometry", "Lambda*Lambda = I",
              frob(adj(tup.lam) @ tup.lam - eye(tup.dt_dim)), tol)
    rep.check("p-projection", "P^2 = P = P*",
              frob(tup.p @ tup.p - tup.p) + frob(tup.p - adj(tup.p)), 1e-12)
    rep.check("u-unitary", "U*U = UU* = I",
              frob(adj(tup.u) @ tup.u - eye(f)) + frob(tup.u @ adj(tup.u) - eye(f)),
              tol)
    lam_action = np.vstack([tup.defect_t1.coords() @ pair.t2,
                            tup.defect_t2.coords()])
    rep.check("lambda-action", "Lambda D_T h = D_{T1} T2 h (+) D_{T2} h",
              frob(tup.lam_dt() - lam_action), tol)
    u_target = np.vstack([tup.defect_t1.coords(),
                          tup.defect_t2.coords() @ pair.t1])
    rep.check("u-action", "U(D_{T1} T2 h (+) D_{T2} h) = D_{T1} h (+) D_{T2} T1 h",
              frob(tup.u @ tup.lam_dt() - u_target), tol)
    return rep
