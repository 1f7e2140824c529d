"""Twisted-symbol calculus on vector-valued Hardy space, finite sections.

An analytic operator here is M_phi R_rot: multiply by the matrix polynomial
phi(z) = sum_k z^k C_k after rotating the argument, (R_rot f)(z) = f(rot z),
rot one unimodular number.  Composition is coefficient arithmetic, and every
phase rot^j comes from one table (`phases`), so identities proved at symbol
level hold to machine precision after materialization at every N.
`materialize` fills the dense matrix of a finite section; the lift verifiers
read symbols and never call it.

Truncation contract: materializing at degree N drops coefficients beyond N,
so an operator identity whose sides have maximal z-degree d is asserted only
after restricting inputs to degrees <= N - d (full outputs are then exact).
Adjoints lower degree and need no restriction, but products involving adjoints
of *different* symbols still inherit the forward budget of each factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matcore
from .ando import DefectData
from .errors import (
    DimensionMismatchError,
    FiberMismatchError,
    MaxIterationsExceededError,
    NotQCommutantError,
    TailTooLargeError,
)
from .matcore import adj, as_cmatrix, eye, frob, opnorm

DEFAULT_TRUNC = 24


@dataclass(frozen=True)
class TruncHardy:
    """Degree-truncated Hardy space: degrees 0..max_degree, degree-major layout."""

    fiber_dim: int
    max_degree: int

    def __post_init__(self):
        if self.max_degree < 0 or self.fiber_dim < 0:
            raise DimensionMismatchError("TruncHardy needs fiber_dim, max_degree >= 0")

    @property
    def total_dim(self) -> int:
        return (self.max_degree + 1) * self.fiber_dim

    def low(self, k: int) -> slice:
        """Index slice of the degrees <= k part (empty for k < 0)."""
        return slice(0, max(min(k, self.max_degree) + 1, 0) * self.fiber_dim)


@dataclass(frozen=True)
class TwistedSymbol:
    """M_phi R_rot, phi(z) = sum_k z^k coeffs[k], rot = q^m stored as q, conj(q) or 1."""

    rot: complex
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(as_cmatrix(c) for c in self.coeffs)
        if not coeffs:
            raise DimensionMismatchError("symbol needs at least one coefficient")
        shape = coeffs[0].shape
        if any(c.shape != shape for c in coeffs):
            raise FiberMismatchError("all symbol coefficients must share one shape")
        object.__setattr__(self, "rot", complex(self.rot))
        if not abs(abs(self.rot) - 1.0) <= 1e-12:
            raise FiberMismatchError(f"rotation must be unimodular, |rot|={abs(self.rot)}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def fiber_in(self) -> int:
        return self.coeffs[0].shape[1]

    @property
    def fiber_out(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@lru_cache
def phases(rot: complex, n: int) -> np.ndarray:
    """rot^j for j = 0..n (read-only, kept per (rot, n)): a running product
    put back on the circle at each step, so entry j+1 is entry j rot to a few
    ulp at every j, each stored on or inside the circle (`_inward`).  Exact
    for 1, -1, i and -i; the table of conj(rot) is the conjugate one."""
    out, z, rot = np.empty(n + 1, dtype=np.complex128), 1.0 + 0j, complex(rot)
    for j in range(n + 1):
        out[j] = _inward(z)
        z = unit(z * rot)
    out.flags.writeable = False
    return out


def unit(z: complex) -> complex:
    """z / |z|, so that rot conj(rot) is exactly 1."""
    return z / abs(z)


def _inward(z: complex) -> complex:
    """z scaled down an ulp at a time until re^2 + im^2 <= 1 holds exactly:
    a `unit` value, a few roundings off the circle, needs at most two steps
    (three are allowed)."""
    for _ in range(3):
        (a, p), (b, r) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        if (a * r) ** 2 + (b * p) ** 2 <= (p * r) ** 2:
            break
        z *= 1.0 - 2.0 ** -53                   # the double below 1
    return z


def shift_symbol(fiber: int) -> TwistedSymbol:
    """M_z as a symbol."""
    return TwistedSymbol(1.0, (np.zeros((fiber, fiber), dtype=np.complex128), eye(fiber)))


def symbol_compose(s1: TwistedSymbol, s2: TwistedSymbol) -> TwistedSymbol:
    """Product symbol of s1 applied after s2.

    Pushing R_a across a coefficient rotates its argument:
    (M_a R_r)(M_b R_s) = M_{a(z) b(r z)} R_{rs}, so the product coefficient at
    degree j is sum_{k+l=j} a_k r^l b_l, and the product rotation is r s on
    the circle (`unit`).
    """
    if s1.fiber_in != s2.fiber_out:
        raise FiberMismatchError(
            f"fiber mismatch: s1 takes {s1.fiber_in}, s2 gives {s2.fiber_out}")
    out = [np.zeros((s1.fiber_out, s2.fiber_in), dtype=np.complex128)
           for _ in range(s1.degree + s2.degree + 1)]
    phase = phases(s1.rot, s2.degree)
    for k, a in enumerate(s1.coeffs):
        for r, b in enumerate(s2.coeffs):
            out[k + r] += a @ (phase[r] * b)
    return TwistedSymbol(unit(s1.rot * s2.rot), tuple(out))


def gram_coeff(s1: TwistedSymbol, s2: TwistedSymbol, lag: int,
               top: int | None = None) -> np.ndarray:
    """sum_k C1_k* C2_{k+lag} over k >= max(0, -lag) with k + lag <= top
    (default: every coefficient of s2): the Laurent coefficient of phi1* phi2
    on the circle, and, up to a unimodular phase, the block of the Gram
    product (M_phi1 R)*(M_phi2 R) that sits lag degrees below the diagonal.
    `top` cuts s2's coefficients at a truncation: on a column of degree j of
    TruncHardy(N) it is N - j."""
    top = s2.degree if top is None else min(top, s2.degree)
    acc = np.zeros((s1.fiber_in, s2.fiber_in), dtype=np.complex128)
    for k in range(max(0, -lag), min(s1.degree, top - lag) + 1):
        acc += adj(s1.coeffs[k]) @ s2.coeffs[k + lag]
    return acc


def symbol_is_inner(s: TwistedSymbol):
    """Whether M_phi R is isometric: sum_k C_k* C_{k+j} = delta_{j0} I.

    The rotation is unitary, so only the coefficient Toeplitz test matters:
    these are the Laurent sums `gram_coeff`, which the lift verifiers also
    read for V*V = I on the interior degrees.  Returns (bool, worst residual).
    """
    worst = 0.0
    for j in range(s.degree + 1):
        target = eye(s.fiber_in) if j == 0 else 0.0
        worst = max(worst, frob(gram_coeff(s, s, j) - target))
    return worst <= 1e-12, worst


# `symbol_norm`: an eigenvalue of the level-set pencil within UNIMODULAR_WINDOW
# of the unit circle (in |lambda| - 1) is a crossing, and the iteration stops
# once the level best * (1 + 2 LEVEL_EPS) has none; that level is the value.
UNIMODULAR_WINDOW = 1e-8
LEVEL_EPS = 1e-12
_MAX_LEVELS = 64


def _pencil_eigvals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The eigenvalues lambda of the pencil (a, b) that can lie within
    UNIMODULAR_WINDOW of the unit circle, by a shift-invert: for sigma off
    the pencil's spectrum, det(a - lambda b) = 0 exactly when nu = 1 /
    (lambda - sigma) is an eigenvalue of (a - sigma b)^{-1} b, and an
    infinite lambda (b singular) is nu = 0.  The first shift whose solve
    succeeds with every |nu| <= 1 / UNIMODULAR_WINDOW (no eigenvalue within
    the window of sigma) is used.  The nu with |lambda - sigma| > 2 + |sigma|,
    the infinite ones among them, lie off the window of the circle and are
    dropped before the division.  Raises MaxIterationsExceededError when no
    shift qualifies.
    """
    # |sigma| = 1/2 and 2, off the circle where the crossings are, at angles
    # that are no rational multiple of pi: off the rays through the roots of
    # unity, where rotation-symmetric symbols put their pencil eigenvalues
    for sigma in (0.5 * np.exp(1j), 0.5 * np.exp(3j), 0.5 * np.exp(5j),
                  2.0 * np.exp(1j), 2.0 * np.exp(3j), 2.0 * np.exp(5j)):
        try:
            nu = np.linalg.eigvals(np.linalg.solve(a - sigma * b, b))
        except np.linalg.LinAlgError:
            continue
        if np.abs(nu).max() <= 1.0 / UNIMODULAR_WINDOW:
            nu = nu[np.abs(nu) * (2.0 + abs(sigma)) >= 1.0]
            return sigma + 1.0 / nu
    raise MaxIterationsExceededError(
        "symbol norm: every shift of the level-set pencil lies within "
        f"{UNIMODULAR_WINDOW:g} of an eigenvalue or gives a singular solve")


def symbol_norm(s: TwistedSymbol) -> float:
    """||phi||_inf = max_{|z|=1} sigma_max(phi(z)), the norm of M_phi R_rot on
    the untruncated Hardy space, which bounds the norm of every finite
    section, read from above: the value is a certified upper bound within
    2 LEVEL_EPS (relative) of it.  Its cost depends on the degree p and the
    fiber f only.

    Level-set iteration (Boyd & Balakrishnan, Systems & Control Letters 15,
    1990): gamma is a singular value of phi(z) at |z| = 1 exactly when z is a
    root of z^p (gamma^2 I - sum_s G_s z^s), G_s the Laurent coefficients
    `gram_coeff(phi, phi, s)` of phi* phi on the circle.  Its roots are the
    eigenvalues of a 2pf x 2pf companion pencil (infinite where G_p is
    singular).  Starting from the best sigma_max on 2p + 2 equispaced points,
    each level best * (1 + 2 LEVEL_EPS) with crossings (eigenvalues within
    UNIMODULAR_WINDOW of the circle) raises best to the largest sigma_max at
    the midpoints of the arcs between them (Bruinsma & Steinbuch, Systems &
    Control Letters 14, 1990).  The first level without crossings lies above
    sigma_max on the whole circle and is returned.  The pencil is solved by
    `_pencil_eigvals`.  Raises MaxIterationsExceededError after _MAX_LEVELS
    levels, or where no shift of the pencil qualifies.
    """
    if s.degree == 0:
        return opnorm(s.coeffs[0])
    coeffs = np.array(s.coeffs)
    scale = float(np.abs(coeffs).max()) if coeffs.size else 0.0
    if scale == 0.0:
        return 0.0
    scaled = TwistedSymbol(s.rot, tuple(coeffs / scale))
    p, f = s.degree, s.fiber_in
    powers = np.arange(p + 1)

    def sigma(theta: np.ndarray) -> float:
        values = np.tensordot(np.exp(1j * np.outer(theta, powers)), scaled.coeffs, axes=1)
        return float(matcore.stack_opnorms(values).max(initial=0.0))

    best = sigma(2 * np.pi * np.arange(2 * p + 2) / (2 * p + 2))
    # first companion form of sum_i A_i z^i, A_i = gamma^2 I [i = p] - G_{i-p}:
    # identity blocks above the diagonal, -A_0 .. -A_{2p-1} in the last block
    # row, and A_{2p} = -G_p in the last diagonal block of the right side
    m = 2 * p * f
    a = np.eye(m, k=f, dtype=np.complex128)
    a[m - f:] = np.hstack([gram_coeff(scaled, scaled, i - p) for i in range(2 * p)])
    b = eye(m)
    b[m - f:, m - f:] = -gram_coeff(scaled, scaled, p)
    middle = a[m - f:, p * f:(p + 1) * f].copy()
    for _ in range(_MAX_LEVELS):
        level = best * (1.0 + 2.0 * LEVEL_EPS)
        a[m - f:, p * f:(p + 1) * f] = middle - level ** 2 * eye(f)
        lam = _pencil_eigvals(a, b)
        near = np.abs(np.abs(lam) - 1.0) <= UNIMODULAR_WINDOW
        if not near.any():
            return scale * level
        theta = np.sort(np.angle(lam[near]))
        mids = (theta + np.roll(theta, -1)) / 2.0
        mids[-1] += np.pi
        best = max(best, sigma(mids))
    raise MaxIterationsExceededError(
        f"symbol norm: crossings remain after {_MAX_LEVELS} levels; best {scale * best:.17g}")


@dataclass(frozen=True)
class TruncOperator:
    """A materialized operator (a dense matrix) with its truncation metadata."""

    matrix: np.ndarray
    domain: object    # TruncHardy or plain dimension
    codomain: object


def materialize(s: TwistedSymbol, n: int) -> TruncOperator:
    """Dense matrix of M_phi R_rot on TruncHardy(fiber, n).

    Monomial action: z^j (x) xi  |->  sum_k rot^j z^{j+k} (x) C_k xi,
    coefficients beyond degree n dropped: block (j+k, j) is rot^j C_k, the
    phase from `phases`.  Every other entry is +0.
    """
    if n < s.degree:
        raise DimensionMismatchError(f"truncation {n} below symbol degree {s.degree}")
    fi, fo = s.fiber_in, s.fiber_out
    mat = np.zeros(((n + 1) * fo, (n + 1) * fi), dtype=np.complex128)
    blocks = mat.reshape(n + 1, fo, n + 1, fi)
    phase = phases(s.rot, n)
    for k, c in enumerate(s.coeffs):
        j = np.arange(n + 1 - k)
        blocks[j + k, :, j, :] = phase[j, None, None] * c
    mat += 0.0                  # a product -0 becomes +0
    return TruncOperator(mat, TruncHardy(fi, n), TruncHardy(fo, n))


def obs_op(t: np.ndarray, dstar: DefectData, n: int) -> TruncOperator:
    """Observability column H -> TruncHardy(D_{T*}): degree-k block
    D_{T*} T*^k in the coordinates of `dstar`, the defect D_{T*} with its
    basis of ran D_{T*}; the degree-0 block is `dstar.coords()` itself."""
    t = matcore.check_contraction(t)
    dim = t.shape[0]
    coords = dstar.coords()
    k = coords.shape[0]
    space = TruncHardy(k, n)
    mat = np.zeros((space.total_dim, dim), dtype=np.complex128)
    block = coords
    tstar = adj(t)
    for deg in range(n + 1):
        mat[deg * k:(deg + 1) * k] = block
        block = block @ tstar
    return TruncOperator(mat, dim, space)


def defect_tail_norm(t: np.ndarray, n: int) -> float:
    """||D_{T*} T*^{n+1}||: the truncation error of the observability column.

    Sharper than ||T*^{n+1}|| when T has a unitary part, on which the defect
    vanishes; this is the quantity that actually bounds the missing
    degree-(n+1) coefficient.
    """
    t = as_cmatrix(t)
    d_star = matcore.psd_sqrt(eye(t.shape[0]) - t @ adj(t))
    return opnorm(d_star @ np.linalg.matrix_power(adj(t), n + 1))


def choose_trunc(t: np.ndarray, max_degree: int = 512) -> int:
    """Smallest n with ||T*^{n+1}|| < 1e-10."""
    tstar = adj(as_cmatrix(t))
    power = tstar
    for n in range(max_degree + 1):
        if opnorm(power) < 1e-10:
            return n
        power = power @ tstar
    raise TailTooLargeError(
        f"no truncation below {max_degree} reaches tail 1.0e-10")


def _column_norm_scale(mat: np.ndarray) -> float:
    """max(1, largest column 2-norm of `mat`), each entry's re^2 + im^2
    summed down its column without a rounded |entry| in between.  Every
    column norm is at most ||A||, so a tolerance scaled by this is at least
    as strict as one scaled by the spectral max(1, ||A||)."""
    sq = (mat.real ** 2 + mat.imag ** 2).sum(axis=0)
    return max(1.0, float(np.sqrt(sq.max(initial=0.0))))


def extract_symbol(a: TruncOperator, q: complex, tol: float = 1e-10):
    """Read off phi from an operator in the q-commutant of the shift.

    Precondition (checked on degrees <= N-1): A M_z = q M_z A.  The Taylor
    coefficients are A's action on the degree-0 block; returns the symbol and
    the restricted reconstruction residual, measured in Frobenius norm.
    A M_z on degree j is A on degree j+1, and M_z moves A's rows one degree
    down, so the precondition is read from slices of A's dense matrix.  The
    precondition and the degree cutoff on the coefficients are gated at
    tol * max(1, largest column norm of A): a lower bound for ||A|| that costs
    one pass over the entries instead of an SVD, so both gates are at least
    as strict as at tol * max(1, ||A||), and the same on a contraction, where
    both scales are 1.
    """
    if not isinstance(a.domain, TruncHardy) or a.domain != a.codomain:
        raise DimensionMismatchError("extract_symbol needs an endomorphism of TruncHardy")
    space = a.domain
    n, f = space.max_degree, space.fiber_dim
    mat = as_cmatrix(a.matrix)
    mz_a = np.zeros_like(mat[:, :n * f])                # M_z A on degrees <= N-1
    mz_a[f:] = mat[:len(mat) - f, :n * f]
    pre = frob(mat[:, f:] - q * mz_a)
    scale = _column_norm_scale(mat)
    if pre > tol * scale:
        raise NotQCommutantError(
            f"||A Mz - q Mz A||_F = {pre:.3e} on degrees <= {n - 1}")
    coeffs = [mat[k * f:(k + 1) * f, :f] for k in range(n + 1)]
    deg = 0
    for k in range(n, 0, -1):
        if frob(coeffs[k]) > tol * scale:
            deg = k
            break
    sym = TwistedSymbol(q, tuple(coeffs[:deg + 1]))
    resid = frob((mat - materialize(sym, n).matrix)[:, space.low(n - deg)])
    return sym, resid
