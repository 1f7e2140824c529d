"""Complex-matrix primitives used by every other module.

Operators are complex128 numpy arrays, except the lift-space operators, which
are held in block form (`lifts.LiftOperator`) and never materialized by the
verifiers.  Identity residuals whose true value is 0 are gated on `frob`,
never below the spectral norm; `opnorm` is kept where the spectral norm
itself is gated.  A tolerance scale needs only a lower bound for the norm,
which keeps its gate at least as strict (`hardy.extract_symbol` takes the
largest column norm).  The norms of lift-space operators come from their
symbols (`hardy.symbol_norm`).
`rank_gap` decides a rank at an absolute cutoff and reports its
singular-value margin; the lift minimality proofs use it on dim-sized blocks,
and `greedy_orbit_rank`, which grows a basis on the whole space, is left to
joint orbits and test oracles.
Subspaces are wrapped in :class:`SubspaceBasis`, which checks orthonormality
once at construction.
All routines are pure and deterministic: random input never enters here, and
the one genuinely non-canonical construction (completing a partial isometry
to a unitary) is pinned to a fixed pivoted-QR convention so results are
reproducible across runs.  That pivoted QR is the one routine here that
imports scipy, when it is called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    MaxIterationsExceededError,
    NegativeEigenvalueError,
    NotContractionError,
    NotHermitianError,
    NotIsometricOnSourceError,
    ParseError,
)

EPS = float(np.finfo(np.float64).eps)


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frob(a: np.ndarray) -> float:
    """Frobenius norm; 0 for empty matrices.  ||A||_2 <= ||A||_F, so a
    residual gated on `frob` is held at least as strictly as on `opnorm`."""
    return float(np.linalg.norm(a)) if a.size else 0.0


def opnorm(a: np.ndarray) -> float:
    """Spectral norm of a 2-D array; 0 for empty matrices.

    The largest singular value from `np.linalg.svd` (values only), the same
    bits `np.linalg.norm(a, 2)` returns without that function's axis
    handling.  On the lift paths it is kept only where `frob` would loosen a
    check or change its meaning: the dense intertwining residuals on the rows
    the truncation keeps exact, and the discriminator lower bound of
    `lifts.nonisolifts_fixture`.
    """
    return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0


def stack_opnorms(a: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a (k, m, n) stack, from one batched SVD;
    0 for empty matrices."""
    return np.linalg.svd(a, compute_uv=False)[:, 0] if a.size else np.zeros(len(a))


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def as_cmatrix(data) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array; ParseError on a non-finite
    entry."""
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ParseError("matrix entries must be finite")
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + adj(a)) / 2.0


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of C^ambient_dim."""

    columns: np.ndarray

    def __post_init__(self):
        cols = as_cmatrix(self.columns)
        object.__setattr__(self, "columns", cols)
        k = cols.shape[1]
        if k:
            gram = adj(cols) @ cols
            if frob(gram - eye(k)) > 1e-12 * max(1.0, np.sqrt(k)):
                raise NotIsometricOnSourceError(
                    f"basis columns not orthonormal: residual {frob(gram - eye(k)):.3e}")

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def projector(self) -> np.ndarray:
        return self.columns @ adj(self.columns)


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize as {"rows", "cols", "data": [[re, im], ...]} row-major."""
    a = np.ascontiguousarray(as_cmatrix(a))
    data = a.view(np.float64).reshape(-1, 2).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json; ParseError on missing keys or malformed entries."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix JSON: {type(exc).__name__}: {exc}") from exc
    if rows < 0 or cols < 0 or not np.isfinite(flat).all():
        raise ParseError(f"malformed matrix JSON: size {rows}x{cols} or a non-finite entry")
    if flat.size != rows * cols:
        raise DimensionMismatchError(
            f"matrix JSON: {rows}x{cols} needs {rows * cols} entries, got {flat.size}")
    return flat.reshape(rows, cols)


def _checked_eigh(h: np.ndarray):
    """Eigendecomposition of a Hermitian matrix with PSD clamping.

    Eigenvalues in [-clamp_tol, 0) are clamped to 0, clamp_tol =
    1e-10 * max(1, ||H||_F); anything below -clamp_tol raises.  Returns
    (clamped eigenvalues ascending, eigenvectors).
    """
    h = as_cmatrix(h)
    scale = frob(h)
    if frob(h - adj(h)) > 1e-12 * max(1.0, scale):
        raise NotHermitianError(
            f"matrix not Hermitian: asymmetry {frob(h - adj(h)):.3e} vs norm {scale:.3e}")
    clamp_tol = 1e-10 * max(1.0, scale)
    if h.shape[0] == 0:
        return np.zeros(0), h.copy()
    w, v = np.linalg.eigh(hermitize(h))
    if w[0] < -clamp_tol:
        raise NegativeEigenvalueError(
            f"eigenvalue {w[0]:.3e} below -clamp_tol (-{clamp_tol:.3e})")
    w = np.where(w < 0.0, 0.0, w)
    return w, v


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S with S^2 = H (after clamping roundoff).

    Eigenvalues in [-1e-10 * max(1, ||H||_F), 0) are treated as roundoff and
    set to 0; anything below raises NegativeEigenvalueError.
    """
    w, v = _checked_eigh(h)
    s = (v * np.sqrt(w)) @ adj(v)
    return hermitize(s)


def psd_sqrt_norm(h: np.ndarray) -> float:
    """||psd_sqrt(h)||, the root of the largest clamped eigenvalue of h, from
    the same checked eigendecomposition (so the same errors are raised)."""
    w, _ = _checked_eigh(h)
    return float(np.sqrt(w[-1])) if w.size else 0.0


def check_contraction(t: np.ndarray) -> np.ndarray:
    t = as_cmatrix(t)
    if t.shape[0] != t.shape[1]:
        raise DimensionMismatchError("contraction must be square")
    nrm = opnorm(t)
    if nrm > 1.0 + 1e-10:
        raise NotContractionError(f"operator norm {nrm:.12f} exceeds 1 + 1.0e-10")
    return t


def defect(t: np.ndarray):
    """Defect operator D = (I - T*T)^{1/2} and an orthonormal basis of ran D.

    The basis columns are eigenvectors of D with eigenvalue above the rank
    cutoff, ordered by decreasing eigenvalue.  The cutoff is the rank
    convention dim * eps * ||D|| raised to the noise floor of the square
    root: roundoff accumulated in I - T*T surfaces as sqrt(eps)-sized
    eigenvalues of D near an isometry, so anything below
    sqrt(256 * dim * eps * max(1, ||I - T*T||)) is indistinguishable from 0.
    The factor 256 keeps the cutoff safely above the measured matmul
    accumulation noise, which otherwise straddles it and lets the product
    defect keep a junk direction the factor defects drop.
    """
    t = check_contraction(t)
    n = t.shape[0]
    h = eye(n) - adj(t) @ t
    w, v = _checked_eigh(h)
    sqw = np.sqrt(w)
    d = hermitize((v * sqw) @ adj(v))
    cutoff = max(n * EPS * (sqw[-1] if n else 0.0),
                 np.sqrt(256.0 * n * EPS * max(1.0, frob(h))))
    order = np.argsort(sqw)[::-1]
    keep = [i for i in order if sqw[i] > cutoff]
    basis = SubspaceBasis(v[:, keep] if keep else np.zeros((n, 0), dtype=np.complex128))
    return d, basis


def complement_basis(projector: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic orthonormal basis of ran(I - projector).

    Pivoted QR of (I - projector) applied to the standard basis; the first
    `dim` Q-columns (pivot order) span the complement.
    """
    # numpy's QR has no column pivoting; importing scipy here keeps it off
    # the start-up of every command that completes no unitary
    import scipy.linalg

    n = projector.shape[0]
    if dim == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    qmat, _, _ = scipy.linalg.qr(eye(n) - projector, pivoting=True)
    return np.ascontiguousarray(qmat[:, :dim])


def check_partial_isometry(source: SubspaceBasis, target: SubspaceBasis,
                           partial: np.ndarray) -> np.ndarray:
    """`partial` applied to the source columns, checked to map them
    isometrically into the span of the target (both residuals at 1e-10).
    These are the input checks of :func:`complete_to_unitary`, which a caller
    can run on their own before it completes the map."""
    if source.ambient_dim != target.ambient_dim:
        raise DimensionMismatchError("source and target live in different ambient spaces")
    if source.dim != target.dim:
        raise DimensionMismatchError(
            f"source dim {source.dim} != target dim {target.dim}")
    ps = as_cmatrix(partial) @ source.columns
    if source.dim:
        iso_res = frob(adj(ps) @ ps - eye(source.dim))
        range_res = frob(ps - target.projector() @ ps)
        if iso_res > 1e-10 or range_res > 1e-10:
            raise NotIsometricOnSourceError(
                f"partial map not isometric onto target: isometry residual "
                f"{iso_res:.3e}, range residual {range_res:.3e}")
    return ps


def complete_to_unitary(source: SubspaceBasis, target: SubspaceBasis,
                        partial: np.ndarray) -> np.ndarray:
    """Extend a partial isometry (source subspace -> target subspace) to a unitary.

    `partial` acts on the ambient space and must map the source columns
    isometrically into the span of the target.  The complements are matched in
    the deterministic pivoted-QR order from :func:`complement_basis`.
    """
    ps = check_partial_isometry(source, target, partial)
    n, k = source.ambient_dim, source.dim
    u = ps @ adj(source.columns)
    m = n - k
    if m:
        comp_s = complement_basis(source.projector(), m)
        comp_t = complement_basis(target.projector(), m)
        u = u + comp_t @ adj(comp_s)
    res = frob(adj(u) @ u - eye(n))
    if res > 1e-12 * max(1.0, n):
        raise NotIsometricOnSourceError(f"completion failed to be unitary: {res:.3e}")
    return u


def power_limit(t: np.ndarray, tol: float = 1e-12, max_doublings: int = 64) -> np.ndarray:
    """Limit of T^n T*^n, computed on the subsequence n = 2^k.

    The full sequence is monotone decreasing PSD, so sampling powers of two
    converges to the same limit; repeated squaring keeps everything bounded
    since ||T|| <= 1.
    """
    t = check_contraction(t)
    b = t
    a = b @ adj(b)
    gap = np.inf
    for _ in range(max_doublings):
        b = b @ b
        a_next = b @ adj(b)
        gap = frob(a_next - a)
        a = a_next
        if gap < tol:
            return hermitize(a)
    raise MaxIterationsExceededError(
        f"power limit not converged after {max_doublings} doublings; last gap {gap:.3e}")


def stein_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X = sum_{k>=0} a^k c b^k, the solution of the Stein equation X - aXb = c.

    Doubling: after j steps x holds the first 2^j terms and the remainder is
    exactly a^(2^j) X b^(2^j), so stopping once ||a^(2^j)||_F ||b^(2^j)||_F
    <= eps drops at most eps ||X||.
    """
    x = c
    for _ in range(64):
        if frob(a) * frob(b) <= EPS:
            return x
        x = x + a @ x @ b
        a, b = a @ a, b @ b
    raise MaxIterationsExceededError(
        "Stein sum not converged after 64 doublings; "
        f"||a^(2^j)||_F ||b^(2^j)||_F = {frob(a) * frob(b):.3e}")


def orth_columns(a: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (SVD left vectors) of the column space of a."""
    a = as_cmatrix(a)
    if a.size == 0 or not a.shape[1]:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if rank_tol is None:
        rank_tol = max(a.shape) * EPS * (s[0] if s.size else 0.0)
    r = int(np.sum(s > rank_tol))
    return np.ascontiguousarray(u[:, :r])


def rank_gap(a: np.ndarray, rank_tol: float) -> tuple[int, float | None, float | None]:
    """Number of singular values of a above the absolute rank_tol, with the
    smallest kept and the largest dropped one (None where there is none):
    the margin by which the rank is decided."""
    s = np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(0)
    r = int(np.count_nonzero(s > rank_tol))
    return r, (float(s[r - 1]) if r else None), (float(s[r]) if r < s.size else None)


def numerical_rank(a: np.ndarray, rank_tol: float | None = None) -> int:
    """Number of singular values of a above rank_tol times the largest one.

    The cut is relative, unlike the absolute cutoffs of `orth_columns` and
    `greedy_orbit_rank`; without rank_tol it is max(shape)·eps·s_max.
    """
    a = as_cmatrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if rank_tol is None:
        rank_tol = max(a.shape) * EPS * (s[0] if s.size else 0.0)
    else:
        rank_tol = rank_tol * (s[0] if s.size else 0.0)
    return int(np.sum(s > rank_tol))


def greedy_orbit_rank(ops, seed_columns: np.ndarray) -> int:
    """Dimension of span{op_{i1}...op_{ik} seed} by greedy re-orthogonalization.

    Grows an orthonormal basis one application at a time, discarding
    directions below the absolute cutoff 1e-8, for at most n + 1 rounds on
    C^n.  `ops` is a single matrix or an iterable of them (joint orbit).  It
    measures the joint orbits of `lifts.nonisolifts_fixture` and is the test
    oracle of the lift minimality proof (`lifts.orbit_dimension`); its basis
    is an n x n buffer, so the verifiers do not call it on the lift space.
    """
    if isinstance(ops, np.ndarray):
        ops = [ops]
    ops = [as_cmatrix(o) for o in ops]
    n = seed_columns.shape[0]
    frontier = orth_columns(seed_columns, rank_tol=1e-8)
    # the basis fills the leading columns of one buffer; pages of columns
    # never written are never touched
    buf = np.empty((n, n), dtype=np.complex128, order="F")
    r = frontier.shape[1]
    buf[:, :r] = frontier
    for _ in range(n + 1):
        if r >= n or frontier.shape[1] == 0:
            break
        basis = buf[:, :r]
        images = np.hstack([op @ frontier for op in ops]) if ops else frontier
        # basis* x as (basis^T conj(x))*: conjugates the k new columns, not the basis
        resid = images - basis @ (basis.T @ images.conj()).conj()
        # second projection pass guards against loss of orthogonality
        resid = resid - basis @ (basis.T @ resid.conj()).conj()
        frontier = orth_columns(resid, rank_tol=1e-8)
        k = frontier.shape[1]
        if k == 0:
            break
        if r + k >= n:
            # the span is full; rounding can even leave more than n - r
            # directions above the absolute cutoff, and all of them count
            return r + k
        buf[:, r:r + k] = frontier
        r += k
    return r

