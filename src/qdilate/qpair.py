"""Validated q-commuting contraction pairs, corpus generators, cnu splitting.

A QPair is a triple (q, T1, T2) with |q| = 1, both factors contractions and
T1 T2 = q T2 T1.  Generators come in two families, reflecting a hard
finite-dimensional constraint: if both factors are invertible then taking
determinants in T1 T2 = q T2 T1 forces q^n = 1.  Root-of-unity twists are
therefore sampled with unitary clock/shift factors, while arbitrary twists use
a nilpotent factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatchError,
    GeneratorError,
    MixedTwistError,
    NotContractionError,
    NotQCommutingError,
    NotReducingError,
    NotUnimodularError,
    ParseError,
)
from .matcore import SubspaceBasis, adj, as_cmatrix, eye, frob, opnorm


@dataclass(frozen=True)
class QPair:
    q: complex
    t1: np.ndarray
    t2: np.ndarray

    @property
    def dim(self) -> int:
        return self.t1.shape[0]

    def product(self) -> np.ndarray:
        return self.t1 @ self.t2


@dataclass(frozen=True)
class ProductDecomposition:
    unitary_part: SubspaceBasis
    cnu_part: SubspaceBasis
    t_unitary: np.ndarray
    t_cnu: np.ndarray
    q_op: np.ndarray  # Q = (lim T^n T*^n)^{1/2}; ran Q is the unitary part


def validate(q: complex, t1, t2, tol: float = 1e-10) -> QPair:
    """Check all QPair invariants; raise with the violated one and its size."""
    q = complex(q)
    t1 = as_cmatrix(t1)
    t2 = as_cmatrix(t2)
    if t1.shape != t2.shape or t1.shape[0] != t1.shape[1]:
        raise NotQCommutingError(
            f"factors must be square and equal-sized, got {t1.shape} and {t2.shape}")
    if not abs(abs(q) - 1.0) <= 1e-12:
        raise NotUnimodularError(f"|q| = {abs(q):.15f} deviates from 1 by "
                                 f"{abs(abs(q) - 1.0):.3e}")
    for name, t in (("T1", t1), ("T2", t2)):
        nrm = opnorm(t)
        if nrm > 1.0 + tol:
            raise NotContractionError(f"{name} has norm {nrm:.12f} > 1 + {tol:.1e}")
    res = frob(t1 @ t2 - q * (t2 @ t1))
    if res > tol:
        raise NotQCommutingError(f"||T1 T2 - q T2 T1||_F = {res:.3e} > {tol:.1e}")
    return QPair(q, t1, t2)


def adjoint_pair(pair: QPair) -> QPair:
    """(T1*, T2*) q-commutes with the same q; revalidated on construction."""
    return validate(pair.q, adj(pair.t1), adj(pair.t2))


def clock_matrix(n: int, q: complex) -> np.ndarray:
    return np.diag(q ** np.arange(n)).astype(np.complex128)


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic shift e_k -> e_{k+1 mod n}."""
    s = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        s[(k + 1) % n, k] = 1.0
    return s


def truncated_shift(n: int) -> np.ndarray:
    """Nilpotent shift e_k -> e_{k+1}, e_{n-1} -> 0."""
    s = np.zeros((n, n), dtype=np.complex128)
    for k in range(n - 1):
        s[k + 1, k] = 1.0
    return s


def gen_clock_shift(n: int, scale: float = 1.0) -> QPair:
    """Clock/shift pair at the n-th root of unity, optionally scaled.

    T1 = scale * diag(1, q, ..., q^{n-1}), T2 = scale * cyclic shift,
    q = exp(2 pi i / n).  At scale 1 both factors are unitary.
    """
    if n < 1:
        raise GeneratorError("clock-shift needs n >= 1")
    if not 0.0 < scale <= 1.0:
        raise GeneratorError("scale must lie in (0, 1]")
    q = cmath.exp(2j * math.pi / n)
    return validate(q, scale * clock_matrix(n, q), scale * shift_matrix(n))


def gen_nilpotent(n: int, q: complex, c: complex, d: complex) -> QPair:
    """Pair with arbitrary unimodular twist: nilpotent shift times a diagonal.

    T1 = c * (truncated shift), T2 = d * diag(q^{n-1}, ..., q, 1); then
    (shift) (diag) = q (diag) (shift) entrywise, for any q.
    """
    if n < 2:
        raise GeneratorError("nilpotent generator needs n >= 2")
    for name, x in (("c", c), ("d", d)):
        if not abs(x) <= 1:
            raise GeneratorError(f"|{name}| must be <= 1, got {name} = {x}")
    diag = np.diag(np.array([q ** (n - 1 - k) for k in range(n)],
                            dtype=np.complex128))
    return validate(complex(q), c * truncated_shift(n), d * diag)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    qmat, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return qmat * phases


def gen_conjugated(pair: QPair, seed: int):
    """Unitarily conjugated copy (W T1 W*, W T2 W*); returns (pair, W)."""
    rng = np.random.default_rng(seed)
    w = haar_unitary(pair.dim, rng)
    conj = validate(pair.q, w @ pair.t1 @ adj(w), w @ pair.t2 @ adj(w))
    return conj, w


def gen_direct_sum(pairs) -> QPair:
    """Block-diagonal sum of pairs sharing the same twist."""
    pairs = list(pairs)
    if not pairs:
        raise MixedTwistError("direct sum of zero pairs")
    q = pairs[0].q
    for p in pairs[1:]:
        if abs(p.q - q) > 1e-12:
            raise MixedTwistError(f"twists differ: {q} vs {p.q}")
    n = sum(p.dim for p in pairs)
    t1 = np.zeros((n, n), dtype=np.complex128)
    t2 = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for p in pairs:
        block = slice(at, at + p.dim)
        t1[block, block], t2[block, block] = p.t1, p.t2
        at += p.dim
    return validate(q, t1, t2)


def cnu_decompose(t: np.ndarray) -> ProductDecomposition:
    """Split a contraction into its unitary and completely-non-unitary parts.

    The unitary part is ran Q for Q = (lim T^n T*^n)^{1/2}, the power limit
    at tolerance 1e-13: Q^2 is an orthogonal projection in finite dimensions,
    so the eigenvectors of Q above 1/2, by decreasing eigenvalue, are its
    basis, and the other eigenvectors, in the same order, are the basis of
    the cnu part.  The split must reduce T and T must compress to a unitary
    on ran Q, or NotReducingError is raised.
    """
    t = matcore.check_contraction(t)
    q_op = matcore.psd_sqrt(matcore.power_limit(t, tol=1e-13))
    w, v = np.linalg.eigh(q_op)
    order = np.argsort(w)[::-1]
    b_u = v[:, order[w[order] > 0.5]]
    b_c = v[:, order[w[order] <= 0.5]]
    cross1 = opnorm(adj(b_c) @ t @ b_u)
    cross2 = opnorm(adj(b_u) @ t @ b_c)
    if max(cross1, cross2) > 1e-10:
        raise NotReducingError(
            f"ran Q fails to reduce T: residuals {cross1:.3e}, {cross2:.3e}")
    t_u = adj(b_u) @ t @ b_u
    t_c = adj(b_c) @ t @ b_c
    if b_u.shape[1] and frob(adj(t_u) @ t_u - eye(b_u.shape[1])) > 1e-10:
        raise NotReducingError("compression of T to ran Q is not unitary")
    return ProductDecomposition(SubspaceBasis(b_u), SubspaceBasis(b_c), t_u, t_c, q_op)


def pair_to_json(pair: QPair) -> dict:
    return {
        "q": [float(pair.q.real), float(pair.q.imag)],
        "T1": matcore.matrix_to_json(pair.t1),
        "T2": matcore.matrix_to_json(pair.t2),
    }


def pair_from_json(obj: dict, tol: float = 1e-10) -> QPair:
    """Read {"q": [re, im], "T1": matrix, "T2": matrix}; ParseError if malformed."""
    try:
        q = complex(obj["q"][0], obj["q"][1])
        t1 = matcore.matrix_from_json(obj["T1"])
        t2 = matcore.matrix_from_json(obj["T2"])
    except (KeyError, IndexError, TypeError, ValueError, DimensionMismatchError) as exc:
        raise ParseError(f"malformed pair JSON: {type(exc).__name__}: {exc}") from exc
    return validate(q, t1, t2, tol=tol)


def parse_complex(text: str) -> complex:
    """Parse literals like '1', '-0.5', 'i', '0.54+0.84i', '1-2i'."""
    s = text.strip().replace(" ", "").replace("i", "j")
    if not s:
        raise ParseError("empty complex literal")
    if s.endswith("j") and (len(s) == 1 or s[-2] in "+-"):
        s = s[:-1] + "1j"
    try:
        return complex(s)
    except ValueError as exc:
        raise ParseError(f"bad complex literal {text!r}") from exc


def from_spec(spec: str) -> QPair:
    """Build a pair from a generator spec string.

    Grammar: name ":" key "=" value ("," key "=" value)*.  Supported names:
    clock-shift (n, scale), nilpotent (n, q, c, d).  Complex values use
    'a+bi' literals.
    """
    spec = spec.strip()
    if ":" in spec:
        name, _, rest = spec.partition(":")
    else:
        name, rest = spec, ""
    name = name.strip()
    kv = {}
    if rest.strip():
        for item in rest.split(","):
            if "=" not in item:
                raise ParseError(f"expected key=value at {item!r} in {spec!r}")
            key, _, val = item.partition("=")
            kv[key.strip()] = val.strip()
    try:
        if name == "clock-shift":
            n = int(kv.pop("n"))
            scale = float(kv.pop("scale", "1"))
            _reject_extras(name, kv)
            return gen_clock_shift(n, scale)
        if name == "nilpotent":
            n = int(kv.pop("n"))
            q = parse_complex(kv.pop("q"))
            # decimal literals are approximate; snap q onto the circle
            if not abs(abs(q) - 1.0) <= 1e-3:
                raise GeneratorError(f"twist q = {q} is not unimodular")
            q = q / abs(q)
            c = parse_complex(kv.pop("c", "1"))
            d = parse_complex(kv.pop("d", "1"))
            _reject_extras(name, kv)
            return gen_nilpotent(n, q, c, d)
    except KeyError as exc:
        raise ParseError(f"generator {name!r} missing parameter {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad parameter value in {spec!r}: {exc}") from exc
    raise ParseError(f"unknown generator {name!r} (expected clock-shift or nilpotent)")


def _reject_extras(name: str, kv: dict) -> None:
    if kv:
        raise ParseError(f"generator {name!r} got unknown parameters {sorted(kv)}")


CORPUS_TWISTS = {
    "1": 1.0 + 0.0j,
    "-1": -1.0 + 0.0j,
    "i": 1j,
    "w3": cmath.exp(2j * math.pi / 3),
    "e1": cmath.exp(1j),
}


def standard_corpus(seed: int = 0):
    """Named q-commuting pairs covering dims 1..6 and the five corpus twists.

    Deterministic in `seed`; conjugated entries carry their conjugator so
    invariance tests can reuse it.  Returns a list of (name, QPair, W-or-None).
    """
    out = []

    def add(name, pair, w=None):
        out.append((name, pair, w))

    for n in range(1, 7):
        for scale in (1.0, 0.9, 0.5):
            add(f"clock-shift:n={n},scale={scale}", gen_clock_shift(n, scale))
    for n in range(2, 7):
        for qname, q in CORPUS_TWISTS.items():
            for c, d in ((0.8, 0.9), (1.0, 0.7)):
                add(f"nilpotent:n={n},q={qname},c={c},d={d}",
                    gen_nilpotent(n, q, c, d))
    base = [
        gen_clock_shift(3, 0.9),
        gen_nilpotent(3, CORPUS_TWISTS["i"], 0.8, 0.9),
        gen_nilpotent(4, CORPUS_TWISTS["e1"], 1.0, 0.7),
        gen_clock_shift(2, 0.5),
    ]
    for k, p in enumerate(base):
        conj, w = gen_conjugated(p, seed + k)
        add(f"conjugated:{k},seed={seed + k}", conj, w)
    sums = [
        ("sum:clock1+nilp4,q=1",
         [gen_clock_shift(1, 1.0), gen_nilpotent(4, CORPUS_TWISTS["1"], 0.9, 0.8)]),
        ("sum:clock2+nilp3,q=-1",
         [gen_clock_shift(2, 1.0), gen_nilpotent(3, CORPUS_TWISTS["-1"], 0.9, 0.8)]),
        ("sum:clock4+nilp2,q=i",
         [gen_clock_shift(4, 1.0), gen_nilpotent(2, CORPUS_TWISTS["i"], 0.8, 0.8)]),
        ("sum:clock3+nilp3,q=w3",
         [gen_clock_shift(3, 1.0), gen_nilpotent(3, CORPUS_TWISTS["w3"], 0.8, 0.8)]),
    ]
    for name, parts in sums:
        add(name, gen_direct_sum(parts))
    # conjugated mixed sums: unitary-part roundoff is smeared across all
    # entries here, the harshest case for the defect rank cutoffs
    for k, (name, parts) in enumerate(sums[1:3]):
        conj, w = gen_conjugated(gen_direct_sum(parts), seed + 40 + k)
        add(f"conjugated-{name},seed={seed + 40 + k}", conj, w)
    return out
