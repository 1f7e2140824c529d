"""Truncated functional model: the small-N oracle for `model.model_compress`.

The model multipliers and the observability column Pi are materialized on
degrees 0..N and compressed to an orthonormal basis of ran Pi.  Everything
beyond degree N is dropped, so each residual carries an error of the order of
the tail ||T*^{N+1}||; `model_compress` sums all degrees exactly instead.
"""

from dataclasses import dataclass

import numpy as np

from qdilate import hardy, matcore, model
from qdilate.matcore import adj, opnorm

from test_sparse import csr_symbol


def tail_norm(t: np.ndarray, n: int) -> float:
    """||T*^{n+1}||, the truncation-error scale at degree n."""
    return opnorm(np.linalg.matrix_power(adj(t), n + 1))


@dataclass(frozen=True)
class TruncatedCompression:
    m1: np.ndarray
    m2: np.ndarray
    pihat: np.ndarray   # Pi in the orthonormal basis of ran Pi: m_i = pihat K_i pihat*
    trunc: int
    tail: float
    defect: float
    intertwine: tuple   # ||M_i* Pi - Pi T_i*|| on degrees <= N, i = 1, 2


def truncated_compress(pair, n: int | None = None) -> TruncatedCompression:
    """Compress the model multipliers to ran Pi at truncation N (by default
    the smallest N with ||T*^{N+1}|| < 1e-10, at least 4)."""
    an = model.PairAnalysis.of(pair)
    pair, t = an.pair, an.product
    if n is None:
        n = max(hardy.choose_trunc(t), 4)
    fund = an.fundamental
    sym1, sym2 = model.model_symbols(pair.q, fund.g1, fund.g2)
    mat1 = csr_symbol(sym1, n)
    mat2 = csr_symbol(sym2, n)
    obs = hardy.obs_op(t, an.dstar, n).matrix
    b = matcore.orth_columns(obs)
    m1 = adj(b) @ (mat1 @ b)
    m2 = adj(b) @ (mat2 @ b)
    pihat = adj(b) @ obs
    # M* Pi as (Pi* M)*: no conjugate copy of the multiplier
    r1 = opnorm(adj(adj(obs) @ mat1) - obs @ adj(pair.t1))
    r2 = opnorm(adj(adj(obs) @ mat2) - obs @ adj(pair.t2))
    defect = max(opnorm(pihat @ adj(pair.t1) - adj(m1) @ pihat),
                 opnorm(pihat @ adj(pair.t2) - adj(m2) @ pihat))
    return TruncatedCompression(m1, m2, pihat, n, tail_norm(t, n), defect, (r1, r2))
