
import dataclasses

import numpy as np
import pytest
import scipy.linalg

import qdilate as qd


@pytest.fixture(scope="session")
def corpus():
    return qd.standard_corpus(seed=0)


@pytest.fixture(scope="session")
def cnu_corpus(corpus):
    out = []
    for name, pair, w in corpus:
        if qd.cnu_decompose(pair.product()).unitary_part.dim == 0:
            out.append((name, pair, w))
    return out


def rand_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def rand_psd(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T / n


def with_u(tup, u, **changes):
    """`dataclasses.replace(tup, **changes)` with the unitary of the new Ando
    tuple set to `u`, not completed from the new tuple's Lambda and M."""
    new = dataclasses.replace(tup, **changes)
    new.__dict__["u"] = u
    return new


def pivoted_qr_complement(projector, dim):
    """Oracle for `matcore.complement_basis`: the first `dim` columns of the
    column-pivoted QR of I - projector span ran(I - projector)."""
    n = projector.shape[0]
    qmat, _, _ = scipy.linalg.qr(np.eye(n) - projector, pivoting=True)
    return qmat[:, :dim]
