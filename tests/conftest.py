from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def j2() -> np.ndarray:
    return np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.fixture
def j3() -> np.ndarray:
    return np.diag([1.0, 1.0], 1).astype(complex)


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)


def random_normal_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    u = haar(dim, rng)
    eig = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return (u * eig) @ u.conj().T


def dual_families(t: np.ndarray, k: int) -> list:
    """(class name, sphere defect, pencil, sphere scale) for every class of
    the membership registry that takes this k, built as its predicate builds
    them, on one chain of the powers of T."""
    import opclass.membership as membership
    from opclass.linalg import _scale, operator_norm

    norm_t, powers = operator_norm(t), membership._Powers(t)
    return [
        (
            name,
            membership._NormProductDefect.of(terms(np.linalg.svd(t))),
            pencil(),
            _scale(norm_t, degree(k)),
        )
        for name, (least_k, degree, build) in membership._DUAL.items()
        if k >= least_k
        for terms, pencil in [build(powers, k, norm_t)]
    ]
