"""Dense complex linear algebra kernel.

Products, adjoints, norms, Hermitian eigendecomposition, fractional powers of
positive semidefinite matrices, and orthonormal subspace algebra. Every
operation is a pure function of validated inputs; equality and rank decisions
are toleranced relative to the scale of the operands, never absolutely.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, EmptySubspace, NotHermitian, NotPSD

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOLERANCES",
    "HermitianEigen",
    "Subspace",
    "as_operator",
    "adjoint",
    "frobenius_norm",
    "finite_frobenius_norm",
    "operator_norm",
    "spectral_radius",
    "hermitian_eigen",
    "psd_defect",
    "psd_power",
    "matrix_power",
    "kernel",
    "subspace_intersect",
    "preimage_in",
    "compress",
    "matrix_hash",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative tolerance knobs shared across the package.

    tol_psd       least-eigenvalue slack for PSD decisions
    tol_eq        Frobenius slack for matrix equalities
    tol_rank      singular-value cutoff for rank and kernel decisions
    tol_recon     reconstruction slack for factorizations and bases
    tol_decision  class-membership decision band (membership module)

    Every bound is applied relative to max(1, norm of the relevant matrix),
    so all decisions are invariant under positive scaling of the input.
    """

    tol_psd: float = 1e-10
    tol_eq: float = 1e-10
    tol_rank: float = 1e-10
    tol_recon: float = 1e-9
    tol_decision: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("tol_psd", "tol_eq", "tol_rank", "tol_recon", "tol_decision"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")

    def to_json_dict(self) -> dict:
        return {
            "tol_psd": self.tol_psd,
            "tol_eq": self.tol_eq,
            "tol_rank": self.tol_rank,
            "tol_recon": self.tol_recon,
            "tol_decision": self.tol_decision,
        }


DEFAULT_TOLERANCES = TolerancePolicy()


def as_operator(a) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionMismatch("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(a).conj().T


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def finite_frobenius_norm(a) -> float:
    """The Frobenius norm; ValueError, and no numpy warning, when it
    overflows a double. Its sum of squares overflows once entries reach
    about 1e154, while the norm itself may still be finite."""
    with np.errstate(over="ignore"):
        size = frobenius_norm(a)
    if not np.isfinite(size):
        raise ValueError("Frobenius norm of the matrix overflows a double")
    return size


# The last matrix operator_norm measured: (shape, bytes of its validated
# complex128 form, its norm). Callers that place one matrix run several
# predicates on it, each scaled by its norm, and take one SVD between them.
# The tuple is read once and replaced whole, so a thread that races another
# can miss, but never reads one matrix's key with another's norm.
_last_norm: tuple = (None, b"", 0.0)


def operator_norm(a) -> float:
    """Largest singular value. A call on a matrix with the same shape and
    bytes as the last one measured returns the value computed for them."""
    global _last_norm
    m = as_operator(a)
    data = m.tobytes()
    shape, last_data, last_value = _last_norm
    if m.shape == shape and data == last_data:
        return last_value
    # np.linalg.norm(m, 2) takes the same maximum, through a slower wrapper.
    value = float(np.linalg.svd(m, compute_uv=False).max())
    _last_norm = (m.shape, data, value)
    return value


def _direct_sum(*blocks: np.ndarray) -> np.ndarray:
    """The block-diagonal complex matrix of the square ``blocks``, any of
    them 0 x 0."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=np.complex128)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus (general, non-Hermitian eigenproblem)."""
    m = as_operator(a)
    return float(np.max(np.abs(np.linalg.eigvals(m))))


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` ascending real, ``eigenvectors`` unitary with the i-th
    column paired to the i-th eigenvalue.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _require_hermitian(m: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """Check Hermitian-ness, then symmetrize to absorb roundoff drift."""
    # Against an infinite norm every residual would pass.
    size = finite_frobenius_norm(m)
    resid = frobenius_norm(m - m.conj().T)
    if resid > tol.tol_eq * max(1.0, size):
        raise NotHermitian(f"Hermitian residual {resid:.3e} beyond tolerance")
    return (m + m.conj().T) / 2.0


def hermitian_eigen(a, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian when the input is not Hermitian within ``tol_eq``
    relative to its Frobenius norm, and ValueError when that norm overflows
    a double.
    """
    m = _require_hermitian(as_operator(a), tol)
    w, v = np.linalg.eigh(m)
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


def psd_defect(a, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> float:
    """Least eigenvalue of a Hermitian matrix.

    The matrix counts as PSD when the returned value is at least
    ``-tol_psd * max(1, operator norm)``.
    """
    eig = hermitian_eigen(a, tol)
    return float(eig.eigenvalues[0])


def psd_power(a, p: float, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Fractional power of a PSD matrix via its eigendecomposition.

    Eigenvalues within ``-tol_psd`` of zero are clamped to zero so the result
    stays PSD under roundoff; anything more negative raises NotPSD.
    """
    if p <= 0:
        raise ValueError("power must be positive")
    eig = hermitian_eigen(a, tol)
    w = eig.eigenvalues
    top = float(np.max(np.abs(w))) if w.size else 0.0
    if w[0] < -tol.tol_psd * max(1.0, top):
        raise NotPSD(f"least eigenvalue {w[0]:.3e} beyond PSD tolerance")
    wp = np.clip(w, 0.0, None) ** p
    v = eig.eigenvectors
    out = (v * wp) @ v.conj().T
    return (out + out.conj().T) / 2.0


def matrix_power(a, n: int) -> np.ndarray:
    """n-th power by repeated squaring; the zeroth power is the identity."""
    m = as_operator(a)
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    return np.linalg.matrix_power(m, n)


@dataclass(frozen=True)
class Subspace:
    """Subspace of C^n given by an orthonormal column basis (n x r, r >= 0)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise DimensionMismatch("subspace dimension exceeds ambient dimension")
        if b.shape[1] > 0:
            gram = b.conj().T @ b
            if frobenius_norm(gram - np.eye(b.shape[1])) > DEFAULT_TOLERANCES.tol_recon * max(
                1.0, frobenius_norm(gram)
            ):
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement(self) -> "Subspace":
        n, r = self.ambient_dim, self.dim
        if r == 0:
            return Subspace(n, np.eye(n, dtype=np.complex128))
        if r == n:
            return Subspace(n, np.zeros((n, 0), dtype=np.complex128))
        try:
            u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        except np.linalg.LinAlgError:
            # gesdd can fail to converge even on an orthonormal basis;
            # LAPACK's QR-iteration SVD, gesvd, converges on the same input.
            u, _, _ = scipy.linalg.svd(self.basis, full_matrices=True, lapack_driver="gesvd")
        return Subspace(n, u[:, r:])

    def contains(self, other: "Subspace", tol: float) -> bool:
        """Whether ``other`` lies inside this subspace up to principal angle
        sine ``tol``."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        if other.dim == 0:
            return True
        resid = other.basis - self.projector() @ other.basis
        return bool(np.linalg.norm(resid, 2) <= tol)

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, np.eye(n, dtype=np.complex128))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, np.zeros((n, 0), dtype=np.complex128))


def _kernel_basis(m: np.ndarray, tol: TolerancePolicy, rank_floor: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space of a p x n matrix.

    The singular-value cutoff is ``tol_rank * max(sigma_max, rank_floor)``;
    the floor lets callers anchor the cut to an outer scale when the matrix
    itself is a residual that may be uniformly tiny.
    """
    p, n = m.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if not m.any():
        return np.eye(n, dtype=np.complex128)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    cutoff = tol.tol_rank * max(smax, rank_floor)
    keep = np.zeros(n, dtype=bool)
    keep[: s.size] = s <= cutoff
    keep[s.size :] = True
    return vh[keep].conj().T


def kernel(a, tol: TolerancePolicy = DEFAULT_TOLERANCES, *, rank_floor: float = 0.0) -> Subspace:
    """Numerical null space from the SVD.

    Right singular vectors with singular value at most
    ``tol_rank * max(sigma_max, rank_floor)`` span the kernel; a zero matrix
    yields the full space.
    """
    m = as_operator(a)
    return Subspace(m.shape[0], _kernel_basis(m, tol, rank_floor))


def subspace_intersect(
    u: Subspace, v: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> Subspace:
    """Intersection computed as the kernel of the stacked complementary
    projections [(I - P_U); (I - P_V)]."""
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = u.ambient_dim
    eye = np.eye(n, dtype=np.complex128)
    stacked = np.vstack([eye - u.projector(), eye - v.projector()])
    # Projector stacks have unit natural scale even when numerically zero.
    return Subspace(n, _kernel_basis(stacked, tol, rank_floor=1.0))


def preimage_in(a, v: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> Subspace:
    """The subspace {x : A x in V}, as the kernel of (I - P_V) A."""
    m = as_operator(a)
    if m.shape[0] != v.ambient_dim:
        raise DimensionMismatch("matrix and subspace dimensions differ")
    resid = (np.eye(v.ambient_dim, dtype=np.complex128) - v.projector()) @ m
    floor = max(1.0, float(np.linalg.norm(m, 2)))
    return Subspace(v.ambient_dim, _kernel_basis(resid, tol, rank_floor=floor))


def compress(a, v: Subspace) -> np.ndarray:
    """Compression Q* A Q of A to the subspace with basis Q."""
    m = as_operator(a)
    if m.shape[0] != v.ambient_dim:
        raise DimensionMismatch("matrix and subspace dimensions differ")
    if v.dim == 0:
        raise EmptySubspace("cannot compress to a zero-dimensional subspace")
    return v.basis.conj().T @ m @ v.basis


def matrix_hash(a) -> str:
    """SHA-256 of the canonical little-endian byte layout of a matrix."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    h = hashlib.sha256()
    h.update(str(m.shape).encode())
    h.update(m.astype("<c16", copy=False).tobytes())
    return h.hexdigest()
