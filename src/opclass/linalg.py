"""Dense complex linear algebra kernel.

Products, adjoints, norms, Hermitian eigendecomposition, fractional powers of
positive semidefinite matrices, and orthonormal subspace algebra. Every
operation is a pure function of validated inputs; equality and rank decisions
are toleranced relative to the scale of the operands, never absolutely.

The package's LAPACK work goes through the private kernels below (``_svd``,
``_svdvals``, ``_eigh``, ``_eigvalsh``, ``_eigvals``, ``_haar_qr``) and its
powers and Frobenius norms through ``_matrix_power`` and ``_frobenius``: no
other module calls numpy's factorizations. Each kernel calls the
``numpy.linalg._umath_linalg`` gufunc, with the signature, that numpy's
public function calls on a complex128 array, inside the errstate that
function sets, and does the same arithmetic around it. So every output is
numpy's bit for bit, a LAPACK failure raises ``np.linalg.LinAlgError`` with
numpy's message, and a NaN that overflow leaves passes with no warning; what
the kernels skip is numpy's per-call wrapping (array conversion, dtype
dispatch, result namedtuples). They take complex128 matrices, or stacks of
them, as the callers hold them. Each errstate is one numpy error state,
built once at import; a kernel sets numpy's error-state context variable
to it around its gufunc and resets it after, as ``np.errstate`` does on
every call, so the caller's state is back whether the kernel returns or
raises.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy._core.umath import _extobj_contextvar as _errstate
from numpy._core.umath import _make_extobj
from numpy.linalg import _umath_linalg as _gufuncs

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
    "operator_svd",
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

    Every bound is applied relative to max(1, norm of the relevant
    matrix)^degree, degree being that of the residual or defect in the
    matrix; ``_scale`` computes that factor, and every such band of the
    package reads it. Decisions are therefore invariant under positive
    scaling only for matrices of norm at least 1: below it the band stays
    at its value for norm 1. So 1e-6 times a 3x3 index-2 Jordan nilpotent reads normal,
    and a unit-norm 4x4 Ginibre matrix that ``classify_all`` reads
    NonMember in all sixteen classes reads NonMember in two of them at
    norm 1e-5 (ROADMAP item 12).
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


def _scale(norm_t: float, degree: float) -> float:
    """max(1, norm_t)^degree, the factor of every band; ValueError when it
    overflows a double or ``norm_t`` is not finite."""
    try:
        scale = max(1.0, norm_t) ** degree
    except OverflowError:
        scale = np.inf
    # max(1, nan) is 1, so a NaN norm needs its own test.
    if scale == np.inf or not math.isfinite(norm_t):
        raise ValueError(f"class scale max(1, ||T||)^{degree:g} overflows at ||T|| = {norm_t:.6g}")
    return scale


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


def _lapack(message: str):
    """numpy.linalg's error state: the gufunc's failure flag (invalid)
    raises LinAlgError(message), and overflow, division and underflow pass
    silently."""

    def failed(err, flag):
        raise np.linalg.LinAlgError(message)

    return _make_extobj(call=failed, invalid="call", over="ignore", divide="ignore",
                        under="ignore")


_SVD_FAILED = _lapack("SVD did not converge")
_EIG_FAILED = _lapack("Eigenvalues did not converge")
_QR_FAILED = _lapack("Incorrect argument found while performing QR factorization")
# numpy's default error state with overflow ignored, for the Frobenius norm.
_OVER_IGNORED = _make_extobj(call=None, divide="warn", over="ignore", under="ignore",
                             invalid="warn")


def _svd(m: np.ndarray, full_matrices: bool = True):
    """np.linalg.svd(m, full_matrices): (U, S, V*)."""
    token = _errstate.set(_SVD_FAILED)
    try:
        return (_gufuncs.svd_f if full_matrices else _gufuncs.svd_s)(m, signature="D->DdD")
    finally:
        _errstate.reset(token)


def _svdvals(m: np.ndarray) -> np.ndarray:
    """np.linalg.svd(m, compute_uv=False): the singular values, descending."""
    token = _errstate.set(_SVD_FAILED)
    try:
        return _gufuncs.svd(m, signature="D->d")
    finally:
        _errstate.reset(token)


def _norm2(m: np.ndarray) -> float:
    """np.linalg.norm(m, 2): the largest singular value."""
    return float(_svdvals(m).max(initial=0.0))


def _eigh(m: np.ndarray):
    """np.linalg.eigh(m): (eigenvalues ascending, eigenvectors), from the
    lower triangle."""
    token = _errstate.set(_EIG_FAILED)
    try:
        return _gufuncs.eigh_lo(m, signature="D->dD")
    finally:
        _errstate.reset(token)


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(m): eigenvalues ascending, from the lower triangle."""
    token = _errstate.set(_EIG_FAILED)
    try:
        return _gufuncs.eigvalsh_lo(m, signature="D->d")
    finally:
        _errstate.reset(token)


def _eigvals(m: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals(m), which rejects a non-finite matrix first."""
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    token = _errstate.set(_EIG_FAILED)
    try:
        return _gufuncs.eigvals(m, signature="D->D")
    finally:
        _errstate.reset(token)


def _haar_qr(z: np.ndarray):
    """Q of np.linalg.qr(z) for a square z, and the diagonal of its R."""
    # qr_r_raw overwrites its input with R and the Householder reflectors.
    a = z.copy()
    token = _errstate.set(_QR_FAILED)
    try:
        tau = _gufuncs.qr_r_raw(a, signature="D->D")
        return _gufuncs.qr_reduced(a, tau, signature="DD->D"), a.diagonal()
    finally:
        _errstate.reset(token)


def _matrix_power(m: np.ndarray, n: int) -> np.ndarray:
    """np.linalg.matrix_power(m, n) for n >= 0, with numpy's products: m @ m,
    (m @ m) @ m, then squarings multiplied in from the lowest bit of n up."""
    if n == 0:
        out = np.empty_like(m)
        out[...] = np.eye(m.shape[-2], dtype=m.dtype)
        return out
    if n == 1:
        return m
    if n == 2:
        return m @ m
    if n == 3:
        return (m @ m) @ m
    z = result = None
    while n > 0:
        z = m if z is None else z @ z
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def _frobenius(m: np.ndarray) -> float:
    """np.linalg.norm(m) of a complex array: the root of the dots of its real
    and its imaginary parts."""
    x = m.ravel(order="K")
    re, im = x.real, x.imag
    return float(np.sqrt(re.dot(re) + im.dot(im)))


def frobenius_norm(a) -> float:
    """The Frobenius norm of ``a`` as a complex array."""
    return _frobenius(np.asarray(a, dtype=np.complex128))


def finite_frobenius_norm(a) -> float:
    """The Frobenius norm; ValueError, and no numpy warning, when it
    overflows a double. Its sum of squares overflows once entries reach
    about 1e154, while the norm itself may still be finite."""
    token = _errstate.set(_OVER_IGNORED)
    try:
        size = frobenius_norm(a)
    finally:
        _errstate.reset(token)
    if not np.isfinite(size):
        raise ValueError("Frobenius norm of the matrix overflows a double")
    return size


# The last matrix seen: (shape, bytes of its validated complex128 form,
# {name: fact}). Callers that place one matrix run several predicates on
# it and take one SVD of each kind between them. The tuple is read once
# and replaced whole, so a thread that races another can miss, but never
# reads one matrix's key with another's facts.
_last: tuple = (None, b"", {})


def _fact(a, name: str, derive):
    """``derive`` of the validated matrix ``a``, remembered under ``name``
    while ``a`` has the shape and bytes of the last matrix seen. Only a
    matrix other than the last one seen is validated: that one passed
    ``as_operator``, and a matrix of its shape and bytes is the same
    matrix."""
    global _last
    m = np.asarray(a, dtype=np.complex128)
    data = m.tobytes()
    shape, last_data, facts = _last
    same = m.shape == shape and data == last_data
    if not same:
        m = as_operator(m)
    elif name in facts:
        return facts[name]
    value = derive(m)
    _last = (m.shape, data, {**facts, name: value} if same else {name: value})
    return value


def operator_norm(a) -> float:
    """Largest singular value. A call on a matrix with the same shape and
    bytes as the last one seen returns the value computed for them."""
    return _fact(a, "norm", _norm2)


def operator_svd(a):
    """numpy's full SVD (U, S, V*), its factors read-only. A call on a matrix
    with the same shape and bytes as the last one seen returns the factors
    computed for them."""

    def read_only(m: np.ndarray):
        factors = _svd(m)
        for f in factors:
            f.setflags(write=False)
        return factors

    return _fact(a, "svd", read_only)


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
    return float(np.max(np.abs(_eigvals(m))))


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
    if resid > tol.tol_eq * _scale(size, 1):
        raise NotHermitian(f"Hermitian residual {resid:.3e} beyond tolerance")
    return (m + m.conj().T) / 2.0


def hermitian_eigen(a, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian when the input is not Hermitian within ``tol_eq``
    relative to its Frobenius norm, and ValueError when that norm overflows
    a double.
    """
    m = _require_hermitian(as_operator(a), tol)
    w, v = _eigh(m)
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
    if w[0] < -tol.tol_psd * _scale(top, 1):
        raise NotPSD(f"least eigenvalue {w[0]:.3e} beyond PSD tolerance")
    wp = np.clip(w, 0.0, None) ** p
    v = eig.eigenvectors
    out = (v * wp) @ v.conj().T
    return (out + out.conj().T) / 2.0


def matrix_power(a, n: int) -> np.ndarray:
    """n-th power by repeated squaring; the zeroth power is the identity."""
    m = as_operator(a)
    try:
        n = operator.index(n)
    except TypeError as e:
        raise TypeError("exponent must be an integer") from e
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    return _matrix_power(m, n)


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
            # An overflowing or NaN basis gives an inf or NaN Gram, which is
            # the basis's fault, not an overflowing class scale.
            with np.errstate(over="ignore", invalid="ignore"):
                gram = b.conj().T @ b
                resid = frobenius_norm(gram - np.eye(b.shape[1]))
                size = frobenius_norm(gram)
            if not np.isfinite(size):
                raise ValueError(f"basis Gram has non-finite size {size}; "
                                 "basis columns are not orthonormal")
            if resid > DEFAULT_TOLERANCES.tol_recon * _scale(size, 1):
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
            u, _, _ = _svd(self.basis)
        except np.linalg.LinAlgError:
            # gesdd can fail to converge even on an orthonormal basis;
            # LAPACK's QR-iteration SVD, gesvd, converges on the same input.
            # scipy is imported here, where it is used: importing it costs
            # more than the rest of the package.
            import scipy.linalg

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
        return bool(_norm2(resid) <= tol)

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
    _, s, vh = _svd(m)
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
    floor = _scale(_norm2(m), 1)
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
