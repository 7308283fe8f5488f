"""Structural decompositions.

``_assemble`` is the one path from labelled subspaces to a validated
Decomposition: it compresses T to each subspace and raises
DecompositionError for a basis that is not unitary or a reassembly,
normality or nilpotency residual beyond tolerance.

* normal_pure_split: the maximal reducing subspace on which the operator is
  normal, giving the unique normal-part / pure-part splitting. The normal
  part is the span of the reducing eigenvectors of T, read from one
  Hermitian eigendecomposition of Re T + mu Im T; the pure part is its
  complement.
* root_decompose: for a k-quasi-paranormal operator whose n-th power is
  normal, the splitting into a normal summand and a nilpotent summand of
  index at most min(n, k+1).
* nilpotent2_canonical: the adapted basis in which a nonzero operator with
  square zero becomes [[0, C], [0, 0]] padded by zeros, with C positive
  definite.
* rr_assemble / rr_check: assembly and verification of the block form
  A + [[B, C], [0, -B]] whose square is normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from .errors import (
    DecompositionError,
    HypothesisViolated,
    InvalidRRForm,
    NonCommutingProjection,
    NotHermitian,
    NotNilpotentIndex2,
    ZeroOperator,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Subspace,
    TolerancePolicy,
    _direct_sum,
    _eigh,
    _eigvals,
    _scale,
    _svd,
    as_operator,
    compress,
    finite_frobenius_norm,
    frobenius_norm,
    hermitian_eigen,
    kernel,
    matrix_hash,
    matrix_power,
    operator_norm,
)
from .membership import (
    MembershipVerdict,
    Status,
    _power_verdict,
    is_k_quasi_paranormal,
    is_normal,
)
from .matio import matrix_to_json_dict

__all__ = [
    "BlockLabel",
    "Decomposition",
    "RRForm",
    "normal_pure_split",
    "root_decompose",
    "nilpotent2_canonical",
    "rr_assemble",
    "rr_check",
]


class BlockLabel(str, Enum):
    NORMAL = "NormalPart"
    PURE = "PurePart"
    NILPOTENT = "NilpotentPart"


@dataclass(frozen=True)
class RRForm:
    """Validated blocks of the square-root-of-normal form.

    A and B are normal, C is PSD and injective, and B commutes with C.
    A may be 0x0 (absent); B and C have equal size.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "A": matrix_to_json_dict(self.a) if self.a.size else None,
            "B": matrix_to_json_dict(self.b),
            "C": matrix_to_json_dict(self.c),
        }


@dataclass(frozen=True)
class Decomposition:
    """A unitary change of basis realizing a block-diagonal splitting.

    ``change_of_basis`` Q satisfies Q* T Q = blockdiag(blocks) up to the
    recorded reassembly residual; ``source_hash`` ties the decomposition to
    the matrix it came from.
    """

    change_of_basis: np.ndarray
    blocks: tuple[np.ndarray, ...]
    labels: tuple[BlockLabel, ...]
    residuals: dict[str, float]
    source_hash: str
    rr_form: RRForm | None = None

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def block(self, label: BlockLabel) -> np.ndarray | None:
        for blk, lab in zip(self.blocks, self.labels):
            if lab is label:
                return blk
        return None

    def reassemble(self) -> np.ndarray:
        q = self.change_of_basis
        return q @ _direct_sum(*self.blocks) @ q.conj().T

    def to_json_dict(self) -> dict:
        doc = {
            "Q": matrix_to_json_dict(self.change_of_basis),
            "block_dims": list(self.block_dims),
            "labels": [lab.value for lab in self.labels],
            "blocks": [matrix_to_json_dict(b) for b in self.blocks],
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "source_hash": self.source_hash,
        }
        if self.rr_form is not None:
            doc["rr_form"] = self.rr_form.to_json_dict()
        return doc


def _unitarity_residual(q: np.ndarray) -> float:
    return frobenius_norm(q.conj().T @ q - np.eye(q.shape[0]))


def _assemble(
    t: np.ndarray,
    parts: list[tuple[Subspace, BlockLabel]],
    scale: float,
    tol: TolerancePolicy,
    extra_residuals: dict[str, float] | None = None,
    nil_index: int | None = None,
) -> Decomposition:
    """Build and validate a Decomposition from labeled subspaces, one per
    label; ``scale`` is max(1, ||T||). Residuals: reassembly,
    ``extra_residuals``, the NilpotentPart block's ``nil_index``-th power
    when given, and the NormalPart block's self-commutator; an absent block
    has residual 0."""
    parts = [(sub, lab) for sub, lab in parts if sub.dim > 0]
    q = np.concatenate([sub.basis for sub, _ in parts], axis=1)
    blocks = {lab: compress(t, sub) for sub, lab in parts}
    nil, nrm = blocks.get(BlockLabel.NILPOTENT), blocks.get(BlockLabel.NORMAL)
    # A product that overflows is an inf or a NaN, which finite_frobenius_norm
    # turns into its ValueError.
    with np.errstate(over="ignore", invalid="ignore"):
        reassembly = finite_frobenius_norm(q @ _direct_sum(*blocks.values()) @ q.conj().T - t)
        residuals = {"reassembly": reassembly, **(extra_residuals or {})}
        if nil_index is not None:
            residuals["nilpotency"] = 0.0 if nil is None else finite_frobenius_norm(
                matrix_power(nil, nil_index)
            )
        residuals["normality"] = 0.0 if nrm is None else finite_frobenius_norm(
            nrm.conj().T @ nrm - nrm @ nrm.conj().T
        )
    unit = _unitarity_residual(q)
    if unit > tol.tol_recon * np.sqrt(q.shape[0]):
        raise DecompositionError(f"change of basis not unitary: residual {unit:.3e}")
    if reassembly > tol.tol_eq * scale * 10:
        raise DecompositionError(
            f"reassembly residual {reassembly:.3e} beyond tolerance"
        )
    if residuals["normality"] > tol.tol_eq * scale**2 * 10:
        raise DecompositionError(
            f"normal block fails normality: residual {residuals['normality']:.3e}"
        )
    if nil_index is not None and residuals["nilpotency"] > tol.tol_eq * scale**nil_index * 10:
        raise DecompositionError(
            f"nilpotent summand fails index bound {nil_index}: "
            f"residual {residuals['nilpotency']:.3e}"
        )
    return Decomposition(
        change_of_basis=q,
        blocks=tuple(blocks.values()),
        labels=tuple(blocks),
        residuals=residuals,
        source_hash=matrix_hash(t),
    )


# The weight of Im T in the Hermitian H = Re T + mu Im T of normal_pure_split:
# irrational, so that distinct eigenvalues of T seldom meet in one
# eigenvalue of H.
_MU = (np.sqrt(5.0) - 1.0) / 2.0


def normal_pure_split(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> Decomposition:
    """Split T into its normal part and its pure part.

    The normal part is the span of the reducing eigenvectors of T, the
    unit x with Tx = lam x and T*x = conj(lam) x; the pure part is its
    complement, and either may be absent. Such an x is a joint eigenvector
    of Re T and Im T, so an eigenvector of the Hermitian H = Re T + mu Im T,
    and one ``eigh`` of H gives them all. With s = max(1, ||T||), the
    eigenvalues of H fall into clusters of neighbours closer than
    sqrt(tol_rank) s. A lone eigenvector x is kept when
    max(||Tx - lam x||, ||T*x - conj(lam) x||) <= tol_rank s, with
    lam = x*Tx; for a cluster with orthonormal eigenvectors Q, each
    eigenvalue lam of Q*TQ keeps the right singular vectors of
    [(T - lam)Q; (T* - conj(lam))Q] with singular value at most tol_rank s,
    until one lam keeps every column of Q, as for a scalar normal part,
    which leaves nothing to keep. Eigenvalues of Q*TQ that agree keep the
    same vectors again, so the normal part is spanned by the left singular
    vectors of all that is kept with singular value above 1/2.
    """
    m = as_operator(t)
    n = m.shape[0]
    scale = _scale(operator_norm(m), 1)
    cut = tol.tol_rank * scale
    mh = m.conj().T
    w, v = _eigh((m + mh) / 2 + _MU * (m - mh) / 2j)
    mv, mhv = m @ v, mh @ v
    lam = np.einsum("ij,ij->j", v.conj(), mv)
    # Residuals relative to s, whose squares cannot overflow.
    lone = np.maximum(np.linalg.norm((mv - v * lam) / scale, axis=0),
                      np.linalg.norm((mhv - v * lam.conj()) / scale, axis=0)) <= tol.tol_rank
    kept = []
    gaps = np.flatnonzero(np.diff(w) >= np.sqrt(tol.tol_rank) * scale)
    for cols in np.split(np.arange(n), gaps + 1):
        q = v[:, cols]
        if len(cols) == 1:
            kept.append(q[:, lone[cols]])
            continue
        for z in _eigvals(q.conj().T @ mv[:, cols]):
            _, sv, vh = _svd(np.concatenate([mv[:, cols] - z * q, mhv[:, cols] - np.conj(z) * q]),
                             full_matrices=False)
            reducing = sv <= cut
            kept.append(q @ vh[reducing].conj().T)
            if reducing.all():
                break
    u, sv, _ = _svd(np.concatenate(kept, axis=1), full_matrices=False)
    normal = Subspace(n, u[:, sv > 0.5])
    return _assemble(m, [(normal, BlockLabel.NORMAL), (normal.complement(), BlockLabel.PURE)],
                     scale, tol)


def _zero_cluster_cut(s: np.ndarray, tol: TolerancePolicy, floor: float) -> float:
    """Singular-value cutoff separating the zero cluster.

    The reference scale is max(s_max, floor); the floor lets callers anchor
    the cut to the natural scale of the matrix (e.g. ||T||^n for T^n) when
    the computed power is itself numerically zero. Plain relative cutoff
    tol_rank * ref applies, except when values fall inside the ambiguous
    window [tol_rank/10, tol_rank*10] * ref; then the cut is placed at the
    largest relative gap inside the window, and the absence of a usable gap
    is an error rather than a guess.
    """
    smax = float(s[0]) if s.size else 0.0
    ref = max(smax, floor)
    if ref == 0.0:
        return 0.0
    lo, hi = tol.tol_rank / 10.0 * ref, tol.tol_rank * 10.0 * ref
    inside = np.sort(s[(s >= lo) & (s <= hi)])
    if inside.size == 0:
        return tol.tol_rank * ref
    edges = np.concatenate([[lo], inside, [hi]])
    ratios = edges[1:] / np.maximum(edges[:-1], ref * 1e-300)
    best = int(np.argmax(ratios))
    if ratios[best] < 10.0:
        raise DecompositionError(
            "singular values fill the rank-cutoff window with no usable gap"
        )
    return float(np.sqrt(edges[best] * edges[best + 1]))


def root_decompose(
    t,
    n: int,
    k: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    seed: int = 0,
) -> Decomposition:
    """Split a k-quasi-paranormal T with normal T^n into normal and
    nilpotent summands.

    The projection onto the zero eigenspace of the normal matrix T^n is
    computed from its singular value decomposition (for a normal matrix the
    singular values are the eigenvalue moduli). The projection must commute
    with T; the normal summand is the compression to the complement and the
    nilpotent summand, when present, has index at most min(n, k+1).
    """
    m = as_operator(t)
    _check_root_indices(n, k)
    return _root_split(m, n, k, is_k_quasi_paranormal(m, k, tol, seed=seed), tol)


def _check_root_indices(n: int, k: int) -> None:
    """ValueError unless ``root_decompose``'s n and k are positive integers."""
    if not (isinstance(n, Integral) and isinstance(k, Integral)) or n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")


def _root_split(
    m: np.ndarray, n: int, k: int, member: MembershipVerdict, tol: TolerancePolicy
) -> Decomposition:
    """``root_decompose`` of a validated T, given its k-quasi-paranormal
    verdict ``member``; HypothesisViolated unless that is Member."""
    if member.status is not Status.MEMBER:
        raise HypothesisViolated(
            f"input is not {k}-quasi-paranormal: {member.status.value} "
            f"(defect {member.defect:.3e})"
        )
    normal_power = _power_verdict(m, n, "normal", tol)
    if normal_power.status is not Status.MEMBER:
        raise HypothesisViolated(
            f"T^{n} is not normal: residual {-normal_power.defect:.3e}"
        )

    dim = m.shape[0]
    norm_t = operator_norm(m)
    scale = _scale(norm_t, 1)
    _, s, vh = _svd(matrix_power(m, n))
    if s[0] == 0.0:
        zero = Subspace.full(dim)
    else:
        cut = _zero_cluster_cut(s, tol, norm_t**n)
        zero = Subspace(dim, vh[s <= cut].conj().T)

    proj = zero.projector()
    comm = frobenius_norm(proj @ m - m @ proj)
    if comm > tol.tol_eq * scale * dim:
        raise NonCommutingProjection(
            f"zero-eigenspace projection does not commute with T: {comm:.3e}"
        )
    parts = [(zero.complement(), BlockLabel.NORMAL), (zero, BlockLabel.NILPOTENT)]
    return _assemble(m, parts, scale, tol, {"commutation": comm}, nil_index=min(n, k + 1))


def nilpotent2_canonical(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> Decomposition:
    """Adapted basis for a nonzero T with T^2 = 0.

    Writes the space as range-carrier plus kernel directions so that
    Q* T Q = [[0, C], [0, 0]] padded by a zero block, where C = |X| is the
    positive injective polar factor of the restriction of T to the
    orthogonal complement of its kernel. The returned decomposition embeds
    the corresponding square-root form blocks (A = 0 padding, B = 0, C).
    """
    m = as_operator(t)
    dim = m.shape[0]
    if not m.any():
        raise ZeroOperator("input is the zero matrix")
    # A residual whose sum of squares overflows is a ValueError, not a
    # verdict on T.
    square_zero = _power_verdict(m, 2, "zero", tol)
    if square_zero.status is not Status.MEMBER:
        raise NotNilpotentIndex2(f"T^2 residual {-square_zero.defect:.3e} beyond tolerance")

    scale = _scale(operator_norm(m), 1)
    ker = kernel(m, tol, rank_floor=scale)
    coker = ker.complement()
    r = coker.dim
    if r == 0:
        raise ZeroOperator("numerically zero input")
    x = m @ coker.basis
    # The polar factors of X = U S V* (thin SVD): C = |X| = V S V* and the
    # isometry W = U V*, so X = W C. A root of the Gram X*X would lose the
    # singular values of X below about ||T|| sqrt(eps), and W = X C^-1
    # would magnify that loss by 1 / sigma_min(X).
    u, sv, vh = _svd(x, full_matrices=False)
    c = (vh.conj().T * sv) @ vh
    w = u @ vh
    full = _svd(np.concatenate([w, coker.basis], axis=1))[0]
    q = np.concatenate([w, coker.basis, full[:, 2 * r :]], axis=1)
    canonical = np.zeros((dim, dim), dtype=np.complex128)
    canonical[:r, r : 2 * r] = c
    basis_resid = frobenius_norm(q.conj().T @ m @ q - canonical)
    residuals = {
        "basis": basis_resid,
        "unitarity": _unitarity_residual(q),
        "c_min_singular": float(sv[-1]),
    }
    if residuals["unitarity"] > tol.tol_recon * np.sqrt(dim):
        raise DecompositionError(
            f"adapted basis not unitary: residual {residuals['unitarity']:.3e}"
        )
    if basis_resid > tol.tol_eq * scale * 10:
        raise DecompositionError(
            f"canonical-form residual {basis_resid:.3e} beyond tolerance"
        )

    blocks, labels = [canonical[: 2 * r, : 2 * r]], [BlockLabel.NILPOTENT]
    if dim > 2 * r:
        blocks.append(canonical[2 * r :, 2 * r :])
        labels.append(BlockLabel.NORMAL)
    rr = RRForm(
        a=np.zeros((dim - 2 * r, dim - 2 * r), dtype=np.complex128),
        b=np.zeros((r, r), dtype=np.complex128),
        c=c,
    )
    return Decomposition(
        change_of_basis=q,
        blocks=tuple(blocks),
        labels=tuple(labels),
        residuals=residuals,
        source_hash=matrix_hash(m),
        rr_form=rr,
    )


def _validate_rr_blocks(a, b, c, tol: TolerancePolicy) -> RRForm:
    problems: list[str] = []
    absent = a is None or not np.size(a)
    a_mat = np.zeros((0, 0), dtype=np.complex128) if absent else as_operator(a)
    if not absent and is_normal(a_mat, tol).status is not Status.MEMBER:
        problems.append("A is not normal")
    b_mat = as_operator(b)
    c_mat = as_operator(c)
    if b_mat.shape != c_mat.shape:
        problems.append(f"B and C sizes differ: {b_mat.shape} vs {c_mat.shape}")
    else:
        if is_normal(b_mat, tol).status is not Status.MEMBER:
            problems.append("B is not normal")
        try:
            w = hermitian_eigen(c_mat, tol).eigenvalues
        except NotHermitian:
            problems.append("C is not Hermitian")
        else:
            # For Hermitian C the singular values are the eigenvalue moduli.
            svals = np.abs(w)
            if w[0] < -tol.tol_psd * _scale(float(svals.max()), 1):
                problems.append("C is not positive semidefinite")
            if svals.min() <= tol.tol_rank * float(svals.max()):
                problems.append("C is not injective")
        comm = frobenius_norm(b_mat @ c_mat - c_mat @ b_mat)
        if comm > tol.tol_eq * _scale(operator_norm(b_mat) * operator_norm(c_mat), 1):
            problems.append("B and C do not commute")
    if problems:
        raise InvalidRRForm("; ".join(problems))
    return RRForm(a=a_mat, b=b_mat, c=c_mat)


def rr_assemble(
    a, b, c, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Assemble A + [[B, C], [0, -B]] from validated blocks; an absent or
    empty A leaves the corner block alone.

    The square of the result is normal; that guarantee is checked after
    assembly and a violation reports which invariant failed.
    """
    form = _validate_rr_blocks(a, b, c, tol)
    r = form.b.shape[0]
    corner = np.block([[form.b, form.c], [np.zeros((r, r)), -form.b]])
    t = _direct_sum(form.a, corner)
    check = rr_check(t, tol)
    if check.status is not Status.MEMBER:
        raise InvalidRRForm(
            f"assembled square is not normal (residual {-check.defect:.3e})"
        )
    return t


def rr_check(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """Whether T is a square root of a normal operator: decided by testing
    normality of T^2 directly, its residual judged on T's scale
    max(1, ||T||)^4 (``membership._power_verdict``)."""
    return _power_verdict(as_operator(t), 2, "normal", tol)
