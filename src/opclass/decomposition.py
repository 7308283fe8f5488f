"""Structural decompositions.

* normal_pure_split: the maximal reducing subspace on which the operator is
  normal, giving the unique normal-part / pure-part splitting.
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

import numpy as np
import scipy.linalg

from .errors import (
    DecompositionError,
    HypothesisViolated,
    InvalidRRForm,
    NonCommutingProjection,
    NotNilpotentIndex2,
    ZeroOperator,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Subspace,
    TolerancePolicy,
    as_operator,
    frobenius_norm,
    kernel,
    matrix_hash,
    matrix_power,
    operator_norm,
    preimage_in,
    psd_power,
    subspace_intersect,
)
from .membership import MembershipVerdict, Status, is_k_quasi_paranormal, is_normal
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
    block_dims: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]
    labels: tuple[BlockLabel, ...]
    residuals: dict[str, float]
    source_hash: str
    rr_form: RRForm | None = None

    def block(self, label: BlockLabel) -> np.ndarray | None:
        for blk, lab in zip(self.blocks, self.labels):
            if lab is label:
                return blk
        return None

    def reassemble(self) -> np.ndarray:
        q = self.change_of_basis
        return q @ scipy.linalg.block_diag(*self.blocks) @ q.conj().T

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
    extra_residuals: dict[str, float],
    tol: TolerancePolicy,
) -> Decomposition:
    """Build and validate a Decomposition from labeled subspaces."""
    bases = [sub.basis for sub, _ in parts if sub.dim > 0]
    labels = tuple(lab for sub, lab in parts if sub.dim > 0)
    q = np.concatenate(bases, axis=1)
    blocks = tuple(
        sub.basis.conj().T @ t @ sub.basis for sub, _ in parts if sub.dim > 0
    )
    dims = tuple(b.shape[0] for b in blocks)
    scale = max(1.0, operator_norm(t))
    reassembly = frobenius_norm(
        q @ scipy.linalg.block_diag(*blocks) @ q.conj().T - t
    )
    residuals = {"reassembly": reassembly, **extra_residuals}
    unit = _unitarity_residual(q)
    if unit > tol.tol_recon * max(1.0, np.sqrt(q.shape[0])):
        raise DecompositionError(f"change of basis not unitary: residual {unit:.3e}")
    if reassembly > tol.tol_eq * scale * 10:
        raise DecompositionError(
            f"reassembly residual {reassembly:.3e} beyond tolerance"
        )
    return Decomposition(
        change_of_basis=q,
        block_dims=dims,
        blocks=blocks,
        labels=labels,
        residuals=residuals,
        source_hash=matrix_hash(t),
    )


def normal_pure_split(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> Decomposition:
    """Split T into its normal part and its pure part.

    Starting from the kernel of the self-commutator T*T - TT*, the candidate
    subspace is intersected with its own preimages under T and T* until the
    dimension stabilizes; the fixed point is the maximal reducing subspace
    on which T is normal. Either part may be absent.
    """
    m = as_operator(t)
    n = m.shape[0]
    scale = max(1.0, operator_norm(m))
    comm = m.conj().T @ m - m @ m.conj().T
    v = kernel(comm, tol, rank_floor=scale**2)
    for _ in range(n + 1):
        if v.dim == 0:
            break
        refined = subspace_intersect(v, preimage_in(m, v, tol), tol)
        refined = subspace_intersect(refined, preimage_in(m.conj().T, v, tol), tol)
        if refined.dim == v.dim:
            v = refined
            break
        v = refined

    comp = v.complement()
    parts = [(v, BlockLabel.NORMAL), (comp, BlockLabel.PURE)]
    extra: dict[str, float] = {}
    if v.dim > 0:
        blk = v.basis.conj().T @ m @ v.basis
        extra["normality"] = frobenius_norm(
            blk.conj().T @ blk - blk @ blk.conj().T
        )
    else:
        extra["normality"] = 0.0
    decomp = _assemble(m, parts, extra, tol)
    if v.dim > 0 and extra["normality"] > tol.tol_eq * scale**2 * 10:
        raise DecompositionError(
            f"normal block fails normality: residual {extra['normality']:.3e}"
        )
    return decomp


def _zero_cluster_cut(s: np.ndarray, tol: TolerancePolicy, floor: float = 0.0) -> float:
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
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    member = is_k_quasi_paranormal(m, k, tol, seed=seed)
    if member.status is not Status.MEMBER:
        raise HypothesisViolated(
            f"input is not {k}-quasi-paranormal: {member.status.value} "
            f"(defect {member.defect:.3e})"
        )
    power = matrix_power(m, n)
    normal_power = is_normal(power, tol)
    if normal_power.status is not Status.MEMBER:
        raise HypothesisViolated(
            f"T^{n} is not normal: residual {-normal_power.defect:.3e}"
        )

    dim = m.shape[0]
    norm_t = operator_norm(m)
    scale = max(1.0, norm_t)
    _, s, vh = np.linalg.svd(power)
    if s[0] == 0.0:
        zero = Subspace.full(dim)
    else:
        cut = _zero_cluster_cut(s, tol, floor=norm_t**n)
        zero = Subspace(dim, vh[s <= cut].conj().T)
    pos = zero.complement()

    proj = zero.projector()
    comm = frobenius_norm(proj @ m - m @ proj)
    if comm > tol.tol_eq * scale * max(1.0, dim):
        raise NonCommutingProjection(
            f"zero-eigenspace projection does not commute with T: {comm:.3e}"
        )

    extra: dict[str, float] = {"commutation": comm}
    nil_index = min(n, k + 1)
    if zero.dim > 0:
        nil_block = zero.basis.conj().T @ m @ zero.basis
        extra["nilpotency"] = frobenius_norm(matrix_power(nil_block, nil_index))
    else:
        extra["nilpotency"] = 0.0
    if pos.dim > 0:
        nrm_block = pos.basis.conj().T @ m @ pos.basis
        extra["normality"] = frobenius_norm(
            nrm_block.conj().T @ nrm_block - nrm_block @ nrm_block.conj().T
        )
    else:
        extra["normality"] = 0.0

    parts = [(pos, BlockLabel.NORMAL), (zero, BlockLabel.NILPOTENT)]
    decomp = _assemble(m, parts, extra, tol)
    if extra["normality"] > tol.tol_eq * scale**2 * 10:
        raise DecompositionError(
            f"normal summand fails normality: residual {extra['normality']:.3e}"
        )
    if extra["nilpotency"] > tol.tol_eq * scale**nil_index * 10:
        raise DecompositionError(
            f"nilpotent summand fails index bound {nil_index}: "
            f"residual {extra['nilpotency']:.3e}"
        )
    return decomp


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
    scale = max(1.0, operator_norm(m))
    if not m.any():
        raise ZeroOperator("input is the zero matrix")
    sq_resid = frobenius_norm(m @ m)
    if sq_resid > tol.tol_eq * scale**2:
        raise NotNilpotentIndex2(f"T^2 residual {sq_resid:.3e} beyond tolerance")

    ker = kernel(m, tol, rank_floor=scale)
    coker = ker.complement()
    r = coker.dim
    if r == 0:
        raise ZeroOperator("numerically zero input")
    x = m @ coker.basis
    c = psd_power(x.conj().T @ x, 0.5, tol)
    # Polar factor W = X C^{-1}; C is invertible because X has full column
    # rank (rank T columns with nonzero singular values).
    w = x @ np.linalg.inv(c)
    rest = np.concatenate([w, coker.basis], axis=1)
    u, _, vh = np.linalg.svd(rest, full_matrices=True)
    pad_basis = u[:, 2 * r :]

    q = np.concatenate([w, coker.basis, pad_basis], axis=1)
    canonical = np.zeros((dim, dim), dtype=np.complex128)
    canonical[:r, r : 2 * r] = c
    basis_resid = frobenius_norm(q.conj().T @ m @ q - canonical)
    residuals = {
        "basis": basis_resid,
        "unitarity": _unitarity_residual(q),
        "c_min_singular": float(np.linalg.svd(c, compute_uv=False)[-1]),
    }
    if residuals["unitarity"] > tol.tol_recon * max(1.0, np.sqrt(dim)):
        raise DecompositionError(
            f"adapted basis not unitary: residual {residuals['unitarity']:.3e}"
        )
    if basis_resid > tol.tol_eq * scale * 10:
        raise DecompositionError(
            f"canonical-form residual {basis_resid:.3e} beyond tolerance"
        )

    nil_sub = Subspace(dim, q[:, : 2 * r])
    pad_sub = Subspace(dim, pad_basis)
    blocks = [np.block([[np.zeros((r, r)), c], [np.zeros((r, r)), np.zeros((r, r))]])]
    labels = [BlockLabel.NILPOTENT]
    dims = [2 * r]
    if pad_sub.dim > 0:
        blocks.append(np.zeros((pad_sub.dim, pad_sub.dim), dtype=np.complex128))
        labels.append(BlockLabel.NORMAL)
        dims.append(pad_sub.dim)
    rr = RRForm(
        a=np.zeros((pad_sub.dim, pad_sub.dim), dtype=np.complex128),
        b=np.zeros((r, r), dtype=np.complex128),
        c=c,
    )
    return Decomposition(
        change_of_basis=q,
        block_dims=tuple(dims),
        blocks=tuple(np.asarray(b, dtype=np.complex128) for b in blocks),
        labels=tuple(labels),
        residuals=residuals,
        source_hash=matrix_hash(m),
        rr_form=rr,
    )


def _validate_rr_blocks(
    a: np.ndarray | None, b, c, tol: TolerancePolicy
) -> RRForm:
    problems: list[str] = []
    if a is None:
        a_mat = np.zeros((0, 0), dtype=np.complex128)
    else:
        a_mat = np.asarray(a, dtype=np.complex128)
        if a_mat.size:
            a_mat = as_operator(a_mat)
            if is_normal(a_mat, tol).status is not Status.MEMBER:
                problems.append("A is not normal")
    b_mat = as_operator(b)
    c_mat = as_operator(c)
    if b_mat.shape != c_mat.shape:
        problems.append(f"B and C sizes differ: {b_mat.shape} vs {c_mat.shape}")
    else:
        if is_normal(b_mat, tol).status is not Status.MEMBER:
            problems.append("B is not normal")
        herm = frobenius_norm(c_mat - c_mat.conj().T)
        if herm > tol.tol_eq * max(1.0, frobenius_norm(c_mat)):
            problems.append("C is not Hermitian")
        else:
            svals = np.linalg.svd(c_mat, compute_uv=False)
            w = np.linalg.eigvalsh((c_mat + c_mat.conj().T) / 2.0)
            if w[0] < -tol.tol_psd * max(1.0, float(svals[0])):
                problems.append("C is not positive semidefinite")
            if svals[-1] <= tol.tol_rank * float(svals[0]):
                problems.append("C is not injective")
        comm = frobenius_norm(b_mat @ c_mat - c_mat @ b_mat)
        comm_scale = max(1.0, operator_norm(b_mat) * operator_norm(c_mat))
        if comm > tol.tol_eq * comm_scale:
            problems.append("B and C do not commute")
    if problems:
        raise InvalidRRForm("; ".join(problems))
    return RRForm(a=a_mat, b=b_mat, c=c_mat)


def rr_assemble(
    a, b, c, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Assemble A + [[B, C], [0, -B]] from validated blocks.

    The square of the result is normal; that guarantee is checked after
    assembly and a violation reports which invariant failed.
    """
    form = _validate_rr_blocks(a if (a is not None and np.size(a)) else None, b, c, tol)
    r = form.b.shape[0]
    corner = np.block([[form.b, form.c], [np.zeros((r, r)), -form.b]])
    t = scipy.linalg.block_diag(form.a, corner).astype(np.complex128)
    check = is_normal(t @ t, tol)
    if check.status is not Status.MEMBER:
        raise InvalidRRForm(
            f"assembled square is not normal (residual {-check.defect:.3e})"
        )
    return t


def rr_check(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """Whether T is a square root of a normal operator: decided by testing
    normality of T^2 directly."""
    m = as_operator(t)
    return is_normal(m @ m, tol)
