import hashlib
import json
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from opclass.decomposition import (
    BlockLabel,
    Decomposition,
    _assemble,
    nilpotent2_canonical,
    normal_pure_split,
    root_decompose,
    rr_assemble,
    rr_check,
)
from opclass.generators import jordan_nilpotent, random_normal
from opclass.errors import (
    DecompositionError,
    HypothesisViolated,
    InvalidRRForm,
    NotNilpotentIndex2,
    ZeroOperator,
)
from opclass.linalg import DEFAULT_TOLERANCES as TOL
from opclass.linalg import Subspace, matrix_power, operator_norm
from opclass.membership import Status, is_normal

from conftest import ginibre, haar, random_normal_matrix


# ---------------------------------------------------------------------------
# normal_pure_split
# ---------------------------------------------------------------------------


def test_split_normal_input_is_single_normal_block():
    rng = np.random.default_rng(0)
    t = random_normal_matrix(4, rng)
    d = normal_pure_split(t)
    assert d.labels == (BlockLabel.NORMAL,)
    assert d.block_dims == (4,)
    np.testing.assert_allclose(d.reassemble(), t, atol=1e-10)


def test_split_pure_input_has_no_normal_block(j2):
    d = normal_pure_split(j2)
    assert d.labels == (BlockLabel.PURE,)
    assert d.block_dims == (2,)


def test_split_mixed_block(j2):
    t = scipy.linalg.block_diag([[5.0]], j2).astype(complex)
    d = normal_pure_split(t)
    assert d.labels == (BlockLabel.NORMAL, BlockLabel.PURE)
    assert d.block_dims == (1, 2)
    np.testing.assert_allclose(d.block(BlockLabel.NORMAL), [[5.0]], atol=1e-10)
    # The pure block is J2 up to a unitary change of basis: same singular values.
    sv = np.linalg.svd(d.block(BlockLabel.PURE), compute_uv=False)
    np.testing.assert_allclose(sv, [1.0, 0.0], atol=1e-10)


def test_split_normal_part_passes_is_normal_and_pure_part_is_pure():
    rng = np.random.default_rng(1)
    for i in range(5):
        t = scipy.linalg.block_diag(
            random_normal_matrix(2, rng), ginibre(3, rng)
        ).astype(complex)
        u = haar(5, rng)
        t = u @ t @ u.conj().T
        d = normal_pure_split(t)
        nb = d.block(BlockLabel.NORMAL)
        if nb is not None:
            assert is_normal(nb).status is Status.MEMBER
        pb = d.block(BlockLabel.PURE)
        if pb is not None:
            again = normal_pure_split(pb)
            assert again.block(BlockLabel.NORMAL) is None


def test_split_dimensions_are_unitary_invariant(j2):
    rng = np.random.default_rng(2)
    t = scipy.linalg.block_diag([[3.0]], j2).astype(complex)
    u = haar(3, rng)
    a = normal_pure_split(t)
    b = normal_pure_split(u @ t @ u.conj().T)
    assert a.block_dims == b.block_dims
    assert a.labels == b.labels


def _weighted_shift(d: int, lam0: complex, weights_sq: np.ndarray) -> np.ndarray:
    """lam0 I plus the shift with superdiagonal sqrt(weights_sq): pure. Its
    self-commutator is diag(-w_1^2, w_1^2 - w_2^2, ..., w_(d-1)^2)."""
    return lam0 * np.eye(d) + np.diag(np.sqrt(weights_sq), 1)


def _jordan(d: int, lam0: complex = 0.3 + 0.2j) -> np.ndarray:
    """lam0 I + J_d, whose self-commutator diag(-1, 0, ..., 0, 1) has rank 2,
    so the closure reaches the whole chain only after d/2 rounds."""
    return _weighted_shift(d, lam0, np.ones(d - 1))


def _conjugated_split(normal_dim: int, pure: np.ndarray, seed: int) -> tuple:
    """Block dims of the split of U blockdiag(N, P) U*, with N normal with
    its spectrum in the unit disk and U Haar."""
    from opclass.generators import random_normal, random_unitary

    t = scipy.linalg.block_diag(random_normal(normal_dim, seed), pure)
    u = random_unitary(t.shape[0], seed + 1)
    return normal_pure_split(u @ t @ u.conj().T).block_dims


def test_split_recovers_the_documented_seed():
    # A Ginibre pure part whose self-commutator has an eigenvalue of 1.3e-5:
    # the preimage-intersection loop returned one PurePart of 32.
    from opclass.generators import random_ginibre, random_normal, random_unitary

    s = 10350510308194972864
    u = random_unitary(32, s ^ 0x5A5A)
    t = scipy.linalg.block_diag(random_normal(17, s), random_ginibre(15, s))
    d = normal_pure_split(u @ t @ u.conj().T)
    assert d.labels == (BlockLabel.NORMAL, BlockLabel.PURE)
    assert d.block_dims == (17, 15)


@pytest.mark.parametrize("normal_dim, d", [(5, 3), (6, 6), (9, 7), (14, 10), (20, 12),
                                           (17, 23), (30, 18), (25, 31), (40, 24)])
def test_split_of_shifted_jordan_part(normal_dim, d):
    assert _conjugated_split(normal_dim, _jordan(d), normal_dim + d) == (normal_dim, d)


@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6])
def test_split_with_the_commutator_gap_shrinking_to_1e_6(gap):
    # Weights w_i^2 = 1 + i gap: the pure part's self-commutator has the
    # eigenvalue -gap ten times besides -(1 + gap) and 1 + 11 gap.
    pure = _weighted_shift(12, 0.3 + 0.2j, 1.0 + gap * np.arange(1, 12))
    assert _conjugated_split(20, pure, 3) == (20, 12)


def test_split_restarts_from_the_commutator_on_the_normal_candidate():
    # [[0.7, b], [0, 0.2]] with b = 1e-5 is decoupled from the Jordan part
    # and pure, though its self-commutator eigenvalues are only about
    # +-b/2: its eigenvectors of Re T + mu Im T are far from reducing, so
    # they join the pure part. The name recalls the commutator closure
    # that found this part only on a restart.
    small = np.array([[0.7, 1e-5], [0.0, 0.2]], dtype=complex)
    pure = scipy.linalg.block_diag(_jordan(10), small)
    assert _conjugated_split(20, pure, 5) == (20, 12)


@pytest.mark.parametrize("normal_dim, d", [(5, 3), (20, 12), (40, 24)])
def test_split_controls_plain_jordan_and_ginibre(normal_dim, d):
    from opclass.generators import random_ginibre

    assert _conjugated_split(normal_dim, _jordan(d, 0.0), d) == (normal_dim, d)
    assert _conjugated_split(normal_dim, random_ginibre(d, d), d) == (normal_dim, d)


def test_split_dimensions_are_unitary_invariant_at_dim_64():
    assert {_conjugated_split(40, _jordan(24), seed) for seed in range(4)} == {(40, 24)}


def test_split_of_a_long_chain_beside_a_normal_part_at_30_seeds():
    # A normal part with its spectrum in the disk of radius 3 beside a
    # 24-long Jordan chain. A closure of the self-commutator's range under
    # T and T* reached the chain's end only after about 12 rounds; its
    # rounding grew each round, and it returned one PurePart of 48, or
    # raised, on 26 of these 30 seeds.
    from opclass.generators import random_normal, random_unitary

    dims = {}
    for seed in range(30):
        t = scipy.linalg.block_diag(3.0 * random_normal(24, seed), _jordan(24))
        u = random_unitary(48, seed + 1)
        dims[seed] = normal_pure_split(u @ t @ u.conj().T).block_dims
    assert dims == {seed: (24, 24) for seed in range(30)}


def test_split_of_reducing_residuals_far_above_the_cut():
    # sqrt(c) J2 for c = 2e-11 to 6e-10 has the self-commutator
    # eigenvalues +-c, which filled a cut window on |eig C| with no usable
    # gap; but no vector of such a block is nearer than 4.5e-6 to
    # reducing, 4.5e4 times the cut tol_rank * max(1, ||T||), so they are
    # one pure part of 8.
    j2 = np.array([[0, 1], [0, 0]], dtype=complex)
    t = scipy.linalg.block_diag([[1.0]], *(np.sqrt(c) * j2 for c in (2e-11, 6e-11, 2e-10, 6e-10)))
    d = normal_pure_split(t)
    assert (d.block_dims, d.labels) == ((1, 8), (BlockLabel.NORMAL, BlockLabel.PURE))


@pytest.mark.parametrize("c", [1.0, 1e2, 1e3, 1e4, 1e10, 1e30])
def test_split_of_a_scaled_normal_matrix_is_one_normal_part(c):
    # The self-commutator of a normal T cancels to rounding of about
    # ||T||^2 eps, which a Hermitian check on its own size rejected as
    # NotHermitian from c = 1e3 on.
    for d in range(2, 13):
        for seed in range(6):
            split = normal_pure_split(c * random_normal(d, seed))
            assert (split.block_dims, split.labels) == ((d,), (BlockLabel.NORMAL,)), (d, seed)


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 0.0])
def test_split_of_a_normal_eigenvalue_beside_a_pure_one_in_h(delta):
    # A normal eigenvalue lam placed so that Re lam + mu Im lam lies delta
    # above an eigenvalue of Re P + mu Im P, for a shifted Jordan or a
    # Ginibre pure part P: below delta = sqrt(tol_rank) the two share a
    # cluster of eigenvectors of H, and the reducing eigenvector is found
    # from the eigenvalues of H compressed to the cluster.
    from opclass.generators import random_ginibre, random_unitary

    mu = (np.sqrt(5.0) - 1.0) / 2.0
    for d in (2, 5, 12):
        for seed in range(3):
            for pure in (_jordan(d), random_ginibre(d, seed + 50)):
                h = np.linalg.eigvalsh((pure + pure.conj().T) / 2 + mu * (pure - pure.conj().T) / 2j)
                for at in (h[0], h[d // 2], h[-1]):
                    im = np.random.default_rng(seed).uniform(-1.0, 1.0)
                    lam = at + delta - mu * im + 1j * im
                    t = scipy.linalg.block_diag(random_normal(3, seed), [[lam]], pure)
                    u = random_unitary(d + 4, seed + 7)
                    dims = normal_pure_split(u @ t @ u.conj().T).block_dims
                    assert dims == (4, d), (d, seed, at)


def test_split_of_a_repeated_normal_eigenvalue_equal_to_a_pure_one():
    # 2 I3 + (2 I2 + J2): each of the three eigenvalues 2 of H compressed
    # to its cluster keeps the same three vectors again, and the normal
    # part is their span, not all nine.
    from opclass.generators import random_unitary

    u = random_unitary(5, 3)
    t = u @ scipy.linalg.block_diag(2.0 * np.eye(3), _jordan(2, 2.0)) @ u.conj().T
    d = normal_pure_split(t)
    assert (d.block_dims, d.labels) == ((3, 2), (BlockLabel.NORMAL, BlockLabel.PURE))


@pytest.mark.parametrize("c", [1.0, 0.0, 3.0])
def test_split_of_a_scalar_matrix_takes_one_cluster_svd(monkeypatch, c):
    # A scalar normal part is one cluster of all n eigenvectors of H, and
    # the first eigenvalue of Q*TQ already keeps every column of Q, so the
    # 2n x n cluster stack is factored once, not once per eigenvalue.
    n, shapes = 16, []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    d = normal_pure_split(c * np.eye(n))
    assert (d.block_dims, d.labels) == ((n,), (BlockLabel.NORMAL,))
    assert shapes.count((2 * n, n)) == 1


# ---------------------------------------------------------------------------
# root_decompose
# ---------------------------------------------------------------------------


def test_root_decompose_example(j2):
    t = scipy.linalg.block_diag([[1.0]], j2).astype(complex)
    d = root_decompose(t, 2, 1)
    assert d.labels == (BlockLabel.NORMAL, BlockLabel.NILPOTENT)
    assert d.block_dims == (1, 2)
    np.testing.assert_allclose(d.block(BlockLabel.NORMAL), [[1.0]], atol=1e-10)
    nil = d.block(BlockLabel.NILPOTENT)
    assert np.linalg.norm(matrix_power(nil, 2)) <= 1e-10
    np.testing.assert_allclose(d.reassemble(), t, atol=1e-10)


def test_root_decompose_normal_input():
    rng = np.random.default_rng(3)
    t = random_normal_matrix(4, rng)
    # Keep the spectrum away from zero so the zero cluster is empty.
    t = t + 3.0 * np.eye(4)
    d = root_decompose(t, 2, 1)
    assert d.labels == (BlockLabel.NORMAL,)


def test_root_decompose_pure_nilpotent(j2):
    d = root_decompose(j2, 2, 1)
    assert d.labels == (BlockLabel.NILPOTENT,)
    assert d.block_dims == (2,)


def test_root_decompose_rejects_bad_hypotheses(j3):
    # J3 has nil-index 3 > k+1 = 2, so it is not 1-quasi-paranormal.
    with pytest.raises(HypothesisViolated):
        root_decompose(j3, 2, 1)
    rng = np.random.default_rng(4)
    g = ginibre(4, rng)
    with pytest.raises(HypothesisViolated):
        root_decompose(g, 2, 1)


def test_root_decompose_residuals_within_tolerance():
    from opclass.generators import k_quasi_member, random_unitary

    for seed in range(8):
        t = k_quasi_member(3, 2, 1, seed)
        u = random_unitary(5, seed + 100)
        t = u @ t @ u.conj().T
        d = root_decompose(t, 2, 1, seed=seed)
        assert d.residuals["reassembly"] < 1e-8
        assert d.residuals["normality"] < 1e-8
        assert d.residuals["nilpotency"] < 1e-8
        np.testing.assert_allclose(d.reassemble(), t, atol=1e-8)


def test_root_decompose_paranormal_member_has_no_nilpotent_block():
    # The k = 0 hypothesis met through a stronger class: paranormal roots of
    # normal matrices are normal, so the nilpotent block is absent.
    rng = np.random.default_rng(5)
    t = random_normal_matrix(4, rng) + 2.5 * np.eye(4)
    d = root_decompose(t, 3, 1)
    assert d.block(BlockLabel.NILPOTENT) is None


# ---------------------------------------------------------------------------
# _assemble
# ---------------------------------------------------------------------------


def test_assemble_rejects_a_non_normal_normal_part(j2):
    with pytest.raises(DecompositionError, match="normal block fails normality"):
        _assemble(j2, [(Subspace.full(2), BlockLabel.NORMAL)], 1.0, TOL)


def test_assemble_rejects_a_nilpotent_part_beyond_its_index(j3):
    parts = [(Subspace.zero(3), BlockLabel.NORMAL), (Subspace.full(3), BlockLabel.NILPOTENT)]
    d = _assemble(j3, parts, 1.0, TOL, nil_index=3)
    assert d.labels == (BlockLabel.NILPOTENT,)
    assert d.residuals == {"reassembly": 0.0, "nilpotency": 0.0, "normality": 0.0}
    with pytest.raises(DecompositionError, match="fails index bound 2"):
        _assemble(j3, parts, 1.0, TOL, nil_index=2)


# ---------------------------------------------------------------------------
# nilpotent2_canonical
# ---------------------------------------------------------------------------


def test_nilpotent2_j2(j2):
    d = nilpotent2_canonical(j2)
    np.testing.assert_allclose(d.rr_form.c, [[1.0]], atol=1e-12)
    assert d.residuals["basis"] < 1e-10


def test_nilpotent2_scaled():
    t = np.array([[0, 2], [0, 0]], dtype=complex)
    d = nilpotent2_canonical(t)
    np.testing.assert_allclose(d.rr_form.c, [[2.0]], atol=1e-12)


def test_nilpotent2_block_matrix_recovers_singular_values():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = np.zeros((6, 6), dtype=complex)
    t[:3, 3:] = m
    d = nilpotent2_canonical(t)
    sv_c = np.linalg.svd(d.rr_form.c, compute_uv=False)
    sv_m = np.linalg.svd(m, compute_uv=False)
    np.testing.assert_allclose(sv_c, sv_m, atol=1e-10)
    # C equals (M*M)^(1/2) up to unitary similarity; it is PSD and injective.
    assert np.linalg.eigvalsh(d.rr_form.c)[0] > 0
    q = d.change_of_basis
    np.testing.assert_allclose(q.conj().T @ q, np.eye(6), atol=1e-10)


@pytest.mark.parametrize("dim", [4, 5, 7])
@pytest.mark.parametrize("rho", [1e-4, 1e-5, 1e-6])
def test_nilpotent2_keeps_small_singular_values(dim, rho):
    # T = U B U*, B = [[0, C], [0, 0]] padded by zeros, C = diag(geomspace(1, rho, r)).
    # Through the root of the Gram X*X and W = X C^-1, the adapted basis
    # lost unitarity already at rho = 1e-4; the polar factors of one SVD
    # of X keep it, and C's singular values.
    from opclass.generators import random_unitary

    for r in range(2, dim // 2 + 1):
        want = np.geomspace(1.0, rho, r)
        core = np.zeros((dim, dim), dtype=complex)
        core[:r, r : 2 * r] = np.diag(want)
        for seed in range(3):
            u = random_unitary(dim, seed)
            d = nilpotent2_canonical(u @ core @ u.conj().T)
            assert d.residuals["basis"] <= TOL.tol_eq * 10, (r, seed)
            assert d.residuals["unitarity"] <= TOL.tol_recon * np.sqrt(dim), (r, seed)
            np.testing.assert_allclose(np.linalg.svd(d.rr_form.c, compute_uv=False), want,
                                       rtol=1e-8, err_msg=f"r {r}, seed {seed}")
            assert d.residuals["c_min_singular"] == pytest.approx(rho, rel=1e-8)


def test_nilpotent2_zero_padding():
    # rank 1 inside dim 3: canonical block is 2x2 plus a zero summand.
    t = np.zeros((3, 3), dtype=complex)
    t[0, 1] = 1.5
    d = nilpotent2_canonical(t)
    assert d.block_dims == (2, 1)
    assert d.labels == (BlockLabel.NILPOTENT, BlockLabel.NORMAL)


def test_nilpotent2_rejections(j3):
    with pytest.raises(ZeroOperator):
        nilpotent2_canonical(np.zeros((2, 2)))
    with pytest.raises(NotNilpotentIndex2):
        nilpotent2_canonical(j3)


# ---------------------------------------------------------------------------
# rr_assemble / rr_check
# ---------------------------------------------------------------------------


def test_rr_assemble_examples():
    t = rr_assemble([[2.0]], [[0.0]], [[1.0]])
    np.testing.assert_allclose(
        t, scipy.linalg.block_diag([[2.0]], [[0.0, 1.0], [0.0, 0.0]]), atol=1e-12
    )
    np.testing.assert_allclose(t @ t, np.diag([4.0, 0.0, 0.0]), atol=1e-12)

    t = rr_assemble(None, [[1.0]], [[1.0]])
    np.testing.assert_allclose(t, [[1.0, 1.0], [0.0, -1.0]], atol=1e-12)
    np.testing.assert_allclose(t @ t, np.eye(2), atol=1e-12)
    # An empty A is an absent A.
    np.testing.assert_array_equal(rr_assemble(np.zeros((0, 0)), [[1.0]], [[1.0]]), t)

    b = np.diag([1.0, 2.0]).astype(complex)
    c = np.diag([3.0, 4.0]).astype(complex)
    t = rr_assemble(None, b, c)
    np.testing.assert_allclose(t @ t, np.diag([1.0, 4.0, 1.0, 4.0]), atol=1e-12)


def test_rr_assemble_validation(j2):
    with pytest.raises(InvalidRRForm, match="B is not normal"):
        rr_assemble(None, j2, np.eye(2))
    with pytest.raises(InvalidRRForm, match="not injective"):
        rr_assemble(None, np.zeros((2, 2)), np.diag([1.0, 0.0]))
    with pytest.raises(InvalidRRForm, match="do not commute"):
        rr_assemble(None, np.diag([1.0, 2.0]), np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(InvalidRRForm, match="A is not normal"):
        rr_assemble(j2, np.zeros((2, 2)), np.eye(2))
    with pytest.raises(InvalidRRForm, match="positive semidefinite"):
        rr_assemble(None, np.zeros((2, 2)), np.diag([1.0, -1.0]))
    with pytest.raises(InvalidRRForm, match="C is not Hermitian"):
        rr_assemble(None, np.zeros((2, 2)), np.eye(2) + j2)
    with pytest.raises(InvalidRRForm, match=r"B and C sizes differ: \(3, 3\) vs \(2, 2\)"):
        rr_assemble(None, np.zeros((3, 3)), np.eye(2))


def test_rr_assembled_always_passes_rr_check():
    from opclass.generators import rr_instance

    for seed in range(6):
        t = rr_instance(2, 2, seed)
        assert rr_check(t).status is Status.MEMBER


def test_rr_check_examples(j2, j3):
    assert rr_check(j2).status is Status.MEMBER  # square is zero
    assert rr_check(j3).status is Status.NON_MEMBER


def test_rr_check_judges_the_square_on_the_scale_of_t():
    # T^2 is derived from T, so its rounding is about ||T||^2 eps whatever
    # ||T^2|| is. The square of an index-2 nilpotent is 0 up to that
    # rounding and is normal at every scale; judged on the scale of T^2 it
    # read not normal from ||T|| = 1e6. A square that is not normal stays
    # NonMember, and an assembled root stays Member, at every scale tried.
    from opclass.generators import rr_instance

    nilpotent, root, j3 = jordan_nilpotent(4, 2, 1), rr_instance(3, 2, 5), np.eye(3, k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in range(31):
            c = 10.0**e
            assert rr_check(c * nilpotent).status is Status.MEMBER, c
            assert rr_check(c * root).status is Status.MEMBER, c
        for c in (1.0, 1e3, 1e20):
            assert rr_check(c * j3).status is Status.NON_MEMBER, c


def test_power_hypotheses_are_judged_on_the_scale_of_t():
    # "T^n is normal" (root_decompose and the harness), "T^2 is
    # quasinormal" (search-q2) and "T^2 = 0" (nilpotent2_canonical) are
    # relations of a power derived from T, judged on T's scale. The square
    # of an index-2 nilpotent is 0 up to rounding of about ||T||^2 eps;
    # judged on its own scale it read not normal from ||T|| = 1e6, and not
    # quasinormal from 1e7. Every check agrees with rr_check on it, a
    # scaled k-quasi member keeps its blocks, and a square that is not
    # normal stays a violated hypothesis at every scale tried.
    from opclass.generators import k_quasi_member, random_unitary
    from opclass.membership import _power_verdict

    nilpotent, j3, u = jordan_nilpotent(4, 2, 1), np.eye(3, k=1), random_unitary(5, 3)
    members = [k_quasi_member(3, 2, 1, 4), u @ k_quasi_member(3, 2, 1, 5) @ u.conj().T]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in range(31):
            c = 10.0**e
            t = c * nilpotent
            split = root_decompose(t, 2, 1)
            assert (split.block_dims, split.labels) == ((4,), (BlockLabel.NILPOTENT,)), c
            assert nilpotent2_canonical(t).block_dims == (2, 2), c
            assert rr_check(t).status is Status.MEMBER, c
            for relation in ("normal", "quasinormal", "zero"):
                assert _power_verdict(t, 2, relation, TOL).status is Status.MEMBER, (c, relation)
            for m in members:
                assert root_decompose(c * m, 2, 1).block_dims == (3, 2), c
        for c in (1.0, 1e3, 1e20):
            with pytest.raises(HypothesisViolated, match=r"T\^2 is not normal"):
                root_decompose(c * j3, 2, 2)
            with pytest.raises(NotNilpotentIndex2):
                nilpotent2_canonical(c * j3)
            for relation in ("normal", "quasinormal", "zero"):
                assert _power_verdict(c * j3, 2, relation, TOL).status is Status.NON_MEMBER


# ---------------------------------------------------------------------------
# bit-for-bit output
# ---------------------------------------------------------------------------


def _pinned_splits() -> list:
    from opclass.generators import k_quasi_member, random_ginibre, random_normal, random_unitary

    u = random_unitary(5, 3)
    return [
        normal_pure_split(random_normal(4, 1)),  # normal part only
        normal_pure_split(u @ k_quasi_member(3, 2, 1, 4) @ u.conj().T),
        normal_pure_split(random_ginibre(3, 2)),  # pure part only
    ]


def _pinned_root_and_nilpotent() -> list:
    from opclass.generators import (
        jordan_nilpotent,
        k_quasi_member,
        random_ginibre,
        random_normal,
        random_unitary,
    )

    u = random_unitary(5, 3)
    mixed = u @ k_quasi_member(3, 2, 1, 4) @ u.conj().T
    rank2 = np.zeros((5, 5), dtype=complex)
    rank2[:2, 2:4] = random_ginibre(2, 5)
    return [
        root_decompose(mixed, 2, 1, seed=1),
        root_decompose(random_normal(4, 6) + 3.0 * np.eye(4), 2, 1),  # no nilpotent block
        root_decompose(jordan_nilpotent(3, 2, 7), 2, 1),  # nilpotent block only
        nilpotent2_canonical(np.array([[0, 2], [0, 0]], dtype=complex)),  # no padding
        nilpotent2_canonical(rank2),  # zero padding
        nilpotent2_canonical(jordan_nilpotent(4, 2, 9)),
    ]


def _digest(decompositions: list) -> str:
    # Q, the blocks, the labels and every residual value and key, bit for
    # bit: a change to how a decomposition is assembled that moves any
    # float shows.
    docs = [json.dumps(d.to_json_dict(), sort_keys=True) for d in decompositions]
    return hashlib.sha256("\n".join(docs).encode()).hexdigest()


@pytest.mark.parametrize("scale", [1e100, 1e155])
@pytest.mark.parametrize("decompose, t", [
    (nilpotent2_canonical, jordan_nilpotent(4, 2, 1)),
    (normal_pure_split, random_normal(4, 1)),
    (lambda t: root_decompose(t, 2, 1), jordan_nilpotent(4, 2, 1)),
    (rr_check, random_normal(4, 1)),
])
def test_decompositions_at_overflow_scale(decompose, t, scale):
    # Each decomposition checks its scale before it forms T*T or T^2: a
    # scaled input gets the decomposition (or verdict) it gets at scale 1,
    # or a ValueError that names the overflow; never a numpy warning, a bare
    # OverflowError, or a NotNilpotentIndex2 for an index-2 nilpotent whose
    # residual overflowed.
    want = decompose(t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = decompose(scale * t)
        except ValueError as exc:
            assert "overflows" in str(exc)
            return
    if isinstance(want, Decomposition):
        assert (got.block_dims, got.labels) == (want.block_dims, want.labels)
    else:
        assert got.status is want.status


def test_decompositions_are_pinned():
    decompositions = _pinned_root_and_nilpotent()
    # The root_decompose entries, then the nilpotent2_canonical ones.
    assert _digest(decompositions[:3]) == (
        "ad0ae6fa282341dc1209fb69b74e8960edd70be49fb066834e579a4486963377"
    )
    assert _digest(decompositions[3:]) == (
        "1d3e02d92b7a06e99ccdd9bec5f30a0318cb089b74423aa48e2c8340c0e43b7c"
    )


def test_normal_pure_splits_are_pinned():
    splits = _pinned_splits()
    assert [(d.block_dims, d.labels) for d in splits] == [
        ((4,), (BlockLabel.NORMAL,)),
        ((3, 2), (BlockLabel.NORMAL, BlockLabel.PURE)),
        ((3,), (BlockLabel.PURE,)),
    ]
    assert _digest(splits) == "8eb8877a844b9e3aa81ff9bb9a3295655a0bc2e58bb2c75e4dc0d8ee9a213bd6"
