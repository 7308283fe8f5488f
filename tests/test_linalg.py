import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opclass.errors import DimensionMismatch, EmptySubspace, NotHermitian, NotPSD
from opclass.linalg import (
    DEFAULT_TOLERANCES as TOL,
    Subspace,
    adjoint,
    as_operator,
    compress,
    hermitian_eigen,
    kernel,
    matrix_power,
    operator_norm,
    operator_svd,
    preimage_in,
    psd_defect,
    psd_power,
    spectral_radius,
    subspace_intersect,
)

from conftest import ginibre, haar


def test_as_operator_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        as_operator(np.zeros((2, 3)))


def test_as_operator_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_operator(np.array([[np.nan, 0], [0, 1]]))


def test_adjoint_examples(j2):
    np.testing.assert_array_equal(adjoint(j2), np.array([[0, 0], [1, 0]], dtype=complex))
    np.testing.assert_array_equal(adjoint([[1j]]), np.array([[-1j]]))
    herm = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    np.testing.assert_array_equal(adjoint(herm), herm)


def test_operator_norm_examples(j2):
    assert operator_norm(np.eye(3)) == pytest.approx(1.0)
    assert operator_norm(j2) == pytest.approx(1.0)
    assert operator_norm(np.diag([2.0, -3.0])) == pytest.approx(3.0)


# The facts linalg remembers for the last matrix seen, each beside numpy's
# own computation of it from the validated matrix.
_FACTS = (
    (operator_norm, lambda m: float(np.linalg.norm(m, 2))),
    (operator_svd, np.linalg.svd),
)


def _bits(value) -> bytes:
    """The bytes of a norm, or of the factors of an SVD."""
    parts = value if isinstance(value, tuple) else (value,)
    return b"".join(np.asarray(f).tobytes() for f in parts)


def test_operator_norm_is_numpys_two_norm_bit_for_bit():
    # operator_svd is numpy's SVD bit for bit too.
    rng = np.random.default_rng(2070)
    mats = [np.zeros((1, 1)), np.zeros((5, 5)), np.array([[3.0 - 4.0j]]), np.ones((4, 4))]
    for dim in range(1, 13):
        g = ginibre(dim, rng)
        low_rank = g[:, :1] @ g[:1, :] + g[:, 1:2] @ g[1:2, :] if dim > 1 else 0 * g
        mats += [g, low_rank, 1e-150 * g, 1e150 * g, g.real]
    for fact, numpys in _FACTS:
        for m in mats:
            want = _bits(numpys(np.asarray(m, dtype=np.complex128)))
            # The second read is the remembered value of the first.
            assert _bits(fact(m)) == want, (fact.__name__, m.shape)
            assert _bits(fact(m)) == want, (fact.__name__, m.shape)


def _count_svds(monkeypatch) -> list:
    """Patch np.linalg.svd to append its compute_uv to the returned list on
    every call."""
    calls, svd = [], np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_operator_norm_remembers_the_last_matrix(monkeypatch):
    # And operator_svd its factors.
    rng = np.random.default_rng(2071)
    g = ginibre(6, rng)
    calls = _count_svds(monkeypatch)
    for fact, _ in _FACTS:
        for m in (g, g.real):
            fact(np.eye(2))  # some other matrix is the last one seen
            calls.clear()
            want = _bits(fact(m))
            copies = [m, m.copy(), np.asfortranarray(m), np.array(m, dtype=np.complex128),
                      np.asfortranarray(m.astype(np.complex128))]
            for copy in copies:
                assert _bits(fact(copy)) == want, fact.__name__
            assert len(calls) == 1, fact.__name__


def test_operator_norm_measures_afresh_any_other_bytes(monkeypatch):
    # And operator_svd.
    rng = np.random.default_rng(2072)
    for fact, numpys in _FACTS:
        m = ginibre(5, rng)
        m[2, 3] = 0.0
        negative_zero = m.copy()
        negative_zero[2, 3] = -0.0
        fact(m)
        calls = _count_svds(monkeypatch)
        # The same values but another bit pattern: measured again.
        assert _bits(fact(negative_zero)) == _bits(numpys(negative_zero)), fact.__name__
        assert _bits(fact(m)) == _bits(numpys(m)), fact.__name__
        assert len(calls) == 2, fact.__name__
        # An edit in place of the last matrix seen.
        m[0, 0] += 1.0
        assert _bits(fact(m)) == _bits(numpys(m)), fact.__name__
        assert len(calls) == 3, fact.__name__
        # Another shape.
        bigger = np.zeros((6, 6), dtype=np.complex128)
        bigger[:5, :5] = m
        bigger[5, 5] = 10.0
        assert _bits(fact(bigger)) == _bits(numpys(bigger)), fact.__name__
        assert len(calls) == 4, fact.__name__
        monkeypatch.undo()


def test_operator_norm_threads_read_their_own_matrix():
    # Threads that alternate between two matrices of one shape, so the
    # remembered matrix changes under them all the time: each call must
    # return the norm, or the SVD, of the matrix it was given.
    rng = np.random.default_rng(2073)
    mats = [ginibre(4, rng), 3.0 * ginibre(4, rng)]
    for fact, numpys in _FACTS:
        want = [_bits(numpys(m)) for m in mats]
        wrong = []

        def work(phase: int) -> None:
            for i in range(300):
                j = (i + phase) % 2
                if _bits(fact(mats[j])) != want[j]:
                    wrong.append((phase, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(phase % 2,)) for phase in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [], fact.__name__


def test_operator_norm_and_svd_share_one_memo_entry(monkeypatch):
    # The norm, then the SVD, then the norm again of one matrix: one SVD of
    # each kind, as classify_all takes of its matrix.
    a = ginibre(5, np.random.default_rng(2074))
    operator_norm(np.eye(2))
    calls = _count_svds(monkeypatch)
    norm = operator_norm(a)
    operator_svd(a)
    assert operator_norm(a.copy()) == norm
    assert calls == [False, True]


def test_a_memo_hit_is_not_validated_again(monkeypatch):
    # A matrix with the shape and bytes of the last one seen is that matrix,
    # which passed as_operator: a hit runs no np.isfinite. Input that
    # as_operator rejects is still rejected right after a valid matrix of
    # its shape was remembered.
    a = ginibre(3, np.random.default_rng(2076))
    nan = a.copy()
    nan[1, 2] = np.nan
    isfinite = np.isfinite
    for fact, _ in _FACTS:
        fact(a)
        calls = []
        monkeypatch.setattr(np, "isfinite", lambda *args: calls.append(1) or isfinite(*args))
        fact(a.copy())
        assert calls == [], fact.__name__
        monkeypatch.undo()
        for bad, error, message in ((nan, ValueError, "finite"),
                                    (a[:, :2], DimensionMismatch, "square"),
                                    (np.zeros((0, 0)), DimensionMismatch, "at least 1")):
            fact(a)
            with pytest.raises(error, match=message):
                fact(bad)


def test_operator_svd_factors_are_read_only():
    # The factors are shared with every later caller on an equal matrix.
    a = ginibre(4, np.random.default_rng(2075))
    for factor in operator_svd(a):
        with pytest.raises(ValueError):
            factor[0] = 0.0
    u, s, vh = np.linalg.svd(a)
    for got, want in zip(operator_svd(a.copy()), (u, s, vh)):
        np.testing.assert_array_equal(got, want)


def test_spectral_radius_examples(j2):
    assert spectral_radius(j2) <= 1e-8
    assert spectral_radius(np.diag([2.0, -3.0])) == pytest.approx(3.0)
    u = haar(4, np.random.default_rng(0))
    assert spectral_radius(u) == pytest.approx(1.0, abs=1e-10)


def test_hermitian_eigen_examples():
    eig = hermitian_eigen(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 3.0])
    eig = hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0])


def test_hermitian_eigen_round_trip():
    # Construct-then-recover: spectrum of Q diag(1,2,5) Q* is (1,2,5).
    q = haar(3, np.random.default_rng(7))
    a = (q * np.array([1.0, 2.0, 5.0])) @ q.conj().T
    eig = hermitian_eigen(a)
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0, 5.0], atol=1e-12)
    np.testing.assert_allclose(eig.reconstruct(), a, atol=TOL.tol_recon)
    v = eig.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=TOL.tol_recon)


def test_hermitian_eigen_rejects_nonhermitian(j2):
    with pytest.raises(NotHermitian):
        hermitian_eigen(j2)


def test_hermitian_eigen_rejects_overflowing_norm(j2):
    # ||1e160 J2||_F overflows a double. Against tol * inf the Hermitian
    # residual used to pass, and the non-Hermitian matrix got eigenvalues
    # +-5e159.
    with pytest.raises(ValueError, match="overflows"):
        hermitian_eigen(1e160 * j2)


def test_bands_reject_an_overflowing_or_nan_scale():
    # Every band reads linalg._scale. Against tol * max(1, nan) = tol, or
    # tol * inf, these checks used to pass: a NaN basis column read
    # orthonormal, and the preimage of an overflowing matrix was the whole
    # space. A basis whose Gram overflows, or is NaN from an infinite
    # entry, raises a ValueError that names the basis, with no numpy
    # warning first.
    for column in (np.nan, 1e200, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="basis Gram has non-finite size"):
                Subspace(2, np.array([[column], [0.0]]))
    with pytest.raises(ValueError, match="overflows"):
        preimage_in(1e308 * np.ones((2, 2)), Subspace.zero(2))


def test_psd_defect_examples():
    assert psd_defect(np.diag([0.0, 2.0])) == pytest.approx(0.0, abs=1e-14)
    assert psd_defect(np.diag([1.0, -1.0])) == pytest.approx(-1.0)
    rng = np.random.default_rng(3)
    b = ginibre(5, rng)
    assert psd_defect(b.conj().T @ b) >= -TOL.tol_psd * max(1.0, operator_norm(b) ** 2)


def test_psd_power_examples():
    np.testing.assert_allclose(psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12)
    rng = np.random.default_rng(5)
    b = ginibre(4, rng)
    a = b.conj().T @ b
    np.testing.assert_allclose(psd_power(a, 1.0), a, atol=TOL.tol_recon)
    np.testing.assert_allclose(psd_power(psd_power(a, 0.5), 2.0), a, atol=TOL.tol_recon * 10)


def test_psd_power_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_power(np.diag([1.0, -1.0]), 0.5)


def test_psd_power_commutes_with_input():
    rng = np.random.default_rng(11)
    b = ginibre(5, rng)
    a = b.conj().T @ b
    root = psd_power(a, 0.5)
    assert np.linalg.norm(root @ a - a @ root) <= TOL.tol_eq * max(1.0, np.linalg.norm(a) ** 2)


def test_matrix_power_examples(j2):
    np.testing.assert_array_equal(matrix_power(j2, 2), np.zeros((2, 2)))
    a = ginibre(3, np.random.default_rng(1))
    np.testing.assert_array_equal(matrix_power(a, 1), a)
    np.testing.assert_allclose(matrix_power(np.diag([2.0, 3.0]), 4), np.diag([16.0, 81.0]))
    np.testing.assert_array_equal(matrix_power(a, 0), np.eye(3))


def test_kernel_examples(j2):
    sub = kernel(j2)
    assert sub.dim == 1
    np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [1.0, 0.0], atol=1e-12)
    assert kernel(np.eye(3)).dim == 0
    assert kernel(np.zeros((3, 3))).dim == 3


def test_kernel_rank_one_projector():
    # Kernel of u u* is the orthogonal complement of u; checked against the
    # SVD of the projector directly.
    rng = np.random.default_rng(2)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u /= np.linalg.norm(u)
    proj = np.outer(u, u.conj())
    sub = kernel(proj)
    assert sub.dim == 4
    np.testing.assert_allclose(sub.basis.conj().T @ u, 0, atol=1e-10)
    s = np.linalg.svd(proj, compute_uv=False)
    assert int((s <= TOL.tol_rank * s[0]).sum()) == 4


def test_subspace_intersect_examples():
    e = np.eye(4, dtype=complex)
    u = Subspace(4, e[:, :2])
    v = Subspace(4, e[:, 1:3])
    inter = subspace_intersect(u, v)
    assert inter.dim == 1
    np.testing.assert_allclose(np.abs(inter.basis[:, 0]), [0, 1, 0, 0], atol=1e-10)

    full = Subspace.full(4)
    same = subspace_intersect(u, full)
    assert same.dim == 2
    np.testing.assert_allclose(same.projector(), u.projector(), atol=1e-10)


def test_subspace_intersect_generic_dimension():
    # dim U + dim V - n = 1 generically; oracle via the rank of the stacked
    # complementary projectors.
    rng = np.random.default_rng(9)
    u = Subspace(5, np.linalg.qr(ginibre(5, rng))[0][:, :3])
    v = Subspace(5, np.linalg.qr(ginibre(5, rng))[0][:, :3])
    inter = subspace_intersect(u, v)
    stacked = np.vstack([np.eye(5) - u.projector(), np.eye(5) - v.projector()])
    assert inter.dim == 5 - np.linalg.matrix_rank(stacked)
    assert inter.dim == 1


def test_subspace_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        subspace_intersect(Subspace.full(2), Subspace.full(3))


def test_subspace_complement_survives_gesdd_failure(monkeypatch):
    # numpy's gesdd SVD can fail to converge on an orthonormal basis; the
    # complement must then come from LAPACK's gesvd.
    rng = np.random.default_rng(30)
    basis = np.linalg.qr(ginibre(6, rng))[0][:, :2]

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    comp = Subspace(6, basis).complement()
    assert comp.dim == 4
    np.testing.assert_allclose(comp.basis.conj().T @ comp.basis, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(basis.conj().T @ comp.basis, 0.0, atol=1e-12)


def test_preimage_examples(j2):
    e = np.eye(3, dtype=complex)
    v = Subspace(3, e[:, :2])
    np.testing.assert_allclose(
        preimage_in(np.eye(3), v).projector(), v.projector(), atol=1e-10
    )
    assert preimage_in(np.zeros((3, 3)), v).dim == 3

    # {x : J2 x in span e2} = span e1, cross-checked against a direct
    # kernel computation of (I - P) J2.
    span_e2 = Subspace(2, np.eye(2, dtype=complex)[:, 1:])
    pre = preimage_in(j2, span_e2)
    assert pre.dim == 1
    np.testing.assert_allclose(np.abs(pre.basis[:, 0]), [1.0, 0.0], atol=1e-10)
    direct = kernel((np.eye(2) - span_e2.projector()) @ j2)
    np.testing.assert_allclose(pre.projector(), direct.projector(), atol=1e-10)


def test_compress_examples():
    e = np.eye(3, dtype=complex)
    v = Subspace(3, e[:, [0, 2]])
    np.testing.assert_allclose(compress(np.diag([1.0, 2.0, 3.0]), v), np.diag([1.0, 3.0]))
    a = ginibre(3, np.random.default_rng(4))
    np.testing.assert_allclose(compress(a, Subspace.full(3)), a)
    with pytest.raises(EmptySubspace):
        compress(a, Subspace.zero(3))


def test_compress_invariant_block():
    # For a subspace reducing A, the off-block coupling vanishes.
    rng = np.random.default_rng(6)
    q = haar(4, rng)
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = ginibre(2, rng)
    block[2:, 2:] = ginibre(2, rng)
    a = q @ block @ q.conj().T
    v = Subspace(4, q[:, :2])
    coupling = v.complement().basis.conj().T @ a @ v.basis
    assert np.linalg.norm(coupling) <= TOL.tol_eq * max(1.0, operator_norm(a))


def test_norm_submultiplicative_and_radius_bound():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = ginibre(4, rng), ginibre(4, rng)
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + TOL.tol_eq
        assert spectral_radius(a) <= operator_norm(a) + TOL.tol_eq


def test_normal_matrix_radius_equals_norm():
    rng = np.random.default_rng(10)
    for _ in range(10):
        u = haar(4, rng)
        eig = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = (u * eig) @ u.conj().T
        assert abs(spectral_radius(a) - operator_norm(a)) <= 1e-10 * max(1.0, operator_norm(a))


def test_subspace_ops_return_orthonormal_bases():
    rng = np.random.default_rng(12)
    a = ginibre(5, rng)
    a[:, 0] = a[:, 1]  # force rank deficiency
    for sub in (
        kernel(a),
        subspace_intersect(kernel(a), Subspace.full(5)),
        preimage_in(a, kernel(a)),
    ):
        if sub.dim:
            gram = sub.basis.conj().T @ sub.basis
            np.testing.assert_allclose(gram, np.eye(sub.dim), atol=TOL.tol_recon)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 5))
def test_adjoint_is_involution(seed, dim):
    a = ginibre(dim, np.random.default_rng(seed))
    np.testing.assert_array_equal(adjoint(adjoint(a)), a)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_matrix_power_additivity(seed, m, n):
    a = ginibre(4, np.random.default_rng(seed))
    lhs = matrix_power(a, m + n)
    rhs = matrix_power(a, m) @ matrix_power(a, n)
    growth = max(1.0, operator_norm(a)) ** (m + n)
    assert np.linalg.norm(lhs - rhs) <= TOL.tol_eq * growth * 10
