import dataclasses
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from opclass.decomposition import root_decompose
from opclass.errors import InvalidPencil, OracleDisagreement
from opclass.linalg import DEFAULT_TOLERANCES as TOL
from opclass.linalg import operator_norm
from opclass.membership import (
    MembershipVerdict,
    OperatorClass,
    PencilSpec,
    Status,
    Witness,
    _DUAL,
    _NormProductDefect,
    _PencilStack,
    _brent,
    _central_gradient,
    _check_terms,
    _descend,
    _dual_verdicts,
    _first_pass,
    _pencil,
    _pencil_minima,
    _pencil_verdicts,
    _proves,
    _reconcile,
    _sweep,
    absolute_k_paranormal_pencil,
    chain_violations,
    classify_all,
    is_absolute_k_paranormal,
    is_class_a,
    is_hyponormal,
    is_k_paranormal,
    is_k_quasi_paranormal,
    is_normal,
    is_normaloid,
    is_p_hyponormal,
    is_quasinormal,
    k_paranormal_pencil,
    pencil_check,
    quasi_paranormal_pencil,
    quasinormal_embry,
    sphere_check,
)
from opclass.generators import (
    jordan_nilpotent,
    k_quasi_member,
    make_rng,
    normaloid_counterexample,
    random_ginibre,
    random_normal,
    random_unitary,
    root_of_scalar_instance,
    rr_instance,
)

from conftest import dual_families, ginibre, haar, random_normal_matrix


# ---------------------------------------------------------------------------
# Algebraic predicates
# ---------------------------------------------------------------------------


def test_is_normal_examples(j2):
    assert is_normal(np.diag([1.0, 1j])).status is Status.MEMBER
    v = is_normal(j2)
    assert v.status is Status.NON_MEMBER
    # self-commutator of J2 is diag(-1, 1), Frobenius norm sqrt(2)
    assert v.defect == pytest.approx(-np.sqrt(2.0))


def test_is_normal_unitary_invariance():
    rng = np.random.default_rng(0)
    a = random_normal_matrix(4, rng)
    u = haar(4, rng)
    assert is_normal(u @ a @ u.conj().T).status is Status.MEMBER


def test_is_quasinormal_examples(j2):
    rng = np.random.default_rng(1)
    assert is_quasinormal(random_normal_matrix(4, rng)).status is Status.MEMBER
    v = is_quasinormal(j2)
    # T T*T = J2, T*T^2 = 0, so the residual is ||J2|| = 1.
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0)
    assert is_quasinormal(np.zeros((3, 3))).status is Status.MEMBER


def test_embry_examples(j2):
    rng = np.random.default_rng(2)
    n = random_normal_matrix(5, rng)
    for kmax in (2, 3, 4):
        assert quasinormal_embry(n, kmax).status is Status.MEMBER
    v = quasinormal_embry(j2, 2)
    # (T*)^2 T^2 = 0 while (T*T)^2 = diag(0, 1): residual 1.
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        quasinormal_embry(j2, 1)


def test_embry_agrees_with_quasinormal():
    rng = np.random.default_rng(3)
    for i in range(100):
        t = ginibre(5, rng)
        assert quasinormal_embry(t, 3).status is is_quasinormal(t).status
    for i in range(10):
        t = random_normal_matrix(5, rng)
        assert quasinormal_embry(t, 3).status is is_quasinormal(t).status is Status.MEMBER


def test_is_hyponormal_examples(j2):
    rng = np.random.default_rng(4)
    assert is_hyponormal(random_normal_matrix(4, rng)).status is Status.MEMBER
    v = is_hyponormal(j2)
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0)
    assert v.witness is not None


def test_hyponormal_members_are_normal():
    # Finite-dimensional collapse: the trace of the PSD self-commutator
    # vanishes, forcing it to zero.
    rng = np.random.default_rng(5)
    mats = [ginibre(4, rng) for _ in range(40)] + [
        random_normal_matrix(4, rng) for _ in range(10)
    ]
    for t in mats:
        if is_hyponormal(t).status is Status.MEMBER:
            assert is_normal(t).status is Status.MEMBER


def test_is_p_hyponormal_examples(j2):
    rng = np.random.default_rng(6)
    for _ in range(10):
        t = ginibre(3, rng)
        assert is_p_hyponormal(t, 1.0).status is is_hyponormal(t).status
    assert is_p_hyponormal(random_normal_matrix(4, rng), 0.3).status is Status.MEMBER
    v = is_p_hyponormal(j2, 0.5)
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        is_p_hyponormal(j2, 1.5)


def test_is_class_a_examples(j2):
    rng = np.random.default_rng(7)
    assert is_class_a(random_normal_matrix(4, rng)).status is Status.MEMBER
    v = is_class_a(j2)
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0)
    diag = np.diag([0.3 + 1j, -2.0, 0.0])
    assert is_class_a(diag).status is Status.MEMBER


@pytest.mark.parametrize("dim, seed", [(5, 1), (6, 0), (7, 0), (7, 2)])
def test_psd_checks_of_a_large_scalar_beside_a_jordan_block(dim, seed):
    # T = U (1000 I + J2) U*, the sum direct. T*T - TT* and
    # ((T*)^2 T^2)^(1/2) - T*T are Hermitian by construction and of norm
    # about 1, but their rounding is about ||T||^2 eps, beyond
    # hermitian_eigen's tolerance relative to that norm. J2 is in neither
    # class, so neither is T.
    u = random_unitary(dim, seed)
    t = u @ scipy.linalg.block_diag(1e3 * np.eye(dim - 2), [[0, 1], [0, 0]]) @ u.conj().T
    for predicate in (is_hyponormal, is_class_a):
        assert predicate(t).status is Status.NON_MEMBER, predicate.__name__
    assert chain_violations(classify_all(t)) == []


_J2 = [[0, 1], [0, 0]]


@pytest.mark.parametrize("dim, seed, head, tail, wrong", [
    *((dim, seed, 3e4, _J2, Status.MEMBER) for dim, seed in ((5, 1), (6, 0), (7, 0), (7, 2))),
    *((dim, seed, 1.0, [[eps]], Status.NON_MEMBER)
      for dim, seed, eps in ((3, 0, 1e-4), (4, 1, 3e-5), (5, 2, 3e-4), (6, 3, 1e-3))),
])
def test_class_a_claims_nothing_its_root_cannot_resolve(dim, seed, head, tail, wrong):
    # T = U (head I + tail) U*, the sum direct; ``wrong`` is the verdict a
    # root of the Gram (T*)^2 T^2 can give. That root rounds T^2's singular
    # values below about ||T||^2 sqrt(eps) either way: beside J2 (not class
    # A, exact defect -1, threshold 1e-10 ||T||^2 about 0.09) it read -0.0 at
    # (7, 2), and a normal T with an eigenvalue eps, which is class A, read
    # -1e-8 to -3e-10 against a threshold of 1e-10. |T^2| from the SVD of
    # T^2 rounds at about ||T||^2 eps, so each gets the other definite verdict.
    u = random_unitary(dim, seed)
    t = u @ scipy.linalg.block_diag(head * np.eye(dim - len(tail)), tail) @ u.conj().T
    v = is_class_a(t)
    if wrong is Status.MEMBER:
        assert v.status is Status.NON_MEMBER
        assert v.defect == pytest.approx(-1.0, abs=1e-6)
    else:
        assert v.status is Status.MEMBER


@pytest.mark.parametrize("dim, seed, eps", [(3, 0, 1e-8), (6, 3, 1e-6), (6, 3, 1e-8)])
def test_p_hyponormality_of_a_normal_matrix_with_a_tiny_eigenvalue(dim, seed, eps):
    # T = U diag(1, ..., 1, eps) U* is normal, hence p-hyponormal. The
    # eigenvalue eps^2 of the Grams T*T and TT* lies below their eigensolvers'
    # rounding of about 2e-16, so their roots miss eps by about 1e-8: they
    # read defects of -4e-10 to -2.4e-8 against a threshold of 1e-10, a
    # NonMember below the hyponormal Member in the chain. The SVD keeps eps.
    u = random_unitary(dim, seed)
    t = (u * np.r_[np.ones(dim - 1), eps]) @ u.conj().T
    assert is_p_hyponormal(t, 0.5).status is Status.MEMBER
    assert chain_violations(classify_all(t)) == []


def _normal_with_tiny_moduli(dim: int, seed: int, norm: float) -> np.ndarray:
    """Haar-conjugated normal matrix of norm ``norm`` whose eigenvalue moduli
    are log-uniform in [1e-12, 1] times the norm, with one modulus 1 and,
    for every third seed, one exact 0."""
    rng = make_rng(seed, 7)
    moduli = 10.0 ** rng.uniform(-12.0, 0.0, dim)
    moduli[0] = 1.0
    if seed % 3 == 0:
        moduli[1] = 0.0
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, dim))
    return random_normal(dim, seed, norm * moduli * phases)


@pytest.mark.parametrize("dim", [3, 5, 8, 16, 32])
def test_normal_matrices_with_tiny_eigenvalues_are_in_every_psd_class(dim):
    # A normal operator is hyponormal, p-hyponormal for every p and class A,
    # however small its eigenvalues. Roots of Grams lose singular values
    # below about ||T|| sqrt(eps) and said NonMember or Inconclusive on most
    # of these; the checks must read them at the rounding of one SVD.
    for seed in range(12):
        for norm in (1.0, 1e3):
            t = _normal_with_tiny_moduli(dim, seed, norm)
            verdicts = {"hyponormal": is_hyponormal(t), "class A": is_class_a(t),
                        **{f"p={p:g}": is_p_hyponormal(t, p) for p in (0.25, 0.5, 1.0)}}
            for name, v in verdicts.items():
                assert v.status is Status.MEMBER, (name, seed, norm, v.defect, v.threshold)


def test_is_normaloid_examples(j2):
    v = is_normaloid(j2)
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0, abs=1e-6)
    rng = np.random.default_rng(8)
    assert is_normaloid(random_normal_matrix(4, rng)).status is Status.MEMBER
    assert is_normaloid(haar(4, rng)).status is Status.MEMBER
    assert is_normaloid(normaloid_counterexample(2, 2, 5)).status is Status.MEMBER


def test_is_normaloid_decides_large_matrices_without_overflow():
    # The power-norm cross-check forms the powers of T/||T||: the powers of
    # T itself overflow a double from about ||T|| = 1e52 on, while the
    # class scale max(1, ||T||) is still far from it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e52, 1e200, 1e300):
            assert is_normaloid(c * random_normal(3, 1)).status is Status.MEMBER, c
            assert is_normaloid(c * jordan_nilpotent(4, 3, 1)).status is Status.NON_MEMBER, c


def _structure_matrices() -> list:
    """Ten matrices at the structure workload's dims 16-64: a Haar-conjugated
    normal block beside a pure part of 2 x 2 upper-triangular blocks, an
    index-2 Jordan nilpotent, and an rr instance, at dims 16, 32 and 64
    each, and one more normal + pure matrix at dim 24. The normal blocks
    at dims 32 and 64 have spectral radius 3 against a pure part of norm
    below 2, so those two matrices are normaloid."""
    mats = []
    for dim in (16, 32, 64, 24):
        rng = make_rng(dim, 5)
        n = dim // 4
        diag = np.sqrt(rng.uniform(0, 1, (2, n))) * np.exp(2j * np.pi * rng.uniform(0, 1, (2, n)))
        sup = rng.uniform(0.5, 1.0, n)
        pure = [np.array([[a, b], [0, c]]) for a, b, c in zip(diag[0], sup, diag[1])]
        u = random_unitary(dim, seed=dim)
        normal = random_normal(dim // 2, seed=dim, eigenvalues=None if dim < 32 else
                               3 * np.exp(2j * np.pi * rng.uniform(0, 1, dim // 2)))
        mats.append(u @ scipy.linalg.block_diag(normal, *pure) @ u.conj().T)
        if dim != 24:
            mats += [jordan_nilpotent(dim, 2, seed=dim), rr_instance(dim - dim // 2, dim // 4, dim)]
    return mats


_STRUCTURE_PREDICATES = (
    is_normal, is_quasinormal, lambda t: quasinormal_embry(t, 3), is_hyponormal,
    lambda t: is_p_hyponormal(t, 0.5), is_class_a, is_normaloid,
)


def test_algebraic_predicates_are_pinned_at_dims_16_to_64():
    # Every verdict field of the seven predicates of the structure
    # workload, bit for bit, whatever the order of the calls: matrix by
    # matrix, so that operator_norm meets each matrix again, and predicate
    # by predicate, so that the matrix changes on every call.
    mats = _structure_matrices()
    in_order = [[p(t).to_json_dict() for p in _STRUCTURE_PREDICATES] for t in mats]
    by_predicate = [[p(t).to_json_dict() for t in mats] for p in _STRUCTURE_PREDICATES]
    interleaved = [list(row) for row in zip(*by_predicate)]
    assert {v["status"] for row in in_order for v in row} == {"Member", "NonMember"}
    for doc in (in_order, interleaved):
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == "b82fc711970b6d5bc492e8f4d8b3af15c24211e060fe6c306d776b22578134cb"


# ---------------------------------------------------------------------------
# Pencil oracle
# ---------------------------------------------------------------------------


def test_pencil_check_nonnegative_scalar_pencil():
    spec = PencilSpec(
        terms=((2.0, np.eye(2, dtype=complex)),),
        lambda_lo=1e-6,
        lambda_max=4.0,
        scale=1.0,
    )
    v = pencil_check(spec)
    assert v.status is Status.MEMBER


def test_pencil_check_j2_paranormal(j2):
    # P(lam) = diag(lam^2, lam^2 - 2 lam): exact minimum -1 at lam = 1.
    v = pencil_check(quasi_paranormal_pencil(j2, 0))
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0, abs=1e-9)
    assert v.witness.pencil_lambda == pytest.approx(1.0, abs=1e-3)
    assert abs(v.witness.vector[1]) == pytest.approx(1.0, abs=1e-6)


def test_pencil_check_normal_member():
    rng = np.random.default_rng(9)
    t = random_normal_matrix(4, rng)
    for k in (0, 1, 2):
        v = pencil_check(quasi_paranormal_pencil(t, k))
        assert v.status is Status.MEMBER


def test_pencil_spec_validation(j2):
    with pytest.raises(InvalidPencil):
        PencilSpec(terms=((0.0, j2),), lambda_lo=1e-6, lambda_max=4.0, scale=1.0)
    with pytest.raises(InvalidPencil):
        PencilSpec(terms=((0.0, np.eye(2)),), lambda_lo=1.0, lambda_max=0.5, scale=1.0)
    with pytest.raises(InvalidPencil):
        PencilSpec(terms=(), lambda_lo=1e-6, lambda_max=4.0, scale=1.0)
    with pytest.raises(InvalidPencil):
        pencil_check("not a pencil")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_pencil_spec_rejects_non_finite_coefficients(bad):
    # The Hermitian check compares a NaN residual and is False for it: a NaN
    # coefficient was accepted and pencil_check returned Member, an infinite
    # one Inconclusive.
    m = np.array([[bad, 0], [0, 1]], dtype=complex)
    with pytest.raises(InvalidPencil, match="not finite"):
        PencilSpec(terms=((0, m), (1, np.eye(2))), lambda_lo=1e-3, lambda_max=4.0, scale=1.0)


_SKEW = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_NAN = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)


@pytest.mark.parametrize("terms, message", [
    (((0, _SKEW), (-1, np.eye(2))), "exponent 0 is not Hermitian"),
    (((0, np.eye(2)), (-1, _NAN)), "exponents must be finite and nonnegative"),
    (((0, np.eye(2)), (np.nan, np.eye(2))), "exponents must be finite and nonnegative"),
    (((0, np.eye(2)), (2, _NAN + _SKEW), (1, _SKEW)), "exponent 2 is not finite"),
    (((0, np.eye(2)), (1, _SKEW), (2, _NAN)), "exponent 1 is not Hermitian"),
    (((-1, np.ones((2, 3))), (0, np.ones((2, 3)))), "exponents must be finite and nonnegative"),
    (((0, np.ones((2, 3))), (-1, np.ones((2, 3)))), "coefficients must be square"),
    (((0, np.ones(3)),), "coefficients must be square"),
], ids=["hermitian-before-later-exponent", "exponent-before-finite", "nan-exponent",
        "finite-before-hermitian", "first-failing-term", "exponent-before-square",
        "square", "one-dimensional"])
def test_pencil_spec_raises_the_first_failing_terms_first_check(terms, message):
    # Every check runs over all terms at once; the error is the one a check
    # of one term after another, in the order exponent, shape, finiteness,
    # Hermitian, raises first.
    with pytest.raises(InvalidPencil, match=message):
        PencilSpec(terms=terms, lambda_lo=1e-3, lambda_max=4.0, scale=1.0)


@pytest.mark.parametrize("kw", [{"n_grid": 0}, {"n_grid": -3}, {"max_refine": -1}])
def test_pencil_check_rejects_bad_sizes(j2, kw):
    with pytest.raises(ValueError, match="need n_grid >= 1 and max_refine >= 0"):
        pencil_check(quasi_paranormal_pencil(j2, 0), **kw)


def _brent_reference(f, a, b, width, gain):
    """(lam, value) of Brent's bounded search for the least f on
    (a, b), one probe after another: the fminbound of Forsythe, Malcolm and
    Moler (1977), stopped once the bracket around the best probe is at most
    ``width`` wide, or once the parabola through the three best probes is
    convex with its vertex at most ``gain`` below the best value. The
    vertex comes from the parabola's divided differences."""
    cgold = (3.0 - math.sqrt(5.0)) / 2.0
    tol1 = width / 4.0
    x = w = v = a + cgold * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while max(x - a, b - x) > 2.0 * tol1:
        if len({x, w, v}) == 3:
            # p(t) = fx + s (t - x) + c (t - x)^2 through (w, fw) and (v, fv)
            c = ((fv - fx) / (v - x) - (fw - fx) / (w - x)) / (v - w)
            s = (fw - fx) / (w - x) + c * (x - w)
            if s * s <= 4.0 * c * gain:
                break
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < 2.0 * tol1 or b - u < 2.0 * tol1:
                    d = tol1 if 0.5 * (a + b) - x >= 0 else -tol1
                golden = False
        if golden:
            e = (a if x >= 0.5 * (a + b) else b) - x
            d = cgold * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _deflated(pencil):
    """(rank, pencil) of the pencil with its common kernel deflated as the
    engine deflates it (``_PencilStack.deflate``), or (rank, None) where
    the engine keeps its terms."""
    stack = _PencilStack([pencil])
    ranks, bases = stack.deflate([pencil], TOL)
    if not bases:
        return int(ranks[0]), None
    terms = tuple(zip(stack.exps[0].tolist(), stack.coefs[0]))
    return int(ranks[0]), dataclasses.replace(pencil, terms=terms)


def _sequential_pencil_minimum(pencil, n_grid, max_refine):
    """((least value, its lambda), number of searches) as pencil_check
    found them with one Brent search after another, one lambda per
    eigensolve, each stopped at width 1e-6 * lambda_max or at a predicted
    gain of 1e-3 * tol_decision * scale. It sweeps the matrices the engine
    sweeps: a pencil with a common kernel is deflated and reports at most
    0, and one whose terms all vanish is 0 at lambda_lo, unswept."""
    rank, deflated = _deflated(pencil)
    if not rank:
        return (0.0, pencil.lambda_lo), 0
    swept = deflated or pencil

    def f(lam):
        return float(np.linalg.eigvalsh(swept.evaluate(np.array([lam])))[0, 0])

    lams = np.geomspace(pencil.lambda_lo, pencil.lambda_max, n_grid)
    mins = np.linalg.eigvalsh(swept.evaluate(lams))[:, 0]
    padded = np.concatenate([[np.inf], mins, [np.inf]])
    local = np.nonzero((mins <= padded[:-2]) & (mins <= padded[2:]))[0]
    order = local[np.argsort(mins[local])][:max_refine]
    best_lam = float(lams[int(np.argmin(mins))])
    best_val = float(np.min(mins))
    width = 1e-6 * pencil.lambda_max
    gain = 1e-3 * TOL.tol_decision * pencil.scale
    searches = 0
    for idx in order:
        lo = lams[max(int(idx) - 1, 0)]
        hi = lams[min(int(idx) + 1, n_grid - 1)]
        if hi - lo <= width:
            continue
        searches += 1
        lam, val = _brent_reference(f, float(lo), float(hi), width, gain)
        if val < best_val:
            best_lam, best_val = lam, val
    if deflated is not None and best_val > 0.0:
        best_val = 0.0
    return (best_val, best_lam), searches


def test_lockstep_refinement_equals_sequential_search():
    # Pencils whose sweep refines several local minima at once, from all
    # three constructors; the lockstep searches must find the sequential
    # searches' (defect, lambda) bit for bit, at several grid sizes and caps.
    pencils = []
    for i in range(60):
        t = random_ginibre(3 + i % 4, seed=i)
        for ctor, k in (
            (quasi_paranormal_pencil, i % 3),
            (k_paranormal_pencil, 1 + i % 3),
            (absolute_k_paranormal_pencil, 1 + i % 3),
        ):
            pencil = ctor(t, k)
            if _sequential_pencil_minimum(pencil, 257, 8)[1] >= 2:
                pencils.append(pencil)
    assert len(pencils) >= 30
    assert {p.label.split("[")[0] for p in pencils} == {
        "quasi-paranormal", "k-paranormal", "absolute-k-paranormal"
    }
    for pencil in pencils:
        for n_grid, max_refine in ((257, 8), (257, 1), (65, 8), (2, 8)):
            v = pencil_check(pencil, n_grid=n_grid, max_refine=max_refine)
            got = (v.defect, v.witness.pencil_lambda)
            want, _ = _sequential_pencil_minimum(pencil, n_grid, max_refine)
            assert got == want, (pencil.label, n_grid, max_refine)
    # Pools of several pencils of one dimension share each round's
    # eigensolve, as classify_all's do; each pencil still gets its own result.
    pools = [[p for p in pencils if p.dim == dim] for dim in range(3, 7)]
    pools = [pool[i : i + 10] for pool in pools for i in range(0, len(pool), 10)]
    assert sum(len(pool) > 1 for pool in pools) >= 4
    for pool in pools:
        for n_grid, max_refine in ((257, 8), (65, 2)):
            got = _pencil_verdicts(_PencilStack(pool), pool, n_grid, max_refine, TOL)
            for pencil, v in zip(pool, got):
                want, _ = _sequential_pencil_minimum(pencil, n_grid, max_refine)
                assert (v.defect, v.witness.pencil_lambda) == want, (
                    pencil.label, n_grid, max_refine
                )


def _search(f, a, b, width, gain):
    """(result, probes) of the _brent coroutine driven on f, probes being
    the (lam, value) pairs it asked for, in order."""
    search, probes = _brent(a, b, width, gain), []
    lam = next(search)
    while True:
        probes.append((lam, f(lam)))
        try:
            lam = search.send(probes[-1][1])
        except StopIteration as done:
            return done.value, probes


def _golden_evaluations(a, b, width):
    """The evaluations golden-section search needs to shrink [a, b] to
    ``width``: two to start, then one per round of shrinking by 0.618."""
    return 1 + math.ceil(math.log(width / (b - a)) / math.log((math.sqrt(5.0) - 1.0) / 2.0))


def _j2_pencil_value(lam):
    # quasi_paranormal_pencil(J2, 0) is diag(lam^2, lam^2 - 2 lam): its
    # least eigenvalue lam^2 - 2 lam has its minimum -1 at lam = 1.
    j2 = np.array([[0, 1], [0, 0]], dtype=complex)
    return float(np.linalg.eigvalsh(quasi_paranormal_pencil(j2, 0).evaluate([lam]))[0, 0])


@pytest.mark.parametrize("f, a, b, minimizer", [
    (lambda t: 3.0 * (t - 0.3) ** 2 - 5.0, 0.0, 1.0, 0.3),
    (lambda t: (t - 0.7) ** 4, 0.0, 1.0, 0.7),
    (_j2_pencil_value, 0.5, 1.7, 1.0),
], ids=["quadratic", "quartic", "j2-pencil"])
@pytest.mark.parametrize("width", [1e-6, 1e-3])
def test_brent_finds_the_minimizer_in_fewer_evaluations_than_golden_section(
    f, a, b, minimizer, width
):
    (lam, val), probes = _search(f, a, b, width, gain=0.0)
    assert abs(lam - minimizer) <= width
    assert len(probes) < _golden_evaluations(a, b, width)
    assert all(a < u < b for u, _ in probes)
    assert (lam, val) in probes
    assert val == min(v for _, v in probes)


def test_brent_stops_on_a_function_flat_within_the_gain():
    # Golden-section search would take 30 evaluations on this bracket.
    assert _golden_evaluations(1.0, 2.0, 1e-6) == 30
    (_, val), probes = _search(lambda t: 0.5, 1.0, 2.0, 1e-6, gain=1e-11)
    assert len(probes) == 3 and val == 0.5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        (_, val), probes = _search(lambda t: 1e-13 * rng.random(), 1.0, 2.0, 1e-6, gain=1e-11)
        assert len(probes) <= 8, seed
        assert val == min(v for _, v in probes)


@pytest.mark.parametrize("f", [
    lambda t: math.nan,
    lambda t: math.nan if t < 1.5 else (t - 1.7) ** 2,
    lambda t: math.nan if t > 1.5 else (t - 1.2) ** 2,
], ids=["all-nan", "nan-left", "nan-right"])
def test_brent_stops_on_nan_values(f):
    (lam, val), probes = _search(f, 1.0, 2.0, 1e-6, gain=1e-11)
    assert len(probes) <= _golden_evaluations(1.0, 2.0, 1e-6) + 2
    assert all(1.0 < u < 2.0 for u, _ in probes)
    finite = [v for _, v in probes if not math.isnan(v)]
    if finite:
        assert val == min(finite)


def _certificate_pencils() -> list:
    """The pencils of all three constructors at k 0-3, one list per matrix:
    Ginibre matrices of dims 3-8 at scales 1e-3, 1 and 1e3, and two matrices
    of each of the seven member families."""
    mats = [scale * random_ginibre(dim, seed=200 + dim)
            for dim in range(3, 9) for scale in (1e-3, 1.0, 1e3)]
    mats += [_family_matrix(i) for i in range(14)]
    return [_classify_pencils(t) for t in mats]


def _classify_pencils(t) -> list:
    """The ten pencils classify_all builds for T at its default k list."""
    return ([quasi_paranormal_pencil(t, k) for k in range(4)]
            + [ctor(t, k) for ctor in (k_paranormal_pencil, absolute_k_paranormal_pencil)
               for k in (1, 2, 3)])


def _full_sweep(pencil, n_grid):
    """(values, local minima) of the sweep that eigensolves every point."""
    lams = np.geomspace(pencil.lambda_lo, pencil.lambda_max, n_grid)
    mins = np.linalg.eigvalsh(pencil.evaluate(lams))[:, 0]
    padded = np.concatenate([[np.inf], mins, [np.inf]])
    return mins, np.nonzero((mins <= padded[:-2]) & (mins <= padded[2:]))[0]


def _pruned_sweep(pencil, lams):
    """(values, evaluated, local minima) of the engine's sweep of one pencil
    on the grid ``lams``, its first pass included."""
    stack, grid = _PencilStack([pencil]), lams[None]
    [mins], [evaluated], [local] = _sweep(stack, grid, _first_pass(stack, grid))
    return mins, evaluated, local


def test_pruned_sweep_skips_only_cells_above_the_grid_minimum():
    # Every point the sweep skips lies strictly above the full grid's
    # minimum, every point it eigensolves has the full sweep's value, and
    # its local minima are exactly the full grid's local minima that it
    # eigensolved together with both their neighbours.
    pencils = [pencil for own in _certificate_pencils() for pencil in own]
    assert len(pencils) >= 300
    skipped = 0
    for pencil in pencils:
        for n_grid in (257, 65, 2):
            full, full_local = _full_sweep(pencil, n_grid)
            lams = np.geomspace(pencil.lambda_lo, pencil.lambda_max, n_grid)
            mins, evaluated, local = _pruned_sweep(pencil, lams)
            where = (pencil.label, n_grid)
            assert (full[~evaluated] > full.min()).all(), where
            assert np.array_equal(mins[evaluated], full[evaluated]), where
            assert np.isposinf(mins[~evaluated]).all(), where
            seen = evaluated & np.r_[True, evaluated[:-1]] & np.r_[evaluated[1:], True]
            assert set(np.flatnonzero(local)) == set(full_local[seen[full_local]]), where
            # The grid minimum is always among them.
            assert seen[full_local].any(), where
            skipped += int((~evaluated).sum())
    # The certificate has to skip something to be tested at all.
    assert skipped > 100 * len(pencils)


def _random_public_pencils(count: int) -> list:
    """Public pencils of dims 2-5 with 2-4 terms, exponents drawn from
    {0, 0.5, 1, 2, 3, 4} and indefinite Hermitian coefficients at scales
    1e-3 to 1e3, on domains (lo, 1e5 lo]."""
    rng = np.random.default_rng(2020)
    pencils = []
    for _ in range(count):
        dim, n_terms = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        exps = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 4.0], size=n_terms, replace=False)
        terms = []
        for expo in sorted(exps):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            terms.append((float(expo), 10.0 ** rng.uniform(-3, 3) * (g + g.conj().T) / 2.0))
        lo = 10.0 ** rng.uniform(-4, 0)
        pencils.append(PencilSpec(terms=tuple(terms), lambda_lo=lo, lambda_max=1e5 * lo,
                                  scale=1.0, label="random"))
    return pencils


def test_skipped_steps_lie_above_the_grid_minimum_between_grid_points():
    # The cell bound holds on the continuum, not only at the grid points:
    # lam_min(P) at lambdas strictly inside every step the sweep skipped
    # (one of its ends not eigensolved) lies above the full grid's minimum.
    pencils = [pencil for own in _certificate_pencils() for pencil in own]
    pencils += _random_public_pencils(120)
    fractions = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    sampled = 0
    for pencil in pencils:
        for n_grid in (257, 65):
            full, _ = _full_sweep(pencil, n_grid)
            lams = np.geomspace(pencil.lambda_lo, pencil.lambda_max, n_grid)
            _, evaluated, _ = _pruned_sweep(pencil, lams)
            step = np.flatnonzero(~(evaluated[:-1] & evaluated[1:]))
            if not step.size:
                continue
            inside = (lams[step, None] ** (1.0 - fractions) * lams[step + 1, None] ** fractions)
            values = np.linalg.eigvalsh(pencil.evaluate(inside.ravel()))[:, 0]
            assert (values > full.min()).all(), (pencil.label, n_grid)
            sampled += values.size
    assert sampled > 100 * len(pencils)


def test_sweep_bounds_concave_terms():
    # P(lam) = diag(lam - 2 sqrt(lam), 4.005 - 0.1 lam + 5e-4 lam^2) has its
    # least value -1 at lam = 1 and -0.995 at lam = 100. Over a cell around
    # lam = 1, sqrt(lam) lies above its chord, so the concave term's gap
    # must lower the bound; a bound that gives it none skips the cell and
    # the sweep ends at lam = 100.
    pencil = PencilSpec(
        terms=((0.0, np.diag([0.0, 4.005]).astype(complex)),
               (0.5, np.diag([-2.0, 0.0]).astype(complex)),
               (1.0, np.diag([1.0, -0.1]).astype(complex)),
               (2.0, np.diag([0.0, 5e-4]).astype(complex))),
        lambda_lo=1e-3, lambda_max=100.0, scale=1.0,
    )
    full, _ = _full_sweep(pencil, 257)
    lams = np.geomspace(pencil.lambda_lo, pencil.lambda_max, 257)
    mins, _, _ = _pruned_sweep(pencil, lams)
    assert full.min() == pytest.approx(-0.99992, abs=1e-5)
    assert mins.min() == full.min()
    assert pencil_check(pencil).defect == pytest.approx(-1.0, abs=1e-9)


def test_pruned_sweep_minimum_equals_full_sweep():
    # The refined minimum is the full sweep's bit for bit. Local minima in
    # skipped cells take no refinement slot, so where the full grid has
    # more than max_refine local minima the slots go to others, which can
    # only find an equal or a deeper minimum.
    for own in _certificate_pencils():
        for pencil, v in zip(own, _pencil_verdicts(_PencilStack(own), own, 257, 8, TOL)):
            val, lam = v.defect, v.witness.pencil_lambda
            want, _ = _sequential_pencil_minimum(pencil, 257, 8)
            if (val, lam) != want:
                assert val <= want[0], pencil.label
                assert len(_full_sweep(pencil, 257)[1]) > 8, pencil.label


def test_stacked_minima_equal_each_pencil_alone():
    # classify_all sweeps, refines and builds the witnesses of the ten
    # pencils of a matrix as one stack; each must get the verdict it gets
    # alone, witness vector included, bit for bit, at dims 1-8, at scales
    # far from 1, on member families, and at every grid size, including
    # stacks whose open cells span several chunks.
    mats = [scale * random_ginibre(dim, seed=300 + dim)
            for dim in range(1, 9) for scale in (1e-3, 1.0, 1e3)]
    mats += [_family_matrix(i) for i in range(0, 42, 5)]
    for t in mats:
        pool = _classify_pencils(t)
        for n_grid in (257, 65, 2):
            alone = [_pencil_verdicts(_PencilStack([pencil]), [pencil], n_grid, 8, TOL)[0]
                     .to_json_dict() for pencil in pool]
            stacked = [v.to_json_dict()
                       for v in _pencil_verdicts(_PencilStack(pool), pool, n_grid, 8, TOL)]
            assert stacked == alone, (t.shape, n_grid)


def test_stacked_build_equals_evaluate_bit_for_bit():
    # numpy squares for lams ** 2.0, and its power of an exponent array may
    # round differently: on builds with AVX-512 power it does at indices 9,
    # 11, 82 and 104 of this grid. The stacked build must take evaluate's
    # powers, in one pencil and in a stack, whatever order the points come in.
    lams = np.geomspace(2.3e-6, 9.2, 257)
    pool = _classify_pencils(random_ginibre(5, seed=11))
    want = np.concatenate([pencil.evaluate(lams) for pencil in pool])
    owner = np.repeat(np.arange(len(pool)), lams.size)
    order = np.random.default_rng(0).permutation(owner.size)
    stack = _PencilStack(pool)
    got = np.empty_like(want)
    got[order] = stack.matrices(owner[order], np.tile(lams, len(pool))[order])
    assert got.tobytes() == want.tobytes()
    for pencil in pool:
        alone = _PencilStack([pencil]).matrices(np.zeros(lams.size, dtype=np.intp), lams)
        assert alone.tobytes() == pencil.evaluate(lams).tobytes(), pencil.label


def _spy_sweeps(monkeypatch) -> list:
    """The evaluated mask of every engine sweep, as they run; the points of
    the first pass, which the engine eigensolves before the sweep, count as
    eigensolved."""
    masks = []

    def spying(stack, lams, first):
        out = _sweep(stack, lams, first)
        masks.append(out[1])
        return out

    monkeypatch.setattr("opclass.membership._sweep", spying)
    return masks


@pytest.mark.parametrize("t, k", [
    (k_quasi_member(3, 3, 2, seed=2), 2),
    (scipy.linalg.block_diag(np.eye(2, k=1), random_normal(3, seed=3)), 2),
], ids=["k-quasi-member", "jordan-beside-normal"])
def test_kernel_pencils_close_their_cells(monkeypatch, t, k):
    # Every coefficient of the k-quasi pencil is a Gram of a power T^j,
    # j >= k, so all vanish on ker T^k and lam_min(P) is 0 at every lambda:
    # no cell bound rises above the least value, and without the deflation
    # the sweep eigensolves all 257 grid points. Deflated, it eigensolves at
    # most a quarter of them. These two pencils' compressions to the
    # kernel's complement stay above 0 on the grid and in the refinement,
    # so each reports exactly 0 with a unit witness in ker T^k.
    masks = _spy_sweeps(monkeypatch)
    v = pencil_check(quasi_paranormal_pencil(t, k))
    [[evaluated]] = masks
    assert evaluated.size == 257 and evaluated.sum() <= 257 // 4
    assert v.status is Status.MEMBER and v.defect == 0.0
    x = v.witness.vector
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert np.linalg.norm(np.linalg.matrix_power(t, k) @ x) <= 1e-12


@pytest.mark.parametrize("dim, index, k", [(4, 2, 2), (5, 2, 3), (6, 3, 3), (8, 3, 4)])
def test_vanishing_k_quasi_pencils_are_members_without_a_sweep(monkeypatch, dim, index, k):
    # T^k = 0 up to rounding for a nilpotent of index at most k, so every
    # coefficient of the k-quasi pencil is rounding noise: the pencil has
    # rank 0 and is a Member with defect exactly 0, decided with no sweep.
    t = jordan_nilpotent(dim, index, seed=dim)
    masks = _spy_sweeps(monkeypatch)
    pencil = quasi_paranormal_pencil(t, k)
    v = pencil_check(pencil)
    assert masks == []
    assert v.status is Status.MEMBER and v.defect == 0.0
    assert v.witness.pencil_lambda == pencil.lambda_lo
    assert is_k_quasi_paranormal(t, k).status is Status.MEMBER


def _benchmark_pools(seed: int, names=("ClassifyMembers", "ClassifyRandom")) -> list:
    """The matrices of the benchmark's classify-members and classify-random
    pools (``perfbench/workloads.py``) at ``seed``, or of the pools of the
    workload classes ``names``."""
    root = Path(__file__).resolve().parents[1]
    path = sys.path[:]
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path[:] = path
    mats = []
    for name in names:
        pool = getattr(workloads, name)(seed, 20, root)
        pool.make_pool()
        mats += [item["matrix"] for item in pool.pool]
    return mats


def test_deflation_keeps_each_kernel_pencils_grid_minimum():
    # On every pencil with a common kernel that classify_all builds for the
    # two benchmark pools at seed 2026, min(0, the deflated pencil's grid
    # minimum) is the full pencil's grid minimum, to within 1e-13 of the
    # largest coefficient entry (8.1e-15 measured). A pencil whose terms all
    # vanish reports 0, and its full grid minimum lies within the kernel
    # cut tol_rank * scale of 0.
    problems = [("KQuasiParanormal", k) for k in range(4)]
    problems += [(name, k) for name in ("KParanormal", "AbsoluteKParanormal") for k in (1, 2, 3)]
    kernels = vanishing = 0
    for t in _benchmark_pools(2026):
        norm_t = operator_norm(t)
        for name, k in problems:
            pencil = _DUAL[name][2](t, k, norm_t, TOL)[1]
            rank, deflated = _deflated(pencil)
            if rank == pencil.dim:
                continue
            kernels += 1
            lams = np.geomspace(pencil.lambda_lo, pencil.lambda_max, 257)
            full = np.linalg.eigvalsh(pencil.evaluate(lams))[:, 0].min()
            if not rank:
                vanishing += 1
                assert abs(full) <= TOL.tol_rank * pencil.scale, pencil.label
                continue
            least = min(0.0, np.linalg.eigvalsh(deflated.evaluate(lams))[:, 0].min())
            entry = max(np.abs(m).max() for _, m in pencil.terms)
            assert abs(least - full) <= 1e-13 * entry, (pencil.label, rank)
    assert kernels == 54 and vanishing == 3


def _spy_deflations(monkeypatch) -> list:
    """(padded terms, exponents, rank, domain) of every pencil the engine
    deflates to 0 < r < n, as ``_PencilStack.deflate`` leaves it."""
    found, deflate = [], _PencilStack.deflate

    def spying(stack, pencils, tol):
        ranks, bases = deflate(stack, pencils, tol)
        for p in bases:
            found.append((stack.coefs[p].copy(), stack.exps[p].tolist(), int(ranks[p]),
                          (pencils[p].lambda_lo, pencils[p].lambda_max)))
        return ranks, bases

    monkeypatch.setattr(_PencilStack, "deflate", spying)
    return found


def test_padded_eigensolve_finds_each_compressions_least_value(monkeypatch):
    # The sweep's rounding margin reads the spectra of a deflated pencil's
    # compression, not the c I padding of its K block. That is sound if the
    # eigensolve of the padded matrix finds the compression's least value to
    # within n eps sum_j lam^e_j ||H_j||, H_j the compression's terms: here
    # at every grid point of every deflated pencil of the two classify pools
    # and verify-all at seed 2026.
    from opclass import harness

    found = _spy_deflations(monkeypatch)
    for i, t in enumerate(_benchmark_pools(2026)):
        classify_all(t, seed=i)
    pools = len(found)
    harness.run_suite(harness.SuiteConfig(suites=harness.THEOREM_IDS, trials=50, max_dim=8,
                                          seed=2026))
    eps = np.finfo(float).eps
    for coefs, exps, r, domain in found:
        n = coefs.shape[-1]
        lams = np.geomspace(*domain, 257)
        padded = PencilSpec(terms=tuple(zip(exps, coefs)), lambda_lo=domain[0],
                            lambda_max=domain[1], scale=1.0).evaluate(lams)
        least = np.linalg.eigvalsh(padded)[:, 0]
        compression = np.linalg.eigvalsh(padded[:, :r, :r])[:, 0]
        norms = [np.abs(np.linalg.eigvalsh((m + m.conj().T)[:r, :r] / 2.0)).max() for m in coefs]
        margin = n * eps * sum(lams**e * norm for e, norm in zip(exps, norms))
        assert (np.abs(least - compression) <= margin).all(), (r, n, exps)
    # 51 of the pools' 54 kernel pencils (3 have rank 0) and verify-all's 71.
    assert (pools, len(found) - pools) == (51, 71)


def test_deflated_spectra_leave_out_the_padding(monkeypatch):
    # J4 + a normal block with an eigenvalue of modulus 0.114, at k = 3: the
    # compression's values lie far below the padding c, and a margin that
    # read the padded spectrum kept every cell open, all 257 grid points.
    t = scipy.linalg.block_diag(np.eye(4, k=1), random_normal(3, seed=4)).astype(complex)
    pencil = quasi_paranormal_pencil(t, 3)
    stack = _PencilStack([pencil])
    ranks, bases = stack.deflate([pencil], TOL)
    assert list(bases) == [0] and 0 < ranks[0] < 7
    r, [constant] = ranks[0], np.flatnonzero(stack.exps[0] == 0.0)
    unpadded = stack.coefs[0, constant].copy()
    unpadded[r:, r:] = 0.0
    np.testing.assert_array_equal(stack.spectra[0, constant],
                                  np.linalg.eigvalsh((unpadded + unpadded.conj().T) / 2.0))
    masks = _spy_sweeps(monkeypatch)
    v = pencil_check(pencil)
    [[evaluated]] = masks
    assert evaluated.sum() < 257
    assert v.status is Status.MEMBER and v.defect == 0.0


# ---------------------------------------------------------------------------
# Sphere oracle
# ---------------------------------------------------------------------------


def test_sphere_check_zero_defect():
    v = sphere_check(lambda x: 0.0 * np.ones(x.shape[1]) if x.ndim == 2 else 0.0, 3, 4, seed=1)
    assert v.status is Status.MEMBER
    assert v.defect == pytest.approx(0.0, abs=1e-12)


def test_sphere_check_j2_paranormal_defect(j2):
    # ||T^2 x|| ||x|| - ||T x||^2 has minimum -1 at x = e2 (up to phase).
    def defect(x):
        cols = x if x.ndim == 2 else x[:, None]
        t2 = j2 @ j2
        vals = (
            np.linalg.norm(t2 @ cols, axis=0) * np.linalg.norm(cols, axis=0)
            - np.linalg.norm(j2 @ cols, axis=0) ** 2
        )
        return vals if x.ndim == 2 else float(vals[0])

    v = sphere_check(defect, 2, 6, seed=2)
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0, abs=1e-9)
    assert abs(v.witness.vector[1]) == pytest.approx(1.0, abs=1e-6)


def _j2_paranormal_defect(x):
    # ||T^2 x|| ||x|| - ||T x||^2 for T = J2, on a (2, n) batch of columns.
    j2 = np.array([[0, 1], [0, 0]], dtype=complex)
    return np.linalg.norm(j2 @ j2 @ x, axis=0) * np.linalg.norm(x, axis=0) - np.linalg.norm(
        j2 @ x, axis=0
    ) ** 2


def test_sphere_check_requires_batched_defect():
    # A defect must map a (dim, n) batch to an array of shape (n,). One that
    # returns a scalar, a list or another shape is rejected before the
    # descent; it is no longer evaluated column by column.
    for defect in (
        lambda x: 0.0,
        lambda x: [0.0] * x.shape[1],
        lambda x: np.zeros((1, x.shape[1])),
        lambda x: np.zeros(3),
    ):
        with pytest.raises(ValueError, match=r"to an array of shape \(n,\), got"):
            sphere_check(defect, 3, 4, seed=3)


def test_sphere_check_propagates_defect_errors():
    # An exception raised inside a batched defect reaches the caller; a
    # per-column fallback used to swallow it and answer NonMember -0.5.
    def per_vector(x):
        if x.ndim == 2:
            raise RuntimeError("defect failed")
        return float(np.real(x[0] * np.conj(x[0]))) - 0.5

    with pytest.raises(RuntimeError, match="defect failed"):
        sphere_check(per_vector, 3, 4, seed=3)

    def value_and_gradient(x):
        raise RuntimeError("gradient failed")

    with pytest.raises(RuntimeError, match="gradient failed"):
        sphere_check(_j2_paranormal_defect, 2, 4, value_and_gradient=value_and_gradient)


@pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_scale_must_be_finite_and_positive(scale):
    # An infinite scale made the sphere and the pencil report Member at
    # defects -1 and -3, a NaN one Inconclusive, a nonpositive one NonMember.
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        sphere_check(_j2_paranormal_defect, 2, 4, scale=scale)
    pencil = quasi_paranormal_pencil(np.eye(2, k=1, dtype=complex), 0)
    with pytest.raises(InvalidPencil, match="scale must be finite and positive"):
        PencilSpec(terms=pencil.terms, lambda_lo=pencil.lambda_lo,
                   lambda_max=pencil.lambda_max, scale=scale)


def test_sphere_check_deterministic():
    rng = np.random.default_rng(10)
    t = ginibre(4, rng)

    def defect(x):
        cols = x if x.ndim == 2 else x[:, None]
        vals = np.linalg.norm(t @ cols, axis=0) - 0.9
        return vals if x.ndim == 2 else float(vals[0])

    a = sphere_check(defect, 4, 5, seed=7)
    b = sphere_check(defect, 4, 5, seed=7)
    assert a.defect == b.defect
    np.testing.assert_array_equal(a.witness.vector, b.witness.vector)


def test_sphere_stops_in_decision_units():
    # The descent stops once its least value stalls within a millionth of
    # the decision band tol_decision * scale. On x^H A x, with A's least
    # eigenvalue -c times the band and its eigenvector off every start, it
    # must reach -c * band at a scale far below 1, where a stop floor that
    # ignored the scale would sit at the band itself.
    def quadratic_form(eigenvalues, scale, seed):
        dim = len(eigenvalues)
        u = random_unitary(dim, seed=seed)
        a = (u * np.asarray(eigenvalues)) @ u.conj().T

        def value_and_gradient(x):
            ax = a @ x
            return np.add.reduce((x.conj() * ax).real, axis=0), 2.0 * ax

        return sphere_check(lambda x: value_and_gradient(x)[0], dim, 8, seed=seed,
                            scale=scale, value_and_gradient=value_and_gradient)

    scale = 1e-6
    band = TOL.tol_decision * scale
    for c, want in ((2.0, Status.NON_MEMBER), (0.5, Status.INCONCLUSIVE), (0.05, Status.MEMBER)):
        v = quadratic_form(band * np.array([-c, 1.0, 2.0, 3.0, 4.0, 5.0]), scale, 3)
        assert v.status is want, c
        assert abs(v.defect + c * band) <= 1e-6 * band, c
    # A member with a smooth minimum 0.5 * scale that no start sits on is
    # reached to 1e-12 relative.
    for dim, scale in ((3, 1e-3), (6, 1.0), (8, 1e3)):
        v = quadratic_form(scale * np.linspace(0.5, 5.0, dim), scale, dim)
        assert v.status is Status.MEMBER
        assert v.defect == pytest.approx(0.5 * scale, rel=1e-12)
    # The paranormal defect of a normaloid counterexample M + N has its least
    # value -||N||^2 = -||T||^2 / 4, at N's top right-singular vector. The
    # predicates' SVD warm start sits on that vector, so this checks the
    # warm-start path: the descent must keep the minimum it starts on.
    for dim_m, dim_n in ((1, 2), (2, 3), (3, 4)):
        w = random_unitary(dim_m + dim_n, seed=dim_n)
        t = w @ normaloid_counterexample(dim_m, dim_n, seed=dim_m) @ w.conj().T
        v = is_k_quasi_paranormal(t, 0, seed=dim_n)
        assert v.defect == pytest.approx(-operator_norm(t) ** 2 / 4, rel=1e-12)


def test_sphere_check_requires_restart():
    with pytest.raises(ValueError):
        sphere_check(lambda x: 0.0, 2, 0)


def test_sphere_check_rejects_bad_dim_and_warm_starts(j2):
    terms = _DUAL["KQuasiParanormal"][2](j2, 0, operator_norm(j2), TOL)[0]
    fn = _NormProductDefect.of(terms(np.linalg.svd(j2)))
    with pytest.raises(ValueError, match="dim must be at least 1"):
        sphere_check(fn, 0, 4)
    for ws in (
        np.zeros((2, 1), dtype=complex),  # a zero column
        np.array([[1.0, np.nan], [0.0, 1.0]]),  # a non-finite column
        np.array([[1.0, 0.0], [0.0, np.inf]]),
        np.ones((3, 1)),  # wrong row count
        np.ones(2),  # not (dim, n)
    ):
        with pytest.raises(ValueError, match="warm_starts"):
            sphere_check(fn, 2, 4, seed=1, warm_starts=ws)


def test_value_and_gradient_value_is_the_defect():
    rng = np.random.default_rng(24)
    for dim in range(3, 9):
        x = rng.standard_normal((dim, 6)) + 1j * rng.standard_normal((dim, 6))
        x = np.concatenate([x / np.linalg.norm(x, axis=0), np.eye(dim)], axis=1)
        for t in (ginibre(dim, rng), np.eye(dim, k=1, dtype=complex)):
            for k in range(4):
                for name, fn, _, _ in dual_families(t, k):
                    vals, _ = fn.value_and_gradient(x)
                    np.testing.assert_array_equal(vals, fn(x), err_msg=f"{name} k={k}")


def test_stacked_values_equal_each_problem_alone():
    # The dual engine evaluates the unit witnesses of all its problems in
    # one call on one stack, padded over every class, and those of the
    # problems that descended on a subset of it. Each value must be the one
    # the problem's own defect gives at its own vector, bit for bit.
    rng = np.random.default_rng(31)
    for dim in (*range(3, 9), 16, 24, 32):
        mats = (ginibre(dim, rng), random_normal_matrix(dim, rng), 1e3 * ginibre(dim, rng))
        terms = [build(t, k, operator_norm(t), TOL)[0](np.linalg.svd(t)) for t in mats
                 for k in range(4) for least, _, build in _DUAL.values() if k >= least]
        x = rng.standard_normal((len(terms), dim)) + 1j * rng.standard_normal((len(terms), dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        alone = np.array([_NormProductDefect.of(problem)(v) for problem, v in zip(terms, x)])
        stack = _NormProductDefect.of(*terms)
        rows = np.flatnonzero(rng.random(len(terms)) < 0.5)
        for got, want in ((stack(x[..., None])[:, 0], alone),
                          (stack.take(rows)(x[rows, :, None])[:, 0], alone[rows])):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64),
                                          err_msg=f"dim {dim}")


def test_defect_gradient_matches_central_differences():
    # Euclidean gradient in the d/dRe + i d/dIm convention, checked column by
    # column against central differences of the unnormalized defect. The
    # plain Jordan block puts some T^j e_i exactly at 0, where the norm has a
    # symmetric kink and both the formula and the differences give 0.
    rng = np.random.default_rng(22)
    h = 1e-6
    for dim in range(3, 9):
        x = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
        x = np.concatenate([x / np.linalg.norm(x, axis=0), np.eye(dim)], axis=1)
        for t in (ginibre(dim, rng), np.eye(dim, k=1, dtype=complex)):
            for k in range(4):
                for _, fn, _, _ in dual_families(t, k):
                    grad = fn.value_and_gradient(x)[1]
                    assert grad.shape == x.shape
                    assert np.all(np.isfinite(grad))
                    ref = np.empty_like(x)
                    for j in range(dim):
                        e = np.zeros((dim, 1))
                        e[j] = h
                        ref[j] = (fn(x + e) - fn(x - e)) / (2 * h) + 1j * (
                            fn(x + 1j * e) - fn(x - 1j * e)
                        ) / (2 * h)
                    err = np.linalg.norm(grad - ref) / max(1.0, np.linalg.norm(ref))
                    assert err < 1e-6, (dim, k, err)


def test_central_gradient_matches_projected_analytic_gradient():
    # The sphere's own central-difference provider, against the analytic
    # gradient projected onto the tangent space: g - Re(x^H g) x.
    rng = np.random.default_rng(23)
    for dim in range(3, 9):
        x = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
        x /= np.linalg.norm(x, axis=0)
        t = ginibre(dim, rng)
        for k in range(4):
            for name, fn, _, _ in dual_families(t, k):
                g = fn.value_and_gradient(x)[1]
                ref = g - np.sum(x.conj() * g, axis=0).real * x
                got = _central_gradient(fn, dim)(x)[1]
                err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                assert err < 1e-6, (dim, k, name, err)


# ---------------------------------------------------------------------------
# Dual-oracle predicates
# ---------------------------------------------------------------------------


def test_k_quasi_examples(j2):
    # Jordan nilpotents of index k+1 are k-quasi-paranormal.
    for k in (1, 2, 3):
        jn = jordan_nilpotent(k + 1, k + 1, seed=k)
        assert is_k_quasi_paranormal(jn, k, seed=k).status is Status.MEMBER
    v = is_k_quasi_paranormal(j2, 0, seed=1)
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0, abs=1e-9)


def test_k_quasi_monotone_in_k():
    rng = np.random.default_rng(11)
    members = [
        jordan_nilpotent(3, 2, seed=1),
        jordan_nilpotent(4, 3, seed=2),
        random_normal_matrix(4, rng),
    ]
    for t in members:
        for k in (1, 2):
            a = is_k_quasi_paranormal(t, k, seed=5)
            b = is_k_quasi_paranormal(t, k + 1, seed=5)
            if a.status is Status.MEMBER:
                assert b.status is Status.MEMBER


def test_k_paranormal_examples(j2):
    rng = np.random.default_rng(12)
    for k in (1, 2, 3):
        assert is_k_paranormal(random_normal_matrix(3, rng), k, seed=k).status is Status.MEMBER
    v = is_k_paranormal(j2, 2, seed=2)
    assert v.status is Status.NON_MEMBER
    # T^3 = 0 while ||T e2|| = 1: defect -1 at e2.
    assert v.defect == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(ValueError):
        is_k_paranormal(j2, 0)


def test_k_paranormal_k1_is_paranormal():
    rng = np.random.default_rng(13)
    for i in range(100):
        t = ginibre(4, rng)
        a = is_k_paranormal(t, 1, seed=i)
        b = is_k_quasi_paranormal(t, 0, seed=i)
        assert a.status is b.status


def test_absolute_k_paranormal_examples(j2):
    rng = np.random.default_rng(14)
    assert is_absolute_k_paranormal(random_normal_matrix(3, rng), 2, seed=1).status is Status.MEMBER
    v = is_absolute_k_paranormal(j2, 2, seed=2)
    assert v.status is Status.NON_MEMBER
    with pytest.raises(ValueError):
        is_absolute_k_paranormal(j2, 0)


def test_absolute_k_defect_of_a_jordan_nilpotent_is_exact():
    # A nilpotent T of norm 1 with T x in ker T for some unit x has the least
    # absolute-1 defect || |T| T x || - ||T x||^2 = -1. A root of the Gram
    # T*T reads its zero eigenvalues, rounded to about eps, as singular
    # values near sqrt(eps), and so missed -1 by up to 2.7e-8, 2.7 decision
    # thresholds; |T| = V S V* from the SVD of T keeps them at about eps.
    for n in range(2, 9):
        for index in range(2, n + 1):
            for seed in range(3):
                v = is_absolute_k_paranormal(jordan_nilpotent(n, index, seed), 1)
                assert v.status is Status.NON_MEMBER, (n, index, seed)
                assert v.defect == pytest.approx(-1.0, abs=1e-12), (n, index, seed)


def test_absolute_k1_agrees_with_paranormal():
    rng = np.random.default_rng(15)
    for i in range(100):
        t = ginibre(4, rng)
        a = is_absolute_k_paranormal(t, 1, seed=i)
        b = is_k_quasi_paranormal(t, 0, seed=i)
        assert a.status is b.status


def test_zero_matrix_member_of_everything():
    z = np.zeros((3, 3))
    res = classify_all(z, seed=0)
    assert all(v.status is Status.MEMBER for v in res.values())


def test_nonmember_witness_certifies(j2):
    rng = np.random.default_rng(16)
    for i in range(10):
        t = ginibre(4, rng)
        v = is_k_quasi_paranormal(t, 1, seed=i)
        if v.status is Status.NON_MEMBER:
            x = v.witness.vector
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
            p2 = t @ t @ t  # T^{k+2} with k = 1
            p1 = t @ t
            p0 = t
            exact = np.linalg.norm(p2 @ x) * np.linalg.norm(p0 @ x) - np.linalg.norm(p1 @ x) ** 2
            assert exact == pytest.approx(v.defect, rel=1e-9)
            assert exact <= -v.threshold


def test_oracle_agreement_small():
    # The sphere runs both with the analytic gradient and with central
    # differences; the two must agree, and each with the pencil.
    rng = np.random.default_rng(17)
    for i in range(15):
        t = ginibre(4, rng)
        for k in (0, 1, 2):
            for name, fn, pencil, scale in dual_families(t, k):
                pv = pencil_check(pencil)
                kw = dict(seed=i, warm_starts=np.linalg.svd(t)[2].conj().T, scale=scale)
                sv = sphere_check(fn, 4, 8, value_and_gradient=fn.value_and_gradient, **kw)
                fv = sphere_check(fn, 4, 8, **kw)
                assert sv.status is fv.status, (i, k, name)
                for v in (sv, fv):
                    if pv.is_definite and v.is_definite:
                        assert pv.status is v.status, (i, k, name)


def test_reconcile_raises_on_decisive_disagreement():
    member = MembershipVerdict(
        status=Status.MEMBER, defect=1.0, oracle="sphere",
        witness=Witness(vector=np.array([1.0 + 0j])), threshold=1e-8, seed=0,
    )
    nonmember = MembershipVerdict(
        status=Status.NON_MEMBER, defect=-1.0, oracle="pencil",
        witness=Witness(vector=np.array([1.0 + 0j]), pencil_lambda=1.0),
        threshold=1e-8,
    )
    with pytest.raises(OracleDisagreement):
        _reconcile(member, nonmember, np.array([1.0 + 0j]), 1.0, label="synthetic")


def test_reconcile_judges_each_oracle_in_its_own_band():
    # The pencil's scale is a higher power of ||T|| than the sphere's, so
    # its threshold can be 1e4 times the sphere's. A pencil NonMember at 5
    # times its own threshold is not decisive beside a decisive sphere
    # Member; at 20 times it is, and the oracles disagree.
    sphere = MembershipVerdict(
        status=Status.MEMBER, defect=1.0, oracle="sphere",
        witness=Witness(vector=np.array([1.0 + 0j])), threshold=1e-8, seed=5,
    )

    def pencil(ratio):
        return MembershipVerdict(
            status=Status.NON_MEMBER, defect=-ratio * 1e-4, oracle="pencil",
            witness=Witness(vector=np.array([1.0 + 0j]), pencil_lambda=2.0),
            threshold=1e-4,
        )

    # The pencil's NonMember reaches _reconcile only when its witness failed
    # re-validation, so the verdict is Inconclusive.
    v = _reconcile(sphere, pencil(5.0), sphere.witness.vector, 1.0, label="synthetic")
    assert (v.status, v.oracle, v.defect) == (Status.INCONCLUSIVE, "sphere", 1.0)
    assert v.threshold == 1e-8 and v.seed == 5
    with pytest.raises(OracleDisagreement):
        _reconcile(sphere, pencil(20.0), sphere.witness.vector, 1.0, label="synthetic")


_M, _NM, _I = Status.MEMBER, Status.NON_MEMBER, Status.INCONCLUSIVE
# Oracle defects per status: the Member one sits inside 10 * tol_decision,
# so a Member/NonMember pair is a near-disagreement, never a raise.
_SPHERE_DEFECT = {_M: 1e-11, _NM: -2e-8, _I: -5e-9}
_PENCIL_DEFECT = {_M: 1e-11, _NM: -2e-8, _I: 0.0}


@pytest.mark.parametrize(
    "s_stat, p_stat, s_exact, p_exact, status, oracle, defect",
    [
        # The six status pairs without a pencil NonMember, every sphere
        # NonMember witness certified.
        (_M, _M, -3e-8, -5e-8, _M, "sphere", 1e-11),
        (_M, _I, -3e-8, -5e-8, _M, "sphere", 1e-11),
        (_NM, _M, -3e-8, -5e-8, _NM, "sphere", -3e-8),
        (_NM, _I, -3e-8, -5e-8, _NM, "sphere", -3e-8),
        (_I, _M, -3e-8, -5e-8, _M, "sphere", -5e-9),
        (_I, _I, -3e-8, -5e-8, _I, "sphere", -5e-9),
        # A NonMember claim whose witness fails re-validation leaves the
        # sphere's Inconclusive, even beside a Member.
        (_M, _NM, -3e-8, 0.0, _I, "sphere", 1e-11),
        (_NM, _M, 0.0, -5e-8, _I, "sphere", -2e-8),
        (_NM, _NM, 0.0, 0.0, _I, "sphere", -2e-8),
        (_NM, _I, 0.0, -5e-8, _I, "sphere", -2e-8),
        (_I, _NM, -3e-8, 0.0, _I, "sphere", -5e-9),
        (_NM, _NM, -3e-8, 0.0, _NM, "sphere", -3e-8),
    ],
)
def test_reconcile_branches(s_stat, p_stat, s_exact, p_exact, status, oracle, defect):
    # s_exact and p_exact are the defining values at the sphere's and the
    # pencil's unit witnesses. A pencil NonMember that p_exact proves is
    # decided before the descent and never reconciled.
    e0, e1 = np.eye(2, dtype=np.complex128)
    sphere = MembershipVerdict(
        status=s_stat, defect=_SPHERE_DEFECT[s_stat], oracle="sphere",
        witness=Witness(vector=e0), threshold=1e-8, seed=3,
    )
    pencil = MembershipVerdict(
        status=p_stat, defect=_PENCIL_DEFECT[p_stat], oracle="pencil",
        witness=Witness(vector=e1, pencil_lambda=0.5), threshold=1e-8,
    )
    assert not _proves(pencil, p_exact, sphere.threshold)
    v = _reconcile(sphere, pencil, e0, s_exact, label="synthetic")
    assert (v.status, v.oracle, v.defect) == (status, oracle, defect)
    assert v.seed == 3 and v.threshold == TOL.tol_decision
    assert v.witness.pencil_lambda is None and np.array_equal(v.witness.vector, e0)


_PREDICATES = {
    "KQuasiParanormal": is_k_quasi_paranormal,
    "KParanormal": is_k_paranormal,
    "AbsoluteKParanormal": is_absolute_k_paranormal,
}


def _patch_pencil_claims(monkeypatch, change):
    """Pass every pencil verdict of the engine through ``change``: those its
    first-pass proof is asked about, and those it returns."""
    real = _pencil_verdicts

    def patched(stack, pencils, n_grid, max_refine, tol, proof):
        def changed(rows, claims):
            return proof(rows, [change(v) for v in claims])

        return [change(v) for v in real(stack, pencils, n_grid, max_refine, tol, changed)]

    monkeypatch.setattr("opclass.membership._pencil_verdicts", patched)


def _count_descents(monkeypatch) -> list:
    """The number of problems of every engine descent, as they run."""
    descended = []

    def counting(value_and_gradient, x, *args):
        descended.append(len(x))
        return _descend(value_and_gradient, x, *args)

    monkeypatch.setattr("opclass.membership._descend", counting)
    return descended


def _count_compactions(monkeypatch) -> list:
    """The number of problems kept by every compaction of an engine descent
    to several problems, as they run; the descent's take callback alone is
    counted, not the engine's own restriction to the descending problems."""
    kept = []

    def counting(value_and_gradient, x, band, take):
        def counting_take(rows):
            if len(rows) > 1:  # only a compaction keeps several problems
                kept.append(len(rows))
            return take(rows)

        return _descend(value_and_gradient, x, band, counting_take)

    monkeypatch.setattr("opclass.membership._descend", counting)
    return kept


def _first_pass_witness(pencil, n_grid=257):
    """(lambda, unit eigenvector) at the least of the first-pass points of a
    pencil without a kernel: every 32nd grid point and the last."""
    lams = np.geomspace(pencil.lambda_lo, pencil.lambda_max, n_grid)
    coarse = np.minimum(np.arange(0, n_grid + 31, 32), n_grid - 1)
    lam = lams[coarse][np.argmin(np.linalg.eigvalsh(pencil.evaluate(lams[coarse]))[:, 0])]
    vec = np.linalg.eigh(pencil.evaluate(np.array([lam])))[1][0][:, 0]
    return float(lam), vec / np.linalg.norm(vec)


def test_pencil_certified_nonmembers_skip_the_descent(monkeypatch):
    # A pencil NonMember whose unit eigenvector at its least first-pass
    # point breaks the defining inequality beyond the sphere's threshold is
    # the verdict: no descent runs, its defect is the defining value at that
    # vector, and it takes the sphere's threshold and the seed.
    t = random_ginibre(5, seed=11)
    expected = {}
    for k in (1, 2):
        for name, fn, pencil, scale in dual_families(t, k):
            assert pencil_check(pencil).status is Status.NON_MEMBER
            lam, x = _first_pass_witness(pencil)
            assert fn(x) <= -TOL.tol_decision * scale
            expected[name, k] = MembershipVerdict(
                status=Status.NON_MEMBER, defect=fn(x), oracle="pencil",
                witness=Witness(vector=x, pencil_lambda=lam),
                threshold=TOL.tol_decision * scale, seed=3,
            )

    def refuse(*args):
        raise AssertionError("the sphere descent ran")

    monkeypatch.setattr("opclass.membership._descend", refuse)
    for (name, k), v in expected.items():
        assert _PREDICATES[name](t, k, seed=3).to_json_dict() == v.to_json_dict(), (name, k)


def test_a_failed_first_pass_proof_takes_the_full_sweep(monkeypatch):
    # With the engine's defect reading 0 at the first-pass eigenvectors, no
    # pencil is proved there: each is swept and refined, Brent searches
    # included, and is certified at its refined eigenvector, bit for bit the
    # verdict the engine gave before the first-pass proof, which
    # pencil_check's full sweep reproduces.
    t = random_ginibre(5, seed=11)
    expected, moved = {}, 0
    for k in (1, 2):
        for name, fn, pencil, scale in dual_families(t, k):
            claim = pencil_check(pencil)
            x = claim.witness.vector / np.linalg.norm(claim.witness.vector)
            expected[name, k] = MembershipVerdict(
                status=Status.NON_MEMBER, defect=fn(x), oracle="pencil",
                witness=Witness(vector=x, pencil_lambda=claim.witness.pencil_lambda),
                threshold=TOL.tol_decision * scale, seed=3,
            )
            moved += _first_pass_witness(pencil)[0] != claim.witness.pencil_lambda
    # The refinement moves every witness off the first pass.
    assert moved == len(expected)
    real, calls, searches = _NormProductDefect.__call__, [], []

    def first_reads_zero(defect, x):
        calls.append(x.shape)
        values = real(defect, x)
        return np.zeros_like(values) if len(calls) == 1 else values

    def counting(*args):
        searches.append(args)
        return _brent(*args)

    monkeypatch.setattr(_NormProductDefect, "__call__", first_reads_zero)
    monkeypatch.setattr("opclass.membership._brent", counting)
    for (name, k), v in expected.items():
        calls.clear()
        searches.clear()
        assert _PREDICATES[name](t, k, seed=3).to_json_dict() == v.to_json_dict(), (name, k)
        # The proof at the first pass and the check after the refinement.
        assert len(calls) == 2 and searches, (name, k)


def test_proved_pencils_leave_the_sweep(monkeypatch):
    # A pencil whose eigenvector at its least first-pass point proves
    # NonMember is decided there: it reaches neither _sweep's rounds nor a
    # Brent search. Every pencil-certified NonMember of both benchmark
    # pools at seed 2026 is proved so; on classify-random every dual
    # problem is one, so no sweep round runs and no search starts.
    proved, swept, searches = [], [], []

    def verdicts(stack, pencils, n_grid, max_refine, tol, proof=None):
        def spying(rows, claims):
            out = proof(rows, claims)
            proved.extend(pencils[r].label for r, ok in zip(rows, out) if ok)
            return out

        return _pencil_verdicts(stack, pencils, n_grid, max_refine, tol, proof and spying)

    def minima(stack, pencils, *args):
        swept.extend(p.label for p in pencils)
        return _pencil_minima(stack, pencils, *args)

    def counting(*args):
        searches.append(args)
        return _brent(*args)

    monkeypatch.setattr("opclass.membership._pencil_verdicts", verdicts)
    monkeypatch.setattr("opclass.membership._pencil_minima", minima)
    monkeypatch.setattr("opclass.membership._brent", counting)
    for name, certified in (("ClassifyRandom", 540), ("ClassifyMembers", 193)):
        searches.clear()
        total = sweeps = 0
        for i, t in enumerate(_benchmark_pools(2026, (name,))):
            proved.clear()
            swept.clear()
            pencil = [v for v in classify_all(t, seed=i).values() if v.oracle == "pencil"]
            # The pencil labels of one matrix are distinct.
            assert len(proved) == len(pencil) and not set(proved) & set(swept), (name, i)
            total += len(pencil)
            sweeps += len(swept)
        assert total == certified, name
        if name == "ClassifyRandom":
            assert sweeps == 0 and searches == []
        else:
            assert sweeps > 0 and searches


@pytest.mark.parametrize("kind", ["ginibre", "normal"])
def test_pencil_nonmember_whose_witness_fails_still_descends(monkeypatch, kind):
    # Every defining defect is 0 at an eigenvector of T. A pencil NonMember
    # with that witness fails re-validation, so the problem descends and
    # is reconciled as _reconcile rules: NonMember by the sphere's witness
    # for a Ginibre matrix, Inconclusive beside the sphere's Member for a
    # normal one.
    t = random_ginibre(4, seed=12) if kind == "ginibre" else random_normal(4, seed=12)
    eigvec = np.linalg.eig(t)[1][:, 0]

    def bogus(v):
        return dataclasses.replace(
            v, status=Status.NON_MEMBER, defect=min(v.defect, -2.0 * v.threshold),
            witness=Witness(vector=eigvec, pencil_lambda=v.witness.pencil_lambda),
        )

    # Each oracle alone, as the engine runs it, before the engine is patched.
    cases = [
        (name, bogus(pencil_check(pencil)), fn, pencil.label,
         sphere_check(fn, 4, 8, seed=3, warm_starts=np.linalg.svd(t)[2].conj().T, scale=scale,
                      value_and_gradient=fn.value_and_gradient))
        for name, fn, pencil, scale in dual_families(t, 1)
    ]
    descended = _count_descents(monkeypatch)
    _patch_pencil_claims(monkeypatch, bogus)
    for name, claim, fn, label, sphere in cases:
        v = _PREDICATES[name](t, 1, seed=3)
        unit = sphere.witness.vector / np.linalg.norm(sphere.witness.vector)
        alone = _reconcile(sphere, claim, unit, fn(unit), label)
        assert v.to_json_dict() == alone.to_json_dict(), name
        assert v.oracle == "sphere"
        assert v.status is (Status.NON_MEMBER if kind == "ginibre" else Status.INCONCLUSIVE)
    assert descended == [1] * len(cases)


def test_decisive_pencil_member_against_a_sphere_nonmember_raises(monkeypatch):
    # A pencil Member does not certify anything, so the problem descends;
    # the sphere finds a decisive NonMember, and the engine raises rather
    # than pick a side.
    t = random_ginibre(4, seed=13)
    _patch_pencil_claims(monkeypatch, lambda v: dataclasses.replace(
        v, status=Status.MEMBER, defect=1.0))
    for name, predicate in _PREDICATES.items():
        with pytest.raises(OracleDisagreement, match="sphere says NonMember"):
            predicate(t, 1, seed=3)
    with pytest.raises(OracleDisagreement):
        classify_all(t, seed=3)


@pytest.mark.parametrize("dim", [9, 12, 16])
@pytest.mark.parametrize("kind", ["normal", "jordan2"])
def test_dual_statuses_beyond_dim_8(kind, dim):
    # Normal matrices are in every class; an index-2 nilpotent is
    # k-quasi-paranormal for k >= 1 (T^(k+1) = 0) and in no other class,
    # since T^2 = 0 kills ||T^(k+1) x|| and || |T|^k T x || while T x != 0.
    assert set(_PREDICATES) == set(_DUAL)
    if kind == "normal":
        t = random_normal(dim, seed=dim)
    else:
        t = jordan_nilpotent(dim, 2, seed=dim)
    u = random_unitary(dim, seed=1000 + dim)
    for mat in (t, u @ t @ u.conj().T):
        for name, (least_k, *_) in _DUAL.items():
            for k in range(least_k, 3):
                member = kind == "normal" or (name == "KQuasiParanormal" and k >= 1)
                v = _PREDICATES[name](mat, k, seed=dim)
                assert v.status is (Status.MEMBER if member else Status.NON_MEMBER), (name, k)


def test_first_pass_proof_keeps_every_status_beyond_dim_8(monkeypatch):
    # 20 Haar-conjugated matrices at dims 9-14, Ginibre and J_m + N with N
    # normal and m = 2-4: every dual status is the one the engine gives
    # when no pencil is proved at its first pass, so that every pencil is
    # swept and refined before its eigenvector is checked. Both ways take
    # about 0.5 s on a 2-vCPU host.
    mats = []
    for i in range(20):
        dim, u = 9 + i % 6, random_unitary(9 + i % 6, seed=500 + i)
        if i % 2:
            m = 2 + i // 2 % 3
            t = scipy.linalg.block_diag(np.eye(m, k=1), random_normal(dim - m, seed=500 + i))
        else:
            t = random_ginibre(dim, seed=500 + i)
        mats.append(u @ t @ u.conj().T)
    problems = [("KQuasiParanormal", k) for k in range(4)]
    problems += [(name, k) for name in ("KParanormal", "AbsoluteKParanormal") for k in (1, 2, 3)]

    def statuses():
        return [[v.status for v in _dual_verdicts([(t, name, k, i) for name, k in problems], TOL)]
                for i, t in enumerate(mats)]

    proved = statuses()
    monkeypatch.setattr("opclass.membership._pencil_verdicts",
                        lambda stack, pencils, n_grid, max_refine, tol, proof:
                        _pencil_verdicts(stack, pencils, n_grid, max_refine, tol))
    assert statuses() == proved
    # Both statuses occur: the J_m + N matrices are k-quasi-paranormal for
    # k >= m - 1.
    assert {s for row in proved for s in row} == {Status.MEMBER, Status.NON_MEMBER}


def test_pencil_check_is_pinned():
    # The public one-pencil path has no defining defect to prove with, so
    # it sweeps and refines every pencil fully: every verdict field of
    # pencil_check over the dual families of Ginibre, normal, k-quasi and
    # nilpotent matrices at k = 1-3, bit for bit as before the engine's
    # first-pass proof.
    mats = [random_ginibre(4, seed=5), 1e3 * random_ginibre(6, seed=6), random_normal(5, seed=7),
            k_quasi_member(3, 3, 2, seed=8), jordan_nilpotent(5, 3, seed=9)]
    doc = [pencil_check(pencil).to_json_dict() for t in mats for k in (1, 2, 3)
           for _, _, pencil, _ in dual_families(t, k)]
    assert {v["status"] for v in doc} == {"Member", "NonMember"}
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == "269e10c96c6eb086d5d2695002566d9bfeedee3415a84941d77f8d90c6bc744a"


def test_k_quasi_paranormality_of_a_jordan_block_beside_a_normal_part(monkeypatch):
    # J_m + N, N normal: T^(k+1) kills J_m exactly when m <= k + 1, so T is
    # then k-quasi-paranormal, and not for m > k + 1, the sharp case of the
    # nil-index bound min{n, k+1}. Plain and Haar-conjugated, at norms 1
    # and 1e3. The NonMembers are the pencil's alone and the Members
    # descend, so both paths of the engine run.
    descended = _count_descents(monkeypatch)
    calls = 0
    for m in range(2, 10):
        t = scipy.linalg.block_diag(np.eye(m, k=1), random_normal(3, seed=m))
        u = random_unitary(m + 3, seed=100 + m)
        for mat in (t, u @ t @ u.conj().T):
            for norm in (1.0, 1e3):
                for k in range(5):
                    v = is_k_quasi_paranormal(norm / operator_norm(mat) * mat, k, seed=k)
                    member = m <= k + 1
                    assert v.status is (Status.MEMBER if member else Status.NON_MEMBER), (m, k)
                    calls += 1
    assert 0 < sum(descended) < calls


# ---------------------------------------------------------------------------
# classify_all and chains
# ---------------------------------------------------------------------------


def test_classify_identity_member_everywhere():
    res = classify_all(np.eye(3), seed=0)
    assert all(v.status is Status.MEMBER for v in res.values())


def test_classify_j2_memberships(j2):
    res = classify_all(j2, seed=0)
    member = {cls for cls, v in res.items() if v.status is Status.MEMBER}
    assert member == {
        OperatorClass("KQuasiParanormal", k=1),
        OperatorClass("KQuasiParanormal", k=2),
        OperatorClass("KQuasiParanormal", k=3),
    }
    assert chain_violations(res) == []


def test_classify_random_normal_member_everywhere():
    rng = np.random.default_rng(18)
    res = classify_all(random_normal_matrix(5, rng), seed=3)
    assert all(v.status is Status.MEMBER for v in res.values())
    assert chain_violations(res) == []


def _pinned_pool() -> list:
    """Ginibre matrices at dims 3-8 and one matrix of each member family
    of the benchmark's classify-members pool."""
    mats = [random_ginibre(dim, seed=40 + dim) for dim in range(3, 9)]
    mats += [
        random_normal(5, seed=1),
        random_unitary(4, seed=2),
        jordan_nilpotent(6, 3, seed=3),
        normaloid_counterexample(2, 3, seed=4),
        k_quasi_member(3, 3, 2, seed=5),
        rr_instance(2, 2, seed=6),
        root_of_scalar_instance(4, 3, 1.5 + 0.5j, seed=7),
    ]
    return mats


# The statuses of classify_all on _pinned_pool, one letter per class in
# classify_all's order: M(ember), N(onMember), I(nconclusive). Never re-pin
# them. A change to the descent may move the defects and witnesses that the
# sha256 pin below covers, but no verdict.
_PINNED_STATUSES = (
    *["NNNNNNNNNNNNNNNN"] * 6,
    "MMMMMMMMMMMMMMMM",
    "MMMMMMMMMMMMMMMM",
    "NNNNNNNNNNNNNMMN",
    "NNNNNNNNNNNNMMMM",
    "NNNNNNNNNNNNMMMN",
    "NNNNNNNNNNNNNNNN",
    "MMMMMMMMMMMMMMMM",
)


def test_classify_all_statuses_are_pinned():
    got = tuple(
        "".join(v.status.value[0] for v in classify_all(t, seed=i).values())
        for i, t in enumerate(_pinned_pool())
    )
    assert got == _PINNED_STATUSES


def test_classify_all_output_is_pinned():
    # Every status, defect, oracle, witness, threshold and seed, bit for bit:
    # a change to the oracles' arithmetic order that moves any float shows.
    # Last taken when certified pencil NonMembers came to report the
    # defining value at the eigenvector of their least first-pass point.
    doc = [
        {str(cls): v.to_json_dict() for cls, v in classify_all(t, seed=i).items()}
        for i, t in enumerate(_pinned_pool())
    ]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == "e6f97a257209d8de7a5016b9b637729da4bcaa4c7689e3e1b402fdfbe5b59806"


def test_builders_are_pinned():
    # Every sphere term (matrix and exponent) and every pencil (coefficients,
    # exponents, domain, scale and label) of every dual class, for k from its
    # least k to 3, bit for bit. The digest was last taken when the
    # absolute-k sphere roots |T|^k came to be read from T's SVD; the other
    # terms and every pencil have kept their bits since each class had one
    # builder for its sphere terms and another for its pencil.
    h = hashlib.sha256()

    def add(mat):
        a = np.ascontiguousarray(mat)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())

    mats = [s * random_ginibre(d, seed=d) for s in (1e-3, 1.0, 1e3) for d in range(1, 9)]
    mats.append(np.eye(5, k=1, dtype=complex))
    for least_k, _, build in _DUAL.values():
        for k in range(least_k, 4):
            for t in mats:
                terms, pencil = build(t, k, operator_norm(t), TOL)
                for side in terms(np.linalg.svd(t)):
                    h.update(repr(len(side)).encode())
                    for mat, expo in side:
                        add(mat)
                        h.update(repr(float(expo)).encode())
                for expo, mat in pencil.terms:
                    h.update(repr(float(expo)).encode())
                    add(mat)
                h.update(repr((pencil.lambda_lo, pencil.lambda_max, pencil.scale,
                               pencil.label)).encode())
    assert h.hexdigest() == "d51c548853f3333ccb0458bb564676c47e945f2df737b3eba472dd93eac76d0d"


def _family_matrix(i: int) -> np.ndarray:
    """Matrix i of the seven member families of the benchmark's
    classify-members pool; family and dim (3-8) cycle, so 42 consecutive
    indices hold each pair once."""
    dim, seed, family = 3 + i % 6, 100 + i, i % 7
    if family == 0:
        return random_normal(dim, seed)
    if family == 1:
        return random_unitary(dim, seed)
    if family == 2:
        return jordan_nilpotent(dim, 2 + i % (dim - 1), seed)
    if family == 3:
        return normaloid_counterexample(1 + i % (dim - 2), dim - 1 - i % (dim - 2), seed)
    if family == 4:
        return k_quasi_member(dim - 1 - i % (dim - 1), 1 + i % (dim - 1), 1 + i % 3, seed)
    if family == 5:
        dim_bc = 1 + i % (dim // 2)
        return rr_instance(dim - 2 * dim_bc, dim_bc, seed)
    return root_of_scalar_instance(dim, 2 + i % 3, 1.5 + 0.5j, seed)


def _near_band(i: int) -> np.ndarray:
    """Matrix i of two families whose dual problems descend, at dims 3-8: a
    Ginibre matrix scaled by 1e-3 (even i), whose defects lie inside the
    decision band, and a normal matrix plus a 1e-6 Ginibre perturbation
    (odd i), near the boundary of every class. The pencil certifies none
    of their NonMembers alone, and their descents stop at different steps."""
    dim = 3 + (i // 2) % 6
    if i % 2 == 0:
        return 1e-3 * random_ginibre(dim, seed=200 + i)
    return random_normal(dim, seed=200 + i) + 1e-6 * random_ginibre(dim, seed=300 + i)


# The algebraic classes of classify_all and their public predicates.
_ALGEBRAIC = {
    "Normal": is_normal, "Quasinormal": is_quasinormal, "Hyponormal": is_hyponormal,
    "PHyponormal": is_p_hyponormal, "ClassA": is_class_a,
    "Normaloid": is_normaloid,
}


def test_classify_all_equals_one_problem_predicates(monkeypatch):
    # classify_all decides all dual classes of a matrix in one stacked
    # pencil sweep and one stacked descent of the problems the pencil
    # leaves open, and its algebraic classes on the one norm it takes;
    # each verdict must be the one its public predicate gives alone, bit
    # for bit. Problems that stop at different steps leave the stack
    # early, so the compaction must have run.
    compactions = _count_compactions(monkeypatch)
    # The pencil certifies the NonMembers of Ginibre matrices alone, so only
    # the member families and the near-band matrices descend; the Ginibre
    # matrices' descents are checked with the pencil made Inconclusive.
    mats = {i: random_ginibre(3 + i % 6, seed=60 + i) for i in (*range(6), 79)}
    mats.update({100 + i: _family_matrix(i) for i in range(42)})
    mats.update({200 + i: _near_band(i) for i in range(24)})
    for seed, t in mats.items():
        for cls, v in classify_all(t, seed=seed).items():
            if cls.name == "Paranormal":
                alone = is_k_quasi_paranormal(t, 0, seed=seed)
            elif cls.name in _PREDICATES:
                alone = _PREDICATES[cls.name](t, cls.k, seed=seed)
            else:
                alone = _ALGEBRAIC[cls.name](t, *cls.params.values())
            assert v.to_json_dict() == alone.to_json_dict(), (seed, str(cls))
    assert len(compactions) >= len(mats)


def test_descents_of_pencil_inconclusive_stacks_equal_one_problem_predicates(monkeypatch):
    # With every pencil verdict made Inconclusive, every problem of a
    # Ginibre matrix descends, as all did before the pencil ran first. Its
    # NonMember descents stop at different steps, so the stack is
    # compacted while long descents go on, which the engine's own inputs
    # rarely do now. Each verdict must still be its predicate's alone, bit
    # for bit.
    compactions = _count_compactions(monkeypatch)
    _patch_pencil_claims(monkeypatch, lambda v: dataclasses.replace(v, status=Status.INCONCLUSIVE))
    mats = {i: random_ginibre(3 + i % 6, seed=60 + i) for i in (*range(6), 79)}
    for seed, t in mats.items():
        for cls, v in classify_all(t, seed=seed).items():
            if cls.name == "Paranormal":
                alone = is_k_quasi_paranormal(t, 0, seed=seed)
            elif cls.name in _PREDICATES:
                alone = _PREDICATES[cls.name](t, cls.k, seed=seed)
            else:
                continue
            assert v.oracle == "sphere", (seed, str(cls))
            assert v.to_json_dict() == alone.to_json_dict(), (seed, str(cls))
    assert len(compactions) >= len(mats)


def test_stacks_of_many_matrices_equal_one_problem_predicates(monkeypatch):
    # The engine decides problems of different matrices of one dimension in
    # one stack: a Ginibre matrix whose NonMembers the pencil certifies
    # alone, a member family matrix that descends to convergence, two
    # near-band matrices whose problems descend for different numbers of
    # steps, a zero matrix, one matrix under two seeds, and the classes
    # mixed. Each verdict must be its predicate's alone, bit for bit, and
    # the stack must have been compacted.
    compactions = _count_compactions(monkeypatch)
    for dim in range(3, 9):
        g, member = random_ginibre(dim, seed=60 + dim), _family_matrix(dim - 3)
        tiny, near = _near_band(2 * dim - 6), _near_band(2 * dim - 5)
        zero = np.zeros((dim, dim), dtype=complex)
        problems = [
            (g, "KQuasiParanormal", 0, 1), (member, "KParanormal", 1, 2),
            (zero, "KParanormal", 2, 3), (g, "AbsoluteKParanormal", 1, 1),
            (member, "KQuasiParanormal", 0, 2), (g, "KParanormal", 2, 5),
            (member, "AbsoluteKParanormal", 2, 2), (zero, "KQuasiParanormal", 0, 4),
            (tiny, "KQuasiParanormal", 1, 6), (near, "KParanormal", 1, 7),
            (tiny, "AbsoluteKParanormal", 3, 6), (near, "KQuasiParanormal", 0, 7),
        ]
        if dim == 4:
            g79 = random_ginibre(4, seed=139)
            problems += [(g79, name, 1, 79) for name in _PREDICATES]
        for (t, name, k, seed), v in zip(problems, _dual_verdicts(problems, TOL)):
            alone = _PREDICATES[name](t, k, seed=seed)
            assert v.to_json_dict() == alone.to_json_dict(), (dim, name, k, seed)
    assert len(compactions) >= 6


def test_one_defect_build_per_engine_call(monkeypatch):
    # Every _dual_verdicts call builds one stacked defect for all its
    # problems: the pencil witnesses' values, the descent and the sphere
    # witnesses' values all read it. The normal and near-band matrices'
    # problems descend; the Ginibre matrix's are certified by the pencil.
    from opclass import harness

    builds, per_call = [], []
    of, engine = _NormProductDefect.of.__func__, _dual_verdicts

    def counting_of(cls, *problems):
        builds.append(len(problems))
        return of(cls, *problems)

    def counting_engine(problems, *args):
        before = len(builds)
        verdicts = engine(problems, *args)
        per_call.append(len(builds) - before)
        return verdicts

    monkeypatch.setattr(_NormProductDefect, "of", classmethod(counting_of))
    monkeypatch.setattr("opclass.membership._dual_verdicts", counting_engine)
    monkeypatch.setattr(harness, "_dual_verdicts", counting_engine)
    for t in (random_ginibre(5, seed=11), random_normal(4, seed=1), _near_band(3)):
        classify_all(t, seed=1)
    assert per_call == [1, 1, 1]
    harness.run_suite(harness.SuiteConfig(suites=harness.THEOREM_IDS, trials=50, max_dim=8,
                                          seed=2026))
    assert len(per_call) > 3 and per_call == [1] * len(per_call)


def test_stack_of_mixed_dimensions_is_value_error():
    problems = [(random_ginibre(3, seed=1), "KParanormal", 1, 0),
                (random_ginibre(4, seed=1), "KParanormal", 1, 0)]
    with pytest.raises(ValueError, match="one dimension"):
        _dual_verdicts(problems, TOL)


def test_verdicts_build_no_pencil_through_evaluate(monkeypatch):
    # The pencil engine builds every matrix, the witnesses' included, from
    # its stack; PencilSpec.evaluate is only the public reference.
    t = random_ginibre(4, seed=9)
    pencil = k_paranormal_pencil(t, 2)

    def refuse(self, lams):
        raise AssertionError("PencilSpec.evaluate called")

    monkeypatch.setattr(PencilSpec, "evaluate", refuse)
    assert len(classify_all(t, seed=1)) == 16
    for name, predicate in _PREDICATES.items():
        assert isinstance(predicate(t, 1, seed=1), MembershipVerdict), name
    assert pencil_check(pencil).witness.pencil_lambda is not None


def _nan_entry(m):
    out = m.copy()
    out[0, 1] = np.nan
    return out


def _skew_entry(m):
    out = m.copy()
    out[0, 1] += 1.0
    return out


@pytest.mark.parametrize("term, breaks", [
    (0, lambda expo, m: (expo, _nan_entry(m))),
    (1, lambda expo, m: (expo, _skew_entry(m))),
    (2, lambda expo, m: (-1.0, m)),
], ids=["non-finite", "non-Hermitian", "negative-exponent"])
def test_engine_checks_its_stacks_terms_as_pencilspec_does(monkeypatch, term, breaks):
    # The builders hand the engine unchecked pencils, and _pencil_verdicts
    # checks the terms of its whole stack at once with PencilSpec's own
    # checks. A builder whose pencil breaks one of them must make every
    # stack that holds it raise the message PencilSpec gives for that term.
    t = random_ginibre(4, seed=5)
    least_k, degree, build = _DUAL["KParanormal"]
    wants = []

    def broken(m, k, norm_t, tol):
        sphere, pencil = build(m, k, norm_t, tol)
        terms = list(pencil.terms)
        terms[term] = breaks(*terms[term])
        with pytest.raises(InvalidPencil) as want:
            PencilSpec(terms=tuple(terms), lambda_lo=pencil.lambda_lo,
                       lambda_max=pencil.lambda_max, scale=pencil.scale, label=pencil.label)
        wants.append(str(want.value))
        return sphere, _pencil(norm_t, pencil.scale, tuple(terms), pencil.label)

    monkeypatch.setitem(_DUAL, "KParanormal", (least_k, degree, broken))
    # classify_all's stack breaks at k = 1, 2 and 3, and raises for k = 1.
    for decide in (lambda: is_k_paranormal(t, 2), lambda: classify_all(t),
                   lambda: k_paranormal_pencil(t, 3)):
        wants.clear()
        with pytest.raises(InvalidPencil) as got:
            decide()
        assert str(got.value) == wants[0]


def test_pencil_terms_are_checked_once_per_call(monkeypatch):
    # A public pencil checks its terms when it is built, and pencil_check
    # does not check them again; the dual engine checks the terms of its
    # unchecked pencils once, as one stack, per call.
    calls = []
    real = _check_terms

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr("opclass.membership._check_terms", counting)
    t = random_ginibre(6, seed=2)
    pencil = k_paranormal_pencil(t, 2)
    assert len(calls) == 1
    pencil_check(pencil)
    assert len(calls) == 1
    is_k_paranormal(t, 2)
    assert len(calls) == 2
    classify_all(t)
    assert len(calls) == 3


def test_public_pencils_form_no_sphere_terms(monkeypatch):
    # The builders hand back their sphere terms as a callable, so a public
    # constructor builds the pencil alone: the absolute-k class's |T|^k,
    # which only the sphere reads, is formed from T's SVD when the callable
    # is called.
    t = random_ginibre(5, seed=3)
    ctors = (quasi_paranormal_pencil, k_paranormal_pencil, absolute_k_paranormal_pencil)
    want = [ctor(t, k) for ctor in ctors for k in (1, 2, 3)]
    least_k, degree, build = _DUAL["AbsoluteKParanormal"]

    def refuse(svd):
        raise AssertionError("sphere terms formed")

    def refusing(m, k, norm_t, tol):
        return refuse, build(m, k, norm_t, tol)[1]

    monkeypatch.setitem(_DUAL, "AbsoluteKParanormal", (least_k, degree, refusing))
    got = [ctor(t, k) for ctor in ctors for k in (1, 2, 3)]
    for a, b in zip(got, want):
        assert (a.lambda_lo, a.lambda_max, a.scale, a.label) == (
            b.lambda_lo, b.lambda_max, b.scale, b.label)
        assert [e for e, _ in a.terms] == [e for e, _ in b.terms]
        for (_, x), (_, y) in zip(a.terms, b.terms):
            np.testing.assert_array_equal(x, y, err_msg=a.label)
    # The engine still forms the sphere's terms, through the patched builder.
    with pytest.raises(AssertionError, match="sphere terms formed"):
        is_absolute_k_paranormal(t, 1)


@pytest.mark.parametrize("predicate, t", [
    (is_normal, 1e100 * random_unitary(3, 0)),
    (is_quasinormal, 1e80 * random_unitary(3, 0)),
    (lambda t: quasinormal_embry(t, 3), 1e30 * random_normal(4, 3)),
], ids=["normal", "quasinormal", "embry"])
def test_overflowing_residual_is_value_error(predicate, t):
    # The class scale is finite, but the sum of squares of the residual's
    # Frobenius norm is not; unchecked, it gives NonMember with defect -inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            predicate(t)


def test_overflowing_scale_is_value_error():
    # A class scale max(1, ||T||)^degree beyond the largest double used to
    # raise OverflowError from the float power. Each builder checks its
    # pencil's scale before it forms a power of T, so no product overflows
    # first: no warning, no OverflowError and no non-finite pencil.
    t = random_ginibre(3, 1)
    cases = [
        lambda: classify_all(1e40 * t),
        lambda: is_k_quasi_paranormal(1e40 * t, 3),
        lambda: classify_all(2.0 * random_unitary(3, seed=1), k_list=[600]),
        lambda: quasi_paranormal_pencil(1e160 * t, 0),
        lambda: k_paranormal_pencil(1e160 * t, 1),
        lambda: absolute_k_paranormal_pencil(1e160 * t, 1),
        lambda: is_k_quasi_paranormal(1e35 * t, 3),
        lambda: quasi_paranormal_pencil(1e35 * t, 3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in cases:
            with pytest.raises(ValueError, match="overflows"):
                case()
        with pytest.raises(ValueError, match=r"class scale .*\^4 overflows"):
            is_absolute_k_paranormal(1e77 * t, 1)


def test_classify_all_rejects_non_integral_and_negative_k(j2):
    with pytest.raises(ValueError, match="every k must be an integer"):
        classify_all(j2, k_list=[1.7])
    with pytest.raises(ValueError, match="every k must be nonnegative"):
        classify_all(j2, k_list=[1, -3])
    # k = 0 is paranormality, which is always reported.
    assert len(classify_all(j2, k_list=[0])) == len(classify_all(j2, k_list=[]))
    assert OperatorClass("KParanormal", k=2) in classify_all(j2, k_list=[2.0])


# Every entry point that takes k; root_decompose takes n as well.
_K_ENTRY_POINTS = {
    **{f"label-{name}": (lambda t, k, name=name: OperatorClass(name, k=k))
       for name in ("KParanormal", "AbsoluteKParanormal", "KQuasiParanormal")},
    "is_k_paranormal": is_k_paranormal,
    "is_absolute_k_paranormal": is_absolute_k_paranormal,
    "is_k_quasi_paranormal": is_k_quasi_paranormal,
    "k_paranormal_pencil": k_paranormal_pencil,
    "absolute_k_paranormal_pencil": absolute_k_paranormal_pencil,
    "quasi_paranormal_pencil": quasi_paranormal_pencil,
    "root_decompose-k": lambda t, k: root_decompose(t, 2, k),
    "root_decompose-n": lambda t, k: root_decompose(t, k, 1),
    "classify_all": lambda t, k: classify_all(t, k_list=[k]),
}


@pytest.mark.parametrize("entry", list(_K_ENTRY_POINTS))
def test_non_integral_k_is_value_error(entry):
    # Rejected up front, not by a TypeError from matrix_power further in.
    with pytest.raises(ValueError, match="integer"):
        _K_ENTRY_POINTS[entry](random_ginibre(3, 1), 1.5)


def test_witness_vector_encodes_as_per_entry_pairs():
    v = np.array([complex(-0.0, 1e-300), complex(0.6, -0.0), complex(1 / 3, -0.8)])
    doc = Witness(vector=v, pencil_lambda=0.25).to_json_dict()
    reference = [[float(z.real), float(z.imag)] for z in v]
    assert json.dumps(doc) == json.dumps({"vector": reference, "lambda": 0.25})


def test_chain_violation_detection():
    res = {
        OperatorClass("Paranormal"): MembershipVerdict(Status.MEMBER, 0.0, "sphere"),
        OperatorClass("Normaloid"): MembershipVerdict(Status.NON_MEMBER, -1.0, "algebraic"),
    }
    assert len(chain_violations(res)) == 1


def test_chains_on_random_and_constructed():
    rng = np.random.default_rng(19)
    mats = [ginibre(4, rng) for _ in range(15)]
    mats += [random_normal_matrix(4, rng) for _ in range(5)]
    mats += [jordan_nilpotent(4, k + 1, seed=k) for k in (1, 2, 3)]
    mats += [normaloid_counterexample(2, 2, seed=s) for s in (1, 2)]
    for i, t in enumerate(mats):
        res = classify_all(t, k_list=(1, 2), seed=i)
        assert chain_violations(res) == []


def test_unitary_invariance_of_verdicts():
    rng = np.random.default_rng(20)
    for i in range(5):
        t = ginibre(4, rng)
        u = haar(4, rng)
        tu = u @ t @ u.conj().T
        for fn, arg in (
            (is_normal, None),
            (is_quasinormal, None),
            (is_k_quasi_paranormal, 0),
            (is_k_quasi_paranormal, 1),
            (is_k_paranormal, 2),
        ):
            a = fn(t) if arg is None else fn(t, arg, seed=9)
            b = fn(tu) if arg is None else fn(tu, arg, seed=9)
            assert a.status is b.status
            scale = max(1.0, operator_norm(t)) ** 6
            assert abs(a.defect - b.defect) <= 10 * TOL.tol_eq * scale


def test_scaling_invariance_of_status():
    rng = np.random.default_rng(21)
    t = ginibre(4, rng)
    n = random_normal_matrix(4, rng)
    for c in (0.5, 2.0, 7.0):
        for mat in (t, n):
            assert is_normal(c * mat).status is is_normal(mat).status
            assert is_k_quasi_paranormal(c * mat, 1, seed=3).status is is_k_quasi_paranormal(
                mat, 1, seed=3
            ).status
            assert is_normaloid(c * mat).status is is_normaloid(mat).status


def test_operator_class_params_and_str():
    assert OperatorClass("KParanormal", k=2).params == {"k": 2}
    assert str(OperatorClass("PHyponormal", p=0.5)) == "PHyponormal(p=0.5)"


# The parameters every class label accepts; any other parameter, k and p
# together included, is rejected, and so is every parameter of an unknown
# name.
_LABEL_PARAMS = {
    **dict.fromkeys(("Normal", "Quasinormal", "Hyponormal", "ClassA", "Paranormal",
                     "Normaloid"), [{}]),
    "PHyponormal": [{"p": 0.5}, {"p": 1.0}],
    **dict.fromkeys(("KParanormal", "AbsoluteKParanormal", "KQuasiParanormal"),
                    [{"k": 1}, {"k": 3}]),
    "Bogus": [],
}


@pytest.mark.parametrize("params", [
    {}, {"k": 0}, {"k": 1}, {"k": 3}, {"p": 0.0}, {"p": 0.5}, {"p": 1.0}, {"p": 1.5},
    {"k": 1, "p": 0.5},
], ids=lambda params: "-".join(f"{key}={value}" for key, value in params.items()) or "none")
@pytest.mark.parametrize("name", list(_LABEL_PARAMS))
def test_operator_class_accepts_only_its_parameter(name, params):
    if params in _LABEL_PARAMS[name]:
        assert OperatorClass(name, **params).params == params
    else:
        with pytest.raises(ValueError):
            OperatorClass(name, **params)


def test_classify_all_keys_are_the_labels_of_their_params():
    keys = list(classify_all(random_ginibre(3, 1), k_list=(0, 1, 2, 3, 4),
                             p_list=(0.25, 0.5, 1.0), seed=1))
    assert all(OperatorClass(key.name, **key.params) == key for key in keys)
    ks = range(1, 5)
    assert [str(key) for key in keys] == [
        "Normal", "Quasinormal", "Hyponormal",
        "PHyponormal(p=0.25)", "PHyponormal(p=0.5)", "PHyponormal(p=1)", "ClassA", "Paranormal",
        *[f"{name}(k={k})" for name in ("KParanormal", "AbsoluteKParanormal", "KQuasiParanormal")
          for k in ks],
        "Normaloid",
    ]


def test_verdict_json_round_trip():
    v = is_normal(np.eye(2))
    doc = v.to_json_dict()
    assert doc["status"] == "Member"
    assert doc["oracle"] == "algebraic"
