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

from opclass.decomposition import (
    nilpotent2_canonical,
    normal_pure_split,
    root_decompose,
    rr_check,
)
from opclass.errors import InvalidPencil, OpclassError
from opclass.linalg import DEFAULT_TOLERANCES as TOL
from opclass.linalg import _direct_sum, operator_norm, operator_svd
from opclass.membership import (
    MembershipVerdict,
    OperatorClass,
    PencilSpec,
    Status,
    Witness,
    _DUAL,
    _NormProductDefect,
    _PencilStack,
    _Powers,
    _brent,
    _central_gradient,
    _certificate_claims,
    _check_terms,
    _decide,
    _descend,
    _descended_verdict,
    _dual_verdicts,
    _pencil,
    _pencil_verdicts,
    _start_verdicts,
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

from conftest import dual_families, ginibre, haar, random_normal_matrix, spy_kernel


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


def test_pencil_terms_are_judged_hermitian_on_the_pencils_scale():
    # D = T*(T*T)^k T of U(N + c J2)U* cancels to about 1 while its factors
    # are about c^(2k+2): its skew rounding is far beyond tol_eq times its
    # own size, but not beyond tol_eq times the pencil's scale. Judged on
    # the term's own size, 48 of these 60 pencils were not Hermitian.
    j2 = np.array([[0, 1], [0, 0]], dtype=complex)
    for d in range(3, 8):
        for seed in (4, 5):
            u = random_unitary(d, seed)
            for c in (59.2, 16.6):
                t = u @ _direct_sum(random_normal(d - 2, seed), c * j2) @ u.conj().T
                for k in (1, 2, 3):
                    pencil = absolute_k_paranormal_pencil(t, k)
                    assert pencil.dim == d, (d, seed, c, k)


def test_pencil_check_rejects_bad_sizes(j2):
    with pytest.raises(ValueError, match="need max_refine >= 0"):
        pencil_check(quasi_paranormal_pencil(j2, 0), max_refine=-1)


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
        for max_refine in (8, 1):
            v = pencil_check(pencil, max_refine=max_refine)
            got = (v.defect, v.witness.pencil_lambda)
            want, _ = _sequential_pencil_minimum(pencil, 257, max_refine)
            assert got == want, (pencil.label, max_refine)
        for n_grid in (65, 2):
            [v] = _pencil_verdicts(_PencilStack([pencil]), [pencil], n_grid, 8, TOL)
            got = (v.defect, v.witness.pencil_lambda)
            want, _ = _sequential_pencil_minimum(pencil, n_grid, 8)
            assert got == want, (pencil.label, n_grid)
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
    [mins], [evaluated], [local] = _sweep(_PencilStack([pencil]), lams[None])
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
    """The evaluated mask of every engine sweep, as they run, its first
    pass included."""
    masks = []

    def spying(stack, lams):
        out = _sweep(stack, lams)
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
            pencil = _DUAL[name][2](_Powers(t), k, norm_t)[1]()
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


def _spy_certificate_claims(monkeypatch) -> list:
    """The Member claims of every engine certificate, as they run."""
    real, certified = _certificate_claims, []

    def spying(*args):
        out = real(*args)
        certified.extend(out.values())
        return out

    monkeypatch.setattr("opclass.membership._certificate_claims", spying)
    return certified


def _spy_formed_pencils(monkeypatch) -> list:
    """The pencils every engine call forms, one list per call, as they are
    handed to the certificates."""
    real, formed = _certificate_claims, []

    def spying(pencils, *args):
        formed.append(list(pencils))
        return real(pencils, *args)

    monkeypatch.setattr("opclass.membership._certificate_claims", spying)
    return formed


def test_padded_eigensolve_finds_each_compressions_least_value(monkeypatch):
    # The sweep's rounding margin reads the spectra of a deflated pencil's
    # compression, not the c I padding of its K block. That is sound if the
    # eigensolve of the padded matrix finds the compression's least value to
    # within n eps sum_j lam^e_j ||H_j||, H_j the compression's terms: here
    # at every grid point of every deflated pencil of the two classify pools
    # and verify-all at seed 2026. The start proof is switched off, so that
    # the pencils of the NonMembers it decides are formed too. A certificate
    # settles most of those pencils before any sweep, so each engine call's
    # formed pencils are swept here, as one stack, as the engine sweeps
    # those no certificate settles.
    from opclass import harness

    _no_start_proof(monkeypatch)
    formed = _spy_formed_pencils(monkeypatch)
    for i, t in enumerate(_benchmark_pools(2026)):
        classify_all(t, seed=i)
    pools = len(formed)
    harness.run_suite(harness.SuiteConfig(suites=harness.THEOREM_IDS, trials=50, max_dim=8,
                                          seed=2026))
    found, deflated = _spy_deflations(monkeypatch), []
    for calls in (formed[:pools], formed[pools:]):
        for pencils in calls:
            _pencil_verdicts(_PencilStack(pencils), pencils, 257, 8, TOL)
        deflated.append(len(found))
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
    assert (deflated[0], deflated[1] - deflated[0]) == (51, 71)


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
    terms = _DUAL["KQuasiParanormal"][2](_Powers(j2), 0, operator_norm(j2))[0]
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
        terms = [build(_Powers(t), k, operator_norm(t))[0](np.linalg.svd(t)) for t in mats
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


def test_absolute_k_defect_of_a_jordan_nilpotent_is_exact(monkeypatch):
    # A nilpotent T of norm 1 with T x in ker T for some unit x has the least
    # absolute-1 defect || |T| T x || - ||T x||^2 = -1. A root of the Gram
    # T*T reads its zero eigenvalues, rounded to about eps, as singular
    # values near sqrt(eps), and so missed -1 by up to 2.7e-8, 2.7 decision
    # thresholds; |T| = V S V* from the SVD of T keeps them at about eps.
    # Such an x is T* y, y a unit vector of range T^(index-1), which lies in
    # ker T and in range T, so that T x = y. The engine's defect reads -1
    # there, and the verdict is NonMember no deeper than -1: at a column of
    # V when the start proof decides it, and with the start proof off at the
    # sphere's witness, to 1e-12, since the pencil claims NonMember and its
    # refined eigenvector is one of the descent's starts.
    build = _DUAL["AbsoluteKParanormal"][2]
    mats = [(jordan_nilpotent(n, index, seed), index)
            for n in range(2, 9) for index in range(2, n + 1) for seed in range(3)]
    for t, index in mats:
        y = np.linalg.svd(np.linalg.matrix_power(t, index - 1))[0][:, 0]
        fn = _NormProductDefect.of(build(_Powers(t), 1, operator_norm(t))[0](np.linalg.svd(t)))
        assert fn(t.conj().T @ y) == pytest.approx(-1.0, abs=1e-12), len(t)
        v = is_absolute_k_paranormal(t, 1)
        assert v.status is Status.NON_MEMBER, len(t)
        assert -1.0 - 1e-12 <= v.defect <= -v.threshold, len(t)
    _no_start_proof(monkeypatch)
    claims = _spy_pencil_claims(monkeypatch)
    for t, _ in mats:
        claims.clear()
        v = is_absolute_k_paranormal(t, 1)
        assert [c.status for c in claims] == [Status.NON_MEMBER], len(t)
        assert v.status is Status.NON_MEMBER and v.oracle == "sphere", len(t)
        assert v.witness.pencil_lambda is None, len(t)
        assert v.defect == pytest.approx(-1.0, abs=1e-12), len(t)


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


_M, _NM, _I = Status.MEMBER, Status.NON_MEMBER, Status.INCONCLUSIVE
_SPHERE_DEFECT = {_M: 1e-11, _NM: -2e-8, _I: -5e-9}


@pytest.mark.parametrize(
    "s_stat, p_stat, s_exact, p_exact, status, oracle, defect",
    [
        # s_exact proves every sphere NonMember of these rows.
        (_M, _M, -3e-8, -5e-8, _M, "sphere", 1e-11),
        (_M, _I, -3e-8, -5e-8, _M, "sphere", 1e-11),
        (_NM, _M, -3e-8, -5e-8, _NM, "sphere", -3e-8),
        (_NM, _I, -3e-8, -5e-8, _NM, "sphere", -3e-8),
        (_I, _M, -3e-8, -5e-8, _I, "sphere", -5e-9),
        (_I, _I, -3e-8, -5e-8, _I, "sphere", -5e-9),
        # A sphere NonMember that s_exact does not prove is Inconclusive,
        # beside any claim; a Member stands beside a NonMember claim, and a
        # proved NonMember beside any claim.
        (_M, _NM, -3e-8, 0.0, _M, "sphere", 1e-11),
        (_NM, _M, 0.0, -5e-8, _I, "sphere", -2e-8),
        (_NM, _NM, 0.0, 0.0, _I, "sphere", -2e-8),
        (_NM, _I, 0.0, -5e-8, _I, "sphere", -2e-8),
        (_I, _NM, -3e-8, 0.0, _I, "sphere", -5e-9),
        (_NM, _NM, -3e-8, 0.0, _NM, "sphere", -3e-8),
    ],
)
def test_reconcile_branches(s_stat, p_stat, s_exact, p_exact, status, oracle, defect):
    # The branches of _descended_verdict, which gave up _reconcile's vote
    # for the sweep's claim, over every pair of oracle statuses. s_exact is
    # the defining value at the sphere's unit witness. p_stat and p_exact,
    # the sweep's claim and the value at its witness, are read by no
    # verdict: the claim has no vote. The engine's side of that, both
    # claims on one descended problem, is
    # test_a_descended_problem_gets_its_spheres_verdict.
    e0 = np.eye(2, dtype=np.complex128)[0]
    sphere = MembershipVerdict(
        status=s_stat, defect=_SPHERE_DEFECT[s_stat], oracle="sphere",
        witness=Witness(vector=e0), threshold=1e-8, seed=3,
    )
    v = _descended_verdict(sphere, e0, s_exact)
    assert (v.status, v.oracle, v.defect) == (status, oracle, defect)
    assert v.seed == 3 and v.threshold == TOL.tol_decision
    assert v.witness.pencil_lambda is None and np.array_equal(v.witness.vector, e0)


@pytest.mark.parametrize("case", ["member", "inconclusive", "proved-nonmember",
                                  "unproved-nonmember"])
def test_a_descended_problem_gets_its_spheres_verdict(monkeypatch, case):
    # With the start proof and the certificates off, the problem is swept
    # and descends, and the descent is patched to report one (value,
    # vector). A Member or an Inconclusive stands as the sphere gives it. A
    # NonMember stands only where the exact value at the normalized witness
    # proves it, and then takes that value and the unit vector; otherwise it
    # is Inconclusive with the sphere's numbers. The sweep's claim, Member or
    # NonMember, moves nothing.
    t = random_ginibre(4, seed=13)
    [(fn, scale)] = [(fn, scale) for name, fn, _, scale in dual_families(t, 1)
                     if name == "KParanormal"]
    threshold = TOL.tol_decision * scale
    cols = np.linalg.svd(t)[2].conj().T
    violating = cols[:, int(np.argmin(fn(cols)))]
    eigvec = np.linalg.eig(t)[1][:, 0]
    assert fn(violating) <= -threshold < fn(eigvec / np.linalg.norm(eigvec))
    value, vec = {
        "member": (-threshold / 20.0, 2.0 * eigvec),
        "inconclusive": (-threshold / 2.0, 2.0 * eigvec),
        "proved-nonmember": (-2.0 * threshold, 2.0 * violating),
        "unproved-nonmember": (-2.0 * threshold, 2.0 * eigvec),
    }[case]
    sphere = MembershipVerdict(status=_decide(value, scale, TOL)[0], defect=value,
                               oracle="sphere", witness=Witness(vector=vec),
                               threshold=threshold, seed=3)
    if case == "proved-nonmember":
        unit = vec / np.linalg.norm(vec)
        expected = dataclasses.replace(sphere, defect=fn(unit), witness=Witness(vector=unit))
    elif case == "unproved-nonmember":
        expected = dataclasses.replace(sphere, status=Status.INCONCLUSIVE)
    else:
        expected = sphere
    monkeypatch.setattr("opclass.membership._descend", lambda *args: [(value, vec.copy())])
    for claim in (Status.MEMBER, Status.NON_MEMBER):
        _patch_pencil_claims(monkeypatch, lambda v: dataclasses.replace(v, status=claim))
        [v] = _dual_verdicts([(t, "KParanormal", 1, 3)], TOL)
        assert v.to_json_dict() == expected.to_json_dict(), claim
    # The verdict's status is the one its own defect and threshold give.
    unit_band = dataclasses.replace(TOL, tol_decision=1.0)
    assert not v.is_definite or v.status is _decide(v.defect, v.threshold, unit_band)[0]


_PREDICATES = {
    "KQuasiParanormal": is_k_quasi_paranormal,
    "KParanormal": is_k_paranormal,
    "AbsoluteKParanormal": is_absolute_k_paranormal,
}


def _no_start_proof(monkeypatch):
    """Switch the engine's start proof off, at V and at V2, so that every
    problem forms its pencil and descends."""
    monkeypatch.setattr("opclass.membership._start_verdicts", lambda *args: {})


def _no_certificate(monkeypatch):
    """Switch the engine's Loewner certificates off, so that every pencil
    it forms is swept."""
    monkeypatch.setattr("opclass.membership._certificate_claims", lambda *args: {})


def _spy_pencil_claims(monkeypatch) -> list:
    """The claims of every engine pencil sweep, as they run."""
    real, claims = _pencil_verdicts, []

    def spying(*args):
        out = real(*args)
        claims.extend(out)
        return out

    monkeypatch.setattr("opclass.membership._pencil_verdicts", spying)
    return claims


def _patch_pencil_claims(monkeypatch, change):
    """Pass every pencil verdict of the engine through ``change``, with the
    start proof and the certificates switched off, so that every problem
    has one from the sweep."""
    _no_start_proof(monkeypatch)
    _no_certificate(monkeypatch)
    real = _pencil_verdicts
    monkeypatch.setattr("opclass.membership._pencil_verdicts",
                        lambda *args: [change(v) for v in real(*args)])


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


def _right_singular_vectors(t: np.ndarray) -> np.ndarray:
    """The columns of the sphere's deterministic starts that the start proof
    reads: T's right singular vectors, normalized."""
    v = np.linalg.svd(t)[2].conj().T
    return v / np.linalg.norm(v, axis=0)


def test_pencil_certified_nonmembers_skip_the_descent(monkeypatch):
    # A problem whose least defining value over T's right singular vectors,
    # the sphere's warm starts, is at most the sphere's -threshold is
    # decided there, before the pencil: neither the pencil nor the descent
    # runs, its defect is that value, its witness is that column, ties to
    # the lowest, with no lambda, and it takes the sphere's oracle,
    # threshold and seed.
    t = random_ginibre(5, seed=11)
    starts = _right_singular_vectors(t)
    expected = {}
    for k in (1, 2):
        for name, fn, pencil, scale in dual_families(t, k):
            assert pencil_check(pencil).status is Status.NON_MEMBER
            values = fn(starts)
            deepest = int(np.argmin(values))
            assert values[deepest] <= -TOL.tol_decision * scale
            expected[name, k] = MembershipVerdict(
                status=Status.NON_MEMBER, defect=float(values[deepest]), oracle="sphere",
                witness=Witness(vector=starts[:, deepest]),
                threshold=TOL.tol_decision * scale, seed=3,
            )

    def refuse(*args):
        raise AssertionError("the pencil or the sphere descent ran")

    monkeypatch.setattr("opclass.membership._pencil_verdicts", refuse)
    monkeypatch.setattr("opclass.membership._descend", refuse)
    for (name, k), v in expected.items():
        assert _PREDICATES[name](t, k, seed=3).to_json_dict() == v.to_json_dict(), (name, k)


def test_a_failed_start_proof_takes_the_full_sweep(monkeypatch):
    # With the engine's defect reading 0 at the right singular vectors of T,
    # which decide every problem of this matrix otherwise (see above), and
    # then at those of T^2, no problem is decided at either: each pencil is
    # swept and refined, Brent searches included, and its claim is bit for
    # bit the NonMember pencil_check's full sweep gives. Each problem then
    # descends, and the sphere proves it: the verdict is bit for bit
    # sphere_check's descent from the same starts, V and the claim's
    # eigenvector as warm starts, one seeded start fewer, proved at its
    # unit witness as the engine does.
    t = random_ginibre(5, seed=11)
    warm = np.linalg.svd(t)[2].conj().T
    expected, pencil_claims = {}, {}
    for k in (1, 2):
        for name, fn, pencil, scale in dual_families(t, k):
            claim = pencil_check(pencil)
            assert claim.status is Status.NON_MEMBER, (name, k)
            pencil_claims[name, k] = claim.to_json_dict()
            starts = np.column_stack([warm, claim.witness.vector])
            sphere = sphere_check(fn, 5, restarts=7, seed=3, warm_starts=starts, scale=scale,
                                  value_and_gradient=fn.value_and_gradient)
            x = sphere.witness.vector / np.linalg.norm(sphere.witness.vector)
            expected[name, k] = MembershipVerdict(
                status=Status.NON_MEMBER, defect=fn(x), oracle="sphere",
                witness=Witness(vector=x), threshold=TOL.tol_decision * scale, seed=3,
            )
    real, calls, searches = _NormProductDefect.__call__, [], []

    def first_reads_zero(defect, x):
        calls.append(x.shape)
        values = real(defect, x)
        return np.zeros_like(values) if len(calls) <= 2 else values

    def counting(*args):
        searches.append(args)
        return _brent(*args)

    monkeypatch.setattr(_NormProductDefect, "__call__", first_reads_zero)
    monkeypatch.setattr("opclass.membership._brent", counting)
    claims = _spy_pencil_claims(monkeypatch)
    for (name, k), v in expected.items():
        calls.clear()
        searches.clear()
        claims.clear()
        assert _PREDICATES[name](t, k, seed=3).to_json_dict() == v.to_json_dict(), (name, k)
        assert [c.to_json_dict() for c in claims] == [pencil_claims[name, k]], (name, k)
        # The two start stages, at V and at V2, on dim columns each, and
        # the value at the descent's unit witness, on one.
        assert calls == [(1, 5, 5), (1, 5, 5), (1, 5, 1)] and searches, (name, k)


def _spy_start_verdicts(monkeypatch) -> list:
    """The verdicts of every engine start proof, as they run."""
    real, decided = _start_verdicts, []

    def spying(*args):
        out = real(*args)
        decided.extend(out.values())
        return out

    monkeypatch.setattr("opclass.membership._start_verdicts", spying)
    return decided


def _is_dual(cls: OperatorClass) -> bool:
    return cls.name == "Paranormal" or cls.name in _DUAL


def test_proved_pencils_leave_the_sweep(monkeypatch):
    # Every dual NonMember of both benchmark pools at seed 2026 is decided
    # before the descent: all 432 of classify-random's and all 147 of
    # classify-members' at the right singular vectors of T or of T^2, whose
    # pencils are never formed, and none at a pencil's refined eigenvector
    # (oracle "pencil"). The pencils of the Members are formed, and a
    # certificate settles every one of them, so the engine sweeps none:
    # certified problems leave the sweep too. KParanormal(k=1) and
    # AbsoluteKParanormal(k=1) report the Paranormal verdict, so each
    # distinct verdict is counted once.
    decided, certified = _spy_start_verdicts(monkeypatch), _spy_certificate_claims(monkeypatch)
    swept = []

    def sweeping(stack, pencils, *args):
        swept.extend(pencils)
        return _pencil_verdicts(stack, pencils, *args)

    monkeypatch.setattr("opclass.membership._pencil_verdicts", sweeping)
    for name, expected in (("ClassifyRandom", (432, 0, 0)), ("ClassifyMembers", (147, 0, 189))):
        at_starts = by_pencil = members = 0
        for i, t in enumerate(_benchmark_pools(2026, (name,))):
            decided.clear()
            dual = list({id(v): v for cls, v in classify_all(t, seed=i).items()
                         if _is_dual(cls)}.values())
            nonmembers = [v for v in dual if v.status is Status.NON_MEMBER]
            pencil = [v for v in nonmembers if v.oracle == "pencil"]
            assert {id(v) for v in nonmembers} == {id(v) for v in decided + pencil}, (name, i)
            at_starts += len(decided)
            by_pencil += len(pencil)
            members += sum(v.status is Status.MEMBER for v in dual)
        assert (at_starts, by_pencil, len(certified)) == expected, name
        assert members == len(certified) and swept == [], name
        certified.clear()


def _certificate_families(dim: int, seed: int) -> list:
    """One matrix of each of eight families at ``dim``: Ginibre, normal, a
    Jordan nilpotent, the normaloid counterexample, a k-quasi member, an rr
    instance, a normal matrix plus 1e-3 Ginibre, and a Haar-conjugated
    N + c J_2."""
    rng = make_rng(seed, dim)
    split, dim_bc = int(rng.integers(2, dim)), int(rng.integers(1, dim // 2 + 1))
    u = random_unitary(dim, seed)
    nj = _direct_sum(random_normal(dim - 2, seed), (1.0 + 20.0 * rng.random()) * np.eye(2, k=1))
    return [random_ginibre(dim, seed), random_normal(dim, seed),
            jordan_nilpotent(dim, int(rng.integers(2, dim + 1)), seed),
            normaloid_counterexample(dim - split, split, seed),
            k_quasi_member(dim - split, split, int(rng.integers(1, 4)), seed),
            rr_instance(dim - 2 * dim_bc, dim_bc, seed),
            random_normal(dim, seed) + 1e-3 * random_ginibre(dim, seed + 1),
            u @ nj @ u.conj().T]


def test_a_certified_pencil_is_never_a_grid_nonmember():
    # The certificate's bound b lies below lam_min(P) on the whole domain,
    # so a pencil it settles is a Member of pencil_check's grid too, whose
    # least value is at least b, up to rounding (1e-8 thresholds measured
    # over 8 seeds and dims 3-16): every pencil of k = 0-3 over the eight
    # families at dims 3-16, two seeds, about 2 s on a 2-vCPU host. Both
    # grid statuses occur, and the certificates settle pencils of both
    # sizes, n and 2n.
    statuses, certified = set(), set()
    for seed in (0, 1):
        for dim in (3, 4, 6, 9, 12, 16):
            for t in _certificate_families(dim, seed):
                facts = (operator_norm(t), operator_svd(t))
                rows = [(name, pencil) for k in range(4)
                        for name, _, pencil, _ in dual_families(t, k)]
                pencils = [pencil for _, pencil in rows]
                claims = _certificate_claims(pencils, [name for name, _ in rows],
                                             [facts] * len(rows), TOL)
                for i, (name, pencil) in enumerate(rows):
                    grid = pencil_check(pencil)
                    statuses.add(grid.status)
                    if i not in claims:
                        continue
                    certified.add(name == "KQuasiParanormal")
                    claim = claims[i]
                    assert (claim.status, claim.oracle, claim.witness) == (
                        Status.MEMBER, "pencil", None), (seed, dim, pencil.label)
                    assert claim.threshold == grid.threshold, (seed, dim, pencil.label)
                    assert grid.status is not Status.NON_MEMBER, (seed, dim, pencil.label)
                    assert grid.defect >= claim.defect - 1e-3 * grid.threshold, (
                        seed, dim, pencil.label)
    assert statuses == {Status.MEMBER, Status.NON_MEMBER} and certified == {False, True}


def test_a_certificate_never_moves_a_status(monkeypatch):
    # A certified Member is final, decided in pencil units, max(1,
    # ||T||)^(2k+2), where the sphere proof it skips would be in sphere
    # units, max(1, ||T||)^(k+1). Over the eight families, a Haar-conjugated
    # N + 100 J_2 and a normal matrix scaled by 1e-3, at dims 3-10, three
    # seeds and k = 0-3, every status the engine gives is the one it gives
    # with the certificates switched off, where every formed pencil is swept
    # and its problem descends. Both statuses occur and the certificates
    # settle some problems.
    stacks = []
    for seed in (0, 1, 2):
        for dim in range(3, 11):
            u = random_unitary(dim, seed + 7)
            nj = _direct_sum(random_normal(dim - 2, seed), 100.0 * np.eye(2, k=1))
            mats = _certificate_families(dim, seed) + [u @ nj @ u.conj().T,
                                                       1e-3 * random_normal(dim, seed)]
            stacks.append([(t, name, k, seed) for t in mats for k in range(4)
                           for name, (least, _, _) in _DUAL.items() if k >= least])
    certified = _spy_certificate_claims(monkeypatch)
    got = [[v.status for v in _dual_verdicts(problems, TOL)] for problems in stacks]
    assert certified
    _no_certificate(monkeypatch)
    assert [[v.status for v in _dual_verdicts(problems, TOL)] for problems in stacks] == got
    assert {s for row in got for s in row} >= {Status.MEMBER, Status.NON_MEMBER}


@pytest.mark.parametrize("depth, status", [(5e-11, Status.MEMBER), (5e-10, Status.INCONCLUSIVE)])
def test_the_quasi_certificate_weighs_the_end_of_the_domain(depth, status):
    # M = -depth v v* + w w*, v = [1, 4] / sqrt(17) and w orthogonal to it,
    # on s = 1: the pencil A - 2 lam B + lam^2 C it encodes reads
    # [1, 4] M [1, 4]* = -17 depth at lam = 4, its least value on the
    # domain. The certificate's bound is 17 lam_min(M), exactly that, so a
    # depth whose pencil minimum lies inside the decision band is not
    # certified, though lam_min(M) = -depth alone would be a Member.
    v, w = np.array([1.0, 4.0]) / math.sqrt(17.0), np.array([4.0, -1.0]) / math.sqrt(17.0)
    m = -depth * np.outer(v, v) + np.outer(w, w)
    a, b, c = (np.array([[x]], dtype=complex) for x in (m[0, 0], -m[0, 1], m[1, 1]))
    pencil = _pencil(1.0, 1.0, ((0.0, a), (1.0, -2.0 * b), (2.0, c)), "synthetic")
    claims = _certificate_claims([pencil], ["KQuasiParanormal"],
                                 [(1.0, np.linalg.svd(np.eye(1)))], TOL)
    grid = pencil_check(pencil)
    assert (grid.witness.pencil_lambda, grid.defect) == (4.0, pytest.approx(-17.0 * depth))
    assert grid.status is status and -depth >= -grid.threshold / 10.0
    if status is Status.MEMBER:
        assert claims[0].defect == pytest.approx(-17.0 * depth)
    else:
        assert claims == {}


def test_a_pencil_no_certificate_settles_is_still_swept(monkeypatch):
    # A normal matrix 1e-3 off normal: no certificate settles its
    # k-quasi-paranormal pencil at k = 3, so the engine sweeps it, and its
    # claim is bit for bit pencil_check's full sweep. Every verdict of
    # classify_all is the one it gets with the certificates switched off,
    # where the engine sweeps every pencil it forms, as it did before the
    # certificates.
    t = random_normal(3, 1) + 1e-3 * random_ginibre(3, 101)
    formed, claims = _spy_formed_pencils(monkeypatch), _spy_pencil_claims(monkeypatch)
    out = {str(cls): v.to_json_dict() for cls, v in classify_all(t, seed=4).items()}
    [pencils] = formed
    assert [p.label for p in pencils] == ["quasi-paranormal[k=3]"]
    engine = [c.to_json_dict() for c in claims]
    assert engine == [pencil_check(quasi_paranormal_pencil(t, 3)).to_json_dict()]
    assert engine[0]["status"] == "NonMember"
    _no_certificate(monkeypatch)
    claims.clear()
    assert out == {str(cls): v.to_json_dict() for cls, v in classify_all(t, seed=4).items()}
    assert [c.to_json_dict() for c in claims] == engine


def test_a_decisive_sweep_member_on_an_uncertified_pencil_gives_way_to_the_proof(monkeypatch):
    # Every D of this Ginibre matrix's k-paranormal pencils is shifted by 3
    # max(1, ||T||)^(2k+2) I, so the sweep claims Member by more than 10
    # times the pencil's threshold; with the start proof and the
    # certificates off, the problem descends and the sphere finds a
    # violation more than 10 thresholds deep. The claim has no vote: the
    # verdict is the proved NonMember, whose unit witness re-evaluates to
    # its defect.
    t = random_ginibre(4, seed=13)
    [fn] = [fn for name, fn, _, _ in dual_families(t, 2) if name == "KParanormal"]
    real = _pencil

    def shifted(norm_t, scale, terms, label):
        (e, d), *rest = terms
        return real(norm_t, scale, ((e, d + 3.0 * scale * np.eye(len(d))), *rest), label)

    monkeypatch.setattr("opclass.membership._pencil", shifted)
    _no_start_proof(monkeypatch)
    _no_certificate(monkeypatch)
    claims = _spy_pencil_claims(monkeypatch)
    v = is_k_paranormal(t, 2, seed=3)
    [claim] = claims
    assert claim.status is Status.MEMBER and claim.defect > 10.0 * claim.threshold
    _assert_proved_at_witness(v, fn)
    assert v.defect < -10.0 * v.threshold


def _assert_proved_at_witness(v: MembershipVerdict, fn) -> None:
    """``v`` is a sphere NonMember whose witness is a unit vector at which
    the defining defect ``fn`` is its defect, at most -threshold."""
    x = v.witness.vector
    assert (v.status, v.oracle, v.witness.pencil_lambda) == (Status.NON_MEMBER, "sphere", None)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
    assert fn(x) == v.defect <= -v.threshold


def test_a_certified_member_agrees_with_the_public_sphere_check(monkeypatch):
    # A certified Member skips the descent, so the sphere no longer checks
    # it inside the engine: the public sphere_check, from the engine's
    # starts (the standard basis, V and eight seeded starts) and its
    # problem's seed, finds no violation of the defining inequality on the
    # same problem. The verdict is the certificate's: oracle pencil, no
    # witness, the problem's seed, and a threshold of the pencil's scale,
    # and the engine runs no descent for it.
    descended = _count_descents(monkeypatch)
    certified = 0
    for seed, t in enumerate((random_normal(4, seed=1), k_quasi_member(2, 3, 1, seed=5),
                              jordan_nilpotent(5, 2, seed=3), random_unitary(3, seed=2))):
        warm = np.linalg.svd(t)[2].conj().T
        for k in range(4):
            for name, fn, pencil, scale in dual_families(t, k):
                before = len(descended)
                v = _PREDICATES[name](t, k, seed=seed)
                if v.oracle != "pencil":
                    continue
                certified += 1
                assert len(descended) == before, (seed, name, k)
                assert (v.status, v.witness, v.seed) == (Status.MEMBER, None, seed), (name, k)
                assert v.threshold == TOL.tol_decision * pencil.scale, (name, k)
                sphere = sphere_check(fn, len(t), 8, seed=seed, warm_starts=warm, scale=scale,
                                      value_and_gradient=fn.value_and_gradient)
                assert sphere.status is Status.MEMBER, (seed, name, k)
    assert certified >= 20


def test_the_engine_forms_pencils_only_for_the_rows_v_leaves(monkeypatch):
    # A builder's pencil is a callable, and the engine calls it only for the
    # problems that the right singular vectors of T and then of T^2 leave:
    # none of classify-random's 432 at seed 2026, and on classify-members
    # each matrix's eight problems less those the two start stages decide. The
    # zero operator and a matrix whose problems V all decides form no
    # pencil.
    decided = _spy_start_verdicts(monkeypatch)
    formed = []

    def counting(*args):
        formed.append(args)
        return _pencil(*args)

    monkeypatch.setattr("opclass.membership._pencil", counting)
    for name, expected in (("ClassifyRandom", 0), ("ClassifyMembers", 189)):
        total = 0
        for i, t in enumerate(_benchmark_pools(2026, (name,))):
            decided.clear()
            formed.clear()
            classify_all(t, seed=i)
            assert len(formed) == 8 - len(decided), (name, i)
            total += len(formed)
        assert total == expected, name
    for t in (np.zeros((4, 4), dtype=complex), random_ginibre(5, seed=11)):
        formed.clear()
        classify_all(t, seed=1)
        assert formed == []


def test_t_squared_singular_vectors_decide_what_v_leaves(monkeypatch):
    # On classify-random at seed 2026, T's right singular vectors leave
    # three problems, KQuasiParanormal(k=3) of matrices 31 and 44 and
    # KQuasiParanormal(k=2) of matrix 48. The right singular vectors of
    # T^2, which turn with T too, decide each before any pencil is formed:
    # oracle "sphere", a unit column of V2 as witness with no lambda, and
    # the defining defect, recomputed from T alone, at most minus the
    # threshold. No pencil of the pool is formed.
    stages = []
    real = _start_verdicts

    def spying(defect, x, *args):
        out = real(defect, x, *args)
        stages.append(out)
        return out

    formed = []

    def counting(*args):
        formed.append(args)
        return _pencil(*args)

    monkeypatch.setattr("opclass.membership._start_verdicts", spying)
    monkeypatch.setattr("opclass.membership._pencil", counting)
    at_v2 = {}
    for i, t in enumerate(_benchmark_pools(2026, ("ClassifyRandom",))):
        stages.clear()
        out = classify_all(t, seed=i)
        second = {id(v) for stage in stages[1:] for v in stage.values()}
        at_v2.update({(i, str(cls)): (t, cls, v) for cls, v in out.items() if id(v) in second})
    assert sorted(at_v2) == [(31, "KQuasiParanormal(k=3)"), (44, "KQuasiParanormal(k=3)"),
                             (48, "KQuasiParanormal(k=2)")]
    assert formed == []
    for t, cls, v in at_v2.values():
        [(fn, scale)] = [(fn, scale) for name, fn, _, scale in dual_families(t, cls.k)
                         if name == cls.name]
        x, threshold = v.witness.vector, TOL.tol_decision * scale
        assert (v.status, v.oracle, v.threshold) == (Status.NON_MEMBER, "sphere", threshold)
        assert v.witness.pencil_lambda is None
        v2 = _right_singular_vectors(t @ t)
        assert any(np.array_equal(x, col) for col in v2.T), str(cls)
        assert v.defect <= -threshold and fn(x) <= -threshold, str(cls)
        assert fn(x) == pytest.approx(v.defect, rel=1e-12), str(cls)


def test_one_classify_all_call_forms_each_power_of_t_once(monkeypatch):
    # The builders of one matrix read one chain of its powers, each formed
    # as T^j = T T^(j-1) when first read: a classify_all call at the default
    # k = 1-3 forms T^2, T^3, T^4 and T^5 (the k-quasi class at k = 3 reads
    # T^5) once each, and calls matrix_power on T never, whether the start
    # columns decide its problems (a Ginibre matrix) or its pencils are
    # formed too (a normal one). The spy sits on linalg's power kernel,
    # which linalg.matrix_power and every direct caller reach.
    formed, powered, reached = [], [], []

    class Counting(_Powers):
        def __getitem__(self, j):
            before = len(self._chain)
            power = super().__getitem__(j)
            for n in range(before, len(self._chain)):
                formed.append(n)
                np.testing.assert_array_equal(self._chain[n], self._chain[1] @ self._chain[n - 1])
            return power

    monkeypatch.setattr("opclass.membership._Powers", Counting)
    for t in (random_ginibre(5, seed=11), random_normal(5, seed=2)):
        formed.clear()
        powered.clear()
        with monkeypatch.context() as patch:
            spy_kernel(patch, "_matrix_power",
                       lambda a, n: powered.append((np.array_equal(a, t), n)))
            classify_all(t, seed=1)
        assert formed == [2, 3, 4, 5] and [n for on_t, n in powered if on_t] == []
        reached.append(len(powered))
    # The spy is live: the normal matrix's absolute-k pencils raise its Gram
    # T*T to the k-th power (k = 2 and 3 at seed 2).
    assert reached[-1] > 0


def test_a_zero_value_proves_no_nonmember_at_tol_decision_zero():
    # A kernel vector of T values every dual defect at exactly 0, which at
    # tol_decision = 0 is at most -threshold. It proves nothing: a proof
    # needs a value below 0 as well. The k-quasi problems that such a
    # column used to decide as Member with defect 0, with no sweep and no
    # descent, descend and are proved by the sphere, as at the default
    # tolerance; no NonMember of the default tolerance reads otherwise at
    # tol 0.
    tol0 = dataclasses.replace(TOL, tol_decision=0.0)
    t = _direct_sum(random_ginibre(3, 19), np.zeros((1, 1)))
    cls = OperatorClass("KQuasiParanormal", k=1)
    v, default = classify_all(t, tol=tol0)[cls], classify_all(t)[cls]
    assert (v.status, v.oracle) == (Status.NON_MEMBER, "sphere")
    assert v.defect == default.defect == pytest.approx(-0.6593, abs=1e-4)
    for seed in range(60):
        t = _direct_sum(random_ginibre(3, seed), np.zeros((1, 1)))
        strict = classify_all(t, tol=tol0)
        for c, v in classify_all(t).items():
            if v.status is Status.NON_MEMBER:
                assert strict[c].status is Status.NON_MEMBER, (seed, str(c))


def test_every_engine_nonmember_is_proved_at_a_sphere_column():
    # An engine NonMember rests on one unit vector the sphere found, a start
    # column or a descent's witness, never on a pencil's eigenvector: oracle
    # "sphere", a unit witness with no lambda, and the defining defect,
    # recomputed from T alone, at most minus the threshold. On these 8
    # inputs a pencil's refined eigenvector used to prove 12 problems before
    # the descent, at the defects below. Each problem's pencil claims
    # NonMember, and its eigenvector is one of the descent's starts, so each
    # now reads that defect or a deeper one.
    inputs = [(random_ginibre(3, 19), 899), (random_ginibre(3, 52), 734),
              (random_ginibre(4, 45), 66)]
    inputs += [(random_normal(d, s) + 1e-3 * random_ginibre(d, s + 7), seed)
               for d, s, seed in [(3, 2, 25), (3, 16, 133), (3, 17, 930), (4, 2, 925),
                                  (6, 13, 825)]]
    pencil_defects = {
        (0, "KQuasiParanormal(k=1)"): -0.6548468280659607,
        (1, "KQuasiParanormal(k=2)"): -1.3535818501831187,
        (1, "KQuasiParanormal(k=3)"): -2.173986103543342,
        (2, "KQuasiParanormal(k=3)"): -39.46671023919373,
        (3, "KQuasiParanormal(k=2)"): -2.6823999393910114e-07,
        (3, "KQuasiParanormal(k=3)"): -1.4847857734978653e-07,
        (4, "KQuasiParanormal(k=1)"): -3.2600010688166314e-07,
        (4, "KQuasiParanormal(k=3)"): -2.6237903182589617e-08,
        (5, "KQuasiParanormal(k=2)"): -6.1659018046889e-07,
        (5, "KQuasiParanormal(k=3)"): -2.483300120467713e-07,
        (6, "KQuasiParanormal(k=2)"): -1.0624510815848698e-06,
        (7, "KQuasiParanormal(k=3)"): -7.351628564244983e-06,
    }
    for i, (t, seed) in enumerate(inputs):
        families = {(name, k): (fn, scale) for k in range(4)
                    for name, fn, _, scale in dual_families(t, k)}
        for cls, v in classify_all(t, seed=seed).items():
            if not _is_dual(cls) or v.status is not Status.NON_MEMBER:
                continue
            fn, scale = families["KQuasiParanormal", 0] if cls.name == "Paranormal" \
                else families[cls.name, cls.k]
            x, threshold = v.witness.vector, TOL.tol_decision * scale
            assert (v.oracle, v.threshold) == ("sphere", threshold), (i, str(cls))
            assert v.witness.pencil_lambda is None, (i, str(cls))
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14), (i, str(cls))
            assert fn(x) <= -threshold, (i, str(cls))
            exact = pytest.approx(v.defect, rel=1e-12, abs=1e-6 * threshold)
            assert fn(x) == exact, (i, str(cls))
            head = pencil_defects.pop((i, str(cls)), None)
            if head is not None:
                assert v.defect <= head, (i, str(cls))
    assert pencil_defects == {}


def _beyond_dim_8() -> list:
    """20 Haar-conjugated matrices at dims 9-14: Ginibre, and J_m + N with
    N normal and m = 2-4."""
    mats = []
    for i in range(20):
        dim, u = 9 + i % 6, random_unitary(9 + i % 6, seed=500 + i)
        if i % 2:
            m = 2 + i // 2 % 3
            t = scipy.linalg.block_diag(np.eye(m, k=1), random_normal(dim - m, seed=500 + i))
        else:
            t = random_ginibre(dim, seed=500 + i)
        mats.append(u @ t @ u.conj().T)
    return mats


def test_start_certified_nonmembers_revalidate_from_t_alone(monkeypatch):
    # Every verdict that the right singular vectors of T or of T^2 decide
    # carries its own certificate: a unit witness with no lambda at which
    # the defining defect, recomputed from T alone, is at most minus the
    # threshold recomputed from ||T||. The engine sweeps no pencil of these
    # problems,
    # so the pencils are cross-checked here: swept and refined as the
    # engine would, each reads NonMember too. KParanormal(k=1) and
    # AbsoluteKParanormal(k=1) report the Paranormal verdict, whose witness
    # must also prove their own defining defects; its pencil, theirs term
    # for term, is swept once. On both benchmark pools at seed 2026 and on
    # the 20 matrices at dims 9-14, about 2 s on a 2-vCPU host.
    decided = _spy_start_verdicts(monkeypatch)
    checked = 0
    for i, t in enumerate(_benchmark_pools(2026) + _beyond_dim_8()):
        decided.clear()
        out = classify_all(t, seed=i)
        certified = {id(v) for v in decided}
        families = {(name, k): (fn, pencil, scale) for k in range(4)
                    for name, fn, pencil, scale in dual_families(t, k)}
        pencils = {}
        for cls, v in out.items():
            if id(v) not in certified:
                continue
            fn, pencil, scale = families["KQuasiParanormal", 0] if cls.name == "Paranormal" \
                else families[cls.name, cls.k]
            x, threshold = v.witness.vector, TOL.tol_decision * scale
            assert v.status is Status.NON_MEMBER and v.threshold == threshold, (i, str(cls))
            assert v.witness.pencil_lambda is None and "lambda" not in v.to_json_dict()["witness"]
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14), (i, str(cls))
            assert fn(x) <= -threshold, (i, str(cls))
            pencils.setdefault(id(v), pencil)
        assert len(pencils) == len(certified), i
        if pencils:
            pencils = list(pencils.values())
            claims = _pencil_verdicts(_PencilStack(pencils), pencils, 257, 8, TOL)
            assert all(c.status is Status.NON_MEMBER for c in claims), i
        checked += len(pencils)
    # 432 and 147 on the pools, 139 on the 20 matrices.
    assert checked == 718


@pytest.mark.parametrize("kind", ["ginibre", "normal"])
def test_pencil_nonmember_whose_witness_fails_still_descends(monkeypatch, kind):
    # Every defining defect is 0 at an eigenvector of T. A pencil NonMember
    # with that witness proves nothing, so the problem descends and gets
    # its sphere's verdict: NonMember, proved at the sphere's unit witness,
    # for a Ginibre matrix, and the sphere's Member for a normal one, which
    # the claim does not move. A certificate would settle the normal
    # matrix's pencils as Members before any sweep, so the certificates are
    # switched off with the start proof (``_patch_pencil_claims``).
    t = random_ginibre(4, seed=12) if kind == "ginibre" else random_normal(4, seed=12)
    eigvec = np.linalg.eig(t)[1][:, 0]

    def bogus(v):
        return dataclasses.replace(
            v, status=Status.NON_MEMBER, defect=min(v.defect, -2.0 * v.threshold),
            witness=Witness(vector=eigvec, pencil_lambda=v.witness.pencil_lambda),
        )

    # The sphere alone, as the engine runs it, before the engine is patched.
    cases = [
        (name, fn, sphere_check(fn, 4, 8, seed=3, warm_starts=np.linalg.svd(t)[2].conj().T,
                                scale=scale, value_and_gradient=fn.value_and_gradient))
        for name, fn, _, scale in dual_families(t, 1)
    ]
    descended = _count_descents(monkeypatch)
    _patch_pencil_claims(monkeypatch, bogus)
    for name, fn, sphere in cases:
        v = _PREDICATES[name](t, 1, seed=3)
        alone = sphere
        if sphere.status is Status.NON_MEMBER:
            unit = sphere.witness.vector / np.linalg.norm(sphere.witness.vector)
            exact = fn(unit)
            alone = (dataclasses.replace(sphere, defect=exact, witness=Witness(vector=unit))
                     if exact < 0.0 and exact <= -sphere.threshold
                     else dataclasses.replace(sphere, status=Status.INCONCLUSIVE))
        assert v.to_json_dict() == alone.to_json_dict(), name
        assert v.oracle == "sphere"
        assert v.status is (Status.NON_MEMBER if kind == "ginibre" else Status.MEMBER)
    assert descended == [1] * len(cases)


def test_decisive_pencil_member_against_a_sphere_nonmember_gives_way_to_the_proof(monkeypatch):
    # A pencil Member does not certify anything, so the problem descends;
    # the sphere finds a decisive NonMember, and that proof is the verdict,
    # in the predicates and in classify_all alike.
    t = random_ginibre(4, seed=13)
    fns = {(name, k): fn for k in range(4) for name, fn, _, _ in dual_families(t, k)}
    _patch_pencil_claims(monkeypatch, lambda v: dataclasses.replace(
        v, status=Status.MEMBER, defect=1.0))
    for name, predicate in _PREDICATES.items():
        _assert_proved_at_witness(predicate(t, 1, seed=3), fns[name, 1])
    for cls, v in classify_all(t, seed=3).items():
        if _is_dual(cls):
            # Paranormal, and KParanormal and AbsoluteKParanormal at k = 1,
            # read the KQuasiParanormal problem at k = 0.
            paranormal = cls.name == "Paranormal" or (cls.k == 1 and cls.name in (
                "KParanormal", "AbsoluteKParanormal"))
            _assert_proved_at_witness(v, fns[("KQuasiParanormal", 0) if paranormal
                                             else (cls.name, cls.k)])


def _near_normal(d: int, s: int, eps: float) -> np.ndarray:
    """A normal matrix eps off normal, as in ROADMAP's near-normal corpus:
    random_normal(d, s) + eps * random_ginibre(d, s + 1)."""
    return random_normal(d, s) + eps * random_ginibre(d, s + 1)


def test_every_definite_dual_verdict_has_the_status_of_its_own_band():
    # A dual verdict's status is _decide's on its own defect and threshold.
    # A sweep's Member claim beside an Inconclusive sphere made a Member
    # whose numbers read Inconclusive: 32 of the 364 definite dual verdicts
    # below were such Members; they are Inconclusive now.
    mats = [_near_normal(d, s, eps) for eps in (1e-6, 1e-5) for d in range(4, 9)
            for s in range(4)]
    mats += [np.round(random_normal(8, s), 6) for s in range(4)]
    unit_band = dataclasses.replace(TOL, tol_decision=1.0)
    definite = 0
    for i, t in enumerate(mats):
        for cls, v in classify_all(t, seed=0).items():
            if _is_dual(cls) and v.is_definite:
                definite += 1
                assert v.status is _decide(v.defect, v.threshold, unit_band)[0], (i, str(cls))
    assert definite > 0


def test_no_dual_class_is_member_at_one_seed_and_nonmember_at_another():
    # Paranormality of this matrix was Member at classify_all seed 0, on a
    # sweep's claim beside an Inconclusive sphere, and a NonMember proved
    # 52 thresholds deep at seed 5. The proof stands; the claim no longer
    # makes a Member.
    t = _near_normal(8, 3, 1e-6)
    statuses = {}
    for seed in range(6):
        for cls, v in classify_all(t, seed=seed).items():
            if _is_dual(cls):
                statuses.setdefault(str(cls), set()).add(v.status)
    assert [c for c, seen in statuses.items()
            if {Status.MEMBER, Status.NON_MEMBER} <= seen] == []
    paranormal = classify_all(t, seed=5)[OperatorClass("Paranormal")]
    assert paranormal.status is Status.NON_MEMBER
    assert paranormal.defect == pytest.approx(-5.19e-7, rel=1e-2)


def test_the_start_stage_decides_what_the_certificate_would_call_a_member(monkeypatch):
    # On U(N + 1e-3 G2)U*, the paranormal pencil's least value is the
    # sphere defect times a factor far below 1, so its Loewner certificate
    # alone reads Member. The start stage proves the problem NonMember at a
    # column of V, 79 thresholds deep, before any certificate is built.
    # This pins the start stage's role; the certificate's units (ROADMAP
    # item 17) are still open.
    u = random_unitary(5, 50)
    t = u @ _direct_sum(random_normal(3, 0), 1e-3 * random_ginibre(2, 9)) @ u.conj().T
    [claim] = _certificate_claims([quasi_paranormal_pencil(t, 0)], ["KQuasiParanormal"],
                                  [(operator_norm(t), operator_svd(t))], TOL).values()
    assert claim.status is Status.MEMBER
    assert claim.defect == pytest.approx(-4.9e-11, rel=2e-2)

    def refuse(*args):
        raise AssertionError("a certificate was built")

    monkeypatch.setattr("opclass.membership._certificate_claims", refuse)
    v = is_k_quasi_paranormal(t, 0)
    assert (v.status, v.oracle) == (Status.NON_MEMBER, "sphere")
    assert v.defect == pytest.approx(-7.9e-7, rel=2e-2)
    cols = operator_svd(t)[2].conj().T
    cols = cols / np.linalg.norm(cols, axis=0, keepdims=True)
    assert any(np.array_equal(v.witness.vector, col) for col in cols.T)


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


def test_start_proof_keeps_every_status_beyond_dim_8(monkeypatch):
    # On the 20 matrices at dims 9-14, every dual status is the one the
    # engine gives with the start proof switched off, so that every problem
    # is swept and refined and only then checked or descended. Both ways
    # take about 0.5 s on a 2-vCPU host.
    mats = _beyond_dim_8()
    problems = [("KQuasiParanormal", k) for k in range(4)]
    problems += [(name, k) for name in ("KParanormal", "AbsoluteKParanormal") for k in (1, 2, 3)]

    def statuses():
        return [[v.status for v in _dual_verdicts([(t, name, k, i) for name, k in problems], TOL)]
                for i, t in enumerate(mats)]

    proved = statuses()
    _no_start_proof(monkeypatch)
    assert statuses() == proved
    # Both statuses occur: the J_m + N matrices are k-quasi-paranormal for
    # k >= m - 1.
    assert {s for row in proved for s in row} == {Status.MEMBER, Status.NON_MEMBER}


def test_pencil_check_is_pinned():
    # The public one-pencil path has no defining defect to prove with, so
    # it sweeps and refines every pencil fully: every verdict field of
    # pencil_check over the dual families of Ginibre, normal, k-quasi and
    # nilpotent matrices at k = 1-3, bit for bit as before the engine's
    # first-pass proof. Last taken when the builders came to read one chain
    # of powers of T: the k-paranormal pencils at k = 2, 3 and the
    # k-quasi-paranormal pencils at k = 3 moved by rounding, since T^3 and
    # T^4 are T T^2 and T T^3 where they were T^2 T and T^2 T^2.
    mats = [random_ginibre(4, seed=5), 1e3 * random_ginibre(6, seed=6), random_normal(5, seed=7),
            k_quasi_member(3, 3, 2, seed=8), jordan_nilpotent(5, 3, seed=9)]
    doc = [pencil_check(pencil).to_json_dict() for t in mats for k in (1, 2, 3)
           for _, _, pencil, _ in dual_families(t, k)]
    assert {v["status"] for v in doc} == {"Member", "NonMember"}
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == "e69236c09e1592d61803f054cb3c014980fe3773af1c28ed31738357a86b3ad9"


def test_k_quasi_paranormality_of_a_jordan_block_beside_a_normal_part(monkeypatch):
    # J_m + N, N normal: T^(k+1) kills J_m exactly when m <= k + 1, so T is
    # then k-quasi-paranormal, and not for m > k + 1, the sharp case of the
    # nil-index bound min{n, k+1}. Plain and Haar-conjugated, at norms 1
    # and 1e3. Every call is accounted for: its problem is proved NonMember
    # at a start column, certified Member by its pencil's Loewner
    # certificate, or descends.
    decided, certified = _spy_start_verdicts(monkeypatch), _spy_certificate_claims(monkeypatch)
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
    assert len(decided) + len(certified) + sum(descended) == calls
    assert decided and certified


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
    # Last taken when a Loewner-certified Member became final, with no
    # descent: the 38 certified Members of the normal, unitary, Jordan,
    # normaloid-counterexample, k-quasi-member and root-of-scalar matrices
    # moved their defect (the certificate's bound), oracle (pencil) and
    # witness (none), and the 20 of the unitary and root-of-scalar
    # matrices, whose norm exceeds 1, their threshold (the pencil's scale);
    # no status, seed or other row moved.
    doc = [
        {str(cls): v.to_json_dict() for cls, v in classify_all(t, seed=i).items()}
        for i, t in enumerate(_pinned_pool())
    ]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == "2a0db4c96f63f78cae3dae403aa30ecf03137853fd6a7266ce6eaf9f93b5bd54"


def test_builders_are_pinned():
    # Every sphere term (matrix and exponent) and every pencil (coefficients,
    # exponents, domain, scale and label) of every dual class, for k from its
    # least k to 3, bit for bit. The digest was last taken when the builders
    # came to read one chain of powers of T, T^j = T T^(j-1): the terms and
    # pencils of KParanormal at k = 2, 3 and KQuasiParanormal at k = 3 moved
    # by rounding, where numpy's matrix_power formed T^3 = T^2 T and
    # T^4 = T^2 T^2, and every other term and pencil kept its bits.
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
                terms, pencil = build(_Powers(t), k, operator_norm(t))
                pencil = pencil()
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
    assert h.hexdigest() == "27f9421efcd075d0c6e1a7d4f6779d8a3902c208d07ad79bfbacc53ca1744d43"


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


def _dual_alone(t, cls: OperatorClass, seed: int):
    """The verdict that the public predicate of classify_all's dual key
    ``cls`` gives alone, or None for a key that is not dual. Paranormal,
    KParanormal(k=1) and AbsoluteKParanormal(k=1) are one problem,
    k-quasi-paranormality at k = 0."""
    if cls.name == "Paranormal" or (cls.name in ("KParanormal", "AbsoluteKParanormal")
                                    and cls.k == 1):
        return is_k_quasi_paranormal(t, 0, seed=seed)
    if cls.name in _PREDICATES:
        return _PREDICATES[cls.name](t, cls.k, seed=seed)
    return None


def test_classify_all_equals_one_problem_predicates(monkeypatch):
    # classify_all decides all dual classes of a matrix in one stacked
    # pencil sweep and one stacked descent of the problems the pencil
    # leaves open; each verdict must be the one its public predicate gives
    # alone, bit for bit, and the three keys of paranormality the one
    # is_k_quasi_paranormal(t, 0) gives. Problems that stop at different
    # steps leave the stack early, so the compaction must have run. A
    # certified Member does not descend, so the compaction is counted on a
    # second pass with the certificates switched off, where the Members
    # descend too, and each verdict is still its predicate's alone.
    # The start columns prove the NonMembers of Ginibre matrices alone and
    # the certificates settle the member families' Members, so only the
    # near-band matrices descend on the first pass; the Ginibre matrices'
    # descents are checked with the pencil made Inconclusive.
    mats = {i: random_ginibre(3 + i % 6, seed=60 + i) for i in (*range(6), 79)}
    mats.update({100 + i: _family_matrix(i) for i in range(42)})
    mats.update({200 + i: _near_band(i) for i in range(24)})

    def check():
        for seed, t in mats.items():
            for cls, v in classify_all(t, seed=seed).items():
                alone = _dual_alone(t, cls, seed)
                if alone is None:
                    alone = _ALGEBRAIC[cls.name](t, *cls.params.values())
                assert v.to_json_dict() == alone.to_json_dict(), (seed, str(cls))

    check()
    _no_certificate(monkeypatch)
    compactions = _count_compactions(monkeypatch)
    check()
    assert len(compactions) >= len(mats)


def test_classify_all_decides_paranormality_once(monkeypatch):
    # KParanormal and AbsoluteKParanormal at k = 1 are paranormality, so
    # classify_all hands the engine one problem for the three keys: 8
    # problems per matrix at the default k list, 7 at (2, 3) and 2 at (1,).
    # The three keys report one verdict, the one is_k_quasi_paranormal(t, 0)
    # gives alone, bit for bit, on Ginibre, member-family and near-band
    # matrices, both Members and NonMembers.
    calls = []

    def spying(problems, tol):
        calls.append([(name, k) for _, name, k, _ in problems])
        return _dual_verdicts(problems, tol)

    monkeypatch.setattr("opclass.membership._dual_verdicts", spying)
    para = OperatorClass("Paranormal")
    mats = [random_ginibre(3 + i, seed=70 + i) for i in range(2)]
    mats += [_family_matrix(i) for i in range(7)] + [_near_band(i) for i in range(2)]
    statuses = set()
    for seed, t in enumerate(mats):
        for k_list, count in (((1, 2, 3), 8), ((2, 3), 7), ((1,), 2)):
            calls.clear()
            out = classify_all(t, k_list=k_list, seed=seed)
            [problems] = calls
            assert len(problems) == len(set(problems)) == count, (seed, k_list)
            ones = [out[cls] for cls in out if cls.k == 1 and cls.name != "KQuasiParanormal"]
            assert len(ones) == 2 * (1 in k_list)
            assert all(v is out[para] for v in ones), (seed, k_list)
        alone = is_k_quasi_paranormal(t, 0, seed=seed)
        assert out[para].to_json_dict() == alone.to_json_dict(), seed
        statuses.add(alone.status)
    assert statuses == {Status.MEMBER, Status.NON_MEMBER}


def test_classify_all_takes_one_svd_of_t_of_each_kind(monkeypatch):
    # The predicates of classify_all read ||T||, and the SVD of T where they
    # need it, from linalg's memo of the last matrix seen, so a predicate
    # that measured another matrix before a later one reads T would cost a
    # second SVD.
    # The Ginibre matrix is decided at its start columns, read from the
    # SVD, and the normal matrix by its certificates, built from it.
    # The spies sit on linalg's SVD kernels, which every SVD of the package
    # goes through.
    for t in (random_ginibre(5, seed=3), random_normal(5, seed=3)):
        data, calls = t.tobytes(), []

        def counting(compute_uv):
            def record(a, *args, **kwargs):
                if np.shape(a) == t.shape and np.asarray(a, dtype=np.complex128).tobytes() == data:
                    calls.append(compute_uv)
            return record

        spy_kernel(monkeypatch, "_svd", counting(True))
        spy_kernel(monkeypatch, "_svdvals", counting(False))
        operator_norm(np.eye(2))  # T is not the last matrix seen
        classify_all(t, p_list=(0.25, 0.5, 1.0), seed=3)
        assert sorted(calls) == [False, True]
        # is_normaloid, last, leaves T in the memo: its power norms do not
        # pass through operator_norm.
        is_normal(t)
        assert sorted(calls) == [False, True]
        monkeypatch.undo()


def test_a_stack_of_many_matrices_takes_one_svd_of_each_kind(monkeypatch):
    # An engine call on several matrices of one dimension reads every ||T||
    # from one stacked values-only SVD and every SVD of T from one stacked
    # full SVD, and the right singular vectors of the squares of the
    # matrices the columns of V leave open from one more: no SVD of one T or
    # one T^2 alone. The normal matrices' Members reach the second stage,
    # where their certificates settle them, so no pencil is swept.
    ts = [random_ginibre(5, seed=s) for s in (3, 4)] + [random_normal(5, seed=s) for s in (3, 4)]
    problems = [(t, name, k, 1) for t in ts
                for name, k in (("KQuasiParanormal", 1), ("KParanormal", 2),
                                ("AbsoluteKParanormal", 1))]
    calls = {"_svd": [], "_svdvals": []}
    for name, seen in calls.items():
        spy_kernel(monkeypatch, name,
                   lambda a, *args, seen=seen, **kwargs: seen.append((np.array(a), args, kwargs)))
    verdicts = _dual_verdicts(problems, TOL)
    assert [v.status for v in verdicts[6:]] == [Status.MEMBER] * 6
    [(norms, _, _)] = calls["_svdvals"]
    (svds, *more), (squares, *_) = calls["_svd"]
    assert len(calls["_svd"]) == 2 and more == [(), {}]
    np.testing.assert_array_equal(norms, np.array(ts))
    np.testing.assert_array_equal(svds, np.array(ts))
    opened = [i for i, t in enumerate(ts) if any(np.array_equal(t @ t, sq) for sq in squares)]
    assert len(opened) == len(squares) and {2, 3} <= set(opened)


def test_descents_of_pencil_inconclusive_stacks_equal_one_problem_predicates(monkeypatch):
    # With every pencil verdict made Inconclusive, every problem of a
    # Ginibre matrix descends, as all did before the pencil ran first. Its
    # NonMember descents stop at different steps, so the stack is
    # compacted while long descents go on, which the engine's own inputs
    # rarely do now. Each verdict must still be its predicate's alone, bit
    # for bit, and the three keys of paranormality that of
    # is_k_quasi_paranormal(t, 0).
    compactions = _count_compactions(monkeypatch)
    _patch_pencil_claims(monkeypatch, lambda v: dataclasses.replace(v, status=Status.INCONCLUSIVE))
    mats = {i: random_ginibre(3 + i % 6, seed=60 + i) for i in (*range(6), 79)}
    for seed, t in mats.items():
        for cls, v in classify_all(t, seed=seed).items():
            alone = _dual_alone(t, cls, seed)
            if alone is None:
                continue
            assert v.oracle == "sphere", (seed, str(cls))
            assert v.to_json_dict() == alone.to_json_dict(), (seed, str(cls))
    assert len(compactions) >= len(mats)


def test_stacks_of_many_matrices_equal_one_problem_predicates(monkeypatch):
    # The engine decides problems of different matrices of one dimension in
    # one stack: a Ginibre matrix whose NonMembers the start columns prove
    # alone, a member family matrix whose Members the certificates settle,
    # two near-band matrices whose problems descend for different numbers of
    # steps, a zero matrix, one matrix under two seeds, and the classes
    # mixed. Each verdict must be its predicate's alone, bit for bit, and
    # the stack must have been compacted. A certified Member does not
    # descend, so the compaction is counted on a second pass with the
    # certificates switched off, where the Members descend too.
    def check():
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

    check()
    _no_certificate(monkeypatch)
    compactions = _count_compactions(monkeypatch)
    check()
    assert len(compactions) >= 6


def test_one_defect_build_per_engine_call(monkeypatch):
    # Every _dual_verdicts call builds one stacked defect for all its
    # problems: the pencil witnesses' values, the descent and the sphere
    # witnesses' values all read it. The near-band matrix's problems
    # descend, the normal matrix's are certified and the Ginibre matrix's
    # proved at its start columns.
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
    # The builders hand the engine unchecked pencils, and the engine checks
    # the terms of the pencils it sweeps at once with PencilSpec's own
    # checks. A builder whose pencil breaks one of them must make every
    # stack that sweeps it raise the message PencilSpec gives for that term.
    # Every dual problem of a normal matrix is a Member, so T's right
    # singular vectors decide none of them and every pencil is swept.
    t = random_normal(4, seed=5)
    least_k, degree, build = _DUAL["KParanormal"]
    wants = []

    def broken(powers, k, norm_t):
        sphere, pencil = build(powers, k, norm_t)

        def formed():
            built = pencil()
            terms = list(built.terms)
            terms[term] = breaks(*terms[term])
            with pytest.raises(InvalidPencil) as want:
                PencilSpec(terms=tuple(terms), lambda_lo=built.lambda_lo,
                           lambda_max=built.lambda_max, scale=built.scale, label=built.label)
            wants.append(str(want.value))
            return _pencil(norm_t, built.scale, tuple(terms), built.label)

        return sphere, formed

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
    # does not check them again; the dual engine checks the terms of the
    # unchecked pencils it sweeps once, as one stack, per call, and checks
    # none when T's right singular vectors decide every problem.
    calls = []
    real = _check_terms

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr("opclass.membership._check_terms", counting)
    t, members = random_ginibre(6, seed=2), random_normal(6, seed=2)
    pencil = k_paranormal_pencil(t, 2)
    assert len(calls) == 1
    pencil_check(pencil)
    assert len(calls) == 1
    is_k_paranormal(t, 2)
    classify_all(t)
    assert len(calls) == 1
    is_k_paranormal(members, 2)
    assert len(calls) == 2
    classify_all(members)
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

    def refusing(powers, k, norm_t):
        return refuse, build(powers, k, norm_t)[1]

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
        # ||T|| overflows: is_normaloid used to read the normal (Hermitian)
        # 1e308 * ones NonMember.
        lambda: is_normaloid(1e308 * np.ones((2, 2))),
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


def test_chain_violations_order_p_hyponormal_by_descending_p():
    # By Loewner-Heinz, p-hyponormal implies q-hyponormal for q <= p only.
    def verdicts(high: Status, low: Status) -> dict:
        return {
            OperatorClass("PHyponormal", p=0.25): MembershipVerdict(low, -1.0, "algebraic"),
            OperatorClass("PHyponormal", p=0.5): MembershipVerdict(high, -1.0, "algebraic"),
        }

    assert chain_violations(verdicts(Status.MEMBER, Status.NON_MEMBER)) == [
        "PHyponormal(p=0.5) is Member but PHyponormal(p=0.25) is NonMember"
    ]
    assert chain_violations(verdicts(Status.NON_MEMBER, Status.MEMBER)) == []


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
    # The ten dual problems of classify_all at dims 3-8: the start columns
    # V and V2 turn with T, so U T U* gets the verdict of T, its defect to
    # within rounding of the class scale.
    for dim in range(3, 9):
        t = ginibre(dim, rng)
        u = haar(dim, rng)
        a, b = classify_all(t, seed=9), classify_all(u @ t @ u.conj().T, seed=9)
        dual = [cls for cls in a if _is_dual(cls)]
        assert len(dual) == 10
        for cls in dual:
            assert a[cls].status is b[cls].status, (dim, str(cls))
            scale = a[cls].threshold / TOL.tol_decision
            assert abs(a[cls].defect - b[cls].defect) <= 10 * TOL.tol_eq * scale, (dim, str(cls))


def _decompositions(t) -> list:
    """Block dims of each decomposition of T, or the name of what it
    raised, then rr_check's status."""
    out = []
    for split in (normal_pure_split, lambda m: root_decompose(m, 2, 1), nilpotent2_canonical):
        try:
            out.append(split(t).block_dims)
        except OpclassError as exc:
            out.append(type(exc).__name__)
    return [*out, rr_check(t).status]


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
    # Every band is relative to max(1, ||T||)^degree, so for ||T|| >= 1 no
    # output moves under T -> 2^j T, which is exact. Each input is lifted
    # to norm at least 1 by a power of 2. At j = 100 the statuses still
    # hold, but the sphere descent's products overflow and warn.
    u = random_unitary(7, 5)
    eye_j2 = u @ _direct_sum(np.eye(5), np.array([[0, 1], [0, 0]])) @ u.conj().T
    members = {"kquasi": k_quasi_member(3, 2, 1, 25), "counterexample":
               normaloid_counterexample(2, 2, 26), "rr": rr_instance(1, 2, 27), "eye_j2": eye_j2}
    classify_inputs = {**members, "ginibre4": random_ginibre(4, 21),
                       "ginibre5": random_ginibre(5, 22), "normal": random_normal(4, 23),
                       "jordan": jordan_nilpotent(5, 3, 24)}
    decomposition_inputs = {**members, "jordan2": jordan_nilpotent(4, 2, 28)}

    def lift(mat):
        return mat * 2.0 ** max(0, -math.floor(math.log2(operator_norm(mat))))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, mat in classify_inputs.items():
            mat = lift(mat)
            want = [v.status for v in classify_all(mat, seed=1).values()]
            for j in (1, 5, 10, 20, 40, 60):
                got = [v.status for v in classify_all(2.0**j * mat, seed=1).values()]
                assert got == want, (name, j)
        for name, mat in decomposition_inputs.items():
            mat = lift(mat)
            want = _decompositions(mat)
            for j in (1, 5, 10, 20, 40, 60):
                assert _decompositions(2.0**j * mat) == want, (name, j)


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
