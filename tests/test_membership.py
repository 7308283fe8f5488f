import hashlib
import json
import math
import warnings

import numpy as np
import pytest

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
    _STRIDE,
    _pencil_verdicts,
    _reconcile,
    _sweep,
    _warm_starts,
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


def test_is_normaloid_examples(j2):
    v = is_normaloid(j2)
    assert v.status is Status.NON_MEMBER
    assert v.defect == pytest.approx(-1.0, abs=1e-6)
    rng = np.random.default_rng(8)
    assert is_normaloid(random_normal_matrix(4, rng)).status is Status.MEMBER
    assert is_normaloid(haar(4, rng)).status is Status.MEMBER
    assert is_normaloid(normaloid_counterexample(2, 2, 5)).status is Status.MEMBER


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


def _sequential_pencil_minimum(pencil, n_grid, max_refine):
    """((least value, its lambda), number of searches) as pencil_check
    found them with one Brent search after another, one lambda per
    eigensolve, each stopped at width 1e-6 * lambda_max or at a predicted
    gain of 1e-3 * tol_decision * scale."""
    def f(lam):
        return float(np.linalg.eigvalsh(pencil.evaluate(np.array([lam])))[0, 0])

    lams = np.geomspace(pencil.lambda_lo, pencil.lambda_max, n_grid)
    mins = np.linalg.eigvalsh(pencil.evaluate(lams))[:, 0]
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
            got = _pencil_verdicts(pool, n_grid, max_refine, TOL)
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


def test_pruned_sweep_skips_only_cells_above_the_grid_minimum():
    # Every point the sweep skips lies strictly above the full grid's
    # minimum, every point it eigensolves has the full sweep's value, and
    # its local minima are exactly the full grid's local minima that lie in
    # the cells it eigensolved, ends included.
    pencils = [pencil for own in _certificate_pencils() for pencil in own]
    assert len(pencils) >= 300
    skipped = 0
    for pencil in pencils:
        for n_grid in (257, 65, 2):
            full, full_local = _full_sweep(pencil, n_grid)
            lams = np.geomspace(pencil.lambda_lo, pencil.lambda_max, n_grid)
            [mins], [evaluated], [local] = _sweep(_PencilStack([pencil]), lams[None])
            local = np.flatnonzero(local)
            where = (pencil.label, n_grid)
            assert (full[~evaluated] > full.min()).all(), where
            assert np.array_equal(mins[evaluated], full[evaluated]), where
            assert np.isposinf(mins[~evaluated]).all(), where
            coarse = np.unique(np.r_[0:n_grid:_STRIDE, n_grid - 1])
            in_open = np.zeros(n_grid, dtype=bool)
            for lo, hi in zip(coarse[:-1], coarse[1:]):
                if evaluated[lo : hi + 1].all():
                    in_open[lo : hi + 1] = True
            assert set(local) <= set(full_local), where
            assert set(full_local[in_open[full_local]]) <= set(local), where
            skipped += int((~evaluated).sum())
    # The certificate has to skip something to be tested at all.
    assert skipped > 100 * len(pencils)


def test_pruned_sweep_minimum_equals_full_sweep():
    # The refined minimum is the full sweep's bit for bit. Local minima in
    # skipped cells take no refinement slot, so where the full grid has
    # more than max_refine local minima the slots go to others, which can
    # only find an equal or a deeper minimum.
    for own in _certificate_pencils():
        for pencil, v in zip(own, _pencil_verdicts(own, 257, 8, TOL)):
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
            alone = [_pencil_verdicts([pencil], n_grid, 8, TOL)[0].to_json_dict()
                     for pencil in pool]
            stacked = [v.to_json_dict() for v in _pencil_verdicts(pool, n_grid, 8, TOL)]
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
    fn = _NormProductDefect.of(_DUAL["KQuasiParanormal"][1](j2, 0, TOL))
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
                kw = dict(seed=i, warm_starts=_warm_starts(t), scale=scale)
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
        _reconcile(member, nonmember, lambda x: 1.0, label="synthetic")


def test_reconcile_prefers_certified_witness():
    # Pencil says NonMember near the band edge; its witness certifies the
    # defining inequality, so the combined verdict is NonMember.
    sphere = MembershipVerdict(
        status=Status.MEMBER, defect=1e-11, oracle="sphere",
        witness=Witness(vector=np.array([1.0 + 0j])), threshold=1e-8, seed=0,
    )
    pencil = MembershipVerdict(
        status=Status.NON_MEMBER, defect=-2e-8, oracle="pencil",
        witness=Witness(vector=np.array([1.0 + 0j]), pencil_lambda=0.5),
        threshold=1e-8,
    )
    v = _reconcile(sphere, pencil, lambda x: -5e-8, label="synthetic")
    assert v.status is Status.NON_MEMBER
    assert v.oracle == "pencil"
    assert v.defect == pytest.approx(-5e-8)


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

    # The pencil's witness fails re-validation, so the verdict is Inconclusive.
    v = _reconcile(sphere, pencil(5.0), lambda x: 1.0, label="synthetic")
    assert (v.status, v.oracle, v.defect) == (Status.INCONCLUSIVE, "sphere", 1.0)
    assert v.threshold == 1e-8 and v.seed == 5
    with pytest.raises(OracleDisagreement):
        _reconcile(sphere, pencil(20.0), lambda x: 1.0, label="synthetic")


_M, _NM, _I = Status.MEMBER, Status.NON_MEMBER, Status.INCONCLUSIVE
# Oracle defects per status: the Member one sits inside 10 * tol_decision,
# so a Member/NonMember pair is a near-disagreement, never a raise.
_SPHERE_DEFECT = {_M: 1e-11, _NM: -2e-8, _I: -5e-9}
_PENCIL_DEFECT = {_M: 1e-11, _NM: -2e-8, _I: 0.0}


@pytest.mark.parametrize(
    "s_stat, p_stat, s_exact, p_exact, status, oracle, defect",
    [
        # All nine status pairs, every NonMember witness certified.
        (_M, _M, -3e-8, -5e-8, _M, "sphere", 1e-11),
        (_M, _NM, -3e-8, -5e-8, _NM, "pencil", -5e-8),
        (_M, _I, -3e-8, -5e-8, _M, "sphere", 1e-11),
        (_NM, _M, -3e-8, -5e-8, _NM, "sphere", -3e-8),
        (_NM, _NM, -3e-8, -5e-8, _NM, "pencil", -5e-8),
        (_NM, _I, -3e-8, -5e-8, _NM, "sphere", -3e-8),
        (_I, _M, -3e-8, -5e-8, _M, "sphere", -5e-9),
        (_I, _NM, -3e-8, -5e-8, _NM, "pencil", -5e-8),
        (_I, _I, -3e-8, -5e-8, _I, "sphere", -5e-9),
        # A NonMember claim whose witness fails re-validation leaves the
        # sphere's Inconclusive, even beside a Member.
        (_M, _NM, -3e-8, 0.0, _I, "sphere", 1e-11),
        (_NM, _M, 0.0, -5e-8, _I, "sphere", -2e-8),
        (_NM, _NM, 0.0, 0.0, _I, "sphere", -2e-8),
        (_NM, _I, 0.0, -5e-8, _I, "sphere", -2e-8),
        (_I, _NM, -3e-8, 0.0, _I, "sphere", -5e-9),
        (_NM, _NM, 0.0, -5e-8, _NM, "pencil", -5e-8),
        (_NM, _NM, -3e-8, 0.0, _NM, "sphere", -3e-8),
        # Equal certified defects: the sphere, listed first, keeps the label.
        (_NM, _NM, -4e-8, -4e-8, _NM, "sphere", -4e-8),
    ],
)
def test_reconcile_branches(s_stat, p_stat, s_exact, p_exact, status, oracle, defect):
    e0, e1 = np.eye(2, dtype=np.complex128)
    sphere = MembershipVerdict(
        status=s_stat, defect=_SPHERE_DEFECT[s_stat], oracle="sphere",
        witness=Witness(vector=e0), threshold=1e-8, seed=3,
    )
    pencil = MembershipVerdict(
        status=p_stat, defect=_PENCIL_DEFECT[p_stat], oracle="pencil",
        witness=Witness(vector=e1, pencil_lambda=0.5), threshold=1e-8,
    )

    def exact(x):
        # The sphere's witness is e0, the pencil's e1.
        return s_exact if abs(x[0]) > 0.5 else p_exact

    v = _reconcile(sphere, pencil, exact, label="synthetic")
    assert (v.status, v.oracle, v.defect) == (status, oracle, defect)
    assert v.seed == 3 and v.threshold == TOL.tol_decision
    assert v.witness.pencil_lambda == (0.5 if oracle == "pencil" else None)


_PREDICATES = {
    "KQuasiParanormal": is_k_quasi_paranormal,
    "KParanormal": is_k_paranormal,
    "AbsoluteKParanormal": is_absolute_k_paranormal,
}


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
    doc = [
        {str(cls): v.to_json_dict() for cls, v in classify_all(t, seed=i).items()}
        for i, t in enumerate(_pinned_pool())
    ]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == "fb794a80c4b9bd30365eae5244acf5cfd32bea5807700019204c35ae02af9ef6"


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


def test_classify_all_equals_one_problem_predicates(monkeypatch):
    # classify_all decides all dual classes of a matrix in one stacked
    # descent and one pool of refinements; each verdict must be the one its
    # predicate gives alone, bit for bit. Problems that stop at different
    # steps leave the stack early, so the compaction must have run.
    compactions = []
    take = _NormProductDefect.take

    def counting_take(self, rows):
        if len(rows) > 1:  # only a compaction keeps several problems
            compactions.append(len(rows))
        return take(self, rows)

    monkeypatch.setattr(_NormProductDefect, "take", counting_take)
    # Seed 79's Ginibre matrix keeps descending after its stack has shrunk:
    # a compaction that leaves the arrays in Fortran order moves its bits.
    mats = {i: random_ginibre(3 + i % 6, seed=60 + i) for i in (*range(6), 79)}
    mats.update({100 + i: _family_matrix(i) for i in range(42)})
    for seed, t in mats.items():
        for cls, v in classify_all(t, seed=seed).items():
            if cls.name == "Paranormal":
                alone = is_k_quasi_paranormal(t, 0, seed=seed)
            elif cls.name in _PREDICATES:
                alone = _PREDICATES[cls.name](t, cls.k, seed=seed)
            else:
                continue
            assert v.to_json_dict() == alone.to_json_dict(), (seed, str(cls))
    assert len(compactions) >= len(mats)


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
    # raise OverflowError from the float power.
    huge = 1e40 * random_ginibre(3, 1)
    with pytest.raises(ValueError, match="overflows"):
        classify_all(huge)
    with pytest.raises(ValueError, match="overflows"):
        is_k_quasi_paranormal(huge, 3)
    t = 2.0 * random_unitary(3, seed=1)
    with pytest.raises(ValueError, match="overflows"):
        classify_all(t, k_list=[600])


def test_classify_all_rejects_non_integral_and_negative_k(j2):
    with pytest.raises(ValueError, match="every k must be an integer"):
        classify_all(j2, k_list=[1.7])
    with pytest.raises(ValueError, match="every k must be nonnegative"):
        classify_all(j2, k_list=[1, -3])
    # k = 0 is paranormality, which is always reported.
    assert len(classify_all(j2, k_list=[0])) == len(classify_all(j2, k_list=[]))
    assert OperatorClass("KParanormal", k=2) in classify_all(j2, k_list=[2.0])


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
