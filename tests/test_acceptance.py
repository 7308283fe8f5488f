"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output section on failure). Tolerances are pinned here, not
derived at runtime.
"""

import contextlib
import hashlib
import time

import numpy as np
import pytest

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
from opclass.decomposition import nilpotent2_canonical
from opclass.harness import (
    THEOREM_IDS,
    SuiteConfig,
    canonical_report_json,
    run_suite,
    suite_report_json_dict,
    verify_embry,
    verify_fuglede_putnam,
    verify_k_paranormal_root,
    verify_k_quasi_decomposition,
)
from opclass.linalg import frobenius_norm, matrix_power
from opclass.membership import (
    Status,
    chain_violations,
    classify_all,
    is_k_quasi_paranormal,
    is_normal,
    is_normaloid,
    pencil_check,
    sphere_check,
)

from conftest import dual_families

RESIDUAL_GATE = 1e-8


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_counterexample_reproduction():
    with criterion("1 counterexample-reproduction"):
        # Warm caches so the timing below reflects the computation itself.
        warm = normaloid_counterexample(2, 2, 0)
        is_k_quasi_paranormal(warm, 0, seed=0)

        t0 = time.perf_counter()
        t = normaloid_counterexample(2, 2, 42)
        assert is_normaloid(t).status is Status.MEMBER
        assert is_normal(t @ t).status is Status.MEMBER
        assert is_normal(t).status is Status.NON_MEMBER
        para = is_k_quasi_paranormal(t, 0, seed=42)
        assert para.status is Status.NON_MEMBER
        elapsed = time.perf_counter() - t0
        assert para.defect <= -RESIDUAL_GATE
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_criterion_2_nilpotent_class_boundary():
    with criterion("2 nilpotent-class-boundary"):
        for k in (1, 2, 3):
            for i in range(30):
                dim = k + 1 + (i % 3)  # sizes k+1 .. k+3
                t = jordan_nilpotent(dim, k + 1, seed=1000 * k + i)
                member = is_k_quasi_paranormal(t, k, seed=i)
                assert member.status is Status.MEMBER, (k, i)
                assert is_normaloid(t).status is Status.NON_MEMBER, (k, i)


def test_criterion_3_oracle_equivalence():
    with criterion("3 oracle-equivalence"):
        # The sphere runs as the predicates run it (analytic gradient) and
        # by central differences; each path is held to the same bounds.
        checks = 0
        inconclusive = {"analytic": 0, "central": 0}
        for i in range(200):
            t = random_ginibre(5, seed=i)
            for k in (0, 1, 2):
                for name, defect_fn, pencil, scale in dual_families(t, k):
                    pv = pencil_check(pencil)
                    checks += 1
                    for path, provider in (
                        ("analytic", defect_fn.value_and_gradient), ("central", None)
                    ):
                        sv = sphere_check(
                            defect_fn, 5, 8, seed=i, warm_starts=np.linalg.svd(t)[2].conj().T,
                            scale=scale, value_and_gradient=provider,
                        )
                        if pv.is_definite and sv.is_definite:
                            assert pv.status is sv.status, (i, k, name, path)
                        else:
                            inconclusive[path] += 1
        assert checks >= 200 * 5
        for count in inconclusive.values():
            assert count / checks < 0.05


def _constructed_pool():
    mats = []
    s = 0
    while len(mats) < 200:
        mats.append(random_normal(3 + s % 3, seed=s))
        mats.append(random_unitary(3 + s % 2, seed=s))
        mats.append(jordan_nilpotent(4, 2 + s % 3, seed=s))
        mats.append(normaloid_counterexample(2, 2, seed=s))
        mats.append(k_quasi_member(2, 2, 1 + s % 3, seed=s))
        mats.append(rr_instance(1, 2, seed=s))
        mats.append(root_of_scalar_instance(3, 2 + s % 3, 1.5 + 0.5j, seed=s))
        s += 1
    return mats[:200]


def test_criterion_4_chain_monotonicity():
    with criterion("4 chain-monotonicity"):
        random_pool = [random_ginibre(3 + i % 3, seed=i) for i in range(200)]
        for i, t in enumerate(random_pool + _constructed_pool()):
            verdicts = classify_all(t, k_list=(1, 2, 3), p_list=(0.5,), seed=i)
            violations = chain_violations(verdicts)
            assert violations == [], (i, violations)


def test_criterion_5_decomposition_theorem():
    with criterion("5 decomposition-theorem"):
        for n, k in ((2, 1), (3, 1), (3, 2)):
            rep = verify_k_quasi_decomposition(50, 8, n, k, seed=7)
            assert rep.trials == 50
            assert rep.skips == 0
            assert rep.failures == [], (n, k, rep.failures[:1])


def test_criterion_6_scalar_root_lemma():
    with criterion("6 scalar-root-lemma"):
        for n in (2, 3, 4):
            for k in (1, 2):
                rng = np.random.default_rng(n * 10 + k)
                for i in range(30):
                    dim = int(rng.integers(2, 7))
                    lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
                    t = root_of_scalar_instance(dim, n, lam, seed=i)
                    assert is_normal(t).status is Status.MEMBER, (n, k, i)
                    ident = frobenius_norm(
                        t.conj().T
                        - abs(lam) ** (2.0 / n) / lam * matrix_power(t, n - 1)
                    )
                    assert ident < RESIDUAL_GATE, (n, k, i, ident)
                rep = verify_k_paranormal_root(30, 6, n, k, seed=n * 100 + k)
                assert rep.failures == [], (n, k)


def test_criterion_7_embry_and_fuglede_putnam():
    with criterion("7 embry-fuglede-putnam"):
        rep = verify_embry(200, 6, 3, seed=11)
        assert rep.trials == 200 and rep.failures == []
        rep = verify_fuglede_putnam(200, 6, seed=12)
        assert rep.trials == 200 and rep.failures == []


def test_criterion_8_canonical_form_round_trip():
    with criterion("8 canonical-form-round-trip"):
        for i in range(30):
            dim_bc = 1 + i % 4
            t = rr_instance(0, dim_bc, seed=i, b_zero=True)
            canon = nilpotent2_canonical(t)
            assert canon.residuals["c_min_singular"] > 0.0, i
            assert canon.residuals["basis"] < RESIDUAL_GATE, i
            c = canon.rr_form.c
            assert np.linalg.eigvalsh((c + c.conj().T) / 2)[0] > 0.0, i


VERIFY_ALL_2026_SHA256 = "479cde7ff6bc027c55ba18ed90b3170d847b2be8c28145ee1de9ae09d704b70d"


def test_criterion_9_full_verify_all():
    with criterion("9 full-verify-all"):
        cfg = SuiteConfig(suites=THEOREM_IDS, trials=50, max_dim=8, seed=2026)
        t0 = time.perf_counter()
        reports = run_suite(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        for rep in reports:
            assert rep.failures == [], (rep.theorem_id, rep.failures[:1])
            assert rep.trials == 50
        first = canonical_report_json(suite_report_json_dict(cfg, reports))
        second = canonical_report_json(
            suite_report_json_dict(cfg, run_suite(cfg))
        )
        assert first == second
        # The seed-2026 report is pinned: a change to any suite's draws,
        # hypotheses or residuals shows here.
        assert hashlib.sha256(first.encode()).hexdigest() == VERIFY_ALL_2026_SHA256


# Canonical reports at other budgets, pinned at the commit before the
# suites decided their dual predicates in lockstep rounds: trial order is
# what they depend on, search-q2's candidate list included.
REPORT_SHA256 = {
    ("verify-all", 0): "6e7b3f5f7d43d6c10b9515ba5b8b983ab6843af9622dfea47feff74c015ddc6a",
    ("verify-all", 7): "8a3a690522953c8d69d8b40462e7f38368e9ba3553b5623dc464ca09c76b5698",
    ("search-q2", 2026): "73afa8ffcbcc85d6859119f78bd651b859f3202a38afa394e6a5a74a34b326b9",
}


@pytest.mark.parametrize("suites, seed", list(REPORT_SHA256))
def test_reports_are_pinned_at_more_seeds(suites, seed):
    if suites == "verify-all":
        cfg = SuiteConfig(suites=THEOREM_IDS, trials=20, max_dim=8, seed=seed)
    else:
        cfg = SuiteConfig(suites=(suites,), trials=50, max_dim=8, seed=seed)
    doc = canonical_report_json(suite_report_json_dict(cfg, run_suite(cfg)))
    assert hashlib.sha256(doc.encode()).hexdigest() == REPORT_SHA256[suites, seed]
