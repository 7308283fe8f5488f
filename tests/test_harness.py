import inspect
import json

import numpy as np
import pytest

import opclass.harness as hs
from opclass.errors import NonCoprime, UnknownTheorem
from opclass.harness import (
    SUITES,
    THEOREM_IDS,
    SuiteConfig,
    canonical_report_json,
    run_suite,
    search_q2,
    suite_report_json_dict,
    verify_ando,
    verify_coprime,
    verify_embry,
    verify_fuglede_putnam,
    verify_k_paranormal_root,
    verify_k_quasi_decomposition,
    verify_normaloid_criterion,
    verify_quasinormal_root,
    verify_stampfli,
)


def _accounting_ok(rep):
    return rep.trials == rep.passes + len(rep.failures) + rep.skips


def test_stampfli_suite():
    rep = verify_stampfli(20, 6, seed=1)
    assert rep.ok and _accounting_ok(rep)
    assert rep.passes > 0
    assert "hyponormal" in rep.skip_reasons  # random probes are excluded


def test_stampfli_empty():
    rep = verify_stampfli(0, 6, seed=1)
    assert rep.trials == rep.passes == rep.skips == 0
    assert rep.failures == []


def test_quasinormal_root_suite():
    rep = verify_quasinormal_root(25, 6, 3, seed=2)
    assert rep.ok and _accounting_ok(rep)
    assert rep.passes > 0
    assert rep.skips > 0  # ginibre and jordan probes fail the hypotheses


def test_ando_suite_confirms_counterexample():
    rep = verify_ando(16, 6, 2, seed=3)
    assert rep.ok and _accounting_ok(rep)
    assert rep.notes["counterexamples_confirmed"] >= 3


def test_k_paranormal_root_suite():
    rep = verify_k_paranormal_root(20, 5, 3, 2, seed=4)
    assert rep.ok and _accounting_ok(rep)
    assert rep.passes > 0


def test_k_quasi_decomposition_suite():
    rep = verify_k_quasi_decomposition(15, 6, 2, 1, seed=5)
    assert rep.ok and _accounting_ok(rep)
    assert rep.passes == 15


def test_coprime_suite():
    rep = verify_coprime(15, 5, 2, 3, seed=6)
    assert rep.ok and _accounting_ok(rep)
    assert rep.passes > 0
    with pytest.raises(NonCoprime):
        verify_coprime(5, 4, 2, 2, seed=0)
    with pytest.raises(NonCoprime):
        verify_coprime(5, 4, 1, 3, seed=0)


def test_embry_suite():
    rep = verify_embry(30, 6, 3, seed=7)
    assert rep.ok and _accounting_ok(rep)
    assert rep.passes == 30


def test_fuglede_putnam_suite():
    rep = verify_fuglede_putnam(30, 6, seed=8)
    assert rep.ok and _accounting_ok(rep)
    assert "commutes-with-N" in rep.skip_reasons


def test_normaloid_criterion_suite():
    rep = verify_normaloid_criterion(18, 6, 1, seed=9)
    assert rep.ok and _accounting_ok(rep)
    assert rep.passes > 0
    # jordan probes fail the norm identity, ginibre probes fail membership
    assert "norm-identity" in rep.skip_reasons
    assert "k-quasi-paranormal" in rep.skip_reasons


def test_search_q2_is_informational():
    rep = search_q2(12, 5, seed=10)
    assert rep.ok
    assert rep.notes["candidates"] == 0


@pytest.mark.parametrize("sid", list(SUITES))
@pytest.mark.parametrize("trials, dim", [(-3, 6), (2, 1), (2, -4)])
def test_suites_reject_out_of_range_sizes(sid, trials, dim):
    # The public suites take the sizes SuiteConfig takes; trials=0 at the
    # least dimension stays an empty report.
    suite, _, params = SUITES[sid]
    with pytest.raises(ValueError):
        suite(trials, dim, seed=0, **params)
    rep = suite(0, 2, seed=0, **params)
    assert rep.trials == 0 and rep.ok


def test_run_suite_all_and_empty():
    cfg = SuiteConfig(suites=("embry", "fuglede-putnam"), trials=8, max_dim=5, seed=11)
    reports = run_suite(cfg)
    assert [r.theorem_id for r in reports] == ["embry", "fuglede-putnam"]
    assert run_suite(SuiteConfig(suites=(), trials=5)) == []
    with pytest.raises(UnknownTheorem):
        run_suite(SuiteConfig(suites=("nope",)))


def test_failure_injection_reproduces():
    cfg = SuiteConfig(suites=("embry",), trials=6, max_dim=4, seed=12, inject_failure=True)
    (rep,) = run_suite(cfg)
    assert len(rep.failures) == 1
    record = rep.failures[0]
    assert record.seed > 0
    (rep2,) = run_suite(cfg)
    assert rep2.failures[0].to_json_dict() == record.to_json_dict()


def test_reports_are_deterministic_for_fixed_seed():
    cfg = SuiteConfig(suites=THEOREM_IDS[:4], trials=6, max_dim=5, seed=13)
    a = canonical_report_json(suite_report_json_dict(cfg, run_suite(cfg)))
    b = canonical_report_json(suite_report_json_dict(cfg, run_suite(cfg)))
    assert a == b


def test_report_json_schema_fields():
    rep = verify_embry(5, 4, 2, seed=14)
    doc = rep.to_json_dict()
    assert set(doc) >= {
        "theorem_id", "trials", "passes", "skips", "failures",
        "tolerances", "wall_time_ms",
    }
    json.dumps(doc)  # serializable


def test_suites_are_independent():
    # Any subset runs standalone and matches the same suite inside a batch.
    single = run_suite(SuiteConfig(suites=("embry",), trials=6, max_dim=4, seed=15))
    batch = run_suite(SuiteConfig(suites=("stampfli", "embry"), trials=6, max_dim=4, seed=15))
    a = single[0].to_json_dict()
    b = batch[1].to_json_dict()
    a.pop("wall_time_ms"), b.pop("wall_time_ms")
    assert a == b


# ---------------------------------------------------------------------------
# Lockstep rounds against trials run one after the other
# ---------------------------------------------------------------------------

ENGINE = hs._dual_verdicts


def _sequential(monkeypatch):
    """Make every suite run each trial to its end before the next starts,
    each dual problem decided alone and its exception thrown into its body:
    the reference the lockstep rounds must reproduce."""
    drive = hs._drive

    def one_by_one(body, tol):
        def run(trial, ts, rng):
            steps = body(trial, ts, rng)
            if not inspect.isgenerator(steps):
                return steps
            answer = None
            while True:
                try:
                    if isinstance(answer, Exception):
                        problem = steps.throw(answer)
                    else:
                        problem = steps.send(answer)
                except StopIteration as done:
                    return done.value
                try:
                    [answer] = hs._dual_verdicts([problem], tol)
                except Exception as exc:
                    answer = exc

        return run

    def sequential(theorem_id, trials, dim, seed, tol, inject_failure, body, **kwargs):
        return drive(theorem_id, trials, dim, seed, tol, inject_failure,
                     one_by_one(body, tol), **kwargs)

    monkeypatch.setattr(hs, "_drive", sequential)


def _engine(monkeypatch, targets=frozenset()):
    """Route the harness through an engine that records the trial seeds of
    every stack and the verdict of every problem it returns, and raises
    ValueError, as the engine does for an overflowing class scale, for any
    stack that holds a problem of a target trial seed."""
    stacks, seen = [], {}

    def engine(problems, tol):
        stacks.append([seed for *_, seed in problems])
        bad = [seed for *_, seed in problems if seed in targets]
        if bad:
            raise ValueError(f"injected at seed {bad[0]}")
        verdicts = ENGINE(problems, tol)
        for (_, name, k, seed), verdict in zip(problems, verdicts):
            seen[seed, name, k] = verdict.to_json_dict()
        return verdicts

    monkeypatch.setattr(hs, "_dual_verdicts", engine)
    return stacks, seen


def _canonical(cfg, reports):
    return canonical_report_json(suite_report_json_dict(cfg, reports))


def test_lockstep_rounds_equal_sequential_trials(monkeypatch):
    # Also with the problems of a dimension split over stacks of at most 2.
    cfg = SuiteConfig(suites=tuple(SUITES), trials=12, max_dim=6, seed=5)
    lockstep = _canonical(cfg, run_suite(cfg))
    monkeypatch.setattr(hs, "_STACK", 2)
    stacks, _ = _engine(monkeypatch)
    assert _canonical(cfg, run_suite(cfg)) == lockstep
    assert max(map(len, stacks)) == 2
    _sequential(monkeypatch)
    assert _canonical(cfg, run_suite(cfg)) == lockstep


def test_stack_exception_fails_only_its_trial(monkeypatch):
    # k-quasi-decomposition records an exception of root_decompose as a
    # failure of its trial. One problem in the middle of a stack raises: its
    # trial fails as it does when the trials run one after the other, and
    # every other problem gets the verdict of the clean run.
    cfg = SuiteConfig(suites=("k-quasi-decomposition",), trials=16, max_dim=4, seed=3)
    stacks, clean_seen = _engine(monkeypatch)
    clean = run_suite(cfg)
    stack = max(stacks, key=len)
    assert len(stack) >= 3
    target = stack[len(stack) // 2]
    _, seen = _engine(monkeypatch, {target})
    (lockstep,) = run_suite(cfg)
    lockstep_seen = dict(seen)
    [record] = lockstep.failures
    assert record.seed == target
    assert record.instance_ref.endswith(f" [ValueError: injected at seed {target}]")
    assert lockstep.passes == clean[0].passes - 1
    assert {key[0] for key in set(clean_seen) - set(lockstep_seen)} == {target}
    assert all(clean_seen[key] == verdict for key, verdict in lockstep_seen.items())
    _sequential(monkeypatch)
    assert _canonical(cfg, run_suite(cfg)) == _canonical(cfg, [lockstep])


def test_stack_exception_propagates_from_the_first_trial(monkeypatch):
    # ando lets an oracle exception through. With two raising problems,
    # run_suite raises the exception of the one whose trial comes first, as
    # it does when the trials run one after the other; the other problems
    # get the verdicts of the clean run.
    cfg = SuiteConfig(suites=("ando",), trials=16, max_dim=4, seed=3)
    stacks, clean_seen = _engine(monkeypatch)
    run_suite(cfg)
    stack = max(stacks, key=len)
    assert len(stack) >= 3
    targets = {stack[len(stack) // 2], next(s for s in stacks if s is not stack)[-1]}
    assert len(targets) == 2
    _, seen = _engine(monkeypatch, targets)
    with pytest.raises(ValueError, match="injected at seed") as lockstep:
        run_suite(cfg)
    lockstep_seen = dict(seen)
    assert {key[0] for key in set(clean_seen) - set(lockstep_seen)} == targets
    assert all(clean_seen[key] == verdict for key, verdict in lockstep_seen.items())
    _sequential(monkeypatch)
    with pytest.raises(ValueError, match="injected at seed") as sequential:
        run_suite(cfg)
    assert str(lockstep.value) == str(sequential.value)
