"""Executable property suites.

Each suite draws seeded hypothesis instances, checks the corresponding
implication, and returns a TheoremReport with reproducing seeds for every
failure. Instances that do not satisfy a hypothesis are recorded as skips
together with the failed predicate, never as failures.

Finite-dimensional collapse: quasinormal, hyponormal, and subnormal
matrices are normal (the trace of a PSD self-commutator is zero), which
makes several root implications logically vacuous on random instances.
The suites therefore verify the lemma machinery directly (kernel
inclusion, power moments, commutant transfer), and put the substantive
weight on the non-vacuous statements: the quasi-paranormal decomposition,
the scalar-root identity, and the normaloid counterexample.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import generators as gen
from .decomposition import BlockLabel, _check_root_indices, _root_split, nilpotent2_canonical
from .errors import NonCoprime, UnknownTheorem
from .linalg import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    _direct_sum,
    _scale,
    _svdvals,
    as_operator,
    frobenius_norm,
    kernel,
    matrix_power,
    operator_norm,
)
from .membership import (
    Status,
    _dual_verdicts,
    _power_verdict,
    is_hyponormal,
    is_normal,
    is_normaloid,
    is_quasinormal,
    quasinormal_embry,
)

__all__ = [
    "FailureRecord",
    "TheoremReport",
    "SuiteConfig",
    "SUITES",
    "THEOREM_IDS",
    "verify_stampfli",
    "verify_quasinormal_root",
    "verify_ando",
    "verify_k_paranormal_root",
    "verify_k_quasi_decomposition",
    "verify_coprime",
    "verify_embry",
    "verify_fuglede_putnam",
    "verify_normaloid_criterion",
    "search_q2",
    "run_suite",
    "suite_report_json_dict",
    "canonical_report_json",
]


@dataclass(frozen=True)
class FailureRecord:
    seed: int
    trial: int
    instance_ref: str
    residuals: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "trial": int(self.trial),
            "instance_ref": self.instance_ref,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


@dataclass
class TheoremReport:
    """Bookkeeping for one suite run: trials = passes + failures + skips."""

    theorem_id: str
    trials: int
    passes: int
    skips: int
    failures: list[FailureRecord]
    skip_reasons: dict[str, int]
    tolerances: dict[str, float]
    wall_time_ms: float
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "trials": self.trials,
            "passes": self.passes,
            "skips": self.skips,
            "failures": [f.to_json_dict() for f in self.failures],
            "skip_reasons": dict(sorted(self.skip_reasons.items())),
            "tolerances": self.tolerances,
            "wall_time_ms": float(self.wall_time_ms),
            "notes": self.notes,
        }


def _drive(theorem_id: str, trials: int, dim: int, seed: int, tol: TolerancePolicy,
           inject_failure: bool, body, *, notes: dict | None = None) -> TheoremReport:
    """Run ``body(trial, trial_seed, rng)`` once per trial and tally it.

    ``rng`` is the untouched ``make_rng(trial_seed, 0)`` stream. The body
    returns a skip reason (the name of the failed hypothesis) or
    ``(ok, instance_ref, residuals)``. A body that needs dual-oracle
    verdicts is a generator: it yields each problem ``(T, class name, k,
    seed)`` and is sent its verdict. The bodies run in lockstep rounds, the
    coroutine idiom of ``membership._brent``: a round resumes every waiting
    body in trial order and then decides all the problems they yielded, one
    ``membership._dual_verdicts`` stack per dimension (see ``_decide``). A
    stack that raises is decided again one problem at a time, and each
    problem's exception is thrown into its body. Every verdict is the one
    the predicate gives alone, so the report is that of running the trials
    one after the other; when bodies raise, the lowest trial's exception
    propagates, as it would there. With ``inject_failure`` the verdict of
    trial 0 is flipped when that trial is recorded. ``trials`` and the
    suite's dimension bound ``dim`` are checked here for every suite.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    t0 = time.perf_counter()
    report = TheoremReport(theorem_id, trials=0, passes=0, skips=0, failures=[],
                           skip_reasons={}, tolerances=tol.to_json_dict(),
                           wall_time_ms=0.0, notes={} if notes is None else notes)
    # stop: the lowest trial whose body raised; no later trial would have run.
    seeds, outcomes, runs, answers, stop = [], {}, {}, {}, trials
    for trial in range(trials):
        raw = f"{int(seed)}:{theorem_id}:{trial}".encode()
        seeds.append(int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big"))
        try:
            outcome = body(trial, seeds[trial], gen.make_rng(seeds[trial], 0))
        except Exception as exc:
            outcomes[trial], stop = exc, trial
            break
        if inspect.isgenerator(outcome):
            runs[trial], answers[trial] = outcome, None
        else:
            outcomes[trial] = outcome
    while answers:
        asks = {}
        for trial, answer in answers.items():
            if trial > stop:
                break
            resume = runs[trial].throw if isinstance(answer, Exception) else runs[trial].send
            try:
                asks[trial] = resume(answer)
            except StopIteration as done:
                outcomes[trial] = done.value
            except Exception as exc:
                outcomes[trial], stop = exc, trial
        answers = _decide(asks, tol)
    if stop < trials:
        raise outcomes[stop]
    for trial, ts in enumerate(seeds):
        outcome = outcomes[trial]
        report.trials += 1
        if isinstance(outcome, str):
            report.skips += 1
            report.skip_reasons[outcome] = report.skip_reasons.get(outcome, 0) + 1
            continue
        ok, ref, residuals = outcome
        if inject_failure and trial == 0:
            ok = not ok
        if ok:
            report.passes += 1
        else:
            report.failures.append(FailureRecord(ts, trial, ref, residuals))
    report.wall_time_ms = (time.perf_counter() - t0) * 1e3
    return report


# The most problems one engine call decides. It bounds the call's memory:
# the pencil terms of 32 problems at dim 64, three each, take 6.3 MB as one
# stack, and the engine holds a few such stacks (Hermitian parts, the sphere
# defect's matrices), while every pencil eigensolve takes at most
# membership._CHUNK matrices at once. No round of "verify all" at its
# default budget comes near it.
_STACK = 32


def _decide(asks: dict, tol: TolerancePolicy) -> dict:
    """The verdict of every asked problem, by trial: one
    ``_dual_verdicts`` stack per dimension and _STACK problems; a stack
    that raises is decided again one problem at a time, and a problem that
    raises alone gets its exception."""
    groups: dict = {}
    for trial, problem in asks.items():
        groups.setdefault(np.shape(problem[0]), []).append(trial)
    stacks = [same[s : s + _STACK] for same in groups.values() for s in range(0, len(same), _STACK)]
    answers = {}
    for trials in stacks:
        problems = [asks[trial] for trial in trials]
        try:
            answers.update(zip(trials, _dual_verdicts(problems, tol)))
        except Exception:
            for trial, problem in zip(trials, problems):
                try:
                    [answers[trial]] = _dual_verdicts([problem], tol)
                except Exception as exc:
                    answers[trial] = exc
    return {trial: answers[trial] for trial in asks}


def _normal_given(t: np.ndarray, ref: str, tol: TolerancePolicy, *hypotheses):
    """Trial outcome of "the hypotheses imply T normal", as a generator
    body for ``_drive``.

    ``hypotheses`` are ``(name, holds)`` pairs, ``holds`` a thunk that
    returns either whether the hypothesis holds or a dual problem ``(T,
    class name, k, seed)``, which holds when it is decided Member. They are
    evaluated in order and the first that fails names the skip.
    """
    for name, holds in hypotheses:
        holds = holds()
        if isinstance(holds, tuple):
            holds = (yield holds).is_member
        if not holds:
            return name
    verdict = is_normal(t, tol)
    return verdict.status is Status.MEMBER, ref, {"normality": -verdict.defect}


def _dim_for(rng: np.random.Generator, max_dim: int, lo: int = 2) -> int:
    hi = max(lo, int(max_dim))
    return int(rng.integers(lo, hi + 1))


def _random(kind: str, d: int, ts: int) -> tuple[np.ndarray, str]:
    """A ``gen.random_<kind>`` instance and its reference string."""
    return getattr(gen, f"random_{kind}")(d, ts), f"{kind}(dim={d}, seed={ts})"


def verify_stampfli(
    trials: int,
    dim: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """Hyponormal T with T^n normal must be normal.

    Finite-dimensional hyponormal matrices are already normal, so the
    hypothesis set is populated by constructed normal instances; random
    probes exercise the skip accounting.
    """

    def body(trial, ts, rng):
        d = _dim_for(rng, dim)
        n = int(rng.integers(2, 5))
        if rng.uniform() < 0.35:
            t, ref = _random("ginibre", d, ts)
        else:
            t, ref = _random("normal", d, ts)
        return _normal_given(
            t, ref, tol,
            ("hyponormal", lambda: is_hyponormal(t, tol).is_member),
            ("power-normal", lambda: _power_verdict(t, n, "normal", tol).is_member),
        )
    return _drive("stampfli", trials, dim, seed, tol, inject_failure, body)


def verify_quasinormal_root(
    trials: int,
    dim: int,
    n: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """Quasinormal T with normal T^n is normal, plus the kernel-inclusion
    lemma: quasinormal with ker(T*) inside ker(T) is normal."""
    if n < 1:
        raise ValueError("n must be positive")

    def body(trial, ts, rng):
        d = _dim_for(rng, dim)
        pick = rng.uniform()
        if pick < 0.4:
            t, ref = _random("normal", d, ts)
        elif pick < 0.7:
            # Normal with a nontrivial kernel so the lemma bites.
            eig = gen.make_rng(ts, 1).standard_normal(d) + 1j * gen.make_rng(
                ts, 2
            ).standard_normal(d)
            n_zero = int(rng.integers(1, d))
            eig[:n_zero] = 0.0
            t = gen.random_normal(d, ts, eigenvalues=eig)
            ref = f"normal-with-kernel(dim={d}, zeros={n_zero}, seed={ts})"
        elif pick < 0.9:
            t, ref = _random("ginibre", d, ts)
        else:
            t = gen.jordan_nilpotent(d, 2, ts)
            ref = f"jordan(dim={d}, index=2, seed={ts})"

        scale = _scale(operator_norm(t), 1)
        ker_t = kernel(t, tol, rank_floor=scale)
        ker_adj = kernel(t.conj().T, tol, rank_floor=scale)
        inclusion = ker_t.contains(ker_adj, tol.tol_recon * 10)
        quasi = is_quasinormal(t, tol).status is Status.MEMBER
        power_normal = quasi and _power_verdict(t, n, "normal", tol).is_member
        # Quasinormal T is normal if T^n is normal (the root theorem) or if
        # ker(T*) lies in ker(T) (the lemma); the skip names what failed.
        return _normal_given(
            t, ref, tol,
            ("kernel-inclusion,quasinormal", lambda: quasi or inclusion),
            ("quasinormal", lambda: quasi),
            ("kernel-inclusion,power-normal", lambda: inclusion or power_normal),
        )
    return _drive("quasinormal-root", trials, dim, seed, tol, inject_failure, body)


def verify_ando(
    trials: int,
    dim: int,
    n: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """Paranormal T with normal T^n is normal; the normal-plus-nilpotent
    counterexample confirms the implication stops at paranormality."""
    if n < 1:
        raise ValueError("n must be positive")
    even_n = n if n % 2 == 0 else n + 1
    notes = {"counterexamples_confirmed": 0}

    def body(trial, ts, rng):
        d = _dim_for(rng, dim)
        pick = trial % 4
        if pick == 3:
            half = max(2, d // 2)
            t = gen.normaloid_counterexample(half, 2, ts)
            ref = f"counterexample(dim_m={half}, dim_n=2, seed={ts})"
            para = yield (t, "KQuasiParanormal", 0, ts)
            ok = (
                para.status is Status.NON_MEMBER
                and _power_verdict(t, even_n, "normal", tol).is_member
                and is_normal(t, tol).status is Status.NON_MEMBER
                and is_normaloid(t, tol).status is Status.MEMBER
            )
            if ok:
                notes["counterexamples_confirmed"] += 1
            return ok, ref, {"paranormal_defect": para.defect}
        if pick == 2:
            t, ref = _random("ginibre", d, ts)
        else:
            t, ref = _random("normal", d, ts)
        return (yield from _normal_given(
            t, ref, tol,
            ("paranormal", lambda: (t, "KQuasiParanormal", 0, ts)),
            ("power-normal", lambda: _power_verdict(t, n, "normal", tol).is_member),
        ))
    return _drive("ando", trials, dim, seed, tol, inject_failure, body, notes=notes)


def verify_k_paranormal_root(
    trials: int,
    dim: int,
    n: int,
    k: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """k-paranormal or absolute-k-paranormal T with normal T^n is normal.

    The scalar-root family T^n = lam*I additionally checks the derived
    adjoint identity T* = |lam|^(2/n) lam^(-1) T^(n-1); nilpotent probes
    assert non-membership (a nonzero k-paranormal nilpotent would
    contradict the implication).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if n < 1:
        raise ValueError("n must be positive")

    def body(trial, ts, rng):
        d = _dim_for(rng, dim)
        pick = trial % 5
        if pick in (0, 1):
            radius = float(rng.uniform(0.5, 2.0))
            angle = float(rng.uniform(0.0, 2.0 * np.pi))
            lam = radius * complex(math.cos(angle), math.sin(angle))
            t = gen.root_of_scalar_instance(d, n, lam, ts)
            ref = f"scalar-root(dim={d}, n={n}, lam={lam:.4f}, seed={ts})"
            member = yield (t, "KParanormal" if pick == 0 else "AbsoluteKParanormal", k, ts)
            if member.status is not Status.MEMBER:
                return False, ref, {"membership_defect": member.defect}
            normal = is_normal(t, tol)
            ident = frobenius_norm(
                t.conj().T - abs(lam) ** (2.0 / n) / lam * matrix_power(t, n - 1)
            )
            ok = normal.status is Status.MEMBER and (
                ident <= tol.tol_eq * _scale(operator_norm(t), max(1, n - 1)) * 100
            )
            return ok, ref, {"normality": -normal.defect, "adjoint_identity": ident}
        if pick == 2:
            t = np.zeros((d, d), dtype=np.complex128)
            ref = f"zero(dim={d})"
            ok = (
                (yield (t, "KParanormal", k, ts)).status is Status.MEMBER
                and is_normal(t, tol).status is Status.MEMBER
            )
            return ok, ref, {}
        if pick == 3:
            index = min(max(2, n), d)
            t = gen.jordan_nilpotent(d, index, ts)
            ref = f"jordan(dim={d}, index={index}, seed={ts})"
            if index > n:
                return "power-normal"
            member = yield (t, "KParanormal", k, ts)
            return member.status is Status.NON_MEMBER, ref, {"membership_defect": member.defect}
        t, ref = _random("normal", d, ts)
        return (yield from _normal_given(
            t, ref, tol,
            ("k-paranormal", lambda: (t, "KParanormal", k, ts)),
            ("power-normal", lambda: _power_verdict(t, n, "normal", tol).is_member),
        ))
    return _drive("k-paranormal-root", trials, dim, seed, tol, inject_failure, body)


def verify_k_quasi_decomposition(
    trials: int,
    dims: int,
    n: int,
    k: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """k-quasi-paranormal T with normal T^n splits into normal plus
    nilpotent of index at most min(n, k+1); for n = 2 the nonzero nilpotent
    summand is put into its [[0, C], [0, 0]] canonical form."""
    _check_root_indices(n, k)
    gate = 1e-8
    total = int(dims)
    # Nil index must divide out in T^n, so build at min(k, n-1).
    k_build = min(k, max(1, n - 1))

    def body(trial, ts, rng):
        d_norm = int(rng.integers(0, total))
        d_nil = int(rng.integers(0 if d_norm else 1, total - d_norm + 1))
        t = gen.k_quasi_member(d_norm, d_nil, k_build, ts)
        if rng.uniform() < 0.5:
            u = gen.random_unitary(t.shape[0], ts ^ 0x5A5A5A5A)
            t = u @ t @ u.conj().T
        ref = f"k-quasi(dim_normal={d_norm}, dim_nil={d_nil}, k={k}, seed={ts})"
        # root_decompose, with its verdict decided by _drive; n and k are
        # checked above.
        try:
            m = as_operator(t)
            decomp = _root_split(m, n, k, (yield (m, "KQuasiParanormal", k, ts)), tol)
        except Exception as exc:
            return False, f"{ref} [{type(exc).__name__}: {exc}]", {}
        res = {
            "reassembly": decomp.residuals["reassembly"],
            "normality": decomp.residuals["normality"],
            "nilpotency": decomp.residuals["nilpotency"],
        }
        ok = all(v < gate for v in res.values())
        if n == 2 and ok:
            nil = decomp.block(BlockLabel.NILPOTENT)
            if nil is not None and frobenius_norm(nil) > tol.tol_eq:
                canon = nilpotent2_canonical(nil, tol)
                res["canonical_basis"] = canon.residuals["basis"]
                res["canonical_c_min"] = canon.residuals["c_min_singular"]
                ok = (
                    res["canonical_basis"] < gate
                    and res["canonical_c_min"] > 0.0
                )
        return ok, ref, res
    return _drive("k-quasi-decomposition", trials, dims, seed, tol, inject_failure, body)


def verify_coprime(
    trials: int,
    dim: int,
    m: int,
    n: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """Invertible T with T^m paranormal-type and T^n normal, gcd(m, n) = 1:
    T is normal."""
    if m < 2 or n < 2:
        raise NonCoprime("m and n must both be at least 2")
    if math.gcd(m, n) != 1:
        raise NonCoprime(f"gcd({m}, {n}) != 1")

    def body(trial, ts, rng):
        d = _dim_for(rng, dim)
        pick = trial % 3
        if pick == 0:
            t = gen.root_of_scalar_instance(d, n, complex(rng.uniform(0.5, 2.0)), ts)
            ref = f"scalar-root(dim={d}, n={n}, seed={ts})"
        elif pick == 1:
            eig = gen.make_rng(ts, 9).uniform(0.5, 1.5, d) * np.exp(
                2j * np.pi * gen.make_rng(ts, 10).uniform(0.0, 1.0, d)
            )
            t = gen.random_normal(d, ts, eigenvalues=eig)
            ref = f"normal-invertible(dim={d}, seed={ts})"
        else:
            t, ref = _random("ginibre", d, ts)
        svals = _svdvals(t)
        return _normal_given(
            t, ref, tol,
            ("invertible", lambda: svals[-1] > tol.tol_rank * _scale(float(svals[0]), 1)),
            ("power-k-paranormal", lambda: (matrix_power(t, m), "KParanormal", 1, ts)),
            ("power-normal", lambda: _power_verdict(t, n, "normal", tol).is_member),
        )
    return _drive("coprime", trials, dim, seed, tol, inject_failure, body)


def verify_embry(
    trials: int,
    dim: int,
    kmax: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """Quasinormality agrees with the power-moment characterization
    (T*)^k T^k = (T*T)^k for k up to kmax."""
    if kmax < 2:
        raise ValueError("kmax must be at least 2")

    def body(trial, ts, rng):
        d = _dim_for(rng, dim)
        pick = trial % 4
        if pick == 0:
            t, ref = _random("normal", d, ts)
        elif pick == 1:
            t, ref = _random("unitary", d, ts)
        elif pick == 2:
            t = gen.jordan_nilpotent(d, int(rng.integers(2, d + 1)), ts)
            ref = f"jordan(dim={d}, seed={ts})"
        else:
            t, ref = _random("ginibre", d, ts)
        lhs = is_quasinormal(t, tol)
        rhs = quasinormal_embry(t, kmax, tol)
        return (
            lhs.status is rhs.status,
            ref,
            {"quasinormal_defect": lhs.defect, "embry_defect": rhs.defect},
        )
    return _drive("embry", trials, dim, seed, tol, inject_failure, body)


def verify_fuglede_putnam(
    trials: int,
    dim: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """T commuting with normal N commutes with N*.

    Commuting pairs are built in the eigenbasis of N with blocks matching
    its eigenvalue multiplicities (repetitions are forced in most trials);
    non-commuting random pairs exercise the skip path.
    """

    def body(trial, ts, rng):
        d = _dim_for(rng, dim)
        if trial % 5 == 4:
            n_mat = gen.random_normal(d, ts)
            t = gen.random_ginibre(d, ts ^ 0xF0F0)
            ref = f"noncommuting(dim={d}, seed={ts})"
        else:
            sizes = []
            rest = d
            while rest > 0:
                s = int(rng.integers(1, rest + 1))
                if not sizes:
                    s = max(s, 2)  # force a repeated eigenvalue
                s = min(s, rest)
                sizes.append(s)
                rest -= s
            values = gen.make_rng(ts, 1).standard_normal(len(sizes)) + 1j * gen.make_rng(
                ts, 2
            ).standard_normal(len(sizes))
            diag = np.concatenate([np.full(s, v) for s, v in zip(sizes, values)])
            u = gen.random_unitary(d, ts ^ 0x0F0F)
            n_mat = (u * diag) @ u.conj().T
            blocks = []
            for j, s in enumerate(sizes):
                g = gen.make_rng(ts, 3, j)
                blocks.append(g.standard_normal((s, s)) + 1j * g.standard_normal((s, s)))
            t = u @ _direct_sum(*blocks) @ u.conj().T
            ref = f"commutant(dim={d}, clusters={len(sizes)}, seed={ts})"
        scale = _scale(operator_norm(t) * operator_norm(n_mat), 1)
        forward = frobenius_norm(t @ n_mat - n_mat @ t)
        if forward > tol.tol_eq * scale:
            return "commutes-with-N"
        adj = n_mat.conj().T
        resid = frobenius_norm(t @ adj - adj @ t)
        return resid <= tol.tol_eq * scale, ref, {"adjoint_commutation": resid}
    return _drive("fuglede-putnam", trials, dim, seed, tol, inject_failure, body)


def verify_normaloid_criterion(
    trials: int,
    dim: int,
    k: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """k-quasi-paranormal T with ||T^(n+1)|| = ||T^n|| ||T|| at some
    n in [k, k+4] (nondegenerately, ||T^n|| > 0) must be normaloid."""
    if k < 1:
        raise ValueError("k must be a positive integer")

    def body(trial, ts, rng):
        d = _dim_for(rng, dim, lo=3)
        pick = trial % 3
        if pick == 0:
            # d >= 3, so both summands are nonempty and the nil part has
            # dimension and index at least 2.
            d_nil = int(rng.integers(2, d))
            d_norm = d - d_nil
            eig = gen.make_rng(ts, 1).uniform(0.5, 1.0, d_norm) * np.exp(
                2j * np.pi * gen.make_rng(ts, 2).uniform(0.0, 1.0, d_norm)
            )
            m_blk = gen.random_normal(d_norm, ts, eigenvalues=eig)
            index = int(rng.integers(2, min(k + 1, d_nil) + 1))
            nil = gen.jordan_nilpotent(d_nil, index, ts ^ 0xABCD)
            nil *= operator_norm(m_blk) / 2.0 / operator_norm(nil)
            t = _direct_sum(m_blk, nil)
            ref = f"normal+nil(dim={d}, seed={ts})"
        elif pick == 1:
            t = gen.jordan_nilpotent(d, min(k + 1, d), ts)
            ref = f"jordan(dim={d}, seed={ts})"
        else:
            t, ref = _random("ginibre", d, ts)
        member = yield (t, "KQuasiParanormal", k, ts)
        if member.status is not Status.MEMBER:
            return "k-quasi-paranormal"
        norm_t = operator_norm(t)
        identity_at = None
        # Probe n's ||T^(n+1)|| is probe n + 1's ||T^n||.
        lhs = operator_norm(matrix_power(t, k))
        for n_probe in range(k, k + 5):
            base, lhs = lhs, operator_norm(matrix_power(t, n_probe + 1))
            if base <= tol.tol_decision * _scale(norm_t, n_probe):
                continue
            rhs = base * norm_t
            if abs(lhs - rhs) <= tol.tol_decision * _scale(rhs, 1):
                identity_at = n_probe
                break
        if identity_at is None:
            return "norm-identity"
        verdict = is_normaloid(t, tol)
        return (
            verdict.status is Status.MEMBER,
            ref,
            {"normaloid_defect": verdict.defect, "identity_n": float(identity_at)},
        )
    return _drive("normaloid-criterion", trials, dim, seed, tol, inject_failure, body)


def search_q2(
    trials: int,
    dim: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    inject_failure: bool = False,
) -> TheoremReport:
    """Informational search: paranormal T with quasinormal T^2 that is not
    itself quasinormal. No such matrix exists in finite dimension (the
    finite-dimensional collapse forces T^2 normal, hence T normal), so the
    output reports candidates without asserting anything."""
    notes, candidates = {"candidates": 0}, {}

    def body(trial, ts, rng):
        d = _dim_for(rng, dim)
        pick = trial % 3
        if pick == 0:
            t, ref = _random("ginibre", d, ts)
        elif pick == 1:
            t, ref = _random("normal", d, ts)
        else:
            t = gen.rr_instance(max(1, d // 2), max(1, d // 4), ts)
            ref = f"rr(seed={ts})"
        para = yield (t, "KQuasiParanormal", 0, ts)
        if para.status is not Status.MEMBER:
            return "paranormal"
        if not _power_verdict(t, 2, "quasinormal", tol).is_member:
            return "power-quasinormal"
        if is_quasinormal(t, tol).status is Status.NON_MEMBER:
            candidates[trial] = ref
        return True, ref, {}
    report = _drive("search-q2", trials, dim, seed, tol, inject_failure, body, notes=notes)
    # Bodies finish in lockstep rounds; the candidates are listed in trial order.
    if candidates:
        notes["candidates"] = len(candidates)
        notes["candidate_refs"] = [candidates[trial] for trial in sorted(candidates)]
    return report


# The registry of suites, in report order: id -> (suite, cap on max_dim,
# the parameters passed after dim). search-q2 asserts nothing, so it runs
# by id but is not a theorem of THEOREM_IDS or "verify all".
SUITES = {
    "stampfli": (verify_stampfli, math.inf, {}),
    "quasinormal-root": (verify_quasinormal_root, math.inf, {"n": 3}),
    "ando": (verify_ando, math.inf, {"n": 2}),
    "k-paranormal-root": (verify_k_paranormal_root, 6, {"n": 3, "k": 2}),
    "k-quasi-decomposition": (verify_k_quasi_decomposition, math.inf, {"n": 2, "k": 1}),
    "coprime": (verify_coprime, 6, {"m": 2, "n": 3}),
    "embry": (verify_embry, 6, {"kmax": 3}),
    "fuglede-putnam": (verify_fuglede_putnam, 6, {}),
    "normaloid-criterion": (verify_normaloid_criterion, 6, {"k": 1}),
    "search-q2": (search_q2, 6, {}),
}

THEOREM_IDS = tuple(sid for sid in SUITES if sid != "search-q2")


@dataclass(frozen=True)
class SuiteConfig:
    """Driver configuration for run_suite."""

    suites: tuple[str, ...] = THEOREM_IDS
    trials: int = 50
    max_dim: int = 8
    seed: int = 0
    inject_failure: bool = False
    tolerances: TolerancePolicy = DEFAULT_TOLERANCES

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        if self.max_dim < 2:
            raise ValueError(f"max_dim must be at least 2, got {self.max_dim}")

    def to_json_dict(self) -> dict:
        return {
            "suites": list(self.suites),
            "trials": self.trials,
            "max_dim": self.max_dim,
            "seed": self.seed,
            "inject_failure": self.inject_failure,
        }


def run_suite(config: SuiteConfig) -> list[TheoremReport]:
    """Run the configured suites in order; empty suite lists give empty
    reports. Results are deterministic for a fixed seed."""
    for sid in config.suites:
        if sid not in SUITES:
            raise UnknownTheorem(f"unknown theorem id {sid!r}")
    reports = []
    for sid in config.suites:
        suite, dim_cap, params = SUITES[sid]
        reports.append(suite(config.trials, min(config.max_dim, dim_cap), seed=config.seed,
                             tol=config.tolerances, inject_failure=config.inject_failure,
                             **params))
    return reports


def suite_report_json_dict(config: SuiteConfig, reports: list[TheoremReport]) -> dict:
    return {
        "config": config.to_json_dict(),
        "tolerances": config.tolerances.to_json_dict(),
        "reports": [r.to_json_dict() for r in reports],
        "failures_total": sum(len(r.failures) for r in reports),
    }


def canonical_report_json(doc: dict) -> str:
    """Deterministic serialization: wall times are volatile and are zeroed
    before dumping with sorted keys."""
    clean = json.loads(json.dumps(doc))
    for rep in clean.get("reports", []):
        rep["wall_time_ms"] = 0.0
    if "wall_time_ms" in clean:
        clean["wall_time_ms"] = 0.0
    return json.dumps(clean, sort_keys=True)
