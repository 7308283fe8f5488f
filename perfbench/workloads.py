"""The four benchmark workloads.

Each workload makes a deterministic pool of inputs from the workload seed,
runs a fixed number of operations through the public opclass API, and
checks every result. Pool item ``i`` depends only on (workload, seed, i),
so a larger run extends a smaller one and the committed golden tables
apply to any prefix of the pool at the default seed. The dimension,
family and block sizes the benchmark picks for item ``i`` depend on ``i``
alone; the seed drives the generators, so the cost of a run varies little
from seed to seed.

The amount of work is a fixed function of ``--seconds`` (an operation
count scaled by a committed per-operation cost), never calibrated against
the clock at run time, so two commits do the same work.

A run makes one or more passes over its pool. Every operation is timed
by ``hostclock.HostClock``, against a reference kernel that slows with the
shared host; an operation's normalized latency is the median over the
passes of what it returns, and its wall latency the median wall time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np
import scipy.linalg

import opclass.cli as cli
import opclass.decomposition as dec
import opclass.generators as gen
import opclass.harness as hs
import opclass.matio as matio
import opclass.membership as mb
from hostclock import HostClock

DEFAULT_SEED = 2026
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def item_seed(workload: str, seed: int, i: int) -> int:
    raw = f"{workload}:{seed}:{i}".encode()
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One pool of operations; subclasses define make_item, run_op, check."""

    name = ""
    op_cost_s = 1.0  # committed cost of one operation on the reference host
    passes = 3  # passes over the pool in an untraced run
    min_ops = 1
    # Names under which the record reports throughput, latency and wall time.
    rate_name, latency_name, wall_name = "ops_per_s", "op_ms", "wall_s"

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.workdir = workdir
        self.n_ops = max(self.min_ops, round(self.seconds / (self.op_cost_s * self.passes)))
        self.pool: list = []
        golden_path = GOLDEN_DIR / f"{self.name}.json"
        self.golden = None
        if self.seed == DEFAULT_SEED and golden_path.is_file():
            self.golden = json.loads(golden_path.read_text())

    @property
    def check_mode(self) -> str:
        return "golden" if self.golden is not None else "self-consistency"

    def golden_item(self, i: int):
        if self.golden is None:
            return None
        items = self.golden["items"]
        return items[i] if i < len(items) else None

    def make_pool(self) -> None:
        self.pool = [self.make_item(i) for i in range(self.n_ops)]

    def warm_up(self) -> None:
        self.run_op(0, self.pool[0])

    def run(self, passes: int | None = None, normalize: bool = True) -> dict:
        """Run every operation ``passes`` times (default ``self.passes``),
        one pass over the pool after another, timed by a HostClock when
        ``normalize``. Every result is checked, and a later pass must
        reproduce the first. Returns each operation's median wall latency
        and median normalized latency, the first pass's results, and the
        failures."""
        passes = self.passes if passes is None else passes
        walls = [[] for _ in self.pool]
        norms = [[] for _ in self.pool]
        results, failures = [None] * len(self.pool), []
        with HostClock() if normalize else contextlib.nullcontext() as clock:
            for p in range(passes):
                for i, item in enumerate(self.pool):
                    op = functools.partial(self.run_op, i, item)
                    if normalize:
                        result, error, wall, norm = clock.time(op)
                        norms[i].append(norm)
                    else:
                        t0 = time.perf_counter()
                        try:
                            result, error = op(), None
                        except Exception as exc:  # a raising operation is a failed one
                            result, error = None, exc
                        wall = time.perf_counter() - t0
                    walls[i].append(wall)
                    if error is not None:
                        failures.append((i, f"raised {type(error).__name__}: {error}"))
                    elif p == 0:
                        results[i] = result
                        failures.extend((i, msg) for msg in self.check(i, item, result))
                    elif not self.same(result, results[i]):
                        failures.append((i, f"pass {p} result differs from pass 0"))
        if None not in results:
            failures.extend(self.check_all(results))
        return {"latencies": [statistics.median(w) for w in walls],
                "norm_latencies": [statistics.median(n) for n in norms] if normalize else None,
                "results": results, "failures": failures, "attempted": len(self.pool)}

    def same(self, a, b) -> bool:
        return a == b

    def check_all(self, results: list) -> list:
        """Checks over the whole pool's results, as (index, message)."""
        return []

    def outcomes(self, run: dict) -> list:
        """Comparable per-operation outcomes of a run."""
        return run["results"]

    def summary(self, results: list) -> dict:
        return {}


# ---------------------------------------------------------------------------
# classify-random and classify-members
# ---------------------------------------------------------------------------

DIMS_SMALL = (3, 4, 5, 6, 7, 8)


class _Classify(Workload):
    # One pass over a larger pool: the cost of a classify_all call varies
    # with the matrix by about 30% at a fixed dim, and more matrices average
    # that out better than repeated calls on fewer.
    passes = 1
    min_ops = 6
    rate_name, latency_name = "matrices_per_s", "classify_ms"

    def run_op(self, i, item):
        t, seed = item["matrix"], item["seed"]
        verdicts = mb.classify_all(t, seed=seed)
        return {
            "statuses": [v.status.value for v in verdicts.values()],
            "classes": [str(c) for c in verdicts],
            "violations": mb.chain_violations(verdicts),
        }

    def check(self, i, item, result):
        problems = [f"chain violation: {v}" for v in result["violations"]]
        want = self.golden_item(i)
        if want is not None and want != result["statuses"]:
            problems.append(f"statuses {result['statuses']} differ from golden {want}")
        return problems

    def summary(self, results):
        statuses = [s for r in results if r for s in r["statuses"]]
        dual = [s for r in results if r
                for c, s in zip(r["classes"], r["statuses"]) if _is_dual(c)]
        return {
            "verdicts": len(statuses),
            "dual_verdicts": len(dual),
            "inconclusive_share": dual.count("Inconclusive") / max(1, len(dual)),
        }


def _is_dual(cls: str) -> bool:
    return cls.startswith(("Paranormal", "KParanormal", "AbsoluteKParanormal",
                           "KQuasiParanormal"))


class ClassifyRandom(_Classify):
    """classify_all at its defaults on Ginibre matrices, dims 3-8."""

    name = "classify-random"
    op_cost_s = 0.37

    def make_item(self, i):
        s = item_seed(self.name, self.seed, i)
        dim = DIMS_SMALL[i % len(DIMS_SMALL)]
        return {"matrix": gen.random_ginibre(dim, s), "seed": s}


MEMBER_FAMILIES = ("normal", "unitary", "jordan", "counterexample", "k-quasi",
                   "rr", "scalar-root")


class ClassifyMembers(_Classify):
    """classify_all on the seven certified families, dims 3-8."""

    name = "classify-members"
    op_cost_s = 0.476
    min_ops = len(MEMBER_FAMILIES)

    def make_item(self, i):
        s = item_seed(self.name, self.seed, i)
        # Seven families against six dims: every prefix of 42 items
        # spreads over both, and the 42 items hold each pair once.
        family = MEMBER_FAMILIES[i % len(MEMBER_FAMILIES)]
        dim = DIMS_SMALL[i % len(DIMS_SMALL)]
        rng = gen.make_rng(i, 99)  # structure by index, content by seed
        if family == "normal":
            t = gen.random_normal(dim, s)
        elif family == "unitary":
            t = gen.random_unitary(dim, s)
        elif family == "jordan":
            t = gen.jordan_nilpotent(dim, int(rng.integers(2, dim + 1)), s)
        elif family == "counterexample":
            dim_n = int(rng.integers(2, dim))
            t = gen.normaloid_counterexample(dim - dim_n, dim_n, s)
        elif family == "k-quasi":
            dim_nil = int(rng.integers(1, dim))
            t = gen.k_quasi_member(dim - dim_nil, dim_nil, int(rng.integers(1, 4)), s)
        elif family == "rr":
            dim_bc = int(rng.integers(1, dim // 2 + 1))
            t = gen.rr_instance(dim - 2 * dim_bc, dim_bc, s)
        else:
            t = gen.root_of_scalar_instance(dim, int(rng.integers(2, 5)), 1.5 + 0.5j, s)
        return {"matrix": t, "seed": s}


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


class VerifyAll(Workload):
    """run_suite at the default ``opclass verify all`` configuration.

    An operation is one theorem suite, run through ``run_suite`` with a
    one-suite config; suite trial seeds depend only on the config seed, the
    theorem id and the trial, so the nine reports equal those of one
    ``run_suite`` over all nine, and are checked as one report. The suite
    has 50 trials unless the run is shorter than one pass (the self-test),
    when the trial count is scaled down and the golden hash no longer
    applies.
    """

    name = "verify-all"
    op_cost_s = 11.0  # one pass: every suite once, at the default trials
    default_trials = 50
    rate_name, latency_name, wall_name = "suites_per_s", "suite_ms", "verify_all_s"

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        self.passes = max(1, round(self.seconds / self.op_cost_s))
        self.trials = min(self.default_trials,
                          max(1, round(self.default_trials * self.seconds / self.op_cost_s)))
        if self.golden is not None and self.golden["trials"] != self.trials:
            self.golden = None

    def config(self, trials: int, suites=hs.THEOREM_IDS):
        return hs.SuiteConfig(suites=tuple(suites), trials=trials, max_dim=8, seed=self.seed)

    def make_pool(self):
        self.pool = [self.config(self.trials, (tid,)) for tid in hs.THEOREM_IDS]

    def warm_up(self):
        hs.run_suite(self.config(1))

    def run_op(self, j, cfg):
        (report,) = hs.run_suite(cfg)
        return report

    def check(self, j, cfg, rep):
        problems = []
        if rep.failures:
            problems.append(f"{rep.theorem_id}: {len(rep.failures)} suite failures")
        if rep.trials != cfg.trials:
            problems.append(f"{rep.theorem_id}: {rep.trials} trials, want {cfg.trials}")
        return problems

    def same(self, a, b):
        return suite_sha(a) == suite_sha(b)

    def check_all(self, reports):
        if self.golden is None:
            return []
        doc = hs.suite_report_json_dict(self.config(self.trials), reports)
        if sha256_text(hs.canonical_report_json(doc)) == self.golden["report_sha256"]:
            return []
        bad = [j for j, rep in enumerate(reports)
               if suite_sha(rep) != self.golden["suites"].get(rep.theorem_id)]
        return [(j, f"{reports[j].theorem_id}: canonical report differs from golden")
                for j in bad or [0]]

    def outcomes(self, run):
        return [r and suite_sha(r) for r in run["results"]]

    def summary(self, reports):
        return {
            "suites": {
                rep.theorem_id: {"trials": rep.trials, "passes": rep.passes,
                                 "skips": rep.skips, "failures": len(rep.failures),
                                 "wall_s": rep.wall_time_ms / 1e3}
                for rep in reports if rep is not None
            }
        }


def suite_sha(report) -> str:
    doc = report.to_json_dict()
    doc["wall_time_ms"] = 0.0
    return sha256_text(json.dumps(doc, sort_keys=True))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

STRUCT_KINDS = ("normal-pure", "normal-pure-cli", "nilpotent2", "nilpotent2-cli", "rr")
CLI_FORMATS = {"normal-pure-cli": ".mtx", "nilpotent2-cli": ".json"}
DIMS_LARGE = (16, 24, 32, 48, 64)


def _pure_part(dim: int, seed: int) -> np.ndarray:
    """Direct sum of 2x2 blocks [[a, b], [0, c]] with |a|, |c| <= 1 and
    1/2 <= |b| <= 1: pure, and its self-commutator has no eigenvalue of
    modulus below 1/4. A Ginibre pure part can have a self-commutator
    eigenvalue near zero, which normal_pure_split does not resolve."""
    rng = gen.make_rng(seed, 97)
    n = dim // 2
    diag = np.sqrt(rng.uniform(0, 1, (2, n))) * np.exp(2j * np.pi * rng.uniform(0, 1, (2, n)))
    sup = rng.uniform(0.5, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return scipy.linalg.block_diag(*(np.array([[a, b], [0, c]])
                                     for a, b, c in zip(diag[0], sup, diag[1])))


def _algebraic_statuses(t) -> list[str]:
    verdicts = (
        mb.is_normal(t), mb.is_quasinormal(t), mb.quasinormal_embry(t, 3),
        mb.is_hyponormal(t), mb.is_p_hyponormal(t, 0.5), mb.is_class_a(t),
        mb.is_normaloid(t),
    )
    return [v.status.value for v in verdicts]


class Structure(Workload):
    """Sphere-free decompositions and algebraic predicates at dims 16-64;
    two of the five kinds go through a matrix file and the CLI."""

    name = "structure"
    op_cost_s = 0.032
    passes = 5
    min_ops = len(STRUCT_KINDS)
    rate_name, latency_name = "structure_ops_per_s", "structure_ms"

    def make_item(self, i):
        s = item_seed(self.name, self.seed, i)
        kind = STRUCT_KINDS[i % len(STRUCT_KINDS)]
        dim = DIMS_LARGE[(i // len(STRUCT_KINDS)) % len(DIMS_LARGE)]
        rng = gen.make_rng(i, 99)  # structure by index, content by seed
        item = {"kind": kind, "dim": dim}
        if kind in CLI_FORMATS:
            item["path"] = self.workdir / f"m{i}{CLI_FORMATS[kind]}"
        if kind.startswith("normal-pure"):
            d2 = 2 * int(rng.integers(dim // 8, 3 * dim // 8 + 1))
            u = gen.random_unitary(dim, s ^ 0x5A5A)
            blocks = scipy.linalg.block_diag(gen.random_normal(dim - d2, s), _pure_part(d2, s))
            item["matrix"] = u @ blocks @ u.conj().T
            item["expect_dims"] = [dim - d2, d2]
        elif kind.startswith("nilpotent2"):
            t = gen.jordan_nilpotent(dim, 2, s)
            rank = int(np.sum(np.linalg.svd(t, compute_uv=False) > 0.5))
            item["matrix"] = t
            item["expect_dims"] = [2 * rank] + ([dim - 2 * rank] if dim > 2 * rank else [])
        else:
            dim_bc = int(rng.integers(1, dim // 2 + 1))
            item["matrix"] = gen.rr_instance(dim - 2 * dim_bc, dim_bc, s)
        return item

    def run_op(self, i, item):
        kind, t = item["kind"], item["matrix"]
        result = {"dims": None, "exit_code": None, "rr_check": None}
        if kind == "rr":
            result["rr_check"] = dec.rr_check(t).status.value
        elif kind in CLI_FORMATS:
            path = str(item["path"])
            matio.save_matrix(path, t)
            mode = "normal-pure" if kind.startswith("normal-pure") else "nilpotent2"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                result["exit_code"] = cli.main(["decompose", mode, path])
            item["path"].unlink()
            doc = json.loads(buf.getvalue())
            result["dims"] = doc.get("decomposition", {}).get("block_dims")
        elif kind == "normal-pure":
            result["dims"] = list(dec.normal_pure_split(t).block_dims)
        else:
            result["dims"] = list(dec.nilpotent2_canonical(t).block_dims)
        result["algebraic"] = _algebraic_statuses(t)
        return result

    def check(self, i, item, result):
        problems = []
        kind = item["kind"]
        if kind == "rr":
            if result["rr_check"] != "Member":
                problems.append(f"rr_check is {result['rr_check']}")
        elif result["dims"] != item["expect_dims"]:
            problems.append(f"{kind} dims {result['dims']} != {item['expect_dims']}")
        if kind in CLI_FORMATS and result["exit_code"] != cli.EXIT_OK:
            problems.append(f"cli exit code {result['exit_code']}")
        want = self.golden_item(i)
        if want is not None and want != result:
            problems.append(f"result {result} differs from golden {want}")
        return problems


WORKLOADS = {w.name: w for w in (ClassifyRandom, ClassifyMembers, VerifyAll, Structure)}
