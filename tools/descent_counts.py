"""Sphere-descent work per classify_all matrix and per verify-all suite.

Usage (from the root of a checkout):

    python3 tools/descent_counts.py

Every step of the sphere descent makes one fused call of
``membership._NormProductDefect.value_and_gradient`` for all the problems
it still holds. This script wraps that method from outside and counts its
calls and the columns they evaluate (problems x columns per call):

* per ``classify_all`` matrix of the benchmark's classify-members and
  classify-random pools;
* per theorem suite of the benchmark's verify-all pool: ``run_suite`` at
  the default ``opclass verify all`` budget (50 trials, max-dim 8).

The pools are those of ``perfbench/workloads.py`` at its default seed 2026,
sized for the ``run_seconds`` of ``BENCHMARK.json``.

The public ``sphere_check`` on its central-difference path calls the
defect, not this method, so it is not counted; no suite or pool takes that
path. BLAS is pinned to one thread. Run it in two checkouts to compare
their descents; the counts are deterministic.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from opclass import harness as hs  # noqa: E402
from opclass import membership as mb  # noqa: E402
import workloads as wl  # noqa: E402


class Counter:
    """Counts the calls of the fused step and the columns they evaluate."""

    def __init__(self):
        self.calls = self.columns = 0
        self._method = mb._NormProductDefect.value_and_gradient

    def __enter__(self):
        method = self._method

        def counted(defect, x):
            self.calls += 1
            self.columns += x.size // x.shape[-2]
            return method(defect, x)

        mb._NormProductDefect.value_and_gradient = counted
        return self

    def __exit__(self, *exc):
        mb._NormProductDefect.value_and_gradient = self._method

    def take(self) -> tuple[int, int]:
        counts = (self.calls, self.columns)
        self.calls = self.columns = 0
        return counts


def summary(per_item: list[tuple[int, int]]) -> str:
    calls = [c for c, _ in per_item]
    return (f"{len(per_item)} items, {sum(calls)} calls "
            f"(median {statistics.median(calls):g}, max {max(calls)} per item), "
            f"{sum(n for _, n in per_item)} columns")


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    total = 0
    with Counter() as counter:
        for workload in (wl.ClassifyMembers, wl.ClassifyRandom):
            pool = workload(wl.DEFAULT_SEED, seconds, ROOT)
            pool.make_pool()
            per_matrix = []
            for item in pool.pool:
                mb.classify_all(item["matrix"], seed=item["seed"])
                per_matrix.append(counter.take())
            print(f"{workload.name}: {summary(per_matrix)}")
        suites = wl.VerifyAll(wl.DEFAULT_SEED, seconds, ROOT)
        suites.make_pool()
        for cfg in suites.pool:
            hs.run_suite(cfg)
            calls, columns = counter.take()
            total += calls
            print(f"verify-all {cfg.suites[0]}: {calls} calls, {columns} columns")
    print(f"verify-all total: {total} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
