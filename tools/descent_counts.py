"""Dual-engine, sphere-descent and pencil work per classify_all matrix and
per verify-all suite.

Usage (from the root of a checkout):

    python3 tools/descent_counts.py

Every step of the sphere descent makes one fused call of
``membership._NormProductDefect.value_and_gradient`` for all the problems
it still holds. The dual engine first decides the problems that one of
T's right singular vectors V, the sphere's warm starts, proves NonMember
(``membership._start_verdicts``), then those of the rest that one of the
right singular vectors V2 of T^2 proves (a second ``_start_verdicts``
call), and forms the pencils of the problems left alone, each through
``membership._pencil``. It gives each formed pencil a Loewner
certificate (``membership._certificate_claims``), one ``eigvalsh`` per
certificate size: a problem whose certificate holds is a Member there,
with no sweep and no descent. Only the problems no certificate settles
are swept and descend.
``membership._pencil_verdicts`` takes the stacked terms of the pencils it
sweeps (``membership._PencilStack``); the first pass of its sweep
(``membership._first_pass``), every sweep round, every refinement round
and every build of witness eigenvectors makes the matrices of a batch of
(pencil, lambda) points with ``_PencilStack.matrices``, and a round asks
every running Brent search (``membership._brent``) for one lambda. This
script wraps those methods, ``_PencilStack.deflate``,
``membership._start_verdicts``, ``membership._pencil``,
``membership._certificate_claims``, ``membership._first_pass``,
``membership._sweep``, ``membership._brent``,
``membership._pencil_verdicts`` and ``membership._descend``, from
outside, and the dual engine ``membership._dual_verdicts`` with the
binding ``harness._drive`` calls it through, and counts:

* the engine calls and the problems they decide: a ``classify_all``
  matrix is one call, and a verify-all suite makes one per round and
  dimension of its trials;
* the problems proved before the descent, those the start columns
  decide, whose pencils are not formed: how many each start stage
  decided, at V (the first ``_start_verdicts`` call of an engine call)
  and at V2 (the second); the problems a certificate decides, which
  neither are swept nor descend; and the problems that descend, every
  other problem but the zero operator's, the problems of every
  ``membership._descend`` call. Start-proved, certified and descended
  problems add up to the problems of nonzero matrices;
* the fused calls and the columns they evaluate (problems x columns per
  call);
* the pencils formed (``_pencil`` calls: by the engine, one per problem
  V and V2 leave, and by the public pencil constructors);
* the pencils a certificate settles, one per certified problem, the
  certificate eigensolves
  (calls of the ``linalg._eigvalsh`` kernel inside ``_certificate_claims``) and the matrices
  they solve, and the pencils swept (``_pencil_verdicts``' pencils: the
  engine's uncertified ones and ``pencil_check``'s). Every pencil formed
  is certified or swept;
* the pencil builds (``matrices`` calls), and the lambdas built in grid
  sweeps, in refinement rounds and for the witnesses. A sweep's lambdas
  are the coarse ones, built inside ``_first_pass`` (every
  ``membership._STRIDE``-th grid point and the last of each pencil), and
  the open-cell ones, built inside ``_sweep``'s bisection rounds. The
  builds of both are counted too: one per ``membership._CHUNK`` points of
  the first pass and of every round that eigensolves anything. The grid
  size of every first pass is counted too, summed over its pencils, which
  is what sweeps that eigensolve every grid point evaluate. The other
  builds inside ``_pencil_verdicts`` are refinement rounds while a Brent
  search runs, and the witness build while none does, one lambda per
  pencil;
* the refinement searches, and the lockstep rounds of refinement: per
  ``_pencil_verdicts`` call, the most lambdas any one of its searches
  asked for;
* the pencils with a common kernel, which ``_PencilStack.deflate``
  deflates before the sweep, the sum of their kernel dimensions, and how
  many of them have only vanishing terms (rank 0) and are decided with no
  sweep.

The counts are printed

* per ``classify_all`` matrix of the benchmark's classify-members and
  classify-random pools, summed per pool;
* per theorem suite of the benchmark's verify-all pool: ``run_suite`` at
  the default ``opclass verify all`` budget (50 trials, max-dim 8).

The pools are those of ``perfbench/workloads.py`` at its default seed 2026,
sized for the ``run_seconds`` of ``BENCHMARK.json``.

The public ``sphere_check`` on its central-difference path calls the
defect, not the fused method, so it is not counted; no suite or pool takes
that path. BLAS is pinned to one thread. Run it in two checkouts to
compare their work; the counts are deterministic.
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
    """Counts the engine calls, the fused sphere steps, the certificates,
    the pencil builds and the refinement searches."""

    FIELDS = ("engine_calls", "problems", "proved", "at_v", "at_v2", "descended", "calls",
              "columns", "formed", "certified", "certificate_solves", "certificate_matrices",
              "swept", "builds", "sweep_builds", "coarse_lams", "open_lams", "grid_lams",
              "refine_lams", "witness_lams", "searches", "rounds", "deflated", "kernel_dims",
              "unswept")

    def __init__(self):
        self.counts = dict.fromkeys(self.FIELDS, 0)
        # Where the next build inside _pencil_verdicts counts.
        self._kind = None
        # The most lambdas one search of the running _pencil_verdicts asked
        # for, and the searches still running.
        self._rounds = self._live = 0
        # The start stages the running engine call has taken.
        self._stages = 0
        self._saved = (mb._NormProductDefect.value_and_gradient, mb._PencilStack.matrices,
                       mb._first_pass, mb._sweep, mb._brent, mb._pencil_verdicts, mb._descend,
                       mb._dual_verdicts, hs._dual_verdicts, mb._PencilStack.deflate,
                       mb._start_verdicts, mb._pencil, mb._certificate_claims)

    def _inside(self, fn, kind):
        def counted(*args, **kwargs):
            outer, self._kind = self._kind, kind
            try:
                return fn(*args, **kwargs)
            finally:
                self._kind = outer

        return counted

    def __enter__(self):
        (fused, matrices, first_pass, sweep, brent, verdicts, descend, engine, _,
         deflate, starts, pencil, certificates) = self._saved
        counts = self.counts

        def counted_engine(problems, *args):
            counts["engine_calls"] += 1
            counts["problems"] += len(problems)
            self._stages = 0
            return engine(problems, *args)

        def counted_starts(*args):
            out = starts(*args)
            counts["at_v2" if self._stages else "at_v"] += len(out)
            counts["proved"] += len(out)
            self._stages += 1
            return out

        def counted_pencil(*args):
            counts["formed"] += 1
            return pencil(*args)

        def counted_certificates(*args):
            # The eigvalsh kernel is counted only while the certificates run.
            eigvalsh = mb._eigvalsh

            def counted_eigvalsh(a):
                counts["certificate_solves"] += 1
                counts["certificate_matrices"] += len(a)
                return eigvalsh(a)

            mb._eigvalsh = counted_eigvalsh
            try:
                out = certificates(*args)
            finally:
                mb._eigvalsh = eigvalsh
            counts["certified"] += len(out)
            return out

        def counted_descend(value_and_gradient, x, *args):
            counts["descended"] += len(x)
            return descend(value_and_gradient, x, *args)

        def counted_fused(defect, x):
            counts["calls"] += 1
            counts["columns"] += x.size // x.shape[-2]
            return fused(defect, x)

        def counted_matrices(stack, owner, lams):
            counts["builds"] += 1
            kind = self._kind
            if kind == "refine_lams" and not self._live:
                kind = "witness_lams"
            if kind is not None:
                counts[kind] += lams.size
                if kind in ("coarse_lams", "open_lams"):
                    counts["sweep_builds"] += 1
            return matrices(stack, owner, lams)

        def counted_deflate(stack, *args):
            ranks, bases = deflate(stack, *args)
            kernel = ranks[ranks < stack.coefs.shape[-1]]
            counts["deflated"] += kernel.size
            counts["kernel_dims"] += int((stack.coefs.shape[-1] - kernel).sum())
            counts["unswept"] += int((kernel == 0).sum())
            return ranks, bases

        def counted_first_pass(stack, lams):
            counts["grid_lams"] += lams.size
            return first_pass(stack, lams)

        def counted_brent(*args):
            counts["searches"] += 1
            self._live += 1
            search, asked, value = brent(*args), 0, None
            while True:
                try:
                    lam = search.send(value)
                except StopIteration as done:
                    self._rounds = max(self._rounds, asked)
                    self._live -= 1
                    return done.value
                asked += 1
                value = yield lam

        def counted_verdicts(*args):
            counts["swept"] += len(args[1])
            self._rounds = self._live = 0
            try:
                return verdicts(*args)
            finally:
                counts["rounds"] += self._rounds

        mb._NormProductDefect.value_and_gradient = counted_fused
        mb._PencilStack.matrices = counted_matrices
        mb._PencilStack.deflate = counted_deflate
        mb._start_verdicts = counted_starts
        mb._pencil = counted_pencil
        mb._certificate_claims = counted_certificates
        mb._first_pass = self._inside(counted_first_pass, "coarse_lams")
        mb._sweep = self._inside(sweep, "open_lams")
        mb._brent = counted_brent
        mb._pencil_verdicts = self._inside(counted_verdicts, "refine_lams")
        mb._descend = counted_descend
        mb._dual_verdicts = hs._dual_verdicts = counted_engine
        return self

    def __exit__(self, *exc):
        (mb._NormProductDefect.value_and_gradient, mb._PencilStack.matrices,
         mb._first_pass, mb._sweep, mb._brent, mb._pencil_verdicts, mb._descend,
         mb._dual_verdicts, hs._dual_verdicts, mb._PencilStack.deflate,
         mb._start_verdicts, mb._pencil, mb._certificate_claims) = self._saved

    def take(self) -> dict:
        counts = dict(self.counts)
        self.counts.update(dict.fromkeys(self.FIELDS, 0))
        return counts


def pencil_line(counts: dict) -> str:
    sweep = counts["coarse_lams"] + counts["open_lams"]
    return (f"{counts['formed']} pencils formed, {counts['certified']} certified by "
            f"{counts['certificate_solves']} certificate eigensolves of "
            f"{counts['certificate_matrices']} matrices, {counts['swept']} swept; "
            f"{counts['builds']} builds, "
            f"{sweep} sweep lambdas "
            f"({counts['coarse_lams']} coarse, {counts['open_lams']} open-cell) "
            f"of {counts['grid_lams']} on the grids in {counts['sweep_builds']} sweep builds, "
            f"{counts['refine_lams']} refinement lambdas "
            f"in {counts['searches']} searches over {counts['rounds']} lockstep rounds, "
            f"{counts['witness_lams']} witness lambdas, "
            f"{counts['deflated']} pencils with a common kernel (dimensions summing to "
            f"{counts['kernel_dims']}), {counts['unswept']} of them of rank 0 and not swept")


def problems_line(counts: dict) -> str:
    return (f"{counts['problems']} dual problems, {counts['proved']} proved at start columns "
            f"({counts['at_v']} at T's right singular vectors V, {counts['at_v2']} at "
            f"T^2's V2), {counts['certified']} certified with no descent, "
            f"{counts['descended']} descended")


def summary(per_item: list[dict]) -> str:
    calls = [c["calls"] for c in per_item]
    total = {key: sum(c[key] for c in per_item) for key in Counter.FIELDS}
    return (f"{len(per_item)} items, {problems_line(total)}; {total['calls']} calls "
            f"(median {statistics.median(calls):g}, max {max(calls)} per item), "
            f"{total['columns']} columns; pencil: {pencil_line(total)}")


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    total = dict.fromkeys(("calls", "engine_calls", "problems", "proved", "at_v", "at_v2",
                           "descended", "formed", "certified", "swept"), 0)
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
            counts = counter.take()
            for key in total:
                total[key] += counts[key]
            print(f"verify-all {cfg.suites[0]}: {counts['engine_calls']} engine calls, "
                  f"{problems_line(counts)}; {counts['calls']} calls, "
                  f"{counts['columns']} columns; pencil: {pencil_line(counts)}")
    print(f"verify-all total: {total['engine_calls']} engine calls, {problems_line(total)}; "
          f"{total['calls']} calls, {total['formed']} pencils formed, {total['swept']} swept")
    return 0


if __name__ == "__main__":
    sys.exit(main())
