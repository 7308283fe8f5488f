"""Milliseconds per matrix of ``classify_all`` at dims 3-8, 16, 24, 32
and 64, and milliseconds per call of the seven algebraic predicates and
of ``nilpotent2_canonical`` and per matrix of the seven predicates in a
row at dims 16, 32 and 64.

Usage (from the root of a checkout):

    python3 tools/classify_dims.py

Each dim times four matrices at the default k and p lists: two Ginibre
matrices (nearly every verdict NonMember), a random normal matrix (every
verdict Member, each dual one settled by its pencil's certificate with no
descent) and an index-3 Jordan
nilpotent. BLAS is pinned to one thread. Each of three repeats runs the
four matrices once; the script prints the median and the least time per
matrix over the repeats. Dims 3-8 are the regime of the benchmark's
classify workloads, where a call takes milliseconds and the work it
shares across its verdicts (one norm, one stacked pencil check, one SVD
of T) shows most. Dims 16-64, beyond every benchmark workload, are where
the pencils of the Members cost most: a sweep eigensolves tens of points
per pencil, a certificate one matrix. The algebraic predicates are the
seven the structure benchmark workload runs on every matrix (is_normal,
is_quasinormal, quasinormal_embry up to k = 3, is_hyponormal,
is_p_hyponormal at p = 0.5, is_class_a and is_normaloid); each is timed
the same way on the same four kinds of matrix, and the script prints its
median and least milliseconds per call over the repeats. Those rows run
one predicate over all four matrices before the next, so every call
measures a matrix other than the last one; ``operator_norm`` keeps only
the last matrix it measured, so each call takes its own SVD. A further
row per dim runs all seven on one matrix before the next, in the
structure workload's order, as a caller that places one matrix on the
chain does, and prints milliseconds per matrix.
``nilpotent2_canonical`` is timed the same way on four index-2 Jordan
nilpotents per dim, the matrices of the structure workload's nilpotent2
kind. Run it alternately in two checkouts to compare them on a shared
host.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opclass import decomposition as dec  # noqa: E402
from opclass import generators as gen  # noqa: E402
from opclass import membership as mb  # noqa: E402

REPEATS = 3
ALGEBRAIC = {
    "is_normal": mb.is_normal,
    "is_quasinormal": mb.is_quasinormal,
    "quasinormal_embry": lambda t: mb.quasinormal_embry(t, 3),
    "is_hyponormal": mb.is_hyponormal,
    "is_p_hyponormal": lambda t: mb.is_p_hyponormal(t, 0.5),
    "is_class_a": mb.is_class_a,
    "is_normaloid": mb.is_normaloid,
}


def matrices(dim: int) -> list:
    return [gen.random_ginibre(dim, seed=1), gen.random_ginibre(dim, seed=2),
            gen.random_normal(dim, seed=3), gen.jordan_nilpotent(dim, 3, seed=4)]


def seconds_per_call(call, mats: list) -> list:
    """Seconds per matrix of call(t, i) over the matrices, once per repeat."""
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for i, t in enumerate(mats):
            call(t, i)
        out.append((time.perf_counter() - t0) / len(mats))
    return out


def main() -> int:
    for dim in (*range(3, 9), 16, 24, 32, 64):
        per_matrix = seconds_per_call(lambda t, i: mb.classify_all(t, seed=i), matrices(dim))
        print(f"dim {dim}: median {1e3 * statistics.median(per_matrix):.2f} ms/matrix, "
              f"least {1e3 * min(per_matrix):.2f} ms/matrix over {REPEATS} repeats")
    for dim in (16, 32, 64):
        mats, cells = matrices(dim), []
        for name, predicate in ALGEBRAIC.items():
            per_call = seconds_per_call(lambda t, i: predicate(t), mats)
            cells.append(f"{name} {1e3 * statistics.median(per_call):.3f}"
                         f"/{1e3 * min(per_call):.3f}")
        print(f"dim {dim} algebraic ms/call, median/least: " + ", ".join(cells))
        per_matrix = seconds_per_call(lambda t, i: [p(t) for p in ALGEBRAIC.values()], mats)
        print(f"dim {dim} algebraic in structure order: median "
              f"{1e3 * statistics.median(per_matrix):.3f} ms/matrix, "
              f"least {1e3 * min(per_matrix):.3f} ms/matrix over {REPEATS} repeats")
    for dim in (16, 32, 64):
        mats = [gen.jordan_nilpotent(dim, 2, seed=s) for s in range(1, 5)]
        per_call = seconds_per_call(lambda t, i: dec.nilpotent2_canonical(t), mats)
        print(f"dim {dim}: nilpotent2_canonical median {1e3 * statistics.median(per_call):.3f} "
              f"ms/call, least {1e3 * min(per_call):.3f} ms/call over {REPEATS} repeats")
    return 0


if __name__ == "__main__":
    sys.exit(main())
