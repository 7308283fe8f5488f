"""Seconds per matrix of ``classify_all`` at dims 16, 24 and 32.

Usage (from the root of a checkout):

    python3 tools/classify_dims.py

Each dim times four matrices at the default k and p lists: two Ginibre
matrices (nearly every verdict NonMember), a random normal matrix (every
verdict Member, so the sphere runs to convergence) and an index-3 Jordan
nilpotent. BLAS is pinned to one thread. Each of three repeats runs the
four matrices once; the script prints the median and the least seconds
per matrix over the repeats. Run it alternately in two checkouts to compare
them on a shared host.
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

from opclass import generators as gen  # noqa: E402
from opclass.membership import classify_all  # noqa: E402

REPEATS = 3

def main() -> int:
    for dim in (16, 24, 32):
        mats = [gen.random_ginibre(dim, seed=1), gen.random_ginibre(dim, seed=2),
                gen.random_normal(dim, seed=3), gen.jordan_nilpotent(dim, 3, seed=4)]
        per_matrix = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for i, t in enumerate(mats):
                classify_all(t, seed=i)
            per_matrix.append((time.perf_counter() - t0) / len(mats))
        print(f"dim {dim}: median {statistics.median(per_matrix):.3f} s/matrix, "
              f"least {min(per_matrix):.3f} s/matrix over {REPEATS} repeats")
    return 0


if __name__ == "__main__":
    sys.exit(main())
