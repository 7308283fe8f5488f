import importlib.util
import os
import sys
from pathlib import Path

from opclass import membership as mb
from opclass.generators import random_ginibre

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "descent_counts.py"


def _load_descent_counts():
    spec = importlib.util.spec_from_file_location("descent_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_descent_counts_counts_and_restores_what_it_wraps():
    # The script pins BLAS threads and puts src and perfbench on sys.path
    # when it is imported; both are undone here.
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env, path = {var: os.environ.get(var) for var in blas}, sys.path[:]
    try:
        counts = _load_descent_counts()
    finally:
        sys.path[:] = path
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    originals = (mb._NormProductDefect.value_and_gradient, mb._PencilStack.matrices,
                 mb._sweep, mb._brent, mb._pencil_verdicts)
    t = random_ginibre(4, 1)
    with counts.Counter() as counter:
        mb.classify_all(t, seed=1)
        mb.pencil_check(mb.k_paranormal_pencil(t, 2))
    assert {key: value for key, value in counter.counts.items() if value <= 0} == {}
    assert (mb._NormProductDefect.value_and_gradient, mb._PencilStack.matrices,
            mb._sweep, mb._brent, mb._pencil_verdicts) == originals
