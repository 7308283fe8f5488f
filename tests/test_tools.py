import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

from opclass import harness as hs
from opclass import membership as mb
from opclass.generators import jordan_nilpotent, random_ginibre, random_normal

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_descent_counts_counts_and_restores_what_it_wraps():
    # The script pins BLAS threads and puts src and perfbench on sys.path
    # when it is imported; both are undone here.
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env, path = {var: os.environ.get(var) for var in blas}, sys.path[:]
    try:
        counts = _load_tool("descent_counts")
    finally:
        sys.path[:] = path
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    def wrapped():
        return (mb._NormProductDefect.value_and_gradient, mb._PencilStack.matrices,
                mb._first_pass, mb._sweep, mb._brent, mb._pencil_verdicts, mb._descend,
                mb._dual_verdicts, hs._dual_verdicts, mb._PencilStack.deflate,
                mb._start_verdicts, mb._pencil, mb._certificate_claims)

    originals, eigvalsh = wrapped(), np.linalg.eigvalsh
    # T's right singular vectors prove the NonMembers of the Ginibre
    # matrices and of the nilpotent, but one of the 3 x 3 Ginibre matrix,
    # which T^2's prove; a certificate settles every Member of the normal
    # matrix and of the nilpotent, so none of them descends. No certificate
    # settles the k-quasi-paranormal pencil at k = 3 of a normal matrix
    # 1e-3 off normal, so the engine sweeps it and the problem descends.
    # The public pencil_check sweeps its pencils: an index-2 nilpotent's
    # k-quasi pencils have a common kernel, ker T, at k = 1, and only
    # vanishing terms at k >= 2.
    t, nilpotent = random_ginibre(4, 1), jordan_nilpotent(4, 2, 1)
    with counts.Counter() as counter:
        mb.classify_all(t, seed=1)
        mb.classify_all(random_ginibre(3, 23), seed=1)
        mb.classify_all(random_normal(4, 1), seed=1)
        mb.classify_all(nilpotent, seed=1)
        mb.classify_all(random_normal(3, 1) + 1e-3 * random_ginibre(3, 101), seed=4)
        for pencil in (mb.k_paranormal_pencil(t, 2), mb.quasi_paranormal_pencil(nilpotent, 1),
                       mb.quasi_paranormal_pencil(nilpotent, 2)):
            mb.pencil_check(pencil)
        counted = counter.take()
        assert {key: value for key, value in counted.items() if value <= 0} == {}
        # No matrix is zero, so each problem is proved at a start column,
        # certified or descends; every proved problem is proved at V or at
        # V2.
        assert (counted["proved"] + counted["certified"] + counted["descended"]
                == counted["problems"])
        assert counted["at_v"] + counted["at_v2"] == counted["proved"] >= 20
        assert counted["at_v2"] == 1 and counted["descended"] == 1
        # The engine forms the pencil of every problem V and V2 leave, and
        # the public constructors three more. Every pencil formed is
        # certified or swept: the engine's all but one certified, the public
        # ones all swept. The normal matrix's certificates take one
        # eigensolve of each size, n and 2n, the nilpotent's one of 2n, and
        # the near-normal matrix's one pencil one of 2n.
        proved = counted["at_v"] + counted["at_v2"]
        assert counted["formed"] == counted["problems"] - proved + 3
        assert counted["certified"] + counted["swept"] == counted["formed"]
        assert counted["swept"] == 1 + 3
        assert counted["certificate_solves"] == 4
        assert counted["certificate_matrices"] == counted["certified"] + 1
        # The sweeps' builds are among the builds: a first pass each, and
        # the bisection rounds.
        assert 0 < counted["sweep_builds"] < counted["builds"]
        # Each pencil with a kernel adds at least one dimension.
        assert counted["unswept"] < counted["deflated"] <= counted["kernel_dims"]
        # A suite's engine calls go through the harness binding: one stack
        # per round and dimension, at most one per problem. Its problems are
        # accounted for as above.
        hs.run_suite(hs.SuiteConfig(suites=("ando",), trials=8, max_dim=3, seed=1))
        suite = counter.take()
    assert 0 < suite["engine_calls"] < suite["problems"]
    assert suite["proved"] + suite["certified"] + suite["descended"] == suite["problems"]
    assert suite["certified"] + suite["swept"] == suite["formed"] > 0
    assert wrapped() == originals and np.linalg.eigvalsh is eigvalsh


def test_bench_pairs_summarizes_pairs_of_runs():
    # What BENCH_<n>.json reports, on synthetic results; no benchmark runs.
    pairs = _load_tool("bench_pairs")
    assert pairs.parse_seeds("601-604") == [601, 602, 603, 604]
    assert pairs.parse_seeds("7-7") == [7]
    assert pairs.quartiles([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    assert pairs.quartiles([4.0, 1.0, 5.0, 3.0, 2.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}

    def result(rate: float, rss: float) -> dict:
        return {"metrics": {"rate": {"value": rate}, "rss": {"value": rss}}}

    metrics = [{"name": "rate", "unit": "1/s", "better": "higher"},
               {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.01}]
    # (parent, change): the change wins the first pair on both metrics, the
    # second is a tie on both, and each metric has one more win and one loss.
    runs = [(result(10, 50), result(12, 49)), (result(10, 50), result(10, 50)),
            (result(11, 52), result(13, 53)), (result(12, 50), result(9, 48))]
    out = pairs.summarize(runs, metrics)
    rate, rss = out["rate"], out["rss"]
    assert (rate["wins"], rss["wins"]) == (2, 2)
    assert (rate["repeats"], rate["unit"], rate["better"]) == (4, "1/s", "higher")
    assert rate["parent"]["runs"] == [10, 10, 11, 12] and rate["change"]["runs"] == [12, 10, 13, 9]
    assert rate["ratio_of_medians"] == 11.0 / 10.5
    assert rss["ratio_of_medians"] == 49.5 / 50.0
    assert rss["change"]["median"] == 49.5 and rss["parent"]["q3"] == 50.5
    # Two wins in four pairs: no gain under the pairs rule on either metric.
    # rss has a bound of 1% of the parent median, 50, and its change median,
    # 49.5, is better; rate has no bound.
    assert rate["pairs_rule"] == {"median_gain": 0.5, "parent_spread": 1.25, "holds": False}
    assert not rss["pairs_rule"]["holds"] and rate["no_regression"] is None
    assert rss["no_regression"] == {"bound": 0.01, "limit": 50.5, "holds": True}

    # Ten pairs: the change wins nine on rate and all ten on rss, by median
    # gains of 2 and 0.5 against a parent spread of 0. With one more loss
    # on rate, eight of ten, the rule fails. A change median 3% worse on
    # rss, beyond its 1% bound, fails the no-regression check.
    base = [9.0, 9.5, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.5, 11.0]
    ten = [(result(r, r), result(r + 2.0 if i else r - 1.0, r - 0.5))
           for i, r in enumerate(base)]
    out = pairs.summarize(ten, metrics)
    assert (out["rate"]["wins"], out["rss"]["wins"]) == (9, 10)
    assert out["rate"]["pairs_rule"] == {"median_gain": 2.0, "parent_spread": 0.0, "holds": True}
    assert out["rss"]["pairs_rule"] == {"median_gain": 0.5, "parent_spread": 0.0, "holds": True}
    eight = pairs.summarize(ten[:9] + [(ten[9][0], result(8.0, 1.0))], metrics)
    assert eight["rate"]["wins"] == 8 and not eight["rate"]["pairs_rule"]["holds"]
    worse = pairs.summarize([(result(10, 50), result(12, 51.5))],
                            [{"name": "rss", "unit": "MB", "better": "lower", "bound": 0.01}])
    assert worse["rss"]["no_regression"] == {"bound": 0.01, "limit": 50.5, "holds": False}
