"""opclass benchmark: one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify-random --seed 2026 \
        --seconds 20 --trace 0

With ``--trace 0`` the run is untraced and the last stdout line reports the
end-to-end metrics; with ``--trace 1`` the same work runs once untraced
and once under the outside-in tracer, and the last line reports the
per-layer metrics. Either way every result is checked: against the
committed golden tables at the default seed, and for self-consistency at
any other seed. The line before it is the full record: environment,
check mode, failures, the tail percentile used and derived shares.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

from hostclock import PYTHON_NOMINAL_S, HostClock, python_reference_s

# Set-up is timed against the pure-Python kernel from the first line on
# (see hostclock.py); a script run starts the clock here.
SETUP_CLOCK = HostClock(python_reference_s, PYTHON_NOMINAL_S, interval=0.01, bracket=9)
if __name__ == "__main__":
    SETUP_CLOCK.__enter__()
    SETUP_CLOCK.start(T_START)

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread for the benchmark's own process: the single-threaded
# baseline. This must happen before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3  # this process plus two set-up-only children


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used internally)")
    return p.parse_args(argv)


def import_opclass():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "opclass" / "__init__.py").is_file():
        sys.exit(f"perfbench: no opclass sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import opclass

    if Path(opclass.__file__).resolve().parent != (src / "opclass").resolve():
        sys.exit(f"perfbench: imported opclass from {opclass.__file__}, not {src}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def tail_percentile(samples: list[float]) -> tuple[float, int]:
    """Highest integer percentile with at least ten samples beyond it; the
    maximum (reported as p100) when there are too few samples for a tail
    at or above the median."""
    import numpy as np

    xs = np.sort(np.asarray(samples))
    for q in range(99, 49, -1):
        value = float(np.percentile(xs, q))
        if int(np.sum(xs > value)) >= 10:
            return value, q
    return float(xs[-1]), 100


def setup_sample() -> dict:
    """This process's set-up time so far, in wall seconds and normalized."""
    wall, norm = SETUP_CLOCK.stop()
    SETUP_CLOCK.__exit__(None, None, None)
    return {"setup_s": norm, "setup_wall_s": wall}


def child_setup_times(args) -> list[dict]:
    """Set-up samples of fresh processes doing the same set-up as this one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(wl, run: dict, setup_samples: list[dict], failed: int) -> tuple[dict, dict]:
    """The gated metrics of BENCHMARK.json, and every end-to-end metric of
    the workload under its own name, as (value, unit)."""
    lat = run["latencies"]
    tail, q = tail_percentile(lat)
    wall_s = sum(lat)
    gated = {
        "norm_ops_per_s": len(run["norm_latencies"]) / sum(run["norm_latencies"]),
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rate, latency = wl.rate_name, wl.latency_name
    reported = {
        rate: (len(lat) / wall_s, "1/s"),
        f"norm_{rate}": (gated["norm_ops_per_s"], "1/s"),
        f"{latency}_p50": (statistics.median(lat) * 1e3, "ms"),
        f"{latency}_tail": (tail * 1e3, "ms"),
        f"{latency}_tail_percentile": (q, "percentile"),
        "samples": (len(lat), "count"),
        "wall_s": (wall_s, "s"),
        "setup_s": (gated["setup_s"], "s"),
        "setup_wall_s": (statistics.median(s["setup_wall_s"] for s in setup_samples), "s"),
        "peak_rss_mb": (gated["peak_rss_mb"], "MB"),
        "failed_share": (failed / run["attempted"], "ratio"),
    }
    if wl.wall_name != "wall_s":
        reported[wl.wall_name] = reported.pop("wall_s")
    summary = wl.summary(run["results"])
    if "inconclusive_share" in summary:
        reported["inconclusive_share"] = (summary["inconclusive_share"], "ratio")
    return gated, reported


def per_layer(untraced: dict, traced: dict, agg: dict, layer_units: dict) -> dict:
    metrics = {k: v for k, v in agg.items() if k in layer_units}
    metrics["trace.overhead_share"] = agg["trace.wall_s"] / untraced["pass_s"] - 1.0
    import opclass.harness as hs

    reports = [r for r in traced["results"] if isinstance(r, hs.TheoremReport)]
    for tid in hs.THEOREM_IDS:
        rep = next((r for r in reports if r.theorem_id == tid), None)
        metrics[f"harness.{tid}.s"] = rep.wall_time_ms / 1e3 if rep else 0.0
        metrics[f"harness.{tid}.useful_share"] = (
            (rep.passes + len(rep.failures)) / rep.trials if rep and rep.trials else 0.0
        )
    return metrics


def timed_pass(wl) -> dict:
    """Pool generation plus one pass over every operation, timed, without
    the reference kernel."""
    t0 = time.perf_counter()
    wl.make_pool()
    run = wl.run(passes=1, normalize=False)
    run["pass_s"] = time.perf_counter() - t0
    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    import_opclass()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        wl = WORKLOADS[args.workload](args.seed, args.seconds, Path(tmp))
        wl.make_pool()
        wl.warm_up()
        setup = setup_sample()
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        setup_samples = [setup] + child_setup_times(args)

        record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
                  "check_mode": wl.check_mode,
                  "environment": environment(args.seed),
                  "setup_samples": setup_samples}
        print(f"perfbench {wl.name}: seed {args.seed}, check mode {wl.check_mode}",
              flush=True)
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.trace == 0:
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            run = wl.run()
        else:
            from tracing import Tracer

            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            untraced = timed_pass(wl)
            tracer = Tracer()
            tracer.install()
            try:
                run = timed_pass(wl)
            finally:
                tracer.uninstall()
            agg = tracer.aggregate(run["pass_s"])
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{wl.name}-{args.seed}.npz")
            record.update({"untraced_pass_s": untraced["pass_s"],
                           "traced_wall_s": agg["trace.wall_s"], "spans": agg["trace.spans"]})
            run["failures"] += untraced["failures"]
            run["failures"] += [
                (i, "traced result differs from untraced result")
                for i, (a, b) in enumerate(zip(wl.outcomes(untraced), wl.outcomes(run)))
                if a != b
            ]

    failed = len({i for i, _ in run["failures"]})
    if args.trace == 0:
        metrics, reported = end_to_end(wl, run, setup_samples, failed)
        for name, (value, unit) in reported.items():
            print(f"  {name} = {value:.6g} {unit}")
        record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
    else:
        metrics = per_layer(untraced, run, agg, units)
    print(f"  correct = {failed == 0} ({failed} of {run['attempted']} operations failed)")
    record.update(wl.summary(run["results"]))
    record.update({"attempted": run["attempted"], "failed": failed,
                   "failures": [f"op {i}: {msg}" for i, msg in run["failures"][:20]]})
    print(json.dumps(record, default=str))
    result = {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0



if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        # An early exit leaves the set-up clock running; Python resets the
        # handler at shutdown, and a pending SIGALRM would then kill it.
        SETUP_CLOCK.__exit__(None, None, None)
