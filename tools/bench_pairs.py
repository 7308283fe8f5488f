"""Paired benchmark runs of a parent and a change checkout.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent ../parent --change . --number N \
        --workload classify-members:601-610 --workload verify-all:621-625

For every workload and every seed in its range, ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` runs once in each checkout,
T being the ``run_seconds`` of the change checkout's ``BENCHMARK.json``,
one after the other; the parent goes first on even pair indices and the
change first on odd ones. Each checkout runs its own ``perfbench/`` and
``src/``. The last stdout line of a run is its result and the line before
it is its record (see ``perfbench/README.md``).

The summary goes to ``BENCH_<N>.json`` at the root of the change checkout:
per workload, the seeds, the run order, the failed
counts, the environment of its first run, and for every end-to-end metric
of ``BENCHMARK.json`` each side's runs, median and quartiles, the number
of pairs the change wins (ties count for neither side), and the change
median over the parent median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'601-610' -> seeds 601 to 610."""
    lo, hi = (int(part) for part in text.split("-"))
    return list(range(lo, hi + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result, record) of one untraced run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per-metric statistics over pairs [(parent result, change result)]."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": {**quartiles(parent), "runs": parent},
            "change": {**quartiles(change), "runs": change},
            "repeats": len(runs),
            "wins": wins,
            "ratio_of_medians": statistics.median(change) / statistics.median(parent),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, required=True, help="change checkout")
    p.add_argument("--number", type=int, required=True, help="N in BENCH_<N>.json")
    p.add_argument("--workload", action="append", required=True,
                   help="NAME:SEEDS, e.g. classify-members:601-610 (repeatable)")
    args = p.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = {
        "number": args.number,
        "command": " ".join(bench["command"]) + " --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "workloads": {},
    }
    for spec in args.workload:
        name, seeds = spec.split(":")
        runs, order, environment = [], [], None
        for i, seed in enumerate(parse_seeds(seeds)):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in sides:
                got[side] = run_once(getattr(args, side), name, seed, seconds)
            environment = environment or got["parent"][1]["environment"]
            runs.append((got["parent"][0], got["change"][0]))
            order.append(f"{sides[0]} first")
            print(f"{name} seed {seed}: " + ", ".join(
                f"{side} {got[side][0]['metrics']['norm_ops_per_s']['value']:.4g}"
                for side in ("parent", "change")), flush=True)
        doc["workloads"][name] = {
            "seeds": parse_seeds(seeds),
            "order": order,
            "failed": {"parent": sum(r[0]["failed"] for r in runs),
                       "change": sum(r[1]["failed"] for r in runs)},
            "attempted": {"parent": sum(r[0]["attempted"] for r in runs),
                          "change": sum(r[1]["attempted"] for r in runs)},
            "environment": environment,
            "metrics": summarize(runs, bench["end_to_end"]),
        }
    out = args.change / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
