"""Self-test of the benchmark at a tiny size.

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload it makes one untraced and two traced runs of about one
second and checks that:

* the last stdout line has exactly the keys correct, attempted, failed and
  metrics, and the run is correct;
* every end-to-end metric (untraced) and every per-layer metric (traced)
  named in BENCHMARK.json is emitted as a finite number with its unit;
* every count metric repeats exactly between the two traced runs;
* the structure workload never reaches the sphere oracle.

Finally it checks that the benchmark fails, without printing a result, in
a directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, label: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(doc)}")
    if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
        raise AssertionError(f"{label}: not correct: {proc.stdout.splitlines()[-2][:2000]}")
    return doc


def check_metrics(doc: dict, declared: list[dict], label: str) -> None:
    for m in declared:
        got = doc["metrics"].get(m["name"])
        if got is None:
            raise AssertionError(f"{label}: metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise AssertionError(f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            raise AssertionError(f"{label}: {m['name']} value {got['value']!r}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for w in (w["name"] for w in bench["workloads"]):
        check_metrics(result_of(run(w, 0), f"{w} untraced"), bench["end_to_end"],
                      f"{w} untraced")
        first, second = (result_of(run(w, 1), f"{w} traced") for _ in range(2))
        check_metrics(first, bench["per_layer"], f"{w} traced")
        moved = [n for n in counts
                 if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        if moved:
            raise AssertionError(f"{w}: counts differ between traced runs: {moved}")
        if w == "structure" and first["metrics"]["membership.sphere_check.calls"]["value"]:
            raise AssertionError("structure reached the sphere oracle")
        print(f"selftest {w}: ok")

    with tempfile.TemporaryDirectory(prefix=".work-selftest-", dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError("benchmark did not fail without the sources")
    print("selftest bare checkout: fails as required")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
