"""Regenerate the golden tables the benchmark checks at the default seed.

Usage (from the repository root):

    python3 perfbench/make_golden.py [workload ...]

Each table covers the pool a run of ``run_seconds`` (from BENCHMARK.json)
makes at the default seed. Regenerate only when a change is meant to alter
verdicts or reports, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    run.import_opclass()
    import opclass.harness as hs
    from workloads import DEFAULT_SEED, GOLDEN_DIR, WORKLOADS, sha256_text, suite_sha

    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in argv or list(WORKLOADS):
        with tempfile.TemporaryDirectory(prefix=".work-", dir=run.HERE) as tmp:
            wl = WORKLOADS[name](DEFAULT_SEED, seconds, Path(tmp))
            wl.golden = None
            wl.make_pool()
            result = wl.run(passes=1, normalize=False)
        if result["failures"]:
            print(f"{name}: refusing to record a failing run: {result['failures'][:3]}")
            return 1
        doc = {"seed": DEFAULT_SEED, "seconds": seconds}
        if name == "verify-all":
            cfg, reports = wl.config(wl.trials), result["results"]
            doc["trials"] = cfg.trials
            doc["report_sha256"] = sha256_text(
                hs.canonical_report_json(hs.suite_report_json_dict(cfg, reports)))
            doc["suites"] = {rep.theorem_id: suite_sha(rep) for rep in reports}
        elif name == "structure":
            doc["items"] = result["results"]
        else:
            doc["items"] = [r["statuses"] for r in result["results"]]
        path = GOLDEN_DIR / f"{name}.json"
        items = doc.pop("items", None)
        text = json.dumps(doc)[:-1]
        if items is not None:  # one pool item per line
            text += ', "items": [\n' + ",\n".join(json.dumps(it) for it in items) + "\n]"
        path.write_text(text + "}\n")
        print(f"{name}: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
