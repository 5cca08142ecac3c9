#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at --scale tiny on the default
seed, untraced and traced, and asserts that each run is correct and
prints every end-to-end (untraced) or per-layer (traced) metric of
BENCHMARK.json with its declared unit. Then it corrupts one reference
digest and asserts that the correctness check fails. Exits non-zero
on the first failed assertion. Takes about a minute on four cores.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1, result
    return result


def check_metrics(result, declared, what):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, \
        f"{what}: metric names {sorted(got)}"
    for m in declared:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{what}: {m['name']} unit {entry}"
        assert isinstance(entry["value"], (int, float)) and \
            math.isfinite(entry["value"]), f"{what}: {m['name']} {entry}"


def main():
    for w in SPEC["workloads"]:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            what = f"{w['name']} --trace {trace}"
            result = run(w["name"], trace)
            assert result["correct"] and result["failed"] == 0, \
                f"{what}: {result}"
            check_metrics(result, declared, what)
            print(f"ok   {what}")

    refs = json.loads((BENCH_DIR / "reference.json").read_text())
    digest = refs["tiny"]["pipeline_cold"]
    refs["tiny"]["pipeline_cold"] = f"{int(digest, 16) ^ 1:016x}"
    corrupted = ROOT / ".bench_build" / "perfbench" / "corrupted_reference.json"
    corrupted.parent.mkdir(parents=True, exist_ok=True)
    corrupted.write_text(json.dumps(refs))
    try:
        result = run("pipeline_cold", 0, "--reference", str(corrupted))
    finally:
        corrupted.unlink()
    assert not result["correct"] and result["failed"] >= 1, result
    print("ok   corrupted reference digest fails the correctness check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
