#!/usr/bin/env python3
"""End-to-end benchmark of the SMiTe reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the benchmark
binary (perfbench.cpp) and the repository's libraries into
.bench_build/ with the repository's own CMake project. Every timed run
is a fresh process (smite_perfbench), so the process-wide replay and
snapshot stores start empty; this script repeats such runs until
--seconds is used up. It reports the smallest wall_s of those runs,
the largest epochs_per_s of their streaming calls and the median of
each other metric.

Workloads (all closed-loop: one caller, synchronous library calls):

  pipeline_cold  the paper pipeline in an empty directory: signatures,
                 pairs, predictor fit, held-out predictions, the
                 multi-instance grid, a 4,000-server stream and the
                 knee searches. Nearly every measurement simulates.
  fleet_churn    streaming epochs on a 131,072-server heterogeneous
                 fleet with churn and both QoS tiers; no simulation.

smite_mae_pct is SMiTe's mean absolute error, in percentage points,
over the held-out ordered pairs of both folds (fit on the training
set and test on the other side, then the reverse). On fleet_churn it
is the error of the synthetic predicted QoS tables the fleet schedules
with. epochs_per_s is streaming epochs per second of runStream: the
4,000-server stream inside the pipeline, the 131,072-server fleet in
fleet_churn.

The seed picks the SPEC train/test split (seed 0 is the paper's
even/odd split) or the churn and fleet-assignment seeds. The outputs
are checked on every seed (prediction range, stream conservation,
knee monotonicity, no simulator runs in fleet_churn, no incidents,
identical digests across repeats); on seed 0 the output digest must
also match reference.json.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced runs and reports the
per-layer metrics, from the spans smite_perfbench records around each
library call and from the obs::Registry counters. Traced runs write
their spans to .bench_build/perfbench/traces/<run id>.json.

--scale tiny shrinks every workload for the self-check (selfcheck.py);
--reference names another reference file; --record writes the seed-0
digest into the reference file instead of checking it.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "cmake" / "smite_perfbench"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150
# Extra fresh processes per run that stop at the first timed call, so
# setup_s is a median even when only one timed run fits.
SETUP_SAMPLES = 15

WORKLOADS = ("pipeline_cold", "fleet_churn")

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "epochs_per_s": "1/s",
    "smite_mae_pct": "%",
    "sim.live_runs": "count",
    "sim.live_mcycles_per_s": "Mcycles/s",
    "sim.idle_skip_ratio": "ratio",
    "sim.replay_hit_ratio": "ratio",
    "sim.snapshot_hit_ratio": "ratio",
    "core.signatures_s": "s",
    "core.pairs_s": "s",
    "core.multi_s": "s",
    "core.fit_s": "s",
    "core.predict_s": "s",
    "core.predict_ns_p50": "ns",
    "core.predict_ns_p90": "ns",
    "core.memo_hit_ratio": "ratio",
    "core.memo_waits": "count",
    "core.lab_setup_s": "s",
    "pool.batches": "count",
    "pool.tasks_per_batch": "count",
    "scheduler.stream_s": "s",
    "scheduler.events_per_s": "1/s",
    "scheduler.batches_per_epoch": "count",
    "scheduler.placed_ratio": "ratio",
    "loadgen.knee_s": "s",
    "loadgen.knee_probes": "count",
    "queueing.requests_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_pct": "%",
}

# Span name -> per-layer self-time metric. The root span's own self
# time is trace.other_s, so the parts add up to trace.wall_s.
SPAN_METRICS = {
    "core.signatures": "core.signatures_s",
    "core.pairs": "core.pairs_s",
    "core.fit": "core.fit_s",
    "core.predict": "core.predict_s",
    "core.multi": "core.multi_s",
    "scheduler.stream": "scheduler.stream_s",
    "loadgen.knee": "loadgen.knee_s",
}
# Spans whose calls reach the simulator through the Lab.
LAB_SPANS = ("core.signatures", "core.pairs", "core.fit", "core.multi")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def check_sources():
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{ROOT / needed} is missing; run from the root "
                             "of a full checkout")


def build(jobs):
    cmake_dir = BINARY.parent
    if not (cmake_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT), "-B", str(cmake_dir),
               f"-DCMAKE_PROJECT_INCLUDE={BENCH_DIR / 'hook.cmake'}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(cmake_dir), "--target",
                    "smite_perfbench", "-j", str(jobs)])


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def child_env():
    # Nothing from the caller's environment may change what the library
    # does: no thread override, faults, tracing or memo switch.
    return {k: v for k, v in os.environ.items() if not k.startswith("SMITE_")}


def run_child(args, cwd):
    """One fresh smite_perfbench process; returns its parsed result."""
    t_spawn = time.monotonic()
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=cwd,
                          env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"smite_perfbench {' '.join(args)} exited "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_timed"] - t_spawn
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def span_self_times(spans):
    """Per-span-name self time, plus the root span's duration."""
    dur = [s["end"] - s["start"] for s in spans]
    self_time = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            self_time[s["parent"]] -= d
    by_name = {}
    for s, t in zip(spans, self_time):
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + t
    root = next(i for i, s in enumerate(spans) if s["parent"] < 0)
    return by_name, dur[root], spans[root]["name"]


def layer_metrics(r):
    """Per-layer metrics of one traced run."""
    c = r["counters"]
    get = lambda name: c.get(name, 0.0)
    by_name, root_s, root_name = span_self_times(r["spans"])
    m = {metric: by_name.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    m["trace.wall_s"] = root_s
    m["trace.other_s"] = by_name.get(root_name, 0.0)

    interval = r.get("warmup_cycles", 0) + r.get("measure_cycles", 0)
    live = (get("machine.runs") - get("machine.replay.hits") -
            get("machine.replay.waits"))
    lab_s = sum(s["end"] - s["start"] for s in r["spans"]
                if s["name"] in LAB_SPANS)
    skipped = get("machine.idle_skipped_cycles")
    m["sim.live_runs"] = live
    m["sim.live_mcycles_per_s"] = ratio(live * interval, lab_s) / 1e6
    m["sim.idle_skip_ratio"] = ratio(skipped, skipped + get("machine.wake_events"))
    m["sim.replay_hit_ratio"] = ratio(
        get("machine.replay.hits"),
        get("machine.replay.hits") + get("machine.replay.misses") +
        get("machine.replay.waits"))
    m["sim.snapshot_hit_ratio"] = ratio(
        get("machine.snapshot.hits"),
        get("machine.snapshot.hits") + get("machine.snapshot.misses"))

    memo = {kind: sum(v for k, v in c.items()
                      if k.startswith("lab.cache.") and k.endswith("." + kind))
            for kind in ("hits", "misses", "waits")}
    m["core.memo_hit_ratio"] = ratio(memo["hits"], sum(memo.values()))
    m["core.memo_waits"] = memo["waits"]
    m["core.lab_setup_s"] = r.get("lab_setup_s", 0.0)
    m["core.predict_ns_p50"] = r.get("predict_ns_p50", 0.0)
    m["core.predict_ns_p90"] = r.get("predict_ns_p90", 0.0)

    m["pool.batches"] = get("pool.batches")
    m["pool.tasks_per_batch"] = ratio(get("pool.tasks"), get("pool.batches"))
    m["scheduler.events_per_s"] = ratio(get("scheduler.shard.events"),
                                        m["scheduler.stream_s"])
    m["scheduler.batches_per_epoch"] = ratio(r["stream_pool_batches"],
                                             get("scheduler.shard.epochs"))
    m["scheduler.placed_ratio"] = ratio(get("scheduler.churn.placed"),
                                        get("scheduler.churn.arrivals"))
    m["loadgen.knee_probes"] = get("loadgen.knee_probes")
    m["queueing.requests_per_s"] = ratio(get("loadgen.requests"),
                                         m["loadgen.knee_s"])
    return m


class Verdict:
    """Operations attempted and failed across all runs of a workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")

    def absorb(self, r):
        self.attempted += int(r["attempted"])
        self.failed += int(r["failed"]) + int(r["incidents"])
        for f in r["failures"]:
            log(f"check failed: {f}")
        if r["incidents"]:
            log(f"{int(r['incidents'])} incident(s) logged")


class Runner:
    def __init__(self, opts):
        self.opts = opts
        self.threads = len(os.sched_getaffinity(0))
        self.run_id = (f"{opts.workload}-s{opts.seed}-t{opts.trace}-"
                       f"{os.getpid()}-{time.time_ns()}")
        self.scratch = BUILD_DIR / "runs" / self.run_id
        self.verdict = Verdict()
        self.digests = []

    def child_args(self, kind, traced):
        args = [kind, "--seed", str(self.opts.seed), "--threads",
                str(self.threads), "--run-id", self.run_id]
        if traced:
            args.append("--trace")
        if self.opts.scale == "tiny":
            args.append("--tiny")
        return args

    def one(self, kind, traced, directory=None, setup_only=False):
        args = self.child_args(kind, traced)
        if directory is not None:
            args += ["--dir", str(directory)]
        # The run's scratch directory as working directory: nothing may
        # read the disk caches committed at the repository root.
        if setup_only:
            return run_child(args + ["--setup-only"], self.scratch)["setup_s"]
        r = run_child(args, self.scratch)
        self.verdict.absorb(r)
        self.digests.append(r["digest"])
        return r

    def timed_runs(self, make_run):
        """Repeat fresh-process runs while another one fits in --seconds.
        With --trace 1 every second run is traced, the first is not."""
        deadline = time.monotonic() + self.opts.seconds
        results = []
        while True:
            t0 = time.monotonic()
            traced = bool(self.opts.trace) and len(results) % 2 == 1
            r = make_run(traced)
            r["traced"] = traced
            results.append(r)
            last = time.monotonic() - t0
            enough = len(results) >= (2 if self.opts.trace else 1)
            if enough and time.monotonic() + last > deadline:
                return results

    def run(self):
        """Timed results plus extra set-up time samples."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            run_once = self.prepare()
            setups = [run_once(False, True)
                      for _ in range(0 if self.opts.trace else SETUP_SAMPLES)]
            results = self.timed_runs(lambda traced: run_once(traced, False))
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        self.check_digests()
        return results, setups + [r["setup_s"] for r in results]

    def prepare(self):
        """Returns run_once(traced, setup_only) for the workload."""
        w = self.opts.workload
        if w == "fleet_churn":
            return lambda traced, setup_only: self.one(
                "fleet", traced, setup_only=setup_only)
        counter = iter(range(1 << 30))

        def cold(traced, setup_only):
            directory = self.scratch / f"cold{next(counter)}"
            directory.mkdir()
            try:
                return self.one("pipeline", traced, directory, setup_only)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
        return cold

    def check_digests(self):
        # Every run of one seed computes the same outputs.
        first = self.digests[0]
        for d in self.digests[1:]:
            self.verdict.expect(d == first, f"digest {d} differs from {first}")
        if self.opts.seed != DEFAULT_SEED:
            return
        path = self.opts.reference
        refs = json.loads(path.read_text()) if path.exists() else {}
        if self.opts.record:
            refs.setdefault(self.opts.scale, {})[self.opts.workload] = first
            path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
            log(f"recorded digest {first} in {path}")
            return
        expected = refs.get(self.opts.scale, {}).get(self.opts.workload)
        self.verdict.expect(expected == first,
                            f"digest {first} != reference {expected}")


def end_to_end(results, setups):
    # Wall times are the least over the timed runs (the most epochs per
    # second over the streaming calls): the work is deterministic, so a
    # slower repeat only measures other load on the host. CPU time is a
    # median: whether a fresh pool's idle workers wake before the batch
    # drains splits it into two modes, and the least would pick either.
    epochs = [r["stream_epochs"] / s for r in results for s in r["stream_s"]]
    return {
        "setup_s": median(setups),
        "wall_s": min(r["wall_s"] for r in results),
        "cpu_s": median([r["cpu_s"] for r in results]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
        "epochs_per_s": max(epochs),
        "smite_mae_pct": median([r["smite_mae_pct"] for r in results]),
    }


def per_layer(results, run_id):
    # One whole traced run, the median by wall time, so that its per-layer
    # self times and trace.other_s add up to its trace.wall_s exactly.
    traced = sorted((r for r in results if r["traced"]),
                    key=lambda r: r["wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(chosen)
    plain_wall = median([r["wall_s"] for r in results if not r["traced"]])
    metrics["trace.overhead_pct"] = 100.0 * ratio(
        chosen["wall_s"] - plain_wall, plain_wall)
    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans = [s for r in traced for s in r["spans"]]
    (trace_dir / f"{run_id}.json").write_text(json.dumps(spans))
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--reference", type=Path,
                   default=BENCH_DIR / "reference.json")
    p.add_argument("--record", action="store_true")
    opts = p.parse_args(argv)
    if opts.seed < 0:
        p.error("--seed must be non-negative")
    return opts


def main(argv):
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running child and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    opts = parse_args(argv)
    try:
        check_sources()
        build(len(os.sched_getaffinity(0)))
        runner = Runner(opts)
        results, setups = runner.run()
    except (BenchError, subprocess.TimeoutExpired, OSError) as err:
        log(f"error: {err}")
        return 1

    first = results[0]
    config = {
        "workload": opts.workload, "seed": opts.seed, "scale": opts.scale,
        "nproc": os.cpu_count(), "pool_width": runner.threads,
        "runs": len(results), "seconds": opts.seconds,
        "warmup_cycles": first.get("warmup_cycles"),
        "measure_cycles": first.get("measure_cycles"),
        "train": first.get("train"), "test": first.get("test"),
        "smite_mae_folds_pct": first.get("smite_mae_folds_pct"),
        "pmu_mae_pct": first.get("pmu_mae_pct"),
        "digest": first["digest"],
        "wall_s_runs": [r["wall_s"] for r in results],
    }
    print("perfbench config: " + json.dumps(config))
    if opts.trace:
        values = per_layer(results, runner.run_id)
    else:
        values = end_to_end(results, setups)
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in values.items()}
    print(json.dumps({"correct": runner.verdict.failed == 0,
                      "attempted": runner.verdict.attempted,
                      "failed": runner.verdict.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
