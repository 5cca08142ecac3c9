#!/usr/bin/env bash
# Tier-1 verification: full build + test suite (parallel ctest), a
# ThreadSanitizer pass over the parallel measurement engine, an
# observability smoke run (trace + report emission, validated and
# cross-checked against the documented catalog), and a markdown link
# check over the top-level docs.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO="$PWD"

JOBS="${JOBS:-$(nproc)}"

cmake -B build -S .
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

# Benchmark self-check: perfbench/ still builds against the library,
# emits every metric BENCHMARK.json declares with its unit, and
# reproduces its tiny seed-0 reference digests.
python3 perfbench/selfcheck.py

# Data-race check: the parallel engine's tests under TSan.
cmake -B build-tsan -S . -DSMITE_TSAN=ON
cmake --build build-tsan -j"$JOBS" --target test_parallel
./build-tsan/tests/test_parallel

# --- Observability smoke -------------------------------------------
# Run one real figure harness with tracing + metrics on (tiny
# simulation intervals so it finishes in seconds; the non-default
# intervals get their own scratch disk cache), validate both emitted
# artifacts, and grep every span/metric name the run produced against
# the catalog in docs/OBSERVABILITY.md.
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
(
    cd "$OBS_DIR"
    SMITE_TRACE=1 SMITE_METRICS=1 \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_fig10_spec_smt_prediction" \
        > fig10.stdout

    "$REPO/build/tools/obs_check" trace \
        bench_fig10_spec_smt_prediction.trace.json > names.txt
    "$REPO/build/tools/obs_check" report \
        bench_fig10_spec_smt_prediction.report.json >> names.txt

    missing=0
    while read -r name; do
        if ! grep -qF "\`$name\`" "$REPO/docs/OBSERVABILITY.md"; then
            echo "undocumented observability name: $name" >&2
            missing=1
        fi
    done < names.txt
    [ "$missing" -eq 0 ]

    # With both variables unset, a harness must emit nothing.
    "$REPO/build/bench/bench_table1_machines" > /dev/null
    if ls ./*.trace.json ./*.report.json 2>/dev/null |
        grep -q table1; then
        echo "artifacts emitted without SMITE_TRACE/SMITE_METRICS" >&2
        exit 1
    fi
)
echo "observability smoke: ok"

# --- Chaos smoke ---------------------------------------------------
# The same harness under a four-site fault plan must complete without
# aborting, and the injected-fault / retry counters must be non-zero
# (docs/ROBUSTNESS.md). Runs in a fresh directory so the chaos run
# never shares a disk cache with the clean runs below.
CHAOS_DIR="$(mktemp -d)"
(
    cd "$CHAOS_DIR"
    SMITE_METRICS=1 \
    SMITE_FAULTS='machine.jitter:p=1,sigma=0.05,seed=7;lab.measure:p=0.15,seed=11;disk.corrupt:p=0.2,seed=5;pool.delay:p=0.05,us=50,seed=3' \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_fig10_spec_smt_prediction" \
        > chaos.stdout

    "$REPO/build/tools/obs_check" report \
        bench_fig10_spec_smt_prediction.report.json \
        --nonzero lab.retries \
        fault.machine.jitter.injected \
        fault.lab.measure.injected \
        fault.disk.corrupt.injected > /dev/null
)
rm -rf "$CHAOS_DIR"
echo "chaos smoke: ok"

# --- Online scheduler determinism gate ------------------------------
# The online co-location policy under a pinned churn + observation-
# noise plan must be a pure function of the armed seeds: two runs in
# fresh directories — one with the default thread pool, one forced
# serial — must produce byte-identical stdout (same pattern as the
# chaos smoke; docs/ROBUSTNESS.md).
ONLINE_PLAN='server.fail:p=0.05,seed=29;scheduler.observe:p=1,sigma=0.01,seed=31'
ONL_A="$(mktemp -d)"
ONL_B="$(mktemp -d)"
(
    cd "$ONL_A"
    SMITE_FAULTS="$ONLINE_PLAN" \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_fig19_online_policy" > fig19.stdout
)
(
    cd "$ONL_B"
    SMITE_THREADS=1 SMITE_FAULTS="$ONLINE_PLAN" \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_fig19_online_policy" > fig19.stdout
)
cmp "$ONL_A/fig19.stdout" "$ONL_B/fig19.stdout"
rm -rf "$ONL_A" "$ONL_B"
echo "online scheduler determinism: ok"

# --- Determinism check ---------------------------------------------
# With SMITE_FAULTS unset, two runs in fresh directories must produce
# byte-identical stdout — the fault layer at rest changes nothing.
DET_A="$(mktemp -d)"
DET_B="$(mktemp -d)"
for d in "$DET_A" "$DET_B"; do
    (
        cd "$d"
        SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
            "$REPO/build/bench/bench_fig10_spec_smt_prediction" \
            > fig10.stdout
    )
done
cmp "$DET_A/fig10.stdout" "$DET_B/fig10.stdout"
rm -rf "$DET_A" "$DET_B"
echo "determinism: ok"

# --- Replay byte-identity gate --------------------------------------
# The run-level ReplayStore (sim/replay.h) claims byte-identity: a
# figure harness with interval memoization on (the default) must
# produce stdout byte-identical to the same run with SMITE_SIM_MEMO=0
# (every interval simulated live). Fresh directories so neither run
# sees a shared disk cache.
MEMO_ON="$(mktemp -d)"
MEMO_OFF="$(mktemp -d)"
(
    cd "$MEMO_ON"
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_fig10_spec_smt_prediction" \
        > fig10.stdout
)
(
    cd "$MEMO_OFF"
    SMITE_SIM_MEMO=0 \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_fig10_spec_smt_prediction" \
        > fig10.stdout
)
cmp "$MEMO_ON/fig10.stdout" "$MEMO_OFF/fig10.stdout"
rm -rf "$MEMO_ON" "$MEMO_OFF"
echo "replay byte-identity: ok"

# --- Simulator perf smoke ------------------------------------------
# Re-run the simulation-substrate microbenchmarks (CPU-time medians)
# and diff the fresh report against the committed baseline. The
# tolerance is deliberately generous: machine-to-machine variance
# passes, an accidental hot-path regression of the simulator (the
# quantity BENCH_sim.json exists to pin) fails with the exact metric
# that moved. Coverage spans every committed metric — solo, SMT-pair
# and CMP-pair machine shapes (cmp_pair exercises the multi-core
# wake list), their `*_nomemo` live-path counterparts (so a live-
# simulator regression can't hide behind replay hits), plus the
# cache/TLB/trace/fit kernels.
PERF_DIR="$(mktemp -d)"
(
    cd "$PERF_DIR"
    "$REPO/build/bench/bench_sim_micro" fresh.json > bench.stdout
    "$REPO/build/tools/report_diff" --tol 0.6 \
        "$REPO/BENCH_sim.json" fresh.json
)
rm -rf "$PERF_DIR"
echo "perf smoke: ok"

# --- Predictor zoo smoke -------------------------------------------
# The predictor shoot-out (core/predictor.h), three gates in one run:
#  1. bench_predictor_zoo re-runs the head-to-head at the smoke
#     intervals and report_diff checks it against the committed
#     BENCH_pred.json (MAE and signature-run costs are exactly
#     reproducible; prediction latency lives in `timings`, which is
#     never diffed);
#  2. determinism: the same run with the default pool and forced
#     serial must produce byte-identical stdout;
#  3. every predictor.* metric the fresh report emitted must appear
#     in the docs/OBSERVABILITY.md catalog (doc-drift check).
PRED_A="$(mktemp -d)"
PRED_B="$(mktemp -d)"
(
    cd "$PRED_A"
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_predictor_zoo" fresh_pred.json \
        > pred.stdout
    "$REPO/build/tools/report_diff" --tol 0.6 \
        "$REPO/BENCH_pred.json" fresh_pred.json

    "$REPO/build/tools/obs_check" report fresh_pred.json |
        grep '^predictor\.' > pred_names.txt || true
    missing=0
    while read -r name; do
        if ! grep -qF "\`$name\`" "$REPO/docs/OBSERVABILITY.md"; then
            echo "undocumented predictor metric: $name" >&2
            missing=1
        fi
    done < pred_names.txt
    [ "$missing" -eq 0 ]
)
(
    cd "$PRED_B"
    SMITE_THREADS=1 \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_predictor_zoo" fresh_pred.json \
        > pred.stdout
)
cmp "$PRED_A/pred.stdout" "$PRED_B/pred.stdout"
rm -rf "$PRED_A" "$PRED_B"
echo "predictor zoo smoke: ok"

# --- Scheduler scale-out smoke -------------------------------------
# The warehouse-scale sharded scheduler, three gates in one run
# (docs/SCHEDULING.md):
#  1. bench_scaleout_stress re-runs the 4k/32k/128k-server sweep and
#     report_diff checks it against the committed BENCH_sched.json —
#     throughput within tolerance, and the (exactly reproducible)
#     utilization/goodput/digest results byte-stable;
#  2. its --determinism mode replays the 4k fleet at shard counts
#     1/4/16 with the default pool and forced serial, and the stdouts
#     (timings excluded by construction) must be byte-identical;
#  3. every scheduler.* metric the fresh report emitted must appear
#     in the docs/OBSERVABILITY.md catalog (doc-drift check).
SCHED_DIR="$(mktemp -d)"
(
    cd "$SCHED_DIR"
    "$REPO/build/bench/bench_scaleout_stress" fresh_sched.json \
        > sched.stdout
    "$REPO/build/tools/report_diff" --tol 0.6 \
        "$REPO/BENCH_sched.json" fresh_sched.json

    "$REPO/build/bench/bench_scaleout_stress" --determinism \
        > det_default.stdout
    SMITE_THREADS=1 "$REPO/build/bench/bench_scaleout_stress" \
        --determinism > det_serial.stdout
    cmp det_default.stdout det_serial.stdout

    "$REPO/build/tools/obs_check" report fresh_sched.json |
        grep '^scheduler\.' > sched_names.txt
    missing=0
    while read -r name; do
        if ! grep -qF "\`$name\`" "$REPO/docs/OBSERVABILITY.md"; then
            echo "undocumented scheduler metric: $name" >&2
            missing=1
        fi
    done < sched_names.txt
    [ "$missing" -eq 0 ]
)
rm -rf "$SCHED_DIR"
echo "scheduler scale-out smoke: ok"

# --- Load / knee-harness smoke -------------------------------------
# The open-loop load subsystem, three gates (docs/ROBUSTNESS.md,
# EXPERIMENTS.md):
#  1. bench_latency_vs_load re-runs the stepped sweep + knee table +
#     load-aware scheduler scenario and report_diff checks it against
#     the committed BENCH_load.json (knee QPS within tolerance, the
#     exactly-reproducible scenario counters byte-stable); every
#     loadgen.* / des.-related metric it emitted must be in the
#     docs/OBSERVABILITY.md catalog;
#  2. determinism: the same run with the default pool and forced
#     serial, in fresh directories with the same output filename,
#     must produce byte-identical stdout and report JSON;
#  3. chaos: under a pinned three-site des.* plan the harness must
#     still pass its internal monotonicity/shedding assertions, be
#     byte-deterministic across thread counts, and count injections.
LOAD_PLAN='des.server_stall:p=0.05,sigma=0.5,seed=7;des.drop:p=0.002,seed=13;des.arrival_burst:p=0.02,sigma=1.0,seed=9'
LOAD_A="$(mktemp -d)"
LOAD_B="$(mktemp -d)"
(
    cd "$LOAD_A"
    "$REPO/build/bench/bench_latency_vs_load" \
        BENCH_load.json > load.stdout
    "$REPO/build/tools/report_diff" --tol 0.6 \
        "$REPO/BENCH_load.json" BENCH_load.json

    "$REPO/build/tools/obs_check" report BENCH_load.json |
        grep -E '^(loadgen|fault\.des)\.' > load_names.txt || true
    missing=0
    while read -r name; do
        if ! grep -qF "\`$name\`" "$REPO/docs/OBSERVABILITY.md"; then
            echo "undocumented loadgen metric: $name" >&2
            missing=1
        fi
    done < load_names.txt
    [ "$missing" -eq 0 ]
)
(
    cd "$LOAD_B"
    SMITE_THREADS=1 "$REPO/build/bench/bench_latency_vs_load" \
        BENCH_load.json > load.stdout
)
cmp "$LOAD_A/load.stdout" "$LOAD_B/load.stdout"
cmp "$LOAD_A/BENCH_load.json" "$LOAD_B/BENCH_load.json"
rm -rf "$LOAD_A" "$LOAD_B"

LOAD_CA="$(mktemp -d)"
LOAD_CB="$(mktemp -d)"
(
    cd "$LOAD_CA"
    SMITE_FAULTS="$LOAD_PLAN" \
        "$REPO/build/bench/bench_latency_vs_load" \
        BENCH_load.json > load.stdout
    "$REPO/build/tools/obs_check" report BENCH_load.json \
        --nonzero fault.des.server_stall.injected \
        fault.des.drop.injected \
        fault.des.arrival_burst.injected > /dev/null
)
(
    cd "$LOAD_CB"
    SMITE_THREADS=1 SMITE_FAULTS="$LOAD_PLAN" \
        "$REPO/build/bench/bench_latency_vs_load" \
        BENCH_load.json > load.stdout
)
cmp "$LOAD_CA/load.stdout" "$LOAD_CB/load.stdout"
rm -rf "$LOAD_CA" "$LOAD_CB"
echo "load smoke: ok"

# --- Debug/Release equivalence -------------------------------------
# The optimized simulator kernels must not change a single output
# byte across optimization levels: run one figure harness from an
# asserts-on Debug build and byte-compare its stdout with the default
# (-O2, NDEBUG) build's.
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug
cmake --build build-debug -j"$JOBS" \
    --target bench_fig10_spec_smt_prediction
DBG_A="$(mktemp -d)"
DBG_B="$(mktemp -d)"
(
    cd "$DBG_A"
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_fig10_spec_smt_prediction" > out.txt
)
(
    cd "$DBG_B"
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build-debug/bench/bench_fig10_spec_smt_prediction" \
        > out.txt
)
cmp "$DBG_A/out.txt" "$DBG_B/out.txt"
rm -rf "$DBG_A" "$DBG_B"
echo "debug/release equivalence: ok"

# --- Markdown link check -------------------------------------------
# Every relative link target in the top-level docs must exist.
bad_links=0
for doc in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md; do
    dir="$(dirname "$doc")"
    while read -r target; do
        case "$target" in
        http://* | https://* | "#"*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            echo "$doc: broken link -> $target" >&2
            bad_links=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$doc" 2>/dev/null |
        sed -E 's/^\]\(//; s/\)$//')
done
[ "$bad_links" -eq 0 ]
echo "markdown links: ok"
