#!/usr/bin/env bash
# Tier-1 verification: a doc inventory gate, full build + test suite
# (parallel ctest), a ThreadSanitizer pass over the parallel
# measurement engine, an observability smoke run (trace + report
# emission, validated and cross-checked against the documented
# catalog), chaos and determinism gates, perf smokes against the
# committed baselines, and a markdown link check over the top-level
# docs.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO="$PWD"

JOBS="${JOBS:-$(nproc)}"

# Every run below works in a fresh directory under $RUNS, so no run
# shares a run log with another; one trap removes them all, whichever
# gate fails.
RUNS="$(mktemp -d)"
trap 'rm -rf "$RUNS"' EXIT
BIN="$REPO/build/bench"
TOOLS="$REPO/build/tools"
SMOKE='SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000'

# pair OUT CMD_A CMD_B: run the shell commands CMD_A and CMD_B, each
# in a fresh directory with its stdout in OUT, and byte-compare the
# two OUTs. PAIR_A and PAIR_B name the directories for later checks.
pair() {
    PAIR_A="$(mktemp -d -p "$RUNS")"
    PAIR_B="$(mktemp -d -p "$RUNS")"
    (cd "$PAIR_A" && eval "$2" > "$1")
    (cd "$PAIR_B" && eval "$3" > "$1")
    cmp "$PAIR_A/$1" "$PAIR_B/$1"
}

# Doc-drift check: every metric or span name listed in FILE (one per
# line) must appear, backticked, in the docs/OBSERVABILITY.md catalog.
check_catalog() {
    local missing=0 name
    while read -r name; do
        if ! grep -qF "\`$name\`" "$REPO/docs/OBSERVABILITY.md"; then
            echo "undocumented observability name: $name ($1)" >&2
            missing=1
        fi
    done < "$1"
    [ "$missing" -eq 0 ]
}

# --- Doc inventory gate --------------------------------------------
# Source files and types come and go; the docs that point at them must
# follow.
#  1. each `src/<module>` row of DESIGN.md section 3 names exactly the
#     .h/.cpp files in that directory (`x.h/.cpp` names both);
#  2. every backticked source path (`src/...` or `<dir>/<file>.h|.cpp`,
#     the latter relative to the repo root or to src/) in the
#     top-level docs, docs/*.md and the verify skill exists;
#  3. every backticked qualified C++ name (`ns::Name`,
#     `Class::member`) in those docs is made of identifiers that occur
#     in src/, bench/, tools/, tests/ or examples/.
python3 - <<'PY'
import pathlib, re, sys
root = pathlib.Path(".")
bad = []

# 1. DESIGN.md section 3: each src/<module> row names exactly the
#    .h/.cpp files in that directory (`x.h/.cpp` names both).
design = (root / "DESIGN.md").read_text()
inventory = design.split("## 3.", 1)[1].split("\n## ", 1)[0]
rows = 0
for line in inventory.splitlines():
    m = re.match(r"\| `(src/[a-z]+)` \|", line)
    if not m:
        continue
    rows += 1
    named = set()
    for tok in re.findall(r"`([^`]+)`", line):
        f = re.fullmatch(r"(\w+)\.(h|cpp|h/\.cpp)", tok)
        if f:
            exts = ["h", "cpp"] if f.group(2) == "h/.cpp" else [f.group(2)]
            named |= {f"{f.group(1)}.{e}" for e in exts}
    on_disk = {p.name for p in (root / m.group(1)).iterdir()
               if p.suffix in (".h", ".cpp")}
    for f in sorted(on_disk - named):
        bad.append(f"DESIGN.md: {m.group(1)} row omits {f}")
    for f in sorted(named - on_disk):
        bad.append(f"DESIGN.md: {m.group(1)} row names missing {f}")
if rows == 0:
    bad.append("DESIGN.md: no src/<module> rows found in section 3")

# 2. Every backticked source path in the docs exists.
docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md"]
docs += sorted(str(p.relative_to(root)) for p in (root / "docs").glob("*.md"))
for doc in docs:
    for n, line in enumerate((root / doc).read_text().splitlines(), 1):
        for tok in re.findall(r"`([^`\s]+)`", line):
            if re.fullmatch(r"src/[\w./-]*\w", tok):
                candidates = [root / tok]
            elif re.fullmatch(r"[\w.]+(/[\w.]+)*/\w+\.(h|cpp)", tok):
                candidates = [root / tok, root / "src" / tok]
            else:
                continue
            if not any(c.exists() for c in candidates):
                bad.append(f"{doc}:{n}: no such source path `{tok}`")

# 3. Every backticked qualified C++ name in the docs is made of
#    identifiers the code still contains.
code_ids = set()
for d in ("src", "bench", "tools", "tests", "examples"):
    for p in (root / d).rglob("*"):
        if p.suffix in (".h", ".cpp"):
            code_ids |= set(re.findall(r"\w+", p.read_text()))
for doc in docs:
    for n, line in enumerate((root / doc).read_text().splitlines(), 1):
        for tok in re.findall(r"`([^`]+)`", line):
            for name in re.findall(r"\w+(?:::\w+)+", tok):
                if any(i not in code_ids for i in name.split("::")):
                    bad.append(f"{doc}:{n}: no such C++ name `{name}`")
for problem in bad:
    print(problem, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
echo "doc inventory: ok"

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
# simulation intervals so it finishes in seconds, in a fresh directory
# so every run simulates), validate both emitted artifacts, and grep
# every span/metric name the run produced against the catalog in
# docs/OBSERVABILITY.md.
OBS_DIR="$(mktemp -d -p "$RUNS")"
(
    cd "$OBS_DIR"
    SMITE_TRACE=1 SMITE_METRICS=1 \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$BIN/bench_fig10_spec_smt_prediction" > fig10.stdout

    "$TOOLS/obs_check" trace \
        bench_fig10_spec_smt_prediction.trace.json > names.txt
    "$TOOLS/obs_check" report \
        bench_fig10_spec_smt_prediction.report.json >> names.txt

    check_catalog names.txt

    # With both variables unset, a harness must emit nothing.
    "$BIN/bench_table1_machines" > /dev/null
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
# (docs/ROBUSTNESS.md).
CHAOS_DIR="$(mktemp -d -p "$RUNS")"
(
    cd "$CHAOS_DIR"
    SMITE_METRICS=1 \
    SMITE_FAULTS='machine.jitter:p=1,sigma=0.05,seed=7;lab.measure:p=0.15,seed=11;disk.corrupt:p=0.2,seed=5;pool.delay:p=0.05,us=50,seed=3' \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$BIN/bench_fig10_spec_smt_prediction" > chaos.stdout

    "$TOOLS/obs_check" report \
        bench_fig10_spec_smt_prediction.report.json \
        --nonzero lab.retries \
        fault.machine.jitter.injected \
        fault.lab.measure.injected \
        fault.disk.corrupt.injected > /dev/null
)
echo "chaos smoke: ok"

# --- Chaos determinism gate ----------------------------------------
# Chaos must reproduce on any core count (docs/ROBUSTNESS.md
# invariant 1): every fault decision and jitter draw is keyed on the
# measurement, the run and the placement, never on thread
# interleaving. The predictor zoo under jitter plus transient
# measurement failures, with the default pool and forced serial, must
# print byte-identical stdout. (The zoo rather than fig10, whose
# banner prints the thread count.)
ZOO_CHAOS="SMITE_FAULTS='machine.jitter:p=1,sigma=0.05,seed=7;lab.measure:p=0.15,seed=11' $SMOKE \"\$BIN/bench_predictor_zoo\""
pair zoo.stdout "$ZOO_CHAOS" "SMITE_THREADS=1 $ZOO_CHAOS"
echo "chaos determinism: ok"

# --- Online scheduler determinism gate ------------------------------
# The online co-location policy under a pinned churn + observation-
# noise plan must be a pure function of the armed seeds: the default
# pool and forced serial must produce byte-identical stdout
# (docs/ROBUSTNESS.md).
FIG19="SMITE_FAULTS='server.fail:p=0.05,seed=29;scheduler.observe:p=1,sigma=0.01,seed=31' $SMOKE \"\$BIN/bench_fig19_online_policy\""
pair fig19.stdout "$FIG19" "SMITE_THREADS=1 $FIG19"
echo "online scheduler determinism: ok"

# --- Determinism check ---------------------------------------------
# With SMITE_FAULTS unset, two runs must produce byte-identical
# stdout — the fault layer at rest changes nothing.
FIG10="$SMOKE \"\$BIN/bench_fig10_spec_smt_prediction\""
pair fig10.stdout "$FIG10" "$FIG10"
echo "determinism: ok"

# --- Replay byte-identity gate --------------------------------------
# The run-level ReplayStore (sim/replay.h) claims byte-identity: a
# figure harness with interval memoization on (the default) must
# produce stdout byte-identical to the same run with SMITE_SIM_MEMO=0
# (every interval simulated live).
pair fig10.stdout "$FIG10" "SMITE_SIM_MEMO=0 $FIG10"
echo "replay byte-identity: ok"

# --- Warm-start gate -----------------------------------------------
# The run log (sim/replay.h, smite_replay_cache.txt) carries every
# simulator run into the next process: the same harness run twice in
# one fresh directory must print byte-identical stdout, and the second
# run must replay every run from the log — no replay misses, a nonzero
# preload count.
WARM_DIR="$(mktemp -d -p "$RUNS")"
(
    cd "$WARM_DIR"
    for run in cold warm; do
        SMITE_METRICS=1 \
        SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
            "$BIN/bench_fig10_spec_smt_prediction" > "$run.stdout"
    done
    cmp cold.stdout warm.stdout
    python3 - bench_fig10_spec_smt_prediction.report.json <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["metrics"]["counters"]
misses = counters.get("machine.replay.misses", 0)
preloaded = counters.get("machine.replay.preloaded", 0)
if misses != 0 or preloaded == 0:
    sys.exit(f"warm run: machine.replay.misses={misses} (want 0), "
             f"machine.replay.preloaded={preloaded} (want > 0)")
PY
)
echo "warm start: ok"

# --- Committed baselines -------------------------------------------
# Each BENCH_*.json at the repository root carries the `gate` block
# its harness declares (obs/diff.h): which leaves are compared, and
# within what relative tolerance. `report_diff BASELINE FRESH` applies
# it, and fails when the harness's gate drifted from the baseline's.

# Simulator perf smoke: re-run the simulation-substrate
# microbenchmarks (CPU-time medians). The gate's symmetric 0.6 bound
# passes machine-to-machine variance and any change up to 2.5x either
# way; it catches a kernel that broke or got several times slower,
# not an ordinary hot-path regression (ROADMAP item 4).
PERF_DIR="$(mktemp -d -p "$RUNS")"
(
    cd "$PERF_DIR"
    "$BIN/bench_sim_micro" fresh.json > bench.stdout
    "$TOOLS/report_diff" "$REPO/BENCH_sim.json" fresh.json
)
echo "perf smoke: ok"

# Predictor zoo (core/predictor.h): the head-to-head at the smoke
# intervals with the default pool must reproduce the committed
# (serial) BENCH_pred.json under its gate — every result and every
# counter but the pool- and timing-dependent ones, so no simulation,
# trial or prediction is added or dropped; the same run forced serial
# must print byte-identical stdout; and every metric in its report
# must be in the docs/OBSERVABILITY.md catalog.
ZOO="$SMOKE \"\$BIN/bench_predictor_zoo\" fresh_pred.json"
pair pred.stdout "$ZOO" "SMITE_THREADS=1 $ZOO"
(
    cd "$PAIR_A"
    "$TOOLS/report_diff" "$REPO/BENCH_pred.json" fresh_pred.json
    "$TOOLS/obs_check" report fresh_pred.json > pred_names.txt
    check_catalog pred_names.txt
)
echo "predictor zoo smoke: ok"

# Scheduler scale-out (docs/SCHEDULING.md): bench_scaleout_stress
# re-runs the 4k/32k/128k-server sweep against BENCH_sched.json (the
# `*_epochs_per_sec` throughputs within 0.6, every other result
# exact); its --determinism mode (no timings in its stdout) must be
# byte-identical with the default SMITE_THREADS and with
# SMITE_THREADS=1, so the single-threaded stream cannot start
# depending on the setting; and every metric in its report must be in
# the catalog.
SCHED_DIR="$(mktemp -d -p "$RUNS")"
(
    cd "$SCHED_DIR"
    "$BIN/bench_scaleout_stress" fresh_sched.json > sched.stdout
    "$TOOLS/report_diff" "$REPO/BENCH_sched.json" fresh_sched.json
    "$TOOLS/obs_check" report fresh_sched.json > sched_names.txt
    check_catalog sched_names.txt
)
pair det.stdout '"$BIN/bench_scaleout_stress" --determinism' \
    'SMITE_THREADS=1 "$BIN/bench_scaleout_stress" --determinism'
echo "scheduler scale-out smoke: ok"

# Load / knee harness (docs/ROBUSTNESS.md, EXPERIMENTS.md): the
# stepped sweep, knee table and load-aware scenario are keyed, so the
# whole report must equal BENCH_load.json but for the pool.* metrics
# (they follow the pool's width; a serial run has none). The default
# pool and forced serial must print byte-identical stdout and write
# reports that pass the same gate, and every metric in its report must
# be in the catalog. Under a pinned three-site des.* chaos plan the
# harness must still pass its internal monotonicity and shedding
# assertions, be byte-deterministic across thread counts, and count
# injections.
LOAD='"$BIN/bench_latency_vs_load" BENCH_load.json'
pair load.stdout "$LOAD" "SMITE_THREADS=1 $LOAD"
(
    cd "$PAIR_A"
    "$TOOLS/report_diff" "$REPO/BENCH_load.json" BENCH_load.json
    "$TOOLS/report_diff" BENCH_load.json "$PAIR_B/BENCH_load.json"
    "$TOOLS/obs_check" report BENCH_load.json > load_names.txt
    check_catalog load_names.txt
)
LOAD_CHAOS="SMITE_FAULTS='des.server_stall:p=0.05,sigma=0.5,seed=7;des.drop:p=0.002,seed=13;des.arrival_burst:p=0.02,sigma=1.0,seed=9' $LOAD"
pair load.stdout "$LOAD_CHAOS" "SMITE_THREADS=1 $LOAD_CHAOS"
"$TOOLS/obs_check" report "$PAIR_A/BENCH_load.json" \
    --nonzero fault.des.server_stall.injected \
    fault.des.drop.injected \
    fault.des.arrival_burst.injected > /dev/null
echo "load smoke: ok"

# --- Debug/Release equivalence -------------------------------------
# The optimized simulator kernels must not change a single output
# byte across optimization levels: one figure harness from an
# asserts-on Debug build must print the same stdout as the default
# build's. The default build defines NDEBUG, so the simulator's
# asserts (the cache's prefix-fill invariant and insertAbsent's
# absence precondition among them) run only here: the Debug build
# also runs the cache, memory-system and golden-simulator tests.
DEBUG_TESTS="test_golden_sim test_cache test_memory_system"
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug
cmake --build build-debug -j"$JOBS" \
    --target bench_fig10_spec_smt_prediction $DEBUG_TESTS
for t in $DEBUG_TESTS; do
    "./build-debug/tests/$t" --gtest_brief=1
done
pair out.txt "$FIG10" \
    "$SMOKE \"\$REPO/build-debug/bench/bench_fig10_spec_smt_prediction\""
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
