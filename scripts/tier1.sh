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

    check_catalog names.txt

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
# never shares a run log with the clean runs below.
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

# --- Chaos determinism gate ----------------------------------------
# Chaos must reproduce on any core count (docs/ROBUSTNESS.md
# invariant 1): every fault decision and jitter draw is keyed on the
# measurement, the run and the placement, never on thread
# interleaving. The predictor zoo under jitter plus transient
# measurement failures, run in fresh directories with the default
# pool and forced serial, must print byte-identical stdout. (The zoo
# rather than fig10, whose banner prints the thread count.)
CHAOS_PLAN='machine.jitter:p=1,sigma=0.05,seed=7;lab.measure:p=0.15,seed=11'
CDET_A="$(mktemp -d)"
CDET_B="$(mktemp -d)"
(
    cd "$CDET_A"
    SMITE_FAULTS="$CHAOS_PLAN" \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_predictor_zoo" > zoo.stdout
)
(
    cd "$CDET_B"
    SMITE_THREADS=1 SMITE_FAULTS="$CHAOS_PLAN" \
    SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
        "$REPO/build/bench/bench_predictor_zoo" > zoo.stdout
)
cmp "$CDET_A/zoo.stdout" "$CDET_B/zoo.stdout"
rm -rf "$CDET_A" "$CDET_B"
echo "chaos determinism: ok"

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
# sees a shared run log.
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

# --- Warm-start gate -----------------------------------------------
# The run log (sim/replay.h, smite_replay_cache.txt) carries every
# simulator run into the next process: the same harness run twice in
# one fresh directory must print byte-identical stdout, and the second
# run must replay every run from the log — no replay misses, a nonzero
# preload count.
WARM_DIR="$(mktemp -d)"
(
    cd "$WARM_DIR"
    for run in cold warm; do
        SMITE_METRICS=1 \
        SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000 \
            "$REPO/build/bench/bench_fig10_spec_smt_prediction" \
            > "$run.stdout"
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
rm -rf "$WARM_DIR"
echo "warm start: ok"

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
#     intervals with the default pool and must reproduce the
#     committed (serial) BENCH_pred.json exactly: every result (MAE
#     and signature-run costs; prediction latency lives in `timings`,
#     which is never diffed) and every counter, so no simulation,
#     trial or prediction is added or dropped. Exceptions: the pool.*
#     counters describe the pool's width, and replay hits and waits
#     may split differently between runs, so only their sum is
#     compared. Histograms are not compared (pooled summation order
#     moves the low bits of machine.ipc's sum);
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
    "$REPO/build/tools/report_diff" --tol 0 \
        "$REPO/BENCH_pred.json" fresh_pred.json
    python3 - "$REPO/BENCH_pred.json" fresh_pred.json <<'PY'
import json, sys
def counters(path):
    c = json.load(open(path))["metrics"]["counters"]
    c = {k: v for k, v in c.items() if not k.startswith("pool.")}
    c["machine.replay.hits+waits"] = (c.pop("machine.replay.hits", 0) +
                                      c.pop("machine.replay.waits", 0))
    return c
base, fresh = counters(sys.argv[1]), counters(sys.argv[2])
moved = sorted(k for k in base.keys() | fresh.keys()
               if base.get(k) != fresh.get(k))
if moved:
    sys.exit("BENCH_pred.json: counters differ: " + ", ".join(
        f"{k} {base.get(k)} -> {fresh.get(k)}" for k in moved))
PY

    "$REPO/build/tools/obs_check" report fresh_pred.json |
        grep '^predictor\.' > pred_names.txt || true
    check_catalog pred_names.txt
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
# The warehouse-scale streaming scheduler, three gates in one run
# (docs/SCHEDULING.md):
#  1. bench_scaleout_stress re-runs the 4k/32k/128k-server sweep and
#     checks it against the committed BENCH_sched.json: the six
#     `*_epochs_per_sec` throughputs within report_diff's tolerance,
#     every other result (utilization, goodput, instance counts,
#     digests; exactly reproducible) equal;
#  2. its --determinism mode replays the 4k fleet on the full-scan
#     reference and the calendar engine; run with the default
#     SMITE_THREADS and with SMITE_THREADS=1, the stdouts (timings
#     excluded by construction) must be byte-identical, so the
#     single-threaded stream cannot start depending on the setting;
#  3. every scheduler.* metric the fresh report emitted must appear
#     in the docs/OBSERVABILITY.md catalog (doc-drift check).
SCHED_DIR="$(mktemp -d)"
(
    cd "$SCHED_DIR"
    "$REPO/build/bench/bench_scaleout_stress" fresh_sched.json \
        > sched.stdout
    "$REPO/build/tools/report_diff" --tol 0.6 \
        "$REPO/BENCH_sched.json" fresh_sched.json
    python3 - "$REPO/BENCH_sched.json" fresh_sched.json <<'PY'
import json, sys
def exact(path):
    results = json.load(open(path))["results"]
    return {k: v for k, v in results.items()
            if not k.endswith("_epochs_per_sec")}
base, fresh = exact(sys.argv[1]), exact(sys.argv[2])
moved = sorted(k for k in base.keys() | fresh.keys()
               if base.get(k) != fresh.get(k))
if moved:
    sys.exit("BENCH_sched.json: deterministic results differ: " +
             ", ".join(moved))
PY

    "$REPO/build/bench/bench_scaleout_stress" --determinism \
        > det_default.stdout
    SMITE_THREADS=1 "$REPO/build/bench/bench_scaleout_stress" \
        --determinism > det_serial.stdout
    cmp det_default.stdout det_serial.stdout

    "$REPO/build/tools/obs_check" report fresh_sched.json |
        grep '^scheduler\.' > sched_names.txt
    check_catalog sched_names.txt
)
rm -rf "$SCHED_DIR"
echo "scheduler scale-out smoke: ok"

# --- Load / knee-harness smoke -------------------------------------
# The open-loop load subsystem, three gates (docs/ROBUSTNESS.md,
# EXPERIMENTS.md):
#  1. bench_latency_vs_load re-runs the stepped sweep + knee table +
#     load-aware scheduler scenario and report_diff checks it against
#     the committed BENCH_load.json with zero tolerance (the knees and
#     scenario counters are keyed, so every result is exactly
#     reproducible); every
#     loadgen.* / des.-related metric it emitted must be in the
#     docs/OBSERVABILITY.md catalog;
#  2. determinism: the same run with the default pool and forced
#     serial, in fresh directories with the same output filename,
#     must produce byte-identical stdout, and report JSON identical
#     except for the pool.* metrics (they describe the thread pool,
#     so they depend on its width by definition; a serial run has
#     none);
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
    "$REPO/build/tools/report_diff" --tol 0 \
        "$REPO/BENCH_load.json" BENCH_load.json

    "$REPO/build/tools/obs_check" report BENCH_load.json |
        grep -E '^(loadgen|fault\.des)\.' > load_names.txt || true
    check_catalog load_names.txt
)
(
    cd "$LOAD_B"
    SMITE_THREADS=1 "$REPO/build/bench/bench_latency_vs_load" \
        BENCH_load.json > load.stdout
)
cmp "$LOAD_A/load.stdout" "$LOAD_B/load.stdout"
python3 - "$LOAD_A/BENCH_load.json" "$LOAD_B/BENCH_load.json" <<'PY'
import json, sys
def without_pool(path):
    report = json.load(open(path))
    for kind in report["metrics"].values():
        for name in [n for n in kind if n.startswith("pool.")]:
            del kind[name]
    return json.dumps(report)
if without_pool(sys.argv[1]) != without_pool(sys.argv[2]):
    sys.exit("BENCH_load.json: pooled and serial reports differ "
             "outside the pool.* metrics")
PY
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
