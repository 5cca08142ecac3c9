/**
 * @file
 * One timed run of the end-to-end benchmark, in a fresh process.
 *
 *   smite_perfbench pipeline --seed N --dir DIR --threads T
 *                            [--trace] [--tiny] [--setup-only]
 *                            [--run-id ID]
 *   smite_perfbench fleet    --seed N --threads T
 *                            [--trace] [--tiny] [--setup-only]
 *                            [--run-id ID]
 *
 * `pipeline` is the paper's flow on Ivy Bridge in SMT mode against a
 * Lab whose disk cache lives in DIR: training signatures and pairs,
 * the predictor-zoo fit, held-out signatures, pairs and predictions,
 * the multi-instance CloudSuite grid turned into QoS tables, a
 * 4,000-server streaming run over those tables, and a knee search per
 * latency service and co-location depth. run.py passes an empty DIR,
 * so every measurement simulates.
 *
 * `fleet` streams churn through a heterogeneous Table 1 fleet of
 * 131,072 servers built from keyed synthetic QoS tables: scheduler
 * and thread pool only, no simulation.
 *
 * --setup-only exits at the first timed call, for set-up time samples.
 *
 * The process prints one JSON object on stdout: monotonic timestamps
 * (the parent derives set-up time from them), wall and CPU time of
 * the timed phase, peak RSS, counter deltas of the timed phase, an
 * output digest, the correctness checks and, with --trace, the spans
 * recorded around every call into a library layer. run.py drives it.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/smite.h"
#include "loadgen/knee.h"
#include "obs/obs.h"
#include "scheduler/keyed.h"
#include "scheduler/shard.h"
#include "workload/cloudsuite.h"
#include "workload/spec2006.h"

using namespace smite;

namespace {

constexpr auto kMode = core::CoLocationMode::kSmt;

/** The seed whose split is the paper's even/odd one. */
constexpr std::uint64_t kDefaultSeed = 0;

/** Batch applications of the multi-instance grid: one compute-bound,
    one memory-bound, so the tables span light to heavy interference. */
const char *const kGridBatch[] = {"456.hmmer", "470.lbm"};

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** FNV-1a over the bit patterns of every checked output. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Spans around the benchmark's calls into the library, kept in
 * memory and emitted with the result. Disabled, a scope reads no
 * clock.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t)
        {
            if (!t_.on_)
                return;
            idx_ = static_cast<int>(t_.spans_.size());
            const int parent = t_.open_.empty() ? -1 : t_.open_.back();
            t_.spans_.push_back({name, monotonicSeconds(), 0.0, parent});
            t_.open_.push_back(idx_);
        }
        ~Scope()
        {
            if (idx_ < 0)
                return;
            t_.spans_[static_cast<std::size_t>(idx_)].end =
                monotonicSeconds();
            t_.open_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int idx_ = -1;
    };

    bool on() const { return on_; }

    obs::json::Value toJson(const std::string &run_id) const
    {
        obs::json::Value out = obs::json::Value::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            obs::json::Value s = obs::json::Value::object();
            s.set("id", run_id);
            s.set("span", static_cast<double>(i));
            s.set("name", spans_[i].name);
            s.set("start", spans_[i].start);
            s.set("end", spans_[i].end);
            s.set("parent", spans_[i].parent);
            out.push(std::move(s));
        }
        return out;
    }

  private:
    struct Span {
        std::string name;
        double start;
        double end;
        int parent;
    };
    bool on_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Counter values of the process-wide registry. */
std::map<std::string, double>
counterSnapshot()
{
    std::map<std::string, double> out;
    const obs::json::Value snap = obs::Registry::global().toJson();
    if (const obs::json::Value *c = snap.find("counters")) {
        for (const auto &[name, v] : c->fields())
            out[name] = v.asNumber();
    }
    return out;
}

/** Thread-pool batches so far (the scheduler's per-epoch fan-out). */
double
poolBatches()
{
    return static_cast<double>(
        obs::Registry::global().counter("pool.batches").value());
}

obs::json::Value
counterDeltas(const std::map<std::string, double> &before)
{
    obs::json::Value out = obs::json::Value::object();
    for (const auto &[name, v] : counterSnapshot()) {
        const auto it = before.find(name);
        out.set(name, v - (it == before.end() ? 0.0 : it->second));
    }
    return out;
}

/** Outcome bookkeeping shared by both workloads. */
struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 32)
                failures.push_back(what);
        }
    }
};

/** The conservation identities of one streaming run. */
void
checkConservation(Checks &checks, const scheduler::StreamResult &r)
{
    checks.expect(r.placed - r.departures - r.lost ==
                          r.guaranteedInstances &&
                      r.evictions == r.replacements + r.lost,
                  "stream conservation identity violated");
}

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    std::string dir = ".";
    std::string runId = "run";
    int threads = 1;
    bool trace = false;
    bool tiny = false;
    bool setupOnly = false;  ///< stop at the first timed call
};

/** What each workload hands back to main() for the JSON result. */
struct Outcome {
    double tTimed = 0.0;  ///< monotonic time of the first timed call
    double wallS = 0.0;
    double cpuS = 0.0;
    Digest digest;
    Checks checks;
    obs::json::Value extra = obs::json::Value::object();
    std::map<std::string, double> countersBefore;
};

/** Starts the timed phase: stamps the clocks and snapshots counters. */
struct TimedPhase {
    explicit TimedPhase(Outcome &o) : out(o)
    {
        out.countersBefore = counterSnapshot();
        cpu0 = cpuSeconds();
        out.tTimed = monotonicSeconds();
    }
    void stop()
    {
        out.wallS = monotonicSeconds() - out.tTimed;
        out.cpuS = cpuSeconds() - cpu0;
    }
    Outcome &out;
    double cpu0 = 0.0;
};

/** Both QoS tiers on: guaranteed at 0.90, best-effort fillers to 0.60. */
constexpr scheduler::TierPolicy kTiers{0.90, 0.60};

/** Churn of bench_scaleout_stress: arrivals, departures, failures. */
scheduler::ChurnConfig
churnFor(std::int64_t servers, std::uint64_t seed)
{
    scheduler::ChurnConfig churn;
    churn.arrivalsPerEpoch = static_cast<int>(servers / 128);
    churn.departProb = 0.01;
    churn.failProb = 0.002;
    churn.recoverProb = 0.25;
    churn.probesPerJob = 4;
    churn.seed = seed;
    return churn;
}

/**
 * @p calls streaming runs of @p epochs epochs. Each call restarts from
 * an empty placement on the same keyed trace, so all must agree; the
 * per-call times give epochs per second.
 */
void
streamRuns(scheduler::ShardedCluster &cluster,
           const scheduler::ChurnConfig &churn, int epochs, int calls,
           Tracer &tracer, Outcome &out)
{
    const double batches0 = poolBatches();
    obs::json::Value seconds = obs::json::Value::array();
    std::uint64_t first_digest = 0;
    for (int c = 0; c < calls; ++c) {
        scheduler::StreamResult r;
        const double t0 = monotonicSeconds();
        {
            Tracer::Scope s(tracer, "scheduler.stream");
            r = cluster.runStream(kTiers, churn, epochs);
        }
        seconds.push(monotonicSeconds() - t0);
        checkConservation(out.checks, r);
        if (c == 0) {
            first_digest = r.digest;
            out.digest.add(r.digest);
            out.digest.add(r.goodputUtilization());
        } else {
            out.checks.expect(r.digest == first_digest,
                              "repeated stream diverged");
        }
    }
    out.extra.set("stream_pool_batches", poolBatches() - batches0);
    out.extra.set("stream_epochs", epochs);
    out.extra.set("stream_s", std::move(seconds));
}

// ---------------------------------------------------------------------
// pipeline

/**
 * How hard a profile leans on the shared cache: loads that miss the
 * stack and hot regions, weighted by the footprint's size class. Only
 * static profile fields, so the split is fixed before any measurement.
 */
double
memoryPressure(const workload::WorkloadProfile &p)
{
    return p.mixOf(sim::UopType::kLoad) * (1.0 - p.stackProb) *
           (1.0 - p.hotProb) *
           std::log2(static_cast<double>(p.dataFootprint));
}

/**
 * The train/test split of the 29 SPEC profiles. The default seed keeps
 * the paper's even/odd split. Any other seed stratifies: profiles
 * ranked by memoryPressure() form neighbouring couples, and a keyed
 * coin sends one of each couple to training and the other to the test
 * set (the odd one out is tested). Both sides then span the same
 * range of behaviour, so the held-out error does not hinge on one
 * unlucky draw. The tiny scale takes the first few of each side.
 */
void
splitFor(std::uint64_t seed, bool tiny,
         std::vector<workload::WorkloadProfile> &train,
         std::vector<workload::WorkloadProfile> &test)
{
    train = workload::spec2006::evenNumbered();
    test = workload::spec2006::oddNumbered();
    if (seed != kDefaultSeed) {
        std::vector<workload::WorkloadProfile> ranked =
            workload::spec2006::all();
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto &a, const auto &b) {
                             return memoryPressure(a) < memoryPressure(b);
                         });
        train.clear();
        test.clear();
        for (std::size_t i = 0; i + 1 < ranked.size(); i += 2) {
            const bool flip = scheduler::keyed::draw(seed, 0x5b1, i, 0) & 1;
            train.push_back(ranked[i + (flip ? 1 : 0)]);
            test.push_back(ranked[i + (flip ? 0 : 1)]);
        }
        if (ranked.size() % 2 == 1)
            test.push_back(ranked.back());
    }
    if (tiny) {  // each side still needs > 22 samples for the PMU fit
        train.resize(6);
        test.resize(6);
    }
}

std::vector<workload::WorkloadProfile>
gridBatchProfiles()
{
    std::vector<workload::WorkloadProfile> out;
    for (const char *name : kGridBatch)
        out.push_back(workload::spec2006::byName(name));
    return out;
}

Outcome
runPipeline(const Options &opt)
{
    const sim::MachineConfig config = sim::MachineConfig::ivyBridge();
    const sim::Cycle warmup =
        opt.tiny ? 2'000 : sim::kDefaultWarmupCycles;
    const sim::Cycle measure =
        opt.tiny ? 8'000 : sim::kDefaultMeasureCycles;
    const int depth = config.numCores;  // latency threads = max batch

    std::vector<workload::WorkloadProfile> train, test;
    splitFor(opt.seed, opt.tiny, train, test);
    std::vector<workload::WorkloadProfile> latency =
        workload::cloudsuite::all();
    if (opt.tiny)
        latency.resize(1);
    const std::vector<workload::WorkloadProfile> batch =
        gridBatchProfiles();

    const double lab0 = monotonicSeconds();
    core::Lab lab(config, opt.dir + "/lab_cache.txt", warmup, measure);
    lab.setParallelism(opt.threads);
    const double lab_setup_s = monotonicSeconds() - lab0;

    Outcome out;
    if (opt.setupOnly) {
        out.tTimed = monotonicSeconds();
        return out;
    }
    Tracer tracer(opt.trace);
    Digest &digest = out.digest;
    Checks &checks = out.checks;
    std::vector<double> predict_ns;

    TimedPhase timed(out);
    {
        Tracer::Scope root(tracer, "pipeline");

        // Two folds over one set of measurements: fit on the training
        // set and predict the test set's ordered pairs, then the other
        // way round. Averaging the folds keeps the held-out error from
        // hinging on which side a profile fell.
        auto measureSide = [&](const auto &profiles) {
            {
                Tracer::Scope s(tracer, "core.signatures");
                lab.characterizeAll(profiles, kMode);
                lab.pmuProfileAll(profiles);
                lab.soloIpcAll(profiles);
            }
            Tracer::Scope s(tracer, "core.pairs");
            return lab.measureAllPairs(profiles, kMode);
        };
        auto fitSide = [&](const auto &profiles) {
            Tracer::Scope s(tracer, "core.fit");
            return core::trainPredictorZoo(lab, profiles, kMode);
        };
        const std::vector<std::vector<double>> train_pairs =
            measureSide(train);
        const core::PredictorZoo train_zoo = fitSide(train);
        const std::vector<std::vector<double>> test_pairs =
            measureSide(test);
        const core::PredictorZoo test_zoo = fitSide(test);
        const core::Predictor &smite = *train_zoo.predictors.at(0);

        // SMiTe and PMU absolute error sums and pair count of one fold.
        struct FoldError {
            double smite = 0.0, pmu = 0.0;
            int pairs = 0;
        };
        auto predictFold = [&](const core::PredictorZoo &zoo,
                               const std::vector<core::WorkloadSignature> &sigs,
                               const std::vector<std::vector<double>> &actual) {
            FoldError err;
            for (std::size_t i = 0; i < sigs.size(); ++i) {
                for (std::size_t j = 0; j < sigs.size(); ++j) {
                    if (i == j)
                        continue;
                    for (int p = 0; p < 2; ++p) {  // smite, pmu
                        const double t0 =
                            tracer.on() ? monotonicSeconds() : 0.0;
                        const double pred =
                            zoo.predictors.at(p)->predictDegradation(sigs[i],
                                                                     sigs[j]);
                        if (tracer.on())
                            predict_ns.push_back(
                                1e9 * (monotonicSeconds() - t0));
                        checks.expect(std::isfinite(pred) && pred >= 0.0 &&
                                          pred <= 1.0,
                                      "prediction outside [0, 1]");
                        digest.add(pred);
                        (p == 0 ? err.smite : err.pmu) +=
                            std::abs(pred - actual[i][j]);
                    }
                    digest.add(actual[i][j]);
                    ++err.pairs;
                }
            }
            return err;
        };
        FoldError on_test, on_train;
        {
            Tracer::Scope s(tracer, "core.predict");
            on_test = predictFold(train_zoo, test_zoo.signatures, test_pairs);
            on_train = predictFold(test_zoo, train_zoo.signatures, train_pairs);
        }
        const int n_pairs = on_test.pairs + on_train.pairs;
        out.extra.set("smite_mae_pct",
                      100.0 * (on_test.smite + on_train.smite) / n_pairs);
        out.extra.set("pmu_mae_pct",
                      100.0 * (on_test.pmu + on_train.pmu) / n_pairs);
        obs::json::Value folds = obs::json::Value::array();
        folds.push(100.0 * on_test.smite / on_test.pairs);
        folds.push(100.0 * on_train.smite / on_train.pairs);
        out.extra.set("smite_mae_folds_pct", std::move(folds));
        out.extra.set("heldout_pairs", n_pairs);

        // Multi-instance grid -> predicted/actual QoS tables.
        std::vector<scheduler::Pairing> pairings;
        std::vector<std::vector<double>> predicted_deg(latency.size());
        {
            Tracer::Scope s(tracer, "core.multi");
            lab.multiInstancePrefetch(latency, depth, batch, depth, kMode);
            const std::vector<core::WorkloadSignature> lat_sigs =
                core::signaturesOf(lab, latency, kMode);
            const std::vector<core::WorkloadSignature> batch_sigs =
                core::signaturesOf(lab, batch, kMode);
            for (std::size_t l = 0; l < latency.size(); ++l) {
                predicted_deg[l].assign(depth + 1, 0.0);
                for (std::size_t b = 0; b < batch.size(); ++b) {
                    const double pair = smite.predictDegradation(
                        lat_sigs[l], batch_sigs[b]);
                    scheduler::Pairing pairing;
                    pairing.latencyApp = latency[l].name;
                    pairing.batchApp = batch[b].name;
                    for (int k = 1; k <= depth; ++k) {
                        const double pred =
                            core::Lab::scaleToInstances(pair, k, depth);
                        scheduler::CoLocationOption option;
                        option.predictedQos = 1.0 - pred;
                        option.actualQos =
                            1.0 - lab.multiInstanceDegradation(
                                      latency[l], depth, batch[b], k,
                                      kMode);
                        digest.add(option.predictedQos);
                        digest.add(option.actualQos);
                        pairing.byInstances.push_back(option);
                        predicted_deg[l][k] =
                            std::max(predicted_deg[l][k], pred);
                    }
                    pairings.push_back(std::move(pairing));
                }
            }
        }

        // A paper-scale fleet of 4,000 Ivy Bridge servers over the
        // measured tables.
        {
            scheduler::MachineClass mc;
            mc.name = config.microarchitecture;
            mc.latencyThreads = depth;
            mc.contextsPerServer = config.totalContexts();
            mc.pairings = pairings;
            const std::int64_t servers = opt.tiny ? 256 : 4000;
            scheduler::ShardedCluster cluster({mc}, {servers}, 64,
                                              opt.seed ^ 0x4000);
            cluster.setThreads(opt.threads);
            streamRuns(cluster, churnFor(servers, opt.seed),
                       opt.tiny ? 32 : 2048, opt.tiny ? 1 : 5, tracer, out);
        }

        // Knee per latency service and depth, at the service rate the
        // predicted degradation leaves.
        {
            Tracer::Scope s(tracer, "loadgen.knee");
            for (std::size_t l = 0; l < latency.size(); ++l) {
                const double mu = latency[l].serviceRate;
                double prev = 0.0;
                for (int k = 0; k <= depth; ++k) {
                    loadgen::KneeConfig cfg;
                    cfg.probe.arrival.kind = loadgen::ArrivalKind::kPoisson;
                    cfg.probe.arrival.seed = opt.seed + 17;
                    cfg.probe.servers.seed = opt.seed + 17;
                    cfg.probe.preRequests = opt.tiny ? 200 : 2000;
                    cfg.probe.measureRequests = opt.tiny ? 2000 : 20000;
                    cfg.probe.postRequests = opt.tiny ? 50 : 500;
                    cfg.probe.percentile = 0.95;
                    cfg.probe.servers.serviceRates = {
                        (1.0 - predicted_deg[l][k]) * mu};
                    cfg.targetLatency = 12.0 / mu;
                    cfg.qpsLo = 0.05 * mu;
                    cfg.tolerance = 0.002 * mu;
                    cfg.failOnDrop = false;
                    const double knee = loadgen::findKnee(cfg).kneeQps;
                    digest.add(knee);
                    checks.expect(k == 0 || knee <= prev,
                                  "knee rises with co-location depth: " +
                                      latency[l].name);
                    prev = knee;
                }
            }
        }
    }
    timed.stop();

    out.extra.set("lab_setup_s", lab_setup_s);
    out.extra.set("warmup_cycles", static_cast<double>(warmup));
    out.extra.set("measure_cycles", static_cast<double>(measure));
    obs::json::Value names_train = obs::json::Value::array();
    for (const auto &p : train)
        names_train.push(p.name);
    obs::json::Value names_test = obs::json::Value::array();
    for (const auto &p : test)
        names_test.push(p.name);
    out.extra.set("train", std::move(names_train));
    out.extra.set("test", std::move(names_test));
    if (tracer.on()) {
        std::sort(predict_ns.begin(), predict_ns.end());
        auto rank = [&](double q) {
            return predict_ns[static_cast<std::size_t>(
                q * static_cast<double>(predict_ns.size() - 1))];
        };
        out.extra.set("predict_ns_p50", rank(0.5));
        out.extra.set("predict_ns_p90", rank(0.9));
        out.extra.set("spans", tracer.toJson(opt.runId));
    }
    return out;
}

// ---------------------------------------------------------------------
// fleet

/** Keyed seed of the synthetic QoS tables (fixed: the fleet's
    hardware does not change with the churn seed). */
constexpr std::uint64_t kTableSeed = 2014;

const char *const kFleetLatency[] = {"Web-Search", "Data-Caching",
                                     "Data-Serving", "Graph-Analytics"};
const char *const kFleetBatch[] = {"456.hmmer", "470.lbm", "403.gcc",
                                   "433.milc", "450.soplex",
                                   "464.h264ref"};

/**
 * One Table 1 machine class with keyed synthetic tables: per-instance
 * QoS slope scaled by the class's L3 pressure, predicted with up to
 * +/-25% error, as in bench_scaleout_stress. Adds |predicted - actual|
 * of every entry to @p abs_err_sum: the prediction error the scheduler
 * places against, fleet_churn's smite_mae_pct.
 */
scheduler::MachineClass
fleetClass(const sim::MachineConfig &config, int class_index,
           double &abs_err_sum, int &entries)
{
    scheduler::MachineClass mc;
    mc.name = config.microarchitecture;
    mc.latencyThreads = config.numCores;
    mc.contextsPerServer = config.totalContexts();
    const double pressure =
        std::sqrt(8.0 * 1024 * 1024 /
                  static_cast<double>(config.l3.sizeBytes));
    for (std::size_t l = 0; l < std::size(kFleetLatency); ++l) {
        for (std::size_t b = 0; b < std::size(kFleetBatch); ++b) {
            scheduler::Pairing p;
            p.latencyApp = kFleetLatency[l];
            p.batchApp = kFleetBatch[b];
            const std::uint64_t h = scheduler::keyed::draw(
                kTableSeed, static_cast<std::uint64_t>(class_index), l, b);
            const double slope =
                (0.02 + 0.08 * scheduler::keyed::toUnit(h)) * pressure;
            const double err =
                0.50 * scheduler::keyed::toUnit(scheduler::keyed::mix64(h)) -
                0.25;
            for (int k = 1; k <= mc.maxInstances(); ++k) {
                scheduler::CoLocationOption option;
                option.actualQos = std::max(0.0, 1.0 - slope * k);
                option.predictedQos =
                    std::max(0.0, 1.0 - slope * (1.0 + err) * k);
                abs_err_sum +=
                    std::abs(option.predictedQos - option.actualQos);
                ++entries;
                p.byInstances.push_back(option);
            }
            mc.pairings.push_back(std::move(p));
        }
    }
    return mc;
}

Outcome
runFleet(const Options &opt)
{
    const std::int64_t servers = opt.tiny ? 4096 : 131072;

    double abs_err_sum = 0.0;
    int entries = 0;
    std::vector<scheduler::MachineClass> classes = {
        fleetClass(sim::MachineConfig::sandyBridgeEN(), 0, abs_err_sum,
                   entries),
        fleetClass(sim::MachineConfig::ivyBridge(), 1, abs_err_sum,
                   entries)};
    const std::int64_t snb = servers * 3 / 5;
    scheduler::ShardedCluster cluster(std::move(classes),
                                      {snb, servers - snb}, 64,
                                      opt.seed ^ 0xf1ee7);
    cluster.setThreads(opt.threads);

    Outcome out;
    out.extra.set("smite_mae_pct", 100.0 * abs_err_sum / entries);
    if (opt.setupOnly) {
        out.tTimed = monotonicSeconds();
        return out;
    }

    Tracer tracer(opt.trace);
    TimedPhase timed(out);
    {
        Tracer::Scope root(tracer, "fleet");
        streamRuns(cluster, churnFor(servers, opt.seed),
                   opt.tiny ? 16 : 1024, 1, tracer, out);
    }
    timed.stop();
    // The fleet runs on tables alone: not one machine run.
    out.checks.expect(counterSnapshot()["machine.runs"] == 0.0,
                      "fleet_churn ran the simulator");
    if (tracer.on())
        out.extra.set("spans", tracer.toJson(opt.runId));
    return out;
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    if (argc < 2)
        return false;
    opt.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--tiny") {
            opt.tiny = true;
        } else if (arg == "--setup-only") {
            opt.setupOnly = true;
        } else if (arg == "--seed" && (v = value())) {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--dir" && (v = value())) {
            opt.dir = v;
        } else if (arg == "--run-id" && (v = value())) {
            opt.runId = v;
        } else if (arg == "--threads" && (v = value())) {
            opt.threads = std::max(1, std::atoi(v));
        } else {
            return false;
        }
    }
    return opt.workload == "pipeline" || opt.workload == "fleet";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: smite_perfbench pipeline|fleet --seed N "
                     "[--dir DIR] [--threads T] [--trace] [--tiny] "
                     "[--setup-only] [--run-id ID]\n");
        return 2;
    }

    Outcome out = opt.workload == "pipeline" ? runPipeline(opt)
                                             : runFleet(opt);

    obs::json::Value result = std::move(out.extra);
    result.set("t_timed", out.tTimed);
    result.set("wall_s", out.wallS);
    result.set("cpu_s", out.cpuS);
    result.set("peak_rss_mb", peakRssMb());
    result.set("digest", out.digest.hex());
    result.set("counters", counterDeltas(out.countersBefore));
    result.set("incidents",
               static_cast<double>(obs::IncidentLog::global().count()));
    result.set("attempted", static_cast<double>(out.checks.attempted));
    result.set("failed", static_cast<double>(out.checks.failed));
    obs::json::Value failures = obs::json::Value::array();
    for (const std::string &f : out.checks.failures)
        failures.push(f);
    result.set("failures", std::move(failures));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
