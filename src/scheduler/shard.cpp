#include "scheduler/shard.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scheduler/keyed.h"

namespace smite::scheduler {

namespace {

// Stream salts: one per event kind, so the keyed streams of a server
// never collide across kinds.
constexpr std::uint64_t kSaltAssign = 1;
constexpr std::uint64_t kSaltFail = 2;
constexpr std::uint64_t kSaltRecover = 3;
constexpr std::uint64_t kSaltDepart = 4;
constexpr std::uint64_t kSaltArrive = 5;
constexpr std::uint64_t kSaltReplace = 6;

/** Probe index bits packed under the job index in one draw key. */
constexpr int kProbeBits = 6;

} // namespace

ShardedCluster::ShardedCluster(std::vector<MachineClass> classes,
                               std::vector<std::int64_t> serversPerClass,
                               int shards, std::uint64_t assignSeed)
    : classes_(std::move(classes)), fullScan_(shards == 1)
{
    if (classes_.empty() || serversPerClass.size() != classes_.size())
        throw std::invalid_argument(
            "fleet needs one server count per machine class");
    if (shards < 1)
        throw std::invalid_argument("shard count must be positive");

    std::int64_t n = 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const MachineClass &mc = classes_[c];
        if (serversPerClass[c] <= 0)
            throw std::invalid_argument(
                "servers per class must be positive");
        if (mc.latencyThreads < 1 ||
            mc.contextsPerServer <= mc.latencyThreads)
            throw std::invalid_argument(
                "machine class needs contexts beyond its latency "
                "threads");
        const int cap = mc.maxInstances();
        if (cap > 255)
            throw std::invalid_argument(
                "machine class instance capacity too large");
        if (mc.pairings.empty())
            throw std::invalid_argument(
                "machine class has no pairing tables");
        for (const Pairing &p : mc.pairings) {
            if (static_cast<int>(p.byInstances.size()) != cap)
                throw std::invalid_argument(
                    "pairing table length must equal the class "
                    "instance capacity");
        }
        maxSlots_ = std::max(maxSlots_, cap);
        n += serversPerClass[c];
    }
    if (shards > n)
        throw std::invalid_argument("more shards than servers");

    // Pairing-table indices are class-major — the same order
    // buildTabs() emits, so each server's `tab` stays valid per run.
    servers_.reserve(static_cast<std::size_t>(n));
    std::uint32_t tab_base = 0;
    std::int64_t s = 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const std::uint64_t choices = classes_[c].pairings.size();
        for (std::int64_t i = 0; i < serversPerClass[c]; ++i, ++s) {
            // The pairing assignment is keyed per server id — not
            // drawn in placement/scan order — so it is identical for
            // both engines.
            Server sv;
            sv.tab = tab_base +
                     static_cast<std::uint32_t>(
                         keyed::draw(assignSeed, kSaltAssign,
                                     static_cast<std::uint64_t>(s), 0) %
                         choices);
            servers_.push_back(sv);
            totalContexts_ += classes_[c].contextsPerServer;
        }
        tab_base += static_cast<std::uint32_t>(choices);
    }
}

const MachineClass &
ShardedCluster::machineClassOf(std::int64_t s) const
{
    // Tables are class-major: walk the classes' blocks of tables.
    std::size_t tab = servers_[static_cast<std::size_t>(s)].tab;
    std::size_t c = 0;
    while (tab >= classes_[c].pairings.size())
        tab -= classes_[c++].pairings.size();
    return classes_[c];
}

void
ShardedCluster::buildTabs(const TierPolicy &tiers)
{
    tabs_.clear();
    const bool fillers = tiers.bestEffortFloor > 0.0;
    for (const MachineClass &mc : classes_) {
        for (const Pairing &p : mc.pairings) {
            PairTab t;
            t.cap = mc.maxInstances();
            t.latencyThreads = mc.latencyThreads;
            t.predicted.resize(static_cast<std::size_t>(t.cap));
            t.admit.resize(static_cast<std::size_t>(t.cap));
            for (int k = 0; k < t.cap; ++k) {
                const double q =
                    p.byInstances[static_cast<std::size_t>(k)]
                        .predictedQos;
                t.predicted[static_cast<std::size_t>(k)] = q;
                t.admit[static_cast<std::size_t>(k)] =
                    q >= tiers.qosTarget ? 1 : 0;
            }
            // chainTo[j]: the largest total instance count reachable
            // from j by single steps whose predicted QoS stays at or
            // above the best-effort floor — the filler fill target is
            // chainTo[g] - g. Step-wise (not "largest k with
            // predicted[k] >= floor") so non-monotone tables cannot
            // jump a gap the incremental admit check would refuse.
            t.chainTo.resize(static_cast<std::size_t>(t.cap) + 1);
            t.chainTo[static_cast<std::size_t>(t.cap)] = t.cap;
            for (int j = t.cap - 1; j >= 0; --j) {
                const bool step =
                    fillers &&
                    p.byInstances[static_cast<std::size_t>(j)]
                            .predictedQos >= tiers.bestEffortFloor;
                t.chainTo[static_cast<std::size_t>(j)] =
                    step ? t.chainTo[static_cast<std::size_t>(j) + 1]
                         : j;
            }
            t.violating.assign(static_cast<std::size_t>(t.cap) + 1, 0);
            t.goodFill.assign(static_cast<std::size_t>(t.cap) + 1, 1);
            for (int k = 1; k <= t.cap; ++k) {
                const double actual =
                    p.byInstances[static_cast<std::size_t>(k) - 1]
                        .actualQos;
                t.violating[static_cast<std::size_t>(k)] =
                    actual < tiers.qosTarget ? 1 : 0;
                t.goodFill[static_cast<std::size_t>(k)] =
                    actual >= tiers.bestEffortFloor ? 1 : 0;
            }
            tabs_.push_back(std::move(t));
        }
    }
}

ShardedCluster::Agg
ShardedCluster::contributionOf(std::size_t s) const
{
    Agg a;
    const Server &sv = servers_[s];
    if (sv.up == 0)
        return a;
    const PairTab &tab = tabs_[sv.tab];
    const int g = sv.g;
    const int b = sv.b;
    a.upServers = 1;
    a.latencyContexts = tab.latencyThreads;
    a.guaranteed = g;
    a.bestEffort = b;
    if (g > 0) {
        a.coLocated = 1;
        if (tab.violating[static_cast<std::size_t>(g)] != 0)
            a.violating = 1;
        else
            a.goodGuaranteed = g;
    }
    if (b > 0 && tab.goodFill[static_cast<std::size_t>(g + b)] != 0)
        a.goodFillers = b;
    return a;
}

void
ShardedCluster::Agg::add(const Agg &c, int sign)
{
    upServers += sign * c.upServers;
    latencyContexts += sign * c.latencyContexts;
    guaranteed += sign * c.guaranteed;
    bestEffort += sign * c.bestEffort;
    coLocated += sign * c.coLocated;
    violating += sign * c.violating;
    goodGuaranteed += sign * c.goodGuaranteed;
    goodFillers += sign * c.goodFillers;
}

void
ShardedCluster::scheduleEvent(std::int64_t epoch, std::uint32_t s)
{
    // kNever is past every run's end, so it is dropped here too.
    if (fullScan_ || epoch >= epochsLimit_)
        return;
    calendar_[static_cast<std::size_t>(epoch)].push_back(s);
}

void
ShardedCluster::rebalanceFillers(std::size_t s, StreamEpochStats &stats)
{
    Server &sv = servers_[s];
    int target = 0;
    if (sv.up != 0)
        target = tabs_[sv.tab].chainTo[sv.g] - sv.g;
    const int cur = sv.b;
    if (target > cur)
        stats.fillerPlaced += target - cur;
    else if (cur > target)
        stats.fillerEvicted += cur - target;
    sv.b = static_cast<std::uint8_t>(target);
}

void
ShardedCluster::processServerEvents(std::uint32_t s, std::int64_t epoch,
                                    StreamEpochStats &stats)
{
    const std::size_t i = s;
    Server &sv = servers_[i];
    if (sv.up == 0) {
        if (recoverAt_[i] != epoch)
            return;  // stale calendar entry / nothing due
        ++stats.events;
        ++stats.recoveries;
        aggSub(i);
        sv.up = 1;
        // The server rejoins empty; its next failure is drawn now,
        // keyed by (server, failure sequence) — never by scan order.
        const std::int64_t gap = keyed::geometricSteps(
            churn_.failProb,
            keyed::draw(churn_.seed, kSaltFail, s, failSeq_[i]));
        nextFail_[i] =
            gap == keyed::kNever ? keyed::kNever : epoch + gap;
        scheduleEvent(nextFail_[i], s);
        rebalanceFillers(i, stats);
        aggAdd(i);
        return;
    }
    if (nextFail_[i] == epoch) {
        ++stats.events;
        ++stats.failures;
        aggSub(i);
        // Evicted guaranteed jobs re-enter placement after the event
        // pass (runStream); only their count matters there.
        stats.evictions += sv.g;
        sv.g = 0;
        stats.fillerEvicted += sv.b;
        sv.b = 0;
        sv.up = 0;
        const std::int64_t gap = keyed::geometricSteps(
            churn_.recoverProb,
            keyed::draw(churn_.seed, kSaltRecover, s, failSeq_[i]));
        ++failSeq_[i];
        recoverAt_[i] =
            gap == keyed::kNever ? keyed::kNever : epoch + gap;
        scheduleEvent(recoverAt_[i], s);
        aggAdd(i);
        return;
    }
    // Guaranteed departures due this epoch (swap-remove, scanning
    // down so the slot swapped in was already examined).
    int g = sv.g;
    const std::size_t base = i * static_cast<std::size_t>(maxSlots_);
    int departed = 0;
    for (int j = g - 1; j >= 0; --j) {
        if (depEpoch_[base + static_cast<std::size_t>(j)] != epoch)
            continue;
        if (departed == 0)
            aggSub(i);
        depEpoch_[base + static_cast<std::size_t>(j)] =
            depEpoch_[base + static_cast<std::size_t>(g) - 1];
        --g;
        ++departed;
    }
    if (departed > 0) {
        sv.g = static_cast<std::uint8_t>(g);
        stats.departures += departed;
        ++stats.events;
        rebalanceFillers(i, stats);
        aggAdd(i);
    }
}

bool
ShardedCluster::placeGuaranteedJob(std::uint64_t salt,
                                   std::int64_t epoch,
                                   std::int64_t jobIndex,
                                   StreamEpochStats &stats)
{
    const std::uint64_t n = static_cast<std::uint64_t>(servers());
    std::int64_t best = -1;
    double best_qos = 0.0;
    for (int t = 0; t < churn_.probesPerJob; ++t) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(jobIndex) << kProbeBits) |
            static_cast<std::uint64_t>(t);
        const std::int64_t s = static_cast<std::int64_t>(
            keyed::draw(churn_.seed, salt,
                        static_cast<std::uint64_t>(epoch), key) %
            n);
        const Server &sv = servers_[static_cast<std::size_t>(s)];
        if (sv.up == 0)
            continue;
        const PairTab &tab = tabs_[sv.tab];
        const int g = sv.g;
        if (g >= tab.cap || tab.admit[static_cast<std::size_t>(g)] == 0)
            continue;
        // Predicted QoS *after* the placement: predicted[g] is the
        // table row for g+1 instances. Best wins; ties go to the
        // lower server id so the choice is total-ordered.
        const double q = tab.predicted[static_cast<std::size_t>(g)];
        if (best < 0 || q > best_qos || (q == best_qos && s < best)) {
            best = s;
            best_qos = q;
        }
    }
    if (best < 0)
        return false;
    const std::size_t i = static_cast<std::size_t>(best);
    aggSub(i);
    const int g = servers_[i].g;
    // The job's lifetime is keyed by (server, placement sequence):
    // a pure per-server stream, independent of who placed it when.
    const std::int64_t gap = keyed::geometricSteps(
        churn_.departProb,
        keyed::draw(churn_.seed, kSaltDepart,
                    static_cast<std::uint64_t>(best), placeSeq_[i]));
    ++placeSeq_[i];
    const std::int64_t dep_at =
        gap == keyed::kNever ? keyed::kNever : epoch + gap;
    depEpoch_[i * static_cast<std::size_t>(maxSlots_) +
              static_cast<std::size_t>(g)] = dep_at;
    servers_[i].g = static_cast<std::uint8_t>(g + 1);
    scheduleEvent(dep_at, static_cast<std::uint32_t>(best));
    rebalanceFillers(i, stats);
    aggAdd(i);
    return true;
}

void
ShardedCluster::resetRunState()
{
    const std::size_t n = servers_.size();
    for (Server &sv : servers_) {
        sv.up = 1;
        sv.g = 0;
        sv.b = 0;
    }
    nextFail_.assign(n, keyed::kNever);
    recoverAt_.assign(n, keyed::kNever);
    failSeq_.assign(n, 0);
    placeSeq_.assign(n, 0);
    depEpoch_.assign(n * static_cast<std::size_t>(maxSlots_),
                     keyed::kNever);
    agg_ = Agg{};
    calendar_.assign(static_cast<std::size_t>(epochsLimit_), {});
}

std::uint64_t
ShardedCluster::stateDigest() const
{
    const std::size_t n = servers_.size();
    std::uint64_t h = keyed::mix64(0x534d695465ull ^ n);
    for (std::size_t s = 0; s < n; ++s) {
        const Server &sv = servers_[s];
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(sv.up) << 48) |
            (static_cast<std::uint64_t>(sv.g) << 40) |
            (static_cast<std::uint64_t>(sv.b) << 32) |
            static_cast<std::uint64_t>(s);
        h = keyed::mix64(h ^ packed);
    }
    return h;
}

StreamResult
ShardedCluster::runStream(const TierPolicy &tiers,
                          const ChurnConfig &churn, int epochs)
{
    if (epochs < 1)
        throw std::invalid_argument("epochs must be positive");
    if (churn.arrivalsPerEpoch < 0)
        throw std::invalid_argument("arrivals must be non-negative");
    if (churn.probesPerJob < 1 ||
        churn.probesPerJob > (1 << kProbeBits))
        throw std::invalid_argument("probesPerJob out of range");
    for (const double p :
         {churn.departProb, churn.failProb, churn.recoverProb}) {
        if (p < 0.0 || p > 1.0)
            throw std::invalid_argument(
                "churn probabilities must be in [0, 1]");
    }

    obs::Span span("scheduler.stream",
                   std::to_string(servers()) + " servers / " +
                       (fullScan_ ? "full scan" : "calendar"));

    churn_ = churn;
    epochsLimit_ = epochs;
    buildTabs(tiers);
    resetRunState();

    StreamResult result;
    result.servers = servers();
    result.totalContexts = totalContexts_;
    result.timeline.reserve(static_cast<std::size_t>(epochs));

    // Bootstrap pass (the one full O(n) touch both engines share):
    // draw every server's first failure epoch and fill the
    // best-effort tier into the empty fleet.
    StreamEpochStats bootstrap;
    for (std::uint32_t s = 0; s < servers_.size(); ++s) {
        const std::size_t i = s;
        const std::int64_t gap = keyed::geometricSteps(
            churn_.failProb,
            keyed::draw(churn_.seed, kSaltFail, s, failSeq_[i]));
        // Drawn "at epoch -1", so the first failure can land on
        // epoch 0.
        nextFail_[i] = gap == keyed::kNever ? keyed::kNever : gap - 1;
        scheduleEvent(nextFail_[i], s);
        rebalanceFillers(i, bootstrap);
        aggAdd(i);
    }
    result.fillerPlaced = bootstrap.fillerPlaced;

    obs::Registry &registry = obs::Registry::global();
    obs::Gauge &util_gauge =
        registry.gauge("scheduler.stream.utilization");
    obs::Gauge &goodput_gauge =
        registry.gauge("scheduler.stream.goodput_utilization");

    for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
        StreamEpochStats stats;
        stats.epoch = epoch;

        // Phase A — the churn event pass.
        if (fullScan_) {
            // Lockstep reference engine: scan every server in
            // ascending id, the same O(n) per epoch the 4k-server
            // Cluster pays. Identical keyed streams, identical
            // results — only the work differs.
            for (std::uint32_t s = 0; s < servers_.size(); ++s)
                processServerEvents(s, epoch, stats);
        } else {
            // The due servers in filing order, duplicates included.
            // A visit touches only its server's state and integer
            // sums and files events only in later buckets (every gap
            // is at least 1), and a repeated visit finds nothing due,
            // so this equals the ascending full scan
            // (docs/SCHEDULING.md, determinism contract item 2).
            const std::vector<std::uint32_t> due =
                std::move(calendar_[static_cast<std::size_t>(epoch)]);
            for (const std::uint32_t s : due)
                processServerEvents(s, epoch, stats);
        }

        // Phase B — placement over the settled state. First the
        // failure-evicted guaranteed jobs, then the epoch's arrivals,
        // each by keyed power-of-d-choices probes.
        for (std::int64_t job = 0; job < stats.evictions; ++job) {
            if (placeGuaranteedJob(kSaltReplace, epoch, job, stats))
                ++stats.replacements;
            else
                ++stats.lost;
        }
        for (int a = 0; a < churn_.arrivalsPerEpoch; ++a) {
            ++stats.arrivals;
            if (placeGuaranteedJob(kSaltArrive, epoch, a, stats))
                ++stats.placed;
            else
                ++stats.rejected;
        }

        // Phase C — epoch snapshot. Integers only, so the totals are
        // exact; utilizations derive from them here.
        stats.liveServers = agg_.upServers;
        stats.guaranteedInstances = agg_.guaranteed;
        stats.bestEffortInstances = agg_.bestEffort;
        stats.utilization =
            static_cast<double>(agg_.latencyContexts + agg_.guaranteed +
                                agg_.bestEffort) /
            static_cast<double>(totalContexts_);
        stats.goodputUtilization =
            static_cast<double>(agg_.latencyContexts +
                                agg_.goodGuaranteed + agg_.goodFillers) /
            static_cast<double>(totalContexts_);
        util_gauge.set(stats.utilization);
        goodput_gauge.set(stats.goodputUtilization);

        result.arrivals += stats.arrivals;
        result.placed += stats.placed;
        result.rejected += stats.rejected;
        result.departures += stats.departures;
        result.failures += stats.failures;
        result.recoveries += stats.recoveries;
        result.evictions += stats.evictions;
        result.replacements += stats.replacements;
        result.lost += stats.lost;
        result.fillerPlaced += stats.fillerPlaced;
        result.fillerEvicted += stats.fillerEvicted;
        result.events += stats.events;
        result.timeline.push_back(stats);
    }

    // Final snapshot + run accounting.
    result.liveServers = agg_.upServers;
    result.latencyContextsUp = agg_.latencyContexts;
    result.guaranteedInstances = agg_.guaranteed;
    result.bestEffortInstances = agg_.bestEffort;
    result.coLocatedServers = agg_.coLocated;
    result.violatingServers = agg_.violating;
    result.goodGuaranteed = agg_.goodGuaranteed;
    result.goodFillers = agg_.goodFillers;
    result.digest = stateDigest();

    registry.counter("scheduler.shard.epochs")
        .add(static_cast<std::uint64_t>(epochs));
    registry.counter("scheduler.shard.events")
        .add(static_cast<std::uint64_t>(result.events));
    registry.counter("scheduler.churn.arrivals")
        .add(static_cast<std::uint64_t>(result.arrivals));
    registry.counter("scheduler.churn.placed")
        .add(static_cast<std::uint64_t>(result.placed));
    registry.counter("scheduler.churn.rejected")
        .add(static_cast<std::uint64_t>(result.rejected));
    registry.counter("scheduler.churn.departures")
        .add(static_cast<std::uint64_t>(result.departures));
    registry.counter("scheduler.churn.failures")
        .add(static_cast<std::uint64_t>(result.failures));
    registry.counter("scheduler.churn.recoveries")
        .add(static_cast<std::uint64_t>(result.recoveries));
    registry.counter("scheduler.churn.evictions")
        .add(static_cast<std::uint64_t>(result.evictions));
    registry.counter("scheduler.churn.replacements")
        .add(static_cast<std::uint64_t>(result.replacements));
    registry.counter("scheduler.churn.lost")
        .add(static_cast<std::uint64_t>(result.lost));
    registry.counter("scheduler.churn.filler_placed")
        .add(static_cast<std::uint64_t>(result.fillerPlaced));
    registry.counter("scheduler.churn.filler_evicted")
        .add(static_cast<std::uint64_t>(result.fillerEvicted));
    return result;
}

bool
ShardedCluster::verifyAggregates() const
{
    if (tabs_.empty())
        return false;  // no run yet
    Agg want;
    for (std::size_t s = 0; s < servers_.size(); ++s)
        want.add(contributionOf(s), +1);
    return want == agg_;
}

} // namespace smite::scheduler
