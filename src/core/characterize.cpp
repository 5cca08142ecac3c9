#include "core/characterize.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace smite::core {

namespace {

/** Aggregate IPC over a span of counter blocks. */
double
aggregateIpc(const std::vector<sim::CounterBlock> &counters, size_t begin,
             size_t end)
{
    double sum = 0.0;
    for (size_t i = begin; i < end; ++i)
        sum += counters[i].ipc();
    return sum;
}

} // namespace

Characterizer::Characterizer(const sim::Machine &machine,
                             std::vector<rulers::Ruler> suite,
                             sim::Cycle warmup, sim::Cycle measure)
    : machine_(machine), suite_(std::move(suite)), warmup_(warmup),
      measure_(measure)
{
    if (suite_.empty())
        throw std::invalid_argument("empty ruler suite");
}

std::vector<sim::Placement>
Characterizer::appPlacements(
    std::vector<workload::ProfileUopSource> &threads) const
{
    std::vector<sim::Placement> placements;
    placements.reserve(threads.size());
    for (size_t t = 0; t < threads.size(); ++t) {
        placements.push_back(
            sim::Placement{static_cast<int>(t), 0, &threads[t]});
    }
    return placements;
}

double
Characterizer::soloIpc(const workload::WorkloadProfile &profile,
                       int threads) const
{
    if (threads < 1 || threads > machine_.config().numCores)
        throw std::invalid_argument("bad thread count");
    std::vector<workload::ProfileUopSource> sources;
    sources.reserve(threads);
    for (int t = 0; t < threads; ++t)
        sources.emplace_back(profile, /*seed=*/1 + t);
    const auto counters =
        machine_.run(appPlacements(sources), warmup_, measure_);
    return aggregateIpc(counters, 0, counters.size());
}

double
Characterizer::rulerBaseline(size_t d, CoLocationMode mode,
                             int threads) const
{
    const rulers::Ruler &ruler = suite_[d];
    obs::Span span("characterizer.baseline", ruler.name());
    std::vector<std::unique_ptr<sim::UopSource>> sources;
    std::vector<sim::Placement> placements;
    for (int t = 0; t < threads; ++t) {
        sources.push_back(ruler.makeSource());
        placements.push_back(
            mode == CoLocationMode::kSmt
                ? sim::Placement{t, 1, sources.back().get()}
                : sim::Placement{threads + t, 0, sources.back().get()});
    }
    const auto counters = machine_.run(placements, warmup_, measure_);
    return aggregateIpc(counters, 0, counters.size());
}

Characterization
Characterizer::characterize(const workload::WorkloadProfile &profile,
                            CoLocationMode mode, int threads) const
{
    const int cores = machine_.config().numCores;
    if (threads < 1)
        throw std::invalid_argument("bad thread count");
    if (mode == CoLocationMode::kSmt && threads > cores)
        throw std::invalid_argument("too many threads for SMT mode");
    if (mode == CoLocationMode::kCmp && 2 * threads > cores)
        throw std::invalid_argument("too many threads for CMP mode");

    obs::Span characterize_span("characterizer.characterize",
                                profile.name + "#" + modeName(mode));
    const double app_solo = soloIpc(profile, threads);

    Characterization result;
    for (size_t d = 0; d < suite_.size(); ++d) {
        const rulers::Ruler &ruler = suite_[d];
        obs::Span dimension_span("characterizer.dimension",
                                 ruler.name());

        // Ruler placements mirror where they will sit in the
        // co-location: sibling contexts (SMT) or the far cores (CMP).
        auto rulerPlacement = [&](int t, sim::UopSource *src) {
            return mode == CoLocationMode::kSmt
                       ? sim::Placement{t, 1, src}
                       : sim::Placement{threads + t, 0, src};
        };

        // Ruler baseline: the same ruler instances running alone
        // (application-independent, so a replay after its first run).
        const double ruler_solo = rulerBaseline(d, mode, threads);

        // Co-location: app threads + ruler instances.
        std::vector<workload::ProfileUopSource> app_sources;
        app_sources.reserve(threads);
        for (int t = 0; t < threads; ++t)
            app_sources.emplace_back(profile, /*seed=*/1 + t);
        std::vector<sim::Placement> placements =
            appPlacements(app_sources);
        std::vector<std::unique_ptr<sim::UopSource>> co_rulers;
        for (int t = 0; t < threads; ++t) {
            co_rulers.push_back(ruler.makeSource());
            placements.push_back(
                rulerPlacement(t, co_rulers.back().get()));
        }
        const auto counters = machine_.run(placements, warmup_, measure_);

        const double app_co = aggregateIpc(counters, 0, threads);
        const double ruler_co =
            aggregateIpc(counters, threads, counters.size());

        // Equations 1 and 2.
        result.sensitivity[d] =
            app_solo > 0.0 ? (app_solo - app_co) / app_solo : 0.0;
        result.contentiousness[d] =
            ruler_solo > 0.0 ? (ruler_solo - ruler_co) / ruler_solo
                             : 0.0;
    }
    return result;
}

} // namespace smite::core
