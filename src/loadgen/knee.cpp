#include "loadgen/knee.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace smite::loadgen {

namespace {

/**
 * Probe @p qps once against @p config 's template, over the search's
 * shared @p draws, and report whether the tail-latency target holds;
 * the step lands in @p out.
 */
bool
meetsTarget(const KneeConfig &config, const StepDraws &draws, double qps,
            StepResult &out)
{
    obs::Registry::global().counter("loadgen.knee_probes").add(1);
    out = runStep(config.probe, draws, qps);
    if (out.completed == 0)
        return false;
    if (config.failOnDrop && out.dropped > 0)
        return false;
    return out.percentileValue <= config.targetLatency;
}

} // namespace

KneeResult
findKnee(const KneeConfig &config)
{
    if (config.targetLatency <= 0.0)
        throw std::invalid_argument("targetLatency must be positive");
    if (config.tolerance <= 0.0)
        throw std::invalid_argument("tolerance must be positive");

    double hi = 0.0;
    for (const double mu : config.probe.servers.serviceRates)
        hi += mu;
    if (config.qpsLo <= 0.0 || hi <= config.qpsLo)
        throw std::invalid_argument("empty or inverted knee bracket");

    // Stream 0 for every probe: common random numbers across rates
    // (see the file comment in knee.h). Its draws are rate-free, so
    // the search draws them once and every probe rescales them.
    const StepDraws draws = drawStep(config.probe, 0);
    KneeResult result;
    StepResult step;
    const auto probe = [&](double qps) {
        ++result.probes;
        return meetsTarget(config, draws, qps, step);
    };
    if (!probe(config.qpsLo))
        return result; // knee below the bracket: report 0
    double lo = config.qpsLo;
    double lo_latency = step.percentileValue;

    if (probe(hi)) {
        // The whole bracket passes — the knee is at (or past) hi.
        result.kneeQps = hi;
        result.latencyAtKnee = step.percentileValue;
        return result;
    }

    while (hi - lo > config.tolerance) {
        const double mid = 0.5 * (lo + hi);
        if (probe(mid)) {
            lo = mid;
            lo_latency = step.percentileValue;
        } else {
            hi = mid;
        }
    }
    result.kneeQps = lo;
    result.latencyAtKnee = lo_latency;
    return result;
}

} // namespace smite::loadgen
