#include "loadgen/loadgen.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace smite::loadgen {

namespace {

struct Instruments {
    obs::Counter &steps;
    obs::Counter &requests;
    obs::Counter &completed;
    obs::Counter &dropped;

    static Instruments &get()
    {
        static Instruments instance{
            obs::Registry::global().counter("loadgen.steps"),
            obs::Registry::global().counter("loadgen.requests"),
            obs::Registry::global().counter("loadgen.completed"),
            obs::Registry::global().counter("loadgen.dropped"),
        };
        return instance;
    }
};

} // namespace

StepDraws
drawStep(const SweepConfig &config, std::uint64_t stream)
{
    const std::size_t total = static_cast<std::size_t>(
        config.preRequests + config.measureRequests +
        config.postRequests);
    ArrivalConfig arrival = config.arrival;
    arrival.stream = stream;
    return {unitGaps(arrival, total),
            queueing::unitServiceTimes(config.servers.seed, total)};
}

StepResult
runStep(const SweepConfig &config, double offeredQps,
        std::uint64_t stream)
{
    return runStep(config, drawStep(config, stream), offeredQps);
}

StepResult
runStep(const SweepConfig &config, const StepDraws &draws,
        double offeredQps)
{
    if (offeredQps <= 0.0)
        throw std::invalid_argument("offered rate must be positive");
    if (config.measureRequests == 0)
        throw std::invalid_argument(
            "measurement window must hold at least one request");
    if (config.percentile <= 0.0 || config.percentile >= 1.0)
        throw std::invalid_argument("percentile must be in (0, 1)");

    const std::uint64_t total = config.preRequests +
                                config.measureRequests +
                                config.postRequests;
    if (draws.unitGaps.size() != total)
        throw std::invalid_argument(
            "step draws must cover every request of the step");
    const std::vector<double> arrivals =
        arrivalTimes(draws.unitGaps, offeredQps);

    const queueing::OpenLoopResult sim = queueing::simulateOpenLoop(
        arrivals, draws.unitService, config.servers);

    const std::size_t from =
        static_cast<std::size_t>(config.preRequests);
    const std::size_t to =
        from + static_cast<std::size_t>(config.measureRequests);

    StepResult step;
    step.offeredQps = offeredQps;
    step.offered = config.measureRequests;
    step.completed = sim.completedIn(from, to);
    step.dropped = sim.droppedIn(from, to);
    if (step.completed > 0) {
        step.percentileValue = sim.percentile(config.percentile, from, to);
        step.meanResponse = sim.meanResponse(from, to);
    }
    // Achieved throughput over the measurement window's arrival span
    // (completions per second of offered time).
    const double span =
        arrivals[to - 1] - (from > 0 ? arrivals[from - 1] : 0.0);
    step.achievedQps =
        span > 0.0 ? static_cast<double>(step.completed) / span : 0.0;

    Instruments &m = Instruments::get();
    m.steps.add(1);
    m.requests.add(total);
    m.completed.add(step.completed);
    m.dropped.add(step.dropped);
    return step;
}

SweepResult
runSweep(const SweepConfig &config)
{
    if (config.stepSize <= 0.0)
        throw std::invalid_argument("stepSize must be positive");
    if (config.startQps <= 0.0)
        throw std::invalid_argument("startQps must be positive");
    if (config.stepStop < config.startQps)
        throw std::invalid_argument("stepStop precedes startQps");

    SweepResult sweep;
    std::uint64_t stream = 0;
    // Half-step slack keeps stepStop inclusive despite FP accumulation.
    for (double qps = config.startQps;
         qps <= config.stepStop + config.stepSize * 0.5;
         qps += config.stepSize) {
        sweep.steps.push_back(runStep(config, qps, stream));
        ++stream;
    }
    return sweep;
}

} // namespace smite::loadgen
