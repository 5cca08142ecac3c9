#include "loadgen/arrival.h"

#include <cmath>
#include <stdexcept>

#include "fault/fault.h"
#include "queueing/keyed_stream.h"

namespace smite::loadgen {

namespace keyed = smite::queueing::keyed;

ArrivalStream::ArrivalStream(const ArrivalConfig &config)
    : config_(config)
{
    if (config_.rate <= 0.0)
        throw std::invalid_argument("arrival rate must be positive");

    fault::FaultPlan &faults = fault::FaultPlan::global();
    chaos_burst_ = faults.enabled() && faults.armed("des.arrival_burst");
    fault_prefix_ = "a" + std::to_string(config_.seed) + "#s" +
                    std::to_string(config_.stream) + "#r";
}

double
ArrivalStream::next()
{
    // One unit-exponential of "arrival mass", keyed by occurrence so
    // the stream is a pure value.
    double work = keyed::exponentialUnit(
        keyed::draw(config_.seed, keyed::kSaltArrival, config_.stream,
                    counter_));

    if (chaos_burst_) {
        // `des.arrival_burst`: compress this gap by 1 + |eps| — a
        // seeded stand-in for retry storms / synchronized clients.
        fault::FaultPlan &faults = fault::FaultPlan::global();
        const std::string key =
            fault_prefix_ + std::to_string(counter_);
        if (faults.shouldInject("des.arrival_burst", key)) {
            const double eps =
                std::fabs(faults.gaussian("des.arrival_burst", key));
            work /= 1.0 + eps;
        }
    }

    now_ += work / config_.rate;
    ++counter_;
    return now_;
}

std::vector<double>
ArrivalStream::generate(std::size_t n)
{
    std::vector<double> times;
    times.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        times.push_back(next());
    return times;
}

} // namespace smite::loadgen
