#include "loadgen/arrival.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "fault/fault.h"
#include "queueing/keyed_stream.h"

namespace smite::loadgen {

namespace keyed = smite::queueing::keyed;

std::vector<double>
unitGaps(const ArrivalConfig &config, std::size_t n)
{
    fault::FaultPlan &faults = fault::FaultPlan::global();
    const bool chaos_burst =
        faults.enabled() && faults.armed("des.arrival_burst");
    const std::string fault_prefix = "a" + std::to_string(config.seed) +
                                     "#s" + std::to_string(config.stream) +
                                     "#r";
    std::vector<double> gaps;
    gaps.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        // One unit-exponential of "arrival mass", keyed by occurrence
        // so the stream is a pure value.
        double work = keyed::exponentialUnit(keyed::draw(
            config.seed, keyed::kSaltArrival, config.stream, i));
        if (chaos_burst) {
            // `des.arrival_burst`: compress this gap by 1 + |eps| — a
            // seeded stand-in for retry storms / synchronized clients.
            const std::string key = fault_prefix + std::to_string(i);
            if (faults.shouldInject("des.arrival_burst", key)) {
                const double eps =
                    std::fabs(faults.gaussian("des.arrival_burst", key));
                work /= 1.0 + eps;
            }
        }
        gaps.push_back(work);
    }
    return gaps;
}

std::vector<double>
arrivalTimes(const std::vector<double> &gaps, double rate)
{
    std::vector<double> times;
    times.reserve(gaps.size());
    double now = 0.0;
    for (const double gap : gaps) {
        now += gap / rate;
        times.push_back(now);
    }
    return times;
}

ArrivalStream::ArrivalStream(const ArrivalConfig &config)
    : config_(config)
{
    if (config_.rate <= 0.0)
        throw std::invalid_argument("arrival rate must be positive");
}

std::vector<double>
ArrivalStream::generate(std::size_t n) const
{
    return arrivalTimes(unitGaps(config_, n), config_.rate);
}

} // namespace smite::loadgen
