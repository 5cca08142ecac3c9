#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/env.h"

namespace smite::obs {

namespace {

std::atomic<int> &
metricsOverride()
{
    // -1 = follow the environment, 0/1 = forced by a test.
    static std::atomic<int> override{-1};
    return override;
}

} // namespace

bool
metricsEnabled()
{
    const int forced = metricsOverride().load(std::memory_order_relaxed);
    if (forced >= 0)
        return forced != 0;
    static const bool from_env = envFlag("SMITE_METRICS", false);
    return from_env;
}

void
setMetricsEnabledForTesting(bool enabled)
{
    metricsOverride().store(enabled ? 1 : 0,
                            std::memory_order_relaxed);
}

int
Histogram::bucketFor(double v)
{
    if (!(v > 0.0))
        return 0;
    // Exponent buckets: bucket b covers [2^(b-17), 2^(b-16)), i.e.
    // bucket 1 starts at 2^-16; everything below collapses into
    // bucket 0 and everything at/above 2^47 into the last bucket.
    const int exponent = std::ilogb(v);
    return std::clamp(exponent + 17, 1, kBuckets - 1);
}

double
Histogram::bucketUpper(int bucket)
{
    return std::ldexp(1.0, bucket - 16);
}

void
Histogram::observe(double v)
{
    buckets_[static_cast<std::size_t>(bucketFor(v))].fetch_add(
        1, std::memory_order_relaxed);
    const std::uint64_t n =
        count_.fetch_add(1, std::memory_order_relaxed);
    // fetch_add on atomic<double> is C++20 but not universally lowered
    // well; a CAS loop keeps the dependency surface minimal.
    double expected = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(expected, expected + v,
                                       std::memory_order_relaxed)) {
    }
    if (n == 0) {
        // First sample seeds min/max so 0-initialization never wins
        // against all-positive sample sets.
        min_.store(v, std::memory_order_relaxed);
        max_.store(v, std::memory_order_relaxed);
    }
    double lo = min_.load(std::memory_order_relaxed);
    while (v < lo && !min_.compare_exchange_weak(
                         lo, v, std::memory_order_relaxed)) {
    }
    double hi = max_.load(std::memory_order_relaxed);
    while (v > hi && !max_.compare_exchange_weak(
                         hi, v, std::memory_order_relaxed)) {
    }
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double
Histogram::min() const
{
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double
Histogram::percentile(double p) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(n)));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        seen += buckets_[static_cast<std::size_t>(b)].load(
            std::memory_order_relaxed);
        if (seen >= rank)
            return std::clamp(bucketUpper(b), min(), max());
    }
    return max();
}

json::Value
Histogram::summaryJson() const
{
    json::Value out = json::Value::object();
    out.set("count", json::Value(count()));
    out.set("sum", json::Value(sum()));
    out.set("mean", json::Value(mean()));
    out.set("min", json::Value(min()));
    out.set("max", json::Value(max()));
    out.set("p50", json::Value(percentile(0.50)));
    out.set("p90", json::Value(percentile(0.90)));
    out.set("p99", json::Value(percentile(0.99)));
    return out;
}

void
Histogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

Registry &
Registry::global()
{
    // Leaked on purpose: instrumented code may run during static
    // destruction (thread pools joining, reports flushing).
    static Registry *registry = new Registry();
    return *registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::vector<std::string>
Registry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(counters_.size() + gauges_.size() +
                histograms_.size());
    for (const auto &[name, _] : counters_)
        out.push_back(name);
    for (const auto &[name, _] : gauges_)
        out.push_back(name);
    for (const auto &[name, _] : histograms_)
        out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

json::Value
Registry::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    json::Value counters = json::Value::object();
    for (const auto &[name, counter] : counters_)
        counters.set(name, json::Value(counter->value()));
    json::Value gauges = json::Value::object();
    for (const auto &[name, gauge] : gauges_)
        gauges.set(name, json::Value(gauge->value()));
    json::Value histograms = json::Value::object();
    for (const auto &[name, histogram] : histograms_)
        histograms.set(name, histogram->summaryJson());

    json::Value out = json::Value::object();
    out.set("counters", std::move(counters));
    out.set("gauges", std::move(gauges));
    out.set("histograms", std::move(histograms));
    return out;
}

void
Registry::resetForTesting()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[_, counter] : counters_)
        counter->reset();
    for (auto &[_, gauge] : gauges_)
        gauge->reset();
    for (auto &[_, histogram] : histograms_)
        histogram->reset();
}

} // namespace smite::obs
