#include "fault/fault.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numbers>
#include <utility>
#include <vector>

#include "fault/keyed.h"
#include "obs/metrics.h"

namespace smite::fault {

namespace {

/** FNV-1a over a string (seeds and key hashing), standard basis. */
std::uint64_t
hashString(std::string_view s)
{
    return Digest(Digest::kFnvBasis).bytes(s).value();
}

/** Uniform in (0, 1] from a mixed hash (never exactly 0 for log()). */
double
uniform(std::uint64_t h)
{
    return static_cast<double>((h >> 11) + 1) * 0x1.0p-53;
}

/** Standard normal via Box-Muller on two derived uniforms. */
double
standardNormal(std::uint64_t h)
{
    const double u1 = uniform(mix64(h));
    const double u2 = uniform(mix64(h ^ 0xA5A5A5A5A5A5A5A5ull));
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
}

/** Longest `us` delay: 1e15 microseconds still fits the clock's
    64-bit nanosecond count that std::this_thread::sleep_for takes. */
constexpr double kMaxMicros = 1e15;

/**
 * Store one clause's `key=value` in @p site. False for an unknown key
 * or a value outside its range: `seed` is an unsigned 64-bit integer
 * (no sign, fraction or exponent), `p` lies in [0, 1], `sigma` is
 * finite and non-negative, and `us` lies in [0, kMaxMicros].
 */
bool
parseValue(const std::string &key, const std::string &value,
           SiteSpec &site)
{
    if (key == "seed") {
        const char *end = value.data() + value.size();
        const auto [stop, error] =
            std::from_chars(value.data(), end, site.seed);
        return error == std::errc{} && stop == end;
    }
    char *stop = nullptr;
    const double v = std::strtod(value.c_str(), &stop);
    if (stop == value.c_str() || *stop != '\0' || !std::isfinite(v) ||
        v < 0.0)
        return false;
    if (key == "p" || key == "prob" || key == "probability") {
        site.probability = v;
        return v <= 1.0;
    }
    if (key == "sigma") {
        site.sigma = v;
        return true;
    }
    if (key == "us" || key == "micros") {
        site.micros = v;
        return v <= kMaxMicros;
    }
    return false;
}

} // namespace

struct FaultPlan::Site {
    SiteSpec spec;
    std::uint64_t seed = 0;  ///< resolved (never 0)
    obs::Counter *checks = nullptr;
    obs::Counter *injected = nullptr;
};

FaultPlan &
FaultPlan::global()
{
    static FaultPlan plan;
    static std::once_flag from_env;
    std::call_once(from_env, [] {
        if (const char *env = std::getenv("SMITE_FAULTS"))
            plan.configure(env);
    });
    return plan;
}

int
FaultPlan::configure(const std::string &spec)
{
    int armed = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(';', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string clause = spec.substr(start, end - start);
        start = end + 1;
        if (clause.empty())
            continue;

        const std::size_t colon = clause.find(':');
        const std::string name = clause.substr(0, colon);
        if (name.empty()) {
            std::fprintf(stderr,
                         "smite: SMITE_FAULTS: skipping clause with "
                         "empty site name: '%s'\n",
                         clause.c_str());
            continue;
        }

        SiteSpec site;
        bool ok = true;
        if (colon != std::string::npos) {
            std::size_t kv_start = colon + 1;
            while (ok && kv_start <= clause.size()) {
                std::size_t kv_end = clause.find(',', kv_start);
                if (kv_end == std::string::npos)
                    kv_end = clause.size();
                const std::string kv =
                    clause.substr(kv_start, kv_end - kv_start);
                kv_start = kv_end + 1;
                if (kv.empty())
                    continue;
                const std::size_t eq = kv.find('=');
                const std::string key = kv.substr(0, eq);
                const std::string value =
                    eq == std::string::npos ? "" : kv.substr(eq + 1);
                ok = parseValue(key, value, site);
                if (!ok) {
                    std::fprintf(
                        stderr,
                        "smite: SMITE_FAULTS: site '%s': bad "
                        "key=value '%s' — skipping site\n",
                        name.c_str(), kv.c_str());
                }
            }
        }
        if (!ok)
            continue;
        arm(name, site);
        ++armed;
    }
    return armed;
}

void
FaultPlan::arm(const std::string &site, const SiteSpec &spec)
{
    obs::Registry &registry = obs::Registry::global();
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto [it, inserted] = sites_.try_emplace(site);
    if (inserted) {
        it->second = std::make_unique<Site>();
        armed_.fetch_add(1, std::memory_order_relaxed);
        it->second->checks =
            &registry.counter("fault." + site + ".checks");
        it->second->injected =
            &registry.counter("fault." + site + ".injected");
    }
    it->second->spec = spec;
    it->second->seed =
        spec.seed != 0 ? spec.seed : (hashString(site) | 1);
}

void
FaultPlan::disarm(const std::string &site)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (sites_.erase(site) > 0)
        armed_.fetch_sub(1, std::memory_order_relaxed);
}

void
FaultPlan::reset()
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    armed_.fetch_sub(static_cast<int>(sites_.size()),
                     std::memory_order_relaxed);
    sites_.clear();
}

bool
FaultPlan::armed(const std::string &site) const
{
    return enabled() && find(site) != nullptr;
}

SiteSpec
FaultPlan::spec(const std::string &site) const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = sites_.find(site);
    return it == sites_.end() ? SiteSpec{} : it->second->spec;
}

FaultPlan::Site *
FaultPlan::find(const std::string &site) const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = sites_.find(site);
    // Site objects are heap-allocated and only freed by disarm()/
    // reset(), which production code never calls concurrently with
    // checks; the pointer is stable across map rebalancing.
    return it == sites_.end() ? nullptr : it->second.get();
}

bool
FaultPlan::decide(Site &s, std::uint64_t key_hash)
{
    s.checks->add();
    const bool fire =
        s.spec.probability > 0.0 &&
        uniform(mix64(s.seed ^ key_hash)) <= s.spec.probability;
    if (fire)
        s.injected->add();
    return fire;
}

bool
FaultPlan::shouldInject(const std::string &site, std::string_view key)
{
    if (!enabled())
        return false;
    Site *s = find(site);
    return s != nullptr && decide(*s, hashString(key));
}

double
FaultPlan::gaussian(const std::string &site, std::string_view key)
{
    if (!enabled())
        return 0.0;
    Site *s = find(site);
    if (s == nullptr || s->spec.sigma == 0.0)
        return 0.0;
    return s->spec.sigma *
           standardNormal(mix64(s->seed ^ hashString(key)));
}

void
maybeThrow(const std::string &site, std::string_view key)
{
    FaultPlan &plan = FaultPlan::global();
    if (plan.enabled() && plan.shouldInject(site, key)) {
        throw MeasurementError("injected fault at " + site + " (" +
                               std::string(key) + ")");
    }
}

namespace {

thread_local std::string currentMeasurement;

} // namespace

MeasurementScope::MeasurementScope(std::string key)
    : enclosing_(std::exchange(currentMeasurement, std::move(key)))
{
}

MeasurementScope::~MeasurementScope()
{
    currentMeasurement = std::move(enclosing_);
}

const std::string &
MeasurementScope::current()
{
    return currentMeasurement;
}

} // namespace smite::fault
