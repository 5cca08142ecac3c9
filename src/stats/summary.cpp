#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace smite::stats {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        throw std::invalid_argument("mean of empty sample");
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
quantile(std::vector<double> xs, double p)
{
    if (xs.empty())
        throw std::invalid_argument("quantile of empty sample");
    if (p < 0.0 || p > 1.0)
        throw std::invalid_argument("quantile p outside [0, 1]");
    const double pos = p * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = static_cast<size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    // The two order statistics a full sort would put at lo and hi:
    // after the selection everything past lo is >= xs[lo], so the
    // hi-th (hi is lo or lo + 1) is the least of the rest.
    const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(xs.begin(), nth, xs.end());
    const double x_hi =
        hi == lo ? *nth : *std::min_element(nth + 1, xs.end());
    return *nth * (1.0 - frac) + x_hi * frac;
}

double
median(const std::vector<double> &xs)
{
    if (xs.empty())
        throw std::invalid_argument("median of empty sample");
    return quantile(xs, 0.5);
}

double
robustMedian(const std::vector<double> &xs, double k)
{
    if (xs.empty())
        throw std::invalid_argument("robustMedian of empty sample");
    if (k <= 0.0)
        throw std::invalid_argument("robustMedian k must be positive");
    const double m = median(xs);
    std::vector<double> deviations;
    deviations.reserve(xs.size());
    for (double x : xs)
        deviations.push_back(std::abs(x - m));
    const double mad = median(deviations);
    if (mad == 0.0)
        return m;
    const double cutoff = k * 1.4826 * mad;
    std::vector<double> kept;
    kept.reserve(xs.size());
    for (double x : xs) {
        if (std::abs(x - m) <= cutoff)
            kept.push_back(x);
    }
    // The median itself always survives its own cutoff, so kept is
    // never empty.
    return median(kept);
}

std::vector<std::pair<double, double>>
empiricalCdf(std::vector<double> xs, int points)
{
    if (xs.empty())
        throw std::invalid_argument("CDF of empty sample");
    if (points < 2)
        throw std::invalid_argument("need at least two CDF points");
    std::sort(xs.begin(), xs.end());
    std::vector<std::pair<double, double>> cdf;
    cdf.reserve(points);
    for (int i = 0; i < points; ++i) {
        const double p =
            static_cast<double>(i) / static_cast<double>(points - 1);
        const double pos = p * static_cast<double>(xs.size() - 1);
        const size_t lo = static_cast<size_t>(std::floor(pos));
        const size_t hi = static_cast<size_t>(std::ceil(pos));
        const double frac = pos - static_cast<double>(lo);
        const double x = xs[lo] * (1.0 - frac) + xs[hi] * frac;
        cdf.emplace_back(x, p);
    }
    return cdf;
}

} // namespace smite::stats
