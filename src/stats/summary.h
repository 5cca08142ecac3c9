/**
 * @file
 * Summary statistics and empirical-distribution helpers used by the
 * figure-reproduction harnesses (means, percentiles, CDF sampling).
 */

#ifndef SMITE_STATS_SUMMARY_H
#define SMITE_STATS_SUMMARY_H

#include <utility>
#include <vector>

namespace smite::stats {

/** Arithmetic mean. @throws std::invalid_argument if empty. */
double mean(const std::vector<double> &xs);

/**
 * Empirical p-th quantile with linear interpolation,
 * p in [0, 1]. @throws std::invalid_argument if empty or p invalid.
 */
double quantile(std::vector<double> xs, double p);

/** Median (0.5 quantile). @throws std::invalid_argument if empty. */
double median(const std::vector<double> &xs);

/**
 * Outlier-robust location estimate for repeated measurements of one
 * quantity: the median of the samples that survive MAD rejection.
 * A sample is an outlier when |x - median| > k * 1.4826 * MAD, with
 * MAD the median absolute deviation and 1.4826 the factor that makes
 * it consistent with a Gaussian sigma. When MAD is zero (a majority
 * of identical samples, e.g. jitter-free measurements), the plain
 * median is returned unchanged.
 *
 * @throws std::invalid_argument if empty or k <= 0
 */
double robustMedian(const std::vector<double> &xs, double k = 3.5);

/**
 * Sample the empirical CDF of @p xs at evenly spaced points.
 *
 * @return pairs (x, F(x)) at @p points quantiles, suitable for
 *         plotting a distribution like the paper's Figures 3 and 5
 */
std::vector<std::pair<double, double>>
empiricalCdf(std::vector<double> xs, int points = 20);

} // namespace smite::stats

#endif // SMITE_STATS_SUMMARY_H
