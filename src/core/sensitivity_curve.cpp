#include "core/sensitivity_curve.h"

#include <cmath>
#include <stdexcept>

#include "core/experiment.h"

namespace smite::core {

SensitivityCurve::SensitivityCurve(std::vector<Point> points)
    : points_(std::move(points))
{
    if (points_.size() < 2)
        throw std::invalid_argument("curve needs at least two points");
    for (size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].intensity <= points_[i - 1].intensity) {
            throw std::invalid_argument(
                "curve intensities must strictly increase");
        }
    }
}

double
SensitivityCurve::at(double intensity) const
{
    if (intensity <= points_.front().intensity)
        return points_.front().degradation;
    if (intensity >= points_.back().intensity)
        return points_.back().degradation;
    for (size_t i = 1; i < points_.size(); ++i) {
        if (intensity <= points_[i].intensity) {
            const Point &lo = points_[i - 1];
            const Point &hi = points_[i];
            const double t = (intensity - lo.intensity) /
                             (hi.intensity - lo.intensity);
            return lo.degradation +
                   t * (hi.degradation - lo.degradation);
        }
    }
    return points_.back().degradation;  // unreachable
}

SensitivityCurve
SensitivityCurve::sparsified(int keep) const
{
    if (keep < 2)
        throw std::invalid_argument("must keep at least two points");
    if (static_cast<size_t>(keep) >= points_.size())
        return *this;
    std::vector<Point> kept;
    kept.push_back(points_.front());
    // Interior points, evenly spread by index.
    for (int i = 1; i < keep - 1; ++i) {
        const size_t idx =
            i * (points_.size() - 1) / (keep - 1);
        kept.push_back(points_[idx]);
    }
    kept.push_back(points_.back());
    return SensitivityCurve(std::move(kept));
}

double
SensitivityCurve::meanAbsoluteError(const SensitivityCurve &other) const
{
    double sum = 0.0;
    for (const Point &p : points_)
        sum += std::abs(p.degradation - other.at(p.intensity));
    return sum / static_cast<double>(points_.size());
}

SensitivityCurve
functionalUnitCurve(Lab &lab, const workload::WorkloadProfile &profile,
                    rulers::Dimension dim,
                    const std::vector<double> &duties)
{
    std::vector<SensitivityCurve::Point> points;
    points.reserve(duties.size());
    for (double duty : duties) {
        const rulers::Ruler ruler =
            rulers::Ruler::functionalUnit(dim, duty);
        points.push_back({duty, lab.rulerDegradation(profile, ruler)});
    }
    return SensitivityCurve(std::move(points));
}

SensitivityCurve
memoryCurve(Lab &lab, const workload::WorkloadProfile &profile,
            rulers::Dimension dim,
            const std::vector<std::uint64_t> &working_sets)
{
    std::vector<SensitivityCurve::Point> points;
    points.reserve(working_sets.size());
    for (std::uint64_t bytes : working_sets) {
        const rulers::Ruler ruler = rulers::Ruler::memory(dim, bytes);
        points.push_back({static_cast<double>(bytes),
                          lab.rulerDegradation(profile, ruler)});
    }
    return SensitivityCurve(std::move(points));
}

} // namespace smite::core
