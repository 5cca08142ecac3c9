/**
 * @file
 * Sensitivity curves and the paper's low-overhead profiling claim
 * (Section III-B1).
 *
 * An application's sensitivity to a sharing dimension is a *curve*:
 * degradation as a function of Ruler intensity (duty cycle for
 * functional units, working-set size for caches). Because the Rulers
 * are designed so interference is near-linear in intensity, the
 * paper profiles only the curve's endpoints and interpolates,
 * cutting characterization time from a sweep to a couple of runs.
 *
 * This module measures full curves through the Lab (one
 * Lab::rulerDegradation() per point), builds interpolants from sparse
 * samples, and quantifies the interpolation error — the evidence
 * behind the "profiling in the order of seconds" claim.
 */

#ifndef SMITE_CORE_SENSITIVITY_CURVE_H
#define SMITE_CORE_SENSITIVITY_CURVE_H

#include <cstdint>
#include <vector>

#include "rulers/ruler.h"
#include "workload/profile.h"

namespace smite::core {

class Lab;

/**
 * A measured sensitivity curve: degradation sampled at increasing
 * Ruler intensities, with linear interpolation between samples.
 */
class SensitivityCurve
{
  public:
    /** One measured point. */
    struct Point {
        double intensity = 0.0;    ///< duty cycle or working-set bytes
        double degradation = 0.0;  ///< victim degradation at it
    };

    /**
     * @param points samples with strictly increasing intensity
     * @throws std::invalid_argument on fewer than two points or
     *         non-increasing intensities
     */
    explicit SensitivityCurve(std::vector<Point> points);

    /**
     * Degradation at an arbitrary intensity (linear interpolation;
     * clamped to the sampled range at the ends).
     */
    double at(double intensity) const;

    /** The measured samples. */
    const std::vector<Point> &points() const { return points_; }

    /**
     * Build a sparse interpolant from this curve: keep only the
     * first and last points (@p keep = 2) or also the middle one
     * (@p keep = 3, the paper's three-cache-size scheme).
     */
    SensitivityCurve sparsified(int keep) const;

    /**
     * Mean absolute difference between this curve and @p other,
     * evaluated at this curve's sample intensities.
     */
    double meanAbsoluteError(const SensitivityCurve &other) const;

  private:
    std::vector<Point> points_;
};

/**
 * Sweep a functional-unit Ruler's duty cycle against @p profile.
 * @param lab measures every point (Lab::rulerDegradation)
 * @param dim one of the FU dimensions
 * @param duties duty cycles to sample (increasing)
 */
SensitivityCurve
functionalUnitCurve(Lab &lab, const workload::WorkloadProfile &profile,
                    rulers::Dimension dim,
                    const std::vector<double> &duties);

/**
 * Sweep a memory Ruler's working-set size against @p profile.
 * @param lab measures every point (Lab::rulerDegradation)
 * @param dim kL1, kL2 or kL3
 * @param working_sets footprints in bytes (increasing)
 */
SensitivityCurve
memoryCurve(Lab &lab, const workload::WorkloadProfile &profile,
            rulers::Dimension dim,
            const std::vector<std::uint64_t> &working_sets);

} // namespace smite::core

#endif // SMITE_CORE_SENSITIVITY_CURVE_H
