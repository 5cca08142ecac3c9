/**
 * @file
 * Procedural uop stream generator: turns a WorkloadProfile into an
 * infinite, deterministic sim::UopSource.
 */

#ifndef SMITE_WORKLOAD_GENERATOR_H
#define SMITE_WORKLOAD_GENERATOR_H

#include <array>
#include <cstdint>

#include "fault/keyed.h"
#include "sim/uop.h"
#include "workload/profile.h"
#include "workload/rng.h"

namespace smite::workload {

/**
 * Digest of every profile field that shapes a generated stream, the
 * name included. ProfileUopSource::streamDigest() folds the seed on
 * top.
 */
fault::Digest profileDigest(const WorkloadProfile &profile);

/**
 * Uop stream generator driven by a WorkloadProfile.
 *
 * Determinism: two generators built from the same profile and seed
 * produce identical streams, and reset() rewinds exactly; this makes
 * solo and co-located measurements of the same application directly
 * comparable, mirroring how the paper replays the same binaries.
 */
class ProfileUopSource final : public sim::UopSource
{
  public:
    /**
     * @param profile statistical description of the application
     * @param seed stream seed; keep fixed for reproducibility
     */
    explicit ProfileUopSource(const WorkloadProfile &profile,
                              std::uint64_t seed = 1);

    sim::Uop next() override;
    int nextBatch(sim::Uop *out, int max) override;
    void reset() override;

    /**
     * Cache-resident applications (small total footprints) keep
     * their whole data set live; larger applications keep only their
     * hot structure resident.
     */
    sim::Addr
    hotFootprint() const override
    {
        constexpr sim::Addr kResidentLimit = 32ull << 20;
        return profile_.dataFootprint <= kResidentLimit
                   ? profile_.dataFootprint
                   : profile_.hotBytes;
    }

    sim::Addr codeFootprint() const override
    {
        return profile_.codeFootprint;
    }

    /**
     * Estimated rate of accesses that reach the shared cache:
     * streaming plus hot-region traffic (when the hot region is too
     * big for the private levels) plus cold-random traffic.
     */
    double
    residencyWeight() const override
    {
        constexpr sim::Addr kPrivateReach = 1 << 20;
        const double mem = profile_.mixOf(sim::UopType::kLoad) +
                           profile_.mixOf(sim::UopType::kStore);
        const double stream_part =
            profile_.dataFootprint > kPrivateReach
                ? profile_.streamFraction
                : 0.0;
        const double after_stack =
            (1.0 - profile_.streamFraction) * (1.0 - profile_.stackProb);
        const double hot_part =
            profile_.hotBytes > kPrivateReach
                ? after_stack * profile_.hotProb
                : 0.0;
        const double cold_part = after_stack * (1.0 - profile_.hotProb);
        return 1e-3 + mem * (stream_part + hot_part + cold_part);
    }

    /** The generating profile. */
    const WorkloadProfile &profile() const { return profile_; }

    /**
     * Replay identity: profileDigest() plus the seed.
     * The generator is a pure function of (profile, seed) — reset()
     * rewinds exactly — so equal digests imply identical streams,
     * which is what sim/replay.h keys runs on.
     */
    std::uint64_t streamDigest() const override;

  private:
    sim::Addr nextDataAddr();
    sim::Addr nextPc();
    sim::UopType sampleType();
    std::uint8_t sampleDepDistance();

    WorkloadProfile profile_;
    std::uint64_t seed_;
    Rng rng_;

    /**
     * Integer-domain thresholds (Rng::mantissaCeil/Floor) for the
     * per-uop Bernoulli draws; exactly equivalent to comparing
     * nextDouble() against the profile probabilities, minus the
     * int-to-double conversion on every draw.
     */
    std::array<std::uint64_t, sim::kNumUopTypes> cumulativeMixThr_{};
    std::uint64_t thrStream_ = 0;     ///< < streamFraction
    std::uint64_t thrStack_ = 0;      ///< < stackProb
    std::uint64_t thrHot_ = 0;        ///< < hotProb
    std::uint64_t thrLoadDep_ = 0;    ///< < loadDepProb
    std::uint64_t thrBranchDep_ = 0;  ///< < 0.5 * depProb
    std::uint64_t thrDep_ = 0;        ///< < depProb
    std::uint64_t thrDep2_ = 0;       ///< < dep2Prob
    std::uint64_t thrMispredict_ = 0; ///< < branchMispredictRate
    std::uint64_t thrPhaseLow_ = 0;   ///< > phaseLowFactor

    /**
     * Geometric-trial success threshold for the dependence-distance
     * draw (Rng::nextGeometric with mean depMeanDist, its 1/mean
     * divide hoisted out of the per-uop path). 0 means the mean is
     * <= 1 and the draw trivially returns 1 without consuming RNG
     * state, matching nextGeometric exactly.
     */
    std::uint64_t thrDepGeom_ = 0;

    sim::Addr streamCursor_ = 0;  ///< streaming access position
    sim::Addr regionBase_ = 0;    ///< current code region (loop) base
    sim::Addr regionOffset_ = 0;  ///< instruction pointer within region
    std::uint64_t dwellLeft_ = 0; ///< uops until the next region jump
    bool lowPhase_ = false;       ///< currently in the light phase?
    std::uint64_t phaseLeft_ = 0; ///< uops until the phase flips
};

} // namespace smite::workload

#endif // SMITE_WORKLOAD_GENERATOR_H
