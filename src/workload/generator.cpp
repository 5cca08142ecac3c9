#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fault/keyed.h"

namespace smite::workload {

namespace {

/** Average bytes of machine code per uop (drives icache pressure). */
constexpr sim::Addr kBytesPerUop = 4;

} // namespace

fault::Digest
profileDigest(const WorkloadProfile &profile)
{
    fault::Digest d;
    d.str("workload.profile");
    d.str(profile.name);
    d.u64(static_cast<std::uint64_t>(profile.specNumber));
    d.u64(static_cast<std::uint64_t>(profile.suite));
    for (const double m : profile.mix)
        d.f64(m);
    d.f64(profile.branchMispredictRate);
    d.u64(profile.dataFootprint);
    d.f64(profile.streamFraction);
    d.u64(profile.stackBytes);
    d.f64(profile.stackProb);
    d.u64(profile.hotBytes);
    d.f64(profile.hotProb);
    d.u64(profile.codeFootprint);
    d.u64(profile.loopBytes);
    d.f64(profile.codeDwellUops);
    d.f64(profile.phaseLowFactor);
    d.f64(profile.phaseMeanUops);
    d.f64(profile.depProb);
    d.f64(profile.loadDepProb);
    d.f64(profile.dep2Prob);
    d.f64(profile.depMeanDist);
    d.f64(profile.arrivalRate);
    d.f64(profile.serviceRate);
    d.u64(profile.reportsPercentile ? 1 : 0);
    return d;
}

ProfileUopSource::ProfileUopSource(const WorkloadProfile &profile,
                                   std::uint64_t seed)
    : profile_(profile), seed_(seed), rng_(seed)
{
    double sum = 0.0;
    for (int t = 0; t < sim::kNumUopTypes; ++t) {
        if (profile_.mix[t] < 0.0)
            throw std::invalid_argument("negative mix fraction");
        sum += profile_.mix[t];
        cumulativeMixThr_[t] = Rng::mantissaCeil(sum);
    }
    thrStream_ = Rng::mantissaCeil(profile_.streamFraction);
    thrStack_ = Rng::mantissaCeil(profile_.stackProb);
    thrHot_ = Rng::mantissaCeil(profile_.hotProb);
    thrLoadDep_ = Rng::mantissaCeil(profile_.loadDepProb);
    thrBranchDep_ = Rng::mantissaCeil(0.5 * profile_.depProb);
    thrDep_ = Rng::mantissaCeil(profile_.depProb);
    thrDep2_ = Rng::mantissaCeil(profile_.dep2Prob);
    thrMispredict_ = Rng::mantissaCeil(profile_.branchMispredictRate);
    thrPhaseLow_ = Rng::mantissaFloor(profile_.phaseLowFactor);
    // mean > 1 implies p < 1 and so a threshold >= 1; 0 is free to
    // act as the "trivial draw" sentinel.
    thrDepGeom_ = profile_.depMeanDist > 1.0
                      ? Rng::mantissaCeil(1.0 / profile_.depMeanDist)
                      : 0;
    if (sum > 1.0 + 1e-9)
        throw std::invalid_argument("uop mix sums to more than 1");
    if (profile_.hotBytes > profile_.dataFootprint)
        throw std::invalid_argument("hot region exceeds footprint");
    // Hot draws pick one of hotBytes / 8 elements.
    if (profile_.hotProb > 0.0 && profile_.hotBytes < 8)
        throw std::invalid_argument("hot region below one element");
    if (profile_.stackBytes < 8 ||
        profile_.stackBytes > profile_.dataFootprint) {
        throw std::invalid_argument("bad stack region size");
    }
    if (profile_.dataFootprint < sim::kLineBytes)
        throw std::invalid_argument("data footprint below one line");
    if (profile_.codeFootprint < sim::kLineBytes)
        throw std::invalid_argument("code footprint below one line");
    if (profile_.loopBytes < sim::kLineBytes ||
        profile_.loopBytes > profile_.codeFootprint) {
        throw std::invalid_argument(
            "loop size must be within [64B, code footprint]");
    }
    reset();
}

std::uint64_t
ProfileUopSource::streamDigest() const
{
    fault::Digest d = profileDigest(profile_);
    d.u64(seed_);
    return d.value();
}

void
ProfileUopSource::reset()
{
    rng_ = Rng(seed_);
    // Start streaming in the middle of the footprint: for large
    // arrays this is far beyond any functionally warmed region (a
    // stream's first touch of a line is cold by nature), while for
    // cache-resident footprints it stays warm, as it should.
    streamCursor_ = (profile_.dataFootprint / 2) & ~sim::Addr{7};
    regionBase_ = 0;
    regionOffset_ = 0;
    dwellLeft_ = 0;
    lowPhase_ = false;
    phaseLeft_ = 0;
}

sim::Addr
ProfileUopSource::nextPc()
{
    if (dwellLeft_ == 0) {
        // Jump to another function/loop in the code blob and spin
        // there for a geometrically distributed number of uops.
        const std::uint64_t regions =
            std::max<std::uint64_t>(1, profile_.codeFootprint /
                                           profile_.loopBytes);
        regionBase_ = rng_.nextBelow(regions) * profile_.loopBytes;
        regionOffset_ = 0;
        const double mean = std::max(1.0, profile_.codeDwellUops);
        dwellLeft_ = 1 + static_cast<std::uint64_t>(
                             -mean * std::log(1.0 - rng_.nextDouble()));
    }
    --dwellLeft_;
    const sim::Addr pc = regionBase_ + regionOffset_;
    // regionOffset_ < loopBytes and kBytesPerUop < 64 <= loopBytes,
    // so a single subtraction replaces the modulo exactly.
    regionOffset_ += kBytesPerUop;
    if (regionOffset_ >= profile_.loopBytes)
        regionOffset_ -= profile_.loopBytes;
    return pc;
}

sim::UopType
ProfileUopSource::sampleType()
{
    const std::uint64_t x = rng_.nextMantissa();
    for (int t = 0; t < sim::kNumUopTypes; ++t) {
        if (x < cumulativeMixThr_[t])
            return static_cast<sim::UopType>(t);
    }
    return sim::UopType::kNop;
}

std::uint8_t
ProfileUopSource::sampleDepDistance()
{
    // Inline of rng_.nextGeometric(profile_.depMeanDist) with the
    // trial threshold precomputed at construction: same draws, same
    // results, no divide on the per-uop path.
    std::uint64_t d = 1;
    if (thrDepGeom_ != 0) {
        while (rng_.nextMantissa() >= thrDepGeom_ && d < 1024)
            ++d;
    }
    return static_cast<std::uint8_t>(std::min<std::uint64_t>(d, 63));
}

sim::Addr
ProfileUopSource::nextDataAddr()
{
    if (rng_.nextMantissa() < thrStream_) {
        // Streaming walks the footprint at element (8B) granularity,
        // so consecutive accesses mostly stay within one cache line —
        // the spatial locality real array code has. The cursor stays
        // below the footprint (>= 64), so wrap by subtraction.
        streamCursor_ += 8;
        if (streamCursor_ >= profile_.dataFootprint)
            streamCursor_ -= profile_.dataFootprint;
        return streamCursor_;
    }
    if (rng_.nextMantissa() < thrStack_)
        return rng_.nextBelow(profile_.stackBytes / 8) * 8;
    if (rng_.nextMantissa() < thrHot_)
        return rng_.nextBelow(profile_.hotBytes / 8) * 8;
    return rng_.nextBelow(profile_.dataFootprint / 8) * 8;
}

sim::Uop
ProfileUopSource::next()
{
    // Phase modulation: in the light phase a fraction of slots carry
    // no modeled resource demand.
    if (phaseLeft_ == 0) {
        lowPhase_ = !lowPhase_;
        const double mean = std::max(1.0, profile_.phaseMeanUops);
        phaseLeft_ = 1 + static_cast<std::uint64_t>(
                             -mean * std::log(1.0 - rng_.nextDouble()));
    }
    --phaseLeft_;
    if (lowPhase_ && rng_.nextMantissa() > thrPhaseLow_) {
        sim::Uop filler;
        filler.type = sim::UopType::kNop;
        filler.pc = nextPc();
        return filler;
    }

    sim::Uop uop;
    uop.type = sampleType();
    uop.pc = nextPc();

    if (uop.type == sim::UopType::kLoad) {
        // Loads serialize on earlier results only when the program
        // actually chases pointers; array address streams are
        // dependence-free and overlap their misses.
        if (rng_.nextMantissa() < thrLoadDep_)
            uop.srcDist1 = sampleDepDistance();
    } else if (uop.type == sim::UopType::kBranch) {
        // Branch conditions are typically simple flag tests; give
        // them lighter dependences so resolution is not dominated by
        // deep value chains.
        if (rng_.nextMantissa() < thrBranchDep_)
            uop.srcDist1 = sampleDepDistance();
    } else {
        if (rng_.nextMantissa() < thrDep_)
            uop.srcDist1 = sampleDepDistance();
        if (rng_.nextMantissa() < thrDep2_)
            uop.srcDist2 = sampleDepDistance();
    }

    switch (uop.type) {
      case sim::UopType::kLoad:
      case sim::UopType::kStore:
        uop.addr = nextDataAddr();
        break;
      case sim::UopType::kBranch:
        uop.mispredict = rng_.nextMantissa() < thrMispredict_;
        break;
      default:
        break;
    }
    return uop;
}

int
ProfileUopSource::nextBatch(sim::Uop *out, int max)
{
    // The class is final, so these next() calls resolve statically.
    for (int i = 0; i < max; ++i)
        out[i] = next();
    return max;
}

} // namespace smite::workload
