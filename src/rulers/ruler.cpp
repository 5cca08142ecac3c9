#include "rulers/ruler.h"

#include <stdexcept>

#include "fault/keyed.h"
#include "sim/types.h"

namespace smite::rulers {

namespace {

/** sim::UopType executed by each FU dimension. */
sim::UopType
fuUopType(Dimension dim)
{
    switch (dim) {
      case Dimension::kFpMul:  return sim::UopType::kFpMul;
      case Dimension::kFpAdd:  return sim::UopType::kFpAdd;
      case Dimension::kFpShf:  return sim::UopType::kFpShf;
      case Dimension::kIntAdd: return sim::UopType::kIntAdd;
      default:
        throw std::invalid_argument("not a functional-unit dimension");
    }
}

/**
 * Functional-unit stressor (Figure 9a-d): a dependence-free unrolled
 * loop of one port-specific operation. The duty cycle is realized
 * with a deterministic accumulator so the stream has no randomness
 * at all.
 */
class FuRulerSource : public sim::UopSource
{
  public:
    FuRulerSource(sim::UopType type, double duty)
        : type_(type), duty_(duty)
    {}

    sim::Uop
    next() override
    {
        sim::Uop uop;
        uop.pc = pc_;
        pc_ = (pc_ + 4) % kCodeBytes;
        acc_ += duty_;
        if (acc_ >= 1.0 - 1e-12) {
            acc_ -= 1.0;
            uop.type = type_;
        } else {
            uop.type = sim::UopType::kNop;
        }
        return uop;
    }

    void
    reset() override
    {
        acc_ = 0.0;
        pc_ = 0;
    }

    std::uint64_t
    streamDigest() const override
    {
        // Fully deterministic in (type, duty): replay-eligible.
        return fault::Digest{}
            .str("ruler.fu")
            .u64(static_cast<std::uint64_t>(type_))
            .f64(duty_)
            .value();
    }

  private:
    static constexpr sim::Addr kCodeBytes = 256;  // unrolled loop body

    sim::UopType type_;
    double duty_;
    double acc_ = 0.0;
    sim::Addr pc_ = 0;
};

/** The 32-bit Galois LFSR of Figure 9(e). */
class Lfsr32
{
  public:
    std::uint32_t
    next()
    {
        state_ = (state_ >> 1) ^
                 (static_cast<std::uint32_t>(-(state_ & 1u)) &
                  0xd0000001u);
        return state_;
    }

    void reset() { state_ = kSeed; }

  private:
    static constexpr std::uint32_t kSeed = 0xACE1ACE1u;
    std::uint32_t state_ = kSeed;
};

/**
 * L1/L2 cache stressor (Figure 9e):
 * `data_chunk[RAND % FOOTPRINT]++` — a load, the increment, and the
 * store back to the same element, plus one ALU op for the LFSR.
 */
class RandomMemRulerSource : public sim::UopSource
{
  public:
    explicit RandomMemRulerSource(std::uint64_t working_set)
        : workingSet_(working_set)
    {
        if (working_set < sim::kLineBytes)
            throw std::invalid_argument("ruler working set too small");
    }

    sim::Uop
    next() override
    {
        // One iteration of Figure 9(e) is seven uops: a four-op
        // serial LFSR update (shift, mask, negate, xor — the chain
        // paces the kernel at ~4 cycles/iteration regardless of its
        // own memory latency), then the dependent load of
        // data_chunk[RAND % FOOTPRINT], the increment, and the store
        // back. Consecutive iterations' loads are independent, so
        // the memory pressure scales with the working set while the
        // pressure on ports and the front end stays moderate — the
        // paper's decoupling principle.
        sim::Uop uop;
        uop.pc = pc_;
        pc_ = (pc_ + 4) % kCodeBytes;
        switch (phase_) {
          case 0:  // LFSR step 1: chained to the previous iteration
            uop.type = sim::UopType::kIntAdd;
            uop.srcDist1 = 4;  // previous iteration's LFSR step 4
            break;
          case 1:
          case 2:
          case 3:  // LFSR steps 2-4: serial
            uop.type = sim::UopType::kIntAdd;
            uop.srcDist1 = 1;
            break;
          case 4:  // load data_chunk[RAND % FOOTPRINT]
            addr_ = (lfsr_.next() % (workingSet_ / 8)) * 8;
            uop.type = sim::UopType::kLoad;
            uop.addr = addr_;
            uop.srcDist1 = 1;  // the LFSR value
            break;
          case 5:  // ++ (depends on the load)
            uop.type = sim::UopType::kIntAdd;
            uop.srcDist1 = 1;
            break;
          default:  // store back (depends on the increment)
            uop.type = sim::UopType::kStore;
            uop.addr = addr_;
            uop.srcDist1 = 1;
            break;
        }
        phase_ = (phase_ + 1) % 7;
        return uop;
    }

    void
    reset() override
    {
        lfsr_.reset();
        phase_ = 0;
        addr_ = 0;
        pc_ = 0;
    }

    sim::Addr hotFootprint() const override { return workingSet_; }

    double
    residencyWeight() const override
    {
        // Working sets that fit the private caches exert almost no
        // shared-cache claim.
        return workingSet_ > (1 << 20) ? 0.5 : 1e-3;
    }

    std::uint64_t
    streamDigest() const override
    {
        // The LFSR seed is a class constant, so the working set is
        // the whole identity.
        return fault::Digest{}
            .str("ruler.randmem")
            .u64(workingSet_)
            .value();
    }

  private:
    static constexpr sim::Addr kCodeBytes = 192;

    std::uint64_t workingSet_;
    Lfsr32 lfsr_;
    int phase_ = 0;
    sim::Addr addr_ = 0;
    sim::Addr pc_ = 0;
};

/**
 * L3 cache stressor (Figure 9f): stride-64 walk writing each half of
 * the footprint with loads from the other half
 * (`first_chunk[i] = second_chunk[i] + 1`).
 */
class StrideMemRulerSource : public sim::UopSource
{
  public:
    explicit StrideMemRulerSource(std::uint64_t working_set)
        : half_(working_set / 2)
    {
        if (half_ < sim::kLineBytes)
            throw std::invalid_argument("ruler working set too small");
    }

    sim::Uop
    next() override
    {
        sim::Uop uop;
        uop.pc = pc_;
        pc_ = (pc_ + 4) % kCodeBytes;
        switch (phase_) {
          case 0:  // load second_chunk[i]
            uop.type = sim::UopType::kLoad;
            uop.addr = half_ + cursor_;
            break;
          case 1:  // + 1
            uop.type = sim::UopType::kIntAdd;
            uop.srcDist1 = 1;
            break;
          case 2:  // store first_chunk[i]
            uop.type = sim::UopType::kStore;
            uop.addr = cursor_;
            uop.srcDist1 = 1;
            cursor_ += sim::kLineBytes;
            if (cursor_ >= half_) {
                cursor_ = 0;
                swap_ = !swap_;
            }
            break;
          default:  // i += 64
            uop.type = sim::UopType::kIntAdd;
            break;
        }
        phase_ = (phase_ + 1) % 4;
        return uop;
    }

    void
    reset() override
    {
        phase_ = 0;
        cursor_ = 0;
        swap_ = false;
        pc_ = 0;
    }

    sim::Addr hotFootprint() const override { return 2 * half_; }

    double residencyWeight() const override { return 1.0; }

    std::uint64_t
    streamDigest() const override
    {
        return fault::Digest{}.str("ruler.stride").u64(half_).value();
    }

  private:
    static constexpr sim::Addr kCodeBytes = 192;

    std::uint64_t half_;
    int phase_ = 0;
    sim::Addr cursor_ = 0;
    bool swap_ = false;
    sim::Addr pc_ = 0;
};

} // namespace

Ruler
Ruler::functionalUnit(Dimension dim, double duty_cycle)
{
    if (!isFunctionalUnit(dim))
        throw std::invalid_argument("expected a functional-unit dimension");
    if (duty_cycle < 0.0 || duty_cycle > 1.0)
        throw std::invalid_argument("duty cycle must be in [0, 1]");
    Ruler r;
    r.dim_ = dim;
    r.dutyCycle_ = duty_cycle;
    r.name_ = "ruler:" + std::string(dimensionName(dim));
    return r;
}

Ruler
Ruler::memory(Dimension dim, std::uint64_t working_set)
{
    if (isFunctionalUnit(dim))
        throw std::invalid_argument("expected a memory dimension");
    if (working_set < 2 * sim::kLineBytes)
        throw std::invalid_argument("ruler working set too small");
    Ruler r;
    r.dim_ = dim;
    r.workingSet_ = working_set;
    r.name_ = "ruler:" + std::string(dimensionName(dim));
    return r;
}

std::unique_ptr<sim::UopSource>
Ruler::makeSource() const
{
    switch (dim_) {
      case Dimension::kFpMul:
      case Dimension::kFpAdd:
      case Dimension::kFpShf:
      case Dimension::kIntAdd:
        return std::make_unique<FuRulerSource>(fuUopType(dim_),
                                               dutyCycle_);
      case Dimension::kL1:
      case Dimension::kL2:
        return std::make_unique<RandomMemRulerSource>(workingSet_);
      case Dimension::kL3:
        return std::make_unique<StrideMemRulerSource>(workingSet_);
    }
    throw std::logic_error("unreachable");
}

std::vector<Ruler>
defaultSuite(const sim::MachineConfig &config)
{
    std::vector<Ruler> suite;
    suite.reserve(kNumDimensions);
    suite.push_back(Ruler::functionalUnit(Dimension::kFpMul));
    suite.push_back(Ruler::functionalUnit(Dimension::kFpAdd));
    suite.push_back(Ruler::functionalUnit(Dimension::kFpShf));
    suite.push_back(Ruler::functionalUnit(Dimension::kIntAdd));
    suite.push_back(Ruler::memory(Dimension::kL1, config.l1d.sizeBytes));
    suite.push_back(Ruler::memory(Dimension::kL2, config.l2.sizeBytes));
    // The L3 ruler over-subscribes the L3 so its stride walk misses
    // continuously: that is what pressures both the shared L3
    // capacity and the memory bandwidth behind it.
    suite.push_back(Ruler::memory(Dimension::kL3,
                                  3 * config.l3.sizeBytes / 2));
    return suite;
}

} // namespace smite::rulers
