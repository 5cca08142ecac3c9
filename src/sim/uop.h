/**
 * @file
 * Micro-operation (uop) definitions and the Sandy Bridge style port
 * binding table (paper, Figure 1).
 *
 * The simulated execution cluster has six issue ports. Ports 0, 1 and
 * 5 host functional units, ports 2 and 3 are load ports, and port 4 is
 * the store port. Several operations are port-specific: FP_MUL only
 * executes on port 0, FP_ADD only on port 1, FP_SHF (shuffle) and
 * branches only on port 5, while simple integer ALU ops can go to any
 * of ports 0, 1 and 5. This port specificity is the property the
 * paper's functional-unit Rulers exploit.
 */

#ifndef SMITE_SIM_UOP_H
#define SMITE_SIM_UOP_H

#include <array>
#include <cstdint>

#include "sim/types.h"

namespace smite::sim {

/** Number of issue ports on the modeled core. */
inline constexpr int kNumPorts = 6;

/** Kinds of micro-operations the trace generators can emit. */
enum class UopType : std::uint8_t {
    kFpMul,   ///< floating point multiply (port 0)
    kFpAdd,   ///< floating point add (port 1)
    kFpShf,   ///< floating point shuffle (port 5)
    kIntAdd,  ///< integer ALU op (ports 0, 1, 5)
    kIntMul,  ///< integer multiply (port 1)
    kBranch,  ///< conditional/indirect branch (port 5)
    kLoad,    ///< memory load (ports 2, 3)
    kStore,   ///< memory store (port 4)
    kNop,     ///< consumes front-end bandwidth but no issue port
    kNumTypes
};

/** Count of distinct uop types. */
inline constexpr int kNumUopTypes = static_cast<int>(UopType::kNumTypes);

/** Bitmask of ports (bit p set = port p allowed) per uop type. */
constexpr std::uint8_t
portMask(UopType type)
{
    switch (type) {
      case UopType::kFpMul:  return 0b000001;  // port 0
      case UopType::kFpAdd:  return 0b000010;  // port 1
      case UopType::kFpShf:  return 0b100000;  // port 5
      case UopType::kIntAdd: return 0b100011;  // ports 0, 1, 5
      case UopType::kIntMul: return 0b000010;  // port 1
      case UopType::kBranch: return 0b100000;  // port 5
      case UopType::kLoad:   return 0b001100;  // ports 2, 3
      case UopType::kStore:  return 0b010000;  // port 4
      default:               return 0;         // kNop needs no port
    }
}

/**
 * Execution latency in cycles from issue to result availability.
 * Loads add their memory-hierarchy latency on top of this.
 */
constexpr Cycle
execLatency(UopType type)
{
    switch (type) {
      case UopType::kFpMul:  return 5;
      case UopType::kFpAdd:  return 3;
      case UopType::kFpShf:  return 1;
      case UopType::kIntAdd: return 1;
      case UopType::kIntMul: return 3;
      case UopType::kBranch: return 1;
      case UopType::kLoad:   return 0;  // memory system supplies latency
      case UopType::kStore:  return 1;
      default:               return 1;
    }
}

/**
 * One micro-operation produced by a trace generator.
 *
 * Register dependences are encoded as distances in program order:
 * srcDist1/srcDist2 say "this uop reads the result of the uop N
 * positions earlier" (0 means no such operand). Distances must be
 * less than HardwareContext::kDepRing.
 */
struct Uop {
    UopType type = UopType::kNop;
    std::uint8_t srcDist1 = 0;   ///< first operand distance, 0 = none
    std::uint8_t srcDist2 = 0;   ///< second operand distance, 0 = none
    bool mispredict = false;     ///< branches: predicted wrong?
    Addr addr = 0;               ///< loads/stores: virtual data address
    Addr pc = 0;                 ///< virtual instruction address
};

/**
 * Abstract producer of an (infinite) uop stream for one hardware
 * context. Implementations must be deterministic: after reset() the
 * exact same stream is produced again.
 */
class UopSource {
  public:
    virtual ~UopSource() = default;

    /** Produce the next uop in program order. */
    virtual Uop next() = 0;

    /**
     * Fill @p out with the next @p max uops in program order and
     * return how many were produced (always @p max for the infinite
     * streams this interface models). The batch form lets hot callers
     * amortize the virtual dispatch; overriding it in a `final` class
     * additionally devirtualizes the per-uop next() calls.
     */
    virtual int
    nextBatch(Uop *out, int max)
    {
        for (int i = 0; i < max; ++i)
            out[i] = next();
        return max;
    }

    /** Rewind the stream to its initial state. */
    virtual void reset() = 0;

    /**
     * Bytes of long-lived hot data at the base of this stream's data
     * space. The machine functionally pre-warms this region into the
     * shared cache before a run (capacity contention appears only
     * once resident sets are actually resident).
     */
    virtual Addr hotFootprint() const { return 0; }

    /**
     * Bytes of static code at the base of this stream's instruction
     * space, pre-warmed like hotFootprint() (a process's text is
     * resident long before a measurement interval starts).
     */
    virtual Addr codeFootprint() const { return 0; }

    /**
     * Relative rate at which this stream touches the shared cache
     * (accesses that reach beyond the private levels). Under LRU,
     * steady-state occupancy follows re-reference rate, so the
     * machine splits pre-warm budgets between co-runners in
     * proportion to this weight. Dimensionless; only ratios matter.
     */
    virtual double residencyWeight() const { return 1.0; }

    /**
     * Identity digest of the stream this source produces, or 0 if the
     * source cannot promise one. Two sources with the same non-zero
     * digest must emit byte-identical uop streams after reset() —
     * Machine::run() binds (hence resets) every source, so a run's
     * outcome is a pure function of (machine config, placement
     * coordinates, stream digests, interval bounds). That is exactly
     * the key the run-level replay store (sim/replay.h) memoizes on;
     * sources returning 0 opt out of replay entirely. Every production
     * source (ruler and profile streams) overrides this; the zero
     * default exists only for ad-hoc test doubles.
     */
    virtual std::uint64_t streamDigest() const { return 0; }
};

} // namespace smite::sim

#endif // SMITE_SIM_UOP_H
