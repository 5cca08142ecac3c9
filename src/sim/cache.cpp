#include "sim/cache.h"

#include <cassert>
#include <stdexcept>

namespace smite::sim {

namespace {

/** File-scope alias of SetAssocCache::kNoTag (private). */
constexpr Addr kNoTag = ~Addr{0};

/** Index of the first way whose tag equals @p needle, or -1. */
int
findWay(const Addr *tags, Addr needle, int assoc)
{
    for (int w = 0; w < assoc; ++w) {
        if (tags[w] == needle)
            return w;
    }
    return -1;
}

/**
 * access()'s lookup: way holding @p line (preferred) or, failing that,
 * the first empty way, in one pass over the tags. It runs for every
 * access that misses the repeat memo, so it is the hottest comparison
 * loop in the simulator; a plain loop, since an AVX2 version measured
 * no faster (docs/PERFORMANCE.md).
 */
struct WayPair {
    int hit;    ///< way holding the line, or -1
    int empty;  ///< first invalid way, or -1 (valid only on miss)
};

WayPair
findWays(const Addr *tags, Addr line, int assoc)
{
    WayPair r{-1, -1};
    for (int w = 0; w < assoc; ++w) {
        if (tags[w] == line) {
            r.hit = w;
            return r;
        }
        if (r.empty < 0 && tags[w] == kNoTag)
            r.empty = w;
    }
    return r;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : config_(config), assoc_(config.assoc)
{
    if (config.assoc <= 0)
        throw std::invalid_argument("cache assoc must be positive");
    const std::uint64_t line_bytes = kLineBytes;
    const std::uint64_t lines = config.sizeBytes / line_bytes;
    if (lines == 0 || lines % config.assoc != 0) {
        throw std::invalid_argument(
            "cache size must be a positive multiple of assoc * 64B");
    }
    numSets_ = lines / config.assoc;
    setsPow2_ = (numSets_ & (numSets_ - 1)) == 0;
    setMask_ = numSets_ - 1;
    tags_.assign(lines, kNoTag);
    lastUse_.assign(lines, 0);
    dirty_.assign(lines, 0);
    // An associativity that collides with the sentinel (never a real
    // machine) simply starts broken and always scans.
    fillWays_.assign(numSets_,
                     assoc_ < kNoPrefix ? std::uint8_t{0} : kNoPrefix);
}

SetAssocCache::AccessResult
SetAssocCache::access(Addr line, bool write)
{
    AccessResult result;
    // Repeat of the immediately preceding access: the line is the
    // array's MRU way, so this is a hit whose stamp refresh is
    // order-preserving dead work (see lastLine_) — skip it all.
    if (line == lastLine_) {
        if (write)
            dirty_[lastIdx_] = 1;
        result.hit = true;
        return result;
    }
    const std::uint64_t set = setIndex(line);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    const Addr *tags = tags_.data() + base;
    const int assoc = assoc_;
    ++useClock_;

    const WayPair ways = findWays(tags, line, assoc);
    if (ways.hit >= 0) {
        lastUse_[base + ways.hit] = useClock_;
        if (write)
            dirty_[base + ways.hit] = 1;
        lastLine_ = line;
        lastIdx_ = base + ways.hit;
        result.hit = true;
        return result;
    }

    // Miss: the first empty way is the victim while the set is still
    // filling (empty ways hold stamp 0, valid ways stamps >= 1, so
    // this is what an argmin over stamps would pick, first index
    // winning ties). Only a full set needs the LRU stamp scan — the
    // fill-heavy prewarm path never touches the stamp array at all.
    int victim = ways.empty;
    if (victim >= 0) {
        // Under the prefix invariant the first empty way IS the fill
        // count, so allocating it just extends the prefix.
        if (fillWays_[set] != kNoPrefix) {
            assert(victim == fillWays_[set]);
            ++fillWays_[set];
        }
    }
    if (victim < 0) {
        const std::uint64_t *use = lastUse_.data() + base;
        victim = 0;
        std::uint64_t best = use[0];
        for (int w = 1; w < assoc; ++w) {
            if (use[w] < best) {
                best = use[w];
                victim = w;
            }
        }
    }

    const std::size_t v = base + victim;
    if (tags_[v] != kNoTag) {
        result.evictedValid = true;
        result.evictedDirty = dirty_[v] != 0;
        result.evictedLine = tags_[v];
    }
    tags_[v] = line;
    lastUse_[v] = useClock_;
    dirty_[v] = static_cast<std::uint8_t>(write);
    lastLine_ = line;
    lastIdx_ = v;
    return result;
}

SetAssocCache::AccessResult
SetAssocCache::insertAbsent(Addr line)
{
    AccessResult result;
    const std::uint64_t set = setIndex(line);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    const Addr *tags = tags_.data() + base;
    const int assoc = assoc_;
    ++useClock_;
    assert(findWay(tags, line, assoc) < 0 &&
           "insertAbsent: line already present");

    // Same victim selection as the access() miss path: first empty
    // way while the set fills, LRU stamp argmin once it is full.
    // With the prefix invariant intact the first empty way is known
    // without reading a single tag — the common case while prewarm
    // streams megabytes of lines into a fresh cache.
    const std::uint8_t fill = fillWays_[set];
    int victim;
    if (fill == kNoPrefix) {
        victim = findWay(tags, kNoTag, assoc);
    } else if (fill < assoc) {
        victim = fill;
        fillWays_[set] = fill + 1;
    } else {
        victim = -1;  // prefix full: every way valid, go to LRU
    }
    if (victim < 0) {
        const std::uint64_t *use = lastUse_.data() + base;
        victim = 0;
        std::uint64_t best = use[0];
        for (int w = 1; w < assoc; ++w) {
            if (use[w] < best) {
                best = use[w];
                victim = w;
            }
        }
    }

    const std::size_t v = base + victim;
    if (tags_[v] != kNoTag) {
        result.evictedValid = true;
        result.evictedDirty = dirty_[v] != 0;
        result.evictedLine = tags_[v];
    }
    tags_[v] = line;
    lastUse_[v] = useClock_;
    dirty_[v] = 0;
    // The insert may have evicted the memoized line; the new line is
    // now the MRU way, so point the memo at it.
    lastLine_ = line;
    lastIdx_ = v;
    return result;
}

void
SetAssocCache::insertAbsentRange(Addr line, std::uint64_t count)
{
    // The fast loop needs set = line & mask so consecutive lines walk
    // consecutive sets; non-power-of-two geometries take the slow path.
    if (!setsPow2_) {
        for (std::uint64_t k = 0; k < count; ++k)
            insertAbsent(line + k);
        return;
    }
    const int assoc = assoc_;
    for (std::uint64_t k = 0; k < count; ++k) {
        const Addr l = line + k;
        const std::uint64_t set = l & setMask_;
        const std::uint8_t fill = fillWays_[set];
        // fill < assoc implies the prefix invariant holds (kNoPrefix
        // exceeds any real associativity) and way `fill` is empty, so
        // this insert cannot evict: it is exactly the insertAbsent()
        // prefix path with the victim known up front.
        if (fill < assoc) {
            const std::size_t v =
                static_cast<std::size_t>(set) * assoc + fill;
            fillWays_[set] = fill + 1;
            tags_[v] = l;
            lastUse_[v] = ++useClock_;
            // dirty_[v] is already 0: a way beyond the fill prefix was
            // either never valid or was invalidated as the last prefix
            // way, and both paths leave the dirty bit cleared.
            lastLine_ = l;
            lastIdx_ = v;
        } else {
            insertAbsent(l);
        }
    }
}

bool
SetAssocCache::probe(Addr line) const
{
    const std::uint64_t set = setIndex(line);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    return findWay(tags_.data() + base, line, assoc_) >= 0;
}

bool
SetAssocCache::invalidate(Addr line)
{
    const std::uint64_t set = setIndex(line);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    const int w = findWay(tags_.data() + base, line, assoc_);
    if (w < 0)
        return false;
    tags_[base + w] = kNoTag;
    lastUse_[base + w] = 0;
    dirty_[base + w] = 0;
    lastLine_ = kNoTag;  // the memo may point at the dropped line
    // Dropping the last prefix way just shortens the prefix; a hole
    // anywhere else breaks it for the rest of the run.
    const std::uint8_t fill = fillWays_[set];
    if (fill != kNoPrefix)
        fillWays_[set] = (w == fill - 1) ? fill - 1 : kNoPrefix;
    return true;
}

} // namespace smite::sim
