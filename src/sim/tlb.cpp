#include "sim/tlb.h"

#include <stdexcept>

namespace smite::sim {

namespace {

/** Smallest power of two >= @p v. */
std::size_t
nextPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

Tlb::Tlb(const TlbConfig &config)
    : config_(config)
{
    if (config.entries <= 0)
        throw std::invalid_argument("TLB must have at least one entry");
    const std::int32_t n = config.entries;
    pages_.assign(static_cast<std::size_t>(n), kNoPage);
    prev_.resize(pages_.size());
    next_.resize(pages_.size());
    // <= 25% load factor keeps linear-probe chains short.
    table_.assign(nextPow2(4 * pages_.size()), kNil);
    tableMask_ = table_.size() - 1;
    // Seed the LRU list in entry-index order: the scan model fills
    // empty entries lowest-index first, and a fresh list reproduces
    // exactly that victim sequence.
    for (std::int32_t i = 0; i < n; ++i) {
        prev_[i] = i - 1;
        next_[i] = i + 1 < n ? i + 1 : kNil;
    }
    lruHead_ = 0;
    lruTail_ = n - 1;
}

void
Tlb::unlink(std::int32_t e)
{
    if (prev_[e] != kNil)
        next_[prev_[e]] = next_[e];
    else
        lruHead_ = next_[e];
    if (next_[e] != kNil)
        prev_[next_[e]] = prev_[e];
    else
        lruTail_ = prev_[e];
}

void
Tlb::pushMru(std::int32_t e)
{
    prev_[e] = lruTail_;
    next_[e] = kNil;
    if (lruTail_ != kNil)
        next_[lruTail_] = e;
    else
        lruHead_ = e;
    lruTail_ = e;
}

void
Tlb::tableInsert(Addr page, std::int32_t entry)
{
    std::size_t cell = hashOf(page) & tableMask_;
    while (table_[cell] != kNil)
        cell = (cell + 1) & tableMask_;
    table_[cell] = entry;
}

std::size_t
Tlb::cellOf(Addr page) const
{
    std::size_t cell = hashOf(page) & tableMask_;
    while (pages_[table_[cell]] != page)
        cell = (cell + 1) & tableMask_;
    return cell;
}

void
Tlb::tableErase(std::size_t cell)
{
    // Backward-shift deletion: pull later probe-chain members into
    // the hole so lookups never need tombstones.
    std::size_t i = cell;
    std::size_t j = cell;
    while (true) {
        table_[i] = kNil;
        std::size_t ideal;
        do {
            j = (j + 1) & tableMask_;
            if (table_[j] == kNil)
                return;
            ideal = hashOf(pages_[table_[j]]) & tableMask_;
            // Skip entries whose ideal cell lies cyclically in (i, j]:
            // they are reachable without passing through the hole.
        } while (i <= j ? (i < ideal && ideal <= j)
                        : (i < ideal || ideal <= j));
        table_[i] = table_[j];
        i = j;
    }
}

bool
Tlb::access(Addr page)
{
    // Repeat of the previous translation: the page's entry is already
    // the MRU tail, so the hash probe and relink are dead work.
    if (page == lastPage_)
        return true;
    lastPage_ = page;
    std::size_t cell = hashOf(page) & tableMask_;
    for (std::int32_t e = table_[cell]; e != kNil;
         cell = (cell + 1) & tableMask_, e = table_[cell]) {
        if (pages_[e] == page) {
            if (e != lruTail_) {
                unlink(e);
                pushMru(e);
            }
            return true;
        }
    }

    // Miss: evict the least recently used entry and refill it.
    const std::int32_t victim = lruHead_;
    if (pages_[victim] != kNoPage)
        tableErase(cellOf(pages_[victim]));
    pages_[victim] = page;
    tableInsert(page, victim);
    if (victim != lruTail_) {
        unlink(victim);
        pushMru(victim);
    }
    return false;
}

} // namespace smite::sim
