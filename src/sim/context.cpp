#include "sim/context.h"

#include <bit>
#include <cassert>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace smite::sim {

HardwareContext::HardwareContext(const CoreConfig &core_config,
                                 const TlbConfig &itlb_config,
                                 const TlbConfig &dtlb_config)
    : coreConfig_(core_config), itlb_(itlb_config), dtlb_(dtlb_config)
{
    // Distances reach up to 63 uops behind any in-window uop, so the
    // ring must cover window + 63 live seq slots.
    if (core_config.windowSize + 63 >= kDepRing) {
        throw std::invalid_argument(
            "window size too large for the dependence ring");
    }
    windowCap_ = core_config.windowSize;
    slotType_.assign(windowCap_, 0);
    slotPort_.assign(64 * ((windowCap_ + 63) / 64), 0);
    slotLat_.assign(windowCap_, 0);
    slotAddr_.assign(windowCap_, 0);
    slotSeq_.assign(windowCap_, 0);
    slotReady_.assign(windowCap_, 0);
    slotPending_.assign(windowCap_, 0);
    slotWaiters_.assign(windowCap_, -1);
    edgeNext_.assign(2 * windowCap_, -1);
    unissuedBits_.assign((windowCap_ + 63) / 64, 0);
    readyBits_.assign(unissuedBits_.size(), 0);
    calHead_.assign(kCalendar, -1);
    calNext_.assign(windowCap_, -1);
    mshrBusyUntil_.assign(core_config.mshrs, 0);
    completion_.fill(0);
}

void
HardwareContext::bind(UopSource *source, Addr addr_base, Addr pc_base)
{
    source_ = source;
    addrBase_ = addr_base;
    pcBase_ = pc_base;
    if (source_ != nullptr)
        source_->reset();
    head_ = 0;
    count_ = 0;
    slotReady_.assign(windowCap_, 0);
    slotPending_.assign(windowCap_, 0);
    slotWaiters_.assign(windowCap_, -1);
    edgeNext_.assign(2 * windowCap_, -1);
    unissuedBits_.assign(unissuedBits_.size(), 0);
    readyBits_.assign(readyBits_.size(), 0);
    calHead_.assign(kCalendar, -1);
    calNext_.assign(windowCap_, -1);
    calOcc_.fill(0);
    lastDrain_ = 0;
    unissued_ = 0;
    nextSeq_ = 0;
    completion_.fill(0);
    fetchStallUntil_ = 0;
    waitingBranch_ = false;
    lastFetchLine_ = ~Addr{0};
    mshrBusyUntil_.assign(coreConfig_.mshrs, 0);
    mshrAllBusyUntil_ = 0;
    noIssueBefore_ = 0;
    fetchBufPos_ = 0;
    fetchBufLen_ = 0;
    replayMasks_.clear();
    lastScanCycle_ = kNeverCycle;
    replayValid_ = false;
    counters_ = CounterBlock{};
}

int
HardwareContext::freeMshr(Cycle now)
{
    if (now < mshrAllBusyUntil_)
        return -1;
    const std::size_t n = mshrBusyUntil_.size();
    Cycle earliest = kNeverCycle;
    for (std::size_t i = 0; i < n; ++i) {
        if (mshrBusyUntil_[i] <= now)
            return static_cast<int>(i);
        earliest = earliest < mshrBusyUntil_[i] ? earliest
                                                : mshrBusyUntil_[i];
    }
    // No mutation can free a slot earlier than the current minimum:
    // assignments only happen after a successful scan, and time only
    // moves forward, so the memo stays valid until it expires.
    mshrAllBusyUntil_ = earliest;
    return -1;
}

int
HardwareContext::pickPort(unsigned mask, unsigned port_busy)
{
    const unsigned available = mask & ~port_busy;
    if (available == 0)
        return -1;
    // First free port cyclically at or after the rotor: scan the bits
    // >= rotor, falling back to the lowest set bit on wrap-around.
    const unsigned at_or_after = available >> portRotor_;
    const int port = at_or_after != 0
                         ? portRotor_ + std::countr_zero(at_or_after)
                         : std::countr_zero(available);
    portRotor_ = port + 1 == kNumPorts ? 0 : port + 1;
    return port;
}

void
HardwareContext::portBlockedSlots(unsigned port_busy,
                                  std::uint64_t *out) const
{
    const std::uint8_t *const ports = slotPort_.data();
    const int words = static_cast<int>(slotPort_.size() / 64);
#if defined(__SSE2__)
    // SSE2 is the x86-64 baseline: 16 slots per compare.
    const __m128i busy = _mm_set1_epi8(static_cast<char>(port_busy));
    const __m128i zero = _mm_setzero_si128();
    for (int w = 0; w < words; ++w) {
        std::uint64_t m = 0;
        for (int k = 0; k < 4; ++k) {
            const __m128i p = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ports + 64 * w + 16 * k));
            const int no_free = _mm_movemask_epi8(
                _mm_cmpeq_epi8(_mm_andnot_si128(busy, p), zero));
            const int nop = _mm_movemask_epi8(_mm_cmpeq_epi8(p, zero));
            m |= static_cast<std::uint64_t>(no_free & ~nop) << (16 * k);
        }
        out[w] = m;
    }
#else
    for (int w = 0; w < words; ++w) {
        std::uint64_t m = 0;
        for (int i = 0; i < 64; ++i) {
            const unsigned p = ports[64 * w + i];
            if (p != 0 && (p & ~port_busy) == 0)
                m |= std::uint64_t{1} << i;
        }
        out[w] = m;
    }
#endif
}

void
HardwareContext::pushCalendar(int idx, Cycle r)
{
    const int bucket = static_cast<int>(r & (kCalendar - 1));
    calNext_[idx] = calHead_[bucket];
    calHead_[bucket] = idx;
    calOcc_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
}

void
HardwareContext::drainCalendar(Cycle now)
{
    const auto drain_bucket = [&](int bucket) {
        std::int32_t idx = calHead_[bucket];
        calHead_[bucket] = -1;
        calOcc_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
        while (idx >= 0) {
            const std::int32_t next = calNext_[idx];
            if (slotReady_[idx] <= now) {
                readyBits_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
            } else {
                // Aliased entry (a full lap or more ahead); it comes
                // back around on a later drain.
                pushCalendar(idx, slotReady_[idx]);
            }
            idx = next;
        }
    };
    // Visit the occupied buckets among those a ready cycle in
    // (lastDrain_, now] can map to: every bucket once the span covers
    // a whole lap, otherwise the cyclic bucket range between the two
    // drain points. Aliased re-pushes may land in not-yet-visited
    // buckets of the range; the repeat visit re-pushes them again —
    // wasted motion, but a slot is never dropped or duplicated.
    const auto visit_range = [&](int lo, int hi) {  // inclusive buckets
        const int lw = lo >> 6;
        const int hw = hi >> 6;
        for (int w = lw; w <= hw; ++w) {
            std::uint64_t m = calOcc_[w];
            if (w == lw)
                m &= ~std::uint64_t{0} << (lo & 63);
            if (w == hw && (hi & 63) != 63)
                m &= ~(~std::uint64_t{0} << ((hi & 63) + 1));
            while (m != 0) {
                drain_bucket((w << 6) + std::countr_zero(m));
                m &= m - 1;
            }
        }
    };
    if (now - lastDrain_ >= kCalendar) {
        visit_range(0, kCalendar - 1);
    } else {
        const int lo = static_cast<int>((lastDrain_ + 1) & (kCalendar - 1));
        const int hi = static_cast<int>(now & (kCalendar - 1));
        if (lo <= hi) {
            visit_range(lo, hi);
        } else {
            visit_range(lo, kCalendar - 1);
            visit_range(0, hi);
        }
    }
    lastDrain_ = now;
}

Cycle
HardwareContext::calendarNextEvent(Cycle now) const
{
    constexpr int kMask = kCalendar - 1;
    constexpr int kWords = kCalendar / 64;
    const int start = static_cast<int>((now + 1) & kMask);
    const int start_word = start >> 6;
    // Walk the occupancy bitmap cyclically from the bucket for
    // now + 1; the final iteration picks up the wrapped low bits of
    // the start word. The first set bit in cyclic order is the
    // nearest bucket, hence the smallest distance.
    for (int k = 0; k <= kWords; ++k) {
        int w = start_word + k;
        if (w >= kWords)
            w -= kWords;
        std::uint64_t m = calOcc_[w];
        if (k == 0)
            m &= ~std::uint64_t{0} << (start & 63);
        else if (k == kWords)
            m &= ~(~std::uint64_t{0} << (start & 63));
        if (m != 0) {
            const int bucket = (w << 6) + std::countr_zero(m);
            return now + 1 + ((bucket - start) & kMask);
        }
    }
    return kNeverCycle;
}

void
HardwareContext::resolveWaiters(int idx, Cycle finish)
{
    std::int32_t edge = slotWaiters_[idx];
    slotWaiters_[idx] = -1;
    while (edge >= 0) {
        const int waiter = edge >> 1;
        const std::int32_t next = edgeNext_[edge];
        if (finish > slotReady_[waiter])
            slotReady_[waiter] = finish;
        if (--slotPending_[waiter] == 0) {
            // Last producer known: the ready time is now exact. The
            // producer completes strictly after the current cycle, so
            // the waiter always lands in a future calendar bucket.
            pushCalendar(waiter, slotReady_[waiter]);
        }
        edge = next;
    }
}

int
HardwareContext::fetch(Cycle now, int budget, int core, MemorySystem &mem)
{
    if (!active())
        return 0;
    if (waitingBranch_ || fetchStallUntil_ > now) {
        ++counters_.fetchStallCycles;
        return 0;
    }

    const int cap = windowCap_;
    int fetched = 0;
    while (fetched < budget && count_ < cap) {
        if (fetchBufPos_ == fetchBufLen_) {
            fetchBufLen_ =
                source_->nextBatch(fetchBuf_.data(), kFetchBatch);
            fetchBufPos_ = 0;
        }
        int tail = head_ + count_;
        if (tail >= cap)
            tail -= cap;
        const Uop &uop = fetchBuf_[fetchBufPos_++];
        const Addr pc = uop.pc + pcBase_;

        // Instruction supply: probe the L1I once per new line. A miss
        // stalls subsequent fetch for the fill latency.
        const Addr fetch_line = lineAddr(pc);
        if (fetch_line != lastFetchLine_) {
            lastFetchLine_ = fetch_line;
            const Cycle lat =
                mem.instrAccess(core, pc, now, counters_, itlb_);
            if (lat > mem.l1iHitLatency())
                fetchStallUntil_ = now + lat;
        }

        const std::uint64_t seq = nextSeq_++;
        completion_[seq % kDepRing] = kNeverCycle;
        slotSeq_[tail] = seq;
        slotType_[tail] = static_cast<std::uint8_t>(uop.type);
        slotPort_[tail] = portMask(uop.type);
        slotLat_[tail] = execLatency(uop.type);
        if (uop.type == UopType::kLoad || uop.type == UopType::kStore)
            slotAddr_[tail] = uop.addr + addrBase_;

        // Operand readiness, resolved eagerly at insert: an issued
        // producer's completion cycle is already recorded in the
        // dependence ring (entries within distance 63 cannot have
        // been recycled); an unissued producer is still in the window
        // at index seq%cap (inserts and seqs advance in lockstep), so
        // a forward edge defers this slot until that producer issues.
        Cycle ready = 0;
        int pending = 0;
        const auto link = [&](std::uint8_t dist, int op) {
            if (dist == 0)
                return;
            const std::uint64_t pseq = seq - dist;
            const Cycle done = completion_[pseq % kDepRing];
            if (done != kNeverCycle) {
                if (done > ready)
                    ready = done;
                return;
            }
            // pseq % cap without the runtime divide: inserts and seqs
            // advance in lockstep, so the producer sits `dist` slots
            // behind this one in the ring.
            int pidx = tail - dist;
            if (pidx < 0)
                pidx += cap;
            const std::int32_t edge = 2 * tail + op;
            edgeNext_[edge] = slotWaiters_[pidx];
            slotWaiters_[pidx] = edge;
            ++pending;
        };
        link(uop.srcDist1, 0);
        link(uop.srcDist2, 1);
        slotReady_[tail] = ready;
        slotPending_[tail] = static_cast<std::uint8_t>(pending);
        if (pending == 0) {
            // Exact ready time already known: a cycle the calendar
            // has drained past goes straight into the ready bitmap;
            // anything later waits in its calendar bucket (the next
            // drain covers (lastDrain_, now], so a ready cycle at or
            // before `now` still surfaces in time).
            if (ready <= lastDrain_)
                readyBits_[tail >> 6] |= std::uint64_t{1} << (tail & 63);
            else
                pushCalendar(tail, ready);
        }

        unissuedBits_[tail >> 6] |= std::uint64_t{1} << (tail & 63);
        ++unissued_;
        ++count_;
        ++fetched;

        if (uop.type == UopType::kBranch) {
            ++counters_.branches;
            if (uop.mispredict) {
                ++counters_.branchMispredicts;
                // Fetch must stop until this branch resolves; the
                // redirect penalty is added when it issues.
                waitingBranch_ = true;
                waitingBranchSeq_ = seq;
                break;
            }
        }
        if (fetchStallUntil_ > now)
            break;  // the line miss above blocks further fetch
    }
    if (fetched > 0)
        noIssueBefore_ = 0;  // a new uop may be issuable right away
    return fetched;
}

void
HardwareContext::replaySkippedScans(Cycle scans)
{
    // Tabulate one skipped scan's effect on the rotor from each of
    // the kNumPorts possible start states (the masks are applied
    // against an empty busy mask, exactly as the skipped scans would
    // have — mirrors pickPort with port_busy == 0).
    std::array<int, kNumPorts> next{};
    for (int r = 0; r < kNumPorts; ++r) {
        int rr = r;
        for (const unsigned mask : replayMasks_) {
            const unsigned at_or_after = mask >> rr;
            const int port = at_or_after != 0
                                 ? rr + std::countr_zero(at_or_after)
                                 : std::countr_zero(mask);
            rr = port + 1 == kNumPorts ? 0 : port + 1;
        }
        next[r] = rr;
    }
    // Walk the orbit with cycle detection; it has at most kNumPorts
    // states, so arbitrarily long spans reduce to a short remainder.
    std::array<int, kNumPorts> seen_at;
    seen_at.fill(-1);
    int r = portRotor_;
    int step = 0;
    Cycle left = scans;
    while (left > 0) {
        if (seen_at[r] >= 0) {
            left %= static_cast<Cycle>(step - seen_at[r]);
            while (left > 0) {
                r = next[r];
                --left;
            }
            break;
        }
        seen_at[r] = step++;
        r = next[r];
        --left;
    }
    portRotor_ = r;
}

int
HardwareContext::issue(Cycle now, unsigned &port_busy, int &core_budget,
                       int core, MemorySystem &mem, bool solo_on_core)
{
    if (!active() || count_ == 0)
        return 0;
    if (now < noIssueBefore_)
        return 0;  // last scan proved nothing can issue yet

    // Catch the rotor up on the scans the exact MSHR bound skipped:
    // the reference would have re-run the recorded zero-issue scan on
    // every cycle since the last real one.
    if (replayValid_) {
        if (now > lastScanCycle_ + 1 && !replayMasks_.empty())
            replaySkippedScans(now - lastScanCycle_ - 1);
        replayValid_ = false;
    }
    if (solo_on_core)
        replayMasks_.clear();

    // Surface every slot whose exact ready cycle has arrived.
    if (now > lastDrain_)
        drainCalendar(now);

    const int cap = windowCap_;
    const int issue_limit = coreConfig_.issuePerContext;
    const int sched_depth = coreConfig_.schedDepth;
    const std::uint8_t *const types = slotType_.data();
    const std::uint8_t *const ports = slotPort_.data();
    const Cycle *const lats = slotLat_.data();
    std::uint64_t *const bits = unissuedBits_.data();
    std::uint64_t *const ready_bits = readyBits_.data();
    const int words = static_cast<int>(unissuedBits_.size());
    const std::uint64_t ones = ~std::uint64_t{0};

    // Scheduler-depth gate: with no more unissued uops than the
    // scheduler examines, every candidate is in depth and the
    // per-candidate rank checks can be skipped wholesale. Issues only
    // shrink the count, so the gate holds for the entire scan.
    const bool need_rank = unissued_ > sched_depth;

    const int head_word = head_ >> 6;
    const std::uint64_t head_mask = ones << (head_ & 63);

    // Scheduler-depth cutoff, resolved once per scan: the reference
    // walk stops at the first slot whose in-scan rank (unissued slots
    // examined before it, plus slots already issued this scan) reaches
    // sched_depth. Every slot issued during a scan lies before any
    // later candidate in ring order, so each issue lowers the live
    // rank by exactly what it adds back — the cutoff is the ring
    // position of the sched_depth-th unissued slot at scan START, a
    // constant. Candidates past it end the scan; everything at or
    // before it is in depth.
    int cutoff_dist = 0;
    if (need_rank) {
        int need = sched_depth;  // looking for the need-th set bit
        int ws = head_word;
        for (int v = 0; v <= words; ++v) {
            std::uint64_t m;
            if (v == 0) {
                m = bits[ws] & head_mask;
            } else {
                ws = ws + 1 == words ? 0 : ws + 1;
                m = bits[ws];
                if (v == words)
                    m &= ~head_mask;
            }
            const int pc = std::popcount(m);
            if (pc >= need) {
                const int idx = (ws << 6) + selectBit(m, need - 1);
                cutoff_dist = idx - head_;
                if (cutoff_dist < 0)
                    cutoff_dist += cap;
                break;
            }
            need -= pc;
        }
        // unissued_ > sched_depth guarantees the bit exists.
    }

    int issued = 0;
    // Earliest cycle any slot this scan rejected could issue instead.
    Cycle retry = kNeverCycle;
    bool stop = false;
    // Did a width limit (issue_limit / core budget) cut the walk off
    // with candidates still unexamined? The reference scan leaves
    // noIssueBefore_ alone in that case — the limits may relax next
    // cycle — so the calendar bound must not be applied either.
    bool cut_by_width = false;

    // Enumerate ready candidates in ring order from the head: the
    // head word masked at the head bit, the remaining words
    // cyclically, then the wrapped low bits of the head word. Every
    // set bit is unissued with operands ready (readyBits_ invariant),
    // so each candidate reaching the switch below is exactly one slot
    // the reference walk would have attempted, in the same order —
    // which keeps the pickPort rotor sequence byte-identical.
    std::uint64_t any_ready = 0;
    for (int v = 0; v < words; ++v)
        any_ready |= ready_bits[v];

    // Port-saturation filter. A pickPort rejection has no side effect
    // (the rotor moves only on success) beyond pinning retry to
    // now + 1, which the scan's first rejection already does; so at
    // a rejection every candidate whose whole port mask lies inside
    // port_busy (blocked[]) leaves the rest of the walk unvisited.
    // port_busy only grows within a scan, so those stay blocked, and
    // a later rejection means port_busy grew: it rebuilds blocked[].
    // Skipped candidates also never trip the width or depth stops,
    // which is exact too: the next visited candidate trips the same
    // stop, and a width cut only matters to a zero-issue scan, where
    // the first candidate decides it.
    std::array<std::uint64_t, kDepRing / 64> blocked{};

    int wi = head_word;
    for (int v = 0; any_ready != 0 && v <= words && !stop; ++v) {
        std::uint64_t word;
        if (v == 0) {
            word = ready_bits[wi] & head_mask;
        } else {
            wi = wi + 1 == words ? 0 : wi + 1;
            word = ready_bits[wi];
            if (v == words)
                word &= ~head_mask;  // wrapped tail of the head word
        }
        word &= ~blocked[wi];
        const int idx_base = wi << 6;
        const auto reject_port = [&] {
            retry = now + 1 < retry ? now + 1 : retry;
            portBlockedSlots(port_busy, blocked.data());
            word &= ~blocked[wi];
        };
        while (word != 0) {
            const int idx = idx_base + std::countr_zero(word);
            word &= word - 1;
            if (issued >= issue_limit || core_budget <= 0) {
                cut_by_width = true;
                stop = true;
                break;
            }
            if (need_rank) {
                int dist = idx - head_;
                if (dist < 0)
                    dist += cap;
                if (dist > cutoff_dist) {
                    // The reference walk hits the depth limit before
                    // this candidate. Ranks only grow along the ring,
                    // so no later candidate is in depth either.
                    stop = true;
                    break;
                }
            }

            const auto type = static_cast<UopType>(types[idx]);
            Cycle finish;
            int port = -1;

            switch (type) {
              case UopType::kLoad: {
                port = pickPort(ports[idx], port_busy);
                if (port < 0) {
                    reject_port();
                    continue;
                }
                const int mshr = freeMshr(now);
                if (mshr < 0) {
                    // No miss slot; try younger non-loads. Solo on the
                    // core, the slot provably cannot issue before the
                    // earliest MSHR deadline (freeMshr just memoized
                    // it), so the retry bound is exact and the skipped
                    // rescans' rotor effects are replayable; with a
                    // sibling the rescans observe its port traffic, so
                    // they must really run.
                    if (solo_on_core) {
                        const Cycle free_at = mshrAllBusyUntil_;
                        retry = free_at < retry ? free_at : retry;
                        replayMasks_.push_back(ports[idx]);
                    } else {
                        retry = now + 1 < retry ? now + 1 : retry;
                    }
                    continue;
                }
                const Cycle lat =
                    mem.dataAccess(core, false, slotAddr_[idx], now,
                                   counters_, dtlb_);
                ++counters_.loads;
                finish = now + lat;
                if (lat > mem.l1dHitLatency())
                    mshrBusyUntil_[mshr] = finish;
                break;
              }
              case UopType::kStore: {
                port = pickPort(ports[idx], port_busy);
                if (port < 0) {
                    reject_port();
                    continue;
                }
                const int mshr = freeMshr(now);
                if (mshr < 0) {
                    // Store buffer full of outstanding misses; same
                    // solo-exact / sibling-conservative split as loads.
                    if (solo_on_core) {
                        const Cycle free_at = mshrAllBusyUntil_;
                        retry = free_at < retry ? free_at : retry;
                        replayMasks_.push_back(ports[idx]);
                    } else {
                        retry = now + 1 < retry ? now + 1 : retry;
                    }
                    continue;
                }
                // Stores drain through a store buffer: program
                // progress does not wait for the cache update, but a
                // missing store holds a miss slot until its line
                // arrives, which flow-controls the DRAM traffic
                // stores can generate.
                const Cycle lat =
                    mem.dataAccess(core, true, slotAddr_[idx], now,
                                   counters_, dtlb_);
                ++counters_.stores;
                finish = now + lats[idx];
                if (lat > mem.l1dHitLatency())
                    mshrBusyUntil_[mshr] = now + lat;
                break;
              }
              case UopType::kNop:
                finish = now + 1;
                break;
              default: {
                port = pickPort(ports[idx], port_busy);
                if (port < 0) {
                    reject_port();
                    continue;
                }
                finish = now + lats[idx];
                break;
              }
            }

            if (port >= 0) {
                port_busy |= 1u << port;
                ++counters_.portIssued[port];
            }
            completion_[slotSeq_[idx] % kDepRing] = finish;
            bits[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
            ready_bits[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
            if (slotWaiters_[idx] >= 0)
                resolveWaiters(idx, finish);
            ++counters_.uops;
            ++issued;
            --unissued_;
            --core_budget;

            if (waitingBranch_ && slotSeq_[idx] == waitingBranchSeq_) {
                waitingBranch_ = false;
                fetchStallUntil_ = finish + coreConfig_.redirectPenalty;
            }
        }
    }

    // With nothing issued and the window unchanged, the same scan
    // would reject the same slots every cycle until the earliest
    // retry bound; remember it so those scans are skipped outright.
    // The rejection bounds alone are not enough: a slot whose exact
    // ready cycle is still in the future was never enumerated at all,
    // so the next calendar event joins the bound. (A pending slot
    // contributes nothing: its producer is an older in-window slot
    // whose own bound is already covered.)
    if (issued == 0 && !cut_by_width) {
        const Cycle cal = calendarNextEvent(now);
        retry = cal < retry ? cal : retry;
    }
    if (issued == 0 && retry != kNeverCycle)
        noIssueBefore_ = retry;
    lastScanCycle_ = now;
    // A solo zero-issue scan is replayable: with no sibling, its only
    // pickPort calls were the MSHR-full rejections recorded above
    // (port_busy stayed empty, so pickPort never failed outright).
    replayValid_ = solo_on_core && issued == 0;

    // In-order retirement of issued slots frees window capacity (a
    // clear bit on an in-window slot means it issued). Whole runs of
    // cleared bits retire per word instead of slot by slot; bits past
    // the in-window tail are clear too, so the run is capped by
    // count_ (and by the ring end, where head_ wraps).
    while (count_ > 0) {
        const std::uint64_t above = bits[head_ >> 6] >> (head_ & 63);
        int run = above != 0 ? std::countr_zero(above)
                             : 64 - (head_ & 63);
        if (run > count_)
            run = count_;
        if (run > cap - head_)
            run = cap - head_;
        if (run == 0)
            break;
        head_ += run;
        if (head_ == cap)
            head_ = 0;
        count_ -= run;
        if (above != 0 && run == std::countr_zero(above))
            break;  // stopped at a still-unissued slot
    }
    return issued;
}

} // namespace smite::sim
