#include "sim/replay.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "fault/fault.h"
#include "fault/keyed.h"
#include "obs/env.h"
#include "obs/metrics.h"

namespace smite::sim {

namespace {

std::atomic<bool> &
enabledFlag()
{
    // Kill-switch contract (docs/ROBUSTNESS.md): exactly "0" disables
    // replay; anything else (including unset) leaves it on.
    static std::atomic<bool> flag{obs::envFlag("SMITE_SIM_MEMO", true)};
    return flag;
}

/** Words one counter block occupies in a run-log line. */
constexpr std::size_t kBlockWords = std::tuple_size_v<CounterWords>;

/**
 * One run-log line: the key, every counter block and the two tallies
 * as decimal words, then a digest of all of them.
 */
std::string
formatRecord(const ReplayKey &key, const ReplayEntry &entry)
{
    std::string line;
    fault::Digest digest;
    const auto put = [&](std::uint64_t word) {
        line += std::to_string(word) + ' ';
        digest.u64(word);
    };
    for (const std::uint64_t word : key)
        put(word);
    for (const CounterBlock &block : entry.results) {
        for (const std::uint64_t word : std::bit_cast<CounterWords>(block))
            put(word);
    }
    put(entry.idleSkipped);
    put(entry.wakeEvents);
    return line + std::to_string(digest.value());
}

/**
 * Parse one run-log line. Fails on a non-numeric word, a field count
 * that does not match the placement count, or a digest mismatch.
 */
bool
parseRecord(const std::string &line, ReplayKey &key, ReplayEntry &entry)
{
    std::istringstream in(line);
    std::vector<std::uint64_t> words;
    for (std::uint64_t word; in >> word;)
        words.push_back(word);
    // 4 + 3n key words, n counter blocks, two tallies, the digest;
    // the untrusted n is bounded by the line's length before the
    // multiply, which could otherwise wrap.
    if (!in.eof() || words.size() < 7 ||
        words[3] > (words.size() - 7) / (3 + kBlockWords) ||
        words.size() != 7 + (3 + kBlockWords) * words[3])
        return false;
    fault::Digest digest;
    for (std::size_t i = 0; i + 1 < words.size(); ++i)
        digest.u64(words[i]);
    if (digest.value() != words.back())
        return false;

    auto next = words.begin() + 4 + 3 * words[3];
    key.assign(words.begin(), next);
    entry.results.assign(words[3], CounterBlock{});
    for (CounterBlock &block : entry.results) {
        CounterWords fields{};
        std::copy_n(next, kBlockWords, fields.begin());
        block = std::bit_cast<CounterBlock>(fields);
        next += kBlockWords;
    }
    entry.idleSkipped = *next++;
    entry.wakeEvents = *next;
    return true;
}

/**
 * Damage @p line (newline included) for the `disk.corrupt` fault site:
 * a bit flip, a truncation, or a torn append that loses the newline,
 * chosen from the line's hash so a record is always damaged alike.
 */
void
corruptLine(std::string &line)
{
    switch (fault::Digest().str(line).value() % 3) {
    case 0:
        line[line.size() / 2] ^= 0x10;
        break;
    case 1:
        line = line.substr(0, line.size() / 2) + '\n';
        break;
    default:
        line.pop_back();
        break;
    }
}

std::mutex logMutex;  ///< serializes every run-log write in the process

/**
 * Make @p path start with the version line. A file that already does
 * is kept; anything else is replaced by a fresh file, written to a
 * temp file and renamed into place so a crash never leaves a partial
 * version line.
 */
void
startFile(const std::string &path)
{
    {
        std::ifstream in(path);
        std::string first;
        if (std::getline(in, first) && first == kRunLogVersion)
            return;
    }
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << kRunLogVersion << '\n';
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::fprintf(stderr, "smite: replay log: cannot create %s: %s\n",
                     path.c_str(), ec.message().c_str());
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace

bool
replayEnabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

bool
setReplayEnabled(bool on)
{
    return enabledFlag().exchange(on, std::memory_order_relaxed);
}

std::uint64_t
configDigest(const MachineConfig &config)
{
    fault::Digest d;
    d.str("machine.config");
    d.str(config.name);
    d.str(config.microarchitecture);
    d.f64(config.ghz);
    d.str(config.kernel);
    d.u64(static_cast<std::uint64_t>(config.numCores));
    d.u64(static_cast<std::uint64_t>(config.contextsPerCore));
    const CoreConfig &core = config.core;
    d.u64(static_cast<std::uint64_t>(core.fetchWidth));
    d.u64(static_cast<std::uint64_t>(core.issuePerContext));
    d.u64(static_cast<std::uint64_t>(core.issuePerCore));
    d.u64(static_cast<std::uint64_t>(core.windowSize));
    d.u64(static_cast<std::uint64_t>(core.schedDepth));
    d.u64(static_cast<std::uint64_t>(core.mshrs));
    d.u64(core.redirectPenalty);
    // The fetch-policy slot: round-robin, the only policy, was enum
    // value 0, so folding 0 keeps every existing run-log key valid.
    d.u64(0);
    d.u64(config.l2NextLinePrefetch ? 1 : 0);
    d.u64(config.inclusiveL3 ? 1 : 0);
    for (const CacheConfig *c :
         {&config.l1i, &config.l1d, &config.l2, &config.l3}) {
        d.str(c->name);
        d.u64(c->sizeBytes);
        d.u64(static_cast<std::uint64_t>(c->assoc));
        d.u64(c->hitLatency);
    }
    for (const TlbConfig *t : {&config.itlb, &config.dtlb}) {
        d.u64(static_cast<std::uint64_t>(t->entries));
        d.u64(t->walkLatency);
    }
    d.u64(config.dram.accessLatency);
    d.u64(config.dram.occupancyPerLine);
    return d.value();
}

MemoCache<ReplayKey, ReplayEntry> &
replayStore()
{
    static MemoCache<ReplayKey, ReplayEntry> store;
    static const bool instrumented =
        (store.instrument("machine.replay"), true);
    (void)instrumented;
    return store;
}

RunLog::RunLog(std::string path) : path_(std::move(path))
{
    if (!replayEnabled())
        return;
    std::ifstream in(path_);
    std::string line;
    if (!std::getline(in, line))
        return;  // absent or empty: nothing to preload
    if (line != kRunLogVersion) {
        std::fprintf(stderr,
                     "smite: replay log %s: unknown version '%s', "
                     "ignoring its contents\n",
                     path_.c_str(), line.c_str());
        return;
    }
    static obs::Counter &preloaded =
        obs::Registry::global().counter("machine.replay.preloaded");
    for (std::size_t lineno = 2; std::getline(in, line); ++lineno) {
        ReplayKey key;
        ReplayEntry entry;
        if (!parseRecord(line, key, entry)) {
            std::fprintf(stderr,
                         "smite: replay log %s:%zu: skipping malformed "
                         "line\n",
                         path_.c_str(), lineno);
            continue;
        }
        replayStore().put(key, std::move(entry));
        preloaded.add();
    }
}

void
RunLog::append(const ReplayKey &key, const ReplayEntry &entry)
{
    static obs::Counter &appends =
        obs::Registry::global().counter("machine.replay.appends");
    appends.add();
    std::string line = formatRecord(key, entry) + '\n';
    fault::FaultPlan &plan = fault::FaultPlan::global();
    if (plan.enabled() && plan.shouldInject("disk.corrupt", line))
        corruptLine(line);

    std::lock_guard<std::mutex> lock(logMutex);
    if (!started_) {
        startFile(path_);
        started_ = true;
    }
    // One write of the whole line through an O_APPEND descriptor is
    // line-atomic: concurrent processes can't interleave bytes, and a
    // crash tears at most this one line.
    const int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0 || ::write(fd, line.data(), line.size()) !=
                      static_cast<ssize_t>(line.size()))
        std::fprintf(stderr, "smite: replay log: cannot append to %s\n",
                     path_.c_str());
    if (fd >= 0)
        ::close(fd);
}

} // namespace smite::sim
