#include "core/disk_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace smite::core {

namespace {

/** FNV-1a, for stable key -> shard assignment across runs. */
std::uint64_t
hashKey(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** Shard files per cache: `<base>.shard0` .. `<base>.shard3`. */
constexpr int kShardCount = 4;

/**
 * Create @p path containing only the version header, via a temp file
 * renamed into place so a crash cannot leave a partial header. Keeps
 * any file that already has content (e.g. from a previous run).
 */
void
ensureHeader(const std::string &path)
{
    std::error_code ec;
    if (std::filesystem::exists(path, ec) &&
        std::filesystem::file_size(path, ec) > 0) {
        return;
    }
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << kLabCacheHeader << "\n";
        out.flush();
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::fprintf(stderr,
                     "smite: disk cache: cannot create %s: %s\n",
                     path.c_str(), ec.message().c_str());
        std::filesystem::remove(tmp, ec);
    }
}

/**
 * Damage @p line for the `disk.corrupt` fault site. The variant is
 * chosen from the line's own hash so a given record is always
 * corrupted the same way.
 */
std::string
corruptLine(const std::string &line, bool *keep_newline)
{
    const std::uint64_t h = hashKey(line);
    std::string damaged = line;
    switch (h % 3) {
    case 0:
        // Bit-flip a character in the middle of the record.
        if (!damaged.empty())
            damaged[damaged.size() / 2] ^= 0x10;
        break;
    case 1:
        // Truncate the record at half length.
        damaged.resize(damaged.size() / 2);
        break;
    default:
        // Torn append: the process "crashed" before the newline.
        *keep_newline = false;
        break;
    }
    return damaged;
}

} // namespace

std::string
ShardedDiskCache::shardPath(const std::string &base, int index)
{
    return base + ".shard" + std::to_string(index);
}

void
ShardedDiskCache::open(const std::string &base)
{
    base_ = base;
    shards_.clear();
    shards_.reserve(kShardCount);
    for (int k = 0; k < kShardCount; ++k) {
        auto shard = std::make_unique<Shard>();
        shard->path = shardPath(base, k);
        shards_.push_back(std::move(shard));
    }
}

ShardedDiskCache::Shard &
ShardedDiskCache::shardFor(const std::string &key)
{
    return *shards_[hashKey(key) % shards_.size()];
}

void
ShardedDiskCache::append(const std::string &key, const std::string &line)
{
    if (!enabled())
        return;
    static obs::Counter &appends =
        obs::Registry::global().counter("lab.disk.appends");
    appends.add();

    std::string payload = line;
    bool newline = true;
    fault::FaultPlan &plan = fault::FaultPlan::global();
    if (plan.enabled() && plan.shouldInject("disk.corrupt", line))
        payload = corruptLine(line, &newline);

    Shard &shard = shardFor(key);
    // One writer per shard keeps header creation race-free; appends
    // to *different* shards proceed concurrently.
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.headered) {
        ensureHeader(shard.path);
        shard.headered = true;
    }
    // A single fwrite of the whole record (newline included) through
    // an O_APPEND stream is line-atomic: concurrent processes can't
    // interleave bytes, and a crash tears at most this one line.
    std::FILE *out = std::fopen(shard.path.c_str(), "ab");
    if (out == nullptr) {
        std::fprintf(stderr, "smite: disk cache: cannot append to %s\n",
                     shard.path.c_str());
        return;
    }
    if (newline)
        payload += '\n';
    std::fwrite(payload.data(), 1, payload.size(), out);
    std::fclose(out);
}

std::vector<std::string>
ShardedDiskCache::readPaths() const
{
    std::vector<std::string> paths;
    if (!enabled())
        return paths;
    std::error_code ec;
    // Legacy single-file layout first: older builds wrote every record
    // to basePath() itself.
    if (std::filesystem::exists(base_, ec))
        paths.push_back(base_);
    for (const auto &shard : shards_) {
        if (std::filesystem::exists(shard->path, ec))
            paths.push_back(shard->path);
    }
    return paths;
}

} // namespace smite::core
