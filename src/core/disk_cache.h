/**
 * @file
 * Sharded, crash-safe disk persistence for the Lab's measurement
 * log.
 *
 * The Lab's write-through disk cache used to be a single append-only
 * text file guarded by one mutex — fine for a serial harness, a
 * bottleneck once the batch APIs land measurements from a thread
 * pool. ShardedDiskCache hashes each record's key to one of N shard
 * files (`<base>.shard0` .. `<base>.shardN-1`), each with its own
 * writer mutex, so concurrent appends to different shards never
 * contend.
 *
 * Crash safety:
 *  - a shard's version header is created by writing a temp file and
 *    atomically renaming it into place, so a crash never leaves a
 *    half-written header;
 *  - each record is appended with a single O_APPEND write of the
 *    whole line (including the newline), so records from concurrent
 *    writers never interleave and a crash mid-append leaves at most
 *    one torn final line, which the reader skips with a warning.
 *
 * Readers get the shard paths *plus* the legacy single-file path
 * (`<base>` itself) from readPaths(), so caches written by older
 * builds keep working: their records are preloaded and new records
 * land in the shards.
 *
 * The `disk.corrupt` fault site (see src/fault) deliberately damages
 * appended records — bit flips, truncation, torn trailing newline —
 * to exercise the reader's skip-and-warn recovery path.
 */

#ifndef SMITE_CORE_DISK_CACHE_H
#define SMITE_CORE_DISK_CACHE_H

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace smite::core {

/**
 * Version header of the disk-cache format. Files without it are read
 * as the legacy (v1, headerless) format; bump the version when a
 * record's shape changes so stale files are not silently misparsed.
 */
inline constexpr const char *kLabCacheHeader = "smite-lab-cache v2";

/**
 * A set of append-only record files sharded by key hash, one writer
 * mutex per shard. Not copyable or movable once open; the Lab owns
 * exactly one.
 */
class ShardedDiskCache
{
  public:
    ShardedDiskCache() = default;
    ShardedDiskCache(const ShardedDiskCache &) = delete;
    ShardedDiskCache &operator=(const ShardedDiskCache &) = delete;

    /**
     * Configure the cache rooted at @p base, sharded over four files.
     * Opening performs no writes: shard files are created lazily,
     * header first, on the first append that hashes to them.
     */
    void open(const std::string &base);

    /** True once open() has been called with a non-empty base. */
    bool enabled() const { return !base_.empty(); }

    /** The base path passed to open(), or empty. */
    const std::string &basePath() const { return base_; }

    /** Number of shard files. 0 before open(). */
    int shardCount() const { return static_cast<int>(shards_.size()); }

    /** Path of shard @p index under @p base. */
    static std::string shardPath(const std::string &base, int index);

    /**
     * Append one record line (newline added here) to the shard that
     * @p key hashes to. Creates the shard file with its version
     * header (temp file + rename) on first use. No-op when disabled.
     */
    void append(const std::string &key, const std::string &line);

    /**
     * Every file a reader should preload, oldest format first: the
     * legacy single file at basePath() if it exists, then each shard
     * file that exists. Empty when disabled.
     */
    std::vector<std::string> readPaths() const;

  private:
    struct Shard {
        std::string path;
        std::mutex mu;
        bool headered = false;  ///< header known present (this run)
    };

    Shard &shardFor(const std::string &key);

    std::string base_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace smite::core

#endif // SMITE_CORE_DISK_CACHE_H
