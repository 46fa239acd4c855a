#ifndef TOPKPKG_STORAGE_SESSION_STORE_H_
#define TOPKPKG_STORAGE_SESSION_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "topkpkg/common/status.h"
#include "topkpkg/storage/env.h"
#include "topkpkg/storage/hint_file.h"
#include "topkpkg/storage/record_log.h"

namespace topkpkg::storage {

// When a Put is allowed to return OK relative to the disk. The store always
// write(2)s every record before acknowledging it (process-crash durability
// at every level); the policies differ in when fsync pins the bytes against
// *power loss*:
//
//   kEveryPut — fsync inside every mutation. An OK Put survives power loss.
//   kInterval — group commit: one fsync per `group_commit_puts` mutations
//     (and on Flush/Sync/segment-seal/compaction). Bounded loss window — at
//     most `group_commit_puts - 1` acknowledged mutations can vanish. Assumes the page cache
//     persists in write order; real disks may persist out of order, in
//     which case a lost *middle* record surfaces as a CRC error on replay
//     rather than silently wrong data.
//   kNone — never fsync on the put path (seals, compactions, and explicit
//     Sync still do). Process-crash durability only.
enum class FsyncPolicy { kNone, kInterval, kEveryPut };

struct SessionStoreOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  // kInterval: mutations acknowledged between fsyncs (the group-commit
  // window). It groups only puts made without a Flush in between; on the
  // serving path every storage::PutCheckpoint flushes, so each checkpoint
  // pays its own fsync.
  std::size_t group_commit_puts = 32;
  // kInterval: an open group-commit window is also flushed once it has been
  // open this long, so a trickle of puts that never reaches
  // group_commit_puts still hits disk within a bounded time. 0 disables the
  // timer (count-only group commit). The store spawns no thread: the
  // deadline is checked on the mutation path and by MaybeFlush(), which a
  // caller's writeback loop polls (SessionManager's does).
  std::uint64_t flush_interval_ms = 0;
  // Monotonic milliseconds for the flush timer; null means steady_clock.
  // Tests inject a fake clock to step time deterministically.
  std::function<std::uint64_t()> clock_ms;
  // Roll to a fresh segment once the active one reaches this size.
  std::uint64_t segment_max_bytes = 8ull << 20;
  // Auto-compact when any sealed segment's dead/(dead+live) payload ratio
  // reaches this.
  double compact_dead_ratio = 0.6;
  bool auto_compact = true;
  // Filesystem seam; null means Env::Default(). Tests inject
  // FaultInjectingEnv here.
  Env* env = nullptr;
};

// Bitcask-style durable key-value store over a *directory of segments*: the
// logs are the database, and an in-memory *keydir* maps each session id to
// the segment + offset of its latest record. Nothing is ever deleted, so
// the store is exactly that map.
//
//   dir/
//     LOCK                  flock'd for the store's lifetime (single writer)
//     segment-000001.tkps   sealed segment (record log)
//     segment-000001.hint   its hint file — O(keydir) startup replay
//     segment-000002.tkps   active segment (highest id without a valid hint)
//
// Put appends to the active segment (the superseded record becomes dead
// bytes), rolling to a new segment at `segment_max_bytes`; sealing writes a
// hint file so Open replays hints instead of scanning logs (any bad hint
// falls back to a scan and is rewritten). Compaction merges the live
// records of *cold* (sealed) segments into one and deletes the rest — the
// active segment is never touched, and every step is ordered (fsync,
// directory sync, rename) so a crash anywhere leaves a recoverable store.
//
// Concurrency: one SessionStore owns its directory (enforced by the LOCK
// file — a second Open fails FailedPrecondition); calls are not
// thread-safe.
class SessionStore {
 public:
  // Per-key index entry: which segment the latest record lives in, where,
  // and how big it is.
  struct KeydirEntry {
    std::uint64_t segment_id = 0;
    std::uint64_t offset = 0;
    std::uint64_t stored_size = 0;  // header + payload bytes.
  };

  struct Stats {
    std::size_t live_records = 0;
    std::uint64_t live_bytes = 0;  // Stored size of the live records.
    std::uint64_t dead_bytes = 0;  // Superseded records.
    std::uint64_t file_bytes = 0;  // Total across segments incl. headers.
    bool recovered_torn_tail = false;  // Open() truncated a torn record.
    std::size_t segments = 0;
    // Record-log fsyncs issued (put path, Flush/Sync, seals, compaction
    // rewrites) — the number the FsyncPolicy sweep in the bench compares.
    std::uint64_t fsyncs = 0;
    std::uint64_t segment_rolls = 0;
    std::uint64_t compactions = 0;       // Includes auto_compactions.
    std::uint64_t auto_compactions = 0;
    std::uint64_t failed_auto_compactions = 0;
    // How Open rebuilt the keydir, per sealed segment.
    std::size_t hint_startup_segments = 0;
    std::size_t scanned_startup_segments = 0;
  };

  // Opens (or creates) the store directory at `path`, acquires its writer
  // lock, and rebuilds the keydir — from hint files where valid, by
  // scanning otherwise. A torn tail on a scanned segment is truncated away
  // and flagged in stats(); a CRC-corrupt record anywhere else fails the
  // open (Internal). A second writer on a live store fails
  // FailedPrecondition, as does pointing Open at a regular file (the
  // pre-segmented single-file format, which this version does not read).
  static Result<SessionStore> Open(const std::string& path,
                                   SessionStoreOptions options = {});

  SessionStore(SessionStore&&) = default;
  SessionStore& operator=(SessionStore&&) = default;

  // Upserts the value for `session_id`, durable per the store's
  // FsyncPolicy.
  Status Put(std::uint64_t session_id, const std::string& payload);

  // Latest value for `session_id`; NotFound when it has none. A listed
  // record whose segment cannot be opened also reads NotFound (the reader's
  // status), so callers that must tell the two apart ask Contains first.
  Result<std::string> Get(std::uint64_t session_id) const;

  bool Contains(std::uint64_t session_id) const;

  // Seals the active segment (when it has records) and merges every cold
  // segment's live records into one, dropping superseded records.
  // Crash-safe: the merge builds a `.compact` file, fsyncs it,
  // and renames it into place with directory syncs ordering each step.
  Status Compact();

  // Makes every acknowledged mutation durable per the policy: under
  // kInterval this drains the group-commit window (one fsync); under
  // kEveryPut it is a no-op (already durable); under kNone it stays a
  // no-op by contract.
  Status Flush();

  // Flushes the open group-commit window iff its flush_interval_ms deadline
  // has passed: a cheap poll for writeback loops. No-op (OK) under other
  // policies, with the timer disabled, with no acknowledged mutations
  // pending, or before the deadline.
  Status MaybeFlush();

  // Unconditional fsync of the active segment, regardless of policy.
  Status Sync();

  const Stats& stats() const { return stats_; }
  const std::string& path() const { return path_; }
  std::size_t keydir_size() const { return keydir_.size(); }
  std::uint64_t active_segment_id() const { return active_id_; }

 private:
  struct SegmentInfo {
    std::uint64_t data_bytes = 0;  // File size incl. its header.
    std::uint64_t live_bytes = 0;  // Stored size of its live records.
  };

  SessionStore(std::string path, SessionStoreOptions options,
               std::unique_ptr<FileLock> lock)
      : path_(std::move(path)), opts_(options), lock_(std::move(lock)) {}

  std::string SegmentPath(std::uint64_t id) const;
  std::string HintPath(std::uint64_t id) const;
  Env* env() const { return opts_.env; }

  // Startup replay of one sealed segment: its hint when valid, a scan
  // (rewriting the hint) otherwise. Segments are recovered in ascending id
  // order, which HintFor relies on.
  Status RecoverSealedSegment(std::uint64_t id);
  // Full scan of segment `id`, truncating a torn tail. A sealed scan
  // rewrites the segment's hint.
  Status ScanSegment(std::uint64_t id, bool sealed);

  // The hint of segment `id`: the keydir entries pointing into it, by
  // offset. With no deletes, that is each session's latest record in the
  // segment whenever no newer segment has been applied yet — at seal time,
  // and while Open replays segments in ascending id order.
  std::vector<HintEntry> HintFor(std::uint64_t id) const;

  // Upserts one replayed/appended record into the keydir and the
  // per-segment live-byte accounting.
  void Apply(std::uint64_t session_id, std::uint64_t segment_id,
             std::uint64_t offset, std::uint64_t stored_size);
  void RefreshDerivedStats();

  // Rolls when the active segment has outgrown segment_max_bytes.
  Status MaybeRoll();
  // Seals the active segment (sync + hint) and starts the next one.
  Status Roll();
  // Merges all cold segments into the lowest cold id. `automatic` only
  // tags the stats.
  Status CompactCold(bool automatic);
  bool ColdSegmentWantsCompaction() const;

  // OK while the log writer is open; Internal after a failed roll left the
  // store writer-less (reads still work, mutations must not dereference
  // null).
  Status RequireWriter() const;

  std::string path_;
  SessionStoreOptions opts_;
  std::unique_ptr<FileLock> lock_;
  // unique_ptr keeps the store movable while RecordLogWriter holds a file.
  std::unique_ptr<RecordLogWriter> writer_;
  std::uint64_t active_id_ = 0;
  // Ordered, so compaction writes sessions in id order and equal stores
  // compact to byte-identical segments.
  std::map<std::uint64_t, KeydirEntry> keydir_;
  std::map<std::uint64_t, SegmentInfo> segments_;
  std::size_t puts_since_sync_ = 0;
  // When the open group-commit window's first put landed (flush-timer
  // clock); meaningful only while puts_since_sync_ > 0 and the timer is on.
  std::uint64_t window_opened_ms_ = 0;
  Stats stats_;
};

// Segment file naming, shared with store_fsck and the tests.
std::string SegmentFileName(std::uint64_t id);
std::string SegmentHintName(std::uint64_t id);
// Parses "segment-NNNNNN.tkps" → id; 0 when `name` is not a segment file.
std::uint64_t ParseSegmentFileName(const std::string& name);

}  // namespace topkpkg::storage

#endif  // TOPKPKG_STORAGE_SESSION_STORE_H_
