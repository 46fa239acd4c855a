#ifndef TOPKPKG_STORAGE_RECORD_LOG_H_
#define TOPKPKG_STORAGE_RECORD_LOG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "topkpkg/common/status.h"
#include "topkpkg/storage/env.h"

namespace topkpkg::storage {

// The storage engine's on-disk unit: an append-only sequence of
// length-prefixed, CRC32-checksummed records (the LogBase / Bitcask shape —
// the log *is* the database; everything else is an in-memory index rebuilt
// by replay). One such file is one *segment* of a SessionStore. Layout, all
// integers little-endian:
//
//   file   := header record*
//   header := magic "TKPS" (4) | format_version u32
//   record := payload_len u32 | crc u32 | session_id u64 | payload
//
// `crc` is CRC-32 (IEEE) over session_id ‖ payload, so a flipped bit
// anywhere in a record's key or body is rejected at read time, while a
// record cut short by a crash ("torn tail") is recognized by running out of
// bytes and treated as never-written. Version 1 carried a u32 record kind
// after session_id; this version refuses such files (Unimplemented).

inline constexpr char kLogMagic[4] = {'T', 'K', 'P', 'S'};
inline constexpr std::uint32_t kLogFormatVersion = 2;
inline constexpr std::size_t kFileHeaderSize = 8;
// payload_len + crc + session_id.
inline constexpr std::size_t kRecordHeaderSize = 4 + 4 + 8;

struct Record {
  std::uint64_t session_id = 0;
  std::string payload;
  std::uint64_t offset = 0;  // File offset of the record's header.

  // header + payload footprint in the file.
  std::uint64_t StoredSize() const {
    return kRecordHeaderSize + payload.size();
  }
};

// Sequential appender over an Env file. One record is one Append, so a
// crash leaves at most one torn record — always at the tail, where replay
// stops cleanly.
//
// Durability is the *caller's* policy, expressed through two levels:
// Append() pushes bytes to the OS (write(2)) — they survive a process
// crash but sit in the page cache until the kernel flushes them, so power
// loss can take them; Sync() fsyncs — bytes acknowledged by a successful
// Sync survive power loss. SessionStore maps its FsyncPolicy onto this:
// kEveryPut syncs inside every Put, kInterval group-commits one Sync per N
// puts (bounded loss window, and note the page cache may persist unsynced
// records out of order — a mid-log corruption replay treats as a hard
// error), kNone never syncs (process-crash durability only). See
// session_store.h for the policy-by-policy contract.
class RecordLogWriter {
 public:
  // Opens `path` for appending, creating it (with the file header) when
  // missing or empty. `truncate` starts a fresh empty log regardless of any
  // existing content (the compaction / segment-creation path). `env` null
  // means Env::Default().
  static Result<RecordLogWriter> Open(const std::string& path,
                                      bool truncate = false,
                                      Env* env = nullptr);

  RecordLogWriter(RecordLogWriter&&) = default;
  RecordLogWriter& operator=(RecordLogWriter&&) = default;

  // Appends one record and returns the file offset its header landed at.
  // On a failed append the writer restores the record boundary (truncating
  // any partial bytes); if even that fails it poisons itself and every
  // later call fails — the file may hold a torn record mid-log otherwise.
  Result<std::uint64_t> Append(std::uint64_t session_id,
                               const std::string& payload);

  // Bytes already reach the OS per Append; kept as a cheap no-op seam so
  // call sites read naturally. Fails only on a poisoned writer.
  Status Flush();

  // fsync: everything appended so far survives power loss once this
  // returns OK.
  Status Sync();

  Status Close();

  // Offset one past the last appended byte (== current file size).
  std::uint64_t end_offset() const { return end_offset_; }
  const std::string& path() const { return path_; }

 private:
  RecordLogWriter(std::string path, Env* env,
                  std::unique_ptr<WritableFile> file, std::uint64_t end_offset)
      : path_(std::move(path)),
        env_(env),
        file_(std::move(file)),
        end_offset_(end_offset) {}

  Status RequireUsable() const;

  std::string path_;
  Env* env_;
  std::unique_ptr<WritableFile> file_;
  std::uint64_t end_offset_ = 0;
  bool poisoned_ = false;
};

// What a replay pass observed. `torn_tail` flags an incomplete record at the
// end of the file; `tail_offset` is where the intact prefix ends (== file
// size on a clean log) — the offset an opener should truncate to before
// appending again. `crc_failures` counts complete-but-corrupt records, which
// only a scan-mode replay (store_fsck) tolerates.
struct ReplayStats {
  std::size_t records = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t crc_failures = 0;
  bool torn_tail = false;
  std::uint64_t tail_offset = 0;
};

// Replay / point-read access to a record log. Stateless: every call opens
// its own read handle, so a reader never observes a stale length for a file
// some writer is appending to. Reads go straight to the filesystem (not
// through an Env): crash injection only needs to control what reaches the
// disk, and recovery always reads real state.
class RecordLogReader {
 public:
  explicit RecordLogReader(std::string path) : path_(std::move(path)) {}

  // Replays records in append order, invoking `visit` for each intact one.
  // A torn tail stops the replay cleanly (OK status, stats->torn_tail set).
  // A complete record failing its CRC is Internal ("corruption") in strict
  // mode; with `strict` false it is counted, skipped by its declared length,
  // and the replay continues — the fsck behaviour.
  Status Replay(const std::function<Status(const Record&)>& visit,
                ReplayStats* stats = nullptr, bool strict = true) const;

  // Reads and CRC-verifies the single record whose header starts at
  // `offset` (a keydir entry). A header or declared payload running past
  // the end of the file is OutOfRange, checked before any allocation.
  Result<Record> ReadAt(std::uint64_t offset) const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace topkpkg::storage

#endif  // TOPKPKG_STORAGE_RECORD_LOG_H_
