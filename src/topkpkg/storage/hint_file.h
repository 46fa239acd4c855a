#ifndef TOPKPKG_STORAGE_HINT_FILE_H_
#define TOPKPKG_STORAGE_HINT_FILE_H_

// Per-segment hint files (the Bitcask idea): when a segment is sealed, the
// store writes `segment-N.hint` next to it — a compressed replay of the
// segment holding, in offset order, the *latest* record per session. The
// store never deletes, so replaying the hint produces the exact keydir
// contribution a full scan of the segment would, and startup is
// O(keydir), not O(log). Hints are pure cache: a missing, torn, stale, or
// corrupt hint file makes the opener fall back to scanning the segment
// (and rewrite the hint), never fail.
//
// Layout, little-endian:
//
//   hint    := magic "TKPH" (4) | version u32 | segment_file_size u64
//              | count u64 | entry{count} | crc u32
//   entry   := session_id u64 | offset u64 | stored_size u64
//
// `segment_file_size` is the staleness check: a roll can write the hint and
// then fail, after which the store keeps appending to the segment — the
// hint then disagrees with the file size and is ignored. `crc` is CRC-32
// (IEEE) over every preceding byte, magic included. A hint of another
// version is rejected like any other bad hint.

#include <cstdint>
#include <string>
#include <vector>

#include "topkpkg/common/status.h"
#include "topkpkg/storage/env.h"

namespace topkpkg::storage {

inline constexpr char kHintMagic[4] = {'T', 'K', 'P', 'H'};
inline constexpr std::uint32_t kHintFormatVersion = 2;

// One session's latest record in a sealed segment: at `offset`, occupying
// `stored_size` bytes.
struct HintEntry {
  std::uint64_t session_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t stored_size = 0;

  bool operator==(const HintEntry& o) const {
    return session_id == o.session_id && offset == o.offset &&
           stored_size == o.stored_size;
  }
};

struct HintFileContents {
  std::uint64_t segment_file_size = 0;
  std::vector<HintEntry> entries;  // Ascending offset.
};

// Serializes a hint for a segment whose file is `segment_file_size` bytes.
// `entries` must already be in ascending offset order.
std::string EncodeHintFile(std::uint64_t segment_file_size,
                           const std::vector<HintEntry>& entries);

// Reads and fully validates a hint file (magic, version, CRC, exact size).
// Any defect is an error — callers treat every error the same way: scan the
// segment instead.
Result<HintFileContents> LoadHintFile(const std::string& path);

// Writes (truncating) and fsyncs the hint file through `env`.
Status WriteHintFile(Env* env, const std::string& path,
                     std::uint64_t segment_file_size,
                     const std::vector<HintEntry>& entries);

}  // namespace topkpkg::storage

#endif  // TOPKPKG_STORAGE_HINT_FILE_H_
