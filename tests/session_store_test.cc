// Crash-recovery property tests for the durable-session storage layer:
// record-log round trips, torn tails at every byte boundary of the final
// record, CRC rejection of flipped payload bits, bounded point reads,
// keydir latest-wins semantics, segment rolls + hint-file startup, refusal
// of old format versions, cold-segment compaction, fsync-policy accounting,
// and the single-writer lock.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/common/crc32.h"
#include "topkpkg/common/serde.h"
#include "topkpkg/storage/hint_file.h"
#include "topkpkg/storage/record_log.h"
#include "topkpkg/storage/session_store.h"

namespace topkpkg::storage {
namespace {

// A fresh path under the test temp dir; any previous leftover (file or
// store directory) is removed.
std::string TempStorePath(const std::string& name) {
  std::string path = ::testing::TempDir() + "topkpkg_" + name + "_" +
                     std::to_string(::getpid()) + ".tkps";
  std::filesystem::remove_all(path);
  return path;
}

std::uint64_t FileSize(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

void TruncateFile(const std::string& path, std::uint64_t size) {
  std::filesystem::resize_file(path, size);
}

void FlipBit(const std::string& path, std::uint64_t byte_offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(byte_offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(byte_offset));
  f.write(&c, 1);
}

// Path of segment `id` inside the store directory.
std::string SegPath(const std::string& dir, std::uint64_t id) {
  return dir + "/" + SegmentFileName(id);
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A version-1 segment, written by hand: its record header carried a u32
// kind after the session id, and the CRC covered session_id ‖ kind ‖
// payload.
std::string V1Segment(std::uint64_t session_id, const std::string& payload) {
  ByteWriter w;
  w.PutU32(1);  // Format version.
  ByteWriter key;
  key.PutU64(session_id);
  key.PutU32(5);  // Record kind.
  const std::uint32_t crc =
      Crc32(payload.data(), payload.size(),
            Crc32(key.bytes().data(), key.bytes().size()));
  w.PutU32(static_cast<std::uint32_t>(payload.size()));
  w.PutU32(crc);
  w.PutU64(session_id);
  w.PutU32(5);
  return std::string("TKPS") + w.bytes() + payload;
}

// A version-1 hint with one entry (session_id u64 | kind u32 | offset u64
// | stored_size u64), CRC over everything before the trailer.
std::string V1Hint(std::uint64_t segment_file_size, std::uint64_t session_id,
                   std::uint64_t offset, std::uint64_t stored_size) {
  ByteWriter w;
  w.PutU32(1);  // Format version.
  w.PutU64(segment_file_size);
  w.PutU64(1);  // Entry count.
  w.PutU64(session_id);
  w.PutU32(5);  // Record kind.
  w.PutU64(offset);
  w.PutU64(stored_size);
  std::string out = std::string("TKPH") + w.bytes();
  ByteWriter trailer;
  trailer.PutU32(Crc32(out.data(), out.size()));
  return out + trailer.bytes();
}

TEST(RecordLogTest, AppendReplayRoundTrip) {
  const std::string path = TempStorePath("roundtrip");
  std::vector<Record> want;
  {
    auto writer = RecordLogWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < 20; ++i) {
      Record rec;
      rec.session_id = static_cast<std::uint64_t>(1 + i % 3);
      rec.payload = std::string(static_cast<std::size_t>(i * 7), 'a' + i % 26);
      auto offset = writer->Append(rec.session_id, rec.payload);
      ASSERT_TRUE(offset.ok()) << offset.status();
      rec.offset = *offset;
      want.push_back(std::move(rec));
    }
    ASSERT_TRUE(writer->Flush().ok());
  }
  RecordLogReader reader(path);
  std::vector<Record> got;
  ReplayStats stats;
  ASSERT_TRUE(reader
                  .Replay(
                      [&got](const Record& rec) {
                        got.push_back(rec);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.records, want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].session_id, want[i].session_id);
    EXPECT_EQ(got[i].payload, want[i].payload);
    EXPECT_EQ(got[i].offset, want[i].offset);
    // Point reads agree with the replay.
    auto point = reader.ReadAt(want[i].offset);
    ASSERT_TRUE(point.ok()) << point.status();
    EXPECT_EQ(point->payload, want[i].payload);
  }
}

// Property: cutting the file anywhere inside the LAST record — any byte of
// its header or payload — must replay the intact prefix and stop cleanly.
TEST(RecordLogTest, TornTailAtEveryByteBoundaryStopsCleanly) {
  const std::string path = TempStorePath("torntail");
  std::uint64_t last_offset = 0;
  {
    auto writer = RecordLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 4; ++i) {
      auto off = writer->Append(7, "payload-" + std::to_string(i));
      ASSERT_TRUE(off.ok());
      last_offset = *off;
    }
    ASSERT_TRUE(writer->Flush().ok());
  }
  const std::uint64_t full = FileSize(path);
  for (std::uint64_t cut = last_offset + 1; cut < full; ++cut) {
    const std::string copy = TempStorePath("torntail_cut");
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    TruncateFile(copy, cut);
    RecordLogReader reader(copy);
    std::size_t seen = 0;
    ReplayStats stats;
    Status st = reader.Replay(
        [&seen](const Record&) {
          ++seen;
          return Status::OK();
        },
        &stats);
    ASSERT_TRUE(st.ok()) << "cut at " << cut << ": " << st;
    EXPECT_EQ(seen, 3u) << "cut at " << cut;
    EXPECT_TRUE(stats.torn_tail) << "cut at " << cut;
    EXPECT_EQ(stats.tail_offset, last_offset) << "cut at " << cut;
  }
}

TEST(RecordLogTest, FlippedPayloadBitIsRejectedByCrc) {
  const std::string path = TempStorePath("bitflip");
  std::uint64_t second_offset = 0;
  {
    auto writer = RecordLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "first-record-payload").ok());
    auto off = writer->Append(2, "second-record-payload");
    ASSERT_TRUE(off.ok());
    second_offset = *off;
    ASSERT_TRUE(writer->Flush().ok());
  }
  // Flip one bit inside the second record's payload.
  FlipBit(path, second_offset + kRecordHeaderSize + 3);

  RecordLogReader reader(path);
  // Strict replay: hard error, first record still delivered.
  std::size_t seen = 0;
  Status st = reader.Replay([&seen](const Record&) {
    ++seen;
    return Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(seen, 1u);
  // Point read of the damaged record: rejected.
  EXPECT_EQ(reader.ReadAt(second_offset).status().code(),
            StatusCode::kInternal);
  // Scan mode (fsck): counted, skipped, replay continues to a clean end.
  ReplayStats stats;
  seen = 0;
  st = reader.Replay(
      [&seen](const Record&) {
        ++seen;
        return Status::OK();
      },
      &stats, /*strict=*/false);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(stats.crc_failures, 1u);
  EXPECT_FALSE(stats.torn_tail);
}

TEST(SessionStoreTest, FlippedBitInSegmentFailsOpen) {
  const std::string path = TempStorePath("storebitflip");
  std::uint64_t second_offset = 0;
  {
    auto store = SessionStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store->Put(1, "first-record-payload").ok());
    ASSERT_TRUE(store->Put(2, "second-record-payload").ok());
    second_offset = kFileHeaderSize + kRecordHeaderSize +
                    std::string("first-record-payload").size();
  }
  FlipBit(SegPath(path, 1), second_offset + kRecordHeaderSize + 3);
  // Mid-log damage is corruption, not a crash shape: the open refuses it.
  EXPECT_EQ(SessionStore::Open(path).status().code(), StatusCode::kInternal);
}

// A flipped high bit in a live record's payload_len, on a sealed segment
// whose hint stays valid (the file size is unchanged), reaches only the
// point read. It must fail with a typed error before allocating the
// declared length.
TEST(SessionStoreTest, InflatedPayloadLengthFailsPointRead) {
  const std::string path = TempStorePath("inflatedlen");
  SessionStoreOptions opts;
  opts.segment_max_bytes = 256;
  opts.auto_compact = false;
  {
    auto store = SessionStore::Open(path, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    for (std::uint64_t session = 1; session <= 8; ++session) {
      ASSERT_TRUE(store->Put(session, std::string(48, 'a')).ok());
    }
    ASSERT_GT(store->stats().segment_rolls, 0u);
  }
  // Session 1's record opens segment 1; its payload_len is the first field.
  std::fstream f(SegPath(path, 1),
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(kFileHeaderSize + 3));
  f.put(static_cast<char>(0xFF));  // payload_len += ~4 GiB.
  f.close();

  auto store = SessionStore::Open(path, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->stats().scanned_startup_segments, 0u);
  EXPECT_TRUE(store->Contains(1));
  const Result<std::string> got = store->Get(1);
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange) << got.status();
  EXPECT_EQ(*store->Get(2), std::string(48, 'a'));
}

// A version-1 store is refused at Open, not migrated or misread, whether
// its segment is the active one or sealed with a version-1 hint.
TEST(SessionStoreTest, VersionOneSegmentIsRefused) {
  const std::string segment = V1Segment(7, "old-checkpoint");
  for (const bool with_hint : {false, true}) {
    SCOPED_TRACE(with_hint ? "with hint" : "without hint");
    const std::string path = TempStorePath("v1segment");
    std::filesystem::create_directories(path);
    WriteFile(SegPath(path, 1), segment);
    if (with_hint) {
      WriteFile(path + "/" + SegmentHintName(1),
                V1Hint(segment.size(), 7, kFileHeaderSize,
                       segment.size() - kFileHeaderSize));
    }
    const Status st = SessionStore::Open(path).status();
    EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << st;
    EXPECT_NE(st.message().find("version 1"), std::string::npos) << st;
    EXPECT_NE(st.message().find("version 2"), std::string::npos) << st;
    // The refused segment is left as it was.
    std::ifstream in(SegPath(path, 1), std::ios::binary);
    const std::string left((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(left, segment);
  }
}

// A hint is a cache: a version-1 hint next to a current segment is ignored,
// the segment scanned, and the hint rewritten in the current version.
TEST(SessionStoreTest, VersionOneHintFallsBackToScanAndIsRewritten) {
  const std::string path = TempStorePath("v1hint");
  SessionStoreOptions opts;
  opts.segment_max_bytes = 256;
  opts.auto_compact = false;
  {
    auto store = SessionStore::Open(path, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    for (std::uint64_t session = 1; session <= 8; ++session) {
      ASSERT_TRUE(store->Put(session, "v" + std::string(48, 'b')).ok());
    }
    ASSERT_GT(store->stats().segment_rolls, 0u);
  }
  const std::string hint = path + "/" + SegmentHintName(1);
  // Same segment size, so only the version tells the hint apart.
  WriteFile(hint, V1Hint(FileSize(SegPath(path, 1)), 1, kFileHeaderSize,
                         kRecordHeaderSize + 49));
  EXPECT_EQ(LoadHintFile(hint).status().code(), StatusCode::kUnimplemented);
  {
    auto store = SessionStore::Open(path, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(store->stats().scanned_startup_segments, 1u);
    EXPECT_EQ(store->keydir_size(), 8u);
    for (std::uint64_t session = 1; session <= 8; ++session) {
      EXPECT_EQ(*store->Get(session), "v" + std::string(48, 'b'));
    }
  }
  auto rewritten = LoadHintFile(hint);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  EXPECT_FALSE(rewritten->entries.empty());
  auto healed = SessionStore::Open(path, opts);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->stats().scanned_startup_segments, 0u);
}

TEST(SessionStoreTest, OpenRejectsLegacySingleFileStore) {
  const std::string path = TempStorePath("legacy");
  {
    auto writer = RecordLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "old-format").ok());
  }
  EXPECT_EQ(SessionStore::Open(path).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionStoreTest, SecondWriterIsRejectedWhileFirstHoldsTheLock) {
  const std::string path = TempStorePath("lock");
  auto store = SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->Put(1, "held").ok());
  // flock is per open file description, so even a same-process second open
  // must bounce.
  auto second = SessionStore::Open(path);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // Dropping the first handle releases the lock.
  store = Status::Internal("released");
  auto third = SessionStore::Open(path);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(*third->Get(1), "held");
}

TEST(SessionStoreTest, KeydirLatestWins) {
  const std::string path = TempStorePath("keydir");
  {
    auto store = SessionStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store->Put(1, "v1").ok());
    ASSERT_TRUE(store->Put(1, "v2").ok());
    ASSERT_TRUE(store->Put(3, "other-session").ok());
    ASSERT_TRUE(store->Put(2, "session-2").ok());

    auto got = store->Get(1);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "v2");
    EXPECT_TRUE(store->Contains(3));
    EXPECT_FALSE(store->Contains(4));
    EXPECT_EQ(store->Get(4).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(store->keydir_size(), 3u);
  }
  // Everything above replays to the same view.
  auto reopened = SessionStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->keydir_size(), 3u);
  EXPECT_EQ(*reopened->Get(1), "v2");
  EXPECT_EQ(*reopened->Get(2), "session-2");
  EXPECT_EQ(*reopened->Get(3), "other-session");
  EXPECT_FALSE(reopened->Contains(4));
}

TEST(SessionStoreTest, OpenTruncatesTornTailAndKeepsAppending) {
  const std::string path = TempStorePath("recover");
  {
    auto store = SessionStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put(1, "committed").ok());
    ASSERT_TRUE(store->Put(2, "torn-away-below").ok());
  }
  // Simulate a crash mid-append of the second record (all records live in
  // the first, still-active segment).
  const std::string seg = SegPath(path, 1);
  TruncateFile(seg, FileSize(seg) - 5);
  {
    auto store = SessionStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_TRUE(store->stats().recovered_torn_tail);
    EXPECT_EQ(*store->Get(1), "committed");
    EXPECT_FALSE(store->Contains(2));
    // Appending after recovery lands on a clean boundary.
    ASSERT_TRUE(store->Put(2, "rewritten").ok());
  }
  auto store = SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_FALSE(store->stats().recovered_torn_tail);
  EXPECT_EQ(*store->Get(2), "rewritten");
}

TEST(SessionStoreTest, PartialFileHeaderIsStartedOver) {
  // A crash during segment *creation* can leave fewer bytes than the file
  // header; nothing committed, so Open starts the segment over.
  const std::string path = TempStorePath("partialheader");
  std::filesystem::create_directories(path);
  {
    std::ofstream f(SegPath(path, 1), std::ios::binary);
    f.write("TK", 2);
  }
  auto store = SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->keydir_size(), 0u);
  ASSERT_TRUE(store->Put(1, "fresh-start").ok());
  store = Status::Internal("released");
  auto reopened = SessionStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*reopened->Get(1), "fresh-start");
}

TEST(SessionStoreTest, SegmentRollsAndHintFilesDriveStartup) {
  const std::string path = TempStorePath("segments");
  SessionStoreOptions opts;
  opts.segment_max_bytes = 256;  // Tiny: force frequent rolls.
  opts.auto_compact = false;     // Keep every sealed segment around.
  std::uint64_t rolls = 0;
  {
    auto store = SessionStore::Open(path, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    for (int round = 0; round < 6; ++round) {
      for (std::uint64_t session = 1; session <= 4; ++session) {
        ASSERT_TRUE(store
                        ->Put(session,
                              "s" + std::to_string(session) + "-r" +
                                  std::to_string(round) + std::string(48, 'p'))
                        .ok());
      }
    }
    rolls = store->stats().segment_rolls;
    ASSERT_GT(rolls, 2u);
    EXPECT_EQ(store->stats().segments, rolls + 1);
    EXPECT_EQ(store->active_segment_id(), rolls + 1);
  }
  // Every sealed segment restarts from its hint file, none by scanning.
  auto reopened = SessionStore::Open(path, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->stats().hint_startup_segments, rolls);
  EXPECT_EQ(reopened->stats().scanned_startup_segments, 0u);
  EXPECT_EQ(reopened->keydir_size(), 4u);
  for (std::uint64_t session = 1; session <= 4; ++session) {
    EXPECT_EQ(*reopened->Get(session),
              "s" + std::to_string(session) + "-r5" + std::string(48, 'p'));
  }
}

TEST(SessionStoreTest, CorruptHintFallsBackToScanAndHealsItself) {
  const std::string path = TempStorePath("badhint");
  SessionStoreOptions opts;
  opts.segment_max_bytes = 256;
  opts.auto_compact = false;
  {
    auto store = SessionStore::Open(path, opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          store->Put(static_cast<std::uint64_t>(1 + i % 3),
                     "value-" + std::to_string(i) + std::string(60, 'h'))
              .ok());
    }
    ASSERT_GT(store->stats().segment_rolls, 0u);
  }
  const std::string hint = path + "/" + SegmentHintName(1);
  ASSERT_TRUE(std::filesystem::exists(hint));
  FlipBit(hint, 12);
  {
    // The damaged hint is ignored, the segment scanned, the hint rewritten.
    auto store = SessionStore::Open(path, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(store->stats().scanned_startup_segments, 1u);
    EXPECT_EQ(*store->Get(3), "value-11" + std::string(60, 'h'));
  }
  auto healed = SessionStore::Open(path, opts);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->stats().scanned_startup_segments, 0u);
}

TEST(SessionStoreTest, CompactionDropsSupersededRecordsAndShrinksFile) {
  const std::string path = TempStorePath("compact");
  SessionStoreOptions opts;
  opts.auto_compact = false;
  std::uint64_t before = 0;
  {
    auto store = SessionStore::Open(path, opts);
    ASSERT_TRUE(store.ok());
    // Multi-checkpoint shape: the same sessions rewritten many times.
    for (int round = 0; round < 10; ++round) {
      for (std::uint64_t session = 1; session <= 12; ++session) {
        ASSERT_TRUE(store
                        ->Put(session, "round-" + std::to_string(round) +
                                           "-payload-" + std::string(64, 'x'))
                        .ok());
      }
    }
    before = store->stats().file_bytes;
    const std::uint64_t dead_before = store->stats().dead_bytes;
    EXPECT_GT(dead_before, 0u);

    ASSERT_TRUE(store->Compact().ok());
    EXPECT_LT(store->stats().file_bytes, before);
    EXPECT_EQ(store->stats().dead_bytes, 0u);
    EXPECT_EQ(store->stats().live_records, store->keydir_size());
    EXPECT_EQ(store->keydir_size(), 12u);

    // Every live value survives through the compacted handle.
    for (std::uint64_t session = 1; session <= 12; ++session) {
      auto got = store->Get(session);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, "round-9-payload-" + std::string(64, 'x'));
    }
    // The store keeps appending normally after a compaction.
    ASSERT_TRUE(store->Put(13, "post-compact").ok());
    EXPECT_EQ(*store->Get(13), "post-compact");
  }
  // ... and through a fresh replay of the compacted segments.
  auto reopened = SessionStore::Open(path, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->keydir_size(), 13u);
  EXPECT_EQ(*reopened->Get(7), "round-9-payload-" + std::string(64, 'x'));
  EXPECT_EQ(*reopened->Get(13), "post-compact");
}

TEST(SessionStoreTest, AutoCompactionBoundsDeadBytes) {
  const std::string path = TempStorePath("autocompact");
  SessionStoreOptions opts;
  opts.segment_max_bytes = 512;
  opts.compact_dead_ratio = 0.5;
  auto store = SessionStore::Open(path, opts);
  ASSERT_TRUE(store.ok());
  // Rewriting one key over and over makes every sealed segment ~all dead.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store->Put(1, std::string(100, 'a' + i % 26)).ok());
  }
  EXPECT_GT(store->stats().auto_compactions, 0u);
  EXPECT_EQ(store->stats().failed_auto_compactions, 0u);
  // Dead bytes stay bounded instead of growing with the 200 rewrites, and
  // old segment files actually disappear from disk.
  EXPECT_LT(store->stats().segments, 4u);
  EXPECT_LT(store->stats().file_bytes, 4u * 512u + 4096u);
  EXPECT_EQ(*store->Get(1), std::string(100, 'a' + 199 % 26));
}

TEST(SessionStoreTest, FsyncPolicyControlsSyncCadence) {
  {
    SessionStoreOptions opts;
    opts.fsync_policy = FsyncPolicy::kEveryPut;
    auto store = SessionStore::Open(TempStorePath("policy_every"), opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->Put(1, "v").ok());
    }
    EXPECT_EQ(store->stats().fsyncs, 10u);
  }
  {
    SessionStoreOptions opts;
    opts.fsync_policy = FsyncPolicy::kInterval;
    opts.group_commit_puts = 4;
    auto store = SessionStore::Open(TempStorePath("policy_interval"), opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->Put(1, "v").ok());
    }
    // Two full group commits; Flush drains the remaining window of two.
    EXPECT_EQ(store->stats().fsyncs, 2u);
    ASSERT_TRUE(store->Flush().ok());
    EXPECT_EQ(store->stats().fsyncs, 3u);
    ASSERT_TRUE(store->Flush().ok());
    EXPECT_EQ(store->stats().fsyncs, 3u);  // Nothing pending: no fsync.
  }
  {
    SessionStoreOptions opts;
    opts.fsync_policy = FsyncPolicy::kNone;
    auto store = SessionStore::Open(TempStorePath("policy_none"), opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->Put(1, "v").ok());
    }
    ASSERT_TRUE(store->Flush().ok());
    EXPECT_EQ(store->stats().fsyncs, 0u);
    // Explicit Sync works at every policy.
    ASSERT_TRUE(store->Sync().ok());
    EXPECT_EQ(store->stats().fsyncs, 1u);
  }
}

TEST(SessionStoreTest, FlushTimerDrainsAnOpenWindowDeterministically) {
  std::uint64_t now_ms = 1000;
  SessionStoreOptions opts;
  opts.fsync_policy = FsyncPolicy::kInterval;
  opts.group_commit_puts = 100;  // Count alone would never trigger here.
  opts.flush_interval_ms = 50;
  opts.clock_ms = [&now_ms]() { return now_ms; };
  auto store = SessionStore::Open(TempStorePath("flush_timer"), opts);
  ASSERT_TRUE(store.ok());

  // A trickle of puts inside the window: no fsync yet.
  ASSERT_TRUE(store->Put(1, "a").ok());
  now_ms += 20;
  ASSERT_TRUE(store->Put(2, "b").ok());
  EXPECT_EQ(store->stats().fsyncs, 0u);

  // Before the deadline MaybeFlush is a no-op; at the deadline it drains
  // the window with exactly one fsync.
  ASSERT_TRUE(store->MaybeFlush().ok());
  EXPECT_EQ(store->stats().fsyncs, 0u);
  now_ms += 30;  // 50ms since the window opened.
  ASSERT_TRUE(store->MaybeFlush().ok());
  EXPECT_EQ(store->stats().fsyncs, 1u);
  // Drained window: polling again does nothing.
  ASSERT_TRUE(store->MaybeFlush().ok());
  EXPECT_EQ(store->stats().fsyncs, 1u);

  // The next put opens a fresh window with a fresh deadline.
  ASSERT_TRUE(store->Put(3, "c").ok());
  ASSERT_TRUE(store->MaybeFlush().ok());
  EXPECT_EQ(store->stats().fsyncs, 1u);
  now_ms += 50;
  ASSERT_TRUE(store->MaybeFlush().ok());
  EXPECT_EQ(store->stats().fsyncs, 2u);

  // An overdue window is also drained by the mutation path itself: a put
  // landing past the deadline syncs inline without waiting for a poll.
  ASSERT_TRUE(store->Put(4, "d").ok());
  now_ms += 60;
  ASSERT_TRUE(store->Put(5, "e").ok());
  EXPECT_EQ(store->stats().fsyncs, 3u);
}

TEST(SessionStoreTest, FlushTimerDisabledKeepsCountOnlyGroupCommit) {
  std::uint64_t now_ms = 0;
  SessionStoreOptions opts;
  opts.fsync_policy = FsyncPolicy::kInterval;
  opts.group_commit_puts = 4;
  opts.flush_interval_ms = 0;  // Timer off.
  opts.clock_ms = [&now_ms]() { return now_ms; };
  auto store = SessionStore::Open(TempStorePath("flush_timer_off"), opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put(1, "a").ok());
  now_ms += 1000000;  // However much time passes...
  ASSERT_TRUE(store->MaybeFlush().ok());
  EXPECT_EQ(store->stats().fsyncs, 0u);  // ...the poll never syncs.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store->Put(1, "b").ok());
  }
  EXPECT_EQ(store->stats().fsyncs, 1u);  // The count path still does.
}

TEST(SessionStoreTest, InterleavedSessionsRestoreIndependently) {
  const std::string path = TempStorePath("interleave");
  {
    auto store = SessionStore::Open(path);
    ASSERT_TRUE(store.ok());
    // Checkpoints from many sessions interleaved in one log.
    for (int round = 0; round < 5; ++round) {
      for (std::uint64_t session = 1; session <= 4; ++session) {
        ASSERT_TRUE(store
                        ->Put(session, "s" + std::to_string(session) + "-r" +
                                           std::to_string(round))
                        .ok());
      }
    }
  }
  auto reopened = SessionStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  for (std::uint64_t session = 1; session <= 4; ++session) {
    auto got = reopened->Get(session);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "s" + std::to_string(session) + "-r4");
  }
}

}  // namespace
}  // namespace topkpkg::storage
