// Mutation sweep over the decoders a damaged disk reaches: the record log
// (RecordLogReader::Replay in strict and scan mode, and ReadAt) and hint
// files (LoadHintFile). Starting from valid files, it applies every single
// bit flip, truncation at every length, inflated payload_len / count fields
// with the CRC recomputed (so that the size checks, not the CRC, must
// reject them) and a fixed-seed run of random byte overwrites.
//
// Every input must give a typed error or a valid result: never a crash or
// UB (CI runs this under ASan/UBSan), and never an allocation sized by a
// damaged field. A replaced global operator new records the largest request
// made while a decoder runs.

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/common/crc32.h"
#include "topkpkg/common/serde.h"
#include "topkpkg/storage/hint_file.h"
#include "topkpkg/storage/record_log.h"

namespace {

std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace topkpkg::storage {
namespace {

// No decoder input here exceeds 1 KiB; the largest legitimate allocation is
// a stream buffer. A request above this was sized by a damaged field.
constexpr std::size_t kAllocationBound = 64 << 10;

// Runs `decode` with allocation tracking on and returns the largest
// request it made.
template <typename F>
std::size_t LargestAllocation(F&& decode) {
  g_largest_allocation.store(0);
  g_track_allocations.store(true);
  decode();
  g_track_allocations.store(false);
  return g_largest_allocation.load();
}

bool IsTypedError(const Status& st) {
  switch (st.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnimplemented:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "topkpkg_decoder_" + name + "_" +
         std::to_string(::getpid());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void PutU32At(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

void PutU64At(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

// A valid segment and its record offsets.
struct Segment {
  std::string bytes;
  std::vector<std::uint64_t> offsets;
};

Segment ValidSegment(const std::string& path) {
  std::filesystem::remove(path);
  Segment seg;
  {
    auto writer = RecordLogWriter::Open(path);
    EXPECT_TRUE(writer.ok()) << writer.status();
    const std::size_t lengths[] = {0, 1, 9, 40, 120};
    for (std::size_t i = 0; i < 5; ++i) {
      auto offset = writer->Append(
          100 + i, std::string(lengths[i], static_cast<char>('a' + i)));
      EXPECT_TRUE(offset.ok()) << offset.status();
      seg.offsets.push_back(*offset);
    }
  }
  seg.bytes = ReadFile(path);
  return seg;
}

// Feeds one (possibly damaged) segment image to every record-log decoder:
// strict and scan-mode Replay, and ReadAt at each original record offset.
void CheckSegment(const std::string& path, const std::string& bytes,
                  const std::vector<std::uint64_t>& offsets) {
  WriteFile(path, bytes);
  const std::uint64_t size = bytes.size();
  RecordLogReader reader(path);
  for (const bool strict : {true, false}) {
    Status st;
    std::vector<Record> seen;
    const std::size_t largest = LargestAllocation([&] {
      st = reader.Replay(
          [&seen](const Record& rec) {
            seen.push_back(rec);
            return Status::OK();
          },
          nullptr, strict);
    });
    EXPECT_LE(largest, kAllocationBound) << "Replay strict=" << strict;
    EXPECT_TRUE(st.ok() || IsTypedError(st)) << st;
    for (const Record& rec : seen) {
      EXPECT_LE(rec.offset + rec.StoredSize(), size);
    }
  }
  for (const std::uint64_t offset : offsets) {
    Result<Record> rec = Status::Internal("unset");
    const std::size_t largest =
        LargestAllocation([&] { rec = reader.ReadAt(offset); });
    EXPECT_LE(largest, kAllocationBound) << "ReadAt " << offset;
    if (rec.ok()) {
      EXPECT_LE(offset + rec->StoredSize(), size);
    } else {
      EXPECT_TRUE(IsTypedError(rec.status())) << rec.status();
    }
  }
}

TEST(RecordLogDecoderTest, EveryBitFlipGivesTypedErrorOrValidRecords) {
  const std::string path = TempPath("seg_flip");
  const Segment seg = ValidSegment(path);
  for (std::size_t byte = 0; byte < seg.bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flip byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::string damaged = seg.bytes;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      CheckSegment(path, damaged, seg.offsets);
    }
  }
}

TEST(RecordLogDecoderTest, EveryTruncationGivesTypedErrorOrValidRecords) {
  const std::string path = TempPath("seg_cut");
  const Segment seg = ValidSegment(path);
  for (std::size_t len = 0; len < seg.bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    CheckSegment(path, seg.bytes.substr(0, len), seg.offsets);
  }
}

// Inflated payload_len with the record CRC recomputed over whatever bytes
// the declared length covers: ReadAt must reject a length past the end of
// the file by its size check (OutOfRange), not by the CRC.
TEST(RecordLogDecoderTest, InflatedPayloadLengthIsBoundedByFileSize) {
  const std::string path = TempPath("seg_len");
  const Segment seg = ValidSegment(path);
  const std::uint64_t size = seg.bytes.size();
  for (const std::uint64_t offset : seg.offsets) {
    const std::uint64_t available = size - offset - kRecordHeaderSize;
    const std::uint32_t old_len = ReadU32Le(seg.bytes.data() + offset);
    for (const std::uint64_t len :
         {std::uint64_t{old_len} + 1, std::uint64_t{old_len} + 7, available,
          available + 1, std::uint64_t{1} << 20, std::uint64_t{1} << 31,
          std::uint64_t{0xFFFFFFFFu}}) {
      SCOPED_TRACE("record at " + std::to_string(offset) + " length " +
                   std::to_string(len));
      std::string damaged = seg.bytes;
      PutU32At(damaged, offset, static_cast<std::uint32_t>(len));
      const std::uint64_t covered = len < available ? len : available;
      ByteWriter id;
      id.PutU64(ReadU64Le(damaged.data() + offset + 8));
      const std::uint32_t crc =
          Crc32(damaged.data() + offset + kRecordHeaderSize, covered,
                Crc32(id.bytes().data(), id.bytes().size()));
      PutU32At(damaged, offset + 4, crc);
      CheckSegment(path, damaged, seg.offsets);
      if (len > available) {
        RecordLogReader reader(path);
        EXPECT_EQ(reader.ReadAt(offset).status().code(),
                  StatusCode::kOutOfRange);
      }
    }
  }
}

TEST(RecordLogDecoderTest, ReadAtEveryOffsetGivesTypedErrorOrValidRecord) {
  const std::string path = TempPath("seg_offsets");
  const Segment seg = ValidSegment(path);
  std::vector<std::uint64_t> every;
  for (std::uint64_t o = 0; o <= seg.bytes.size() + 1; ++o) every.push_back(o);
  CheckSegment(path, seg.bytes, every);
}

TEST(RecordLogDecoderTest, RandomOverwritesFixedSeed) {
  const std::string path = TempPath("seg_random");
  const Segment seg = ValidSegment(path);
  std::mt19937 rng(16);
  for (int iter = 0; iter < 500; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    std::string damaged = seg.bytes;
    const int writes = 1 + static_cast<int>(rng() % 4);
    for (int w = 0; w < writes; ++w) {
      damaged[rng() % damaged.size()] = static_cast<char>(rng() & 0xFFu);
    }
    CheckSegment(path, damaged, seg.offsets);
  }
}

// A valid hint describing five entries.
std::string ValidHint() {
  std::vector<HintEntry> entries;
  for (std::uint64_t i = 0; i < 5; ++i) {
    entries.push_back(HintEntry{100 + i, 8 + 40 * i, 40});
  }
  return EncodeHintFile(/*segment_file_size=*/208, entries);
}

// Loads one hint image: OK only with an entry count that matches the
// file size; a typed error otherwise; bounded allocation either way.
Result<HintFileContents> CheckHint(const std::string& path,
                                   const std::string& bytes) {
  WriteFile(path, bytes);
  Result<HintFileContents> hint = Status::Internal("unset");
  const std::size_t largest =
      LargestAllocation([&] { hint = LoadHintFile(path); });
  EXPECT_LE(largest, kAllocationBound);
  if (hint.ok()) {
    EXPECT_EQ(bytes.size(), 4 + 4 + 8 + 8 + 24 * hint->entries.size() + 4);
  } else {
    EXPECT_TRUE(IsTypedError(hint.status())) << hint.status();
  }
  return hint;
}

TEST(HintFileDecoderTest, ValidHintRoundTrips) {
  const Result<HintFileContents> hint =
      CheckHint(TempPath("hint_valid"), ValidHint());
  ASSERT_TRUE(hint.ok()) << hint.status();
  EXPECT_EQ(hint->segment_file_size, 208u);
  EXPECT_EQ(hint->entries.size(), 5u);
  EXPECT_EQ(hint->entries[2], (HintEntry{102, 88, 40}));
}

TEST(HintFileDecoderTest, EveryBitFlipAndTruncationIsRejected) {
  const std::string path = TempPath("hint_flip");
  const std::string valid = ValidHint();
  for (std::size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flip byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::string damaged = valid;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_FALSE(CheckHint(path, damaged).ok());
    }
  }
  for (std::size_t len = 0; len < valid.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    EXPECT_FALSE(CheckHint(path, valid.substr(0, len)).ok());
  }
}

// Inflated entry counts with the trailer CRC recomputed: only the size
// check can reject them. count + 2^61 is the count whose byte size wraps
// around 2^64 to the real one (24-byte entries, 24 * 2^61 = 3 * 2^64).
TEST(HintFileDecoderTest, InflatedCountIsRejectedBySizeCheck) {
  const std::string path = TempPath("hint_count");
  const std::string valid = ValidHint();
  constexpr std::size_t kCountAt = 16;
  const std::uint64_t count = ReadU64Le(valid.data() + kCountAt);
  for (const std::uint64_t inflated :
       {count + 1, count - 1, count + (std::uint64_t{1} << 61),
        std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    SCOPED_TRACE("count " + std::to_string(inflated));
    std::string damaged = valid;
    PutU64At(damaged, kCountAt, inflated);
    const std::size_t body = damaged.size() - 4;
    PutU32At(damaged, body, Crc32(damaged.data(), body));
    EXPECT_EQ(CheckHint(path, damaged).status().code(),
              StatusCode::kOutOfRange);
  }
}

TEST(HintFileDecoderTest, RandomOverwritesFixedSeed) {
  const std::string path = TempPath("hint_random");
  const std::string valid = ValidHint();
  std::mt19937 rng(16);
  for (int iter = 0; iter < 500; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    std::string damaged = valid;
    const int writes = 1 + static_cast<int>(rng() % 4);
    for (int w = 0; w < writes; ++w) {
      damaged[rng() % damaged.size()] = static_cast<char>(rng() & 0xFFu);
    }
    CheckHint(path, damaged);
  }
}

}  // namespace
}  // namespace topkpkg::storage
