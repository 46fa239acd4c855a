#include "topkpkg/storage/hint_file.h"

#include <cstring>
#include <fstream>

#include "topkpkg/common/crc32.h"
#include "topkpkg/common/serde.h"

namespace topkpkg::storage {

namespace {

// magic + version + segment_file_size + count.
constexpr std::size_t kHintHeaderSize = 4 + 4 + 8 + 8;
// session_id + offset + stored_size.
constexpr std::size_t kHintEntrySize = 8 + 8 + 8;
constexpr std::size_t kHintTrailerSize = 4;

}  // namespace

std::string EncodeHintFile(std::uint64_t segment_file_size,
                           const std::vector<HintEntry>& entries) {
  std::string out(kHintMagic, sizeof(kHintMagic));
  ByteWriter body;
  body.PutU32(kHintFormatVersion);
  body.PutU64(segment_file_size);
  body.PutU64(entries.size());
  for (const HintEntry& e : entries) {
    body.PutU64(e.session_id);
    body.PutU64(e.offset);
    body.PutU64(e.stored_size);
  }
  out += body.bytes();
  ByteWriter trailer;
  trailer.PutU32(Crc32(out.data(), out.size()));
  out += trailer.bytes();
  return out;
}

Result<HintFileContents> LoadHintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("hint file: " + path + " does not exist");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Internal("hint file: cannot read " + path);
  }
  if (bytes.size() < kHintHeaderSize + kHintTrailerSize) {
    return Status::OutOfRange("hint file: " + path + " is truncated");
  }
  if (std::memcmp(bytes.data(), kHintMagic, sizeof(kHintMagic)) != 0) {
    return Status::InvalidArgument("hint file: " + path + " has no TKPH magic");
  }
  const std::size_t body_size = bytes.size() - kHintTrailerSize;
  const std::uint32_t stored_crc = ReadU32Le(bytes.data() + body_size);
  if (Crc32(bytes.data(), body_size) != stored_crc) {
    return Status::Internal("hint file: CRC mismatch in " + path);
  }
  const std::uint32_t version = ReadU32Le(bytes.data() + 4);
  if (version != kHintFormatVersion) {
    return Status::Unimplemented("hint file: " + path + " has version " +
                                 std::to_string(version) +
                                 "; this build reads version " +
                                 std::to_string(kHintFormatVersion));
  }
  HintFileContents contents;
  contents.segment_file_size = ReadU64Le(bytes.data() + 8);
  const std::uint64_t count = ReadU64Le(bytes.data() + 16);
  // Compare by division: `count * kHintEntrySize` can wrap around to the
  // real size, and a count that passed would size the reserve() below.
  const std::size_t entry_bytes =
      bytes.size() - kHintHeaderSize - kHintTrailerSize;
  if (entry_bytes % kHintEntrySize != 0 ||
      count != entry_bytes / kHintEntrySize) {
    return Status::OutOfRange("hint file: " + path +
                              " size disagrees with its entry count");
  }
  contents.entries.reserve(count);
  const char* p = bytes.data() + kHintHeaderSize;
  for (std::uint64_t i = 0; i < count; ++i, p += kHintEntrySize) {
    contents.entries.push_back(
        HintEntry{ReadU64Le(p), ReadU64Le(p + 8), ReadU64Le(p + 16)});
  }
  return contents;
}

Status WriteHintFile(Env* env, const std::string& path,
                     std::uint64_t segment_file_size,
                     const std::vector<HintEntry>& entries) {
  const std::string bytes = EncodeHintFile(segment_file_size, entries);
  TOPKPKG_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                           env->NewWritableFile(path, /*truncate=*/true));
  TOPKPKG_RETURN_IF_ERROR(file->Append(bytes.data(), bytes.size()));
  TOPKPKG_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

}  // namespace topkpkg::storage
