#include "topkpkg/storage/record_log.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "topkpkg/common/crc32.h"
#include "topkpkg/common/serde.h"

namespace topkpkg::storage {

namespace {

// CRC over the record's key and body: session_id ‖ payload.
std::uint32_t RecordCrc(std::uint64_t session_id, const std::string& payload) {
  ByteWriter id_bytes;
  id_bytes.PutU64(session_id);
  std::uint32_t crc =
      Crc32(id_bytes.bytes().data(), id_bytes.bytes().size());
  return Crc32(payload.data(), payload.size(), crc);
}

Result<std::uint64_t> StreamSize(std::ifstream& in, const std::string& path) {
  in.seekg(0, std::ios::end);
  if (!in.good()) {
    return Status::Internal("record log: cannot seek to end of " + path);
  }
  return static_cast<std::uint64_t>(in.tellg());
}

Status CheckFileHeader(std::ifstream& in, const std::string& path) {
  char header[kFileHeaderSize];
  in.seekg(0, std::ios::beg);
  in.read(header, sizeof(header));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(header))) {
    return Status::Internal("record log: " + path +
                            " is shorter than its file header");
  }
  if (std::memcmp(header, kLogMagic, sizeof(kLogMagic)) != 0) {
    return Status::InvalidArgument("record log: " + path +
                                   " has no TKPS magic (not a session store)");
  }
  const std::uint32_t version = ReadU32Le(header + 4);
  if (version != kLogFormatVersion) {
    return Status::Unimplemented(
        "record log: " + path + " has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kLogFormatVersion));
  }
  return Status::OK();
}

}  // namespace

Result<RecordLogWriter> RecordLogWriter::Open(const std::string& path,
                                              bool truncate, Env* env) {
  if (env == nullptr) env = Env::Default();
  std::uint64_t existing = 0;
  if (!truncate) {
    std::ifstream probe(path, std::ios::binary);
    if (probe.is_open()) {
      TOPKPKG_ASSIGN_OR_RETURN(existing, StreamSize(probe, path));
      if (existing < kFileHeaderSize) {
        // A crash during store creation can leave a partial file header;
        // nothing after it can have committed, so start the log over.
        existing = 0;
      } else {
        // Appending to a real log: verify it is one.
        TOPKPKG_RETURN_IF_ERROR(CheckFileHeader(probe, path));
      }
    }
  }
  const bool fresh = truncate || existing == 0;
  TOPKPKG_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                           env->NewWritableFile(path, fresh));
  std::uint64_t end = existing;
  if (fresh) {
    std::string header(kLogMagic, sizeof(kLogMagic));
    ByteWriter version;
    version.PutU32(kLogFormatVersion);
    header += version.bytes();
    TOPKPKG_RETURN_IF_ERROR(file->Append(header.data(), header.size()));
    end = kFileHeaderSize;
  }
  return RecordLogWriter(path, env, std::move(file), end);
}

Status RecordLogWriter::RequireUsable() const {
  if (file_ == nullptr) {
    return Status::Internal("record log: writer for " + path_ + " is closed");
  }
  if (poisoned_) {
    return Status::Internal(
        "record log: writer for " + path_ +
        " is poisoned after a partial append it could not undo; reopen the "
        "store to recover the record boundary");
  }
  return Status::OK();
}

Result<std::uint64_t> RecordLogWriter::Append(std::uint64_t session_id,
                                              const std::string& payload) {
  TOPKPKG_RETURN_IF_ERROR(RequireUsable());
  const std::uint64_t offset = end_offset_;
  ByteWriter header;
  header.PutU32(static_cast<std::uint32_t>(payload.size()));
  header.PutU32(RecordCrc(session_id, payload));
  header.PutU64(session_id);
  std::string buf = std::move(header).Take();
  buf.append(payload);
  Status st = file_->Append(buf.data(), buf.size());
  if (!st.ok()) {
    // The append may have pushed a prefix of the record before failing
    // (short write / injected crash). Restore the record boundary so a
    // still-running process that retries does not interleave torn bytes
    // mid-log; if the boundary cannot be restored, poison the writer —
    // reopening the store truncates the torn tail instead.
    Result<std::uint64_t> size = env_->FileSize(path_);
    if (!size.ok() || *size != end_offset_) {
      if (!env_->TruncateFile(path_, end_offset_).ok()) poisoned_ = true;
    }
    return st;
  }
  end_offset_ += buf.size();
  return offset;
}

Status RecordLogWriter::Flush() { return RequireUsable(); }

Status RecordLogWriter::Sync() {
  TOPKPKG_RETURN_IF_ERROR(RequireUsable());
  return file_->Sync();
}

Status RecordLogWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  Status st = file_->Close();
  file_.reset();
  return st;
}

Status RecordLogReader::Replay(
    const std::function<Status(const Record&)>& visit, ReplayStats* stats,
    bool strict) const {
  ReplayStats local;
  std::ifstream in(path_, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("record log: " + path_ + " does not exist");
  }
  TOPKPKG_ASSIGN_OR_RETURN(const std::uint64_t size, StreamSize(in, path_));
  TOPKPKG_RETURN_IF_ERROR(CheckFileHeader(in, path_));

  std::uint64_t pos = kFileHeaderSize;
  char header[kRecordHeaderSize];
  while (pos + kRecordHeaderSize <= size) {
    in.seekg(static_cast<std::streamoff>(pos));
    in.read(header, sizeof(header));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(header))) break;
    Record rec;
    const std::uint32_t payload_len = ReadU32Le(header);
    const std::uint32_t stored_crc = ReadU32Le(header + 4);
    rec.session_id = ReadU64Le(header + 8);
    rec.offset = pos;
    if (pos + kRecordHeaderSize + payload_len > size) {
      // Declared payload runs past EOF: torn tail, never committed.
      break;
    }
    rec.payload.resize(payload_len);
    in.read(rec.payload.data(), static_cast<std::streamsize>(payload_len));
    if (in.gcount() != static_cast<std::streamsize>(payload_len)) break;
    if (RecordCrc(rec.session_id, rec.payload) != stored_crc) {
      // The record is complete but its bytes are damaged — unlike a torn
      // tail this is not a crash shape the append protocol produces, so in
      // strict mode (every consumer but fsck) it poisons the whole log.
      if (strict) {
        if (stats != nullptr) *stats = local;
        return Status::Internal("record log: CRC mismatch at offset " +
                                std::to_string(pos) + " of " + path_);
      }
      ++local.crc_failures;
      pos += kRecordHeaderSize + payload_len;
      continue;
    }
    pos += rec.StoredSize();
    ++local.records;
    local.payload_bytes += payload_len;
    TOPKPKG_RETURN_IF_ERROR(visit(rec));
  }
  local.tail_offset = pos;
  local.torn_tail = pos != size;
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Result<Record> RecordLogReader::ReadAt(std::uint64_t offset) const {
  std::ifstream in(path_, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("record log: " + path_ + " does not exist");
  }
  TOPKPKG_ASSIGN_OR_RETURN(const std::uint64_t size, StreamSize(in, path_));
  in.seekg(static_cast<std::streamoff>(offset));
  char header[kRecordHeaderSize];
  in.read(header, sizeof(header));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(header))) {
    return Status::OutOfRange("record log: no record header at offset " +
                              std::to_string(offset) + " of " + path_);
  }
  Record rec;
  const std::uint32_t payload_len = ReadU32Le(header);
  const std::uint32_t stored_crc = ReadU32Le(header + 4);
  rec.session_id = ReadU64Le(header + 8);
  rec.offset = offset;
  // Replay's bound, checked before the payload is allocated: a damaged
  // length must not make a point read allocate up to 4 GiB.
  if (offset + kRecordHeaderSize + payload_len > size) {
    return Status::OutOfRange("record log: record at offset " +
                              std::to_string(offset) + " of " + path_ +
                              " declares " + std::to_string(payload_len) +
                              " payload bytes past the end of the file");
  }
  rec.payload.resize(payload_len);
  in.read(rec.payload.data(), static_cast<std::streamsize>(payload_len));
  if (in.gcount() != static_cast<std::streamsize>(payload_len)) {
    return Status::OutOfRange("record log: truncated record at offset " +
                              std::to_string(offset) + " of " + path_);
  }
  if (RecordCrc(rec.session_id, rec.payload) != stored_crc) {
    return Status::Internal("record log: CRC mismatch at offset " +
                            std::to_string(offset) + " of " + path_);
  }
  return rec;
}

}  // namespace topkpkg::storage
