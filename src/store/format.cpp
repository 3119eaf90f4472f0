#include "store/format.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>

#include "util/error.hpp"
#include "util/sha256.hpp"

namespace cim::store {

namespace {

constexpr char kMagic[8] = {'C', 'I', 'M', 'S', 'T', 'O', 'R', 'E'};
constexpr std::size_t kDigestBytes = 32;

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

// resize + memcpy rather than vector::insert over a char range: GCC 12's
// -Wstringop-overflow misfires on the range-insert reallocation path at
// some optimization levels ("writing 1 or more bytes into a region of
// size 0"), and the build treats warnings as errors.
void append_bytes(std::vector<std::uint8_t>& out, const void* bytes,
                  std::size_t n) {
  const std::size_t off = out.size();
  out.resize(off + n);
  if (n > 0) std::memcpy(out.data() + off, bytes, n);
}

/// Bounds-checked little-endian cursor over a read buffer. Every take_*
/// returns false instead of reading past the end, so truncated files
/// surface as kCorrupt.
struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool take_u32(std::uint32_t& v) {
    if (size - pos < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return true;
  }

  bool take_u64(std::uint64_t& v) {
    if (size - pos < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return true;
  }

  bool take_bytes(void* out, std::size_t n) {
    if (size - pos < n) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
};

void set_status(ReadStatus* status, ReadStatus value) {
  if (status != nullptr) *status = value;
}

}  // namespace

void write_record(const std::string& path, const Record& record) {
  std::vector<std::uint8_t> body;
  body.reserve(64 + record.key.size() + record.payload.size() * 8);
  append_bytes(body, kMagic, sizeof(kMagic));
  append_u32(body, kFormatVersion);
  append_u32(body, static_cast<std::uint32_t>(record.kind));
  append_u64(body, record.sequence);
  append_u64(body, static_cast<std::uint64_t>(record.score));
  append_u64(body, record.key.size());
  append_bytes(body, record.key.data(), record.key.size());
  append_u64(body, record.payload.size());
  for (const std::int64_t v : record.payload) {
    append_u64(body, static_cast<std::uint64_t>(v));
  }

  util::Sha256 hasher;
  hasher.update(std::span<const std::uint8_t>(body.data(), body.size()));
  const auto digest = hasher.digest();

  // The record goes to a sibling temp file that is renamed over `path`
  // only once it is complete, so a failed write (disk full, file-size
  // limit, crash) leaves the previous record at `path` intact.
  // The one sanctioned raw-stdio serialisation path for store records
  // (cimlint: store-unversioned-io).
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  CIM_REQUIRE(file != nullptr,
              "warm-start store: cannot open '" + tmp + "' for writing");
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), file) == body.size() &&
      std::fwrite(digest.data(), 1, digest.size(), file) == digest.size();
  const bool closed = std::fclose(file) == 0;
  std::error_code ec;
  if (ok && closed) std::filesystem::rename(tmp, path, ec);
  if (!ok || !closed || ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
  }
  CIM_REQUIRE(ok && closed,
              "warm-start store: short write to '" + tmp + "'");
  CIM_REQUIRE(!ec, "warm-start store: cannot rename '" + tmp + "' to '" +
                       path + "'");
}

std::optional<Record> read_record(const std::string& path,
                                  ReadStatus* status) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    set_status(status, ReadStatus::kMissing);
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    set_status(status, ReadStatus::kMissing);
    return std::nullopt;
  }

  if (bytes.size() < sizeof(kMagic) + 4 + kDigestBytes ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    set_status(status, ReadStatus::kCorrupt);
    return std::nullopt;
  }

  const std::size_t body_size = bytes.size() - kDigestBytes;
  Cursor cur{bytes.data(), body_size, sizeof(kMagic)};
  std::uint32_t version = 0;
  if (!cur.take_u32(version)) {
    set_status(status, ReadStatus::kCorrupt);
    return std::nullopt;
  }
  // Digest check before the version gate: a record whose trailer does not
  // match is corrupt regardless of what its version field claims.
  util::Sha256 hasher;
  hasher.update(std::span<const std::uint8_t>(bytes.data(), body_size));
  const auto digest = hasher.digest();
  if (std::memcmp(digest.data(), bytes.data() + body_size, kDigestBytes) !=
      0) {
    set_status(status, ReadStatus::kCorrupt);
    return std::nullopt;
  }
  if (version != kFormatVersion) {
    set_status(status, ReadStatus::kVersionMismatch);
    return std::nullopt;
  }

  Record record;
  std::uint32_t kind = 0;
  std::uint64_t score = 0;
  std::uint64_t key_len = 0;
  std::uint64_t payload_count = 0;
  if (!cur.take_u32(kind) || !cur.take_u64(record.sequence) ||
      !cur.take_u64(score) || !cur.take_u64(key_len) ||
      key_len > cur.size - cur.pos) {
    set_status(status, ReadStatus::kCorrupt);
    return std::nullopt;
  }
  record.kind = static_cast<RecordKind>(kind);
  record.score = static_cast<std::int64_t>(score);
  record.key.resize(key_len);
  if (!cur.take_bytes(record.key.data(), key_len) ||
      !cur.take_u64(payload_count) ||
      payload_count > (cur.size - cur.pos) / 8) {
    set_status(status, ReadStatus::kCorrupt);
    return std::nullopt;
  }
  record.payload.resize(payload_count);
  for (std::uint64_t i = 0; i < payload_count; ++i) {
    std::uint64_t v = 0;
    if (!cur.take_u64(v)) {
      set_status(status, ReadStatus::kCorrupt);
      return std::nullopt;
    }
    record.payload[i] = static_cast<std::int64_t>(v);
  }
  if (cur.pos != body_size) {  // trailing junk inside the hashed body
    set_status(status, ReadStatus::kCorrupt);
    return std::nullopt;
  }
  set_status(status, ReadStatus::kOk);
  return record;
}

}  // namespace cim::store
