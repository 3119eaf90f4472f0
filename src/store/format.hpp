// Versioned on-disk record format of the warm-start store.
//
// Every persistent artifact the store writes is one self-verifying
// record file:
//
//   "CIMSTORE"             8-byte magic
//   u32  version           kFormatVersion; mismatch → treated as absent
//   u32  kind              payload discriminator (tour / spin assignment)
//   u64  sequence          store recency stamp (monotonic, no clocks)
//   i64  score             solution quality, lower is better
//   u64  key length + bytes    content-hash key ("sha256:<hex>")
//   u64  payload count + i64 entries
//   32-byte SHA-256 digest of every preceding byte
//
// All integers are little-endian. The trailing digest makes corruption —
// truncation, bit rot, torn writes — detectable: read_record() verifies
// it and reports kCorrupt instead of returning garbage, and the store
// degrades to a cold start.
//
// This file is the ONLY sanctioned home of raw fread/fwrite on store
// records (cimlint rule `store-unversioned-io`): any other call site
// would be a second, unversioned serialisation path waiting to drift.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cim::store {

inline constexpr std::uint32_t kFormatVersion = 1;

/// Payload discriminator of a record.
enum class RecordKind : std::uint32_t {
  kTour = 1,  ///< payload: city ids in visiting order
  kSpins = 2, ///< payload: ±1 spin assignment
};

struct Record {
  RecordKind kind = RecordKind::kTour;
  std::string key;            ///< content-hash key ("sha256:<hex>")
  std::uint64_t sequence = 0; ///< store-maintained recency stamp
  std::int64_t score = 0;     ///< solution quality, lower is better
  std::vector<std::int64_t> payload;
};

enum class ReadStatus {
  kOk,
  kMissing,          ///< file absent or unreadable
  kVersionMismatch,  ///< recognised magic, different format version
  kCorrupt,          ///< bad magic, truncation, or digest mismatch
};

/// Serialises `record` to `path`, replacing any previous record there
/// only once the new one is fully written (via `<path>.tmp` and a
/// rename). Throws cim::Error when the file cannot be written; the
/// previous record then stays in place and the temp file is removed.
void write_record(const std::string& path, const Record& record);

/// Reads and verifies a record. Returns the record on kOk; nullopt
/// otherwise, with the reason in *status when given. Never throws on bad
/// content — a damaged store must degrade, not crash the solve.
std::optional<Record> read_record(const std::string& path,
                                  ReadStatus* status = nullptr);

}  // namespace cim::store
