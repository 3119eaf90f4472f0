// Persistent warm-start store: instance fingerprint → best known
// solution (DESIGN.md §16).
//
// A directory of self-verifying record files (store/format.hpp) keyed by
// content hash ("sha256:<hex>", from tsp::instance_fingerprint), organised
// as two LRU-bounded levels in the LSM spirit:
//
//   L0  small, hot: every store/promote lands here
//   L1  larger, cold: L0 overflow demotes its least-recent entry down
//
// A hit in L1 promotes the entry back to L0; L1 overflow evicts the
// least-recent entry for good. Recency is a monotonic per-store sequence
// number persisted inside the records — no clocks, so the store's
// behaviour is a pure function of the operation sequence.
//
// Failure policy: a record that fails verification (truncation, bit rot,
// version mismatch) is dropped and reported as a miss — the solver
// degrades to a cold start, never crashes, never consumes garbage. A
// write that fails (disk full, file-size limit, directory gone) is
// counted in write_failures, not thrown, and leaves the previous record
// in place: a failed store keeps the old entry, a failed promotion keeps
// the L1 record and still returns the hit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/format.hpp"
#include "tsp/instance.hpp"

namespace cim::store {

struct WarmStartStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;      ///< records written (new or improved)
  std::uint64_t kept = 0;        ///< store skipped: existing score is better
  std::uint64_t promotions = 0;  ///< L1 → L0 on hit
  std::uint64_t demotions = 0;   ///< L0 → L1 on overflow
  std::uint64_t evictions = 0;   ///< dropped from L1 on overflow
  std::uint64_t dropped = 0;     ///< corrupt / version-mismatch records removed
  /// Record writes that failed (store_tour/store_spins and L1 → L0
  /// promotions); the store counts them instead of throwing.
  std::uint64_t write_failures = 0;
};

class WarmStartStore {
 public:
  /// Opens (creating if needed) the store at `dir`. Level capacities
  /// bound the record count per level; both must be ≥ 1.
  explicit WarmStartStore(std::string dir, std::size_t l0_capacity = 8,
                          std::size_t l1_capacity = 56);

  /// Best known tour for the fingerprinted instance, or nullopt (cold
  /// start). Validates that the payload is a permutation of n cities.
  std::optional<std::vector<tsp::CityId>> load_tour(const std::string& key,
                                                    std::size_t n);

  /// Records a tour if it beats the stored score for this key.
  void store_tour(const std::string& key,
                  std::span<const tsp::CityId> order, long long length);

  /// Best known ±1 spin assignment, or nullopt.
  std::optional<std::vector<std::int8_t>> load_spins(const std::string& key,
                                                     std::size_t n);

  /// Records a spin assignment if its cut beats the stored one.
  void store_spins(const std::string& key,
                   std::span<const std::int8_t> spins, long long cut);

  const WarmStartStats& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }

 private:
  struct Located {
    Record record;
    std::string path;
    int level = 0;
  };

  std::string entry_path(const std::string& key, int level) const;
  std::optional<Located> find(const std::string& key, RecordKind kind);
  std::optional<Record> load_level(const std::string& path);
  /// Writes `record` to `path` with a fresh sequence number; a failed
  /// write is logged and counted in write_failures, not thrown. Returns
  /// whether the record was written.
  bool write_entry(const std::string& path, Record& record);
  /// Moves an L1 hit to L0; a failed write keeps the L1 record.
  void promote(const std::string& key, Located& located);
  void put(const std::string& key, RecordKind kind,
           std::vector<std::int64_t> payload, std::int64_t score);
  /// Demotes L0 overflow to L1 and evicts L1 overflow, least-recent
  /// (lowest sequence) first.
  void rebalance();
  std::uint64_t next_sequence();

  std::string dir_;
  std::size_t l0_capacity_;
  std::size_t l1_capacity_;
  WarmStartStats stats_;
};

}  // namespace cim::store
