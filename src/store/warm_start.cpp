#include "store/warm_start.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace cim::store {

namespace fs = std::filesystem;
namespace telemetry = util::telemetry;

namespace {

constexpr std::size_t kNamePrefixChars = 16;

/// Filename stem from a "sha256:<hex>" key: the first 16 hex characters.
/// The full key is verified inside the record on every read, so a stem
/// collision degrades to a miss/overwrite, never to a wrong answer.
std::string key_stem(const std::string& key) {
  constexpr std::string_view kScheme = "sha256:";
  std::string hex = key;
  if (hex.rfind(kScheme, 0) == 0) hex = hex.substr(kScheme.size());
  CIM_REQUIRE(!hex.empty(), "warm-start store: empty content-hash key");
  for (const char c : hex) {
    CIM_REQUIRE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'),
                "warm-start store: key must be lowercase hex");
  }
  return hex.substr(0, std::min(hex.size(), kNamePrefixChars));
}

void count(const char* name, std::uint64_t n = 1) {
  if constexpr (telemetry::kEnabled) {
    telemetry::Registry::global().counter(name).add(n);
  }
}

}  // namespace

WarmStartStore::WarmStartStore(std::string dir, std::size_t l0_capacity,
                               std::size_t l1_capacity)
    : dir_(std::move(dir)),
      l0_capacity_(l0_capacity),
      l1_capacity_(l1_capacity) {
  CIM_REQUIRE(l0_capacity_ >= 1 && l1_capacity_ >= 1,
              "warm-start store: level capacities must be >= 1");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  CIM_REQUIRE(!ec, "warm-start store: cannot create '" + dir_ + "'");
}

std::string WarmStartStore::entry_path(const std::string& key,
                                       int level) const {
  return (fs::path(dir_) /
          (key_stem(key) + (level == 0 ? ".l0" : ".l1")))
      .string();
}

std::optional<Record> WarmStartStore::load_level(const std::string& path) {
  ReadStatus status = ReadStatus::kOk;
  auto record = read_record(path, &status);
  if (record) return record;
  if (status == ReadStatus::kCorrupt ||
      status == ReadStatus::kVersionMismatch) {
    // Damaged or foreign-version record: drop it so the slot heals, and
    // let the caller degrade to a cold start.
    std::error_code ec;
    fs::remove(path, ec);
    ++stats_.dropped;
    count("store.dropped");
  }
  return std::nullopt;
}

std::optional<WarmStartStore::Located> WarmStartStore::find(
    const std::string& key, RecordKind kind) {
  for (int level = 0; level < 2; ++level) {
    const std::string path = entry_path(key, level);
    auto record = load_level(path);
    if (record && record->key == key && record->kind == kind) {
      return Located{std::move(*record), path, level};
    }
  }
  return std::nullopt;
}

std::uint64_t WarmStartStore::next_sequence() {
  std::uint64_t max_seq = 0;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".l0" || ext == ".l1") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    if (const auto record = read_record(path)) {
      max_seq = std::max(max_seq, record->sequence);
    }
  }
  return max_seq + 1;
}

void WarmStartStore::rebalance() {
  // Collect (sequence, path) per level; unreadable records are dropped on
  // sight so they cannot pin a slot forever.
  const auto level_entries = [&](const char* ext) {
    std::vector<std::pair<std::uint64_t, std::string>> entries;
    std::vector<std::string> paths;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension().string() == ext) {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) {
      if (auto record = load_level(path)) {
        entries.emplace_back(record->sequence, path);
      }
    }
    std::sort(entries.begin(), entries.end());
    return entries;
  };

  auto l0 = level_entries(".l0");
  std::size_t demote = l0.size() > l0_capacity_ ? l0.size() - l0_capacity_
                                                : 0;
  for (std::size_t i = 0; i < demote; ++i) {
    const fs::path src(l0[i].second);
    fs::path dst = src;
    dst.replace_extension(".l1");
    std::error_code ec;
    fs::remove(dst, ec);  // same-stem cold copy is superseded
    fs::rename(src, dst, ec);
    if (!ec) {
      ++stats_.demotions;
    }
  }

  auto l1 = level_entries(".l1");
  std::size_t evict = l1.size() > l1_capacity_ ? l1.size() - l1_capacity_
                                               : 0;
  for (std::size_t i = 0; i < evict; ++i) {
    std::error_code ec;
    fs::remove(l1[i].second, ec);
    if (!ec) {
      ++stats_.evictions;
      count("store.evictions");
    }
  }
}

bool WarmStartStore::write_entry(const std::string& path, Record& record) {
  // Every caller already holds its answer, and write_record goes through
  // a temp file and a rename, so a failed write (disk full, file-size
  // limit, store directory gone) leaves the previous file as it was: it
  // is counted, not thrown.
  const auto failed = [&](const char* what) {
    CIM_LOG_WARN << "warm-start store: write failed: " << what;
    ++stats_.write_failures;
    count("store.write_failures");
    return false;
  };
  try {
    record.sequence = next_sequence();
    write_record(path, record);
  } catch (const ConfigError& e) {
    return failed(e.what());
  } catch (const fs::filesystem_error& e) {
    return failed(e.what());
  }
  return true;
}

void WarmStartStore::put(const std::string& key, RecordKind kind,
                         std::vector<std::int64_t> payload,
                         std::int64_t score) {
  if (const auto existing = find(key, kind);
      existing && existing->record.score <= score) {
    ++stats_.kept;
    return;
  }
  Record record;
  record.kind = kind;
  record.key = key;
  record.score = score;
  record.payload = std::move(payload);
  // New and improved entries always land in the hot level; a superseded
  // cold copy of the same key is removed only after the write succeeded,
  // so a failed write never loses the previous record.
  if (!write_entry(entry_path(key, 0), record)) return;
  std::error_code ec;
  fs::remove(entry_path(key, 1), ec);
  ++stats_.stores;
  count("store.stores");
  rebalance();
}

void WarmStartStore::promote(const std::string& key, Located& located) {
  // Move the hit to the hot level with fresh recency; the cold copy goes
  // only once the hot one is written. After a failed write the hit still
  // stands and the L1 record stays.
  if (!write_entry(entry_path(key, 0), located.record)) return;
  std::error_code ec;
  fs::remove(located.path, ec);
  ++stats_.promotions;
  rebalance();
}

std::optional<std::vector<tsp::CityId>> WarmStartStore::load_tour(
    const std::string& key, std::size_t n) {
  auto located = find(key, RecordKind::kTour);
  if (located) {
    std::vector<tsp::CityId> order;
    order.reserve(located->record.payload.size());
    std::vector<std::uint8_t> seen(n, 0);
    bool valid = located->record.payload.size() == n;
    for (const std::int64_t v : located->record.payload) {
      if (!valid) break;
      if (v < 0 || static_cast<std::uint64_t>(v) >= n ||
          seen[static_cast<std::size_t>(v)]) {
        valid = false;
        break;
      }
      seen[static_cast<std::size_t>(v)] = 1;
      order.push_back(static_cast<tsp::CityId>(v));
    }
    if (!valid) {
      // A verified record that is not a permutation of this instance's
      // cities is stale garbage for our purposes: drop and start cold.
      std::error_code ec;
      fs::remove(located->path, ec);
      ++stats_.dropped;
      count("store.dropped");
    } else {
      ++stats_.hits;
      count("store.hits");
      if (located->level == 1) promote(key, *located);
      return order;
    }
  }
  ++stats_.misses;
  count("store.misses");
  return std::nullopt;
}

void WarmStartStore::store_tour(const std::string& key,
                                std::span<const tsp::CityId> order,
                                long long length) {
  std::vector<std::int64_t> payload(order.begin(), order.end());
  put(key, RecordKind::kTour, std::move(payload), length);
}

std::optional<std::vector<std::int8_t>> WarmStartStore::load_spins(
    const std::string& key, std::size_t n) {
  auto located = find(key, RecordKind::kSpins);
  if (located) {
    bool valid = located->record.payload.size() == n;
    std::vector<std::int8_t> spins;
    spins.reserve(located->record.payload.size());
    for (const std::int64_t v : located->record.payload) {
      if (v != 1 && v != -1) {
        valid = false;
        break;
      }
      spins.push_back(static_cast<std::int8_t>(v));
    }
    if (!valid) {
      std::error_code ec;
      fs::remove(located->path, ec);
      ++stats_.dropped;
      count("store.dropped");
    } else {
      ++stats_.hits;
      count("store.hits");
      if (located->level == 1) promote(key, *located);
      return spins;
    }
  }
  ++stats_.misses;
  count("store.misses");
  return std::nullopt;
}

void WarmStartStore::store_spins(const std::string& key,
                                 std::span<const std::int8_t> spins,
                                 long long cut) {
  std::vector<std::int64_t> payload(spins.begin(), spins.end());
  // Cuts are better when larger; the store orders by "lower is better".
  put(key, RecordKind::kSpins, std::move(payload), -cut);
}

}  // namespace cim::store
