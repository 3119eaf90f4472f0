// Warm-start store: versioned record format, two-level LRU behaviour,
// corruption / version-mismatch degradation, and the core::CimSolver
// warm_start_dir wiring (DESIGN.md §16).
#include "store/warm_start.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "ising/generic.hpp"
#include "ising/maxcut.hpp"
#include "store/format.hpp"
#include "test_helpers.hpp"
#include "tsp/fingerprint.hpp"
#include "util/error.hpp"
#include "util/sha256.hpp"

namespace cim::store {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store directory under the system temp root.
class WarmStartStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("cim_store_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

std::string make_key(int i) {
  return util::sha256_tagged(util::sha256_hex("key" + std::to_string(i)));
}

std::vector<tsp::CityId> make_order(std::size_t n, std::size_t rotate) {
  std::vector<tsp::CityId> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = static_cast<tsp::CityId>((i + rotate) % n);
  }
  return order;
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_all(const std::string& path,
               const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The one file the key owns at `level` — mirrors the store's naming rule
/// (first 16 hex chars of the key after "sha256:").
std::string path_of(const std::string& dir, const std::string& key,
                    int level) {
  return (fs::path(dir) / (key.substr(7, 16) + (level == 0 ? ".l0" : ".l1")))
      .string();
}

/// Re-signs a tampered record body so only the version gate can reject it.
void resign(std::vector<std::uint8_t>& bytes) {
  ASSERT_GT(bytes.size(), 32U);
  util::Sha256 hasher;
  hasher.update(std::span<const std::uint8_t>(bytes.data(),
                                              bytes.size() - 32));
  const auto digest = hasher.digest();
  std::copy(digest.begin(), digest.end(), bytes.end() - 32);
}

/// Caps the process file-size limit (RLIMIT_FSIZE) at `bytes` for its
/// lifetime, with SIGXFSZ ignored so a write past the cap fails with EFBIG
/// instead of killing the process. Restores both on destruction.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes)
      : previous_handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    if (getrlimit(RLIMIT_FSIZE, &saved_) != 0) return;
    rlimit capped = saved_;
    capped.rlim_cur = bytes;
    active_ = setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~FileSizeCap() {
    if (active_) setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

  bool active() const { return active_; }

 private:
  void (*previous_handler_)(int);
  rlimit saved_{};
  bool active_ = false;
};

TEST_F(WarmStartStoreTest, FormatRoundTrip) {
  fs::create_directories(dir_);
  Record record;
  record.kind = RecordKind::kSpins;
  record.key = make_key(1);
  record.sequence = 42;
  record.score = -17;
  record.payload = {1, -1, -1, 1};
  const std::string path = (fs::path(dir_) / "r.l0").string();
  write_record(path, record);

  ReadStatus status = ReadStatus::kCorrupt;
  const auto back = read_record(path, &status);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(status, ReadStatus::kOk);
  EXPECT_EQ(back->kind, record.kind);
  EXPECT_EQ(back->key, record.key);
  EXPECT_EQ(back->sequence, record.sequence);
  EXPECT_EQ(back->score, record.score);
  EXPECT_EQ(back->payload, record.payload);
}

TEST_F(WarmStartStoreTest, FormatDetectsDamage) {
  fs::create_directories(dir_);
  Record record;
  record.key = make_key(2);
  record.payload = {0, 1, 2, 3};
  const std::string path = (fs::path(dir_) / "r.l0").string();
  write_record(path, record);
  const auto pristine = read_all(path);

  // Single flipped payload bit → digest mismatch.
  auto flipped = pristine;
  flipped[flipped.size() - 40] ^= 0x01;
  write_all(path, flipped);
  ReadStatus status = ReadStatus::kOk;
  EXPECT_FALSE(read_record(path, &status).has_value());
  EXPECT_EQ(status, ReadStatus::kCorrupt);

  // Truncation (torn write) → corrupt, not a crash.
  auto truncated = pristine;
  truncated.resize(truncated.size() / 2);
  write_all(path, truncated);
  EXPECT_FALSE(read_record(path, &status).has_value());
  EXPECT_EQ(status, ReadStatus::kCorrupt);

  // Wrong magic → corrupt.
  auto wrong_magic = pristine;
  wrong_magic[0] = 'X';
  write_all(path, wrong_magic);
  EXPECT_FALSE(read_record(path, &status).has_value());
  EXPECT_EQ(status, ReadStatus::kCorrupt);

  // Missing file reports kMissing.
  fs::remove(path);
  EXPECT_FALSE(read_record(path, &status).has_value());
  EXPECT_EQ(status, ReadStatus::kMissing);
}

TEST_F(WarmStartStoreTest, FormatVersionGate) {
  fs::create_directories(dir_);
  Record record;
  record.key = make_key(3);
  record.payload = {5, 6};
  const std::string path = (fs::path(dir_) / "r.l0").string();
  write_record(path, record);

  auto bytes = read_all(path);
  ASSERT_EQ(bytes[8], kFormatVersion);  // u32 LE version after 8-byte magic
  bytes[8] = kFormatVersion + 1;

  // Version bumped but digest stale → corruption wins over the version gate.
  write_all(path, bytes);
  ReadStatus status = ReadStatus::kOk;
  EXPECT_FALSE(read_record(path, &status).has_value());
  EXPECT_EQ(status, ReadStatus::kCorrupt);

  // Re-signed foreign version → clean kVersionMismatch.
  resign(bytes);
  write_all(path, bytes);
  EXPECT_FALSE(read_record(path, &status).has_value());
  EXPECT_EQ(status, ReadStatus::kVersionMismatch);
}

TEST_F(WarmStartStoreTest, TourRoundTrip) {
  WarmStartStore store(dir_);
  const std::string key = make_key(4);
  EXPECT_FALSE(store.load_tour(key, 8).has_value());
  EXPECT_EQ(store.stats().misses, 1U);

  const auto order = make_order(8, 3);
  store.store_tour(key, order, 1000);
  const auto back = store.load_tour(key, 8);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, order);
  EXPECT_EQ(store.stats().hits, 1U);
  EXPECT_EQ(store.stats().stores, 1U);

  // A second store instance sees the persisted record.
  WarmStartStore reopened(dir_);
  EXPECT_TRUE(reopened.load_tour(key, 8).has_value());
}

TEST_F(WarmStartStoreTest, KeepsBetterScore) {
  WarmStartStore store(dir_);
  const std::string key = make_key(5);
  const auto best = make_order(6, 1);
  store.store_tour(key, best, 100);
  store.store_tour(key, make_order(6, 2), 150);  // worse → kept
  EXPECT_EQ(store.stats().kept, 1U);
  EXPECT_EQ(*store.load_tour(key, 6), best);

  const auto improved = make_order(6, 4);
  store.store_tour(key, improved, 90);  // better → replaces
  EXPECT_EQ(store.stats().stores, 2U);
  EXPECT_EQ(*store.load_tour(key, 6), improved);
}

TEST_F(WarmStartStoreTest, CorruptEntryDegradesToColdStart) {
  WarmStartStore store(dir_);
  const std::string key = make_key(6);
  store.store_tour(key, make_order(8, 0), 50);

  const std::string path = path_of(dir_, key, 0);
  auto bytes = read_all(path);
  bytes[bytes.size() - 8] ^= 0xFF;
  write_all(path, bytes);

  EXPECT_FALSE(store.load_tour(key, 8).has_value());
  EXPECT_EQ(store.stats().dropped, 1U);
  EXPECT_FALSE(fs::exists(path)) << "corrupt record must be removed";

  // The healed slot accepts a fresh store.
  store.store_tour(key, make_order(8, 2), 60);
  EXPECT_TRUE(store.load_tour(key, 8).has_value());
}

TEST_F(WarmStartStoreTest, VersionMismatchDegradesToColdStart) {
  WarmStartStore store(dir_);
  const std::string key = make_key(7);
  store.store_tour(key, make_order(8, 0), 50);

  const std::string path = path_of(dir_, key, 0);
  auto bytes = read_all(path);
  bytes[8] = kFormatVersion + 3;
  resign(bytes);
  write_all(path, bytes);

  EXPECT_FALSE(store.load_tour(key, 8).has_value());
  EXPECT_EQ(store.stats().dropped, 1U);
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(WarmStartStoreTest, NonPermutationPayloadIsDropped) {
  WarmStartStore store(dir_);
  const std::string key = make_key(8);

  Record record;
  record.kind = RecordKind::kTour;
  record.key = key;
  record.sequence = 1;
  record.score = 10;
  record.payload = {0, 1, 1, 3};  // duplicate city
  write_record(path_of(dir_, key, 0), record);

  EXPECT_FALSE(store.load_tour(key, 4).has_value());
  EXPECT_EQ(store.stats().dropped, 1U);

  // Wrong length for this instance is equally useless.
  record.payload = {0, 1, 2, 3};
  write_record(path_of(dir_, key, 0), record);
  EXPECT_FALSE(store.load_tour(key, 5).has_value());
  EXPECT_EQ(store.stats().dropped, 2U);
}

TEST_F(WarmStartStoreTest, StemCollisionIsAMissNotAWrongAnswer) {
  // Filenames use only a 16-hex prefix of the key, so two keys can share a
  // slot. The record carries the full key and the store verifies it: a
  // foreign record in our slot is a miss, never a wrong answer.
  WarmStartStore store(dir_);
  Record record;
  record.kind = RecordKind::kTour;
  record.key = make_key(9);  // record claims another key...
  record.sequence = 1;
  record.score = 1;
  record.payload = {0, 1, 2, 3};
  const std::string victim = make_key(10);
  write_record(path_of(dir_, victim, 0), record);  // ...at the victim's slot
  EXPECT_FALSE(store.load_tour(victim, 4).has_value());
  EXPECT_EQ(store.stats().misses, 1U);
  EXPECT_EQ(store.stats().dropped, 0U) << "foreign record is left in place";
}

TEST_F(WarmStartStoreTest, LruDemotionPromotionEviction) {
  WarmStartStore store(dir_, /*l0_capacity=*/2, /*l1_capacity=*/2);
  const auto key0 = make_key(20);
  const auto key1 = make_key(21);
  const auto key2 = make_key(22);
  store.store_tour(key0, make_order(4, 0), 10);
  store.store_tour(key1, make_order(4, 1), 11);
  store.store_tour(key2, make_order(4, 2), 12);

  // Oldest entry (key0) demoted to L1.
  EXPECT_EQ(store.stats().demotions, 1U);
  EXPECT_TRUE(fs::exists(path_of(dir_, key0, 1)));
  EXPECT_FALSE(fs::exists(path_of(dir_, key0, 0)));

  // A hit on the demoted entry promotes it back to L0 (displacing key1,
  // now the least recent).
  ASSERT_TRUE(store.load_tour(key0, 4).has_value());
  EXPECT_EQ(store.stats().promotions, 1U);
  EXPECT_TRUE(fs::exists(path_of(dir_, key0, 0)));
  EXPECT_EQ(store.stats().demotions, 2U);
  EXPECT_TRUE(fs::exists(path_of(dir_, key1, 1)));

  // Two more inserts overflow L1 → the least recent cold entry is evicted
  // for good, and every surviving record still loads.
  store.store_tour(make_key(23), make_order(4, 3), 13);
  store.store_tour(make_key(24), make_order(4, 0), 14);
  EXPECT_GE(store.stats().evictions, 1U);
  std::size_t live = 0;
  for (const int i : {20, 21, 22, 23, 24}) {
    WarmStartStore probe(dir_, 2, 2);
    if (probe.load_tour(make_key(i), 4).has_value()) ++live;
  }
  EXPECT_EQ(live, 4U);
}

TEST_F(WarmStartStoreTest, SpinsRoundTripAndValidation) {
  WarmStartStore store(dir_);
  const std::string key = make_key(30);
  const std::vector<std::int8_t> spins = {1, -1, -1, 1, 1};
  store.store_spins(key, spins, 7);
  const auto back = store.load_spins(key, 5);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, spins);

  // A larger cut replaces; a smaller one is kept out.
  store.store_spins(key, std::vector<std::int8_t>(5, 1), 3);
  EXPECT_EQ(store.stats().kept, 1U);
  EXPECT_EQ(*store.load_spins(key, 5), spins);

  // Tours and spins under the same key do not alias.
  EXPECT_FALSE(store.load_tour(key, 5).has_value());

  // Out-of-alphabet spin values are dropped.
  Record record;
  record.kind = RecordKind::kSpins;
  record.key = make_key(31);
  record.sequence = 99;
  record.score = 0;
  record.payload = {1, 0, -1};
  write_record(path_of(dir_, record.key, 0), record);
  EXPECT_FALSE(store.load_spins(record.key, 3).has_value());
  EXPECT_EQ(store.stats().dropped, 1U);
}

TEST_F(WarmStartStoreTest, FailedWritesKeepPreviousRecord) {
  // A write that dies part-way must not destroy the record it replaces.
  // Sweep the file-size limit over every byte offset of the new record,
  // for both an improved store (L0 replaced in place) and a promotion
  // (L1 copy rewritten into L0): after each failed write the old record
  // must still load and no temp file may be left behind. Neither failure
  // throws: each is counted, and the failed promotion's lookup still
  // returns the hit.
  WarmStartStore store(dir_, /*l0_capacity=*/1, /*l1_capacity=*/4);
  const std::string hot = make_key(40);
  const std::string cold = make_key(41);
  const auto cold_order = make_order(8, 5);
  store.store_tour(cold, cold_order, 200);
  const auto hot_order = make_order(8, 1);
  store.store_tour(hot, hot_order, 100);  // demotes `cold` to L1
  ASSERT_TRUE(fs::exists(path_of(dir_, cold, 1)));
  const std::string hot_path = path_of(dir_, hot, 0);
  const auto record_bytes = fs::file_size(hot_path);
  ASSERT_EQ(fs::file_size(path_of(dir_, cold, 1)), record_bytes);

  for (std::uintmax_t limit = 0; limit < record_bytes; ++limit) {
    const std::uint64_t stores_before = store.stats().stores;
    std::uint64_t failures_before = store.stats().write_failures;
    {
      const FileSizeCap cap(static_cast<rlim_t>(limit));
      ASSERT_TRUE(cap.active());
      store.store_tour(hot, make_order(8, 2), 99);
    }
    EXPECT_EQ(store.stats().write_failures, failures_before + 1)
        << "improved store at byte limit " << limit;
    EXPECT_EQ(store.stats().stores, stores_before);
    const auto back = store.load_tour(hot, 8);
    ASSERT_TRUE(back.has_value()) << "L0 record lost at byte limit " << limit;
    EXPECT_EQ(*back, hot_order);
    EXPECT_FALSE(fs::exists(hot_path + ".tmp"));

    failures_before = store.stats().write_failures;
    std::optional<std::vector<tsp::CityId>> promoted;
    {
      const FileSizeCap cap(static_cast<rlim_t>(limit));
      ASSERT_TRUE(cap.active());
      promoted = store.load_tour(cold, 8);
    }
    ASSERT_TRUE(promoted.has_value()) << "promotion at byte limit " << limit;
    EXPECT_EQ(*promoted, cold_order);
    EXPECT_EQ(store.stats().write_failures, failures_before + 1);
    ASSERT_TRUE(fs::exists(path_of(dir_, cold, 1)))
        << "L1 record lost at byte limit " << limit;
    EXPECT_FALSE(fs::exists(path_of(dir_, cold, 0) + ".tmp"));
  }

  // With the limit lifted both writes go through.
  store.store_tour(hot, make_order(8, 2), 99);
  EXPECT_EQ(*store.load_tour(hot, 8), make_order(8, 2));
  EXPECT_EQ(*store.load_tour(cold, 8), cold_order);
  EXPECT_TRUE(fs::exists(path_of(dir_, cold, 0)));
}

TEST_F(WarmStartStoreTest, RejectsNonHexKeys) {
  WarmStartStore store(dir_);
  EXPECT_THROW(store.load_tour("sha256:", 4), ConfigError);
  EXPECT_THROW(store.load_tour("sha256:NOTHEX!", 4), ConfigError);
}

TEST_F(WarmStartStoreTest, SolverWarmStartRoundTrip) {
  const auto inst = cim::test::random_instance(120, 11);
  core::SolverConfig config;
  config.seed = 5;
  config.compute_reference = false;
  config.compute_ppa = false;
  config.warm_start_dir = dir_;

  const auto cold = core::CimSolver(config).solve(inst);
  EXPECT_FALSE(cold.warm_started);
  ASSERT_TRUE(cold.warm_start.has_value());
  EXPECT_EQ(cold.warm_start->stores, 1U);

  const auto warm = core::CimSolver(config).solve(inst);
  EXPECT_TRUE(warm.warm_started);
  ASSERT_TRUE(warm.warm_start.has_value());
  EXPECT_EQ(warm.warm_start->hits, 1U);
  EXPECT_TRUE(warm.anneal.tour.is_valid(120));

  // The stored record always tracks the best score seen so far.
  WarmStartStore probe(dir_);
  const auto stored = probe.load_tour(tsp::instance_fingerprint(inst), 120);
  ASSERT_TRUE(stored.has_value());
  const tsp::Tour stored_tour(*stored);
  EXPECT_LE(stored_tour.length(inst),
            std::max(cold.tour_length, warm.tour_length));

  // The replica ensemble starts from the stored tour too: the warm order
  // moves into the ensemble's base config.
  config.replicas = 2;
  const auto ensemble = core::CimSolver(config).solve(inst);
  EXPECT_TRUE(ensemble.warm_started);
  EXPECT_EQ(ensemble.replica_lengths.size(), 2U);
  EXPECT_TRUE(ensemble.anneal.tour.is_valid(120));
  config.replicas = 1;

  // A perturbed instance has a different fingerprint → cold start again.
  const auto other = cim::test::random_instance(120, 12);
  const auto cross = core::CimSolver(config).solve(other);
  EXPECT_FALSE(cross.warm_started);
}

TEST_F(WarmStartStoreTest, SolverSurvivesCorruptStore) {
  const auto inst = cim::test::random_instance(80, 13);
  core::SolverConfig config;
  config.compute_reference = false;
  config.compute_ppa = false;
  config.warm_start_dir = dir_;
  (void)core::CimSolver(config).solve(inst);

  const std::string key = tsp::instance_fingerprint(inst);
  const std::string path = path_of(dir_, key, 0);
  ASSERT_TRUE(fs::exists(path));
  auto bytes = read_all(path);
  bytes[bytes.size() / 2] ^= 0x10;
  write_all(path, bytes);

  const auto outcome = core::CimSolver(config).solve(inst);
  EXPECT_FALSE(outcome.warm_started);
  ASSERT_TRUE(outcome.warm_start.has_value());
  EXPECT_EQ(outcome.warm_start->dropped, 1U);
  EXPECT_TRUE(outcome.anneal.tour.is_valid(80));
}

TEST_F(WarmStartStoreTest, SolverKeepsAnswerWhenStoreWriteFails) {
  // A store that cannot take the post-solve write (here a zero file-size
  // limit) must not cost the caller the answer: every front door returns
  // its outcome and counts the failed write.
  core::SolverConfig config;
  config.compute_reference = false;
  config.compute_ppa = false;
  config.warm_start_dir = dir_;
  const core::CimSolver solver(config);
  const auto inst = cim::test::random_instance(80, 17);
  const auto problem = ising::random_maxcut(30, 0.2, 0x51, 2);
  const auto model = ising::GenericModel::from_maxcut(problem);
  {
    const FileSizeCap cap(0);
    if (!cap.active()) GTEST_SKIP() << "cannot lower RLIMIT_FSIZE";
    const auto tour = solver.solve(inst);
    EXPECT_TRUE(tour.anneal.tour.is_valid(80));
    ASSERT_TRUE(tour.warm_start.has_value());
    EXPECT_EQ(tour.warm_start->write_failures, 1U);
    EXPECT_EQ(tour.warm_start->stores, 0U);

    const auto cut = solver.solve_maxcut(problem);
    EXPECT_EQ(cut.anneal.spins.size(), problem.size());
    ASSERT_TRUE(cut.warm_start.has_value());
    EXPECT_EQ(cut.warm_start->write_failures, 1U);

    const auto spins = solver.solve_ising(model);
    EXPECT_EQ(spins.anneal.best_spins.size(), model.size());
    ASSERT_TRUE(spins.warm_start.has_value());
    EXPECT_EQ(spins.warm_start->write_failures, 1U);
  }
  for (const auto& entry : fs::directory_iterator(dir_)) {
    ADD_FAILURE() << "left behind: " << entry.path();
  }
  // Nothing was stored: the next solve starts cold and, with the limit
  // lifted, writes its answer.
  const auto again = solver.solve(inst);
  EXPECT_FALSE(again.warm_started);
  ASSERT_TRUE(again.warm_start.has_value());
  EXPECT_EQ(again.warm_start->write_failures, 0U);
  EXPECT_EQ(again.warm_start->stores, 1U);
}

/// Drives one CimSolver entry point through a failed L1 → L0 promotion:
/// a cold solve writes the record, which is then moved to L1; a solve
/// under a zero file-size limit must still warm-start from it (the
/// promotion failure is counted, the L1 record kept), and a later
/// uncapped solve must hit and promote it.
template <typename Solve>
void expect_warm_start_survives_failed_promotion(const std::string& dir,
                                                 const std::string& key,
                                                 const Solve& solve) {
  ASSERT_FALSE(solve().warm_started);
  const std::string cold_path = path_of(dir, key, 1);
  fs::rename(path_of(dir, key, 0), cold_path);
  {
    const FileSizeCap cap(0);
    if (!cap.active()) GTEST_SKIP() << "cannot lower RLIMIT_FSIZE";
    const auto capped = solve();
    EXPECT_TRUE(capped.warm_started);
    ASSERT_TRUE(capped.warm_start.has_value());
    EXPECT_EQ(capped.warm_start->hits, 1U);
    EXPECT_EQ(capped.warm_start->promotions, 0U);
    EXPECT_GE(capped.warm_start->write_failures, 1U);
  }
  EXPECT_TRUE(fs::exists(cold_path));
  EXPECT_FALSE(fs::exists(path_of(dir, key, 0)));
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  const auto later = solve();
  EXPECT_TRUE(later.warm_started);
  ASSERT_TRUE(later.warm_start.has_value());
  EXPECT_EQ(later.warm_start->promotions, 1U);
  EXPECT_EQ(later.warm_start->write_failures, 0U);
}

core::SolverConfig store_only_config(const std::string& dir) {
  core::SolverConfig config;
  config.compute_reference = false;
  config.compute_ppa = false;
  config.warm_start_dir = dir;
  return config;
}

TEST_F(WarmStartStoreTest, TourSolveKeepsWarmStartWhenPromotionFails) {
  const core::CimSolver solver(store_only_config(dir_));
  const auto inst = cim::test::random_instance(80, 19);
  expect_warm_start_survives_failed_promotion(
      dir_, tsp::instance_fingerprint(inst),
      [&] { return solver.solve(inst); });
}

TEST_F(WarmStartStoreTest, MaxCutSolveKeepsWarmStartWhenPromotionFails) {
  const core::CimSolver solver(store_only_config(dir_));
  const auto problem = ising::random_maxcut(30, 0.2, 0x53, 2);
  expect_warm_start_survives_failed_promotion(
      dir_, ising::GenericModel::from_maxcut(problem).fingerprint(),
      [&] { return solver.solve_maxcut(problem); });
}

TEST_F(WarmStartStoreTest, IsingSolveKeepsWarmStartWhenPromotionFails) {
  const core::CimSolver solver(store_only_config(dir_));
  const auto model =
      ising::GenericModel::from_maxcut(ising::random_maxcut(30, 0.2, 0x55, 2));
  expect_warm_start_survives_failed_promotion(
      dir_, model.fingerprint(), [&] { return solver.solve_ising(model); });
}

TEST_F(WarmStartStoreTest, SolverFailsFastOnUnusableStoreDir) {
  // A store directory that cannot be opened is a configuration error,
  // reported before any annealing work.
  { std::ofstream(dir_) << "not a directory"; }
  core::SolverConfig config;
  config.compute_reference = false;
  config.compute_ppa = false;
  config.warm_start_dir = (fs::path(dir_) / "store").string();
  EXPECT_THROW((void)core::CimSolver(config).solve(
                   cim::test::random_instance(40, 3)),
               ConfigError);
}

}  // namespace
}  // namespace cim::store
