// The QUBO/Ising front-end parsers (src/qubo/io.hpp): fixture corpus,
// strict-rejection properties, write→parse round-trip identity, and
// deterministic mutation fuzzing. The corpus contract is documented in
// tests/qubo_fixtures/README.md: bad_* must raise ConfigError, the rest
// must parse and round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ising/generic.hpp"
#include "qubo/io.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim {
namespace {

namespace fs = std::filesystem;

const fs::path kFixtureDir = QUBO_FIXTURE_DIR;

std::string slurp(const fs::path& path) {
  std::ifstream stream(path);
  EXPECT_TRUE(stream.good()) << path;
  std::ostringstream text;
  text << stream.rdbuf();
  return text.str();
}

std::vector<fs::path> corpus(const std::string& extension, bool bad) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(kFixtureDir)) {
    const auto name = entry.path().filename().string();
    if (entry.path().extension() != extension) continue;
    if ((name.rfind("bad_", 0) == 0) != bad) continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  EXPECT_FALSE(files.empty()) << extension << " bad=" << bad;
  return files;
}

TEST(QuboFixtures, ValidGsetFilesParseAndRoundTrip) {
  for (const auto& path : corpus(".gset", /*bad=*/false)) {
    SCOPED_TRACE(path.string());
    const auto problem = qubo::load_gset_file(path.string());
    EXPECT_GE(problem.size(), 2U);
    EXPECT_EQ(problem.name(), path.string());

    const std::string canon = qubo::write_gset(problem);
    const auto reparsed = qubo::parse_gset(canon, "round-trip");
    ASSERT_EQ(reparsed.size(), problem.size());
    ASSERT_EQ(reparsed.edge_count(), problem.edge_count());
    for (std::size_t e = 0; e < problem.edge_count(); ++e) {
      EXPECT_EQ(reparsed.edges()[e].a, problem.edges()[e].a);
      EXPECT_EQ(reparsed.edges()[e].b, problem.edges()[e].b);
      EXPECT_EQ(reparsed.edges()[e].w, problem.edges()[e].w);
    }
    // The canonical writer is a fixed point.
    EXPECT_EQ(qubo::write_gset(reparsed), canon);
  }
}

TEST(QuboFixtures, ValidJhFilesParseAndRoundTrip) {
  for (const auto& path : corpus(".jh", /*bad=*/false)) {
    SCOPED_TRACE(path.string());
    const auto model = qubo::load_jh_file(path.string());
    EXPECT_GE(model.size(), 1U);

    const std::string canon = qubo::write_jh(model);
    const auto reparsed = qubo::parse_jh(canon, "round-trip");
    ASSERT_EQ(reparsed.size(), model.size());
    EXPECT_DOUBLE_EQ(reparsed.offset(), model.offset());
    for (ising::SpinIndex i = 0; i < model.size(); ++i) {
      EXPECT_DOUBLE_EQ(reparsed.field(i), model.field(i));
    }
    ASSERT_EQ(reparsed.coupling_count(), model.coupling_count());
    for (std::size_t c = 0; c < model.coupling_count(); ++c) {
      EXPECT_EQ(reparsed.couplings()[c].a, model.couplings()[c].a);
      EXPECT_EQ(reparsed.couplings()[c].b, model.couplings()[c].b);
      EXPECT_DOUBLE_EQ(reparsed.couplings()[c].j, model.couplings()[c].j);
    }
    // Identical content ⇒ identical fingerprint and canonical text.
    EXPECT_EQ(reparsed.fingerprint(), model.fingerprint());
    EXPECT_EQ(qubo::write_jh(reparsed), canon);
  }
}

TEST(QuboFixtures, BadGsetFilesRaiseConfigError) {
  for (const auto& path : corpus(".gset", /*bad=*/true)) {
    SCOPED_TRACE(path.string());
    EXPECT_THROW(qubo::load_gset_file(path.string()), ConfigError);
  }
}

TEST(QuboFixtures, BadJhFilesRaiseConfigError) {
  for (const auto& path : corpus(".jh", /*bad=*/true)) {
    SCOPED_TRACE(path.string());
    EXPECT_THROW(qubo::load_jh_file(path.string()), ConfigError);
  }
}

TEST(QuboIo, ErrorsCarryTheOffendingLineNumber) {
  // Edge 2 is on line 3 of the text.
  try {
    qubo::parse_gset("3 2\n1 2 1\n2 2 1\n");
    FAIL() << "self-loop must be rejected";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

TEST(QuboIo, MissingFileRaisesTypedError) {
  EXPECT_THROW(qubo::load_gset_file("/nonexistent/x.gset"), Error);
  EXPECT_THROW(qubo::load_jh_file("/nonexistent/x.jh"), Error);
}

TEST(QuboIo, EmptyInputsAreRejected) {
  EXPECT_THROW(qubo::parse_gset(""), ConfigError);
  EXPECT_THROW(qubo::parse_jh(""), ConfigError);
  EXPECT_THROW(qubo::parse_jh("# only a comment\n"), ConfigError);
}

TEST(QuboIo, JhCommentsAndBlankLinesAreIgnored) {
  const auto model = qubo::parse_jh(
      "# header comment\n\n2 1   # trailing comment\n\n0 1 -3.5\n");
  EXPECT_EQ(model.size(), 2U);
  ASSERT_EQ(model.coupling_count(), 1U);
  EXPECT_DOUBLE_EQ(model.couplings()[0].j, -3.5);
}

TEST(QuboIo, GsetRejectsIntegerOverflowInEveryField) {
  EXPECT_THROW(qubo::parse_gset("99999999999 0\n"), ConfigError);
  EXPECT_THROW(qubo::parse_gset("3 99999999999\n"), ConfigError);
  EXPECT_THROW(qubo::parse_gset("3 1\n1 2 3000000000\n"), ConfigError);
}

TEST(QuboIo, GsetRejectsWeightWhoseMagnitudeOverflowsInt32) {
  // −2147483648 fits int32 but its magnitude does not; the error names
  // the edge's line, and −2147483647 still parses.
  try {
    qubo::parse_gset("3 2\n2 3 1\n1 2 -2147483648\n");
    FAIL() << "weight -2147483648 must be rejected";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
  EXPECT_NO_THROW(qubo::parse_gset("3 1\n1 2 -2147483647\n"));
}

TEST(QuboIo, JhWriterEmitsParseableDoublesAtFullPrecision) {
  ising::GenericModel model("precision", 3);
  model.add_coupling(0, 1, 1.0 / 3.0);
  model.add_field(2, -0.1234567890123456789);
  model.add_offset(1e-300);
  const auto reparsed = qubo::parse_jh(qubo::write_jh(model));
  EXPECT_DOUBLE_EQ(reparsed.couplings()[0].j, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(reparsed.field(2), -0.1234567890123456789);
  EXPECT_DOUBLE_EQ(reparsed.offset(), 1e-300);
}

/// Applies `count` random single-character mutations (same idiom as
/// tests/test_fuzz_robustness.cpp).
std::string mutate(const std::string& base, util::Rng& rng,
                   std::size_t count) {
  std::string text = base;
  for (std::size_t m = 0; m < count && !text.empty(); ++m) {
    const std::size_t pos = rng.below(text.size());
    switch (rng.below(3)) {
      case 0:
        text[pos] = static_cast<char>(rng.range(32, 126));
        break;
      case 1:
        text.erase(pos, 1);
        break;
      default:
        text.insert(pos, 1, static_cast<char>(rng.range(32, 126)));
    }
  }
  return text;
}

TEST(QuboFuzz, GsetParserNeverEscapesTypedErrors) {
  const std::string valid = slurp(kFixtureDir / "petersen.gset");
  util::Rng rng(0xBEE1);
  std::size_t parsed_ok = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const auto text = mutate(valid, rng, 1 + rng.below(8));
    try {
      const auto problem = qubo::parse_gset(text, "fuzz");
      // A parse that succeeds must be internally consistent.
      EXPECT_GE(problem.size(), 2U);
      for (const auto& e : problem.edges()) {
        EXPECT_LT(e.a, problem.size());
        EXPECT_LT(e.b, problem.size());
        EXPECT_NE(e.a, e.b);
      }
      ++parsed_ok;
    } catch (const Error&) {
      // Typed rejection is the expected outcome for most mutations.
    }
  }
  EXPECT_GT(parsed_ok, 0U);
}

TEST(QuboFuzz, JhParserNeverEscapesTypedErrors) {
  const std::string valid = slurp(kFixtureDir / "chain4.jh");
  util::Rng rng(0xBEE2);
  std::size_t parsed_ok = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const auto text = mutate(valid, rng, 1 + rng.below(8));
    try {
      const auto model = qubo::parse_jh(text, "fuzz");
      EXPECT_GE(model.size(), 1U);
      for (const auto& c : model.couplings()) {
        EXPECT_LT(c.a, c.b);
        EXPECT_LT(c.b, model.size());
      }
      ++parsed_ok;
    } catch (const Error&) {
    }
  }
  EXPECT_GT(parsed_ok, 0U);
}

TEST(QuboFuzz, RandomModelsRoundTripThroughJhText) {
  util::Rng rng(0xBEE3);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.below(12);
    ising::GenericModel model("rt", n);
    const std::size_t terms = rng.below(2 * n + 1);
    for (std::size_t t = 0; t < terms; ++t) {
      const auto i = static_cast<ising::SpinIndex>(rng.below(n));
      const auto j = static_cast<ising::SpinIndex>(rng.below(n));
      const double value = rng.uniform(-8.0, 8.0);
      if (i == j) {
        model.add_field(i, value);
      } else {
        model.add_coupling(i, j, value);
      }
    }
    if (rng.chance(0.5)) model.add_offset(rng.uniform(-10.0, 10.0));
    const auto reparsed = qubo::parse_jh(qubo::write_jh(model), "rt");
    EXPECT_EQ(reparsed.fingerprint(), model.fingerprint());
  }
}

}  // namespace
}  // namespace cim
