#include "qubo/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace cim::qubo {

namespace {

struct Line {
  std::size_t number = 0;  ///< 1-based line number in the source text
  std::vector<std::string> tokens;
};

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ConfigError("line " + std::to_string(line) + ": " + what);
}

/// Splits into whitespace-token lines; '#' starts a comment when
/// `comments` is allowed; blank/comment-only lines are dropped but keep
/// the numbering of the survivors.
std::vector<Line> tokenize(const std::string& text, bool comments) {
  std::vector<Line> lines;
  std::size_t number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t stop = text.find('\n', start);
    if (stop == std::string::npos) stop = text.size();
    std::string raw = text.substr(start, stop - start);
    ++number;
    start = stop + 1;
    if (comments) {
      const std::size_t hash = raw.find('#');
      if (hash != std::string::npos) raw.resize(hash);
    }
    Line line;
    line.number = number;
    std::istringstream stream(raw);
    std::string token;
    while (stream >> token) line.tokens.push_back(std::move(token));
    if (!line.tokens.empty()) lines.push_back(std::move(line));
    if (stop == text.size()) break;
  }
  return lines;
}

/// Strict integer: the whole token must parse and fit [lo, hi].
long long parse_int(const std::string& token, std::size_t line,
                    const char* what, long long lo, long long hi) {
  long long value = 0;
  const auto [end, err] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (err != std::errc{} || end != token.data() + token.size()) {
    fail(line, std::string(what) + " '" + token + "' is not an integer" +
                   (err == std::errc::result_out_of_range
                        ? " in range (overflow)"
                        : ""));
  }
  if (value < lo || value > hi) {
    fail(line, std::string(what) + " " + token + " out of range [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

/// Strict finite double: the whole token must parse.
double parse_double(const std::string& token, std::size_t line,
                    const char* what) {
  double value = 0.0;
  const auto [end, err] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (err != std::errc{} || end != token.data() + token.size() ||
      !std::isfinite(value)) {
    fail(line, std::string(what) + " '" + token + "' is not a finite number");
  }
  return value;
}

std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string read_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) throw Error("cannot open file: " + path);
  std::ostringstream content;
  content << stream.rdbuf();
  if (!stream.good() && !stream.eof()) {
    throw Error("error while reading file: " + path);
  }
  return content.str();
}

}  // namespace

ising::MaxCutProblem parse_gset(const std::string& text,
                                const std::string& name) {
  const auto lines = tokenize(text, /*comments=*/false);
  CIM_REQUIRE(!lines.empty(), "gset: empty input");
  const Line& header = lines.front();
  if (header.tokens.size() != 2) {
    fail(header.number, "gset header must be '<n_vertices> <n_edges>'");
  }
  const long long n = parse_int(header.tokens[0], header.number,
                                "vertex count", 2,
                                std::numeric_limits<std::int32_t>::max());
  const long long m =
      parse_int(header.tokens[1], header.number, "edge count", 0,
                std::numeric_limits<std::int32_t>::max());

  if (lines.size() - 1 < static_cast<std::size_t>(m)) {
    fail(lines.back().number,
         "truncated: header declares " + std::to_string(m) + " edges, got " +
             std::to_string(lines.size() - 1));
  }
  if (lines.size() - 1 > static_cast<std::size_t>(m)) {
    fail(lines[1 + static_cast<std::size_t>(m)].number,
         "trailing data after the declared " + std::to_string(m) + " edges");
  }

  std::vector<ising::WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  std::set<std::pair<long long, long long>> seen;
  for (std::size_t k = 1; k < lines.size(); ++k) {
    const Line& line = lines[k];
    if (line.tokens.size() != 3) {
      fail(line.number, "edge line must be '<a> <b> <weight>'");
    }
    const long long a =
        parse_int(line.tokens[0], line.number, "edge endpoint", 1, n);
    const long long b =
        parse_int(line.tokens[1], line.number, "edge endpoint", 1, n);
    if (a == b) fail(line.number, "self-loop on vertex " + line.tokens[0]);
    const long long w =
        parse_int(line.tokens[2], line.number, "edge weight",
                  -std::numeric_limits<std::int32_t>::max(),
                  std::numeric_limits<std::int32_t>::max());
    if (w == 0) fail(line.number, "zero-weight edge must be omitted");
    const auto pair = std::minmax(a, b);
    if (!seen.insert({pair.first, pair.second}).second) {
      fail(line.number,
           "duplicate edge (" + line.tokens[0] + ", " + line.tokens[1] + ")");
    }
    edges.push_back({static_cast<ising::SpinIndex>(a - 1),
                     static_cast<ising::SpinIndex>(b - 1),
                     static_cast<std::int32_t>(w)});
  }
  return ising::MaxCutProblem(name, static_cast<std::size_t>(n),
                              std::move(edges));
}

std::string write_gset(const ising::MaxCutProblem& problem) {
  std::string out = std::to_string(problem.size()) + " " +
                    std::to_string(problem.edge_count()) + "\n";
  for (const ising::WeightedEdge& e : problem.edges()) {
    out += std::to_string(e.a + 1) + " " + std::to_string(e.b + 1) + " " +
           std::to_string(e.w) + "\n";
  }
  return out;
}

ising::GenericModel parse_jh(const std::string& text,
                             const std::string& name) {
  const auto lines = tokenize(text, /*comments=*/true);
  CIM_REQUIRE(!lines.empty(), "jh: empty input");
  const Line& header = lines.front();
  if (header.tokens.size() != 2) {
    fail(header.number, "jh header must be '<n_spins> <n_terms>'");
  }
  const long long n = parse_int(header.tokens[0], header.number,
                                "spin count", 1,
                                std::numeric_limits<std::int32_t>::max());
  const long long m =
      parse_int(header.tokens[1], header.number, "term count", 0,
                std::numeric_limits<std::int32_t>::max());

  ising::GenericModel model(name, static_cast<std::size_t>(n));
  bool saw_offset = false;
  long long terms = 0;
  std::set<std::pair<long long, long long>> seen;
  for (std::size_t k = 1; k < lines.size(); ++k) {
    const Line& line = lines[k];
    if (line.tokens[0] == "offset") {
      if (line.tokens.size() != 2) {
        fail(line.number, "offset line must be 'offset <value>'");
      }
      if (saw_offset) fail(line.number, "duplicate offset line");
      saw_offset = true;
      model.add_offset(parse_double(line.tokens[1], line.number, "offset"));
      continue;
    }
    if (line.tokens.size() != 3) {
      fail(line.number, "term line must be '<i> <j> <value>'");
    }
    ++terms;
    if (terms > m) {
      fail(line.number,
           "trailing data after the declared " + std::to_string(m) +
               " terms");
    }
    const long long i =
        parse_int(line.tokens[0], line.number, "spin index", 0, n - 1);
    const long long j =
        parse_int(line.tokens[1], line.number, "spin index", 0, n - 1);
    const double value =
        parse_double(line.tokens[2], line.number, "coefficient");
    const auto pair = std::minmax(i, j);
    if (!seen.insert({pair.first, pair.second}).second) {
      fail(line.number, "duplicate term (" + line.tokens[0] + ", " +
                            line.tokens[1] + ")");
    }
    if (i == j) {
      model.add_field(static_cast<ising::SpinIndex>(i), value);
    } else {
      model.add_coupling(static_cast<ising::SpinIndex>(i),
                         static_cast<ising::SpinIndex>(j), value);
    }
  }
  if (terms < m) {
    fail(lines.back().number,
         "truncated: header declares " + std::to_string(m) + " terms, got " +
             std::to_string(terms));
  }
  return model;
}

std::string write_jh(const ising::GenericModel& model) {
  std::size_t terms = model.coupling_count();
  for (const double h : model.fields()) {
    if (h != 0.0) ++terms;  // NOLINT(unit-float-eq) structural zero
  }
  std::string out = std::to_string(model.size()) + " " +
                    std::to_string(terms) + "\n";
  if (model.offset() != 0.0) {  // NOLINT(unit-float-eq) structural zero
    out += "offset " + format_double(model.offset()) + "\n";
  }
  for (ising::SpinIndex i = 0; i < model.size(); ++i) {
    const double h = model.field(i);
    if (h == 0.0) continue;  // NOLINT(unit-float-eq) structural zero
    out += std::to_string(i) + " " + std::to_string(i) + " " +
           format_double(h) + "\n";
  }
  for (const ising::GenericModel::Coupling& c : model.couplings()) {
    out += std::to_string(c.a) + " " + std::to_string(c.b) + " " +
           format_double(c.j) + "\n";
  }
  return out;
}

ising::MaxCutProblem load_gset_file(const std::string& path) {
  return parse_gset(read_file(path), path);
}

ising::GenericModel load_jh_file(const std::string& path) {
  return parse_jh(read_file(path), path);
}

}  // namespace cim::qubo
