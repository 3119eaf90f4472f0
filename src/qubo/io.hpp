// Strict loaders for the two on-disk QUBO/Ising instance formats
// (ROADMAP item 3): GSet weighted graphs and sparse J/h coefficient
// files. Both parsers follow the util/json error discipline — every
// malformed, truncated, duplicated or overflowing input raises
// cim::ConfigError with the offending line number; nothing is silently
// repaired or skipped — and both have writers whose output parses back
// to an identical instance (round-trip identity, fuzz-tested).
//
// GSet (the Max-Cut benchmark family's format; 1-based indices):
//
//   <n_vertices> <n_edges>
//   <a> <b> <weight>          one line per edge, a != b, nonzero weight
//                             with |weight| <= 2147483647
//
// Sparse J/h (0-based indices; '#' starts a comment, "offset" optional):
//
//   <n_spins> <n_terms>
//   offset <value>            at most once
//   <i> <i> <h_i>             diagonal term: external field on spin i
//   <i> <j> <J_ij>            off-diagonal term: coupling (i != j)
//
// under E(σ) = offset − Σ J_ij σ_i σ_j − Σ h_i σ_i (ising/generic.hpp).
// Each unordered pair and each field index may appear at most once.
#pragma once

#include <string>

#include "ising/generic.hpp"
#include "ising/maxcut.hpp"

namespace cim::qubo {

/// Parses GSet text. `name` labels the resulting problem.
ising::MaxCutProblem parse_gset(const std::string& text,
                                const std::string& name = "gset");

/// Canonical GSet text; parse_gset(write_gset(p)) is edge-identical.
std::string write_gset(const ising::MaxCutProblem& problem);

/// Parses sparse J/h text into a GenericModel.
ising::GenericModel parse_jh(const std::string& text,
                             const std::string& name = "jh");

/// Canonical J/h text (fields first, couplings in (a, b) order);
/// parse_jh(write_jh(m)) reproduces couplings, fields and offset.
std::string write_jh(const ising::GenericModel& model);

/// File wrappers; throw cim::Error when the file cannot be read. The
/// instance name defaults to the file path.
ising::MaxCutProblem load_gset_file(const std::string& path);
ising::GenericModel load_jh_file(const std::string& path);

}  // namespace cim::qubo
