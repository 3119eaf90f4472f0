// Kept only because bench/e2e/cimbench.cpp includes this header and
// prints backend(); no kernel in src/ dispatches on an ISA (DESIGN.md §14).
#pragma once

namespace cim::util::simd {

/// Always "none". Exists only for the header line bench/e2e/cimbench.cpp
/// prints.
inline const char* backend() { return "none"; }

}  // namespace cim::util::simd
