// Deterministic chunked loops over ThreadPool.
//
// The determinism contract (DESIGN.md §11): chunk boundaries are a pure
// function of (n, grain) — never of the pool width, the worker count, or
// which thread claims which chunk. A body that writes only its own
// chunk's slots therefore produces bit-identical results on 1, 2 or 64
// workers.
//
// When the loop is too small to split (n <= grain) or the pool has no
// workers, the body runs inline on the caller in index order; no pool —
// and in particular no lazily-created shared pool thread — is touched,
// so serial workloads stay thread-free.
#pragma once

#include <cstddef>

#include "util/thread_pool.hpp"

namespace cim::util {

/// Number of chunks [0, n) splits into at the given grain. Pure function
/// of (n, grain) — the anchor of the determinism contract.
constexpr std::size_t parallel_chunk_count(std::size_t n, std::size_t grain) {
  const std::size_t g = grain > 0 ? grain : 1;
  return (n + g - 1) / g;
}

/// Invokes body(begin, end) over consecutive chunks of [0, n) of at most
/// `grain` indices. Chunks run concurrently on `pool`; a single chunk
/// runs inline.
template <typename Body>
void parallel_for_chunks(ThreadPool& pool, std::size_t n, std::size_t grain,
                         const Body& body) {
  const std::size_t g = grain > 0 ? grain : 1;
  const std::size_t chunks = parallel_chunk_count(n, g);
  if (chunks <= 1) {
    if (n > 0) body(std::size_t{0}, n);
    return;
  }
  pool.run(chunks, [g, n, &body](std::size_t c) {
    const std::size_t begin = c * g;
    body(begin, begin + g < n ? begin + g : n);
  });
}

/// Chunked loop on the shared pool — but fully inline (shared pool never
/// constructed) when the loop is too small to split.
template <typename Body>
void parallel_for_chunks(std::size_t n, std::size_t grain, const Body& body) {
  const std::size_t g = grain > 0 ? grain : 1;
  if (parallel_chunk_count(n, g) <= 1) {
    if (n > 0) body(std::size_t{0}, n);
    return;
  }
  parallel_for_chunks(ThreadPool::shared(), n, g, body);
}

}  // namespace cim::util
