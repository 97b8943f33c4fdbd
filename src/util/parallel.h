// Shared-memory parallelism for the evaluation and training hot paths: a
// fixed-size thread pool plus a deterministic parallel_for.
//
// Determinism contract: parallel_for(begin, end, fn) calls fn(i) exactly once
// per index, and callers write result i into slot i of a preallocated output.
// The schedule (which thread runs which index) is unspecified, but because no
// index's result depends on another's, the assembled output is bit-identical
// to a serial loop — the property Harness tests assert.
//
// Thread count resolution (first match wins):
//   1. an explicit `threads` argument > 0;
//   2. the FIGRET_THREADS environment variable;
//   3. std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <functional>

namespace figret::util {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread participates in every
  /// parallel_for, so `threads == 1` means a pool with no workers).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width including the calling thread.
  std::size_t size() const noexcept { return size_; }

  /// Runs fn(i) once for every i in [begin, end), blocking until all calls
  /// return. The calling thread works too. The first exception thrown by any
  /// fn(i) is rethrown here (remaining indices may be skipped).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_;
  std::size_t size_;
};

/// Resolved default width: FIGRET_THREADS or hardware_concurrency (>= 1).
std::size_t default_threads();

/// Process-wide pool of default_threads() width, created on first use.
ThreadPool& global_pool();

/// Convenience entry point used by the Harness and benches: `threads == 0`
/// uses the global pool; `threads == 1` runs the loop inline with no pool
/// involvement (the serial reference mode); otherwise a process-wide cached
/// pool of the requested width is used (created on first request).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

/// Cuts [0, n) into ranges of `chunk` items (the last one shorter; chunk 0
/// counts as 1) and runs fn(begin, end) once per range on the global pool.
/// The cut depends only on n and chunk, never on the pool width, so a caller
/// whose ranges write disjoint outputs gets the same result at any width.
void parallel_for_ranges(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace figret::util
