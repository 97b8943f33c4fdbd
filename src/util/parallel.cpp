#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace figret::util {
namespace {

/// One parallel_for in flight: workers grab indices with fetch_add so load
/// imbalance (e.g. LP solves of varying pivot counts) self-balances.
struct LoopState {
  std::size_t end = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> active_workers{0};
  std::atomic<bool> has_error{false};
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex; read after join

  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      if (has_error.load(std::memory_order_relaxed))
        return;  // fail fast; remaining indices are abandoned
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        has_error.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
};

/// How long an idle worker polls for the next loop before it sleeps. A
/// caller that issues loops back to back (a training step issues dozens,
/// each a millisecond or less) then finds the workers awake: waking a
/// sleeping one costs more than such a loop's whole share of work.
constexpr std::chrono::microseconds kSpin{2000};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wake;    // workers wait for a loop (or shutdown)
  std::condition_variable done;    // parallel_for waits for workers to drain
  LoopState* loop = nullptr;       // non-null while a loop is being executed
  // Bumped (under the mutex) when a loop is published; also polled without
  // it by idle workers, as is `shutdown`.
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> shutdown{false};
  std::vector<std::thread> workers;

  void worker_main() {
    std::uint64_t seen = 0;
    for (;;) {
      const auto until = std::chrono::steady_clock::now() + kSpin;
      while (generation.load(std::memory_order_acquire) == seen &&
             !shutdown.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < until)
        cpu_relax();
      LoopState* current = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
        current = loop;
        if (current == nullptr) continue;
        current->active_workers.fetch_add(1, std::memory_order_relaxed);
      }
      current->run();
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (current->active_workers.fetch_sub(
                1, std::memory_order_acq_rel) == 1)
          done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : impl_(new Impl), size_(threads == 0 ? 1 : threads) {
  impl_->workers.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->wake.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  LoopState state;
  state.end = end;
  state.fn = &fn;
  state.next.store(begin, std::memory_order_relaxed);

  if (!impl_->workers.empty()) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->loop = &state;
    ++impl_->generation;
    impl_->wake.notify_all();
  }

  state.run();  // the calling thread always participates

  if (!impl_->workers.empty()) {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->loop = nullptr;  // late wakers see null and go back to sleep
    impl_->done.wait(lock, [&] {
      return state.active_workers.load(std::memory_order_acquire) == 0;
    });
  }
  // Workers are drained (or never started), so the unsynchronized read of
  // `error` is safe here.
  if (state.has_error.load(std::memory_order_acquire))
    std::rethrow_exception(state.error);
}

std::size_t default_threads() {
  if (const char* env = std::getenv("FIGRET_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0)
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_threads());
  return pool;
}

namespace {

/// Pools for explicitly requested widths, created once and reused — a
/// Harness with Options.threads = N issues several fan-outs per evaluation,
/// and spawning/joining N-1 OS threads each time would swamp cheap loops.
ThreadPool& pool_of_width(std::size_t width) {
  static std::mutex mutex;
  static std::map<std::size_t, std::unique_ptr<ThreadPool>> pools;
  std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<ThreadPool>& pool = pools[width];
  if (!pool) pool = std::make_unique<ThreadPool>(width);
  return *pool;
}

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (threads == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  if (threads == 0) {
    global_pool().parallel_for(begin, end, fn);
    return;
  }
  pool_of_width(threads).parallel_for(begin, end, fn);
}

void parallel_for_ranges(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t per = chunk == 0 ? 1 : chunk;
  if (n <= per) {  // one range: no pool round trip
    if (n > 0) fn(0, n);
    return;
  }
  parallel_for(0, (n + per - 1) / per, [&](std::size_t c) {
    fn(c * per, std::min(n, (c + 1) * per));
  });
}

}  // namespace figret::util
