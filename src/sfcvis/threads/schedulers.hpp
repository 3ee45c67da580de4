// Work-assignment strategies from the paper (Sec. III):
//
//  * StaticRoundRobin — the bilateral filter hands out voxel "pencils" to
//    threads in round-robin fashion.
//  * WorkQueue        — the raycaster's best strategy: a dynamic worker
//    pool where each thread pops the next image tile when free.
//
// StaticRoundRobin also provides a *deterministic replay order* used by the
// memsim counter runs: the items paired with their owning simulated thread,
// interleaved round-by-round, so a single real thread can replay the access
// streams that N logical threads would produce. (Dynamic-queue work is
// replayed the same way, assuming uniform progress, as documented in
// DESIGN.md.)
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "sfcvis/threads/pool.hpp"

namespace sfcvis::threads {

/// A work item paired with the thread that executes it; replay order is the
/// order a counter run feeds items through the simulated hierarchy.
struct Assignment {
  std::size_t item = 0;
  unsigned tid = 0;
  friend constexpr bool operator==(const Assignment&, const Assignment&) = default;
};

/// Round-robin static assignment: thread t owns items t, t+T, t+2T, ...
class StaticRoundRobin {
 public:
  StaticRoundRobin(std::size_t num_items, unsigned num_threads)
      : num_items_(num_items), num_threads_(num_threads) {}

  /// Round-by-round interleaved (item, tid) sequence for counter replay.
  [[nodiscard]] std::vector<Assignment> replay_order() const {
    std::vector<Assignment> order;
    order.reserve(num_items_);
    for (std::size_t base = 0; base < num_items_; base += num_threads_) {
      for (unsigned t = 0; t < num_threads_ && base + t < num_items_; ++t) {
        order.push_back(Assignment{base + t, t});
      }
    }
    return order;
  }

 private:
  std::size_t num_items_;
  unsigned num_threads_;
};

/// Dynamic work queue: threads pop the next unclaimed item. Lock-free; the
/// only shared state is one atomic cursor.
class WorkQueue {
 public:
  explicit WorkQueue(std::size_t num_items) : num_items_(num_items) {}

  /// Claims the next item, or nullopt when the queue is drained.
  [[nodiscard]] std::optional<std::size_t> pop() noexcept {
    const std::size_t item = next_.fetch_add(1, std::memory_order_relaxed);
    if (item < num_items_) {
      return item;
    }
    return std::nullopt;
  }

 private:
  std::atomic<std::size_t> next_{0};
  std::size_t num_items_;
};

/// Runs fn(item, tid) over all items on the pool using the dynamic queue
/// (the paper's worker-pool model).
void parallel_for_dynamic(Pool& pool, std::size_t num_items,
                          const std::function<void(std::size_t, unsigned)>& fn);

/// Runs fn(item, tid) over all items on the pool with static round-robin
/// ownership (the paper's pencil assignment).
void parallel_for_static(Pool& pool, std::size_t num_items,
                         const std::function<void(std::size_t, unsigned)>& fn);

/// parallel_for_static with per-worker state: `make(tid)` runs once per
/// worker before its first item — scratch buffers are sized once per
/// parallel region, not once per item — then fn(state, item, tid) runs for
/// the worker's items in execution order. Item ownership is identical to
/// parallel_for_static / StaticRoundRobin; workers with no items never
/// construct a state.
template <class MakeState, class Fn>
void parallel_for_static_state(Pool& pool, std::size_t num_items, MakeState&& make,
                               Fn&& fn) {
  const unsigned num_threads = pool.size();
  pool.run([&, num_threads](unsigned tid) {
    if (tid >= num_items) {
      return;
    }
    auto state = make(tid);
    for (std::size_t item = tid; item < num_items; item += num_threads) {
      fn(state, item, tid);
    }
  });
}

}  // namespace sfcvis::threads
