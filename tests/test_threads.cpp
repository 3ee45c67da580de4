// Tests for the thread pool and the work-assignment strategies.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "sfcvis/threads/pool.hpp"
#include "sfcvis/threads/schedulers.hpp"

namespace threads = sfcvis::threads;

using threads::Pool;
using threads::StaticRoundRobin;
using threads::WorkQueue;

TEST(PoolTest, RunsJobOnEveryThreadExactlyOnce) {
  Pool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](unsigned tid) { hits[tid].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(PoolTest, SequentialRegionsReuseWorkers) {
  Pool pool(3);
  std::atomic<int> total{0};
  for (int region = 0; region < 50; ++region) {
    pool.run([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(PoolTest, SingleThreadPoolWorks) {
  Pool pool(1);
  int value = 0;
  pool.run([&](unsigned tid) {
    EXPECT_EQ(tid, 0u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(PoolTest, OversubscribedPoolCompletes) {
  // More threads than host cores (the bench sweeps rely on this).
  Pool pool(24);
  std::atomic<int> total{0};
  pool.run([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 24);
}

TEST(PoolTest, ZeroThreadsRejected) { EXPECT_THROW(Pool(0), std::invalid_argument); }

TEST(PoolTest, RunIsABarrier) {
  // All side effects of a region are visible after run() returns.
  Pool pool(8);
  std::vector<int> values(8, 0);
  pool.run([&](unsigned tid) { values[tid] = static_cast<int>(tid) + 1; });
  for (unsigned t = 0; t < 8; ++t) {
    EXPECT_EQ(values[t], static_cast<int>(t) + 1);
  }
}

// ---------------------------------------------------------------------------
// StaticRoundRobin
// ---------------------------------------------------------------------------

TEST(RoundRobin, OwnerCycles) {
  const StaticRoundRobin rr(10, 3);
  const auto order = rr.replay_order();
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t n = 0; n < order.size(); ++n) {
    EXPECT_EQ(order[n].item, n);
  }
  EXPECT_EQ(order[0].tid, 0u);
  EXPECT_EQ(order[1].tid, 1u);
  EXPECT_EQ(order[2].tid, 2u);
  EXPECT_EQ(order[3].tid, 0u);
  EXPECT_EQ(order[9].tid, 0u);
}

TEST(RoundRobin, ItemsForPartitionAllItems) {
  // Thread t's items are t, t+4, t+8, ... in execution order, and the
  // threads together cover every item once.
  const StaticRoundRobin rr(11, 4);
  std::vector<std::vector<std::size_t>> per_thread(4);
  for (const auto& a : rr.replay_order()) {
    EXPECT_EQ(a.tid, a.item % 4);
    per_thread[a.tid].push_back(a.item);
  }
  std::set<std::size_t> all;
  std::size_t count = 0;
  for (unsigned t = 0; t < 4; ++t) {
    for (std::size_t n = 0; n < per_thread[t].size(); ++n) {
      EXPECT_EQ(per_thread[t][n], t + 4 * n);
      all.insert(per_thread[t][n]);
      ++count;
    }
  }
  EXPECT_EQ(count, 11u);
  EXPECT_EQ(all.size(), 11u);
}

TEST(RoundRobin, ReplayOrderIsRoundInterleaved) {
  const StaticRoundRobin rr(5, 2);
  const auto order = rr.replay_order();
  const std::vector<threads::Assignment> expected = {
      {0, 0}, {1, 1}, {2, 0}, {3, 1}, {4, 0}};
  EXPECT_EQ(order, expected);
}

TEST(RoundRobin, ReplayOrderCoversEachItemOnce) {
  const StaticRoundRobin rr(1000, 7);
  const auto order = rr.replay_order();
  ASSERT_EQ(order.size(), 1000u);
  std::vector<bool> seen(1000, false);
  for (const auto& a : order) {
    EXPECT_FALSE(seen[a.item]);
    seen[a.item] = true;
    EXPECT_EQ(a.tid, a.item % 7);
  }
}

TEST(RoundRobin, MoreThreadsThanItems) {
  const StaticRoundRobin rr(2, 8);
  const auto order = rr.replay_order();
  EXPECT_EQ(order.size(), 2u);
  for (const auto& a : order) {
    EXPECT_LT(a.tid, 2u);  // threads 2..7 own nothing
  }
}

// ---------------------------------------------------------------------------
// WorkQueue
// ---------------------------------------------------------------------------

TEST(WorkQueueTest, PopsEachItemOnceSerial) {
  WorkQueue q(5);
  std::vector<std::size_t> items;
  while (auto item = q.pop()) {
    items.push_back(*item);
  }
  EXPECT_EQ(items, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(q.pop().has_value());  // stays drained
}

TEST(WorkQueueTest, ResetRefills) {
  // A queue is one-shot: drained stays drained, and each parallel region
  // starts over with a fresh queue that hands out item 0 first.
  WorkQueue q(2);
  (void)q.pop();
  (void)q.pop();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
  WorkQueue fresh(2);
  EXPECT_EQ(fresh.pop(), std::optional<std::size_t>{0});
}

TEST(WorkQueueTest, ConcurrentPopsAreExactlyOnce) {
  const std::size_t n = 10000;
  WorkQueue q(n);
  Pool pool(8);
  std::vector<std::atomic<int>> claimed(n);
  pool.run([&](unsigned) {
    while (auto item = q.pop()) {
      claimed[*item].fetch_add(1);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(claimed[i].load(), 1) << "item " << i;
  }
}

// ---------------------------------------------------------------------------
// parallel_for helpers
// ---------------------------------------------------------------------------

TEST(ParallelFor, DynamicVisitsAllItems) {
  Pool pool(4);
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> visits(n);
  threads::parallel_for_dynamic(pool, n, [&](std::size_t item, unsigned) {
    visits[item].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1);
  }
}

TEST(ParallelFor, StaticVisitsAllItemsWithOwner) {
  Pool pool(3);
  const std::size_t n = 100;
  std::vector<std::atomic<unsigned>> owner(n);
  std::vector<std::atomic<int>> visits(n);
  threads::parallel_for_static(pool, n, [&](std::size_t item, unsigned tid) {
    owner[item].store(tid);
    visits[item].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1);
    EXPECT_EQ(owner[i].load(), i % 3);
  }
}

TEST(ParallelFor, DynamicLoadBalancesUnevenWork) {
  // With wildly uneven item costs the dynamic queue must spread items
  // across threads rather than leave everything to thread 0.
  Pool pool(4);
  const std::size_t n = 400;
  std::vector<std::atomic<int>> per_thread(4);
  threads::parallel_for_dynamic(pool, n, [&](std::size_t item, unsigned tid) {
    if (item == 0) {
      // one giant item
      volatile double sink = 0;
      for (int s = 0; s < 2000000; ++s) {
        sink = sink + 1.0;
      }
    }
    per_thread[tid].fetch_add(1);
  });
  int total = 0, max_share = 0;
  for (const auto& c : per_thread) {
    total += c.load();
    max_share = std::max(max_share, c.load());
  }
  EXPECT_EQ(total, static_cast<int>(n));
  EXPECT_LT(max_share, static_cast<int>(n));
}

TEST(ParallelFor, ZeroItemsIsANoOp) {
  Pool pool(2);
  int calls = 0;
  std::mutex m;
  threads::parallel_for_dynamic(pool, 0, [&](std::size_t, unsigned) {
    const std::lock_guard lock(m);
    ++calls;
  });
  threads::parallel_for_static(pool, 0, [&](std::size_t, unsigned) {
    const std::lock_guard lock(m);
    ++calls;
  });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForState, VisitsAllItemsWithStaticOwnership) {
  Pool pool(3);
  const std::size_t n = 100;
  std::vector<std::atomic<unsigned>> owner(n);
  std::vector<std::atomic<int>> visits(n);
  threads::parallel_for_static_state(
      pool, n, [](unsigned tid) { return tid; },
      [&](unsigned& state, std::size_t item, unsigned tid) {
        EXPECT_EQ(state, tid);
        owner[item].store(tid);
        visits[item].fetch_add(1);
      });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1);
    EXPECT_EQ(owner[i].load(), i % 3);
  }
}

TEST(ParallelForState, MakeRunsOncePerActiveWorker) {
  Pool pool(4);
  std::atomic<int> makes{0};
  std::vector<std::atomic<int>> per_state_items(4);
  threads::parallel_for_static_state(
      pool, 50,
      [&](unsigned tid) {
        makes.fetch_add(1);
        return tid;
      },
      [&](unsigned& state, std::size_t, unsigned) {
        per_state_items[state].fetch_add(1);
      });
  EXPECT_EQ(makes.load(), 4);
  int total = 0;
  for (const auto& c : per_state_items) {
    total += c.load();
  }
  EXPECT_EQ(total, 50);
}

TEST(ParallelForState, IdleWorkersConstructNoState) {
  // 6 workers, 2 items: only workers 0 and 1 own items; the rest must not
  // pay for (possibly expensive) scratch construction.
  Pool pool(6);
  std::atomic<int> makes{0};
  std::vector<std::atomic<int>> visits(2);
  threads::parallel_for_static_state(
      pool, 2,
      [&](unsigned tid) {
        makes.fetch_add(1);
        return tid;
      },
      [&](unsigned&, std::size_t item, unsigned) { visits[item].fetch_add(1); });
  EXPECT_EQ(makes.load(), 2);
  EXPECT_EQ(visits[0].load(), 1);
  EXPECT_EQ(visits[1].load(), 1);
}

TEST(ParallelForState, StatePersistsAcrossItemsOfOneWorker) {
  // Each worker's state accumulates its item count; worker t owns the
  // items t, t+3, t+6, ... below n.
  Pool pool(3);
  const std::size_t n = 31;
  std::vector<int> counts(3, -1);
  std::mutex mu;
  threads::parallel_for_static_state(
      pool, n, [](unsigned) { return 0; },
      [&](int& state, std::size_t item, unsigned tid) {
        ++state;
        if (item + 3 >= n) {  // the worker's last item
          const std::lock_guard<std::mutex> lock(mu);
          counts[tid] = state;
        }
      });
  for (unsigned t = 0; t < 3; ++t) {
    EXPECT_EQ(counts[t], static_cast<int>((n - t + 2) / 3));
  }
}
