// exec::ExecutionContext: dispatch coverage, curve decomposition and the
// structure cache — the contract every migrated kernel driver leans on.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/exec/structure_cache.hpp"
#include "sfcvis/exec/trace_session.hpp"
#include "sfcvis/trace/export.hpp"

namespace {

using namespace sfcvis;
using exec::Backend;
using exec::ExecutionContext;

TEST(Backend, ToStringAndParseRoundTrip) {
  EXPECT_STREQ(exec::to_string(Backend::kPool), "pool");
}

TEST(ExecutionContextTest, ResolvesThreadCount) {
  ExecutionContext three(3);
  EXPECT_EQ(three.size(), 3U);
  ExecutionContext def(0);
  EXPECT_GE(def.size(), 1U);
}

TEST(ExecutionContextTest, DynamicDispatchCoversEveryItemOnce) {
  ExecutionContext ctx(4);
  const std::size_t n = 777;
  std::vector<std::atomic<int>> counts(n);
  ctx.parallel_dynamic(n, [&](std::size_t item, unsigned tid) {
    ASSERT_LT(tid, ctx.size());
    counts[item].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "item " << i;
  }
}

TEST(ExecutionContextTest, StaticStateMakesAtMostOneStatePerWorker) {
  ExecutionContext ctx(3);
  std::atomic<int> makes{0};
  const std::size_t n = 256;
  std::vector<std::atomic<int>> counts(n);
  ctx.parallel_static_state(
      n,
      [&](unsigned tid) {
        makes.fetch_add(1, std::memory_order_relaxed);
        return static_cast<int>(tid);
      },
      [&](int& state, std::size_t item, unsigned tid) {
        EXPECT_EQ(state, static_cast<int>(tid));
        counts[item].fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_GE(makes.load(), 1);
  EXPECT_LE(makes.load(), static_cast<int>(ctx.size()));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "item " << i;
  }
}

TEST(ExecutionContextTest, CurveChunksScalesWithPaddingRatio) {
  ExecutionContext ctx(3);
  // Unpadded curve: 8 chunks per thread.
  EXPECT_EQ(ctx.curve_chunks(1000, 1000), 24U);
  // Half the padded curve is holes: twice the chunks keeps the *logical*
  // work per chunk on target.
  EXPECT_EQ(ctx.curve_chunks(1000, 2000), 48U);
  // Degenerate inputs clamp to at least one chunk.
  EXPECT_EQ(ctx.curve_chunks(1, 0), 1U);
  EXPECT_GE(ctx.curve_chunks(0, 64), 1U);
}

TEST(ExecutionContextTest, AffinityRequestIsRecorded) {
  ExecutionContext ctx(2, threads::Affinity::kCompact);
  EXPECT_EQ(ctx.affinity(), threads::Affinity::kCompact);
  std::atomic<int> ran{0};
  ctx.parallel_dynamic(8, [&](std::size_t, unsigned) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
  // Pinning may legitimately fail (cgroup restrictions); the accessor must
  // simply be callable and stable once the pool exists.
  const bool applied = ctx.affinity_applied();
  EXPECT_EQ(ctx.affinity_applied(), applied);
}

TEST(StructureCacheTest, HitsMissesAndInvalidate) {
  exec::StructureCache cache;
  int builds = 0;
  const int owner_a = 0, owner_b = 0;
  const auto build = [&] {
    ++builds;
    return 42;
  };
  const auto first = cache.get_or_build<int>(&owner_a, 7, build);
  EXPECT_EQ(*first, 42);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.misses(), 1U);
  EXPECT_EQ(cache.hits(), 0U);

  const auto again = cache.get_or_build<int>(&owner_a, 7, build);
  EXPECT_EQ(again.get(), first.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.hits(), 1U);

  // Different parameter key or owner → separate entries.
  (void)cache.get_or_build<int>(&owner_a, 8, build);
  (void)cache.get_or_build<int>(&owner_b, 7, build);
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(cache.size(), 3U);

  cache.invalidate(&owner_a);
  EXPECT_EQ(cache.size(), 1U);
  // Outstanding shared_ptrs survive invalidation.
  EXPECT_EQ(*first, 42);
  (void)cache.get_or_build<int>(&owner_a, 7, build);
  EXPECT_EQ(builds, 4);

  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
}

TEST(StructureCacheTest, DistinguishesTypesUnderOneKey) {
  exec::StructureCache cache;
  const int owner = 0;
  const auto as_int = cache.get_or_build<int>(&owner, 1, [] { return 5; });
  const auto as_double = cache.get_or_build<double>(&owner, 1, [] { return 2.5; });
  EXPECT_EQ(*as_int, 5);
  EXPECT_EQ(*as_double, 2.5);
  EXPECT_EQ(cache.size(), 2U);
}

// ---------------------------------------------------------------------------
// TraceSession abnormal-exit flush: a run that dies with a report pending
// must still leave a valid run report on disk (atexit hook + best-effort
// signal handlers, src/sfcvis/exec/trace_session.cpp).
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define SFCVIS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SFCVIS_TSAN 1
#endif
#endif
#ifndef SFCVIS_TSAN
#define SFCVIS_TSAN 0
#endif

// No pid in the name: the threadsafe death-test child re-execs the binary
// and recomputes this path, so it must agree with the parent's.
std::string flush_report_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("sfcvis_test_flush_" + std::string(tag) + ".json"))
      .string();
}

/// The child's half of a death test: open a session and die without
/// calling finish().
[[noreturn]] void die_with_pending_report(const std::string& path, int signo) {
  exec::TraceSession session("", path, false);
  trace::ReportTable table;
  table.name = "flush_test";
  table.title = "written by the flush hook";
  table.rows = {"r"};
  table.cols = {"c"};
  table.cells = {{1.0}};
  session.add_table(table);
  if (signo == 0) {
    std::exit(0);  // atexit path
  }
  (void)std::raise(signo);  // signal path: handler flushes, then re-raises
  std::abort();             // unreachable
}

void expect_flushed_report(const std::string& path) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path << " was not written by the flush hook";
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"sfcvis_run_report\":3"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flush_test\""), std::string::npos);
  if (std::system("python3 -c 'import json' > /dev/null 2>&1") == 0) {
    const std::string cmd = std::string("python3 \"") + SFCVIS_TOOLS_DIR +
                            "/sfcreport.py\" validate \"" + path + "\"";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(TraceSessionFlush, AtexitWritesPendingReport) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = flush_report_path("atexit");
  std::error_code ec;
  std::filesystem::remove(path, ec);  // no stale file from an earlier run
  EXPECT_EXIT(die_with_pending_report(path, 0), ::testing::ExitedWithCode(0), "");
  expect_flushed_report(path);
}

TEST(TraceSessionFlush, SigtermWritesPendingReportAndDiesBySignal) {
#if SFCVIS_TSAN
  GTEST_SKIP() << "signal-path flush is not TSan-clean by design (best effort)";
#endif
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = flush_report_path("sigterm");
  std::error_code ec;
  std::filesystem::remove(path, ec);  // no stale file from an earlier run
  EXPECT_EXIT(die_with_pending_report(path, SIGTERM),
              ::testing::KilledBySignal(SIGTERM), "");
  expect_flushed_report(path);
}

TEST(TraceSessionFlush, NormalFinishLeavesNothingForTheHooks) {
  // finish() clears the current-session pointer, so a later exit must not
  // rewrite (or double-write) the report. Exercised in-process: finish,
  // delete the file, and verify a manual hook-equivalent has nothing to do.
  const std::string path = flush_report_path("normal");
  {
    exec::TraceSession session("", path, false);
    session.finish();
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  std::error_code ec;
  std::filesystem::remove(path, ec);
  EXPECT_EQ(exec::TraceSession::current(), nullptr);
}

}  // namespace
