// Tests for the tracing + metrics subsystem (src/sfcvis/trace): span
// nesting and ordering, ring wraparound accounting, the zero-cost
// disabled path, the reported (never silent) hardware-counter fallback,
// cross-thread metric merging, and both exporters — including a pass
// through the Python validator (tools/sfcreport.py validate), the same
// check CI's trace-smoke job runs.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "sfcvis/threads/pool.hpp"
#include "sfcvis/threads/schedulers.hpp"
#include "sfcvis/trace/export.hpp"
#include "sfcvis/trace/metrics.hpp"
#include "sfcvis/trace/trace.hpp"

namespace threads = sfcvis::threads;
namespace trace = sfcvis::trace;

// GCC pairs the std::free in our replacement operator delete with the
// *default* operator new at some inlined call sites and warns; the
// replacement operator new below allocates with std::malloc, so the
// pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// ---------------------------------------------------------------------------
// Global allocation counter. Replacing operator new is binary-wide, which
// is exactly what the disabled-path test needs: any heap traffic between
// two counter samples is visible. All other tests ignore it.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

const trace::ThreadTrace* thread_with_span(const trace::TraceSnapshot& snap,
                                           const std::string& name) {
  for (const auto& t : snap.threads) {
    for (const auto& s : t.spans) {
      if (name == s.name) {
        return &t;
      }
    }
  }
  return nullptr;
}

// Declared first so it runs before any test enables the tracer when the
// whole binary executes in one process (ctest runs each test in its own
// process, where the precondition holds trivially).
TEST(TraceDisabled, SpansNeitherAllocateNorRegister) {
  ASSERT_FALSE(trace::span_tracing_enabled());
  auto& tracer = trace::Tracer::instance();
  ASSERT_EQ(tracer.registered_threads(), 0u);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t n = 0; n < 1000; ++n) {
    SFCVIS_TRACE_SPAN("test.disabled", "tag", n);
    trace::set_worker_id(0);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(tracer.registered_threads(), 0u);
}

TEST(TraceSpans, NestingOrderingAndDepth) {
  auto& tracer = trace::Tracer::instance();
  tracer.enable(trace::TraceOptions{.ring_capacity = 64, .with_hw_counters = false});
  {
    SFCVIS_TRACE_SPAN("test.outer", "variant", 7);
    SFCVIS_TRACE_SPAN("test.inner", nullptr, 8);
  }
  { SFCVIS_TRACE_SPAN("test.second"); }
  tracer.disable();
  const trace::TraceSnapshot snap = tracer.snapshot();
  EXPECT_FALSE(snap.span_tracing);

  const trace::ThreadTrace* t = thread_with_span(snap, "test.outer");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->spans.size(), 3u);
  // Spans complete inner-first; the ring is oldest-to-newest.
  const trace::SpanRecord& inner = t->spans[0];
  const trace::SpanRecord& outer = t->spans[1];
  const trace::SpanRecord& second = t->spans[2];
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_STREQ(second.name, "test.second");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(second.depth, 0u);
  EXPECT_STREQ(outer.tag, "variant");
  EXPECT_EQ(outer.arg, 7u);
  EXPECT_EQ(inner.tag, nullptr);
  // Containment and ordering in time.
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_LE(inner.dur_ns, outer.dur_ns);
  EXPECT_LE(outer.start_ns + outer.dur_ns, second.start_ns + second.dur_ns);
  EXPECT_GE(outer.start_ns, snap.epoch_ns);
  // with_hw_counters = false: no span may claim deltas.
  EXPECT_FALSE(inner.have_counters);
  EXPECT_FALSE(snap.hw_counters);
}

TEST(TraceSpans, RingWraparoundKeepsNewestAndCountsDropped) {
  auto& tracer = trace::Tracer::instance();
  tracer.enable(trace::TraceOptions{.ring_capacity = 4, .with_hw_counters = false});
  for (std::uint64_t n = 0; n < 10; ++n) {
    SFCVIS_TRACE_SPAN("test.wrap", nullptr, n);
  }
  tracer.disable();
  const trace::TraceSnapshot snap = tracer.snapshot();
  const trace::ThreadTrace* t = thread_with_span(snap, "test.wrap");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->spans.size(), 4u);
  EXPECT_EQ(t->dropped, 6u);
  for (std::uint64_t n = 0; n < 4; ++n) {
    EXPECT_EQ(t->spans[n].arg, 6 + n);  // newest four, oldest-to-newest
  }
}

TEST(TraceSpans, PoolWorkersAreAttributed) {
  auto& tracer = trace::Tracer::instance();
  tracer.enable(trace::TraceOptions{.ring_capacity = 256, .with_hw_counters = false});
  threads::Pool pool(3);
  threads::parallel_for_dynamic(pool, 32, [](std::size_t item, unsigned) {
    SFCVIS_TRACE_SPAN("test.pool_item", nullptr, item);
  });
  tracer.disable();
  const trace::TraceSnapshot snap = tracer.snapshot();
  std::uint64_t pool_spans = 0;
  bool saw_worker = false;
  for (const auto& t : snap.threads) {
    if (t.spans.empty()) {
      continue;
    }
    if (t.worker_id != ~0u) {
      saw_worker = true;
      EXPECT_LT(t.worker_id, 3u);
    }
    for (const auto& s : t.spans) {
      if (std::string(s.name) == "test.pool_item") {
        ++pool_spans;
      }
    }
  }
  EXPECT_TRUE(saw_worker);
  EXPECT_EQ(pool_spans, 32u);
}

TEST(TraceHwCounters, FallbackIsReportedNeverSilent) {
  auto& tracer = trace::Tracer::instance();
  tracer.enable();  // defaults: hardware counters requested
  { SFCVIS_TRACE_SPAN("test.hw_probe"); }
  tracer.disable();
  const trace::TraceSnapshot snap = tracer.snapshot();
  if (snap.hw_counters) {
    EXPECT_EQ(snap.counter_source, "perf-group");
    const trace::ThreadTrace* t = thread_with_span(snap, "test.hw_probe");
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->spans.size(), 1u);
    EXPECT_TRUE(t->spans[0].have_counters);
  } else {
    // The fallback decision must carry its reason.
    EXPECT_EQ(snap.counter_source.rfind("timing-only", 0), 0u) << snap.counter_source;
    EXPECT_GT(snap.counter_source.size(), std::string("timing-only: ").size());
    for (const auto& t : snap.threads) {
      EXPECT_FALSE(t.hw_counters);
      for (const auto& s : t.spans) {
        EXPECT_FALSE(s.have_counters);
      }
    }
  }
}

TEST(TraceMetrics, MergesAcrossPoolThreadsWithoutSpanTracing) {
  auto& tracer = trace::Tracer::instance();
  ASSERT_FALSE(trace::span_tracing_enabled());  // metrics work untraced
  tracer.reset_metrics();
  const trace::CounterId items = tracer.counter_id("test.items");
  threads::Pool pool(3);
  threads::parallel_for_dynamic(pool, 100, [&](std::size_t, unsigned) {
    tracer.add(items, 1);
  });
  const trace::MetricsSnapshot metrics = tracer.metrics_snapshot();

  EXPECT_EQ(metrics.total("test.items"), 100u);
  EXPECT_EQ(metrics.total("test.absent"), 0u);
  const trace::CounterMetric* counter = metrics.find_counter("test.items");
  ASSERT_NE(counter, nullptr);
  std::uint64_t per_thread_sum = 0;
  for (const auto& v : counter->per_thread) {
    EXPECT_GT(v.value, 0u);  // only contributing threads are listed
    per_thread_sum += v.value;
  }
  EXPECT_EQ(per_thread_sum, 100u);
  EXPECT_GE(counter->imbalance, 0.0);
}

TEST(TraceExport, ChromeTraceCarriesPerfettoKeys) {
  auto& tracer = trace::Tracer::instance();
  tracer.enable(trace::TraceOptions{.ring_capacity = 16, .with_hw_counters = false});
  { SFCVIS_TRACE_SPAN("test.export", "mode", 3); }
  tracer.disable();
  const std::string json = trace::chrome_trace_json(tracer.snapshot());
  for (const char* needle :
       {"\"traceEvents\":[", "\"ph\":\"X\"", "\"ph\":\"M\"", "\"ts\":", "\"dur\":",
        "\"pid\":", "\"tid\":", "\"name\":\"test.export\"", "\"tag\":\"mode\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(TraceExport, RunReportCarriesPhasesMetricsAndTables) {
  auto& tracer = trace::Tracer::instance();
  tracer.reset_metrics();
  tracer.enable(trace::TraceOptions{.ring_capacity = 16, .with_hw_counters = false});
  { SFCVIS_TRACE_SPAN("test.report", "tag"); }
  tracer.add(tracer.counter_id("test.report_metric"), 5);
  tracer.disable();
  trace::ReportTable table;
  table.name = "test_table";
  table.title = "a table";
  table.rows = {"r0"};
  table.cols = {"c0", "c1"};
  table.cells = {{1.0, 2.0}};
  trace::RunReportSections sections;
  sections.tables = {table};
  const std::string json =
      trace::run_report_json(tracer.snapshot(), tracer.metrics_snapshot(), sections);
  for (const char* needle :
       {"\"sfcvis_run_report\":5", "\"hw_counters\":", "\"phases\":[",
        "\"name\":\"test.report\"", "\"tag\":\"tag\"",
        "\"name\":\"test.report_metric\"", "\"total\":5",
        "\"name\":\"test_table\"", "\"rows\":[\"r0\"]", "\"cols\":[\"c0\",\"c1\"]",
        "\"cells\":[["}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(TraceExport, PythonValidatorAcceptsBothExports) {
  if (std::system("python3 -c 'import json' > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  auto& tracer = trace::Tracer::instance();
  tracer.reset_metrics();
  tracer.enable(trace::TraceOptions{.ring_capacity = 64, .with_hw_counters = false});
  threads::Pool pool(2);
  threads::parallel_for_dynamic(pool, 8, [&](std::size_t item, unsigned) {
    SFCVIS_TRACE_SPAN("test.validated", nullptr, item);
    tracer.add(tracer.counter_id("test.validated_items"), 1);
  });
  tracer.disable();
  const trace::TraceSnapshot snap = tracer.snapshot();
  const trace::MetricsSnapshot metrics = tracer.metrics_snapshot();

  const auto dir = std::filesystem::temp_directory_path();
  const std::string trace_path = (dir / "sfcvis_test_trace.json").string();
  const std::string report_path = (dir / "sfcvis_test_report.json").string();
  ASSERT_TRUE(trace::write_text_file(trace_path, trace::chrome_trace_json(snap)));
  ASSERT_TRUE(trace::write_text_file(report_path, trace::run_report_json(snap, metrics)));

  const std::string cmd = std::string("python3 \"") + SFCVIS_TOOLS_DIR +
                          "/sfcreport.py\" validate \"" + trace_path + "\" \"" +
                          report_path + "\"";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::filesystem::remove(trace_path);
  std::filesystem::remove(report_path);
}

}  // namespace
