#include "sfcvis/trace/export.hpp"

#include <cstdio>
#include <map>
#include <string>

#include "sfcvis/trace/json.hpp"

namespace sfcvis::trace {

namespace {

std::string thread_display_name(const ThreadTrace& t) {
  if (t.worker_id != ~0u) {
    return "worker " + std::to_string(t.worker_id);
  }
  // Registration order makes the first-registered thread almost always the
  // driver; name it for readable timelines.
  return t.trace_tid == 0 ? "main" : "thread " + std::to_string(t.trace_tid);
}

void counters_object(JsonWriter& w, const perfmon::GroupReading& r) {
  w.begin_object();
  w.key("cache_references");
  w.value(r.cache_references);
  w.key("cache_misses");
  w.value(r.cache_misses);
  w.key("instructions");
  w.value(r.instructions);
  w.key("cycles");
  w.value(r.cycles);
  w.end_object();
}

void locality_granularity_object(JsonWriter& w, const LocalityGranularity& g) {
  w.begin_object();
  w.key("granule_bytes");
  w.value(std::uint64_t{g.granule_bytes});
  w.key("accesses");
  w.value(g.accesses);
  w.key("distinct");
  w.value(g.distinct);
  w.key("cold");
  w.value(g.cold);
  w.key("utilization");
  if (g.utilization < 0.0) {
    w.null();
  } else {
    w.value(g.utilization, 6);
  }
  w.key("reuse_log2");
  w.begin_array();
  for (const std::uint64_t b : g.reuse_log2) {
    w.value(b);
  }
  w.end_array();
  w.key("mrc");
  w.begin_array();
  for (const LocalityMissPoint& p : g.mrc) {
    w.begin_object();
    w.key("capacity_bytes");
    w.value(p.capacity_bytes);
    w.key("miss_ratio");
    w.value(p.miss_ratio, 9);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// One aggregation bucket: every span sharing (name, tag).
struct Phase {
  const char* name = nullptr;
  const char* tag = nullptr;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  bool have_counters = false;
  perfmon::GroupReading counters{};
  std::map<unsigned, std::pair<std::uint64_t, std::uint64_t>>
      per_thread;  ///< tid -> (count, total_ns)
};

}  // namespace

std::string chrome_trace_json(const TraceSnapshot& snap) {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const auto& t : snap.threads) {
    if (t.spans.empty()) {
      continue;
    }
    w.begin_object();
    w.key("name");
    w.value("thread_name");
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(std::uint64_t{t.trace_tid});
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value(thread_display_name(t));
    w.end_object();
    w.end_object();
    for (const auto& s : t.spans) {
      w.begin_object();
      w.key("name");
      w.value(s.name == nullptr ? "?" : s.name);
      w.key("cat");
      w.value("sfcvis");
      w.key("ph");
      w.value("X");
      w.key("ts");
      w.value(static_cast<double>(s.start_ns - snap.epoch_ns) / 1000.0, 3);
      w.key("dur");
      w.value(static_cast<double>(s.dur_ns) / 1000.0, 3);
      w.key("pid");
      w.value(std::uint64_t{1});
      w.key("tid");
      w.value(std::uint64_t{t.trace_tid});
      w.key("args");
      w.begin_object();
      w.key("arg");
      w.value(s.arg);
      if (s.tag != nullptr) {
        w.key("tag");
        w.value(s.tag);
      }
      if (s.have_counters) {
        w.key("cache_references");
        w.value(s.delta.cache_references);
        w.key("cache_misses");
        w.value(s.delta.cache_misses);
        w.key("instructions");
        w.value(s.delta.instructions);
        w.key("cycles");
        w.value(s.delta.cycles);
      }
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("otherData");
  w.begin_object();
  w.key("counter_source");
  w.value(snap.counter_source);
  w.end_object();
  w.end_object();
  return w.take();
}

std::string run_report_json(const TraceSnapshot& snap, const MetricsSnapshot& metrics,
                            const RunReportSections& sections) {
  // Aggregate spans into phases (ordered by name, then tag, for a stable
  // report) and sum depth-0 deltas: nested spans are contained in their
  // parents, so only top-level spans sum to the whole-run totals.
  std::map<std::string, Phase> phases;
  perfmon::GroupReading top_level_sum{};
  bool have_top_level = false;
  std::uint64_t dropped = 0;
  for (const auto& t : snap.threads) {
    dropped += t.dropped;
    for (const auto& s : t.spans) {
      std::string key = s.name == nullptr ? "?" : s.name;
      key += '\x1f';
      if (s.tag != nullptr) {
        key += s.tag;
      }
      Phase& p = phases[key];
      p.name = s.name;
      p.tag = s.tag;
      ++p.count;
      p.total_ns += s.dur_ns;
      p.max_ns = std::max(p.max_ns, s.dur_ns);
      auto& pt = p.per_thread[t.trace_tid];
      ++pt.first;
      pt.second += s.dur_ns;
      if (s.have_counters) {
        p.have_counters = true;
        p.counters = p.counters + s.delta;
        if (s.depth == 0) {
          have_top_level = true;
          top_level_sum = top_level_sum + s.delta;
        }
      }
    }
  }

  // worker ids per tid, for attributing phase threads in the report
  std::map<unsigned, unsigned> worker_of;
  for (const auto& t : snap.threads) {
    worker_of[t.trace_tid] = t.worker_id;
  }

  JsonWriter w;
  w.begin_object();
  w.key("sfcvis_run_report");
  w.value(std::uint64_t{5});
  w.key("span_tracing");
  w.value(snap.span_tracing);
  w.key("dropped_spans");
  w.value(dropped);
  w.key("hw_counters");
  w.begin_object();
  w.key("available");
  w.value(snap.hw_counters);
  w.key("source");
  w.value(snap.counter_source);
  w.end_object();

  // Reuse-distance / miss-ratio-curve profiles — always present; runs
  // without a locality profiler record why.
  w.key("locality");
  w.begin_object();
  w.key("available");
  w.value(sections.locality.available);
  w.key("source");
  w.value(sections.locality.source);
  w.key("profiles");
  w.begin_array();
  for (const LocalityProfile& p : sections.locality.profiles) {
    w.begin_object();
    w.key("kernel");
    w.value(p.kernel);
    w.key("layout");
    w.value(p.layout);
    w.key("accesses");
    w.value(p.accesses);
    w.key("bytes");
    w.value(p.bytes);
    w.key("line");
    locality_granularity_object(w, p.line);
    w.key("page");
    locality_granularity_object(w, p.page);
    w.key("sample_rate_log2");
    w.value(std::uint64_t{p.sample_rate_log2});
    w.key("sampled");
    if (p.sampled_available) {
      locality_granularity_object(w, p.sampled);
    } else {
      w.null();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();

  // Per-job dispatch accounting (exec::JobGraph) — always present, like
  // locality; runs that never ran a KernelJob record why.
  w.key("jobs");
  w.begin_object();
  w.key("available");
  w.value(sections.jobs.available);
  w.key("source");
  w.value(sections.jobs.source);
  w.key("jobs");
  w.begin_array();
  for (const JobReportEntry& j : sections.jobs.jobs) {
    w.begin_object();
    w.key("id");
    w.value(j.id);
    w.key("kernel");
    w.value(j.kernel);
    w.key("state");
    w.value(j.state);
    w.key("tiles");
    w.value(j.tiles);
    w.key("tiles_run");
    w.value(j.tiles_run);
    w.key("run_ns");
    w.value(j.run_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  // Whole-enabled-window totals summed across threads (null without hw).
  if (snap.hw_counters) {
    perfmon::GroupReading run_total{};
    for (const auto& t : snap.threads) {
      if (t.hw_counters) {
        run_total = run_total + t.run_total;
      }
    }
    w.key("run_totals");
    counters_object(w, run_total);
  } else {
    w.key("run_totals");
    w.null();
  }
  if (have_top_level) {
    w.key("span_totals");
    counters_object(w, top_level_sum);
  } else {
    w.key("span_totals");
    w.null();
  }

  w.key("threads");
  w.begin_array();
  for (const auto& t : snap.threads) {
    w.begin_object();
    w.key("tid");
    w.value(std::uint64_t{t.trace_tid});
    w.key("worker");
    if (t.worker_id == ~0u) {
      w.null();
    } else {
      w.value(std::uint64_t{t.worker_id});
    }
    w.key("spans");
    w.value(std::uint64_t{t.spans.size()});
    w.key("dropped");
    w.value(t.dropped);
    w.key("run_total");
    if (t.hw_counters) {
      counters_object(w, t.run_total);
    } else {
      w.null();
    }
    w.end_object();
  }
  w.end_array();

  w.key("phases");
  w.begin_array();
  for (const auto& [key, p] : phases) {
    (void)key;
    w.begin_object();
    w.key("name");
    w.value(p.name == nullptr ? "?" : p.name);
    w.key("tag");
    if (p.tag == nullptr) {
      w.null();
    } else {
      w.value(p.tag);
    }
    w.key("count");
    w.value(p.count);
    w.key("total_ms");
    w.value(static_cast<double>(p.total_ns) / 1e6, 3);
    w.key("mean_us");
    w.value(p.count == 0 ? 0.0
                         : static_cast<double>(p.total_ns) / 1e3 /
                               static_cast<double>(p.count),
            3);
    w.key("max_us");
    w.value(static_cast<double>(p.max_ns) / 1e3, 3);
    std::vector<ThreadValue> busy;
    busy.reserve(p.per_thread.size());
    for (const auto& [tid, ct] : p.per_thread) {
      busy.push_back(ThreadValue{tid, worker_of[tid], ct.second});
    }
    w.key("imbalance");
    w.value(load_imbalance(busy), 4);
    w.key("counters");
    if (p.have_counters) {
      counters_object(w, p.counters);
    } else {
      w.null();
    }
    w.key("per_thread");
    w.begin_array();
    for (const auto& [tid, ct] : p.per_thread) {
      w.begin_object();
      w.key("tid");
      w.value(std::uint64_t{tid});
      w.key("worker");
      if (worker_of[tid] == ~0u) {
        w.null();
      } else {
        w.value(std::uint64_t{worker_of[tid]});
      }
      w.key("count");
      w.value(ct.first);
      w.key("total_ms");
      w.value(static_cast<double>(ct.second) / 1e6, 3);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("metrics");
  w.begin_array();
  for (const auto& c : metrics.counters) {
    if (c.total == 0 && c.per_thread.empty()) {
      continue;  // registered but never incremented this run
    }
    w.begin_object();
    w.key("name");
    w.value(c.name);
    w.key("total");
    w.value(c.total);
    w.key("imbalance");
    w.value(c.imbalance, 4);
    w.key("per_thread");
    w.begin_array();
    for (const auto& v : c.per_thread) {
      w.begin_object();
      w.key("tid");
      w.value(std::uint64_t{v.trace_tid});
      w.key("worker");
      if (v.worker_id == ~0u) {
        w.null();
      } else {
        w.value(std::uint64_t{v.worker_id});
      }
      w.key("value");
      w.value(v.value);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("tables");
  w.begin_array();
  for (const auto& t : sections.tables) {
    w.begin_object();
    w.key("name");
    w.value(t.name);
    w.key("title");
    w.value(t.title);
    w.key("rows");
    w.begin_array();
    for (const auto& r : t.rows) {
      w.value(r);
    }
    w.end_array();
    w.key("cols");
    w.begin_array();
    for (const auto& c : t.cols) {
      w.value(c);
    }
    w.end_array();
    w.key("cells");
    w.begin_array();
    for (const auto& row : t.cells) {
      w.begin_array();
      for (const double cell : row) {
        w.value(cell, 9);
      }
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.take();
}

bool write_text_file(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const std::size_t wrote = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = wrote == contents.size() && std::fclose(f) == 0;
  if (!ok && wrote != contents.size()) {
    std::fclose(f);
  }
  return ok;
}

}  // namespace sfcvis::trace
