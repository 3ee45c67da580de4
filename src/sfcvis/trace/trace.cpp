#include "sfcvis/trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>

namespace sfcvis::trace {

namespace detail {

std::atomic<bool> g_span_enabled{false};

struct ThreadState {
  unsigned trace_tid = 0;
  unsigned worker_id = ~0u;

  // Span ring. `pushed` is the monotone record count; the live window is
  // the last min(pushed, ring.size()) entries, so dropped = pushed - kept.
  std::vector<SpanRecord> ring;
  std::uint64_t pushed = 0;
  std::uint32_t depth = 0;

  // Per-thread counter group. Opening must happen on the owning thread
  // (perf groups have no inherit), so enable() only flags the request and
  // the first span begin() on the thread performs the open.
  bool counters_on = false;
  bool try_open_group = false;
  std::optional<perfmon::PerfGroup> group;
  perfmon::GroupReading at_enable{};
  bool have_at_enable = false;

  // Counter slots, indexed by CounterId, grown on demand.
  std::vector<std::uint64_t> counters;
};

}  // namespace detail

namespace {

using detail::ThreadState;

thread_local ThreadState* t_state = nullptr;
thread_local unsigned t_worker_id = ~0u;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// All cross-thread tracer state. Intentionally leaked so spans on
/// late-exiting threads stay safe during static destruction.
struct TracerImpl {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadState>> threads;
  TraceOptions options;
  std::uint64_t epoch_ns = 0;
  std::string hw_failure;  ///< first PerfGroup::open failure this epoch
  std::vector<const char*> counter_names;
};

TracerImpl& impl() {
  static TracerImpl* instance = new TracerImpl();
  return *instance;
}

/// Owning-thread half of enable(): open the perf group and take the
/// enabled-window baseline reading.
void open_group_on_this_thread(ThreadState& st) {
  st.try_open_group = false;
  perfmon::OpenFailure failure;
  st.group = perfmon::PerfGroup::open(&failure);
  if (st.group.has_value()) {
    perfmon::GroupReading reading;
    if (st.group->read_now(reading)) {
      st.at_enable = reading;
      st.have_at_enable = true;
    }
  } else {
    auto& ti = impl();
    std::lock_guard<std::mutex> lock(ti.mutex);
    if (ti.hw_failure.empty()) {
      ti.hw_failure = failure.message;
    }
  }
}

void clear_metric_slots(ThreadState& st) {
  std::fill(st.counters.begin(), st.counters.end(), 0);
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

ThreadState& Tracer::thread_state() {
  if (t_state == nullptr) {
    auto& ti = impl();
    std::lock_guard<std::mutex> lock(ti.mutex);
    auto st = std::make_unique<ThreadState>();
    st->trace_tid = static_cast<unsigned>(ti.threads.size());
    st->worker_id = t_worker_id;
    st->counters_on = ti.options.with_hw_counters;
    if (detail::g_span_enabled.load(std::memory_order_relaxed)) {
      st->ring.resize(ti.options.ring_capacity);
      st->try_open_group = ti.options.with_hw_counters;
    }
    t_state = st.get();
    ti.threads.push_back(std::move(st));
  }
  return *t_state;
}

void Tracer::enable(const TraceOptions& options) {
  auto& ti = impl();
  std::lock_guard<std::mutex> lock(ti.mutex);
  ti.options = options;
  ti.options.ring_capacity = std::max<std::size_t>(1, ti.options.ring_capacity);
  ti.hw_failure.clear();
  ti.epoch_ns = now_ns();
  for (auto& st : ti.threads) {
    st->pushed = 0;
    st->depth = 0;
    st->ring.assign(ti.options.ring_capacity, SpanRecord{});
    st->counters_on = ti.options.with_hw_counters;
    st->have_at_enable = false;
    if (ti.options.with_hw_counters) {
      if (st->group.has_value()) {
        // Reading a foreign thread's group fd is fine; only the open is
        // bound to the owning thread.
        perfmon::GroupReading reading;
        if (st->group->read_now(reading)) {
          st->at_enable = reading;
          st->have_at_enable = true;
        }
      } else {
        st->try_open_group = true;
      }
    } else {
      st->try_open_group = false;
    }
    clear_metric_slots(*st);
  }
  detail::g_span_enabled.store(true, std::memory_order_release);
}

void Tracer::disable() {
  detail::g_span_enabled.store(false, std::memory_order_release);
}

void Tracer::reset() {
  auto& ti = impl();
  std::lock_guard<std::mutex> lock(ti.mutex);
  for (auto& st : ti.threads) {
    st->pushed = 0;
    st->depth = 0;
    clear_metric_slots(*st);
  }
}

TraceSnapshot Tracer::snapshot() {
  auto& ti = impl();
  std::lock_guard<std::mutex> lock(ti.mutex);
  TraceSnapshot snap;
  snap.epoch_ns = ti.epoch_ns;
  snap.span_tracing = detail::g_span_enabled.load(std::memory_order_acquire);
  for (const auto& stp : ti.threads) {
    const ThreadState& st = *stp;
    ThreadTrace tt;
    tt.trace_tid = st.trace_tid;
    tt.worker_id = st.worker_id;
    const std::uint64_t cap = st.ring.size();
    const std::uint64_t kept = cap == 0 ? 0 : std::min(st.pushed, cap);
    tt.dropped = st.pushed - kept;
    tt.spans.reserve(kept);
    for (std::uint64_t i = st.pushed - kept; i < st.pushed; ++i) {
      tt.spans.push_back(st.ring[i % cap]);
    }
    tt.hw_counters = st.counters_on && st.group.has_value();
    if (tt.hw_counters && st.have_at_enable) {
      perfmon::GroupReading current;
      if (st.group->read_now(current)) {
        tt.run_total = current - st.at_enable;
      }
    }
    snap.hw_counters = snap.hw_counters || tt.hw_counters;
    snap.threads.push_back(std::move(tt));
  }
  if (snap.hw_counters) {
    snap.counter_source = "perf-group";
  } else if (!ti.options.with_hw_counters) {
    snap.counter_source = "timing-only: hardware counters not requested";
  } else if (!ti.hw_failure.empty()) {
    snap.counter_source = "timing-only: " + ti.hw_failure;
  } else {
    snap.counter_source = "timing-only: no thread attempted to open a counter group";
  }
  return snap;
}

CounterId Tracer::counter_id(const char* name) {
  auto& ti = impl();
  std::lock_guard<std::mutex> lock(ti.mutex);
  for (std::size_t i = 0; i < ti.counter_names.size(); ++i) {
    if (std::strcmp(ti.counter_names[i], name) == 0) {
      return CounterId{static_cast<std::uint32_t>(i)};
    }
  }
  ti.counter_names.push_back(name);
  return CounterId{static_cast<std::uint32_t>(ti.counter_names.size() - 1)};
}

void Tracer::add(CounterId id, std::uint64_t delta) {
  ThreadState& st = thread_state();
  const auto idx = static_cast<std::size_t>(id);
  if (idx >= st.counters.size()) {
    st.counters.resize(idx + 1, 0);
  }
  st.counters[idx] += delta;
}

MetricsSnapshot Tracer::metrics_snapshot() {
  auto& ti = impl();
  std::lock_guard<std::mutex> lock(ti.mutex);
  MetricsSnapshot snap;
  snap.counters.resize(ti.counter_names.size());
  for (std::size_t i = 0; i < ti.counter_names.size(); ++i) {
    snap.counters[i].name = ti.counter_names[i];
  }
  for (const auto& stp : ti.threads) {
    const ThreadState& st = *stp;
    for (std::size_t i = 0; i < st.counters.size() && i < snap.counters.size(); ++i) {
      // Only contributing threads appear: a slot can exist with value 0
      // purely because a higher id forced the resize.
      if (st.counters[i] == 0) {
        continue;
      }
      snap.counters[i].total += st.counters[i];
      snap.counters[i].per_thread.push_back(
          ThreadValue{st.trace_tid, st.worker_id, st.counters[i]});
    }
  }
  for (auto& c : snap.counters) {
    c.imbalance = load_imbalance(c.per_thread);
  }
  return snap;
}

void Tracer::reset_metrics() {
  auto& ti = impl();
  std::lock_guard<std::mutex> lock(ti.mutex);
  for (auto& st : ti.threads) {
    clear_metric_slots(*st);
  }
}

std::size_t Tracer::registered_threads() {
  auto& ti = impl();
  std::lock_guard<std::mutex> lock(ti.mutex);
  return ti.threads.size();
}

void set_worker_id(unsigned tid) {
  t_worker_id = tid;
  if (t_state != nullptr) {
    t_state->worker_id = tid;
  }
}

void ScopedSpan::begin(const char* name, const char* tag, std::uint64_t arg) noexcept {
  ThreadState& st = Tracer::instance().thread_state();
  if (st.try_open_group) {
    open_group_on_this_thread(st);
  }
  if (st.ring.empty()) {
    return;  // raced with enable() before this thread's ring was sized
  }
  state_ = &st;
  name_ = name;
  tag_ = tag;
  arg_ = arg;
  ++st.depth;
  if (st.counters_on && st.group.has_value()) {
    have_counters_ = st.group->read_now(begin_counters_);
  }
  start_ns_ = now_ns();
}

void ScopedSpan::end() noexcept {
  ThreadState& st = *state_;
  const std::uint64_t end_ns = now_ns();
  perfmon::GroupReading end_counters{};
  bool have = false;
  if (have_counters_ && st.group.has_value()) {
    have = st.group->read_now(end_counters);
  }
  --st.depth;
  SpanRecord& rec = st.ring[st.pushed % st.ring.size()];
  ++st.pushed;
  rec.name = name_;
  rec.tag = tag_;
  rec.arg = arg_;
  rec.start_ns = start_ns_;
  rec.dur_ns = end_ns - start_ns_;
  rec.depth = st.depth;
  rec.have_counters = have;
  rec.delta = have ? end_counters - begin_counters_ : perfmon::GroupReading{};
}

}  // namespace sfcvis::trace
