#include "sfcvis/exec/trace_session.hpp"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "sfcvis/trace/trace.hpp"

namespace sfcvis::exec {

namespace {

// Abnormal-exit flush: a run killed by Ctrl-C or a std::exit deep in a
// library would otherwise drop every buffered span and table — the trace
// file simply never gets written. The atexit hook covers std::exit; the
// signal hooks cover termination signals on a best-effort basis (finish()
// allocates and formats JSON, which is not async-signal-safe, so the
// handler first restores the default disposition: a second fault during
// the flush terminates the process instead of looping). Handlers are only
// installed over SIG_DFL — a host that set its own handler keeps it.
std::atomic<bool> g_flush_hooks_installed{false};
std::atomic<bool> g_flushing{false};

void flush_current_session() noexcept {
  if (g_flushing.exchange(true)) {
    return;  // a flush is already running (or already ran) on this path
  }
  if (TraceSession* session = TraceSession::current()) {
    session->finish();
  }
  g_flushing.store(false);
}

extern "C" void sfcvis_trace_atexit_flush() { flush_current_session(); }

extern "C" void sfcvis_trace_signal_flush(int signo) {
  std::signal(signo, SIG_DFL);
  flush_current_session();
  std::raise(signo);
}

void install_flush_hooks() {
  if (g_flush_hooks_installed.exchange(true)) {
    return;
  }
  std::atexit(&sfcvis_trace_atexit_flush);
  const int signals[] = {
      SIGINT,
      SIGTERM,
#ifdef SIGHUP
      SIGHUP,
#endif
  };
  for (const int signo : signals) {
    const auto prev = std::signal(signo, &sfcvis_trace_signal_flush);
    if (prev != SIG_DFL && prev != SIG_ERR) {
      std::signal(signo, prev);
    }
  }
}

}  // namespace

TraceSession::TraceSession(std::string trace_out, std::string report_out, bool force_enable)
    : trace_out_(std::move(trace_out)),
      report_out_(std::move(report_out)),
      active_(force_enable || !trace_out_.empty() || !report_out_.empty()) {
  if (active_) {
    current() = this;
    install_flush_hooks();
    g_flushing.store(false);  // re-arm for this session (tests run several)
    trace::Tracer::instance().enable();
  }
}

TraceSession::~TraceSession() { finish(); }

TraceSession*& TraceSession::current() noexcept {
  static TraceSession* session = nullptr;
  return session;
}

void TraceSession::add_locality(trace::LocalityProfile profile) {
  sections_.locality.available = true;
  sections_.locality.source = "locality profiler (traced replay)";
  sections_.locality.profiles.push_back(std::move(profile));
}

void TraceSession::add_job(trace::JobReportEntry entry) {
  sections_.jobs.available = true;
  sections_.jobs.source = "exec::JobGraph dispatch accounting";
  sections_.jobs.jobs.push_back(std::move(entry));
}

void TraceSession::finish() {
  if (!active_) {
    return;
  }
  active_ = false;
  if (current() == this) {
    current() = nullptr;
  }
  auto& tracer = trace::Tracer::instance();
  // Snapshot before disabling so the report records that spans were live.
  // Quiescent here: the run's parallel regions have all joined.
  const trace::TraceSnapshot snap = tracer.snapshot();
  const trace::MetricsSnapshot metrics = tracer.metrics_snapshot();
  tracer.disable();
  if (!trace_out_.empty()) {
    if (trace::write_text_file(trace_out_, trace::chrome_trace_json(snap))) {
      std::printf("[trace] %s (%llu spans, %s)\n", trace_out_.c_str(),
                  static_cast<unsigned long long>(snap.total_spans()),
                  snap.counter_source.c_str());
    } else {
      std::fprintf(stderr, "[trace] failed to write %s\n", trace_out_.c_str());
    }
  }
  if (!report_out_.empty()) {
    if (trace::write_text_file(report_out_, trace::run_report_json(snap, metrics, sections_))) {
      std::printf("[trace] %s (%zu tables, %zu locality profiles, %zu jobs)\n",
                  report_out_.c_str(), sections_.tables.size(),
                  sections_.locality.profiles.size(), sections_.jobs.jobs.size());
    } else {
      std::fprintf(stderr, "[trace] failed to write %s\n", report_out_.c_str());
    }
  }
}

}  // namespace sfcvis::exec
