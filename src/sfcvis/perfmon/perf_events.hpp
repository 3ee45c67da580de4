// Hardware performance counters via Linux perf_event_open.
//
// The paper collects PAPI counters on real hardware; this module is the
// real-hardware counterpart to the memsim substitute. Containers and many
// shared hosts deny perf_event_open, so availability is probed at runtime
// and every bench falls back to memsim counters when the probe fails —
// that decision is reported, never silent: open() takes an optional
// OpenFailure out-param that carries the errno and a human-readable
// explanation (including the /proc/sys/kernel/perf_event_paranoid level
// when that is the likely cause).
//
// Two granularities are provided:
//  * PerfCounter — one event, inherited by child threads; the whole-run
//    counter the benches print next to memsim columns.
//  * PerfGroup   — a multiplexed counter *group* (one leader, three
//    siblings, PERF_FORMAT_GROUP) read in a single syscall; the per-span
//    delta source of the trace subsystem (sfcvis/trace). Groups are
//    per-thread (the kernel refuses PERF_FORMAT_GROUP with inherit), so
//    each tracing thread opens its own.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace sfcvis::perfmon {

/// Counters the benches know how to interpret.
enum class Event : std::uint8_t {
  kCacheReferences,  ///< LLC accesses: the closest kin of PAPI_L3_TCA
  kCacheMisses,      ///< LLC misses
  kInstructions,
  kCycles,
};

[[nodiscard]] const char* to_string(Event e) noexcept;

/// Why a perf_event_open call failed: the errno plus a message a user can
/// act on. A default-constructed value means "no failure recorded".
struct OpenFailure {
  int error = 0;        ///< errno from the failing syscall (0 = none)
  std::string message;  ///< human-readable cause + suggested fix

  [[nodiscard]] bool failed() const noexcept { return error != 0; }
};

/// Maps a perf_event_open errno to an actionable message. EACCES/EPERM
/// report the current perf_event_paranoid sysctl level (the usual culprit
/// on shared hosts and in containers); ENOSYS/ENOENT explain missing
/// kernel/PMU support.
[[nodiscard]] std::string describe_open_error(int error);

/// One hardware counter. Move-only (owns a file descriptor).
class PerfCounter {
 public:
  /// Opens a counter for the calling thread (+ its children). Returns
  /// nullopt when the kernel refuses (no permission, no PMU, seccomp...);
  /// when `failure` is non-null it receives the errno and an explanation.
  [[nodiscard]] static std::optional<PerfCounter> open(Event event,
                                                       OpenFailure* failure = nullptr);

  /// True when at least kCacheReferences can be opened in this process —
  /// the probe benches use to pick the hardware or memsim path.
  [[nodiscard]] static bool available();

  /// The probe, with the reason: why the hardware path is unavailable
  /// (empty string when it is available).
  [[nodiscard]] static std::string unavailable_reason();

  PerfCounter(PerfCounter&& other) noexcept;
  PerfCounter& operator=(PerfCounter&& other) noexcept;
  PerfCounter(const PerfCounter&) = delete;
  PerfCounter& operator=(const PerfCounter&) = delete;
  ~PerfCounter();

  /// Zeroes and enables the counter.
  void start();

  /// Disables the counter and returns the accumulated count.
  [[nodiscard]] std::uint64_t stop();

  [[nodiscard]] Event event() const noexcept { return event_; }

 private:
  PerfCounter(int fd, Event event) : fd_(fd), event_(event) {}
  int fd_ = -1;
  Event event_ = Event::kCacheReferences;
};

/// One consistent reading of the four grouped events.
struct GroupReading {
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
};

/// A perf counter *group* for the calling thread: cache-references leads,
/// cache-misses / instructions / cycles are siblings, and one read() with
/// PERF_FORMAT_GROUP returns all four atomically — the cheap begin/end
/// delta source for trace spans. Move-only (owns four descriptors).
///
/// Thread affinity: the group counts the opening thread only (no inherit —
/// the kernel rejects PERF_FORMAT_GROUP on inherited events), so every
/// thread that wants span counters opens its own group.
class PerfGroup {
 public:
  /// Opens the four-event group for the calling thread, enabled from the
  /// start. nullopt + `failure` on refusal; partial opens are rolled back.
  [[nodiscard]] static std::optional<PerfGroup> open(OpenFailure* failure = nullptr);

  PerfGroup(PerfGroup&& other) noexcept;
  PerfGroup& operator=(PerfGroup&& other) noexcept;
  PerfGroup(const PerfGroup&) = delete;
  PerfGroup& operator=(const PerfGroup&) = delete;
  ~PerfGroup();

  /// Reads all four counters in one syscall. Returns false (zeroed `out`)
  /// on a short or failed read.
  [[nodiscard]] bool read_now(GroupReading& out) const noexcept;

 private:
  PerfGroup() = default;
  void close_all() noexcept;
  static constexpr int kEvents = 4;
  int fds_[kEvents] = {-1, -1, -1, -1};  ///< [0] is the group leader
};

/// Difference a - b, per event (for span begin/end deltas). Counters are
/// monotonic while enabled, so the subtraction never wraps in practice.
[[nodiscard]] constexpr GroupReading operator-(const GroupReading& a,
                                               const GroupReading& b) noexcept {
  return GroupReading{a.cache_references - b.cache_references,
                      a.cache_misses - b.cache_misses,
                      a.instructions - b.instructions, a.cycles - b.cycles};
}

/// Per-event sum (for aggregating span deltas across spans and threads).
[[nodiscard]] constexpr GroupReading operator+(const GroupReading& a,
                                               const GroupReading& b) noexcept {
  return GroupReading{a.cache_references + b.cache_references,
                      a.cache_misses + b.cache_misses,
                      a.instructions + b.instructions, a.cycles + b.cycles};
}

}  // namespace sfcvis::perfmon
