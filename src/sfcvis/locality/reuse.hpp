// Online reuse-distance (LRU stack-distance) profiling over the TracedView
// address streams.
//
// The repo's memsim answers "how many cycles does this layout cost on this
// modeled machine?"; this module answers *why*: per kernel x layout it
// measures how soon each cache line / page is touched again (reuse
// distance = number of distinct granules touched since the previous access
// to the same granule), folds those distances into miss-ratio curves at a
// pinned ladder of modeled cache sizes, and tracks how much of every
// fetched line the kernel actually consumed. Because TracedView rebases
// addresses to a synthetic origin, every number here is a pure function of
// (layout, kernel) — bit-stable across machines, so CI can gate it.
//
// Two engines share the accounting:
//  * ReuseStack        — exact distances: hash map (granule -> last access
//                        time) + Fenwick tree over timestamps, O(log n)
//                        per access, with periodic timestamp compaction so
//                        memory stays O(working set).
//  * SampledReuseStack — SHARDS-style fixed-rate spatial sampling (Waldspurger
//                        et al., FAST'15): only granules whose hash passes a
//                        1/2^k filter are tracked, distances and counts are
//                        scaled by 2^k. Hash-based, therefore deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sfcvis/trace/export.hpp"

namespace sfcvis::locality {

/// Modeled cache capacities (bytes) the line-granularity miss-ratio curve
/// is evaluated at: 4 KiB .. 64 MiB, one point per power of two. Pinned so
/// reports from different runs/machines are cell-for-cell comparable.
[[nodiscard]] const std::vector<std::uint64_t>& line_capacity_ladder();

/// Modeled TLB reaches (entry counts) for the page-granularity curve:
/// 8 .. 1024 entries, one point per power of two. Reported as
/// capacity_bytes = entries * page_bytes.
[[nodiscard]] const std::vector<std::uint64_t>& page_entry_ladder();

/// Exact LRU stack-distance tracker over one granule size.
class ReuseStack {
 public:
  /// Returned for a first-touch (infinite-distance) access.
  static constexpr std::uint64_t kCold = ~0ull;

  /// Records an access to `granule` and returns its reuse distance: the
  /// number of distinct granules touched since the previous access to it,
  /// or kCold on first touch. An LRU cache holding C granules hits iff
  /// the distance is finite and < C.
  std::uint64_t touch(std::uint64_t granule);

  [[nodiscard]] std::uint64_t distinct() const noexcept { return last_.size(); }

 private:
  void fenwick_add(std::size_t pos, std::int64_t delta);
  [[nodiscard]] std::uint64_t fenwick_prefix(std::size_t pos) const;
  void compact();

  std::unordered_map<std::uint64_t, std::uint64_t> last_;  ///< granule -> time (1-based)
  std::vector<std::int32_t> fenwick_;  ///< 1-indexed over time; 1 = live position
  std::uint64_t time_ = 0;             ///< last assigned timestamp
};

/// SHARDS fixed-rate sampled stack: tracks the subset of granules whose
/// mixed hash passes a 1/2^rate_log2 filter and reports distances scaled
/// back to the full stream.
class SampledReuseStack {
 public:
  explicit SampledReuseStack(std::uint32_t rate_log2) : rate_log2_(rate_log2) {}

  struct Sample {
    bool sampled = false;           ///< granule passed the hash filter
    std::uint64_t distance = 0;     ///< estimated full-stream distance
    bool cold = false;              ///< first touch of a sampled granule
  };

  [[nodiscard]] Sample touch(std::uint64_t granule);

  [[nodiscard]] std::uint64_t weight() const noexcept { return 1ull << rate_log2_; }
  [[nodiscard]] std::uint32_t rate_log2() const noexcept { return rate_log2_; }
  [[nodiscard]] std::uint64_t sampled_distinct() const noexcept { return stack_.distinct(); }

 private:
  std::uint32_t rate_log2_;
  ReuseStack stack_;
};

/// Distance accounting for one granularity: log2 histogram plus exact
/// per-ladder miss counters (misses are counted directly at each pinned
/// capacity, not re-derived from the coarse histogram).
class GranularityCounters {
 public:
  static constexpr unsigned kHistBuckets = 40;

  /// `ladder_granules` must be ascending, deduplicated, and nonzero.
  explicit GranularityCounters(std::vector<std::uint64_t> ladder_granules);

  /// Records one access of weight `weight` (1 exact, 2^k sampled) with
  /// reuse distance `distance` in granules; pass ReuseStack::kCold for a
  /// first touch.
  void record(std::uint64_t distance, std::uint64_t weight);

  /// Folds the counters into the report slice. `granule_bytes` sizes the
  /// ladder capacities; `distinct` is the working set; `utilization` < 0
  /// means "not tracked".
  [[nodiscard]] trace::LocalityGranularity finish(std::uint32_t granule_bytes,
                                                  std::uint64_t distinct,
                                                  double utilization) const;

  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  [[nodiscard]] std::uint64_t cold() const noexcept { return cold_; }

 private:
  std::vector<std::uint64_t> ladder_;  ///< capacities in granules, ascending
  /// miss_rank_[j]: accesses whose distance reaches exactly the first j
  /// ladder entries (suffix-summed into per-entry misses at finish()).
  std::vector<std::uint64_t> miss_rank_;
  std::array<std::uint64_t, kHistBuckets> hist_{};
  std::uint64_t accesses_ = 0;
  std::uint64_t cold_ = 0;
};

/// Configuration for LocalityProfiler. Defaults match the modeled
/// platforms (64 B lines, 4 KiB pages) and the report ladders.
struct LocalityConfig {
  std::uint32_t line_bytes = 64;    ///< power of two in [8, 64]
  std::uint32_t page_bytes = 4096;  ///< power of two, >= line_bytes
  std::uint32_t sample_rate_log2 = 6;  ///< SHARDS rate 1/2^k
  bool exact = true;    ///< exact line+page stacks and line utilization
  bool sampled = true;  ///< SHARDS sampled line stack
  unsigned threads = 1; ///< simulated thread count (SinkProvider surface)
};

/// The locality observatory's front end: an AccessSink (feed it a traced
/// replay directly) and a SinkProvider (drop-in replacement for
/// memsim::Hierarchy in the *_traced kernel drivers). Replays are
/// single-threaded, so all simulated threads funnel into one merged
/// stream — exactly the interleaving the round-robin schedule defines.
class LocalityProfiler {
 public:
  explicit LocalityProfiler(LocalityConfig config = {});

  // AccessSink.
  void access(std::uint64_t addr, std::uint32_t bytes);

  // SinkProvider: cheap per-thread handles that forward to the profiler.
  class Sink {
   public:
    explicit Sink(LocalityProfiler* profiler) : profiler_(profiler) {}
    void access(std::uint64_t addr, std::uint32_t bytes) { profiler_->access(addr, bytes); }

   private:
    LocalityProfiler* profiler_;
  };
  [[nodiscard]] unsigned num_threads() const noexcept { return config_.threads; }
  [[nodiscard]] Sink sink(unsigned /*tid*/) noexcept { return Sink(this); }

  /// Folds everything into the report slice; `kernel`/`layout` label it.
  [[nodiscard]] trace::LocalityProfile profile(std::string kernel,
                                               std::string layout) const;

  [[nodiscard]] const LocalityConfig& config() const noexcept { return config_; }

 private:
  LocalityConfig config_;
  std::uint64_t accesses_ = 0;
  std::uint64_t bytes_ = 0;
  // exact engines
  ReuseStack line_stack_;
  ReuseStack page_stack_;
  GranularityCounters line_counters_;
  GranularityCounters page_counters_;
  std::unordered_map<std::uint64_t, std::uint64_t> line_use_;  ///< line -> byte mask
  // sampled engine
  SampledReuseStack sampled_stack_;
  GranularityCounters sampled_counters_;
};

/// The SHARDS estimate's error in `profile`: the largest |exact - sampled|
/// miss ratio over the capacities both line curves share (0 when the
/// profile has no sampled slice).
[[nodiscard]] double shards_error(const trace::LocalityProfile& profile);

}  // namespace sfcvis::locality
