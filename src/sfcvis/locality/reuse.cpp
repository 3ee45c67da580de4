#include "sfcvis/locality/reuse.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace sfcvis::locality {

namespace {

/// SplitMix64 finalizer as a stateless hash — the SHARDS sampling filter
/// must be a pure function of the granule id so sampling is deterministic.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;

}  // namespace

const std::vector<std::uint64_t>& line_capacity_ladder() {
  static const std::vector<std::uint64_t> ladder = {
      4 * kKiB,   8 * kKiB,   16 * kKiB,  32 * kKiB, 64 * kKiB,
      128 * kKiB, 256 * kKiB, 512 * kKiB, 1 * kMiB,  2 * kMiB,
      4 * kMiB,   8 * kMiB,   16 * kMiB,  32 * kMiB, 64 * kMiB,
  };
  return ladder;
}

const std::vector<std::uint64_t>& page_entry_ladder() {
  static const std::vector<std::uint64_t> ladder = {8, 16, 32, 64, 128, 256, 512, 1024};
  return ladder;
}

// ---------------------------------------------------------------------------
// ReuseStack
// ---------------------------------------------------------------------------
// The Fenwick tree marks, for every live granule, the timestamp of its most
// recent access with a 1. The reuse distance of an access at time t whose
// previous access was at time t0 is then the number of 1s in (t0, t] minus
// the granule's own mark — i.e. live-count minus prefix(t0). Timestamps
// grow with every access, so the tree is periodically compacted: live
// entries are re-stamped 1..n in order, which preserves every distance.

void ReuseStack::fenwick_add(std::size_t pos, std::int64_t delta) {
  for (; pos < fenwick_.size(); pos += pos & (~pos + 1)) {
    fenwick_[pos] = static_cast<std::int32_t>(fenwick_[pos] + delta);
  }
}

std::uint64_t ReuseStack::fenwick_prefix(std::size_t pos) const {
  std::int64_t sum = 0;
  for (; pos > 0; pos -= pos & (~pos + 1)) {
    sum += fenwick_[pos];
  }
  return static_cast<std::uint64_t>(sum);
}

void ReuseStack::compact() {
  const std::size_t n = last_.size();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_time;  // (time, granule)
  by_time.reserve(n);
  for (const auto& [granule, time] : last_) {
    by_time.emplace_back(time, granule);
  }
  std::sort(by_time.begin(), by_time.end());
  const std::size_t capacity = std::max<std::size_t>(1024, 4 * n + 16);
  fenwick_.assign(capacity, 0);
  for (std::size_t i = 0; i < n; ++i) {
    last_[by_time[i].second] = i + 1;
    fenwick_[i + 1] = 1;
  }
  // O(capacity) Fenwick build over the all-ones prefix.
  for (std::size_t i = 1; i < capacity; ++i) {
    const std::size_t parent = i + (i & (~i + 1));
    if (parent < capacity) {
      fenwick_[parent] = static_cast<std::int32_t>(fenwick_[parent] + fenwick_[i]);
    }
  }
  time_ = n;
}

std::uint64_t ReuseStack::touch(std::uint64_t granule) {
  std::uint64_t distance = kCold;
  if (const auto it = last_.find(granule); it != last_.end()) {
    distance = last_.size() - fenwick_prefix(it->second);
    fenwick_add(it->second, -1);
    last_.erase(it);
  }
  if (time_ + 1 >= fenwick_.size()) {
    compact();
  }
  ++time_;
  fenwick_add(time_, +1);
  last_.emplace(granule, time_);
  return distance;
}

// ---------------------------------------------------------------------------
// SampledReuseStack
// ---------------------------------------------------------------------------

SampledReuseStack::Sample SampledReuseStack::touch(std::uint64_t granule) {
  Sample s;
  if ((mix64(granule) & (weight() - 1)) != 0) {
    return s;
  }
  s.sampled = true;
  const std::uint64_t raw = stack_.touch(granule);
  if (raw == ReuseStack::kCold) {
    s.cold = true;
  } else {
    // SHARDS: a distance of d among the 1/2^k sampled granules estimates
    // d * 2^k distinct granules in the full stream.
    s.distance = raw * weight();
  }
  return s;
}

// ---------------------------------------------------------------------------
// GranularityCounters
// ---------------------------------------------------------------------------

GranularityCounters::GranularityCounters(std::vector<std::uint64_t> ladder_granules)
    : ladder_(std::move(ladder_granules)), miss_rank_(ladder_.size() + 1, 0) {}

void GranularityCounters::record(std::uint64_t distance, std::uint64_t weight) {
  accesses_ += weight;
  if (distance == ReuseStack::kCold) {
    cold_ += weight;
    return;
  }
  const unsigned bucket = std::min<unsigned>(
      kHistBuckets - 1, distance == 0 ? 0u : static_cast<unsigned>(std::bit_width(distance)));
  hist_[bucket] += weight;
  // Entry i (capacity c_i granules) misses iff distance >= c_i; rank j is
  // how many ladder entries this access defeats.
  const std::size_t rank = static_cast<std::size_t>(
      std::upper_bound(ladder_.begin(), ladder_.end(), distance) - ladder_.begin());
  miss_rank_[rank] += weight;
}

trace::LocalityGranularity GranularityCounters::finish(std::uint32_t granule_bytes,
                                                       std::uint64_t distinct,
                                                       double utilization) const {
  trace::LocalityGranularity g;
  g.granule_bytes = granule_bytes;
  g.accesses = accesses_;
  g.distinct = distinct;
  g.cold = cold_;
  g.utilization = utilization;
  unsigned last = 0;
  for (unsigned b = 0; b < kHistBuckets; ++b) {
    if (hist_[b] != 0) {
      last = b + 1;
    }
  }
  g.reuse_log2.assign(hist_.begin(), hist_.begin() + last);
  // Suffix-sum the rank counters into per-capacity misses (cold misses at
  // every size).
  std::uint64_t suffix = 0;
  std::vector<std::uint64_t> misses(ladder_.size(), 0);
  for (std::size_t i = ladder_.size(); i-- > 0;) {
    suffix += miss_rank_[i + 1];
    misses[i] = cold_ + suffix;
  }
  g.mrc.reserve(ladder_.size());
  for (std::size_t i = 0; i < ladder_.size(); ++i) {
    trace::LocalityMissPoint p;
    p.capacity_bytes = ladder_[i] * granule_bytes;
    p.miss_ratio = accesses_ == 0
                       ? 0.0
                       : static_cast<double>(misses[i]) / static_cast<double>(accesses_);
    g.mrc.push_back(p);
  }
  return g;
}

// ---------------------------------------------------------------------------
// LocalityProfiler
// ---------------------------------------------------------------------------

namespace {

/// Ladder of byte capacities -> deduplicated ascending granule counts.
std::vector<std::uint64_t> granule_ladder(const std::vector<std::uint64_t>& capacities,
                                          std::uint64_t granule_bytes) {
  if (granule_bytes == 0) {
    throw std::invalid_argument("locality: granule size must be nonzero");
  }
  std::vector<std::uint64_t> granules;
  granules.reserve(capacities.size());
  for (const std::uint64_t c : capacities) {
    granules.push_back(std::max<std::uint64_t>(1, c / granule_bytes));
  }
  std::sort(granules.begin(), granules.end());
  granules.erase(std::unique(granules.begin(), granules.end()), granules.end());
  return granules;
}

}  // namespace

LocalityProfiler::LocalityProfiler(LocalityConfig config)
    : config_(std::move(config)),
      line_counters_(granule_ladder(line_capacity_ladder(), config_.line_bytes)),
      page_counters_(page_entry_ladder()),
      sampled_stack_(config_.sample_rate_log2),
      sampled_counters_(granule_ladder(line_capacity_ladder(), config_.line_bytes)) {
  if (!std::has_single_bit(config_.line_bytes) || config_.line_bytes < 8 ||
      config_.line_bytes > 64) {
    throw std::invalid_argument("locality: line_bytes must be a power of two in [8, 64]");
  }
  if (!std::has_single_bit(config_.page_bytes) || config_.page_bytes < config_.line_bytes) {
    throw std::invalid_argument("locality: page_bytes must be a power of two >= line_bytes");
  }
  if (config_.threads == 0) {
    throw std::invalid_argument("locality: threads must be >= 1");
  }
}

void LocalityProfiler::access(std::uint64_t addr, std::uint32_t bytes) {
  if (bytes == 0) {
    return;
  }
  ++accesses_;
  bytes_ += bytes;
  const std::uint64_t line_bytes = config_.line_bytes;
  const std::uint64_t first_line = addr / line_bytes;
  const std::uint64_t last_line = (addr + bytes - 1) / line_bytes;
  for (std::uint64_t line = first_line; line <= last_line; ++line) {
    if (config_.exact) {
      line_counters_.record(line_stack_.touch(line), 1);
      const std::uint64_t line_base = line * line_bytes;
      const std::uint64_t begin = std::max<std::uint64_t>(addr, line_base) - line_base;
      const std::uint64_t end =
          std::min<std::uint64_t>(addr + bytes, line_base + line_bytes) - line_base;
      const std::uint64_t span = end - begin;
      const std::uint64_t mask =
          (span >= 64 ? ~0ull : ((1ull << span) - 1)) << begin;
      line_use_[line] |= mask;
    }
    if (config_.sampled) {
      const SampledReuseStack::Sample s = sampled_stack_.touch(line);
      if (s.sampled) {
        sampled_counters_.record(s.cold ? ReuseStack::kCold : s.distance,
                                 sampled_stack_.weight());
      }
    }
  }
  if (config_.exact) {
    const std::uint64_t first_page = addr / config_.page_bytes;
    const std::uint64_t last_page = (addr + bytes - 1) / config_.page_bytes;
    for (std::uint64_t page = first_page; page <= last_page; ++page) {
      page_counters_.record(page_stack_.touch(page), 1);
    }
  }
}

trace::LocalityProfile LocalityProfiler::profile(std::string kernel,
                                                 std::string layout) const {
  trace::LocalityProfile p;
  p.kernel = std::move(kernel);
  p.layout = std::move(layout);
  p.accesses = accesses_;
  p.bytes = bytes_;
  double utilization = -1.0;
  if (config_.exact && !line_use_.empty()) {
    std::uint64_t used = 0;
    for (const auto& [line, mask] : line_use_) {
      used += static_cast<std::uint64_t>(std::popcount(mask));
    }
    utilization = static_cast<double>(used) /
                  (static_cast<double>(line_use_.size()) *
                   static_cast<double>(config_.line_bytes));
  }
  p.line = line_counters_.finish(config_.line_bytes, line_stack_.distinct(), utilization);
  p.page = page_counters_.finish(config_.page_bytes, page_stack_.distinct(), -1.0);
  p.sampled_available = config_.sampled;
  p.sample_rate_log2 = config_.sample_rate_log2;
  if (config_.sampled) {
    // The sampled working set is itself an estimate: each sampled granule
    // stands for 2^k granules of the full stream.
    p.sampled = sampled_counters_.finish(
        config_.line_bytes, sampled_stack_.sampled_distinct() * sampled_stack_.weight(),
        -1.0);
  }
  return p;
}

double shards_error(const trace::LocalityProfile& profile) {
  double worst = 0.0;
  for (const trace::LocalityMissPoint& exact : profile.line.mrc) {
    for (const trace::LocalityMissPoint& sampled : profile.sampled.mrc) {
      if (sampled.capacity_bytes == exact.capacity_bytes) {
        worst = std::max(worst, std::abs(exact.miss_ratio - sampled.miss_ratio));
      }
    }
  }
  return worst;
}

}  // namespace sfcvis::locality
