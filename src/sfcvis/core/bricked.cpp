#include "sfcvis/core/bricked.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define SFCVIS_BRICKED_POSIX 1
#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#else
#define SFCVIS_BRICKED_POSIX 0
#endif

namespace sfcvis::core {

namespace {

constexpr std::uint64_t kInvalidCode = ~std::uint64_t{0};
constexpr std::uint32_t kInvalidRank = 0xffffffffu;
constexpr std::uint32_t kOverflowBit = 0x80000000u;
/// A stream-cache slot word: the resident brick's rank in the high 32 bits
/// (kInvalidRank = empty), then the loading bit, then the pin count.
constexpr std::uint64_t kLoadingBit = std::uint64_t{1} << 31;
constexpr std::uint64_t kPinMask = kLoadingBit - 1;
constexpr std::uint64_t slot_word(std::uint32_t rank, bool loading, std::uint64_t pins) {
  return (std::uint64_t{rank} << 32) | (loading ? kLoadingBit : 0) | pins;
}
constexpr std::uint32_t word_rank(std::uint64_t w) { return static_cast<std::uint32_t>(w >> 32); }
constexpr std::uint64_t kEmptyWord = slot_word(kInvalidRank, false, 0);
constexpr std::size_t kEvictionLogCap = 1024;
constexpr std::size_t kDenseRankLimit = std::size_t{1} << 22;
/// Stream-fallback budget when an mmap was requested but refused.
constexpr std::size_t kFallbackCacheBytes = std::size_t{64} << 20;

}  // namespace

/// Shared immutable-file backend: geometry tables, the file handle, and
/// (in stream mode) the pinned-LRU slot arena. A hit on a resident brick
/// and every release of an arena slot are lock-free: each slot's state is
/// one atomic word (rank, loading bit, pin count), and the rank -> slot
/// table and the LRU stamps are atomics too. mu serializes everything that
/// changes which brick a slot holds (misses, prefetch loads), waits on a
/// loading slot, overflow bricks, the eviction log and the fallback
/// strings. The counters are relaxed atomics, so the mmap path counts too.
struct BrickedVolume::Impl {
  // --- immutable after open ---
  BrickFileInfo info;
  std::string path;
  std::vector<std::uint32_t> lut;     ///< local voxel -> inner storage offset
  std::vector<std::uint64_t> codes;   ///< rank -> brick code (ascending)
  std::vector<std::uint32_t> rank_dense;           ///< code -> rank (small codespaces)
  std::unordered_map<std::uint64_t, std::uint32_t> rank_map;  ///< (large codespaces)
  bool dense_ranks = true;
  unsigned shift = 0;
  std::size_t elems = 0;

  // --- file ---
#if SFCVIS_BRICKED_POSIX
  int fd = -1;
  const unsigned char* map = nullptr;
  std::size_t map_len = 0;
#else
  std::FILE* file = nullptr;
  std::mutex io_mu;  ///< stdio seek+read must be atomic
#endif
  bool use_mmap = false;

  // --- stream cache (unused in mmap mode) ---
  /// One arena slot, alone on its cache line: hits on different slots
  /// write only their own slot's word and stamp.
  struct alignas(kCacheLineBytes) Slot {
    /// slot_word(rank, loading, pins). A pin is a CAS that expects the
    /// brick's rank and a clear loading bit, so it fails once mu has
    /// claimed the slot for another brick; a claim is a CAS that expects 0
    /// pins, so it fails once a hit has pinned the slot.
    std::atomic<std::uint64_t> word{kEmptyWord};
    std::atomic<std::uint64_t> stamp{0};  ///< LRU clock at the last hit or load
    std::atomic<bool> prefetched{false};  ///< loaded by prefetch, not yet hit
  };
  std::unique_ptr<float[]> arena;
  std::uint32_t slot_count = 0;
  std::unique_ptr<Slot[]> slots;
  /// rank -> arena slot holding it (kNoSlot = not resident). Written under
  /// mu; a lock-free reader confirms it against the slot word.
  std::unique_ptr<std::atomic<std::uint32_t>[]> slot_of;
  struct Overflow {
    std::unique_ptr<float[]> data;
    int pins = 0;
  };
  std::unordered_map<std::uint32_t, Overflow> overflow;  ///< guarded by mu
  std::uint32_t next_overflow_id = 0;                    ///< guarded by mu
  mutable std::mutex mu;
  std::condition_variable slot_cv;  ///< signalled when a loading slot turns ready

  // --- counters (relaxed atomics; snapshot needs no lock). The clock and
  // the hit counts move on every hit: they get a cache line of their own,
  // apart from the read-mostly fields above and the miss-path state below.
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> clock{0};
  std::atomic<std::uint64_t> hits{0}, prefetch_hits{0};
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> misses{0}, evictions{0};
  std::atomic<std::uint64_t> overflow_bricks{0}, prefetch_issued{0};
  // drain watermarks (guarded by mu)
  std::uint64_t drained[6] = {0, 0, 0, 0, 0, 0};
  std::string io_error;  ///< guarded by mu; first failure, sticky
  std::string degrade;   ///< guarded by mu; first budget/mmap fallback
  std::vector<std::uint64_t> eviction_log;  ///< guarded by mu; capped

  // --- at() convenience pin ring (guarded by ring_mu; a ring miss takes
  // mu inside it, so the lock order is ring_mu -> mu, never the reverse) ---
  struct RingEntry {
    std::uint64_t code = kInvalidCode;
    const float* data = nullptr;
    std::uint32_t slot = kNoSlot;
    bool valid = false;
  };
  mutable std::mutex ring_mu;
  mutable RingEntry ring[8];
  mutable unsigned ring_rr = 0;

  // --- prefetch thread ---
  std::thread prefetcher;
  std::deque<std::uint32_t> pf_queue;  ///< brick ranks; guarded by mu
  std::condition_variable pf_cv;
  bool stop = false;  ///< guarded by mu
  std::uint32_t prefetch_depth = 0;

  ~Impl() {
    if (prefetcher.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu);
        stop = true;
      }
      pf_cv.notify_all();
      prefetcher.join();
    }
#if SFCVIS_BRICKED_POSIX
    if (map != nullptr) {
      ::munmap(const_cast<unsigned char*>(map), map_len);
    }
    if (fd >= 0) {
      ::close(fd);
    }
#else
    if (file != nullptr) {
      std::fclose(file);
    }
#endif
  }

  [[nodiscard]] std::uint32_t rank_of(std::uint64_t code) const noexcept {
    if (dense_ranks) {
      return code < rank_dense.size() ? rank_dense[code] : kInvalidRank;
    }
    const auto it = rank_map.find(code);
    return it == rank_map.end() ? kInvalidRank : it->second;
  }

  void note_io_error(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (io_error.empty()) {
      io_error = what;
    }
  }

  /// Reads brick `rank` into `dst` (elems floats). A failed or short read
  /// zero-fills and records the first error — degrade, never crash.
  void read_brick(std::uint64_t rank, float* dst) noexcept {
    const std::size_t bytes = elems * sizeof(float);
    const std::uint64_t off = info.payload_offset + rank * bytes;
    std::size_t got = 0;
#if SFCVIS_BRICKED_POSIX
    while (got < bytes) {
      const ::ssize_t r = ::pread(fd, reinterpret_cast<char*>(dst) + got, bytes - got,
                                  static_cast<::off_t>(off + got));
      if (r <= 0) {
        if (r < 0 && errno == EINTR) {
          continue;
        }
        break;
      }
      got += static_cast<std::size_t>(r);
    }
#else
    {
      std::lock_guard<std::mutex> lock(io_mu);
      if (std::fseek(file, static_cast<long>(off), SEEK_SET) == 0) {
        got = std::fread(dst, 1, bytes, file) ;
      }
    }
#endif
    if (got != bytes) {
      std::memset(reinterpret_cast<char*>(dst) + got, 0, bytes - got);
      note_io_error("short read of brick " + std::to_string(rank) + " (got " +
                    std::to_string(got) + " of " + std::to_string(bytes) +
                    " bytes); brick zero-filled");
    }
  }

  /// LRU victim under mu: an empty slot, else the least-recently-stamped
  /// ready slot with no pins; `seen` gets its word. kNoSlot when every
  /// slot is pinned or loading.
  [[nodiscard]] std::uint32_t pick_victim_locked(std::uint64_t& seen) const noexcept {
    std::uint32_t best = kNoSlot;
    std::uint64_t best_stamp = ~std::uint64_t{0};
    for (std::uint32_t n = 0; n < slot_count; ++n) {
      const Slot& s = slots[n];
      const std::uint64_t w = s.word.load(std::memory_order_relaxed);
      if (w == kEmptyWord) {
        seen = w;
        return n;
      }
      if ((w & (kLoadingBit | kPinMask)) == 0) {
        const std::uint64_t stamp = s.stamp.load(std::memory_order_relaxed);
        if (stamp < best_stamp) {
          best_stamp = stamp;
          best = n;
          seen = w;
        }
      }
    }
    return best;
  }

  /// Under mu: takes the LRU victim for brick `rank`, loading and holding
  /// `pins` pins, and evicts whatever it held. kNoSlot when every slot is
  /// pinned or loading.
  [[nodiscard]] std::uint32_t claim_slot_locked(std::uint32_t rank, std::uint64_t pins) {
    for (;;) {
      std::uint64_t seen = 0;
      const std::uint32_t victim = pick_victim_locked(seen);
      if (victim == kNoSlot) {
        return kNoSlot;
      }
      Slot& s = slots[victim];
      // Fails when a lock-free hit pinned the victim since the pick: pick
      // again. acquire: the last holder's reads of the old brick happen
      // before this load overwrites it.
      if (!s.word.compare_exchange_strong(seen, slot_word(rank, true, pins),
                                          std::memory_order_acquire)) {
        continue;
      }
      const std::uint32_t evicted = word_rank(seen);
      if (evicted != kInvalidRank) {
        slot_of[evicted].store(kNoSlot, std::memory_order_relaxed);
        evictions.fetch_add(1, std::memory_order_relaxed);
        if (eviction_log.size() < kEvictionLogCap) {
          eviction_log.push_back(codes[evicted]);
        }
      }
      s.prefetched.store(false, std::memory_order_relaxed);
      slot_of[rank].store(victim, std::memory_order_relaxed);
      return victim;
    }
  }

  /// Under mu, after the unlocked read into a claimed slot: stamps it,
  /// clears the loading bit and wakes the threads waiting for it.
  void finish_load_locked(Slot& s, bool prefetched) {
    s.stamp.store(clock.fetch_add(1, std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    s.prefetched.store(prefetched, std::memory_order_relaxed);
    // release: a hit that pins the slot sees the brick's bytes.
    s.word.fetch_and(~kLoadingBit, std::memory_order_release);
    slot_cv.notify_all();
  }

  /// The bookkeeping of a hit on pinned slot `s`, the same with or
  /// without mu: a fresh LRU stamp, the hit and prefetch-hit counts.
  void note_hit(Slot& s) noexcept {
    s.stamp.store(clock.fetch_add(1, std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    hits.fetch_add(1, std::memory_order_relaxed);
    if (s.prefetched.load(std::memory_order_relaxed) &&
        s.prefetched.exchange(false, std::memory_order_relaxed)) {
      prefetch_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] BrickRef slot_ref(std::uint32_t slot, std::uint32_t rank) const noexcept {
    return BrickRef{arena.get() + std::size_t{slot} * elems, slot, rank};
  }

  /// Demand acquire in stream mode (mmap handled by the caller): a
  /// resident, ready brick is pinned without the lock.
  [[nodiscard]] BrickRef acquire_stream(std::uint32_t rank) noexcept {
    const std::uint32_t n = slot_of[rank].load(std::memory_order_relaxed);
    if (n != kNoSlot) {
      Slot& s = slots[n];
      std::uint64_t w = s.word.load(std::memory_order_relaxed);
      // acquire: pairs with finish_load_locked's release.
      while (word_rank(w) == rank && (w & kLoadingBit) == 0) {
        if (s.word.compare_exchange_weak(w, w + 1, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
          note_hit(s);
          return slot_ref(n, rank);
        }
      }
    }
    return acquire_locked(rank);
  }

  /// The demand acquire's slow path: not resident, still loading, or
  /// evicted between the table read and the pin.
  [[nodiscard]] BrickRef acquire_locked(std::uint32_t rank) noexcept {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      const std::uint32_t n = slot_of[rank].load(std::memory_order_relaxed);
      if (n != kNoSlot) {
        Slot& s = slots[n];
        if ((s.word.load(std::memory_order_acquire) & kLoadingBit) != 0) {
          // Another thread is streaming this brick in; wait, then re-find
          // (the slot can be repurposed between wake-ups).
          slot_cv.wait(lock);
          continue;
        }
        // Under mu a ready slot keeps its brick; only its pins can move.
        s.word.fetch_add(1, std::memory_order_acquire);
        note_hit(s);
        return slot_ref(n, rank);
      }

      misses.fetch_add(1, std::memory_order_relaxed);
      enqueue_prefetch_locked(rank);
      const std::uint32_t victim = claim_slot_locked(rank, 1);
      if (victim == kNoSlot) {
        // Every slot is pinned or loading: the budget cannot hold this
        // traversal's working set. Degrade to a one-off heap brick with a
        // recorded reason instead of failing or deadlocking.
        if (degrade.empty()) {
          degrade = "brick cache budget too small for the concurrent working set (" +
                    std::to_string(slot_count) +
                    " slots all pinned); overflowing to heap bricks";
        }
        const std::uint32_t id = next_overflow_id++;
        overflow_bricks.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        std::unique_ptr<float[]> buf;
        try {
          buf.reset(new float[elems]);
        } catch (const std::bad_alloc&) {
          note_io_error("allocation of an overflow brick failed; serving zeros");
          return BrickRef{zero_brick(), kNoSlot, rank};
        }
        read_brick(rank, buf.get());
        lock.lock();
        const float* data = buf.get();
        overflow[id] = Overflow{std::move(buf), 1};
        return BrickRef{data, kOverflowBit | id, rank};
      }

      float* dst = arena.get() + std::size_t{victim} * elems;
      lock.unlock();
      read_brick(rank, dst);
      lock.lock();
      finish_load_locked(slots[victim], false);
      return BrickRef{dst, victim, rank};
    }
  }

  void release(std::uint32_t slot) noexcept {
    if (slot == kNoSlot) {
      return;
    }
    if ((slot & kOverflowBit) != 0) {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = overflow.find(slot & ~kOverflowBit);
      if (it != overflow.end() && --it->second.pins == 0) {
        overflow.erase(it);
      }
      return;
    }
    if (slot >= slot_count) {
      return;
    }
    // A slot with no pins stays as it is: an extra release must not borrow
    // from the loading bit or the rank. release: this holder's reads of
    // the brick happen before a later claim overwrites it.
    std::atomic<std::uint64_t>& word = slots[slot].word;
    std::uint64_t w = word.load(std::memory_order_relaxed);
    while ((w & kPinMask) != 0 &&
           !word.compare_exchange_weak(w, w - 1, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Queues the next prefetch_depth bricks (file curve order) behind a
  /// demand miss. Caller holds mu.
  void enqueue_prefetch_locked(std::uint32_t rank) {
    if (prefetch_depth == 0) {
      return;
    }
    bool queued = false;
    for (std::uint32_t d = 1; d <= prefetch_depth; ++d) {
      const std::uint64_t next = std::uint64_t{rank} + d;
      if (next >= codes.size()) {
        break;
      }
      if (pf_queue.size() >= 64) {
        break;
      }
      pf_queue.push_back(static_cast<std::uint32_t>(next));
      queued = true;
    }
    if (queued) {
      pf_cv.notify_one();
    }
  }

  void prefetch_loop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      pf_cv.wait(lock, [&] { return stop || !pf_queue.empty(); });
      if (stop) {
        return;
      }
      const std::uint32_t rank = pf_queue.front();
      pf_queue.pop_front();
      if (slot_of[rank].load(std::memory_order_relaxed) != kNoSlot) {
        continue;  // already in (or on its way in)
      }
      const std::uint32_t victim = claim_slot_locked(rank, 0);
      if (victim == kNoSlot) {
        continue;  // fully pinned: never overflow for speculation
      }
      float* dst = arena.get() + std::size_t{victim} * elems;
      lock.unlock();
      read_brick(rank, dst);
      lock.lock();
      prefetch_issued.fetch_add(1, std::memory_order_relaxed);
      finish_load_locked(slots[victim], true);
    }
  }

  /// All-zero brick served when even the degrade paths cannot produce
  /// data; allocated once at open so the pointer is always valid.
  [[nodiscard]] const float* zero_brick() const noexcept { return zeros.data(); }
  std::vector<float> zeros;
};

BrickedVolume BrickedVolume::open(const std::string& path, const BrickOpenOptions& opts) {
  BrickedVolume v;
  auto impl = std::make_shared<Impl>();
  impl->info = read_brick_file_header(path);  // throws on corrupt/truncated
  impl->path = path;
  try {
    impl->lut = detail::brick_inner_offsets(impl->info.brick_edge, impl->info.inner_kind,
                                            impl->info.inner_tile, impl->info.interleave);
  } catch (const std::exception& ex) {
    throw std::runtime_error("brick file \"" + path +
                             "\": invalid inner layout: " + ex.what());
  }
  impl->codes = detail::brick_codes(impl->info.brick_grid());
  impl->shift = log2_pow2(impl->info.brick_edge);
  impl->elems = impl->info.brick_elems();
  impl->zeros.assign(impl->elems, 0.0f);

  const std::uint64_t max_code = impl->codes.back();
  impl->dense_ranks = max_code + 1 <= kDenseRankLimit;
  if (impl->dense_ranks) {
    impl->rank_dense.assign(static_cast<std::size_t>(max_code) + 1, kInvalidRank);
    for (std::size_t r = 0; r < impl->codes.size(); ++r) {
      impl->rank_dense[impl->codes[r]] = static_cast<std::uint32_t>(r);
    }
  } else {
    impl->rank_map.reserve(impl->codes.size());
    for (std::size_t r = 0; r < impl->codes.size(); ++r) {
      impl->rank_map.emplace(impl->codes[r], static_cast<std::uint32_t>(r));
    }
  }

#if SFCVIS_BRICKED_POSIX
  impl->fd = ::open(path.c_str(), O_RDONLY);
  if (impl->fd < 0) {
    throw std::runtime_error("brick file \"" + path + "\": cannot open for reading");
  }
#else
  impl->file = std::fopen(path.c_str(), "rb");
  if (impl->file == nullptr) {
    throw std::runtime_error("brick file \"" + path + "\": cannot open for reading");
  }
#endif

  const std::size_t payload_bytes =
      impl->codes.size() * impl->elems * sizeof(float);
  std::size_t budget = opts.cache_bytes;
  if (budget == 0 && !opts.force_stream) {
#if SFCVIS_BRICKED_POSIX
    const std::size_t len =
        static_cast<std::size_t>(impl->info.expected_file_size());
    void* m = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, impl->fd, 0);
    if (m != MAP_FAILED) {
      impl->map = static_cast<const unsigned char*>(m);
      impl->map_len = len;
      impl->use_mmap = true;
    } else {
      impl->degrade = "mmap failed (errno " + std::to_string(errno) +
                      "); falling back to a streamed brick cache";
      budget = std::min(kFallbackCacheBytes, payload_bytes);
    }
#else
    impl->degrade = "mmap unavailable on this platform; using a streamed brick cache";
    budget = std::min(kFallbackCacheBytes, payload_bytes);
#endif
  } else if (budget == 0) {
    budget = std::min(kFallbackCacheBytes, payload_bytes);
  }

  if (!impl->use_mmap) {
    const std::size_t brick_bytes = impl->elems * sizeof(float);
    std::size_t slot_count = budget / brick_bytes;
    if (slot_count == 0) {
      slot_count = 1;
      impl->degrade = "brick cache budget (" + std::to_string(budget) +
                      " bytes) below one brick (" + std::to_string(brick_bytes) +
                      " bytes); degraded to a single slot";
    }
    slot_count = std::min(slot_count, impl->codes.size());
    impl->slot_count = static_cast<std::uint32_t>(slot_count);
    impl->slots.reset(new Impl::Slot[slot_count]);
    impl->slot_of.reset(new std::atomic<std::uint32_t>[impl->codes.size()]);
    for (std::size_t r = 0; r < impl->codes.size(); ++r) {
      impl->slot_of[r].store(kNoSlot, std::memory_order_relaxed);
    }
    impl->arena.reset(new float[slot_count * impl->elems]);
    impl->prefetch_depth = opts.prefetch_depth;
    if (impl->prefetch_depth > 0) {
      Impl* raw = impl.get();
      impl->prefetcher = std::thread([raw] { raw->prefetch_loop(); });
    }
  }

  v.impl_ = std::move(impl);
  return v;
}

const Extents3D& BrickedVolume::extents() const noexcept {
  assert(impl_ != nullptr);
  return impl_->info.extents;
}

std::size_t BrickedVolume::capacity() const noexcept {
  assert(impl_ != nullptr);
  return impl_->use_mmap ? impl_->codes.size() * impl_->elems
                         : std::size_t{impl_->slot_count} * impl_->elems;
}

const BrickFileInfo& BrickedVolume::info() const noexcept {
  assert(impl_ != nullptr);
  return impl_->info;
}

bool BrickedVolume::mmapped() const noexcept {
  assert(impl_ != nullptr);
  return impl_->use_mmap;
}

const std::uint32_t* BrickedVolume::inner_offsets() const noexcept {
  assert(impl_ != nullptr);
  return impl_->lut.data();
}

unsigned BrickedVolume::edge_shift() const noexcept {
  assert(impl_ != nullptr);
  return impl_->shift;
}

BrickedVolume::BrickRef BrickedVolume::acquire_brick(std::uint64_t code) const noexcept {
  Impl& im = *impl_;
  const std::uint32_t rank = im.rank_of(code);
  if (rank == kInvalidRank) {
    assert(false && "brick code outside the brick grid");
    return BrickRef{im.zero_brick(), kNoSlot, 0};
  }
  if (im.use_mmap) {
#if SFCVIS_BRICKED_POSIX
    im.hits.fetch_add(1, std::memory_order_relaxed);
    const unsigned char* p =
        im.map + im.info.payload_offset + std::uint64_t{rank} * im.elems * sizeof(float);
    return BrickRef{static_cast<const float*>(static_cast<const void*>(p)), kNoSlot, rank};
#endif
  }
  return im.acquire_stream(rank);
}

void BrickedVolume::release_brick(std::uint32_t slot) const noexcept {
  if (slot == kNoSlot) {
    return;
  }
  impl_->release(slot);
}

float& BrickedVolume::at(std::uint32_t, std::uint32_t, std::uint32_t) {
  throw_read_only("at");
}

const float& BrickedVolume::at(std::uint32_t i, std::uint32_t j,
                               std::uint32_t k) const noexcept {
  Impl& im = *impl_;
  assert(im.info.extents.contains(i, j, k));
  const unsigned s = im.shift;
  const std::uint32_t mask = (1u << s) - 1;
  const std::uint64_t code = morton_encode_3d(i >> s, j >> s, k >> s);
  const std::size_t off =
      im.lut[(i & mask) + (static_cast<std::size_t>(j & mask) << s) +
             (static_cast<std::size_t>(k & mask) << (2 * s))];
  if (im.use_mmap) {
    return acquire_brick(code).data[off];
  }
  // Streamed: serve from the convenience pin ring (lock order ring_mu ->
  // mu; an acquire below that misses takes mu internally).
  std::lock_guard<std::mutex> lock(im.ring_mu);
  for (const Impl::RingEntry& e : im.ring) {
    if (e.valid && e.code == code) {
      return e.data[off];
    }
  }
  const BrickRef ref = acquire_brick(code);
  Impl::RingEntry& e = im.ring[im.ring_rr];
  im.ring_rr = (im.ring_rr + 1) % std::size(im.ring);
  if (e.valid) {
    impl_->release(e.slot);
  }
  e = Impl::RingEntry{code, ref.data, ref.slot, true};
  return e.data[off];
}

const float& BrickedVolume::at_clamped(std::int64_t i, std::int64_t j,
                                       std::int64_t k) const noexcept {
  const Extents3D& e = extents();
  const auto ci = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(i, 0, static_cast<std::int64_t>(e.nx) - 1));
  const auto cj = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(j, 0, static_cast<std::int64_t>(e.ny) - 1));
  const auto ck = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(k, 0, static_cast<std::int64_t>(e.nz) - 1));
  return at(ci, cj, ck);
}

BrickCacheReport BrickedVolume::cache_report() const {
  Impl& im = *impl_;
  BrickCacheReport r;
  r.hits = im.hits.load(std::memory_order_relaxed);
  r.misses = im.misses.load(std::memory_order_relaxed);
  r.evictions = im.evictions.load(std::memory_order_relaxed);
  r.overflow_bricks = im.overflow_bricks.load(std::memory_order_relaxed);
  r.prefetch_issued = im.prefetch_issued.load(std::memory_order_relaxed);
  r.prefetch_hits = im.prefetch_hits.load(std::memory_order_relaxed);
  r.slot_count = im.slot_count;
  r.mmapped = im.use_mmap;
  std::lock_guard<std::mutex> lock(im.mu);
  r.io_error = im.io_error;
  r.degrade = im.degrade;
  return r;
}

std::vector<std::uint64_t> BrickedVolume::eviction_log() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->eviction_log;
}

BrickCacheReport BrickedVolume::drain_cache_deltas() const {
  Impl& im = *impl_;
  BrickCacheReport r;
  std::lock_guard<std::mutex> lock(im.mu);
  const std::uint64_t now[6] = {
      im.hits.load(std::memory_order_relaxed),
      im.misses.load(std::memory_order_relaxed),
      im.evictions.load(std::memory_order_relaxed),
      im.overflow_bricks.load(std::memory_order_relaxed),
      im.prefetch_issued.load(std::memory_order_relaxed),
      im.prefetch_hits.load(std::memory_order_relaxed),
  };
  r.hits = now[0] - im.drained[0];
  r.misses = now[1] - im.drained[1];
  r.evictions = now[2] - im.drained[2];
  r.overflow_bricks = now[3] - im.drained[3];
  r.prefetch_issued = now[4] - im.drained[4];
  r.prefetch_hits = now[5] - im.drained[5];
  for (int n = 0; n < 6; ++n) {
    im.drained[n] = now[n];
  }
  r.slot_count = im.slot_count;
  r.mmapped = im.use_mmap;
  r.io_error = im.io_error;
  r.degrade = im.degrade;
  return r;
}

void BrickedVolume::throw_read_only(const char* op) {
  throw std::logic_error(std::string("BrickedVolume::") + op +
                         ": a bricked volume is a read-only view of its brick file; "
                         "convert_to an in-core layout to get writable storage, or "
                         "re-pack the file with pack_brick_file");
}

}  // namespace sfcvis::core
