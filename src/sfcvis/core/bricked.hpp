// BrickedVolume: the out-of-core AnyVolume backend.
//
// A bricked volume is an SFCBRK01 brick file (core/brick_file.hpp) opened
// read-only. Bricks live on disk in ascending brick-grid Morton order;
// reads go through either
//
//  * an mmap of the whole file (cache_bytes == 0, the default): the OS
//    page cache is the brick cache, every access is lock-free; or
//  * a streamed LRU brick cache of a configurable byte budget: bricks are
//    pread into a fixed slot arena, pinned while a view holds them, and
//    evicted least-recently-used. An optional prefetch thread loads the
//    next bricks along the file's curve order behind every demand miss.
//
// Degrade-don't-fail throughout, mirroring perfmon::OpenFailure: an mmap
// refusal falls back to streaming with the reason recorded, a budget below
// one brick still runs (one slot + a recorded degrade message), an IO
// error mid-stream yields a zeroed brick and a sticky io_error string —
// never a crash. Only a structurally corrupt file (bad magic/size) throws,
// at open(), with the path and the defect.
//
// Views and the row gather that cross brick boundaries locate the
// neighbouring brick with the masked ripple-add steps of core/morton.hpp
// (morton_step_*; Holzmüller, arXiv:1710.06384) applied to the
// *brick-grid* Morton code — one add per hop instead of a decode +
// re-encode of the full coordinate.
//
// BrickedVolume is NOT a Layout3D grid: it has no layout() and no single
// contiguous data() storage. It opts into the VolumeBackend concept, and
// kernels reach it through the make_read_view, make_traced_view and
// gather_row overloads defined here.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sfcvis/core/align.hpp"
#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/morton.hpp"
#include "sfcvis/core/traced_view.hpp"

namespace sfcvis::core {

/// How an exec::ExecutionContext opens out-of-core volumes
/// (ExecOptions::memory, ExecutionContext::open_bricked).
struct MemoryPolicy {
  /// Brick-cache budget in bytes. 0 = mmap the brick file and let the page
  /// cache decide; > 0 = a streamed LRU cache of that many bytes.
  std::size_t brick_cache_bytes = 0;
};

/// Open-time knobs for BrickedVolume::open.
struct BrickOpenOptions {
  /// Brick-cache budget in bytes. 0 = mmap the whole file (stream fallback
  /// with a recorded reason when the OS refuses); > 0 = streamed LRU cache
  /// of floor(cache_bytes / brick_bytes) slots, minimum one slot (a budget
  /// below one brick degrades to one slot with a recorded message).
  std::size_t cache_bytes = 0;
  /// Bricks to prefetch ahead (in file curve order) behind each demand
  /// miss, on a background thread. 0 = no prefetch thread. Stream mode
  /// only; under mmap the OS readahead plays this role.
  std::uint32_t prefetch_depth = 0;
  /// Skip the mmap attempt even when cache_bytes == 0 (fault-injection
  /// tests and IO-path benchmarks use this).
  bool force_stream = false;
};

/// Brick-cache observability snapshot (see BrickedVolume::cache_report).
/// Counters follow the degrade-don't-fail idiom: io_error / degrade record
/// the first reason something fell back, and stay set.
struct BrickCacheReport {
  std::uint64_t hits = 0;             ///< demand acquires served resident
  std::uint64_t misses = 0;           ///< demand acquires that loaded from disk
  std::uint64_t evictions = 0;        ///< bricks displaced by LRU choice
  std::uint64_t overflow_bricks = 0;  ///< loads outside the arena (all slots pinned)
  std::uint64_t prefetch_issued = 0;  ///< bricks loaded by the prefetch thread
  std::uint64_t prefetch_hits = 0;    ///< demand acquires served by a prefetch
  std::uint32_t slot_count = 0;       ///< arena slots (0 in mmap mode)
  bool mmapped = false;               ///< file is memory-mapped
  std::string io_error;               ///< first read failure, sticky ("" = none)
  std::string degrade;                ///< first budget/mmap fallback, sticky
};

/// Read-only out-of-core volume over an SFCBRK01 brick file. Value
/// semantics via a shared immutable backend: copies share the file handle,
/// the brick cache, and the counters (exactly what AnyVolume's variant
/// copying wants — a copied volume is the same volume).
class BrickedVolume {
 public:
  using value_type = float;
  using is_volume_backend_tag = void;

  /// Slot id meaning "nothing to release" (mmap mode, empty gathers).
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  BrickedVolume() = default;

  /// Opens a packed brick file. Throws std::runtime_error for a missing or
  /// corrupt file (see read_brick_file_header); never throws for policy
  /// reasons — those degrade into cache_report().
  [[nodiscard]] static BrickedVolume open(const std::string& path,
                                          const BrickOpenOptions& opts = {});

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }

  // --- Grid3D-facade surface (what AnyVolume forwards) -------------------
  [[nodiscard]] const Extents3D& extents() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return extents().size(); }
  /// Resident float capacity: the arena (stream) or the whole payload
  /// (mmap) — what this backend can hold in memory, not the file size.
  [[nodiscard]] std::size_t capacity() const noexcept;
  /// Serial-convenience element access (spot checks, copy_from, the
  /// AnyVolume facade). Never fails: an IO error yields the recorded-error
  /// zero value. The returned reference is only guaranteed while the next
  /// few at() calls stay within the last 8 distinct bricks — kernels and
  /// anything concurrent must use a BrickedView (make_read_view), which
  /// pins bricks per worker. The non-const overload, the writable one,
  /// throws std::logic_error: the backend is read-only (a write would land
  /// in the shared brick cache, or fault on the read-only map).
  [[nodiscard]] float& at(std::uint32_t i, std::uint32_t j, std::uint32_t k);
  [[nodiscard]] const float& at(std::uint32_t i, std::uint32_t j,
                                std::uint32_t k) const noexcept;
  [[nodiscard]] const float& at_clamped(std::int64_t i, std::int64_t j,
                                        std::int64_t k) const noexcept;

  /// Read-only backend: filling/copying into it is a reported logic error.
  /// (Compiled for every AnyVolume::visit lambda; throwing keeps the
  /// variant facade total without pretending writes work.)
  template <class Fn>
  void fill_from(Fn&&) {
    throw_read_only("fill_from");
  }
  template <class SrcT>
  void copy_from(const SrcT&) {
    throw_read_only("copy_from");
  }

  // --- bricked-specific surface ------------------------------------------
  [[nodiscard]] const BrickFileInfo& info() const noexcept;
  [[nodiscard]] bool mmapped() const noexcept;
  /// Snapshot of the cache counters + fallback reasons.
  [[nodiscard]] BrickCacheReport cache_report() const;
  /// Counter deltas since the previous drain (fallback strings and
  /// slot_count ride along unchanged). The metrics-registry publisher
  /// (exec::publish_brick_cache_metrics) uses this so repeated publishes
  /// never double-count.
  [[nodiscard]] BrickCacheReport drain_cache_deltas() const;
  /// Brick codes the LRU cache evicted, oldest first (the first 1,024).
  [[nodiscard]] std::vector<std::uint64_t> eviction_log() const;

  // --- internal surface for views and gather_row -------------------------
  // (stable within the library; not part of the user-facing facade)

  /// A pinned (stream) or mapped (mmap) resident brick.
  struct BrickRef {
    const float* data = nullptr;  ///< brick_elems() floats in inner-layout order
    std::uint32_t slot = kNoSlot; ///< pass to release_brick when done
    std::uint64_t rank = 0;       ///< position in file curve order (synthetic addrs)
  };

  /// Pins + returns the brick holding brick-grid Morton code `code`.
  /// Never fails: IO errors record themselves and return a zeroed brick.
  [[nodiscard]] BrickRef acquire_brick(std::uint64_t code) const noexcept;
  /// Releases a pin taken by acquire_brick (no-op for kNoSlot).
  void release_brick(std::uint32_t slot) const noexcept;
  /// The shared local-voxel -> inner-storage-offset LUT (edge^3 entries,
  /// entry [li + (lj << s) + (lk << 2s)]).
  [[nodiscard]] const std::uint32_t* inner_offsets() const noexcept;
  [[nodiscard]] unsigned edge_shift() const noexcept;
 private:
  [[noreturn]] static void throw_read_only(const char* op);
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Per-worker read view over a BrickedVolume (the PlainView counterpart).
/// Keeps a small ring of pinned bricks and reaches neighbouring bricks by
/// constant-amortized SFC steps on the brick-grid code — consecutive
/// stencil taps almost never pay a full Morton encode. A view is cheap to
/// construct, must not outlive its volume, and must not be shared between
/// threads (each worker builds its own; the pins make the underlying
/// bricks safe against concurrent eviction).
///
/// A read of the brick the previous read touched compiles inline: a
/// compare of the brick coordinates, the ring entry cur_ and the
/// inner-offset LUT. Only a move to another brick calls out of line
/// (seek: the Morton hop, the ring search, the pin).
class alignas(kCacheLineBytes) BrickedView {
 public:
  explicit BrickedView(const BrickedVolume& volume)
      : vol_(&volume),
        lut_(volume.inner_offsets()),
        extents_(volume.extents()),
        shift_(volume.edge_shift()),
        mask_((1u << volume.edge_shift()) - 1) {}
  /// Copying yields a fresh view over the same volume (pins are per-view).
  BrickedView(const BrickedView& other) : BrickedView(*other.vol_) {}
  BrickedView& operator=(const BrickedView& other) {
    if (this != &other) {
      reset();
      vol_ = other.vol_;
      lut_ = other.lut_;
      extents_ = other.extents_;
      shift_ = other.shift_;
      mask_ = other.mask_;
    }
    return *this;
  }
  ~BrickedView() { reset(); }

  [[nodiscard]] const Extents3D& extents() const noexcept { return extents_; }

  [[nodiscard, gnu::always_inline]] const float& at(std::uint32_t i, std::uint32_t j,
                                                    std::uint32_t k) const noexcept {
    return *fetch(i, j, k, nullptr);
  }
  [[nodiscard, gnu::always_inline]] const float& at_clamped(std::int64_t i, std::int64_t j,
                                                            std::int64_t k) const noexcept {
    return *fetch(clamp_axis(i, extents_.nx), clamp_axis(j, extents_.ny),
                  clamp_axis(k, extents_.nz), nullptr);
  }
  /// Border-clamped 2x2x2 cell (Grid3D::cell_clamped's values and corner
  /// order). When the eight corners lie in one brick, the brick is resolved
  /// once and the corners are read through the LUT; otherwise the cell is
  /// eight at_clamped reads. The brick cache sees the same acquires either
  /// way: of eight reads in one brick, the first would resolve the brick
  /// and the other seven would find it at cur_.
  [[nodiscard, gnu::always_inline]] std::array<float, 8> cell(std::int64_t i, std::int64_t j,
                                                              std::int64_t k) const noexcept {
    const std::uint32_t i0 = clamp_axis(i, extents_.nx), i1 = clamp_axis(i + 1, extents_.nx);
    const std::uint32_t j0 = clamp_axis(j, extents_.ny), j1 = clamp_axis(j + 1, extents_.ny);
    const std::uint32_t k0 = clamp_axis(k, extents_.nz), k1 = clamp_axis(k + 1, extents_.nz);
    if ((((i0 ^ i1) | (j0 ^ j1) | (k0 ^ k1)) >> shift_) != 0) {
      return cell_by_taps<float>(*this, i, j, k);
    }
    const float* b = brick(i0 >> shift_, j0 >> shift_, k0 >> shift_)->data;
    const std::size_t x0 = i0 & mask_, x1 = i1 & mask_;
    const std::size_t y0 = static_cast<std::size_t>(j0 & mask_) << shift_;
    const std::size_t y1 = static_cast<std::size_t>(j1 & mask_) << shift_;
    const std::size_t z0 = static_cast<std::size_t>(k0 & mask_) << (2 * shift_);
    const std::size_t z1 = static_cast<std::size_t>(k1 & mask_) << (2 * shift_);
    const std::size_t s00 = y0 + z0, s10 = y1 + z0, s01 = y0 + z1, s11 = y1 + z1;
    return {b[lut_[x0 + s00]], b[lut_[x1 + s00]], b[lut_[x0 + s10]], b[lut_[x1 + s10]],
            b[lut_[x0 + s01]], b[lut_[x1 + s01]], b[lut_[x0 + s11]], b[lut_[x1 + s11]]};
  }

  /// Releases every pinned brick (also run by the destructor).
  void reset() noexcept {
    for (Entry& e : entries_) {
      if (e.valid) {
        vol_->release_brick(e.slot);
        e.valid = false;
      }
    }
    have_last_ = false;
  }

 protected:
  /// Resolves one voxel; when `synth` is non-null also yields the
  /// *synthetic* element index rank * edge^3 + inner_offset — a pure
  /// function of the file geometry, which the traced view turns into
  /// rebased byte addresses (bit-stable across runs and cache states).
  [[nodiscard, gnu::always_inline]] const float* fetch(std::uint32_t i, std::uint32_t j,
                                                       std::uint32_t k,
                                                       std::uint64_t* synth) const noexcept {
    assert(extents_.contains(i, j, k));
    const Entry* e = brick(i >> shift_, j >> shift_, k >> shift_);
    const std::size_t off =
        lut_[(i & mask_) + (static_cast<std::size_t>(j & mask_) << shift_) +
             (static_cast<std::size_t>(k & mask_) << (2 * shift_))];
    if (synth != nullptr) {
      *synth = e->rank * (std::size_t{1} << (3 * shift_)) + off;
    }
    return e->data + off;
  }

 private:
  struct Entry {
    std::uint64_t code = 0;
    const float* data = nullptr;
    std::uint32_t slot = BrickedVolume::kNoSlot;
    std::uint64_t rank = 0;
    bool valid = false;
  };
  static constexpr unsigned kEntries = 8;  ///< covers a 2x2x2 brick stencil corner

  /// The ring entry of brick (bi, bj, bk). Invariant: while have_last_ is
  /// set, entries_[cur_] is valid and holds last_code_, the brick at
  /// (last_bx_, last_by_, last_bz_), so a read of that brick needs no
  /// code, search or pin.
  [[nodiscard, gnu::always_inline]] const Entry* brick(std::uint32_t bi, std::uint32_t bj,
                                                       std::uint32_t bk) const noexcept {
    if (have_last_ && bi == last_bx_ && bj == last_by_ && bk == last_bz_) [[likely]] {
      return &entries_[cur_];
    }
    return seek(bi, bj, bk);
  }

  /// Moves to another brick: its code, by hopping from the previous one,
  /// then its ring entry, pinning it on a ring miss.
  [[nodiscard, gnu::noinline]] const Entry* seek(std::uint32_t bi, std::uint32_t bj,
                                                 std::uint32_t bk) const noexcept {
    std::uint64_t code;
    if (have_last_) {
      // Constant-amortized SFC neighbour-finding on the brick grid: hop
      // from the previous brick's code with one masked ripple-add per
      // changed axis instead of re-encoding (bi, bj, bk).
      code = last_code_;
      const auto dx = static_cast<std::int32_t>(bi) - static_cast<std::int32_t>(last_bx_);
      const auto dy = static_cast<std::int32_t>(bj) - static_cast<std::int32_t>(last_by_);
      const auto dz = static_cast<std::int32_t>(bk) - static_cast<std::int32_t>(last_bz_);
      if (dx != 0) {
        code = morton_step_x(code, dx);
      }
      if (dy != 0) {
        code = morton_step_y(code, dy);
      }
      if (dz != 0) {
        code = morton_step_z(code, dz);
      }
    } else {
      code = morton_encode_3d(bi, bj, bk);
      have_last_ = true;
    }
    last_bx_ = bi;
    last_by_ = bj;
    last_bz_ = bk;
    last_code_ = code;
    return find_or_pin(code);
  }

  [[nodiscard]] const Entry* find_or_pin(std::uint64_t code) const noexcept {
    for (unsigned n = 0; n < kEntries; ++n) {
      if (entries_[n].valid && entries_[n].code == code) {
        cur_ = n;
        return &entries_[n];
      }
    }
    rr_ = (rr_ + 1) % kEntries;
    Entry& e = entries_[rr_];
    if (e.valid) {
      vol_->release_brick(e.slot);
    }
    const BrickedVolume::BrickRef ref = vol_->acquire_brick(code);
    e = Entry{code, ref.data, ref.slot, ref.rank, true};
    cur_ = rr_;
    return &e;
  }

  static std::uint32_t clamp_axis(std::int64_t v, std::uint32_t n) noexcept {
    const std::int64_t hi = static_cast<std::int64_t>(n) - 1;
    return static_cast<std::uint32_t>(v < 0 ? 0 : (v > hi ? hi : v));
  }

  const BrickedVolume* vol_;
  const std::uint32_t* lut_;
  Extents3D extents_;
  unsigned shift_;
  std::uint32_t mask_;
  mutable Entry entries_[kEntries]{};
  mutable unsigned cur_ = 0;
  mutable unsigned rr_ = 0;
  mutable std::uint32_t last_bx_ = 0, last_by_ = 0, last_bz_ = 0;
  mutable std::uint64_t last_code_ = 0;
  mutable bool have_last_ = false;
};
// Workers' views sit back to back in one std::vector (raycast_job,
// MacrocellGrid::build). A move to another brick writes the ring state at a
// view's end (cur_ ... have_last_), and every read loads the fields at its
// start (vol_ ... mask_), so two views sharing a cache line would bounce it
// between their workers' cores.
static_assert(alignof(BrickedView) == kCacheLineBytes,
              "a worker's BrickedView must not share a cache line with the next worker's");

/// Traced counterpart of BrickedView: reports each element read to the
/// AccessSink at kTracedBase + synthetic element index * sizeof(float),
/// where the synthetic index is the element's position in the *file's*
/// layout (brick rank x brick size + inner offset). Like TracedView's
/// rebasing, this makes modeled counters a pure function of (file
/// geometry, kernel) — independent of cache state, heap, or machine.
template <AccessSink SinkT>
class BrickedTracedView : private BrickedView {
 public:
  static constexpr std::uint64_t kTracedBase = 1ull << 30;

  BrickedTracedView(const BrickedVolume& volume, SinkT& sink)
      : BrickedView(volume), sink_(&sink) {}

  using BrickedView::extents;

  [[nodiscard]] const float& at(std::uint32_t i, std::uint32_t j,
                                std::uint32_t k) const {
    std::uint64_t synth = 0;
    const float* p = fetch(i, j, k, &synth);
    sink_->access(kTracedBase + synth * sizeof(float), sizeof(float));
    return *p;
  }
  [[nodiscard]] const float& at_clamped(std::int64_t i, std::int64_t j,
                                        std::int64_t k) const {
    const auto& e = extents();
    const auto ci = clamp_to(i, e.nx);
    const auto cj = clamp_to(j, e.ny);
    const auto ck = clamp_to(k, e.nz);
    return at(ci, cj, ck);
  }
  [[nodiscard]] std::array<float, 8> cell(std::int64_t i, std::int64_t j,
                                          std::int64_t k) const {
    return cell_by_taps<float>(*this, i, j, k);
  }

  [[nodiscard]] SinkT& sink() const noexcept { return *sink_; }

 private:
  static std::uint32_t clamp_to(std::int64_t v, std::uint32_t n) noexcept {
    const std::int64_t hi = static_cast<std::int64_t>(n) - 1;
    return static_cast<std::uint32_t>(v < 0 ? 0 : (v > hi ? hi : v));
  }
  SinkT* sink_;
};

// ---------------------------------------------------------------------------
// Backend customization points (see core/traced_view.hpp for the grid ones)
// ---------------------------------------------------------------------------

[[nodiscard]] inline BrickedView make_read_view(const BrickedVolume& volume) {
  return BrickedView(volume);
}

template <AccessSink SinkT>
[[nodiscard]] inline BrickedTracedView<SinkT> make_traced_view(const BrickedVolume& volume,
                                                               SinkT& sink) {
  return BrickedTracedView<SinkT>(volume, sink);
}

/// Bricked row gather: walks the row brick segment by brick segment, reads
/// each element through the inner-offset LUT, and hops to the next brick
/// along the axis with one morton_step_* of the brick-grid code (never a
/// re-encode), so the sliding-window kernels keep their dense-scratch fast
/// path out-of-core.
inline void gather_row(const BrickedVolume& g, Axis3 axis, std::uint32_t i,
                       std::uint32_t j, std::uint32_t k, std::uint32_t n, float* out) {
  if (n == 0) {
    return;
  }
  const unsigned s = g.edge_shift();
  const std::uint32_t edge = 1u << s;
  const std::uint32_t mask = edge - 1;
  const std::uint32_t* lut = g.inner_offsets();
  std::uint32_t ci = i, cj = j, ck = k;
  std::uint32_t* walk = axis == Axis3::kX ? &ci : axis == Axis3::kY ? &cj : &ck;
  const std::size_t lstride = axis == Axis3::kX
                                  ? std::size_t{1}
                                  : axis == Axis3::kY ? std::size_t{edge}
                                                      : std::size_t{edge} * edge;
  std::uint64_t code = morton_encode_3d(ci >> s, cj >> s, ck >> s);
  std::uint32_t done = 0;
  while (done < n) {
    const BrickedVolume::BrickRef ref = g.acquire_brick(code);
    const std::uint32_t local = *walk & mask;
    const std::uint32_t seg = std::min(n - done, edge - local);
    const std::uint32_t* row_lut = lut + (ci & mask) +
                                   (static_cast<std::size_t>(cj & mask) << s) +
                                   (static_cast<std::size_t>(ck & mask) << (2 * s));
    for (std::uint32_t l = 0; l < seg; ++l) {
      out[done + l] = ref.data[row_lut[l * lstride]];
    }
    g.release_brick(ref.slot);
    done += seg;
    *walk += seg;
    if (done < n) {
      // SFC hop to the next brick along the axis.
      code = axis == Axis3::kX   ? morton_step_x(code, 1)
             : axis == Axis3::kY ? morton_step_y(code, 1)
                                 : morton_step_z(code, 1);
    }
  }
}

}  // namespace sfcvis::core
