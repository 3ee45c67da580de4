// Read views over a Grid3D.
//
// Kernels (bilateral filter, raycaster) are templated on a *view* type so a
// single kernel implementation serves both production runs and
// counter-collection runs:
//
//  * PlainView      — zero-overhead forwarding; what benchmarks time.
//  * TracedView     — additionally reports every element read, as a byte
//                     address, to a memory-model sink (memsim::* or any
//                     type with `void access(std::uint64_t addr,
//                     std::uint32_t bytes)`). This is how the library
//                     stands in for PAPI hardware counters.
//
// Views are read-only: layout effects the paper measures come from reads of
// the source volume; kernel outputs are written once, streaming, to an
// array-order buffer in both configurations.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/grid.hpp"

namespace sfcvis::core {

/// Any type usable as a volume backend by the kernels: opts in via the
/// member tag (Grid3D for in-core storage, BrickedVolume for out-of-core
/// brick files). Kernels templated on a VolumeBackend obtain their read
/// view through make_read_view / make_traced_view below instead of naming
/// PlainView/TracedView directly — the factories are overloaded per
/// backend, so one kernel body serves both worlds. The tag (rather than a
/// structural requires-clause) keeps AnyVolume itself, which forwards much
/// of the same surface, from ever matching.
template <class V>
concept VolumeBackend = requires { typename V::is_volume_backend_tag; };

/// A sink consuming the byte-level read trace of a kernel.
template <class S>
concept AccessSink = requires(S sink, std::uint64_t addr, std::uint32_t bytes) {
  sink.access(addr, bytes);
};

/// Provides one AccessSink per simulated thread of a traced replay. A
/// replay hands a kernel's job builder traced_views(provider) (below) as
/// its view factory instead of naming a concrete consumer, so the same
/// deterministic replay (exec::JobGraph::replay) feeds either the modeled
/// cache hierarchy (memsim::Hierarchy) or the reuse-distance profiler
/// (locality::LocalityProfiler). Sinks returned by sink() are cheap value
/// types bound to the provider; the replay itself stays single-threaded,
/// so providers need no internal synchronization.
template <class P>
concept SinkProvider = requires(P provider, unsigned tid) {
  { provider.num_threads() } -> std::convertible_to<unsigned>;
  { provider.sink(tid) };
} && AccessSink<decltype(std::declval<P&>().sink(0u))>;

/// Zero-overhead read view; simply forwards to the grid.
template <class T, Layout3D LayoutT>
class PlainView {
 public:
  explicit PlainView(const Grid3D<T, LayoutT>& grid) : grid_(&grid) {}

  [[nodiscard]] const T& at(std::uint32_t i, std::uint32_t j, std::uint32_t k) const noexcept {
    return grid_->at(i, j, k);
  }
  [[nodiscard]] const T& at_clamped(std::int64_t i, std::int64_t j,
                                    std::int64_t k) const noexcept {
    return grid_->at_clamped(i, j, k);
  }
  /// Border-clamped 2x2x2 cell: Grid3D::cell_clamped.
  [[nodiscard, gnu::always_inline]] std::array<T, 8> cell(std::int64_t i, std::int64_t j,
                                                          std::int64_t k) const noexcept {
    return grid_->cell_clamped(i, j, k);
  }
  [[nodiscard]] const Extents3D& extents() const noexcept { return grid_->extents(); }

 private:
  const Grid3D<T, LayoutT>* grid_;
};

/// The cell load of the traced and out-of-core views: eight at_clamped
/// reads in Grid3D::cell_clamped's corner order, so every access stream
/// (modeled cache, locality profile, brick cache) is the one eight
/// separate reads produce.
template <class T, class View>
[[nodiscard]] std::array<T, 8> cell_by_taps(const View& view, std::int64_t i, std::int64_t j,
                                            std::int64_t k) {
  return {view.at_clamped(i, j, k),         view.at_clamped(i + 1, j, k),
          view.at_clamped(i, j + 1, k),     view.at_clamped(i + 1, j + 1, k),
          view.at_clamped(i, j, k + 1),     view.at_clamped(i + 1, j, k + 1),
          view.at_clamped(i, j + 1, k + 1), view.at_clamped(i + 1, j + 1, k + 1)};
}

/// Read view that reports every element access to an AccessSink, as a byte
/// address rebased to a fixed synthetic origin: the reported address is
/// kTracedBase plus the element's byte offset inside the grid's storage.
/// Offsets carry the layout's entire byte-level locality (that is what the
/// paper measures); discarding the allocation's real base makes the modeled
/// counters a pure function of (layout, kernel, platform) — bit-identical
/// across runs, machines, and heap states, which the perf gate and the
/// layout auto-tuner's fitness both rely on. Each traced kernel traces
/// exactly one grid per sink, so rebasing cannot alias two arrays.
template <class T, Layout3D LayoutT, AccessSink SinkT>
class TracedView {
 public:
  /// The synthetic base every trace starts at — aligned far beyond any page
  /// or cache-set stride, so the model sees a clean placement.
  static constexpr std::uint64_t kTracedBase = 1ull << 30;

  TracedView(const Grid3D<T, LayoutT>& grid, SinkT& sink)
      : grid_(&grid), sink_(&sink),
        base_(reinterpret_cast<std::uint64_t>(grid.data())) {}

  [[nodiscard]] const T& at(std::uint32_t i, std::uint32_t j, std::uint32_t k) const {
    const T& ref = grid_->at(i, j, k);
    sink_->access(kTracedBase + (reinterpret_cast<std::uint64_t>(&ref) - base_), sizeof(T));
    return ref;
  }
  [[nodiscard]] const T& at_clamped(std::int64_t i, std::int64_t j, std::int64_t k) const {
    const T& ref = grid_->at_clamped(i, j, k);
    sink_->access(kTracedBase + (reinterpret_cast<std::uint64_t>(&ref) - base_), sizeof(T));
    return ref;
  }
  [[nodiscard]] std::array<T, 8> cell(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return cell_by_taps<T>(*this, i, j, k);
  }
  [[nodiscard]] const Extents3D& extents() const noexcept { return grid_->extents(); }

  [[nodiscard]] SinkT& sink() const noexcept { return *sink_; }

 private:
  const Grid3D<T, LayoutT>* grid_;
  SinkT* sink_;
  std::uint64_t base_;
};

/// A read view usable by the kernels. cell(i, j, k) is the border-clamped
/// 2x2x2 cell (Grid3D::cell_clamped's values and corner order).
template <class V>
concept ReadView3D = requires(const V view, std::uint32_t c, std::int64_t s) {
  { view.at(c, c, c) };
  { view.at_clamped(s, s, s) };
  { view.cell(s, s, s) };
  { view.extents() } -> std::convertible_to<Extents3D>;
};

// ---------------------------------------------------------------------------
// Backend view factories (customization points)
// ---------------------------------------------------------------------------
// Kernels write `const auto view = make_read_view(src);` against any
// VolumeBackend; core/bricked.hpp adds the BrickedVolume overloads.

/// Zero-overhead read view over an in-core grid.
template <class T, Layout3D LayoutT>
[[nodiscard]] inline PlainView<T, LayoutT> make_read_view(const Grid3D<T, LayoutT>& grid) {
  return PlainView<T, LayoutT>(grid);
}

/// Memsim-reporting read view over an in-core grid.
template <class T, Layout3D LayoutT, AccessSink SinkT>
[[nodiscard]] inline TracedView<T, LayoutT, SinkT> make_traced_view(
    const Grid3D<T, LayoutT>& grid, SinkT& sink) {
  return TracedView<T, LayoutT, SinkT>(grid, sink);
}

// ---------------------------------------------------------------------------
// Per-worker view factories of the kernel job builders
// ---------------------------------------------------------------------------
// Every job builder (filters/, render/) takes a defaulted `Views views`
// argument and gives worker `tid` the read view views(volume, tid). The
// default serves native runs; a traced replay passes traced_views(provider)
// and runs the very same job through exec::JobGraph::replay.

/// The native factory: make_read_view for the volume's backend.
struct ReadViews {
  template <VolumeBackend V>
  [[nodiscard]] auto operator()(const V& volume, unsigned /*tid*/) const {
    return make_read_view(volume);
  }
};

/// The traced factory: worker `tid` reads through make_traced_view bound to
/// provider.sink(tid). The sinks are made once, for every logical worker,
/// and shared by the factory's copies (the job's closures keep them alive).
template <SinkProvider P>
class TracedViews {
  using Sink = decltype(std::declval<P&>().sink(0u));

 public:
  explicit TracedViews(P& provider) : sinks_(std::make_shared<std::vector<Sink>>()) {
    sinks_->reserve(provider.num_threads());
    for (unsigned t = 0; t < provider.num_threads(); ++t) {
      sinks_->push_back(provider.sink(t));
    }
  }

  template <VolumeBackend V>
  [[nodiscard]] auto operator()(const V& volume, unsigned tid) const {
    return make_traced_view(volume, (*sinks_)[tid]);
  }

 private:
  std::shared_ptr<std::vector<Sink>> sinks_;
};

template <SinkProvider P>
[[nodiscard]] TracedViews<P> traced_views(P& provider) {
  return TracedViews<P>(provider);
}

}  // namespace sfcvis::core
