// Shared vocabulary of the stencil kernels: pencil (voxel-row) assignment
// axes and stencil iteration orders, named as in the paper's figures
// ("px", "pz", "xyz", "zyx"; Sec. III-A and IV-B3) — plus the job-builder
// helper every kernel driver assembles its exec::KernelJob with. The
// drivers themselves are thin: build a job (decomposition happens in the
// builder) and run it on the context's JobGraph.
// This file is where the per-kernel ExecutionContext& overload
// boilerplate the drivers used to repeat now lives once. Every builder
// takes a defaulted per-worker view factory (core::ReadViews); a counter
// run passes core::traced_views(provider) and replays the same job
// through exec::JobGraph::replay.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/exec/job.hpp"

namespace sfcvis::filters {

/// Which axis a work "pencil" (row of voxels handed to one thread) runs
/// along. px = width rows, py = height rows, pz = depth rows.
enum class PencilAxis : std::uint8_t { kX, kY, kZ };

/// Stencil iteration order: which axis the innermost loop walks. xyz walks
/// x innermost (with the array-order grain); zyx walks z innermost
/// (deliberately against it).
enum class LoopOrder : std::uint8_t { kXYZ, kZYX };

[[nodiscard]] constexpr std::string_view to_string(PencilAxis a) noexcept {
  switch (a) {
    case PencilAxis::kX:
      return "px";
    case PencilAxis::kY:
      return "py";
    case PencilAxis::kZ:
      return "pz";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(LoopOrder o) noexcept {
  return o == LoopOrder::kXYZ ? "xyz" : "zyx";
}

namespace detail {

/// Builds a static kernel job of `tiles` items with per-worker state (the
/// scratch/read-view slot the parallel_static_state dispatch owns):
/// make(tid) -> State once per worker, then fn(state, item, tid) for each
/// of its items, matching the round-robin pencil model. `kernel` and
/// `span_name`/`span_tag` (the kernel's historical trace phase names)
/// must be string literals.
template <class Make, class Fn>
[[nodiscard]] exec::KernelJob make_state_job(const char* kernel, std::size_t tiles, Make make,
                                             Fn fn, const char* span_name,
                                             const char* span_tag = nullptr) {
  using State = std::decay_t<decltype(make(0U))>;
  exec::KernelJob job;
  job.kernel = kernel;
  job.dispatch = exec::JobDispatch::kStatic;
  job.tiles = tiles;
  job.span_name = span_name;
  job.span_tag = span_tag;
  job.make_state = [make = std::move(make)](unsigned tid) -> std::shared_ptr<void> {
    return std::make_shared<State>(make(tid));
  };
  job.tile = [fn = std::move(fn)](void* state, std::size_t item, unsigned tid) {
    fn(*static_cast<State*>(state), item, tid);
  };
  return job;
}

/// The bilateral use_gather fast path reads storage through
/// core::gather_row, not through the worker's view, so a traced view
/// factory would silently miss those reads: the gather branch takes the
/// native factory only.
template <class Views>
void require_native_views(const char* builder) {
  if constexpr (!std::is_same_v<Views, core::ReadViews>) {
    throw std::invalid_argument(std::string(builder) +
                                ": use_gather reads storage through core::gather_row, "
                                "bypassing the view factory; replay with use_gather off");
  }
}

/// Throws std::invalid_argument naming `what` unless 1 / (2 sigma^2), the
/// exponent scale of a Gaussian falloff, is finite. Zero, NaN, and sigmas
/// whose square underflows fail; the centre tap of the stencil would then
/// compute 0 * inf = NaN and turn every output voxel into NaN.
inline void require_finite_falloff(float sigma, const char* what) {
  if (!std::isfinite(1.0f / (2.0f * sigma * sigma))) {
    throw std::invalid_argument(std::string(what) +
                                ": 1 / (2 sigma^2) is not finite (sigma is zero, NaN "
                                "or below ~1e-19 in magnitude)");
  }
}

/// exec::run_job under the filters spelling the kernel drivers use (it
/// lives in the exec layer so render/ can share it without depending on
/// filters/).
using exec::run_job;

}  // namespace detail

}  // namespace sfcvis::filters
