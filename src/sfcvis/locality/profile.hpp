// The two traced-replay workloads the locality observatory and the layout
// tuner share — against-the-grain bilateral pencils and an orbit-camera
// raycast — defined once and replayable through any SinkProvider: a
// LocalityProfiler here, a memsim::Hierarchy in the tuner's fitness. A
// locality profile and a tuner fitness over the same volume therefore
// describe the identical access stream. Profiles publish into the active
// exec::TraceSession's always-present "locality" run-report section.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/locality/reuse.hpp"
#include "sfcvis/render/raycast.hpp"

namespace sfcvis::locality {

/// One traced-replay workload.
struct WorkloadConfig {
  std::string kernel = "bilateral";  ///< "bilateral" | "raycast"
  unsigned threads = 4;              ///< simulated round-robin threads
  std::size_t trace_items = 64;      ///< replay cap (pencils / tiles)
  std::uint32_t trace_image = 32;    ///< raycast traced image edge
};

/// The filter workload: radius-3 z-pencils in zyx order, the
/// against-the-grain configuration where layout matters most.
[[nodiscard]] filters::BilateralParams workload_bilateral_params();

/// The render workload: an `image`^2 render in 16^2 tiles.
[[nodiscard]] render::RenderConfig workload_raycast_config(std::uint32_t image);

/// The render workload's camera: orbit viewpoint 2 of 8 (rays along z).
[[nodiscard]] render::Camera workload_raycast_camera(const core::Extents3D& e);

/// Fills `volume` with the workload's dataset (MRI phantom for bilateral,
/// combustion for raycast). Throws std::invalid_argument for another
/// kernel.
void fill_workload_volume(core::AnyVolume& volume, const std::string& kernel);

/// Replays the workload's job over `volume` (already filled), capped at
/// workload.trace_items tiles, through `provider`'s num_threads() logical
/// workers. Throws std::invalid_argument for an unknown kernel.
template <core::SinkProvider P>
void replay_workload(const core::AnyVolume& volume, const WorkloadConfig& workload,
                     P& provider) {
  exec::ExecutionContext replay = exec::make_replay_context(provider.num_threads());
  if (workload.kernel == "bilateral") {
    core::ArrayVolume dst(volume.extents());
    replay.jobs().replay(filters::bilateral_job(volume, dst, workload_bilateral_params(),
                                                core::traced_views(provider)),
                         workload.trace_items);
  } else if (workload.kernel == "raycast") {
    const render::RenderConfig config = workload_raycast_config(workload.trace_image);
    const auto tf = render::TransferFunction::flame();
    render::Image image(config.image_width, config.image_height);
    replay.jobs().replay(render::raycast_job(volume, workload_raycast_camera(volume.extents()),
                                             tf, config, image, nullptr, false,
                                             core::traced_views(provider)),
                         workload.trace_items);
  } else {
    throw std::invalid_argument("locality: unknown kernel \"" + workload.kernel +
                                "\" (want bilateral or raycast)");
  }
}

/// Runs the workload's traced replay over `volume` (already filled) and
/// returns the finished profile. `layout` labels the profile (pass e.g.
/// the layout spec the volume was built from); workload.threads overrides
/// config.threads so the replay interleaving matches the modeled machine.
[[nodiscard]] trace::LocalityProfile profile_workload(const core::AnyVolume& volume,
                                                      const std::string& layout,
                                                      const WorkloadConfig& workload,
                                                      LocalityConfig config = {});

/// Posts a finished profile to the active exec::TraceSession; returns
/// false (and drops the profile) when no session is active.
bool publish_profile(trace::LocalityProfile profile);

}  // namespace sfcvis::locality
