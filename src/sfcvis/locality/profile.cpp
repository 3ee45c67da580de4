#include "sfcvis/locality/profile.hpp"

#include <utility>

#include "sfcvis/data/combustion.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/exec/trace_session.hpp"

namespace sfcvis::locality {

filters::BilateralParams workload_bilateral_params() {
  return filters::BilateralParams{3, 1.5f, 0.1f, filters::PencilAxis::kZ,
                                  filters::LoopOrder::kZYX};
}

render::RenderConfig workload_raycast_config(std::uint32_t image) {
  return render::RenderConfig{image, image, 16, 0.5f, 0.98f};
}

render::Camera workload_raycast_camera(const core::Extents3D& e) {
  return render::orbit_camera(2, 8, static_cast<float>(e.nx), static_cast<float>(e.ny),
                              static_cast<float>(e.nz));
}

void fill_workload_volume(core::AnyVolume& volume, const std::string& kernel) {
  if (kernel == "bilateral") {
    volume.visit([](auto& g) { data::fill_mri_phantom(g); });
  } else if (kernel == "raycast") {
    volume.visit([](auto& g) { data::fill_combustion(g); });
  } else {
    throw std::invalid_argument("locality: unknown kernel \"" + kernel +
                                "\" (want bilateral or raycast)");
  }
}

trace::LocalityProfile profile_workload(const core::AnyVolume& volume,
                                        const std::string& layout,
                                        const WorkloadConfig& workload,
                                        LocalityConfig config) {
  config.threads = workload.threads;
  LocalityProfiler profiler(std::move(config));
  replay_workload(volume, workload, profiler);
  return profiler.profile(workload.kernel, layout);
}

bool publish_profile(trace::LocalityProfile profile) {
  exec::TraceSession* session = exec::TraceSession::current();
  if (session == nullptr) {
    return false;
  }
  session->add_locality(std::move(profile));
  return true;
}

}  // namespace sfcvis::locality
