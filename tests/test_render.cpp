// Tests for the raycasting volume renderer and its components.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/memsim/platforms.hpp"
#include "sfcvis/render/camera.hpp"
#include "sfcvis/render/image.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/render/transfer.hpp"

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace data = sfcvis::data;
namespace memsim = sfcvis::memsim;
namespace render = sfcvis::render;
namespace threads = sfcvis::threads;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::Grid3D;
using render::Camera;
using render::Image;
using render::Projection;
using render::Ray;
using render::RenderConfig;
using render::Rgba;
using render::TileDecomposition;
using render::TransferFunction;
using render::Vec3;

namespace {

std::array<std::uint32_t, 4> bits(const Rgba& c) {
  return {std::bit_cast<std::uint32_t>(c.r), std::bit_cast<std::uint32_t>(c.g),
          std::bit_cast<std::uint32_t>(c.b), std::bit_cast<std::uint32_t>(c.a)};
}

}  // namespace

// ---------------------------------------------------------------------------
// Vec3 / Ray
// ---------------------------------------------------------------------------

TEST(Vec, BasicAlgebra) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0f, (Vec3{2, 4, 6}));
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
  EXPECT_EQ(cross(Vec3{1, 0, 0}, Vec3{0, 1, 0}), (Vec3{0, 0, 1}));
  EXPECT_FLOAT_EQ(length(Vec3{3, 4, 0}), 5.0f);
  EXPECT_FLOAT_EQ(length(normalized(a)), 1.0f);
}

TEST(Vec, RayAt) {
  const Ray r{{1, 0, 0}, {0, 1, 0}};
  EXPECT_EQ(r.at(2.5f), (Vec3{1, 2.5f, 0}));
}

// ---------------------------------------------------------------------------
// Box intersection
// ---------------------------------------------------------------------------

TEST(IntersectBox, HitsFromOutside) {
  const auto span = render::intersect_box(Ray{{-5, 0.5f, 0.5f}, {1, 0, 0}},
                                          Vec3{0, 0, 0}, Vec3{1, 1, 1});
  ASSERT_TRUE(span.has_value());
  EXPECT_FLOAT_EQ(span->first, 5.0f);
  EXPECT_FLOAT_EQ(span->second, 6.0f);
}

TEST(IntersectBox, MissesOffAxis) {
  EXPECT_FALSE(render::intersect_box(Ray{{-5, 2.0f, 0.5f}, {1, 0, 0}}, Vec3{0, 0, 0},
                                     Vec3{1, 1, 1})
                   .has_value());
}

TEST(IntersectBox, ParallelRayOutsideSlabMisses) {
  EXPECT_FALSE(render::intersect_box(Ray{{0.5f, 5.0f, 0.5f}, {1, 0, 0}}, Vec3{0, 0, 0},
                                     Vec3{1, 1, 1})
                   .has_value());
}

TEST(IntersectBox, StartInsideClipsToZero) {
  const auto span = render::intersect_box(Ray{{0.5f, 0.5f, 0.5f}, {1, 0, 0}},
                                          Vec3{0, 0, 0}, Vec3{1, 1, 1});
  ASSERT_TRUE(span.has_value());
  EXPECT_FLOAT_EQ(span->first, 0.0f);
  EXPECT_FLOAT_EQ(span->second, 0.5f);
}

TEST(IntersectBox, BoxBehindRayMisses) {
  EXPECT_FALSE(render::intersect_box(Ray{{5, 0.5f, 0.5f}, {1, 0, 0}}, Vec3{0, 0, 0},
                                     Vec3{1, 1, 1})
                   .has_value());
}

TEST(IntersectBox, DiagonalRayHits) {
  const auto span = render::intersect_box(Ray{{-1, -1, -1}, normalized(Vec3{1, 1, 1})},
                                          Vec3{0, 0, 0}, Vec3{2, 2, 2});
  ASSERT_TRUE(span.has_value());
  EXPECT_LT(span->first, span->second);
}

TEST(IntersectBox, DegenerateRaysMiss) {
  // A zero or non-finite direction, or a non-finite origin, has no bounded
  // span. Without the check the slab loop returns [0, FLT_MAX] for a zero
  // direction from inside the box and for a NaN origin, and trace_ray then
  // samples one point until t reaches FLT_MAX. A finite direction that is
  // not unit length is rejected too: RenderConfig::step is in voxels only
  // along a unit direction.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Vec3 lo{0, 0, 0}, hi{1, 1, 1};
  const Ray bad[] = {
      Ray{{0.5f, 0.5f, 0.5f}, {0, 0, 0}}, Ray{{nan, 0.5f, 0.5f}, {0, 0, 0}},
      Ray{{nan, nan, nan}, {1, 0, 0}},    Ray{{-inf, 0.5f, 0.5f}, {1, 0, 0}},
      Ray{{-5, 0.5f, 0.5f}, {inf, 0, 0}}, Ray{{-5, 0.5f, 0.5f}, {1, nan, 0}},
      Ray{{-5, 0.5f, 0.5f}, {2, 0, 0}},
  };
  for (const Ray& ray : bad) {
    EXPECT_FALSE(render::intersect_box(ray, lo, hi).has_value())
        << ray.origin.x << "," << ray.origin.y << "," << ray.origin.z << " dir " << ray.dir.x
        << "," << ray.dir.y << "," << ray.dir.z;
  }
}

// ---------------------------------------------------------------------------
// Compositing / transfer function
// ---------------------------------------------------------------------------

TEST(Compositing, OverOperatorAccumulates) {
  Rgba front{0.5f, 0, 0, 0.5f};
  front.composite_under(Rgba{0, 1.0f, 0, 0.5f});
  EXPECT_FLOAT_EQ(front.a, 0.75f);
  EXPECT_FLOAT_EQ(front.g, 0.25f);
  EXPECT_FLOAT_EQ(front.r, 0.5f);
}

TEST(Compositing, OpaqueFrontBlocksBack) {
  Rgba front{1, 1, 1, 1.0f};
  front.composite_under(Rgba{0, 1, 0, 1.0f});
  EXPECT_FLOAT_EQ(front.a, 1.0f);
  EXPECT_FLOAT_EQ(front.g, 1.0f);  // unchanged: back contributes nothing
}

TEST(Transfer, InterpolatesAndClamps) {
  const TransferFunction tf({{0.0f, {0, 0, 0, 0}}, {1.0f, {1, 0, 0, 0.5f}}});
  EXPECT_EQ(tf.sample(-1.0f), (Rgba{0, 0, 0, 0}));
  EXPECT_EQ(tf.sample(2.0f), (Rgba{1, 0, 0, 0.5f}));
  const Rgba mid = tf.sample(0.5f);
  EXPECT_FLOAT_EQ(mid.r, 0.5f);
  EXPECT_FLOAT_EQ(mid.a, 0.25f);
}

TEST(Transfer, NanSamplesAsFirstControlPoint) {
  // NaN fails every comparison: unguarded, a one-point table's segment scan
  // reads past its end, and a longer table returns a NaN colour.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const TransferFunction one(
      std::vector<render::TransferPoint>{{0.5f, {0.25f, 0.5f, 0.75f, 0.125f}}});
  const TransferFunction flame = TransferFunction::flame();
  for (const TransferFunction* tf : {&one, &flame}) {
    EXPECT_EQ(bits(tf->sample(nan)), bits(tf->sample(tf->points().front().value)));
  }
}

TEST(Transfer, RejectsUnsortedOrEmpty) {
  EXPECT_THROW(TransferFunction({}), std::invalid_argument);
  EXPECT_THROW(TransferFunction({{1.0f, {}}, {0.0f, {}}}), std::invalid_argument);
}

TEST(Transfer, RejectsNonFiniteOrAlphaOutsideUnitRange) {
  constexpr float inf = std::numeric_limits<float>::infinity();
  constexpr float nan = std::numeric_limits<float>::quiet_NaN();
  const auto one = [](float value, Rgba color) {
    return TransferFunction({{0.0f, {}}, {value, color}});
  };
  EXPECT_THROW(one(inf, {}), std::invalid_argument);
  EXPECT_THROW(one(nan, {}), std::invalid_argument);
  EXPECT_THROW(TransferFunction({{-inf, {}}, {1.0f, {}}}), std::invalid_argument);
  EXPECT_THROW(one(1.0f, {inf, 0, 0, 0.5f}), std::invalid_argument);
  EXPECT_THROW(one(1.0f, {0, -inf, 0, 0.5f}), std::invalid_argument);
  EXPECT_THROW(one(1.0f, {0, 0, nan, 0.5f}), std::invalid_argument);
  EXPECT_THROW(one(1.0f, {0, 0, 0, 1.5f}), std::invalid_argument);
  EXPECT_THROW(one(1.0f, {0, 0, 0, -0.25f}), std::invalid_argument);
  EXPECT_THROW(one(1.0f, {0, 0, 0, nan}), std::invalid_argument);
  EXPECT_THROW(one(1.0f, {0, 0, 0, inf}), std::invalid_argument);
  // The closed range and colours outside [0, 1] stay legal.
  EXPECT_NO_THROW(one(1.0f, {2.0f, -1.0f, 0, 1.0f}));
  EXPECT_NO_THROW(one(1.0f, {0, 0, 0, 0.0f}));
}

TEST(Transfer, FlameMapIsMonotoneInOpacity) {
  const auto tf = TransferFunction::flame();
  float prev = -1;
  for (float v = 0; v <= 1.0f; v += 0.05f) {
    const float a = tf.sample(v).a;
    EXPECT_GE(a, prev);
    prev = a;
  }
}

// ---------------------------------------------------------------------------
// Tiles
// ---------------------------------------------------------------------------

TEST(Tiles, ExactDecomposition) {
  const TileDecomposition tiles(64, 64, 32);
  EXPECT_EQ(tiles.count(), 4u);
  const auto t3 = tiles.bounds(3);
  EXPECT_EQ(t3.x0, 32u);
  EXPECT_EQ(t3.y0, 32u);
  EXPECT_EQ(t3.x1, 64u);
  EXPECT_EQ(t3.y1, 64u);
}

TEST(Tiles, ClipsEdgeTiles) {
  const TileDecomposition tiles(70, 40, 32);
  EXPECT_EQ(tiles.count(), 6u);  // 3 x 2
  const auto last = tiles.bounds(5);
  EXPECT_EQ(last.x1, 70u);
  EXPECT_EQ(last.y1, 40u);
}

TEST(Tiles, CoversEveryPixelOnce) {
  const std::uint32_t w = 45, h = 33;
  const TileDecomposition tiles(w, h, 16);
  std::vector<int> cover(static_cast<std::size_t>(w) * h, 0);
  for (std::size_t t = 0; t < tiles.count(); ++t) {
    const auto b = tiles.bounds(t);
    for (std::uint32_t y = b.y0; y < b.y1; ++y) {
      for (std::uint32_t x = b.x0; x < b.x1; ++x) {
        cover[static_cast<std::size_t>(y) * w + x] += 1;
      }
    }
  }
  for (const int c : cover) {
    ASSERT_EQ(c, 1);
  }
}

TEST(Tiles, ZeroTileSizeRejected) {
  EXPECT_THROW(TileDecomposition(64, 64, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Camera
// ---------------------------------------------------------------------------

TEST(CameraTest, CenterPixelLooksForward) {
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 40.0f, Projection::kPerspective);
  // With an odd image the center pixel's ray runs along -z.
  const Ray r = cam.ray_for_pixel(50, 50, 101, 101);
  EXPECT_NEAR(r.dir.x, 0.0f, 1e-3f);
  EXPECT_NEAR(r.dir.y, 0.0f, 1e-3f);
  EXPECT_NEAR(r.dir.z, -1.0f, 1e-3f);
  EXPECT_EQ(r.origin, (Vec3{0, 0, 5}));
}

TEST(CameraTest, PerspectiveRaysDiverge) {
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 40.0f, Projection::kPerspective);
  const Ray left = cam.ray_for_pixel(0, 32, 64, 64);
  const Ray right = cam.ray_for_pixel(63, 32, 64, 64);
  EXPECT_LT(left.dir.x, -0.05f);
  EXPECT_GT(right.dir.x, 0.05f);
  EXPECT_EQ(left.origin, right.origin);  // common eyepoint
}

TEST(CameraTest, OrthographicRaysAreParallel) {
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 40.0f, Projection::kOrthographic, 2.0f);
  const Ray a = cam.ray_for_pixel(0, 0, 64, 64);
  const Ray b = cam.ray_for_pixel(63, 63, 64, 64);
  EXPECT_EQ(a.dir, b.dir);
  EXPECT_NE(a.origin, b.origin);  // offset origins instead
}

TEST(CameraTest, RejectsDegenerateGeometry) {
  // Each of these makes forward or right (0, 0, 0) or NaN: every ray would
  // get a zero or NaN direction.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto persp = Projection::kPerspective;
  EXPECT_THROW(Camera({1, 2, 3}, {1, 2, 3}, {0, 1, 0}, 40.0f, persp), std::invalid_argument);
  EXPECT_THROW(Camera({nan, 0, 5}, {0, 0, 0}, {0, 1, 0}, 40.0f, persp), std::invalid_argument);
  EXPECT_THROW(Camera({0, 0, 5}, {0, inf, 0}, {0, 1, 0}, 40.0f, persp), std::invalid_argument);
  EXPECT_THROW(Camera({0, 0, 5}, {0, 0, 0}, {0, nan, 0}, 40.0f, persp), std::invalid_argument);
  EXPECT_THROW(Camera({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, nan, persp), std::invalid_argument);
  EXPECT_THROW(Camera({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 40.0f, Projection::kOrthographic, inf),
               std::invalid_argument);
  // target - eye so short that it normalizes to squared length 1.0195.
  EXPECT_THROW(Camera({4, 4, 0}, {4, 4, 1e-22f}, {0, 1, 0}, 40.0f, Projection::kOrthographic, 4.0f),
               std::invalid_argument);
  // up parallel or antiparallel to the view direction, or zero.
  EXPECT_THROW(Camera({0, 0, 5}, {0, 0, 0}, {0, 0, 1}, 40.0f, persp), std::invalid_argument);
  EXPECT_THROW(Camera({0, 0, 5}, {0, 0, 0}, {0, 0, -3}, 40.0f, persp), std::invalid_argument);
  EXPECT_THROW(Camera({0, 0, 5}, {0, 0, 0}, {0, 0, 0}, 40.0f, persp), std::invalid_argument);
  EXPECT_NO_THROW(Camera({0, 0, 5}, {0, 0, 0}, {0, 1, 1}, 40.0f, persp));
}

TEST(CameraTest, OrbitViewpointGeometry) {
  // Viewpoint 0 looks along -x; viewpoint 4 (of 8) along +x; viewpoint 2
  // along -z. (The "alignment with memory grain" axis of Figs. 4-6.)
  const auto cam0 = render::orbit_camera(0, 8, 64, 64, 64);
  EXPECT_LT(cam0.forward().x, -0.95f);
  const auto cam4 = render::orbit_camera(4, 8, 64, 64, 64);
  EXPECT_GT(cam4.forward().x, 0.95f);
  const auto cam2 = render::orbit_camera(2, 8, 64, 64, 64);
  EXPECT_LT(cam2.forward().z, -0.95f);
  EXPECT_NEAR(cam2.forward().x, 0.0f, 0.05f);
}

TEST(CameraTest, OrbitKeepsDistance) {
  for (unsigned v = 0; v < 8; ++v) {
    const auto cam = render::orbit_camera(v, 8, 64, 64, 64);
    const Vec3 center{32, 32, 32};
    EXPECT_NEAR(length(cam.eye() - center), length(render::orbit_camera(0, 8, 64, 64, 64).eye() - center),
                1e-2f);
  }
}

// ---------------------------------------------------------------------------
// Trilinear sampling
// ---------------------------------------------------------------------------

TEST(Trilinear, ExactAtLatticePoints) {
  Grid3D<float, ArrayOrderLayout> g(Extents3D{4, 4, 4});
  g.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return static_cast<float>(i + 10 * j + 100 * k);
  });
  const core::PlainView view(g);
  EXPECT_FLOAT_EQ(render::sample_trilinear(view, {1, 2, 3}), 321.0f);
  EXPECT_FLOAT_EQ(render::sample_trilinear(view, {0, 0, 0}), 0.0f);
}

TEST(Trilinear, ReproducesLinearFieldsExactly) {
  Grid3D<float, ArrayOrderLayout> g(Extents3D{8, 8, 8});
  g.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return 2.0f * static_cast<float>(i) - 1.0f * static_cast<float>(j) +
           0.5f * static_cast<float>(k) + 3.0f;
  });
  const core::PlainView view(g);
  EXPECT_NEAR(render::sample_trilinear(view, {2.25f, 3.5f, 4.75f}),
              2.0f * 2.25f - 3.5f + 0.5f * 4.75f + 3.0f, 1e-4f);
}

TEST(Trilinear, ClampsOutsideLattice) {
  Grid3D<float, ArrayOrderLayout> g(Extents3D{2, 2, 2});
  g.fill_from([](std::uint32_t i, std::uint32_t, std::uint32_t) {
    return static_cast<float>(i);
  });
  const core::PlainView view(g);
  EXPECT_FLOAT_EQ(render::sample_trilinear(view, {-0.4f, 0.0f, 0.0f}), 0.0f);
  EXPECT_FLOAT_EQ(render::sample_trilinear(view, {1.4f, 1.0f, 1.0f}), 1.0f);
}

// ---------------------------------------------------------------------------
// End-to-end rendering
// ---------------------------------------------------------------------------

namespace {

/// Opaque unit ball in the volume center; background zero.
void fill_ball(Grid3D<float, ArrayOrderLayout>& g) {
  const auto& e = g.extents();
  g.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    const float dx = (static_cast<float>(i) - 0.5f * static_cast<float>(e.nx - 1));
    const float dy = (static_cast<float>(j) - 0.5f * static_cast<float>(e.ny - 1));
    const float dz = (static_cast<float>(k) - 0.5f * static_cast<float>(e.nz - 1));
    const float r = 0.3f * static_cast<float>(e.nx);
    return (dx * dx + dy * dy + dz * dz) < r * r ? 1.0f : 0.0f;
  });
}

TransferFunction opaque_white() {
  return TransferFunction({{0.0f, {0, 0, 0, 0}}, {0.5f, {0, 0, 0, 0}}, {1.0f, {1, 1, 1, 0.9f}}});
}

double image_luminance(const Image& img) {
  double sum = 0;
  for (const auto& p : img.pixels()) {
    sum += p.r + p.g + p.b;
  }
  return sum;
}

}  // namespace

TEST(Raycast, BallIsVisibleFromEveryOrbitViewpoint) {
  Grid3D<float, ArrayOrderLayout> g(Extents3D::cube(32));
  fill_ball(g);
  exec::ExecutionContext pool(2);
  const RenderConfig config{64, 64, 32, 0.5f, 0.98f};
  const auto tf = opaque_white();
  for (unsigned v = 0; v < 8; ++v) {
    const auto cam = render::orbit_camera(v, 8, 32, 32, 32);
    const Image img = render::raycast_parallel(g, cam, tf, config, pool);
    // Center pixel hits the ball; corner pixel misses.
    EXPECT_GT(img.at(32, 32).a, 0.5f) << "viewpoint " << v;
    EXPECT_FLOAT_EQ(img.at(0, 0).a, 0.0f) << "viewpoint " << v;
    EXPECT_GT(image_luminance(img), 10.0) << "viewpoint " << v;
  }
}

TEST(Raycast, LayoutTransparencyPixelExact) {
  // Identical images from array-order and Z-order copies of the volume —
  // the paper's transparency requirement, pixel-exact because the sequence
  // of float operations is identical.
  const Extents3D e = Extents3D::cube(24);
  Grid3D<float, ArrayOrderLayout> ga(e);
  data::fill_combustion(ga);
  const auto gz = core::convert_layout<GeneralizedMortonLayout>(ga);
  exec::ExecutionContext pool(2);
  const RenderConfig config{48, 48, 16, 0.6f, 0.98f};
  const auto tf = TransferFunction::flame();
  const auto cam = render::orbit_camera(3, 8, 24, 24, 24);
  const Image ia = render::raycast_parallel(ga, cam, tf, config, pool);
  const Image iz = render::raycast_parallel(gz, cam, tf, config, pool);
  ASSERT_EQ(ia.pixels().size(), iz.pixels().size());
  for (std::size_t p = 0; p < ia.pixels().size(); ++p) {
    ASSERT_EQ(ia.pixels()[p], iz.pixels()[p]) << "pixel " << p;
  }
}

TEST(Raycast, TracedMatchesParallelImage) {
  const Extents3D e = Extents3D::cube(16);
  Grid3D<float, ArrayOrderLayout> g(e);
  fill_ball(g);
  exec::ExecutionContext pool(2);
  const RenderConfig config{32, 32, 8, 0.7f, 0.98f};
  const auto tf = opaque_white();
  const auto cam = render::orbit_camera(1, 8, 16, 16, 16);
  const Image native = render::raycast_parallel(g, cam, tf, config, pool);

  memsim::Hierarchy h(memsim::tiny_test_platform(), 3);
  Image traced(config.image_width, config.image_height);
  auto replay_ctx = exec::make_replay_context(h.num_threads());
  replay_ctx.jobs().replay(
      render::raycast_job(g, cam, tf, config, traced, nullptr, false, core::traced_views(h)));
  for (std::size_t p = 0; p < native.pixels().size(); ++p) {
    ASSERT_EQ(native.pixels()[p], traced.pixels()[p]);
  }
  EXPECT_GT(h.total_accesses(), 0u);
}

TEST(Raycast, EarlyTerminationReducesWork) {
  const Extents3D e = Extents3D::cube(24);
  Grid3D<float, ArrayOrderLayout> g(e);
  fill_ball(g);
  const auto tf = opaque_white();
  const auto cam = render::orbit_camera(0, 8, 24, 24, 24);
  auto traced_accesses = [&](float threshold) {
    memsim::Hierarchy h(memsim::tiny_test_platform(), 1);
    const RenderConfig config{32, 32, 32, 0.5f, threshold};
    Image image(config.image_width, config.image_height);
    auto replay_ctx = exec::make_replay_context(h.num_threads());
    replay_ctx.jobs().replay(
        render::raycast_job(g, cam, tf, config, image, nullptr, false, core::traced_views(h)));
    return h.total_accesses();
  };
  EXPECT_LT(traced_accesses(0.5f), traced_accesses(1.1f));
}

TEST(Raycast, ViewpointSensitivityIsArrayOrderSpecific) {
  // Fig. 4's effect in miniature: escapes from the private stack vary with
  // viewpoint under array order far more than under Z-order.
  const Extents3D e = Extents3D::cube(32);
  Grid3D<float, ArrayOrderLayout> ga(e);
  data::fill_combustion(ga);
  const auto gz = core::convert_layout<GeneralizedMortonLayout>(ga);
  const auto tf = TransferFunction::flame();
  const RenderConfig config{48, 48, 16, 0.75f, 1.1f};

  auto fills = [&](const auto& grid, unsigned viewpoint) {
    memsim::Hierarchy h(memsim::tiny_test_platform(), 2);
    const auto cam = render::orbit_camera(viewpoint, 8, 32, 32, 32);
    Image image(config.image_width, config.image_height);
    auto replay_ctx = exec::make_replay_context(h.num_threads());
    replay_ctx.jobs().replay(
        render::raycast_job(grid, cam, tf, config, image, nullptr, false, core::traced_views(h)));
    return static_cast<double>(h.counter("L2_DATA_READ_MISS_MEM_FILL"));
  };

  const double a_aligned = fills(ga, 0);
  const double a_cross = fills(ga, 2);
  const double z_aligned = fills(gz, 0);
  const double z_cross = fills(gz, 2);
  const double a_ratio = a_cross / a_aligned;
  const double z_ratio = z_cross / z_aligned;
  EXPECT_GT(a_ratio, 1.15);  // array order degrades off-axis
  EXPECT_LT(std::abs(z_ratio - 1.0), std::abs(a_ratio - 1.0))
      << "z-order must be less viewpoint-sensitive (a: " << a_ratio
      << ", z: " << z_ratio << ")";
}

// ---------------------------------------------------------------------------
// Image IO
// ---------------------------------------------------------------------------

TEST(ImageIO, WritesValidPpm) {
  Image img(4, 2);
  img.at(0, 0) = Rgba{1, 0, 0, 1};
  img.at(3, 1) = Rgba{0, 1, 0, 1};
  const auto path = std::filesystem::temp_directory_path() / "sfcvis_test.ppm";
  render::write_ppm(path, img);
  std::ifstream in(path, std::ios::binary);
  std::string magic, dims1, dims2, maxval;
  in >> magic >> dims1 >> dims2 >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(dims1, "4");
  EXPECT_EQ(dims2, "2");
  EXPECT_EQ(maxval, "255");
  in.get();  // single whitespace after header
  std::vector<unsigned char> payload(4 * 2 * 3);
  in.read(reinterpret_cast<char*>(payload.data()), payload.size());
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(payload.size()));
  EXPECT_EQ(payload[0], 255u);  // red pixel
  EXPECT_EQ(payload[1], 0u);
  EXPECT_EQ(payload[3 * 7 + 1], 255u);  // green pixel at (3,1)
}

TEST(ImageIO, ThrowsOnBadPath) {
  const Image img(2, 2);
  EXPECT_THROW(render::write_ppm("/nonexistent_dir_xyz/out.ppm", img), std::runtime_error);
}

TEST(Raycast, RejectsNonPositiveOrNonFiniteStep) {
  // A step <= 0 never carries t past t_exit (the render would not
  // return); an infinite one samples at t_enter + 0 * inf = NaN.
  Grid3D<float, ArrayOrderLayout> g(Extents3D::cube(8));
  exec::ExecutionContext pool(1);
  for (const float step : {0.0f, -0.5f, std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(render::validate_step(step), std::invalid_argument) << step;
    RenderConfig config{8, 8, 8, step, 0.98f};
    EXPECT_THROW(render::raycast_parallel(g, render::orbit_camera(0, 8, 8, 8, 8),
                                          TransferFunction::flame(), config, pool),
                 std::invalid_argument)
        << step;
  }
  EXPECT_NO_THROW(render::validate_step(0.5f));
  EXPECT_NO_THROW(render::validate_step(std::numeric_limits<float>::denorm_min()));
}

TEST(Raycast, ZeroDirectionRayReturnsBackground) {
  // Ray is a public aggregate, so a caller can build a ray no Camera makes.
  Grid3D<float, ArrayOrderLayout> g(Extents3D::cube(8));
  const core::PlainView view(g);
  const Ray ray{{3.5f, 3.5f, 3.5f}, {0, 0, 0}};
  // Checked first: where intersect_box accepts the ray, trace_ray does not return.
  ASSERT_FALSE(render::intersect_box(ray, Vec3{-0.5f, -0.5f, -0.5f}, Vec3{7.5f, 7.5f, 7.5f}));
  render::RayStats stats;
  const Rgba c = render::trace_ray(view, ray, TransferFunction::flame(), RenderConfig{},
                                   nullptr, &stats);
  EXPECT_EQ(bits(c), bits(Rgba{}));
  EXPECT_EQ(stats.samples_taken, 0u);
}

TEST(Raycast, TinyDirectionRayReturnsBackground) {
  // Finite but far from unit length: its span in an 8^3 box would be
  // [0, 4e30], and trace_ray at step 0.5 would not return.
  Grid3D<float, ArrayOrderLayout> g(Extents3D::cube(8));
  const core::PlainView view(g);
  const Ray ray{{3.5f, 3.5f, 3.5f}, {1e-30f, 0, 0}};
  render::RayStats stats;
  const Rgba c = render::trace_ray(view, ray, TransferFunction::flame(), RenderConfig{},
                                   nullptr, &stats);
  EXPECT_EQ(bits(c), bits(Rgba{}));
  EXPECT_EQ(stats.samples_taken, 0u);
}

// ---------------------------------------------------------------------------
// Reference compositor
// ---------------------------------------------------------------------------

namespace {

/// The dense compositor before the cell load and the transparent-sample
/// skip: eight at_clamped reads per trilinear sample, and tf.sample, the
/// opacity pow and the composite on every sample. Sample positions, the
/// lighting scale and the composite use the renderer's own helpers.
template <class View>
float reference_trilinear(const View& view, Vec3 p) {
  const float fx = std::floor(p.x), fy = std::floor(p.y), fz = std::floor(p.z);
  const auto i = static_cast<std::int64_t>(fx);
  const auto j = static_cast<std::int64_t>(fy);
  const auto k = static_cast<std::int64_t>(fz);
  const float tx = p.x - fx, ty = p.y - fy, tz = p.z - fz;
  auto lerp = [](float a, float b, float t) { return a + (b - a) * t; };
  const float c000 = view.at_clamped(i, j, k);
  const float c100 = view.at_clamped(i + 1, j, k);
  const float c010 = view.at_clamped(i, j + 1, k);
  const float c110 = view.at_clamped(i + 1, j + 1, k);
  const float c001 = view.at_clamped(i, j, k + 1);
  const float c101 = view.at_clamped(i + 1, j, k + 1);
  const float c011 = view.at_clamped(i, j + 1, k + 1);
  const float c111 = view.at_clamped(i + 1, j + 1, k + 1);
  const float c00 = lerp(c000, c100, tx);
  const float c10 = lerp(c010, c110, tx);
  const float c01 = lerp(c001, c101, tx);
  const float c11 = lerp(c011, c111, tx);
  return lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz);
}

template <class View>
Rgba reference_ray(const View& view, const Ray& ray, const TransferFunction& tf,
                   const RenderConfig& config) {
  const auto& e = view.extents();
  const Vec3 lo{-0.5f, -0.5f, -0.5f};
  const Vec3 hi{static_cast<float>(e.nx) - 0.5f, static_cast<float>(e.ny) - 0.5f,
                static_cast<float>(e.nz) - 0.5f};
  const auto span = render::intersect_box(ray, lo, hi);
  Rgba out;
  if (!span) {
    return out;
  }
  for (std::uint64_t n = 0;; ++n) {
    const float t = render::detail::sample_param(span->first, n, config.step);
    if (t > span->second) {
      break;
    }
    const Vec3 p = render::detail::sample_position(ray, t);
    Rgba sample = tf.sample(reference_trilinear(view, p));
    if (config.shade && sample.a > 0.0f) {
      const Vec3 normal{
          0.5f * (reference_trilinear(view, Vec3{p.x + 1, p.y, p.z}) -
                  reference_trilinear(view, Vec3{p.x - 1, p.y, p.z})),
          0.5f * (reference_trilinear(view, Vec3{p.x, p.y + 1, p.z}) -
                  reference_trilinear(view, Vec3{p.x, p.y - 1, p.z})),
          0.5f * (reference_trilinear(view, Vec3{p.x, p.y, p.z + 1}) -
                  reference_trilinear(view, Vec3{p.x, p.y, p.z - 1})),
      };
      const float lit = render::detail::headlight_scale(normal, ray.dir, config.ambient);
      sample.r *= lit;
      sample.g *= lit;
      sample.b *= lit;
    }
    sample.a = 1.0f - std::pow(1.0f - sample.a, config.step);
    out.composite_under(sample);
    if (!(out.a < config.early_termination)) {
      break;
    }
  }
  return out;
}

/// Random piecewise-linear map whose points alternate in pairs between
/// transparent bands (alpha exactly 0, random tint) and random opacity.
TransferFunction random_banded_tf(std::mt19937& rng) {
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  std::vector<render::TransferPoint> points;
  const int count = 4 + static_cast<int>(rng() % 5);
  float value = -0.1f;
  for (int p = 0; p < count; ++p) {
    value += 0.05f + 0.3f * u(rng);
    const bool clear = (p / 2) % 2 == 0;
    points.push_back({value, {u(rng), u(rng), u(rng), clear ? 0.0f : u(rng)}});
  }
  return TransferFunction(points);
}

}  // namespace

TEST(Raycast, MatchesDenseReferenceCompositorBitExact) {
  // trace_ray, dense and with macrocells, on array order and Z-order, must
  // reproduce the reference bit for bit — the cell
  // load and the transparent-sample skip change no output bit. An
  // early_termination of 0 stops every ray after its first sample, so a
  // transparent first sample pins the skip path's return value.
  std::mt19937 rng(1234);
  std::uniform_real_distribution<float> noise(-0.05f, 0.05f);
  const Extents3D e{23, 17, 13};
  for (int trial = 0; trial < 4; ++trial) {
    Grid3D<float, ArrayOrderLayout> ga(e);
    const float fi = 0.2f + 0.1f * static_cast<float>(trial);
    ga.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
      return 0.5f + 0.45f * std::sin(fi * static_cast<float>(i) + 0.3f * static_cast<float>(j)) *
                        std::cos(0.35f * static_cast<float>(k)) +
             noise(rng);
    });
    const auto gz = core::convert_layout<GeneralizedMortonLayout>(ga);
    const core::PlainView va(ga);
    const core::PlainView vz(gz);
    const auto tf = random_banded_tf(rng);
    const auto cells = render::MacrocellGrid::build(ga, 4);
    const auto cam = render::orbit_camera(static_cast<unsigned>(2 * trial + 1), 8, 23, 17, 13);
    for (const bool shade : {false, true}) {
      for (const float early : {0.0f, 0.5f, 0.98f, 1.0f}) {
        RenderConfig config{24, 20, 12, 0.35f + 0.2f * static_cast<float>(trial), early};
        config.shade = shade;
        std::vector<Rgba> want;
        for (std::uint32_t y = 0; y < config.image_height; ++y) {
          for (std::uint32_t x = 0; x < config.image_width; ++x) {
            want.push_back(reference_ray(
                va, cam.ray_for_pixel(x, y, config.image_width, config.image_height), tf,
                config));
          }
        }
        const TileDecomposition tiles(config.image_width, config.image_height,
                                      config.tile_size);
        for (const bool macro : {false, true}) {
          for (const bool zorder : {false, true}) {
            Image img(config.image_width, config.image_height);
            for (std::size_t t = 0; t < tiles.count(); ++t) {
              if (zorder) {
                render::render_tile(vz, cam, tf, config, img, tiles.bounds(t),
                                    macro ? &cells : nullptr);
              } else {
                render::render_tile(va, cam, tf, config, img, tiles.bounds(t),
                                    macro ? &cells : nullptr);
              }
            }
            for (std::size_t p = 0; p < want.size(); ++p) {
              ASSERT_EQ(bits(img.pixels()[p]), bits(want[p]))
                  << "trial " << trial << " shade " << shade << " early " << early
                  << " macrocells " << macro << " zorder " << zorder << " pixel " << p;
            }
          }
        }
      }
    }
  }
}
