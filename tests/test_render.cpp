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

TEST(Transfer, TransparentBoundSamplesToAlphaExactlyZero) {
  // trace_ray classifies a value <= the bound as transparent without a
  // sample() call, so every such value must sample to alpha exactly 0.
  constexpr float inf = std::numeric_limits<float>::infinity();
  const auto flame = TransferFunction::flame();
  EXPECT_EQ(flame.transparent_bound(), 0.15f);
  const auto gray = TransferFunction::grayscale(-2.0f, 3.0f);
  EXPECT_EQ(gray.transparent_bound(), -2.0f);
  // A visible first point leaves no value to skip, -inf included: it
  // samples as that point.
  const TransferFunction visible({{0.0f, {1, 1, 1, 0.5f}}, {1.0f, {0, 0, 0, 0}}});
  EXPECT_TRUE(std::isnan(visible.transparent_bound()));
  const TransferFunction clear({{0.0f, {}}, {1.0f, {0.5f, 0, 0, 0}}});
  EXPECT_EQ(clear.transparent_bound(), inf);
  // The last transparent point and the first visible one share 1.0, where
  // sample() returns the visible colour: the bound lies below it.
  const TransferFunction shared({{0.0f, {}}, {1.0f, {}}, {1.0f, {1, 1, 1, 1}}});
  ASSERT_EQ(shared.sample(1.0f).a, 1.0f);
  EXPECT_EQ(shared.transparent_bound(), std::nextafter(1.0f, -inf));
  for (const TransferFunction* tf : {&flame, &gray, &visible, &clear, &shared}) {
    const float bound = tf->transparent_bound();
    std::vector<float> values{bound, std::nextafter(bound, -inf), -inf};
    for (int i = -3 * 512; i <= 3 * 512; ++i) {
      values.push_back(static_cast<float>(i) / 512.0f);
    }
    for (const auto& p : tf->points()) {
      values.push_back(p.value);
    }
    for (const float v : values) {
      if (v <= bound) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(std::abs(tf->sample(v).a)), 0u) << v;
      }
    }
    EXPECT_FALSE(std::numeric_limits<float>::quiet_NaN() <= bound);
  }
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
  // Tile sizes near 2^32 must not wrap the tile count or the tile bounds.
  for (const std::uint32_t tile_size : {16u, 0x80000000u, 0xFFFFFFFFu}) {
    SCOPED_TRACE(tile_size);
    const TileDecomposition tiles(w, h, tile_size);
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

TEST(Raycast, StepTooSmallForTheVolumeIsRejected) {
  // Sample n lies at t_enter + n * step. Once n * step falls under half an
  // ulp of t_enter, t stops advancing: at a step of 1e-30 no ray through
  // an 8^3 volume would end.
  Grid3D<float, ArrayOrderLayout> g(Extents3D::cube(8));
  exec::ExecutionContext pool(1);
  const RenderConfig config{8, 8, 8, 1e-30f, 0.98f};
  EXPECT_THROW(render::raycast_parallel(g, render::orbit_camera(0, 8, 8, 8, 8),
                                        TransferFunction::flame(), config, pool),
               std::invalid_argument);
  // The 8^3 box diagonal (13.9 voxels) takes 2^24 samples at 8.3e-7, the
  // 256^3 one (443 voxels) at 2.6e-5.
  EXPECT_NO_THROW(render::validate_step(1e-6f, Extents3D::cube(8)));
  EXPECT_THROW(render::validate_step(1e-6f, Extents3D::cube(16)), std::invalid_argument);
  EXPECT_NO_THROW(render::validate_step(2.7e-5f, Extents3D::cube(256)));
  EXPECT_THROW(render::validate_step(2.6e-5f, Extents3D::cube(256)), std::invalid_argument);
  EXPECT_THROW(render::validate_step(0.0f, Extents3D::cube(8)), std::invalid_argument);
}

TEST(Raycast, StepTooSmallForTheSpanRendersTransparent) {
  // trace_ray called directly: a span that sample 2^24 does not pass
  // renders transparent at once, on every path; a small step that does
  // pass it still renders.
  Grid3D<float, ArrayOrderLayout> g(Extents3D::cube(8));
  g.fill_from([](std::uint32_t, std::uint32_t, std::uint32_t) { return 1.0f; });
  const core::PlainView view(g);
  const auto cells = render::MacrocellGrid::build(g, 4);
  const render::ClassifiedCells classes(cells, TransferFunction::flame());
  const Ray ray{{20.0f, 3.5f, 3.5f}, {-1, 0, 0}};
  for (const auto mode : {render::RenderMode::kComposite, render::RenderMode::kMip}) {
    const std::array<const render::ClassifiedCells*, 2> grids{&classes, nullptr};
    for (const render::ClassifiedCells* grid : grids) {
      RenderConfig config{8, 8, 8, 1e-30f, 0.98f};
      config.mode = mode;
      render::RayStats stats;
      const Rgba c = render::trace_ray(view, ray, TransferFunction::flame(), config, grid, &stats);
      EXPECT_EQ(bits(c), bits(Rgba{}));
      EXPECT_EQ(stats.samples_taken, 0u);
      config.step = 1e-4f;
      EXPECT_GT(render::trace_ray(view, ray, TransferFunction::flame(), config, grid).a, 0.0f);
    }
  }
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

/// The compositor before the cell load, the transparent-sample skip and
/// the batched march: eight at_clamped reads per trilinear sample, and
/// tf.sample, the opacity pow and the composite on every sample, one
/// sample at a time. With `cells` it walks the macrocells as trace_ray
/// does. Sample positions, the lighting scale and the composite use the
/// renderer's own helpers. `taken` counts the samples it takes.
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
                   const RenderConfig& config, const render::MacrocellGrid* cells = nullptr,
                   std::uint64_t* taken = nullptr) {
  const auto& e = view.extents();
  const Vec3 lo{-0.5f, -0.5f, -0.5f};
  const Vec3 hi{static_cast<float>(e.nx) - 0.5f, static_cast<float>(e.ny) - 0.5f,
                static_cast<float>(e.nz) - 0.5f};
  const auto span = render::intersect_box(ray, lo, hi);
  Rgba out;
  if (!span) {
    return out;
  }
  const float t_enter = span->first;
  const float t_exit = span->second;
  const auto t_of = [&](std::uint64_t n) {
    return render::detail::sample_param(t_enter, n, config.step);
  };
  // Composites sample n; false once the ray terminates.
  const auto composite = [&](std::uint64_t n) {
    const Vec3 p = render::detail::sample_position(ray, t_of(n));
    Rgba sample = tf.sample(reference_trilinear(view, p));
    if (config.shade && sample.a > 0.0f) {
      const float xp = reference_trilinear(view, Vec3{p.x + 1, p.y, p.z});
      const float xm = reference_trilinear(view, Vec3{p.x - 1, p.y, p.z});
      const float yp = reference_trilinear(view, Vec3{p.x, p.y + 1, p.z});
      const float ym = reference_trilinear(view, Vec3{p.x, p.y - 1, p.z});
      const float zp = reference_trilinear(view, Vec3{p.x, p.y, p.z + 1});
      const float zm = reference_trilinear(view, Vec3{p.x, p.y, p.z - 1});
      const Vec3 normal{0.5f * (xp - xm), 0.5f * (yp - ym), 0.5f * (zp - zm)};
      const float lit = render::detail::headlight_scale(normal, ray.dir, config.ambient);
      sample.r *= lit;
      sample.g *= lit;
      sample.b *= lit;
    }
    sample.a = 1.0f - std::pow(1.0f - sample.a, config.step);
    out.composite_under(sample);
    if (taken != nullptr) {
      ++*taken;
    }
    return out.a < config.early_termination;
  };
  if (cells == nullptr) {
    for (std::uint64_t n = 0; t_of(n) <= t_exit; ++n) {
      if (!composite(n)) {
        break;
      }
    }
    return out;
  }
  // A macrocell whose value range classifies to alpha 0 is skipped to the
  // first sample past its exit; any other is sampled up to its exit.
  const Vec3 inv_dir{1.0f / ray.dir.x, 1.0f / ray.dir.y, 1.0f / ray.dir.z};
  std::uint64_t n = 0;
  while (t_of(n) <= t_exit) {
    const auto c = cells->cell_of(render::detail::sample_position(ray, t_of(n)));
    const float exit = std::min(cells->cell_exit(ray.origin, inv_dir, c), t_exit);
    const auto range = cells->range(c);
    if (tf.max_opacity(range.min, range.max) <= 0.0f) {
      n = render::detail::skip_samples_past(n, exit, t_enter, config.step);
      continue;
    }
    do {
      if (!composite(n++)) {
        return out;
      }
    } while (t_of(n) <= exit);
  }
  return out;
}

/// Every address a traced view reads, in order.
struct RecordingSink {
  std::vector<std::uint64_t> addrs;
  void access(std::uint64_t addr, std::uint32_t /*bytes*/) { addrs.push_back(addr); }
};

/// Random piecewise-linear map whose points alternate in pairs between
/// transparent bands (alpha exactly 0, random tint) and random opacity,
/// starting with a transparent pair unless `visible_first`.
TransferFunction random_banded_tf(std::mt19937& rng, bool visible_first = false) {
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  std::vector<render::TransferPoint> points;
  const int count = 4 + static_cast<int>(rng() % 5);
  float value = -0.1f;
  for (int p = 0; p < count; ++p) {
    value += 0.05f + 0.3f * u(rng);
    const bool clear = ((p / 2) % 2 == 0) != visible_first;
    points.push_back({value, {u(rng), u(rng), u(rng), clear ? 0.0f : u(rng)}});
  }
  return TransferFunction(points);
}

}  // namespace

TEST(Raycast, MatchesDenseReferenceCompositorBitExact) {
  // trace_ray, dense and with macrocells, on array order and Z-order, must
  // reproduce the reference bit for bit and take as many samples — the
  // cell load, the transparent-sample skip and the batched march change
  // no output bit. An early_termination of 0 stops every ray after its
  // first sample, so a transparent first sample pins the skip path's
  // return value. Trial 4's map is visible from its first point on (no
  // value skips classification) and its volume holds a -inf voxel,
  // trials 1 and 5 hold a NaN voxel, and
  // trial 5's rays cross several full 16-sample batches and end in a
  // partial one.
  std::mt19937 rng(1234);
  std::uniform_real_distribution<float> noise(-0.05f, 0.05f);
  for (int trial = 0; trial < 6; ++trial) {
    const Extents3D e = trial < 5 ? Extents3D{23, 17, 13} : Extents3D{40, 19, 44};
    Grid3D<float, ArrayOrderLayout> ga(e);
    const float fi = 0.2f + 0.1f * static_cast<float>(trial);
    ga.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
      return 0.5f + 0.45f * std::sin(fi * static_cast<float>(i) + 0.3f * static_cast<float>(j)) *
                        std::cos(0.35f * static_cast<float>(k)) +
             noise(rng);
    });
    if (trial == 1 || trial == 5) {
      ga.at(e.nx / 2, e.ny / 2, e.nz / 2) = std::numeric_limits<float>::quiet_NaN();
    }
    if (trial == 4) {  // its trilinear values include -inf, which is visible here
      ga.at(e.nx / 2, e.ny / 2, e.nz / 2) = -std::numeric_limits<float>::infinity();
    }
    const auto gz = core::convert_layout<GeneralizedMortonLayout>(ga);
    const core::PlainView va(ga);
    const core::PlainView vz(gz);
    const auto tf = random_banded_tf(rng, trial == 4);
    if (trial == 4) {
      ASSERT_TRUE(std::isnan(tf.transparent_bound()));
    }
    const auto cells = render::MacrocellGrid::build(ga, 4);
    const render::ClassifiedCells classes(cells, tf);
    const auto cam = render::orbit_camera(static_cast<unsigned>(2 * trial + 1) % 8, 8,
                                          static_cast<float>(e.nx), static_cast<float>(e.ny),
                                          static_cast<float>(e.nz));
    const float step = trial < 5 ? 0.35f + 0.2f * static_cast<float>(trial) : 0.3f;
    for (const bool shade : {false, true}) {
      for (const float early : {0.0f, 0.5f, 0.98f, 1.0f}) {
        RenderConfig config{24, 20, 12, step, early};
        config.shade = shade;
        std::vector<Rgba> want;
        std::uint64_t dense_taken = 0;
        std::uint64_t macro_taken = 0;
        for (std::uint32_t y = 0; y < config.image_height; ++y) {
          for (std::uint32_t x = 0; x < config.image_width; ++x) {
            const Ray ray = cam.ray_for_pixel(x, y, config.image_width, config.image_height);
            want.push_back(reference_ray(va, ray, tf, config, nullptr, &dense_taken));
            (void)reference_ray(va, ray, tf, config, &cells, &macro_taken);
          }
        }
        const TileDecomposition tiles(config.image_width, config.image_height,
                                      config.tile_size);
        for (const bool macro : {false, true}) {
          for (const bool zorder : {false, true}) {
            Image img(config.image_width, config.image_height);
            render::RayStats stats;
            for (std::size_t t = 0; t < tiles.count(); ++t) {
              if (zorder) {
                render::render_tile(vz, cam, tf, config, img, tiles.bounds(t),
                                    macro ? &classes : nullptr, &stats);
              } else {
                render::render_tile(va, cam, tf, config, img, tiles.bounds(t),
                                    macro ? &classes : nullptr, &stats);
              }
            }
            const auto where = ::testing::Message()
                               << "trial " << trial << " shade " << shade << " early " << early
                               << " macrocells " << macro << " zorder " << zorder;
            ASSERT_EQ(stats.samples_taken, macro ? macro_taken : dense_taken) << where;
            for (std::size_t p = 0; p < want.size(); ++p) {
              ASSERT_EQ(bits(img.pixels()[p]), bits(want[p])) << where << " pixel " << p;
            }
          }
        }
      }
    }
  }
}

TEST(Raycast, HugeStepTakesOnlyTheFirstSample) {
  // Past the first sample, every lane of the first batch lies far outside
  // the volume, the last ones at inf or NaN: they must read nothing that
  // changes the image.
  Grid3D<float, ArrayOrderLayout> g(Extents3D::cube(8));
  g.fill_from([](std::uint32_t i, std::uint32_t, std::uint32_t) { return 0.2f + 0.1f * i; });
  const core::PlainView view(g);
  const auto tf = TransferFunction::flame();
  for (const float step : {1e18f, 3e37f, std::numeric_limits<float>::max()}) {
    const RenderConfig config{8, 8, 8, step, 0.98f};
    for (const Ray& ray : {Ray{{20.0f, 3.5f, 3.5f}, {-1, 0, 0}},
                           Ray{{3.3f, 20.0f, 3.6f}, {0, -1, 0}}}) {
      render::RayStats stats;
      std::uint64_t taken = 0;
      const Rgba c = render::trace_ray(view, ray, tf, config, nullptr, &stats);
      EXPECT_EQ(bits(c), bits(reference_ray(view, ray, tf, config, nullptr, &taken))) << step;
      EXPECT_EQ(stats.samples_taken, 1u) << step;
      EXPECT_EQ(taken, 1u) << step;
    }
  }
}

TEST(Raycast, TracedRenderReadsEightTapsPerReferenceSample) {
  // A traced view marches one sample per step: its address stream is the
  // reference loop's, 8 at_clamped taps per sample in sample order (plus
  // the 48 gradient taps of a shaded visible sample), with nothing read
  // past a run's end or the terminating sample.
  std::mt19937 rng(77);
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  const Extents3D e{21, 15, 18};
  Grid3D<float, ArrayOrderLayout> g(e);
  g.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return 0.5f + 0.45f * std::sin(0.3f * static_cast<float>(i)) *
                      std::cos(0.25f * static_cast<float>(j + k)) +
           0.05f * u(rng);
  });
  const auto tf = random_banded_tf(rng);
  const auto cells = render::MacrocellGrid::build(g, 4);
  const render::ClassifiedCells classes(cells, tf);
  const auto cam = render::orbit_camera(3, 8, 21, 15, 18);
  for (const bool shade : {false, true}) {
    for (const bool macro : {false, true}) {
      RenderConfig config{16, 12, 8, 0.45f, 0.5f};
      config.shade = shade;
      const render::MacrocellGrid* grid = macro ? &cells : nullptr;
      const render::ClassifiedCells* classified = macro ? &classes : nullptr;
      RecordingSink got;
      RecordingSink want;
      const core::TracedView traced(g, got);
      const core::TracedView reference(g, want);
      std::uint64_t taken = 0;
      for (std::uint32_t y = 0; y < config.image_height; ++y) {
        for (std::uint32_t x = 0; x < config.image_width; ++x) {
          const Ray ray = cam.ray_for_pixel(x, y, config.image_width, config.image_height);
          render::RayStats stats;
          const Rgba c = render::trace_ray(traced, ray, tf, config, classified, &stats);
          std::uint64_t ref_taken = 0;
          ASSERT_EQ(bits(c), bits(reference_ray(reference, ray, tf, config, grid, &ref_taken)));
          ASSERT_EQ(stats.samples_taken, ref_taken);
          taken += ref_taken;
        }
      }
      ASSERT_GT(taken, 0u);
      ASSERT_GE(want.addrs.size(), 8 * taken);
      EXPECT_EQ(got.addrs, want.addrs) << "shade " << shade << " macrocells " << macro;
    }
  }
}

// ---------------------------------------------------------------------------
// The macrocell walk by runs against the per-cell walk
// ---------------------------------------------------------------------------

namespace {

/// MIP over the macrocells one cell at a time, the walk trace_ray took
/// before it crossed runs of cells: a cell whose max cannot raise the peak
/// is skipped to the first sample past its exit, any other is sampled up
/// to its exit. `taken` counts the samples it takes.
template <class View>
Rgba reference_mip_ray(const View& view, const Ray& ray, const TransferFunction& tf,
                       const RenderConfig& config, const render::MacrocellGrid& cells,
                       std::uint64_t& taken) {
  const auto& e = view.extents();
  const auto span = render::intersect_box(
      ray, Vec3{-0.5f, -0.5f, -0.5f},
      Vec3{static_cast<float>(e.nx) - 0.5f, static_cast<float>(e.ny) - 0.5f,
           static_cast<float>(e.nz) - 0.5f});
  if (!span) {
    return Rgba{};
  }
  const float t_enter = span->first;
  const float t_exit = span->second;
  const auto t_of = [&](std::uint64_t n) {
    return render::detail::sample_param(t_enter, n, config.step);
  };
  const Vec3 inv_dir{1.0f / ray.dir.x, 1.0f / ray.dir.y, 1.0f / ray.dir.z};
  float peak = -std::numeric_limits<float>::max();
  std::uint64_t n = 0;
  while (n == 0 || t_of(n) <= t_exit) {
    const auto c = cells.cell_of(render::detail::sample_position(ray, t_of(n)));
    const float exit = std::min(cells.cell_exit(ray.origin, inv_dir, c), t_exit);
    if (cells.range(c).max <= peak) {
      n = render::detail::skip_samples_past(n, exit, t_enter, config.step);
      continue;
    }
    do {
      const Vec3 p = render::detail::sample_position(ray, t_of(n++));
      peak = std::max(peak, reference_trilinear(view, p));
      ++taken;
    } while (t_of(n) <= exit);
  }
  Rgba out = tf.sample(peak);
  out.r *= out.a;
  out.g *= out.a;
  out.b *= out.a;
  return out;
}

/// Samples the run walk took and skipped in composite mode, summed over rays.
struct WalkTotals {
  std::uint64_t taken = 0;
  std::uint64_t skipped = 0;
};

/// Casts every ray through trace_ray's walk by runs over macrocells of
/// `block` and through the per-cell walks (reference_ray,
/// reference_mip_ray), in composite mode, shaded composite mode and MIP,
/// through a PlainView and a TracedView. Each ray must come out with the
/// same bits and the same sample count, and the traced view must read
/// what the per-cell walk reads, in the same order.
WalkTotals expect_runs_match_cells(const Grid3D<float, ArrayOrderLayout>& g,
                                   std::uint32_t block, const TransferFunction& tf,
                                   const std::vector<Ray>& rays) {
  const auto cells = render::MacrocellGrid::build(g, block);
  const render::ClassifiedCells classes(cells, tf);
  const core::PlainView plain(g);
  WalkTotals totals;
  for (const int mode : {0, 1, 2}) {
    RenderConfig config;
    config.mode = mode == 2 ? render::RenderMode::kMip : render::RenderMode::kComposite;
    config.shade = mode == 1;
    RecordingSink got;
    RecordingSink want;
    const core::TracedView traced(g, got);
    const core::TracedView reference(g, want);
    for (std::size_t r = 0; r < rays.size(); ++r) {
      const Ray& ray = rays[r];
      render::RayStats plain_stats;
      render::RayStats traced_stats;
      std::uint64_t taken = 0;
      const Rgba p = render::trace_ray(plain, ray, tf, config, &classes, &plain_stats);
      const Rgba t = render::trace_ray(traced, ray, tf, config, &classes, &traced_stats);
      const Rgba ref = mode == 2 ? reference_mip_ray(reference, ray, tf, config, cells, taken)
                                 : reference_ray(reference, ray, tf, config, &cells, &taken);
      const auto where = ::testing::Message()
                         << "mode " << mode << " block " << block << " ray " << r << " origin ("
                         << ray.origin.x << ", " << ray.origin.y << ", " << ray.origin.z
                         << ") dir (" << ray.dir.x << ", " << ray.dir.y << ", " << ray.dir.z
                         << ")";
      EXPECT_EQ(bits(p), bits(ref)) << where;
      EXPECT_EQ(bits(t), bits(ref)) << where;
      EXPECT_EQ(plain_stats.samples_taken, taken) << where;
      EXPECT_EQ(traced_stats.samples_taken, taken) << where;
      if (mode == 0) {
        totals.taken += plain_stats.samples_taken;
        totals.skipped += plain_stats.samples_skipped;
      }
    }
    EXPECT_EQ(got.addrs, want.addrs) << "mode " << mode << " block " << block;
  }
  return totals;
}

/// A smooth field whose flame-like banded map leaves runs of transparent
/// and of occupied macrocells along most rays.
Grid3D<float, ArrayOrderLayout> banded_volume(const Extents3D& e) {
  Grid3D<float, ArrayOrderLayout> g(e);
  g.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return 0.5f + 0.45f * std::sin(0.37f * static_cast<float>(i)) *
                      std::cos(0.29f * static_cast<float>(j) + 0.21f * static_cast<float>(k));
  });
  return g;
}

TransferFunction banded_tf() {
  return TransferFunction({{0.0f, {0.2f, 0.3f, 0.4f, 0.0f}},
                           {0.55f, {0.9f, 0.4f, 0.1f, 0.0f}},
                           {0.7f, {1.0f, 0.6f, 0.2f, 0.5f}},
                           {0.85f, {1.0f, 0.9f, 0.7f, 0.0f}},
                           {1.0f, {1.0f, 1.0f, 1.0f, 0.0f}}});
}

/// The 26 directions toward the neighbours of a lattice point, each once
/// with +0 and once with -0 in its zero components, normalized.
std::vector<Vec3> lattice_directions() {
  std::vector<Vec3> dirs;
  for (const float zero : {0.0f, -0.0f}) {
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) {
            continue;
          }
          const auto c = [&](int d) { return d == 0 ? zero : static_cast<float>(d); };
          dirs.push_back(render::normalized(Vec3{c(dx), c(dy), c(dz)}));
        }
      }
    }
  }
  return dirs;
}

/// Rays along every lattice direction through each point of
/// {x values} x {y values} x {z values}, starting `back` voxels before it.
std::vector<Ray> rays_through(const std::vector<float>& xs, const std::vector<float>& ys,
                              const std::vector<float>& zs, float back) {
  std::vector<Ray> rays;
  for (const Vec3& d : lattice_directions()) {
    for (const float z : zs) {
      for (const float y : ys) {
        for (const float x : xs) {
          const Vec3 p{x, y, z};
          rays.push_back(Ray{p - d * back, d});
        }
      }
    }
  }
  return rays;
}

/// Rays through every pixel of a 20x16 image from each of the 8 orbit
/// viewpoints around `e`.
std::vector<Ray> orbit_rays(const Extents3D& e) {
  std::vector<Ray> rays;
  for (unsigned v = 0; v < 8; ++v) {
    const auto cam = render::orbit_camera(v, 8, static_cast<float>(e.nx),
                                          static_cast<float>(e.ny), static_cast<float>(e.nz));
    for (std::uint32_t y = 0; y < 16; ++y) {
      for (std::uint32_t x = 0; x < 20; ++x) {
        rays.push_back(cam.ray_for_pixel(x, y, 20, 16));
      }
    }
  }
  return rays;
}

}  // namespace

TEST(RunWalk, ZeroDirectionComponents) {
  // Axis-parallel and in-plane diagonal rays from outside the volume: a
  // zero component makes inv_dir +-inf, and on the points that lie on a
  // cell face plane (multiples of 4) that face's term is 0 * inf = NaN.
  const auto g = banded_volume(Extents3D{24, 20, 16});
  const auto totals = expect_runs_match_cells(
      g, 4, banded_tf(), rays_through({4.0f, 9.3f, 16.0f}, {0.0f, 8.0f, 10.7f},
                                      {-0.25f, 4.0f, 13.1f}, 40.0f));
  EXPECT_GT(totals.taken, 0u);
  EXPECT_GT(totals.skipped, 0u);
}

TEST(RunWalk, OriginsOnCellFacePlanes) {
  // Rays start inside the volume at cell edges and corners, so face exits
  // tie: the diagonal ones leave each cell through an edge or a corner.
  const auto g = banded_volume(Extents3D{24, 20, 16});
  const auto totals = expect_runs_match_cells(
      g, 4, banded_tf(), rays_through({4.0f, 12.0f, 20.0f}, {4.0f, 8.0f, 16.0f},
                                      {0.0f, 8.0f, 12.0f}, 0.0f));
  EXPECT_GT(totals.taken, 0u);
  EXPECT_GT(totals.skipped, 0u);
}

TEST(RunWalk, CameraInsideTheVolume) {
  const auto g = banded_volume(Extents3D{24, 20, 16});
  std::vector<Ray> rays;
  for (const Vec3& target : {Vec3{24, 10, 8}, Vec3{0, 0, 0}, Vec3{12, 20, 16}}) {
    const Camera cam(Vec3{11.3f, 9.6f, 7.2f}, target, Vec3{0, 1, 0.3f}, 100.0f,
                     Projection::kPerspective);
    for (std::uint32_t y = 0; y < 16; ++y) {
      for (std::uint32_t x = 0; x < 20; ++x) {
        rays.push_back(cam.ray_for_pixel(x, y, 20, 16));
      }
    }
  }
  const auto totals = expect_runs_match_cells(g, 4, banded_tf(), rays);
  EXPECT_GT(totals.taken, 0u);
  EXPECT_GT(totals.skipped, 0u);
}

TEST(RunWalk, OneCellGrid) {
  // A macrocell of 32 covers the whole 23x17x13 volume: every run is the
  // one cell, entered from the clamped apron and left at the volume's box.
  const auto g = banded_volume(Extents3D{23, 17, 13});
  const auto cells = render::MacrocellGrid::build(g, 32);
  ASSERT_EQ(cells.cell_extents().size(), 1u);
  auto rays = orbit_rays(Extents3D{23, 17, 13});
  const auto lattice = rays_through({4.0f, 11.5f}, {0.0f, 8.0f}, {6.5f}, 40.0f);
  rays.insert(rays.end(), lattice.begin(), lattice.end());
  const auto totals = expect_runs_match_cells(g, 32, banded_tf(), rays);
  EXPECT_GT(totals.taken, 0u);
}

TEST(RunWalk, ExtentsNotMultiplesOfTheBlock) {
  // 23x17x13 under blocks of 5 and 4: the last cell on every axis is cut
  // by the volume's box, and rays leave the grid through it.
  const auto g = banded_volume(Extents3D{23, 17, 13});
  auto rays = orbit_rays(Extents3D{23, 17, 13});
  const auto lattice = rays_through({5.0f, 21.7f}, {10.0f, 16.2f}, {0.0f, 12.4f}, 40.0f);
  rays.insert(rays.end(), lattice.begin(), lattice.end());
  for (const std::uint32_t block : {5u, 4u}) {
    const auto totals = expect_runs_match_cells(g, block, banded_tf(), rays);
    EXPECT_GT(totals.taken, 0u) << block;
    EXPECT_GT(totals.skipped, 0u) << block;
  }
}

TEST(RunWalk, MacrocellSizeOne) {
  // One-voxel cells: a step of 0.5 crosses a cell every other sample, and
  // diagonal rays through lattice points tie on every face they cross.
  const auto g = banded_volume(Extents3D{13, 11, 9});
  auto rays = orbit_rays(Extents3D{13, 11, 9});
  const auto lattice = rays_through({3.0f, 6.5f}, {2.0f, 5.0f}, {4.0f}, 30.0f);
  rays.insert(rays.end(), lattice.begin(), lattice.end());
  const auto totals = expect_runs_match_cells(g, 1, banded_tf(), rays);
  EXPECT_GT(totals.taken, 0u);
  EXPECT_GT(totals.skipped, 0u);
}
