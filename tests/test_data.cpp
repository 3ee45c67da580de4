// Tests for the synthetic dataset generators and volume IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>

#include "sfcvis/data/combustion.hpp"
#include "sfcvis/data/noise.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/data/volume_io.hpp"

namespace core = sfcvis::core;
namespace data = sfcvis::data;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::Grid3D;

// ---------------------------------------------------------------------------
// Value noise / fBm
// ---------------------------------------------------------------------------

TEST(Noise, DeterministicPerSeed) {
  const data::ValueNoise3D a(5), b(5), c(6);
  EXPECT_EQ(a.sample(1.3f, 2.7f, 0.2f), b.sample(1.3f, 2.7f, 0.2f));
  EXPECT_NE(a.sample(1.3f, 2.7f, 0.2f), c.sample(1.3f, 2.7f, 0.2f));
}

TEST(Noise, BoundedToUnitInterval) {
  const data::ValueNoise3D n(11);
  for (int s = 0; s < 5000; ++s) {
    const float x = 0.013f * static_cast<float>(s);
    const float v = n.sample(x, 2.0f * x, 0.5f * x + 1.0f);
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Noise, InterpolatesLatticeSmoothly) {
  // Adjacent samples at 1/64 spacing must differ by far less than the
  // full range: no discontinuities inside lattice cells.
  const data::ValueNoise3D n(13);
  float prev = n.sample(0.0f, 0.4f, 0.9f);
  for (int s = 1; s <= 256; ++s) {
    const float v = n.sample(static_cast<float>(s) / 64.0f, 0.4f, 0.9f);
    EXPECT_LT(std::abs(v - prev), 0.35f);
    prev = v;
  }
}

TEST(Noise, FbmStaysBoundedAndAddsDetail) {
  const data::ValueNoise3D n(17);
  const data::FbmParams one_octave{1, 2.0f, 0.5f, 4.0f};
  const data::FbmParams five_octaves{5, 2.0f, 0.5f, 4.0f};
  double var1 = 0, var5 = 0, diff = 0;
  const int samples = 4000;
  for (int s = 0; s < samples; ++s) {
    const float x = 0.37f * static_cast<float>(s % 61);
    const float y = 0.21f * static_cast<float>(s % 47);
    const float z = 0.11f * static_cast<float>(s % 31);
    const float f1 = data::fbm(n, x, y, z, one_octave);
    const float f5 = data::fbm(n, x, y, z, five_octaves);
    EXPECT_GE(f5, -1.01f);
    EXPECT_LE(f5, 1.01f);
    var1 += f1 * f1;
    var5 += f5 * f5;
    diff += std::abs(f5 - f1);
  }
  EXPECT_GT(diff / samples, 0.01);  // octaves actually contribute
  (void)var1;
  (void)var5;
}

TEST(Noise, ZeroOctavesYieldsZero) {
  const data::ValueNoise3D n(1);
  EXPECT_EQ(data::fbm(n, 0.5f, 0.5f, 0.5f, data::FbmParams{0, 2.0f, 0.5f, 4.0f}), 0.0f);
}

// ---------------------------------------------------------------------------
// MRI phantom
// ---------------------------------------------------------------------------

TEST(Phantom, BackgroundIsZeroInsideSkullIsPositive) {
  const auto model = data::MriPhantom::shepp_logan();
  EXPECT_EQ(model.sample(0.02f, 0.02f, 0.02f), 0.0f);   // outside head
  EXPECT_EQ(model.sample(0.98f, 0.5f, 0.5f), 0.0f);
  const float skull = model.sample(0.5f, 0.95f * 0.5f + 0.5f * 0.92f, 0.5f);
  (void)skull;
  // Center of the head: skull (1.0) + brain (-0.8) = 0.2.
  EXPECT_NEAR(model.sample(0.5f, 0.5f, 0.5f), 0.2f, 1e-5f);
}

TEST(Phantom, VentriclesAreDarkerThanBrain) {
  const auto model = data::MriPhantom::shepp_logan();
  const float brain = model.sample(0.5f, 0.5f, 0.5f);
  // Right ventricle center (0.22, 0, 0) in [-1,1] frame -> (0.61, 0.5, 0.5).
  const float ventricle = model.sample(0.61f, 0.5f, 0.5f);
  EXPECT_LT(ventricle, brain);
}

TEST(Phantom, HasSharpEdges) {
  // Crossing the skull boundary produces a jump >= 0.5 within one voxel at
  // 128 resolution: the edge-preserving property the bilateral filter needs.
  const auto model = data::MriPhantom::shepp_logan();
  float max_jump = 0;
  float prev = model.sample(0.0f, 0.5f, 0.5f);
  for (int i = 1; i < 128; ++i) {
    const float v = model.sample(static_cast<float>(i) / 127.0f, 0.5f, 0.5f);
    max_jump = std::max(max_jump, std::abs(v - prev));
    prev = v;
  }
  EXPECT_GE(max_jump, 0.5f);
}

TEST(Phantom, FillIsLayoutAgnostic) {
  const Extents3D e{24, 24, 24};
  Grid3D<float, ArrayOrderLayout> ga(e);
  Grid3D<float, GeneralizedMortonLayout> gz(e);
  const data::PhantomParams params{.seed = 3, .texture_amplitude = 0.02f, .noise_sigma = 0.03f};
  data::fill_mri_phantom(ga, params);
  data::fill_mri_phantom(gz, params);
  ga.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(ga.at(i, j, k), gz.at(i, j, k));
  });
}

TEST(Phantom, NoiseSigmaControlsRoughness) {
  const Extents3D e{32, 32, 32};
  Grid3D<float, ArrayOrderLayout> clean(e), noisy(e);
  data::fill_mri_phantom(clean, {.seed = 3, .texture_amplitude = 0.0f, .noise_sigma = 0.0f});
  data::fill_mri_phantom(noisy, {.seed = 3, .texture_amplitude = 0.0f, .noise_sigma = 0.1f});
  double clean_tv = 0, noisy_tv = 0;  // total variation along x
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i + 1 < e.nx; ++i) {
        clean_tv += std::abs(clean.at(i + 1, j, k) - clean.at(i, j, k));
        noisy_tv += std::abs(noisy.at(i + 1, j, k) - noisy.at(i, j, k));
      }
    }
  }
  EXPECT_GT(noisy_tv, 1.5 * clean_tv);
}

// ---------------------------------------------------------------------------
// Combustion field
// ---------------------------------------------------------------------------

TEST(Combustion, ValuesInUnitInterval) {
  const data::CombustionField field;
  for (int s = 0; s < 8000; ++s) {
    const float u = static_cast<float>(s % 20) / 19.0f;
    const float v = static_cast<float>((s / 20) % 20) / 19.0f;
    const float w = static_cast<float>(s / 400) / 19.0f;
    const float val = field.sample(u, v, w);
    EXPECT_GE(val, 0.0f);
    EXPECT_LE(val, 1.0f);
  }
}

TEST(Combustion, JetCoreIsFuelRich) {
  const data::CombustionField field;
  // On the jet axis near the nozzle the mixture fraction is ~1 (fuel);
  // far outside it is ~0 (oxidizer).
  EXPECT_GT(field.mixture_fraction(0.5f, 0.05f, 0.5f), 0.6f);
  EXPECT_LT(field.mixture_fraction(0.02f, 0.9f, 0.02f), 0.25f);
}

TEST(Combustion, FlameSheetIsBrightestNearStoichiometric) {
  data::CombustionParams params;
  const data::CombustionField field(params);
  // Scan radially out of the jet: the maximum response must exceed both the
  // core and the far field (the sheet sits between them).
  float core = field.sample(0.5f, 0.1f, 0.5f);
  float far = field.sample(0.05f, 0.1f, 0.05f);
  float best = 0;
  for (int s = 0; s <= 100; ++s) {
    const float u = 0.5f + 0.45f * static_cast<float>(s) / 100.0f;
    best = std::max(best, field.sample(u, 0.1f, 0.5f));
  }
  EXPECT_GT(best, core);
  EXPECT_GT(best, far);
  EXPECT_GT(best, 0.5f);
}

TEST(Combustion, DeterministicPerSeed) {
  data::CombustionParams a;
  a.seed = 3;
  data::CombustionParams b;
  b.seed = 4;
  const data::CombustionField fa1(a), fa2(a), fb(b);
  EXPECT_EQ(fa1.sample(0.3f, 0.4f, 0.5f), fa2.sample(0.3f, 0.4f, 0.5f));
  EXPECT_NE(fa1.sample(0.3f, 0.4f, 0.5f), fb.sample(0.3f, 0.4f, 0.5f));
}

TEST(Combustion, FieldHasStructureNotConstant) {
  const Extents3D e{32, 32, 32};
  Grid3D<float, ArrayOrderLayout> g(e);
  data::fill_combustion(g);
  float mn = 1e9f, mx = -1e9f;
  double sum = 0;
  g.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    const float v = g.at(i, j, k);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    sum += v;
  });
  EXPECT_LT(mn, 0.1f);
  EXPECT_GT(mx, 0.6f);
  const double mean = sum / static_cast<double>(e.size());
  EXPECT_GT(mean, 0.01);
  EXPECT_LT(mean, 0.9);
}

// ---------------------------------------------------------------------------
// Volume IO
// ---------------------------------------------------------------------------

namespace {

std::filesystem::path temp_dir() {
  const auto dir = std::filesystem::temp_directory_path() / "sfcvis_test_io";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Writes `<name>.bov` declaring `data_size` beside a zero-filled
/// `<name>.raw` of `payload_bytes`; returns the header path.
std::filesystem::path write_bov_files(const std::string& name, const std::string& data_size,
                                      std::uintmax_t payload_bytes) {
  const auto header = temp_dir() / (name + ".bov");
  const auto raw = temp_dir() / (name + ".raw");
  std::ofstream(header) << "DATA_FILE: " << raw.filename().string()
                        << "\nDATA_SIZE: " << data_size << "\nDATA_FORMAT: FLOAT\n";
  std::ofstream(raw, std::ios::binary).close();
  std::filesystem::resize_file(raw, payload_bytes);
  return header;
}

}  // namespace

TEST(VolumeIO, SaveLoadRoundTrip) {
  const Extents3D e{8, 6, 4};
  Grid3D<float, ArrayOrderLayout> g(e);
  g.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return static_cast<float>(i * 100 + j * 10 + k);
  });
  const auto path = temp_dir() / "roundtrip.bov";
  data::save_bov(path, data::to_raw(g));
  const auto loaded = data::load_bov(path);
  EXPECT_EQ(loaded.extents, e);
  ASSERT_EQ(loaded.samples.size(), e.size());
  std::size_t cursor = 0;
  g.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(loaded.samples[cursor++], g.at(i, j, k));
  });
}

TEST(VolumeIO, RoundTripThroughZOrderGrid) {
  const Extents3D e{10, 5, 3};
  Grid3D<float, GeneralizedMortonLayout> g(e);
  g.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return static_cast<float>(i) - 2.0f * static_cast<float>(j) + 0.5f * static_cast<float>(k);
  });
  const auto path = temp_dir() / "zorder.bov";
  data::save_bov(path, data::to_raw(g));

  Grid3D<float, GeneralizedMortonLayout> back(e);
  data::from_raw(data::load_bov(path), back);
  g.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(back.at(i, j, k), g.at(i, j, k));
  });
}

TEST(VolumeIO, FromRawRejectsExtentsMismatch) {
  data::RawVolume vol;
  vol.extents = Extents3D{2, 2, 2};
  vol.samples.assign(8, 0.0f);
  Grid3D<float, ArrayOrderLayout> g(Extents3D{2, 2, 3});
  EXPECT_THROW(data::from_raw(vol, g), std::invalid_argument);
}

TEST(VolumeIO, LoadMissingFileThrows) {
  EXPECT_THROW(data::load_bov(temp_dir() / "nonexistent.bov"), std::runtime_error);
}

TEST(VolumeIO, SaveRejectsInconsistentVolume) {
  data::RawVolume vol;
  vol.extents = Extents3D{4, 4, 4};
  vol.samples.assign(3, 0.0f);  // wrong count
  EXPECT_THROW(data::save_bov(temp_dir() / "bad.bov", vol), std::runtime_error);
}

TEST(VolumeIO, TruncatedPayloadThrows) {
  const Extents3D e{4, 4, 4};
  Grid3D<float, ArrayOrderLayout> g(e);
  const auto path = temp_dir() / "trunc.bov";
  data::save_bov(path, data::to_raw(g));
  // Truncate the payload behind the header's back.
  auto raw = path;
  raw.replace_extension(".raw");
  std::filesystem::resize_file(raw, 10);
  EXPECT_THROW(data::load_bov(path), std::runtime_error);
}

TEST(VolumeIO, DataSizeWrappingSizeTThrows) {
  // 769546 * 494770 * 48448661 wraps size_t to 4: unchecked, this 16-byte
  // payload loads as a volume whose extents claim ~1.8e19 voxels.
  EXPECT_THROW(data::load_bov(write_bov_files("wrap", "769546 494770 48448661", 16)),
               std::runtime_error);
}

TEST(VolumeIO, HugeDataSizeWithShortPayloadThrows) {
  // Every axis is at the 2^21 limit, so validate_extents passes; the
  // 16-byte payload must be rejected before 2^63 samples are allocated
  // (that resize threw std::length_error, not the documented error).
  EXPECT_THROW(data::load_bov(write_bov_files("huge", "2097152 2097152 2097152", 16)),
               std::runtime_error);
}

TEST(VolumeIO, DataSizeAxisAbove2To21Throws) {
  // Payload complete for the header, so only the per-axis limit rejects it.
  EXPECT_THROW(
      data::load_bov(write_bov_files("wide", "4194304 1 1", 4194304 * sizeof(float))),
      std::runtime_error);
}
