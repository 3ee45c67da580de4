// Ray-packet traversal: K rays (one per image-row pixel run) walk the
// volume together, sharing the vectorized trilinear reconstruction,
// shading and compositing arithmetic from core/simd.hpp.
//
// Bit-identity contract (fuzz-gated in verify/): a packet render must be
// bit-identical to K independent trace_ray calls, on every layout, with
// and without macrocells, for composite / MIP / shaded modes. Two rules
// make that hold:
//  * Everything that decides control flow or a sample position is computed
//    per lane with the exact scalar expressions from raycast.hpp — the
//    slab intersection, t = t_enter + n*step, ray.at(t), the macrocell
//    DDA (cell_of / cell_exit / range / max_opacity / skip_samples_past)
//    and the per-lane run bookkeeping. Lanes keep their own sample index,
//    so packets never perturb where a ray samples.
//  * The packed arithmetic (lerp chains, gradient/normal math, the
//    composite-under update) mirrors the scalar expression shapes
//    operator-for-operator, so FP contraction makes the same fuse/no-fuse
//    choices as the scalar build (see core/simd.hpp's determinism notes).
//    Per-lane transcendentals (TransferFunction::sample, std::pow opacity
//    correction, std::max MIP peaks) stay scalar; transparent lanes skip
//    the pow exactly where trace_ray skips a transparent sample.
// Lanes whose ray missed the box or already terminated are masked out of
// every composite update with select(), so they never see speculative
// arithmetic — inactive-lane garbage cannot leak into live pixels.
//
// This header is internal to the renderer: it is included by raycast.hpp
// (after trace_ray and its helpers) and must not be included directly.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sfcvis/core/simd.hpp"

namespace sfcvis::render::packet_detail {

/// Trilinear reconstruction of K lanes at once. Positions arrive as
/// per-lane scalars (already computed with the scalar ray.at expression);
/// each lane loads its cell with one view.cell call (layout lookups are
/// scalar address math), the lerp chain is packed and mirrors
/// sample_trilinear term for term. Inactive lanes load nothing and
/// reconstruct 0.
template <int K, core::ReadView3D View>
[[nodiscard]] inline simd::vfloat<K> packet_trilinear(const View& view,
                                                      const std::array<float, K>& px,
                                                      const std::array<float, K>& py,
                                                      const std::array<float, K>& pz,
                                                      unsigned active) {
  using VF = simd::vfloat<K>;
  const VF vx = VF::from_array(px);
  const VF vy = VF::from_array(py);
  const VF vz = VF::from_array(pz);
  // vfloor is IEEE floor — bit-equal to the scalar std::floor call.
  const VF fx = vfloor(vx), fy = vfloor(vy), fz = vfloor(vz);
  const VF tx = vx - fx, ty = vy - fy, tz = vz - fz;
  const auto ax = fx.to_array();
  const auto ay = fy.to_array();
  const auto az = fz.to_array();
  std::array<std::array<float, K>, 8> corners{};  // [corner][lane]
  for (int l = 0; l < K; ++l) {
    if (((active >> l) & 1u) == 0) {
      continue;
    }
    const auto c = view.cell(static_cast<std::int64_t>(ax[l]), static_cast<std::int64_t>(ay[l]),
                             static_cast<std::int64_t>(az[l]));
    for (int n = 0; n < 8; ++n) {
      corners[n][l] = c[n];
    }
  }
  const auto corner = [&](int n) { return VF::from_array(corners[n]); };
  const auto lerp = [](VF a, VF b, VF t) { return a + (b - a) * t; };
  const VF c00 = lerp(corner(0), corner(1), tx);
  const VF c10 = lerp(corner(2), corner(3), tx);
  const VF c01 = lerp(corner(4), corner(5), tx);
  const VF c11 = lerp(corner(6), corner(7), tx);
  return lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz);
}

/// Running front-to-back compositing state of a packet, SoA across lanes.
template <int K>
struct PacketComposite {
  simd::vfloat<K> r = simd::vfloat<K>::zero();
  simd::vfloat<K> g = simd::vfloat<K>::zero();
  simd::vfloat<K> b = simd::vfloat<K>::zero();
  simd::vfloat<K> a = simd::vfloat<K>::zero();
};

/// Composites one sample batch: lane l of `ts` is that ray's own
/// t = t_enter + n_l*step (lanes are free to be at different depths —
/// the macrocell DDA desynchronizes them). Mirrors composite_sample in
/// trace_ray exactly; returns the still-below-early-termination lanes.
template <int K, core::ReadView3D View>
[[nodiscard]] inline unsigned packet_composite_batch(
    const View& view, const std::array<Ray, K>& rays, const TransferFunction& tf,
    const RenderConfig& config, const std::array<float, K>& ts, unsigned active,
    PacketComposite<K>& out) {
  using VF = simd::vfloat<K>;
  std::array<float, K> px{}, py{}, pz{};
  for (int l = 0; l < K; ++l) {
    if (((active >> l) & 1u) != 0) {
      const Vec3 position = detail::sample_position(rays[l], ts[l]);
      px[l] = position.x;
      py[l] = position.y;
      pz[l] = position.z;
    }
  }
  const VF value = packet_trilinear<K>(view, px, py, pz, active);
  // Classification is a per-lane scalar transfer-function lookup, exactly
  // the call the scalar path makes.
  std::array<float, K> sr{}, sg{}, sb{}, sa{};
  const auto va = value.to_array();
  for (int l = 0; l < K; ++l) {
    if (((active >> l) & 1u) != 0) {
      const Rgba sample = tf.sample(va[l]);
      sr[l] = sample.r;
      sg[l] = sample.g;
      sb[l] = sample.b;
      sa[l] = sample.a;
    }
  }
  VF vr = VF::from_array(sr);
  VF vg = VF::from_array(sg);
  VF vb = VF::from_array(sb);
  if (config.shade) {
    // Scalar gate: shade only lanes whose classified alpha is positive
    // (checked before opacity correction, as in composite_sample).
    unsigned shade_mask = 0;
    for (int l = 0; l < K; ++l) {
      if (((active >> l) & 1u) != 0 && sa[l] > 0.0f) {
        shade_mask |= 1u << l;
      }
    }
    if (shade_mask != 0) {
      // Six shifted reconstructions; the +-1 offsets are scalar adds on
      // the lane positions, matching gradient_trilinear's Vec3 arithmetic.
      std::array<float, K> sxp = px, sxm = px, syp = py, sym = py, szp = pz, szm = pz;
      for (int l = 0; l < K; ++l) {
        sxp[l] = px[l] + 1;
        sxm[l] = px[l] - 1;
        syp[l] = py[l] + 1;
        sym[l] = py[l] - 1;
        szp[l] = pz[l] + 1;
        szm[l] = pz[l] - 1;
      }
      const VF half = VF::broadcast(0.5f);
      const VF nx = half * (packet_trilinear<K>(view, sxp, py, pz, shade_mask) -
                            packet_trilinear<K>(view, sxm, py, pz, shade_mask));
      const VF ny = half * (packet_trilinear<K>(view, px, syp, pz, shade_mask) -
                            packet_trilinear<K>(view, px, sym, pz, shade_mask));
      const VF nz = half * (packet_trilinear<K>(view, px, py, szp, shade_mask) -
                            packet_trilinear<K>(view, px, py, szm, shade_mask));
      // The normal lanes are bit-equal to gradient_trilinear's components;
      // the lighting scale itself runs through the shared out-of-line
      // helper so its contraction choices match the scalar path exactly.
      // Unshaded lanes scale by exactly 1.0f — a bitwise no-op.
      const auto nxa = nx.to_array();
      const auto nya = ny.to_array();
      const auto nza = nz.to_array();
      std::array<float, K> lit;
      lit.fill(1.0f);
      for (int l = 0; l < K; ++l) {
        if (((shade_mask >> l) & 1u) != 0) {
          lit[l] = detail::headlight_scale(Vec3{nxa[l], nya[l], nza[l]}, rays[l].dir,
                                           config.ambient);
        }
      }
      const VF vlit = VF::from_array(lit);
      vr = vr * vlit;
      vg = vg * vlit;
      vb = vb * vlit;
    }
  }
  // Opacity correction stays per-lane scalar (std::pow has no vector
  // counterpart with matching rounding). Transparent lanes skip it: their
  // alpha stays 0 and composites to a bitwise no-op, as in trace_ray.
  for (int l = 0; l < K; ++l) {
    if (((active >> l) & 1u) != 0 && sa[l] != 0.0f) {
      sa[l] = 1.0f - std::pow(1.0f - sa[l], config.step);
    }
  }
  const VF va2 = VF::from_array(sa);
  // composite_under, vector form — same shape: out += (1 - out.a) * c * a.
  const auto am = simd::vmask<K>::from_bits(active);
  const VF t1 = VF::broadcast(1.0f) - out.a;
  out.r = select(am, out.r + t1 * vr * va2, out.r);
  out.g = select(am, out.g + t1 * vg * va2, out.g);
  out.b = select(am, out.b + t1 * vb * va2, out.b);
  out.a = select(am, out.a + t1 * va2, out.a);
  return to_bits(lt(out.a, VF::broadcast(config.early_termination))) & active;
}

/// MIP batch: packed reconstruction, scalar per-lane peak update (std::max
/// exactly as in trace_ray — the peak also feeds the DDA skip test).
template <int K, core::ReadView3D View>
inline void packet_mip_batch(const View& view, const std::array<Ray, K>& rays,
                             const std::array<float, K>& ts, unsigned active,
                             std::array<float, K>& peak) {
  std::array<float, K> px{}, py{}, pz{};
  for (int l = 0; l < K; ++l) {
    if (((active >> l) & 1u) != 0) {
      const Vec3 position = detail::sample_position(rays[l], ts[l]);
      px[l] = position.x;
      py[l] = position.y;
      pz[l] = position.z;
    }
  }
  const auto va = packet_trilinear<K>(view, px, py, pz, active).to_array();
  for (int l = 0; l < K; ++l) {
    if (((active >> l) & 1u) != 0) {
      peak[l] = std::max(peak[l], va[l]);
    }
  }
}

/// Casts K rays together; writes one Rgba per lane into `out`. Stats
/// accounting matches K scalar trace_ray calls counter for counter.
template <int K, core::ReadView3D View>
void trace_ray_packet(const View& view, const std::array<Ray, K>& rays,
                      const TransferFunction& tf, const RenderConfig& config,
                      const MacrocellGrid* cells, RayStats* stats,
                      std::array<Rgba, K>& out) {
  const auto& e = view.extents();
  const Vec3 lo{-0.5f, -0.5f, -0.5f};
  const Vec3 hi{static_cast<float>(e.nx) - 0.5f, static_cast<float>(e.ny) - 0.5f,
                static_cast<float>(e.nz) - 0.5f};
  std::array<float, K> t_enter{}, t_exit{};
  unsigned alive = 0;
  for (int l = 0; l < K; ++l) {
    out[l] = Rgba{};
    if (const auto span = intersect_box(rays[l], lo, hi)) {
      alive |= 1u << l;
      t_enter[l] = span->first;
      t_exit[l] = span->second;
    }
  }
  if (alive == 0) {
    return;
  }
  const float step = config.step;
  const auto t_of = [&](int l, std::uint64_t n) {
    return detail::sample_param(t_enter[l], n, step);
  };
  const auto count = [&](unsigned mask) {
    if (stats != nullptr) {
      stats->samples_taken += std::popcount(mask);
    }
  };

  if (config.mode == RenderMode::kMip) {
    std::array<float, K> peak;
    peak.fill(-std::numeric_limits<float>::max());
    const unsigned hit = alive;
    if (cells == nullptr) {
      std::uint64_t n = 0;
      unsigned live = alive;
      while (live != 0) {
        unsigned active = 0;
        std::array<float, K> ts{};
        for (int l = 0; l < K; ++l) {
          if (((live >> l) & 1u) == 0) {
            continue;
          }
          const float t = t_of(l, n);
          if (t > t_exit[l]) {
            live &= ~(1u << l);
          } else {
            active |= 1u << l;
            ts[l] = t;
          }
        }
        if (active == 0) {
          break;
        }
        packet_mip_batch<K>(view, rays, ts, active, peak);
        count(active);
        ++n;
      }
    } else {
      std::array<Vec3, K> inv_dir;
      std::array<std::uint64_t, K> ns{};
      std::array<float, K> run_exit{};
      std::array<bool, K> in_run{};
      for (int l = 0; l < K; ++l) {
        inv_dir[l] =
            Vec3{1.0f / rays[l].dir.x, 1.0f / rays[l].dir.y, 1.0f / rays[l].dir.z};
      }
      unsigned live = alive;
      while (live != 0) {
        // Advance every lane that is between sampling runs through its own
        // scalar DDA until it enters a run or leaves the volume.
        for (int l = 0; l < K; ++l) {
          if (((live >> l) & 1u) == 0 || in_run[l]) {
            continue;
          }
          while (true) {
            const float t = t_of(l, ns[l]);
            if (ns[l] != 0 && t > t_exit[l]) {
              live &= ~(1u << l);
              break;
            }
            const CellCoord c = cells->cell_of(detail::sample_position(rays[l], t));
            const float exit =
                std::min(cells->cell_exit(rays[l].origin, inv_dir[l], c), t_exit[l]);
            if (stats != nullptr) {
              ++stats->cells_visited;
            }
            if (cells->range(c).max <= peak[l]) {
              const std::uint64_t next =
                  detail::skip_samples_past(ns[l], exit, t_enter[l], step);
              if (stats != nullptr) {
                stats->samples_skipped += next - ns[l];
                ++stats->cells_skipped;
              }
              ns[l] = next;
            } else {
              in_run[l] = true;
              run_exit[l] = exit;
              break;
            }
          }
        }
        if (live == 0) {
          break;
        }
        std::array<float, K> ts{};
        for (int l = 0; l < K; ++l) {
          if (((live >> l) & 1u) != 0) {
            ts[l] = t_of(l, ns[l]);
          }
        }
        packet_mip_batch<K>(view, rays, ts, live, peak);
        count(live);
        for (int l = 0; l < K; ++l) {
          if (((live >> l) & 1u) != 0) {
            ++ns[l];
            if (t_of(l, ns[l]) > run_exit[l]) {
              in_run[l] = false;
            }
          }
        }
      }
    }
    for (int l = 0; l < K; ++l) {
      if (((hit >> l) & 1u) != 0) {
        Rgba color = tf.sample(peak[l]);
        color.r *= color.a;
        color.g *= color.a;
        color.b *= color.a;
        out[l] = color;
      }
    }
    return;
  }

  PacketComposite<K> acc;
  if (cells == nullptr) {
    std::uint64_t n = 0;
    unsigned live = alive;
    while (live != 0) {
      unsigned active = 0;
      std::array<float, K> ts{};
      for (int l = 0; l < K; ++l) {
        if (((live >> l) & 1u) == 0) {
          continue;
        }
        const float t = t_of(l, n);
        if (t > t_exit[l]) {
          live &= ~(1u << l);
        } else {
          active |= 1u << l;
          ts[l] = t;
        }
      }
      if (active == 0) {
        break;
      }
      const unsigned keep = packet_composite_batch<K>(view, rays, tf, config, ts, active, acc);
      count(active);
      live &= ~(active & ~keep);
      ++n;
    }
  } else {
    std::array<Vec3, K> inv_dir;
    std::array<std::uint64_t, K> ns{};
    std::array<float, K> run_exit{};
    std::array<bool, K> in_run{};
    for (int l = 0; l < K; ++l) {
      inv_dir[l] = Vec3{1.0f / rays[l].dir.x, 1.0f / rays[l].dir.y, 1.0f / rays[l].dir.z};
    }
    unsigned live = alive;
    while (live != 0) {
      for (int l = 0; l < K; ++l) {
        if (((live >> l) & 1u) == 0 || in_run[l]) {
          continue;
        }
        while (true) {
          const float t = t_of(l, ns[l]);
          if (t > t_exit[l]) {
            live &= ~(1u << l);
            break;
          }
          const CellCoord c = cells->cell_of(detail::sample_position(rays[l], t));
          const float exit =
              std::min(cells->cell_exit(rays[l].origin, inv_dir[l], c), t_exit[l]);
          if (stats != nullptr) {
            ++stats->cells_visited;
          }
          const ValueRange range = cells->range(c);
          if (tf.max_opacity(range.min, range.max) <= 0.0f) {
            const std::uint64_t next =
                detail::skip_samples_past(ns[l], exit, t_enter[l], step);
            if (stats != nullptr) {
              stats->samples_skipped += next - ns[l];
              ++stats->cells_skipped;
            }
            ns[l] = next;
          } else {
            in_run[l] = true;
            run_exit[l] = exit;
            break;
          }
        }
      }
      if (live == 0) {
        break;
      }
      std::array<float, K> ts{};
      for (int l = 0; l < K; ++l) {
        if (((live >> l) & 1u) != 0) {
          ts[l] = t_of(l, ns[l]);
        }
      }
      const unsigned keep = packet_composite_batch<K>(view, rays, tf, config, ts, live, acc);
      count(live);
      for (int l = 0; l < K; ++l) {
        if (((live >> l) & 1u) == 0) {
          continue;
        }
        ++ns[l];
        if (((keep >> l) & 1u) == 0) {
          live &= ~(1u << l);
        } else if (t_of(l, ns[l]) > run_exit[l]) {
          in_run[l] = false;
        }
      }
    }
  }
  const auto rr = acc.r.to_array();
  const auto gg = acc.g.to_array();
  const auto bb = acc.b.to_array();
  const auto aa = acc.a.to_array();
  for (int l = 0; l < K; ++l) {
    out[l] = Rgba{rr[l], gg[l], bb[l], aa[l]};
  }
}

/// Packet form of render_tile: K-pixel runs along each row share a packet;
/// the (tile_width mod K) remainder falls back to scalar trace_ray, which
/// is bit-identical by the contract above.
template <int K, core::ReadView3D View>
void render_tile_packets(const View& view, const Camera& camera, const TransferFunction& tf,
                         const RenderConfig& config, Image& image, const Tile& tile,
                         const MacrocellGrid* cells, RayStats* stats) {
  std::array<Ray, K> rays;
  std::array<Rgba, K> colors;
  for (std::uint32_t y = tile.y0; y < tile.y1; ++y) {
    std::uint32_t x = tile.x0;
    for (; x + K <= tile.x1; x += K) {
      for (int l = 0; l < K; ++l) {
        rays[l] = camera.ray_for_pixel(x + static_cast<std::uint32_t>(l), y, image.width(),
                                       image.height());
      }
      trace_ray_packet<K>(view, rays, tf, config, cells, stats, colors);
      for (int l = 0; l < K; ++l) {
        image.at(x + static_cast<std::uint32_t>(l), y) = colors[l];
      }
    }
    for (; x < tile.x1; ++x) {
      const Ray ray = camera.ray_for_pixel(x, y, image.width(), image.height());
      image.at(x, y) = trace_ray(view, ray, tf, config, cells, stats);
    }
  }
}

}  // namespace sfcvis::render::packet_detail
