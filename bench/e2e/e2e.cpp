// End-to-end benchmark harness. One workload runs per process: its input
// files are loaded and converted to array order and Z-order, one untimed
// warm-up pass runs per layout, then timed passes run in ABBA-interleaved
// array/Z-order pairs. Every timed output is checked against the
// array-order warm-up output, outside the timed regions. run.py builds
// this binary, generates the inputs and turns the JSON line printed last
// into the benchmark result (README.md documents workloads and metrics).
//
//   e2e --selftest                         stats.hpp vs hand-computed values
//   e2e --bandwidth --threads=T            copy bandwidth, arrays of 4x the LLC
//   e2e --generate=W --seed=N --dir=D [--smoke]
//   e2e --run=W --dir=D --seconds=S --trace=0|1 --threads=T [--smoke]
//       [--spans-out=F] [--ppm-dir=P]
//
// Stable-API rule: only the library's public entry points are called
// (parse_layout_spec, AnyVolume::convert_to, ExecutionContext, the
// bilateral/gradient/macrocell/raycast drivers, the data IO and brick-file
// calls, JobGraph::records, the verify comparators), so the code behind
// them can be rewritten without breaking the benchmark. No concrete
// Z-order type, traced driver or scheduling knob is named here.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/simd.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/data/volume_io.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/filters/gradient.hpp"
#include "sfcvis/render/camera.hpp"
#include "sfcvis/render/image.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/render/transfer.hpp"
#include "sfcvis/trace/trace.hpp"
#include "sfcvis/verify/diff.hpp"
#include "sfcvis/verify/rng.hpp"
#include "stats.hpp"

namespace {

using namespace sfcvis;
namespace fs = std::filesystem;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind : std::uint8_t { kOrbit, kDenoise, kPipeline, kStream };

struct Workload {
  const char* name;
  Kind kind;
  core::Extents3D extents;
  std::uint32_t image;  ///< render image edge, pixels (render workloads)
};

// Sizes keep one pass under a second, so a run holds tens of passes per
// layout; README.md gives the reasons for each.
constexpr Workload kWorkloads[] = {
    {"orbit", Kind::kOrbit, {256, 256, 256}, 128},
    {"denoise", Kind::kDenoise, {64, 64, 64}, 0},
    {"pipeline", Kind::kPipeline, {150, 128, 90}, 256},
    {"stream", Kind::kStream, {128, 128, 128}, 128},
};
constexpr Workload kSmoke[] = {
    {"orbit", Kind::kOrbit, {32, 32, 32}, 32},
    {"denoise", Kind::kDenoise, {24, 24, 24}, 0},
    {"pipeline", Kind::kPipeline, {30, 24, 18}, 32},
    {"stream", Kind::kStream, {32, 32, 32}, 32},
};

const Workload& find_workload(const std::string& name, bool smoke) {
  for (std::size_t w = 0; w < std::size(kWorkloads); ++w) {
    if (name == kWorkloads[w].name) {
      return smoke ? kSmoke[w] : kWorkloads[w];
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

constexpr int kLayouts = 2;
constexpr const char* kLayoutSpec[kLayouts] = {"array-order", "z-order"};
constexpr const char* kLayoutTag[kLayouts] = {"array", "zorder"};
constexpr unsigned kViews = 8;
constexpr std::uint32_t kBrickEdge = 16;
constexpr std::uint32_t kMacrocell = 8;

core::LayoutKind layout_kind(int l) { return core::parse_layout_spec(kLayoutSpec[l]).kind; }

fs::path bov_path(const fs::path& dir) { return dir / "volume.bov"; }
fs::path brick_path(const fs::path& dir, int l) {
  return dir / (std::string("volume.") + kLayoutTag[l] + ".sfcbrk");
}

/// The kernels write array-order outputs; this is their view of an
/// AnyVolume made by make_volume(array-order).
core::ArrayVolume& as_array(core::AnyVolume& v) { return v.as<core::ArrayOrderLayout>(); }
const core::ArrayVolume& as_array(const core::AnyVolume& v) {
  return v.as<core::ArrayOrderLayout>();
}

core::AnyVolume array_volume(const core::Extents3D& e) {
  return core::make_volume(layout_kind(0), e);
}

core::AnyVolume from_raw(const data::RawVolume& raw) {
  core::AnyVolume vol = array_volume(raw.extents);
  const std::size_t nx = raw.extents.nx, ny = raw.extents.ny;
  vol.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return raw.samples[i + nx * (j + ny * k)];
  });
  return vol;
}

/// Writes the workload's input files for `seed` into `dir`: a .bov volume
/// (MRI phantom for denoise, combustion field otherwise) and, for stream,
/// one SFCBRK01 file per inner layout. `done` is written last.
void generate(const Workload& w, std::uint32_t seed, const fs::path& dir) {
  fs::create_directories(dir);
  core::AnyVolume vol = array_volume(w.extents);
  if (w.kind == Kind::kDenoise) {
    data::PhantomParams params;
    params.seed = seed;
    data::fill_mri_phantom(vol, params);
  } else {
    data::CombustionParams params;
    params.seed = seed;
    data::fill_combustion(vol, params);
  }
  data::save_bov(bov_path(dir), data::to_raw(as_array(vol)));
  if (w.kind == Kind::kStream) {
    for (int l = 0; l < kLayouts; ++l) {
      core::BrickPackOptions opts;
      opts.brick_edge = kBrickEdge;
      opts.inner_kind = layout_kind(l);
      (void)core::pack_brick_file(brick_path(dir, l).string(), vol, opts);
    }
  }
  std::ofstream(dir / "done") << "ok\n";
}

// ---------------------------------------------------------------------------
// Spans, recorded by the benchmark itself around each public call
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0: a root span (one per pass)
    const char* name = nullptr;
    int layout = -1;
    int pass = -1;
    std::uint64_t start_ns = 0, end_ns = 0;
    [[nodiscard]] std::uint64_t dur() const { return end_ns - start_ns; }
  };

  bool recording = false;

  void set_pass(int layout, int pass) {
    layout_ = layout;
    pass_ = pass;
  }

  /// Runs fn() as span `name` under the innermost open span and returns
  /// its wall-clock seconds; records the span only while `recording`.
  template <class Fn>
  double time(const char* name, Fn&& fn) {
    const bool rec = recording;
    std::uint64_t id = 0;
    if (rec) {
      id = ++last_id_;
      open_.push_back(id);
    }
    const std::uint64_t start = now_ns();
    fn();
    const std::uint64_t end = now_ns();
    if (rec) {
      open_.pop_back();
      records_.push_back({id, open_.empty() ? 0 : open_.back(), name, layout_, pass_, start, end});
    }
    return 1e-9 * static_cast<double>(end - start);
  }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Span duration minus the time its children cover (children of one
  /// span run one after another on this thread, so they never overlap).
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> self_ns() const {
    std::map<std::uint64_t, std::uint64_t> self;
    for (const auto& r : records_) {
      self[r.id] += r.dur();
    }
    for (const auto& r : records_) {
      if (r.parent != 0) {
        self[r.parent] -= r.dur();
      }
    }
    return self;
  }

  void write_json(const fs::path& path, const std::string& workload) const {
    std::ofstream out(path);
    out << "{\"workload\": \"" << workload << "\", \"spans\": [";
    for (std::size_t n = 0; n < records_.size(); ++n) {
      const auto& r = records_[n];
      out << (n == 0 ? "\n" : ",\n") << "{\"id\": " << r.id << ", \"parent\": " << r.parent
          << ", \"name\": \"" << r.name << "\", \"workload\": \"" << workload
          << "\", \"layout\": \"" << (r.layout >= 0 ? kLayoutTag[r.layout] : "")
          << "\", \"pass\": " << r.pass
          << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns << "}";
    }
    out << "\n]}\n";
    if (!out) {
      throw std::runtime_error("cannot write spans to " + path.string());
    }
  }

 private:
  std::vector<Record> records_;
  std::vector<std::uint64_t> open_;
  std::uint64_t last_id_ = 0;
  int layout_ = 0, pass_ = 0;
};

// ---------------------------------------------------------------------------
// Correctness checks and digests
// ---------------------------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the report

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 5) {
        failures.push_back(what);
      }
    }
  }
  void record(const verify::DiffReport& r) { record(r.ok, r.to_string()); }
};

/// Compares any in-core volume with an array-order reference.
verify::DiffReport compare_volume(const core::AnyVolume& ref, const core::AnyVolume& got,
                                  const verify::Tolerance& tol, const std::string& what) {
  return got.visit([&](const auto& g) {
    if constexpr (requires { g.layout(); }) {
      return verify::compare_grids(as_array(ref), g, tol, what);
    } else {
      verify::DiffReport bad;
      bad.ok = false;
      bad.context = what + " [output is not an in-core grid]";
      return bad;
    }
  });
}

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t n = 0; n < bytes; ++n) {
    h = (h ^ p[n]) * 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Machine description
// ---------------------------------------------------------------------------

struct CacheSizes {
  std::size_t l2 = 0, llc = 0;
};

/// L2 and last-level cache sizes of cpu0 from sysfs (0 when unreadable).
CacheSizes read_cache_sizes() {
  CacheSizes out;
  int llc_level = 0;
  for (int idx = 0; idx < 16; ++idx) {
    const fs::path base = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream level_in(base / "level"), size_in(base / "size"), type_in(base / "type");
    int level = 0;
    std::string size, type;
    if (!(level_in >> level) || !(size_in >> size) || !(type_in >> type)) {
      continue;
    }
    if (type == "Instruction" || size.empty()) {
      continue;
    }
    std::size_t bytes = std::stoull(size);
    const char unit = size.back();
    bytes *= unit == 'K' ? 1024ULL : unit == 'M' ? 1024ULL * 1024 : 1ULL;
    if (level == 2) {
      out.l2 = bytes;
    }
    if (level >= llc_level) {
      llc_level = level;
      out.llc = bytes;
    }
  }
  return out;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Copy bandwidth with `threads` threads over two arrays of 4x the LLC
/// each: median of three copies, counting bytes read plus bytes written.
int bandwidth(unsigned threads) {
  const CacheSizes caches = read_cache_sizes();
  const std::size_t llc = caches.llc != 0 ? caches.llc : std::size_t{32} << 20;
  const std::size_t bytes = 4 * llc;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::vector<double> gbs;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t start = now_ns();
    std::vector<std::thread> workers;
    const std::size_t chunk = (bytes + threads - 1) / threads;
    for (unsigned t = 0; t < threads; ++t) {
      const std::size_t lo = std::min(bytes, t * chunk), hi = std::min(bytes, lo + chunk);
      workers.emplace_back([&, lo, hi] { std::memcpy(dst.data() + lo, src.data() + lo, hi - lo); });
    }
    for (auto& w : workers) {
      w.join();
    }
    gbs.push_back(2.0 * static_cast<double>(bytes) / static_cast<double>(now_ns() - start));
  }
  std::printf("{\"copy_gbs\": %.17g, \"array_mib\": %.17g, \"llc_mib\": %.17g}\n",
              e2e::stats::median(gbs), static_cast<double>(bytes) / (1 << 20),
              static_cast<double>(llc) / (1 << 20));
  return dst[bytes / 2] == 1 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// One workload: set-up, passes and checks
// ---------------------------------------------------------------------------

/// Outputs of one pass: volumes named by output_names(kind), then views.
struct Outputs {
  std::vector<core::AnyVolume> volumes;
  std::vector<render::Image> images;
};

std::vector<const char*> output_names(Kind kind) {
  switch (kind) {
    case Kind::kOrbit:
      return {};
    case Kind::kDenoise:
      return {"bilateral_paper", "bilateral_fast"};
    case Kind::kPipeline:
      return {"bilateral_fast", "gradient"};
    case Kind::kStream:
      return {"gradient"};
  }
  return {};
}

/// The fast bilateral tier approximates exp (fast_exp_neg, within 1e-5);
/// every other output must be bit-identical across layouts.
verify::Tolerance tolerance_of(const std::string& name) {
  return name == "bilateral_fast" ? verify::Tolerance::absolute(1e-5f)
                                  : verify::Tolerance::bit_identical();
}

struct PassMeasure {
  double seconds = 0;
  std::vector<double> view_ms;
  double job_stage_s = 0;  ///< wall time of the stages that submit jobs
  std::uint64_t jobs = 0, queue_wait_ns = 0, run_ns = 0;
  core::BrickCacheReport bricks;
  std::uint64_t samples_taken = 0;  ///< traced passes only
  double skip_rate = 0;             ///< traced passes only
};

struct SetupMeasure {
  double total_s = 0, load_s = 0;
  double convert_s[kLayouts] = {};
};

template <class Fn>
double seconds_of(Fn&& fn) {
  const std::uint64_t start = now_ns();
  fn();
  return 1e-9 * static_cast<double>(now_ns() - start);
}

filters::BilateralParams paper_tier() {
  filters::BilateralParams p;
  p.radius = 1;
  p.pencil = filters::PencilAxis::kZ;
  p.order = filters::LoopOrder::kZYX;
  return p;
}

filters::BilateralParams fast_tier(unsigned radius) {
  filters::BilateralParams p;
  p.radius = radius;
  p.use_gather = true;
  p.fast_exp = true;
  p.simd_taps = true;
  return p;
}

class Bench {
 public:
  Bench(const Workload& w, fs::path dir, unsigned threads, fs::path ppm_dir)
      : w_(w), dir_(std::move(dir)), ppm_dir_(std::move(ppm_dir)), threads_(threads) {
    cfg_.image_width = cfg_.image_height = w.image;
    if (w.kind != Kind::kOrbit) {  // orbit is the paper's dense scalar renderer
      cfg_.packet_size = 8;
      cfg_.use_macrocells = true;
      cfg_.macrocell_size = kMacrocell;
    }
    const auto& e = w.extents;
    for (unsigned v = 0; v < kViews; ++v) {
      cams_.push_back(render::orbit_camera(v, kViews, static_cast<float>(e.nx),
                                           static_cast<float>(e.ny), static_cast<float>(e.nz)));
    }
  }

  [[nodiscard]] exec::ExecutionContext& ctx() { return *ctx_; }
  [[nodiscard]] const core::AnyVolume& volume(int l) const { return vols_[l]; }

  /// Creates the context, loads the input and converts it to both
  /// layouts (stream also opens both brick files). Repeatable: each call
  /// replaces the previous state.
  SetupMeasure setup() {
    ctx_.reset();
    for (auto& v : vols_) {
      v = core::AnyVolume();
    }
    SetupMeasure m;
    const std::uint64_t start = now_ns();
    exec::ExecOptions opts;
    opts.threads = threads_;
    opts.backend = exec::Backend::kPool;
    opts.affinity = threads::Affinity::kCompact;
    opts.layout_registry.clear();
    if (w_.kind == Kind::kStream) {  // a quarter of the volume
      opts.memory.brick_cache_bytes = w_.extents.size() * sizeof(float) / 4;
    }
    ctx_ = std::make_unique<exec::ExecutionContext>(opts);
    core::AnyVolume staging;
    m.load_s = seconds_of([&] { staging = from_raw(data::load_bov(bov_path(dir_))); });
    for (int l = 0; l < kLayouts; ++l) {
      m.convert_s[l] = seconds_of([&] { vols_[l] = staging.convert_to(layout_kind(l)); });
    }
    if (w_.kind == Kind::kStream) {
      for (int l = 0; l < kLayouts; ++l) {
        (void)ctx_->open_bricked(brick_path(dir_, l).string(), kPrefetchDepth);
      }
    }
    m.total_s = 1e-9 * static_cast<double>(now_ns() - start);
    return m;
  }

  [[nodiscard]] Outputs make_outputs() const {
    Outputs out;
    for (std::size_t n = 0; n < output_names(w_.kind).size(); ++n) {
      out.volumes.push_back(array_volume(w_.extents));
    }
    out.images.resize(w_.kind == Kind::kDenoise ? 0 : kViews);
    return out;
  }

  /// One pass over layout `l` into `out`; `index` labels its spans.
  PassMeasure pass(int l, int index, Outputs& out) {
    log.set_pass(l, index);
    ctx_->jobs().clear_records();
    const bool stats = log.recording;
    if (stats) {
      trace::Tracer::instance().reset_metrics();
    }
    PassMeasure m;
    m.seconds = log.time("pass", [&] { body(l, out, m, stats); });
    for (const auto& r : ctx_->jobs().records()) {
      ++m.jobs;
      m.queue_wait_ns += r.queue_wait_ns;
      m.run_ns += r.run_ns;
    }
    if (stats) {
      const auto metrics = trace::Tracer::instance().metrics_snapshot();
      m.samples_taken = metrics.total("raycast.samples_taken");
      m.skip_rate = render::skip_rate(metrics);
    }
    return m;
  }

  /// The same kernels as a stream pass over the in-core volume of layout
  /// `l` (the out-of-core path must reproduce them bit for bit).
  [[nodiscard]] Outputs in_core_reference(int l) {
    Outputs out = make_outputs();
    filters::gradient_magnitude(vols_[l], as_array(out.volumes[0]), *ctx_);
    const auto cells = render::MacrocellGrid::build(vols_[l], kMacrocell, ctx_.get());
    for (unsigned v = 0; v < kViews; ++v) {
      out.images[v] = render::raycast_parallel(vols_[l], cams_[v], tf_, cfg_, *ctx_, &cells);
    }
    return out;
  }

  /// The fast bilateral tier on array order against the exact gather mode.
  [[nodiscard]] verify::DiffReport fast_vs_exact_gather(const Outputs& ref) {
    filters::BilateralParams exact = fast_tier(kDenoiseRadius);
    exact.fast_exp = false;
    exact.use_range_lut = false;
    core::AnyVolume out = array_volume(w_.extents);
    filters::bilateral_parallel(vols_[0], as_array(out), exact, *ctx_);
    return compare_volume(out, ref.volumes[1], verify::Tolerance::absolute(1e-5f),
                          "bilateral fast tier vs exact gather");
  }

  SpanLog log;

 private:
  static constexpr std::uint32_t kPrefetchDepth = 2;
  static constexpr unsigned kDenoiseRadius = 3;
  static constexpr unsigned kPipelineRadius = 2;

  template <class Fn>
  double stage(const char* name, Fn&& fn) {
    return log.time(name, std::forward<Fn>(fn));
  }
  template <class Fn>
  double job_stage(const char* name, PassMeasure& m, Fn&& fn) {
    const double s = stage(name, std::forward<Fn>(fn));
    m.job_stage_s += s;
    return s;
  }

  void render_views(const core::AnyVolume& vol, const render::MacrocellGrid* cells,
                    Outputs& out, PassMeasure& m, bool stats) {
    for (unsigned v = 0; v < kViews; ++v) {
      m.view_ms.push_back(1e3 * job_stage("render.view", m, [&] {
        out.images[v] = render::raycast_parallel(vol, cams_[v], tf_, cfg_, *ctx_, cells, stats);
      }));
    }
  }

  void body(int l, Outputs& out, PassMeasure& m, bool stats) {
    switch (w_.kind) {
      case Kind::kOrbit:
        render_views(vols_[l], nullptr, out, m, stats);
        break;
      case Kind::kDenoise:
        job_stage("filters.bilateral_paper", m, [&] {
          filters::bilateral_parallel(vols_[l], as_array(out.volumes[0]), paper_tier(), *ctx_);
        });
        job_stage("filters.bilateral_fast", m, [&] {
          filters::bilateral_parallel(vols_[l], as_array(out.volumes[1]),
                                      fast_tier(kDenoiseRadius), *ctx_);
        });
        break;
      case Kind::kPipeline: {
        core::AnyVolume loaded, vol, filtered;
        stage("data.load", [&] { loaded = from_raw(data::load_bov(bov_path(dir_))); });
        stage("core.convert", [&] { vol = loaded.convert_to(layout_kind(l)); });
        job_stage("filters.bilateral_fast", m, [&] {
          filtered = array_volume(w_.extents);
          filters::bilateral_parallel(vol, as_array(filtered), fast_tier(kPipelineRadius),
                                      *ctx_);
        });
        stage("core.convert", [&] { out.volumes[0] = filtered.convert_to(layout_kind(l)); });
        job_stage("filters.gradient", m, [&] {
          filters::gradient_magnitude(out.volumes[0], as_array(out.volumes[1]), *ctx_);
        });
        render::MacrocellGrid cells;
        stage("render.macrocell_build", [&] {
          cells = render::MacrocellGrid::build(out.volumes[0], kMacrocell, ctx_.get());
        });
        render_views(out.volumes[0], &cells, out, m, stats);
        stage("data.ppm_write", [&] {
          for (unsigned v = 0; v < kViews; ++v) {
            render::write_ppm(ppm_dir_ / (std::string(kLayoutTag[l]) + "_view" +
                                          std::to_string(v) + ".ppm"),
                              out.images[v]);
          }
        });
        break;
      }
      case Kind::kStream: {
        core::AnyVolume vol;
        stage("bricked.open", [&] {
          vol = ctx_->open_bricked(brick_path(dir_, l).string(), kPrefetchDepth);
        });
        job_stage("filters.gradient", m, [&] {
          filters::gradient_magnitude(vol, as_array(out.volumes[0]), *ctx_);
        });
        render::MacrocellGrid cells;
        stage("render.macrocell_build", [&] {
          cells = render::MacrocellGrid::build(vol, kMacrocell, ctx_.get());
        });
        render_views(vol, &cells, out, m, stats);
        m.bricks = vol.as_bricked().cache_report();
        stage("bricked.close", [&] { vol = core::AnyVolume(); });
        break;
      }
    }
  }

  const Workload& w_;
  fs::path dir_, ppm_dir_;
  unsigned threads_;
  render::RenderConfig cfg_;
  render::TransferFunction tf_ = render::TransferFunction::flame();
  std::vector<render::Camera> cams_;
  std::unique_ptr<exec::ExecutionContext> ctx_;
  core::AnyVolume vols_[kLayouts];
};

/// Checks every output of `got` against `ref`; returns the pass/fail count.
void check_outputs(Kind kind, const Outputs& ref, const Outputs& got, const std::string& what,
                   Checks& checks) {
  const auto names = output_names(kind);
  for (std::size_t n = 0; n < names.size(); ++n) {
    checks.record(compare_volume(ref.volumes[n], got.volumes[n], tolerance_of(names[n]),
                                 what + " " + names[n]));
  }
  for (std::size_t v = 0; v < got.images.size(); ++v) {
    checks.record(verify::compare_images(ref.images[v], got.images[v],
                                         verify::Tolerance::bit_identical(),
                                         what + " view " + std::to_string(v)));
  }
}

/// FNV-1a digests of the array-order reference outputs, so runs can be
/// diffed: one per output volume (logical contents, array order) and one
/// over all views.
std::vector<std::pair<std::string, std::string>> digests(Kind kind, const Outputs& ref) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto names = output_names(kind);
  for (std::size_t n = 0; n < names.size(); ++n) {
    const data::RawVolume raw = data::to_raw(as_array(ref.volumes[n]));
    out.emplace_back(names[n], hex(fnv1a(raw.samples.data(), raw.samples.size() * 4)));
  }
  if (!ref.images.empty()) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& img : ref.images) {
      h = fnv1a(img.pixels().data(), img.pixels().size() * sizeof(render::Rgba), h);
    }
    out.emplace_back("views", hex(h));
  }
  return out;
}

/// Keeps the index probe's result observable.
volatile std::size_t g_index_sink = 0;

/// ns per layout().index() over a fixed pseudo-random coordinate stream
/// at the volume's extents (the paper's Sec. III-C indexing cost): median
/// of 15 sweeps of 2^16 coordinates.
double index_ns(const core::AnyVolume& vol) {
  const core::Extents3D e = vol.extents();
  verify::SplitMix64 rng(12345);
  std::vector<std::uint32_t> coords;
  for (int n = 0; n < (1 << 16); ++n) {
    coords.push_back(static_cast<std::uint32_t>(rng.below(e.nx)));
    coords.push_back(static_cast<std::uint32_t>(rng.below(e.ny)));
    coords.push_back(static_cast<std::uint32_t>(rng.below(e.nz)));
  }
  std::vector<double> ns;
  std::size_t sink = 0;
  vol.visit([&](const auto& g) {
    if constexpr (requires { g.layout().index(0U, 0U, 0U); }) {
      for (int rep = 0; rep < 15; ++rep) {
        const std::uint64_t start = now_ns();
        for (std::size_t c = 0; c < coords.size(); c += 3) {
          sink += g.layout().index(coords[c], coords[c + 1], coords[c + 2]);
        }
        ns.push_back(static_cast<double>(now_ns() - start) / (coords.size() / 3.0));
      }
    }
  });
  g_index_sink = sink;
  return ns.empty() ? 0.0 : e2e::stats::median(ns);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Named values with units: `result` is what run.py hands on (the
/// end-to-end metrics untraced, the per-layer metrics traced); `detail`
/// is printed and kept in run.py's --out file only.
struct Report {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> result, detail;

  void add(const std::string& name, double value, const std::string& unit) {
    result.push_back({name, value, unit});
    std::printf("  %-38s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  void note(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
    std::printf("  %-38s %14.6g %s (detail)\n", name.c_str(), value, unit.c_str());
  }
  /// Median, quartiles, tail percentile with n, and min-of-N of a timing.
  void summary(const std::string& name, const std::vector<double>& values,
               const std::string& unit) {
    const auto s = e2e::stats::summarize(values);
    std::printf("  %-38s median %.6g q1 %.6g q3 %.6g p%d %.6g (n=%zu) min %.6g %s\n",
                name.c_str(), s.median, s.q1, s.q3, s.tail_pct, s.tail, s.n, s.min,
                unit.c_str());
    detail.push_back({name + ".p" + std::to_string(s.tail_pct), s.tail, unit});
    detail.push_back({name + ".min", s.min, unit});
    detail.push_back({name + ".n", static_cast<double>(s.n), "count"});
  }

  static std::string json(const std::vector<Entry>& entries) {
    std::ostringstream out;
    out << "{";
    for (std::size_t n = 0; n < entries.size(); ++n) {
      char value[40];
      std::snprintf(value, sizeof value, "%.17g", entries[n].value);
      out << (n == 0 ? "" : ", ") << "\"" << entries[n].name << "\": {\"value\": " << value
          << ", \"unit\": \"" << entries[n].unit << "\"}";
    }
    out << "}";
    return out.str();
  }
};

template <class Fn>
std::vector<double> collect(const std::vector<PassMeasure>& passes, Fn&& fn) {
  std::vector<double> out;
  for (const auto& p : passes) {
    out.push_back(fn(p));
  }
  return out;
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : e2e::stats::median(v);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Passes of one timing mode, by layout; index i of both layouts is one
/// ABBA pair.
struct Passes {
  std::vector<PassMeasure> by_layout[kLayouts];
};

void report_layout_comparison(Report& rep, const Passes& p, bool as_result) {
  const auto a = collect(p.by_layout[0], [](const PassMeasure& m) { return m.seconds; });
  const auto z = collect(p.by_layout[1], [](const PassMeasure& m) { return m.seconds; });
  const auto ds = e2e::stats::bootstrap_ds(a, z, 0x5eed);
  auto put = [&](const std::string& name, double v) {
    as_result ? rep.add(name, v, "ratio") : rep.note(name, v, "ratio");
  };
  put("layout.ds_pass", ds.point);
  put("layout.ds_pass.ci_lo", ds.lo);
  put("layout.ds_pass.ci_hi", ds.hi);
}

/// Per-view medians, the worst view and the frame-time distribution.
void report_views(Report& rep, const Passes& p) {
  double worst[kLayouts] = {};
  for (int l = 0; l < kLayouts; ++l) {
    std::vector<double> frames;
    for (unsigned v = 0; v < kViews; ++v) {
      const auto ms = collect(p.by_layout[l], [&](const PassMeasure& m) { return m.view_ms[v]; });
      frames.insert(frames.end(), ms.begin(), ms.end());
      const double med = e2e::stats::median(ms);
      worst[l] = std::max(worst[l], med);
      rep.note("render.view_ms.v" + std::to_string(v) + "." + kLayoutTag[l], med, "ms");
    }
    rep.note(std::string("render.worst_view_ms.") + kLayoutTag[l], worst[l], "ms");
    rep.summary(std::string("frame_ms.") + kLayoutTag[l], frames, "ms");
  }
  rep.note("layout.ds_worst_view", bench_util::scaled_relative_difference(worst[0], worst[1]),
           "ratio");
}

/// Per-layer metrics of the traced passes, from the benchmark's spans.
void report_layers(Report& rep, const Bench& b, const Passes& traced, const Passes& plain) {
  struct PassTrace {
    int layout = 0;
    double pass_s = 0, root_self_s = 0;
    std::map<std::string, double> module_self_s, stage_s;
  };
  const auto& records = b.log.records();
  const auto self = b.log.self_ns();
  std::map<std::uint64_t, const SpanLog::Record*> by_id;
  for (const auto& r : records) {
    by_id[r.id] = &r;
  }
  std::map<std::uint64_t, PassTrace> passes;
  for (const auto& r : records) {
    const SpanLog::Record* root = &r;
    while (root->parent != 0) {
      root = by_id.at(root->parent);
    }
    PassTrace& pt = passes[root->id];
    pt.layout = root->layout;
    pt.pass_s = 1e-9 * static_cast<double>(root->dur());
    const double self_s = 1e-9 * static_cast<double>(self.at(r.id));
    if (r.parent == 0) {
      pt.root_self_s = self_s;
    } else {
      const std::string name = r.name;
      pt.module_self_s[name.substr(0, name.find('.'))] += self_s;
      pt.stage_s[name] += 1e-9 * static_cast<double>(r.dur());
    }
  }

  std::vector<double> residual;
  for (const auto& [id, pt] : passes) {
    residual.push_back(pt.root_self_s / pt.pass_s);
  }
  for (const char* module : {"core", "data", "filters", "render", "bricked"}) {
    for (int l = 0; l < kLayouts; ++l) {
      std::vector<double> share;
      for (const auto& [id, pt] : passes) {
        if (pt.layout == l) {
          const auto it = pt.module_self_s.find(module);
          share.push_back(it == pt.module_self_s.end() ? 0.0 : it->second / pt.pass_s);
        }
      }
      rep.add(std::string(module) + ".share." + kLayoutTag[l], median_or_zero(share), "frac");
    }
  }
  std::map<std::string, std::vector<double>> stage_samples;
  for (const auto& [id, pt] : passes) {
    for (const auto& [name, s] : pt.stage_s) {
      stage_samples["stage." + name + "_s." + kLayoutTag[pt.layout]].push_back(s);
    }
  }
  for (const auto& [name, samples] : stage_samples) {
    rep.note(name, e2e::stats::median(samples), "s");
  }

  std::vector<PassMeasure> all;
  for (const auto& side : traced.by_layout) {
    all.insert(all.end(), side.begin(), side.end());
  }
  rep.add("render.samples_taken",
          median_or_zero(collect(all, [](const PassMeasure& m) {
            return static_cast<double>(m.samples_taken);
          })),
          "count");
  rep.add("render.skip_rate",
          median_or_zero(collect(all, [](const PassMeasure& m) { return m.skip_rate; })),
          "frac");
  rep.add("exec.jobs",
          median_or_zero(collect(all, [](const PassMeasure& m) { return double(m.jobs); })),
          "count");
  rep.add("exec.queue_wait_us", median_or_zero(collect(all, [](const PassMeasure& m) {
            return 1e-3 * static_cast<double>(m.queue_wait_ns);
          })),
          "us");
  for (int l = 0; l < kLayouts; ++l) {
    rep.add(std::string("exec.run_s.") + kLayoutTag[l],
            median_or_zero(collect(traced.by_layout[l], [](const PassMeasure& m) {
              return 1e-9 * static_cast<double>(m.run_ns);
            })),
            "s");
  }
  rep.add("exec.dispatch_gap_frac", median_or_zero(collect(all, [](const PassMeasure& m) {
            return m.job_stage_s > 0 ? 1.0 - 1e-9 * static_cast<double>(m.run_ns) / m.job_stage_s
                                     : 0.0;
          })),
          "frac");

  for (int l = 0; l < kLayouts; ++l) {
    const std::string tag = kLayoutTag[l];
    const auto& side = traced.by_layout[l];
    auto brick = [&](const char* name, const std::string& unit, auto fn) {
      rep.add(std::string("bricked.") + name + "." + tag, median_or_zero(collect(side, fn)),
              unit);
    };
    brick("hit_ratio", "frac", [](const PassMeasure& m) {
      return ratio(m.bricks.hits, m.bricks.hits + m.bricks.misses);
    });
    brick("misses", "count", [](const PassMeasure& m) { return double(m.bricks.misses); });
    brick("evictions", "count", [](const PassMeasure& m) { return double(m.bricks.evictions); });
    brick("overflow_bricks", "count",
          [](const PassMeasure& m) { return double(m.bricks.overflow_bricks); });
    brick("prefetch_useful", "frac", [](const PassMeasure& m) {
      return ratio(m.bricks.prefetch_hits, m.bricks.prefetch_issued);
    });
  }

  report_layout_comparison(rep, plain, true);
  rep.add("closure.residual_frac", e2e::stats::median(residual), "frac");
  double overhead = 0;
  for (int l = 0; l < kLayouts; ++l) {
    const auto t = collect(traced.by_layout[l], [](const PassMeasure& m) { return m.seconds; });
    const auto u = collect(plain.by_layout[l], [](const PassMeasure& m) { return m.seconds; });
    overhead += e2e::stats::median(t) / e2e::stats::median(u) / kLayouts;
  }
  rep.add("trace.overhead_frac", overhead - 1.0, "frac");
}

// ---------------------------------------------------------------------------
// --run
// ---------------------------------------------------------------------------

constexpr int kMmapThresholdBytes = 256 * 1024;

int run(const bench_util::Options& opts) {
  // A fixed mmap threshold turns off glibc's dynamic one, which otherwise
  // rises to the size of the first freed volume and moves later volumes
  // into the fragmenting heap: peak RSS then grows with the number of
  // passes a run fits in. With it fixed, every volume-sized buffer is
  // mapped and unmapped, and peak_rss_mb is the peak of live memory.
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  const bool smoke = opts.get_flag("smoke");
  const Workload& w = find_workload(opts.get_string("run", ""), smoke);
  const fs::path dir = opts.get_string("dir", "");
  const double seconds = smoke ? 0.0 : opts.get_double("seconds", 10.0);
  const bool trace = opts.get_u32("trace", 0) != 0;
  const unsigned threads = opts.get_u32("threads", 4);
  const fs::path ppm_dir = opts.get_string("ppm-dir", (dir / "ppm").string());
  if (!fs::exists(dir / "done")) {
    throw std::runtime_error("no generated inputs in " + dir.string());
  }
  if (w.kind == Kind::kPipeline) {
    fs::create_directories(ppm_dir);
  }
  std::printf("== %s %ux%ux%u, %u threads, trace %s ==\n", w.name, w.extents.nx, w.extents.ny,
              w.extents.nz, threads, trace ? "on" : "off");

  Bench b(w, dir, threads, ppm_dir);
  std::vector<SetupMeasure> setups;
  for (int r = 0; r < 5; ++r) {  // setup_s is the median of five set-ups
    setups.push_back(b.setup());
  }

  // Warm-up: one untimed pass per layout; the array-order one is the
  // reference every later output is checked against.
  Checks checks;
  Outputs ref = b.make_outputs();
  Outputs work[kLayouts] = {b.make_outputs(), b.make_outputs()};
  (void)b.pass(0, -1, ref);
  (void)b.pass(1, -1, work[1]);
  check_outputs(w.kind, ref, work[1], "warm-up z-order vs array-order", checks);
  if (w.kind == Kind::kDenoise) {
    checks.record(b.fast_vs_exact_gather(ref));
  }
  if (w.kind == Kind::kStream) {
    for (int l = 0; l < kLayouts; ++l) {
      check_outputs(w.kind, b.in_core_reference(l), l == 0 ? ref : work[1],
                    std::string("bricked vs in-core ") + kLayoutTag[l], checks);
    }
  }

  // Timed passes in ABBA pairs, in whole ABBA quads, while the next quad
  // is expected to end within `seconds`. Traced runs alternate untraced
  // and traced quads, so the tracing overhead is measured in the same run.
  const std::size_t step = smoke ? 1 : 2;
  const std::size_t min_pairs = trace ? 4 : step;
  Passes plain, traced;
  const std::uint64_t start = now_ns();
  int index = 0;
  for (std::size_t pair = 0;; ++pair) {
    const double elapsed = 1e-9 * static_cast<double>(now_ns() - start);
    const double per_step = pair == 0 ? 0.0 : elapsed * static_cast<double>(step) / pair;
    if (pair >= min_pairs && pair % step == 0 && elapsed + per_step > seconds) {
      break;
    }
    const bool traced_pair = trace && (pair / 2) % 2 == 1;
    const auto order = e2e::stats::abba_order(pair + 1);
    for (std::size_t side = 2 * pair; side < 2 * pair + 2; ++side) {
      const int l = order[side] == e2e::stats::Side::kA ? 0 : 1;
      b.log.recording = traced_pair;
      PassMeasure m = b.pass(l, index++, work[l]);
      b.log.recording = false;
      check_outputs(w.kind, ref, work[l], std::string("pass ") + kLayoutTag[l], checks);
      if (w.kind == Kind::kStream) {
        checks.record(m.bricks.io_error.empty(), "brick io error: " + m.bricks.io_error);
      }
      (traced_pair ? traced : plain).by_layout[l].push_back(std::move(m));
    }
  }

  const CacheSizes caches = read_cache_sizes();
  std::ostringstream env;
  env << "{\"simd\": \"" << simd::active_isa() << "\", \"backend\": \""
      << exec::to_string(b.ctx().active_backend())
      << "\", \"affinity_applied\": " << (b.ctx().affinity_applied() ? "true" : "false")
      << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"threads\": " << threads
      << ", \"l2_kib\": " << caches.l2 / 1024 << ", \"llc_kib\": " << caches.llc / 1024
      << ", \"compiler\": \"" << E2E_COMPILER << "\", \"build_type\": \"" << E2E_BUILD_TYPE
      << "\"}";
  std::printf("env: %s\n", env.str().c_str());

  Report rep;
  const auto setup_median = [&](auto fn) {
    std::vector<double> v;
    for (const auto& s : setups) {
      v.push_back(fn(s));
    }
    return e2e::stats::median(v);
  };
  if (!trace) {
    rep.add("setup_s", setup_median([](const SetupMeasure& s) { return s.total_s; }), "s");
    for (int l = 0; l < kLayouts; ++l) {
      const auto secs =
          collect(plain.by_layout[l], [](const PassMeasure& m) { return m.seconds; });
      rep.add(std::string("pass_s.") + kLayoutTag[l], e2e::stats::median(secs), "s");
      rep.summary(std::string("pass_s.") + kLayoutTag[l], secs, "s");
    }
    if (w.kind != Kind::kDenoise) {
      report_views(rep, plain);
    }
    report_layout_comparison(rep, plain, false);
  } else {
    for (int l = 0; l < kLayouts; ++l) {
      rep.add(std::string("core.convert_s.") + kLayoutTag[l],
              setup_median([l](const SetupMeasure& s) { return s.convert_s[l]; }), "s");
      rep.add(std::string("core.index_ns.") + kLayoutTag[l], index_ns(b.volume(l)), "ns");
    }
    rep.add("data.load_s", setup_median([](const SetupMeasure& s) { return s.load_s; }), "s");
    report_layers(rep, b, traced, plain);
    const fs::path spans_out = opts.get_string("spans-out", "");
    if (!spans_out.empty()) {
      b.log.write_json(spans_out, w.name);
    }
  }
  const auto ref_digests = digests(w.kind, ref);
  for (const auto& [name, digest] : ref_digests) {
    std::printf("  digest %-30s %s\n", name.c_str(), digest.c_str());
  }
  std::printf("  checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (const auto& f : checks.failures) {
    std::printf("  FAILED %s\n", f.c_str());
  }
  if (!trace) {
    rep.add("peak_rss_mb", peak_rss_mib(), "MiB");
  }

  std::ostringstream out;
  out << "{\"workload\": \"" << w.name << "\", \"env\": " << env.str()
      << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
      << ", \"failures\": [";
  for (std::size_t n = 0; n < checks.failures.size(); ++n) {
    out << (n == 0 ? "\"" : ", \"") << json_escape(checks.failures[n]) << "\"";
  }
  out << "], \"digests\": {";
  for (std::size_t n = 0; n < ref_digests.size(); ++n) {
    out << (n == 0 ? "" : ", ") << "\"" << ref_digests[n].first << "\": \""
        << ref_digests[n].second << "\"";
  }
  out.precision(9);
  out << "}, \"pass_s\": {";
  for (int l = 0; l < kLayouts; ++l) {
    out << (l == 0 ? "\"" : "], \"") << kLayoutTag[l] << "\": [";
    for (std::size_t n = 0; n < plain.by_layout[l].size(); ++n) {
      out << (n == 0 ? "" : ", ") << plain.by_layout[l][n].seconds;
    }
  }
  out << "]}, \"metrics\": " << Report::json(rep.result)
      << ", \"detail\": " << Report::json(rep.detail) << "}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --selftest
// ---------------------------------------------------------------------------

int selftest() {
  using namespace e2e::stats;
  int failed = 0, total = 0;
  const auto expect = [&](bool ok, const char* what) {
    ++total;
    if (!ok) {
      ++failed;
      std::printf("selftest FAILED: %s\n", what);
    }
  };
  const auto near = [](double a, double b) { return std::abs(a - b) < 1e-12; };

  expect(abba_order(2) == std::vector<Side>{Side::kA, Side::kB, Side::kB, Side::kA},
         "abba_order(2) is A B B A");
  expect(abba_order(3).back() == Side::kB && abba_order(0).empty(), "abba_order(3) ends A B");

  const std::vector<double> four{4, 1, 3, 2};
  expect(near(quantile(four, 0.25), 1.75), "q1 of {1,2,3,4} is 1.75");
  expect(near(median(four), 2.5), "median of {1,2,3,4} is 2.5");
  expect(near(quantile(four, 0.75), 3.25), "q3 of {1,2,3,4} is 3.25");
  expect(near(quantile({5}, 0.9), 5.0), "any quantile of {5} is 5");

  expect(tail_percentile(19) == 50 && tail_percentile(39) == 50, "n < 40 has no p75");
  expect(tail_percentile(40) == 75 && tail_percentile(99) == 75, "p75 from n = 40");
  expect(tail_percentile(100) == 90 && tail_percentile(200) == 95, "p90 at 100, p95 at 200");
  expect(tail_percentile(1000) == 99, "p99 from n = 1000");

  std::vector<double> one_to_40;
  for (int v = 40; v >= 1; --v) {
    one_to_40.push_back(v);
  }
  const Summary s = summarize(one_to_40);
  expect(s.n == 40 && near(s.median, 20.5) && near(s.q1, 10.75) && near(s.q3, 30.25),
         "summary of 1..40: median 20.5, q1 10.75, q3 30.25");
  expect(near(s.min, 1) && s.tail_pct == 75 && near(s.tail, 30.25),
         "summary of 1..40: min 1, p75 30.25");

  const Interval flat = bootstrap_ds({2, 2, 2, 2}, {1, 1, 1, 1}, 7);
  expect(near(flat.point, 1) && near(flat.lo, 1) && near(flat.hi, 1),
         "constant 2:1 pairs give ds = 1 with a zero-width interval");
  const Interval mixed = bootstrap_ds({3, 1, 2}, {1, 1, 1}, 7);
  const Interval again = bootstrap_ds({3, 1, 2}, {1, 1, 1}, 7);
  expect(near(mixed.point, 1) && mixed.lo >= 0 && mixed.lo <= 1 && mixed.hi >= 1 &&
             mixed.hi <= 2,
         "ds of a={3,1,2} z={1,1,1} is 1, inside [0, 2]");
  expect(mixed.lo == again.lo && mixed.hi == again.hi, "bootstrap is deterministic per seed");
  expect(bootstrap_ds({1, 1}, {2, 2}, 1).point < 0, "Z-order slower gives negative ds");

  std::printf("selftest: %d of %d checks passed\n", total - failed, total);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bench_util::Options opts(argc, argv);
    if (opts.get_flag("selftest")) {
      return selftest();
    }
    if (opts.has("bandwidth")) {
      return bandwidth(opts.get_u32("threads", 4));
    }
    if (opts.has("generate")) {
      generate(find_workload(opts.get_string("generate", ""), opts.get_flag("smoke")),
               opts.get_u32("seed", 1), opts.get_string("dir", ""));
      return 0;
    }
    if (opts.has("run")) {
      return run(opts);
    }
    std::fprintf(stderr,
                 "usage: e2e --selftest | --bandwidth --threads=T | --generate=W --seed=N "
                 "--dir=D [--smoke] | --run=W --dir=D --seconds=S --trace=0|1 --threads=T "
                 "[--smoke] [--spans-out=F] [--ppm-dir=P]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return 1;
  }
}
